//! The history table, stored as fixed-span **segments** per origin.
//!
//! Each origin's processed messages are split into segments of
//! [`SEGMENT_SPAN`] consecutive sequence numbers, indexed by sequence
//! range. The segmented layout serves the three operations the protocol
//! leans on at soak scale:
//!
//! * [`History::range`] (recovery replies) slices whole segments instead
//!   of walking a comparison-based map;
//! * [`History::advance_stability`] (cleaning) drops whole segments in
//!   O(segments-freed) driven by the group's stability vector, touching
//!   individual slots only in the one boundary segment;
//! * residency gauges ([`History::len`], [`History::payload_bytes`],
//!   [`History::segments_live`]) are maintained incrementally and cost
//!   O(1), so the soak harness can sample them every window for free.
//!
//! The previous flat `BTreeMap`-per-origin layout survives as
//! [`FlatHistory`](crate::FlatHistory), the executable specification the
//! differential proptest compares against.

use std::collections::BTreeMap;
use std::sync::Arc;

use urcgc_types::{DataMsg, Mid, ProcessId, NO_SEQ};

/// Sequence numbers per segment. Sixty-four keeps a segment's slot array
/// in one or two cache lines of pointers while letting a purge over a
/// soak-sized backlog (thousands of sequences) free storage segment-wise.
pub const SEGMENT_SPAN: u64 = 64;

/// A borrowed view of the group-agreed stability vector (`stable[q]` is
/// origin `q`'s group-stable frontier), the sole input of
/// [`History::advance_stability`]. Origins beyond the slice's length are
/// treated as having no stable prefix ([`NO_SEQ`]).
#[derive(Clone, Copy, Debug)]
pub struct StableVector<'a> {
    values: &'a [u64],
}

impl<'a> StableVector<'a> {
    /// Wraps a per-origin stable-frontier slice.
    pub fn new(values: &'a [u64]) -> Self {
        StableVector { values }
    }

    /// The stable frontier for origin index `q` ([`NO_SEQ`] when absent).
    pub fn get(&self, q: usize) -> u64 {
        self.values.get(q).copied().unwrap_or(NO_SEQ)
    }

    /// Width of the underlying vector.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl<'a> From<&'a [u64]> for StableVector<'a> {
    fn from(values: &'a [u64]) -> Self {
        StableVector::new(values)
    }
}

impl<'a> From<&'a Vec<u64>> for StableVector<'a> {
    fn from(values: &'a Vec<u64>) -> Self {
        StableVector::new(values)
    }
}

/// What one [`History::advance_stability`] call cleaned away.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PurgeReport {
    /// Messages dropped.
    pub messages: usize,
    /// Payload bytes released.
    pub bytes: usize,
    /// Whole segments freed (boundary segments that drained to empty
    /// included) — the unit the purge cost is linear in.
    pub segments_freed: usize,
    /// Origins whose stable frontier advanced.
    pub origins_advanced: usize,
}

impl PurgeReport {
    /// Whether the call purged nothing.
    pub fn is_noop(&self) -> bool {
        self.messages == 0 && self.origins_advanced == 0
    }
}

/// One span of [`SEGMENT_SPAN`] sequence numbers for a single origin.
/// Slot `i` holds sequence `index * SEGMENT_SPAN + i + 1`.
#[derive(Clone, Debug)]
struct Segment {
    live: u32,
    slots: Box<[Option<Arc<DataMsg>>]>,
}

impl Segment {
    fn empty() -> Self {
        Segment {
            live: 0,
            slots: vec![None; SEGMENT_SPAN as usize].into_boxed_slice(),
        }
    }
}

/// Segment index holding sequence `seq` (seqs start at 1; [`NO_SEQ`] = 0
/// is never stored).
fn seg_index(seq: u64) -> u64 {
    (seq - 1) / SEGMENT_SPAN
}

/// Slot within the segment for sequence `seq`.
fn seg_slot(seq: u64) -> usize {
    ((seq - 1) % SEGMENT_SPAN) as usize
}

/// First sequence covered by segment `index`.
fn seg_base(index: u64) -> u64 {
    index * SEGMENT_SPAN + 1
}

/// One origin's entry: its segments, the purge frontier (everything
/// `<= purged_to` has been cleaned away), and incremental gauges.
#[derive(Clone, Debug, Default)]
struct Entry {
    purged_to: u64,
    live: usize,
    bytes: usize,
    segments: BTreeMap<u64, Segment>,
}

/// The per-process history buffer: processed messages of every origin, kept
/// until the group agrees they are stable.
#[derive(Clone, Debug)]
pub struct History {
    entries: Vec<Entry>,
    live: usize,
    bytes: usize,
    segments: usize,
}

impl History {
    /// An empty history for a group of `n`.
    pub fn new(n: usize) -> Self {
        History {
            entries: (0..n).map(|_| Entry::default()).collect(),
            live: 0,
            bytes: 0,
            segments: 0,
        }
    }

    /// Group cardinality.
    pub fn n(&self) -> usize {
        self.entries.len()
    }

    /// Saves a processed message. Returns `false` (and stores nothing) if
    /// the message was already present or already purged — both happen
    /// routinely when recovery duplicates traffic. The stored handle is
    /// shared with the caller (and with recovery replies served later) —
    /// saving never copies the message body.
    pub fn save(&mut self, msg: Arc<DataMsg>) -> bool {
        let i = msg.mid.origin.index();
        assert!(i < self.n(), "origin {} outside group", msg.mid.origin);
        assert_ne!(msg.mid.seq, NO_SEQ, "NO_SEQ is not a message");
        let entry = &mut self.entries[i];
        if msg.mid.seq <= entry.purged_to {
            return false;
        }
        let seg = entry
            .segments
            .entry(seg_index(msg.mid.seq))
            .or_insert_with(|| {
                self.segments += 1;
                Segment::empty()
            });
        let slot = &mut seg.slots[seg_slot(msg.mid.seq)];
        if slot.is_some() {
            return false;
        }
        let payload_len = msg.payload.len();
        *slot = Some(msg);
        seg.live += 1;
        entry.live += 1;
        entry.bytes += payload_len;
        self.live += 1;
        self.bytes += payload_len;
        true
    }

    /// Whether `mid` is currently held.
    pub fn contains(&self, mid: Mid) -> bool {
        self.get(mid).is_some()
    }

    /// Retrieves a held message.
    pub fn get(&self, mid: Mid) -> Option<&Arc<DataMsg>> {
        if mid.seq == NO_SEQ {
            return None;
        }
        self.entries
            .get(mid.origin.index())?
            .segments
            .get(&seg_index(mid.seq))?
            .slots[seg_slot(mid.seq)]
        .as_ref()
    }

    /// Messages of `origin` with `after_seq < seq <= upto_seq`, in order —
    /// the payload of a recovery reply, shared straight out of the buffer
    /// (each element is an `Arc` handle; nothing is deep-copied). The reply
    /// is assembled by slicing the overlapping segments — never by scanning
    /// the whole origin. Messages already purged or never processed are
    /// simply absent (the requester retries elsewhere or, past `R`
    /// attempts, leaves the group); an origin outside the group yields the
    /// same empty result as a purged range.
    pub fn range(&self, origin: ProcessId, after_seq: u64, upto_seq: u64) -> Vec<Arc<DataMsg>> {
        let Some(entry) = self.entries.get(origin.index()) else {
            return Vec::new();
        };
        if after_seq >= upto_seq {
            return Vec::new();
        }
        let lo = after_seq + 1; // > NO_SEQ, no overflow: after_seq < upto_seq
        let hi = upto_seq;
        let mut out = Vec::new();
        for (&index, seg) in entry.segments.range(seg_index(lo)..=seg_index(hi)) {
            let base = seg_base(index);
            let first = lo.max(base);
            let last = hi.min(base + SEGMENT_SPAN - 1);
            for m in seg.slots[(first - base) as usize..=(last - base) as usize]
                .iter()
                .flatten()
            {
                out.push(Arc::clone(m));
            }
        }
        out
    }

    /// Advances every origin's purge frontier to the group-agreed stability
    /// vector, dropping everything at or below it. This is the single purge
    /// entry point: segments entirely below a frontier are freed whole
    /// (O(segments-freed)); only the one boundary segment per origin has
    /// its slots cleared individually. Frontiers never regress — a stale
    /// vector is a per-origin no-op.
    pub fn advance_stability(&mut self, stable: &StableVector<'_>) -> PurgeReport {
        let mut report = PurgeReport::default();
        for q in 0..self.n() {
            let upto = stable.get(q);
            if upto <= self.entries[q].purged_to {
                continue;
            }
            report.origins_advanced += 1;
            self.purge_origin(q, upto, &mut report);
        }
        self.live -= report.messages;
        self.bytes -= report.bytes;
        report
    }

    /// Advances one origin's frontier to `upto` (caller checked `upto` is
    /// ahead of it), folding the freed storage into `report`. The caller
    /// settles the table-wide `live`/`bytes` gauges from the report.
    fn purge_origin(&mut self, q: usize, upto: u64, report: &mut PurgeReport) {
        let entry = &mut self.entries[q];
        let prev = std::mem::replace(&mut entry.purged_to, upto);
        // Segments covering only sequences <= upto: all indexes below
        // upto / SPAN (segment `i` ends at (i+1) * SPAN).
        let first_kept = upto / SEGMENT_SPAN;
        if entry
            .segments
            .first_key_value()
            .is_some_and(|(&i, _)| i < first_kept)
        {
            let keep = entry.segments.split_off(&first_kept);
            for seg in std::mem::replace(&mut entry.segments, keep).into_values() {
                report.segments_freed += 1;
                self.segments -= 1;
                report.messages += seg.live as usize;
                entry.live -= seg.live as usize;
                for m in seg.slots.iter().flatten() {
                    report.bytes += m.payload.len();
                    entry.bytes -= m.payload.len();
                }
            }
        }
        // Boundary segment: upto lands mid-segment unless it is an
        // exact multiple of the span.
        if !upto.is_multiple_of(SEGMENT_SPAN) {
            if let Some(seg) = entry.segments.get_mut(&first_kept) {
                // Slots at or below the previous frontier are already
                // empty (`save` refuses them), so a frontier creeping
                // through one segment resumes where it stopped instead of
                // rescanning the segment from slot 0 on every decision.
                let resume = if prev / SEGMENT_SPAN == first_kept {
                    (prev % SEGMENT_SPAN) as usize
                } else {
                    0
                };
                for slot in &mut seg.slots[resume..=seg_slot(upto)] {
                    if let Some(m) = slot.take() {
                        seg.live -= 1;
                        report.messages += 1;
                        report.bytes += m.payload.len();
                        entry.live -= 1;
                        entry.bytes -= m.payload.len();
                    }
                }
                if seg.live == 0 {
                    entry.segments.remove(&first_kept);
                    report.segments_freed += 1;
                    self.segments -= 1;
                }
            }
        }
    }

    /// Like [`advance_stability`](Self::advance_stability), but driven by
    /// the [`StabilityDelta`](crate::StabilityDelta) ranges the stability
    /// matrix emitted while building this decision, so the purge touches
    /// only the origins that actually advanced instead of scanning all `n`
    /// frontiers. The caller must have established that the delta exactly
    /// reconstructs `stable` (see
    /// [`StabilityMatrix::delta_exact`](crate::StabilityMatrix::delta_exact));
    /// debug builds verify it.
    pub fn advance_stability_hinted(
        &mut self,
        stable: &StableVector<'_>,
        delta: &crate::StabilityDelta,
    ) -> PurgeReport {
        let mut report = PurgeReport::default();
        for r in delta.ranges() {
            let q = r.origin.index();
            if q < self.n() && r.upto_seq > self.entries[q].purged_to {
                report.origins_advanced += 1;
                self.purge_origin(q, r.upto_seq, &mut report);
            }
        }
        self.live -= report.messages;
        self.bytes -= report.bytes;
        debug_assert!(
            (0..self.n()).all(|q| stable.get(q) <= self.entries[q].purged_to),
            "stability delta failed to cover the stable vector: stable={:?} purged={:?} ranges={:?}",
            (0..self.n()).map(|q| stable.get(q)).collect::<Vec<_>>(),
            (0..self.n()).map(|q| self.entries[q].purged_to).collect::<Vec<_>>(),
            delta.ranges()
        );
        report
    }

    /// The stable (purge) frontier for origin `q`: everything at or below
    /// it has been cleaned away. [`NO_SEQ`] for an origin outside the group
    /// or one never purged.
    pub fn stable_frontier(&self, q: ProcessId) -> u64 {
        self.entries.get(q.index()).map_or(NO_SEQ, |e| e.purged_to)
    }

    /// Total number of messages currently held — the "history length"
    /// plotted in Figure 6. O(1): maintained incrementally.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the history holds no messages.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of messages held for one origin.
    pub fn len_for(&self, q: ProcessId) -> usize {
        self.entries.get(q.index()).map_or(0, |e| e.live)
    }

    /// Highest held sequence number for origin `q` ([`NO_SEQ`] if none).
    pub fn highest_seq(&self, q: ProcessId) -> u64 {
        let Some(entry) = self.entries.get(q.index()) else {
            return NO_SEQ;
        };
        // Segments are never left empty (purge removes drained boundary
        // segments), so the last segment holds the answer.
        let Some((&index, seg)) = entry.segments.last_key_value() else {
            return NO_SEQ;
        };
        let slot = seg
            .slots
            .iter()
            .rposition(Option::is_some)
            .expect("segments are never empty");
        seg_base(index) + slot as u64
    }

    /// Total payload bytes currently held — the memory-footprint view of
    /// the history length (Section 6 worries that "the required memory
    /// could be unacceptable for small systems"). O(1): maintained
    /// incrementally.
    pub fn payload_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of segments currently allocated across all origins — the
    /// residency gauge the soak harness samples per window.
    pub fn segments_live(&self) -> usize {
        self.segments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use urcgc_types::Round;

    fn msg(p: u16, s: u64) -> Arc<DataMsg> {
        Arc::new(DataMsg {
            mid: Mid::new(ProcessId(p), s),
            deps: vec![],
            round: Round(0),
            payload: Bytes::from(format!("m{p}-{s}")),
        })
    }

    fn mid(p: u16, s: u64) -> Mid {
        Mid::new(ProcessId(p), s)
    }

    /// `advance_stability` for one origin of a width-`n` table.
    fn purge_one(h: &mut History, q: u16, upto: u64) -> PurgeReport {
        let mut stable = vec![NO_SEQ; h.n()];
        stable[q as usize] = upto;
        h.advance_stability(&StableVector::new(&stable))
    }

    #[test]
    fn save_and_get() {
        let mut h = History::new(2);
        assert!(h.save(msg(0, 1)));
        assert!(h.contains(mid(0, 1)));
        assert_eq!(h.get(mid(0, 1)).unwrap().payload, Bytes::from("m0-1"));
        assert_eq!(h.len(), 1);
        assert_eq!(h.len_for(ProcessId(0)), 1);
        assert_eq!(h.len_for(ProcessId(1)), 0);
    }

    #[test]
    fn duplicate_save_is_rejected() {
        let mut h = History::new(1);
        assert!(h.save(msg(0, 1)));
        assert!(!h.save(msg(0, 1)));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn range_extraction_for_recovery() {
        let mut h = History::new(1);
        for s in 1..=5 {
            h.save(msg(0, s));
        }
        let got = h.range(ProcessId(0), 1, 4);
        let seqs: Vec<u64> = got.iter().map(|m| m.mid.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert!(h.range(ProcessId(0), 5, 9).is_empty());
        assert!(h.range(ProcessId(3), 0, 9).is_empty(), "unknown origin");
    }

    #[test]
    fn range_crosses_segment_boundaries() {
        let mut h = History::new(1);
        // Three segments' worth, with holes.
        for s in 1..=(3 * SEGMENT_SPAN) {
            if s % 3 != 0 {
                h.save(msg(0, s));
            }
        }
        let lo = SEGMENT_SPAN - 2;
        let hi = 2 * SEGMENT_SPAN + 2;
        let seqs: Vec<u64> = h
            .range(ProcessId(0), lo, hi)
            .iter()
            .map(|m| m.mid.seq)
            .collect();
        let expect: Vec<u64> = (lo + 1..=hi).filter(|s| s % 3 != 0).collect();
        assert_eq!(seqs, expect);
    }

    #[test]
    fn range_boundary_cases_share_one_empty_shape() {
        let mut h = History::new(2);
        for s in 1..=4 {
            h.save(msg(0, s));
        }
        purge_one(&mut h, 0, 4);
        // Fully purged window, absent origin inside the group, origin
        // outside the group, and inverted/empty windows all produce the
        // same empty Vec<Arc<DataMsg>> — no caller can tell them apart,
        // and none of them deep-copies anything.
        assert!(h.range(ProcessId(0), 0, 4).is_empty(), "fully purged");
        assert!(h.range(ProcessId(1), 0, 9).is_empty(), "never processed");
        assert!(h.range(ProcessId(7), 0, 9).is_empty(), "outside group");
        assert!(h.range(ProcessId(0), 3, 3).is_empty(), "empty window");
        assert!(h.range(ProcessId(0), 9, 2).is_empty(), "inverted window");
        assert!(
            h.range(ProcessId(0), u64::MAX, 1).is_empty(),
            "NO_SEQ-adjacent after_seq must not overflow"
        );
    }

    #[test]
    fn range_shares_storage_with_the_table() {
        let mut h = History::new(1);
        h.save(msg(0, 1));
        let got = h.range(ProcessId(0), 0, 1);
        // The reply holds the same allocation the table does.
        assert!(Arc::ptr_eq(
            &got[0],
            h.get(Mid::new(ProcessId(0), 1)).unwrap()
        ));
    }

    #[test]
    fn range_with_holes_returns_what_exists() {
        let mut h = History::new(1);
        h.save(msg(0, 1));
        h.save(msg(0, 3));
        let seqs: Vec<u64> = h
            .range(ProcessId(0), 0, 3)
            .iter()
            .map(|m| m.mid.seq)
            .collect();
        assert_eq!(seqs, vec![1, 3]);
    }

    #[test]
    fn purge_drops_prefix_and_blocks_resave() {
        let mut h = History::new(1);
        for s in 1..=4 {
            h.save(msg(0, s));
        }
        assert_eq!(purge_one(&mut h, 0, 2).messages, 2);
        assert_eq!(h.len(), 2);
        assert!(!h.contains(mid(0, 1)));
        assert!(h.contains(mid(0, 3)));
        // A stale duplicate of a purged message must not resurrect it.
        assert!(!h.save(msg(0, 2)));
        assert_eq!(h.stable_frontier(ProcessId(0)), 2);
    }

    #[test]
    fn purge_never_regresses() {
        let mut h = History::new(1);
        for s in 1..=4 {
            h.save(msg(0, s));
        }
        purge_one(&mut h, 0, 3);
        let report = purge_one(&mut h, 0, 2);
        assert!(report.is_noop());
        assert_eq!(h.stable_frontier(ProcessId(0)), 3);
    }

    #[test]
    fn advance_stability_applies_whole_vector() {
        let mut h = History::new(2);
        h.save(msg(0, 1));
        h.save(msg(0, 2));
        h.save(msg(1, 1));
        let report = h.advance_stability(&StableVector::new(&[1, 1]));
        assert_eq!(report.messages, 2);
        assert_eq!(report.origins_advanced, 2);
        assert_eq!(h.len(), 1);
        assert!(h.contains(mid(0, 2)));
    }

    #[test]
    fn purge_frees_whole_segments_and_counts_them() {
        let mut h = History::new(1);
        let per = 4 * SEGMENT_SPAN;
        for s in 1..=per {
            h.save(msg(0, s));
        }
        assert_eq!(h.segments_live(), 4);
        // Frontier mid-way into the third segment: two whole segments
        // freed, the boundary segment partially cleared (still live).
        let report = purge_one(&mut h, 0, 2 * SEGMENT_SPAN + 10);
        assert_eq!(report.segments_freed, 2);
        assert_eq!(report.messages as u64, 2 * SEGMENT_SPAN + 10);
        assert_eq!(h.segments_live(), 2);
        assert_eq!(h.len() as u64, per - (2 * SEGMENT_SPAN + 10));
        // Draining the boundary segment exactly frees it too.
        let report = purge_one(&mut h, 0, 3 * SEGMENT_SPAN);
        assert_eq!(report.segments_freed, 1);
        assert_eq!(h.segments_live(), 1);
    }

    #[test]
    fn highest_seq_tracks_tail() {
        let mut h = History::new(1);
        assert_eq!(h.highest_seq(ProcessId(0)), NO_SEQ);
        h.save(msg(0, 2));
        h.save(msg(0, 7));
        assert_eq!(h.highest_seq(ProcessId(0)), 7);
        h.save(msg(0, SEGMENT_SPAN + 5));
        assert_eq!(h.highest_seq(ProcessId(0)), SEGMENT_SPAN + 5);
        purge_one(&mut h, 0, SEGMENT_SPAN + 5);
        assert_eq!(h.highest_seq(ProcessId(0)), NO_SEQ);
    }

    #[test]
    #[should_panic(expected = "outside group")]
    fn save_outside_group_panics() {
        let mut h = History::new(1);
        h.save(msg(3, 1));
    }

    #[test]
    fn payload_bytes_tracks_save_and_purge() {
        let mut h = History::new(2);
        for s in 1..=3u64 {
            h.save(Arc::new(DataMsg {
                mid: Mid::new(ProcessId(0), s),
                deps: vec![],
                round: Round(0),
                payload: Bytes::from(vec![0u8; 10]),
            }));
        }
        assert_eq!(h.payload_bytes(), 30);
        let report = purge_one(&mut h, 0, 2);
        assert_eq!(report.bytes, 20);
        assert_eq!(h.payload_bytes(), 10);
    }

    #[test]
    fn stable_vector_reads_past_the_end_as_no_seq() {
        let sv = StableVector::new(&[3]);
        assert_eq!(sv.get(0), 3);
        assert_eq!(sv.get(9), NO_SEQ);
        assert_eq!(sv.len(), 1);
        assert!(!sv.is_empty());
    }
}
