//! The waiting list (Section 4).
//!
//! A received message whose causal predecessors have not all been processed
//! is "temporarily entered a waiting list waiting for the missing messages".
//! The list also powers two protocol features:
//!
//! * each subrun request reports `waiting[q]` — the **oldest** waiting
//!   sequence number per origin — which the coordinator folds into
//!   `min_waiting` for the orphan-gap test;
//! * when the group agrees a gap is unrecoverable, every process discards
//!   the waiting messages that (transitively) depend on the lost one —
//!   [`WaitingList::discard_dependents`].
//!
//! # Indexed release
//!
//! [`WaitingList`] keeps a **reverse-dependency index**: for every mid that
//! some parked message is still blocked on, the list of blocked mids, plus a
//! per-message counter of unsatisfied dependencies. Processing a mid then
//! wakes exactly its dependents ([`WaitingList::wake`]) in O(dependents)
//! instead of rescanning every parked message and every dependency — the
//! rescan made a burst of W releases cost O(W²·D). A per-origin ordered seq
//! set answers `oldest_waiting` in O(log W) instead of a full key scan.
//!
//! [`RescanWaitingList`] preserves the original rescan implementation as an
//! executable specification: the differential property test asserts both
//! release the same messages in the same deterministic order, and the
//! hotpath microbenchmark measures one against the other.
//!
//! Index invariants (upheld by `park`/`wake`/`discard_*`):
//!
//! * `entries[w].unsatisfied` equals the number of edge occurrences across
//!   `dependents` lists pointing at `w` (one per unsatisfied dep occurrence
//!   of `w` at park time, consumed by `wake`);
//! * every watcher in a `dependents` list is a live entry (discards prune
//!   edges eagerly);
//! * `by_origin[q]` holds exactly the seqs of live entries originated by `q`.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use urcgc_types::{DataMsg, Mid, ProcessId, NO_SEQ};

/// A parked message plus how many of its dependencies are still unprocessed.
#[derive(Clone, Debug)]
struct Parked {
    msg: Arc<DataMsg>,
    unsatisfied: usize,
}

/// Messages parked until their causal predecessors are processed, indexed by
/// what they are blocked on.
#[derive(Clone, Debug, Default)]
pub struct WaitingList {
    entries: HashMap<Mid, Parked>,
    /// Unprocessed dep → mids blocked on it, one occurrence per dep-list
    /// occurrence (duplicate deps decrement the counter twice on wake).
    dependents: HashMap<Mid, Vec<Mid>>,
    /// Origin → ordered waiting seqs, for O(log) `oldest_waiting`.
    by_origin: HashMap<ProcessId, BTreeSet<u64>>,
}

impl WaitingList {
    /// An empty waiting list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of waiting messages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `mid` is currently waiting.
    pub fn contains(&self, mid: Mid) -> bool {
        self.entries.contains_key(&mid)
    }

    /// Parks `msg` unless every dependency is already processed. Returns
    /// `true` if the message is (now or already) waiting; `false` means
    /// nothing was stored and the caller should process it directly.
    /// Re-parking the same mid is idempotent (duplicate receptions are
    /// common under omission-recovery).
    pub fn park(&mut self, msg: Arc<DataMsg>, is_processed: impl Fn(Mid) -> bool) -> bool {
        if self.entries.contains_key(&msg.mid) {
            return true;
        }
        let unsatisfied = msg.deps.iter().filter(|&&d| !is_processed(d)).count();
        if unsatisfied == 0 {
            return false;
        }
        let mid = msg.mid;
        for &d in msg.deps.iter().filter(|&&d| !is_processed(d)) {
            self.dependents.entry(d).or_default().push(mid);
        }
        self.by_origin
            .entry(mid.origin)
            .or_default()
            .insert(mid.seq);
        self.entries.insert(mid, Parked { msg, unsatisfied });
        true
    }

    /// Reports that `mid` has been processed and returns the parked messages
    /// this fully unblocks, sorted by mid. The caller processes each and
    /// wakes it in turn (the urcgc engine drives this cascade wave by wave,
    /// re-sorting each wave, which reproduces the rescan release order).
    pub fn wake(&mut self, mid: Mid) -> Vec<Arc<DataMsg>> {
        // Nothing parked is the common case; it must not cost a hash of
        // `mid` per processed message.
        if self.dependents.is_empty() {
            return Vec::new();
        }
        let Some(watchers) = self.dependents.remove(&mid) else {
            return Vec::new();
        };
        let mut out: Vec<Arc<DataMsg>> = Vec::new();
        for w in watchers {
            let parked = self.entries.get_mut(&w).expect("watcher edges are live");
            parked.unsatisfied -= 1;
            if parked.unsatisfied == 0 {
                let parked = self.entries.remove(&w).expect("just seen");
                self.remove_origin_seq(w);
                out.push(parked.msg);
            }
        }
        out.sort_by_key(|m| m.mid);
        out
    }

    /// `waiting[q]`: the oldest (smallest-seq) waiting message originated by
    /// `q`, or [`NO_SEQ`] if none — the per-origin value sent to the
    /// coordinator each subrun.
    pub fn oldest_waiting(&self, q: ProcessId) -> u64 {
        self.by_origin
            .get(&q)
            .and_then(|seqs| seqs.first().copied())
            .unwrap_or(NO_SEQ)
    }

    /// The full `waiting` vector for a request PDU.
    pub fn waiting_vector(&self, n: usize) -> Vec<u64> {
        (0..n)
            .map(|i| self.oldest_waiting(ProcessId::from_index(i)))
            .collect()
    }

    /// Discards every waiting message that depends — directly or through
    /// other *waiting* messages — on `root`, returning the discarded mids.
    /// This implements the destruction step of orphan-sequence elimination:
    /// "it removes the messages that depend on `max_processed[q] + 1`".
    ///
    /// `root` itself is also discarded if it is waiting.
    pub fn discard_dependents(&mut self, root: Mid) -> Vec<Mid> {
        let mut doomed: BTreeSet<Mid> = BTreeSet::new();
        if self.entries.contains_key(&root) {
            doomed.insert(root);
        }
        // BFS over the reverse index. Every waiting→waiting dependency edge
        // is in the index (a dep on a still-waiting message was necessarily
        // unprocessed at park time), so this reaches the same transitive set
        // the rescan loop did.
        let mut queue: Vec<Mid> = vec![root];
        while let Some(d) = queue.pop() {
            if let Some(watchers) = self.dependents.get(&d) {
                for &w in watchers {
                    if self.entries.contains_key(&w) && doomed.insert(w) {
                        queue.push(w);
                    }
                }
            }
        }
        for &mid in &doomed {
            self.entries.remove(&mid);
            self.remove_origin_seq(mid);
        }
        // Eagerly prune edges from doomed watchers so wake() never meets a
        // dead edge and blocking_mids() never reports a dep nobody waits on.
        if !doomed.is_empty() {
            self.dependents.retain(|_, watchers| {
                watchers.retain(|w| !doomed.contains(w));
                !watchers.is_empty()
            });
        }
        doomed.into_iter().collect()
    }

    /// Discards messages from origin `q` with `seq >= from_seq` and all their
    /// waiting dependents. Convenience wrapper used when a whole suffix of a
    /// crashed origin's sequence is declared lost.
    pub fn discard_origin_suffix(&mut self, q: ProcessId, from_seq: u64) -> Vec<Mid> {
        let roots: Vec<Mid> = self
            .by_origin
            .get(&q)
            .map(|seqs| seqs.range(from_seq..).map(|&s| Mid::new(q, s)).collect())
            .unwrap_or_default();
        let mut all = Vec::new();
        for root in roots {
            all.extend(self.discard_dependents(root));
        }
        all.sort();
        all.dedup();
        all
    }

    /// Iterates over the waiting messages in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<DataMsg>> {
        self.entries.values().map(|p| &p.msg)
    }

    /// All mids a waiting message is still blocked on, deduplicated — the
    /// recovery targets the engine asks the most-updated process for.
    pub fn blocking_mids(&self, is_processed: impl Fn(Mid) -> bool) -> Vec<Mid> {
        let mut out: Vec<Mid> = self
            .dependents
            .keys()
            .copied()
            .filter(|&d| !is_processed(d) && !self.entries.contains_key(&d))
            .collect();
        out.sort();
        out
    }

    fn remove_origin_seq(&mut self, mid: Mid) {
        if let Some(seqs) = self.by_origin.get_mut(&mid.origin) {
            seqs.remove(&mid.seq);
            if seqs.is_empty() {
                self.by_origin.remove(&mid.origin);
            }
        }
    }
}

/// The original full-rescan waiting list, kept as the executable
/// specification for [`WaitingList`]: `release_ready` filters **every**
/// parked message against **every** dependency on each call. The
/// differential property test drives both under random interleavings and
/// asserts identical releases; the hotpath microbench measures the gap.
#[derive(Clone, Debug, Default)]
pub struct RescanWaitingList {
    entries: HashMap<Mid, Arc<DataMsg>>,
}

impl RescanWaitingList {
    /// An empty waiting list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of waiting messages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `mid` is currently waiting.
    pub fn contains(&self, mid: Mid) -> bool {
        self.entries.contains_key(&mid)
    }

    /// Parks `msg`. Re-inserting the same mid is idempotent.
    pub fn park(&mut self, msg: Arc<DataMsg>) {
        self.entries.entry(msg.mid).or_insert(msg);
    }

    /// Removes and returns the waiting messages whose dependencies are now
    /// all satisfied according to `is_processed`, sorted by mid. The caller
    /// marks them processed and calls again until a fixpoint.
    pub fn release_ready(&mut self, is_processed: impl Fn(Mid) -> bool) -> Vec<Arc<DataMsg>> {
        let ready: Vec<Mid> = self
            .entries
            .values()
            .filter(|m| m.deps.iter().all(|&d| is_processed(d)))
            .map(|m| m.mid)
            .collect();
        let mut out: Vec<Arc<DataMsg>> = ready
            .into_iter()
            .map(|mid| self.entries.remove(&mid).expect("just listed"))
            .collect();
        out.sort_by_key(|m| m.mid);
        out
    }

    /// `waiting[q]` by scanning all keys (the cost `WaitingList` indexes
    /// away).
    pub fn oldest_waiting(&self, q: ProcessId) -> u64 {
        self.entries
            .keys()
            .filter(|m| m.origin == q)
            .map(|m| m.seq)
            .min()
            .unwrap_or(NO_SEQ)
    }

    /// Discards every waiting message transitively dependent on `root`
    /// (including `root` itself if waiting), by repeated rescans.
    pub fn discard_dependents(&mut self, root: Mid) -> Vec<Mid> {
        let mut doomed: Vec<Mid> = Vec::new();
        if self.entries.contains_key(&root) {
            doomed.push(root);
        }
        loop {
            let mut grew = false;
            for (mid, msg) in &self.entries {
                if doomed.contains(mid) {
                    continue;
                }
                if msg.deps.iter().any(|d| *d == root || doomed.contains(d)) {
                    doomed.push(*mid);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        for mid in &doomed {
            self.entries.remove(mid);
        }
        doomed.sort();
        doomed
    }

    /// All mids a waiting message is still blocked on, deduplicated.
    pub fn blocking_mids(&self, is_processed: impl Fn(Mid) -> bool) -> Vec<Mid> {
        let mut out: Vec<Mid> = self
            .entries
            .values()
            .flat_map(|m| m.deps.iter().copied())
            .filter(|&d| !is_processed(d) && !self.entries.contains_key(&d))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Iterates over the waiting messages in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<DataMsg>> {
        self.entries.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use urcgc_types::Round;

    fn msg(p: u16, s: u64, deps: &[(u16, u64)]) -> Arc<DataMsg> {
        Arc::new(DataMsg {
            mid: Mid::new(ProcessId(p), s),
            deps: deps
                .iter()
                .map(|&(dp, ds)| Mid::new(ProcessId(dp), ds))
                .collect(),
            round: Round(0),
            payload: Bytes::new(),
        })
    }

    fn mid(p: u16, s: u64) -> Mid {
        Mid::new(ProcessId(p), s)
    }

    #[test]
    fn park_and_wake_on_satisfied_deps() {
        let mut w = WaitingList::new();
        assert!(w.park(msg(1, 1, &[(0, 1)]), |_| false));
        assert_eq!(w.len(), 1);
        assert!(w.wake(mid(9, 9)).is_empty());
        let out = w.wake(mid(0, 1));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].mid, mid(1, 1));
        assert!(w.is_empty());
    }

    #[test]
    fn park_refuses_deliverable_messages() {
        let mut w = WaitingList::new();
        assert!(!w.park(msg(1, 1, &[(0, 1)]), |d| d == mid(0, 1)));
        assert!(!w.park(msg(2, 1, &[]), |_| false));
        assert!(w.is_empty());
    }

    #[test]
    fn park_is_idempotent() {
        let mut w = WaitingList::new();
        assert!(w.park(msg(1, 1, &[(0, 1)]), |_| false));
        assert!(w.park(msg(1, 1, &[(0, 1)]), |_| false));
        assert_eq!(w.len(), 1);
        assert_eq!(w.wake(mid(0, 1)).len(), 1);
        assert!(w.wake(mid(0, 1)).is_empty());
    }

    #[test]
    fn duplicate_deps_count_once_per_occurrence() {
        let mut w = WaitingList::new();
        // Same dep listed twice: a single wake must still release it.
        assert!(w.park(msg(1, 1, &[(0, 1), (0, 1)]), |_| false));
        let out = w.wake(mid(0, 1));
        assert_eq!(out.len(), 1);
        assert!(w.is_empty());
    }

    #[test]
    fn wake_is_sorted_by_mid() {
        let mut w = WaitingList::new();
        w.park(msg(2, 1, &[(7, 7)]), |_| false);
        w.park(msg(0, 5, &[(7, 7)]), |_| false);
        w.park(msg(0, 2, &[(7, 7)]), |_| false);
        let out = w.wake(mid(7, 7));
        let mids: Vec<_> = out.iter().map(|m| m.mid).collect();
        assert_eq!(mids, vec![mid(0, 2), mid(0, 5), mid(2, 1)]);
    }

    #[test]
    fn wake_releases_only_fully_unblocked() {
        let mut w = WaitingList::new();
        w.park(msg(1, 1, &[(0, 1), (0, 2)]), |_| false);
        assert!(w.wake(mid(0, 1)).is_empty());
        assert_eq!(w.len(), 1);
        let out = w.wake(mid(0, 2));
        assert_eq!(out.len(), 1);
        assert!(w.is_empty());
    }

    #[test]
    fn oldest_waiting_per_origin() {
        let mut w = WaitingList::new();
        w.park(msg(0, 7, &[(1, 1)]), |_| false);
        w.park(msg(0, 3, &[(1, 1)]), |_| false);
        w.park(msg(2, 9, &[(1, 1)]), |_| false);
        assert_eq!(w.oldest_waiting(ProcessId(0)), 3);
        assert_eq!(w.oldest_waiting(ProcessId(1)), NO_SEQ);
        assert_eq!(w.oldest_waiting(ProcessId(2)), 9);
        assert_eq!(w.waiting_vector(3), vec![3, NO_SEQ, 9]);
        // Index stays exact after release.
        w.wake(mid(1, 1));
        assert_eq!(w.oldest_waiting(ProcessId(0)), NO_SEQ);
        assert_eq!(w.oldest_waiting(ProcessId(2)), NO_SEQ);
    }

    #[test]
    fn discard_dependents_cascades() {
        let mut w = WaitingList::new();
        // Waiting chain: 1#2 ← 1#3 ← 2#1 ; plus unrelated 3#1.
        w.park(msg(1, 2, &[(1, 1)]), |_| false);
        w.park(msg(1, 3, &[(1, 2)]), |_| false);
        w.park(msg(2, 1, &[(1, 3)]), |_| false);
        w.park(msg(3, 1, &[(0, 1)]), |_| false);
        let doomed = w.discard_dependents(mid(1, 1));
        assert_eq!(doomed, vec![mid(1, 2), mid(1, 3), mid(2, 1)]);
        assert_eq!(w.len(), 1);
        assert!(w.contains(mid(3, 1)));
        // Discarded watchers left no edges behind.
        assert_eq!(w.blocking_mids(|_| false), vec![mid(0, 1)]);
        assert_eq!(w.oldest_waiting(ProcessId(1)), NO_SEQ);
    }

    #[test]
    fn discard_root_itself_if_waiting() {
        let mut w = WaitingList::new();
        w.park(msg(1, 2, &[(1, 1)]), |_| false);
        let doomed = w.discard_dependents(mid(1, 2));
        assert_eq!(doomed, vec![mid(1, 2)]);
        assert!(w.wake(mid(1, 1)).is_empty());
    }

    #[test]
    fn discard_origin_suffix_hits_all_later_seqs() {
        let mut w = WaitingList::new();
        w.park(msg(1, 3, &[(1, 2)]), |_| false);
        w.park(msg(1, 5, &[(1, 4)]), |_| false);
        w.park(msg(2, 1, &[(1, 5)]), |_| false);
        w.park(msg(0, 1, &[(9, 9)]), |_| false);
        let doomed = w.discard_origin_suffix(ProcessId(1), 3);
        assert_eq!(doomed, vec![mid(1, 3), mid(1, 5), mid(2, 1)]);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn blocking_mids_excludes_parked_and_processed() {
        let processed = |d: Mid| d == mid(0, 1);
        let mut w = WaitingList::new();
        w.park(msg(1, 2, &[(1, 1)]), |_| false); // blocked on 1#1 (missing)
        w.park(msg(1, 3, &[(1, 2)]), |_| false); // blocked on 1#2 (parked, not missing)
        w.park(msg(2, 1, &[(0, 1), (4, 4)]), processed); // 0#1 satisfied at park
        let blocking = w.blocking_mids(processed);
        assert_eq!(blocking, vec![mid(1, 1), mid(4, 4)]);
    }

    #[test]
    fn rescan_reference_still_releases_in_mid_order() {
        let mut w = RescanWaitingList::new();
        w.park(msg(2, 1, &[]));
        w.park(msg(0, 5, &[]));
        w.park(msg(0, 2, &[]));
        let out = w.release_ready(|_| true);
        let mids: Vec<_> = out.iter().map(|m| m.mid).collect();
        assert_eq!(mids, vec![mid(0, 2), mid(0, 5), mid(2, 1)]);
        assert_eq!(w.oldest_waiting(ProcessId(0)), NO_SEQ);
    }
}
