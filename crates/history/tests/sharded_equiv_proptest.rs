//! Differential property test: the sharded [`History`] is observably
//! equivalent to the retired flat layout ([`FlatHistory`], the executable
//! specification) under random insert/purge interleavings — the same
//! pattern as the waiting-list differential of the indexed-drain rewrite.
//!
//! Every operation's return value and every observable (`range`,
//! `advance_stability`, `stable_frontier`, `len`, `len_for`,
//! `highest_seq`, `payload_bytes`, `contains`, `get`) must agree, except
//! `PurgeReport::segments_freed` and `segments_live`, which only the
//! segmented layout has; those are checked against the segments the flat
//! table's contents occupy.
//!
//! The purge of a boundary segment resumes where the previous frontier
//! stopped, so besides whole random vectors the operations include runs of
//! small per-origin steps (inside one segment and across segment edges)
//! and the hinted entry point.

use bytes::Bytes;
use proptest::prelude::*;
use urcgc_history::{
    FlatHistory, History, StabilityDelta, StabilityMatrix, StableVector, SEGMENT_SPAN,
};
use urcgc_types::{DataMsg, Decision, Mid, ProcessId, Round, NO_SEQ};

fn msg(p: u16, s: u64) -> std::sync::Arc<DataMsg> {
    std::sync::Arc::new(DataMsg {
        mid: Mid::new(ProcessId(p), s),
        deps: vec![],
        round: Round(0),
        // Distinct payload sizes so byte accounting divergence shows up.
        payload: Bytes::from(vec![0u8; (s % 17) as usize]),
    })
}

#[derive(Clone, Debug)]
enum Op {
    /// Save (origin, seq).
    Save(u16, u64),
    /// Advance the whole stability vector.
    Advance(Vec<u64>),
    /// Creep one origin's frontier forward by each step in turn.
    Creep(u16, Vec<u64>),
    /// Advance every frontier by its bump through the hinted entry point.
    Hinted(Vec<u64>),
    /// Probe a recovery range (origin, after, upto).
    Range(u16, u64, u64),
}

fn op_strategy(n: u16, max_seq: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..n, 1..max_seq + 1).prop_map(|(p, s)| Op::Save(p, s)),
        (0..n, 1..max_seq + 1).prop_map(|(p, s)| Op::Save(p, s.saturating_mul(2))),
        prop::collection::vec(0..max_seq + 1, n as usize).prop_map(Op::Advance),
        (0..n, prop::collection::vec(1..4u64, 1..40)).prop_map(|(p, steps)| Op::Creep(p, steps)),
        prop::collection::vec(0..SEGMENT_SPAN + 4, n as usize).prop_map(Op::Hinted),
        (0..n + 1, 0..max_seq + 1, 0..max_seq + 1).prop_map(|(p, a, u)| Op::Range(p, a, u)),
    ]
}

/// The delta a coordinator accumulates when every member reports `target`
/// on top of a decision whose stable vector is `frontier`.
fn delta_between(frontier: &[u64], target: &[u64]) -> StabilityDelta {
    let n = frontier.len();
    let mut baseline = Decision::genesis(n);
    baseline.stable = frontier.to_vec();
    let mut matrix = StabilityMatrix::new(n);
    let mut delta = StabilityDelta::default();
    for p in 0..n {
        delta.merge(matrix.record(
            ProcessId::from_index(p),
            target.to_vec(),
            vec![NO_SEQ; n],
            &baseline,
        ));
    }
    assert!(matrix.delta_exact());
    delta
}

/// Advances both tables to `stable` — the sharded one through the hinted
/// entry point when a `delta` is given — and holds the two reports equal.
/// `segments_freed` exists only in the segmented layout; it must be the
/// number of segments the flat table's contents stopped occupying.
fn advance_both(
    sharded: &mut History,
    flat: &mut FlatHistory,
    stable: &[u64],
    delta: Option<&StabilityDelta>,
) {
    let n = stable.len();
    let stable = StableVector::new(stable);
    let before = occupied_segments(flat, n);
    let a = match delta {
        Some(delta) => sharded.advance_stability_hinted(&stable, delta),
        None => sharded.advance_stability(&stable),
    };
    let b = flat.advance_stability(&stable);
    assert_eq!(
        (a.messages, a.bytes, a.origins_advanced),
        (b.messages, b.bytes, b.origins_advanced)
    );
    assert_eq!(a.segments_freed, before - occupied_segments(flat, n));
}

/// Segments the flat table's contents occupy.
fn occupied_segments(flat: &FlatHistory, n: usize) -> usize {
    (0..n as u16)
        .map(|q| {
            let seqs = flat.range(ProcessId(q), NO_SEQ, u64::MAX);
            let mut segs: Vec<u64> = seqs
                .iter()
                .map(|m| (m.mid.seq - 1) / SEGMENT_SPAN)
                .collect();
            segs.dedup();
            segs.len()
        })
        .sum()
}

proptest! {
    #[test]
    fn sharded_table_matches_flat_specification(
        ops in prop::collection::vec(op_strategy(3, 3 * SEGMENT_SPAN + 7), 1..120)
    ) {
        let n = 3;
        let mut sharded = History::new(n);
        let mut flat = FlatHistory::new(n);
        for op in ops {
            match op {
                Op::Save(p, s) => {
                    let m = msg(p, s);
                    prop_assert_eq!(
                        sharded.save(std::sync::Arc::clone(&m)),
                        flat.save(m),
                        "save(p{}#{})", p, s
                    );
                }
                Op::Advance(stable) => advance_both(&mut sharded, &mut flat, &stable, None),
                Op::Creep(p, steps) => {
                    let mut stable: Vec<u64> = (0..n as u16)
                        .map(|q| flat.stable_frontier(ProcessId(q)))
                        .collect();
                    for step in steps {
                        stable[p as usize] += step;
                        advance_both(&mut sharded, &mut flat, &stable, None);
                        prop_assert_eq!(sharded.len(), flat.len());
                        prop_assert_eq!(sharded.payload_bytes(), flat.payload_bytes());
                        prop_assert_eq!(sharded.segments_live(), occupied_segments(&flat, n));
                    }
                }
                Op::Hinted(bumps) => {
                    let frontier: Vec<u64> = (0..n as u16)
                        .map(|q| flat.stable_frontier(ProcessId(q)))
                        .collect();
                    let stable: Vec<u64> = frontier.iter().zip(&bumps).map(|(f, b)| f + b).collect();
                    let delta = delta_between(&frontier, &stable);
                    advance_both(&mut sharded, &mut flat, &stable, Some(&delta));
                }
                Op::Range(p, after, upto) => {
                    let a = sharded.range(ProcessId(p), after, upto);
                    let b = flat.range(ProcessId(p), after, upto);
                    prop_assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(&b) {
                        prop_assert!(std::sync::Arc::ptr_eq(x, y) || x.mid == y.mid);
                        prop_assert_eq!(x.mid, y.mid);
                    }
                }
            }
            // Observables agree after every step.
            prop_assert_eq!(sharded.len(), flat.len());
            prop_assert_eq!(sharded.is_empty(), flat.is_empty());
            prop_assert_eq!(sharded.payload_bytes(), flat.payload_bytes());
            prop_assert_eq!(sharded.segments_live(), occupied_segments(&flat, n));
            for q in 0..n as u16 {
                let q = ProcessId(q);
                prop_assert_eq!(sharded.stable_frontier(q), flat.stable_frontier(q));
                prop_assert_eq!(sharded.len_for(q), flat.len_for(q));
                prop_assert_eq!(sharded.highest_seq(q), flat.highest_seq(q));
            }
            // Out-of-group probes share the same shape too.
            let out = ProcessId(9);
            prop_assert_eq!(sharded.stable_frontier(out), NO_SEQ);
            prop_assert_eq!(sharded.len_for(out), 0);
        }
        // Full-table sweep: identical contents, element by element.
        for q in 0..n as u16 {
            let a = sharded.range(ProcessId(q), NO_SEQ, u64::MAX);
            let b = flat.range(ProcessId(q), NO_SEQ, u64::MAX);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert!(std::sync::Arc::ptr_eq(x, y));
                prop_assert!(sharded.contains(x.mid) && flat.contains(y.mid));
                prop_assert!(sharded.get(x.mid).is_some());
            }
        }
    }
}
