//! Differential property tests: the indexed [`WaitingList`] is
//! observationally equivalent to the original full-rescan implementation
//! ([`RescanWaitingList`]) under random park/process interleavings.
//!
//! The engine's correctness oracle is release-*order* determinism — the
//! sweep JSON is compared bitwise across the refactor — so these tests pin
//! the strongest claim: for any valid dependency DAG and any arrival
//! permutation, both implementations release exactly the same messages in
//! exactly the same order, report the same `oldest_waiting` values, the
//! same `blocking_mids`, and discard the same transitive-dependent sets.
//!
//! `WaitingList::wake` and `Labeler::note_processed` return before hashing
//! the mid when their tables are empty — the common state. The epoch test
//! below drives the list through empty and populated states in turn and
//! holds both to the same oracles.

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;
use urcgc_causal::{DeliveryTracker, Labeler, RescanWaitingList, WaitingList};
use urcgc_types::{CausalityMode, DataMsg, Mid, ProcessId, Round};

const N_ORIGINS: u16 = 4;

fn mid(p: u16, s: u64) -> Mid {
    Mid::new(ProcessId(p), s)
}

/// A random batch of messages with valid (already-generated) dependencies,
/// including occasional deps on mids that are never generated (standing in
/// for messages lost on the wire — those keep entries parked forever).
fn arb_batch(n_msgs: usize) -> impl Strategy<Value = Vec<(Mid, Vec<Mid>)>> {
    arb_batch_losing(n_msgs, 38) // ~15% of messages dep on a lost mid
}

/// [`arb_batch`] with `lost_below`/256 of the messages depending on a mid
/// that is never sent; 0 makes every message eventually deliverable.
fn arb_batch_losing(n_msgs: usize, lost_below: u8) -> impl Strategy<Value = Vec<(Mid, Vec<Mid>)>> {
    prop::collection::vec(
        (
            0u16..N_ORIGINS,
            prop::collection::vec(any::<prop::sample::Index>(), 0..3),
            any::<u8>(),
        ),
        1..n_msgs,
    )
    .prop_map(move |specs| {
        let mut out: Vec<(Mid, Vec<Mid>)> = Vec::new();
        let mut next_seq = [0u64; N_ORIGINS as usize];
        for (i, (p, dep_picks, lost_roll)) in specs.into_iter().enumerate() {
            let lost_dep = lost_roll < lost_below;
            next_seq[p as usize] += 1;
            let m = mid(p, next_seq[p as usize]);
            let mut deps: Vec<Mid> = if out.is_empty() {
                vec![]
            } else {
                dep_picks
                    .iter()
                    .map(|ix| out[ix.index(out.len())].0)
                    .collect()
            };
            if lost_dep {
                // A dep nobody will ever send: origin 0, far-future seq.
                deps.push(mid(0, 1_000 + i as u64));
            }
            deps.sort();
            deps.dedup();
            out.push((m, deps));
        }
        out
    })
}

fn shuffled(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

fn data(m: Mid, deps: &[Mid]) -> Arc<DataMsg> {
    Arc::new(DataMsg {
        mid: m,
        deps: deps.to_vec(),
        round: Round(0),
        payload: Bytes::new(),
    })
}

/// Feeds `arrivals` to the indexed list the way the engine does (wave-based
/// wake cascade) and returns the mids in processing order.
fn drive_indexed(
    arrivals: &[(Mid, Vec<Mid>)],
    tracker: &mut DeliveryTracker,
    waiting: &mut WaitingList,
) -> Vec<Mid> {
    let mut processed = Vec::new();
    for (m, deps) in arrivals {
        let msg = data(*m, deps);
        if tracker.deliverable(&msg.deps) {
            if tracker.mark_processed(msg.mid) {
                processed.push(msg.mid);
            }
            let mut wave = waiting.wake(msg.mid);
            while !wave.is_empty() {
                let mut next = Vec::new();
                for r in wave {
                    if tracker.mark_processed(r.mid) {
                        processed.push(r.mid);
                    }
                    next.extend(waiting.wake(r.mid));
                }
                next.sort_by_key(|x| x.mid);
                wave = next;
            }
        } else {
            let t = &*tracker;
            assert!(waiting.park(msg, |d| t.is_processed(d)));
        }
    }
    processed
}

/// The same arrivals through the rescan list (`release_ready` fixpoint, the
/// engine's old loop).
fn drive_rescan(
    arrivals: &[(Mid, Vec<Mid>)],
    tracker: &mut DeliveryTracker,
    waiting: &mut RescanWaitingList,
) -> Vec<Mid> {
    let mut processed = Vec::new();
    for (m, deps) in arrivals {
        let msg = data(*m, deps);
        if tracker.deliverable(&msg.deps) {
            if tracker.mark_processed(msg.mid) {
                processed.push(msg.mid);
            }
            loop {
                let t = &*tracker;
                let ready = waiting.release_ready(|d| t.is_processed(d));
                if ready.is_empty() {
                    break;
                }
                for r in ready {
                    if tracker.mark_processed(r.mid) {
                        processed.push(r.mid);
                    }
                }
            }
        } else {
            waiting.park(msg);
        }
    }
    processed
}

proptest! {
    /// Feed the same arrival permutation through both implementations,
    /// driving each exactly the way the engine does (indexed: wave-based
    /// wake cascade; rescan: release_ready fixpoint). The processed-mid
    /// sequences must be identical, as must every observable left behind.
    #[test]
    fn indexed_release_equals_rescan_release(
        batch in arb_batch(24),
        shuffle_seed in any::<u64>(),
    ) {
        let order = shuffled(batch.len(), shuffle_seed);

        let arrivals: Vec<_> = order.iter().map(|&ix| batch[ix].clone()).collect();
        let (mut t_new, mut w_new) = (DeliveryTracker::new(N_ORIGINS as usize), WaitingList::new());
        let order_new = drive_indexed(&arrivals, &mut t_new, &mut w_new);
        let (mut t_old, mut w_old) = (DeliveryTracker::new(N_ORIGINS as usize), RescanWaitingList::new());
        let order_old = drive_rescan(&arrivals, &mut t_old, &mut w_old);

        // Same releases, same order — the determinism oracle.
        prop_assert_eq!(&order_new, &order_old);
        // Same residue: stuck messages, per-origin oldest, blocking deps.
        prop_assert_eq!(w_new.len(), w_old.len());
        let mut stuck_new: Vec<Mid> = w_new.iter().map(|m| m.mid).collect();
        let mut stuck_old: Vec<Mid> = w_old.iter().map(|m| m.mid).collect();
        stuck_new.sort();
        stuck_old.sort();
        prop_assert_eq!(stuck_new, stuck_old);
        for p in 0..N_ORIGINS {
            prop_assert_eq!(
                w_new.oldest_waiting(ProcessId(p)),
                w_old.oldest_waiting(ProcessId(p)),
                "oldest_waiting diverges for origin {}", p
            );
        }
        let tn = &t_new;
        let to = &t_old;
        prop_assert_eq!(
            w_new.blocking_mids(|d| tn.is_processed(d)),
            w_old.blocking_mids(|d| to.is_processed(d))
        );
    }

    /// Epochs of fully deliverable batches: the list fills and runs empty
    /// again and again, so `wake` meets an empty reverse index (its early
    /// return) between populated stretches, and a labeler fed the release
    /// order meets an empty and a populated out-of-order set in turn.
    /// Release order must still equal the rescan order, and the labeler
    /// must know exactly the mids it was told of.
    #[test]
    fn release_order_survives_the_tables_running_empty(
        epochs in prop::collection::vec((arb_batch_losing(12, 0), any::<u64>()), 1..5),
    ) {
        let n = N_ORIGINS as usize + 1;
        let (mut t_new, mut w_new) = (DeliveryTracker::new(n), WaitingList::new());
        let (mut t_old, mut w_old) = (DeliveryTracker::new(n), RescanWaitingList::new());
        let mut labeler = Labeler::new(ProcessId(N_ORIGINS), n, CausalityMode::General);
        let mut temporal = Labeler::new(ProcessId(N_ORIGINS), n, CausalityMode::Temporal);
        let mut base = [0u64; N_ORIGINS as usize];
        let mut sent: Vec<Mid> = Vec::new();
        let mut noted: std::collections::HashSet<Mid> = Default::default();
        for (batch, shuffle_seed) in epochs {
            // Shift the epoch's seqs past everything sent so far.
            let lift = |m: &Mid| mid(m.origin.0, m.seq + base[m.origin.index()]);
            let batch: Vec<(Mid, Vec<Mid>)> = batch
                .iter()
                .map(|(m, deps)| (lift(m), deps.iter().map(lift).collect()))
                .collect();
            for (m, _) in &batch {
                base[m.origin.index()] = base[m.origin.index()].max(m.seq);
            }
            sent.extend(batch.iter().map(|(m, _)| *m));
            let arrivals: Vec<_> = shuffled(batch.len(), shuffle_seed)
                .into_iter()
                .map(|ix| batch[ix].clone())
                .collect();

            let order_new = drive_indexed(&arrivals, &mut t_new, &mut w_new);
            let order_old = drive_rescan(&arrivals, &mut t_old, &mut w_old);
            prop_assert_eq!(&order_new, &order_old);
            prop_assert_eq!(order_new.len(), batch.len(), "nothing depends on a lost mid");
            prop_assert!(w_new.is_empty() && w_old.is_empty());
            prop_assert!(w_new.wake(mid(0, 1)).is_empty(), "wake on an empty list");

            for m in order_new {
                labeler.note_processed(m);
                temporal.note_processed(m);
                noted.insert(m);
                // Temporal labels name the end of each origin's gap-free
                // prefix, which an out-of-order arrival must extend through
                // everything noted ahead of it.
                let prefix_ends: Vec<Mid> = (0..N_ORIGINS)
                    .filter_map(|p| {
                        (1..)
                            .map(|s| mid(p, s))
                            .take_while(|m| noted.contains(m))
                            .last()
                    })
                    .collect();
                prop_assert_eq!(temporal.clone().label(&[]).unwrap().1, prefix_ends);
                for probe in &sent {
                    prop_assert_eq!(
                        labeler.clone().label(&[*probe]).is_ok(),
                        noted.contains(probe),
                        "labeler wrong about {} after {}", probe, m
                    );
                }
            }
        }
    }

    /// Orphan destruction removes the same transitive set from both
    /// implementations, and what remains still releases identically.
    #[test]
    fn indexed_discard_equals_rescan_discard(
        batch in arb_batch(20),
        root_pick in any::<prop::sample::Index>(),
    ) {
        let mut w_new = WaitingList::new();
        let mut w_old = RescanWaitingList::new();
        for (m, deps) in &batch {
            let msg = data(*m, deps);
            // Park everything parkable; dep-free messages are deliverable
            // and the rescan list would release them on the first call, so
            // keep them out of both lists for a like-for-like discard.
            if w_new.park(Arc::clone(&msg), |_| false) {
                w_old.park(msg);
            }
        }
        let root = batch[root_pick.index(batch.len())].0;
        let doomed_new = w_new.discard_dependents(root);
        let doomed_old = w_old.discard_dependents(root);
        prop_assert_eq!(&doomed_new, &doomed_old);

        // Survivors must still agree on a full drain.
        let released_new = {
            let mut out = Vec::new();
            let mut wave: Vec<Arc<DataMsg>> = Vec::new();
            // Wake every possible dep (brute-force drain for the test).
            let mut deps: Vec<Mid> = w_new.blocking_mids(|_| false);
            deps.extend(w_new.iter().map(|m| m.mid).collect::<Vec<_>>());
            deps.sort();
            for d in deps {
                wave.extend(w_new.wake(d));
            }
            wave.sort_by_key(|m| m.mid);
            while !wave.is_empty() {
                let mut next = Vec::new();
                for r in wave {
                    out.push(r.mid);
                    next.extend(w_new.wake(r.mid));
                }
                next.sort_by_key(|x| x.mid);
                wave = next;
            }
            out
        };
        let released_old = {
            let mut out: Vec<Mid> = Vec::new();
            loop {
                let ready = w_old.release_ready(|_| true);
                if ready.is_empty() {
                    break;
                }
                out.extend(ready.iter().map(|m| m.mid));
            }
            out
        };
        // Both drains must empty the survivor sets and agree as sets (the
        // brute-force wake order differs from release_ready's single wave).
        prop_assert!(w_new.is_empty());
        prop_assert!(w_old.is_empty());
        let mut set_new = released_new;
        let mut set_old = released_old;
        set_new.sort();
        set_old.sort();
        prop_assert_eq!(set_new, set_old);
    }
}
