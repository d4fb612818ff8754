//! Coordinator-side decision making (Section 4, Figure 2).
//!
//! During the first round of its subrun the coordinator collects
//! [`RequestMsg`](urcgc_types::RequestMsg)-equivalents — each member's
//! `last_processed` vector, its oldest-waiting vector, and the freshest
//! previous decision the member has seen. [`StabilityMatrix::compute`] then
//! performs the "local processing on a set of data structures that allow the
//! coordinator to figure the global knowledge about the whole system":
//!
//! * **stability** — per origin, the minimum `last_processed` over the
//!   contributors, continued across subruns through the decision's
//!   `covered` set until every alive process has been heard from
//!   (`full_group`);
//! * **failure detection** — `attempts[i]` incremented for every alive
//!   process that did not contribute, reset for those that did; reaching
//!   `K` declares the process crashed;
//! * **recovery hints** — `max_processed[q]`: the most updated *alive*
//!   process per sequence;
//! * **orphan detection** — `min_waiting[q]`: the group-wide oldest waiting
//!   sequence number per origin.

use std::borrow::Borrow;
use std::sync::Arc;

use urcgc_types::{Decision, MaxProcessed, ProcessId, Subrun, NO_SEQ};

/// One member's contribution to the current subrun.
#[derive(Clone, Debug)]
struct Contribution {
    last_processed: Vec<u64>,
    waiting: Vec<u64>,
}

/// A half-open sequence range `(after_seq, upto_seq]` of one origin that
/// just became group-stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StableRange {
    /// Origin whose messages became stable.
    pub origin: ProcessId,
    /// Stability held through this sequence already.
    pub after_seq: u64,
    /// … and now holds through this one.
    pub upto_seq: u64,
}

/// The typed result of [`StabilityMatrix::record`]: the (origin, seq)
/// ranges that became group-stable with this contribution, so the purge
/// path consumes ranges directly instead of re-diffing whole stable
/// vectors. Empty until every process alive in the baseline decision has
/// contributed — stability is only actionable at full coverage, exactly
/// when [`StabilityMatrix::compute`] would emit a `full_group` decision.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StabilityDelta {
    ranges: Vec<StableRange>,
}

impl StabilityDelta {
    /// Whether no new ranges became stable.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The newly stable ranges, at most one per origin.
    pub fn ranges(&self) -> &[StableRange] {
        &self.ranges
    }

    /// Folds another delta in (later calls extend earlier ones).
    pub fn merge(&mut self, other: StabilityDelta) {
        self.ranges.extend(other.ranges);
    }
}

/// Incremental mirror of the stability part of
/// [`StabilityMatrix::compute`], maintained by `record` so deltas can be
/// emitted without recomputing the whole matrix.
#[derive(Clone, Debug)]
struct DeltaAcc {
    /// The baseline decision's stable vector and alive view.
    baseline_stable: Vec<u64>,
    baseline_alive: Vec<bool>,
    /// Accumulated coverage/min, exactly as `compute` would build them on
    /// top of the baseline.
    covered: Vec<bool>,
    stable: Vec<u64>,
    /// Highest stable value already emitted as a delta, per origin.
    reported: Vec<u64>,
    /// A later contribution pulled a min below an emitted value (a
    /// declared-dead straggler can do this); emitted ranges can no longer
    /// be trusted as a purge hint.
    overclaimed: bool,
}

/// Accumulates member requests for one subrun and computes the decision.
#[derive(Clone, Debug)]
pub struct StabilityMatrix {
    n: usize,
    contributions: Vec<Option<Contribution>>,
    /// The freshest previous decision seen in any request (decision
    /// circulation: with resilience `t = (n−1)/2` at least one copy of the
    /// previous decision reaches the current coordinator). Shared with the
    /// request (or engine) it arrived in.
    freshest_prev: Option<Arc<Decision>>,
    delta: Option<DeltaAcc>,
}

impl StabilityMatrix {
    /// An empty matrix for a group of `n`.
    pub fn new(n: usize) -> Self {
        StabilityMatrix {
            n,
            contributions: vec![None; n],
            freshest_prev: None,
            delta: None,
        }
    }

    /// Group cardinality.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Records `sender`'s request. Later duplicates (retransmissions)
    /// overwrite earlier ones — `last_processed` is monotone so the newest
    /// copy is the most informative. The carried previous decision is kept
    /// only when it is the freshest seen so far. The engine passes the
    /// `&Arc<Decision>` it holds, so keeping one is a refcount bump; a caller
    /// with a plain `&Decision` pays one deep copy for the kept one. Stale
    /// copies (the common case — every member carries the same previous
    /// decision) cost nothing either way.
    ///
    /// Returns the [`StabilityDelta`] this contribution unlocked: empty
    /// while coverage of the baseline's alive set is incomplete, then the
    /// per-origin ranges by which the group-stable frontier advanced.
    pub fn record<D>(
        &mut self,
        sender: ProcessId,
        last_processed: Vec<u64>,
        waiting: Vec<u64>,
        prev_decision: &D,
    ) -> StabilityDelta
    where
        D: Borrow<Decision> + Clone + Into<Arc<Decision>>,
    {
        assert_eq!(last_processed.len(), self.n, "last_processed width");
        assert_eq!(waiting.len(), self.n, "waiting width");
        let overwrite = self.contributions[sender.index()].is_some();
        self.contributions[sender.index()] = Some(Contribution {
            last_processed,
            waiting,
        });
        let fresher = match &self.freshest_prev {
            None => true,
            Some(cur) => prev_decision.borrow().is_newer_than(cur),
        };
        if fresher {
            self.freshest_prev = Some(prev_decision.clone().into());
        }
        match self.delta.as_mut() {
            Some(acc) if !fresher && !overwrite => {
                let c = self.contributions[sender.index()].as_ref().expect("set");
                acc.covered[sender.index()] = true;
                for (s, lp) in acc.stable.iter_mut().zip(&c.last_processed) {
                    *s = (*s).min(*lp);
                }
            }
            // The baseline changed, or an overwrite may have raised a min
            // the running accumulation can't retract: rebuild from the
            // stored contributions (rare; O(n²) with small constants).
            _ => self.rebuild_delta(),
        }
        self.drain_delta()
    }

    /// Rebuilds the incremental stability accumulation from scratch against
    /// the current `freshest_prev` baseline, preserving what was already
    /// reported (emitted ranges cannot be retracted).
    fn rebuild_delta(&mut self) {
        let p = self.freshest_prev.as_ref().expect("record sets it first");
        let n = self.n;
        let continuing = !p.full_group;
        let mut covered = if continuing {
            p.covered.clone()
        } else {
            vec![false; n]
        };
        let mut stable = if continuing {
            p.stable.clone()
        } else {
            vec![u64::MAX; n]
        };
        for (i, c) in self.contributions.iter().enumerate() {
            let Some(c) = c else { continue };
            covered[i] = true;
            for (s, lp) in stable.iter_mut().zip(&c.last_processed) {
                *s = (*s).min(*lp);
            }
        }
        let old = self.delta.take();
        let mut reported = p.stable.clone();
        let overclaimed = old.as_ref().is_some_and(|d| d.overclaimed);
        if let Some(old) = &old {
            for (r, o) in reported.iter_mut().zip(&old.reported) {
                *r = (*r).max(*o);
            }
        }
        self.delta = Some(DeltaAcc {
            baseline_stable: p.stable.clone(),
            baseline_alive: p.process_state.clone(),
            covered,
            stable,
            reported,
            overclaimed,
        });
    }

    /// Emits the ranges that became stable since the last emission, if the
    /// accumulation has full coverage of the baseline's alive set.
    fn drain_delta(&mut self) -> StabilityDelta {
        let n = self.n;
        let Some(acc) = self.delta.as_mut() else {
            return StabilityDelta::default();
        };
        for q in 0..n {
            let s = if acc.stable[q] == u64::MAX {
                NO_SEQ
            } else {
                acc.stable[q]
            };
            if acc.reported[q] > acc.baseline_stable[q] && s < acc.reported[q] {
                acc.overclaimed = true;
            }
        }
        let complete = (0..n).all(|i| !acc.baseline_alive[i] || acc.covered[i]);
        if !complete || acc.overclaimed {
            return StabilityDelta::default();
        }
        let mut ranges = Vec::new();
        for q in 0..n {
            let s = if acc.stable[q] == u64::MAX {
                NO_SEQ
            } else {
                acc.stable[q]
            };
            if s > acc.reported[q] {
                ranges.push(StableRange {
                    origin: ProcessId::from_index(q),
                    after_seq: acc.reported[q],
                    upto_seq: s,
                });
                acc.reported[q] = s;
            }
        }
        StabilityDelta { ranges }
    }

    /// Whether the emitted deltas exactly describe the stable vector
    /// [`compute`](Self::compute) would produce right now (full coverage of
    /// the baseline's alive set, nothing over-claimed). When this holds —
    /// and the caller's own latest decision is not fresher than
    /// [`freshest_prev`](Self::freshest_prev) — the deltas can drive the
    /// purge directly; otherwise callers must fall back to the vector.
    pub fn delta_exact(&self) -> bool {
        self.delta.as_ref().is_some_and(|acc| {
            !acc.overclaimed && (0..self.n).all(|i| !acc.baseline_alive[i] || acc.covered[i])
        })
    }

    /// Number of contributors so far.
    pub fn contributor_count(&self) -> usize {
        self.contributions.iter().flatten().count()
    }

    /// The freshest previous decision carried by any contributor, if any.
    pub fn freshest_prev(&self) -> Option<&Decision> {
        self.freshest_prev.as_deref()
    }

    /// Computes this subrun's decision.
    ///
    /// (Index-based loops below are deliberate: several same-width vectors
    /// are updated in lockstep by process index.)
    ///
    /// `fallback_prev` is the coordinator's *own* latest decision, used when
    /// no contributor carried a fresher one (the coordinator is itself a
    /// group member and always "contributes" its own state via
    /// [`StabilityMatrix::record`], so in practice the previous decision is
    /// always available — exactly the resilience argument of Section 4).
    #[allow(clippy::needless_range_loop)]
    pub fn compute(
        &self,
        subrun: Subrun,
        coordinator: ProcessId,
        k: u32,
        fallback_prev: &Decision,
    ) -> Decision {
        let prev = match self.freshest_prev.as_deref() {
            Some(p) if p.is_newer_than(fallback_prev) => p,
            _ => fallback_prev,
        };
        let n = self.n;
        debug_assert_eq!(prev.n(), n, "previous decision width");

        // --- Failure detection: attempts / process_state ------------------
        let mut attempts = prev.attempts.clone();
        let mut process_state = prev.process_state.clone();
        for i in 0..n {
            if !process_state[i] {
                continue; // crashed processes stay crashed, counters frozen
            }
            if self.contributions[i].is_some() {
                attempts[i] = 0;
            } else {
                attempts[i] = attempts[i].saturating_add(1);
                if attempts[i] >= k {
                    process_state[i] = false;
                }
            }
        }

        // --- Stability: min of last_processed, continued across subruns ---
        // If the previous decision was full_group, its coverage was consumed
        // (histories were cleaned); start a fresh accumulation from this
        // subrun's contributors. Otherwise continue accumulating on top of
        // the previous partial result.
        let continuing = !prev.full_group;
        let mut covered = if continuing {
            prev.covered.clone()
        } else {
            vec![false; n]
        };
        let mut stable = if continuing {
            prev.stable.clone()
        } else {
            vec![u64::MAX; n]
        };
        for (i, c) in self.contributions.iter().enumerate() {
            let Some(c) = c else { continue };
            covered[i] = true;
            for (s, lp) in stable.iter_mut().zip(&c.last_processed) {
                *s = (*s).min(*lp);
            }
        }
        // Origins nobody has reported on yet.
        for s in stable.iter_mut() {
            if *s == u64::MAX {
                *s = NO_SEQ;
            }
        }
        // full_group: every process alive in the *new* view has entered the
        // accumulation. Crashed processes no longer gate cleaning — that is
        // precisely how urcgc keeps cleaning while CBCAST would block on a
        // view-change protocol.
        let full_group = (0..n).all(|i| !process_state[i] || covered[i]);

        // --- Recovery hints: most updated alive process per origin --------
        let mut max_processed: Vec<MaxProcessed> = (0..n)
            .map(|q| {
                let prev_rec = prev.max_processed[q];
                // Keep the previous holder only while it is still alive in
                // the new view; a crashed holder's knowledge is gone and the
                // hint must regress to the best alive candidate (this is
                // what exposes orphan gaps).
                if process_state[prev_rec.holder.index()] {
                    prev_rec
                } else {
                    MaxProcessed::none(ProcessId::from_index(q))
                }
            })
            .collect();
        for (i, c) in self.contributions.iter().enumerate() {
            let Some(c) = c else { continue };
            if !process_state[i] {
                continue;
            }
            let holder = ProcessId::from_index(i);
            for q in 0..n {
                let better = c.last_processed[q] > max_processed[q].seq
                    || (c.last_processed[q] == max_processed[q].seq
                        && !process_state[max_processed[q].holder.index()]);
                if better {
                    max_processed[q] = MaxProcessed {
                        holder,
                        seq: c.last_processed[q],
                    };
                }
            }
        }

        // --- Orphan detection: group-wide oldest waiting per origin -------
        let mut min_waiting = vec![NO_SEQ; n];
        for c in self.contributions.iter().flatten() {
            for q in 0..n {
                let w = c.waiting[q];
                if w == NO_SEQ {
                    continue;
                }
                if min_waiting[q] == NO_SEQ || w < min_waiting[q] {
                    min_waiting[q] = w;
                }
            }
        }

        Decision {
            subrun,
            coordinator,
            full_group,
            stable,
            attempts,
            process_state,
            max_processed,
            min_waiting,
            covered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u16) -> ProcessId {
        ProcessId(i)
    }

    fn record_simple(m: &mut StabilityMatrix, i: u16, lp: Vec<u64>, prev: &Decision) {
        let n = lp.len();
        m.record(pid(i), lp, vec![NO_SEQ; n], prev);
    }

    #[test]
    fn full_group_stability_is_min_of_last_processed() {
        let prev = Decision::genesis(3);
        let mut m = StabilityMatrix::new(3);
        record_simple(&mut m, 0, vec![5, 2, 1], &prev);
        record_simple(&mut m, 1, vec![4, 3, 1], &prev);
        record_simple(&mut m, 2, vec![5, 3, 0], &prev);
        let d = m.compute(Subrun(1), pid(1), 3, &prev);
        assert!(d.full_group);
        assert_eq!(d.stable, vec![4, 2, 0]);
        assert!(d.process_state.iter().all(|&s| s));
        assert_eq!(d.attempts, vec![0, 0, 0]);
    }

    #[test]
    fn partial_contribution_is_not_full_group() {
        let prev = Decision::genesis(3);
        let mut m = StabilityMatrix::new(3);
        record_simple(&mut m, 0, vec![5, 2, 1], &prev);
        record_simple(&mut m, 1, vec![4, 3, 1], &prev);
        let d = m.compute(Subrun(1), pid(1), 3, &prev);
        assert!(!d.full_group);
        assert_eq!(d.covered, vec![true, true, false]);
        assert_eq!(d.attempts, vec![0, 0, 1]);
    }

    #[test]
    fn coverage_accumulates_across_subruns() {
        // Subrun 1: p0, p1 contribute. Subrun 2: p2 contributes. The second
        // decision completes the accumulation and goes full_group.
        let genesis = Decision::genesis(3);
        let mut m1 = StabilityMatrix::new(3);
        record_simple(&mut m1, 0, vec![5, 2, 1], &genesis);
        record_simple(&mut m1, 1, vec![4, 3, 1], &genesis);
        let d1 = m1.compute(Subrun(1), pid(1), 3, &genesis);
        assert!(!d1.full_group);

        let mut m2 = StabilityMatrix::new(3);
        record_simple(&mut m2, 2, vec![5, 3, 2], &d1);
        let d2 = m2.compute(Subrun(2), pid(2), 3, &d1);
        assert!(d2.full_group);
        // min over {p0(4,2,1 taken at s1… actually 5,2,1), p1(4,3,1), p2(5,3,2)}
        assert_eq!(d2.stable, vec![4, 2, 1]);
    }

    #[test]
    fn full_group_decision_resets_coverage() {
        let genesis = Decision::genesis(2);
        let mut m1 = StabilityMatrix::new(2);
        record_simple(&mut m1, 0, vec![3, 3], &genesis);
        record_simple(&mut m1, 1, vec![3, 3], &genesis);
        let d1 = m1.compute(Subrun(1), pid(1), 3, &genesis);
        assert!(d1.full_group);

        // Next subrun only p0 contributes: accumulation restarts.
        let mut m2 = StabilityMatrix::new(2);
        record_simple(&mut m2, 0, vec![4, 3], &d1);
        let d2 = m2.compute(Subrun(2), pid(0), 3, &d1);
        assert!(!d2.full_group);
        assert_eq!(d2.covered, vec![true, false]);
        assert_eq!(d2.stable, vec![4, 3]);
    }

    #[test]
    fn attempts_accumulate_until_k_then_crash() {
        let k = 2;
        let mut prev = Decision::genesis(2);
        for s in 1..=2u64 {
            let mut m = StabilityMatrix::new(2);
            record_simple(&mut m, 0, vec![0, 0], &prev);
            prev = m.compute(Subrun(s), pid(0), k, &prev);
        }
        assert_eq!(prev.attempts[1], 2);
        assert!(!prev.process_state[1], "declared crashed after K misses");
        // Crashed process's counter freezes.
        let mut m = StabilityMatrix::new(2);
        record_simple(&mut m, 0, vec![0, 0], &prev);
        let d = m.compute(Subrun(3), pid(0), k, &prev);
        assert_eq!(d.attempts[1], 2);
        assert!(!d.process_state[1]);
    }

    #[test]
    fn contribution_resets_attempts() {
        let k = 3;
        let genesis = Decision::genesis(2);
        let mut m = StabilityMatrix::new(2);
        record_simple(&mut m, 0, vec![0, 0], &genesis);
        let d1 = m.compute(Subrun(1), pid(0), k, &genesis);
        assert_eq!(d1.attempts[1], 1);
        let mut m = StabilityMatrix::new(2);
        record_simple(&mut m, 0, vec![0, 0], &d1);
        record_simple(&mut m, 1, vec![0, 0], &d1);
        let d2 = m.compute(Subrun(2), pid(1), k, &d1);
        assert_eq!(d2.attempts[1], 0, "contact resets the counter");
        assert!(d2.process_state[1]);
    }

    #[test]
    fn crashed_processes_do_not_gate_full_group() {
        let mut prev = Decision::genesis(2);
        prev.process_state[1] = false;
        let mut m = StabilityMatrix::new(2);
        record_simple(&mut m, 0, vec![7, 7], &prev);
        let d = m.compute(Subrun(4), pid(0), 3, &prev);
        assert!(d.full_group, "only alive members gate cleaning");
        assert_eq!(d.stable, vec![7, 7]);
    }

    #[test]
    fn max_processed_prefers_most_updated_alive() {
        let genesis = Decision::genesis(3);
        let mut m = StabilityMatrix::new(3);
        record_simple(&mut m, 0, vec![5, 0, 0], &genesis);
        record_simple(&mut m, 1, vec![9, 0, 0], &genesis);
        record_simple(&mut m, 2, vec![7, 0, 0], &genesis);
        let d = m.compute(Subrun(1), pid(0), 3, &genesis);
        assert_eq!(d.max_processed[0].holder, pid(1));
        assert_eq!(d.max_processed[0].seq, 9);
    }

    #[test]
    fn max_processed_regresses_when_holder_crashes() {
        // p1 was the most updated for origin 0 but is now declared crashed:
        // the hint must fall back to the best alive contributor.
        let mut prev = Decision::genesis(3);
        prev.max_processed[0] = MaxProcessed {
            holder: pid(1),
            seq: 9,
        };
        prev.attempts[1] = 2;
        let k = 3;
        let mut m = StabilityMatrix::new(3);
        record_simple(&mut m, 0, vec![5, 0, 0], &prev);
        record_simple(&mut m, 2, vec![4, 0, 0], &prev);
        let d = m.compute(Subrun(2), pid(2), k, &prev);
        assert!(!d.process_state[1], "p1 crossed K");
        assert_eq!(d.max_processed[0].holder, pid(0));
        assert_eq!(d.max_processed[0].seq, 5);
    }

    #[test]
    fn min_waiting_is_groupwide_minimum() {
        let genesis = Decision::genesis(2);
        let mut m = StabilityMatrix::new(2);
        m.record(pid(0), vec![0, 0], vec![NO_SEQ, 7], &genesis);
        m.record(pid(1), vec![0, 0], vec![NO_SEQ, 4], &genesis);
        let d = m.compute(Subrun(1), pid(0), 3, &genesis);
        assert_eq!(d.min_waiting, vec![NO_SEQ, 4]);
    }

    #[test]
    fn freshest_prev_decision_wins() {
        let genesis = Decision::genesis(2);
        let mut newer = genesis.clone();
        newer.subrun = Subrun(5);
        newer.stable = vec![3, 3];
        newer.full_group = false;
        newer.covered = vec![true, true];
        let mut m = StabilityMatrix::new(2);
        m.record(pid(0), vec![9, 9], vec![NO_SEQ; 2], &genesis);
        m.record(pid(1), vec![9, 9], vec![NO_SEQ; 2], &newer);
        assert_eq!(m.freshest_prev().unwrap().subrun, Subrun(5));
        // compute() continues from the newer (partial) decision, so mins
        // include its stable values.
        let d = m.compute(Subrun(6), pid(0), 3, &genesis);
        assert_eq!(d.stable, vec![3, 3]);
    }

    #[test]
    fn shared_prev_decision_is_kept_without_a_copy() {
        let shared = Arc::new(Decision::genesis(2));
        let mut m = StabilityMatrix::new(2);
        m.record(pid(0), vec![1, 1], vec![NO_SEQ; 2], &shared);
        m.record(pid(1), vec![1, 1], vec![NO_SEQ; 2], &shared);
        let kept = m.freshest_prev().expect("baseline kept");
        assert!(std::ptr::eq(kept, &*shared), "the matrix deep-copied");
        assert_eq!(Arc::strong_count(&shared), 2, "kept once, not per record");
    }

    #[test]
    fn duplicate_record_overwrites() {
        let genesis = Decision::genesis(1);
        let mut m = StabilityMatrix::new(1);
        record_simple(&mut m, 0, vec![1], &genesis);
        record_simple(&mut m, 0, vec![2], &genesis);
        assert_eq!(m.contributor_count(), 1);
        let d = m.compute(Subrun(1), pid(0), 3, &genesis);
        assert_eq!(d.stable, vec![2]);
    }

    #[test]
    fn delta_empty_until_full_coverage_then_matches_compute() {
        let prev = Decision::genesis(3);
        let mut m = StabilityMatrix::new(3);
        let d1 = m.record(pid(0), vec![5, 2, 1], vec![NO_SEQ; 3], &prev);
        assert!(d1.is_empty(), "one contributor cannot stabilize anything");
        assert!(!m.delta_exact());
        let d2 = m.record(pid(1), vec![4, 3, 1], vec![NO_SEQ; 3], &prev);
        assert!(d2.is_empty());
        let d3 = m.record(pid(2), vec![5, 3, 2], vec![NO_SEQ; 3], &prev);
        assert!(m.delta_exact());
        let decision = m.compute(Subrun(1), pid(0), 3, &prev);
        assert!(decision.full_group);
        // The emitted ranges reconstruct exactly compute's stable vector.
        let mut from_delta = prev.stable.clone();
        for r in d3.ranges() {
            assert_eq!(r.after_seq, from_delta[r.origin.index()]);
            from_delta[r.origin.index()] = r.upto_seq;
        }
        assert_eq!(from_delta, decision.stable);
    }

    #[test]
    fn delta_increments_after_coverage() {
        let prev = Decision::genesis(2);
        let mut m = StabilityMatrix::new(2);
        let _ = m.record(pid(0), vec![5, 5], vec![NO_SEQ; 2], &prev);
        let d = m.record(pid(1), vec![3, 9], vec![NO_SEQ; 2], &prev);
        assert_eq!(
            d.ranges(),
            &[
                StableRange {
                    origin: pid(0),
                    after_seq: 0,
                    upto_seq: 3
                },
                StableRange {
                    origin: pid(1),
                    after_seq: 0,
                    upto_seq: 5
                }
            ]
        );
        // An overwrite with a fresher (higher) vector extends the ranges.
        let d = m.record(pid(1), vec![4, 9], vec![NO_SEQ; 2], &prev);
        assert_eq!(
            d.ranges(),
            &[StableRange {
                origin: pid(0),
                after_seq: 3,
                upto_seq: 4
            }]
        );
        assert!(m.delta_exact());
        assert_eq!(
            m.compute(Subrun(1), pid(0), 3, &prev).stable,
            vec![4, 5],
            "delta and compute stay in lockstep"
        );
    }

    #[test]
    fn delta_never_emits_during_a_continuing_accumulation() {
        // A partial (non-full-group) baseline continues accumulating: mins
        // can only stay or fall, so nothing new becomes purgeable.
        let genesis = Decision::genesis(3);
        let mut m1 = StabilityMatrix::new(3);
        record_simple(&mut m1, 0, vec![5, 2, 1], &genesis);
        let d1 = m1.compute(Subrun(1), pid(1), 3, &genesis);
        assert!(!d1.full_group);
        let mut m2 = StabilityMatrix::new(3);
        let delta = m2.record(pid(1), vec![9, 9, 9], vec![NO_SEQ; 3], &d1);
        assert!(delta.is_empty());
        let delta = m2.record(pid(2), vec![9, 9, 9], vec![NO_SEQ; 3], &d1);
        assert!(delta.is_empty());
        let delta = m2.record(pid(0), vec![9, 9, 9], vec![NO_SEQ; 3], &d1);
        // Coverage completes here (continuation covered p0 already), and
        // the full-coverage emission matches compute.
        let d2 = m2.compute(Subrun(2), pid(2), 3, &d1);
        assert!(d2.full_group);
        let mut from_delta = d1.stable.clone();
        for r in delta.ranges() {
            from_delta[r.origin.index()] = r.upto_seq;
        }
        assert_eq!(from_delta, d2.stable);
    }

    #[test]
    fn dead_straggler_below_emitted_value_poisons_the_delta() {
        // p1 is declared crashed in the baseline; coverage completes
        // without it and ranges are emitted. Its late, lower contribution
        // pulls the min below the emitted value — the delta must stop
        // claiming exactness (compute's stable would now be lower).
        let mut prev = Decision::genesis(2);
        prev.process_state[1] = false;
        let mut m = StabilityMatrix::new(2);
        let d = m.record(pid(0), vec![9, 9], vec![NO_SEQ; 2], &prev);
        assert!(!d.is_empty(), "p0 alone covers the alive set");
        assert!(m.delta_exact());
        let d = m.record(pid(1), vec![2, 2], vec![NO_SEQ; 2], &prev);
        assert!(d.is_empty());
        assert!(!m.delta_exact(), "over-claimed deltas are poisoned");
        // compute still gives the true (lower) answer.
        assert_eq!(m.compute(Subrun(1), pid(0), 3, &prev).stable, vec![2, 2]);
    }

    #[test]
    fn fresher_baseline_rebuilds_the_accumulation() {
        let genesis = Decision::genesis(2);
        let mut full = genesis.clone();
        full.subrun = Subrun(3);
        full.full_group = true;
        full.stable = vec![4, 4];
        let mut m = StabilityMatrix::new(2);
        let _ = m.record(pid(0), vec![9, 9], vec![NO_SEQ; 2], &genesis);
        // p1 carries a fresher full-group baseline: accumulation restarts
        // on top of it, and emitted ranges start from its stable vector.
        let d = m.record(pid(1), vec![8, 8], vec![NO_SEQ; 2], &full);
        assert!(m.delta_exact());
        assert_eq!(
            d.ranges(),
            &[
                StableRange {
                    origin: pid(0),
                    after_seq: 4,
                    upto_seq: 8
                },
                StableRange {
                    origin: pid(1),
                    after_seq: 4,
                    upto_seq: 8
                }
            ]
        );
        assert_eq!(m.compute(Subrun(4), pid(0), 3, &genesis).stable, vec![8, 8]);
    }
}
