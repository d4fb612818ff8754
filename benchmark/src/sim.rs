//! `sim_faulty_n40` and `sim_overlay_n100`: the paper's evaluation engine
//! — real engines on the calendar-queue simulator — under the soak's
//! fault plan (1/500 omissions, one slow sender, one mid-run crash).
//!
//! The cells are `urcgc_bench::soak::soak_cell`'s (`Urcgc` and
//! `UrcgcOverlay`): the same [`SoakUrcgcNode`]s, [`soak_faults`] and
//! overlay layout. The benchmark steps the simulator itself, one round at
//! a time, because `soak_cell` reports only totals and a delivery latency
//! needs a clock reading per round. **Closed loop**: rounds run back to
//! back, every member submits one message per round until its budget is
//! spent.
//!
//! Latency here is a *cumulative-curve* latency: the soak node exposes
//! counters, not message identities, so the `k`-th message submitted
//! (group-wide) is matched with the `k`-th message delivered everywhere,
//! where "delivered everywhere by round `r`" means every live member has
//! processed at least `k` messages by the end of round `r`. That is exact
//! for a FIFO system and a close lower bound here (per-origin FIFO, every
//! member submitting every round). Both curves are sampled with a clock
//! reading at each round's end and taken as linear in between; a message's
//! latency is the horizontal distance between them at its rank.

use std::time::Instant;

use urcgc::sim::Workload;
use urcgc_bench::soak::{overlay_soak_config, soak_faults, SoakProtocol, SoakUrcgcNode};
use urcgc_metrics::Json;
use urcgc_simnet::{SimNet, SimOptions};
use urcgc_types::{ProcessId, ProtocolConfig};

use crate::metrics::{Layers, Outcome};
use crate::stats::{
    exact_mismatch, latency_quantiles_ms, lower_quartile, process_cpu_secs, repeat_for,
};
use crate::RunArgs;

/// Gauge sampling period, in rounds (the soak's default window).
const WINDOW: u64 = 64;
/// Windows without any movement after which the cell counts as stalled.
const STALL_WINDOWS: u64 = 8;
/// Application payload bytes (the soak's).
const PAYLOAD: usize = 32;
/// Constructions timed per run for `setup_s`.
const SETUPS: usize = 25;

/// Parameters of one simulator workload.
pub struct SimParams {
    /// `Urcgc` (direct n-unicast) or `UrcgcOverlay` (tree relay).
    pub protocol: SoakProtocol,
    /// Group size.
    pub n: usize,
    /// Messages each member submits.
    pub msgs_per_proc: u64,
}

impl SimParams {
    /// The members `soak_cell` builds for this protocol.
    fn nodes(&self, seed: u64) -> Vec<SoakUrcgcNode> {
        let overlay = self.protocol == SoakProtocol::UrcgcOverlay;
        // The overlay cell sizes K up for multi-hop dissemination, as the
        // soak does (a process below a crashed relay misses decisions
        // until the tree re-parents).
        let cfg = if overlay {
            ProtocolConfig::new(self.n).with_k(6)
        } else {
            ProtocolConfig::new(self.n)
        };
        let workload = Workload::fixed_count(self.msgs_per_proc, PAYLOAD);
        (0..self.n)
            .map(|i| {
                let node = SoakUrcgcNode::new(
                    ProcessId::from_index(i),
                    cfg.clone(),
                    workload.clone(),
                    seed,
                );
                if overlay {
                    node.with_overlay(overlay_soak_config(seed))
                } else {
                    node
                }
            })
            .collect()
    }
}

/// Counts that must repeat exactly for the same seed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Exact {
    rounds: u64,
    submitted: u64,
    delivered_everywhere: u64,
    frames: u64,
    wire_bytes: u64,
    encoded_bytes: u64,
    shared_bytes: u64,
    relayed_bytes: u64,
    broadcasts: u64,
    worst_fanout: u64,
    peak_history: usize,
    peak_waiting: usize,
    peak_segments: usize,
    peak_purge_lag: u64,
}

struct Rep {
    wall_s: f64,
    cpu_s: f64,
    /// p50, p90 and p99 of the cumulative-curve latencies, ms. (Not the
    /// samples: kept per repetition they would make the run's peak memory
    /// grow with the number of repetitions.)
    latency_ms: [f64; 3],
    exact: Exact,
    failed: u64,
    problems: Vec<String>,
}

impl SimParams {
    fn max_rounds(&self) -> u64 {
        self.msgs_per_proc * 8 + 4_000
    }

    /// The cell, ready for its first round.
    fn build(&self, seed: u64) -> SimNet<SoakUrcgcNode> {
        SimNet::new(
            self.nodes(seed),
            soak_faults(self.n, self.msgs_per_proc),
            SimOptions {
                seed,
                max_rounds: self.max_rounds(),
                bytes_window: Some(WINDOW),
            },
        )
    }
}

fn run_rep(p: &SimParams, seed: u64) -> Rep {
    let max_rounds = p.max_rounds();
    let mut net = p.build(seed);

    // Per round: cumulative submissions, cumulative delivered-everywhere,
    // and the clock at the round's end.
    let mut submitted: Vec<u64> = Vec::new();
    let mut everywhere: Vec<u64> = Vec::new();
    let mut end_ns: Vec<u64> = Vec::new();
    let (mut peak_segments, mut peak_purge_lag) = (0usize, 0u64);
    let mut last_move = (0u64, 0u64);
    let mut idle_rounds = 0u64;
    let mut stalled = false;

    let cpu0 = process_cpu_secs();
    let started = Instant::now();
    while !net.all_done() && net.round().0 < max_rounds {
        net.step();
        let mut sub = 0;
        let mut min_delivered = u64::MAX;
        for (i, node) in net.nodes().iter().enumerate() {
            sub += node.submitted();
            if !net.is_crashed(ProcessId::from_index(i)) {
                min_delivered = min_delivered.min(node.delivered());
            }
        }
        submitted.push(sub);
        // A crash can only shrink the set the minimum ranges over.
        everywhere.push(min_delivered.max(everywhere.last().copied().unwrap_or(0)));
        end_ns.push(started.elapsed().as_nanos() as u64);
        if net.round().0.is_multiple_of(WINDOW) {
            for node in net.nodes() {
                let (segments, _, lag) = node.residency();
                peak_segments = peak_segments.max(segments);
                peak_purge_lag = peak_purge_lag.max(lag);
            }
        }
        let moved = (net.stats().delivered, min_delivered);
        idle_rounds = if moved == last_move {
            idle_rounds + 1
        } else {
            0
        };
        last_move = moved;
        if idle_rounds >= STALL_WINDOWS * WINDOW {
            stalled = true;
            break;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = process_cpu_secs() - cpu0;

    let completed = net.all_done();
    let rounds = net.round().0;
    let crashed: Vec<bool> = (0..p.n)
        .map(|i| net.is_crashed(ProcessId::from_index(i)))
        .collect();
    let (nodes, stats) = net.into_parts();
    let live = || {
        nodes
            .iter()
            .zip(&crashed)
            .filter(|(_, &c)| !c)
            .map(|(n, _)| n)
    };
    let delivered_everywhere = everywhere.last().copied().unwrap_or(0);
    let wire_bytes = stats.bytes_per_round.total();

    let mut problems = Vec::new();
    if !completed || stalled {
        problems.push(format!(
            "cell did not quiesce: completed={completed} stalled={stalled} after {rounds} rounds"
        ));
    }
    if stats.encoded_bytes + stats.shared_bytes + stats.relayed_bytes != wire_bytes {
        problems.push(format!(
            "byte accounting: encoded {} + shared {} + relayed {} != wire {wire_bytes}",
            stats.encoded_bytes, stats.shared_bytes, stats.relayed_bytes
        ));
    }
    // Every message of a surviving origin must have reached every
    // survivor; the crashed member's tail is the protocol's to destroy.
    let owed: u64 = live().map(SoakUrcgcNode::submitted).sum();
    let failed = owed.saturating_sub(delivered_everywhere);

    // Horizontal distance between the two cumulative curves, each taken as
    // piecewise linear between its round-end samples (members submit and
    // process all through a round; the samples only bracket when).
    let crossing = |curve: &[u64], round: usize, k: u64| -> f64 {
        let (before, t0) = if round == 0 {
            (0, 0)
        } else {
            (curve[round - 1], end_ns[round - 1])
        };
        let share = (k - before) as f64 / (curve[round] - before) as f64;
        t0 as f64 + share * (end_ns[round] - t0) as f64
    };
    let mut latency_ns = Vec::with_capacity(delivered_everywhere as usize);
    let (mut sub_round, mut del_round) = (0usize, 0usize);
    for k in 1..=delivered_everywhere {
        while submitted[sub_round] < k {
            sub_round += 1;
        }
        while everywhere[del_round] < k {
            del_round += 1;
        }
        let waited = crossing(&everywhere, del_round, k) - crossing(&submitted, sub_round, k);
        latency_ns.push(waited.max(0.0) as u64);
    }
    latency_ns.sort_unstable();

    let (broadcasts, worst_fanout) = nodes
        .iter()
        .map(SoakUrcgcNode::fanout)
        .fold((0u64, 0u64), |(total, worst), (b, copies)| {
            (total + b, worst.max(copies.div_ceil(b.max(1))))
        });
    Rep {
        wall_s,
        cpu_s,
        latency_ms: latency_quantiles_ms(&latency_ns),
        exact: Exact {
            rounds,
            submitted: submitted.last().copied().unwrap_or(0),
            delivered_everywhere,
            frames: stats.delivered,
            wire_bytes,
            encoded_bytes: stats.encoded_bytes,
            shared_bytes: stats.shared_bytes,
            relayed_bytes: stats.relayed_bytes,
            broadcasts,
            worst_fanout,
            peak_history: nodes
                .iter()
                .map(SoakUrcgcNode::peak_history)
                .max()
                .unwrap_or(0),
            peak_waiting: nodes
                .iter()
                .map(SoakUrcgcNode::peak_waiting)
                .max()
                .unwrap_or(0),
            peak_segments,
            peak_purge_lag,
        },
        failed,
        problems,
    }
}

/// Runs the workload: repetitions of the same seeded cell for the time
/// budget ([`repeat_for`]), reporting each metric's lower quartile; every
/// exact count must be identical across repetitions.
pub fn run(p: &SimParams, args: &RunArgs) -> Result<Outcome, String> {
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let built = Instant::now();
            std::hint::black_box(p.build(args.seed));
            built.elapsed().as_secs_f64()
        })
        .collect();
    let reps = repeat_for(args.seconds, || Ok(run_rep(p, args.seed)))?;
    let first = reps[0].exact;
    let mut problems = reps[0].problems.clone();
    problems.extend(exact_mismatch(reps.iter().map(|r| r.exact)));
    if first.delivered_everywhere == 0 {
        return Err("no message was delivered everywhere".into());
    }
    let msgs = first.delivered_everywhere as f64;
    let low = |f: &dyn Fn(&Rep) -> f64| lower_quartile(&reps.iter().map(f).collect::<Vec<_>>());

    let mut layers = Layers::default();
    if args.trace {
        let wire = first.wire_bytes as f64;
        layers.set("loadgen.deliver_all_p99_ms", low(&|r| r.latency_ms[2]));
        layers.set("loadgen.latency_samples", msgs);
        layers.set("wire_bytes_per_msg", wire / msgs);
        layers.set("causal.waiting_peak", first.peak_waiting as f64);
        layers.set("history.len_peak", first.peak_history as f64);
        layers.set("history.segments_peak", first.peak_segments as f64);
        layers.set("history.purge_lag_peak", first.peak_purge_lag as f64);
        layers.set("overlay.worst_fanout", first.worst_fanout as f64);
        layers.set(
            "overlay.relayed_byte_share",
            first.relayed_bytes as f64 / wire,
        );
        layers.set("simnet.frames_per_msg", first.frames as f64 / msgs);
        layers.set(
            "simnet.encoded_byte_share",
            first.encoded_bytes as f64 / wire,
        );
    }

    Ok(Outcome {
        attempted: first.submitted,
        failed: reps[0].failed,
        problems,
        setup_s: lower_quartile(&setups),
        msgs_per_s: msgs / low(&|r| r.wall_s),
        p50_ms: low(&|r| r.latency_ms[0]),
        p90_ms: low(&|r| r.latency_ms[1]),
        cpu_ms_per_kmsg: low(&|r| r.cpu_s * 1e6 / msgs),
        layers,
        detail: Json::obj()
            .with("loop", "closed")
            .with(
                "protocol",
                if p.protocol == SoakProtocol::UrcgcOverlay {
                    "urcgc+overlay"
                } else {
                    "urcgc"
                },
            )
            .with("n", p.n)
            .with("msgs_per_proc", p.msgs_per_proc)
            .with("repetitions", reps.len())
            .with(
                "repetition_wall_s",
                Json::Arr(reps.iter().map(|r| r.wall_s.into()).collect()),
            )
            .with("rounds", first.rounds)
            .with("submitted", first.submitted)
            .with("delivered_everywhere", first.delivered_everywhere)
            .with("frames", first.frames)
            .with("wire_bytes", first.wire_bytes)
            .with("broadcasts", first.broadcasts),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The simulator is seeded: two repetitions of one cell must agree on
    /// every exact count (the run fails otherwise), and the cell must
    /// pass its own checks.
    #[test]
    fn repetitions_of_one_seed_give_identical_exact_counts() {
        for protocol in [SoakProtocol::Urcgc, SoakProtocol::UrcgcOverlay] {
            let p = SimParams {
                protocol,
                n: 12,
                msgs_per_proc: 90,
            };
            let (a, b) = (run_rep(&p, 5), run_rep(&p, 5));
            assert_eq!(a.exact, b.exact);
            assert!(a.problems.is_empty(), "{:?}", a.problems);
            assert_eq!(a.failed, 0);
            assert!(0.0 < a.latency_ms[0] && a.latency_ms[0] <= a.latency_ms[2]);
            assert!(a.exact.wire_bytes > 0 && a.exact.rounds >= 90);
            // The seed lays the overlay out; the direct cell's plan (one
            // slow sender, one crash) draws nothing from it.
            if protocol == SoakProtocol::UrcgcOverlay {
                assert_ne!(run_rep(&p, 6).exact, a.exact);
            }
        }
    }
}
