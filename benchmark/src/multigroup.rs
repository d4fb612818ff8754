//! `multigroup_1k`: one `Node` per member hosting a thousand shared-nothing
//! groups, through `urcgc_check::run_multigroup`.
//!
//! Here `Node` is used differently from every single-group workload: the
//! group-envelope demux, the `BTreeMap` lookup and the fair drain dominate
//! and each engine is nearly idle. **Closed loop**: the harness runs
//! lockstep rounds back to back over an in-memory one-round network and
//! submits one message per active group per subrun.
//!
//! The harness reports delivery latency in protocol rounds (submission to
//! each member's local delivery, over every delivery). The benchmark turns
//! that into wall-clock with the repetition's own measured time per round
//! — the wall time a message spent between its `submit` and its `Deliver`
//! output inside this process, at round granularity.

use std::time::Instant;

use urcgc::Node;
use urcgc_check::{run_multigroup, MultigroupSpec};
use urcgc_metrics::Json;
use urcgc_types::{GroupId, ProcessId, ProtocolConfig};

use crate::metrics::{Layers, Outcome};
use crate::stats::{exact_mismatch, lower_quartile, process_cpu_secs, repeat_for};
use crate::RunArgs;

/// Node constructions timed per run for `setup_s`.
const SETUPS: usize = 15;

/// Parameters of the multi-group workload.
pub struct MultigroupParams {
    /// Groups every member hosts.
    pub groups: usize,
    /// Members (nodes).
    pub members: usize,
    /// Messages submitted into each active group.
    pub msgs_per_group: u64,
    /// Share of groups that receive submissions.
    pub active_fraction: f64,
}

impl MultigroupParams {
    fn spec(&self, seed: u64) -> MultigroupSpec {
        MultigroupSpec {
            groups: self.groups,
            members: self.members,
            msgs_per_group: self.msgs_per_group,
            active_fraction: self.active_fraction,
            shards: 1,
            seed,
            max_rounds: self.msgs_per_group * 2 + 2_000,
            ..MultigroupSpec::default()
        }
    }
}

/// Builds what the harness builds before its first round: every member's
/// `Node` with every group joined.
pub fn build_nodes(groups: usize, members: usize) -> Vec<Node> {
    let cfg = ProtocolConfig::new(members);
    (0..members)
        .map(|m| {
            let mut node = Node::new(ProcessId::from_index(m));
            for g in 0..groups as u32 {
                node.join(GroupId(g), cfg.clone())
                    .expect("fresh group table");
            }
            node
        })
        .collect()
}

/// Counts that must repeat exactly for the same seed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Exact {
    rounds: u64,
    submissions: u64,
    deliveries: u64,
    frames: u64,
    p50_rounds: u64,
    p99_rounds: u64,
    foreign_frames: u64,
}

struct Rep {
    wall_s: f64,
    cpu_s: f64,
    exact: Exact,
    problems: Vec<String>,
}

/// Runs the workload: repetitions of the same seeded cell for the time
/// budget ([`repeat_for`]), reporting each metric's lower quartile.
pub fn run(p: &MultigroupParams, args: &RunArgs) -> Result<Outcome, String> {
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let built = Instant::now();
            std::hint::black_box(build_nodes(p.groups, p.members));
            built.elapsed().as_secs_f64()
        })
        .collect();

    let spec = p.spec(args.seed);
    let reps = repeat_for(args.seconds, || {
        let cpu0 = process_cpu_secs();
        let report = run_multigroup(&spec);
        Ok(Rep {
            wall_s: report.wall_secs,
            cpu_s: process_cpu_secs() - cpu0,
            exact: Exact {
                rounds: report.rounds,
                submissions: report.submissions,
                deliveries: report.deliveries,
                frames: report.frames,
                p50_rounds: report.latency_p50_rounds,
                p99_rounds: report.latency_p99_rounds,
                foreign_frames: report.foreign_frames,
            },
            problems: report
                .violations
                .iter()
                .map(|(g, v)| format!("group {g:?}: {:?}: {}", v.kind, v.detail))
                .collect(),
        })
    })?;
    let first = reps[0].exact;
    let mut problems = reps[0].problems.clone();
    problems.extend(exact_mismatch(reps.iter().map(|r| r.exact)));
    // A message counts once it is delivered at every member.
    let everywhere = first.deliveries / p.members as u64;
    if everywhere == 0 || first.rounds == 0 {
        return Err("no message was delivered everywhere".into());
    }
    let low = |f: &dyn Fn(&Rep) -> f64| lower_quartile(&reps.iter().map(f).collect::<Vec<_>>());
    let ms_per_round = |r: &Rep| r.wall_s * 1e3 / first.rounds as f64;
    // The harness reports the 50th and 99th percentiles only. They
    // coincide on this cell, which pins every percentile between them;
    // if they ever part, the 99th is the 90th's upper bound.
    let p90_rounds = first.p99_rounds;

    let mut layers = Layers::default();
    if args.trace {
        layers.set(
            "loadgen.deliver_all_p99_ms",
            low(&|r| first.p99_rounds as f64 * ms_per_round(r)),
        );
        layers.set("loadgen.latency_samples", first.deliveries as f64);
        layers.set("core.foreign_frames", first.foreign_frames as f64);
    }

    Ok(Outcome {
        attempted: first.submissions,
        failed: first.submissions.saturating_sub(everywhere),
        problems,
        setup_s: lower_quartile(&setups),
        msgs_per_s: everywhere as f64 / low(&|r| r.wall_s),
        p50_ms: low(&|r| first.p50_rounds as f64 * ms_per_round(r)),
        p90_ms: low(&|r| p90_rounds as f64 * ms_per_round(r)),
        cpu_ms_per_kmsg: low(&|r| r.cpu_s * 1e6 / everywhere as f64),
        layers,
        detail: Json::obj()
            .with("loop", "closed")
            .with("groups", p.groups)
            .with("members", p.members)
            .with("msgs_per_group", p.msgs_per_group)
            .with("active_fraction", p.active_fraction)
            .with("shards", 1u64)
            .with("repetitions", reps.len())
            .with(
                "repetition_wall_s",
                Json::Arr(reps.iter().map(|r| r.wall_s.into()).collect()),
            )
            .with("rounds", first.rounds)
            .with("submissions", first.submissions)
            .with("deliveries", first.deliveries)
            .with("frames", first.frames)
            .with("latency_p50_rounds", first.p50_rounds)
            .with("latency_p99_rounds", first.p99_rounds),
    })
}
