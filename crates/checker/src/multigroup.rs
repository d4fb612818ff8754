//! Multi-group soak: thousands of shared-nothing URCGC groups per process,
//! driven through the [`Node`] façade and gated on the per-group cluster
//! oracles plus the multi-group *genuineness* oracle.
//!
//! The paper runs one group; the scaling question for a deployment is how
//! many **independent** groups one process can serve. This harness answers
//! it structurally:
//!
//! * Groups are sharded across the sweep job pool
//!   ([`urcgc_bench::sweep::run_pool`]) by the deterministic assignment
//!   [`GroupId::shard`] — shard `s` of `S` hosts exactly the groups with
//!   `id % S == s`, so the workload is reproducible whatever the job
//!   count.
//! * Within a shard, `members` [`Node`]s each host *all* of the shard's
//!   groups — the worst case for demux pressure: every wire frame carries
//!   a group envelope and must find exactly its destination group among
//!   thousands.
//! * The workload targets a random subset of groups (`active_fraction`),
//!   with per-group start rounds scattered so submissions cross group
//!   boundaries in time; the remaining *idle* groups measure the standing
//!   cost of group residency.
//! * At quiescence every group is checked with the same end-of-run
//!   oracles as a real-network cluster run ([`check_cluster`]), and the
//!   run as a whole with [`check_genuineness`]: zero frames accepted by a
//!   non-destination engine, zero frames routed to a non-hosting node.
//!
//! The `multigroup` binary wraps this in a CLI and emits a
//! `urcgc-multigroup/1` document.

use std::collections::HashMap;
use std::time::Instant;

use bytes::Bytes;
use urcgc::{Node, Output};
use urcgc_bench::sweep::run_pool;
use urcgc_metrics::{Json, Schema};
use urcgc_types::{group_of, GroupId, Mid, ProcessId, ProtocolConfig, Round};

use crate::cluster::{check_cluster, check_genuineness, fnv1a_stream, NodeObservation};
use crate::oracle::Violation;

/// Schema of the multigroup soak document.
pub const MULTIGROUP_SCHEMA: Schema = Schema::new("urcgc-multigroup", 1);

/// Parameters of one multigroup soak run.
#[derive(Clone, Debug)]
pub struct MultigroupSpec {
    /// Total group count (ids `0..groups`).
    pub groups: usize,
    /// Members per group; every member of a shard hosts all its groups.
    pub members: usize,
    /// Messages submitted into each *active* group, round-robin across
    /// its members.
    pub msgs_per_group: u64,
    /// Application payload bytes per message.
    pub payload: usize,
    /// Fraction of groups the workload targets; the rest stay idle.
    pub active_fraction: f64,
    /// Probability that a submission declares the submitter's latest
    /// delivered foreign message (in the same group) as a causal
    /// dependency.
    pub dep_prob: f64,
    /// Shards = jobs on the sweep pool; group→shard assignment is
    /// [`GroupId::shard`].
    pub shards: usize,
    /// Base seed (workload selection and scheduling derive from it).
    pub seed: u64,
    /// Per-shard round budget; exceeding it is a Stall for every group
    /// still incomplete.
    pub max_rounds: u64,
}

impl Default for MultigroupSpec {
    fn default() -> MultigroupSpec {
        MultigroupSpec {
            groups: 1000,
            members: 3,
            msgs_per_group: 4,
            payload: 32,
            active_fraction: 0.5,
            dep_prob: 0.5,
            shards: 1,
            seed: 0x00C0_FFEE,
            max_rounds: 4_000,
        }
    }
}

/// Outcome of one multigroup soak run.
#[derive(Clone, Debug)]
pub struct MultigroupReport {
    /// The spec that produced this report.
    pub spec: MultigroupSpec,
    /// Groups the workload targeted.
    pub active_groups: usize,
    /// Groups that received no submissions.
    pub idle_groups: usize,
    /// Max rounds executed by any shard.
    pub rounds: u64,
    /// Messages submitted across all groups.
    pub submissions: u64,
    /// Delivery events across all groups and members.
    pub deliveries: u64,
    /// Enveloped frames handed to node demux (per destination).
    pub frames: u64,
    /// Wall-clock for the sharded run, per-group oracle evaluation
    /// included (each shard checks its groups before it returns); only the
    /// run-wide genuineness check falls outside.
    pub wall_secs: f64,
    /// Aggregate delivery throughput, `deliveries / wall_secs`.
    pub agg_msgs_per_sec: f64,
    /// Median delivery latency in rounds (submission to local delivery).
    pub latency_p50_rounds: u64,
    /// 99th-percentile delivery latency in rounds.
    pub latency_p99_rounds: u64,
    /// Worst delivery latency in rounds.
    pub latency_max_rounds: u64,
    /// Frames accepted by an engine other than their destination group
    /// (genuineness; must be 0).
    pub misrouted: u64,
    /// Frames routed to a node not hosting their destination group
    /// (genuineness; must be 0 — shard members host every shard group).
    pub foreign_frames: u64,
    /// Heap bytes per idle group per member, when measured by the caller
    /// (the binary measures it with a counting allocator).
    pub idle_group_bytes: Option<f64>,
    /// Per-group oracle violations plus run-wide genuineness violations
    /// (tagged with the offending group, or `None` for run-wide).
    pub violations: Vec<(Option<u32>, Violation)>,
}

impl MultigroupReport {
    /// Whether every per-group oracle and the genuineness oracle passed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serializes as a `urcgc-multigroup/1` document.
    pub fn to_json(&self) -> Json {
        let mut j = MULTIGROUP_SCHEMA
            .tag(Json::obj())
            .with("groups", self.spec.groups)
            .with("members", self.spec.members)
            .with("msgs_per_group", self.spec.msgs_per_group)
            .with("payload", self.spec.payload)
            .with("active_fraction", self.spec.active_fraction)
            .with("dep_prob", self.spec.dep_prob)
            .with("shards", self.spec.shards)
            .with("seed", self.spec.seed)
            .with("active_groups", self.active_groups)
            .with("idle_groups", self.idle_groups)
            .with("rounds", self.rounds)
            .with("submissions", self.submissions)
            .with("deliveries", self.deliveries)
            .with("frames", self.frames)
            .with("wall_secs", self.wall_secs)
            .with("agg_msgs_per_sec", self.agg_msgs_per_sec)
            .with("latency_p50_rounds", self.latency_p50_rounds)
            .with("latency_p99_rounds", self.latency_p99_rounds)
            .with("latency_max_rounds", self.latency_max_rounds)
            .with("misrouted", self.misrouted)
            .with("foreign_frames", self.foreign_frames)
            .with("ok", self.ok());
        if let Some(b) = self.idle_group_bytes {
            j.set("idle_group_bytes", b);
        }
        j.set(
            "violations",
            self.violations
                .iter()
                .map(|(group, v)| {
                    let mut vj = Json::obj()
                        .with("kind", v.kind.label())
                        .with("detail", v.detail.as_str());
                    if let Some(g) = group {
                        vj.set("group", u64::from(*g));
                    }
                    vj
                })
                .collect::<Vec<_>>(),
        );
        j
    }
}

/// splitmix64 — the per-group deterministic scheduling hash (independent
/// of shard count and iteration order).
fn mix(seed: u64, group: u32) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(group).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(v: u64) -> f64 {
    (v >> 11) as f64 / (1u64 << 53) as f64
}

/// Whether the workload targets `group`, derived from the seed alone.
pub fn is_active(spec: &MultigroupSpec, group: u32) -> bool {
    unit(mix(spec.seed, group)) < spec.active_fraction
}

/// One member's delivery log entry for one group.
type LogEntry = (Mid, Vec<Mid>);

struct GroupState {
    id: GroupId,
    active: bool,
    /// First submission round (active groups are scattered in time).
    start_round: u64,
    /// Submissions so far.
    submitted: u64,
    /// Who submitted how much, per member.
    submitted_by: Vec<u64>,
    /// Per-member delivery logs (mid + declared deps, in local order).
    logs: Vec<Vec<LogEntry>>,
    /// Per-member latest delivered foreign mid (dependency source).
    latest_foreign: Vec<Option<Mid>>,
    /// Submission round per mid, for latency accounting.
    submit_round: HashMap<Mid, u64>,
}

struct ShardOutcome {
    rounds: u64,
    submissions: u64,
    deliveries: u64,
    frames: u64,
    misrouted: u64,
    foreign_frames: u64,
    latencies: Vec<u64>,
    violations: Vec<(Option<u32>, Violation)>,
}

/// Runs the spec's groups sharded over the sweep job pool and aggregates
/// shard outcomes into one report (without `idle_group_bytes`; callers
/// with a measuring allocator fill that in).
pub fn run_multigroup(spec: &MultigroupSpec) -> MultigroupReport {
    assert!(
        spec.groups > 0 && spec.members >= 2,
        "need groups and peers"
    );
    let shards = spec.shards.clamp(1, spec.groups);
    let start = Instant::now();
    let outcomes = run_pool(shards, shards, |s| run_shard(spec, s, shards));
    let wall_secs = start.elapsed().as_secs_f64();

    let mut rounds = 0;
    let mut submissions = 0;
    let mut deliveries = 0;
    let mut frames = 0;
    let mut misrouted = 0;
    let mut foreign = 0;
    let mut latencies: Vec<u64> = Vec::new();
    let mut violations: Vec<(Option<u32>, Violation)> = Vec::new();
    for o in outcomes {
        rounds = rounds.max(o.rounds);
        submissions += o.submissions;
        deliveries += o.deliveries;
        frames += o.frames;
        misrouted += o.misrouted;
        foreign += o.foreign_frames;
        latencies.extend(o.latencies);
        violations.extend(o.violations);
    }
    violations.extend(
        check_genuineness(misrouted, foreign)
            .into_iter()
            .map(|v| (None, v)),
    );
    violations.sort_by_key(|(g, _)| *g);
    latencies.sort_unstable();
    let pct = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[idx]
    };
    let active_groups = (0..spec.groups as u32)
        .filter(|&g| is_active(spec, g))
        .count();
    MultigroupReport {
        active_groups,
        idle_groups: spec.groups - active_groups,
        rounds,
        submissions,
        deliveries,
        frames,
        wall_secs,
        agg_msgs_per_sec: if wall_secs > 0.0 {
            deliveries as f64 / wall_secs
        } else {
            0.0
        },
        latency_p50_rounds: pct(0.50),
        latency_p99_rounds: pct(0.99),
        latency_max_rounds: latencies.last().copied().unwrap_or(0),
        misrouted,
        foreign_frames: foreign,
        idle_group_bytes: None,
        violations,
        spec: spec.clone(),
    }
}

/// Runs one shard: `members` nodes, each hosting every group with
/// `id % shards == shard`, driven in lockstep rounds with synchronous
/// in-memory frame exchange.
#[allow(clippy::needless_range_loop)]
fn run_shard(spec: &MultigroupSpec, shard: usize, shards: usize) -> ShardOutcome {
    let cfg = ProtocolConfig::new(spec.members);
    let mut nodes: Vec<Node> = (0..spec.members)
        .map(|m| Node::new(ProcessId::from_index(m)))
        .collect();
    let mut groups: Vec<GroupState> = Vec::new();
    for gid in 0..spec.groups as u32 {
        let id = GroupId(gid);
        if id.shard(shards) != shard {
            continue;
        }
        for node in &mut nodes {
            node.join(id, cfg.clone()).expect("fresh group table");
        }
        let active = is_active(spec, gid);
        let log_len = if active {
            spec.msgs_per_group as usize
        } else {
            0
        };
        // Scatter active groups' start rounds over a modest window so the
        // cross-group workload overlaps rather than marching in lockstep.
        let start_round = mix(spec.seed ^ 0xA5A5, gid) % 64;
        groups.push(GroupState {
            id,
            active,
            start_round,
            submitted: 0,
            submitted_by: vec![0; spec.members],
            // Sized up front: the run times the nodes, not log regrowth.
            logs: (0..spec.members)
                .map(|_| Vec::with_capacity(log_len))
                .collect(),
            latest_foreign: vec![None; spec.members],
            submit_round: HashMap::new(),
        });
    }

    let gindex: HashMap<GroupId, usize> =
        groups.iter().enumerate().map(|(i, g)| (g.id, i)).collect();
    let mut out = ShardOutcome {
        rounds: 0,
        submissions: 0,
        deliveries: 0,
        frames: 0,
        misrouted: 0,
        foreign_frames: 0,
        latencies: Vec::new(),
        violations: Vec::new(),
    };
    let expected_deliveries: u64 = groups
        .iter()
        .filter(|g| g.active)
        .map(|_| spec.msgs_per_group * spec.members as u64)
        .sum();

    // In-flight enveloped frames: (destination member, sender, frame).
    // Frames sent during round r arrive at the start of round r+1 — a
    // one-round network, so delivery latency is measured in protocol
    // rounds rather than collapsing to zero inside a synchronous exchange.
    // Two buffers swapped each round, so neither is regrown from empty.
    let mut wire: Vec<(usize, ProcessId, Bytes)> = Vec::new();
    let mut arriving: Vec<(usize, ProcessId, Bytes)> = Vec::new();
    let mut round: u64 = 0;
    while round < spec.max_rounds {
        // Deliver last round's frames.
        std::mem::swap(&mut wire, &mut arriving);
        for (dest, from, frame) in arriving.drain(..) {
            out.frames += 1;
            let want = group_of(&frame).ok();
            let got = nodes[dest].on_frame(from, &frame);
            if let (Some(w), Some(g)) = (want, got) {
                if w != g {
                    out.misrouted += 1;
                }
            }
        }

        // Submissions due this round: one message per active group every
        // two rounds (one per subrun), round-robin over members.
        for g in &mut groups {
            if !g.active || g.submitted >= spec.msgs_per_group {
                continue;
            }
            let due = round >= g.start_round && (round - g.start_round).is_multiple_of(2);
            if !due {
                continue;
            }
            let m = (g.submitted as usize) % spec.members;
            let deps: Vec<Mid> =
                if unit(mix(spec.seed ^ 0x5A5A, g.id.0 ^ (round as u32))) < spec.dep_prob {
                    g.latest_foreign[m].into_iter().collect()
                } else {
                    Vec::new()
                };
            let payload = Bytes::from(vec![0u8; spec.payload]);
            if let Ok(mid) = nodes[m].submit(g.id, payload, &deps) {
                g.submitted += 1;
                g.submitted_by[m] += 1;
                g.submit_round.insert(mid, round);
                out.submissions += 1;
            }
        }

        for node in &mut nodes {
            node.begin_round(Round(round));
        }

        // Drain every output this round produced (including those the
        // arriving frames triggered); Sends/Broadcasts go onto the wire
        // for the next round.
        for m in 0..spec.members {
            while let Some((gid, o)) = nodes[m].poll_output() {
                match o {
                    Output::Send { to, pdu } => {
                        let frame = nodes[m].encode(gid, &pdu);
                        wire.push((to.index(), ProcessId::from_index(m), frame));
                    }
                    Output::Broadcast { pdu } => {
                        let frame = nodes[m].encode(gid, &pdu);
                        for dest in 0..spec.members {
                            if dest != m {
                                wire.push((dest, ProcessId::from_index(m), frame.clone()));
                            }
                        }
                    }
                    Output::Deliver { msg } => {
                        let g = &mut groups[gindex[&gid]];
                        g.logs[m].push((msg.mid, msg.deps.clone()));
                        if msg.mid.origin.index() != m {
                            g.latest_foreign[m] = Some(msg.mid);
                        }
                        if let Some(&s) = g.submit_round.get(&msg.mid) {
                            out.latencies.push(round.saturating_sub(s).max(1));
                        }
                        out.deliveries += 1;
                    }
                    _ => {}
                }
            }
        }

        round += 1;
        out.rounds = round;
        // Completion probe: all deliveries in and engines drained (the
        // gauges walk only runs once the cheap counter gate passes). The
        // wire is deliberately NOT required to be empty — per-subrun
        // control traffic never stops, exactly like the transported
        // harness's quiescence rule.
        if out.deliveries >= expected_deliveries
            && nodes.iter().all(|n| {
                let t = n.gauges().totals;
                t.pending_len == 0 && t.waiting_len == 0
            })
        {
            break;
        }
    }

    for node in &nodes {
        let g = node.gauges();
        out.foreign_frames += g.foreign_frames;
    }

    // Per-group end-of-run oracles: the same checks a real-network cluster
    // run is gated on, once per group.
    for g in &groups {
        let obs: Vec<NodeObservation> = (0..spec.members)
            .map(|m| {
                let engine = nodes[m].engine(g.id).expect("hosted");
                let expected = if g.active { spec.msgs_per_group } else { 0 };
                let (ordering_ok, ordering_detail) = check_log(&g.logs[m]);
                NodeObservation {
                    me: m as u16,
                    status: format!("{:?}", engine.status()),
                    quiesced: g.submitted >= expected
                        && g.logs[m].len() as u64 == g.submitted
                        && engine.gauges().is_drained(),
                    submitted: g.submitted_by[m],
                    delivered: g.logs[m].len() as u64,
                    frontier: (0..spec.members)
                        .map(|q| engine.last_processed(ProcessId::from_index(q)))
                        .collect(),
                    order_digest: order_digests(spec.members, &g.logs[m]),
                    ordering_ok,
                    ordering_detail,
                }
            })
            .collect();
        out.violations
            .extend(check_cluster(&obs).into_iter().map(|v| (Some(g.id.0), v)));
    }
    out
}

/// Per-origin [`fnv1a_stream`] digests over one member's delivery log.
fn order_digests(n: usize, log: &[LogEntry]) -> Vec<u64> {
    let mut per_origin: Vec<Vec<u64>> = vec![Vec::new(); n];
    for (mid, _) in log {
        if mid.origin.index() < n {
            per_origin[mid.origin.index()].push(mid.seq);
        }
    }
    per_origin.into_iter().map(fnv1a_stream).collect()
}

/// Local Uniform Ordering check over one delivery log: every declared
/// cause delivered first, every origin's sequence strictly ascending.
fn check_log(log: &[LogEntry]) -> (bool, Option<String>) {
    let mut seen: std::collections::HashSet<Mid> = std::collections::HashSet::new();
    let mut last_seq: HashMap<u16, u64> = HashMap::new();
    for (mid, deps) in log {
        for dep in deps {
            if !seen.contains(dep) {
                return (
                    false,
                    Some(format!(
                        "delivered p{}#{} before its cause p{}#{}",
                        mid.origin.0, mid.seq, dep.origin.0, dep.seq
                    )),
                );
            }
        }
        let last = last_seq.entry(mid.origin.0).or_insert(0);
        if mid.seq <= *last {
            return (
                false,
                Some(format!(
                    "delivered p{}#{} after p{}#{}",
                    mid.origin.0, mid.seq, mid.origin.0, *last
                )),
            );
        }
        *last = mid.seq;
        seen.insert(*mid);
    }
    (true, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_multigroup_run_is_clean() {
        let spec = MultigroupSpec {
            groups: 24,
            members: 3,
            msgs_per_group: 3,
            shards: 2,
            ..MultigroupSpec::default()
        };
        let r = run_multigroup(&spec);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert_eq!(r.misrouted, 0);
        assert_eq!(r.foreign_frames, 0);
        assert_eq!(r.active_groups + r.idle_groups, 24);
        assert!(r.active_groups > 0, "seeded subset should hit some groups");
        assert_eq!(
            r.deliveries,
            r.active_groups as u64 * spec.msgs_per_group * spec.members as u64
        );
        assert!(r.latency_p99_rounds >= r.latency_p50_rounds);
    }

    #[test]
    fn shard_count_does_not_change_the_workload() {
        let base = MultigroupSpec {
            groups: 16,
            members: 3,
            msgs_per_group: 2,
            shards: 1,
            ..MultigroupSpec::default()
        };
        let one = run_multigroup(&base);
        let four = run_multigroup(&MultigroupSpec { shards: 4, ..base });
        assert_eq!(one.submissions, four.submissions);
        assert_eq!(one.deliveries, four.deliveries);
        assert_eq!(one.active_groups, four.active_groups);
        assert!(one.ok() && four.ok());
    }

    #[test]
    fn document_carries_the_schema_and_verdict() {
        let spec = MultigroupSpec {
            groups: 8,
            members: 2,
            msgs_per_group: 2,
            ..MultigroupSpec::default()
        };
        let r = run_multigroup(&spec);
        let j = r.to_json();
        assert_eq!(MULTIGROUP_SCHEMA.expect(&j), Ok(()));
        let text = j.render_pretty();
        let back = urcgc_metrics::json::parse(&text).unwrap();
        assert_eq!(back.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(back.get("misrouted").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn idle_groups_hold_no_protocol_state() {
        let spec = MultigroupSpec {
            groups: 12,
            members: 2,
            msgs_per_group: 2,
            active_fraction: 0.3,
            ..MultigroupSpec::default()
        };
        let r = run_multigroup(&spec);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert!(
            r.idle_groups > 0,
            "fraction 0.3 of 12 must leave idle groups"
        );
    }
}
