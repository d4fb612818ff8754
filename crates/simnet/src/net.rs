//! The simulator engine.
//!
//! # Calendar-queue scheduler
//!
//! Frames in flight live in a round-bucketed calendar queue
//! (`VecDeque<Vec<InFlight>>` keyed by `arrives - round`), the classic
//! discrete-event-scheduler structure specialized to the paper's integer
//! round clock: each round pops exactly the bucket of frames arriving in it,
//! so a frame delayed `d` rounds by `slow_sender` is touched once on arrival
//! instead of being re-examined `d` times by a full wire rescan.
//!
//! The delivery order and RNG draw sequence are bit-for-bit identical to
//! the flat-wire engine this replaced (retired after three PRs of
//! differential testing found no divergence): the flat wire was ordered by
//! (send round, within-round enqueue order) and frames drew no randomness
//! while parked, so bucket-fill order — older send rounds first, enqueue
//! order within a round — reproduces the rescan's arrival order exactly,
//! and every fault draw happens at the same point in the ChaCha stream.

use std::collections::VecDeque;

use bytes::Bytes;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use urcgc_metrics::TrafficMeter;
use urcgc_types::{ProcessId, Round};

use crate::adversary::Adversary;
use crate::fault::FaultPlan;
use crate::node::{NetCtx, Node, Outgoing};
use crate::timeline::ByteTimeline;

/// Engine parameters.
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// Hard stop after this many rounds (a run that hits it is reported as
    /// [`RunOutcome::RoundLimit`]).
    pub max_rounds: u64,
    /// RNG seed; identical seeds reproduce runs bit-for-bit.
    pub seed: u64,
    /// Aggregate [`SimStats::bytes_per_round`] into windows of this many
    /// rounds instead of keeping the full per-round series. `None` (the
    /// default) keeps one entry per round; soak runs over millions of rounds
    /// set a window so the timeline stays bounded.
    pub bytes_window: Option<u64>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_rounds: 10_000,
            seed: 0xC0FFEE,
            bytes_window: None,
        }
    }
}

/// Why the run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every non-crashed node reported [`Node::is_done`].
    AllDone {
        /// The first round at which the condition held.
        at_round: u64,
    },
    /// The round limit was reached first.
    RoundLimit,
}

/// Counters the engine maintains across a run.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Frames accepted onto the wire, by category.
    pub traffic: TrafficMeter,
    /// Frames actually handed to a node.
    pub delivered: u64,
    /// Frames lost to send omission.
    pub send_omitted: u64,
    /// Frames lost to receive omission.
    pub recv_omitted: u64,
    /// Frames lost to link cuts.
    pub link_dropped: u64,
    /// Frames addressed to a crashed process.
    pub to_crashed: u64,
    /// Frames discarded because the *sender* crashed before the frame left
    /// its queue (crash at the round boundary).
    pub from_crashed: u64,
    /// Frames corrupted in flight (delivered with one byte mutated).
    pub corrupted: u64,
    /// Frames addressed outside the group (dropped at the edge).
    pub misaddressed: u64,
    /// Arriving frames dropped by an installed [`Adversary`] (targeted
    /// omissions; always 0 without an adversary).
    pub adversary_dropped: u64,
    /// Bytes of frames the nodes actually encoded (each unique frame
    /// counted once, at its first enqueue) — the real allocation/copy cost
    /// of the send path.
    pub encoded_bytes: u64,
    /// Bytes offered to the wire by refcount-sharing an already-encoded
    /// frame (fan-out copies beyond the first). With encode-once fan-out,
    /// `encoded_bytes + shared_bytes + relayed_bytes` equals the total
    /// offered bytes; the ratio is the zero-copy win.
    pub shared_bytes: u64,
    /// Bytes offered as overlay *forwards* — frames received from another
    /// process and re-sent unchanged (refcount clones of the arrived
    /// allocation, no re-encoding). Third leg of the offered-byte
    /// partition; always 0 on the direct n-unicast path.
    pub relayed_bytes: u64,
    /// Frames each process originated onto the wire (one slot per
    /// process; offered, like [`SimStats::traffic`]). On the overlay this
    /// must stay O(degree · broadcasts), not O(n · broadcasts).
    pub frames_sent: Vec<u64>,
    /// Frames each process forwarded on behalf of another origin
    /// (overlay relays; 0 everywhere on the direct path).
    pub frames_relayed: Vec<u64>,
    /// Offered wire bytes over time (per round by default, or aggregated
    /// into fixed windows via [`SimOptions::bytes_window`]) — the network
    /// load timeline the paper's Section 6 characterizes.
    pub bytes_per_round: ByteTimeline,
}

pub(crate) struct InFlight {
    pub(crate) from: ProcessId,
    pub(crate) to: ProcessId,
    pub(crate) frame: Bytes,
    /// Round at which this frame becomes deliverable.
    pub(crate) arrives: Round,
}

/// Recycled-bucket pool cap: steady state pops and refills one bucket per
/// round, so a handful of spares suffices; the cap keeps an idle
/// million-round run from hoarding empty vectors.
const SPARE_BUCKET_CAP: usize = 32;

/// A group of nodes wired through the simulated network.
pub struct SimNet<N: Node> {
    nodes: Vec<N>,
    faults: FaultPlan,
    opts: SimOptions,
    rng: ChaCha8Rng,
    stats: SimStats,
    round: Round,
    /// Calendar queue: at the top of [`SimNet::step`] for round `r`,
    /// `buckets[j]` holds the frames arriving at round `r + j`; bucket 0 is
    /// popped first, after which `buckets[j]` holds arrivals at `r + 1 + j`
    /// (the indexing [`SimNet::filter_sends`] pushes under).
    buckets: VecDeque<Vec<InFlight>>,
    /// Emptied buckets kept for reuse so steady-state rounds allocate
    /// nothing.
    spare_buckets: Vec<Vec<InFlight>>,
    /// One scratch output queue reused across every node invocation (the
    /// old engine allocated a fresh `Vec` per delivery and per round
    /// action).
    scratch_out: Vec<Outgoing>,
    /// Bytes offered during the round currently executing.
    round_bytes: u64,
    /// Cached `is_done()` per node, refreshed at each node's phase-2
    /// invocation (node state only changes inside invocations, and every
    /// non-crashed node is invoked every round).
    done: Vec<bool>,
    /// Nodes counted as crashed so far (kept in lockstep with
    /// `crash_cursor`).
    crashed: Vec<bool>,
    /// Count of nodes neither done nor crashed: `all_done()` is this
    /// reaching zero, replacing the old every-round n-node scan.
    undone: usize,
    /// Each process's first crash round, sorted; consumed by `crash_cursor`
    /// as the clock passes each event.
    crash_events: Vec<(Round, usize)>,
    crash_cursor: usize,
    /// Optional schedule adversary (see [`crate::adversary`]); `None` keeps
    /// the engine's deterministic order untouched.
    adversary: Option<Box<dyn Adversary>>,
}

impl<N: Node> SimNet<N> {
    /// Builds a network over `nodes` (process `i` is `nodes[i]`).
    pub fn new(nodes: Vec<N>, faults: FaultPlan, opts: SimOptions) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(opts.seed);
        let done: Vec<bool> = nodes.iter().map(|n| n.is_done()).collect();
        let undone = done.iter().filter(|d| !**d).count();
        let mut crash_events: Vec<(Round, usize)> = (0..nodes.len())
            .filter_map(|i| faults.crash_round(ProcessId::from_index(i)).map(|r| (r, i)))
            .collect();
        crash_events.sort_unstable();
        let stats = SimStats {
            bytes_per_round: ByteTimeline::new(opts.bytes_window),
            frames_sent: vec![0; nodes.len()],
            frames_relayed: vec![0; nodes.len()],
            ..SimStats::default()
        };
        let mut net = SimNet {
            crashed: vec![false; nodes.len()],
            nodes,
            faults,
            opts,
            rng,
            stats,
            round: Round(0),
            buckets: VecDeque::new(),
            spare_buckets: Vec::new(),
            scratch_out: Vec::new(),
            round_bytes: 0,
            done,
            undone,
            crash_events,
            crash_cursor: 0,
            adversary: None,
        };
        net.apply_crashes_up_to(Round(0));
        net
    }

    /// Group cardinality.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// The round about to be executed (or just executed, after a step).
    pub fn round(&self) -> Round {
        self.round
    }

    /// Engine counters.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Immutable node access for post-run inspection.
    pub fn node(&self, p: ProcessId) -> &N {
        &self.nodes[p.index()]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Whether `p` is crashed as of the current round.
    pub fn is_crashed(&self, p: ProcessId) -> bool {
        self.faults.is_crashed(p, self.round)
    }

    /// Installs a schedule adversary. Without one the delivery order is the
    /// engine's deterministic default.
    pub fn set_adversary(&mut self, adv: Box<dyn Adversary>) {
        self.adversary = Some(adv);
    }

    /// Advances the crash-event cursor through every event at or before
    /// `round`, removing newly crashed nodes from the undone count.
    fn apply_crashes_up_to(&mut self, round: Round) {
        while let Some(&(at, i)) = self.crash_events.get(self.crash_cursor) {
            if at > round {
                break;
            }
            self.crash_cursor += 1;
            self.crashed[i] = true;
            if !self.done[i] {
                self.undone -= 1;
            }
        }
    }

    /// Refreshes node `i`'s cached done flag after an invocation.
    fn note_done(&mut self, i: usize) {
        debug_assert!(!self.crashed[i], "crashed nodes are never invoked");
        let now = self.nodes[i].is_done();
        if now != self.done[i] {
            self.done[i] = now;
            if now {
                self.undone -= 1;
            } else {
                self.undone += 1;
            }
        }
    }

    /// Executes one full round: deliveries, then node actions, then fault
    /// filtering of the new sends.
    pub fn step(&mut self) {
        let round = self.round;
        let n = self.nodes.len();
        let mut out = std::mem::take(&mut self.scratch_out);
        debug_assert!(out.is_empty());

        // Phase 1: deliveries of wire traffic whose arrival round has come,
        // in deterministic (send round, send order) order — exactly one
        // calendar bucket.
        let mut arriving = self.buckets.pop_front().unwrap_or_default();
        if let Some(adv) = self.adversary.as_deref_mut() {
            crate::adversary::perturb(adv, round, &mut arriving, &mut self.stats.adversary_dropped);
        }
        for msg in arriving.drain(..) {
            debug_assert_eq!(msg.arrives, round, "bucket indexing drifted");
            if self.faults.is_crashed(msg.to, round) {
                self.stats.to_crashed += 1;
                continue;
            }
            if self.faults.recv_omission_prob > 0.0
                && self.rng.gen_bool(self.faults.recv_omission_prob)
            {
                self.stats.recv_omitted += 1;
                continue;
            }
            {
                let mut ctx = NetCtx::new(msg.to, n, round, &mut out);
                self.nodes[msg.to.index()].on_frame(msg.from, msg.frame, &mut ctx);
                let (encoded, shared, relayed) = ctx.share_gauge();
                self.stats.encoded_bytes += encoded;
                self.stats.shared_bytes += shared;
                self.stats.relayed_bytes += relayed;
            }
            self.stats.delivered += 1;
            self.filter_sends(msg.to, round, &mut out);
        }
        if arriving.capacity() > 0 && self.spare_buckets.len() < SPARE_BUCKET_CAP {
            self.spare_buckets.push(arriving);
        }

        // Phase 2: round actions for every alive node.
        for i in 0..n {
            let me = ProcessId::from_index(i);
            if self.faults.is_crashed(me, round) {
                continue;
            }
            {
                let mut ctx = NetCtx::new(me, n, round, &mut out);
                self.nodes[i].on_round(round, &mut ctx);
                let (encoded, shared, relayed) = ctx.share_gauge();
                self.stats.encoded_bytes += encoded;
                self.stats.shared_bytes += shared;
                self.stats.relayed_bytes += relayed;
            }
            self.filter_sends(me, round, &mut out);
            self.note_done(i);
        }

        self.scratch_out = out;
        self.stats.bytes_per_round.record(self.round_bytes);
        self.round_bytes = 0;
        self.round = round.next();
        self.apply_crashes_up_to(self.round);
    }

    /// Applies send-side faults and traffic accounting to a node's queued
    /// output, draining `out` into the arrival bucket. Only callable from
    /// inside [`SimNet::step`] (after the round's own bucket is popped, so
    /// bucket `j` holds arrivals at `round + 1 + j`).
    fn filter_sends(&mut self, from: ProcessId, round: Round, out: &mut Vec<Outgoing>) {
        if out.is_empty() {
            return;
        }
        let n = self.nodes.len();
        // One sender, one round: the crash check and delivery delay are
        // constant across the whole batch.
        let from_crashed = self.faults.is_crashed(from, round);
        let delay = self.faults.sender_delay(from);
        let arrives = Round(round.0 + 1 + delay);
        let slot = delay as usize;
        while self.buckets.len() <= slot {
            let spare = self.spare_buckets.pop().unwrap_or_default();
            self.buckets.push_back(spare);
        }
        let mut bucket = std::mem::take(&mut self.buckets[slot]);
        for o in out.drain(..) {
            if o.to.index() >= n {
                // A node addressed a nonexistent process (e.g. acting on a
                // corrupted PDU): the network has nowhere to carry it.
                self.stats.misaddressed += 1;
                continue;
            }
            if from_crashed {
                // Cannot happen for phase-2 sends (crashed nodes don't act)
                // but a node crashed *this* round may have queued frames in
                // phase 1 before the crash round check — drop them.
                self.stats.from_crashed += 1;
                continue;
            }
            // Accounting happens for every attempted transmission: the
            // paper's network-load figures count offered control traffic.
            self.stats.traffic.record(o.kind, o.frame.len());
            self.round_bytes += o.frame.len() as u64;
            if o.relayed {
                self.stats.frames_relayed[from.index()] += 1;
            } else {
                self.stats.frames_sent[from.index()] += 1;
            }
            if self.faults.link_cut_at(from, o.to, round) {
                self.stats.link_dropped += 1;
                continue;
            }
            if self.faults.send_omission_prob > 0.0
                && self.rng.gen_bool(self.faults.send_omission_prob)
            {
                self.stats.send_omitted += 1;
                continue;
            }
            let frame = if self.faults.corrupt_prob > 0.0
                && !o.frame.is_empty()
                && self.rng.gen_bool(self.faults.corrupt_prob)
            {
                // Mutate one byte in flight (the smoltcp-style
                // corrupt-chance fault).
                self.stats.corrupted += 1;
                let mut raw = o.frame.to_vec();
                let idx = self.rng.gen_range(0..raw.len());
                raw[idx] ^= 1 << self.rng.gen_range(0..8);
                Bytes::from(raw)
            } else {
                o.frame
            };
            bucket.push(InFlight {
                from,
                to: o.to,
                frame,
                arrives,
            });
        }
        self.buckets[slot] = bucket;
    }

    /// Whether every non-crashed node reports done. O(1): maintained from
    /// `is_done()` transitions and the crash schedule rather than a scan.
    pub fn all_done(&self) -> bool {
        let fast = self.undone == 0;
        debug_assert_eq!(
            fast,
            self.nodes.iter().enumerate().all(|(i, node)| {
                self.faults.is_crashed(ProcessId::from_index(i), self.round) || node.is_done()
            }),
            "incremental done count diverged from full scan"
        );
        fast
    }

    /// Runs until every alive node is done or the round limit is hit.
    pub fn run(&mut self) -> RunOutcome {
        while self.round.0 < self.opts.max_rounds {
            if self.all_done() {
                return RunOutcome::AllDone {
                    at_round: self.round.0,
                };
            }
            self.step();
        }
        if self.all_done() {
            RunOutcome::AllDone {
                at_round: self.round.0,
            }
        } else {
            RunOutcome::RoundLimit
        }
    }

    /// Steps until `done` has held for `settle` consecutive rounds — the
    /// drain that lets in-flight frames and the decision subruns trailing
    /// the last data message settle — or `max_rounds` rounds have run.
    /// Returns the rounds executed by this call.
    pub fn run_until_settled(
        &mut self,
        max_rounds: u64,
        settle: u64,
        mut done: impl FnMut(&Self) -> bool,
    ) -> u64 {
        let (mut rounds, mut streak) = (0u64, 0u64);
        while rounds < max_rounds && streak < settle {
            self.step();
            rounds += 1;
            streak = if done(self) { streak + 1 } else { 0 };
        }
        rounds
    }

    /// Runs exactly `rounds` more rounds (without the done check).
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Consumes the network, returning the nodes and stats for inspection.
    pub fn into_parts(self) -> (Vec<N>, SimStats) {
        (self.nodes, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A node that broadcasts one frame in round 0 and counts receptions.
    struct Chatter {
        sent: bool,
        received: Vec<(ProcessId, Bytes)>,
        echo: bool,
    }

    impl Chatter {
        fn new(echo: bool) -> Self {
            Chatter {
                sent: false,
                received: Vec::new(),
                echo,
            }
        }
    }

    impl Node for Chatter {
        fn on_round(&mut self, round: Round, net: &mut NetCtx<'_>) {
            if round == Round(0) && !self.sent {
                self.sent = true;
                net.broadcast("data", Bytes::from_static(b"hello"));
            }
        }

        fn on_frame(&mut self, from: ProcessId, frame: Bytes, net: &mut NetCtx<'_>) {
            self.received.push((from, frame));
            if self.echo {
                net.send(from, "echo", Bytes::from_static(b"ack"));
            }
        }

        fn is_done(&self) -> bool {
            self.sent && !self.received.is_empty()
        }
    }

    fn build(n: usize, faults: FaultPlan, echo: bool) -> SimNet<Chatter> {
        let nodes = (0..n).map(|_| Chatter::new(echo)).collect();
        SimNet::new(nodes, faults, SimOptions::default())
    }

    #[test]
    fn broadcast_arrives_next_round() {
        let mut net = build(3, FaultPlan::none(), false);
        net.step(); // round 0: everyone broadcasts
        assert_eq!(net.stats().delivered, 0, "nothing delivered in round 0");
        net.step(); // round 1: deliveries
        assert_eq!(net.stats().delivered, 6, "each of 3 nodes gets 2 frames");
        for i in 0..3 {
            assert_eq!(net.node(ProcessId(i)).received.len(), 2);
        }
    }

    #[test]
    fn echo_replies_flow_one_round_later() {
        let mut net = build(2, FaultPlan::none(), true);
        net.step(); // r0: both broadcast
        net.step(); // r1: both deliver + queue echoes
        net.step(); // r2: echoes delivered
        let got: Vec<&str> = net
            .node(ProcessId(0))
            .received
            .iter()
            .map(|(_, f)| std::str::from_utf8(f).unwrap())
            .collect();
        assert_eq!(got, vec!["hello", "ack"]);
    }

    #[test]
    fn traffic_is_metered_by_kind() {
        let mut net = build(3, FaultPlan::none(), false);
        net.run_rounds(2);
        let t = net.stats().traffic.get("data");
        assert_eq!(t.count, 6);
        assert_eq!(t.bytes, 30);
    }

    #[test]
    fn crashed_node_neither_sends_nor_receives() {
        let faults = FaultPlan::none().crash_at(ProcessId(0), Round(0));
        let mut net = build(3, faults, false);
        net.run_rounds(3);
        // p0 never broadcast; p1/p2 each got only one frame (from each other).
        assert_eq!(net.node(ProcessId(1)).received.len(), 1);
        assert_eq!(net.node(ProcessId(2)).received.len(), 1);
        assert!(net.node(ProcessId(0)).received.is_empty());
        assert_eq!(net.stats().traffic.get("data").count, 4);
    }

    #[test]
    fn frames_to_crashed_are_counted() {
        let faults = FaultPlan::none().crash_at(ProcessId(1), Round(1));
        let mut net = build(2, faults, false);
        net.run_rounds(2);
        assert_eq!(net.stats().to_crashed, 1, "p0's frame hit a corpse");
        assert_eq!(net.node(ProcessId(0)).received.len(), 1, "p1 sent in r0");
    }

    #[test]
    fn link_cut_drops_directionally() {
        let faults = FaultPlan::none().cut_link(ProcessId(0), ProcessId(1));
        let mut net = build(2, faults, false);
        net.run_rounds(2);
        assert!(net.node(ProcessId(1)).received.is_empty());
        assert_eq!(net.node(ProcessId(0)).received.len(), 1);
        assert_eq!(net.stats().link_dropped, 1);
    }

    #[test]
    fn certain_send_omission_loses_everything() {
        let faults = FaultPlan::none().send_omissions(1.0);
        let mut net = build(2, faults, false);
        net.run_rounds(3);
        assert_eq!(net.stats().delivered, 0);
        assert_eq!(net.stats().send_omitted, 2);
        // Offered traffic is still accounted (the frames were attempted).
        assert_eq!(net.stats().traffic.get("data").count, 2);
    }

    #[test]
    fn certain_recv_omission_loses_everything() {
        let faults = FaultPlan::none().recv_omissions(1.0);
        let mut net = build(2, faults, false);
        net.run_rounds(3);
        assert_eq!(net.stats().delivered, 0);
        assert_eq!(net.stats().recv_omitted, 2);
    }

    #[test]
    fn identical_seeds_reproduce_runs() {
        let run = |seed: u64| {
            let faults = FaultPlan::none().omission_rate(0.3);
            let nodes = (0..4).map(|_| Chatter::new(true)).collect();
            let mut net = SimNet::new(
                nodes,
                faults,
                SimOptions {
                    seed,
                    ..Default::default()
                },
            );
            net.run_rounds(6);
            (
                net.stats().delivered,
                net.stats().send_omitted,
                net.stats().recv_omitted,
            )
        };
        assert_eq!(run(42), run(42));
        // And different seeds (very likely) diverge — not asserted to avoid
        // a flaky test, but the counters must at least be internally
        // consistent.
        let (d, s, r) = run(42);
        assert!(d + s + r > 0);
    }

    #[test]
    fn run_stops_when_all_done() {
        let mut net = build(2, FaultPlan::none(), false);
        let outcome = net.run();
        assert_eq!(outcome, RunOutcome::AllDone { at_round: 2 });
    }

    #[test]
    fn run_respects_round_limit() {
        let nodes = vec![Chatter::new(false)]; // alone: never receives
        let mut net = SimNet::new(
            nodes,
            FaultPlan::none(),
            SimOptions {
                max_rounds: 5,
                ..Default::default()
            },
        );
        assert_eq!(net.run(), RunOutcome::RoundLimit);
        assert_eq!(net.round(), Round(5));
    }

    #[test]
    fn run_until_settled_needs_consecutive_done_rounds() {
        /// Done in rounds 2–3 (a streak of two that breaks) and from 6 on.
        struct Flicker(bool);
        impl Node for Flicker {
            fn on_round(&mut self, round: Round, _net: &mut NetCtx<'_>) {
                self.0 = matches!(round.0, 2 | 3) || round.0 >= 6;
            }
            fn on_frame(&mut self, _f: ProcessId, _x: Bytes, _n: &mut NetCtx<'_>) {}
            fn is_done(&self) -> bool {
                self.0
            }
        }
        let net = || {
            SimNet::new(
                vec![Flicker(false)],
                FaultPlan::none(),
                SimOptions::default(),
            )
        };
        // Rounds 6, 7, 8 are the first three done rounds in a row.
        assert_eq!(net().run_until_settled(100, 3, SimNet::all_done), 9);
        assert_eq!(net().run_until_settled(100, 2, SimNet::all_done), 4);
        // The budget wins when the streak never completes.
        let mut cut = net();
        assert_eq!(cut.run_until_settled(7, 3, SimNet::all_done), 7);
        assert_eq!(cut.round(), Round(7));
        // The predicate is the caller's: a stricter one keeps stepping.
        assert_eq!(net().run_until_settled(20, 1, |n| n.round().0 > 12), 13);
    }

    #[test]
    fn crashed_nodes_do_not_block_all_done() {
        let faults = FaultPlan::none().crash_at(ProcessId(0), Round(0));
        let nodes = (0..3).map(|_| Chatter::new(false)).collect();
        let mut net = SimNet::new(nodes, faults, SimOptions::default());
        let outcome = net.run();
        assert!(matches!(outcome, RunOutcome::AllDone { .. }));
    }

    #[test]
    fn all_done_tracks_mid_run_crashes() {
        // p0 crashes at round 2, after which the others are already done;
        // the incremental count must notice the crash event removing p0.
        struct Never;
        impl Node for Never {
            fn on_round(&mut self, _round: Round, _net: &mut NetCtx<'_>) {}
            fn on_frame(&mut self, _f: ProcessId, _x: Bytes, _n: &mut NetCtx<'_>) {}
        }
        let faults = FaultPlan::none().crash_at(ProcessId(0), Round(2));
        let mut net = SimNet::new(vec![Never], faults, SimOptions::default());
        assert!(!net.all_done(), "alive and not done");
        net.run_rounds(2);
        assert!(net.all_done(), "crashed nodes don't count");
    }
}

#[cfg(test)]
mod load_tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::node::{NetCtx, Node};
    use urcgc_types::{ProcessId, Round};

    struct Talker;
    impl Node for Talker {
        fn on_round(&mut self, _round: Round, net: &mut NetCtx<'_>) {
            net.broadcast("data", Bytes::from_static(b"12345678"));
        }
        fn on_frame(&mut self, _f: ProcessId, _x: Bytes, _n: &mut NetCtx<'_>) {}
    }

    #[test]
    fn bytes_per_round_records_offered_load() {
        let mut net = SimNet::new(
            vec![Talker, Talker, Talker],
            FaultPlan::none(),
            SimOptions::default(),
        );
        net.run_rounds(4);
        let series = net.stats().bytes_per_round.per_round();
        assert_eq!(series.len(), 4);
        // 3 nodes × 2 dests × 8 bytes per round.
        assert!(series.iter().all(|&b| b == 48), "{series:?}");
    }

    #[test]
    fn share_gauge_splits_offered_bytes_into_encoded_and_shared() {
        let mut net = SimNet::new(
            vec![Talker, Talker, Talker],
            FaultPlan::none(),
            SimOptions::default(),
        );
        net.run_rounds(4);
        // Each broadcast encodes its 8 bytes once and refcount-shares the
        // second of its 2 destination copies.
        assert_eq!(net.stats().encoded_bytes, 3 * 4 * 8);
        assert_eq!(net.stats().shared_bytes, 3 * 4 * 8);
        assert_eq!(
            net.stats().encoded_bytes + net.stats().shared_bytes + net.stats().relayed_bytes,
            net.stats().bytes_per_round.total(),
            "gauges must partition the offered load"
        );
        assert_eq!(net.stats().relayed_bytes, 0, "direct path never relays");
        assert!(net.stats().frames_relayed.iter().all(|&f| f == 0));
    }

    /// p0 sends one frame to p1 each round; p1 forwards every arrival to
    /// p2 via the relay path.
    struct HopSender;
    struct HopRelay;
    struct HopSink;
    impl Node for HopSender {
        fn on_round(&mut self, _round: Round, net: &mut NetCtx<'_>) {
            net.send(ProcessId(1), "data", Bytes::from_static(b"12345678"));
        }
        fn on_frame(&mut self, _f: ProcessId, _x: Bytes, _n: &mut NetCtx<'_>) {}
    }
    impl Node for HopRelay {
        fn on_round(&mut self, _round: Round, _net: &mut NetCtx<'_>) {}
        fn on_frame(&mut self, _f: ProcessId, frame: Bytes, net: &mut NetCtx<'_>) {
            net.send_relayed(ProcessId(2), "relay", frame);
        }
    }
    impl Node for HopSink {
        fn on_round(&mut self, _round: Round, _net: &mut NetCtx<'_>) {}
        fn on_frame(&mut self, _f: ProcessId, _x: Bytes, _n: &mut NetCtx<'_>) {}
    }

    #[test]
    fn relayed_sends_split_out_per_process_and_by_bytes() {
        enum Hop {
            Sender(HopSender),
            Relay(HopRelay),
            Sink(HopSink),
        }
        impl Node for Hop {
            fn on_round(&mut self, round: Round, net: &mut NetCtx<'_>) {
                match self {
                    Hop::Sender(x) => x.on_round(round, net),
                    Hop::Relay(x) => x.on_round(round, net),
                    Hop::Sink(x) => x.on_round(round, net),
                }
            }
            fn on_frame(&mut self, from: ProcessId, frame: Bytes, net: &mut NetCtx<'_>) {
                match self {
                    Hop::Sender(x) => x.on_frame(from, frame, net),
                    Hop::Relay(x) => x.on_frame(from, frame, net),
                    Hop::Sink(x) => x.on_frame(from, frame, net),
                }
            }
        }
        let nodes = vec![
            Hop::Sender(HopSender),
            Hop::Relay(HopRelay),
            Hop::Sink(HopSink),
        ];
        let mut net = SimNet::new(nodes, FaultPlan::none(), SimOptions::default());
        net.run_rounds(4);
        // p0 originated 4 frames; p1 forwarded the 3 that had arrived by
        // round 3 (one hop of latency); p2 sent nothing.
        assert_eq!(net.stats().frames_sent, vec![4, 0, 0]);
        assert_eq!(net.stats().frames_relayed, vec![0, 3, 0]);
        assert_eq!(net.stats().encoded_bytes, 4 * 8);
        assert_eq!(net.stats().relayed_bytes, 3 * 8);
        assert_eq!(
            net.stats().encoded_bytes + net.stats().shared_bytes + net.stats().relayed_bytes,
            net.stats().bytes_per_round.total(),
            "three-way partition tiles the offered load"
        );
    }

    #[test]
    fn windowed_timeline_matches_per_round_totals() {
        let mut net = SimNet::new(
            vec![Talker, Talker, Talker],
            FaultPlan::none(),
            SimOptions {
                bytes_window: Some(3),
                ..Default::default()
            },
        );
        net.run_rounds(7);
        let timeline = &net.stats().bytes_per_round;
        assert_eq!(timeline.window(), Some(3));
        assert_eq!(timeline.rounds(), 7);
        // 48 bytes per round, aggregated 3-3-1.
        assert_eq!(timeline.window_sums(), &[144, 144, 48]);
        assert_eq!(timeline.total(), 7 * 48);
    }
}

#[cfg(test)]
mod corruption_tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::node::{NetCtx, Node};
    use urcgc_types::{ProcessId, Round};

    struct Echo {
        received: Vec<Bytes>,
    }
    impl Node for Echo {
        fn on_round(&mut self, round: Round, net: &mut NetCtx<'_>) {
            if round == Round(0) {
                net.broadcast("data", Bytes::from_static(b"AAAAAAAA"));
            }
        }
        fn on_frame(&mut self, _f: ProcessId, frame: Bytes, _n: &mut NetCtx<'_>) {
            self.received.push(frame);
        }
    }

    #[test]
    fn certain_corruption_mutates_exactly_one_bit() {
        let faults = FaultPlan::none().corruption_rate(1.0);
        let nodes = vec![Echo { received: vec![] }, Echo { received: vec![] }];
        let mut net = SimNet::new(nodes, faults, SimOptions::default());
        net.run_rounds(2);
        assert_eq!(net.stats().corrupted, 2);
        for node in net.nodes() {
            assert_eq!(node.received.len(), 1);
            let frame = &node.received[0];
            assert_eq!(frame.len(), 8, "length preserved");
            let diff: u32 = frame
                .iter()
                .zip(b"AAAAAAAA")
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(diff, 1, "exactly one bit flipped");
        }
    }
}

#[cfg(test)]
mod straggler_tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::node::{NetCtx, Node};
    use urcgc_types::{ProcessId, Round};

    struct Once {
        sent: bool,
        arrivals: Vec<(Round, ProcessId)>,
    }
    impl Node for Once {
        fn on_round(&mut self, round: Round, net: &mut NetCtx<'_>) {
            if round == Round(0) && !self.sent {
                self.sent = true;
                net.broadcast("data", Bytes::from_static(b"x"));
            }
        }
        fn on_frame(&mut self, from: ProcessId, _frame: Bytes, net: &mut NetCtx<'_>) {
            self.arrivals.push((net.round(), from));
        }
    }

    #[test]
    fn slow_sender_delays_delivery_by_extra_rounds() {
        let faults = FaultPlan::none().slow_sender(ProcessId(0), 3);
        let nodes = (0..3)
            .map(|_| Once {
                sent: false,
                arrivals: vec![],
            })
            .collect();
        let mut net = SimNet::new(nodes, faults, SimOptions::default());
        net.run_rounds(6);
        // p1's frame from p0 arrives at round 4 (1 + 3 extra); frames from
        // p2 arrive at round 1 as usual.
        let p1 = &net.nodes()[1];
        let from0 = p1
            .arrivals
            .iter()
            .find(|(_, f)| *f == ProcessId(0))
            .unwrap();
        let from2 = p1
            .arrivals
            .iter()
            .find(|(_, f)| *f == ProcessId(2))
            .unwrap();
        assert_eq!(from0.0, Round(4));
        assert_eq!(from2.0, Round(1));
    }
}
