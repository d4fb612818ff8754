//! Discrete-event simulation driver: runs a group of [`Engine`]s over
//! [`urcgc_simnet`] and collects the measurements the paper's evaluation
//! reports (end-to-end delay, control traffic, history length).
//!
//! The driver is the reproduction of the authors' simulation testbed
//! (Section 6): synthetic offered load (a Bernoulli per-round generation
//! probability, or a fixed per-process message budget), fault plans from
//! [`urcgc_simnet::FaultPlan`], and per-round sampling of each process's
//! history length.

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use urcgc_overlay::{Disseminator, OverlayConfig, RelayDisposition};
use urcgc_simnet::{Adversary, FaultPlan, NetCtx, Node, SimNet, SimOptions, SimStats};
use urcgc_types::{DataMsg, FrameCache, Mid, ProcessId, ProtocolConfig, Round};

use crate::engine::Engine;
use crate::output::{Output, ProcessStatus};

/// How submissions choose their foreign causal dependencies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DepPolicy {
    /// Depend only on the process's own previous message (independent
    /// per-process sequences — maximum concurrency).
    OwnChain,
    /// Additionally depend on the most recently processed foreign message
    /// (point ii of Definition 3.1: reception → send), producing the
    /// cross-process causal webs the paper's applications generate.
    #[default]
    LatestForeign,
}

/// Synthetic offered load for one process.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Per-round probability of generating a message (1.0 = one per round,
    /// the paper's maximum service rate).
    pub gen_prob: f64,
    /// Total messages this process will generate.
    pub total: u64,
    /// Payload size in bytes.
    pub payload_size: usize,
    /// Foreign-dependency policy.
    pub deps: DepPolicy,
}

impl Workload {
    /// Back-to-back generation of `total` messages of `payload_size` bytes.
    pub fn fixed_count(total: u64, payload_size: usize) -> Self {
        Workload {
            gen_prob: 1.0,
            total,
            payload_size,
            deps: DepPolicy::default(),
        }
    }

    /// Bernoulli offered load: each round, generate with probability
    /// `gen_prob`, up to `total` messages.
    pub fn bernoulli(gen_prob: f64, total: u64, payload_size: usize) -> Self {
        assert!((0.0..=1.0).contains(&gen_prob), "probability out of range");
        Workload {
            gen_prob,
            total,
            payload_size,
            deps: DepPolicy::default(),
        }
    }

    /// No generation at all (pure receiver).
    pub fn silent() -> Self {
        Workload {
            gen_prob: 0.0,
            total: 0,
            payload_size: 0,
            deps: DepPolicy::default(),
        }
    }

    /// Overrides the dependency policy.
    pub fn with_deps(mut self, deps: DepPolicy) -> Self {
        self.deps = deps;
        self
    }
}

/// The workload-quiescence rule every harness terminates on, in-model and
/// on the real network alike: the member generated its whole budget, holds
/// no backlog, and has no *known gap* — the latest decision names no
/// process that has processed further than this member has (for origins
/// whose advertised holder is alive and not itself; such a gap means
/// recovery is still owed). A member that left has nothing left to do.
pub fn workload_quiescent(engine: &Engine, submitted: u64, budget: u64) -> bool {
    if !engine.status().is_active() {
        return true;
    }
    if submitted < budget || !engine.gauges().is_drained() {
        return false;
    }
    let d = engine.last_decision();
    (0..d.n()).all(|q| {
        let hint = &d.max_processed[q];
        hint.seq <= engine.last_processed(ProcessId::from_index(q))
            || !engine.view().is_alive(hint.holder)
            || hint.holder == engine.me()
    })
}

/// What a [`Member`] records about its run. A probe only ever *observes*
/// engine effects — it cannot steer the protocol — so the checker's
/// [`FullProbe`] members and the soak's [`CountingProbe`] members run the
/// same driver, bit for bit.
pub trait Probe: Default {
    /// An own message was generated at `round`.
    fn generated(&mut self, _mid: Mid, _round: Round) {}
    /// A logical broadcast left this member as `copies` wire copies.
    fn broadcast(&mut self, _copies: usize) {}
    /// A message was processed here at `round`.
    fn delivered(&mut self, msg: &DataMsg, round: Round);
    /// Orphan destruction discarded waiting messages here.
    fn discarded(&mut self, mids: Vec<Mid>);
    /// The member finished its actions for `round`.
    fn end_of_round(&mut self, round: Round, engine: &Engine);
}

/// Per-message probes: everything the checker's oracles, the figures and
/// the golden digests read. Resident state grows with the run.
#[derive(Default)]
pub struct FullProbe {
    /// mid → round at which *this* node processed it.
    deliveries: HashMap<Mid, Round>,
    /// Exact local processing order (the causal-order witness for tests).
    delivery_log: Vec<Mid>,
    /// Published dependency lists of every message processed here.
    deps_of: HashMap<Mid, Vec<Mid>>,
    /// mid → round at which this node *generated* it.
    generated: HashMap<Mid, Round>,
    /// Orphan-destruction victims observed here.
    discarded: Vec<Mid>,
    /// (round, history length) samples, one per round.
    history_series: Vec<(u64, usize)>,
    /// (round, waiting length) samples, one per round.
    waiting_series: Vec<(u64, usize)>,
}

impl Probe for FullProbe {
    fn generated(&mut self, mid: Mid, round: Round) {
        self.generated.insert(mid, round);
    }

    fn delivered(&mut self, msg: &DataMsg, round: Round) {
        self.deliveries.insert(msg.mid, round);
        self.delivery_log.push(msg.mid);
        self.deps_of.insert(msg.mid, msg.deps.clone());
    }

    fn discarded(&mut self, mids: Vec<Mid>) {
        self.discarded.extend(mids);
    }

    fn end_of_round(&mut self, round: Round, engine: &Engine) {
        let g = engine.gauges();
        self.history_series.push((round.0, g.history_len));
        self.waiting_series.push((round.0, g.waiting_len));
    }
}

/// Counters and peak gauges only — no delivery log, no per-mid maps, no
/// per-round series — so a soak's resident state stays O(1) per member
/// however many rounds it runs.
#[derive(Default)]
pub struct CountingProbe {
    delivered: u64,
    discarded: u64,
    peak_history: usize,
    peak_waiting: usize,
    /// Logical broadcasts this node originated (data + decision PDUs).
    broadcasts: u64,
    /// Wire copies those broadcasts cost at the origin: n−1 each under
    /// direct dissemination, ≤ degree under the overlay. The ratio is the
    /// origin fan-out the overlay exists to flatten.
    broadcast_copies: u64,
}

impl Probe for CountingProbe {
    fn broadcast(&mut self, copies: usize) {
        self.broadcasts += 1;
        self.broadcast_copies += copies as u64;
    }

    fn delivered(&mut self, _msg: &DataMsg, _round: Round) {
        self.delivered += 1;
    }

    fn discarded(&mut self, mids: Vec<Mid>) {
        self.discarded += mids.len() as u64;
    }

    fn end_of_round(&mut self, _round: Round, engine: &Engine) {
        // stats() refreshes the two peak gauges in O(1); gauges() would
        // also walk the per-origin purge-lag vector, which this per-round
        // hot path does not need.
        let s = engine.stats();
        self.peak_history = self.peak_history.max(s.history_len);
        self.peak_waiting = self.peak_waiting.max(s.waiting);
    }
}

/// One simulated group member: engine + workload generator + probe. The
/// only in-model driver of an [`Engine`] onto [`urcgc_simnet`]; what it
/// records is the probe's business ([`UrcgcNode`] for the checker and the
/// figures, `urcgc_bench::soak::SoakUrcgcNode` for the soak cells).
pub struct Member<P: Probe> {
    engine: Engine,
    workload: Workload,
    rng: ChaCha8Rng,
    submitted: u64,
    /// Most recently processed foreign message (for [`DepPolicy`]).
    latest_foreign: Option<Mid>,
    /// Frames that failed to decode (corruption casualties).
    undecodable: u64,
    /// Reused encode arena: one allocation per outgoing frame, shared
    /// across every destination of a broadcast.
    frames: FrameCache,
    /// Optional overlay relay layer. `None` (the default) keeps the
    /// paper's direct n-unicast broadcast path, bit for bit.
    overlay: Option<Disseminator>,
    probe: P,
}

/// The fully probed member (checker, figures, golden digests).
pub type UrcgcNode = Member<FullProbe>;

impl<P: Probe> Member<P> {
    /// Builds the member for process `me`. The workload RNG stream depends
    /// on `(seed, me)` only, so runs are comparable across probes.
    pub fn new(me: ProcessId, cfg: ProtocolConfig, workload: Workload, seed: u64) -> Self {
        Member {
            engine: Engine::new(me, cfg),
            workload,
            rng: ChaCha8Rng::seed_from_u64(
                seed ^ (0x9E37_79B9_7F4A_7C15u64).wrapping_mul(me.0 as u64 + 1),
            ),
            submitted: 0,
            latest_foreign: None,
            undecodable: 0,
            frames: FrameCache::new(),
            overlay: None,
            probe: P::default(),
        }
    }

    /// Routes this member's `data`/`decision` broadcasts over the overlay
    /// instead of direct n-unicast (control traffic stays direct). Every
    /// group member must be given the same config.
    pub fn with_overlay(mut self, cfg: OverlayConfig) -> Self {
        let n = self.engine.config().n;
        self.overlay = Some(Disseminator::new(self.engine.me(), n, cfg));
        self
    }

    /// All `cfg.n` members of one group, sharing `workload`, `seed` and
    /// (when given) the overlay layout.
    pub fn group(
        cfg: &ProtocolConfig,
        workload: &Workload,
        seed: u64,
        overlay: Option<&OverlayConfig>,
    ) -> Vec<Self> {
        (0..cfg.n)
            .map(|i| {
                let member = Self::new(
                    ProcessId::from_index(i),
                    cfg.clone(),
                    workload.clone(),
                    seed,
                );
                match overlay {
                    Some(ov) => member.with_overlay(ov.clone()),
                    None => member,
                }
            })
            .collect()
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Messages this member has generated so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Frames dropped because they failed to decode (corruption).
    pub fn undecodable(&self) -> u64 {
        self.undecodable
    }

    /// Current history residency: (live segments, payload bytes, purge
    /// lag in messages). Sampled by the soak loop at window boundaries.
    pub fn residency(&self) -> (usize, usize, u64) {
        let g = self.engine.gauges();
        (g.history_segments, g.history_bytes, g.purge_lag)
    }

    fn maybe_generate(&mut self, round: Round) {
        if !self.engine.status().is_active() || self.submitted >= self.workload.total {
            return;
        }
        if self.workload.gen_prob < 1.0 && !self.rng.gen_bool(self.workload.gen_prob) {
            return;
        }
        let deps: Vec<Mid> = match self.workload.deps {
            DepPolicy::OwnChain => vec![],
            DepPolicy::LatestForeign => self.latest_foreign.into_iter().collect(),
        };
        let payload = Bytes::from(vec![0u8; self.workload.payload_size]);
        // An entity that is no longer active rejects the submission.
        if let Ok(mid) = self.engine.submit(payload, &deps) {
            self.submitted += 1;
            self.probe.generated(mid, round);
        }
    }

    /// Drains engine effects into the network and the probe.
    fn flush(&mut self, net: &mut NetCtx<'_>) {
        let me = self.engine.me();
        while let Some(out) = self.engine.poll_output() {
            match out {
                Output::Send { to, pdu } => {
                    net.send(to, pdu.kind().label(), self.frames.encode(&pdu));
                }
                Output::Broadcast { pdu } => {
                    let kind = pdu.kind().label();
                    let inner = self.frames.encode(&pdu);
                    match self.overlay.as_mut() {
                        Some(ov) => {
                            ov.sync_view(self.engine.view().flags());
                            let (envelope, targets) = ov.broadcast(&inner);
                            self.probe.broadcast(targets.len());
                            net.multicast(targets, kind, envelope);
                        }
                        None => {
                            self.probe.broadcast(net.n() - 1);
                            net.broadcast(kind, inner);
                        }
                    }
                }
                Output::Deliver { msg } => {
                    self.probe.delivered(&msg, net.round());
                    if msg.mid.origin != me {
                        self.latest_foreign = Some(msg.mid);
                    }
                }
                Output::Discarded { mids } => self.probe.discarded(mids),
                Output::Confirm { .. } | Output::StatusChanged { .. } => {}
            }
        }
    }

    /// Handles an arriving overlay envelope: forward-once to this member's
    /// children of the origin's tree, then unwrap and feed the engine.
    fn on_relay_frame(&mut self, frame: &Bytes, net: &mut NetCtx<'_>) {
        let disposition = {
            let ov = self.overlay.as_mut().expect("relay frame without overlay");
            ov.sync_view(self.engine.view().flags());
            ov.on_frame(frame)
        };
        match disposition {
            RelayDisposition::Deliver {
                origin,
                inner,
                forward,
                envelope,
            } => {
                for to in forward {
                    net.send_relayed(to, "relay", envelope.clone());
                }
                if self.engine.on_frame(origin, &inner).is_err() {
                    self.undecodable += 1;
                }
            }
            RelayDisposition::Duplicate => {}
            RelayDisposition::Undecodable => self.undecodable += 1,
        }
    }
}

impl Member<FullProbe> {
    /// Per-mid local processing rounds.
    pub fn deliveries(&self) -> &HashMap<Mid, Round> {
        &self.probe.deliveries
    }

    /// The exact order in which this node processed messages.
    pub fn delivery_log(&self) -> &[Mid] {
        &self.probe.delivery_log
    }

    /// The published dependency list of a message processed here.
    pub fn deps_of(&self, mid: Mid) -> Option<&[Mid]> {
        self.probe.deps_of.get(&mid).map(Vec::as_slice)
    }

    /// Per-mid generation rounds (own messages only).
    pub fn generated(&self) -> &HashMap<Mid, Round> {
        &self.probe.generated
    }

    /// Orphan-destruction victims observed by this node.
    pub fn discarded(&self) -> &[Mid] {
        &self.probe.discarded
    }

    /// Per-round history-length samples.
    pub fn history_series(&self) -> &[(u64, usize)] {
        &self.probe.history_series
    }

    /// Per-round waiting-list samples.
    pub fn waiting_series(&self) -> &[(u64, usize)] {
        &self.probe.waiting_series
    }
}

impl Member<CountingProbe> {
    /// Application messages processed here.
    pub fn delivered(&self) -> u64 {
        self.probe.delivered
    }

    /// Peak history table length observed.
    pub fn peak_history(&self) -> usize {
        self.probe.peak_history
    }

    /// Peak waiting-list length observed.
    pub fn peak_waiting(&self) -> usize {
        self.probe.peak_waiting
    }

    /// Orphan-destruction victims plus undecodable frames seen here.
    pub fn losses(&self) -> u64 {
        self.probe.discarded + self.undecodable
    }

    /// (logical broadcasts originated, wire copies they cost at this
    /// origin) — the per-process fan-out gauge.
    pub fn fanout(&self) -> (u64, u64) {
        (self.probe.broadcasts, self.probe.broadcast_copies)
    }
}

impl<P: Probe> Node for Member<P> {
    fn on_round(&mut self, round: Round, net: &mut NetCtx<'_>) {
        self.maybe_generate(round);
        self.engine.begin_round(round);
        self.flush(net);
        self.probe.end_of_round(round, &self.engine);
    }

    fn on_frame(&mut self, from: ProcessId, frame: Bytes, net: &mut NetCtx<'_>) {
        // Corrupted frames (FaultPlan::corruption_rate) fail to decode and
        // are dropped — in-flight corruption degenerates to an omission,
        // which the protocol already recovers from.
        if self.overlay.is_some() && urcgc_overlay::is_relay_frame(&frame) {
            self.on_relay_frame(&frame, net);
        } else if self.engine.on_frame(from, &frame).is_err() {
            self.undecodable += 1;
        }
        self.flush(net);
    }

    fn is_done(&self) -> bool {
        workload_quiescent(&self.engine, self.submitted, self.workload.total)
    }
}

/// Builder for [`GroupHarness`].
pub struct GroupHarnessBuilder {
    cfg: ProtocolConfig,
    workload: Workload,
    faults: FaultPlan,
    seed: u64,
    max_rounds: u64,
    adversary: Option<Box<dyn Adversary>>,
    overlay: Option<OverlayConfig>,
}

impl GroupHarnessBuilder {
    /// Sets every process's workload.
    pub fn workload(mut self, w: Workload) -> Self {
        self.workload = w;
        self
    }

    /// Sets the fault plan.
    pub fn faults(mut self, f: FaultPlan) -> Self {
        self.faults = f;
        self
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the hard round limit.
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Installs a delivery-schedule adversary (see
    /// [`urcgc_simnet::Adversary`]); the default is none, which leaves the
    /// engine schedule untouched.
    pub fn adversary(mut self, adv: Box<dyn Adversary>) -> Self {
        self.adversary = Some(adv);
        self
    }

    /// Routes every member's `data`/`decision` broadcasts over a shared
    /// overlay (see [`urcgc_overlay`]); the default is `None`, the paper's
    /// direct n-unicast.
    pub fn overlay(mut self, cfg: OverlayConfig) -> Self {
        self.overlay = Some(cfg);
        self
    }

    /// Builds the harness.
    pub fn build(self) -> GroupHarness {
        let mut net = SimNet::new(
            UrcgcNode::group(&self.cfg, &self.workload, self.seed, self.overlay.as_ref()),
            self.faults,
            SimOptions {
                max_rounds: self.max_rounds,
                seed: self.seed,
                ..SimOptions::default()
            },
        );
        if let Some(adv) = self.adversary {
            net.set_adversary(adv);
        }
        GroupHarness { net }
    }
}

/// A full simulated group plus measurement extraction.
pub struct GroupHarness {
    net: SimNet<UrcgcNode>,
}

impl GroupHarness {
    /// Starts building a harness over `cfg`.
    pub fn builder(cfg: ProtocolConfig) -> GroupHarnessBuilder {
        GroupHarnessBuilder {
            cfg,
            workload: Workload::silent(),
            faults: FaultPlan::none(),
            seed: 1,
            max_rounds: 100_000,
            adversary: None,
            overlay: None,
        }
    }

    /// Direct access to the underlying network.
    pub fn net(&self) -> &SimNet<UrcgcNode> {
        &self.net
    }

    /// Steps one round.
    pub fn step(&mut self) {
        self.net.step();
    }

    /// Runs until every surviving node is quiescent (budget generated, no
    /// waiting backlog) — plus a short drain so in-flight frames settle —
    /// or until `max_rounds`. Returns the collected report.
    pub fn run_to_completion(&mut self, max_rounds: u64) -> GroupReport {
        self.run_until(max_rounds, SimNet::all_done)
    }

    /// [`run_to_completion`](GroupHarness::run_to_completion) with the
    /// caller's quiescence predicate, evaluated once after every round —
    /// the checker runs its per-round oracle from it, and holds quiescence
    /// off until its fault plan is spent.
    pub fn run_until(
        &mut self,
        max_rounds: u64,
        done: impl FnMut(&SimNet<UrcgcNode>) -> bool,
    ) -> GroupReport {
        // Let in-flight frames and two more decision subruns settle
        // (stability, cleaning and gap detection lag behind the last data
        // message by up to a subrun each).
        let rounds = self.net.run_until_settled(max_rounds, 8, done);
        self.report(rounds)
    }

    /// Runs exactly `rounds` rounds.
    pub fn run_rounds(&mut self, rounds: u64) {
        self.net.run_rounds(rounds);
    }

    /// Builds the report as of now.
    pub fn report(&self, rounds: u64) -> GroupReport {
        let nodes = self.net.nodes();
        let n = nodes.len();
        let alive: Vec<bool> = (0..n)
            .map(|i| {
                let p = ProcessId::from_index(i);
                !self.net.is_crashed(p) && nodes[i].engine().status().is_active()
            })
            .collect();

        // Per-mid generation round (from its origin). BTreeMap: the loop
        // below must visit mids in a deterministic order — delay samples
        // (and their float-summed mean) would otherwise vary run to run
        // with HashMap's per-instance hash seed.
        let mut generated: BTreeMap<Mid, Round> = BTreeMap::new();
        for node in nodes {
            generated.extend(node.generated().iter().map(|(&m, &r)| (m, r)));
        }

        // Per-mid delays: processed-by-all-alive time minus generation time.
        // Classify each generated message against the surviving group:
        // processed by all (atomicity's "all of them"), by none (the
        // permitted "none of them" branch — e.g. a message lost together
        // with its crashed origin), or by a strict subset (an atomicity
        // violation if it persists at quiescence).
        let mut delays = urcgc_metrics::DelayStats::new();
        let mut fully_processed = 0u64;
        let mut unprocessed = 0u64;
        let mut partially_processed = 0u64;
        for (&mid, &gen_round) in &generated {
            let mut max_round = 0u64;
            let mut holders = 0usize;
            let mut survivors = 0usize;
            for (i, node) in nodes.iter().enumerate() {
                if !alive[i] {
                    continue;
                }
                survivors += 1;
                if let Some(r) = node.deliveries().get(&mid) {
                    holders += 1;
                    max_round = max_round.max(r.0);
                }
            }
            if survivors > 0 && holders == survivors {
                fully_processed += 1;
                let delta = max_round.saturating_sub(gen_round.0).max(1);
                delays.record(urcgc_simnet::rounds_to_rtd(delta));
            } else if holders == 0 {
                unprocessed += 1;
            } else {
                partially_processed += 1;
            }
        }

        GroupReport {
            rounds,
            quiesced: self.net.all_done(),
            alive,
            generated_total: generated.len() as u64,
            fully_processed,
            unprocessed,
            partially_processed,
            delays,
            stats: self.net.stats().clone(),
            statuses: nodes.iter().map(|nd| nd.engine().status()).collect(),
            flow_blocked_rounds: nodes
                .iter()
                .map(|nd| nd.engine().stats().flow_blocked_rounds)
                .sum(),
            history_series: nodes
                .iter()
                .map(|nd| nd.history_series().to_vec())
                .collect(),
            waiting_series: nodes
                .iter()
                .map(|nd| nd.waiting_series().to_vec())
                .collect(),
            last_processed: nodes
                .iter()
                .map(|nd| {
                    (0..n)
                        .map(|q| nd.engine().last_processed(ProcessId::from_index(q)))
                        .collect()
                })
                .collect(),
            discarded: nodes.iter().map(|nd| nd.discarded().to_vec()).collect(),
        }
    }
}

/// Measurements extracted from a finished run.
#[derive(Clone, Debug)]
pub struct GroupReport {
    /// Rounds executed.
    pub rounds: u64,
    /// Whether the run ended because every surviving node quiesced
    /// (`false` means it hit the round limit with work still outstanding —
    /// the checker's stall oracle keys off this).
    pub quiesced: bool,
    /// Which processes survived (not crashed, not left/suicided).
    pub alive: Vec<bool>,
    /// Messages generated group-wide.
    pub generated_total: u64,
    /// Messages processed by *every* surviving process.
    pub fully_processed: u64,
    /// Messages processed by *no* surviving process (the "none of them"
    /// branch of uniform atomicity — typically messages lost together with
    /// their crashed origin).
    pub unprocessed: u64,
    /// Messages processed by a strict subset of the survivors — an
    /// atomicity violation if non-zero at quiescence.
    pub partially_processed: u64,
    /// End-to-end delays in rtd, one sample per fully processed message
    /// (generation → processed by the whole surviving group).
    pub delays: urcgc_metrics::DelayStats,
    /// Engine-level traffic/fault counters.
    pub stats: SimStats,
    /// Final status per process.
    pub statuses: Vec<ProcessStatus>,
    /// Group-wide total of rounds in which flow control suppressed a
    /// pending generation (Figure 6 b's cost metric).
    pub flow_blocked_rounds: u64,
    /// Per-process (round, history length) samples.
    pub history_series: Vec<Vec<(u64, usize)>>,
    /// Per-process (round, waiting length) samples.
    pub waiting_series: Vec<Vec<(u64, usize)>>,
    /// Per-process final `last_processed` vectors.
    pub last_processed: Vec<Vec<u64>>,
    /// Per-process orphan-destruction victims.
    pub discarded: Vec<Vec<Mid>>,
}

impl GroupReport {
    /// Uniform-atomicity check: every message that was generated was
    /// processed by every surviving process (no failures ⇒ must hold; with
    /// failures, holds for all non-discarded messages).
    pub fn all_processed_everything(&self) -> bool {
        self.fully_processed == self.generated_total
    }

    /// Uniform atomicity in its exact form (Definition 3.2): every message
    /// was processed either by all surviving processes or by none of them.
    /// Messages lost with a crashed origin fall in the "none" branch and do
    /// not violate atomicity.
    pub fn atomicity_holds(&self) -> bool {
        self.partially_processed == 0
    }

    /// Uniform-agreement check on frontiers: all surviving processes ended
    /// with identical `last_processed` vectors.
    pub fn frontiers_agree(&self) -> bool {
        let mut iter = self
            .alive
            .iter()
            .zip(&self.last_processed)
            .filter(|(a, _)| **a)
            .map(|(_, v)| v);
        let Some(first) = iter.next() else {
            return true;
        };
        iter.all(|v| v == first)
    }

    /// Duration in rtd units.
    pub fn rtd(&self) -> f64 {
        urcgc_simnet::rounds_to_rtd(self.rounds)
    }

    /// Maximum history length observed anywhere.
    pub fn max_history(&self) -> usize {
        self.history_series
            .iter()
            .flatten()
            .map(|&(_, l)| l)
            .max()
            .unwrap_or(0)
    }

    /// Maximum waiting-list length observed anywhere.
    pub fn max_waiting(&self) -> usize {
        self.waiting_series
            .iter()
            .flatten()
            .map(|&(_, l)| l)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_process_group_reaches_atomic_agreement() {
        let cfg = ProtocolConfig::new(5);
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(10, 16))
            .seed(7)
            .build();
        let report = h.run_to_completion(1_000);
        assert_eq!(report.generated_total, 50);
        assert!(report.all_processed_everything());
        assert!(report.frontiers_agree());
        assert!(report.statuses.iter().all(|s| s.is_active()));
    }

    #[test]
    fn reliable_delay_floor_is_half_rtd() {
        let cfg = ProtocolConfig::new(4);
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(5, 8).with_deps(DepPolicy::OwnChain))
            .seed(3)
            .build();
        let report = h.run_to_completion(500);
        assert!(report.all_processed_everything());
        // "under reliable system conditions D ≥ 1/2 rtd"
        assert!(report.delays.min().unwrap() >= 0.5);
        assert!(report.delays.mean().unwrap() < 2.0, "no recovery stalls");
    }

    #[test]
    fn histories_are_cleaned_under_reliable_conditions() {
        let cfg = ProtocolConfig::new(5);
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(20, 8))
            .seed(11)
            .build();
        let report = h.run_to_completion(2_000);
        // Section 6 bounds the failure-free history at ~2n for the paper's
        // per-subrun generation; at our maximum service rate (one message
        // per *round* per process) the send→stable→purge pipeline is ~4
        // rounds deep, so the steady-state bound is ~4n.
        assert!(
            report.max_history() <= 4 * 5,
            "max history {} exceeds ~4n",
            report.max_history()
        );
        // After the run the histories have been purged to (near) empty.
        let final_lens: Vec<usize> = report
            .history_series
            .iter()
            .map(|s| s.last().map(|&(_, l)| l).unwrap_or(0))
            .collect();
        assert!(final_lens.iter().all(|&l| l <= 5), "{final_lens:?}");
    }

    #[test]
    fn omission_failures_are_recovered() {
        let cfg = ProtocolConfig::new(5);
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(20, 8))
            .faults(FaultPlan::none().omission_rate(1.0 / 100.0))
            .seed(13)
            .build();
        let report = h.run_to_completion(4_000);
        assert!(
            report.all_processed_everything(),
            "fully {}/{} (statuses {:?})",
            report.fully_processed,
            report.generated_total,
            report.statuses
        );
        assert!(report.frontiers_agree());
    }

    #[test]
    fn one_dropped_data_frame_is_recovered_as_soon_as_a_decision_shows_it() {
        // p0's round-0 broadcast never reaches p2. The subrun-0 decision
        // (sent in round 1, adopted in round 2) names p0 as holding p0#1:
        // ask in 2, served in 3, processed in 4. Asking at the next
        // decision round instead (round 3) made this 5.
        let faults =
            FaultPlan::none().cut_link_during(ProcessId(0), ProcessId(2), Round(0), Round(1));
        let mut h = GroupHarness::builder(ProtocolConfig::new(3))
            .workload(Workload::fixed_count(1, 8))
            .faults(faults)
            .build();
        let report = h.run_to_completion(200);
        let lost = Mid::new(ProcessId(0), 1);
        let p2 = h.net().node(ProcessId(2));
        assert_eq!(p2.deliveries()[&lost], Round(4));
        assert_eq!(p2.engine().stats().recovered, 1);
        assert_eq!(p2.engine().stats().recovery_retries, 0);
        assert!(report.all_processed_everything() && report.frontiers_agree());
        assert_eq!(report.last_processed[2], vec![1, 1, 1]);
    }

    #[test]
    fn crash_of_member_is_detected_and_group_continues() {
        let cfg = ProtocolConfig::new(5).with_k(2);
        // p4 crashes at round 6 (mid-run).
        let faults = FaultPlan::none().crash_at(ProcessId(4), Round(6));
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(15, 8))
            .faults(faults)
            .seed(17)
            .build();
        let report = h.run_to_completion(2_000);
        assert!(!report.alive[4]);
        // Survivors agree and processed all *surviving* messages.
        assert!(report.frontiers_agree());
        assert!(report.statuses[..4].iter().all(|s| s.is_active()));
        // The group view converged on p4's crash.
        // (Check through the last decision of p0's engine.)
        let d = h.net().node(ProcessId(0)).engine().last_decision();
        assert!(!d.process_state[4]);
    }

    #[test]
    fn coordinator_crash_defers_decision_one_subrun() {
        let cfg = ProtocolConfig::new(5).with_k(3);
        // The coordinator of subrun 1 (p1) crashes right before its
        // decision broadcast.
        let faults = FaultPlan::none().consecutive_coordinator_crashes(1, 1, 5);
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(10, 8))
            .faults(faults)
            .seed(19)
            .build();
        let report = h.run_to_completion(2_000);
        assert!(report.frontiers_agree());
        assert!(report.statuses[0].is_active());
        // Processing was NOT suspended: delays stay flat (the urcgc
        // headline property, Figure 4 under crash conditions).
        assert!(report.delays.mean().unwrap() < 3.0);
    }

    #[test]
    fn report_distinguishes_quiescence_from_round_limit() {
        let cfg = ProtocolConfig::new(4);
        let mut h = GroupHarness::builder(cfg.clone())
            .workload(Workload::fixed_count(5, 8))
            .seed(23)
            .build();
        let done = h.run_to_completion(1_000);
        assert!(done.quiesced);
        // Same run cut off after 3 rounds: the budget cannot be finished.
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(5, 8))
            .seed(23)
            .build();
        let cut = h.run_to_completion(3);
        assert!(!cut.quiesced);
        assert_eq!(cut.rounds, 3);
    }

    #[test]
    fn schedule_adversary_reaches_the_engines() {
        struct Reverser;
        impl Adversary for Reverser {
            fn reorder(
                &mut self,
                _round: Round,
                frames: &[urcgc_simnet::FrameView],
            ) -> Option<Vec<usize>> {
                Some((0..frames.len()).rev().collect())
            }
        }
        let cfg = ProtocolConfig::new(4);
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(8, 8))
            .seed(29)
            .adversary(Box::new(Reverser))
            .build();
        let report = h.run_to_completion(2_000);
        // Reordering within a round is a legal asynchrony: the protocol
        // must still reach atomic agreement.
        assert!(report.quiesced);
        assert!(report.all_processed_everything());
        assert!(report.frontiers_agree());
    }

    #[test]
    #[cfg(feature = "checker-knobs")]
    fn broken_purge_knob_discards_unstable_history() {
        // With the deliberate purge-before-stability bug and a slow
        // receiver, some node must at some point have purged past another
        // node's processed frontier — exactly what the checker's stability
        // oracle looks for. Sample the invariant every round.
        let cfg = ProtocolConfig::new(5).with_broken_purge_before_stability();
        let faults = FaultPlan::none().slow_sender(ProcessId(1), 2);
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(20, 8))
            .faults(faults)
            .seed(31)
            .build();
        let mut violated = false;
        for _ in 0..2_000 {
            h.step();
            let nodes = h.net().nodes();
            'scan: for holder in nodes {
                if !holder.engine().status().is_active() {
                    continue;
                }
                for peer in nodes {
                    if !peer.engine().status().is_active()
                        || !holder.engine().view().is_alive(peer.engine().me())
                    {
                        continue;
                    }
                    for q in 0..5 {
                        let q = ProcessId::from_index(q);
                        if holder.engine().history_purged_to(q) > peer.engine().last_processed(q) {
                            violated = true;
                            break 'scan;
                        }
                    }
                }
            }
            if violated {
                break;
            }
        }
        assert!(violated, "broken purge never outran a peer's frontier");
    }

    #[test]
    fn overlay_group_reaches_atomic_agreement_with_flat_fanout() {
        let n = 9;
        let cfg = ProtocolConfig::new(n);
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(8, 16))
            .seed(41)
            .overlay(OverlayConfig::tree(2, 0xfeed))
            .build();
        let report = h.run_to_completion(4_000);
        assert!(report.quiesced);
        assert!(report.all_processed_everything());
        assert!(report.frontiers_agree());
        // Dissemination really went hop-by-hop: interior tree nodes forwarded
        // frames, and the relayed byte gauge is non-zero.
        let relayed: u64 = report.stats.frames_relayed.iter().sum();
        assert!(relayed > 0, "no forwards — overlay was bypassed");
        assert!(report.stats.relayed_bytes > 0);
        // Flat fan-out: no process originates more than degree copies per
        // logical broadcast, where direct n-unicast would send n−1 = 8.
        // Compare against a direct-unicast twin of the same run.
        let cfg = ProtocolConfig::new(n);
        let mut direct = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(8, 16))
            .seed(41)
            .build();
        let dreport = direct.run_to_completion(4_000);
        let overlay_origin: u64 = report.stats.frames_sent.iter().sum();
        let direct_origin: u64 = dreport.stats.frames_sent.iter().sum();
        assert!(
            overlay_origin * 2 < direct_origin,
            "overlay originated {overlay_origin} vs direct {direct_origin}"
        );
    }

    #[test]
    fn overlay_survives_relay_node_crash() {
        // A mid-tree relay crashes while traffic is in flight; re-parenting
        // plus the engine's recovery path must still reach atomic agreement
        // among the survivors. K must absorb the re-parenting window: until
        // the coordinator declares the relay failed, decisions keep routing
        // through the corpse, so a downstream process can miss several
        // consecutive decisions without being at fault (PROTOCOL.md §8).
        let n = 7;
        let cfg = ProtocolConfig::new(n).with_k(4);
        let faults = FaultPlan::none().crash_at(ProcessId(3), Round(10));
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(10, 16))
            .faults(faults)
            .seed(43)
            .overlay(OverlayConfig::tree(2, 0xbeef))
            .build();
        let report = h.run_to_completion(6_000);
        assert!(!report.alive[3]);
        assert!(report.frontiers_agree());
        assert!(report.atomicity_holds());
        assert!(
            report.statuses[..3].iter().all(|s| s.is_active())
                && report.statuses[4..].iter().all(|s| s.is_active()),
            "statuses {:?} quiesced={} fully={}/{}",
            report.statuses,
            report.quiesced,
            report.fully_processed,
            report.generated_total,
        );
    }

    #[test]
    fn gossip_overlay_reaches_agreement_via_recovery() {
        // Gossip coverage is probabilistic; the engine's recovery-from-
        // history fills whatever the rumor missed, so the end state is
        // still uniform agreement.
        let cfg = ProtocolConfig::new(8);
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(6, 16))
            .seed(47)
            .overlay(OverlayConfig::gossip(3, 0xabcd))
            .build();
        let report = h.run_to_completion(6_000);
        assert!(report.quiesced, "gossip run stalled");
        assert!(report.all_processed_everything());
        assert!(report.frontiers_agree());
    }

    #[test]
    fn overlay_runs_are_deterministic() {
        let run = |seed: u64| {
            let cfg = ProtocolConfig::new(6);
            let mut h = GroupHarness::builder(cfg)
                .workload(Workload::bernoulli(0.5, 8, 8))
                .faults(FaultPlan::none().omission_rate(0.01))
                .seed(seed)
                .overlay(OverlayConfig::tree(3, 99))
                .build();
            let r = h.run_to_completion(4_000);
            (
                r.rounds,
                r.generated_total,
                r.fully_processed,
                r.stats.frames_sent,
                r.stats.frames_relayed,
            )
        };
        assert_eq!(run(5), run(5));
    }

    /// One faulty cell (omissions, a slow sender, a mid-run crash) over
    /// members recording through `P`: rounds run, the simulator's whole
    /// counter set (rendered, so every field takes part) and the members.
    fn faulty_cell<P: Probe>(
        n: usize,
        overlay: Option<OverlayConfig>,
    ) -> (u64, String, Vec<Member<P>>) {
        let cfg = ProtocolConfig::new(n).with_k(4);
        let faults = FaultPlan::none()
            .omission_rate(0.01)
            .slow_sender(ProcessId(1), 2)
            .crash_at(ProcessId::from_index(n - 1), Round(12));
        let workload = Workload::bernoulli(0.7, 20, 16);
        let members = Member::<P>::group(&cfg, &workload, 77, overlay.as_ref());
        let opts = SimOptions {
            seed: 77,
            ..SimOptions::default()
        };
        let mut net = SimNet::new(members, faults, opts);
        let rounds = net.run_until_settled(6_000, 8, SimNet::all_done);
        assert!(net.all_done(), "cell did not quiesce");
        let (members, stats) = net.into_parts();
        (rounds, format!("{stats:?}"), members)
    }

    #[test]
    fn a_probe_never_steers_the_protocol() {
        for (n, overlay) in [(5, None), (12, Some(OverlayConfig::tree(3, 0xfeed)))] {
            let (full_rounds, full_stats, full) = faulty_cell::<FullProbe>(n, overlay.clone());
            let (rounds, stats, counting) = faulty_cell::<CountingProbe>(n, overlay.clone());
            assert_eq!(rounds, full_rounds, "n={n}");
            // Frames, encoded/shared/relayed bytes, per-kind traffic, every
            // fault counter and the byte timeline.
            assert_eq!(stats, full_stats, "n={n}");
            assert_eq!(stats.contains("relayed_bytes: 0"), overlay.is_none());
            for (c, f) in counting.iter().zip(&full) {
                assert_eq!(c.delivered(), f.delivery_log().len() as u64);
                assert_eq!(c.submitted(), f.submitted());
                assert_eq!(c.residency(), f.residency());
                assert_eq!(
                    c.peak_history(),
                    f.history_series().iter().map(|s| s.1).max().unwrap_or(0)
                );
            }
            assert!(counting.iter().any(|c| c.delivered() > 0));
        }
    }

    #[test]
    fn deterministic_runs_with_same_seed() {
        let run = |seed: u64| {
            let cfg = ProtocolConfig::new(4);
            let mut h = GroupHarness::builder(cfg)
                .workload(Workload::bernoulli(0.5, 10, 8))
                .faults(FaultPlan::none().omission_rate(0.01))
                .seed(seed)
                .build();
            let r = h.run_to_completion(3_000);
            (r.rounds, r.generated_total, r.fully_processed)
        };
        assert_eq!(run(5), run(5));
    }
}
