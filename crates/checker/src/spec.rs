//! Check specifications: the replayable genome of one adversarial run.
//!
//! A [`CheckSpec`] is everything needed to reproduce a run bit for bit:
//! the engine seed, the group size and per-process budget, a fault-plan
//! genome ([`PlanSpec`]) rebuilt through [`FaultPlan`]'s own builders, and
//! a schedule-perturbation genome ([`SchedSpec`]). Generation samples only
//! *in-model* faults — crash counts within the resilience bound
//! `t = (n−1)/2`, a config sized for the sampled coordinator-crash burst,
//! modest omission rates, bounded healing cuts, no partitions — so any
//! oracle violation it provokes is a protocol bug, not an out-of-model
//! scenario.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use urcgc_metrics::Json;
use urcgc_overlay::{OverlayConfig, OverlayMode, Plan};
use urcgc_simnet::FaultPlan;
use urcgc_types::{ProcessId, ProtocolConfig, Round, Subrun};

/// Fault-plan genome: the arguments to replay through [`FaultPlan`]'s
/// builders. Plain data (no `FaultPlan` serialization needed).
#[derive(Clone, Debug, PartialEq)]
pub struct PlanSpec {
    /// Individual fail-stop crashes: `(process, round)`.
    pub crashes: Vec<(u16, u64)>,
    /// A burst of `f` consecutive coordinator crashes starting at the
    /// given subrun (the Figure 5 scenario shape).
    pub coordinator_crashes: Option<(u64, u32)>,
    /// I.i.d. per-frame send-omission probability.
    pub send_omission: f64,
    /// I.i.d. per-frame receive-omission probability.
    pub recv_omission: f64,
    /// One slow sender: `(process, extra rounds of delay)`.
    pub slow_sender: Option<(u16, u64)>,
    /// Timed directional link cuts: `(from, to, from_round, to_round)`.
    pub cuts: Vec<(u16, u16, u64, u64)>,
    /// Targeted cuts around a coordinator handoff: `(subrun, member)`
    /// severs member→coordinator during the request round and
    /// coordinator→member during the decision round of that subrun.
    pub handoff_cuts: Vec<(u64, u16)>,
}

impl PlanSpec {
    /// A fault-free plan.
    pub fn none() -> PlanSpec {
        PlanSpec {
            crashes: Vec::new(),
            coordinator_crashes: None,
            send_omission: 0.0,
            recv_omission: 0.0,
            slow_sender: None,
            cuts: Vec::new(),
            handoff_cuts: Vec::new(),
        }
    }

    /// Realizes the genome as a [`FaultPlan`] for a group of `n`.
    pub fn to_fault_plan(&self, n: usize) -> FaultPlan {
        let mut plan = FaultPlan::none()
            .send_omissions(self.send_omission)
            .recv_omissions(self.recv_omission);
        for &(p, r) in &self.crashes {
            plan = plan.crash_at(ProcessId(p), Round(r));
        }
        if let Some((first_subrun, f)) = self.coordinator_crashes {
            plan = plan.consecutive_coordinator_crashes(first_subrun, f, n);
        }
        if let Some((p, extra)) = self.slow_sender {
            plan = plan.slow_sender(ProcessId(p), extra);
        }
        for &(from, to, from_round, to_round) in &self.cuts {
            plan = plan.cut_link_during(
                ProcessId(from),
                ProcessId(to),
                Round(from_round),
                Round(to_round),
            );
        }
        for &(s, member) in &self.handoff_cuts {
            let subrun = Subrun(s);
            let coord = ProcessId::coordinator_for(subrun, n);
            let member = ProcessId(member);
            if member == coord {
                continue;
            }
            // Inbound contribution lost in the request round, outbound
            // decision lost in the decision round: the handoff shapes the
            // detection/recovery machinery has to ride out.
            plan = plan
                .cut_link_during(
                    member,
                    coord,
                    subrun.request_round(),
                    subrun.decision_round(),
                )
                .cut_link_during(
                    coord,
                    member,
                    subrun.decision_round(),
                    Round(subrun.decision_round().0 + 1),
                );
        }
        plan
    }

    /// The round by which every *scheduled* loss of this genome is over
    /// and the last frame it held back has landed: the end of the latest
    /// cut or handoff cut, plus the slow sender's extra latency. (Random
    /// omissions and schedule drops have no schedule; the protocol's own
    /// retries cover them.)
    pub fn spent_by(&self) -> u64 {
        let cuts = self.cuts.iter().map(|&(_, _, _, to_round)| to_round);
        let handoffs = self
            .handoff_cuts
            .iter()
            .map(|&(s, _)| Subrun(s).decision_round().0 + 1);
        let slow = self.slow_sender.map_or(0, |(_, extra)| extra);
        cuts.chain(handoffs).max().map_or(0, |end| end + slow + 1)
    }

    /// Number of distinct processes this genome crashes.
    pub fn crashed_processes(&self, n: usize) -> usize {
        self.to_fault_plan(n).crash_count()
    }
}

/// Overlay-dissemination genome: when present, every process routes its
/// `data`/`decision` broadcasts over the shared overlay instead of direct
/// n-unicast (see [`urcgc_overlay`]), so the oracles run against multi-hop
/// relay semantics — relay crashes, re-parenting, recovery through the
/// gap.
#[derive(Clone, Debug, PartialEq)]
pub struct OverlaySpec {
    /// Dissemination strategy.
    pub mode: OverlayMode,
    /// Fan-out bound (tree arity / gossip targets).
    pub degree: usize,
    /// Overlay permutation seed (group-shared, like the protocol config).
    pub seed: u64,
    /// Runs the deliberately-broken relay that delivers decision frames
    /// locally but never forwards them (oracle self-test; see
    /// `OverlayConfig::with_drop_decision_forwards`).
    pub drop_decisions: bool,
}

impl OverlaySpec {
    /// Realizes the genome as an [`OverlayConfig`].
    pub fn to_config(&self) -> OverlayConfig {
        let cfg = match self.mode {
            OverlayMode::Tree => OverlayConfig::tree(self.degree, self.seed),
            OverlayMode::Gossip => OverlayConfig::gossip(self.degree, self.seed),
        };
        if self.drop_decisions {
            cfg.with_drop_decision_forwards()
        } else {
            cfg
        }
    }
}

/// Schedule-perturbation genome, realized as a
/// [`ScheduleAdversary`](crate::sched::ScheduleAdversary).
#[derive(Clone, Debug, PartialEq)]
pub struct SchedSpec {
    /// Seed of the adversary's own RNG (never the engine's).
    pub seed: u64,
    /// Per-round probability (‰) of shuffling the arrival order.
    pub shuffle_permille: u32,
    /// Per-frame probability (‰) of a targeted drop.
    pub drop_permille: u32,
    /// Hard cap on total drops (keeps the run in-model: a bounded number
    /// of extra omissions, not a permanent link failure).
    pub max_drops: u32,
}

impl SchedSpec {
    /// The identity perturbation.
    pub fn none() -> SchedSpec {
        SchedSpec {
            seed: 0,
            shuffle_permille: 0,
            drop_permille: 0,
            max_drops: 0,
        }
    }

    /// Whether this genome perturbs anything at all.
    pub fn is_noop(&self) -> bool {
        self.shuffle_permille == 0 && (self.drop_permille == 0 || self.max_drops == 0)
    }
}

/// Everything needed to replay one adversarial run.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckSpec {
    /// Engine/workload seed (drives the fault RNG and per-node workload
    /// RNGs exactly as in every other harness run).
    pub seed: u64,
    /// Group cardinality.
    pub n: usize,
    /// Per-process message budget.
    pub msgs: u64,
    /// Runs the deliberately-broken purge-before-stability protocol
    /// variant (oracle self-test; see
    /// `ProtocolConfig::with_broken_purge_before_stability`).
    pub broken_purge: bool,
    /// Overlay-dissemination genome (`None` = the paper's direct
    /// n-unicast).
    pub overlay: Option<OverlaySpec>,
    /// Fault-plan genome.
    pub plan: PlanSpec,
    /// Schedule-perturbation genome.
    pub sched: SchedSpec,
}

impl CheckSpec {
    /// Samples a spec from `seed`. All draws come from one ChaCha8 stream,
    /// so the spec is a pure function of `(seed, n, max_msgs,
    /// broken_purge)`.
    pub fn generate(seed: u64, n: usize, max_msgs: u64, broken_purge: bool) -> CheckSpec {
        assert!(n >= 2, "checker needs a group of at least 2");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0DE_C0DE_C0DE_C0DE);
        let msgs = rng.gen_range(2..max_msgs.max(3));
        let horizon = msgs * 2 + 24; // rounds within which faults land

        let resilience = (n - 1) / 2;
        let mut plan = PlanSpec::none();
        // Either a coordinator-crash burst or individual crashes — mixing
        // the two could exceed the resilience bound when a burst coincides
        // with an individually-crashed process.
        if resilience > 0 && rng.gen_bool(0.25) {
            let f = rng.gen_range(1..resilience.min(2) as u32 + 1);
            plan.coordinator_crashes = Some((rng.gen_range(0..6), f));
        } else if resilience > 0 {
            let count = rng.gen_range(0..resilience + 1);
            let mut victims: Vec<u16> = (0..n as u16).collect();
            for _ in 0..count {
                let at = rng.gen_range(0..victims.len());
                let victim = victims.swap_remove(at);
                plan.crashes.push((victim, rng.gen_range(2..horizon)));
            }
        }
        if rng.gen_bool(0.5) {
            plan.send_omission = rng.gen_range(0.0..0.02);
        }
        if rng.gen_bool(0.5) {
            plan.recv_omission = rng.gen_range(0.0..0.02);
        }
        if rng.gen_bool(1.0 / 3.0) {
            plan.slow_sender = Some((rng.gen_range(0..n as u16), rng.gen_range(1..3)));
        }
        for _ in 0..rng.gen_range(0..3usize) {
            let from = rng.gen_range(0..n as u16);
            let to = rng.gen_range(0..n as u16);
            if from == to {
                continue;
            }
            let start = rng.gen_range(0..horizon);
            plan.cuts
                .push((from, to, start, start + rng.gen_range(1..8)));
        }
        for _ in 0..rng.gen_range(0..3usize) {
            plan.handoff_cuts
                .push((rng.gen_range(0..8), rng.gen_range(0..n as u16)));
        }

        let sched = SchedSpec {
            seed: rng.gen(),
            shuffle_permille: rng.gen_range(0..1001),
            drop_permille: if rng.gen_bool(0.5) {
                rng.gen_range(1..40)
            } else {
                0
            },
            max_drops: rng.gen_range(0..7),
        };

        CheckSpec {
            seed,
            n,
            msgs,
            broken_purge,
            overlay: None,
            plan,
            sched,
        }
    }

    /// Samples an overlay spec from `seed`: the [`CheckSpec::generate`]
    /// genome plus overlay parameters, with the crash machinery re-aimed
    /// at the overlay's weak point — an interior (relay) node of a sampled
    /// origin's tree — so most runs exercise re-parenting and recovery
    /// through the dissemination gap, not just leaf crashes. A pure
    /// function of `(seed, n, max_msgs, broken_relay)`.
    pub fn generate_overlay(seed: u64, n: usize, max_msgs: u64, broken_relay: bool) -> CheckSpec {
        let mut spec = CheckSpec::generate(seed, n, max_msgs, false);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0E71_0E71_0E71_0E71);
        let overlay = OverlaySpec {
            mode: if rng.gen_bool(0.75) {
                OverlayMode::Tree
            } else {
                OverlayMode::Gossip
            },
            degree: rng.gen_range(2..4).min(n.saturating_sub(1)).max(1),
            seed: rng.gen(),
            drop_decisions: broken_relay,
        };
        if broken_relay {
            // The decision-dropping relay is caught by the membership
            // oracle, which is only sound when nothing else can cost a
            // process its decisions: strip every loss fault (crashes stay —
            // the oracle accounts for them) so any ejection indicts the
            // relay.
            spec.strip_loss_faults();
        }
        let resilience = (n - 1) / 2;
        if spec.plan.coordinator_crashes.is_none() && resilience > 0 {
            // Find the relays (interior nodes) of a sampled origin's tree
            // from the same deterministic plan every process will compute,
            // and make sure one of them crashes — displacing a sampled
            // leaf crash if the resilience budget is already spent.
            let probe = Plan::build(overlay.to_config(), &vec![true; n]);
            let origin = ProcessId(rng.gen_range(0..n as u16));
            let relays: Vec<u16> = (0..n as u16)
                .filter(|&p| p != origin.0 && !probe.fanout(origin, 0, ProcessId(p)).is_empty())
                .collect();
            if !relays.is_empty() {
                let relay = relays[rng.gen_range(0..relays.len())];
                let round = rng.gen_range(2..spec.msgs * 2 + 24);
                spec.plan.crashes.retain(|&(p, _)| p != relay);
                while spec.plan.crashes.len() >= resilience {
                    spec.plan.crashes.pop();
                }
                spec.plan.crashes.push((relay, round));
            }
        }
        spec.overlay = Some(overlay);
        spec
    }

    /// Removes every fault that loses frames (omissions, cuts, schedule
    /// drops), leaving crashes, slow senders and shuffles. The result
    /// satisfies [`CheckSpec::is_loss_free`], arming the membership
    /// oracle.
    pub fn strip_loss_faults(&mut self) {
        self.plan.send_omission = 0.0;
        self.plan.recv_omission = 0.0;
        self.plan.cuts.clear();
        self.plan.handoff_cuts.clear();
        self.sched.drop_permille = 0;
        self.sched.max_drops = 0;
    }

    /// Whether this genome can lose a frame some process needed: omission
    /// faults, link cuts, or targeted schedule drops. Loss-free specs arm
    /// the membership oracle (crashes do not count — a crashed process is
    /// an expected ejection, and the `K` sizing covers the relay gaps a
    /// crash opens).
    pub fn is_loss_free(&self) -> bool {
        self.plan.send_omission == 0.0
            && self.plan.recv_omission == 0.0
            && self.plan.cuts.is_empty()
            && self.plan.handoff_cuts.is_empty()
            && (self.sched.drop_permille == 0 || self.sched.max_drops == 0)
    }

    /// The protocol configuration this spec runs under: paper defaults
    /// with the `f` allowance sized to the sampled coordinator-crash
    /// burst (so `R > 2K + f` holds for the scenario by construction).
    pub fn config(&self) -> ProtocolConfig {
        let f = self
            .plan
            .coordinator_crashes
            .map(|(_, f)| f)
            .unwrap_or(1)
            .max(1);
        let cfg = ProtocolConfig::new(self.n).with_f_allowance(f);
        // Overlay runs size K up: until a crashed relay is declared failed
        // and the tree re-parents, downstream processes can miss several
        // consecutive decisions through no fault of their own
        // (PROTOCOL.md §8).
        let cfg = if self.overlay.is_some() {
            cfg.with_k(4)
        } else {
            cfg
        };
        if self.broken_purge {
            cfg.with_broken_purge_before_stability()
        } else {
            cfg
        }
    }

    /// Round budget: generous enough that the stall oracle only fires on
    /// genuine non-termination, not a slow-but-progressing run.
    pub fn max_rounds(&self) -> u64 {
        self.msgs * 40 + 4_000
    }

    /// Serializes the spec (the `spec` member of a `urcgc-repro/1`
    /// document). Seeds render as decimal strings — u64 does not round
    /// through f64.
    pub fn to_json(&self) -> Json {
        let crashes: Vec<Json> = self
            .plan
            .crashes
            .iter()
            .map(|&(p, r)| Json::obj().with("process", u64::from(p)).with("round", r))
            .collect();
        let cuts: Vec<Json> = self
            .plan
            .cuts
            .iter()
            .map(|&(from, to, a, b)| {
                Json::obj()
                    .with("from", u64::from(from))
                    .with("to", u64::from(to))
                    .with("from_round", a)
                    .with("to_round", b)
            })
            .collect();
        let handoffs: Vec<Json> = self
            .plan
            .handoff_cuts
            .iter()
            .map(|&(s, m)| Json::obj().with("subrun", s).with("member", u64::from(m)))
            .collect();
        let mut plan = Json::obj()
            .with("crashes", Json::Arr(crashes))
            .with("send_omission", self.plan.send_omission)
            .with("recv_omission", self.plan.recv_omission)
            .with("cuts", Json::Arr(cuts))
            .with("handoff_cuts", Json::Arr(handoffs));
        match self.plan.coordinator_crashes {
            Some((s, f)) => plan.set(
                "coordinator_crashes",
                Json::obj().with("first_subrun", s).with("f", f),
            ),
            None => plan.set("coordinator_crashes", Json::Null),
        }
        match self.plan.slow_sender {
            Some((p, extra)) => plan.set(
                "slow_sender",
                Json::obj()
                    .with("process", u64::from(p))
                    .with("extra_rounds", extra),
            ),
            None => plan.set("slow_sender", Json::Null),
        }
        let overlay = match &self.overlay {
            Some(ov) => Json::obj()
                .with("mode", ov.mode.label())
                .with("degree", ov.degree)
                .with("seed", ov.seed.to_string())
                .with("drop_decisions", ov.drop_decisions),
            None => Json::Null,
        };
        Json::obj()
            .with("seed", self.seed.to_string())
            .with("n", self.n)
            .with("msgs", self.msgs)
            .with("broken_purge", self.broken_purge)
            .with("overlay", overlay)
            .with("plan", plan)
            .with(
                "sched",
                Json::obj()
                    .with("seed", self.sched.seed.to_string())
                    .with("shuffle_permille", self.sched.shuffle_permille)
                    .with("drop_permille", self.sched.drop_permille)
                    .with("max_drops", self.sched.max_drops),
            )
    }

    /// Parses a spec previously produced by [`CheckSpec::to_json`].
    pub fn from_json(doc: &Json) -> Result<CheckSpec, String> {
        let plan_doc = doc.get("plan").ok_or("spec missing \"plan\"")?;
        let sched_doc = doc.get("sched").ok_or("spec missing \"sched\"")?;
        let mut plan = PlanSpec::none();
        for c in req_items(plan_doc, "crashes")? {
            plan.crashes
                .push((num(c, "process")? as u16, num(c, "round")? as u64));
        }
        plan.send_omission = num(plan_doc, "send_omission")?;
        plan.recv_omission = num(plan_doc, "recv_omission")?;
        for c in req_items(plan_doc, "cuts")? {
            plan.cuts.push((
                num(c, "from")? as u16,
                num(c, "to")? as u16,
                num(c, "from_round")? as u64,
                num(c, "to_round")? as u64,
            ));
        }
        for c in req_items(plan_doc, "handoff_cuts")? {
            plan.handoff_cuts
                .push((num(c, "subrun")? as u64, num(c, "member")? as u16));
        }
        if let Some(cc) = plan_doc.get("coordinator_crashes") {
            if *cc != Json::Null {
                plan.coordinator_crashes =
                    Some((num(cc, "first_subrun")? as u64, num(cc, "f")? as u32));
            }
        }
        if let Some(ss) = plan_doc.get("slow_sender") {
            if *ss != Json::Null {
                plan.slow_sender =
                    Some((num(ss, "process")? as u16, num(ss, "extra_rounds")? as u64));
            }
        }
        // Absent or Null = direct unicast: repro files predating the
        // overlay dimension keep parsing.
        let overlay = match doc.get("overlay") {
            None | Some(Json::Null) => None,
            Some(ov) => {
                let label = ov
                    .get("mode")
                    .and_then(Json::as_str)
                    .ok_or("overlay missing \"mode\"")?;
                Some(OverlaySpec {
                    mode: OverlayMode::from_label(label)
                        .ok_or_else(|| format!("unknown overlay mode {label:?}"))?,
                    degree: num(ov, "degree")? as usize,
                    seed: seed_str(ov, "seed")?,
                    drop_decisions: matches!(ov.get("drop_decisions"), Some(Json::Bool(true))),
                })
            }
        };
        Ok(CheckSpec {
            seed: seed_str(doc, "seed")?,
            n: num(doc, "n")? as usize,
            msgs: num(doc, "msgs")? as u64,
            broken_purge: matches!(doc.get("broken_purge"), Some(Json::Bool(true))),
            overlay,
            plan,
            sched: SchedSpec {
                seed: seed_str(sched_doc, "seed")?,
                shuffle_permille: num(sched_doc, "shuffle_permille")? as u32,
                drop_permille: num(sched_doc, "drop_permille")? as u32,
                max_drops: num(sched_doc, "max_drops")? as u32,
            },
        })
    }
}

fn num(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn seed_str(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing seed string {key:?}"))?
        .parse()
        .map_err(|e| format!("bad seed {key:?}: {e}"))
}

fn req_items<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::items)
        .ok_or_else(|| format!("missing array field {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_in_model() {
        for seed in 0..200u64 {
            for n in [3usize, 5] {
                let a = CheckSpec::generate(seed, n, 12, false);
                let b = CheckSpec::generate(seed, n, 12, false);
                assert_eq!(a, b, "seed {seed} n {n}");
                a.config().validate().expect("generated config is valid");
                assert!(
                    a.plan.crashed_processes(n) <= (n - 1) / 2,
                    "seed {seed} n {n}: crashes exceed the resilience bound"
                );
                assert!((2..12).contains(&a.msgs));
            }
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        for seed in [0u64, 7, 42, u64::MAX - 3] {
            let spec = CheckSpec::generate(seed, 5, 10, seed % 2 == 0);
            let doc = spec.to_json();
            let parsed = urcgc_metrics::json::parse(&doc.render_pretty()).expect("parses");
            assert_eq!(CheckSpec::from_json(&parsed).expect("decodes"), spec);
        }
    }

    #[test]
    fn overlay_generation_is_deterministic_and_in_model() {
        for seed in 0..100u64 {
            for n in [5usize, 7] {
                let a = CheckSpec::generate_overlay(seed, n, 12, false);
                let b = CheckSpec::generate_overlay(seed, n, 12, false);
                assert_eq!(a, b, "seed {seed} n {n}");
                a.config().validate().expect("generated config is valid");
                assert!(
                    a.plan.crashed_processes(n) <= (n - 1) / 2,
                    "seed {seed} n {n}: crashes exceed the resilience bound"
                );
                let ov = a.overlay.as_ref().expect("overlay genome present");
                assert!(!ov.drop_decisions);
                assert!((1..n).contains(&ov.degree));
                // The crash machinery is re-aimed at the overlay: unless a
                // coordinator burst claimed the whole resilience budget,
                // some individual crash lands on a relay node.
                assert!(
                    a.plan.coordinator_crashes.is_some() || !a.plan.crashes.is_empty(),
                    "seed {seed} n {n}: no crash targets the overlay"
                );
            }
        }
    }

    #[test]
    fn overlay_specs_round_trip_through_json() {
        for seed in [1u64, 9, 42, 77] {
            let spec = CheckSpec::generate_overlay(seed, 5, 10, seed % 2 == 0);
            let doc = spec.to_json();
            let parsed = urcgc_metrics::json::parse(&doc.render_pretty()).expect("parses");
            assert_eq!(CheckSpec::from_json(&parsed).expect("decodes"), spec);
        }
        // Pre-overlay repro documents (overlay key null or missing) still
        // parse, as the direct-unicast spec they always meant.
        let direct = CheckSpec::generate(3, 5, 8, false);
        let doc = direct.to_json();
        let parsed = urcgc_metrics::json::parse(&doc.render_pretty()).expect("parses");
        let decoded = CheckSpec::from_json(&parsed).expect("decodes");
        assert_eq!(decoded.overlay, None);
        assert_eq!(decoded, direct);
    }

    #[test]
    fn handoff_cuts_target_the_coordinator() {
        let mut spec = CheckSpec::generate(3, 5, 8, false);
        spec.plan = PlanSpec::none();
        spec.plan.handoff_cuts = vec![(2, 0)];
        // Subrun 2's coordinator in n=5 is p2; the member side is p0.
        let plan = spec.plan.to_fault_plan(5);
        assert!(plan.link_cut_at(ProcessId(0), ProcessId(2), Round(4)));
        assert!(plan.link_cut_at(ProcessId(2), ProcessId(0), Round(5)));
        assert!(!plan.link_cut_at(ProcessId(0), ProcessId(2), Round(5)));
        // A handoff cut naming the coordinator itself is skipped.
        spec.plan.handoff_cuts = vec![(2, 2)];
        let plan = spec.plan.to_fault_plan(5);
        assert!(!plan.link_cut_at(ProcessId(2), ProcessId(2), Round(4)));
    }
}
