//! Executes one [`CheckSpec`] and returns every oracle violation it
//! provokes.

use urcgc::sim::{GroupHarness, GroupReport, Workload};

use crate::oracle::{self, Violation};
use crate::sched::ScheduleAdversary;
use crate::spec::CheckSpec;

/// Payload size of checker-generated messages (value is irrelevant to the
/// properties; small keeps runs fast).
const PAYLOAD: usize = 16;

/// Outcome of one checked run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Every violation observed, mid-run stability breaches first.
    pub violations: Vec<Violation>,
    /// Rounds executed.
    pub rounds: u64,
    /// Whether the run quiesced.
    pub quiesced: bool,
    /// Messages generated group-wide.
    pub generated: u64,
}

impl RunResult {
    /// Whether any oracle fired.
    pub fn violated(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// Runs `h` until it settles (or `max_rounds`), checking the mid-run
/// stability oracle every round and the ordering and terminal oracles at
/// the end. Rounds up to `settle_after` never count as quiet: a scheduled
/// fault that is still in force can hide a gap from the very process that
/// has it, and quiescence declared then condemns a run the protocol goes
/// on to heal.
pub fn run_checked(
    h: &mut GroupHarness,
    max_rounds: u64,
    settle_after: u64,
) -> (Vec<Violation>, GroupReport) {
    let mut violations = Vec::new();
    let report = h.run_until(max_rounds, |net| {
        let round = net.round().0;
        if violations.is_empty() {
            violations.extend(oracle::check_stability(net, round));
        }
        round > settle_after && net.all_done()
    });
    violations.extend(oracle::check_ordering(h.net().nodes()));
    violations.extend(oracle::check_final(&report));
    (violations, report)
}

/// Runs `spec` to quiescence (or its round budget) under every oracle.
pub fn run_spec(spec: &CheckSpec) -> RunResult {
    let max_rounds = spec.max_rounds();
    let mut builder = GroupHarness::builder(spec.config())
        .workload(Workload::fixed_count(spec.msgs, PAYLOAD))
        .faults(spec.plan.to_fault_plan(spec.n))
        .seed(spec.seed)
        .max_rounds(max_rounds)
        .adversary(Box::new(ScheduleAdversary::new(&spec.sched)));
    if let Some(ov) = &spec.overlay {
        builder = builder.overlay(ov.to_config());
    }
    let mut h = builder.build();

    let (mut violations, report) = run_checked(&mut h, max_rounds, spec.plan.spent_by());
    if spec.is_loss_free() {
        violations.extend(oracle::check_membership(&h));
    }
    RunResult {
        violations,
        rounds: report.rounds,
        quiesced: report.quiesced,
        generated: report.generated_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_specs_pass_all_oracles() {
        for seed in 0..12u64 {
            let spec = CheckSpec::generate(seed, 5, 8, false);
            let result = run_spec(&spec);
            assert!(
                !result.violated(),
                "seed {seed}: {:?} (spec {spec:?})",
                result.violations
            );
            assert!(result.quiesced);
            assert!(result.generated > 0);
        }
    }

    #[test]
    fn clean_overlay_specs_pass_all_oracles() {
        for seed in 0..12u64 {
            let spec = CheckSpec::generate_overlay(seed, 5, 8, false);
            let result = run_spec(&spec);
            assert!(
                !result.violated(),
                "seed {seed}: {:?} (spec {spec:?})",
                result.violations
            );
            assert!(result.quiesced);
            assert!(result.generated > 0);
        }
    }

    #[test]
    fn loss_free_overlay_specs_keep_every_survivor_active() {
        // Soundness of the membership oracle: with a *working* relay, a
        // loss-free genome — relay crashes, slow senders and shuffles, but
        // nothing dropped — must never eject a process that did not crash,
        // even at the depth where the broken relay is caught (n=9).
        for seed in 0..20u64 {
            let mut spec = CheckSpec::generate_overlay(seed, 9, 10, false);
            spec.strip_loss_faults();
            assert!(spec.is_loss_free());
            let result = run_spec(&spec);
            assert!(
                !result.violated(),
                "seed {seed}: {:?} (spec {spec:?})",
                result.violations
            );
        }
    }

    #[test]
    fn broken_relay_variant_is_caught() {
        // The relay delivers decisions locally but never forwards them, so
        // processes deep in the tree only see a decision when they sit
        // within one hop of its coordinator. At n=9 the rotation leaves
        // some process decision-starved for more than K+f consecutive
        // subruns and it silently ejects itself — which the membership
        // oracle (armed because broken-relay genomes are loss-free)
        // condemns.
        let caught = (0..40u64).any(|seed| {
            let spec = CheckSpec::generate_overlay(seed, 9, 16, true);
            run_spec(&spec)
                .violations
                .iter()
                .any(|v| v.kind == crate::oracle::OracleKind::Membership)
        });
        assert!(
            caught,
            "40 adversarial runs never caught the decision-dropping relay"
        );
    }

    #[test]
    fn broken_purge_variant_is_caught() {
        let caught = (0..40u64).any(|seed| {
            let spec = CheckSpec::generate(seed, 5, 10, true);
            run_spec(&spec)
                .violations
                .iter()
                .any(|v| v.kind == crate::oracle::OracleKind::StabilitySafety)
        });
        assert!(
            caught,
            "40 adversarial runs never caught the purge-before-stability bug"
        );
    }
}
