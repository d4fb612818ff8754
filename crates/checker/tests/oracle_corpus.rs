//! Oracle false-positive corpus: every property oracle runs over the
//! scenarios the repo's existing suites already certify as correct —
//! the `tests/failure_scenarios.rs` fault plans (minus the deliberate
//! out-of-model split-brain scenario), soak-grid-shaped cells, and clean
//! baseline-comparison runs — and must stay silent on all of them. An
//! oracle that fires here is unsound and would poison every checker
//! verdict, so this corpus gates oracle changes in CI.

use urcgc::sim::{GroupHarness, Workload};
use urcgc_bench::soak::{baseline_soak_faults, soak_faults};
use urcgc_check::oracle::Violation;
use urcgc_simnet::FaultPlan;
use urcgc_types::{ProcessId, ProtocolConfig, Round, Subrun};

/// Runs one (config, plan) scenario to quiescence through the checker's
/// own loop — per-round stability oracle, terminal oracles at the end —
/// and returns everything that fired.
fn oracle_violations(
    cfg: ProtocolConfig,
    faults: FaultPlan,
    msgs: u64,
    seed: u64,
    max_rounds: u64,
) -> Vec<Violation> {
    let mut h = GroupHarness::builder(cfg)
        .workload(Workload::fixed_count(msgs, 8))
        .faults(faults)
        .seed(seed)
        .max_rounds(max_rounds)
        .build();
    urcgc_check::run::run_checked(&mut h, max_rounds, 0).0
}

fn assert_clean(name: &str, violations: Vec<Violation>) {
    assert!(
        violations.is_empty(),
        "oracle false positive on known-good scenario {name:?}: {violations:?}"
    );
}

/// Clean baseline-comparison runs: no faults at all, several group sizes
/// and seeds. The cheapest possible soundness floor.
#[test]
fn clean_baseline_runs_pass_every_oracle() {
    for &(n, msgs, seed) in &[(3usize, 8u64, 1u64), (5, 8, 2), (7, 6, 3)] {
        let violations =
            oracle_violations(ProtocolConfig::new(n), FaultPlan::none(), msgs, seed, 4_000);
        assert_clean(&format!("clean n={n} seed={seed}"), violations);
    }
}

/// The harness-driven `tests/failure_scenarios.rs` plans, replayed under
/// the oracles. The long-minority-partition scenario is deliberately
/// absent: split-brain is the documented out-of-model behaviour (the
/// paper's resilience bound excludes partitions longer than the miss
/// budget), and the divergence oracle is *supposed* to reject it.
#[test]
fn failure_scenario_plans_pass_every_oracle() {
    // Crash detection: one member crashes entering subrun 2 (n=6, K=2).
    assert_clean(
        "crash_detection",
        oracle_violations(
            ProtocolConfig::new(6).with_k(2),
            FaultPlan::none().crash_at(ProcessId(4), Subrun(2).request_round()),
            6,
            3,
            2_000,
        ),
    );

    // Suicide: p4's outgoing links all cut — declared crashed, hears the
    // verdict, suicides; survivors keep atomicity (n=5, K=2, seed 8).
    let mut suicide = FaultPlan::none();
    for i in 0..4u16 {
        suicide = suicide.cut_link(ProcessId(4), ProcessId(i));
    }
    assert_clean(
        "suicide_after_send_mute",
        oracle_violations(ProtocolConfig::new(5).with_k(2), suicide, 5, 8, 2_000),
    );

    // Autonomous leave: p5 fully isolated both ways (n=6, K=2, f=1).
    let mut isolated = FaultPlan::none();
    for i in 0..5u16 {
        isolated = isolated
            .cut_link(ProcessId(5), ProcessId(i))
            .cut_link(ProcessId(i), ProcessId(5));
    }
    assert_clean(
        "isolated_process_leaves",
        oracle_violations(
            ProtocolConfig::new(6).with_k(2).with_f_allowance(1),
            isolated,
            4,
            21,
            2_000,
        ),
    );

    // Detection-latency cells: victim crash plus f consecutive
    // coordinator crashes at n=11, the Figure-5 sweep's shape.
    for &(k, f) in &[(1u32, 0u32), (2, 2), (3, 3)] {
        let n = 11;
        let first_crash_subrun = 2u64;
        let faults = FaultPlan::none()
            .crash_at(
                ProcessId::from_index(n - 1),
                Subrun(first_crash_subrun).request_round(),
            )
            .consecutive_coordinator_crashes(first_crash_subrun, f, n);
        assert_clean(
            &format!("detection_latency K={k} f={f}"),
            oracle_violations(
                ProtocolConfig::new(n).with_k(k).with_f_allowance(f.max(1)),
                faults,
                4,
                1000 + (k * 10 + f) as u64,
                4_000,
            ),
        );
    }

    // Short healing partition: 2 subruns of partition inside the K+f
    // miss budget — ridden out without casualties (n=7, K=3, seed 45).
    let minority = [ProcessId(5), ProcessId(6)];
    assert_clean(
        "short_partition_heals",
        oracle_violations(
            ProtocolConfig::new(7).with_k(3).with_f_allowance(2),
            FaultPlan::none().partition_during(&minority, 7, Round(6), Round(10)),
            8,
            45,
            4_000,
        ),
    );

    // Straggler sweep: a 2-round-slow sender either suicides (K=1) or is
    // absorbed (K=3); both ends are legal protocol behaviour.
    for k in [1u32, 3] {
        assert_clean(
            &format!("straggler K={k}"),
            oracle_violations(
                ProtocolConfig::new(5).with_k(k),
                FaultPlan::none().slow_sender(ProcessId(4), 2),
                8,
                71,
                8_000,
            ),
        );
    }
}

/// Soak-grid-shaped cells, scaled to test budgets: the soak workload's
/// fault plan (slow sender plus a late crash) and the baselines' plan
/// (slow sender only) on the protocol under check.
#[test]
fn soak_shaped_cells_pass_every_oracle() {
    for &(n, msgs, seed) in &[(10usize, 40u64, 7u64), (10, 80, 8), (6, 60, 9)] {
        assert_clean(
            &format!("soak cell n={n} msgs={msgs}"),
            oracle_violations(
                ProtocolConfig::new(n),
                soak_faults(n, msgs),
                msgs,
                seed,
                msgs * 8 + 4_000,
            ),
        );
        assert_clean(
            &format!("baseline cell n={n} msgs={msgs}"),
            oracle_violations(
                ProtocolConfig::new(n),
                baseline_soak_faults(),
                msgs,
                seed,
                msgs * 8 + 4_000,
            ),
        );
    }
}
