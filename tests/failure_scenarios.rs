//! Scripted failure drills exercising each failure-handling mechanism of
//! Section 4 end to end: crash detection via `attempts`, coordinator-crash
//! deferral, suicide, autonomous leave, orphan-sequence destruction, and
//! the detection-latency bounds.

use bytes::Bytes;
use urcgc_repro::simnet::FaultPlan;
use urcgc_repro::types::{
    Decision, MaxProcessed, Mid, Pdu, ProcessId, ProtocolConfig, Round, Subrun,
};
use urcgc_repro::urcgc::sim::{GroupHarness, Workload};
use urcgc_repro::urcgc::{Engine, Output, ProcessStatus};

/// The group detects a crashed member within K+1 subruns of live
/// coordinators and removes it from every survivor's view.
#[test]
fn crash_detection_within_k_subruns() {
    let n = 6;
    let k = 2;
    let crash_round = Subrun(2).request_round(); // p? crashes entering subrun 2
    let victim = ProcessId(4);
    let cfg = ProtocolConfig::new(n).with_k(k);
    let mut h = GroupHarness::builder(cfg)
        .workload(Workload::fixed_count(6, 8))
        .faults(FaultPlan::none().crash_at(victim, crash_round))
        .seed(3)
        .build();

    let mut detected_subrun = None;
    for _ in 0..60 {
        h.step();
        let d = h.net().node(ProcessId(0)).engine().last_decision();
        if !d.process_state[victim.index()] {
            detected_subrun = Some(d.subrun);
            break;
        }
    }
    let detected = detected_subrun.expect("crash never detected");
    // The victim misses coordinators starting at subrun 2; K misses are
    // accumulated by the coordinators of subruns 2 and 3, so the decision
    // of subrun 3 declares it (≤ 2K + f bound with slack).
    assert!(
        detected.0 >= 3 && detected.0 <= 2 + 2 * k as u64,
        "detected at subrun {} (expected within [3, {}])",
        detected.0,
        2 + 2 * k as u64
    );
    // All survivors converge on the same view.
    h.run_rounds(8);
    for i in 0..n {
        let p = ProcessId::from_index(i);
        if p == victim {
            continue;
        }
        assert!(
            !h.net().node(p).engine().view().is_alive(victim),
            "{p} still believes {victim} alive"
        );
    }
}

/// A transiently silent process (send omissions only) is *not* declared
/// crashed as long as it recovers within K subruns.
#[test]
fn transient_silence_below_k_is_forgiven() {
    // Cut p3's outgoing links for a window shorter than K subruns by
    // using pure receive-side omissions at the coordinator — here we
    // emulate with a short total-send-omission window via crash-free plan:
    // simplest check is at the decision level using engines directly.
    let n = 4;
    let k = 3;
    let mut prev = Decision::genesis(n);
    // Subruns 1 and 2: p3 silent (attempts 1, 2 < K).
    for s in 1..=2u64 {
        let mut m = urcgc_repro::history::StabilityMatrix::new(n);
        for i in 0..3u16 {
            m.record(ProcessId(i), vec![0; n], vec![0; n], &prev);
        }
        prev = m.compute(Subrun(s), ProcessId(0), k, &prev);
        assert!(prev.process_state[3], "declared dead too early at s{s}");
    }
    // Subrun 3: p3 speaks again; counter resets.
    let mut m = urcgc_repro::history::StabilityMatrix::new(n);
    for i in 0..4u16 {
        m.record(ProcessId(i), vec![0; n], vec![0; n], &prev);
    }
    prev = m.compute(Subrun(3), ProcessId(0), k, &prev);
    assert_eq!(prev.attempts[3], 0);
    assert!(prev.process_state[3]);
}

/// An alive process that learns the group declared it dead commits
/// suicide — and the survivors keep satisfying atomicity.
#[test]
fn suicide_after_partition_heals_uniformly() {
    let n = 5;
    let k = 2;
    // p4's *outgoing* links are all cut: the group can't hear it (it will
    // be declared crashed), but it still hears the group (it must suicide
    // when the verdict arrives).
    let mut faults = FaultPlan::none();
    for i in 0..4u16 {
        faults = faults.cut_link(ProcessId(4), ProcessId(i));
    }
    let cfg = ProtocolConfig::new(n).with_k(k);
    let mut h = GroupHarness::builder(cfg)
        .workload(Workload::fixed_count(5, 8))
        .faults(faults)
        .seed(8)
        .build();
    let report = h.run_to_completion(2_000);
    assert_eq!(
        report.statuses[4],
        ProcessStatus::Suicided,
        "send-muted process must commit suicide, got {:?}",
        report.statuses[4]
    );
    assert!(report.statuses[..4].iter().all(|s| s.is_active()));
    assert!(report.atomicity_holds());
    assert!(report.frontiers_agree());
}

/// A fully isolated process (all links cut both ways) leaves the group on
/// its own after exhausting the miss budget.
#[test]
fn isolated_process_leaves_autonomously() {
    let n = 6;
    let k = 2;
    let mut faults = FaultPlan::none();
    for i in 0..5u16 {
        faults = faults
            .cut_link(ProcessId(5), ProcessId(i))
            .cut_link(ProcessId(i), ProcessId(5));
    }
    let cfg = ProtocolConfig::new(n).with_k(k).with_f_allowance(1);
    let mut h = GroupHarness::builder(cfg)
        .workload(Workload::fixed_count(4, 8))
        .faults(faults)
        .seed(21)
        .build();
    let report = h.run_to_completion(2_000);
    // The isolated member either leaves (missed decisions) — or, if its
    // own coordinator turns keep it nominally alive, it eventually
    // declares everyone else crashed and becomes a group of one; with
    // n = 6 > budget+1 it must leave before its turn recurs.
    assert_eq!(report.statuses[5], ProcessStatus::Left);
    assert!(report.statuses[..5].iter().all(|s| s.is_active()));
    assert!(report.frontiers_agree());
}

/// Orphan-sequence destruction end to end: the only holders of a message
/// crash; the survivors agree to destroy the dependents and keep going.
#[test]
fn orphan_sequence_destroyed_group_wide() {
    // Hand-built scenario on raw engines for precise control:
    // p0 generates m1, m2; ONLY p0 ever processes m2 (its broadcast to the
    // others is lost); p1 and p2 received m3 (depending on m2) directly.
    // p0 then crashes: m3 is orphaned and must be destroyed everywhere.
    let n = 3;
    let cfg = ProtocolConfig::new(n).with_k(1);
    let mut e1 = Engine::new(ProcessId(1), cfg.clone());
    let mut e2 = Engine::new(ProcessId(2), cfg);

    let m1 = Mid::new(ProcessId(0), 1);
    let m2 = Mid::new(ProcessId(0), 2);
    let m3 = Mid::new(ProcessId(0), 3);
    let data = |mid: Mid, deps: Vec<Mid>| {
        Pdu::data(urcgc_repro::types::DataMsg {
            mid,
            deps,
            round: Round(0),
            payload: Bytes::from_static(b"x"),
        })
    };
    // Both survivors got m1 and m3, never m2.
    for e in [&mut e1, &mut e2] {
        e.on_pdu(ProcessId(0), data(m1, vec![]));
        e.on_pdu(ProcessId(0), data(m3, vec![m2]));
        assert_eq!(e.gauges().waiting_len, 1);
        assert!(e.has_processed(m1));
    }
    // The coordinator's full-group decision after p0's crash: best alive
    // holder of origin 0 has seq 1, min_waiting 3 ⇒ unrecoverable gap at 2.
    let mut d = Decision::genesis(n);
    d.subrun = Subrun(4);
    d.full_group = true;
    d.process_state[0] = false;
    d.max_processed[0] = MaxProcessed {
        holder: ProcessId(1),
        seq: 1,
    };
    d.min_waiting[0] = 3;
    for e in [&mut e1, &mut e2] {
        e.on_pdu(ProcessId(1), Pdu::decision(d.clone()));
        assert_eq!(e.gauges().waiting_len, 0, "{} kept the orphan", e.me());
        let mut discarded = Vec::new();
        while let Some(o) = e.poll_output() {
            if let Output::Discarded { mids } = o {
                discarded = mids;
            }
        }
        assert_eq!(discarded, vec![m3], "{} discarded {discarded:?}", e.me());
        assert!(!e.has_processed(m3));
    }
}

/// Figure-5 style sweep: detection latency stays within 2K + f for every
/// (K, f) combination the resilience bound allows.
#[test]
fn detection_latency_bound_holds_across_k_and_f() {
    for k in [1u32, 2, 3] {
        for f in [0u32, 1, 2, 3] {
            let t = urcgc_bench_helpers::measure(11, k, f, 1000 + (k * 10 + f) as u64);
            let bound = (2 * k + f) as u64;
            assert!(
                t.is_some_and(|t| t <= bound + 1),
                "K={k} f={f}: T={t:?} exceeds 2K+f={bound}"
            );
        }
    }
}

/// Thin wrapper so the integration test does not depend on the bench crate.
mod urcgc_bench_helpers {
    use super::*;

    pub fn measure(n: usize, k: u32, f: u32, seed: u64) -> Option<u64> {
        let first_crash_subrun: u64 = 2;
        let cfg = ProtocolConfig::new(n).with_k(k).with_f_allowance(f.max(1));
        let victim = ProcessId::from_index(n - 1);
        let faults = FaultPlan::none()
            .crash_at(victim, Subrun(first_crash_subrun).request_round())
            .consecutive_coordinator_crashes(first_crash_subrun, f, n);
        let mut crashed: Vec<ProcessId> = (0..f as u64)
            .map(|i| ProcessId::coordinator_for(Subrun(first_crash_subrun + i), n))
            .collect();
        crashed.push(victim);
        let observer = ProcessId::from_index(
            (0..n)
                .find(|&i| !crashed.contains(&ProcessId::from_index(i)))
                .unwrap(),
        );
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(4, 8))
            .faults(faults)
            .seed(seed)
            .build();
        for _ in 0..400 {
            h.step();
            let d = h.net().node(observer).engine().last_decision();
            if d.full_group
                && d.subrun.0 >= first_crash_subrun
                && crashed.iter().all(|c| !d.process_state[c.index()])
            {
                return Some(d.subrun.0 - first_crash_subrun + 1);
            }
        }
        None
    }
}

/// Partition behaviour, long window: while a minority is cut off for
/// longer than the miss budget, *each side* declares the other crashed and
/// continues as an independent group — split-brain. The paper's algorithm
/// has no quorum mechanism; its resilience assumption (`t = (n−1)/2`
/// failures **per subrun**) excludes partitions, so this is the documented
/// out-of-model behaviour, not a bug: each side remains internally
/// consistent (DESIGN.md, "Limitations").
#[test]
fn long_minority_partition_produces_consistent_split_brain() {
    let n = 7;
    let k = 2;
    let minority = [ProcessId(5), ProcessId(6)];
    // 10 subruns of partition — far beyond the K + f = 4 miss budget.
    let faults = FaultPlan::none().partition_during(&minority, n, Round(6), Round(26));
    let cfg = ProtocolConfig::new(n).with_k(k).with_f_allowance(2);
    let mut h = GroupHarness::builder(cfg)
        .workload(Workload::fixed_count(8, 8))
        .faults(faults)
        .seed(44)
        .build();
    let report = h.run_to_completion(4_000);

    // The majority declared the minority crashed…
    let d_major = h.net().node(ProcessId(0)).engine().last_decision();
    assert!(!d_major.process_state[5] && !d_major.process_state[6]);
    // …and, symmetrically, the minority formed its own 2-member group in
    // which the majority is dead (split-brain).
    let d_minor = h.net().node(ProcessId(5)).engine().last_decision();
    assert!(
        (0..5).all(|i| !d_minor.process_state[i]),
        "minority view: {:?}",
        d_minor.process_state
    );
    // Both sides stay *internally* consistent: identical frontiers within
    // each side.
    let fr = &report.last_processed;
    assert!(
        fr[..5].windows(2).all(|w| w[0] == w[1]),
        "majority diverged"
    );
    assert_eq!(fr[5], fr[6], "minority diverged");
    assert!(report.statuses.iter().all(|s| s.is_active()));
}

/// Partition behaviour, short window: a partition that heals *within* the
/// miss budget is ridden out like any other transient omission — nobody is
/// expelled and the group fully reconverges.
#[test]
fn short_partition_heals_without_casualties() {
    let n = 7;
    let k = 3; // miss budget K + f = 5 subruns
    let minority = [ProcessId(5), ProcessId(6)];
    // 2 subruns of partition (rounds 6..10) — inside the budget.
    let faults = FaultPlan::none().partition_during(&minority, n, Round(6), Round(10));
    let cfg = ProtocolConfig::new(n).with_k(k).with_f_allowance(2);
    let mut h = GroupHarness::builder(cfg)
        .workload(Workload::fixed_count(8, 8))
        .faults(faults)
        .seed(45)
        .build();
    let report = h.run_to_completion(4_000);
    assert!(
        report.statuses.iter().all(|s| s.is_active()),
        "{:?}",
        report.statuses
    );
    // Nobody was declared crashed.
    let d = h.net().node(ProcessId(0)).engine().last_decision();
    assert!(d.process_state.iter().all(|&a| a), "{:?}", d.process_state);
    assert!(report.all_processed_everything());
    assert!(report.frontiers_agree());
}

/// Probing the paper's synchrony assumption: a straggler whose frames take
/// several extra rounds misses its coordinator deadlines exactly like an
/// omission-faulty process. With `K` smaller than the lag it is declared
/// crashed and suicides when it learns the verdict; with `K` sized above
/// the lag the group absorbs the asynchrony.
#[test]
fn straggler_survival_depends_on_k() {
    let n = 5;
    let straggler = ProcessId(4);
    // Lag of 2 extra rounds = its requests arrive a full subrun late.
    let faults = || FaultPlan::none().slow_sender(straggler, 2);

    // K = 1: each coordinator misses the straggler's request → crashed.
    let cfg = ProtocolConfig::new(n).with_k(1);
    let mut h = GroupHarness::builder(cfg)
        .workload(Workload::fixed_count(8, 8))
        .faults(faults())
        .seed(71)
        .build();
    let report = h.run_to_completion(4_000);
    assert!(
        !report.statuses[straggler.index()].is_active(),
        "K=1 should not tolerate a 1-subrun straggler: {:?}",
        report.statuses[straggler.index()]
    );
    assert!(report.statuses[..4].iter().all(|s| s.is_active()));
    assert!(report.atomicity_holds());

    // K = 3: the lag stays below the attempts budget — the straggler lives.
    let cfg = ProtocolConfig::new(n).with_k(3);
    let mut h = GroupHarness::builder(cfg)
        .workload(Workload::fixed_count(8, 8))
        .faults(faults())
        .seed(71)
        .build();
    let report = h.run_to_completion(8_000);
    assert!(
        report.statuses[straggler.index()].is_active(),
        "K=3 must absorb the straggler: {:?}",
        report.statuses[straggler.index()]
    );
    assert!(report.all_processed_everything());
    assert!(report.frontiers_agree());
}
