//! Whole-benchmark tests: the catalogue against `BENCHMARK.json`, the
//! quick pass over all six workloads, and the inline driver against the
//! real UDP runtime.

use std::time::{Duration, Instant};

use crate::metrics::END_TO_END;
use crate::stack::StackParams;
use crate::udp::UdpParams;
use crate::workloads::{Workload, UDP_K};
use crate::{report, stack, udp, RunArgs};

fn args(seconds: f64, trace: bool) -> RunArgs {
    RunArgs {
        seed: 7,
        seconds,
        trace,
        quick: true,
        out_dir: None,
    }
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = urcgc_metrics::json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        doc,
        report::benchmark_json(),
        "regenerate: run.sh benchmark-json"
    );
    // The contract's limits on what the catalogue may say.
    for w in Workload::ALL {
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}",
            w.name()
        );
    }
    assert!(text.len() <= 64 * 1024);
}

/// `--quick`: all six workloads, shrunk, pass every check — and a traced
/// quick run prints every per-layer metric the catalogue names.
#[test]
fn quick_pass_over_all_six_workloads() {
    let started = Instant::now();
    for w in Workload::ALL {
        let outcome = w
            .run(&args(0.4, false))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(
            outcome.problems.is_empty(),
            "{}: {:?}",
            w.name(),
            outcome.problems
        );
        assert_eq!(outcome.failed, 0, "{}", w.name());
        assert!(outcome.attempted > 0, "{}", w.name());
        for m in END_TO_END {
            let v = outcome.end_to_end(m.name);
            assert!(v.is_finite() && v > 0.0, "{} {} = {v}", w.name(), m.name);
        }
        let line = report::result_line(&outcome, false).render();
        assert!(
            line.starts_with("{\"correct\":true,\"attempted\":"),
            "{line}"
        );
    }
    // Ten seconds in a release build; unoptimised engines with their
    // debug-only invariant checks get a wider allowance.
    let allowance = if cfg!(debug_assertions) { 60 } else { 10 };
    assert!(
        started.elapsed() < Duration::from_secs(allowance),
        "quick pass took {:?}",
        started.elapsed()
    );
}

#[test]
fn traced_run_reports_span_shares_and_every_isolated_section() {
    let outcome = Workload::StackSaturated
        .run(&args(0.2, true))
        .expect("traced quick run");
    assert!(outcome.problems.is_empty(), "{:?}", outcome.problems);
    let share = outcome.layers.get("stack.span_sum_share");
    assert!(share > 0.5 && share <= 1.0, "span_sum_share {share}");
    for name in [
        "link.send_to_ns",
        "core.on_frame_ns",
        "types.decode_pdu_ns_4k",
        "causal.wake_ns",
        "history.save_ns",
        "core.engine_round_decide_ns",
        "core.node_on_frame_ns_1k_groups",
        "core.bytes_per_idle_group",
        "overlay.on_frame_ns",
        "simnet.step_ns_per_frame",
        "transport.entity_rq_ack_ns",
    ] {
        assert!(outcome.layers.get(name) > 0.0, "{name} not measured");
    }
    // A warm FrameCache costs one allocation per enveloped frame.
    assert_eq!(outcome.layers.get("types.encode_allocs_per_frame"), 1.0);
    // The tree overlay forwards every envelope once.
    assert_eq!(outcome.layers.get("overlay.dup_share"), 0.0);
}

/// The inline driver is only worth timing if it is the same protocol the
/// runtime runs: on a 3-member, 50-message cell both deliver the same
/// message set, with equal per-origin order digests on every member.
#[test]
fn inline_driver_and_udp_group_deliver_the_same_streams() {
    let inline = stack::run(
        &StackParams {
            n: 3,
            payload: 64,
            msgs: 50,
        },
        &args(0.01, false),
    )
    .expect("inline cell");
    let over_udp = udp::run(
        &UdpParams {
            n: 3,
            k: Some(UDP_K),
            round: Duration::from_millis(5),
            loss: 0.0,
            payload: 64,
            rate: 250.0,
        },
        &args(0.2, false), // 250 msgs/s × 0.2 s = 50 messages
    )
    .expect("UDP cell");
    for outcome in [&inline, &over_udp] {
        assert!(outcome.problems.is_empty(), "{:?}", outcome.problems);
        assert_eq!((outcome.attempted, outcome.failed), (50, 0));
    }
    let digests = |o: &crate::metrics::Outcome| o.detail.get("order_digests").cloned();
    assert!(digests(&inline).is_some());
    assert_eq!(digests(&inline), digests(&over_udp));
}
