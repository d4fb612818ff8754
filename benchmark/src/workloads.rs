//! The six workloads: what runs, at which size, and why each is here.

use std::time::Duration;

use urcgc_bench::soak::SoakProtocol;
use urcgc_metrics::Json;

use crate::metrics::Outcome;
use crate::multigroup::MultigroupParams;
use crate::sim::SimParams;
use crate::stack::StackParams;
use crate::udp::UdpParams;
use crate::{isolated, multigroup, sim, stack, udp, RunArgs};

/// Failure-detection bound `K` of the UDP workloads. After a stall the
/// runtime's ticker catches up in a burst, so `K` subruns pass without a
/// request being exchanged and members are declared crashed: a long enough
/// stall collapses the group. On a shared two-core machine the whole
/// process is descheduled for a few hundred milliseconds every several
/// minutes — the default `K = 3` lost a member in one 5-second run in
/// ten, `K = 6` in one 15-second run in ten, `K = 20` (survives a 0.3 s
/// stall, not a 0.6 s one) in one in thirty (README, "Findings at
/// baseline"). `K = 200` rides out a one-second stall. No member crashes
/// in these workloads, so `K` changes nothing they measure: p50, p90 and
/// CPU read the same at 20 and at 200.
pub const UDP_K: u32 = 200;

/// One named set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Threaded UDP runtime, lossless, small payloads, open loop.
    UdpSteady,
    /// Same runtime under loss with multi-fragment payloads.
    UdpLossyFrag,
    /// Single-thread inline driver over the runtime's layers, closed loop.
    StackSaturated,
    /// Simulator soak cell, direct dissemination, n = 40.
    SimFaultyN40,
    /// Simulator soak cell over the overlay tree, n = 100.
    SimOverlayN100,
    /// One node per member hosting 1 000 groups.
    Multigroup1k,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 6] = [
        Workload::UdpSteady,
        Workload::UdpLossyFrag,
        Workload::StackSaturated,
        Workload::SimFaultyN40,
        Workload::SimOverlayN100,
        Workload::Multigroup1k,
    ];

    /// Name on the command line and in every document.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UdpSteady => "udp_steady",
            Workload::UdpLossyFrag => "udp_lossy_frag",
            Workload::StackSaturated => "stack_saturated",
            Workload::SimFaultyN40 => "sim_faulty_n40",
            Workload::SimOverlayN100 => "sim_overlay_n100",
            Workload::Multigroup1k => "multigroup_1k",
        }
    }

    /// Why the workload exists (the line `BENCHMARK.json` carries).
    pub fn why(self) -> &'static str {
        match self {
            Workload::UdpSteady => {
                "UdpGroup n=5, 5 ms rounds, lossless, 64 B, open-loop Poisson 250 msgs/s: the path a library user gets; timer, thread hops and syscalls do the work"
            }
            Workload::UdpLossyFrag => {
                "same runtime at 2 % receive loss with 4 KiB (4-fragment) payloads at 100 msgs/s: multi-fragment reassembly, history reads for recovery, populated waiting list; tail = recovery time"
            }
            Workload::StackSaturated => {
                "single-thread inline driver, 8 nodes over loopback sockets, 256 B every round, rounds back to back (closed loop): CPU-bound on codec, envelope, fragmentation, engine and syscalls; the traced run"
            }
            Workload::SimFaultyN40 => {
                "soak cell on the simulator, n=40 direct n-unicast with omissions, a slow sender and a crash: engine + history save/purge + scheduler; waiting list idle, overlay absent"
            }
            Workload::SimOverlayN100 => {
                "same engine at n=100 over the overlay tree: relay envelope, dedup and a populated waiting list; an overlay gain must show here and not on sim_faulty_n40"
            }
            Workload::Multigroup1k => {
                "3 nodes each hosting 1000 groups, half of them active: group-envelope demux, group-table lookup and fair drain dominate while each engine is nearly idle"
            }
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload once. On a traced run the isolated sections are
    /// appended to its per-layer metrics.
    pub fn run(self, args: &RunArgs) -> Result<Outcome, String> {
        let q = args.quick;
        let mut outcome = match self {
            Workload::UdpSteady => udp::run(
                &UdpParams {
                    n: 5,
                    k: Some(UDP_K),
                    round: Duration::from_millis(5),
                    loss: 0.0,
                    payload: 64,
                    rate: 250.0,
                },
                args,
            ),
            Workload::UdpLossyFrag => udp::run(
                &UdpParams {
                    n: 5,
                    k: Some(UDP_K),
                    round: Duration::from_millis(5),
                    loss: 0.02,
                    payload: 4096,
                    rate: 100.0,
                },
                args,
            ),
            Workload::StackSaturated => stack::run(
                &StackParams {
                    n: 8,
                    payload: 256,
                    msgs: if q { 8 * 150 } else { 8 * 1_500 },
                },
                args,
            ),
            Workload::SimFaultyN40 => sim::run(
                &SimParams {
                    protocol: SoakProtocol::Urcgc,
                    n: if q { 10 } else { 40 },
                    msgs_per_proc: if q { 120 } else { 600 },
                },
                args,
            ),
            Workload::SimOverlayN100 => sim::run(
                &SimParams {
                    protocol: SoakProtocol::UrcgcOverlay,
                    n: if q { 20 } else { 100 },
                    msgs_per_proc: if q { 40 } else { 80 },
                },
                args,
            ),
            Workload::Multigroup1k => multigroup::run(
                &MultigroupParams {
                    groups: if q { 60 } else { 1_000 },
                    members: 3,
                    msgs_per_group: if q { 20 } else { 24 },
                    active_fraction: 0.5,
                },
                args,
            ),
        }?;
        if args.trace {
            outcome
                .layers
                .set("cpu_ms_per_kmsg", outcome.cpu_ms_per_kmsg);
            let sections = isolated::run(args.seed);
            outcome.layers.merge(sections.layers);
            outcome
                .detail
                .set("isolated_sections", Json::Obj(sections.detail));
        }
        Ok(outcome)
    }
}
