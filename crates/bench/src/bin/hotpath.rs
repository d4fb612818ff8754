//! Hot-path microbenchmark document generator (`urcgc-bench/1`).
//!
//! Measures the three paths PR 2 rebuilt — waiting-list drain, broadcast
//! fan-out, history purge/range — against their pre-PR implementations
//! (the rescan waiting list kept as executable specification, and a
//! deep-clone-per-destination fan-out emulation), the PR 3 calendar-queue
//! scheduler scenarios, and the zero-copy **codec** section (encode/decode
//! throughput plus real heap-allocation counts for the n=100 fan-out,
//! measured by a counting global allocator), and the **control-plane**
//! section (heap allocations per member-subrun of the request → decision
//! exchange), and the **construction** section (heap allocations to build
//! the benchmark's two simulator cells), and emits one JSON document so
//! future PRs can diff performance trajectories per commit.
//!
//! Run:   `cargo run --release -p urcgc-bench --bin hotpath -- --json BENCH.json`
//! Smoke: `... --bin hotpath -- --profile smoke --json smoke.json`
//!
//! Wall times are medians of several runs and naturally vary between
//! machines; the byte accounting (`*_bytes` metrics) and the allocation
//! counts (`*_allocs` metrics) are exact and machine-independent.

use std::sync::Arc;

use bytes::Bytes;
use urcgc_bench::hotpath::{
    allocs_avoided, chain, chatter_group, codec_roundtrip, deep_clone_bytes, drain_indexed,
    drain_rescan, fanout_cached, fanout_deep, fanout_shared, flat_filled, history_filled,
    history_purge, history_range, park_indexed, park_rescan, purge_in_steps, purge_in_steps_flat,
    recovery_storm, run_calendar, sample_msg, shared_clone_bytes, time_nanos,
};
use urcgc_bench::soak::{soak_faults, soak_members};
use urcgc_metrics::alloc::CountingAlloc;
use urcgc_metrics::Json;
use urcgc_simnet::{FaultPlan, SimNet, SimOptions};
use urcgc_types::wire::{frame_checksum, FRAME_TRAILER_LEN};
use urcgc_types::{
    decode_pdu, encode_pdu, fnv1a_32, FrameCache, Pdu, ProcessId, ProtocolConfig, Round, Subrun,
};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Heap allocations performed while running `f`.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = CountingAlloc::calls();
    let out = f();
    (CountingAlloc::calls() - before, out)
}

/// Heap allocations of one subrun of the control plane, per call.
struct ControlPlaneAllocs {
    /// A member's request round: build the request, encode its frame.
    request_build: u64,
    /// The coordinator decoding and recording one member's request.
    request_receipt: u64,
    /// The coordinator's decision round: compute, broadcast, adopt.
    decide: u64,
    /// A member adopting the decision it has decoded.
    adoption: u64,
}

/// What a request build may cost: the two `n`-wide vectors the request
/// owns, its `Box<Pdu>`, and the encoded frame. The carried decision is a
/// handle, so a fifth allocation is a deep copy coming back.
const REQUEST_BUILD_ALLOCS: u64 = 4;

/// One engine's round, its single control frame encoded (if it sent one).
fn control_round(e: &mut urcgc::Engine, cache: &mut FrameCache, round: Round) -> Option<Bytes> {
    e.begin_round(round);
    let mut frame = None;
    while let Some(out) = e.poll_output() {
        match out {
            urcgc::Output::Send { pdu, .. } => frame = Some(cache.encode(&pdu)),
            urcgc::Output::Broadcast { pdu } => frame = Some(cache.encode(&pdu)),
            _ => {}
        }
    }
    frame
}

/// One idle subrun of a group exchanging encoded frames; returns the
/// allocations of each request build, each request receipt, the decision
/// round of the coordinator, and each adoption.
fn control_subrun(
    engines: &mut [urcgc::Engine],
    cache: &mut FrameCache,
    subrun: Subrun,
) -> [Vec<u64>; 4] {
    let coordinator = ProcessId::coordinator_for(subrun, engines.len());
    let mut requests = Vec::new();
    let mut build = Vec::new();
    for e in engines.iter_mut() {
        let (allocs, frame) = count_allocs(|| control_round(e, cache, subrun.request_round()));
        // The coordinator records its own request without sending one.
        if let Some(frame) = frame {
            build.push(allocs);
            requests.push((e.me(), frame));
        }
    }
    let mut receipt = Vec::new();
    for (from, frame) in &requests {
        let (allocs, result) = count_allocs(|| engines[coordinator.index()].on_frame(*from, frame));
        result.expect("own frame decodes");
        receipt.push(allocs);
    }
    let mut decide = Vec::new();
    let mut decision = None;
    for e in engines.iter_mut() {
        let (allocs, frame) = count_allocs(|| control_round(e, cache, subrun.decision_round()));
        if e.me() == coordinator {
            decide.push(allocs);
            decision = frame;
        }
    }
    let decision = decision.expect("the coordinator decides every subrun");
    let mut adoption = Vec::new();
    for e in engines.iter_mut().filter(|e| e.me() != coordinator) {
        let pdu = decode_pdu(&decision).expect("own frame decodes");
        let applied = e.stats().decisions_applied;
        let (allocs, ()) = count_allocs(|| e.on_pdu(coordinator, pdu));
        assert_eq!(e.stats().decisions_applied, applied + 1, "not adopted");
        adoption.push(allocs);
    }
    [build, receipt, decide, adoption]
}

/// Counts the allocations of one steady-state subrun of an idle group of
/// `n >= 2`, stage by stage. Every member pays the same count (asserted),
/// so the per-call figures are exact.
fn control_plane(n: usize) -> ControlPlaneAllocs {
    const WARM_SUBRUNS: u64 = 4;
    let cfg = ProtocolConfig::new(n);
    let mut engines: Vec<urcgc::Engine> = (0..n)
        .map(|i| urcgc::Engine::new(ProcessId::from_index(i), cfg.clone()))
        .collect();
    let mut cache = FrameCache::new();
    for s in 0..WARM_SUBRUNS {
        control_subrun(&mut engines, &mut cache, Subrun(s));
    }
    let stages = control_subrun(&mut engines, &mut cache, Subrun(WARM_SUBRUNS));
    let [request_build, request_receipt, decide, adoption] = stages.map(|counts| {
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "allocations differ between members: {counts:?}"
        );
        counts[0]
    });
    ControlPlaneAllocs {
        request_build,
        request_receipt,
        decide,
        adoption,
    }
}

/// Ceiling on the allocations of `SimNet::new`, whatever the cell.
const SIMNET_ALLOCS: u64 = 7;

/// Heap allocations to build one simulator cell of the benchmark — the
/// `sim_faulty_n40` cell (direct) or the `sim_overlay_n100` cell (overlay
/// tree, K sized up), as `soak_cell` builds them — counted where its
/// `setup_s` is timed: (the members through their public constructors,
/// `SimNet::new` over them).
fn construction(n: usize, msgs_per_proc: u64, overlay: bool) -> (u64, u64) {
    let seed = 1;
    let faults = soak_faults(n, msgs_per_proc);
    let opts = SimOptions {
        seed,
        max_rounds: msgs_per_proc * 8 + 4_000,
        bytes_window: Some(64),
    };
    let (members, nodes) = count_allocs(|| soak_members(overlay, n, msgs_per_proc, seed));
    let (simnet, net) = count_allocs(|| SimNet::new(nodes, faults, opts));
    assert_eq!(net.n(), n);
    (members, simnet)
}

const HELP: &str = "\
hotpath — microbenchmark the urcgc hot paths, emit a urcgc-bench/1 document

USAGE:
  hotpath [OPTIONS]

OPTIONS:
  --profile P   hotpath (full sizes, default) | smoke (tiny sizes, for CI)
  --json PATH   write the urcgc-bench/1 document to PATH
  --help        print this help
";

/// One scheduler scenario: a chat workload on the calendar-queue engine.
struct SchedShape {
    name: &'static str,
    n: usize,
    /// `true` = every node broadcasts each round; `false` = only node 0.
    all_talk: bool,
    /// Extra delivery delay for node 0 (parks delay × fan-out frames).
    delay: u64,
    rounds: u64,
    cal_iters: usize,
}

struct Profile {
    name: &'static str,
    /// (W, timed iterations for the indexed drain, for the rescan drain).
    drain_sizes: &'static [(usize, usize, usize)],
    fanout_sizes: &'static [usize],
    history: (usize, u64),
    fanout_iters: usize,
    history_iters: usize,
    /// (group size, messages missed per origin, timed iterations).
    storm: (usize, u64, usize),
    /// (origins, messages per origin, stability steps, timed iterations).
    purge_soak: (usize, u64, u64, usize),
    sched: &'static [SchedShape],
    /// Frames per timed encode/decode throughput loop in the codec
    /// section. (The fan-out allocation count always runs at n=100 — it
    /// is the PR's acceptance metric and is cheap.)
    codec_frames: usize,
}

const HOTPATH: Profile = Profile {
    name: "hotpath",
    // The rescan is O(W²); one timed run at W = 10⁴ is already seconds.
    drain_sizes: &[(100, 25, 25), (1_000, 9, 5), (10_000, 5, 1)],
    fanout_sizes: &[10, 50, 100],
    history: (40, 250),
    fanout_iters: 25,
    history_iters: 25,
    storm: (100, 20, 9),
    purge_soak: (40, 512, 32, 15),
    sched: &[
        SchedShape {
            name: "sched_dense_fanin",
            n: 100,
            all_talk: true,
            delay: 0,
            rounds: 40,
            cal_iters: 5,
        },
        // One slow sender parks delay × (n−1) frames; the calendar queue
        // never revisits them before their arrival round.
        SchedShape {
            name: "sched_straggler",
            n: 8,
            all_talk: false,
            delay: 512,
            rounds: 4_096,
            cal_iters: 9,
        },
        // ≈ 10⁶ frames end to end: 10 × 9 per round for 11 200 rounds.
        SchedShape {
            name: "sched_million_drain",
            n: 10,
            all_talk: true,
            delay: 0,
            rounds: 11_200,
            cal_iters: 3,
        },
    ],
    codec_frames: 20_000,
};

const SMOKE: Profile = Profile {
    name: "smoke",
    drain_sizes: &[(64, 3, 3), (256, 3, 3)],
    fanout_sizes: &[10],
    history: (8, 50),
    fanout_iters: 3,
    history_iters: 3,
    storm: (16, 4, 3),
    purge_soak: (8, 128, 8, 3),
    sched: &[
        SchedShape {
            name: "sched_dense_fanin",
            n: 20,
            all_talk: true,
            delay: 0,
            rounds: 10,
            cal_iters: 3,
        },
        SchedShape {
            name: "sched_straggler",
            n: 8,
            all_talk: false,
            delay: 64,
            rounds: 256,
            cal_iters: 3,
        },
        SchedShape {
            name: "sched_million_drain",
            n: 10,
            all_talk: true,
            delay: 0,
            rounds: 500,
            cal_iters: 3,
        },
    ],
    codec_frames: 2_000,
};

fn parse_args(args: &[String]) -> Result<(&'static Profile, Option<String>), String> {
    let mut profile = &HOTPATH;
    let mut json = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--profile" => {
                profile = match it.next().map(String::as_str) {
                    Some("hotpath") => &HOTPATH,
                    Some("smoke") => &SMOKE,
                    other => return Err(format!("--profile expects hotpath|smoke, got {other:?}")),
                }
            }
            "--json" => {
                json = Some(
                    it.next()
                        .ok_or_else(|| "--json expects a path".to_string())?
                        .clone(),
                )
            }
            "--help" => return Err(HELP.to_string()),
            other => return Err(format!("unknown argument {other:?}\n\n{HELP}")),
        }
    }
    Ok((profile, json))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (profile, json_path) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if msg == HELP { 0 } else { 2 });
        }
    };

    let mut benches: Vec<Json> = Vec::new();

    // 1. Waiting-list drain: indexed wake cascade vs full-rescan fixpoint.
    for &(w, indexed_iters, rescan_iters) in profile.drain_sizes {
        let msgs = chain(w);
        let indexed_nanos = time_nanos(
            indexed_iters,
            || park_indexed(&msgs),
            |state| assert_eq!(drain_indexed(state), w),
        );
        let rescan_nanos = time_nanos(
            rescan_iters,
            || park_rescan(&msgs),
            |state| assert_eq!(drain_rescan(state), w),
        );
        let speedup = rescan_nanos as f64 / indexed_nanos.max(1) as f64;
        println!(
            "waiting_drain    w={w:<6} indexed {indexed_nanos:>12} ns   rescan {rescan_nanos:>12} ns   speedup {speedup:.1}x"
        );
        benches.push(
            Json::obj()
                .with("name", "waiting_drain")
                .with("params", Json::obj().with("w", w))
                .with(
                    "metrics",
                    Json::obj()
                        .with("indexed_nanos", indexed_nanos)
                        .with("rescan_nanos", rescan_nanos)
                        .with("speedup", speedup),
                ),
        );
    }

    // 2. Broadcast fan-out: deep clone per destination vs one shared body.
    let msg = sample_msg(64);
    let shared_pdu = Arc::new(Pdu::data(msg.clone()));
    for &n in profile.fanout_sizes {
        let deep_nanos = time_nanos(profile.fanout_iters, || (), |()| fanout_deep(&msg, n));
        let shared_nanos = time_nanos(
            profile.fanout_iters,
            || (),
            |()| fanout_shared(&shared_pdu, n),
        );
        let deep_bytes = deep_clone_bytes(&msg, n);
        let shared_bytes = shared_clone_bytes(&msg);
        let reduction = deep_bytes as f64 / shared_bytes as f64;
        println!(
            "broadcast_fanout n={n:<6} deep {deep_bytes:>7} B/cast   shared {shared_bytes:>5} B/cast   reduction {reduction:.0}x   ({deep_nanos} ns vs {shared_nanos} ns)"
        );
        benches.push(
            Json::obj()
                .with("name", "broadcast_fanout")
                .with("params", Json::obj().with("n", n))
                .with(
                    "metrics",
                    Json::obj()
                        .with("deep_nanos", deep_nanos)
                        .with("shared_nanos", shared_nanos)
                        .with("deep_clone_bytes", deep_bytes)
                        .with("shared_bytes", shared_bytes)
                        .with("bytes_reduction", reduction),
                ),
        );
    }

    // 3. History: recovery-reply range extraction and stability purge.
    let (origins, per) = profile.history;
    let filled = history_filled(origins, per);
    let expected_reply = (per - per / 5) as usize;
    let range_nanos = time_nanos(
        profile.history_iters,
        || (),
        |()| assert_eq!(history_range(&filled, per), expected_reply),
    );
    let purge_nanos = time_nanos(
        profile.history_iters,
        || filled.clone(),
        |h| assert_eq!(history_purge(h, origins, per), origins * per as usize),
    );
    println!(
        "history          {origins}x{per:<4} range {range_nanos:>10} ns   purge {purge_nanos:>12} ns"
    );
    benches.push(
        Json::obj()
            .with("name", "history_purge_range")
            .with(
                "params",
                Json::obj().with("origins", origins).with("per_origin", per),
            )
            .with(
                "metrics",
                Json::obj()
                    .with("range_nanos", range_nanos)
                    .with("purge_nanos", purge_nanos),
            ),
    );

    // 4. Recovery storm: a rejoining process missing messages from every
    //    other origin, all held by one peer — per-origin recovery framing
    //    vs the batched (one frame per (peer, origin-run)) path. Frame
    //    counts are exact; the scenario asserts the lagger fully heals.
    let (storm_n, storm_per, storm_iters) = profile.storm;
    let per_origin_run = recovery_storm(storm_n, storm_per, false);
    let batched_run = recovery_storm(storm_n, storm_per, true);
    let frame_reduction = per_origin_run.frames as f64 / batched_run.frames.max(1) as f64;
    let per_origin_nanos = time_nanos(
        storm_iters,
        || (),
        |()| recovery_storm(storm_n, storm_per, false),
    );
    let batched_nanos = time_nanos(
        storm_iters,
        || (),
        |()| recovery_storm(storm_n, storm_per, true),
    );
    println!(
        "recovery_storm   n={storm_n:<4} per-origin {} frames ({} B)   batched {} frames ({} B)   reduction {frame_reduction:.0}x",
        per_origin_run.frames, per_origin_run.frame_bytes, batched_run.frames, batched_run.frame_bytes
    );
    benches.push(
        Json::obj()
            .with("name", "recovery_storm")
            .with(
                "params",
                Json::obj().with("n", storm_n).with("per_origin", storm_per),
            )
            .with(
                "metrics",
                Json::obj()
                    .with("per_origin_frames", per_origin_run.frames)
                    .with("batched_frames", batched_run.frames)
                    .with("per_origin_frame_bytes", per_origin_run.frame_bytes)
                    .with("batched_frame_bytes", batched_run.frame_bytes)
                    .with("frame_reduction", frame_reduction)
                    .with("recovered", batched_run.recovered)
                    .with("per_origin_nanos", per_origin_nanos)
                    .with("batched_nanos", batched_nanos),
            ),
    );

    // 5. Purge under soak: stability creeps forward in steps over a filled
    //    table — the sharded layout drops whole segments per step, the
    //    flat executable spec re-walks every surviving key.
    let (soak_origins, soak_per, soak_steps, soak_iters) = profile.purge_soak;
    let expected_drop = soak_origins * soak_per as usize;
    let sharded_nanos = time_nanos(
        soak_iters,
        || history_filled(soak_origins, soak_per),
        |h| {
            assert_eq!(
                purge_in_steps(h, soak_origins, soak_per, soak_steps),
                expected_drop
            )
        },
    );
    let flat_nanos = time_nanos(
        soak_iters,
        || flat_filled(soak_origins, soak_per),
        |h| {
            assert_eq!(
                purge_in_steps_flat(h, soak_origins, soak_per, soak_steps),
                expected_drop
            )
        },
    );
    let soak_speedup = flat_nanos as f64 / sharded_nanos.max(1) as f64;
    println!(
        "purge_soak       {soak_origins}x{soak_per:<5} steps={soak_steps:<3} sharded {sharded_nanos:>10} ns   flat {flat_nanos:>12} ns   speedup {soak_speedup:.1}x"
    );
    benches.push(
        Json::obj()
            .with("name", "purge_soak")
            .with(
                "params",
                Json::obj()
                    .with("origins", soak_origins)
                    .with("per_origin", soak_per)
                    .with("steps", soak_steps),
            )
            .with(
                "metrics",
                Json::obj()
                    .with("sharded_nanos", sharded_nanos)
                    .with("flat_nanos", flat_nanos)
                    .with("speedup", soak_speedup)
                    .with("messages_purged", expected_drop),
            ),
    );

    // 6. Scheduler: the calendar-queue engine on the three chat shapes.
    //    (The flat-wire differential baseline is retired; frame counts are
    //    still asserted stable across the timed iterations.)
    for shape in profile.sched {
        let talkers: Vec<usize> = if shape.all_talk {
            (0..shape.n).collect()
        } else {
            vec![0]
        };
        let faults = if shape.delay > 0 {
            FaultPlan::none().slow_sender(ProcessId(0), shape.delay)
        } else {
            FaultPlan::none()
        };
        let expected = run_calendar(
            chatter_group(shape.n, &talkers, 32),
            faults.clone(),
            shape.rounds,
            11,
        );
        assert_eq!(
            expected.0, expected.1,
            "{}: delivered counter vs node receptions",
            shape.name
        );
        let (frames, _) = expected;
        let cal_nanos = time_nanos(
            shape.cal_iters,
            || chatter_group(shape.n, &talkers, 32),
            |nodes| {
                assert_eq!(
                    run_calendar(nodes, faults.clone(), shape.rounds, 11).0,
                    frames
                )
            },
        );
        let frames_per_sec = frames as f64 / (cal_nanos as f64 / 1e9);
        let avoided = allocs_avoided(frames, shape.n, shape.rounds);
        println!(
            "{:<18} n={:<4} rounds={:<6} calendar {cal_nanos:>12} ns   {frames_per_sec:>12.0} frames/s",
            shape.name, shape.n, shape.rounds
        );
        benches.push(
            Json::obj()
                .with("name", shape.name)
                .with(
                    "params",
                    Json::obj()
                        .with("n", shape.n)
                        .with("rounds", shape.rounds)
                        .with("delay", shape.delay)
                        .with("all_talk", shape.all_talk),
                )
                .with(
                    "metrics",
                    Json::obj()
                        .with("calendar_nanos", cal_nanos)
                        .with("frames", frames)
                        .with("frames_per_sec", frames_per_sec)
                        .with("allocs_avoided", avoided),
                ),
        );
    }

    // 7. Codec: encode/decode throughput through the frame codec and
    //    *measured* allocation counts for the n=100 fan-out. The fan-out
    //    comparison always runs at n=100 (the PR's acceptance cell), even
    //    under the smoke profile — it is a handful of microseconds.
    {
        let msg = sample_msg(64);
        let pdu = Pdu::data(msg.clone());
        let mut cache = FrameCache::new();
        let frame_len = codec_roundtrip(&mut cache, &pdu); // warms the arena
        let frames = profile.codec_frames;

        let encode_nanos = time_nanos(
            3,
            || (),
            |()| {
                for _ in 0..frames {
                    std::hint::black_box(cache.encode(&pdu));
                }
            },
        );
        let sample_frame = cache.encode(&pdu);
        let decode_nanos = time_nanos(
            3,
            || (),
            |()| {
                for _ in 0..frames {
                    std::hint::black_box(decode_pdu(&sample_frame).expect("decode"));
                }
            },
        );
        let encode_mb_per_sec = (frames * frame_len) as f64 / 1e6 / (encode_nanos as f64 / 1e9);
        let decode_mb_per_sec = (frames * frame_len) as f64 / 1e6 / (decode_nanos as f64 / 1e9);

        // The trailer kernel against the byte-serial hash it replaced, over
        // the same 4 KiB frame body. Nanoseconds depend on the machine; CI
        // gates the ratio.
        let big = encode_pdu(&Pdu::data(sample_msg(4096)));
        let body = &big[..big.len() - FRAME_TRAILER_LEN];
        let per_call = |hash: fn(&[u8]) -> u32| {
            let nanos = time_nanos(
                3,
                || (),
                |()| {
                    for _ in 0..frames {
                        std::hint::black_box(hash(std::hint::black_box(body)));
                    }
                },
            );
            nanos as f64 / frames as f64
        };
        let fnv1a_4k_nanos = per_call(fnv1a_32);
        let checksum_4k_nanos = per_call(frame_checksum);
        let checksum_speedup = fnv1a_4k_nanos / checksum_4k_nanos.max(f64::MIN_POSITIVE);

        const FANOUT_N: usize = 100;
        let expected_bytes = fanout_deep(&msg, FANOUT_N);
        let (deep_allocs, _) = count_allocs(|| fanout_deep(&msg, FANOUT_N));
        let (shared_allocs, produced) = count_allocs(|| fanout_cached(&mut cache, &pdu, FANOUT_N));
        assert_eq!(produced, expected_bytes, "fan-outs must offer equal bytes");
        assert!(
            shared_allocs <= 1,
            "warm-cache fan-out must cost at most one allocation, measured {shared_allocs}"
        );
        let alloc_reduction = deep_allocs as f64 / shared_allocs.max(1) as f64;
        assert!(
            alloc_reduction >= 5.0,
            "fan-out allocation reduction below 5x: {deep_allocs} vs {shared_allocs}"
        );
        println!(
            "codec            frame={frame_len:<4} encode {encode_mb_per_sec:>8.0} MB/s   decode {decode_mb_per_sec:>8.0} MB/s   fanout n={FANOUT_N}: {deep_allocs} vs {shared_allocs} allocs ({alloc_reduction:.0}x)"
        );
        println!(
            "codec checksum   body={:<5} fnv1a {fnv1a_4k_nanos:>7.0} ns   kernel {checksum_4k_nanos:>7.0} ns   ({checksum_speedup:.1}x)",
            body.len()
        );
        benches.push(
            Json::obj()
                .with("name", "codec")
                .with(
                    "params",
                    Json::obj()
                        .with("frames", frames)
                        .with("frame_len", frame_len)
                        .with("fanout_n", FANOUT_N),
                )
                .with(
                    "metrics",
                    Json::obj()
                        .with("encode_nanos", encode_nanos)
                        .with("decode_nanos", decode_nanos)
                        .with("encode_mb_per_sec", encode_mb_per_sec)
                        .with("decode_mb_per_sec", decode_mb_per_sec)
                        .with("fnv1a_4k_nanos", fnv1a_4k_nanos)
                        .with("checksum_4k_nanos", checksum_4k_nanos)
                        .with("checksum_speedup", checksum_speedup)
                        .with("deep_allocs", deep_allocs)
                        .with("shared_allocs", shared_allocs)
                        .with("alloc_reduction", alloc_reduction),
                ),
        );
    }

    // 8. Control plane: exact heap-allocation counts of the request →
    //    decision exchange. A decision is shared, never copied: adopting
    //    one allocates nothing and a request carries a handle to it.
    for n in [3, 40] {
        let allocs = control_plane(n);
        assert_eq!(
            allocs.adoption, 0,
            "adopting a decoded decision must not allocate (n={n})"
        );
        assert!(
            allocs.request_build <= REQUEST_BUILD_ALLOCS,
            "request build allocates {} times, recorded {REQUEST_BUILD_ALLOCS} (n={n})",
            allocs.request_build
        );
        println!(
            "control_plane    n={n:<4} allocs: request build+encode {}   receipt/request {}   decide {}   adoption {}",
            allocs.request_build, allocs.request_receipt, allocs.decide, allocs.adoption
        );
        benches.push(
            Json::obj()
                .with("name", "control_plane")
                .with("params", Json::obj().with("n", n))
                .with(
                    "metrics",
                    Json::obj()
                        .with("request_build_allocs", allocs.request_build)
                        .with("request_receipt_allocs", allocs.request_receipt)
                        .with("decide_allocs", allocs.decide)
                        .with("adoption_allocs", allocs.adoption),
                ),
        );
    }

    // 9. Construction: exact heap-allocation counts to build the two
    //    simulator cells whose `setup_s` the benchmark bounds — the
    //    machine-independent witness behind a wall-clock figure whose own
    //    spread is wider than its bound.
    for (cell, n, msgs_per_proc, overlay, ceiling) in [
        // Each includes the 7 of the one genesis decision the cell's
        // engines share; the thread may hold it already (201 then).
        ("sim_faulty_n40", 40, 600, false, 208),
        ("sim_overlay_n100", 100, 80, true, 1_008),
    ] {
        let (members, simnet) = construction(n, msgs_per_proc, overlay);
        assert!(
            members <= ceiling && simnet <= SIMNET_ALLOCS,
            "{cell}: {members} allocations for the members (recorded {ceiling}), \
             {simnet} for SimNet::new (recorded {SIMNET_ALLOCS})"
        );
        println!("construction     {cell:<17} allocs: members {members}   simnet {simnet}");
        benches.push(
            Json::obj()
                .with("name", "construction")
                .with("params", Json::obj().with("cell", cell).with("n", n))
                .with(
                    "metrics",
                    Json::obj()
                        .with("members_allocs", members)
                        .with("simnet_allocs", simnet),
                ),
        );
    }

    let doc = Json::obj()
        .with("schema", "urcgc-bench/1")
        .with("profile", profile.name)
        .with("benches", Json::Arr(benches));

    if let Some(path) = json_path {
        match std::fs::write(&path, doc.render_pretty()) {
            Ok(()) => println!("bench document written to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        println!("{}", doc.render_pretty());
    }
}
