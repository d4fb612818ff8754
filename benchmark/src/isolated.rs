//! Isolated sections: calls into one layer's public functions, with inputs
//! shaped like the workloads', timed from outside.
//!
//! These numbers do not depend on the workload, so every traced run
//! carries the same set. Each section is repeated [`REPEATS`] times on
//! fresh state; the metric is the median, and min / MAD go to the run's
//! JSON detail so a reader can judge the noise. They explain end-to-end
//! moves; they are never the claim themselves.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use urcgc::{Engine, Output};
use urcgc_bench::hotpath::{
    chain, chatter_group, drain_indexed, history_filled, history_range, park_indexed,
    purge_in_steps, run_calendar,
};
use urcgc_causal::WaitingList;
use urcgc_history::{History, StabilityMatrix};
use urcgc_metrics::Json;
use urcgc_overlay::{Disseminator, OverlayConfig, Plan, RelayDisposition};
use urcgc_runtime::{Fragmenter, Reassembler};
use urcgc_simnet::FaultPlan;
use urcgc_transport::{
    decode_relay, encode_relay, fragment, TFrame, TOutput, TransportConfig, TransportEntity,
};
use urcgc_types::{
    decode_group, decode_pdu, DataMsg, Decision, FrameCache, GroupId, Mid, Pdu, ProcessId,
    ProtocolConfig, Round,
};

use crate::alloc;
use crate::metrics::Layers;
use crate::multigroup::build_nodes;
use crate::stats::{repeat_summary, Repeat};

/// Fresh-state repetitions per section.
const REPEATS: usize = 5;
/// Group size the engine, history and waiting-list sections use (the
/// `sim_faulty_n40` cell's).
const N: usize = 40;

/// Collects section results: the metric values and their noise.
#[derive(Default)]
pub struct Sections {
    /// Median per section, keyed by metric name.
    pub layers: Layers,
    /// `{name: {min, median, mad}}` for the JSON document.
    pub detail: Vec<(String, Json)>,
}

impl Sections {
    fn put(&mut self, name: &'static str, r: Repeat) {
        self.layers.set(name, r.median);
        self.detail.push((
            name.to_string(),
            Json::obj()
                .with("min", r.min)
                .with("median", r.median)
                .with("mad", r.mad),
        ));
    }

    /// Records a measured count or ratio: it repeats exactly, so it has
    /// no noise to report.
    fn count(&mut self, name: &'static str, value: f64) {
        self.layers.set(name, value);
    }

    /// Times `run` on a fresh `setup()` value [`REPEATS`] times and records
    /// nanoseconds per operation, `ops` operations per call of `run`.
    fn time<S, R>(
        &mut self,
        name: &'static str,
        ops: u64,
        mut setup: impl FnMut() -> S,
        mut run: impl FnMut(S) -> R,
    ) {
        let samples: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let state = setup();
                let started = Instant::now();
                let out = run(state);
                let ns = started.elapsed().as_nanos() as f64;
                black_box(out);
                ns / ops as f64
            })
            .collect();
        self.put(name, repeat_summary(&samples));
    }
}

/// A data message shaped like the workloads': one cause (the origin's
/// previous message) and `payload` bytes.
fn data_msg(origin: u16, seq: u64, payload: usize) -> DataMsg {
    DataMsg {
        mid: Mid::new(ProcessId(origin), seq),
        deps: Mid::new(ProcessId(origin), seq)
            .predecessor()
            .into_iter()
            .collect(),
        round: Round(seq),
        payload: Bytes::from(vec![0xA5u8; payload]),
    }
}

/// Runs every isolated section. `seed` feeds the few that draw random
/// numbers (overlay layout, in-memory loss).
pub fn run(seed: u64) -> Sections {
    let mut s = Sections::default();
    types_and_fragmentation(&mut s);
    causal(&mut s);
    history(&mut s);
    engine(&mut s);
    node_1k_groups(&mut s);
    overlay(&mut s, seed);
    simnet(&mut s, seed);
    transport(&mut s, seed);
    s
}

fn types_and_fragmentation(s: &mut Sections) {
    const CALLS: u64 = 20_000;
    for (payload, encode, decode, demux) in [
        (
            64,
            "types.encode_pdu_ns_64",
            "types.decode_pdu_ns_64",
            "types.group_demux_ns_64",
        ),
        (
            4096,
            "types.encode_pdu_ns_4k",
            "types.decode_pdu_ns_4k",
            "types.group_demux_ns_4k",
        ),
    ] {
        let pdu = Pdu::data(data_msg(0, 100, payload));
        s.time(encode, CALLS, FrameCache::new, |mut cache| {
            for _ in 0..CALLS {
                black_box(cache.encode(black_box(&pdu)));
            }
        });
        let frame = FrameCache::new().encode(&pdu);
        s.time(
            decode,
            CALLS,
            || frame.clone(),
            |frame| {
                for _ in 0..CALLS {
                    black_box(decode_pdu(black_box(&frame)).expect("own encoding decodes"));
                }
            },
        );
        let enveloped = FrameCache::new().encode_group(GroupId(7), &pdu);
        s.time(
            demux,
            CALLS,
            || enveloped.clone(),
            |frame| {
                for _ in 0..CALLS {
                    black_box(decode_group(black_box(&frame)).expect("own envelope decodes"));
                }
            },
        );
    }

    // Allocations per enveloped frame through a warm cache: a count, so it
    // repeats exactly.
    let pdu = Pdu::data(data_msg(0, 100, 64));
    let mut cache = FrameCache::new();
    black_box(cache.encode_group(GroupId(7), &pdu));
    let (allocs, _, ()) = alloc::measure(|| {
        for _ in 0..1000 {
            black_box(cache.encode_group(GroupId(7), &pdu));
        }
    });
    s.count("types.encode_allocs_per_frame", allocs as f64 / 1000.0);

    // A 4 KiB message is four fragments at the runtime's 1400-byte MTU —
    // the `udp_lossy_frag` shape (single fragments take the spans' path).
    const FRAMES: u64 = 2_000;
    let frame = FrameCache::new().encode_group(GroupId(0), &Pdu::data(data_msg(0, 100, 4096)));
    s.time(
        "runtime.frag_split_ns_4k",
        FRAMES,
        || Fragmenter::new(ProcessId(0), 1400),
        |mut frag| {
            for _ in 0..FRAMES {
                black_box(frag.split(black_box(&frame)));
            }
        },
    );
    s.time(
        "runtime.reasm_accept_ns_4k",
        FRAMES,
        || {
            let mut frag = Fragmenter::new(ProcessId(0), 1400);
            let grams: Vec<Bytes> = (0..FRAMES).flat_map(|_| frag.split(&frame)).collect();
            (Reassembler::new(Duration::from_secs(2)), grams)
        },
        |(mut reasm, grams)| {
            let mut complete = 0u64;
            for gram in grams {
                complete += u64::from(reasm.accept(gram, Duration::ZERO).is_some());
            }
            assert_eq!(complete, FRAMES, "every transfer reassembles");
        },
    );
}

fn causal(s: &mut Sections) {
    const DEPTH: usize = 1_000;
    let burst = chain(DEPTH);
    s.time(
        "causal.park_ns",
        DEPTH as u64,
        || (),
        |()| park_indexed(&burst),
    );
    s.time(
        "causal.wake_ns",
        DEPTH as u64,
        || park_indexed(&burst),
        |parked| assert_eq!(drain_indexed(parked), DEPTH),
    );
    // One blocked message per origin: the vector every request carries.
    const CALLS: u64 = 20_000;
    s.time(
        "causal.waiting_vector_ns",
        CALLS,
        || {
            let mut w = WaitingList::new();
            for o in 0..N as u16 {
                w.park(Arc::new(data_msg(o, 5, 0)), |_| false);
            }
            w
        },
        |w| {
            for _ in 0..CALLS {
                black_box(w.waiting_vector(N));
            }
        },
    );
}

fn history(s: &mut Sections) {
    const PER_ORIGIN: u64 = 512;
    let total = N as u64 * PER_ORIGIN;
    s.time(
        "history.save_ns",
        total,
        || {
            let msgs: Vec<Arc<DataMsg>> = (0..N as u16)
                .flat_map(|o| (1..=PER_ORIGIN).map(move |q| Arc::new(data_msg(o, q, 32))))
                .collect();
            (History::new(N), msgs)
        },
        |(mut h, msgs)| {
            for m in msgs {
                h.save(m);
            }
            h
        },
    );
    const RANGES: u64 = 200;
    let filled = history_filled(N, PER_ORIGIN);
    let served = history_range(&filled, PER_ORIGIN) as u64;
    s.time(
        "history.range_ns_per_msg",
        RANGES * served,
        || (),
        |()| {
            for _ in 0..RANGES {
                black_box(history_range(black_box(&filled), PER_ORIGIN));
            }
        },
    );
    s.time(
        "history.advance_stability_ns_per_msg",
        total,
        || history_filled(N, PER_ORIGIN),
        |h| assert_eq!(purge_in_steps(h, N, PER_ORIGIN, 8) as u64, total),
    );
    // One coordinator subrun: a request from every member.
    let prev = Decision::genesis(N);
    s.time(
        "history.stability_record_ns",
        N as u64,
        || {
            let requests: Vec<(Vec<u64>, Vec<u64>)> = (0..N as u64)
                .map(|p| (vec![100 + p; N], vec![0; N]))
                .collect();
            (StabilityMatrix::new(N), requests)
        },
        |(mut matrix, requests)| {
            for (p, (processed, waiting)) in requests.into_iter().enumerate() {
                black_box(matrix.record(ProcessId::from_index(p), processed, waiting, &prev));
            }
            matrix
        },
    );
}

/// Isolated `Engine` calls at n = 40: a group of engines exchanging PDUs
/// in memory (no codec, no network), every member submitting every round,
/// with a clock around each call by kind.
fn engine(s: &mut Sections) {
    const ROUNDS: u64 = 20;
    #[derive(Default, Clone, Copy)]
    struct Acc {
        ns: u64,
        calls: u64,
    }
    impl Acc {
        fn mean(self) -> f64 {
            self.ns as f64 / self.calls.max(1) as f64
        }
    }
    let mut samples: [Vec<f64>; 4] = Default::default();
    for _ in 0..REPEATS {
        let cfg = ProtocolConfig::new(N);
        let mut engines: Vec<Engine> = (0..N)
            .map(|i| Engine::new(ProcessId::from_index(i), cfg.clone()))
            .collect();
        let (mut request, mut decide, mut data, mut decision) = (
            Acc::default(),
            Acc::default(),
            Acc::default(),
            Acc::default(),
        );
        let body = Bytes::from(vec![0u8; 32]);
        let mut inbox: Vec<(usize, ProcessId, Pdu)> = Vec::new();
        for r in 0..ROUNDS {
            let round = Round(r);
            let coordinator = ProcessId::coordinator_for(round.subrun(), N).index();
            for (i, e) in engines.iter_mut().enumerate() {
                e.submit(body.clone(), &[]).expect("active engine accepts");
                let t = Instant::now();
                e.begin_round(round);
                let ns = t.elapsed().as_nanos() as u64;
                if round.is_request_phase() {
                    request.ns += ns;
                    request.calls += 1;
                } else if i == coordinator {
                    decide.ns += ns;
                    decide.calls += 1;
                }
            }
            // Frames sent in a round arrive within it; replies (recovery
            // is idle here) would be drained by the same loop.
            loop {
                for (i, e) in engines.iter_mut().enumerate() {
                    let me = ProcessId::from_index(i);
                    while let Some(out) = e.poll_output() {
                        match out {
                            Output::Send { to, pdu } => inbox.push((to.index(), me, *pdu)),
                            Output::Broadcast { pdu } => {
                                for dest in (0..N).filter(|&d| d != i) {
                                    inbox.push((dest, me, (*pdu).clone()));
                                }
                            }
                            _ => {}
                        }
                    }
                }
                if inbox.is_empty() {
                    break;
                }
                for (dest, from, pdu) in inbox.drain(..) {
                    let acc = match &pdu {
                        Pdu::Data(_) => Some(&mut data),
                        Pdu::Decision(_) => Some(&mut decision),
                        _ => None,
                    };
                    let t = Instant::now();
                    engines[dest].on_pdu(from, pdu);
                    if let Some(acc) = acc {
                        acc.ns += t.elapsed().as_nanos() as u64;
                        acc.calls += 1;
                    }
                }
            }
        }
        for (slot, acc) in samples.iter_mut().zip([request, decide, data, decision]) {
            slot.push(acc.mean());
        }
    }
    for (name, slot) in [
        "core.engine_round_request_ns",
        "core.engine_round_decide_ns",
        "core.on_pdu_data_ns",
        "core.on_pdu_decision_ns",
    ]
    .into_iter()
    .zip(&samples)
    {
        s.put(name, repeat_summary(slot));
    }
}

/// One `Node` hosting 1 000 groups of 3: what a frame and a tick cost when
/// the group table is large and every engine nearly idle.
fn node_1k_groups(s: &mut Sections) {
    const GROUPS: usize = 1_000;
    let (_, bytes, nodes) = alloc::measure(|| build_nodes(GROUPS, 1));
    s.count("core.bytes_per_idle_group", bytes as f64 / GROUPS as f64);
    drop(nodes);

    // Frames for member 0 from member 1: one data broadcast per group plus
    // the subrun's request to the coordinator (member 0).
    let frames_for_p0 = || {
        let mut nodes = build_nodes(GROUPS, 3);
        let mut sender = nodes.swap_remove(1);
        let receiver = nodes.swap_remove(0);
        for g in 0..GROUPS as u32 {
            sender
                .submit(GroupId(g), Bytes::from(vec![0u8; 32]), &[])
                .expect("joined group accepts");
        }
        sender.begin_round(Round(0));
        let mut frames = Vec::new();
        while let Some((group, out)) = sender.poll_output() {
            match out {
                Output::Broadcast { pdu } => frames.push(sender.encode(group, &pdu)),
                Output::Send { to, pdu } if to.index() == 0 => {
                    frames.push(sender.encode(group, &pdu));
                }
                _ => {}
            }
        }
        (receiver, frames)
    };
    let frames = frames_for_p0().1.len() as u64;
    s.time(
        "core.node_on_frame_ns_1k_groups",
        frames,
        frames_for_p0,
        |(mut receiver, frames)| {
            for frame in &frames {
                receiver
                    .on_frame(ProcessId(1), frame)
                    .expect("hosted group");
            }
            receiver
        },
    );
    s.time(
        "core.node_begin_round_ns_per_group",
        GROUPS as u64,
        || build_nodes(GROUPS, 1).remove(0),
        |mut node| {
            node.begin_round(Round(0));
            node
        },
    );
}

fn overlay(s: &mut Sections, seed: u64) {
    const MEMBERS: usize = 100;
    let cfg = OverlayConfig::tree(8, seed ^ 0xE701);
    let alive = vec![true; MEMBERS];
    const BUILDS: u64 = 200;
    s.time(
        "overlay.plan_build_ns",
        BUILDS,
        || (),
        |()| {
            for _ in 0..BUILDS {
                black_box(Plan::build(cfg.clone(), black_box(&alive)));
            }
        },
    );

    // Every member broadcasts once; envelopes relay hop by hop in memory.
    let inner = FrameCache::new().encode(&Pdu::data(data_msg(0, 1, 64)));
    let (mut broadcast, mut relay) = (Vec::new(), Vec::new());
    let (mut duplicates, mut received) = (0u64, 0u64);
    for _ in 0..REPEATS {
        let mut members: Vec<Disseminator> = (0..MEMBERS)
            .map(|i| Disseminator::new(ProcessId::from_index(i), MEMBERS, cfg.clone()))
            .collect();
        let (mut broadcast_ns, mut relay_ns, mut relays) = (0u64, 0u64, 0u64);
        let mut queue: Vec<(ProcessId, Bytes)> = Vec::new();
        for member in &mut members {
            let t = Instant::now();
            let (envelope, targets) = member.broadcast(&inner);
            broadcast_ns += t.elapsed().as_nanos() as u64;
            queue.extend(targets.into_iter().map(|to| (to, envelope.clone())));
        }
        while let Some((to, frame)) = queue.pop() {
            let t = Instant::now();
            let disposition = members[to.index()].on_frame(&frame);
            relay_ns += t.elapsed().as_nanos() as u64;
            relays += 1;
            if let RelayDisposition::Deliver {
                forward, envelope, ..
            } = disposition
            {
                queue.extend(forward.into_iter().map(|next| (next, envelope.clone())));
            }
        }
        broadcast.push(broadcast_ns as f64 / MEMBERS as f64);
        relay.push(relay_ns as f64 / relays as f64);
        duplicates = members.iter().map(Disseminator::duplicates).sum();
        received = relays;
    }
    s.put("overlay.broadcast_ns", repeat_summary(&broadcast));
    s.put("overlay.on_frame_ns", repeat_summary(&relay));
    s.count(
        "overlay.dup_share",
        duplicates as f64 / received.max(1) as f64,
    );
}

fn simnet(s: &mut Sections, seed: u64) {
    // Dense fan-in at the sim workload's size: every node broadcasts a
    // 64-byte frame every round; the nodes do no protocol work.
    const ROUNDS: u64 = 50;
    let talkers: Vec<usize> = (0..N).collect();
    let frames = (N * (N - 1)) as u64 * ROUNDS;
    s.time(
        "simnet.step_ns_per_frame",
        frames,
        || chatter_group(N, &talkers, 64),
        |nodes| {
            let (delivered, _) = run_calendar(nodes, FaultPlan::none(), ROUNDS, seed);
            // The last round's frames are still in flight when the run stops.
            assert!(delivered <= frames && delivered >= frames - (N * (N - 1)) as u64);
        },
    );
}

/// No shipped runtime path runs `TransportEntity` today; recorded so the
/// driver unification has a before-number.
fn transport(s: &mut Sections, seed: u64) {
    const XFERS: u64 = 2_000;
    let a = ProcessId(0);
    let sdu = Bytes::from(vec![0x5Au8; 256]);

    /// Runs `XFERS` one-fragment transfers a → b, dropping each frame with
    /// probability `loss`; returns data frames sent beyond the first copy.
    fn exchange(xfers: u64, sdu: &Bytes, loss: f64, rng: &mut ChaCha8Rng) -> u64 {
        let (a, b) = (ProcessId(0), ProcessId(1));
        let mut ea = TransportEntity::new(a, TransportConfig::default());
        let mut eb = TransportEntity::new(b, TransportConfig::default());
        let mut data_frames = 0u64;
        let mut confirmed = 0u64;
        for _ in 0..xfers {
            ea.t_data_rq(&[b], 1, sdu.clone());
            loop {
                let mut moved = false;
                while let Some(out) = ea.poll_output() {
                    moved = true;
                    match out {
                        TOutput::Send { frame, .. } => {
                            data_frames += 1;
                            if !(loss > 0.0 && rng.gen_bool(loss)) {
                                eb.on_frame(a, frame);
                            }
                        }
                        TOutput::Confirm { .. } => confirmed += 1,
                        TOutput::Ind { .. } => {}
                    }
                }
                while let Some(out) = eb.poll_output() {
                    moved = true;
                    if let TOutput::Send { frame, .. } = out {
                        if !(loss > 0.0 && rng.gen_bool(loss)) {
                            ea.on_frame(b, frame);
                        }
                    }
                }
                if ea.in_flight() == 0 {
                    break;
                }
                if !moved {
                    ea.on_tick();
                    eb.on_tick();
                }
            }
        }
        while let Some(out) = ea.poll_output() {
            confirmed += u64::from(matches!(out, TOutput::Confirm { .. }));
        }
        assert_eq!(confirmed, xfers, "the primitive never fails");
        data_frames - xfers
    }

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7A57);
    s.time(
        "transport.entity_rq_ack_ns",
        XFERS,
        || (),
        |()| {
            assert_eq!(exchange(XFERS, &sdu, 0.0, &mut rng), 0);
        },
    );
    let retransmits = exchange(XFERS, &sdu, 0.05, &mut rng);
    s.count(
        "transport.retransmits_per_xfer",
        retransmits as f64 / XFERS as f64,
    );

    const CALLS: u64 = 20_000;
    let fragment = fragment(1, a, 512, &sdu).remove(0);
    s.time(
        "transport.tframe_decode_ns",
        CALLS,
        || (),
        |()| {
            for _ in 0..CALLS {
                black_box(TFrame::decode(black_box(&fragment).clone()));
            }
        },
    );
    let inner = FrameCache::new().encode(&Pdu::data(data_msg(0, 1, 64)));
    s.time(
        "transport.relay_codec_ns",
        CALLS,
        || (),
        |()| {
            for seq in 0..CALLS {
                let envelope = encode_relay(a, seq, black_box(&inner));
                black_box(decode_relay(&envelope).expect("own envelope decodes"));
            }
        },
    );
}
