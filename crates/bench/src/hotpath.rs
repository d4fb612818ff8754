//! Hot-path microbench scenarios, shared by the criterion suite
//! (`benches/hotpath.rs`) and the `hotpath` binary that emits the
//! `urcgc-bench/1` JSON document.
//!
//! Three scenarios, one per hot path the PR 2 overhaul rebuilt:
//!
//! * **Waiting-list drain** — a worst-case burst of `W` chained messages
//!   all blocked (transitively) on one root. The indexed [`WaitingList`]
//!   wakes each link exactly once; the [`RescanWaitingList`] (the old
//!   implementation, kept as executable specification) pays a full scan
//!   per released link, i.e. O(W²·D) per burst.
//! * **Broadcast fan-out** — the pre-PR engine deep-copied the full PDU
//!   (deps + payload) once per destination and the transport encoded each
//!   copy separately; the shared-buffer scheme materializes the body once
//!   behind an `Arc` and fans out refcount bumps plus one shared frame.
//! * **History purge/range** — recovery replies are served straight out of
//!   the table as `Arc` handles and stability purges drop whole prefixes.
//!
//! PR 3 adds the **scheduler** scenarios: chat workloads on the
//! calendar-queue [`SimNet`] in three shapes — dense fan-in (every node
//! broadcasting), a long-delay straggler (one slow sender parking hundreds
//! of frames), and a sustained million-frame drain. (These originally ran
//! differentially against a flat-wire engine; after three PRs with no
//! divergence that engine is retired and the scenarios time the calendar
//! queue alone.)
//!
//! The zero-copy PR adds the **codec** scenarios: encode/decode throughput
//! through the frame codec, [`FrameCache`] fan-out versus per-destination
//! encoding, and the batched-vs-unbatched recovery storm.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use urcgc_causal::{DeliveryTracker, RescanWaitingList, WaitingList};
use urcgc_history::{FlatHistory, History, StableVector};
use urcgc_simnet::{FaultPlan, NetCtx, Node as SimNode, SimNet, SimOptions};
use urcgc_types::{
    decode_pdu, encode_pdu, DataMsg, FrameCache, Mid, Pdu, ProcessId, Round, WireEncode,
};

/// The mid the whole drain chain is blocked on.
pub fn chain_root() -> Mid {
    Mid::new(ProcessId(0), 1)
}

/// A worst-case waiting-list burst of `w` messages: `p1#s` depends on the
/// root `p0#1` (unprocessed) and on its predecessor `p1#(s-1)`. Releasing
/// the root frees the chain one link per fixpoint pass, so the rescan
/// implementation does `w` passes over up to `w` survivors.
pub fn chain(w: usize) -> Vec<Arc<DataMsg>> {
    (2..w as u64 + 2)
        .map(|s| {
            Arc::new(DataMsg {
                mid: Mid::new(ProcessId(1), s),
                deps: vec![chain_root(), Mid::new(ProcessId(1), s - 1)],
                round: Round(0),
                payload: Bytes::new(),
            })
        })
        .collect()
}

/// Parks the burst on an indexed list (`p1#1` counts as already processed
/// so only the root and intra-chain edges stay unsatisfied).
pub fn park_indexed(msgs: &[Arc<DataMsg>]) -> (WaitingList, DeliveryTracker) {
    let mut w = WaitingList::new();
    let mut t = DeliveryTracker::new(4);
    t.mark_processed(Mid::new(ProcessId(1), 1));
    for m in msgs {
        let tr = &t;
        w.park(Arc::clone(m), |d| tr.is_processed(d));
    }
    (w, t)
}

/// Parks the burst on the rescan (reference) list.
pub fn park_rescan(msgs: &[Arc<DataMsg>]) -> (RescanWaitingList, DeliveryTracker) {
    let mut w = RescanWaitingList::new();
    let mut t = DeliveryTracker::new(4);
    t.mark_processed(Mid::new(ProcessId(1), 1));
    for m in msgs {
        w.park(Arc::clone(m));
    }
    (w, t)
}

/// Processes the root and drains the indexed list via the wake cascade.
/// Returns the number of released messages (must equal the burst size).
pub fn drain_indexed((mut w, mut t): (WaitingList, DeliveryTracker)) -> usize {
    t.mark_processed(chain_root());
    let mut released = 0;
    let mut wave = w.wake(chain_root());
    while let Some(m) = wave.pop() {
        t.mark_processed(m.mid);
        released += 1;
        wave.extend(w.wake(m.mid));
    }
    assert!(w.is_empty(), "drain left {} parked", w.len());
    released
}

/// Processes the root and drains the rescan list via the fixpoint loop the
/// pre-PR engine ran. Returns the number of released messages.
pub fn drain_rescan((mut w, mut t): (RescanWaitingList, DeliveryTracker)) -> usize {
    t.mark_processed(chain_root());
    let mut released = 0;
    loop {
        let tr = &t;
        let ready = w.release_ready(|d| tr.is_processed(d));
        if ready.is_empty() {
            break;
        }
        for m in ready {
            t.mark_processed(m.mid);
            released += 1;
        }
    }
    assert!(w.is_empty(), "drain left {} parked", w.len());
    released
}

/// A representative application message: 8 causal deps and `payload` bytes
/// of body (the paper's experiments use small payloads; 64 B keeps the
/// deps-to-payload ratio honest).
pub fn sample_msg(payload: usize) -> DataMsg {
    DataMsg {
        mid: Mid::new(ProcessId(0), 100),
        deps: (0..8).map(|i| Mid::new(ProcessId(i), 7)).collect(),
        round: Round(12),
        payload: Bytes::from(vec![0xabu8; payload]),
    }
}

/// The pre-PR fan-out: one deep copy of the message per destination, each
/// encoded separately. Returns total frame bytes produced (kept so the
/// optimizer cannot discard the work).
pub fn fanout_deep(msg: &DataMsg, n: usize) -> usize {
    let mut produced = 0;
    for _ in 1..n {
        let pdu = Pdu::data(msg.clone());
        let frame = encode_pdu(&pdu);
        produced += frame.len();
    }
    produced
}

/// The shared-buffer fan-out: the body is materialized once behind an
/// `Arc<Pdu>`, the frame is encoded once, and each destination gets a
/// refcount bump plus a shared (`Bytes`) handle to the same frame.
pub fn fanout_shared(pdu: &Arc<Pdu>, n: usize) -> usize {
    let frame = encode_pdu(pdu);
    let mut produced = 0;
    for _ in 1..n {
        let p = Arc::clone(pdu);
        let f = frame.clone();
        produced += f.len();
        std::hint::black_box((p, f));
    }
    produced
}

/// The cache-routed fan-out: the frame is encoded once into the reused
/// arena (one allocation at steady state) and each destination gets a
/// refcount-shared handle. Returns total frame bytes offered.
pub fn fanout_cached(cache: &mut FrameCache, pdu: &Pdu, n: usize) -> usize {
    let frame = cache.encode(pdu);
    let mut produced = 0;
    for _ in 1..n {
        let f = frame.clone();
        produced += f.len();
        std::hint::black_box(&f);
    }
    produced
}

/// One encode→decode round trip through the frame codec (checksum
/// verified, borrowed payload views). Returns the frame length.
pub fn codec_roundtrip(cache: &mut FrameCache, pdu: &Pdu) -> usize {
    let frame = cache.encode(pdu);
    let decoded = decode_pdu(&frame).expect("roundtrip");
    std::hint::black_box(&decoded);
    frame.len()
}

/// Message-body bytes deep-copied per `n`-way broadcast under the pre-PR
/// per-destination cloning (wire size is the body proxy).
pub fn deep_clone_bytes(msg: &DataMsg, n: usize) -> u64 {
    let pdu = Pdu::data(msg.clone());
    (n as u64 - 1) * pdu.encoded_len() as u64
}

/// Message-body bytes materialized per broadcast with the shared buffer:
/// the body exists exactly once regardless of fan-out width.
pub fn shared_clone_bytes(msg: &DataMsg) -> u64 {
    Pdu::data(msg.clone()).encoded_len() as u64
}

/// A history pre-filled with `origins × per_origin` processed messages.
pub fn history_filled(origins: usize, per_origin: u64) -> History {
    let mut h = History::new(origins);
    for p in 0..origins as u16 {
        for s in 1..=per_origin {
            h.save(Arc::new(DataMsg {
                mid: Mid::new(ProcessId(p), s),
                deps: vec![],
                round: Round(0),
                payload: Bytes::from_static(b"hotpath"),
            }));
        }
    }
    h
}

/// Serves one recovery reply: the trailing 80% of origin 0's messages,
/// shared straight out of the table. Returns the reply length.
pub fn history_range(h: &History, per_origin: u64) -> usize {
    h.range(ProcessId(0), per_origin / 5, per_origin).len()
}

/// Applies a full stability purge (everything stable). Returns messages
/// dropped.
pub fn history_purge(mut h: History, origins: usize, per_origin: u64) -> usize {
    h.advance_stability(&StableVector::new(&vec![per_origin; origins]))
        .messages
}

/// A [`FlatHistory`] pre-filled identically to [`history_filled`] — the
/// executable-specification baseline for the purge benchmarks.
pub fn flat_filled(origins: usize, per_origin: u64) -> FlatHistory {
    let mut h = FlatHistory::new(origins);
    for p in 0..origins as u16 {
        for s in 1..=per_origin {
            h.save(Arc::new(DataMsg {
                mid: Mid::new(ProcessId(p), s),
                deps: vec![],
                round: Round(0),
                payload: Bytes::from_static(b"hotpath"),
            }));
        }
    }
    h
}

/// Purges a filled table in `steps` equal stability advances (the
/// under-soak shape: stability creeps forward, each purge frees a slice).
/// Returns total messages dropped (must equal the fill).
pub fn purge_in_steps(mut h: History, origins: usize, per_origin: u64, steps: u64) -> usize {
    let mut dropped = 0;
    for i in 1..=steps {
        let upto = per_origin * i / steps;
        dropped += h
            .advance_stability(&StableVector::new(&vec![upto; origins]))
            .messages;
    }
    dropped
}

/// The same stepped purge on the flat reference layout.
pub fn purge_in_steps_flat(
    mut h: FlatHistory,
    origins: usize,
    per_origin: u64,
    steps: u64,
) -> usize {
    let mut dropped = 0;
    for i in 1..=steps {
        let upto = per_origin * i / steps;
        dropped += h
            .advance_stability(&StableVector::new(&vec![upto; origins]))
            .messages;
    }
    dropped
}

/// Outcome of one [`recovery_storm`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StormOutcome {
    /// Recovery frames put on the wire (requests + replies).
    pub frames: u64,
    /// Total encoded bytes of those frames.
    pub frame_bytes: u64,
    /// Messages the lagging process recovered.
    pub recovered: u64,
}

/// The recovery-storm scenario: a group of `n` where one process rejoins
/// having missed `per_origin` messages from *every* other origin, and the
/// most-updated holder for all of them is one peer. Per-origin framing
/// ships `2(n−1)` recovery PDUs (one request and one reply per origin);
/// batched framing coalesces them into one request and one reply frame.
/// Counts every recovery frame both ways and asserts the lagger fully
/// heals.
pub fn recovery_storm(n: usize, per_origin: u64, batched: bool) -> StormOutcome {
    use urcgc_types::pdu::PduKind;
    use urcgc_types::{Decision, MaxProcessed, ProtocolConfig, Subrun};

    let cfg = if batched {
        ProtocolConfig::new(n)
    } else {
        ProtocolConfig::new(n).with_unbatched_recovery()
    };
    // The holder has processed every lagged origin's chain (origins
    // 1..n-1; its own and the lagger's origins stay out of the storm).
    let mut holder = urcgc::Engine::new(ProcessId(0), cfg.clone());
    for q in 1..n as u16 - 1 {
        for s in 1..=per_origin {
            holder.on_pdu(
                ProcessId(q),
                Pdu::data(DataMsg {
                    mid: Mid::new(ProcessId(q), s),
                    deps: vec![],
                    round: Round(0),
                    payload: Bytes::from_static(b"storm"),
                }),
            );
        }
    }
    while holder.poll_output().is_some() {}

    // The lagger learns (via a decision) how far behind it is, and asks.
    let lagger_id = ProcessId(n as u16 - 1);
    let mut lagger = urcgc::Engine::new(lagger_id, cfg);
    let mut d = Decision::genesis(n);
    d.subrun = Subrun(1);
    for q in 1..n - 1 {
        d.max_processed[q] = MaxProcessed {
            holder: ProcessId(0),
            seq: per_origin,
        };
    }
    lagger.on_pdu(ProcessId(0), Pdu::decision(d));

    let mut outcome = StormOutcome {
        frames: 0,
        frame_bytes: 0,
        recovered: 0,
    };
    let recovery_kind =
        |pdu: &Pdu| matches!(pdu.kind(), PduKind::RecoveryRq | PduKind::RecoveryReply);
    while let Some(out) = lagger.poll_output() {
        if let urcgc::Output::Send { to, pdu } = out {
            if recovery_kind(&pdu) {
                assert_eq!(to, ProcessId(0));
                outcome.frames += 1;
                outcome.frame_bytes += encode_pdu(&pdu).len() as u64;
                holder.on_pdu(lagger_id, *pdu);
            }
        }
    }
    while let Some(out) = holder.poll_output() {
        if let urcgc::Output::Send { to, pdu } = out {
            if recovery_kind(&pdu) {
                assert_eq!(to, lagger_id);
                outcome.frames += 1;
                outcome.frame_bytes += encode_pdu(&pdu).len() as u64;
                lagger.on_pdu(ProcessId(0), *pdu);
            }
        }
    }
    while lagger.poll_output().is_some() {}
    outcome.recovered = lagger.stats().recovered;
    assert_eq!(
        outcome.recovered,
        (n as u64 - 2) * per_origin,
        "storm must fully heal"
    );
    outcome
}

/// A minimal chat node for scheduler benchmarks: talkers broadcast one
/// fixed-size frame per round, everyone counts receptions. The node does
/// no protocol work, so an engine comparison measures pure scheduling
/// overhead (frame parking, release scans, queue recycling).
pub struct ChatterNode {
    talks: bool,
    payload: Bytes,
    /// Frames delivered to this node.
    pub received: u64,
}

impl SimNode for ChatterNode {
    fn on_round(&mut self, _round: Round, net: &mut NetCtx<'_>) {
        if self.talks {
            net.broadcast("chat", self.payload.clone());
        }
    }

    fn on_frame(&mut self, _from: ProcessId, _frame: Bytes, _net: &mut NetCtx<'_>) {
        self.received += 1;
    }
}

/// Builds an `n`-node group where exactly the listed `talkers` broadcast a
/// `payload`-byte frame every round.
pub fn chatter_group(n: usize, talkers: &[usize], payload: usize) -> Vec<ChatterNode> {
    let body = Bytes::from(vec![0x5au8; payload]);
    (0..n)
        .map(|i| ChatterNode {
            talks: talkers.contains(&i),
            payload: body.clone(),
            received: 0,
        })
        .collect()
}

/// Runs `rounds` rounds on the calendar-queue engine. Returns
/// `(frames delivered, sum of per-node reception counters)` — the second
/// is a cross-check against the engine's own accounting.
pub fn run_calendar(
    nodes: Vec<ChatterNode>,
    faults: FaultPlan,
    rounds: u64,
    seed: u64,
) -> (u64, u64) {
    let mut net = SimNet::new(
        nodes,
        faults,
        SimOptions {
            seed,
            ..SimOptions::default()
        },
    );
    net.run_rounds(rounds);
    let delivered = net.stats().delivered;
    let (nodes, _) = net.into_parts();
    (delivered, nodes.iter().map(|n| n.received).sum())
}

/// Heap allocations the calendar-queue engine avoids versus the retired
/// flat-wire engine over one run: one `Vec<Outgoing>` per delivery and per
/// per-round node invocation (the shared scratch buffer replaces both),
/// plus one arrival-bucket `Vec` per round (recycled through the spare
/// pool).
pub fn allocs_avoided(delivered: u64, n: usize, rounds: u64) -> u64 {
    delivered + n as u64 * rounds + rounds
}

/// Median wall time of `iters` runs of `run`, each on a fresh `setup()`
/// value, in nanoseconds. Only `run` is timed.
pub fn time_nanos<S, R>(
    iters: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> R,
) -> u64 {
    assert!(iters > 0);
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let state = setup();
            let started = Instant::now();
            let out = run(state);
            let nanos = started.elapsed().as_nanos() as u64;
            std::hint::black_box(out);
            nanos
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_drains_release_the_whole_chain() {
        let msgs = chain(64);
        assert_eq!(drain_indexed(park_indexed(&msgs)), 64);
        assert_eq!(drain_rescan(park_rescan(&msgs)), 64);
    }

    #[test]
    fn fanouts_produce_identical_frame_bytes() {
        let msg = sample_msg(64);
        let shared = Arc::new(Pdu::data(msg.clone()));
        assert_eq!(fanout_deep(&msg, 10), fanout_shared(&shared, 10));
    }

    #[test]
    fn byte_accounting_scales_with_fanout() {
        let msg = sample_msg(64);
        assert_eq!(deep_clone_bytes(&msg, 100), 99 * shared_clone_bytes(&msg));
    }

    #[test]
    fn chat_scenarios_account_consistently() {
        // Dense fan-in, straggler, and lossy shapes at tiny sizes: the
        // engine's delivered counter must match node reception counts.
        let shapes: &[(usize, Vec<usize>, FaultPlan, u64)] = &[
            (6, (0..6).collect(), FaultPlan::none(), 12),
            (
                5,
                vec![0],
                FaultPlan::none().slow_sender(ProcessId(0), 7),
                40,
            ),
            (
                4,
                (0..4).collect(),
                FaultPlan::none().omission_rate(0.1),
                25,
            ),
        ];
        for (n, talkers, faults, rounds) in shapes {
            let cal = run_calendar(chatter_group(*n, talkers, 32), faults.clone(), *rounds, 9);
            assert_eq!(cal.0, cal.1, "delivered counter vs node receptions");
            assert!(cal.0 > 0);
        }
    }

    #[test]
    fn cached_fanout_matches_per_destination_encoding() {
        let msg = sample_msg(64);
        let pdu = Pdu::data(msg.clone());
        let mut cache = FrameCache::new();
        assert_eq!(fanout_cached(&mut cache, &pdu, 10), fanout_deep(&msg, 10));
        assert_eq!(codec_roundtrip(&mut cache, &pdu), encode_pdu(&pdu).len());
    }

    #[test]
    fn alloc_accounting_is_monotone() {
        assert_eq!(allocs_avoided(0, 4, 0), 0);
        assert_eq!(allocs_avoided(90, 10, 3), 90 + 30 + 3);
    }

    #[test]
    fn history_scenario_round_trips() {
        let h = history_filled(8, 50);
        assert_eq!(h.len(), 8 * 50);
        assert_eq!(history_range(&h, 50), 40);
        assert_eq!(history_purge(h, 8, 50), 8 * 50);
    }

    #[test]
    fn stepped_purges_drain_both_layouts_fully() {
        assert_eq!(purge_in_steps(history_filled(6, 40), 6, 40, 8), 6 * 40);
        assert_eq!(purge_in_steps_flat(flat_filled(6, 40), 6, 40, 8), 6 * 40);
    }

    #[test]
    fn recovery_storm_batching_cuts_frames_at_least_5x() {
        // Small n here keeps the unit test quick; the bench runs n=100.
        let unbatched = recovery_storm(12, 3, false);
        let batched = recovery_storm(12, 3, true);
        assert_eq!(unbatched.recovered, batched.recovered);
        assert_eq!(
            unbatched.frames,
            2 * (12 - 2),
            "one rq + one reply per origin"
        );
        assert_eq!(batched.frames, 2, "one rq + one reply per holder");
        assert!(unbatched.frames >= 5 * batched.frames);
        assert!(batched.frame_bytes < unbatched.frame_bytes);
    }
}
