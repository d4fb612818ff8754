//! Zero-copy conformance for the full receive path: every [`Pdu`] variant
//! is encoded (through the shared [`FrameCache`] arena), fragmented,
//! reassembled, and decoded — and the test asserts with pointer-range
//! checks that no stage copied the payload when it didn't have to:
//!
//! * a single-fragment transfer hands the engine a frame that is a
//!   refcounted **view into the received datagram** (the `frag_count == 1`
//!   fast path), and the decoded `DataMsg` payloads are views into that
//!   same allocation;
//! * a multi-fragment transfer pays exactly one assembly buffer, and the
//!   decoded payloads are views **into that one buffer** — no per-payload
//!   `to_vec`/`copy_from_slice` on the data path.
//!
//! A second group sweeps single-bit corruption over the batched framings
//! specifically — PDU tags 6/7 (`RecoveryBatchRq`/`RecoveryBatch`) and the
//! transport batch tag `0xB7` — since those are the frames whose
//! populations grew when batching became the default.

use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;

use urcgc_runtime::{Fragmenter, Reassembler};
use urcgc_transport::{TFrame, DATA_HEADER_LEN};
use urcgc_types::{
    decode_group, decode_pdu, encode_pdu, DataMsg, Decision, FrameCache, GroupId, MaxProcessed,
    Mid, Pdu, ProcessId, RecoveryBatch, RecoveryBatchRq, RecoveryReply, RecoveryRq, RecoveryRun,
    RecoveryWant, RequestMsg, Round, Subrun,
};

const TTL: Duration = Duration::from_secs(2);

// ---- strategies (same shapes as the types-level wire proptest) ----------

fn arb_pid() -> impl Strategy<Value = ProcessId> {
    (0u16..64).prop_map(ProcessId)
}

fn arb_mid() -> impl Strategy<Value = Mid> {
    (arb_pid(), 1u64..10_000).prop_map(|(origin, seq)| Mid { origin, seq })
}

fn arb_data() -> impl Strategy<Value = DataMsg> {
    (
        arb_mid(),
        prop::collection::vec(arb_mid(), 0..8),
        0u64..1_000,
        prop::collection::vec(any::<u8>(), 1..128),
    )
        .prop_map(|(mid, deps, round, payload)| DataMsg {
            mid,
            deps,
            round: Round(round),
            payload: Bytes::from(payload),
        })
}

fn arb_decision() -> impl Strategy<Value = Decision> {
    (1usize..16).prop_flat_map(|n| {
        (
            0u64..1_000,
            arb_pid(),
            any::<bool>(),
            prop::collection::vec(0u64..10_000, n),
            prop::collection::vec(0u32..10, n),
            prop::collection::vec(any::<bool>(), n),
            prop::collection::vec((arb_pid(), 0u64..10_000), n),
            (
                prop::collection::vec(0u64..10_000, n),
                prop::collection::vec(any::<bool>(), n),
            ),
        )
            .prop_map(
                |(subrun, coordinator, full_group, stable, attempts, state, maxp, (minw, cov))| {
                    Decision {
                        subrun: Subrun(subrun),
                        coordinator,
                        full_group,
                        stable,
                        attempts,
                        process_state: state,
                        max_processed: maxp
                            .into_iter()
                            .map(|(holder, seq)| MaxProcessed { holder, seq })
                            .collect(),
                        min_waiting: minw,
                        covered: cov,
                    }
                },
            )
    })
}

fn arb_batch_rq() -> impl Strategy<Value = Pdu> {
    (
        arb_pid(),
        prop::collection::vec((arb_pid(), 0u64..100, 0u64..100), 0..8),
    )
        .prop_map(|(requester, wants)| {
            Pdu::RecoveryBatchRq(RecoveryBatchRq {
                requester,
                wants: wants
                    .into_iter()
                    .map(|(origin, after_seq, delta)| RecoveryWant {
                        origin,
                        after_seq,
                        upto_seq: after_seq + delta,
                    })
                    .collect(),
            })
        })
}

fn arb_batch_reply() -> impl Strategy<Value = Pdu> {
    (
        arb_pid(),
        prop::collection::vec((arb_pid(), prop::collection::vec(arb_data(), 0..4)), 0..6),
    )
        .prop_map(|(responder, runs)| {
            Pdu::RecoveryBatch(RecoveryBatch {
                responder,
                runs: runs
                    .into_iter()
                    .map(|(origin, messages)| RecoveryRun {
                        origin,
                        messages: messages.into_iter().map(std::sync::Arc::new).collect(),
                    })
                    .collect(),
            })
        })
}

/// Every wire variant, batched framings included.
fn arb_pdu() -> impl Strategy<Value = Pdu> {
    prop_oneof![
        arb_data().prop_map(Pdu::data),
        (
            arb_pid(),
            0u64..1_000,
            prop::collection::vec(0u64..10_000, 1..16),
            prop::collection::vec(0u64..10_000, 1..16),
            (arb_decision(), any::<bool>())
        )
            .prop_map(
                |(sender, subrun, lp, w, (d, fwd))| Pdu::Request(RequestMsg {
                    sender,
                    subrun: Subrun(subrun),
                    last_processed: lp,
                    waiting: w,
                    prev_decision: std::sync::Arc::new(d),
                    forwarded: fwd,
                })
            ),
        arb_decision().prop_map(Pdu::decision),
        (arb_pid(), arb_pid(), 0u64..100, 0u64..100).prop_map(
            |(requester, origin, after_seq, delta)| Pdu::RecoveryRq(RecoveryRq {
                requester,
                origin,
                after_seq,
                upto_seq: after_seq + delta,
            })
        ),
        (
            arb_pid(),
            arb_pid(),
            prop::collection::vec(arb_data(), 0..6)
        )
            .prop_map(
                |(responder, origin, messages)| Pdu::RecoveryReply(RecoveryReply {
                    responder,
                    origin,
                    messages: messages.into_iter().map(std::sync::Arc::new).collect(),
                })
            ),
        arb_batch_rq(),
        arb_batch_reply(),
    ]
}

// ---- helpers ------------------------------------------------------------

/// True iff `inner`'s bytes live inside `outer`'s allocation — the
/// refcounted-view check. (Both handles stay alive across the call, so the
/// ranges are stable.)
fn within(outer: &Bytes, inner: &Bytes) -> bool {
    let (o, i) = (outer.as_ptr() as usize, inner.as_ptr() as usize);
    i >= o && i + inner.len() <= o + outer.len()
}

/// Every application payload carried by a PDU (data, recovery bodies).
fn payloads(pdu: &Pdu) -> Vec<Bytes> {
    match pdu {
        Pdu::Data(m) => vec![m.payload.clone()],
        Pdu::RecoveryReply(r) => r.messages.iter().map(|m| m.payload.clone()).collect(),
        Pdu::RecoveryBatch(b) => b
            .runs
            .iter()
            .flat_map(|r| r.messages.iter().map(|m| m.payload.clone()))
            .collect(),
        _ => Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        ..ProptestConfig::default()
    })]

    /// Single-fragment transfers (the control-PDU common case): the frame
    /// the reassembler hands back is a view into the received datagram,
    /// and every decoded payload is a view into that same allocation —
    /// zero copies between the socket buffer and the engine.
    #[test]
    fn single_fragment_decode_shares_the_datagram_storage(pdu in arb_pdu()) {
        let mut cache = FrameCache::new();
        let frame = cache.encode(&pdu);
        prop_assert_eq!(&frame[..], &encode_pdu(&pdu)[..]);

        // An MTU exactly large enough: one datagram per transfer.
        let mut tx = Fragmenter::new(ProcessId(7), frame.len() + DATA_HEADER_LEN);
        let mut rx = Reassembler::new(TTL);
        let grams = tx.split(&frame);
        prop_assert_eq!(grams.len(), 1);
        let datagram = grams[0].clone();

        let (src, got) = rx.accept(datagram.clone(), Duration::ZERO)
            .expect("single fragment completes immediately");
        prop_assert_eq!(src, ProcessId(7));
        prop_assert_eq!(&got[..], &frame[..]);
        prop_assert!(
            within(&datagram, &got),
            "fast-path frame must be a view into the datagram, not a copy"
        );

        let back = decode_pdu(&got).expect("roundtrip");
        for p in payloads(&back) {
            prop_assert!(
                within(&datagram, &p),
                "decoded payload must borrow the datagram's storage"
            );
        }
        prop_assert_eq!(back, pdu);
    }

    /// Multi-fragment transfers pay exactly one assembly buffer; decoding
    /// then borrows from it. The payloads of the decoded PDU all point
    /// into the single reassembled frame.
    #[test]
    fn multi_fragment_decode_shares_the_reassembled_buffer(
        pdu in arb_pdu(),
        payload_mtu in 8usize..64,
    ) {
        let frame = encode_pdu(&pdu);
        // Clamp the per-fragment payload below the frame size so every
        // case exercises real fragmentation (the smallest frames are tag +
        // ids + trailer, still >9 bytes).
        let payload_mtu = payload_mtu.min(frame.len() - 1);
        let mut tx = Fragmenter::new(ProcessId(3), DATA_HEADER_LEN + payload_mtu);
        let mut rx = Reassembler::new(TTL);
        let grams = tx.split(&frame);
        prop_assert!(grams.len() >= 2, "expected a multi-fragment transfer");

        let mut done = None;
        for g in grams {
            if let Some(out) = rx.accept(g, Duration::ZERO) {
                done = Some(out);
            }
        }
        let (src, assembled) = done.expect("full fragment set completes");
        prop_assert_eq!(src, ProcessId(3));
        prop_assert_eq!(&assembled[..], &frame[..]);

        let back = decode_pdu(&assembled).expect("roundtrip");
        for p in payloads(&back) {
            prop_assert!(
                within(&assembled, &p),
                "decoded payload must borrow the one assembly buffer"
            );
        }
        prop_assert_eq!(back, pdu);
        prop_assert_eq!(rx.partials(), 0);
    }

    /// Checksum sweep over the batched PDU framings (wire tags 6 and 7):
    /// any single-bit corruption is caught by the FNV trailer.
    #[test]
    fn corrupted_batched_pdu_frames_never_decode(
        pdu in prop_oneof![arb_batch_rq(), arb_batch_reply()],
        byte in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let frame = encode_pdu(&pdu);
        let mut raw = frame.to_vec();
        let i = byte.index(raw.len());
        raw[i] ^= 1 << bit;
        prop_assert!(decode_pdu(&Bytes::from(raw)).is_err());
    }

    /// Group-enveloped transfers keep the zero-copy property end to end:
    /// the reassembled frame is a view into the received datagram, the
    /// demuxed inner frame is a slice of it (no copy at the envelope
    /// boundary), and the decoded payloads still borrow the same
    /// allocation — so the multi-group wire path costs one 9-byte header
    /// inspection over the single-group path, not an extra copy.
    #[test]
    fn enveloped_single_fragment_decode_shares_the_datagram_storage(
        pdu in arb_pdu(),
        group in any::<u32>(),
    ) {
        let group = GroupId(group);
        let mut cache = FrameCache::new();
        let frame = cache.encode_group(group, &pdu);

        let mut tx = Fragmenter::new(ProcessId(9), frame.len() + DATA_HEADER_LEN);
        let mut rx = Reassembler::new(TTL);
        let grams = tx.split(&frame);
        prop_assert_eq!(grams.len(), 1);
        let datagram = grams[0].clone();

        let (src, got) = rx.accept(datagram.clone(), Duration::ZERO)
            .expect("single fragment completes immediately");
        prop_assert_eq!(src, ProcessId(9));
        prop_assert!(within(&datagram, &got));

        let gf = decode_group(&got).expect("envelope decodes");
        prop_assert_eq!(gf.group, group);
        prop_assert!(
            within(&datagram, &gf.inner),
            "demuxed inner frame must be a view into the datagram"
        );
        let back = decode_pdu(&gf.inner).expect("roundtrip");
        for p in payloads(&back) {
            prop_assert!(
                within(&datagram, &p),
                "decoded payload must borrow the datagram's storage"
            );
        }
        prop_assert_eq!(back, pdu);
    }

    /// Single-bit corruption of a group-enveloped frame degenerates to an
    /// omission, never a misroute: a flip in the 9-byte header is caught
    /// by the header's own FNV checksum (so a frame is never re-addressed
    /// to another group), and a flip in the inner frame sails through the
    /// envelope with the group intact but dies at the destination group's
    /// PDU checksum. Either way no engine takes a step on corrupt bytes —
    /// the wire half of the genuineness property under corruption.
    #[test]
    fn corrupted_enveloped_frames_never_misroute(
        pdu in arb_pdu(),
        group in any::<u32>(),
        byte in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let group = GroupId(group);
        let mut cache = FrameCache::new();
        let frame = cache.encode_group(group, &pdu);
        let mut raw = frame.to_vec();
        let i = byte.index(raw.len());
        raw[i] ^= 1 << bit;

        match decode_group(&Bytes::from(raw)) {
            Err(_) => {} // header corruption: dropped before any PDU decode
            Ok(gf) => {
                prop_assert_eq!(
                    gf.group, group,
                    "corruption must never re-address a frame to another group"
                );
                prop_assert!(
                    decode_pdu(&gf.inner).is_err(),
                    "a corrupt inner frame must fail the destination's PDU checksum"
                );
            }
        }
    }

    /// Corruption sweep over the transport batch container (tag `0xB7`):
    /// a flipped bit either kills the container outright or re-slices the
    /// inner frames — and any inner frame that still passes its own PDU
    /// checksum must be byte-identical to one of the originals. Corruption
    /// can lose frames (that is the omission the model expects) but never
    /// forge one.
    #[test]
    fn corrupted_transport_batch_never_forges_a_pdu(
        pdus in prop::collection::vec(prop_oneof![arb_batch_rq(), arb_batch_reply()], 1..4),
        byte in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let frames: Vec<Bytes> = pdus.iter().map(encode_pdu).collect();
        let datagram = TFrame::Batch { frames }.encode();
        let mut raw = datagram.to_vec();
        let i = byte.index(raw.len());
        raw[i] ^= 1 << bit;

        match TFrame::decode(Bytes::from(raw)) {
            None => {} // malformed container: dropped, counted, harmless
            Some(TFrame::Batch { frames: inner }) => {
                for f in &inner {
                    if let Ok(back) = decode_pdu(f) {
                        prop_assert!(
                            pdus.contains(&back),
                            "corrupted batch decoded a PDU not in the original set"
                        );
                    }
                }
            }
            // A single-bit flip cannot turn 0xB7 into the Data/Ack tags,
            // and inner payloads re-parsed as other frame shapes still
            // face the PDU checksum downstream.
            Some(_) => {}
        }
    }
}
