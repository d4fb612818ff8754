//! Property tests for the wire codec: roundtrip fidelity, exact length
//! accounting, and robustness against arbitrary byte soup.

use bytes::Bytes;
use proptest::prelude::*;
use urcgc_types::{
    decode_pdu, encode_pdu, wire::FRAME_TRAILER_LEN, DataMsg, Decision, MaxProcessed, Mid, Pdu,
    ProcessId, RecoveryBatch, RecoveryBatchRq, RecoveryReply, RecoveryRq, RecoveryRun,
    RecoveryWant, RequestMsg, Round, Subrun, WireEncode,
};

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
        prop::collection::vec(any::<u8>(), 0..128),
    )
        .prop_map(|(mid, deps, round, payload)| DataMsg {
            mid,
            deps,
            round: Round(round),
            payload: Bytes::from(payload),
        })
}

fn arb_decision() -> impl Strategy<Value = Decision> {
    (1usize..32).prop_flat_map(|n| {
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

fn arb_pdu() -> impl Strategy<Value = Pdu> {
    prop_oneof![
        arb_data().prop_map(Pdu::data),
        (
            arb_pid(),
            0u64..1_000,
            prop::collection::vec(0u64..10_000, 1..32),
            prop::collection::vec(0u64..10_000, 1..32),
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
        (
            arb_pid(),
            prop::collection::vec((arb_pid(), 0u64..100, 0u64..100), 0..8)
        )
            .prop_map(|(requester, wants)| Pdu::RecoveryBatchRq(RecoveryBatchRq {
                requester,
                wants: wants
                    .into_iter()
                    .map(|(origin, after_seq, delta)| RecoveryWant {
                        origin,
                        after_seq,
                        upto_seq: after_seq + delta,
                    })
                    .collect(),
            })),
        (
            arb_pid(),
            prop::collection::vec((arb_pid(), prop::collection::vec(arb_data(), 0..4)), 0..6)
        )
            .prop_map(|(responder, runs)| Pdu::RecoveryBatch(RecoveryBatch {
                responder,
                runs: runs
                    .into_iter()
                    .map(|(origin, messages)| RecoveryRun {
                        origin,
                        messages: messages.into_iter().map(std::sync::Arc::new).collect(),
                    })
                    .collect(),
            })),
    ]
}

proptest! {
    #[test]
    fn pdu_roundtrips(pdu in arb_pdu()) {
        let frame = encode_pdu(&pdu);
        prop_assert_eq!(frame.len(), pdu.encoded_len() + FRAME_TRAILER_LEN);
        let back = decode_pdu(&frame).unwrap();
        prop_assert_eq!(back, pdu);
    }

    #[test]
    fn decoder_never_panics_on_garbage(raw in prop::collection::vec(any::<u8>(), 0..256)) {
        // Whatever the bytes, the decoder must return (Ok or Err), not panic
        // or allocate unboundedly.
        let _ = decode_pdu(&Bytes::from(raw));
    }

    #[test]
    fn single_bit_corruption_never_decodes(pdu in arb_pdu(), byte in any::<prop::sample::Index>(), bit in 0u8..8) {
        let frame = encode_pdu(&pdu);
        let mut raw = frame.to_vec();
        let i = byte.index(raw.len());
        raw[i] ^= 1 << bit;
        prop_assert!(decode_pdu(&bytes::Bytes::from(raw)).is_err());
    }

    #[test]
    fn decoder_rejects_every_truncation(pdu in arb_pdu()) {
        let frame = encode_pdu(&pdu);
        if frame.len() > 1 {
            let cut = frame.len() / 2;
            let mut part = frame;
            part.truncate(cut);
            prop_assert!(decode_pdu(&part).is_err());
        }
    }
}
