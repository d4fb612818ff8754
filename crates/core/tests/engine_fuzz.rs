//! Adversarial fuzz of the engine surface: arbitrary (decodable but
//! arbitrarily-valued) PDUs interleaved with rounds and submissions must
//! never panic the engine, kill it spuriously, or wedge its outputs.

use bytes::Bytes;
use proptest::prelude::*;
use urcgc::{Engine, ProcessStatus};
use urcgc_types::{
    DataMsg, Decision, MaxProcessed, Mid, Pdu, ProcessId, ProtocolConfig, RecoveryReply,
    RecoveryRq, RequestMsg, Round, Subrun,
};

/// Unconstrained process ids — most will be outside the group.
fn wild_pid() -> impl Strategy<Value = ProcessId> {
    any::<u16>().prop_map(ProcessId)
}

fn wild_mid() -> impl Strategy<Value = Mid> {
    (wild_pid(), any::<u64>()).prop_map(|(origin, seq)| Mid { origin, seq })
}

fn wild_data() -> impl Strategy<Value = DataMsg> {
    (
        wild_mid(),
        prop::collection::vec(wild_mid(), 0..4),
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 0..32),
    )
        .prop_map(|(mid, deps, round, payload)| DataMsg {
            mid,
            deps,
            round: Round(round),
            payload: Bytes::from(payload),
        })
}

fn wild_decision() -> impl Strategy<Value = Decision> {
    (0usize..8).prop_flat_map(|n| {
        (
            any::<u64>(),
            wild_pid(),
            any::<bool>(),
            prop::collection::vec(any::<u64>(), n),
            prop::collection::vec(any::<u32>(), n),
            prop::collection::vec(any::<bool>(), n),
            prop::collection::vec((wild_pid(), any::<u64>()), n),
            (
                prop::collection::vec(any::<u64>(), n),
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

fn wild_pdu() -> impl Strategy<Value = Pdu> {
    prop_oneof![
        wild_data().prop_map(Pdu::data),
        (
            wild_pid(),
            any::<u64>(),
            prop::collection::vec(any::<u64>(), 0..8),
            prop::collection::vec(any::<u64>(), 0..8),
            wild_decision()
        )
            .prop_map(|(sender, subrun, lp, w, d)| Pdu::Request(RequestMsg {
                sender,
                subrun: Subrun(subrun),
                last_processed: lp,
                waiting: w,
                prev_decision: std::sync::Arc::new(d),
                forwarded: false,
            })),
        wild_decision().prop_map(Pdu::decision),
        (wild_pid(), wild_pid(), any::<u64>(), any::<u64>()).prop_map(
            |(requester, origin, a, b)| Pdu::RecoveryRq(RecoveryRq {
                requester,
                origin,
                after_seq: a,
                upto_seq: b,
            })
        ),
        (
            wild_pid(),
            wild_pid(),
            prop::collection::vec(wild_data(), 0..3)
        )
            .prop_map(
                |(responder, origin, messages)| Pdu::RecoveryReply(RecoveryReply {
                    responder,
                    origin,
                    messages: messages.into_iter().map(std::sync::Arc::new).collect(),
                })
            ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128,
        ..ProptestConfig::default()
    })]

    /// The engine survives any interleaving of hostile PDUs, rounds and
    /// submissions without panicking, and the only way it dies is a
    /// well-formed decision that declares it dead.
    #[test]
    fn engine_survives_hostile_pdu_streams(
        pdus in prop::collection::vec((wild_pid(), wild_pdu()), 0..40),
        submit_every in 1usize..5,
        rounds in 1u64..16,
    ) {
        let n = 4;
        let mut e = Engine::new(ProcessId(1), ProtocolConfig::new(n));
        let mut pdus = pdus.into_iter();
        for r in 0..rounds {
            e.begin_round(Round(r));
            if (r as usize).is_multiple_of(submit_every) && e.status().is_active() {
                let _ = e.submit(Bytes::from_static(b"f"), &[]);
            }
            for _ in 0..3 {
                if let Some((from, pdu)) = pdus.next() {
                    e.on_pdu(from, pdu);
                }
            }
            // Outputs must always drain (no infinite loops / wedges).
            let mut drained = 0;
            while e.poll_output().is_some() {
                drained += 1;
                prop_assert!(drained < 10_000, "output storm");
            }
        }
        // A hostile stream may legitimately have killed us only through a
        // well-formed decision with process_state[me] = false; any status
        // is acceptable, but internal counters must stay coherent.
        let st = e.stats();
        prop_assert!(st.history_len <= st.processed as usize);
        if e.status() == ProcessStatus::Active {
            // A live engine must still accept submissions.
            prop_assert!(e.submit(Bytes::new(), &[]).is_ok());
        }
    }

    /// Random bytes fed through the frame path never panic (decode errors
    /// are surfaced as Err, hostile-but-decodable frames are dropped by
    /// validation).
    #[test]
    fn engine_survives_random_frames(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..32),
    ) {
        let mut e = Engine::new(ProcessId(0), ProtocolConfig::new(3));
        for (i, raw) in frames.iter().enumerate() {
            let _ = e.on_frame(ProcessId((i % 3) as u16), &Bytes::from(raw.clone()));
        }
        while e.poll_output().is_some() {}
    }
}
