//! Edge-case and adversarial-input tests for the engine: malformed or
//! out-of-protocol PDUs, tiny groups, stale and duplicate traffic, and
//! life-cycle corner cases. The engine must stay consistent (or ignore the
//! input) in every case — a group member cannot crash its peers with a
//! weird but well-formed PDU.

use bytes::Bytes;
use urcgc::{Engine, Output, ProcessStatus};
use urcgc_types::{
    DataMsg, Decision, MaxProcessed, Mid, Pdu, ProcessId, ProtocolConfig, RecoveryReply,
    RecoveryRq, RequestMsg, Round, Subrun, NO_SEQ,
};

fn drain(e: &mut Engine) -> Vec<Output> {
    std::iter::from_fn(|| e.poll_output()).collect()
}

fn data(p: u16, s: u64, deps: Vec<Mid>) -> Pdu {
    Pdu::data(DataMsg {
        mid: Mid::new(ProcessId(p), s),
        deps,
        round: Round(0),
        payload: Bytes::from_static(b"x"),
    })
}

#[test]
fn two_process_group_works() {
    let cfg = ProtocolConfig::new(2);
    let mut a = Engine::new(ProcessId(0), cfg.clone());
    let mut b = Engine::new(ProcessId(1), cfg);
    a.submit(Bytes::from_static(b"ping"), &[]).unwrap();
    let route = |src: &mut Engine, dst: &mut Engine, src_id: u16| {
        for o in drain(src) {
            match o {
                Output::Send { pdu, .. } => dst.on_pdu(ProcessId(src_id), *pdu),
                Output::Broadcast { pdu } => dst.on_pdu(ProcessId(src_id), Pdu::clone(&pdu)),
                _ => {}
            }
        }
    };
    for r in 0..6u64 {
        a.begin_round(Round(r));
        b.begin_round(Round(r));
        route(&mut a, &mut b, 0);
        route(&mut b, &mut a, 1);
        // One more pass so same-round replies (e.g. decisions prompted by
        // just-delivered requests) also cross.
        route(&mut a, &mut b, 0);
        route(&mut b, &mut a, 1);
    }
    assert_eq!(b.last_processed(ProcessId(0)), 1);
    assert_eq!(a.status(), ProcessStatus::Active);
    assert_eq!(b.status(), ProcessStatus::Active);
    // Stability reached: histories cleaned on both sides.
    assert_eq!(a.gauges().history_len, 0);
    assert_eq!(b.gauges().history_len, 0);
}

#[test]
fn data_from_out_of_group_origin_is_ignored_without_panic() {
    let mut e = Engine::new(ProcessId(0), ProtocolConfig::new(3));
    // Origin p9 does not exist in a group of 3. The message must not be
    // processed (its origin has no history slot) and must not panic.
    e.on_pdu(ProcessId(1), data(9, 1, vec![]));
    assert_eq!(e.stats().processed, 0);
    // It parks forever in the waiting list at worst; nothing delivers.
    let delivered = drain(&mut e)
        .iter()
        .filter(|o| matches!(o, Output::Deliver { .. }))
        .count();
    assert_eq!(delivered, 0);
}

#[test]
fn decision_of_wrong_width_is_ignored() {
    let mut e = Engine::new(ProcessId(0), ProtocolConfig::new(3));
    let mut d = Decision::genesis(7); // wrong group size
    d.subrun = Subrun(5);
    d.process_state[0] = false; // would otherwise kill us
    e.on_pdu(ProcessId(1), Pdu::decision(d));
    assert_eq!(e.status(), ProcessStatus::Active);
    assert_eq!(e.last_decision().subrun, Subrun(0));
}

#[test]
fn duplicate_decision_is_idempotent() {
    let mut e = Engine::new(ProcessId(0), ProtocolConfig::new(3));
    let mut d = Decision::genesis(3);
    d.subrun = Subrun(2);
    d.stable = vec![0, 0, 0];
    e.on_pdu(ProcessId(1), Pdu::decision(d.clone()));
    let applied_once = e.stats().decisions_applied;
    e.on_pdu(ProcessId(1), Pdu::decision(d.clone()));
    e.on_pdu(ProcessId(2), Pdu::decision(d));
    assert_eq!(e.stats().decisions_applied, applied_once);
}

#[test]
fn request_for_foreign_subrun_still_circulates_its_decision() {
    // A request arrives while we are NOT the coordinator (or for a
    // different subrun): the matrix ignores it, but the embedded previous
    // decision must still be adopted — that is the decision-circulation
    // mechanism working through any channel.
    let mut e = Engine::new(ProcessId(0), ProtocolConfig::new(3));
    let mut carried = Decision::genesis(3);
    carried.subrun = Subrun(9);
    let req = RequestMsg {
        sender: ProcessId(2),
        subrun: Subrun(10),
        last_processed: vec![0; 3],
        waiting: vec![NO_SEQ; 3],
        prev_decision: std::sync::Arc::new(carried),
        forwarded: false,
    };
    e.on_pdu(ProcessId(2), Pdu::Request(req));
    assert_eq!(e.last_decision().subrun, Subrun(9));
}

#[test]
fn recovery_rq_for_unknown_origin_is_ignored() {
    let mut e = Engine::new(ProcessId(0), ProtocolConfig::new(2));
    e.on_pdu(
        ProcessId(1),
        Pdu::RecoveryRq(RecoveryRq {
            requester: ProcessId(1),
            origin: ProcessId(7),
            after_seq: 0,
            upto_seq: 100,
        }),
    );
    assert!(drain(&mut e).is_empty());
}

#[test]
fn recovery_rq_with_empty_history_yields_no_reply() {
    let mut e = Engine::new(ProcessId(0), ProtocolConfig::new(2));
    e.on_pdu(
        ProcessId(1),
        Pdu::RecoveryRq(RecoveryRq {
            requester: ProcessId(1),
            origin: ProcessId(0),
            after_seq: 0,
            upto_seq: 5,
        }),
    );
    assert!(drain(&mut e).is_empty(), "nothing held ⇒ nothing sent");
}

#[test]
fn recovery_reply_with_already_processed_messages_is_harmless() {
    let mut e = Engine::new(ProcessId(1), ProtocolConfig::new(2));
    e.on_pdu(ProcessId(0), data(0, 1, vec![]));
    let processed_before = e.stats().processed;
    e.on_pdu(
        ProcessId(0),
        Pdu::RecoveryReply(RecoveryReply {
            responder: ProcessId(0),
            origin: ProcessId(0),
            messages: vec![std::sync::Arc::new(DataMsg {
                mid: Mid::new(ProcessId(0), 1),
                deps: vec![],
                round: Round(0),
                payload: Bytes::from_static(b"x"),
            })],
        }),
    );
    assert_eq!(e.stats().processed, processed_before);
    assert_eq!(
        e.stats().recovered,
        0,
        "duplicates do not count as recovered"
    );
}

#[test]
fn inputs_after_suicide_are_inert() {
    let mut e = Engine::new(ProcessId(1), ProtocolConfig::new(3));
    let mut d = Decision::genesis(3);
    d.subrun = Subrun(1);
    d.process_state[1] = false;
    e.on_pdu(ProcessId(0), Pdu::decision(d));
    assert_eq!(e.status(), ProcessStatus::Suicided);
    let _ = drain(&mut e);
    // Everything after death is ignored.
    e.begin_round(Round(10));
    e.on_pdu(ProcessId(0), data(0, 1, vec![]));
    assert!(drain(&mut e).is_empty());
    assert!(e.submit(Bytes::new(), &[]).is_err());
    assert_eq!(e.stats().processed, 0);
}

#[test]
fn bad_dependency_submission_is_rejected_and_seq_not_burned() {
    let mut e = Engine::new(ProcessId(0), ProtocolConfig::new(3));
    let unknown = Mid::new(ProcessId(2), 5);
    let err = e.submit(Bytes::new(), &[unknown]).unwrap_err();
    assert!(err.to_string().contains("invalid causal label"));
    // The next successful submission still gets seq 1.
    let mid = e.submit(Bytes::new(), &[]).unwrap();
    assert_eq!(mid, Mid::new(ProcessId(0), 1));
}

#[test]
fn self_data_replay_does_not_reprocess() {
    let mut e = Engine::new(ProcessId(0), ProtocolConfig::new(2));
    let mid = e.submit(Bytes::from_static(b"m"), &[]).unwrap();
    e.begin_round(Round(0));
    let _ = drain(&mut e);
    let before = e.stats().processed;
    // Our own broadcast echoed back at us (some transports do this).
    e.on_pdu(ProcessId(1), data(0, mid.seq, vec![]));
    assert_eq!(e.stats().processed, before);
}

#[test]
fn stale_decision_cannot_unclean_history() {
    let mut e = Engine::new(ProcessId(0), ProtocolConfig::new(2));
    // Process p1's messages 1..=3.
    for s in 1..=3u64 {
        let deps = if s > 1 {
            vec![Mid::new(ProcessId(1), s - 1)]
        } else {
            vec![]
        };
        e.on_pdu(ProcessId(1), data(1, s, deps));
    }
    assert_eq!(e.gauges().history_len, 3);
    // Fresh decision cleans up to 3.
    let mut d = Decision::genesis(2);
    d.subrun = Subrun(5);
    d.stable = vec![0, 3];
    e.on_pdu(ProcessId(1), Pdu::decision(d));
    assert_eq!(e.gauges().history_len, 0);
    // A late re-arrival of message 2 must not re-enter the history.
    e.on_pdu(ProcessId(1), data(1, 2, vec![Mid::new(ProcessId(1), 1)]));
    assert_eq!(e.gauges().history_len, 0);
}

#[test]
fn waiting_gauge_reflects_parked_messages() {
    let mut e = Engine::new(ProcessId(0), ProtocolConfig::new(3));
    e.on_pdu(ProcessId(1), data(1, 2, vec![Mid::new(ProcessId(1), 1)]));
    e.on_pdu(ProcessId(2), data(2, 2, vec![Mid::new(ProcessId(2), 1)]));
    let st = e.stats();
    assert_eq!(st.waiting, 2);
    assert_eq!(st.history_len, 0);
    e.on_pdu(ProcessId(1), data(1, 1, vec![]));
    assert_eq!(e.stats().waiting, 1);
    assert_eq!(e.stats().processed, 2);
}

#[test]
fn future_decision_is_adopted_monotonically() {
    // Decisions may skip subruns (we missed some); adoption is monotone in
    // subrun number regardless of gaps.
    let mut e = Engine::new(ProcessId(0), ProtocolConfig::new(3));
    for s in [3u64, 7, 5, 9] {
        let mut d = Decision::genesis(3);
        d.subrun = Subrun(s);
        e.on_pdu(ProcessId(1), Pdu::decision(d));
    }
    assert_eq!(e.last_decision().subrun, Subrun(9));
    assert_eq!(e.stats().decisions_applied, 3, "3, 7, 9 applied; 5 stale");
}

#[test]
fn max_processed_pointing_at_self_never_self_recovers() {
    let mut e = Engine::new(ProcessId(1), ProtocolConfig::new(2));
    // Decision claims WE are most updated but with a seq we don't have
    // (inconsistent/stale info). We must not send a recovery request to
    // ourselves.
    let mut d = Decision::genesis(2);
    d.subrun = Subrun(1);
    d.max_processed[0] = MaxProcessed {
        holder: ProcessId(1),
        seq: 4,
    };
    e.on_pdu(ProcessId(0), Pdu::decision(d));
    e.begin_round(Round(3)); // decision phase triggers recovery scan
    let sends: Vec<Output> = drain(&mut e)
        .into_iter()
        .filter(|o| {
            matches!(
                o,
                Output::Send { pdu, .. }
                    if matches!(**pdu, Pdu::RecoveryRq(_) | Pdu::RecoveryBatchRq(_))
            )
        })
        .collect();
    assert!(sends.is_empty(), "self-recovery attempted: {sends:?}");
}

#[test]
fn engine_stats_snapshot_is_consistent() {
    let mut e = Engine::new(ProcessId(0), ProtocolConfig::new(1));
    e.submit(Bytes::from_static(b"a"), &[]).unwrap();
    e.submit(Bytes::from_static(b"b"), &[]).unwrap();
    for r in 0..4 {
        e.begin_round(Round(r));
        let _ = drain(&mut e);
    }
    let st = e.stats();
    assert_eq!(st.processed, 2);
    assert_eq!(st.decisions_made, 2);
    assert_eq!(st.decisions_applied, 2);
    assert_eq!(st.recovery_requests, 0);
    assert_eq!(st.discarded, 0);
}

#[test]
fn snapshot_reflects_engine_state() {
    let mut e = Engine::new(ProcessId(0), ProtocolConfig::new(3));
    e.submit(Bytes::from_static(b"snap"), &[]).unwrap();
    e.begin_round(Round(0));
    let _ = drain(&mut e);
    e.on_pdu(ProcessId(1), data(1, 2, vec![Mid::new(ProcessId(1), 1)]));
    let snap = e.snapshot();
    assert_eq!(snap.me, 0);
    assert_eq!(snap.status, "Active");
    assert_eq!(snap.frontier, vec![1, 0, 0]);
    assert_eq!(snap.gauges.history_len, 1);
    assert!(snap.gauges.history_bytes >= 4);
    assert_eq!(snap.gauges.waiting_len, 1);
    assert_eq!(snap.alive, vec![true, true, true]);
    assert_eq!(snap.stats.processed, 1);
}
