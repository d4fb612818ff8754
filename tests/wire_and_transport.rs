//! Cross-crate wire compatibility: the engine's PDUs survive the codec at
//! realistic group sizes, fit the datagram budgets the paper quotes, and
//! travel intact through the §5 transport entity's fragmentation and
//! `h`-resilient retransmission.

use bytes::Bytes;
use urcgc_repro::transport::{TOutput, TransportConfig, TransportEntity};
use urcgc_repro::types::{
    decode_pdu, encode_pdu, DataMsg, Decision, Mid, Pdu, ProcessId, ProtocolConfig, RequestMsg,
    Round, Subrun, WireEncode,
};
use urcgc_repro::urcgc::{Engine, Output};

/// Every PDU the engine emits during a live run decodes back to itself.
#[test]
fn live_engine_traffic_roundtrips_through_codec() {
    let cfg = ProtocolConfig::new(8);
    let mut engines: Vec<Engine> = (0..8)
        .map(|i| Engine::new(ProcessId::from_index(i), cfg.clone()))
        .collect();
    for e in engines.iter_mut() {
        e.submit(Bytes::from_static(b"payload"), &[]).unwrap();
    }
    let mut frames_checked = 0;
    for round in 0..12u64 {
        for e in engines.iter_mut() {
            e.begin_round(Round(round));
        }
        // Route while checking every frame through the codec.
        loop {
            let mut moved = false;
            for i in 0..engines.len() {
                let me = engines[i].me();
                while let Some(out) = engines[i].poll_output() {
                    moved = true;
                    let (dests, pdu): (Vec<usize>, Pdu) = match out {
                        Output::Send { to, pdu } => (vec![to.index()], *pdu),
                        Output::Broadcast { pdu } => (
                            (0..engines.len()).filter(|&j| j != i).collect(),
                            Pdu::clone(&pdu),
                        ),
                        _ => continue,
                    };
                    let frame = encode_pdu(&pdu);
                    assert_eq!(
                        frame.len(),
                        pdu.encoded_len() + urcgc_repro::types::wire::FRAME_TRAILER_LEN
                    );
                    let back = decode_pdu(&frame).expect("live frame decodes");
                    assert_eq!(back, pdu);
                    frames_checked += 1;
                    for j in dests {
                        engines[j].on_pdu(me, back.clone());
                    }
                }
            }
            if !moved {
                break;
            }
        }
    }
    // 12 rounds of an 8-member group: 8 data broadcasts + 7 requests ×
    // 6 subruns + 6 decisions = 56 distinct PDUs.
    assert!(
        frames_checked >= 56,
        "only {frames_checked} frames exercised"
    );
}

/// The paper's datagram-budget claims: for n = 15 the control messages fit
/// a 576-byte minimum IP datagram; for n = 40 they fit an Ethernet frame
/// (1500-byte MTU).
#[test]
fn control_messages_fit_the_papers_datagram_budgets() {
    for (n, budget) in [(15usize, 576usize), (40, 1500)] {
        let dec = Pdu::decision(Decision::genesis(n));
        assert!(
            dec.encoded_len() <= budget,
            "n={n}: decision {}B exceeds {budget}B",
            dec.encoded_len()
        );
        let req = Pdu::Request(RequestMsg {
            sender: ProcessId(0),
            subrun: Subrun(0),
            last_processed: vec![u64::MAX; n],
            waiting: vec![u64::MAX; n],
            prev_decision: std::sync::Arc::new(Decision::genesis(n)),
            forwarded: false,
        });
        // Requests carry a decision plus two vectors; they fit Ethernet for
        // both sizes.
        assert!(
            req.encoded_len() <= 2 * budget,
            "n={n}: request {}B exceeds {}B",
            req.encoded_len(),
            2 * budget
        );
    }
}

/// A large urcgc PDU (recovery reply carrying many messages) travels
/// through the transport entity across a small-MTU link, fragmented and
/// reassembled, and decodes at the far end.
#[test]
fn recovery_reply_fragments_across_small_mtu() {
    let reply = Pdu::RecoveryReply(urcgc_repro::types::RecoveryReply {
        responder: ProcessId(1),
        origin: ProcessId(0),
        messages: (1..=40u64)
            .map(|s| DataMsg {
                mid: Mid::new(ProcessId(0), s),
                deps: s
                    .checked_sub(1)
                    .filter(|&p| p > 0)
                    .map(|p| Mid::new(ProcessId(0), p))
                    .into_iter()
                    .collect(),
                round: Round(s),
                payload: Bytes::from(vec![s as u8; 48]),
            })
            .map(std::sync::Arc::new)
            .collect(),
    });
    let sdu = encode_pdu(&reply);
    assert!(
        sdu.len() > 1500,
        "SDU should exceed one MTU ({} B)",
        sdu.len()
    );

    let cfg = TransportConfig {
        mtu: 512,
        retx_interval: 1,
        max_retries: 8,
        ..Default::default()
    };
    let mut a = TransportEntity::new(ProcessId(1), cfg);
    let mut b = TransportEntity::new(ProcessId(2), cfg);
    a.t_data_rq(&[ProcessId(2)], 1, sdu.clone());

    // Pump with every 3rd frame towards b dropped, relying on retransmit.
    let mut drop_counter = 0u32;
    let mut delivered: Option<Bytes> = None;
    for _ in 0..50 {
        let mut quiet = true;
        while let Some(o) = a.poll_output() {
            quiet = false;
            if let TOutput::Send { frame, .. } = o {
                drop_counter += 1;
                if !drop_counter.is_multiple_of(3) {
                    b.on_frame(ProcessId(1), frame);
                }
            }
        }
        while let Some(o) = b.poll_output() {
            quiet = false;
            match o {
                TOutput::Send { frame, .. } => a.on_frame(ProcessId(2), frame),
                TOutput::Ind { from, data } => {
                    assert_eq!(from, ProcessId(1));
                    delivered = Some(data);
                }
                _ => {}
            }
        }
        if delivered.is_some() {
            break;
        }
        if quiet {
            a.on_tick();
        }
    }
    let data = delivered.expect("SDU reassembled despite drops");
    assert_eq!(data, sdu);
    let back = decode_pdu(&data).expect("reassembled PDU decodes");
    assert_eq!(back, reply);
}

/// `h = n` semantics push reliability down the stack: the transfer only
/// confirms once *all* destinations ack, standing in for the paper's
/// observation that large `h` shifts retransmission away from
/// recovery-from-history.
#[test]
fn h_equals_n_confirms_only_after_all_acks() {
    let dests: Vec<ProcessId> = (1..=4).map(ProcessId).collect();
    let cfg = TransportConfig::default();
    let mut sender = TransportEntity::new(ProcessId(0), cfg);
    let mut receivers: Vec<TransportEntity> = dests
        .iter()
        .map(|&p| TransportEntity::new(p, cfg))
        .collect();
    sender.t_data_rq(&dests, dests.len(), Bytes::from_static(b"all-or-confirm"));

    let mut confirmed_after = None;
    let mut acked = 0;
    // Deliver to one receiver at a time; confirmation must only appear
    // after the 4th ack returns.
    let mut frames: Vec<(ProcessId, Bytes)> = Vec::new();
    while let Some(o) = sender.poll_output() {
        if let TOutput::Send { to, frame } = o {
            frames.push((to, frame));
        }
    }
    for (to, frame) in frames {
        let r = receivers
            .iter_mut()
            .find(|r| r.reassembling() == 0)
            .unwrap();
        let _ = r;
        let idx = to.index() - 1;
        receivers[idx].on_frame(ProcessId(0), frame);
        while let Some(o) = receivers[idx].poll_output() {
            if let TOutput::Send { frame, .. } = o {
                sender.on_frame(to, frame);
                acked += 1;
            }
        }
        while let Some(o) = sender.poll_output() {
            if matches!(o, TOutput::Confirm { .. }) {
                confirmed_after = Some(acked);
            }
        }
    }
    assert_eq!(confirmed_after, Some(4), "confirm must wait for all acks");
}
