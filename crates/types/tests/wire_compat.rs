//! The wire format is pinned independently of the codec's structure.
//!
//! `wire.rs` encodes vectors of fixed-width elements in bulk (one bounds
//! check, staged `put_slice`s). This file keeps a field-by-field reference
//! encoder that knows nothing of that and demands byte identity from the
//! real one, for every `Pdu` variant at group sizes on both sides of the
//! 256-byte staging chunk of every element width (1, 4, 8, 10 and 18
//! bytes: 257 elements cross it for all of them).

use std::sync::Arc;

use bytes::Bytes;
use urcgc_types::wire::{frame_checksum, FRAME_TRAILER_LEN};
use urcgc_types::{
    decode_pdu, encode_pdu, DataMsg, Decision, FrameCache, MaxProcessed, Mid, Pdu, ProcessId,
    RecoveryBatch, RecoveryBatchRq, RecoveryReply, RecoveryRq, RecoveryRun, RecoveryWant,
    RequestMsg, Round, Subrun, WireDecode, WireEncode, WireError, NO_SEQ,
};

const SIZES: [usize; 5] = [1, 3, 40, 100, 257];

/// The reference encoder: every integer little-endian, every vector a
/// `u32` count followed by its elements one field at a time.
#[derive(Default)]
struct Ref(Vec<u8>);

impl Ref {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn mid(&mut self, m: &Mid) {
        self.u16(m.origin.0);
        self.u64(m.seq);
    }
    fn u64s(&mut self, v: &[u64]) {
        self.u32(v.len() as u32);
        v.iter().for_each(|&x| self.u64(x));
    }
    fn bools(&mut self, v: &[bool]) {
        self.u32(v.len() as u32);
        v.iter().for_each(|&x| self.u8(x as u8));
    }
    fn data(&mut self, m: &DataMsg) {
        self.mid(&m.mid);
        self.u32(m.deps.len() as u32);
        m.deps.iter().for_each(|d| self.mid(d));
        self.u64(m.round.0);
        self.u32(m.payload.len() as u32);
        self.0.extend_from_slice(&m.payload);
    }
    fn messages(&mut self, msgs: &[Arc<DataMsg>]) {
        self.u32(msgs.len() as u32);
        msgs.iter().for_each(|m| self.data(m));
    }
    fn decision(&mut self, d: &Decision) {
        self.u64(d.subrun.0);
        self.u16(d.coordinator.0);
        self.u8(d.full_group as u8);
        self.u64s(&d.stable);
        self.u32(d.attempts.len() as u32);
        d.attempts.iter().for_each(|&a| self.u32(a));
        self.bools(&d.process_state);
        self.u32(d.max_processed.len() as u32);
        for m in &d.max_processed {
            self.u16(m.holder.0);
            self.u64(m.seq);
        }
        self.u64s(&d.min_waiting);
        self.bools(&d.covered);
    }
    fn pdu(&mut self, pdu: &Pdu) {
        match pdu {
            Pdu::Data(m) => {
                self.u8(1);
                self.data(m);
            }
            Pdu::Request(r) => {
                self.u8(2);
                self.u16(r.sender.0);
                self.u64(r.subrun.0);
                self.u64s(&r.last_processed);
                self.u64s(&r.waiting);
                self.decision(&r.prev_decision);
                self.u8(r.forwarded as u8);
            }
            Pdu::Decision(d) => {
                self.u8(3);
                self.decision(d);
            }
            Pdu::RecoveryRq(rq) => {
                self.u8(4);
                self.u16(rq.requester.0);
                self.u16(rq.origin.0);
                self.u64(rq.after_seq);
                self.u64(rq.upto_seq);
            }
            Pdu::RecoveryReply(rep) => {
                self.u8(5);
                self.u16(rep.responder.0);
                self.u16(rep.origin.0);
                self.messages(&rep.messages);
            }
            Pdu::RecoveryBatchRq(rq) => {
                self.u8(6);
                self.u16(rq.requester.0);
                self.u32(rq.wants.len() as u32);
                for w in &rq.wants {
                    self.u16(w.origin.0);
                    self.u64(w.after_seq);
                    self.u64(w.upto_seq);
                }
            }
            Pdu::RecoveryBatch(batch) => {
                self.u8(7);
                self.u16(batch.responder.0);
                self.u32(batch.runs.len() as u32);
                for run in &batch.runs {
                    self.u16(run.origin.0);
                    self.messages(&run.messages);
                }
            }
        }
    }
}

/// The reference frame of `pdu`: reference body plus the checksum trailer.
fn reference_frame(pdu: &Pdu) -> Vec<u8> {
    let mut out = Ref::default();
    out.pdu(pdu);
    seal(&out.0).to_vec()
}

fn seal(body: &[u8]) -> Bytes {
    let mut frame = body.to_vec();
    frame.extend_from_slice(&frame_checksum(body).to_le_bytes());
    Bytes::from(frame)
}

/// Values that use every byte of their width and differ by index.
fn word(i: usize, salt: u64) -> u64 {
    match i % 5 {
        0 => NO_SEQ,
        1 => u64::MAX - i as u64,
        _ => (i as u64 + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    }
}

fn pid(i: usize) -> ProcessId {
    ProcessId((i * 251 % 65_521) as u16)
}

fn decision(n: usize) -> Decision {
    Decision {
        subrun: Subrun(word(n, 1)),
        coordinator: pid(n),
        full_group: n % 2 == 1,
        stable: (0..n).map(|i| word(i, 2)).collect(),
        attempts: (0..n).map(|i| word(i, 3) as u32).collect(),
        process_state: (0..n).map(|i| i % 3 != 0).collect(),
        max_processed: (0..n)
            .map(|i| MaxProcessed {
                holder: pid(i + 1),
                seq: word(i, 4),
            })
            .collect(),
        min_waiting: (0..n).map(|i| word(i, 5)).collect(),
        covered: (0..n).map(|i| i % 2 == 0).collect(),
    }
}

fn data(i: usize, deps: usize) -> Arc<DataMsg> {
    Arc::new(DataMsg {
        mid: Mid::new(pid(i), word(i, 6)),
        deps: (0..deps).map(|d| Mid::new(pid(d), word(d, 7))).collect(),
        round: Round(word(i, 8)),
        payload: (0..i % 7).map(|b| (b * 37 + i) as u8).collect(),
    })
}

/// Every `Pdu` variant with every vector `n` wide.
fn pdus(n: usize) -> Vec<Pdu> {
    vec![
        Pdu::Data(data(n, n)),
        Pdu::Request(RequestMsg {
            sender: pid(n),
            subrun: Subrun(word(n, 9)),
            last_processed: (0..n).map(|i| word(i, 10)).collect(),
            waiting: (0..n).map(|i| word(i, 11)).collect(),
            prev_decision: Arc::new(decision(n)),
            forwarded: n.is_multiple_of(2),
        }),
        Pdu::decision(decision(n)),
        Pdu::RecoveryRq(RecoveryRq {
            requester: pid(n),
            origin: pid(n + 1),
            after_seq: word(n, 12),
            upto_seq: word(n, 13),
        }),
        Pdu::RecoveryReply(RecoveryReply {
            responder: pid(n),
            origin: pid(n + 1),
            messages: (0..n).map(|i| data(i, i % 4)).collect(),
        }),
        Pdu::RecoveryBatchRq(RecoveryBatchRq {
            requester: pid(n),
            wants: (0..n)
                .map(|i| RecoveryWant {
                    origin: pid(i),
                    after_seq: word(i, 14),
                    upto_seq: word(i, 15),
                })
                .collect(),
        }),
        Pdu::RecoveryBatch(RecoveryBatch {
            responder: pid(n),
            runs: (0..n)
                .map(|i| RecoveryRun {
                    origin: pid(i),
                    messages: (0..i % 3).map(|m| data(i + m, m)).collect(),
                })
                .collect(),
        }),
    ]
}

#[test]
fn every_frame_is_byte_identical_to_the_reference_encoding() {
    let mut cache = FrameCache::new();
    for n in SIZES {
        for pdu in pdus(n) {
            let want = reference_frame(&pdu);
            let kind = pdu.kind();
            assert_eq!(
                pdu.encoded_len() + FRAME_TRAILER_LEN,
                want.len(),
                "{kind:?} n={n}: encoded_len"
            );
            assert_eq!(encode_pdu(&pdu), want, "{kind:?} n={n}: encode_pdu");
            assert_eq!(cache.encode(&pdu), want, "{kind:?} n={n}: FrameCache");
            let back = decode_pdu(&Bytes::from(want)).expect("reference frame decodes");
            assert_eq!(back, pdu, "{kind:?} n={n}: roundtrip");
        }
    }
}

#[test]
fn truncation_at_every_offset_is_an_error_never_a_panic() {
    for n in SIZES {
        for pdu in pdus(n) {
            let frame = encode_pdu(&pdu);
            let body = frame.slice(..frame.len() - FRAME_TRAILER_LEN);
            // The structural decoder on its own: a cut frame would be
            // turned down by the trailer before reaching it.
            for cut in 0..body.len() {
                assert!(
                    Pdu::decode(&mut body.slice(..cut)).is_err(),
                    "{:?} n={n}: body cut at {cut} accepted",
                    pdu.kind()
                );
            }
            for cut in [0, 1, frame.len() / 2, frame.len() - 1] {
                assert!(decode_pdu(&frame.slice(..cut)).is_err());
            }
        }
    }
}

#[test]
fn a_bad_bool_inside_a_vector_is_still_named() {
    for n in [3usize, 40, 257] {
        let frame = encode_pdu(&Pdu::decision(decision(n)));
        let mut body = frame[..frame.len() - FRAME_TRAILER_LEN].to_vec();
        // tag + subrun + coordinator + full_group, then `stable` and
        // `attempts` with their counts, then the count of `process_state`.
        let process_state = 1 + 8 + 2 + 1 + (4 + 8 * n) + (4 + 4 * n) + 4;
        body[process_state + n / 2] = 2;
        assert_eq!(
            decode_pdu(&seal(&body)),
            Err(WireError::BadBool { value: 2 }),
            "n={n}"
        );
    }
}
