//! What the frame integrity trailer is relied on to reject.
//!
//! The checksum kernel (`wire::frame_checksum`) reads the body in 16-byte
//! steps of four lanes and finishes with a byte-serial tail, so the sweeps
//! below run over frames of every `Pdu` variant, over every body length
//! mod 16, and over a 4 KiB payload (hundreds of steps per lane). The
//! single-bit and single-word properties are guarantees of the kernel's
//! construction, not odds; the pinned vectors keep the wire format from
//! drifting unnoticed.

use std::sync::Arc;

use bytes::Bytes;
use urcgc_types::wire::{frame_checksum, FRAME_TRAILER_LEN};
use urcgc_types::{
    decode_pdu, encode_pdu, DataMsg, Decision, Mid, Pdu, ProcessId, RecoveryBatch, RecoveryBatchRq,
    RecoveryReply, RecoveryRq, RecoveryRun, RecoveryWant, RequestMsg, Round, Subrun, WireError,
};

fn data(payload_len: usize) -> Arc<DataMsg> {
    Arc::new(DataMsg {
        mid: Mid::new(ProcessId(3), 12),
        deps: vec![Mid::new(ProcessId(0), 1), Mid::new(ProcessId(2), 4)],
        round: Round(8),
        payload: (0..payload_len).map(|i| (i * 31 + 7) as u8).collect(),
    })
}

/// One frame per `Pdu` variant, a 4 KiB data frame, and data frames whose
/// body lengths cover every residue mod 16 (each twice).
fn sample_frames() -> Vec<Bytes> {
    let mut pdus = vec![
        Pdu::Request(RequestMsg {
            sender: ProcessId(2),
            subrun: Subrun(5),
            last_processed: vec![1, 0, 7],
            waiting: vec![0, 4, 0],
            prev_decision: Arc::new(Decision::genesis(3)),
            forwarded: true,
        }),
        Pdu::decision(Decision::genesis(5)),
        Pdu::RecoveryRq(RecoveryRq {
            requester: ProcessId(4),
            origin: ProcessId(0),
            after_seq: 2,
            upto_seq: 9,
        }),
        Pdu::RecoveryReply(RecoveryReply {
            responder: ProcessId(1),
            origin: ProcessId(3),
            messages: vec![data(5)],
        }),
        Pdu::RecoveryBatchRq(RecoveryBatchRq {
            requester: ProcessId(4),
            wants: vec![RecoveryWant {
                origin: ProcessId(0),
                after_seq: 2,
                upto_seq: 9,
            }],
        }),
        Pdu::RecoveryBatch(RecoveryBatch {
            responder: ProcessId(1),
            runs: vec![RecoveryRun {
                origin: ProcessId(3),
                messages: vec![data(9), data(0)],
            }],
        }),
        Pdu::Data(data(4096)),
    ];
    pdus.extend((0..32).map(|len| Pdu::Data(data(len))));
    let frames: Vec<Bytes> = pdus.iter().map(encode_pdu).collect();
    let residues: std::collections::BTreeSet<usize> = frames
        .iter()
        .map(|f| (f.len() - FRAME_TRAILER_LEN) % 16)
        .collect();
    assert_eq!(residues.len(), 16, "a body length mod 16 is not covered");
    frames
}

fn is_checksum_mismatch(raw: &[u8]) -> bool {
    matches!(
        decode_pdu(&Bytes::copy_from_slice(raw)),
        Err(WireError::ChecksumMismatch { .. })
    )
}

#[test]
fn every_single_bit_flip_is_rejected() {
    for frame in sample_frames() {
        assert!(decode_pdu(&frame).is_ok());
        let mut raw = frame.to_vec();
        for bit in 0..raw.len() * 8 {
            raw[bit / 8] ^= 1 << (bit % 8);
            assert!(
                is_checksum_mismatch(&raw),
                "flip of bit {bit} in a {}-byte frame slipped through",
                raw.len()
            );
            raw[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

#[test]
fn a_change_confined_to_one_aligned_word_or_one_tail_byte_is_rejected() {
    // Cannot be swept exhaustively (2^32 values per word); a multiplicative
    // sequence of masks stands in for "any change".
    let frame = encode_pdu(&Pdu::Data(data(1000)));
    let body_len = frame.len() - FRAME_TRAILER_LEN;
    assert_ne!(body_len % 16, 0, "the frame must have a byte-serial tail");
    let lanes_end = body_len - body_len % 16;
    let mut raw = frame.to_vec();
    let mut mask: u32 = 1;
    for start in (0..lanes_end).step_by(4) {
        for _ in 0..16 {
            mask = mask.wrapping_mul(0x2545_F491).wrapping_add(0x9E37);
            let mask = mask.max(1).to_le_bytes();
            for (b, m) in raw[start..start + 4].iter_mut().zip(mask) {
                *b ^= m;
            }
            assert!(is_checksum_mismatch(&raw), "word at {start}");
            for (b, m) in raw[start..start + 4].iter_mut().zip(mask) {
                *b ^= m;
            }
        }
    }
    for at in lanes_end..body_len {
        for delta in 1..=255u8 {
            raw[at] ^= delta;
            assert!(is_checksum_mismatch(&raw), "tail byte at {at}");
            raw[at] ^= delta;
        }
    }
    assert_eq!(raw, frame.to_vec());
}

#[test]
fn truncation_and_zero_padding_are_rejected() {
    for frame in sample_frames() {
        let body = &frame[..frame.len() - FRAME_TRAILER_LEN];
        let sum = frame_checksum(body);
        for k in 1..=16 {
            // The frame as a receiver would see it: cut short, or with
            // zeros appended behind the trailer.
            assert!(
                decode_pdu(&frame.slice(..frame.len() - k)).is_err(),
                "frame cut by {k} accepted"
            );
            let mut padded = frame.to_vec();
            padded.resize(frame.len() + k, 0);
            assert!(
                decode_pdu(&Bytes::from(padded)).is_err(),
                "frame padded by {k} accepted"
            );
            // The kernel itself: a shorter or zero-extended body under the
            // original trailer.
            if let Some(cut) = body.len().checked_sub(k) {
                assert_ne!(frame_checksum(&body[..cut]), sum, "body cut by {k}");
            }
            let mut extended = body.to_vec();
            extended.resize(body.len() + k, 0);
            assert_ne!(frame_checksum(&extended), sum, "body extended by {k}");
        }
    }
}

#[test]
fn zero_bodies_of_different_lengths_differ() {
    // All-zero bodies feed every lane and tail step the same input; the
    // folded length is what tells them apart.
    let zeros = [0u8; 96];
    let sums: std::collections::BTreeSet<u32> = (0..=zeros.len())
        .map(|len| frame_checksum(&zeros[..len]))
        .collect();
    assert_eq!(sums.len(), zeros.len() + 1);
}

#[test]
fn known_answers_pin_the_wire_format() {
    let ramp: Vec<u8> = (0..4099u32).map(|i| (i * 31 + 7) as u8).collect();
    // Cross-checked against an independent model of the kernel.
    assert_eq!(frame_checksum(b""), 0xE7D8_F98C);
    assert_eq!(frame_checksum(b"urcgc"), 0xF147_3EF3);
    assert_eq!(frame_checksum(&ramp[..16]), 0x787C_6104);
    assert_eq!(frame_checksum(&ramp), 0x3087_C370);
    let frame = encode_pdu(&Pdu::RecoveryRq(RecoveryRq {
        requester: ProcessId(4),
        origin: ProcessId(0),
        after_seq: 2,
        upto_seq: 9,
    }));
    assert_eq!(
        frame[..],
        [
            4, 4, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, // body
            0xEE, 0x38, 0x53, 0xD2 // trailer, little-endian
        ]
    );
}
