//! A hostile element count must not buy memory.
//!
//! Every vector on the wire is a `u32` count followed by its elements. The
//! decoder accepts counts up to `MAX_VEC_LEN = 2^20`; if it reserved for
//! the count before looking at the bytes behind it, a twenty-byte frame
//! with a valid trailer would force a transient 8 MiB (`Vec<u64>`) to
//! 32 MiB (`Vec<RecoveryRun>`) allocation. This file holds one test, so
//! the process-wide allocation counter sees the decoder alone.

use bytes::Bytes;
use urcgc_metrics::alloc::CountingAlloc;
use urcgc_types::wire::{frame_checksum, MAX_VEC_LEN};
use urcgc_types::{decode_pdu, WireError};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const TAG_DATA: u8 = 1;
const TAG_REQUEST: u8 = 2;
const TAG_DECISION: u8 = 3;
const TAG_RECOVERY_REPLY: u8 = 5;
const TAG_RECOVERY_BATCH_RQ: u8 = 6;
const TAG_RECOVERY_BATCH: u8 = 7;

const PID: [u8; 2] = [0; 2];
const WORD: [u8; 8] = [0; 8];
const MID: [u8; 10] = [0; 10];
const EMPTY_VEC: [u8; 4] = [0; 4];
const ONE_ELEMENT: [u8; 4] = 1u32.to_le_bytes();
/// subrun · coordinator · full_group
const DECISION_HEAD: [u8; 11] = [0; 11];

fn concat(parts: &[&[u8]]) -> Vec<u8> {
    parts.concat()
}

/// Every place a vector count sits in a frame, as the well-formed bytes
/// that lead up to it (earlier vectors empty).
fn bodies_up_to_a_vector_count() -> Vec<(String, Vec<u8>)> {
    let mut cases = vec![
        ("Data.deps".into(), concat(&[&[TAG_DATA], &MID])),
        (
            "RecoveryReply.messages".into(),
            concat(&[&[TAG_RECOVERY_REPLY], &PID, &PID]),
        ),
        (
            "RecoveryReply.messages[0].deps".into(),
            concat(&[&[TAG_RECOVERY_REPLY], &PID, &PID, &ONE_ELEMENT, &MID]),
        ),
        (
            "RecoveryBatchRq.wants".into(),
            concat(&[&[TAG_RECOVERY_BATCH_RQ], &PID]),
        ),
        (
            "RecoveryBatch.runs".into(),
            concat(&[&[TAG_RECOVERY_BATCH], &PID]),
        ),
        (
            "RecoveryBatch.runs[0].messages".into(),
            concat(&[&[TAG_RECOVERY_BATCH], &PID, &ONE_ELEMENT, &PID]),
        ),
    ];
    // sender · subrun, then `last_processed` and `waiting`.
    let request_head = concat(&[&[TAG_REQUEST], &PID, &WORD]);
    for (k, field) in ["last_processed", "waiting"].into_iter().enumerate() {
        let mut body = request_head.clone();
        body.extend(EMPTY_VEC.repeat(k));
        cases.push((format!("Request.{field}"), body));
    }
    let carried = concat(&[&request_head, &EMPTY_VEC, &EMPTY_VEC, &DECISION_HEAD]);
    let broadcast = concat(&[&[TAG_DECISION], &DECISION_HEAD]);
    let fields = [
        "stable",
        "attempts",
        "process_state",
        "max_processed",
        "min_waiting",
        "covered",
    ];
    for (k, field) in fields.into_iter().enumerate() {
        for (owner, head) in [
            ("Request.prev_decision", &carried),
            ("Decision", &broadcast),
        ] {
            let mut body = head.clone();
            body.extend(EMPTY_VEC.repeat(k));
            cases.push((format!("{owner}.{field}"), body));
        }
    }
    cases
}

fn seal(body: &[u8]) -> Bytes {
    let mut frame = body.to_vec();
    frame.extend_from_slice(&frame_checksum(body).to_le_bytes());
    Bytes::from(frame)
}

#[test]
fn a_hostile_vector_count_allocates_no_more_than_the_frame_could_hold() {
    let hostile = (MAX_VEC_LEN as u32 - 1).to_le_bytes();
    let cases = bodies_up_to_a_vector_count();
    assert_eq!(cases.len(), 20, "every vector of every PDU");
    for (name, head) in cases {
        // The count alone, and the count with a few bytes behind it.
        for tail in [&[][..], &[0u8; 7][..]] {
            let frame = seal(&concat(&[&head, &hostile, tail]));
            let before = CountingAlloc::requested();
            let result = decode_pdu(&frame);
            let requested = CountingAlloc::requested() - before;
            assert!(
                matches!(result, Err(WireError::UnexpectedEof { .. })),
                "{name}: {result:?}"
            );
            // In memory an element is at most ~5x its wire size (a 32-byte
            // `RecoveryRun` from 6 bytes); 8x the frame is generous, and
            // five orders of magnitude under what the count asks for.
            assert!(
                requested <= 8 * frame.len(),
                "{name}: a {}-byte frame made the decoder request {requested} bytes",
                frame.len()
            );
        }
    }
}
