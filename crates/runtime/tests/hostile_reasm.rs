//! Hostile datagrams must not buy memory, and cost at most an omission.
//!
//! A `TFrame::Data` header names its transfer's `frag_count` (a `u16`);
//! nothing vouches for it. If the reassembler reserved a slot per
//! announced fragment when a transfer's first one arrives, a 20-byte
//! datagram naming 65 535 fragments would pin 2 MiB under a fresh
//! `(src, xfer)` key until its TTL runs out. A `TFrame::Parity` names a
//! `frag_count` and a `frame_len` the same way, and what it rebuilds is
//! only as good as the frame trailer says. This file holds one test, so
//! the process-wide allocation counter sees the reassembler alone.

use std::time::Duration;

use bytes::Bytes;
use urcgc::{Node, Output};
use urcgc_metrics::alloc::CountingAlloc;
use urcgc_runtime::{Fragmenter, Reassembler};
use urcgc_transport::{TFrame, PARITY_HEADER_LEN};
use urcgc_types::{DataMsg, GroupId, Mid, Pdu, ProcessId, ProtocolConfig, Round};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn hostile_datagrams_cost_an_omission_and_no_memory() {
    a_transfer_holds_what_arrived_not_what_was_announced();
    a_parity_that_fits_no_frame_is_malformed();
    a_parity_holds_what_arrived_not_what_it_announced();
    a_parity_cannot_reshape_an_open_transfer();
    fragments_contradicting_their_parity_drop_the_transfer();
    a_parity_that_rebuilds_garbage_is_an_omission();
}

const TTL: Duration = Duration::from_secs(2);
const HOSTILE: u64 = 64;

fn parity(xfer: u64, frag_count: u16, frame_len: u32, chunk: usize) -> Bytes {
    TFrame::Parity {
        xfer,
        src: ProcessId(9999),
        frag_count,
        frame_len,
        xor: Bytes::from(vec![0x5A; chunk]),
    }
    .encode()
}

fn fragment(xfer: u64, frag_index: u16, frag_count: u16, len: usize) -> Bytes {
    TFrame::Data {
        xfer,
        src: ProcessId(9999),
        frag_index,
        frag_count,
        payload: Bytes::from(vec![0xA5; len]),
    }
    .encode()
}

/// Feeds `datagrams` (none completes) and returns the heap bytes the
/// reassembler holds for them afterwards.
fn held_after(reasm: &mut Reassembler, datagrams: Vec<Bytes>) -> isize {
    let before = CountingAlloc::live();
    for datagram in datagrams {
        assert!(reasm.accept(datagram, Duration::ZERO).is_none());
    }
    CountingAlloc::live() - before
}

/// Every shape the decoder must refuse: each costs one `malformed`, opens
/// nothing, holds nothing.
fn a_parity_that_fits_no_frame_is_malformed() {
    // (frag_count, frame_len, chunk): 3 chunks of 8 carry 17..=24 bytes.
    let shapes = [
        (3, 16, 8),       // short of the last chunk
        (3, 25, 8),       // longer than the chunks
        (3, 0, 8),        // no frame at all
        (3, 17, 0),       // empty XOR
        (0, 8, 8),        // no fragments
        (1, 8, 8),        // a single fragment has no parity
        (u16::MAX, 1, 1), // 65 535 one-byte chunks are not one byte
        (u16::MAX, u32::MAX, 1400),
    ];
    for (frag_count, frame_len, chunk) in shapes {
        let mut reasm = Reassembler::new(TTL);
        let datagrams = (0..HOSTILE)
            .map(|xfer| parity(xfer, frag_count, frame_len, chunk))
            .collect();
        let held = held_after(&mut reasm, datagrams);
        let shape = (frag_count, frame_len, chunk);
        assert_eq!(reasm.malformed(), HOSTILE, "{shape:?}");
        assert_eq!((reasm.partials(), reasm.remembered()), (0, 0), "{shape:?}");
        assert!(
            held < 1024,
            "{shape:?}: {held} bytes held for refused datagrams"
        );
    }
    // A header cut short is malformed like any other truncation.
    let mut reasm = Reassembler::new(TTL);
    let cut = parity(1, 3, 24, 8).slice(..PARITY_HEADER_LEN - 1);
    assert!(reasm.accept(cut, Duration::ZERO).is_none());
    assert_eq!(reasm.malformed(), 1);
}

/// A well-formed parity naming 65 535 fragments opens a transfer that
/// holds the datagram and no more.
fn a_parity_holds_what_arrived_not_what_it_announced() {
    let mut reasm = Reassembler::new(TTL);
    let datagrams = (0..HOSTILE)
        .map(|xfer| parity(xfer, u16::MAX, u32::from(u16::MAX), 1))
        .collect();
    let held = held_after(&mut reasm, datagrams);
    assert_eq!(reasm.malformed(), 0);
    assert_eq!(reasm.partials(), HOSTILE as usize, "each opened a transfer");
    assert!(held < 64 * 1024, "{held} bytes held for 64 parities");
    assert_eq!(reasm.evict_expired(TTL), HOSTILE as usize);
}

/// A parity disagreeing with the open transfer's fragment count is dropped
/// and the original kept — which still completes.
fn a_parity_cannot_reshape_an_open_transfer() {
    let mut reasm = Reassembler::new(TTL);
    assert!(reasm.accept(fragment(7, 0, 2, 8), Duration::ZERO).is_none());
    let held = held_after(
        &mut reasm,
        (0..HOSTILE).map(|_| parity(7, 3, 24, 8)).collect(),
    );
    assert_eq!((reasm.malformed(), reasm.partials()), (HOSTILE, 1));
    assert!(held < 1024, "{held} bytes held for refused parities");
    let done = reasm.accept(fragment(7, 1, 2, 3), Duration::ZERO);
    assert_eq!(done, Some((ProcessId(9999), Bytes::from(vec![0xA5; 11]))));
    assert_eq!(reasm.repaired(), 0);
}

/// Held fragments whose lengths are not what the parity's `frame_len`
/// implies: one `malformed` for the transfer, which is dropped whole and
/// remembered, so its stragglers open nothing.
fn fragments_contradicting_their_parity_drop_the_transfer() {
    let mut reasm = Reassembler::new(TTL);
    let mut datagrams = Vec::new();
    for xfer in 0..HOSTILE {
        // 3 fragments of 8 bytes, 20 in all: fragment 1 must be 8 long.
        datagrams.push(parity(xfer, 3, 20, 8));
        datagrams.push(fragment(xfer, 0, 3, 8));
        datagrams.push(fragment(xfer, 1, 3, 5));
        datagrams.push(fragment(xfer, 2, 3, 4));
    }
    let held = held_after(&mut reasm, datagrams);
    assert_eq!(reasm.malformed(), HOSTILE, "one per transfer");
    assert_eq!((reasm.partials(), reasm.repaired()), (0, 0));
    assert_eq!(reasm.remembered(), HOSTILE as usize);
    assert!(held < 64 * 1024, "{held} bytes held for dropped transfers");
}

/// A parity whose XOR was damaged on the way rebuilds a frame that is not
/// the sender's. The reassembler cannot tell; the frame trailer can: one
/// `undecodable`, nothing delivered — an omission.
fn a_parity_that_rebuilds_garbage_is_an_omission() {
    let group = GroupId(0);
    let cfg = ProtocolConfig::new(3);
    let mut sender = Node::single(ProcessId(0), group, cfg.clone());
    let pdu = Pdu::data(DataMsg {
        mid: Mid::new(ProcessId(0), 1),
        deps: vec![],
        round: Round(1),
        payload: Bytes::from(vec![7u8; 5000]),
    });
    let grams = Fragmenter::new(ProcessId(0), 1400).split(&sender.encode(group, &pdu));
    assert_eq!(grams.len(), 5, "4 fragments and their parity");

    for damaged in [false, true] {
        let mut receiver = Node::single(ProcessId(1), group, cfg.clone());
        let mut reasm = Reassembler::new(TTL);
        let mut frame = None;
        for (i, gram) in grams.iter().enumerate() {
            let mut raw = gram.to_vec();
            match i {
                1 => continue, // lost
                4 if damaged => raw[PARITY_HEADER_LEN + 100] ^= 0x10,
                _ => {}
            }
            frame = frame.or(reasm.accept(Bytes::from(raw), Duration::ZERO));
        }
        let (from, frame) = frame.expect("three fragments and the parity rebuild the frame");
        assert_eq!((from, reasm.repaired()), (ProcessId(0), 1));
        let accepted = receiver.on_frame(from, &frame);
        let delivered = std::iter::from_fn(|| receiver.poll_output())
            .filter(|(_, out)| matches!(out, Output::Deliver { .. }))
            .count();
        if damaged {
            assert_eq!(accepted, None);
            assert_eq!((receiver.undecodable(), delivered), (1, 0));
        } else {
            assert_eq!(accepted, Some(group));
            assert_eq!((receiver.undecodable(), delivered), (0, 1));
        }
    }
}

fn a_transfer_holds_what_arrived_not_what_was_announced() {
    let datagrams: Vec<Bytes> = (0..HOSTILE)
        .map(|xfer| {
            TFrame::Data {
                xfer,
                src: ProcessId(9999),
                frag_index: 0,
                frag_count: u16::MAX,
                payload: Bytes::from_static(b"x"),
            }
            .encode()
        })
        .collect();
    let on_the_wire: usize = datagrams.iter().map(Bytes::len).sum();
    assert_eq!(on_the_wire, 20 * HOSTILE as usize);

    let mut reasm = Reassembler::new(Duration::from_secs(2));
    let before = CountingAlloc::live();
    for datagram in datagrams {
        assert!(reasm.accept(datagram, Duration::ZERO).is_none());
    }
    let held = CountingAlloc::live() - before;
    assert_eq!(reasm.partials(), HOSTILE as usize, "each opened a transfer");
    assert!(
        held < 64 * 1024,
        "{on_the_wire} hostile bytes on the wire hold {held} bytes in the reassembler"
    );
    // The TTL frees what little there is.
    assert_eq!(
        reasm.evict_expired(Duration::from_secs(2)),
        HOSTILE as usize
    );
    assert_eq!(reasm.partials(), 0);
}
