//! Property tests for datagram fragmentation/reassembly: arbitrary frames
//! and MTUs, with the adversary permuting, duplicating, and dropping
//! datagrams. The invariants mirror what the runtime needs from
//! [`urcgc_runtime::frag`]: a transfer completes exactly once,
//! byte-identically, iff at most one of its datagrams (fragments and
//! parity) is lost; what arrives after that is dropped without a trace;
//! and a transfer that lost two dies by TTL instead of pinning memory.

use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;

use urcgc_runtime::{Fragmenter, Reassembler};
use urcgc_transport::DATA_HEADER_LEN;
use urcgc_types::ProcessId;

const TTL: Duration = Duration::from_secs(2);

/// Seed-driven Fisher–Yates over `0..len` (the mini proptest harness has
/// no `prop_shuffle`).
fn shuffled(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed;
    for i in (1..len).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

fn permute<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    shuffled(items.len(), seed)
        .into_iter()
        .map(|i| items[i].clone())
        .collect()
}

/// Adversarial schedule: every datagram at least once, every
/// `dup_every`-th twice, in a seed-chosen order.
fn schedule(grams: &[Bytes], seed: u64, dup_every: usize) -> Vec<Bytes> {
    let mut all = grams.to_vec();
    all.extend(grams.iter().step_by(dup_every).cloned());
    permute(&all, seed)
}

/// A frame of `frags` fragments at `payload_mtu` bytes each: exactly full,
/// or with a last fragment of `1..=payload_mtu` bytes chosen by `tail`.
fn frame(
    payload_mtu: usize,
    frags: usize,
    exact: bool,
    tail: prop::sample::Index,
    seed: u64,
) -> Bytes {
    let last = if exact {
        payload_mtu
    } else {
        1 + tail.index(payload_mtu)
    };
    let len = (frags - 1) * payload_mtu + last;
    (0..len as u64)
        .map(|i| (seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes()[7])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Shuffling and duplicating datagrams never corrupts the frame, and a
    /// transfer of two fragments or more completes exactly once: its
    /// replayed datagrams are dropped against the finished-transfer memory
    /// and open nothing. (A single-fragment transfer completes once per
    /// copy — deduplication is the engine's job, at PDU level.)
    #[test]
    fn roundtrip_survives_reorder_and_duplication(
        payload_mtu in 1usize..257,
        frags in 1usize..7,
        exact in any::<bool>(),
        tail in any::<prop::sample::Index>(),
        seed in any::<u64>(),
        dup_every in 1usize..5,
    ) {
        let mtu = DATA_HEADER_LEN + payload_mtu;
        let frame = frame(payload_mtu, frags, exact, tail, seed);
        let mut tx = Fragmenter::new(ProcessId(4), mtu);
        let mut rx = Reassembler::new(TTL);
        let grams = tx.split(&frame);
        prop_assert_eq!(grams.len(), if frags == 1 { 1 } else { frags + 1 });
        prop_assert!(grams.iter().all(|g| g.len() <= mtu));

        let arrivals = schedule(&grams, seed, dup_every);
        let copies = arrivals.len();
        let mut completions = Vec::new();
        for g in arrivals {
            completions.extend(rx.accept(g, Duration::ZERO));
        }
        prop_assert_eq!(completions.len(), if frags == 1 { copies } else { 1 });
        for (src, got) in completions {
            prop_assert_eq!(src, ProcessId(4));
            prop_assert_eq!(got, frame.clone());
        }
        prop_assert_eq!((rx.partials(), rx.malformed()), (0, 0));
        prop_assert_eq!(rx.evict_expired(TTL + TTL), 0);
    }

    /// Losing any one datagram of a multi-fragment transfer — each
    /// fragment in turn, or the parity — loses nothing: the frame
    /// reassembles identically, nothing stays buffered, and every datagram
    /// replayed afterwards is inert.
    #[test]
    fn any_one_lost_datagram_is_rebuilt(
        payload_mtu in 1usize..257,
        frags in 2usize..7,
        exact in any::<bool>(),
        tail in any::<prop::sample::Index>(),
        seed in any::<u64>(),
        dup_every in 1usize..5,
    ) {
        let frame = frame(payload_mtu, frags, exact, tail, seed);
        let mut tx = Fragmenter::new(ProcessId(0), DATA_HEADER_LEN + payload_mtu);
        let grams = tx.split(&frame);
        for lost in 0..grams.len() {
            let mut rx = Reassembler::new(TTL);
            let mut kept = grams.clone();
            kept.remove(lost);
            let mut completions = Vec::new();
            for g in schedule(&kept, seed ^ lost as u64, dup_every) {
                completions.extend(rx.accept(g, Duration::ZERO));
            }
            prop_assert_eq!(&completions, &vec![(ProcessId(0), frame.clone())], "lost {}", lost);
            // A lost fragment can only have come back through the parity.
            let parity_lost = lost == frags;
            prop_assert_eq!(rx.repaired(), u64::from(!parity_lost), "lost {}", lost);
            for g in &grams {
                prop_assert!(rx.accept(g.clone(), Duration::ZERO).is_none(), "replay completed");
            }
            prop_assert_eq!((rx.partials(), rx.malformed()), (0, 0));
            prop_assert_eq!(rx.evict_expired(TTL + TTL), 0);
        }
    }

    /// Losing any two datagrams of a transfer prevents completion; the TTL
    /// then reclaims the partial, once, and a straggler cannot complete
    /// what was evicted.
    #[test]
    fn two_lost_datagrams_block_completion_until_eviction(
        payload_mtu in 1usize..257,
        frags in 2usize..7,
        exact in any::<bool>(),
        tail in any::<prop::sample::Index>(),
        seed in any::<u64>(),
        dup_every in 1usize..5,
        first in any::<prop::sample::Index>(),
        second in any::<prop::sample::Index>(),
    ) {
        let frame = frame(payload_mtu, frags, exact, tail, seed);
        let mut tx = Fragmenter::new(ProcessId(0), DATA_HEADER_LEN + payload_mtu);
        let mut rx = Reassembler::new(TTL);
        let mut grams = tx.split(&frame);
        let straggler = grams.remove(first.index(grams.len()));
        grams.remove(second.index(grams.len()));

        for g in schedule(&grams, seed, dup_every) {
            prop_assert!(rx.accept(g, Duration::ZERO).is_none(), "incomplete transfer completed");
        }
        prop_assert_eq!(rx.partials(), 1);

        // Before the TTL: still buffered. At the TTL: reclaimed.
        prop_assert_eq!(rx.evict_expired(TTL / 2), 0);
        prop_assert_eq!(rx.evict_expired(TTL), 1);
        prop_assert_eq!((rx.partials(), rx.evicted()), (0, 1));
        prop_assert!(rx.accept(straggler, TTL).is_none(), "evicted transfer completed");
        prop_assert_eq!((rx.repaired(), rx.malformed()), (0, 0));
    }

    /// Transfers from many senders interleaved in one arbitrary order all
    /// reassemble independently and correctly (the `(src, xfer)` key).
    #[test]
    fn interleaved_multi_sender_transfers_never_mix(
        frames in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 1..600), 2..5),
        mtu in (DATA_HEADER_LEN + 1)..(DATA_HEADER_LEN + 65),
        seed in any::<u64>(),
    ) {
        let mut rx = Reassembler::new(TTL);
        let mut schedule: Vec<Bytes> = Vec::new();
        let mut expect: Vec<(ProcessId, Bytes)> = Vec::new();
        for (i, data) in frames.iter().enumerate() {
            let src = ProcessId(i as u16);
            let frame = Bytes::from(data.clone());
            let mut tx = Fragmenter::new(src, mtu);
            schedule.extend(tx.split(&frame));
            expect.push((src, frame));
        }
        let schedule = permute(&schedule, seed);

        let mut done: Vec<(ProcessId, Bytes)> = Vec::new();
        for g in schedule {
            done.extend(rx.accept(g, Duration::ZERO));
        }
        done.sort_by_key(|(src, _)| *src);
        prop_assert_eq!(done, expect);
        prop_assert_eq!(rx.partials(), 0);
        prop_assert_eq!(rx.malformed(), 0);
    }
}

/// The finished-transfer memory is a constant: 256 keys, oldest out first,
/// however many transfers finish.
#[test]
fn the_finished_memory_holds_the_last_256_transfers() {
    let mut tx = Fragmenter::new(ProcessId(1), DATA_HEADER_LEN + 8);
    let mut rx = Reassembler::new(TTL);
    let frame = Bytes::from_static(b"twelve bytes");
    let finish = |grams: Vec<Bytes>, rx: &mut Reassembler| -> usize {
        grams
            .into_iter()
            .filter_map(|gram| rx.accept(gram, Duration::ZERO))
            .count()
    };
    let oldest = tx.split(&frame);
    assert_eq!(finish(oldest.clone(), &mut rx), 1);
    assert_eq!(
        finish(oldest.clone(), &mut rx),
        0,
        "remembered: the replay is inert"
    );
    for done in 2..=300 {
        assert_eq!(finish(tx.split(&frame), &mut rx), 1);
        assert_eq!(rx.remembered(), done.min(256));
    }
    assert_eq!(rx.partials(), 0);
    // Forgotten by now: the replay is a transfer like any other.
    assert_eq!(finish(oldest, &mut rx), 1);
    assert_eq!(rx.remembered(), 256);
}
