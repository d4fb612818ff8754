//! Datagram fragmentation and reassembly for engine frames.
//!
//! An engine frame (an encoded [`Pdu`](urcgc_types::Pdu) with its checksum
//! trailer) can exceed a UDP datagram's safe size — a recovery reply
//! carries whole message bodies, a decision grows with `n`. The runtime
//! therefore ships **every** frame as one or more [`TFrame::Data`]
//! fragments, reusing the transport codec so the wire format is identical
//! to the t-service's:
//!
//! * the `src` field identifies the sender — the runtime never maps
//!   source addresses to process ids, so frames survive address-rewriting
//!   middleboxes (the lossy proxy in this crate, NAT in general);
//! * the `(src, xfer)` pair keys reassembly, so interleaved transfers from
//!   many peers reassemble independently;
//! * fragments may arrive out of order, duplicated, or not at all — a
//!   partial transfer that stops making progress is evicted after a TTL
//!   ([`Reassembler::evict_expired`], driven by the node's round ticker),
//!   and the protocol's own recovery machinery resends the payload.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use urcgc::Deadlines;
use urcgc_transport::{fragment, TFrame, DATA_HEADER_LEN};
use urcgc_types::ProcessId;

/// Splits engine frames into MTU-sized [`TFrame::Data`] datagrams.
#[derive(Debug)]
pub struct Fragmenter {
    me: ProcessId,
    payload_mtu: usize,
    next_xfer: u64,
}

impl Fragmenter {
    /// `mtu` is the maximum **datagram** size; the usable payload per
    /// fragment is `mtu - DATA_HEADER_LEN`.
    ///
    /// # Panics
    /// Panics unless `mtu > DATA_HEADER_LEN`.
    pub fn new(me: ProcessId, mtu: usize) -> Fragmenter {
        assert!(
            mtu > DATA_HEADER_LEN,
            "mtu {mtu} leaves no room for the {DATA_HEADER_LEN}-byte fragment header"
        );
        Fragmenter {
            me,
            payload_mtu: mtu - DATA_HEADER_LEN,
            next_xfer: 0,
        }
    }

    /// Splits one frame into encoded datagrams (at least one, each at most
    /// `mtu` bytes), consuming a fresh transfer id.
    pub fn split(&mut self, frame: &Bytes) -> Vec<Bytes> {
        self.next_xfer += 1;
        fragment(self.next_xfer, self.me, self.payload_mtu, frame)
    }

    /// Transfers split so far.
    pub fn transfers(&self) -> u64 {
        self.next_xfer
    }
}

/// One incomplete transfer: the fragments that arrived, by index. What a
/// transfer holds is what was received — `frag_count` is the sender's word
/// and reserves nothing.
struct Partial {
    frag_count: u16,
    frags: BTreeMap<u16, Bytes>,
}

/// Reassembles [`TFrame::Data`] datagrams back into engine frames.
///
/// Keyed by `(src, xfer)`; tolerant of loss, duplication, and reordering.
/// Partial transfers are dropped after `ttl` without completion so a
/// forever-lost fragment cannot pin memory (the peer's recovery
/// retransmission arrives under a fresh transfer id anyway).
pub struct Reassembler {
    ttl: Duration,
    partial: HashMap<(ProcessId, u64), Partial>,
    deadlines: Deadlines<(ProcessId, u64)>,
    evicted: u64,
    malformed: u64,
}

impl Reassembler {
    /// Creates a reassembler that forgets partial transfers after `ttl`.
    pub fn new(ttl: Duration) -> Reassembler {
        Reassembler {
            ttl,
            partial: HashMap::new(),
            deadlines: Deadlines::new(),
            evicted: 0,
            malformed: 0,
        }
    }

    /// Feeds one received datagram; returns the sender and the complete
    /// frame when this datagram finishes a transfer. Malformed datagrams
    /// and non-`Data` frames are counted and dropped.
    pub fn accept(&mut self, datagram: Bytes, now: Duration) -> Option<(ProcessId, Bytes)> {
        let Some(TFrame::Data {
            xfer,
            src,
            frag_index,
            frag_count,
            payload,
        }) = TFrame::decode(datagram)
        else {
            self.malformed += 1;
            return None;
        };
        if frag_count == 1 {
            // Fast path: the common case (control PDUs fit one datagram).
            return Some((src, payload));
        }
        let key = (src, xfer);
        let entry = self.partial.entry(key).or_insert_with(|| {
            self.deadlines.arm(key, now + self.ttl);
            Partial {
                frag_count,
                frags: BTreeMap::new(),
            }
        });
        if entry.frag_count != frag_count {
            // Two transfers disagreeing on their own shape: hostile or
            // corrupted traffic. Drop the fragment, keep the original.
            self.malformed += 1;
            return None;
        }
        // The decoder guarantees `frag_index < frag_count`, so a full map
        // is exactly the indices `0..frag_count`, in order.
        entry.frags.entry(frag_index).or_insert(payload);
        if entry.frags.len() < usize::from(frag_count) {
            return None;
        }
        let done = self.partial.remove(&key).expect("entry just completed");
        self.deadlines.disarm(&key);
        let total: usize = done.frags.values().map(Bytes::len).sum();
        let mut frame = BytesMut::with_capacity(total);
        for part in done.frags.values() {
            frame.extend_from_slice(part);
        }
        Some((src, frame.freeze()))
    }

    /// Drops every partial transfer whose TTL has passed; returns how many
    /// were evicted this call.
    pub fn evict_expired(&mut self, now: Duration) -> usize {
        let expired = self.deadlines.expired(now);
        for key in &expired {
            self.partial.remove(key);
        }
        self.evicted += expired.len() as u64;
        expired.len()
    }

    /// Incomplete transfers currently buffered.
    pub fn partials(&self) -> usize {
        self.partial.len()
    }

    /// Partial transfers evicted since creation.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Undecodable or inconsistent datagrams dropped since creation.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: Duration = Duration::from_secs(1);

    fn frame(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn single_datagram_fast_path() {
        let mut tx = Fragmenter::new(ProcessId(0), 1400);
        let mut rx = Reassembler::new(SEC);
        let f = frame(100);
        let grams = tx.split(&f);
        assert_eq!(grams.len(), 1);
        let (src, got) = rx.accept(grams.into_iter().next().unwrap(), SEC).unwrap();
        assert_eq!(src, ProcessId(0));
        assert_eq!(got, f);
        assert_eq!(rx.partials(), 0);
    }

    #[test]
    fn multi_fragment_roundtrip_out_of_order() {
        let mut tx = Fragmenter::new(ProcessId(2), DATA_HEADER_LEN + 10);
        let mut rx = Reassembler::new(SEC);
        let f = frame(95); // 10 fragments
        let mut grams = tx.split(&f);
        assert_eq!(grams.len(), 10);
        grams.reverse();
        let mut out = None;
        for g in grams {
            if let Some(done) = rx.accept(g, SEC) {
                out = Some(done);
            }
        }
        let (src, got) = out.expect("transfer completed");
        assert_eq!(src, ProcessId(2));
        assert_eq!(got, f);
    }

    #[test]
    fn interleaved_senders_do_not_mix() {
        let mut a = Fragmenter::new(ProcessId(0), DATA_HEADER_LEN + 8);
        let mut b = Fragmenter::new(ProcessId(1), DATA_HEADER_LEN + 8);
        let mut rx = Reassembler::new(SEC);
        let fa = frame(20);
        let fb = Bytes::from_static(b"completely different body!");
        let ga = a.split(&fa);
        let gb = b.split(&fb);
        let mut done = Vec::new();
        for i in 0..ga.len().max(gb.len()) {
            if let Some(x) = ga.get(i) {
                done.extend(rx.accept(x.clone(), SEC));
            }
            if let Some(y) = gb.get(i) {
                done.extend(rx.accept(y.clone(), SEC));
            }
        }
        done.sort_by_key(|(src, _)| *src);
        assert_eq!(done, vec![(ProcessId(0), fa), (ProcessId(1), fb)]);
    }

    #[test]
    fn duplicates_are_harmless() {
        let mut tx = Fragmenter::new(ProcessId(0), DATA_HEADER_LEN + 16);
        let mut rx = Reassembler::new(SEC);
        let f = frame(40);
        let grams = tx.split(&f);
        let mut completions = 0;
        for g in grams.iter().chain(grams.iter().take(2)) {
            if rx.accept(g.clone(), SEC).is_some() {
                completions += 1;
            }
        }
        assert_eq!(completions, 1, "duplicates of spent fragments are inert");
        // The re-sent fragments opened a ghost partial; eviction clears it.
        assert_eq!(rx.partials(), 1);
        assert_eq!(rx.evict_expired(SEC + SEC + SEC), 1);
        assert_eq!(rx.partials(), 0);
    }

    #[test]
    fn stalled_partial_is_evicted_after_ttl() {
        let mut tx = Fragmenter::new(ProcessId(3), DATA_HEADER_LEN + 8);
        let mut rx = Reassembler::new(SEC);
        let mut grams = tx.split(&frame(30));
        let last = grams.pop().unwrap();
        for g in grams {
            assert!(rx.accept(g, Duration::ZERO).is_none());
        }
        assert_eq!(rx.partials(), 1);
        assert_eq!(rx.evict_expired(SEC / 2), 0, "TTL not yet reached");
        assert_eq!(rx.evict_expired(SEC), 1);
        assert_eq!(rx.evicted(), 1);
        // The straggler now opens a fresh (useless) partial; it cannot
        // complete the evicted transfer.
        assert!(rx.accept(last, SEC).is_none());
        assert_eq!(rx.partials(), 1);
    }

    #[test]
    fn malformed_datagrams_are_counted() {
        let mut rx = Reassembler::new(SEC);
        assert!(rx
            .accept(Bytes::from_static(b"\xAB garbage"), SEC)
            .is_none());
        assert!(rx
            .accept(
                TFrame::Ack {
                    xfer: 1,
                    src: ProcessId(0)
                }
                .encode(),
                SEC
            )
            .is_none());
        assert_eq!(rx.malformed(), 2);
    }
}
