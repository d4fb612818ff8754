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
//! * a transfer of two fragments or more is followed by one
//!   [`TFrame::Parity`] datagram, the XOR of its fragments: datagrams may
//!   arrive out of order or duplicated, and **any one** of them may not
//!   arrive at all — the frame is complete with every fragment, or with
//!   all but one and the parity ([`rebuild`]). A lost datagram costs
//!   nothing; two lost from one transfer cost the frame, which the
//!   protocol's own recovery machinery then resends, and the partial
//!   transfer is evicted after a TTL ([`Reassembler::evict_expired`],
//!   driven by the node's round ticker);
//! * whatever arrives for a transfer that is already complete — the parity
//!   of an intact transfer, the straggler of a rebuilt one, a duplicate —
//!   is dropped against a fixed-size memory of the last finished transfers.
//!
//! A multi-fragment frame pays one more datagram per destination, 1/N more
//! bytes for N fragments. Single-fragment frames — every control PDU at
//! ordinary group sizes — carry no parity and never touch the tables here.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use urcgc::Deadlines;
use urcgc_transport::{fragment, parity, rebuild, TFrame, DATA_HEADER_LEN};
use urcgc_types::ProcessId;

/// Finished transfers remembered, so that their late datagrams are dropped
/// instead of opening a partial nobody will complete. A constant: nothing
/// that arrives can size it.
const FINISHED_MEMORY: usize = 256;

/// Reassembly key: the sender and its transfer id.
type Key = (ProcessId, u64);

/// Splits engine frames into MTU-sized [`TFrame::Data`] datagrams, plus a
/// [`TFrame::Parity`] when there are two or more.
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
    /// `mtu` bytes), consuming a fresh transfer id. A frame of two
    /// fragments or more gets its parity datagram, last.
    pub fn split(&mut self, frame: &Bytes) -> Vec<Bytes> {
        self.next_xfer += 1;
        let mut grams = fragment(self.next_xfer, self.me, self.payload_mtu, frame);
        if grams.len() > 1 {
            grams.push(parity(self.next_xfer, self.me, self.payload_mtu, frame));
        }
        grams
    }

    /// Transfers split so far.
    pub fn transfers(&self) -> u64 {
        self.next_xfer
    }
}

/// One incomplete transfer: the fragments that arrived, by index, and the
/// parity if it did. What a transfer holds is what was received —
/// `frag_count` is the sender's word and reserves nothing.
struct Partial {
    frag_count: u16,
    frags: BTreeMap<u16, Bytes>,
    /// `frame_len` and `xor` of the transfer's [`TFrame::Parity`].
    parity: Option<(u32, Bytes)>,
}

/// One datagram of a multi-fragment transfer.
enum Piece {
    /// A fragment, by its index.
    Fragment(u16, Bytes),
    /// The parity: the frame's length and the XOR.
    Parity(u32, Bytes),
}

/// The last [`FINISHED_MEMORY`] transfers that completed (or were dropped
/// as contradictory), oldest first.
#[derive(Default)]
struct Finished {
    order: VecDeque<Key>,
    keys: HashSet<Key>,
}

impl Finished {
    /// Remembers a transfer that just finished. It had an open partial
    /// until now, so it is not in the memory already.
    fn insert(&mut self, key: Key) {
        if self.order.len() == FINISHED_MEMORY {
            if let Some(oldest) = self.order.pop_front() {
                self.keys.remove(&oldest);
            }
        }
        self.order.push_back(key);
        self.keys.insert(key);
    }
}

/// Reassembles [`TFrame::Data`] and [`TFrame::Parity`] datagrams back into
/// engine frames.
///
/// Keyed by `(src, xfer)`; tolerant of duplication, reordering, and the
/// loss of any one datagram of a transfer. Partial transfers are dropped
/// after `ttl` without completion so a forever-lost pair cannot pin memory
/// (the peer's recovery retransmission arrives under a fresh transfer id
/// anyway).
pub struct Reassembler {
    ttl: Duration,
    partial: HashMap<Key, Partial>,
    deadlines: Deadlines<Key>,
    finished: Finished,
    evicted: u64,
    malformed: u64,
    repaired: u64,
}

impl Reassembler {
    /// Creates a reassembler that forgets partial transfers after `ttl`.
    pub fn new(ttl: Duration) -> Reassembler {
        Reassembler {
            ttl,
            partial: HashMap::new(),
            deadlines: Deadlines::new(),
            finished: Finished::default(),
            evicted: 0,
            malformed: 0,
            repaired: 0,
        }
    }

    /// Feeds one received datagram; returns the sender and the complete
    /// frame when this datagram finishes a transfer — as its last fragment,
    /// or as the one that leaves a single fragment for the parity to
    /// rebuild. Malformed datagrams and frames that are neither `Data` nor
    /// `Parity` are counted and dropped; what arrives for a finished
    /// transfer is dropped uncounted.
    pub fn accept(&mut self, datagram: Bytes, now: Duration) -> Option<(ProcessId, Bytes)> {
        let (key, frag_count, piece) = match TFrame::decode(datagram) {
            // Fast path: the common case (control PDUs fit one datagram).
            Some(TFrame::Data {
                src,
                frag_count: 1,
                payload,
                ..
            }) => return Some((src, payload)),
            Some(TFrame::Data {
                xfer,
                src,
                frag_index,
                frag_count,
                payload,
            }) => (
                (src, xfer),
                frag_count,
                Piece::Fragment(frag_index, payload),
            ),
            Some(TFrame::Parity {
                xfer,
                src,
                frag_count,
                frame_len,
                xor,
            }) => ((src, xfer), frag_count, Piece::Parity(frame_len, xor)),
            _ => {
                self.malformed += 1;
                return None;
            }
        };
        let entry = match self.partial.entry(key) {
            Entry::Occupied(open) => open.into_mut(),
            Entry::Vacant(_) if self.finished.keys.contains(&key) => return None,
            Entry::Vacant(slot) => {
                self.deadlines.arm(key, now + self.ttl);
                slot.insert(Partial {
                    frag_count,
                    frags: BTreeMap::new(),
                    parity: None,
                })
            }
        };
        if entry.frag_count != frag_count {
            // Two datagrams disagreeing on their transfer's shape: hostile
            // or corrupted traffic. Drop this one, keep the original.
            self.malformed += 1;
            return None;
        }
        // The decoder guarantees `frag_index < frag_count`, so a full map
        // is exactly the indices `0..frag_count`, in order. A duplicate —
        // a second parity included — changes nothing.
        match piece {
            Piece::Fragment(index, payload) => {
                entry.frags.entry(index).or_insert(payload);
            }
            Piece::Parity(frame_len, xor) => {
                entry.parity.get_or_insert((frame_len, xor));
            }
        }
        let missing = usize::from(frag_count) - entry.frags.len();
        if missing > usize::from(entry.parity.is_some()) {
            return None;
        }
        let done = self.partial.remove(&key).expect("entry just completed");
        self.deadlines.disarm(&key);
        self.finished.insert(key);
        if missing == 0 {
            let total: usize = done.frags.values().map(Bytes::len).sum();
            let mut frame = BytesMut::with_capacity(total);
            for part in done.frags.values() {
                frame.extend_from_slice(part);
            }
            return Some((key.0, frame.freeze()));
        }
        let (frame_len, xor) = done.parity.expect("one missing, so the parity is held");
        match rebuild(&done.frags, frag_count, frame_len, &xor) {
            Some(frame) => {
                self.repaired += 1;
                Some((key.0, frame))
            }
            None => {
                // A fragment's length contradicts the parity: one of them
                // lies, and which cannot be told. The transfer is dropped.
                self.malformed += 1;
                None
            }
        }
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

    /// Undecodable or inconsistent datagrams dropped since creation, plus
    /// transfers dropped because their fragments contradicted their parity.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }

    /// Frames completed by rebuilding one fragment from the parity — the
    /// fragment was lost, or is late and will be dropped when it comes.
    pub fn repaired(&self) -> u64 {
        self.repaired
    }

    /// Finished transfers currently remembered (never more than 256).
    pub fn remembered(&self) -> usize {
        self.finished.order.len()
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
        let f = frame(95); // 10 fragments and their parity
        let mut grams = tx.split(&f);
        assert_eq!(grams.len(), 11);
        assert!(grams.iter().all(|g| g.len() <= DATA_HEADER_LEN + 10));
        grams.reverse();
        // Parity first, then fragments 9..=1: the tenth datagram leaves only
        // fragment 0 missing, which the parity rebuilds.
        let mut out = Vec::new();
        for g in grams {
            out.extend(rx.accept(g, SEC));
        }
        assert_eq!(out, vec![(ProcessId(2), f)], "completed once, identically");
        assert_eq!((rx.repaired(), rx.partials()), (1, 0));
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
        for g in grams.iter().chain(grams.iter()) {
            if rx.accept(g.clone(), SEC).is_some() {
                completions += 1;
            }
        }
        assert_eq!(completions, 1, "duplicates of spent fragments are inert");
        // The transfer is remembered as finished: its parity and the
        // replayed datagrams were dropped, none opened a partial.
        assert_eq!((rx.partials(), rx.remembered()), (0, 1));
        assert_eq!(rx.evict_expired(SEC + SEC + SEC), 0);
        assert_eq!((rx.malformed(), rx.repaired()), (0, 0));
    }

    #[test]
    fn stalled_partial_is_evicted_after_ttl() {
        let mut tx = Fragmenter::new(ProcessId(3), DATA_HEADER_LEN + 8);
        let mut rx = Reassembler::new(SEC);
        let mut grams = tx.split(&frame(30)); // 4 fragments and their parity
        let parity = grams.pop().unwrap();
        let last = grams.pop().unwrap();
        for g in grams {
            assert!(rx.accept(g, Duration::ZERO).is_none());
        }
        assert_eq!(rx.partials(), 1, "two datagrams short");
        assert_eq!(rx.evict_expired(SEC / 2), 0, "TTL not yet reached");
        assert_eq!(rx.evict_expired(SEC), 1);
        assert_eq!(rx.evicted(), 1);
        // One straggler now opens a fresh (useless) partial; it cannot
        // complete the evicted transfer, and neither can the other.
        assert!(rx.accept(last, SEC).is_none());
        assert!(rx.accept(parity, SEC).is_none());
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
