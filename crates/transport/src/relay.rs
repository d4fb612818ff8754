//! The relay frame envelope for overlay dissemination.
//!
//! When `data`/`decision` frames travel hop-by-hop over a bounded-degree
//! overlay instead of the paper's n-unicast, every hop needs to know *whose*
//! broadcast a frame belongs to without decoding the inner PDU: the
//! envelope prefixes the unchanged inner frame with the originating process
//! and an origin-local broadcast sequence number. Forwarders re-send the
//! received [`Bytes`] handle verbatim (a refcount clone — the relay path
//! stays zero-copy), and receivers deduplicate on `(origin, seq)` because
//! re-parenting after a crash can deliver the same broadcast along two
//! paths.
//!
//! The envelope header carries its own FNV-1a checksum so a corrupted
//! header degenerates to an omission instead of mis-routing the frame; the
//! inner frame keeps its own integrity trailer and is verified only at
//! delivery, never per hop.

use std::collections::BTreeSet;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use urcgc_types::{fnv1a_32, tag, ProcessId};

/// Encoded envelope header size: tag + origin + seq + header checksum.
pub const RELAY_HEADER_LEN: usize = 1 + 2 + 8 + 4;

/// FNV-1a over the envelope header (tag, origin, seq).
fn header_checksum(header: &[u8]) -> u32 {
    fnv1a_32(header)
}

/// A decoded relay envelope: routing header plus the untouched inner frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelayFrame {
    /// The process whose logical broadcast this frame carries.
    pub origin: ProcessId,
    /// Origin-local broadcast sequence number (dedup key, with `origin`).
    pub seq: u64,
    /// The inner engine frame, byte-identical at every hop.
    pub inner: Bytes,
}

/// Why a relay frame failed to parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelayError {
    /// Shorter than a header, or not a relay frame at all.
    Truncated,
    /// First byte is not [`tag::RELAY`].
    BadTag(u8),
    /// Header checksum mismatch (corruption in flight).
    BadChecksum,
}

/// Whether `frame` looks like a relay envelope (cheap first-byte probe; the
/// checksum is verified by [`decode_relay`]).
pub fn is_relay_frame(frame: &[u8]) -> bool {
    frame.first() == Some(&tag::RELAY)
}

/// Encodes an envelope into `buf` (header + inner bytes). The inner frame
/// is copied exactly once, at wrap time; every forward afterwards clones
/// the resulting [`Bytes`] handle.
pub fn encode_relay_into(origin: ProcessId, seq: u64, inner: &[u8], buf: &mut BytesMut) {
    let start = buf.len();
    buf.put_u8(tag::RELAY);
    buf.put_u16_le(origin.0);
    buf.put_u64_le(seq);
    let sum = header_checksum(&buf[start..start + 11]);
    buf.put_u32_le(sum);
    buf.put_slice(inner);
}

/// Encodes an envelope as a fresh frame.
pub fn encode_relay(origin: ProcessId, seq: u64, inner: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(RELAY_HEADER_LEN + inner.len());
    encode_relay_into(origin, seq, inner, &mut buf);
    buf.freeze()
}

/// Decodes an envelope, verifying the header checksum. The returned
/// `inner` is a zero-copy slice of `frame`.
pub fn decode_relay(frame: &Bytes) -> Result<RelayFrame, RelayError> {
    if frame.len() < RELAY_HEADER_LEN {
        return Err(RelayError::Truncated);
    }
    if frame[0] != tag::RELAY {
        return Err(RelayError::BadTag(frame[0]));
    }
    let carried = u32::from_le_bytes(frame[11..15].try_into().expect("4 bytes"));
    if carried != header_checksum(&frame[..11]) {
        return Err(RelayError::BadChecksum);
    }
    let mut hdr = &frame[1..11];
    let origin = ProcessId(hdr.get_u16_le());
    let seq = hdr.get_u64_le();
    Ok(RelayFrame {
        origin,
        seq,
        inner: frame.slice(RELAY_HEADER_LEN..),
    })
}

/// Per-origin seen-set for forwarded frames: `insert` answers "is this
/// `(origin, seq)` fresh?" exactly once per broadcast, which is both the
/// delivery dedup and the infect-and-die forwarding rule (a frame is
/// forwarded only on its first receipt, so relay loops terminate without a
/// TTL field — the envelope stays immutable hop to hop).
///
/// Memory stays bounded without any protocol help: sequences from one
/// origin are near-contiguous, so each origin keeps a contiguous floor
/// plus an out-of-order residue that compacts back into the floor — and
/// that is capped at [`RELAY_RESIDUE_MAX`], so one permanently lost
/// envelope cannot pin the floor for the rest of the run.
#[derive(Clone, Debug, Default)]
pub struct RelaySeen {
    origins: Vec<SeenWindow>,
}

/// Most out-of-order seqs [`RelaySeen`] holds per origin. Past it the floor
/// skips the oldest gap: a late copy of a skipped seq then reads as a
/// duplicate — an omission, which the engine's recovery already covers.
pub const RELAY_RESIDUE_MAX: usize = 1024;

#[derive(Clone, Debug, Default)]
struct SeenWindow {
    /// Every seq below this has been seen.
    floor: u64,
    /// Seen seqs at or above `floor` (compacted whenever `floor` is seen).
    above: BTreeSet<u64>,
}

impl RelaySeen {
    /// An empty tracker sized lazily by origin index.
    pub fn new() -> RelaySeen {
        RelaySeen::default()
    }

    /// Records `(origin, seq)`; returns `true` iff it was not seen before.
    pub fn insert(&mut self, origin: ProcessId, seq: u64) -> bool {
        let idx = origin.index();
        if idx >= self.origins.len() {
            self.origins.resize_with(idx + 1, SeenWindow::default);
        }
        let w = &mut self.origins[idx];
        if seq < w.floor || !w.above.insert(seq) {
            return false;
        }
        if w.above.len() > RELAY_RESIDUE_MAX {
            w.floor = *w.above.first().expect("residue is non-empty");
        }
        while w.above.remove(&w.floor) {
            w.floor = w.floor.saturating_add(1);
        }
        true
    }

    /// Whether `(origin, seq)` has been recorded.
    pub fn contains(&self, origin: ProcessId, seq: u64) -> bool {
        self.origins
            .get(origin.index())
            .is_some_and(|w| seq < w.floor || w.above.contains(&seq))
    }

    /// Origins the table has grown to cover (tests/gauges).
    pub fn tracked_origins(&self) -> usize {
        self.origins.len()
    }

    /// Out-of-order residue currently held for `origin` (tests/gauges).
    pub fn residue(&self, origin: ProcessId) -> usize {
        self.origins
            .get(origin.index())
            .map_or(0, |w| w.above.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips_and_preserves_inner_bytes() {
        let inner = Bytes::from_static(b"\x01engine frame bytes\xAA\xBB\xCC\xDD");
        let frame = encode_relay(ProcessId(7), 42, &inner);
        assert!(is_relay_frame(&frame));
        assert_eq!(frame.len(), RELAY_HEADER_LEN + inner.len());
        let decoded = decode_relay(&frame).expect("decodes");
        assert_eq!(decoded.origin, ProcessId(7));
        assert_eq!(decoded.seq, 42);
        assert_eq!(decoded.inner, inner);
    }

    #[test]
    fn inner_slice_is_zero_copy() {
        let frame = encode_relay(ProcessId(0), 1, b"payload");
        let decoded = decode_relay(&frame).expect("decodes");
        // Same backing allocation: the slice points into the envelope.
        assert_eq!(
            decoded.inner.as_ptr() as usize,
            frame.as_ptr() as usize + RELAY_HEADER_LEN
        );
    }

    #[test]
    fn header_corruption_is_rejected() {
        let frame = encode_relay(ProcessId(3), 9, b"x");
        for byte in 0..RELAY_HEADER_LEN {
            let mut raw = frame.to_vec();
            raw[byte] ^= 0x40;
            let got = decode_relay(&Bytes::from(raw));
            assert!(got.is_err(), "flip at byte {byte} accepted: {got:?}");
        }
        // Inner-frame corruption passes the envelope (the inner trailer
        // catches it at delivery).
        let mut raw = frame.to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0x40;
        assert!(decode_relay(&Bytes::from(raw)).is_ok());
    }

    #[test]
    fn truncated_and_foreign_frames_are_rejected() {
        assert_eq!(
            decode_relay(&Bytes::from_static(b"\xE7short")),
            Err(RelayError::Truncated)
        );
        let pdu_like = Bytes::from_static(b"\x01AAAAAAAAAAAAAAAAAAAA");
        assert!(!is_relay_frame(&pdu_like));
        assert_eq!(decode_relay(&pdu_like), Err(RelayError::BadTag(0x01)));
    }

    #[test]
    fn seen_set_dedups_and_compacts() {
        let mut seen = RelaySeen::new();
        let p = ProcessId(2);
        assert!(seen.insert(p, 0));
        assert!(!seen.insert(p, 0), "duplicate detected");
        // Out of order: 2 parks in the residue until 1 closes the gap.
        assert!(seen.insert(p, 2));
        assert_eq!(seen.residue(p), 1);
        assert!(seen.insert(p, 1));
        assert_eq!(seen.residue(p), 0, "contiguous prefix compacted");
        assert!(!seen.insert(p, 1), "below the floor is a duplicate");
        assert!(seen.contains(p, 2) && !seen.contains(p, 3));
        // Other origins are independent.
        assert!(seen.insert(ProcessId(5), 0));
        assert!(!seen.contains(ProcessId(4), 0));
    }

    #[test]
    fn residue_is_bounded_when_a_seq_never_arrives() {
        let mut seen = RelaySeen::new();
        let p = ProcessId(1);
        assert!(seen.insert(p, 0));
        // Seq 1 is lost for good; 10^5 later ones keep arriving.
        for seq in 2..100_002u64 {
            assert!(seen.insert(p, seq), "seq {seq} is fresh");
            assert!(seen.residue(p) <= RELAY_RESIDUE_MAX);
            assert!(!seen.insert(p, seq), "and a duplicate right after");
        }
        // The floor skipped the gap: the late copy is a duplicate now.
        assert!(seen.contains(p, 1) && !seen.insert(p, 1));
        // A short reordering above the new floor still closes.
        assert_eq!(seen.residue(p), 0, "contiguous arrivals compacted");
        assert!(seen.insert(p, 100_003));
        assert_eq!(seen.residue(p), 1);
        assert!(seen.insert(p, 100_002));
        assert_eq!(seen.residue(p), 0);
    }
}
