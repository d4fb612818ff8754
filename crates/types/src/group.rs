//! The group-tag wire envelope for multi-group nodes.
//!
//! A node hosting thousands of URCGC groups shares one socket (one wire)
//! across all of them, so every engine frame is prefixed with the group it
//! belongs to. The header is deliberately self-contained: a receiver reads
//! the destination [`GroupId`] and routes — or *drops* — the frame without
//! decoding the inner PDU. That is the wire half of the **genuineness**
//! property (only a message's destination groups take steps): a frame for
//! group A costs group B exactly one 9-byte header inspection, never a PDU
//! decode, never an engine step.
//!
//! Like the relay envelope in `urcgc-transport`, the header carries its own
//! FNV-1a checksum so corruption of the routing bytes degenerates to an
//! omission instead of delivering a frame to the wrong group; the inner
//! frame keeps its own integrity trailer and is verified only by the
//! destination group's decode.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::fnv::fnv1a_32;
use crate::id::GroupId;
use crate::pdu::Pdu;
use crate::tag;
use crate::wire::{encode_pdu_into, FrameCache, FRAME_TRAILER_LEN};

/// Encoded envelope header size: tag + group id + header checksum.
pub const GROUP_HEADER_LEN: usize = 1 + 4 + 4;

/// A decoded group envelope: the destination group plus the untouched
/// inner engine frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupFrame {
    /// The group this frame is addressed to.
    pub group: GroupId,
    /// The inner engine frame (body + its own checksum trailer),
    /// byte-identical to what the sender encoded.
    pub inner: Bytes,
}

/// Why a group envelope failed to parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupEnvelopeError {
    /// Shorter than a header.
    Truncated,
    /// First byte is not [`tag::GROUP`].
    BadTag(u8),
    /// Header checksum mismatch (corruption in flight).
    BadChecksum,
}

impl core::fmt::Display for GroupEnvelopeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GroupEnvelopeError::Truncated => write!(f, "group envelope truncated"),
            GroupEnvelopeError::BadTag(t) => write!(f, "not a group envelope (tag {t:#04x})"),
            GroupEnvelopeError::BadChecksum => write!(f, "group envelope header corrupted"),
        }
    }
}

impl std::error::Error for GroupEnvelopeError {}

/// Whether `frame` looks like a group envelope (cheap first-byte probe; the
/// checksum is verified by [`group_of`] / [`decode_group`]).
pub fn is_group_frame(frame: &[u8]) -> bool {
    frame.first() == Some(&tag::GROUP)
}

/// Writes the envelope header for `group` into `buf` (tag, group id,
/// header checksum). The inner frame follows immediately after.
fn put_group_header(group: GroupId, buf: &mut BytesMut) {
    let start = buf.len();
    buf.put_u8(tag::GROUP);
    buf.put_u32_le(group.0);
    let sum = fnv1a_32(&buf[start..start + 5]);
    buf.put_u32_le(sum);
}

/// Encodes an envelope into `buf` (header + inner frame bytes).
pub fn encode_group_into(group: GroupId, inner: &[u8], buf: &mut BytesMut) {
    put_group_header(group, buf);
    buf.put_slice(inner);
}

/// Encodes an envelope as a fresh frame.
pub fn encode_group(group: GroupId, inner: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(GROUP_HEADER_LEN + inner.len());
    encode_group_into(group, inner, &mut buf);
    buf.freeze()
}

/// The destination group of an enveloped frame — the demux primitive.
///
/// Verifies the header checksum and returns the group *without touching
/// the inner frame*: a node hosting groups `{A}` that receives a frame for
/// group `B` learns "not mine" from these 9 bytes alone, which is what
/// makes the genuineness claim cheap enough to hold at 10^4 groups.
pub fn group_of(frame: &[u8]) -> Result<GroupId, GroupEnvelopeError> {
    if frame.len() < GROUP_HEADER_LEN {
        return Err(GroupEnvelopeError::Truncated);
    }
    if frame[0] != tag::GROUP {
        return Err(GroupEnvelopeError::BadTag(frame[0]));
    }
    let carried = u32::from_le_bytes(frame[5..9].try_into().expect("4 bytes"));
    if carried != fnv1a_32(&frame[..5]) {
        return Err(GroupEnvelopeError::BadChecksum);
    }
    let mut hdr = &frame[1..5];
    Ok(GroupId(hdr.get_u32_le()))
}

/// Decodes an envelope, verifying the header checksum. The returned
/// `inner` is a zero-copy slice of `frame`.
pub fn decode_group(frame: &Bytes) -> Result<GroupFrame, GroupEnvelopeError> {
    let group = group_of(frame)?;
    Ok(GroupFrame {
        group,
        inner: frame.slice(GROUP_HEADER_LEN..),
    })
}

impl FrameCache {
    /// Encodes `pdu` as a group-tagged frame (envelope header + PDU body +
    /// checksum trailer) in one pass through the warm arena — the envelope
    /// costs no extra allocation or copy over [`FrameCache::encode`].
    /// Clone the returned `Bytes` per destination.
    pub fn encode_group(&mut self, group: GroupId, pdu: &Pdu) -> Bytes {
        use crate::wire::WireEncode;
        let len = GROUP_HEADER_LEN + pdu.encoded_len() + FRAME_TRAILER_LEN;
        self.encode_with(|buf| {
            buf.reserve(len);
            put_group_header(group, buf);
            encode_pdu_into(pdu, buf);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{Mid, ProcessId, Round};
    use crate::pdu::DataMsg;

    fn sample_pdu() -> Pdu {
        Pdu::data(DataMsg {
            mid: Mid::new(ProcessId(1), 3),
            deps: vec![Mid::new(ProcessId(0), 2)],
            round: Round(7),
            payload: Bytes::from_static(b"multi-group payload"),
        })
    }

    #[test]
    fn envelope_round_trips_and_preserves_inner_bytes() {
        let inner = Bytes::from_static(b"\x01engine frame bytes\xAA\xBB\xCC\xDD");
        let frame = encode_group(GroupId(0xDEAD_BEEF), &inner);
        assert!(is_group_frame(&frame));
        assert_eq!(frame.len(), GROUP_HEADER_LEN + inner.len());
        assert_eq!(group_of(&frame), Ok(GroupId(0xDEAD_BEEF)));
        let decoded = decode_group(&frame).expect("decodes");
        assert_eq!(decoded.group, GroupId(0xDEAD_BEEF));
        assert_eq!(decoded.inner, inner);
    }

    #[test]
    fn inner_slice_is_zero_copy() {
        let frame = encode_group(GroupId(4), b"payload");
        let decoded = decode_group(&frame).expect("decodes");
        assert_eq!(
            decoded.inner.as_ptr() as usize,
            frame.as_ptr() as usize + GROUP_HEADER_LEN
        );
    }

    #[test]
    fn header_corruption_is_rejected() {
        let frame = encode_group(GroupId(3), b"x");
        for byte in 0..GROUP_HEADER_LEN {
            let mut raw = frame.to_vec();
            raw[byte] ^= 0x20;
            let got = group_of(&raw);
            assert!(got.is_err(), "flip at byte {byte} accepted: {got:?}");
        }
        // Inner-frame corruption passes the envelope (the inner trailer
        // catches it at the destination group's decode).
        let mut raw = frame.to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0x20;
        assert!(decode_group(&Bytes::from(raw)).is_ok());
    }

    #[test]
    fn truncated_and_foreign_frames_are_rejected() {
        assert_eq!(group_of(b"\x67short"), Err(GroupEnvelopeError::Truncated));
        let pdu_like = Bytes::from_static(b"\x01AAAAAAAAAAAAAAAAAAAA");
        assert!(!is_group_frame(&pdu_like));
        assert_eq!(
            decode_group(&pdu_like),
            Err(GroupEnvelopeError::BadTag(0x01))
        );
    }

    #[test]
    fn frame_cache_envelope_matches_manual_composition() {
        let pdu = sample_pdu();
        let mut cache = FrameCache::new();
        let framed = cache.encode_group(GroupId(42), &pdu);
        let manual = encode_group(GroupId(42), &crate::wire::encode_pdu(&pdu));
        assert_eq!(framed, manual);
        // And the inner frame still decodes as the original PDU.
        let decoded = decode_group(&framed).expect("envelope decodes");
        assert_eq!(decoded.group, GroupId(42));
        assert_eq!(crate::wire::decode_pdu(&decoded.inner).expect("pdu"), pdu);
    }

    #[test]
    fn frame_cache_envelope_clones_share_the_allocation() {
        let mut cache = FrameCache::new();
        let a = cache.encode_group(GroupId(1), &sample_pdu());
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr(), "clone must be a refcount bump");
    }
}
