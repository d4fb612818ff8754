//! Transport frames: data fragments, their parity, and acknowledgements.

use std::collections::BTreeMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use urcgc_types::{tag, ProcessId};

/// A frame on the transport wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TFrame {
    /// One fragment of a service data unit.
    Data {
        /// Sender-local transfer identifier.
        xfer: u64,
        /// Originating process (for reassembly keying).
        src: ProcessId,
        /// Fragment index, `0..frag_count`.
        frag_index: u16,
        /// Total fragments in the transfer.
        frag_count: u16,
        /// Fragment bytes.
        payload: Bytes,
    },
    /// XOR parity over the fragments of one transfer of two or more: the
    /// transfer's chunks (every fragment payload, the last zero-padded to
    /// the chunk size) XORed together. Whoever holds it and all fragments
    /// but one can rebuild the missing one. The UDP runtime sends one per
    /// multi-fragment transfer; the t-service ignores it.
    Parity {
        /// Sender-local transfer identifier.
        xfer: u64,
        /// Originating process (for reassembly keying).
        src: ProcessId,
        /// Data fragments in the transfer, at least 2.
        frag_count: u16,
        /// Length of the whole service data unit:
        /// `(frag_count − 1)·chunk < frame_len ≤ frag_count·chunk`.
        frame_len: u32,
        /// The XOR, one chunk long (never empty).
        xor: Bytes,
    },
    /// Acknowledgement of a fully received transfer.
    Ack {
        /// The acknowledged transfer.
        xfer: u64,
        /// The acknowledging process.
        src: ProcessId,
    },
    /// Several frames for one destination coalesced into a single wire
    /// frame (batched retransmission). Members are encoded [`TFrame`]s and
    /// may not themselves be batches.
    Batch {
        /// Encoded member frames, in send order.
        frames: Vec<Bytes>,
    },
}

/// Encoded size of a [`TFrame::Data`] header (tag + xfer + src +
/// frag_index + frag_count + payload length). A fragment of payload size
/// `p` occupies `DATA_HEADER_LEN + p` bytes on the wire — runtimes sizing
/// fragments against a *datagram* MTU must budget for this overhead.
pub const DATA_HEADER_LEN: usize = 1 + 8 + 2 + 2 + 2 + 4;

/// Encoded size of a [`TFrame::Parity`] header (tag + xfer + src +
/// frag_count + frame_len); the XOR is the rest of the frame. Never more
/// than [`DATA_HEADER_LEN`], so a parity frame fits wherever a full data
/// fragment of its transfer does.
pub const PARITY_HEADER_LEN: usize = 1 + 8 + 2 + 2 + 4;

/// Splits `data` into encoded [`TFrame::Data`] datagrams of at most `mtu`
/// payload bytes each (empty data still yields one empty fragment, so a
/// transfer is never zero frames). This is the one fragmentation routine in
/// the workspace: [`TransportEntity`](crate::TransportEntity) uses it for
/// the t-service and the UDP runtime uses it to fit engine PDUs into
/// network packets.
///
/// # Panics
/// Panics if `mtu` is zero or `data` needs more than `u16::MAX` fragments.
pub fn fragment(xfer: u64, src: ProcessId, mtu: usize, data: &Bytes) -> Vec<Bytes> {
    assert!(mtu > 0, "MTU must be positive");
    let frag_count = data.len().div_ceil(mtu).max(1);
    assert!(
        frag_count <= u16::MAX as usize,
        "data too large for u16 fragments"
    );
    let mut fragments = Vec::with_capacity(frag_count);
    for i in 0..frag_count {
        let start = i * mtu;
        let end = (start + mtu).min(data.len());
        let frame = TFrame::Data {
            xfer,
            src,
            frag_index: i as u16,
            frag_count: frag_count as u16,
            payload: data.slice(start..end),
        };
        fragments.push(frame.encode());
    }
    fragments
}

/// The encoded [`TFrame::Parity`] of the transfer [`fragment`] makes of
/// `data` at the same `mtu`, XORed straight into the wire buffer.
///
/// # Panics
/// Panics unless `data` is two fragments or more (`data.len() > mtu > 0`),
/// at most `u16::MAX` of them, and shorter than 4 GiB.
pub fn parity(xfer: u64, src: ProcessId, mtu: usize, data: &Bytes) -> Bytes {
    assert!(
        mtu > 0 && data.len() > mtu,
        "a single-fragment transfer has no parity"
    );
    let frag_count =
        u16::try_from(data.len().div_ceil(mtu)).expect("data too large for u16 fragments");
    let frame_len = u32::try_from(data.len()).expect("data too large for a u32 length");
    let mut b = BytesMut::with_capacity(PARITY_HEADER_LEN + mtu);
    put_parity_header(&mut b, xfer, src, frag_count, frame_len);
    let (first, rest) = data.split_at(mtu);
    b.put_slice(first);
    for chunk in rest.chunks(mtu) {
        xor_into(&mut b[PARITY_HEADER_LEN..], chunk);
    }
    b.freeze()
}

/// The inverse of [`fragment`] + [`parity`] for a transfer that lost one
/// fragment: `frags` holds the payloads of the others by index, and
/// `frag_count`, `frame_len`, `xor` are the fields of the transfer's
/// [`TFrame::Parity`]. The missing payload is the XOR of everything held.
///
/// `None` — and nothing allocated — unless exactly one index of
/// `0..frag_count` is missing and every held payload has the length its
/// index implies (`xor.len()`, or what `frame_len` leaves for the last).
/// Whether the rebuilt bytes are the sender's is for the caller's own
/// integrity check to say: a parity frame carries none.
pub fn rebuild(
    frags: &BTreeMap<u16, Bytes>,
    frag_count: u16,
    frame_len: u32,
    xor: &[u8],
) -> Option<Bytes> {
    let (chunk, len) = (xor.len(), frame_len as usize);
    let last = frag_count.checked_sub(1).filter(|&last| last > 0)?;
    let last_len = len.checked_sub(usize::from(last).checked_mul(chunk)?)?;
    if last_len == 0 || last_len > chunk || frags.len() != usize::from(last) {
        return None;
    }
    let expected = |i: u16| if i == last { last_len } else { chunk };
    if frags
        .iter()
        .any(|(&i, frag)| i > last || frag.len() != expected(i))
    {
        return None;
    }
    let mut frame = BytesMut::with_capacity(len);
    for i in 0..=last {
        match frags.get(&i) {
            Some(frag) => frame.put_slice(frag),
            None => {
                let at = frame.len();
                frame.put_slice(&xor[..expected(i)]);
                for frag in frags.values() {
                    xor_into(&mut frame[at..], frag);
                }
            }
        }
    }
    Some(frame.freeze())
}

/// `acc[i] ^= chunk[i]` over the shorter of the two — the longer one's
/// tail is XORed with the other's zero padding, i.e. left as it is.
fn xor_into(acc: &mut [u8], chunk: &[u8]) {
    for (a, c) in acc.iter_mut().zip(chunk) {
        *a ^= c;
    }
}

fn put_parity_header(b: &mut BytesMut, xfer: u64, src: ProcessId, frag_count: u16, frame_len: u32) {
    b.put_u8(tag::T_PARITY);
    b.put_u64_le(xfer);
    b.put_u16_le(src.0);
    b.put_u16_le(frag_count);
    b.put_u32_le(frame_len);
}

impl TFrame {
    /// Encodes the frame.
    pub fn encode(&self) -> Bytes {
        match self {
            TFrame::Data {
                xfer,
                src,
                frag_index,
                frag_count,
                payload,
            } => {
                let mut b = BytesMut::with_capacity(1 + 8 + 2 + 2 + 2 + 4 + payload.len());
                b.put_u8(tag::T_DATA);
                b.put_u64_le(*xfer);
                b.put_u16_le(src.0);
                b.put_u16_le(*frag_index);
                b.put_u16_le(*frag_count);
                b.put_u32_le(payload.len() as u32);
                b.put_slice(payload);
                b.freeze()
            }
            TFrame::Parity {
                xfer,
                src,
                frag_count,
                frame_len,
                xor,
            } => {
                let mut b = BytesMut::with_capacity(PARITY_HEADER_LEN + xor.len());
                put_parity_header(&mut b, *xfer, *src, *frag_count, *frame_len);
                b.put_slice(xor);
                b.freeze()
            }
            TFrame::Ack { xfer, src } => {
                let mut b = BytesMut::with_capacity(1 + 8 + 2);
                b.put_u8(tag::T_ACK);
                b.put_u64_le(*xfer);
                b.put_u16_le(src.0);
                b.freeze()
            }
            TFrame::Batch { frames } => {
                debug_assert!(
                    frames.iter().all(|f| f.first() != Some(&tag::T_BATCH)),
                    "batches must not nest"
                );
                let body: usize = frames.iter().map(|f| 4 + f.len()).sum();
                let mut b = BytesMut::with_capacity(1 + 2 + body);
                b.put_u8(tag::T_BATCH);
                b.put_u16_le(frames.len() as u16);
                for f in frames {
                    b.put_u32_le(f.len() as u32);
                    b.put_slice(f);
                }
                b.freeze()
            }
        }
    }

    /// Decodes a frame; `None` on malformed input.
    pub fn decode(mut frame: Bytes) -> Option<TFrame> {
        if frame.remaining() < 1 {
            return None;
        }
        match frame.get_u8() {
            tag::T_DATA => {
                if frame.remaining() < 8 + 2 + 2 + 2 + 4 {
                    return None;
                }
                let xfer = frame.get_u64_le();
                let src = ProcessId(frame.get_u16_le());
                let frag_index = frame.get_u16_le();
                let frag_count = frame.get_u16_le();
                let plen = frame.get_u32_le() as usize;
                if frame.remaining() < plen || frag_count == 0 || frag_index >= frag_count {
                    return None;
                }
                let payload = frame.split_to(plen);
                Some(TFrame::Data {
                    xfer,
                    src,
                    frag_index,
                    frag_count,
                    payload,
                })
            }
            tag::T_PARITY => {
                if frame.remaining() < PARITY_HEADER_LEN - 1 {
                    return None;
                }
                let xfer = frame.get_u64_le();
                let src = ProcessId(frame.get_u16_le());
                let frag_count = frame.get_u16_le();
                let frame_len = frame.get_u32_le();
                if frag_count < 2 {
                    return None;
                }
                // The XOR is one chunk, and `frag_count` chunks — the last
                // possibly short, never empty — make up the frame. An empty
                // XOR fits no length.
                let (n, chunk) = (u64::from(frag_count), frame.remaining() as u64);
                let len = u64::from(frame_len);
                if len <= (n - 1) * chunk || len > n * chunk {
                    return None;
                }
                Some(TFrame::Parity {
                    xfer,
                    src,
                    frag_count,
                    frame_len,
                    xor: frame,
                })
            }
            tag::T_ACK => {
                if frame.remaining() < 10 {
                    return None;
                }
                let xfer = frame.get_u64_le();
                let src = ProcessId(frame.get_u16_le());
                Some(TFrame::Ack { xfer, src })
            }
            tag::T_BATCH => {
                if frame.remaining() < 2 {
                    return None;
                }
                let count = frame.get_u16_le() as usize;
                let mut frames = Vec::with_capacity(count.min(64));
                for _ in 0..count {
                    if frame.remaining() < 4 {
                        return None;
                    }
                    let len = frame.get_u32_le() as usize;
                    if frame.remaining() < len {
                        return None;
                    }
                    let inner = frame.split_to(len);
                    // One level only: a nested batch is malformed.
                    if inner.first() == Some(&tag::T_BATCH) {
                        return None;
                    }
                    frames.push(inner);
                }
                Some(TFrame::Batch { frames })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_roundtrip() {
        let f = TFrame::Data {
            xfer: 42,
            src: ProcessId(3),
            frag_index: 1,
            frag_count: 4,
            payload: Bytes::from_static(b"chunk"),
        };
        assert_eq!(TFrame::decode(f.encode()), Some(f));
    }

    #[test]
    fn fragment_helper_covers_data_and_header_len_is_exact() {
        let data = Bytes::from((0..100u8).collect::<Vec<u8>>());
        let frags = fragment(9, ProcessId(4), 16, &data);
        assert_eq!(frags.len(), 7, "100 bytes / 16-byte MTU = 7 fragments");
        let mut rebuilt = Vec::new();
        for (i, raw) in frags.iter().enumerate() {
            // Header length is the documented constant for every fragment.
            let Some(TFrame::Data {
                xfer,
                src,
                frag_index,
                frag_count,
                payload,
            }) = TFrame::decode(raw.clone())
            else {
                panic!("fragment {i} did not decode as Data");
            };
            assert_eq!(raw.len(), DATA_HEADER_LEN + payload.len());
            assert_eq!((xfer, src), (9, ProcessId(4)));
            assert_eq!((frag_index, frag_count), (i as u16, 7));
            rebuilt.extend_from_slice(&payload);
        }
        assert_eq!(rebuilt, &data[..]);
        // Empty data still ships one (empty) fragment.
        let empty = fragment(1, ProcessId(0), 16, &Bytes::new());
        assert_eq!(empty.len(), 1);
        assert_eq!(empty[0].len(), DATA_HEADER_LEN);
    }

    #[test]
    fn parity_roundtrip_and_header_len_is_exact() {
        let f = TFrame::Parity {
            xfer: 42,
            src: ProcessId(3),
            frag_count: 4,
            frame_len: 17,
            xor: Bytes::from_static(b"chunk"),
        };
        let raw = f.encode();
        assert_eq!(raw.len(), PARITY_HEADER_LEN + 5);
        assert_eq!(TFrame::decode(raw), Some(f));
        // The helper writes the same frame, XORing the zero-padded chunks.
        let data = Bytes::from_static(b"abcdefghij"); // abcd efgh ij
        let xor: Vec<u8> = (0..4)
            .map(|i| data[i] ^ data[4 + i] ^ data.get(8 + i).unwrap_or(&0))
            .collect();
        let expect = TFrame::Parity {
            xfer: 9,
            src: ProcessId(1),
            frag_count: 3,
            frame_len: 10,
            xor: Bytes::from(xor),
        };
        assert_eq!(parity(9, ProcessId(1), 4, &data), expect.encode());
    }

    #[test]
    fn parity_shape_is_checked_on_decode() {
        let parity = |frag_count: u16, frame_len: u32, chunk: usize| {
            let f = TFrame::Parity {
                xfer: 1,
                src: ProcessId(0),
                frag_count,
                frame_len,
                xor: Bytes::from(vec![0xAA; chunk]),
            };
            TFrame::decode(f.encode())
        };
        // 3 fragments of 8 bytes carry 17..=24 bytes.
        for (len, ok) in [(16, false), (17, true), (24, true), (25, false), (0, false)] {
            assert_eq!(parity(3, len, 8).is_some(), ok, "frame_len {len}");
        }
        // Fewer than two fragments have no parity; an empty XOR fits nothing.
        assert_eq!(parity(0, 8, 8), None);
        assert_eq!(parity(1, 8, 8), None);
        assert_eq!(parity(2, 0, 0), None);
        // The widest announcement is arithmetic in u64, not a panic.
        assert!(parity(u16::MAX, u32::MAX, 65_536).is_none());
        assert!(parity(u16::MAX, 65_535 * 4, 4).is_some());
        // A cut inside the header is malformed; one inside the XOR changes
        // the chunk size, which 3 × 7 < 24 no longer fits.
        let raw = TFrame::Parity {
            xfer: 1,
            src: ProcessId(0),
            frag_count: 3,
            frame_len: 24,
            xor: Bytes::from(vec![0xAA; 8]),
        }
        .encode();
        for cut in 0..raw.len() {
            assert_eq!(TFrame::decode(raw.slice(..cut)), None, "cut {cut}");
        }
    }

    #[test]
    fn rebuild_restores_any_one_lost_fragment() {
        for len in [9usize, 15, 16, 17, 32, 33] {
            let data = Bytes::from((0..len).map(|i| (i * 7 + 3) as u8).collect::<Vec<u8>>());
            let Some(TFrame::Parity {
                frag_count,
                frame_len,
                xor,
                ..
            }) = TFrame::decode(parity(1, ProcessId(0), 8, &data))
            else {
                panic!("parity of {len} bytes did not decode");
            };
            let all: BTreeMap<u16, Bytes> = fragment(1, ProcessId(0), 8, &data)
                .into_iter()
                .map(|raw| match TFrame::decode(raw) {
                    Some(TFrame::Data {
                        frag_index,
                        payload,
                        ..
                    }) => (frag_index, payload),
                    other => panic!("not a data fragment: {other:?}"),
                })
                .collect();
            assert_eq!(all.len(), usize::from(frag_count));
            // Nothing missing is not a rebuild.
            assert_eq!(rebuild(&all, frag_count, frame_len, &xor), None);
            for lost in 0..frag_count {
                let mut held = all.clone();
                held.remove(&lost);
                let got = rebuild(&held, frag_count, frame_len, &xor);
                assert_eq!(got, Some(data.clone()), "len {len}, lost {lost}");
                // A held fragment of the wrong length contradicts the parity.
                let (&i, frag) = held.iter().next().expect("two fragments or more");
                let short = frag.slice(..frag.len() - 1);
                held.insert(i, short);
                assert_eq!(rebuild(&held, frag_count, frame_len, &xor), None);
                // Two missing cannot be rebuilt.
                held.remove(&i);
                assert_eq!(rebuild(&held, frag_count, frame_len, &xor), None);
            }
        }
        // Fields no decoder would pass are an answer, not a panic.
        let none = BTreeMap::new();
        assert_eq!(rebuild(&none, 0, 0, &[]), None);
        assert_eq!(rebuild(&none, 1, 4, &[0; 4]), None);
        assert_eq!(rebuild(&none, u16::MAX, u32::MAX, &[0; 4]), None);
    }

    #[test]
    fn ack_roundtrip() {
        let f = TFrame::Ack {
            xfer: 7,
            src: ProcessId(1),
        };
        assert_eq!(TFrame::decode(f.encode()), Some(f));
    }

    #[test]
    fn malformed_frames_rejected() {
        assert_eq!(TFrame::decode(Bytes::new()), None);
        assert_eq!(TFrame::decode(Bytes::from_static(&[0x99, 1, 2])), None);
        // frag_index >= frag_count
        let bad = TFrame::Data {
            xfer: 1,
            src: ProcessId(0),
            frag_index: 0,
            frag_count: 1,
            payload: Bytes::new(),
        };
        let mut raw = bad.encode().to_vec();
        raw[11] = 5; // frag_index = 5 > frag_count = 1
        assert_eq!(TFrame::decode(Bytes::from(raw)), None);
    }

    #[test]
    fn batch_roundtrip() {
        let members = vec![
            TFrame::Data {
                xfer: 1,
                src: ProcessId(0),
                frag_index: 0,
                frag_count: 2,
                payload: Bytes::from_static(b"aa"),
            }
            .encode(),
            TFrame::Data {
                xfer: 1,
                src: ProcessId(0),
                frag_index: 1,
                frag_count: 2,
                payload: Bytes::from_static(b"bb"),
            }
            .encode(),
        ];
        let f = TFrame::Batch {
            frames: members.clone(),
        };
        assert_eq!(
            TFrame::decode(f.encode()),
            Some(TFrame::Batch { frames: members })
        );
        assert_eq!(
            TFrame::decode(TFrame::Batch { frames: vec![] }.encode()),
            Some(TFrame::Batch { frames: vec![] })
        );
    }

    #[test]
    fn nested_batches_rejected() {
        let inner = TFrame::Batch { frames: vec![] }.encode();
        let outer = TFrame::Batch {
            frames: vec![inner],
        };
        // Encode via raw bytes (the debug_assert guards release encode).
        let mut raw = BytesMut::new();
        raw.put_u8(0xB7);
        raw.put_u16_le(1);
        let TFrame::Batch { frames } = &outer else {
            unreachable!()
        };
        raw.put_u32_le(frames[0].len() as u32);
        raw.put_slice(&frames[0]);
        assert_eq!(TFrame::decode(raw.freeze()), None);
    }

    #[test]
    fn batch_truncations_rejected() {
        let f = TFrame::Batch {
            frames: vec![TFrame::Ack {
                xfer: 3,
                src: ProcessId(1),
            }
            .encode()],
        };
        let enc = f.encode();
        for cut in 0..enc.len() {
            let mut part = enc.clone();
            part.truncate(cut);
            assert_eq!(TFrame::decode(part), None, "cut {cut}");
        }
    }

    #[test]
    fn truncations_rejected() {
        let f = TFrame::Data {
            xfer: 9,
            src: ProcessId(2),
            frag_index: 0,
            frag_count: 1,
            payload: Bytes::from_static(b"abcdef"),
        };
        let enc = f.encode();
        for cut in 0..enc.len() {
            let mut part = enc.clone();
            part.truncate(cut);
            assert_eq!(TFrame::decode(part), None, "cut {cut}");
        }
    }
}
