//! Deterministic binary wire codec.
//!
//! Fixed-width little-endian primitives, `u32` length prefixes with sanity
//! bounds, one tag byte per enum. The format is intentionally boring: the
//! experiment harness (Table 1) measures the encoded size of every PDU, so
//! the codec must be deterministic and must never pad.
//!
//! A type of one fixed encoded size states its layout once ([`FixedWidth`]);
//! vectors of such elements — every `n`-wide vector of a request or a
//! decision — are coded in bulk. Only vectors of variable-width elements
//! (messages, recovery runs) take a per-element loop.
//!
//! Every implementation guarantees `encoded_len() == bytes written by
//! encode()` and `decode(encode(x)) == x`; both invariants are enforced by
//! property tests.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::decision::{Decision, MaxProcessed};
use crate::error::WireError;
use crate::id::{Mid, ProcessId, Round, Subrun};
use crate::pdu::{
    DataMsg, Pdu, RecoveryBatch, RecoveryBatchRq, RecoveryReply, RecoveryRq, RecoveryRun,
    RecoveryWant, RequestMsg,
};
use crate::tag;

/// Sanity bound on decoded vector lengths (group-sized vectors and
/// dependency lists are tiny; recovery replies are bounded by history size).
pub const MAX_VEC_LEN: u64 = 1 << 20;
/// Sanity bound on decoded payload sizes.
pub const MAX_PAYLOAD_LEN: u64 = 1 << 24;

/// Types that can serialize themselves into a buffer.
pub trait WireEncode {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Exact number of bytes [`WireEncode::encode`] will append.
    fn encoded_len(&self) -> usize;
}

/// Types that can deserialize themselves from a buffer.
pub trait WireDecode: Sized {
    /// Consumes the encoding of `Self` from the front of `buf`.
    fn decode(buf: &mut Bytes) -> Result<Self, WireError>;
}

/// Bytes the frame trailer adds on top of [`WireEncode::encoded_len`].
pub const FRAME_TRAILER_LEN: usize = 4;

/// Odd multiplier of every checksum step (the 32-bit golden-ratio prime):
/// `x -> x * CHECKSUM_MUL` is a bijection on `u32`.
const CHECKSUM_MUL: u32 = 0x9E37_79B1;
/// Distinct non-zero lane seeds, so an all-zero body does not leave the
/// lanes at zero and equal words in different lanes do not look alike.
const CHECKSUM_LANES: [u32; 4] = [0x811C_9DC5, 0x85EB_CA77, 0xC2B2_AE3D, 0x27D4_EB2F];
/// Lane rotation per step: moves the product's top bits, which a
/// multiply never diffuses, down to where the next multiply spreads them.
const CHECKSUM_ROT: u32 = 13;

/// The integrity trailer: a word-parallel multiply-xor checksum of the
/// frame body.
///
/// Under the paper's **general omission** failure model a packet is either
/// delivered intact or lost; real datagram stacks enforce this with
/// checksums. Without one, a single bit flip surviving into a decoded PDU
/// can *forge protocol state* — e.g. inflate a request's `last_processed`
/// entry so the whole group chases a phantom recovery target until every
/// member exhausts its `R` budget. The trailer turns corruption back into
/// the omission the model expects.
///
/// The guard runs over every byte of every frame, twice (encode, decode),
/// so it is built for throughput: the body is read as little-endian `u32`
/// words, 16 bytes per step, into four independent lanes (a byte-serial
/// hash pays one dependent multiply per *byte*). The lanes are folded
/// together, the sub-16-byte tail goes in byte by byte, the body length
/// goes in last.
///
/// Every step is `(state ^ input) * odd`, then a rotation — a bijection of
/// the state for a fixed input *and* of the input for a fixed state. So a
/// corruption confined to one aligned word of the body, or to one tail
/// byte (every single-bit flip is one or the other), changes exactly one
/// lane or one tail step, and the change survives every later step: it is
/// always rejected, not just with probability `1 - 2^-32`. Wider
/// corruption, truncation and padding are caught with that probability;
/// the length step makes two bodies of different lengths differ even
/// where the lanes and tail alone would have agreed (zero words into a
/// zero lane). It is a checksum, not a CRC or a MAC: nothing is promised
/// about chosen errors, and flips in two words of one lane can cancel.
///
/// The length wraps at `u32`; frames are bounded far below that.
pub fn frame_checksum(body: &[u8]) -> u32 {
    let step = |state: u32, input: u32| {
        (state ^ input)
            .wrapping_mul(CHECKSUM_MUL)
            .rotate_left(CHECKSUM_ROT)
    };
    let mut lanes = CHECKSUM_LANES;
    let mut blocks = body.chunks_exact(16);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            let word = u32::from_le_bytes(word.try_into().expect("4-byte chunk"));
            *lane = step(*lane, word);
        }
    }
    let mut sum = lanes.into_iter().fold(0, step);
    for &byte in blocks.remainder() {
        sum = step(sum, u32::from(byte));
    }
    sum = step(sum, body.len() as u32);
    sum ^ (sum >> 15)
}

/// Appends the framed encoding of `pdu` (body + checksum trailer) to `buf`.
///
/// The `encoded_len` contract is a **hard** assertion, release builds
/// included: fragmentation and pre-sizing derive datagram shapes from frame
/// lengths, so a stale `encoded_len` impl must abort the send rather than
/// silently emit a mis-framed PDU.
pub fn encode_pdu_into(pdu: &Pdu, buf: &mut BytesMut) {
    let start = buf.len();
    pdu.encode(buf);
    assert_eq!(
        buf.len() - start,
        pdu.encoded_len(),
        "encoded_len out of sync with encode(): framing would corrupt"
    );
    let sum = frame_checksum(&buf[start..]);
    buf.put_u32_le(sum);
}

/// Encodes a PDU into a freshly allocated frame (body + checksum trailer).
///
/// One-shot convenience; fan-out paths should prefer [`FrameCache`], which
/// amortizes the buffer across frames.
pub fn encode_pdu(pdu: &Pdu) -> Bytes {
    let mut buf = BytesMut::with_capacity(pdu.encoded_len() + FRAME_TRAILER_LEN);
    encode_pdu_into(pdu, &mut buf);
    buf.freeze()
}

/// Reusable encode arena: encode once, refcount-share per destination.
///
/// The naive send path pays at least two allocations per frame (buffer
/// growth plus the freeze into an `Arc<[u8]>`) — and the pre-PR fan-out
/// paid that *per destination*. A `FrameCache` keeps one warm `BytesMut`
/// across calls: encoding writes into retained capacity (zero growth
/// allocations at steady state) and the returned [`Bytes`] is a single
/// shared allocation that callers `clone()` per destination for the cost
/// of a refcount bump. Net steady-state cost: exactly one allocation per
/// *frame*, independent of fan-out.
#[derive(Debug, Default)]
pub struct FrameCache {
    buf: BytesMut,
}

impl FrameCache {
    /// Creates an empty cache; the arena warms up on first use.
    pub fn new() -> FrameCache {
        FrameCache {
            buf: BytesMut::new(),
        }
    }

    /// Encodes `pdu` into one frame (body + checksum trailer). Clone the
    /// returned `Bytes` per destination — clones share the allocation.
    pub fn encode(&mut self, pdu: &Pdu) -> Bytes {
        self.buf.clear();
        self.buf.reserve(pdu.encoded_len() + FRAME_TRAILER_LEN);
        encode_pdu_into(pdu, &mut self.buf);
        Bytes::copy_from_slice(&self.buf)
    }

    /// Encodes an arbitrary frame layout through the warm buffer: `fill`
    /// writes the frame body, the cache copies it out as one shared
    /// allocation. For non-PDU framings (e.g. the client/server codec)
    /// that want the same arena reuse.
    pub fn encode_with(&mut self, fill: impl FnOnce(&mut BytesMut)) -> Bytes {
        self.buf.clear();
        fill(&mut self.buf);
        Bytes::copy_from_slice(&self.buf)
    }

    /// Bytes of capacity currently retained by the arena.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// Decodes a PDU from a frame, verifying the checksum trailer and requiring
/// the body to be fully consumed.
pub fn decode_pdu(frame: &Bytes) -> Result<Pdu, WireError> {
    if frame.len() < FRAME_TRAILER_LEN {
        return Err(WireError::UnexpectedEof {
            context: "frame trailer",
        });
    }
    let body_len = frame.len() - FRAME_TRAILER_LEN;
    let carried = u32::from_le_bytes(frame[body_len..].try_into().expect("4 bytes"));
    let actual = frame_checksum(&frame[..body_len]);
    if carried != actual {
        return Err(WireError::ChecksumMismatch {
            expected: carried,
            actual,
        });
    }
    let mut buf = frame.slice(..body_len);
    let pdu = Pdu::decode(&mut buf)?;
    if buf.has_remaining() {
        return Err(WireError::LengthOverflow {
            context: "trailing bytes after Pdu",
            declared: buf.remaining() as u64,
            max: 0,
        });
    }
    Ok(pdu)
}

fn need(buf: &Bytes, n: usize, context: &'static str) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::UnexpectedEof { context })
    } else {
        Ok(())
    }
}

/// A type whose every value encodes to the same [`WIDTH`](Self::WIDTH)
/// bytes. Its layout is written once, in `put`/`get`; the type's own
/// [`WireEncode`]/[`WireDecode`] impls and the bulk `Vec<T>` codec are both
/// derived from them, so a vector of `n` such elements costs one bounds
/// check and one slice walk instead of `n` cursor operations.
pub trait FixedWidth: Sized {
    /// Encoded size of every value, in bytes: at least 1 and at most 256
    /// (the vector encoder stages that many bytes per `put_slice`).
    const WIDTH: usize;
    /// What a [`WireError::UnexpectedEof`] names when input runs out.
    const CONTEXT: &'static str;
    /// Writes the encoding into `out`, which is exactly `WIDTH` bytes.
    fn put(&self, out: &mut [u8]);
    /// Reads a value from `raw`, which is exactly `WIDTH` bytes.
    fn get(raw: &[u8]) -> Result<Self, WireError>;
}

/// Writes `value` at the front of a fixed-width record and steps past it.
#[inline]
fn put_field<T: FixedWidth>(value: &T, out: &mut &mut [u8]) {
    let (head, rest) = std::mem::take(out).split_at_mut(T::WIDTH);
    value.put(head);
    *out = rest;
}

/// Reads a `T` from the front of a fixed-width record and steps past it.
#[inline]
fn get_field<T: FixedWidth>(raw: &mut &[u8]) -> Result<T, WireError> {
    let (head, rest) = raw.split_at(T::WIDTH);
    *raw = rest;
    T::get(head)
}

macro_rules! impl_fixed_uint {
    ($($ty:ty => $ctx:literal),+) => {$(
        impl FixedWidth for $ty {
            const WIDTH: usize = core::mem::size_of::<$ty>();
            const CONTEXT: &'static str = $ctx;
            #[inline]
            fn put(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(raw: &[u8]) -> Result<Self, WireError> {
                Ok(<$ty>::from_le_bytes(raw.try_into().expect("WIDTH bytes")))
            }
        }
    )+};
}

impl_fixed_uint!(u8 => "u8", u16 => "u16", u32 => "u32", u64 => "u64");

impl FixedWidth for bool {
    const WIDTH: usize = 1;
    const CONTEXT: &'static str = "bool";
    #[inline]
    fn put(&self, out: &mut [u8]) {
        out[0] = *self as u8;
    }
    #[inline]
    fn get(raw: &[u8]) -> Result<Self, WireError> {
        match raw[0] {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(WireError::BadBool { value }),
        }
    }
}

/// A newtype is laid out as the integer it wraps.
macro_rules! impl_fixed_newtype {
    ($($ty:ident($inner:ty)),+) => {$(
        impl FixedWidth for $ty {
            const WIDTH: usize = <$inner>::WIDTH;
            const CONTEXT: &'static str = stringify!($ty);
            #[inline]
            fn put(&self, out: &mut [u8]) {
                self.0.put(out);
            }
            #[inline]
            fn get(raw: &[u8]) -> Result<Self, WireError> {
                Ok($ty(<$inner>::get(raw)?))
            }
        }
    )+};
}

impl_fixed_newtype!(ProcessId(u16), Round(u64), Subrun(u64));

impl FixedWidth for Mid {
    const WIDTH: usize = ProcessId::WIDTH + u64::WIDTH;
    const CONTEXT: &'static str = "Mid";
    #[inline]
    fn put(&self, mut out: &mut [u8]) {
        put_field(&self.origin, &mut out);
        put_field(&self.seq, &mut out);
    }
    #[inline]
    fn get(mut raw: &[u8]) -> Result<Self, WireError> {
        Ok(Mid {
            origin: get_field(&mut raw)?,
            seq: get_field(&mut raw)?,
        })
    }
}

impl FixedWidth for MaxProcessed {
    const WIDTH: usize = ProcessId::WIDTH + u64::WIDTH;
    const CONTEXT: &'static str = "MaxProcessed";
    #[inline]
    fn put(&self, mut out: &mut [u8]) {
        put_field(&self.holder, &mut out);
        put_field(&self.seq, &mut out);
    }
    #[inline]
    fn get(mut raw: &[u8]) -> Result<Self, WireError> {
        Ok(MaxProcessed {
            holder: get_field(&mut raw)?,
            seq: get_field(&mut raw)?,
        })
    }
}

impl FixedWidth for RecoveryWant {
    const WIDTH: usize = ProcessId::WIDTH + 2 * u64::WIDTH;
    const CONTEXT: &'static str = "RecoveryWant";
    #[inline]
    fn put(&self, mut out: &mut [u8]) {
        put_field(&self.origin, &mut out);
        put_field(&self.after_seq, &mut out);
        put_field(&self.upto_seq, &mut out);
    }
    #[inline]
    fn get(mut raw: &[u8]) -> Result<Self, WireError> {
        Ok(RecoveryWant {
            origin: get_field(&mut raw)?,
            after_seq: get_field(&mut raw)?,
            upto_seq: get_field(&mut raw)?,
        })
    }
}

/// Derives the single-value codec of [`FixedWidth`] types from their layout.
macro_rules! impl_wire_fixed {
    ($($ty:ty),+) => {$(
        impl WireEncode for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                let mut raw = [0u8; <$ty as FixedWidth>::WIDTH];
                self.put(&mut raw);
                buf.put_slice(&raw);
            }
            fn encoded_len(&self) -> usize {
                <$ty as FixedWidth>::WIDTH
            }
        }
        impl WireDecode for $ty {
            fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
                const WIDTH: usize = <$ty as FixedWidth>::WIDTH;
                need(buf, WIDTH, <$ty as FixedWidth>::CONTEXT)?;
                let value = <$ty as FixedWidth>::get(&buf.chunk()[..WIDTH])?;
                buf.advance(WIDTH);
                Ok(value)
            }
        }
    )+};
}

impl_wire_fixed!(u8, u16, u32, u64, bool);
impl_wire_fixed!(ProcessId, Round, Subrun, Mid, MaxProcessed, RecoveryWant);

/// Bytes of fixed-width elements staged on the stack per `put_slice`.
const ENCODE_CHUNK: usize = 256;

/// Decodes a vector's `u32` element count, bounded by [`MAX_VEC_LEN`].
fn decode_vec_len(buf: &mut Bytes) -> Result<usize, WireError> {
    let len = u32::decode(buf)? as u64;
    if len > MAX_VEC_LEN {
        return Err(WireError::LengthOverflow {
            context: "Vec",
            declared: len,
            max: MAX_VEC_LEN,
        });
    }
    Ok(len as usize)
}

/// The bulk path: a vector of fixed-width elements is a length prefix and
/// `len * WIDTH` contiguous bytes.
impl<T: FixedWidth> WireEncode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        buf.reserve(self.len() * T::WIDTH);
        let mut staged = [0u8; ENCODE_CHUNK];
        for group in self.chunks(ENCODE_CHUNK / T::WIDTH) {
            let staged = &mut staged[..group.len() * T::WIDTH];
            for (item, out) in group.iter().zip(staged.chunks_exact_mut(T::WIDTH)) {
                item.put(out);
            }
            buf.put_slice(staged);
        }
    }
    fn encoded_len(&self) -> usize {
        4 + self.len() * T::WIDTH
    }
}

impl<T: FixedWidth> WireDecode for Vec<T> {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = decode_vec_len(buf)?;
        // `len <= MAX_VEC_LEN` and `WIDTH <= ENCODE_CHUNK`: no overflow.
        // Checked before reserving, so a hostile count with no bytes behind
        // it allocates nothing.
        let total = len * T::WIDTH;
        need(buf, total, T::CONTEXT)?;
        let mut out = Vec::with_capacity(len);
        for raw in buf.chunk()[..total].chunks_exact(T::WIDTH) {
            out.push(T::get(raw)?);
        }
        buf.advance(total);
        Ok(out)
    }
}

/// Derives the `Vec` codec of a variable-width element type: the
/// per-element loop. `$min` is the smallest encoding an element can have; a
/// count the remaining bytes could not hold even at that size is rejected
/// before anything is reserved for it.
macro_rules! impl_wire_var_vec {
    ($ty:ty, $min:expr, $ctx:literal) => {
        impl WireEncode for Vec<$ty> {
            fn encode(&self, buf: &mut BytesMut) {
                (self.len() as u32).encode(buf);
                for item in self {
                    item.encode(buf);
                }
            }
            fn encoded_len(&self) -> usize {
                4 + self.iter().map(WireEncode::encoded_len).sum::<usize>()
            }
        }
        impl WireDecode for Vec<$ty> {
            fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
                let len = decode_vec_len(buf)?;
                need(buf, len * $min, $ctx)?;
                let mut out = Vec::with_capacity(len);
                for _ in 0..len {
                    out.push(<$ty>::decode(buf)?);
                }
                Ok(out)
            }
        }
    };
}

/// Smallest encoded [`DataMsg`]: mid, empty `deps`, round, empty payload.
const DATA_MSG_MIN_LEN: usize = Mid::WIDTH + 4 + Round::WIDTH + 4;
/// Smallest encoded [`RecoveryRun`]: origin and an empty `messages`.
const RECOVERY_RUN_MIN_LEN: usize = ProcessId::WIDTH + 4;

impl_wire_var_vec!(Arc<DataMsg>, DATA_MSG_MIN_LEN, "DataMsg");
impl_wire_var_vec!(RecoveryRun, RECOVERY_RUN_MIN_LEN, "RecoveryRun");

impl<T: WireEncode> WireEncode for Arc<T> {
    fn encode(&self, buf: &mut BytesMut) {
        (**self).encode(buf);
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

impl<T: WireDecode> WireDecode for Arc<T> {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Arc::new(T::decode(buf)?))
    }
}

impl WireEncode for Bytes {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        buf.put_slice(self);
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl WireDecode for Bytes {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = u32::decode(buf)? as u64;
        if len > MAX_PAYLOAD_LEN {
            return Err(WireError::LengthOverflow {
                context: "Bytes",
                declared: len,
                max: MAX_PAYLOAD_LEN,
            });
        }
        need(buf, len as usize, "Bytes")?;
        Ok(buf.split_to(len as usize))
    }
}

impl WireEncode for Decision {
    fn encode(&self, buf: &mut BytesMut) {
        self.subrun.encode(buf);
        self.coordinator.encode(buf);
        self.full_group.encode(buf);
        self.stable.encode(buf);
        self.attempts.encode(buf);
        self.process_state.encode(buf);
        self.max_processed.encode(buf);
        self.min_waiting.encode(buf);
        self.covered.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.subrun.encoded_len()
            + self.coordinator.encoded_len()
            + self.full_group.encoded_len()
            + self.stable.encoded_len()
            + self.attempts.encoded_len()
            + self.process_state.encoded_len()
            + self.max_processed.encoded_len()
            + self.min_waiting.encoded_len()
            + self.covered.encoded_len()
    }
}

impl WireDecode for Decision {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Decision {
            subrun: Subrun::decode(buf)?,
            coordinator: ProcessId::decode(buf)?,
            full_group: bool::decode(buf)?,
            stable: Vec::decode(buf)?,
            attempts: Vec::decode(buf)?,
            process_state: Vec::decode(buf)?,
            max_processed: Vec::decode(buf)?,
            min_waiting: Vec::decode(buf)?,
            covered: Vec::decode(buf)?,
        })
    }
}

impl WireEncode for DataMsg {
    fn encode(&self, buf: &mut BytesMut) {
        self.mid.encode(buf);
        self.deps.encode(buf);
        self.round.encode(buf);
        self.payload.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.mid.encoded_len()
            + self.deps.encoded_len()
            + self.round.encoded_len()
            + self.payload.encoded_len()
    }
}

impl WireDecode for DataMsg {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(DataMsg {
            mid: Mid::decode(buf)?,
            deps: Vec::decode(buf)?,
            round: Round::decode(buf)?,
            payload: Bytes::decode(buf)?,
        })
    }
}

impl WireEncode for RequestMsg {
    fn encode(&self, buf: &mut BytesMut) {
        self.sender.encode(buf);
        self.subrun.encode(buf);
        self.last_processed.encode(buf);
        self.waiting.encode(buf);
        self.prev_decision.encode(buf);
        self.forwarded.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.sender.encoded_len()
            + self.subrun.encoded_len()
            + self.last_processed.encoded_len()
            + self.waiting.encoded_len()
            + self.prev_decision.encoded_len()
            + self.forwarded.encoded_len()
    }
}

impl WireDecode for RequestMsg {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(RequestMsg {
            sender: ProcessId::decode(buf)?,
            subrun: Subrun::decode(buf)?,
            last_processed: Vec::decode(buf)?,
            waiting: Vec::decode(buf)?,
            prev_decision: Arc::decode(buf)?,
            forwarded: bool::decode(buf)?,
        })
    }
}

impl WireEncode for RecoveryRq {
    fn encode(&self, buf: &mut BytesMut) {
        self.requester.encode(buf);
        self.origin.encode(buf);
        self.after_seq.encode(buf);
        self.upto_seq.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        2 + 2 + 8 + 8
    }
}

impl WireDecode for RecoveryRq {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(RecoveryRq {
            requester: ProcessId::decode(buf)?,
            origin: ProcessId::decode(buf)?,
            after_seq: u64::decode(buf)?,
            upto_seq: u64::decode(buf)?,
        })
    }
}

impl WireEncode for RecoveryReply {
    fn encode(&self, buf: &mut BytesMut) {
        self.responder.encode(buf);
        self.origin.encode(buf);
        self.messages.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        2 + 2 + self.messages.encoded_len()
    }
}

impl WireDecode for RecoveryReply {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(RecoveryReply {
            responder: ProcessId::decode(buf)?,
            origin: ProcessId::decode(buf)?,
            messages: Vec::decode(buf)?,
        })
    }
}

impl WireEncode for RecoveryBatchRq {
    fn encode(&self, buf: &mut BytesMut) {
        self.requester.encode(buf);
        self.wants.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        2 + self.wants.encoded_len()
    }
}

impl WireDecode for RecoveryBatchRq {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(RecoveryBatchRq {
            requester: ProcessId::decode(buf)?,
            wants: Vec::decode(buf)?,
        })
    }
}

impl WireEncode for RecoveryRun {
    fn encode(&self, buf: &mut BytesMut) {
        self.origin.encode(buf);
        self.messages.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        2 + self.messages.encoded_len()
    }
}

impl WireDecode for RecoveryRun {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(RecoveryRun {
            origin: ProcessId::decode(buf)?,
            messages: Vec::decode(buf)?,
        })
    }
}

impl WireEncode for RecoveryBatch {
    fn encode(&self, buf: &mut BytesMut) {
        self.responder.encode(buf);
        self.runs.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        2 + self.runs.encoded_len()
    }
}

impl WireDecode for RecoveryBatch {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(RecoveryBatch {
            responder: ProcessId::decode(buf)?,
            runs: Vec::decode(buf)?,
        })
    }
}

/// Peeks the PDU kind of an encoded frame from its leading tag byte
/// without decoding (or checksum-verifying) the body. Relay layers use
/// this to classify frames they carry opaquely; `None` means the tag is
/// not a PDU tag.
pub fn frame_kind(frame: &[u8]) -> Option<crate::pdu::PduKind> {
    use crate::pdu::PduKind;
    match frame.first()? {
        &tag::DATA => Some(PduKind::Data),
        &tag::REQUEST => Some(PduKind::Request),
        &tag::DECISION => Some(PduKind::Decision),
        &tag::RECOVERY_RQ | &tag::RECOVERY_BATCH_RQ => Some(PduKind::RecoveryRq),
        &tag::RECOVERY_REPLY | &tag::RECOVERY_BATCH => Some(PduKind::RecoveryReply),
        _ => None,
    }
}

impl WireEncode for Pdu {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Pdu::Data(m) => {
                buf.put_u8(tag::DATA);
                m.encode(buf);
            }
            Pdu::Request(m) => {
                buf.put_u8(tag::REQUEST);
                m.encode(buf);
            }
            Pdu::Decision(m) => {
                buf.put_u8(tag::DECISION);
                m.encode(buf);
            }
            Pdu::RecoveryRq(m) => {
                buf.put_u8(tag::RECOVERY_RQ);
                m.encode(buf);
            }
            Pdu::RecoveryReply(m) => {
                buf.put_u8(tag::RECOVERY_REPLY);
                m.encode(buf);
            }
            Pdu::RecoveryBatchRq(m) => {
                buf.put_u8(tag::RECOVERY_BATCH_RQ);
                m.encode(buf);
            }
            Pdu::RecoveryBatch(m) => {
                buf.put_u8(tag::RECOVERY_BATCH);
                m.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            Pdu::Data(m) => m.encoded_len(),
            Pdu::Request(m) => m.encoded_len(),
            Pdu::Decision(m) => m.encoded_len(),
            Pdu::RecoveryRq(m) => m.encoded_len(),
            Pdu::RecoveryReply(m) => m.encoded_len(),
            Pdu::RecoveryBatchRq(m) => m.encoded_len(),
            Pdu::RecoveryBatch(m) => m.encoded_len(),
        }
    }
}

impl WireDecode for Pdu {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            tag::DATA => Ok(Pdu::Data(Arc::decode(buf)?)),
            tag::REQUEST => Ok(Pdu::Request(RequestMsg::decode(buf)?)),
            tag::DECISION => Ok(Pdu::Decision(Arc::decode(buf)?)),
            tag::RECOVERY_RQ => Ok(Pdu::RecoveryRq(RecoveryRq::decode(buf)?)),
            tag::RECOVERY_REPLY => Ok(Pdu::RecoveryReply(RecoveryReply::decode(buf)?)),
            tag::RECOVERY_BATCH_RQ => Ok(Pdu::RecoveryBatchRq(RecoveryBatchRq::decode(buf)?)),
            tag::RECOVERY_BATCH => Ok(Pdu::RecoveryBatch(RecoveryBatch::decode(buf)?)),
            tag => Err(WireError::BadTag {
                context: "Pdu",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::NO_SEQ;

    fn roundtrip(pdu: &Pdu) {
        let frame = encode_pdu(pdu);
        assert_eq!(frame.len(), pdu.encoded_len() + FRAME_TRAILER_LEN);
        let back = decode_pdu(&frame).expect("decode");
        assert_eq!(&back, pdu);
    }

    /// Builds a frame with a valid checksum from raw body bytes (for tests
    /// probing the decoder past the integrity check).
    fn seal(body: &[u8]) -> Bytes {
        let mut buf = BytesMut::from(body);
        let sum = super::frame_checksum(body);
        buf.put_u32_le(sum);
        buf.freeze()
    }

    fn sample_decision(n: usize) -> Decision {
        let mut d = Decision::genesis(n);
        d.subrun = Subrun(7);
        d.coordinator = ProcessId(1);
        d.full_group = false;
        d.stable[0] = 3;
        d.attempts[1] = 2;
        d.process_state[1] = false;
        d.max_processed[0] = MaxProcessed {
            holder: ProcessId(2),
            seq: 9,
        };
        d.min_waiting[2] = 5;
        d
    }

    #[test]
    fn data_roundtrip() {
        roundtrip(&Pdu::data(DataMsg {
            mid: Mid::new(ProcessId(3), 12),
            deps: vec![Mid::new(ProcessId(0), 1), Mid::new(ProcessId(2), 4)],
            round: Round(8),
            payload: Bytes::from_static(b"causal payload"),
        }));
    }

    #[test]
    fn empty_payload_roundtrip() {
        roundtrip(&Pdu::data(DataMsg {
            mid: Mid::new(ProcessId(0), 1),
            deps: vec![],
            round: Round(0),
            payload: Bytes::new(),
        }));
    }

    #[test]
    fn request_roundtrip() {
        roundtrip(&Pdu::Request(RequestMsg {
            sender: ProcessId(2),
            subrun: Subrun(5),
            last_processed: vec![1, 0, 7],
            waiting: vec![NO_SEQ, 4, NO_SEQ],
            prev_decision: Arc::new(sample_decision(3)),
            forwarded: true,
        }));
    }

    #[test]
    fn decision_roundtrip() {
        roundtrip(&Pdu::decision(sample_decision(5)));
    }

    #[test]
    fn recovery_roundtrip() {
        roundtrip(&Pdu::RecoveryRq(RecoveryRq {
            requester: ProcessId(4),
            origin: ProcessId(0),
            after_seq: 2,
            upto_seq: 9,
        }));
        roundtrip(&Pdu::RecoveryReply(RecoveryReply {
            responder: ProcessId(1),
            origin: ProcessId(0),
            messages: vec![Arc::new(DataMsg {
                mid: Mid::new(ProcessId(0), 3),
                deps: vec![Mid::new(ProcessId(0), 2)],
                round: Round(6),
                payload: Bytes::from_static(b"x"),
            })],
        }));
    }

    #[test]
    fn batched_recovery_roundtrip() {
        roundtrip(&Pdu::RecoveryBatchRq(RecoveryBatchRq {
            requester: ProcessId(4),
            wants: vec![
                RecoveryWant {
                    origin: ProcessId(0),
                    after_seq: 2,
                    upto_seq: 9,
                },
                RecoveryWant {
                    origin: ProcessId(2),
                    after_seq: NO_SEQ,
                    upto_seq: 3,
                },
            ],
        }));
        roundtrip(&Pdu::RecoveryBatch(RecoveryBatch {
            responder: ProcessId(1),
            runs: vec![
                RecoveryRun {
                    origin: ProcessId(0),
                    messages: vec![Arc::new(DataMsg {
                        mid: Mid::new(ProcessId(0), 3),
                        deps: vec![Mid::new(ProcessId(0), 2)],
                        round: Round(6),
                        payload: Bytes::from_static(b"x"),
                    })],
                },
                RecoveryRun {
                    origin: ProcessId(2),
                    messages: vec![],
                },
            ],
        }));
        // Degenerate but legal: empty batches.
        roundtrip(&Pdu::RecoveryBatchRq(RecoveryBatchRq {
            requester: ProcessId(0),
            wants: vec![],
        }));
        roundtrip(&Pdu::RecoveryBatch(RecoveryBatch {
            responder: ProcessId(0),
            runs: vec![],
        }));
    }

    #[test]
    fn batched_frame_is_smaller_than_the_per_origin_frames_it_replaces() {
        // The point of batching: one tag + requester amortized over every
        // origin, instead of a full RecoveryRq frame per origin.
        let wants: Vec<RecoveryWant> = (0..40)
            .map(|q| RecoveryWant {
                origin: ProcessId(q),
                after_seq: 1,
                upto_seq: 5,
            })
            .collect();
        let batched = Pdu::RecoveryBatchRq(RecoveryBatchRq {
            requester: ProcessId(0),
            wants: wants.clone(),
        })
        .encoded_len()
            + FRAME_TRAILER_LEN;
        let unbatched: usize = wants
            .iter()
            .map(|w| {
                Pdu::RecoveryRq(RecoveryRq {
                    requester: ProcessId(0),
                    origin: w.origin,
                    after_seq: w.after_seq,
                    upto_seq: w.upto_seq,
                })
                .encoded_len()
                    + FRAME_TRAILER_LEN
            })
            .sum();
        assert!(batched < unbatched, "{batched} vs {unbatched}");
    }

    #[test]
    fn bad_tag_is_rejected() {
        let frame = seal(&[0xFF]);
        assert!(matches!(
            decode_pdu(&frame),
            Err(WireError::BadTag { tag: 0xFF, .. })
        ));
    }

    fn sample_batch_rq() -> Pdu {
        Pdu::RecoveryBatchRq(RecoveryBatchRq {
            requester: ProcessId(4),
            wants: vec![
                RecoveryWant {
                    origin: ProcessId(0),
                    after_seq: 2,
                    upto_seq: 9,
                },
                RecoveryWant {
                    origin: ProcessId(2),
                    after_seq: NO_SEQ,
                    upto_seq: 3,
                },
            ],
        })
    }

    fn sample_batch() -> Pdu {
        Pdu::RecoveryBatch(RecoveryBatch {
            responder: ProcessId(1),
            runs: vec![RecoveryRun {
                origin: ProcessId(0),
                messages: vec![Arc::new(DataMsg {
                    mid: Mid::new(ProcessId(0), 3),
                    deps: vec![Mid::new(ProcessId(0), 2)],
                    round: Round(6),
                    payload: Bytes::from_static(b"recovered"),
                })],
            }],
        })
    }

    #[test]
    fn corrupted_frame_fails_the_checksum() {
        // Sweep every byte of every shape we put on the wire by default —
        // including the batched recovery tags (6/7), which are the common
        // case now that `batched_recovery` defaults on.
        for pdu in [
            Pdu::decision(sample_decision(4)),
            sample_batch_rq(),
            sample_batch(),
        ] {
            let frame = encode_pdu(&pdu);
            for i in 0..frame.len() {
                let mut raw = frame.to_vec();
                raw[i] ^= 0x04;
                assert!(
                    matches!(
                        decode_pdu(&Bytes::from(raw)),
                        Err(WireError::ChecksumMismatch { .. })
                    ),
                    "flip at byte {i} slipped through"
                );
            }
        }
    }

    #[test]
    fn frame_cache_matches_one_shot_encoding() {
        let mut cache = FrameCache::new();
        for pdu in [
            Pdu::decision(sample_decision(4)),
            sample_batch_rq(),
            sample_batch(),
            Pdu::data(DataMsg {
                mid: Mid::new(ProcessId(3), 12),
                deps: vec![Mid::new(ProcessId(0), 1)],
                round: Round(8),
                payload: Bytes::from_static(b"causal payload"),
            }),
        ] {
            let cached = cache.encode(&pdu);
            assert_eq!(cached, encode_pdu(&pdu), "cache changed the framing");
            assert_eq!(decode_pdu(&cached).expect("decode"), pdu);
        }
    }

    #[test]
    fn frame_cache_clones_share_one_allocation() {
        let mut cache = FrameCache::new();
        let frame = cache.encode(&Pdu::decision(sample_decision(8)));
        let fanout: Vec<Bytes> = (0..100).map(|_| frame.clone()).collect();
        let base = frame.as_ptr();
        for copy in &fanout {
            assert_eq!(copy.as_ptr(), base, "clone re-allocated the frame");
        }
    }

    #[test]
    fn frame_cache_retains_capacity_across_frames() {
        let mut cache = FrameCache::new();
        let big = cache.encode(&Pdu::decision(sample_decision(64)));
        let warm = cache.capacity();
        assert!(warm >= big.len());
        // Smaller frames reuse the warm arena instead of growing it.
        cache.encode(&Pdu::decision(sample_decision(4)));
        cache.encode(&sample_batch_rq());
        assert_eq!(cache.capacity(), warm, "steady-state encode grew the arena");
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let full = encode_pdu(&Pdu::decision(sample_decision(4)));
        for cut in 0..full.len() {
            let mut part = full.clone();
            part.truncate(cut);
            assert!(decode_pdu(&part).is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = BytesMut::new();
        Pdu::RecoveryRq(RecoveryRq {
            requester: ProcessId(0),
            origin: ProcessId(1),
            after_seq: 0,
            upto_seq: 1,
        })
        .encode(&mut body);
        body.put_u8(0xAB);
        assert!(matches!(
            decode_pdu(&seal(&body)),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        // Vec length claiming 2^31 entries must be caught by the bound, not
        // by an allocation attempt (sealed so the check under test is the
        // length bound, not the checksum).
        let mut body = BytesMut::new();
        body.put_u8(crate::tag::RECOVERY_REPLY);
        body.put_u16_le(0); // responder
        body.put_u16_le(0); // origin
        body.put_u32_le(1 << 31); // messages length
        assert!(matches!(
            decode_pdu(&seal(&body)),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn minimum_element_lengths_are_the_empty_encodings() {
        // What the variable-width vector decoder divides the remaining
        // bytes by: an element cannot be shorter than this.
        let empty = DataMsg {
            mid: Mid::new(ProcessId(0), 1),
            deps: vec![],
            round: Round(0),
            payload: Bytes::new(),
        };
        assert_eq!(empty.encoded_len(), DATA_MSG_MIN_LEN);
        let run = RecoveryRun {
            origin: ProcessId(0),
            messages: vec![],
        };
        assert_eq!(run.encoded_len(), RECOVERY_RUN_MIN_LEN);
    }

    #[test]
    fn bad_bool_is_rejected() {
        let mut good = BytesMut::new();
        Pdu::decision(sample_decision(3)).encode(&mut good);
        let mut raw = good.to_vec();
        // full_group is the byte right after tag(1) + subrun(8) + coord(2).
        // Re-seal so the structural check (not the checksum) is under test.
        raw[11] = 7;
        assert!(matches!(
            decode_pdu(&seal(&raw)),
            Err(WireError::BadBool { value: 7 })
        ));
    }

    #[test]
    fn decision_size_scales_linearly_in_n() {
        // Table 1 reports urcgc control sizes linear in n; the codec must
        // preserve that shape: fixed header + per-process cost.
        let s5 = Pdu::decision(Decision::genesis(5)).encoded_len();
        let s10 = Pdu::decision(Decision::genesis(10)).encoded_len();
        let s20 = Pdu::decision(Decision::genesis(20)).encoded_len();
        assert_eq!(s10 - s5, (s20 - s10) / 2);
        let per_process = (s10 - s5) / 5;
        // stable 8 + attempts 4 + state 1 + max_processed 10 + min_waiting 8
        // + covered 1
        assert_eq!(per_process, 32);
    }

    #[test]
    fn urcgc_control_fits_ip_datagram_for_n15() {
        // Section 6: "a message that urcgc generates for a group of 15
        // processes fits into a single IP datagram packet, by considering
        // its minimum size of 576 bytes".
        let d = Pdu::decision(Decision::genesis(15));
        assert!(d.encoded_len() <= 576, "decision = {}", d.encoded_len());
        let rq = Pdu::Request(RequestMsg {
            sender: ProcessId(0),
            subrun: Subrun(0),
            last_processed: vec![0; 15],
            waiting: vec![0; 15],
            prev_decision: Arc::new(Decision::genesis(15)),
            forwarded: false,
        });
        assert!(rq.encoded_len() <= 1024, "request = {}", rq.encoded_len());
    }
}
