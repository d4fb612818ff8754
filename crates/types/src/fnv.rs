//! The one FNV-1a implementation in the workspace.
//!
//! The self-checking headers (group `0x67`, relay `0xE7`), the
//! cross-member order digests and the golden-document digests all use
//! FNV-1a — it is tiny, allocation-free, and deterministic across
//! platforms, which is all an *integrity* (not adversarial) checksum needs
//! under the paper's general-omission failure model. Before this module
//! each site hand-rolled its own copy of the constants; they now all share
//! these two hashers so a transcription slip can never fork the wire
//! format from the oracles.
//!
//! FNV-1a pays one dependent multiply per byte, which is nothing over a
//! 5–15 byte header and too much over a whole frame: the PDU frame trailer
//! uses the word-parallel kernel in [`wire`](crate::wire::frame_checksum)
//! instead.
//!
//! Both widths use the standard parameters:
//!
//! | width | offset basis          | prime             |
//! |-------|-----------------------|-------------------|
//! | 32    | `0x811C9DC5`          | `0x01000193`      |
//! | 64    | `0xcbf29ce484222325`  | `0x100000001b3`   |

/// 32-bit FNV-1a offset basis.
pub const FNV32_OFFSET: u32 = 0x811C_9DC5;
/// 32-bit FNV-1a prime.
pub const FNV32_PRIME: u32 = 0x0100_0193;
/// 64-bit FNV-1a offset basis.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One-shot 32-bit FNV-1a over `bytes` (header checksums).
pub fn fnv1a_32(bytes: &[u8]) -> u32 {
    let mut h = Fnv32::new();
    h.update(bytes);
    h.finish()
}

/// One-shot 64-bit FNV-1a over `bytes` (document digests).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Streaming 32-bit FNV-1a hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv32(u32);

impl Fnv32 {
    /// A hasher at the offset basis.
    pub fn new() -> Fnv32 {
        Fnv32(FNV32_OFFSET)
    }

    /// Feeds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u32::from(b)).wrapping_mul(FNV32_PRIME);
        }
    }

    /// The current hash value (the hasher remains usable).
    pub fn finish(&self) -> u32 {
        self.0
    }
}

impl Default for Fnv32 {
    fn default() -> Fnv32 {
        Fnv32::new()
    }
}

/// Streaming 64-bit FNV-1a hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(FNV64_OFFSET)
    }

    /// Feeds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV64_PRIME);
        }
    }

    /// The current hash value (the hasher remains usable).
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Published FNV-1a test vectors (draft-eastlake-fnv): the empty string
    // hashes to the offset basis, "a" and "foobar" to the values below.
    #[test]
    fn matches_published_vectors() {
        assert_eq!(fnv1a_32(b""), FNV32_OFFSET);
        assert_eq!(fnv1a_64(b""), FNV64_OFFSET);
        assert_eq!(fnv1a_32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_32(b"foobar"), 0xbf9c_f968);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"split across several update calls";
        let mut h32 = Fnv32::new();
        let mut h64 = Fnv64::new();
        for chunk in data.chunks(7) {
            h32.update(chunk);
            h64.update(chunk);
        }
        assert_eq!(h32.finish(), fnv1a_32(data));
        assert_eq!(h64.finish(), fnv1a_64(data));
    }
}
