//! Fingerprinting for deduplication.
//!
//! DeNova chunks every write into 4 KB blocks and fingerprints each chunk
//! with SHA-1, producing the 20-byte strong fingerprints stored in FACT
//! entries. The paper's Section III model also needs a *weak* fingerprint
//! (`T_fw` in Eq. 4/5) to reproduce NV-Dedup's workload-adaptive scheme; we
//! provide a cheap 32-bit mix of CRC-32 and FNV-1a for that role.
//!
//! Everything here is implemented from scratch — no external hashing crates —
//! because the reproduction must own every substrate the paper depends on.
//! SHA-1 runs on the CPU's SHA unit where there is one (as the kernel crypto
//! API the paper measured does), else on a portable compression function;
//! the fingerprint *cost* the paper's model uses is not this crate's speed
//! but `denova::fp::FpThrottle`'s target, which pads up to it.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

mod chunk;
mod sha1;
mod weak;
mod zero;

pub use chunk::{chunk_pages, Chunk, CHUNK_SIZE};
pub use sha1::{sha1, Sha1};
pub use weak::{weak_fingerprint, WeakFp};
pub use zero::{is_zero_page, zero_runs};

/// A 160-bit (20-byte) strong fingerprint — the SHA-1 digest of a 4 KB data
/// chunk, as stored in the third field of a FACT entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub [u8; 20]);

impl Fingerprint {
    /// Fingerprint a data chunk with SHA-1.
    pub fn of(data: &[u8]) -> Self {
        Fingerprint(sha1(data))
    }

    /// The first `bits` bits of the fingerprint interpreted as a big-endian
    /// integer. FACT uses this prefix as the direct-access-area index
    /// ("FACT uses the prefix of FP as an index to access an entry").
    pub fn prefix(&self, bits: u32) -> u64 {
        assert!(bits <= 64, "prefix limited to 64 bits");
        if bits == 0 {
            return 0;
        }
        let mut word = [0u8; 8];
        word.copy_from_slice(&self.0[..8]);
        u64::from_be_bytes(word) >> (64 - bits)
    }

    /// Raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Rebuild from raw bytes (e.g. read back from a FACT entry).
    pub fn from_bytes(bytes: [u8; 20]) -> Self {
        Fingerprint(bytes)
    }

    /// The all-zero fingerprint used to mark an empty FACT entry slot.
    pub fn zero() -> Self {
        Fingerprint([0u8; 20])
    }

    /// Whether this is the all-zero sentinel.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 20]
    }
}

impl std::fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fp(")?;
        for b in &self.0[..6] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_extracts_leading_bits() {
        let mut bytes = [0u8; 20];
        bytes[0] = 0b1010_1100;
        bytes[1] = 0b0101_0000;
        let fp = Fingerprint::from_bytes(bytes);
        assert_eq!(fp.prefix(4), 0b1010);
        assert_eq!(fp.prefix(8), 0b1010_1100);
        assert_eq!(fp.prefix(12), 0b1010_1100_0101);
        assert_eq!(fp.prefix(0), 0);
    }

    #[test]
    fn prefix_64_is_first_eight_bytes() {
        let fp = Fingerprint::of(b"hello");
        let mut word = [0u8; 8];
        word.copy_from_slice(&fp.0[..8]);
        assert_eq!(fp.prefix(64), u64::from_be_bytes(word));
    }

    #[test]
    #[should_panic(expected = "64 bits")]
    fn prefix_over_64_panics() {
        Fingerprint::zero().prefix(65);
    }

    #[test]
    fn zero_sentinel() {
        assert!(Fingerprint::zero().is_zero());
        assert!(!Fingerprint::of(b"x").is_zero());
    }

    #[test]
    fn display_is_hex() {
        let fp = Fingerprint::of(b"abc");
        assert_eq!(fp.to_string(), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn equal_data_equal_fingerprint() {
        let a = Fingerprint::of(&[7u8; 4096]);
        let b = Fingerprint::of(&[7u8; 4096]);
        let c = Fingerprint::of(&[8u8; 4096]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
