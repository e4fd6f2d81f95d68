//! Weak fingerprints.
//!
//! NV-Dedup's workload-adaptive scheme (reproduced for the Section III model
//! and Eq. 4/5) computes a cheap *weak* fingerprint first and only falls back
//! to the strong SHA-1 fingerprint when the weak one collides; LO-Dedup
//! likewise uses "a fast hashing scheme and sampling technique". The weak
//! fingerprint must be dramatically cheaper than SHA-1 — `T_fw ≪ T_f` — so,
//! like LO-Dedup, we *sample*: eight 64-byte windows strided across the
//! chunk (512 bytes total) are mixed through CRC-32 and FNV-1a into a 64-bit
//! value. A false match (equal weak FPs for different chunks, e.g. chunks
//! differing only between sample windows) is by design resolved by the
//! strong fingerprint; a weak fingerprint is never trusted on its own.

/// A 64-bit weak fingerprint: `(crc32 << 32) | fnv1a_32` over sampled
/// windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WeakFp(pub u64);

/// Number of sampled windows.
const WINDOWS: usize = 8;
/// Bytes per window.
const WINDOW: usize = 64;

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    // Build the table at compile time.
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    for &b in data {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

fn fnv1a_update(mut h: u32, data: &[u8]) -> u32 {
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Compute the weak fingerprint of a data chunk by sampling.
///
/// Short chunks (≤ 512 bytes) are hashed in full; longer chunks contribute
/// `WINDOWS` evenly-strided 64-byte windows, always including the first and
/// last window of the chunk.
pub fn weak_fingerprint(data: &[u8]) -> WeakFp {
    let mut crc = 0xFFFF_FFFFu32;
    let mut fnv = 0x811C_9DC5u32;
    if data.len() <= WINDOWS * WINDOW {
        crc = crc32_update(crc, data);
        fnv = fnv1a_update(fnv, data);
    } else {
        let stride = (data.len() - WINDOW) / (WINDOWS - 1);
        for w in 0..WINDOWS {
            let start = if w == WINDOWS - 1 {
                data.len() - WINDOW
            } else {
                w * stride
            };
            let win = &data[start..start + WINDOW];
            crc = crc32_update(crc, win);
            fnv = fnv1a_update(fnv, win);
        }
        // Length participates so a truncated chunk never aliases its prefix.
        crc = crc32_update(crc, &(data.len() as u64).to_le_bytes());
    }
    WeakFp((((!crc) as u64) << 32) | fnv as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" (full-hash path).
        assert_eq!(!crc32_update(0xFFFF_FFFF, b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a_update(0x811C_9DC5, b""), 0x811C_9DC5);
        assert_eq!(fnv1a_update(0x811C_9DC5, b"a"), 0xE40C_292C);
        assert_eq!(fnv1a_update(0x811C_9DC5, b"foobar"), 0xBF9C_F968);
    }

    #[test]
    fn equal_data_equal_weak_fp() {
        assert_eq!(
            weak_fingerprint(&[5u8; 4096]),
            weak_fingerprint(&[5u8; 4096])
        );
    }

    #[test]
    fn short_chunks_hash_in_full() {
        let mut a = vec![0u8; 256];
        let base = weak_fingerprint(&a);
        for pos in [0usize, 100, 255] {
            a[pos] ^= 1;
            assert_ne!(weak_fingerprint(&a), base, "flip at {pos}");
            a[pos] ^= 1;
        }
    }

    #[test]
    fn length_is_mixed_in() {
        let a = vec![7u8; 4096];
        let b = vec![7u8; 8192];
        assert_ne!(weak_fingerprint(&a), weak_fingerprint(&b));
    }

    #[test]
    fn distinct_random_blocks_rarely_collide() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..10_000u32 {
            let mut block = vec![0u8; 4096];
            block[..4].copy_from_slice(&i.to_le_bytes());
            seen.insert(weak_fingerprint(&block));
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn sampling_reads_512_of_4096_bytes() {
        // The whole point: a 4 KB chunk contributes eight 64 B windows, the
        // first at 0, one every (4096 - 64) / 7 = 576 bytes, and the last
        // 64 bytes — 512 bytes in all. A byte changed inside any window
        // changes the weak FP (CRC-32 catches every single-byte change); a
        // byte changed anywhere else leaves it as it was.
        let starts = [0usize, 576, 1152, 1728, 2304, 2880, 3456, 4032];
        let sampled = |pos: usize| starts.iter().any(|&s| (s..s + 64).contains(&pos));
        assert_eq!((0..4096).filter(|&p| sampled(p)).count(), 512);
        let mut a: Vec<u8> = (0..4096u32).map(|i| (i * 7 % 251) as u8).collect();
        let base = weak_fingerprint(&a);
        for pos in 0..4096 {
            a[pos] ^= 0x5A;
            if sampled(pos) {
                assert_ne!(weak_fingerprint(&a), base, "byte {pos} is sampled");
            } else {
                assert_eq!(weak_fingerprint(&a), base, "byte {pos} is not sampled");
            }
            a[pos] ^= 0x5A;
        }
    }
}
