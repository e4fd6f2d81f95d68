//! SHA-1 compression on the x86 SHA extensions (SHA-NI).
//!
//! `sha1rnds4` runs four rounds on ABCD held in one register, A in the top
//! lane; `sha1nexte` derives the next four rounds' E (A of four rounds
//! earlier, rotated by 30) and adds it to the first message word;
//! `sha1msg1`/`sha1msg2` expand the message schedule four words at a time.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x,
    _mm_setzero_si128, _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32,
    _mm_sha1rnds4_epu32, _mm_shuffle_epi8, _mm_xor_si128,
};
use std::sync::OnceLock;

/// Proof that this CPU has the SHA extensions, SSSE3 and SSE4.1: only
/// [`ShaNi::detect`] makes one.
#[derive(Clone, Copy)]
pub(super) struct ShaNi(());

impl ShaNi {
    /// `Some` when CPUID reports every feature the kernel is compiled for.
    /// Asked once per process.
    pub(super) fn detect() -> Option<ShaNi> {
        static HAS: OnceLock<bool> = OnceLock::new();
        let has = *HAS.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
        });
        has.then_some(ShaNi(()))
    }

    /// Fold `blocks` into `state`.
    pub(super) fn compress(self, state: &mut [u32; 5], blocks: &[[u8; 64]]) {
        // SAFETY: `self` exists only once `detect` saw CPUID report sha,
        // ssse3 and sse4.1; sse2 is part of x86-64. Those are all the
        // features `compress_blocks` is compiled for.
        unsafe { compress_blocks(state, blocks) }
    }
}

/// Apply four-round steps `$steps`, all with round function `$f`.
macro_rules! steps {
    ($abcd:ident, $prev:ident, $w:ident, $steps:expr, $f:literal) => {
        for k in $steps {
            let e_w = _mm_sha1nexte_epu32($prev, $w[k]);
            $prev = $abcd;
            $abcd = _mm_sha1rnds4_epu32($abcd, e_w, $f);
        }
    };
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks(state: &mut [u32; 5], blocks: &[[u8; 64]]) {
    // Reverses all 16 bytes of a load: big-endian words, word 0 in the top
    // lane.
    let be_words = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let [a, b, c, d, e] = state.map(|v| v as i32);
    let mut abcd = _mm_set_epi32(a, b, c, d);
    let mut e = _mm_set_epi32(e, 0, 0, 0);
    for block in blocks {
        let mut w: [__m128i; 20] = [_mm_setzero_si128(); 20];
        for (wk, chunk) in w.iter_mut().zip(block.as_chunks::<16>().0) {
            // SAFETY: `chunk` is 16 readable bytes, and `loadu` has no
            // alignment requirement. The CPU features are the caller's
            // (`ShaNi::compress`).
            *wk = _mm_shuffle_epi8(unsafe { _mm_loadu_si128(chunk.as_ptr().cast()) }, be_words);
        }
        for k in 4..20 {
            let x = _mm_xor_si128(_mm_sha1msg1_epu32(w[k - 4], w[k - 3]), w[k - 2]);
            w[k] = _mm_sha1msg2_epu32(x, w[k - 1]);
        }
        let (abcd0, e0) = (abcd, e);
        // `prev` is ABCD at the start of the step before, the source of the
        // next step's E.
        let mut prev = abcd;
        abcd = _mm_sha1rnds4_epu32(abcd, _mm_add_epi32(e, w[0]), 0);
        steps!(abcd, prev, w, 1..5, 0);
        steps!(abcd, prev, w, 5..10, 1);
        steps!(abcd, prev, w, 10..15, 2);
        steps!(abcd, prev, w, 15..20, 3);
        abcd = _mm_add_epi32(abcd, abcd0);
        e = _mm_sha1nexte_epu32(prev, e0);
    }
    *state = [
        _mm_extract_epi32(abcd, 3),
        _mm_extract_epi32(abcd, 2),
        _mm_extract_epi32(abcd, 1),
        _mm_extract_epi32(abcd, 0),
        _mm_extract_epi32(e, 3),
    ]
    .map(|v| v as u32);
}
