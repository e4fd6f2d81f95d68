//! Calibrated fingerprint cost model.
//!
//! Every quantitative claim in the paper flows from one relation: the time
//! to fingerprint a 4 KB chunk (`T_f`) dwarfs the time to write it to Optane
//! (`T_w`) — Eq. 1, Table IV (11.78 µs vs 2.85 µs), Fig. 2, Fig. 8. `T_f`
//! is a property of the authors' Xeon running the kernel's SHA-1
//! (≈ 350 MB/s); a host with a faster SHA-1 would understate `T_f` and
//! silently soften the paper's conclusion.
//!
//! [`FpThrottle`] therefore treats fingerprint latency as part of the
//! simulation, just like device latency: it measures the host's real SHA-1
//! cost once and pads each fingerprint up to a configurable per-4 KB target
//! (default: the paper's Table IV value). This substitution is documented in
//! DESIGN.md. Tests that only care about *correctness* use
//! [`FpThrottle::none`], which adds nothing.
//!
//! The pad only pads *up*: it is `target − host cost`, floored at zero. A
//! host whose SHA-1 is faster than the target (the SHA-NI kernel hashes
//! 4 KB in ~3 µs) pays the difference in spin or sleep, so `T_f` never
//! drops below the target; a host slower than the target pays its own cost
//! and no pad, and nothing can make it faster. The host cost is measured
//! *warm* — after [`WARMUP_CALLS`] discarded calls, the minimum over
//! [`SAMPLES`] timings of [`BATCH`] calls each — because a cold first call
//! (page faults, cold caches, clock ramp-up) over-reads it and would leave
//! `T_f` below the target. Batching spreads the clock's own cost thin, and
//! the window is long (~7 ms with the SHA-NI kernel) because a shared host
//! is slow in bursts: on 2 vCPUs, 64 timings of 8 calls came out above the
//! same process's later typical cost in 7 of 12 runs, 256 in none of 12.

use denova_fingerprint::Fingerprint;
use denova_pmem::{block_ns, spin_ns};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The paper's measured fingerprint time per 4 KB chunk (Table IV).
pub const PAPER_FP_NS_PER_4K: u64 = 11_780;

/// Calls discarded before the host's SHA-1 cost is sampled.
const WARMUP_CALLS: usize = 16;
/// Timings the host's SHA-1 cost is the minimum of.
const SAMPLES: usize = 256;
/// Calls per timing.
const BATCH: u32 = 8;

/// The 4 KB chunks a fingerprint of `len` bytes is charged for (at least
/// one).
pub(crate) fn chunks_4k(len: usize) -> u64 {
    (len as u64).div_ceil(4096).max(1)
}

/// Pads SHA-1 fingerprinting up to a target per-4 KB latency.
#[derive(Debug, Default)]
pub struct FpThrottle {
    /// Extra ns injected per 4 KB fingerprinted; 0 = raw host speed.
    extra_ns_per_4k: AtomicU64,
    /// The host's SHA-1 cost per 4 KB as measured by the last
    /// [`Self::set_target`]; 0 before any.
    host_ns_per_4k: AtomicU64,
    /// When set, padding yields the CPU ([`denova_pmem::block_ns`]) instead
    /// of spinning, so concurrent fingerprints overlap on hosts with fewer
    /// cores than dedup workers.
    blocking: AtomicBool,
}

impl FpThrottle {
    /// No padding: raw host SHA-1 speed (the default for correctness
    /// tests).
    pub fn none() -> FpThrottle {
        FpThrottle::default()
    }

    /// Measure the host's warm SHA-1 cost for a 4 KB chunk (ns): after
    /// [`WARMUP_CALLS`] discarded calls, the minimum over [`SAMPLES`]
    /// timings of [`BATCH`] calls each.
    pub fn measure_host_fp_ns() -> u64 {
        let page = vec![0xA7u8; 4096];
        let hash = || std::hint::black_box(Fingerprint::of(std::hint::black_box(&page)));
        (0..WARMUP_CALLS).for_each(|_| {
            hash();
        });
        (0..SAMPLES)
            .map(|_| {
                let t0 = Instant::now();
                (0..BATCH).for_each(|_| {
                    hash();
                });
                (t0.elapsed() / BATCH).as_nanos() as u64
            })
            .min()
            .unwrap_or(0)
    }

    /// Calibrate so a 4 KB fingerprint costs `target_ns_per_4k` in total,
    /// or the host's own cost when that is higher.
    pub fn set_target(&self, target_ns_per_4k: u64) {
        let host = Self::measure_host_fp_ns();
        self.host_ns_per_4k.store(host, Ordering::Relaxed);
        self.extra_ns_per_4k
            .store(target_ns_per_4k.saturating_sub(host), Ordering::Relaxed);
    }

    /// The modelled cost of fingerprinting 4 KB: the host cost measured at
    /// calibration plus the current pad — at least the target while the
    /// pad is the calibrated one. 0 for an uncalibrated throttle.
    pub fn modelled_ns_per_4k(&self) -> u64 {
        self.host_ns_per_4k.load(Ordering::Relaxed) + self.extra_ns_per_4k()
    }

    /// Calibrate to the paper's Table IV fingerprint latency.
    pub fn set_paper_target(&self) {
        self.set_target(PAPER_FP_NS_PER_4K);
    }

    /// Set the padding directly, without re-measuring the host. Tests only:
    /// outside them the pad is the platform's `T_f`, fixed at calibration.
    #[cfg(test)]
    pub(crate) fn set_extra_ns_per_4k(&self, extra: u64) {
        self.extra_ns_per_4k.store(extra, Ordering::Relaxed);
    }

    /// Current padding per 4 KB.
    pub fn extra_ns_per_4k(&self) -> u64 {
        self.extra_ns_per_4k.load(Ordering::Relaxed)
    }

    /// Switch padding between spinning (default, faithful per-core cost) and
    /// sleeping (lets concurrent fingerprints overlap on small hosts).
    pub fn set_blocking(&self, on: bool) {
        self.blocking.store(on, Ordering::Relaxed);
    }

    /// Whether padding currently yields the CPU instead of spinning.
    pub fn blocking(&self) -> bool {
        self.blocking.load(Ordering::Relaxed)
    }

    /// The padding [`Self::fingerprint`] injects for `len` bytes: the
    /// per-4 KB padding times the 4 KB chunks `len` spans (at least one).
    pub(crate) fn pad_ns(&self, len: usize) -> u64 {
        self.extra_ns_per_4k() * chunks_4k(len)
    }

    /// Fingerprint `data`, injecting the calibrated padding
    /// (`pad_ns`).
    pub fn fingerprint(&self, data: &[u8]) -> Fingerprint {
        let fp = Fingerprint::of(data);
        let pad = self.pad_ns(data.len());
        if pad > 0 {
            if self.blocking.load(Ordering::Relaxed) {
                block_ns(pad);
            } else {
                spin_ns(pad);
            }
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_adds_no_padding() {
        let t = FpThrottle::none();
        assert_eq!(t.extra_ns_per_4k(), 0);
        let data = vec![1u8; 4096];
        assert_eq!(t.fingerprint(&data), Fingerprint::of(&data));
    }

    #[test]
    fn paper_target_pads_to_table4_latency() {
        let t = FpThrottle::none();
        t.set_paper_target();
        let data = vec![2u8; 4096];
        let t0 = Instant::now();
        for _ in 0..10 {
            std::hint::black_box(t.fingerprint(&data));
        }
        let per_fp = t0.elapsed().as_nanos() as u64 / 10;
        // Total cost lands near the paper's 11.78 us (generous CI slack).
        assert!((8_000..40_000).contains(&per_fp), "per-fp cost {per_fp} ns");
    }

    #[test]
    fn paper_target_models_at_least_table4() {
        let t = FpThrottle::none();
        assert_eq!(t.modelled_ns_per_4k(), 0);
        t.set_paper_target();
        assert!(t.modelled_ns_per_4k() >= PAPER_FP_NS_PER_4K);
    }

    #[test]
    fn padding_scales_with_chunks() {
        let t = FpThrottle::none();
        assert_eq!(t.pad_ns(4 * 4096), 0);
        t.set_extra_ns_per_4k(100_000);
        assert_eq!(t.pad_ns(4096), 100_000);
        assert_eq!(t.pad_ns(4 * 4096), 400_000);
        // A partial chunk pads as a whole one; so does an empty input.
        assert_eq!(t.pad_ns(4 * 4096 + 1), 500_000);
        assert_eq!(t.pad_ns(0), 100_000);
    }

    #[test]
    fn blocking_mode_keeps_value_and_target() {
        let t = FpThrottle::none();
        t.set_target(50_000);
        t.set_blocking(true);
        assert!(t.blocking());
        let data = vec![5u8; 4096];
        let t0 = Instant::now();
        assert_eq!(t.fingerprint(&data), Fingerprint::of(&data));
        // Sleep-granularity coarse, but the pad must still be injected.
        assert!(t0.elapsed().as_nanos() as u64 >= 20_000);
        t.set_blocking(false);
        assert!(!t.blocking());
    }

    #[test]
    fn fingerprint_value_is_unchanged_by_throttle() {
        let t = FpThrottle::none();
        t.set_target(50_000);
        let data = vec![9u8; 8192];
        assert_eq!(t.fingerprint(&data), Fingerprint::of(&data));
    }
}
