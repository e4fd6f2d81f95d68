//! Benchmark harness regenerating every table and figure of the DeNova
//! paper's evaluation (Section V), plus the Section III model validation and
//! ablations of the design choices called out in DESIGN.md.
//!
//! Each experiment lives in its own module, returns a plain result struct,
//! and knows how to print itself in the paper's row/series format. The
//! `figures` binary runs them all; the Criterion benches under `benches/`
//! reuse the same primitives for statistically-sound micro numbers.
//!
//! **Scaling.** The paper's workloads (1,000,000 × 4 KB files on 64 GB of
//! PM) are scaled down by a constant factor so a laptop regenerates every
//! figure in minutes; [`Scale`] holds the knobs and `--full` in the binary
//! restores paper-sized runs. Shapes (who wins, by what factor, where
//! crossovers fall) are preserved; absolute numbers are not comparable to
//! the authors' testbed.

#![warn(missing_docs)]

pub mod ablation;
pub mod crashes;
pub mod endurance;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig8;
pub mod fig9;
pub mod model;
pub mod recovery_time;
pub mod report;
pub mod space;
pub mod table1;
pub mod table4;

use denova::{DedupMode, Denova};
use denova_nova::NovaOptions;
use denova_pmem::{LatencyProfile, PmemBuilder, PmemDevice};
use std::sync::Arc;

/// Workload scaling knobs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Small-file workload: number of 4 KB files (paper: 1,000,000).
    pub small_files: usize,
    /// Large-file workload: number of 128 KB files (paper: 100,000).
    pub large_files: usize,
    /// Fig. 10 workload: number of 4 KB files (paper: 250,000).
    pub lingering_files: usize,
    /// Fig. 12 duplicate-file size in bytes (paper: 4 GB).
    pub read_file_bytes: usize,
    /// Thread counts swept in Fig. 9.
    pub threads: &'static [usize],
}

impl Scale {
    /// Laptop-sized defaults (~500× down from the paper).
    pub fn default_scale() -> Scale {
        Scale {
            small_files: 2000,
            large_files: 100,
            lingering_files: 5000,
            read_file_bytes: 16 * 1024 * 1024,
            threads: &[1, 2, 4, 8],
        }
    }

    /// Paper-sized workloads (hours of runtime; needs ≥ 64 GB of memory).
    pub fn paper_scale() -> Scale {
        Scale {
            small_files: 1_000_000,
            large_files: 100_000,
            lingering_files: 250_000,
            read_file_bytes: 4 << 30,
            threads: &[1, 2, 4, 8, 16, 32],
        }
    }

    /// Quick smoke-test scale for CI and `cargo bench`.
    pub fn smoke() -> Scale {
        Scale {
            small_files: 300,
            large_files: 20,
            lingering_files: 600,
            read_file_bytes: 2 * 1024 * 1024,
            threads: &[1, 2],
        }
    }
}

/// Build an Optane-profile device and mount a [`Denova`] stack on it.
pub fn mount(mode: DedupMode, device_bytes: usize, files_hint: usize) -> Arc<Denova> {
    denova_pmem::calibrate_spin();
    let dev = Arc::new(
        PmemBuilder::new(device_bytes)
            .latency(LatencyProfile::optane())
            .build(),
    );
    // Format with latency off (mkfs zeroing is not part of any measurement),
    // then re-enable.
    dev.set_latency(LatencyProfile::none());
    let fs = Denova::mkfs(
        dev.clone(),
        NovaOptions {
            num_inodes: (files_hint + 64).next_power_of_two() as u64,
            cpus: 8,
            ..Default::default()
        },
        mode,
    )
    .expect("mkfs failed");
    dev.set_latency(LatencyProfile::optane());
    // Fingerprint cost is calibrated to the paper's Table IV value, for the
    // same reason device latency is injected: the T_f/T_w ratio defines
    // every result (see denova::fp).
    fs.fact().fp().set_paper_target();
    Arc::new(fs)
}

/// Device sizing for a workload of `logical_bytes`, leaving room for logs,
/// FACT, and CoW churn.
pub fn device_bytes_for(logical_bytes: usize) -> usize {
    (logical_bytes.saturating_mul(3)).max(64 * 1024 * 1024)
}

/// Serializes timing-sensitive shape tests: on small-core hosts, running
/// several throughput measurements concurrently makes every ratio noise.
/// Each such test takes this lock first.
pub fn timing_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run a timing-shape assertion with up to `attempts` tries. Shape tests
/// compare measured throughput ratios; on shared/throttled hosts a single
/// run can be perturbed by CPU-steal spikes, so tests accept any one of a
/// few runs passing (each run is itself a full measurement).
pub fn retry_timing(attempts: usize, f: impl Fn() + std::panic::RefUnwindSafe) {
    for _ in 1..attempts {
        if std::panic::catch_unwind(&f).is_ok() {
            return;
        }
    }
    f();
}

/// A raw Optane-profile device (no file system) for microbenchmarks.
pub fn raw_device(bytes: usize) -> Arc<PmemDevice> {
    Arc::new(
        PmemBuilder::new(bytes)
            .latency(LatencyProfile::optane())
            .build(),
    )
}

/// The four paper variants at standard tunables, Fig. 8's
/// DeNova-Delayed(750, 20000) included. The `(n, m)` values are kept at the
/// paper's settings even for scaled workloads: `m/n` is a *drain rate* and
/// must stay above the (unchanged) arrival rate of the 0.2 ms think cycle,
/// otherwise the DWQ backlogs in a regime the paper never ran.
pub fn paper_modes() -> Vec<DedupMode> {
    vec![
        DedupMode::Baseline,
        DedupMode::Inline,
        DedupMode::InlineAdaptive,
        DedupMode::Immediate,
        DedupMode::Delayed {
            interval_ms: 750,
            batch: 20000,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let s = Scale::smoke();
        let d = Scale::default_scale();
        let p = Scale::paper_scale();
        assert!(s.small_files < d.small_files);
        assert!(d.small_files < p.small_files);
        assert_eq!(p.small_files, 1_000_000);
    }

    #[test]
    fn mount_gives_working_fs() {
        let fs = mount(DedupMode::Immediate, 64 * 1024 * 1024, 16);
        let ino = fs.create("x").unwrap();
        fs.write(ino, 0, &[1u8; 4096]).unwrap();
        fs.drain();
        assert_eq!(fs.read(ino, 0, 4096).unwrap(), vec![1u8; 4096]);
        // The mounted device carries the Optane profile.
        assert_eq!(fs.nova().device().latency().name, "Optane DC PM");
    }

    #[test]
    fn device_sizing_has_headroom() {
        assert!(device_bytes_for(1024) >= 64 * 1024 * 1024);
        assert!(device_bytes_for(100 << 20) >= 300 << 20);
    }
}
