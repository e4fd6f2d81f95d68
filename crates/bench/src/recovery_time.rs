//! Recovery-time experiment.
//!
//! The paper leans on fast recovery twice: NOVA's per-inode logs allow "high
//! concurrency in … recovery processes" (Section II-A), and after a crash
//! "the DWQ is rebuilt by doing a fast scan on write entries" (Section
//! IV-B1). This experiment measures post-crash mount time — NOVA log-scan
//! recovery plus DeNova's Inconsistency Handling I–III and FACT scrub — as
//! the file count grows, for a baseline mount and a dedup mount.

use crate::report;
use denova::{DedupMode, Denova};
use denova_nova::NovaOptions;
use denova_pmem::{CrashMode, LatencyProfile, PmemBuilder};
use denova_workload::{run_write_job, JobSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measurement row.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Files on the file system at crash time.
    pub files: usize,
    /// Write entries pending dedup (DWQ rebuild work) at crash time.
    pub pending_dedup: usize,
    /// Device size in MiB: FACT — and so a dedup mount's scan — is sized by
    /// the device, not by the data on it.
    pub device_mib: usize,
    /// Post-crash mount time, baseline NOVA.
    pub baseline_ms: f64,
    /// Post-crash mount time, DeNova (incl. DWQ rebuild + UC discard +
    /// FACT scrub).
    pub denova_ms: f64,
    /// Device read operations of the baseline mount.
    pub baseline_reads: u64,
    /// Device read operations of the DeNova mount.
    pub denova_reads: u64,
    /// The baseline mount's structural read budget: every live log page
    /// and inode-table block once, FACT's IAA half a block per read, and 64
    /// for the fixed part of a mount.
    pub baseline_read_budget: u64,
    /// The DeNova mount's structural read budget
    /// (`RecoveryReport::read_budget`).
    pub denova_read_budget: u64,
}
denova_telemetry::impl_to_json!(RecoveryRow {
    files,
    pending_dedup,
    device_mib,
    baseline_ms,
    denova_ms,
    baseline_reads,
    denova_reads,
    baseline_read_budget,
    denova_read_budget,
});

fn opts(files: usize) -> NovaOptions {
    NovaOptions {
        num_inodes: (files + 64).next_power_of_two() as u64,
        ..Default::default()
    }
}

/// Mount a strict crash image of `dev` under Optane latency: wall time,
/// device read operations (the `pmem.reads` delta over `Denova::mount`), and
/// the mounted file system.
fn time_mount(
    dev: &Arc<denova_pmem::PmemDevice>,
    o: NovaOptions,
    mode: DedupMode,
) -> (Duration, u64, Denova) {
    let crashed = Arc::new(dev.crash_clone(CrashMode::Strict));
    crashed.set_latency(LatencyProfile::optane());
    let reads = crashed.stats().snapshot().reads;
    let t0 = Instant::now();
    let fs = Denova::mount(crashed.clone(), o, mode).expect("recovery mount");
    let took = t0.elapsed();
    let reads = crashed.stats().snapshot().reads - reads;
    (took, reads, fs)
}

/// Measure recovery time for several file counts. The Delayed daemon never
/// fires, so every file's write entry is pending dedup at the crash and the
/// DeNova column includes the full DWQ rebuild.
pub fn run(file_counts: &[usize]) -> Vec<RecoveryRow> {
    // Or the first timed mount pays the latency injector's calibration.
    denova_pmem::calibrate_spin();
    file_counts
        .iter()
        .map(|&files| {
            let bytes = crate::device_bytes_for(files * 4096 * 2);
            // The image is built without injected latency; the mounts are
            // timed under the Optane profile (`time_mount`).
            let dev = Arc::new(PmemBuilder::new(bytes).build());
            let fs = Denova::mkfs(
                dev.clone(),
                opts(files),
                DedupMode::Delayed {
                    interval_ms: 600_000,
                    batch: 1,
                },
            )
            .unwrap();
            let spec = JobSpec::small_files(files, 0.5);
            run_write_job(&Arc::new(fs), &spec).unwrap();
            // (Denova dropped; the daemon never ran: all entries pending.)
            let pending = files;

            let (baseline, baseline_reads, fs) = time_mount(&dev, opts(files), DedupMode::Baseline);
            let walk = fs.nova().mount_walk();
            let baseline_read_budget = walk.log_pages_read
                + walk.inode_blocks_read
                + fs.nova().layout().fact_blocks / 2
                + 64;
            // A Delayed mount, so no daemon read lands inside the count.
            let delayed = DedupMode::Delayed {
                interval_ms: 600_000,
                batch: 1,
            };
            let (denova, denova_reads, fs) = time_mount(&dev, opts(files), delayed);
            let report = fs.last_recovery().expect("crash mount runs recovery");
            RecoveryRow {
                files,
                pending_dedup: pending,
                device_mib: bytes >> 20,
                baseline_ms: baseline.as_secs_f64() * 1e3,
                denova_ms: denova.as_secs_f64() * 1e3,
                baseline_reads,
                denova_reads,
                baseline_read_budget,
                denova_read_budget: report.read_budget(),
            }
        })
        .collect()
}

/// Render the rows.
pub fn render(rows: &[RecoveryRow]) -> String {
    report::table(
        "Recovery time after crash — NOVA log scan vs DeNova (incl. DWQ rebuild + FACT scrub)",
        &[
            "Files",
            "Pending dedup",
            "Device (MiB)",
            "Baseline mount (ms)",
            "DeNova mount (ms)",
            "DeNova / baseline",
            "Baseline reads",
            "DeNova reads",
            "Baseline read budget",
            "DeNova read budget",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.files.to_string(),
                    r.pending_dedup.to_string(),
                    r.device_mib.to_string(),
                    format!("{:.1}", r.baseline_ms),
                    format!("{:.1}", r.denova_ms),
                    format!("{:.2}x", r.denova_ms / r.baseline_ms.max(1e-9)),
                    r.baseline_reads.to_string(),
                    r.denova_reads.to_string(),
                    r.baseline_read_budget.to_string(),
                    r.denova_read_budget.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scan work is asserted in device read operations, which repeat
    /// exactly, not in wall time: more files mean more log pages to read,
    /// a dedup mount reads at least what a baseline mount does (both FACT
    /// halves instead of one), and both stay inside the structural budget.
    #[test]
    fn recovery_reads_grow_with_the_logs_and_stay_inside_the_budget() {
        let rows = run(&[100, 400]);
        assert!(
            rows[1].denova_reads > rows[0].denova_reads
                && rows[1].baseline_reads > rows[0].baseline_reads,
            "400 files should out-read 100: {rows:?}"
        );
        for r in &rows {
            assert!(r.denova_reads >= r.baseline_reads, "{r:?}");
            assert!(r.baseline_reads <= r.baseline_read_budget, "{r:?}");
            assert!(r.denova_reads <= r.denova_read_budget, "{r:?}");
        }
    }

    #[test]
    fn recovered_mount_processes_the_rebuilt_queue() {
        let _serial = crate::timing_test_lock();
        // End-to-end: crash with a full queue, remount Immediate, drain —
        // every pending entry gets deduplicated.
        let dev = Arc::new(PmemBuilder::new(64 * 1024 * 1024).build());
        let fs = Denova::mkfs(
            dev.clone(),
            opts(64),
            DedupMode::Delayed {
                interval_ms: 600_000,
                batch: 1,
            },
        )
        .unwrap();
        let data = vec![0x2Eu8; 4096];
        for i in 0..20 {
            let ino = fs.create(&format!("f{i}")).unwrap();
            fs.write(ino, 0, &data).unwrap();
        }
        assert_eq!(fs.dwq().len(), 20);
        let crashed = Arc::new(dev.crash_clone(CrashMode::Strict));
        drop(fs);
        let fs2 = Denova::mount(crashed, opts(64), DedupMode::Immediate).unwrap();
        fs2.drain();
        assert_eq!(fs2.bytes_saved(), 19 * 4096);
    }
}
