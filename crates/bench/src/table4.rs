//! Table IV — file write latency vs deduplication latency, broken into
//! fingerprint time and other ops, for 4 KB and 128 KB files.
//!
//! The paper's numbers (4 KB: write 2.85 µs, FP 11.78 µs, other 3.66 µs;
//! 128 KB: write 39.86 µs, FP 215.26 µs, other 53.57 µs) establish that
//! deduplication takes 6–7× longer than the write itself — hence offline.
//!
//! The wall-clock columns are printed as measured; the gate is the model
//! (Eq. 1's `T_f ≫ T_w`) over counted inputs: the 4 KB fingerprints the
//! dedup pass took (`DedupStats`), each charged the throttle's modelled
//! `T_f`, against the device latency the write pass had injected
//! (`pmem` stats).

use crate::report;
use denova::DedupMode;
use denova_workload::DataGenerator;
use std::time::Instant;

#[derive(Debug, Clone)]
/// The `struct` value.
pub struct Table4Row {
    /// The `file_size` value.
    pub file_size: usize,
    /// Mean foreground write latency (ns), file create + data write.
    pub write_ns: u64,
    /// Mean fingerprinting time per file during dedup (ns).
    pub fp_ns: u64,
    /// Mean other dedup ops per file (chunking, FACT lookups, appends,
    /// counter updates) (ns).
    pub other_ns: u64,
    /// p50 of the per-call `nova.write` telemetry span (ns). Spans are
    /// enabled for this experiment only; the histogram is log-bucketed, so
    /// this is an upper bound within one bucket's width.
    pub write_p50_ns: u64,
    /// p99 of the per-call `nova.write` telemetry span (ns).
    pub write_p99_ns: u64,
    /// 4 KB fingerprints the dedup pass took per file (counted).
    pub fps_per_file: f64,
    /// Modelled fingerprint time per file (ns): `fps_per_file` × the
    /// throttle's modelled per-4 KB cost.
    pub model_fp_ns: u64,
    /// Device latency injected per file write (ns, counted by the device).
    pub model_write_ns: u64,
}
denova_telemetry::impl_to_json!(Table4Row {
    file_size,
    write_ns,
    fp_ns,
    other_ns,
    write_p50_ns,
    write_p99_ns,
    fps_per_file,
    model_fp_ns,
    model_write_ns,
});

impl Table4Row {
    /// `dedup_total_ns` accessor.
    pub fn dedup_total_ns(&self) -> u64 {
        self.fp_ns + self.other_ns
    }

    /// The paper's headline ratio: total dedup latency over write latency
    /// (wall clock).
    pub fn dedup_over_write(&self) -> f64 {
        self.dedup_total_ns() as f64 / self.write_ns as f64
    }

    /// Eq. 1's ratio in the model: modelled fingerprint time over injected
    /// write time.
    pub fn model_fp_over_write(&self) -> f64 {
        self.model_fp_ns as f64 / self.model_write_ns as f64
    }
}

/// Measure one file size with `files` samples.
pub fn measure(file_size: usize, files: usize) -> Table4Row {
    let fs = crate::mount(
        DedupMode::Delayed {
            interval_ms: 600_000, // drive dedup by hand, after the writes
            batch: 1,
        },
        crate::device_bytes_for(file_size * files),
        files,
    );
    let mut gen = DataGenerator::new(7, 0.0);
    // Create files first: Table IV's "write latency" is T_w + T_a of the
    // data write itself, not inode creation.
    let inos: Vec<u64> = (0..files)
        .map(|i| fs.create(&format!("f{i}")).unwrap())
        .collect();
    let payloads: Vec<Vec<u8>> = (0..files).map(|_| gen.next_file(file_size)).collect();
    // Turn span collection on so the write pass also feeds the `nova.write`
    // telemetry histogram (per-call latency distribution, not just a mean).
    let metrics = fs.nova().device().metrics().clone();
    metrics.set_enabled(true);
    let injected_before = fs.nova().device().stats().snapshot().injected_ns;
    let t0 = Instant::now();
    for (ino, data) in inos.iter().zip(&payloads) {
        fs.write(*ino, 0, data).unwrap();
    }
    let write_ns = t0.elapsed().as_nanos() as u64 / files as u64;
    let injected_ns = fs.nova().device().stats().snapshot().injected_ns - injected_before;
    metrics.set_enabled(false);
    let snap = metrics.snapshot();
    let (write_p50_ns, write_p99_ns) = snap
        .histogram("nova.write")
        .map(|h| (h.percentile(0.50), h.percentile(0.99)))
        .unwrap_or((0, 0));
    // Dedup pass (hand-driven so its time is attributable).
    while let Some(node) = fs.dwq().pop_batch(1).first().copied() {
        denova::dedup_entry(fs.nova(), fs.fact(), &node).unwrap();
    }
    let s = fs.stats();
    let fps_per_file = s.fingerprints() as f64 / files as f64;
    Table4Row {
        file_size,
        write_ns,
        fp_ns: s.fingerprint_time().as_nanos() as u64 / files as u64,
        other_ns: s.other_ops_time().as_nanos() as u64 / files as u64,
        write_p50_ns,
        write_p99_ns,
        fps_per_file,
        model_fp_ns: (fps_per_file * fs.fact().fp().modelled_ns_per_4k() as f64) as u64,
        model_write_ns: injected_ns / files as u64,
    }
}

/// Run both paper file sizes.
pub fn run(files_small: usize, files_large: usize) -> Vec<Table4Row> {
    vec![measure(4096, files_small), measure(128 * 1024, files_large)]
}

/// `render` accessor.
pub fn render(rows: &[Table4Row]) -> String {
    report::table(
        "Table IV — write latency vs dedup latency breakdown (us/file)",
        &[
            "File size",
            "Write (us)",
            "Write p50 (us)",
            "Write p99 (us)",
            "Dedupe other ops (us)",
            "Dedupe FP time (us)",
            "Dedupe total / write",
            "Model FP (us)",
            "Model write (us)",
            "Model FP / write",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{} KB", r.file_size / 1024),
                    report::us(r.write_ns),
                    report::us(r.write_p50_ns),
                    report::us(r.write_p99_ns),
                    report::us(r.other_ns),
                    report::us(r.fp_ns),
                    format!("{:.1}x", r.dedup_over_write()),
                    report::us(r.model_fp_ns),
                    report::us(r.model_write_ns),
                    format!("{:.1}x", r.model_fp_over_write()),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_latency_exceeds_write_latency() {
        let _serial = crate::timing_test_lock();
        // The paper's Table IV shape, in the model: every written page is
        // fingerprinted exactly once, and fingerprinting a file costs more
        // than the device time of writing it (Eq. 1). The wall-clock ratios
        // are printed beside it, not gated.
        for row in run(60, 8) {
            let pages = (row.file_size / 4096) as f64;
            assert_eq!(row.fps_per_file, pages, "{} B", row.file_size);
            assert!(row.model_write_ns > 0, "no device latency injected");
            println!(
                "{} B: model FP/write {:.1}x (gated > 1); wall FP/write {:.1}x, dedup/write {:.1}x (not gated)",
                row.file_size,
                row.model_fp_over_write(),
                row.fp_ns as f64 / row.write_ns as f64,
                row.dedup_over_write(),
            );
            assert!(
                row.model_fp_ns > row.model_write_ns,
                "{} B: model FP {} !> injected write {}",
                row.file_size,
                row.model_fp_ns,
                row.model_write_ns
            );
            // The span-fed histogram saw every write.
            assert!(row.write_p50_ns > 0, "nova.write span histogram empty");
            assert!(row.write_p99_ns >= row.write_p50_ns);
        }
    }

    #[test]
    fn large_files_scale_every_component() {
        let _serial = crate::timing_test_lock();
        crate::retry_timing(3, || {
            let rows = run(40, 6);
            let small = &rows[0];
            let large = &rows[1];
            assert!(large.write_ns > small.write_ns * 4);
            assert!(large.fp_ns > small.fp_ns * 8);
        });
    }
}
