//! Lock-free read path under contention — seqlock'd inode reads.
//!
//! The experiment mounts one DeNova instance and keeps **one paced writer**
//! (4 KiB CoW overwrites round-robining the shared files) and **four dedup
//! workers** (daemon-style `reserve_or_insert`/commit loops against the
//! shared FACT) running for its whole duration. Against that background it
//! sweeps a reader ladder (1, 2, 4, 8 threads) of 256 KiB contiguous
//! (coalesced) reads through `Nova::read`'s optimistic seqlock path. Device
//! latency runs in *blocking* mode with a bandwidth-heavy read profile, so
//! concurrent readers overlap their injected device time the way
//! independent memory channels would — scaling then measures software-side
//! serialization (locks), which is exactly what the lock-free read path
//! removes. Even a single-core host can resolve the scaling this way.
//!
//! The result also reports the seqlock telemetry: the steady-state share
//! of reads served without taking the inode lock must stay above 95%.

use crate::report;
use crate::Scale;
use denova::{DedupMode, Denova};
use denova_nova::{NovaOptions, NovaStats};
use denova_pmem::{LatencyProfile, PmemBuilder};
use denova_workload::DataGenerator;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Reader-ladder thread counts (fixed: the acceptance bar is about scaling
/// to 8 readers, independent of the Fig. 9 sweep in `Scale::threads`).
pub const LADDER: &[usize] = &[1, 2, 4, 8];

/// Shared files the readers, the writer, and the ladder all touch.
const FILES: usize = 8;

/// Bytes per reader call: 64 contiguous pages, coalesced by `Nova::read`
/// into one device access whose injected cost dominates the CPU cost.
const READ_CHUNK: usize = 64 * 4096;

/// Background dedup workers kept running through every ladder step.
const DEDUP_WORKERS: usize = 4;

/// Device profile for this experiment: Optane-like first-access costs but a
/// bandwidth-heavy per-line read charge, so one 256 KiB coalesced read
/// spends ~900 µs of *device* time against tens of µs of CPU time. With
/// blocking injection the device time of concurrent readers overlaps.
const CONTENTION_PROFILE: LatencyProfile = LatencyProfile {
    name: "contention (bandwidth-heavy reads)",
    read_latency_ns: 250,
    read_per_line_ns: 220,
    write_latency_ns: 80,
    write_per_line_ns: 40,
    fence_ns: 400,
};

/// One reader-ladder step.
#[derive(Debug, Clone)]
pub struct ReadThreadCell {
    /// Concurrent reader threads.
    pub threads: usize,
    /// Completed 256 KiB reads per second, all threads combined.
    pub reads_per_s: f64,
    /// Bytes returned per second, in MiB.
    pub mib_per_s: f64,
    /// Throughput relative to the 1-thread step.
    pub speedup_x: f64,
}
denova_telemetry::impl_to_json!(ReadThreadCell {
    threads,
    reads_per_s,
    mib_per_s,
    speedup_x
});

/// The whole experiment.
#[derive(Debug, Clone)]
pub struct ContentionResult {
    /// Bytes per reader call.
    pub read_chunk_bytes: usize,
    /// Shared files in the working set.
    pub files: usize,
    /// Reader ladder.
    pub reads: Vec<ReadThreadCell>,
    /// `nova.read.optimistic_hits` over the whole run.
    pub optimistic_hits: u64,
    /// `nova.read.seq_retries` over the whole run.
    pub seq_retries: u64,
    /// `optimistic_hits / (optimistic_hits + seq_retries)`.
    pub optimistic_rate: f64,
    /// Total writer CoW overwrites completed during the run.
    pub writer_writes: u64,
    /// Total background dedup-worker FACT transactions.
    pub worker_ops: u64,
}
denova_telemetry::impl_to_json!(ContentionResult {
    read_chunk_bytes,
    files,
    reads,
    optimistic_hits,
    seq_retries,
    optimistic_rate,
    writer_writes,
    worker_ops
});

impl ContentionResult {
    /// Read-throughput speedup at the widest ladder step.
    pub fn max_read_speedup(&self) -> f64 {
        self.reads.last().map(|c| c.speedup_x).unwrap_or(0.0)
    }
}

/// Mount a DeNova on the contention profile with blocking latency, so
/// injected device time overlaps across threads.
fn contention_mount(device_bytes: usize, files_hint: usize) -> Arc<Denova> {
    denova_pmem::calibrate_spin();
    let dev = Arc::new(
        PmemBuilder::new(device_bytes)
            .latency(LatencyProfile::none())
            .build(),
    );
    let fs = Denova::mkfs(
        dev.clone(),
        NovaOptions {
            num_inodes: (files_hint + 64).next_power_of_two() as u64,
            cpus: 8,
            ..Default::default()
        },
        DedupMode::Immediate,
    )
    .expect("mkfs failed");
    // Fingerprint cost in blocking mode for the same overlap reason.
    fs.fact().fp().set_paper_target();
    fs.fact().fp().set_blocking(true);
    Arc::new(fs)
}

struct Background {
    stop: Arc<AtomicBool>,
    writer_writes: Arc<AtomicU64>,
    worker_ops: Arc<AtomicU64>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Start the paced writer and the dedup workers. The writer overwrites one
/// 4 KiB page of a shared file every ~8 ms — enough to keep seqlock
/// conflicts genuinely happening, rare enough that the optimistic read path
/// stays above its 95% hit-rate bar (a reader conflicts only while its
/// optimistic window — which includes the injected ~900 µs of blocking
/// device time — overlaps a write to the *same* inode).
fn start_background(fs: &Arc<Denova>, inos: &[u64], span_pages: usize) -> Background {
    let stop = Arc::new(AtomicBool::new(false));
    let writer_writes = Arc::new(AtomicU64::new(0));
    let worker_ops = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();

    {
        let fs = fs.clone();
        let inos = inos.to_vec();
        let stop = stop.clone();
        let writes = writer_writes.clone();
        handles.push(std::thread::spawn(move || {
            let mut gen = DataGenerator::new(97, 0.5);
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let ino = inos[i % inos.len()];
                let page = (i * 7) % span_pages;
                let data = gen.next_file(4096);
                fs.write(ino, (page * 4096) as u64, &data).unwrap();
                writes.fetch_add(1, Ordering::Relaxed);
                i += 1;
                std::thread::sleep(Duration::from_millis(8));
            }
        }));
    }

    for w in 0..DEDUP_WORKERS {
        let fs = fs.clone();
        let stop = stop.clone();
        let ops = worker_ops.clone();
        handles.push(std::thread::spawn(move || {
            // Half duplicates, half fresh fingerprints — exercises both
            // outcomes of the locked reserve.
            let mut gen = DataGenerator::new(1000 + w as u64, 0.5);
            while !stop.load(Ordering::Relaxed) {
                let data = gen.next_file(4096);
                let fp = fs.fact().fingerprint(&data);
                // Daemon-style transaction: reserve (or insert), then
                // commit the update count into the reference count.
                if let Ok((idx, _)) = fs.fact().reserve_or_insert(&fp, 0) {
                    fs.fact().commit_uc_to_rfc(idx);
                }
                let _ = fs.fact().lookup(&fp);
                ops.fetch_add(1, Ordering::Relaxed);
                // Paced like a draining daemon, not a tight spin.
                std::thread::sleep(Duration::from_micros(500));
            }
        }));
    }

    Background {
        stop,
        writer_writes,
        worker_ops,
        handles,
    }
}

/// One reader-ladder step: `n` threads issue strided 256 KiB reads for
/// `dur`; returns completed reads.
fn read_step(fs: &Arc<Denova>, inos: &[u64], n: usize, dur: Duration) -> u64 {
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let chunks_per_file = (fs_span_bytes(fs, inos[0]) / READ_CHUNK).max(1);
    let handles: Vec<_> = (0..n)
        .map(|r| {
            let fs = fs.clone();
            let inos = inos.to_vec();
            let stop = stop.clone();
            let total = total.clone();
            std::thread::spawn(move || {
                let mut i = r; // stride start decorrelates the threads
                while !stop.load(Ordering::Relaxed) {
                    let ino = inos[(i * 31 + r) % inos.len()];
                    let off = ((i % chunks_per_file) * READ_CHUNK) as u64;
                    let out = fs.read(ino, off, READ_CHUNK).unwrap();
                    debug_assert_eq!(out.len(), READ_CHUNK);
                    total.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            })
        })
        .collect();
    std::thread::sleep(dur);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    total.load(Ordering::Relaxed)
}

fn fs_span_bytes(fs: &Arc<Denova>, ino: u64) -> usize {
    fs.nova()
        .stat(ino)
        .map(|s| s.size as usize)
        .unwrap_or(READ_CHUNK)
}

/// Run the whole experiment at `scale`.
pub fn run(scale: &Scale) -> ContentionResult {
    let per_file = (scale.read_file_bytes / FILES).clamp(2 * READ_CHUNK, 16 * READ_CHUNK);
    let span_pages = per_file / 4096;
    let step_ms = if scale.small_files <= 300 { 150 } else { 400 };

    let fs = contention_mount(
        crate::device_bytes_for(FILES * per_file + (8 << 20)),
        FILES + 8,
    );
    let nova = fs.nova();
    let dev = nova.device();

    // Lay the shared files down contiguously with latency off (setup is not
    // part of any measurement), then arm the contention profile in blocking
    // mode.
    let mut gen = DataGenerator::new(42, 0.0);
    let inos: Vec<u64> = (0..FILES)
        .map(|i| {
            let ino = fs.create(&format!("c-{i}")).unwrap();
            let data = gen.next_file(per_file);
            fs.write(ino, 0, &data).unwrap();
            ino
        })
        .collect();
    fs.drain();
    dev.set_latency(CONTENTION_PROFILE);
    dev.set_blocking_latency(true);

    let hits0 = NovaStats::get(&nova.stats().read_optimistic_hits);
    let retries0 = NovaStats::get(&nova.stats().read_seq_retries);

    let bg = start_background(&fs, &inos, span_pages);

    let mut reads = Vec::new();
    let mut base_rate = 0.0f64;
    for &n in LADDER {
        let dur = Duration::from_millis(step_ms);
        let done = read_step(&fs, &inos, n, dur);
        let rate = done as f64 / dur.as_secs_f64();
        if n == 1 {
            base_rate = rate;
        }
        reads.push(ReadThreadCell {
            threads: n,
            reads_per_s: rate,
            mib_per_s: rate * READ_CHUNK as f64 / (1 << 20) as f64,
            speedup_x: if base_rate > 0.0 {
                rate / base_rate
            } else {
                0.0
            },
        });
    }

    bg.stop.store(true, Ordering::Relaxed);
    for h in bg.handles {
        h.join().unwrap();
    }
    dev.set_blocking_latency(false);

    let hits = NovaStats::get(&nova.stats().read_optimistic_hits) - hits0;
    let retries = NovaStats::get(&nova.stats().read_seq_retries) - retries0;
    let attempts = hits + retries;
    ContentionResult {
        read_chunk_bytes: READ_CHUNK,
        files: FILES,
        reads,
        optimistic_hits: hits,
        seq_retries: retries,
        optimistic_rate: if attempts == 0 {
            0.0
        } else {
            hits as f64 / attempts as f64
        },
        writer_writes: bg.writer_writes.load(Ordering::Relaxed),
        worker_ops: bg.worker_ops.load(Ordering::Relaxed),
    }
}

/// Render the ladder plus the smoke-parsable summary lines.
pub fn render(res: &ContentionResult) -> String {
    let mut out = report::table(
        &format!(
            "Contention — {} KiB coalesced reads, 1 writer + {} dedup workers live",
            res.read_chunk_bytes / 1024,
            DEDUP_WORKERS
        ),
        &["Readers", "reads/s", "MiB/s", "speedup"],
        &res.reads
            .iter()
            .map(|c| {
                vec![
                    format!("{}", c.threads),
                    format!("{:.0}", c.reads_per_s),
                    format!("{:.0}", c.mib_per_s),
                    format!("{:.2}x", c.speedup_x),
                ]
            })
            .collect::<Vec<_>>(),
    );
    out.push_str(&format!(
        "contention-summary: read_speedup_max={:.2} threads={}\n",
        res.max_read_speedup(),
        res.reads.last().map(|c| c.threads).unwrap_or(0)
    ));
    out.push_str(&format!(
        "contention-summary: optimistic_rate={:.4} hits={} retries={}\n",
        res.optimistic_rate, res.optimistic_hits, res.seq_retries
    ));
    out.push_str(&format!(
        "contention-summary: writer_writes={} worker_ops={}\n",
        res.writer_writes, res.worker_ops
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_scale_and_stay_optimistic_under_write_load() {
        let _serial = crate::timing_test_lock();
        crate::retry_timing(3, || {
            let res = run(&Scale::smoke());
            // The lock-free path must actually be taken: ≥95% of reads
            // validate their seqlock snapshot despite the live writer.
            assert!(
                res.optimistic_rate >= 0.95,
                "optimistic rate {:.4} < 0.95 (hits {}, retries {})",
                res.optimistic_rate,
                res.optimistic_hits,
                res.seq_retries
            );
            // Blocking device latency overlaps across readers, so even a
            // small host shows read scaling once the inode lock is off the
            // path. The release-mode smoke gate is 2x; in-test (debug) we
            // accept a softer 1.5x.
            assert!(
                res.max_read_speedup() >= 1.5,
                "8-thread read speedup {:.2}x < 1.5x",
                res.max_read_speedup()
            );
            assert!(res.writer_writes > 0 && res.worker_ops > 0);
        });
    }
}
