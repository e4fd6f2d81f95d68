//! Job execution against a mounted [`denova::Denova`] stack.

use crate::data::DataGenerator;
use crate::spec::{JobSpec, ThinkTime, WriteKind};
use crate::stats::Summary;
use denova::Denova;
use denova_nova::Result;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Results of a write job.
#[derive(Debug, Clone)]
pub struct WriteReport {
    /// The `files` value.
    pub files: usize,
    /// The `bytes` value.
    pub bytes: u64,
    /// Wall-clock time including think time.
    pub elapsed: Duration,
    /// Accumulated I/O time only (think time excluded) across all threads.
    pub io_time: Duration,
    /// Per-file write latencies in nanoseconds.
    pub latencies_ns: Vec<u64>,
}

impl WriteReport {
    /// Throughput in MB/s over pure I/O time, normalized per thread (the
    /// paper reports single-device throughput; excluding think time matches
    /// its "actual IO time" accounting).
    pub fn throughput_mbs(&self) -> f64 {
        let secs = self.io_time.as_secs_f64().max(1e-9);
        (self.bytes as f64 / (1024.0 * 1024.0)) / secs
    }

    /// Wall-clock throughput in MB/s (think time included).
    pub fn wall_throughput_mbs(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64().max(1e-9);
        (self.bytes as f64 / (1024.0 * 1024.0)) / secs
    }

    /// Latency distribution summary (ns).
    pub fn latency_summary(&self) -> Summary {
        Summary::of(&self.latencies_ns)
    }
}

/// Run a write/overwrite job. For [`WriteKind::Overwrite`] the files must
/// already exist (run a `Create` pass with the same spec first).
pub fn run_write_job(fs: &Arc<Denova>, spec: &JobSpec) -> Result<WriteReport> {
    let per_thread = spec.file_count / spec.threads;
    let latency_hist = fs
        .nova()
        .device()
        .metrics()
        .histogram("workload.write.latency_ns");
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..spec.threads {
        let fs = fs.clone();
        let spec = spec.clone();
        let latency_hist = latency_hist.clone();
        handles.push(std::thread::spawn(
            move || -> Result<(Duration, Vec<u64>)> {
                let mut gen = DataGenerator::new(spec.seed ^ (t as u64) << 32, spec.dup_ratio);
                let mut latencies = Vec::with_capacity(per_thread);
                let mut io_time = Duration::ZERO;
                let mut io_since_think = Duration::ZERO;
                for i in 0..per_thread {
                    let name = format!("{}-{t}-{i}", spec.name);
                    let data = gen.next_file(spec.file_size);
                    let t0 = Instant::now();
                    let ino = match spec.kind {
                        WriteKind::Create => fs.create(&name)?,
                        WriteKind::Overwrite => fs.open(&name)?,
                    };
                    fs.write(ino, 0, &data)?;
                    let took = t0.elapsed();
                    latencies.push(took.as_nanos() as u64);
                    latency_hist.record(took.as_nanos() as u64);
                    io_time += took;
                    // Think-time cycle (Fig. 8 setup).
                    if let ThinkTime::Cycle { io, think } = spec.think {
                        io_since_think += took;
                        while io_since_think >= io {
                            io_since_think -= io;
                            std::thread::sleep(think);
                        }
                    }
                }
                Ok((io_time, latencies))
            },
        ));
    }
    let mut io_time = Duration::ZERO;
    let mut latencies = Vec::with_capacity(per_thread * spec.threads);
    for h in handles {
        let (t_io, lat) = h.join().expect("writer thread panicked")?;
        io_time += t_io;
        latencies.extend(lat);
    }
    Ok(WriteReport {
        files: per_thread * spec.threads,
        bytes: (per_thread * spec.threads) as u64 * spec.file_size as u64,
        elapsed: start.elapsed(),
        io_time,
        latencies_ns: latencies,
    })
}

/// Results of a read job.
#[derive(Debug, Clone)]
pub struct ReadReport {
    /// The `bytes` value.
    pub bytes: u64,
    /// The `elapsed` value.
    pub elapsed: Duration,
}

impl ReadReport {
    /// `throughput_mbs` accessor.
    pub fn throughput_mbs(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64().max(1e-9);
        (self.bytes as f64 / (1024.0 * 1024.0)) / secs
    }
}

/// Sequentially read `name` in `chunk`-byte requests, measuring throughput
/// (the Fig. 12 reader).
pub fn run_read_job(fs: &Denova, name: &str, chunk: usize) -> Result<ReadReport> {
    let ino = fs.open(name)?;
    let size = fs.file_size(ino)?;
    let start = Instant::now();
    let mut off = 0u64;
    let mut bytes = 0u64;
    while off < size {
        let got = fs.read(ino, off, chunk)?;
        if got.is_empty() {
            break;
        }
        bytes += got.len() as u64;
        off += got.len() as u64;
    }
    let elapsed = start.elapsed();
    let metrics = fs.nova().device().metrics();
    metrics.counter("workload.read_jobs").inc();
    metrics
        .histogram("workload.read.job_ns")
        .record(elapsed.as_nanos() as u64);
    Ok(ReadReport { bytes, elapsed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use denova::DedupMode;
    use denova_nova::NovaOptions;
    use denova_pmem::PmemDevice;

    fn mount(mode: DedupMode) -> Arc<Denova> {
        let dev = Arc::new(PmemDevice::new(64 * 1024 * 1024));
        Arc::new(
            Denova::mkfs(
                dev,
                NovaOptions {
                    num_inodes: 2048,
                    ..Default::default()
                },
                mode,
            )
            .unwrap(),
        )
    }

    #[test]
    fn write_job_writes_all_files() {
        let fs = mount(DedupMode::Baseline);
        let spec = JobSpec::small_files(50, 0.0);
        let report = run_write_job(&fs, &spec).unwrap();
        assert_eq!(report.files, 50);
        assert_eq!(report.bytes, 50 * 4096);
        assert_eq!(report.latencies_ns.len(), 50);
        assert!(report.throughput_mbs() > 0.0);
        assert_eq!(fs.nova().file_count(), 50);
    }

    #[test]
    fn dedup_job_saves_expected_space() {
        let fs = mount(DedupMode::Immediate);
        let spec = JobSpec::small_files(100, 0.5);
        run_write_job(&fs, &spec).unwrap();
        fs.drain();
        // ~50 duplicate pages saved (exact ratio, pool warm-up may shave 1).
        let saved_pages = fs.bytes_saved() / 4096;
        assert!(
            (45..=50).contains(&saved_pages),
            "saved {saved_pages} pages"
        );
    }

    #[test]
    fn overwrite_pass_reuses_files() {
        let fs = mount(DedupMode::Baseline);
        let spec = JobSpec::small_files(20, 0.0);
        run_write_job(&fs, &spec).unwrap();
        let report = run_write_job(&fs, &spec.clone().with_kind(WriteKind::Overwrite)).unwrap();
        assert_eq!(report.files, 20);
        assert_eq!(fs.nova().file_count(), 20);
    }

    #[test]
    fn multithreaded_job_partitions_files() {
        let fs = mount(DedupMode::Baseline);
        let spec = JobSpec::small_files(40, 0.0).with_threads(4);
        let report = run_write_job(&fs, &spec).unwrap();
        assert_eq!(report.files, 40);
        assert_eq!(fs.nova().file_count(), 40);
    }

    #[test]
    fn think_time_adds_wall_clock_not_io() {
        let spec = JobSpec::large_files(16, 0.0);
        let plain = run_write_job(&mount(DedupMode::Baseline), &spec).unwrap();
        let ThinkTime::Cycle { io, think } = ThinkTime::paper_cycle() else {
            unreachable!()
        };
        let paced = spec.clone().with_think(ThinkTime::paper_cycle());
        let paced = run_write_job(&mount(DedupMode::Baseline), &paced).unwrap();
        // Same work either way.
        assert_eq!((paced.files, paced.bytes), (plain.files, plain.bytes));
        assert_eq!(paced.latencies_ns.len(), plain.latencies_ns.len());
        // One think per full `io` of accumulated IO time, each a sleep of at
        // least `think`: the wall clock carries the IO plus all of them.
        let thinks = (paced.io_time.as_nanos() / io.as_nanos()) as u32;
        assert!(thinks >= 1, "the cycle never fired");
        assert!(paced.elapsed >= paced.io_time + think * thinks);
    }

    #[test]
    fn read_job_covers_whole_file() {
        let fs = mount(DedupMode::Baseline);
        let ino = fs.create("big").unwrap();
        fs.write(ino, 0, &vec![7u8; 256 * 1024]).unwrap();
        let report = run_read_job(&fs, "big", 64 * 1024).unwrap();
        assert_eq!(report.bytes, 256 * 1024);
        assert!(report.throughput_mbs() > 0.0);
    }

    #[test]
    fn latency_summary_has_data() {
        let fs = mount(DedupMode::Baseline);
        let report = run_write_job(&fs, &JobSpec::small_files(30, 0.0)).unwrap();
        let s = report.latency_summary();
        assert_eq!(s.count, 30);
        assert!(s.p50 > 0);
        assert!(s.max >= s.p99);
    }
}
