//! Remote job execution: the same fio-like workloads, driven through the
//! file-service wire protocol instead of the in-process [`denova::Denova`]
//! handle.
//!
//! Each worker thread opens its **own** connection (via a connector closure,
//! so tests can hand out loopback socket pairs and production hands out TCP
//! sockets) and pushes its slice of the file population through the typed
//! [`Client`]. Per-request failures are counted, never panicked on — the
//! acceptance bar for the service layer is a multi-threaded run with a
//! failure count of zero.

use crate::data::DataGenerator;
use crate::spec::{JobSpec, WriteKind};
use crate::stats::Summary;
use denova_svc::{Client, SvcError};
use std::time::{Duration, Instant};

/// Results of a remote write job.
#[derive(Debug, Clone)]
pub struct RemoteReport {
    /// Files fully written (create/open + write + all bytes acknowledged).
    pub files: usize,
    /// Bytes acknowledged by the server.
    pub bytes: u64,
    /// Wall-clock time for the whole job.
    pub elapsed: Duration,
    /// Accumulated per-request time across all threads.
    pub io_time: Duration,
    /// Per-file round-trip latencies in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Requests (or connections) that failed. Zero on a healthy server.
    pub failures: u64,
    /// Names of files whose writes were fully acknowledged by the server —
    /// the ground truth a failover audit checks the promoted standby
    /// against.
    pub completed: Vec<String>,
}

impl RemoteReport {
    /// Wall-clock throughput in MB/s — the number that shows scaling across
    /// server shards (per-thread IO time would hide the overlap).
    pub fn wall_throughput_mbs(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64().max(1e-9);
        (self.bytes as f64 / (1024.0 * 1024.0)) / secs
    }

    /// Latency distribution summary (ns).
    pub fn latency_summary(&self) -> Summary {
        Summary::of(&self.latencies_ns)
    }
}

/// Run a write/overwrite job against a served file system. `connect` is
/// called once per worker thread (with the thread index) and must return a
/// fresh connection; [`run_remote_write_job_tcp`] wraps it for TCP.
///
/// Unlike [`crate::run_write_job`], errors don't abort the job: a failed
/// connect counts one failure and idles that thread, a failed request counts
/// one failure and skips that file. The caller asserts on
/// [`RemoteReport::failures`].
pub fn run_remote_write_job<F>(connect: F, spec: &JobSpec) -> RemoteReport
where
    F: Fn(usize) -> Result<Client, SvcError> + Sync,
{
    let per_thread = spec.file_count / spec.threads;
    let start = Instant::now();
    let mut results: Vec<ThreadResult> = Vec::with_capacity(spec.threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(spec.threads);
        for t in 0..spec.threads {
            let connect = &connect;
            handles.push(scope.spawn(move || run_thread(t, connect, spec, per_thread)));
        }
        for h in handles {
            results.push(h.join().expect("remote worker panicked"));
        }
    });
    let mut report = RemoteReport {
        files: 0,
        bytes: 0,
        elapsed: start.elapsed(),
        io_time: Duration::ZERO,
        latencies_ns: Vec::with_capacity(per_thread * spec.threads),
        failures: 0,
        completed: Vec::with_capacity(per_thread * spec.threads),
    };
    for r in results {
        report.files += r.files;
        report.bytes += r.bytes;
        report.io_time += r.io_time;
        report.latencies_ns.extend(r.latencies_ns);
        report.failures += r.failures;
        report.completed.extend(r.completed);
    }
    report
}

/// [`run_remote_write_job`] over TCP: every worker dials `addr`.
pub fn run_remote_write_job_tcp(addr: &str, spec: &JobSpec) -> RemoteReport {
    run_remote_write_job(|_t| Client::connect_tcp(addr), spec)
}

struct ThreadResult {
    files: usize,
    bytes: u64,
    io_time: Duration,
    latencies_ns: Vec<u64>,
    failures: u64,
    completed: Vec<String>,
}

fn run_thread<F>(t: usize, connect: &F, spec: &JobSpec, per_thread: usize) -> ThreadResult
where
    F: Fn(usize) -> Result<Client, SvcError> + Sync,
{
    let mut result = ThreadResult {
        files: 0,
        bytes: 0,
        io_time: Duration::ZERO,
        latencies_ns: Vec::with_capacity(per_thread),
        failures: 0,
        completed: Vec::new(),
    };
    let mut client = match connect(t) {
        Ok(c) => c,
        Err(_) => {
            result.failures += 1;
            return result;
        }
    };
    let mut gen = DataGenerator::new(spec.seed ^ (t as u64) << 32, spec.dup_ratio);
    for i in 0..per_thread {
        let name = format!("{}-{t}-{i}", spec.name);
        let data = gen.next_file(spec.file_size);
        let t0 = Instant::now();
        let outcome = (|| -> Result<(), SvcError> {
            let ino = match spec.kind {
                WriteKind::Create => client.create(&name)?,
                WriteKind::Overwrite => client.open(&name)?,
            };
            client.write_at(ino, 0, &data)?;
            Ok(())
        })();
        let took = t0.elapsed();
        match outcome {
            Ok(()) => {
                result.files += 1;
                result.bytes += spec.file_size as u64;
                result.io_time += took;
                result.latencies_ns.push(took.as_nanos() as u64);
                result.completed.push(name);
            }
            Err(_) => result.failures += 1,
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use denova::{DedupMode, Denova};
    use denova_nova::NovaOptions;
    use denova_pmem::PmemDevice;
    use denova_svc::{Server, SvcConfig};
    use std::sync::Arc;

    fn server() -> Server {
        let dev = Arc::new(PmemDevice::new(64 * 1024 * 1024));
        let fs = Denova::mkfs(
            dev,
            NovaOptions {
                num_inodes: 2048,
                ..Default::default()
            },
            DedupMode::Immediate,
        )
        .unwrap();
        Server::new(Arc::new(fs), SvcConfig::default())
    }

    #[test]
    fn remote_job_over_loopback_writes_all_files() {
        let srv = server();
        let spec = JobSpec::small_files(40, 0.5).with_threads(4);
        let report = run_remote_write_job(
            |_t| Ok(Client::from_stream(Box::new(srv.connect_loopback()))),
            &spec,
        );
        assert_eq!(report.failures, 0);
        assert_eq!(report.files, 40);
        assert_eq!(report.bytes, 40 * 4096);
        assert_eq!(report.latency_summary().count, 40);
        assert_eq!(report.completed.len(), 40);
        let fs = srv.shutdown();
        assert_eq!(fs.nova().file_count(), 40);
        // The duplicate ratio survives the wire: ~20 duplicate pages saved.
        let saved_pages = fs.bytes_saved() / 4096;
        assert!((15..=20).contains(&saved_pages), "saved {saved_pages}");
    }

    #[test]
    fn connect_failures_are_counted_not_fatal() {
        let srv = server();
        let spec = JobSpec::small_files(8, 0.0).with_threads(2);
        // Thread 1 never gets a connection; thread 0 still finishes its half.
        let report = run_remote_write_job(
            |t| {
                if t == 0 {
                    Ok(Client::from_stream(Box::new(srv.connect_loopback())))
                } else {
                    Err(SvcError::service(SvcError::IO, "refused"))
                }
            },
            &spec,
        );
        assert_eq!(report.failures, 1);
        assert_eq!(report.files, 4);
        srv.shutdown();
    }
}
