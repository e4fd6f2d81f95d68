//! The traced run: every layer measured from outside the program.
//!
//! Three instruments, none of which needs a line of program code:
//!
//! * a **ladder** of entry points — the same operation timed at
//!   `Nova::write`, `Denova::write`, `FileService::execute`, the in-process
//!   loopback and TCP, iodepth 1 — whose differences are the layers'
//!   self-times;
//! * the always-live `MetricsRegistry` **counters**, read by name around a
//!   loaded pass of the workload (a missing name degrades one metric);
//! * per-thread `/proc` **scheduler accounting** for the thread classes the
//!   program already names.
//!
//! The loaded pass is driven by a bench-owned client loop with a span
//! around each step; an untraced pass of the same operations beside it
//! gives the tracing overhead.

use crate::gen::{fill_page, Model, Op, Shape, Spec, MIB, PAGE};
use crate::platform::{build_fs, mount_crash_image, spin_calibration_note, Stack};
use crate::procfs::{self, SchedTotals};
use crate::run::{
    build_request, live_audit, main_phase, read_phase, recycle, set_up, verify_image, OpLog,
    Outcome, Wire,
};
use crate::stats::{median, percentile};
use denova::{DedupMode, Denova};
use denova_fingerprint::Fingerprint;
use denova_pmem::{CrashMode, LatencyProfile, PmemBuilder, PmemDevice};
use denova_reactor::frame::{FrameDecoder, SendQueue};
use denova_svc::codec::{read_frame, write_frame, FrameRead, MAX_FRAME};
use denova_svc::proto::{decode_reply, decode_write_ref, encode_reply};
use denova_svc::{Body, Client, Reply, Request, SvcError};
use denova_telemetry::{HistogramSnapshot, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Share of the end-to-end op counts each loaded pass runs: the traced run
/// must fit two loaded passes, a ladder and the micro set in one run.
const LOAD_SHARE: f64 = 0.35;

/// The bench-owned client: what `svc::Client::pipeline_send/recv` do, with
/// a span around each step.
struct TracedWire {
    stream: TcpStream,
    next_id: u64,
    encode_ns: u64,
    send_ns: u64,
    wait_ns: Vec<u64>,
    decode_ns: u64,
}

impl TracedWire {
    fn connect(addr: &str) -> TracedWire {
        let stream = TcpStream::connect(addr).expect("connect the traced client");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        TracedWire {
            stream,
            next_id: 1,
            encode_ns: 0,
            send_ns: 0,
            wait_ns: Vec::new(),
            decode_ns: 0,
        }
    }
}

impl Wire for TracedWire {
    fn send(&mut self, req: &Request) -> Result<u64, SvcError> {
        let id = self.next_id;
        self.next_id += 1;
        let t0 = Instant::now();
        let frame = req.encode(id);
        let t1 = Instant::now();
        write_frame(&mut self.stream, &frame).map_err(|e| SvcError::io(&e))?;
        let t2 = Instant::now();
        self.encode_ns += (t1 - t0).as_nanos() as u64;
        self.send_ns += (t2 - t1).as_nanos() as u64;
        Ok(id)
    }

    fn recv(&mut self) -> Result<(u64, Reply), SvcError> {
        let t0 = Instant::now();
        let frame = match read_frame(&mut self.stream).map_err(|e| SvcError::io(&e))? {
            FrameRead::Frame(f) => f,
            FrameRead::Idle => {
                return Err(SvcError::service(SvcError::TIMEOUT, "no reply within 60 s"))
            }
            FrameRead::Eof => {
                return Err(SvcError::service(
                    SvcError::IO,
                    "server closed the connection",
                ))
            }
        };
        let t1 = Instant::now();
        let decoded = decode_reply(&frame)
            .map_err(|e| SvcError::service(SvcError::BAD_REQUEST, format!("bad reply: {e}")));
        let t2 = Instant::now();
        self.wait_ns.push((t1 - t0).as_nanos() as u64);
        self.decode_ns += (t2 - t1).as_nanos() as u64;
        decoded
    }
}

/// Counter growth between two snapshots, by name; `None` (and one warning)
/// when the program does not register the counter.
struct Delta<'a> {
    before: &'a TelemetrySnapshot,
    after: &'a TelemetrySnapshot,
}

impl Delta<'_> {
    fn counter(&self, name: &str, warnings: &mut Vec<String>) -> Option<f64> {
        match (self.before.counter(name), self.after.counter(name)) {
            (b, Some(a)) => Some(a.saturating_sub(b.unwrap_or(0)) as f64),
            _ => {
                let w = format!("counter {name} is not registered");
                if !warnings.contains(&w) {
                    warnings.push(w);
                }
                None
            }
        }
    }

    /// The samples a histogram gained between the snapshots.
    fn histogram(&self, name: &str, warnings: &mut Vec<String>) -> Option<HistogramSnapshot> {
        let Some(after) = self.after.histogram(name) else {
            warnings.push(format!("histogram {name} is not registered"));
            return None;
        };
        let mut grown = after.clone();
        if let Some(before) = self.before.histogram(name) {
            for (g, b) in grown.counts.iter_mut().zip(&before.counts) {
                *g = g.saturating_sub(*b);
            }
            grown.sum = grown.sum.saturating_sub(before.sum);
        }
        grown.count = grown.counts.iter().sum();
        (grown.count > 0).then_some(grown)
    }
}

/// What a counter's growth is divided by to make a metric.
enum Over {
    /// Nothing: the metric is the count.
    One,
    Counter(&'static str),
    /// The sum of two counters (a share of a whole made of two parts).
    Sum(&'static str, &'static str),
    /// The client requests completed in the window.
    Requests,
    /// The user bytes those requests moved.
    UserBytes,
}

/// One counter-derived metric: `scale x growth(counter) / over`.
struct CounterMetric(&'static str, &'static str, Over, f64);

use Over::{Counter, One, Requests, Sum, UserBytes};

/// Metrics over the write window: first write to daemon idle, so the
/// daemon's share of the device traffic is in. On `mixed_rw` the reads run
/// in the same window.
#[rustfmt::skip]
const WRITE_WINDOW: &[CounterMetric] = &[
    CounterMetric("svc.backpressure_waits", "svc.backpressure_waits", One, 1.0),
    CounterMetric("svc.rejected", "svc.rejected", One, 1.0),
    CounterMetric("svc.zero_copy_share", "svc.zero_copy_writes", Sum("svc.zero_copy_writes", "svc.staged_writes"), 1.0),
    CounterMetric("denova.dup_share", "denova.duplicate_pages", Counter("denova.pages_scanned"), 1.0),
    CounterMetric("denova.stale_share", "denova.pages_skipped_stale", Sum("denova.pages_scanned", "denova.pages_skipped_stale"), 1.0),
    CounterMetric("denova.prefp_reuse_share", "denova.prefp_reused_pages", Counter("denova.pages_scanned"), 1.0),
    CounterMetric("denova.fingerprint_us_per_page", "denova.fingerprint_ns", Counter("denova.pages_scanned"), 1e-3),
    CounterMetric("denova.other_us_per_page", "denova.other_ops_ns", Counter("denova.pages_scanned"), 1e-3),
    CounterMetric("denova.extent.promoted_runs", "denova.extent.promoted_runs", One, 1.0),
    CounterMetric("denova.extent.pages_per_run", "denova.extent.run_pages", Counter("denova.extent.promoted_runs"), 1.0),
    CounterMetric("denova.extent.demoted_runs", "denova.extent.demoted_runs", One, 1.0),
    CounterMetric("denova.extent.zero_holes", "denova.extent.zero_holes", One, 1.0),
    CounterMetric("fact.lookups_per_page", "fact.lookups", Counter("denova.pages_scanned"), 1.0),
    CounterMetric("fact.pm_reads_per_lookup", "fact.lookup_pm_reads", Counter("fact.lookups"), 1.0),
    CounterMetric("fact.hit_share", "fact.hits", Sum("fact.hits", "fact.misses"), 1.0),
    CounterMetric("fact.filter_skip_share", "denova.fact.filter.skips", Counter("fact.lookups"), 1.0),
    CounterMetric("fact.filter_false_positive_share", "denova.fact.filter.false_positives", Counter("fact.lookups"), 1.0),
    CounterMetric("fact.rcu_read_share", "denova.fact.rcu_reads", Counter("fact.lookups"), 1.0),
    CounterMetric("fact.entry_flushes_per_page", "fact.entry_flushes", Counter("denova.pages_scanned"), 1.0),
    CounterMetric("nova.fences_per_write", "nova.write.fences", Counter("nova.writes"), 1.0),
    CounterMetric("nova.bytes_staged_per_write", "nova.write.bytes_staged", Counter("nova.writes"), 1.0),
    CounterMetric("nova.log_entries_per_op", "nova.log.entries_appended", Requests, 1.0),
    CounterMetric("nova.log_pages_gced", "nova.log_pages_gced", One, 1.0),
    CounterMetric("nova.blocks_freed", "nova.blocks_freed", One, 1.0),
    CounterMetric("nova.blocks_kept_shared", "nova.blocks_kept_shared", One, 1.0),
    CounterMetric("pmem.injected_us_per_op", "pmem.injected_ns", Requests, 1e-3),
    CounterMetric("pmem.fences_per_op", "pmem.fences", Requests, 1.0),
    CounterMetric("pmem.flushed_lines_per_op", "pmem.flushes", Requests, 1.0),
    CounterMetric("pmem.atomic_stores_per_op", "pmem.atomic_stores", Requests, 1.0),
    CounterMetric("pmem.bytes_written_per_user_byte", "pmem.bytes_written", UserBytes, 1.0),
];

/// Metrics over the read window (the read phase; on `mixed_rw` the whole
/// main phase, so the writer's and the daemon's device reads are in).
#[rustfmt::skip]
const READ_WINDOW: &[CounterMetric] = &[
    CounterMetric("nova.read.optimistic_share", "nova.read.optimistic_hits", Counter("nova.reads"), 1.0),
    CounterMetric("nova.read.seq_retries_per_kread", "nova.read.seq_retries", Counter("nova.reads"), 1e3),
    CounterMetric("pmem.reads_per_op", "pmem.reads", Requests, 1.0),
    CounterMetric("pmem.bytes_read_per_user_byte", "pmem.bytes_read", UserBytes, 1.0),
];

impl Delta<'_> {
    /// Emit `table`'s metrics for this window, in which the client completed
    /// the requests of `log`.
    fn report(
        &self,
        table: &[CounterMetric],
        log: &OpLog,
        out: &mut Outcome,
        warn: &mut Vec<String>,
    ) {
        for CounterMetric(name, counter, over, scale) in table {
            let grown = self.counter(counter, warn);
            let over = match over {
                One => Some(1.0),
                Counter(c) => self.counter(c, warn),
                Sum(a, b) => self
                    .counter(a, warn)
                    .zip(self.counter(b, warn))
                    .map(|(a, b)| a + b),
                Requests => Some(log.lat_ns.len() as f64),
                UserBytes => Some(log.bytes as f64),
            };
            put(out, name, ratio(grown, over).map(|v| v * scale));
        }
    }
}

/// `a / b`, or `None` when either side is missing or `b` is zero: a ratio
/// with no denominator is unavailable, not 0.
fn ratio(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    }
}

fn put(out: &mut Outcome, name: &'static str, value: Option<f64>) {
    if let Some(v) = value.filter(|v| v.is_finite()) {
        out.metrics.insert(name, v);
    }
}

fn lat_median_us(lat_ns: &[u64]) -> f64 {
    let mut v = lat_ns.to_vec();
    v.sort_unstable();
    percentile(&v, 0.5) as f64 / 1e3
}

/// Median over `batches` of the mean ns per call of `f` over `iters` calls.
fn ns_per_call(batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let per_batch: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_batch)
}

fn total_ops(logs: &[&OpLog]) -> f64 {
    logs.iter().map(|l| l.lat_ns.len() as f64).sum()
}

fn ops_per_s(logs: &[&OpLog]) -> f64 {
    let first = logs.iter().filter_map(|l| l.first_send).min();
    let last = logs.iter().filter_map(|l| l.last_ack).max();
    match (first, last) {
        (Some(a), Some(b)) if b > a => total_ops(logs) / (b - a).as_secs_f64(),
        _ => f64::NAN,
    }
}

/// What was captured the moment the last write was acknowledged.
struct AckPoint {
    at: Instant,
    threads: Option<BTreeMap<&'static str, SchedTotals>>,
    dwq_depth: usize,
    image: PmemDevice,
}

pub fn run_trace(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let t_run = Instant::now();
    let mut lap = t_run;
    let mut budget = String::new();
    let mut mark = |what: &str| {
        budget.push_str(&format!(" {what} {:.1}", lap.elapsed().as_secs_f64()));
        lap = Instant::now();
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let load_seconds = seconds * LOAD_SHARE;

    // Untraced pass: the same operations through `svc::Client`, tracing off.
    let untraced_rate = {
        let (mut ready, _, _) = set_up(spec, seed, 1);
        let wires = ready
            .clients
            .iter_mut()
            .map(|c| c as &mut dyn Wire)
            .collect();
        let phase = main_phase(spec, seed, load_seconds, &mut ready.model, wires, || {});
        out.absorb("untraced pass", &phase.writes);
        let mut logs = vec![&phase.writes];
        logs.extend(phase.reads.as_ref());
        if let Some(r) = &phase.reads {
            out.absorb("untraced pass reads", r);
        }
        let rate = ops_per_s(&logs);
        drop(ready.clients);
        ready.stack.stop();
        rate
    };

    mark("untraced");
    // Traced loaded pass on a fresh, identical stack.
    let (mut ready, _, _) = set_up(spec, seed, 1);
    let fs = ready.stack.fs.clone();
    out.notes.push(spin_calibration_note(&fs));
    let registry = fs.nova().device().metrics().clone();
    let mut traced: Vec<TracedWire> = (0..spec.conns())
        .map(|_| TracedWire::connect(&ready.stack.addr))
        .collect();
    registry.set_enabled(true);
    let before = registry.snapshot();
    let threads_before = procfs::sample_threads();
    let mut ack: Option<AckPoint> = None;
    let phase = {
        let wires = traced.iter_mut().map(|w| w as &mut dyn Wire).collect();
        main_phase(spec, seed, load_seconds, &mut ready.model, wires, || {
            let at = Instant::now();
            let threads = procfs::sample_threads();
            let dwq_depth = fs.dwq().len();
            let image = fs.quiesce(|| fs.nova().device().crash_clone(CrashMode::Strict));
            ack = Some(AckPoint {
                at,
                threads,
                dwq_depth,
                image,
            });
        })
    };
    let ack = ack.expect("main_phase calls before_exit");
    fs.drain();
    let drained = Instant::now();
    registry.set_enabled(false);
    let after_writes = registry.snapshot();
    out.absorb("traced pass", &phase.writes);
    if let Some(r) = &phase.reads {
        out.absorb("traced pass reads", r);
    }

    mark("traced");
    // Every acknowledged write must be readable from what had been flushed
    // at the moment of the last ack, before any drain.
    {
        let recovered = mount_crash_image(ack.image, spec, DedupMode::Immediate);
        recovered.drain();
        let (pages, bad) = verify_image(&recovered, &ready.model);
        out.attempted += 1;
        if bad != 0 {
            out.failed += 1;
            out.problems.push(format!(
                "crash at the last ack: {bad} of {pages} pages lost acknowledged content"
            ));
        }
        recovered.unmount();
    }

    mark("ack-crash");
    // The read phase (mixed_rw already read beside its writes).
    let reads = match phase.reads {
        Some(r) => r,
        None => {
            let log = read_phase(spec, seed, load_seconds, &mut traced[0], &mut ready.model);
            out.absorb("traced read phase", &log);
            log
        }
    };
    let after_reads = registry.snapshot();
    let writes = &phase.writes;
    let mixed = spec.shape == Shape::MixedRw;

    mark("reads");
    // ---- the loaded pass, layer by layer --------------------------------
    let mut warn = Vec::new();
    let w = Delta {
        before: &before,
        after: &after_writes,
    };
    // Reads ran inside the write window on mixed_rw, after it elsewhere.
    let r = Delta {
        before: if mixed { &before } else { &after_writes },
        after: &after_reads,
    };
    let main_logs: Vec<&OpLog> = if mixed {
        vec![writes, &reads]
    } else {
        vec![writes]
    };
    let main_ops = total_ops(&main_logs);
    let traced_rate = ops_per_s(&main_logs);
    out.notes.push(format!(
        "loaded pass: {} writes, {} reads; {:.0} ops/s traced vs {:.0} ops/s untraced",
        writes.lat_ns.len(),
        reads.lat_ns.len(),
        traced_rate,
        untraced_rate
    ));
    put(
        &mut out,
        "trace.overhead_pct",
        Some((untraced_rate - traced_rate) / untraced_rate * 100.0),
    );

    let gen_ns: u64 = main_logs.iter().map(|l| l.gen_ns).sum();
    put(
        &mut out,
        "workload.gen_us_per_op",
        Some(gen_ns as f64 / main_ops / 1e3),
    );
    let wire_ops: f64 = traced.iter().map(|t| t.wait_ns.len() as f64).sum();
    let sum = |f: fn(&TracedWire) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    put(
        &mut out,
        "client.encode_us",
        Some(sum(|t| t.encode_ns) / wire_ops / 1e3),
    );
    put(
        &mut out,
        "client.send_us",
        Some(sum(|t| t.send_ns) / wire_ops / 1e3),
    );
    put(
        &mut out,
        "client.decode_us",
        Some(sum(|t| t.decode_ns) / wire_ops / 1e3),
    );
    let waits: Vec<u64> = traced
        .iter()
        .flat_map(|t| t.wait_ns.iter().copied())
        .collect();
    put(&mut out, "client.wait_us", Some(lat_median_us(&waits)));
    let write_numbers = writes.steady();
    put(&mut out, "client.write_p99_us", Some(write_numbers.p99_us));
    put(&mut out, "client.read_p99_us", Some(reads.steady().p99_us));

    // Thread classes over the main phase.
    match (&threads_before, &ack.threads) {
        (Some(b), Some(a)) => {
            let class = |name: &str| {
                let zero = SchedTotals::default();
                a.get(name)
                    .map(|t| t.since(b.get(name).unwrap_or(&zero)))
                    .filter(|t| t.threads > 0)
            };
            let mut cpu_ns = 0.0;
            for (name, cpu, wait, wake) in [
                (
                    "reactor",
                    "reactor.cpu_us_per_op",
                    "reactor.runq_wait_us_per_op",
                    Some("reactor.wakeups_per_op"),
                ),
                (
                    "svc.pool",
                    "svc.pool.cpu_us_per_op",
                    "svc.pool.runq_wait_us_per_op",
                    Some("svc.pool.wakeups_per_op"),
                ),
                (
                    "denova.daemon",
                    "denova.daemon.cpu_us_per_op",
                    "denova.daemon.runq_wait_us_per_op",
                    None,
                ),
                (
                    "client",
                    "client.cpu_us_per_op",
                    "client.runq_wait_us_per_op",
                    None,
                ),
            ] {
                let Some(t) = class(name) else {
                    out.warnings
                        .push(format!("no {name} threads found in /proc/self/task"));
                    continue;
                };
                cpu_ns += t.cpu_ns as f64;
                put(&mut out, cpu, Some(t.cpu_ns as f64 / main_ops / 1e3));
                put(&mut out, wait, Some(t.runq_wait_ns as f64 / main_ops / 1e3));
                if let Some(wake) = wake {
                    put(&mut out, wake, Some(t.wakeups as f64 / main_ops));
                }
            }
            // CPU-bound on a small host: the four classes' CPU over the
            // cores should account for the time of the phase (without the
            // idle gaps between bursts; mixed_rw's writer runs through them).
            let phase_s = if mixed {
                main_ops / traced_rate
            } else {
                write_numbers.busy_s
            };
            let explained = cpu_ns / (nproc * phase_s * 1e9) * 100.0;
            put(&mut out, "run.cpu_explained_pct", Some(explained));
            if explained < 85.0 {
                out.notes.push(format!(
                    "unattributed: thread classes explain only {explained:.0} % of {nproc} cores"
                ));
            }
        }
        _ => out
            .warnings
            .push("/proc/self/task is unreadable: no thread-class metrics".into()),
    }

    w.report(WRITE_WINDOW, writes, &mut out, &mut warn);
    r.report(READ_WINDOW, &reads, &mut out, &mut warn);

    // Histograms: the always-live ones as growth over the pass, the span
    // one (`nova.write`) as is, since spans were only on during the pass.
    let whole = Delta {
        before: &before,
        after: &after_reads,
    };
    let p_us = |h: &HistogramSnapshot, q: f64| Some(h.percentile(q) as f64 / 1e3);
    if let Some(h) = whole.histogram("svc.request.ns", &mut warn) {
        put(&mut out, "svc.service.request_p50_us", p_us(&h, 0.5));
        put(&mut out, "svc.service.request_p99_us", p_us(&h, 0.99));
        let all: Vec<u64> = writes.lat_ns.iter().chain(&reads.lat_ns).copied().collect();
        put(
            &mut out,
            "svc.tcp.outside_service_us",
            p_us(&h, 0.5).map(|service| lat_median_us(&all) - service),
        );
    }
    if let Some(h) = w.histogram("dwq.linger_ns", &mut warn) {
        put(&mut out, "dwq.linger_p50_us", p_us(&h, 0.5));
        put(&mut out, "dwq.linger_p99_us", p_us(&h, 0.99));
    }
    match after_writes.histogram("nova.write").filter(|h| h.count > 0) {
        Some(h) => {
            put(&mut out, "nova.write_p50_us", p_us(h, 0.5));
            put(&mut out, "nova.write_p99_us", p_us(h, 0.99));
        }
        None => warn.push("span histogram nova.write recorded nothing".into()),
    }
    put(
        &mut out,
        "dwq.depth_at_last_ack",
        Some(ack.dwq_depth as f64),
    );
    let drain_s = (drained - ack.at).as_secs_f64();
    put(&mut out, "denova.drain_s", Some(drain_s));
    if let Some(first) = writes.first_send {
        let scanned = w.counter("denova.pages_scanned", &mut warn);
        let busy = (drained - first).as_secs_f64();
        put(&mut out, "denova.pages_per_s", scanned.map(|s| s / busy));
    }
    let entries = fs.fact().occupied_count() as f64;
    put(&mut out, "fact.entries", Some(entries));
    out.warnings.append(&mut warn);

    // Recovery, split: the whole stack's mount against NOVA's alone.
    let timed_mount = |mode: DedupMode| {
        let image = fs.quiesce(|| fs.nova().device().crash_clone(CrashMode::Strict));
        let t0 = Instant::now();
        let mounted = mount_crash_image(image, spec, mode);
        let took = t0.elapsed().as_secs_f64();
        mounted.unmount();
        took
    };
    let recovery_s = timed_mount(DedupMode::Immediate);
    let nova_recovery_s = timed_mount(DedupMode::Baseline);
    put(&mut out, "nova.recovery_s", Some(nova_recovery_s));
    put(
        &mut out,
        "denova.recovery_extra_s",
        Some(recovery_s - nova_recovery_s),
    );

    mark("recovery");
    fact_micro(&fs, &mut out);
    let drift = live_audit(&fs, &mut out);
    put(&mut out, "fact.live_audit_errors", Some(drift as f64));
    mark("audit");

    let sample = ladder(
        spec,
        seed,
        seconds,
        &ready.stack,
        &mut ready.model,
        &mut out,
    );
    mark("ladder");
    micro(&fs, &sample, &mut out);
    mark("micro");
    out.notes.push(format!("time budget s:{budget}"));
    put(&mut out, "run.peak_rss_mib", procfs::peak_rss_mib());

    drop(traced);
    drop(fs);
    drop(ready.clients);
    ready.stack.stop();
    out
}

/// Lookup cost on the drained table: present fingerprints (taken from the
/// table itself) and absent ones.
fn fact_micro(fs: &Denova, out: &mut Outcome) {
    let fact = fs.fact();
    let mut present: Vec<Fingerprint> = Vec::new();
    fact.for_each_occupied(|_, e| {
        if present.len() < 4096 {
            present.push(e.fp);
        }
    });
    if present.is_empty() {
        out.warnings
            .push("FACT is empty after the drain: no lookup micro".into());
        return;
    }
    let absent: Vec<Fingerprint> = (0..present.len() as u64)
        .map(|i| Fingerprint::of(&(i ^ 0xabad_1dea).to_le_bytes()))
        .collect();
    for (name, fps, want_hit) in [
        ("fact.lookup_hit_ns", &present, true),
        ("fact.lookup_miss_ns", &absent, false),
    ] {
        let mut i = 0;
        let mut wrong = 0u64;
        let ns = ns_per_call(9, fps.len(), || {
            wrong += (black_box(fact.lookup(&fps[i % fps.len()])).is_some() != want_hit) as u64;
            i += 1;
        });
        if wrong == 0 {
            put(out, name, Some(ns));
        } else {
            out.warnings.push(format!(
                "{name}: {wrong} lookups did not {} as constructed",
                if want_hit { "hit" } else { "miss" }
            ));
        }
    }
}

/// One ladder operation, materialised once so every later micro can reuse
/// its frames.
pub struct Sample {
    request: Request,
    reply: Reply,
}

/// Execute `frame` the way the server's `classify` does: aligned whole-block
/// writes go zero-copy from the frame, everything else is decoded first.
fn service_execute(service: &denova_svc::FileService, req: &Request, frame: &[u8]) -> Reply {
    match decode_write_ref(frame).filter(|wr| service.zero_copy_eligible(wr)) {
        Some(wr) => service.execute_write_ref(&wr, frame),
        None => service.execute(req),
    }
}

/// A file-system call dressed as a reply, for the rungs below the service.
fn direct(
    req: &Request,
    write: impl Fn(u64, u64, &[u8]) -> denova_nova::Result<()>,
    read: impl Fn(u64, u64, usize) -> denova_nova::Result<Vec<u8>>,
) -> Reply {
    match req {
        Request::Write { ino, offset, data } => {
            write(*ino, *offset, data).map(|()| Body::Written(data.len() as u32))
        }
        Request::Read { ino, offset, len } => read(*ino, *offset, *len as usize).map(Body::Bytes),
        other => unreachable!("ladder op {other:?}"),
    }
    .map_err(|e| SvcError::from_nova(&e))
}

/// The five-rung ladder, iodepth 1: one op stream cut into consecutive
/// segments, one per rung, so no rung replays another's content. (Dealing
/// the ops round-robin instead was tried: each rung then inherits the
/// cache and thread state its predecessor left, which biases more than the
/// drift between segments does.) The NOVA rung runs on a Baseline stack of
/// its own with the same preload; the other four share the served stack,
/// daemon live.
fn ladder(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    stack: &Stack,
    model: &mut Model,
    out: &mut Outcome,
) -> Sample {
    let mut n = ((spec.ladder_ops_per_s as f64 * seconds) as usize).max(8);
    let mut ops: Box<dyn Iterator<Item = Op>> = if spec.shape == Shape::MixedRw {
        Box::new(spec.reads(spec.files))
    } else {
        let filled = model.files[..spec.files]
            .iter()
            .filter(|f| !f.pages.is_empty())
            .count();
        if spec.shape == Shape::VmClone {
            // The ladder's clones go into the files the loaded pass left
            // empty (they still deduplicate against its clones: one
            // template), and must not run out of them: 5 rungs of 1.1 n.
            let room = (spec.files - filled) * spec.file_pages / (MIB / PAGE);
            n = n.min(room * 10 / 55).max(1);
        }
        Box::new(spec.ladder_writes(seed, filled))
    };
    // Untimed ops at the head of every rung: caches, connections and the
    // daemon's backlog reach their working state first.
    let warm_up = n / 10;
    let fs = &stack.fs;
    let mut buf = Vec::new();
    let mut sample: Option<Sample> = None;
    let mut wrong = 0usize;

    // Time `call` on the rung's ops: `(median us, injected us/op)`. On the
    // served stack the daemon's device time during the rung is in the
    // injected figure. (Asking the registry for a missing counter would
    // create it and read 0, hence the look through a snapshot.)
    let mut rung = |model: &mut Model,
                    on: &Denova,
                    call: &mut dyn FnMut(&Request, &[u8]) -> Reply|
     -> (f64, Option<f64>) {
        let registry = on.nova().device().metrics();
        let injected = || registry.snapshot().counter("pmem.injected_ns");
        let mut lat = Vec::with_capacity(n);
        let mut inj0 = None;
        for (i, op) in ops.by_ref().take(warm_up + n).enumerate() {
            if i == warm_up {
                inj0 = injected();
            }
            let req = build_request(&op, seed, model, &mut buf);
            // Encoded off the clock: the codec has its own metrics.
            let frame = req.encode(i as u64 + 1);
            let t0 = Instant::now();
            let reply = call(&req, &frame);
            if i >= warm_up {
                lat.push(t0.elapsed().as_nanos() as u64);
            }
            match (&op, &reply) {
                (Op::Read { file, page, pages }, Ok(Body::Bytes(data))) => {
                    wrong += model.mismatches(*file, *page, *pages, data)
                }
                (Op::Write { .. }, Ok(Body::Written(_))) => {}
                _ => wrong += 1,
            }
            if sample.is_none() {
                sample = Some(Sample {
                    request: req.clone(),
                    reply: reply.clone(),
                });
            }
            recycle(req, &mut buf);
        }
        let grown = inj0.zip(injected()).map(|(a, b)| (b - a) as f64);
        (lat_median_us(&lat), grown.map(|g| g / n as f64 / 1e3))
    };

    let (nova_us, nova_injected) = {
        let (base, mut base_model) = build_fs(spec, seed, DedupMode::Baseline);
        let nova = base.nova();
        let r = rung(&mut base_model, &base, &mut |req, _| {
            direct(
                req,
                |i, o, d| nova.write(i, o, d),
                |i, o, l| nova.read(i, o, l),
            )
        });
        if let Ok(base) = std::sync::Arc::try_unwrap(base) {
            base.unmount();
        }
        r
    };
    let (denova_us, denova_injected) = rung(model, fs, &mut |req, _| {
        direct(req, |i, o, d| fs.write(i, o, d), |i, o, l| fs.read(i, o, l))
    });
    let service = stack.server.service().clone();
    let (service_us, service_injected) = rung(model, fs, &mut |req, frame| {
        service_execute(&service, req, frame)
    });
    let mut loopback = Client::from_stream(Box::new(stack.server.connect_loopback()));
    let (loopback_us, loopback_injected) = rung(model, fs, &mut |req, _| loopback.request(req));
    drop(loopback);
    let mut tcp = stack.connect();
    let (tcp_us, tcp_injected) = rung(model, fs, &mut |req, _| tcp.request(req));
    drop(tcp);
    fs.drain();

    out.attempted += 5 * (warm_up + n) as u64;
    if wrong != 0 {
        out.failed += wrong as u64;
        out.problems
            .push(format!("ladder: {wrong} ops failed or read wrong content"));
    }
    let sample = sample.expect("the ladder ran at least one op");

    let proto_us = proto_micro(&sample, out);

    put(out, "nova.op_us", Some(nova_us));
    put(out, "nova.injected_us", nova_injected);
    put(out, "nova.software_us", nova_injected.map(|i| nova_us - i));
    put(out, "denova.op_us", Some(denova_us));
    put(out, "denova.fg_overhead_us", Some(denova_us - nova_us));
    put(out, "svc.service.op_us", Some(service_us));
    put(out, "svc.service.dispatch_us", Some(service_us - denova_us));
    put(out, "svc.loopback.rtt_us", Some(loopback_us));
    put(
        out,
        "svc.pool.handoff_us",
        Some(loopback_us - service_us - proto_us),
    );
    put(out, "svc.tcp.rtt_us", Some(tcp_us));

    let fmt_inj = |v: Option<f64>| v.map_or("unavailable".into(), |v| format!("{v:.1}"));
    out.notes.push(format!(
        "ladder ({} op, n={n} per rung, median us [injected us/op incl. daemon]): \
         nova {nova_us:.1} [{}] <= denova {denova_us:.1} [{}] <= service {service_us:.1} [{}] \
         <= loopback {loopback_us:.1} [{}] <= tcp {tcp_us:.1} [{}]",
        sample.request.op_name(),
        fmt_inj(nova_injected),
        fmt_inj(denova_injected),
        fmt_inj(service_injected),
        fmt_inj(loopback_injected),
        fmt_inj(tcp_injected),
    ));
    let rungs = [
        ("nova", nova_us),
        ("denova", denova_us),
        ("service", service_us),
        ("loopback", loopback_us),
        ("tcp", tcp_us),
    ];
    for pair in rungs.windows(2) {
        if pair[1].1 < pair[0].1 * 0.95 {
            out.warnings.push(format!(
                "ladder not monotone: {} {:.1} us < {} {:.1} us",
                pair[1].0, pair[1].1, pair[0].0, pair[0].1
            ));
        }
    }
    if let Some(inj) = nova_injected {
        let parts = [
            nova_us - inj,
            inj,
            denova_us - nova_us,
            service_us - denova_us,
            loopback_us - service_us - proto_us,
            proto_us,
            tcp_us - loopback_us,
        ];
        out.notes.push(format!(
            "self-times us: nova.software {:.1} + nova.injected {:.1} + denova.fg_overhead {:.1} + \
             svc.service.dispatch {:.1} + svc.pool.handoff {:.1} + svc.proto {:.1} + \
             (tcp - loopback) {:.1} = {:.1} = svc.tcp.rtt_us {tcp_us:.1}",
            parts[0],
            parts[1],
            parts[2],
            parts[3],
            parts[4],
            parts[5],
            parts[6],
            parts.iter().sum::<f64>()
        ));
    }
    sample
}

/// Direct calls into `svc::proto` on the workload's own request and reply.
/// Returns their sum in µs (what the loopback rung pays for the codec).
fn proto_micro(sample: &Sample, out: &mut Outcome) -> f64 {
    let frame = sample.request.encode(7);
    let reply_frame = encode_reply(7, &sample.reply);
    // Few iterations for MiB-sized frames, many for small ones.
    let iters = (4_000_000 / (frame.len() + reply_frame.len())).clamp(8, 2_000);
    let encode = ns_per_call(7, iters, || {
        black_box(black_box(&sample.request).encode(7));
    });
    let decode = ns_per_call(7, iters, || {
        // What the server does per frame: try the zero-copy view first.
        match decode_write_ref(black_box(&frame)) {
            Some(wr)
                if wr.data_len > 0 && wr.offset % PAGE as u64 == 0 && wr.data_len % PAGE == 0 =>
            {
                black_box(wr);
            }
            _ => {
                black_box(Request::decode(&frame).expect("own frame decodes"));
            }
        }
    });
    let reply_encode = ns_per_call(7, iters, || {
        black_box(encode_reply(7, black_box(&sample.reply)));
    });
    let reply_decode = ns_per_call(7, iters, || {
        let (id, reply) = decode_reply(black_box(&reply_frame)).expect("own reply decodes");
        black_box((id, reply.is_ok()));
    });
    put(out, "svc.proto.encode_ns", Some(encode));
    put(out, "svc.proto.decode_ns", Some(decode));
    put(out, "svc.proto.reply_encode_ns", Some(reply_encode));
    put(out, "svc.proto.reply_decode_ns", Some(reply_decode));
    (encode + decode + reply_encode + reply_decode) / 1e3
}

/// Micro measurements on the workload's frame sizes and on 4 KiB pages.
fn micro(fs: &Denova, sample: &Sample, out: &mut Outcome) {
    // reactor: the per-connection state machines, fed as the event loop
    // feeds them (64 KiB reads; one reply per flush).
    let frame = sample.request.encode(7);
    let mut wire = (frame.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&frame);
    let iters = (4_000_000 / wire.len()).clamp(4, 2_000);
    let mut decoder = FrameDecoder::new(MAX_FRAME);
    let decode = ns_per_call(7, iters, || {
        for chunk in wire.chunks(64 << 10) {
            decoder.push(black_box(chunk));
        }
        black_box(decoder.next_frame().expect("frame under the cap"))
            .expect("a whole frame was pushed");
    });
    put(out, "reactor.frame.decode_ns", Some(decode));
    let reply_frame = encode_reply(7, &sample.reply);
    let iters = (4_000_000 / reply_frame.len().max(1)).clamp(4, 2_000);
    let mut queue = SendQueue::new();
    let mut sink = std::io::sink();
    let send = median(
        &(0..7)
            .map(|_| {
                // The clones are the workers' reply buffers; made off the clock.
                let replies: Vec<Vec<u8>> = (0..iters).map(|_| reply_frame.clone()).collect();
                let t0 = Instant::now();
                for reply in replies {
                    queue.push(reply);
                    queue.flush(&mut sink).expect("sink never fails");
                }
                t0.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect::<Vec<_>>(),
    );
    put(out, "reactor.frame.send_ns", Some(send));

    // fingerprint: host SHA-1, the model's pad on top, zero detection.
    let mut page = vec![0u8; PAGE];
    fill_page(1, 42, &mut page);
    let zero = vec![0u8; PAGE];
    put(
        out,
        "fingerprint.sha1_ns_per_4k",
        Some(ns_per_call(9, 200, || {
            black_box(Fingerprint::of(black_box(&page)));
        })),
    );
    put(
        out,
        "fingerprint.pad_ns_per_4k",
        Some(fs.fact().fp().extra_ns_per_4k() as f64),
    );
    put(
        out,
        "fingerprint.zero_detect_ns_per_4k",
        Some(
            ns_per_call(9, 1000, || {
                black_box(denova_fingerprint::is_zero_page(black_box(&page)));
                black_box(denova_fingerprint::is_zero_page(black_box(&zero)));
            }) / 2.0,
        ),
    );

    // pmem: the emulator's own software cost, nothing injected.
    let dev = PmemBuilder::new(16 << 20)
        .latency(LatencyProfile::none())
        .build();
    let pages = (dev.size() / PAGE) as u64;
    let mut at = 0u64;
    put(
        out,
        "pmem.persist4k_ns",
        Some(ns_per_call(9, 2000, || {
            let off = (at % pages) * PAGE as u64;
            at += 1;
            dev.write_v(&[(off, black_box(&page[..]))]);
            dev.flush_ranges(&[(off, PAGE)]);
            dev.fence();
        })),
    );
    let mut buf = vec![0u8; PAGE];
    put(
        out,
        "pmem.read4k_ns",
        Some(ns_per_call(9, 2000, || {
            let off = (at % pages) * PAGE as u64;
            at += 1;
            dev.read_into(off, black_box(&mut buf));
        })),
    );
}
