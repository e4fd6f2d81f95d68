//! The end-to-end run: set-up, the workload's closed loops over real TCP,
//! drain, read-back, crash recovery, and the correctness gate.

use crate::gen::{fill_page, Model, Op, Shape, Spec, MIB, PAGE};
use crate::platform::{build_fs, mount_crash_image, spin_calibration_note, Stack};
use crate::stats::{median, percentile};
use denova::{DedupMode, Denova};
use denova_pmem::CrashMode;
use denova_svc::{Body, Client, Reply, Request, SvcError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median and the last one is measured.
pub const SETUPS: usize = 3;

/// A phase is cut short (and the run flagged) if it takes this many times
/// its share of `--seconds`: fixed op counts must not turn a slow host into
/// a run that outlives the driver's limit.
const OVERRUN: f64 = 3.0;

/// Bursts a counted phase is cut into; see [`OpLog::steady`].
pub const SLICES: usize = 20;

/// Idle time between two bursts of a counted phase. On a 2-vCPU host the
/// scheduler can settle the client, reactor and worker threads into a
/// faster or a slower placement and keep it for seconds, which made whole
/// runs bimodal (read throughput 1450 or 1700 MiB/s, run by run). Letting
/// every thread go idle for a moment re-rolls the placement per burst, so a
/// run averages over the placements instead of drawing one.
const BURST_GAP: Duration = Duration::from_millis(20);

/// A phase's numbers; see [`OpLog::steady`].
#[derive(Debug, Clone, Copy)]
pub struct Steady {
    pub mib_s: f64,
    /// Mean over the bursts of each burst's median latency.
    pub p50_us: f64,
    /// 99th percentile over the whole phase.
    pub p99_us: f64,
    /// Time spent inside the bursts.
    pub busy_s: f64,
}

/// What one closed loop saw.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Send→reply latency of every completed request, ns.
    pub lat_ns: Vec<u64>,
    /// When each of those replies arrived, ns after the first send.
    pub ack_ns: Vec<u64>,
    pub bytes: u64,
    pub attempted: u64,
    /// Failed, refused (BUSY/TIMEOUT) or wrong-content requests.
    pub failed: u64,
    pub first_send: Option<Instant>,
    pub last_ack: Option<Instant>,
    /// Time spent producing request content on the client thread, ns.
    pub gen_ns: u64,
    /// The phase hit its wall-clock guard before its op count.
    pub cut_short: bool,
    pub first_error: Option<String>,
}

impl OpLog {
    pub fn wall(&self) -> Duration {
        match (self.first_send, self.last_ack) {
            (Some(a), Some(b)) => b.duration_since(a),
            _ => Duration::ZERO,
        }
    }

    /// The phase's throughput and latency. Every burst starts from a fresh
    /// thread placement, so numbers taken per burst and then averaged cover
    /// the placements a 2-vCPU host can fall into instead of reporting
    /// whichever one a run got stuck in: the rate is taken over the time
    /// spent inside the bursts (the idle gaps are not billed), and the
    /// median latency is the mean of the bursts' medians (a single median
    /// over a bimodal phase flips between the modes from run to run).
    pub fn steady(&self) -> Steady {
        let n = self.lat_ns.len();
        let (mut busy_ns, mut medians) = (0u64, Vec::with_capacity(SLICES));
        for (lo, hi) in (0..SLICES).map(|i| (i * n / SLICES, (i + 1) * n / SLICES)) {
            if hi == lo {
                continue;
            }
            let first_send = (lo..hi)
                .map(|j| self.ack_ns[j] - self.lat_ns[j])
                .min()
                .expect("non-empty slice");
            busy_ns += self.ack_ns[hi - 1] - first_send;
            let mut lat = self.lat_ns[lo..hi].to_vec();
            lat.sort_unstable();
            medians.push(percentile(&lat, 0.50) as f64 / 1e3);
        }
        let mut sorted = self.lat_ns.clone();
        sorted.sort_unstable();
        let busy_s = busy_ns as f64 / 1e9;
        Steady {
            mib_s: self.bytes as f64 / MIB as f64 / busy_s.max(1e-9),
            p50_us: medians.iter().sum::<f64>() / medians.len().max(1) as f64,
            p99_us: percentile(&sorted, 0.99) as f64 / 1e3,
            busy_s,
        }
    }

    fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.failed += n;
        if self.first_error.is_none() {
            self.first_error = Some(why());
        }
    }
}

/// When a closed loop stops issuing new requests.
pub enum Until<'a> {
    Count(usize),
    /// Until another loop raises the flag (`mixed_rw`'s writer).
    Raised(&'a AtomicBool),
}

struct Slot {
    id: u64,
    sent: Instant,
    file: usize,
    page: usize,
    pages: usize,
    is_read: bool,
}

/// Turn an [`Op`] into a wire request, recording what a write sends in the
/// model. `buf` is recycled between writes so the loop does not allocate a
/// fresh payload per request.
pub fn build_request(op: &Op, seed: u64, model: &mut Model, buf: &mut Vec<u8>) -> Request {
    match op {
        Op::Read { file, page, pages } => Request::Read {
            ino: model.files[*file].ino,
            offset: (*page * PAGE) as u64,
            len: (*pages * PAGE) as u32,
        },
        Op::Write {
            file,
            page,
            content,
        } => {
            let mut data = std::mem::take(buf);
            data.resize(content.len() * PAGE, 0);
            let sums: Vec<u64> = content
                .iter()
                .zip(data.chunks_exact_mut(PAGE))
                .map(|(&id, chunk)| fill_page(seed, id, chunk))
                .collect();
            model.record_write(*file, *page, &sums);
            Request::Write {
                ino: model.files[*file].ino,
                offset: (*page * PAGE) as u64,
                data,
            }
        }
    }
}

/// Take a sent write's payload buffer back for the next request.
pub fn recycle(req: Request, buf: &mut Vec<u8>) {
    if let Request::Write { data, .. } = req {
        *buf = data;
    }
}

/// The client side of one connection, as the closed loop needs it. The
/// untraced runs use `svc::Client`'s pipelined window; the traced run
/// substitutes a bench-owned loop with a span around every step.
pub trait Wire: Send {
    fn prepare(&mut self, _iodepth: usize) {}
    /// Fire one request; returns its id.
    fn send(&mut self, req: &Request) -> Result<u64, SvcError>;
    /// Wait for the next reply, in whatever order the server produced it.
    fn recv(&mut self) -> Result<(u64, Reply), SvcError>;
}

impl Wire for Client {
    fn prepare(&mut self, iodepth: usize) {
        self.set_pipeline_window(iodepth);
    }

    fn send(&mut self, req: &Request) -> Result<u64, SvcError> {
        self.pipeline_send(req)
    }

    fn recv(&mut self) -> Result<(u64, Reply), SvcError> {
        self.pipeline_recv()
    }
}

/// Drive `ops` through `client` with `iodepth` requests outstanding: each
/// reply triggers the next send (callers that wait for replies — a closed
/// loop). Every read reply is checked against `model`.
pub fn closed_loop(
    client: &mut dyn Wire,
    iodepth: usize,
    ops: &mut dyn Iterator<Item = Op>,
    until: Until<'_>,
    guard: Duration,
    seed: u64,
    model: &mut Model,
) -> OpLog {
    let mut log = OpLog::default();
    let mut inflight: Vec<Slot> = Vec::with_capacity(iodepth);
    let mut buf = Vec::new();
    let deadline = Instant::now() + guard;
    client.prepare(iodepth);
    // A counted phase runs as `SLICES` bursts with a short idle gap between
    // them (see `OpLog::steady`, which cuts at the same request numbers).
    let mut burst_ends = match until {
        Until::Count(n) => (1..=SLICES).map(|i| i * n / SLICES).collect(),
        Until::Raised(_) => Vec::new(),
    }
    .into_iter()
    .peekable();
    let mut pausing = false;
    'outer: loop {
        while inflight.len() < iodepth && !pausing {
            let more = match until {
                Until::Count(n) => (log.attempted as usize) < n,
                Until::Raised(flag) => !flag.load(Ordering::Acquire),
            };
            if !more {
                break;
            }
            if Instant::now() >= deadline {
                log.cut_short = true;
                break;
            }
            let Some(op) = ops.next() else { break };
            let t_gen = Instant::now();
            let req = build_request(&op, seed, model, &mut buf);
            let sent = Instant::now();
            log.gen_ns += sent.duration_since(t_gen).as_nanos() as u64;
            log.attempted += 1;
            match client.send(&req) {
                Ok(id) => {
                    log.first_send.get_or_insert(sent);
                    let (file, page, pages, is_read) = match op {
                        Op::Read { file, page, pages } => (file, page, pages, true),
                        Op::Write {
                            file,
                            page,
                            content,
                        } => (file, page, content.len(), false),
                    };
                    inflight.push(Slot {
                        id,
                        sent,
                        file,
                        page,
                        pages,
                        is_read,
                    });
                }
                Err(e) => {
                    // A refusal (BUSY) or a dead transport: either way this
                    // request failed; a dead transport fails the rest too.
                    log.fail(1, || format!("send: {e:?}"));
                    if e.code != SvcError::BUSY {
                        log.fail(inflight.len() as u64, String::new);
                        break 'outer;
                    }
                }
            }
            recycle(req, &mut buf);
            while burst_ends
                .next_if(|&end| end <= log.attempted as usize)
                .is_some()
            {
                pausing = true;
            }
        }
        if inflight.is_empty() {
            if pausing {
                pausing = false;
                std::thread::sleep(BURST_GAP);
                continue;
            }
            break;
        }
        let (id, reply) = match client.recv() {
            Ok(pair) => pair,
            Err(e) => {
                log.fail(inflight.len() as u64, || format!("recv: {e:?}"));
                break;
            }
        };
        let now = Instant::now();
        let Some(pos) = inflight.iter().position(|s| s.id == id) else {
            log.fail(1, || format!("reply to unknown request id {id}"));
            continue;
        };
        let slot = inflight.swap_remove(pos);
        log.last_ack = Some(now);
        log.lat_ns
            .push(now.duration_since(slot.sent).as_nanos() as u64);
        let first = log.first_send.expect("a reply follows a send");
        log.ack_ns.push(now.duration_since(first).as_nanos() as u64);
        let want = slot.pages * PAGE;
        match reply {
            Ok(Body::Written(n)) if !slot.is_read && n as usize == want => log.bytes += n as u64,
            Ok(Body::Bytes(data)) if slot.is_read => {
                match model.mismatches(slot.file, slot.page, slot.pages, &data) {
                    0 => log.bytes += data.len() as u64,
                    bad => log.fail(1, || {
                        format!(
                            "read of file {} page {}: {bad} of {} pages have the wrong content",
                            slot.file, slot.page, slot.pages
                        )
                    }),
                }
            }
            other => log.fail(1, || format!("unexpected reply: {other:?}")),
        }
    }
    log
}

/// Read every file of `fs` back in-process and count pages that differ from
/// the model: the full-content check after recovery.
pub fn verify_image(fs: &Denova, model: &Model) -> (u64, u64) {
    let (mut pages, mut bad) = (0u64, 0u64);
    for (i, f) in model.files.iter().enumerate() {
        let Ok(ino) = fs.open(&f.name) else {
            bad += f.pages.len() as u64;
            pages += f.pages.len() as u64;
            continue;
        };
        let chunk = 256;
        let mut page = 0;
        while page < f.pages.len() {
            let n = chunk.min(f.pages.len() - page);
            let data = fs
                .read(ino, (page * PAGE) as u64, n * PAGE)
                .unwrap_or_default();
            bad += model.mismatches(i, page, n, &data) as u64;
            pages += n as u64;
            page += n;
        }
        // Nothing may exist past the modelled size.
        if fs.file_size(ino).ok() != Some((f.pages.len() * PAGE) as u64) {
            bad += 1;
        }
    }
    (pages, bad)
}

/// NOVA's own consistency check on a quiescent (drained) stack; the
/// problem found, as text.
pub fn fsck_problem(fs: &Denova) -> Option<String> {
    match denova_nova::fsck(fs.nova(), true) {
        Ok(r) => r
            .errors
            .first()
            .map(|e| format!("fsck: {} errors, first {e:?}", r.errors.len())),
        Err(e) => Some(format!("fsck failed: {e:?}")),
    }
}

/// FACT bookkeeping that disagrees with the file system on a quiescent
/// stack: `fsck_fact` errors plus entries `scrub` had to repair (scrub is
/// run to its fixpoint, so a second call must find nothing). The first
/// finding is returned as text.
pub fn fact_drift(fs: &Denova) -> (u64, Option<String>) {
    let (mut drift, mut first) = match denova::fsck::fsck_fact(fs.nova(), fs.fact()) {
        Ok(r) => (
            r.errors.len() as u64,
            r.errors.first().map(|e| format!("fsck_fact: {e:?}")),
        ),
        Err(e) => return (1, Some(format!("fsck_fact failed: {e:?}"))),
    };
    for pass in 0..4 {
        match denova::recovery::scrub(fs.nova(), fs.fact()) {
            Ok(0) => break,
            Ok(n) => {
                drift += n;
                first.get_or_insert(format!("scrub pass {pass} repaired {n} FACT entries"));
            }
            Err(e) => return (drift + 1, Some(format!("scrub failed: {e:?}"))),
        }
    }
    (drift, first)
}

/// Everything one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub warnings: Vec<String>,
    /// Counts and sizes for the human report (`n` per timing, ...).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn absorb(&mut self, what: &str, log: &OpLog) {
        self.attempted += log.attempted;
        self.failed += log.failed;
        if let Some(e) = &log.first_error {
            self.problems.push(format!("{what}: {e}"));
        }
        if log.cut_short {
            self.warnings.push(format!(
                "{what} hit its wall-clock guard after {} ops",
                log.attempted
            ));
        }
    }
}

/// A stack set up for measurement, with one connection per client thread.
pub struct Ready {
    pub stack: Stack,
    pub model: Model,
    pub clients: Vec<Client>,
}

/// Set up `setups` times; return the last instance and the median time.
/// Tear-down of the discarded instances is not part of the timing.
pub fn set_up(spec: &Spec, seed: u64, setups: usize) -> (Ready, f64, Vec<f64>) {
    let mut times = Vec::with_capacity(setups);
    let mut ready: Option<Ready> = None;
    for _ in 0..setups {
        if let Some(old) = ready.take() {
            drop(old.clients);
            old.stack.stop();
        }
        let t0 = Instant::now();
        let (fs, model) = build_fs(spec, seed, DedupMode::Immediate);
        let stack = Stack::start(fs);
        let clients = (0..spec.conns())
            .map(|_| {
                let mut c = stack.connect();
                c.ping().expect("ping the freshly started server");
                c
            })
            .collect();
        times.push(t0.elapsed().as_secs_f64());
        ready = Some(Ready {
            stack,
            model,
            clients,
        });
    }
    let m = median(&times);
    (ready.expect("at least one set-up"), m, times)
}

/// What the main phase produced, whichever way the workload arranges it.
pub struct MainPhase {
    pub writes: OpLog,
    /// `mixed_rw` reads beside its writes; the others read after the drain.
    pub reads: Option<OpLog>,
}

fn guard_for(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * OVERRUN).max(5.0))
}

/// Run `f` on a thread named for the `client` thread class.
fn on_client_thread<'s, T: Send + 's>(
    scope: &'s std::thread::Scope<'s, '_>,
    tag: &str,
    f: impl FnOnce() -> T + Send + 's,
) -> std::thread::ScopedJoinHandle<'s, T> {
    std::thread::Builder::new()
        .name(format!("e2e-client-{tag}"))
        .spawn_scoped(scope, f)
        .expect("spawn client thread")
}

/// A finished client loop meets the caller twice before its thread exits:
/// once to say it is done, once when the caller has looked at the
/// still-living threads.
fn park(meet: &Barrier, log: OpLog) -> OpLog {
    meet.wait();
    meet.wait();
    log
}

/// The workload's main phase over the given connections. `before_exit` runs
/// on the calling thread after every loop has finished but while the client
/// threads are still alive, so `/proc` still lists them.
pub fn main_phase(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    model: &mut Model,
    wires: Vec<&mut dyn Wire>,
    before_exit: impl FnOnce(),
) -> MainPhase {
    let guard = guard_for(seconds);
    let mut clients = wires.into_iter();
    let a = clients.next().expect("connection A");
    if spec.shape == Shape::MixedRw {
        let b = clients.next().expect("connection B");
        let reads = spec.read_ops(seconds);
        let a_done = AtomicBool::new(false);
        let mut read_model = model.clone();
        let meet = Barrier::new(3);
        std::thread::scope(|s| {
            let (a_done, meet) = (&a_done, &meet);
            let reader = on_client_thread(s, "A", move || {
                let log = closed_loop(
                    a,
                    spec.read_iodepth,
                    &mut spec.reads(spec.files),
                    Until::Count(reads),
                    guard,
                    seed,
                    &mut read_model,
                );
                a_done.store(true, Ordering::Release);
                park(meet, log)
            });
            let writer = on_client_thread(s, "B", move || {
                park(
                    meet,
                    closed_loop(
                        b,
                        spec.write_iodepth,
                        &mut spec.writes(seed),
                        Until::Raised(a_done),
                        guard,
                        seed,
                        model,
                    ),
                )
            });
            meet.wait();
            before_exit();
            meet.wait();
            MainPhase {
                reads: Some(reader.join().expect("reader thread")),
                writes: writer.join().expect("writer thread"),
            }
        })
    } else {
        let writes = spec.write_ops(seconds);
        let meet = Barrier::new(2);
        std::thread::scope(|s| {
            let meet = &meet;
            let writer = on_client_thread(s, "A", move || {
                let log = closed_loop(
                    a,
                    spec.write_iodepth,
                    &mut spec.writes(seed),
                    Until::Count(writes),
                    guard,
                    seed,
                    model,
                );
                park(meet, log)
            });
            meet.wait();
            before_exit();
            meet.wait();
            MainPhase {
                writes: writer.join().expect("writer thread"),
                reads: None,
            }
        })
    }
}

/// The separate verified read phase of the non-mixed workloads, over the
/// files the write phase filled.
pub fn read_phase(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    wire: &mut dyn Wire,
    model: &mut Model,
) -> OpLog {
    let filled = model.files[..spec.files]
        .iter()
        .filter(|f| !f.pages.is_empty())
        .count();
    std::thread::scope(|s| {
        on_client_thread(s, "A", move || {
            closed_loop(
                wire,
                spec.read_iodepth,
                &mut spec.reads(filled),
                Until::Count(spec.read_ops(seconds)),
                guard_for(seconds),
                seed,
                model,
            )
        })
        .join()
        .expect("read thread")
    })
}

/// Crash image under `quiesce`, recovery mount (timed), full content check
/// and audit of the recovered image. Returns the mount time in seconds.
pub fn recover_and_verify(fs: &Denova, spec: &Spec, model: &Model, out: &mut Outcome) -> f64 {
    let image = fs.quiesce(|| fs.nova().device().crash_clone(CrashMode::Strict));
    let t0 = Instant::now();
    let recovered = mount_crash_image(image, spec, DedupMode::Immediate);
    let recovery_s = t0.elapsed().as_secs_f64();
    recovered.drain();
    let (pages, bad) = verify_image(&recovered, model);
    out.attempted += 1;
    if bad != 0 {
        out.failed += 1;
        out.problems.push(format!(
            "after recovery {bad} of {pages} pages do not hold the last acknowledged content"
        ));
    }
    if let Some(p) = fsck_problem(&recovered) {
        out.failed += 1;
        out.problems.push(format!("recovered image: {p}"));
    }
    if let (drift @ 1.., Some(first)) = fact_drift(&recovered) {
        out.warnings.push(format!(
            "recovered image: FACT drift {drift}, first {first}"
        ));
    }
    recovered.unmount();
    recovery_s
}

/// The audit of the live (drained) image. A NOVA inconsistency fails the
/// run, as does any wrong byte anywhere. FACT bookkeeping drift does not:
/// the program documents counter drift as tolerated until the scrubber
/// runs, and at the commit this benchmark was defined on `stream1m` leaves
/// a few `UcResidue` entries on most runs. It is reported — as
/// `fact.live_audit_errors` in the traced run — rather than allowed to
/// hide every other number.
pub fn live_audit(fs: &Denova, out: &mut Outcome) -> u64 {
    out.attempted += 1;
    if let Some(p) = fsck_problem(fs) {
        out.failed += 1;
        out.problems.push(format!("live image: {p}"));
    }
    let (drift, first) = fact_drift(fs);
    if let Some(first) = first {
        out.warnings
            .push(format!("live image: FACT drift {drift}, first {first}"));
    }
    drift
}

/// The untraced end-to-end run of one workload.
pub fn run_e2e(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (mut ready, setup_s, setups) = set_up(spec, seed, SETUPS);
    out.metrics.insert("setup_s", setup_s);
    out.notes
        .push(format!("setup_s: median of {setups:.3?} s (n={SETUPS})"));

    let fs = ready.stack.fs.clone();
    out.notes.push(spin_calibration_note(&fs));
    let registry = fs.nova().device().metrics().clone();
    let before = registry.snapshot();
    let wires = ready
        .clients
        .iter_mut()
        .map(|c| c as &mut dyn Wire)
        .collect();
    let phase = main_phase(spec, seed, seconds, &mut ready.model, wires, || {});
    out.absorb("write phase", &phase.writes);
    let t_drain = Instant::now();
    fs.drain();
    let drained = Instant::now();
    let after = registry.snapshot();

    let w = &phase.writes;
    let ws = w.steady();
    out.metrics.insert("write_mib_s", ws.mib_s);
    out.metrics.insert("write_p50_us", ws.p50_us);
    // First write -> DWQ empty and daemon idle: the bursts' time plus the
    // daemon's tail after the last ack.
    let drain_tail = drained.duration_since(w.last_ack.unwrap_or(t_drain));
    out.metrics.insert(
        "dedup_mib_s",
        w.bytes as f64 / MIB as f64 / (ws.busy_s + drain_tail.as_secs_f64()),
    );
    // Read by name: if the program ever stops registering the counter the
    // metric degrades to unavailable; it does not read as 0.
    match (
        before.counter("pmem.flushes"),
        after.counter("pmem.flushes"),
    ) {
        (Some(f0), Some(f1)) => {
            let amp = 64.0 * (f1 - f0) as f64 / (w.bytes as f64).max(1.0);
            out.metrics.insert("pm_write_amp", amp);
        }
        _ => out
            .warnings
            .push("counter pmem.flushes is not registered".into()),
    }
    out.notes.push(format!(
        "writes: n={} in {:.3} s busy ({:.3} s with gaps), p99 {:.1} us, drain tail {:.3} s",
        w.lat_ns.len(),
        ws.busy_s,
        w.wall().as_secs_f64(),
        ws.p99_us,
        drain_tail.as_secs_f64()
    ));

    let reads = match phase.reads {
        Some(r) => r,
        None => read_phase(spec, seed, seconds, &mut ready.clients[0], &mut ready.model),
    };
    out.absorb("read phase", &reads);
    let rs = reads.steady();
    out.metrics.insert("read_mib_s", rs.mib_s);
    out.metrics.insert("read_p50_us", rs.p50_us);
    out.notes.push(format!(
        "reads: n={} in {:.3} s busy ({:.3} s with gaps), p99 {:.1} us",
        reads.lat_ns.len(),
        rs.busy_s,
        reads.wall().as_secs_f64(),
        rs.p99_us
    ));

    let layout = *fs.nova().layout();
    let used_blocks = layout.data_blocks() - fs.nova().free_blocks();
    let logical = ready.model.logical_bytes();
    out.metrics.insert(
        "stored_per_user_byte",
        (used_blocks * PAGE as u64) as f64 / logical as f64,
    );
    out.notes.push(format!(
        "space: {used_blocks} blocks in use for {} MiB live, FACT entries {}",
        logical / MIB as u64,
        fs.fact().occupied_count()
    ));

    let recovery_s = recover_and_verify(&fs, spec, &ready.model, &mut out);
    out.metrics.insert("recovery_s", recovery_s);
    live_audit(&fs, &mut out);

    drop(fs);
    drop(ready.clients);
    ready.stack.stop();
    out
}
