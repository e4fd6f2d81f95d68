//! DD — the Deduplication Daemon (paper Section IV-B2), generalized to a
//! worker pool.
//!
//! Background threads that (i) dequeue DWQ nodes and run the deduplication
//! transaction on each, and (ii) reorder flagged FACT chains. Two tunables
//! `(n, m)` control scheduling: the daemon triggers every `n` milliseconds
//! and consumes at most `m` nodes per trigger (per worker). `n = 0` is
//! **DeNova-Immediate**: workers poll the DWQ aggressively and deduplicate
//! as soon as anything is enqueued. Nonzero `(n, m)` is
//! **DeNova-Delayed(n, m)** — the configuration swept in Fig. 10.
//!
//! **Worker pool.** The paper's daemon is one thread; FACT, however, was
//! built for concurrency (256 chain-lock stripes, atomic RFC/UC words), and
//! under multi-client load a serial daemon lets the DWQ linger. `workers > 1`
//! spawns that many threads; worker `i` owns the DWQ shards `s` with
//! `s % workers == i` (normally exactly shard `i`, since the queue is sharded
//! per worker). Because nodes are routed to shards by `ino % shards`, every
//! inode's entries are processed by one worker in FIFO order — the dedupe
//! flag state machine sees the same per-inode sequence as with one thread.
//! Reorder and periodic-scrub duties stay on worker 0, and the scrub
//! additionally takes a pool-wide quiesce lock so it never overlaps a dedup
//! transaction on another worker.

use crate::dedup::dedup_entry;
use crate::dwq::Dwq;
use crate::fact::Fact;
use crate::reorder::reorder_chain;
use denova_nova::Nova;
use parking_lot::{Condvar, Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Daemon scheduling policy (the paper's `(n, m)` knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonMode {
    /// Aggressive polling: process nodes the moment they are enqueued.
    Immediate,
    /// Trigger every `interval_ms` milliseconds, consuming at most `batch`
    /// nodes per worker each time.
    Delayed {
        /// Trigger interval `n` in milliseconds.
        interval_ms: u64,
        /// Max DWQ nodes `m` consumed per trigger (per worker).
        batch: usize,
    },
}

/// Daemon configuration: scheduling policy plus pool size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonConfig {
    /// Scheduling policy.
    pub mode: DaemonMode,
    /// Worker threads in the pool (clamped to ≥ 1 and to the DWQ shard
    /// count at spawn).
    pub workers: usize,
}

impl DaemonConfig {
    /// Immediate mode, single worker.
    pub fn immediate() -> DaemonConfig {
        DaemonConfig {
            mode: DaemonMode::Immediate,
            workers: 1,
        }
    }

    /// Delayed(n, m) mode, single worker.
    pub fn delayed(interval_ms: u64, batch: usize) -> DaemonConfig {
        DaemonConfig {
            mode: DaemonMode::Delayed { interval_ms, batch },
            workers: 1,
        }
    }

    /// Set the worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> DaemonConfig {
        self.workers = workers.max(1);
        self
    }
}

/// Shutdown signal shared by the pool: a flag plus a condvar so `Delayed`
/// workers sleeping out their trigger interval wake the moment `stop()` is
/// called instead of at the next slice boundary.
struct Shutdown {
    flag: AtomicBool,
    lock: Mutex<()>,
    cond: Condvar,
}

impl Shutdown {
    fn new() -> Shutdown {
        Shutdown {
            flag: AtomicBool::new(false),
            lock: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    fn is_set(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    fn set(&self) {
        self.flag.store(true, Ordering::Release);
        let _g = self.lock.lock();
        self.cond.notify_all();
    }

    /// Sleep up to `dur`, returning early (true) if shutdown was signalled.
    fn wait_for(&self, dur: Duration) -> bool {
        let mut g = self.lock.lock();
        if self.is_set() {
            return true;
        }
        self.cond.wait_for(&mut g, dur);
        self.is_set()
    }
}

/// Handle to a running deduplication worker pool.
pub struct Daemon {
    shutdown: Arc<Shutdown>,
    /// Periodic FACT-scrub interval in ms (0 = disabled). The paper's
    /// "background thread to monitor the use of FACT entries" (Section
    /// V-C2), folded into worker 0 as a second duty.
    scrub_interval_ms: Arc<AtomicU64>,
    /// Nodes whose transaction has fully completed, pool-wide. `idle`
    /// compares this against the enqueue counter, so a node is never "lost"
    /// between pop and processing.
    processed: Arc<AtomicU64>,
    threads: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
    dwq: Arc<Dwq>,
    /// Pool-wide dedup-vs-exclusive-work lock: workers hold it shared
    /// around each batch; the scrub and [`crate::Denova::quiesce`] hold it
    /// exclusively.
    pub(crate) quiesce: Arc<RwLock<()>>,
}

impl Daemon {
    /// Start the worker pool.
    pub fn spawn(nova: Arc<Nova>, fact: Arc<Fact>, dwq: Arc<Dwq>, config: DaemonConfig) -> Daemon {
        let workers = config.workers.max(1).min(dwq.num_shards());
        let shutdown = Arc::new(Shutdown::new());
        let processed = Arc::new(AtomicU64::new(0));
        let scrub_interval_ms = Arc::new(AtomicU64::new(0));
        // Scrub-vs-dedup exclusion: workers hold it shared around each
        // batch; worker 0's scrub holds it exclusively.
        let quiesce = Arc::new(RwLock::new(()));
        let threads = (0..workers)
            .map(|id| {
                let ctx = WorkerCtx {
                    id,
                    workers,
                    mode: config.mode,
                    nova: nova.clone(),
                    fact: fact.clone(),
                    dwq: dwq.clone(),
                    shutdown: shutdown.clone(),
                    processed: processed.clone(),
                    scrub_interval_ms: scrub_interval_ms.clone(),
                    quiesce: quiesce.clone(),
                };
                std::thread::Builder::new()
                    .name(format!("denova-dd/{id}"))
                    .spawn(move || worker_loop(ctx))
                    .expect("spawn dedup worker")
            })
            .collect();
        Daemon {
            shutdown,
            scrub_interval_ms,
            processed,
            threads,
            workers,
            dwq,
            quiesce,
        }
    }

    /// Worker threads actually running (after clamping to the shard count).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enable (interval > 0) or disable (0) the periodic FACT scrub run by
    /// worker 0 whenever the pool is idle and the interval has elapsed.
    pub fn set_scrub_interval(&self, interval: Duration) {
        self.scrub_interval_ms
            .store(interval.as_millis() as u64, Ordering::Relaxed);
    }

    /// True when every enqueued node has been fully processed.
    pub fn idle(&self) -> bool {
        self.dwq.is_empty() && self.processed.load(Ordering::Acquire) == self.dwq.total_enqueued()
    }

    /// Block until the pool has fully drained the DWQ. Test/benchmark
    /// helper for "we gave plenty of time for the DD to finish the entire
    /// deduplication process" (Section V-B4).
    pub fn drain(&self) {
        while !self.idle() {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Stop the pool. Queued nodes stay in the DWQ (they are persisted at
    /// clean shutdown or rediscovered by recovery).
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.shutdown.set();
        self.dwq.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Everything one worker thread needs.
struct WorkerCtx {
    id: usize,
    workers: usize,
    mode: DaemonMode,
    nova: Arc<Nova>,
    fact: Arc<Fact>,
    dwq: Arc<Dwq>,
    shutdown: Arc<Shutdown>,
    processed: Arc<AtomicU64>,
    scrub_interval_ms: Arc<AtomicU64>,
    quiesce: Arc<RwLock<()>>,
}

fn worker_loop(ctx: WorkerCtx) {
    let metrics = ctx.nova.device().metrics().clone();
    let dedup_errors = metrics.counter("denova.dedup.errors");
    // Shards owned by this worker: `s % workers == id`. With the queue
    // sharded one-per-worker (the normal assembly) this is exactly shard
    // `id`; the modulo rule keeps every shard owned when a caller wires a
    // pool smaller than the shard count.
    let owned: Vec<usize> = (0..ctx.dwq.num_shards())
        .filter(|s| s % ctx.workers == ctx.id)
        .collect();
    let mut last_scrub = std::time::Instant::now();
    while !ctx.shutdown.is_set() {
        // (shard, batch) pairs gathered this trigger.
        let mut batches: Vec<(usize, Vec<crate::dwq::DwqNode>)> = Vec::new();
        match ctx.mode {
            DaemonMode::Immediate => {
                for &s in &owned {
                    let b = ctx.dwq.pop_shard(s, usize::MAX);
                    if !b.is_empty() {
                        batches.push((s, b));
                    }
                }
                if batches.is_empty() {
                    // Wake instantly on enqueue to the primary shard; the
                    // timeout bounds both shutdown latency and pickup of
                    // secondary shards.
                    let b = ctx
                        .dwq
                        .wait_pop_shard(ctx.id, usize::MAX, Duration::from_millis(50));
                    if !b.is_empty() {
                        batches.push((ctx.id, b));
                    }
                }
            }
            DaemonMode::Delayed { interval_ms, batch } => {
                if ctx.shutdown.wait_for(Duration::from_millis(interval_ms)) {
                    break;
                }
                let mut budget = batch;
                for &s in &owned {
                    if budget == 0 {
                        break;
                    }
                    let b = ctx.dwq.pop_shard(s, budget);
                    budget -= b.len();
                    if !b.is_empty() {
                        batches.push((s, b));
                    }
                }
            }
        }
        if !batches.is_empty() {
            let _shared = ctx.quiesce.read();
            let span = metrics.span("denova.daemon.pass");
            let mut nodes = 0u64;
            for (shard, batch) in batches {
                let mut done = 0u64;
                for node in batch {
                    // Dedup failures on one entry (e.g. FACT exhaustion) must
                    // not kill the worker; the entry keeps its flag and
                    // recovery or a later pass can retry. They are stage 2's
                    // (stage 1 swallows whatever it read unlocked), so each
                    // one is real: count it and say which entry.
                    if let Err(e) = dedup_entry(&ctx.nova, &ctx.fact, &node) {
                        dedup_errors.inc();
                        metrics.event(
                            "dedup.error",
                            &[
                                ("ino", node.ino),
                                ("entry_off", node.entry_off),
                                ("code", e.code() as u64),
                            ],
                        );
                    }
                    ctx.processed.fetch_add(1, Ordering::AcqRel);
                    done += 1;
                }
                ctx.dwq.mark_processed(shard, done);
                nodes += done;
            }
            drop(span);
            metrics.event("daemon.pass", &[("nodes", nodes)]);
        }
        if ctx.id == 0 {
            // Secondary duty: reorder chains flagged by recent lookups.
            for prefix in ctx.fact.take_reorder_candidates() {
                let _ = reorder_chain(&ctx.fact, prefix);
            }
            // Tertiary duty: the periodic FACT scrub (Section V-C2's
            // background monitor). Only when the queue is drained, and under
            // the exclusive quiesce lock — the scrub compares two scans and
            // must not race a dedup transaction on any worker.
            let interval = ctx.scrub_interval_ms.load(Ordering::Relaxed);
            if interval > 0
                && ctx.dwq.is_empty()
                && last_scrub.elapsed() >= Duration::from_millis(interval)
            {
                let _excl = ctx.quiesce.write();
                let _ = crate::recovery::scrub(&ctx.nova, &ctx.fact);
                last_scrub = std::time::Instant::now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reclaim::DenovaHooks;
    use crate::stats::DedupStats;
    use denova_nova::NovaOptions;
    use denova_telemetry::MetricsRegistry;
    use std::time::Instant;

    fn setup(config: DaemonConfig) -> (Arc<Nova>, Arc<Fact>, Arc<Dwq>, Daemon) {
        setup_sharded(config, 1)
    }

    fn setup_sharded(
        config: DaemonConfig,
        shards: usize,
    ) -> (Arc<Nova>, Arc<Fact>, Arc<Dwq>, Daemon) {
        let dev = Arc::new(denova_pmem::PmemDevice::new(32 * 1024 * 1024));
        let nova = Arc::new(
            Nova::mkfs(
                dev.clone(),
                NovaOptions {
                    num_inodes: 128,
                    dedup_enabled: true,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let stats = Arc::new(DedupStats::default());
        let fact = Arc::new(Fact::new(dev.clone(), *nova.layout(), stats.clone()));
        let dwq = Arc::new(Dwq::with_shards(stats, dev.metrics().clone(), shards));
        nova.set_hooks(Arc::new(DenovaHooks::new(fact.clone(), dwq.clone(), true)));
        let daemon = Daemon::spawn(nova.clone(), fact.clone(), dwq.clone(), config);
        (nova, fact, dwq, daemon)
    }

    #[test]
    fn immediate_daemon_dedups_in_background() {
        let (nova, fact, _dwq, daemon) = setup(DaemonConfig::immediate());
        let data = vec![0xC3u8; 4096];
        for name in ["a", "b", "c", "d"] {
            let ino = nova.create(name).unwrap();
            nova.write(ino, 0, &data).unwrap();
        }
        daemon.drain();
        let (idx, _) = fact
            .lookup(&denova_fingerprint::Fingerprint::of(&data))
            .unwrap();
        assert_eq!(fact.counters(idx), (4, 0));
        assert_eq!(fact.stats().duplicate_pages(), 3);
        daemon.stop();
    }

    #[test]
    fn worker_pool_dedups_across_shards() {
        let (nova, fact, dwq, daemon) = setup_sharded(DaemonConfig::immediate().with_workers(4), 4);
        assert_eq!(daemon.workers(), 4);
        let data = vec![0x7Eu8; 4096];
        for i in 0..16 {
            let ino = nova.create(&format!("f{i}")).unwrap();
            nova.write(ino, 0, &data).unwrap();
        }
        daemon.drain();
        assert!(dwq.is_empty());
        let (idx, _) = fact
            .lookup(&denova_fingerprint::Fingerprint::of(&data))
            .unwrap();
        assert_eq!(fact.counters(idx), (16, 0));
        assert_eq!(fact.stats().duplicate_pages(), 15);
        daemon.stop();
    }

    #[test]
    fn pool_clamps_workers_to_shard_count() {
        let (_nova, _fact, _dwq, daemon) =
            setup_sharded(DaemonConfig::immediate().with_workers(8), 2);
        assert_eq!(daemon.workers(), 2);
        daemon.stop();
    }

    #[test]
    fn pool_smaller_than_shards_still_drains_every_shard() {
        // 2 workers over 4 shards: the modulo ownership rule must leave no
        // shard orphaned.
        let (nova, fact, dwq, daemon) = setup_sharded(DaemonConfig::immediate().with_workers(2), 4);
        assert_eq!(daemon.workers(), 2);
        let data = vec![0x2Au8; 4096];
        for i in 0..8 {
            let ino = nova.create(&format!("f{i}")).unwrap();
            nova.write(ino, 0, &data).unwrap();
        }
        daemon.drain();
        assert!(dwq.is_empty());
        assert_eq!(fact.stats().duplicate_pages(), 7);
        daemon.stop();
    }

    #[test]
    fn delayed_daemon_batches_by_m() {
        let (nova, fact, dwq, daemon) = setup(DaemonConfig::delayed(20, 2));
        let t0 = Instant::now();
        for i in 0..6 {
            let ino = nova.create(&format!("f{i}")).unwrap();
            // i + 1: an all-zero page would become a hole and skip the DWQ.
            nova.write(ino, 0, &vec![i as u8 + 1; 4096]).unwrap();
        }
        assert_eq!(dwq.len() + fact.stats().dequeued() as usize, 6);
        // 6 nodes at 2 per 20 ms tick: needs ≥ 3 ticks.
        daemon.drain();
        let took = t0.elapsed();
        assert!(
            took >= Duration::from_millis(50),
            "drained too fast: {took:?}"
        );
        assert_eq!(fact.stats().dequeued(), 6);
        daemon.stop();
    }

    #[test]
    fn immediate_lingering_is_short_delayed_is_long() {
        // The Fig. 10 effect in miniature: Delayed(n, m) nodes linger ~n ms,
        // Immediate nodes microseconds.
        let (nova_i, fact_i, _d, daemon_i) = setup(DaemonConfig::immediate());
        let ino = nova_i.create("x").unwrap();
        nova_i.write(ino, 0, &vec![1u8; 4096]).unwrap();
        daemon_i.drain();
        let linger_i = fact_i.stats().lingering_ns()[0];
        daemon_i.stop();

        let (nova_d, fact_d, _d2, daemon_d) = setup(DaemonConfig::delayed(50, 100));
        let ino = nova_d.create("x").unwrap();
        nova_d.write(ino, 0, &vec![1u8; 4096]).unwrap();
        daemon_d.drain();
        let linger_d = fact_d.stats().lingering_ns()[0];
        daemon_d.stop();

        assert!(
            linger_d > linger_i,
            "delayed ({linger_d} ns) should exceed immediate ({linger_i} ns)"
        );
    }

    #[test]
    fn stop_leaves_queue_intact() {
        let (nova, _fact, dwq, daemon) = setup(DaemonConfig::delayed(10_000, 1)); // never fires
        let ino = nova.create("f").unwrap();
        nova.write(ino, 0, &vec![1u8; 4096]).unwrap();
        daemon.stop();
        assert_eq!(dwq.len(), 1);
    }

    #[test]
    fn delayed_stop_is_bounded_by_wakeup_not_interval() {
        // The condvar shutdown: a worker sleeping out a 10 s trigger
        // interval must exit promptly when stopped.
        let (_nova, _fact, _dwq, daemon) = setup(DaemonConfig::delayed(10_000, 1));
        std::thread::sleep(Duration::from_millis(30)); // let it enter the wait
        let t0 = Instant::now();
        daemon.stop();
        assert!(
            t0.elapsed() < Duration::from_millis(1_000),
            "stop took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn shard_telemetry_reports_processed_nodes() {
        let (nova, _fact, _dwq, daemon) =
            setup_sharded(DaemonConfig::immediate().with_workers(2), 2);
        let metrics: MetricsRegistry = nova.device().metrics().clone();
        let data = vec![0x99u8; 4096];
        for i in 0..6 {
            let ino = nova.create(&format!("f{i}")).unwrap();
            nova.write(ino, 0, &data).unwrap();
        }
        daemon.drain();
        let p0 = metrics.counter("denova.daemon.shard.0.processed").get();
        let p1 = metrics.counter("denova.daemon.shard.1.processed").get();
        assert_eq!(p0 + p1, 6, "shard.0 {p0} + shard.1 {p1}");
        assert!(p0 > 0 && p1 > 0, "both shards saw work: {p0}/{p1}");
        daemon.stop();
    }

    #[test]
    fn periodic_scrub_reclaims_orphan_entries() {
        let (nova, fact, _dwq, daemon) = setup(DaemonConfig::immediate());
        daemon.set_scrub_interval(Duration::from_millis(10));
        let data = vec![0x44u8; 4096];
        let ino = nova.create("f").unwrap();
        nova.write(ino, 0, &data).unwrap();
        daemon.drain();
        // Forge an over-incremented RFC (the crash artifact the scrubber
        // exists for), then unlink: the entry survives reclaim wrongly.
        let fp = denova_fingerprint::Fingerprint::of(&data);
        let (idx, _) = fact.lookup(&fp).unwrap();
        fact.set_rfc(idx, 5);
        nova.unlink("f").unwrap();
        assert!(fact.lookup(&fp).is_some());
        // The daemon's periodic scrub cleans it up.
        let deadline = Instant::now() + Duration::from_secs(5);
        while fact.lookup(&fp).is_some() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(fact.lookup(&fp).is_none(), "scrub never ran");
        daemon.stop();
    }

    #[test]
    fn dedup_errors_are_counted_and_named() {
        let (nova, _fact, dwq, daemon) = setup(DaemonConfig::immediate());
        let metrics: MetricsRegistry = nova.device().metrics().clone();
        metrics.set_enabled(true);
        let ino = nova.create("f").unwrap();
        nova.write(ino, 0, &vec![0xABu8; 4096]).unwrap();
        daemon.drain();
        let errors = metrics.counter("denova.dedup.errors");
        assert_eq!(errors.get(), 0);
        // A node naming file data instead of a log entry: stage 1 has
        // nothing to say about it, stage 2 answers `Corrupt` under the lock.
        let block = nova
            .with_inode_read(ino, |mem| Ok(mem.radix.get(0).unwrap().block))
            .unwrap();
        let entry_off = nova.layout().block_off(block);
        dwq.push(ino, entry_off);
        daemon.drain();
        assert_eq!(errors.get(), 1);
        let event = metrics
            .events()
            .into_iter()
            .find(|e| e.kind == "dedup.error")
            .expect("dedup.error event");
        let code = denova_nova::NovaError::Corrupt("").code() as u64;
        assert_eq!(
            event.attrs,
            [("ino", ino), ("entry_off", entry_off), ("code", code)]
        );
        // The worker carries on.
        let other = nova.create("g").unwrap();
        nova.write(other, 0, &vec![0xCDu8; 4096]).unwrap();
        daemon.drain();
        assert_eq!(errors.get(), 1);
        daemon.stop();
    }

    #[test]
    fn daemon_survives_unlinked_files() {
        let (nova, fact, _dwq, daemon) = setup(DaemonConfig::delayed(30, 100));
        let ino = nova.create("gone").unwrap();
        nova.write(ino, 0, &vec![1u8; 4096]).unwrap();
        nova.unlink("gone").unwrap();
        daemon.drain();
        // Node consumed without panicking the daemon thread.
        assert_eq!(fact.stats().dequeued(), 1);
        let ino2 = nova.create("after").unwrap();
        nova.write(ino2, 0, &vec![2u8; 4096]).unwrap();
        daemon.drain();
        assert_eq!(fact.stats().dequeued(), 2);
        daemon.stop();
    }
}
