//! The sharded, tenant-fair worker pool.
//!
//! Requests are routed to a shard by key (`key % shards`): everything with
//! the same key executes in submission order on one dedicated worker thread,
//! so two writes to one file from one client can never reorder, while
//! requests for different files ride different shards in parallel. The inode
//! number is the partitioning function.
//!
//! The pool keeps only what has to wait. The server runs a short request to
//! completion on its event loop when [`ShardedPool::shard_idle`] says the
//! request's shard holds no job and executes none — the worker would have
//! popped it next, at once — and submits everything else here (the rule and
//! its four clauses are in the server's "Threading model"). That is KucoFS's
//! split: the caller runs the fast path, a dedicated thread serialises only
//! what queues. Every job here therefore either could not start at once or
//! is not short.
//!
//! Within a shard, jobs queue in per-tenant **lanes** and the worker pops
//! them weighted-fair: a round-robin cursor visits non-empty lanes in turn,
//! taking up to `weight` jobs per visit ([`crate::tenant::Tenant::weight`]).
//! A greedy tenant with ten thousand queued writes therefore adds at most
//! one quantum — not ten thousand jobs — of delay ahead of another tenant's
//! next request. FIFO order is preserved *per (key, tenant)*, which is the
//! ordering the protocol promises: one connection belongs to one tenant, so
//! one client's same-file operations still never reorder. A request run on
//! the event loop never jumps a lane: it runs only when every lane of its
//! shard is empty.
//!
//! Each shard exports its queue depth as gauge `svc.pool.shard<i>.depth`;
//! jobs executed and panics caught are counted under `svc.pool.*`.

use crate::tenant::Tenant;
use denova_telemetry::{Counter, Gauge, MetricsRegistry};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// One tenant's FIFO within a shard.
struct Lane {
    tenant: Arc<Tenant>,
    jobs: VecDeque<Job>,
}

/// A shard's scheduling state: per-tenant lanes plus the weighted
/// round-robin cursor. Lanes persist once created (tenant counts are small
/// and bounded by the registry); empty lanes are skipped in O(lanes).
struct ShardQueue {
    lanes: Vec<Lane>,
    by_tenant: HashMap<u32, usize>,
    cursor: usize,
    /// Jobs taken from the cursor's lane in the current visit.
    quantum_used: u32,
    len: usize,
    /// The worker is executing a job it popped from this shard: set under
    /// the lock by the pop, cleared under it before the next one.
    running: bool,
}

impl ShardQueue {
    fn push(&mut self, tenant: &Arc<Tenant>, job: Job) {
        let idx = *self.by_tenant.entry(tenant.id()).or_insert_with(|| {
            self.lanes.push(Lane {
                tenant: tenant.clone(),
                jobs: VecDeque::new(),
            });
            self.lanes.len() - 1
        });
        self.lanes[idx].jobs.push_back(job);
        self.len += 1;
    }

    /// Weighted-fair pop: continue the current lane up to its weight, then
    /// rotate to the next non-empty lane.
    fn pop(&mut self) -> Option<Job> {
        if self.len == 0 {
            return None;
        }
        loop {
            if self.cursor >= self.lanes.len() {
                self.cursor = 0;
                self.quantum_used = 0;
            }
            let lane = &mut self.lanes[self.cursor];
            if lane.jobs.is_empty() {
                self.advance();
                continue;
            }
            let job = lane.jobs.pop_front().expect("non-empty lane");
            self.len -= 1;
            self.quantum_used += 1;
            if self.quantum_used >= lane.tenant.weight() || lane.jobs.is_empty() {
                self.advance();
            }
            return Some(job);
        }
    }

    fn advance(&mut self) {
        self.cursor += 1;
        self.quantum_used = 0;
    }

    fn idle(&self) -> bool {
        self.len == 0 && !self.running
    }
}

struct Shard {
    queue: Mutex<ShardQueue>,
    available: Condvar,
    depth: Gauge,
}

struct PoolInner {
    shards: Vec<Shard>,
    default_tenant: Arc<Tenant>,
    stopping: AtomicBool,
    jobs: Counter,
    panics: Counter,
}

impl PoolInner {
    fn queued(&self) -> usize {
        self.shards.iter().map(|s| s.queue.lock().len).sum()
    }

    fn shard(&self, key: u64) -> &Shard {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }
}

/// A fixed set of worker threads, one per shard.
pub struct ShardedPool {
    inner: Arc<PoolInner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ShardedPool {
    /// Spawn `shards` workers (clamped to at least 1) recording into
    /// `metrics`. Untagged submissions run under a private default tenant.
    pub fn new(shards: usize, metrics: &MetricsRegistry) -> ShardedPool {
        let default = crate::tenant::TenantRegistry::new(metrics)
            .default_tenant()
            .clone();
        Self::with_default_tenant(shards, metrics, default)
    }

    /// Spawn the pool with an explicit default tenant for untagged
    /// submissions (the server passes its registry's default so accounting
    /// and scheduling agree on tenant identity).
    pub fn with_default_tenant(
        shards: usize,
        metrics: &MetricsRegistry,
        default_tenant: Arc<Tenant>,
    ) -> ShardedPool {
        let shards = shards.max(1);
        let inner = Arc::new(PoolInner {
            shards: (0..shards)
                .map(|i| Shard {
                    queue: Mutex::new(ShardQueue {
                        lanes: Vec::new(),
                        by_tenant: HashMap::new(),
                        cursor: 0,
                        quantum_used: 0,
                        len: 0,
                        running: false,
                    }),
                    available: Condvar::new(),
                    depth: metrics.gauge(&format!("svc.pool.shard{i}.depth")),
                })
                .collect(),
            default_tenant,
            stopping: AtomicBool::new(false),
            jobs: metrics.counter("svc.pool.jobs"),
            panics: metrics.counter("svc.pool.panics"),
        });
        let workers = (0..shards)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("svc-worker-{i}"))
                    .spawn(move || worker_loop(&inner, i))
                    .expect("spawn svc worker")
            })
            .collect();
        ShardedPool {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Queue `job` on the shard for `key` under the default tenant. Returns
    /// `false` (dropping the job) if the pool is stopping.
    pub fn submit(&self, key: u64, job: Job) -> bool {
        let tenant = self.inner.default_tenant.clone();
        self.submit_for(key, &tenant, job)
    }

    /// Queue `job` on the shard for `key` under `tenant`'s lane. Returns
    /// `false` (dropping the job) if the pool is stopping.
    pub fn submit_for(&self, key: u64, tenant: &Arc<Tenant>, job: Job) -> bool {
        if self.inner.stopping.load(Ordering::Acquire) {
            return false;
        }
        let shard = self.inner.shard(key);
        shard.queue.lock().push(tenant, job);
        shard.depth.add(1);
        shard.available.notify_one();
        true
    }

    /// Total queued (not yet started) jobs across all shards.
    pub fn queued(&self) -> usize {
        self.inner.queued()
    }

    /// True when the shard for `key` holds no queued job and executes none:
    /// a job submitted now would be popped at once, so running it on the
    /// caller's thread instead reorders nothing. Everything the last job did
    /// happens-before a `true` answer (both sides hold the shard's lock).
    pub fn shard_idle(&self, key: u64) -> bool {
        self.inner.shard(key).queue.lock().idle()
    }

    /// Block until every queued job has finished executing. New submissions
    /// during the wait extend it; pair with a stopped intake for a true
    /// barrier.
    pub fn drain(&self) {
        while !self.inner.shards.iter().all(|s| s.queue.lock().idle()) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Drain, then stop and join every worker. Subsequent submissions return
    /// `false`.
    pub fn stop(&self) {
        self.drain();
        self.inner.stopping.store(true, Ordering::Release);
        for shard in &self.inner.shards {
            shard.available.notify_all();
        }
        for w in self.workers.lock().drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ShardedPool {
    fn drop(&mut self) {
        // Don't drain on drop — the owner may be tearing down after an
        // error — but do unblock and join workers so no thread outlives the
        // queues it references.
        self.inner.stopping.store(true, Ordering::Release);
        for shard in &self.inner.shards {
            shard.available.notify_all();
        }
        for w in self.workers.lock().drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(inner: &PoolInner, shard_idx: usize) {
    let shard = &inner.shards[shard_idx];
    loop {
        let job = {
            let mut q = shard.queue.lock();
            // The previous job (if any) is done: only now may the shard
            // answer idle, so a request run on the caller's thread starts
            // after it, never beside it.
            q.running = false;
            loop {
                if let Some(job) = q.pop() {
                    q.running = true;
                    break job;
                }
                if inner.stopping.load(Ordering::Acquire) {
                    return;
                }
                shard.available.wait_for(&mut q, Duration::from_millis(50));
            }
        };
        shard.depth.add(-1);
        inner.jobs.inc();
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
            // The job's own error handling should have replied already; a
            // panic here means a bug in the service, but the worker (and the
            // server) must survive it.
            inner.panics.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantRegistry;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn same_key_jobs_execute_in_order() {
        let metrics = MetricsRegistry::new();
        let pool = ShardedPool::new(4, &metrics);
        let seq = Arc::new(Mutex::new(Vec::new()));
        for i in 0..100u64 {
            let seq = seq.clone();
            assert!(pool.submit(7, Box::new(move || seq.lock().push(i))));
        }
        pool.drain();
        assert_eq!(*seq.lock(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn different_keys_run_on_different_shards() {
        let metrics = MetricsRegistry::new();
        let pool = ShardedPool::new(4, &metrics);
        // A job on shard 0 blocks; a job on shard 1 must still complete.
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        pool.submit(
            0,
            Box::new(move || {
                let _ = release_rx.recv_timeout(Duration::from_secs(5));
            }),
        );
        let done = Arc::new(AtomicBool::new(false));
        let done2 = done.clone();
        pool.submit(1, Box::new(move || done2.store(true, Ordering::SeqCst)));
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !done.load(Ordering::SeqCst) {
            assert!(
                std::time::Instant::now() < deadline,
                "shard 1 starved behind shard 0"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        release_tx.send(()).unwrap();
        pool.stop();
    }

    #[test]
    fn a_shard_is_idle_only_with_nothing_queued_or_running() {
        let metrics = MetricsRegistry::new();
        let pool = ShardedPool::new(2, &metrics);
        assert!(pool.shard_idle(0) && pool.shard_idle(1));
        let (started_tx, started) = std::sync::mpsc::channel();
        let (release, parked) = std::sync::mpsc::channel::<()>();
        pool.submit(
            0,
            Box::new(move || {
                started_tx.send(()).unwrap();
                let _ = parked.recv();
            }),
        );
        started.recv().unwrap();
        // Running, nothing queued: busy. Key 2 maps to the same shard.
        assert!(!pool.shard_idle(0) && !pool.shard_idle(2));
        assert!(pool.shard_idle(1));
        pool.submit(2, Box::new(|| {}));
        assert_eq!(pool.queued(), 1);
        release.send(()).unwrap();
        pool.drain();
        assert!(pool.shard_idle(0) && pool.shard_idle(1));
        pool.stop();
    }

    #[test]
    fn panicking_job_does_not_kill_worker() {
        let metrics = MetricsRegistry::new();
        let pool = ShardedPool::new(1, &metrics);
        pool.submit(0, Box::new(|| panic!("boom")));
        let ran = Arc::new(AtomicBool::new(false));
        let ran2 = ran.clone();
        pool.submit(0, Box::new(move || ran2.store(true, Ordering::SeqCst)));
        pool.drain();
        assert!(ran.load(Ordering::SeqCst));
        assert_eq!(metrics.counter("svc.pool.panics").get(), 1);
        pool.stop();
    }

    #[test]
    fn stop_rejects_new_work_and_joins() {
        let metrics = MetricsRegistry::new();
        let pool = ShardedPool::new(2, &metrics);
        let count = Arc::new(AtomicU64::new(0));
        for i in 0..50 {
            let count = count.clone();
            pool.submit(
                i,
                Box::new(move || {
                    count.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        pool.stop();
        assert_eq!(count.load(Ordering::SeqCst), 50);
        assert!(!pool.submit(0, Box::new(|| {})));
        // Depth gauges settle at zero.
        for i in 0..2 {
            assert_eq!(metrics.gauge(&format!("svc.pool.shard{i}.depth")).get(), 0);
        }
    }

    /// Set up one blocked shard, queue jobs for two tenants while it is
    /// blocked, then release and record completion order.
    fn fairness_run(
        greedy_weight: u32,
        victim_weight: u32,
        greedy_jobs: usize,
        victim_jobs: usize,
    ) -> Vec<&'static str> {
        let metrics = MetricsRegistry::new();
        let reg = TenantRegistry::new(&metrics);
        let pool = ShardedPool::with_default_tenant(1, &metrics, reg.default_tenant().clone());
        let greedy = reg.get_with_weight("greedy", greedy_weight);
        let victim = reg.get_with_weight("victim", victim_weight);
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        pool.submit(
            0,
            Box::new(move || {
                let _ = release_rx.recv_timeout(Duration::from_secs(10));
            }),
        );
        let order = Arc::new(Mutex::new(Vec::new()));
        // The greedy tenant floods first; the victim queues behind it.
        for _ in 0..greedy_jobs {
            let order = order.clone();
            pool.submit_for(1, &greedy, Box::new(move || order.lock().push("g")));
        }
        for _ in 0..victim_jobs {
            let order = order.clone();
            pool.submit_for(2, &victim, Box::new(move || order.lock().push("v")));
        }
        release_tx.send(()).unwrap();
        pool.stop();
        let got = order.lock().clone();
        assert_eq!(got.len(), greedy_jobs + victim_jobs);
        got
    }

    #[test]
    fn fair_pop_interleaves_tenants_instead_of_fifo() {
        // 40 greedy jobs queued ahead of 4 victim jobs: strict FIFO would
        // run the victim last; the fair scheduler interleaves one victim
        // job per round, so all victim work lands in the first 8 slots.
        let order = fairness_run(1, 1, 40, 4);
        let last_victim = order.iter().rposition(|&s| s == "v").unwrap();
        assert!(
            last_victim < 8,
            "victim finished at position {last_victim}: {order:?}"
        );
    }

    #[test]
    fn weights_scale_the_share_per_round() {
        // Victim weight 3 vs greedy weight 1: each round pops 3 victim jobs
        // per greedy job until the victim lane drains.
        let order = fairness_run(1, 3, 40, 9);
        let last_victim = order.iter().rposition(|&s| s == "v").unwrap();
        // 9 victim jobs at 3 per round = 3 rounds, 1 greedy job between
        // each: the victim must be done by position 12.
        assert!(
            last_victim < 12,
            "weighted victim finished at position {last_victim}: {order:?}"
        );
    }

    #[test]
    fn per_tenant_fifo_is_preserved() {
        let metrics = MetricsRegistry::new();
        let reg = TenantRegistry::new(&metrics);
        let pool = ShardedPool::with_default_tenant(1, &metrics, reg.default_tenant().clone());
        let a = reg.get("a");
        let b = reg.get("b");
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..50u64 {
            let oa = order.clone();
            pool.submit_for(0, &a, Box::new(move || oa.lock().push(("a", i))));
            let ob = order.clone();
            pool.submit_for(0, &b, Box::new(move || ob.lock().push(("b", i))));
        }
        pool.stop();
        let got = order.lock().clone();
        for t in ["a", "b"] {
            let seq: Vec<u64> = got
                .iter()
                .filter(|(n, _)| *n == t)
                .map(|&(_, i)| i)
                .collect();
            assert_eq!(seq, (0..50).collect::<Vec<_>>(), "tenant {t} reordered");
        }
    }
}
