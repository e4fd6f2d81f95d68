//! The `Nova` file system object: mkfs, mount, namespace operations, and the
//! per-inode locking context used by both the foreground write path and the
//! DeNova deduplication daemon.

use crate::alloc::Allocator;
use crate::entry::{DentryEntry, WriteEntry};
use crate::error::{NovaError, Result};
use crate::hooks::{NoHooks, NovaHooks, ReclaimDecision};
use crate::index::RadixTree;
use crate::inode::InodeTable;
use crate::layout::{Layout, BLOCK_SIZE, ROOT_INO};
use crate::log::{self, LogPosition};
use crate::recovery::{DedupPending, LogWalk};
use crate::stats::NovaStats;
use crate::superblock;
use crate::tap::{FsOp, OpTap};
use denova_pmem::PmemDevice;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// mkfs/mount options.
#[derive(Debug, Clone)]
pub struct NovaOptions {
    /// Inode-table capacity (files + root).
    pub num_inodes: u64,
    /// Blocks reserved for the clean-shutdown DWQ save area.
    pub dwq_blocks: u64,
    /// Number of per-CPU free lists.
    pub cpus: usize,
    /// Whether new write entries are dedup candidates (`dedupe_flag =
    /// Needed`). Baseline NOVA mounts with this off.
    pub dedup_enabled: bool,
    /// Dedup worker threads (and DWQ shards) the dedup layer mounts with.
    /// NOVA itself ignores the value; it lives here so every mount path
    /// (CLI, service, benches) configures the pool through one options
    /// struct.
    pub dedup_workers: usize,
    /// Foreground write SLO: target `nova.write` p99 in nanoseconds. When
    /// nonzero the dedup layer runs a closed-loop controller that backs
    /// fingerprint cost off while the live p99 breaches this target. NOVA
    /// itself ignores the value (same rationale as `dedup_workers`). 0
    /// disables the loop.
    pub slo_write_p99_ns: u64,
    /// Minimum duplicate-run length, in pages, at which the dedup layer
    /// promotes per-page FACT records into a single extent-run record. 0
    /// disables promotion (per-block dedup baseline). NOVA itself ignores
    /// the value (same rationale as `dedup_workers`).
    pub extent_threshold_pages: u32,
}

impl Default for NovaOptions {
    fn default() -> Self {
        NovaOptions {
            num_inodes: 4096,
            dwq_blocks: 64,
            cpus: 4,
            dedup_enabled: false,
            dedup_workers: 1,
            slo_write_p99_ns: 0,
            extent_threshold_pages: 16,
        }
    }
}

/// Per-inode DRAM state: the radix tree index plus log bookkeeping. Rebuilt
/// from the persistent log on recovery.
///
/// ## Optimistic-reader contract
///
/// Three readers observe an `&InodeMem` *without* holding the inode read
/// lock, racing a writer that holds the write lock; all of them get it from
/// `InodeSlot::snapshot`, the one place such a reference is formed:
///
/// * `Nova::read` and `Nova::stat`/`file_size`, through
///   [`Nova::with_inode_read_optimistic`] — the race is bracketed by the
///   inode's seqlock, so torn results are discarded and the closure re-run;
/// * the dedup daemon's stage 1 (`denova::dedup`), through
///   [`Nova::with_inode_snapshot`] — it validates nothing itself; stage 2
///   re-checks every page's mapping under the write lock and drops what
///   moved. It touches `radix` and `is_dead()` only.
///
/// Closures running on a snapshot must therefore touch **only** the
/// torn-tolerant fields: `radix` (internally atomic), `size()`, `is_dead()`,
/// and the `*_hint()` accessors. The `entry_live`/`live_per_page` hash maps
/// and `pos` are plain data — reading them while a writer runs is a data
/// race, which is why the quantities the read path needs from them are
/// mirrored into atomic hints by [`InodeMem::refresh_hints`]. Torn *values*
/// (an `EntryRef` pairing two versions, a block number from a half-built
/// tree) must be harmless: bounds-check before touching the device, never
/// panic, and treat every byte read through them as garbage until a later
/// validation — the seqlock, or stage 2's mapping re-check — proves the
/// range was stable.
#[derive(Debug, Default)]
pub struct InodeMem {
    /// File page offset → backing (entry, block).
    pub radix: RadixTree,
    /// Log head/tail mirror. Lock-holders only (see the contract above).
    pub pos: LogPosition,
    /// The log's pages in chain order, head first, through the tail's page:
    /// kept by appends and GC, rebuilt by the mount's log walk. GC reads
    /// the chain from here instead of chasing footers on the device.
    /// Lock-holders only.
    pub log_chain: Vec<u64>,
    /// Current file size in bytes (atomic so the lock-free read path can
    /// load it). Use [`InodeMem::size`]/[`InodeMem::set_size`].
    size: AtomicU64,
    /// Live (non-superseded) pages remaining per write entry, keyed by entry
    /// device offset. An entry with zero live pages is dead.
    pub entry_live: HashMap<u64, u32>,
    /// Entries holding each log page block: its live write entries plus its
    /// `Attr` entries, which never die (see `InodeMem::hold_page`). A page
    /// absent here is dead, and GC may collect it.
    pub live_per_page: HashMap<u64, u64>,
    /// Tombstone: set (under the write lock) when the inode is released.
    /// Late lockers — e.g. a dedup daemon that cloned the inode's `Arc`
    /// moments before an unlink — must observe this and back off instead of
    /// touching freed pages.
    dead: AtomicBool,
    /// Atomic mirror of `entry_live.len()` for the lock-free `stat` path.
    live_entries_hint: AtomicU64,
    /// Atomic mirror of `pos.head` for the lock-free `stat` path.
    log_head_hint: AtomicU64,
}

impl InodeMem {
    /// Current file size in bytes.
    pub fn size(&self) -> u64 {
        self.size.load(Ordering::Acquire)
    }

    /// Set the cached file size (callers hold the inode write lock).
    pub fn set_size(&mut self, size: u64) {
        self.size.store(size, Ordering::Release);
    }

    /// Whether this inode has been released (tombstoned).
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Tombstone the inode (callers hold the inode write lock).
    pub fn mark_dead(&mut self) {
        self.dead.store(true, Ordering::Release);
    }

    /// Live write-entry count mirror (lock-free `stat`; may lag the maps by
    /// an in-flight write, which the seqlock retry resolves).
    pub fn live_entries_hint(&self) -> u64 {
        self.live_entries_hint.load(Ordering::Acquire)
    }

    /// Log-head mirror for the lock-free `stat` log-chain walk.
    pub fn log_head_hint(&self) -> u64 {
        self.log_head_hint.load(Ordering::Acquire)
    }

    /// Re-mirror the plain bookkeeping fields into their atomic hints.
    /// Called after every write-locked mutation section and after recovery
    /// rebuilds an inode.
    pub fn refresh_hints(&mut self) {
        self.live_entries_hint
            .store(self.entry_live.len() as u64, Ordering::Release);
        self.log_head_hint.store(self.pos.head, Ordering::Release);
    }
    /// Register a freshly-appended write entry and fold it into the radix
    /// tree. Returns the data blocks this entry superseded (to reclaim) —
    /// never including blocks the new entry itself references.
    pub fn apply_write_entry(&mut self, entry_off: u64, we: &WriteEntry) -> Vec<u64> {
        let mut superseded = Vec::new();
        self.entry_live.insert(entry_off, we.num_pages);
        self.hold_page(entry_off);
        for i in 0..we.num_pages as u64 {
            let pgoff = we.file_pgoff + i;
            // Hole entries map every covered page to the `HOLE_BLOCK`
            // sentinel (never `block + i` — the sentinel is u64::MAX).
            let block = if we.hole {
                crate::layout::HOLE_BLOCK
            } else {
                we.block + i
            };
            let old = self
                .radix
                .insert(pgoff, crate::index::EntryRef { entry_off, block });
            if let Some(old) = old {
                self.supersede(&old);
                if old.block != block && old.block != crate::layout::HOLE_BLOCK {
                    superseded.push(old.block);
                }
            }
        }
        self.set_size(self.size().max(we.size_after));
        superseded
    }

    /// Count one more entry holding the log page of `entry_off`. A live write
    /// entry's hold ends when [`InodeMem::supersede`] kills it; a truncate's
    /// `Attr` entry holds its page for good, since without it the mount would
    /// replay older write entries past the truncation point (or lose a grown
    /// size).
    pub(crate) fn hold_page(&mut self, entry_off: u64) {
        *self
            .live_per_page
            .entry(entry_off / BLOCK_SIZE)
            .or_insert(0) += 1;
    }

    /// Mark one page of `old`'s entry superseded, maintaining the per-entry
    /// and per-page live counts. Called from the write path, truncate, and
    /// the dedup layer's radix rebuild.
    pub fn supersede(&mut self, old: &crate::index::EntryRef) {
        if let Some(live) = self.entry_live.get_mut(&old.entry_off) {
            *live -= 1;
            if *live == 0 {
                self.entry_live.remove(&old.entry_off);
                let page = old.entry_off / BLOCK_SIZE;
                if let Some(n) = self.live_per_page.get_mut(&page) {
                    *n -= 1;
                    if *n == 0 {
                        self.live_per_page.remove(&page);
                    }
                }
            }
        }
    }
}

/// One inode's concurrency envelope: the seqlock + RwLock pair guarding
/// its DRAM state.
///
/// * Writers take `lock.write()` and bump `seq` odd → mutate → even (via
///   [`denova_sync::SeqCount::write_scope`]).
/// * Locked readers take `lock.read()` (seq is necessarily even and stable
///   while they hold it).
/// * Snapshot readers take **no lock** ([`InodeSlot::snapshot`]): they read
///   the torn-tolerant fields of `mem` (see [`InodeMem`]'s contract).
///   Optimistic readers bracket the snapshot with `seq` and keep the result
///   only if it validates — otherwise fall back to the lock; the dedup
///   daemon's stage 1 keeps nothing that stage 2 does not re-check.
///
/// The `InodeMem` lives in an `UnsafeCell` beside the lock (rather than
/// inside `RwLock<InodeMem>`) so a snapshot can form a shared reference
/// without touching the lock word at all.
pub(crate) struct InodeSlot {
    seq: denova_sync::SeqCount,
    lock: RwLock<()>,
    mem: std::cell::UnsafeCell<InodeMem>,
}

// SAFETY: access to `mem` follows the seqlock/RwLock discipline above:
// `&mut` only under the write lock, `&` under the read lock or (snapshot
// readers) restricted to atomic fields with results gated on a later
// validation.
unsafe impl Send for InodeSlot {}
unsafe impl Sync for InodeSlot {}

impl InodeSlot {
    fn new(mem: InodeMem) -> Arc<InodeSlot> {
        Arc::new(InodeSlot {
            seq: denova_sync::SeqCount::new(),
            lock: RwLock::new(()),
            mem: std::cell::UnsafeCell::new(mem),
        })
    }

    /// Run `f` on this inode's DRAM state with **no lock held** — the one
    /// place an unlocked `&InodeMem` is formed. The epoch is pinned for the
    /// whole closure (a concurrent `release_inode` replaces the radix tree;
    /// the pin keeps the retired subtree alive until `f` is done walking
    /// it), and a tombstoned inode answers `BadInode(ino)` instead of
    /// running `f`. Nothing is validated: `f` must honor [`InodeMem`]'s
    /// optimistic-reader contract, and the caller must discard or re-check
    /// whatever `f` derived from state a writer could have been changing.
    fn snapshot<R>(&self, ino: u64, f: impl FnOnce(&InodeMem) -> Result<R>) -> Result<R> {
        let _g = denova_sync::pin();
        // SAFETY: no `&mut` aliasing UB — the whole InodeMem sits in an
        // UnsafeCell, and `f` only reads atomic fields (the contract
        // above), so a racing writer constitutes no data race.
        let mem = unsafe { &*self.mem.get() };
        if mem.is_dead() {
            return Err(NovaError::BadInode(ino));
        }
        f(mem)
    }
}

/// Number of shards in the inode map. Inode numbers are allocated
/// sequentially, so modulo sharding spreads hot inodes evenly.
const MAP_SHARDS: usize = 32;

/// Sharded, epoch-protected inode map: lookups never take any lock — they
/// pin the epoch, load the shard's published `HashMap` snapshot, and clone
/// the target `Arc`. Mutations (create/unlink — rare next to lookups)
/// serialize on a per-shard mutex, clone-modify the shard's map, publish
/// the new snapshot, and retire the old one through the epoch collector.
struct ShardedInodeMap {
    shards: Vec<MapShard>,
}

struct MapShard {
    current: denova_sync::RcuCell<HashMap<u64, Arc<InodeSlot>>>,
    write: Mutex<()>,
}

impl ShardedInodeMap {
    fn new() -> ShardedInodeMap {
        ShardedInodeMap {
            shards: (0..MAP_SHARDS)
                .map(|_| MapShard {
                    current: denova_sync::RcuCell::new(HashMap::new()),
                    write: Mutex::new(()),
                })
                .collect(),
        }
    }

    fn shard(&self, ino: u64) -> &MapShard {
        &self.shards[(ino as usize) % MAP_SHARDS]
    }

    /// Lock-free lookup: one epoch pin, one atomic load, one `Arc` clone.
    fn get(&self, ino: u64) -> Option<Arc<InodeSlot>> {
        let guard = denova_sync::pin();
        self.shard(ino)
            .current
            .load(&guard)
            .and_then(|m| m.get(&ino).cloned())
    }

    fn insert(&self, ino: u64, slot: Arc<InodeSlot>) {
        let shard = self.shard(ino);
        let _w = shard.write.lock();
        let guard = denova_sync::pin();
        let mut next = shard.current.load(&guard).cloned().unwrap_or_default();
        drop(guard);
        next.insert(ino, slot);
        shard.current.publish(next);
    }

    fn remove(&self, ino: u64) {
        let shard = self.shard(ino);
        let _w = shard.write.lock();
        let guard = denova_sync::pin();
        let mut next = shard.current.load(&guard).cloned().unwrap_or_default();
        drop(guard);
        next.remove(&ino);
        shard.current.publish(next);
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Clone one shard's slots into `out` (cleared first). Scans use this
    /// to visit inodes shard-by-shard without materializing a global
    /// snapshot or holding any map-wide lock.
    fn collect_shard(&self, idx: usize, out: &mut Vec<(u64, Arc<InodeSlot>)>) {
        out.clear();
        let guard = denova_sync::pin();
        if let Some(m) = self.shards[idx].current.load(&guard) {
            out.extend(m.iter().map(|(ino, slot)| (*ino, slot.clone())));
        }
    }
}

/// The NOVA-like log-structured file system.
pub struct Nova {
    dev: Arc<PmemDevice>,
    layout: Layout,
    alloc: Allocator,
    /// Flat namespace: file name → inode number. The persistent source of
    /// truth is the root directory inode's dentry log.
    namespace: Mutex<HashMap<String, u64>>,
    /// Per-inode DRAM state. `Arc` so callers can hold an inode lock without
    /// holding any map-level lock; the map itself is sharded and
    /// epoch-protected so lookups are lock-free.
    inode_map: ShardedInodeMap,
    /// Next inode slot to probe when allocating.
    inode_cursor: Mutex<u64>,
    txid: AtomicU64,
    dedup_enabled: AtomicBool,
    hooks: RwLock<Arc<dyn NovaHooks>>,
    /// Post-commit observer for mutating operations (replication tap).
    op_tap: RwLock<Option<Arc<dyn OpTap>>>,
    stats: NovaStats,
    /// Pool of 4 KiB staging pages for partial head/tail CoW merges in the
    /// zero-copy write path: only unaligned edges are staged, so the pool
    /// stays tiny and full pages never touch a bounce buffer. A lock-free
    /// Treiber stack so concurrent unaligned writers never contend on it.
    scratch: denova_sync::Stack<Box<[u8; BLOCK_SIZE as usize]>>,
    /// Names of two-phase-commit prepare/staging records
    /// ([`PREPARE_PREFIX`]) found in the namespace by mount-time recovery.
    /// A crashed cross-shard transaction leaves these behind; the cluster
    /// layer resolves each against its peer before serving. Empty after
    /// `mkfs` and after a mount that found none.
    orphan_prepares: Vec<String>,
    /// Write entries mount-time recovery found flagged `Needed` /
    /// `InProcess`, until the dedup layer takes them
    /// ([`Nova::take_dedup_pending`]).
    dedup_pending: Mutex<DedupPending>,
    /// What the mount's log walk read (all zero after `mkfs`).
    mount_walk: LogWalk,
}

/// Name prefix reserved for cluster two-phase-commit records. The cluster
/// layer stores prepare decisions and staged content as ordinary files under
/// this prefix, which buys them NOVA's crash consistency for free; recovery
/// surfaces any that survive a crash via [`Nova::orphan_prepares`].
pub const PREPARE_PREFIX: &str = ".2pc.";

/// Upper bound on pooled scratch pages; beyond this, returned pages are
/// simply dropped (two concurrent unaligned writers need at most two each).
const SCRATCH_POOL_CAP: usize = 8;

impl Nova {
    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Format `dev` and return a mounted file system.
    pub fn mkfs(dev: Arc<PmemDevice>, opts: NovaOptions) -> Result<Nova> {
        let layout = Layout::compute(dev.size() as u64, opts.num_inodes, opts.dwq_blocks);
        // Zero all metadata regions: inode table, FACT, DWQ save area.
        let meta_bytes = (layout.data_start - layout.inode_table_start) * BLOCK_SIZE;
        dev.memset(
            layout.inode_table_start * BLOCK_SIZE,
            meta_bytes as usize,
            0,
        );
        dev.persist(layout.inode_table_start * BLOCK_SIZE, meta_bytes as usize);
        superblock::write_superblock(&dev, &layout);

        let fs = Nova {
            alloc: Allocator::new(opts.cpus, layout.data_start, layout.data_blocks()),
            namespace: Mutex::new(HashMap::new()),
            inode_map: ShardedInodeMap::new(),
            inode_cursor: Mutex::new(1),
            txid: AtomicU64::new(1),
            dedup_enabled: AtomicBool::new(opts.dedup_enabled),
            hooks: RwLock::new(Arc::new(NoHooks)),
            op_tap: RwLock::new(None),
            stats: NovaStats::new(dev.metrics()),
            scratch: denova_sync::Stack::new(),
            orphan_prepares: Vec::new(),
            dedup_pending: Mutex::new(DedupPending::default()),
            mount_walk: LogWalk::default(),
            layout,
            dev,
        };
        // Root directory inode.
        fs.table().init(ROOT_INO, true)?;
        fs.inode_map
            .insert(ROOT_INO, InodeSlot::new(InodeMem::default()));
        Ok(fs)
    }

    /// Mount an existing file system, running log-scan recovery (the paths
    /// NOVA uses after both clean and unclean shutdown; we always rebuild
    /// from the logs, which is strictly more conservative).
    pub fn mount(dev: Arc<PmemDevice>, opts: NovaOptions) -> Result<Nova> {
        let layout = superblock::read_superblock(&dev)?;
        let recovered = crate::recovery::recover(&dev, &layout, opts.cpus)?;
        superblock::set_clean_unmount(&dev, false);
        if !recovered.orphan_prepares.is_empty() {
            dev.metrics()
                .counter("nova.recovery.orphan_prepares")
                .add(recovered.orphan_prepares.len() as u64);
        }
        let inode_map = ShardedInodeMap::new();
        for (ino, mut mem) in recovered.inodes {
            mem.refresh_hints();
            inode_map.insert(ino, InodeSlot::new(mem));
        }
        Ok(Nova {
            alloc: recovered.alloc,
            namespace: Mutex::new(recovered.namespace),
            inode_map,
            inode_cursor: Mutex::new(1),
            txid: AtomicU64::new(recovered.next_txid),
            dedup_enabled: AtomicBool::new(opts.dedup_enabled),
            hooks: RwLock::new(Arc::new(NoHooks)),
            op_tap: RwLock::new(None),
            stats: NovaStats::new(dev.metrics()),
            scratch: denova_sync::Stack::new(),
            orphan_prepares: recovered.orphan_prepares,
            dedup_pending: Mutex::new(recovered.dedup_pending),
            mount_walk: recovered.walk,
            layout,
            dev,
        })
    }

    /// Two-phase-commit records ([`PREPARE_PREFIX`] names) that mount-time
    /// recovery found in the namespace — the debris of a cross-shard
    /// transaction interrupted by a crash. The cluster layer must resolve
    /// every one (commit forward or roll back against the peer) before the
    /// node serves requests; a standalone mount may ignore them.
    pub fn orphan_prepares(&self) -> &[String] {
        &self.orphan_prepares
    }

    /// The write entries mount-time recovery found still flagged for (or
    /// inside) a dedup transaction, moved out: the dedup layer's recovery
    /// rebuilds its queue from this list instead of walking every log again.
    /// Empty after `mkfs` and on every later call.
    pub fn take_dedup_pending(&self) -> DedupPending {
        std::mem::take(&mut *self.dedup_pending.lock())
    }

    /// Device work of this mount's walk over the inode table and the logs.
    pub fn mount_walk(&self) -> LogWalk {
        self.mount_walk
    }

    /// Take a 4 KiB scratch page from the pool (or allocate one). Lock-free.
    pub(crate) fn scratch_acquire(&self) -> Box<[u8; BLOCK_SIZE as usize]> {
        self.scratch
            .pop()
            .unwrap_or_else(|| Box::new([0u8; BLOCK_SIZE as usize]))
    }

    /// Return a scratch page to the pool (dropped if the pool is full; the
    /// length check is racy, so the cap is approximate — that only means a
    /// rare extra pooled page or an extra allocation, never contention).
    pub(crate) fn scratch_release(&self, page: Box<[u8; BLOCK_SIZE as usize]>) {
        if self.scratch.approx_len() < SCRATCH_POOL_CAP {
            self.scratch.push(page);
        }
    }

    /// Cleanly unmount: persist the clean flag. (The DeNova layer saves the
    /// DWQ to its reserved area *before* calling this.)
    pub fn unmount(&self) {
        superblock::set_clean_unmount(&self.dev, true);
    }

    /// Install the dedup layer's hooks.
    pub fn set_hooks(&self, hooks: Arc<dyn NovaHooks>) {
        *self.hooks.write() = hooks;
    }

    /// Install a post-commit operation tap (see [`crate::tap`]). Replaces
    /// any previous tap.
    pub fn set_op_tap(&self, tap: Arc<dyn OpTap>) {
        *self.op_tap.write() = Some(tap);
    }

    /// Remove the operation tap.
    pub fn clear_op_tap(&self) {
        *self.op_tap.write() = None;
    }

    /// True while an operation tap is installed: every mutating operation
    /// then also runs the tap's settle phase, which may wait (a sync-ack
    /// replication tap waits for the standby).
    pub fn has_op_tap(&self) -> bool {
        self.op_tap.read().is_some()
    }

    /// Emit a committed op to the installed tap, if any. `make` only runs
    /// when a tap is installed, so untapped mounts pay no payload clone.
    /// Must be called inside the operation's committing critical section;
    /// the returned [`PendingOp`] (if any) must be settled after the locks
    /// are released, before returning to the caller. Public so alternate
    /// write paths (e.g. the dedup layer's inline write) can report their
    /// commits too.
    pub fn emit_op(&self, make: impl FnOnce() -> FsOp) -> Option<crate::tap::PendingOp> {
        let tap = self.op_tap.read().clone();
        tap.map(|t| {
            let ticket = t.op_committed(make());
            crate::tap::PendingOp::new(t, ticket)
        })
    }

    /// Settle an op emitted by [`Nova::emit_op`] — call with every
    /// committing lock released.
    pub fn settle_op(pending: Option<crate::tap::PendingOp>) {
        if let Some(p) = pending {
            p.settle();
        }
    }

    /// Enable/disable tagging of new write entries as dedup candidates.
    pub fn set_dedup_enabled(&self, on: bool) {
        self.dedup_enabled.store(on, Ordering::Relaxed);
    }

    /// Whether new writes are tagged as dedup candidates.
    pub fn dedup_enabled(&self) -> bool {
        self.dedup_enabled.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The underlying device.
    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.dev
    }

    /// The on-media layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Operation counters.
    pub fn stats(&self) -> &NovaStats {
        &self.stats
    }

    /// Free data/log blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.alloc.free_blocks()
    }

    /// The block allocator (exposed for the dedup layer's recovery scrubber).
    pub fn allocator(&self) -> &Allocator {
        &self.alloc
    }

    pub(crate) fn table(&self) -> InodeTable<'_> {
        InodeTable::new(&self.dev, &self.layout)
    }

    pub(crate) fn next_txid(&self) -> u64 {
        self.txid.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn current_hooks(&self) -> Arc<dyn NovaHooks> {
        self.hooks.read().clone()
    }

    /// The dedupe flag new foreground write entries carry.
    pub(crate) fn new_entry_flag(&self) -> crate::entry::DedupeFlag {
        if self.dedup_enabled() {
            crate::entry::DedupeFlag::Needed
        } else {
            crate::entry::DedupeFlag::NotApplicable
        }
    }

    // ------------------------------------------------------------------
    // Inode access
    // ------------------------------------------------------------------

    fn inode_slot(&self, ino: u64) -> Result<Arc<InodeSlot>> {
        self.inode_map.get(ino).ok_or(NovaError::BadInode(ino))
    }

    /// Run `f` with the inode's DRAM state read-locked.
    pub fn with_inode_read<R>(
        &self,
        ino: u64,
        f: impl FnOnce(&InodeMem) -> Result<R>,
    ) -> Result<R> {
        let slot = self.inode_slot(ino)?;
        let _r = slot.lock.read();
        // SAFETY: holding the read lock excludes every `&mut` (writers take
        // the write lock).
        let mem = unsafe { &*slot.mem.get() };
        if mem.is_dead() {
            return Err(NovaError::BadInode(ino));
        }
        f(mem)
    }

    /// Optimistic attempts before falling back to the read lock: one retry
    /// absorbs the common "writer finished an instant ago" conflict.
    const OPTIMISTIC_ATTEMPTS: usize = 2;

    /// Run `f` against the inode's DRAM state **without taking any lock and
    /// without validating anything** (`InodeSlot::snapshot`: epoch pinned
    /// for the closure, `BadInode` on a tombstone). For a reader whose
    /// validation happens elsewhere — the dedup daemon's stage 1, whose
    /// every page stage 2 re-checks under the write lock. `f` must honor
    /// [`InodeMem`]'s optimistic-reader contract: touch only torn-tolerant
    /// fields, and neither panic nor index out of bounds on what they hold.
    pub fn with_inode_snapshot<R>(
        &self,
        ino: u64,
        f: impl FnOnce(&InodeMem) -> Result<R>,
    ) -> Result<R> {
        self.inode_slot(ino)?.snapshot(ino, f)
    }

    /// Run `f` on a snapshot (see [`Self::with_inode_snapshot`]) bracketed
    /// by the inode's seqlock; falls back to the read lock after
    /// [`Self::OPTIMISTIC_ATTEMPTS`] conflicts or while a writer is
    /// mid-mutation.
    ///
    /// `f` must tolerate torn *values* — anything it computes from a
    /// snapshot that fails validation is discarded, but it must not panic
    /// or index out of bounds on garbage in the meantime (return an error
    /// instead; errors from invalidated snapshots, the tombstone's
    /// `BadInode` included, are discarded too).
    pub fn with_inode_read_optimistic<R>(
        &self,
        ino: u64,
        f: impl Fn(&InodeMem) -> Result<R>,
    ) -> Result<R> {
        let slot = self.inode_slot(ino)?;
        for _ in 0..Self::OPTIMISTIC_ATTEMPTS {
            let Some(s1) = slot.seq.read_begin() else {
                break; // writer active: go straight to the lock
            };
            let r = slot.snapshot(ino, &f);
            if slot.seq.validate(s1) {
                if !matches!(r, Err(NovaError::BadInode(_))) {
                    NovaStats::add(&self.stats.read_optimistic_hits, 1);
                }
                return r;
            }
            NovaStats::add(&self.stats.read_seq_retries, 1);
        }
        self.with_inode_read(ino, f)
    }

    /// True if a writer holds `ino`'s write lock at this instant: the inode's
    /// seqlock is odd for the whole of [`Self::with_inode_write`] (and of an
    /// unlink's release). A racy snapshot, not a lock: a caller that must
    /// not park uses it to route work elsewhere, and a writer that starts
    /// just after the answer is still waited for. False for an unknown inode.
    pub fn inode_write_locked(&self, ino: u64) -> bool {
        self.inode_map
            .get(ino)
            .is_some_and(|slot| slot.seq.read_begin().is_none())
    }

    /// Run `f` with the inode write-locked, in a context that can append log
    /// entries, update the index, and reclaim blocks. This is the "holds an
    /// inode lock" critical section the paper describes for both foreground
    /// writes and the deduplication process. The inode's seqlock is held
    /// odd for the duration, diverting optimistic readers to the lock.
    ///
    /// A section that succeeded and grew the log by a page then runs NOVA's
    /// fast GC on the log ([`crate::gc`]) before the lock drops: only now
    /// has `f` folded every entry it appended into the live counts, so a
    /// page its append left behind is dead only if it really is.
    pub fn with_inode_write<R>(
        &self,
        ino: u64,
        f: impl FnOnce(&mut InodeCtx<'_>) -> Result<R>,
    ) -> Result<R> {
        let slot = self.inode_slot(ino)?;
        let _w = slot.lock.write();
        // SAFETY: the write lock grants exclusive access among lockers;
        // optimistic readers only touch atomic fields and discard on seq
        // conflict.
        let mem = unsafe { &mut *slot.mem.get() };
        if mem.is_dead() {
            return Err(NovaError::BadInode(ino));
        }
        let _seq = slot.seq.write_scope();
        let pages_before = mem.log_chain.len();
        let r = {
            let mut ctx = InodeCtx { fs: self, ino, mem };
            f(&mut ctx)
        };
        // SAFETY: still under the write lock.
        let mem = unsafe { &mut *slot.mem.get() };
        let r = match r {
            Ok(v) if mem.log_chain.len() > pages_before => self.collect_log(ino, mem).map(|_| v),
            r => r,
        };
        // Re-mirror the hash-map-derived hints for the lock-free stat path
        // before the seq goes even again.
        mem.refresh_hints();
        r
    }

    /// Bitmap of data blocks currently referenced by any file's radix tree.
    /// The DeNova FACT scrubber reconciles reference counts against this
    /// ("It periodically scans all the files and generates a bitmap of which
    /// FACT entry is in use", Section V-C2). Takes each inode's read lock in
    /// turn, so it runs concurrently with foreground I/O.
    pub fn referenced_blocks(&self) -> crate::alloc::BlockBitmap {
        let mut bitmap = crate::alloc::BlockBitmap::new(self.layout.total_blocks);
        // Shard-by-shard: no global-map lock, no all-inodes snapshot
        // allocation — at most one shard's Arcs are cloned at a time.
        let mut slots = Vec::new();
        for si in 0..self.inode_map.shard_count() {
            self.inode_map.collect_shard(si, &mut slots);
            for (_ino, slot) in &slots {
                let _r = slot.lock.read();
                // SAFETY: read lock held (see with_inode_read).
                let mem = unsafe { &*slot.mem.get() };
                mem.radix.for_each(|_, e| {
                    if e.block != crate::layout::HOLE_BLOCK {
                        bitmap.set(e.block);
                    }
                });
            }
        }
        bitmap
    }

    /// Exact reference count per data block across every file's radix tree.
    /// The DeNova scrubber uses this to reconcile FACT RFCs after the
    /// over-increment cases of Section V-C2.
    pub fn block_reference_counts(&self) -> HashMap<u64, u32> {
        let mut counts: HashMap<u64, u32> = HashMap::new();
        let mut slots = Vec::new();
        for si in 0..self.inode_map.shard_count() {
            self.inode_map.collect_shard(si, &mut slots);
            for (_ino, slot) in &slots {
                let _r = slot.lock.read();
                // SAFETY: read lock held (see with_inode_read).
                let mem = unsafe { &*slot.mem.get() };
                mem.radix.for_each(|_, e| {
                    if e.block != crate::layout::HOLE_BLOCK {
                        *counts.entry(e.block).or_insert(0) += 1;
                    }
                });
            }
        }
        counts
    }

    /// Inode numbers currently live (excluding the root directory).
    pub fn live_inodes(&self) -> Vec<u64> {
        let mut inos = Vec::new();
        let mut slots = Vec::new();
        for si in 0..self.inode_map.shard_count() {
            self.inode_map.collect_shard(si, &mut slots);
            inos.extend(slots.iter().map(|(ino, _)| *ino).filter(|&i| i != ROOT_INO));
        }
        inos.sort();
        inos
    }

    // ------------------------------------------------------------------
    // Namespace operations
    // ------------------------------------------------------------------

    /// Create an empty file. Returns its inode number.
    pub fn create(&self, name: &str) -> Result<u64> {
        let mut ns = self.namespace.lock();
        if ns.contains_key(name) {
            return Err(NovaError::AlreadyExists);
        }
        // Allocate an inode slot (persist the inode first: an orphan inode
        // with no dentry is cleaned by recovery, so a crash here is safe).
        let ino = {
            let mut cursor = self.inode_cursor.lock();
            let table = self.table();
            let ino = match table.find_free(*cursor) {
                Ok(i) => i,
                Err(_) => table.find_free(1)?,
            };
            *cursor = ino + 1;
            table.init(ino, false)?;
            ino
        };
        self.dev.crash_point("nova::create::after_inode_init");
        // Commit the dentry in the root directory log — the atomic commit
        // point of file creation.
        let dentry = DentryEntry {
            add: true,
            ino,
            name: name.to_string(),
            txid: self.next_txid(),
        }
        .encode()?;
        self.with_inode_write(ROOT_INO, |ctx| {
            ctx.append(&[dentry], "nova::create")?;
            Ok(())
        })?;
        self.inode_map
            .insert(ino, InodeSlot::new(InodeMem::default()));
        ns.insert(name.to_string(), ino);
        // Tap under the namespace lock: replication must see name operations
        // in their commit order. Settle (which may block on standby acks)
        // only after the lock is gone.
        let pending = self.emit_op(|| FsOp::Create {
            name: name.to_string(),
            ino,
        });
        drop(ns);
        Nova::settle_op(pending);
        NovaStats::add(&self.stats.creates, 1);
        Ok(ino)
    }

    /// Look up a file by name.
    pub fn open(&self, name: &str) -> Result<u64> {
        self.namespace
            .lock()
            .get(name)
            .copied()
            .ok_or(NovaError::NotFound)
    }

    /// Whether `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.namespace.lock().contains_key(name)
    }

    /// All file names (unordered).
    pub fn list(&self) -> Vec<String> {
        self.namespace.lock().keys().cloned().collect()
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.namespace.lock().len()
    }

    /// Add a hard link: `new_name` becomes a second name for the inode
    /// behind `existing`. Commit point: the dentry-add in the root log.
    pub fn link(&self, existing: &str, new_name: &str) -> Result<u64> {
        let mut ns = self.namespace.lock();
        let ino = *ns.get(existing).ok_or(NovaError::NotFound)?;
        if ns.contains_key(new_name) {
            return Err(NovaError::AlreadyExists);
        }
        let dentry = DentryEntry {
            add: true,
            ino,
            name: new_name.to_string(),
            txid: self.next_txid(),
        }
        .encode()?;
        self.with_inode_write(ROOT_INO, |ctx| {
            ctx.append(&[dentry], "nova::link")?;
            Ok(())
        })?;
        // The persistent link count is a cache; recovery recounts dentries.
        let table = self.table();
        let nlink = table.read(ino)?.link_count;
        table.set_link_count(ino, nlink + 1)?;
        ns.insert(new_name.to_string(), ino);
        let pending = self.emit_op(|| FsOp::Link {
            existing: existing.to_string(),
            new_name: new_name.to_string(),
            ino,
        });
        drop(ns);
        Nova::settle_op(pending);
        Ok(ino)
    }

    /// Remove a name. The inode's pages, log, and slot are released only
    /// when its last name goes (hard links keep it alive).
    pub fn unlink(&self, name: &str) -> Result<()> {
        let mut ns = self.namespace.lock();
        let ino = *ns.get(name).ok_or(NovaError::NotFound)?;
        // Commit point: the dentry-remove entry in the root log.
        let dentry = DentryEntry {
            add: false,
            ino,
            name: name.to_string(),
            txid: self.next_txid(),
        }
        .encode()?;
        self.with_inode_write(ROOT_INO, |ctx| {
            ctx.append(&[dentry], "nova::unlink")?;
            Ok(())
        })?;
        ns.remove(name);
        let remaining = ns.values().filter(|&&i| i == ino).count();
        let pending = self.emit_op(|| FsOp::Unlink {
            name: name.to_string(),
        });
        drop(ns);
        Nova::settle_op(pending);
        self.dev.crash_point("nova::unlink::after_dentry");

        let table = self.table();
        let nlink = table.read(ino)?.link_count;
        table.set_link_count(ino, nlink.saturating_sub(1))?;
        if remaining == 0 {
            // Release the file's resources. A crash anywhere below leaks
            // nothing: recovery rebuilds the free list from live logs, and
            // the dedup scrubber reconciles FACT.
            self.release_inode(ino)?;
        }
        NovaStats::add(&self.stats.unlinks, 1);
        Ok(())
    }

    /// Current size of the file at `ino` (lock-free on the happy path).
    pub fn file_size(&self, ino: u64) -> Result<u64> {
        self.with_inode_read_optimistic(ino, |mem| Ok(mem.size()))
    }

    /// Rename `from` to `to`, atomically replacing `to` if it exists.
    ///
    /// Atomicity comes from NOVA's multi-entry commit: the dentry-remove for
    /// `from` (and for a clobbered `to`) and the dentry-add for `to` are
    /// appended to the root log and committed by a single tail update — a
    /// crash shows either the old name or the new, never both or neither.
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut ns = self.namespace.lock();
        let ino = *ns.get(from).ok_or(NovaError::NotFound)?;
        if from == to {
            return Ok(());
        }
        let clobbered = ns.get(to).copied();
        let mut entries: Vec<[u8; 64]> = Vec::with_capacity(3);
        let txid = self.next_txid();
        if let Some(old) = clobbered {
            entries.push(
                DentryEntry {
                    add: false,
                    ino: old,
                    name: to.to_string(),
                    txid,
                }
                .encode()?,
            );
        }
        entries.push(
            DentryEntry {
                add: false,
                ino,
                name: from.to_string(),
                txid,
            }
            .encode()?,
        );
        entries.push(
            DentryEntry {
                add: true,
                ino,
                name: to.to_string(),
                txid,
            }
            .encode()?,
        );
        self.with_inode_write(ROOT_INO, |ctx| {
            ctx.append(&entries, "nova::rename")?;
            Ok(())
        })?;
        ns.remove(from);
        ns.insert(to.to_string(), ino);
        let pending = self.emit_op(|| FsOp::Rename {
            from: from.to_string(),
            to: to.to_string(),
        });
        // The clobbered inode loses one name; it is only released when that
        // was its last (it may have other hard links).
        let clobbered_remaining =
            clobbered.map(|old| (old, ns.values().filter(|&&i| i == old).count()));
        drop(ns);
        Nova::settle_op(pending);
        if let Some((old, remaining)) = clobbered_remaining {
            let table = self.table();
            let nlink = table.read(old)?.link_count;
            table.set_link_count(old, nlink.saturating_sub(1))?;
            if remaining == 0 {
                self.release_inode(old)?;
            }
        }
        Ok(())
    }

    /// File metadata snapshot (lock-free on the happy path: every field it
    /// reads is an atomic mirror, and the log-chain walk is bounded by the
    /// device size so a torn head value cannot loop it forever — the
    /// seqlock discards the result in that case).
    pub fn stat(&self, ino: u64) -> Result<FileStat> {
        let pi = self.table().read(ino)?;
        if !pi.valid {
            return Err(NovaError::BadInode(ino));
        }
        self.with_inode_read_optimistic(ino, |mem| {
            // Hole mappings occupy radix slots but own no data page, so they
            // are excluded from the `blocks` count.
            let mut blocks = 0u64;
            mem.radix.for_each(|_, e| {
                if e.block != crate::layout::HOLE_BLOCK {
                    blocks += 1;
                }
            });
            Ok(FileStat {
                ino,
                size: mem.size(),
                blocks,
                nlink: pi.link_count,
                log_pages: log::log_pages(&self.dev, &self.layout, mem.log_head_hint()).len()
                    as u64,
                log_entries_live: mem.live_entries_hint(),
            })
        })
    }

    /// Release an inode's data pages, log chain, and slot (unlink/rename
    /// clobber path; the dentry removal must already be committed).
    fn release_inode(&self, ino: u64) -> Result<()> {
        let slot = self.inode_slot(ino)?;
        {
            let _w = slot.lock.write();
            // SAFETY: write lock held (see with_inode_write).
            let mem = unsafe { &mut *slot.mem.get() };
            if mem.is_dead() {
                return Ok(()); // already released by a racing caller
            }
            // Seq odd for the whole release: optimistic readers racing the
            // block frees below always land on the fallback lock, where
            // they observe the tombstone. The replaced radix tree is
            // retired through the epoch collector (see RadixTree::drop),
            // so a reader already mid-walk stays memory-safe too.
            let _seq = slot.seq.write_scope();
            let mut ctx = InodeCtx { fs: self, ino, mem };
            let blocks: Vec<u64> = {
                let mut v = Vec::new();
                ctx.mem.radix.for_each(|_, e| {
                    if e.block != crate::layout::HOLE_BLOCK {
                        v.push(e.block);
                    }
                });
                v
            };
            for block in blocks {
                ctx.reclaim_block(block);
            }
            let pages = log::log_pages(&self.dev, &self.layout, ctx.mem.pos.head);
            for page in pages {
                self.alloc.free_range(page, 1);
                NovaStats::add(&self.stats.blocks_freed, 1);
            }
            // Tombstone before the lock drops: anyone queued on this lock
            // must not touch the pages we just freed.
            let mut dead = InodeMem::default();
            dead.mark_dead();
            *ctx.mem = dead;
        }
        self.table().clear(ino)?;
        self.inode_map.remove(ino);
        Ok(())
    }
}

/// Metadata returned by [`Nova::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    /// The `ino` value.
    pub ino: u64,
    /// Size in bytes.
    pub size: u64,
    /// Mapped data pages.
    pub blocks: u64,
    /// Hard-link count.
    pub nlink: u64,
    /// Log pages in this inode's chain.
    pub log_pages: u64,
    /// Live (non-superseded) write entries.
    pub log_entries_live: u64,
}

impl std::fmt::Debug for Nova {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nova")
            .field("files", &self.file_count())
            .field("free_blocks", &self.free_blocks())
            .finish()
    }
}

/// A write-locked inode context: every mutation of a file's log and index
/// goes through here, from both the foreground write path and the dedup
/// daemon.
pub struct InodeCtx<'a> {
    fs: &'a Nova,
    ino: u64,
    /// The inode's DRAM state (radix tree, log position, live counts).
    pub mem: &'a mut InodeMem,
}

impl InodeCtx<'_> {
    /// The inode number this context locks.
    pub fn ino(&self) -> u64 {
        self.ino
    }

    /// The owning file system.
    pub fn fs(&self) -> &Nova {
        self.fs
    }

    /// The device.
    pub fn dev(&self) -> &PmemDevice {
        &self.fs.dev
    }

    /// Append pre-encoded entries to this inode's log and commit the tail
    /// atomically. Returns each entry's device offset.
    pub fn append(&mut self, entries: &[[u8; 64]], cp: &str) -> Result<Vec<u64>> {
        self.append_with_ranges(entries, &[], cp)
    }

    /// [`Self::append`], additionally flushing the caller's freshly-stored
    /// `data_ranges` in the same flush batch and fence that persist the log
    /// entries (see [`log::append_with_ranges`]).
    pub fn append_with_ranges(
        &mut self,
        entries: &[[u8; 64]],
        data_ranges: &[(u64, usize)],
        cp: &str,
    ) -> Result<Vec<u64>> {
        let table = self.fs.table();
        let offs = log::append_with_ranges(
            &self.fs.dev,
            &self.fs.layout,
            &self.fs.alloc,
            &table,
            self.ino,
            &mut self.mem.pos,
            entries,
            data_ranges,
            cp,
        )?;
        // Every page the append linked holds at least one of its entries.
        for off in &offs {
            let page = off / BLOCK_SIZE;
            if self.mem.log_chain.last() != Some(&page) {
                self.mem.log_chain.push(page);
            }
        }
        Ok(offs)
    }

    /// Fold a committed write entry into the index and return the data
    /// blocks it superseded.
    pub fn apply_write_entry(&mut self, entry_off: u64, we: &WriteEntry) -> Vec<u64> {
        self.mem.apply_write_entry(entry_off, we)
    }

    /// Drop the file system's reference to `block`: ask the dedup hook, and
    /// free the block unless it is still shared.
    pub fn reclaim_block(&mut self, block: u64) {
        match self.fs.current_hooks().on_reclaim_block(block) {
            ReclaimDecision::Free => {
                self.fs.alloc.free_range(block, 1);
                NovaStats::add(&self.fs.stats.blocks_freed, 1);
            }
            ReclaimDecision::Keep => {
                NovaStats::add(&self.fs.stats.blocks_kept_shared, 1);
            }
        }
    }

    /// Update the inode's cached size. The persistent copy is written and
    /// flushed but *not* fenced — it rides the next fence this thread issues
    /// (see [`crate::inode::InodeTable::cache_size`] for why that is safe),
    /// keeping the write commit path at a single fence pair.
    pub fn commit_size(&mut self, size: u64) -> Result<()> {
        if self.mem.size() == size {
            // Overwrites that don't grow the file leave the size line
            // untouched: the PM size field is advisory (recovery recomputes
            // it from the log's `size_after`), so skipping the store + flush
            // is safe and saves a line flush per steady-state overwrite.
            return Ok(());
        }
        self.mem.set_size(size);
        self.fs.table().cache_size(self.ino, size)
    }

    /// Reference (pre-fence-batching) size commit: persists the cached size
    /// with its own fence. Kept for the staged-copy reference write path so
    /// benchmarks and equivalence tests can compare against the historical
    /// behavior.
    pub fn commit_size_durable(&mut self, size: u64) -> Result<()> {
        self.mem.set_size(size);
        self.fs.table().set_size(self.ino, size)
    }

    /// Allocate a fresh transaction id.
    pub fn next_txid(&self) -> u64 {
        self.fs.next_txid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mkfs() -> Nova {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        Nova::mkfs(
            dev,
            NovaOptions {
                num_inodes: 128,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn create_open_roundtrip() {
        let fs = mkfs();
        let ino = fs.create("a.txt").unwrap();
        assert_eq!(fs.open("a.txt").unwrap(), ino);
        assert!(fs.exists("a.txt"));
        assert_eq!(fs.file_count(), 1);
        assert_eq!(fs.file_size(ino).unwrap(), 0);
    }

    #[test]
    fn duplicate_create_rejected() {
        let fs = mkfs();
        fs.create("a").unwrap();
        assert_eq!(fs.create("a"), Err(NovaError::AlreadyExists));
    }

    #[test]
    fn open_missing_fails() {
        let fs = mkfs();
        assert_eq!(fs.open("ghost"), Err(NovaError::NotFound));
    }

    #[test]
    fn unlink_removes_file() {
        let fs = mkfs();
        fs.create("a").unwrap();
        fs.unlink("a").unwrap();
        assert!(!fs.exists("a"));
        assert_eq!(fs.unlink("a"), Err(NovaError::NotFound));
        assert_eq!(fs.file_count(), 0);
    }

    #[test]
    fn created_inodes_are_distinct() {
        let fs = mkfs();
        let a = fs.create("a").unwrap();
        let b = fs.create("b").unwrap();
        let c = fs.create("c").unwrap();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(fs.live_inodes(), {
            let mut v = vec![a, b, c];
            v.sort();
            v
        });
    }

    #[test]
    fn inode_slot_reuse_after_unlink() {
        let fs = mkfs();
        // Exhaust, free one, create again: must succeed via slot reuse.
        let n = 126; // 128 slots minus root minus 1 headroom
        for i in 0..n {
            fs.create(&format!("f{i}")).unwrap();
        }
        fs.unlink("f0").unwrap();
        fs.create("again").unwrap();
    }

    #[test]
    fn inode_exhaustion_reported() {
        let fs = mkfs();
        let mut made = 0;
        loop {
            match fs.create(&format!("f{made}")) {
                Ok(_) => made += 1,
                Err(NovaError::NoInodes) => break,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert_eq!(made, 126); // 128 slots minus reserved slot 0 minus root
    }

    #[test]
    fn many_files_list() {
        let fs = mkfs();
        for i in 0..20 {
            fs.create(&format!("file-{i}")).unwrap();
        }
        let mut names = fs.list();
        names.sort();
        assert_eq!(names.len(), 20);
        assert_eq!(names[0], "file-0");
    }

    #[test]
    fn rename_moves_file() {
        let fs = mkfs();
        let ino = fs.create("old").unwrap();
        fs.write(ino, 0, b"hello").unwrap();
        fs.rename("old", "new").unwrap();
        assert!(!fs.exists("old"));
        assert_eq!(fs.open("new").unwrap(), ino);
        assert_eq!(fs.read(ino, 0, 5).unwrap(), b"hello".to_vec());
    }

    #[test]
    fn rename_clobbers_target() {
        let fs = mkfs();
        let a = fs.create("a").unwrap();
        let b = fs.create("b").unwrap();
        fs.write(a, 0, &vec![1u8; 4096]).unwrap();
        fs.write(b, 0, &vec![2u8; 8192]).unwrap();
        let free_before = fs.free_blocks();
        fs.rename("a", "b").unwrap();
        assert!(!fs.exists("a"));
        let now = fs.open("b").unwrap();
        assert_eq!(now, a);
        assert_eq!(fs.read(now, 0, 4096).unwrap(), vec![1u8; 4096]);
        // The clobbered file's pages (2 data + 1 log) were released.
        assert!(fs.free_blocks() > free_before);
        assert_eq!(fs.file_count(), 1);
    }

    #[test]
    fn rename_missing_source_fails() {
        let fs = mkfs();
        assert_eq!(fs.rename("ghost", "x"), Err(NovaError::NotFound));
    }

    #[test]
    fn rename_to_self_is_noop() {
        let fs = mkfs();
        let ino = fs.create("same").unwrap();
        fs.rename("same", "same").unwrap();
        assert_eq!(fs.open("same").unwrap(), ino);
    }

    #[test]
    fn rename_survives_remount() {
        let fs = mkfs();
        let ino = fs.create("before").unwrap();
        fs.write(ino, 0, b"payload").unwrap();
        fs.rename("before", "after").unwrap();
        let dev2 = Arc::new(fs.device().crash_clone(denova_pmem::CrashMode::Strict));
        let fs2 = Nova::mount(
            dev2,
            NovaOptions {
                num_inodes: 128,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!fs2.exists("before"));
        let ino2 = fs2.open("after").unwrap();
        assert_eq!(fs2.read(ino2, 0, 7).unwrap(), b"payload".to_vec());
    }

    #[test]
    fn hard_link_shares_the_inode() {
        let fs = mkfs();
        let ino = fs.create("orig").unwrap();
        fs.write(ino, 0, b"shared content").unwrap();
        assert_eq!(fs.link("orig", "alias").unwrap(), ino);
        assert_eq!(fs.open("alias").unwrap(), ino);
        assert_eq!(fs.stat(ino).unwrap().nlink, 2);
        // A write through one name is visible through the other.
        fs.write(ino, 0, b"UPDATED").unwrap();
        let via_alias = fs.open("alias").unwrap();
        assert_eq!(fs.read(via_alias, 0, 7).unwrap(), b"UPDATED".to_vec());
    }

    #[test]
    fn unlink_one_name_keeps_the_file() {
        let fs = mkfs();
        let ino = fs.create("a").unwrap();
        fs.write(ino, 0, &vec![7u8; 8192]).unwrap();
        fs.link("a", "b").unwrap();
        let free_before = fs.free_blocks();
        fs.unlink("a").unwrap();
        // Nothing was released — the inode lives under "b".
        assert_eq!(fs.free_blocks(), free_before);
        let b = fs.open("b").unwrap();
        assert_eq!(b, ino);
        assert_eq!(fs.read(b, 0, 8192).unwrap(), vec![7u8; 8192]);
        assert_eq!(fs.stat(ino).unwrap().nlink, 1);
        // Last name releases everything.
        fs.unlink("b").unwrap();
        assert!(fs.free_blocks() > free_before);
        assert!(fs.open("b").is_err());
    }

    #[test]
    fn link_errors() {
        let fs = mkfs();
        fs.create("a").unwrap();
        fs.create("b").unwrap();
        assert_eq!(fs.link("ghost", "x"), Err(NovaError::NotFound));
        assert_eq!(fs.link("a", "b"), Err(NovaError::AlreadyExists));
    }

    #[test]
    fn links_survive_remount() {
        let fs = mkfs();
        let ino = fs.create("a").unwrap();
        fs.write(ino, 0, b"persistent").unwrap();
        fs.link("a", "b").unwrap();
        fs.unlink("a").unwrap();
        let dev2 = Arc::new(fs.device().crash_clone(denova_pmem::CrashMode::Strict));
        let fs2 = Nova::mount(
            dev2,
            NovaOptions {
                num_inodes: 128,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!fs2.exists("a"));
        let b = fs2.open("b").unwrap();
        assert_eq!(fs2.read(b, 0, 10).unwrap(), b"persistent".to_vec());
        assert_eq!(fs2.stat(b).unwrap().nlink, 1);
        // fsck is clean, including the link-count census.
        let report = crate::fsck::check(&fs2, false).unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
    }

    #[test]
    fn linked_file_fsck_clean_with_both_names() {
        let fs = mkfs();
        let ino = fs.create("x").unwrap();
        fs.write(ino, 0, &vec![3u8; 4096]).unwrap();
        fs.link("x", "y").unwrap();
        let report = crate::fsck::check(&fs, false).unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
    }

    #[test]
    fn rename_clobbering_linked_target_keeps_other_link() {
        let fs = mkfs();
        let victim = fs.create("victim").unwrap();
        fs.write(victim, 0, b"keep me").unwrap();
        fs.link("victim", "survivor").unwrap();
        let other = fs.create("other").unwrap();
        fs.write(other, 0, b"mover").unwrap();
        // Clobber one of victim's two names: the inode must survive via the
        // other.
        fs.rename("other", "victim").unwrap();
        assert_eq!(fs.open("victim").unwrap(), other);
        let s = fs.open("survivor").unwrap();
        assert_eq!(s, victim);
        assert_eq!(fs.read(s, 0, 7).unwrap(), b"keep me".to_vec());
        assert_eq!(fs.stat(victim).unwrap().nlink, 1);
        let report = crate::fsck::check(&fs, false).unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
    }

    #[test]
    fn rename_of_linked_name_preserves_other_link() {
        let fs = mkfs();
        let ino = fs.create("a").unwrap();
        fs.write(ino, 0, b"data").unwrap();
        fs.link("a", "b").unwrap();
        fs.rename("a", "c").unwrap();
        assert_eq!(fs.open("c").unwrap(), ino);
        assert_eq!(fs.open("b").unwrap(), ino);
        assert_eq!(fs.read(ino, 0, 4).unwrap(), b"data".to_vec());
    }

    #[test]
    fn stat_reports_shape() {
        let fs = mkfs();
        let ino = fs.create("s").unwrap();
        fs.write(ino, 0, &vec![5u8; 3 * 4096 + 100]).unwrap();
        let st = fs.stat(ino).unwrap();
        assert_eq!(st.ino, ino);
        assert_eq!(st.size, 3 * 4096 + 100);
        assert_eq!(st.blocks, 4);
        assert_eq!(st.log_pages, 1);
        assert_eq!(st.log_entries_live, 1);
        assert!(fs.stat(99).is_err());
    }

    #[test]
    fn default_mount_is_baseline() {
        let fs = mkfs();
        assert!(!fs.dedup_enabled());
        assert_eq!(fs.new_entry_flag(), crate::entry::DedupeFlag::NotApplicable);
        fs.set_dedup_enabled(true);
        assert_eq!(fs.new_entry_flag(), crate::entry::DedupeFlag::Needed);
    }
}
