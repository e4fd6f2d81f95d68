//! The emulated persistent-memory device.
//!
//! Stores land in a simulated CPU cache: the byte array always holds the
//! *current* (volatile) view, while a per-cache-line shadow map remembers the
//! last *persisted* content of every dirty line. `flush` (clwb) queues a line
//! on the calling thread; `fence` (sfence) makes this thread's queued flushes
//! durable by dropping their shadows. A simulated power failure reverts
//! shadowed lines according to a [`CrashMode`].
//!
//! Plain reads/writes are intentionally unsynchronized (like real loads and
//! stores); callers serialize access to shared bytes exactly as a file system
//! must. The 8-byte atomic store — the commit primitive NOVA builds its
//! consistency on — is exposed separately and is always race-free.

use crate::crash::{CrashMode, CrashPointRegistry, SimulatedCrash};
use crate::latency::{inject_ns, LatencyProfile};
use crate::stats::PmemStats;
use crate::{lines_spanned, CACHE_LINE, PAGE_SIZE};
use denova_telemetry::{Histogram, MetricsRegistry};
use parking_lot::Mutex;
use std::cell::{RefCell, UnsafeCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Number of lock shards for the dirty-page shadow maps.
const NSHARDS: usize = 64;

/// Clean page shadows kept per shard after a fence fully persists them.
/// Keeping the shadow (rather than dropping it) means the next store to the
/// same page skips the 4 KB `PageShadow::capture` memcpy — hot metadata
/// pages (inode table, log tails) are re-dirtied on every operation. The cap
/// bounds DRAM overhead to `NSHARDS × cap × ~4 KB` ≈ 64 MB worst case.
const SHADOW_CACHE_PER_SHARD: usize = 256;

/// Cache lines per tracked page.
const LINES_PER_PAGE: usize = PAGE_SIZE / CACHE_LINE;

/// Unique ids so thread-local flush queues can be partitioned per device.
static NEXT_DEVICE_ID: AtomicU64 = AtomicU64::new(1);

/// Globally-unique write epochs (never reused, so a pending flush can never
/// be matched by a later, unrelated store).
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// One queued flush: a set of lines of one page (bitmask) that shared the
/// same write epoch when flushed.
#[derive(Clone, Copy)]
struct PendingFlush {
    dev: u64,
    page: u64,
    mask: u64,
    epoch: u64,
}

thread_local! {
    /// Per-thread queue of flushed-but-not-fenced line groups — the clwb
    /// write-pending queue.
    static PENDING_FLUSHES: RefCell<Vec<PendingFlush>> = const { RefCell::new(Vec::new()) };

    /// Per-thread, per-device fence counter. Fences have per-thread
    /// semantics, so this lets a caller measure the exact number of fences a
    /// code path issues regardless of what other threads are doing. A flat
    /// vec beats a HashMap here: a thread touches one or two devices, and
    /// the counter sits on the foreground write path's fence.
    static THREAD_FENCES: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Shadow state of a 4 KB page containing at least one dirty line. Tracking
/// at page granularity keeps the hot write path to one lock + one map
/// operation per page instead of one per cache line; persistence semantics
/// remain exactly per-line (the dirty mask and epochs are per line).
struct PageShadow {
    /// Content of the page as of each line's last persist point. Only the
    /// regions of lines with a set dirty bit are meaningful.
    persisted: Box<[u8; PAGE_SIZE]>,
    /// Bit per line: dirty (stored but not yet durable).
    dirty_mask: u64,
    /// Per-line write epoch; a flush only persists at fence time if no newer
    /// store happened in between.
    epochs: Box<[u64; LINES_PER_PAGE]>,
}

impl PageShadow {
    fn capture(current: *const u8) -> PageShadow {
        let mut persisted: Box<[u8; PAGE_SIZE]> =
            vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().unwrap();
        unsafe {
            std::ptr::copy_nonoverlapping(current, persisted.as_mut_ptr(), PAGE_SIZE);
        }
        PageShadow {
            persisted,
            dirty_mask: 0,
            epochs: Box::new([0; LINES_PER_PAGE]),
        }
    }
}

/// Builder for [`PmemDevice`].
pub struct PmemBuilder {
    size: usize,
    latency: LatencyProfile,
    crash_mode: CrashMode,
}

impl PmemBuilder {
    /// A device of `size` bytes (rounded up to a whole cache line).
    pub fn new(size: usize) -> Self {
        PmemBuilder {
            size,
            latency: LatencyProfile::none(),
            crash_mode: CrashMode::Strict,
        }
    }

    /// Set the injected latency profile (default: none).
    pub fn latency(mut self, profile: LatencyProfile) -> Self {
        self.latency = profile;
        self
    }

    /// Set the crash mode used by armed crash points (default: strict).
    pub fn crash_mode(mut self, mode: CrashMode) -> Self {
        self.crash_mode = mode;
        self
    }

    /// `build` accessor.
    pub fn build(self) -> PmemDevice {
        let size = self.size.div_ceil(CACHE_LINE) * CACHE_LINE;
        let mut buf = vec![0u8; size].into_boxed_slice();
        // Pre-fault the backing memory: without this, every first store to a
        // 4 KB region pays an OS page fault *during a measured operation*,
        // polluting latency numbers with host-VM noise.
        for off in (0..size).step_by(4096) {
            unsafe { std::ptr::write_volatile(buf.as_mut_ptr().add(off), 0) };
        }
        // The device owns the telemetry registry for the whole stack built
        // on top of it: NOVA and the dedup layer attach their metrics to
        // this same instance, so one snapshot covers every layer.
        let metrics = MetricsRegistry::new();
        let flush_lines = metrics.histogram("pmem.flush.lines");
        if !self.latency.is_zero() {
            // Latency injection is in play: surface the spin calibration so
            // reports can judge how trustworthy the injected delays are.
            metrics
                .gauge("pmem.spin_calibration.spins_per_us")
                .set(crate::latency::calibrated_spins_per_us() as i64);
        }
        PmemDevice {
            id: NEXT_DEVICE_ID.fetch_add(1, Ordering::Relaxed),
            buf: UnsafeCell::new(buf),
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            latency: Mutex::new(self.latency),
            crash_mode: Mutex::new(self.crash_mode),
            stats: PmemStats::new(&metrics),
            metrics,
            flush_lines,
            crash_points: CrashPointRegistry::new(),
            blocking_latency: AtomicBool::new(false),
        }
    }
}

/// An emulated byte-addressable persistent-memory device.
pub struct PmemDevice {
    id: u64,
    buf: UnsafeCell<Box<[u8]>>,
    shards: [Mutex<HashMap<u64, PageShadow>>; NSHARDS],
    latency: Mutex<LatencyProfile>,
    crash_mode: Mutex<CrashMode>,
    stats: PmemStats,
    metrics: MetricsRegistry,
    /// Pre-resolved handle for the flush-size histogram so the hot flush
    /// path never does a name lookup.
    flush_lines: Histogram,
    crash_points: CrashPointRegistry,
    /// When set, injected delays yield the CPU (see
    /// [`crate::latency::block_ns`]) instead of spinning, so concurrent
    /// device operations overlap on hosts with fewer cores than threads.
    blocking_latency: AtomicBool,
}

// SAFETY: interior mutability of `buf` is raced only if callers race plain
// accesses to the same bytes, which is the same contract real memory gives a
// file system. All bookkeeping structures are internally synchronized.
unsafe impl Sync for PmemDevice {}
unsafe impl Send for PmemDevice {}

impl PmemDevice {
    /// A device with no injected latency and strict crash mode.
    pub fn new(size: usize) -> Self {
        PmemBuilder::new(size).build()
    }

    /// Device capacity in bytes.
    #[inline]
    pub fn size(&self) -> usize {
        unsafe { (&*self.buf.get()).len() }
    }

    /// Access counters.
    #[inline]
    pub fn stats(&self) -> &PmemStats {
        &self.stats
    }

    /// The telemetry registry shared by every layer mounted on this device.
    #[inline]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Crash-point registry for failure injection.
    #[inline]
    pub fn crash_points(&self) -> &CrashPointRegistry {
        &self.crash_points
    }

    /// Replace the latency profile (e.g. zero for setup, Optane for the
    /// measured phase).
    pub fn set_latency(&self, profile: LatencyProfile) {
        *self.latency.lock() = profile;
    }

    /// Current latency profile.
    pub fn latency(&self) -> LatencyProfile {
        *self.latency.lock()
    }

    /// Switch injected delays between spinning (default; models the issuing
    /// core stalling) and yielding the CPU (so concurrent operations overlap
    /// on hosts with fewer cores than threads — see
    /// [`crate::latency::block_ns`] for the trade-off).
    pub fn set_blocking_latency(&self, on: bool) {
        self.blocking_latency.store(on, Ordering::Relaxed);
    }

    /// Whether injected delays currently yield the CPU.
    pub fn blocking_latency(&self) -> bool {
        self.blocking_latency.load(Ordering::Relaxed)
    }

    /// Route an injected delay through the configured wait mechanism.
    #[inline]
    fn inject(&self, ns: u64) {
        if self.blocking_latency() {
            crate::latency::block_ns(ns);
        } else {
            inject_ns(ns);
        }
    }

    /// Set the crash mode applied when an armed crash point fires.
    pub fn set_crash_mode(&self, mode: CrashMode) {
        *self.crash_mode.lock() = mode;
    }

    #[inline]
    fn ptr(&self) -> *mut u8 {
        unsafe { (*self.buf.get()).as_mut_ptr() }
    }

    #[inline]
    fn check_range(&self, off: u64, len: usize) {
        let end = off
            .checked_add(len as u64)
            .expect("pmem range overflows u64");
        assert!(
            end <= self.size() as u64,
            "pmem access out of bounds: [{off}, {end}) beyond {}",
            self.size()
        );
    }

    #[inline]
    fn shard_for(&self, page: u64) -> &Mutex<HashMap<u64, PageShadow>> {
        &self.shards[(page as usize) % NSHARDS]
    }

    /// Mark lines `[first, last]` (inclusive, global line indices) as about
    /// to be dirtied: capture page shadows on first touch and bump every
    /// line's write epoch (invalidating earlier, un-fenced flushes of those
    /// lines).
    fn mark_dirty(&self, first: u64, last: u64) {
        let first_page = first / LINES_PER_PAGE as u64;
        let last_page = last / LINES_PER_PAGE as u64;
        for page in first_page..=last_page {
            let mut map = self.shard_for(page).lock();
            let shadow = map.entry(page).or_insert_with(|| {
                PageShadow::capture(unsafe { self.ptr().add((page * PAGE_SIZE as u64) as usize) })
            });
            let lo = (first.max(page * LINES_PER_PAGE as u64) % LINES_PER_PAGE as u64) as usize;
            let hi =
                (last.min((page + 1) * LINES_PER_PAGE as u64 - 1) % LINES_PER_PAGE as u64) as usize;
            let epoch = NEXT_EPOCH.fetch_add(1, Ordering::Relaxed);
            let span = hi - lo + 1;
            let mask = if span == LINES_PER_PAGE {
                !0u64
            } else {
                ((1u64 << span) - 1) << lo
            };
            shadow.dirty_mask |= mask;
            shadow.epochs[lo..=hi].fill(epoch);
        }
    }

    /// Single-line variant of [`Self::mark_dirty`].
    #[inline]
    fn dirty_line(&self, line: u64) {
        self.mark_dirty(line, line);
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Read `buf.len()` bytes starting at `off`.
    pub fn read_into(&self, off: u64, buf: &mut [u8]) {
        self.check_range(off, buf.len());
        self.charge_read(off, buf.len() as u64);
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.ptr().add(off as usize),
                buf.as_mut_ptr(),
                buf.len(),
            );
        }
    }

    /// Run `f` over the device's mapped bytes `[off, off + len)` without
    /// copying them out. Read latency is charged exactly as for
    /// [`Self::read_into`]; the borrow is confined to the closure so the
    /// slice cannot outlive the call. Real PM is load-accessible through the
    /// DAX mapping, so hashing directly from media is the honest model — a
    /// bounce buffer would charge an extra copy the hardware never pays.
    ///
    /// **Racing a writer.** The file system's CoW discipline keeps a data
    /// block's bytes immutable while any log entry still maps it, so a
    /// caller that holds the inode lock never races a write to the range.
    /// The unlocked readers (`Nova::read`'s optimistic path, dedup stage 1)
    /// hold no such guarantee while `f` runs: the block may be freed,
    /// reallocated and rewritten under them. That is allowed on one
    /// condition — whatever `f` derived from the bytes is discarded unless a
    /// later validation (the inode seqlock; stage 2's per-page mapping
    /// check under the write lock) proves the range was stable for the
    /// whole call. `f` must not panic on, index by, or trust any value it
    /// reads before that validation.
    pub fn with_slice<R>(&self, off: u64, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        self.check_range(off, len);
        self.charge_read(off, len as u64);
        f(unsafe { std::slice::from_raw_parts(self.ptr().add(off as usize), len) })
    }

    /// Read `len` bytes starting at `off` into a fresh vector.
    pub fn read_vec(&self, off: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read_into(off, &mut v);
        v
    }

    /// Read a little-endian u64 at `off`.
    pub fn read_u64(&self, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read_into(off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Read a little-endian u32 at `off`.
    pub fn read_u32(&self, off: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read_into(off, &mut b);
        u32::from_le_bytes(b)
    }

    /// Read a single byte at `off`.
    pub fn read_u8(&self, off: u64) -> u8 {
        let mut b = [0u8; 1];
        self.read_into(off, &mut b);
        b[0]
    }

    /// Atomically load the 8-byte-aligned u64 at `off` (acquire ordering).
    /// Used to read concurrently-updated commit words such as NOVA log tails
    /// and FACT counters.
    pub fn atomic_load_u64(&self, off: u64) -> u64 {
        self.check_range(off, 8);
        assert_eq!(off % 8, 0, "atomic load requires 8-byte alignment");
        self.charge_read(off, 8);
        unsafe { (*(self.ptr().add(off as usize) as *const AtomicU64)).load(Ordering::Acquire) }
    }

    #[inline]
    fn charge_read(&self, off: u64, len: u64) {
        self.stats.record_read(len);
        let profile = *self.latency.lock();
        if !profile.is_zero() {
            let ns = profile.read_cost_ns(lines_spanned(off, len));
            self.stats.record_injected(ns);
            self.inject(ns);
        }
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Store `data` at `off`. The store lands in the simulated CPU cache; it
    /// is not durable until flushed and fenced.
    pub fn write(&self, off: u64, data: &[u8]) {
        self.check_range(off, data.len());
        if data.is_empty() {
            return;
        }
        let first = off / CACHE_LINE as u64;
        let last = (off + data.len() as u64 - 1) / CACHE_LINE as u64;
        self.mark_dirty(first, last);
        self.stats.record_write(data.len() as u64);
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr().add(off as usize), data.len());
        }
    }

    /// Vectored store: land every `(off, data)` span in the simulated cache
    /// with one stats-visible store operation. This is the zero-copy write
    /// primitive — the file system passes page-aligned sub-slices of the
    /// caller's buffer directly, so no staging copy ever happens. Durability
    /// semantics are identical to issuing the stores one by one.
    pub fn write_v(&self, spans: &[(u64, &[u8])]) {
        let mut total = 0u64;
        for &(off, data) in spans {
            if data.is_empty() {
                continue;
            }
            self.check_range(off, data.len());
            let first = off / CACHE_LINE as u64;
            let last = (off + data.len() as u64 - 1) / CACHE_LINE as u64;
            self.mark_dirty(first, last);
            total += data.len() as u64;
            unsafe {
                std::ptr::copy_nonoverlapping(
                    data.as_ptr(),
                    self.ptr().add(off as usize),
                    data.len(),
                );
            }
        }
        if total > 0 {
            self.stats.record_write(total);
        }
    }

    /// Store a little-endian u64 at `off` (non-atomic).
    pub fn write_u64(&self, off: u64, v: u64) {
        self.write(off, &v.to_le_bytes());
    }

    /// Store a little-endian u32 at `off` (non-atomic).
    pub fn write_u32(&self, off: u64, v: u32) {
        self.write(off, &v.to_le_bytes());
    }

    /// Store a single byte at `off`.
    pub fn write_u8(&self, off: u64, v: u8) {
        self.write(off, &[v]);
    }

    /// Fill `[off, off+len)` with `val`.
    pub fn memset(&self, off: u64, len: usize, val: u8) {
        self.check_range(off, len);
        if len == 0 {
            return;
        }
        let first = off / CACHE_LINE as u64;
        let last = (off + len as u64 - 1) / CACHE_LINE as u64;
        self.mark_dirty(first, last);
        self.stats.record_write(len as u64);
        unsafe {
            std::ptr::write_bytes(self.ptr().add(off as usize), val, len);
        }
    }

    /// Atomically store the 8-byte-aligned u64 at `off` (release ordering).
    ///
    /// This is the paper's consistency primitive: "a modern 64-bit processor
    /// provides a 64-bit write to be atomic". NOVA commits a write by
    /// atomically updating the inode log tail; DeNova updates the packed
    /// (RFC, UC) counter pair of a FACT entry the same way. Durability still
    /// requires flush + fence.
    pub fn atomic_store_u64(&self, off: u64, v: u64) {
        self.check_range(off, 8);
        assert_eq!(off % 8, 0, "atomic store requires 8-byte alignment");
        self.dirty_line(off / CACHE_LINE as u64);
        self.stats.record_atomic();
        self.stats.record_write(8);
        unsafe {
            (*(self.ptr().add(off as usize) as *const AtomicU64)).store(v, Ordering::Release);
        }
    }

    /// Atomic compare-exchange on the 8-byte-aligned u64 at `off`. Returns
    /// `Ok(previous)` on success. Used for concurrent FACT counter updates
    /// ("by having a count value for each entry ... multiple updates can be
    /// performed concurrently").
    pub fn atomic_cas_u64(&self, off: u64, current: u64, new: u64) -> Result<u64, u64> {
        self.check_range(off, 8);
        assert_eq!(off % 8, 0, "atomic CAS requires 8-byte alignment");
        self.dirty_line(off / CACHE_LINE as u64);
        self.stats.record_atomic();
        unsafe {
            (*(self.ptr().add(off as usize) as *const AtomicU64)).compare_exchange(
                current,
                new,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
        }
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Flush (clwb) every cache line in `[off, off+len)`. The lines become
    /// durable at the next [`PmemDevice::fence`] from this thread.
    pub fn flush(&self, off: u64, len: usize) {
        self.check_range(off, len);
        if len == 0 {
            return;
        }
        let first = off / CACHE_LINE as u64;
        let last = (off + len as u64 - 1) / CACHE_LINE as u64;
        let lines = last - first + 1;
        self.stats.record_flush(lines);
        if self.metrics.enabled() {
            self.flush_lines.record(lines);
        }
        self.queue_flush(first, last);
        let profile = *self.latency.lock();
        if !profile.is_zero() {
            let ns = profile.write_cost_ns(lines);
            self.stats.record_injected(ns);
            self.inject(ns);
        }
    }

    /// Flush every cache line of every `(off, len)` range, charged as ONE
    /// flush operation: a clwb stream has no per-instruction issue overhead
    /// beyond the lines themselves, so the injected cost is the per-operation
    /// write latency once plus the per-line cost of the combined total —
    /// unlike N separate [`Self::flush`] calls, which each pay the
    /// per-operation latency. The lines become durable at the next
    /// [`PmemDevice::fence`] from this thread.
    pub fn flush_ranges(&self, ranges: &[(u64, usize)]) {
        let mut total_lines = 0u64;
        for &(off, len) in ranges {
            if len == 0 {
                continue;
            }
            self.check_range(off, len);
            let first = off / CACHE_LINE as u64;
            let last = (off + len as u64 - 1) / CACHE_LINE as u64;
            total_lines += last - first + 1;
            self.queue_flush(first, last);
        }
        if total_lines == 0 {
            return;
        }
        self.stats.record_flush(total_lines);
        if self.metrics.enabled() {
            self.flush_lines.record(total_lines);
        }
        let profile = *self.latency.lock();
        if !profile.is_zero() {
            let ns = profile.write_cost_ns(total_lines);
            self.stats.record_injected(ns);
            self.inject(ns);
        }
    }

    /// Queue the dirty lines in `[first, last]` (global line indices) on this
    /// thread's clwb write-pending queue.
    fn queue_flush(&self, first: u64, last: u64) {
        PENDING_FLUSHES.with(|p| {
            let mut p = p.borrow_mut();
            let first_page = first / LINES_PER_PAGE as u64;
            let last_page = last / LINES_PER_PAGE as u64;
            for page in first_page..=last_page {
                let map = self.shard_for(page).lock();
                let Some(shadow) = map.get(&page) else {
                    continue;
                };
                let lo = (first.max(page * LINES_PER_PAGE as u64) % LINES_PER_PAGE as u64) as usize;
                let hi = (last.min((page + 1) * LINES_PER_PAGE as u64 - 1) % LINES_PER_PAGE as u64)
                    as usize;
                let span = hi - lo + 1;
                let range_mask = if span == LINES_PER_PAGE {
                    !0u64
                } else {
                    ((1u64 << span) - 1) << lo
                };
                let dirty = shadow.dirty_mask & range_mask;
                if dirty == 0 {
                    continue;
                }
                // Fast path: every flushed line carries one write epoch (a
                // whole write flushed at once) — a single queue entry.
                let e0 = shadow.epochs[lo];
                if shadow.epochs[lo..=hi].iter().all(|&e| e == e0) {
                    p.push(PendingFlush {
                        dev: self.id,
                        page,
                        mask: dirty,
                        epoch: e0,
                    });
                    continue;
                }
                // Slow path: group the flushed dirty lines by write epoch.
                let mut groups: [(u64, u64); 4] = [(0, 0); 4];
                let mut extra: Vec<(u64, u64)> = Vec::new();
                let mut used = 0usize;
                let mut rem = dirty;
                while rem != 0 {
                    let i = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    let epoch = shadow.epochs[i];
                    let bit = 1u64 << i;
                    if let Some(g) = groups[..used].iter_mut().find(|g| g.0 == epoch) {
                        g.1 |= bit;
                    } else if used < groups.len() {
                        groups[used] = (epoch, bit);
                        used += 1;
                    } else if let Some(g) = extra.iter_mut().find(|g| g.0 == epoch) {
                        g.1 |= bit;
                    } else {
                        extra.push((epoch, bit));
                    }
                }
                for &(epoch, mask) in groups[..used].iter().chain(extra.iter()) {
                    p.push(PendingFlush {
                        dev: self.id,
                        page,
                        mask,
                        epoch,
                    });
                }
            }
        });
    }

    /// Store fence (sfence): every line this thread flushed since its last
    /// fence becomes durable.
    pub fn fence(&self) {
        self.stats.record_fence();
        THREAD_FENCES.with(|m| {
            let mut m = m.borrow_mut();
            match m.iter_mut().find(|(id, _)| *id == self.id) {
                Some((_, n)) => *n += 1,
                None => m.push((self.id, 1)),
            }
        });
        let mut drained = false;
        PENDING_FLUSHES.with(|p| {
            let mut p = p.borrow_mut();
            let mut kept = Vec::new();
            for pf in p.drain(..) {
                if pf.dev != self.id {
                    kept.push(pf);
                    continue;
                }
                drained = true;
                let mut map = self.shard_for(pf.page).lock();
                if let Some(shadow) = map.get_mut(&pf.page) {
                    let mut remaining = pf.mask & shadow.dirty_mask;
                    while remaining != 0 {
                        let li = remaining.trailing_zeros() as usize;
                        if shadow.epochs[li] != pf.epoch {
                            // A newer store invalidated this flush.
                            remaining &= !(1u64 << li);
                            continue;
                        }
                        // Extend to the longest run of contiguous lines that
                        // share this flush's epoch, then persist the run with
                        // one copy: fold current content into the shadow and
                        // clear the dirty bits.
                        let mut run = 1usize;
                        while li + run < LINES_PER_PAGE
                            && remaining & (1u64 << (li + run)) != 0
                            && shadow.epochs[li + run] == pf.epoch
                        {
                            run += 1;
                        }
                        let src = (pf.page * PAGE_SIZE as u64) as usize + li * CACHE_LINE;
                        unsafe {
                            std::ptr::copy_nonoverlapping(
                                self.ptr().add(src),
                                shadow.persisted.as_mut_ptr().add(li * CACHE_LINE),
                                run * CACHE_LINE,
                            );
                        }
                        let run_mask = if run == LINES_PER_PAGE {
                            !0u64
                        } else {
                            ((1u64 << run) - 1) << li
                        };
                        shadow.dirty_mask &= !run_mask;
                        remaining &= !run_mask;
                    }
                    if shadow.dirty_mask == 0 && map.len() > SHADOW_CACHE_PER_SHARD {
                        // Fully persisted and the shard is over its cache
                        // budget. Below the budget the clean shadow is
                        // kept: its `persisted` copy equals the live
                        // content, so the next store to this page skips the
                        // 4 KB capture — the dominant bookkeeping cost on
                        // hot pages (inode table, log tails, rewritten
                        // blocks).
                        map.remove(&pf.page);
                    }
                }
            }
            *p = kept;
        });
        // The persist barrier: sfence stalls until the WPQ acknowledges
        // every outstanding clwb. Only charged when this fence actually had
        // queued flushes to drain — a redundant fence is (nearly) free.
        if drained {
            let profile = *self.latency.lock();
            if profile.fence_ns > 0 {
                let ns = profile.fence_ns as u64;
                self.stats.record_injected(ns);
                self.inject(ns);
            }
        }
    }

    /// Flush + fence the range: the `persist()` helper every PM file system
    /// has.
    pub fn persist(&self, off: u64, len: usize) {
        self.flush(off, len);
        self.fence();
    }

    /// Store and immediately persist.
    pub fn write_persist(&self, off: u64, data: &[u8]) {
        self.write(off, data);
        self.persist(off, data.len());
    }

    /// Number of fences the *calling thread* has issued on this device.
    /// Because fences have per-thread semantics, the delta across a code
    /// path is exact even with concurrent threads fencing the same device —
    /// this is how `nova.write.fences` proves the fence-batching claim.
    pub fn thread_fences(&self) -> u64 {
        THREAD_FENCES.with(|m| {
            m.borrow()
                .iter()
                .find(|(id, _)| *id == self.id)
                .map(|&(_, n)| n)
                .unwrap_or(0)
        })
    }

    /// Number of cache lines currently dirty (stored but not yet durable).
    pub fn dirty_lines(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .values()
                    .map(|p| p.dirty_mask.count_ones() as usize)
                    .sum::<usize>()
            })
            .sum()
    }

    // ------------------------------------------------------------------
    // Crash simulation
    // ------------------------------------------------------------------

    /// Simulate a power failure and return the surviving persistent image as
    /// a fresh device (clean tracking, same latency profile). The original
    /// device is untouched, so tests can compare pre- and post-crash states.
    pub fn crash_clone(&self, mode: CrashMode) -> PmemDevice {
        let clone = PmemBuilder::new(self.size())
            .latency(self.latency())
            .build();
        clone.set_blocking_latency(self.blocking_latency());
        // Copy the current (volatile) view...
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr(), clone.ptr(), self.size());
        }
        // ...then revert every dirty line that does not survive.
        for shard in &self.shards {
            let map = shard.lock();
            for (&page, shadow) in map.iter() {
                for li in 0..LINES_PER_PAGE {
                    if shadow.dirty_mask & (1 << li) == 0 {
                        continue;
                    }
                    let line = page * LINES_PER_PAGE as u64 + li as u64;
                    if !mode.line_survives(line) {
                        let off = (line * CACHE_LINE as u64) as usize;
                        unsafe {
                            std::ptr::copy_nonoverlapping(
                                shadow.persisted.as_ptr().add(li * CACHE_LINE),
                                clone.ptr().add(off),
                                CACHE_LINE,
                            );
                        }
                    }
                }
            }
        }
        clone
    }

    /// The strict persistent image as raw bytes (what survives `crash_clone`
    /// with [`CrashMode::Strict`]).
    pub fn persistent_bytes(&self) -> Vec<u8> {
        let mut data = unsafe { (&*self.buf.get()).to_vec() };
        for shard in &self.shards {
            let map = shard.lock();
            for (&page, shadow) in map.iter() {
                for li in 0..LINES_PER_PAGE {
                    if shadow.dirty_mask & (1 << li) == 0 {
                        continue;
                    }
                    let off = (page * PAGE_SIZE as u64) as usize + li * CACHE_LINE;
                    data[off..off + CACHE_LINE]
                        .copy_from_slice(&shadow.persisted[li * CACHE_LINE..(li + 1) * CACHE_LINE]);
                }
            }
        }
        data
    }

    /// Simulate a power failure *in place*: revert non-surviving dirty lines
    /// and clear all tracking. Used by armed crash points so the same device
    /// can be re-mounted by recovery code.
    pub fn crash_in_place(&self, mode: CrashMode) {
        for shard in &self.shards {
            let mut map = shard.lock();
            for (&page, shadow) in map.iter() {
                for li in 0..LINES_PER_PAGE {
                    if shadow.dirty_mask & (1 << li) == 0 {
                        continue;
                    }
                    let line = page * LINES_PER_PAGE as u64 + li as u64;
                    if !mode.line_survives(line) {
                        let off = (line * CACHE_LINE as u64) as usize;
                        unsafe {
                            std::ptr::copy_nonoverlapping(
                                shadow.persisted.as_ptr().add(li * CACHE_LINE),
                                self.ptr().add(off),
                                CACHE_LINE,
                            );
                        }
                    }
                }
            }
            map.clear();
        }
        PENDING_FLUSHES.with(|p| p.borrow_mut().retain(|pf| pf.dev != self.id));
    }

    /// Save the device's *persistent* image (what would survive a power
    /// failure right now) to a host file. Together with
    /// [`PmemDevice::load_image`] this gives tools durable device images
    /// across process runs — the emulator's stand-in for a real DIMM
    /// surviving reboot.
    pub fn save_image(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.persistent_bytes())
    }

    /// Load a device image previously written by [`PmemDevice::save_image`].
    /// The loaded content is considered persisted (clean tracking).
    pub fn load_image(
        path: &std::path::Path,
        latency: LatencyProfile,
    ) -> std::io::Result<PmemDevice> {
        let data = std::fs::read(path)?;
        Ok(Self::from_bytes(&data, latency))
    }

    /// Build a device from raw image bytes — e.g. a snapshot received over
    /// the network. As with [`PmemDevice::load_image`], the content is
    /// considered persisted (clean tracking), matching the semantics of a
    /// DIMM that held exactly these bytes at power-on.
    pub fn from_bytes(data: &[u8], latency: LatencyProfile) -> PmemDevice {
        let dev = PmemBuilder::new(data.len()).latency(latency).build();
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), dev.ptr(), data.len());
        }
        dev
    }

    /// A named crash point. When the point is armed (see
    /// [`CrashPointRegistry::arm`]) and its trigger hit is reached, the
    /// device crashes in place and the operation unwinds with a
    /// [`SimulatedCrash`] panic payload.
    #[inline]
    pub fn crash_point(&self, name: &str) {
        if !self.crash_points.enabled() {
            return;
        }
        if let Some(hit) = self.crash_points.hit(name) {
            let mode = *self.crash_mode.lock();
            self.crash_in_place(mode);
            std::panic::panic_any(SimulatedCrash {
                point: name.to_string(),
                hit,
            });
        }
    }
}

impl std::fmt::Debug for PmemDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemDevice")
            .field("id", &self.id)
            .field("size", &self.size())
            .field("dirty_lines", &self.dirty_lines())
            .field("latency", &self.latency().name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_read_write() {
        let dev = PmemDevice::new(4096);
        dev.write(100, b"hello pmem");
        let mut buf = [0u8; 10];
        dev.read_into(100, &mut buf);
        assert_eq!(&buf, b"hello pmem");
    }

    #[test]
    fn u64_and_u32_roundtrip() {
        let dev = PmemDevice::new(4096);
        dev.write_u64(8, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(dev.read_u64(8), 0xDEAD_BEEF_CAFE_F00D);
        dev.write_u32(16, 0x1234_5678);
        assert_eq!(dev.read_u32(16), 0x1234_5678);
        dev.write_u8(20, 0xAB);
        assert_eq!(dev.read_u8(20), 0xAB);
    }

    #[test]
    fn with_slice_sees_written_bytes_and_charges_reads() {
        let dev = PmemDevice::new(4096);
        dev.write(64, b"zero copy");
        let before = dev.stats().snapshot().bytes_read;
        let sum = dev.with_slice(64, 9, |s| {
            assert_eq!(s, b"zero copy");
            s.iter().map(|&b| b as u64).sum::<u64>()
        });
        assert_eq!(sum, b"zero copy".iter().map(|&b| b as u64).sum::<u64>());
        assert_eq!(dev.stats().snapshot().bytes_read, before + 9);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn with_slice_out_of_bounds_panics() {
        let dev = PmemDevice::new(128);
        dev.with_slice(120, 16, |_| ());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let dev = PmemDevice::new(128);
        let mut b = [0u8; 8];
        dev.read_into(125, &mut b);
    }

    #[test]
    #[should_panic(expected = "alignment")]
    fn misaligned_atomic_panics() {
        let dev = PmemDevice::new(128);
        dev.atomic_store_u64(3, 1);
    }

    #[test]
    fn unflushed_store_does_not_survive_strict_crash() {
        let dev = PmemDevice::new(4096);
        dev.write(0, b"unflushed");
        let after = dev.crash_clone(CrashMode::Strict);
        assert_eq!(after.read_vec(0, 9), vec![0u8; 9]);
    }

    #[test]
    fn flushed_and_fenced_store_survives() {
        let dev = PmemDevice::new(4096);
        dev.write(0, b"durable!");
        dev.flush(0, 8);
        dev.fence();
        let after = dev.crash_clone(CrashMode::Strict);
        assert_eq!(after.read_vec(0, 8), b"durable!".to_vec());
    }

    #[test]
    fn flush_without_fence_does_not_survive_strict_crash() {
        let dev = PmemDevice::new(4096);
        dev.write(0, b"no-fence");
        dev.flush(0, 8);
        let after = dev.crash_clone(CrashMode::Strict);
        assert_eq!(after.read_vec(0, 8), vec![0u8; 8]);
    }

    #[test]
    fn rewrite_after_persist_reverts_to_persisted_content() {
        let dev = PmemDevice::new(4096);
        dev.write_persist(0, b"version-1");
        dev.write(0, b"version-2");
        let after = dev.crash_clone(CrashMode::Strict);
        assert_eq!(after.read_vec(0, 9), b"version-1".to_vec());
    }

    #[test]
    fn crash_granularity_is_per_line() {
        let dev = PmemDevice::new(4096);
        // Two stores on different lines; persist only the second.
        dev.write(0, b"lineA");
        dev.write(64, b"lineB");
        dev.persist(64, 5);
        let after = dev.crash_clone(CrashMode::Strict);
        assert_eq!(after.read_vec(0, 5), vec![0u8; 5]);
        assert_eq!(after.read_vec(64, 5), b"lineB".to_vec());
    }

    #[test]
    fn atomic_store_is_not_durable_until_persisted() {
        let dev = PmemDevice::new(4096);
        dev.atomic_store_u64(0, 42);
        assert_eq!(dev.atomic_load_u64(0), 42);
        let after = dev.crash_clone(CrashMode::Strict);
        assert_eq!(after.read_u64(0), 0);
        dev.persist(0, 8);
        let after = dev.crash_clone(CrashMode::Strict);
        assert_eq!(after.read_u64(0), 42);
    }

    #[test]
    fn atomic_cas_succeeds_and_fails_correctly() {
        let dev = PmemDevice::new(4096);
        dev.atomic_store_u64(0, 5);
        assert_eq!(dev.atomic_cas_u64(0, 5, 9), Ok(5));
        assert_eq!(dev.read_u64(0), 9);
        assert_eq!(dev.atomic_cas_u64(0, 5, 11), Err(9));
        assert_eq!(dev.read_u64(0), 9);
    }

    #[test]
    fn crash_in_place_allows_reuse() {
        let dev = PmemDevice::new(4096);
        dev.write_persist(0, b"keep");
        dev.write(64, b"lose");
        dev.crash_in_place(CrashMode::Strict);
        assert_eq!(dev.read_vec(0, 4), b"keep".to_vec());
        assert_eq!(dev.read_vec(64, 4), vec![0u8; 4]);
        assert_eq!(dev.dirty_lines(), 0);
    }

    #[test]
    fn adversarial_crash_keeps_some_lines() {
        let dev = PmemDevice::new(64 * 1024);
        for i in 0..256u64 {
            dev.write(i * 64, &[0xFF; 64]);
        }
        let after = dev.crash_clone(CrashMode::Adversarial { seed: 3 });
        let survived = (0..256u64)
            .filter(|&i| after.read_u8(i * 64) == 0xFF)
            .count();
        assert!(survived > 0 && survived < 256, "survived = {survived}");
    }

    #[test]
    fn fence_only_commits_own_thread_flushes() {
        let dev = std::sync::Arc::new(PmemDevice::new(4096));
        dev.write(0, b"thread-a");
        dev.flush(0, 8);
        // Another thread writes, flushes and fences its own line; that fence
        // must not commit thread A's pending flush.
        let d2 = dev.clone();
        std::thread::spawn(move || {
            d2.write(2048, b"thread-b");
            d2.flush(2048, 8);
            d2.fence();
        })
        .join()
        .unwrap();
        let after = dev.crash_clone(CrashMode::Strict);
        assert_eq!(after.read_vec(2048, 8), b"thread-b".to_vec());
        assert_eq!(after.read_vec(0, 8), vec![0u8; 8]);
        // Now fence on this thread; our line becomes durable.
        dev.fence();
        let after = dev.crash_clone(CrashMode::Strict);
        assert_eq!(after.read_vec(0, 8), b"thread-a".to_vec());
    }

    #[test]
    fn write_v_spans_not_durable_until_fenced() {
        let dev = PmemDevice::new(16 * 1024);
        dev.write_v(&[
            (0, b"span-a" as &[u8]),
            (4096, b"span-b"),
            (8192, b"span-c"),
        ]);
        assert_eq!(dev.read_vec(4096, 6), b"span-b".to_vec());
        // Unflushed vectored stores vanish on a strict crash.
        let after = dev.crash_clone(CrashMode::Strict);
        assert_eq!(after.read_vec(0, 6), vec![0u8; 6]);
        assert_eq!(after.read_vec(4096, 6), vec![0u8; 6]);
        // flush_ranges alone (no fence) is still not durable.
        dev.flush_ranges(&[(0, 6), (4096, 6), (8192, 6)]);
        let after = dev.crash_clone(CrashMode::Strict);
        assert_eq!(after.read_vec(8192, 6), vec![0u8; 6]);
        // One fence commits all three ranges.
        dev.fence();
        let after = dev.crash_clone(CrashMode::Strict);
        assert_eq!(after.read_vec(0, 6), b"span-a".to_vec());
        assert_eq!(after.read_vec(4096, 6), b"span-b".to_vec());
        assert_eq!(after.read_vec(8192, 6), b"span-c".to_vec());
    }

    #[test]
    fn write_v_counts_one_store_operation() {
        let dev = PmemDevice::new(16 * 1024);
        dev.write_v(&[(0, &[1u8; 128] as &[u8]), (4096, &[2u8; 64]), (8192, &[])]);
        let s = dev.stats().snapshot();
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_written, 192);
    }

    #[test]
    fn flush_ranges_charges_one_flush_operation() {
        let dev = PmemBuilder::new(16 * 1024)
            .latency(crate::LatencyProfile::optane())
            .build();
        dev.set_latency(crate::LatencyProfile::none());
        dev.write(0, &[1u8; 128]);
        dev.write(4096, &[2u8; 128]);
        dev.set_latency(crate::LatencyProfile::optane());
        dev.flush_ranges(&[(0, 128), (4096, 128)]);
        let s = dev.stats().snapshot();
        // Both ranges' lines are accounted...
        assert_eq!(s.flushes, 4); // 2 × 128 bytes = 4 lines
                                  // ...but the injected cost is ONE flush operation over 4 lines, not
                                  // two operations of 2 lines each (which would pay the per-op latency
                                  // twice).
        let one_op = crate::LatencyProfile::optane().write_cost_ns(4);
        assert_eq!(s.injected_ns, one_op);
    }

    #[test]
    fn fence_charges_barrier_cost_only_when_draining() {
        let dev = PmemBuilder::new(16 * 1024)
            .latency(crate::LatencyProfile::optane())
            .build();
        let fence_ns = crate::LatencyProfile::optane().fence_ns as u64;
        assert!(fence_ns > 0);
        // A fence with nothing queued models an sfence over an empty WPQ:
        // free.
        let before = dev.stats().snapshot().injected_ns;
        dev.fence();
        assert_eq!(dev.stats().snapshot().injected_ns, before);
        // A fence that drains a queued flush pays the barrier cost once.
        dev.set_latency(crate::LatencyProfile::none());
        dev.write(0, &[7u8; 64]);
        dev.set_latency(crate::LatencyProfile::optane());
        dev.flush(0, 64);
        let mid = dev.stats().snapshot().injected_ns;
        dev.fence();
        assert_eq!(dev.stats().snapshot().injected_ns, mid + fence_ns);
        // Redundant follow-up fence: queue already drained, free again.
        dev.fence();
        assert_eq!(dev.stats().snapshot().injected_ns, mid + fence_ns);
    }

    #[test]
    fn clean_shadow_cache_preserves_crash_semantics() {
        // After a fence fully persists a page its shadow may stay cached;
        // the next store must still expose pre-store content to a crash.
        let dev = PmemDevice::new(16 * 1024);
        dev.write(128, b"old-value");
        dev.persist(128, 9);
        // Page is clean now (shadow possibly cached). Overwrite without
        // flushing: a strict crash must roll back to the persisted value.
        dev.write(128, b"NEW-VALUE");
        let crashed = dev.crash_clone(CrashMode::Strict);
        assert_eq!(crashed.read_vec(128, 9), b"old-value".to_vec());
        // And persisting the new store makes it stick.
        dev.persist(128, 9);
        let crashed = dev.crash_clone(CrashMode::Strict);
        assert_eq!(crashed.read_vec(128, 9), b"NEW-VALUE".to_vec());
    }

    #[test]
    fn thread_fences_counts_only_this_thread() {
        let dev = std::sync::Arc::new(PmemDevice::new(4096));
        let before = dev.thread_fences();
        dev.fence();
        dev.fence();
        assert_eq!(dev.thread_fences(), before + 2);
        let d2 = dev.clone();
        std::thread::spawn(move || {
            d2.fence();
            assert_eq!(d2.thread_fences(), 1);
        })
        .join()
        .unwrap();
        // The other thread's fence is invisible here.
        assert_eq!(dev.thread_fences(), before + 2);
    }

    #[test]
    fn stats_count_operations() {
        let dev = PmemDevice::new(4096);
        dev.write(0, &[1u8; 128]);
        dev.persist(0, 128);
        dev.read_vec(0, 128);
        let s = dev.stats().snapshot();
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_written, 128);
        assert_eq!(s.flushes, 2); // 128 bytes = 2 lines
        assert_eq!(s.fences, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_read, 128);
    }

    #[test]
    fn crash_point_fires_and_unwinds() {
        let dev = PmemDevice::new(4096);
        dev.crash_points().arm("test::point", 0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.write_persist(0, b"before");
            dev.write(64, b"after");
            dev.crash_point("test::point");
            dev.persist(64, 5);
        }));
        let err = result.unwrap_err();
        let crash = err.downcast_ref::<SimulatedCrash>().expect("crash payload");
        assert_eq!(crash.point, "test::point");
        // Persisted data survived, unflushed did not.
        assert_eq!(dev.read_vec(0, 6), b"before".to_vec());
        assert_eq!(dev.read_vec(64, 5), vec![0u8; 5]);
    }

    #[test]
    fn unarmed_crash_point_is_a_noop() {
        let dev = PmemDevice::new(4096);
        dev.crash_point("never::armed");
        dev.crash_points().set_enabled(true);
        dev.crash_point("never::armed");
        assert_eq!(dev.crash_points().hits("never::armed"), 1);
    }

    #[test]
    fn memset_zeroes_pages() {
        let dev = PmemDevice::new(8192);
        dev.write(4096, &[0xAAu8; 4096]);
        dev.memset(4096, 4096, 0);
        assert_eq!(dev.read_vec(4096, 4096), vec![0u8; 4096]);
    }

    #[test]
    fn persistent_bytes_matches_strict_crash_clone() {
        let dev = PmemDevice::new(4096);
        dev.write_persist(0, b"persisted");
        dev.write(512, b"volatile");
        let img = dev.persistent_bytes();
        let clone = dev.crash_clone(CrashMode::Strict);
        assert_eq!(img, clone.read_vec(0, clone.size()));
    }

    #[test]
    fn image_roundtrip_preserves_persistent_state_only() {
        let dir = std::env::temp_dir().join(format!("pmem-img-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("dev.img");
        let dev = PmemDevice::new(8192);
        dev.write_persist(0, b"durable");
        dev.write(4096, b"volatile"); // never flushed
        dev.save_image(&path).unwrap();
        let loaded = PmemDevice::load_image(&path, crate::LatencyProfile::none()).unwrap();
        assert_eq!(loaded.size(), 8192);
        assert_eq!(loaded.read_vec(0, 7), b"durable".to_vec());
        assert_eq!(loaded.read_vec(4096, 8), vec![0u8; 8]);
        // Loaded content is persisted: an immediate crash keeps it.
        let after = loaded.crash_clone(CrashMode::Strict);
        assert_eq!(after.read_vec(0, 7), b"durable".to_vec());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn size_rounds_up_to_cache_line() {
        let dev = PmemDevice::new(100);
        assert_eq!(dev.size(), 128);
    }

    #[test]
    fn concurrent_writers_distinct_regions() {
        let dev = std::sync::Arc::new(PmemDevice::new(64 * 1024));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let d = dev.clone();
            handles.push(std::thread::spawn(move || {
                let base = t * 8192;
                for i in 0..8u64 {
                    let off = base + i * 1024;
                    d.write(off, &[t as u8 + 1; 512]);
                    d.persist(off, 512);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let after = dev.crash_clone(CrashMode::Strict);
        for t in 0..8u64 {
            for i in 0..8u64 {
                let off = t * 8192 + i * 1024;
                assert_eq!(after.read_vec(off, 512), vec![t as u8 + 1; 512]);
            }
        }
    }
}
