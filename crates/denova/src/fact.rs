//! FACT — the Failure Atomic Consistent Table (paper Section IV-C).
//!
//! FACT is a *persistent, DRAM-free* deduplication index: a static linear
//! table of 64 B entries living entirely in PM. It is split into
//!
//! * the **direct access area (DAA)** — `2^n` entries indexed directly by
//!   the n-bit prefix of a chunk's SHA-1 fingerprint (one PM read per
//!   lookup when there is no prefix collision), and
//! * the **indirect access area (IAA)** — another `2^n` entries holding
//!   prefix-collision chains as doubly-linked lists hanging off the DAA
//!   entry.
//!
//! Each entry is exactly one cache line, so any field update persists with a
//! single flush + fence. The (RFC, UC) counter pair shares the first 8 bytes
//! and is updated with one atomic 64-bit operation — the paper's count-based
//! consistency primitive ("after the transactions become persistent, an
//! atomic update decreases the UC and increases the RFC").
//!
//! The **delete pointer** gives reclaim an O(1) reverse index: the entry at
//! table index `B` stores, in its delete-pointer field, the index of the
//! FACT entry whose canonical block is `B`. Resolving a block to its FACT
//! entry therefore takes *exactly two PM reads* (asserted by tests). A slot
//! thus serves two independent roles — dedup metadata keyed by FP prefix,
//! and delete-pointer cell keyed by block number — so writers must never
//! clobber the other role's bytes.
//!
//! Entry layout (64 B, Fig. 4):
//!
//! ```text
//! 0..4    RFC  (u32)     reference count
//! 4..8    UC   (u32)     update count (in-flight dedup transactions)
//! 8..28   FP   (20 B)    SHA-1 fingerprint
//! 28..36  block (u64)    canonical data block (first block of a run)
//! 36..44  prev (i64)     IAA chain predecessor (0 = chain head sentinel)
//! 44..52  next (i64)     IAA chain successor (-1 = none)
//! 52..60  delete pointer (i64, -1 = none)
//! 60..64  run_pages (u32, 0 or 1 = per-page record)
//! ```
//!
//! **Extent runs.** A record with `run_pages = N > 1` is a *run anchor*: it
//! stands for the `N` physically consecutive canonical blocks
//! `block .. block + N`, all sharing one reference count — `RFC = R` means
//! *each* block of the run has exactly `R` owners. The delete pointers of
//! every covered block point at the anchor, so reclaim still resolves any
//! run block in two PM reads. The anchor's fingerprint is that of the
//! *first* block; the interior per-page records are removed at promotion
//! ([`Fact::merge_run`]) and recreated — re-fingerprinted from the
//! canonical bytes — when per-block granularity is needed again
//! ([`Fact::demote_run`]). `run_pages` is written with its own 4-byte
//! persist and serves as the commit point for both directions;
//! [`Fact::repair_runs`] finishes a half-done promotion after a crash by
//! absorbing leftover per-page records into the range their anchor claims.
//!
//! **Anchor first.** Demotion and splitting re-create per-page records for
//! blocks whose content may already be registered under another canonical
//! block, so one chain can hold several records with the same fingerprint.
//! A lookup stops at the first match, and only an anchor hit shares a run's
//! tail wholesale (interior fingerprints are invisible), so the rule is:
//! *when a run anchor and a per-page record share a fingerprint, a chain
//! walk meets the anchor first*. It is enforced where anchors are made
//! ([`Fact::merge_run`], and through it [`Fact::split_run`]): per-page
//! records ahead of the anchor-to-be move to the chain tail before the run
//! commits. Inserts append at the tail and the reorderer never sorts a
//! per-page record ahead of an anchor with its fingerprint, so nothing else
//! can break it; `fsck_fact` asserts it.
//!
//! **Concurrency: one reserve, one release.** `Fact` keeps no per-
//! fingerprint DRAM state; [`Fact::lookup`] is the DAA read plus the IAA
//! walk, takes no lock, and is advisory (it can race a chain mutation and
//! miss). Everything that decides takes the fingerprint's stripe lock:
//!
//! * *reserve* ([`Fact::reserve_or_insert`], [`Fact::reserve_existing`],
//!   [`Fact::reserve_block`]) walks the chain once under the lock and either
//!   adds `UC += 1` to the record it finds or inserts a fresh one with
//!   `UC = 1`;
//! * *release* ([`Fact::release`]: an owner's RFC for reclaim, or the UC of
//!   a reservation given back) re-resolves the block under the same lock,
//!   drops one count, and removes the record when that leaves `(0, 0)`.
//!
//! A record seen at `(0, 0)` therefore cannot gain a sharer before it is
//! cleared, and a record with a sharer in flight is never cleared. The
//! UC → RFC commit stays a lock-free atomic on the slot the reservation
//! returned.

use crate::stats::DedupStats;
use denova_fingerprint::Fingerprint;
use denova_nova::recovery::phase;
use denova_nova::{Layout, NovaError, PhaseCost, Result};
use denova_pmem::PmemDevice;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Number of chain-lock stripes, by FP prefix. A stripe serializes chain-
/// structure mutations (insert/remove/reorder) and the reserve/release
/// decisions on the records of its chains.
const STRIPES: usize = 256;

/// Section IV-E's dual-threshold reorder trigger: a reservation that walked
/// past `REORDER_WALK` entries to reach one with `RFC >= REORDER_RFC` flags
/// its chain for the daemon.
const REORDER_WALK: u64 = 3;
const REORDER_RFC: u32 = 2;

const OFF_COUNTERS: u64 = 0;
const OFF_PREV: u64 = 36;
const OFF_NEXT: u64 = 44;
const OFF_DELETE_PTR: u64 = 52;
const OFF_RUN_PAGES: u64 = 60;

/// Chain-terminator / empty-field sentinel for `prev`, `next`, `delete_ptr`.
pub const NIL: i64 = -1;

/// Default extent promotion threshold: 16 pages = 64 KiB of consecutive
/// duplicate data.
pub const DEFAULT_EXTENT_THRESHOLD_PAGES: u32 = 16;

/// A decoded FACT entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FactEntry {
    /// The `rfc` value.
    pub rfc: u32,
    /// The `uc` value.
    pub uc: u32,
    /// The `fp` value.
    pub fp: Fingerprint,
    /// The `block` value.
    pub block: u64,
    /// The `prev` value.
    pub prev: i64,
    /// The `next` value.
    pub next: i64,
    /// The `delete_ptr` value.
    pub delete_ptr: i64,
    /// Pages covered by this record: 1 for a per-page record, `N > 1` for a
    /// run anchor standing for blocks `block .. block + N` (a stored 0 —
    /// pre-extent images — decodes as 1).
    pub run_pages: u32,
}

impl FactEntry {
    /// Decode one 64 B slot.
    fn decode(b: &[u8]) -> FactEntry {
        FactEntry {
            rfc: u32::from_le_bytes(b[0..4].try_into().unwrap()),
            uc: u32::from_le_bytes(b[4..8].try_into().unwrap()),
            fp: Fingerprint::from_bytes(b[8..28].try_into().unwrap()),
            block: u64::from_le_bytes(b[28..36].try_into().unwrap()),
            prev: i64::from_le_bytes(b[36..44].try_into().unwrap()),
            next: i64::from_le_bytes(b[44..52].try_into().unwrap()),
            delete_ptr: i64::from_le_bytes(b[52..60].try_into().unwrap()),
            run_pages: u32::from_le_bytes(b[60..64].try_into().unwrap()).max(1),
        }
    }

    /// Whether the slot holds live dedup metadata (the FP of real data is
    /// never all-zero).
    pub fn is_occupied(&self) -> bool {
        !self.fp.is_zero()
    }

    /// Whether this (occupied) record stands for `block`: its canonical
    /// block, or any block of the run it anchors.
    fn covers(&self, block: u64) -> bool {
        self.is_occupied() && block >= self.block && block - self.block < self.run_pages as u64
    }
}

/// Handle to the persistent FACT region of a formatted device.
pub struct Fact {
    dev: Arc<PmemDevice>,
    layout: Layout,
    /// DRAM cache of free IAA slots. This is *allocator* state (like NOVA's
    /// free lists), not lookup-index state — lookups never touch it — so the
    /// paper's DRAM-free-indexing property holds. Rebuilt by a single FACT
    /// scan on mount.
    iaa_free: Mutex<IaaFree>,
    /// Chain-structure locks, striped by FP prefix.
    stripes: Vec<Mutex<()>>,
    stats: Arc<DedupStats>,
    /// Prefixes whose chains deserve reordering (see [`REORDER_WALK`]).
    /// Drained by the daemon.
    reorder_candidates: Mutex<HashSet<u64>>,
    /// Calibrated fingerprint cost model shared by every dedup path.
    fp: crate::fp::FpThrottle,
    /// Duplicate runs at least this many pages long are promoted into one
    /// extent-run record ([`Fact::merge_run`]). 0 disables promotion — the
    /// per-block baseline the bench harness compares against.
    extent_threshold_pages: AtomicU32,
    /// Serializes run-granularity transitions ([`Fact::merge_run`] /
    /// [`Fact::demote_run`]): two overlapping transitions on the same range
    /// would double-cover blocks. Always taken *before* any stripe lock.
    run_lock: Mutex<()>,
}

#[derive(Debug)]
struct IaaFree {
    /// Recycled IAA slots.
    stack: Vec<u64>,
    /// Next never-used IAA slot.
    cursor: u64,
}

/// Which count a [`Fact::release`] drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// Reclaim: one owner of the block lets go (`RFC -= 1`).
    Rfc,
    /// A reservation is given back (`UC -= 1` without the RFC credit).
    Uc,
}

/// What a [`Fact::release`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Released {
    /// FACT has no record covering the block.
    Untracked,
    /// The record still has owners or reservations in flight.
    Kept,
    /// The drop left `(0, 0)`: the record is gone and the block has no
    /// owner — the caller frees it.
    Removed,
}

/// What one streaming pass over the table ([`Fact::survey`]) saw: every
/// consumer that used to walk FACT itself — the mount's free-slot scan, both
/// halves of run repair, UC discard, reorder repair, the scrub, fsck — reads
/// this instead, in DRAM.
///
/// A survey is a *transient* picture of the persistent table, dropped when
/// its consumer returns: it indexes nothing, no lookup or reclaim ever sees
/// it, and a running `Fact` keeps no per-fingerprint DRAM state — the
/// paper's DRAM-free-index property is about steady state, which this does
/// not touch. It goes stale as soon as the table is modified; consumers
/// that act on it re-read the slots they are about to touch.
#[derive(Debug)]
pub struct Survey {
    /// The delete-pointer column: cell `b` is block `b`'s reverse index.
    delete_ptr: Vec<i64>,
    /// Occupied slots in index order.
    occupied: Vec<(u64, FactEntry)>,
    /// Unoccupied IAA slots, descending ([`Fact::mount_surveyed`] moves them
    /// into the allocator).
    free_iaa: Vec<u64>,
    /// Device reads (one per table block) and wall time of the pass.
    cost: PhaseCost,
}

impl Survey {
    /// Occupied slots, in index order.
    pub fn occupied(&self) -> &[(u64, FactEntry)] {
        &self.occupied
    }

    /// The surveyed record at `idx`, if the slot was occupied.
    pub fn entry(&self, idx: u64) -> Option<&FactEntry> {
        let at = self.occupied.binary_search_by_key(&idx, |&(i, _)| i).ok()?;
        Some(&self.occupied[at].1)
    }

    /// [`Fact::resolve_block`] answered from the survey: the record the
    /// delete-pointer column names for `block`, if it covers the block.
    pub fn resolve(&self, block: u64) -> Option<(u64, &FactEntry)> {
        let idx = u64::try_from(*self.delete_ptr.get(block as usize)?).ok()?;
        let e = self.entry(idx)?;
        e.covers(block).then_some((idx, e))
    }

    /// Unoccupied IAA slots, descending — the stack the allocator pops, so
    /// recycled slots are served in ascending order (empty once
    /// [`Fact::mount_surveyed`] has moved them into the allocator).
    pub fn free_iaa(&self) -> &[u64] {
        &self.free_iaa
    }

    /// Device reads (one per table block) and wall time of the pass.
    pub fn cost(&self) -> PhaseCost {
        self.cost
    }

    /// Forget the surveyed update count of `idx` (recovery just discarded
    /// it on the device).
    pub(crate) fn clear_uc(&mut self, idx: u64) {
        if let Ok(at) = self.occupied.binary_search_by_key(&idx, |&(i, _)| i) {
            self.occupied[at].1.uc = 0;
        }
    }
}

impl Fact {
    /// Attach to the FACT region of a freshly-formatted device (all slots
    /// empty).
    pub fn new(dev: Arc<PmemDevice>, layout: Layout, stats: Arc<DedupStats>) -> Fact {
        Fact {
            iaa_free: Mutex::new(IaaFree {
                stack: Vec::new(),
                cursor: layout.daa_entries(),
            }),
            stripes: (0..STRIPES).map(|_| Mutex::new(())).collect(),
            reorder_candidates: Mutex::new(HashSet::new()),
            fp: crate::fp::FpThrottle::none(),
            extent_threshold_pages: AtomicU32::new(DEFAULT_EXTENT_THRESHOLD_PAGES),
            run_lock: Mutex::new(()),
            dev,
            layout,
            stats,
        }
    }

    /// Attach to an existing FACT region, rebuilding the IAA free-slot stack
    /// — the only DRAM state there is — from one streaming pass over the
    /// IAA (mount-time cost, like NOVA's log scan).
    pub fn mount(dev: Arc<PmemDevice>, layout: Layout, stats: Arc<DedupStats>) -> Fact {
        let fact = Fact::new(dev, layout, stats);
        let mut free = Vec::new();
        fact.stream(fact.daa_entries()..fact.entries(), |idx, e| {
            if !e.is_occupied() {
                free.push(idx);
            }
        });
        // Descending, so recycled slots are served in ascending order.
        free.reverse();
        fact.set_free_iaa(free);
        fact
    }

    /// [`Fact::mount`] for a crash mount: one streaming pass over the
    /// *whole* table yields the IAA free-slot stack and the [`Survey`] that
    /// run repair, UC discard, reorder repair and the scrub of
    /// [`crate::recovery::recover`] consume, so recovery walks FACT once.
    pub fn mount_surveyed(
        dev: Arc<PmemDevice>,
        layout: Layout,
        stats: Arc<DedupStats>,
    ) -> (Fact, Survey) {
        let fact = Fact::new(dev, layout, stats);
        let mut survey = fact.survey();
        fact.set_free_iaa(std::mem::take(&mut survey.free_iaa));
        (fact, survey)
    }

    /// Install the free-slot stack a mount-time pass found (descending; no
    /// never-used slots remain to hand out past it).
    fn set_free_iaa(&self, stack: Vec<u64>) {
        *self.iaa_free.lock() = IaaFree {
            stack,
            cursor: self.entries(),
        };
    }

    /// Set the extent promotion threshold in pages (0 disables promotion).
    pub fn set_extent_threshold_pages(&self, pages: u32) {
        self.extent_threshold_pages.store(pages, Ordering::Relaxed);
    }

    /// Duplicate-run length (pages) at which the dedup daemon promotes the
    /// run's per-page records into one extent record; 0 = never.
    pub fn extent_threshold_pages(&self) -> u32 {
        self.extent_threshold_pages.load(Ordering::Relaxed)
    }

    /// Total entries (DAA + IAA).
    pub fn entries(&self) -> u64 {
        self.layout.fact_entries()
    }

    /// Entries in the DAA (== first IAA index).
    pub fn daa_entries(&self) -> u64 {
        self.layout.daa_entries()
    }

    /// FP prefix length in bits (`n`).
    pub fn prefix_bits(&self) -> u32 {
        self.layout.fact_prefix_bits
    }

    /// The device this table lives on.
    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.dev
    }

    /// Shared dedup statistics.
    pub fn stats(&self) -> &Arc<DedupStats> {
        &self.stats
    }

    /// The fingerprint cost model (see [`crate::fp::FpThrottle`]).
    pub fn fp(&self) -> &crate::fp::FpThrottle {
        &self.fp
    }

    /// Fingerprint a chunk through the calibrated cost model, counting the
    /// 4 KB chunks it is charged for.
    pub fn fingerprint(&self, data: &[u8]) -> Fingerprint {
        self.stats
            .record_fingerprints(crate::fp::chunks_4k(data.len()));
        self.fp.fingerprint(data)
    }

    #[inline]
    fn off(&self, idx: u64) -> u64 {
        self.layout.fact_entry_off(idx)
    }

    /// The stripe lock guarding the chain of `fp`'s prefix. Exposed for the
    /// reorderer, which mutates chain links.
    pub(crate) fn lock_chain(&self, prefix: u64) -> parking_lot::MutexGuard<'_, ()> {
        self.stripes[(prefix as usize) % STRIPES].lock()
    }

    // ------------------------------------------------------------------
    // Raw entry access
    // ------------------------------------------------------------------

    /// Read and decode the entry at `idx` (one 64 B PM read).
    pub fn read_entry(&self, idx: u64) -> FactEntry {
        let mut b = [0u8; 64];
        self.dev.read_into(self.off(idx), &mut b);
        FactEntry::decode(&b)
    }

    /// Stream slots `range` through `f` in index order, one block-sized
    /// device read per 64 slots — the unit the data read path pays, so a
    /// full-table pass costs `fact_blocks` device operations, not
    /// `entries`. Every whole-table reader (mount, the recovery survey,
    /// [`Fact::for_each_occupied`], the scrubber, fsck) goes through here.
    fn stream(&self, range: std::ops::Range<u64>, mut f: impl FnMut(u64, FactEntry)) {
        const SLOT: usize = denova_nova::layout::FACT_ENTRY_SIZE as usize;
        let per_read = denova_nova::BLOCK_SIZE / SLOT as u64;
        let mut buf = [0u8; denova_nova::BLOCK_SIZE as usize];
        let mut idx = range.start;
        while idx < range.end {
            let n = per_read.min(range.end - idx);
            let bytes = &mut buf[..n as usize * SLOT];
            self.dev.read_into(self.off(idx), bytes);
            for (k, slot) in bytes.chunks_exact(SLOT).enumerate() {
                f(idx + k as u64, FactEntry::decode(slot));
            }
            idx += n;
        }
    }

    /// One streaming pass over the whole table, kept in transient DRAM:
    /// what a crash mount, the scrubber and fsck need to know about every
    /// slot, so none of them walks the table again (see [`Survey`]).
    pub fn survey(&self) -> Survey {
        let mut survey = Survey {
            delete_ptr: Vec::with_capacity(self.entries() as usize),
            occupied: Vec::new(),
            free_iaa: Vec::new(),
            cost: PhaseCost::default(),
        };
        ((), survey.cost) = phase(&self.dev, "denova.fact.survey", || {
            self.stream(0..self.entries(), |idx, e| {
                survey.delete_ptr.push(e.delete_ptr);
                if e.is_occupied() {
                    survey.occupied.push((idx, e));
                } else if idx >= self.daa_entries() {
                    survey.free_iaa.push(idx);
                }
            });
        });
        // Descending, so recycled slots are served in ascending order.
        survey.free_iaa.reverse();
        survey
    }

    /// Write the dedup-metadata fields (counters, FP, block, prev, next,
    /// run_pages) of slot `idx`, *preserving* its delete-pointer field, and
    /// persist with a single flush (one cache line).
    fn write_metadata(&self, idx: u64, e: &FactEntry) {
        let base = self.off(idx);
        let mut head = [0u8; 52];
        head[0..4].copy_from_slice(&e.rfc.to_le_bytes());
        head[4..8].copy_from_slice(&e.uc.to_le_bytes());
        head[8..28].copy_from_slice(e.fp.as_bytes());
        head[28..36].copy_from_slice(&e.block.to_le_bytes());
        head[36..44].copy_from_slice(&e.prev.to_le_bytes());
        head[44..52].copy_from_slice(&e.next.to_le_bytes());
        self.dev.write(base, &head);
        self.dev
            .write(base + OFF_RUN_PAGES, &e.run_pages.max(1).to_le_bytes());
        self.dev.persist(base, 64);
        self.stats.bump_flushes(1);
    }

    /// Clear the dedup-metadata fields of slot `idx` (delete pointer
    /// preserved — the slot may still serve as another block's reverse
    /// index).
    fn clear_metadata(&self, idx: u64) {
        self.write_metadata(
            idx,
            &FactEntry {
                rfc: 0,
                uc: 0,
                fp: Fingerprint::zero(),
                block: 0,
                prev: NIL,
                next: NIL,
                delete_ptr: NIL, // ignored by write_metadata
                run_pages: 1,
            },
        );
    }

    pub(crate) fn write_prev(&self, idx: u64, prev: i64) {
        let off = self.off(idx) + OFF_PREV;
        self.dev.write(off, &prev.to_le_bytes());
        self.dev.persist(off, 8);
        self.stats.bump_flushes(1);
    }

    pub(crate) fn write_next(&self, idx: u64, next: i64) {
        let off = self.off(idx) + OFF_NEXT;
        self.dev.write(off, &next.to_le_bytes());
        self.dev.persist(off, 8);
        self.stats.bump_flushes(1);
    }

    pub(crate) fn read_prev(&self, idx: u64) -> i64 {
        let mut b = [0u8; 8];
        self.dev.read_into(self.off(idx) + OFF_PREV, &mut b);
        i64::from_le_bytes(b)
    }

    pub(crate) fn read_next(&self, idx: u64) -> i64 {
        let mut b = [0u8; 8];
        self.dev.read_into(self.off(idx) + OFF_NEXT, &mut b);
        i64::from_le_bytes(b)
    }

    /// Set the delete pointer stored in slot `block` to `fact_idx` ("the
    /// block address B is used as an index to set the delete pointer
    /// field").
    fn set_delete_ptr(&self, block: u64, fact_idx: i64) {
        debug_assert!(block < self.entries(), "block exceeds FACT range");
        let off = self.off(block) + OFF_DELETE_PTR;
        self.dev.write(off, &fact_idx.to_le_bytes());
        self.dev.persist(off, 8);
        self.stats.bump_flushes(1);
    }

    /// The delete pointer stored in slot `block` (the reverse index cell).
    fn read_delete_ptr(&self, block: u64) -> i64 {
        let mut b = [0u8; 8];
        self.dev.read_into(self.off(block) + OFF_DELETE_PTR, &mut b);
        i64::from_le_bytes(b)
    }

    /// Persist `run_pages` of slot `idx` with one 4-byte flush — the commit
    /// point for run promotion (`1 → N`) and demotion (`N → 1`).
    fn write_run_pages(&self, idx: u64, n: u32) {
        let off = self.off(idx) + OFF_RUN_PAGES;
        self.dev.write(off, &n.max(1).to_le_bytes());
        self.dev.persist(off, 4);
        self.stats.bump_flushes(1);
    }

    // ------------------------------------------------------------------
    // Counters (atomic, lock-free)
    // ------------------------------------------------------------------

    /// Current (RFC, UC) of slot `idx`.
    pub fn counters(&self, idx: u64) -> (u32, u32) {
        let v = self.dev.atomic_load_u64(self.off(idx) + OFF_COUNTERS);
        ((v & 0xFFFF_FFFF) as u32, (v >> 32) as u32)
    }

    fn cas_counters(
        &self,
        idx: u64,
        f: impl Fn(u32, u32) -> Option<(u32, u32)>,
    ) -> Option<(u32, u32)> {
        let off = self.off(idx) + OFF_COUNTERS;
        let mut cur = self.dev.atomic_load_u64(off);
        loop {
            let rfc = (cur & 0xFFFF_FFFF) as u32;
            let uc = (cur >> 32) as u32;
            let (nrfc, nuc) = f(rfc, uc)?;
            let new = nrfc as u64 | ((nuc as u64) << 32);
            match self.dev.atomic_cas_u64(off, cur, new) {
                Ok(_) => {
                    self.dev.persist(off, 8);
                    self.stats.bump_flushes(1);
                    return Some((nrfc, nuc));
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Step ③ of the dedup flow: register an in-flight transaction
    /// (`UC += 1`). Adding a sharer to a live record is only sound under
    /// the record's stripe lock — the reserve calls are the way in.
    pub(crate) fn inc_uc(&self, idx: u64) {
        self.cas_counters(idx, |rfc, uc| Some((rfc, uc + 1)));
    }

    /// Step ⑥: the transaction is persistent — atomically `UC -= 1,
    /// RFC += 1` in one 64-bit store. Returns false if `UC` was already 0
    /// (recovery discarded it; nothing to commit).
    pub fn commit_uc_to_rfc(&self, idx: u64) -> bool {
        self.cas_counters(idx, |rfc, uc| {
            if uc == 0 {
                None
            } else {
                Some((rfc + 1, uc - 1))
            }
        })
        .is_some()
    }

    /// `UC -= 1` without the RFC credit. Returns the counters after the
    /// decrement, or `None` if UC was already 0. Raw step of [`Fact::release`].
    pub(crate) fn abort_uc(&self, idx: u64) -> Option<(u32, u32)> {
        self.cas_counters(
            idx,
            |rfc, uc| if uc == 0 { None } else { Some((rfc, uc - 1)) },
        )
    }

    /// Recovery: discard a stale update count ("these UCs are set to 0 at
    /// system reboot").
    /// Returns whether there was one to discard.
    pub fn reset_uc(&self, idx: u64) -> bool {
        self.cas_counters(idx, |rfc, uc| if uc == 0 { None } else { Some((rfc, 0)) })
            .is_some()
    }

    /// `RFC -= 1`. Returns the counters after the decrement, or `None` if
    /// RFC was already 0 (left untouched; the scrubber reconciles such
    /// over-decrements). Raw step of [`Fact::release`].
    pub(crate) fn dec_rfc(&self, idx: u64) -> Option<(u32, u32)> {
        self.cas_counters(
            idx,
            |rfc, uc| if rfc == 0 { None } else { Some((rfc - 1, uc)) },
        )
    }

    /// Recovery scrubber: force RFC to an exact recomputed value.
    pub fn set_rfc(&self, idx: u64, rfc: u32) {
        self.cas_counters(idx, |_, uc| Some((rfc, uc)));
    }

    // ------------------------------------------------------------------
    // Lookup / insert / remove
    // ------------------------------------------------------------------

    /// One lookup, counted: walk `fp`'s chain — the DAA entry at its prefix,
    /// then the IAA list. `Ok` is the slot, the record and the entries read
    /// to reach it; `Err` is where an insert would link — the chain's last
    /// entry, or `None` when the DAA slot itself is free.
    fn walk(
        &self,
        prefix: u64,
        fp: &Fingerprint,
    ) -> std::result::Result<(u64, FactEntry, u64), Option<u64>> {
        self.stats.bump_lookups();
        let mut idx = prefix;
        let mut reads = 0u64;
        let found = loop {
            let entry = self.read_entry(idx);
            reads += 1;
            if entry.is_occupied() && entry.fp == *fp {
                break Ok((idx, entry, reads));
            }
            if !entry.is_occupied() && idx == prefix {
                break Err(None); // nothing with this prefix exists
            }
            // The chain ends at NIL. An unlocked walk can also catch a link
            // mid-store (the 8-byte field is not 8-byte aligned) or a cycle
            // the reorderer's in-place relinking passes through; no chain
            // outgrows the table, so an out-of-range link or that many reads
            // end the walk the same way.
            let linked = (0..self.entries() as i64).contains(&entry.next);
            if !linked || reads >= self.entries() {
                break Err(Some(idx));
            }
            idx = entry.next as u64;
        };
        let direct = match found {
            Ok((idx, ..)) => idx < self.daa_entries(),
            Err(tail) => tail.is_none(),
        };
        self.stats.record_lookup_reads(reads, direct);
        found
    }

    /// Look up `fp`: one PM read of the DAA entry at its prefix, plus the IAA
    /// walk on a prefix collision. Takes no lock, so it may race a chain
    /// mutation and miss a present fingerprint; callers that act on the
    /// answer go through a reserve call, which repeats the walk under the
    /// stripe lock.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<(u64, FactEntry)> {
        let hit = self.walk(fp.prefix(self.prefix_bits()), fp).ok();
        hit.map(|(idx, entry, _)| (idx, entry))
    }

    /// The reserve step, with `prefix`'s stripe lock held: walk the chain
    /// once and add `UC += 1` to the record holding `fp`. A miss hands back
    /// where the walk ended (see [`Fact::walk`]), for the insert.
    fn reserve_locked(
        &self,
        prefix: u64,
        fp: &Fingerprint,
    ) -> std::result::Result<(u64, FactEntry), Option<u64>> {
        let (idx, entry, reads) = self.walk(prefix, fp)?;
        if reads > REORDER_WALK && entry.rfc >= REORDER_RFC {
            self.reorder_candidates.lock().insert(prefix);
        }
        self.inc_uc(idx);
        self.stats.bump_hits();
        self.dev
            .metrics()
            .event("fact.hit", &[("idx", idx), ("block", entry.block)]);
        Ok((idx, entry))
    }

    /// Reserve a transaction against `fp`'s record (`UC += 1`), or insert a
    /// fresh record for `(fp, block)` with `UC = 1`. Returns the slot and
    /// the record as found (or as inserted); callers tell a duplicate from
    /// their own fresh insert by the returned record's canonical block.
    pub fn reserve_or_insert(&self, fp: &Fingerprint, block: u64) -> Result<(u64, FactEntry)> {
        let prefix = fp.prefix(self.prefix_bits());
        let _guard = self.lock_chain(prefix);
        let tail = match self.reserve_locked(prefix, fp) {
            Ok(hit) => return Ok(hit),
            Err(tail) => tail,
        };
        let inserted = self.insert_at(prefix, tail, fp, block, (0, 1))?;
        self.stats.bump_misses();
        self.stats.bump_inserts();
        self.dev
            .metrics()
            .event("fact.miss", &[("idx", inserted.0), ("block", block)]);
        Ok(inserted)
    }

    /// Reserve against `fp`'s record if there is one — the peek of a writer
    /// that has not yet stored the chunk and only allocates on a miss.
    pub fn reserve_existing(&self, fp: &Fingerprint) -> Option<(u64, FactEntry)> {
        let prefix = fp.prefix(self.prefix_bits());
        let _guard = self.lock_chain(prefix);
        self.reserve_locked(prefix, fp).ok()
    }

    /// Lock the stripe of the record covering `block` and hand the record
    /// back as it is under the lock; `None` if FACT does not track the
    /// block. The record's fingerprint names the stripe, so it takes an
    /// unlocked peek first — and another round if the record moved slots or
    /// went away before the lock was ours.
    fn lock_record(&self, block: u64) -> Option<(parking_lot::MutexGuard<'_, ()>, u64, FactEntry)> {
        loop {
            let (idx, peek) = self.resolve_block(block)?;
            let guard = self.lock_chain(peek.fp.prefix(self.prefix_bits()));
            let e = self.read_entry(idx);
            if e.fp == peek.fp && e.covers(block) {
                return Some((guard, idx, e));
            }
        }
    }

    /// Reserve against the per-page record whose canonical block is `block`
    /// — extent growth reaches its next record by block number, not by
    /// fingerprint.
    pub fn reserve_block(&self, block: u64) -> Option<(u64, FactEntry)> {
        let (_guard, idx, e) = self.lock_record(block)?;
        if e.run_pages > 1 {
            return None;
        }
        self.inc_uc(idx);
        Some((idx, e))
    }

    /// Drop one count from the record covering `block` and remove the record
    /// when that leaves `(0, 0)` — all under the record's stripe lock, where
    /// every reserve also runs, so the decision cannot be overtaken.
    /// `Removed` means no owner and no transaction is left — for a
    /// reservation given back: every owner let go while it was out and their
    /// reclaim answered `Keep` — so the block is the caller's to free.
    pub fn release(&self, block: u64, count: Count) -> Released {
        loop {
            let Some((guard, idx, e)) = self.lock_record(block) else {
                return Released::Untracked;
            };
            let dropped = match (count, e.run_pages > 1) {
                (Count::Uc, _) => self.abort_uc(idx),
                (Count::Rfc, false) => self.dec_rfc(idx),
                // A run's single RFC counts owners of *every* covered block.
                // Releasing one block must move one block's count only, so
                // split the run back into per-page records first. If the
                // split cannot register records (FACT full), keep the page
                // — leaking a block beats corrupting shared counts.
                (Count::Rfc, true) => {
                    drop(guard); // run_lock comes before any stripe lock
                    if self.demote_run(idx).is_err() {
                        return Released::Kept;
                    }
                    continue;
                }
            };
            // Nothing to drop (RFC or UC already 0 — recovery discarded it,
            // or the scrubber owes a sweep): decide on what is there.
            let left = dropped.unwrap_or_else(|| self.counters(idx));
            if left != (0, 0) || e.run_pages > 1 {
                return Released::Kept;
            }
            let _ = self.remove_locked(idx);
            return Released::Removed;
        }
    }

    /// Write a per-page record for `(fp, block)` with the given `(RFC, UC)`
    /// and link it behind `tail` (`None`: into the free DAA slot). Caller
    /// holds the stripe lock and has `tail` from a walk under it.
    fn insert_at(
        &self,
        prefix: u64,
        tail: Option<u64>,
        fp: &Fingerprint,
        block: u64,
        (rfc, uc): (u32, u32),
    ) -> Result<(u64, FactEntry)> {
        let mut e = FactEntry {
            rfc,
            uc,
            fp: *fp,
            block,
            prev: NIL,
            next: NIL,
            delete_ptr: NIL,
            run_pages: 1,
        };
        let Some(tail) = tail else {
            // The DAA slot itself is free: one entry write, one delete-ptr
            // write.
            self.write_metadata(prefix, &e);
            self.set_delete_ptr(block, prefix as i64);
            return Ok((prefix, e));
        };
        // Prefix collision: allocate an IAA slot and append at the chain
        // tail ("the new entry that generated the collision is allocated in
        // the IAA").
        let idx = self.alloc_iaa()?;
        // prev: 0 is the "I am the IAA chain head" sentinel (the paper's
        // "prev field of a normal linked list head is always 0"); deeper
        // nodes point at their IAA predecessor.
        e.prev = if tail == prefix { 0 } else { tail as i64 };
        // Write the new entry completely before linking it: a crash between
        // the two leaves it unreachable (and the IAA scan reclaims it).
        self.write_metadata(idx, &e);
        self.set_delete_ptr(block, idx as i64);
        self.dev.crash_point("denova::fact::before_chain_link");
        self.write_next(tail, idx as i64);
        self.stats.bump_iaa_inserts();
        Ok((idx, e))
    }

    fn alloc_iaa(&self) -> Result<u64> {
        let mut free = self.iaa_free.lock();
        if let Some(idx) = free.stack.pop() {
            return Ok(idx);
        }
        if free.cursor < self.entries() {
            let idx = free.cursor;
            free.cursor += 1;
            return Ok(idx);
        }
        Err(NovaError::NoSpace)
    }

    /// Resolve a data block to its FACT entry via the delete pointer — the
    /// reclaim-path lookup that costs exactly two PM reads (Section IV-C
    /// steps 1–3). A block covered by an extent run resolves to the run's
    /// anchor record (still two reads: `run_pages` rides in the same cache
    /// line as the rest of the entry).
    pub fn resolve_block(&self, block: u64) -> Option<(u64, FactEntry)> {
        if block >= self.entries() {
            return None;
        }
        // Read 1: the delete pointer stored at index `block`.
        let ptr = self.read_delete_ptr(block);
        if ptr < 0 || ptr as u64 >= self.entries() {
            return None;
        }
        // Read 2: the entry it points at. Stale pointers (left behind by
        // removals) are detected by the block-range check.
        let e = self.read_entry(ptr as u64);
        e.covers(block).then_some((ptr as u64, e))
    }

    // ------------------------------------------------------------------
    // Extent runs (promotion / demotion / crash repair)
    // ------------------------------------------------------------------

    /// Promote `members` — the per-page records of physically consecutive
    /// canonical blocks, in block order — into one extent-run record
    /// anchored at `members[0]`. Requires (and re-verifies) that every
    /// member still covers its block with the same reference count and no
    /// in-flight reservations; returns `false` without touching the table
    /// if the precondition no longer holds, `true` once the run is live.
    ///
    /// Protocol (each step one cache-line persist, repairable forward by
    /// [`Fact::repair_runs`] from the `run_pages` commit on):
    ///
    /// 1. persist `run_pages = N` on the anchor — the commit point;
    /// 2. per interior block, left to right: point its reverse index at
    ///    the anchor (resolve_block never misses: before the store it
    ///    finds the per-page record, after it the anchor), then gate with
    ///    a counter CAS `(R, 0) → (0, 0)` — a reservation taken since the
    ///    sweep makes the CAS fail and rolls the promotion back — and remove
    ///    the absorbed per-page record (interior fps answer *absent* after
    ///    promotion).
    ///
    /// Before step 1, per-page records sharing the anchor's fingerprint
    /// that sit ahead of it in its chain yield to it (the module's
    /// anchor-first rule).
    ///
    /// The reference-count meaning is unchanged throughout: before, each
    /// of the N records held `RFC = R` for its block; after, the single
    /// anchor holds `RFC = R` *for each* covered block.
    pub fn merge_run(&self, members: &[(u64, FactEntry)]) -> bool {
        // One granularity transition at a time: a demotion overlapping this
        // promotion would re-insert per-page records the absorb loop is
        // removing, double-covering blocks.
        let _run = self.run_lock.lock();
        self.merge_run_locked(members)
    }

    /// [`Fact::merge_run`] body, for callers ([`Fact::split_run`]) already
    /// holding `run_lock`.
    fn merge_run_locked(&self, members: &[(u64, FactEntry)]) -> bool {
        let n = members.len();
        if n < 2 {
            return false;
        }
        let (mut anchor, a) = members[0];
        let b0 = a.block;
        // Records can be *relocated* between slots while keeping their
        // identity: removing a DAA entry promotes its IAA chain head into
        // the freed slot (see `remove`). Every such move happens under the
        // stripe lock of the record's prefix, so holding every member's
        // stripe for the whole protocol pins the member indices the caller
        // captured. Acquired in sorted order and this is the only
        // multi-stripe taker, so lock order is consistent.
        let mut stripe_ids: Vec<usize> = members
            .iter()
            .map(|(_, e)| (e.fp.prefix(self.prefix_bits()) as usize) % STRIPES)
            .collect();
        stripe_ids.sort_unstable();
        stripe_ids.dedup();
        let _guards: Vec<_> = stripe_ids.iter().map(|&s| self.stripes[s].lock()).collect();
        let (rfc, _) = self.counters(anchor);
        if rfc == 0 {
            return false; // mid-reclaim; not worth anchoring a run on
        }
        // Precondition sweep: occupied, same fp, consecutive blocks, all
        // per-page, still named by the reverse index (a stale index from
        // before a relocation fails here), counters exactly (rfc, 0).
        for (k, &(idx, ref snap)) in members.iter().enumerate() {
            let cur = self.read_entry(idx);
            if !cur.is_occupied()
                || cur.fp != snap.fp
                || cur.block != b0 + k as u64
                || cur.run_pages != 1
                || self.read_delete_ptr(b0 + k as u64) != idx as i64
                || self.counters(idx) != (rfc, 0)
            {
                return false;
            }
        }
        match self.yield_to_anchor(anchor, &a) {
            Some(slot) => anchor = slot,
            None => return false,
        }
        // Commit point: the anchor now claims the whole range.
        self.write_run_pages(anchor, n as u32);
        self.dev
            .crash_point("denova::fact::merge::after_run_commit");
        for (k, _) in members.iter().enumerate().skip(1) {
            let block = b0 + k as u64;
            // Re-resolve the slot through the reverse index: removing an
            // earlier member may have promoted this one's record into a
            // freed DAA chain-head slot (the promotion re-points the cell,
            // and the held stripe locks exclude every other mover).
            let ptr = self.read_delete_ptr(block);
            let idx = ptr as u64;
            // Reverse index first: any reclaim arriving now resolves the
            // anchor (whose range already covers `block`).
            self.set_delete_ptr(block, anchor as i64);
            self.dev.crash_point("denova::fact::merge::mid_absorb");
            // Gate: zero the counters by CAS. A reservation that slipped in
            // since the sweep makes this fail — roll back rather than drop
            // the reserver's reference on the floor.
            if self
                .cas_counters(idx, |r, u| {
                    if (r, u) == (rfc, 0) {
                        Some((0, 0))
                    } else {
                        None
                    }
                })
                .is_none()
            {
                self.set_delete_ptr(block, ptr);
                self.unwind_merge(anchor, members, k, rfc);
                return false;
            }
            let _ = self.remove_locked(idx);
        }
        self.stats.record_promoted_run(n as u64);
        true
    }

    /// Roll a half-done [`Fact::merge_run`] back: re-create the per-page
    /// records already absorbed (blocks `b0+1 .. b0+upto`) and reset the
    /// anchor to per-page granularity. `members` still holds their
    /// fingerprints, so no data needs re-hashing. Runs with the caller
    /// (`merge_run`) already holding every member's stripe lock.
    fn unwind_merge(&self, anchor: u64, members: &[(u64, FactEntry)], upto: usize, rfc: u32) {
        let b0 = members[0].1.block;
        for (k, (_, snap)) in members.iter().enumerate().take(upto).skip(1) {
            let _ = self.insert_with_rfc(&snap.fp, b0 + k as u64, rfc);
        }
        self.write_run_pages(anchor, 1);
    }

    /// Make room at the front for a record about to become a run anchor
    /// (the module's anchor-first rule): every per-page record with the
    /// anchor's fingerprint that a chain walk meets before `anchor` moves to
    /// the chain tail — a copy is appended (the block's reverse cell follows
    /// it), then the old slot is removed, so a crash in between leaves a
    /// duplicate the reverse cell disowns, which [`Fact::repair_runs`]
    /// drops. Returns the anchor's slot afterwards (removing a DAA entry
    /// promotes the IAA head, possibly the anchor itself), or `None` —
    /// decline the promotion — if such a record has a reservation in flight
    /// (its holder addresses it by slot) or FACT is full. Caller holds the
    /// stripe lock of the anchor's prefix.
    fn yield_to_anchor(&self, mut anchor: u64, a: &FactEntry) -> Option<u64> {
        let prefix = a.fp.prefix(self.prefix_bits());
        loop {
            let Some((idx, e)) = self
                .chain(prefix)
                .into_iter()
                .take_while(|&(idx, _)| idx != anchor)
                .find(|(_, e)| e.fp == a.fp && e.run_pages == 1)
            else {
                return Some(anchor);
            };
            if e.uc > 0 {
                return None;
            }
            self.insert_with_rfc(&e.fp, e.block, e.rfc).ok()?;
            self.dev.crash_point("denova::fact::merge::mid_yield");
            let _ = self.remove_locked(idx);
            anchor = self.resolve_block(a.block)?.0;
        }
    }

    /// Split the extent run anchored at `anchor` back into per-page records
    /// — the inverse of [`Fact::merge_run`], needed before per-block
    /// reclaim or partial sharing. Each interior block is re-fingerprinted
    /// from its canonical bytes in PM and gets a fresh record carrying the
    /// run's reference count; the final `run_pages = 1` store commits the
    /// demotion (a crash before it re-merges cleanly on recovery). Returns
    /// the number of pages the run covered (1 if there was nothing to do).
    pub fn demote_run(&self, anchor: u64) -> Result<u32> {
        // Serialize against merge_run (see `run_lock`): splitting a run
        // that a concurrent promotion is still absorbing would re-create
        // per-page records under the anchor's claimed range.
        let _run = self.run_lock.lock();
        let a = self.read_entry(anchor);
        if !a.is_occupied() || a.run_pages <= 1 {
            return Ok(1);
        }
        let n = a.run_pages;
        let (rfc, _) = self.counters(anchor);
        for k in 1..n as u64 {
            let block = a.block + k;
            self.respawn(block, rfc)?;
            self.dev.crash_point("denova::fact::demote::mid_split");
        }
        // Commit point: back to per-page granularity.
        self.commit_run_pages(a.block, 1);
        self.stats.record_demoted_run();
        Ok(n)
    }

    /// Persist a new `run_pages` on the run record whose first block is
    /// `first_block`. The record may have been relocated (DAA chain-head
    /// promotion in `remove`) since the caller read it; its reverse cell
    /// tracks the move, so [`Fact::lock_record`] finds the current slot
    /// under the stripe lock that serializes relocation.
    fn commit_run_pages(&self, first_block: u64, n: u32) {
        if let Some((_guard, slot, _)) = self.lock_record(first_block) {
            self.write_run_pages(slot, n);
        }
    }

    /// Split the extent run anchored at `anchor` at relative page `at`
    /// (`1 ≤ at < run_pages`): the anchor keeps the first `at` pages, and
    /// the tail becomes its own record — a run again if it spans several
    /// pages — carrying the same per-block reference count. This is the
    /// partial-overwrite path of extent sharing: a writer that diverges
    /// inside a run splits it there instead of dissolving the whole run to
    /// per-page records.
    ///
    /// Built from the existing repairable protocols: the tail blocks are
    /// first re-created per-page (exactly the demote protocol — a crash
    /// rolls the half-split back into the full run), the anchor's claim
    /// then shrinks (the commit), and the tail re-merges into a run (the
    /// merge protocol, rolled forward by [`Fact::repair_runs`]).
    pub fn split_run(&self, anchor: u64, at: u32) -> Result<()> {
        let _run = self.run_lock.lock();
        let a = self.read_entry(anchor);
        if !a.is_occupied() || at == 0 || a.run_pages <= at {
            return Ok(()); // caller's view was stale; nothing to split
        }
        let n = a.run_pages;
        let (rfc, _) = self.counters(anchor);
        // Tail blocks become per-page records first; each insert re-points
        // the block's reverse cell, so every block stays resolvable
        // throughout.
        let mut members: Vec<(u64, FactEntry)> = Vec::new();
        for k in at as u64..n as u64 {
            let block = a.block + k;
            let idx = match self.respawn(block, rfc) {
                Ok(idx) => idx,
                Err(e) => {
                    // Roll the half-built tail back into the run: re-point
                    // each cell at the anchor, then drop the per-page
                    // record (the mount-time repair does the same).
                    let cur = self.resolve_block(a.block).map_or(anchor, |(slot, _)| slot);
                    for &(m, ref me) in &members {
                        self.set_delete_ptr(me.block, cur as i64);
                        self.cas_counters(m, |_, _| Some((0, 0)));
                        let _ = self.remove(m);
                    }
                    return Err(e);
                }
            };
            members.push((idx, self.read_entry(idx)));
            self.dev.crash_point("denova::fact::split::mid_tail");
        }
        // Commit point: the anchor's claim shrinks to the head.
        self.commit_run_pages(a.block, at);
        // Re-form the tail as its own run (a single-page tail stays
        // per-page). Best effort: if a racing reservation declines the
        // merge, the tail simply stays per-page.
        if members.len() >= 2 {
            self.merge_run_locked(&members);
        }
        Ok(())
    }

    /// Re-create the per-page record of `block`, a run's interior block,
    /// re-fingerprinted from its canonical bytes in PM and carrying the
    /// run's reference count.
    fn respawn(&self, block: u64, rfc: u32) -> Result<u64> {
        let page = denova_nova::BLOCK_SIZE as usize;
        let off = self.layout.block_off(block);
        let fp = self
            .dev
            .with_slice(off, page, |page| self.fingerprint(page));
        let _guard = self.lock_chain(fp.prefix(self.prefix_bits()));
        self.insert_with_rfc(&fp, block, rfc)
    }

    /// Append a per-page record for `(fp, block)` with a preset reference
    /// count; caller holds the stripe lock of `fp`'s prefix. The fingerprint
    /// may already be in the chain (the same content stored again under
    /// another canonical block since the run formed): lookups keep resolving
    /// whichever comes first — the module's anchor-first rule says which
    /// that must be — while this one is reachable through `block`'s reverse
    /// index, which is all reclaim needs.
    pub(crate) fn insert_with_rfc(&self, fp: &Fingerprint, block: u64, rfc: u32) -> Result<u64> {
        let prefix = fp.prefix(self.prefix_bits());
        let tail = self.chain(prefix).last().map(|&(idx, _)| idx);
        let (idx, _) = self.insert_at(prefix, tail, fp, block, (rfc, 0))?;
        self.stats.bump_inserts();
        Ok(idx)
    }

    /// Recovery: finish half-done run promotions. For every anchor claiming
    /// `run_pages > 1`, point each covered block's reverse index at the
    /// anchor and absorb leftover per-page records inside the claimed range
    /// (their counts are already represented by the anchor). Idempotent;
    /// returns the number of repairs applied.
    ///
    /// Damage is *found* in `survey` — a healthy table costs no device read
    /// here — and each suspect is then re-read from the device before it is
    /// touched, because an earlier repair in the same pass can move records
    /// (removing a DAA entry promotes its IAA chain head into the slot).
    pub fn repair_runs(&self, survey: &Survey) -> u64 {
        let mut repairs = 0u64;
        for (anchor, a) in survey.occupied.iter().filter(|(_, e)| e.run_pages > 1) {
            for block in a.block + 1..a.block + a.run_pages as u64 {
                if survey.delete_ptr.get(block as usize) == Some(&(*anchor as i64)) {
                    continue;
                }
                repairs += self.absorb_into_run(a.block, block) as u64;
            }
        }
        // Orphans: per-page records whose block's reverse index resolves to
        // another record — a run's interior block whose absorption crashed
        // between the delete-ptr store and the removal, or the old slot of
        // a record that was yielding to an anchor. A record the surveyed
        // column does not resolve to is a suspect (the absorption above may
        // since have re-aimed the cell at an anchor); the device decides.
        for &(idx, e) in survey.occupied.iter().filter(|(_, e)| e.run_pages == 1) {
            if survey
                .resolve(e.block)
                .is_some_and(|(owner, _)| owner == idx)
            {
                continue;
            }
            let cur = self.read_entry(idx);
            if cur.is_occupied()
                && cur.run_pages == 1
                && self
                    .resolve_block(cur.block)
                    .is_some_and(|(owner, _)| owner != idx)
            {
                self.cas_counters(idx, |_, _| Some((0, 0)));
                let _ = self.remove(idx);
                repairs += 1;
            }
        }
        repairs
    }

    /// Point `block`'s reverse index at the run anchored at `first_block`,
    /// which claims it, and absorb the leftover per-page record the cell
    /// still names (reverse index first, as in `merge_run`). Works on the
    /// device's current state; `false` if there was nothing to do.
    fn absorb_into_run(&self, first_block: u64, block: u64) -> bool {
        let Some((anchor, a)) = self.resolve_block(first_block) else {
            return false;
        };
        let ptr = self.read_delete_ptr(block);
        if !a.covers(block) || ptr == anchor as i64 {
            return false;
        }
        self.set_delete_ptr(block, anchor as i64);
        if ptr >= 0 && (ptr as u64) < self.entries() {
            let left = self.read_entry(ptr as u64);
            if left.is_occupied() && left.block == block && left.run_pages == 1 {
                self.cas_counters(ptr as u64, |_, _| Some((0, 0)));
                let _ = self.remove(ptr as u64);
            }
        }
        true
    }

    /// Remove the entry at `idx` (its RFC reached 0), unlinking it from its
    /// chain. At most three cache-line flushes (entry clear + two neighbour
    /// link updates), matching the paper's reclaiming-cost analysis
    /// (Section V-B3).
    pub fn remove(&self, idx: u64) -> Result<()> {
        let e = self.read_entry(idx);
        if !e.is_occupied() {
            return Ok(());
        }
        let prefix = e.fp.prefix(self.prefix_bits());
        let _guard = self.lock_chain(prefix);
        self.remove_locked(idx)
    }

    /// [`Fact::remove`] body, for callers (merge promotion) that already
    /// hold the stripe lock of the entry's prefix.
    fn remove_locked(&self, idx: u64) -> Result<()> {
        // Re-read under the lock.
        let e = self.read_entry(idx);
        if !e.is_occupied() {
            return Ok(());
        }
        let prefix = e.fp.prefix(self.prefix_bits());
        self.stats.bump_removes();
        if idx < self.daa_entries() {
            // DAA entry. If a chain hangs off it, promote the IAA head into
            // the DAA slot so the prefix stays resolvable.
            match e.next {
                NIL => self.clear_metadata(idx),
                head => {
                    let head = head as u64;
                    let h = self.read_entry(head);
                    // Copy head's payload into the DAA slot, preserving the
                    // chain beyond it.
                    self.write_metadata(
                        idx,
                        &FactEntry {
                            prev: NIL,
                            next: h.next,
                            delete_ptr: NIL, // preserved by write_metadata
                            ..h
                        },
                    );
                    // A promoted run anchor carries its whole range's
                    // reverse index along, not just its first block.
                    for k in 0..h.run_pages as u64 {
                        self.set_delete_ptr(h.block + k, idx as i64);
                    }
                    if h.next != NIL {
                        // The new IAA head's prev becomes the sentinel 0.
                        self.write_prev(h.next as u64, 0);
                    }
                    self.dev.crash_point("denova::fact::remove::after_promote");
                    self.clear_metadata(head);
                    self.free_iaa(head);
                }
            }
            return Ok(());
        }
        // IAA entry: splice prev → next.
        let pred = if e.prev == 0 {
            // Chain head: predecessor is the DAA slot.
            prefix
        } else {
            e.prev as u64
        };
        self.write_next(pred, e.next);
        if e.next != NIL {
            let succ_prev = if e.prev == 0 { 0 } else { e.prev };
            self.write_prev(e.next as u64, succ_prev);
        }
        self.dev.crash_point("denova::fact::remove::after_unlink");
        self.clear_metadata(idx);
        self.free_iaa(idx);
        Ok(())
    }

    fn free_iaa(&self, idx: u64) {
        self.iaa_free.lock().stack.push(idx);
    }

    /// Swap the IAA allocator's state out (tests exhaust the IAA by
    /// installing an empty stack, and bring the space back by swapping the
    /// old state in again).
    #[cfg(test)]
    pub(crate) fn swap_free_iaa(&self, stack: Vec<u64>, cursor: u64) -> (Vec<u64>, u64) {
        let mut free = self.iaa_free.lock();
        let old = std::mem::replace(&mut *free, IaaFree { stack, cursor });
        (old.stack, old.cursor)
    }

    /// Drain the set of prefixes flagged for reordering.
    pub fn take_reorder_candidates(&self) -> Vec<u64> {
        self.reorder_candidates.lock().drain().collect()
    }

    /// Walk the chain for `prefix`, returning `(index, entry)` pairs in
    /// lookup order (DAA entry first). Used by the reorderer and tests.
    pub fn chain(&self, prefix: u64) -> Vec<(u64, FactEntry)> {
        let mut out = Vec::new();
        let mut idx = prefix;
        loop {
            let e = self.read_entry(idx);
            if !e.is_occupied() {
                break;
            }
            let next = e.next;
            out.push((idx, e));
            match next {
                NIL => break,
                n => idx = n as u64,
            }
        }
        out
    }

    /// Visit every occupied entry in index order (a streaming full-table
    /// pass: the scrubber and audits use this; normal operation never does).
    pub fn for_each_occupied<F: FnMut(u64, FactEntry)>(&self, mut f: F) {
        self.stream(0..self.entries(), |idx, e| {
            if e.is_occupied() {
                f(idx, e);
            }
        });
    }

    /// Number of occupied entries (scan; tests only).
    pub fn occupied_count(&self) -> u64 {
        let mut n = 0;
        self.for_each_occupied(|_, _| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<PmemDevice>, Fact) {
        let dev = Arc::new(PmemDevice::new(16 * 1024 * 1024));
        let layout = Layout::compute(dev.size() as u64, 64, 2);
        let stats = Arc::new(DedupStats::default());
        // Zero the FACT region as mkfs would.
        dev.memset(
            layout.fact_start * denova_nova::BLOCK_SIZE,
            (layout.fact_blocks * denova_nova::BLOCK_SIZE) as usize,
            0,
        );
        let fact = Fact::new(dev.clone(), layout, stats);
        (dev, fact)
    }

    /// A fingerprint with a chosen prefix (so collision tests are
    /// deterministic).
    fn fp_with_prefix(fact: &Fact, prefix: u64, salt: u8) -> Fingerprint {
        let bits = fact.prefix_bits();
        let mut bytes = [0u8; 20];
        let word = prefix << (64 - bits);
        bytes[..8].copy_from_slice(&word.to_be_bytes());
        bytes[19] = salt;
        bytes[18] = 1; // never all-zero
        Fingerprint::from_bytes(bytes)
    }

    #[test]
    fn lookup_through_the_daa_is_exactly_one_pm_read() {
        let (dev, fact) = setup();
        let present = fp_with_prefix(&fact, 7, 1);
        fact.reserve_or_insert(&present, 100).unwrap();
        let reads = |fp: &Fingerprint| {
            let before = dev.stats().snapshot().reads;
            let hit = fact.lookup(fp).is_some();
            (hit, dev.stats().snapshot().reads - before)
        };
        // Absent (free DAA slot) and present (DAA-resident): one read each.
        assert_eq!(reads(&fp_with_prefix(&fact, 9, 1)), (false, 1));
        assert_eq!(reads(&present), (true, 1));
        // Absent behind a prefix collision: the walk reads the whole chain.
        fact.reserve_or_insert(&fp_with_prefix(&fact, 7, 2), 101)
            .unwrap();
        assert_eq!(reads(&fp_with_prefix(&fact, 7, 3)), (false, 2));
    }

    /// An unlocked walk can catch a link mid-store, or a chain that loops
    /// while `reorder_chain` relinks it in place (A→C and C→B written, B→C
    /// not yet rewritten): it must end there and answer absent, not index
    /// out of the table or spin until the reorder is done.
    #[test]
    fn lookup_stops_at_a_torn_or_looping_link() {
        let (dev, fact) = setup();
        let slots: Vec<u64> = (1..=3)
            .map(|s| fact.reserve_or_insert(&fp_with_prefix(&fact, 7, s), 100 + s as u64))
            .map(|r| r.unwrap().0)
            .collect();
        let absent = fp_with_prefix(&fact, 7, 9);
        fact.write_next(slots[2], slots[1] as i64);
        assert!(fact.lookup(&absent).is_none());
        assert_eq!(
            fact.lookup(&fp_with_prefix(&fact, 7, 3)).unwrap().0,
            slots[2]
        );
        // NIL's upper half over an IAA index's lower half.
        let torn = (NIL as u64 & !0xFFFF_FFFF | fact.daa_entries()) as i64;
        dev.write(fact.off(7) + OFF_NEXT, &torn.to_le_bytes());
        assert!(fact.lookup(&absent).is_none());
    }

    #[test]
    fn insert_then_lookup_hits_daa() {
        let (_dev, fact) = setup();
        let fp = Fingerprint::of(b"data");
        let (idx, e) = fact.reserve_or_insert(&fp, 500).unwrap();
        assert!(idx < fact.daa_entries());
        assert_eq!(e.uc, 1); // fresh insert is returned with its reservation
        let (found, fe) = fact.lookup(&fp).unwrap();
        assert_eq!(found, idx);
        assert_eq!(fe.block, 500);
        assert_eq!(fe.uc, 1);
        assert_eq!(fe.rfc, 0);
    }

    #[test]
    fn commit_moves_uc_to_rfc_atomically() {
        let (_dev, fact) = setup();
        let fp = Fingerprint::of(b"x");
        let (idx, _) = fact.reserve_or_insert(&fp, 7).unwrap();
        assert!(fact.commit_uc_to_rfc(idx));
        assert_eq!(fact.counters(idx), (1, 0));
        // Nothing left to commit.
        assert!(!fact.commit_uc_to_rfc(idx));
    }

    #[test]
    fn duplicate_reserve_bumps_uc_not_new_entry() {
        let (_dev, fact) = setup();
        let fp = Fingerprint::of(b"dup");
        let (i1, _) = fact.reserve_or_insert(&fp, 10).unwrap();
        let (i2, e2) = fact.reserve_or_insert(&fp, 99).unwrap();
        assert_eq!(i1, i2);
        assert_eq!(e2.block, 10, "canonical block unchanged");
        assert_eq!(fact.counters(i1), (0, 2));
        assert_eq!(fact.occupied_count(), 1);
    }

    #[test]
    fn prefix_collision_goes_to_iaa_chain() {
        let (_dev, fact) = setup();
        let a = fp_with_prefix(&fact, 5, 1);
        let b = fp_with_prefix(&fact, 5, 2);
        let c = fp_with_prefix(&fact, 5, 3);
        let (ia, _) = fact.reserve_or_insert(&a, 100).unwrap();
        let (ib, _) = fact.reserve_or_insert(&b, 101).unwrap();
        let (ic, _) = fact.reserve_or_insert(&c, 102).unwrap();
        assert_eq!(ia, 5);
        assert!(ib >= fact.daa_entries());
        assert!(ic >= fact.daa_entries());
        // Lookup order: DAA head then the chain.
        let chain: Vec<u64> = fact.chain(5).iter().map(|(i, _)| *i).collect();
        assert_eq!(chain, vec![ia, ib, ic]);
        // Each resolves by fingerprint.
        assert_eq!(fact.lookup(&b).unwrap().0, ib);
        assert_eq!(fact.lookup(&c).unwrap().0, ic);
        // Chain-head sentinel: first IAA node has prev == 0, second points
        // at the first.
        assert_eq!(fact.read_entry(ib).prev, 0);
        assert_eq!(fact.read_entry(ic).prev, ib as i64);
    }

    #[test]
    fn resolve_block_costs_two_reads() {
        let (dev, fact) = setup();
        let fp = Fingerprint::of(b"blk");
        let (idx, _) = fact.reserve_or_insert(&fp, 321).unwrap();
        let before = dev.stats().snapshot();
        let (ridx, e) = fact.resolve_block(321).unwrap();
        let delta = dev.stats().snapshot().delta(&before);
        assert_eq!(ridx, idx);
        assert_eq!(e.block, 321);
        assert_eq!(
            delta.reads, 2,
            "delete pointer must resolve in exactly 2 PM reads"
        );
    }

    #[test]
    fn resolve_unknown_block_misses() {
        let (_dev, fact) = setup();
        assert!(fact.resolve_block(12345).is_none());
    }

    #[test]
    fn stale_delete_pointer_rejected_by_block_check() {
        let (_dev, fact) = setup();
        let a = Fingerprint::of(b"a");
        let (ia, _) = fact.reserve_or_insert(&a, 50).unwrap();
        fact.commit_uc_to_rfc(ia);
        fact.dec_rfc(ia);
        fact.remove(ia).unwrap();
        // The delete pointer at slot 50 still exists but must not resolve.
        assert!(fact.resolve_block(50).is_none());
    }

    #[test]
    fn remove_daa_with_chain_promotes_head() {
        let (_dev, fact) = setup();
        let a = fp_with_prefix(&fact, 9, 1);
        let b = fp_with_prefix(&fact, 9, 2);
        let c = fp_with_prefix(&fact, 9, 3);
        fact.reserve_or_insert(&a, 100).unwrap();
        let (ib, _) = fact.reserve_or_insert(&b, 101).unwrap();
        fact.reserve_or_insert(&c, 102).unwrap();
        fact.remove(9).unwrap();
        // b promoted into the DAA slot; c's prev becomes the head sentinel.
        let (idx_b, eb) = fact.lookup(&b).unwrap();
        assert_eq!(idx_b, 9);
        assert_eq!(eb.block, 101);
        let (idx_c, ec) = fact.lookup(&c).unwrap();
        assert_eq!(ec.prev, 0);
        assert!(idx_c >= fact.daa_entries());
        // a is gone; b resolves via its refreshed delete pointer.
        assert!(fact.lookup(&a).is_none());
        assert_eq!(fact.resolve_block(101).unwrap().0, 9);
        assert_eq!(fact.occupied_count(), 2);
        let _ = ib;
    }

    #[test]
    fn remove_iaa_middle_splices_chain() {
        let (_dev, fact) = setup();
        let fps: Vec<Fingerprint> = (1..=4).map(|s| fp_with_prefix(&fact, 3, s)).collect();
        let idxs: Vec<u64> = fps
            .iter()
            .enumerate()
            .map(|(i, fp)| fact.reserve_or_insert(fp, 200 + i as u64).unwrap().0)
            .collect();
        // Remove the middle IAA node (third in lookup order).
        fact.remove(idxs[2]).unwrap();
        let chain: Vec<u64> = fact.chain(3).iter().map(|(i, _)| *i).collect();
        assert_eq!(chain, vec![idxs[0], idxs[1], idxs[3]]);
        assert_eq!(fact.read_entry(idxs[3]).prev, idxs[1] as i64);
        assert!(fact.lookup(&fps[2]).is_none());
        assert!(fact.lookup(&fps[3]).is_some());
    }

    #[test]
    fn remove_iaa_head_updates_sentinel() {
        let (_dev, fact) = setup();
        let fps: Vec<Fingerprint> = (1..=3).map(|s| fp_with_prefix(&fact, 4, s)).collect();
        let idxs: Vec<u64> = fps
            .iter()
            .map(|fp| fact.reserve_or_insert(fp, 300).unwrap().0)
            .collect();
        fact.remove(idxs[1]).unwrap(); // the IAA chain head
        let chain: Vec<u64> = fact.chain(4).iter().map(|(i, _)| *i).collect();
        assert_eq!(chain, vec![idxs[0], idxs[2]]);
        assert_eq!(fact.read_entry(idxs[2]).prev, 0);
    }

    #[test]
    fn iaa_slots_recycle() {
        let (_dev, fact) = setup();
        let a = fp_with_prefix(&fact, 7, 1);
        let b = fp_with_prefix(&fact, 7, 2);
        fact.reserve_or_insert(&a, 10).unwrap();
        let (ib, _) = fact.reserve_or_insert(&b, 11).unwrap();
        fact.remove(ib).unwrap();
        let c = fp_with_prefix(&fact, 7, 3);
        let (ic, _) = fact.reserve_or_insert(&c, 12).unwrap();
        assert_eq!(ic, ib, "freed IAA slot must be reused");
    }

    #[test]
    fn mount_rebuilds_iaa_free_list() {
        let (dev, fact) = setup();
        let layout = Layout::compute(dev.size() as u64, 64, 2);
        let a = fp_with_prefix(&fact, 2, 1);
        let b = fp_with_prefix(&fact, 2, 2);
        fact.reserve_or_insert(&a, 20).unwrap();
        let (ib, _) = fact.reserve_or_insert(&b, 21).unwrap();
        // Remount and verify both the entry and free-slot accounting.
        let fact2 = Fact::mount(dev, layout, Arc::new(DedupStats::default()));
        assert_eq!(fact2.lookup(&b).unwrap().0, ib);
        let c = fp_with_prefix(&fact2, 2, 3);
        let (ic, _) = fact2.reserve_or_insert(&c, 22).unwrap();
        assert!(ic >= fact2.daa_entries());
        assert_ne!(ic, ib, "occupied IAA slot must not be reallocated");
    }

    #[test]
    fn dec_rfc_stops_at_zero() {
        let (_dev, fact) = setup();
        let fp = Fingerprint::of(b"z");
        let (idx, _) = fact.reserve_or_insert(&fp, 77).unwrap();
        fact.commit_uc_to_rfc(idx);
        assert_eq!(fact.dec_rfc(idx), Some((0, 0)));
        assert_eq!(fact.dec_rfc(idx), None);
        assert_eq!(fact.counters(idx), (0, 0));
    }

    #[test]
    fn abort_and_reset_uc() {
        let (_dev, fact) = setup();
        let fp = Fingerprint::of(b"u");
        let (idx, _) = fact.reserve_or_insert(&fp, 88).unwrap();
        fact.inc_uc(idx);
        fact.inc_uc(idx);
        assert_eq!(fact.counters(idx), (0, 3));
        assert_eq!(fact.abort_uc(idx), Some((0, 2)));
        fact.reset_uc(idx);
        assert_eq!(fact.counters(idx), (0, 0));
        assert_eq!(fact.abort_uc(idx), None);
    }

    #[test]
    fn counter_update_is_failure_atomic() {
        let (dev, fact) = setup();
        let fp = Fingerprint::of(b"fa");
        let (idx, _) = fact.reserve_or_insert(&fp, 99).unwrap();
        fact.commit_uc_to_rfc(idx); // (1, 0) persisted
                                    // A torn crash right after an unpersisted counter store must revert
                                    // to the last persisted pair, never a mix.
        let off = fact.off(idx) + OFF_COUNTERS;
        dev.atomic_store_u64(off, 5 | (7 << 32)); // not persisted
        let after = dev.crash_clone(denova_pmem::CrashMode::Strict);
        let v = after.read_u64(off);
        assert_eq!(v & 0xFFFF_FFFF, 1);
        assert_eq!(v >> 32, 0);
    }

    #[test]
    fn concurrent_counter_updates_are_exact() {
        let (_dev, fact) = setup();
        let fp = Fingerprint::of(b"conc");
        let (idx, _) = fact.reserve_or_insert(&fp, 40).unwrap();
        fact.commit_uc_to_rfc(idx);
        let fact = Arc::new(fact);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let f = fact.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..250 {
                    f.inc_uc(idx);
                    f.commit_uc_to_rfc(idx);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 1 initial + 4 * 250 commits.
        assert_eq!(fact.counters(idx), (1001, 0));
    }

    #[test]
    fn crash_before_chain_link_leaves_orphan_unreachable() {
        let (dev, fact) = setup();
        let a = fp_with_prefix(&fact, 6, 1);
        let b = fp_with_prefix(&fact, 6, 2);
        fact.reserve_or_insert(&a, 60).unwrap();
        dev.crash_points().arm("denova::fact::before_chain_link", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fact.reserve_or_insert(&b, 61).unwrap();
        }));
        assert!(r.is_err());
        // Post-crash: b is not reachable; a still is; remount reclaims the
        // orphan slot for reuse.
        let layout = Layout::compute(dev.size() as u64, 64, 2);
        let fact2 = Fact::mount(dev, layout, Arc::new(DedupStats::default()));
        assert!(fact2.lookup(&a).is_some());
        assert!(fact2.lookup(&b).is_none());
    }

    #[test]
    fn iaa_can_never_exhaust_before_block_space() {
        // Invariant behind "we set the IAA size equal to the DAA": the
        // device holds at most `total_blocks` unique chunks, DAA ≥
        // total_blocks, and each unique chunk occupies exactly one entry —
        // so DAA + IAA can absorb the worst case (every chunk colliding on
        // one prefix). Verify the arithmetic and the clean error past it.
        let (_dev, fact) = setup();
        assert!(
            fact.daa_entries() >= {
                // total_blocks of the 16 MB test device
                16 * 1024 * 1024 / 4096
            }
        );
        assert_eq!(fact.entries(), 2 * fact.daa_entries());
        // Force synthetic exhaustion by draining the IAA allocator
        // directly: inserting more colliding fps than IAA slots must fail
        // with NoSpace, not corrupt the chain.
        let total_iaa = fact.entries() - fact.daa_entries();
        let mut inserted = 0u64;
        let mut failed = false;
        for i in 0..total_iaa + 2 {
            let fp = fp_with_prefix(&fact, 1, 0); // same prefix...
            let mut bytes = *fp.as_bytes();
            bytes[10..18].copy_from_slice(&i.to_le_bytes()); // ...unique fp
            let fp = Fingerprint::from_bytes(bytes);
            match fact.reserve_or_insert(&fp, 100 + i) {
                Ok(_) => inserted += 1,
                Err(NovaError::NoSpace) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(failed, "expected NoSpace past IAA capacity");
        // 1 DAA slot + every IAA slot.
        assert_eq!(inserted, total_iaa + 1);
        // The chain is still structurally sound and fully reachable.
        assert_eq!(fact.chain(1).len() as u64, inserted);
    }

    #[test]
    fn for_each_occupied_sees_all() {
        let (_dev, fact) = setup();
        for i in 0..10u64 {
            let fp = Fingerprint::of(&i.to_le_bytes());
            fact.reserve_or_insert(&fp, 100 + i).unwrap();
        }
        let mut blocks = Vec::new();
        fact.for_each_occupied(|_, e| blocks.push(e.block));
        blocks.sort();
        assert_eq!(blocks, (100..110).collect::<Vec<u64>>());
    }

    // -- Extent runs -------------------------------------------------------

    /// Store distinct page contents at consecutive blocks `b0..b0+n`, insert
    /// per-page records with `RFC = rfc`, and return `(idx, entry)` members
    /// in block order (as `merge_run` wants them).
    fn build_members(
        dev: &Arc<PmemDevice>,
        fact: &Fact,
        b0: u64,
        n: u64,
        rfc: u32,
    ) -> Vec<(u64, FactEntry)> {
        let layout = Layout::compute(dev.size() as u64, 64, 2);
        (0..n)
            .map(|k| {
                let block = b0 + k;
                let mut page = vec![0u8; denova_nova::BLOCK_SIZE as usize];
                page[..8].copy_from_slice(&(0xABCD_0000 + block).to_le_bytes());
                dev.write(layout.block_off(block), &page);
                let fp = Fingerprint::of(&page);
                let (idx, _) = fact.reserve_or_insert(&fp, block).unwrap();
                fact.commit_uc_to_rfc(idx);
                for _ in 1..rfc {
                    fact.inc_uc(idx);
                    fact.commit_uc_to_rfc(idx);
                }
                (idx, fact.read_entry(idx))
            })
            .collect()
    }

    #[test]
    fn merge_run_resolves_every_block_to_the_anchor() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 600, 8, 3);
        let anchor = members[0].0;
        let before = fact.occupied_count();
        assert!(fact.merge_run(&members));
        // 7 interior records absorbed.
        assert_eq!(fact.occupied_count(), before - 7);
        assert_eq!(fact.read_entry(anchor).run_pages, 8);
        for k in 0..8u64 {
            let (idx, e) = fact.resolve_block(600 + k).expect("run block resolves");
            assert_eq!(idx, anchor);
            assert_eq!(e.block, 600);
            assert_eq!(e.run_pages, 8);
        }
        // The run's count is unchanged: R per covered block.
        assert_eq!(fact.counters(anchor), (3, 0));
        // Outside the run: no resolution.
        assert!(fact.resolve_block(608).is_none());
        assert_eq!(fact.stats().promoted_runs(), 1);
        assert_eq!(fact.stats().promoted_run_pages(), 8);
    }

    #[test]
    fn run_block_still_resolves_in_two_pm_reads() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 640, 4, 1);
        assert!(fact.merge_run(&members));
        let before = dev.stats().snapshot();
        fact.resolve_block(642).unwrap();
        let delta = dev.stats().snapshot().delta(&before);
        assert_eq!(delta.reads, 2, "run resolution must stay two PM reads");
    }

    /// Regression: a merge whose captured member indices went stale (the
    /// record moved slots — e.g. a concurrent remove promoted a chain head
    /// into the freed DAA slot) must decline instead of absorbing through
    /// the wrong slot. The precondition sweep cross-checks every member
    /// against the reverse index, which always names the current slot.
    #[test]
    fn merge_declines_stale_member_slots() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 660, 4, 2);
        // Swap two members' slot indices: both records are live and match
        // every other precondition, but the reverse cells disagree.
        let mut stale = members.clone();
        let tmp = stale[1].0;
        stale[1].0 = stale[2].0;
        stale[2].0 = tmp;
        assert!(!fact.merge_run(&stale), "stale member slots must decline");
        // Nothing was absorbed or relocated: all records stay per-page and
        // resolvable through the reverse index.
        for (idx, e) in &members {
            assert_eq!(fact.read_entry(*idx).run_pages, 1);
            let (ridx, re) = fact.resolve_block(e.block).unwrap();
            assert_eq!(ridx, *idx);
            assert_eq!(re.fp, e.fp);
        }
        // The genuine member list still merges cleanly afterwards.
        assert!(fact.merge_run(&members));
    }

    #[test]
    fn merge_removes_interior_fingerprints_from_lookup() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 700, 4, 2);
        let interior_fps: Vec<Fingerprint> = members[1..].iter().map(|(_, e)| e.fp).collect();
        assert!(fact.merge_run(&members));
        for fp in &interior_fps {
            assert!(fact.lookup(fp).is_none(), "interior fp must be absent");
        }
        // The anchor fp still resolves.
        assert!(fact.lookup(&members[0].1.fp).is_some());
    }

    #[test]
    fn merge_refuses_unequal_rfcs_and_inflight_uc() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 720, 4, 2);
        // Unequal RFC on one member.
        fact.inc_uc(members[2].0);
        assert!(!fact.merge_run(&members), "UC reservation must block merge");
        fact.abort_uc(members[2].0);
        fact.inc_uc(members[2].0);
        fact.commit_uc_to_rfc(members[2].0); // RFC now 3 ≠ 2
        assert!(!fact.merge_run(&members), "unequal RFC must block merge");
        // Table untouched: everything still per-page.
        for &(idx, _) in &members {
            assert_eq!(fact.read_entry(idx).run_pages, 1);
        }
    }

    #[test]
    fn demote_run_recreates_per_page_records_with_the_runs_count() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 760, 6, 4);
        let fps: Vec<Fingerprint> = members.iter().map(|(_, e)| e.fp).collect();
        let anchor = members[0].0;
        assert!(fact.merge_run(&members));
        assert_eq!(fact.demote_run(anchor).unwrap(), 6);
        assert_eq!(fact.read_entry(anchor).run_pages, 1);
        // Every block resolves again to a per-page record carrying RFC 4,
        // and the re-fingerprinted interior fps are findable again.
        for (k, fp) in fps.iter().enumerate() {
            let (idx, e) = fact.resolve_block(760 + k as u64).unwrap();
            assert_eq!(e.block, 760 + k as u64);
            assert_eq!(e.run_pages, 1);
            assert_eq!(fact.counters(idx).0, 4);
            assert_eq!(fact.lookup(fp).unwrap().0, idx);
        }
        // Demoting a per-page record is a no-op.
        assert_eq!(fact.demote_run(anchor).unwrap(), 1);
        assert_eq!(fact.stats().demoted_runs(), 1);
    }

    #[test]
    fn repair_runs_completes_interrupted_merge() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 800, 5, 2);
        let anchor = members[0].0;
        // Crash after the run committed but mid-absorption of the interior
        // records (second mid_absorb hit: one block already absorbed).
        dev.crash_points().arm("denova::fact::merge::mid_absorb", 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fact.merge_run(&members);
        }));
        assert!(r.is_err());
        let dev2 = Arc::new(dev.crash_clone(denova_pmem::CrashMode::Strict));
        let layout = Layout::compute(dev2.size() as u64, 64, 2);
        let (fact2, survey) = Fact::mount_surveyed(dev2, layout, Arc::new(DedupStats::default()));
        assert!(fact2.repair_runs(&survey) > 0);
        // The run is whole: every block resolves to the anchor with RFC 2,
        // and no leftover per-page record survives inside the range.
        for k in 0..5u64 {
            let (idx, e) = fact2.resolve_block(800 + k).unwrap();
            assert_eq!(idx, anchor);
            assert_eq!(e.run_pages, 5);
        }
        assert_eq!(fact2.counters(anchor), (2, 0));
        for (_, e) in &members[1..] {
            assert!(fact2.lookup(&e.fp).is_none(), "absorbed fp resolvable");
        }
        // Idempotent.
        assert_eq!(fact2.repair_runs(&fact2.survey()), 0);
    }

    #[test]
    fn repair_runs_is_noop_on_clean_table() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 840, 4, 1);
        assert!(fact.merge_run(&members));
        assert_eq!(fact.repair_runs(&fact.survey()), 0);
    }

    #[test]
    fn runs_survive_remount() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 860, 4, 2);
        let anchor = members[0].0;
        assert!(fact.merge_run(&members));
        let dev2 = Arc::new(dev.crash_clone(denova_pmem::CrashMode::Strict));
        let layout = Layout::compute(dev2.size() as u64, 64, 2);
        let fact2 = Fact::mount(dev2, layout, Arc::new(DedupStats::default()));
        for k in 0..4u64 {
            let (idx, e) = fact2.resolve_block(860 + k).unwrap();
            assert_eq!(idx, anchor);
            assert_eq!(e.run_pages, 4);
        }
        assert_eq!(fact2.lookup(&members[0].1.fp).unwrap().0, anchor);
    }

    #[test]
    fn extent_threshold_knob_defaults_and_sets() {
        let (_dev, fact) = setup();
        assert_eq!(
            fact.extent_threshold_pages(),
            DEFAULT_EXTENT_THRESHOLD_PAGES
        );
        fact.set_extent_threshold_pages(0);
        assert_eq!(fact.extent_threshold_pages(), 0);
    }

    // -- Anchor first -------------------------------------------------------

    /// The `split_run` sequence that leaves two records with one
    /// fingerprint in a chain: a run's interior page is stored again
    /// elsewhere (interior fps are invisible, so it registers per-page, at
    /// the front of its chain), then a partial share splits the run right
    /// there and the tail re-forms as a run anchored at that fingerprint.
    /// Returns the members, the shared fingerprint and the older record.
    fn run_with_older_twin(
        dev: &Arc<PmemDevice>,
        fact: &Fact,
    ) -> (Vec<(u64, FactEntry)>, Fingerprint, u64) {
        let members = build_members(dev, fact, 600, 8, 2);
        assert!(fact.merge_run(&members));
        let fp = members[3].1.fp;
        let (older, e) = fact.reserve_or_insert(&fp, 900).unwrap();
        assert_eq!(e.block, 900, "interior fp must have been invisible");
        (members, fp, older)
    }

    #[test]
    fn new_anchor_goes_ahead_of_an_older_same_fp_record() {
        let (dev, fact) = setup();
        let (members, fp, older) = run_with_older_twin(&dev, &fact);
        // While the twin's inserting transaction is in flight (UC = 1) its
        // holder addresses it by slot, so it cannot move: the split leaves
        // the tail per-page rather than form an anchor behind it.
        fact.split_run(members[0].0, 3).unwrap();
        assert_eq!(fact.lookup(&fp).unwrap().0, older);
        let tail: Vec<_> = (603..608).map(|b| fact.resolve_block(b).unwrap()).collect();
        assert!(tail.iter().all(|(_, e)| e.run_pages == 1));
        assert_eq!(fact.counters(older), (0, 1));
        // Once it has committed, promoting the tail moves the twin behind
        // the new anchor.
        fact.commit_uc_to_rfc(older);
        assert!(fact.merge_run(&tail));
        let (anchor, a) = fact.lookup(&fp).expect("the fingerprint resolves");
        assert_eq!(
            (a.block, a.run_pages),
            (603, 5),
            "a chain walk must meet the anchor first"
        );
        for k in 3..8 {
            assert_eq!(fact.resolve_block(600 + k).unwrap().0, anchor);
        }
        // The twin gave way but is intact behind its reverse index.
        let (twin, t) = fact.resolve_block(900).unwrap();
        assert_ne!(twin, anchor);
        assert_eq!((t.fp, t.run_pages), (fp, 1));
        assert_eq!(fact.counters(twin), (1, 0));
        assert_eq!(fact.occupied_count(), 3, "head run, tail run, twin");
    }

    #[test]
    fn crash_while_yielding_leaves_one_record_per_block() {
        let (dev, fact) = setup();
        let (members, fp, older) = run_with_older_twin(&dev, &fact);
        fact.commit_uc_to_rfc(older);
        dev.crash_points().arm("denova::fact::merge::mid_yield", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = fact.split_run(members[0].0, 3);
        }));
        assert!(r.is_err());
        let dev2 = Arc::new(dev.crash_clone(denova_pmem::CrashMode::Strict));
        let (fact2, survey) =
            Fact::mount_surveyed(dev2, fact.layout, Arc::new(DedupStats::default()));
        assert!(fact2.repair_runs(&survey) > 0);
        // The copy the reverse cell names survived; the disowned slot is
        // gone, and every record is the one its block resolves to.
        let mut twins = 0;
        fact2.for_each_occupied(|idx, e| {
            assert_eq!(fact2.resolve_block(e.block).unwrap().0, idx);
            twins += (e.block == 900) as u32;
        });
        assert_eq!(twins, 1);
        assert_eq!(fact2.counters(fact2.resolve_block(900).unwrap().0), (1, 0));
        assert!(fact2.lookup(&fp).is_some());
        assert_eq!(fact2.repair_runs(&fact2.survey()), 0);
    }

    #[test]
    fn reorder_keeps_the_anchor_ahead_of_a_hotter_twin() {
        let (_dev, fact) = setup();
        // Chain on prefix 21: DAA entry, IAA head, then a 2-page run anchor
        // (RFC 1), a filler, and a per-page twin of the anchor with RFC 9.
        // The run's second page lives on another chain.
        let fps: Vec<Fingerprint> = (1..=4).map(|s| fp_with_prefix(&fact, 21, s)).collect();
        let elsewhere = fp_with_prefix(&fact, 22, 1);
        for (fp, block) in fps
            .iter()
            .zip([300, 301, 302, 310])
            .chain([(&elsewhere, 303)])
        {
            let (idx, _) = fact.reserve_or_insert(fp, block).unwrap();
            fact.commit_uc_to_rfc(idx);
        }
        let run: Vec<(u64, FactEntry)> = [302, 303]
            .iter()
            .map(|&b| fact.resolve_block(b).unwrap())
            .collect();
        assert!(fact.merge_run(&run));
        let twin = fact.insert_with_rfc(&fps[2], 950, 9).unwrap();
        assert!(crate::reorder::reorder_chain(&fact, 21).unwrap());
        let order: Vec<u64> = fact.chain(21).iter().map(|(i, _)| *i).collect();
        let pos = |idx: u64| order.iter().position(|&i| i == idx).unwrap();
        assert!(
            pos(run[0].0) < pos(twin),
            "anchor must stay ahead: {order:?}"
        );
        assert_eq!(fact.lookup(&fps[2]).unwrap().1.run_pages, 2);
    }

    // -- Reserve / release --------------------------------------------------

    #[test]
    fn reserve_block_pins_per_page_records_only() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 640, 4, 1);
        let (idx, e) = fact.reserve_block(641).unwrap();
        assert_eq!((idx, e.block), (members[1].0, 641));
        assert_eq!(fact.counters(idx), (1, 1));
        assert_eq!(fact.release(641, Count::Uc), Released::Kept);
        assert!(fact.merge_run(&members));
        assert!(fact.reserve_block(641).is_none(), "run interior");
        assert!(fact.reserve_block(640).is_none(), "run anchor");
        assert!(fact.reserve_block(999).is_none(), "untracked");
    }

    /// The step the premature free slipped through: the last owner's
    /// release and a new sharer's reservation meet on one record. Both are
    /// decided under the stripe lock, so when the reservation gets the lock
    /// first the release finds `(0, 1)` and must keep the record.
    #[test]
    fn release_that_loses_the_lock_to_a_reservation_keeps_the_record() {
        let (_dev, fact) = setup();
        let fact = Arc::new(fact);
        let fp = Fingerprint::of(b"last owner");
        let prefix = fp.prefix(fact.prefix_bits());
        let (idx, _) = fact.reserve_or_insert(&fp, 70).unwrap();
        fact.commit_uc_to_rfc(idx); // (1, 0): one owner, nothing in flight
        let guard = fact.lock_chain(prefix);
        let releaser = {
            let fact = fact.clone();
            std::thread::spawn(move || fact.release(70, Count::Rfc))
        };
        // Let the releaser reach the stripe lock (the outcome is the same
        // if it has not: it then simply runs after the reservation).
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(fact.reserve_locked(prefix, &fp).is_ok());
        drop(guard);
        assert_eq!(releaser.join().unwrap(), Released::Kept);
        assert_eq!(fact.counters(idx), (0, 1));
        assert_eq!(fact.lookup(&fp).unwrap().0, idx, "entry intact");
        // The reservation is now all that holds the record: giving it back
        // removes it and hands the block to the caller.
        assert_eq!(fact.release(70, Count::Uc), Released::Removed);
        assert!(fact.lookup(&fp).is_none());
        assert!(fact.resolve_block(70).is_none());
        assert_eq!(fact.release(70, Count::Uc), Released::Untracked);
    }
}
