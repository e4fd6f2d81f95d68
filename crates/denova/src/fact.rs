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
//! 28..36  block (u64)    canonical data block
//! 36..44  prev (i64)     IAA chain predecessor (0 = chain head sentinel)
//! 44..52  next (i64)     IAA chain successor (-1 = none)
//! 52..60  delete pointer (i64, -1 = none)
//! 60..64  reserved
//! ```
//!
//! Every record stands for one block. Images of superblock version 2 could
//! carry extent-run records in the reserved bytes; version 3 refuses them.
//!
//! **Concurrency: reserve, commit by hint, release.** `Fact` keeps no per-
//! fingerprint DRAM state; [`Fact::lookup`] is the DAA read plus the IAA
//! walk, takes no lock, and is advisory (it can race a chain mutation and
//! miss). Everything that decides takes the fingerprint's stripe lock:
//!
//! * *reserve* ([`Fact::reserve_or_insert`], [`Fact::reserve_existing`],
//!   [`Fact::reserve_block`]) walks the chain once under the lock and either
//!   adds `UC += 1` to the record it finds or inserts a fresh one with
//!   `UC = 1`. It returns the slot and the record as found: the
//!   reservation's hint and its identity, `(fp, canonical block)`;
//! * *commit* ([`Fact::commit_uc_to_rfc`], step ⑥) takes the same lock,
//!   checks that the hinted slot still holds that record — removing a DAA
//!   entry promotes its IAA chain head into the DAA slot, so a record can
//!   move while reserved — re-resolves it by block if not, and moves
//!   `UC → RFC` with one CAS from the counter word it just read;
//! * *release* ([`Fact::release`]: an owner's RFC for reclaim, or the UC of
//!   a reservation given back) re-resolves the block under the same lock,
//!   drops one count, and removes the record when that leaves `(0, 0)`.
//!
//! A record seen at `(0, 0)` therefore cannot gain a sharer before it is
//! cleared, and a record with a sharer in flight is never cleared — nor is
//! its block freed or rewritten, which is what lets the dedup daemon
//! byte-compare a pinned canonical block with no inode lock.
//!
//! **One fence per ordering point.** The count protocol orders three
//! things (§IV-B): UC durable before the log tail commits, RFC durable
//! before the `Complete` flag, and each count update one atomic store. A
//! reservation's `UC += 1` and a commit's `UC → RFC` are therefore stored
//! and flushed here but not fenced: the log append fences on the same
//! thread before its tail commit, and the dedup transaction fences once
//! after its last commit, before its first `Complete` flag. Everything else
//! — inserts, removals, releases, recovery's resets — persists itself.

use crate::stats::DedupStats;
use denova_fingerprint::Fingerprint;
use denova_nova::recovery::phase;
use denova_nova::{Layout, NovaError, PhaseCost, Result};
use denova_pmem::PmemDevice;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

/// Number of chain-lock stripes, by FP prefix. A stripe serializes chain-
/// structure mutations (insert/remove/reorder) and the reserve, commit and
/// release decisions on the records of its chains.
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
/// Bytes of a slot's dedup metadata: counters through `next`.
const METADATA_LEN: usize = 52;

/// Chain-terminator / empty-field sentinel for `prev`, `next`, `delete_ptr`.
pub const NIL: i64 = -1;

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
        }
    }

    /// Whether the slot holds live dedup metadata (the FP of real data is
    /// never all-zero).
    pub fn is_occupied(&self) -> bool {
        !self.fp.is_zero()
    }

    /// Whether this (occupied) record stands for `block`.
    fn covers(&self, block: u64) -> bool {
        self.is_occupied() && self.block == block
    }

    /// The (RFC, UC) pair as the one 64-bit word it is stored as.
    fn counter_word(&self) -> u64 {
        self.rfc as u64 | (self.uc as u64) << 32
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
/// consumer that used to walk FACT itself — the mount's free-slot scan, UC
/// discard, reorder repair, the scrub, fsck — reads this instead, in DRAM.
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
    /// UC discard, reorder repair and the scrub of
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

    /// Flush `[off, off + len)` of one slot (durable at this thread's next
    /// fence), counted as one FACT entry flush.
    fn flush(&self, off: u64, len: usize) {
        self.dev.flush(off, len);
        self.stats.bump_flushes(1);
    }

    /// Store the dedup-metadata fields (counters, FP, block, prev, next) of
    /// slot `idx`, *preserving* its delete-pointer field, and flush the line.
    fn store_metadata(&self, idx: u64, e: &FactEntry) {
        let base = self.off(idx);
        let mut head = [0u8; METADATA_LEN];
        head[0..4].copy_from_slice(&e.rfc.to_le_bytes());
        head[4..8].copy_from_slice(&e.uc.to_le_bytes());
        head[8..28].copy_from_slice(e.fp.as_bytes());
        head[28..36].copy_from_slice(&e.block.to_le_bytes());
        head[36..44].copy_from_slice(&e.prev.to_le_bytes());
        head[44..52].copy_from_slice(&e.next.to_le_bytes());
        self.dev.write(base, &head);
        self.flush(base, METADATA_LEN);
    }

    /// [`Fact::store_metadata`], persisted (one line, one fence).
    fn write_metadata(&self, idx: u64, e: &FactEntry) {
        self.store_metadata(idx, e);
        self.dev.fence();
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

    /// Store the delete pointer in slot `block` as `fact_idx` ("the block
    /// address B is used as an index to set the delete pointer field") and
    /// flush it.
    fn store_delete_ptr(&self, block: u64, fact_idx: i64) {
        debug_assert!(block < self.entries(), "block exceeds FACT range");
        let off = self.off(block) + OFF_DELETE_PTR;
        self.dev.write(off, &fact_idx.to_le_bytes());
        self.flush(off, 8);
    }

    /// [`Fact::store_delete_ptr`], persisted.
    fn set_delete_ptr(&self, block: u64, fact_idx: i64) {
        self.store_delete_ptr(block, fact_idx);
        self.dev.fence();
    }

    /// The delete pointer stored in slot `block` (the reverse index cell).
    fn read_delete_ptr(&self, block: u64) -> i64 {
        let mut b = [0u8; 8];
        self.dev.read_into(self.off(block) + OFF_DELETE_PTR, &mut b);
        i64::from_le_bytes(b)
    }

    // ------------------------------------------------------------------
    // Counters (one atomic 64-bit word per slot)
    // ------------------------------------------------------------------

    /// Current (RFC, UC) of slot `idx`.
    pub fn counters(&self, idx: u64) -> (u32, u32) {
        let v = self.dev.atomic_load_u64(self.off(idx) + OFF_COUNTERS);
        ((v & 0xFFFF_FFFF) as u32, (v >> 32) as u32)
    }

    /// Move slot `idx`'s (RFC, UC) by `f` with one 64-bit CAS, starting from
    /// `cur`, the counter word as the caller last read it (a CAS that finds
    /// another value retries from that). Stores only; `None` — nothing
    /// stored — when `f` declines.
    fn cas_from(
        &self,
        idx: u64,
        mut cur: u64,
        f: impl Fn(u32, u32) -> Option<(u32, u32)>,
    ) -> Option<(u32, u32)> {
        let off = self.off(idx) + OFF_COUNTERS;
        loop {
            let (nrfc, nuc) = f((cur & 0xFFFF_FFFF) as u32, (cur >> 32) as u32)?;
            let new = nrfc as u64 | ((nuc as u64) << 32);
            match self.dev.atomic_cas_u64(off, cur, new) {
                Ok(_) => return Some((nrfc, nuc)),
                Err(actual) => cur = actual,
            }
        }
    }

    /// [`Fact::cas_from`] a fresh load of the word, persisted with a fence
    /// of its own on success.
    fn cas_counters(
        &self,
        idx: u64,
        f: impl Fn(u32, u32) -> Option<(u32, u32)>,
    ) -> Option<(u32, u32)> {
        let off = self.off(idx) + OFF_COUNTERS;
        let done = self.cas_from(idx, self.dev.atomic_load_u64(off), f)?;
        self.flush(off, 8);
        self.dev.fence();
        Some(done)
    }

    /// Step ③ of the dedup flow on a record just read under its stripe
    /// lock: `UC += 1`, flushed but not fenced (module doc: the log append's
    /// fence makes it durable before the tail commit).
    fn pin(&self, idx: u64, e: &FactEntry) {
        self.cas_from(idx, e.counter_word(), |rfc, uc| Some((rfc, uc + 1)));
        self.flush(self.off(idx) + OFF_COUNTERS, 8);
    }

    /// `UC += 1`, persisted — a reservation forged by tests; the reserve
    /// calls are the way in.
    #[cfg(test)]
    pub(crate) fn inc_uc(&self, idx: u64) {
        self.cas_counters(idx, |rfc, uc| Some((rfc, uc + 1)));
    }

    /// Step ⑥ for one reservation: `UC -= 1, RFC += 1` in one 64-bit store.
    /// `slot` and `held` are what the reserve call returned — the record's
    /// slot then, and the record, whose `(fp, block)` identify it. Under the
    /// stripe lock of `held.fp` the slot is checked to still hold that
    /// record; if a chain removal moved it, it is found again by its block.
    /// The store is flushed, not fenced: the caller fences before anything
    /// that must follow it (module doc). Returns false if there was no UC to
    /// commit (recovery discarded it) or no such record.
    pub fn commit_uc_to_rfc(&self, slot: u64, held: &FactEntry) -> bool {
        let _guard = self.lock_chain(held.fp.prefix(self.prefix_bits()));
        let e = self.read_entry(slot);
        let (idx, e) = if e.fp == held.fp && e.covers(held.block) {
            (slot, e)
        } else {
            match self.resolve_block(held.block) {
                Some((idx, e)) if e.fp == held.fp => (idx, e),
                _ => return false,
            }
        };
        let moved = self.cas_from(idx, e.counter_word(), |rfc, uc| {
            (uc > 0).then(|| (rfc + 1, uc - 1))
        });
        if moved.is_some() {
            self.flush(self.off(idx) + OFF_COUNTERS, 8);
        }
        moved.is_some()
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
        self.pin(idx, &entry);
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

    /// Reserve against the record whose canonical block is `block` — extent
    /// growth reaches its next record by block number, not by fingerprint.
    pub fn reserve_block(&self, block: u64) -> Option<(u64, FactEntry)> {
        let (_guard, idx, e) = self.lock_record(block)?;
        self.pin(idx, &e);
        Some((idx, e))
    }

    /// Drop one count from the record covering `block` and remove the record
    /// when that leaves `(0, 0)` — all under the record's stripe lock, where
    /// every reserve also runs, so the decision cannot be overtaken.
    /// `Removed` means no owner and no transaction is left — for a
    /// reservation given back: every owner let go while it was out and their
    /// reclaim answered `Keep` — so the block is the caller's to free.
    pub fn release(&self, block: u64, count: Count) -> Released {
        let Some((_guard, idx, _)) = self.lock_record(block) else {
            return Released::Untracked;
        };
        let dropped = match count {
            Count::Uc => self.abort_uc(idx),
            Count::Rfc => self.dec_rfc(idx),
        };
        // Nothing to drop (RFC or UC already 0 — recovery discarded it, or
        // the scrubber owes a sweep): decide on what is there.
        if dropped.unwrap_or_else(|| self.counters(idx)) != (0, 0) {
            return Released::Kept;
        }
        let _ = self.remove_locked(idx);
        Released::Removed
    }

    /// Write a record for `(fp, block)` with the given `(RFC, UC)` and link
    /// it behind `tail` (`None`: into the free DAA slot). Caller holds the
    /// stripe lock and has `tail` from a walk under it. The record body and
    /// its reverse-index cell share one fence; an IAA record is then linked
    /// behind a second.
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
        };
        let Some(tail) = tail else {
            // The DAA slot itself is free: the entry and its delete pointer.
            self.store_metadata(prefix, &e);
            self.store_delete_ptr(block, prefix as i64);
            self.dev.fence();
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
        self.store_metadata(idx, &e);
        self.store_delete_ptr(block, idx as i64);
        self.dev.fence();
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
    /// steps 1–3).
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
        // removals) are detected by the block check.
        let e = self.read_entry(ptr as u64);
        e.covers(block).then_some((ptr as u64, e))
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

    /// [`Fact::remove`] body, for callers that already hold the stripe lock
    /// of the entry's prefix.
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
                    self.set_delete_ptr(h.block, idx as i64);
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
        let (idx, e) = fact.reserve_or_insert(&fp, 7).unwrap();
        assert!(fact.commit_uc_to_rfc(idx, &e));
        assert_eq!(fact.counters(idx), (1, 0));
        // Nothing left to commit.
        assert!(!fact.commit_uc_to_rfc(idx, &e));
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
        let (ia, e) = fact.reserve_or_insert(&a, 50).unwrap();
        fact.commit_uc_to_rfc(ia, &e);
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
        let (idx, e) = fact.reserve_or_insert(&fp, 77).unwrap();
        fact.commit_uc_to_rfc(idx, &e);
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
        let (idx, e) = fact.reserve_or_insert(&fp, 99).unwrap();
        fact.commit_uc_to_rfc(idx, &e);
        dev.fence(); // the caller's fence: (1, 0) persisted
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
        let (idx, e) = fact.reserve_or_insert(&fp, 40).unwrap();
        fact.commit_uc_to_rfc(idx, &e);
        let fact = Arc::new(fact);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let f = fact.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..250 {
                    f.inc_uc(idx);
                    f.commit_uc_to_rfc(idx, &e);
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

    // -- Reserve / release --------------------------------------------------

    #[test]
    fn reserve_block_pins_the_record_of_its_block() {
        let (_dev, fact) = setup();
        let (idx, e) = fact.reserve_or_insert(&Fingerprint::of(b"b"), 641).unwrap();
        fact.commit_uc_to_rfc(idx, &e);
        let (pinned, pe) = fact.reserve_block(641).unwrap();
        assert_eq!((pinned, pe.block), (idx, 641));
        assert_eq!(fact.counters(idx), (1, 1));
        assert_eq!(fact.release(641, Count::Uc), Released::Kept);
        assert!(fact.reserve_block(999).is_none(), "untracked");
    }

    /// Defect A: a reservation is taken on the IAA chain head, then the
    /// last owner of the chain's DAA entry lets go, and removing that entry
    /// promotes the reserved record into the DAA slot. The commit addressed
    /// by slot alone landed on the cleared IAA slot and was lost, leaving
    /// the moved record at `(0, 1)`; by hint it follows the record.
    #[test]
    fn a_commit_follows_a_record_its_daa_head_promoted() {
        let (_dev, fact) = setup();
        let (head, e) = fact
            .reserve_or_insert(&fp_with_prefix(&fact, 9, 1), 100)
            .unwrap();
        assert!(fact.commit_uc_to_rfc(head, &e));
        let (slot, held) = fact
            .reserve_or_insert(&fp_with_prefix(&fact, 9, 2), 101)
            .unwrap();
        assert!(
            slot >= fact.daa_entries(),
            "the reservation sits in the IAA"
        );
        assert_eq!(fact.release(100, Count::Rfc), Released::Removed);
        assert_eq!(fact.resolve_block(101).unwrap().0, head, "promoted");
        assert!(!fact.read_entry(slot).is_occupied(), "hinted slot cleared");
        assert!(fact.commit_uc_to_rfc(slot, &held));
        assert_eq!(fact.counters(head), (1, 0));
        assert_eq!(fact.counters(slot), (0, 0));
    }

    /// A reservation's `UC += 1` and a commit's `UC → RFC` are stored and
    /// flushed but fenced by the caller — the log append before its tail
    /// commit, the transaction before its first `Complete` flag — so neither
    /// is durable until the caller's fence. An insert fences itself: once
    /// in the DAA, and once more before an IAA record is linked.
    #[test]
    fn counter_steps_wait_for_the_callers_fence_and_inserts_do_not() {
        let (dev, fact) = setup();
        let fences = |f: &dyn Fn()| {
            let before = dev.thread_fences();
            f();
            dev.thread_fences() - before
        };
        let persisted = |idx: u64| {
            let v = dev
                .crash_clone(denova_pmem::CrashMode::Strict)
                .read_u64(fact.off(idx) + OFF_COUNTERS);
            ((v & 0xFFFF_FFFF) as u32, (v >> 32) as u32)
        };
        let (a, b) = (fp_with_prefix(&fact, 3, 1), fp_with_prefix(&fact, 3, 2));
        assert_eq!(
            fences(&|| assert!(fact.reserve_or_insert(&a, 30).is_ok())),
            1
        );
        assert_eq!(
            fences(&|| assert!(fact.reserve_or_insert(&b, 31).is_ok())),
            2
        );
        let (idx, e) = fact.lookup(&a).unwrap();
        assert_eq!(persisted(idx), (0, 1));
        assert_eq!(fences(&|| assert!(fact.reserve_existing(&a).is_some())), 0);
        assert_eq!(fences(&|| assert!(fact.commit_uc_to_rfc(idx, &e))), 0);
        assert_eq!(persisted(idx), (0, 1), "nothing durable before the fence");
        dev.fence();
        assert_eq!(persisted(idx), (1, 1));
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
        let (idx, e) = fact.reserve_or_insert(&fp, 70).unwrap();
        fact.commit_uc_to_rfc(idx, &e); // (1, 0): one owner, nothing in flight
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
