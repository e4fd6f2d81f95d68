//! An NV-Dedup-style workload-adaptive inline deduplicator — the state of
//! the art the paper argues against (Sections II-B and III).
//!
//! NV-Dedup [Wang et al., IEEE TC '18] performs inline dedup with
//! *workload-adaptive fingerprinting*: while the observed duplicate ratio is
//! low it computes only a cheap weak fingerprint per chunk and stores that;
//! when a weak fingerprint matches, it computes the strong fingerprint(s) to
//! "definitely identify" the duplicate (upgrading the stored entry). Its
//! metadata table lives in NVM but is *indexed from DRAM* — the 0.6 %-of-
//! capacity DRAM overhead the DeNova paper criticizes (Section III), which
//! this module makes measurable ([`NvDedupTable::dram_index_bytes`]).
//!
//! The cost model is exactly Eq. 4's: `T_fw + α·T_f + (1−α)·T_w` per chunk
//! (worst case; a weak hit costs up to two strong fingerprints when the
//! stored entry must be upgraded). Every strong fingerprint goes through
//! the same [`Fact::fingerprint`] cost model as DeNova's, so both schemes
//! pay the same calibrated `T_f`. The bench harness runs this variant
//! alongside the others to show that, on Optane-class latency, even the
//! adaptive scheme cannot reach baseline NOVA — the paper's Eq. 5 claim.
//!
//! This is a *comparison baseline*, deliberately structured like NV-Dedup
//! rather than like FACT: it reuses the (otherwise unused) FACT region of
//! the device as a linear metadata table and keeps all three lookup indexes
//! (weak FP, strong FP, block) in DRAM. It is not crash-recoverable to the
//! same degree as FACT — also per the original design, which flushes
//! metadata entries but rebuilds indexes by scanning.

use crate::fact::Fact;
use crate::stats::DedupStats;
use denova_fingerprint::{weak_fingerprint, Fingerprint, WeakFp};
use denova_nova::{Layout, NovaError, Result};
use denova_pmem::PmemDevice;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Entry flags.
const FLAG_WEAK: u8 = 1;
const FLAG_STRONG: u8 = 2;

/// On-media entry layout (64 B, one cache line like NV-Dedup's
/// "fine-grained" entries):
///
/// ```text
/// 0      flags (1 = weak only, 2 = strong present)
/// 1..4   pad
/// 4..8   refcount (u32)
/// 8..16  weak fingerprint (u64)
/// 16..36 strong fingerprint (20 B, valid when flags == 2)
/// 36..44 block (u64)
/// 44..64 pad
/// ```
const ENTRY_SIZE: u64 = 64;

/// The NV-Dedup-style metadata table plus its DRAM indexes.
pub struct NvDedupTable {
    dev: Arc<PmemDevice>,
    layout: Layout,
    inner: Mutex<Inner>,
    /// Supplies the strong-fingerprint cost model and the shared stats.
    fact: Arc<Fact>,
}

struct Inner {
    /// Next free slot in the linear PM table.
    cursor: u64,
    /// Recycled slots.
    free: Vec<u64>,
    /// DRAM index: weak fingerprint → entry index.
    weak_index: HashMap<WeakFp, u64>,
    /// DRAM index: strong fingerprint → entry index (upgraded entries).
    strong_index: HashMap<Fingerprint, u64>,
    /// DRAM index: canonical block → entry index (reclaim path).
    block_index: HashMap<u64, u64>,
    /// Adaptive-ratio monitor: recent chunks and duplicates among them.
    window_chunks: u64,
    window_dups: u64,
}

/// Outcome of an adaptive-dedup attempt for one page image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvOutcome {
    /// The chunk duplicates `block`; no data write needed.
    Duplicate {
        /// The canonical block holding the identical content.
        block: u64,
    },
    /// Unique; caller must write the data to a fresh block and call
    /// [`NvDedupTable::insert_unique`].
    Unique,
}

impl NvDedupTable {
    /// Create a new instance. `fact` lends its fingerprint cost model and
    /// statistics; its region is the one this table reuses.
    pub fn new(dev: Arc<PmemDevice>, layout: Layout, fact: Arc<Fact>) -> NvDedupTable {
        NvDedupTable {
            dev,
            layout,
            inner: Mutex::new(Inner {
                cursor: 0,
                free: Vec::new(),
                weak_index: HashMap::new(),
                strong_index: HashMap::new(),
                block_index: HashMap::new(),
                window_chunks: 0,
                window_dups: 0,
            }),
            fact,
        }
    }

    fn entry_off(&self, idx: u64) -> u64 {
        debug_assert!(idx < self.capacity());
        self.layout.fact_start * denova_nova::BLOCK_SIZE + idx * ENTRY_SIZE
    }

    /// Entries the reused FACT region can hold.
    pub fn capacity(&self) -> u64 {
        self.layout.fact_blocks * denova_nova::BLOCK_SIZE / ENTRY_SIZE
    }

    /// Current duplicate ratio estimate from the sliding window.
    pub fn observed_dup_ratio(&self) -> f64 {
        let inner = self.inner.lock();
        if inner.window_chunks == 0 {
            return 0.0;
        }
        inner.window_dups as f64 / inner.window_chunks as f64
    }

    /// Bytes of DRAM consumed by the three lookup indexes — the overhead the
    /// DeNova paper's Section III model charges NV-Dedup with (≈ 24 B per
    /// stored chunk for the index entries alone; `HashMap` overhead makes
    /// the real figure larger).
    pub fn dram_index_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        let weak = inner.weak_index.len() as u64 * (8 + 8);
        let strong = inner.strong_index.len() as u64 * (20 + 8);
        let block = inner.block_index.len() as u64 * (8 + 8);
        weak + strong + block
    }

    /// Number of live entries.
    pub fn entries(&self) -> u64 {
        self.inner.lock().block_index.len() as u64
    }

    /// Shared dedup statistics.
    pub fn stats(&self) -> &Arc<DedupStats> {
        self.fact.stats()
    }

    fn write_entry(
        &self,
        idx: u64,
        flags: u8,
        rfc: u32,
        wfp: WeakFp,
        sfp: Option<&Fingerprint>,
        block: u64,
    ) {
        let off = self.entry_off(idx);
        let mut b = [0u8; 64];
        b[0] = flags;
        b[4..8].copy_from_slice(&rfc.to_le_bytes());
        b[8..16].copy_from_slice(&wfp.0.to_le_bytes());
        if let Some(s) = sfp {
            b[16..36].copy_from_slice(s.as_bytes());
        }
        b[36..44].copy_from_slice(&block.to_le_bytes());
        self.dev.write(off, &b);
        self.dev.persist(off, 64);
    }

    fn write_rfc(&self, idx: u64, rfc: u32) {
        let off = self.entry_off(idx) + 4;
        self.dev.write(off, &rfc.to_le_bytes());
        self.dev.persist(off, 4);
    }

    fn read_rfc(&self, idx: u64) -> u32 {
        self.dev.read_u32(self.entry_off(idx) + 4)
    }

    /// The adaptive lookup for one 4 KB page image. Charges `T_fw` always;
    /// `T_f` (strong FP) only on a weak match — and a second `T_f` when the
    /// matched entry was weak-only and must be upgraded by fingerprinting
    /// the stored block (NV-Dedup's lazy upgrade).
    ///
    /// `read_block` fetches the content of a canonical block for
    /// verification/upgrade.
    pub fn lookup_adaptive(
        &self,
        image: &[u8],
        read_block: impl Fn(u64) -> Vec<u8>,
    ) -> (NvOutcome, WeakFp) {
        let stats = self.stats();
        let t0 = Instant::now();
        let wfp = weak_fingerprint(image);
        stats.record_fingerprint_time(t0.elapsed());

        let mut inner = self.inner.lock();
        inner.window_chunks += 1;
        let Some(&idx) = inner.weak_index.get(&wfp) else {
            return (NvOutcome::Unique, wfp);
        };
        // Weak hit: "it generates a strong fingerprint to definitely
        // identify it."
        let t0 = Instant::now();
        let strong = self.fact.fingerprint(image);
        stats.record_fingerprint_time(t0.elapsed());
        let (flags, block) = {
            let off = self.entry_off(idx);
            (self.dev.read_u8(off), self.dev.read_u64(off + 36))
        };
        let stored_strong = if flags == FLAG_WEAK {
            // Upgrade: fingerprint the stored chunk too (the Eq. 4 worst
            // case pays T_f twice on a weak collision).
            let data = read_block(block);
            let t0 = Instant::now();
            let s = self.fact.fingerprint(&data);
            stats.record_fingerprint_time(t0.elapsed());
            let rfc = self.read_rfc(idx);
            self.write_entry(idx, FLAG_STRONG, rfc, wfp, Some(&s), block);
            inner.strong_index.insert(s, idx);
            s
        } else {
            let mut bytes = [0u8; 20];
            self.dev.read_into(self.entry_off(idx) + 16, &mut bytes);
            Fingerprint::from_bytes(bytes)
        };
        if stored_strong == strong {
            inner.window_dups += 1;
            let rfc = self.read_rfc(idx);
            self.write_rfc(idx, rfc + 1);
            stats.record_page(true);
            (NvOutcome::Duplicate { block }, wfp)
        } else {
            // Weak collision with different content. The chunk may still
            // duplicate a *strong-indexed* entry (one that aliased the same
            // weak FP earlier).
            if let Some(&sidx) = inner.strong_index.get(&strong) {
                let blk = self.dev.read_u64(self.entry_off(sidx) + 36);
                inner.window_dups += 1;
                let rfc = self.read_rfc(sidx);
                self.write_rfc(sidx, rfc + 1);
                stats.record_page(true);
                return (NvOutcome::Duplicate { block: blk }, wfp);
            }
            (NvOutcome::Unique, wfp)
        }
    }

    /// Register a unique chunk written to `block`.
    pub fn insert_unique(&self, image: &[u8], wfp: WeakFp, block: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        let idx = match inner.free.pop() {
            Some(i) => i,
            None => {
                if inner.cursor >= self.capacity() {
                    return Err(NovaError::NoSpace);
                }
                inner.cursor += 1;
                inner.cursor - 1
            }
        };
        if let std::collections::hash_map::Entry::Vacant(v) = inner.weak_index.entry(wfp) {
            // Normal case: store weak-only (cheap path — no T_f paid).
            v.insert(idx);
            self.write_entry(idx, FLAG_WEAK, 1, wfp, None, block);
        } else {
            // Weak FP aliases an existing different chunk: index this one by
            // its strong fingerprint instead.
            let t0 = Instant::now();
            let s = self.fact.fingerprint(image);
            self.stats().record_fingerprint_time(t0.elapsed());
            inner.strong_index.insert(s, idx);
            self.write_entry(idx, FLAG_STRONG, 1, wfp, Some(&s), block);
        }
        inner.block_index.insert(block, idx);
        self.stats().record_page(false);
        Ok(())
    }

    /// Reclaim-path: drop one reference to `block`. Returns true when the
    /// block is no longer referenced and the file system may free it.
    /// (NV-Dedup resolves this through its DRAM block index — one HashMap
    /// probe, but DRAM-resident, unlike FACT's delete pointer.)
    pub fn release_block(&self, block: u64) -> bool {
        let mut inner = self.inner.lock();
        let Some(&idx) = inner.block_index.get(&block) else {
            return true;
        };
        let rfc = self.read_rfc(idx);
        if rfc > 1 {
            self.write_rfc(idx, rfc - 1);
            return false;
        }
        // Last reference: remove the entry and its index registrations.
        let off = self.entry_off(idx);
        let flags = self.dev.read_u8(off);
        let wfp = WeakFp(self.dev.read_u64(off + 8));
        if inner.weak_index.get(&wfp) == Some(&idx) {
            inner.weak_index.remove(&wfp);
        }
        if flags == FLAG_STRONG {
            let mut bytes = [0u8; 20];
            self.dev.read_into(off + 16, &mut bytes);
            inner.strong_index.remove(&Fingerprint::from_bytes(bytes));
        }
        inner.block_index.remove(&block);
        inner.free.push(idx);
        self.write_entry(idx, 0, 0, WeakFp(0), None, 0);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn setup() -> (Arc<PmemDevice>, NvDedupTable) {
        let dev = Arc::new(PmemDevice::new(16 * 1024 * 1024));
        let layout = Layout::compute(dev.size() as u64, 64, 2);
        let fact = Arc::new(Fact::new(
            dev.clone(),
            layout,
            Arc::new(DedupStats::default()),
        ));
        let table = NvDedupTable::new(dev.clone(), layout, fact);
        (dev, table)
    }

    fn page(tag: u64) -> Vec<u8> {
        let mut p = vec![0u8; 4096];
        p[..8].copy_from_slice(&tag.to_le_bytes());
        p[100] = 1; // inside a sampled window? offset 100 is not — use 0..8 (sampled)
        p
    }

    #[test]
    fn unique_then_duplicate() {
        let (_dev, t) = setup();
        let a = page(1);
        let (out, wfp) = t.lookup_adaptive(&a, |_| unreachable!());
        assert_eq!(out, NvOutcome::Unique);
        t.insert_unique(&a, wfp, 500).unwrap();
        // Same content again: duplicate of block 500, upgrade path reads it.
        let (out, _) = t.lookup_adaptive(&a, |b| {
            assert_eq!(b, 500);
            a.clone()
        });
        assert_eq!(out, NvOutcome::Duplicate { block: 500 });
        assert_eq!(t.entries(), 1);
    }

    #[test]
    fn strong_fingerprints_pay_facts_calibrated_cost() {
        // NV-Dedup's strong fingerprints go through the same throttle as
        // DeNova's: with a 1 ms pad, the weak hit below (strong FP of the
        // image, plus the lazy upgrade's FP of the stored block) records at
        // least that much fingerprint time.
        let (_dev, t) = setup();
        let a = page(1);
        let (_, wfp) = t.lookup_adaptive(&a, |_| unreachable!());
        t.insert_unique(&a, wfp, 1).unwrap();
        t.fact.fp().set_extra_ns_per_4k(1_000_000);
        let before = t.stats().fingerprint_time();
        let (out, _) = t.lookup_adaptive(&a, |_| a.clone());
        assert_eq!(out, NvOutcome::Duplicate { block: 1 });
        let spent = t.stats().fingerprint_time() - before;
        assert!(spent >= Duration::from_millis(1), "{spent:?}");
        assert_eq!(t.stats().fingerprints(), 2);
    }

    #[test]
    fn upgrade_happens_once() {
        let (_dev, t) = setup();
        let a = page(2);
        let (_, wfp) = t.lookup_adaptive(&a, |_| unreachable!());
        t.insert_unique(&a, wfp, 7).unwrap();
        let reads = std::cell::Cell::new(0);
        let read_block = |_| {
            reads.set(reads.get() + 1);
            a.clone()
        };
        t.lookup_adaptive(&a, read_block);
        t.lookup_adaptive(&a, read_block);
        // The stored entry upgrades to strong on the first weak hit only.
        assert_eq!(reads.get(), 1);
    }

    #[test]
    fn distinct_content_stays_unique() {
        let (_dev, t) = setup();
        for i in 0..20u64 {
            let p = page(i);
            let (out, wfp) = t.lookup_adaptive(&p, |_| unreachable!());
            assert_eq!(out, NvOutcome::Unique, "page {i}");
            t.insert_unique(&p, wfp, 100 + i).unwrap();
        }
        assert_eq!(t.entries(), 20);
        assert_eq!(t.observed_dup_ratio(), 0.0);
    }

    #[test]
    fn dup_ratio_monitor_tracks_hits() {
        let (_dev, t) = setup();
        let a = page(9);
        let (_, wfp) = t.lookup_adaptive(&a, |_| unreachable!());
        t.insert_unique(&a, wfp, 1).unwrap();
        for _ in 0..3 {
            t.lookup_adaptive(&a, |_| a.clone());
        }
        // 4 chunks seen, 3 duplicates.
        assert!((t.observed_dup_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn release_block_refcounts() {
        let (_dev, t) = setup();
        let a = page(3);
        let (_, wfp) = t.lookup_adaptive(&a, |_| unreachable!());
        t.insert_unique(&a, wfp, 42).unwrap();
        t.lookup_adaptive(&a, |_| a.clone()); // rfc = 2
        assert!(!t.release_block(42));
        assert!(t.release_block(42));
        assert_eq!(t.entries(), 0);
        // Unknown blocks free immediately.
        assert!(t.release_block(4242));
        // And the content can be re-registered after release.
        let (out, wfp) = t.lookup_adaptive(&a, |_| unreachable!());
        assert_eq!(out, NvOutcome::Unique);
        t.insert_unique(&a, wfp, 43).unwrap();
    }

    #[test]
    fn dram_index_grows_with_entries() {
        let (_dev, t) = setup();
        assert_eq!(t.dram_index_bytes(), 0);
        for i in 0..50u64 {
            let p = page(i);
            let (_, wfp) = t.lookup_adaptive(&p, |_| unreachable!());
            t.insert_unique(&p, wfp, 1000 + i).unwrap();
        }
        // ≥ 16 B (weak) + 16 B (block) per entry.
        assert!(t.dram_index_bytes() >= 50 * 32);
    }

    #[test]
    fn weak_alias_resolved_by_strong_fp() {
        // Two different pages engineered to share a weak fingerprint: bytes
        // outside the sampled windows differ. Window stride for 4 KB is
        // 576; byte 100 is unsampled.
        let (_dev, t) = setup();
        let mut a = vec![0u8; 4096];
        a[0] = 7;
        let mut b = a.clone();
        b[100] = 99; // unsampled → same weak FP
        assert_eq!(weak_fingerprint(&a), weak_fingerprint(&b));
        let (_, wfp) = t.lookup_adaptive(&a, |_| unreachable!());
        t.insert_unique(&a, wfp, 1).unwrap();
        // b weak-hits a's entry but the strong check rejects it.
        let (out, wfp_b) = t.lookup_adaptive(&b, |_| a.clone());
        assert_eq!(out, NvOutcome::Unique);
        t.insert_unique(&b, wfp_b, 2).unwrap();
        assert_eq!(t.entries(), 2);
        // Each still resolves to its own block afterwards.
        let (out_a, _) = t.lookup_adaptive(&a, |blk| if blk == 1 { a.clone() } else { b.clone() });
        assert_eq!(out_a, NvOutcome::Duplicate { block: 1 });
        let (out_b, _) = t.lookup_adaptive(&b, |blk| if blk == 1 { a.clone() } else { b.clone() });
        assert_eq!(out_b, NvOutcome::Duplicate { block: 2 });
    }
}
