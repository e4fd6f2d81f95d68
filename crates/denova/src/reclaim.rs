//! RFC-checked page reclamation and the NOVA hook implementation.
//!
//! "In DENOVA an additional step to check the RFC is added in the reclaiming
//! process. Only when the RFC is zero, its corresponding data page is
//! reclaimed" (Section IV-D3). The delete pointer makes the FACT entry for a
//! block reachable in exactly two PM reads; a shared block's RFC is
//! decremented (one atomic + one flush), and only the final reference frees
//! the page and removes the FACT entry (≤ 3 more flushes — the overwrite
//! overhead measured in Fig. 11). The decrement and the remove-on-zero are
//! one step under the record's stripe lock ([`Fact::release`]).

use crate::dwq::Dwq;
use crate::fact::{Count, Fact, Released};
use denova_nova::{DedupeFlag, NovaHooks, ReclaimDecision, WriteEntry};
use std::sync::Arc;

/// The hook set DeNova installs into NOVA at mount time.
pub struct DenovaHooks {
    fact: Arc<Fact>,
    dwq: Arc<Dwq>,
    /// When false (inline mode), committed writes are not queued — inline
    /// dedup already ran in the write path.
    queue_writes: bool,
}

impl DenovaHooks {
    /// Create a new instance.
    pub fn new(fact: Arc<Fact>, dwq: Arc<Dwq>, queue_writes: bool) -> DenovaHooks {
        DenovaHooks {
            fact,
            dwq,
            queue_writes,
        }
    }
}

impl NovaHooks for DenovaHooks {
    fn on_write_committed(&self, ino: u64, entry_off: u64, entry: &WriteEntry) {
        if self.queue_writes && entry.dedupe_flag == DedupeFlag::Needed {
            self.dwq.push(ino, entry_off);
        }
    }

    fn on_reclaim_block(&self, block: u64) -> ReclaimDecision {
        reclaim_block(&self.fact, block)
    }

    fn may_gc_entry(&self, entry: &WriteEntry) -> bool {
        // Entries awaiting or undergoing dedup are referenced by DWQ nodes
        // (by device offset); their log pages must not be collected yet.
        !matches!(
            entry.dedupe_flag,
            DedupeFlag::Needed | DedupeFlag::InProcess
        )
    }
}

/// The Section IV-C reclaim flow. Returns what the file system should do
/// with `block`: free it when FACT never tracked it (never deduplicated, or
/// already removed) or when this was its last reference.
pub fn reclaim_block(fact: &Fact, block: u64) -> ReclaimDecision {
    let decision = match fact.release(block, Count::Rfc) {
        Released::Untracked | Released::Removed => ReclaimDecision::Free,
        Released::Kept => ReclaimDecision::Keep,
    };
    fact.device().metrics().event(
        "denova.reclaim",
        &[
            ("block", block),
            ("kept", (decision == ReclaimDecision::Keep) as u64),
        ],
    );
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DedupStats;
    use denova_fingerprint::Fingerprint;
    use denova_nova::Layout;
    use denova_pmem::PmemDevice;

    fn setup() -> Arc<Fact> {
        let dev = Arc::new(PmemDevice::new(16 * 1024 * 1024));
        let layout = Layout::compute(dev.size() as u64, 64, 2);
        dev.memset(
            layout.fact_start * denova_nova::BLOCK_SIZE,
            (layout.fact_blocks * denova_nova::BLOCK_SIZE) as usize,
            0,
        );
        Arc::new(Fact::new(dev, layout, Arc::new(DedupStats::default())))
    }

    #[test]
    fn untracked_block_frees_immediately() {
        let fact = setup();
        assert_eq!(reclaim_block(&fact, 777), ReclaimDecision::Free);
    }

    #[test]
    fn shared_block_kept_until_last_reference() {
        let fact = setup();
        let fp = Fingerprint::of(b"shared");
        let (idx, e) = fact.reserve_or_insert(&fp, 42).unwrap();
        fact.commit_uc_to_rfc(idx, &e);
        fact.inc_uc(idx);
        fact.commit_uc_to_rfc(idx, &e); // RFC = 2: two write entries share block 42
        assert_eq!(reclaim_block(&fact, 42), ReclaimDecision::Keep);
        assert_eq!(fact.counters(idx), (1, 0));
        assert_eq!(reclaim_block(&fact, 42), ReclaimDecision::Free);
        // Entry removed with the last reference.
        assert!(fact.lookup(&fp).is_none());
        assert!(fact.resolve_block(42).is_none());
    }

    #[test]
    fn in_flight_transaction_blocks_free() {
        let fact = setup();
        let fp = Fingerprint::of(b"inflight");
        let (idx, e) = fact.reserve_or_insert(&fp, 9).unwrap(); // UC = 1, RFC = 0
        assert_eq!(reclaim_block(&fact, 9), ReclaimDecision::Keep);
        fact.commit_uc_to_rfc(idx, &e);
        assert_eq!(reclaim_block(&fact, 9), ReclaimDecision::Free);
    }

    /// e2e finding 1 (premature free): the last owner's release and a new
    /// sharer's reservation race on one record. The owner thread registers,
    /// commits and releases block 100 over and over; the sharer thread keeps
    /// reserving the same fingerprint and giving the reservation back. While
    /// the sharer holds a reservation on the owner's record, that record
    /// must stay put and the owner's reclaim must not answer `Free`.
    #[test]
    fn last_release_never_frees_under_an_outstanding_reservation() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
        let fact = setup();
        let fp = Fingerprint::of(b"contended");
        let (done, held, violations) = (
            AtomicBool::new(false),
            AtomicBool::new(false),
            AtomicU64::new(0),
        );
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..30_000 {
                    let (idx, e) = fact.reserve_or_insert(&fp, 100).unwrap();
                    if e.block != 100 {
                        // Hit the sharer's own short-lived record instead.
                        fact.release(e.block, Count::Uc);
                        continue;
                    }
                    fact.commit_uc_to_rfc(idx, &e);
                    if reclaim_block(&fact, 100) == ReclaimDecision::Free && held.load(SeqCst) {
                        violations.fetch_add(1, SeqCst);
                    }
                }
                done.store(true, SeqCst);
            });
            s.spawn(|| {
                while !done.load(SeqCst) {
                    let (idx, e) = fact.reserve_or_insert(&fp, 200).unwrap();
                    if e.block == 100 {
                        held.store(true, SeqCst);
                        std::thread::yield_now();
                        let cur = fact.read_entry(idx);
                        if cur.fp != fp || cur.block != 100 || fact.counters(idx).1 == 0 {
                            violations.fetch_add(1, SeqCst);
                        }
                        held.store(false, SeqCst);
                    }
                    fact.release(e.block, Count::Uc);
                }
            });
        });
        assert_eq!(violations.load(SeqCst), 0, "freed under a live reservation");
    }

    #[test]
    fn stale_zero_entry_swept_on_reclaim() {
        let fact = setup();
        let fp = Fingerprint::of(b"stale");
        let (idx, _) = fact.reserve_or_insert(&fp, 5).unwrap();
        fact.reset_uc(idx); // recovery discarded the UC: (0, 0) but occupied
        assert_eq!(reclaim_block(&fact, 5), ReclaimDecision::Free);
        assert!(fact.lookup(&fp).is_none());
    }

    #[test]
    fn hooks_queue_committed_dedup_candidates_only() {
        let fact = setup();
        let stats = Arc::new(DedupStats::default());
        let dwq = Arc::new(Dwq::new(stats));
        let hooks = DenovaHooks::new(fact, dwq.clone(), true);
        let mut e = WriteEntry {
            dedupe_flag: DedupeFlag::Needed,
            file_pgoff: 0,
            num_pages: 1,
            block: 3,
            size_after: 4096,
            txid: 1,
            hole: false,
        };
        hooks.on_write_committed(7, 4096, &e);
        e.dedupe_flag = DedupeFlag::NotApplicable;
        hooks.on_write_committed(7, 8192, &e);
        assert_eq!(dwq.len(), 1);
        let n = dwq.pop_batch(1);
        assert_eq!((n[0].ino, n[0].entry_off), (7, 4096));
    }

    #[test]
    fn inline_mode_hooks_do_not_queue() {
        let fact = setup();
        let dwq = Arc::new(Dwq::new(Arc::new(DedupStats::default())));
        let hooks = DenovaHooks::new(fact, dwq.clone(), false);
        let e = WriteEntry {
            dedupe_flag: DedupeFlag::Needed,
            file_pgoff: 0,
            num_pages: 1,
            block: 3,
            size_after: 4096,
            txid: 1,
            hole: false,
        };
        hooks.on_write_committed(7, 4096, &e);
        assert!(dwq.is_empty());
    }

    #[test]
    fn gc_vetoes_pending_dedup_entries() {
        let fact = setup();
        let dwq = Arc::new(Dwq::new(Arc::new(DedupStats::default())));
        let hooks = DenovaHooks::new(fact, dwq, true);
        let mut e = WriteEntry {
            dedupe_flag: DedupeFlag::Needed,
            file_pgoff: 0,
            num_pages: 1,
            block: 3,
            size_after: 4096,
            txid: 1,
            hole: false,
        };
        assert!(!hooks.may_gc_entry(&e));
        e.dedupe_flag = DedupeFlag::InProcess;
        assert!(!hooks.may_gc_entry(&e));
        e.dedupe_flag = DedupeFlag::Complete;
        assert!(hooks.may_gc_entry(&e));
        e.dedupe_flag = DedupeFlag::NotApplicable;
        assert!(hooks.may_gc_entry(&e));
    }
}
