//! IAA chain reordering (paper Section IV-E, Fig. 7).
//!
//! A data chunk with a high reference count is likely to be looked up again;
//! if its FACT entry sits at the rear of a long IAA chain, every lookup pays
//! extra PM reads. The daemon therefore reorders flagged chains by
//! descending RFC. Entries are never physically moved — only `prev`/`next`
//! fields change — and the DAA entry (the chain's entry point, addressed by
//! FP prefix) stays where it is, as does the first IAA node, whose `prev`
//! field doubles as the reorder **commit flag**:
//!
//! ```text
//! head.prev == 0            normal state
//! head.prev == head index   phase 1: prev fields being rewritten
//!                           (next fields still hold the old order)
//! head.prev == last index   phase 2: prev fields complete (new order);
//!                           next fields being rewritten
//! head.prev == 0            done
//! ```
//!
//! After a crash, [`recover_reorder`] inspects the flag: a phase-1 crash
//! rebuilds the `prev` fields from the intact `next` chain; a phase-2 crash
//! resumes by rebuilding the `next` fields from the complete `prev` chain —
//! exactly the two recovery arms the paper describes.

use crate::fact::{Fact, NIL};
use denova_nova::Result;

/// Reorder the IAA chain of `prefix` by descending RFC. The DAA entry and
/// the first IAA node keep their positions; the remaining IAA nodes are
/// re-linked in sorted order. Returns true if a reorder was performed.
pub fn reorder_chain(fact: &Fact, prefix: u64) -> Result<bool> {
    let _guard = fact.lock_chain(prefix);
    let dev = fact.device().clone();

    let chain = fact.chain(prefix);
    // chain[0] is the DAA entry; chain[1] the IAA head (commit-flag anchor);
    // only chain[2..] can move.
    // With fewer than two movable nodes (DAA entry and IAA head are fixed)
    // no permutation can change lookup order.
    if chain.len() < 4 {
        return Ok(false);
    }
    let head = chain[1].0;
    let movable = &chain[2..];
    let mut sorted = movable.to_vec();
    sorted.sort_by_key(|(_, e)| std::cmp::Reverse(e.rfc));
    if sorted == movable {
        return Ok(false); // already in order
    }

    // New order after the fixed head.
    let order: Vec<u64> = std::iter::once(head)
        .chain(sorted.iter().map(|(i, _)| *i))
        .collect();
    let last = *order.last().unwrap();

    // Commit flag: head.prev = own index ("the reordering starts by setting
    // this prev field to the index of the head").
    fact.write_prev(head, head as i64);
    dev.crash_point("denova::reorder::phase1_start");

    // Phase 1: rewrite every movable node's prev to its new predecessor.
    for w in order.windows(2) {
        fact.write_prev(w[1], w[0] as i64);
        dev.crash_point("denova::reorder::phase1_step");
    }

    // Flag advances: prev fields complete → head.prev = last node's index.
    fact.write_prev(head, last as i64);
    dev.crash_point("denova::reorder::phase2_start");

    // Phase 2: rewrite the next fields to the new order.
    for w in order.windows(2) {
        fact.write_next(w[0], w[1] as i64);
        dev.crash_point("denova::reorder::phase2_step");
    }
    fact.write_next(last, NIL);

    // Finish: commit flag back to the head sentinel.
    fact.write_prev(head, 0);
    dev.crash_point("denova::reorder::done");
    fact.stats().bump_reorders();
    Ok(true)
}

/// Repair or resume an interrupted reorder of `prefix`'s chain. Safe to call
/// on healthy chains (no-op). Returns true if repair work was done.
pub fn recover_reorder(fact: &Fact, prefix: u64) -> Result<bool> {
    let _guard = fact.lock_chain(prefix);
    let daa = fact.read_entry(prefix);
    if !daa.is_occupied() || daa.next == NIL {
        return Ok(false);
    }
    let head = daa.next as u64;
    let flag = fact.read_prev(head);
    if flag == 0 {
        return Ok(false); // normal
    }
    if flag == head as i64 {
        // Phase-1 crash: prev fields are partially rewritten, but the next
        // chain still encodes the (old) order. Rebuild prevs from nexts.
        let mut order = vec![head];
        let mut cur = head;
        loop {
            match fact.read_next(cur) {
                NIL => break,
                n => {
                    order.push(n as u64);
                    cur = n as u64;
                }
            }
        }
        for w in order.windows(2) {
            fact.write_prev(w[1], w[0] as i64);
        }
        fact.write_prev(head, 0);
        return Ok(true);
    }
    // Phase-2 crash: prev fields encode the complete new order and the flag
    // holds the last node's index. Walk the prev chain backwards from the
    // last node to recover the order, then rewrite the next fields.
    let last = flag as u64;
    let mut rev = vec![last];
    let mut cur = last;
    loop {
        let p = fact.read_prev(cur);
        if cur == head {
            break;
        }
        debug_assert!(p > 0, "broken prev chain during reorder recovery");
        rev.push(p as u64);
        cur = p as u64;
    }
    rev.reverse(); // head .. last in the new order
    for w in rev.windows(2) {
        fact.write_next(w[0], w[1] as i64);
    }
    fact.write_next(last, NIL);
    fact.write_prev(head, 0);
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DedupStats;
    use denova_fingerprint::Fingerprint;
    use denova_nova::Layout;
    use denova_pmem::PmemDevice;
    use std::sync::Arc;

    fn setup() -> (Arc<PmemDevice>, Fact) {
        let dev = Arc::new(PmemDevice::new(16 * 1024 * 1024));
        let layout = Layout::compute(dev.size() as u64, 64, 2);
        dev.memset(
            layout.fact_start * denova_nova::BLOCK_SIZE,
            (layout.fact_blocks * denova_nova::BLOCK_SIZE) as usize,
            0,
        );
        (
            dev.clone(),
            Fact::new(dev, layout, Arc::new(DedupStats::default())),
        )
    }

    fn fp_with_prefix(fact: &Fact, prefix: u64, salt: u8) -> Fingerprint {
        let bits = fact.prefix_bits();
        let mut bytes = [0u8; 20];
        bytes[..8].copy_from_slice(&(prefix << (64 - bits)).to_be_bytes());
        bytes[19] = salt;
        bytes[18] = 1;
        Fingerprint::from_bytes(bytes)
    }

    /// Build a chain of `n` entries on `prefix` with the given RFCs
    /// (position order = insertion order). Returns the indices in insertion
    /// order.
    fn build_chain(fact: &Fact, prefix: u64, rfcs: &[u32]) -> Vec<u64> {
        let mut idxs = Vec::new();
        for (i, &rfc) in rfcs.iter().enumerate() {
            let fp = fp_with_prefix(fact, prefix, i as u8 + 1);
            let (idx, e) = fact.reserve_or_insert(&fp, 100 + i as u64).unwrap();
            fact.commit_uc_to_rfc(idx, &e);
            fact.set_rfc(idx, rfc);
            idxs.push(idx);
        }
        idxs
    }

    fn chain_rfcs(fact: &Fact, prefix: u64) -> Vec<u32> {
        fact.chain(prefix).iter().map(|(_, e)| e.rfc).collect()
    }

    #[test]
    fn reorder_sorts_movable_tail_by_rfc_desc() {
        let (_dev, fact) = setup();
        // DAA=rfc 1, IAA head=rfc 2 (both fixed), then 3, 9, 5, 7.
        build_chain(&fact, 11, &[1, 2, 3, 9, 5, 7]);
        assert!(reorder_chain(&fact, 11).unwrap());
        assert_eq!(chain_rfcs(&fact, 11), vec![1, 2, 9, 7, 5, 3]);
        // prev/next invariants hold after reorder.
        let chain = fact.chain(11);
        assert_eq!(chain[1].1.prev, 0);
        for w in chain[1..].windows(2) {
            assert_eq!(w[1].1.prev, w[0].0 as i64);
        }
        assert_eq!(chain.last().unwrap().1.next, NIL);
    }

    #[test]
    fn sorted_chain_is_left_alone() {
        let (_dev, fact) = setup();
        build_chain(&fact, 12, &[1, 2, 9, 7, 5]);
        assert!(!reorder_chain(&fact, 12).unwrap());
    }

    #[test]
    fn short_chains_never_reorder() {
        let (_dev, fact) = setup();
        build_chain(&fact, 13, &[1, 2]);
        assert!(!reorder_chain(&fact, 13).unwrap());
        build_chain(&fact, 14, &[1]);
        assert!(!reorder_chain(&fact, 14).unwrap());
    }

    #[test]
    fn lookups_still_hit_after_reorder() {
        let (_dev, fact) = setup();
        build_chain(&fact, 15, &[1, 1, 2, 8, 4, 6]);
        reorder_chain(&fact, 15).unwrap();
        for salt in 1..=6u8 {
            let fp = fp_with_prefix(&fact, 15, salt);
            assert!(fact.lookup(&fp).is_some(), "salt {salt} lost after reorder");
        }
    }

    #[test]
    fn hot_entry_moves_forward() {
        let (_dev, fact) = setup();
        // The hottest movable entry (rfc 50) starts last.
        let idxs = build_chain(&fact, 16, &[1, 1, 2, 3, 4, 50]);
        let before: Vec<u64> = fact.chain(16).iter().map(|(i, _)| *i).collect();
        assert_eq!(*before.last().unwrap(), idxs[5]);
        reorder_chain(&fact, 16).unwrap();
        let after: Vec<u64> = fact.chain(16).iter().map(|(i, _)| *i).collect();
        assert_eq!(after[2], idxs[5], "hot entry should be first movable node");
    }

    fn crash_at(fact: &Fact, dev: &Arc<PmemDevice>, point: &str, hit: u64) -> bool {
        dev.crash_points().arm(point, hit);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reorder_chain(fact, 17).unwrap();
        }));
        dev.crash_points().reset();
        r.is_err()
    }

    #[test]
    fn recovery_repairs_crash_at_every_phase() {
        // Crash at each protocol step, then verify recover_reorder restores
        // a consistent chain containing all six fingerprints.
        let points: &[(&str, u64)] = &[
            ("denova::reorder::phase1_start", 0),
            ("denova::reorder::phase1_step", 0),
            ("denova::reorder::phase1_step", 2),
            ("denova::reorder::phase2_start", 0),
            ("denova::reorder::phase2_step", 0),
            ("denova::reorder::phase2_step", 2),
            ("denova::reorder::done", 0),
        ];
        for (point, hit) in points {
            let (dev, fact) = setup();
            build_chain(&fact, 17, &[1, 1, 3, 9, 5, 7]);
            let crashed = crash_at(&fact, &dev, point, *hit);
            assert!(crashed, "{point}@{hit} did not fire");
            recover_reorder(&fact, 17).unwrap();
            // All entries reachable, chain structurally sound.
            let chain = fact.chain(17);
            assert_eq!(chain.len(), 6, "{point}@{hit} lost entries");
            assert_eq!(chain[1].1.prev, 0, "{point}@{hit} flag not cleared");
            for w in chain[1..].windows(2) {
                assert_eq!(w[1].1.prev, w[0].0 as i64, "{point}@{hit} prev broken");
            }
            for salt in 1..=6u8 {
                let fp = fp_with_prefix(&fact, 17, salt);
                assert!(
                    fact.lookup(&fp).is_some(),
                    "{point}@{hit}: fp {salt} unreachable"
                );
            }
            // Recovery is idempotent.
            assert!(!recover_reorder(&fact, 17).unwrap());
        }
    }

    #[test]
    fn recover_on_healthy_chain_is_noop() {
        let (_dev, fact) = setup();
        build_chain(&fact, 18, &[1, 2, 3, 4]);
        assert!(!recover_reorder(&fact, 18).unwrap());
        assert_eq!(chain_rfcs(&fact, 18), vec![1, 2, 3, 4]);
    }

    #[test]
    fn reorder_counts_in_stats() {
        let (_dev, fact) = setup();
        build_chain(&fact, 19, &[1, 1, 2, 9, 3]);
        reorder_chain(&fact, 19).unwrap();
        assert_eq!(fact.stats().reorders(), 1);
    }
}
