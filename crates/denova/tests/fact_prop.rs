//! Property tests: FACT behaves like a reference map under random operation
//! sequences, and its chain structure stays sound through inserts, counter
//! traffic, removals, and reorders; and the streaming readers (the survey,
//! both mounts) see exactly what a slot-by-slot `read_entry` walk sees.

use denova::fact::Count;
use denova::{reorder_chain, DedupStats, Fact, FactEntry};
use denova_fingerprint::Fingerprint;
use denova_nova::Layout;
use denova_pmem::PmemDevice;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    /// Reserve-or-insert fingerprint #k (mapped to a synthetic fp/block).
    Reserve(u8),
    /// Commit one pending UC of fingerprint #k.
    Commit(u8),
    /// Release one reference of fingerprint #k (reclaim path).
    Release(u8),
    /// Reorder the chain of the prefix that fingerprint #k maps to.
    Reorder(u8),
    /// Resolve fingerprint #k's canonical block via the delete pointer.
    Resolve(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Keys 0..12, with several sharing one FACT prefix (collisions).
    prop_oneof![
        (0u8..12).prop_map(Op::Reserve),
        (0u8..12).prop_map(Op::Commit),
        (0u8..12).prop_map(Op::Release),
        (0u8..12).prop_map(Op::Reorder),
        (0u8..12).prop_map(Op::Resolve),
    ]
}

struct Harness {
    fact: Fact,
    /// key → (fingerprint, block).
    keys: Vec<(Fingerprint, u64)>,
}

impl Harness {
    fn new() -> Harness {
        let dev = Arc::new(PmemDevice::new(16 * 1024 * 1024));
        let layout = Layout::compute(dev.size() as u64, 64, 2);
        dev.memset(
            layout.fact_start * denova_nova::BLOCK_SIZE,
            (layout.fact_blocks * denova_nova::BLOCK_SIZE) as usize,
            0,
        );
        let fact = Fact::new(dev, layout, Arc::new(DedupStats::default()));
        // Keys 0..6 share prefix 3 (forcing IAA chains); 6..12 get distinct
        // prefixes.
        let bits = fact.prefix_bits();
        let keys = (0..12u8)
            .map(|k| {
                let mut bytes = [0u8; 20];
                let prefix: u64 = if k < 6 { 3 } else { 100 + k as u64 };
                bytes[..8].copy_from_slice(&(prefix << (64 - bits)).to_be_bytes());
                bytes[19] = k + 1;
                bytes[18] = 1;
                (Fingerprint::from_bytes(bytes), 2000 + k as u64)
            })
            .collect();
        Harness { fact, keys }
    }

    /// Validate every chain's structural invariants.
    fn check_chains(&self) -> Result<(), String> {
        let mut seen_indices = std::collections::HashSet::new();
        let mut prefixes: Vec<u64> = (0..12u8)
            .map(|k| self.keys[k as usize].0.prefix(self.fact.prefix_bits()))
            .collect();
        prefixes.sort();
        prefixes.dedup();
        for &p in &prefixes {
            let chain = self.fact.chain(p);
            for (i, (idx, e)) in chain.iter().enumerate() {
                if i > 0 && !seen_indices.insert(*idx) {
                    return Err(format!("index {idx} appears in two chains"));
                }
                if i == 0 {
                    // DAA entry.
                    if *idx != p {
                        return Err(format!("chain head {idx} != prefix {p}"));
                    }
                } else if i == 1 {
                    if e.prev != 0 {
                        return Err(format!("IAA head prev = {}", e.prev));
                    }
                } else if e.prev != chain[i - 1].0 as i64 {
                    return Err(format!(
                        "node {idx} prev {} != predecessor {}",
                        e.prev,
                        chain[i - 1].0
                    ));
                }
                // Every chained entry shares the prefix.
                if e.fp.prefix(self.fact.prefix_bits()) != p {
                    return Err(format!("entry {idx} in wrong chain"));
                }
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fact_matches_reference_counts(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let h = Harness::new();
        // Model: key → (rfc, uc); absent = not in table.
        let mut model: HashMap<u8, (u32, u32)> = HashMap::new();

        for op in &ops {
            match *op {
                Op::Reserve(k) => {
                    let (fp, block) = h.keys[k as usize];
                    let (_, _) = h.fact.reserve_or_insert(&fp, block).unwrap();
                    let e = model.entry(k).or_insert((0, 0));
                    e.1 += 1;
                }
                Op::Commit(k) => {
                    if let Some((fp, _)) = model.get(&k).map(|_| h.keys[k as usize]) {
                        let idx = h.fact.lookup(&fp).map(|(i, _)| i);
                        let committed = idx.is_some_and(|i| h.fact.commit_uc_to_rfc(i));
                        let m = model.get_mut(&k).unwrap();
                        if m.1 > 0 {
                            prop_assert!(committed);
                            m.1 -= 1;
                            m.0 += 1;
                        } else {
                            prop_assert!(!committed);
                        }
                    }
                }
                Op::Release(k) => {
                    let (_, block) = h.keys[k as usize];
                    let decision = denova::reclaim::reclaim_block(&h.fact, block);
                    match model.get_mut(&k) {
                        None => {
                            prop_assert_eq!(decision, denova_nova::ReclaimDecision::Free);
                        }
                        Some(m) => {
                            if m.0 > 0 {
                                m.0 -= 1;
                            }
                            if m.0 == 0 && m.1 == 0 {
                                prop_assert_eq!(decision, denova_nova::ReclaimDecision::Free);
                                model.remove(&k);
                            } else {
                                prop_assert_eq!(decision, denova_nova::ReclaimDecision::Keep);
                            }
                        }
                    }
                }
                Op::Reorder(k) => {
                    let prefix = h.keys[k as usize].0.prefix(h.fact.prefix_bits());
                    reorder_chain(&h.fact, prefix).unwrap();
                }
                Op::Resolve(k) => {
                    let (fp, block) = h.keys[k as usize];
                    let resolved = h.fact.resolve_block(block);
                    if model.contains_key(&k) {
                        let (idx, e) = resolved.expect("tracked block must resolve");
                        prop_assert_eq!(e.block, block);
                        prop_assert_eq!(e.fp, fp);
                        prop_assert_eq!(h.fact.lookup(&fp).unwrap().0, idx);
                    } else {
                        prop_assert!(resolved.is_none());
                    }
                }
            }
            // Counters always match the model exactly.
            for (&k, &(rfc, uc)) in &model {
                let (fp, _) = h.keys[k as usize];
                let (idx, _) = h.fact.lookup(&fp).expect("modelled key present");
                prop_assert_eq!(h.fact.counters(idx), (rfc, uc), "key {}", k);
            }
            // Absent keys don't resolve.
            for k in 0..12u8 {
                if !model.contains_key(&k) {
                    prop_assert!(h.fact.lookup(&h.keys[k as usize].0).is_none());
                }
            }
            h.check_chains().map_err(TestCaseError::fail)?;
        }
        // Occupancy equals the model's cardinality.
        prop_assert_eq!(h.fact.occupied_count(), model.len() as u64);
    }
}

/// Table-shaping operations for the survey equivalence test.
#[derive(Debug, Clone)]
enum Shape {
    /// Insert key #k with one committed owner (a second insert adds one).
    Insert(u8),
    /// Drop every owner of key #k's block: the record goes away.
    Remove(u8),
    /// Promote the records of keys `start .. start + len` (consecutive
    /// blocks) into one extent run, if they qualify.
    Merge(u8, u8),
    /// Split the run covering key #k's block back into per-page records.
    Demote(u8),
    /// Reorder the chain key #k hashes to.
    Reorder(u8),
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (0u8..12).prop_map(Shape::Insert),
        (0u8..12).prop_map(Shape::Insert),
        (0u8..12).prop_map(Shape::Remove),
        (0u8..11, 2u8..6).prop_map(|(start, len)| Shape::Merge(start, len)),
        (0u8..12).prop_map(Shape::Demote),
        (0u8..12).prop_map(Shape::Reorder),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn survey_equals_a_slot_by_slot_read(ops in prop::collection::vec(shape_strategy(), 1..60)) {
        let h = Harness::new();
        let fact = &h.fact;
        for op in &ops {
            match *op {
                Shape::Insert(k) => {
                    let (fp, block) = h.keys[k as usize];
                    // A key absorbed into a run has no record of its own; a
                    // fresh insert for its block would double-cover it.
                    if fact.lookup(&fp).is_some() || fact.resolve_block(block).is_none() {
                        let (idx, _) = fact.reserve_or_insert(&fp, block).unwrap();
                        fact.commit_uc_to_rfc(idx);
                    }
                }
                Shape::Remove(k) => {
                    let (_, block) = h.keys[k as usize];
                    while fact.release(block, Count::Rfc) == denova::fact::Released::Kept {}
                }
                Shape::Merge(start, len) => {
                    let members: Option<Vec<(u64, FactEntry)>> = (start..(start + len).min(12))
                        .map(|k| fact.resolve_block(h.keys[k as usize].1))
                        .collect();
                    if let Some(members) = members {
                        fact.merge_run(&members);
                    }
                }
                Shape::Demote(k) => {
                    if let Some((idx, _)) = fact.resolve_block(h.keys[k as usize].1) {
                        fact.demote_run(idx).unwrap();
                    }
                }
                Shape::Reorder(k) => {
                    let prefix = h.keys[k as usize].0.prefix(fact.prefix_bits());
                    reorder_chain(fact, prefix).unwrap();
                }
            }
        }

        // The reference: one 64 B device read per slot.
        let reference: Vec<FactEntry> = (0..fact.entries()).map(|i| fact.read_entry(i)).collect();
        let occupied: Vec<(u64, FactEntry)> = reference
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_occupied())
            .map(|(i, e)| (i as u64, *e))
            .collect();
        // What `Fact::mount` built before it streamed: descending, so that
        // recycled slots are served in ascending order.
        let free_iaa: Vec<u64> = (fact.daa_entries()..fact.entries())
            .rev()
            .filter(|&i| !reference[i as usize].is_occupied())
            .collect();

        let dev = fact.device().clone();
        let before = dev.stats().snapshot().reads;
        let survey = fact.survey();
        let layout = Layout::compute(dev.size() as u64, 64, 2);
        prop_assert_eq!(dev.stats().snapshot().reads - before, layout.fact_blocks);
        prop_assert_eq!(survey.cost().reads, layout.fact_blocks);
        prop_assert_eq!(survey.occupied(), &occupied[..]);
        prop_assert_eq!(survey.free_iaa(), &free_iaa[..]);
        for block in 0..fact.entries() {
            let live = fact.resolve_block(block);
            let surveyed = survey.resolve(block).map(|(idx, e)| (idx, *e));
            prop_assert_eq!(surveyed, live, "block {}", block);
        }
        let mut streamed = Vec::new();
        fact.for_each_occupied(|idx, e| streamed.push((idx, e)));
        prop_assert_eq!(&streamed, &occupied);

        // Both mounts hand out the free IAA slots lowest first, as before.
        let fresh = |salt: u8| {
            let mut bytes = [0u8; 20];
            bytes[..8].copy_from_slice(&(50u64 << (64 - fact.prefix_bits())).to_be_bytes());
            bytes[18] = 2;
            bytes[19] = salt;
            Fingerprint::from_bytes(bytes)
        };
        let stats = || Arc::new(DedupStats::default());
        let image = || Arc::new(dev.crash_clone(denova_pmem::CrashMode::Strict));
        let mounted = Fact::mount(image(), layout, stats());
        let (surveyed, _) = Fact::mount_surveyed(image(), layout, stats());
        for fact in [mounted, surveyed] {
            let served: Vec<u64> = (0..4u8)
                .map(|salt| fact.reserve_or_insert(&fresh(salt), 3000 + salt as u64).unwrap().0)
                .collect();
            let lowest: Vec<u64> = free_iaa.iter().rev().take(3).copied().collect();
            prop_assert_eq!(served[0], 50, "free DAA slot first");
            prop_assert_eq!(&served[1..], &lowest[..]);
        }
    }
}
