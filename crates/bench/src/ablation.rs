//! Ablations of the FACT design choices DESIGN.md calls out.
//!
//! 1. **IAA reordering** (Section IV-E): average PM reads to look up a hot
//!    (high-RFC) fingerprint parked at the rear of a long collision chain,
//!    before vs after reordering.
//! 2. **Delete pointer** (Section IV-C): reclaim-path cost with the 2-read
//!    delete-pointer indirection vs the naive alternative the paper
//!    motivates it against — re-reading the 4 KB page, re-fingerprinting it,
//!    and looking the fingerprint up.
//! 3. **Cache-line-sized entries**: one flush per FACT entry update vs the
//!    two flushes a 128 B entry would need.

use crate::report;
use denova::{DedupStats, Fact};
use denova_fingerprint::Fingerprint;
use denova_nova::Layout;
use denova_pmem::{PmemDevice, PAGE_SIZE};
use std::sync::Arc;
use std::time::Instant;

fn fresh_fact() -> (Arc<PmemDevice>, Fact) {
    let dev = crate::raw_device(32 * 1024 * 1024);
    let layout = Layout::compute(dev.size() as u64, 64, 2);
    dev.set_latency(denova_pmem::LatencyProfile::none());
    dev.memset(
        layout.fact_start * PAGE_SIZE as u64,
        (layout.fact_blocks * PAGE_SIZE as u64) as usize,
        0,
    );
    dev.set_latency(denova_pmem::LatencyProfile::optane());
    let fact = Fact::new(dev.clone(), layout, Arc::new(DedupStats::default()));
    fact.fp().set_paper_target();
    (dev, fact)
}

fn fp_with_prefix(fact: &Fact, prefix: u64, salt: u16) -> Fingerprint {
    let bits = fact.prefix_bits();
    let mut bytes = [0u8; 20];
    bytes[..8].copy_from_slice(&(prefix << (64 - bits)).to_be_bytes());
    bytes[18..20].copy_from_slice(&salt.to_be_bytes());
    bytes[17] = 1;
    Fingerprint::from_bytes(bytes)
}

#[derive(Debug, Clone)]
/// The `struct` value.
pub struct ReorderAblation {
    /// The `chain_len` value.
    pub chain_len: usize,
    /// The `reads_before` value.
    pub reads_before: f64,
    /// The `ns_before` value.
    pub ns_before: u64,
    /// The `reads_after` value.
    pub reads_after: f64,
    /// The `ns_after` value.
    pub ns_after: u64,
}
denova_telemetry::impl_to_json!(ReorderAblation {
    chain_len,
    reads_before,
    ns_before,
    reads_after,
    ns_after,
});

/// Hot entry at the rear of a chain of `chain_len`: lookup cost before and
/// after reordering.
pub fn reorder(chain_len: usize, lookups: usize) -> ReorderAblation {
    let (dev, fact) = fresh_fact();
    let prefix = 17u64;
    // Cold entries first (RFC 1), hot entry last (RFC 100).
    for i in 0..chain_len - 1 {
        let fp = fp_with_prefix(&fact, prefix, i as u16 + 1);
        let (idx, e) = fact.reserve_or_insert(&fp, 1000 + i as u64).unwrap();
        fact.commit_uc_to_rfc(idx, &e);
    }
    let hot = fp_with_prefix(&fact, prefix, chain_len as u16 + 7);
    let (hot_idx, e) = fact.reserve_or_insert(&hot, 5000).unwrap();
    fact.commit_uc_to_rfc(hot_idx, &e);
    fact.set_rfc(hot_idx, 100);

    let measure = |fact: &Fact| -> (f64, u64) {
        let before = dev.stats().snapshot();
        let t0 = Instant::now();
        for _ in 0..lookups {
            std::hint::black_box(fact.lookup(&hot));
        }
        let ns = t0.elapsed().as_nanos() as u64 / lookups as u64;
        let delta = dev.stats().snapshot().delta(&before);
        (delta.reads as f64 / lookups as f64, ns)
    };

    let (reads_before, ns_before) = measure(&fact);
    denova::reorder_chain(&fact, prefix).unwrap();
    let (reads_after, ns_after) = measure(&fact);
    ReorderAblation {
        chain_len,
        reads_before,
        ns_before,
        reads_after,
        ns_after,
    }
}

#[derive(Debug, Clone)]
/// The `struct` value.
pub struct DeletePtrAblation {
    /// Delete-pointer reclaim lookup: PM read ops, bytes, ns per op.
    pub with_ptr_reads: f64,
    /// The `with_ptr_bytes` value.
    pub with_ptr_bytes: f64,
    /// The `with_ptr_ns` value.
    pub with_ptr_ns: u64,
    /// Naive reclaim lookup (read page + SHA-1 + FACT lookup).
    pub naive_reads: f64,
    /// The `naive_bytes` value.
    pub naive_bytes: f64,
    /// The `naive_ns` value.
    pub naive_ns: u64,
}
denova_telemetry::impl_to_json!(DeletePtrAblation {
    with_ptr_reads,
    with_ptr_bytes,
    with_ptr_ns,
    naive_reads,
    naive_bytes,
    naive_ns,
});

/// Reclaim-path lookup with and without the delete pointer.
pub fn delete_ptr(ops: usize) -> DeletePtrAblation {
    let (dev, fact) = fresh_fact();
    let layout = Layout::compute(dev.size() as u64, 64, 2);
    // Populate: 256 blocks with contents and FACT entries.
    let blocks: Vec<u64> = (0..256u64).map(|i| layout.data_start + i).collect();
    for &b in &blocks {
        let mut page = vec![0u8; PAGE_SIZE];
        page[..8].copy_from_slice(&b.to_le_bytes());
        dev.write(layout.block_off(b), &page);
        dev.persist(layout.block_off(b), PAGE_SIZE);
        let fp = Fingerprint::of(&page);
        let (idx, e) = fact.reserve_or_insert(&fp, b).unwrap();
        fact.commit_uc_to_rfc(idx, &e);
    }

    // Path A: delete pointer (the paper's "exactly two reads").
    let before = dev.stats().snapshot();
    let t0 = Instant::now();
    for i in 0..ops {
        let b = blocks[i % blocks.len()];
        std::hint::black_box(fact.resolve_block(b));
    }
    let with_ptr_ns = t0.elapsed().as_nanos() as u64 / ops as u64;
    let d = dev.stats().snapshot().delta(&before);
    let with_ptr_reads = d.reads as f64 / ops as f64;
    let with_ptr_bytes = d.bytes_read as f64 / ops as f64;

    // Path B: naive — "we should first read and generate an FP of the
    // specific data chunk. Such a process would significantly slow down the
    // reclaiming process."
    let mut page = vec![0u8; PAGE_SIZE];
    let before = dev.stats().snapshot();
    let t0 = Instant::now();
    for i in 0..ops {
        let b = blocks[i % blocks.len()];
        dev.read_into(layout.block_off(b), &mut page);
        let fp = fact.fingerprint(&page);
        std::hint::black_box(fact.lookup(&fp));
    }
    let naive_ns = t0.elapsed().as_nanos() as u64 / ops as u64;
    let d = dev.stats().snapshot().delta(&before);
    let naive_reads = d.reads as f64 / ops as f64;
    let naive_bytes = d.bytes_read as f64 / ops as f64;

    DeletePtrAblation {
        with_ptr_reads,
        with_ptr_bytes,
        with_ptr_ns,
        naive_reads,
        naive_bytes,
        naive_ns,
    }
}

#[derive(Debug, Clone)]
/// The `struct` value.
pub struct EntrySizeAblation {
    /// ns per 64 B (one-line) entry update + persist.
    pub one_line_ns: u64,
    /// ns per simulated 128 B (two-line) entry update + persist.
    pub two_line_ns: u64,
}
denova_telemetry::impl_to_json!(EntrySizeAblation {
    one_line_ns,
    two_line_ns,
});

/// Entry-update persist cost: 64 B vs 128 B entries.
pub fn entry_size(ops: usize) -> EntrySizeAblation {
    let dev = crate::raw_device(16 * 1024 * 1024);
    let buf64 = [0xABu8; 64];
    let buf128 = [0xCDu8; 128];
    let t0 = Instant::now();
    for i in 0..ops {
        let off = ((i % 1024) * 64) as u64;
        dev.write(off, &buf64);
        dev.persist(off, 64);
    }
    let one_line_ns = t0.elapsed().as_nanos() as u64 / ops as u64;
    let t0 = Instant::now();
    for i in 0..ops {
        let off = 1024 * 64 + ((i % 1024) * 128) as u64;
        dev.write(off, &buf128);
        dev.persist(off, 128);
    }
    let two_line_ns = t0.elapsed().as_nanos() as u64 / ops as u64;
    EntrySizeAblation {
        one_line_ns,
        two_line_ns,
    }
}

/// `render` accessor.
pub fn render(r: &ReorderAblation, d: &DeletePtrAblation, e: &EntrySizeAblation) -> String {
    let mut out = report::table(
        &format!(
            "Ablation — IAA reordering (hot entry at rear of {}-entry chain)",
            r.chain_len
        ),
        &["Configuration", "PM reads/lookup", "ns/lookup"],
        &[
            vec![
                "before reorder".to_string(),
                format!("{:.2}", r.reads_before),
                r.ns_before.to_string(),
            ],
            vec![
                "after reorder".to_string(),
                format!("{:.2}", r.reads_after),
                r.ns_after.to_string(),
            ],
        ],
    );
    out.push_str(&report::table(
        "Ablation — delete pointer vs fingerprint-on-reclaim",
        &["Reclaim lookup", "PM reads/op", "PM bytes/op", "ns/op"],
        &[
            vec![
                "delete pointer (DeNova)".to_string(),
                format!("{:.2}", d.with_ptr_reads),
                format!("{:.0}", d.with_ptr_bytes),
                d.with_ptr_ns.to_string(),
            ],
            vec![
                "re-fingerprint (naive)".to_string(),
                format!("{:.2}", d.naive_reads),
                format!("{:.0}", d.naive_bytes),
                d.naive_ns.to_string(),
            ],
        ],
    ));
    out.push_str(&report::table(
        "Ablation — FACT entry fits one cache line",
        &["Entry size", "ns/update+persist"],
        &[
            vec!["64 B (1 flush)".to_string(), e.one_line_ns.to_string()],
            vec!["128 B (2 flushes)".to_string(), e.two_line_ns.to_string()],
        ],
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reordering_cuts_lookup_reads() {
        let _serial = crate::timing_test_lock();
        let r = reorder(12, 50);
        assert!(
            r.reads_before > r.reads_after + 5.0,
            "before {} after {}",
            r.reads_before,
            r.reads_after
        );
        // After reorder the hot entry sits right behind the two fixed
        // positions: 3 reads.
        assert!(r.reads_after <= 3.5, "after = {}", r.reads_after);
    }

    #[test]
    fn delete_pointer_is_exactly_two_reads_and_faster() {
        let _serial = crate::timing_test_lock();
        crate::retry_timing(3, || {
            let d = delete_ptr(100);
            // Exactly two PM read operations touching < 2 cache lines' worth of
            // data, vs a whole 4 KB page plus the lookup for the naive path.
            assert!(
                (d.with_ptr_reads - 2.0).abs() < 0.01,
                "{}",
                d.with_ptr_reads
            );
            assert!(d.with_ptr_bytes < 128.0, "ptr bytes {}", d.with_ptr_bytes);
            assert!(d.naive_bytes > 4096.0, "naive bytes {}", d.naive_bytes);
            assert!(
                d.naive_ns > d.with_ptr_ns * 3,
                "naive {} vs ptr {}",
                d.naive_ns,
                d.with_ptr_ns
            );
        });
    }

    #[test]
    fn one_line_entries_persist_cheaper() {
        let _serial = crate::timing_test_lock();
        crate::retry_timing(3, || {
            let e = entry_size(500);
            assert!(
                e.two_line_ns > e.one_line_ns,
                "two-line {} should exceed one-line {}",
                e.two_line_ns,
                e.one_line_ns
            );
        });
    }
}
