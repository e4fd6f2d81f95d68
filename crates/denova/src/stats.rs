//! Deduplication statistics.
//!
//! These counters back the paper's evaluation directly: Table IV's
//! fingerprint-time vs other-ops breakdown, Fig. 10's DWQ lingering-time
//! CDF, the space-savings numbers, and the FACT access-cost claims (DAA
//! lookups resolve in one PM read; reclaim in two).
//!
//! Since the telemetry migration every counter lives in the device's shared
//! [`MetricsRegistry`] under a `fact.*` / `denova.*` / `dwq.*` name, so the
//! same numbers surface through `denova-cli stats` and the bench harness.
//! DWQ lingering times are additionally recorded into the `dwq.linger_ns`
//! histogram; the raw per-node vector is kept because Fig. 10 needs the
//! exact CDF, not log-bucket approximations.

use denova_telemetry::{Counter, Histogram, MetricsRegistry};
use parking_lot::Mutex;
use std::time::Duration;

/// Shared dedup counters, backed by a [`MetricsRegistry`]. All counters use
/// relaxed atomics — statistics, not synchronization.
#[derive(Debug)]
pub struct DedupStats {
    // FACT.
    lookups: Counter,
    lookup_pm_reads: Counter,
    daa_direct_hits: Counter,
    hits: Counter,
    misses: Counter,
    inserts: Counter,
    iaa_inserts: Counter,
    removes: Counter,
    entry_flushes: Counter,
    // Dedup outcomes.
    pages_scanned: Counter,
    duplicate_pages: Counter,
    unique_pages: Counter,
    pages_skipped_stale: Counter,
    // Two-stage lock split (dedup.rs): how often the stage-1 prefingerprint
    // survived stage-2 revalidation vs had to be redone under the write
    // lock.
    prefp_reused_pages: Counter,
    refingerprinted_pages: Counter,
    // Latency breakdown (Table IV): 4 KB chunks fingerprinted through the
    // cost model, and the time spent on them and on everything else.
    fingerprints: Counter,
    fingerprint_ns: Counter,
    other_ops_ns: Counter,
    // DWQ.
    enqueued: Counter,
    dequeued: Counter,
    linger_hist: Histogram,
    /// Lingering time (enqueue → dequeue) per node, for the Fig. 10 CDF.
    lingering_ns: Mutex<Vec<u64>>,
    // Reordering.
    reorders: Counter,
}

impl Default for DedupStats {
    /// Stats backed by a fresh private registry (standalone use in tests).
    fn default() -> Self {
        Self::new(&MetricsRegistry::new())
    }
}

impl DedupStats {
    /// Registers the dedup counters in `registry` and returns the facade.
    pub fn new(registry: &MetricsRegistry) -> Self {
        DedupStats {
            lookups: registry.counter("fact.lookups"),
            lookup_pm_reads: registry.counter("fact.lookup_pm_reads"),
            daa_direct_hits: registry.counter("fact.daa_direct_hits"),
            hits: registry.counter("fact.hits"),
            misses: registry.counter("fact.misses"),
            inserts: registry.counter("fact.inserts"),
            iaa_inserts: registry.counter("fact.iaa_inserts"),
            removes: registry.counter("fact.removes"),
            entry_flushes: registry.counter("fact.entry_flushes"),
            pages_scanned: registry.counter("denova.pages_scanned"),
            duplicate_pages: registry.counter("denova.duplicate_pages"),
            unique_pages: registry.counter("denova.unique_pages"),
            pages_skipped_stale: registry.counter("denova.pages_skipped_stale"),
            prefp_reused_pages: registry.counter("denova.prefp_reused_pages"),
            refingerprinted_pages: registry.counter("denova.refingerprinted_pages"),
            fingerprints: registry.counter("denova.fingerprints"),
            fingerprint_ns: registry.counter("denova.fingerprint_ns"),
            other_ops_ns: registry.counter("denova.other_ops_ns"),
            enqueued: registry.counter("dwq.enqueued"),
            dequeued: registry.counter("dwq.dequeued"),
            linger_hist: registry.histogram("dwq.linger_ns"),
            lingering_ns: Mutex::new(Vec::new()),
            reorders: registry.counter("fact.reorders"),
        }
    }

    // -- FACT hooks (called by `fact.rs`) --------------------------------

    pub(crate) fn bump_lookups(&self) {
        self.lookups.inc();
    }

    pub(crate) fn record_lookup_reads(&self, reads: u64, direct: bool) {
        self.lookup_pm_reads.add(reads);
        if direct {
            self.daa_direct_hits.inc();
        }
    }

    pub(crate) fn bump_hits(&self) {
        self.hits.inc();
    }

    pub(crate) fn bump_misses(&self) {
        self.misses.inc();
    }

    pub(crate) fn bump_inserts(&self) {
        self.inserts.inc();
    }

    pub(crate) fn bump_iaa_inserts(&self) {
        self.iaa_inserts.inc();
    }

    pub(crate) fn bump_removes(&self) {
        self.removes.inc();
    }

    pub(crate) fn bump_flushes(&self, n: u64) {
        self.entry_flushes.add(n);
    }

    pub(crate) fn bump_reorders(&self) {
        self.reorders.inc();
    }

    // -- Dedup outcomes ---------------------------------------------------

    pub(crate) fn record_page(&self, duplicate: bool) {
        self.pages_scanned.inc();
        if duplicate {
            self.duplicate_pages.inc();
        } else {
            self.unique_pages.inc();
        }
    }

    pub(crate) fn record_stale_page(&self) {
        self.pages_skipped_stale.inc();
    }

    pub(crate) fn record_prefp_reused(&self) {
        self.prefp_reused_pages.inc();
    }

    pub(crate) fn record_refingerprinted(&self) {
        self.refingerprinted_pages.inc();
    }

    pub(crate) fn record_fingerprints(&self, chunks: u64) {
        self.fingerprints.add(chunks);
    }

    pub(crate) fn record_fingerprint_time(&self, d: Duration) {
        self.fingerprint_ns.add(d.as_nanos() as u64);
    }

    pub(crate) fn record_other_ops_time(&self, d: Duration) {
        self.other_ops_ns.add(d.as_nanos() as u64);
    }

    // -- DWQ ---------------------------------------------------------------

    pub(crate) fn record_enqueue(&self) {
        self.enqueued.inc();
    }

    pub(crate) fn record_dequeue(&self, lingered: Duration) {
        self.dequeued.inc();
        let ns = lingered.as_nanos() as u64;
        self.linger_hist.record(ns);
        self.lingering_ns.lock().push(ns);
    }

    // -- Readouts -----------------------------------------------------------

    /// FACT lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups.get()
    }

    /// Average PM reads per FACT lookup — 1.0 means every lookup was a
    /// direct DAA access.
    pub fn avg_lookup_reads(&self) -> f64 {
        let l = self.lookups();
        if l == 0 {
            return 0.0;
        }
        self.lookup_pm_reads.get() as f64 / l as f64
    }

    /// Lookups resolved by the DAA alone.
    pub fn daa_direct_hits(&self) -> u64 {
        self.daa_direct_hits.get()
    }

    /// Lookups that found an existing fingerprint.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that found no existing fingerprint.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// New FACT entries created.
    pub fn inserts(&self) -> u64 {
        self.inserts.get()
    }

    /// Inserts that landed in the IAA (prefix collisions).
    pub fn iaa_inserts(&self) -> u64 {
        self.iaa_inserts.get()
    }

    /// FACT entries removed.
    pub fn removes(&self) -> u64 {
        self.removes.get()
    }

    /// Cache-line flushes spent on FACT entry updates.
    pub fn entry_flushes(&self) -> u64 {
        self.entry_flushes.get()
    }

    /// Pages fingerprinted by the dedup process.
    pub fn pages_scanned(&self) -> u64 {
        self.pages_scanned.get()
    }

    /// Duplicate pages found (each saves one 4 KB block).
    pub fn duplicate_pages(&self) -> u64 {
        self.duplicate_pages.get()
    }

    /// Unique pages registered in FACT.
    pub fn unique_pages(&self) -> u64 {
        self.unique_pages.get()
    }

    /// Pages skipped because the file overwrote them before dedup ran.
    pub fn stale_pages(&self) -> u64 {
        self.pages_skipped_stale.get()
    }

    /// Pages whose stage-1 fingerprint was reused after stage-2
    /// revalidation (the lock-split fast path).
    pub fn prefp_reused_pages(&self) -> u64 {
        self.prefp_reused_pages.get()
    }

    /// Pages re-fingerprinted under the write lock because revalidation
    /// missed the stage-1 snapshot.
    pub fn refingerprinted_pages(&self) -> u64 {
        self.refingerprinted_pages.get()
    }

    /// Bytes of storage saved by deduplication so far.
    pub fn bytes_saved(&self) -> u64 {
        self.duplicate_pages() * denova_pmem::PAGE_SIZE as u64
    }

    /// 4 KB chunks fingerprinted through the calibrated cost model
    /// ([`crate::Fact::fingerprint`]), each charged one modelled `T_f`.
    pub fn fingerprints(&self) -> u64 {
        self.fingerprints.get()
    }

    /// Total fingerprinting time (Table IV "FP Time").
    pub fn fingerprint_time(&self) -> Duration {
        Duration::from_nanos(self.fingerprint_ns.get())
    }

    /// Total non-fingerprint dedup time (Table IV "Other Ops": chunking,
    /// FACT lookups, entry appends, counter updates).
    pub fn other_ops_time(&self) -> Duration {
        Duration::from_nanos(self.other_ops_ns.get())
    }

    /// DWQ nodes enqueued.
    pub fn enqueued(&self) -> u64 {
        self.enqueued.get()
    }

    /// DWQ nodes dequeued (processed).
    pub fn dequeued(&self) -> u64 {
        self.dequeued.get()
    }

    /// Lingering times of every dequeued DWQ node, in nanoseconds
    /// (Fig. 10's raw data).
    pub fn lingering_ns(&self) -> Vec<u64> {
        self.lingering_ns.lock().clone()
    }

    /// IAA chain reorders performed.
    pub fn reorders(&self) -> u64 {
        self.reorders.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_accounting_sums() {
        let s = DedupStats::default();
        s.record_page(true);
        s.record_page(true);
        s.record_page(false);
        assert_eq!(s.pages_scanned(), 3);
        assert_eq!(s.duplicate_pages(), 2);
        assert_eq!(s.unique_pages(), 1);
        assert_eq!(s.bytes_saved(), 8192);
    }

    #[test]
    fn avg_lookup_reads_divides() {
        let s = DedupStats::default();
        assert_eq!(s.avg_lookup_reads(), 0.0);
        s.bump_lookups();
        s.record_lookup_reads(1, true);
        s.bump_lookups();
        s.record_lookup_reads(3, false);
        assert!((s.avg_lookup_reads() - 2.0).abs() < 1e-9);
        assert_eq!(s.daa_direct_hits(), 1);
    }

    #[test]
    fn lingering_records_every_dequeue() {
        let s = DedupStats::default();
        s.record_enqueue();
        s.record_enqueue();
        s.record_dequeue(Duration::from_millis(5));
        s.record_dequeue(Duration::from_millis(10));
        assert_eq!(s.enqueued(), 2);
        assert_eq!(s.dequeued(), 2);
        let l = s.lingering_ns();
        assert_eq!(l.len(), 2);
        assert!(l[0] >= 5_000_000 && l[1] >= 10_000_000);
    }

    #[test]
    fn time_breakdown_accumulates() {
        let s = DedupStats::default();
        s.record_fingerprint_time(Duration::from_micros(11));
        s.record_fingerprint_time(Duration::from_micros(9));
        s.record_other_ops_time(Duration::from_micros(4));
        assert_eq!(s.fingerprint_time(), Duration::from_micros(20));
        assert_eq!(s.other_ops_time(), Duration::from_micros(4));
    }

    #[test]
    fn counters_surface_in_the_shared_registry() {
        let registry = MetricsRegistry::new();
        let s = DedupStats::new(&registry);
        s.bump_lookups();
        s.bump_hits();
        s.record_page(true);
        s.record_dequeue(Duration::from_micros(3));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("fact.lookups"), Some(1));
        assert_eq!(snap.counter("fact.hits"), Some(1));
        assert_eq!(snap.counter("denova.duplicate_pages"), Some(1));
        assert_eq!(snap.counter("dwq.dequeued"), Some(1));
        let h = snap.histogram("dwq.linger_ns").expect("linger histogram");
        assert_eq!(h.count, 1);
    }
}
