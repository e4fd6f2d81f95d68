//! DeNova — offline deduplication for a log-structured persistent-memory
//! file system (reproduction of "DENOVA: Deduplication Extended NOVA File
//! System", IPDPS/IPPS 2022).
//!
//! The crate layers onto [`denova_nova`]:
//!
//! * [`fact`] — the Failure Atomic Consistent Table, a DRAM-free persistent
//!   dedup index (DAA + IAA, cache-line entries, count-based consistency,
//!   delete pointers);
//! * [`dwq`] — the Deduplication Work Queue feeding the daemon;
//! * [`daemon`] — the background Deduplication Daemon with the paper's
//!   `(n, m)` tunables (Immediate / Delayed modes);
//! * [`dedup`] — Algorithm 1, the crash-consistent dedup transaction;
//! * [`reorder`] — IAA chain reordering with the Fig. 7 commit-flag
//!   protocol;
//! * [`reclaim`] — RFC-checked page reclamation hooked into NOVA;
//! * [`recovery`] — Inconsistency Handling I/II/III and the FACT scrubber;
//! * [`inline`] — the DeNova-Inline baseline (NV-Dedup-style inline dedup).
//!
//! [`Denova`] bundles the stack behind one handle with the four evaluation
//! modes of Section V-A: `Baseline`, `Inline`, `Immediate`, and
//! `Delayed(n, m)`.

#![warn(missing_docs)]

pub mod adaptive;
pub mod daemon;
pub mod dedup;
pub mod dwq;
pub mod fact;
pub mod fp;
pub mod fsck;
pub mod inline;
pub mod nvdedup;
pub mod reclaim;
pub mod recovery;
pub mod reorder;
pub mod stats;

pub use adaptive::{write_inline_adaptive, NvDedupHooks};
pub use daemon::{Daemon, DaemonConfig, DaemonMode};
pub use dedup::{dedup_entry, DedupOutcome};
pub use dwq::{Dwq, DwqNode};
pub use fact::{Fact, FactEntry, Survey, DEFAULT_EXTENT_THRESHOLD_PAGES, NIL};
pub use fp::{FpThrottle, PAPER_FP_NS_PER_4K};
pub use nvdedup::{NvDedupTable, NvOutcome};
pub use reclaim::DenovaHooks;
pub use recovery::{recover, scrub, RecoveryPhases, RecoveryReport};
pub use reorder::{recover_reorder, reorder_chain};
pub use stats::DedupStats;

use denova_nova::{superblock, Nova, NovaOptions, Result};
use denova_pmem::PmemDevice;
use std::sync::Arc;

/// The four system variants evaluated in the paper (Section V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupMode {
    /// Plain NOVA, no deduplication.
    Baseline,
    /// DeNova-Inline: dedup in the critical write path with SHA-1 on every
    /// chunk (the paper's inline comparison point).
    Inline,
    /// NV-Dedup-style workload-adaptive inline dedup: weak fingerprint
    /// first, strong only on weak hits, DRAM-indexed metadata — the Eq. 4/5
    /// scheme the paper proves cannot win on Optane-class latency.
    InlineAdaptive,
    /// DeNova-Immediate: offline dedup, daemon polls the DWQ aggressively.
    Immediate,
    /// DeNova-Delayed(n, m): daemon triggers every `interval_ms`, consuming
    /// at most `batch` DWQ nodes.
    Delayed {
        /// Trigger interval `n` in milliseconds.
        interval_ms: u64,
        /// Max DWQ nodes `m` consumed per trigger.
        batch: usize,
    },
}

impl DedupMode {
    /// Whether foreground write entries are tagged as dedup candidates.
    fn tags_writes(&self) -> bool {
        matches!(self, DedupMode::Immediate | DedupMode::Delayed { .. })
    }

    fn daemon_config(&self) -> Option<DaemonConfig> {
        match *self {
            DedupMode::Immediate => Some(DaemonConfig::immediate()),
            DedupMode::Delayed { interval_ms, batch } => {
                Some(DaemonConfig::delayed(interval_ms, batch))
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for DedupMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DedupMode::Baseline => write!(f, "Baseline NOVA"),
            DedupMode::Inline => write!(f, "DeNova-Inline"),
            DedupMode::InlineAdaptive => write!(f, "NV-Dedup-Adaptive"),
            DedupMode::Immediate => write!(f, "DeNova-Immediate"),
            DedupMode::Delayed { interval_ms, batch } => {
                write!(f, "DeNova-Delayed({interval_ms},{batch})")
            }
        }
    }
}

/// The assembled DeNova stack: NOVA + FACT + DWQ + daemon, in one of the
/// four evaluation modes.
pub struct Denova {
    nova: Arc<Nova>,
    fact: Arc<Fact>,
    /// Present only in `InlineAdaptive` mode (shares the FACT region).
    nvd: Option<Arc<NvDedupTable>>,
    dwq: Arc<Dwq>,
    stats: Arc<DedupStats>,
    mode: DedupMode,
    daemon: Option<Daemon>,
    /// Dedup worker threads (and DWQ shards) this mount was assembled with.
    dedup_workers: usize,
    /// What dedup recovery did, when this mount ran it.
    last_recovery: Option<RecoveryReport>,
}

impl Denova {
    /// Format `dev` and mount in `mode`.
    pub fn mkfs(dev: Arc<PmemDevice>, mut opts: NovaOptions, mode: DedupMode) -> Result<Denova> {
        opts.dedup_enabled = mode.tags_writes();
        let workers = opts.dedup_workers.max(1);
        let extent_threshold = opts.extent_threshold_pages;
        let nova = Arc::new(Nova::mkfs(dev.clone(), opts)?);
        let stats = Arc::new(DedupStats::new(dev.metrics()));
        let fact = Arc::new(Fact::new(dev, *nova.layout(), stats.clone()));
        fact.set_extent_threshold_pages(extent_threshold);
        let dwq = Arc::new(Dwq::with_shards(
            stats.clone(),
            nova.device().metrics().clone(),
            workers,
        ));
        Ok(Self::assemble_with_dwq(
            nova, fact, dwq, stats, mode, workers,
        ))
    }

    /// Mount an existing file system in `mode`, running NOVA recovery and —
    /// unless the last unmount was clean — the dedup recovery procedure.
    pub fn mount(dev: Arc<PmemDevice>, mut opts: NovaOptions, mode: DedupMode) -> Result<Denova> {
        // Read the clean flag before NOVA mount clears it.
        let was_clean =
            superblock::read_superblock(&dev).is_ok() && superblock::was_clean_unmount(&dev);
        opts.dedup_enabled = mode.tags_writes();
        let workers = opts.dedup_workers.max(1);
        let extent_threshold = opts.extent_threshold_pages;
        let nova = Arc::new(Nova::mount(dev.clone(), opts)?);
        let stats = Arc::new(DedupStats::new(dev.metrics()));
        let dwq = Arc::new(Dwq::with_shards(
            stats.clone(),
            dev.metrics().clone(),
            workers,
        ));
        let (fact, last_recovery) = if mode == DedupMode::Baseline || was_clean {
            let fact = Fact::mount(dev.clone(), *nova.layout(), stats.clone());
            fact.set_extent_threshold_pages(extent_threshold);
            if mode != DedupMode::Baseline {
                dwq.restore(&dev, nova.layout());
            }
            // No queue is rebuilt from the flagged entries the log walk
            // found: let them go.
            drop(nova.take_dedup_pending());
            (Arc::new(fact), None)
        } else {
            // Crash mount: the one streaming pass over FACT that rebuilds
            // the free-slot stack is also recovery's survey.
            let (fact, survey) = Fact::mount_surveyed(dev.clone(), *nova.layout(), stats.clone());
            fact.set_extent_threshold_pages(extent_threshold);
            let report = recovery::recover(&nova, &fact, &dwq, survey)?;
            (Arc::new(fact), Some(report))
        };
        let mut fs = Self::assemble_with_dwq(nova, fact, dwq, stats, mode, workers);
        fs.last_recovery = last_recovery;
        Ok(fs)
    }

    fn assemble_with_dwq(
        nova: Arc<Nova>,
        fact: Arc<Fact>,
        dwq: Arc<Dwq>,
        stats: Arc<DedupStats>,
        mode: DedupMode,
        workers: usize,
    ) -> Denova {
        let mut nvd = None;
        match mode {
            DedupMode::Baseline => {}
            DedupMode::InlineAdaptive => {
                // The adaptive baseline repurposes the FACT region as an
                // NV-Dedup-style metadata table with DRAM indexes.
                let table = Arc::new(NvDedupTable::new(
                    nova.device().clone(),
                    *nova.layout(),
                    fact.clone(),
                ));
                nova.set_hooks(Arc::new(adaptive::NvDedupHooks::new(table.clone())));
                nvd = Some(table);
            }
            _ => {
                nova.set_hooks(Arc::new(DenovaHooks::new(
                    fact.clone(),
                    dwq.clone(),
                    mode.tags_writes(),
                )));
            }
        }
        let daemon = mode.daemon_config().map(|cfg| {
            Daemon::spawn(
                nova.clone(),
                fact.clone(),
                dwq.clone(),
                cfg.with_workers(workers),
            )
        });
        Denova {
            nova,
            fact,
            nvd,
            dwq,
            stats,
            mode,
            daemon,
            dedup_workers: workers,
            last_recovery: None,
        }
    }

    // ------------------------------------------------------------------
    // File operations (delegated; write dispatches on mode)
    // ------------------------------------------------------------------

    /// Create an empty file.
    pub fn create(&self, name: &str) -> Result<u64> {
        self.nova.create(name)
    }

    /// Look up a file.
    pub fn open(&self, name: &str) -> Result<u64> {
        self.nova.open(name)
    }

    /// Write `data` at `offset`; in `Inline` mode this runs the inline dedup
    /// write path, otherwise the plain NOVA write (whose committed entries
    /// the hooks enqueue for the daemon).
    pub fn write(&self, ino: u64, offset: u64, data: &[u8]) -> Result<()> {
        match self.mode {
            DedupMode::Inline => inline::write_inline(&self.nova, &self.fact, ino, offset, data),
            DedupMode::InlineAdaptive => adaptive::write_inline_adaptive(
                &self.nova,
                self.nvd.as_ref().expect("adaptive table present"),
                ino,
                offset,
                data,
            ),
            _ => self.nova.write(ino, offset, data),
        }
    }

    /// Read up to `len` bytes at `offset`.
    pub fn read(&self, ino: u64, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.nova.read(ino, offset, len)
    }

    /// Remove a file.
    pub fn unlink(&self, name: &str) -> Result<()> {
        self.nova.unlink(name)
    }

    /// Truncate a file.
    pub fn truncate(&self, ino: u64, new_size: u64) -> Result<()> {
        self.nova.truncate(ino, new_size)
    }

    /// File size in bytes.
    pub fn file_size(&self, ino: u64) -> Result<u64> {
        self.nova.file_size(ino)
    }

    // ------------------------------------------------------------------
    // Dedup control and introspection
    // ------------------------------------------------------------------

    /// What dedup recovery did and read when this handle was mounted:
    /// `None` after `mkfs`, a clean-unmount mount and a `Baseline` mount
    /// (none of which run it). Answers "why did the mount take that long?".
    pub fn last_recovery(&self) -> Option<&RecoveryReport> {
        self.last_recovery.as_ref()
    }

    /// The mounted mode.
    pub fn mode(&self) -> DedupMode {
        self.mode
    }

    /// The underlying file system.
    pub fn nova(&self) -> &Arc<Nova> {
        &self.nova
    }

    /// The FACT handle.
    pub fn fact(&self) -> &Arc<Fact> {
        &self.fact
    }

    /// The work queue.
    pub fn dwq(&self) -> &Arc<Dwq> {
        &self.dwq
    }

    /// Dedup worker threads (and DWQ shards) this mount runs with.
    pub fn dedup_workers(&self) -> usize {
        self.dedup_workers
    }

    /// Dedup statistics.
    pub fn stats(&self) -> &Arc<DedupStats> {
        &self.stats
    }

    /// Block until the daemon has processed every queued node (no-op in
    /// Baseline/Inline modes).
    pub fn drain(&self) {
        if let Some(d) = &self.daemon {
            d.drain();
        }
    }

    /// Enable the daemon's periodic FACT scrub (Section V-C2's background
    /// monitor). No-op in modes without a daemon.
    pub fn set_periodic_scrub(&self, interval: std::time::Duration) {
        if let Some(d) = &self.daemon {
            d.set_scrub_interval(interval);
        }
    }

    /// Run the FACT scrubber (quiesces the daemon first by draining).
    pub fn scrub(&self) -> Result<u64> {
        self.drain();
        recovery::scrub(&self.nova, &self.fact)
    }

    /// Run `f` with the dedup worker pool quiesced: no dedup batch or scrub
    /// is in flight anywhere in the pool while `f` runs. The replication
    /// layer captures crash-consistent device snapshots under this. No-op
    /// wrapper in modes without a daemon.
    pub fn quiesce<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.daemon {
            Some(d) => d.with_quiesced(f),
            None => f(),
        }
    }

    /// Bytes of storage the dedup layer has saved so far.
    pub fn bytes_saved(&self) -> u64 {
        self.stats.bytes_saved()
    }

    /// Bytes currently saved by sharing, derived from persistent FACT state
    /// (sum of `(RFC − 1) · 4 KB` over occupied entries). Unlike
    /// [`Denova::bytes_saved`] — a session counter — this survives remounts.
    pub fn persistent_bytes_saved(&self) -> u64 {
        let mut extra_refs = 0u64;
        self.fact.for_each_occupied(|_, e| {
            extra_refs += e.rfc.saturating_sub(1) as u64;
        });
        extra_refs * denova_pmem::PAGE_SIZE as u64
    }

    /// DRAM consumed by dedup *index* structures: always 0 for FACT-based
    /// modes (the paper's headline property); nonzero for the NV-Dedup-style
    /// adaptive baseline.
    pub fn dedup_index_dram_bytes(&self) -> u64 {
        self.nvd.as_ref().map_or(0, |t| t.dram_index_bytes())
    }

    /// Cleanly unmount: stop the daemon, save the DWQ to PM, persist the
    /// clean flag. Consumes the handle.
    pub fn unmount(mut self) {
        if let Some(d) = self.daemon.take() {
            d.stop();
        }
        if self.mode != DedupMode::Baseline {
            self.dwq.save(self.nova.device(), self.nova.layout());
        }
        self.nova.unmount();
    }
}

impl std::fmt::Debug for Denova {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Denova")
            .field("mode", &self.mode.to_string())
            .field("files", &self.nova.file_count())
            .field("dwq_len", &self.dwq.len())
            .field("bytes_saved", &self.bytes_saved())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> NovaOptions {
        NovaOptions {
            num_inodes: 128,
            ..Default::default()
        }
    }

    fn dev() -> Arc<PmemDevice> {
        Arc::new(PmemDevice::new(32 * 1024 * 1024))
    }

    #[test]
    fn immediate_mode_end_to_end() {
        let fs = Denova::mkfs(dev(), opts(), DedupMode::Immediate).unwrap();
        let data = vec![0xF0u8; 8192];
        let a = fs.create("a").unwrap();
        let b = fs.create("b").unwrap();
        fs.write(a, 0, &data).unwrap();
        fs.write(b, 0, &data).unwrap();
        fs.drain();
        assert_eq!(fs.read(a, 0, 8192).unwrap(), data);
        assert_eq!(fs.read(b, 0, 8192).unwrap(), data);
        // 2 identical pages per file; 3 of 4 pages saved.
        assert_eq!(fs.bytes_saved(), 3 * 4096);
    }

    #[test]
    fn inline_mode_end_to_end() {
        let fs = Denova::mkfs(dev(), opts(), DedupMode::Inline).unwrap();
        let data = vec![0x0Fu8; 4096];
        let a = fs.create("a").unwrap();
        let b = fs.create("b").unwrap();
        fs.write(a, 0, &data).unwrap();
        fs.write(b, 0, &data).unwrap();
        assert_eq!(fs.bytes_saved(), 4096);
        assert_eq!(fs.read(b, 0, 4096).unwrap(), data);
    }

    #[test]
    fn baseline_mode_never_dedups() {
        let fs = Denova::mkfs(dev(), opts(), DedupMode::Baseline).unwrap();
        let data = vec![0xAAu8; 4096];
        let a = fs.create("a").unwrap();
        let b = fs.create("b").unwrap();
        fs.write(a, 0, &data).unwrap();
        fs.write(b, 0, &data).unwrap();
        fs.drain();
        assert_eq!(fs.bytes_saved(), 0);
        assert!(fs.dwq().is_empty());
        assert_eq!(fs.fact().occupied_count(), 0);
    }

    #[test]
    fn delayed_mode_dedups_eventually() {
        let fs = Denova::mkfs(
            dev(),
            opts(),
            DedupMode::Delayed {
                interval_ms: 10,
                batch: 100,
            },
        )
        .unwrap();
        let data = vec![0xBBu8; 4096];
        for i in 0..4 {
            let ino = fs.create(&format!("f{i}")).unwrap();
            fs.write(ino, 0, &data).unwrap();
        }
        fs.drain();
        assert_eq!(fs.bytes_saved(), 3 * 4096);
    }

    #[test]
    fn clean_unmount_and_remount_restores_dwq() {
        let device = dev();
        let fs = Denova::mkfs(
            device.clone(),
            opts(),
            DedupMode::Delayed {
                interval_ms: 60_000, // never fires
                batch: 1,
            },
        )
        .unwrap();
        let a = fs.create("a").unwrap();
        fs.write(a, 0, &vec![1u8; 4096]).unwrap();
        assert_eq!(fs.dwq().len(), 1);
        fs.unmount();

        let fs2 = Denova::mount(device, opts(), DedupMode::Immediate).unwrap();
        fs2.drain();
        // The restored node was processed by the immediate daemon.
        assert_eq!(fs2.stats().dequeued(), 1);
        let a2 = fs2.open("a").unwrap();
        assert_eq!(fs2.read(a2, 0, 4096).unwrap(), vec![1u8; 4096]);
    }

    #[test]
    fn crash_remount_requeues_and_completes() {
        let device = dev();
        let fs = Denova::mkfs(
            device.clone(),
            opts(),
            DedupMode::Delayed {
                interval_ms: 60_000,
                batch: 1,
            },
        )
        .unwrap();
        let data = vec![7u8; 4096];
        for name in ["a", "b", "c"] {
            let ino = fs.create(name).unwrap();
            fs.write(ino, 0, &data).unwrap();
        }
        // Crash without unmount.
        let crashed = Arc::new(device.crash_clone(denova_pmem::CrashMode::Strict));
        drop(fs);
        let fs2 = Denova::mount(crashed, opts(), DedupMode::Immediate).unwrap();
        fs2.drain();
        assert_eq!(fs2.bytes_saved(), 2 * 4096);
        for name in ["a", "b", "c"] {
            let ino = fs2.open(name).unwrap();
            assert_eq!(fs2.read(ino, 0, 4096).unwrap(), data);
        }
    }

    /// A crash image with pending, interrupted and finished dedup work:
    /// 40 files of 8 pages, every other one a duplicate, half the queue
    /// drained by hand and the next transaction — a duplicate's — killed
    /// right after its tail commit (an `in_process` entry and its reservations survive).
    fn crash_image_64m() -> (Arc<PmemDevice>, NovaOptions) {
        let opts = NovaOptions {
            num_inodes: 256,
            ..Default::default()
        };
        let device = Arc::new(PmemDevice::new(64 * 1024 * 1024));
        let fs = Denova::mkfs(
            device.clone(),
            opts.clone(),
            DedupMode::Delayed {
                interval_ms: 600_000, // never fires
                batch: 1,
            },
        )
        .unwrap();
        for i in 0..40u32 {
            let ino = fs.create(&format!("f{i}")).unwrap();
            let mut data = vec![0u8; 8 * 4096];
            for (p, page) in data.chunks_mut(4096).enumerate() {
                page[..8].copy_from_slice(&((i / 2) as u64 * 8 + p as u64).to_le_bytes());
            }
            fs.write(ino, 0, &data).unwrap();
        }
        for node in fs.dwq().pop_batch(21) {
            dedup_entry(fs.nova(), fs.fact(), &node).unwrap();
        }
        let node = fs.dwq().pop_batch(1)[0];
        device
            .crash_points()
            .arm("denova::dedup::after_tail_commit", 0);
        let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = dedup_entry(fs.nova(), fs.fact(), &node);
        }));
        assert!(crash.is_err(), "crash point did not fire");
        (device, opts)
    }

    /// Device read operations of one `Denova::mount` of a crash clone.
    fn mount_reads(device: &PmemDevice, opts: &NovaOptions, mode: DedupMode) -> (Denova, u64) {
        let image = Arc::new(device.crash_clone(denova_pmem::CrashMode::Strict));
        let before = image.stats().snapshot().reads;
        let fs = Denova::mount(image.clone(), opts.clone(), mode).unwrap();
        let reads = image.stats().snapshot().reads - before;
        (fs, reads)
    }

    /// The structural read budget of a mount: every persistent structure
    /// once, a block per device read. The per-entry scans this replaced
    /// need about 64× as much, so one creeping back fails here.
    #[test]
    fn crash_mount_stays_inside_its_read_budget() {
        let (device, opts) = crash_image_64m();

        let (fs, reads) = mount_reads(&device, &opts, DedupMode::Immediate);
        let report = *fs.last_recovery().expect("crash mount runs recovery");
        assert!(report.resumed >= 1 && report.requeued >= 18, "{report}");
        assert!(
            reads <= report.read_budget(),
            "crash mount issued {reads} device reads, budget {}\n{report}",
            report.read_budget()
        );
        // The report accounts for the mount: what it does not see is the
        // fixed part (superblock fields, the clean flag).
        assert!(reads - report.reads() <= 64, "{reads} vs\n{report}");
        assert!(report.fact_blocks_read <= 2 * report.fact_blocks);
        fs.drain();
        let live_log_pages = denova_nova::fsck(fs.nova(), true).unwrap().log_pages;
        assert_eq!(report.log_pages_read, live_log_pages);
        let layout = *fs.nova().layout();
        assert_eq!(report.fact_blocks, layout.fact_blocks);
        assert_eq!(report.inode_blocks_read, 256 * 128 / 4096);

        // A Baseline mount: the logs, the inode table, FACT's IAA half.
        let (fs, reads) = mount_reads(&device, &opts, DedupMode::Baseline);
        assert!(fs.last_recovery().is_none());
        let walk = fs.nova().mount_walk();
        let budget = walk.log_pages_read + walk.inode_blocks_read + layout.fact_blocks / 2 + 64;
        assert!(
            reads <= budget,
            "baseline mount issued {reads} device reads, budget {budget}"
        );
    }

    #[test]
    fn adaptive_mode_end_to_end() {
        let fs = Denova::mkfs(dev(), opts(), DedupMode::InlineAdaptive).unwrap();
        let data = vec![0x5Du8; 8192];
        let a = fs.create("a").unwrap();
        let b = fs.create("b").unwrap();
        fs.write(a, 0, &data).unwrap();
        fs.write(b, 0, &data).unwrap();
        assert_eq!(fs.read(b, 0, 8192).unwrap(), data);
        // 3 of 4 pages deduplicated, and — unlike FACT modes — the DRAM
        // index is nonzero.
        assert_eq!(fs.bytes_saved(), 3 * 4096);
        assert!(fs.dedup_index_dram_bytes() > 0);
        // FACT modes report zero dedup-index DRAM.
        let fs2 = Denova::mkfs(dev(), opts(), DedupMode::Immediate).unwrap();
        assert_eq!(fs2.dedup_index_dram_bytes(), 0);
    }

    #[test]
    fn multi_worker_mount_dedups_and_reports_workers() {
        let fs = Denova::mkfs(
            dev(),
            NovaOptions {
                num_inodes: 128,
                dedup_workers: 4,
                ..Default::default()
            },
            DedupMode::Immediate,
        )
        .unwrap();
        assert_eq!(fs.dedup_workers(), 4);
        assert_eq!(fs.dwq().num_shards(), 4);
        let data = vec![0xE1u8; 4096];
        for i in 0..12 {
            let ino = fs.create(&format!("f{i}")).unwrap();
            fs.write(ino, 0, &data).unwrap();
        }
        fs.drain();
        assert_eq!(fs.bytes_saved(), 11 * 4096);
    }

    #[test]
    fn worker_count_survives_unmount_remount_changes() {
        let device = dev();
        let fs = Denova::mkfs(
            device.clone(),
            NovaOptions {
                num_inodes: 128,
                dedup_workers: 4,
                ..Default::default()
            },
            DedupMode::Delayed {
                interval_ms: 60_000, // never fires
                batch: 1,
            },
        )
        .unwrap();
        let data = vec![0x31u8; 4096];
        for i in 0..6 {
            let ino = fs.create(&format!("f{i}")).unwrap();
            fs.write(ino, 0, &data).unwrap();
        }
        assert_eq!(fs.dwq().len(), 6);
        fs.unmount();
        // Remount with a different worker count: the saved DWQ re-routes.
        let fs2 = Denova::mount(
            device,
            NovaOptions {
                num_inodes: 128,
                dedup_workers: 2,
                ..Default::default()
            },
            DedupMode::Immediate,
        )
        .unwrap();
        assert_eq!(fs2.dedup_workers(), 2);
        fs2.drain();
        assert_eq!(fs2.bytes_saved(), 5 * 4096);
    }

    #[test]
    fn mode_display_names_match_paper() {
        assert_eq!(DedupMode::Baseline.to_string(), "Baseline NOVA");
        assert_eq!(DedupMode::Inline.to_string(), "DeNova-Inline");
        assert_eq!(DedupMode::Immediate.to_string(), "DeNova-Immediate");
        assert_eq!(
            DedupMode::Delayed {
                interval_ms: 750,
                batch: 20000
            }
            .to_string(),
            "DeNova-Delayed(750,20000)"
        );
    }

    #[test]
    fn scrub_runs_via_handle() {
        let fs = Denova::mkfs(dev(), opts(), DedupMode::Immediate).unwrap();
        let a = fs.create("a").unwrap();
        fs.write(a, 0, &vec![1u8; 4096]).unwrap();
        fs.drain();
        assert_eq!(fs.scrub().unwrap(), 0);
    }
}
