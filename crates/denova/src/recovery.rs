//! DeNova recovery: the Inconsistency Handling I/II/III procedures of
//! Section V-C plus the FACT scrubber.
//!
//! After NOVA's own log-scan recovery has rebuilt the namespace, radix
//! trees, and free lists, the dedup layer:
//!
//! 1. **rebuilds the DWQ** from the write entries NOVA's log walk found
//!    flagged `dedupe_needed` (Handling I / III — a target entry whose
//!    transaction committed but whose flag never advanced is simply
//!    re-processed, which is safe because its already-deduplicated pages are
//!    no longer backed by it);
//! 2. **resumes from step ⑥** every entry flagged `in_process`
//!    (Handling II): the tail commit made those transactions durable, so
//!    only the UC→RFC transfer, flags, and reclaim remain;
//! 3. **discards stale UCs** — any update count left non-zero belongs to a
//!    transaction that failed before its tail commit ("the UC is not
//!    applied to the RFC for these entries, but discarded");
//! 4. **repairs interrupted chain reorders** via the commit flag (Fig. 7);
//! 5. **scrubs FACT against the live files**: entries whose canonical block
//!    no file references are dropped, and over-incremented RFCs (the
//!    crash-during-reclaim case) are reset to the exact reference count, so
//!    no page stays unreclaimable.
//!
//! **One survey.** None of these walks a persistent structure itself. The
//! flagged write entries come from the mount's single log walk
//! ([`Nova::take_dedup_pending`]), and everything about FACT comes from the
//! [`Survey`] the mount took in one streaming pass (64 slots per device
//! read): the slots with `UC > 0`, the chained DAA prefixes and their IAA
//! heads' commit flags, and the `(block, rfc)` of every occupied slot for the
//! scrub. Only slots a repair actually touches are read again, one by one —
//! work proportional to crash damage, not to table size. If a resumed
//! transaction changed the table, the survey is retaken before the steps
//! that follow: **at most two streaming passes over FACT per crash mount**,
//! one when there was nothing to resume.

use crate::dedup::resume_in_process;
use crate::dwq::Dwq;
use crate::fact::{Fact, FactEntry, Survey};
use crate::reorder::recover_reorder;
use denova_nova::recovery::phase;
use denova_nova::{Nova, PhaseCost, Result};

/// Device reads and wall time of each recovery phase, in the order they run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPhases {
    /// NOVA's walk over the inode table and every live log.
    pub log_walk: PhaseCost,
    /// Streaming passes over FACT (the mount's survey, plus the retake after
    /// repairs when there was one).
    pub fact_survey: PhaseCost,
    /// Resuming `in_process` transactions from step ⑥ and re-queueing the
    /// `needed` ones.
    pub resume: PhaseCost,
    /// Discarding stale update counts.
    pub uc_discard: PhaseCost,
    /// Repairing interrupted chain reorders.
    pub reorder_repair: PhaseCost,
    /// Reconciling FACT with the live files.
    pub scrub: PhaseCost,
}

impl RecoveryPhases {
    /// Every phase with its display name, in the order they run.
    pub fn all(&self) -> [(&'static str, PhaseCost); 6] {
        [
            ("nova log walk", self.log_walk),
            ("FACT survey", self.fact_survey),
            ("resume", self.resume),
            ("UC discard", self.uc_discard),
            ("reorder repair", self.reorder_repair),
            ("scrub", self.scrub),
        ]
    }
}

/// What recovery did, for logging and tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Write entries re-queued onto the DWQ (flag `Needed`).
    pub requeued: u64,
    /// Transactions resumed from step ⑥ (flag `InProcess`).
    pub resumed: u64,
    /// FACT entries whose stale UC was discarded.
    pub stale_ucs_discarded: u64,
    /// Chains whose interrupted reorder was repaired.
    pub reorders_repaired: u64,
    /// FACT entries dropped or RFC-corrected by the scrubber.
    pub scrubbed: u64,
    /// Inode-table blocks NOVA's walk read (one device read each).
    pub inode_blocks_read: u64,
    /// Log pages NOVA's walk read (one device read each) — every page of
    /// every live log, once.
    pub log_pages_read: u64,
    /// Size of the FACT table in blocks.
    pub fact_blocks: u64,
    /// FACT blocks streamed (one device read each): `fact_blocks` per pass.
    pub fact_blocks_read: u64,
    /// Device reads the repair phases issued one slot, entry or page at a
    /// time — what crash damage cost beyond the streaming passes.
    pub slots_reread: u64,
    /// Per-phase device reads and time.
    pub phases: RecoveryPhases,
}

impl RecoveryReport {
    /// Single device reads [`RecoveryReport::read_budget`] allows per unit
    /// of crash damage. A repair re-reads the slots it touches (resolve,
    /// re-check, unlink: about ten reads), a resumed entry costs about three
    /// reads plus six per page, so this covers entries of up to four pages.
    pub const READS_PER_REPAIR: u64 = 32;

    /// The structural bound on the device reads of the crash mount this
    /// report describes: two streaming passes over FACT, every live log
    /// page and every inode-table block once, and
    /// [`Self::READS_PER_REPAIR`] single reads per unit of crash damage (a
    /// resumed entry, a discarded UC, a repaired chain, a scrubbed record) — plus 64 such units for what every mount
    /// reads regardless (superblock fields, clean flag). A per-entry read
    /// that creeps back into a scan costs 64× the streaming term and lands
    /// far outside.
    pub fn read_budget(&self) -> u64 {
        let damage =
            self.resumed + self.stale_ucs_discarded + self.reorders_repaired + self.scrubbed;
        2 * self.fact_blocks
            + self.log_pages_read
            + self.inode_blocks_read
            + Self::READS_PER_REPAIR * (damage + 64)
    }

    /// Device reads of the whole crash mount that this report accounts for.
    pub fn reads(&self) -> u64 {
        self.phases.all().iter().map(|(_, c)| c.reads).sum()
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "recovery: requeued {} resumed {} stale UCs {} reorders {} scrubbed {}",
            self.requeued,
            self.resumed,
            self.stale_ucs_discarded,
            self.reorders_repaired,
            self.scrubbed
        )?;
        writeln!(
            f,
            "  read {} inode-table blocks, {} log pages, {} FACT blocks (table: {}), {} single slots",
            self.inode_blocks_read,
            self.log_pages_read,
            self.fact_blocks_read,
            self.fact_blocks,
            self.slots_reread
        )?;
        for (name, c) in self.phases.all() {
            writeln!(
                f,
                "  {name:<15} {:>8} reads {:>10.3} ms",
                c.reads,
                c.ns as f64 / 1e6
            )?;
        }
        Ok(())
    }
}

/// Run dedup recovery on a freshly-mounted (crashed) file system. `survey`
/// is the pass [`Fact::mount_surveyed`] took.
pub fn recover(nova: &Nova, fact: &Fact, dwq: &Dwq, mut survey: Survey) -> Result<RecoveryReport> {
    let dev = nova.device().clone();
    let walk = nova.mount_walk();
    let mut report = RecoveryReport {
        inode_blocks_read: walk.inode_blocks_read,
        log_pages_read: walk.log_pages_read,
        fact_blocks: nova.layout().fact_blocks,
        fact_blocks_read: survey.cost().reads,
        ..Default::default()
    };
    let phases = &mut report.phases;
    phases.log_walk = walk.cost;
    phases.fact_survey = survey.cost();

    // Phase A is NOVA's: its one walk over every live inode's log handed up
    // the flagged write entries (live inodes ascending, root last, log
    // order within an inode).
    let pending = nova.take_dedup_pending();
    let (resumed, cost) = phase(&dev, "denova.recovery.resume", || -> Result<()> {
        // Phase B (Handling II): resume interrupted transactions from
        // step ⑥.
        for &(ino, off) in &pending.in_process {
            resume_in_process(nova, fact, ino, off)?;
        }
        // Phase C (Handling I/III): re-queue pending candidates in log
        // order.
        for &(ino, off) in &pending.needed {
            dwq.push(ino, off);
        }
        Ok(())
    });
    resumed?;
    phases.resume = cost;
    report.resumed = pending.in_process.len() as u64;
    report.requeued = pending.needed.len() as u64;
    drop(pending);

    // Resumed commits moved counts under the survey: take it again (the
    // second and last streaming pass).
    if report.resumed > 0 {
        survey = fact.survey();
        phases.fact_survey.reads += survey.cost().reads;
        phases.fact_survey.ns += survey.cost().ns;
        report.fact_blocks_read += survey.cost().reads;
    }

    // Phase D: discard stale UCs, and repair the chains whose IAA head
    // carries a reorder commit flag (`prev != 0`, Fig. 7).
    let stale: Vec<u64> = survey
        .occupied()
        .iter()
        .filter(|(_, e)| e.uc > 0)
        .map(|&(idx, _)| idx)
        .collect();
    ((), phases.uc_discard) = phase(&dev, "denova.recovery.uc_discard", || {
        for idx in stale {
            if fact.reset_uc(idx) {
                survey.clear_uc(idx);
                report.stale_ucs_discarded += 1;
            }
        }
    });
    let flagged = |&(idx, e): &(u64, FactEntry)| {
        idx < fact.daa_entries()
            && u64::try_from(e.next)
                .ok()
                .and_then(|head| survey.entry(head))
                .is_some_and(|head| head.prev != 0)
    };
    let interrupted: Vec<u64> = survey
        .occupied()
        .iter()
        .filter(|r| flagged(r))
        .map(|&(prefix, _)| prefix)
        .collect();
    let (repaired, cost) = phase(&dev, "denova.recovery.reorder_repair", || -> Result<u64> {
        let mut repaired = 0;
        for prefix in interrupted {
            repaired += recover_reorder(fact, prefix)? as u64;
        }
        Ok(repaired)
    });
    report.reorders_repaired = repaired?;
    phases.reorder_repair = cost;

    // Phase E: scrub FACT against the recovered file system.
    let (scrubbed, cost) = phase(&dev, "denova.recovery.scrub", || {
        reconcile(nova, fact, survey.occupied())
    });
    report.scrubbed = scrubbed?;
    phases.scrub = cost;
    drop(survey);

    // Everything after the two streaming phases reads slot by slot.
    report.slots_reread = phases.all()[2..].iter().map(|(_, c)| c.reads).sum();
    let metrics = dev.metrics();
    metrics
        .counter("denova.recovery.fact_blocks_read")
        .add(report.fact_blocks_read);
    metrics
        .counter("denova.recovery.slots_reread")
        .add(report.slots_reread);
    metrics.event(
        "denova.recovery",
        &[
            ("requeued", report.requeued),
            ("resumed", report.resumed),
            ("stale_ucs_discarded", report.stale_ucs_discarded),
            ("reorders_repaired", report.reorders_repaired),
            ("scrubbed", report.scrubbed),
            ("inode_blocks_read", report.inode_blocks_read),
            ("log_pages_read", report.log_pages_read),
            ("fact_blocks_read", report.fact_blocks_read),
            ("slots_reread", report.slots_reread),
            ("reads", report.reads()),
        ],
    );
    Ok(report)
}

/// Reconcile every FACT entry with the exact number of write entries
/// referencing its canonical block. This is the paper's background monitor
/// ("it periodically scans all the files and generates a bitmap of which
/// FACT entry is in use"), generalized to also repair over-incremented RFCs.
/// Returns the number of entries dropped or corrected.
///
/// Must run quiescent (at mount, or with the daemon drained): it compares
/// two scans that are not mutually atomic.
pub fn scrub(nova: &Nova, fact: &Fact) -> Result<u64> {
    let mut occupied = Vec::new();
    fact.for_each_occupied(|idx, e| occupied.push((idx, e)));
    reconcile(nova, fact, &occupied)
}

/// [`scrub`] over occupied records already in DRAM (one streaming pass of
/// [`Fact::for_each_occupied`], or the recovery survey).
fn reconcile(nova: &Nova, fact: &Fact, occupied: &[(u64, FactEntry)]) -> Result<u64> {
    let counts = nova.block_reference_counts();
    let mut fixed = 0;
    let mut doomed: Vec<u64> = Vec::new();
    let mut adjust: Vec<(u64, u32)> = Vec::new();
    for &(idx, e) in occupied {
        if e.uc > 0 {
            // In-flight transaction (only possible in a non-quiescent call);
            // leave it alone.
            continue;
        }
        let actual = counts.get(&e.block).copied().unwrap_or(0);
        if actual == 0 {
            doomed.push(idx);
        } else if e.rfc != actual {
            adjust.push((idx, actual));
        }
    }
    for idx in doomed {
        fact.remove(idx)?;
        fixed += 1;
    }
    for (idx, rfc) in adjust {
        fact.set_rfc(idx, rfc);
        fixed += 1;
    }
    Ok(fixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dedup::dedup_entry;
    use crate::reclaim::DenovaHooks;
    use crate::stats::DedupStats;
    use denova_fingerprint::Fingerprint;
    use denova_nova::NovaOptions;
    use denova_pmem::PmemDevice;
    use std::sync::Arc;

    fn opts() -> NovaOptions {
        NovaOptions {
            num_inodes: 128,
            dedup_enabled: true,
            ..Default::default()
        }
    }

    struct Stack {
        nova: Arc<Nova>,
        fact: Arc<Fact>,
        dwq: Arc<Dwq>,
    }

    fn mkfs() -> Stack {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let nova = Arc::new(Nova::mkfs(dev.clone(), opts()).unwrap());
        let stats = Arc::new(DedupStats::default());
        let fact = Arc::new(Fact::new(dev, *nova.layout(), stats.clone()));
        let dwq = Arc::new(Dwq::new(stats));
        nova.set_hooks(Arc::new(DenovaHooks::new(fact.clone(), dwq.clone(), true)));
        Stack { nova, fact, dwq }
    }

    /// Crash the device and bring up a recovered stack.
    fn crash_and_recover(s: &Stack) -> (Stack, RecoveryReport) {
        crash_and_recover_with(s, opts())
    }

    fn crash_and_recover_with(s: &Stack, opts: NovaOptions) -> (Stack, RecoveryReport) {
        let dev = Arc::new(s.nova.device().crash_clone(denova_pmem::CrashMode::Strict));
        let nova = Arc::new(Nova::mount(dev.clone(), opts).unwrap());
        let stats = Arc::new(DedupStats::default());
        let (fact, survey) = Fact::mount_surveyed(dev, *nova.layout(), stats.clone());
        let fact = Arc::new(fact);
        let dwq = Arc::new(Dwq::new(stats));
        nova.set_hooks(Arc::new(DenovaHooks::new(fact.clone(), dwq.clone(), true)));
        let report = recover(&nova, &fact, &dwq, survey).unwrap();
        (Stack { nova, fact, dwq }, report)
    }

    fn drain(s: &Stack) {
        while let Some(node) = s.dwq.pop_batch(1).first().copied() {
            dedup_entry(&s.nova, &s.fact, &node).unwrap();
        }
    }

    #[test]
    fn handling_i_requeues_needed_entries() {
        let s = mkfs();
        let data = vec![0x11u8; 4096];
        for name in ["a", "b"] {
            let ino = s.nova.create(name).unwrap();
            s.nova.write(ino, 0, &data).unwrap();
        }
        // Crash before the daemon ran: both entries still flagged Needed.
        let (s2, report) = crash_and_recover(&s);
        assert_eq!(report.requeued, 2);
        assert_eq!(report.resumed, 0);
        assert_eq!(s2.dwq.len(), 2);
        drain(&s2);
        let (idx, _) = s2.fact.lookup(&Fingerprint::of(&data)).unwrap();
        assert_eq!(s2.fact.counters(idx), (2, 0));
    }

    #[test]
    fn crash_matrix_over_every_dedup_crash_point() {
        // For each crash point inside the dedup transaction: crash there,
        // recover, finish, and verify the end state is byte- and
        // count-identical to a run that never crashed.
        let points = [
            "denova::dedup::after_reserve",
            "denova::dedup::before_tail_commit",
            "denova::dedup::after_tail_commit",
            "denova::dedup::after_target_in_process",
            "denova::dedup::mid_commit_counts",
            "denova::dedup::after_commit_counts",
            "denova::dedup::after_complete",
        ];
        let data = vec![0x5Au8; 2 * 4096]; // 2 identical pages per file
        for point in points {
            let s = mkfs();
            let a = s.nova.create("a").unwrap();
            let b = s.nova.create("b").unwrap();
            s.nova.write(a, 0, &data).unwrap();
            s.nova.write(b, 0, &data).unwrap();
            // Process the first node cleanly, crash inside the second.
            let nodes = s.dwq.pop_batch(2);
            dedup_entry(&s.nova, &s.fact, &nodes[0]).unwrap();
            s.nova.device().crash_points().arm(point, 0);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dedup_entry(&s.nova, &s.fact, &nodes[1]).unwrap();
            }));
            assert!(r.is_err(), "{point} did not fire");

            let (s2, _report) = crash_and_recover(&s);
            drain(&s2);
            crate::recovery::scrub(&s2.nova, &s2.fact).unwrap();
            // Both files intact.
            let a2 = s2.nova.open("a").unwrap();
            let b2 = s2.nova.open("b").unwrap();
            assert_eq!(s2.nova.read(a2, 0, data.len()).unwrap(), data, "{point}");
            assert_eq!(s2.nova.read(b2, 0, data.len()).unwrap(), data, "{point}");
            // FACT consistent: one entry for the content, RFC == exact
            // number of referencing write entries, no UC residue.
            let (idx, e) = s2.fact.lookup(&Fingerprint::of(&data[..4096])).unwrap();
            assert_eq!(e.uc, 0, "{point}: UC residue");
            let counts = s2.nova.block_reference_counts();
            let expected = counts.get(&e.block).copied().unwrap();
            assert_eq!(s2.fact.counters(idx).0, expected, "{point}: RFC mismatch");
            // And nothing got leaked or double-freed: a second scrub finds
            // nothing to fix.
            assert_eq!(
                crate::recovery::scrub(&s2.nova, &s2.fact).unwrap(),
                0,
                "{point}"
            );
        }
    }

    /// FNV-1a over the FACT region: the table's persistent image.
    fn fact_image_hash(s: &Stack) -> u64 {
        let layout = *s.nova.layout();
        let bytes = s.nova.device().read_vec(
            layout.fact_start * denova_nova::BLOCK_SIZE,
            (layout.fact_blocks * denova_nova::BLOCK_SIZE) as usize,
        );
        bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// One fixed trace through every recovery phase — a transaction that
    /// dies between its count commits, an `in_process` entry, a stale UC, an
    /// over-counted RFC and a queue of untouched candidates — recovers to
    /// exactly the report counts, DWQ order and FACT image (byte for byte)
    /// recorded by running the same trace, with extent promotion off, at
    /// the commit before extent runs and slot-addressed commits were
    /// removed — whose image carried a run length of 1 in the bytes now
    /// reserved, zeroed for the recording (single free list and hand-driven
    /// dedup make every offset reproducible).
    #[test]
    fn fixed_trace_recovers_to_the_recorded_counts_queue_and_fact_image() {
        let opts = NovaOptions { cpus: 1, ..opts() };
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let nova = Arc::new(Nova::mkfs(dev.clone(), opts.clone()).unwrap());
        let stats = Arc::new(DedupStats::default());
        let fact = Arc::new(Fact::new(dev.clone(), *nova.layout(), stats.clone()));
        let dwq = Arc::new(Dwq::new(stats));
        nova.set_hooks(Arc::new(DenovaHooks::new(fact.clone(), dwq.clone(), true)));

        let pages = |ids: &[u8]| -> Vec<u8> { ids.iter().flat_map(|&id| vec![id; 4096]).collect() };
        let run: Vec<u8> = pages(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let write = |name: &str, data: &[u8]| {
            let ino = nova.create(name).unwrap();
            nova.write(ino, 0, data).unwrap();
        };
        write("a", &run);
        write("b", &run);
        write("c", &pages(&[0x31, 0x32, 0x33]));
        write("d", &pages(&[0x31, 0x32, 0x44]));
        write("e", &run);
        write("f", &pages(&[0x31, 0x51]));
        write("g", &pages(&[9, 9, 9]));
        let nodes = dwq.pop_batch(7);
        // a registers the run's pages, c three more records.
        dedup_entry(&nova, &fact, &nodes[0]).unwrap();
        dedup_entry(&nova, &fact, &nodes[2]).unwrap();
        // Forged damage: a reservation that never committed, an RFC counted
        // twice, and an entry caught between tail commit and completion.
        let record = |id: u8| fact.lookup(&Fingerprint::of(&[id; 4096])).unwrap().0;
        fact.inc_uc(record(0x33));
        fact.set_rfc(record(0x32), 5);
        denova_nova::entry::write_dedupe_flag(
            &dev,
            nodes[3].entry_off,
            denova_nova::DedupeFlag::InProcess,
        );
        // b duplicates a page for page; the machine dies after its first
        // count commit.
        dev.crash_points()
            .arm("denova::dedup::mid_commit_counts", 0);
        let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dedup_entry(&nova, &fact, &nodes[1]).unwrap();
        }));
        assert!(crash.is_err(), "crash point did not fire");

        let (s2, report) = crash_and_recover_with(&Stack { nova, fact, dwq }, opts);
        let counts = (
            report.requeued,
            report.resumed,
            report.stale_ucs_discarded,
            report.reorders_repaired,
            report.scrubbed,
        );
        let queue: Vec<(u64, u64)> = s2
            .dwq
            .pop_batch(usize::MAX)
            .iter()
            .map(|n| (n.ino, n.entry_off))
            .collect();
        assert_eq!(counts, (3, 3, 1, 0, 1));
        assert_eq!(queue, [(6, 1474560), (7, 1486848), (8, 1503232)]);
        assert_eq!(fact_image_hash(&s2), 0xdb59_294f_b0f4_cda6);
    }

    #[test]
    fn stale_uc_discarded_at_recovery() {
        let s = mkfs();
        let a = s.nova.create("a").unwrap();
        s.nova.write(a, 0, &vec![0x77u8; 4096]).unwrap();
        // Crash after step 3 (UC++) but before the tail commit.
        let node = s.dwq.pop_batch(1)[0];
        s.nova
            .device()
            .crash_points()
            .arm("denova::dedup::after_reserve", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dedup_entry(&s.nova, &s.fact, &node).unwrap();
        }));
        assert!(r.is_err());
        let (s2, report) = crash_and_recover(&s);
        // The UC either never persisted (crash reverted it) or was discarded.
        assert!(report.stale_ucs_discarded <= 1);
        let mut bad = 0;
        s2.fact.for_each_occupied(|_, e| {
            if e.uc != 0 {
                bad += 1;
            }
        });
        assert_eq!(bad, 0);
        // The entry is re-queued and a clean pass completes it.
        drain(&s2);
        let a2 = s2.nova.open("a").unwrap();
        assert_eq!(s2.nova.read(a2, 0, 4096).unwrap(), vec![0x77u8; 4096]);
    }

    #[test]
    fn scrubber_drops_orphan_fact_entries() {
        let s = mkfs();
        let data = vec![0x3Cu8; 4096];
        let a = s.nova.create("a").unwrap();
        s.nova.write(a, 0, &data).unwrap();
        drain(&s);
        assert!(s.fact.lookup(&Fingerprint::of(&data)).is_some());
        // Simulate an over-increment: bump RFC so unlink's reclaim leaves
        // the entry alive with no referencing file.
        let (idx, e) = s.fact.lookup(&Fingerprint::of(&data)).unwrap();
        s.fact.inc_uc(idx);
        s.fact.commit_uc_to_rfc(idx, &e); // RFC = 2, actual refs = 1
        s.nova.unlink("a").unwrap(); // dec to 1, entry survives (wrongly)
        assert!(s.fact.lookup(&Fingerprint::of(&data)).is_some());
        let fixed = scrub(&s.nova, &s.fact).unwrap();
        assert_eq!(fixed, 1);
        assert!(s.fact.lookup(&Fingerprint::of(&data)).is_none());
    }

    #[test]
    fn scrubber_corrects_over_incremented_rfc() {
        let s = mkfs();
        let data = vec![0x2Bu8; 4096];
        let a = s.nova.create("a").unwrap();
        let b = s.nova.create("b").unwrap();
        s.nova.write(a, 0, &data).unwrap();
        s.nova.write(b, 0, &data).unwrap();
        drain(&s);
        let (idx, _) = s.fact.lookup(&Fingerprint::of(&data)).unwrap();
        s.fact.set_rfc(idx, 9); // simulate crash-induced over-increment
        let fixed = scrub(&s.nova, &s.fact).unwrap();
        assert_eq!(fixed, 1);
        assert_eq!(s.fact.counters(idx), (2, 0));
    }

    #[test]
    fn scrub_on_healthy_fs_is_noop() {
        let s = mkfs();
        let a = s.nova.create("a").unwrap();
        s.nova.write(a, 0, &vec![1u8; 3 * 4096]).unwrap();
        drain(&s);
        assert_eq!(scrub(&s.nova, &s.fact).unwrap(), 0);
    }

    #[test]
    fn recovery_repairs_interrupted_reorder() {
        let s = mkfs();
        // Build an IAA chain through real dedup is hard to force; use the
        // fact layer directly with colliding prefixes, then crash mid
        // reorder and run full recovery.
        let bits = s.fact.prefix_bits();
        let mk = |salt: u8| {
            let mut bytes = [0u8; 20];
            bytes[..8].copy_from_slice(&(99u64 << (64 - bits)).to_be_bytes());
            bytes[19] = salt;
            bytes[18] = 1;
            Fingerprint::from_bytes(bytes)
        };
        for salt in 1..=5 {
            let (idx, e) = s
                .fact
                .reserve_or_insert(&mk(salt), 400 + salt as u64)
                .unwrap();
            s.fact.commit_uc_to_rfc(idx, &e);
            s.fact.set_rfc(idx, salt as u32 * 3 % 7 + 1);
        }
        s.nova
            .device()
            .crash_points()
            .arm("denova::reorder::phase2_step", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::reorder::reorder_chain(&s.fact, 99).unwrap();
        }));
        assert!(r.is_err());
        let (s2, report) = crash_and_recover(&s);
        assert_eq!(report.reorders_repaired, 1);
        // All five fingerprints reachable after repair... the scrubber will
        // have dropped them (no file references those blocks), so check the
        // repair happened via the report and chain soundness before scrub is
        // covered by reorder.rs tests.
        let _ = s2;
    }
}
