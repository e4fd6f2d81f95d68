//! Log GC inside the DeNova stack: the fast GC that runs whenever a
//! write-locked section grows an inode's log by a page, crashed at each of
//! its two persistent steps (a dead page unlinked from the middle of the
//! chain, a dead head page skipped by the inode's head pointer), from a
//! foreground overwrite loop and from the dedup daemon's relink.
//!
//! After every crash the image mounts, every file reads back its last
//! acknowledged contents, and both fsck passes (the file system's and
//! FACT's) come back clean.

use denova_repro::denova::fsck::fsck_fact;
use denova_repro::nova::layout::ENTRIES_PER_LOG_PAGE;
use denova_repro::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const PAGE: usize = 4096;

/// A dead head moves the inode's head pointer; a dead page behind a live
/// one is unlinked from its predecessor's footer.
const HEAD_MOVE: &str = "nova::gc::after_head_move";
const UNLINK: &str = "nova::gc::after_unlink";

fn opts() -> NovaOptions {
    NovaOptions {
        num_inodes: 64,
        ..Default::default()
    }
}

/// A page of one byte value; callers pass nonzero values (an all-zero page
/// would be elided to a hole).
fn page(v: u8) -> Vec<u8> {
    vec![v; PAGE]
}

/// The file system under test and the contents each `(file, page)` must
/// hold.
struct Rig {
    dev: Arc<PmemDevice>,
    fs: Denova,
    model: BTreeMap<(&'static str, u64), u8>,
}

impl Rig {
    fn new() -> Rig {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        // The daemon never fires: dedup runs by hand, so the crash point
        // fires on the test's thread.
        let mode = DedupMode::Delayed {
            interval_ms: 600_000,
            batch: 1,
        };
        let fs = Denova::mkfs(dev.clone(), opts(), mode).unwrap();
        fs.create("a").unwrap();
        fs.create("b").unwrap();
        Rig {
            dev,
            fs,
            model: BTreeMap::new(),
        }
    }

    /// Write, and expect it to survive even if it crashes: the write path
    /// collects only after its tail commit.
    fn write(&mut self, name: &'static str, pg: u64, v: u8) {
        self.model.insert((name, pg), v);
        let ino = self.fs.open(name).unwrap();
        self.fs.write(ino, pg * PAGE as u64, &page(v)).unwrap();
    }

    fn dedup_by_hand(&self) {
        while let Some(node) = self.fs.dwq().pop_batch(1).first().copied() {
            denova::dedup_entry(self.fs.nova(), self.fs.fact(), &node).unwrap();
        }
    }

    /// Run `f` with `point` armed; it must crash there.
    fn crash_in(&mut self, point: &str, f: impl FnOnce(&mut Rig)) {
        self.dev.crash_points().arm(point, 0);
        let crashed = catch_unwind(AssertUnwindSafe(|| f(self))).expect_err(point);
        assert!(
            crashed.downcast_ref::<SimulatedCrash>().is_some(),
            "{point}: a real panic, not the simulated crash"
        );
    }

    /// Mount a strict crash image: contents equal the model, both fsck
    /// passes are clean, and the log GC finds nothing the write path left.
    fn verify_remount(&self, context: &str) {
        let image = Arc::new(self.dev.crash_clone(CrashMode::Strict));
        let fs = Denova::mount(image, opts(), DedupMode::Immediate).unwrap();
        fs.drain();
        for (&(name, pg), &v) in &self.model {
            let ino = fs.open(name).unwrap();
            let got = fs.read(ino, pg * PAGE as u64, PAGE).unwrap();
            assert!(got == page(v), "{context}: {name} page {pg} lost {v}");
        }
        let report = denova_repro::nova::fsck(fs.nova(), true).unwrap();
        assert!(report.is_clean(), "{context}: fsck {:?}", report.errors);
        let fact = fsck_fact(fs.nova(), fs.fact()).unwrap();
        assert!(fact.is_clean(), "{context}: FACT fsck {fact:?}");
        assert_eq!(fs.nova().gc_all_logs().unwrap(), 0, "{context}");
    }
}

/// Overwrite `b` page 0 until the write path's GC crashes at `point`. With
/// `pinned`, page 5 is written first, so the head page stays live and the
/// dead pages are unlinked from behind it.
fn overwrite_loop(point: &str, pinned: bool) {
    let mut rig = Rig::new();
    if pinned {
        rig.write("b", 5, 200);
    }
    rig.crash_in(point, |rig| {
        for i in 0..3 * ENTRIES_PER_LOG_PAGE {
            rig.write("b", 0, i as u8 + 1);
            // Dedup between overwrites: a page of `Needed` entries is
            // held back until their dedup completes.
            rig.dedup_by_hand();
        }
    });
    rig.verify_remount(point);
}

#[test]
fn crash_in_a_foreground_writes_gc_recovers() {
    overwrite_loop(HEAD_MOVE, false);
    overwrite_loop(UNLINK, true);
}

/// Fill `b`'s log with overwrites of page 0, dedup them (none is a
/// duplicate), then land a duplicate of `a` in the last slot of a log page:
/// the relink's append links a new page, and the GC it triggers finds the
/// page before it dead and crashes at `point`.
fn relink(point: &str, pinned: bool) {
    let mut rig = Rig::new();
    let fill = if pinned {
        // Page 5 takes slot 0; the overwrites fill the rest of the first
        // page and all but the last slot of the second.
        rig.write("b", 5, 200);
        2 * ENTRIES_PER_LOG_PAGE - 2
    } else {
        ENTRIES_PER_LOG_PAGE - 1
    };
    for i in 0..fill {
        rig.write("b", 0, i as u8 + 1);
    }
    rig.dedup_by_hand();
    rig.write("a", 0, 250);
    rig.write("b", 0, 250);
    rig.crash_in(point, |rig| rig.dedup_by_hand());
    rig.verify_remount(point);
}

#[test]
fn crash_in_a_dedup_relinks_gc_recovers() {
    relink(HEAD_MOVE, false);
    relink(UNLINK, true);
}
