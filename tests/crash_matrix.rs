//! Systematic crash-injection matrix.
//!
//! The paper argues qualitatively that "DENOVA is failure consistent in all
//! failure scenario cases" (Section V-C). This test makes that claim
//! executable: a fixed workload is run once with crash-point *counting*
//! enabled to enumerate every (crash point, hit) opportunity, and then
//! re-run from scratch crashing at each one. After every crash we remount,
//! run the recovery procedure, and check a set of invariants that together
//! define "failure consistent":
//!
//! 1. the file system mounts;
//! 2. every surviving file reads back with page-uniform contents (our
//!    workload only ever writes uniform pages, so any mixed page is a torn
//!    write — the atomicity NOVA promises);
//! 3. FACT has no UC residue and every RFC equals the exact number of live
//!    write-entry references (after recovery + drain + scrub);
//! 4. a second scrub is a fixpoint (nothing left to repair);
//! 5. the recovered system accepts new writes and dedups them;
//! 6. the recovery mount stayed inside its structural read budget — every
//!    persistent structure once, a block per device read, plus single reads
//!    in proportion to what it repaired (`RecoveryReport::read_budget`).

use denova_repro::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const DEV_SIZE: usize = 48 * 1024 * 1024;

fn opts() -> NovaOptions {
    NovaOptions {
        num_inodes: 256,
        ..Default::default()
    }
}

/// The workload whose crash surface we enumerate: mixed creates, duplicate
/// writes, overwrites, an unlink, and hand-driven dedup transactions.
fn workload(dev: &Arc<PmemDevice>) -> denova_nova::Result<()> {
    let fs = Denova::mkfs(
        dev.clone(),
        opts(),
        DedupMode::Delayed {
            interval_ms: 600_000, // daemon never fires; dedup driven by hand
            batch: 1,
        },
    )?;
    // Uniform-page contents only (see invariant 2).
    let page = |v: u8| vec![v; 4096];
    let multi = |v: u8| vec![v; 3 * 4096];

    let a = fs.create("a")?;
    let b = fs.create("b")?;
    let c = fs.create("c")?;
    fs.write(a, 0, &multi(1))?;
    fs.write(b, 0, &multi(1))?; // duplicate of a
    fs.write(c, 0, &page(2))?;
    // Dedup the queue by hand so the crash points fire deterministically on
    // this thread.
    while let Some(node) = fs.dwq().pop_batch(1).first().copied() {
        denova::dedup_entry(fs.nova(), fs.fact(), &node)?;
    }
    // Overwrites hit the RFC-checked reclaim path.
    fs.write(a, 0, &page(3))?;
    fs.write(c, 0, &page(3))?; // c now duplicates a's first page
    while let Some(node) = fs.dwq().pop_batch(1).first().copied() {
        denova::dedup_entry(fs.nova(), fs.fact(), &node)?;
    }
    // Unlink releases shared and unique pages.
    fs.unlink("b")?;
    // Log GC after churn.
    fs.nova().gc_all_logs()?;
    Ok(())
}

/// Post-crash invariant checks.
fn verify_recovered(dev: Arc<PmemDevice>, context: &str) {
    let reads_before = dev.stats().snapshot().reads;
    let fs = Denova::mount(dev.clone(), opts(), DedupMode::Immediate)
        .unwrap_or_else(|e| panic!("{context}: mount failed: {e}"));
    // (6) Read budget, before the daemon's own reads blur the count much:
    // it may already be draining the rebuilt queue, so allow it the slack
    // the budget's fixed part carries.
    let reads = dev.stats().snapshot().reads - reads_before;
    let report = fs.last_recovery().expect("crash mount runs recovery");
    assert!(
        reads <= report.read_budget(),
        "{context}: recovery mount issued {reads} device reads, budget {}\n{report}",
        report.read_budget()
    );
    fs.drain();
    fs.scrub().unwrap();

    // (2) Page-uniformity of every surviving file.
    for name in ["a", "b", "c"] {
        let Ok(ino) = fs.open(name) else { continue };
        let size = fs.file_size(ino).unwrap();
        let data = fs.read(ino, 0, size as usize).unwrap();
        for (i, page) in data.chunks(4096).enumerate() {
            let first = page[0];
            assert!(
                page.iter().all(|&x| x == first),
                "{context}: {name} page {i} torn"
            );
        }
    }

    // (3) FACT exactness.
    let counts = fs.nova().block_reference_counts();
    fs.fact().for_each_occupied(|idx, e| {
        let (rfc, uc) = fs.fact().counters(idx);
        assert_eq!(uc, 0, "{context}: UC residue at {idx}");
        let expected = counts.get(&e.block).copied().unwrap_or(0);
        assert_eq!(rfc, expected, "{context}: RFC mismatch at {idx}");
    });

    // (4) Scrub fixpoint.
    assert_eq!(fs.scrub().unwrap(), 0, "{context}: scrub not a fixpoint");

    // (5) The system still works.
    let ino = fs.create("post-crash").unwrap();
    fs.write(ino, 0, &vec![9u8; 8192]).unwrap();
    fs.drain();
    assert_eq!(
        fs.read(ino, 0, 8192).unwrap(),
        vec![9u8; 8192],
        "{context}: post-crash write broken"
    );
}

#[test]
fn crash_at_every_point_and_hit_recovers_consistently() {
    // Pass 1: enumerate the crash surface.
    let dev = Arc::new(PmemDevice::new(DEV_SIZE));
    dev.crash_points().set_enabled(true);
    workload(&dev).unwrap();
    let observed = dev.crash_points().observed();
    assert!(
        observed.len() >= 6,
        "workload touches too few crash points: {observed:?}"
    );

    // Pass 2: crash at every (point, hit) combination — capped per point to
    // keep runtime sane while still covering first/middle/last occurrences.
    let mut scenarios = 0;
    for (point, hits) in &observed {
        let hit_samples: Vec<u64> = if *hits <= 4 {
            (0..*hits).collect()
        } else {
            vec![0, hits / 2, hits - 1]
        };
        for hit in hit_samples {
            let dev = Arc::new(PmemDevice::new(DEV_SIZE));
            dev.crash_points().arm(point, hit);
            let result = catch_unwind(AssertUnwindSafe(|| workload(&dev)));
            match result {
                Err(payload) => {
                    assert!(
                        payload.downcast_ref::<SimulatedCrash>().is_some(),
                        "{point}@{hit}: real panic, not a simulated crash"
                    );
                    verify_recovered(dev, &format!("{point}@{hit}"));
                    scenarios += 1;
                }
                Ok(_) => {
                    // Hit count shifted (e.g. allocator nondeterminism);
                    // nothing fired — skip.
                }
            }
        }
    }
    assert!(scenarios >= 10, "only {scenarios} crash scenarios executed");
    println!("crash matrix: {scenarios} scenarios recovered consistently");
}

#[test]
fn adversarial_eviction_crashes_also_recover() {
    // Strict mode drops every unflushed line; real hardware may persist an
    // arbitrary subset. Re-run a slice of the matrix under adversarial
    // eviction with several seeds.
    let points = [
        "denova::dedup::before_tail_commit",
        "denova::dedup::after_tail_commit",
        "denova::dedup::mid_commit_counts",
        "nova::write::after_data_copy",
    ];
    let mut scenarios = 0;
    for point in points {
        for seed in [1u64, 7, 23] {
            let dev = Arc::new(PmemDevice::new(DEV_SIZE));
            dev.set_crash_mode(CrashMode::Adversarial { seed });
            dev.crash_points().arm(point, 0);
            let result = catch_unwind(AssertUnwindSafe(|| workload(&dev)));
            if result.is_err() {
                verify_recovered(dev, &format!("{point} adversarial seed {seed}"));
                scenarios += 1;
            }
        }
    }
    assert!(scenarios >= 6, "only {scenarios} adversarial scenarios ran");
}

#[test]
fn double_crash_during_recovery_is_safe() {
    // Crash mid-dedup, then crash again immediately after remount (before
    // the daemon drains), then recover a second time.
    let dev = Arc::new(PmemDevice::new(DEV_SIZE));
    dev.crash_points()
        .arm("denova::dedup::after_tail_commit", 0);
    let r = catch_unwind(AssertUnwindSafe(|| workload(&dev)));
    assert!(r.is_err());

    // First recovery mount, then immediate (strict) crash of that state.
    let fs = Denova::mount(
        dev.clone(),
        opts(),
        DedupMode::Delayed {
            interval_ms: 600_000,
            batch: 1,
        },
    )
    .unwrap();
    drop(fs);
    let dev2 = Arc::new(dev.crash_clone(CrashMode::Strict));
    verify_recovered(dev2, "double crash");
}
