//! Concurrency properties of the lock-free read path.
//!
//! Two families of guarantees, exercised with real threads:
//!
//! * **Never-torn reads** — `Nova::read` snapshots the extent index
//!   through a seqlock: a reader that races a CoW writer either validates
//!   its sequence (the index did not change under it, so the bytes belong
//!   to exactly one committed write) or discards the attempt and falls
//!   back to the locked path. A whole-file read must therefore never mix
//!   bytes from two different writer rounds, no matter how the threads
//!   interleave.
//! * **Lock-free FACT lookups under chain churn** — `Fact::lookup` walks
//!   the persistent chain with no lock while inserts and removes relink it.
//!   A resident fingerprint must never resolve to a wrong entry and an
//!   absent one must never resolve at all, however the walk interleaves
//!   with the mutations.
//! * **Dedup stage 1 under a live foreground** — the daemon fingerprints an
//!   entry's pages with no inode lock and validates nothing; stage 2 keeps
//!   a result only for a page the radix tree still maps where the write put
//!   it. Whatever the foreground does to the inode meanwhile — overwrite,
//!   truncate, unlink and recreate, so that the blocks being hashed are
//!   freed, reallocated and rewritten — contents, `fsck`, the FACT audit
//!   and the scrub must come out as if the daemon had run alone.

use denova_repro::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn mkfs(dev_bytes: usize, mode: DedupMode) -> Arc<Denova> {
    let dev = Arc::new(PmemDevice::new(dev_bytes));
    Arc::new(
        Denova::mkfs(
            dev,
            NovaOptions {
                num_inodes: 64,
                ..Default::default()
            },
            mode,
        )
        .unwrap(),
    )
}

/// Check that a whole-file snapshot is from exactly one writer round:
/// non-empty, the advertised length, and byte-uniform.
fn torn(buf: &[u8], want_len: usize) -> Option<String> {
    if buf.len() != want_len {
        return Some(format!("short read: {} of {want_len} bytes", buf.len()));
    }
    let stamp = buf[0];
    buf.iter()
        .position(|&b| b != stamp)
        .map(|at| format!("torn read: byte {at} is {} but byte 0 is {stamp}", buf[at]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Readers race a writer that overwrites the whole file with a fresh
    // round stamp each iteration. Every validated optimistic snapshot and
    // every locked fallback read must return bytes from exactly one round.
    #[test]
    fn concurrent_reads_never_torn(
        pages in 1usize..6,
        rounds in 8u32..24,
        readers in 1usize..4,
    ) {
        let fs = mkfs(24 << 20, DedupMode::Baseline);
        let ino = fs.create("t").unwrap();
        let len = pages * 4096;
        fs.write(ino, 0, &vec![1u8; len]).unwrap();

        // With no writer yet, a read must validate its snapshot: this is
        // the path the readers below race the writer on. (Under the race
        // itself every attempt of a case may lose to the writer and fall
        // back to the lock, so the count is checked here, not after.)
        let optimistic_hits =
            || denova_nova::NovaStats::get(&fs.nova().stats().read_optimistic_hits);
        let before = optimistic_hits();
        let uncontended = torn(&fs.read(ino, 0, len).unwrap(), len);
        prop_assert!(uncontended.is_none(), "{uncontended:?}");
        prop_assert!(optimistic_hits() > before, "no optimistic reads recorded");

        let stop = Arc::new(AtomicBool::new(false));
        let failures: Arc<std::sync::Mutex<Vec<String>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let reads_done = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let fs = fs.clone();
                let stop = stop.clone();
                let failures = failures.clone();
                let reads_done = reads_done.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let buf = fs.read(ino, 0, len).unwrap();
                        if let Some(why) = torn(&buf, len) {
                            failures.lock().unwrap().push(why);
                            return;
                        }
                        reads_done.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();

        // Whole-file CoW overwrites, one round stamp per iteration; each
        // commit atomically swings the extent index to the new blocks and
        // frees the old ones, which is exactly the window a torn read
        // would need. Keep stamping until every reader has raced at least
        // `rounds` reads against us (a single-core host may not schedule
        // the readers until the writer yields), with a hard cap so a stuck
        // reader cannot hang the test.
        let mut r = 0u32;
        while reads_done.load(Ordering::Relaxed) < (rounds * readers as u32) as u64 {
            let stamp = (r % 250 + 1) as u8;
            fs.write(ino, 0, &vec![stamp; len]).unwrap();
            r += 1;
            if r >= 20_000 {
                break;
            }
            if r.is_multiple_of(8) {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }

        let fails = failures.lock().unwrap();
        prop_assert!(fails.is_empty(), "{}", fails.join("; "));
        prop_assert!(reads_done.load(Ordering::Relaxed) > 0, "readers never ran");
    }
}

// FACT chain churn: one fingerprint stays resident in its DAA slot while
// colliding fingerprints are appended to and removed from its IAA chain over
// and over. Reader threads continuously look up the resident fingerprint
// (every hit must be exactly its entry) and a rotating set of absent
// fingerprints of the same prefix, whose walk crosses the churning chain
// (none may ever resolve).
#[test]
fn resident_fingerprint_never_resolves_wrong_under_chain_churn() {
    let fs = mkfs(32 << 20, DedupMode::Immediate);
    let fact = fs.fact().clone();
    // Fingerprint `salt` of the one contended prefix.
    let bits = fact.prefix_bits();
    let colliding = move |salt: u64| {
        let mut bytes = [0u8; 20];
        bytes[..8].copy_from_slice(&(5u64 << (64 - bits)).to_be_bytes());
        bytes[10..18].copy_from_slice(&salt.to_le_bytes());
        bytes[19] = 1;
        Fingerprint::from_bytes(bytes)
    };

    let resident = colliding(0);
    let (resident_idx, _) = fact.reserve_or_insert(&resident, 7).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let lookups = Arc::new(AtomicU64::new(0));
    let bad = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..3u64)
        .map(|r| {
            let fact = fact.clone();
            let stop = stop.clone();
            let lookups = lookups.clone();
            let bad = bad.clone();
            std::thread::spawn(move || {
                let mut i = r;
                while !stop.load(Ordering::Relaxed) {
                    match fact.lookup(&resident) {
                        Some((idx, ent)) if idx == resident_idx && ent.fp == resident => {}
                        _ => {
                            bad.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // Never inserted: salts >= 2^32 are the readers' own.
                    if fact.lookup(&colliding((1 << 32) + i)).is_some() {
                        bad.fetch_add(1, Ordering::Relaxed);
                    }
                    lookups.fetch_add(2, Ordering::Relaxed);
                    i += 3;
                }
            })
        })
        .collect();

    // At least 40 rounds, then keep churning (bounded) until the readers
    // have raced a few thousand lookups against it — a single-core host may
    // not schedule them until the churn thread yields.
    let mut round = 0u64;
    while round < 40 || (lookups.load(Ordering::Relaxed) < 2_000 && round < 2_000) {
        let idxs: Vec<u64> = (0..16)
            .map(|k| {
                let fp = colliding(1 + round * 16 + k);
                fact.reserve_or_insert(&fp, 100 + k).unwrap().0
            })
            .collect();
        for idx in idxs {
            fact.remove(idx).unwrap();
        }
        round += 1;
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(
        bad.load(Ordering::Relaxed),
        0,
        "a lock-free lookup resolved a wrong entry under chain churn"
    );
    assert!(lookups.load(Ordering::Relaxed) > 0, "readers never ran");
    // The resident survived all the churn around it.
    assert_eq!(fact.lookup(&resident).unwrap().0, resident_idx);
}

// Dedup stage 1 vs the foreground, on the same inodes. Four foreground
// threads overwrite, truncate and unlink-and-recreate the same four files
// with 64–256-page writes cut from a small content pool (so entries
// duplicate each other and grow by memcmp), while two dedup workers chase
// them: stage 1 keeps hashing pages the foreground is freeing and other
// files are reallocating. A per-file mutex orders each foreground op with
// its model update — the race under test is daemon vs foreground, not
// foreground vs foreground.
//
// Two readers run through the whole race, re-reading two files that hold
// pool segments and that the daemon dedups against the moving ones. No
// foreground thread writes them, so nearly every read must take the
// optimistic path (no inode lock) however busy the writers and the daemon
// are on other inodes. The floor is loose: a dedup remap of a read file
// legitimately diverts the few reads that overlap it.
//
// Runs grow but never promote (the threshold is above the longest entry):
// overwriting a *promoted* shared run is ROADMAP item 1's open defect —
// with the default threshold this test fails before this change too
// (double free, `UseAfterFree`, `RunOwnershipMismatch`) — and is not what
// is under test here.
#[test]
fn dedup_stage1_races_foreground_rewrites_of_the_same_inodes() {
    use denova_repro::denova::fsck::fsck_fact;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::sync::Mutex;

    const FILES: usize = 4;
    const SEGMENT_PAGES: usize = 64;
    const POOL_SEGMENTS: usize = 6;
    const OPS_PER_THREAD: usize = 48;

    let dev = Arc::new(PmemDevice::new(96 << 20));
    let fs = Arc::new(
        Denova::mkfs(
            dev,
            NovaOptions {
                num_inodes: 64,
                dedup_workers: 2,
                extent_threshold_pages: 1024,
                ..Default::default()
            },
            DedupMode::Immediate,
        )
        .unwrap(),
    );
    assert_eq!(fs.dedup_workers(), 2);
    // The pool: 64-page segments of distinct non-zero pages, no two of
    // which share a FACT prefix. With no IAA chain there is no record to
    // relocate under a reservation — ROADMAP item 1's other open defect,
    // which leaves `UcResidue` behind in one run out of ten before this change
    // too — so the audit below can insist on *clean*.
    let pool: Arc<Vec<Vec<u8>>> = {
        let bits = fs.fact().prefix_bits();
        let mut taken = std::collections::HashSet::new();
        let mut pages = (1u64..).filter_map(|id| {
            let mut page = vec![0xA5u8; 4096];
            page[..8].copy_from_slice(&id.to_le_bytes());
            taken
                .insert(Fingerprint::of(&page).prefix(bits))
                .then_some(page)
        });
        let segments =
            (0..POOL_SEGMENTS).map(|_| pages.by_ref().take(SEGMENT_PAGES).flatten().collect());
        Arc::new(segments.collect())
    };
    // One model per file, `None` while the file does not exist.
    let models: Arc<Vec<Mutex<Option<Vec<u8>>>>> =
        Arc::new((0..FILES).map(|_| Mutex::new(None)).collect());

    let read_files: Vec<u64> = (0..2)
        .map(|r| {
            let ino = fs.create(&format!("r{r}")).unwrap();
            fs.write(ino, 0, &pool[r]).unwrap();
            ino
        })
        .collect();
    let optimistic_hits = || denova_nova::NovaStats::get(&fs.nova().stats().read_optimistic_hits);
    let hits_before = optimistic_hits();
    let stop = Arc::new(AtomicBool::new(false));
    let reads_done = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..2usize)
        .map(|r| {
            let fs = fs.clone();
            let pool = pool.clone();
            let (ino, stop, reads_done) = (read_files[r], stop.clone(), reads_done.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) || reads_done.load(Ordering::Relaxed) < 256 {
                    let got = fs.read(ino, 0, pool[r].len()).unwrap();
                    assert!(got == pool[r], "r{r} content changed");
                    reads_done.fetch_add(1, Ordering::Relaxed);
                    // Paced, so the readers leave the cores to the race.
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
            })
        })
        .collect();

    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let fs = fs.clone();
            let models = models.clone();
            let pool = pool.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x57A6E1 + t);
                for _ in 0..OPS_PER_THREAD {
                    let f = rng.gen_range(0..FILES);
                    let name = format!("f{f}");
                    let mut model = models[f].lock().unwrap();
                    let Some(content) = model.as_mut() else {
                        fs.create(&name).unwrap();
                        *model = Some(Vec::new());
                        continue;
                    };
                    let ino = fs.open(&name).unwrap();
                    match rng.gen_range(0..10u32) {
                        0 => {
                            fs.unlink(&name).unwrap();
                            *model = None;
                        }
                        1 | 2 => {
                            let new_len = rng.gen_range(0..content.len() / 4096 + 1) * 4096;
                            fs.truncate(ino, new_len as u64).unwrap();
                            content.truncate(new_len);
                        }
                        _ => {
                            // 1–4 pool segments at a segment-aligned offset
                            // inside the first 256 pages.
                            let data: Vec<u8> = (0..rng.gen_range(1..5u32))
                                .flat_map(|_| pool[rng.gen_range(0..POOL_SEGMENTS)].iter().copied())
                                .collect();
                            let off = rng.gen_range(0..4usize) * SEGMENT_PAGES * 4096;
                            fs.write(ino, off as u64, &data).unwrap();
                            if content.len() < off + data.len() {
                                content.resize(off + data.len(), 0);
                            }
                            content[off..off + data.len()].copy_from_slice(&data);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().unwrap();
    }
    let (hits, reads) = (
        optimistic_hits() - hits_before,
        reads_done.load(Ordering::Relaxed),
    );
    assert!(hits * 10 >= reads * 9, "{hits} of {reads} reads optimistic");

    fs.drain();
    for (f, model) in models.iter().enumerate() {
        let name = format!("f{f}");
        match &*model.lock().unwrap() {
            None => assert_eq!(fs.open(&name), Err(NovaError::NotFound), "{name}"),
            Some(content) => {
                let ino = fs.open(&name).unwrap();
                assert_eq!(fs.file_size(ino).unwrap() as usize, content.len(), "{name}");
                let got = fs.read(ino, 0, content.len()).unwrap();
                assert!(got == *content, "{name} content mismatch");
            }
        }
    }
    let report = fsck::check(fs.nova(), true).unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
    let audit = fsck_fact(fs.nova(), fs.fact()).unwrap();
    assert!(audit.is_clean(), "{:?}", audit.errors);
    assert_eq!(fs.scrub().unwrap(), 0, "scrub found counts to repair");
    // The daemon did real work on the moving files.
    assert!(fs.fact().stats().duplicate_pages() > 0);
}
