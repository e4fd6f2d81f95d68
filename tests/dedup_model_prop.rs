//! Property test: a random operation sequence against the full DeNova stack
//! matches an in-memory model file system, and dedup invariants hold at the
//! end. Plus the model of a dedup outcome: a generated backlog saves exactly
//! its generator's duplicate pages, at any worker count.

use denova_repro::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    /// Write `pages` 4 KB pages of byte `val` at page offset `off_pg`.
    Write {
        file: u8,
        off_pg: u8,
        pages: u8,
        val: u8,
    },
    Truncate {
        file: u8,
        pages: u8,
    },
    Unlink(u8),
    Read {
        file: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8).prop_map(Op::Create),
        (0u8..8, 0u8..6, 1u8..5, any::<u8>()).prop_map(|(file, off_pg, pages, val)| Op::Write {
            file,
            off_pg,
            pages,
            val
        }),
        (0u8..8, 0u8..8).prop_map(|(file, pages)| Op::Truncate { file, pages }),
        (0u8..8).prop_map(Op::Unlink),
        (0u8..8).prop_map(|file| Op::Read { file }),
    ]
}

/// In-memory reference model.
#[derive(Default)]
struct Model {
    files: HashMap<String, Vec<u8>>,
}

impl Model {
    fn name(file: u8) -> String {
        format!("f{file}")
    }
}

fn check_against_model(fs: &Denova, model: &Model) {
    let mut names: Vec<&String> = model.files.keys().collect();
    names.sort();
    assert_eq!(fs.nova().file_count(), model.files.len());
    for name in names {
        let expect = &model.files[name];
        let ino = fs.open(name).unwrap();
        assert_eq!(fs.file_size(ino).unwrap() as usize, expect.len(), "{name}");
        let got = fs.read(ino, 0, expect.len()).unwrap();
        assert_eq!(&got, expect, "{name} content mismatch");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_ops_match_model_and_fact_stays_exact(
        ops in prop::collection::vec(op_strategy(), 1..60),
        mode_sel in 0usize..3,
    ) {
        let mode = [
            DedupMode::Immediate,
            DedupMode::Inline,
            DedupMode::Delayed { interval_ms: 1, batch: 64 },
        ][mode_sel];
        let dev = Arc::new(PmemDevice::new(48 * 1024 * 1024));
        let fs = Denova::mkfs(
            dev.clone(),
            NovaOptions { num_inodes: 64, ..Default::default() },
            mode,
        )
        .unwrap();
        let mut model = Model::default();

        for op in &ops {
            match *op {
                Op::Create(file) => {
                    let name = Model::name(file);
                    let r = fs.create(&name);
                    if let std::collections::hash_map::Entry::Vacant(e) = model.files.entry(name) {
                        prop_assert!(r.is_ok());
                        e.insert(Vec::new());
                    } else {
                        prop_assert_eq!(r, Err(NovaError::AlreadyExists));
                    }
                }
                Op::Write { file, off_pg, pages, val } => {
                    let name = Model::name(file);
                    if let Some(content) = model.files.get_mut(&name) {
                        let off = off_pg as usize * 4096;
                        let len = pages as usize * 4096;
                        let ino = fs.open(&name).unwrap();
                        fs.write(ino, off as u64, &vec![val; len]).unwrap();
                        if content.len() < off + len {
                            content.resize(off + len, 0);
                        }
                        content[off..off + len].fill(val);
                    }
                }
                Op::Truncate { file, pages } => {
                    let name = Model::name(file);
                    if let Some(content) = model.files.get_mut(&name) {
                        let new_len = pages as usize * 4096;
                        let ino = fs.open(&name).unwrap();
                        fs.truncate(ino, new_len as u64).unwrap();
                        content.resize(new_len, 0);
                    }
                }
                Op::Unlink(file) => {
                    let name = Model::name(file);
                    let r = fs.unlink(&name);
                    if model.files.remove(&name).is_some() {
                        prop_assert!(r.is_ok());
                    } else {
                        prop_assert_eq!(r, Err(NovaError::NotFound));
                    }
                }
                Op::Read { file } => {
                    let name = Model::name(file);
                    if let Some(content) = model.files.get(&name) {
                        let ino = fs.open(&name).unwrap();
                        let got = fs.read(ino, 0, content.len()).unwrap();
                        prop_assert_eq!(&got, content);
                    }
                }
            }
        }

        // Quiesce and check the final state thoroughly.
        fs.drain();
        check_against_model(&fs, &model);

        // Dedup invariants: exact RFCs, no UC residue, scrub fixpoint.
        let counts = fs.nova().block_reference_counts();
        let mut violations = Vec::new();
        fs.fact().for_each_occupied(|idx, e| {
            let (rfc, uc) = fs.fact().counters(idx);
            let expected = counts.get(&e.block).copied().unwrap_or(0);
            if uc != 0 || rfc != expected {
                violations.push((idx, rfc, uc, expected));
            }
        });
        prop_assert!(violations.is_empty(), "FACT violations: {violations:?}");
        prop_assert_eq!(fs.scrub().unwrap(), 0);

        // Crash + remount (the daemon may have queued nothing, but recovery
        // must still be clean) and re-verify every file.
        let crashed = Arc::new(dev.crash_clone(CrashMode::Strict));
        drop(fs);
        let fs2 = Denova::mount(
            crashed,
            NovaOptions { num_inodes: 64, ..Default::default() },
            DedupMode::Immediate,
        )
        .unwrap();
        fs2.drain();
        check_against_model(&fs2, &model);
    }
}

/// Parallelism changes speed, never outcome: the same duplicate-heavy
/// backlog drained by 1 and by 4 workers, while a foreground writer adds
/// unique pages, saves exactly the generator's duplicate pages, and both
/// end with a clean fsck, a clean FACT fsck and a scrub fixpoint.
///
/// At a 0.97 duplicate ratio the generator's pool holds a handful of pages,
/// so every worker updates the same few FACT records. Fingerprinting sleeps
/// out the paper's per-page cost, so the four workers overlap even on a
/// host with fewer cores.
#[test]
fn dedup_outcome_is_worker_count_invariant() {
    const FILES: usize = 128;
    let drain_backlog = |workers: usize| {
        let dev = Arc::new(PmemDevice::new(48 * 1024 * 1024));
        let opts = NovaOptions {
            num_inodes: 256,
            dedup_workers: workers,
            ..Default::default()
        };
        let fs = Denova::mkfs(dev, opts, DedupMode::Immediate).unwrap();
        assert_eq!(fs.dedup_workers(), workers);
        fs.fact().fp().set_paper_target();
        fs.fact().fp().set_blocking(true);
        let mut gen = DataGenerator::new(7, 0.97);
        // The pool sits out the writes, so it meets the whole backlog at once.
        fs.quiesce(|| {
            for i in 0..FILES {
                let ino = fs.create(&format!("f{i}")).unwrap();
                fs.write(ino, 0, &gen.next_file(4 * 4096)).unwrap();
            }
        });
        std::thread::scope(|s| {
            s.spawn(|| {
                for w in 0..16u8 {
                    let ino = fs.create(&format!("fg{w}")).unwrap();
                    fs.write(ino, 0, &[0x80 | w; 4096]).unwrap();
                }
            });
            fs.drain();
        });
        fs.drain();
        fs.fact().fp().clear();
        // Every worker drained its own shard of the backlog.
        let metrics = fs.nova().device().metrics();
        let processed: Vec<u64> = (0..workers)
            .map(|i| {
                let name = format!("denova.daemon.shard.{i}.processed");
                metrics.counter(&name).get()
            })
            .collect();
        assert_eq!(processed.iter().sum::<u64>(), FILES as u64 + 16);
        assert!(
            processed.iter().all(|&n| n > 0),
            "idle worker: {processed:?}"
        );
        let report = fsck(fs.nova(), true).unwrap();
        assert!(
            report.errors.is_empty(),
            "{workers} workers: {:?}",
            report.errors
        );
        let fact = denova::fsck::fsck_fact(fs.nova(), fs.fact()).unwrap();
        assert!(fact.is_clean(), "{workers} workers: {:?}", fact.errors);
        assert_eq!(fs.scrub().unwrap(), 0, "{workers} workers: scrub fixed");
        (fs.bytes_saved(), gen.dup_pages() * 4096)
    };
    let (one, expected) = drain_backlog(1);
    assert!(expected >= 480 * 4096, "backlog not duplicate-heavy");
    assert_eq!(one, expected);
    assert_eq!(drain_backlog(4), (one, expected));
}
