//! Property test: extent-granular dedup is invisible to readers. Two full
//! DeNova stacks run the same random write/overwrite/truncate interleaving —
//! one with run promotion enabled (threshold 4 pages), one per-block
//! (threshold 0) — and every file must come out byte-identical across the
//! two, matching an in-memory model. Aligned clones written afterwards save
//! the same bytes on both stacks, tracked by one run record on the promoted
//! one and by one record per page on the other.
//! Then the promoted stack is audited: FACT fsck is clean, and the
//! fingerprints of run-interior pages stay absent from the lookup path
//! through every later split/demote.

use denova_repro::denova::fsck::fsck_fact;
use denova_repro::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const PG: usize = BLOCK_SIZE as usize;

#[derive(Debug, Clone)]
enum Op {
    /// Write `pages` pages of image content derived from `seed` at `off_pg`.
    /// The same (seed, absolute page) always produces the same bytes, so
    /// replaying a seed in another file creates multi-page duplicate
    /// sequences — exactly what run promotion feeds on.
    Image {
        file: u8,
        off_pg: u8,
        pages: u8,
        seed: u8,
    },
    /// Write all-zero pages: the hole-elision path must also be mode-blind.
    Zeros {
        file: u8,
        off_pg: u8,
        pages: u8,
    },
    Truncate {
        file: u8,
        pages: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0u8..12, 1u8..10, 0u8..4).prop_map(|(file, off_pg, pages, seed)| {
            Op::Image {
                file,
                off_pg,
                pages,
                seed,
            }
        }),
        (0u8..4, 0u8..12, 1u8..10, 0u8..4).prop_map(|(file, off_pg, pages, seed)| {
            Op::Image {
                file,
                off_pg,
                pages,
                seed,
            }
        }),
        (0u8..4, 0u8..12, 1u8..6).prop_map(|(file, off_pg, pages)| {
            Op::Zeros {
                file,
                off_pg,
                pages,
            }
        }),
        (0u8..4, 0u8..16).prop_map(|(file, pages)| Op::Truncate { file, pages }),
    ]
}

/// Deterministic page content: distinct per absolute page, identical across
/// files for the same (seed, page).
fn page_bytes(seed: u8, pg: u64) -> Vec<u8> {
    (0..PG)
        .map(|i| {
            seed.wrapping_mul(97)
                .wrapping_add(pg as u8)
                .wrapping_add((i % 251) as u8)
        })
        .collect()
}

fn mk_stack(threshold: u32) -> (Arc<PmemDevice>, Denova) {
    let dev = Arc::new(PmemDevice::new(48 * 1024 * 1024));
    let fs = Denova::mkfs(
        dev.clone(),
        NovaOptions {
            num_inodes: 64,
            ..Default::default()
        },
        DedupMode::Immediate,
    )
    .unwrap();
    fs.fact().set_extent_threshold_pages(threshold);
    (dev, fs)
}

fn apply(fs: &Denova, model: &mut HashMap<String, Vec<u8>>, op: &Op) {
    let name = |file: u8| format!("f{file}");
    let ensure = |fs: &Denova, model: &mut HashMap<String, Vec<u8>>, file: u8| -> u64 {
        let n = name(file);
        if !model.contains_key(&n) {
            model.insert(n.clone(), Vec::new());
            return fs.create(&n).unwrap();
        }
        fs.open(&n).unwrap()
    };
    match *op {
        Op::Image {
            file,
            off_pg,
            pages,
            seed,
        } => {
            let ino = ensure(fs, model, file);
            let mut buf = Vec::with_capacity(pages as usize * PG);
            for k in 0..pages as u64 {
                buf.extend_from_slice(&page_bytes(seed, off_pg as u64 + k));
            }
            let off = off_pg as usize * PG;
            fs.write(ino, off as u64, &buf).unwrap();
            let content = model.get_mut(&name(file)).unwrap();
            if content.len() < off + buf.len() {
                content.resize(off + buf.len(), 0);
            }
            content[off..off + buf.len()].copy_from_slice(&buf);
        }
        Op::Zeros {
            file,
            off_pg,
            pages,
        } => {
            let ino = ensure(fs, model, file);
            let off = off_pg as usize * PG;
            let len = pages as usize * PG;
            fs.write(ino, off as u64, &vec![0u8; len]).unwrap();
            let content = model.get_mut(&name(file)).unwrap();
            if content.len() < off + len {
                content.resize(off + len, 0);
            }
            content[off..off + len].fill(0);
        }
        Op::Truncate { file, pages } => {
            let n = name(file);
            if let Some(content) = model.get_mut(&n) {
                let new_len = pages as usize * PG;
                let ino = fs.open(&n).unwrap();
                fs.truncate(ino, new_len as u64).unwrap();
                content.resize(new_len, 0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn extent_runs_are_byte_identical_to_per_block(
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let (_dev_e, extent) = mk_stack(4);
        let (_dev_p, per_block) = mk_stack(0);
        let mut model = HashMap::new();
        let mut shadow = HashMap::new();

        for op in &ops {
            apply(&extent, &mut model, op);
            apply(&per_block, &mut shadow, op);
        }
        extent.drain();
        per_block.drain();
        prop_assert_eq!(&model, &shadow);

        // Byte-identity: both stacks serve the model's bytes exactly.
        for (name, expect) in &model {
            for fs in [&extent, &per_block] {
                let ino = fs.open(name).unwrap();
                prop_assert_eq!(fs.file_size(ino).unwrap() as usize, expect.len());
                let got = fs.read(ino, 0, expect.len()).unwrap();
                prop_assert_eq!(&got, expect, "{} content mismatch", name);
            }
        }

        // Same dedup outcome on aligned clones of one template, the shape
        // VM images take: promotion changes how many FACT records track the
        // duplicates (one run record instead of one per page), never how
        // many pages dedup. The template's content
        // (page_bytes values 64..72) is disjoint from every page the
        // interleaving wrote. Over the interleaving itself the two outcomes
        // may differ: a duplicate sequence that starts inside a promoted run
        // finds no anchor, since run interiors stay out of the lookup path.
        let template: Vec<u8> = (0..8).flat_map(|k| page_bytes(0, 64 + k)).collect();
        let mut outcome = Vec::new();
        for fs in [&extent, &per_block] {
            let (saved, records) = (fs.bytes_saved(), fs.fact().occupied_count());
            for c in 0..3 {
                let ino = fs.create(&format!("clone{c}")).unwrap();
                fs.write(ino, 0, &template).unwrap();
                fs.drain();
            }
            outcome.push((
                fs.bytes_saved() - saved,
                fs.fact().occupied_count() - records,
            ));
        }
        let ((e_saved, e_records), (p_saved, p_records)) = (outcome[0], outcome[1]);
        prop_assert_eq!(e_saved, p_saved);
        prop_assert_eq!(e_saved, 2 * template.len() as u64);
        prop_assert_eq!((e_records, p_records), (1, 8), "FACT records, promoted vs per-block");

        // The promoted stack's dedup metadata is consistent...
        let report = fsck_fact(extent.nova(), extent.fact()).unwrap();
        prop_assert!(report.is_clean(), "fact fsck: {:?}", report.errors);

        // ...and no run-interior page is reachable through the fingerprint
        // lookup path, after every overwrite, split and demotion in the
        // interleaving.
        let dev = extent.nova().device().clone();
        let layout = *extent.nova().layout();
        let fact = extent.fact();
        let mut interiors = Vec::new();
        fact.for_each_occupied(|_, e| {
            if e.run_pages > 1 {
                interiors.extend((1..e.run_pages as u64).map(|k| (e.block, e.block + k)));
            }
        });
        for (anchor_block, block) in interiors {
            let fp = dev.with_slice(layout.block_off(block), PG, Fingerprint::of);
            if let Some((_, found)) = fact.lookup(&fp) {
                // Equal content may legitimately live elsewhere as its own
                // record, but never as a per-page alias of this interior.
                prop_assert_ne!(
                    found.block, block,
                    "interior of run at {} leaked into lookup", anchor_block
                );
            }
        }
    }
}
