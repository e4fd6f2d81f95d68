//! Property test: extent growth is invisible to readers. A DeNova stack runs
//! a random write/overwrite/truncate interleaving whose pages repeat across
//! files — the multi-page duplicate sequences the daemon grows by memcmp
//! instead of hashing — and every file must come out byte-identical to an
//! in-memory model. Aligned clones written afterwards dedup in full, each
//! through one shared-extent entry, with FACT holding one record per
//! canonical block. Then the stack is audited: FACT fsck is clean, and
//! every record's fingerprint is that of its canonical block's bytes.

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
    /// sequences — exactly what extent growth feeds on.
    Image {
        file: u8,
        off_pg: u8,
        pages: u8,
        seed: u8,
    },
    /// Write all-zero pages: the hole-elision path.
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

fn mk_stack() -> Denova {
    let dev = Arc::new(PmemDevice::new(48 * 1024 * 1024));
    Denova::mkfs(
        dev,
        NovaOptions {
            num_inodes: 64,
            ..Default::default()
        },
        DedupMode::Immediate,
    )
    .unwrap()
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
    fn extent_growth_is_byte_identical_and_one_record_per_block(
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let fs = mk_stack();
        let mut model = HashMap::new();
        for op in &ops {
            apply(&fs, &mut model, op);
        }
        fs.drain();

        // Byte-identity: the stack serves the model's bytes exactly.
        for (name, expect) in &model {
            let ino = fs.open(name).unwrap();
            prop_assert_eq!(fs.file_size(ino).unwrap() as usize, expect.len());
            let got = fs.read(ino, 0, expect.len()).unwrap();
            prop_assert_eq!(&got, expect, "{} content mismatch", name);
        }

        // Aligned clones of one template, the shape VM images take: the
        // first registers its 8 pages, the next two dedup in full — each
        // through one shared-extent entry — and FACT gains one record per
        // canonical block. The template's content (page_bytes values
        // 64..72) is disjoint from every page the interleaving wrote.
        let template: Vec<u8> = (0..8).flat_map(|k| page_bytes(0, 64 + k)).collect();
        let (saved, records) = (fs.bytes_saved(), fs.fact().occupied_count());
        for c in 0..3 {
            let ino = fs.create(&format!("clone{c}")).unwrap();
            fs.write(ino, 0, &template).unwrap();
            fs.drain();
            prop_assert_eq!(fs.read(ino, 0, template.len()).unwrap(), template.clone());
            let entries: std::collections::HashSet<u64> = fs
                .nova()
                .with_inode_read(ino, |mem| {
                    Ok((0..8).map(|pg| mem.radix.get(pg).unwrap().entry_off).collect())
                })
                .unwrap();
            prop_assert_eq!(entries.len(), 1, "clone{} maps one extent entry", c);
        }
        prop_assert_eq!(fs.bytes_saved() - saved, 2 * template.len() as u64);
        prop_assert_eq!(fs.fact().occupied_count() - records, 8);

        // The dedup metadata is consistent...
        let report = fsck_fact(fs.nova(), fs.fact()).unwrap();
        prop_assert!(report.is_clean(), "fact fsck: {:?}", report.errors);

        // ...and growth never registered bytes it did not compare: every
        // record's fingerprint is its canonical block's.
        let dev = fs.nova().device().clone();
        let layout = *fs.nova().layout();
        let mut records = Vec::new();
        fs.fact().for_each_occupied(|_, e| records.push((e.block, e.fp)));
        for (block, fp) in records {
            let actual = dev.with_slice(layout.block_off(block), PG, Fingerprint::of);
            prop_assert_eq!(actual, fp, "record of block {}", block);
        }
    }
}
