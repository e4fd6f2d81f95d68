//! Property test: baseline NOVA matches an in-memory model under random
//! operation sequences, stays fsck-clean throughout, and recovers to the
//! same state after a crash. Overwrite bursts grow logs past a page, so the
//! log GC that runs on every log extension is part of what is checked.
//!
//! Hard links are modelled exactly: names map to shared `Rc<RefCell<..>>`
//! contents, so a write through one alias is visible through every other —
//! the same aliasing the file system must implement.

use denova_nova::log::log_pages;
use denova_nova::{fsck, Nova, NovaError, NovaOptions};
use denova_pmem::{CrashMode, PmemDevice};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Write {
        file: u8,
        off_pg: u8,
        pages: u8,
        val: u8,
    },
    /// Overwrite one page `times` times in a row. Bursts run a file's log
    /// past a log page (63 entries), so the write path's GC collects while
    /// truncates and other writes interleave.
    Burst {
        file: u8,
        pg: u8,
        times: u8,
        val: u8,
    },
    Truncate {
        file: u8,
        pages: u8,
    },
    Unlink(u8),
    Rename {
        from: u8,
        to: u8,
    },
    Link {
        existing: u8,
        new: u8,
    },
    Gc(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6).prop_map(Op::Create),
        (0u8..6, 0u8..5, 1u8..4, any::<u8>()).prop_map(|(file, off_pg, pages, val)| Op::Write {
            file,
            off_pg,
            pages,
            val
        }),
        (0u8..6, 0u8..5, 20u8..140, any::<u8>()).prop_map(|(file, pg, times, val)| Op::Burst {
            file,
            pg,
            times,
            val
        }),
        (0u8..6, 0u8..6).prop_map(|(file, pages)| Op::Truncate { file, pages }),
        (0u8..6).prop_map(Op::Unlink),
        (0u8..6, 0u8..6).prop_map(|(from, to)| Op::Rename { from, to }),
        (0u8..6, 0u8..6).prop_map(|(existing, new)| Op::Link { existing, new }),
        (0u8..6).prop_map(Op::Gc),
    ]
}

type Model = HashMap<String, Rc<RefCell<Vec<u8>>>>;

fn name(file: u8) -> String {
    format!("f{file}")
}

fn check_model(fs: &Nova, model: &Model) {
    assert_eq!(fs.file_count(), model.len());
    for (name, expect) in model {
        let expect = expect.borrow();
        let ino = fs.open(name).unwrap();
        assert_eq!(fs.file_size(ino).unwrap() as usize, expect.len(), "{name}");
        assert_eq!(&fs.read(ino, 0, expect.len()).unwrap(), &*expect, "{name}");
        // GC walks the DRAM mirror of the log's page chain: it must be the
        // chain on the device.
        let (mirror, head) = fs
            .with_inode_read(ino, |mem| Ok((mem.log_chain.clone(), mem.pos.head)))
            .unwrap();
        assert_eq!(mirror, log_pages(fs.device(), fs.layout(), head), "{name}");
    }
    // Aliased names must resolve to the same inode, distinct contents to
    // distinct inodes.
    for (a, ca) in model {
        for (b, cb) in model {
            let same_model = Rc::ptr_eq(ca, cb);
            let same_fs = fs.open(a).unwrap() == fs.open(b).unwrap();
            assert_eq!(same_model, same_fs, "alias mismatch {a} vs {b}");
        }
    }
}

/// Run `ops` against a fresh file system and the model; check the model,
/// fsck, and the same again after a crash + remount.
fn run_ops(ops: &[Op]) -> TestCaseResult {
    let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
    let opts = NovaOptions {
        num_inodes: 64,
        ..Default::default()
    };
    let fs = Nova::mkfs(dev.clone(), opts.clone()).unwrap();
    let mut model: Model = HashMap::new();

    for op in ops {
        match *op {
            Op::Create(f) => {
                let n = name(f);
                let r = fs.create(&n);
                if let std::collections::hash_map::Entry::Vacant(e) = model.entry(n) {
                    prop_assert!(r.is_ok());
                    e.insert(Rc::new(RefCell::new(Vec::new())));
                } else {
                    prop_assert_eq!(r, Err(NovaError::AlreadyExists));
                }
            }
            Op::Write {
                file,
                off_pg,
                pages,
                val,
            } => {
                let n = name(file);
                if let Some(content) = model.get(&n) {
                    let off = off_pg as usize * 4096;
                    let len = pages as usize * 4096;
                    let ino = fs.open(&n).unwrap();
                    fs.write(ino, off as u64, &vec![val; len]).unwrap();
                    let mut c = content.borrow_mut();
                    if c.len() < off + len {
                        c.resize(off + len, 0);
                    }
                    c[off..off + len].fill(val);
                }
            }
            Op::Burst {
                file,
                pg,
                times,
                val,
            } => {
                let n = name(file);
                if let Some(content) = model.get(&n) {
                    let off = pg as usize * 4096;
                    let ino = fs.open(&n).unwrap();
                    let mut c = content.borrow_mut();
                    if c.len() < off + 4096 {
                        c.resize(off + 4096, 0);
                    }
                    for k in 0..times {
                        let v = val.wrapping_add(k);
                        fs.write(ino, off as u64, &[v; 4096]).unwrap();
                        c[off..off + 4096].fill(v);
                    }
                }
            }
            Op::Truncate { file, pages } => {
                let n = name(file);
                if let Some(content) = model.get(&n) {
                    let new_len = pages as usize * 4096;
                    let ino = fs.open(&n).unwrap();
                    fs.truncate(ino, new_len as u64).unwrap();
                    content.borrow_mut().resize(new_len, 0);
                }
            }
            Op::Unlink(f) => {
                let n = name(f);
                let r = fs.unlink(&n);
                if model.remove(&n).is_some() {
                    prop_assert!(r.is_ok());
                } else {
                    prop_assert_eq!(r, Err(NovaError::NotFound));
                }
            }
            Op::Rename { from, to } => {
                let nf = name(from);
                let nt = name(to);
                let r = fs.rename(&nf, &nt);
                if from == to {
                    if model.contains_key(&nf) {
                        prop_assert!(r.is_ok());
                    } else {
                        prop_assert_eq!(r, Err(NovaError::NotFound));
                    }
                } else if let Some(content) = model.remove(&nf) {
                    prop_assert!(r.is_ok());
                    model.insert(nt, content);
                } else {
                    prop_assert_eq!(r, Err(NovaError::NotFound));
                }
            }
            Op::Link { existing, new } => {
                let ne = name(existing);
                let nn = name(new);
                let r = fs.link(&ne, &nn);
                if !model.contains_key(&ne) {
                    prop_assert_eq!(r, Err(NovaError::NotFound));
                } else if model.contains_key(&nn) {
                    prop_assert_eq!(r, Err(NovaError::AlreadyExists));
                } else {
                    prop_assert!(r.is_ok());
                    let shared = model.get(&ne).unwrap().clone();
                    model.insert(nn, shared);
                }
            }
            Op::Gc(f) => {
                let n = name(f);
                if model.contains_key(&n) {
                    let ino = fs.open(&n).unwrap();
                    fs.gc_inode_log(ino).unwrap();
                }
            }
        }
    }
    check_model(&fs, &model);
    let report = fsck(&fs, false).unwrap();
    prop_assert!(report.is_clean(), "fsck: {:?}", report.errors);

    // Crash + remount: the committed state is exactly the model (every
    // op above completed, so nothing may be lost), and fsck stays clean.
    let dev2 = Arc::new(dev.crash_clone(CrashMode::Strict));
    let fs2 = Nova::mount(dev2, opts).unwrap();
    check_model(&fs2, &model);
    let report = fsck(&fs2, false).unwrap();
    prop_assert!(report.is_clean(), "post-crash fsck: {:?}", report.errors);
    Ok(())
}

/// Operations on file `f0` alone, so every write, burst and truncate lands in
/// one log: truncates end up buried under bursts on later log pages, which
/// is what GC must not lose.
fn one_file_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..5, 1u8..4, any::<u8>()).prop_map(|(off_pg, pages, val)| Op::Write {
            file: 0,
            off_pg,
            pages,
            val
        }),
        (0u8..5, 20u8..140, any::<u8>()).prop_map(|(pg, times, val)| Op::Burst {
            file: 0,
            pg,
            times,
            val
        }),
        (0u8..6).prop_map(|pages| Op::Truncate { file: 0, pages }),
        Just(Op::Gc(0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn nova_matches_model_and_stays_fsck_clean(
        ops in prop::collection::vec(op_strategy(), 1..50),
    ) {
        run_ops(&ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_long_log_with_truncates_matches_model(
        ops in prop::collection::vec(one_file_op_strategy(), 1..40),
    ) {
        run_ops(&[vec![Op::Create(0)], ops].concat())?;
    }
}
