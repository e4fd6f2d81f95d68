//! File-system checker.
//!
//! Walks every persistent structure and cross-checks it against the DRAM
//! state, returning a list of inconsistencies instead of panicking — the
//! tool a downstream user runs after a crash, and the oracle the crash-
//! injection tests use to define "consistent". The dedup layer adds its own
//! FACT checks on top (`denova::fsck_fact`).

use crate::entry::LogEntry;
use crate::error::Result;
use crate::fs::Nova;
use crate::layout::{BLOCK_SIZE, HOLE_BLOCK, ROOT_INO};
use crate::log::LogIter;
use std::collections::{HashMap, HashSet};

/// One inconsistency found by [`check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckError {
    /// A dentry in the namespace references an inode slot that is not
    /// valid on media.
    DanglingDentry {
        /// The dangling name.
        name: String,
        /// The invalid inode it points at.
        ino: u64,
    },
    /// An inode's persistent log tail disagrees with the DRAM mirror.
    TailMismatch {
        /// Affected inode.
        ino: u64,
        /// Tail stored on media.
        persistent: u64,
        /// Tail cached in DRAM.
        dram: u64,
    },
    /// A log entry failed checksum validation inside the committed region.
    CorruptEntry {
        /// Owning inode.
        ino: u64,
        /// Device offset of the bad entry (0 when unknown).
        entry_off: u64,
    },
    /// The radix tree references a block outside the data area.
    BlockOutOfRange {
        /// Owning inode.
        ino: u64,
        /// File page offset of the bad mapping.
        pgoff: u64,
        /// The out-of-range block.
        block: u64,
    },
    /// Two files (or two pages) reference the same block without the dedup
    /// layer mounted — baseline NOVA must never share pages.
    UnexpectedSharedBlock {
        /// The shared block.
        block: u64,
    },
    /// A block is both referenced by a file and present in the free lists.
    UseAfterFree {
        /// The doubly-owned block.
        block: u64,
    },
    /// A log page appears in two different inodes' chains.
    SharedLogPage {
        /// The shared log page.
        page: u64,
    },
    /// The DRAM radix tree disagrees with a replay of the log.
    IndexDivergence {
        /// Owning inode.
        ino: u64,
        /// Diverging file page offset.
        pgoff: u64,
    },
    /// Free-space accounting disagrees with the block-level census.
    SpaceAccounting {
        /// Free blocks found by draining the allocator.
        counted_free: u64,
        /// Free blocks the allocator reports.
        reported_free: u64,
    },
    /// The persistent link count disagrees with the dentry census.
    LinkCountMismatch {
        /// Affected inode.
        ino: u64,
        /// Link count stored in the inode.
        nlink: u64,
        /// Names actually referencing it.
        names: u64,
    },
    /// A page the log replay says is a hole owns a data block in the radix
    /// tree (or vice versa) — hole and data mappings must agree exactly.
    HoleOwnsBlock {
        /// Owning inode.
        ino: u64,
        /// The conflicted file page offset.
        pgoff: u64,
    },
}

/// A full consistency report.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// The `errors` value.
    pub errors: Vec<FsckError>,
    /// Data blocks referenced by at least one file.
    pub referenced_blocks: u64,
    /// Blocks referenced by more than one page mapping (dedup-shared).
    pub shared_blocks: u64,
    /// Log pages across all inodes.
    pub log_pages: u64,
}

impl FsckReport {
    /// `is_clean` accessor.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Check the file system. `dedup_mounted` tells the checker whether shared
/// data blocks are legal (DeNova) or an error (baseline NOVA).
pub fn check(fs: &Nova, dedup_mounted: bool) -> Result<FsckReport> {
    let mut report = FsckReport::default();
    let dev = fs.device().clone();
    let layout = *fs.layout();
    // The inode table, a block per device read; the passes below look
    // inodes up in DRAM.
    let slots = crate::inode::InodeTable::new(&dev, &layout).read_all();
    let slot = |ino: u64| crate::inode::slot_of(&slots, ino);

    // Pass 1: namespace ↔ inode table. Hard links: several names may map
    // to one inode; audit each inode once and its link count against the
    // name census.
    let mut name_counts: HashMap<u64, u64> = HashMap::new();
    for name in fs.list() {
        let ino = fs.open(&name)?;
        if !slot(ino).is_ok_and(|pi| pi.valid) {
            report.errors.push(FsckError::DanglingDentry { name, ino });
        } else {
            *name_counts.entry(ino).or_insert(0) += 1;
        }
    }
    let mut inos: Vec<u64> = name_counts.keys().copied().collect();
    inos.sort();
    for (&ino, &names) in &name_counts {
        let nlink = slot(ino)?.link_count;
        if nlink != names {
            report
                .errors
                .push(FsckError::LinkCountMismatch { ino, nlink, names });
        }
    }
    inos.push(ROOT_INO);

    // Pass 2: per-inode log + index checks.
    let mut block_refs: HashMap<u64, u64> = HashMap::new();
    let mut log_page_owner: HashMap<u64, u64> = HashMap::new();
    for &ino in &inos {
        let pi = *slot(ino)?;
        // One walk yields the entries and, afterwards, the page chain.
        let mut log = LogIter::new(&dev, &layout, pi.log_head, pi.log_tail);
        fs.with_inode_read(ino, |mem| {
            if pi.log_tail != mem.pos.tail {
                report.errors.push(FsckError::TailMismatch {
                    ino,
                    persistent: pi.log_tail,
                    dram: mem.pos.tail,
                });
            }
            // Replay the log into a shadow index and verify every committed
            // entry decodes.
            let mut shadow: HashMap<u64, u64> = HashMap::new(); // pgoff → block
            let mut size = 0u64;
            for item in &mut log {
                match item {
                    Err(_) => {
                        report
                            .errors
                            .push(FsckError::CorruptEntry { ino, entry_off: 0 });
                        break;
                    }
                    Ok((_, LogEntry::Write(we))) => {
                        for i in 0..we.num_pages as u64 {
                            let block = if we.hole { HOLE_BLOCK } else { we.block + i };
                            shadow.insert(we.file_pgoff + i, block);
                        }
                        size = size.max(we.size_after);
                    }
                    Ok((_, LogEntry::Attr(attr))) => {
                        if attr.new_size < size {
                            let first_dead = attr.new_size.div_ceil(BLOCK_SIZE);
                            shadow.retain(|&pg, _| pg < first_dead);
                        }
                        size = attr.new_size;
                    }
                    Ok((_, LogEntry::Dentry(_))) => {}
                }
            }
            // The DRAM radix tree must equal the replay.
            let mut live: HashSet<u64> = HashSet::new();
            mem.radix.for_each(|pgoff, e| {
                live.insert(pgoff);
                let shadow_block = shadow.get(&pgoff).copied();
                if shadow_block != Some(e.block) {
                    // Hole/data disagreement gets its own error class: a
                    // hole offset must never own a data page.
                    if shadow_block == Some(HOLE_BLOCK) || e.block == HOLE_BLOCK {
                        report.errors.push(FsckError::HoleOwnsBlock { ino, pgoff });
                    } else {
                        report
                            .errors
                            .push(FsckError::IndexDivergence { ino, pgoff });
                    }
                }
                if e.block == HOLE_BLOCK {
                    // Holes own no block: nothing to range-check or census.
                } else if e.block < layout.data_start || e.block >= layout.total_blocks {
                    report.errors.push(FsckError::BlockOutOfRange {
                        ino,
                        pgoff,
                        block: e.block,
                    });
                } else {
                    *block_refs.entry(e.block).or_insert(0) += 1;
                }
            });
            for pg in shadow.keys() {
                if !live.contains(pg) {
                    report
                        .errors
                        .push(FsckError::IndexDivergence { ino, pgoff: *pg });
                }
            }
            Ok(())
        })?;
        // Log-chain ownership.
        for page in log.into_pages() {
            report.log_pages += 1;
            if let Some(owner) = log_page_owner.insert(page, ino) {
                if owner != ino {
                    report.errors.push(FsckError::SharedLogPage { page });
                }
            }
            *block_refs.entry(page).or_insert(0) += 0; // occupied, zero file refs
        }
    }

    report.referenced_blocks = block_refs.values().filter(|&&n| n > 0).count() as u64;
    report.shared_blocks = block_refs.values().filter(|&&n| n > 1).count() as u64;
    if !dedup_mounted {
        for (&block, &n) in &block_refs {
            if n > 1 {
                report
                    .errors
                    .push(FsckError::UnexpectedSharedBlock { block });
            }
        }
    }

    // Pass 3: allocate-everything census — every block must be either
    // referenced/log-occupied or allocatable, never both, and the counts
    // must add up. (Drains and refills the allocator; callers must be
    // quiescent, which is the usual fsck contract.)
    let mut free_blocks: Vec<(u64, u64)> = Vec::new();
    let mut counted_free = 0u64;
    while let Some((start, len)) = fs.allocator().alloc_extent(u64::MAX) {
        counted_free += len;
        for b in start..start + len {
            if block_refs.get(&b).is_some_and(|&n| n > 0) || log_page_owner.contains_key(&b) {
                report.errors.push(FsckError::UseAfterFree { block: b });
            }
        }
        free_blocks.push((start, len));
    }
    for (start, len) in free_blocks {
        fs.allocator().free_range(start, len);
    }
    let reported_free = fs.free_blocks();
    if counted_free != reported_free {
        report.errors.push(FsckError::SpaceAccounting {
            counted_free,
            reported_free,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::NovaOptions;
    use std::sync::Arc;

    fn mkfs() -> Nova {
        Nova::mkfs(
            Arc::new(denova_pmem::PmemDevice::new(32 * 1024 * 1024)),
            NovaOptions {
                num_inodes: 128,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn fresh_fs_is_clean() {
        let fs = mkfs();
        let report = check(&fs, false).unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
        assert_eq!(report.referenced_blocks, 0);
    }

    #[test]
    fn busy_fs_is_clean() {
        let fs = mkfs();
        for i in 0..10 {
            let ino = fs.create(&format!("f{i}")).unwrap();
            fs.write(ino, 0, &vec![i as u8; 3 * 4096]).unwrap();
        }
        let a = fs.open("f3").unwrap();
        fs.write(a, 4096, &vec![0xEE; 4096]).unwrap(); // overwrite
        fs.truncate(a, 5000).unwrap();
        fs.unlink("f7").unwrap();
        let report = check(&fs, false).unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
        assert!(report.referenced_blocks > 20);
        assert_eq!(report.shared_blocks, 0);
        // The census must not have changed free-space accounting.
        let before = fs.free_blocks();
        check(&fs, false).unwrap();
        assert_eq!(fs.free_blocks(), before);
    }

    #[test]
    fn clean_after_recovery() {
        let fs = mkfs();
        for i in 0..5 {
            let ino = fs.create(&format!("f{i}")).unwrap();
            fs.write(ino, 0, &vec![i as u8; 8192]).unwrap();
        }
        let dev2 = Arc::new(fs.device().crash_clone(denova_pmem::CrashMode::Strict));
        let fs2 = Nova::mount(
            dev2,
            NovaOptions {
                num_inodes: 128,
                ..Default::default()
            },
        )
        .unwrap();
        let report = check(&fs2, false).unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
    }

    #[test]
    fn detects_corrupted_committed_entry() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, &vec![1u8; 4096]).unwrap();
        // Smash a byte of the committed write entry on media.
        let head = crate::inode::InodeTable::new(fs.device(), fs.layout())
            .read(ino)
            .unwrap()
            .log_head;
        let entry_off = fs.layout().block_off(head);
        let b = fs.device().read_u8(entry_off + 20);
        fs.device().write_u8(entry_off + 20, b ^ 0xFF);
        let report = check(&fs, false).unwrap();
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, FsckError::CorruptEntry { .. })));
    }

    #[test]
    fn detects_unexpected_sharing_in_baseline() {
        let fs = mkfs();
        let a = fs.create("a").unwrap();
        let b = fs.create("b").unwrap();
        fs.write(a, 0, &vec![1u8; 4096]).unwrap();
        fs.write(b, 0, &vec![2u8; 4096]).unwrap();
        // Forge sharing by pointing b's radix at a's block.
        let a_block = fs
            .with_inode_read(a, |m| Ok(m.radix.get(0).unwrap().block))
            .unwrap();
        fs.with_inode_write(b, |ctx| {
            let mut e = ctx.mem.radix.get(0).unwrap();
            e.block = a_block;
            ctx.mem.radix.insert(0, e);
            Ok(())
        })
        .unwrap();
        let report = check(&fs, false).unwrap();
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, FsckError::UnexpectedSharedBlock { .. })));
        // The same state is legal when the dedup layer is mounted (index
        // divergence aside — the forged radix also diverges from the log).
        let report2 = check(&fs, true).unwrap();
        assert!(!report2
            .errors
            .iter()
            .any(|e| matches!(e, FsckError::UnexpectedSharedBlock { .. })));
    }

    #[test]
    fn detects_double_allocation() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, &vec![1u8; 4096]).unwrap();
        // Forge a use-after-free: release a referenced block to the free
        // list.
        let block = fs
            .with_inode_read(ino, |m| Ok(m.radix.get(0).unwrap().block))
            .unwrap();
        fs.allocator().free_range(block, 1);
        let report = check(&fs, false).unwrap();
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, FsckError::UseAfterFree { .. })));
    }
}
