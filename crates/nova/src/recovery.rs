//! Mount-time recovery: rebuild every DRAM structure from the persistent
//! logs.
//!
//! Section II-A: "When a system crash occurs, NOVA scans the inode log to
//! recover the file and reconstruct the radix tree", and Section V-C2: "NOVA
//! scans through all the write entries and generates a bitmap of occupied
//! pages. By using this bitmap, the free_list is rebuilt". We do exactly
//! that, always — a clean unmount takes the same path, which is slower than
//! NOVA's saved-freelist fast path but strictly more conservative.
//!
//! The scan reads every persistent structure **once, one 4 KiB block per
//! device read**: the inode table a block (32 slots) at a time, and each
//! inode log a page at a time through [`LogIter`], which also yields the
//! page chain it walked. Everything else — namespace replay, radix trees,
//! the occupied bitmap, the link-count census — is DRAM work on what those
//! reads brought in. The same walk hands up what the dedup layer would
//! otherwise re-scan every log for: the write entries still flagged
//! `Needed` / `InProcess` ([`DedupPending`]).

use crate::alloc::{Allocator, BlockBitmap};
use crate::entry::{DedupeFlag, LogEntry, WriteEntry};
use crate::error::Result;
use crate::fs::InodeMem;
use crate::inode::{slot_of, InodeTable};
use crate::layout::{Layout, BLOCK_SIZE, INODE_SIZE, ROOT_INO};
use crate::log::{LogIter, LogPosition};
use denova_pmem::PmemDevice;
use std::collections::HashMap;
use std::time::Instant;

/// Device reads and wall time of one recovery phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseCost {
    /// Device read operations the phase issued.
    pub reads: u64,
    /// Wall time of the phase in nanoseconds (injected device latency
    /// included).
    pub ns: u64,
}

/// Run one recovery phase under a span named `label` in the device's
/// registry, and hand back what it cost.
pub fn phase<R>(dev: &PmemDevice, label: &'static str, f: impl FnOnce() -> R) -> (R, PhaseCost) {
    let _span = dev.metrics().span(label);
    let reads = dev.stats().snapshot().reads;
    let t0 = Instant::now();
    let r = f();
    let cost = PhaseCost {
        reads: dev.stats().snapshot().reads - reads,
        ns: t0.elapsed().as_nanos() as u64,
    };
    (r, cost)
}

/// Write entries the log walk found mid-deduplication, as `(ino, entry
/// offset)` in the order the dedup layer rebuilds its queue in: live inodes
/// ascending, the root directory last, log order within an inode.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DedupPending {
    /// Flag `Needed`: candidates the daemon never finished.
    pub needed: Vec<(u64, u64)>,
    /// Flag `InProcess`: dedup transactions past their tail commit.
    pub in_process: Vec<(u64, u64)>,
}

impl DedupPending {
    fn note(&mut self, ino: u64, entry_off: u64, we: &WriteEntry) {
        match we.dedupe_flag {
            DedupeFlag::Needed => self.needed.push((ino, entry_off)),
            DedupeFlag::InProcess => self.in_process.push((ino, entry_off)),
            _ => {}
        }
    }
}

/// What the mount's walk over the inode table and the logs read.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LogWalk {
    /// Inode-table blocks read (one device read each).
    pub inode_blocks_read: u64,
    /// Log pages read (one device read each): every page of every live log.
    pub log_pages_read: u64,
    /// Device reads and wall time of the whole walk.
    pub cost: PhaseCost,
}

/// Everything recovery rebuilds.
pub struct Recovered {
    /// name → inode, replayed from the root directory log.
    pub namespace: HashMap<String, u64>,
    /// Per-inode DRAM state including the root's.
    pub inodes: HashMap<u64, InodeMem>,
    /// Free lists rebuilt from the occupied-page bitmap.
    pub alloc: Allocator,
    /// One past the largest transaction id seen in any log.
    pub next_txid: u64,
    /// Names beginning with [`crate::fs::PREPARE_PREFIX`] that survived the
    /// crash: two-phase-commit records of in-flight cross-shard transactions.
    /// The cluster layer resolves them; a standalone mount treats them as
    /// ordinary files.
    pub orphan_prepares: Vec<String>,
    /// Write entries still flagged for (or inside) a dedup transaction.
    pub dedup_pending: DedupPending,
    /// Device work of the walk.
    pub walk: LogWalk,
}

/// Run full log-scan recovery.
pub fn recover(dev: &PmemDevice, layout: &Layout, cpus: usize) -> Result<Recovered> {
    let (recovered, cost) = phase(dev, "nova.recovery.log_walk", || scan(dev, layout, cpus));
    let mut recovered = recovered?;
    recovered.walk.cost = cost;
    let metrics = dev.metrics();
    metrics
        .counter("nova.recovery.inode_blocks_read")
        .add(recovered.walk.inode_blocks_read);
    metrics
        .counter("nova.recovery.log_pages_read")
        .add(recovered.walk.log_pages_read);
    Ok(recovered)
}

fn scan(dev: &PmemDevice, layout: &Layout, cpus: usize) -> Result<Recovered> {
    let table = InodeTable::new(dev, layout);
    let mut occupied = BlockBitmap::new(layout.total_blocks);
    let mut next_txid = 1u64;
    let mut walk = LogWalk::default();

    // The inode table, a block at a time; every later look at an inode is a
    // DRAM lookup.
    let slots = table.read_all();
    walk.inode_blocks_read = (layout.num_inodes * INODE_SIZE).div_ceil(BLOCK_SIZE);
    let slot = |ino: u64| slot_of(&slots, ino);
    // A finished walk's page chain: occupied, and one device read each.
    // Returns the chain through the tail's page, the one appends extend: a
    // page linked behind it (an append that crashed between linking the
    // page and committing its tail) is relinked past by the next append.
    fn mark_pages(
        log: LogIter<'_>,
        pos: &LogPosition,
        occupied: &mut BlockBitmap,
        walk: &mut LogWalk,
    ) -> Vec<u64> {
        let mut chain = log.into_pages();
        for &page in &chain {
            occupied.set(page);
            walk.log_pages_read += 1;
        }
        let tail_page = if pos.tail == 0 {
            pos.head
        } else {
            pos.tail / BLOCK_SIZE
        };
        if let Some(i) = chain.iter().position(|&p| p == tail_page) {
            chain.truncate(i + 1);
        }
        chain
    }

    // Phase 1: replay the root directory log to learn the namespace.
    let root = slot(ROOT_INO)?;
    let mut namespace: HashMap<String, u64> = HashMap::new();
    let mut root_mem = InodeMem::default();
    let mut root_pending = DedupPending::default();
    root_mem.pos = LogPosition {
        head: root.log_head,
        tail: root.log_tail,
    };
    let mut log = LogIter::new(dev, layout, root.log_head, root.log_tail);
    for item in &mut log {
        let (off, entry) = item?;
        *root_mem.live_per_page.entry(off / BLOCK_SIZE).or_insert(0) += 1;
        match entry {
            LogEntry::Dentry(d) => {
                next_txid = next_txid.max(d.txid + 1);
                if d.add {
                    namespace.insert(d.name, d.ino);
                } else {
                    namespace.remove(&d.name);
                }
            }
            LogEntry::Write(we) => root_pending.note(ROOT_INO, off, &we),
            LogEntry::Attr(_) => {}
        }
    }
    root_mem.log_chain = mark_pages(log, &root_mem.pos, &mut occupied, &mut walk);
    let mut orphan_prepares: Vec<String> = namespace
        .keys()
        .filter(|n| n.starts_with(crate::fs::PREPARE_PREFIX))
        .cloned()
        .collect();
    orphan_prepares.sort();

    // Phase 2: rebuild each live file's radix tree from its log; mark its
    // log pages and currently-referenced data pages occupied. Hard links
    // mean several names can share one inode — build each once and repair
    // its link count from the authoritative dentry census.
    let mut link_counts: HashMap<u64, u64> = HashMap::new();
    for &ino in namespace.values() {
        *link_counts.entry(ino).or_insert(0) += 1;
    }
    let mut live: Vec<u64> = link_counts.keys().copied().collect();
    live.sort_unstable();
    let mut inodes: HashMap<u64, InodeMem> = HashMap::new();
    let mut dedup_pending = DedupPending::default();
    for ino in live {
        let pi = slot(ino)?;
        if pi.link_count != link_counts[&ino] {
            table.set_link_count(ino, link_counts[&ino])?;
        }
        let mut mem = InodeMem::default();
        mem.pos = LogPosition {
            head: pi.log_head,
            tail: pi.log_tail,
        };
        let mut log = LogIter::new(dev, layout, pi.log_head, pi.log_tail);
        for item in &mut log {
            let (off, entry) = item?;
            match entry {
                LogEntry::Write(we) => {
                    next_txid = next_txid.max(we.txid + 1);
                    dedup_pending.note(ino, off, &we);
                    // Superseded blocks are simply not marked occupied.
                    let _ = mem.apply_write_entry(off, &we);
                }
                LogEntry::Attr(attr) => {
                    next_txid = next_txid.max(attr.txid + 1);
                    mem.hold_page(off);
                    if attr.new_size < mem.size() {
                        let first_dead = attr.new_size.div_ceil(BLOCK_SIZE);
                        let removed = mem.radix.remove_from(first_dead);
                        for (_, e) in &removed {
                            mem.supersede(e);
                        }
                    }
                    mem.set_size(attr.new_size);
                }
                LogEntry::Dentry(_) => {
                    // Dentries only appear in directory logs; ignore if a
                    // stray one survives in a file log.
                }
            }
        }
        mem.log_chain = mark_pages(log, &mem.pos, &mut occupied, &mut walk);
        mem.radix.for_each(|_, e| {
            if e.block != crate::layout::HOLE_BLOCK {
                occupied.set(e.block);
            }
        });
        inodes.insert(ino, mem);
    }
    inodes.insert(ROOT_INO, root_mem);
    dedup_pending.needed.extend(root_pending.needed);
    dedup_pending.in_process.extend(root_pending.in_process);

    // Phase 3: clear orphan inodes (valid slot, no dentry). These are the
    // debris of a crash between inode init and dentry commit.
    for (ino, pi) in slots.iter().enumerate().skip(1) {
        if pi.valid && !inodes.contains_key(&(ino as u64)) {
            table.clear(ino as u64)?;
        }
    }

    // Phase 4: rebuild the free lists from the bitmap. "automatically
    // finishes any reclaiming processes that were not finished."
    let alloc = Allocator::from_bitmap(cpus, layout.data_start, layout.total_blocks, &occupied);

    Ok(Recovered {
        namespace,
        inodes,
        alloc,
        next_txid,
        orphan_prepares,
        dedup_pending,
        walk,
    })
}

#[cfg(test)]
mod tests {
    use crate::fs::{Nova, NovaOptions};
    use denova_pmem::{CrashMode, PmemDevice};
    use std::sync::Arc;

    fn opts() -> NovaOptions {
        NovaOptions {
            num_inodes: 128,
            ..Default::default()
        }
    }

    fn crash_and_mount(fs: &Nova) -> Nova {
        let after = Arc::new(fs.device().crash_clone(CrashMode::Strict));
        Nova::mount(after, opts()).unwrap()
    }

    #[test]
    fn remount_after_clean_writes_recovers_everything() {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let fs = Nova::mkfs(dev, opts()).unwrap();
        let a = fs.create("a").unwrap();
        let b = fs.create("b").unwrap();
        fs.write(a, 0, &vec![1u8; 8192]).unwrap();
        fs.write(b, 4096, &vec![2u8; 4096]).unwrap();

        let fs2 = crash_and_mount(&fs);
        let a2 = fs2.open("a").unwrap();
        let b2 = fs2.open("b").unwrap();
        assert_eq!(fs2.read(a2, 0, 8192).unwrap(), vec![1u8; 8192]);
        assert_eq!(fs2.file_size(b2).unwrap(), 8192);
        assert_eq!(fs2.read(b2, 0, 4096).unwrap(), vec![0u8; 4096]);
        assert_eq!(fs2.read(b2, 4096, 4096).unwrap(), vec![2u8; 4096]);
    }

    #[test]
    fn free_space_is_consistent_after_recovery() {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let fs = Nova::mkfs(dev, opts()).unwrap();
        let a = fs.create("a").unwrap();
        for i in 0..10u8 {
            fs.write(a, 0, &vec![i; 4096]).unwrap(); // CoW churn
        }
        let live_free = fs.free_blocks();
        let fs2 = crash_and_mount(&fs);
        // Recovery must find at least as much free space (obsolete CoW pages
        // that were pending reclaim get swept), never less.
        assert!(fs2.free_blocks() >= live_free);
        // And the data survives.
        let a2 = fs2.open("a").unwrap();
        assert_eq!(fs2.read(a2, 0, 4096).unwrap(), vec![9u8; 4096]);
    }

    #[test]
    fn unlinked_file_stays_unlinked() {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let fs = Nova::mkfs(dev, opts()).unwrap();
        let a = fs.create("a").unwrap();
        fs.write(a, 0, &vec![1u8; 4096]).unwrap();
        fs.unlink("a").unwrap();
        let fs2 = crash_and_mount(&fs);
        assert!(!fs2.exists("a"));
        assert_eq!(fs2.file_count(), 0);
    }

    #[test]
    fn crash_between_inode_init_and_dentry_leaves_no_file() {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let fs = Nova::mkfs(dev.clone(), opts()).unwrap();
        fs.create("pre").unwrap();
        dev.crash_points().arm("nova::create::after_inode_init", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fs.create("doomed").unwrap();
        }));
        assert!(r.is_err());
        let fs2 = Nova::mount(dev, opts()).unwrap();
        assert!(fs2.exists("pre"));
        assert!(!fs2.exists("doomed"));
        // The orphan slot must be reusable.
        fs2.create("doomed").unwrap();
    }

    #[test]
    fn crash_before_write_commit_preserves_old_data() {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let fs = Nova::mkfs(dev.clone(), opts()).unwrap();
        let a = fs.create("a").unwrap();
        fs.write(a, 0, &vec![1u8; 4096]).unwrap();
        dev.crash_points().arm("nova::write::before_tail_commit", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fs.write(a, 0, &vec![2u8; 4096]).unwrap();
        }));
        assert!(r.is_err());
        let fs2 = Nova::mount(dev, opts()).unwrap();
        let a2 = fs2.open("a").unwrap();
        assert_eq!(fs2.read(a2, 0, 4096).unwrap(), vec![1u8; 4096]);
    }

    #[test]
    fn first_append_after_a_crash_before_the_first_tail_commit_starts_at_the_head_page() {
        // The first write to a file persists the log head link, then crashes
        // before the tail commit: recovery finds a head page and tail 0. The
        // next append must land in that page — not at device offset 0.
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let fs = Nova::mkfs(dev.clone(), opts()).unwrap();
        let a = fs.create("a").unwrap();
        dev.crash_points().arm("nova::write::before_tail_commit", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fs.write(a, 0, &vec![1u8; 4096]).unwrap();
        }));
        assert!(r.is_err());
        let fs2 = Nova::mount(dev.clone(), opts()).unwrap();
        let a2 = fs2.open("a").unwrap();
        let pos = fs2.with_inode_read(a2, |m| Ok(m.pos)).unwrap();
        assert!(pos.head != 0 && pos.tail == 0, "{pos:?}");
        fs2.write(a2, 0, &vec![2u8; 4096]).unwrap();
        assert!(crate::fsck(&fs2, false).unwrap().is_clean());
        // The superblock survived: the image still mounts, with the data.
        let fs3 = crash_and_mount(&fs2);
        let a3 = fs3.open("a").unwrap();
        assert_eq!(fs3.read(a3, 0, 4096).unwrap(), vec![2u8; 4096]);
    }

    #[test]
    fn crash_after_write_commit_exposes_new_data() {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let fs = Nova::mkfs(dev.clone(), opts()).unwrap();
        let a = fs.create("a").unwrap();
        fs.write(a, 0, &vec![1u8; 4096]).unwrap();
        dev.crash_points().arm("nova::write::after_tail_commit", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fs.write(a, 0, &vec![2u8; 4096]).unwrap();
        }));
        assert!(r.is_err());
        let fs2 = Nova::mount(dev, opts()).unwrap();
        let a2 = fs2.open("a").unwrap();
        assert_eq!(fs2.read(a2, 0, 4096).unwrap(), vec![2u8; 4096]);
    }

    #[test]
    fn write_is_all_or_nothing_never_torn() {
        // The paper's atomicity claim: "the write operation was either
        // completely executed or never took place". Crash at the data-copy
        // stage: old contents intact.
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let fs = Nova::mkfs(dev.clone(), opts()).unwrap();
        let a = fs.create("a").unwrap();
        fs.write(a, 0, &vec![1u8; 16384]).unwrap();
        dev.crash_points().arm("nova::write::after_data_copy", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fs.write(a, 0, &vec![2u8; 16384]).unwrap();
        }));
        assert!(r.is_err());
        let fs2 = Nova::mount(dev, opts()).unwrap();
        let a2 = fs2.open("a").unwrap();
        let data = fs2.read(a2, 0, 16384).unwrap();
        assert!(
            data.iter().all(|&b| b == 1),
            "torn write visible after crash"
        );
    }

    #[test]
    fn truncate_survives_remount() {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let fs = Nova::mkfs(dev, opts()).unwrap();
        let a = fs.create("a").unwrap();
        fs.write(a, 0, &vec![5u8; 4 * 4096]).unwrap();
        fs.truncate(a, 5000).unwrap();
        let fs2 = crash_and_mount(&fs);
        let a2 = fs2.open("a").unwrap();
        assert_eq!(fs2.file_size(a2).unwrap(), 5000);
        assert_eq!(fs2.read(a2, 0, 4096).unwrap(), vec![5u8; 4096]);
        assert_eq!(fs2.read(a2, 4096, 5000).unwrap(), vec![5u8; 904]);
    }

    #[test]
    fn orphan_prepare_records_are_surfaced_after_mount() {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let fs = Nova::mkfs(dev, opts()).unwrap();
        fs.create("normal").unwrap();
        let t = fs.create(".2pc.42").unwrap();
        fs.write(t, 0, b"prepare record").unwrap();
        fs.create(".2pc.stage.42").unwrap();
        let fs2 = crash_and_mount(&fs);
        assert_eq!(fs2.orphan_prepares(), [".2pc.42", ".2pc.stage.42"]);
        // A resolved (unlinked) record no longer shows up.
        fs2.unlink(".2pc.42").unwrap();
        fs2.unlink(".2pc.stage.42").unwrap();
        let fs3 = crash_and_mount(&fs2);
        assert!(fs3.orphan_prepares().is_empty());
        assert!(fs3.exists("normal"));
    }

    #[test]
    fn double_remount_is_stable() {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let fs = Nova::mkfs(dev, opts()).unwrap();
        let a = fs.create("a").unwrap();
        fs.write(a, 0, &vec![9u8; 12288]).unwrap();
        let fs2 = crash_and_mount(&fs);
        let free2 = fs2.free_blocks();
        let fs3 = crash_and_mount(&fs2);
        assert_eq!(fs3.free_blocks(), free2);
        let a3 = fs3.open("a").unwrap();
        assert_eq!(fs3.read(a3, 0, 12288).unwrap(), vec![9u8; 12288]);
    }
}
