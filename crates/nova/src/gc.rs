//! Log garbage collection.
//!
//! "NOVA keeps the per-inode log as a linked list of log pages, reducing the
//! excessive garbage collection overhead. An invalid log page can be
//! reclaimed without interfering with other processes" (Section II-A). This
//! is NOVA's *fast GC*: a log page whose entries are all superseded is
//! unlinked from the chain (one footer update) and freed. Data pages are
//! reclaimed eagerly by the CoW write path, so only log pages need GC.
//!
//! **When it runs.** Where NOVA runs it: whenever a write-locked section
//! grows an inode's log by a page, [`Nova::with_inode_write`] collects the
//! log under the lock the appender already holds — after the section has
//! folded its entries into the live counts, never inside the append, whose
//! freshly committed entries would otherwise make the page they left behind
//! look dead. The log's page chain is mirrored in DRAM
//! ([`crate::fs::InodeMem::log_chain`]), so the trigger reads nothing from
//! the device unless some page other than the tail's holds no live entry,
//! and then it reads just those pages. [`Nova::gc_inode_log`] runs the same
//! collection on demand.
//!
//! **What stays.** A page holding a truncate's `Attr` entry is never dead
//! (`InodeMem::hold_page`): without it the mount would replay
//! older write entries past the truncation point. A directory log is never
//! collected — its live counts track write entries, not dentries.
//!
//! **Order.** An unlinked page is freed only after its predecessor's footer
//! skips it is persistent; a dead head is freed only after the inode's head
//! pointer moves past it. A crash in between leaks the page until the
//! mount's bitmap rebuild.
//!
//! DeNova interaction: a dead log page may still hold write entries that the
//! DWQ references by device offset (dedupe flag `Needed`/`InProcess`), so
//! the dedup hook can veto collection of such pages via
//! [`crate::hooks::NovaHooks::may_gc_entry`].

use crate::entry::{decode, LogEntry};
use crate::error::Result;
use crate::fs::{InodeMem, Nova};
use crate::hooks::NovaHooks;
use crate::layout::{BLOCK_SIZE, LOG_ENTRY_SIZE, LOG_PAGE_PAYLOAD, ROOT_INO};
use crate::log::footer_of;
use crate::stats::NovaStats;

impl Nova {
    /// Collect dead log pages of `ino`'s log now. Returns the number of
    /// pages freed. The write path already collects whenever a log grows a
    /// page, so this finds only what the dedup veto held back since.
    pub fn gc_inode_log(&self, ino: u64) -> Result<u64> {
        self.with_inode_write(ino, |ctx| self.collect_log(ino, ctx.mem))
    }

    /// GC every live inode's log. Returns total pages freed. Files unlinked
    /// while the sweep runs are skipped.
    pub fn gc_all_logs(&self) -> Result<u64> {
        let mut total = 0;
        for ino in self.live_inodes() {
            match self.gc_inode_log(ino) {
                Ok(n) => total += n,
                Err(crate::error::NovaError::BadInode(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }

    /// The fast-GC walk over `mem`'s log, under `ino`'s write lock. Returns
    /// the number of pages freed.
    pub(crate) fn collect_log(&self, ino: u64, mem: &mut InodeMem) -> Result<u64> {
        let Some(&tail_page) = mem.log_chain.last() else {
            return Ok(0);
        };
        // Every page but the tail's holds a live entry: nothing to walk.
        let held = mem.live_per_page.len() - mem.live_per_page.contains_key(&tail_page) as usize;
        if ino == ROOT_INO || mem.log_chain.len() - 1 <= held {
            return Ok(0);
        }
        let dev = self.device();
        let layout = self.layout();
        let hooks = self.current_hooks();
        let _span = dev.metrics().span("nova.gc");
        let chain = std::mem::take(&mut mem.log_chain);
        let mut kept = Vec::with_capacity(chain.len());
        let mut page = self.scratch_acquire();
        let mut freed = 0u64;
        for (i, &cur) in chain.iter().enumerate() {
            // Only a page no live entry holds is read, once, from the device.
            let dead = cur != tail_page && !mem.live_per_page.contains_key(&cur) && {
                dev.read_into(layout.block_off(cur), &mut page[..]);
                page_is_collectable(&page, &*hooks)
            };
            if !dead {
                kept.push(cur);
                continue;
            }
            let next = footer_of(&page);
            match kept.last() {
                Some(&prev) => {
                    // Unlink: prev.footer = next; persist; then free.
                    let off = layout.block_off(prev) + LOG_PAGE_PAYLOAD;
                    dev.write_u64(off, next);
                    dev.persist(off, 8);
                    dev.crash_point("nova::gc::after_unlink");
                }
                None => {
                    // Dead head: move the persistent head pointer first,
                    // then free.
                    if let Err(e) = self.table().set_log_head(ino, next) {
                        kept.extend_from_slice(&chain[i..]);
                        mem.log_chain = kept;
                        return Err(e);
                    }
                    mem.pos.head = next;
                    dev.crash_point("nova::gc::after_head_move");
                }
            }
            self.allocator().free_range(cur, 1);
            NovaStats::add(&self.stats().log_pages_gced, 1);
            freed += 1;
        }
        self.scratch_release(page);
        mem.log_chain = kept;
        Ok(freed)
    }
}

/// A full (non-tail) log page, read into `page`, is collectable when the
/// dedup hook clears every write entry in it.
fn page_is_collectable(page: &[u8; BLOCK_SIZE as usize], hooks: &dyn NovaHooks) -> bool {
    page[..LOG_PAGE_PAYLOAD as usize]
        .chunks_exact(LOG_ENTRY_SIZE as usize)
        .all(|slot| match decode(slot.try_into().unwrap()) {
            Ok(LogEntry::Write(we)) => hooks.may_gc_entry(&we),
            // Only write entries sit on the DWQ. (A page with an `Attr`
            // entry never gets here: it is held in DRAM.)
            Ok(_) | Err(_) => true,
        })
}

#[cfg(test)]
mod tests {
    use crate::entry::WriteEntry;
    use crate::fs::{Nova, NovaOptions};
    use crate::hooks::{NovaHooks, ReclaimDecision};
    use crate::layout::{BLOCK_SIZE, ENTRIES_PER_LOG_PAGE, ROOT_INO};
    use crate::stats::NovaStats;
    use denova_pmem::{CrashMode, PmemDevice};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const PAGE: usize = BLOCK_SIZE as usize;

    fn opts() -> NovaOptions {
        NovaOptions {
            num_inodes: 128,
            ..Default::default()
        }
    }

    fn mkfs() -> Nova {
        Nova::mkfs(Arc::new(PmemDevice::new(32 * 1024 * 1024)), opts()).unwrap()
    }

    /// A page of one nonzero byte value (an all-zero page would be elided
    /// to a hole).
    fn page(i: u64) -> Vec<u8> {
        vec![(i % 255) as u8 + 1; PAGE]
    }

    /// Mount a strict crash image of `fs` and check it is fsck-clean.
    fn crash_mount(fs: &Nova) -> Nova {
        let dev = Arc::new(fs.device().crash_clone(CrashMode::Strict));
        let fs2 = Nova::mount(dev, opts()).unwrap();
        let report = crate::fsck(&fs2, false).unwrap();
        assert!(report.is_clean(), "fsck: {:?}", report.errors);
        fs2
    }

    #[test]
    fn gc_reclaims_fully_dead_pages() {
        // Overwrites of one page kill every log page as the next one is
        // linked, and the write path collects it right then: the log never
        // holds more than the tail's page, and an explicit GC finds nothing.
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        let n = ENTRIES_PER_LOG_PAGE * 3;
        for i in 0..n {
            fs.write(ino, 0, &page(i)).unwrap();
            assert_eq!(fs.stat(ino).unwrap().log_pages, 1, "after write {i}");
        }
        assert_eq!(NovaStats::get(&fs.stats().log_pages_gced), 2);
        let before = fs.free_blocks();
        assert_eq!(fs.gc_inode_log(ino).unwrap(), 0);
        assert_eq!(fs.free_blocks(), before);
        assert_eq!(fs.read(ino, 0, PAGE).unwrap(), page(n - 1));
    }

    #[test]
    fn gc_keeps_pages_with_live_entries() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        // Distinct pages: all entries stay live, so the trigger on each new
        // log page settles it from DRAM and reads nothing.
        let reads = fs.device().stats().snapshot().reads;
        for i in 0..(ENTRIES_PER_LOG_PAGE * 2) {
            fs.write(ino, i * BLOCK_SIZE, &page(1)).unwrap();
        }
        assert_eq!(fs.device().stats().snapshot().reads, reads);
        assert_eq!(fs.stat(ino).unwrap().log_pages, 2);
        assert_eq!(fs.gc_inode_log(ino).unwrap(), 0);
        // And everything still reads back.
        assert_eq!(fs.read(ino, BLOCK_SIZE, PAGE).unwrap(), page(1));
    }

    #[test]
    fn log_survives_remount_after_gc() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        let n = ENTRIES_PER_LOG_PAGE * 2 + 10;
        for i in 0..n {
            fs.write(ino, 0, &page(i)).unwrap();
        }
        fs.gc_inode_log(ino).unwrap();
        let fs2 = crash_mount(&fs);
        let ino2 = fs2.open("f").unwrap();
        assert_eq!(fs2.read(ino2, 0, PAGE).unwrap(), page(n - 1));
        assert_eq!(fs2.stat(ino2).unwrap().log_pages, 1);
    }

    /// Overwrite file page `hot` until the write path's GC reaches crash
    /// point `point`, then mount the crash image: the crashed write had
    /// committed, the page GC was freeing leaks only until the mount's
    /// bitmap rebuild, and the log keeps collecting afterwards. With a
    /// nonzero `hot`, page 0 is written once first, so the head page stays
    /// live and dead pages are unlinked from the middle of the chain.
    fn crash_in_write_path_gc(point: &str, hot: u64) {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        if hot > 0 {
            fs.write(ino, 0, &page(1000)).unwrap();
        }
        fs.device().crash_points().arm(point, 0);
        let crashed = (0..ENTRIES_PER_LOG_PAGE * 3)
            .find(|&i| {
                catch_unwind(AssertUnwindSafe(|| {
                    fs.write(ino, hot * BLOCK_SIZE, &page(i)).unwrap()
                }))
                .is_err()
            })
            .unwrap_or_else(|| panic!("{point} never fired"));
        let fs2 = crash_mount(&fs);
        let ino2 = fs2.open("f").unwrap();
        let mut expect = vec![0u8; hot as usize * PAGE];
        if hot > 0 {
            expect[..PAGE].copy_from_slice(&page(1000));
        }
        expect.extend(page(crashed));
        assert_eq!(fs2.read(ino2, 0, expect.len()).unwrap(), expect, "{point}");
        for i in 0..ENTRIES_PER_LOG_PAGE * 2 {
            fs2.write(ino2, hot * BLOCK_SIZE, &page(i)).unwrap();
        }
        assert!(fs2.stat(ino2).unwrap().log_pages <= 2, "{point}");
        assert_eq!(fs2.gc_inode_log(ino2).unwrap(), 0, "{point}");
    }

    #[test]
    fn crash_after_a_dead_head_moves_recovers() {
        crash_in_write_path_gc("nova::gc::after_head_move", 0);
    }

    #[test]
    fn crash_after_a_dead_page_is_unlinked_recovers() {
        crash_in_write_path_gc("nova::gc::after_unlink", 1);
    }

    #[test]
    fn a_truncates_log_page_is_never_collected() {
        // The 4-page write's entry stays live (page 0) on the first log
        // page; the truncate's `Attr` entry opens the second, under 126
        // overwrites of page 1. Were that page freed, the mount would replay
        // the 4-page write past the truncation point.
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, &page(1).repeat(4)).unwrap();
        for i in 1..ENTRIES_PER_LOG_PAGE {
            fs.write(ino, BLOCK_SIZE, &page(i)).unwrap();
        }
        fs.truncate(ino, 2 * BLOCK_SIZE).unwrap();
        let n = 2 * ENTRIES_PER_LOG_PAGE;
        for i in 0..n {
            fs.write(ino, BLOCK_SIZE, &page(i)).unwrap();
        }
        fs.gc_inode_log(ino).unwrap();
        let fs2 = crash_mount(&fs);
        let ino2 = fs2.open("f").unwrap();
        assert_eq!(fs2.file_size(ino2).unwrap(), 2 * BLOCK_SIZE);
        let expect = [page(1), page(n - 1)].concat();
        assert_eq!(fs2.read(ino2, 0, 4 * PAGE).unwrap(), expect);
    }

    #[test]
    fn the_directory_log_is_never_collected() {
        let fs = mkfs();
        for k in 0..3 {
            fs.create(&format!("keep{k}")).unwrap();
        }
        // Create/unlink churn: two dentries a round, over two log pages.
        for i in 0..ENTRIES_PER_LOG_PAGE + 2 {
            let name = format!("tmp{i}");
            fs.create(&name).unwrap();
            fs.unlink(&name).unwrap();
        }
        assert!(fs.stat(ROOT_INO).unwrap().log_pages > 2);
        let mut names = fs.list();
        names.sort();
        assert_eq!(fs.gc_inode_log(ROOT_INO).unwrap(), 0);
        let fs2 = crash_mount(&fs);
        let mut after = fs2.list();
        after.sort();
        assert_eq!(after, names);
    }

    #[test]
    fn a_multi_entry_append_across_a_page_boundary_keeps_every_entry() {
        // Baseline mode. Data, zeros, data is three write entries; land the
        // first in a page's last slot, beside a truncate to 0 that killed
        // every other entry of the page. The append links a new page, and
        // the GC it triggers runs once all three entries are counted live.
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        for i in 0..ENTRIES_PER_LOG_PAGE - 2 {
            fs.write(ino, 0, &page(i)).unwrap();
        }
        fs.truncate(ino, 0).unwrap();
        let data = [page(7), vec![0u8; PAGE], page(8)].concat();
        fs.write(ino, 0, &data).unwrap();
        let st = fs.stat(ino).unwrap();
        assert_eq!((st.log_pages, st.log_entries_live), (2, 3));
        assert_eq!(fs.gc_inode_log(ino).unwrap(), 0);
        let fs2 = crash_mount(&fs);
        let ino2 = fs2.open("f").unwrap();
        assert_eq!(fs2.read(ino2, 0, data.len()).unwrap(), data);
    }

    /// Vetoes log GC while set, as DeNova does for entries still queued for
    /// dedup.
    struct Veto(AtomicBool);

    impl NovaHooks for Veto {
        fn on_write_committed(&self, _ino: u64, _entry_off: u64, _entry: &WriteEntry) {}

        fn on_reclaim_block(&self, _block: u64) -> ReclaimDecision {
            ReclaimDecision::Free
        }

        fn may_gc_entry(&self, _entry: &WriteEntry) -> bool {
            !self.0.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn gc_all_logs_covers_every_file() {
        // While the hook vetoes, the write path keeps every dead page; once
        // it relents, one sweep collects what each file's log held back.
        let fs = mkfs();
        let veto = Arc::new(Veto(AtomicBool::new(true)));
        fs.set_hooks(veto.clone());
        let mut inos = Vec::new();
        for f in 0..3 {
            let ino = fs.create(&format!("f{f}")).unwrap();
            for i in 0..(ENTRIES_PER_LOG_PAGE * 2) {
                fs.write(ino, 0, &page(i)).unwrap();
            }
            assert_eq!(fs.stat(ino).unwrap().log_pages, 2);
            inos.push(ino);
        }
        veto.0.store(false, Ordering::Relaxed);
        assert_eq!(fs.gc_all_logs().unwrap(), 3);
        for ino in inos {
            assert_eq!(fs.stat(ino).unwrap().log_pages, 1);
        }
    }
}
