//! Per-inode logs.
//!
//! A log is a linked list of 4 KB log pages (the final cache line of each
//! page is a footer holding the next-page link). Entries are appended at the
//! tail, persisted, and then committed with a single atomic 64-bit store to
//! the inode's tail pointer — the paper's Fig. 1 steps ②–③. A multi-entry
//! write appends every entry first and commits once, making the whole
//! operation atomic.

use crate::alloc::Allocator;
use crate::entry::{decode, LogEntry};
use crate::error::{NovaError, Result};
use crate::inode::InodeTable;
use crate::layout::{Layout, BLOCK_SIZE, LOG_ENTRY_SIZE, LOG_PAGE_PAYLOAD};
use denova_pmem::PmemDevice;

/// Byte offset of the next-page link within a log page.
const FOOTER_NEXT: u64 = LOG_PAGE_PAYLOAD;

/// In-DRAM mirror of an inode's log position. The committed tail lives in
/// the persistent inode; this mirror avoids a PM read per append.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogPosition {
    /// First log page block (0 = no log yet).
    pub head: u64,
    /// Device byte offset of the next append position (0 = no log yet).
    pub tail: u64,
}

/// Read the next-page link of the log page at `page_block`.
pub fn next_page(dev: &PmemDevice, layout: &Layout, page_block: u64) -> u64 {
    dev.read_u64(layout.block_off(page_block) + FOOTER_NEXT)
}

/// The next-page link of a log page already read into `page`.
pub(crate) fn footer_of(page: &[u8; BLOCK_SIZE as usize]) -> u64 {
    let at = FOOTER_NEXT as usize;
    u64::from_le_bytes(page[at..at + 8].try_into().unwrap())
}

/// Whether `block` lies in the data area, where every log page is carved
/// from. A chain walk checks each link against this before reading: a
/// footer of garbage (a corrupt image, or a page GC freed under a lock-free
/// reader and reused as data) ends the walk instead of reading off the
/// device.
fn is_log_block(layout: &Layout, block: u64) -> bool {
    (layout.data_start..layout.total_blocks).contains(&block)
}

/// Link `page_block`'s footer to `next_block` and persist.
fn link_page(dev: &PmemDevice, layout: &Layout, page_block: u64, next_block: u64) {
    let off = layout.block_off(page_block) + FOOTER_NEXT;
    dev.write_u64(off, next_block);
    dev.persist(off, 8);
}

/// Allocate a fresh log page, clearing only its footer (the next-page
/// link). Entry slots need no zeroing: iteration is bounded by the
/// committed tail, and every entry carries a checksum, so stale bytes from
/// the page's previous life are never interpreted as entries. Zeroing the
/// whole page would cost a full 64-line flush per page — per *file* for the
/// small-file workload.
fn alloc_log_page(dev: &PmemDevice, layout: &Layout, alloc: &Allocator) -> Result<u64> {
    let block = alloc.alloc_one().ok_or(NovaError::NoSpace)?;
    let footer = layout.block_off(block) + LOG_PAGE_PAYLOAD;
    dev.memset(footer, 64, 0);
    dev.persist(footer, 64);
    Ok(block)
}

/// Append `entries` to `ino`'s log and commit the tail atomically.
///
/// Every entry is persisted before the single tail commit, so the whole
/// append is atomic: a crash before the commit leaves the entries
/// unreachable (beyond the tail); a crash after leaves them all visible.
/// Returns the device byte offset of each appended entry.
///
/// `cp` prefixes the crash points fired along the way, letting callers
/// distinguish e.g. a crash in a foreground write from one in the dedup
/// daemon's append (they recover differently).
#[allow(clippy::too_many_arguments)]
pub fn append(
    dev: &PmemDevice,
    layout: &Layout,
    alloc: &Allocator,
    table: &InodeTable<'_>,
    ino: u64,
    pos: &mut LogPosition,
    entries: &[[u8; 64]],
    cp: &str,
) -> Result<Vec<u64>> {
    append_with_ranges(dev, layout, alloc, table, ino, pos, entries, &[], cp)
}

/// [`append`], with caller-supplied `data_ranges` folded into the same
/// flush + fence that persists the log entries. A zero-copy write stores its
/// data pages directly and hands the dirty ranges here, so data and entries
/// ride one `clwb` batch and one `sfence` instead of two — the fence-batching
/// half of the foreground fast path.
#[allow(clippy::too_many_arguments)]
pub fn append_with_ranges(
    dev: &PmemDevice,
    layout: &Layout,
    alloc: &Allocator,
    table: &InodeTable<'_>,
    ino: u64,
    pos: &mut LogPosition,
    entries: &[[u8; 64]],
    data_ranges: &[(u64, usize)],
    cp: &str,
) -> Result<Vec<u64>> {
    if entries.is_empty() {
        return Ok(Vec::new());
    }
    // First append ever: allocate the head page and persist the head link.
    if pos.head == 0 {
        let head = alloc_log_page(dev, layout, alloc)?;
        table.set_log_head(ino, head)?;
        pos.head = head;
        pos.tail = layout.block_off(head);
    } else if pos.tail == 0 {
        // A first append that crashed between persisting the head link and
        // committing the tail: recovery finds a head page and no tail. The
        // log is empty and starts at that page (a tail of 0 is "no log
        // yet", never an offset to write at — that is the superblock).
        pos.tail = layout.block_off(pos.head);
    }
    let mut offs = Vec::with_capacity(entries.len());
    let mut ranges: Vec<(u64, usize)> = Vec::with_capacity(data_ranges.len() + 1);
    ranges.extend_from_slice(data_ranges);
    let mut tail = pos.tail;
    for bytes in entries {
        // Page full? Allocate, link, jump.
        if tail % BLOCK_SIZE >= LOG_PAGE_PAYLOAD {
            let page = alloc_log_page(dev, layout, alloc)?;
            link_page(dev, layout, tail / BLOCK_SIZE, page);
            tail = layout.block_off(page);
        }
        dev.write(tail, bytes);
        // Contiguous entries coalesce into one flush range.
        match ranges.last_mut() {
            Some((off, len)) if *off + *len as u64 == tail => *len += LOG_ENTRY_SIZE as usize,
            _ => ranges.push((tail, LOG_ENTRY_SIZE as usize)),
        }
        offs.push(tail);
        tail += LOG_ENTRY_SIZE;
    }
    // One flush batch + one fence covers the caller's data and every entry.
    dev.flush_ranges(&ranges);
    dev.fence();
    if dev.crash_points().enabled() {
        dev.crash_point(&format!("{cp}::before_tail_commit"));
    }
    table.commit_log_tail(ino, tail)?;
    if dev.crash_points().enabled() {
        dev.crash_point(&format!("{cp}::after_tail_commit"));
    }
    pos.tail = tail;
    dev.metrics()
        .counter("nova.log.entries_appended")
        .add(entries.len() as u64);
    Ok(offs)
}

/// Iterator over the committed entries of a log.
///
/// The walk is streaming: each log page is fetched with **one** block-sized
/// device read and every entry, checksum and all, is decoded from that
/// buffer — the footer link to the next page included. Mount-time recovery
/// and fsck therefore pay one device operation per log page, the unit the
/// data read path pays, instead of one per 64 B entry. Bytes at or beyond
/// the committed tail are never decoded.
pub struct LogIter<'a> {
    dev: &'a PmemDevice,
    layout: &'a Layout,
    head: u64,
    cursor: u64,
    tail: u64,
    /// The log page named by `pages.last()`.
    page: [u8; BLOCK_SIZE as usize],
    /// Blocks of the pages read so far, in chain order.
    pages: Vec<u64>,
}

impl<'a> LogIter<'a> {
    /// Iterate `[head, tail)`. `head_block == 0` or `tail == 0` yields an
    /// empty iterator (no log yet).
    pub fn new(dev: &'a PmemDevice, layout: &'a Layout, head_block: u64, tail: u64) -> Self {
        let cursor = if head_block == 0 || tail == 0 {
            tail
        } else {
            layout.block_off(head_block)
        };
        LogIter {
            dev,
            layout,
            head: head_block,
            cursor,
            tail,
            page: [0u8; BLOCK_SIZE as usize],
            pages: Vec::new(),
        }
    }

    /// Fetch log page `block` into the buffer: the one device read the page
    /// costs. `false` when the link is outside the data area or the chain
    /// has outgrown it (a corrupt cycle must not hang recovery).
    fn load(&mut self, block: u64) -> bool {
        if !is_log_block(self.layout, block) || self.pages.len() as u64 > self.layout.total_blocks {
            return false;
        }
        self.dev
            .read_into(self.layout.block_off(block), &mut self.page);
        self.pages.push(block);
        true
    }

    /// The next-page link of the buffered page.
    fn footer(&self) -> u64 {
        footer_of(&self.page)
    }

    /// The blocks of every page in the chain, in chain order: the pages the
    /// walk read, plus whatever is linked behind the tail's page (an append
    /// that crashed between linking a fresh page and committing its tail
    /// leaves one). Call once the entries are consumed; the pages behind the
    /// tail cost one device read each, like the rest.
    pub fn into_pages(mut self) -> Vec<u64> {
        let mut next = if self.pages.is_empty() {
            self.head
        } else {
            self.footer()
        };
        while next != 0 && self.load(next) {
            next = self.footer();
        }
        self.pages
    }
}

impl Iterator for LogIter<'_> {
    /// `(entry device offset, decoded entry)`.
    type Item = Result<(u64, LogEntry)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.cursor == self.tail {
                return None;
            }
            // The cursor only moves through buffered pages, so at the end of
            // a page's payload the footer link is already in DRAM.
            let next = if self.pages.is_empty() {
                self.head
            } else if self.cursor % BLOCK_SIZE >= LOG_PAGE_PAYLOAD {
                self.footer()
            } else {
                let off = self.cursor;
                self.cursor += LOG_ENTRY_SIZE;
                let at = (off % BLOCK_SIZE) as usize;
                let bytes: &[u8; 64] = self.page[at..at + 64].try_into().unwrap();
                return Some(decode(bytes).map(|e| (off, e)));
            };
            if next == 0 {
                return Some(Err(NovaError::Corrupt("log chain ends before tail")));
            }
            if !self.load(next) {
                return Some(Err(NovaError::Corrupt("log chain link is not a log page")));
            }
            self.cursor = self.layout.block_off(next);
        }
    }
}

/// Collect the blocks of every page in a log chain starting at `head_block`.
/// The walk stops at the first link outside the data area, so it is safe
/// on a chain that changes under it: the lock-free `stat` runs it while GC
/// may free pages, and a freed page reused as data hands it a garbage
/// footer.
pub fn log_pages(dev: &PmemDevice, layout: &Layout, head_block: u64) -> Vec<u64> {
    let mut pages = Vec::new();
    let mut cur = head_block;
    while is_log_block(layout, cur) {
        pages.push(cur);
        cur = next_page(dev, layout, cur);
        if pages.len() as u64 > layout.total_blocks {
            // Defensive: a corrupt cycle must not hang recovery.
            break;
        }
    }
    pages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{DedupeFlag, WriteEntry};
    use crate::layout::ENTRIES_PER_LOG_PAGE;

    fn setup() -> (PmemDevice, Layout) {
        let dev = PmemDevice::new(16 * 1024 * 1024);
        let layout = Layout::compute(dev.size() as u64, 64, 2);
        (dev, layout)
    }

    fn we(n: u64) -> [u8; 64] {
        WriteEntry {
            dedupe_flag: DedupeFlag::Needed,
            file_pgoff: n,
            num_pages: 1,
            block: 1000 + n,
            size_after: (n + 1) * BLOCK_SIZE,
            txid: n,
            hole: false,
        }
        .encode()
    }

    fn append_all(
        dev: &PmemDevice,
        layout: &Layout,
        alloc: &Allocator,
        ino: u64,
        pos: &mut LogPosition,
        n: u64,
    ) -> Vec<u64> {
        let table = InodeTable::new(dev, layout);
        let entries: Vec<[u8; 64]> = (0..n).map(we).collect();
        append(dev, layout, alloc, &table, ino, pos, &entries, "test").unwrap()
    }

    #[test]
    fn append_and_iterate_single_page() {
        let (dev, layout) = setup();
        let alloc = Allocator::new(1, layout.data_start, layout.data_blocks());
        let table = InodeTable::new(&dev, &layout);
        table.init(2, false).unwrap();
        let mut pos = LogPosition::default();
        let offs = append_all(&dev, &layout, &alloc, 2, &mut pos, 5);
        assert_eq!(offs.len(), 5);
        let got: Vec<_> = LogIter::new(&dev, &layout, pos.head, pos.tail)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got.len(), 5);
        for (i, (off, e)) in got.iter().enumerate() {
            assert_eq!(*off, offs[i]);
            match e {
                LogEntry::Write(w) => assert_eq!(w.file_pgoff, i as u64),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn log_spills_across_pages() {
        let (dev, layout) = setup();
        let alloc = Allocator::new(1, layout.data_start, layout.data_blocks());
        let table = InodeTable::new(&dev, &layout);
        table.init(2, false).unwrap();
        let mut pos = LogPosition::default();
        let n = ENTRIES_PER_LOG_PAGE * 2 + 5;
        append_all(&dev, &layout, &alloc, 2, &mut pos, n);
        let count = LogIter::new(&dev, &layout, pos.head, pos.tail)
            .collect::<crate::error::Result<Vec<_>>>()
            .unwrap()
            .len();
        assert_eq!(count as u64, n);
        assert_eq!(log_pages(&dev, &layout, pos.head).len(), 3);
    }

    #[test]
    fn committed_tail_matches_inode() {
        let (dev, layout) = setup();
        let alloc = Allocator::new(1, layout.data_start, layout.data_blocks());
        let table = InodeTable::new(&dev, &layout);
        table.init(2, false).unwrap();
        let mut pos = LogPosition::default();
        append_all(&dev, &layout, &alloc, 2, &mut pos, 3);
        assert_eq!(table.log_tail(2).unwrap(), pos.tail);
        assert_eq!(table.read(2).unwrap().log_head, pos.head);
    }

    #[test]
    fn crash_before_commit_hides_entries() {
        let (dev, layout) = setup();
        let alloc = Allocator::new(1, layout.data_start, layout.data_blocks());
        let table = InodeTable::new(&dev, &layout);
        table.init(2, false).unwrap();
        let mut pos = LogPosition::default();
        append_all(&dev, &layout, &alloc, 2, &mut pos, 2);

        dev.crash_points().arm("test::before_tail_commit", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let entries = [we(10)];
            let mut p = pos;
            append(&dev, &layout, &alloc, &table, 2, &mut p, &entries, "test").unwrap();
        }));
        assert!(r.is_err());
        // Post-crash: the committed tail still shows only the first two
        // entries; iteration from the persistent tail sees exactly them.
        let tail = table.log_tail(2).unwrap();
        assert_eq!(tail, pos.tail);
        let n = LogIter::new(&dev, &layout, pos.head, tail)
            .collect::<crate::error::Result<Vec<_>>>()
            .unwrap()
            .len();
        assert_eq!(n, 2);
    }

    #[test]
    fn crash_after_commit_exposes_entries() {
        let (dev, layout) = setup();
        let alloc = Allocator::new(1, layout.data_start, layout.data_blocks());
        let table = InodeTable::new(&dev, &layout);
        table.init(2, false).unwrap();
        let pos = LogPosition::default();

        dev.crash_points().arm("test::after_tail_commit", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let entries = [we(0), we(1)];
            let mut p = pos;
            append(&dev, &layout, &alloc, &table, 2, &mut p, &entries, "test").unwrap();
        }));
        assert!(r.is_err());
        let head = table.read(2).unwrap().log_head;
        let tail = table.log_tail(2).unwrap();
        let n = LogIter::new(&dev, &layout, head, tail)
            .collect::<crate::error::Result<Vec<_>>>()
            .unwrap()
            .len();
        assert_eq!(n, 2);
        let _ = pos;
    }

    #[test]
    fn empty_log_iterates_nothing() {
        let (dev, layout) = setup();
        assert_eq!(LogIter::new(&dev, &layout, 0, 0).count(), 0);
    }

    #[test]
    fn multi_entry_append_is_atomic_across_page_boundary() {
        // Fill a page to one entry short of full, then append 3 entries that
        // straddle the boundary and crash before the commit: none of the 3
        // may be visible.
        let (dev, layout) = setup();
        let alloc = Allocator::new(1, layout.data_start, layout.data_blocks());
        let table = InodeTable::new(&dev, &layout);
        table.init(2, false).unwrap();
        let mut pos = LogPosition::default();
        append_all(&dev, &layout, &alloc, 2, &mut pos, ENTRIES_PER_LOG_PAGE - 1);

        dev.crash_points().arm("test::before_tail_commit", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let entries = [we(100), we(101), we(102)];
            let mut p = pos;
            append(&dev, &layout, &alloc, &table, 2, &mut p, &entries, "test").unwrap();
        }));
        assert!(r.is_err());
        let tail = table.log_tail(2).unwrap();
        let visible = LogIter::new(&dev, &layout, pos.head, tail)
            .collect::<crate::error::Result<Vec<_>>>()
            .unwrap()
            .len();
        assert_eq!(visible as u64, ENTRIES_PER_LOG_PAGE - 1);
    }

    #[test]
    fn a_footer_aimed_off_the_data_area_ends_the_chain_walk() {
        let (dev, layout) = setup();
        let alloc = Allocator::new(1, layout.data_start, layout.data_blocks());
        InodeTable::new(&dev, &layout).init(2, false).unwrap();
        let mut pos = LogPosition::default();
        append_all(&dev, &layout, &alloc, 2, &mut pos, ENTRIES_PER_LOG_PAGE + 1);
        let second = next_page(&dev, &layout, pos.head);
        // What a lock-free `stat` can meet when GC frees the second page
        // and its block is reused as data: garbage in the footer.
        for garbage in [u64::MAX, layout.total_blocks, 1] {
            dev.write_u64(layout.block_off(second) + FOOTER_NEXT, garbage);
            assert_eq!(log_pages(&dev, &layout, pos.head), vec![pos.head, second]);
        }
    }

    #[test]
    fn append_nothing_is_noop() {
        let (dev, layout) = setup();
        let alloc = Allocator::new(1, layout.data_start, layout.data_blocks());
        let table = InodeTable::new(&dev, &layout);
        table.init(2, false).unwrap();
        let mut pos = LogPosition::default();
        let offs = append(&dev, &layout, &alloc, &table, 2, &mut pos, &[], "test").unwrap();
        assert!(offs.is_empty());
        assert_eq!(pos, LogPosition::default());
    }
}
