//! File data operations: the five-step CoW write flow of Fig. 1, reads, and
//! truncate.
//!
//! A write (Fig. 1):
//! 1. allocate enough data pages (always new pages — copy-on-write), filling
//!    partial head/tail pages with the previous contents;
//! 2. append a write entry `[filepgoff, numpages]` to the inode log;
//! 3. update the inode log tail with an atomic 64-bit store;
//! 4. update the radix tree;
//! 5. reclaim the obsolete data pages (through the dedup hook, which checks
//!    FACT reference counts when DeNova is mounted).
//!
//! When a contiguous run of pages cannot be allocated, the write is split
//! into several extents/entries, all committed with a single tail update, so
//! the whole `write()` stays atomic.

use crate::entry::WriteEntry;
use crate::error::{NovaError, Result};
use crate::fs::{InodeCtx, Nova};
use crate::layout::{BLOCK_SIZE, HOLE_BLOCK, ROOT_INO};
use crate::stats::NovaStats;
use crate::tap::FsOp;
use denova_fingerprint::is_zero_page;

impl Nova {
    /// Write `data` at byte `offset` of file `ino` (copy-on-write, atomic,
    /// immediately durable).
    ///
    /// Zero-copy fast path: page-aligned spans of the caller's buffer are
    /// stored straight to the allocated extents ([`denova_pmem::PmemDevice::write_v`]);
    /// only partial head/tail pages pass through a pooled 4 KiB scratch page.
    /// All data lines are flushed as one batch and ride the log append's
    /// single pre-tail-commit fence, so a single-extent write issues exactly
    /// two fences: one covering data + log entry, one persisting the tail.
    /// The crash-consistency argument is unchanged — every data and log line
    /// is durable before the one 8-byte tail store commits the write.
    pub fn write(&self, ino: u64, offset: u64, data: &[u8]) -> Result<()> {
        if ino == ROOT_INO {
            return Err(NovaError::BadInode(ino));
        }
        if data.is_empty() {
            return Ok(());
        }
        offset
            .checked_add(data.len() as u64)
            .ok_or(NovaError::InvalidRange)?;
        let _span = self.device().metrics().span("nova.write");
        let flag = self.new_entry_flag();
        let fences_before = self.device().thread_fences();

        let committed = self.with_inode_write(ino, |ctx| {
            let first_pg = offset / BLOCK_SIZE;
            let last_pg = (offset + data.len() as u64 - 1) / BLOCK_SIZE;
            let num_pages = last_pg - first_pg + 1;
            let new_size = ctx.mem.size().max(offset + data.len() as u64);

            // Step 1: stage ONLY partial head/tail pages, merging the old
            // contents (or zeros for holes/extension) with the new bytes in
            // pooled scratch pages. Full pages are never copied.
            let head_skip = (offset - first_pg * BLOCK_SIZE) as usize;
            let tail_end = head_skip + data.len();
            let tail_fill = tail_end % BLOCK_SIZE as usize;
            let mut head_scratch = None;
            let mut tail_scratch = None;
            if head_skip != 0 {
                let mut pg = self.scratch_acquire();
                read_old_page(ctx, first_pg, &mut pg[..]);
                let head_take = (BLOCK_SIZE as usize - head_skip).min(data.len());
                pg[head_skip..head_skip + head_take].copy_from_slice(&data[..head_take]);
                head_scratch = Some(pg);
            }
            // Partial tail page: start from the old contents. When the write
            // fits a single page the head scratch above already covers it.
            if tail_fill != 0 && (num_pages > 1 || head_skip == 0) {
                let mut pg = self.scratch_acquire();
                read_old_page(ctx, last_pg, &mut pg[..]);
                pg[..tail_fill].copy_from_slice(&data[data.len() - tail_fill..]);
                tail_scratch = Some(pg);
            }
            let staged =
                (head_scratch.is_some() as u64 + tail_scratch.is_some() as u64) * BLOCK_SIZE;
            // Relative pages below `full_end` (and past the head scratch, if
            // any) are fully covered by caller bytes.
            let full_end = num_pages - tail_scratch.is_some() as u64;

            // Zero-block elision: full caller-covered pages (relative pages
            // in `[full_lo, full_end)`) that scan all-zero are mapped as
            // holes — no allocation, no data stores, no fingerprinting
            // downstream. Partial edge pages always allocate: they merge old
            // bytes, and the merge result is rarely zero anyway.
            let full_lo = head_scratch.is_some() as u64;
            let page_is_zero = |p: u64| {
                (full_lo..full_end).contains(&p) && {
                    let sb = (p * BLOCK_SIZE) as usize - head_skip;
                    is_zero_page(&data[sb..sb + BLOCK_SIZE as usize])
                }
            };
            // Carve `0..num_pages` into maximal (rel_pg, count, is_hole)
            // segments so each hole run costs one log entry.
            let mut segs: Vec<(u64, u64, bool)> = Vec::with_capacity(1);
            {
                let mut i = 0u64;
                while i < num_pages {
                    let hole = page_is_zero(i);
                    let start = i;
                    i += 1;
                    while i < num_pages && page_is_zero(i) == hole {
                        i += 1;
                    }
                    segs.push((start, i - start, hole));
                }
            }

            // Allocate extents and build the store spans: at most one scratch
            // span per edge plus one borrowed sub-slice of `data` per extent.
            let dev = self.device().clone();
            // (file_pgoff, start_block, count, hole); capacity for the
            // common single-extent case plus both scratch edges.
            let mut extents: Vec<(u64, u64, u64, bool)> = Vec::with_capacity(1);
            let mut spans: Vec<(u64, &[u8])> = Vec::with_capacity(3);
            let mut ranges: Vec<(u64, usize)> = Vec::with_capacity(1);
            let mut hole_pages = 0u64;
            for &(rel_start, count, is_hole) in &segs {
                if is_hole {
                    extents.push((first_pg + rel_start, HOLE_BLOCK, count, true));
                    hole_pages += count;
                    continue;
                }
                let mut remaining = count;
                let mut pg_cursor = first_pg + rel_start;
                while remaining > 0 {
                    let (start_block, got) = self
                        .allocator()
                        .alloc_extent(remaining)
                        .ok_or(NovaError::NoSpace)?;
                    let dst = self.layout().block_off(start_block);
                    ranges.push((dst, (got * BLOCK_SIZE) as usize));
                    let lo = pg_cursor - first_pg; // relative page range [lo, hi)
                    let hi = lo + got;
                    let mut i = lo;
                    if i == 0 {
                        if let Some(pg) = &head_scratch {
                            spans.push((dst, &pg[..]));
                            i = 1;
                        }
                    }
                    let run_hi = hi.min(full_end);
                    if i < run_hi {
                        let sb = (i * BLOCK_SIZE) as usize - head_skip;
                        let eb = (run_hi * BLOCK_SIZE) as usize - head_skip;
                        spans.push((dst + (i - lo) * BLOCK_SIZE, &data[sb..eb]));
                        i = run_hi;
                    }
                    if i < hi {
                        if let Some(pg) = &tail_scratch {
                            spans.push((dst + (i - lo) * BLOCK_SIZE, &pg[..]));
                        }
                    }
                    extents.push((pg_cursor, start_block, got, false));
                    pg_cursor += got;
                    remaining -= got;
                }
            }
            dev.write_v(&spans);
            dev.crash_point("nova::write::after_stores");
            // No flush or fence here: the data ranges are handed to the log
            // append below, which flushes them together with the entry lines
            // in one batch under its single pre-tail-commit fence.
            dev.crash_point("nova::write::after_data_copy");
            drop(spans);
            if let Some(pg) = head_scratch.take() {
                self.scratch_release(pg);
            }
            if let Some(pg) = tail_scratch.take() {
                self.scratch_release(pg);
            }
            NovaStats::add(&self.stats().bytes_staged, staged);
            NovaStats::add(&self.stats().zero_holes, hole_pages);

            // Step 2 + 3: append one entry per extent; single atomic commit.
            // Hole entries never fingerprint or dedup (`NotApplicable`).
            let txid = ctx.next_txid();
            let entries: Vec<WriteEntry> = extents
                .iter()
                .map(|&(pgoff, block, count, hole)| WriteEntry {
                    dedupe_flag: if hole {
                        crate::entry::DedupeFlag::NotApplicable
                    } else {
                        flag
                    },
                    file_pgoff: pgoff,
                    num_pages: count as u32,
                    block: if hole { 0 } else { block },
                    size_after: new_size,
                    txid,
                    hole,
                })
                .collect();
            let encoded: Vec<[u8; 64]> = entries.iter().map(|e| e.encode()).collect();
            let offs = ctx.append_with_ranges(&encoded, &ranges, "nova::write")?;

            // Step 4: radix tree update; collect obsolete pages.
            let mut obsolete = Vec::new();
            for (off, we) in offs.iter().zip(&entries) {
                obsolete.extend(ctx.apply_write_entry(*off, we));
            }
            ctx.commit_size(new_size)?;

            // Step 5: reclaim obsolete pages (RFC-checked under DeNova).
            for block in obsolete {
                ctx.reclaim_block(block);
            }
            // Tap while the inode lock is held: two writes to one file must
            // reach the replication journal in their commit order. The
            // (possibly blocking) settle runs after the lock is released.
            let pending = self.emit_op(|| FsOp::Write {
                ino,
                offset,
                data: data.to_vec(),
            });
            Ok((offs.into_iter().zip(entries).collect::<Vec<_>>(), pending))
        })?;
        let (committed, pending) = committed;
        // Fences have per-thread semantics, so this delta is exactly the
        // commit path's fence count even with concurrent writers.
        NovaStats::add(
            &self.stats().write_fences,
            self.device().thread_fences() - fences_before,
        );

        // Notify the dedup layer outside nothing — entry offsets are stable;
        // the DWQ enqueue is "extremely small compared to the time spent
        // accessing NVM" (Section IV-B1).
        let hooks = self.current_hooks();
        for (off, we) in &committed {
            hooks.on_write_committed(ino, *off, we);
        }
        Nova::settle_op(pending);
        NovaStats::add(&self.stats().writes, 1);
        NovaStats::add(&self.stats().bytes_written, data.len() as u64);
        Ok(())
    }

    /// Reference staged-copy write path: the pre-zero-copy implementation,
    /// kept verbatim (whole payload staged through a heap buffer, one
    /// flush per extent, durable size commit with its own fence) so
    /// benchmarks and property tests can compare the fast path against the
    /// historical behavior. Functionally equivalent to [`Nova::write`].
    pub fn write_staged_reference(&self, ino: u64, offset: u64, data: &[u8]) -> Result<()> {
        if ino == ROOT_INO {
            return Err(NovaError::BadInode(ino));
        }
        if data.is_empty() {
            return Ok(());
        }
        offset
            .checked_add(data.len() as u64)
            .ok_or(NovaError::InvalidRange)?;
        let _span = self.device().metrics().span("nova.write.staged");
        let flag = self.new_entry_flag();

        let committed = self.with_inode_write(ino, |ctx| {
            let first_pg = offset / BLOCK_SIZE;
            let last_pg = (offset + data.len() as u64 - 1) / BLOCK_SIZE;
            let num_pages = last_pg - first_pg + 1;
            let new_size = ctx.mem.size().max(offset + data.len() as u64);

            // Build the CoW page images in a full staging buffer.
            let mut pages = vec![0u8; (num_pages * BLOCK_SIZE) as usize];
            let head_skip = (offset - first_pg * BLOCK_SIZE) as usize;
            let tail_end = head_skip + data.len();
            if head_skip != 0 {
                read_old_page(ctx, first_pg, &mut pages[..BLOCK_SIZE as usize]);
            }
            if !tail_end.is_multiple_of(BLOCK_SIZE as usize) && (num_pages > 1 || head_skip == 0) {
                let start = ((num_pages - 1) * BLOCK_SIZE) as usize;
                read_old_page(ctx, last_pg, &mut pages[start..start + BLOCK_SIZE as usize]);
            }
            pages[head_skip..tail_end].copy_from_slice(data);

            // Allocate extents and copy the page images to the device.
            let dev = self.device().clone();
            let mut extents = Vec::new(); // (file_pgoff, start_block, count)
            let mut remaining = num_pages;
            let mut pg_cursor = first_pg;
            let mut buf_cursor = 0usize;
            while remaining > 0 {
                let (start_block, got) = self
                    .allocator()
                    .alloc_extent(remaining)
                    .ok_or(NovaError::NoSpace)?;
                let bytes = (got * BLOCK_SIZE) as usize;
                let dst = self.layout().block_off(start_block);
                dev.write(dst, &pages[buf_cursor..buf_cursor + bytes]);
                dev.flush(dst, bytes);
                extents.push((pg_cursor, start_block, got));
                pg_cursor += got;
                buf_cursor += bytes;
                remaining -= got;
            }
            dev.crash_point("nova::write::after_data_copy");
            NovaStats::add(&self.stats().bytes_staged, num_pages * BLOCK_SIZE);

            let txid = ctx.next_txid();
            let entries: Vec<WriteEntry> = extents
                .iter()
                .map(|&(pgoff, block, count)| WriteEntry {
                    dedupe_flag: flag,
                    file_pgoff: pgoff,
                    num_pages: count as u32,
                    block,
                    size_after: new_size,
                    txid,
                    hole: false,
                })
                .collect();
            let encoded: Vec<[u8; 64]> = entries.iter().map(|e| e.encode()).collect();
            let offs = ctx.append(&encoded, "nova::write")?;

            let mut obsolete = Vec::new();
            for (off, we) in offs.iter().zip(&entries) {
                obsolete.extend(ctx.apply_write_entry(*off, we));
            }
            ctx.commit_size_durable(new_size)?;

            for block in obsolete {
                ctx.reclaim_block(block);
            }
            let pending = self.emit_op(|| FsOp::Write {
                ino,
                offset,
                data: data.to_vec(),
            });
            Ok((offs.into_iter().zip(entries).collect::<Vec<_>>(), pending))
        })?;
        let (committed, pending) = committed;

        let hooks = self.current_hooks();
        for (off, we) in &committed {
            hooks.on_write_committed(ino, *off, we);
        }
        Nova::settle_op(pending);
        NovaStats::add(&self.stats().writes, 1);
        NovaStats::add(&self.stats().bytes_written, data.len() as u64);
        Ok(())
    }

    /// Read up to `len` bytes at byte `offset`. Short reads happen at EOF;
    /// holes read as zeros.
    pub fn read(&self, ino: u64, offset: u64, len: usize) -> Result<Vec<u8>> {
        if ino == ROOT_INO {
            return Err(NovaError::BadInode(ino));
        }
        let _span = self.device().metrics().span("nova.read");
        // Lock-free fast path: the closure runs against an optimistic
        // seqlock snapshot, so a racing writer can expose torn extents.
        // Every block number is therefore bounds-checked before touching
        // the device; a violation surfaces as `Corrupt` only if the seq
        // validates (a genuinely corrupt index), otherwise the attempt is
        // discarded and retried or re-run under the inode read lock.
        let total_blocks = self.layout().total_blocks;
        let out = self.with_inode_read_optimistic(ino, |mem| {
            let size = mem.size();
            if offset >= size {
                return Ok(Vec::new());
            }
            let len = len.min((size - offset) as usize);
            // Fill the buffer incrementally: runs of *physically contiguous*
            // blocks are read with a single device access, holes are
            // zero-filled. The buffer is never pre-zeroed wholesale only to
            // be overwritten by mapped bytes.
            let mut out: Vec<u8> = Vec::with_capacity(len);
            while out.len() < len {
                let abs = offset + out.len() as u64;
                let pg = abs / BLOCK_SIZE;
                let in_pg = (abs % BLOCK_SIZE) as usize;
                let left = len - out.len();
                match mem.radix.get(pg) {
                    Some(entry) if entry.block != HOLE_BLOCK => {
                        if entry.block >= total_blocks {
                            return Err(NovaError::Corrupt("extent block out of range"));
                        }
                        let mut take = (BLOCK_SIZE as usize - in_pg).min(left);
                        let mut next_pg = pg + 1;
                        let mut next_block = entry.block + 1;
                        while take < left && next_block < total_blocks {
                            match mem.radix.get(next_pg) {
                                Some(e) if e.block == next_block => {
                                    take += (BLOCK_SIZE as usize).min(left - take);
                                    next_pg += 1;
                                    next_block += 1;
                                }
                                _ => break,
                            }
                        }
                        let src = self.layout().block_off(entry.block) + in_pg as u64;
                        self.device()
                            .with_slice(src, take, |s| out.extend_from_slice(s));
                    }
                    _ => {
                        // Hole (unmapped page or elided zero page): zero
                        // exactly this page's range, nothing more.
                        let take = (BLOCK_SIZE as usize - in_pg).min(left);
                        out.resize(out.len() + take, 0);
                    }
                }
            }
            Ok(out)
        })?;
        NovaStats::add(&self.stats().reads, 1);
        NovaStats::add(&self.stats().bytes_read, out.len() as u64);
        Ok(out)
    }

    /// Truncate the file to `new_size` bytes. Shrinking reclaims whole pages
    /// beyond the boundary; growing just extends the size (the hole reads as
    /// zeros).
    pub fn truncate(&self, ino: u64, new_size: u64) -> Result<()> {
        if ino == ROOT_INO {
            return Err(NovaError::BadInode(ino));
        }
        let pending = self.with_inode_write(ino, |ctx| {
            let txid = ctx.next_txid();
            let attr = crate::entry::AttrEntry { new_size, txid }.encode();
            let off = ctx.append(&[attr], "nova::truncate")?[0];
            ctx.mem.hold_page(off);
            if new_size < ctx.mem.size() {
                let first_dead_pg = new_size.div_ceil(BLOCK_SIZE);
                let removed = ctx.mem.radix.remove_from(first_dead_pg);
                for (_, e) in &removed {
                    ctx.mem.supersede(e);
                }
                let blocks: Vec<u64> = removed
                    .iter()
                    .map(|(_, e)| e.block)
                    .filter(|&b| b != HOLE_BLOCK)
                    .collect();
                for b in blocks {
                    ctx.reclaim_block(b);
                }
            }
            ctx.mem.set_size(new_size);
            ctx.commit_size(new_size)?;
            Ok(self.emit_op(|| FsOp::Truncate {
                ino,
                size: new_size,
            }))
        })?;
        Nova::settle_op(pending);
        Ok(())
    }
}

fn read_old_page(ctx: &InodeCtx<'_>, pg: u64, buf: &mut [u8]) {
    debug_assert_eq!(buf.len(), BLOCK_SIZE as usize);
    match ctx.mem.radix.get(pg) {
        Some(entry) if entry.block != HOLE_BLOCK => {
            let src = ctx.fs().layout().block_off(entry.block);
            ctx.dev().read_into(src, buf);
        }
        _ => buf.fill(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::NovaOptions;
    use std::sync::Arc;

    fn mkfs() -> Nova {
        let dev = Arc::new(denova_pmem::PmemDevice::new(32 * 1024 * 1024));
        Nova::mkfs(
            dev,
            NovaOptions {
                num_inodes: 128,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn write_read_roundtrip_one_page() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        let data = vec![0x5Au8; 4096];
        fs.write(ino, 0, &data).unwrap();
        assert_eq!(fs.read(ino, 0, 4096).unwrap(), data);
        assert_eq!(fs.file_size(ino).unwrap(), 4096);
    }

    #[test]
    fn write_read_multi_page() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        let data: Vec<u8> = (0..BLOCK_SIZE * 5).map(|i| (i % 251) as u8).collect();
        fs.write(ino, 0, &data).unwrap();
        assert_eq!(fs.read(ino, 0, data.len()).unwrap(), data);
    }

    #[test]
    fn unaligned_write_preserves_neighbours() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, &vec![1u8; 8192]).unwrap();
        // Overwrite the middle 100 bytes spanning the page boundary.
        fs.write(ino, 4050, &[2u8; 100]).unwrap();
        let all = fs.read(ino, 0, 8192).unwrap();
        assert!(all[..4050].iter().all(|&b| b == 1));
        assert!(all[4050..4150].iter().all(|&b| b == 2));
        assert!(all[4150..].iter().all(|&b| b == 1));
    }

    #[test]
    fn small_write_within_page_preserves_rest() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, &vec![7u8; 4096]).unwrap();
        fs.write(ino, 100, b"xyz").unwrap();
        let page = fs.read(ino, 0, 4096).unwrap();
        assert!(page[..100].iter().all(|&b| b == 7));
        assert_eq!(&page[100..103], b"xyz");
        assert!(page[103..].iter().all(|&b| b == 7));
    }

    #[test]
    fn sparse_write_reads_zero_holes() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 3 * 4096, &vec![9u8; 4096]).unwrap();
        assert_eq!(fs.file_size(ino).unwrap(), 4 * 4096);
        let hole = fs.read(ino, 0, 4096).unwrap();
        assert_eq!(hole, vec![0u8; 4096]);
        let tail = fs.read(ino, 3 * 4096, 4096).unwrap();
        assert_eq!(tail, vec![9u8; 4096]);
    }

    #[test]
    fn read_past_eof_is_short() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, b"hello").unwrap();
        assert_eq!(fs.read(ino, 0, 100).unwrap(), b"hello".to_vec());
        assert_eq!(fs.read(ino, 5, 10).unwrap(), Vec::<u8>::new());
        assert_eq!(fs.read(ino, 1000, 10).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn overwrite_reclaims_cow_pages() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        let before = fs.free_blocks();
        fs.write(ino, 0, &vec![1u8; 4096]).unwrap();
        let after_first = fs.free_blocks();
        // Overwrite the same page many times: CoW must recycle, so free
        // space stays flat.
        for i in 0..20u8 {
            fs.write(ino, 0, &vec![i; 4096]).unwrap();
        }
        let after_many = fs.free_blocks();
        assert!(before > after_first);
        // One data page live, log pages grow slowly (20 entries < 1 page).
        assert!(after_first - after_many <= 1, "leaked CoW pages");
        assert_eq!(fs.read(ino, 0, 4096).unwrap(), vec![19u8; 4096]);
    }

    #[test]
    fn overwrite_changes_content_atomically() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, &vec![1u8; 8192]).unwrap();
        fs.write(ino, 0, &vec![2u8; 8192]).unwrap();
        assert_eq!(fs.read(ino, 0, 8192).unwrap(), vec![2u8; 8192]);
    }

    #[test]
    fn write_to_root_rejected() {
        let fs = mkfs();
        assert_eq!(
            fs.write(ROOT_INO, 0, b"nope"),
            Err(NovaError::BadInode(ROOT_INO))
        );
        assert_eq!(fs.read(ROOT_INO, 0, 1), Err(NovaError::BadInode(ROOT_INO)));
    }

    #[test]
    fn empty_write_is_noop() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, &[]).unwrap();
        assert_eq!(fs.file_size(ino).unwrap(), 0);
    }

    #[test]
    fn truncate_shrinks_and_reclaims() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, &vec![3u8; 4 * 4096]).unwrap();
        let before = fs.free_blocks();
        fs.truncate(ino, 4096).unwrap();
        assert_eq!(fs.file_size(ino).unwrap(), 4096);
        assert_eq!(fs.free_blocks(), before + 3);
        assert_eq!(fs.read(ino, 0, 4096).unwrap(), vec![3u8; 4096]);
        assert_eq!(fs.read(ino, 4096, 1).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn truncate_grow_reads_zeros() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, b"abc").unwrap();
        fs.truncate(ino, 10000).unwrap();
        assert_eq!(fs.file_size(ino).unwrap(), 10000);
        let out = fs.read(ino, 4096, 100).unwrap();
        assert_eq!(out, vec![0u8; 100]);
    }

    #[test]
    fn unlink_frees_all_blocks() {
        let fs = mkfs();
        let before = fs.free_blocks();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, &vec![1u8; 16 * 4096]).unwrap();
        fs.unlink("f").unwrap();
        // Everything returns except root-log growth (dentries).
        let after = fs.free_blocks();
        assert!(before - after <= 1, "before={before} after={after}");
    }

    #[test]
    fn no_space_surfaces_cleanly() {
        let dev = Arc::new(denova_pmem::PmemDevice::new(16 * 1024 * 1024));
        let fs = Nova::mkfs(
            dev,
            NovaOptions {
                num_inodes: 64,
                ..Default::default()
            },
        )
        .unwrap();
        let ino = fs.create("big").unwrap();
        let chunk = vec![1u8; 256 * 1024];
        let mut off = 0u64;
        let err = loop {
            match fs.write(ino, off, &chunk) {
                Ok(()) => off += chunk.len() as u64,
                Err(e) => break e,
            }
        };
        assert_eq!(err, NovaError::NoSpace);
        // The file system remains usable.
        assert!(fs.read(ino, 0, 4096).is_ok());
    }

    #[test]
    fn large_file_has_correct_contents() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        // 128 KB file written in one call (the paper's large-file unit).
        let data: Vec<u8> = (0..131072u32).map(|i| (i * 7 % 256) as u8).collect();
        fs.write(ino, 0, &data).unwrap();
        assert_eq!(fs.read(ino, 0, data.len()).unwrap(), data);
        // Random-offset spot checks.
        assert_eq!(
            fs.read(ino, 70000, 13).unwrap(),
            data[70000..70013].to_vec()
        );
    }

    #[test]
    fn aligned_write_stages_nothing_and_fences_twice() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        // First write pays one-off log-head allocation fences; measure the
        // steady state on the second.
        fs.write(ino, 0, &vec![1u8; 4096]).unwrap();
        let fences0 = crate::stats::NovaStats::get(&fs.stats().write_fences);
        let staged0 = crate::stats::NovaStats::get(&fs.stats().bytes_staged);
        fs.write(ino, 4096, &vec![2u8; 2 * 4096]).unwrap();
        let fences = crate::stats::NovaStats::get(&fs.stats().write_fences) - fences0;
        let staged = crate::stats::NovaStats::get(&fs.stats().bytes_staged) - staged0;
        assert_eq!(staged, 0, "aligned write must not stage any bytes");
        assert_eq!(fences, 2, "data+log fence, then tail-commit fence");
    }

    #[test]
    fn unaligned_write_stages_only_edge_pages() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, &vec![1u8; 4 * 4096]).unwrap();
        let staged0 = crate::stats::NovaStats::get(&fs.stats().bytes_staged);
        // Spans pages 0..=2 with partial head and tail: exactly two scratch
        // pages, the full middle page goes zero-copy.
        fs.write(ino, 100, &vec![2u8; 2 * 4096]).unwrap();
        let staged = crate::stats::NovaStats::get(&fs.stats().bytes_staged) - staged0;
        assert_eq!(staged, 2 * 4096);
        let all = fs.read(ino, 0, 4 * 4096).unwrap();
        assert!(all[..100].iter().all(|&b| b == 1));
        assert!(all[100..100 + 2 * 4096].iter().all(|&b| b == 2));
        assert!(all[100 + 2 * 4096..].iter().all(|&b| b == 1));
    }

    #[test]
    fn contiguous_read_coalesces_device_accesses() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        let data: Vec<u8> = (0..8 * BLOCK_SIZE).map(|i| (i % 241) as u8).collect();
        // One write call → one physically contiguous extent (fresh fs).
        fs.write(ino, 0, &data).unwrap();
        let reads0 = fs.device().stats().snapshot().reads;
        assert_eq!(fs.read(ino, 0, data.len()).unwrap(), data);
        let reads = fs.device().stats().snapshot().reads - reads0;
        assert_eq!(reads, 1, "8 contiguous pages must coalesce into one read");
    }

    #[test]
    fn fragmented_read_still_correct() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        // Write pages one by one in reverse so consecutive file pages land on
        // non-consecutive blocks (no coalescible runs).
        for pg in (0u64..6).rev() {
            fs.write(ino, pg * BLOCK_SIZE, &vec![pg as u8 + 1; 4096])
                .unwrap();
        }
        let all = fs.read(ino, 0, 6 * 4096).unwrap();
        for pg in 0..6usize {
            assert!(all[pg * 4096..(pg + 1) * 4096]
                .iter()
                .all(|&b| b == pg as u8 + 1));
        }
    }

    #[test]
    fn hole_spanning_read_zeroes_only_holes() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, &vec![5u8; 4096]).unwrap();
        fs.write(ino, 3 * 4096, &vec![6u8; 4096]).unwrap();
        let all = fs.read(ino, 2048, 3 * 4096).unwrap();
        assert!(all[..2048].iter().all(|&b| b == 5));
        assert!(all[2048..2048 + 2 * 4096].iter().all(|&b| b == 0));
        assert!(all[2048 + 2 * 4096..].iter().all(|&b| b == 6));
    }

    #[test]
    fn staged_reference_path_equivalent() {
        let fs = mkfs();
        let a = fs.create("a").unwrap();
        let b = fs.create("b").unwrap();
        for &(off, len) in &[(0u64, 4096usize), (5000, 100), (4096, 3 * 4096 + 17)] {
            let data: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
            fs.write(a, off, &data).unwrap();
            fs.write_staged_reference(b, off, &data).unwrap();
        }
        assert_eq!(fs.file_size(a).unwrap(), fs.file_size(b).unwrap());
        let sz = fs.file_size(a).unwrap() as usize;
        assert_eq!(fs.read(a, 0, sz).unwrap(), fs.read(b, 0, sz).unwrap());
    }

    #[test]
    fn crash_after_stores_drops_unflushed_spans() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, &vec![1u8; 4096]).unwrap();
        let dev = fs.device().clone();
        dev.crash_points().arm("nova::write::after_stores", 0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fs.write(ino, 0, &vec![2u8; 4096]).unwrap();
        }))
        .unwrap_err();
        assert!(err.downcast_ref::<denova_pmem::SimulatedCrash>().is_some());
        // The vectored stores were never flushed: remount sees the old data.
        let fs2 = Nova::mount(
            Arc::new(dev.crash_clone(denova_pmem::CrashMode::Strict)),
            NovaOptions::default(),
        )
        .unwrap();
        let ino2 = fs2.open("f").unwrap();
        assert_eq!(fs2.read(ino2, 0, 4096).unwrap(), vec![1u8; 4096]);
    }

    #[test]
    fn all_zero_write_consumes_no_data_pages() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        let before = fs.free_blocks();
        fs.write(ino, 0, &vec![0u8; 16 * 4096]).unwrap();
        // Only the log page was consumed — every data page became a hole.
        assert_eq!(before - fs.free_blocks(), 1);
        assert_eq!(fs.stats().zero_holes.get(), 16);
        assert_eq!(fs.read(ino, 0, 16 * 4096).unwrap(), vec![0u8; 16 * 4096]);
        assert_eq!(fs.file_size(ino).unwrap(), 16 * 4096);
    }

    #[test]
    fn mixed_zero_and_data_pages_elide_only_zeros() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        // Pages: data, zero, zero, data, zero.
        let mut data = vec![0u8; 5 * 4096];
        data[..4096].fill(1);
        data[3 * 4096..4 * 4096].fill(2);
        let before = fs.free_blocks();
        fs.write(ino, 0, &data).unwrap();
        // 2 data pages + 1 log page.
        assert_eq!(before - fs.free_blocks(), 3);
        assert_eq!(fs.stats().zero_holes.get(), 3);
        assert_eq!(fs.read(ino, 0, data.len()).unwrap(), data);
    }

    #[test]
    fn partial_edge_pages_are_never_elided() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        // Unaligned all-zero write: the head and tail pages are partial, so
        // they must materialize (they merge with pre-existing bytes); only
        // the fully-covered middle page becomes a hole.
        fs.write(ino, 100, &vec![0u8; 2 * 4096]).unwrap();
        assert_eq!(fs.stats().zero_holes.get(), 1);
        assert_eq!(
            fs.read(ino, 0, 2 * 4096 + 100).unwrap(),
            vec![0u8; 2 * 4096 + 100]
        );
    }

    #[test]
    fn overwriting_a_hole_with_data_works() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, &vec![0u8; 4 * 4096]).unwrap();
        fs.write(ino, 4096, &vec![7u8; 4096]).unwrap();
        let mut expect = vec![0u8; 4 * 4096];
        expect[4096..8192].fill(7);
        assert_eq!(fs.read(ino, 0, expect.len()).unwrap(), expect);
    }

    #[test]
    fn overwriting_data_with_zeros_reclaims_pages() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        fs.write(ino, 0, &vec![3u8; 4 * 4096]).unwrap();
        let with_data = fs.free_blocks();
        fs.write(ino, 0, &vec![0u8; 4 * 4096]).unwrap();
        // The four CoW data pages came back; one more log... the second
        // entry fits the same log page, so net gain is exactly 4.
        assert_eq!(fs.free_blocks(), with_data + 4);
        assert_eq!(fs.read(ino, 0, 4 * 4096).unwrap(), vec![0u8; 4 * 4096]);
    }

    #[test]
    fn holes_survive_remount() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        let mut data = vec![0u8; 3 * 4096];
        data[2 * 4096..].fill(5);
        fs.write(ino, 0, &data).unwrap();
        let dev = fs.device().clone();
        let fs2 = Nova::mount(
            Arc::new(dev.crash_clone(denova_pmem::CrashMode::Strict)),
            NovaOptions::default(),
        )
        .unwrap();
        let ino2 = fs2.open("f").unwrap();
        assert_eq!(fs2.read(ino2, 0, data.len()).unwrap(), data);
        assert_eq!(fs2.file_size(ino2).unwrap(), 3 * 4096);
    }

    #[test]
    fn truncate_across_holes_reclaims_only_data() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        let mut data = vec![0u8; 4 * 4096];
        data[..4096].fill(9);
        fs.write(ino, 0, &data).unwrap();
        fs.truncate(ino, 4096).unwrap();
        assert_eq!(fs.read(ino, 0, 4096).unwrap(), vec![9u8; 4096]);
        fs.truncate(ino, 0).unwrap();
        assert_eq!(fs.file_size(ino).unwrap(), 0);
    }

    #[test]
    fn fsck_clean_with_holes() {
        let fs = mkfs();
        let ino = fs.create("f").unwrap();
        let mut data = vec![0u8; 6 * 4096];
        data[4096..2 * 4096].fill(1);
        fs.write(ino, 0, &data).unwrap();
        let report = crate::fsck::check(&fs, true).unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
    }

    #[test]
    fn concurrent_writers_to_distinct_files() {
        let fs = Arc::new(mkfs());
        let mut handles = Vec::new();
        for t in 0..4 {
            let fs = fs.clone();
            handles.push(std::thread::spawn(move || {
                let ino = fs.create(&format!("t{t}")).unwrap();
                for i in 0..10u8 {
                    fs.write(ino, (i as u64) * 4096, &vec![t as u8 * 16 + i; 4096])
                        .unwrap();
                }
                ino
            }));
        }
        let inos: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (t, &ino) in inos.iter().enumerate() {
            for i in 0..10u8 {
                let page = fs.read(ino, (i as u64) * 4096, 4096).unwrap();
                assert_eq!(page, vec![t as u8 * 16 + i; 4096]);
            }
        }
    }
}
