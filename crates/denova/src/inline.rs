//! DeNova-Inline: inline deduplication in the foreground write path.
//!
//! This is the paper's *baseline to beat*, "designed by closely following the
//! NVDedup methodology for the NOVA file system" (Section V-A): chunking,
//! SHA-1 fingerprinting, duplicate lookup, dedup-metadata update, and
//! unique-chunk storage all happen inside the critical write path. Section
//! III's model predicts — and Fig. 8 confirms — that on an ultra-low-latency
//! device this loses to plain NOVA at *every* duplicate ratio, because
//! `T_f ≫ T_w` (Eq. 1): the fingerprint cost dwarfs the write it saves.
//!
//! The consistency protocol is the same count-based one the offline path
//! uses (UC reserve → atomic tail commit → UC→RFC transfer), so crash
//! recovery is shared.

use crate::fact::{Count, Fact};
use denova_fingerprint::is_zero_page;
use denova_nova::{
    DedupeFlag, FsOp, Nova, NovaError, Result, WriteEntry, BLOCK_SIZE, HOLE_BLOCK, ROOT_INO,
};
use std::time::Instant;

/// Write `data` at `offset` of `ino`, deduplicating inline.
pub fn write_inline(nova: &Nova, fact: &Fact, ino: u64, offset: u64, data: &[u8]) -> Result<()> {
    if ino == ROOT_INO {
        return Err(NovaError::BadInode(ino));
    }
    if data.is_empty() {
        return Ok(());
    }
    offset
        .checked_add(data.len() as u64)
        .ok_or(NovaError::InvalidRange)?;
    let stats = fact.stats().clone();
    let dev = nova.device().clone();
    let layout = *nova.layout();
    let t_start = Instant::now();
    let mut fp_time = std::time::Duration::ZERO;

    let result = nova.with_inode_write(ino, |ctx| {
        let first_pg = offset / BLOCK_SIZE;
        let last_pg = (offset + data.len() as u64 - 1) / BLOCK_SIZE;
        let num_pages = last_pg - first_pg + 1;
        let new_size = ctx.mem.size().max(offset + data.len() as u64);

        // Build the CoW page images (identical to the plain write path).
        let mut pages = vec![0u8; (num_pages * BLOCK_SIZE) as usize];
        let head_skip = (offset - first_pg * BLOCK_SIZE) as usize;
        let tail_end = head_skip + data.len();
        let read_old = |pg: u64, buf: &mut [u8]| match ctx.mem.radix.get(pg) {
            Some(e) if e.block != HOLE_BLOCK => {
                dev.read_into(layout.block_off(e.block), buf);
            }
            _ => buf.fill(0),
        };
        if head_skip != 0 {
            read_old(first_pg, &mut pages[..BLOCK_SIZE as usize]);
        }
        if !tail_end.is_multiple_of(BLOCK_SIZE as usize) && (num_pages > 1 || head_skip == 0) {
            let start = ((num_pages - 1) * BLOCK_SIZE) as usize;
            read_old(last_pg, &mut pages[start..start + BLOCK_SIZE as usize]);
        }
        pages[head_skip..tail_end].copy_from_slice(data);

        // Per page: fingerprint, look up, and either point at the canonical
        // block (duplicate) or allocate + store (unique). This is the
        // T_f-per-chunk cost that sits squarely on the critical path.
        let txid = ctx.next_txid();
        let mut entries: Vec<WriteEntry> = Vec::with_capacity(num_pages as usize);
        let mut reservations: Vec<u64> = Vec::with_capacity(num_pages as usize);
        for i in 0..num_pages {
            let image = &pages[(i * BLOCK_SIZE) as usize..((i + 1) * BLOCK_SIZE) as usize];
            // Zero-block elision: an all-zero page image maps as a hole —
            // no fingerprint, no FACT traffic, no allocation. Consecutive
            // holes fold into the previous hole entry's run.
            if is_zero_page(image) {
                nova.stats().zero_holes.add(1);
                match entries.last_mut() {
                    Some(prev)
                        if prev.hole && prev.file_pgoff + prev.num_pages as u64 == first_pg + i =>
                    {
                        prev.num_pages += 1;
                    }
                    _ => entries.push(WriteEntry {
                        dedupe_flag: DedupeFlag::NotApplicable,
                        file_pgoff: first_pg + i,
                        num_pages: 1,
                        block: 0,
                        size_after: new_size,
                        txid,
                        hole: true,
                    }),
                }
                continue;
            }
            let t_fp = Instant::now();
            let fp = fact.fingerprint(image);
            fp_time += t_fp.elapsed();

            // Peek first so we only allocate for unique chunks.
            let hit = loop {
                match fact.reserve_existing(&fp) {
                    // A run anchor stands for its whole run, but inline
                    // writes share one page at a time: give the reservation
                    // back, split the run into per-page records, and reserve
                    // again so the count moves on this block only.
                    Some((idx, e)) if e.run_pages > 1 => {
                        fact.release(e.block, Count::Uc);
                        fact.demote_run(idx)?;
                    }
                    hit => break hit,
                }
            };
            let (idx, block, duplicate) = match hit {
                Some((idx, e)) => (idx, e.block, true),
                None => {
                    let block = nova
                        .allocator()
                        .alloc_extent(1)
                        .ok_or(NovaError::NoSpace)?
                        .0;
                    let dst = layout.block_off(block);
                    dev.write(dst, image);
                    dev.flush(dst, BLOCK_SIZE as usize);
                    let (idx, e) = fact.reserve_or_insert(&fp, block)?;
                    if e.block != block {
                        // Another writer registered this fingerprint between
                        // our peek and the locked insert: point at their
                        // canonical block and return ours.
                        nova.allocator().free_range(block, 1);
                        (idx, e.block, true)
                    } else {
                        (idx, block, false)
                    }
                }
            };
            reservations.push(idx);
            stats.record_page(duplicate);
            entries.push(WriteEntry {
                dedupe_flag: DedupeFlag::Complete,
                file_pgoff: first_pg + i,
                num_pages: 1,
                block,
                size_after: new_size,
                txid,
                hole: false,
            });
        }

        // One atomic tail commit covers every page of this write.
        let encoded: Vec<[u8; 64]> = entries.iter().map(|e| e.encode()).collect();
        let offs = ctx.append(&encoded, "denova::inline")?;

        // Fold into the index; reclaim superseded blocks (RFC-checked).
        let mut obsolete = Vec::new();
        for (off, we) in offs.iter().zip(&entries) {
            obsolete.extend(ctx.apply_write_entry(*off, we));
        }
        ctx.commit_size(new_size)?;
        for idx in &reservations {
            fact.commit_uc_to_rfc(*idx);
        }
        for block in obsolete {
            ctx.reclaim_block(block);
        }
        // Replication tap: inline dedup is an alternate commit path, so it
        // must report its writes just like the plain path does — a primary
        // mounted in Inline mode would otherwise ship no file data.
        Ok(nova.emit_op(|| FsOp::Write {
            ino,
            offset,
            data: data.to_vec(),
        }))
    });

    stats.record_fingerprint_time(fp_time);
    stats.record_other_ops_time(t_start.elapsed().saturating_sub(fp_time));
    let pending = result?;
    Nova::settle_op(pending);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reclaim::DenovaHooks;
    use crate::stats::DedupStats;
    use denova_fingerprint::Fingerprint;
    use denova_nova::NovaOptions;
    use std::sync::Arc;

    fn setup() -> (Arc<Nova>, Arc<Fact>) {
        let dev = Arc::new(denova_pmem::PmemDevice::new(32 * 1024 * 1024));
        let nova = Arc::new(
            Nova::mkfs(
                dev.clone(),
                NovaOptions {
                    num_inodes: 128,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let stats = Arc::new(DedupStats::default());
        let fact = Arc::new(Fact::new(dev, *nova.layout(), stats.clone()));
        let dwq = Arc::new(crate::dwq::Dwq::new(stats));
        nova.set_hooks(Arc::new(DenovaHooks::new(fact.clone(), dwq, false)));
        (nova, fact)
    }

    #[test]
    fn inline_never_stores_duplicate_pages() {
        let (nova, fact) = setup();
        let data = vec![0xEEu8; 4096];
        let a = nova.create("a").unwrap();
        let free0 = nova.free_blocks();
        write_inline(&nova, &fact, a, 0, &data).unwrap();
        let after_first = nova.free_blocks();
        let b = nova.create("b").unwrap();
        write_inline(&nova, &fact, b, 0, &data).unwrap();
        let after_second = nova.free_blocks();
        // First write: 1 data page + 1 log page. Second: at most 1 log page,
        // zero data pages.
        assert_eq!(free0 - after_first, 2);
        assert!(after_first - after_second <= 1);
        assert_eq!(nova.read(b, 0, 4096).unwrap(), data);
        let (idx, _) = fact.lookup(&Fingerprint::of(&data)).unwrap();
        assert_eq!(fact.counters(idx), (2, 0));
    }

    #[test]
    fn inline_multi_page_mixed_dup_unique() {
        let (nova, fact) = setup();
        let mut data = vec![0u8; 4 * 4096];
        data[..4096].fill(1);
        data[4096..8192].fill(2);
        data[8192..12288].fill(1); // dup of page 0
        data[12288..].fill(3);
        let a = nova.create("a").unwrap();
        write_inline(&nova, &fact, a, 0, &data).unwrap();
        assert_eq!(nova.read(a, 0, data.len()).unwrap(), data);
        assert_eq!(fact.stats().duplicate_pages(), 1);
        assert_eq!(fact.stats().unique_pages(), 3);
        let (idx, _) = fact.lookup(&Fingerprint::of(&data[..4096])).unwrap();
        assert_eq!(fact.counters(idx), (2, 0));
    }

    #[test]
    fn inline_overwrite_releases_references() {
        let (nova, fact) = setup();
        let data = vec![9u8; 4096];
        let a = nova.create("a").unwrap();
        let b = nova.create("b").unwrap();
        write_inline(&nova, &fact, a, 0, &data).unwrap();
        write_inline(&nova, &fact, b, 0, &data).unwrap();
        // Overwrite both copies: the canonical block must free on the last.
        write_inline(&nova, &fact, a, 0, &vec![1u8; 4096]).unwrap();
        assert!(fact.lookup(&Fingerprint::of(&data)).is_some());
        write_inline(&nova, &fact, b, 0, &vec![2u8; 4096]).unwrap();
        assert!(fact.lookup(&Fingerprint::of(&data)).is_none());
        assert_eq!(nova.read(a, 0, 4096).unwrap(), vec![1u8; 4096]);
        assert_eq!(nova.read(b, 0, 4096).unwrap(), vec![2u8; 4096]);
    }

    #[test]
    fn inline_unaligned_write_correct() {
        let (nova, fact) = setup();
        let a = nova.create("a").unwrap();
        write_inline(&nova, &fact, a, 0, &vec![5u8; 8192]).unwrap();
        write_inline(&nova, &fact, a, 4000, &[6u8; 200]).unwrap();
        let all = nova.read(a, 0, 8192).unwrap();
        assert!(all[..4000].iter().all(|&b| b == 5));
        assert!(all[4000..4200].iter().all(|&b| b == 6));
        assert!(all[4200..].iter().all(|&b| b == 5));
    }

    #[test]
    fn inline_records_fp_time() {
        let (nova, fact) = setup();
        let a = nova.create("a").unwrap();
        write_inline(&nova, &fact, a, 0, &vec![1u8; 16 * 4096]).unwrap();
        assert!(fact.stats().fingerprint_time() > std::time::Duration::ZERO);
    }

    #[test]
    fn inline_survives_remount() {
        let (nova, fact) = setup();
        let data = vec![0x31u8; 8192];
        let a = nova.create("a").unwrap();
        let b = nova.create("b").unwrap();
        write_inline(&nova, &fact, a, 0, &data).unwrap();
        write_inline(&nova, &fact, b, 0, &data).unwrap();
        let dev2 = Arc::new(nova.device().crash_clone(denova_pmem::CrashMode::Strict));
        let nova2 = Nova::mount(dev2, NovaOptions::default()).unwrap();
        let a2 = nova2.open("a").unwrap();
        let b2 = nova2.open("b").unwrap();
        assert_eq!(nova2.read(a2, 0, 8192).unwrap(), data);
        assert_eq!(nova2.read(b2, 0, 8192).unwrap(), data);
    }
}
