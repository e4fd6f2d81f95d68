//! The NV-Dedup-style adaptive-inline write path and its NOVA hooks.
//!
//! Pairs [`crate::nvdedup::NvDedupTable`] with the NOVA write flow: the
//! Eq. 4 baseline the harness runs alongside Baseline / Inline / Immediate /
//! Delayed to demonstrate that *even* workload-adaptive inline dedup cannot
//! reach baseline NOVA on Optane-class latency (Section III, Eq. 5).

use crate::nvdedup::{NvDedupTable, NvOutcome};
use denova_fingerprint::is_zero_page;
use denova_nova::{
    DedupeFlag, Nova, NovaError, NovaHooks, ReclaimDecision, Result, WriteEntry, BLOCK_SIZE,
    HOLE_BLOCK, ROOT_INO,
};
use std::sync::Arc;
use std::time::Instant;

/// NOVA hooks for the adaptive-inline mode: no DWQ (dedup already ran
/// inline); reclaim consults the NV-Dedup table's DRAM block index.
pub struct NvDedupHooks {
    table: Arc<NvDedupTable>,
}

impl NvDedupHooks {
    /// Create a new instance.
    pub fn new(table: Arc<NvDedupTable>) -> NvDedupHooks {
        NvDedupHooks { table }
    }
}

impl NovaHooks for NvDedupHooks {
    fn on_write_committed(&self, _ino: u64, _entry_off: u64, _entry: &WriteEntry) {}

    fn on_reclaim_block(&self, block: u64) -> ReclaimDecision {
        if self.table.release_block(block) {
            ReclaimDecision::Free
        } else {
            ReclaimDecision::Keep
        }
    }
}

/// Write `data` at `offset` of `ino`, deduplicating inline with adaptive
/// (weak-first) fingerprinting.
pub fn write_inline_adaptive(
    nova: &Nova,
    table: &NvDedupTable,
    ino: u64,
    offset: u64,
    data: &[u8],
) -> Result<()> {
    if ino == ROOT_INO {
        return Err(NovaError::BadInode(ino));
    }
    if data.is_empty() {
        return Ok(());
    }
    offset
        .checked_add(data.len() as u64)
        .ok_or(NovaError::InvalidRange)?;
    let dev = nova.device().clone();
    let layout = *nova.layout();
    let stats = table_stats(table);
    let t_start = Instant::now();

    nova.with_inode_write(ino, |ctx| {
        let first_pg = offset / BLOCK_SIZE;
        let last_pg = (offset + data.len() as u64 - 1) / BLOCK_SIZE;
        let num_pages = last_pg - first_pg + 1;
        let new_size = ctx.mem.size().max(offset + data.len() as u64);

        // CoW page images (same fill logic as every write path).
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

        let txid = ctx.next_txid();
        let mut entries: Vec<WriteEntry> = Vec::with_capacity(num_pages as usize);
        for i in 0..num_pages {
            let image = &pages[(i * BLOCK_SIZE) as usize..((i + 1) * BLOCK_SIZE) as usize];
            // Zero-block elision, same as the plain and inline paths.
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
            let read_block = |b: u64| dev.read_vec(layout.block_off(b), BLOCK_SIZE as usize);
            let block = match table.lookup_adaptive(image, read_block) {
                (NvOutcome::Duplicate { block }, _) => block,
                (NvOutcome::Unique, wfp) => {
                    let block = nova
                        .allocator()
                        .alloc_extent(1)
                        .ok_or(NovaError::NoSpace)?
                        .0;
                    let dst = layout.block_off(block);
                    dev.write(dst, image);
                    dev.flush(dst, BLOCK_SIZE as usize);
                    table.insert_unique(image, wfp, block)?;
                    block
                }
            };
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

        let encoded: Vec<[u8; 64]> = entries.iter().map(|e| e.encode()).collect();
        let offs = ctx.append(&encoded, "denova::adaptive")?;
        let mut obsolete = Vec::new();
        for (off, we) in offs.iter().zip(&entries) {
            obsolete.extend(ctx.apply_write_entry(*off, we));
        }
        ctx.commit_size(new_size)?;
        for block in obsolete {
            ctx.reclaim_block(block);
        }
        Ok(())
    })?;
    stats.record_other_ops_time(t_start.elapsed());
    Ok(())
}

fn table_stats(table: &NvDedupTable) -> Arc<crate::stats::DedupStats> {
    table.stats().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::Fact;
    use crate::stats::DedupStats;
    use denova_nova::NovaOptions;
    use denova_pmem::PmemDevice;

    fn setup() -> (Arc<Nova>, Arc<NvDedupTable>) {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
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
        let fact = Arc::new(Fact::new(
            dev.clone(),
            *nova.layout(),
            Arc::new(DedupStats::default()),
        ));
        let table = Arc::new(NvDedupTable::new(dev, *nova.layout(), fact));
        nova.set_hooks(Arc::new(NvDedupHooks::new(table.clone())));
        (nova, table)
    }

    #[test]
    fn adaptive_inline_dedups_duplicates() {
        let (nova, table) = setup();
        let data = vec![0x21u8; 2 * 4096];
        let a = nova.create("a").unwrap();
        let b = nova.create("b").unwrap();
        write_inline_adaptive(&nova, &table, a, 0, &data).unwrap();
        let free_mid = nova.free_blocks();
        write_inline_adaptive(&nova, &table, b, 0, &data).unwrap();
        // Second file consumed at most one log page, zero data pages.
        assert!(free_mid - nova.free_blocks() <= 1);
        assert_eq!(nova.read(a, 0, data.len()).unwrap(), data);
        assert_eq!(nova.read(b, 0, data.len()).unwrap(), data);
        assert!(table.observed_dup_ratio() > 0.5);
    }

    #[test]
    fn adaptive_overwrite_releases_references() {
        let (nova, table) = setup();
        let data = vec![0x33u8; 4096];
        let a = nova.create("a").unwrap();
        let b = nova.create("b").unwrap();
        write_inline_adaptive(&nova, &table, a, 0, &data).unwrap();
        write_inline_adaptive(&nova, &table, b, 0, &data).unwrap();
        write_inline_adaptive(&nova, &table, a, 0, &vec![1u8; 4096]).unwrap();
        assert_eq!(nova.read(b, 0, 4096).unwrap(), data);
        write_inline_adaptive(&nova, &table, b, 0, &vec![2u8; 4096]).unwrap();
        // All references to the shared chunk gone: its entry was removed,
        // leaving only the two overwrite pages.
        assert_eq!(table.entries(), 2);
        assert_eq!(nova.read(a, 0, 4096).unwrap(), vec![1u8; 4096]);
        assert_eq!(nova.read(b, 0, 4096).unwrap(), vec![2u8; 4096]);
    }

    #[test]
    fn adaptive_mixed_content_roundtrip() {
        let (nova, table) = setup();
        let mut data = vec![0u8; 4 * 4096];
        for (i, chunk) in data.chunks_mut(4096).enumerate() {
            chunk.fill((i % 2) as u8 + 1); // pages alternate: two distinct contents
        }
        let a = nova.create("a").unwrap();
        write_inline_adaptive(&nova, &table, a, 0, &data).unwrap();
        assert_eq!(nova.read(a, 0, data.len()).unwrap(), data);
        // 2 unique contents, 2 duplicates.
        assert_eq!(table.entries(), 2);
        assert!((table.observed_dup_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn adaptive_unaligned_write() {
        let (nova, table) = setup();
        let a = nova.create("a").unwrap();
        write_inline_adaptive(&nova, &table, a, 0, &vec![5u8; 8192]).unwrap();
        write_inline_adaptive(&nova, &table, a, 4000, &[6u8; 200]).unwrap();
        let all = nova.read(a, 0, 8192).unwrap();
        assert!(all[..4000].iter().all(|&b| b == 5));
        assert!(all[4000..4200].iter().all(|&b| b == 6));
        assert!(all[4200..].iter().all(|&b| b == 5));
    }

    #[test]
    fn adaptive_dram_usage_is_nonzero_unlike_fact() {
        // The paper's Section III point made executable: NV-Dedup-style
        // indexing consumes DRAM proportional to stored chunks; FACT uses
        // none for lookups.
        let (nova, table) = setup();
        let a = nova.create("a").unwrap();
        let mut gen = denova_workload_free_pages();
        for i in 0..16u64 {
            write_inline_adaptive(&nova, &table, a, i * 4096, &gen()).unwrap();
        }
        assert!(table.dram_index_bytes() >= 16 * 32);
    }

    /// Tiny local unique-page generator (avoids a dev-dependency cycle on
    /// denova-workload).
    fn denova_workload_free_pages() -> impl FnMut() -> Vec<u8> {
        let mut n = 0u64;
        move || {
            n += 1;
            let mut p = vec![0u8; 4096];
            p[..8].copy_from_slice(&n.to_le_bytes());
            p
        }
    }
}
