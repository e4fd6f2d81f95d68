//! The deduplication transaction — Algorithm 1 of the paper, with its
//! numbered steps and the crash points the failure analysis (Section V-C)
//! reasons about.
//!
//! For one DWQ node (a committed write entry with `dedupe_flag = Needed`):
//!
//! 1. the daemon pops the node (`target entry`) and takes the inode lock;
//! 2. each still-live data page is fingerprinted and looked up in FACT;
//! 3. the matching (or freshly inserted) FACT entry's **UC** is increased
//!    atomically — registering an in-flight transaction;
//! 4. for every *duplicate* page a new write entry pointing at the old
//!    (canonical) data page is appended with flag `in_process`;
//! 5. the log tail is updated atomically — the transaction is now durable
//!    from the file's point of view — and the target entry's flag becomes
//!    `in_process`;
//! 6. each touched FACT entry commits `UC -= 1, RFC += 1` in one atomic
//!    64-bit store; flags become `dedupe_complete`; the obsolete duplicate
//!    pages are reclaimed.
//!
//! A crash in any window leaves state that the recovery handlers
//! (Inconsistency Handling I/II/III, `recovery.rs`) repair exactly as the
//! paper prescribes. Each ordering point is fenced once (`fact.rs`, "One
//! fence per ordering point"): the step ③ increments ride the log append's
//! fence before step ⑤'s tail commit, and the step ⑥ commits share one
//! fence before the first `dedupe_complete` flag.
//!
//! **Two-stage lock split.** SHA-1 dominates the transaction (Table IV:
//! 11.78 µs per page vs 2.85 µs to write one), and a foreground write needs
//! the inode's write lock, so *any* inode lock held across fingerprinting —
//! the read lock included — stalls the writer for the whole hash. The
//! transaction therefore runs in two stages:
//!
//! * **Stage 1 (no inode lock, `prefingerprint`):** on an unlocked snapshot
//!   of the inode ([`Nova::with_inode_snapshot`]: epoch pinned, nothing
//!   validated) read the target entry, take each page's liveness from the
//!   radix tree, and fingerprint the live pages straight from the device's
//!   mapped bytes (zero copy) — exactly what `Nova::read`'s optimistic path
//!   reads, with the foreground writer free to run the whole time;
//! * **Stage 2 (write lock, `commit`):** re-read the target, revalidate
//!   the dedupe flag and each page's radix mapping (entry offset + block
//!   number), count pages that died in the window as stale, then run steps
//!   ③–⑥ exactly as the single-stage algorithm did, crash points included.
//!
//! **The snapshot rule.** Stage 2 uses a stage-1 result for page *p* only
//! if the radix tree, under the write lock, still maps *p* to
//! `(node.entry_off, block)`. A superseded mapping never returns to the same
//! entry offset: every overwrite, truncate and dedup relink installs a *new*
//! log entry, and `may_gc_entry` keeps the log slot of a `Needed` or
//! `InProcess` entry from being recycled. So "still mapped at stage 2" ⇒
//! "mapped continuously since the write committed" ⇒ "the block was never
//! freed" ⇒ "its bytes were stable through all of stage 1", and the
//! fingerprint taken with no lock is the fingerprint of what stage 2 sees.
//! The other side of a memcmp prediction is a canonical block, and stage 1
//! **pins before it compares**: it reserves the canonical's FACT record
//! (`UC += 1`) first, and a record with a reservation in flight is never
//! removed, so its block is neither freed nor rewritten while stage 1 reads
//! it. A prediction stage 1 made is therefore still true in stage 2, which
//! takes the pin over as the page's reservation with no second reserve and
//! no second compare; every pin stage 2 does not take (a stale page,
//! `AlreadyProcessed`, `FileGone`, `Corrupt`, an error exit) is given back.
//! Everything else stage 1 saw may be garbage — a torn `(entry_off, block)`
//! pair from a racing radix insert, a freed block another inode is
//! rewriting, a released inode's log page reused as data — and is merely
//! *harmless*: every block number is bounds-checked before the device is
//! touched, nothing read unlocked is indexed by or panicked on, and a target
//! that does not decode to a `Needed` write entry inside the device yields
//! an empty list. Stage 1 never fails; `AlreadyProcessed`, `FileGone` and
//! `Corrupt` are stage 2's answers, given under the lock.
//!
//! Correctness does not depend on stage 1 at all: stage 2 alone is the old
//! single-stage algorithm with a fingerprint cache in front. A live page
//! with no usable result is fingerprinted under the write lock
//! (`denova.refingerprinted_pages`): since a page live at stage 2 was live
//! for all of stage 1, only a page stage 1 saw *absent* through a torn
//! radix `(root, height)` pair, the tree growing a level under it.
//!
//! **Extent growth.** SHA-1 dominates (Table IV), so once one page of a
//! write matches a canonical block the daemon *grows* the match along the
//! run instead of hashing every page: stage 1 pins the record of the next
//! canonical block and compares the next candidate page to it with a plain
//! `memcmp`. Growth is forward-greedy; a backward probe would be redundant
//! because pages are classified in file order and fingerprint lookup is
//! content-exact — an earlier page whose bytes matched `canonical - 1`
//! would already have hit it by fingerprint. Consecutive duplicate pages
//! whose canonical blocks are also consecutive collapse into **one**
//! shared-extent write entry (`num_pages = N`), so reads of deduplicated
//! data still coalesce; FACT keeps one record per canonical block.

use crate::dwq::DwqNode;
use crate::fact::{Count, Fact, FactEntry, Released};
use denova_fingerprint::Fingerprint;
use denova_nova::{
    entry::{read_dedupe_flag, read_entry, write_dedupe_flag},
    DedupeFlag, InodeMem, Layout, LogEntry, Nova, NovaError, Result, WriteEntry, BLOCK_SIZE,
};
use denova_pmem::PmemDevice;
use std::time::{Duration, Instant};

/// Byte-compare two data blocks straight from the mapped device (no copy).
/// ~40× cheaper than fingerprinting a page, which is what makes extent
/// growth pay.
fn blocks_equal(dev: &PmemDevice, layout: &Layout, a: u64, b: u64) -> bool {
    dev.with_slice(layout.block_off(a), BLOCK_SIZE as usize, |pa| {
        dev.with_slice(layout.block_off(b), BLOCK_SIZE as usize, |pb| pa == pb)
    })
}

/// Stage-1 result for one live page.
#[derive(Clone, Copy)]
enum Prep {
    /// Fingerprinted; stage 2 takes the fingerprint path.
    Fp(Fingerprint),
    /// Predicted by memcmp growth to duplicate the canonical block of the
    /// record stage 1 pinned before comparing — the reservation's slot and
    /// the record as reserved. No hash computed.
    Pinned(u64, FactEntry),
}

/// One coalesced duplicate run: `len` candidate pages starting at `pgoff`
/// now share canonical blocks `canonical..canonical + len`.
struct DupRun {
    pgoff: u64,
    canonical: u64,
    len: u64,
}

/// What happened to one DWQ node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupOutcome {
    /// Transaction ran: `duplicates` pages now share canonical blocks,
    /// `uniques` pages were registered in FACT.
    Done {
        /// Pages now sharing a canonical block.
        duplicates: u32,
        /// Pages registered as new FACT entries.
        uniques: u32,
    },
    /// The entry's flag was no longer `Needed` (already processed, e.g.
    /// re-queued across a crash after completion).
    AlreadyProcessed,
    /// The file was unlinked before the daemon got to the entry.
    FileGone,
}

/// Stage-1 result for one page: `(file page, data block, prediction)`, in
/// page order.
type Prefp = (u64, u64, Prep);

/// Deduplicate one target entry. Runs on a daemon worker (offline modes):
/// stage 1 fingerprints with no inode lock, stage 2 revalidates and commits
/// under the *write* lock — "the deduplication process holds an inode lock"
/// (Section IV-E), but never across SHA-1.
pub fn dedup_entry(nova: &Nova, fact: &Fact, node: &DwqNode) -> Result<DedupOutcome> {
    let stats = fact.stats();
    let _span = nova.device().metrics().span("denova.dedup");
    let t_start = Instant::now();
    let mut fp_time = Duration::ZERO;
    let prefps = prefingerprint(nova, fact, node, &mut fp_time);
    match commit(nova, fact, node, &prefps, &mut fp_time) {
        Err(NovaError::BadInode(_)) => Ok(DedupOutcome::FileGone),
        other => {
            stats.record_fingerprint_time(fp_time);
            stats.record_other_ops_time(t_start.elapsed().saturating_sub(fp_time));
            other
        }
    }
}

/// Give back a reservation this transaction will not commit; if every
/// owner let go while it was out, the canonical block is left to us to
/// free.
fn give_back(nova: &Nova, fact: &Fact, canonical: u64) {
    if fact.release(canonical, Count::Uc) == Released::Removed {
        nova.allocator().free_range(canonical, 1);
        nova.stats().blocks_freed.add(1);
    }
}

/// Give back the stage-1 pins among `prefps`.
fn give_back_pins(nova: &Nova, fact: &Fact, prefps: &[Prefp]) {
    for &(_, _, prep) in prefps {
        if let Prep::Pinned(_, record) = prep {
            give_back(nova, fact, record.block);
        }
    }
}

/// Stage 1: prefingerprint the target's live pages on an unlocked snapshot
/// of the inode, hashing straight from the mapped PM bytes. When the
/// previous page matched a canonical block, the record of the *next*
/// canonical block is pinned and the next page compared to it with a
/// memcmp — on a match the SHA-1 is skipped entirely (extent growth) and the
/// pin goes to stage 2; on a mismatch it is given back at once. No
/// stale-page accounting here — stage 2 is the single point of truth for
/// that, so a page superseded before stage 2 is never double-counted.
///
/// Nothing here is validated (the module doc's snapshot rule says why it
/// need not be), so nothing here may fail: whatever does not look like a
/// `Needed` write entry inside the device yields an empty list and stage 2
/// gives the answer. This is the one function that reads data bytes a
/// concurrent writer may be changing (`.tsan-suppressions` names it).
fn prefingerprint(nova: &Nova, fact: &Fact, node: &DwqNode, fp_time: &mut Duration) -> Vec<Prefp> {
    let dev = nova.device();
    let layout = nova.layout();
    let total_blocks = layout.total_blocks;
    // Pin the record of canonical block `c` — a number that may be garbage
    // — and keep the pin if `block` holds the same bytes.
    let pin_if_equal = |c: u64, block: u64| {
        if c >= total_blocks {
            return None;
        }
        let pin = fact.reserve_block(c)?;
        if blocks_equal(dev, layout, block, c) {
            return Some(pin);
        }
        give_back(nova, fact, c);
        None
    };
    let scan = |mem: &InodeMem| {
        let mut fps = Vec::new();
        let target = match read_entry(dev, node.entry_off) {
            Ok(LogEntry::Write(we)) if we.dedupe_flag == DedupeFlag::Needed => we,
            _ => return Ok(fps),
        };
        let n = target.num_pages as u64;
        let in_device = target
            .block
            .checked_add(n)
            .is_some_and(|end| end <= total_blocks);
        if !in_device || target.file_pgoff.checked_add(n).is_none() {
            return Ok(fps);
        }
        fps.reserve(n as usize);
        // Canonical block predicted for the next page, when the previous
        // page matched the preceding one. A stale page breaks the run.
        let mut pred: Option<u64> = None;
        for i in 0..n {
            let pgoff = target.file_pgoff + i;
            let block = target.block + i;
            // A page is live while the radix maps it to this entry *and*
            // this block: the tree stores the two as separate atomics, and a
            // racing insert can pair the old offset with the new block.
            let live = mem
                .radix
                .get(pgoff)
                .is_some_and(|er| er.entry_off == node.entry_off && er.block == block);
            if !live {
                pred = None;
                continue;
            }
            // Growth fast path: pin the predicted canonical, then compare.
            if let Some((slot, record)) = pred.and_then(|c| pin_if_equal(c, block)) {
                fps.push((pgoff, block, Prep::Pinned(slot, record)));
                pred = Some(record.block + 1);
                continue;
            }
            let t_fp = Instant::now();
            let fp = dev.with_slice(layout.block_off(block), BLOCK_SIZE as usize, |page| {
                fact.fingerprint(page)
            });
            *fp_time += t_fp.elapsed();
            // FACT's unlocked lookup can hand back a record caught
            // mid-update; growth then merely pins nothing.
            pred = fact
                .lookup(&fp)
                .map(|(_, e)| e.block)
                .filter(|&c| c != block)
                .and_then(|c| c.checked_add(1));
            fps.push((pgoff, block, Prep::Fp(fp)));
        }
        Ok(fps)
    };
    // A tombstoned or vanished inode: nothing to prefingerprint, and
    // stage 2 reports `FileGone`.
    nova.with_inode_snapshot(node.ino, scan).unwrap_or_default()
}

/// Stage 2: the transaction proper, under the inode write lock — steps
/// ②–⑥ with their crash points. `prefps` is stage 1's page-ordered list; an
/// empty one makes this the single-stage algorithm. Every stage-1 pin is
/// either taken over as a page's reservation or given back, whatever the
/// outcome (short of a crash).
fn commit(
    nova: &Nova,
    fact: &Fact,
    node: &DwqNode,
    prefps: &[Prefp],
    fp_time: &mut Duration,
) -> Result<DedupOutcome> {
    let stats = fact.stats();
    let dev = nova.device();
    let layout = nova.layout();
    // `prefps[held..]` still holds its pins: the loop below advances past
    // every result whose pin it took over or gave back.
    let mut held = 0usize;
    let outcome = nova.with_inode_write(node.ino, |ctx| {
        let _hold = dev.metrics().span("denova.dedup.write_lock_hold");
        // Re-read the target entry under the write lock; skip if another
        // pass (or a pre-crash run, Inconsistency Handling III) already
        // handled it in the stage-1 → stage-2 window.
        let target = match read_entry(dev, node.entry_off)? {
            LogEntry::Write(we) => we,
            _ => return Err(NovaError::Corrupt("DWQ node is not a write entry")),
        };
        if target.dedupe_flag != DedupeFlag::Needed {
            return Ok(DedupOutcome::AlreadyProcessed);
        }

        // Steps ②③: revalidate each page, taking over the stage-1 pin (or
        // reusing the fingerprint) when its (pgoff, block) mapping still
        // holds, otherwise reserving the transaction with UC += 1 (insert
        // with UC = 1 for unique chunks). Adjacent duplicates of adjacent
        // canonical blocks coalesce into runs as they are found.
        // One `(slot, record)` per reservation, for the commit by hint.
        let mut reservations: Vec<(u64, FactEntry)> = Vec::new();
        let mut duplicates: Vec<DupRun> = Vec::new();
        let mut uniques = 0u32;
        let push_dup = |dups: &mut Vec<DupRun>, pgoff: u64, c: u64| {
            if let Some(last) = dups.last_mut() {
                if last.pgoff + last.len == pgoff && last.canonical + last.len == c {
                    last.len += 1;
                    return;
                }
            }
            dups.push(DupRun {
                pgoff,
                canonical: c,
                len: 1,
            });
        };
        // An error exit (FACT/IAA full, log or PM full) commits nothing:
        // every reservation taken so far goes back, or the records would
        // sit at `UC ≥ 1` — unreclaimable — until the next crash mount
        // discards them. A canonical block the target entry itself still
        // maps (a fresh insert, or a later page of the entry duplicating it)
        // only drops its record, never the block.
        let give_all_back =
            |reservations: &[(u64, FactEntry)], target: &WriteEntry, mem: &InodeMem| {
                for (_, e) in reservations {
                    let canonical = e.block;
                    let own = canonical
                        .checked_sub(target.block)
                        .filter(|&k| k < target.num_pages as u64)
                        .and_then(|k| mem.radix.get(target.file_pgoff + k))
                        .is_some_and(|er| er.entry_off == node.entry_off && er.block == canonical);
                    if own {
                        fact.release(canonical, Count::Uc);
                    } else {
                        give_back(nova, fact, canonical);
                    }
                }
            };
        for i in 0..target.num_pages as u64 {
            let pgoff = target.file_pgoff + i;
            let block = target.block + i;
            // Page superseded by a newer write since enqueue? Skip it.
            match ctx.mem.radix.get(pgoff) {
                Some(er) if er.entry_off == node.entry_off && er.block == block => {}
                _ => {
                    stats.record_stale_page();
                    continue;
                }
            }
            // Both this loop and stage 1's list run in page order: results
            // this loop passed over were for pages that went stale.
            while prefps.get(held).is_some_and(|&(p, ..)| p < pgoff) {
                give_back_pins(nova, fact, &prefps[held..held + 1]);
                held += 1;
            }
            let prep = prefps
                .get(held)
                .filter(|&&(p, b, _)| p == pgoff && b == block)
                .map(|&(.., prep)| prep);
            held += prep.is_some() as usize;

            let fp = match prep {
                // The snapshot rule: the page mapped continuously since the
                // write, and the pin kept the canonical bytes it was
                // compared with — the prediction holds.
                Some(Prep::Pinned(slot, e)) => {
                    stats.record_prefp_reused();
                    stats.record_page(true);
                    reservations.push((slot, e));
                    push_dup(&mut duplicates, pgoff, e.block);
                    continue;
                }
                Some(Prep::Fp(fp)) => {
                    stats.record_prefp_reused();
                    fp
                }
                None => {
                    // Not prefingerprinted (stage 1 saw the page absent):
                    // hash under the write lock, as the single-stage
                    // algorithm did.
                    let t_fp = Instant::now();
                    let fp = dev.with_slice(layout.block_off(block), BLOCK_SIZE as usize, |page| {
                        fact.fingerprint(page)
                    });
                    *fp_time += t_fp.elapsed();
                    stats.record_refingerprinted();
                    fp
                }
            };

            let (slot, e) = match fact.reserve_or_insert(&fp, block) {
                Ok(reserved) => reserved,
                Err(err) => {
                    give_all_back(&reservations, &target, ctx.mem);
                    return Err(err);
                }
            };
            reservations.push((slot, e));
            stats.record_page(e.block != block);
            if e.block == block {
                uniques += 1;
            } else {
                push_dup(&mut duplicates, pgoff, e.block);
            }
        }
        dev.crash_point("denova::dedup::after_reserve");

        // Step ④: append one write entry per duplicate *run*, pointing at
        // the canonical pages, flag in_process.
        let size_after = ctx.mem.size();
        let txid = ctx.next_txid();
        let new_entries: Vec<WriteEntry> = duplicates
            .iter()
            .map(|d| WriteEntry {
                dedupe_flag: DedupeFlag::InProcess,
                file_pgoff: d.pgoff,
                num_pages: d.len as u32,
                block: d.canonical,
                size_after,
                txid,
                hole: false,
            })
            .collect();
        let encoded: Vec<[u8; 64]> = new_entries.iter().map(|e| e.encode()).collect();
        // Step ⑤ happens inside append: the fence that makes every UC
        // increment durable, then the atomic tail commit (with crash points
        // denova::dedup::{before,after}_tail_commit).
        let offs = match ctx.append(&encoded, "denova::dedup") {
            Ok(offs) => offs,
            Err(e) => {
                give_all_back(&reservations, &target, ctx.mem);
                return Err(e);
            }
        };

        // Target entry joins the transaction: needed → in_process.
        write_dedupe_flag(dev, node.entry_off, DedupeFlag::InProcess);
        dev.crash_point("denova::dedup::after_target_in_process");

        // Fold the new entries into the radix tree ("rebuild_radix_tree");
        // the superseded blocks are the obsolete duplicate pages.
        let mut obsolete = Vec::new();
        for (off, we) in offs.iter().zip(&new_entries) {
            obsolete.extend(ctx.apply_write_entry(*off, we));
        }

        // Step ⑥: commit every reservation — UC -= 1, RFC += 1, one atomic
        // 64-bit store per FACT entry — and fence once, so every RFC is
        // durable before the first flag says the transaction is complete.
        for (n, (slot, e)) in reservations.iter().enumerate() {
            fact.commit_uc_to_rfc(*slot, e);
            if n == 0 {
                dev.crash_point("denova::dedup::mid_commit_counts");
            }
        }
        dev.fence();
        dev.crash_point("denova::dedup::after_commit_counts");

        // Flags: appended entries and the target become dedupe_complete.
        for off in &offs {
            write_dedupe_flag(dev, *off, DedupeFlag::Complete);
        }
        write_dedupe_flag(dev, node.entry_off, DedupeFlag::Complete);
        dev.crash_point("denova::dedup::after_complete");

        // "The obsolete duplicate data pages are reclaimed afterwards."
        for block in obsolete {
            ctx.reclaim_block(block);
        }
        Ok(DedupOutcome::Done {
            duplicates: duplicates.iter().map(|d| d.len as u32).sum(),
            uniques,
        })
    });
    give_back_pins(nova, fact, &prefps[held..]);
    outcome
}

/// Resume a transaction from step ⑥ for an entry found `in_process` during
/// recovery (Inconsistency Handling II). The log tail already committed the
/// transaction; only the count transfer, flags, and reclaim remain.
pub fn resume_in_process(nova: &Nova, fact: &Fact, ino: u64, entry_off: u64) -> Result<()> {
    let dev = nova.device().clone();
    nova.with_inode_write(ino, |ctx| {
        let we = match read_entry(&dev, entry_off)? {
            LogEntry::Write(we) => we,
            _ => return Ok(()),
        };
        if read_dedupe_flag(&dev, entry_off)? != DedupeFlag::InProcess {
            return Ok(());
        }
        let layout = *nova.layout();
        for i in 0..we.num_pages as u64 {
            // Only pages this entry still backs participate.
            match ctx.mem.radix.get(we.file_pgoff + i) {
                Some(er) if er.entry_off == entry_off => {}
                _ => continue,
            }
            let fp = dev.with_slice(
                layout.block_off(we.block + i),
                BLOCK_SIZE as usize,
                Fingerprint::of,
            );
            if let Some((slot, e)) = fact.lookup(&fp) {
                // Commit at most the UC this transaction reserved; a zero UC
                // means the commit already happened before the crash.
                fact.commit_uc_to_rfc(slot, &e);
            }
        }
        dev.fence();
        write_dedupe_flag(&dev, entry_off, DedupeFlag::Complete);
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dwq::Dwq;
    use crate::reclaim::DenovaHooks;
    use crate::stats::DedupStats;
    use denova_nova::NovaOptions;
    use std::sync::Arc;
    use std::time::Instant;

    /// A mounted stack with dedup candidates enabled and hooks installed,
    /// but no daemon: tests drive dedup_entry by hand.
    fn setup() -> (Arc<Nova>, Arc<Fact>, Arc<Dwq>) {
        let dev = Arc::new(denova_pmem::PmemDevice::new(32 * 1024 * 1024));
        let nova = Arc::new(
            Nova::mkfs(
                dev.clone(),
                NovaOptions {
                    num_inodes: 128,
                    dedup_enabled: true,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let stats = Arc::new(DedupStats::default());
        let fact = Arc::new(Fact::new(dev, *nova.layout(), stats.clone()));
        let dwq = Arc::new(Dwq::new(stats));
        nova.set_hooks(Arc::new(DenovaHooks::new(fact.clone(), dwq.clone(), true)));
        (nova, fact, dwq)
    }

    fn drain(nova: &Nova, fact: &Fact, dwq: &Dwq) {
        while let Some(node) = dwq.pop_batch(1).first().copied() {
            dedup_entry(nova, fact, &node).unwrap();
        }
    }

    #[test]
    fn identical_files_share_pages() {
        let (nova, fact, dwq) = setup();
        let data = vec![0xABu8; 4096];
        let a = nova.create("a").unwrap();
        let b = nova.create("b").unwrap();
        nova.write(a, 0, &data).unwrap();
        nova.write(b, 0, &data).unwrap();
        assert_eq!(dwq.len(), 2);
        let free_before = nova.free_blocks();
        drain(&nova, &fact, &dwq);
        // One duplicate page reclaimed.
        assert_eq!(nova.free_blocks(), free_before + 1);
        // Both files read back correctly from the shared page.
        assert_eq!(nova.read(a, 0, 4096).unwrap(), data);
        assert_eq!(nova.read(b, 0, 4096).unwrap(), data);
        // FACT has exactly one entry with RFC = 2.
        let fp = Fingerprint::of(&data);
        let (idx, e) = fact.lookup(&fp).unwrap();
        assert_eq!(fact.counters(idx), (2, 0));
        assert_eq!(e.uc, 0);
        assert_eq!(fact.stats().duplicate_pages(), 1);
        assert_eq!(fact.stats().unique_pages(), 1);
    }

    #[test]
    fn duplicate_pages_within_one_write() {
        let (nova, fact, dwq) = setup();
        // 4 pages, all identical content.
        let data = vec![7u8; 4 * 4096];
        let a = nova.create("a").unwrap();
        nova.write(a, 0, &data).unwrap();
        let free_before = nova.free_blocks();
        drain(&nova, &fact, &dwq);
        // 3 of the 4 pages deduplicated.
        assert_eq!(nova.free_blocks(), free_before + 3);
        assert_eq!(nova.read(a, 0, data.len()).unwrap(), data);
        let (idx, _) = fact.lookup(&Fingerprint::of(&data[..4096])).unwrap();
        assert_eq!(fact.counters(idx), (4, 0));
    }

    /// ROADMAP item 4, "FACT stripe full": an entry whose third page needs
    /// an IAA slot when none is left fails with a stable error, and the
    /// reservations already taken on its first two pages go back — no
    /// `UcResidue`, the blocks stay reclaimable, and the entry dedups once
    /// space returns.
    #[test]
    fn error_exit_gives_every_reservation_back() {
        let (nova, fact, dwq) = setup();
        // Three distinct pages, the third colliding with the first on its
        // FACT prefix (so it needs an IAA slot).
        let page = |seed: u32| {
            let mut p = vec![0u8; 4096];
            p[..4].copy_from_slice(&seed.to_le_bytes());
            p
        };
        let prefix = |p: &[u8]| Fingerprint::of(p).prefix(fact.prefix_bits());
        let triple = |seed: u32| {
            let (first, second) = (page(seed), page(seed + 1));
            assert_ne!(prefix(&second), prefix(&first));
            let third = (seed + 2..)
                .map(page)
                .find(|p| prefix(p) == prefix(&first))
                .unwrap();
            [first, second, third].concat()
        };
        let fail_for_lack_of_iaa = |node: &DwqNode| {
            let space = fact.swap_free_iaa(Vec::new(), fact.entries());
            assert_eq!(
                dedup_entry(&nova, &fact, node),
                Err(NovaError::NoSpace),
                "IAA exhaustion must surface"
            );
            fact.swap_free_iaa(space.0, space.1);
        };
        let assert_clean = || {
            let audit = crate::fsck::fsck_fact(&nova, &fact).unwrap();
            assert!(audit.is_clean(), "{:?}", audit.errors);
        };

        let data = triple(1);
        let a = nova.create("a").unwrap();
        nova.write(a, 0, &data).unwrap();
        let node = dwq.pop_batch(1)[0];
        fail_for_lack_of_iaa(&node);
        assert_eq!(fact.occupied_count(), 0, "reservations not given back");
        assert_clean();
        assert_eq!(nova.read(a, 0, data.len()).unwrap(), data);
        // Space is back: the entry kept its flag, a later pass dedups it.
        assert_eq!(
            dedup_entry(&nova, &fact, &node).unwrap(),
            DedupOutcome::Done {
                duplicates: 0,
                uniques: 3
            }
        );
        assert_clean();

        // The same failure on a second file, then an overwrite: with no
        // record left at `UC = 1`, reclaim frees all three old blocks.
        let b = nova.create("b").unwrap();
        nova.write(b, 0, &triple(100_000)).unwrap();
        fail_for_lack_of_iaa(&dwq.pop_batch(1)[0]);
        let free_before = nova.free_blocks();
        nova.write(b, 0, &vec![9u8; 3 * 4096]).unwrap();
        assert_eq!(
            nova.free_blocks(),
            free_before,
            "3 blocks allocated, so the 3 old ones must have been freed"
        );
        assert_clean();
    }

    #[test]
    fn unique_data_registers_without_saving() {
        let (nova, fact, dwq) = setup();
        let a = nova.create("a").unwrap();
        let mut data = vec![0u8; 3 * 4096];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i / 4096 + 1) as u8;
        }
        nova.write(a, 0, &data).unwrap();
        let free_before = nova.free_blocks();
        drain(&nova, &fact, &dwq);
        assert_eq!(nova.free_blocks(), free_before);
        assert_eq!(fact.stats().duplicate_pages(), 0);
        assert_eq!(fact.stats().unique_pages(), 3);
        assert_eq!(fact.occupied_count(), 3);
    }

    #[test]
    fn flags_progress_to_complete() {
        let (nova, fact, dwq) = setup();
        let a = nova.create("a").unwrap();
        nova.write(a, 0, &vec![1u8; 4096]).unwrap();
        let node = dwq.pop_batch(1)[0];
        assert_eq!(
            read_dedupe_flag(nova.device(), node.entry_off).unwrap(),
            DedupeFlag::Needed
        );
        dedup_entry(&nova, &fact, &node).unwrap();
        assert_eq!(
            read_dedupe_flag(nova.device(), node.entry_off).unwrap(),
            DedupeFlag::Complete
        );
    }

    #[test]
    fn reprocessing_completed_entry_is_noop() {
        let (nova, fact, dwq) = setup();
        let a = nova.create("a").unwrap();
        nova.write(a, 0, &vec![1u8; 4096]).unwrap();
        let node = dwq.pop_batch(1)[0];
        assert!(matches!(
            dedup_entry(&nova, &fact, &node).unwrap(),
            DedupOutcome::Done { .. }
        ));
        assert_eq!(
            dedup_entry(&nova, &fact, &node).unwrap(),
            DedupOutcome::AlreadyProcessed
        );
        // Counters unchanged by the second pass.
        let (idx, _) = fact.lookup(&Fingerprint::of(&vec![1u8; 4096])).unwrap();
        assert_eq!(fact.counters(idx), (1, 0));
    }

    #[test]
    fn stale_pages_skipped_after_overwrite() {
        let (nova, fact, dwq) = setup();
        let a = nova.create("a").unwrap();
        nova.write(a, 0, &vec![1u8; 4096]).unwrap();
        // Overwrite before the daemon runs: the queued entry's page is stale.
        nova.write(a, 0, &vec![2u8; 4096]).unwrap();
        let nodes = dwq.pop_batch(10);
        assert_eq!(nodes.len(), 2);
        let out = dedup_entry(&nova, &fact, &nodes[0]).unwrap();
        assert_eq!(
            out,
            DedupOutcome::Done {
                duplicates: 0,
                uniques: 0
            }
        );
        assert_eq!(fact.stats().stale_pages(), 1);
        // The second (current) entry dedups normally.
        dedup_entry(&nova, &fact, &nodes[1]).unwrap();
        assert_eq!(nova.read(a, 0, 4096).unwrap(), vec![2u8; 4096]);
    }

    #[test]
    fn unlinked_file_reports_gone() {
        let (nova, fact, dwq) = setup();
        let a = nova.create("a").unwrap();
        nova.write(a, 0, &vec![1u8; 4096]).unwrap();
        let node = dwq.pop_batch(1)[0];
        nova.unlink("a").unwrap();
        assert_eq!(
            dedup_entry(&nova, &fact, &node).unwrap(),
            DedupOutcome::FileGone
        );
    }

    #[test]
    fn overwrite_of_shared_page_keeps_other_reference() {
        let (nova, fact, dwq) = setup();
        let data = vec![0x44u8; 4096];
        let a = nova.create("a").unwrap();
        let b = nova.create("b").unwrap();
        nova.write(a, 0, &data).unwrap();
        nova.write(b, 0, &data).unwrap();
        drain(&nova, &fact, &dwq);
        // Overwrite a's copy: the shared block must survive for b.
        nova.write(a, 0, &vec![0x55u8; 4096]).unwrap();
        assert_eq!(nova.read(b, 0, 4096).unwrap(), data);
        let (idx, _) = fact.lookup(&Fingerprint::of(&data)).unwrap();
        assert_eq!(fact.counters(idx), (1, 0));
        // Overwrite b's too: last reference drops, entry removed.
        nova.write(b, 0, &vec![0x66u8; 4096]).unwrap();
        assert!(fact.lookup(&Fingerprint::of(&data)).is_none());
        drain(&nova, &fact, &dwq); // process the overwrites themselves
    }

    #[test]
    fn unlink_of_shared_file_keeps_other_reference() {
        let (nova, fact, dwq) = setup();
        let data = vec![0x77u8; 2 * 4096];
        let a = nova.create("a").unwrap();
        let b = nova.create("b").unwrap();
        nova.write(a, 0, &data).unwrap();
        nova.write(b, 0, &data).unwrap();
        drain(&nova, &fact, &dwq);
        nova.unlink("a").unwrap();
        assert_eq!(nova.read(b, 0, data.len()).unwrap(), data);
        nova.unlink("b").unwrap();
        // All shared pages now free and FACT empty of those fps.
        assert!(fact.lookup(&Fingerprint::of(&data[..4096])).is_none());
    }

    #[test]
    fn dedup_chain_across_three_files() {
        let (nova, fact, dwq) = setup();
        let data = vec![0x99u8; 4096];
        for name in ["a", "b", "c"] {
            let ino = nova.create(name).unwrap();
            nova.write(ino, 0, &data).unwrap();
        }
        drain(&nova, &fact, &dwq);
        let (idx, _) = fact.lookup(&Fingerprint::of(&data)).unwrap();
        assert_eq!(fact.counters(idx), (3, 0));
        for name in ["a", "b", "c"] {
            let ino = nova.open(name).unwrap();
            assert_eq!(nova.read(ino, 0, 4096).unwrap(), data);
        }
    }

    #[test]
    fn table4_breakdown_is_recorded() {
        let (nova, fact, dwq) = setup();
        let a = nova.create("a").unwrap();
        nova.write(a, 0, &vec![5u8; 32 * 4096]).unwrap();
        drain(&nova, &fact, &dwq);
        let s = fact.stats();
        assert!(s.fingerprint_time() > std::time::Duration::ZERO);
        assert!(s.other_ops_time() > std::time::Duration::ZERO);
    }

    #[test]
    fn resume_in_process_commits_and_completes() {
        let (nova, fact, dwq) = setup();
        let a = nova.create("a").unwrap();
        nova.write(a, 0, &vec![3u8; 4096]).unwrap();
        let node = dwq.pop_batch(1)[0];
        // Simulate the crash window after step 5: reserve + flag in_process,
        // but no count commit.
        let fp = Fingerprint::of(&vec![3u8; 4096]);
        let (idx, _) = fact
            .reserve_or_insert(&fp, {
                // the block the write allocated
                nova.with_inode_read(a, |mem| Ok(mem.radix.get(0).unwrap().block))
                    .unwrap()
            })
            .unwrap();
        write_dedupe_flag(nova.device(), node.entry_off, DedupeFlag::InProcess);
        assert_eq!(fact.counters(idx), (0, 1));

        resume_in_process(&nova, &fact, a, node.entry_off).unwrap();
        assert_eq!(fact.counters(idx), (1, 0));
        assert_eq!(
            read_dedupe_flag(nova.device(), node.entry_off).unwrap(),
            DedupeFlag::Complete
        );
        // Resuming again is harmless.
        resume_in_process(&nova, &fact, a, node.entry_off).unwrap();
        assert_eq!(fact.counters(idx), (1, 0));
    }

    // -- Between the halves ------------------------------------------------
    //
    // Stage 1 validates nothing, so whatever the foreground does between
    // the two stages must leave exactly what it would have left had both
    // stages run after it. Each scenario below runs twice on identical
    // stacks — stage 1, foreground op, stage 2 against foreground op,
    // stage 1, stage 2 — and compares everything observable.

    const ENTRY_PAGES: usize = 256;

    /// `n` pages of distinct non-zero content, a function of `(seed, page)`.
    fn pages(seed: u8, n: usize) -> Vec<u8> {
        let mut data = vec![seed; n * 4096];
        for (k, page) in data.chunks_mut(4096).enumerate() {
            page[..4].copy_from_slice(&(k as u32 + 1).to_le_bytes());
        }
        data
    }

    /// A stack whose DWQ holds one node: file `a`'s 256-page write, its
    /// first half duplicating file `b1` (already deduplicated), its second
    /// half unique. File `other` is there to be renamed over `a`.
    fn one_pending_entry() -> (Arc<Nova>, Arc<Fact>, Arc<Dwq>, DwqNode) {
        let (nova, fact, dwq) = setup();
        let shared = pages(1, ENTRY_PAGES / 2);
        let b1 = nova.create("b1").unwrap();
        nova.write(b1, 0, &shared).unwrap();
        let other = nova.create("other").unwrap();
        nova.write(other, 0, &pages(2, 4)).unwrap();
        drain(&nova, &fact, &dwq);
        let a = nova.create("a").unwrap();
        let data = [shared, pages(3, ENTRY_PAGES / 2)].concat();
        nova.write(a, 0, &data).unwrap();
        let node = dwq.pop_batch(1)[0];
        assert_eq!((node.ino, dwq.len()), (a, 0));
        (nova, fact, dwq, node)
    }

    /// Everything the two orders must agree on.
    #[derive(Debug, PartialEq)]
    struct Observed {
        outcome: DedupOutcome,
        /// `(name, contents)` of every file, by name.
        files: Vec<(String, Vec<u8>)>,
        /// `(block, rfc, uc)` of every FACT record, by block.
        records: Vec<(u64, u32, u32)>,
        free_blocks: u64,
    }

    fn observe(nova: &Nova, fact: &Fact, outcome: DedupOutcome) -> Observed {
        let report = denova_nova::fsck::check(nova, true).unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
        let audit = crate::fsck::fsck_fact(nova, fact).unwrap();
        assert!(audit.is_clean(), "{:?}", audit.errors);
        assert_eq!(fact.stats().refingerprinted_pages(), 0);
        let mut files: Vec<(String, Vec<u8>)> = nova
            .list()
            .into_iter()
            .map(|name| {
                let ino = nova.open(&name).unwrap();
                let size = nova.file_size(ino).unwrap() as usize;
                let data = nova.read(ino, 0, size).unwrap();
                (name, data)
            })
            .collect();
        files.sort();
        let mut records = Vec::new();
        fact.for_each_occupied(|_, e| records.push((e.block, e.rfc, e.uc)));
        records.sort();
        Observed {
            outcome,
            files,
            records,
            free_blocks: nova.free_blocks(),
        }
    }

    /// Run `op` between the halves and before both; both orders must end
    /// the same — FACT audited clean, so no pin is left behind as a `UC` —
    /// right after stage 2 and again once the entries `op` itself queued
    /// are deduplicated. Returns the common result after stage 2.
    fn between_the_halves(op: impl Fn(&Nova, &Fact, &DwqNode)) -> Observed {
        let run = |interleaved: bool| {
            let (nova, fact, dwq, node) = one_pending_entry();
            let mut fp_time = Duration::ZERO;
            if !interleaved {
                op(&nova, &fact, &node);
            }
            let prefps = prefingerprint(&nova, &fact, &node, &mut fp_time);
            if interleaved {
                // Stage 1 saw the entry whole: every page has a result, the
                // duplicate half past its first page by a pinned memcmp
                // prediction.
                assert_eq!(prefps.len(), ENTRY_PAGES);
                assert!(prefps[1..ENTRY_PAGES / 2]
                    .iter()
                    .all(|&(_, _, prep)| matches!(prep, Prep::Pinned(..))));
                assert!(prefps[ENTRY_PAGES / 2..]
                    .iter()
                    .all(|&(_, _, prep)| matches!(prep, Prep::Fp(_))));
                op(&nova, &fact, &node);
            }
            let outcome = match commit(&nova, &fact, &node, &prefps, &mut fp_time) {
                Err(NovaError::BadInode(_)) => DedupOutcome::FileGone,
                other => other.unwrap(),
            };
            let after_commit = observe(&nova, &fact, outcome);
            drain(&nova, &fact, &dwq);
            (after_commit, observe(&nova, &fact, outcome))
        };
        let (interleaved, sequential) = (run(true), run(false));
        assert_eq!(interleaved, sequential);
        interleaved.0
    }

    /// The data blocks `ino` maps at pages `range`.
    fn blocks_of(nova: &Nova, ino: u64, range: std::ops::Range<u64>) -> Vec<u64> {
        nova.with_inode_read(ino, |mem| {
            Ok(range
                .filter_map(|pg| mem.radix.get(pg))
                .map(|er| er.block)
                .collect())
        })
        .unwrap()
    }

    #[test]
    fn overwrite_of_every_page_between_the_halves() {
        let seen = between_the_halves(|nova, _, node| {
            nova.write(node.ino, 0, &pages(9, ENTRY_PAGES)).unwrap();
        });
        assert_eq!(
            seen.outcome,
            DedupOutcome::Done {
                duplicates: 0,
                uniques: 0
            }
        );
    }

    #[test]
    fn overwrite_of_some_pages_between_the_halves() {
        // Pages 100..140 straddle the duplicate and the unique half.
        let seen = between_the_halves(|nova, _, node| {
            nova.write(node.ino, 100 * 4096, &pages(9, 40)).unwrap();
        });
        assert_eq!(
            seen.outcome,
            DedupOutcome::Done {
                duplicates: 100,
                uniques: ENTRY_PAGES as u32 - 140
            }
        );
    }

    #[test]
    fn truncate_into_the_entry_between_the_halves() {
        let seen = between_the_halves(|nova, _, node| {
            nova.truncate(node.ino, 60 * 4096).unwrap();
        });
        assert_eq!(
            seen.outcome,
            DedupOutcome::Done {
                duplicates: 60,
                uniques: 0
            }
        );
    }

    #[test]
    fn unlink_between_the_halves() {
        let seen = between_the_halves(|nova, _, _| nova.unlink("a").unwrap());
        assert_eq!(seen.outcome, DedupOutcome::FileGone);
    }

    #[test]
    fn rename_over_the_file_between_the_halves() {
        let seen = between_the_halves(|nova, _, _| {
            nova.rename("other", "a").unwrap();
        });
        assert_eq!(seen.outcome, DedupOutcome::FileGone);
        assert!(seen.files.contains(&("a".to_string(), pages(2, 4))));
    }

    /// Another pass deduplicates the entry first (its own stage 1 pins the
    /// same records): this one finds it `AlreadyProcessed` and gives every
    /// pin back.
    #[test]
    fn a_whole_pass_between_the_halves() {
        let seen = between_the_halves(|nova, fact, node| {
            assert!(matches!(
                dedup_entry(nova, fact, node).unwrap(),
                DedupOutcome::Done { .. }
            ));
        });
        assert_eq!(seen.outcome, DedupOutcome::AlreadyProcessed);
    }

    /// The overwritten pages' blocks are freed, handed to another inode and
    /// rewritten before stage 2: stage 1's fingerprints and memcmp
    /// predictions for them describe bytes that no longer exist.
    #[test]
    fn freed_blocks_rewritten_by_another_inode_between_the_halves() {
        let seen = between_the_halves(|nova, _, node| {
            let old = blocks_of(nova, node.ino, 64..192);
            nova.write(node.ino, 64 * 4096, &pages(9, 128)).unwrap();
            let c = nova.create("c").unwrap();
            nova.write(c, 0, &pages(10, 128)).unwrap();
            let reused = blocks_of(nova, c, 0..128);
            assert!(
                old.iter().any(|b| reused.contains(b)),
                "the scenario needs c to land on a's freed blocks"
            );
        });
        assert_eq!(
            seen.outcome,
            DedupOutcome::Done {
                duplicates: 64,
                uniques: 64
            }
        );
    }

    /// A stage-1 pin outlives the last owner of its canonical block: the
    /// block is freed exactly when stage 2 gives the pin back, and never
    /// while the pin is out.
    #[test]
    fn a_pinned_canonical_is_freed_when_its_pin_goes_back() {
        let (nova, fact, _dwq, node) = one_pending_entry();
        let prefps = prefingerprint(&nova, &fact, &node, &mut Duration::default());
        let pinned: Vec<u64> = prefps
            .iter()
            .filter_map(|&(.., prep)| match prep {
                Prep::Pinned(_, e) => Some(e.block),
                Prep::Fp(_) => None,
            })
            .collect();
        assert_eq!(pinned.len(), ENTRY_PAGES / 2 - 1);
        // The canonical blocks' one owner lets go, and `a`'s duplicate half
        // is overwritten: nothing but the pins holds them now.
        nova.unlink("b1").unwrap();
        nova.write(node.ino, 0, &pages(9, ENTRY_PAGES / 2)).unwrap();
        for &c in &pinned {
            let (idx, _) = fact.resolve_block(c).expect("a pinned record stays");
            assert_eq!(fact.counters(idx), (0, 1));
        }
        // Never while the pin is out: fresh allocations do not get them.
        let c = nova.create("c").unwrap();
        nova.write(c, 0, &pages(10, ENTRY_PAGES)).unwrap();
        let fresh = blocks_of(&nova, c, 0..ENTRY_PAGES as u64);
        assert!(pinned.iter().all(|b| !fresh.contains(b)));
        // Exactly when it goes back: stage 2 finds every pinned page stale
        // and each release frees its block.
        let free = nova.free_blocks();
        assert_eq!(
            commit(&nova, &fact, &node, &prefps, &mut Duration::default()),
            Ok(DedupOutcome::Done {
                duplicates: 0,
                uniques: ENTRY_PAGES as u32 / 2
            })
        );
        assert_eq!(nova.free_blocks(), free + pinned.len() as u64);
        assert!(pinned.iter().all(|&b| fact.resolve_block(b).is_none()));
        let audit = crate::fsck::fsck_fact(&nova, &fact).unwrap();
        assert!(audit.is_clean(), "{:?}", audit.errors);
    }

    /// Extent growth: a clone hashes its first page, pins and memcmps the
    /// rest along the canonical run, and maps all of it through one
    /// shared-extent entry. FACT keeps one record per canonical block.
    #[test]
    fn a_clone_grows_by_memcmp_into_one_shared_extent() {
        let (nova, fact, dwq) = setup();
        let image = pages(4, 8);
        let a = nova.create("a").unwrap();
        nova.write(a, 0, &image).unwrap();
        drain(&nova, &fact, &dwq);
        let b = nova.create("b").unwrap();
        nova.write(b, 0, &image).unwrap();
        let (free, hashed) = (nova.free_blocks(), fact.stats().fingerprints());
        drain(&nova, &fact, &dwq);
        assert_eq!(fact.stats().fingerprints() - hashed, 1);
        assert_eq!(nova.free_blocks(), free + 8);
        assert_eq!(blocks_of(&nova, b, 0..8), blocks_of(&nova, a, 0..8));
        let entries: std::collections::HashSet<u64> = nova
            .with_inode_read(b, |mem| {
                Ok((0..8)
                    .map(|pg| mem.radix.get(pg).unwrap().entry_off)
                    .collect())
            })
            .unwrap();
        assert_eq!(entries.len(), 1, "one shared-extent entry");
        assert_eq!(fact.occupied_count(), 8);
        fact.for_each_occupied(|idx, _| assert_eq!(fact.counters(idx), (2, 0)));
        assert_eq!(nova.read(b, 0, image.len()).unwrap(), image);
    }

    /// The counted cost of deduplicating clones: a 64-page image, then 8
    /// clones of it with one page changed each, drained on this thread with
    /// latency off. Fences, PM reads and FACT lookups are exact counts of
    /// this trace, so this gates the transaction's per-page work, not its
    /// wall time. 504 of the 512 clone pages are duplicates.
    #[test]
    fn a_clone_drain_costs_the_counted_fences_reads_and_lookups() {
        let (nova, fact, dwq) = setup();
        let image = pages(5, 64);
        let base = nova.create("image").unwrap();
        nova.write(base, 0, &image).unwrap();
        drain(&nova, &fact, &dwq);
        for k in 0..8u32 {
            let mut clone = image.clone();
            let pg = (k as usize * 7 + 3) % 64;
            clone[pg * 4096 + 8..][..4].copy_from_slice(&(1000 + k).to_le_bytes());
            let ino = nova.create(&format!("clone{k}")).unwrap();
            nova.write(ino, 0, &clone).unwrap();
        }
        let dev = nova.device();
        let stats = fact.stats();
        let before = (
            dev.thread_fences(),
            dev.stats().snapshot().reads,
            stats.lookups(),
            stats.duplicate_pages(),
        );
        drain(&nova, &fact, &dwq);
        let counted = (
            dev.thread_fences() - before.0,
            dev.stats().snapshot().reads - before.1,
            stats.lookups() - before.2,
            stats.duplicate_pages() - before.3,
        );
        assert_eq!(counted, (72, 4120, 48, 504));
    }

    /// The structural claim: stage 1 takes no inode lock. A foreground
    /// writer parked inside `with_inode_write` does not hold it up; stage 2
    /// then commits what it found.
    #[test]
    fn stage1_completes_while_the_inode_write_lock_is_held() {
        use std::sync::mpsc::channel;
        let (nova, fact, dwq) = setup();
        let a = nova.create("a").unwrap();
        nova.write(a, 0, &pages(1, 4)).unwrap();
        let node = dwq.pop_batch(1)[0];
        let (locked_tx, locked_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let (done_tx, done_rx) = channel();
        let prefps = std::thread::scope(|s| {
            let (nova, fact) = (&*nova, &*fact);
            s.spawn(move || {
                nova.with_inode_write(a, |_| {
                    locked_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(())
                })
                .unwrap();
            });
            locked_rx.recv().unwrap();
            s.spawn(move || {
                let fps = prefingerprint(nova, fact, &node, &mut Duration::default());
                done_tx.send(fps).unwrap();
            });
            // Hang detector, not a timing bound: a stage 1 that needs the
            // lock can never finish while the writer is parked.
            let fps = done_rx.recv_timeout(Duration::from_secs(20));
            release_tx.send(()).unwrap();
            fps.expect("stage 1 waited for the inode lock")
        });
        assert_eq!(prefps.len(), 4);
        let outcome = commit(&nova, &fact, &node, &prefps, &mut Duration::default()).unwrap();
        assert_eq!(
            outcome,
            DedupOutcome::Done {
                duplicates: 0,
                uniques: 4
            }
        );
        assert_eq!(fact.stats().prefp_reused_pages(), 4);
        assert_eq!(fact.stats().refingerprinted_pages(), 0);
    }

    /// Stage 1 never fails and never reads out of range, whatever the node
    /// names: file data, a foreign entry, an inode that is gone. Stage 2
    /// gives the answer.
    #[test]
    fn stage1_shrugs_at_a_node_that_names_no_needed_entry() {
        let (nova, fact, dwq) = setup();
        let a = nova.create("a").unwrap();
        nova.write(a, 0, &pages(1, 4)).unwrap();
        let node = dwq.pop_batch(1)[0];
        let stage1 = |node: &DwqNode| prefingerprint(&nova, &fact, node, &mut Duration::default());
        let stage2 = |node: &DwqNode| commit(&nova, &fact, node, &[], &mut Duration::default());
        // File data where a log entry should be.
        let data = DwqNode {
            entry_off: nova.layout().block_off(blocks_of(&nova, a, 0..1)[0]),
            ..node
        };
        assert!(stage1(&data).is_empty());
        assert!(matches!(stage2(&data), Err(NovaError::Corrupt(_))));
        // An entry of another inode: decodes, maps nothing of this one.
        let b = nova.create("b").unwrap();
        nova.write(b, 0, &pages(2, 4)).unwrap();
        let foreign = DwqNode {
            ino: a,
            ..dwq.pop_batch(1)[0]
        };
        assert!(stage1(&foreign).is_empty());
        // No such inode.
        let gone = DwqNode { ino: 99, ..node };
        assert!(stage1(&gone).is_empty());
        assert!(matches!(stage2(&gone), Err(NovaError::BadInode(99))));
        // An entry already processed.
        dedup_entry(&nova, &fact, &node).unwrap();
        assert!(stage1(&node).is_empty());
        assert_eq!(stage2(&node), Ok(DedupOutcome::AlreadyProcessed));
    }

    #[test]
    fn dwq_lingering_recorded_via_real_flow() {
        let (nova, fact, dwq) = setup();
        let a = nova.create("a").unwrap();
        nova.write(a, 0, &vec![1u8; 4096]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t0 = Instant::now();
        drain(&nova, &fact, &dwq);
        let _ = t0;
        let lingering = fact.stats().lingering_ns();
        assert_eq!(lingering.len(), 1);
        assert!(lingering[0] >= 2_000_000);
    }
}
