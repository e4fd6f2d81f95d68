//! Property test: the streaming [`LogIter`] — one block-sized device read
//! per log page, entries decoded from the buffer — yields exactly what a
//! per-entry reference walk (one 64 B device read per entry, one 8 B read
//! per footer link) yields, over random logs: multi-page chains, a tail
//! mid-page or exactly at a page's last slot, an empty log, pages recycled
//! with stale-but-valid entries beyond the tail, a corrupted entry before the
//! tail, a broken footer link, and a page linked behind the tail's page.

use denova_nova::entry::{read_entry, AttrEntry, DedupeFlag, DentryEntry, WriteEntry};
use denova_nova::inode::InodeTable;
use denova_nova::layout::{ENTRIES_PER_LOG_PAGE, LOG_PAGE_PAYLOAD};
use denova_nova::log::{append, log_pages, next_page, LogIter, LogPosition};
use denova_nova::{Allocator, Layout, LogEntry, NovaError, BLOCK_SIZE, LOG_ENTRY_SIZE};
use denova_pmem::PmemDevice;
use proptest::prelude::*;

const INO: u64 = 2;

type Walk = Vec<Result<(u64, LogEntry), NovaError>>;

/// The walk the streaming iterator replaced, entry by entry: stop after the
/// first error, as every caller does.
fn reference(dev: &PmemDevice, layout: &Layout, pos: LogPosition) -> Walk {
    let mut out = Vec::new();
    if pos.head == 0 || pos.tail == 0 {
        return out;
    }
    let mut cursor = layout.block_off(pos.head);
    while cursor != pos.tail {
        if cursor % BLOCK_SIZE >= LOG_PAGE_PAYLOAD {
            match next_page(dev, layout, cursor / BLOCK_SIZE) {
                0 => {
                    out.push(Err(NovaError::Corrupt("log chain ends before tail")));
                    break;
                }
                next => cursor = layout.block_off(next),
            }
            continue;
        }
        let item = read_entry(dev, cursor).map(|e| (cursor, e));
        cursor += LOG_ENTRY_SIZE;
        let failed = item.is_err();
        out.push(item);
        if failed {
            break;
        }
    }
    out
}

/// The streaming walk, its page chain and what it cost in device reads.
fn streaming(dev: &PmemDevice, layout: &Layout, pos: LogPosition) -> (Walk, Vec<u64>, u64) {
    let before = dev.stats().snapshot().reads;
    let mut log = LogIter::new(dev, layout, pos.head, pos.tail);
    let mut out = Vec::new();
    for item in &mut log {
        let failed = item.is_err();
        out.push(item);
        if failed {
            break;
        }
    }
    let pages = log.into_pages();
    (out, pages, dev.stats().snapshot().reads - before)
}

fn entry(i: u64) -> [u8; 64] {
    match i % 3 {
        0 => WriteEntry {
            dedupe_flag: [
                DedupeFlag::Needed,
                DedupeFlag::InProcess,
                DedupeFlag::Complete,
            ][(i / 3 % 3) as usize],
            file_pgoff: i,
            num_pages: 1 + (i % 5) as u32,
            block: 1000 + i,
            size_after: (i + 1) * BLOCK_SIZE,
            txid: i,
            hole: i.is_multiple_of(7),
        }
        .encode(),
        1 => AttrEntry {
            new_size: i * 100,
            txid: i,
        }
        .encode(),
        _ => DentryEntry {
            add: i.is_multiple_of(2),
            ino: i,
            name: format!("name-{i}"),
            txid: i,
        }
        .encode()
        .unwrap(),
    }
}

/// What is done to the log after it is built.
#[derive(Debug, Clone, Copy)]
enum Damage {
    None,
    /// Flip a byte of committed entry `pick % entries`.
    Entry,
    /// Zero the footer link of chain page `pick % (pages - 1)`.
    Footer,
    /// Link a fresh page behind the tail's page (an append that crashed
    /// between linking it and committing its tail).
    PageBehindTail,
}

fn build(entries: u64, damage: Damage, pick: u64) -> (PmemDevice, Layout, LogPosition) {
    let dev = PmemDevice::new(16 * 1024 * 1024);
    let layout = Layout::compute(dev.size() as u64, 64, 2);
    // Every block a log page will be carved from is full of stale entries
    // that decode: only the committed tail keeps them out of the walk.
    let stale = entry(999);
    for block in layout.data_start..layout.total_blocks {
        for slot in 0..BLOCK_SIZE / LOG_ENTRY_SIZE {
            dev.write(layout.block_off(block) + slot * LOG_ENTRY_SIZE, &stale);
        }
    }
    let alloc = Allocator::new(1, layout.data_start, layout.data_blocks());
    let table = InodeTable::new(&dev, &layout);
    table.init(INO, false).unwrap();
    let mut pos = LogPosition::default();
    // Several appends, so commits land mid-page and at page boundaries.
    let all: Vec<[u8; 64]> = (0..entries).map(entry).collect();
    for batch in all.chunks(17) {
        append(&dev, &layout, &alloc, &table, INO, &mut pos, batch, "prop").unwrap();
    }
    let chain = log_pages(&dev, &layout, pos.head);
    match damage {
        Damage::Entry if entries > 0 => {
            let victim = pick % entries;
            let page = chain[(victim / ENTRIES_PER_LOG_PAGE) as usize];
            let off = layout.block_off(page) + victim % ENTRIES_PER_LOG_PAGE * LOG_ENTRY_SIZE;
            dev.write_u8(off + 20, dev.read_u8(off + 20) ^ 0xFF);
        }
        Damage::Footer if chain.len() > 1 => {
            let page = chain[(pick % (chain.len() as u64 - 1)) as usize];
            dev.write_u64(layout.block_off(page) + LOG_PAGE_PAYLOAD, 0);
        }
        Damage::PageBehindTail if !chain.is_empty() => {
            let fresh = alloc.alloc_one().unwrap();
            dev.write_u64(layout.block_off(fresh) + LOG_PAGE_PAYLOAD, 0);
            let last = *chain.last().unwrap();
            dev.write_u64(layout.block_off(last) + LOG_PAGE_PAYLOAD, fresh);
        }
        _ => {}
    }
    (dev, layout, pos)
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::None),
        Just(Damage::None),
        Just(Damage::Entry),
        Just(Damage::Footer),
        Just(Damage::PageBehindTail),
    ]
}

fn entries_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..(4 * ENTRIES_PER_LOG_PAGE),
        // Tail exactly at a page's last slot (and the empty log).
        (0u64..4).prop_map(|pages| pages * ENTRIES_PER_LOG_PAGE),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_walk_equals_the_per_entry_walk(
        entries in entries_strategy(),
        damage in damage_strategy(),
        pick in any::<u64>(),
    ) {
        let (dev, layout, pos) = build(entries, damage, pick);
        let expected = reference(&dev, &layout, pos);
        let expected_pages = log_pages(&dev, &layout, pos.head);
        let (got, pages, reads) = streaming(&dev, &layout, pos);
        prop_assert_eq!(&got, &expected, "{} entries, {:?}", entries, damage);
        match damage {
            Damage::Entry if entries > 0 => prop_assert!(got.last().unwrap().is_err()),
            Damage::Footer if expected_pages.len() < pages_of(entries) => prop_assert_eq!(
                got.last().unwrap().clone().unwrap_err(),
                NovaError::Corrupt("log chain ends before tail")
            ),
            _ => {}
        }
        // The page chain the walk hands up is the footer chase's, at one
        // device read per page.
        prop_assert_eq!(&pages, &expected_pages);
        prop_assert_eq!(reads, pages.len() as u64);
    }
}

/// Pages a log of `entries` entries occupies.
fn pages_of(entries: u64) -> usize {
    entries.div_ceil(ENTRIES_PER_LOG_PAGE) as usize
}

#[test]
fn a_head_without_a_tail_yields_its_page_and_no_entry() {
    // A first append that crashed between persisting the head link and
    // committing the tail: recovery keeps the page, so the walk must too.
    let (dev, layout, _) = build(0, Damage::None, 0);
    let alloc = Allocator::new(1, layout.data_start, layout.data_blocks());
    let head = alloc.alloc_one().unwrap();
    dev.write_u64(layout.block_off(head) + LOG_PAGE_PAYLOAD, 0);
    let pos = LogPosition { head, tail: 0 };
    let (got, pages, reads) = streaming(&dev, &layout, pos);
    assert!(got.is_empty());
    assert_eq!(pages, vec![head]);
    assert_eq!(reads, 1);
}
