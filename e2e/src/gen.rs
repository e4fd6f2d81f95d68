//! Seeded inputs: page content, the four workloads' operation streams, and
//! the bench-side model of what every file page must read back as.
//!
//! The benchmark owns its generators (it does not borrow `denova-workload`'s
//! or the `rand` shim) so that its inputs cannot change when a later PR
//! edits those crates: parent and change must see identical bytes. The
//! shapes mirror `DataGenerator` (exact duplicate ratio by error diffusion
//! over 64 shared pages) and `ImageSpec::vm_image` (24 data + 8 zero pages
//! per 32-page cycle, 2 % of data pages rewritten per clone).

pub const PAGE: usize = 4096;
pub const KIB: usize = 1024;
pub const MIB: usize = 1024 * 1024;

/// splitmix64: small, fast, and good enough to drive offsets and content.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Identity of one page's content. 0 is the all-zero page; any other id
/// expands (with the run's seed) to 4 KiB of incompressible bytes, so two
/// pages are byte-identical exactly when their ids are equal.
pub type ContentId = u64;

/// Position-weighted word sum. Cheap enough to run on every page read back
/// (it vectorises), catches any changed, moved or zeroed word, and is 0 for
/// the all-zero page.
pub fn checksum(page: &[u8]) -> u64 {
    let mut sum = 0u64;
    for (i, w) in page.chunks_exact(8).enumerate() {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        sum = sum.wrapping_add(w.wrapping_mul(2 * i as u64 + 1));
    }
    sum
}

/// Expand `id` into `page` and return the page's [`checksum`].
pub fn fill_page(seed: u64, id: ContentId, page: &mut [u8]) -> u64 {
    debug_assert_eq!(page.len(), PAGE);
    if id == 0 {
        page.fill(0);
        return 0;
    }
    let mut rng = Rng::new(seed.wrapping_mul(0xA076_1D64_78BD_642F) ^ id);
    let mut sum = 0u64;
    for (i, w) in page.chunks_exact_mut(8).enumerate() {
        // `| 1` keeps every word non-zero: a data page never contains a
        // zero word, so it can never be mistaken for (part of) a hole.
        let v = rng.next_u64() | 1;
        w.copy_from_slice(&v.to_le_bytes());
        sum = sum.wrapping_add(v.wrapping_mul(2 * i as u64 + 1));
    }
    sum
}

/// Ids of the duplicate pool: 64 pages that live in a file of their own,
/// written during set-up and never overwritten.
///
/// Duplicates are drawn from this static pool rather than from a ring of
/// recently written pages. With a ring, the last reference to a canonical
/// block is routinely dropped (its page overwritten) while the daemon is
/// adding a new sharer of the same fingerprint; at the commit this benchmark
/// was defined on, `reclaim_block` frees the block in that window (`dec_rfc`
/// reaching 0 and `Fact::remove` are not atomic against
/// `try_reserve_existing`), which showed as wrong content / fsck
/// `UseAfterFree` in about one `put4k` or `mixed_rw` run in ten. A workload
/// must not fail on the code it baselines, so the pool keeps every
/// canonical block referenced; README.md records the finding.
pub const POOL_PAGES: usize = 64;

/// The top byte of a content id says which generator made it, so ids of
/// different generators never collide: 1 preload, 2 main-phase streams,
/// 3 main-phase clone mutations, 6 and 7 the same for the ladder.
const TEMPLATE_TAG: u64 = 4;
const POOL_TAG: u64 = 5;

pub fn pool_ids() -> Vec<ContentId> {
    (1..=POOL_PAGES as u64)
        .map(|k| (POOL_TAG << 56) | k)
        .collect()
}

/// Page-id stream with an exact duplicate ratio (error diffusion, as fio's
/// `dedupe_percentage`): a duplicate is one of the [`pool_ids`], anything
/// else a never-repeated id.
#[derive(Debug, Clone)]
pub struct PageStream {
    rng: Rng,
    alpha: f64,
    credit: f64,
    tag: u64,
    counter: u64,
}

impl PageStream {
    pub fn new(seed: u64, tag: u64, alpha: f64) -> PageStream {
        assert!((0.0..=1.0).contains(&alpha));
        assert!((1..=255).contains(&tag) && tag != TEMPLATE_TAG && tag != POOL_TAG);
        PageStream {
            rng: Rng::new(seed ^ (tag << 32)),
            alpha,
            credit: 0.0,
            tag,
            counter: 0,
        }
    }

    pub fn next_id(&mut self) -> ContentId {
        self.credit += self.alpha;
        if self.credit >= 1.0 {
            self.credit -= 1.0;
            return (POOL_TAG << 56) | (1 + self.rng.below(POOL_PAGES as u64));
        }
        self.counter += 1;
        (self.tag << 56) | self.counter
    }
}

/// One request of a workload, content given as page ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Write {
        file: usize,
        page: usize,
        content: Vec<ContentId>,
    },
    Read {
        file: usize,
        page: usize,
        pages: usize,
    },
}

/// Pages per read request in every read phase: 256 KiB.
pub const READ_PAGES: usize = 256 * KIB / PAGE;

/// What a workload's operations look like; everything that differs between
/// the workloads beyond the numbers in [`Spec`] hangs off this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Random aligned 4 KiB overwrites.
    Put4k,
    /// Sequential unique 1 MiB writes into a per-file ring.
    Stream1m,
    /// Reads on one connection beside 4 KiB overwrites on another.
    MixedRw,
    /// Clones of one image, one file each.
    VmClone,
}

/// Static shape of one workload. Operation counts are fixed per second of
/// `--seconds` (not durations), so every count in a report repeats exactly
/// for a given `--seconds`. The rates are sized so that on the 2-vCPU
/// reference host the measured phases together last about `--seconds`:
/// where reads follow the drain, writes get ~70 % of it and reads ~30 %.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub shape: Shape,
    pub why: &'static str,
    pub files: usize,
    pub file_pages: usize,
    /// Duplicate ratio of the preloaded content; `None` = files start empty.
    pub preload_alpha: Option<f64>,
    pub device_bytes: usize,
    pub write_iodepth: usize,
    pub read_iodepth: usize,
    /// Main-phase write requests per second of `--seconds`.
    pub writes_per_s: usize,
    /// Read requests per second of `--seconds` (concurrent with the writes
    /// on `mixed_rw`, a separate phase after the drain elsewhere).
    pub reads_per_s: usize,
    /// Operations per ladder rung per second of `--seconds`.
    pub ladder_ops_per_s: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "put4k",
        shape: Shape::Put4k,
        why: "random aligned 4 KiB overwrites at iodepth 8: per-request cost (proto, reactor, pool, log append, fences) dominates; bypasses bulk copy and extents",
        files: 16,
        file_pages: MIB / PAGE,
        preload_alpha: Some(0.5),
        device_bytes: 256 * MIB,
        write_iodepth: 8,
        read_iodepth: 4,
        writes_per_s: 14_000,
        reads_per_s: 1_650,
        ladder_ops_per_s: 400,
    },
    Spec {
        name: "stream1m",
        shape: Shape::Stream1m,
        why: "sequential unique 1 MiB writes into a ring at iodepth 4: per-byte cost (frame copy, write_v+flush, SHA-1, FACT inserts) dominates; per-request overhead under 2 %",
        files: 8,
        file_pages: 32 * MIB / PAGE,
        preload_alpha: None,
        device_bytes: 512 * MIB,
        write_iodepth: 4,
        read_iodepth: 4,
        writes_per_s: 160,
        reads_per_s: 1_800,
        ladder_ops_per_s: 6,
    },
    Spec {
        name: "mixed_rw",
        shape: Shape::MixedRw,
        why: "256 KiB verified reads beside 4 KiB overwrites on the same fragmented inodes: the read path (seqlock retries, 64 device reads per call) under a live writer and daemon",
        files: 16,
        file_pages: 8 * MIB / PAGE,
        preload_alpha: Some(0.5),
        device_bytes: 384 * MIB,
        write_iodepth: 4,
        read_iodepth: 4,
        writes_per_s: 0, // conn B writes until conn A has finished
        reads_per_s: 3_600,
        ladder_ops_per_s: 20,
    },
    Spec {
        name: "vm_clone",
        shape: Shape::VmClone,
        why: "VM-image clones in 1 MiB writes: same wire/nova path as stream1m but FACT hits, extent promotion and zero elision do the work; read-back runs on contiguous extents",
        // One file per clone, never overwritten: at most 128 clones a run.
        files: 128,
        file_pages: 16 * MIB / PAGE,
        preload_alpha: None,
        // Room for ~75 clones with no dedup at all (a quarter of every
        // clone is zeros, which are never stored).
        device_bytes: 1024 * MIB,
        write_iodepth: 4,
        read_iodepth: 4,
        writes_per_s: 120,
        reads_per_s: 1_650,
        ladder_ops_per_s: 6,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Client connections (= load-generator threads): `mixed_rw` reads on
    /// one and writes on another, the rest use one.
    pub fn conns(&self) -> usize {
        if self.shape == Shape::MixedRw {
            2
        } else {
            1
        }
    }

    /// Ids every file is preloaded with during set-up (empty = the file
    /// starts empty). One more file follows the workload's own: the
    /// duplicate pool, which no operation ever touches again.
    pub fn preload(&self, seed: u64) -> Vec<Vec<ContentId>> {
        let mut files = match self.preload_alpha {
            None => vec![Vec::new(); self.files],
            Some(alpha) => {
                let mut stream = PageStream::new(seed, 1, alpha);
                (0..self.files)
                    .map(|_| (0..self.file_pages).map(|_| stream.next_id()).collect())
                    .collect()
            }
        };
        files.push(pool_ids());
        files
    }

    /// Main-phase write requests for `--seconds`. `vm_clone` stops at one
    /// clone per file: rewriting a deduplicated clone is a different
    /// workload (and one the program does not survive yet, see README.md).
    pub fn write_ops(&self, seconds: f64) -> usize {
        let n = (self.writes_per_s as f64 * seconds) as usize;
        if self.shape == Shape::VmClone {
            let chunks = self.file_pages / (MIB / PAGE);
            (n / chunks).clamp(1, self.files) * chunks
        } else {
            n
        }
    }

    pub fn read_ops(&self, seconds: f64) -> usize {
        (self.reads_per_s as f64 * seconds) as usize
    }

    /// The main-phase write stream (unbounded; the runner takes what the
    /// spec's rate and `--seconds` say).
    pub fn writes(&self, seed: u64) -> Box<dyn Iterator<Item = Op> + Send> {
        self.write_stream(seed, 2, 0)
    }

    /// The write stream for the ladder: same shape, but its own offsets and
    /// never-before-seen unique content, and on `vm_clone` starting at file
    /// `first_file` so no clone is rewritten.
    pub fn ladder_writes(
        &self,
        seed: u64,
        first_file: usize,
    ) -> Box<dyn Iterator<Item = Op> + Send> {
        self.write_stream(seed ^ 0x1add_e400, 6, first_file)
    }

    /// `tag` and `tag + 1` mark this stream's unique page ids.
    fn write_stream(
        &self,
        seed: u64,
        tag: u64,
        first_file: usize,
    ) -> Box<dyn Iterator<Item = Op> + Send> {
        let s = *self;
        match self.shape {
            Shape::Put4k => {
                let mut rng = Rng::new(seed ^ 0x7075_7434);
                let mut content = PageStream::new(seed, tag, 0.5);
                Box::new(std::iter::repeat_with(move || Op::Write {
                    file: rng.below(s.files as u64) as usize,
                    page: rng.below(s.file_pages as u64) as usize,
                    content: vec![content.next_id()],
                }))
            }
            Shape::MixedRw => {
                // The last eighth of each file; conn A reads the rest.
                let mut rng = Rng::new(seed ^ 0x6D69_7864);
                let mut content = PageStream::new(seed, tag, 0.5);
                let hot = s.file_pages / 8;
                Box::new(std::iter::repeat_with(move || Op::Write {
                    file: rng.below(s.files as u64) as usize,
                    page: s.file_pages - hot + rng.below(hot as u64) as usize,
                    content: vec![content.next_id()],
                }))
            }
            Shape::Stream1m => {
                let mut content = PageStream::new(seed, tag, 0.0);
                let chunk = MIB / PAGE;
                let chunks = s.file_pages / chunk;
                Box::new((0usize..).map(move |i| Op::Write {
                    file: i % s.files,
                    page: (i / s.files) % chunks * chunk,
                    content: (0..chunk).map(|_| content.next_id()).collect(),
                }))
            }
            Shape::VmClone => Box::new(VmClones::new(seed, s, tag + 1, first_file)),
        }
    }

    /// The read stream: sequential 256 KiB requests, file after file over
    /// the first `files` files (those the write phase filled), wrapping.
    /// `mixed_rw` stops short of the eighth its writer owns, so every byte
    /// read has exactly one legal value.
    pub fn reads(&self, files: usize) -> impl Iterator<Item = Op> + Send {
        let mut s = *self;
        s.files = files.clamp(1, self.files);
        let readable = if s.shape == Shape::MixedRw {
            s.file_pages - s.file_pages / 8
        } else {
            s.file_pages
        };
        let per_file = readable / READ_PAGES;
        (0usize..).map(move |i| Op::Read {
            file: (i / per_file) % s.files,
            page: (i % per_file) * READ_PAGES,
            pages: READ_PAGES,
        })
    }
}

/// Clones of one golden image, written clone after clone, one file each,
/// in 1 MiB requests.
struct VmClones {
    spec: Spec,
    rng: Rng,
    template: Vec<ContentId>,
    current: Vec<ContentId>,
    /// Marks this stream's mutated pages.
    tag: u64,
    clone: usize,
    chunk: usize,
    counter: u64,
}

const VM_DATA_RUN: usize = 24;
const VM_CYCLE: usize = 32;
const VM_MUTATION: f64 = 0.02;

impl VmClones {
    fn new(seed: u64, spec: Spec, tag: u64, first_file: usize) -> VmClones {
        let template: Vec<ContentId> = (0..spec.file_pages)
            .map(|p| {
                if p % VM_CYCLE < VM_DATA_RUN {
                    (TEMPLATE_TAG << 56) | (p as u64 + 1)
                } else {
                    0
                }
            })
            .collect();
        VmClones {
            spec,
            rng: Rng::new(seed ^ 0x766D_636C),
            current: template.clone(),
            template,
            tag,
            clone: first_file,
            chunk: 0,
            counter: 0,
        }
    }

    /// The first clone is the pristine template; every later one rewrites
    /// 2 % of its data pages with fresh unique content.
    fn start_clone(&mut self) {
        self.current.clone_from(&self.template);
        if self.clone == 0 {
            return;
        }
        let data_pages = self.template.iter().filter(|&&id| id != 0).count();
        let budget = (data_pages as f64 * VM_MUTATION).round() as usize;
        let mut done = 0;
        while done < budget {
            let p = self.rng.below(self.spec.file_pages as u64) as usize;
            if self.template[p] == 0 {
                continue;
            }
            self.counter += 1;
            self.current[p] = (self.tag << 56) | self.counter;
            done += 1;
        }
    }
}

impl Iterator for VmClones {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let chunk_pages = MIB / PAGE;
        let chunks = self.spec.file_pages / chunk_pages;
        if self.chunk == 0 {
            self.start_clone();
        }
        let page = self.chunk * chunk_pages;
        let op = Op::Write {
            file: self.clone % self.spec.files,
            page,
            content: self.current[page..page + chunk_pages].to_vec(),
        };
        self.chunk += 1;
        if self.chunk == chunks {
            self.chunk = 0;
            self.clone += 1;
        }
        Some(op)
    }
}

/// What every page of every file must read back as: the checksum of the
/// content last *sent* to it. Same-inode requests are FIFO within a shard,
/// so with one writer per page "last sent" is also "last applied".
#[derive(Debug, Clone)]
pub struct Model {
    pub files: Vec<FileModel>,
}

#[derive(Debug, Clone)]
pub struct FileModel {
    pub name: String,
    pub ino: u64,
    /// Expected checksum per page; the vector's length is the file's size
    /// in pages (never-written pages inside it read as zeros = 0).
    pub pages: Vec<u64>,
}

impl Model {
    pub fn record_write(&mut self, file: usize, page: usize, sums: &[u64]) {
        let pages = &mut self.files[file].pages;
        if pages.len() < page + sums.len() {
            pages.resize(page + sums.len(), 0);
        }
        pages[page..page + sums.len()].copy_from_slice(sums);
    }

    /// Number of pages of `data` (read at `page` of `file`) that do not
    /// match, counting a short or long reply as all-wrong.
    pub fn mismatches(&self, file: usize, page: usize, pages: usize, data: &[u8]) -> usize {
        let expect = &self.files[file].pages;
        let end = (page + pages).min(expect.len());
        let want = &expect[page.min(end)..end];
        if data.len() != want.len() * PAGE {
            return pages.max(1);
        }
        data.chunks_exact(PAGE)
            .zip(want)
            .filter(|(got, &sum)| checksum(got) != sum)
            .count()
    }

    /// Bytes a full read-back of every file returns.
    pub fn logical_bytes(&self) -> u64 {
        self.files
            .iter()
            .map(|f| (f.pages.len() * PAGE) as u64)
            .sum()
    }
}

/// FNV-1a over an op prefix: the determinism fingerprint the unit tests pin.
#[cfg(test)]
pub fn stream_hash(ops: impl Iterator<Item = Op>, take: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for op in ops.take(take) {
        match op {
            Op::Write {
                file,
                page,
                content,
            } => {
                eat(1);
                eat(file as u64);
                eat(page as u64);
                content.iter().for_each(|&id| eat(id));
            }
            Op::Read { file, page, pages } => {
                eat(2);
                eat(file as u64);
                eat(page as u64);
                eat(pages as u64);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_is_deterministic_and_seeded() {
        let mut a = vec![0u8; PAGE];
        let mut b = vec![0u8; PAGE];
        let sa = fill_page(1, 77, &mut a);
        let sb = fill_page(1, 77, &mut b);
        assert_eq!((sa, &a), (sb, &b));
        assert_eq!(sa, checksum(&a));
        let sc = fill_page(2, 77, &mut b);
        assert_ne!(sa, sc, "the seed must reach the bytes");
        assert_ne!(a, b);
        assert_eq!(fill_page(1, 0, &mut a), 0);
        assert!(a.iter().all(|&x| x == 0));
        assert_eq!(checksum(&a), 0);
    }

    #[test]
    fn checksum_sees_moved_and_zeroed_words() {
        let mut p = vec![0u8; PAGE];
        let sum = fill_page(1, 5, &mut p);
        let mut swapped = p.clone();
        swapped.swap(0, 8);
        assert_ne!(checksum(&swapped), sum);
        let mut holed = p.clone();
        holed[512..520].fill(0);
        assert_ne!(checksum(&holed), sum);
    }

    #[test]
    fn page_stream_hits_its_duplicate_ratio_exactly() {
        let pool: std::collections::HashSet<_> = pool_ids().into_iter().collect();
        assert_eq!(pool.len(), POOL_PAGES);
        let mut s = PageStream::new(1, 2, 0.5);
        let ids: Vec<_> = (0..10_000).map(|_| s.next_id()).collect();
        let (dups, uniques): (Vec<ContentId>, Vec<ContentId>) =
            ids.iter().partition(|id| pool.contains(*id));
        assert_eq!((dups.len(), uniques.len()), (5_000, 5_000));
        let distinct: std::collections::HashSet<_> = uniques.iter().collect();
        assert_eq!(distinct.len(), 5_000, "a unique id never repeats");
        let mut u = PageStream::new(1, 2, 0.0);
        assert!((0..1000).all(|_| !pool.contains(&u.next_id())));
    }

    #[test]
    fn vm_clones_share_the_template_and_a_quarter_is_zero() {
        let s = spec("vm_clone").unwrap();
        let ops: Vec<Op> = s.writes(1).take(32).collect();
        let flat = |ops: &[Op]| -> Vec<ContentId> {
            ops.iter()
                .flat_map(|o| match o {
                    Op::Write { content, .. } => content.clone(),
                    _ => unreachable!(),
                })
                .collect()
        };
        let (first, second) = (flat(&ops[..16]), flat(&ops[16..]));
        assert_eq!(first.len(), s.file_pages);
        assert_eq!(
            first.iter().filter(|&&id| id == 0).count(),
            s.file_pages / 4
        );
        let differ = first.iter().zip(&second).filter(|(a, b)| a != b).count();
        assert!((1..=62).contains(&differ), "{differ} pages differ");
        assert!(matches!(
            ops[16],
            Op::Write {
                file: 1,
                page: 0,
                ..
            }
        ));
    }

    #[test]
    fn reads_stay_out_of_the_writers_eighth_on_mixed_rw() {
        let s = spec("mixed_rw").unwrap();
        let hot_start = s.file_pages - s.file_pages / 8;
        for op in s.reads(s.files).take(2_000) {
            let Op::Read { file, page, pages } = op else {
                unreachable!()
            };
            assert!(file < s.files && page + pages <= hot_start);
        }
        for op in s.writes(1).take(2_000) {
            let Op::Write { page, .. } = op else {
                unreachable!()
            };
            assert!((hot_start..s.file_pages).contains(&page));
        }
    }

    #[test]
    fn model_counts_mismatching_pages() {
        let mut m = Model {
            files: vec![FileModel {
                name: "f".into(),
                ino: 1,
                pages: vec![0; 4],
            }],
        };
        let mut data = vec![0u8; 2 * PAGE];
        let s0 = fill_page(1, 9, &mut data[..PAGE]);
        let s1 = fill_page(1, 10, &mut data[PAGE..]);
        m.record_write(0, 1, &[s0, s1]);
        assert_eq!(m.mismatches(0, 1, 2, &data), 0);
        assert_eq!(m.mismatches(0, 0, 2, &data), 2);
        data[PAGE + 100] ^= 1;
        assert_eq!(m.mismatches(0, 1, 2, &data), 1);
        assert_eq!(m.mismatches(0, 1, 2, &data[..PAGE]), 2, "short reply");
        // A read reaching past EOF must come back short.
        assert_eq!(m.mismatches(0, 3, 2, &[0u8; PAGE]), 0);
        assert_eq!(m.logical_bytes(), 4 * PAGE as u64);
    }

    /// Op-stream determinism: the first 10 000 ops of every workload, for
    /// seeds 1 and 2. A change to these hashes changes the benchmark's
    /// inputs and therefore needs a re-measured baseline.
    #[test]
    fn op_streams_are_pinned() {
        let hash = |name: &str, seed: u64| {
            let s = spec(name).unwrap();
            let preload = s
                .preload(seed)
                .into_iter()
                .enumerate()
                .map(|(file, content)| Op::Write {
                    file,
                    page: 0,
                    content,
                });
            let ops = preload
                .chain(s.writes(seed).take(10_000))
                .chain(s.reads(s.files).take(10_000));
            stream_hash(ops, usize::MAX)
        };
        let got: Vec<(&str, u64, u64)> = SPECS
            .iter()
            .flat_map(|s| [1u64, 2].map(|seed| (s.name, seed, hash(s.name, seed))))
            .collect();
        assert_eq!(got, PINNED_STREAM_HASHES, "an op stream changed");
    }

    // stream1m hashes alike for both seeds: its ids and offsets are counted,
    // not drawn; the seed reaches its bytes through `fill_page`.
    const PINNED_STREAM_HASHES: [(&str, u64, u64); 8] = [
        ("put4k", 1, 9245969206359704140),
        ("put4k", 2, 1246983159951013412),
        ("stream1m", 1, 824460356544467007),
        ("stream1m", 2, 824460356544467007),
        ("mixed_rw", 1, 16365302760130684048),
        ("mixed_rw", 2, 2947755330536585141),
        ("vm_clone", 1, 15123963636431889495),
        ("vm_clone", 2, 15697284505230189335),
    ];
}
