//! Log entries.
//!
//! Every log entry is exactly 64 B (one cache line), so appending an entry
//! costs one flush + fence before the atomic tail commit. The `WriteEntry`
//! carries the `dedupe_flag` byte that DeNova's consistency protocol is built
//! on (Fig. 5): it is updated in place with a single-byte store + flush,
//! which is atomic with respect to power failure.
//!
//! Entries carry an FNV-1a checksum over their first 56 bytes, the flag byte
//! read as zero, so recovery can reject a torn append (an entry whose line
//! was only partially persisted) — the NOVA paper relies on the tail pointer
//! for this, and the checksum gives us an independent integrity check at
//! negligible cost. Leaving the flag out of the checksum is what makes its
//! in-place update one store: a sealed entry stays valid whichever flag value
//! a crash leaves in it, and [`decode`] checks instead that the flag fits
//! the entry type.

use crate::error::{NovaError, Result};
use denova_pmem::PmemDevice;

/// Entry type tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EntryType {
    /// File data write (CoW pages).
    Write = 1,
    /// Directory entry add/remove in a directory inode's log.
    Dentry = 2,
    /// Attribute change (truncate).
    Attr = 3,
}

impl EntryType {
    fn from_u8(v: u8) -> Result<EntryType> {
        match v {
            1 => Ok(EntryType::Write),
            2 => Ok(EntryType::Dentry),
            3 => Ok(EntryType::Attr),
            _ => Err(NovaError::Corrupt("unknown log entry type")),
        }
    }
}

/// The dedupe-flag state machine of Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DedupeFlag {
    /// Freshly written, a candidate for deduplication.
    Needed = 0,
    /// Currently targeted by (or appended during) a dedup transaction.
    InProcess = 1,
    /// Deduplication finished for this entry.
    Complete = 2,
    /// Not a dedup candidate (dedup disabled, or an entry type that is never
    /// deduplicated).
    NotApplicable = 3,
}

impl DedupeFlag {
    /// `from_u8` accessor.
    pub fn from_u8(v: u8) -> Result<DedupeFlag> {
        match v {
            0 => Ok(DedupeFlag::Needed),
            1 => Ok(DedupeFlag::InProcess),
            2 => Ok(DedupeFlag::Complete),
            3 => Ok(DedupeFlag::NotApplicable),
            _ => Err(NovaError::Corrupt("invalid dedupe flag")),
        }
    }

    /// Legal transitions per Fig. 5: needed → in_process → complete.
    pub fn can_transition_to(self, next: DedupeFlag) -> bool {
        matches!(
            (self, next),
            (DedupeFlag::Needed, DedupeFlag::InProcess)
                | (DedupeFlag::InProcess, DedupeFlag::Complete)
        )
    }
}

/// Byte offset of the dedupe flag within any entry.
pub const DEDUPE_FLAG_OFFSET: u64 = 1;

/// A file-data write entry: `[file_pgoff, num_pages]` pointing at `num_pages`
/// contiguous data blocks starting at `block` (Fig. 1's `[filepgoff,
/// numpages]` notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteEntry {
    /// The `dedupe_flag` value.
    pub dedupe_flag: DedupeFlag,
    /// First file page offset covered.
    pub file_pgoff: u64,
    /// Number of contiguous pages.
    pub num_pages: u32,
    /// First data block number on the device.
    pub block: u64,
    /// File size after applying this write (recovery restores inode size
    /// from the last committed entry).
    pub size_after: u64,
    /// Monotonic transaction id; orders entries across log pages during
    /// recovery debugging.
    pub txid: u64,
    /// Hole entry: the covered pages are all-zero and own no data blocks.
    /// `block` is meaningless (encoded as 0) and the index maps the pages to
    /// the `HOLE_BLOCK` sentinel, which reads zero-fill.
    pub hole: bool,
}

/// A directory entry: adds or removes `name → ino` in the parent directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DentryEntry {
    /// True = add link, false = remove link.
    pub add: bool,
    /// The `ino` value.
    pub ino: u64,
    /// The `name` value.
    pub name: String,
    /// The `txid` value.
    pub txid: u64,
}

/// Maximum file-name bytes representable in a 64 B dentry.
pub const MAX_NAME_LEN: usize = 40;

/// An attribute-change entry (truncate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrEntry {
    /// The `new_size` value.
    pub new_size: u64,
    /// The `txid` value.
    pub txid: u64,
}

/// Any decoded log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogEntry {
    /// `Write` case.
    Write(WriteEntry),
    /// `Dentry` case.
    Dentry(DentryEntry),
    /// `Attr` case.
    Attr(AttrEntry),
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The checksum of an entry: FNV-1a over bytes 0..56 with the dedupe flag
/// read as zero.
fn checksum(b: &[u8; 64]) -> u64 {
    let mut sealed = [0u8; 56];
    sealed.copy_from_slice(&b[..56]);
    sealed[DEDUPE_FLAG_OFFSET as usize] = 0;
    fnv64(&sealed)
}

fn finish(buf: &mut [u8; 64]) {
    let csum = checksum(buf);
    buf[56..64].copy_from_slice(&csum.to_le_bytes());
}

impl WriteEntry {
    /// Serialize to the 64 B on-media format.
    pub fn encode(&self) -> [u8; 64] {
        let mut b = [0u8; 64];
        b[0] = EntryType::Write as u8;
        b[1] = self.dedupe_flag as u8;
        b[2] = self.hole as u8;
        b[4..8].copy_from_slice(&self.num_pages.to_le_bytes());
        b[8..16].copy_from_slice(&self.file_pgoff.to_le_bytes());
        b[16..24].copy_from_slice(&if self.hole { 0 } else { self.block }.to_le_bytes());
        b[24..32].copy_from_slice(&self.size_after.to_le_bytes());
        b[40..48].copy_from_slice(&self.txid.to_le_bytes());
        finish(&mut b);
        b
    }
}

impl DentryEntry {
    /// Serialize to the 64 B on-media format.
    pub fn encode(&self) -> Result<[u8; 64]> {
        let name = self.name.as_bytes();
        if name.len() > MAX_NAME_LEN {
            return Err(NovaError::NameTooLong);
        }
        let mut b = [0u8; 64];
        b[0] = EntryType::Dentry as u8;
        b[1] = DedupeFlag::NotApplicable as u8;
        b[2] = self.add as u8;
        b[3] = name.len() as u8;
        b[8..16].copy_from_slice(&self.ino.to_le_bytes());
        b[16..16 + name.len()].copy_from_slice(name);
        // Reuse the tx field at a fixed slot past the name area.
        // Names are ≤ 40 bytes (16..56 exclusive), so txid cannot live in
        // the first 56 bytes; fold it into the checksummed region by
        // storing the low 32 bits in bytes 4..8 instead.
        b[4..8].copy_from_slice(&(self.txid as u32).to_le_bytes());
        finish(&mut b);
        Ok(b)
    }
}

impl AttrEntry {
    /// Serialize to the 64 B on-media format.
    pub fn encode(&self) -> [u8; 64] {
        let mut b = [0u8; 64];
        b[0] = EntryType::Attr as u8;
        b[1] = DedupeFlag::NotApplicable as u8;
        b[8..16].copy_from_slice(&self.new_size.to_le_bytes());
        b[40..48].copy_from_slice(&self.txid.to_le_bytes());
        finish(&mut b);
        b
    }
}

/// Decode and checksum-verify a 64 B entry. The checksum does not cover the
/// dedupe flag, so the flag must fit the entry type instead: a Write may
/// carry any of the four (dedup-disabled and hole writes carry
/// `NotApplicable`), a Dentry or Attr only `NotApplicable`.
pub fn decode(b: &[u8; 64]) -> Result<LogEntry> {
    let stored = u64::from_le_bytes(b[56..64].try_into().unwrap());
    if stored != checksum(b) {
        return Err(NovaError::Corrupt("log entry checksum mismatch"));
    }
    let kind = EntryType::from_u8(b[0])?;
    let flag = DedupeFlag::from_u8(b[DEDUPE_FLAG_OFFSET as usize])?;
    if kind != EntryType::Write && flag != DedupeFlag::NotApplicable {
        return Err(NovaError::Corrupt(
            "dedupe flag does not fit the entry type",
        ));
    }
    match kind {
        EntryType::Write => Ok(LogEntry::Write(WriteEntry {
            dedupe_flag: flag,
            num_pages: u32::from_le_bytes(b[4..8].try_into().unwrap()),
            file_pgoff: u64::from_le_bytes(b[8..16].try_into().unwrap()),
            block: u64::from_le_bytes(b[16..24].try_into().unwrap()),
            size_after: u64::from_le_bytes(b[24..32].try_into().unwrap()),
            txid: u64::from_le_bytes(b[40..48].try_into().unwrap()),
            hole: b[2] & 1 == 1,
        })),
        EntryType::Dentry => {
            let len = b[3] as usize;
            if len > MAX_NAME_LEN {
                return Err(NovaError::Corrupt("dentry name length"));
            }
            let name = std::str::from_utf8(&b[16..16 + len])
                .map_err(|_| NovaError::Corrupt("dentry name utf8"))?
                .to_string();
            Ok(LogEntry::Dentry(DentryEntry {
                add: b[2] == 1,
                ino: u64::from_le_bytes(b[8..16].try_into().unwrap()),
                name,
                txid: u32::from_le_bytes(b[4..8].try_into().unwrap()) as u64,
            }))
        }
        EntryType::Attr => Ok(LogEntry::Attr(AttrEntry {
            new_size: u64::from_le_bytes(b[8..16].try_into().unwrap()),
            txid: u64::from_le_bytes(b[40..48].try_into().unwrap()),
        })),
    }
}

/// Read and decode the entry stored at device offset `off`.
pub fn read_entry(dev: &PmemDevice, off: u64) -> Result<LogEntry> {
    let mut b = [0u8; 64];
    dev.read_into(off, &mut b);
    decode(&b)
}

/// Read only the dedupe flag of the entry at `off` (one-byte PM read).
pub fn read_dedupe_flag(dev: &PmemDevice, off: u64) -> Result<DedupeFlag> {
    DedupeFlag::from_u8(dev.read_u8(off + DEDUPE_FLAG_OFFSET))
}

/// Update the dedupe flag of the entry at `off` in place: a single-byte
/// store, flush, and fence ("the dedupe-flag is updated in place with an
/// atomic write operation"). The checksum does not cover the flag, so it is
/// not rewritten: a crash leaves the old flag or the new one, never an entry
/// that fails its checksum.
pub fn write_dedupe_flag(dev: &PmemDevice, off: u64, flag: DedupeFlag) {
    dev.write_u8(off + DEDUPE_FLAG_OFFSET, flag as u8);
    dev.persist(off, 64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn we() -> WriteEntry {
        WriteEntry {
            dedupe_flag: DedupeFlag::Needed,
            file_pgoff: 2,
            num_pages: 2,
            block: 777,
            size_after: 16384,
            txid: 42,
            hole: false,
        }
    }

    #[test]
    fn hole_entry_roundtrip() {
        let e = WriteEntry {
            hole: true,
            block: 0,
            ..we()
        };
        assert_eq!(decode(&e.encode()).unwrap(), LogEntry::Write(e));
        // A hole never encodes a block number, whatever the caller left in
        // the field.
        let sloppy = WriteEntry { block: 777, ..e };
        match decode(&sloppy.encode()).unwrap() {
            LogEntry::Write(w) => {
                assert!(w.hole);
                assert_eq!(w.block, 0);
            }
            other => panic!("unexpected entry {other:?}"),
        }
    }

    #[test]
    fn write_entry_roundtrip() {
        let e = we();
        assert_eq!(decode(&e.encode()).unwrap(), LogEntry::Write(e));
    }

    #[test]
    fn dentry_roundtrip() {
        let e = DentryEntry {
            add: true,
            ino: 9,
            name: "hello.txt".to_string(),
            txid: 7,
        };
        assert_eq!(decode(&e.encode().unwrap()).unwrap(), LogEntry::Dentry(e));
    }

    #[test]
    fn dentry_remove_roundtrip() {
        let e = DentryEntry {
            add: false,
            ino: 9,
            name: "x".to_string(),
            txid: 1,
        };
        assert_eq!(decode(&e.encode().unwrap()).unwrap(), LogEntry::Dentry(e));
    }

    #[test]
    fn attr_roundtrip() {
        let e = AttrEntry {
            new_size: 4096,
            txid: 3,
        };
        assert_eq!(decode(&e.encode()).unwrap(), LogEntry::Attr(e));
    }

    #[test]
    fn name_too_long_rejected() {
        let e = DentryEntry {
            add: true,
            ino: 1,
            name: "x".repeat(MAX_NAME_LEN + 1),
            txid: 0,
        };
        assert_eq!(e.encode(), Err(NovaError::NameTooLong));
    }

    #[test]
    fn max_length_name_accepted() {
        let e = DentryEntry {
            add: true,
            ino: 1,
            name: "y".repeat(MAX_NAME_LEN),
            txid: 0,
        };
        assert_eq!(decode(&e.encode().unwrap()).unwrap(), LogEntry::Dentry(e));
    }

    #[test]
    fn corrupted_entry_detected() {
        let mut b = we().encode();
        b[20] ^= 0xFF;
        assert!(decode(&b).is_err());
    }

    #[test]
    fn zeroed_line_is_not_a_valid_entry() {
        // A torn append that persisted nothing must decode as corrupt, not as
        // a phantom entry.
        let b = [0u8; 64];
        assert!(decode(&b).is_err());
    }

    #[test]
    fn dedupe_flag_transitions_match_fig5() {
        use DedupeFlag::*;
        assert!(Needed.can_transition_to(InProcess));
        assert!(InProcess.can_transition_to(Complete));
        assert!(!Needed.can_transition_to(Complete));
        assert!(!Complete.can_transition_to(Needed));
        assert!(!Complete.can_transition_to(InProcess));
        assert!(!InProcess.can_transition_to(Needed));
    }

    #[test]
    fn flag_update_in_place_on_device() {
        let dev = PmemDevice::new(4096);
        let e = we();
        dev.write_persist(128, &e.encode());
        write_dedupe_flag(&dev, 128, DedupeFlag::InProcess);
        assert_eq!(read_dedupe_flag(&dev, 128).unwrap(), DedupeFlag::InProcess);
        // The whole entry must still decode.
        match read_entry(&dev, 128).unwrap() {
            LogEntry::Write(w) => {
                assert_eq!(w.dedupe_flag, DedupeFlag::InProcess);
                assert_eq!(w.block, e.block);
            }
            other => panic!("unexpected entry {other:?}"),
        }
    }

    #[test]
    fn the_flag_byte_alone_leaves_a_valid_entry() {
        // What an eviction can leave on media mid-update: the sealed entry
        // with only its flag byte changed.
        let dev = PmemDevice::new(4096);
        dev.write_persist(0, &we().encode());
        dev.write_u8(DEDUPE_FLAG_OFFSET, DedupeFlag::InProcess as u8);
        dev.persist(DEDUPE_FLAG_OFFSET, 1);
        let after = dev.crash_clone(denova_pmem::CrashMode::Strict);
        match read_entry(&after, 0).unwrap() {
            LogEntry::Write(w) => assert_eq!(
                w,
                WriteEntry {
                    dedupe_flag: DedupeFlag::InProcess,
                    ..we()
                }
            ),
            other => panic!("unexpected entry {other:?}"),
        }
    }

    #[test]
    fn a_flag_that_does_not_fit_the_entry_type_is_corrupt() {
        let dentry = DentryEntry {
            add: true,
            ino: 9,
            name: "a".to_string(),
            txid: 1,
        };
        for mut b in [
            dentry.encode().unwrap(),
            AttrEntry {
                new_size: 1,
                txid: 1,
            }
            .encode(),
        ] {
            b[DEDUPE_FLAG_OFFSET as usize] = DedupeFlag::Needed as u8;
            assert_eq!(
                decode(&b),
                Err(NovaError::Corrupt(
                    "dedupe flag does not fit the entry type"
                ))
            );
        }
        let mut b = we().encode();
        b[DEDUPE_FLAG_OFFSET as usize] = 4;
        assert!(decode(&b).is_err());
    }

    #[test]
    fn flag_update_is_failure_atomic() {
        let dev = PmemDevice::new(4096);
        dev.write_persist(0, &we().encode());
        // Update without persisting: crash reverts to Needed.
        let mut b = [0u8; 64];
        dev.read_into(0, &mut b);
        b[1] = DedupeFlag::InProcess as u8;
        dev.write(0, &b);
        let after = dev.crash_clone(denova_pmem::CrashMode::Strict);
        assert_eq!(read_dedupe_flag(&after, 0).unwrap(), DedupeFlag::Needed);
    }
}
