//! A NOVA-like log-structured file system for (emulated) persistent memory.
//!
//! This crate reproduces the NOVA mechanisms the DeNova paper builds on
//! (Xu & Swanson, FAST '16, as summarized in DeNova Section II-A):
//!
//! * **per-inode logs** — metadata lives in 64 B entries appended to a
//!   linked list of 4 KB log pages ([`log`]);
//! * **copy-on-write data** — every write allocates fresh 4 KB pages, so
//!   logs stay small and writes are atomic ([`Nova::write`]);
//! * **atomic commit** — a transaction becomes durable with one atomic
//!   64-bit store to the inode's log tail ([`inode`]);
//! * **DRAM radix tree** — per-file page index rebuilt from the log on
//!   recovery ([`index`]);
//! * **per-CPU free lists** — scalable block allocation, rebuilt from an
//!   occupied-page bitmap after a crash ([`alloc`], [`recovery`]);
//! * **fast GC** — dead log pages unlink in O(1) ([`gc`]).
//!
//! The dedup layer (`denova` crate) attaches through [`hooks::NovaHooks`]:
//! committed write entries flow to the DWQ, and block reclaim consults FACT
//! reference counts, exactly as Section IV-D prescribes.

#![warn(missing_docs)]

pub mod alloc;
pub mod entry;
pub mod error;
pub mod file;
pub mod fs;
pub mod fsck;
pub mod gc;
pub mod hooks;
pub mod index;
pub mod inode;
pub mod layout;
pub mod log;
pub mod recovery;
pub mod stats;
pub mod superblock;
pub mod tap;

pub use alloc::{Allocator, BlockBitmap};
pub use entry::{AttrEntry, DedupeFlag, DentryEntry, EntryType, LogEntry, WriteEntry};
pub use error::{NovaError, Result};
pub use fs::{FileStat, InodeCtx, InodeMem, Nova, NovaOptions};
pub use fsck::{check as fsck, FsckError, FsckReport};
pub use hooks::{NoHooks, NovaHooks, ReclaimDecision};
pub use index::{EntryRef, RadixTree};
pub use layout::{Layout, BLOCK_SIZE, HOLE_BLOCK, LOG_ENTRY_SIZE, ROOT_INO};
pub use log::{LogIter, LogPosition};
pub use recovery::{DedupPending, LogWalk, PhaseCost};
pub use stats::NovaStats;
pub use tap::{FsOp, NoOpTap, OpTap};
