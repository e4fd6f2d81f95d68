//! Durable records for cross-shard rename/link: file-based two-phase commit.
//!
//! A cross-shard rename (or link, which degrades to a copy — hard links
//! cannot span devices) involves two owners: the *coordinator* (owner of the
//! source name) and the *participant* (owner of the destination name). Each
//! side journals its progress as ordinary files under the reserved
//! [`denova_nova::PREPARE_PREFIX`] name prefix, which buys crash safety for
//! free: NOVA writes are durable at return, mount-time recovery surfaces
//! leftover records ([`denova_nova::Nova::orphan_prepares`]), and fsck/FACT
//! audits see them as regular files.
//!
//! Protocol (presumed abort):
//!
//! 1. Coordinator durably writes `.2pc.<txid>` (phase **Prepared**, op kind,
//!    source, destination, peer shard).
//! 2. Coordinator streams the source content to the participant via
//!    `TxPrepare` chunks; the participant stages it in `.2pc.stage.<txid>`
//!    and durably writes its own `.2pc.<txid>` participant record.
//! 3. **Commit point**: the coordinator flips its record's phase byte to
//!    **Committed** (a single in-place durable write at offset 0).
//! 4. Coordinator sends `TxCommit`; the participant renames the staged file
//!    over the destination and deletes its record (idempotent — a replayed
//!    commit for an unknown txid acknowledges).
//! 5. Coordinator unlinks the source (rename only) and its record.
//!
//! A crash before step 3 resolves to abort — the coordinator's record reads
//! Prepared, and `TxStatus` answers `None`/`Prepared` to a probing
//! participant. A crash after step 3 resolves forward — recovery re-sends
//! `TxCommit` and finishes step 5. Both directions are driven by
//! [`crate::node::ClusterNode::resolve_orphans`] at startup.

use denova_nova::PREPARE_PREFIX;
use denova_svc::{wire_enum, wire_struct, TxState};

/// Phase byte values (offset 0 of a record file, so the commit-point flip
/// is a one-byte overwrite).
pub mod phase {
    /// Journaled, not yet decided.
    pub const PREPARED: u8 = 1;
    /// Durably decided: apply.
    pub const COMMITTED: u8 = 2;
    /// Durably decided: roll back.
    pub const ABORTED: u8 = 3;
}

wire_enum! {
    /// Which side of the transaction wrote this record.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Role else "unknown tx role" {
        /// Owner of the source name; holds the commit point.
        1 "coordinator" Coordinator,
        /// Owner of the destination name; stages the content.
        2 "participant" Participant,
    }
}

wire_enum! {
    /// The operation a transaction carries.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TxKind else "unknown tx kind" {
        /// Move `from` (coordinator shard) to `to` (participant shard).
        1 "rename" Rename,
        /// Copy `existing` (coordinator shard) to `new_name` (participant
        /// shard). A cross-shard link cannot share an inode, so it degrades
        /// to an independent copy — documented divergence from single-shard
        /// link.
        2 "link" Link,
    }
}

wire_struct! {
    /// A `.2pc.<txid>` record (either role), as stored in its record file:
    /// its fields in declaration order, so the phase byte lands at offset 0
    /// ([`denova_svc::codec::Wire::to_bytes`] / `from_bytes`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TxRecord {
        /// Current phase byte.
        pub phase: u8,
        /// Which side wrote it.
        pub role: Role,
        /// Operation kind.
        pub kind: TxKind,
        /// Source name (coordinator records only; empty for participants).
        pub from: String,
        /// Destination name.
        pub to: String,
        /// The other side's shard.
        pub peer_shard: u32,
    }
}

impl TxRecord {
    /// The [`TxState`] this record's phase answers to `TxStatus`.
    pub fn state(&self) -> TxState {
        match self.phase {
            phase::PREPARED => TxState::Prepared,
            phase::COMMITTED => TxState::Committed,
            _ => TxState::Aborted,
        }
    }
}

/// Record file name for `txid`.
pub fn record_name(txid: u64) -> String {
    format!("{PREPARE_PREFIX}{txid:016x}")
}

/// Staged-content file name for `txid`.
pub fn stage_name(txid: u64) -> String {
    format!("{PREPARE_PREFIX}stage.{txid:016x}")
}

/// Parse a record file name back to its txid; `None` for stage files and
/// foreign names.
pub fn parse_record_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix(PREPARE_PREFIX)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

wire_struct! {
    /// One `TxPrepare` chunk, the opaque payload of that request:
    /// destination, kind, coordinator shard, then a slice of the staged
    /// content. `total` repeats in every chunk so the participant can
    /// validate completion without extra round trips.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PrepareChunk {
        /// Destination name on the participant shard.
        pub to: String,
        /// Operation kind.
        pub kind: TxKind,
        /// Coordinator's shard (where `TxStatus` is answered).
        pub coord_shard: u32,
        /// Byte offset of `data` within the staged content.
        pub offset: u64,
        /// Total staged-content size in bytes.
        pub total: u64,
        /// This chunk's bytes.
        pub data: Vec<u8>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use denova_svc::codec::Wire;

    #[test]
    fn records_round_trip_and_flip_phase_in_place() {
        let rec = TxRecord {
            phase: phase::PREPARED,
            role: Role::Coordinator,
            kind: TxKind::Rename,
            from: "a/src".into(),
            to: "b/dst".into(),
            peer_shard: 3,
        };
        let mut bytes = rec.to_bytes();
        assert_eq!(TxRecord::from_bytes(&bytes).unwrap(), rec);
        assert_eq!(rec.state(), denova_svc::TxState::Prepared);
        // The commit point is a one-byte overwrite at offset 0.
        bytes[0] = phase::COMMITTED;
        let committed = TxRecord::from_bytes(&bytes).unwrap();
        assert_eq!(committed.state(), denova_svc::TxState::Committed);
        assert_eq!(committed.to, "b/dst");
    }

    #[test]
    fn names_round_trip_and_stage_files_are_not_records() {
        let txid = 0xdead_beef_0042u64;
        assert_eq!(parse_record_name(&record_name(txid)), Some(txid));
        assert_eq!(parse_record_name(&stage_name(txid)), None);
        assert_eq!(parse_record_name("ordinary.dat"), None);
        assert!(record_name(txid).starts_with(PREPARE_PREFIX));
        assert!(stage_name(txid).starts_with(PREPARE_PREFIX));
    }

    #[test]
    fn prepare_chunks_round_trip() {
        let c = PrepareChunk {
            to: "dst".into(),
            kind: TxKind::Link,
            coord_shard: 1,
            offset: 4096,
            total: 8192,
            data: vec![7u8; 4096],
        };
        assert_eq!(PrepareChunk::from_bytes(&c.to_bytes()).unwrap(), c);
        assert!(PrepareChunk::from_bytes(&[0, 1]).is_err());
    }
}
