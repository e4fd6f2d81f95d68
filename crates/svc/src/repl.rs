//! The replication wire protocol: the `ReplMsg` frame family.
//!
//! Replication shares the service's transport and framing (see
//! [`crate::codec`]) but not its request/reply shape: a standby opens an
//! ordinary connection and sends a [`ReplMsg::Subscribe`] as its first
//! frame. Every replication frame starts with [`REPL_MAGIC`] — a sentinel
//! that can never collide with a request payload, whose first eight bytes
//! are a client-chosen `req_id` (clients count up from 1) — so the server
//! can recognize the handover and pass the connection to the replication
//! sink (see [`crate::Server::set_repl_sink`]).
//!
//! After the subscribe, the connection speaks only `ReplMsg`:
//!
//! * primary → standby: a full-state snapshot
//!   ([`ReplMsg::SnapshotBegin`]/[`ReplMsg::SnapshotChunk`]/[`ReplMsg::SnapshotEnd`])
//!   when the standby is fresh or fell out of the journal, then a stream of
//!   [`ReplMsg::Entries`] batches and idle [`ReplMsg::Heartbeat`]s;
//! * standby → primary: windowed [`ReplMsg::Ack`]s carrying the highest
//!   *applied* sequence number.
//!
//! Decoders are total: any byte string either decodes or returns a
//! [`DecodeError`]; trailing garbage is rejected. (Property-tested in
//! `tests/svc_wire_prop.rs`.)

use crate::codec::{row_of, Dec, DecodeError, Enc, Wire, WireEnum};
use crate::wire_enum;
use denova_nova::FsOp;

/// Sentinel opening every replication frame. Chosen so it cannot be a
/// plausible `req_id` prefix of a request payload (clients start at 1 and
/// increment; this is ~0xD5... with all high bytes set).
pub const REPL_MAGIC: u64 = 0xD5E0_4E4F_5641_5250; // "DENOVA-RP" flavored

wire_enum! {
    /// One replication frame, after [`REPL_MAGIC`]. Tags are stable wire
    /// ABI — never renumber.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ReplMsg else "unknown repl frame tag" {
        /// Standby → primary, first frame on the connection: start
        /// replication.
        1 "subscribe" Subscribe {
            /// Highest sequence number the standby has applied (0 = none).
            last_seq: u64,
            /// `true` to force a full snapshot (fresh standby with no state).
            want_snapshot: bool,
        },
        /// Primary → standby: a full-state snapshot transfer begins.
        2 "snapshot_begin" SnapshotBegin {
            /// Journal sequence number the snapshot covers (entries ≤ this
            /// are in the image; later entries will be streamed).
            upto_seq: u64,
            /// Total image size in bytes.
            total_bytes: u64,
            /// Number of [`ReplMsg::SnapshotChunk`] frames that follow.
            chunk_count: u32,
        },
        /// One chunk of the snapshot image, in order.
        3 "snapshot_chunk" SnapshotChunk {
            /// Chunk index (0-based, sequential).
            index: u32,
            /// Image bytes.
            data: Vec<u8>,
        },
        /// Snapshot transfer complete.
        4 "snapshot_end" SnapshotEnd {
            /// Total bytes sent, for verification.
            total_bytes: u64,
        },
        /// A batch of journal entries with consecutive sequence numbers.
        5 "entries" Entries {
            /// Sequence number of `ops[0]`.
            first_seq: u64,
            /// The operations, in commit order.
            ops: Vec<FsOp>,
        },
        /// Standby → primary: everything up to `seq` has been applied.
        6 "ack" Ack {
            /// Highest applied sequence number.
            seq: u64,
        },
        /// Primary → standby, when idle: liveness + lag visibility.
        7 "heartbeat" Heartbeat {
            /// The primary's journal head.
            head_seq: u64,
        },
        /// Primary → standby: your `last_seq` fell out of the bounded
        /// journal; reconnect with `want_snapshot` to rebuild from a full
        /// snapshot.
        8 "fell_behind" FellBehind,
    }
}

// A journal entry, encoded once at tap time (`FsOp::to_bytes`).
wire_enum! {
    impl FsOp else "unknown repl op tag" {
        1 "create" Create { name: String, ino: u64 },
        2 "write" Write { ino: u64, offset: u64, data: Vec<u8> },
        3 "unlink" Unlink { name: String },
        4 "link" Link { existing: String, new_name: String, ino: u64 },
        5 "rename" Rename { from: String, to: String },
        6 "truncate" Truncate { ino: u64, size: u64 },
    }
}

/// An [`ReplMsg::Entries`] batch: a `u32` count, then each op's standalone
/// encoding as length-prefixed bytes (what [`encode_entries_raw`] ships).
impl Wire for Vec<FsOp> {
    fn put(&self, e: &mut Enc) {
        e.u32(self.len() as u32);
        for op in self {
            e.bytes(&op.to_bytes());
        }
    }

    fn take(d: &mut Dec<'_>) -> Result<Vec<FsOp>, DecodeError> {
        d.counted(|d| FsOp::from_bytes(d.bytes()?))
    }
}

/// True when a frame payload is a replication frame (starts with
/// [`REPL_MAGIC`]).
pub fn is_repl_frame(payload: &[u8]) -> bool {
    payload.len() >= 8 && payload[..8] == REPL_MAGIC.to_le_bytes()
}

/// Build an `Entries` frame directly from pre-encoded ops (what the journal
/// stores), avoiding a decode/re-encode round trip on the primary.
pub fn encode_entries_raw(first_seq: u64, raw_ops: &[Vec<u8>]) -> Vec<u8> {
    const ENTRIES: usize = row_of(ReplMsg::ROWS, "entries");
    let mut e = Enc::new();
    e.u64(REPL_MAGIC)
        .u8(ReplMsg::ROWS[ENTRIES].0)
        .u64(first_seq)
        .u32(raw_ops.len() as u32);
    for raw in raw_ops {
        e.bytes(raw);
    }
    e.finish()
}

impl ReplMsg {
    /// Encode as a full frame payload: [`REPL_MAGIC`], then the row.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(REPL_MAGIC);
        self.put(&mut e);
        e.finish()
    }

    /// Decode a frame payload. Total: never panics, rejects trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<ReplMsg, DecodeError> {
        let mut d = Dec::new(payload);
        if d.u64()? != REPL_MAGIC {
            return Err(DecodeError("not a repl frame"));
        }
        let msg = ReplMsg::take(&mut d)?;
        d.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_ops() -> Vec<FsOp> {
        vec![
            FsOp::Create {
                name: "a".into(),
                ino: 2,
            },
            FsOp::Write {
                ino: 2,
                offset: 4096,
                data: vec![7; 100],
            },
            FsOp::Unlink { name: "a".into() },
            FsOp::Link {
                existing: "b".into(),
                new_name: "c".into(),
                ino: 3,
            },
            FsOp::Rename {
                from: "c".into(),
                to: "d".into(),
            },
            FsOp::Truncate { ino: 2, size: 50 },
        ]
    }

    #[test]
    fn messages_round_trip() {
        let msgs = vec![
            ReplMsg::Subscribe {
                last_seq: 17,
                want_snapshot: true,
            },
            ReplMsg::SnapshotBegin {
                upto_seq: 17,
                total_bytes: 1 << 20,
                chunk_count: 4,
            },
            ReplMsg::SnapshotChunk {
                index: 3,
                data: vec![1, 2, 3],
            },
            ReplMsg::SnapshotEnd {
                total_bytes: 1 << 20,
            },
            ReplMsg::Entries {
                first_seq: 18,
                ops: all_ops(),
            },
            ReplMsg::Ack { seq: 23 },
            ReplMsg::Heartbeat { head_seq: 23 },
            ReplMsg::FellBehind,
        ];
        for msg in msgs {
            let payload = msg.encode();
            assert!(is_repl_frame(&payload));
            assert_eq!(ReplMsg::decode(&payload).unwrap(), msg);
        }
    }

    #[test]
    fn raw_entries_encoding_matches_typed() {
        let ops = all_ops();
        let raw: Vec<Vec<u8>> = ops.iter().map(FsOp::to_bytes).collect();
        let frame = encode_entries_raw(9, &raw);
        assert_eq!(
            ReplMsg::decode(&frame).unwrap(),
            ReplMsg::Entries { first_seq: 9, ops }
        );
    }

    #[test]
    fn request_frames_are_not_repl_frames() {
        let req = crate::proto::Request::Ping.encode(1);
        assert!(!is_repl_frame(&req));
        assert!(ReplMsg::decode(&req).is_err());
    }

    #[test]
    fn malformed_payloads_fail_cleanly() {
        assert!(ReplMsg::decode(&[]).is_err());
        assert!(ReplMsg::decode(&REPL_MAGIC.to_le_bytes()).is_err());
        let mut p = ReplMsg::Ack { seq: 1 }.encode();
        p.push(0); // trailing garbage
        assert!(ReplMsg::decode(&p).is_err());
        assert!(FsOp::from_bytes(&[99]).is_err());
    }
}
