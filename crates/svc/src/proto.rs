//! The file-service wire protocol: requests, replies, and error codes.
//!
//! Every message is one frame (see [`crate::codec`]). A request payload is
//!
//! ```text
//! req_id:u64 | opcode:u8 | op-specific fields
//! ```
//!
//! with one row per opcode in [`Request`]'s table (see
//! [`crate::wire_enum`]); the matching reply is
//!
//! ```text
//! req_id:u64 | code:u16 | ok-body (code = 0)  or  detail:u64 msg:str (code ≠ 0)
//! ```
//!
//! Error codes `1..=99` are the stable [`NovaError::code`] values; `100..`
//! are service-layer codes ([`SvcError::BAD_REQUEST`] and friends). Replies
//! are matched to requests by `req_id`, which the client chooses; the server
//! echoes it verbatim, so pipelined clients can have several requests in
//! flight (bounded by the server's per-connection inflight cap).

use crate::codec::{row_of, Dec, DecodeError, Enc, Wire, WireEnum};
use crate::{wire_enum, wire_struct};
use denova_nova::{FileStat, NovaError};

wire_enum! {
    /// A decoded request. One row per opcode: the opcode is the stable wire
    /// ABI (never renumber), the name keys per-op telemetry
    /// (`svc.op.<name>.ns`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Request else "unknown opcode" metric "svc.op." {
        /// Liveness probe; echoes an empty body.
        1 "ping" Ping,
        /// Create an empty file by name → inode number.
        2 "create" Create {
            /// File name.
            name: String,
        },
        /// Look up a file by name → inode number.
        3 "open" Open {
            /// File name.
            name: String,
        },
        /// Read `len` bytes at `offset` → bytes (short at EOF).
        4 "read" Read {
            /// Inode number.
            ino: u64,
            /// Byte offset.
            offset: u64,
            /// Bytes requested.
            len: u32,
        },
        /// Write bytes at `offset` → bytes written.
        5 "write" Write {
            /// Inode number.
            ino: u64,
            /// Byte offset.
            offset: u64,
            /// Bytes to write.
            data: Vec<u8>,
        },
        /// Remove a file by name.
        6 "unlink" Unlink {
            /// File name.
            name: String,
        },
        /// Hard-link an existing file under a new name → inode number.
        7 "link" Link {
            /// Existing file name.
            existing: String,
            /// New name.
            new_name: String,
        },
        /// Rename (clobbers the target).
        8 "rename" Rename {
            /// Current name.
            from: String,
            /// New name.
            to: String,
        },
        /// File metadata by inode → stat body.
        9 "stat" Stat {
            /// Inode number.
            ino: u64,
        },
        /// List all file names.
        10 "list" List,
        /// Flush: drain the dedup daemon so queued work is applied.
        11 "fsync" Fsync {
            /// Inode the caller is syncing (used for shard routing).
            ino: u64,
        },
        /// Truncate a file to a byte size.
        12 "truncate" Truncate {
            /// Inode number.
            ino: u64,
            /// New size in bytes.
            size: u64,
        },
        /// Deduplication and space statistics → dedup-stats body.
        13 "dedup_stats" DedupStats,
        /// Rendered telemetry snapshot (text or JSON) → text body.
        14 "telemetry" Telemetry {
            /// `true` for JSON, `false` for human-readable text.
            json: bool,
        },
        /// Ask the server to drain and shut down (acknowledged before exit).
        15 "shutdown" Shutdown,
        /// Promote a standby replica to primary (no-op acknowledged on a
        /// server that is already primary).
        16 "promote" Promote,
        // Tags 17-22 carried the retired cluster protocol (map exchange and
        // two-phase commit). They stay reserved and decode as an unknown
        // opcode, so a frame carrying one gets a `BAD_REQUEST` reply.
        /// Declare the connection's tenant for QoS accounting and
        /// weighted-fair scheduling. Connections that never send it run as
        /// the default tenant, so pre-tenant clients keep working unchanged.
        23 "hello" Hello {
            /// Tenant name this connection's requests are accounted to. The
            /// server interns the name; an empty string selects the default
            /// tenant.
            tenant: String,
            /// Scheduling weight hint (0 = keep the server's current weight).
            weight: u32,
        },
    }
}

impl Request {
    /// True for requests that modify file-system state. A standby replica
    /// rejects these with [`SvcError::REPLICA_READ_ONLY`]; everything else
    /// (reads, stats, fsync, shutdown, promote) is served locally.
    pub fn is_mutating(&self) -> bool {
        matches!(
            self,
            Request::Create { .. }
                | Request::Write { .. }
                | Request::Unlink { .. }
                | Request::Link { .. }
                | Request::Rename { .. }
                | Request::Truncate { .. }
        )
    }

    /// True for requests the client may transparently re-send after a
    /// transport failure: retrying them cannot duplicate an effect. Mutating
    /// ops and one-shot control ops (shutdown, promote) are excluded — the
    /// first send may have been applied before the connection died.
    pub fn is_idempotent(&self) -> bool {
        matches!(
            self,
            Request::Ping
                | Request::Open { .. }
                | Request::Read { .. }
                | Request::Stat { .. }
                | Request::List
                | Request::Fsync { .. }
                | Request::DedupStats
                | Request::Telemetry { .. }
                | Request::Hello { .. }
        )
    }

    /// Short name used for per-op telemetry metrics (`svc.op.<name>`).
    pub fn op_name(&self) -> &'static str {
        self.name()
    }

    /// Worker-pool routing key: requests with the same key execute in
    /// submission order on one shard. Inode ops key by inode; namespace ops
    /// by a hash of the (primary) name, so two operations on the same name
    /// serialize even before an inode exists.
    pub fn shard_key(&self) -> u64 {
        match self {
            Request::Read { ino, .. }
            | Request::Write { ino, .. }
            | Request::Stat { ino }
            | Request::Fsync { ino }
            | Request::Truncate { ino, .. } => *ino,
            Request::Create { name } | Request::Open { name } | Request::Unlink { name } => {
                hash_name(name)
            }
            Request::Link { existing, .. } => hash_name(existing),
            Request::Rename { from, .. } => hash_name(from),
            Request::Ping
            | Request::List
            | Request::DedupStats
            | Request::Telemetry { .. }
            | Request::Shutdown
            | Request::Promote
            | Request::Hello { .. } => 0,
        }
    }

    /// Encode as a full request payload: `req_id`, then the row.
    pub fn encode(&self, req_id: u64) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(req_id);
        self.put(&mut e);
        e.finish()
    }

    /// Decode a request payload into `(req_id, request)`.
    pub fn decode(payload: &[u8]) -> Result<(u64, Request), DecodeError> {
        let mut d = Dec::new(payload);
        let req_id = d.u64()?;
        let req = Request::take(&mut d)?;
        d.finish()?;
        Ok((req_id, req))
    }
}

/// A borrowed view of a [`Request::Write`] inside its undecoded frame
/// payload: header fields parsed, data left in place. The zero-copy write
/// path uses it to hand `&frame[data_off..]` straight to the file system's
/// vectored write, so page-aligned payloads go socket buffer → PM extent
/// without an intermediate staging copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRef {
    /// Request id to echo in the reply.
    pub req_id: u64,
    /// Target inode.
    pub ino: u64,
    /// Byte offset of the write.
    pub offset: u64,
    /// Offset of the data bytes inside the frame payload.
    pub data_off: usize,
    /// Length of the data run (extends to the end of the payload).
    pub data_len: usize,
}

/// WRITE's row, for the zero-copy path that bypasses decoding.
const WRITE: usize = row_of(Request::ROWS, "write");

/// A write's latency histogram, also when it bypassed decoding.
pub(crate) const WRITE_METRIC: &str = Request::METRICS[WRITE];

/// Fixed prefix of a WRITE payload: req_id(8) + opcode(1) + ino(8) +
/// offset(8) + data length(4).
const WRITE_HEADER: usize = 29;

/// Parse `payload` as a [`Request::Write`] without copying the data.
/// Returns `None` for anything that is not a well-formed write — the caller
/// falls back to [`Request::decode`], which produces the proper error reply.
pub fn decode_write_ref(payload: &[u8]) -> Option<WriteRef> {
    if payload.len() < WRITE_HEADER || payload[8] != Request::ROWS[WRITE].0 {
        return None;
    }
    let u64_at = |i: usize| u64::from_le_bytes(payload[i..i + 8].try_into().unwrap());
    let data_len = u32::from_le_bytes(payload[25..29].try_into().unwrap()) as usize;
    if payload.len() != WRITE_HEADER + data_len {
        return None;
    }
    Some(WriteRef {
        req_id: u64_at(0),
        ino: u64_at(9),
        offset: u64_at(17),
        data_off: WRITE_HEADER,
        data_len,
    })
}

/// Stable cross-process name hash: the worker-pool routing key of the
/// namespace ops.
pub fn hash_name(name: &str) -> u64 {
    // FNV-1a: stable across processes (no RandomState), cheap, good spread.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

wire_struct! {
    /// Dedup/space statistics carried by [`Body::DedupStats`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct RemoteDedupStats {
        /// Session bytes saved (resets on remount).
        pub bytes_saved: u64,
        /// Bytes saved derived from persistent FACT reference counts.
        pub persistent_bytes_saved: u64,
        /// FACT capacity in entries.
        pub fact_entries: u64,
        /// Occupied FACT entries.
        pub fact_occupied: u64,
        /// Deduplication work-queue backlog.
        pub dwq_len: u64,
        /// DRAM consumed by dedup index structures (0 for FACT modes).
        pub dedup_index_dram_bytes: u64,
        /// Free data blocks.
        pub free_blocks: u64,
        /// Total data blocks.
        pub data_blocks: u64,
        /// Live files.
        pub file_count: u64,
        /// Device capacity in bytes.
        pub device_bytes: u64,
        /// Dedup worker threads the serving mount runs with.
        pub dedup_workers: u64,
        /// Nonzero when the serving node's sync-ack replication has been
        /// degraded at least once (`repl.sync_degraded` latched): some op was
        /// acknowledged without standby durability. Always 0 without
        /// replication.
        pub sync_degraded: u64,
    }
}

wire_struct!(impl FileStat { ino, size, blocks, nlink, log_pages, log_entries_live });

wire_enum! {
    /// The payload of a successful reply, after its body tag.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Body else "unknown body tag" {
        /// No payload.
        0 "empty" Empty,
        /// An inode number (create/open/link).
        1 "ino" Ino(u64),
        /// Raw file bytes (read).
        2 "bytes" Bytes(Vec<u8>),
        /// Bytes written.
        3 "written" Written(u32),
        /// File metadata.
        4 "stat" Stat(FileStat),
        /// File names (list).
        5 "names" Names(Vec<String>),
        /// Dedup/space statistics.
        6 "dedup_stats" DedupStats(RemoteDedupStats),
        /// Rendered text (telemetry snapshot).
        7 "text" Text(String),
        // Tag 8 carried the retired two-phase-commit state; it stays
        // reserved and decodes as an unknown body tag.
    }
}

/// A structured service error: a stable numeric code, an optional numeric
/// detail (e.g. the inode for `BadInode`), and a human-readable message.
///
/// Codes `1..=99` map 1:1 to [`NovaError`] via [`NovaError::code`]; the
/// constants below are service-layer conditions with no `NovaError`
/// equivalent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SvcError {
    /// Stable error code.
    pub code: u16,
    /// Variant payload (inode number, byte count, …) or 0.
    pub detail: u64,
    /// Human-readable description.
    pub message: String,
}

impl SvcError {
    /// Malformed request payload.
    pub const BAD_REQUEST: u16 = 100;
    /// Valid frame, unknown opcode.
    pub const UNKNOWN_OP: u16 = 101;
    /// Request rejected because the server is draining for shutdown.
    pub const SHUTTING_DOWN: u16 = 103;
    /// The operation panicked server-side; the connection survives.
    pub const INTERNAL: u16 = 104;
    /// Mutating request sent to a standby replica; retry against the
    /// primary, or promote this node first.
    pub const REPLICA_READ_ONLY: u16 = 105;
    // Code 106 marked a request routed to the wrong cluster shard; it
    // stays reserved and is never reused.
    /// Transport-level failure, client-side only (never on the wire).
    pub const IO: u16 = 110;
    /// No reply within the client's deadline, client-side only. The request
    /// may or may not have executed server-side — like `IO`, only idempotent
    /// requests are transparently retried after it.
    pub const TIMEOUT: u16 = 111;
    /// The client's pipeline window is exhausted, client-side only: the call
    /// was never sent. Drain replies with
    /// [`crate::Client::pipeline_recv`] and re-send.
    pub const BUSY: u16 = 112;

    /// Wrap a file-system error.
    pub fn from_nova(e: &NovaError) -> SvcError {
        let detail = match e {
            NovaError::BadInode(ino) => *ino,
            _ => 0,
        };
        SvcError {
            code: e.code(),
            detail,
            message: e.to_string(),
        }
    }

    /// The `NovaError` this code maps to, if it is a file-system code.
    pub fn to_nova(&self) -> Option<NovaError> {
        NovaError::from_code(self.code, self.detail)
    }

    /// A service-layer error with `code` and `message`.
    pub fn service(code: u16, message: impl Into<String>) -> SvcError {
        SvcError {
            code,
            detail: 0,
            message: message.into(),
        }
    }

    /// A client-side transport error (not a wire code).
    pub fn io(e: &std::io::Error) -> SvcError {
        SvcError {
            code: Self::IO,
            detail: 0,
            message: format!("transport: {e}"),
        }
    }

    /// True when this is the remote equivalent of [`NovaError::NotFound`].
    pub fn is_not_found(&self) -> bool {
        self.code == NovaError::NotFound.code()
    }
}

impl std::fmt::Display for SvcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (code {})", self.message, self.code)
    }
}

impl std::error::Error for SvcError {}

/// A decoded reply: either an OK body or a structured error.
pub type Reply = Result<Body, SvcError>;

/// Encode a reply payload for `req_id`.
pub fn encode_reply(req_id: u64, reply: &Reply) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(req_id);
    match reply {
        Ok(body) => {
            e.u16(0);
            body.put(&mut e);
        }
        Err(err) => {
            debug_assert_ne!(err.code, 0, "error replies must have nonzero code");
            e.u16(err.code).u64(err.detail).str(&err.message);
        }
    }
    e.finish()
}

/// Decode a reply payload into `(req_id, reply)`.
pub fn decode_reply(payload: &[u8]) -> Result<(u64, Reply), DecodeError> {
    let mut d = Dec::new(payload);
    let req_id = d.u64()?;
    let reply = match d.u16()? {
        0 => Ok(Body::take(&mut d)?),
        code => Err(SvcError {
            code,
            detail: d.u64()?,
            message: String::take(&mut d)?,
        }),
    };
    d.finish()?;
    Ok((req_id, reply))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Create { name: "a".into() },
            Request::Open { name: "b".into() },
            Request::Read {
                ino: 3,
                offset: 4096,
                len: 8192,
            },
            Request::Write {
                ino: 3,
                offset: 0,
                data: vec![1, 2, 3],
            },
            Request::Unlink { name: "c".into() },
            Request::Link {
                existing: "a".into(),
                new_name: "d".into(),
            },
            Request::Rename {
                from: "d".into(),
                to: "e".into(),
            },
            Request::Stat { ino: 7 },
            Request::List,
            Request::Fsync { ino: 7 },
            Request::Truncate { ino: 7, size: 100 },
            Request::DedupStats,
            Request::Telemetry { json: true },
            Request::Shutdown,
            Request::Promote,
            Request::Hello {
                tenant: "acme".into(),
                weight: 4,
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for (i, req) in all_requests().into_iter().enumerate() {
            let payload = req.encode(i as u64 + 10);
            let (id, back) = Request::decode(&payload).unwrap();
            assert_eq!(id, i as u64 + 10);
            assert_eq!(back, req, "op {}", req.op_name());
        }
    }

    #[test]
    fn replies_round_trip() {
        let bodies = vec![
            Body::Empty,
            Body::Ino(42),
            Body::Bytes(vec![9; 100]),
            Body::Written(4096),
            Body::Stat(FileStat {
                ino: 2,
                size: 100,
                blocks: 1,
                nlink: 1,
                log_pages: 1,
                log_entries_live: 1,
            }),
            Body::Names(vec!["a".into(), "b".into()]),
            Body::DedupStats(RemoteDedupStats {
                bytes_saved: 4096,
                ..Default::default()
            }),
            Body::Text("snapshot".into()),
        ];
        for body in bodies {
            let payload = encode_reply(5, &Ok(body.clone()));
            let (id, reply) = decode_reply(&payload).unwrap();
            assert_eq!(id, 5);
            assert_eq!(reply.unwrap(), body);
        }
    }

    #[test]
    fn errors_cross_the_wire_with_stable_codes() {
        for nova_err in NovaError::all_variants() {
            let err = SvcError::from_nova(&nova_err);
            let payload = encode_reply(1, &Err(err.clone()));
            let (_, reply) = decode_reply(&payload).unwrap();
            let back = reply.unwrap_err();
            assert_eq!(back, err);
            assert_eq!(back.to_nova().unwrap().code(), nova_err.code());
        }
        // BadInode keeps its inode through the round trip.
        let err = SvcError::from_nova(&NovaError::BadInode(77));
        let (_, reply) = decode_reply(&encode_reply(1, &Err(err))).unwrap();
        assert_eq!(
            reply.unwrap_err().to_nova().unwrap(),
            NovaError::BadInode(77)
        );
    }

    #[test]
    fn shard_keys_serialize_same_file_ops() {
        let w1 = Request::Write {
            ino: 9,
            offset: 0,
            data: vec![],
        };
        let r1 = Request::Read {
            ino: 9,
            offset: 0,
            len: 1,
        };
        assert_eq!(w1.shard_key(), r1.shard_key());
        let c1 = Request::Create { name: "x".into() };
        let u1 = Request::Unlink { name: "x".into() };
        assert_eq!(c1.shard_key(), u1.shard_key());
        assert_ne!(
            Request::Create { name: "x".into() }.shard_key(),
            Request::Create { name: "y".into() }.shard_key()
        );
    }

    #[test]
    fn mutating_and_idempotent_are_disjoint() {
        let mutating: Vec<&'static str> = all_requests()
            .iter()
            .filter(|r| r.is_mutating())
            .map(|r| r.op_name())
            .collect();
        assert_eq!(
            mutating,
            ["create", "write", "unlink", "link", "rename", "truncate"]
        );
        for req in all_requests() {
            assert!(
                !(req.is_mutating() && req.is_idempotent()),
                "{} cannot be both mutating and retry-safe",
                req.op_name()
            );
        }
        // One-shot control ops are neither.
        assert!(!Request::Shutdown.is_idempotent());
        assert!(!Request::Promote.is_idempotent());
    }

    #[test]
    fn write_ref_matches_full_decode() {
        let req = Request::Write {
            ino: 42,
            offset: 8192,
            data: vec![7u8; 4096],
        };
        let payload = req.encode(99);
        let wr = decode_write_ref(&payload).expect("well-formed write");
        assert_eq!(wr.req_id, 99);
        assert_eq!(wr.ino, 42);
        assert_eq!(wr.offset, 8192);
        assert_eq!(wr.data_len, 4096);
        assert_eq!(
            &payload[wr.data_off..wr.data_off + wr.data_len],
            &[7u8; 4096][..]
        );
        // Empty writes parse too (the caller decides eligibility).
        let empty = Request::Write {
            ino: 1,
            offset: 0,
            data: vec![],
        }
        .encode(1);
        assert_eq!(decode_write_ref(&empty).unwrap().data_len, 0);
        // Non-writes and malformed writes fall through to full decode.
        assert!(decode_write_ref(&Request::Ping.encode(1)).is_none());
        let mut trailing = req.encode(99);
        trailing.push(0);
        assert!(decode_write_ref(&trailing).is_none());
        assert!(decode_write_ref(&trailing[..20]).is_none());
    }

    #[test]
    fn malformed_payloads_fail_cleanly() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&Enc::new().u64(1).u8(200).finish()).is_err());
        // Trailing garbage after a valid request.
        let mut p = Request::Ping.encode(1);
        p.push(0);
        assert!(Request::decode(&p).is_err());
        assert!(decode_reply(&[1, 2]).is_err());
    }
}
