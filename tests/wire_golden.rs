//! The wire ABI, pinned byte for byte: every request, reply body, `TxState`,
//! replication frame (carrying every `FsOp`), two-phase-commit record and
//! prepare chunk, encoded from fixed field values and compared with the hex
//! it has always produced. Two of these formats are durable — 2PC records
//! live in PM files, journal entries are shipped to standbys — so a codec
//! change that moves one byte must fail here, not in a mixed-version
//! cluster. The op names and the `svc.op.<name>.ns` histograms they feed
//! are pinned the same way.

use denova_repro::cluster::twophase::{PrepareChunk, Role, TxKind, TxRecord};
use denova_repro::nova::{FileStat, FsOp};
use denova_repro::prelude::*;
use denova_repro::svc::codec::Wire;
use denova_repro::svc::proto::{decode_reply, encode_reply};
use denova_repro::svc::{Body, FileService, RemoteDedupStats, ReplMsg, Reply, Request, TxState};
use std::sync::Arc;

/// Request id carried by every pinned request and reply: distinct bytes,
/// so a byte-order slip shows.
const REQ_ID: u64 = 0x0807_0605_0403_0201;

fn requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Create {
            name: "a.txt".into(),
        },
        Request::Open { name: "b".into() },
        Request::Read {
            ino: 3,
            offset: 4096,
            len: 8192,
        },
        Request::Write {
            ino: 0x0102,
            offset: 0x2000,
            data: vec![0xAB, 0xCD, 0xEF],
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
        Request::Fsync { ino: 9 },
        Request::Truncate { ino: 7, size: 100 },
        Request::DedupStats,
        Request::Telemetry { json: true },
        Request::Shutdown,
        Request::Promote,
        Request::MapGet,
        Request::MapPush {
            map: vec![1, 2, 3, 4],
        },
        Request::TxPrepare {
            txid: 0x99,
            data: vec![5; 3],
        },
        Request::TxCommit { txid: 0x99 },
        Request::TxAbort { txid: 0x9A },
        Request::TxStatus { txid: 0x9B },
        Request::Hello {
            tenant: "acme".into(),
            weight: 4,
        },
    ]
}

fn replies() -> Vec<Reply> {
    let mut out: Vec<Reply> = vec![
        Ok(Body::Empty),
        Ok(Body::Ino(42)),
        Ok(Body::Bytes(vec![9, 8, 7])),
        Ok(Body::Written(4096)),
        Ok(Body::Stat(FileStat {
            ino: 2,
            size: 100,
            blocks: 1,
            nlink: 1,
            log_pages: 3,
            log_entries_live: 4,
        })),
        Ok(Body::Names(vec!["a".into(), "bc".into()])),
        Ok(Body::DedupStats(RemoteDedupStats {
            bytes_saved: 1,
            persistent_bytes_saved: 2,
            fact_entries: 3,
            fact_occupied: 4,
            dwq_len: 5,
            dedup_index_dram_bytes: 6,
            free_blocks: 7,
            data_blocks: 8,
            file_count: 9,
            device_bytes: 10,
            dedup_workers: 11,
            sync_degraded: 12,
        })),
        Ok(Body::Text("snap".into())),
    ];
    for st in [
        TxState::None,
        TxState::Prepared,
        TxState::Committed,
        TxState::Aborted,
    ] {
        out.push(Ok(Body::TxState(st)));
    }
    out.push(Err(SvcError {
        code: SvcError::WRONG_SHARD,
        detail: 0x1122_3344_5566_7788,
        message: "owner".into(),
    }));
    out
}

fn fs_ops() -> Vec<FsOp> {
    vec![
        FsOp::Create {
            name: "a".into(),
            ino: 2,
        },
        FsOp::Write {
            ino: 2,
            offset: 4096,
            data: vec![7, 7],
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

fn repl_msgs() -> Vec<ReplMsg> {
    vec![
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
            ops: fs_ops(),
        },
        ReplMsg::Ack { seq: 23 },
        ReplMsg::Heartbeat { head_seq: 24 },
        ReplMsg::FellBehind,
    ]
}

fn records() -> Vec<TxRecord> {
    vec![
        TxRecord {
            phase: 1,
            role: Role::Coordinator,
            kind: TxKind::Rename,
            from: "a/src".into(),
            to: "b/dst".into(),
            peer_shard: 3,
        },
        TxRecord {
            phase: 2,
            role: Role::Participant,
            kind: TxKind::Link,
            from: String::new(),
            to: "dst".into(),
            peer_shard: 0,
        },
    ]
}

fn chunk() -> PrepareChunk {
    PrepareChunk {
        to: "dst".into(),
        kind: TxKind::Link,
        coord_shard: 1,
        offset: 4096,
        total: 8192,
        data: vec![7; 4],
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// Every sample's encoding, in [`GOLDEN`] order.
fn encodings() -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = requests().iter().map(|r| r.encode(REQ_ID)).collect();
    out.extend(replies().iter().map(|r| encode_reply(REQ_ID, r)));
    out.extend(repl_msgs().iter().map(ReplMsg::encode));
    out.extend(records().iter().map(TxRecord::to_bytes));
    out.push(chunk().to_bytes());
    out
}

#[test]
fn every_message_encodes_to_its_pinned_bytes() {
    let got = encodings();
    assert_eq!(got.len(), GOLDEN.len());
    for (bytes, (what, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(hex(bytes), *want, "{what}");
    }
}

#[test]
fn pinned_bytes_decode_to_the_same_values() {
    let golden: Vec<Vec<u8>> = GOLDEN.iter().map(|(_, h)| unhex(h)).collect();
    let mut at = golden.iter();
    for req in requests() {
        assert_eq!(Request::decode(at.next().unwrap()).unwrap(), (REQ_ID, req));
    }
    for reply in replies() {
        assert_eq!(decode_reply(at.next().unwrap()).unwrap(), (REQ_ID, reply));
    }
    for msg in repl_msgs() {
        assert_eq!(ReplMsg::decode(at.next().unwrap()).unwrap(), msg);
    }
    for rec in records() {
        assert_eq!(TxRecord::from_bytes(at.next().unwrap()).unwrap(), rec);
    }
    assert_eq!(
        PrepareChunk::from_bytes(at.next().unwrap()).unwrap(),
        chunk()
    );
    assert!(at.next().is_none());
}

/// Each request's op name, and the latency histogram executing it feeds.
const OP_NAMES: [(&str, &str); 23] = [
    ("ping", "svc.op.ping.ns"),
    ("create", "svc.op.create.ns"),
    ("open", "svc.op.open.ns"),
    ("read", "svc.op.read.ns"),
    ("write", "svc.op.write.ns"),
    ("unlink", "svc.op.unlink.ns"),
    ("link", "svc.op.link.ns"),
    ("rename", "svc.op.rename.ns"),
    ("stat", "svc.op.stat.ns"),
    ("list", "svc.op.list.ns"),
    ("fsync", "svc.op.fsync.ns"),
    ("truncate", "svc.op.truncate.ns"),
    ("dedup_stats", "svc.op.dedup_stats.ns"),
    ("telemetry", "svc.op.telemetry.ns"),
    ("shutdown", "svc.op.shutdown.ns"),
    ("promote", "svc.op.promote.ns"),
    ("map_get", "svc.op.map_get.ns"),
    ("map_push", "svc.op.map_push.ns"),
    ("tx_prepare", "svc.op.tx_prepare.ns"),
    ("tx_commit", "svc.op.tx_commit.ns"),
    ("tx_abort", "svc.op.tx_abort.ns"),
    ("tx_status", "svc.op.tx_status.ns"),
    ("hello", "svc.op.hello.ns"),
];

#[test]
fn op_names_and_their_histograms_are_pinned() {
    let dev = Arc::new(PmemDevice::new(16 << 20));
    let opts = NovaOptions {
        num_inodes: 64,
        ..Default::default()
    };
    let fs = Denova::mkfs(dev, opts, DedupMode::Baseline).unwrap();
    let service = FileService::new(Arc::new(fs));
    let reqs = requests();
    assert_eq!(reqs.len(), OP_NAMES.len());
    for (req, (name, _)) in reqs.iter().zip(OP_NAMES) {
        assert_eq!(req.op_name(), name);
        // Errors (no such inode, no cluster) still record latency.
        let _ = service.execute(req);
    }
    let snap = service.metrics().snapshot();
    for (name, hist) in OP_NAMES {
        let h = snap.histogram(hist);
        assert_eq!(h.map(|h| h.count), Some(1), "{name} records into {hist}");
    }
}

/// `(what, hex)` per sample, in [`encodings`] order.
const GOLDEN: &[(&str, &str)] = &[
    ("request ping", "010203040506070801"),
    ("request create", "01020304050607080205000000612e747874"),
    ("request open", "0102030405060708030100000062"),
    ("request read", "0102030405060708040300000000000000001000000000000000200000"),
    ("request write", "0102030405060708050201000000000000002000000000000003000000abcdef"),
    ("request unlink", "0102030405060708060100000063"),
    ("request link", "01020304050607080701000000610100000064"),
    ("request rename", "01020304050607080801000000640100000065"),
    ("request stat", "0102030405060708090700000000000000"),
    ("request list", "01020304050607080a"),
    ("request fsync", "01020304050607080b0900000000000000"),
    ("request truncate", "01020304050607080c07000000000000006400000000000000"),
    ("request dedup_stats", "01020304050607080d"),
    ("request telemetry", "01020304050607080e01"),
    ("request shutdown", "01020304050607080f"),
    ("request promote", "010203040506070810"),
    ("request map_get", "010203040506070811"),
    ("request map_push", "0102030405060708120400000001020304"),
    ("request tx_prepare", "010203040506070813990000000000000003000000050505"),
    ("request tx_commit", "0102030405060708149900000000000000"),
    ("request tx_abort", "0102030405060708159a00000000000000"),
    ("request tx_status", "0102030405060708169b00000000000000"),
    ("request hello", "0102030405060708170400000061636d6504000000"),
    ("reply empty", "0102030405060708000000"),
    ("reply ino", "01020304050607080000012a00000000000000"),
    ("reply bytes", "010203040506070800000203000000090807"),
    ("reply written", "010203040506070800000300100000"),
    (
        "reply stat",
        "0102030405060708000004020000000000000064000000000000000100000000000000010000000000000003000000000000000400000000000000",
    ),
    ("reply names", "0102030405060708000005020000000100000061020000006263"),
    (
        "reply dedup_stats",
        "01020304050607080000060100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c00000000000000",
    ),
    ("reply text", "010203040506070800000704000000736e6170"),
    ("reply tx_state none", "010203040506070800000800"),
    ("reply tx_state prepared", "010203040506070800000801"),
    ("reply tx_state committed", "010203040506070800000802"),
    ("reply tx_state aborted", "010203040506070800000803"),
    ("reply error", "01020304050607086a008877665544332211050000006f776e6572"),
    ("repl Subscribe", "505241564f4ee0d501110000000000000001"),
    ("repl SnapshotBegin", "505241564f4ee0d5021100000000000000000010000000000004000000"),
    ("repl SnapshotChunk", "505241564f4ee0d5030300000003000000010203"),
    ("repl SnapshotEnd", "505241564f4ee0d5040000100000000000"),
    (
        "repl Entries",
        "505241564f4ee0d5051200000000000000060000000e00000001010000006102000000000000001700000002020000000000000000100000000000000200000007070600000003010000006113000000040100000062010000006303000000000000000b0000000501000000630100000064110000000602000000000000003200000000000000",
    ),
    ("repl Ack", "505241564f4ee0d5061700000000000000"),
    ("repl Heartbeat", "505241564f4ee0d5071800000000000000"),
    ("repl FellBehind", "505241564f4ee0d508"),
    ("tx record coordinator", "01010105000000612f73726305000000622f64737403000000"),
    ("tx record participant", "020202000000000300000064737400000000"),
    ("prepare chunk", "030000006473740201000000001000000000000000200000000000000400000007070707"),
];
