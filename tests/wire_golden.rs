//! The wire ABI, pinned byte for byte: every request and reply body, encoded
//! from fixed field values and compared with the hex it has always produced,
//! so a codec change that moves one byte fails here, not between a client
//! and a server of different versions. The op names and the
//! `svc.op.<name>.ns` histograms they feed are pinned the same way, and so
//! is the rejection of what was retired: request tags 16-22, the
//! replication frame family and reply body tag 8 stay reserved and decode
//! to `BAD_REQUEST`.

use denova_repro::nova::FileStat;
use denova_repro::prelude::*;
use denova_repro::svc::codec::{read_frame, write_frame, FrameRead};
use denova_repro::svc::proto::{decode_reply, encode_reply};
use denova_repro::svc::{Body, FileService, RemoteDedupStats, Reply, Request};
use std::os::unix::net::UnixStream;
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
        Request::Hello {
            tenant: "acme".into(),
            weight: 4,
        },
    ]
}

fn replies() -> Vec<Reply> {
    vec![
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
        // Pinned with code 106, which is retired and reserved: an error
        // reply carries any nonzero code in the same layout.
        Err(SvcError {
            code: 106,
            detail: 0x1122_3344_5566_7788,
            message: "owner".into(),
        }),
    ]
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
    assert!(at.next().is_none());
}

/// Each request's op name, and the latency histogram executing it feeds.
const OP_NAMES: [(&str, &str); 16] = [
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
        // Errors (no such inode) still record latency.
        let _ = service.execute(req);
    }
    let snap = service.metrics().snapshot();
    for (name, hist) in OP_NAMES {
        let h = snap.histogram(hist);
        assert_eq!(h.map(|h| h.count), Some(1), "{name} records into {hist}");
    }
}

/// The bytes the retired request rows 16-22 (`promote`, `map_get`,
/// `map_push`, `tx_prepare`, `tx_commit`, `tx_abort`, `tx_status`) encoded
/// to. Their tags stay reserved: a frame carrying one is an unknown opcode.
const RETIRED_REQUESTS: [&str; 7] = [
    "010203040506070810",
    "010203040506070811",
    "0102030405060708120400000001020304",
    "010203040506070813990000000000000003000000050505",
    "0102030405060708149900000000000000",
    "0102030405060708159a00000000000000",
    "0102030405060708169b00000000000000",
];

/// The replication frames (`subscribe`, `snapshot_begin`, `snapshot_chunk`,
/// `snapshot_end`, `entries` carrying one op of each kind, `ack`,
/// `heartbeat`, `fell_behind`) as they were encoded, each opening with the
/// family's magic `0xD5E0_4E4F_5641_5250`. A server reads the magic as a
/// `req_id` and the rest as a request that does not decode.
const RETIRED_REPL_FRAMES: [&str; 8] = [
    "505241564f4ee0d501110000000000000001",
    "505241564f4ee0d5021100000000000000000010000000000004000000",
    "505241564f4ee0d5030300000003000000010203",
    "505241564f4ee0d5040000100000000000",
    "505241564f4ee0d5051200000000000000060000000e00000001010000006102000000000000001700000002020000000000000000100000000000000200000007070600000003010000006113000000040100000062010000006303000000000000000b0000000501000000630100000064110000000602000000000000003200000000000000",
    "505241564f4ee0d5061700000000000000",
    "505241564f4ee0d5071800000000000000",
    "505241564f4ee0d508",
];

/// The bytes of the retired reply body tag 8 (a two-phase-commit state,
/// 0-3), for request [`REQ_ID`].
const RETIRED_BODIES: [&str; 4] = [
    "010203040506070800000800",
    "010203040506070800000801",
    "010203040506070800000802",
    "010203040506070800000803",
];

fn served() -> Server {
    let dev = Arc::new(PmemDevice::new(16 << 20));
    let opts = NovaOptions {
        num_inodes: 64,
        ..Default::default()
    };
    let fs = Denova::mkfs(dev, opts, DedupMode::Baseline).unwrap();
    Server::new(Arc::new(fs), SvcConfig::default())
}

fn next_frame(stream: &mut UnixStream) -> Vec<u8> {
    loop {
        match read_frame(stream).unwrap() {
            FrameRead::Frame(f) => return f,
            FrameRead::Idle => continue,
            FrameRead::Eof => panic!("peer closed the connection"),
        }
    }
}

#[test]
fn reserved_request_tags_get_bad_request_and_the_connection_survives() {
    let srv = served();
    let mut conn = srv.connect_loopback();
    for (i, retired) in RETIRED_REQUESTS.iter().enumerate() {
        assert_eq!(unhex(retired)[8], 16 + i as u8);
    }
    for retired in RETIRED_REQUESTS.iter().chain(&RETIRED_REPL_FRAMES) {
        let bytes = unhex(retired);
        assert!(Request::decode(&bytes).is_err(), "{retired} decoded");
        write_frame(&mut conn, &bytes).unwrap();
        let (id, reply) = decode_reply(&next_frame(&mut conn)).unwrap();
        assert_eq!(id, u64::from_le_bytes(bytes[..8].try_into().unwrap()));
        assert_eq!(reply.unwrap_err().code, SvcError::BAD_REQUEST);
        // The next request on the same connection is served.
        write_frame(&mut conn, &Request::Ping.encode(7)).unwrap();
        assert_eq!(
            decode_reply(&next_frame(&mut conn)).unwrap(),
            (7, Ok(Body::Empty))
        );
    }
    drop(conn);
    srv.shutdown();
}

#[test]
fn reserved_reply_body_tag_is_bad_request_and_the_client_keeps_going() {
    for retired in RETIRED_BODIES {
        assert!(decode_reply(&unhex(retired)).is_err());
    }
    // A peer that answers each ping with one retired body, then a good
    // reply: the client reports `BAD_REQUEST` and its next call succeeds.
    let (client_end, mut peer) = UnixStream::pair().unwrap();
    let peer = std::thread::spawn(move || {
        for retired in RETIRED_BODIES {
            for good in [false, true] {
                let (id, req) = Request::decode(&next_frame(&mut peer)).unwrap();
                assert_eq!(req, Request::Ping);
                let mut reply = unhex(retired);
                reply[..8].copy_from_slice(&id.to_le_bytes());
                if good {
                    reply = encode_reply(id, &Ok(Body::Empty));
                }
                write_frame(&mut peer, &reply).unwrap();
            }
        }
    });
    let mut client = Client::from_stream(Box::new(client_end));
    for _ in RETIRED_BODIES {
        assert_eq!(client.ping().unwrap_err().code, SvcError::BAD_REQUEST);
        client.ping().unwrap();
    }
    peer.join().unwrap();
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
    ("reply error", "01020304050607086a008877665544332211050000006f776e6572"),
];
