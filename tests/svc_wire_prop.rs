//! Decoder robustness: arbitrary bytes thrown at every wire decoder must
//! fail cleanly (never panic, never allocate absurdly), and every valid
//! encoding must round-trip — but reject trailing garbage, because a frame
//! that decodes while bytes remain means two peers can disagree about where
//! a message ends. Decoding is canonical too: whatever decodes re-encodes
//! to the very bytes it came from, so no message has two wire forms.
//!
//! The samples cover every row of every message table; a unit test below
//! keeps it that way when a row is added.

use denova_repro::nova::{FileStat, FsOp};
use denova_repro::svc::codec::WireEnum;
use denova_repro::svc::proto::{decode_reply, encode_reply, Request};
use denova_repro::svc::repl::ReplMsg;
use denova_repro::svc::{Body, RemoteDedupStats, Reply, SvcError};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One request of every wire shape, with proptest-supplied field values.
fn sample_requests(ino: u64, text: String, data: Vec<u8>) -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Create { name: text.clone() },
        Request::Open { name: text.clone() },
        Request::Read {
            ino,
            offset: ino ^ 7,
            len: data.len() as u32,
        },
        Request::Write {
            ino,
            offset: 0,
            data: data.clone(),
        },
        Request::Unlink { name: text.clone() },
        Request::Link {
            existing: text.clone(),
            new_name: format!("{text}-2"),
        },
        Request::Rename {
            from: text.clone(),
            to: format!("{text}-3"),
        },
        Request::Stat { ino },
        Request::List,
        Request::Fsync { ino },
        Request::Truncate { ino, size: ino },
        Request::DedupStats,
        Request::Telemetry {
            json: ino.is_multiple_of(2),
        },
        Request::Shutdown,
        Request::Promote,
        Request::Hello {
            tenant: text,
            weight: data.len() as u32,
        },
    ]
}

/// One reply of every body shape, plus an error reply.
fn sample_replies(n: u64, text: String, data: Vec<u8>) -> Vec<Reply> {
    let mut replies: Vec<Reply> = vec![
        Ok(Body::Empty),
        Ok(Body::Ino(n)),
        Ok(Body::Bytes(data.clone())),
        Ok(Body::Written(data.len() as u32)),
        Ok(Body::Stat(FileStat {
            ino: n,
            size: n ^ 1,
            blocks: n ^ 2,
            nlink: 1,
            log_pages: n ^ 3,
            log_entries_live: n ^ 4,
        })),
        Ok(Body::Names(vec![text.clone(), format!("{text}-2")])),
        Ok(Body::DedupStats(RemoteDedupStats {
            bytes_saved: n,
            device_bytes: n ^ 5,
            ..Default::default()
        })),
        Ok(Body::Text(text.clone())),
    ];
    replies.push(Err(SvcError {
        code: 1 + (n % 200) as u16,
        detail: n,
        message: text,
    }));
    replies
}

/// One replication frame of every shape.
fn sample_repl_msgs(seq: u64, data: Vec<u8>) -> Vec<ReplMsg> {
    vec![
        ReplMsg::Subscribe {
            last_seq: seq,
            want_snapshot: seq.is_multiple_of(2),
        },
        ReplMsg::SnapshotBegin {
            upto_seq: seq,
            total_bytes: data.len() as u64,
            chunk_count: 1,
        },
        ReplMsg::SnapshotChunk {
            index: (seq % 4) as u32,
            data: data.clone(),
        },
        ReplMsg::SnapshotEnd {
            total_bytes: data.len() as u64,
        },
        ReplMsg::Entries {
            first_seq: seq,
            ops: vec![
                FsOp::Create {
                    name: "new".into(),
                    ino: seq,
                },
                FsOp::Write {
                    ino: seq,
                    offset: 0,
                    data,
                },
                FsOp::Unlink {
                    name: "gone".into(),
                },
                FsOp::Link {
                    existing: "new".into(),
                    new_name: "alias".into(),
                    ino: seq,
                },
                FsOp::Rename {
                    from: "alias".into(),
                    to: "moved".into(),
                },
                FsOp::Truncate {
                    ino: seq,
                    size: seq >> 1,
                },
            ],
        },
        ReplMsg::Ack { seq },
        ReplMsg::Heartbeat { head_seq: seq },
        ReplMsg::FellBehind,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // Random payloads: every decoder returns `Err` or a value — no panics,
    // regardless of what lengths or tags the bytes claim.
    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = Request::decode(&payload);
        let _ = decode_reply(&payload);
        let _ = ReplMsg::decode(&payload);
    }

    // Flipping one byte of a valid request encoding must never panic the
    // decoder (it may still decode — some bytes are payload).
    #[test]
    fn mutated_valid_requests_never_panic(
        req_sel in any::<usize>(),
        ino in any::<u64>(),
        flip_pos in any::<u16>(),
        flip_bits in 1u8..255,
    ) {
        let reqs = sample_requests(ino, "f".into(), vec![3u8; 9]);
        let mut bytes = reqs[req_sel % reqs.len()].encode(42);
        let pos = flip_pos as usize % bytes.len();
        bytes[pos] ^= flip_bits;
        let _ = Request::decode(&bytes);
    }

    // Valid request encodings round-trip; with trailing garbage appended
    // they must be rejected — the codec's `finish()` contract says a
    // message owns its whole frame.
    #[test]
    fn requests_round_trip_and_reject_trailing_garbage(
        ino in any::<u64>(),
        text_bytes in prop::collection::vec(0u8..26, 1..12),
        data in prop::collection::vec(any::<u8>(), 0..64),
        garbage in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let text: String = text_bytes.iter().map(|b| (b'a' + b) as char).collect();
        for req in sample_requests(ino, text.clone(), data.clone()) {
            let bytes = req.encode(7);
            let (req_id, back) = Request::decode(&bytes).unwrap();
            prop_assert_eq!(req_id, 7);
            prop_assert_eq!(&back, &req);
            let mut tail = bytes;
            tail.extend_from_slice(&garbage);
            prop_assert!(Request::decode(&tail).is_err(), "{:?} accepted trailing garbage", req);
        }
    }

    // Same contract for the replication frame family.
    #[test]
    fn repl_msgs_round_trip_and_reject_trailing_garbage(
        seq in any::<u64>(),
        data in prop::collection::vec(any::<u8>(), 0..64),
        garbage in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        for msg in sample_repl_msgs(seq, data.clone()) {
            let bytes = msg.encode();
            prop_assert_eq!(&ReplMsg::decode(&bytes).unwrap(), &msg);
            let mut tail = bytes;
            tail.extend_from_slice(&garbage);
            prop_assert!(ReplMsg::decode(&tail).is_err(), "{:?} accepted trailing garbage", msg);
        }
    }

    // Same contract for replies: every body, and an error reply.
    #[test]
    fn replies_round_trip_and_reject_trailing_garbage(
        n in any::<u64>(),
        text_bytes in prop::collection::vec(0u8..26, 1..12),
        data in prop::collection::vec(any::<u8>(), 0..64),
        garbage in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let text: String = text_bytes.iter().map(|b| (b'a' + b) as char).collect();
        for reply in sample_replies(n, text.clone(), data.clone()) {
            let bytes = encode_reply(n, &reply);
            prop_assert_eq!(decode_reply(&bytes).unwrap(), (n, reply.clone()));
            let mut tail = bytes;
            tail.extend_from_slice(&garbage);
            prop_assert!(decode_reply(&tail).is_err(), "{:?} accepted trailing garbage", reply);
        }
    }

    // Canonical decoding: XOR `bits` into each byte of every valid encoding
    // in turn; whatever still decodes — request, reply or replication frame
    // — must re-encode to exactly the mutated bytes.
    #[test]
    fn whatever_decodes_re_encodes_to_the_same_bytes(
        n in any::<u64>(),
        bits in 1u8..255,
    ) {
        let data = vec![3u8; 5];
        for req in sample_requests(n, "f".into(), data.clone()) {
            for bytes in mutations(&req.encode(n), bits) {
                if let Ok((id, back)) = Request::decode(&bytes) {
                    prop_assert_eq!(back.encode(id), bytes, "{:?}", back);
                }
            }
        }
        for reply in sample_replies(n, "f".into(), data.clone()) {
            for bytes in mutations(&encode_reply(n, &reply), bits) {
                if let Ok((id, back)) = decode_reply(&bytes) {
                    prop_assert_eq!(encode_reply(id, &back), bytes, "{:?}", back);
                }
            }
        }
        for msg in sample_repl_msgs(n, data.clone()) {
            for bytes in mutations(&msg.encode(), bits) {
                if let Ok(back) = ReplMsg::decode(&bytes) {
                    prop_assert_eq!(back.encode(), bytes, "{:?}", back);
                }
            }
        }
    }
}

/// `bytes` with `bits` XORed into one position, for every position.
fn mutations(bytes: &[u8], bits: u8) -> impl Iterator<Item = Vec<u8>> + '_ {
    (0..bytes.len()).map(move |at| {
        let mut m = bytes.to_vec();
        m[at] ^= bits;
        m
    })
}

fn tags<'a, T: WireEnum + 'a>(values: impl IntoIterator<Item = &'a T>) -> BTreeSet<u8> {
    values.into_iter().map(T::tag).collect()
}

fn table<T: WireEnum>() -> BTreeSet<u8> {
    T::ROWS.iter().map(|&(tag, _)| tag).collect()
}

#[test]
fn samples_cover_every_row_of_every_table() {
    let requests = sample_requests(1, "f".into(), vec![1]);
    assert_eq!(tags(&requests), table::<Request>());
    let replies = sample_replies(1, "f".into(), vec![1]);
    let bodies: Vec<&Body> = replies.iter().filter_map(|r| r.as_ref().ok()).collect();
    assert_eq!(tags(bodies.iter().copied()), table::<Body>());
    assert!(replies.iter().any(Result::is_err), "no error reply");
    let msgs = sample_repl_msgs(1, vec![1]);
    assert_eq!(tags(&msgs), table::<ReplMsg>());
    let ops = msgs.iter().flat_map(|m| match m {
        ReplMsg::Entries { ops, .. } => ops.as_slice(),
        _ => &[],
    });
    assert_eq!(tags(ops), table::<FsOp>());
}
