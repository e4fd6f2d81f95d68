//! The reactor's frame machinery against the blocking codec: however the
//! network fragments a byte stream — one byte at a time, jagged chunks,
//! frames glued together, reads that come back short, refused or
//! interrupted — the reactor's incremental [`FrameDecoder`] must recover
//! exactly the frames the blocking codec would, byte-identical, for every
//! request type in the wire protocol, through both of its entry points; and
//! what it has not yet handed out must come back verbatim as its residue.
//! And the [`SendQueue`]'s
//! partial-write flushing must emit a byte stream indistinguishable from the
//! blocking `write_frame`, no matter how stingily the socket accepts bytes.

use denova_repro::reactor::frame::{Flush, FrameDecoder, SendQueue};
use denova_repro::svc::codec::{read_frame, write_frame, FrameRead};
use denova_repro::svc::proto::{decode_write_ref, Request};
use proptest::prelude::*;
use std::io::{self, Read, Write};

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
            offset: ino % 8192,
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
        Request::Hello {
            tenant: text,
            weight: (ino % 9) as u32,
        },
    ]
}

/// Frame payloads for one of every request type, plus the wire image the
/// blocking codec would produce for them back-to-back.
fn frames_and_wire(ino: u64, text: String, data: Vec<u8>) -> (Vec<Vec<u8>>, Vec<u8>) {
    let payloads: Vec<Vec<u8>> = sample_requests(ino, text, data)
        .iter()
        .enumerate()
        .map(|(i, r)| r.encode(i as u64))
        .collect();
    let mut wire = Vec::new();
    for p in &payloads {
        write_frame(&mut wire, p).unwrap();
    }
    (payloads, wire)
}

/// [`frames_and_wire`] with a zero-length frame spliced in at a position the
/// case picks, so the empty payload meets every neighbour and every split.
fn frames_and_wire_with_an_empty_frame(
    ino: u64,
    text: String,
    data: Vec<u8>,
) -> (Vec<Vec<u8>>, Vec<u8>) {
    let (mut payloads, _) = frames_and_wire(ino, text, data);
    payloads.insert(ino as usize % (payloads.len() + 1), Vec::new());
    let mut wire = Vec::new();
    for p in &payloads {
        write_frame(&mut wire, p).unwrap();
    }
    (payloads, wire)
}

/// A nonblocking socket in a mood: each `read` takes the next step of a
/// script — `0` refuses with `WouldBlock`, `1` with `Interrupted`, `n` hands
/// over at most `n - 1` bytes — and gives whatever is asked once the script
/// runs out. Reports EOF at the end of `wire`.
struct MoodySocket<'a> {
    wire: &'a [u8],
    pos: usize,
    script: std::slice::Iter<'a, usize>,
}

impl<'a> MoodySocket<'a> {
    fn new(wire: &'a [u8], script: &'a [usize]) -> MoodySocket<'a> {
        MoodySocket {
            wire,
            pos: 0,
            script: script.iter(),
        }
    }
}

impl Read for MoodySocket<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let quota = match self.script.next() {
            Some(0) => return Err(io::ErrorKind::WouldBlock.into()),
            Some(1) => return Err(io::ErrorKind::Interrupted.into()),
            Some(n) => n - 1,
            None => usize::MAX,
        };
        let n = quota.min(out.len()).min(self.wire.len() - self.pos);
        out[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Feed `dec` from `sock` as the event loop does: one `fill` per readiness
/// event, then every complete frame popped, until the socket ends. With
/// `pops` given, only that many frames are popped; the rest stays inside,
/// and the feeding also ends once the decoder will read no more.
fn drain_socket(
    dec: &mut FrameDecoder,
    sock: &mut MoodySocket<'_>,
    pops: Option<usize>,
) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    loop {
        let steps_left = sock.script.len();
        let filled = dec.fill(sock);
        while pops.is_none_or(|max| got.len() < max) {
            match dec.next_frame().unwrap() {
                Some(f) => got.push(f),
                None => break,
            }
        }
        // No read was even attempted: the buffers are full of unpopped frames.
        let saturated = filled.bytes == 0 && sock.script.len() == steps_left;
        if filled.eof || saturated {
            return got;
        }
    }
}

/// A writer that accepts at most a scripted number of bytes per call,
/// reporting `WouldBlock` when the script says zero — a nonblocking socket
/// at its moodiest.
struct StingySocket {
    accepts: Vec<usize>,
    call: usize,
    out: Vec<u8>,
}

impl Write for StingySocket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let quota = self.accepts[self.call % self.accepts.len()];
        self.call += 1;
        if quota == 0 {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "later"));
        }
        let n = quota.min(buf.len());
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Read side: push the wire image in arbitrary fragments; the decoder
    // must yield byte-identical payloads for every message type, and the
    // recovered frames must still decode as the original typed messages.
    #[test]
    fn frame_decode_is_split_invariant(
        ino in any::<u64>(),
        text_bytes in prop::collection::vec(0u8..26, 1..12),
        data in prop::collection::vec(any::<u8>(), 0..96),
        chunk_sizes in prop::collection::vec(1usize..97, 1..48),
    ) {
        let text: String = text_bytes.iter().map(|b| (b'a' + b) as char).collect();
        let (payloads, wire) = frames_and_wire(ino, text.clone(), data.clone());

        let mut dec = FrameDecoder::new(16 << 20);
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut pos = 0usize;
        let mut i = 0usize;
        while pos < wire.len() {
            let n = chunk_sizes[i % chunk_sizes.len()].min(wire.len() - pos);
            i += 1;
            dec.push(&wire[pos..pos + n]);
            pos += n;
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        prop_assert_eq!(&got, &payloads);
        prop_assert!(!dec.mid_frame(), "bytes left over after the last frame");

        // The recovered bytes are not just equal — they still mean the same
        // requests.
        for (i, req) in sample_requests(ino, text, data).iter().enumerate() {
            let (id, back) = Request::decode(&got[i]).unwrap();
            prop_assert_eq!(id, i as u64);
            prop_assert_eq!(&back, req);
        }
    }

    // Read side, socket entry point: the same wire image read off a socket
    // that returns short, refuses and interrupts as it likes must decode to
    // exactly what the blocking codec reads from it — with a read chunk so
    // small that most frames are received straight into their own `Vec`,
    // and one so large that none is.
    #[test]
    fn socket_fill_agrees_with_the_blocking_codec(
        ino in any::<u64>(),
        text_bytes in prop::collection::vec(0u8..26, 1..12),
        data in prop::collection::vec(any::<u8>(), 0..96),
        script in prop::collection::vec(0usize..40, 0..400),
        read_chunk in 1usize..80,
    ) {
        let text: String = text_bytes.iter().map(|b| (b'a' + b) as char).collect();
        let (payloads, wire) = frames_and_wire_with_an_empty_frame(ino, text, data);

        let mut blocking = Vec::new();
        let mut cursor = io::Cursor::new(&wire);
        while let FrameRead::Frame(f) = read_frame(&mut cursor).unwrap() {
            blocking.push(f);
        }
        prop_assert_eq!(&blocking, &payloads);

        for chunk in [read_chunk, 1 << 16] {
            let mut dec = FrameDecoder::with_read_chunk(16 << 20, chunk);
            let got = drain_socket(&mut dec, &mut MoodySocket::new(&wire, &script), None);
            prop_assert_eq!(&got, &blocking);
            prop_assert!(!dec.mid_frame(), "bytes left over after the last frame");
            prop_assert!(dec.capacity() <= chunk.max(4), "kept {} bytes", dec.capacity());
        }
    }

    // Read side, slice entry point: `push` under arbitrary splits — inside a
    // prefix, around the zero-length frame — agrees with the socket path.
    #[test]
    fn push_agrees_with_socket_fill(
        ino in any::<u64>(),
        text_bytes in prop::collection::vec(0u8..26, 1..12),
        data in prop::collection::vec(any::<u8>(), 0..96),
        chunk_sizes in prop::collection::vec(1usize..97, 1..48),
        read_chunk in 1usize..80,
    ) {
        let text: String = text_bytes.iter().map(|b| (b'a' + b) as char).collect();
        let (payloads, wire) = frames_and_wire_with_an_empty_frame(ino, text, data);

        let mut via_socket = FrameDecoder::with_read_chunk(16 << 20, read_chunk);
        let expect = drain_socket(&mut via_socket, &mut MoodySocket::new(&wire, &[]), None);
        prop_assert_eq!(&expect, &payloads);

        let mut dec = FrameDecoder::with_read_chunk(16 << 20, read_chunk);
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut pos = 0usize;
        let mut i = 0usize;
        while pos < wire.len() {
            let n = chunk_sizes[i % chunk_sizes.len()].min(wire.len() - pos);
            i += 1;
            dec.push(&wire[pos..pos + n]);
            pos += n;
            // Sometimes let frames pile up behind a complete one.
            if i.is_multiple_of(3) {
                continue;
            }
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        while let Some(f) = dec.next_frame().unwrap() {
            got.push(f);
        }
        prop_assert_eq!(&got, &expect);
        prop_assert!(!dec.mid_frame());
    }

    // Residue: cut the stream anywhere — mid-prefix, mid-frame with part of
    // the payload already in its final `Vec`, between frames — pop any
    // number of the frames that are complete, and the residue is exactly the
    // bytes the socket delivered that no popped frame accounts for, prefixes
    // included.
    #[test]
    fn residue_is_the_unconsumed_byte_stream(
        ino in any::<u64>(),
        text_bytes in prop::collection::vec(0u8..26, 1..12),
        data in prop::collection::vec(any::<u8>(), 0..96),
        script in prop::collection::vec(0usize..40, 0..100),
        read_chunk in 1usize..80,
        cut in any::<u32>(),
        pops in 0usize..22,
    ) {
        let text: String = text_bytes.iter().map(|b| (b'a' + b) as char).collect();
        let (payloads, wire) = frames_and_wire_with_an_empty_frame(ino, text, data);
        let cut = cut as usize % (wire.len() + 1);

        let mut dec = FrameDecoder::with_read_chunk(16 << 20, read_chunk);
        let mut sock = MoodySocket::new(&wire[..cut], &script);
        let got = drain_socket(&mut dec, &mut sock, Some(pops));
        prop_assert_eq!(&got[..], &payloads[..got.len()]);
        // With frames left unpopped the decoder may stop reading (it buffers
        // one body and one chunk at most): the residue is what it did read.
        let consumed: usize = got.iter().map(|f| 4 + f.len()).sum();
        prop_assert_eq!(&dec.take_residue()[..], &wire[consumed..sock.pos]);
        prop_assert!(!dec.mid_frame());
        prop_assert_eq!(dec.capacity(), 0);
        if got.len() < pops {
            prop_assert_eq!(sock.pos, cut, "every frame was popped, so every byte was read");
        }
    }

    // Write side: flushing through a socket that takes arbitrary slices
    // (and blocks whenever it likes) must emit exactly the blocking codec's
    // byte stream.
    #[test]
    fn send_queue_flush_is_byte_identical_to_blocking_writes(
        ino in any::<u64>(),
        text_bytes in prop::collection::vec(0u8..26, 1..12),
        data in prop::collection::vec(any::<u8>(), 0..96),
        accepts in prop::collection::vec(0usize..33, 1..24),
    ) {
        // An all-zero script would spin forever; guarantee progress.
        let mut accepts = accepts;
        accepts[0] = accepts[0].max(1);
        let text: String = text_bytes.iter().map(|b| (b'a' + b) as char).collect();
        let (payloads, wire) = frames_and_wire(ino, text, data);

        let mut q = SendQueue::new();
        for p in payloads {
            q.push(p);
        }
        let mut sock = StingySocket {
            accepts,
            call: 0,
            out: Vec::new(),
        };
        loop {
            match q.flush(&mut sock).unwrap() {
                Flush::Done => break,
                Flush::Blocked => continue,
            }
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.queued_bytes(), 0);
        prop_assert_eq!(&sock.out, &wire);
    }

    // The zero-copy write view must agree with the full decoder on every
    // field — and refuse everything that is not exactly a Write frame.
    #[test]
    fn write_ref_view_agrees_with_full_decode(
        ino in any::<u64>(),
        offset in any::<u64>(),
        data in prop::collection::vec(any::<u8>(), 0..256),
        req_id in any::<u64>(),
        garbage in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        let req = Request::Write {
            ino,
            offset,
            data: data.clone(),
        };
        let payload = req.encode(req_id);
        let wr = decode_write_ref(&payload).expect("valid write frame");
        prop_assert_eq!(wr.req_id, req_id);
        prop_assert_eq!(wr.ino, ino);
        prop_assert_eq!(wr.offset, offset);
        prop_assert_eq!(&payload[wr.data_off..wr.data_off + wr.data_len], &data[..]);

        // Trailing garbage must be rejected, matching Request::decode.
        let mut tail = payload;
        tail.extend_from_slice(&garbage);
        prop_assert!(decode_write_ref(&tail).is_none());
        prop_assert!(Request::decode(&tail).is_err());

        // Non-write requests never produce a view.
        for other in sample_requests(ino, "x".into(), data) {
            if !matches!(other, Request::Write { .. }) {
                prop_assert!(decode_write_ref(&other.encode(req_id)).is_none());
            }
        }
    }
}
