//! Per-connection frame state machines for the 4-byte length-prefixed wire
//! format: an incremental decoder that accepts bytes in whatever fragments a
//! nonblocking socket delivers, and a send queue that tracks partial-write
//! progress for write-readiness-driven flushing.
//!
//! Nothing here touches a payload one byte at a time: [`ByteQueue`] moves
//! slices, [`FrameDecoder`] copies a payload byte at most once (and the bytes
//! of a frame longer than one read not at all — they are received straight
//! into the `Vec` the frame is handed off in).

use std::collections::VecDeque;
use std::io::{self, Read, Write};

/// Bytes of the little-endian length prefix in front of every frame.
const PREFIX: usize = 4;

/// Socket read size, and with it the buffer a connection may keep between
/// frames, unless [`FrameDecoder::with_read_chunk`] says otherwise.
pub const DEFAULT_READ_CHUNK: usize = 64 << 10;

/// Contiguous FIFO byte buffer: slices are appended at the tail and consumed
/// from a head cursor, so the unread bytes are always one `&[u8]`.
///
/// The storage is kept initialized (`buf.len()` is the capacity in use), so
/// a source can be read straight into the tail without zeroing it first.
/// Once the queue drains, storage beyond `retain` bytes is given back.
pub struct ByteQueue {
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    retain: usize,
}

impl ByteQueue {
    /// An empty queue that keeps at most `retain` bytes of storage while
    /// it holds nothing.
    pub fn new(retain: usize) -> ByteQueue {
        ByteQueue {
            buf: Vec::new(),
            head: 0,
            tail: 0,
            retain,
        }
    }

    /// Unread bytes.
    pub fn len(&self) -> usize {
        self.tail - self.head
    }

    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Bytes of storage currently held, used or not.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// The unread bytes, oldest first.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.head..self.tail]
    }

    /// Writable room for `n` bytes behind the unread ones; whatever is put
    /// there joins the queue with [`ByteQueue::commit`]. The room is made by
    /// sliding the unread bytes to the front when that moves no more than
    /// was consumed or than `retain` bytes (so appends stay amortized O(1)
    /// under any backlog), else by growing.
    pub fn spare(&mut self, n: usize) -> &mut [u8] {
        let live = self.len();
        if self.buf.len() - self.tail < n {
            let cheap = live <= self.head.max(self.retain);
            if cheap && self.buf.len() - live >= n {
                self.buf.copy_within(self.head..self.tail, 0);
            } else {
                // Copy the live bytes only, and zero only the new room.
                let cap = (live + n).max(2 * self.buf.len());
                let mut grown = Vec::with_capacity(cap);
                grown.extend_from_slice(self.as_slice());
                grown.resize(cap, 0);
                self.buf = grown;
            }
            self.head = 0;
            self.tail = live;
        }
        &mut self.buf[self.tail..self.tail + n]
    }

    /// Admit the first `n` bytes written into the last [`ByteQueue::spare`].
    pub fn commit(&mut self, n: usize) {
        assert!(n <= self.buf.len() - self.tail, "commit past the storage");
        self.tail += n;
    }

    /// Append `bytes`.
    pub fn push(&mut self, bytes: &[u8]) {
        self.spare(bytes.len()).copy_from_slice(bytes);
        self.commit(bytes.len());
    }

    /// Drop the `n` oldest unread bytes.
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.len(), "consume past the unread bytes");
        self.head += n;
        if self.is_empty() {
            self.head = 0;
            self.tail = 0;
            if self.buf.len() > self.retain {
                self.buf = Vec::new();
            }
        }
    }
}

/// Decode error: the peer announced a frame larger than the configured cap.
/// The connection is broken by contract and should be dropped.
#[derive(Debug)]
pub struct FrameTooBig {
    pub announced: usize,
    pub max: usize,
}

impl std::fmt::Display for FrameTooBig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame of {} bytes exceeds cap of {}",
            self.announced, self.max
        )
    }
}

impl std::error::Error for FrameTooBig {}

/// A frame whose prefix has been consumed and whose payload is still
/// arriving, already in the exactly-sized `Vec` it will be handed off in.
struct Partial {
    buf: Vec<u8>,
    filled: usize,
}

impl Partial {
    fn complete(&self) -> bool {
        self.filled == self.buf.len()
    }
}

/// What one [`FrameDecoder::fill`] pass took from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Filled {
    /// Bytes read.
    pub bytes: usize,
    /// The source reported end of stream or failed; it will give no more.
    pub eof: bool,
}

/// Incremental length-prefix frame decoder.
///
/// Bytes arrive through [`FrameDecoder::fill`] (read off a socket) or
/// [`FrameDecoder::push`] (handed over as a slice); complete frames are
/// popped one at a time with [`FrameDecoder::next_frame`]; whatever has not
/// been popped yet comes back verbatim from [`FrameDecoder::take_residue`].
///
/// ## Layout
///
/// `queue` holds raw stream bytes, prefixes included — never more than one
/// read chunk of them when they come off a socket. As soon as its first four
/// bytes announce a frame longer than what is buffered behind them, that
/// frame becomes `body`: a `Vec` of exactly the announced length into which
/// the buffered part is copied and the rest is received directly. A frame
/// that is whole inside the queue is copied out of it when popped. Either
/// way a payload byte is copied at most once between the socket and the
/// `Vec` that `next_frame` returns.
///
/// Invariant (restored by `settle` after every mutation): while `body` is
/// `None`, the queue is shorter than a prefix, or starts with a whole frame,
/// or starts with a refused announcement.
pub struct FrameDecoder {
    queue: ByteQueue,
    body: Option<Partial>,
    max_frame: usize,
    read_chunk: usize,
}

impl FrameDecoder {
    pub fn new(max_frame: usize) -> FrameDecoder {
        FrameDecoder::with_read_chunk(max_frame, DEFAULT_READ_CHUNK)
    }

    /// A decoder whose [`FrameDecoder::fill`] reads `read_chunk` bytes at a
    /// time and which keeps no more than that buffered between frames.
    pub fn with_read_chunk(max_frame: usize, read_chunk: usize) -> FrameDecoder {
        let read_chunk = read_chunk.max(PREFIX);
        FrameDecoder {
            queue: ByteQueue::new(read_chunk),
            body: None,
            max_frame,
            read_chunk,
        }
    }

    /// The length announced by the prefix at the head of the queue.
    fn announced(&self) -> Option<usize> {
        let prefix = self.queue.as_slice().first_chunk::<PREFIX>()?;
        Some(u32::from_le_bytes(*prefix) as usize)
    }

    fn refused(&self) -> Option<FrameTooBig> {
        let announced = self.announced().filter(|len| *len > self.max_frame)?;
        Some(FrameTooBig {
            announced,
            max: self.max_frame,
        })
    }

    /// Restore the layout invariant: a frame announced at the head of the
    /// queue that reaches past the buffered bytes moves to `body`.
    fn settle(&mut self) {
        if self.body.is_some() {
            return;
        }
        let Some(len) = self.announced() else {
            return;
        };
        let have = self.queue.len() - PREFIX;
        if len > self.max_frame || have >= len {
            return;
        }
        let mut buf = vec![0u8; len];
        buf[..have].copy_from_slice(&self.queue.as_slice()[PREFIX..]);
        self.queue.consume(PREFIX + have);
        self.body = Some(Partial { buf, filled: have });
    }

    /// The frame body still being received, if there is one.
    fn open_body(&mut self) -> Option<&mut Partial> {
        self.body.as_mut().filter(|b| !b.complete())
    }

    /// Append bytes that were read elsewhere.
    pub fn push(&mut self, mut bytes: &[u8]) {
        if let Some(body) = self.open_body() {
            let n = bytes.len().min(body.buf.len() - body.filled);
            body.buf[body.filled..body.filled + n].copy_from_slice(&bytes[..n]);
            body.filled += n;
            bytes = &bytes[n..];
        }
        if !bytes.is_empty() {
            self.queue.push(bytes);
            self.settle();
        }
    }

    /// True while another read can be put to use: a body is incomplete, or
    /// the queue has room and has not met an announcement over the cap.
    fn wants_read(&self) -> bool {
        match &self.body {
            Some(body) if !body.complete() => true,
            _ => self.queue.len() < self.read_chunk && self.refused().is_none(),
        }
    }

    /// One `read` into wherever the next bytes belong: the rest of the frame
    /// body in flight, else the queue. Returns (bytes read, bytes asked for).
    fn read_once<R: Read>(&mut self, r: &mut R) -> io::Result<(usize, usize)> {
        if let Some(body) = self.open_body() {
            let dst = &mut body.buf[body.filled..];
            let want = dst.len();
            let n = r.read(dst)?;
            body.filled += n;
            return Ok((n, want));
        }
        let want = self.read_chunk - self.queue.len();
        let n = r.read(self.queue.spare(want))?;
        self.queue.commit(n);
        self.settle();
        Ok((n, want))
    }

    /// Read from `r` until it would block, returns short, ends, or the
    /// decoder can hold no more (see [`FrameDecoder::push`] for bytes that
    /// are already in memory). `WouldBlock` and a short read both mean the
    /// source is drained for now; `Interrupted` is retried. At most one
    /// frame body plus one read chunk is buffered, however much `r` offers,
    /// and nothing is read past an announcement over the cap.
    pub fn fill<R: Read>(&mut self, r: &mut R) -> Filled {
        let mut bytes = 0;
        while self.wants_read() {
            match self.read_once(r) {
                Ok((0, _)) => return Filled { bytes, eof: true },
                Ok((n, want)) => {
                    bytes += n;
                    if n < want {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => return Filled { bytes, eof: true },
            }
        }
        Filled { bytes, eof: false }
    }

    /// True when a partial frame (or unexamined bytes) sit in the buffer —
    /// the peer owes us more bytes, so a stall is a broken client rather
    /// than an idle one.
    pub fn mid_frame(&self) -> bool {
        self.body.is_some() || !self.queue.is_empty()
    }

    /// Bytes of buffer storage held, not counting a frame body in flight
    /// (which leaves with its frame). At most the read chunk once the last
    /// complete frame has been handed off.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Pop the next complete frame payload (length prefix stripped), or
    /// `None` if the buffer holds less than one whole frame. An announcement
    /// over the cap is refused as soon as its four bytes are in, before
    /// anything is allocated for it.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameTooBig> {
        let frame = if let Some(body) = self.body.take_if(|b| b.complete()) {
            body.buf
        } else if self.body.is_some() {
            return Ok(None);
        } else if let Some(refused) = self.refused() {
            return Err(refused);
        } else {
            // `settle` left either less than a prefix or a whole frame.
            let Some(len) = self.announced() else {
                return Ok(None);
            };
            let frame = self.queue.as_slice()[PREFIX..PREFIX + len].to_vec();
            self.queue.consume(PREFIX + len);
            frame
        };
        self.settle();
        Ok(Some(frame))
    }

    /// Surrender all undecoded bytes (raw, prefixes included): exactly the
    /// byte stream the socket showed after the last frame popped.
    pub fn take_residue(&mut self) -> Vec<u8> {
        let mut residue = Vec::new();
        if let Some(body) = self.body.take() {
            residue.extend_from_slice(&(body.buf.len() as u32).to_le_bytes());
            residue.extend_from_slice(&body.buf[..body.filled]);
        }
        residue.extend_from_slice(self.queue.as_slice());
        self.queue = ByteQueue::new(self.read_chunk);
        residue
    }
}

/// Outcome of a flush attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flush {
    /// Everything queued has hit the socket.
    Done,
    /// The socket would block; re-arm write interest and come back.
    Blocked,
}

/// Outbound frame queue with partial-write tracking. Frames are stored as
/// (payload, cursor) with the 4-byte prefix synthesized at the front, so an
/// enqueue never copies or reallocates the payload.
pub struct SendQueue {
    frames: VecDeque<(Vec<u8>, usize)>, // cursor counts prefix + payload bytes sent
    queued_bytes: usize,
}

impl Default for SendQueue {
    fn default() -> SendQueue {
        SendQueue::new()
    }
}

impl SendQueue {
    pub fn new() -> SendQueue {
        SendQueue {
            frames: VecDeque::new(),
            queued_bytes: 0,
        }
    }

    /// Queue one frame payload (the length prefix is added on the wire).
    pub fn push(&mut self, payload: Vec<u8>) {
        self.queued_bytes += PREFIX + payload.len();
        self.frames.push_back((payload, 0));
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Bytes still to be written, prefixes included.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Write as much as the socket will take. Returns `Blocked` on
    /// `WouldBlock`, `Done` when the queue empties, and the error on any
    /// real failure (the connection should be closed).
    pub fn flush<W: Write>(&mut self, w: &mut W) -> io::Result<Flush> {
        while let Some((payload, cursor)) = self.frames.front_mut() {
            match write_frame_rest(w, payload, *cursor) {
                Ok(n) => {
                    *cursor += n;
                    self.queued_bytes -= n;
                    if *cursor == PREFIX + payload.len() {
                        self.frames.pop_front();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(Flush::Blocked),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(Flush::Done)
    }
}

/// One write of what is left of a frame — length prefix, then payload — once
/// `sent` of its bytes are out: the rest of the prefix and the payload go in
/// one vectored call, so a frame the writer takes whole costs one syscall
/// and, on a `TCP_NODELAY` socket, one segment. Returns how many bytes the
/// writer took; taking none is a `WriteZero` error.
pub fn write_frame_rest<W: Write>(w: &mut W, payload: &[u8], sent: usize) -> io::Result<usize> {
    let prefix = (payload.len() as u32).to_le_bytes();
    let n = if sent < PREFIX {
        w.write_vectored(&[io::IoSlice::new(&prefix[sent..]), io::IoSlice::new(payload)])?
    } else {
        w.write(&payload[sent - PREFIX..])?
    };
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::WriteZero,
            "writer took none of the frame",
        ));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    }

    /// A nonblocking socket with a script: each `read` takes the next step
    /// — hand over at most that many bytes, or fail with `WouldBlock` (0) or
    /// `Interrupted` (`usize::MAX`) — and once the script runs out gives
    /// whatever is asked. Ends with EOF. Counts what it gave.
    struct Scripted<'a> {
        wire: &'a [u8],
        pos: usize,
        steps: std::slice::Iter<'a, usize>,
    }

    impl<'a> Scripted<'a> {
        fn new(wire: &'a [u8], steps: &'a [usize]) -> Scripted<'a> {
            Scripted {
                wire,
                pos: 0,
                steps: steps.iter(),
            }
        }
    }

    impl Read for Scripted<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            assert!(!out.is_empty(), "the decoder never asks for nothing");
            let quota = match self.steps.next() {
                Some(0) => return Err(io::ErrorKind::WouldBlock.into()),
                Some(&usize::MAX) => return Err(io::ErrorKind::Interrupted.into()),
                Some(&n) => n,
                None => usize::MAX,
            };
            let n = quota.min(out.len()).min(self.wire.len() - self.pos);
            out[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Drive `fill` the way the event loop does — one pass per readiness
    /// event, frames popped after each — until the source ends.
    fn decode_all(dec: &mut FrameDecoder, src: &mut Scripted<'_>) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        loop {
            let filled = dec.fill(src);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
            if filled.eof {
                return got;
            }
        }
    }

    #[test]
    fn byte_queue_is_fifo_across_slides_and_growth() {
        let mut q = ByteQueue::new(16);
        let mut model: Vec<u8> = Vec::new();
        for round in 0..200usize {
            let n = (round * 7) % 23;
            let bytes: Vec<u8> = (0..n).map(|i| (round * 31 + i) as u8).collect();
            q.push(&bytes);
            model.extend_from_slice(&bytes);
            assert_eq!(q.as_slice(), &model[..]);
            let take = ((round * 5) % 7).min(model.len());
            q.consume(take);
            model.drain(..take);
            assert_eq!(q.as_slice(), &model[..]);
        }
        q.consume(q.len());
        assert!(q.is_empty());
        assert!(
            q.capacity() <= 16,
            "drained: storage over `retain` goes back"
        );
    }

    #[test]
    fn byte_queue_read_into_spare_needs_no_copy() {
        let mut q = ByteQueue::new(8);
        q.push(b"ab");
        let room = q.spare(6);
        room[..3].copy_from_slice(b"cde");
        q.commit(3);
        assert_eq!(q.as_slice(), b"abcde");
        assert_eq!(q.capacity(), 8);
    }

    #[test]
    fn decodes_across_arbitrary_splits() {
        let mut wire = Vec::new();
        wire.extend(frame(b"alpha"));
        wire.extend(frame(b""));
        wire.extend(frame(&[9u8; 300]));
        for split in 1..wire.len() {
            // Both entry points, and a read chunk small enough that the
            // 300-byte frame is received into its own `Vec`.
            let mut pushed = FrameDecoder::with_read_chunk(1 << 20, 64);
            let mut got: Vec<Vec<u8>> = Vec::new();
            for chunk in wire.chunks(split) {
                pushed.push(chunk);
                while let Some(f) = pushed.next_frame().unwrap() {
                    got.push(f);
                }
            }
            let steps = vec![split; wire.len()];
            let mut read = FrameDecoder::with_read_chunk(1 << 20, 64);
            let got_read = decode_all(&mut read, &mut Scripted::new(&wire, &steps));
            assert_eq!(got.len(), 3, "split={split}");
            assert_eq!(got[0], b"alpha");
            assert_eq!(got[1], b"");
            assert_eq!(got[2], vec![9u8; 300]);
            assert_eq!(got_read, got, "split={split}");
            assert!(!pushed.mid_frame());
            assert!(!read.mid_frame());
        }
    }

    #[test]
    fn fill_survives_would_block_and_interrupted_anywhere() {
        let big: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let mut wire = frame(b"head");
        wire.extend(frame(&big));
        wire.extend(frame(b""));
        wire.extend(frame(b"tail"));
        // Short reads of every size class, with a refusal before each.
        for short in [1usize, 2, 3, 5, 63, 64, 65, 700] {
            let mut steps = Vec::new();
            for i in 0..wire.len() {
                steps.push(if i % 3 == 0 { 0 } else { usize::MAX });
                steps.push(short);
            }
            let mut dec = FrameDecoder::with_read_chunk(1 << 20, 64);
            let got = decode_all(&mut dec, &mut Scripted::new(&wire, &steps));
            assert_eq!(
                got,
                [b"head".to_vec(), big.clone(), vec![], b"tail".to_vec()]
            );
            assert!(!dec.mid_frame());
        }
    }

    #[test]
    fn small_frames_behind_a_large_one_arrive_in_one_pass() {
        let big = vec![7u8; 1000];
        let mut wire = frame(&big);
        for i in 0..5u8 {
            wire.extend(frame(&[i; 6]));
        }
        // Everything is readable at once: one readiness event must do.
        let mut src = Scripted::new(&wire, &[]);
        let mut dec = FrameDecoder::with_read_chunk(1 << 20, 64);
        let filled = dec.fill(&mut src);
        assert_eq!(filled.bytes, wire.len());
        assert_eq!(dec.next_frame().unwrap().unwrap(), big);
        for i in 0..5u8 {
            assert_eq!(dec.next_frame().unwrap().unwrap(), [i; 6]);
        }
        assert!(dec.next_frame().unwrap().is_none());
        assert!(!dec.mid_frame());
    }

    #[test]
    fn fill_buffers_one_body_and_one_chunk_at_most() {
        // A peer that never stops sending small frames: with nobody popping
        // them, a pass ends once a read chunk is buffered.
        let wire: Vec<u8> = std::iter::repeat_n(frame(b"spam"), 1000)
            .flatten()
            .collect();
        let mut src = Scripted::new(&wire, &[]);
        let mut dec = FrameDecoder::with_read_chunk(1 << 20, 64);
        assert_eq!(dec.fill(&mut src).bytes, 64);
        assert_eq!(dec.fill(&mut src).bytes, 0);
        assert_eq!(dec.capacity(), 64);
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut dec = FrameDecoder::new(16);
        dec.push(&100u32.to_le_bytes());
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn oversized_announcement_stops_the_reads_at_byte_four() {
        const CHUNK: usize = 64;
        // A good frame, then 0xFFFF_FFFF and an endless body. The prefix
        // arrives split so it completes on a read of its own.
        let mut wire = frame(b"fine");
        let bad_at = wire.len();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend(std::iter::repeat_n(0xEEu8, 10 * CHUNK));
        let steps = [bad_at + 2];
        let mut src = Scripted::new(&wire, &steps);
        let mut dec = FrameDecoder::with_read_chunk(1 << 20, CHUNK);
        assert!(!dec.fill(&mut src).eof);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"fine");
        assert!(dec.next_frame().unwrap().is_none(), "half a prefix so far");
        dec.fill(&mut src);
        let err = dec.next_frame().unwrap_err();
        assert_eq!((err.announced, err.max), (u32::MAX as usize, 1 << 20));
        let after_prefix = src.pos - (bad_at + 4);
        assert!(after_prefix <= CHUNK, "read {after_prefix} bytes past it");
        // Refused for good: no further read, no buffer beyond the chunk.
        assert_eq!(dec.fill(&mut src).bytes, 0);
        assert_eq!(src.pos, bad_at + 4 + after_prefix);
        assert!(dec.next_frame().is_err());
        assert!(dec.capacity() <= CHUNK);
    }

    #[test]
    fn keeps_at_most_a_read_chunk_once_frames_are_handed_off() {
        for len in [1usize << 20, 16 << 20] {
            let payload = vec![0x5Au8; len];
            let wire = frame(&payload);
            // Off a socket: the body never passes through the queue.
            let mut dec = FrameDecoder::new(16 << 20);
            let got = decode_all(&mut dec, &mut Scripted::new(&wire, &[]));
            assert!(got == [payload.clone()]);
            assert!(dec.capacity() <= DEFAULT_READ_CHUNK, "{}", dec.capacity());
            // Pushed whole: the queue grows to hold it, and lets go again.
            dec.push(&wire);
            assert!(dec.next_frame().unwrap().unwrap() == payload);
            assert!(dec.capacity() <= DEFAULT_READ_CHUNK, "{}", dec.capacity());
            // Abandoned half-way: the residue takes everything with it.
            dec.push(&wire[..len / 2]);
            assert!(dec.take_residue() == wire[..len / 2]);
            assert_eq!(dec.capacity(), 0);
            assert!(!dec.mid_frame());
        }
    }

    #[test]
    fn residue_returns_partial_bytes_verbatim() {
        let big = vec![3u8; 500];
        let mut wire = frame(b"first");
        let after_first = wire.len();
        wire.extend(frame(&big));
        let after_big = wire.len();
        wire.extend(frame(b"third"));
        // Cut mid-prefix, mid-frame with the payload already in its own
        // `Vec` (500 > the 64-byte chunk), at the frame's last byte, and
        // with bytes of the next frame queued behind the complete body.
        for cut in [
            after_first + 2,
            after_first + 4,
            after_first + 100,
            after_big,
            after_big + 6,
        ] {
            let mut dec = FrameDecoder::with_read_chunk(1 << 20, 64);
            let mut src = Scripted::new(&wire[..cut], &[]);
            dec.fill(&mut src);
            assert_eq!(dec.next_frame().unwrap().unwrap(), b"first");
            while !dec.fill(&mut src).eof {}
            assert!(dec.mid_frame(), "cut={cut}");
            assert_eq!(dec.take_residue(), wire[after_first..cut], "cut={cut}");
            assert!(!dec.mid_frame());
            assert!(dec.next_frame().unwrap().is_none());
        }
        // Mid-small-frame: the partial frame fits the chunk, but is still
        // longer than what is buffered.
        let mut dec = FrameDecoder::new(1 << 20);
        let f2 = frame(b"second-partial");
        dec.push(&wire[..after_first]);
        dec.push(&f2[..7]);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"first");
        assert!(dec.mid_frame());
        assert_eq!(dec.take_residue(), f2[..7].to_vec());
        assert!(!dec.mid_frame());
    }

    #[test]
    fn send_queue_flushes_through_a_stingy_writer() {
        // A writer that accepts one byte per call, blocking every third.
        struct Stingy {
            out: Vec<u8>,
            calls: usize,
        }
        impl Write for Stingy {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.calls += 1;
                if self.calls.is_multiple_of(3) {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "later"));
                }
                self.out.push(buf[0]);
                Ok(1)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut q = SendQueue::new();
        q.push(b"hello".to_vec());
        q.push(vec![3u8; 64]);
        let mut w = Stingy {
            out: Vec::new(),
            calls: 0,
        };
        loop {
            match q.flush(&mut w).unwrap() {
                Flush::Done => break,
                Flush::Blocked => continue,
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.queued_bytes(), 0);
        let mut expect = frame(b"hello");
        expect.extend(frame(&[3u8; 64]));
        assert_eq!(w.out, expect);
    }
}
