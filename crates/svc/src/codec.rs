//! Length-prefixed framing and the little-endian field codec shared by every
//! transport.
//!
//! A frame is a 4-byte little-endian payload length followed by the payload.
//! Frames longer than [`MAX_FRAME`] are rejected before any allocation, so a
//! corrupt or hostile peer cannot make the server reserve gigabytes.
//!
//! Field encoding inside a payload (all integers little-endian):
//!
//! | type    | wire form                    |
//! |---------|------------------------------|
//! | `u8`    | 1 byte                       |
//! | `u16`   | 2 bytes                      |
//! | `u32`   | 4 bytes                      |
//! | `u64`   | 8 bytes                      |
//! | `bool`  | 1 byte, `0` or `1`           |
//! | `bytes` | `u32` length + raw bytes     |
//! | `str`   | `bytes`, contents UTF-8      |
//!
//! [`Enc`] builds payloads; [`Dec`] walks them, returning
//! [`DecodeError`] (never panicking) on truncated or malformed input.
//!
//! Every message family is declared once, as rows of
//! `tag "name" Variant { fields }` ([`wire_enum!`](crate::wire_enum);
//! structs: [`wire_struct!`](crate::wire_struct)), and its [`Wire`] codec
//! and accessors are generated from those rows.

use denova_reactor::frame::write_frame_rest;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload (16 MiB). Large file reads/writes must be
/// chunked below this by the client; [`crate::Client`] does so transparently.
pub const MAX_FRAME: usize = 16 << 20;

/// Write one frame (length prefix + payload) and flush. Prefix and payload
/// leave in one vectored write — on a `TCP_NODELAY` socket one syscall and
/// one segment, not a 4-byte segment that wakes the peer for nothing —
/// repeated only while the writer takes less than the whole frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    let mut sent = 0usize; // prefix + payload bytes written so far
    while sent < 4 + payload.len() {
        match write_frame_rest(w, payload, sent) {
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Outcome of a frame-read attempt against a stream with a read timeout.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame arrived.
    Frame(Vec<u8>),
    /// The read timed out with *zero* header bytes consumed: the connection
    /// is idle, not broken. The caller may poll shutdown flags and retry.
    Idle,
    /// The peer closed the connection cleanly between frames.
    Eof,
}

/// Read one frame. Distinguishes an idle connection (timeout before any
/// header byte: [`FrameRead::Idle`]) from a peer that stalled mid-frame,
/// which surfaces as a [`io::ErrorKind::TimedOut`] error — the server treats
/// the former as normal and the latter as a broken client.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<FrameRead> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(FrameRead::Eof);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) && got == 0 => return Ok(FrameRead::Idle),
            Err(e) if is_timeout(&e) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "peer stalled inside frame header",
                ));
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame body",
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "peer stalled inside frame body",
                ));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(FrameRead::Frame(payload))
}

/// `read`/`recv` timeout errors differ by platform (`WouldBlock` on Unix,
/// `TimedOut` on Windows); the pipe transport uses `TimedOut`.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Payload builder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty payload.
    pub fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append length-prefixed bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Finish, returning the payload (chainable off the builder methods;
    /// leaves this encoder empty).
    pub fn finish(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }
}

/// Malformed payload (truncated field, bad UTF-8, trailing garbage, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed payload: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Payload reader.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Wrap a payload.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(DecodeError("truncated field"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| DecodeError("invalid utf-8"))
    }

    /// A `u32` count, then that many items read by `item`. The count is the
    /// peer's claim, so no more than a sane bound is reserved up front.
    pub fn counted<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let count = self.u32()? as usize;
        let mut out = Vec::with_capacity(count.min(65_536));
        for _ in 0..count {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Assert the whole payload was consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError("trailing bytes"))
        }
    }
}

/// A value with exactly one wire form: [`Wire::put`] appends it to a
/// payload, [`Wire::take`] reads it back and is total — malformed input is a
/// [`DecodeError`], never a panic.
pub trait Wire: Sized {
    /// Append this value.
    fn put(&self, e: &mut Enc);

    /// Read one value.
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError>;

    /// This value alone, as a payload.
    fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.put(&mut e);
        e.finish()
    }

    /// Decode a payload that holds exactly this one value (trailing bytes
    /// are an error).
    fn from_bytes(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Dec::new(payload);
        let v = Self::take(&mut d)?;
        d.finish()?;
        Ok(v)
    }
}

macro_rules! wire_ints {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, e: &mut Enc) {
                e.$t(*self);
            }

            #[inline]
            fn take(d: &mut Dec<'_>) -> Result<$t, DecodeError> {
                d.$t()
            }
        }
    )*};
}

wire_ints!(u8, u16, u32, u64);

/// One byte, `0` or `1`. Anything else is rejected, so no two byte strings
/// decode to the same message.
impl Wire for bool {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.u8(*self as u8);
    }

    #[inline]
    fn take(d: &mut Dec<'_>) -> Result<bool, DecodeError> {
        match d.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError("bool is neither 0 nor 1")),
        }
    }
}

macro_rules! wire_owned {
    ($($t:ty: $f:ident, $own:ident;)*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, e: &mut Enc) {
                e.$f(self);
            }

            #[inline]
            fn take(d: &mut Dec<'_>) -> Result<$t, DecodeError> {
                Ok(d.$f()?.$own())
            }
        }
    )*};
}

// Strings and payload bytes: one copy in, one copy out, never a per-byte
// loop.
wire_owned!(String: str, to_owned; Vec<u8>: bytes, to_vec;);

/// A `u32` count, then each string.
impl Wire for Vec<String> {
    fn put(&self, e: &mut Enc) {
        e.u32(self.len() as u32);
        for s in self {
            e.str(s);
        }
    }

    fn take(d: &mut Dec<'_>) -> Result<Vec<String>, DecodeError> {
        d.counted(String::take)
    }
}

/// A message family declared with [`wire_enum!`](crate::wire_enum): its
/// table, and the row each value belongs to.
pub trait WireEnum: Wire {
    /// `(tag, name)` of every row, in declaration order.
    const ROWS: &'static [(u8, &'static str)];

    /// This value's tag (its first byte on the wire).
    fn tag(&self) -> u8;

    /// This value's row name.
    fn name(&self) -> &'static str;
}

/// The position of the row called `name` in `rows`, looked up at compile
/// time by the paths that bypass the table. A name no row declares fails
/// the build.
pub const fn row_of(rows: &[(u8, &str)], name: &str) -> usize {
    let mut i = 0;
    while i < rows.len() {
        let (row, want) = (rows[i].1.as_bytes(), name.as_bytes());
        let mut j = 0;
        while j < row.len() && j < want.len() && row[j] == want[j] {
            j += 1;
        }
        if j == row.len() && j == want.len() {
            return i;
        }
        i += 1;
    }
    panic!("no row has this name")
}

/// Declare a message family as one table and derive its codec from it.
///
/// ```
/// denova_svc::wire_enum! {
///     /// A tiny family.
///     #[derive(Debug, PartialEq)]
///     pub enum Shape else "unknown shape" {
///         /// No fields.
///         1 "dot" Dot,
///         /// Named fields, encoded in declaration order.
///         2 "line" Line {
///             /// Length.
///             len: u32,
///         },
///         /// One unnamed field.
///         3 "label" Label(String),
///     }
/// }
/// use denova_svc::codec::{Wire, WireEnum};
/// let line = Shape::Line { len: 7 };
/// assert_eq!(line.to_bytes(), [2, 7, 0, 0, 0]);
/// assert_eq!(Shape::from_bytes(&[2, 7, 0, 0, 0]), Ok(line));
/// assert_eq!((Shape::Dot.tag(), Shape::Dot.name()), (1, "dot"));
/// assert!(Shape::from_bytes(&[9]).is_err());
/// ```
///
/// Each row is `tag "name" Variant`, then nothing (a unit variant), named
/// fields in braces, or one unnamed field in parentheses; `///` docs on rows
/// and fields are kept. A value's wire form is its tag byte, then each field's
/// [`Wire`] form in declaration order. The header's `else "…"` is the
/// [`DecodeError`] for a tag no row declares.
///
/// Generated: the enum, [`Wire`] and [`WireEnum`] for it, and with
/// `metric "prefix."` in the header `METRICS`/`metric()`, each row's latency
/// histogram `prefix<name>.ns`. `impl Type else "…" { rows }` implements the
/// two traits for an enum declared elsewhere (its rows carry no docs).
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $E:ident else $unknown:literal $(metric $prefix:literal)? {
            $(
                $(#[$vmeta:meta])*
                $tag:literal $name:literal $V:ident $({ $($sf:tt)* })? $(( $($tf:tt)* ))?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $E {
            $( $(#[$vmeta])* $V $({ $($sf)* })? $(( $($tf)* ))?, )*
        }

        $crate::wire_enum! {
            impl $E else $unknown {
                $( $tag $name $V $({ $($sf)* })? $(( $($tf)* ))? ),*
            }
        }

        $crate::wire_enum!(@metric $E $($prefix)? { $($V $name),* });
    };

    (
        impl $E:ident else $unknown:literal {
            $( $tag:literal $name:literal $V:ident $({ $($sf:tt)* })? $(( $($tf:tt)* ))? ),* $(,)?
        }
    ) => {
        impl $crate::codec::Wire for $E {
            #[inline]
            fn put(&self, e: &mut $crate::codec::Enc) {
                match self {
                    $(
                        $crate::wire_enum!(@pat v $V $({ $($sf)* })? $(( $($tf)* ))?) => {
                            e.u8($tag);
                            $crate::wire_enum!(@put e v $({ $($sf)* })? $(( $($tf)* ))?);
                        }
                    )*
                }
            }

            #[inline]
            fn take(
                d: &mut $crate::codec::Dec<'_>,
            ) -> ::core::result::Result<Self, $crate::codec::DecodeError> {
                Ok(match d.u8()? {
                    $( $tag => $crate::wire_enum!(@take d $V $({ $($sf)* })? $(( $($tf)* ))?), )*
                    _ => return Err($crate::codec::DecodeError($unknown)),
                })
            }
        }

        impl $crate::codec::WireEnum for $E {
            const ROWS: &'static [(u8, &'static str)] = &[$(($tag, $name)),*];

            #[inline]
            fn tag(&self) -> u8 {
                match self {
                    $( Self::$V { .. } => $tag, )*
                }
            }

            fn name(&self) -> &'static str {
                match self {
                    $( Self::$V { .. } => $name, )*
                }
            }
        }
    };

    // A row's pattern, binding its fields (by name, or the one unnamed
    // field as `$v`).
    (@pat $v:ident $V:ident { $( $(#[$m:meta])* $f:ident : $t:ty ),* $(,)? }) => {
        Self::$V { $($f),* }
    };
    (@pat $v:ident $V:ident ( $(#[$m:meta])* $t:ty )) => { Self::$V($v) };
    (@pat $v:ident $V:ident) => { Self::$V };

    // Put the fields a row's pattern bound, in declaration order.
    (@put $e:ident $v:ident { $( $(#[$m:meta])* $f:ident : $t:ty ),* $(,)? }) => {
        $( $crate::codec::Wire::put($f, $e); )*
    };
    (@put $e:ident $v:ident ( $(#[$m:meta])* $t:ty )) => { $crate::codec::Wire::put($v, $e) };
    (@put $e:ident $v:ident) => {};

    // Take a row's fields, in declaration order.
    (@take $d:ident $V:ident { $( $(#[$m:meta])* $f:ident : $t:ty ),* $(,)? }) => {
        Self::$V { $( $f: $crate::codec::Wire::take($d)? ),* }
    };
    (@take $d:ident $V:ident ( $(#[$m:meta])* $t:ty )) => {
        Self::$V($crate::codec::Wire::take($d)?)
    };
    (@take $d:ident $V:ident) => { Self::$V };

    (@metric $E:ident { $($V:ident $name:literal),* }) => {};
    (@metric $E:ident $prefix:literal { $($V:ident $name:literal),* }) => {
        impl $E {
            /// Each row's latency histogram, in row order.
            pub const METRICS: &'static [&'static str] = &[$(concat!($prefix, $name, ".ns")),*];

            /// The latency histogram this value's row records into.
            pub fn metric(&self) -> &'static str {
                match self {
                    $( Self::$V { .. } => concat!($prefix, $name, ".ns"), )*
                }
            }
        }
    };
}

/// Declare a struct whose wire form is its fields' [`Wire`] forms in
/// declaration order, and implement [`Wire`] for it; or, as
/// `wire_struct!(impl Type { field, … })`, implement it for a struct
/// declared elsewhere, fields in the order listed.
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $S:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $f:ident : $t:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $S {
            $( $(#[$fmeta])* $fvis $f: $t, )*
        }

        $crate::wire_struct!(impl $S { $($f),* });
    };

    (impl $S:ident { $($f:ident),* $(,)? }) => {
        impl $crate::codec::Wire for $S {
            #[inline]
            fn put(&self, e: &mut $crate::codec::Enc) {
                $( $crate::codec::Wire::put(&self.$f, e); )*
            }

            #[inline]
            fn take(
                d: &mut $crate::codec::Dec<'_>,
            ) -> ::core::result::Result<Self, $crate::codec::DecodeError> {
                Ok(Self { $( $f: $crate::codec::Wire::take(d)? ),* })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::IoSlice;

    #[test]
    fn enc_dec_round_trip() {
        let mut e = Enc::new();
        e.u8(7)
            .u16(300)
            .u32(70_000)
            .u64(1 << 40)
            .bytes(b"ab")
            .str("héllo");
        let p = e.finish();
        let mut d = Dec::new(&p);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 300);
        assert_eq!(d.u32().unwrap(), 70_000);
        assert_eq!(d.u64().unwrap(), 1 << 40);
        assert_eq!(d.bytes().unwrap(), b"ab");
        assert_eq!(d.str().unwrap(), "héllo");
        d.finish().unwrap();
    }

    #[test]
    fn dec_rejects_truncation_and_garbage() {
        let p = Enc::new().u64(9).finish();
        let mut d = Dec::new(&p[..4]);
        assert!(d.u64().is_err());
        let mut d = Dec::new(&p);
        d.u32().unwrap();
        assert!(d.finish().is_err());
        let bad = Enc::new().bytes(&[0xFF, 0xFE]).finish();
        let mut d = Dec::new(&bad);
        assert!(d.str().is_err());
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"one").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"three").unwrap();
        let mut r = io::Cursor::new(wire);
        for expect in [&b"one"[..], b"", b"three"] {
            match read_frame(&mut r).unwrap() {
                FrameRead::Frame(p) => assert_eq!(p, expect),
                other => panic!("expected frame, got {other:?}"),
            }
        }
        assert!(matches!(read_frame(&mut r).unwrap(), FrameRead::Eof));
    }

    /// Counts calls; takes `quota` bytes per call across all the slices it
    /// is offered, and is interrupted before every third.
    struct Counting {
        out: Vec<u8>,
        quota: usize,
        calls: usize,
        vectored_calls: usize,
    }

    impl Counting {
        fn new(quota: usize) -> Counting {
            Counting {
                out: Vec::new(),
                quota,
                calls: 0,
                vectored_calls: 0,
            }
        }

        fn take(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut left = self.quota;
            for b in bufs {
                let n = left.min(b.len());
                self.out.extend_from_slice(&b[..n]);
                left -= n;
            }
            Ok(self.quota - left)
        }
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.take(&[buf])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.vectored_calls += 1;
            let bufs: Vec<&[u8]> = bufs.iter().map(|b| &**b).collect();
            self.take(&bufs)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_vectored_write() {
        let payload = vec![0xC3u8; 4096];
        let mut w = Counting::new(usize::MAX);
        write_frame(&mut w, &payload).unwrap();
        assert_eq!((w.calls, w.vectored_calls), (1, 1));
        assert_eq!(w.out[..4], 4096u32.to_le_bytes());
        assert_eq!(w.out[4..], payload[..]);
    }

    #[test]
    fn partial_and_interrupted_writes_still_emit_the_exact_frame() {
        let payload: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        let mut expect = 300u32.to_le_bytes().to_vec();
        expect.extend_from_slice(&payload);
        // Quotas that split inside the prefix, at its end, and in the body.
        for quota in [1usize, 2, 3, 4, 5, 7, 299, 304] {
            let mut w = Counting::new(quota);
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.out, expect, "quota={quota}");
            let mut w = Counting::new(quota);
            write_frame(&mut w, b"").unwrap();
            assert_eq!(w.out, [0u8; 4], "quota={quota}");
        }
        // A writer that takes nothing is an error, not a spin.
        let err = write_frame(&mut Counting::new(0), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn oversized_frames_rejected_without_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = match read_frame(&mut io::Cursor::new(wire)) {
            Err(e) => e,
            other => panic!("expected error, got {other:?}"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(write_frame(&mut Vec::new(), &vec![0u8; MAX_FRAME + 1]).is_err());
    }

    #[test]
    fn eof_inside_frame_is_an_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        wire.truncate(6); // header + 2 payload bytes
        let err = read_frame(&mut io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
