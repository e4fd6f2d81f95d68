//! Deterministic in-process transport: a pair of connected byte pipes.
//!
//! [`pair`] returns two [`PipeEnd`]s wired back-to-back; bytes written to one
//! end are read from the other, exactly like a connected socket pair but with
//! no OS networking involved. Unit and stress tests drive the full server —
//! framing, dispatch, sharded pool, backpressure — through this transport, so
//! failures reproduce deterministically regardless of the host's network
//! configuration.
//!
//! Semantics mirror TCP closely enough that the server cannot tell the
//! difference: reads block (honouring the configured read timeout by
//! returning [`io::ErrorKind::TimedOut`], which the frame layer maps to
//! `Idle`), writes to a closed peer fail with `BrokenPipe`, dropping the last
//! clone of an end closes the connection, and reads drain buffered bytes
//! before reporting EOF.

use crate::transport::Stream;
use denova_reactor::frame::{ByteQueue, DEFAULT_READ_CHUNK};
use parking_lot::{Condvar, Mutex};
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// One direction of the connection.
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
}

struct PipeState {
    buf: ByteQueue,
    closed: bool,
}

impl Pipe {
    fn new() -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                buf: ByteQueue::new(DEFAULT_READ_CHUNK),
                closed: false,
            }),
            readable: Condvar::new(),
        })
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.readable.notify_all();
    }

    fn write(&self, data: &[u8]) -> io::Result<usize> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"));
        }
        st.buf.push(data);
        self.readable.notify_all();
        Ok(data.len())
    }

    fn read(&self, out: &mut [u8], timeout: Option<Duration>) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut st = self.state.lock();
        loop {
            if !st.buf.is_empty() {
                return Ok(st.buf.pop_into(out));
            }
            if st.closed {
                return Ok(0); // EOF after the buffer drains, like a socket.
            }
            match timeout {
                Some(t) => {
                    if self.readable.wait_for(&mut st, t).timed_out() {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "read timed out"));
                    }
                }
                None => self.readable.wait(&mut st),
            }
        }
    }
}

/// State shared by all clones of one end; closing happens when the last
/// clone drops (socket semantics — a cloned reader handle keeps the
/// connection alive).
struct EndShared {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
    read_timeout: Mutex<Option<Duration>>,
}

impl Drop for EndShared {
    fn drop(&mut self) {
        self.rx.close();
        self.tx.close();
    }
}

/// One end of an in-process connection. Implements [`Stream`].
pub struct PipeEnd {
    shared: Arc<EndShared>,
}

impl std::fmt::Debug for PipeEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipeEnd").finish_non_exhaustive()
    }
}

/// A connected pair of pipe ends.
pub fn pair() -> (PipeEnd, PipeEnd) {
    let a_to_b = Pipe::new();
    let b_to_a = Pipe::new();
    (
        PipeEnd {
            shared: Arc::new(EndShared {
                rx: b_to_a.clone(),
                tx: a_to_b.clone(),
                read_timeout: Mutex::new(None),
            }),
        },
        PipeEnd {
            shared: Arc::new(EndShared {
                rx: a_to_b,
                tx: b_to_a,
                read_timeout: Mutex::new(None),
            }),
        },
    )
}

impl Read for PipeEnd {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let timeout = *self.shared.read_timeout.lock();
        self.shared.rx.read(out, timeout)
    }
}

impl Write for PipeEnd {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.shared.tx.write(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Stream for PipeEnd {
    fn try_clone_stream(&self) -> io::Result<Box<dyn Stream>> {
        Ok(Box::new(PipeEnd {
            shared: self.shared.clone(),
        }))
    }

    fn set_stream_timeouts(
        &self,
        read: Option<Duration>,
        _write: Option<Duration>,
    ) -> io::Result<()> {
        // Writes into an in-memory buffer never block, so only the read
        // timeout is meaningful here.
        *self.shared.read_timeout.lock() = read;
        Ok(())
    }

    fn shutdown_stream(&self) {
        self.shared.rx.close();
        self.shared.tx.close();
    }
}

/// An in-process "network": a registry of named listeners, so one process
/// can host many servers (one per cluster shard) and dial them by address
/// exactly like TCP — but deterministically, with no OS networking.
///
/// A listener is any closure that accepts the server-side [`PipeEnd`] of a
/// fresh connection (typically `Server::attach`). [`Hub::connect`] builds a
/// new pipe pair, hands one end to the listener, and returns the other;
/// dialing an unregistered address fails with `ConnectionRefused`, which is
/// how cluster tests simulate a dead node.
#[derive(Default)]
pub struct Hub {
    listeners: Mutex<std::collections::HashMap<String, Acceptor>>,
}

/// Server-side accept callback registered with [`Hub::register`].
type Acceptor = Arc<dyn Fn(PipeEnd) + Send + Sync>;

impl Hub {
    /// An empty hub.
    pub fn new() -> Arc<Hub> {
        Arc::new(Hub::default())
    }

    /// Register (or replace) the listener for `addr`.
    pub fn register(&self, addr: &str, accept: impl Fn(PipeEnd) + Send + Sync + 'static) {
        self.listeners
            .lock()
            .insert(addr.to_string(), Arc::new(accept));
    }

    /// Remove `addr`'s listener; later dials get `ConnectionRefused`. Used
    /// to simulate killing a node.
    pub fn unregister(&self, addr: &str) {
        self.listeners.lock().remove(addr);
    }

    /// Registered addresses (unordered).
    pub fn addrs(&self) -> Vec<String> {
        self.listeners.lock().keys().cloned().collect()
    }

    /// Dial `addr`: create a pipe pair, hand the server end to the
    /// listener, return the client end.
    pub fn connect(&self, addr: &str) -> io::Result<PipeEnd> {
        let accept = self.listeners.lock().get(addr).cloned();
        match accept {
            Some(accept) => {
                let (client_end, server_end) = pair();
                accept(server_end);
                Ok(client_end)
            }
            None => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("no loopback listener at {addr}"),
            )),
        }
    }

    /// A [`crate::client::Connector`] that re-dials `addr` through this hub,
    /// for clients and standbys that reconnect after a simulated crash.
    pub fn connector(self: &Arc<Self>, addr: &str) -> crate::client::Connector {
        let hub = self.clone();
        let addr = addr.to_string();
        Arc::new(move || Ok(Box::new(hub.connect(&addr)?) as Box<dyn crate::transport::Stream>))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{read_frame, write_frame, FrameRead};

    #[test]
    fn bytes_cross_between_ends() {
        let (mut a, mut b) = pair();
        a.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        b.write_all(b"yo").unwrap();
        let mut buf = [0u8; 2];
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"yo");
    }

    #[test]
    fn frames_cross_and_drop_signals_eof() {
        let (mut a, mut b) = pair();
        write_frame(&mut a, b"payload").unwrap();
        drop(a);
        match read_frame(&mut b).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, b"payload"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(read_frame(&mut b).unwrap(), FrameRead::Eof));
        // And writing toward the dropped end fails.
        assert!(b.write_all(b"x").is_err());
    }

    #[test]
    fn frames_cross_through_the_default_vectored_write() {
        // `PipeEnd` leaves `write_vectored` to the trait's default, which
        // hands over the first non-empty slice only: `write_frame` must
        // carry on with the payload, for any mix of sizes.
        let (mut a, mut b) = pair();
        let payloads: Vec<Vec<u8>> = [0usize, 1, 4, 4096, 256 << 10]
            .iter()
            .map(|&n| (0..n).map(|i| (i % 253) as u8).collect())
            .collect();
        for p in &payloads {
            write_frame(&mut a, p).unwrap();
        }
        for p in &payloads {
            match read_frame(&mut b).unwrap() {
                FrameRead::Frame(got) => assert!(got == *p, "{} bytes", p.len()),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn a_drained_pipe_gives_its_buffer_back() {
        let (mut a, mut b) = pair();
        let big = vec![1u8; 1 << 20];
        a.write_all(&big).unwrap();
        let mut out = vec![0u8; big.len()];
        b.read_exact(&mut out).unwrap();
        assert!(out == big);
        assert!(a.shared.tx.state.lock().buf.capacity() <= DEFAULT_READ_CHUNK);
    }

    #[test]
    fn read_timeout_reports_idle_not_eof() {
        let (a, mut b) = pair();
        b.set_stream_timeouts(Some(Duration::from_millis(20)), None)
            .unwrap();
        assert!(matches!(read_frame(&mut b).unwrap(), FrameRead::Idle));
        drop(a);
        assert!(matches!(read_frame(&mut b).unwrap(), FrameRead::Eof));
    }

    #[test]
    fn clones_keep_the_connection_alive() {
        let (a, mut b) = pair();
        let clone = a.try_clone_stream().unwrap();
        drop(a);
        // `clone` still holds the end open: no EOF yet.
        b.set_stream_timeouts(Some(Duration::from_millis(20)), None)
            .unwrap();
        assert!(matches!(read_frame(&mut b).unwrap(), FrameRead::Idle));
        drop(clone);
        assert!(matches!(read_frame(&mut b).unwrap(), FrameRead::Eof));
    }

    #[test]
    fn hub_routes_by_address_and_refuses_unknown() {
        let hub = Hub::new();
        let (tx, rx) = std::sync::mpsc::channel::<(String, PipeEnd)>();
        for name in ["shard0", "shard1"] {
            let tx = tx.clone();
            let name = name.to_string();
            hub.register(&name.clone(), move |end| {
                tx.send((name.clone(), end)).unwrap();
            });
        }
        let mut c1 = hub.connect("shard1").unwrap();
        c1.write_all(b"hi").unwrap();
        let (who, mut server_end) = rx.recv().unwrap();
        assert_eq!(who, "shard1");
        let mut buf = [0u8; 2];
        server_end.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        assert_eq!(
            hub.connect("shard9").unwrap_err().kind(),
            io::ErrorKind::ConnectionRefused
        );
        hub.unregister("shard1");
        assert_eq!(
            hub.connect("shard1").unwrap_err().kind(),
            io::ErrorKind::ConnectionRefused
        );
        let mut addrs = hub.addrs();
        addrs.sort();
        assert_eq!(addrs, ["shard0"]);
    }

    #[test]
    fn blocking_read_wakes_on_cross_thread_write() {
        let (mut a, mut b) = pair();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 3];
            a.read_exact(&mut buf).unwrap();
            buf
        });
        std::thread::sleep(Duration::from_millis(30));
        b.write_all(b"abc").unwrap();
        assert_eq!(&t.join().unwrap(), b"abc");
    }
}
