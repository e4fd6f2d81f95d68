//! The byte-stream abstraction both transports implement.
//!
//! The client, the replication engine and the fault-injecting wrappers are
//! written against [`Stream`], so they run unchanged over a TCP socket and
//! over an in-process Unix-domain socket pair (see [`crate::loopback`]). A
//! `Stream` is a bidirectional byte pipe that can be cloned into
//! independently-owned read/write halves, carry read/write timeouts, and be
//! shut down from either half. (The server's own connections are not
//! `Stream`s: the reactor owns those sockets directly.)

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// A cloneable, timeout-capable, shutdown-capable byte stream.
pub trait Stream: Read + Write + Send {
    /// A second handle to the same underlying connection (socket
    /// `try_clone` semantics: both handles share one socket, timeouts, and
    /// shutdown state). Used to give a reader thread its own handle.
    fn try_clone_stream(&self) -> io::Result<Box<dyn Stream>>;

    /// Set read/write timeouts. `None` blocks forever. A read timeout makes
    /// [`crate::codec::read_frame`] return [`crate::codec::FrameRead::Idle`]
    /// when no frame starts in time, which a blocking reader uses as its
    /// stop-flag poll tick.
    fn set_stream_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> io::Result<()>;

    /// Tear the connection down in both directions, waking any blocked peer
    /// or clone. Best-effort; errors are ignored.
    fn shutdown_stream(&self);
}

/// Both socket kinds spell these the same way.
macro_rules! impl_stream_for_socket {
    ($sock:ty) => {
        impl Stream for $sock {
            fn try_clone_stream(&self) -> io::Result<Box<dyn Stream>> {
                Ok(Box::new(self.try_clone()?))
            }

            fn set_stream_timeouts(
                &self,
                read: Option<Duration>,
                write: Option<Duration>,
            ) -> io::Result<()> {
                self.set_read_timeout(read)?;
                self.set_write_timeout(write)
            }

            fn shutdown_stream(&self) {
                let _ = self.shutdown(Shutdown::Both);
            }
        }
    };
}

impl_stream_for_socket!(TcpStream);
impl_stream_for_socket!(UnixStream);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{read_frame, write_frame, FrameRead};
    use std::net::TcpListener;

    /// Frames cross, a silent peer reads as `Idle` (not an error or a hang),
    /// a clone shares the socket, and a peer that went away reads as `Eof`.
    fn frames_idle_and_eof(mut client: impl Stream, mut server: impl Stream + 'static) {
        let (release, held) = std::sync::mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            match read_frame(&mut server).unwrap() {
                FrameRead::Frame(p) => write_frame(&mut server, &p).unwrap(),
                other => panic!("{other:?}"),
            }
            // Hold the connection open, silent, until the client has timed
            // out idle; returning drops it.
            let _ = held.recv();
        });
        client
            .set_stream_timeouts(Some(Duration::from_millis(50)), None)
            .unwrap();
        let mut clone = client.try_clone_stream().unwrap();
        write_frame(&mut clone, b"echo").unwrap();
        // Reply may take a moment; Idle polls until it lands.
        let reply = loop {
            match read_frame(&mut client).unwrap() {
                FrameRead::Frame(p) => break p,
                FrameRead::Idle => continue,
                FrameRead::Eof => panic!("unexpected eof"),
            }
        };
        assert_eq!(reply, b"echo");
        assert!(matches!(read_frame(&mut client).unwrap(), FrameRead::Idle));
        drop(release);
        peer.join().unwrap();
        assert!(matches!(read_frame(&mut clone).unwrap(), FrameRead::Eof));
    }

    #[test]
    fn tcp_stream_frames_idle_timeouts_and_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        frames_idle_and_eof(client, server);
    }

    #[test]
    fn unix_stream_frames_idle_timeouts_and_eof() {
        let (client, server) = UnixStream::pair().unwrap();
        frames_idle_and_eof(client, server);
    }
}
