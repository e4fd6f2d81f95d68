//! The connected stream socket an event loop serves: TCP from a listener,
//! or one end of a Unix-domain `socketpair` for in-process peers. An enum,
//! not a trait object, so the read path dispatches on a tag.

use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;

/// A connected stream socket of either kind.
#[derive(Debug)]
pub enum Socket {
    /// An accepted (or dialed) TCP connection.
    Tcp(TcpStream),
    /// One end of a Unix-domain stream pair.
    Unix(UnixStream),
}

impl From<TcpStream> for Socket {
    fn from(s: TcpStream) -> Socket {
        Socket::Tcp(s)
    }
}

impl From<UnixStream> for Socket {
    fn from(s: UnixStream) -> Socket {
        Socket::Unix(s)
    }
}

/// Run `$e` on the std socket inside `$sock`, whichever kind it is.
macro_rules! either {
    ($sock:expr, $s:ident => $e:expr) => {
        match $sock {
            Socket::Tcp($s) => $e,
            Socket::Unix($s) => $e,
        }
    };
}

impl Socket {
    pub(crate) fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        either!(self, s => s.set_nonblocking(on))
    }

    /// Send small frames at once. Only TCP batches them (Nagle).
    pub(crate) fn set_nodelay(&self) {
        if let Socket::Tcp(s) = self {
            let _ = s.set_nodelay(true);
        }
    }
}

impl AsRawFd for Socket {
    fn as_raw_fd(&self) -> RawFd {
        either!(self, s => s.as_raw_fd())
    }
}

impl Read for &Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        either!(*self, s => (&mut &*s).read(buf))
    }
}

impl Write for &Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        either!(*self, s => (&mut &*s).write(buf))
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        either!(*self, s => (&mut &*s).write_vectored(bufs))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
