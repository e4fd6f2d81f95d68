//! Thin safe wrappers over the two kernel primitives the reactor needs:
//! `epoll` (readiness polling) and `eventfd` (cross-thread wakeup). Declared
//! directly against libc — which std already links on Linux — so no external
//! crate is required.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_uint, c_void};

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// One readiness event. x86-64 Linux packs this struct (the kernel ABI has
/// no padding between `events` and the 64-bit payload), so `repr(C, packed)`
/// is load-bearing, not a micro-optimization.
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub token: u64,
}

impl EpollEvent {
    pub fn zeroed() -> EpollEvent {
        EpollEvent {
            events: 0,
            token: 0,
        }
    }

    /// The token, copied out of the packed field.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// The event mask, copied out of the packed field.
    pub fn events(&self) -> u32 {
        self.events
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An epoll instance (level-triggered — simpler to reason about than
/// edge-triggered, and the loop re-arms interest explicitly anyway).
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, token };
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Register `fd` with the given interest mask under `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change the interest mask for an already-registered fd.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregister an fd.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait up to `timeout_ms` for readiness; fills `events` and returns how
    /// many fired. EINTR is reported as zero events, not an error.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// A nonblocking eventfd used as a wakeup doorbell: any thread `wake()`s,
/// the owning loop `drain()`s. Coalescing (the kernel sums the counter) is
/// exactly the semantics a doorbell wants.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Ring the doorbell. Never blocks: if the counter is already saturated
    /// the wakeup is pending anyway, so EAGAIN is success.
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Consume all pending wakeups; returns how many rings had piled up
    /// (0 when none were pending).
    pub fn drain(&self) -> u64 {
        let mut buf: u64 = 0;
        unsafe { read(self.fd, (&mut buf as *mut u64).cast(), 8) };
        buf
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn eventfd_wakes_epoll() {
        let ep = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        ep.add(efd.raw_fd(), EPOLLIN, 7).unwrap();
        let mut evs = [EpollEvent::zeroed(); 4];
        // Nothing pending: times out with zero events.
        assert_eq!(ep.wait(&mut evs, 0).unwrap(), 0);
        efd.wake();
        efd.wake(); // coalesces
        let n = ep.wait(&mut evs, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(evs[0].token(), 7);
        assert!(evs[0].events() & EPOLLIN != 0);
        assert_eq!(efd.drain(), 2);
        assert_eq!(efd.drain(), 0);
        assert_eq!(ep.wait(&mut evs, 0).unwrap(), 0);
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut peer = TcpStream::connect(addr).unwrap();
        let (sock, _) = listener.accept().unwrap();
        sock.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(sock.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 1).unwrap();
        let mut evs = [EpollEvent::zeroed(); 4];
        assert_eq!(ep.wait(&mut evs, 0).unwrap(), 0);

        peer.write_all(b"ping").unwrap();
        let n = ep.wait(&mut evs, 1000).unwrap();
        assert_eq!(n, 1);
        assert!(evs[0].events() & EPOLLIN != 0);
        let mut buf = [0u8; 8];
        let got = (&sock).read(&mut buf).unwrap();
        assert_eq!(&buf[..got], b"ping");

        // Writable interest on an idle socket fires immediately.
        ep.modify(sock.as_raw_fd(), EPOLLOUT, 2).unwrap();
        let n = ep.wait(&mut evs, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(evs[0].token(), 2);
        assert!(evs[0].events() & EPOLLOUT != 0);
        ep.del(sock.as_raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut evs, 0).unwrap(), 0);
    }
}
