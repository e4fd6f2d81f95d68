//! # denova-reactor — a hand-rolled event-driven I/O runtime
//!
//! A small reactor built directly on `epoll`: N sharded event loops (one per
//! core by default), each owning a set of nonblocking stream sockets — TCP
//! or Unix-domain, see [`Socket`] — and an `eventfd` doorbell for
//! cross-thread wakeups. Connections are per-loop state machines — an
//! incremental frame decoder on the read side, a partial-write-tracking send
//! queue on the write side — so 10k mostly-idle connections cost N threads
//! and N epoll sets, not 2·conns threads.
//!
//! ## Division of labor
//!
//! The reactor owns *readiness and framing*; the application owns *meaning*.
//! An application implements [`ConnHandler`]: `on_frame` is called on the
//! loop thread with each decoded frame and may reply inline, hand work to a
//! thread pool, pause reads (backpressure), or close the connection.
//! Completed work is handed back to the owning
//! loop through a [`ReplyHandle`] — the loop wakes via eventfd, runs
//! `on_reply` (accounting) on its own thread, and flushes the reply when the
//! socket is write-ready. Handler state is therefore only ever touched from
//! the loop thread: no locks, no atomics.
//!
//! ## Wakeup protocol
//!
//! Every cross-thread operation (register, reply, close, drain) pushes a
//! command onto the target loop's queue, and the push that finds the queue
//! empty rings the loop's eventfd. The loop's `epoll_wait` returns, drains
//! the doorbell, and takes the whole batch under the queue's mutex — so a
//! burst of replies costs one `write(2)` and one wakeup, not one each.
//!
//! ## Read side
//!
//! A readable socket is read straight into its connection's
//! [`frame::FrameDecoder`]: up to `read_chunk` bytes into a contiguous
//! queue from which whole small frames are copied out, and — once a prefix
//! announces a frame longer than what is buffered — the rest of that frame
//! directly into the exactly-sized `Vec` that [`ConnHandler::on_frame`]
//! receives. A payload byte is copied at most once in user space on its way
//! to the handler, and nothing is done per byte.
//!
//! ## Bounded buffers and timeouts
//!
//! Reads stop while the handler holds them paused **or** the send queue is
//! over its high-water mark, so a peer that writes but never reads cannot
//! balloon either buffer. A connection buffers at most one frame in flight
//! plus `read_chunk` bytes, keeps at most `read_chunk` bytes between frames,
//! and is dropped at the fourth byte of an announcement over `max_frame`.
//! A peer stalled mid-frame (or a peer not draining a nonempty send queue)
//! longer than `stall_timeout` is dropped; clean idle connections are never
//! timed out by the reactor itself.

pub mod frame;
mod socket;
pub mod sys;

pub use socket::Socket;

use frame::{Flush, FrameDecoder, SendQueue};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Reactor tunables.
#[derive(Debug, Clone, Copy)]
pub struct ReactorConfig {
    /// Event loops to spawn; 0 means one per available core.
    pub loops: usize,
    /// Largest frame a peer may announce.
    pub max_frame: usize,
    /// A connection stalled mid-frame, or not draining its replies, for this
    /// long is dropped. Idle connections (no partial frame, nothing queued)
    /// are never timed out.
    pub stall_timeout: Duration,
    /// Poll tick: upper bound on epoll_wait blocking, which paces the stall
    /// and drain-deadline checks.
    pub tick: Duration,
    /// During drain, connections still undrained or unflushed after this
    /// long are force-closed.
    pub drain_timeout: Duration,
    /// Bytes asked of a socket per read, and the most a connection keeps
    /// buffered between frames.
    pub read_chunk: usize,
    /// Reads are suppressed while a connection's send queue holds more than
    /// this many bytes.
    pub sendq_high_water: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            loops: 0,
            max_frame: 16 << 20,
            stall_timeout: Duration::from_secs(10),
            tick: Duration::from_millis(100),
            drain_timeout: Duration::from_secs(10),
            read_chunk: frame::DEFAULT_READ_CHUNK,
            sendq_high_water: 32 << 20,
        }
    }
}

/// What the handler wants done with the connection after a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameOutcome {
    /// Keep reading.
    Continue,
    /// Stop reading; flush outstanding replies (including replies to work
    /// still in flight), then close.
    Close,
}

/// Per-connection application logic. All methods run on the owning loop
/// thread, so implementations need no internal synchronization.
pub trait ConnHandler: Send {
    /// A complete frame arrived. Reply inline via [`ConnIo::send`], or ship
    /// the work elsewhere and reply later through a [`ReplyHandle`].
    fn on_frame(&mut self, io: &mut ConnIo<'_>, frame: Vec<u8>) -> FrameOutcome;

    /// A frame sent through this connection's [`ReplyHandle`] arrived back
    /// at the loop. Default: queue it for writing. Override to account
    /// in-flight work and resume paused reads.
    fn on_reply(&mut self, io: &mut ConnIo<'_>, frame: Vec<u8>) {
        io.send(frame);
    }

    /// The connection closed (EOF, error, timeout, or drain).
    fn on_close(&mut self) {}

    /// True when no work is in flight for this connection. A connection
    /// past EOF / close / drain is only dropped once this returns true and
    /// its send queue has flushed, so late replies are not lost.
    fn drained(&self) -> bool {
        true
    }
}

/// Builds a handler for each accepted connection.
pub type HandlerFactory = Arc<dyn Fn() -> Box<dyn ConnHandler> + Send + Sync>;

enum Cmd {
    Register(Socket, Box<dyn ConnHandler>),
    Listen(TcpListener, HandlerFactory),
    Reply(u64, Vec<u8>),
    Close(u64),
    Drain,
}

/// The cross-thread face of one event loop: a command queue plus the eventfd
/// doorbell that wakes the loop to service it.
struct LoopShared {
    cmds: Mutex<Vec<Cmd>>,
    wake: EventFd,
}

impl LoopShared {
    /// Queue `cmd` and ring the doorbell — but only if the queue was empty.
    /// The loop takes a batch under this same mutex, so a command that
    /// lands behind another is covered by the ring that one caused: either
    /// it is still pending, or the loop it woke has yet to take the batch.
    fn push(&self, cmd: Cmd) {
        let was_empty = {
            let mut cmds = self.cmds.lock();
            cmds.push(cmd);
            cmds.len() == 1
        };
        if was_empty {
            self.wake.wake();
        }
    }
}

/// Sends completed work back to a connection's owning loop from any thread.
/// Cheap to clone. Sends to a connection that has since closed are silently
/// dropped, exactly like writes to a dead socket.
#[derive(Clone)]
pub struct ReplyHandle {
    shared: Arc<LoopShared>,
    token: u64,
}

impl ReplyHandle {
    /// Queue `frame` on the connection and wake its loop.
    pub fn send(&self, frame: Vec<u8>) {
        self.shared.push(Cmd::Reply(self.token, frame));
    }

    /// Ask the loop to close the connection (after flushing).
    pub fn close(&self) {
        self.shared.push(Cmd::Close(self.token));
    }
}

/// The handler's window onto its connection, valid for one callback.
pub struct ConnIo<'a> {
    sendq: &'a mut SendQueue,
    paused: &'a mut bool,
    token: u64,
    shared: &'a Arc<LoopShared>,
}

impl ConnIo<'_> {
    /// Queue a frame payload for writing (flushed as the socket allows).
    pub fn send(&mut self, payload: Vec<u8>) {
        self.sendq.push(payload);
    }

    /// Stop pulling frames off this connection (backpressure). Bytes already
    /// buffered stay buffered; the peer's TCP window absorbs the rest.
    pub fn pause_reads(&mut self) {
        *self.paused = true;
    }

    /// Resume reading after [`ConnIo::pause_reads`]. Frames already buffered
    /// are decoded before the socket is touched again.
    pub fn resume_reads(&mut self) {
        *self.paused = false;
    }

    /// Take, in send order, the frames other threads sent this connection
    /// through its [`ReplyHandle`]s that the loop has not yet passed to
    /// [`ConnHandler::on_reply`]. A handler about to [`ConnIo::send`] a
    /// frame of its own delivers these first, so its frame cannot overtake
    /// a reply that was already handed back.
    pub fn take_replies(&mut self) -> Vec<Vec<u8>> {
        let mut cmds = self.shared.cmds.lock();
        let mut replies = Vec::new();
        let mut rest = Vec::with_capacity(cmds.len());
        for cmd in cmds.drain(..) {
            match cmd {
                Cmd::Reply(token, frame) if token == self.token => replies.push(frame),
                other => rest.push(other),
            }
        }
        *cmds = rest;
        replies
    }

    /// A handle for delivering replies to this connection from other
    /// threads.
    pub fn reply_handle(&self) -> ReplyHandle {
        ReplyHandle {
            shared: self.shared.clone(),
            token: self.token,
        }
    }
}

const TOKEN_WAKE: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

struct Conn {
    sock: Socket,
    fd: RawFd,
    handler: Box<dyn ConnHandler>,
    dec: FrameDecoder,
    sendq: SendQueue,
    paused: bool,
    read_eof: bool,
    closing: bool,
    interest: u32,
    last_activity: Instant,
    shared: Arc<LoopShared>,
}

struct EventLoop {
    idx: usize,
    config: ReactorConfig,
    epoll: Epoll,
    shared: Arc<LoopShared>,
    peers: Vec<Arc<LoopShared>>,
    next_peer: usize,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    listener: Option<(TcpListener, HandlerFactory)>,
    draining: bool,
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = vec![EpollEvent::zeroed(); 256];
        let tick_ms = self.config.tick.as_millis().max(1) as i32;
        while let Ok(n) = self.epoll.wait(&mut events, tick_ms) {
            let mut accept_ready = false;
            for ev in &events[..n] {
                let (token, mask) = (ev.token(), ev.events());
                match token {
                    TOKEN_WAKE => {
                        self.shared.wake.drain();
                    }
                    TOKEN_LISTENER => accept_ready = true,
                    t => self.handle_conn_event(t, mask),
                }
            }
            self.run_commands();
            if accept_ready {
                self.accept_ready();
            }
            self.tick();
            if self.draining && self.conns.is_empty() && self.listener.is_none() {
                break;
            }
        }
    }

    fn run_commands(&mut self) {
        loop {
            // Take the batch without holding the lock across callbacks; new
            // commands pushed during processing are picked up next pass.
            let batch = std::mem::take(&mut *self.shared.cmds.lock());
            if batch.is_empty() {
                return;
            }
            // Every reply in the batch is delivered before any connection
            // decodes another frame: a frame answered on this thread must
            // not overtake a reply sitting later in the batch.
            let mut replied = Vec::new();
            for cmd in batch {
                match cmd {
                    Cmd::Register(sock, handler) => self.register_conn(sock, handler),
                    Cmd::Listen(listener, factory) => {
                        // A listener that arrives behind the drain is
                        // dropped: nothing would ever take it out again.
                        if !self.draining
                            && listener.set_nonblocking(true).is_ok()
                            && self
                                .epoll
                                .add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
                                .is_ok()
                        {
                            self.listener = Some((listener, factory));
                        }
                    }
                    Cmd::Reply(token, frame) => {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            let c = &mut *conn;
                            let mut io = ConnIo {
                                sendq: &mut c.sendq,
                                paused: &mut c.paused,
                                token,
                                shared: &c.shared,
                            };
                            c.handler.on_reply(&mut io, frame);
                            replied.push(token);
                        }
                    }
                    Cmd::Close(token) => {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            conn.closing = true;
                            self.progress_conn(token);
                        }
                    }
                    Cmd::Drain => {
                        if !self.draining {
                            self.draining = true;
                            self.drain_deadline = Some(Instant::now() + self.config.drain_timeout);
                            // Stop accepting; close the port.
                            if let Some((listener, _)) = self.listener.take() {
                                let _ = self.epoll.del(listener.as_raw_fd());
                            }
                            let tokens: Vec<u64> = self.conns.keys().copied().collect();
                            for t in tokens {
                                self.progress_conn(t);
                            }
                        }
                    }
                }
            }
            replied.sort_unstable();
            replied.dedup();
            for token in replied {
                self.progress_conn(token);
            }
        }
    }

    fn register_conn(&mut self, sock: Socket, mut handler: Box<dyn ConnHandler>) {
        if self.draining {
            handler.on_close();
            return;
        }
        if sock.set_nonblocking(true).is_err() {
            handler.on_close();
            return;
        }
        sock.set_nodelay();
        let token = self.next_token;
        self.next_token += 1;
        let fd = sock.as_raw_fd();
        let interest = EPOLLIN | EPOLLRDHUP;
        if self.epoll.add(fd, interest, token).is_err() {
            handler.on_close();
            return;
        }
        self.conns.insert(
            token,
            Conn {
                sock,
                fd,
                handler,
                dec: FrameDecoder::with_read_chunk(self.config.max_frame, self.config.read_chunk),
                sendq: SendQueue::new(),
                paused: false,
                read_eof: false,
                closing: false,
                interest,
                last_activity: Instant::now(),
                shared: self.shared.clone(),
            },
        );
    }

    fn accept_ready(&mut self) {
        loop {
            let Some((listener, factory)) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((sock, _peer)) => {
                    let handler = factory();
                    // Round-robin across every loop, including this one.
                    let target = self.next_peer % self.peers.len();
                    self.next_peer = self.next_peer.wrapping_add(1);
                    if target == self.idx {
                        self.register_conn(sock.into(), handler);
                    } else {
                        self.peers[target].push(Cmd::Register(sock.into(), handler));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn handle_conn_event(&mut self, token: u64, mask: u32) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if mask & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0 {
            let throttled = conn.paused || conn.sendq.queued_bytes() > self.config.sendq_high_water;
            if !throttled && !conn.read_eof {
                // Straight off the socket into the decoder's own buffers.
                let got = conn.dec.fill(&mut &conn.sock);
                if got.bytes > 0 {
                    conn.last_activity = Instant::now();
                }
                conn.read_eof = got.eof;
            } else if mask & (EPOLLERR | EPOLLHUP) != 0 {
                conn.read_eof = true;
            }
        }
        self.progress_conn(token);
    }

    /// Advance one connection's state machine: decode buffered frames into
    /// the handler, flush the send queue, re-arm epoll interest, and close
    /// when the connection has run its course.
    fn progress_conn(&mut self, token: u64) {
        let draining = self.draining;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut close = false;

        // Decode: feed complete frames to the handler until it pauses,
        // closes, or the buffer runs dry.
        while !conn.paused
            && !conn.closing
            && !draining
            && conn.sendq.queued_bytes() <= self.config.sendq_high_water
        {
            match conn.dec.next_frame() {
                Err(_) => {
                    // Oversized frame announcement: protocol violation.
                    close = true;
                    break;
                }
                Ok(None) => break,
                Ok(Some(frame)) => {
                    let c = &mut *conn;
                    let mut io = ConnIo {
                        sendq: &mut c.sendq,
                        paused: &mut c.paused,
                        token,
                        shared: &c.shared,
                    };
                    if c.handler.on_frame(&mut io, frame) == FrameOutcome::Close {
                        conn.closing = true;
                    }
                }
            }
        }

        if !close && !conn.sendq.is_empty() {
            match conn.sendq.flush(&mut &conn.sock) {
                Ok(Flush::Done) | Ok(Flush::Blocked) => {
                    conn.last_activity = Instant::now();
                }
                Err(_) => close = true,
            }
        }

        // A connection that will read no more frames closes once every
        // in-flight job has replied and every reply has flushed.
        let no_more_reads = conn.closing || conn.read_eof || draining;
        if no_more_reads && conn.sendq.is_empty() && conn.handler.drained() {
            close = true;
        }

        if close {
            self.close_conn(token);
            return;
        }

        // Re-arm interest: reads unless paused/throttled/done, writes only
        // while the send queue is nonempty.
        let throttled = conn.paused || conn.sendq.queued_bytes() > self.config.sendq_high_water;
        let mut want = EPOLLRDHUP;
        if !throttled && !conn.read_eof && !conn.closing && !draining {
            want |= EPOLLIN;
        }
        if !conn.sendq.is_empty() {
            want |= EPOLLOUT;
        }
        if want != conn.interest {
            conn.interest = want;
            let _ = self.epoll.modify(conn.fd, want, token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(mut conn) = self.conns.remove(&token) {
            let _ = self.epoll.del(conn.fd);
            conn.handler.on_close();
        }
    }

    fn tick(&mut self) {
        let now = Instant::now();
        let force = matches!(self.drain_deadline, Some(d) if now >= d);
        let stalled: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                if force {
                    return true;
                }
                // Mid-frame with reads live, or replies the peer won't take:
                // the peer owes us progress.
                let owes = (c.dec.mid_frame() && !c.paused) || !c.sendq.is_empty();
                owes && now.duration_since(c.last_activity) > self.config.stall_timeout
            })
            .map(|(t, _)| *t)
            .collect();
        for t in stalled {
            self.close_conn(t);
        }
    }
}

/// A running reactor: N event-loop threads plus handles to feed them.
pub struct Reactor {
    handles: Vec<Arc<LoopShared>>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next: AtomicUsize,
    drained: std::sync::atomic::AtomicBool,
}

impl Reactor {
    /// Spawn the event loops.
    pub fn start(config: ReactorConfig) -> io::Result<Reactor> {
        let n = if config.loops == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            config.loops
        };
        let mut handles = Vec::with_capacity(n);
        for _ in 0..n {
            handles.push(Arc::new(LoopShared {
                cmds: Mutex::new(Vec::new()),
                wake: EventFd::new()?,
            }));
        }
        let mut threads = Vec::with_capacity(n);
        for (idx, shared) in handles.iter().enumerate() {
            let epoll = Epoll::new()?;
            epoll.add(shared.wake.raw_fd(), EPOLLIN, TOKEN_WAKE)?;
            let lp = EventLoop {
                idx,
                config,
                epoll,
                shared: shared.clone(),
                peers: handles.clone(),
                next_peer: idx, // stagger so loop 0 doesn't always win ties
                conns: HashMap::new(),
                next_token: TOKEN_FIRST_CONN,
                listener: None,
                draining: false,
                drain_deadline: None,
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("reactor-{idx}"))
                    .spawn(move || lp.run())
                    .map_err(|e| io::Error::other(format!("spawn reactor loop: {e}")))?,
            );
        }
        Ok(Reactor {
            handles,
            threads: Mutex::new(threads),
            next: AtomicUsize::new(0),
            drained: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Number of event loops.
    pub fn loops(&self) -> usize {
        self.handles.len()
    }

    /// Register an already-connected socket of either kind, round-robin
    /// across loops.
    pub fn register(&self, sock: impl Into<Socket>, handler: Box<dyn ConnHandler>) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.handles.len();
        self.handles[i].push(Cmd::Register(sock.into(), handler));
    }

    /// Hand a listener to loop 0; accepted connections get a handler from
    /// `factory` and are distributed round-robin across all loops.
    pub fn add_listener(&self, listener: TcpListener, factory: HandlerFactory) {
        self.handles[0].push(Cmd::Listen(listener, factory));
    }

    /// Begin graceful drain on every loop: stop accepting, stop reading new
    /// frames, flush in-flight replies, close connections as they empty.
    /// Idempotent, non-blocking.
    pub fn drain(&self) {
        if !self.drained.swap(true, Ordering::AcqRel) {
            for h in &self.handles {
                h.push(Cmd::Drain);
            }
        }
    }

    /// Wait for every loop to finish (call after [`Reactor::drain`]).
    pub fn join(&self) {
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.drain();
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::AtomicU64;

    fn wire_frame(payload: &[u8]) -> Vec<u8> {
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    }

    fn read_one_frame(sock: &mut impl Read) -> Vec<u8> {
        let mut len = [0u8; 4];
        sock.read_exact(&mut len).unwrap();
        let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
        sock.read_exact(&mut payload).unwrap();
        payload
    }

    /// Echoes every frame back, uppercased, inline on the loop thread.
    struct Echo {
        closed: Arc<AtomicU64>,
    }

    impl ConnHandler for Echo {
        fn on_frame(&mut self, io: &mut ConnIo<'_>, frame: Vec<u8>) -> FrameOutcome {
            io.send(frame.iter().map(|b| b.to_ascii_uppercase()).collect());
            FrameOutcome::Continue
        }

        fn on_close(&mut self) {
            self.closed.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn echo_reactor(loops: usize) -> (Reactor, std::net::SocketAddr, Arc<AtomicU64>) {
        let r = Reactor::start(ReactorConfig {
            loops,
            tick: Duration::from_millis(10),
            ..Default::default()
        })
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let closed = Arc::new(AtomicU64::new(0));
        let c2 = closed.clone();
        r.add_listener(
            listener,
            Arc::new(move || Box::new(Echo { closed: c2.clone() }) as Box<dyn ConnHandler>),
        );
        (r, addr, closed)
    }

    #[test]
    fn echo_over_many_connections_and_loops() {
        let (r, addr, closed) = echo_reactor(2);
        let mut socks: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for (i, s) in socks.iter_mut().enumerate() {
            s.write_all(&wire_frame(format!("msg-{i}").as_bytes()))
                .unwrap();
        }
        for (i, s) in socks.iter_mut().enumerate() {
            assert_eq!(read_one_frame(s), format!("MSG-{i}").into_bytes());
        }
        // Pipelined frames on one connection, delivered in split writes.
        let s = &mut socks[0];
        let mut bytes = Vec::new();
        for i in 0..10 {
            bytes.extend(wire_frame(format!("p{i}").as_bytes()));
        }
        let mid = bytes.len() / 2 + 1;
        s.write_all(&bytes[..mid]).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        s.write_all(&bytes[mid..]).unwrap();
        for i in 0..10 {
            assert_eq!(read_one_frame(s), format!("P{i}").into_bytes());
        }
        drop(socks);
        r.drain();
        r.join();
        assert_eq!(closed.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn a_registered_unix_socket_is_served() {
        let r = Reactor::start(ReactorConfig {
            loops: 1,
            tick: Duration::from_millis(10),
            ..Default::default()
        })
        .unwrap();
        let (mut peer, served) = UnixStream::pair().unwrap();
        let closed = Arc::new(AtomicU64::new(0));
        r.register(
            served,
            Box::new(Echo {
                closed: closed.clone(),
            }),
        );
        peer.write_all(&wire_frame(b"over a socketpair")).unwrap();
        assert_eq!(read_one_frame(&mut peer), b"OVER A SOCKETPAIR");
        drop(peer);
        r.drain();
        r.join();
        assert_eq!(closed.load(Ordering::Relaxed), 1);
    }

    /// Off-thread replies through a ReplyHandle, with handler-side inflight
    /// accounting gating drain.
    struct Deferred {
        inflight: u64,
        tx: std::sync::mpsc::Sender<(ReplyHandle, Vec<u8>)>,
    }

    impl ConnHandler for Deferred {
        fn on_frame(&mut self, io: &mut ConnIo<'_>, frame: Vec<u8>) -> FrameOutcome {
            self.inflight += 1;
            self.tx.send((io.reply_handle(), frame)).unwrap();
            FrameOutcome::Continue
        }

        fn on_reply(&mut self, io: &mut ConnIo<'_>, frame: Vec<u8>) {
            self.inflight -= 1;
            io.send(frame);
        }

        fn drained(&self) -> bool {
            self.inflight == 0
        }
    }

    #[test]
    fn deferred_replies_survive_drain() {
        let r = Reactor::start(ReactorConfig {
            loops: 1,
            tick: Duration::from_millis(10),
            ..Default::default()
        })
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel::<(ReplyHandle, Vec<u8>)>();
        r.add_listener(
            listener,
            Arc::new(move || {
                Box::new(Deferred {
                    inflight: 0,
                    tx: tx.clone(),
                }) as Box<dyn ConnHandler>
            }),
        );
        // A worker thread that delays, then replies — mimicking a pool.
        let worker = std::thread::spawn(move || {
            for (handle, frame) in rx {
                std::thread::sleep(Duration::from_millis(30));
                handle.send(frame);
            }
        });
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&wire_frame(b"slow-one")).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        // Drain while the job is still "executing": the reply must still
        // arrive before the connection closes.
        r.drain();
        assert_eq!(read_one_frame(&mut s), b"slow-one");
        let mut end = [0u8; 1];
        assert_eq!(s.read(&mut end).unwrap(), 0, "conn closes after drain");
        r.join();
        drop(s);
        worker.join().unwrap();
    }

    #[test]
    fn a_listener_added_behind_the_drain_is_dropped() {
        let r = Reactor::start(ReactorConfig {
            loops: 1,
            tick: Duration::from_millis(10),
            ..Default::default()
        })
        .unwrap();
        // A request in flight keeps the loop alive through the drain.
        let (mut peer, served) = UnixStream::pair().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        r.register(served, Box::new(Deferred { inflight: 0, tx }));
        peer.write_all(&wire_frame(b"held")).unwrap();
        let (handle, frame) = rx.recv().unwrap();
        r.drain();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        r.add_listener(
            listener,
            Arc::new(|| {
                Box::new(Echo {
                    closed: Arc::new(AtomicU64::new(0)),
                }) as Box<dyn ConnHandler>
            }),
        );
        handle.send(frame);
        assert_eq!(read_one_frame(&mut peer), b"held");
        // A kept listener would hold the loop open for ever.
        r.join();
    }

    #[test]
    fn large_frame_with_small_frames_behind_it_echoes_in_order() {
        let (r, addr, _closed) = echo_reactor(1);
        let mut s = TcpStream::connect(addr).unwrap();
        // 1 MiB is 16 read chunks: the body is received into its own `Vec`
        // across however many short reads the socket deals out.
        let big: Vec<u8> = (0..1usize << 20).map(|i| b'a' + (i % 26) as u8).collect();
        let mut bytes = wire_frame(&big);
        for i in 0..10 {
            bytes.extend(wire_frame(format!("after-{i}").as_bytes()));
        }
        let mut writer = s.try_clone().unwrap();
        let send = std::thread::spawn(move || writer.write_all(&bytes).unwrap());
        assert!(read_one_frame(&mut s) == big.to_ascii_uppercase());
        for i in 0..10 {
            assert_eq!(read_one_frame(&mut s), format!("AFTER-{i}").into_bytes());
        }
        send.join().unwrap();
        drop(s);
        r.drain();
        r.join();
    }

    /// Hands each frame's reply handle to the test, then holds the loop
    /// thread inside `on_frame` until the test lets go.
    struct Gate {
        handles: std::sync::mpsc::Sender<ReplyHandle>,
        release: std::sync::mpsc::Receiver<()>,
    }

    impl ConnHandler for Gate {
        fn on_frame(&mut self, io: &mut ConnIo<'_>, _frame: Vec<u8>) -> FrameOutcome {
            self.handles.send(io.reply_handle()).unwrap();
            self.release.recv().unwrap();
            FrameOutcome::Continue
        }
    }

    #[test]
    fn replies_pushed_while_the_loop_is_busy_ring_the_doorbell_once() {
        let r = Reactor::start(ReactorConfig {
            loops: 1,
            tick: Duration::from_secs(60), // only a doorbell wakes this loop
            ..Default::default()
        })
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (handles_tx, handles_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let gate = Mutex::new(Some(Gate {
            handles: handles_tx,
            release: release_rx,
        }));
        r.add_listener(
            listener,
            Arc::new(move || Box::new(gate.lock().take().unwrap()) as Box<dyn ConnHandler>),
        );
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&wire_frame(b"go")).unwrap();
        let handle = handles_rx.recv().unwrap();
        // The loop is parked in `on_frame`: nothing drains the queue or the
        // doorbell while 100 replies pile up.
        let shared = &r.handles[0];
        assert!(shared.cmds.lock().is_empty());
        for i in 0..100u32 {
            handle.send(i.to_le_bytes().to_vec());
        }
        assert_eq!(shared.cmds.lock().len(), 100);
        // Reading the counter consumed the ring; put it back.
        assert_eq!(shared.wake.drain(), 1, "one ring for the whole batch");
        shared.wake.wake();
        release_tx.send(()).unwrap();
        for i in 0..100u32 {
            assert_eq!(read_one_frame(&mut s), i.to_le_bytes());
        }
        drop(s);
        r.drain();
        r.join();
    }

    /// Replies twice to every frame, from another thread, the moment it
    /// arrives.
    struct Twice {
        inflight: u64,
        tx: std::sync::mpsc::Sender<(ReplyHandle, Vec<u8>)>,
    }

    impl ConnHandler for Twice {
        fn on_frame(&mut self, io: &mut ConnIo<'_>, frame: Vec<u8>) -> FrameOutcome {
            self.inflight += 2;
            self.tx.send((io.reply_handle(), frame)).unwrap();
            FrameOutcome::Continue
        }

        fn on_reply(&mut self, io: &mut ConnIo<'_>, frame: Vec<u8>) {
            self.inflight -= 1;
            io.send(frame);
        }

        fn drained(&self) -> bool {
            self.inflight == 0
        }
    }

    #[test]
    fn a_reply_racing_the_batch_take_is_never_stranded() {
        // With a tick this long only a doorbell wakes the loop, so a reply
        // pushed without one — behind a batch the loop had already taken —
        // would sit there until the read below times out.
        let r = Reactor::start(ReactorConfig {
            loops: 1,
            tick: Duration::from_secs(60),
            ..Default::default()
        })
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel::<(ReplyHandle, Vec<u8>)>();
        r.add_listener(
            listener,
            Arc::new(move || {
                Box::new(Twice {
                    inflight: 0,
                    tx: tx.clone(),
                }) as Box<dyn ConnHandler>
            }),
        );
        // The first push wakes the loop; the second races its `mem::take`.
        let worker = std::thread::spawn(move || {
            for (handle, frame) in rx {
                handle.send(frame.clone());
                handle.send(frame);
            }
        });
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for i in 0..1000u32 {
            s.write_all(&wire_frame(&i.to_le_bytes())).unwrap();
            assert_eq!(read_one_frame(&mut s), i.to_le_bytes());
            assert_eq!(read_one_frame(&mut s), i.to_le_bytes());
        }
        drop(s);
        r.drain();
        r.join();
        worker.join().unwrap();
    }

    #[test]
    fn oversized_frame_drops_connection() {
        let r = Reactor::start(ReactorConfig {
            loops: 1,
            max_frame: 1024,
            tick: Duration::from_millis(10),
            ..Default::default()
        })
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        r.add_listener(
            listener,
            Arc::new(|| {
                Box::new(Echo {
                    closed: Arc::new(AtomicU64::new(0)),
                }) as Box<dyn ConnHandler>
            }),
        );
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&(1u32 << 20).to_le_bytes()).unwrap();
        let mut end = [0u8; 1];
        assert_eq!(s.read(&mut end).unwrap(), 0, "server drops the peer");
        r.drain();
        r.join();
    }
}
