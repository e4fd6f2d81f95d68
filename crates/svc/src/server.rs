//! The multi-client server: one connection state machine on the reactor,
//! fed by a TCP listener or by in-process loopback connections.
//!
//! ## Threading model
//!
//! Every connection is served by a [`denova_reactor::Reactor`], started with
//! the server: N event loops (one per core by default) own every socket,
//! decode frames as readiness allows, and submit jobs to the shared
//! [`ShardedPool`]. Workers hand each reply back to the connection's owning
//! loop through a [`denova_reactor::ReplyHandle`]; the loop flushes it when
//! the socket is write-ready. A connection therefore costs per-loop state,
//! not threads — 10k mostly-idle clients are O(cores) threads, not 20k.
//!
//! A loopback connection ([`Server::connect_loopback`], or a dial through a
//! [`crate::loopback::Hub`]) is a Unix-domain `socketpair` whose server end
//! is registered with the same reactor through the same handler factory as
//! an accepted TCP socket, so tests, chaos scenarios and in-process benches
//! drive the connection code a deployed server runs.
//!
//! ## Zero-copy writes
//!
//! Block-aligned whole-block `Write` frames skip `Request::decode` (which
//! copies the payload into a fresh `Vec`): [`decode_write_ref`] borrows the
//! offsets out of the wire frame and the job slices the frame buffer straight
//! into the filesystem write path, which carries it to the device as iovecs.
//! Counted by `svc.zero_copy_writes` vs `svc.staged_writes`.
//!
//! ## Robustness
//!
//! * **Backpressure** — at most `max_inflight_per_conn` requests of one
//!   connection may be queued or executing; past that the reactor pauses
//!   reads, which in turn backpressures the peer through its socket
//!   buffer. Counted in `svc.backpressure_waits`.
//! * **Structured errors** — malformed frames get a `BAD_REQUEST` reply; a
//!   panicking operation gets `INTERNAL`; nothing crosses the wire as a
//!   panic, and the connection survives both.
//! * **Graceful shutdown** — [`Server::request_shutdown`] (or a `Shutdown`
//!   request from any client) stops intake and wakes the accept path via
//!   its condvar — no sleep-polling. In-flight work replies, the pool
//!   drains, and [`Server::shutdown`] finally settles the dedup pipeline
//!   with [`Denova::drain`] so the caller can cleanly unmount.

use crate::codec::MAX_FRAME;
use crate::pool::ShardedPool;
use crate::proto::{decode_write_ref, encode_reply, Body, Reply, Request, SvcError};
use crate::repl::{is_repl_frame, ReplMsg};
use crate::service::{FileService, ReplRole};
use crate::tenant::{Tenant, TenantRegistry};
use crate::transport::Stream;
use denova::Denova;
use denova_reactor::{
    ConnHandler, ConnIo, FrameOutcome, HandlerFactory, Reactor, ReactorConfig, Socket,
};
use denova_telemetry::Counter;
use parking_lot::{Condvar, Mutex, RwLock};
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Callback that takes over a connection whose first frame was a
/// [`ReplMsg::Subscribe`]. Receives the stream (reader direction, clonable
/// for the ack reader), the standby's `last_seq`, and `want_snapshot`. Owns
/// the stream until it returns.
pub type ReplSink = Arc<dyn Fn(Box<dyn Stream>, u64, bool) + Send + Sync>;

/// Server tunables. The defaults match the paper-evaluation setup: 8 shards,
/// a 32-request inflight window per connection, and timeouts generous enough
/// for emulated-PM latency injection.
#[derive(Debug, Clone, Copy)]
pub struct SvcConfig {
    /// Worker shards (same-inode requests serialize within a shard).
    pub shards: usize,
    /// Max queued-or-executing requests per connection before the server
    /// stops pulling frames off the socket.
    pub max_inflight_per_conn: usize,
    /// How long a connection waits on a silent peer before it looks around:
    /// the event loops' tick, which paces their stall checks, and the idle
    /// poll of a connection handed over to the replication sink.
    pub read_timeout: Duration,
    /// How long a peer may hold a connection up — stalled mid-frame, or not
    /// taking the bytes sent to it — before the connection is dropped.
    pub write_timeout: Duration,
    /// Reactor event loops; 0 means one per core.
    pub event_loops: usize,
}

impl Default for SvcConfig {
    fn default() -> SvcConfig {
        SvcConfig {
            shards: 8,
            max_inflight_per_conn: 32,
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(10),
            event_loops: 0,
        }
    }
}

struct ServerInner {
    service: Arc<FileService>,
    pool: ShardedPool,
    tenants: Arc<TenantRegistry>,
    config: SvcConfig,
    stopping: AtomicBool,
    conns: Counter,
    conns_closed: Counter,
    bad_requests: Counter,
    rejected: Counter,
    backpressure_waits: Counter,
    repl_sink: RwLock<Option<ReplSink>>,
    // Threads running the replication sink over a handed-over connection;
    // every other connection lives in the reactor's event loops.
    repl_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    // Shutdown wakeup: `serve` blocks on the condvar — never a sleep loop.
    stop_mx: Mutex<()>,
    stop_cv: Condvar,
    reactor: Reactor,
}

impl ServerInner {
    /// Stop intake and wake everything that might be waiting to notice: the
    /// condvar `serve` blocks on and the reactor's drain machinery.
    /// Idempotent and non-blocking, so it is safe from event-loop threads.
    fn begin_shutdown(&self) {
        self.stopping.store(true, Ordering::Release);
        {
            let _guard = self.stop_mx.lock();
            self.stop_cv.notify_all();
        }
        self.reactor.drain();
    }
}

/// A running file service over a mounted [`Denova`] stack.
pub struct Server {
    inner: Arc<ServerInner>,
}

impl Server {
    /// Build a server (spawning its worker pool and event loops) over a
    /// mounted stack.
    pub fn new(fs: Arc<Denova>, config: SvcConfig) -> Server {
        let service = Arc::new(FileService::new(fs));
        let metrics = service.metrics().clone();
        let tenants = Arc::new(TenantRegistry::new(&metrics));
        let reactor = Reactor::start(ReactorConfig {
            loops: config.event_loops,
            max_frame: MAX_FRAME,
            stall_timeout: config.write_timeout,
            tick: config.read_timeout,
            ..Default::default()
        })
        .expect("start the event loops: epoll, eventfd or thread creation failed");
        Server {
            inner: Arc::new(ServerInner {
                pool: ShardedPool::with_default_tenant(
                    config.shards,
                    &metrics,
                    tenants.default_tenant().clone(),
                ),
                tenants,
                service,
                config,
                stopping: AtomicBool::new(false),
                conns: metrics.counter("svc.conns.opened"),
                conns_closed: metrics.counter("svc.conns.closed"),
                bad_requests: metrics.counter("svc.bad_requests"),
                rejected: metrics.counter("svc.rejected"),
                backpressure_waits: metrics.counter("svc.backpressure_waits"),
                repl_sink: RwLock::new(None),
                repl_threads: Mutex::new(Vec::new()),
                stop_mx: Mutex::new(()),
                stop_cv: Condvar::new(),
                reactor,
            }),
        }
    }

    /// The request executor (and through it, the mounted stack and metrics).
    pub fn service(&self) -> &Arc<FileService> {
        &self.inner.service
    }

    /// The tenant registry: per-tenant accounting handles and weights.
    pub fn tenants(&self) -> &Arc<TenantRegistry> {
        &self.inner.tenants
    }

    /// Install the replication sink: connections whose first frame is a
    /// [`ReplMsg::Subscribe`] are handed to `sink` instead of the request
    /// loop. With no sink installed, replication frames get `BAD_REQUEST`.
    pub fn set_repl_sink(&self, sink: Option<ReplSink>) {
        *self.inner.repl_sink.write() = sink;
    }

    /// Install (or clear) the service's replication role — see
    /// [`FileService::set_role`].
    pub fn set_role(&self, role: Option<Arc<ReplRole>>) {
        self.inner.service.set_role(role);
    }

    /// True once shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.inner.stopping.load(Ordering::Acquire)
    }

    /// Stop intake: the accept path wakes and exits, connections finish
    /// their in-flight requests and close. Idempotent; does not block.
    pub fn request_shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Serve one connected socket: the same handler, on the same reactor,
    /// whether a listener accepted it or a loopback dial made it.
    fn accept(&self, sock: impl Into<Socket>) {
        self.inner
            .reactor
            .register(sock, (self.handler_factory())());
    }

    /// Register this server on an in-process [`crate::loopback::Hub`] under
    /// `addr`, so cluster harnesses can dial it by address like a TCP
    /// endpoint. Only a weak reference is held: after the server is dropped
    /// a dial yields a socket that reads EOF, just like a dead peer.
    pub fn register_loopback(self: &Arc<Self>, hub: &crate::loopback::Hub, addr: &str) {
        let srv = Arc::downgrade(self);
        hub.register(addr, move |end| {
            if let Some(s) = srv.upgrade() {
                s.accept(end);
            }
        });
    }

    /// Open an in-process loopback connection to this server and return the
    /// client end of the socket pair. No port, no Nagle, no host network
    /// configuration involved.
    pub fn connect_loopback(&self) -> UnixStream {
        let (client_end, server_end) =
            UnixStream::pair().expect("socketpair for a loopback connection");
        self.accept(server_end);
        client_end
    }

    /// Accept TCP connections until shutdown is requested, then return.
    ///
    /// The listener goes to the reactor: accepted sockets are distributed
    /// round-robin across the event loops, and this thread just blocks on
    /// the shutdown condvar. A server serves one listener at a time.
    pub fn serve(&self, listener: TcpListener) -> io::Result<()> {
        self.inner
            .reactor
            .add_listener(listener, self.handler_factory());
        let mut guard = self.inner.stop_mx.lock();
        while !self.stopping() {
            self.inner.stop_cv.wait(&mut guard);
        }
        Ok(())
    }

    fn handler_factory(&self) -> HandlerFactory {
        let inner = self.inner.clone();
        Arc::new(move || {
            inner.conns.inc();
            Box::new(RConn {
                inner: inner.clone(),
                tenant: inner.tenants.default_tenant().clone(),
                inflight: 0,
                pending_repl: None,
            }) as Box<dyn ConnHandler>
        })
    }

    /// Graceful shutdown: stop intake, settle every connection, stop the
    /// pool, and drain the dedup pipeline. Returns the mounted stack so the
    /// caller can unmount it cleanly.
    pub fn shutdown(self) -> Arc<Denova> {
        self.inner.begin_shutdown();
        // Settle the event loops while the pool is still alive: a loop may
        // be mid-frame (the Shutdown request itself), and its job must
        // still be accepted and its reply flushed before the socket closes.
        self.inner.reactor.join();
        // With the loops gone nothing can hand over another connection.
        let sinks: Vec<_> = self.inner.repl_threads.lock().drain(..).collect();
        for t in sinks {
            let _ = t.join();
        }
        self.inner.pool.stop();
        let fs = self.inner.service.fs().clone();
        fs.drain();
        fs
    }
}

impl Drop for Server {
    /// A server dropped without [`Server::shutdown`] stops serving too. The
    /// loops' connections share the state the reactor lives in, so the
    /// loops must be gone before the last of them can let go of it.
    fn drop(&mut self) {
        self.inner.begin_shutdown();
        self.inner.reactor.join();
    }
}

/// What one decoded frame asks of the server. Produced by [`classify`],
/// acted on by [`RConn::on_frame`].
enum Action {
    /// Connection-scoped control traffic: reply now, no pool round-trip.
    Inline(Vec<u8>),
    /// Ship to the worker pool; `run` produces the encoded reply frame.
    Job {
        req_id: u64,
        key: u64,
        run: Box<dyn FnOnce() -> Vec<u8> + Send>,
    },
    /// Replication handover: the sink takes the stream.
    Repl {
        sink: ReplSink,
        last_seq: u64,
        want_snapshot: bool,
    },
}

/// Decode one frame into an [`Action`]. `tenant` is the connection's current
/// tenant and is swapped in place by `Hello`.
fn classify(inner: &Arc<ServerInner>, tenant: &mut Arc<Tenant>, frame: Vec<u8>) -> Action {
    if is_repl_frame(&frame) {
        let sink = inner.repl_sink.read().clone();
        return match (ReplMsg::decode(&frame), sink) {
            (
                Ok(ReplMsg::Subscribe {
                    last_seq,
                    want_snapshot,
                }),
                Some(sink),
            ) => Action::Repl {
                sink,
                last_seq,
                want_snapshot,
            },
            _ => {
                inner.bad_requests.inc();
                let reply: Reply = Err(SvcError::service(
                    SvcError::BAD_REQUEST,
                    "replication not enabled on this server",
                ));
                Action::Inline(encode_reply(0, &reply))
            }
        };
    }

    // Zero-copy fast path: block-aligned whole-block writes skip
    // `Request::decode` (which copies the payload out of the frame) — the
    // job slices the wire buffer directly into the filesystem.
    if let Some(wr) = decode_write_ref(&frame) {
        if inner.service.zero_copy_eligible(&wr) {
            let service = inner.service.clone();
            let job_tenant = tenant.clone();
            let req_id = wr.req_id;
            let key = wr.ino;
            let run = Box::new(move || {
                denova::dwq::set_thread_tenant(job_tenant.id());
                let t0 = Instant::now();
                let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    service.execute_write_ref(&wr, &frame)
                }))
                .unwrap_or_else(|_| {
                    Err(SvcError::service(
                        SvcError::INTERNAL,
                        "operation panicked server-side",
                    ))
                });
                let out = encode_reply(req_id, &reply);
                job_tenant.record(
                    frame.len() as u64,
                    out.len() as u64,
                    t0.elapsed().as_nanos() as u64,
                    reply.is_ok(),
                );
                out
            });
            return Action::Job { req_id, key, run };
        }
    }

    let (req_id, req) = match Request::decode(&frame) {
        Ok(pair) => pair,
        Err(e) => {
            // Preserve the req_id when at least that much parsed, so the
            // client can fail the right pending call.
            inner.bad_requests.inc();
            let req_id = frame
                .get(..8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                .unwrap_or(0);
            let reply: Reply = Err(SvcError::service(SvcError::BAD_REQUEST, e.to_string()));
            return Action::Inline(encode_reply(req_id, &reply));
        }
    };

    if matches!(req, Request::Shutdown) {
        inner.begin_shutdown();
    }

    if let Request::Hello {
        tenant: ref name,
        weight,
    } = req
    {
        // Connection-scoped control op: swap the tenant and acknowledge
        // inline. No pool round-trip — the hello affects how *later* frames
        // are scheduled, and req_id matching lets the reply overtake any
        // still-executing pipelined requests.
        *tenant = inner.tenants.get_with_weight(name, weight);
        return Action::Inline(encode_reply(req_id, &Ok(Body::Empty)));
    }

    let service = inner.service.clone();
    let key = req.shard_key();
    let job_tenant = tenant.clone();
    let req_bytes = frame.len() as u64;
    let run = Box::new(move || {
        // Tag deferred dedup work spawned by this request with the tenant,
        // so the DWQ drains fairly across tenants too.
        denova::dwq::set_thread_tenant(job_tenant.id());
        let t0 = Instant::now();
        // A panicking operation must still reply (INTERNAL) and release its
        // inflight slot, or the connection's drain would wait forever.
        let reply =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.execute(&req)))
                .unwrap_or_else(|_| {
                    Err(SvcError::service(
                        SvcError::INTERNAL,
                        "operation panicked server-side",
                    ))
                });
        let out = encode_reply(req_id, &reply);
        job_tenant.record(
            req_bytes,
            out.len() as u64,
            t0.elapsed().as_nanos() as u64,
            reply.is_ok(),
        );
        out
    });
    Action::Job { req_id, key, run }
}

/// The connection handler: all state lives on the owning event loop thread,
/// so no field needs a lock.
struct RConn {
    inner: Arc<ServerInner>,
    tenant: Arc<Tenant>,
    inflight: usize,
    pending_repl: Option<(ReplSink, u64, bool)>,
}

impl ConnHandler for RConn {
    fn on_frame(&mut self, io: &mut ConnIo<'_>, frame: Vec<u8>) -> FrameOutcome {
        match classify(&self.inner, &mut self.tenant, frame) {
            Action::Inline(reply) => {
                io.send(reply);
                FrameOutcome::Continue
            }
            Action::Repl {
                sink,
                last_seq,
                want_snapshot,
            } => {
                if self.inflight != 0 {
                    // The handover would strand in-flight replies; a sane
                    // standby subscribes as its first act on a fresh
                    // connection, so this is a protocol violation.
                    self.inner.bad_requests.inc();
                    let reply: Reply = Err(SvcError::service(
                        SvcError::BAD_REQUEST,
                        "Subscribe must be the first frame on a connection",
                    ));
                    io.send(encode_reply(0, &reply));
                    return FrameOutcome::Continue;
                }
                self.pending_repl = Some((sink, last_seq, want_snapshot));
                FrameOutcome::Detach
            }
            Action::Job { req_id, key, run } => {
                self.inflight += 1;
                if self.inflight >= self.inner.config.max_inflight_per_conn {
                    // Backpressure: stop decoding this connection until a
                    // reply frees a slot; the peer's socket buffer absorbs
                    // the rest.
                    self.inner.backpressure_waits.inc();
                    io.pause_reads();
                }
                let handle = io.reply_handle();
                let submitted = self.inner.pool.submit_for(
                    key,
                    &self.tenant,
                    Box::new(move || handle.send(run())),
                );
                if !submitted {
                    // Pool already stopped (hard shutdown won the race):
                    // refuse politely rather than dropping the request.
                    self.inflight -= 1;
                    self.inner.rejected.inc();
                    let reply: Reply = Err(SvcError::service(
                        SvcError::SHUTTING_DOWN,
                        "server is shutting down",
                    ));
                    io.send(encode_reply(req_id, &reply));
                    return FrameOutcome::Close;
                }
                FrameOutcome::Continue
            }
        }
    }

    fn on_reply(&mut self, io: &mut ConnIo<'_>, frame: Vec<u8>) {
        self.inflight = self.inflight.saturating_sub(1);
        io.send(frame);
        if self.inflight < self.inner.config.max_inflight_per_conn {
            io.resume_reads();
        }
    }

    fn on_detach(&mut self, sock: Socket, residue: Vec<u8>) {
        let Some((sink, last_seq, want_snapshot)) = self.pending_repl.take() else {
            return;
        };
        let sock: Box<dyn Stream> = match sock {
            Socket::Tcp(s) => Box::new(s),
            Socket::Unix(s) => Box::new(s),
        };
        let _ = sock.set_stream_timeouts(
            Some(self.inner.config.read_timeout),
            Some(self.inner.config.write_timeout),
        );
        // Any bytes the reactor read past the Subscribe frame must reach the
        // sink before fresh socket reads do.
        let stream: Box<dyn Stream> = if residue.is_empty() {
            sock
        } else {
            Box::new(PrefixedStream::new(residue, sock))
        };
        let inner = self.inner.clone();
        let handle = std::thread::Builder::new()
            .name("svc-repl-conn".into())
            .spawn(move || {
                sink(stream, last_seq, want_snapshot);
                inner.conns_closed.inc();
            })
            .expect("spawn svc replication connection thread");
        self.inner.repl_threads.lock().push(handle);
    }

    fn on_close(&mut self) {
        self.inner.conns_closed.inc();
    }

    fn drained(&self) -> bool {
        self.inflight == 0
    }
}

/// A [`Stream`] that replays a byte prefix before reading the socket — used
/// to hand a detached connection (plus the reactor's unconsumed read buffer)
/// to the replication sink without losing bytes. The prefix cursor is shared
/// across clones, mirroring socket `try_clone` semantics.
struct PrefixedStream {
    prefix: Arc<Mutex<(Vec<u8>, usize)>>,
    sock: Box<dyn Stream>,
}

impl PrefixedStream {
    fn new(prefix: Vec<u8>, sock: Box<dyn Stream>) -> PrefixedStream {
        PrefixedStream {
            prefix: Arc::new(Mutex::new((prefix, 0))),
            sock,
        }
    }
}

impl Read for PrefixedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        {
            let mut guard = self.prefix.lock();
            let (bytes, cursor) = &mut *guard;
            if *cursor < bytes.len() {
                let n = (bytes.len() - *cursor).min(buf.len());
                buf[..n].copy_from_slice(&bytes[*cursor..*cursor + n]);
                *cursor += n;
                return Ok(n);
            }
        }
        self.sock.read(buf)
    }
}

impl Write for PrefixedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.sock.write(buf)
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        self.sock.write_vectored(bufs)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.sock.flush()
    }
}

impl Stream for PrefixedStream {
    fn try_clone_stream(&self) -> io::Result<Box<dyn Stream>> {
        Ok(Box::new(PrefixedStream {
            prefix: self.prefix.clone(),
            sock: self.sock.try_clone_stream()?,
        }))
    }

    fn set_stream_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> io::Result<()> {
        self.sock.set_stream_timeouts(read, write)
    }

    fn shutdown_stream(&self) {
        self.sock.shutdown_stream();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{dial_tcp, Client};
    use crate::codec::{read_frame, write_frame, FrameRead};
    use crate::proto::decode_reply;
    use denova::DedupMode;
    use denova_nova::NovaOptions;
    use denova_pmem::PmemDevice;
    use std::collections::HashMap;
    use std::net::SocketAddr;
    use std::sync::mpsc;
    use std::thread::JoinHandle;

    /// The socket kinds a connection arrives on. There is one connection
    /// state machine, and every test below holds it to the same assertions
    /// over both.
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        Tcp,
        Unix,
    }

    const KINDS: [Kind; 2] = [Kind::Tcp, Kind::Unix];

    /// A server, dialed over one socket kind.
    struct Served {
        srv: Arc<Server>,
        tcp: Option<(SocketAddr, JoinHandle<()>)>,
    }

    fn serve_with(kind: Kind, mode: DedupMode, config: SvcConfig) -> Served {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let fs = Denova::mkfs(
            dev,
            NovaOptions {
                num_inodes: 128,
                ..Default::default()
            },
            mode,
        )
        .unwrap();
        let srv = Arc::new(Server::new(Arc::new(fs), config));
        let tcp = matches!(kind, Kind::Tcp).then(|| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let srv = srv.clone();
            let accept = std::thread::spawn(move || srv.serve(listener).unwrap());
            (addr, accept)
        });
        Served { srv, tcp }
    }

    fn serve(kind: Kind) -> Served {
        serve_with(kind, DedupMode::Immediate, SvcConfig::default())
    }

    impl Served {
        fn dial(&self) -> Box<dyn Stream> {
            match &self.tcp {
                Some((addr, _)) => dial_tcp(&addr.to_string()).unwrap(),
                None => Box::new(self.srv.connect_loopback()),
            }
        }

        fn client(&self) -> Client {
            Client::from_stream(self.dial())
        }

        /// Shut down — `serve` must return — and hand back the stack.
        fn stop(self) -> Arc<Denova> {
            self.srv.request_shutdown();
            if let Some((_, accept)) = self.tcp {
                accept.join().unwrap();
            }
            Arc::try_unwrap(self.srv)
                .unwrap_or_else(|_| panic!("server still referenced"))
                .shutdown()
        }
    }

    /// `frames`, length-prefixed and back to back: one `write_all` of this
    /// lands them in the server's decoder together.
    fn wire(frames: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            write_frame(&mut out, f).unwrap();
        }
        out
    }

    fn next_frame(stream: &mut impl Read) -> Vec<u8> {
        loop {
            match read_frame(stream).unwrap() {
                FrameRead::Frame(f) => return f,
                FrameRead::Idle => {}
                FrameRead::Eof => panic!("server closed early"),
            }
        }
    }

    #[test]
    fn round_trip() {
        for kind in KINDS {
            let h = serve(kind);
            let mut client = h.client();
            client.ping().unwrap();
            let ino = client.create("hello.txt").unwrap();
            assert_eq!(client.write_at(ino, 0, b"hi there").unwrap(), 8);
            assert_eq!(client.read_at(ino, 0, 8).unwrap(), b"hi there");
            let st = client.stat(ino).unwrap();
            assert_eq!(st.size, 8);
            assert_eq!(client.list().unwrap(), vec!["hello.txt".to_string()]);
            client.unlink("hello.txt").unwrap();
            drop(client);
            h.stop();
        }
    }

    #[test]
    fn write_read_256k_round_trip() {
        for kind in KINDS {
            let h = serve(kind);
            let mut client = h.client();
            let ino = client.create("big").unwrap();
            let data: Vec<u8> = (0..256usize << 10).map(|i| (i * 31 % 251) as u8).collect();
            assert_eq!(client.write_at(ino, 0, &data).unwrap(), data.len() as u64);
            // One 256 KiB reply frame, as e2e's loopback rung reads them.
            assert!(client.read_at(ino, 0, data.len() as u64).unwrap() == data);
            assert!(client.read_at(ino, 4096, 8192).unwrap() == data[4096..12288]);
            drop(client);
            h.stop();
        }
    }

    #[test]
    fn hello_switches_tenant_accounting() {
        for kind in KINDS {
            let h = serve(kind);
            let mut client = h.client();
            client.hello("acme", 2).unwrap();
            assert_eq!(h.srv.tenants().get("acme").weight(), 2);
            let ino = client.create("f").unwrap();
            client.write_at(ino, 0, &[7u8; 4096]).unwrap();
            let snap = h.srv.service().metrics().snapshot();
            assert!(snap.counter("svc.tenant.acme.ops").unwrap_or(0) >= 2);
            assert!(snap.counter("svc.tenant.acme.bytes_in").unwrap_or(0) >= 4096);
            assert!(snap.histogram("svc.tenant.acme.request.ns").unwrap().count >= 2);
            // Untenanted connections account to the default tenant.
            let mut plain = h.client();
            plain.ping().unwrap();
            let snap = h.srv.service().metrics().snapshot();
            assert!(snap.counter("svc.tenant.default.ops").unwrap_or(0) >= 1);
            drop((client, plain));
            h.stop();
        }
    }

    #[test]
    fn malformed_or_misplaced_frames_get_bad_request_and_connection_survives() {
        for kind in KINDS {
            let h = serve(kind);
            let (handed_over, sink_calls) = mpsc::channel();
            h.srv
                .set_repl_sink(Some(Arc::new(move |_stream, last_seq, _snapshot| {
                    handed_over.send(last_seq).unwrap();
                })));
            let mut end = h.dial();
            // A syntactically valid frame whose payload is garbage.
            write_frame(&mut end, &[1, 2, 3]).unwrap();
            let (id, reply) = decode_reply(&next_frame(&mut end)).unwrap();
            assert_eq!((id, reply.unwrap_err().code), (0, SvcError::BAD_REQUEST));
            // A Subscribe behind a request still in flight: both frames are
            // decoded in one pass, before the ping's reply can come back.
            let subscribe = ReplMsg::Subscribe {
                last_seq: 7,
                want_snapshot: false,
            };
            end.write_all(&wire(&[&Request::Ping.encode(1), &subscribe.encode()]))
                .unwrap();
            let replies: HashMap<u64, Reply> = (0..2)
                .map(|_| decode_reply(&next_frame(&mut end)).unwrap())
                .collect();
            assert_eq!(replies[&1], Ok(Body::Empty));
            let refused = replies[&0].clone().unwrap_err();
            assert_eq!(refused.code, SvcError::BAD_REQUEST);
            assert!(refused.message.contains("first frame"), "{refused:?}");
            // The connection is still a request connection.
            let mut client = Client::from_stream(end);
            client.ping().unwrap();
            assert!(sink_calls.try_recv().is_err(), "{kind:?}: handed over");
            let snap = h.srv.service().metrics().snapshot();
            assert_eq!(snap.counter("svc.bad_requests"), Some(2));
            drop(client);
            h.stop();
        }
    }

    #[test]
    fn first_frame_subscribe_hands_the_socket_and_the_bytes_behind_it_to_the_sink() {
        for kind in KINDS {
            let h = serve(kind);
            let (handed_over, sink_calls) = mpsc::channel();
            h.srv
                .set_repl_sink(Some(Arc::new(move |mut stream, last_seq, snapshot| {
                    // Both directions work: echo one frame.
                    let frame = next_frame(&mut stream);
                    write_frame(&mut stream, &frame).unwrap();
                    handed_over.send((last_seq, snapshot)).unwrap();
                })));
            let subscribe = ReplMsg::Subscribe {
                last_seq: 7,
                want_snapshot: true,
            };
            let mut end = h.dial();
            // The frame behind the Subscribe is already in the reactor's
            // read buffer at handover: the sink must see it first.
            end.write_all(&wire(&[&subscribe.encode(), b"read past"]))
                .unwrap();
            assert_eq!(next_frame(&mut end), b"read past");
            assert_eq!(sink_calls.recv().unwrap(), (7, true));
            drop(end);
            h.stop();
        }
    }

    #[test]
    fn shutdown_request_stops_the_server_and_serve_returns() {
        for kind in KINDS {
            let h = serve(kind);
            let mut client = h.client();
            let ino = client.create("f").unwrap();
            client.write_at(ino, 0, &[1; 4096]).unwrap();
            client.shutdown_server().unwrap();
            assert!(h.srv.stopping());
            let fs = h.stop();
            assert_eq!(fs.file_size(ino).unwrap(), 4096);
        }
    }

    #[test]
    fn zero_copy_writes_and_idle_conns() {
        for kind in KINDS {
            let h = serve(kind);
            // Idle connections cost no threads: park a handful while working.
            let idle: Vec<Client> = (0..8)
                .map(|_| {
                    let mut c = h.client();
                    c.ping().unwrap();
                    c
                })
                .collect();
            let mut client = h.client();
            let ino = client.create("zc").unwrap();
            // Block-aligned whole-block write: the zero-copy path.
            let block = vec![0xA5u8; 4096];
            assert_eq!(client.write_at(ino, 0, &block).unwrap(), 4096);
            // Unaligned write: staged through Request::decode.
            assert_eq!(client.write_at(ino, 4096, b"tail").unwrap(), 4);
            assert_eq!(client.read_at(ino, 0, 4096).unwrap(), block);
            assert_eq!(client.read_at(ino, 4096, 4).unwrap(), b"tail");
            let snap = h.srv.service().metrics().snapshot();
            assert!(snap.counter("svc.zero_copy_writes").unwrap_or(0) >= 1);
            assert!(snap.counter("svc.staged_writes").unwrap_or(0) >= 1);
            assert!(snap.counter("svc.conns.opened").unwrap_or(0) >= 9);
            client.shutdown_server().unwrap();
            drop((idle, client));
            let fs = h.stop();
            assert_eq!(fs.file_size(ino).unwrap(), 4100);
        }
    }

    #[test]
    fn inflight_cap_backpressures_rather_than_drops() {
        for kind in KINDS {
            let h = serve_with(
                kind,
                DedupMode::Baseline,
                SvcConfig {
                    shards: 1,
                    max_inflight_per_conn: 2,
                    event_loops: 1,
                    ..Default::default()
                },
            );
            let mut end = h.dial();
            let ino = h.client().create("f").unwrap();
            // Fire 64 pipelined writes without reading replies: far beyond
            // the inflight cap, so the loop must pause reads rather than
            // queue them all.
            for i in 0..64u64 {
                let req = Request::Write {
                    ino,
                    offset: i * 512,
                    data: vec![i as u8; 512],
                };
                write_frame(&mut end, &req.encode(i)).unwrap();
            }
            // Every reply still arrives, in submission order (single shard).
            end.set_stream_timeouts(Some(Duration::from_millis(100)), None)
                .unwrap();
            for i in 0..64u64 {
                let (id, reply) = decode_reply(&next_frame(&mut end)).unwrap();
                assert_eq!(id, i);
                assert_eq!(reply.unwrap(), Body::Written(512));
            }
            let snap = h.srv.service().metrics().snapshot();
            assert!(snap.counter("svc.backpressure_waits").unwrap_or(0) > 0);
            drop(end);
            let fs = h.stop();
            assert_eq!(fs.file_size(ino).unwrap(), 64 * 512);
        }
    }

    /// `Threads:` from `/proc/self/status`, as `bench/src/svcconn.rs` reads
    /// it (0 where unreadable).
    fn resident_threads() -> usize {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("Threads:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|n| n.parse().ok())
            })
            .unwrap_or(0)
    }

    #[test]
    fn loopback_connections_add_no_threads() {
        let h = serve(Kind::Unix);
        let before = resident_threads();
        let conns: Vec<Client> = (0..256)
            .map(|_| {
                let mut c = h.client();
                c.ping().unwrap();
                c
            })
            .collect();
        // The server adds none; sibling tests in this process start and stop
        // their own, so give a burst of those the time to pass.
        let mut grew = usize::MAX;
        for _ in 0..100 {
            grew = grew.min(resident_threads().saturating_sub(before));
            if grew < 32 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(grew < 32, "256 idle connections cost {grew} threads");
        let metrics = h.srv.service().metrics().clone();
        drop(conns);
        h.stop();
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("svc.conns.opened"), Some(256));
        assert_eq!(snap.counter("svc.conns.closed"), Some(256));
    }
}
