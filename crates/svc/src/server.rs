//! The multi-client server: one connection state machine on the reactor,
//! fed by a TCP listener or by in-process loopback connections.
//!
//! ## Threading model
//!
//! Every connection is served by a [`denova_reactor::Reactor`], started with
//! the server: N event loops (one per core by default) own every socket and
//! decode frames as readiness allows. A connection therefore costs per-loop
//! state, not threads — 10k mostly-idle clients are O(cores) threads, not
//! 20k.
//!
//! One dispatch rule, [`runs_on_loop`], places each decoded request (there
//! is no flag). It runs to completion on the event-loop thread, its reply
//! queued with `io.send`, iff all four clauses hold:
//!
//! 1. **Short** — a zero-copy write of one block, a `Read` of at most one
//!    block, a `Stat` or a `Ping`.
//! 2. **Its shard is idle** — no lane of `key % shards` holds a job and none
//!    executes ([`ShardedPool::shard_idle`]). The worker would have popped
//!    the request next, at once, so per-(key, tenant) FIFO and the
//!    weighted-fair order are unchanged: lanes only hold requests that had
//!    to wait.
//! 3. **The stack cannot park it** ([`FileService::never_parks`]) — dedup is
//!    offline (the inline modes' fingerprint pad may sleep).
//! 4. **Its inode is not write-locked at that instant** — the inode's
//!    seqlock is even ([`denova_nova::Nova::inode_write_locked`]); with the
//!    daemon's stage 2 or another writer inside, the request would park the
//!    loop.
//!
//! Everything else goes to the shared [`ShardedPool`] unchanged: a worker
//! executes it and hands the reply back to the connection's owning loop
//! through a [`denova_reactor::ReplyHandle`]; the loop flushes it when the
//! socket is write-ready. A reply produced on the loop queues behind every
//! reply a worker already handed back ([`ConnIo::take_replies`]), so
//! same-key replies leave in request order. Both placements run the same
//! closure — tenant tag, panic guard, tenant accounting, `svc.request` span
//! — and are counted in `svc.inline` and `svc.pool.jobs` respectively. A
//! request run on the loop
//! does not count toward the inflight window (it has replied before the
//! next frame is decoded); its reply is bounded by the send queue's
//! high-water mark like any other. Head-of-line blocking on the loop is
//! bounded by the reactor's read side: one pass decodes at most one
//! `read_chunk` of buffered frames per connection (64 KiB, sixteen 4 KiB
//! writes), so another connection on that loop waits behind at most that
//! many short requests.
//!
//! A loopback connection ([`Server::connect_loopback`]) is a Unix-domain
//! `socketpair` whose server end is registered with the same reactor
//! through the same handler factory as an accepted TCP socket, so tests and
//! in-process benches drive the connection code a deployed server runs.
//!
//! ## Zero-copy writes
//!
//! Block-aligned whole-block `Write` frames skip `Request::decode` (which
//! copies the payload into a fresh `Vec`): [`decode_write_ref`] borrows the
//! offsets out of the wire frame and the request slices the frame buffer straight
//! into the filesystem write path, which carries it to the device as iovecs.
//! Counted by `svc.zero_copy_writes` vs `svc.staged_writes`.
//!
//! ## Robustness
//!
//! * **Backpressure** — at most `max_inflight_per_conn` requests of one
//!   connection may be queued or executing; past that the reactor pauses
//!   reads, which in turn backpressures the peer through its socket
//!   buffer. Counted in `svc.backpressure_waits`.
//! * **Structured errors** — malformed frames, and requests whose reply
//!   would exceed [`MAX_FRAME`], get a `BAD_REQUEST` reply; a panicking
//!   operation gets `INTERNAL`; nothing crosses the wire as a panic, and the
//!   connection survives all three.
//! * **Graceful shutdown** — [`Server::request_shutdown`] (or a `Shutdown`
//!   request from any client) stops intake and wakes the accept path via
//!   its condvar — no sleep-polling. In-flight work replies, the pool
//!   drains, and [`Server::shutdown`] finally settles the dedup pipeline
//!   with [`Denova::drain`] so the caller can cleanly unmount.

use crate::codec::MAX_FRAME;
use crate::pool::ShardedPool;
use crate::proto::{decode_write_ref, encode_reply, Body, Reply, Request, SvcError, WriteRef};
use crate::service::FileService;
use crate::tenant::{Tenant, TenantRegistry};
use denova::Denova;
use denova_nova::BLOCK_SIZE;
use denova_reactor::{ConnHandler, ConnIo, FrameOutcome, HandlerFactory, Reactor, ReactorConfig};
use denova_telemetry::Counter;
use parking_lot::{Condvar, Mutex};
use std::io;
use std::net::TcpListener;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// The event loops' tick: how long a loop waits for readiness before it
    /// checks its connections for stalls.
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
    /// Requests [`runs_on_loop`] ran on the event loop.
    inline: Counter,
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
                inline: metrics.counter("svc.inline"),
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

    /// True once shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.inner.stopping.load(Ordering::Acquire)
    }

    /// Stop intake: the accept path wakes and exits, connections finish
    /// their in-flight requests and close. Idempotent; does not block.
    pub fn request_shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Open an in-process loopback connection to this server and return the
    /// client end of the socket pair. No port, no Nagle, no host network
    /// configuration involved: the server end gets the same handler, on the
    /// same reactor, as an accepted TCP socket.
    pub fn connect_loopback(&self) -> UnixStream {
        let (client_end, server_end) =
            UnixStream::pair().expect("socketpair for a loopback connection");
        self.inner
            .reactor
            .register(server_end, (self.handler_factory())());
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
    /// The reply, ready now: connection-scoped control traffic, or a short
    /// request [`runs_on_loop`] ran on this thread.
    Inline(Vec<u8>),
    /// Ship to the worker pool; `run` produces the encoded reply frame.
    Job {
        req_id: u64,
        key: u64,
        run: Box<dyn FnOnce() -> Vec<u8> + Send>,
    },
}

/// A request as the dispatch rule sees it.
enum Req<'a> {
    ZeroCopyWrite(&'a WriteRef),
    Decoded(&'a Request),
}

/// The dispatch rule (module doc, "Threading model"): true iff the request
/// routed to `key` runs to completion on the event-loop thread. Everything
/// it rejects takes the pool path.
fn runs_on_loop(inner: &ServerInner, key: u64, req: Req<'_>) -> bool {
    // 1. Short: at most one block of I/O, and the inode it touches.
    let ino = match req {
        Req::ZeroCopyWrite(wr) if wr.data_len as u64 == BLOCK_SIZE => Some(wr.ino),
        Req::Decoded(&Request::Read { ino, len, .. }) if u64::from(len) <= BLOCK_SIZE => Some(ino),
        Req::Decoded(&Request::Stat { ino }) => Some(ino),
        Req::Decoded(Request::Ping) => None,
        _ => return false,
    };
    // 2. Its shard is idle: the worker would have started it at once.
    inner.pool.shard_idle(key)
        // 3. The stack cannot park it.
        && inner.service.never_parks()
        // 4. Its inode is not write-locked at this instant.
        && !ino.is_some_and(|ino| inner.service.fs().nova().inode_write_locked(ino))
}

/// Wrap `exec` the one way every request runs — tenant-tagged, timed,
/// panic-guarded, accounted — and place it: run here and now when
/// `on_loop`, else as a pool job under `key`.
fn place(
    inner: &ServerInner,
    tenant: &Arc<Tenant>,
    req_id: u64,
    key: u64,
    req_bytes: usize,
    on_loop: bool,
    exec: impl FnOnce() -> Reply + Send + 'static,
) -> Action {
    let tenant = tenant.clone();
    let run = move || {
        // Tag deferred dedup work spawned by this request with the tenant,
        // so the DWQ drains fairly across tenants too.
        denova::dwq::set_thread_tenant(tenant.id());
        let t0 = Instant::now();
        // A panicking operation must still reply (INTERNAL) and release its
        // inflight slot, or the connection's drain would wait forever.
        let mut reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(exec))
            .unwrap_or_else(|_| {
                Err(SvcError::service(
                    SvcError::INTERNAL,
                    "operation panicked server-side",
                ))
            });
        let mut out = encode_reply(req_id, &reply);
        if out.len() > MAX_FRAME {
            // The peer would refuse the frame and lose the connection with
            // it: answer with an error it can read instead.
            reply = Err(SvcError::service(
                SvcError::BAD_REQUEST,
                format!("reply of {} bytes exceeds MAX_FRAME", out.len()),
            ));
            out = encode_reply(req_id, &reply);
        }
        tenant.record(
            req_bytes as u64,
            out.len() as u64,
            t0.elapsed().as_nanos() as u64,
            reply.is_ok(),
        );
        out
    };
    if on_loop {
        inner.inline.inc();
        return Action::Inline(run());
    }
    Action::Job {
        req_id,
        key,
        run: Box::new(run),
    }
}

/// Decode one frame into an [`Action`]. `tenant` is the connection's current
/// tenant and is swapped in place by `Hello`.
fn classify(inner: &Arc<ServerInner>, tenant: &mut Arc<Tenant>, frame: Vec<u8>) -> Action {
    // Zero-copy fast path: block-aligned whole-block writes skip
    // `Request::decode` (which copies the payload out of the frame) — the
    // request slices the wire buffer directly into the filesystem.
    if let Some(wr) = decode_write_ref(&frame) {
        if inner.service.zero_copy_eligible(&wr) {
            let on_loop = runs_on_loop(inner, wr.ino, Req::ZeroCopyWrite(&wr));
            let service = inner.service.clone();
            let (req_id, key, req_bytes) = (wr.req_id, wr.ino, frame.len());
            return place(inner, tenant, req_id, key, req_bytes, on_loop, move || {
                service.execute_write_ref(&wr, &frame)
            });
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

    let key = req.shard_key();
    let on_loop = runs_on_loop(inner, key, Req::Decoded(&req));
    let service = inner.service.clone();
    place(
        inner,
        tenant,
        req_id,
        key,
        frame.len(),
        on_loop,
        move || service.execute(&req),
    )
}

/// The connection handler: all state lives on the owning event loop thread,
/// so no field needs a lock.
struct RConn {
    inner: Arc<ServerInner>,
    tenant: Arc<Tenant>,
    inflight: usize,
}

impl ConnHandler for RConn {
    fn on_frame(&mut self, io: &mut ConnIo<'_>, frame: Vec<u8>) -> FrameOutcome {
        match classify(&self.inner, &mut self.tenant, frame) {
            Action::Inline(reply) => {
                // A worker lets go of its shard after handing its reply
                // back: a request that then ran here replies after it.
                if self.inflight > 0 {
                    for earlier in io.take_replies() {
                        self.on_reply(io, earlier);
                    }
                }
                io.send(reply);
                FrameOutcome::Continue
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

    fn on_close(&mut self) {
        self.inner.conns_closed.inc();
    }

    fn drained(&self) -> bool {
        self.inflight == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{dial_tcp, Client};
    use crate::codec::{read_frame, write_frame, FrameRead};
    use crate::proto::decode_reply;
    use crate::transport::Stream;
    use denova::DedupMode;
    use denova_nova::NovaOptions;
    use denova_pmem::PmemDevice;
    use std::collections::HashMap;
    use std::io::{Read, Write};
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
    fn malformed_frames_get_bad_request_and_connection_survives() {
        for kind in KINDS {
            let h = serve(kind);
            let mut end = h.dial();
            // A syntactically valid frame whose payload is garbage.
            write_frame(&mut end, &[1, 2, 3]).unwrap();
            let (id, reply) = decode_reply(&next_frame(&mut end)).unwrap();
            assert_eq!((id, reply.unwrap_err().code), (0, SvcError::BAD_REQUEST));
            let mut client = Client::from_stream(end);
            client.ping().unwrap();
            let snap = h.srv.service().metrics().snapshot();
            assert_eq!(snap.counter("svc.bad_requests"), Some(1));
            drop(client);
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
            // Park the only shard, so no reply can free an inflight slot
            // while the frames below are decoded.
            let pool = &h.srv.inner.pool;
            let (release, parked) = mpsc::channel::<()>();
            assert!(pool.submit(
                0,
                Box::new(move || {
                    let _ = parked.recv();
                })
            ));
            wait_until("the shard parks", || pool.queued() == 0);
            // Fire 64 pipelined writes without reading replies: far beyond
            // the inflight cap, so the loop must pause reads rather than
            // queue them all. It queues exactly the cap and stops.
            for i in 0..64u64 {
                let req = Request::Write {
                    ino,
                    offset: i * 512,
                    data: vec![i as u8; 512],
                };
                write_frame(&mut end, &req.encode(i)).unwrap();
            }
            wait_until("the loop queues the cap and pauses reads", || {
                counter(&h, "svc.backpressure_waits") > 0 && pool.queued() == 2
            });
            release.send(()).unwrap();
            // Every reply still arrives, in submission order (single shard).
            let replies = replies_in_order_or_hang(&mut *end, 64, "pipelined writes");
            for (i, (id, reply)) in replies.into_iter().enumerate() {
                assert_eq!(id, i as u64);
                assert_eq!(reply.unwrap(), Body::Written(512));
            }
            drop(end);
            let fs = h.stop();
            assert_eq!(fs.file_size(ino).unwrap(), 64 * 512);
        }
    }

    /// `Threads:` from `/proc/self/status` (0 where unreadable).
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

    fn counter(h: &Served, name: &str) -> u64 {
        h.srv.service().metrics().counter(name).get()
    }

    fn write4k(ino: u64, offset: u64, byte: u8, req_id: u64) -> Vec<u8> {
        Request::Write {
            ino,
            offset,
            data: vec![byte; BLOCK_SIZE as usize],
        }
        .encode(req_id)
    }

    /// Read `n` reply frames off `stream`; a hang (the event loop parked)
    /// fails the test instead of wedging it. The socket's read timeout is a
    /// hang detector, not a latency assertion.
    fn replies_or_hang(stream: &mut dyn Stream, n: usize, what: &str) -> HashMap<u64, Reply> {
        replies_in_order_or_hang(stream, n, what)
            .into_iter()
            .collect()
    }

    /// [`replies_or_hang`], in arrival order.
    fn replies_in_order_or_hang(
        mut stream: &mut dyn Stream,
        n: usize,
        what: &str,
    ) -> Vec<(u64, Reply)> {
        stream
            .set_stream_timeouts(Some(Duration::from_secs(30)), None)
            .unwrap();
        (0..n)
            .map(|_| match read_frame(&mut stream) {
                Ok(FrameRead::Frame(f)) => decode_reply(&f).unwrap(),
                other => panic!("{what}: no reply — the event loop is parked ({other:?})"),
            })
            .collect()
    }

    /// Spin until `done`; like [`replies_or_hang`], the bound only turns a
    /// hang into a failure.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done() {
            assert!(Instant::now() < deadline, "hung waiting until {what}");
            std::thread::yield_now();
        }
    }

    fn bytes(reply: &Reply) -> &[u8] {
        match reply {
            Ok(Body::Bytes(b)) => b,
            other => panic!("expected bytes, got {other:?}"),
        }
    }

    #[test]
    fn short_frames_never_overtake_a_queued_write() {
        for kind in KINDS {
            let h = serve_with(kind, DedupMode::Baseline, SvcConfig::default());
            let a = h.client().create("a").unwrap();
            let mut end = h.dial();
            // Back to back, no reply awaited: a 1 MiB write (never short, so
            // pooled), then a 4 KiB write into its range, a read of that
            // page and a stat. The short three find the shard busy with the
            // 1 MiB write and must queue behind it.
            let big = Request::Write {
                ino: a,
                offset: 0,
                data: vec![0x11; 1 << 20],
            };
            end.write_all(&wire(&[
                &big.encode(1),
                &write4k(a, 8192, 0xBB, 2),
                &Request::Read {
                    ino: a,
                    offset: 8192,
                    len: BLOCK_SIZE as u32,
                }
                .encode(3),
                &Request::Stat { ino: a }.encode(4),
            ]))
            .unwrap();
            let replies = replies_or_hang(&mut *end, 4, "pipelined frames");
            assert_eq!(replies[&1], Ok(Body::Written(1 << 20)));
            assert_eq!(replies[&2], Ok(Body::Written(BLOCK_SIZE as u32)));
            assert!(bytes(&replies[&3]).iter().all(|&b| b == 0xBB), "{kind:?}");
            match &replies[&4] {
                Ok(Body::Stat(st)) => assert_eq!(st.size, 1 << 20, "{kind:?}"),
                other => panic!("{other:?}"),
            }
            // The final state has the 4 KiB write on top of the 1 MiB one.
            let page = h.client().read_at(a, 8192, BLOCK_SIZE).unwrap();
            assert!(page.iter().all(|&b| b == 0xBB), "{kind:?}");
            drop(end);
            h.stop();
        }
    }

    #[test]
    fn a_reply_run_on_the_loop_never_overtakes_one_already_handed_back() {
        let h = serve_with(
            Kind::Unix,
            DedupMode::Baseline,
            SvcConfig {
                event_loops: 1,
                ..Default::default()
            },
        );
        let ino = h.client().create("f").unwrap();
        let pool = &h.srv.inner.pool;
        pool.drain();
        // Write 1 queues behind a parked job on its shard.
        let (release_worker, parked) = mpsc::channel::<()>();
        assert!(pool.submit(
            ino,
            Box::new(move || {
                let _ = parked.recv();
            })
        ));
        wait_until("the shard parks", || pool.queued() == 0);
        let mut end = h.dial();
        write_frame(&mut end, &write4k(ino, 0, 1, 1)).unwrap();
        wait_until("write 1 queues", || pool.queued() == 1);
        // Hold the loop past its command pass: it accepts a connection on
        // a listener whose handler factory blocks.
        let (entered_tx, entered) = mpsc::channel();
        let (release_loop, hold) = mpsc::channel::<()>();
        let gate = Mutex::new((entered_tx, hold));
        let factory = h.srv.handler_factory();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        h.srv.inner.reactor.add_listener(
            listener,
            Arc::new(move || {
                let gate = gate.lock();
                gate.0.send(()).unwrap();
                gate.1.recv().unwrap();
                factory()
            }),
        );
        let _held = std::net::TcpStream::connect(addr).unwrap();
        entered.recv().unwrap();
        // Behind the held loop, write 2 arrives, and the worker runs write 1,
        // hands its reply back and lets go of the shard.
        write_frame(&mut end, &write4k(ino, 0, 2, 2)).unwrap();
        release_worker.send(()).unwrap();
        wait_until("the worker lets go of the shard", || pool.shard_idle(ino));
        let inline = counter(&h, "svc.inline");
        release_loop.send(()).unwrap();
        // Write 2 finds its shard idle and runs on the loop, and still
        // replies second.
        let ids: Vec<u64> = (0..2)
            .map(|_| decode_reply(&next_frame(&mut end)).unwrap().0)
            .collect();
        assert_eq!(ids, [1, 2], "replies reordered");
        assert_eq!(counter(&h, "svc.inline"), inline + 1);
        let page = h.client().read_at(ino, 0, BLOCK_SIZE).unwrap();
        assert!(page.iter().all(|&b| b == 2));
        drop(end);
        h.stop();
    }

    #[test]
    fn a_reply_too_large_for_a_frame_is_an_error_and_the_connection_survives() {
        let dev = Arc::new(PmemDevice::new(64 << 20));
        let opts = NovaOptions {
            num_inodes: 16,
            ..Default::default()
        };
        let fs = Denova::mkfs(dev, opts, DedupMode::Baseline).unwrap();
        let srv = Server::new(Arc::new(fs), SvcConfig::default());
        let size = 17u32 << 20;
        let ino = {
            let mut client = Client::from_stream(Box::new(srv.connect_loopback()));
            let ino = client.create("big").unwrap();
            client.write_at(ino, 0, &vec![0x3C; size as usize]).unwrap();
            ino
        };
        // One raw read of the whole file: its reply cannot fit in a frame.
        let mut end = srv.connect_loopback();
        let read = Request::Read {
            ino,
            offset: 0,
            len: size,
        };
        write_frame(&mut end, &read.encode(9)).unwrap();
        let (id, reply) = decode_reply(&next_frame(&mut end)).unwrap();
        assert_eq!((id, reply.unwrap_err().code), (9, SvcError::BAD_REQUEST));
        write_frame(&mut end, &Request::Ping.encode(10)).unwrap();
        assert_eq!(
            decode_reply(&next_frame(&mut end)).unwrap(),
            (10, Ok(Body::Empty))
        );
        drop(end);
        srv.shutdown();
    }

    #[test]
    fn an_idle_shard_runs_short_requests_on_the_loop() {
        for kind in KINDS {
            let h = serve_with(kind, DedupMode::Baseline, SvcConfig::default());
            let mut client = h.client();
            let ino = client.create("f").unwrap();
            // The create's worker lets go of its shard after it replies.
            h.srv.inner.pool.drain();
            let (jobs, inline) = (counter(&h, "svc.pool.jobs"), counter(&h, "svc.inline"));
            let block = vec![0x5A; BLOCK_SIZE as usize];
            client.write_at(ino, 0, &block).unwrap();
            assert_eq!(client.read_at(ino, 0, BLOCK_SIZE).unwrap(), block);
            assert_eq!(client.stat(ino).unwrap().size, BLOCK_SIZE);
            client.ping().unwrap();
            assert_eq!(counter(&h, "svc.inline"), inline + 4, "{kind:?}");
            assert_eq!(counter(&h, "svc.pool.jobs"), jobs, "{kind:?}");
            // Tenant accounting still sees requests run on the loop.
            let snap = h.srv.service().metrics().snapshot();
            assert!(snap.counter("svc.tenant.default.ops").unwrap() >= 5);
            // Two blocks are not short: pooled.
            client.write_at(ino, 0, &[1; 2 * 4096]).unwrap();
            assert_eq!(counter(&h, "svc.inline"), inline + 4, "{kind:?}");
            assert_eq!(counter(&h, "svc.pool.jobs"), jobs + 1, "{kind:?}");
            drop(client);
            h.stop();
        }
    }

    #[test]
    fn a_stack_that_can_park_keeps_short_requests_in_the_pool() {
        // The inline modes' fingerprint pad may sleep: clause 3 fails.
        for mode in [DedupMode::Inline, DedupMode::InlineAdaptive] {
            let h = serve_with(Kind::Unix, mode, SvcConfig::default());
            let mut client = h.client();
            let ino = client.create("f").unwrap();
            h.srv.inner.pool.drain();
            let jobs = counter(&h, "svc.pool.jobs");
            client.write_at(ino, 0, &[7; 4096]).unwrap();
            client.ping().unwrap();
            assert_eq!(counter(&h, "svc.inline"), 0, "{mode:?}");
            assert_eq!(counter(&h, "svc.pool.jobs"), jobs + 2, "{mode:?}");
            drop(client);
            h.stop();
        }
    }

    /// A raw connection that has declared `tenant` (its Hello acknowledged).
    fn tenant_stream(h: &Served, tenant: &str) -> Box<dyn Stream> {
        let mut end = h.dial();
        let hello = Request::Hello {
            tenant: tenant.into(),
            weight: 1,
        };
        write_frame(&mut end, &hello.encode(0)).unwrap();
        assert_eq!(
            decode_reply(&next_frame(&mut end)).unwrap(),
            (0, Ok(Body::Empty))
        );
        end
    }

    #[test]
    fn inline_never_jumps_a_non_empty_lane() {
        let h = serve_with(
            Kind::Unix,
            DedupMode::Baseline,
            SvcConfig {
                shards: 1,
                ..Default::default()
            },
        );
        let mut client = h.client();
        let (g_ino, v_ino) = (client.create("g").unwrap(), client.create("v").unwrap());
        let (mut greedy, mut victim) = (tenant_stream(&h, "greedy"), tenant_stream(&h, "victim"));
        let pool = &h.srv.inner.pool;
        pool.drain();
        let (jobs, inline) = (counter(&h, "svc.pool.jobs"), counter(&h, "svc.inline"));
        // Park the only shard, then fill the greedy lane behind it.
        let (release, parked) = mpsc::channel::<()>();
        assert!(pool.submit(
            0,
            Box::new(move || {
                let _ = parked.recv();
            })
        ));
        // Parked, not merely queued: a worker picking the lanes' heads by
        // weight could otherwise start a greedy write before it.
        wait_until("the shard parks", || pool.queued() == 0);
        for i in 0..4 {
            write_frame(&mut greedy, &write4k(g_ino, i * 4096, i as u8, i + 1)).unwrap();
        }
        wait_until("the greedy lane holds 4", || pool.queued() == 4);
        // The victim's lane is empty but its shard is not: a 4 KiB write and
        // a stat queue in the victim's lane instead of running on the loop.
        write_frame(&mut victim, &write4k(v_ino, 0, 0xCC, 1)).unwrap();
        write_frame(&mut victim, &Request::Stat { ino: v_ino }.encode(2)).unwrap();
        wait_until("the victim lane holds 2", || pool.queued() == 6);
        assert_eq!(counter(&h, "svc.inline"), inline);
        release.send(()).unwrap();
        let g = replies_or_hang(&mut *greedy, 4, "greedy");
        assert!(g.values().all(|r| *r == Ok(Body::Written(4096))));
        let v = replies_or_hang(&mut *victim, 2, "victim");
        assert_eq!(v[&1], Ok(Body::Written(4096)));
        assert!(matches!(&v[&2], Ok(Body::Stat(st)) if st.size == 4096));
        assert_eq!(counter(&h, "svc.inline"), inline);
        assert_eq!(counter(&h, "svc.pool.jobs"), jobs + 1 + 6);
        drop((client, greedy, victim));
        h.stop();
    }

    #[test]
    fn the_loop_never_parks_on_a_write_locked_inode() {
        let h = serve_with(
            Kind::Unix,
            DedupMode::Baseline,
            SvcConfig {
                event_loops: 1,
                ..Default::default()
            },
        );
        let mut client = h.client();
        let a = client.create("a").unwrap();
        let b = client.create("b").unwrap();
        let shards = h.srv.inner.pool.shards() as u64;
        // Ping rides shard 0; A's parked worker must not be in its way.
        let (sa, sb) = (a % shards, b % shards);
        assert!(sa != 0 && sb != 0 && sa != sb, "shards {sa}, {sb}");
        h.srv.inner.pool.drain();
        // A test thread holds A's write lock, as the daemon's stage 2 would.
        let fs = h.srv.service().fs().clone();
        let (held_tx, held) = mpsc::channel();
        let (release, parked) = mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            fs.nova()
                .with_inode_write(a, |_| {
                    held_tx.send(()).unwrap();
                    let _ = parked.recv();
                    Ok(())
                })
                .unwrap();
        });
        held.recv().unwrap();
        // Connection 1: a 4 KiB write to A. Wait until the server has taken
        // it up (whichever thread runs it counts it before the lock).
        let requests = counter(&h, "svc.requests");
        let mut c1 = h.dial();
        write_frame(&mut c1, &write4k(a, 0, 0xAA, 1)).unwrap();
        wait_until("the write to A is taken up", || {
            counter(&h, "svc.requests") > requests
        });
        // Connection 2, same loop: a ping and a write to B are answered
        // while A is still locked.
        let mut c2 = h.dial();
        c2.write_all(&wire(&[&Request::Ping.encode(2), &write4k(b, 0, 0xBB, 3)]))
            .unwrap();
        let r2 = replies_or_hang(&mut *c2, 2, "ping + write to B behind a locked inode");
        assert_eq!(r2[&2], Ok(Body::Empty));
        assert_eq!(r2[&3], Ok(Body::Written(4096)));
        assert!(!holder.is_finished(), "A's lock was held throughout");
        release.send(()).unwrap();
        holder.join().unwrap();
        let r1 = replies_or_hang(&mut *c1, 1, "write to A after release");
        assert_eq!(r1[&1], Ok(Body::Written(4096)));
        let page = client.read_at(a, 0, 4096).unwrap();
        assert!(page.iter().all(|&x| x == 0xAA));
        drop((client, c1, c2));
        h.stop();
    }
}
