//! Synchronous client for the file service.
//!
//! [`Client`] works over any [`Stream`] — a real [`TcpStream`] via
//! [`Client::connect_tcp`] or a loopback socket via [`Client::from_stream`] —
//! and exposes one typed method per wire op plus `put`/`get` whole-file
//! helpers that chunk transfers below the frame limit. All calls are
//! synchronous: one request, one reply. Transport failures surface as
//! [`SvcError`] with code [`SvcError::IO`], a missed reply deadline as
//! [`SvcError::TIMEOUT`]; remote failures carry the server's stable code.
//!
//! For pipelined traffic there is a bounded send window:
//! [`Client::pipeline_send`] fires without waiting and returns
//! [`SvcError::BUSY`] — a structured, never-sent refusal — once
//! `pipeline_window` requests are outstanding, instead of blocking or
//! surfacing a raw io error. [`Client::pipeline_recv`] drains replies.

use crate::codec::{read_frame, write_frame, FrameRead};
use crate::proto::{decode_reply, Body, RemoteDedupStats, Reply, Request, SvcError};
use crate::transport::Stream;
use denova_nova::FileStat;
use denova_telemetry::{Counter, MetricsRegistry};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Default per-call reply deadline. Generous: the server may be draining a
/// deep dedup backlog under injected PM latency when an fsync lands.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Default cap on outstanding pipelined requests — matches the server's
/// default `max_inflight_per_conn`, so a full client window is what the
/// server would have paused reads over anyway.
const PIPELINE_WINDOW: usize = 32;

/// Transfer chunk for `put`/`get`, comfortably under
/// [`MAX_FRAME`](crate::codec::MAX_FRAME) with headers included.
const CHUNK: usize = 4 << 20;

/// Re-dials the server, producing a fresh stream for the client's automatic
/// reconnect.
pub type Connector = Arc<dyn Fn() -> io::Result<Box<dyn Stream>> + Send + Sync>;

/// Dial `addr` over TCP with the client's socket options applied.
pub fn dial_tcp(addr: &str) -> io::Result<Box<dyn Stream>> {
    let sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true).ok();
    Ok(Box::new(sock))
}

/// How hard the client tries to ride out a transport failure.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per call, including the first (≥ 1).
    pub max_attempts: u32,
    /// First backoff delay; doubles per attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
        }
    }
}

/// Capped exponential backoff with jitter: each delay is drawn uniformly
/// from the upper half of an exponentially growing, capped window, so a herd
/// of clients reconnecting to a restarted server spreads out instead of
/// retrying in lockstep.
pub struct Backoff {
    policy: RetryPolicy,
    attempt: u32,
    rng: StdRng,
}

impl Backoff {
    /// Start a backoff sequence. The jitter seed mixes the wall clock with
    /// the calling thread's id and a process-wide counter: after a primary
    /// restart, every stranded client starts reconnecting *in the same
    /// instant*, so a clock-only seed would hand the whole herd identical
    /// jitter and they would re-dial in lockstep anyway. The counter makes
    /// seeds distinct within a process, the thread id across threads racing
    /// the same counter value, and the clock across processes.
    pub fn new(policy: RetryPolicy) -> Backoff {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let clock = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ (d.as_secs() << 32))
            .unwrap_or(0x9E37_79B9);
        let tid = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            h.finish()
        };
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let seed = (clock ^ tid ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
        Backoff::with_seed(policy, seed)
    }

    /// Start a backoff sequence with an explicit jitter seed (deterministic,
    /// for tests).
    pub fn with_seed(policy: RetryPolicy, seed: u64) -> Backoff {
        Backoff {
            policy,
            attempt: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The next delay in the sequence.
    pub fn next_delay(&mut self) -> Duration {
        let exp = self
            .policy
            .base_delay
            .saturating_mul(1u32 << self.attempt.min(16));
        self.attempt = self.attempt.saturating_add(1);
        let cap_ns = exp.min(self.policy.max_delay).as_nanos() as u64;
        Duration::from_nanos(cap_ns / 2 + self.rng.gen_range(0..cap_ns / 2 + 1))
    }

    /// Sleep for the next delay.
    pub fn sleep(&mut self) {
        std::thread::sleep(self.next_delay());
    }
}

/// A synchronous connection to a file service.
pub struct Client {
    stream: Box<dyn Stream>,
    next_id: u64,
    reconnect: Option<Connector>,
    policy: RetryPolicy,
    reconnects: u64,
    reconnects_counter: Option<Counter>,
    reply_timeout: Duration,
    pipeline_window: usize,
    pending: std::collections::HashSet<u64>,
    // Pipelined replies consumed while waiting for a synchronous call's
    // reply, buffered for the next pipeline_recv.
    overtaken: Vec<(u64, Reply)>,
}

impl Client {
    /// Connect over TCP to `addr` (`host:port`). The client remembers the
    /// address and transparently reconnects (with capped exponential backoff
    /// and jitter) if the connection later fails: idempotent requests are
    /// retried, mutating ones surface the failure immediately (after a
    /// single delay-free re-dial) so the caller decides whether to re-send.
    pub fn connect_tcp(addr: &str) -> Result<Client, SvcError> {
        let stream = dial_tcp(addr).map_err(|e| SvcError::io(&e))?;
        let mut client = Client::from_stream(stream);
        let addr = addr.to_string();
        client.set_reconnect(Arc::new(move || dial_tcp(&addr)), RetryPolicy::default());
        Ok(client)
    }

    /// Wrap an already-connected stream (e.g. a loopback socket). No
    /// automatic reconnect unless [`Client::set_reconnect`] is called.
    pub fn from_stream(stream: Box<dyn Stream>) -> Client {
        // Short read timeout + deadline loop, so a dead server surfaces as a
        // structured timeout error instead of a hang.
        let _ = stream.set_stream_timeouts(Some(Duration::from_millis(100)), None);
        Client {
            stream,
            next_id: 1,
            reconnect: None,
            policy: RetryPolicy::default(),
            reconnects: 0,
            reconnects_counter: None,
            reply_timeout: REPLY_TIMEOUT,
            pipeline_window: PIPELINE_WINDOW,
            pending: std::collections::HashSet::new(),
            overtaken: Vec::new(),
        }
    }

    /// Change the per-call reply deadline (default 60s). On expiry a call
    /// fails with [`SvcError::TIMEOUT`] — the request may still execute
    /// server-side, so only idempotent requests are transparently retried.
    pub fn set_reply_timeout(&mut self, timeout: Duration) {
        self.reply_timeout = timeout;
    }

    /// Change the pipelined-send window (default 32). A `pipeline_send`
    /// past the window returns [`SvcError::BUSY`] without sending.
    pub fn set_pipeline_window(&mut self, window: usize) {
        self.pipeline_window = window.max(1);
    }

    /// Install a reconnect path: on transport failure the client re-dials
    /// through `connector` under `policy`.
    pub fn set_reconnect(&mut self, connector: Connector, policy: RetryPolicy) {
        self.reconnect = Some(connector);
        self.policy = policy;
    }

    /// Record reconnect events into `registry` (`svc.client.reconnects`).
    pub fn set_metrics(&mut self, registry: &MetricsRegistry) {
        self.reconnects_counter = Some(registry.counter("svc.client.reconnects"));
    }

    /// How many times this client has re-established its connection.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// True for errors that mean "the transport failed you", as opposed to a
    /// structured refusal from the server: worth a reconnect-and-retry for
    /// idempotent requests.
    fn is_transport_failure(e: &SvcError) -> bool {
        e.code == SvcError::IO || e.code == SvcError::TIMEOUT
    }

    fn call(&mut self, req: &Request) -> Result<Body, SvcError> {
        match self.call_once(req) {
            Err(e) if Self::is_transport_failure(&e) && self.reconnect.is_some() => {
                self.retry_after_io(req, e)
            }
            other => other,
        }
    }

    /// Transport failed mid-call: re-dial with backoff. Idempotent requests
    /// are re-sent on the fresh connection; mutating and one-shot requests
    /// surface the original failure *immediately* (the first send may
    /// already have been applied server-side, so they are never re-sent and
    /// must not wait out a backoff that buys them nothing) after one
    /// sleep-free re-dial attempt so later calls find a live connection.
    fn retry_after_io(&mut self, req: &Request, first: SvcError) -> Result<Body, SvcError> {
        let connector = self.reconnect.clone().expect("retry without connector");
        if !req.is_idempotent() {
            if let Ok(stream) = connector() {
                self.install_stream(stream);
            }
            return Err(first);
        }
        let mut backoff = Backoff::new(self.policy);
        let mut last = first;
        for _ in 1..self.policy.max_attempts.max(1) {
            backoff.sleep();
            match connector() {
                Ok(stream) => {
                    self.install_stream(stream);
                    match self.call_once(req) {
                        Err(e) if Self::is_transport_failure(&e) => last = e,
                        other => return other,
                    }
                }
                Err(e) => last = SvcError::io(&e),
            }
        }
        Err(last)
    }

    fn install_stream(&mut self, stream: Box<dyn Stream>) {
        let _ = stream.set_stream_timeouts(Some(Duration::from_millis(100)), None);
        self.stream = stream;
        self.reconnects += 1;
        if let Some(c) = &self.reconnects_counter {
            c.inc();
        }
    }

    fn call_once(&mut self, req: &Request) -> Result<Body, SvcError> {
        let req_id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &req.encode(req_id)).map_err(|e| SvcError::io(&e))?;
        let deadline = Instant::now() + self.reply_timeout;
        loop {
            match read_frame(&mut self.stream).map_err(|e| SvcError::io(&e))? {
                FrameRead::Frame(f) => {
                    let (id, reply) = decode_reply(&f).map_err(|e| {
                        SvcError::service(SvcError::BAD_REQUEST, format!("bad reply: {e}"))
                    })?;
                    if id != req_id {
                        // A reply to a pipelined request overtaken by this
                        // call: note it so pipeline_recv still sees it. Any
                        // other stray id (e.g. the error ack for a frame
                        // injected by a test) is discarded.
                        if self.pending.remove(&id) {
                            self.overtaken.push((id, reply));
                        }
                        continue;
                    }
                    return reply;
                }
                FrameRead::Idle => {
                    if Instant::now() >= deadline {
                        return Err(SvcError::service(
                            SvcError::TIMEOUT,
                            format!(
                                "no reply to {} within {:?}",
                                req.op_name(),
                                self.reply_timeout
                            ),
                        ));
                    }
                }
                FrameRead::Eof => {
                    return Err(SvcError::service(
                        SvcError::IO,
                        "server closed the connection",
                    ));
                }
            }
        }
    }

    /// How many pipelined requests are awaiting replies.
    pub fn pipeline_pending(&self) -> usize {
        self.pending.len() + self.overtaken.len()
    }

    /// Fire a request without waiting for its reply; returns the request id
    /// to match against [`Client::pipeline_recv`]. With `pipeline_window`
    /// requests already outstanding this refuses with [`SvcError::BUSY`] —
    /// the request was *not* sent, so the caller can safely drain replies
    /// and re-send. Pipelined requests are never retried on reconnect.
    pub fn pipeline_send(&mut self, req: &Request) -> Result<u64, SvcError> {
        if self.pipeline_pending() >= self.pipeline_window {
            return Err(SvcError::service(
                SvcError::BUSY,
                format!(
                    "pipeline window of {} outstanding requests is exhausted",
                    self.pipeline_window
                ),
            ));
        }
        let req_id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &req.encode(req_id)).map_err(|e| SvcError::io(&e))?;
        self.pending.insert(req_id);
        Ok(req_id)
    }

    /// Receive one pipelined reply: `(req_id, reply)`. Replies may arrive
    /// out of submission order (requests on different inodes run on
    /// different shards). The outer error is transport-level ([`SvcError::IO`]
    /// or [`SvcError::TIMEOUT`]); per-request failures come back in the
    /// inner [`Reply`].
    pub fn pipeline_recv(&mut self) -> Result<(u64, Reply), SvcError> {
        if let Some(hit) = self.overtaken.pop() {
            return Ok(hit);
        }
        if self.pending.is_empty() {
            return Err(SvcError::service(
                SvcError::BAD_REQUEST,
                "no pipelined requests outstanding",
            ));
        }
        let deadline = Instant::now() + self.reply_timeout;
        loop {
            match read_frame(&mut self.stream).map_err(|e| SvcError::io(&e))? {
                FrameRead::Frame(f) => {
                    let (id, reply) = decode_reply(&f).map_err(|e| {
                        SvcError::service(SvcError::BAD_REQUEST, format!("bad reply: {e}"))
                    })?;
                    if self.pending.remove(&id) {
                        return Ok((id, reply));
                    }
                    // Stray id: discard, keep waiting.
                }
                FrameRead::Idle => {
                    if Instant::now() >= deadline {
                        return Err(SvcError::service(
                            SvcError::TIMEOUT,
                            format!(
                                "no pipelined reply within {:?} ({} outstanding)",
                                self.reply_timeout,
                                self.pending.len()
                            ),
                        ));
                    }
                }
                FrameRead::Eof => {
                    return Err(SvcError::service(
                        SvcError::IO,
                        "server closed the connection",
                    ));
                }
            }
        }
    }

    fn expect_empty(&mut self, req: &Request) -> Result<(), SvcError> {
        match self.call(req)? {
            Body::Empty => Ok(()),
            other => Err(unexpected(req, &other)),
        }
    }

    fn expect_ino(&mut self, req: &Request) -> Result<u64, SvcError> {
        match self.call(req)? {
            Body::Ino(ino) => Ok(ino),
            other => Err(unexpected(req, &other)),
        }
    }

    /// Send an arbitrary request and return the raw body, for callers that
    /// already hold a [`Request`] (a benchmark replaying a generated op
    /// stream). The usual retry rules apply: only idempotent requests are
    /// re-sent after a transport failure.
    pub fn request(&mut self, req: &Request) -> Result<Body, SvcError> {
        self.call(req)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), SvcError> {
        self.expect_empty(&Request::Ping)
    }

    /// Declare this connection's tenant for QoS accounting and weighted-fair
    /// scheduling. `weight` 0 keeps the server's current weight for the
    /// tenant. Safe to re-send (e.g. after a reconnect); connections that
    /// never call it run as the default tenant.
    pub fn hello(&mut self, tenant: &str, weight: u32) -> Result<(), SvcError> {
        self.expect_empty(&Request::Hello {
            tenant: tenant.into(),
            weight,
        })
    }

    /// Create an empty file, returning its inode number.
    pub fn create(&mut self, name: &str) -> Result<u64, SvcError> {
        self.expect_ino(&Request::Create { name: name.into() })
    }

    /// Look up a file by name, returning its inode number.
    pub fn open(&mut self, name: &str) -> Result<u64, SvcError> {
        self.expect_ino(&Request::Open { name: name.into() })
    }

    /// Read up to `len` bytes at `offset` (short at EOF). `len` may exceed
    /// the frame limit; the transfer is chunked.
    pub fn read_at(&mut self, ino: u64, offset: u64, len: u64) -> Result<Vec<u8>, SvcError> {
        let mut out = Vec::new();
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let want = ((end - pos) as usize).min(CHUNK) as u32;
            let req = Request::Read {
                ino,
                offset: pos,
                len: want,
            };
            match self.call(&req)? {
                Body::Bytes(chunk) => {
                    let n = chunk.len();
                    out.extend_from_slice(&chunk);
                    pos += n as u64;
                    if n < want as usize {
                        break; // EOF
                    }
                }
                other => return Err(unexpected(&req, &other)),
            }
        }
        Ok(out)
    }

    /// Write `data` at `offset`, chunking below the frame limit. Returns the
    /// total bytes written.
    pub fn write_at(&mut self, ino: u64, offset: u64, data: &[u8]) -> Result<u64, SvcError> {
        let mut written = 0u64;
        for chunk in data.chunks(CHUNK.max(1)) {
            let req = Request::Write {
                ino,
                offset: offset + written,
                data: chunk.to_vec(),
            };
            match self.call(&req)? {
                Body::Written(n) => written += n as u64,
                other => return Err(unexpected(&req, &other)),
            }
        }
        if data.is_empty() {
            // Zero-length writes still validate the inode server-side.
            let req = Request::Write {
                ino,
                offset,
                data: Vec::new(),
            };
            match self.call(&req)? {
                Body::Written(_) => {}
                other => return Err(unexpected(&req, &other)),
            }
        }
        Ok(written)
    }

    /// Remove a file by name.
    pub fn unlink(&mut self, name: &str) -> Result<(), SvcError> {
        self.expect_empty(&Request::Unlink { name: name.into() })
    }

    /// Hard-link `existing` under `new_name`, returning the shared inode.
    pub fn link(&mut self, existing: &str, new_name: &str) -> Result<u64, SvcError> {
        self.expect_ino(&Request::Link {
            existing: existing.into(),
            new_name: new_name.into(),
        })
    }

    /// Rename a file (clobbers the target).
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), SvcError> {
        self.expect_empty(&Request::Rename {
            from: from.into(),
            to: to.into(),
        })
    }

    /// File metadata by inode.
    pub fn stat(&mut self, ino: u64) -> Result<FileStat, SvcError> {
        let req = Request::Stat { ino };
        match self.call(&req)? {
            Body::Stat(st) => Ok(st),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// All file names.
    pub fn list(&mut self) -> Result<Vec<String>, SvcError> {
        let req = Request::List;
        match self.call(&req)? {
            Body::Names(names) => Ok(names),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// Flush: settle the server's dedup pipeline.
    pub fn fsync(&mut self, ino: u64) -> Result<(), SvcError> {
        self.expect_empty(&Request::Fsync { ino })
    }

    /// Truncate a file to `size` bytes.
    pub fn truncate(&mut self, ino: u64, size: u64) -> Result<(), SvcError> {
        self.expect_empty(&Request::Truncate { ino, size })
    }

    /// Dedup and space statistics.
    pub fn dedup_stats(&mut self) -> Result<RemoteDedupStats, SvcError> {
        let req = Request::DedupStats;
        match self.call(&req)? {
            Body::DedupStats(s) => Ok(s),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// The server's telemetry snapshot, rendered server-side as text or JSON.
    pub fn telemetry(&mut self, json: bool) -> Result<String, SvcError> {
        let req = Request::Telemetry { json };
        match self.call(&req)? {
            Body::Text(t) => Ok(t),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// Ask the server to drain and shut down. Acknowledged before the server
    /// exits its accept loop.
    pub fn shutdown_server(&mut self) -> Result<(), SvcError> {
        self.expect_empty(&Request::Shutdown)
    }

    /// Store a whole file: create it if missing, overwrite from offset 0, and
    /// truncate to the new length so a shorter upload leaves no stale tail.
    pub fn put(&mut self, name: &str, data: &[u8]) -> Result<u64, SvcError> {
        let ino = match self.open(name) {
            Ok(ino) => ino,
            Err(e) if e.is_not_found() => self.create(name)?,
            Err(e) => return Err(e),
        };
        self.write_at(ino, 0, data)?;
        self.truncate(ino, data.len() as u64)?;
        Ok(ino)
    }

    /// Fetch a whole file by name.
    pub fn get(&mut self, name: &str) -> Result<Vec<u8>, SvcError> {
        let ino = self.open(name)?;
        let size = self.stat(ino)?.size;
        self.read_at(ino, 0, size)
    }
}

fn unexpected(req: &Request, body: &Body) -> SvcError {
    SvcError::service(
        SvcError::BAD_REQUEST,
        format!("unexpected reply body for {}: {body:?}", req.op_name()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, SvcConfig};
    use denova::{DedupMode, Denova};
    use denova_nova::NovaOptions;
    use denova_pmem::PmemDevice;

    fn server() -> Server {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let fs = Denova::mkfs(
            dev,
            NovaOptions {
                num_inodes: 128,
                ..Default::default()
            },
            DedupMode::Immediate,
        )
        .unwrap();
        Server::new(Arc::new(fs), SvcConfig::default())
    }

    #[test]
    fn pipeline_window_exhaustion_returns_busy_not_io_error() {
        let srv = server();
        let mut client = Client::from_stream(Box::new(srv.connect_loopback()));
        client.set_pipeline_window(2);
        let a = client.pipeline_send(&Request::Ping).unwrap();
        let b = client.pipeline_send(&Request::Ping).unwrap();
        // Window exhausted: a structured, never-sent refusal — not a raw io
        // error, not a block.
        let err = client.pipeline_send(&Request::Ping).unwrap_err();
        assert_eq!(err.code, SvcError::BUSY);
        assert_eq!(client.pipeline_pending(), 2);
        let mut ids = std::collections::HashSet::new();
        for _ in 0..2 {
            let (id, reply) = client.pipeline_recv().unwrap();
            assert_eq!(reply.unwrap(), Body::Empty);
            ids.insert(id);
        }
        assert_eq!(ids, [a, b].into_iter().collect());
        // Draining freed the window: sends work again.
        let c = client.pipeline_send(&Request::Ping).unwrap();
        let (id, reply) = client.pipeline_recv().unwrap();
        assert_eq!(id, c);
        reply.unwrap();
        assert_eq!(client.pipeline_pending(), 0);
        // Empty pipeline: recv refuses instead of hanging.
        assert_eq!(
            client.pipeline_recv().unwrap_err().code,
            SvcError::BAD_REQUEST
        );
        drop(client);
        srv.shutdown();
    }

    #[test]
    fn synchronous_calls_interleave_with_pipelined_requests() {
        let srv = server();
        let mut client = Client::from_stream(Box::new(srv.connect_loopback()));
        let a = client.pipeline_send(&Request::Ping).unwrap();
        // The sync call's reply may land after the pipelined one; the
        // pipelined reply must not be lost either way.
        client.ping().unwrap();
        let (id, reply) = client.pipeline_recv().unwrap();
        assert_eq!(id, a);
        reply.unwrap();
        drop(client);
        srv.shutdown();
    }

    #[test]
    fn silent_server_yields_structured_timeout() {
        // A peer that accepts the connection but never replies: the call
        // must fail with TIMEOUT (not IO, not a hang).
        let (client_end, server_end) = std::os::unix::net::UnixStream::pair().unwrap();
        let mut client = Client::from_stream(Box::new(client_end));
        client.set_reply_timeout(Duration::from_millis(250));
        let t0 = Instant::now();
        let err = client.ping().unwrap_err();
        assert_eq!(err.code, SvcError::TIMEOUT);
        assert!(t0.elapsed() >= Duration::from_millis(250));
        assert!(t0.elapsed() < Duration::from_secs(10));
        drop(server_end);
    }

    #[test]
    fn backoff_delays_grow_within_the_jitter_window() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
        };
        let mut b = Backoff::with_seed(policy, 42);
        let mut cap = policy.base_delay;
        for _ in 0..8 {
            let d = b.next_delay();
            let window = cap.min(policy.max_delay);
            assert!(d >= window / 2 && d <= window, "{d:?} outside {window:?}");
            cap = cap.saturating_mul(2);
        }
    }

    #[test]
    fn simultaneously_created_backoffs_jitter_differently() {
        // The thundering-herd case: a batch of clients all hit a dead
        // primary in the same instant and every one starts a backoff
        // sequence at once. The wall clock is (near-)identical for all of
        // them; the mixed-in per-process counter must still produce
        // distinct jitter.
        let policy = RetryPolicy::default();
        let seqs: Vec<Vec<Duration>> = (0..4)
            .map(|_| {
                let mut b = Backoff::new(policy);
                (0..12).map(|_| b.next_delay()).collect()
            })
            .collect();
        for i in 0..seqs.len() {
            for j in i + 1..seqs.len() {
                assert_ne!(seqs[i], seqs[j], "backoffs {i} and {j} are in lockstep");
            }
        }
    }
}
