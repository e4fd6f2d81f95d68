//! Request execution against a mounted [`Denova`] stack.
//!
//! [`FileService`] is the transport-independent core of the server: it maps
//! one [`Request`] to one [`Reply`], translating [`NovaError`]s into stable
//! wire codes and recording per-op latency into the stack's shared telemetry
//! registry. It holds no threads and no queues — the server's dispatch rule
//! decides *where* `execute` runs (its event loop or the sharded worker
//! pool), this type decides *what* it does.

use crate::proto::{Body, RemoteDedupStats, Reply, Request, SvcError, WriteRef, WRITE_METRIC};
use denova::{DedupMode, Denova};
use denova_nova::NovaError;
use denova_telemetry::{Counter, Histogram, MetricsRegistry};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The replication role of a serving node.
///
/// While `standby` is set, mutating requests are rejected with
/// [`SvcError::REPLICA_READ_ONLY`]; a [`Request::Promote`] clears the flag
/// and fires the registered promotion callback (which tells the standby
/// loop to stop applying and take over). Promote on a node that is already
/// primary is an acknowledged no-op, so failover scripts can retry it.
#[derive(Default)]
pub struct ReplRole {
    standby: AtomicBool,
    on_promote: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl ReplRole {
    /// A standby role with a promotion callback.
    pub fn standby(on_promote: impl FnOnce() + Send + 'static) -> Arc<ReplRole> {
        let role = ReplRole {
            standby: AtomicBool::new(true),
            on_promote: Mutex::new(Some(Box::new(on_promote))),
        };
        Arc::new(role)
    }

    /// True while this node is a read-only standby.
    pub fn is_standby(&self) -> bool {
        self.standby.load(Ordering::Acquire)
    }

    /// Flip to primary; runs the callback the first time only.
    pub fn promote(&self) {
        self.standby.store(false, Ordering::Release);
        if let Some(cb) = self.on_promote.lock().take() {
            cb();
        }
    }
}

/// What an [`Interceptor`] decided about a request before dispatch.
pub enum Intercept {
    /// Dispatch normally — with the rewritten request when `Some` (e.g. a
    /// cluster node translating global inode numbers to local ones).
    Forward(Option<Request>),
    /// Short-circuit with this reply; the request never reaches the file
    /// system (ownership rejections, cluster control ops, 2PC participant
    /// ops).
    Reply(Reply),
}

/// An around-dispatch hook. A cluster node installs one to enforce shard
/// ownership, translate inode numbers, and serve cluster control operations,
/// without the dispatch logic knowing anything about clustering.
pub trait Interceptor: Send + Sync {
    /// Inspect `req` before dispatch. `standby` reports whether this node is
    /// currently a read-only replica, so interceptor-handled mutating ops can
    /// apply the same rejection dispatch would.
    fn before(&self, req: &Request, standby: bool) -> Intercept;

    /// Rewrite the reply of a forwarded request (e.g. local → global inode
    /// translation). Called only when `before` returned
    /// [`Intercept::Forward`].
    fn after(&self, req: &Request, reply: Reply) -> Reply {
        let _ = req;
        reply
    }
}

/// Executes requests against a mounted file system.
pub struct FileService {
    fs: Arc<Denova>,
    metrics: MetricsRegistry,
    requests: Counter,
    errors: Counter,
    request_ns: Histogram,
    zero_copy_writes: Counter,
    staged_writes: Counter,
    role: RwLock<Option<Arc<ReplRole>>>,
    interceptor: RwLock<Option<Arc<dyn Interceptor>>>,
}

impl FileService {
    /// Wrap a mounted stack. Metrics go to the device's shared registry.
    pub fn new(fs: Arc<Denova>) -> FileService {
        let metrics = fs.nova().device().metrics().clone();
        FileService {
            requests: metrics.counter("svc.requests"),
            errors: metrics.counter("svc.errors"),
            request_ns: metrics.histogram("svc.request.ns"),
            zero_copy_writes: metrics.counter("svc.zero_copy_writes"),
            staged_writes: metrics.counter("svc.staged_writes"),
            metrics,
            fs,
            role: RwLock::new(None),
            interceptor: RwLock::new(None),
        }
    }

    /// The mounted stack.
    pub fn fs(&self) -> &Arc<Denova> {
        &self.fs
    }

    /// Install (or clear) this node's replication role. With no role, or a
    /// role that has been promoted, the service behaves as a primary.
    pub fn set_role(&self, role: Option<Arc<ReplRole>>) {
        *self.role.write() = role;
    }

    /// The installed replication role, if any.
    pub fn role(&self) -> Option<Arc<ReplRole>> {
        self.role.read().clone()
    }

    /// Install (or clear) the around-dispatch [`Interceptor`].
    pub fn set_interceptor(&self, interceptor: Option<Arc<dyn Interceptor>>) {
        *self.interceptor.write() = interceptor;
    }

    /// The registry this service records into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Execute one request. Never panics for well-formed requests; errors
    /// come back as structured replies. Records `svc.request.ns` and
    /// `svc.op.<name>.ns` latency histograms (always live) plus a
    /// `svc.request` span (when telemetry collection is enabled).
    pub fn execute(&self, req: &Request) -> Reply {
        self.timed(req.metric(), || {
            let interceptor = self.interceptor.read().clone();
            let Some(ic) = interceptor else {
                return self.dispatch(req);
            };
            let standby = self.role().map(|r| r.is_standby()).unwrap_or(false);
            match ic.before(req, standby) {
                Intercept::Reply(reply) => reply,
                Intercept::Forward(Some(rewritten)) => ic.after(req, self.dispatch(&rewritten)),
                Intercept::Forward(None) => ic.after(req, self.dispatch(req)),
            }
        })
    }

    /// Run one request under the `svc.request` span, counting it and
    /// recording its latency into `svc.request.ns` and `metric`.
    fn timed(&self, metric: &'static str, run: impl FnOnce() -> Reply) -> Reply {
        let _span = self.metrics.span("svc.request");
        let t0 = Instant::now();
        self.requests.inc();
        let reply = run();
        let ns = t0.elapsed().as_nanos() as u64;
        self.request_ns.record(ns);
        self.metrics.histogram(metric).record(ns);
        if reply.is_err() {
            self.errors.inc();
        }
        reply
    }

    /// True when nothing stacked around the file system can park a request:
    /// dedup is offline (the inline modes pace SHA-1 with the `FpThrottle`
    /// pad, which may sleep), no op tap is installed (a sync-ack replication
    /// tap waits up to its `sync_timeout` in `op_settled`), and no
    /// interceptor is installed (a cluster node forwards over the network).
    /// The server runs short requests on its event loop only while this
    /// holds.
    pub fn never_parks(&self) -> bool {
        !matches!(
            self.fs.mode(),
            DedupMode::Inline | DedupMode::InlineAdaptive
        ) && !self.fs.nova().has_op_tap()
            && self.interceptor.read().is_none()
    }

    /// True when a [`WriteRef`] at `offset`/`data_len` may bypass
    /// [`Request::decode`]'s payload copy and write straight from the wire
    /// frame. Requires whole aligned blocks (so the vectored write stages
    /// nothing) and no installed interceptor (a cluster node rewrites inode
    /// numbers, which needs the decoded form).
    pub fn zero_copy_eligible(&self, wr: &WriteRef) -> bool {
        const BLOCK: u64 = denova_nova::BLOCK_SIZE;
        wr.data_len > 0
            && wr.offset.is_multiple_of(BLOCK)
            && (wr.data_len as u64).is_multiple_of(BLOCK)
            && self.interceptor.read().is_none()
    }

    /// Execute a write directly from its wire frame: the data slice
    /// `&frame[wr.data_off..]` flows into the file system's vectored write
    /// (and from there into `PmemDevice::write_v`) without an intermediate
    /// staging copy. Instrumented identically to [`FileService::execute`],
    /// plus `svc.zero_copy_writes`. The caller must have checked
    /// [`FileService::zero_copy_eligible`].
    pub fn execute_write_ref(&self, wr: &WriteRef, frame: &[u8]) -> Reply {
        self.timed(WRITE_METRIC, || {
            self.check_writable()?;
            let data = &frame[wr.data_off..wr.data_off + wr.data_len];
            self.fs.write(wr.ino, wr.offset, data).map_err(wire)?;
            self.zero_copy_writes.inc();
            Ok(Body::Written(wr.data_len as u32))
        })
    }

    /// [`SvcError::REPLICA_READ_ONLY`] while this node is a standby.
    fn check_writable(&self) -> Result<(), SvcError> {
        match self.role() {
            Some(role) if role.is_standby() => Err(SvcError::service(
                SvcError::REPLICA_READ_ONLY,
                "standby replica is read-only; promote it or write to the primary",
            )),
            _ => Ok(()),
        }
    }

    fn dispatch(&self, req: &Request) -> Reply {
        if req.is_mutating() {
            self.check_writable()?;
        }
        let fs = &self.fs;
        match req {
            Request::Ping => Ok(Body::Empty),
            Request::Create { name } => Ok(Body::Ino(fs.create(name).map_err(wire)?)),
            Request::Open { name } => Ok(Body::Ino(fs.open(name).map_err(wire)?)),
            Request::Read { ino, offset, len } => Ok(Body::Bytes(
                fs.read(*ino, *offset, *len as usize).map_err(wire)?,
            )),
            Request::Write { ino, offset, data } => {
                // Decoding copied this payload out of its wire frame; the
                // zero-copy path ([`FileService::execute_write_ref`]) avoids
                // that for aligned whole-block writes.
                self.staged_writes.inc();
                fs.write(*ino, *offset, data).map_err(wire)?;
                Ok(Body::Written(data.len() as u32))
            }
            Request::Unlink { name } => {
                fs.unlink(name).map_err(wire)?;
                Ok(Body::Empty)
            }
            Request::Link { existing, new_name } => {
                Ok(Body::Ino(fs.nova().link(existing, new_name).map_err(wire)?))
            }
            Request::Rename { from, to } => {
                fs.nova().rename(from, to).map_err(wire)?;
                Ok(Body::Empty)
            }
            Request::Stat { ino } => Ok(Body::Stat(fs.nova().stat(*ino).map_err(wire)?)),
            Request::List => Ok(Body::Names(fs.nova().list())),
            Request::Fsync { ino } => {
                // NOVA writes are durable at return; what fsync settles here
                // is the *dedup* pipeline: every queued DWQ node for this (and
                // any other) inode is applied before the reply.
                let _ = ino;
                fs.drain();
                Ok(Body::Empty)
            }
            Request::Truncate { ino, size } => {
                fs.truncate(*ino, *size).map_err(wire)?;
                Ok(Body::Empty)
            }
            Request::DedupStats => {
                let layout = *fs.nova().layout();
                Ok(Body::DedupStats(RemoteDedupStats {
                    bytes_saved: fs.bytes_saved(),
                    persistent_bytes_saved: fs.persistent_bytes_saved(),
                    fact_entries: fs.fact().entries(),
                    fact_occupied: fs.fact().occupied_count(),
                    dwq_len: fs.dwq().len() as u64,
                    dedup_index_dram_bytes: fs.dedup_index_dram_bytes(),
                    free_blocks: fs.nova().free_blocks(),
                    data_blocks: layout.data_blocks(),
                    file_count: fs.nova().file_count() as u64,
                    device_bytes: layout.device_size,
                    dedup_workers: fs.dedup_workers() as u64,
                    // Latched by the replication engine on the first
                    // sync-ack timeout; read through the shared registry so
                    // this layer stays decoupled from crates/repl.
                    sync_degraded: self.metrics.gauge("repl.sync_degraded").get() as u64,
                }))
            }
            Request::Telemetry { json } => {
                let snap = self.metrics.snapshot();
                Ok(Body::Text(if *json {
                    snap.to_json_string()
                } else {
                    snap.to_text()
                }))
            }
            // Shutdown is acknowledged by the connection layer (which also
            // flips the server's stopping flag); executing it directly is a
            // no-op ack so loopback tests can drive it through `execute`.
            Request::Shutdown => Ok(Body::Empty),
            Request::Promote => {
                if let Some(role) = self.role() {
                    role.promote();
                }
                // Idempotent: promoting a primary (or a node with no
                // replication role) acknowledges without effect.
                Ok(Body::Empty)
            }
            // Cluster control and 2PC participant ops are served by the
            // installed Interceptor (crates/cluster); a plain server has no
            // map and no transaction log to answer from.
            Request::MapGet
            | Request::MapPush { .. }
            | Request::TxPrepare { .. }
            | Request::TxCommit { .. }
            | Request::TxAbort { .. }
            | Request::TxStatus { .. } => Err(SvcError::service(
                SvcError::UNKNOWN_OP,
                "cluster operations require a cluster node",
            )),
            // Hello is connection-scoped and answered by the server's
            // reader thread; executing it directly (e.g. in loopback tests)
            // is a no-op ack.
            Request::Hello { .. } => Ok(Body::Empty),
        }
    }
}

fn wire(e: NovaError) -> SvcError {
    SvcError::from_nova(&e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use denova::DedupMode;
    use denova_nova::NovaOptions;
    use denova_pmem::PmemDevice;

    fn service() -> FileService {
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
        FileService::new(Arc::new(fs))
    }

    fn ino_of(reply: Reply) -> u64 {
        match reply.unwrap() {
            Body::Ino(ino) => ino,
            other => panic!("expected ino, got {other:?}"),
        }
    }

    #[test]
    fn full_file_lifecycle_through_requests() {
        let svc = service();
        let ino = ino_of(svc.execute(&Request::Create { name: "f".into() }));
        let data = vec![7u8; 8192];
        let reply = svc.execute(&Request::Write {
            ino,
            offset: 0,
            data: data.clone(),
        });
        assert_eq!(reply.unwrap(), Body::Written(8192));
        svc.execute(&Request::Fsync { ino }).unwrap();
        match svc
            .execute(&Request::Read {
                ino,
                offset: 0,
                len: 8192,
            })
            .unwrap()
        {
            Body::Bytes(b) => assert_eq!(b, data),
            other => panic!("{other:?}"),
        }
        match svc.execute(&Request::Stat { ino }).unwrap() {
            Body::Stat(st) => assert_eq!(st.size, 8192),
            other => panic!("{other:?}"),
        }
        svc.execute(&Request::Truncate { ino, size: 100 }).unwrap();
        match svc.execute(&Request::Stat { ino }).unwrap() {
            Body::Stat(st) => assert_eq!(st.size, 100),
            other => panic!("{other:?}"),
        }
        match svc.execute(&Request::List).unwrap() {
            Body::Names(names) => assert_eq!(names, vec!["f".to_string()]),
            other => panic!("{other:?}"),
        }
        svc.execute(&Request::Unlink { name: "f".into() }).unwrap();
        let err = svc
            .execute(&Request::Open { name: "f".into() })
            .unwrap_err();
        assert!(err.is_not_found());
    }

    #[test]
    fn write_ref_path_writes_without_staging_and_counts() {
        use crate::proto::decode_write_ref;
        let svc = service();
        let ino = ino_of(svc.execute(&Request::Create { name: "f".into() }));
        let aligned = Request::Write {
            ino,
            offset: 4096,
            data: vec![0x5Au8; 8192],
        }
        .encode(7);
        let wr = decode_write_ref(&aligned).unwrap();
        assert!(svc.zero_copy_eligible(&wr));
        assert_eq!(
            svc.execute_write_ref(&wr, &aligned).unwrap(),
            Body::Written(8192)
        );
        match svc
            .execute(&Request::Read {
                ino,
                offset: 4096,
                len: 8192,
            })
            .unwrap()
        {
            Body::Bytes(b) => assert_eq!(b, vec![0x5Au8; 8192]),
            other => panic!("{other:?}"),
        }
        // Unaligned or partial-block writes are not eligible.
        for (offset, len) in [(1u64, 4096usize), (0, 100), (0, 0)] {
            let p = Request::Write {
                ino,
                offset,
                data: vec![1; len],
            }
            .encode(8);
            let wr = decode_write_ref(&p).unwrap();
            assert!(!svc.zero_copy_eligible(&wr), "offset={offset} len={len}");
        }
        // Staged path still works and counts separately.
        svc.execute(&Request::Write {
            ino,
            offset: 0,
            data: vec![2u8; 100],
        })
        .unwrap();
        let snap = svc.metrics().snapshot();
        assert_eq!(snap.counter("svc.zero_copy_writes"), Some(1));
        assert_eq!(snap.counter("svc.staged_writes"), Some(1));
        // Both paths record into the same latency histograms.
        assert!(snap.histogram("svc.op.write.ns").unwrap().count >= 2);
        // A standby rejects the zero-copy path like the staged one.
        svc.set_role(Some(ReplRole::standby(|| {})));
        let wr = decode_write_ref(&aligned).unwrap();
        assert_eq!(
            svc.execute_write_ref(&wr, &aligned).unwrap_err().code,
            SvcError::REPLICA_READ_ONLY
        );
    }

    #[test]
    fn errors_carry_stable_codes() {
        let svc = service();
        let err = svc
            .execute(&Request::Open {
                name: "nope".into(),
            })
            .unwrap_err();
        assert_eq!(err.code, NovaError::NotFound.code());
        let err = svc
            .execute(&Request::Read {
                ino: 9999,
                offset: 0,
                len: 1,
            })
            .unwrap_err();
        assert_eq!(err.to_nova().unwrap(), NovaError::BadInode(9999));
    }

    #[test]
    fn dedup_stats_reflect_shared_pages() {
        let svc = service();
        let a = ino_of(svc.execute(&Request::Create { name: "a".into() }));
        let b = ino_of(svc.execute(&Request::Create { name: "b".into() }));
        let page = vec![0x42u8; 4096];
        for ino in [a, b] {
            svc.execute(&Request::Write {
                ino,
                offset: 0,
                data: page.clone(),
            })
            .unwrap();
        }
        svc.execute(&Request::Fsync { ino: a }).unwrap();
        match svc.execute(&Request::DedupStats).unwrap() {
            Body::DedupStats(s) => {
                assert_eq!(s.bytes_saved, 4096);
                assert_eq!(s.file_count, 2);
                assert!(s.fact_occupied >= 1);
                assert_eq!(s.dedup_index_dram_bytes, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn per_op_latency_histograms_record() {
        let svc = service();
        svc.execute(&Request::Ping).unwrap();
        svc.execute(&Request::Ping).unwrap();
        let snap = svc.metrics().snapshot();
        assert_eq!(snap.histogram("svc.op.ping.ns").unwrap().count, 2);
        assert_eq!(snap.histogram("svc.request.ns").unwrap().count, 2);
        assert_eq!(snap.counter("svc.requests"), Some(2));
    }

    #[test]
    fn standby_rejects_mutations_until_promoted() {
        let svc = service();
        let promoted = Arc::new(AtomicBool::new(false));
        let flag = promoted.clone();
        svc.set_role(Some(ReplRole::standby(move || {
            flag.store(true, Ordering::SeqCst)
        })));

        let err = svc
            .execute(&Request::Create { name: "f".into() })
            .unwrap_err();
        assert_eq!(err.code, SvcError::REPLICA_READ_ONLY);
        // Reads still work on a standby.
        svc.execute(&Request::Ping).unwrap();
        svc.execute(&Request::List).unwrap();

        svc.execute(&Request::Promote).unwrap();
        assert!(promoted.load(Ordering::SeqCst));
        svc.execute(&Request::Create { name: "f".into() }).unwrap();
        // Promote again: acknowledged, callback not re-run (it was taken).
        svc.execute(&Request::Promote).unwrap();
    }

    #[test]
    fn cluster_ops_without_interceptor_are_unknown() {
        let svc = service();
        for req in [
            Request::MapGet,
            Request::MapPush { map: vec![] },
            Request::TxStatus { txid: 1 },
        ] {
            let err = svc.execute(&req).unwrap_err();
            assert_eq!(err.code, SvcError::UNKNOWN_OP);
        }
    }

    #[test]
    fn interceptor_can_rewrite_short_circuit_and_post_process() {
        struct Doubler;
        impl Interceptor for Doubler {
            fn before(&self, req: &Request, standby: bool) -> Intercept {
                assert!(!standby);
                match req {
                    // Short-circuit: answer MapGet without touching the fs.
                    Request::MapGet => Intercept::Reply(Ok(Body::Bytes(vec![0xAB]))),
                    // Rewrite: halve the wire ino to the local one.
                    Request::Stat { ino } => {
                        Intercept::Forward(Some(Request::Stat { ino: ino / 2 }))
                    }
                    _ => Intercept::Forward(None),
                }
            }
            fn after(&self, _req: &Request, reply: Reply) -> Reply {
                // Translate local inos back to wire inos.
                match reply {
                    Ok(Body::Ino(ino)) => Ok(Body::Ino(ino * 2)),
                    Ok(Body::Stat(mut st)) => {
                        st.ino *= 2;
                        Ok(Body::Stat(st))
                    }
                    other => other,
                }
            }
        }
        let svc = service();
        svc.set_interceptor(Some(Arc::new(Doubler)));
        match svc.execute(&Request::MapGet).unwrap() {
            Body::Bytes(b) => assert_eq!(b, vec![0xAB]),
            other => panic!("{other:?}"),
        }
        let wire_ino = ino_of(svc.execute(&Request::Create { name: "f".into() }));
        assert_eq!(wire_ino % 2, 0);
        match svc.execute(&Request::Stat { ino: wire_ino }).unwrap() {
            Body::Stat(st) => assert_eq!(st.ino, wire_ino),
            other => panic!("{other:?}"),
        }
        // Clearing the interceptor restores plain dispatch.
        svc.set_interceptor(None);
        let err = svc.execute(&Request::MapGet).unwrap_err();
        assert_eq!(err.code, SvcError::UNKNOWN_OP);
    }

    #[test]
    fn telemetry_snapshot_renders_both_formats() {
        let svc = service();
        svc.execute(&Request::Ping).unwrap();
        match svc.execute(&Request::Telemetry { json: false }).unwrap() {
            Body::Text(t) => assert!(t.contains("svc.requests")),
            other => panic!("{other:?}"),
        }
        match svc.execute(&Request::Telemetry { json: true }).unwrap() {
            Body::Text(t) => assert!(t.trim_start().starts_with('{')),
            other => panic!("{other:?}"),
        }
    }
}
