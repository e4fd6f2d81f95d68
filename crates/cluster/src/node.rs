//! The per-node cluster brain: an [`Interceptor`] installed on the local
//! [`denova_svc::FileService`].
//!
//! Every request passes through [`ClusterNode::before`] first, which
//! enforces the cluster contract without touching the service's dispatch:
//!
//! * **Ownership** — a request for a name or inode another shard owns (or
//!   for this shard after the map reassigned it elsewhere, i.e. mid-
//!   rebalance) is bounced with [`SvcError::WRONG_SHARD`] carrying the
//!   owner's shard, address, and this node's map epoch. The request is
//!   never executed, so a client retry is always safe.
//! * **Inode translation** — clients speak *global* inodes
//!   (`gino = local * shards + shard`); the interceptor rewrites them to
//!   local inodes on the way in and back to global in replies (`Ino`,
//!   `Stat`), so local allocators stay uncoordinated.
//! * **Map gossip** — `MapGet` serves this node's map; `MapPush` adopts a
//!   strictly newer offer and always replies with the map now held.
//! * **Two-phase commit** — `TxPrepare`/`TxCommit`/`TxAbort`/`TxStatus`
//!   participant ops, and the coordinator flow for a `Rename`/`Link` whose
//!   destination lives on another shard (see [`crate::twophase`]).
//! * **Hygiene** — `List` replies hide in-flight `.2pc.*` records; client
//!   attempts to create names under the reserved prefix are rejected.

use crate::map::{ClusterMap, SharedMap};
use crate::twophase::{
    parse_record_name, phase, record_name, stage_name, PrepareChunk, Role, TxKind, TxRecord,
};
use denova::Denova;
use denova_nova::{NovaError, PREPARE_PREFIX};
use denova_svc::codec::Wire;
use denova_svc::{Body, Client, Intercept, Interceptor, Reply, Request, SvcError, TxState};
use denova_telemetry::{Counter, Gauge};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How a node reaches a peer shard's primary: dial an address, get a typed
/// client. Tests hand out loopback-hub dialers; production dials TCP.
pub type Dialer = Arc<dyn Fn(&str) -> Result<Client, SvcError> + Send + Sync>;

/// Coordinator-side steps of a cross-shard transaction, in order. Tests arm
/// a failpoint at one step to simulate the owner dying there; the panic
/// surfaces to the client as `INTERNAL` and the test then crash-clones the
/// devices and drives recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxStep {
    /// Local prepare record durable; peer untouched.
    AfterLocalPrepare,
    /// Peer staged the content and journaled its record; no decision yet.
    AfterPeerPrepare,
    /// The commit point: local record flipped to Committed.
    AfterCommitPoint,
    /// Peer applied the commit; local source/record not yet cleaned.
    AfterPeerCommit,
    /// Source unlinked (rename); record cleanup still pending.
    AfterSourceUnlink,
}

/// Content-streaming chunk size for cross-shard prepare.
const PREPARE_CHUNK: usize = 1 << 20;

/// See the module docs.
pub struct ClusterNode {
    shard: u32,
    addr: String,
    fs: Arc<Denova>,
    map: Arc<SharedMap>,
    dial: Dialer,
    txid_seq: AtomicU64,
    fail_at: Mutex<Option<TxStep>>,
    wrong_shard: Counter,
    map_epoch: Gauge,
    tx_committed: Counter,
    tx_aborted: Counter,
    orphans_resolved: Counter,
}

impl ClusterNode {
    /// Build the node for `shard`, serving at `addr`, over an already
    /// mounted stack. Install it with
    /// `server.service().set_interceptor(Some(node))`.
    pub fn new(
        shard: u32,
        addr: &str,
        fs: Arc<Denova>,
        map: ClusterMap,
        dial: Dialer,
    ) -> Arc<ClusterNode> {
        let metrics = fs.nova().device().metrics().clone();
        metrics.gauge("cluster.shard").set(shard as i64);
        let map_epoch = metrics.gauge("cluster.map.epoch");
        map_epoch.set(map.epoch as i64);
        // Seed the txid counter from the clock with the shard in the high
        // byte: two coordinators never collide, and a restarted coordinator
        // never reuses an id whose records may still sit on a peer.
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1);
        let seed = ((shard as u64) << 56) | (now & 0x00FF_FFFF_FFFF_FFFF);
        Arc::new(ClusterNode {
            wrong_shard: metrics.counter("cluster.wrong_shard"),
            tx_committed: metrics.counter("cluster.tx.committed"),
            tx_aborted: metrics.counter("cluster.tx.aborted"),
            orphans_resolved: metrics.counter("cluster.tx.orphans_resolved"),
            map_epoch,
            shard,
            addr: addr.to_string(),
            fs,
            map: Arc::new(SharedMap::new(map)),
            dial,
            txid_seq: AtomicU64::new(seed),
            fail_at: Mutex::new(None),
        })
    }

    /// This node's shard id.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// This node's live map handle.
    pub fn map(&self) -> &Arc<SharedMap> {
        &self.map
    }

    /// Arm (or clear) the coordinator failpoint. Test-only crash injection:
    /// the next cross-shard transaction panics at `step`.
    pub fn fail_at(&self, step: Option<TxStep>) {
        *self.fail_at.lock() = step;
    }

    fn hit_failpoint(&self, step: TxStep) {
        if *self.fail_at.lock() == Some(step) {
            panic!("cluster 2pc failpoint: {step:?}");
        }
    }

    fn next_txid(&self) -> u64 {
        self.txid_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// The request was routed to the wrong node: name the owner.
    fn bounce(&self, map: &ClusterMap, owner: u32) -> Intercept {
        self.wrong_shard.inc();
        Intercept::Reply(Err(SvcError::wrong_shard(
            owner,
            map.epoch,
            map.primary(owner),
        )))
    }

    /// Ownership check for `owner_shard` under `map`: this node must both
    /// *be* that shard and still be its mapped primary (a frozen node —
    /// rebalanced away by a newer map — bounces its own shard's traffic
    /// toward the new owner).
    fn owns(&self, map: &ClusterMap, owner_shard: u32) -> bool {
        owner_shard == self.shard && map.primary(owner_shard) == self.addr
    }

    fn reserved(name: &str) -> bool {
        name.starts_with(PREPARE_PREFIX)
    }

    fn reject_reserved() -> Intercept {
        Intercept::Reply(Err(SvcError::service(
            SvcError::BAD_REQUEST,
            format!("names under {PREPARE_PREFIX:?} are reserved for cluster transactions"),
        )))
    }

    // ------------------------------------------------------------------
    // Map gossip
    // ------------------------------------------------------------------

    fn handle_map_push(&self, bytes: &[u8]) -> Reply {
        match ClusterMap::decode(bytes) {
            Ok(offered) => {
                if self.map.adopt_if_newer(&offered) {
                    self.map_epoch.set(offered.epoch as i64);
                }
                Ok(Body::Bytes(self.map.get().encode()))
            }
            Err(e) => Err(SvcError::service(
                SvcError::BAD_REQUEST,
                format!("bad cluster map: {e}"),
            )),
        }
    }

    // ------------------------------------------------------------------
    // 2PC participant
    // ------------------------------------------------------------------

    fn handle_prepare(&self, txid: u64, data: &[u8]) -> Reply {
        let chunk = PrepareChunk::from_bytes(data)
            .map_err(|e| SvcError::service(SvcError::BAD_REQUEST, format!("bad prepare: {e}")))?;
        let stage = stage_name(txid);
        let sino = match self.fs.open(&stage) {
            Ok(ino) => ino,
            Err(_) => {
                // First chunk: stage file before record, so a record always
                // implies its stage exists.
                let sino = self.fs.create(&stage).map_err(wire)?;
                let rec = TxRecord {
                    phase: phase::PREPARED,
                    role: Role::Participant,
                    kind: chunk.kind,
                    from: String::new(),
                    to: chunk.to.clone(),
                    peer_shard: chunk.coord_shard,
                };
                let rino = self.fs.create(&record_name(txid)).map_err(wire)?;
                self.fs.write(rino, 0, &rec.to_bytes()).map_err(wire)?;
                sino
            }
        };
        if !chunk.data.is_empty() {
            self.fs
                .write(sino, chunk.offset, &chunk.data)
                .map_err(wire)?;
        }
        Ok(Body::Ino(sino))
    }

    /// Apply a prepared transaction: staged content becomes the target
    /// (clobbering), the record goes away. Idempotent — replaying a commit
    /// whose record is already gone acknowledges.
    fn handle_commit(&self, txid: u64) -> Reply {
        let rec_file = record_name(txid);
        let rec = match self.read_record(&rec_file) {
            Some(rec) => rec,
            None => return Ok(Body::Empty), // already applied (or never prepared here)
        };
        self.fs
            .nova()
            .rename(&stage_name(txid), &rec.to)
            .map_err(wire)?;
        self.fs.unlink(&rec_file).map_err(wire)?;
        self.tx_committed.inc();
        Ok(Body::Ino(self.fs.open(&rec.to).map_err(wire)?))
    }

    /// Discard a prepared transaction. Idempotent.
    fn handle_abort(&self, txid: u64) -> Reply {
        let existed = self.fs.unlink(&record_name(txid)).is_ok();
        let _ = self.fs.unlink(&stage_name(txid));
        if existed {
            self.tx_aborted.inc();
        }
        Ok(Body::Empty)
    }

    /// Answer a coordinator's durable decision. No record is the
    /// presumed-abort default.
    fn handle_status(&self, txid: u64) -> Reply {
        Ok(Body::TxState(match self.read_record(&record_name(txid)) {
            Some(rec) => rec.state(),
            None => TxState::None,
        }))
    }

    fn read_record(&self, name: &str) -> Option<TxRecord> {
        let ino = self.fs.open(name).ok()?;
        let size = self.fs.file_size(ino).ok()? as usize;
        let bytes = self.fs.read(ino, 0, size).ok()?;
        TxRecord::from_bytes(&bytes).ok()
    }

    // ------------------------------------------------------------------
    // 2PC coordinator
    // ------------------------------------------------------------------

    /// Run a cross-shard rename/link as coordinator. Called on the worker
    /// thread serving the original `Rename`/`Link` request; blocks on peer
    /// round trips, which only stalls this request's worker-pool shard.
    fn run_cross_shard(&self, map: &ClusterMap, kind: TxKind, from: &str, to: &str) -> Reply {
        let peer_shard = map.shard_of_name(to);
        let src = self.fs.open(from).map_err(wire)?;
        let total = self.fs.file_size(src).map_err(wire)?;
        let txid = self.next_txid();
        let rec_file = record_name(txid);

        // 1. Durable local intent.
        let rec = TxRecord {
            phase: phase::PREPARED,
            role: Role::Coordinator,
            kind,
            from: from.to_string(),
            to: to.to_string(),
            peer_shard,
        };
        let rino = self.fs.create(&rec_file).map_err(wire)?;
        self.fs.write(rino, 0, &rec.to_bytes()).map_err(wire)?;
        self.hit_failpoint(TxStep::AfterLocalPrepare);

        // 2. Stream the content to the participant.
        let staged = match self.send_prepare(map, peer_shard, txid, kind, to, src, total) {
            Ok(()) => true,
            Err(e) => {
                // Presumed abort: tell the peer (best effort) and withdraw
                // the local record. A crash mid-cleanup leaves a Prepared
                // record, which recovery also resolves to abort.
                if let Ok(mut peer) = (self.dial)(map.primary(peer_shard)) {
                    let _ = peer.request(&Request::TxAbort { txid });
                }
                let _ = self.fs.unlink(&rec_file);
                self.tx_aborted.inc();
                return Err(e);
            }
        };
        debug_assert!(staged);
        self.hit_failpoint(TxStep::AfterPeerPrepare);

        // 3. The commit point: one durable byte.
        self.fs.write(rino, 0, &[phase::COMMITTED]).map_err(wire)?;
        self.hit_failpoint(TxStep::AfterCommitPoint);

        // 4. Apply on the participant. From here the transaction is
        // decided; errors leave the Committed record for recovery to redo.
        let mut peer = (self.dial)(map.primary(peer_shard))?;
        let peer_body = peer.request(&Request::TxCommit { txid })?;
        self.hit_failpoint(TxStep::AfterPeerCommit);

        // 5. Local cleanup.
        if kind == TxKind::Rename {
            self.fs.unlink(from).map_err(wire)?;
        }
        self.hit_failpoint(TxStep::AfterSourceUnlink);
        self.fs.unlink(&rec_file).map_err(wire)?;
        self.tx_committed.inc();
        match kind {
            TxKind::Rename => Ok(Body::Empty),
            TxKind::Link => match peer_body {
                Body::Ino(local) => Ok(Body::Ino(map.gino(peer_shard, local))),
                _ => Ok(Body::Empty),
            },
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send_prepare(
        &self,
        map: &ClusterMap,
        peer_shard: u32,
        txid: u64,
        kind: TxKind,
        to: &str,
        src: u64,
        total: u64,
    ) -> Result<(), SvcError> {
        let mut peer = (self.dial)(map.primary(peer_shard))?;
        let mut off = 0u64;
        loop {
            let want = ((total - off) as usize).min(PREPARE_CHUNK);
            let data = if want == 0 {
                Vec::new()
            } else {
                self.fs.read(src, off, want).map_err(wire)?
            };
            let chunk = PrepareChunk {
                to: to.to_string(),
                kind,
                coord_shard: self.shard,
                offset: off,
                total,
                data,
            };
            match peer.request(&Request::TxPrepare {
                txid,
                data: chunk.to_bytes(),
            })? {
                Body::Ino(_) => {}
                other => {
                    return Err(SvcError::service(
                        SvcError::BAD_REQUEST,
                        format!("unexpected prepare reply: {other:?}"),
                    ))
                }
            }
            off += want as u64;
            if off >= total {
                return Ok(());
            }
        }
    }

    // ------------------------------------------------------------------
    // Startup resolution
    // ------------------------------------------------------------------

    /// Resolve every two-phase-commit record mount-time recovery surfaced:
    /// Committed coordinator records are rolled forward, Prepared/Aborted
    /// ones rolled back; participant records ask the coordinator's shard
    /// (`TxStatus`) and follow its durable decision. Returns the number of
    /// transactions resolved; undecided participant records (coordinator
    /// unreachable or itself still Prepared) are left for the coordinator
    /// to drive and are not counted.
    pub fn resolve_orphans(&self) -> usize {
        let map = self.map.get();
        let orphans: Vec<String> = self.fs.nova().orphan_prepares().to_vec();
        let mut resolved = 0;
        for name in &orphans {
            let Some(txid) = parse_record_name(name) else {
                continue; // stage files: second pass below
            };
            let Some(rec) = self.read_record(name) else {
                continue;
            };
            match rec.role {
                Role::Coordinator => {
                    if rec.phase == phase::COMMITTED {
                        // Redo forward: the decision is durable.
                        let committed = (self.dial)(map.primary(rec.peer_shard))
                            .and_then(|mut peer| peer.request(&Request::TxCommit { txid }))
                            .is_ok();
                        if !committed {
                            continue; // peer down; keep the record, retry later
                        }
                        if rec.kind == TxKind::Rename && self.fs.nova().exists(&rec.from) {
                            let _ = self.fs.unlink(&rec.from);
                        }
                        let _ = self.fs.unlink(name);
                        self.tx_committed.inc();
                    } else {
                        // Presumed abort for everything before the commit
                        // point.
                        if let Ok(mut peer) = (self.dial)(map.primary(rec.peer_shard)) {
                            let _ = peer.request(&Request::TxAbort { txid });
                        }
                        let _ = self.fs.unlink(name);
                        self.tx_aborted.inc();
                    }
                    resolved += 1;
                }
                Role::Participant => {
                    let state = (self.dial)(map.primary(rec.peer_shard))
                        .and_then(|mut coord| coord.request(&Request::TxStatus { txid }));
                    match state {
                        Ok(Body::TxState(TxState::Committed)) => {
                            resolved += usize::from(self.handle_commit(txid).is_ok());
                        }
                        Ok(Body::TxState(TxState::None | TxState::Aborted)) => {
                            let _ = self.handle_abort(txid);
                            resolved += 1;
                        }
                        // Prepared or unreachable: the coordinator's own
                        // resolution will drive this transaction.
                        _ => {}
                    }
                }
            }
        }
        // Stage files whose record never landed: the first prepare chunk was
        // never acknowledged, so the coordinator cannot have committed —
        // safe to discard.
        for name in &orphans {
            if let Some(hex) = name
                .strip_prefix(PREPARE_PREFIX)
                .and_then(|s| s.strip_prefix("stage."))
            {
                if let Ok(txid) = u64::from_str_radix(hex, 16) {
                    if !self.fs.nova().exists(&record_name(txid)) {
                        let _ = self.fs.unlink(name);
                    }
                }
            }
        }
        if resolved > 0 {
            self.orphans_resolved.add(resolved as u64);
        }
        resolved
    }
}

impl Interceptor for ClusterNode {
    fn before(&self, req: &Request, standby: bool) -> Intercept {
        let map = self.map.get();
        match req {
            // --- cluster control ---
            Request::MapGet => Intercept::Reply(Ok(Body::Bytes(map.encode()))),
            Request::MapPush { map: bytes } => Intercept::Reply(self.handle_map_push(bytes)),
            Request::TxStatus { txid } => Intercept::Reply(self.handle_status(*txid)),
            Request::TxPrepare { txid, data } => Intercept::Reply(if standby {
                Err(replica_read_only())
            } else {
                self.handle_prepare(*txid, data)
            }),
            Request::TxCommit { txid } => Intercept::Reply(if standby {
                Err(replica_read_only())
            } else {
                self.handle_commit(*txid)
            }),
            Request::TxAbort { txid } => Intercept::Reply(if standby {
                Err(replica_read_only())
            } else {
                self.handle_abort(*txid)
            }),

            // --- name-routed ops ---
            Request::Create { name } => {
                if Self::reserved(name) {
                    return Self::reject_reserved();
                }
                self.route_name(&map, name)
            }
            Request::Open { name } | Request::Unlink { name } => self.route_name(&map, name),
            Request::Link { existing, new_name } => {
                if Self::reserved(new_name) {
                    return Self::reject_reserved();
                }
                self.route_pair(&map, TxKind::Link, existing, new_name, standby)
            }
            Request::Rename { from, to } => {
                if Self::reserved(to) {
                    return Self::reject_reserved();
                }
                self.route_pair(&map, TxKind::Rename, from, to, standby)
            }

            // --- gino-routed ops ---
            Request::Read { ino, offset, len } => {
                self.route_gino(&map, *ino, |local| Request::Read {
                    ino: local,
                    offset: *offset,
                    len: *len,
                })
            }
            Request::Write { ino, offset, data } => {
                self.route_gino(&map, *ino, |local| Request::Write {
                    ino: local,
                    offset: *offset,
                    data: data.clone(),
                })
            }
            Request::Stat { ino } => {
                self.route_gino(&map, *ino, |local| Request::Stat { ino: local })
            }
            Request::Fsync { ino } => {
                self.route_gino(&map, *ino, |local| Request::Fsync { ino: local })
            }
            Request::Truncate { ino, size } => {
                self.route_gino(&map, *ino, |local| Request::Truncate {
                    ino: local,
                    size: *size,
                })
            }

            // --- node-local ops pass through untouched ---
            Request::Ping
            | Request::List
            | Request::DedupStats
            | Request::Telemetry { .. }
            | Request::Shutdown
            | Request::Hello { .. }
            | Request::Promote => Intercept::Forward(None),
        }
    }

    fn after(&self, req: &Request, reply: Reply) -> Reply {
        let map = self.map.get();
        match (req, reply) {
            // Local inode births become global on the way out.
            (
                Request::Create { .. } | Request::Open { .. } | Request::Link { .. },
                Ok(Body::Ino(local)),
            ) => Ok(Body::Ino(map.gino(self.shard, local))),
            (Request::Stat { .. }, Ok(Body::Stat(mut st))) => {
                st.ino = map.gino(self.shard, st.ino);
                Ok(Body::Stat(st))
            }
            // In-flight transaction records are infrastructure, not
            // namespace.
            (Request::List, Ok(Body::Names(names))) => Ok(Body::Names(
                names.into_iter().filter(|n| !Self::reserved(n)).collect(),
            )),
            (_, reply) => reply,
        }
    }
}

impl ClusterNode {
    fn route_name(&self, map: &ClusterMap, name: &str) -> Intercept {
        let owner = map.shard_of_name(name);
        if self.owns(map, owner) {
            Intercept::Forward(None)
        } else {
            self.bounce(map, owner)
        }
    }

    /// Route a two-name op: the *source* owner coordinates; a destination on
    /// another shard upgrades the op to a cross-shard transaction.
    fn route_pair(
        &self,
        map: &ClusterMap,
        kind: TxKind,
        from: &str,
        to: &str,
        standby: bool,
    ) -> Intercept {
        let owner = map.shard_of_name(from);
        if !self.owns(map, owner) {
            return self.bounce(map, owner);
        }
        let to_owner = map.shard_of_name(to);
        if self.owns(map, to_owner) {
            return Intercept::Forward(None);
        }
        if standby {
            return Intercept::Reply(Err(replica_read_only()));
        }
        Intercept::Reply(self.run_cross_shard(map, kind, from, to))
    }

    fn route_gino(
        &self,
        map: &ClusterMap,
        gino: u64,
        rewrite: impl FnOnce(u64) -> Request,
    ) -> Intercept {
        let owner = map.shard_of_gino(gino);
        if self.owns(map, owner) {
            Intercept::Forward(Some(rewrite(map.local_ino(gino))))
        } else {
            self.bounce(map, owner)
        }
    }
}

fn wire(e: NovaError) -> SvcError {
    SvcError::from_nova(&e)
}

fn replica_read_only() -> SvcError {
    SvcError::service(
        SvcError::REPLICA_READ_ONLY,
        "standby replica is read-only; promote it or write to the primary",
    )
}
