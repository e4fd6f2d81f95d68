//! The primary side: journal tap, snapshot capture, and the per-standby
//! shipping loop.
//!
//! ## Ordering and crash consistency
//!
//! The op tap's *append* phase (`op_committed`) fires inside each
//! operation's committing critical section (namespace lock for name ops,
//! per-inode write lock for data ops), *after* the atomic log-tail commit —
//! so journal order equals commit order, and a journaled op is already
//! durable on the primary's device. The sync-ack *wait* runs in the tap's
//! settle phase (`op_settled`), after those locks are released: a stalled
//! standby delays only the operation being replicated, never unrelated
//! namespace or inode traffic queued on the same locks.
//!
//! That happens-before edge is what makes snapshots cheap: a snapshot is the
//! pair `(journal.head(), device.persistent_bytes())` captured in that order
//! under the dedup pool's quiesce lock. Every op with `seq <= head` committed
//! (and flushed) before its journal append, so it is in the image; an op that
//! raced in after `head()` was read may also appear in the image, but its
//! replay on the standby is idempotent (`Create` maps the existing inode,
//! `Write`/`Truncate` rewrite identical state, `Unlink`/`Rename` skip
//! not-found). The quiesce lock only excludes dedup daemon mutations — it
//! never blocks foreground taps, so taking a snapshot cannot deadlock with
//! a tap waiting inside a commit.

use crate::journal::{EntriesFrom, Journal, JournalConfig};
use denova::Denova;
use denova_nova::{FsOp, OpTap};
use denova_svc::codec::{read_frame, write_frame, FrameRead, Wire};
use denova_svc::repl::{encode_entries_raw, ReplMsg};
use denova_svc::{Server, Stream};
use denova_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replication tunables.
#[derive(Debug, Clone, Copy)]
pub struct ReplConfig {
    /// Journal bounds.
    pub journal: JournalConfig,
    /// `true` = sync-ack mode: every mutating op blocks until *every*
    /// streaming standby acknowledges it (or `sync_timeout` passes).
    /// `false` = async shipping.
    pub sync_ack: bool,
    /// Sync-ack wait ceiling. A timeout means the op returned success
    /// without standby durability: it is counted (`repl.sync_timeouts`)
    /// and latches the `repl.sync_degraded` gauge so failover tooling can
    /// see the guarantee was downgraded, but the op proceeds rather than
    /// wedging the primary.
    pub sync_timeout: Duration,
    /// Max entries shipped but unacknowledged before the sender waits.
    pub window: usize,
    /// Max ops per `Entries` frame.
    pub batch_ops: usize,
    /// Max payload bytes per `Entries` frame.
    pub batch_bytes: usize,
    /// Idle heartbeat interval.
    pub heartbeat: Duration,
    /// Snapshot transfer chunk size.
    pub snapshot_chunk: usize,
    /// Cluster shard this journal replicates, if the primary is one shard
    /// of a sharded namespace. Surfaces as the `repl.shard` gauge so one
    /// metrics dump from a multi-shard process can be told apart; `None`
    /// (standalone replication) leaves the gauge unset.
    pub shard: Option<u32>,
}

impl Default for ReplConfig {
    fn default() -> ReplConfig {
        ReplConfig {
            journal: JournalConfig::default(),
            sync_ack: false,
            sync_timeout: Duration::from_secs(5),
            window: 1024,
            batch_ops: 256,
            batch_bytes: 2 << 20,
            heartbeat: Duration::from_millis(500),
            snapshot_chunk: 4 << 20,
            shard: None,
        }
    }
}

struct Shared {
    fs: Arc<Denova>,
    journal: Journal,
    cfg: ReplConfig,
    /// Standbys currently in streaming state (snapshot already shipped).
    /// Sync-ack only blocks while this is nonzero, so the first standby's
    /// snapshot transfer cannot deadlock against blocked taps.
    active_standbys: AtomicUsize,
    stop: AtomicBool,
    snapshot_ns: Histogram,
    snapshots: Counter,
    sync_timeouts: Counter,
    /// Latches to 1 on the first sync-ack timeout: at least one op was
    /// acknowledged to a client without standby durability.
    sync_degraded: Gauge,
    standbys_served: Counter,
    fell_behind: Counter,
    metrics: MetricsRegistry,
}

/// The primary's replication engine: owns the journal, taps the file
/// system, and serves standby subscriptions handed over by the server.
pub struct ReplPrimary {
    shared: Arc<Shared>,
}

/// The [`OpTap`] installed on the primary's NOVA instance.
struct JournalTap {
    shared: Arc<Shared>,
}

impl OpTap for JournalTap {
    /// Append phase: runs inside the committing critical section, so the
    /// journal serializes ops in commit order. Never blocks.
    fn op_committed(&self, op: FsOp) -> u64 {
        self.shared.journal.append(op.to_bytes())
    }

    /// Settle phase: runs after the committing locks are released. The
    /// sync-ack wait lives here so a slow standby delays only this op's
    /// caller, not every operation queued on the namespace/inode locks.
    fn op_settled(&self, seq: u64) {
        let s = &self.shared;
        if s.cfg.sync_ack
            && s.active_standbys.load(Ordering::Acquire) > 0
            && !s.stop.load(Ordering::Acquire)
            && !s.journal.wait_acked(seq, s.cfg.sync_timeout)
        {
            // The op returns success without standby durability: count the
            // downgrade and latch the degraded flag clients can observe.
            s.sync_timeouts.inc();
            s.sync_degraded.set(1);
        }
    }
}

impl ReplPrimary {
    /// Stand up replication on a mounted primary: installs the journal tap
    /// on the NOVA layer and, when `server` is given, the subscription sink
    /// on the connection layer. Returns the engine handle for direct
    /// (in-process) standby serving and for shutdown.
    pub fn install(fs: Arc<Denova>, server: Option<&Server>, cfg: ReplConfig) -> Arc<ReplPrimary> {
        let metrics = fs.nova().device().metrics().clone();
        if let Some(shard) = cfg.shard {
            metrics.gauge("repl.shard").set(shard as i64);
        }
        let shared = Arc::new(Shared {
            journal: Journal::new(cfg.journal, &metrics),
            cfg,
            active_standbys: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            snapshot_ns: metrics.histogram("repl.snapshot.ns"),
            snapshots: metrics.counter("repl.snapshots"),
            sync_timeouts: metrics.counter("repl.sync_timeouts"),
            sync_degraded: metrics.gauge("repl.sync_degraded"),
            standbys_served: metrics.counter("repl.standbys_served"),
            fell_behind: metrics.counter("repl.fell_behind"),
            metrics,
            fs,
        });
        shared.fs.nova().set_op_tap(Arc::new(JournalTap {
            shared: shared.clone(),
        }));
        let primary = Arc::new(ReplPrimary { shared });
        if let Some(server) = server {
            let engine = primary.clone();
            server.set_repl_sink(Some(Arc::new(move |stream, last_seq, want_snapshot| {
                engine.serve_standby(stream, last_seq, want_snapshot);
            })));
        }
        primary
    }

    /// The journal head (last committed-and-journaled sequence).
    pub fn head(&self) -> u64 {
        self.shared.journal.head()
    }

    /// The effective acknowledged sequence: the minimum across streaming
    /// standbys, so it only advances once *every* standby has the entry.
    pub fn acked(&self) -> u64 {
        self.shared.journal.acked()
    }

    /// Unacknowledged ops (`repl.lag_ops` at this instant).
    pub fn lag_ops(&self) -> u64 {
        self.shared.journal.head() - self.shared.journal.acked()
    }

    /// Block until every streaming standby has acknowledged the current
    /// journal head (the journal is *drained*), or `timeout` passes.
    /// Rebalancing calls this after freezing writes to a shard so the
    /// takeover target provably holds every committed op before promotion.
    /// Returns `true` once drained; `false` on timeout.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let head = self.shared.journal.head();
        self.shared.journal.wait_acked(head, timeout)
    }

    /// Whether sync-ack durability has been downgraded at least once: some
    /// op timed out waiting for standby acknowledgement and returned
    /// success anyway (`repl.sync_timeouts` counts them). A failover after
    /// this returned `true` may lose those acknowledged writes.
    pub fn sync_degraded(&self) -> bool {
        self.shared.sync_degraded.get() != 0
    }

    /// Stop shipping: wakes sender loops so they exit, unhooks the tap.
    /// Call before tearing down the server so connection threads running
    /// [`ReplPrimary::serve_standby`] can be joined.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.fs.nova().clear_op_tap();
        self.shared.journal.kick();
    }

    /// Capture a crash-consistent snapshot: `(covered_seq, device_image)`.
    /// The image contains exactly the flushed (durable) state, which by the
    /// tap's ordering includes every journaled op up to `covered_seq`.
    pub fn take_snapshot(&self) -> (u64, Vec<u8>) {
        let s = &self.shared;
        let _span = s.metrics.span("repl.snapshot");
        let t0 = Instant::now();
        // Settle the dedup pipeline first (outside any lock that could
        // block a foreground tap) so the image carries dedup work too.
        s.fs.drain();
        let pair = s.fs.quiesce(|| {
            let upto = s.journal.head();
            let image = s.fs.nova().device().persistent_bytes();
            (upto, image)
        });
        s.snapshot_ns.record(t0.elapsed().as_nanos() as u64);
        s.snapshots.inc();
        pair
    }

    /// Serve one standby subscription on `stream` until the peer drops, the
    /// standby falls behind, or [`ReplPrimary::stop`]. This is the body of
    /// the server's replication sink and runs on the connection's thread.
    pub fn serve_standby(&self, stream: Box<dyn Stream>, last_seq: u64, want_snapshot: bool) {
        let s = self.shared.clone();
        s.standbys_served.inc();
        let mut writer = stream;
        let _ = writer.set_stream_timeouts(Some(Duration::from_millis(100)), None);

        let mut cursor = last_seq;
        if want_snapshot {
            let (upto, image) = self.take_snapshot();
            if send_snapshot(&mut writer, upto, &image, s.cfg.snapshot_chunk).is_err() {
                return;
            }
            s.journal.snapshot_covers(upto);
            cursor = upto;
        } else if !matches!(
            s.journal.entries_from(cursor, 1, usize::MAX),
            EntriesFrom::UpToDate | EntriesFrom::Batch { .. }
        ) {
            // The standby's cursor fell off the bounded journal: it must
            // re-subscribe with a snapshot.
            s.fell_behind.inc();
            let _ = write_frame(&mut writer, &ReplMsg::FellBehind.encode());
            writer.shutdown_stream();
            return;
        }

        // Register this standby's own ack cursor before counting it active:
        // sync-ack taps gate on the minimum across subscribers, so the
        // subscriber must exist by the time `active_standbys` says a wait
        // is worthwhile.
        let sub = s.journal.subscribe(cursor);

        // Ack reader: the standby sends windowed acks on the same
        // connection; a dedicated thread feeds them into the journal under
        // this subscription's cursor.
        let alive = Arc::new(AtomicBool::new(true));
        let ack_thread = {
            let mut reader = match writer.try_clone_stream() {
                Ok(r) => r,
                Err(_) => {
                    s.journal.unsubscribe(sub);
                    return;
                }
            };
            let alive = alive.clone();
            let s = s.clone();
            std::thread::spawn(move || {
                loop {
                    match read_frame(&mut reader) {
                        Ok(FrameRead::Frame(f)) => {
                            if let Ok(ReplMsg::Ack { seq }) = ReplMsg::decode(&f) {
                                s.journal.ack(sub, seq);
                            }
                        }
                        Ok(FrameRead::Idle) => {
                            if !alive.load(Ordering::Acquire) || s.stop.load(Ordering::Acquire) {
                                break;
                            }
                        }
                        Ok(FrameRead::Eof) | Err(_) => break,
                    }
                }
                alive.store(false, Ordering::Release);
            })
        };

        s.active_standbys.fetch_add(1, Ordering::AcqRel);
        let mut last_beat = Instant::now();
        while alive.load(Ordering::Acquire) && !s.stop.load(Ordering::Acquire) {
            // Flow control: don't run more than `window` entries ahead of
            // *this* standby's acks — a fast peer's cursor must not mask a
            // slow one's lag.
            if cursor.saturating_sub(s.journal.sub_acked(sub)) >= s.cfg.window as u64 {
                s.journal
                    .wait_sub_acked(sub, cursor - s.cfg.window as u64 + 1, s.cfg.heartbeat);
                continue;
            }
            match s
                .journal
                .entries_from(cursor, s.cfg.batch_ops, s.cfg.batch_bytes)
            {
                EntriesFrom::Batch { first_seq, raw } => {
                    let frame = encode_entries_raw(first_seq, &raw);
                    if write_frame(&mut writer, &frame).is_err() {
                        break;
                    }
                    cursor = first_seq + raw.len() as u64 - 1;
                }
                EntriesFrom::UpToDate => {
                    if !s.journal.wait_appended(cursor, s.cfg.heartbeat)
                        && last_beat.elapsed() >= s.cfg.heartbeat
                    {
                        let beat = ReplMsg::Heartbeat {
                            head_seq: s.journal.head(),
                        };
                        if write_frame(&mut writer, &beat.encode()).is_err() {
                            break;
                        }
                        last_beat = Instant::now();
                    }
                }
                EntriesFrom::Gone => {
                    s.fell_behind.inc();
                    let _ = write_frame(&mut writer, &ReplMsg::FellBehind.encode());
                    break;
                }
            }
        }
        s.active_standbys.fetch_sub(1, Ordering::AcqRel);
        s.journal.unsubscribe(sub);
        alive.store(false, Ordering::Release);
        writer.shutdown_stream();
        let _ = ack_thread.join();
    }
}

fn send_snapshot(
    w: &mut Box<dyn Stream>,
    upto_seq: u64,
    image: &[u8],
    chunk: usize,
) -> std::io::Result<()> {
    let chunk = chunk.max(1);
    let chunk_count = image.len().div_ceil(chunk) as u32;
    let begin = ReplMsg::SnapshotBegin {
        upto_seq,
        total_bytes: image.len() as u64,
        chunk_count,
    };
    write_frame(w, &begin.encode())?;
    for (index, data) in image.chunks(chunk).enumerate() {
        let msg = ReplMsg::SnapshotChunk {
            index: index as u32,
            data: data.to_vec(),
        };
        write_frame(w, &msg.encode())?;
    }
    write_frame(
        w,
        &ReplMsg::SnapshotEnd {
            total_bytes: image.len() as u64,
        }
        .encode(),
    )
}
