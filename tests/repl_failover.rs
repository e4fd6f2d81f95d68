//! Failover acceptance: kill the primary mid-workload, promote the standby,
//! and audit that nothing acknowledged was lost.
//!
//! The correctness contract is *logical* equivalence — after promotion the
//! standby serves byte-identical contents for every file whose write the
//! primary acknowledged, and every audit passes (fsck, FACT
//! count-consistency via scrub, no UC residue) — while the *physical* dedup
//! layout may differ, because the standby re-runs its own dedup pipeline
//! over the applied stream.

use denova_repro::prelude::*;
use denova_repro::repl::bootstrap;
use denova_repro::svc::client::Connector;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn mkfs(inodes: u64) -> Arc<Denova> {
    let dev = Arc::new(PmemDevice::new(64 * 1024 * 1024));
    Arc::new(
        Denova::mkfs(
            dev,
            NovaOptions {
                num_inodes: inodes,
                ..Default::default()
            },
            DedupMode::Immediate,
        )
        .unwrap(),
    )
}

/// Quiesce and audit a file system: clean fsck, exact FACT reference
/// counts, no update-count residue.
fn audit(fs: &Denova) {
    fs.drain();
    fs.scrub().unwrap();
    let report = denova_repro::nova::fsck(fs.nova(), true).unwrap();
    assert!(report.is_clean(), "fsck: {:?}", report.errors);
    let counts = fs.nova().block_reference_counts();
    fs.fact().for_each_occupied(|idx, e| {
        let (rfc, uc) = fs.fact().counters(idx);
        assert_eq!(uc, 0, "UC residue at {idx}");
        assert_eq!(
            rfc,
            counts.get(&e.block).copied().unwrap_or(0),
            "RFC mismatch at {idx}"
        );
    });
}

/// Every file in `shadow` must exist on `fs` with byte-identical content.
fn assert_matches_shadow(fs: &Denova, shadow: &HashMap<String, Vec<u8>>) {
    for (name, expect) in shadow {
        let ino = fs.open(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            fs.file_size(ino).unwrap() as usize,
            expect.len(),
            "{name} size"
        );
        let got = fs.read(ino, 0, expect.len()).unwrap();
        assert_eq!(&got, expect, "{name} content mismatch");
    }
}

/// Attach a standby to `server` over loopback: snapshot-bootstrap, mount the
/// image through the recovery path, and run the apply loop on a thread.
/// Returns (standby fs, promoted flag, join handle).
#[allow(clippy::type_complexity)]
fn attach_standby(
    server: &Arc<Server>,
) -> (
    Arc<Denova>,
    Arc<AtomicBool>,
    std::thread::JoinHandle<StandbyExit>,
    Connector,
) {
    let srv = server.clone();
    attach_standby_via(Arc::new(move || Ok(Box::new(srv.connect_loopback()) as _)))
}

/// [`attach_standby`] over the connections `connector` dials.
#[allow(clippy::type_complexity)]
fn attach_standby_via(
    connector: Connector,
) -> (
    Arc<Denova>,
    Arc<AtomicBool>,
    std::thread::JoinHandle<StandbyExit>,
    Connector,
) {
    let boot = bootstrap(&connector).unwrap();
    let standby_fs = Arc::new(
        Denova::mount(
            Arc::new(PmemDevice::from_bytes(&boot.image, Default::default())),
            NovaOptions::default(),
            DedupMode::Immediate,
        )
        .unwrap(),
    );
    let promoted = Arc::new(AtomicBool::new(false));
    let handle = std::thread::spawn({
        let mut standby = Standby::new(standby_fs.clone(), boot.upto_seq, StandbyConfig::default());
        let connector = connector.clone();
        let promoted = promoted.clone();
        move || {
            standby.run(
                boot.stream,
                &connector,
                move || promoted.load(Ordering::Acquire),
                || false,
            )
        }
    });
    (standby_fs, promoted, handle, connector)
}

/// Sync-ack mode: kill the primary mid-workload; at the kill point the
/// journal shows zero lag, and the promoted standby holds every
/// acknowledged write byte-for-byte.
#[test]
fn sync_ack_failover_loses_nothing() {
    let primary = mkfs(2048);
    let server = Arc::new(Server::new(primary.clone(), SvcConfig::default()));
    let engine = ReplPrimary::install(
        primary.clone(),
        Some(&server),
        ReplConfig {
            sync_ack: true,
            ..Default::default()
        },
    );

    // Pre-attach state rides the snapshot, not the stream.
    let pre = primary.create("pre-existing").unwrap();
    primary.write(pre, 0, &vec![7u8; 8192]).unwrap();

    let (standby_fs, promoted, apply_thread, connector) = attach_standby(&server);

    // Workload: a writer hammers the primary until the "kill" lands. Every
    // write that *returns* under sync-ack is on the standby.
    let kill = Arc::new(AtomicBool::new(false));
    let writer = std::thread::spawn({
        let primary = primary.clone();
        let kill = kill.clone();
        move || {
            let mut shadow: HashMap<String, Vec<u8>> = HashMap::new();
            shadow.insert("pre-existing".into(), vec![7u8; 8192]);
            let mut i = 0u64;
            // Bounded by count as well as by the kill: how many files fit in
            // the window depends on the host, the inode table does not.
            while !kill.load(Ordering::Acquire) && i < 1500 {
                let name = format!("f{i}");
                let mut data = vec![(i % 251) as u8; 4096];
                data[..8].copy_from_slice(&i.to_le_bytes());
                let ino = primary.create(&name).unwrap();
                primary.write(ino, 0, &data).unwrap();
                shadow.insert(name, data);
                if i.is_multiple_of(7) {
                    // Mix in overwrites so the stream isn't create-only.
                    let tgt = format!("f{}", i / 2);
                    if let Ok(ino) = primary.open(&tgt) {
                        let patch = vec![(i % 13) as u8; 2048];
                        primary.write(ino, 0, &patch).unwrap();
                        let entry = shadow.get_mut(&tgt).unwrap();
                        entry[..2048].copy_from_slice(&patch);
                    }
                }
                i += 1;
            }
            shadow
        }
    });
    std::thread::sleep(std::time::Duration::from_millis(400));
    kill.store(true, Ordering::Release);
    let shadow = writer.join().unwrap();
    assert!(shadow.len() > 10, "writer made no progress");

    // The kill-point invariant: the last acknowledged write is the journal
    // head, and sync-ack means it is already acked. Nothing in flight.
    assert_eq!(engine.lag_ops(), 0, "sync-ack left unacked entries");

    // "Kill" the primary: stop its engine, sever the stream by promoting.
    engine.stop();
    promoted.store(true, Ordering::Release);
    assert_eq!(apply_thread.join().unwrap(), StandbyExit::Promoted);

    // The promoted standby serves everything the dead primary acknowledged.
    assert_matches_shadow(&standby_fs, &shadow);
    assert_eq!(standby_fs.nova().file_count(), shadow.len());
    audit(&standby_fs);

    drop(connector);
    Arc::try_unwrap(server)
        .unwrap_or_else(|_| panic!("server still referenced"))
        .shutdown();
}

/// Async mode: the standby trails, but once the journal drains the logical
/// state is byte-identical — including unlinks, renames, links and
/// truncates replayed through the ino map.
#[test]
fn async_replica_converges_to_logical_equality() {
    let primary = mkfs(512);
    let server = Arc::new(Server::new(primary.clone(), SvcConfig::default()));
    let engine = ReplPrimary::install(primary.clone(), Some(&server), ReplConfig::default());

    let (standby_fs, promoted, apply_thread, connector) = attach_standby(&server);

    let mut shadow: HashMap<String, Vec<u8>> = HashMap::new();
    for i in 0..80u64 {
        let name = format!("g{i}");
        let data = vec![(i % 17) as u8; 4096];
        let ino = primary.create(&name).unwrap();
        primary.write(ino, 0, &data).unwrap();
        shadow.insert(name, data);
    }
    // Namespace churn: unlink, rename, hard-link, truncate.
    primary.unlink("g3").unwrap();
    shadow.remove("g3");
    primary.nova().rename("g4", "renamed").unwrap();
    let v = shadow.remove("g4").unwrap();
    shadow.insert("renamed".into(), v);
    primary.nova().link("g5", "alias").unwrap();
    shadow.insert("alias".into(), shadow["g5"].clone());
    let t = primary.open("g6").unwrap();
    primary.truncate(t, 100).unwrap();
    shadow.get_mut("g6").unwrap().truncate(100);

    // Wait for the stream to drain, then promote the standby.
    let head = engine.head();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while engine.acked() < head {
        assert!(
            std::time::Instant::now() < deadline,
            "standby never caught up (acked {} / head {})",
            engine.acked(),
            head
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(engine.lag_ops(), 0);
    engine.stop();
    promoted.store(true, Ordering::Release);
    assert_eq!(apply_thread.join().unwrap(), StandbyExit::Promoted);

    assert_matches_shadow(&standby_fs, &shadow);
    assert_eq!(standby_fs.nova().file_count(), shadow.len());
    audit(&standby_fs);

    drop(connector);
    Arc::try_unwrap(server)
        .unwrap_or_else(|_| panic!("server still referenced"))
        .shutdown();
}

/// Full protocol failover: a standby *server* rejects writes with
/// `REPLICA_READ_ONLY`, streams from the primary, and flips to a writable
/// primary on a wire-level `promote` — the same path `denova-cli promote`
/// drives.
#[test]
fn protocol_promote_flips_standby_to_writable() {
    let primary = mkfs(512);
    let primary_server = Arc::new(Server::new(primary.clone(), SvcConfig::default()));
    let engine = ReplPrimary::install(
        primary.clone(),
        Some(&primary_server),
        ReplConfig::default(),
    );

    let (standby_fs, promoted, apply_thread, connector) = attach_standby(&primary_server);
    let standby_server = Arc::new(Server::new(standby_fs.clone(), SvcConfig::default()));
    {
        let flag = promoted.clone();
        standby_server.set_role(Some(ReplRole::standby(move || {
            flag.store(true, Ordering::Release)
        })));
    }

    let mut client = Client::from_stream(Box::new(standby_server.connect_loopback()));

    // Writes bounce off the standby; reads pass.
    let err = client.create("nope").unwrap_err();
    assert_eq!(err.code, SvcError::REPLICA_READ_ONLY);
    client.list().unwrap();

    // A primary write becomes visible through the standby's read path.
    let ino = primary.create("streamed").unwrap();
    primary.write(ino, 0, &vec![9u8; 4096]).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let sino = loop {
        if let Ok(ino) = client.open("streamed") {
            break ino;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "streamed file never reached the standby"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    // The write may land an instant after the create; poll for content.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if client.read_at(sino, 0, 4096).map(|d| d == vec![9u8; 4096]) == Ok(true) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "streamed bytes never reached the standby"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Wire-level promote: the role flips, the apply loop exits Promoted,
    // and the same connection can now write.
    client.promote().unwrap();
    assert_eq!(apply_thread.join().unwrap(), StandbyExit::Promoted);
    let ino = client.create("after-promote").unwrap();
    client.write_at(ino, 0, &[1u8; 128]).unwrap();
    assert_eq!(client.read_at(ino, 0, 128).unwrap(), vec![1u8; 128]);

    engine.stop();
    drop(client);
    drop(connector);
    audit(&standby_fs);
    drop(standby_fs);
    Arc::try_unwrap(standby_server)
        .unwrap_or_else(|_| panic!("standby server still referenced"))
        .shutdown();
    Arc::try_unwrap(primary_server)
        .unwrap_or_else(|_| panic!("primary server still referenced"))
        .shutdown();
}

/// A stream that parks, in both directions, while a shared flag is set, and
/// counts the calls it parked.
struct StallStream {
    inner: Box<dyn denova_repro::svc::Stream>,
    stalled: Arc<AtomicBool>,
    parked: Arc<AtomicU64>,
}

impl StallStream {
    fn park_while_stalled(&self) {
        if self.stalled.load(Ordering::Acquire) {
            self.parked.fetch_add(1, Ordering::Relaxed);
            while self.stalled.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

impl std::io::Read for StallStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.park_while_stalled();
        self.inner.read(buf)
    }
}

impl std::io::Write for StallStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.park_while_stalled();
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl denova_repro::svc::Stream for StallStream {
    fn try_clone_stream(&self) -> std::io::Result<Box<dyn denova_repro::svc::Stream>> {
        Ok(Box::new(StallStream {
            inner: self.inner.try_clone_stream()?,
            stalled: self.stalled.clone(),
            parked: self.parked.clone(),
        }))
    }

    fn set_stream_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()> {
        self.inner.set_stream_timeouts(read, write)
    }

    fn shutdown_stream(&self) {
        self.inner.shutdown_stream()
    }
}

/// Sync-ack mode with a standby that stops reading: writes keep succeeding,
/// each one after the sync timeout, and the degradation latches in
/// `ReplPrimary::sync_degraded` and the `repl.sync_degraded` gauge. Once
/// the standby resumes it catches up, and the promoted standby holds every
/// write byte-for-byte.
#[test]
fn degraded_sync_latches_and_recovers() {
    const STALLED_FILES: u64 = 2;
    let primary = mkfs(256);
    let server = Arc::new(Server::new(primary.clone(), SvcConfig::default()));
    let engine = ReplPrimary::install(
        primary.clone(),
        Some(&server),
        ReplConfig {
            sync_ack: true,
            sync_timeout: Duration::from_millis(250),
            ..Default::default()
        },
    );
    let stalled = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(AtomicU64::new(0));
    let connector: Connector = {
        let (srv, stalled, parked) = (server.clone(), stalled.clone(), parked.clone());
        Arc::new(move || {
            Ok(Box::new(StallStream {
                inner: Box::new(srv.connect_loopback()),
                stalled: stalled.clone(),
                parked: parked.clone(),
            }) as _)
        })
    };
    let (standby_fs, promoted, apply_thread, connector) = attach_standby_via(connector);

    let mut shadow: HashMap<String, Vec<u8>> = HashMap::new();
    let put = |shadow: &mut HashMap<String, Vec<u8>>, i: u64| {
        let name = format!("s{i}");
        let data = vec![i as u8 + 1; 4096];
        let ino = primary.create(&name).unwrap();
        primary.write(ino, 0, &data).unwrap();
        shadow.insert(name, data);
    };
    let wait_converged = |what: &str| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while engine.lag_ops() > 0 {
            assert!(Instant::now() < deadline, "standby never {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    // A streaming standby first: the write reaches it, nothing degrades.
    put(&mut shadow, 0);
    let deadline = Instant::now() + Duration::from_secs(20);
    while standby_fs.open("s0").is_err() {
        assert!(Instant::now() < deadline, "standby never started streaming");
        std::thread::sleep(Duration::from_millis(5));
    }
    wait_converged("caught up before the stall");
    let metrics = primary.nova().device().metrics().clone();
    assert!(!engine.sync_degraded());
    assert_eq!(metrics.counter("repl.sync_timeouts").get(), 0);

    // The standby stops reading and acknowledging. Every op (a create and a
    // write per file) now waits out the sync timeout, then succeeds.
    stalled.store(true, Ordering::Release);
    let t0 = Instant::now();
    for i in 1..=STALLED_FILES {
        put(&mut shadow, i);
    }
    assert!(t0.elapsed() >= Duration::from_millis(250) * 2 * STALLED_FILES as u32);
    assert_eq!(
        metrics.counter("repl.sync_timeouts").get(),
        2 * STALLED_FILES
    );
    assert!(engine.sync_degraded());
    assert_eq!(metrics.gauge("repl.sync_degraded").get(), 1);
    assert!(parked.load(Ordering::Relaxed) > 0, "the stall never bit");
    assert!(engine.lag_ops() > 0);

    // Resumed, the standby catches up; the latch stays set.
    stalled.store(false, Ordering::Release);
    wait_converged("caught up after the stall");
    put(&mut shadow, STALLED_FILES + 1);
    assert!(engine.sync_degraded());
    assert_eq!(metrics.gauge("repl.sync_degraded").get(), 1);

    engine.stop();
    promoted.store(true, Ordering::Release);
    assert_eq!(apply_thread.join().unwrap(), StandbyExit::Promoted);
    assert_matches_shadow(&primary, &shadow);
    assert_matches_shadow(&standby_fs, &shadow);
    assert_eq!(standby_fs.nova().file_count(), shadow.len());
    audit(&primary);
    audit(&standby_fs);

    drop(connector);
    Arc::try_unwrap(server)
        .unwrap_or_else(|_| panic!("server still referenced"))
        .shutdown();
}
