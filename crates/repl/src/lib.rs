//! Crash-consistent snapshots and log-shipping replication for DeNova.
//!
//! A **primary** node taps every mutating operation *after* its atomic
//! log-tail commit into a bounded in-memory [`Journal`]; the journal is
//! streamed over the file service's own transport (the `ReplMsg` frame
//! family in `denova_svc::repl`) to a **standby** running the same stack in
//! apply mode. A standby that connects fresh — or whose cursor falls off the
//! bounded journal — catches up via a full-state snapshot: a
//! crash-consistent device image taken under the dedup pool's quiesce lock,
//! containing exactly the flushed (durable) cache lines, which the standby
//! mounts through the ordinary crash-recovery path.
//!
//! Two shipping modes:
//!
//! * **async** (default) — taps never block; `repl.lag_ops`/`repl.lag_bytes`
//!   gauges expose the standby's distance behind the primary;
//! * **sync-ack** — each mutating op blocks until every streaming standby
//!   acknowledges it, so at any kill point the standby has every
//!   acknowledged write — provided no wait hit the sync timeout: a timed-out
//!   op proceeds without standby durability, counted in
//!   `repl.sync_timeouts` and latched in the `repl.sync_degraded` gauge.
//!
//! Failover: `denova-cli serve --replica-of <addr>` runs a standby that
//! serves reads and rejects writes (`REPLICA_READ_ONLY`); a `promote`
//! request flips it to primary. The correctness contract is *logical*
//! equivalence — after promoting, file contents are byte-identical to the
//! dead primary's acknowledged state and every audit (fsck, FACT
//! count-consistency, scrub) passes — while the *physical* dedup layout may
//! differ, since the standby re-runs its own dedup pipeline.
//!
//! Instrumentation: `repl.lag_ops` / `repl.lag_bytes` / `repl.behind_ops`
//! gauges, `repl.snapshot.ns` span + histogram, `repl.reconnects` /
//! `repl.applied_ops` / `repl.apply_errors` / `repl.sync_timeouts` counters.

#![warn(missing_docs)]

pub mod journal;
pub mod primary;
pub mod standby;

pub use journal::{EntriesFrom, Journal, JournalConfig};
pub use primary::{ReplConfig, ReplPrimary};
pub use standby::{bootstrap, Bootstrap, Standby, StandbyConfig, StandbyExit};

#[cfg(test)]
mod tests {
    use super::*;
    use denova::{DedupMode, Denova};
    use denova_nova::NovaOptions;
    use denova_pmem::PmemDevice;
    use denova_svc::client::Connector;
    use denova_svc::{Server, SvcConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn mkfs() -> Arc<Denova> {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        Arc::new(
            Denova::mkfs(
                dev,
                NovaOptions {
                    num_inodes: 128,
                    ..Default::default()
                },
                DedupMode::Immediate,
            )
            .unwrap(),
        )
    }

    /// End-to-end over the server's loopback transport: bootstrap a standby
    /// from a snapshot, stream ops, verify logical equality.
    #[test]
    fn snapshot_bootstrap_then_stream_applies() {
        let primary_fs = mkfs();
        let server = Arc::new(Server::new(primary_fs.clone(), SvcConfig::default()));
        let engine = ReplPrimary::install(primary_fs.clone(), Some(&server), ReplConfig::default());

        // Pre-snapshot state.
        let a = primary_fs.create("a").unwrap();
        primary_fs.write(a, 0, &vec![1u8; 8192]).unwrap();

        let srv = server.clone();
        let connector: Connector = Arc::new(move || Ok(Box::new(srv.connect_loopback()) as _));
        let boot = bootstrap(&connector).unwrap();
        assert!(boot.upto_seq >= 2);

        // Mount the image through the recovery path.
        let dev = Arc::new(PmemDevice::from_bytes(&boot.image, Default::default()));
        let standby_fs =
            Arc::new(Denova::mount(dev, NovaOptions::default(), DedupMode::Immediate).unwrap());
        assert_eq!(standby_fs.read(a, 0, 8192).unwrap(), vec![1u8; 8192]);

        // Post-snapshot ops stream through the journal.
        let b = primary_fs.create("b").unwrap();
        primary_fs.write(b, 0, &vec![2u8; 4096]).unwrap();
        primary_fs.truncate(a, 100).unwrap();

        let mut standby = Standby::new(standby_fs.clone(), boot.upto_seq, StandbyConfig::default());
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let head = engine.head();
        // Run the apply loop on a thread; stop it once everything is acked.
        let handle = std::thread::spawn({
            let connector = connector.clone();
            move || {
                standby.run(
                    boot.stream,
                    &connector,
                    || false,
                    move || stop2.load(Ordering::Acquire),
                )
            }
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while engine.acked() < head {
            assert!(
                std::time::Instant::now() < deadline,
                "standby never caught up"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(engine.lag_ops(), 0);
        stop.store(true, Ordering::Release);
        assert_eq!(handle.join().unwrap(), StandbyExit::Stopped);

        // Logical equality.
        let sb = standby_fs.open("b").unwrap();
        assert_eq!(standby_fs.read(sb, 0, 4096).unwrap(), vec![2u8; 4096]);
        assert_eq!(standby_fs.file_size(a).unwrap(), 100);
        engine.stop();
        drop(connector); // releases the closure's Arc<Server>
        Arc::try_unwrap(server)
            .unwrap_or_else(|_| panic!("server still referenced"))
            .shutdown();
    }

    /// Regression: the inline and adaptive dedup modes commit writes
    /// through their own critical sections, not `Nova::write` — a primary
    /// mounted in those modes must still ship file data to the standby
    /// (these paths once emitted nothing, silently diverging the replica).
    #[test]
    fn inline_mode_writes_reach_the_standby() {
        for mode in [DedupMode::Inline, DedupMode::InlineAdaptive] {
            let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
            let primary_fs = Arc::new(
                Denova::mkfs(
                    dev,
                    NovaOptions {
                        num_inodes: 128,
                        ..Default::default()
                    },
                    mode,
                )
                .unwrap(),
            );
            let server = Arc::new(Server::new(primary_fs.clone(), SvcConfig::default()));
            let engine =
                ReplPrimary::install(primary_fs.clone(), Some(&server), ReplConfig::default());

            let srv = server.clone();
            let connector: Connector = Arc::new(move || Ok(Box::new(srv.connect_loopback()) as _));
            let boot = bootstrap(&connector).unwrap();
            let dev = Arc::new(PmemDevice::from_bytes(&boot.image, Default::default()));
            let standby_fs = Arc::new(Denova::mount(dev, NovaOptions::default(), mode).unwrap());

            let ino = primary_fs.create("f").unwrap();
            primary_fs.write(ino, 0, &vec![7u8; 8192]).unwrap();
            primary_fs.write(ino, 4096, &vec![9u8; 4096]).unwrap();
            primary_fs.truncate(ino, 6000).unwrap();
            let head = engine.head();

            let mut standby =
                Standby::new(standby_fs.clone(), boot.upto_seq, StandbyConfig::default());
            let stop = Arc::new(AtomicBool::new(false));
            let stop2 = stop.clone();
            let handle = std::thread::spawn({
                let connector = connector.clone();
                move || {
                    standby.run(
                        boot.stream,
                        &connector,
                        || false,
                        move || stop2.load(Ordering::Acquire),
                    )
                }
            });
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while engine.acked() < head {
                assert!(
                    std::time::Instant::now() < deadline,
                    "standby never caught up in {mode:?}"
                );
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            stop.store(true, Ordering::Release);
            assert_eq!(handle.join().unwrap(), StandbyExit::Stopped);

            let sb = standby_fs.open("f").unwrap();
            assert_eq!(
                standby_fs.read(sb, 0, 4096).unwrap(),
                vec![7u8; 4096],
                "{mode:?}"
            );
            assert_eq!(
                standby_fs.read(sb, 4096, 1904).unwrap(),
                vec![9u8; 1904],
                "{mode:?}"
            );
            assert_eq!(standby_fs.file_size(sb).unwrap(), 6000, "{mode:?}");
            engine.stop();
            drop(connector);
            Arc::try_unwrap(server)
                .unwrap_or_else(|_| panic!("server still referenced"))
                .shutdown();
        }
    }

    /// Wire-level: a stale subscribe without a snapshot request gets
    /// FellBehind once the journal has evicted its cursor.
    #[test]
    fn stale_cursor_is_told_to_fall_back_to_snapshot() {
        use denova_svc::codec::{read_frame, write_frame, FrameRead};
        use denova_svc::repl::ReplMsg;

        let fs = mkfs();
        let server = Server::new(fs.clone(), SvcConfig::default());
        let cfg = ReplConfig {
            journal: JournalConfig {
                cap_ops: 4,
                cap_bytes: 1 << 20,
            },
            ..Default::default()
        };
        let engine = ReplPrimary::install(fs.clone(), Some(&server), cfg);

        // Push enough ops to evict seq 1.
        let ino = fs.create("f").unwrap();
        for i in 0..8u64 {
            fs.write(ino, i * 4096, &[i as u8; 16]).unwrap();
        }
        assert!(engine.head() >= 8);

        let mut conn = server.connect_loopback();
        let sub = ReplMsg::Subscribe {
            last_seq: 1,
            want_snapshot: false,
        };
        write_frame(&mut conn, &sub.encode()).unwrap();
        let reply = loop {
            match read_frame(&mut conn).unwrap() {
                FrameRead::Frame(f) => break ReplMsg::decode(&f).unwrap(),
                FrameRead::Idle => continue,
                FrameRead::Eof => panic!("closed without FellBehind"),
            }
        };
        assert_eq!(reply, ReplMsg::FellBehind);
        engine.stop();
        server.shutdown();
    }

    /// A journal gap mid-stream surfaces as `StandbyExit::FellBehind` from
    /// the standby's run loop (driven directly, no server).
    #[test]
    fn fell_behind_frame_exits_run_loop() {
        use denova_svc::codec::write_frame;
        use denova_svc::repl::ReplMsg;

        let fs = mkfs();
        let (mut primary_end, standby_end) = std::os::unix::net::UnixStream::pair().unwrap();
        write_frame(&mut primary_end, &ReplMsg::FellBehind.encode()).unwrap();

        let mut standby = Standby::new(fs, 0, StandbyConfig::default());
        let connector: Connector = Arc::new(|| {
            Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "down",
            ))
        });
        let exit = standby.run(Box::new(standby_end), &connector, || false, || false);
        assert_eq!(exit, StandbyExit::FellBehind);
    }
}
