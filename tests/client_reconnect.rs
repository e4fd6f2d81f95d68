//! `Client`'s reconnect, against a server that drops the connection.
//!
//! The connector dials loopback connections to one server and keeps a second
//! handle on each. Half a frame header written through that handle leaves the
//! connection stalled mid-frame, so the server's event loop drops it once its
//! stall timeout has passed; reading the handle until EOF waits for that
//! without a sleep. An idempotent request then rides out the drop on a fresh
//! connection, while a write surfaces the failure and is never re-sent.

use denova_repro::prelude::*;
use denova_repro::svc::{Connector, RetryPolicy};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Loopback connections to one server, each with a handle the test keeps.
struct Dialer {
    server: Server,
    handles: Mutex<Vec<UnixStream>>,
}

impl Dialer {
    fn new() -> Arc<Dialer> {
        let dev = Arc::new(PmemDevice::new(16 << 20));
        let opts = NovaOptions {
            num_inodes: 64,
            ..Default::default()
        };
        let fs = Denova::mkfs(dev, opts, DedupMode::Baseline).unwrap();
        let config = SvcConfig {
            // The loop's tick and stall timeout: a connection stalled
            // mid-frame is dropped within about 0.1 s.
            read_timeout: Duration::from_millis(10),
            write_timeout: Duration::from_millis(100),
            ..Default::default()
        };
        Arc::new(Dialer {
            server: Server::new(Arc::new(fs), config),
            handles: Mutex::new(Vec::new()),
        })
    }

    fn connector(self: &Arc<Dialer>) -> Connector {
        let dialer = self.clone();
        Arc::new(move || {
            let sock = dialer.server.connect_loopback();
            dialer.handles.lock().unwrap().push(sock.try_clone()?);
            Ok(Box::new(sock))
        })
    }

    /// A client over the first connection, re-dialing through `connector`
    /// with a short backoff.
    fn client(self: &Arc<Dialer>) -> Client {
        let connector = self.connector();
        let mut client = Client::from_stream(connector().unwrap());
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(10),
        };
        client.set_reconnect(connector, policy);
        client
    }

    /// Make the server drop the newest connection, and wait until it has.
    fn drop_newest_from_the_server_side(&self) {
        let newest = self.handles.lock().unwrap().last().unwrap().try_clone();
        let mut handle = newest.unwrap();
        handle.write_all(&[1, 0]).unwrap(); // half of a length prefix
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut byte = [0u8; 1];
        loop {
            match handle.read(&mut byte) {
                Ok(0) => return,
                Ok(_) => panic!("a reply arrived on a stalled connection"),
                // The client's read timeout is the socket's: poll on.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    assert!(Instant::now() < deadline, "the server never dropped it");
                }
                Err(e) => panic!("{e}"),
            }
        }
    }

    fn writes_executed(&self) -> u64 {
        let snap = self.server.service().metrics().snapshot();
        snap.histogram("svc.op.write.ns").map_or(0, |h| h.count)
    }
}

#[test]
fn an_idempotent_stat_succeeds_after_exactly_one_reconnect() {
    let dialer = Dialer::new();
    let mut client = dialer.client();
    let ino = client.create("f").unwrap();
    client.write_at(ino, 0, &[7; 4096]).unwrap();
    dialer.drop_newest_from_the_server_side();
    assert_eq!(client.stat(ino).unwrap().size, 4096);
    assert_eq!(client.reconnects(), 1);
    assert_eq!(dialer.handles.lock().unwrap().len(), 2);
}

#[test]
fn a_write_on_a_dropped_connection_fails_and_is_not_resent() {
    let dialer = Dialer::new();
    let mut client = dialer.client();
    let ino = client.create("f").unwrap();
    dialer.drop_newest_from_the_server_side();
    let err = client.write_at(ino, 0, &[7; 4096]).unwrap_err();
    assert_eq!(err.code, SvcError::IO, "{err:?}");
    // The client re-dialed once without re-sending, so the next call finds
    // a live connection. The write never reached the server: a re-send
    // would have landed on the fresh connection.
    assert_eq!(client.reconnects(), 1);
    assert_eq!(client.stat(ino).unwrap().size, 0);
    assert_eq!(dialer.writes_executed(), 0);
    assert_eq!(client.reconnects(), 1);
    // A write sent again by the caller lands.
    client.write_at(ino, 0, &[7; 4096]).unwrap();
    assert_eq!(client.stat(ino).unwrap().size, 4096);
}
