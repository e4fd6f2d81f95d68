//! In-process transport: Unix-domain socket pairs, and a registry to dial
//! them by name.
//!
//! A loopback connection is `UnixStream::pair()`: a real file descriptor the
//! server's reactor polls exactly as it polls an accepted TCP socket, with
//! no port, no Nagle and no host network configuration in the way. Unit
//! tests, stress tests, the cluster harness, chaos scenarios and in-process
//! benches drive the full server — framing, dispatch, sharded pool,
//! backpressure — through it, on the connection code a deployed server
//! runs. The kernel supplies the stream semantics: reads drain buffered
//! bytes before reporting EOF, writes to a closed peer fail with
//! `BrokenPipe`, and a cloned handle keeps the connection open.

use parking_lot::Mutex;
use std::io;
use std::os::unix::net::UnixStream;
use std::sync::Arc;

/// An in-process "network": a registry of named listeners, so one process
/// can host many servers (one per cluster shard) and dial them by address
/// exactly like TCP — but with no ports and no host network configuration.
///
/// A listener is any closure that accepts the server-side [`UnixStream`] of
/// a fresh connection (see [`crate::Server::register_loopback`]).
/// [`Hub::connect`] makes a socket pair, hands one end to the listener, and
/// returns the other; dialing an unregistered address fails with
/// `ConnectionRefused`, which is how cluster tests simulate a dead node.
#[derive(Default)]
pub struct Hub {
    listeners: Mutex<std::collections::HashMap<String, Acceptor>>,
}

/// Server-side accept callback registered with [`Hub::register`].
type Acceptor = Arc<dyn Fn(UnixStream) + Send + Sync>;

impl Hub {
    /// An empty hub.
    pub fn new() -> Arc<Hub> {
        Arc::new(Hub::default())
    }

    /// Register (or replace) the listener for `addr`.
    pub fn register(&self, addr: &str, accept: impl Fn(UnixStream) + Send + Sync + 'static) {
        self.listeners
            .lock()
            .insert(addr.to_string(), Arc::new(accept));
    }

    /// Remove `addr`'s listener; later dials get `ConnectionRefused`. Used
    /// to simulate killing a node.
    pub fn unregister(&self, addr: &str) {
        self.listeners.lock().remove(addr);
    }

    /// Registered addresses (unordered).
    pub fn addrs(&self) -> Vec<String> {
        self.listeners.lock().keys().cloned().collect()
    }

    /// Dial `addr`: create a socket pair, hand the server end to the
    /// listener, return the client end.
    pub fn connect(&self, addr: &str) -> io::Result<UnixStream> {
        let accept = self.listeners.lock().get(addr).cloned();
        match accept {
            Some(accept) => {
                let (client_end, server_end) = UnixStream::pair()?;
                accept(server_end);
                Ok(client_end)
            }
            None => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("no loopback listener at {addr}"),
            )),
        }
    }

    /// A [`crate::client::Connector`] that re-dials `addr` through this hub,
    /// for clients and standbys that reconnect after a simulated crash.
    pub fn connector(self: &Arc<Self>, addr: &str) -> crate::client::Connector {
        let hub = self.clone();
        let addr = addr.to_string();
        Arc::new(move || Ok(Box::new(hub.connect(&addr)?) as Box<dyn crate::transport::Stream>))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn hub_routes_by_address_and_refuses_unknown() {
        let hub = Hub::new();
        let (tx, rx) = std::sync::mpsc::channel::<(String, UnixStream)>();
        for name in ["shard0", "shard1"] {
            let tx = tx.clone();
            let name = name.to_string();
            hub.register(&name.clone(), move |end| {
                tx.send((name.clone(), end)).unwrap();
            });
        }
        let mut c1 = hub.connect("shard1").unwrap();
        c1.write_all(b"hi").unwrap();
        let (who, mut server_end) = rx.recv().unwrap();
        assert_eq!(who, "shard1");
        let mut buf = [0u8; 2];
        server_end.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        assert_eq!(
            hub.connect("shard9").unwrap_err().kind(),
            io::ErrorKind::ConnectionRefused
        );
        hub.unregister("shard1");
        assert_eq!(
            hub.connect("shard1").unwrap_err().kind(),
            io::ErrorKind::ConnectionRefused
        );
        let mut addrs = hub.addrs();
        addrs.sort();
        assert_eq!(addrs, ["shard0"]);
    }
}
