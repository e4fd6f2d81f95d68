//! Multi-client file service over a mounted DeNova stack.
//!
//! This crate turns the single-process [`denova::Denova`] handle into a
//! served file system that many clients can drive concurrently:
//!
//! * [`codec`] — length-prefixed framing and the little-endian field codec,
//!   shared verbatim by both transports.
//! * [`proto`] — the wire protocol: opcodes, request/reply encoding, and
//!   [`SvcError`] with stable numeric codes (`1..=99` mirror
//!   [`denova_nova::NovaError::code`]).
//! * [`service`] — [`FileService`]: one request in, one reply out, against
//!   the mounted stack, instrumented with per-op latency histograms.
//! * [`pool`] — [`ShardedPool`]: worker threads keyed by
//!   `shard_key % shards`, so same-inode operations serialize while
//!   different files proceed in parallel.
//! * [`transport`] — the [`Stream`] abstraction the client side is written
//!   against (TCP and Unix-domain sockets implement it).
//! * [`server`] / [`client`] — the connection machinery ([`Server`]: one
//!   connection state machine, on the reactor) and the synchronous typed
//!   [`Client`].
//!
//! The intended production shape is `denova-cli serve --listen host:port` on
//! the machine owning the (emulated) persistent memory, and any number of
//! `denova-cli --remote host:port` / [`Client`] peers driving it. Tests and
//! benches use [`Server::connect_loopback`]: its server end goes to the same
//! reactor, through the same handler, as an accepted TCP socket, so they
//! drive the deployed connection code minus the TCP stack.

#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod pool;
pub mod proto;
pub mod server;
pub mod service;
pub mod tenant;
pub mod transport;

pub use client::{dial_tcp, Backoff, Client, Connector, RetryPolicy};
pub use pool::ShardedPool;
pub use proto::{hash_name, Body, RemoteDedupStats, Reply, Request, SvcError};
pub use server::{Server, SvcConfig};
pub use service::FileService;
pub use tenant::{Tenant, TenantRegistry, DEFAULT_TENANT};
pub use transport::Stream;
