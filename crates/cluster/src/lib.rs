//! Sharded multi-primary namespace service over the DENOVA stack.
//!
//! A cluster partitions one flat namespace across `N` independent
//! single-primary DENOVA servers ("shards"): a name lives on
//! `hash(name) % N` (with optional path-prefix pinning), and every shard
//! runs its own full stack — device, NOVA, dedup pipeline, wire server,
//! and per-shard replication journal — so aggregate throughput scales with
//! shard count while each shard keeps the single-primary crash-consistency
//! story intact.
//!
//! The moving parts:
//!
//! * [`map`] — the versioned [`map::ClusterMap`] (shard → primary address,
//!   epoch-numbered, gossiped on contact) and routing arithmetic, including
//!   the global-inode scheme `gino = local * N + shard`.
//! * [`node`] — [`node::ClusterNode`], an [`denova_svc::Interceptor`] that
//!   turns a plain server into a cluster member: ownership bouncing
//!   (`WRONG_SHARD`), gino translation, map gossip, and the two-phase
//!   coordinator/participant logic for cross-shard rename/link.
//! * [`client`] — [`client::ClusterClient`], the owner-direct routing
//!   client that heals stale maps on bounce and rides out failover and
//!   rebalance windows.
//! * [`twophase`] — durable file-based transaction records under the
//!   reserved `.2pc.` prefix (presumed abort, single-byte commit point).
//! * [`harness`] — [`harness::TestCluster`], an in-process deterministic
//!   cluster over [`denova_svc::loopback`] used by tests and crash
//!   matrices.

#![warn(missing_docs)]

pub mod client;
pub mod harness;
pub mod map;
pub mod node;
pub mod twophase;

pub use client::ClusterClient;
pub use harness::{NodeHandle, TestCluster};
pub use map::{ClusterMap, ShardEntry, SharedMap};
pub use node::{ClusterNode, Dialer, TxStep};
pub use twophase::{TxKind, TxRecord};
