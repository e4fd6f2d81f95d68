//! An in-process multi-server cluster over the loopback [`Hub`]: one
//! [`denova_svc::Server`] + [`ClusterNode`] per shard, addressable by name,
//! with helpers for the operations the tests drive — kill a node, attach
//! and promote a standby, rebalance a shard to a new node.
//!
//! This is a *self-contained* cluster: every byte crosses a Unix-domain
//! socket pair inside the process, so kill/failover/rebalance sequences
//! reproduce regardless of the host's network configuration — the same
//! philosophy as [`denova_svc::loopback`], one level up — while every node
//! serves its connections on the reactor, as a deployed one does.

use crate::client::ClusterClient;
use crate::map::ClusterMap;
use crate::node::{ClusterNode, Dialer};
use denova::{DedupMode, Denova};
use denova_nova::NovaOptions;
use denova_pmem::{LatencyProfile, PmemBuilder, PmemDevice};
use denova_repl::{bootstrap, ReplConfig, ReplPrimary, Standby, StandbyConfig, StandbyExit};
use denova_svc::loopback::Hub;
use denova_svc::{Client, RetryPolicy, Server, SvcConfig, SvcError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Device capacity per shard.
const DEVICE_BYTES: usize = 64 * 1024 * 1024;
/// Inode slots per shard.
const NUM_INODES: u64 = 4096;
/// Dedup mode per shard.
const DEDUP_MODE: DedupMode = DedupMode::Immediate;

/// One running shard node.
pub struct NodeHandle {
    /// The shard this node's data belongs to.
    pub shard: u32,
    /// Hub address it serves at.
    pub addr: String,
    /// The mounted stack (kept for direct audits).
    pub fs: Arc<Denova>,
    /// The wire server.
    pub server: Arc<Server>,
    /// The cluster interceptor.
    pub node: Arc<ClusterNode>,
    /// The shard's replication engine.
    pub repl: Arc<ReplPrimary>,
}

/// See the module docs.
pub struct TestCluster {
    /// The in-process network.
    pub hub: Arc<Hub>,
    /// The authoritative map (highest epoch pushed so far).
    pub map: ClusterMap,
    /// Running nodes, including frozen ex-owners after a rebalance.
    pub nodes: Vec<NodeHandle>,
}

impl TestCluster {
    /// Stand up `shards` fresh single-shard nodes at addresses
    /// `shard0..shardN-1`.
    pub fn new(shards: u32) -> TestCluster {
        let addrs: Vec<String> = (0..shards).map(|k| format!("shard{k}")).collect();
        let map = ClusterMap::new(&addrs);
        let hub = Hub::new();
        let mut cluster = TestCluster {
            hub,
            map: map.clone(),
            nodes: Vec::new(),
        };
        for (k, addr) in addrs.iter().enumerate() {
            let fs = cluster.mkfs();
            cluster.spawn_node(k as u32, addr, fs);
        }
        cluster
    }

    /// Rebuild a cluster from already-mounted per-shard stacks (crash-
    /// matrix remounts): `stacks[k]` serves shard `k` at `shard{k}`.
    pub fn from_stacks(stacks: Vec<Arc<Denova>>) -> TestCluster {
        let addrs: Vec<String> = (0..stacks.len()).map(|k| format!("shard{k}")).collect();
        let mut cluster = TestCluster {
            hub: Hub::new(),
            map: ClusterMap::new(&addrs),
            nodes: Vec::new(),
        };
        for (k, fs) in stacks.into_iter().enumerate() {
            let addr = format!("shard{k}");
            cluster.spawn_node(k as u32, &addr, fs);
        }
        cluster
    }

    fn mkfs(&self) -> Arc<Denova> {
        let dev = Arc::new(PmemBuilder::new(DEVICE_BYTES).build());
        let opts = NovaOptions {
            num_inodes: NUM_INODES,
            ..Default::default()
        };
        Arc::new(Denova::mkfs(dev, opts, DEDUP_MODE).unwrap())
    }

    /// Build server + interceptor + replication for `fs` and register it on
    /// the hub at `addr`. Used by construction, crash-remount, and
    /// rebalance alike.
    pub fn spawn_node(&mut self, shard: u32, addr: &str, fs: Arc<Denova>) -> &NodeHandle {
        let server = Arc::new(Server::new(fs.clone(), SvcConfig::default()));
        let repl = ReplPrimary::install(
            fs.clone(),
            Some(&server),
            ReplConfig {
                shard: Some(shard),
                ..Default::default()
            },
        );
        let node = ClusterNode::new(shard, addr, fs.clone(), self.map.clone(), self.dialer());
        server.service().set_interceptor(Some(node.clone()));
        server.register_loopback(&self.hub, addr);
        self.nodes.push(NodeHandle {
            shard,
            addr: addr.to_string(),
            fs,
            server,
            node,
            repl,
        });
        self.nodes.last().unwrap()
    }

    /// A dialer that connects through this cluster's hub, with redial.
    pub fn dialer(&self) -> Dialer {
        let hub = self.hub.clone();
        Arc::new(move |addr: &str| {
            let end = hub.connect(addr).map_err(|e| SvcError::io(&e))?;
            let mut client = Client::from_stream(Box::new(end));
            client.set_reconnect(hub.connector(addr), RetryPolicy::default());
            Ok(client)
        })
    }

    /// A routing client bootstrapped from shard 0's owner.
    pub fn client(&self) -> ClusterClient {
        ClusterClient::connect(self.map.primary(0), self.dialer()).expect("cluster bootstrap")
    }

    /// The live node currently owning `shard` per the authoritative map.
    pub fn owner(&self, shard: u32) -> &NodeHandle {
        let addr = self.map.primary(shard);
        self.nodes
            .iter()
            .find(|n| n.addr == addr)
            .expect("owner not running")
    }

    /// Push `map` to every registered node (each adopts it if newer) and
    /// make it authoritative locally.
    pub fn push_map(&mut self, map: ClusterMap) {
        let push = denova_svc::Request::MapPush { map: map.encode() };
        for addr in self.hub.addrs() {
            if let Ok(mut c) = (self.dialer())(&addr) {
                let _ = c.request(&push);
            }
        }
        self.map = map;
    }

    /// Simulate killing the node at `addr`: unregister it so new dials are
    /// refused. Existing connections see EOF when the handle is dropped by
    /// the caller. The `NodeHandle` is returned for post-mortem audits.
    pub fn kill(&mut self, addr: &str) -> NodeHandle {
        self.hub.unregister(addr);
        let idx = self
            .nodes
            .iter()
            .position(|n| n.addr == addr)
            .expect("unknown node");
        let handle = self.nodes.remove(idx);
        handle.repl.stop();
        handle.server.request_shutdown();
        handle
    }

    /// Rebalance `shard` onto a brand-new node at `new_addr`:
    /// snapshot-bootstrap a standby from the current owner, freeze the
    /// shard with an epoch bump (the old owner starts bouncing its own
    /// shard's traffic), wait for journal catch-up, promote, and serve.
    /// Clients ride the window via their `WRONG_SHARD`/read-only retries.
    pub fn rebalance(&mut self, shard: u32, new_addr: &str) {
        let (old_addr, old_repl) = {
            let old = self.owner(shard);
            (old.addr.clone(), old.repl.clone())
        };

        // 1. Bootstrap the target from a crash-consistent snapshot and
        // stream the journal tail.
        let connector = self.hub.connector(&old_addr);
        let boot = bootstrap(&connector).expect("rebalance bootstrap");
        let upto = boot.upto_seq;
        let target_dev = Arc::new(PmemDevice::from_bytes(&boot.image, LatencyProfile::none()));
        let target_fs = Arc::new(
            Denova::mount(
                target_dev,
                NovaOptions {
                    num_inodes: NUM_INODES,
                    ..Default::default()
                },
                DEDUP_MODE,
            )
            .expect("rebalance mount"),
        );
        let promoted = Arc::new(AtomicBool::new(false));
        let apply = std::thread::spawn({
            let mut standby = Standby::new(target_fs.clone(), upto, StandbyConfig::default());
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

        // 2. Freeze: a newer map reassigns the shard; the old owner bounces
        // from here on, so the journal stops growing once in-flight ops
        // settle.
        let mut map2 = self.map.clone();
        map2.epoch += 1;
        map2.shards[shard as usize].primary = new_addr.to_string();
        self.push_map(map2);

        // 3. Catch-up: wait until the frozen owner's journal is fully
        // acknowledged by the target, stable across two reads (an op that
        // slipped past the freeze may still be committing).
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if old_repl.wait_drained(Duration::from_millis(200)) && old_repl.lag_ops() == 0 {
                std::thread::sleep(Duration::from_millis(20));
                if old_repl.lag_ops() == 0 {
                    break;
                }
            }
            assert!(
                Instant::now() < deadline,
                "rebalance catch-up never drained (lag {})",
                old_repl.lag_ops()
            );
        }

        // 4. Promote the target and serve the shard at its new home.
        promoted.store(true, Ordering::Release);
        assert_eq!(apply.join().unwrap(), StandbyExit::Promoted);
        self.spawn_node(shard, new_addr, target_fs);
    }

    /// Tear the cluster down. Call after dropping every client — live
    /// client connections keep server Arcs referenced.
    pub fn shutdown(self) -> Vec<Arc<Denova>> {
        let mut stacks = Vec::new();
        for n in self.nodes {
            n.repl.stop();
            self.hub.unregister(&n.addr);
            let fs = Arc::try_unwrap(n.server)
                .unwrap_or_else(|_| panic!("server {} still referenced", n.addr))
                .shutdown();
            stacks.push(fs);
            drop(n.node);
        }
        stacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use denova_workload::{run_store_write_job, JobSpec};

    #[test]
    fn names_and_ginos_route_to_their_owners() {
        let cluster = TestCluster::new(2);
        let mut c = cluster.client();
        let mut ginos = Vec::new();
        for i in 0..24 {
            let name = format!("file-{i}");
            let gino = c.put(&name, &vec![i as u8; 4096]).unwrap();
            // The gino's low bits name the owning shard the map hashed the
            // name to.
            assert_eq!(
                cluster.map.shard_of_gino(gino),
                cluster.map.shard_of_name(&name)
            );
            ginos.push((name, gino));
        }
        // Both shards got a slice of the namespace.
        let per_shard: Vec<usize> = cluster
            .nodes
            .iter()
            .map(|n| n.fs.nova().file_count())
            .collect();
        assert!(per_shard.iter().all(|&c| c > 0), "skewed: {per_shard:?}");
        // Reads route by gino; stat reports the gino back.
        for (name, gino) in &ginos {
            assert_eq!(c.open(name).unwrap(), *gino);
            assert_eq!(c.stat(*gino).unwrap().ino, *gino);
            let data = c.read_at(*gino, 0, 4096).unwrap();
            assert!(!data.is_empty());
        }
        // list() merges all shards.
        let all = c.list().unwrap();
        assert_eq!(all.len(), 24);
        drop(c);
        cluster.shutdown();
    }

    #[test]
    fn stale_client_map_heals_on_wrong_shard_bounce() {
        let mut cluster = TestCluster::new(2);
        let mut c = cluster.client();
        c.put("healme", b"v1").unwrap();
        // Rebalance the file's shard away; the client still holds the old
        // map and must chase the WRONG_SHARD hint.
        let shard = cluster.map.shard_of_name("healme");
        cluster.rebalance(shard, "moved");
        assert_eq!(c.get("healme").unwrap(), b"v1");
        assert_eq!(c.map().primary(shard), "moved");
        drop(c);
        cluster.shutdown();
    }

    #[test]
    fn rebalance_preserves_data_and_redirects_writes() {
        let mut cluster = TestCluster::new(2);
        let mut c = cluster.client();
        for i in 0..16 {
            c.put(&format!("pre-{i}"), &vec![i as u8; 2048]).unwrap();
        }
        cluster.rebalance(0, "shard0-v2");
        assert_eq!(cluster.map.primary(0), "shard0-v2");
        assert_eq!(cluster.map.epoch, 2);
        let mut c2 = cluster.client();
        for i in 0..16 {
            assert_eq!(c2.get(&format!("pre-{i}")).unwrap(), vec![i as u8; 2048]);
        }
        // New writes land on the new owner.
        for i in 0..8 {
            c2.put(&format!("post-{i}"), b"after").unwrap();
        }
        let moved = cluster.owner(0);
        assert!(moved.fs.nova().file_count() > 0);
        drop(c);
        drop(c2);
        cluster.shutdown();
    }

    /// A `(from, to)` name pair owned by two different shards.
    fn cross_shard_pair(map: &ClusterMap) -> (String, String) {
        let from = (0..)
            .map(|i| format!("src-{i}"))
            .find(|n| map.shard_of_name(n) == 0)
            .unwrap();
        let to = (0..)
            .map(|i| format!("dst-{i}"))
            .find(|n| map.shard_of_name(n) == 1)
            .unwrap();
        (from, to)
    }

    #[test]
    fn cross_shard_rename_moves_content_and_leaves_no_residue() {
        let cluster = TestCluster::new(2);
        let mut c = cluster.client();
        let (from, to) = cross_shard_pair(&cluster.map);
        let payload: Vec<u8> = (0..3 * 4096u32).map(|i| (i % 251) as u8).collect();
        c.put(&from, &payload).unwrap();
        c.rename(&from, &to).unwrap();
        assert_eq!(c.get(&to).unwrap(), payload);
        assert!(c.open(&from).is_err(), "source must be gone");
        // No transaction records survive, on either shard.
        for n in &cluster.nodes {
            assert!(
                !n.fs.nova().list().iter().any(|n| n.starts_with(".2pc.")),
                "2pc residue on shard {}",
                n.shard
            );
        }
        assert_eq!(c.list().unwrap(), vec![to]);
        drop(c);
        cluster.shutdown();
    }

    #[test]
    fn cross_shard_link_copies_and_copies_diverge() {
        let cluster = TestCluster::new(2);
        let mut c = cluster.client();
        let (from, to) = cross_shard_pair(&cluster.map);
        c.put(&from, b"shared v1").unwrap();
        let gto = c.link(&from, &to).unwrap();
        assert_eq!(cluster.map.shard_of_gino(gto), 1);
        assert_eq!(c.get(&to).unwrap(), b"shared v1");
        assert_eq!(c.get(&from).unwrap(), b"shared v1");
        // Cross-shard link is a copy: writing one side must not change the
        // other (documented divergence from single-shard hard links).
        c.write_at(gto, 0, b"CHANGED v2").unwrap();
        assert_eq!(c.get(&to).unwrap(), b"CHANGED v2");
        assert_eq!(c.get(&from).unwrap(), b"shared v1");
        drop(c);
        cluster.shutdown();
    }

    #[test]
    fn reserved_prefix_names_are_rejected() {
        let cluster = TestCluster::new(2);
        let mut c = cluster.client();
        c.put("ok", b"x").unwrap();
        assert!(c.create(".2pc.deadbeef").is_err());
        assert!(c.rename("ok", ".2pc.evil").is_err());
        assert!(c.link("ok", ".2pc.evil").is_err());
        drop(c);
        cluster.shutdown();
    }

    #[test]
    fn multi_threaded_workload_spreads_over_shards() {
        let cluster = TestCluster::new(4);
        let spec = JobSpec::small_files(64, 0.0).with_threads(4);
        let report = run_store_write_job(|_t| Ok(cluster.client()), &spec);
        assert_eq!(report.failures, 0);
        assert_eq!(report.files, 64);
        let per_shard: Vec<usize> = cluster
            .nodes
            .iter()
            .map(|n| n.fs.nova().file_count())
            .collect();
        assert_eq!(per_shard.iter().sum::<usize>(), 64);
        assert!(
            per_shard.iter().all(|&c| c > 0),
            "a shard got nothing: {per_shard:?}"
        );
        cluster.shutdown();
    }
}
