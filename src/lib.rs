//! Umbrella crate for the DeNova reproduction.
//!
//! Re-exports the whole stack so examples and integration tests can depend
//! on one crate:
//!
//! * [`pmem`] — emulated persistent-memory device (cache-line persistence
//!   tracking, crash simulation, Table-I latency profiles);
//! * [`fingerprint`] — SHA-1 / weak fingerprints / 4 KB chunking;
//! * [`nova`] — the NOVA-like log-structured file system;
//! * [`denova`] — FACT, DWQ, daemon, dedup transaction, recovery: the
//!   paper's contribution;
//! * [`workload`] — fio-like workload generation and measurement;
//! * [`svc`] — the multi-client file service: wire protocol, sharded worker
//!   pool, TCP and loopback transports;
//! * [`reactor`] — the event-driven I/O runtime under the TCP service:
//!   epoll event loops, eventfd wakeups, per-connection frame machines;
//! * [`repl`] — crash-consistent snapshots and log-shipping replication
//!   with standby failover;
//! * [`cluster`] — sharded multi-primary namespace service: versioned
//!   cluster map, owner-direct routing, per-shard replication, rebalancing,
//!   and two-phase cross-shard rename/link;
//! * [`telemetry`] — the shared metrics registry (counters, histograms,
//!   spans, events) every layer above records into.
//!
//! ```
//! use denova_repro::prelude::*;
//! use std::sync::Arc;
//!
//! let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
//! let fs = Denova::mkfs(dev, NovaOptions::default(), DedupMode::Immediate).unwrap();
//! let a = fs.create("a.dat").unwrap();
//! let b = fs.create("b.dat").unwrap();
//! let data = vec![42u8; 4096];
//! fs.write(a, 0, &data).unwrap();
//! fs.write(b, 0, &data).unwrap();
//! fs.drain();
//! assert_eq!(fs.bytes_saved(), 4096);
//! ```

#![warn(missing_docs)]

pub use denova;
pub use denova_cluster as cluster;
pub use denova_fingerprint as fingerprint;
pub use denova_nova as nova;
pub use denova_pmem as pmem;
pub use denova_reactor as reactor;
pub use denova_repl as repl;
pub use denova_svc as svc;
pub use denova_telemetry as telemetry;
pub use denova_workload as workload;

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use denova::{
        Daemon, DaemonConfig, DaemonMode, DedupMode, DedupStats, Denova, DenovaHooks, Dwq, Fact,
        FpThrottle, NvDedupTable,
    };
    pub use denova_cluster::{ClusterClient, ClusterMap, ClusterNode, TestCluster};
    pub use denova_fingerprint::{chunk_pages, sha1, weak_fingerprint, Fingerprint};
    pub use denova_nova::{fsck, DedupeFlag, FileStat, Nova, NovaError, NovaOptions, BLOCK_SIZE};
    pub use denova_pmem::{CrashMode, LatencyProfile, PmemBuilder, PmemDevice, SimulatedCrash};
    pub use denova_repl::{ReplConfig, ReplPrimary, Standby, StandbyConfig, StandbyExit};
    pub use denova_svc::{Client, ReplRole, Server, SvcConfig, SvcError};
    pub use denova_telemetry::{MetricsRegistry, TelemetrySnapshot};
    pub use denova_workload::{DataGenerator, JobSpec, ThinkTime, WriteKind};
}
