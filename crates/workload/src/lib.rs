//! fio-like workload generation and measurement.
//!
//! The paper drives every experiment with fio-generated synthetic workloads:
//! "two sets of synthetic workloads … small files and large files. We also
//! used the fio benchmark to control the duplicate ratio in the workload"
//! (Section V-A). This crate reproduces those workloads deterministically:
//!
//! * [`spec`] — job descriptions (file size/count, duplicate ratio α,
//!   threads, think time);
//! * [`data`] — a seeded generator that emits 4 KB pages with an *exact*
//!   page-level duplicate ratio;
//! * [`runner`] — executes jobs against a [`denova::Denova`] mount and
//!   measures throughput and latency;
//! * [`remote`] — executes the same jobs through the `denova-svc` wire
//!   protocol, N client threads each on their own connection;
//! * [`stats`] — CDF/percentile helpers for the Fig. 10 lingering-time plot.

#![warn(missing_docs)]

pub mod data;
pub mod remote;
pub mod runner;
pub mod spec;
pub mod stats;

pub use data::DataGenerator;
pub use remote::{
    run_remote_write_job, run_remote_write_job_tcp, run_store_write_job, RemoteReport, RemoteStore,
};
pub use runner::{run_read_job, run_write_job, ReadReport, WriteReport};
pub use spec::{JobSpec, ThinkTime, WriteKind};
pub use stats::{cdf_points, mean, percentile, Summary};
