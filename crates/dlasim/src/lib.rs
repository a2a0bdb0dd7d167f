//! # dlasim — simulated distributed data analytics cluster
//!
//! A log-producing model of the paper's 27-node YARN testbed (DESIGN.md §1):
//! Spark, Hadoop MapReduce and Tez+Hive jobs, plus YARN and nova-compute
//! streams for the Table 1 census. Each emitted line carries its template
//! id, and [`mod@catalog`] records the human ground truth per template —
//! entities, field categories and operations — replacing the paper's manual
//! source-code inspection for the Table 4 accuracy evaluation.
//!
//! * [`types`] — sessions, jobs, raw log rendering;
//! * [`emit`] — deterministic clocks, jitter and concurrent interleaving;
//! * [`workload`] — HiBench-/TPC-H-style workload and configuration
//!   generation (§6.1), the five §6.4 config sets;
//! * [`faults`] — the §6.4 problem-injection tool (kill / network / node)
//!   plus the spill and starvation anomalies of the case studies;
//! * [`spark`] / [`mapreduce`] / [`tez`] / [`yarn`] / [`nova`] /
//!   [`tensorflow`] — the system models and their truth catalogs;
//! * [`foreign`] — HDFS/BGL, RFC-3164 syslog and JSON-line renderings of
//!   any generated session, for exercising the `lognlp::format` adapters
//!   against corpora with known ground truth.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod emit;
pub mod faults;
pub mod foreign;
pub mod mapreduce;
pub mod nova;
mod rng;
pub mod spark;
pub mod tensorflow;
pub mod tez;
pub mod types;
pub mod workload;
pub mod yarn;

pub use catalog::{catalog, truth_of, Truth};
pub use emit::Emitter;
pub use faults::{FaultKind, FaultPlan};
pub use foreign::ForeignFormat;
pub use types::{GenJob, GenSession, RawFormat, SimLevel, SimLine, SystemKind};
pub use workload::{
    generate, JobConfig, WorkloadGen, CONFIG_SETS, HIBENCH_JOBS, TF_MODELS, TPCH_QUERIES,
};
