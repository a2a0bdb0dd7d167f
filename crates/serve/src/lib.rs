//! # intellog-serve — the multi-tenant online serving data plane
//!
//! The paper's detector consumes incoming logs (Fig. 2); this crate holds
//! the data plane that makes that real as a service: tenant-aware shard
//! workers, bounded queues, the model registry with hot reload, and the
//! consistent-hash session ring. The connection front end — the
//! event-driven nonblocking socket loop — lives in `crates/gateway` and
//! drives everything here. Built on std-only primitives (no async runtime
//! — the vendored offline deps don't include one, and threads + bounded
//! queues are all this workload needs):
//!
//! * [`proto`] — the line-framed tab-separated wire protocol (the
//!   gateway's borrowed `LOG` parser, its owning wrapper and the render
//!   half shared by client and replay);
//! * [`shard`] — per-shard workers owning their sessions' movable
//!   [`anomaly::StreamState`]s, fed per-sweep [`LineBatch`]es through one
//!   per-record body, with idle-timeout eviction and snapshot/restore so
//!   sessions survive live re-sharding;
//! * [`registry`] — the tenant → model-version table: sessions pin their
//!   version at open, `LOAD` swaps atomically, old versions drain;
//! * [`ring`] — consistent-hash (virtual-node) session→shard routing that
//!   moves only ~K/N sessions when a shard is added or drained;
//! * [`queue`] — bounded queues counting *lines* (a batch weighs its
//!   length) with `block` / `drop-newest` / `drop-oldest` backpressure,
//!   drop counters, and `room()`, by which an event-loop producer sizes
//!   its batches so that it never waits;
//! * [`sink`] — where completed session reports land: a tenant-tagged
//!   bounded in-memory ring plus an optional JSONL file;
//! * [`metrics`] — wait-free per-shard and per-tenant counters and a
//!   fixed-bucket feed latency histogram (p50/p99);
//! * [`store`] — the versioned on-disk model store (format-version header
//!   and CRC-32, refusing corrupt or mismatched models) shared with the
//!   batch `train`/`detect` CLI;
//! * [`client`] / [`replay`] — the protocol client and the dlasim load
//!   generator (now multi-connection) that verifies online verdicts equal
//!   offline detection.

#![forbid(unsafe_code)]

pub mod client;
pub mod metrics;
pub mod proto;
pub mod queue;
pub mod registry;
pub mod replay;
pub mod ring;
pub mod shard;
pub mod sink;
pub mod store;

pub use client::ServeClient;
pub use metrics::{ShardMetrics, ShardSnapshot, StatsSnapshot, TenantMetrics, TenantSnapshot};
pub use proto::{parse_log, parse_log_ref, render_log, LogRef, DEFAULT_TENANT};
pub use queue::{Backpressure, PushOutcome, ShardQueue};
pub use registry::{LoadOutcome, ModelLease, ModelVersion, TenantEntry, TenantRegistry};
pub use replay::{generate_jobs, run_replay, ReplayConfig, ReplayOutcome};
pub use ring::{session_key, session_of, write_session_key, Ring, DEFAULT_VNODES};
pub use shard::{AckWaker, LineBatch, SessionState, ShardHandle, ShardMsg};
pub use sink::AnomalySink;
pub use store::{crc32, ModelStore, StoreError, MODEL_FORMAT_VERSION};
