//! # intellog-serve — multi-tenant online serving
//!
//! The paper's detector consumes incoming logs (Fig. 2); this crate makes
//! that real as a service. One event loop, the gateway, owns every
//! connection and drives the data plane beside it: tenant-aware shard
//! workers, bounded queues, the model registry with hot reload, and the
//! consistent-hash session ring. Built on std-only primitives (no async
//! runtime — the vendored offline deps don't include one, and threads +
//! bounded queues are all this workload needs):
//!
//! * `gateway` (unix only) — the [`Gateway`]: one thread multiplexing
//!   nonblocking connections over a sweep that sleeps in `poll(2)`, routing
//!   each record to its shard in per-sweep line batches, with hot reload
//!   and live re-sharding; its poll core, connection framing and idle gate
//!   ([`IdleGate`]) are private to it;
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
//!   length) whose producers wait for room, so no line is shed, and
//!   `room()`, by which the gateway sizes its batches so that it never
//!   waits;
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
#[cfg(unix)]
mod gateway;
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
#[cfg(unix)]
pub use gateway::{Gateway, GatewayConfig, IdleGate, MAX_READ_BUFFER, MAX_WRITE_BUFFER};
pub use metrics::{ShardMetrics, ShardSnapshot, StatsSnapshot, TenantMetrics, TenantSnapshot};
pub use proto::{parse_log, render_log, DEFAULT_TENANT};
pub use queue::{Backpressure, ShardQueue};
pub use registry::{LoadOutcome, ModelLease, ModelVersion, TenantEntry, TenantRegistry};
pub use replay::{run_replay, ReplayConfig, ReplayOutcome};
pub use ring::{session_key, Ring, DEFAULT_VNODES};
pub use shard::{AckWaker, LineBatch, SessionState, ShardHandle, ShardMsg};
pub use sink::AnomalySink;
pub use store::{crc32, ModelStore, StoreError, MODEL_FORMAT_VERSION};
