//! # intellog-gateway — the event-driven connection front end
//!
//! One thread, many sockets: the gateway accepts line-framed protocol
//! connections on a nonblocking listener and multiplexes them over a
//! readiness sweep ([`poll`]), feeding the `intellog-serve` data plane —
//! sharded stream-detector workers behind bounded queues, routed by a
//! consistent-hash session ring, serving models from a multi-tenant
//! registry with hot reload.
//!
//! Layering:
//!
//! * [`poll`] — nonblocking sockets and the readiness sweep; the only
//!   module in the crate allowed to touch `std::net` (lint rule R5);
//! * [`conn`] — per-connection read/write buffers and cursor framing
//!   (borrowed lines, no copy between socket and parser);
//! * [`wake`] — the idle gate background threads and shard acks use to
//!   unpark the loop;
//! * [`server`] — the [`Gateway`] itself: verb dispatch, the per-record
//!   router filling per-sweep line batches, hot reload, live re-sharding
//!   (ADDSHARD / DRAINSHARD), drains.
//!
//! This replaces the old thread-per-connection server: connection count no
//! longer costs a thread apiece, and every blocking hand-off happens in
//! the data plane (bounded queues, TCP flow control) rather than on
//! connection threads.

#![forbid(unsafe_code)]

pub mod conn;
pub mod poll;
pub mod server;
pub mod wake;

pub use conn::{Conn, MAX_READ_BUFFER, MAX_WRITE_BUFFER};
pub use poll::{Poller, ReadOutcome, Token, WriteOutcome};
pub use server::{Gateway, GatewayConfig};
pub use wake::IdleGate;
