//! # intellog-gateway — the event-driven connection front end
//!
//! One thread, many sockets: the gateway accepts line-framed protocol
//! connections on a nonblocking listener and multiplexes them over a
//! level-triggered sweep that sleeps in `poll(2)` when it finds nothing to
//! do ([`poll`]), feeding the `intellog-serve` data plane —
//! sharded stream-detector workers behind bounded queues, routed by a
//! consistent-hash session ring, serving models from a multi-tenant
//! registry with hot reload.
//!
//! Layering:
//!
//! * [`poll`] — nonblocking sockets, and `Poller::wait`, the `poll(2)`
//!   the loop sleeps in when a sweep found nothing to do; the only module
//!   in the crate allowed to touch sockets and descriptors (lint rule R5);
//! * [`conn`] — per-connection read/write buffers and cursor framing
//!   (borrowed lines, no copy between socket and parser);
//! * [`wake`] — the idle gate: how `LOAD` threads and shards (acks, queue
//!   room) end that sleep from outside, one byte on a wake descriptor
//!   behind a coalescing flag;
//! * [`server`] — the [`Gateway`] itself: verb dispatch, the per-record
//!   router filling per-sweep line batches, hot reload, live re-sharding
//!   (ADDSHARD / DRAINSHARD), drains.
//!
//! This replaces the old thread-per-connection server: connection count no
//! longer costs a thread apiece, and every blocking hand-off happens in
//! the data plane (bounded queues, TCP flow control) rather than on
//! connection threads.
//!
//! Unix only: the loop sleeps in `poll(2)` and is woken over a
//! `UnixStream` pair.

#![cfg(unix)]
#![forbid(unsafe_code)]

pub mod conn;
pub mod poll;
pub mod server;
pub mod wake;

pub use conn::{Conn, MAX_READ_BUFFER, MAX_WRITE_BUFFER};
pub use poll::{AcceptFailure, AcceptOutcome, Poller, ReadOutcome, Token, WriteOutcome};
pub use server::{Gateway, GatewayConfig};
pub use wake::IdleGate;
