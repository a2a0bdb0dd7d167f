//! Synchronization facade for the IntelLog workspace.
//!
//! Every crate in the workspace takes its `Mutex`, `RwLock`, `Condvar`,
//! atomics, channels and threads from here instead of `std::sync` /
//! `std::thread` (enforced by `scripts/lint_invariants.py`), and its one
//! parallel map, [`par_map`], too: training's per-key and per-session maps
//! and detection's per-session map run on it.
//! The facade has three personalities, chosen at compile time:
//!
//! * **release** — a zero-cost passthrough. Types are thin newtypes over
//!   the std primitives (or straight re-exports) and every method inlines
//!   to the std call.
//! * **debug** (`debug_assertions`) — adds the [`mod@order`] lock-order
//!   deadlock detector: a global lock-acquisition-order graph; creating a
//!   cycle panics immediately with both acquisition sites, turning a
//!   maybe-someday deadlock into a deterministic test failure.
//! * **model checking** (`--cfg intellog_check`) — routes every
//!   synchronization operation through the [`check`] scheduler, which owns
//!   all interleaving decisions and can explore schedules exhaustively
//!   (bounded DFS) or probabilistically (seeded uniform + PCT), replaying
//!   any failure byte-identically from its recorded schedule. Code outside
//!   a [`check::explore`] closure still runs on the std fallback, so the
//!   regular test suite passes under the cfg too.
//!
//! One more thing lives here because it, too, is a way to block: [`poll`],
//! the safe wrapper over `poll(2)` the gateway's event loop sleeps in. It
//! is the workspace's only FFI and its only `unsafe`, which is why this
//! crate root — alone among the workspace's — says `deny(unsafe_code)`
//! where the others say `forbid`: `forbid` cannot be lifted for one module,
//! `deny` can, and the single `allow` below is that module's (lint rule R3
//! counts them).
//!
//! See DESIGN.md §11 for the scheduler design and replay workflow, §12 for
//! what sleeps in `poll`.

#![deny(unsafe_code)]

pub mod atomic;
pub mod mpsc;
mod par;
#[cfg(unix)]
#[allow(unsafe_code)]
pub mod poll;
pub mod thread;

pub use par::par_map;

#[cfg(any(debug_assertions, intellog_check))]
pub(crate) mod order;

#[cfg(intellog_check)]
pub mod check;

mod facade;

pub use facade::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

// Handle types with no synchronization *operations* of their own (their
// effects are memory reclamation, not blocking) pass straight through.
pub use std::sync::{Arc, OnceLock, Weak};
