//! # intellog-gateway — a re-export of `intellog-serve`'s gateway
//!
//! The event loop lives in `intellog-serve`, beside the data plane it
//! drives. This crate is kept only because `benchmark/Cargo.toml` and
//! `benchmark/src/workloads/serve.rs` name it; everything else imports
//! [`Gateway`] and [`GatewayConfig`] from `intellog_serve`.

#![cfg(unix)]
#![forbid(unsafe_code)]

pub use intellog_serve::{Gateway, GatewayConfig};
