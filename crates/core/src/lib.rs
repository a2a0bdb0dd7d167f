//! # intellog-core — the assembled IntelLog pipeline
//!
//! Ties the substrates together behind one API (paper Fig. 2):
//!
//! * [`pipeline`] — [`IntelLog`]: train on normal sessions, detect anomalies
//!   (parallel across sessions through `sync::par_map_ordered`), diagnose,
//!   export HW-graphs;
//! * [`bridge`] — conversions between the simulated cluster (`dlasim`) and
//!   the log-session types the pipeline consumes, both structural and
//!   through raw log text + the `lognlp::format` adapters, and the one
//!   simulated training corpus ([`training_sessions`]).

#![forbid(unsafe_code)]

pub mod bridge;
pub mod pipeline;

pub use bridge::{
    level_of_raw, render_session, session_from_gen, sessions_from_job, sessions_from_text,
    training_jobs, training_sessions,
};
pub use pipeline::IntelLog;
