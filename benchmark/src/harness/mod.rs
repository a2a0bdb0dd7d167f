//! Measurement machinery shared by the workloads.

pub mod loadgen;
pub mod stats;
pub mod trace;
