//! # baselines — the comparison systems of the paper's evaluation
//!
//! * [`stitch`] — Stitch's identifier-only S³ graph (OSDI'16), used for the
//!   Fig. 9 workflow comparison;
//! * [`deeplog`] — DeepLog's next-log-key detection mechanism (CCS'17),
//!   realised as an order-h n-gram predictor with top-g acceptance
//!   (substitution documented in DESIGN.md §1);
//! * [`logcluster`] — LogCluster's knowledge-base sequence clustering
//!   (ICSE'16);
//! * [`semvec`] — a parsing-free semantic-vector detector in the NeuralLog
//!   direction (ASE'21), consuming raw lines with no parser in front.
//!
//! The first three consume the same key sequences / Intel Message streams
//! as the IntelLog pipeline, so the Table 8 comparison runs on identical
//! inputs; `semvec` deliberately consumes the raw lines instead — that is
//! its thesis.

#![forbid(unsafe_code)]

pub mod deeplog;
pub mod logcluster;
pub mod semvec;
pub mod stitch;

pub use deeplog::DeepLog;
pub use logcluster::LogCluster;
pub use semvec::SemVec;
pub use stitch::{S3Graph, S3Rel};
