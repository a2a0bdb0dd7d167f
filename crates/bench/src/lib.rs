//! # intellog-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6). Each
//! `src/bin/tableN.rs` / `src/bin/figureN.rs` binary prints the same rows /
//! series the paper reports. Timing lives in `benchmark/` (see
//! `BENCHMARK.json`); `bench_pipeline` adds only the two rows it lacks, and
//! `soak_gateway` is the serving chaos soak. Shared machinery:
//!
//! * [`corpus`] — the §6.1/§6.4 experimental protocol (training corpora,
//!   the 30-job fault-injection matrix, scoring);
//! * [`accuracy`] — the Table 4 extraction-accuracy evaluation against the
//!   simulator's template ground truth.

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod corpus;
pub mod keyseq;

pub use accuracy::{evaluate, AccuracyRow, FieldCounts};
pub use corpus::{
    intern_probes, prf, score_jobs, synthetic_keyset, table6_jobs, training_jobs,
    training_sessions, EvalJob, JobScore,
};
pub use keyseq::{intel_messages, match_keyseq, train_keyseqs, UNKNOWN_KEY};
