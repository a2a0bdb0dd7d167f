//! # intellog-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6): the
//! `repro` binary prints, per experiment name, the same rows / series the
//! paper reports. Timing lives in `benchmark/` (see `BENCHMARK.json`);
//! `bench_pipeline` adds only the two rows it lacks, and `soak_gateway` is
//! the serving chaos soak. Shared machinery:
//!
//! * [`corpus`] — the §6.4 experimental protocol (the 30-job
//!   fault-injection matrix; training corpora are
//!   `intellog_core::training_jobs`);
//! * [`detector`] — one [`SessionDetector`] seam over IntelLog and the
//!   baselines, [`score`], the one routine behind Tables 6 and 8, and
//!   [`table6_row`], the Table 6 row `repro` prints and a golden pins;
//! * [`accuracy`] — the Table 4 extraction-accuracy evaluation against the
//!   simulator's template ground truth.

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod corpus;
pub mod detector;
pub mod keyseq;

pub use accuracy::{evaluate, AccuracyRow, FieldCounts};
pub use corpus::{intern_probes, synthetic_keyset, table6_jobs, EvalJob, JobScore};
pub use detector::{
    score, table6_row, Confusion, IntelLogTool, KeySeqTool, SemVecTool, SessionDetector,
};
pub use keyseq::{intel_messages, match_keyseq, train_keyseqs, UNKNOWN_KEY};
