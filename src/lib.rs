//! # IntelLog — semantic-aware workflow construction and analysis
//!
//! Umbrella crate of the IntelLog reproduction (Pi, Chen, Wang, Zhou,
//! HPDC 2019): re-exports every pipeline crate under one name and hosts the
//! runnable examples, the cross-crate integration tests and the `intellog`
//! CLI binary.
//!
//! ## Pipeline at a glance (paper Fig. 2)
//!
//! ```text
//! raw log files ──formatters──▶ Sessions (one per YARN container)
//!   Sessions ──[spell]──▶ log keys ("* freed by fetcher # * in *")
//!   log keys ──[lognlp + extract]──▶ Intel Keys (entities, identifiers,
//!                                    values, localities, operations)
//!   Intel Messages ──[hwgraph]──▶ HW-graph (entity groups, subroutines,
//!                                 hierarchy, session profiles)
//!   incoming sessions ──[anomaly]──▶ reports (unexpected messages,
//!                                    erroneous HW-graph instances) + diagnosis
//! ```
//!
//! Start with [`core::IntelLog`] for the end-to-end API:
//!
//! ```
//! use intellog::core::{sessions_from_job, IntelLog};
//! use intellog::dlasim::{self, SystemKind, WorkloadGen};
//!
//! // Train on (simulated) clean Spark runs…
//! let mut gen = WorkloadGen::new(7, 8);
//! let cfg = gen.training_config(SystemKind::Spark);
//! let sessions = sessions_from_job(&dlasim::generate(&cfg, None));
//! let il = IntelLog::train(&sessions);
//! // …and detect anomalies in new sessions (in parallel).
//! let report = il.detect_job(&sessions);
//! assert_eq!(report.total_count(), sessions.len());
//! ```

pub use anomaly;
pub use dlasim;
pub use extract;
pub use hwgraph;
pub use intellog_core as core;
pub use intellog_serve as serve;
pub use lognlp;
pub use spell;
