//! # anomaly — IntelLog training, detection and diagnosis (paper §4.2, §6.4)
//!
//! * [`train`] — the training pipeline (Spell → Intel Keys → HW-graph →
//!   [`Detector`]);
//! * [`detector`] — HW-graph-instance reconstruction over incoming sessions,
//!   reporting *unexpected log messages* and *erroneous HW-graph instances*;
//! * [`report`] — the typed anomaly taxonomy and per-session / per-job
//!   reports;
//! * [`diagnose`] — the GroupBy-based diagnosis workflow of the paper's
//!   case studies.

#![forbid(unsafe_code)]

pub mod detector;
pub mod diagnose;
pub mod instance;
pub mod report;
pub mod stream;
pub mod train;

pub use detector::Detector;
pub use diagnose::{diagnose, Diagnosis};
pub use instance::{GroupInstance, HwInstance};
pub use report::{Anomaly, JobReport, SessionReport};
pub use stream::StreamState;
pub use train::Trainer;
