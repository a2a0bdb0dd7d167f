//! Differential test: online vs offline detection.
//!
//! The streaming detector (`StreamState::begin`/`feed`/`finish`) and the
//! offline batch path (`Detector::detect_session`) must produce the same
//! report for the same session — the online form only changes *when*
//! unexpected messages are surfaced, not *what* is detected. This sweeps
//! every simulated system crossed with every fault kind in `faults.rs`
//! (injected and latent alike), plus a clean job per system — six native
//! scenarios — and a seventh: an adapter-normalised foreign corpus
//! (syslog-rendered Spark, the lossiest header format) through the same
//! differential, covering the `--format` ingestion path.

use anomaly::StreamState;
use dlasim::{FaultKind, SystemKind, WorkloadGen};
use intellog_core::{sessions_from_job, sessions_from_text, IntelLog};
use lognlp::format::AdapterKind;

const ALL_SYSTEMS: [SystemKind; 6] = [
    SystemKind::Spark,
    SystemKind::MapReduce,
    SystemKind::Tez,
    SystemKind::Yarn,
    SystemKind::Nova,
    SystemKind::TensorFlow,
];

const ALL_FAULTS: [FaultKind; 5] = [
    FaultKind::SessionKill,
    FaultKind::NetworkFailure,
    FaultKind::NodeFailure,
    FaultKind::MemorySpill,
    FaultKind::Starvation,
];

#[test]
fn stream_and_offline_agree_on_every_system_and_fault() {
    for system in ALL_SYSTEMS {
        let mut gen = WorkloadGen::new(40 + system as u64, 8);
        let train: Vec<_> = (0..2)
            .flat_map(|_| sessions_from_job(&dlasim::generate(&gen.training_config(system), None)))
            .collect();
        let il = IntelLog::train(&train);
        let detector = il.detector();

        let mut faulted_jobs: Vec<(&str, dlasim::GenJob)> = Vec::new();
        for fault in ALL_FAULTS {
            let cfg = gen.detection_config(system, 1);
            let plan = gen.fault_plan(fault);
            faulted_jobs.push((fault.name(), dlasim::generate(&cfg, Some(&plan))));
        }
        // and one clean job — agreement must hold when nothing is wrong too
        faulted_jobs.push((
            "none",
            dlasim::generate(&gen.detection_config(system, 0), None),
        ));

        for (fault, job) in &faulted_jobs {
            for session in sessions_from_job(job) {
                let offline = detector.detect_session(&session);
                let mut stream = StreamState::begin(session.id.clone());
                for line in &session.lines {
                    stream.feed(detector, line);
                }
                let online = stream.finish(detector);
                assert_eq!(
                    offline,
                    online,
                    "online and offline reports diverge: system={} fault={fault} session={}",
                    system.name(),
                    session.id
                );
            }
        }
    }
}

/// Seventh scenario: the adapter-normalised foreign corpus. Training and
/// detection both run on sessions recovered from a syslog rendering of
/// Spark jobs (second-resolution timestamps — the lossiest of the
/// adapters), crossed with every fault kind. Stream-vs-offline agreement
/// must survive the `--format` ingestion path exactly as it does on the
/// structural path.
#[test]
fn stream_and_offline_agree_on_adapted_foreign_corpus() {
    let system = SystemKind::Spark;
    let format = AdapterKind::Syslog;
    let mut gen = WorkloadGen::new(40 + system as u64, 8);
    let train: Vec<_> = (0..2)
        .flat_map(|_| {
            let job = dlasim::generate(&gen.training_config(system), None);
            sessions_from_text(&job, format)
        })
        .collect();
    let il = IntelLog::train(&train);
    let detector = il.detector();

    let mut jobs: Vec<(&str, dlasim::GenJob)> = Vec::new();
    for fault in ALL_FAULTS {
        let cfg = gen.detection_config(system, 1);
        let plan = gen.fault_plan(fault);
        jobs.push((fault.name(), dlasim::generate(&cfg, Some(&plan))));
    }
    jobs.push((
        "none",
        dlasim::generate(&gen.detection_config(system, 0), None),
    ));

    for (fault, job) in &jobs {
        for session in sessions_from_text(job, format) {
            let offline = detector.detect_session(&session);
            let mut stream = StreamState::begin(session.id.clone());
            for line in &session.lines {
                stream.feed(detector, line);
            }
            let online = stream.finish(detector);
            assert_eq!(
                offline,
                online,
                "adapted corpus diverged: format={} fault={fault} session={}",
                format.name(),
                session.id
            );
        }
    }
}
