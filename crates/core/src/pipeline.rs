//! The end-to-end IntelLog pipeline (paper Fig. 2).
//!
//! [`IntelLog`] wraps training (Spell → Intel Keys → HW-graph) and
//! detection behind one API, and parallelises the embarrassingly-parallel
//! per-session detection with [`sync::par_map`].

use anomaly::{diagnose, Detector, Diagnosis, JobReport, SessionReport, Trainer};
use hwgraph::HwGraph;
use spell::Session;

/// A trained IntelLog instance.
#[derive(Debug, Clone)]
pub struct IntelLog {
    detector: Detector,
}

impl IntelLog {
    /// Train on normal-execution sessions with the paper's defaults
    /// ([`Trainer::default`]; set its two fields and wrap the result with
    /// [`IntelLog::from_detector`] to change them). Training runs on every
    /// available CPU (Spell is one sequential stream, the per-key and
    /// per-session stages are parallel; see [`Trainer::train`]) and is
    /// bit-identical to [`IntelLog::train_sequential`].
    pub fn train(sessions: &[Session]) -> IntelLog {
        IntelLog::from_detector(Trainer::default().train(sessions))
    }

    /// Single-threaded reference training — the baseline the scaling
    /// benchmarks compare [`IntelLog::train`] against.
    pub fn train_sequential(sessions: &[Session]) -> IntelLog {
        IntelLog::from_detector(Trainer::default().train_sequential(sessions))
    }

    /// Wrap an already-trained detector (e.g. one loaded from the model
    /// store) in the pipeline API.
    pub fn from_detector(detector: Detector) -> IntelLog {
        IntelLog { detector }
    }

    /// The trained detector (Spell keys, Intel Keys, HW-graph).
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// The trained HW-graph.
    pub fn graph(&self) -> &HwGraph {
        &self.detector.graph
    }

    /// Detect anomalies in one session.
    pub fn detect_session(&self, session: &Session) -> SessionReport {
        self.detector.detect_session(session)
    }

    /// Detect anomalies in a job — sessions are processed in parallel with
    /// [`sync::par_map`] (each session is independent; the detector is
    /// shared read-only).
    pub fn detect_job(&self, sessions: &[Session]) -> JobReport {
        let _span = obs::span!("pipeline.detect_job");
        JobReport {
            sessions: sync::par_map(sessions, |s| self.detector.detect_session(s)),
        }
    }

    /// Genuinely sequential detection: a plain in-order loop over the
    /// sessions on the calling thread, spawning no threads. This is the
    /// single-thread baseline the scaling
    /// benchmarks compare [`IntelLog::detect_job`] against; `detect_job`
    /// must produce the identical [`JobReport`] (asserted in
    /// `crates/core/tests/equivalence.rs` and in this module's tests).
    pub fn detect_job_sequential(&self, sessions: &[Session]) -> JobReport {
        // `Detector::detect_job` is the sequential implementation.
        self.detector.detect_job(sessions)
    }

    /// Run the case-study diagnosis procedure over a report.
    pub fn diagnose(&self, report: &JobReport) -> Diagnosis {
        let entities: Vec<String> = self
            .detector
            .graph
            .groups
            .iter()
            .flat_map(|g| g.entities.iter().cloned())
            .collect();
        diagnose(report, &entities)
    }

    /// Serialise the trained HW-graph to JSON (paper §5).
    pub fn graph_json(&self) -> String {
        self.detector.graph.to_json()
    }

    /// Render the HW-graph as a Fig. 8-style text tree.
    pub fn render_graph(&self) -> String {
        self.detector.graph.render_text(&self.detector.keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::sessions_from_job;
    use dlasim::{FaultKind, JobConfig, SystemKind, WorkloadGen};

    fn train_sessions(system: SystemKind, jobs: usize) -> Vec<Session> {
        let mut gen = WorkloadGen::new(42, 8);
        let mut out = Vec::new();
        for j in 0..jobs {
            let cfg = gen.training_config(system);
            let job = dlasim::generate(&cfg, None);
            for (i, s) in sessions_from_job(&job).into_iter().enumerate() {
                let mut s = s;
                s.id = format!("train{j}_{i}_{}", s.id);
                out.push(s);
            }
        }
        out
    }

    #[test]
    fn train_and_detect_clean_spark_job() {
        let il = IntelLog::train(&train_sessions(SystemKind::Spark, 4));
        let mut gen = WorkloadGen::new(99, 8);
        let cfg = gen.training_config(SystemKind::Spark);
        let job = dlasim::generate(&cfg, None);
        let report = il.detect_job(&sessions_from_job(&job));
        let frac = report.problematic_count() as f64 / report.total_count() as f64;
        assert!(frac < 0.3, "clean job should be mostly clean: {frac}");
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let il = IntelLog::train(&train_sessions(SystemKind::MapReduce, 2));
        let mut gen = WorkloadGen::new(7, 8);
        let cfg = gen.detection_config(SystemKind::MapReduce, 1);
        let plan = gen.fault_plan(FaultKind::NetworkFailure);
        let job = dlasim::generate(&cfg, Some(&plan));
        let sessions = sessions_from_job(&job);
        let par = il.detect_job(&sessions);
        let seq = il.detect_job_sequential(&sessions);
        assert_eq!(par, seq);
        assert!(par.is_problematic());
    }

    #[test]
    fn network_fault_is_diagnosed_to_victim_host() {
        let il = IntelLog::train(&train_sessions(SystemKind::MapReduce, 3));
        let cfg = JobConfig {
            system: SystemKind::MapReduce,
            workload: "wordcount".into(),
            input_gb: 8,
            mem_mb: 2048,
            cores: 4,
            executors: 3,
            hosts: 8,
            seed: 1234,
        };
        let plan = dlasim::FaultPlan::new(FaultKind::NetworkFailure, 0.2, 3, 0);
        let job = dlasim::generate(&cfg, Some(&plan));
        let report = il.detect_job(&sessions_from_job(&job));
        assert!(report.is_problematic());
        let diag = il.diagnose(&report);
        assert!(!diag.hosts.is_empty(), "{diag:?}");
        // assert the victim carries the top anomaly count rather than that
        // it sorts first — rank 0 also encodes the alphabetical tie-break
        let top = diag.hosts[0].1;
        let victim = diag.hosts.iter().find(|(h, _)| h == "worker4");
        assert_eq!(
            victim.map(|(_, c)| *c),
            Some(top),
            "victim worker4 not a top-implicated host: {:?}",
            diag.hosts
        );
    }

    #[test]
    fn graph_render_and_json() {
        let il = IntelLog::train(&train_sessions(SystemKind::Spark, 3));
        let txt = il.render_graph();
        assert!(txt.contains("task"), "{txt}");
        let json = il.graph_json();
        assert!(json.contains("\"groups\""));
    }
}
