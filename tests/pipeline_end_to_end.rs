//! Cross-crate integration tests: the full pipeline from simulated raw log
//! text through Spell, extraction, HW-graph training, detection, diagnosis
//! and the baselines — on all three targeted systems.

use baselines::{DeepLog, LogCluster, S3Graph};
use intellog::anomaly::Anomaly;
use intellog::core::{sessions_from_job, sessions_from_text, IntelLog};
use intellog::dlasim::{self, FaultKind, SystemKind, WorkloadGen};
use intellog::lognlp::format::AdapterKind;
use intellog_bench::{intel_messages, train_keyseqs, training_sessions as corpus};

#[test]
fn all_three_systems_train_and_stay_clean_on_clean_jobs() {
    for system in SystemKind::ANALYTICS {
        let il = IntelLog::train(&corpus(system, 5, 42));
        let mut gen = WorkloadGen::new(4242, 8);
        let cfg = gen.training_config(system);
        let job = dlasim::generate(&cfg, None);
        let report = il.detect_job(&sessions_from_job(&job));
        let frac = report.problematic_count() as f64 / report.total_count().max(1) as f64;
        assert!(frac < 0.25, "{system:?}: clean job flagged at {frac}");
    }
}

#[test]
fn injected_faults_are_detected_on_all_systems() {
    for system in SystemKind::ANALYTICS {
        let il = IntelLog::train(&corpus(system, 5, 7));
        let mut gen = WorkloadGen::new(99, 8);
        for kind in FaultKind::INJECTED {
            let cfg = gen.detection_config(system, 2);
            let plan = gen.fault_plan(kind);
            let job = dlasim::generate(&cfg, Some(&plan));
            let report = il.detect_job(&sessions_from_job(&job));
            assert!(
                report.is_problematic(),
                "{system:?} fault {kind:?} not detected"
            );
        }
    }
}

#[test]
fn raw_text_path_matches_structural_path_for_mapreduce() {
    // The full-fidelity path (render to Hadoop log syntax, re-parse with
    // the adapter) trains an equivalent model.
    let mut gen = WorkloadGen::new(5, 6);
    let cfg = gen.training_config(SystemKind::MapReduce);
    let job = dlasim::generate(&cfg, None);
    let a = sessions_from_job(&job);
    let b = sessions_from_text(&job, AdapterKind::Hadoop);
    assert_eq!(a.len(), b.len());
    let ila = IntelLog::train(&a);
    let ilb = IntelLog::train(&b);
    assert_eq!(ila.detector().parser.len(), ilb.detector().parser.len());
    assert_eq!(ila.graph().groups.len(), ilb.graph().groups.len());
}

#[test]
fn spill_performance_issue_surfaces_spill_entity() {
    // Case study 2: jobs finish, but IntelLog reports the new 'spill'
    // entity and a disk path from the unexpected messages.
    let il = IntelLog::train(&corpus(SystemKind::Tez, 5, 13));
    let mut gen = WorkloadGen::new(31, 8);
    let cfg = gen.detection_config(SystemKind::Tez, 0);
    let plan = gen.fault_plan(FaultKind::MemorySpill);
    let job = dlasim::generate(&cfg, Some(&plan));
    let report = il.detect_job(&sessions_from_job(&job));
    assert!(report.is_problematic());
    let diag = il.diagnose(&report);
    assert!(
        diag.new_entities.iter().any(|e| e.contains("spill")),
        "{:?}",
        diag.new_entities
    );
    let has_path = report.anomalies().any(|a| match a {
        Anomaly::UnexpectedMessage { intel, .. } => {
            intel.localities.iter().any(|l| l.starts_with("/tmp/"))
        }
        _ => false,
    });
    assert!(has_path, "spill messages must record the disk path");
}

#[test]
fn starvation_bug_detected_as_missing_task_group() {
    // Case study 3 (Spark-19731): starved executors produce sessions with
    // no 'task' group messages.
    let il = IntelLog::train(&corpus(SystemKind::Spark, 6, 21));
    let mut gen = WorkloadGen::new(77, 8);
    let cfg = gen.detection_config(SystemKind::Spark, 3);
    let plan = gen.fault_plan(FaultKind::Starvation);
    let job = dlasim::generate(&cfg, Some(&plan));
    let report = il.detect_job(&sessions_from_job(&job));
    // starved sessions miss the task-family groups (stage/tid) and the
    // critical keys of the 'task' group — the Spark-19731 signature
    let missing_task = report.anomalies().any(|a| match a {
        Anomaly::MissingGroup { group } => {
            group.contains("task") || group == "stage" || group == "tid"
        }
        Anomaly::MissingCriticalKey { group, .. } => group.contains("task"),
        _ => false,
    });
    assert!(missing_task, "{:?}", report.anomalies().collect::<Vec<_>>());
}

#[test]
fn baselines_run_on_the_same_corpus() {
    // Train all three baselines from the same Spell key stream.
    let sessions = corpus(SystemKind::Spark, 3, 3);
    let (parser, key_sessions) = train_keyseqs(&sessions);

    let mut dl = DeepLog::default();
    key_sessions.iter().for_each(|s| dl.train_session(s));
    // DeepLog's mechanism: corrupting a sequence can only increase misses.
    let clean_misses = dl.count_misses(&key_sessions[0]);
    let mut corrupted = key_sessions[0].clone();
    for k in corrupted.iter_mut().step_by(3) {
        *k = intellog::spell::KeyId(9999);
    }
    assert!(dl.count_misses(&corrupted) > clean_misses);

    let lc = LogCluster::train(Default::default(), &key_sessions);
    assert!(!lc.is_anomalous(&key_sessions[0]));
    assert!(lc.cluster_count() >= 1);

    // Stitch S3 over Intel Messages.
    let s3 = S3Graph::build(&intel_messages(&parser, &sessions));
    assert!(!s3.types.is_empty());
    // the S3 graph carries identifier types but no entity semantics —
    // that's the Fig. 9 contrast
    assert!(
        s3.types.iter().any(|t| t == "TASK" || t == "TID"),
        "{:?}",
        s3.types
    );
}

#[test]
fn hwgraph_json_roundtrip_through_files() {
    let il = IntelLog::train(&corpus(SystemKind::Tez, 3, 9));
    let json = il.graph_json();
    let back = intellog::hwgraph::HwGraph::from_json(&json).unwrap();
    assert_eq!(il.graph(), &back);
}
