//! Table 7 — the three diagnosis case studies (§6.4).
//!
//! Case 1: a MapReduce WordCount job with a network problem on one host —
//! the GroupBy procedure converges on the victim.
//! Case 2: Spark KMeans and Tez Query 8 with a performance issue (memory
//! spill) — a new 'spill' entity and a disk path surface; re-running with a
//! larger memory limit is clean.
//! Case 3: a Spark WordCount job hitting the Spark-19731 starvation bug —
//! sessions missing the 'task' entity group.
//!
//! Run with: `cargo run --release -p intellog-bench --bin table7`

use dlasim::{FaultKind, FaultPlan, JobConfig, SystemKind};
use intellog_bench::training_sessions;
use intellog_core::{sessions_from_job, IntelLog};

fn cfg(
    system: SystemKind,
    workload: &str,
    input_gb: u32,
    mem_mb: u32,
    cores: u32,
    seed: u64,
) -> JobConfig {
    JobConfig {
        system,
        workload: workload.into(),
        input_gb,
        mem_mb,
        cores,
        executors: 4,
        hosts: 10,
        seed,
    }
}

fn main() {
    println!("Table 7: case studies\n");

    // ---------- Case 1: MapReduce WordCount, network problem ----------
    let il_mr = IntelLog::train(&training_sessions(SystemKind::MapReduce, 20, 301));
    let c1 = cfg(SystemKind::MapReduce, "wordcount", 30, 4096, 8, 777);
    let plan = FaultPlan::new(FaultKind::NetworkFailure, 0.3, 4, 0);
    let job = dlasim::generate(&c1, Some(&plan));
    let sessions = sessions_from_job(&job);
    let report = il_mr.detect_job(&sessions);
    let diag = il_mr.diagnose(&report);
    println!(
        "case 1  MapReduce/WordCount 30GB 8-core: sessions D/T = {}/{}",
        report.problematic_count(),
        report.total_count()
    );
    println!(
        "        GroupBy identifiers: {} groups; GroupBy locality:",
        diag.identifier_groups
    );
    for (h, n) in diag.hosts.iter().take(3) {
        println!("          {h}: {n} failing messages");
    }
    println!("        => network problem on a host (paper: 4/259, 11 fetcher groups, one host)\n");

    // ---------- Case 2.1: Spark KMeans performance issue ----------
    let il_sp = IntelLog::train(&training_sessions(SystemKind::Spark, 20, 302));
    let c21 = cfg(SystemKind::Spark, "kmeans", 30, 2048, 8, 778);
    let plan = FaultPlan::new(FaultKind::MemorySpill, 0.0, 0, 0);
    let job = dlasim::generate(&c21, Some(&plan));
    let report = il_sp.detect_job(&sessions_from_job(&job));
    let diag = il_sp.diagnose(&report);
    println!(
        "case 2.1 Spark/KMeans 30GB 2GB-mem: sessions D/T = {}/{}",
        report.problematic_count(),
        report.total_count()
    );
    println!(
        "        new entities in unexpected messages: {:?}",
        diag.new_entities
    );

    // ---------- Case 2.2: Tez Query 8 performance issue (3 jobs) ----------
    let il_tz = IntelLog::train(&training_sessions(SystemKind::Tez, 20, 303));
    let (mut d, mut t) = (0, 0);
    let mut new_entities = Vec::new();
    let mut spill_paths = 0usize;
    for k in 0..3 {
        let c22 = cfg(SystemKind::Tez, "query8", 5, 1024, 1, 800 + k);
        let plan = FaultPlan::new(FaultKind::MemorySpill, 0.0, 0, 0);
        let job = dlasim::generate(&c22, Some(&plan));
        let report = il_tz.detect_job(&sessions_from_job(&job));
        d += report.problematic_count();
        t += report.total_count();
        let diag = il_tz.diagnose(&report);
        new_entities.extend(diag.new_entities);
        for a in report.anomalies() {
            if let anomaly::Anomaly::UnexpectedRepeats {
                template, count, ..
            } = a
            {
                println!("        unexpected repeats: {template} × {count}");
            }
        }
        spill_paths += report
            .anomalies()
            .filter_map(|a| match a {
                anomaly::Anomaly::UnexpectedMessage { intel, .. } => Some(
                    intel
                        .localities
                        .iter()
                        .filter(|l| l.starts_with('/'))
                        .count(),
                ),
                _ => None,
            })
            .sum::<usize>();
    }
    new_entities.sort();
    new_entities.dedup();
    println!("case 2.2 Tez/Query8 5GB 1GB-mem x3: sessions D/T = {d}/{t}");
    println!(
        "        new entities: {new_entities:?}; disk paths recorded in {spill_paths} messages"
    );

    // Verification run: same jobs with a larger memory limit are clean.
    let c_verify = cfg(SystemKind::Spark, "kmeans", 30, 8192, 8, 778);
    let job = dlasim::generate(&c_verify, None);
    let report = il_sp.detect_job(&sessions_from_job(&job));
    println!(
        "        re-run with larger memory: D/T = {}/{} (paper: no problem triggered)\n",
        report.problematic_count(),
        report.total_count()
    );

    // ---------- Case 3: Spark-19731 starvation bug ----------
    let c3 = cfg(SystemKind::Spark, "wordcount", 30, 16384, 8, 779);
    let plan = FaultPlan::new(FaultKind::Starvation, 0.0, 0, 0);
    let job = dlasim::generate(&c3, Some(&plan));
    let sessions = sessions_from_job(&job);
    let report = il_sp.detect_job(&sessions);
    let missing_task = report
        .sessions
        .iter()
        .filter(|s| {
            s.anomalies.iter().any(|a| match a {
                anomaly::Anomaly::MissingGroup { group } => {
                    group.contains("task") || group == "stage" || group == "tid"
                }
                anomaly::Anomaly::MissingCriticalKey { group, .. } => group.contains("task"),
                _ => false,
            })
        })
        .count();
    println!(
        "case 3  Spark/WordCount starvation bug: sessions D/T = {}/{}",
        report.problematic_count(),
        report.total_count()
    );
    println!(
        "        {missing_task} sessions contain no message of the 'task' entity group (paper: 4 of 8)"
    );
    // Inspect the HW-graph instances of the healthy sessions (the paper
    // counts at most 8 task subroutine instances per container).
    let max_task_instances = sessions
        .iter()
        .map(|s| {
            il_sp
                .detector()
                .detect_session_detailed(s)
                .1
                .subroutine_instance_count("task")
        })
        .max()
        .unwrap_or(0);
    println!(
        "        healthy sessions hold at most {max_task_instances} task subroutine instances (paper: at most 8)"
    );
    println!("        => containers without tasks waste memory (Spark-19731)");
}
