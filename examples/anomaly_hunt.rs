//! End-to-end anomaly hunt: the paper's case study 1 (§6.4).
//!
//! A MapReduce WordCount job suffers a network failure on one host.
//! IntelLog, trained on clean runs, flags the problematic sessions, lifts
//! the unexpected messages into Intel Messages, and the GroupBy diagnosis
//! procedure converges on the faulty host.
//!
//! Run with: `cargo run --example anomaly_hunt`

use intellog::core::{sessions_from_job, IntelLog};
use intellog::dlasim::{self, FaultKind, JobConfig, SystemKind, WorkloadGen};
use intellog::spell::Session;

fn main() {
    // 1. Train on clean MapReduce runs with tuned resources (paper §6.1).
    let mut gen = WorkloadGen::new(7, 10);
    let mut train: Vec<Session> = Vec::new();
    for j in 0..6 {
        let cfg = gen.training_config(SystemKind::MapReduce);
        for (i, mut s) in sessions_from_job(&dlasim::generate(&cfg, None))
            .into_iter()
            .enumerate()
        {
            s.id = format!("train{j}_{i}_{}", s.id);
            train.push(s);
        }
    }
    println!("trained on {} clean sessions", train.len());
    let il = IntelLog::train(&train);

    // 2. A 30 GB WordCount job runs while host worker4 loses its network.
    let cfg = JobConfig {
        system: SystemKind::MapReduce,
        workload: "wordcount".into(),
        input_gb: 30,
        mem_mb: 4096,
        cores: 8,
        executors: 4,
        hosts: 10,
        seed: 4242,
    };
    let plan = dlasim::FaultPlan::new(FaultKind::NetworkFailure, 0.3, 3, 0);
    let job = dlasim::generate(&cfg, Some(&plan));
    let sessions = sessions_from_job(&job);
    println!("job produced {} sessions", sessions.len());

    // 3. Detect.
    let report = il.detect_job(&sessions);
    println!(
        "\nIntelLog reports {} problematic sessions out of {}",
        report.problematic_count(),
        report.total_count()
    );
    for sr in report
        .sessions
        .iter()
        .filter(|s| s.is_problematic())
        .take(3)
    {
        println!("  session {}:", sr.session);
        for (i, a) in sr.anomalies.iter().enumerate() {
            match a {
                intellog::anomaly::Anomaly::UnexpectedRepeats {
                    template, count, ..
                } => println!("    unexpected repeats: {template} × {count}"),
                _ if i >= 3 => {}
                intellog::anomaly::Anomaly::UnexpectedMessage { text, .. } => {
                    println!("    unexpected message: {text}")
                }
                other => println!("    {other:?}"),
            }
        }
    }

    // 4. Diagnose: GroupBy identifiers, then GroupBy locality (paper's
    //    procedure narrows 11 fetcher groups down to one host).
    let diag = il.diagnose(&report);
    println!("\n=== diagnosis ===\n{}", diag.render());
    match diag.hosts.first() {
        Some((host, n)) => println!("=> root-cause candidate: {host} ({n} failing connections)"),
        None => println!("=> no locality concentration found"),
    }
}
