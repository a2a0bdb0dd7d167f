//! Online detection: watch a session's log stream live.
//!
//! The paper's detection stage "consumes incoming logs" (Fig. 2). This
//! example replays a faulty MapReduce reducer's log line by line through
//! `anomaly::StreamState`: unexpected messages are reported the moment
//! they arrive; the structural verdict (missing critical keys, orders,
//! groups) lands when the session closes.
//!
//! Run with: `cargo run --release --example streaming_watch`

use intellog::anomaly::StreamState;
use intellog::core::{sessions_from_job, IntelLog};
use intellog::dlasim::{self, FaultKind, FaultPlan, SystemKind, WorkloadGen};

fn main() {
    // Train on clean runs.
    let mut gen = WorkloadGen::new(5, 8);
    let mut train = Vec::new();
    for j in 0..5 {
        let cfg = gen.training_config(SystemKind::MapReduce);
        for (i, mut s) in sessions_from_job(&dlasim::generate(&cfg, None))
            .into_iter()
            .enumerate()
        {
            s.id = format!("t{j}_{i}_{}", s.id);
            train.push(s);
        }
    }
    let il = IntelLog::train(&train);
    println!("trained on {} sessions", train.len());

    // A job with a network failure; stream its most affected session.
    let cfg = gen.detection_config(SystemKind::MapReduce, 3);
    let plan = FaultPlan::new(FaultKind::NetworkFailure, 0.3, 2, 0);
    let job = dlasim::generate(&cfg, Some(&plan));
    let sessions = sessions_from_job(&job);
    let victim = job
        .sessions
        .iter()
        .position(|s| s.affected)
        .expect("a session carries the fault");
    let session = &sessions[victim];
    println!(
        "streaming session {} ({} lines)…\n",
        session.id,
        session.len()
    );

    let mut watcher = StreamState::begin(session.id.clone());
    for l in &session.lines {
        if let Some(intellog::anomaly::Anomaly::UnexpectedMessage {
            ts_ms, text, intel, ..
        }) = watcher.feed(il.detector(), l)
        {
            println!(
                "[t={ts_ms:>6}ms] UNEXPECTED: {text}\n            entities {:?} localities {:?}",
                intel.entities, intel.localities
            );
        }
    }
    let report = watcher.finish(il.detector());
    println!(
        "\nsession closed: {} anomalies total ({} surfaced online)",
        report.anomalies.len(),
        report
            .anomalies
            .iter()
            .filter(|a| a.is_unexpected_message())
            .count()
    );
}
