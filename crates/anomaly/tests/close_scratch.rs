//! The end-of-session checks keep their working arrays per thread (rows by
//! group, the split, the signatures in the log's type numbers): nothing one
//! close leaves in them may reach the next. On one thread, sessions are
//! closed in orders chosen to leave stale state behind — wide sessions
//! before narrow ones, and sessions of two models with different group
//! counts alternating, as a serving shard that hosts several tenants closes
//! them — and each report and HW-graph instance must equal those of the same
//! session closed on a thread of its own, whose arrays start empty.

use anomaly::{Detector, Trainer};
use dlasim::{FaultKind, GenJob, SystemKind, WorkloadGen};
use spell::{Level, LogLine, Session};

fn sessions(job: &GenJob) -> Vec<Session> {
    let line = |l: &dlasim::SimLine| LogLine {
        ts_ms: l.ts_ms,
        level: Level::Info,
        source: l.source.clone(),
        message: l.message.clone(),
    };
    let sessions = job.sessions.iter();
    sessions
        .map(|s| Session::new(s.id.clone(), s.lines.iter().map(line).collect::<Vec<_>>()))
        .collect()
}

/// A model of `system` and sessions to close against it: a clean job's and
/// a faulted job's, so that reports carry structural verdicts.
fn model_and_sessions(system: SystemKind, fault: FaultKind) -> (Detector, Vec<Session>) {
    let mut gen = WorkloadGen::new(7, 4);
    let training: Vec<Session> = (0..2)
        .flat_map(|_| sessions(&dlasim::generate(&gen.training_config(system), None)))
        .collect();
    let detector = Trainer::default().train(&training);
    let clean = dlasim::generate(&gen.detection_config(system, 0), None);
    let plan = gen.fault_plan(fault);
    let faulted = dlasim::generate(&gen.detection_config(system, 1), Some(&plan));
    let mut closed = sessions(&clean);
    closed.extend(sessions(&faulted));
    (detector, closed)
}

/// Close every `(model, session)` on this thread, in order, and hold each
/// result to the same session closed on a new thread.
fn closes_like_a_fresh_thread(order: &[(&Detector, &Session)]) -> usize {
    let mut problematic = 0;
    for &(detector, session) in order {
        let here = detector.detect_session_detailed(session);
        let fresh = sync::thread::scope(|s| {
            let fresh = s.spawn(|| detector.detect_session_detailed(session));
            fresh
                .join()
                .expect("the fresh thread's close does not panic")
        });
        assert_eq!(here, fresh, "session {} closed after others", session.id);
        assert_eq!(detector.detect_session(session), here.0);
        problematic += here.0.is_problematic() as usize;
    }
    problematic
}

#[test]
fn a_close_sees_nothing_of_the_closes_before_it() {
    let (spark, spark_sessions) = model_and_sessions(SystemKind::Spark, FaultKind::Starvation);
    let (mapreduce, mr_sessions) =
        model_and_sessions(SystemKind::MapReduce, FaultKind::NodeFailure);
    let groups = |d: &Detector| d.graph.groups.len();
    assert_ne!(
        groups(&spark),
        groups(&mapreduce),
        "two models, two group counts"
    );

    // Wide before narrow: every later session is no longer than the one
    // closed before it.
    let mut widest_first: Vec<&Session> = spark_sessions.iter().collect();
    widest_first.sort_by_key(|s| std::cmp::Reverse(s.len()));
    assert!(widest_first[0].len() > 4 * widest_first[widest_first.len() - 1].len());
    let order: Vec<_> = widest_first.into_iter().map(|s| (&spark, s)).collect();
    let flagged = closes_like_a_fresh_thread(&order);
    assert!(flagged > 0, "the faulted job's sessions carry verdicts");

    // Two tenants' models on one thread, alternating; Spark's few sessions
    // come round again.
    let spark_side = spark_sessions.iter().cycle().map(|s| (&spark, s));
    let mr_side = mr_sessions.iter().map(|s| (&mapreduce, s));
    let alternating: Vec<_> = spark_side.zip(mr_side).flat_map(|(a, b)| [a, b]).collect();
    assert!(alternating.len() >= 20, "{} closes", alternating.len());
    closes_like_a_fresh_thread(&alternating);
}
