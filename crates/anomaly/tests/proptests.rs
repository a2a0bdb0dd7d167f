//! Property-based tests for the detector: totality on arbitrary log text,
//! self-consistency on training data, and report invariants.

use anomaly::{Anomaly, Detector, StreamState, Trainer};
use proptest::prelude::*;
use spell::{Level, LogLine, Session};

fn line(ts: u64, msg: &str) -> LogLine {
    LogLine {
        ts_ms: ts,
        level: Level::Info,
        source: "X".into(),
        message: msg.into(),
    }
}

fn word() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z]{2,8}",
        "[a-z]{3,6}_[0-9]{1,3}",
        "[0-9]{1,4}",
        Just("task".to_string()),
        Just("registered".to_string()),
        Just("finished".to_string()),
    ]
}

fn message() -> impl Strategy<Value = String> {
    prop::collection::vec(word(), 1..9).prop_map(|ws| ws.join(" "))
}

fn session_strategy(id: &'static str) -> impl Strategy<Value = Session> {
    prop::collection::vec(message(), 1..25).prop_map(move |msgs| {
        Session::new(
            id,
            msgs.iter()
                .enumerate()
                .map(|(i, m)| line(i as u64 * 10, m))
                .collect(),
        )
    })
}

fn trained_detector(sessions: &[Session]) -> Detector {
    Trainer::default().train(sessions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Training and detection are total on arbitrary log text, and a
    /// training session re-detected produces no unexpected messages.
    #[test]
    fn detector_total_and_consistent(s1 in session_strategy("a"), s2 in session_strategy("b")) {
        let d = trained_detector(&[s1.clone(), s2.clone()]);
        for s in [&s1, &s2] {
            let r = d.detect_session(s);
            prop_assert_eq!(r.lines, s.lines.len());
            prop_assert!(
                !r.anomalies.iter().any(Anomaly::is_unexpected_message),
                "training message became unexpected: {:?}",
                r.anomalies
            );
        }
    }

    /// Detection on arbitrary unseen text never panics, and every
    /// unexpected-message anomaly carries the offending text.
    #[test]
    fn detection_on_garbage(train in session_strategy("t"), eval in session_strategy("e")) {
        let d = trained_detector(&[train]);
        let r = d.detect_session(&eval);
        for a in &r.anomalies {
            if let Anomaly::UnexpectedMessage { text, intel, .. } = a {
                prop_assert!(eval.lines.iter().any(|l| &l.message == text));
                prop_assert_eq!(&intel.session, &eval.id);
            }
        }
    }

    /// Streaming and batch detection agree on anomaly counts.
    #[test]
    fn streaming_matches_batch(train in session_strategy("t"), eval in session_strategy("e")) {
        let d = trained_detector(&[train]);
        let batch = d.detect_session(&eval);
        let mut sd = StreamState::begin(eval.id.clone());
        for l in &eval.lines {
            sd.feed(&d, l);
        }
        let streamed = sd.finish(&d);
        prop_assert_eq!(batch.anomalies.len(), streamed.anomalies.len());
        prop_assert_eq!(batch.lines, streamed.lines);
    }
}

/// The long-session row: one client's 20,000-line session, a distinct task
/// on every line and one stage shared by all, so the 'task' group ends with
/// 20,000 subroutine instances that all hold the stage's value. Closing it
/// must agree with offline detection, and must not hold a shard for
/// seconds: Algorithm 2 as a scan over the open instances took 12 s on it in
/// a release build.
#[test]
fn long_session_closes_in_bounded_time_and_matches_offline() {
    let task_lines = |tasks: std::ops::Range<u32>, stage: u32, finish: bool| -> Vec<LogLine> {
        tasks
            .flat_map(|k| {
                let at = u64::from(k) * 10;
                let start = line(at, &format!("Starting task {k} in stage {stage}"));
                let done = line(
                    at + 5,
                    &format!("Finished task {k} in stage {stage} and sent 9 bytes to driver"),
                );
                std::iter::once(start).chain(finish.then_some(done))
            })
            .collect()
    };
    let d = trained_detector(&[
        Session::new("c0", task_lines(0..2, 0, true)),
        Session::new("c1", task_lines(2..3, 1, true)),
        Session::new("c2", task_lines(3..6, 2, true)),
    ]);
    let long = Session::new("c9", task_lines(0..20_000, 7, false));

    let mut stream = StreamState::begin(long.id.clone());
    for l in &long.lines {
        stream.feed(&d, l);
    }
    let started = std::time::Instant::now();
    let streamed = stream.finish(&d);
    let took = started.elapsed();
    assert!(took.as_secs_f64() < 5.0, "finish took {took:?}");

    let (offline, instance) = d.detect_session_detailed(&long);
    assert_eq!(streamed, offline);
    assert_eq!(instance.subroutine_instance_count("task"), 20_000);
    let held = &instance.group("task").expect("task group").subroutines[7].id_values;
    assert!(
        held.contains("STAGE:7") && held.contains("TASK:7"),
        "every instance holds the shared stage value: {held:?}"
    );
}
