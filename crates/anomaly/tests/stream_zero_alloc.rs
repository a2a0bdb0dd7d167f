//! Literal allocation proofs for `StreamState::feed`.
//!
//! `stream.rs` documents that a line matching an ignored (non-natural-
//! language) key allocates nothing — the match runs on the state's reused
//! span/id buffers — and that of a matched line the state retains one row of
//! its session log, written from the line's token spans: no token string, no
//! Intel Message, nothing allocated per line. The binary installs a counting
//! global allocator so both are checked as stated — and a third claim: an
//! unexpected line answered from the ad hoc memo allocates the strings and
//! vectors of the message it reports and nothing else.
//!
//! Allocations are counted per thread: the trainer's pool keeps worker
//! threads whose start-up would otherwise be counted into whichever test is
//! measuring when they come up.
//!
//! The measured lines are all *distinct*: their variable positions cycle
//! through values seen in training (unseen tokens would all collapse to
//! `UNKNOWN_ID` and make every line the same interned sequence), so any
//! per-sequence state a session keeps shows up as allocations here.

use anomaly::{Anomaly, Detector, StreamState, Trainer};
use spell::{Level, LogLine, Session};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

/// Trained values per variable position.
const VALUES: u64 = 16;
/// Lines per measured pass: 16³ resource lines, 64² task lines.
const LINES: u64 = 4096;

fn line(ts: u64, msg: String) -> LogLine {
    LogLine {
        ts_ms: ts,
        level: Level::Info,
        source: "X".into(),
        message: msg,
    }
}

/// A key-value dump: not natural language, so its key is ignored (§5).
fn resource_line(ts: u64, m: u64, v: u64, d: u64) -> LogLine {
    line(ts, format!("memory={} vcores={v} disk={d}", 1024 + m))
}

/// A matched line carrying a TASK and a STAGE identifier.
fn task_line(ts: u64, task: impl std::fmt::Display, stage: u64) -> LogLine {
    line(ts, format!("Starting task {task} in stage {stage}"))
}

/// Every value of every variable position appears in training.
fn trained() -> Detector {
    let sessions: Vec<Session> = (0..VALUES)
        .map(|i| {
            Session::new(
                format!("c{i}"),
                vec![
                    task_line(0, i, i),
                    resource_line(10, i, i, i),
                    line(
                        20,
                        format!("Finished task {i} in stage {i} and sent 9 bytes to driver"),
                    ),
                ],
            )
        })
        .collect();
    Trainer::default().train(&sessions)
}

/// Feed `lines`; returns how many allocations that made on this thread and
/// how many lines surfaced an anomaly.
fn fed(state: &mut StreamState, detector: &Detector, lines: &[LogLine]) -> (u64, usize) {
    let before = allocations();
    let mut surfaced = 0;
    for l in lines {
        surfaced += state.feed(detector, l).is_some() as usize;
    }
    (allocations() - before, surfaced)
}

#[test]
fn feed_allocates_nothing_on_ignored_key_lines() {
    let detector = trained();
    let probe = resource_line(0, 3, 5, 7);
    let key = detector
        .parser
        .match_line(&probe.message)
        .expect("resource lines match a trained key");
    assert!(
        detector.ignored_keys.contains(&key),
        "the key-value dump key must be on the ignored list"
    );

    let lines: Vec<LogLine> = (0..LINES)
        .map(|n| resource_line(n, n % VALUES, n / VALUES % VALUES, n / VALUES / VALUES))
        .collect();
    let mut state = StreamState::begin("live");
    // Warmup: grow the state's span/id buffers and the matcher's
    // per-thread scratch to their high-water mark.
    assert_eq!(fed(&mut state, &detector, &lines[..8]).1, 0);

    let (allocated, surfaced) = fed(&mut state, &detector, &lines[8..]);
    assert_eq!(surfaced, 0, "ignored-key lines never surface an anomaly");
    assert_eq!(state.lines_seen(), lines.len());
    assert_eq!(
        allocated,
        0,
        "StreamState::feed allocated on {} distinct ignored-key lines",
        lines.len() - 8
    );
}

#[test]
fn feed_allocates_only_to_grow_the_log_on_matched_lines() {
    let detector = trained();
    let probe = task_line(0, 3, 5);
    let key = detector
        .parser
        .match_line(&probe.message)
        .expect("task lines match a trained key");
    assert!(!detector.ignored_keys.contains(&key));
    assert_eq!(
        detector.keys[key.0 as usize].identifier_types(),
        ["TASK", "STAGE"],
        "the measured lines carry two identifiers each"
    );

    // 64 tasks x 64 stages: every line distinct, 128 distinct values.
    let lines: Vec<LogLine> = (0..LINES).map(|n| task_line(n, n % 64, n / 64)).collect();
    let mut state = StreamState::begin("live");
    // Warm-up: three passes. The first numbers every value; three leave the
    // log's row arrays, which double, with room for a fourth.
    for _ in 0..3 {
        assert_eq!(fed(&mut state, &detector, &lines).1, 0);
    }
    let (allocated, surfaced) = fed(&mut state, &detector, &lines);
    assert_eq!(surfaced, 0, "matched lines never surface an anomaly");
    assert_eq!(
        allocated, 0,
        "StreamState::feed allocated on {LINES} matched lines whose values repeat"
    );

    // All-fresh values: the log's arrays and value index grow by doubling,
    // and nothing else is allocated.
    let fresh: Vec<LogLine> = (0..LINES)
        .map(|n| task_line(n, format_args!("attempt_{n}"), 64 + n))
        .collect();
    let (allocated, surfaced) = fed(&mut state, &detector, &fresh);
    assert_eq!(surfaced, 0);
    assert!(
        allocated <= 64,
        "StreamState::feed allocated {allocated} times on {LINES} matched lines with fresh values"
    );
    assert_eq!(state.lines_seen() as u64, 5 * LINES);
}

/// The heap blocks `anomaly` owns: every non-empty `String` and `Vec` in it.
fn owned_blocks(anomaly: &Anomaly) -> u64 {
    let Anomaly::UnexpectedMessage {
        text,
        intel,
        groups,
        ..
    } = anomaly
    else {
        panic!("not an unexpected message: {anomaly:?}");
    };
    let pairs = |p: &[(String, String)]| !p.is_empty() as usize + 2 * p.len();
    let list = |l: &[String]| !l.is_empty() as usize + l.len();
    let operations = &intel.operations;
    let arguments = operations
        .iter()
        .map(|op| 1 + op.subj.is_some() as usize + op.obj.is_some() as usize);
    let blocks = [text, &intel.session, &intel.text].len()
        + pairs(&intel.identifiers)
        + pairs(&intel.values)
        + list(&intel.localities)
        + list(&intel.entities)
        + list(groups)
        + !operations.is_empty() as usize
        + arguments.sum::<usize>();
    blocks as u64
}

#[test]
fn memo_hit_allocates_only_the_message_it_reports() {
    let detector = trained();
    // one shape: the digits change, their number does not
    let spill = |n: u64| {
        let (k, mb) = (n % 10, 10 + n % 90);
        line(
            n,
            format!("spill {k} of {mb} MB written to /tmp/spill{k}.out on host{k}"),
        )
    };
    let mut state = StreamState::begin("live");
    // The founding line pays the extraction; it and the next leave the
    // state's buffers at their high-water mark.
    let founding = fed(&mut state, &detector, &[spill(0)]).0;
    fed(&mut state, &detector, &[spill(1)]);

    const HITS: u64 = 100;
    let lines: Vec<LogLine> = (2..2 + HITS).map(spill).collect();
    let mut blocks = 0;
    let before = allocations();
    for l in &lines {
        blocks += owned_blocks(state.feed(&detector, l).expect("an unknown line"));
    }
    let allocated = allocations() - before;
    assert!(
        blocks >= 12 * HITS,
        "the message carries its fields: {blocks}"
    );
    // The list of online anomalies doubles its way from 2 to 102 entries.
    assert!(
        (blocks..=blocks + 6).contains(&allocated),
        "{HITS} memo hits allocated {allocated} times for {blocks} owned blocks"
    );
    assert!(
        founding > 3 * allocated / HITS,
        "an extraction ({founding} allocations) should dwarf a hit ({})",
        allocated / HITS
    );
}

/// A clean session of `tasks` tasks, each started and finished, their lines
/// interleaved, with a key-value dump between them.
fn clean_session(tasks: u64) -> Vec<LogLine> {
    let starts = (0..tasks).map(|i| task_line(10 * i, i % VALUES, i % VALUES));
    let dumps = (0..tasks).map(|i| resource_line(10 * i + 3, i % VALUES, 1, 2));
    let finishes = (0..tasks).map(|i| {
        let v = i % VALUES;
        let text = format!("Finished task {v} in stage {v} and sent 9 bytes to driver");
        line(10 * i + 5, text)
    });
    let mut lines: Vec<LogLine> = starts.chain(dumps).chain(finishes).collect();
    lines.sort_by_key(|l| l.ts_ms);
    lines
}

/// Closing a session runs the end-of-session checks on the thread's working
/// arrays: once a thread has closed a session as wide, `finish` of a clean
/// one allocates nothing — no map of rows by group, no fingerprint set, no
/// split, no signature strings. (It made 66 allocations on a 36-line Spark
/// session while each close owned its arrays.)
#[test]
fn finish_allocates_nothing_on_a_warm_thread() {
    let detector = trained();
    let close = |lines: &[LogLine]| {
        let mut state = StreamState::begin("live");
        fed(&mut state, &detector, lines);
        let before = allocations();
        let report = state.finish(&detector);
        (allocations() - before, report)
    };
    // Warm-up: a wider session grows every working array past what the
    // measured ones need.
    let (_, report) = close(&clean_session(VALUES));
    assert!(!report.is_problematic(), "{:?}", report.anomalies);

    for tasks in [1, 4, VALUES] {
        let (allocated, report) = close(&clean_session(tasks));
        assert!(!report.is_problematic(), "{:?}", report.anomalies);
        assert_eq!(report.lines as u64, 3 * tasks);
        assert_eq!(
            allocated, 0,
            "finish of a clean {tasks}-task session allocated on a warm thread"
        );
    }
}
