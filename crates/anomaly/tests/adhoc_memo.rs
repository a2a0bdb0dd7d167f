//! The ad hoc extraction memo against its oracle.
//!
//! `StreamState` extracts an unexpected line once per digit-folded shape and
//! reuses the result (`stream.rs`); `IntelExtractor::extract_adhoc` run on
//! every line is the oracle. The memoised `IntelMessage` and groups must be
//! the oracle's **for every line** — over the six simulated systems crossed
//! with the five fault kinds, and over generated messages whose digits are
//! rewritten — and the suite must be able to tell: the naive memo, which
//! reuses the founding line's key as it is, is planted and has to be caught.

use anomaly::{Anomaly, Detector, StreamState, Trainer};
use dlasim::{FaultKind, GenJob, SystemKind, WorkloadGen};
use extract::{IntelExtractor, IntelKey, IntelMessage};
use proptest::prelude::*;
use spell::{Level, LogLine, Session};
use std::collections::HashMap;

const ALL_SYSTEMS: [SystemKind; 6] = [
    SystemKind::Spark,
    SystemKind::MapReduce,
    SystemKind::Tez,
    SystemKind::Yarn,
    SystemKind::Nova,
    SystemKind::TensorFlow,
];

fn sessions_of(job: &GenJob) -> Vec<Session> {
    let line = |l: &dlasim::SimLine| LogLine {
        ts_ms: l.ts_ms,
        level: Level::Info,
        source: l.source.clone(),
        message: l.message.clone(),
    };
    let session = |s: &dlasim::GenSession| {
        Session::new(s.id.clone(), s.lines.iter().map(line).collect::<Vec<_>>())
    };
    job.sessions.iter().map(session).collect()
}

/// A detector per system and the sessions of its faulted jobs: every fault
/// kind under three of the detection-phase configurations.
fn corpus() -> Vec<(Detector, Vec<Session>)> {
    ALL_SYSTEMS
        .iter()
        .map(|&system| {
            let mut gen = WorkloadGen::new(40 + system as u64, 8);
            let train: Vec<Session> = (0..2)
                .flat_map(|_| sessions_of(&dlasim::generate(&gen.training_config(system), None)))
                .collect();
            let runs = FaultKind::ALL
                .iter()
                .flat_map(|&f| [(f, 1), (f, 2), (f, 3)]);
            let faulted = runs.flat_map(|(fault, set)| {
                let cfg = gen.detection_config(system, set);
                let plan = gen.fault_plan(fault);
                sessions_of(&dlasim::generate(&cfg, Some(&plan)))
            });
            let faulted = faulted.collect();
            (Trainer::default().train(&train), faulted)
        })
        .collect()
}

fn spans_of(message: &str) -> Vec<lognlp::Span> {
    let mut spans = Vec::new();
    lognlp::tokenize_spans(message, &mut spans);
    spans
}

fn folded(message: &str) -> String {
    let fold = |c: char| if c.is_ascii_digit() { '0' } else { c };
    message.chars().map(fold).collect()
}

/// The oracle: extract this very line, instantiate through the owned-token
/// door, map its entities to groups.
fn fresh(
    detector: &Detector,
    session: &str,
    ts_ms: u64,
    text: &str,
) -> (IntelMessage, Vec<String>) {
    let key = IntelExtractor::new().extract_adhoc(text);
    let tokens = spell::tokenize_message(text);
    let intel = IntelMessage::instantiate(&key, &tokens, session, ts_ms);
    let by_spans = IntelMessage::instantiate_spans(&key, text, &spans_of(text), session, ts_ms);
    assert_eq!(intel, by_spans, "the two constructors differ on {text:?}");
    let groups = detector.groups_of_entities(&intel.entities);
    (intel, groups)
}

/// Every unexpected message of `report` with what the oracle says of it.
fn assert_report_is_fresh(detector: &Detector, report: &anomaly::SessionReport) -> usize {
    let mut unexpected = 0;
    for a in &report.anomalies {
        let Anomaly::UnexpectedMessage {
            ts_ms,
            text,
            intel,
            groups,
        } = a
        else {
            assert!(!matches!(a, Anomaly::UnexpectedRepeats { .. }), "{a:?}");
            continue;
        };
        let oracle = fresh(detector, &report.session, *ts_ms, text);
        assert_eq!((intel, groups), (&oracle.0, &oracle.1), "{text:?}");
        unexpected += 1;
    }
    unexpected
}

#[test]
fn memoised_extraction_is_fresh_on_every_system_and_fault() {
    let (mut unexpected, mut repeats) = (0, 0);
    for (detector, sessions) in corpus() {
        for session in &sessions {
            let report = detector.detect_session(session);
            unexpected += assert_report_is_fresh(&detector, &report);
            let mut shapes = HashMap::new();
            for a in report.anomalies.iter() {
                if let Anomaly::UnexpectedMessage { text, .. } = a {
                    repeats += (shapes.insert(folded(text), ()).is_some()) as usize;
                }
            }
        }
    }
    // the sweep is only evidence if the memo was reused in it
    eprintln!("{unexpected} unexpected lines, {repeats} of a shape their session had seen");
    assert!(unexpected > 500, "{unexpected} unexpected lines");
    assert!(repeats > unexpected / 2, "{repeats} of {unexpected} repeat");
}

/// Lines of the corpus whose message, instantiated from the key `memo` makes
/// of their shape's founding line, is not the oracle's; and how many lines
/// were answered from a founder other than themselves.
fn stale_lines(memo: impl Fn(IntelKey) -> Option<IntelKey>) -> (usize, usize) {
    let extractor = IntelExtractor::new();
    let (mut stale, mut reused) = (0, 0);
    for (detector, sessions) in corpus() {
        for session in &sessions {
            let mut founded: HashMap<String, Option<IntelKey>> = HashMap::new();
            for line in &session.lines {
                if detector.parser.match_line(&line.message).is_some() {
                    continue;
                }
                let text = line.message.as_str();
                let shape = folded(text);
                let known = founded.contains_key(&shape);
                let key = founded
                    .entry(shape)
                    .or_insert_with(|| memo(extractor.extract_adhoc(text)));
                let Some(key) = key else { continue };
                reused += known as usize;
                let (id, ts) = (session.id.as_str(), line.ts_ms);
                let memoised = IntelMessage::instantiate_spans(key, text, &spans_of(text), id, ts);
                stale += (memoised != fresh(&detector, id, ts, text).0) as usize;
            }
        }
    }
    (stale, reused)
}

#[test]
fn naive_fold_is_caught_and_the_rewrite_is_not() {
    let (stale, reused) = stale_lines(IntelKey::across_digits);
    assert_eq!(stale, 0, "of {reused} reused");
    assert!(
        reused > 800,
        "the rewrite refuses too much: {reused} reused"
    );
    // Planted bug: the founding line's key as extracted quotes that line's
    // own tokens as operation arguments.
    let (stale, reused) = stale_lines(Some);
    eprintln!("naive memo: {stale} stale of {reused} reused");
    assert!(stale > 100, "naive memo: {stale} stale of {reused} reused");
}

fn line(ts_ms: u64, message: &str) -> LogLine {
    LogLine {
        ts_ms,
        level: Level::Info,
        source: "X".into(),
        message: message.into(),
    }
}

fn small_detector() -> Detector {
    let session = |id: &str, host: &str, k: u32| {
        let lines = vec![
            line(0, &format!("Registering block manager endpoint on {host}")),
            line(10, &format!("Starting task {k} in stage 0")),
            line(20, "Shutdown hook called"),
        ];
        Session::new(id, lines)
    };
    Trainer::default().train(&[session("c0", "host1", 1), session("c1", "host2", 2)])
}

/// Tokens of the kinds extraction treats differently, digits in all of the
/// places they occur: fused units, identifiers, localities, hex, versions,
/// `key=value`, quoted and bracketed words, words that only look numeric.
const TOKENS: &[&str] = &[
    "4ms",
    "12MB",
    "attempt_01",
    "host1:13562",
    "Worker5:41105",
    "/tmp/spill1.out",
    "0x1f",
    "10.0.0.3",
    "10.0.0.3:50010",
    "hdfs://nn1:8020/user/x7",
    "node3.dc1.example.com",
    "ip-10-0-0-255",
    "2.5",
    "1,024",
    "7",
    "42",
    "#",
    "[fetcher",
    "3]",
    "mem=512",
    "v2.1.0",
    "ipv4",
    "utf8",
    "md5",
    "s3",
    "x86_64",
    "executor",
    "Executor7",
    "task",
    "TaskSet_3.0",
    "stage",
    "failed",
    "to",
    "connect",
    "Lost",
    "lost",
    "on",
    "of",
    "by",
    "in",
    "from",
    "for",
    "is",
    "was",
    "written",
    "spill",
    "MB",
    "bytes",
    "ms",
    "fetching",
    "remote",
    "blocks.",
    "while",
    "the",
    "about",
    "shuffle",
    "output",
    "map",
    "freed",
    "retrying",
    "after",
    "Connection",
    "refused:",
    "RUNNING",
    "BlockManagerId(2,",
    "container_1_0001",
];

fn token() -> impl Strategy<Value = &'static str> {
    (0..TOKENS.len()).prop_map(|i| TOKENS[i])
}

fn rewrite_digits(message: &str, digits: &[u8]) -> String {
    let mut next = digits.iter().cycle();
    let rewrite = |c: char| match c.is_ascii_digit() {
        true => (b'0' + next.next().expect("non-empty") % 10) as char,
        false => c,
    };
    message.chars().map(rewrite).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Rewriting a message's digits changes nothing the memo relies on: a
    /// key made good across digits instantiates every variant as the
    /// oracle does, and a session fed the variants reports the oracle's
    /// messages whether the shape was reusable or refused.
    #[test]
    fn digit_rewrites_agree_with_the_oracle(
        tokens in prop::collection::vec(token(), 1..10),
        rewrites in prop::collection::vec(prop::collection::vec(0u8..10, 1..7), 1..4),
    ) {
        let founder = tokens.join(" ");
        let variants: Vec<String> = rewrites.iter().map(|d| rewrite_digits(&founder, d)).collect();
        let detector = small_detector();
        let key = IntelExtractor::new().extract_adhoc(&founder).across_digits();
        let mut state = StreamState::begin("s");
        for (ts, text) in std::iter::once(&founder).chain(&variants).enumerate() {
            prop_assert_eq!(folded(text), folded(&founder));
            let oracle = fresh(&detector, "s", ts as u64, text);
            if let Some(key) = &key {
                let memoised =
                    IntelMessage::instantiate_spans(key, text, &spans_of(text), "s", ts as u64);
                prop_assert_eq!(&memoised, &oracle.0, "founder {:?}", founder);
            }
            if detector.parser.match_line(text).is_none() {
                let fed = state.feed(&detector, &line(ts as u64, text)).cloned();
                let Some(Anomaly::UnexpectedMessage { intel, groups, .. }) = fed else {
                    panic!("{text:?} surfaced {fed:?}");
                };
                prop_assert_eq!((intel, groups), oracle, "founder {:?}", founder);
            }
        }
    }
}

/// What the proptest cannot reach by sampling: the memo must engage on the
/// templates a faulted job repeats and must refuse what it cannot place.
#[test]
fn reusable_and_refused_shapes() {
    let key = |text: &str| IntelExtractor::new().extract_adhoc(text).across_digits();
    let connect = key("Failed to connect to worker1:41101 while fetching remote blocks")
        .expect("a lowercase host:port argument is placed as `*`");
    assert!(connect
        .operations
        .iter()
        .any(|op| op.obj.as_deref() == Some("*")));
    assert!(key("spill 3 of 12 MB written to /tmp/spill3.out").is_some());
    // quoted lowercased, spelled with a capital: `*` would refill the capital
    assert!(key("Failed to connect to Worker1:41101 while fetching").is_none());
    // an identifier type taken from the identifier-shaped noun before it
    assert!(key("lost exec7 3 on host2").is_none());
    // a host name by its octets' values: `ip-10-0-0-256` shares the shape
    assert!(key("Lost connection to ip-10-0-0-1 while fetching").is_some());
    assert!(key("Lost connection to ip-10-0-0-255 while fetching").is_none());
}
