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
//! differential, covering the `--format` ingestion path. An eighth pair of
//! sessions crosses the two caps on what a session retains of unexpected
//! lines: 1,000 repeats of one unknown template, 1,000 unknown lines of as
//! many shapes.
//!
//! The same sweep also pins the two ways of closing a session to each other
//! (`finish`, which builds no HW-graph instance, against `finish_detailed`)
//! and the instance `finish_detailed` returns to one rebuilt here from
//! Algorithm 2 as a plain scan over string sets.

use anomaly::stream::{MAX_ADHOC_SHAPES, MAX_FULL_UNEXPECTED, OTHER_TEMPLATE};
use anomaly::{Anomaly, Detector, GroupInstance, HwInstance, StreamState};
use dlasim::{FaultKind, SystemKind, WorkloadGen};
use extract::IntelMessage;
use hwgraph::{Lifespan, SubroutineInstance};
use intellog_core::{sessions_from_job, sessions_from_text, IntelLog};
use lognlp::format::AdapterKind;
use spell::{Level, LogLine, Session};
use std::collections::{BTreeMap, BTreeSet};

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

/// Algorithm 2 (§4.1) read off the paper: scan the open instances in
/// creation order, join the first whose value set is ⊆-comparable.
fn split_by_scanning(messages: &[&IntelMessage]) -> Vec<SubroutineInstance> {
    let empty = || SubroutineInstance {
        id_values: BTreeSet::new(),
        signature: BTreeSet::new(),
        message_indices: Vec::new(),
        keys: Vec::new(),
    };
    let mut none = empty();
    let mut open: Vec<SubroutineInstance> = Vec::new();
    for (mi, m) in messages.iter().enumerate() {
        let ids: BTreeSet<String> = m
            .identifiers
            .iter()
            .map(|(t, v)| format!("{t}:{v}"))
            .collect();
        let joined = if ids.is_empty() {
            &mut none
        } else {
            let comparable = |inst: &SubroutineInstance| {
                ids.is_subset(&inst.id_values) || inst.id_values.is_subset(&ids)
            };
            let at = open.iter().position(comparable).unwrap_or_else(|| {
                open.push(empty());
                open.len() - 1
            });
            &mut open[at]
        };
        joined.id_values.extend(ids);
        joined
            .signature
            .extend(m.identifiers.iter().map(|(t, _)| t.clone()));
        joined.message_indices.push(mi);
        joined.keys.push(m.key_id);
    }
    let none = Some(none).filter(|n| !n.keys.is_empty());
    none.into_iter().chain(open).collect()
}

/// The HW-graph instance of `session`, rebuilt from the detector's public
/// parts and [`split_by_scanning`].
fn instance_by_scanning(detector: &Detector, session: &Session) -> HwInstance {
    let messages: Vec<IntelMessage> = session
        .lines
        .iter()
        .filter_map(|l| {
            let key = detector.parser.match_line(&l.message)?;
            (!detector.ignored_keys.contains(&key)).then(|| {
                IntelMessage::instantiate(
                    &detector.keys[key.0 as usize],
                    &spell::tokenize_message(&l.message),
                    &session.id,
                    l.ts_ms,
                )
            })
        })
        .collect();
    let mut per_group: BTreeMap<usize, (Lifespan, Vec<&IntelMessage>)> = BTreeMap::new();
    for m in &messages {
        for &g in detector.graph.groups_of_key(m.key_id) {
            let (span, routed) = per_group
                .entry(g)
                .or_insert_with(|| (Lifespan::at(m.ts_ms), Vec::new()));
            span.extend(m.ts_ms);
            routed.push(m);
        }
    }
    let groups = per_group
        .into_iter()
        .map(|(g, (span, routed))| {
            let instance = GroupInstance {
                group: detector.graph.groups[g].name.clone(),
                lifespan: Some(span),
                subroutines: split_by_scanning(&routed),
                messages: routed.len(),
            };
            (g, instance)
        })
        .collect();
    HwInstance {
        session: session.id.clone(),
        groups,
    }
}

/// Online == offline for one session, by either way of closing it, and the
/// detailed close's HW-graph instance is the one the scan rebuilds.
fn assert_session_agrees(detector: &Detector, session: &Session, context: &str) {
    let offline = detector.detect_session(session);
    let feed = || {
        let mut stream = StreamState::begin(session.id.clone());
        for line in &session.lines {
            stream.feed(detector, line);
        }
        stream
    };
    let online = feed().finish(detector);
    assert_eq!(
        offline, online,
        "online and offline reports diverge: {context} session={}",
        session.id
    );
    let (detailed, instance) = feed().finish_detailed(detector);
    assert_eq!(
        online, detailed,
        "finish and finish_detailed diverge: {context} session={}",
        session.id
    );
    assert_eq!(
        (detailed, instance.to_json()),
        {
            let (report, instance) = detector.detect_session_detailed(session);
            (report, instance.to_json())
        },
        "finish_detailed and detect_session_detailed diverge: {context} session={}",
        session.id
    );
    assert_eq!(
        instance.to_json(),
        instance_by_scanning(detector, session).to_json(),
        "HW-graph instance differs from the scan's: {context} session={}",
        session.id
    );
}

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
            let context = format!("system={} fault={fault}", system.name());
            for session in sessions_from_job(job) {
                assert_session_agrees(detector, &session, &context);
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
        let context = format!("format={} fault={fault}", format.name());
        for session in sessions_from_text(job, format) {
            assert_session_agrees(detector, &session, &context);
        }
    }
}

/// A session of `UNKNOWN` lines no model of the simulator knows, between two
/// lines of `head`.
const UNKNOWN: u64 = 1000;

fn unknown_session(head: &Session, message: impl Fn(u64) -> String) -> Session {
    let unknown = (0..UNKNOWN).map(|n| LogLine {
        ts_ms: head.lines[0].ts_ms + n,
        level: Level::Warn,
        source: "Chaos".to_string(),
        message: message(n),
    });
    let mut lines = vec![head.lines[0].clone()];
    lines.extend(unknown);
    let mut tail = head.lines[1].clone();
    tail.ts_ms = head.lines[0].ts_ms + UNKNOWN;
    lines.push(tail);
    Session::new("unknown", lines)
}

/// `(template, count, first_ts_ms, last_ts_ms)` of an `UnexpectedRepeats`.
type Counted<'a> = (&'a str, u64, u64, u64);

/// What the report keeps in full and what it counts: the full messages in
/// arrival order, then every count.
fn kept_and_counted(anomalies: &[Anomaly]) -> (Vec<&str>, Vec<Counted<'_>>) {
    let (mut kept, mut counted) = (Vec::new(), Vec::new());
    for a in anomalies {
        match a {
            Anomaly::UnexpectedMessage { text, .. } => {
                assert!(counted.is_empty(), "full messages come first");
                kept.push(text.as_str());
            }
            Anomaly::UnexpectedRepeats {
                template,
                count,
                first_ts_ms,
                last_ts_ms,
                ..
            } => counted.push((template.as_str(), *count, *first_ts_ms, *last_ts_ms)),
            _ => {}
        }
    }
    (kept, counted)
}

/// The state is flat past the caps: what `feed` retains of 1,000 unknown
/// lines is what it retained of the first few hundred.
fn assert_capped(detector: &Detector, session: &Session) {
    let mut stream = StreamState::begin(session.id.clone());
    for line in &session.lines {
        let room = stream.online_anomaly_count() < MAX_FULL_UNEXPECTED;
        let fed = stream.feed(detector, line);
        let full = matches!(fed, Some(Anomaly::UnexpectedMessage { .. }));
        assert_eq!(full, fed.is_some() && room, "{:?}", line.message);
        assert!(stream.online_anomaly_count() <= MAX_FULL_UNEXPECTED);
    }
    let report = stream.finish(detector);
    let counts = report.anomalies.iter();
    let counts = counts.filter(|a| matches!(a, Anomaly::UnexpectedRepeats { .. }));
    assert!(counts.count() <= MAX_ADHOC_SHAPES + 1);
}

#[test]
fn stream_and_offline_agree_past_the_unexpected_caps() {
    let mut gen = WorkloadGen::new(40, 8);
    let train = sessions_from_job(&dlasim::generate(
        &gen.training_config(SystemKind::Spark),
        None,
    ));
    let il = IntelLog::train(&train);
    let detector = il.detector();
    let head = &train[0];
    let t0 = head.lines[0].ts_ms;
    let first = MAX_FULL_UNEXPECTED as u64;

    // One template, its digits changing but not their number: one shape.
    let spill = |n: u64| {
        format!(
            "gremlin {} chewed {} MB off /tmp/cable{}.out",
            n % 10,
            10 + n % 90,
            n % 7
        )
    };
    let repeats = unknown_session(head, spill);
    assert_session_agrees(detector, &repeats, "1,000 repeats of one unknown template");
    assert_capped(detector, &repeats);
    let report = detector.detect_session(&repeats);
    let (kept, counted) = kept_and_counted(&report.anomalies);
    assert_eq!(kept, (0..first).map(spill).collect::<Vec<_>>());
    let template = "gremlin * chewed * MB off *";
    assert_eq!(
        counted,
        [(template, UNKNOWN - first, t0 + first, t0 + UNKNOWN - 1)]
    );

    // As many shapes as lines: the memo fills with the first few, the full
    // messages run out, the rest are counted together, unextracted.
    let word = |n: u64| {
        format!(
            "gremlin{} {}",
            "x".repeat(n as usize % 500),
            "y".repeat(n as usize / 500 + 1)
        )
    };
    let distinct = unknown_session(head, word);
    assert_session_agrees(detector, &distinct, "1,000 all-distinct unknown lines");
    assert_capped(detector, &distinct);
    let report = detector.detect_session(&distinct);
    let (kept, counted) = kept_and_counted(&report.anomalies);
    assert_eq!(kept, (0..first).map(word).collect::<Vec<_>>());
    assert_eq!(
        counted,
        [(
            OTHER_TEMPLATE,
            UNKNOWN - first,
            t0 + first,
            t0 + UNKNOWN - 1
        )]
    );

    // Both at once: two lines in three repeat one of 40 shapes, the memo has
    // room for 32 of them; every line is kept or counted exactly once.
    let mixed = |n: u64| match n % 3 {
        0 => word(n),
        _ => format!("gremlin {} ate {}", n % 10, "z".repeat(1 + n as usize % 40)),
    };
    let mixed = unknown_session(head, mixed);
    assert_session_agrees(detector, &mixed, "repeats and distinct lines mixed");
    assert_capped(detector, &mixed);
    let report = detector.detect_session(&mixed);
    let (kept, counted) = kept_and_counted(&report.anomalies);
    assert_eq!(kept.len() as u64, first);
    assert_eq!(counted.iter().map(|c| c.1).sum::<u64>(), UNKNOWN - first);
    assert!(
        counted.len() > 2 && counted.len() <= MAX_ADHOC_SHAPES + 1,
        "{counted:?}"
    );
    assert_eq!(counted.last().expect("counts").0, OTHER_TEMPLATE);
}
