//! End-to-end equivalence properties for the interned/indexed hot path.
//!
//! Three contracts guard the perf work:
//!
//! 1. `match_ids` — on the frozen automaton and on a thawed clone's live
//!    index — is observationally identical to the linear-scan reference
//!    matcher over realistic corpora from every simulated system (Spark,
//!    MapReduce, Tez, YARN, Nova);
//! 2. parallel training produces a byte-identical detector (and therefore
//!    byte-identical reports) to the sequential reference trainer at the
//!    host's parallelism, however the sessions fall into the trainer's
//!    split windows (`sync::par_map`'s own suite covers 1–8 threads);
//! 3. the row the session log keeps of a matched line — key id, timestamp,
//!    identifier pairs — is that projection of the owned Intel Message
//!    `IntelMessage::instantiate` builds from the line's token strings, on
//!    every simulated system (TensorFlow included) and fault kind.

use anomaly::{Detector, Trainer};
use dlasim::{FaultKind, SystemKind, WorkloadGen};
use extract::{IntelMessage, SessionLog};
use intellog_core::{sessions_from_job, IntelLog};
use proptest::prelude::*;
use spell::Session;

const SYSTEMS: [SystemKind; 5] = [
    SystemKind::Spark,
    SystemKind::MapReduce,
    SystemKind::Tez,
    SystemKind::Yarn,
    SystemKind::Nova,
];

fn corpus(system: SystemKind, seed: u64, jobs: usize) -> Vec<Session> {
    let mut gen = WorkloadGen::new(seed, 6);
    let mut out = Vec::new();
    for j in 0..jobs {
        let cfg = gen.training_config(system);
        let job = dlasim::generate(&cfg, None);
        for (i, mut s) in sessions_from_job(&job).into_iter().enumerate() {
            s.id = format!("train{j}_{i}_{}", s.id);
            out.push(s);
        }
    }
    out
}

/// Train a parser over the corpus and check frozen == thawed == linear on
/// every line of `probes` (typically a different corpus, so unknown tokens
/// and unmatched messages are exercised too).
fn assert_matcher_equivalence(train: &[Session], probes: &[Session]) {
    let il = IntelLog::train(train);
    let parser = &il.detector().parser;
    assert!(parser.is_frozen());
    let mut thawed = parser.clone();
    thawed.thaw();
    let (mut spans, mut ids) = (Vec::new(), Vec::new());
    for session in train.iter().chain(probes) {
        for line in &session.lines {
            parser.lookup_line_into(&line.message, &mut spans, &mut ids);
            let linear = parser.match_ids_linear(&ids);
            for (name, got) in [
                ("frozen", parser.match_ids(&ids)),
                ("thawed", thawed.match_ids(&ids)),
            ] {
                assert_eq!(
                    got, linear,
                    "{name} matcher diverged from linear on {:?} (session {})",
                    line.message, session.id
                );
            }
        }
    }
}

const FAULTS: [FaultKind; 5] = [
    FaultKind::SessionKill,
    FaultKind::NetworkFailure,
    FaultKind::NodeFailure,
    FaultKind::MemorySpill,
    FaultKind::Starvation,
];

/// One detection job of `system` with `fault` injected.
fn faulted_job(system: SystemKind, seed: u64, fault: FaultKind) -> Vec<Session> {
    let mut gen = WorkloadGen::new(seed, 6);
    let cfg = gen.detection_config(system, 1);
    let plan = gen.fault_plan(fault);
    sessions_from_job(&dlasim::generate(&cfg, Some(&plan)))
}

/// Log every matched line of `sessions` the way `StreamState::feed` does and
/// check each row against the instantiated message. Returns how many rows
/// carried identifiers.
fn assert_rows_equal_instantiate(detector: &Detector, sessions: &[Session]) -> usize {
    let (mut spans, mut ids) = (Vec::new(), Vec::new());
    let mut identified = 0;
    for session in sessions {
        let mut log = SessionLog::default();
        for line in &session.lines {
            detector
                .parser
                .lookup_line_into(&line.message, &mut spans, &mut ids);
            let Some(kid) = detector.parser.match_ids(&ids) else {
                continue;
            };
            let key = &detector.keys[kid.0 as usize];
            log.push_line(key, line.ts_ms, &line.message, &spans);
            let tokens = spell::tokenize_message(&line.message);
            let message = IntelMessage::instantiate(key, &tokens, &session.id, line.ts_ms);
            let row = log.rows().last().expect("pushed just above");
            let pairs: Vec<(String, String)> = log
                .identifier_strs(row)
                .map(|(t, v)| (t.to_string(), v.to_string()))
                .collect();
            assert_eq!(
                (row.key_id, row.ts_ms, &pairs),
                (message.key_id, message.ts_ms, &message.identifiers),
                "row differs from the Intel Message of {:?} (session {})",
                message.text,
                session.id
            );
            identified += !pairs.is_empty() as usize;
        }
    }
    identified
}

#[test]
fn logged_rows_equal_instantiate_on_all_systems_and_faults() {
    for system in SYSTEMS.into_iter().chain([SystemKind::TensorFlow]) {
        let il = IntelLog::train(&corpus(system, 42, 2));
        let mut identified = 0;
        for fault in FAULTS {
            let probes = faulted_job(system, 1337, fault);
            identified += assert_rows_equal_instantiate(il.detector(), &probes);
        }
        assert!(identified > 0, "{system:?}: no row carried an identifier");
    }
}

#[test]
fn indexed_matcher_equals_linear_on_all_systems() {
    for system in SYSTEMS {
        let train = corpus(system, 42, 2);
        let probes = corpus(system, 1337, 1);
        assert_matcher_equivalence(&train, &probes);
    }
}

#[test]
fn parallel_training_equals_sequential_on_all_systems() {
    for system in SYSTEMS {
        let sessions = corpus(system, 7, 2);
        let trainer = Trainer::default();
        let seq = serde_json::to_string(&trainer.train_sequential(&sessions)).unwrap();
        let par = serde_json::to_string(&trainer.train(&sessions)).unwrap();
        assert_eq!(par, seq, "detector divergence for {system:?}");
    }
}

/// The trainer splits sessions into subroutine instances a window of rows
/// ahead of the ordered merge (`SPLIT_WINDOW_ROWS`, 4,096). Many short
/// sessions (the MapReduce shape: several windows, ~100 sessions each),
/// then one session longer than a window (every Spark line in one
/// container), then short ones again: `train` is `train_sequential`, and a
/// second `train` in the same process — whose calling thread has warmed its
/// scratch in the first — is the first.
#[test]
fn windowed_split_equals_sequential_across_window_shapes() {
    let short = corpus(SystemKind::MapReduce, 7, 8);
    let spark = corpus(SystemKind::Spark, 7, 4);
    let long = Session::new(
        "one_long_container",
        spark.iter().flat_map(|s| s.lines.iter().cloned()).collect(),
    );
    let rows = |sessions: &[Session]| sessions.iter().map(Session::len).sum::<usize>();
    assert!(long.len() > 4096, "long session has {} lines", long.len());
    assert!(
        rows(&short) > 3 * 4096,
        "short sessions hold {}",
        rows(&short)
    );
    assert!(short.len() > 200 && short.iter().all(|s| s.len() < 4096));
    let (head, tail) = short.split_at(short.len() * 2 / 3);
    let sessions: Vec<Session> = head.iter().chain([&long]).chain(tail).cloned().collect();

    let trainer = Trainer::default();
    let seq = serde_json::to_string(&trainer.train_sequential(&sessions)).unwrap();
    for run in ["first", "second"] {
        let par = serde_json::to_string(&trainer.train(&sessions)).unwrap();
        assert_eq!(par, seq, "{run} train diverged from train_sequential");
    }
}

#[test]
fn parallel_and_sequential_reports_agree_on_faulted_job() {
    let train = corpus(SystemKind::MapReduce, 11, 2);
    let par = IntelLog::train(&train);
    let seq = IntelLog::train_sequential(&train);
    let mut gen = WorkloadGen::new(23, 6);
    let cfg = gen.detection_config(SystemKind::MapReduce, 1);
    let plan = gen.fault_plan(FaultKind::NetworkFailure);
    let job = dlasim::generate(&cfg, Some(&plan));
    let sessions = sessions_from_job(&job);
    let rp = par.detect_job(&sessions);
    let rs = seq.detect_job_sequential(&sessions);
    assert_eq!(rp, rs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random seeds and system choice: the trained parser's indexed matcher
    /// agrees with the reference matcher on a held-out corpus.
    #[test]
    fn matcher_equivalence_random_corpora(
        seed in 0u64..10_000,
        probe_seed in 0u64..10_000,
        sys in 0usize..5,
    ) {
        let system = SYSTEMS[sys];
        let train = corpus(system, seed, 1);
        let probes = corpus(system, probe_seed, 1);
        assert_matcher_equivalence(&train, &probes);
    }

    /// Random seeds, system and fault: a held-out faulted job logs the rows
    /// `instantiate` would.
    #[test]
    fn logged_rows_equal_instantiate_random(
        seed in 0u64..10_000,
        probe_seed in 0u64..10_000,
        sys in 0usize..5,
        fault in 0usize..5,
    ) {
        let il = IntelLog::train(&corpus(SYSTEMS[sys], seed, 1));
        let probes = faulted_job(SYSTEMS[sys], probe_seed, FAULTS[fault]);
        assert_rows_equal_instantiate(il.detector(), &probes);
    }

    /// Random seeds: parallel training is byte-identical to sequential.
    #[test]
    fn parallel_training_equivalence_random(seed in 0u64..10_000, sys in 0usize..5) {
        let sessions = corpus(SYSTEMS[sys], seed, 1);
        let trainer = Trainer::default();
        let par = trainer.train(&sessions);
        let seq = trainer.train_sequential(&sessions);
        prop_assert_eq!(
            serde_json::to_string(&par).unwrap(),
            serde_json::to_string(&seq).unwrap()
        );
    }
}
