//! Cross-system matcher-equivalence suite for Spell's one matcher.
//!
//! Training, detection and serving all match on the prefix tree +
//! inverted index. Training leaves refinement garbage in it (stale postings
//! and tree paths); `Detector::new` rebuilds it without, and deserialised
//! parsers (`SpellParser::from_parts` — model store, serving, replay) build
//! it from the final keys. A verdict that differs between the two, or from
//! the linear-scan reference, would silently change detection results, so
//! all three are run over realistic
//! corpora from **every** dlasim workload generator — Spark, MapReduce,
//! Tez, Yarn, Nova and TensorFlow — on trained lines, held-out evaluation
//! lines (fresh parameter values, unseen tokens) and adversarial probes,
//! plus every adapter-normalised rendering (Hadoop, Spark, HDFS header,
//! RFC-3164 syslog, JSON lines) of each system's detection corpus, and a
//! key set whose prefix tree forks at every position.

use dlasim::SystemKind;
use intellog_core::{sessions_from_text, training_sessions};
use lognlp::format::AdapterKind;
use spell::{Session, SpellParser};

#[path = "support/forked_keys.rs"]
mod forked_keys;

const ALL_SYSTEMS: [SystemKind; 6] = [
    SystemKind::Spark,
    SystemKind::MapReduce,
    SystemKind::Tez,
    SystemKind::Yarn,
    SystemKind::Nova,
    SystemKind::TensorFlow,
];

/// Train on `train` and return the parser as training leaves it (its
/// index never rebuilt) beside the trainer's detector. Holds the two key
/// sets equal, and holds that `Detector::new` dropped the index garbage.
fn train_both(train: &[Session], ctx: &str) -> (SpellParser, anomaly::Detector) {
    let detector = anomaly::Trainer::default().train(train);
    let mut unrebuilt = SpellParser::default();
    let (mut spans, mut ids) = (Vec::new(), Vec::new());
    for line in train.iter().flat_map(|s| &s.lines) {
        unrebuilt.parse_spans(&line.message, &mut spans, &mut ids);
    }
    assert_eq!(unrebuilt.keys(), detector.parser.keys(), "{ctx}: key sets");
    let mut rebuilt = unrebuilt.clone();
    rebuilt.rebuild_index();
    assert_eq!(
        detector.parser.automaton_stats(),
        rebuilt.automaton_stats(),
        "{ctx}: Detector::new must rebuild the index"
    );
    (unrebuilt, detector)
}

/// Assert the never-rebuilt parser, a clone with its index rebuilt and the
/// linear reference agree on every probe line. Returns how many probes
/// matched some key, so callers can sanity-check that the hit path was
/// actually exercised.
fn assert_three_way(unrebuilt: &SpellParser, probes: &[String], ctx: &str) -> usize {
    let mut rebuilt = unrebuilt.clone();
    rebuilt.rebuild_index();
    let mut hits = 0;
    for line in probes {
        let mut spans = Vec::new();
        let mut ids = Vec::new();
        rebuilt.lookup_line_into(line, &mut spans, &mut ids);
        let got = rebuilt.match_ids(&ids);
        assert_eq!(
            got,
            unrebuilt.match_ids(&ids),
            "{ctx}: rebuilt vs never-rebuilt index diverged on {line:?}"
        );
        assert_eq!(
            got,
            rebuilt.match_ids_linear(&ids),
            "{ctx}: index vs linear diverged on {line:?}"
        );
        hits += got.is_some() as usize;
    }
    hits
}

#[test]
fn all_six_systems_agree_across_matchers() {
    for system in ALL_SYSTEMS {
        let train = training_sessions(system, 3, 7);
        let (parser, _) = train_both(&train, &format!("{system:?}"));

        // Trained lines: every one must hit (it founded or refined a key).
        let train_lines: Vec<String> = train
            .iter()
            .flat_map(|s| s.lines.iter().map(|l| l.message.clone()))
            .collect();
        let hits = assert_three_way(&parser, &train_lines, &format!("{system:?}/train"));
        assert_eq!(hits, train_lines.len(), "{system:?}: trained line missed");

        // Held-out evaluation corpus from a different seed: same templates,
        // fresh parameter values — the UNKNOWN_ID path under load.
        let eval_lines: Vec<String> = training_sessions(system, 2, 91)
            .iter()
            .flat_map(|s| s.lines.iter().map(|l| l.message.clone()))
            .collect();
        let hits = assert_three_way(&parser, &eval_lines, &format!("{system:?}/eval"));
        assert!(hits > 0, "{system:?}: held-out corpus never hit");

        // Adversarial probes: empty, whitespace, single token, pure
        // punctuation, and a long fully-unknown line.
        let adversarial: Vec<String> = vec![
            String::new(),
            "   ".into(),
            "x".into(),
            "[ ] ( ) : , ; !".into(),
            (0..40)
                .map(|i| format!("zz{i}"))
                .collect::<Vec<_>>()
                .join(" "),
        ];
        assert_three_way(&parser, &adversarial, &format!("{system:?}/adversarial"));
    }
}

/// Adapter-normalised corpora flow through the same three-way check:
/// messages recovered from renderings of every system's detection corpus
/// in each of the five line syntaxes must get identical verdicts from the
/// never-rebuilt index, the rebuilt one and the linear reference. The adapters hand
/// Spell byte-identical message bodies, so the held-out hit rate must be
/// non-zero exactly as it is on the structural path.
#[test]
fn adapter_normalized_corpora_agree_across_matchers() {
    for system in ALL_SYSTEMS {
        let train = training_sessions(system, 2, 7);
        let (parser, _) = train_both(&train, &format!("{system:?}"));
        let mut gen = dlasim::WorkloadGen::new(60 + system as u64, 8);
        let job = dlasim::generate(&gen.detection_config(system, 0), None);
        for format in AdapterKind::ALL {
            let probes: Vec<String> = sessions_from_text(&job, format)
                .iter()
                .flat_map(|s| s.lines.iter().map(|l| l.message.clone()))
                .collect();
            let ctx = format!("{system:?}/{}", format.name());
            assert!(!probes.is_empty(), "{ctx}: adapted corpus is empty");
            let hits = assert_three_way(&parser, &probes, &ctx);
            assert!(hits > 0, "{ctx}: adapted corpus never hit a key");
        }
    }
}

/// `bench_pipeline`'s 1,200-key synthetic set, as its training left it:
/// two instances per key, so every key was refined once and the index
/// holds what the threshold rebuilds have not yet dropped. Exact
/// instances, near misses and unknown lines all cross the three matchers.
#[test]
fn synthetic_key_set_agrees_across_matchers() {
    let (parser, probes) = intellog_bench::synthetic_keyset(1200, 600);
    assert_eq!(parser.len(), 1200);
    let mut rebuilt = parser.clone();
    rebuilt.rebuild_index();
    let stats = |p: &SpellParser| p.automaton_stats().expect("index stats").states;
    assert!(
        stats(&parser) > stats(&rebuilt),
        "the synthetic set must carry index garbage"
    );
    let hits = assert_three_way(&parser, &probes, "synthetic");
    assert_eq!(hits, probes.len() * 9 / 10, "every unknown probe misses");
}

/// A wide walk: one probe keeps all 256 leaves of a length bucket's
/// prefix tree live, others 64 or a few, and the near misses fall through
/// to the scored phase over every key of the bucket.
#[test]
fn forked_key_set_agrees_across_matchers() {
    let parser = forked_keys::forked_parser();
    assert_eq!(parser.len(), 256);
    let stats = parser.automaton_stats().expect("index stats");
    assert_eq!(stats.buckets, 1);
    // Every prefix of a fork pattern is a node; the tail adds two per leaf.
    assert_eq!(stats.states, (1 << 9) - 1 + 2 * 256);
    let probes = forked_keys::forked_probes();
    let hits = assert_three_way(&parser, &probes, "forked");
    assert_eq!(hits, probes.len() - 1, "only the nine-token probe misses");
    for line in &probes[..4] {
        let key = parser.match_line(line).expect("an instance");
        assert!(
            parser
                .key(key)
                .tokens
                .iter()
                .zip(line.split(' '))
                .all(|(k, m)| k == "*" || k == m),
            "{line:?} matched {:?}, not an instance",
            parser.key(key).render()
        );
    }
}

/// Serialise → deserialise must land on a parser whose verdicts are
/// identical to the trained one's — the model-store / serving load path —
/// with no index garbage to drop.
#[test]
fn deserialized_parser_is_equivalent() {
    let train = training_sessions(SystemKind::Spark, 3, 7);
    let detector = anomaly::Trainer::default().train(&train);
    let json = serde_json::to_string(&detector.parser).expect("serialize parser");
    let loaded: SpellParser = serde_json::from_str(&json).expect("deserialize parser");
    assert_eq!(
        loaded.automaton_stats(),
        detector.parser.automaton_stats(),
        "from_parts builds the index the trainer's rebuild does"
    );
    let probes: Vec<String> = training_sessions(SystemKind::Spark, 2, 91)
        .iter()
        .flat_map(|s| s.lines.iter().map(|l| l.message.clone()))
        .collect();
    for line in &probes {
        assert_eq!(
            loaded.match_line(line),
            detector.parser.match_line(line),
            "round-tripped parser diverged on {line:?}"
        );
    }
}
