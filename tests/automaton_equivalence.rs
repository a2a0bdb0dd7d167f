//! Cross-system matcher-equivalence suite for the compiled key automaton.
//!
//! The frozen automaton is the production read path: `Detector::new`
//! freezes the trained parser, and deserialised parsers
//! (`SpellParser::from_parts` — model store, serving, replay) arrive
//! frozen. A verdict that differs from the live prefix-tree + inverted
//! index, or from the linear-scan reference, would silently change
//! detection results, so all three matchers are run over realistic
//! corpora from **every** dlasim workload generator — Spark, MapReduce,
//! Tez, Yarn, Nova and TensorFlow — on trained lines, held-out evaluation
//! lines (fresh parameter values, unseen tokens) and adversarial probes,
//! plus every adapter-normalised rendering (Hadoop, Spark, HDFS header,
//! RFC-3164 syslog, JSON lines) of each system's detection corpus.

use dlasim::SystemKind;
use intellog_bench::training_sessions;
use intellog_core::sessions_from_text;
use lognlp::format::AdapterKind;
use spell::SpellParser;

const ALL_SYSTEMS: [SystemKind; 6] = [
    SystemKind::Spark,
    SystemKind::MapReduce,
    SystemKind::Tez,
    SystemKind::Yarn,
    SystemKind::Nova,
    SystemKind::TensorFlow,
];

/// Assert the frozen automaton, the live index (a thawed clone's
/// `match_ids`) and the linear reference agree on every probe line.
/// Returns how many probes matched some key, so callers can sanity-check
/// that the hit path was actually exercised.
fn assert_three_way(parser: &SpellParser, probes: &[String], ctx: &str) -> usize {
    assert!(parser.is_frozen(), "{ctx}: parser must be frozen");
    let mut thawed = parser.clone();
    thawed.thaw();
    let mut hits = 0;
    for line in probes {
        let mut spans = Vec::new();
        let mut ids = Vec::new();
        parser.lookup_line_into(line, &mut spans, &mut ids);
        let auto = parser.match_ids(&ids);
        assert_eq!(
            auto,
            thawed.match_ids(&ids),
            "{ctx}: automaton vs live index diverged on {line:?}"
        );
        assert_eq!(
            auto,
            parser.match_ids_linear(&ids),
            "{ctx}: automaton vs linear diverged on {line:?}"
        );
        hits += auto.is_some() as usize;
    }
    hits
}

#[test]
fn all_six_systems_agree_across_matchers() {
    for system in ALL_SYSTEMS {
        let train = training_sessions(system, 3, 7);
        let detector = anomaly::Trainer::default().train(&train);
        assert!(
            detector.parser.is_frozen(),
            "{system:?}: Detector::new must freeze the trained parser"
        );

        // Trained lines: every one must hit (it founded or refined a key).
        let train_lines: Vec<String> = train
            .iter()
            .flat_map(|s| s.lines.iter().map(|l| l.message.clone()))
            .collect();
        let hits = assert_three_way(&detector.parser, &train_lines, &format!("{system:?}/train"));
        assert_eq!(hits, train_lines.len(), "{system:?}: trained line missed");

        // Held-out evaluation corpus from a different seed: same templates,
        // fresh parameter values — the UNKNOWN_ID path under load.
        let eval_lines: Vec<String> = training_sessions(system, 2, 91)
            .iter()
            .flat_map(|s| s.lines.iter().map(|l| l.message.clone()))
            .collect();
        let hits = assert_three_way(&detector.parser, &eval_lines, &format!("{system:?}/eval"));
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
        assert_three_way(
            &detector.parser,
            &adversarial,
            &format!("{system:?}/adversarial"),
        );
    }
}

/// Adapter-normalised corpora flow through the same three-way check:
/// messages recovered from renderings of every system's detection corpus
/// in each of the five line syntaxes must get identical verdicts from the
/// automaton, the live index and the linear reference. The adapters hand
/// Spell byte-identical message bodies, so the held-out hit rate must be
/// non-zero exactly as it is on the structural path.
#[test]
fn adapter_normalized_corpora_agree_across_matchers() {
    for system in ALL_SYSTEMS {
        let train = training_sessions(system, 2, 7);
        let detector = anomaly::Trainer::default().train(&train);
        let mut gen = dlasim::WorkloadGen::new(60 + system as u64, 8);
        let job = dlasim::generate(&gen.detection_config(system, 0), None);
        for format in AdapterKind::ALL {
            let probes: Vec<String> = sessions_from_text(&job, format)
                .iter()
                .flat_map(|s| s.lines.iter().map(|l| l.message.clone()))
                .collect();
            let ctx = format!("{system:?}/{}", format.name());
            assert!(!probes.is_empty(), "{ctx}: adapted corpus is empty");
            let hits = assert_three_way(&detector.parser, &probes, &ctx);
            assert!(hits > 0, "{ctx}: adapted corpus never hit a key");
        }
    }
}

/// Serialise → deserialise must land on a frozen parser whose verdicts are
/// identical to the original — the model-store / serving load path.
#[test]
fn deserialized_parser_is_frozen_and_equivalent() {
    let train = training_sessions(SystemKind::Spark, 3, 7);
    let detector = anomaly::Trainer::default().train(&train);
    let json = serde_json::to_string(&detector.parser).expect("serialize parser");
    let thawed: SpellParser = serde_json::from_str(&json).expect("deserialize parser");
    assert!(thawed.is_frozen(), "from_parts must freeze");
    let probes: Vec<String> = training_sessions(SystemKind::Spark, 2, 91)
        .iter()
        .flat_map(|s| s.lines.iter().map(|l| l.message.clone()))
        .collect();
    for line in &probes {
        assert_eq!(
            thawed.match_line(line),
            detector.parser.match_line(line),
            "round-tripped parser diverged on {line:?}"
        );
    }
}
