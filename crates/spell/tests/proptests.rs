//! Property-based tests for Spell invariants.

use proptest::prelude::*;
use spell::{lcs::lcs_len, ParseOutcome, SpellParser, TokenId, STAR};

fn word() -> impl Strategy<Value = String> {
    "[a-z]{1,6}"
}

fn message() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(word(), 1..12)
}

/// Feed one generated message through the parser's one parse door. Words
/// are `[a-z]{1,6}`, so joining on spaces and re-tokenising is lossless
/// (`deterministic_assignment` asserts it).
fn parse(p: &mut SpellParser, msg: &[String]) -> ParseOutcome {
    p.parse_message(&msg.join(" "))
}

/// Words from a three-letter alphabet and short numbers: streams of these
/// share prefixes, repeat tokens within a message and collide in length all
/// the time, so most lines match, refine or tie instead of founding.
fn dense_message() -> impl Strategy<Value = String> {
    let word = prop_oneof!["[a-c]{1,2}", "[a-c]", "[0-9]{1,2}"];
    prop::collection::vec(word, 0..8).prop_map(|words| words.join(" "))
}

/// Feed `stream` to the id-level training door and, beside it, to the
/// interning door it replaced; hold the two parsers equal after every line.
/// Returns the new door's parser and the token count of the messages that
/// founded its keys.
fn differential(stream: &[String]) -> (SpellParser, usize) {
    let (mut new, mut old) = (SpellParser::default(), SpellParser::default());
    let (mut spans, mut ids) = (Vec::new(), Vec::new());
    let mut founding_tokens = 0;
    for line in stream {
        let want = old.parse_message_interning(line);
        let got = new.parse_spans(line, &mut spans, &mut ids);
        assert_eq!(got, (want.key_id, want.is_new_key), "line {:?}", line);
        assert_eq!(spans.len(), want.tokens.len());
        if got.1 {
            founding_tokens += spans.len();
        }
        // `LogKey: PartialEq` compares id, tokens, sample and count.
        assert_eq!(new.keys(), old.keys(), "after {:?}", line);
        new.lookup_line_into(line, &mut spans, &mut ids);
        assert_eq!(new.match_ids(&ids), new.match_ids_linear(&ids));
        assert_eq!(new.match_ids(&ids), Some(got.0));
    }
    assert_eq!(
        serde_json::to_string(&new).unwrap(),
        serde_json::to_string(&old).unwrap()
    );
    // Only founding messages are interned (`*` is the one extra entry) —
    // the dictionary a model file rebuilds on load; the old door kept
    // every parameter value it ever saw.
    assert!(new.interned_len() <= 1 + founding_tokens);
    assert!(new.interned_len() <= old.interned_len());
    (new, founding_tokens)
}

/// Read-only interned form of a generated message (unseen → `UNKNOWN_ID`).
fn ids_of(p: &SpellParser, msg: &[String]) -> Vec<TokenId> {
    let (mut spans, mut ids) = (Vec::new(), Vec::new());
    p.lookup_line_into(&msg.join(" "), &mut spans, &mut ids);
    ids
}

proptest! {
    /// The id-level door is the interning door: same outcome per line, same
    /// keys field by field, indexed == linear throughout, same model bytes.
    #[test]
    fn parse_spans_equals_interning_oracle(
        dense in prop::collection::vec(dense_message(), 1..80),
        sparse in prop::collection::vec(message(), 0..20),
    ) {
        // dense lines first, then dense and sparse interleaved
        let sparse = sparse.iter().map(|m| m.join(" "));
        let mixed = dense.iter().cloned().zip(sparse).flat_map(|(a, b)| [a, b]);
        let stream: Vec<String> = dense.iter().cloned().chain(mixed).collect();
        differential(&stream);
    }

    /// Feeding the same message twice always lands on the same key and
    /// never creates a second key.
    #[test]
    fn deterministic_assignment(msg in message()) {
        let mut p = SpellParser::default();
        let a = parse(&mut p, &msg);
        let b = parse(&mut p, &msg);
        prop_assert_eq!(&a.tokens, &msg);
        prop_assert_eq!(a.key_id, b.key_id);
        prop_assert!(a.is_new_key);
        prop_assert!(!b.is_new_key);
        prop_assert_eq!(p.len(), 1);
    }

    /// Every parsed message matches the key it was assigned to afterwards.
    #[test]
    fn assigned_key_matches_message(msgs in prop::collection::vec(message(), 1..30)) {
        let mut p = SpellParser::default();
        for m in msgs {
            let out = parse(&mut p, &m);
            prop_assert!(p.key(out.key_id).matches(&m),
                "key {:?} should match {:?}", p.key(out.key_id).tokens, m);
        }
    }

    /// Keys only ever gain stars: the constant length is non-increasing for
    /// a given key as more messages arrive.
    #[test]
    fn constant_length_monotone(msgs in prop::collection::vec(message(), 1..30)) {
        let mut p = SpellParser::default();
        let mut consts: std::collections::HashMap<spell::KeyId, usize> = Default::default();
        for m in msgs {
            let out = parse(&mut p, &m);
            let c = p.key(out.key_id).constant_len();
            if let Some(prev) = consts.insert(out.key_id, c) {
                prop_assert!(c <= prev);
            }
        }
    }

    /// The key count never exceeds the number of distinct messages fed.
    #[test]
    fn key_count_bounded(msgs in prop::collection::vec(message(), 1..40)) {
        let mut p = SpellParser::default();
        let distinct: std::collections::HashSet<_> = msgs.iter().cloned().collect();
        for m in &msgs {
            parse(&mut p, m);
        }
        prop_assert!(p.len() <= distinct.len());
        let total: u64 = p.keys().iter().map(|k| k.count).sum();
        prop_assert_eq!(total as usize, msgs.len());
    }

    /// A key's sample message is an instance of the key, and the key has a
    /// star wherever the sample and key disagree — never elsewhere.
    #[test]
    fn sample_instance_invariant(msgs in prop::collection::vec(message(), 1..30)) {
        let mut p = SpellParser::default();
        for m in &msgs {
            parse(&mut p, m);
        }
        for k in p.keys() {
            prop_assert!(k.matches(&k.sample));
            for (kt, st) in k.tokens.iter().zip(&k.sample) {
                if kt != STAR {
                    prop_assert_eq!(kt, st);
                }
            }
        }
    }

    /// LCS length is symmetric and bounded by both lengths.
    #[test]
    fn lcs_props(a in message(), b in message()) {
        let l = lcs_len(&a, &b);
        prop_assert_eq!(l, lcs_len(&b, &a));
        prop_assert!(l <= a.len().min(b.len()));
    }

    /// The live-index matcher agrees with the linear-scan reference
    /// matcher — both mid-training (after every parse, against the evolving
    /// key set) and on held-out probes containing tokens the parser never
    /// interned.
    #[test]
    fn indexed_matcher_equals_linear(
        msgs in prop::collection::vec(message(), 1..40),
        probes in prop::collection::vec(message(), 1..10),
    ) {
        let mut p = SpellParser::default();
        for m in &msgs {
            parse(&mut p, m);
            let ids = ids_of(&p, m);
            prop_assert_eq!(p.match_ids(&ids), p.match_ids_linear(&ids));
        }
        for probe in &probes {
            let ids = ids_of(&p, probe);
            prop_assert_eq!(
                p.match_ids(&ids),
                p.match_ids_linear(&ids),
                "probe {:?} diverged", probe
            );
        }
    }

    /// Serialisation drops the derived index/interner state; a round-trip
    /// must reproduce the keys and the same match results.
    #[test]
    fn serde_roundtrip_equivalence(
        msgs in prop::collection::vec(message(), 1..30),
        probes in prop::collection::vec(message(), 1..8),
    ) {
        let mut p = SpellParser::default();
        for m in &msgs {
            parse(&mut p, m);
        }
        let json = serde_json::to_string(&p).unwrap();
        let q: SpellParser = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(q.keys(), p.keys());
        // Deserialised parsers arrive frozen (the serving/replay read-path
        // configuration), so this also crosses automaton vs live index.
        prop_assert!(q.is_frozen());
        for probe in &probes {
            let line = probe.join(" ");
            prop_assert_eq!(q.match_line(&line), p.match_line(&line));
        }
    }

    /// Three-way matcher equivalence: the compiled key automaton (frozen
    /// parser), the live prefix-tree + inverted index, and the linear-scan
    /// reference must return the same verdict on every probe — trained
    /// messages and held-out probes with never-interned tokens alike.
    #[test]
    fn automaton_equals_index_equals_linear(
        msgs in prop::collection::vec(message(), 1..40),
        probes in prop::collection::vec(message(), 1..10),
    ) {
        let mut p = SpellParser::default();
        for m in &msgs {
            parse(&mut p, m);
        }
        p.freeze();
        prop_assert!(p.is_frozen());
        let mut thawed = p.clone();
        thawed.thaw();
        for probe in msgs.iter().chain(&probes) {
            let ids = ids_of(&p, probe);
            let auto = p.match_ids(&ids);
            prop_assert_eq!(
                auto, thawed.match_ids(&ids),
                "automaton vs live index diverged on {:?}", probe
            );
            prop_assert_eq!(
                auto, p.match_ids_linear(&ids),
                "automaton vs linear diverged on {:?}", probe
            );
        }
    }

    /// Training after a freeze invalidates the automaton (a stale compiled
    /// key set must never answer for a grown one), and refreezing restores
    /// verdicts identical to the reference matcher.
    #[test]
    fn training_invalidates_freeze_and_refreeze_agrees(
        before in prop::collection::vec(message(), 1..20),
        after in prop::collection::vec(message(), 1..20),
    ) {
        let mut p = SpellParser::default();
        for m in &before {
            parse(&mut p, m);
        }
        p.freeze();
        prop_assert!(p.is_frozen());
        for m in &after {
            parse(&mut p, m);
        }
        prop_assert!(!p.is_frozen(), "training must thaw the automaton");
        p.freeze();
        for probe in before.iter().chain(&after) {
            let ids = ids_of(&p, probe);
            prop_assert_eq!(p.match_ids(&ids), p.match_ids_linear(&ids));
        }
    }
}

/// The differential over what the trainer actually reads: every message of
/// two training jobs of each simulated system, in corpus order.
#[test]
fn parse_spans_equals_interning_oracle_on_simulated_corpora() {
    use dlasim::{SystemKind, WorkloadGen};
    for system in [
        SystemKind::Spark,
        SystemKind::MapReduce,
        SystemKind::Tez,
        SystemKind::Yarn,
        SystemKind::Nova,
        SystemKind::TensorFlow,
    ] {
        let mut gen = WorkloadGen::new(7, 8);
        let stream: Vec<String> = (0..2)
            .map(|_| dlasim::generate(&gen.training_config(system), None))
            .flat_map(|job| job.sessions)
            .flat_map(|session| session.lines)
            .map(|line| line.message)
            .collect();
        let (parser, _) = differential(&stream);
        assert!(
            parser.len() > 2 && stream.len() > 4 * parser.len(),
            "{system:?}: {} keys from {} lines is not a training corpus",
            parser.len(),
            stream.len()
        );
    }
}
