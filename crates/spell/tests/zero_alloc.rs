//! Literal zero-allocation proof for the byte-level ingest path.
//!
//! The binary installs the counting global allocator of
//! `tests/support/counting_alloc.rs` so the claims in `parser.rs` are
//! checked as stated, not approximated:
//!
//! * `match_line` performs **zero** heap allocations — tokenise to spans,
//!   intern-lookup by byte slice, the prefix-tree walk and the scoring pass
//!   all run out of per-thread scratch — on each way a match ends (an exact
//!   instance, a near miss the scoring pass decides, a line no key
//!   matches), on an index that carries refinement garbage and on a
//!   rebuilt one, also when the exact phase's walk holds 256 tree nodes at
//!   once;
//! * the `lognlp::format` adapters normalise raw lines (Hadoop, Spark,
//!   HDFS/BGL header, RFC-3164 syslog, JSON) with **zero** heap allocations — the
//!   returned record borrows from the input — and feeding an adapted
//!   message to the matcher stays allocation-free end to end;
//! * `parse_spans`, the training door, performs **zero** heap allocations
//!   for a line that matches a key without changing it — never-seen
//!   parameter values included — and interns nothing for it; so do its two
//!   halves called apart, `prepare` and `parse_prepared`, with the caller's
//!   buffers reused.
//!
//! The tests warm the per-thread scratch first: scratch buffers and the
//! scoring pass's dense overlap array grow to their high-water mark on the
//! first pass and
//! are reused (cleared, capacity kept) afterwards. The measured passes run
//! the exact same probes, so any allocation they observe is a genuine
//! per-line cost, not warmup.

use spell::{KeyId, SpellParser, STAR};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

#[path = "../../../tests/support/forked_keys.rs"]
mod forked_keys;

/// Training corpus: several templates, two instances each so real `*`
/// positions exist, plus host:port and bracket shapes so the span
/// tokeniser's edge cases are on the measured path.
fn corpus() -> Vec<String> {
    let mut lines = Vec::new();
    for i in 0..12u32 {
        lines.push(format!("Starting task {i} in stage 0 on host{i}:13562"));
        lines.push(format!(
            "Finished task {i} in stage 0 and sent {} bytes to driver",
            i * 97
        ));
        lines.push(format!(
            "[fetcher # {i}] read {} bytes from map-output for attempt_{i}",
            i * 31
        ));
        lines.push(format!("Registering block manager endpoint on host{i}"));
    }
    lines
}

/// Probe mix for the read path: exact instances, fresh parameter values
/// (unseen ids → UNKNOWN_ID), a near-miss, and a fully unknown line.
fn probes() -> Vec<String> {
    let mut p = corpus();
    p.push("Starting task 9999 in stage 7 on host9999:13562".into());
    p.push("Finishing task 3 in stage 0 and sent 42 bytes to driver".into());
    p.push("completely unrelated text never seen in training".into());
    p
}

/// How a match ends, each class measured apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// The prefix-tree walk finds a key the line instantiates.
    Exact,
    /// No instance: the scoring pass picks a key by LCS.
    Scored,
    /// No key matches.
    Unknown,
}

/// The verdict on `line` and how it was reached.
fn classify(parser: &SpellParser, line: &str) -> (Option<KeyId>, Class) {
    let Some(id) = parser.match_line(line) else {
        return (None, Class::Unknown);
    };
    let tokens = spell::tokenize_message(line);
    let key = &parser.key(id).tokens;
    let instance = key.iter().zip(&tokens).all(|(k, t)| k == STAR || k == t);
    let class = if instance {
        Class::Exact
    } else {
        Class::Scored
    };
    (Some(id), class)
}

#[test]
fn match_line_is_allocation_free_on_each_probe_class() {
    let mut trained = SpellParser::default();
    for line in corpus() {
        trained.parse_message(&line);
    }
    let mut rebuilt = trained.clone();
    rebuilt.rebuild_index();
    // The trained templates as training leaves them (stale postings and
    // tree paths included) and as detection matches on them, and a key set
    // whose prefix tree forks at every position (one probe keeps 256 nodes
    // live).
    let inputs = [
        ("trained", trained, probes()),
        ("rebuilt", rebuilt, probes()),
        (
            "forked",
            forked_keys::forked_parser(),
            forked_keys::forked_probes(),
        ),
    ];
    for (name, parser, probes) in &inputs {
        // Warmup: grow every scratch buffer to its high-water mark and
        // record the expected verdicts.
        let verdicts: Vec<(Option<KeyId>, Class)> =
            probes.iter().map(|l| classify(parser, l)).collect();
        for class in [Class::Exact, Class::Scored, Class::Unknown] {
            let lines: Vec<(&String, Option<KeyId>)> = probes
                .iter()
                .zip(&verdicts)
                .filter(|(_, (_, c))| *c == class)
                .map(|(line, (want, _))| (line, *want))
                .collect();
            assert!(!lines.is_empty(), "{name}: no {class:?} probe");
            let before = allocations();
            for _ in 0..3 {
                for (line, want) in &lines {
                    assert_eq!(parser.match_line(line), *want);
                }
            }
            assert_eq!(
                allocations() - before,
                0,
                "{name}: match_line allocated on a steady-state {class:?} probe"
            );
        }
    }
}

#[test]
fn steady_state_training_line_is_allocation_free() {
    let mut parser = SpellParser::default();
    let (mut spans, mut ids) = (Vec::new(), Vec::new());
    // Warmup: learn the keys and grow the line buffers and the live
    // index's scratch. Twice, so that the second pass changes nothing.
    for line in corpus().iter().chain(&corpus()) {
        parser.parse_spans(line, &mut spans, &mut ids);
    }
    // Exact instances, and instances whose parameter values no line has
    // shown before: neither founds nor refines.
    let steady: Vec<String> = probes()
        .into_iter()
        .filter(|l| parser.match_line(l).is_some())
        .chain([
            "Finished task 9999 in stage 0 and sent 424242 bytes to driver".to_string(),
            "[fetcher # 9999] read 77777 bytes from map-output for attempt_9999".to_string(),
            "Registering block manager endpoint on host9999:13562".to_string(),
        ])
        .collect();
    assert!(steady.len() >= corpus().len() + 4);
    for line in &steady {
        parser.parse_spans(line, &mut spans, &mut ids);
    }
    let keys = parser.keys().to_vec();
    let interned = parser.interned_len();

    let before = allocations();
    for _ in 0..3 {
        for line in &steady {
            let (_, founded) = parser.parse_spans(line, &mut spans, &mut ids);
            assert!(!founded);
        }
    }
    assert_eq!(
        allocations() - before,
        0,
        "parse_spans allocated on a line that changed no key"
    );
    // The two halves apart, as the parallel trainer calls them, once
    // `hashes` has grown to the longest line.
    let mut hashes = Vec::new();
    for line in &steady {
        SpellParser::prepare(line, &mut spans, &mut hashes);
    }
    let (mut prepared, mut parsed) = (0, 0);
    for _ in 0..3 {
        for line in &steady {
            let before = allocations();
            SpellParser::prepare(line, &mut spans, &mut hashes);
            prepared += allocations() - before;
            let before = allocations();
            let (_, founded) = parser.parse_prepared(line, &spans, &hashes, &mut ids);
            parsed += allocations() - before;
            assert!(!founded);
        }
    }
    assert_eq!(prepared, 0, "prepare allocated on a steady line");
    assert_eq!(
        parsed, 0,
        "parse_prepared allocated on a line that changed no key"
    );
    assert_eq!(
        parser.interned_len(),
        interned,
        "a steady line was interned"
    );
    // Only the hit counts moved.
    assert_eq!(parser.len(), keys.len());
    for (now, then) in parser.keys().iter().zip(&keys) {
        assert_eq!((&now.tokens, &now.sample), (&then.tokens, &then.sample));
    }

    // The counter does count: a refining and a founding line allocate.
    let before = allocations();
    let (id, founded) = parser.parse_spans(
        "Registering shuffle manager endpoint on host3",
        &mut spans,
        &mut ids,
    );
    assert!(!founded && parser.key(id).render() == "Registering * manager endpoint on *");
    assert!(allocations() > before, "a refinement builds a `*` token");
    let before = allocations();
    let (_, founded) = parser.parse_spans(
        "completely unrelated text never seen in training",
        &mut spans,
        &mut ids,
    );
    assert!(founded);
    assert!(allocations() > before, "a founding line builds its key");
    assert!(parser.interned_len() > interned);
}

/// The probe corpus rendered in each adapter's syntax, with headers typical
/// of that format and the less common shapes each adapter branches on:
/// CRLF endings, `%-5p`-padded levels, Hadoop lines without a `[thread]`,
/// and JSON with escapes, an extra field and a 13-digit `ts`. Message
/// bodies are the exact probe lines, so the adapted ingest exercises the
/// same hit/miss mix as the bare-message test.
fn foreign_probes() -> Vec<(lognlp::format::AdapterKind, Vec<String>)> {
    use lognlp::format::AdapterKind;
    let probes = probes();
    let render = |line: &dyn Fn(usize, &str) -> String| -> Vec<String> {
        probes.iter().enumerate().map(|(i, m)| line(i, m)).collect()
    };
    vec![
        (
            AdapterKind::Hadoop,
            render(&|i, m| {
                let stamp = format!("2019-06-22 01:{:02}:{:02},{:03}", i / 60, i % 60, i % 1000);
                match i % 4 {
                    0 => format!("{stamp} INFO [task {i}] spell.Task: {m}"),
                    1 => format!("{stamp} INFO [task {i}] spell.Task: {m}\r\n"),
                    2 => format!("{stamp} WARN  [task {i}] spell.Task: {m}"),
                    _ => format!("{stamp} INFO spell.Task: {m}"),
                }
            }),
        ),
        (
            AdapterKind::Spark,
            render(&|i, m| {
                let stamp = format!("19/06/22 01:{:02}:{:02}", i / 60, i % 60);
                match i % 3 {
                    0 => format!("{stamp} INFO Task: {m}"),
                    1 => format!("{stamp} INFO Task: {m}\r\n"),
                    _ => format!("{stamp} WARN  Task: {m}"),
                }
            }),
        ),
        (
            AdapterKind::Hdfs,
            render(&|i, m| {
                let eol = if i % 2 == 1 { "\r\n" } else { "" };
                format!(
                    "190622 01{:02}{:02} 148 INFO spell.Task: {m}{eol}",
                    i / 60,
                    i % 60
                )
            }),
        ),
        (
            AdapterKind::Syslog,
            render(&|i, m| {
                let eol = if i % 2 == 1 { "\r\n" } else { "" };
                format!(
                    "<134>Jun 22 01:{:02}:{:02} host3 Task: {m}{eol}",
                    i / 60,
                    i % 60
                )
            }),
        ),
        (
            AdapterKind::Json,
            render(&|i, m| match i % 3 {
                0 => format!(r#"{{"ts":{i},"level":"INFO","source":"Task","msg":"{m}"}}"#),
                1 => format!(r#"{{"ts":{i},"level":"INFO","source":"Task","msg":"{m}"}}"#) + "\r\n",
                _ => format!(
                    r#"{{"ts":1754600000{i:03},"level":"INFO","note":"a \"quoted\" C:\\path","extra":7,"source":"Task","msg":"{m}"}}"#
                ),
            }),
        ),
    ]
}

#[test]
fn adapted_ingest_is_allocation_free() {
    let mut parser = SpellParser::default();
    for line in corpus() {
        parser.parse_message(&line);
    }
    parser.rebuild_index();
    let foreign = foreign_probes();

    // Warmup: verify every foreign line adapts to its probe message and
    // record the expected verdicts, growing the matcher scratch.
    let mut expected: Vec<Vec<Option<spell::KeyId>>> = Vec::new();
    for (kind, lines) in &foreign {
        let mut verdicts = Vec::new();
        for (line, probe) in lines.iter().zip(probes()) {
            let rec = kind
                .parse_record(line)
                .unwrap_or_else(|e| panic!("{kind:?} rejected {line:?}: {e}"));
            assert_eq!(rec.message, probe, "{kind:?} mangled the message body");
            verdicts.push(parser.match_line(rec.message));
        }
        assert!(
            verdicts.iter().filter(|v| v.is_some()).count() >= corpus().len(),
            "{kind:?}: adapted probe mix must exercise the hit path"
        );
        expected.push(verdicts);
    }

    let before = allocations();
    for _ in 0..3 {
        for ((kind, lines), verdicts) in foreign.iter().zip(&expected) {
            for (line, want) in lines.iter().zip(verdicts) {
                let rec = match kind.parse_record(line) {
                    Ok(rec) => rec,
                    Err(_) => unreachable!("validated during warmup"),
                };
                assert_eq!(parser.match_line(rec.message), *want);
            }
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "adapter normalisation + match allocated on the steady state"
    );
}
