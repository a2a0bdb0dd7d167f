//! Property-based tests for the line-format adapters.
//!
//! Four families of properties:
//!
//! * **Never-panic / typed errors** — printable junk, near-miss headers of
//!   every syntax (padded levels, `]` inside thread names, tabs, CR/CRLF
//!   endings, U+00A0/U+3000 spaces, U+FFFD), truncated lines and near-miss
//!   JSON through every adapter always return `Ok`/`Err(FormatError)`,
//!   never panic. The generators make text, not arbitrary bytes: an adapter
//!   takes a `&str`, and its callers decode invalid bytes to U+FFFD first;
//! * **Round-trip** — a record rendered in each syntax and parsed back
//!   yields the same level, source and message (and exact `ts` for JSON);
//! * **Lockstep** — tokenising an adapted message produces exactly the
//!   spans the reference tokenizer produces on the normalised line, i.e.
//!   adapters hand Spell byte-identical message bodies;
//! * **Oracle** — on every line any strategy here makes, `parse_record`
//!   returns exactly what the parsers the byte scanners replaced return
//!   (`src/format/oracle.rs`, included by path), record or error, in all
//!   five syntaxes.

use lognlp::format::{AdapterKind, FormatError, Level, RawRecord};
use lognlp::{tokenize_spans, Span};
use proptest::prelude::*;

#[path = "../src/format/oracle.rs"]
mod oracle;

/// Message/source material without the characters JSON strings must
/// escape — escape sequences are passed through verbatim by design, so
/// exact round-trips are only promised for this (typical) subset.
/// (The vendored proptest's pattern dialect takes class members literally,
/// so `.`, `#` and a trailing `-` need no escaping.)
fn plain_text() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_#*:/. -]{0,60}"
}

fn source_token() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_.$]{0,20}"
}

fn level() -> impl Strategy<Value = Level> {
    prop_oneof![Just(Level::Info), Just(Level::Warn), Just(Level::Error),]
}

/// A literal string (no pattern syntax).
fn lit(s: &'static str) -> Just<String> {
    Just(s.to_string())
}

/// What may separate tokens: nothing, ASCII blanks, CR, and the Unicode
/// spaces U+00A0 and U+3000, which `str::trim` skips and ASCII tests miss.
fn gap() -> impl Strategy<Value = String> {
    prop_oneof![
        lit(""),
        lit(" "),
        lit("\t"),
        lit("\r"),
        lit("\u{A0}"),
        lit("\u{3000}")
    ]
}

/// Log4j lines as layouts really pad them: `%-5p` levels, threads with
/// spaces or a `]` inside, separators with no space after the colon.
fn log4j_line() -> impl Strategy<Value = String> {
    (
        prop_oneof![
            lit("2019-06-22 10:00:01,123"),
            lit("19/06/22 10:00:01"),
            "[0-9]{1,4}[-/][0-9]{1,3}[-/][0-9]{1,3} [0-9]{1,2}:[0-9]{1,2}:[0-9]{1,2}[,0-9]{0,5}",
        ],
        prop_oneof![
            lit("INFO"),
            lit("WARN"),
            lit("ERROR"),
            lit("WARNING"),
            "[A-Z]{3,7}"
        ],
        "[ \t]{1,3}",
        prop_oneof![
            lit(""),
            lit("[main] "),
            lit("[IPC Server handler 3 on 8020] "),
            lit("[pool-1]-thread] "),
            lit("[no close "),
            "\\[[ -~]{0,16}\\][ \u{A0}\u{3000}]{0,2}",
        ],
        "[a-zA-Z.$]{0,20}",
        prop_oneof![lit(": "), lit(":"), lit(" : "), lit("::"), lit(":\u{A0}")],
        "[ -~\t\u{A0}\u{3000}\u{FFFD}é]{0,40}",
    )
        .prop_map(|(stamp, level, pad, thread, src, cut, msg)| {
            format!("{stamp} {level}{pad}{thread}{src}{cut}{msg}")
        })
}

/// One `"key" : value` member of a near-miss JSON object: known and unknown
/// keys, scalars, escapes, broken strings and nested containers.
fn json_member() -> impl Strategy<Value = String> {
    let key = prop_oneof![
        lit("ts"),
        lit("level"),
        lit("source"),
        lit("logger"),
        lit("msg"),
        lit("message"),
        lit(r#"m\"sg"#),
        "[a-z]{0,6}",
    ];
    let value = prop_oneof![
        "[0-9]{1,20}",
        "[0-9]{13}",
        lit("9e9"),
        lit("-1.5"),
        lit("true"),
        lit(""),
        lit(r#""INFO""#),
        lit(r#""WARNING""#),
        lit(r#""LOUD""#),
        "\"[a-zA-Z0-9 :]{0,24}\"",
        "\"[ -~\u{A0}\u{FFFD}é]{0,24}\"",
        lit(r#""path \"/tmp\\x\" gone""#),
        lit(r#""ends in \\""#),
        lit(r#""cut \"#),
        lit(r#"{"a":1}"#),
        lit("[1,2]"),
    ];
    (key, gap(), gap(), value).prop_map(|(k, a, b, v)| format!("\"{k}\"{a}:{b}{v}"))
}

/// Near-miss JSON objects: a few members, spaced any way, closed or not.
fn json_line() -> impl Strategy<Value = String> {
    (
        gap(),
        prop::collection::vec(json_member(), 0..6),
        gap(),
        prop_oneof![lit("}"), lit(""), lit("} tail"), lit("},")],
    )
        .prop_map(|(a, members, b, close)| format!("{{{a}{}{b}{close}", members.join(",")))
}

/// Well-formed records with spaces around `:`, an extra scalar field, a
/// 13-digit `ts` and a message that may hold escapes.
fn json_record() -> impl Strategy<Value = String> {
    (
        "[0-9]{13}",
        prop_oneof![lit("INFO"), lit("WARN"), lit("WARNING")],
        "[a-zA-Z.$]{1,12}",
        "[ -~\u{A0}\u{FFFD}é]{0,40}",
        gap(),
        gap(),
        prop_oneof!["[0-9]{1,6}", lit("true"), lit("null"), lit("-1.5")],
    )
        .prop_map(|(ts, lv, src, msg, a, b, extra)| {
            format!(
                r#"{{{a}"ts"{a}:{b}{ts},"level"{b}:"{lv}",{a}"extra":{b}{extra}{a},"source":"{src}","msg"{a}:{b}"{msg}"{a}}}"#
            )
        })
}

fn any_line() -> impl Strategy<Value = String> {
    let line = prop_oneof![
        // arbitrary printable junk
        "[ -~]{0,80}",
        "[ -~\t\u{A0}\u{3000}\u{FFFD}]{0,80}",
        // near-miss log4j headers (Hadoop, Spark)
        "[0-9]{1,5}-[0-9]{1,3}-[0-9]{1,3} [0-9:,]{4,14} [A-Z]{2,6}[ -~]{0,40}",
        "[0-9]{1,3}/[0-9]{1,3}/[0-9]{1,3} [0-9:]{4,10} [A-Z]{2,6}[ -~]{0,40}",
        // near-miss HDFS headers
        "[0-9]{1,8} [0-9]{1,8} [0-9]{1,5} [A-Z]{2,6}[ -~]{0,40}",
        // near-miss syslog
        "<[0-9]{1,4}>[A-Za-z]{3} {1,2}[0-9]{1,2} [0-9:]{4,10}[ -~]{0,40}",
        // truncated / malformed JSON
        "\\{[ -~]{0,60}",
        "\\{\"ts\":[0-9]{0,12},\"level\":\"[A-Z]{3,6}\"[ -~]{0,30}",
        // padded log4j layouts and near-miss JSON
        log4j_line(),
        json_line(),
        json_record(),
        // non-ASCII, blank and empty
        Just(String::new()),
        "[αβγ日本語é°£ж]{0,24}",
        "[ \t\r\n\u{B}\u{C}\u{85}\u{A0}\u{3000}]{0,6}",
    ];
    let ending = prop_oneof![lit(""), lit("\r"), lit("\n"), lit("\r\n")];
    (line, ending).prop_map(|(line, end)| line + &end)
}

/// The oracle's answer and the adapter's, for every syntax.
fn oracle_agrees(line: &str) -> Result<(), String> {
    for kind in AdapterKind::ALL {
        prop_assert_eq!(
            kind.parse_record(line),
            oracle::parse_record(kind, line),
            "{} {:?}",
            kind.name(),
            line
        );
    }
    Ok(())
}

/// Every line the round-trip, truncation and lockstep properties render,
/// from one draw of their inputs.
fn rendered(
    msg: &str,
    src: &str,
    lv: Level,
    (h, m, s, ms): (u32, u32, u32, u64),
    day: u32,
    ts: u64,
) -> Vec<String> {
    let pri = 128
        + match lv {
            Level::Error => 3,
            Level::Warn => 4,
            _ => 6,
        };
    let lv = lv.as_str();
    vec![
        format!("2019-06-22 12:00:00,042 INFO [main] {src}: {msg}"),
        format!("2019-06-22 12:00:00,042 {lv} [main] {src}: {msg}"),
        format!("2019-06-22 {h:02}:{m:02}:{s:02},{ms:03} {lv} {src}: {msg}"),
        format!(
            "2019-06-22 {h:02}:{m:02}:{s:02},{:03} {lv} [t 1] {src}: {msg}",
            ms + 1
        ),
        format!("19/06/22 12:00:00 INFO {src}: {msg}"),
        format!("19/06/22 12:00:00 {lv} {src}: {msg}"),
        format!("19/06/22 {h:02}:{m:02}:{s:02} {lv} {src}: {msg}"),
        format!("190622 120000 42 INFO {src}: {msg}"),
        format!("190622 120000 42 {lv} {src}: {msg}"),
        format!("190622 {h:02}{m:02}{s:02} 77 {lv} {src}: {msg}"),
        format!("<134>Jun 22 12:00:00 host9 {src}: {msg}"),
        format!("<{pri}>Jun {day:>2} {h:02}:30:15 host3 {src}: {msg}"),
        format!(r#"{{"ts":7,"level":"INFO","source":"{src}","msg":"{msg}"}}"#),
        format!(r#"{{"ts":7,"level":"{lv}","source":"{src}","msg":"{msg}"}}"#),
        format!(r#"{{"ts":{ts},"level":"{lv}","source":"{src}","msg":"{msg}"}}"#),
        format!(r#"{{"msg":"{msg}","source":"{src}","level":"{lv}","host":"h1","ts":{ts}}}"#),
    ]
}

proptest! {
    /// Adapters are total: any input yields Ok or a typed error, no panic.
    #[test]
    fn adapters_never_panic(line in any_line()) {
        for kind in AdapterKind::ALL {
            let _ = kind.parse_record(&line);
        }
    }

    /// Prefixes of a valid line (partial writes) never panic either, and
    /// the full line still parses.
    #[test]
    fn truncations_never_panic(
        msg in plain_text(),
        src in source_token(),
        cut in 0usize..200,
    ) {
        let lines = [
            format!("2019-06-22 12:00:00,042 INFO [main] {src}: {msg}"),
            format!("19/06/22 12:00:00 INFO {src}: {msg}"),
            format!("190622 120000 42 INFO {src}: {msg}"),
            format!("<134>Jun 22 12:00:00 host9 {src}: {msg}"),
            format!(r#"{{"ts":7,"level":"INFO","source":"{src}","msg":"{msg}"}}"#),
        ];
        for (kind, line) in AdapterKind::ALL.iter().zip(&lines) {
            prop_assert!(kind.parse_record(line).is_ok(), "{line:?}");
            let cut = cut.min(line.len());
            if line.is_char_boundary(cut) {
                let _ = kind.parse_record(&line[..cut]);
            }
        }
    }

    /// Hadoop and Spark render → parse round-trips level, source and message,
    /// and Hadoop's millisecond field orders within the second.
    #[test]
    fn log4j_roundtrip(msg in plain_text(), src in source_token(), lv in level(),
                       h in 0u32..24, m in 0u32..60, s in 0u32..60, ms in 0u64..999) {
        let lines = [
            (AdapterKind::Hadoop, format!("2019-06-22 {h:02}:{m:02}:{s:02},{ms:03} {} {src}: {msg}", lv.as_str())),
            (AdapterKind::Hadoop, format!("2019-06-22 {h:02}:{m:02}:{s:02},{:03} {} [t 1] {src}: {msg}", ms + 1, lv.as_str())),
            (AdapterKind::Spark, format!("19/06/22 {h:02}:{m:02}:{s:02} {} {src}: {msg}", lv.as_str())),
        ];
        let mut stamps = Vec::new();
        for (kind, line) in &lines {
            let rec = kind.parse_record(line).unwrap();
            prop_assert_eq!(rec.level, lv);
            prop_assert_eq!(rec.source, src.as_str());
            prop_assert_eq!(rec.message, msg.as_str());
            stamps.push(rec.ts_ms);
        }
        prop_assert_eq!(stamps[0] + 1, stamps[1]);
    }

    /// HDFS render → parse round-trips level, source and message.
    #[test]
    fn hdfs_roundtrip(msg in plain_text(), src in source_token(), lv in level(),
                      h in 0u32..24, m in 0u32..60, s in 0u32..60) {
        let line = format!("190622 {h:02}{m:02}{s:02} 77 {} {src}: {msg}", lv.as_str());
        let rec = AdapterKind::Hdfs.parse_record(&line).unwrap();
        prop_assert_eq!(rec.level, lv);
        prop_assert_eq!(rec.source, src.as_str());
        prop_assert_eq!(rec.message, msg.as_str());
    }

    /// Syslog render → parse round-trips severity class, source, message.
    #[test]
    fn syslog_roundtrip(msg in plain_text(), src in source_token(), lv in level(),
                        day in 1u32..32, h in 0u32..24) {
        let pri = 128 + match lv {
            Level::Error => 3,
            Level::Warn => 4,
            _ => 6,
        };
        let line = format!("<{pri}>Jun {day:>2} {h:02}:30:15 host3 {src}: {msg}");
        let rec = AdapterKind::Syslog.parse_record(&line).unwrap();
        prop_assert_eq!(rec.level, lv);
        prop_assert_eq!(rec.source, src.as_str());
        prop_assert_eq!(rec.message, msg.as_str());
    }

    /// JSON render → parse round-trips everything including exact millis,
    /// for any key order the emitter might choose.
    #[test]
    fn json_roundtrip(msg in plain_text(), src in source_token(), lv in level(),
                      ts in 0u64..10_000_000_000, flip in any::<bool>()) {
        let line = if flip {
            format!(r#"{{"ts":{ts},"level":"{}","source":"{src}","msg":"{msg}"}}"#, lv.as_str())
        } else {
            format!(r#"{{"msg":"{msg}","source":"{src}","level":"{}","host":"h1","ts":{ts}}}"#, lv.as_str())
        };
        let rec = AdapterKind::Json.parse_record(&line).unwrap();
        prop_assert_eq!(rec.ts_ms, ts);
        prop_assert_eq!(rec.level, lv);
        prop_assert_eq!(rec.source, src.as_str());
        prop_assert_eq!(rec.message, msg.as_str());
    }

    /// Lockstep: spans tokenised from the adapted message equal spans
    /// tokenised from the normalised line directly — the adapter gives
    /// Spell the exact bytes the reference path would see.
    #[test]
    fn adapted_spans_match_reference_tokenizer(
        msg in plain_text(), src in source_token(), lv in level(),
    ) {
        let mut reference: Vec<Span> = Vec::new();
        tokenize_spans(&msg, &mut reference);
        let ref_toks: Vec<&str> = reference.iter().map(|sp| sp.of(&msg)).collect();

        let lines = [
            format!("2019-06-22 12:00:00,042 {} [main] {src}: {msg}", lv.as_str()),
            format!("19/06/22 12:00:00 {} {src}: {msg}", lv.as_str()),
            format!("190622 120000 42 {} {src}: {msg}", lv.as_str()),
            format!("<134>Jun 22 12:00:00 host9 {src}: {msg}"),
            format!(r#"{{"ts":7,"level":"{}","source":"{src}","msg":"{msg}"}}"#, lv.as_str()),
        ];
        for (kind, line) in AdapterKind::ALL.iter().zip(&lines) {
            let rec = kind.parse_record(line).unwrap();
            prop_assert_eq!(rec.message, msg.as_str(), "{:?}", kind);
            let mut adapted: Vec<Span> = Vec::new();
            tokenize_spans(rec.message, &mut adapted);
            let toks: Vec<&str> = adapted.iter().map(|sp| sp.of(rec.message)).collect();
            prop_assert_eq!(&toks, &ref_toks, "{:?} diverged from reference", kind);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The byte scanners answer every generated line, padded, blank,
    /// non-ASCII or broken, exactly as the oracle does.
    #[test]
    fn scanners_equal_the_oracle_on_any_line(line in any_line()) {
        oracle_agrees(&line)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// … and every line the properties above render, whole and cut short.
    #[test]
    fn scanners_equal_the_oracle_on_rendered_lines(
        msg in plain_text(),
        src in source_token(),
        lv in level(),
        clock in (0u32..24, 0u32..60, 0u32..60, 0u64..999),
        day in 1u32..32,
        ts in 0u64..10_000_000_000,
        cut in 0usize..200,
    ) {
        for line in rendered(&msg, &src, lv, clock, day, ts) {
            oracle_agrees(&line)?;
            let cut = cut.min(line.len());
            if line.is_char_boundary(cut) {
                oracle_agrees(&line[..cut])?;
            }
        }
    }
}
