//! Property-based tests for the line-format adapters.
//!
//! Three families of properties:
//!
//! * **Never-panic / typed errors** — arbitrary bytes, truncated headers
//!   and partial JSON through every adapter always return
//!   `Ok`/`Err(FormatError)`, never panic;
//! * **Round-trip** — a record rendered in each syntax and parsed back
//!   yields the same level, source and message (and exact `ts` for JSON);
//! * **Lockstep** — tokenising an adapted message produces exactly the
//!   spans the reference tokenizer produces on the normalised line, i.e.
//!   adapters hand Spell byte-identical message bodies.

use lognlp::format::{AdapterKind, Level};
use lognlp::{tokenize_spans, Span};
use proptest::prelude::*;

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

fn any_line() -> impl Strategy<Value = String> {
    prop_oneof![
        // arbitrary printable junk
        "[ -~]{0,80}",
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
        // non-ASCII and empty
        Just(String::new()),
        "[αβγ日本語é°£ж]{0,24}",
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
