//! Properties of the span tokeniser (`lognlp::raw::tokenize_spans`) that
//! hold of spans alone.
//!
//! It is the only splitting loop — `lognlp::tokenize` and
//! `spell::tokenize_message` copy its spans out — and the entry point of
//! the zero-alloc ingest path (DESIGN.md §13), so what it splits is
//! specified by `token.rs`'s concrete cases; here the spans themselves are
//! checked over adversarial log-line material — bracket/quote nests,
//! trailing punctuation runs, `key=value` chains, paths, URLs, host:port
//! tokens, multibyte text and arbitrary UTF-8 — not just the shapes dlasim
//! happens to emit.

use lognlp::raw::tokenize_spans;
use lognlp::Span;
use proptest::prelude::*;

/// Token material biased toward the tokeniser's special cases.
fn chunk_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z]{1,10}",
        "[A-Z][a-z]{1,6}",
        "[0-9]{1,5}",
        "[a-z]{1,4}_[0-9]{1,3}",
        // host:port and colon-terminated labels
        "[a-z]{1,6}:[0-9]{2,5}",
        "[a-z]{1,6}:",
        // key=value shapes, including degenerate '=' runs
        "[A-Z_]{1,8}=[0-9]{1,4}",
        "[a-z]{1,4}=[a-z]{1,4}=[a-z]{1,4}",
        Just("=".to_string()),
        Just("a=".to_string()),
        Just("=b".to_string()),
        // paths and URLs ('.' and '=' must survive inside these)
        "/[a-z]{1,5}/[a-z]{1,5}\\.[a-z]{2,3}",
        "hdfs://[a-z]{1,4}:[0-9]{2,4}/[a-z]{1,5}",
        "https?://[a-z]{1,6}\\.[a-z]{2,3}/[a-z]{0,4}",
        // bracket/quote wrapping and trailing punctuation runs
        "\\[[a-z]{1,5}\\]",
        "\\(\\[\\{[a-z]{1,4}\\}\\]\\)",
        "\"[a-z]{1,5}\"",
        "<[a-z]{1,5}>",
        "[a-z]{1,6}[.,;!?]{1,3}",
        "[a-z]{1,6}\\.\\.",
        // lone punctuation
        Just(".".to_string()),
        Just("..".to_string()),
        Just("[".to_string()),
        Just("]".to_string()),
        // multibyte text through the len_utf8 paths
        Just("état".to_string()),
        Just("[dégradé]".to_string()),
        Just("données.".to_string()),
    ]
}

fn line_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(chunk_strategy(), 0..12).prop_map(|ws| ws.join(" "))
}

/// Arbitrary UTF-8, half of it ASCII so that the punctuation the
/// tokeniser strips meets multibyte neighbours.
fn utf8_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(prop_oneof![0u32..128, 0u32..0x11_0000], 0..48)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

/// Spans are well-formed views of the line: non-empty, in bounds, on char
/// boundaries, and in order without overlap (tokens are emitted left to
/// right; a re-emitted sentence period sits right behind its chunk).
fn assert_well_formed(line: &str, spans: &[Span]) -> Result<(), String> {
    let mut end = 0;
    for s in spans {
        prop_assert!(s.start < s.end, "empty span in {:?}", line);
        prop_assert!(end <= s.start, "spans out of order in {:?}", line);
        prop_assert!((s.end as usize) <= line.len());
        prop_assert!(line.is_char_boundary(s.start as usize));
        prop_assert!(line.is_char_boundary(s.end as usize));
        end = s.end;
    }
    Ok(())
}

proptest! {
    #[test]
    fn spans_are_well_formed(line in line_strategy()) {
        let mut spans: Vec<Span> = Vec::new();
        tokenize_spans(&line, &mut spans);
        assert_well_formed(&line, &spans)?;
    }

    /// Total: no input panics the tokeniser or yields a span that cannot
    /// be resolved against it.
    #[test]
    fn arbitrary_utf8_yields_well_formed_spans(line in utf8_strategy()) {
        let mut spans: Vec<Span> = Vec::new();
        tokenize_spans(&line, &mut spans);
        assert_well_formed(&line, &spans)?;
        for s in &spans {
            prop_assert!(!s.of(&line).contains(char::is_whitespace));
        }
    }

    /// The caller's buffer is reusable: tokenising a second line into the
    /// same buffer leaves exactly that line's spans.
    #[test]
    fn buffer_reuse_is_clean(a in line_strategy(), b in line_strategy()) {
        let mut spans: Vec<Span> = Vec::new();
        tokenize_spans(&a, &mut spans);
        tokenize_spans(&b, &mut spans);
        let mut fresh: Vec<Span> = Vec::new();
        tokenize_spans(&b, &mut fresh);
        prop_assert_eq!(spans, fresh);
    }
}
