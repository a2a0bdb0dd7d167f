//! The tokeniser: one splitting loop, emitting byte spans.
//!
//! The ingest hot path cannot afford one `String` per token per line, and
//! every token of a line is a contiguous byte slice of it (leading
//! brackets are single input characters, the re-emitted sentence period is
//! the stripped `.` itself, and the `key=value` split produces
//! sub-slices), so [`tokenize_spans`] expresses the tokenisation as byte
//! ranges into the caller's line buffer. Downstream code resolves each
//! span lazily (interner lookup by byte slice) and only materialises
//! strings for the rare lines that found or refine a key; the owning views
//! — [`crate::tokenize`]'s classified [`crate::Token`]s and
//! `spell::tokenize_message`'s `String`s — are these spans copied out, so
//! no path can split a line differently. `token.rs`'s unit tests are the
//! specification by example.
//!
//! The function writes into a caller-provided buffer so steady-state
//! ingest performs no allocation at all (see `crates/spell/tests/zero_alloc.rs`).

use crate::token::is_host_port;

/// Byte range of one token within the tokenised line. `start`/`end` are
/// byte offsets into the exact `&str` passed to [`tokenize_spans`]; the
/// token text is `&line[start as usize..end as usize]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first byte of the token.
    pub start: u32,
    /// Byte offset one past the last byte of the token.
    pub end: u32,
}

impl Span {
    /// Resolve the span against the line it was produced from.
    #[inline]
    pub fn of<'a>(&self, line: &'a str) -> &'a str {
        &line[self.start as usize..self.end as usize]
    }

    /// Length of the token in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// `true` for the (never emitted) empty span.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Byte offset of sub-slice `sub` within its parent `text`.
///
/// Both are views of the same buffer (every `sub` here is derived from
/// `text` by safe re-slicing), so pointer difference is exact and this
/// stays within `forbid(unsafe_code)`.
#[inline]
fn off(text: &str, sub: &str) -> u32 {
    (sub.as_ptr() as usize - text.as_ptr() as usize) as u32
}

#[inline]
fn push(out: &mut Vec<Span>, text: &str, sub: &str) {
    let start = off(text, sub);
    out.push(Span {
        start,
        end: start + sub.len() as u32,
    });
}

// lint: ingest-hot(begin)

/// Tokenise `text` into byte spans: split on whitespace, each leading
/// bracket/quote its own token, trailing closers and sentence punctuation
/// stripped, `key=value` cut in three (see [`crate::tokenize`] for the
/// rules in prose).
///
/// `out` is cleared first; per-line callers reuse one buffer so the steady
/// state allocates nothing (the buffer grows to the longest line seen and
/// stays there).
pub fn tokenize_spans(text: &str, out: &mut Vec<Span>) {
    out.clear();
    for raw in text.split_whitespace() {
        let mut chunk = raw;
        // Strip matched leading brackets/quotes (each becomes its own token).
        while let Some(first) = chunk.chars().next() {
            if matches!(first, '[' | '(' | '{' | '"' | '\'' | '<') {
                push(out, text, &chunk[..first.len_utf8()]);
                chunk = &chunk[first.len_utf8()..];
            } else {
                break;
            }
        }
        // Strip trailing closers and sentence punctuation.
        let mut sentence_period: Option<u32> = None;
        while let Some(last) = chunk.chars().next_back() {
            if matches!(
                last,
                ']' | ')' | '}' | '"' | '\'' | '>' | ',' | ';' | '!' | '?'
            ) {
                // Dropped commas/brackets are deliberately not re-emitted as
                // tokens: they carry no semantic payload for Intel Key
                // extraction, and dropping them keeps log-key token positions
                // aligned with sample-message token positions.
                chunk = &chunk[..chunk.len() - last.len_utf8()];
            } else if last == '.'
                && chunk.len() > 1
                && !chunk.starts_with('/')
                && !chunk.starts_with("hdfs:")
            {
                // A trailing period is sentence punctuation (numbers and
                // versions never *end* in '.'; inside paths it may be a file
                // suffix). Sentence periods ARE re-emitted, after the chunk,
                // as the span of the '.' character itself: multi-clause log
                // keys are split on them for operation extraction.
                chunk = &chunk[..chunk.len() - 1];
                sentence_period = Some(off(text, chunk) + chunk.len() as u32);
                break;
            } else if last == ':' && !is_host_port(chunk) {
                // A colon that is not part of host:port is punctuation.
                chunk = &chunk[..chunk.len() - 1];
                break;
            } else {
                break;
            }
        }
        if !chunk.is_empty() {
            // `key=value` fields split into three spans so the constant key
            // part survives log-key extraction ("FILE_BYTES_READ=2264" →
            // "FILE_BYTES_READ", "=", "2264"); '=' inside paths/URLs is left
            // alone.
            if chunk.contains('=') && !chunk.starts_with('/') && !chunk.contains("://") {
                let mut rest = chunk;
                while let Some(eq) = rest.find('=') {
                    if eq > 0 {
                        push(out, text, &rest[..eq]);
                    }
                    push(out, text, &rest[eq..eq + 1]);
                    rest = &rest[eq + 1..];
                }
                if !rest.is_empty() {
                    push(out, text, rest);
                }
            } else {
                push(out, text, chunk);
            }
        }
        if let Some(p) = sentence_period {
            out.push(Span {
                start: p,
                end: p + 1,
            });
        }
    }
}

// lint: ingest-hot(end)

#[cfg(test)]
mod tests {
    use super::*;

    fn span_texts(text: &str) -> Vec<&str> {
        let mut spans = Vec::new();
        tokenize_spans(text, &mut spans);
        spans.iter().map(|s| s.of(text)).collect()
    }

    #[test]
    fn spans_index_the_original_line() {
        let line = "[fetcher # 1] read 2264 bytes.";
        let mut spans = Vec::new();
        tokenize_spans(line, &mut spans);
        for s in &spans {
            assert!(s.end as usize <= line.len());
            assert!(!s.is_empty());
        }
        // The re-emitted sentence period points at the actual '.' byte.
        let last = spans.last().unwrap();
        assert_eq!(last.of(line), ".");
        assert_eq!(last.start as usize, line.len() - 1);
    }

    #[test]
    fn degenerate_lines() {
        for blank in ["", "   "] {
            assert!(span_texts(blank).is_empty());
        }
        assert_eq!(span_texts("."), ["."]);
        assert_eq!(
            span_texts("a=b=c d= =e ="),
            ["a", "=", "b", "=", "c", "d", "=", "=", "e", "="]
        );
    }

    #[test]
    fn buffer_is_reused_and_cleared() {
        let mut spans = Vec::new();
        tokenize_spans("a b c", &mut spans);
        assert_eq!(spans.len(), 3);
        tokenize_spans("x", &mut spans);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].of("x"), "x");
    }

    #[test]
    fn multibyte_text_is_handled() {
        // Multibyte chars in chunks exercise the len_utf8 paths.
        assert_eq!(span_texts("état dégradé."), ["état", "dégradé", "."]);
        assert_eq!(span_texts("[état] fini"), ["[", "état", "fini"]);
    }
}
