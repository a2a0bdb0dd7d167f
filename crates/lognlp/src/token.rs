//! Tokenisation of log messages and log keys.
//!
//! Log text is *not* free-form prose: tokens include identifiers
//! (`attempt_01`), localities (`host1:13562`, `/tmp/spill0.out`),
//! camel-case class names (`BlockManager`) and the `*` placeholder of log
//! keys. The tokenizer keeps each of those intact as a single token and only
//! strips sentence punctuation so that downstream POS tagging sees the same
//! word positions in a log key and in its sample log message.

use serde::{Deserialize, Serialize};

/// Surface classification of a token, computed once at tokenisation time.
///
/// The POS tagger and the identifier/value heuristics both consume this
/// orthographic evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TokenShape {
    /// Purely alphabetic, all lowercase (`task`).
    Lower,
    /// Alphabetic with a leading capital only (`Starting`).
    Capitalized,
    /// Alphabetic, all uppercase (`FINISHED`).
    Upper,
    /// Mixed-case alphabetic, i.e. camel case (`BlockManager`).
    Camel,
    /// Digits only, possibly with `.`/`,` separators (`2264`, `4.5`).
    Number,
    /// Letters and digits mixed (`attempt_01`, `host1`).
    AlphaNum,
    /// Looks like a filesystem or HDFS path (`/tmp/x`, `hdfs://…`).
    Path,
    /// Looks like `host:port` or `ip:port`.
    HostPort,
    /// An IPv4 address without a port (`10.0.0.3`).
    Ip,
    /// The `*` variable placeholder of a log key.
    Star,
    /// Pure punctuation / symbols (`#`, `=`, `[`).
    Symbol,
    /// Anything else (mixed symbols and letters, e.g. `key=value`).
    Other,
}

/// A single token of a log message or log key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Token {
    /// The token text with surrounding punctuation stripped.
    pub text: String,
    /// Orthographic shape of the token.
    pub shape: TokenShape,
}

impl Token {
    /// Build a token, classifying its shape.
    pub fn new(text: impl Into<String>) -> Token {
        let text = text.into();
        let shape = classify(&text);
        Token { text, shape }
    }

    /// Lowercased view of the token text.
    pub fn lower(&self) -> String {
        self.text.to_ascii_lowercase()
    }

    /// `true` if this token is the `*` log-key placeholder.
    #[inline]
    pub fn is_star(&self) -> bool {
        self.shape == TokenShape::Star
    }
}

/// Classify the orthographic shape of a token.
pub fn classify(text: &str) -> TokenShape {
    if text == "*" {
        return TokenShape::Star;
    }
    if text.is_empty() {
        return TokenShape::Other;
    }
    if is_path(text) {
        return TokenShape::Path;
    }
    if is_host_port(text) {
        return TokenShape::HostPort;
    }
    if is_ipv4(text) {
        return TokenShape::Ip;
    }
    let mut has_alpha = false;
    let mut has_digit = false;
    let mut has_lower = false;
    let mut has_upper = false;
    let mut has_other = false;
    for c in text.chars() {
        if c.is_ascii_alphabetic() {
            has_alpha = true;
            if c.is_ascii_lowercase() {
                has_lower = true;
            } else {
                has_upper = true;
            }
        } else if c.is_ascii_digit() {
            has_digit = true;
        } else if c == '_' || c == '-' || c == '.' || c == ',' {
            // common separators inside identifiers and numbers
        } else {
            has_other = true;
        }
    }
    match (has_alpha, has_digit) {
        (false, false) => TokenShape::Symbol,
        (false, true) if !has_other => TokenShape::Number,
        (true, true) => TokenShape::AlphaNum,
        (true, false) if has_other => TokenShape::Other,
        (true, false) => {
            let first_upper = text.chars().next().is_some_and(|c| c.is_ascii_uppercase());
            if !has_upper {
                TokenShape::Lower
            } else if !has_lower {
                TokenShape::Upper
            } else if first_upper
                && text
                    .chars()
                    .skip(1)
                    .all(|c| c.is_ascii_lowercase() || !c.is_ascii_alphabetic())
            {
                TokenShape::Capitalized
            } else {
                TokenShape::Camel
            }
        }
        (false, true) => TokenShape::Other,
    }
}

fn is_path(text: &str) -> bool {
    text.starts_with('/') && text.len() > 1
        || text.starts_with("hdfs://")
        || text.starts_with("file:/")
        || text.starts_with("s3://")
}

pub(crate) fn is_host_port(text: &str) -> bool {
    let Some((host, port)) = text.rsplit_once(':') else {
        return false;
    };
    if port.is_empty() || !port.chars().all(|c| c.is_ascii_digit()) {
        return false;
    }
    !host.is_empty()
        && host
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '-')
}

fn is_ipv4(text: &str) -> bool {
    let parts: Vec<&str> = text.split('.').collect();
    parts.len() == 4
        && parts
            .iter()
            .all(|p| !p.is_empty() && p.len() <= 3 && p.chars().all(|c| c.is_ascii_digit()))
}

/// Tokenise a log message (or log key) into word tokens.
///
/// Splitting is on whitespace. Leading/trailing sentence punctuation
/// (brackets, commas, periods, quotes) is stripped into separate
/// [`TokenShape::Symbol`] tokens *only* when it is detached; attached
/// punctuation that is part of an identifier, path, number or `host:port`
/// token is preserved. A trailing `.`/`,`/`;`/`!`/`?` on an ordinary word is
/// stripped silently (log sentences often end with a period).
///
/// The splitting itself is [`crate::raw::tokenize_spans`] — the one
/// tokeniser; this is its spans as owned, shape-classified tokens.
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut spans = Vec::with_capacity(text.len() / 5 + 1);
    crate::raw::tokenize_spans(text, &mut spans);
    spans.iter().map(|s| Token::new(s.of(text))).collect()
}

/// Render a token sequence back to a canonical space-separated string.
pub fn detokenize(tokens: &[Token]) -> String {
    let mut s = String::new();
    for (i, t) in tokens.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(&t.text);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes(text: &str) -> Vec<(String, TokenShape)> {
        tokenize(text)
            .into_iter()
            .map(|t| (t.text, t.shape))
            .collect()
    }

    #[test]
    fn plain_sentence() {
        let toks = tokenize("Starting MapTask metrics system");
        assert_eq!(
            toks.iter().map(|t| t.text.as_str()).collect::<Vec<_>>(),
            ["Starting", "MapTask", "metrics", "system"]
        );
        assert_eq!(toks[0].shape, TokenShape::Capitalized);
        assert_eq!(toks[1].shape, TokenShape::Camel);
        assert_eq!(toks[2].shape, TokenShape::Lower);
    }

    #[test]
    fn figure1_line2_tokens() {
        // "[fetcher # 1] read 2264 bytes from map-output for attempt_01"
        let toks = shapes("[fetcher # 1] read 2264 bytes from map-output for attempt_01");
        let texts: Vec<&str> = toks.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(
            texts,
            [
                "[",
                "fetcher",
                "#",
                "1",
                "read",
                "2264",
                "bytes",
                "from",
                "map-output",
                "for",
                "attempt_01"
            ]
        );
        assert_eq!(toks[3].1, TokenShape::Number);
        assert_eq!(toks[5].1, TokenShape::Number);
        assert_eq!(toks[10].1, TokenShape::AlphaNum);
    }

    #[test]
    fn host_port_is_single_token() {
        let toks = shapes("host1:13562 freed by fetcher # 1 in 4ms");
        assert_eq!(toks[0], ("host1:13562".to_string(), TokenShape::HostPort));
        assert_eq!(toks.last().unwrap().1, TokenShape::AlphaNum); // 4ms
    }

    #[test]
    fn star_placeholder() {
        let toks = tokenize("* freed by fetcher # * in *");
        assert!(toks[0].is_star());
        assert!(toks[5].is_star());
        assert!(toks[7].is_star());
    }

    #[test]
    fn paths_and_ips() {
        assert_eq!(classify("/tmp/spill0.out"), TokenShape::Path);
        assert_eq!(classify("hdfs://nn:8020/user/x"), TokenShape::Path);
        assert_eq!(classify("10.0.0.3"), TokenShape::Ip);
        assert_eq!(classify("10.0.0.3:50010"), TokenShape::HostPort);
    }

    #[test]
    fn trailing_period_stripped_from_words_not_numbers() {
        let toks = shapes("task finished.");
        assert_eq!(toks[1].0, "finished");
        let toks = shapes("took 4.5 seconds");
        assert_eq!(toks[1], ("4.5".to_string(), TokenShape::Number));
    }

    #[test]
    fn colon_after_word_is_stripped() {
        let toks = shapes("Exception: connection refused");
        assert_eq!(toks[0].0, "Exception");
    }

    #[test]
    fn detokenize_roundtrip_for_clean_text() {
        let text = "fetcher # 1 about to shuffle output of map attempt_01";
        assert_eq!(detokenize(&tokenize(text)), text);
    }

    #[test]
    fn camel_vs_capitalized_vs_upper() {
        assert_eq!(classify("BlockManager"), TokenShape::Camel);
        assert_eq!(classify("Registered"), TokenShape::Capitalized);
        assert_eq!(classify("INFO"), TokenShape::Upper);
        assert_eq!(classify("executor"), TokenShape::Lower);
    }

    #[test]
    fn empty_and_symbols() {
        assert!(tokenize("").is_empty());
        assert_eq!(classify("#"), TokenShape::Symbol);
        assert_eq!(classify("="), TokenShape::Symbol);
    }

    #[test]
    fn hyphenated_word_is_lower() {
        assert_eq!(classify("map-output"), TokenShape::Lower);
        assert_eq!(classify("merge-pass"), TokenShape::Lower);
    }
}
