//! Log keys — the positional abstraction of log messages.
//!
//! A *log key* is a log printing statement abstracted from its messages: the
//! constant fields keep their text, the variable fields are replaced by `*`
//! (paper §2.1). Each key additionally remembers the first concrete message
//! it was extracted from — the *sample message* — because POS tagging of a
//! key is performed through its sample (paper §3, Fig. 3).

use serde::{Deserialize, Serialize};

/// Stable identifier of a log key within one [`crate::SpellParser`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct KeyId(pub u32);

impl std::fmt::Display for KeyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "K{}", self.0)
    }
}

/// The `*` placeholder used in key token positions holding variable fields.
pub const STAR: &str = "*";

/// A log key: constant tokens plus `*` placeholders, with a sample message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogKey {
    /// Identifier of this key.
    pub id: KeyId,
    /// Key tokens; variable positions hold [`STAR`].
    pub tokens: Vec<String>,
    /// Tokens of the first concrete message matched to this key.
    pub sample: Vec<String>,
    /// How many messages have matched this key.
    pub count: u64,
}

impl LogKey {
    /// Number of constant (non-`*`) tokens.
    pub fn constant_len(&self) -> usize {
        self.tokens.iter().filter(|t| *t != STAR).count()
    }

    /// Render the key as a space-separated string (`"* MapTask metrics system"`).
    pub fn render(&self) -> String {
        self.tokens.join(" ")
    }

    /// Render the sample message as a space-separated string.
    pub fn render_sample(&self) -> String {
        self.sample.join(" ")
    }

    /// `true` if `message_tokens` is an instance of this key: equal length
    /// and equal at every constant position.
    pub fn matches(&self, message_tokens: &[String]) -> bool {
        self.tokens.len() == message_tokens.len()
            && self
                .tokens
                .iter()
                .zip(message_tokens)
                .all(|(k, m)| k == STAR || k == m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn key(tokens: &str, sample: &str) -> LogKey {
        LogKey {
            id: KeyId(0),
            tokens: toks(tokens),
            sample: toks(sample),
            count: 1,
        }
    }

    #[test]
    fn instances_match_and_mismatched_constants_do_not() {
        let k = key(
            "* freed by fetcher # * in *",
            "host1:13562 freed by fetcher # 1 in 4ms",
        );
        assert!(k.matches(&toks("host2:13562 freed by fetcher # 7 in 9ms")));
        assert!(!k.matches(&toks("host2:13562 taken by fetcher # 7 in 9ms")));
        assert!(!k.matches(&toks("host2:13562 freed by fetcher # 7")));
    }

    #[test]
    fn positions_and_lengths() {
        let k = key(
            "* freed by fetcher # * in *",
            "h freed by fetcher # 1 in 4ms",
        );
        assert_eq!(k.constant_len(), 5);
        assert_eq!(k.render(), "* freed by fetcher # * in *");
    }
}
