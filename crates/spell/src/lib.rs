//! # spell — streaming log-key extraction
//!
//! An implementation of Spell (Du & Li, *Spell: Streaming Parsing of System
//! Event Logs*, ICDM 2017) as used by IntelLog (HPDC 2019, §2.1/§5): raw log
//! messages stream in, and a longest-common-subsequence matcher groups them
//! under *log keys* — the printing-statement abstractions in which constant
//! fields keep their text and variable fields become `*`.
//!
//! The crate also holds the owned [`LogLine`] that `lognlp::format`'s
//! adapters (the paper's §5 formatters) fill, and the session container
//! type used throughout the pipeline.

#![forbid(unsafe_code)]

mod automaton;
pub mod format;
mod index;
pub mod intern;
pub mod key;
pub mod lcs;
pub mod parser;
mod scratch;

pub use automaton::AutomatonStats;
pub use format::{Level, LogFormat, LogLine};
pub use intern::{Interner, TokenId, STAR_ID, UNKNOWN_ID};
pub use key::{KeyId, LogKey, STAR};
pub use lognlp::{tokenize_spans, Span};
pub use parser::{tokenize_message, ParseOutcome, SpellParser};

use serde::{Deserialize, Serialize};

/// A log session: the unit of workflow reconstruction and detection.
///
/// In the paper a session is the execution within one YARN container (§2.3,
/// §5). A session owns the ordered sequence of structured log lines that the
/// container produced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Session {
    /// Session (container) identifier.
    pub id: String,
    /// Time-ordered log lines.
    pub lines: Vec<LogLine>,
}

impl Session {
    /// Create a session, sorting lines by timestamp (stable, so equal
    /// timestamps keep their emission order).
    pub fn new(id: impl Into<String>, mut lines: Vec<LogLine>) -> Session {
        lines.sort_by_key(|l| l.ts_ms);
        Session {
            id: id.into(),
            lines,
        }
    }

    /// Number of log messages in the session.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// `true` if the session has no lines.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_sorts_by_timestamp() {
        let mk = |ts| LogLine {
            ts_ms: ts,
            level: Level::Info,
            source: "X".into(),
            message: format!("m{ts}"),
        };
        let s = Session::new("container_01", vec![mk(3), mk(1), mk(2)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.lines[0].ts_ms, 1);
        assert_eq!(s.lines[2].ts_ms, 3);
        assert!(!s.is_empty());
    }
}
