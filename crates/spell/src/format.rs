//! The owned log line the pipeline stores, built from a borrowed
//! `lognlp::format::RawRecord` (paper §5: the formatter strips timestamp,
//! level and emitting class before Spell sees the message body). The line
//! syntaxes themselves are `lognlp::format` adapters.

use lognlp::format::{AdapterKind, RawRecord};
use serde::{Deserialize, Serialize};

pub use lognlp::format::Level;

/// A structured log line: what the formatter recovers from raw text.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogLine {
    /// Milliseconds since an arbitrary epoch (ordering is what matters).
    pub ts_ms: u64,
    /// Severity.
    pub level: Level,
    /// Emitting class / component (`BlockManager`,
    /// `org.apache.hadoop.mapred.MapTask`).
    pub source: String,
    /// The free-text message body consumed by Spell.
    pub message: String,
}

impl From<RawRecord<'_>> for LogLine {
    fn from(rec: RawRecord<'_>) -> LogLine {
        LogLine {
            ts_ms: rec.ts_ms,
            level: rec.level,
            source: rec.source.to_string(),
            message: rec.message.to_string(),
        }
    }
}

/// Kept for `benchmark/`, remove when it moves to `AdapterKind`: the two
/// native syntaxes as a delegate to their `lognlp::format` adapters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// [`AdapterKind::Hadoop`]
    Hadoop,
    /// [`AdapterKind::Spark`]
    Spark,
}

impl LogFormat {
    /// Parse one raw line; `None` for lines the adapter rejects.
    pub fn parse(self, line: &str) -> Option<LogLine> {
        let kind = match self {
            LogFormat::Hadoop => AdapterKind::Hadoop,
            LogFormat::Spark => AdapterKind::Spark,
        };
        kind.adapter().parse_record(line).ok().map(LogLine::from)
    }
}
