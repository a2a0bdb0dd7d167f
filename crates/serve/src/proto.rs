//! The wire protocol: line-framed, tab-separated ASCII.
//!
//! Trivially scriptable with `nc` and fast to parse:
//!
//! ```text
//! TENANT\t<id>                 → OK 0   route this connection's data verbs
//! LOG\t<session>\t<ts_ms>\t<level>\t<source>\t<message>   fire-and-forget
//! END\t<session>                                          fire-and-forget
//! PING                         → OK 0
//! STATS                        → OK 1  + one StatsSnapshot JSON line
//! METRICS                      → OK <k> + k Prometheus text-format lines
//! REPORTS\t<n>[\t<tenant>]     → OK <k> + k SessionReport JSON lines
//! ANOMALIES\t<n>[\t<tenant>]   → OK <k> + k problematic SessionReport lines
//! LOAD\t<tenant>\t<path>       → OK 1  + one LOAD result line (async ack)
//! ADDSHARD                     → OK <new shard index>
//! DRAINSHARD\t<index>          → OK <sessions moved>
//! DRAIN[\t<tenant>]            → OK <finished sessions>  (after queues empty)
//! SHUTDOWN                     → OK 0, then the server drains and exits
//! ```
//!
//! Data lines carry no reply so a client can saturate the socket; TCP flow
//! control plus shard queues that hold lines back until they have room
//! make the path lossless. This module holds the parse/render halves
//! shared by the gateway, the client and the replay generator.

use spell::{Level, LogLine};

/// Default tenant id used when a connection never sends `TENANT` (and by
/// the single-tenant CLI flow).
pub const DEFAULT_TENANT: &str = "default";

/// A parsed `LOG` line, borrowing every field from the wire line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LogRef<'a> {
    /// Session (container) id; never empty.
    pub session: &'a str,
    /// Timestamp in milliseconds.
    pub ts_ms: u64,
    /// Severity.
    pub level: Level,
    /// Emitting component.
    pub source: &'a str,
    /// The message body (may contain tabs).
    pub message: &'a str,
}

/// Parse `LOG\t<session>\t<ts_ms>\t<level>\t<source>\t<message>` without
/// copying; the message is everything after the fifth tab (tabs inside it
/// survive). This is the gateway's per-line parser.
pub(crate) fn parse_log_ref(line: &str) -> Option<LogRef<'_>> {
    let mut fields = line.splitn(6, '\t');
    let _verb = fields.next()?;
    let session = fields.next().filter(|s| !s.is_empty())?;
    let ts_ms: u64 = fields.next()?.parse().ok()?;
    let level = Level::parse(fields.next()?)?;
    let source = fields.next()?;
    let message = fields.next()?;
    Some(LogRef {
        session,
        ts_ms,
        level,
        source,
        message,
    })
}

/// `parse_log_ref` into owned values (clients, tests and `benchmark/`;
/// the gateway never calls it).
pub fn parse_log(line: &str) -> Option<(String, LogLine)> {
    let log = parse_log_ref(line)?;
    Some((
        log.session.to_string(),
        LogLine {
            ts_ms: log.ts_ms,
            level: log.level,
            source: log.source.to_string(),
            message: log.message.to_string(),
        },
    ))
}

/// Render the `LOG` wire line for a structured log line (the inverse of
/// [`parse_log`], used by the client and the replay generator).
pub fn render_log(session: &str, line: &LogLine) -> String {
    format!(
        "LOG\t{session}\t{}\t{}\t{}\t{}",
        line.ts_ms,
        line.level.as_str(),
        line.source,
        line.message
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_line_roundtrips_through_wire_format() {
        let l = LogLine {
            ts_ms: 1234,
            level: Level::Warn,
            source: "BlockManager".into(),
            message: "spill 1 written to /tmp/x\twith a tab".into(),
        };
        let wire = render_log("container_01", &l);
        let (session, parsed) = parse_log(&wire).expect("parse");
        assert_eq!(session, "container_01");
        assert_eq!(parsed, l);
    }

    #[test]
    fn malformed_log_lines_are_rejected() {
        assert!(parse_log("LOG\t\t0\tINFO\tX\tmsg").is_none()); // empty session
        assert!(parse_log("LOG\ts\tnotanum\tINFO\tX\tmsg").is_none());
        assert!(parse_log("LOG\ts\t0\tLOUD\tX\tmsg").is_none());
        assert!(parse_log("LOG\ts\t0\tINFO\tX").is_none()); // missing message
    }
}
