//! Core types of the simulated cluster.
//!
//! The simulator stands in for the paper's 27-node YARN testbed (DESIGN.md
//! §1): it produces log *sessions* — one per YARN container — whose lines
//! are tagged with the template that produced them, giving the ground truth
//! that replaces the authors' manual source-code inspection.

use serde::{Deserialize, Serialize};

/// The targeted systems (paper §6.1) plus the two Table 1 extras.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// Apache Spark 2.1-style executor/driver logs.
    Spark,
    /// Hadoop MapReduce 2.9-style AM/map/reduce logs.
    MapReduce,
    /// Tez 0.8 + Hive query logs.
    Tez,
    /// YARN ResourceManager/NodeManager logs (Table 1 only).
    Yarn,
    /// OpenStack nova-compute logs (Table 1 only).
    Nova,
    /// Distributed TensorFlow training logs (the paper's §9 future work).
    TensorFlow,
}

impl SystemKind {
    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Spark => "Spark",
            SystemKind::MapReduce => "MapReduce",
            SystemKind::Tez => "Tez",
            SystemKind::Yarn => "Yarn",
            SystemKind::Nova => "nova-compute",
            SystemKind::TensorFlow => "TensorFlow",
        }
    }

    /// The three data analytics systems evaluated end to end.
    pub const ANALYTICS: [SystemKind; 3] =
        [SystemKind::Spark, SystemKind::MapReduce, SystemKind::Tez];

    /// The systems carried through the full accuracy evaluation (Table
    /// 4/5/8 golden rows): the three analytics systems plus distributed
    /// TensorFlow, promoted from future work.
    pub const EVALUATED: [SystemKind; 4] = [
        SystemKind::Spark,
        SystemKind::MapReduce,
        SystemKind::Tez,
        SystemKind::TensorFlow,
    ];
}

/// Log severity (mirrors `lognlp::format::Level` without the dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimLevel {
    /// INFO
    Info,
    /// WARN
    Warn,
    /// ERROR
    Error,
}

impl SimLevel {
    /// Upper-case rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            SimLevel::Info => "INFO",
            SimLevel::Warn => "WARN",
            SimLevel::Error => "ERROR",
        }
    }
}

/// One simulated log line with its ground-truth template tag.
/// (Serialisable only: the template tag borrows from the compiled catalog.)
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SimLine {
    /// Milliseconds since job start.
    pub ts_ms: u64,
    /// Severity.
    pub level: SimLevel,
    /// Emitting class (formatter `source` field).
    pub source: String,
    /// The message body.
    pub message: String,
    /// Ground truth: id of the template that emitted this line.
    pub template_id: &'static str,
}

/// One simulated session (= one YARN container, paper §5).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GenSession {
    /// Container id.
    pub id: String,
    /// The node the container ran on.
    pub host: String,
    /// Time-ordered log lines.
    pub lines: Vec<SimLine>,
    /// Ground truth: `true` if this session was affected by the injected
    /// problem (truncated, starved, or carrying fault messages). Used to
    /// score per-session detection (Table 8).
    pub affected: bool,
}

impl GenSession {
    /// Render all lines in the given raw log syntax, parseable by the
    /// `lognlp::format` adapter of the same name.
    pub fn raw_lines(&self, format: RawFormat) -> Vec<String> {
        self.lines.iter().map(|l| format.render(l)).collect()
    }
}

/// The two native log syntaxes (`lognlp::format`'s `hadoop` and `spark`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RawFormat {
    /// `2019-06-22 HH:MM:SS,mmm LEVEL class: msg`
    Hadoop,
    /// `19/06/22 HH:MM:SS LEVEL class: msg`
    Spark,
}

impl RawFormat {
    /// The natural syntax for a system's logs.
    pub fn for_system(system: SystemKind) -> RawFormat {
        match system {
            SystemKind::Spark => RawFormat::Spark,
            _ => RawFormat::Hadoop,
        }
    }

    /// Render one line.
    pub fn render(self, l: &SimLine) -> String {
        let ms = l.ts_ms % 1000;
        let total_s = l.ts_ms / 1000;
        let (s, m, h) = (total_s % 60, (total_s / 60) % 60, (total_s / 3600) % 24);
        let (_, mon, day) = crate::foreign::calendar_2019(22 + total_s / 86_400);
        match self {
            RawFormat::Hadoop => format!(
                "2019-{mon:02}-{day:02} {h:02}:{m:02}:{s:02},{ms:03} {} {}: {}",
                l.level.as_str(),
                l.source,
                l.message
            ),
            RawFormat::Spark => format!(
                "19/{mon:02}/{day:02} {h:02}:{m:02}:{s:02} {} {}: {}",
                l.level.as_str(),
                l.source,
                l.message
            ),
        }
    }
}

/// A fully generated job: many container sessions plus ground truth.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GenJob {
    /// Which system produced the job.
    pub system: SystemKind,
    /// Workload name (HiBench job / TPC-H query).
    pub workload: String,
    /// The sessions (containers).
    pub sessions: Vec<GenSession>,
    /// Ground truth: the fault injected into this job, if any.
    pub injected: Option<crate::faults::FaultKind>,
}

impl GenJob {
    /// Total number of log lines across sessions.
    pub fn total_lines(&self) -> usize {
        self.sessions.iter().map(|s| s.lines.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_rendering_matches_formatter_syntax() {
        let l = SimLine {
            ts_ms: 3_723_456, // 01:02:03.456
            level: SimLevel::Info,
            source: "BlockManager".into(),
            message: "Registered BlockManager".into(),
            template_id: "t",
        };
        assert_eq!(
            RawFormat::Spark.render(&l),
            "19/06/22 01:02:03 INFO BlockManager: Registered BlockManager"
        );
        assert_eq!(
            RawFormat::Hadoop.render(&l),
            "2019-06-22 01:02:03,456 INFO BlockManager: Registered BlockManager"
        );
    }

    #[test]
    fn rendering_rolls_over_midnight_and_month() {
        let mut l = SimLine {
            ts_ms: 86_400_000 + 1000,
            level: SimLevel::Warn,
            source: "X".into(),
            message: "m".into(),
            template_id: "t",
        };
        assert!(RawFormat::Hadoop
            .render(&l)
            .starts_with("2019-06-23 00:00:01"));
        // 9 days past the Jun 22 epoch: a date the adapters accept, not Jun 31
        l.ts_ms = 9 * 86_400_000;
        assert!(RawFormat::Hadoop.render(&l).starts_with("2019-07-01 "));
        assert!(RawFormat::Spark.render(&l).starts_with("19/07/01 "));
    }

    #[test]
    fn system_names() {
        assert_eq!(SystemKind::Spark.name(), "Spark");
        assert_eq!(SystemKind::Nova.name(), "nova-compute");
        assert_eq!(SystemKind::ANALYTICS.len(), 3);
    }
}
