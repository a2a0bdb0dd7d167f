//! Anomaly report types.
//!
//! IntelLog reports two kinds of anomalies (paper §4.2): **unexpected log
//! messages** (no Intel Key matches) and **erroneous HW-graph instances**
//! (missing critical Intel Keys, broken subroutine order, unknown
//! signatures, missing mandatory entity groups, or hierarchy violations).
//! Reports name the affected entity group / subroutine — IntelLog pinpoints
//! components rather than root causes.

use extract::IntelMessage;
use serde::{Deserialize, Serialize};
use spell::KeyId;
use std::collections::BTreeSet;

/// One detected anomaly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Anomaly {
    /// A log message matched no Intel Key; the extracted semantic fields of
    /// the message are attached to aid diagnosis (§4.2).
    UnexpectedMessage {
        /// Timestamp of the message.
        ts_ms: u64,
        /// Raw message text.
        text: String,
        /// Ad-hoc extraction result (entities, identifiers, localities).
        intel: IntelMessage,
        /// Entity groups the extracted entities map to, if any.
        groups: Vec<String>,
    },
    /// Unexpected messages counted instead of kept: past its first
    /// [`crate::stream::MAX_FULL_UNEXPECTED`] a session counts them, per
    /// digit-folded shape it has learnt and once for all the others.
    UnexpectedRepeats {
        /// The shape's tokens, `*` for those carrying a digit — or
        /// [`crate::stream::OTHER_TEMPLATE`] (lines of no learnt shape).
        template: String,
        /// How many lines were counted here.
        count: u64,
        /// Timestamp of the first of them.
        first_ts_ms: u64,
        /// Timestamp of the last of them.
        last_ts_ms: u64,
        /// Entity groups of the line that founded the shape.
        groups: Vec<String>,
    },
    /// A subroutine instance finished without one of its critical keys.
    MissingCriticalKey {
        /// Entity group name.
        group: String,
        /// Subroutine signature (identifier types).
        signature: BTreeSet<String>,
        /// The missing critical key.
        key: KeyId,
        /// Identifier values of the incomplete instance.
        instance: BTreeSet<String>,
    },
    /// Two keys appeared in an order that contradicts a learned BEFORE
    /// relation.
    BrokenOrder {
        /// Entity group name.
        group: String,
        /// Subroutine signature.
        signature: BTreeSet<String>,
        /// The key that should have come first.
        first: KeyId,
        /// The key that should have come second.
        second: KeyId,
    },
    /// An instance carried an identifier-type signature never seen in
    /// training for this group.
    UnknownSignature {
        /// Entity group name.
        group: String,
        /// The unknown signature.
        signature: BTreeSet<String>,
    },
    /// A mandatory entity group produced no messages in this session
    /// (the Spark-19731 starvation case, §6.4 case 3).
    MissingGroup {
        /// Entity group name.
        group: String,
    },
    /// A child group's lifespan escaped its parent's in this session.
    HierarchyViolation {
        /// Parent group name.
        parent: String,
        /// Child group name.
        child: String,
    },
    /// Sibling groups violated a learned BEFORE relation.
    GroupOrderViolation {
        /// The group that should have finished first.
        before: String,
        /// The group that should have started later.
        after: String,
    },
}

impl Anomaly {
    /// The entity group(s) this anomaly points at (diagnosis target).
    pub fn groups(&self) -> Vec<&str> {
        match self {
            Anomaly::UnexpectedMessage { groups, .. }
            | Anomaly::UnexpectedRepeats { groups, .. } => {
                groups.iter().map(String::as_str).collect()
            }
            Anomaly::MissingCriticalKey { group, .. }
            | Anomaly::BrokenOrder { group, .. }
            | Anomaly::UnknownSignature { group, .. }
            | Anomaly::MissingGroup { group } => vec![group.as_str()],
            Anomaly::HierarchyViolation { parent, child } => vec![parent.as_str(), child.as_str()],
            Anomaly::GroupOrderViolation { before, after } => vec![before.as_str(), after.as_str()],
        }
    }

    /// `true` for the unexpected-log-message kind.
    pub fn is_unexpected_message(&self) -> bool {
        matches!(self, Anomaly::UnexpectedMessage { .. })
    }

    /// Stable kebab-case kind label, for metrics aggregation and log lines.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Anomaly::UnexpectedMessage { .. } => "unexpected-message",
            Anomaly::UnexpectedRepeats { .. } => "unexpected-repeats",
            Anomaly::MissingCriticalKey { .. } => "missing-critical-key",
            Anomaly::BrokenOrder { .. } => "broken-order",
            Anomaly::UnknownSignature { .. } => "unknown-signature",
            Anomaly::MissingGroup { .. } => "missing-group",
            Anomaly::HierarchyViolation { .. } => "hierarchy-violation",
            Anomaly::GroupOrderViolation { .. } => "group-order-violation",
        }
    }
}

/// Record one `anomaly.verdict.<kind>` counter tick per anomaly in `batch`
/// (no-op while observability is disabled). The kind label is dynamic, so
/// this goes through the registry rather than a literal-name macro; verdicts
/// are rare enough that the registry lock does not matter.
pub(crate) fn count_verdicts(batch: &[Anomaly]) {
    if !obs::is_enabled() || batch.is_empty() {
        return;
    }
    for a in batch {
        let name = format!("anomaly.verdict.{}", a.kind_name());
        obs::registry().counter(&name).inc();
    }
}

/// The detection result for one session.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// Session (container) id.
    pub session: String,
    /// Number of log lines consumed.
    pub lines: usize,
    /// Detected anomalies.
    pub anomalies: Vec<Anomaly>,
}

impl SessionReport {
    /// `true` if the session shows at least one anomaly.
    pub fn is_problematic(&self) -> bool {
        !self.anomalies.is_empty()
    }

    /// All unexpected messages, for query-based diagnosis.
    pub fn unexpected_messages(&self) -> Vec<&IntelMessage> {
        self.anomalies
            .iter()
            .filter_map(|a| match a {
                Anomaly::UnexpectedMessage { intel, .. } => Some(intel),
                _ => None,
            })
            .collect()
    }
}

/// The detection result for one job (many sessions).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JobReport {
    /// Per-session reports.
    pub sessions: Vec<SessionReport>,
}

impl JobReport {
    /// Number of problematic sessions (`D` in Table 7).
    pub fn problematic_count(&self) -> usize {
        self.sessions.iter().filter(|s| s.is_problematic()).count()
    }

    /// Total number of sessions (`T` in Table 7).
    pub fn total_count(&self) -> usize {
        self.sessions.len()
    }

    /// `true` if any session is problematic (job-level alarm).
    pub fn is_problematic(&self) -> bool {
        self.problematic_count() > 0
    }

    /// All anomalies across sessions.
    pub fn anomalies(&self) -> impl Iterator<Item = &Anomaly> {
        self.sessions.iter().flat_map(|s| s.anomalies.iter())
    }

    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("JobReport is always serialisable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_accessor_covers_all_variants() {
        let sig: BTreeSet<String> = ["TASK".to_string()].into();
        let cases = vec![
            Anomaly::MissingCriticalKey {
                group: "task".into(),
                signature: sig.clone(),
                key: KeyId(1),
                instance: BTreeSet::new(),
            },
            Anomaly::BrokenOrder {
                group: "task".into(),
                signature: sig.clone(),
                first: KeyId(0),
                second: KeyId(1),
            },
            Anomaly::UnknownSignature {
                group: "task".into(),
                signature: sig,
            },
            Anomaly::MissingGroup {
                group: "task".into(),
            },
        ];
        for c in &cases {
            assert_eq!(c.groups(), ["task"]);
            assert!(!c.is_unexpected_message());
        }
        let h = Anomaly::HierarchyViolation {
            parent: "memory".into(),
            child: "task".into(),
        };
        assert_eq!(h.groups(), ["memory", "task"]);
        let r = Anomaly::UnexpectedRepeats {
            template: "spill * of * MB".into(),
            count: 7,
            first_ts_ms: 1,
            last_ts_ms: 9,
            groups: vec!["memory".into()],
        };
        assert_eq!(r.groups(), ["memory"]);
        assert_eq!(r.kind_name(), "unexpected-repeats");
        assert!(!r.is_unexpected_message(), "it carries no Intel Message");
    }

    #[test]
    fn job_report_counts() {
        let mut job = JobReport::default();
        job.sessions.push(SessionReport {
            session: "a".into(),
            lines: 5,
            anomalies: vec![],
        });
        job.sessions.push(SessionReport {
            session: "b".into(),
            lines: 9,
            anomalies: vec![Anomaly::MissingGroup {
                group: "task".into(),
            }],
        });
        assert_eq!(job.total_count(), 2);
        assert_eq!(job.problematic_count(), 1);
        assert!(job.is_problematic());
        assert_eq!(job.anomalies().count(), 1);
        assert!(job.to_json().contains("MissingGroup"));
    }
}
