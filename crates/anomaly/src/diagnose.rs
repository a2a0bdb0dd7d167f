//! Diagnosis helpers: the query workflow of the paper's case studies (§6.4).
//!
//! IntelLog does not claim to find root causes; it narrows them down. The
//! helpers here reproduce the case-study procedure: gather the unexpected
//! messages of a job report into an [`IntelStore`], GroupBy identifiers,
//! GroupBy locality, and summarise which entity groups / hosts concentrate
//! the anomalies.

use crate::report::{Anomaly, JobReport};
use extract::IntelStore;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A diagnosis summary distilled from a job report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Diagnosis {
    /// Problematic sessions / total sessions (`D / T` of Table 7).
    pub problematic_sessions: usize,
    /// Total sessions.
    pub total_sessions: usize,
    /// Entity groups implicated, with anomaly counts (descending).
    pub groups: Vec<(String, usize)>,
    /// Hosts implicated by locality extraction, with counts.
    pub hosts: Vec<(String, usize)>,
    /// New entities appearing only in unexpected messages ('spill' in case
    /// study 2).
    pub new_entities: Vec<String>,
    /// Identifier groups among unexpected messages (case study 1 finds 11
    /// fetcher groups).
    pub identifier_groups: usize,
}

/// Run the case-study diagnosis procedure over a job report.
///
/// `known_entities` is the entity universe of the trained HW-graph, used to
/// spot *new* entities in unexpected messages.
///
/// An [`Anomaly::UnexpectedRepeats`] counts towards its `groups` once, however
/// many lines it stands for; the [`IntelStore`] — so the GroupBys and the new
/// entities — is fed only the messages a session kept in full.
pub fn diagnose(report: &JobReport, known_entities: &[String]) -> Diagnosis {
    let mut store = IntelStore::new();
    let mut group_counts: BTreeMap<String, usize> = BTreeMap::new();
    for a in report.anomalies() {
        for g in a.groups() {
            *group_counts.entry(g.to_string()).or_insert(0) += 1;
        }
        if let Anomaly::UnexpectedMessage { intel, .. } = a {
            store.push(intel.clone());
        }
    }

    let mut hosts: Vec<(String, usize)> = store
        .group_by_locality()
        .into_iter()
        .map(|(h, v)| (h, v.len()))
        .collect();
    hosts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut groups: Vec<(String, usize)> = group_counts.into_iter().collect();
    groups.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut new_entities: Vec<String> = store
        .messages
        .iter()
        .flat_map(|m| m.entities.iter().cloned())
        .filter(|e| !known_entities.iter().any(|k| k == e))
        .collect();
    new_entities.sort();
    new_entities.dedup();

    Diagnosis {
        problematic_sessions: report.problematic_count(),
        total_sessions: report.total_count(),
        groups,
        hosts,
        new_entities,
        identifier_groups: store.group_by_identifier().len(),
    }
}

impl Diagnosis {
    /// Human-readable rendering of the diagnosis, mirroring the narrative of
    /// the paper's case studies.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "problematic sessions: {} / {}\n",
            self.problematic_sessions, self.total_sessions
        ));
        if !self.groups.is_empty() {
            s.push_str("implicated entity groups:\n");
            for (g, c) in self.groups.iter().take(5) {
                s.push_str(&format!("  {g}: {c} anomalies\n"));
            }
        }
        if self.identifier_groups > 0 {
            s.push_str(&format!(
                "GroupBy identifiers over unexpected messages: {} groups\n",
                self.identifier_groups
            ));
        }
        if !self.hosts.is_empty() {
            s.push_str("GroupBy locality:\n");
            for (h, c) in self.hosts.iter().take(5) {
                s.push_str(&format!("  {h}: {c} messages\n"));
            }
        }
        if !self.new_entities.is_empty() {
            s.push_str(&format!(
                "new entities in unexpected messages: {}\n",
                self.new_entities.join(", ")
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SessionReport;
    use extract::IntelExtractor;

    fn unexpected(text: &str, session: &str) -> Anomaly {
        let ex = IntelExtractor::new();
        let key = ex.extract_adhoc(text);
        let tokens = spell::tokenize_message(text);
        let intel = extract::IntelMessage::instantiate(&key, &tokens, session, 0);
        let entities = intel.entities.clone();
        Anomaly::UnexpectedMessage {
            ts_ms: 0,
            text: text.into(),
            intel,
            groups: entities,
        }
    }

    #[test]
    fn case1_converges_on_single_host() {
        let mut job = JobReport::default();
        for s in 0..4 {
            let mut sr = SessionReport {
                session: format!("c{s}"),
                lines: 50,
                anomalies: vec![],
            };
            for f in 0..3 {
                sr.anomalies.push(unexpected(
                    &format!(
                        "fetcher # {} failed to connect to hostA:13562",
                        s * 3 + f + 1
                    ),
                    &format!("c{s}"),
                ));
            }
            job.sessions.push(sr);
        }
        // plus clean sessions
        for s in 4..259 {
            job.sessions.push(SessionReport {
                session: format!("c{s}"),
                lines: 40,
                anomalies: vec![],
            });
        }
        let d = diagnose(&job, &["fetcher".to_string()]);
        assert_eq!(d.problematic_sessions, 4);
        assert_eq!(d.total_sessions, 259);
        assert_eq!(d.identifier_groups, 12); // 12 distinct fetcher ids
        assert_eq!(d.hosts.len(), 1);
        assert_eq!(d.hosts[0].0, "hostA");
        let txt = d.render();
        assert!(txt.contains("hostA"));
    }

    #[test]
    fn case2_surfaces_new_spill_entity() {
        let mut job = JobReport::default();
        job.sessions.push(SessionReport {
            session: "c0".into(),
            lines: 10,
            anomalies: vec![unexpected("spill 0 written to /tmp/spill0.out", "c0")],
        });
        let d = diagnose(&job, &["task".to_string(), "block".to_string()]);
        assert!(d.new_entities.contains(&"spill".to_string()), "{d:?}");
        assert!(d.render().contains("spill"));
    }

    #[test]
    fn empty_report_is_clean() {
        let d = diagnose(&JobReport::default(), &[]);
        assert_eq!(d.problematic_sessions, 0);
        assert!(d.groups.is_empty() && d.hosts.is_empty());
    }
}
