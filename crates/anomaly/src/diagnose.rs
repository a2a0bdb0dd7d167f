//! Diagnosis helpers: the query workflow of the paper's case studies (§6.4).
//!
//! IntelLog does not claim to find root causes; it narrows them down. The
//! helpers here reproduce the case-study procedure over the unexpected
//! messages of a job report: GroupBy identifiers, GroupBy locality, and
//! summarise which entity groups / hosts concentrate the anomalies.

use crate::report::{Anomaly, JobReport};
use extract::host_of;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

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
/// many lines it stands for; the GroupBys and the new entities read only the
/// messages a session kept in full. A message counts once towards each host
/// it names, however many ports of that host it names.
pub fn diagnose(report: &JobReport, known_entities: &[String]) -> Diagnosis {
    let mut groups: BTreeMap<String, usize> = BTreeMap::new();
    let mut hosts: BTreeMap<String, usize> = BTreeMap::new();
    let mut identifiers: BTreeSet<String> = BTreeSet::new();
    let mut new_entities: BTreeSet<&String> = BTreeSet::new();
    for a in report.anomalies() {
        for g in a.groups() {
            *groups.entry(g.to_string()).or_insert(0) += 1;
        }
        let Anomaly::UnexpectedMessage { intel: m, .. } = a else {
            continue;
        };
        // GroupBy identifier: each `type:value` spelling is a group.
        identifiers.extend(m.identifiers.iter().map(|(ty, v)| format!("{ty}:{v}")));
        // GroupBy locality, folded to hosts.
        let named: BTreeSet<String> = m.localities.iter().map(|l| host_of(l)).collect();
        for h in named {
            *hosts.entry(h).or_insert(0) += 1;
        }
        new_entities.extend(m.entities.iter().filter(|e| !known_entities.contains(e)));
    }

    Diagnosis {
        problematic_sessions: report.problematic_count(),
        total_sessions: report.total_count(),
        groups: by_count(groups),
        hosts: by_count(hosts),
        new_entities: new_entities.into_iter().cloned().collect(),
        identifier_groups: identifiers.len(),
    }
}

/// Counts in descending order, ties by name.
fn by_count(counts: BTreeMap<String, usize>) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize)> = counts.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
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
    use extract::{IntelExtractor, IntelMessage};

    fn reported(text: &str, intel: IntelMessage) -> Anomaly {
        let entities = intel.entities.clone();
        Anomaly::UnexpectedMessage {
            ts_ms: 0,
            text: text.into(),
            intel,
            groups: entities,
        }
    }

    fn unexpected(text: &str, session: &str) -> Anomaly {
        let key = IntelExtractor::new().extract_adhoc(text);
        let tokens = spell::tokenize_message(text);
        reported(text, IntelMessage::instantiate(&key, &tokens, session, 0))
    }

    #[test]
    fn case_study_1_groupby_pipeline() {
        // 11 fetchers fail against host4, the messages read through trained
        // keys: GroupBy identifier then locality must converge on host4
        // (paper §6.4 case 1).
        let rendered: Vec<String> = (1..=11)
            .map(|i| format!("fetcher # {i} failed to connect to host4:13562"))
            .collect();
        let mut parser = spell::SpellParser::default();
        let (mut spans, mut ids) = (Vec::new(), Vec::new());
        let key_ids: Vec<_> = rendered
            .iter()
            .map(|r| parser.parse_spans(r, &mut spans, &mut ids).0)
            .collect();
        let ex = IntelExtractor::new();
        let keys: Vec<_> = parser.keys().iter().map(|k| ex.build(k)).collect();
        let anomalies = rendered
            .iter()
            .zip(key_ids)
            .enumerate()
            .map(|(i, (r, id))| {
                let tokens = spell::tokenize_message(r);
                let intel = IntelMessage::instantiate(
                    &keys[id.0 as usize],
                    &tokens,
                    "container_01",
                    i as u64,
                );
                reported(r, intel)
            })
            .collect();
        let mut job = JobReport::default();
        job.sessions.push(SessionReport {
            session: "container_01".into(),
            lines: 11,
            anomalies,
        });
        let d = diagnose(&job, &[]);
        assert_eq!(d.identifier_groups, 11, "{d:?}");
        assert_eq!(d.hosts, vec![("host4".to_string(), 11)]);
    }

    #[test]
    fn two_ports_of_one_host_count_once() {
        let text = "connection from host4:54106 to host4:50010 reset";
        let a = unexpected(text, "c0");
        let Anomaly::UnexpectedMessage { intel, .. } = &a else {
            unreachable!()
        };
        assert_eq!(intel.localities, ["host4:54106", "host4:50010"]);
        let mut job = JobReport::default();
        job.sessions.push(SessionReport {
            session: "c0".into(),
            lines: 1,
            anomalies: vec![a],
        });
        let d = diagnose(&job, &[]);
        assert_eq!(d.hosts, vec![("host4".to_string(), 1)]);
        assert!(d.render().contains("host4: 1 messages"), "{}", d.render());
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
