//! The IntelLog anomaly detector (paper §4.2).
//!
//! A trained [`Detector`] holds the frozen Spell key set, the Intel Keys and
//! the HW-graph. For each incoming session it instantiates a HW-graph
//! instance and checks it against the model:
//!
//! 1. every message must match a known Intel Key — otherwise it is reported
//!    as an *unexpected log message* and its information is extracted
//!    ad hoc to aid diagnosis;
//! 2. per entity group, messages are routed into subroutine instances
//!    (Algorithm 2); when the session closes, instances must carry a known
//!    signature, contain every critical Intel Key and respect the learned
//!    BEFORE order;
//! 3. mandatory groups must appear; learned PARENT/BEFORE group relations
//!    must hold on the instance lifespans.

use crate::instance::{GroupInstance, HwInstance};
use crate::report::{Anomaly, JobReport, SessionReport};
use crate::stream::StreamState;
use extract::{IntelKey, SessionLog};
use hwgraph::{rows_by_group, split_instances_into, FirstSeen, GroupRel, HwGraph, InstanceSplit};
use serde::{Deserialize, Serialize};
use spell::{KeyId, Session, SpellParser};
use std::collections::{BTreeMap, BTreeSet};

/// A trained IntelLog model ready for detection.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Detector {
    /// Frozen Spell parser (key matching only, no refinement).
    pub parser: SpellParser,
    /// Intel Keys indexed by [`KeyId`].
    pub keys: Vec<IntelKey>,
    /// The trained HW-graph.
    pub graph: HwGraph,
    /// Keys whose messages are not natural language — matched messages are
    /// ignored instead of triggering unexpected-message errors (paper §5).
    pub ignored_keys: BTreeSet<KeyId>,
}

impl Detector {
    /// Assemble a detector from trained components. The parser is frozen
    /// here — training is over, so the key set is compiled into the dense
    /// matching automaton that detection, replay and serving run against.
    pub fn new(
        mut parser: SpellParser,
        keys: Vec<IntelKey>,
        graph: HwGraph,
        ignored_keys: BTreeSet<KeyId>,
    ) -> Detector {
        parser.freeze();
        Detector {
            parser,
            keys,
            graph,
            ignored_keys,
        }
    }

    /// Check the cross-references between the parts: detection indexes
    /// `keys` with the parser's key ids and `graph.groups` with the graph's
    /// stored group indices, both unchecked. [`Trainer`] output always
    /// passes; whatever loads a detector from outside the program (the
    /// model store) must call this before serving from it.
    ///
    /// [`Trainer`]: crate::Trainer
    pub fn validate(&self) -> Result<(), String> {
        if self.keys.len() != self.parser.len() {
            return Err(format!(
                "{} Intel Keys for {} log keys",
                self.keys.len(),
                self.parser.len()
            ));
        }
        let mut keys = self.keys.iter().enumerate();
        if let Some((i, key)) = keys.find(|(i, key)| key.key_id.0 as usize != *i) {
            return Err(format!(
                "Intel Key at position {i} carries id {}",
                key.key_id.0
            ));
        }
        self.graph.validate()
    }

    /// Detect anomalies in one session. This is the streaming detector run
    /// to completion: one [`StreamState`], every line fed, then closed.
    pub fn detect_session(&self, session: &Session) -> SessionReport {
        let _span = obs::span!("anomaly.detect_session");
        self.stream_through(session).finish(self)
    }

    /// [`Detector::detect_session`], returning the reconstructed HW-graph
    /// instance alongside the report (paper §4.2; the case studies inspect
    /// instances directly).
    pub fn detect_session_detailed(&self, session: &Session) -> (SessionReport, HwInstance) {
        let _span = obs::span!("anomaly.detect_session");
        self.stream_through(session).finish_detailed(self)
    }

    fn stream_through(&self, session: &Session) -> StreamState {
        let mut state = StreamState::begin(session.id.as_str());
        for line in &session.lines {
            state.feed(self, line);
        }
        state
    }

    /// The end-of-session structural checks (§4.2 steps 2–5): subroutine
    /// instances, critical keys, BEFORE orders, mandatory groups, hierarchy.
    /// Run over the session's log of matched lines. With `instance` given,
    /// the per-group HW-graph instance material is rendered into it;
    /// without, only what a reported anomaly quotes is.
    pub(crate) fn structural_checks(
        &self,
        log: &SessionLog,
        report: &mut SessionReport,
        mut instance: Option<&mut BTreeMap<usize, GroupInstance>>,
    ) {
        let verdicts_before = report.anomalies.len();
        // 2. Route matched lines into groups; track lifespans.
        let per_group = rows_by_group(&self.graph.key_groups, log);
        let span_of = |g: usize| per_group.get(&g).map(|(span, _)| span);

        // The session is checked against its best-matching *session
        // profile* (session type): heterogeneous containers (AM vs map vs
        // reduce) have different mandatory groups and subroutine shapes.
        let fingerprint: BTreeSet<usize> = per_group.keys().copied().collect();
        let matched = self.graph.profiles.best_match_scored(&fingerprint);
        let profile = matched.map(|(_, p, _)| p);

        // 3. Per-group subroutine-instance checks, the groups split one
        //    after the other into one set of arrays (as the trainer does).
        let mut split = InstanceSplit::new(log);
        for (&g, (span, rows)) in &per_group {
            let gm = &self.graph.groups[g];
            let profile_subs = profile.and_then(|p| p.subroutines.get(&g));
            let range = split_instances_into(rows, &mut split);
            if let Some(groups) = instance.as_deref_mut() {
                groups.insert(
                    g,
                    GroupInstance {
                        group: gm.name.clone(),
                        lifespan: Some(*span),
                        subroutines: split.instances(range.clone()).map(|i| i.render()).collect(),
                        messages: rows.len(),
                    },
                );
            }
            for inst in split.instances(range) {
                // Prefer the per-profile learner; fall back to the global
                // one for signatures the profile never saw (a signature is
                // only *unknown* if neither learner knows it).
                let model = profile_subs
                    .and_then(|s| s.of_instance(inst))
                    .or_else(|| gm.subroutines.of_instance(inst));
                match model {
                    None => report.anomalies.push(Anomaly::UnknownSignature {
                        group: gm.name.clone(),
                        signature: inst.signature(),
                    }),
                    Some(model) => {
                        // first-occurrence order of keys in this instance
                        let first = FirstSeen::of(inst.keys());
                        for &crit in &model.critical {
                            if first.get(crit).is_none() {
                                report.anomalies.push(Anomaly::MissingCriticalKey {
                                    group: gm.name.clone(),
                                    signature: inst.signature(),
                                    key: crit,
                                    instance: inst.id_values(),
                                });
                            }
                        }
                        for &(a, b) in &model.before {
                            if let (Some(ia), Some(ib)) = (first.get(a), first.get(b)) {
                                if ia >= ib {
                                    report.anomalies.push(Anomaly::BrokenOrder {
                                        group: gm.name.clone(),
                                        signature: inst.signature(),
                                        first: a,
                                        second: b,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }

        // 4. Mandatory groups of the session's profile must appear
        //    (§6.4 case 3: sessions missing the 'task' entity group).
        //    Only enforced against well-supported, well-matching profiles —
        //    a thin or distant profile says little about what this session
        //    type must contain.
        if let Some((_, p, sim)) = matched {
            if p.sessions_seen >= 3 && sim >= 0.5 {
                for &g in &p.mandatory {
                    // Only *critical* groups (multi-key / repeating — the
                    // §6.3 definition) are load-bearing enough that their
                    // absence flags a session; single-key probabilistic
                    // groups (an occasional GC line) are not.
                    if self.graph.groups[g].critical && !per_group.contains_key(&g) {
                        report.anomalies.push(Anomaly::MissingGroup {
                            group: self.graph.groups[g].name.clone(),
                        });
                    }
                }
            }
        }

        // 5. Hierarchy checks on instance lifespans.
        for (g, node) in self.graph.hierarchy.nodes.iter().enumerate() {
            if let (Some(p), Some(lg)) = (node.parent, span_of(g)) {
                if let Some(lp) = span_of(p) {
                    if !lg.within(lp) {
                        report.anomalies.push(Anomaly::HierarchyViolation {
                            parent: self.graph.groups[p].name.clone(),
                            child: self.graph.groups[g].name.clone(),
                        });
                    }
                }
            }
            for &b in &node.before {
                if let (Some(la), Some(lb)) = (span_of(g), span_of(b)) {
                    if !la.before(lb) {
                        report.anomalies.push(Anomaly::GroupOrderViolation {
                            before: self.graph.groups[g].name.clone(),
                            after: self.graph.groups[b].name.clone(),
                        });
                    }
                }
            }
        }
        let _ = GroupRel::Parallel; // relations other than parent/before need no check
        crate::report::count_verdicts(&report.anomalies[verdicts_before..]);
        obs::add!("hwgraph.instance_groups", per_group.len() as u64);
        obs::add!("hwgraph.instances", split.len() as u64);
    }

    /// Detect anomalies across a whole job.
    pub fn detect_job(&self, sessions: &[Session]) -> JobReport {
        JobReport {
            sessions: sessions.iter().map(|s| self.detect_session(s)).collect(),
        }
    }

    /// Map entity phrases to group names via the trained grouping: the
    /// `groups` an unexpected message is reported with.
    pub fn groups_of_entities<S: AsRef<str>>(&self, entities: &[S]) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for e in entities.iter().map(S::as_ref) {
            for (gi, gm) in self.graph.groups.iter().enumerate() {
                if gm.entities.contains(e) || hwgraph::longest_common_phrase(&gm.name, e).is_some()
                {
                    let name = self.graph.groups[gi].name.clone();
                    if !out.contains(&name) {
                        out.push(name);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::Trainer;
    use spell::{Level, LogLine};

    fn line(ts: u64, msg: &str) -> LogLine {
        LogLine {
            ts_ms: ts,
            level: Level::Info,
            source: "X".into(),
            message: msg.into(),
        }
    }

    fn normal_session(id: &str, hosts: &str, tasks: &[u32]) -> Session {
        let mut lines = vec![
            line(0, "Changing view acls to root"),
            line(
                10,
                &format!("Registering block manager endpoint on {hosts}"),
            ),
            line(20, "block manager registered with 2 GB memory"),
        ];
        let mut t = 30;
        for &k in tasks {
            lines.push(line(t, &format!("Starting task {k} in stage 0")));
            t += 10;
        }
        for &k in tasks {
            lines.push(line(
                t,
                &format!("Finished task {k} in stage 0 and sent 2264 bytes to driver"),
            ));
            t += 10;
        }
        lines.push(line(t, "Stopped block manager cleanly"));
        lines.push(line(t + 10, "Shutdown hook called"));
        Session::new(id, lines)
    }

    fn trained() -> Detector {
        let sessions = vec![
            normal_session("c0", "host1", &[1, 2]),
            normal_session("c1", "host2", &[3]),
            normal_session("c2", "host1", &[4, 5, 6]),
        ];
        Trainer::default().train(&sessions)
    }

    #[test]
    fn clean_session_has_no_anomalies() {
        let d = trained();
        let r = d.detect_session(&normal_session("c9", "host1", &[7, 8]));
        assert!(!r.is_problematic(), "{:?}", r.anomalies);
    }

    #[test]
    fn unexpected_message_reported_with_extraction() {
        let d = trained();
        let mut s = normal_session("c9", "host1", &[7]);
        s.lines.insert(
            4,
            line(
                33,
                "spill 1 written to /tmp/spill1.out due to memory pressure",
            ),
        );
        let r = d.detect_session(&s);
        assert!(r.is_problematic());
        let unexpected = r.unexpected_messages();
        assert_eq!(unexpected.len(), 1);
        assert!(
            unexpected[0].entities.contains(&"spill".to_string()),
            "{unexpected:?}"
        );
        assert!(unexpected[0]
            .localities
            .iter()
            .any(|l| l.starts_with("/tmp/")));
    }

    #[test]
    fn truncated_session_misses_critical_keys() {
        let d = trained();
        let mut s = normal_session("c9", "host1", &[7, 8]);
        s.lines.truncate(5); // killed mid-flight: no finish/stop/shutdown
        let r = d.detect_session(&s);
        assert!(r.is_problematic());
        assert!(
            r.anomalies
                .iter()
                .any(|a| matches!(a, Anomaly::MissingCriticalKey { .. })),
            "{:?}",
            r.anomalies
        );
    }

    #[test]
    fn missing_mandatory_group_detected() {
        // Spark-19371 shape: a session with no task messages at all.
        let d = trained();
        let s = Session::new(
            "c9",
            vec![
                line(0, "Changing view acls to root"),
                line(10, "Registering block manager endpoint on host1"),
                line(20, "block manager registered with 2 GB memory"),
                line(90, "Stopped block manager cleanly"),
                line(100, "Shutdown hook called"),
            ],
        );
        let r = d.detect_session(&s);
        assert!(
            r.anomalies
                .iter()
                .any(|a| matches!(a, Anomaly::MissingGroup { group } if group == "task")),
            "{:?}",
            r.anomalies
        );
    }

    #[test]
    fn broken_order_detected() {
        let d = trained();
        // finish before start for the same task id
        let s = Session::new(
            "c9",
            vec![
                line(0, "Changing view acls to root"),
                line(10, "Registering block manager endpoint on host1"),
                line(20, "block manager registered with 2 GB memory"),
                line(
                    30,
                    "Finished task 7 in stage 0 and sent 2264 bytes to driver",
                ),
                line(40, "Starting task 7 in stage 0"),
                line(
                    50,
                    "Finished task 7 in stage 0 and sent 2264 bytes to driver",
                ),
                line(90, "Stopped block manager cleanly"),
                line(100, "Shutdown hook called"),
            ],
        );
        let r = d.detect_session(&s);
        assert!(
            r.anomalies
                .iter()
                .any(|a| matches!(a, Anomaly::BrokenOrder { .. })),
            "{:?}",
            r.anomalies
        );
    }

    #[test]
    fn job_level_aggregation() {
        let d = trained();
        let mut bad = normal_session("c8", "host1", &[9]);
        bad.lines.truncate(4);
        let job = d.detect_job(&[normal_session("c9", "host1", &[7]), bad]);
        assert_eq!(job.total_count(), 2);
        assert_eq!(job.problematic_count(), 1);
    }
}
