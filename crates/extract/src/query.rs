//! Query operators over stored Intel Messages.
//!
//! Intel Messages are collections of key-value pairs that "naturally fit in
//! the storage structure of time series databases" (paper §3.3); the paper's
//! case studies query them with GroupBy operators (§6.4 case 1: GroupBy on
//! identifiers, then GroupBy on locality, narrows 259 sessions down to one
//! faulty host). This module provides that query surface in-process, plus
//! JSON export for external tools.

use crate::intelkey::IntelMessage;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An in-memory store of Intel Messages supporting the paper's GroupBy /
/// filter diagnosis workflow.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IntelStore {
    /// The stored messages.
    pub messages: Vec<IntelMessage>,
}

impl IntelStore {
    /// An empty store.
    pub fn new() -> IntelStore {
        IntelStore::default()
    }

    /// Build a store from messages.
    pub fn from_messages(messages: Vec<IntelMessage>) -> IntelStore {
        IntelStore { messages }
    }

    /// Append a message.
    pub fn push(&mut self, m: IntelMessage) {
        self.messages.push(m);
    }

    /// Number of stored messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// `true` if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// GroupBy identifier value: each `type:value` pair becomes a group key.
    pub fn group_by_identifier(&self) -> BTreeMap<String, Vec<&IntelMessage>> {
        let mut out: BTreeMap<String, Vec<&IntelMessage>> = BTreeMap::new();
        for m in &self.messages {
            for (ty, v) in &m.identifiers {
                out.entry(format!("{ty}:{v}")).or_default().push(m);
            }
        }
        out
    }

    /// GroupBy locality (host, path, …).
    pub fn group_by_locality(&self) -> BTreeMap<String, Vec<&IntelMessage>> {
        let mut out: BTreeMap<String, Vec<&IntelMessage>> = BTreeMap::new();
        for m in &self.messages {
            for l in &m.localities {
                out.entry(host_of(l)).or_default().push(m);
            }
        }
        out
    }

    /// GroupBy session.
    pub fn group_by_session(&self) -> BTreeMap<String, Vec<&IntelMessage>> {
        let mut out: BTreeMap<String, Vec<&IntelMessage>> = BTreeMap::new();
        for m in &self.messages {
            out.entry(m.session.clone()).or_default().push(m);
        }
        out
    }

    /// Filter: messages mentioning the given entity phrase.
    pub fn filter_entity(&self, entity: &str) -> Vec<&IntelMessage> {
        self.messages
            .iter()
            .filter(|m| m.entities.iter().any(|e| e == entity))
            .collect()
    }

    /// Filter: messages within a time range `[from_ms, to_ms]` (Intel
    /// Messages "naturally fit in the storage structure of time series
    /// databases", §3.3 — range scans are the natural query).
    pub fn filter_time(&self, from_ms: u64, to_ms: u64) -> Vec<&IntelMessage> {
        self.messages
            .iter()
            .filter(|m| (from_ms..=to_ms).contains(&m.ts_ms))
            .collect()
    }

    /// Count messages per identifier type (`TASK` → 42).
    pub fn count_by_identifier_type(&self) -> BTreeMap<String, usize> {
        let mut out: BTreeMap<String, usize> = BTreeMap::new();
        for m in &self.messages {
            for (ty, _) in &m.identifiers {
                *out.entry(ty.clone()).or_insert(0) += 1;
            }
        }
        out
    }

    /// Sum a named value field across messages (`bytes` → total bytes).
    pub fn sum_values(&self, name: &str) -> f64 {
        self.messages
            .iter()
            .flat_map(|m| m.values.iter())
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| {
                v.trim_end_matches(|c: char| c.is_ascii_alphabetic())
                    .parse::<f64>()
                    .ok()
            })
            .sum()
    }

    /// Serialise the whole store to pretty JSON (the paper outputs JSON
    /// files queryable with JSONQuery).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("IntelStore is always serialisable")
    }
}

/// Normalise a locality to its host part (`host1:13562` → `host1`), so that
/// GroupBy-locality groups all ports of one machine together — exactly what
/// case study 1 needs to converge on 'host A'.
pub fn host_of(locality: &str) -> String {
    if locality.starts_with('/') || locality.contains("://") {
        return locality.to_string();
    }
    match locality.rsplit_once(':') {
        Some((host, port)) if port.chars().all(|c| c.is_ascii_digit()) => host.to_string(),
        _ => locality.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intelkey::{IntelExtractor, IntelMessage};
    use spell::SpellParser;

    fn store_from(messages: &[(&str, &str)]) -> IntelStore {
        // (session, message) pairs through the full pipeline
        let mut p = SpellParser::default();
        let outs: Vec<_> = messages
            .iter()
            .map(|(s, m)| (s.to_string(), p.parse_message(m)))
            .collect();
        let ex = IntelExtractor::new();
        let keys: Vec<_> = p.keys().iter().map(|k| ex.build(k)).collect();
        let mut st = IntelStore::new();
        for (i, (sess, out)) in outs.into_iter().enumerate() {
            let ik = &keys[out.key_id.0 as usize];
            st.push(IntelMessage::instantiate(ik, &out.tokens, sess, i as u64));
        }
        st
    }

    #[test]
    fn case_study_1_groupby_pipeline() {
        // 11 fetchers fail against host4; GroupBy identifier then locality
        // must converge on host4 (paper §6.4 case 1).
        let mut msgs = Vec::new();
        let rendered: Vec<String> = (1..=11)
            .map(|i| format!("fetcher # {i} failed to connect to host4:13562"))
            .collect();
        for r in &rendered {
            msgs.push(("container_01", r.as_str()));
        }
        let st = store_from(&msgs);
        let by_id = st.group_by_identifier();
        assert_eq!(by_id.len(), 11, "{:?}", by_id.keys().collect::<Vec<_>>());
        let by_host = st.group_by_locality();
        assert_eq!(by_host.len(), 1);
        assert!(
            by_host.contains_key("host4"),
            "{:?}",
            by_host.keys().collect::<Vec<_>>()
        );
        assert_eq!(by_host["host4"].len(), 11);
    }

    #[test]
    fn entity_filter() {
        let st = store_from(&[
            ("c1", "spill 1 written to /tmp/s1.out"),
            ("c1", "spill 2 written to /tmp/s2.out"),
            ("c2", "task 3 finished in 9ms"),
        ]);
        assert_eq!(st.filter_entity("spill").len(), 2);
        assert_eq!(st.filter_entity("task").len(), 1);
        assert!(st.filter_entity("ghost").is_empty());
    }

    #[test]
    fn session_grouping_and_json() {
        let st = store_from(&[
            ("c1", "task 1 finished in 9ms"),
            ("c2", "task 2 finished in 9ms"),
            ("c1", "task 3 finished in 9ms"),
        ]);
        let g = st.group_by_session();
        assert_eq!(g["c1"].len(), 2);
        assert_eq!(g["c2"].len(), 1);
        let json = st.to_json();
        let back: IntelStore = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn time_range_and_aggregations() {
        let st = store_from(&[
            ("c1", "task 1 finished in 9ms"),
            ("c1", "task 2 finished in 12ms"),
            ("c2", "fetcher read 100 bytes from remote host"),
            ("c2", "fetcher read 250 bytes from remote host"),
        ]);
        assert_eq!(st.filter_time(0, 1).len(), 2);
        assert_eq!(st.filter_time(0, 99).len(), 4);
        let counts = st.count_by_identifier_type();
        assert_eq!(counts.get("TASK"), Some(&2), "{counts:?}");
        assert!((st.sum_values("bytes") - 350.0).abs() < 1e-9);
        assert_eq!(st.sum_values("nonexistent"), 0.0);
    }

    #[test]
    fn host_normalisation() {
        assert_eq!(host_of("host1:13562"), "host1");
        assert_eq!(host_of("10.0.0.3:50010"), "10.0.0.3");
        assert_eq!(host_of("host1"), "host1");
        assert_eq!(host_of("/tmp/x:y"), "/tmp/x:y");
        assert_eq!(host_of("hdfs://nn:8020/x"), "hdfs://nn:8020/x");
    }
}
