//! Stitch's S³ graph (Zhao et al., OSDI'16), rebuilt for the Fig. 9
//! comparison.
//!
//! Stitch reconstructs workflows **solely from identifiers**: it defines
//! four relationships between identifier-type pairs — *empty* (never
//! co-occur), *1:1* (interchangeable names for the same object), *1:n*
//! (hierarchy: one A owns many Bs) and *m:n* (only the pair identifies an
//! object). The comparison point of the paper (§6.3) is that the S³ graph
//! carries no semantics: only identifier names and their nesting.

use extract::IntelMessage;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Relationship between a pair of identifier types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum S3Rel {
    /// The two types are interchangeable (same object).
    OneToOne,
    /// One `a` owns many `b`s — a hierarchy edge `a → b`.
    OneToMany,
    /// Only the combination identifies an object.
    ManyToMany,
}

/// The S³ graph over identifier types.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct S3Graph {
    /// All identifier types observed.
    pub types: Vec<String>,
    /// Relations between co-occurring type pairs `(a, b)` with `a < b`
    /// lexicographically (for `OneToMany` the parent is stored first, which
    /// may override the lexicographic order).
    pub edges: Vec<(String, String, S3Rel)>,
}

impl S3Graph {
    /// Build the S³ graph from the Intel Messages of several independent
    /// executions (jobs), each a list of sessions. Only the messages'
    /// identifier `(type, value)` pairs are consulted — Stitch sees nothing
    /// else. Host localities participate as `HOST` identifiers, which is how
    /// Stitch's own extraction treats them (Fig. 9 has a `{HOST/IP}` node).
    /// Identifier values are scoped per execution, since e.g. TIDs restart
    /// from 0 in every job — Stitch analyses each execution's logs
    /// separately.
    pub fn build(jobs: &[Vec<Vec<IntelMessage>>]) -> S3Graph {
        let _span = obs::span!("baselines.stitch.build");
        // For each type pair co-occurring in a message, record the value
        // mappings in both directions.
        let mut types: BTreeSet<String> = BTreeSet::new();
        // (a_type, b_type) -> a_value -> set of b_values
        let mut maps: BTreeMap<(String, String), BTreeMap<String, BTreeSet<String>>> =
            BTreeMap::new();
        for (j, sessions) in jobs.iter().enumerate() {
            for session in sessions {
                for m in session {
                    let mut ids: Vec<(String, String)> = m
                        .identifiers
                        .iter()
                        .map(|(t, v)| (t.clone(), format!("{j}#{v}")))
                        .collect();
                    ids.extend(
                        m.localities
                            .iter()
                            .map(|l| ("HOST".to_string(), extract::host_of(l))),
                    );
                    for (ta, va) in &ids {
                        types.insert(ta.clone());
                        for (tb, vb) in &ids {
                            if ta == tb {
                                continue;
                            }
                            maps.entry((ta.clone(), tb.clone()))
                                .or_default()
                                .entry(va.clone())
                                .or_default()
                                .insert(vb.clone());
                        }
                    }
                }
            }
        }
        let fanout_one = |m: Option<&BTreeMap<String, BTreeSet<String>>>| -> bool {
            m.is_some_and(|m| m.values().all(|s| s.len() == 1))
        };
        let mut edges = Vec::new();
        let type_list: Vec<String> = types.iter().cloned().collect();
        for i in 0..type_list.len() {
            for j in i + 1..type_list.len() {
                let (a, b) = (&type_list[i], &type_list[j]);
                let ab = maps.get(&(a.clone(), b.clone()));
                let ba = maps.get(&(b.clone(), a.clone()));
                if ab.is_none() && ba.is_none() {
                    continue; // empty relation
                }
                let a_one = fanout_one(ab); // every a maps to exactly one b
                let b_one = fanout_one(ba);
                let rel = match (a_one, b_one) {
                    (true, true) => S3Rel::OneToOne,
                    (false, true) => S3Rel::OneToMany, // a owns many b
                    (true, false) => {
                        edges.push((b.clone(), a.clone(), S3Rel::OneToMany));
                        continue;
                    }
                    (false, false) => S3Rel::ManyToMany,
                };
                edges.push((a.clone(), b.clone(), rel));
            }
        }
        S3Graph {
            types: type_list,
            edges,
        }
    }

    /// Render the graph in the Fig. 9 style: 1:1 types merged into one box,
    /// 1:n as arrows, m:n as braces.
    pub fn render(&self) -> String {
        // Union 1:1 types into boxes.
        let mut box_of: BTreeMap<&str, usize> = BTreeMap::new();
        let mut boxes: Vec<BTreeSet<&str>> = Vec::new();
        for t in &self.types {
            let id = boxes.len();
            box_of.insert(t, id);
            boxes.push(BTreeSet::from([t.as_str()]));
        }
        for (a, b, r) in &self.edges {
            if *r == S3Rel::OneToOne {
                let (ia, ib) = (box_of[a.as_str()], box_of[b.as_str()]);
                if ia != ib {
                    let moved: Vec<&str> = boxes[ib].iter().copied().collect();
                    for t in moved {
                        boxes[ia].insert(t);
                        box_of.insert(t, ia);
                    }
                    boxes[ib].clear();
                }
            }
        }
        let label = |i: usize| -> String {
            format!(
                "{{{}}}",
                boxes[i].iter().copied().collect::<Vec<_>>().join(" / ")
            )
        };
        let mut out = String::new();
        let mut seen: BTreeSet<(usize, usize, &str)> = BTreeSet::new();
        for (a, b, r) in &self.edges {
            let (ia, ib) = (box_of[a.as_str()], box_of[b.as_str()]);
            let line = match r {
                S3Rel::OneToOne => continue,
                S3Rel::OneToMany => {
                    if !seen.insert((ia, ib, "1n")) {
                        continue;
                    }
                    format!("{} -> {}   (1:n)\n", label(ia), label(ib))
                }
                S3Rel::ManyToMany => {
                    if !seen.insert((ia.min(ib), ia.max(ib), "mn")) {
                        continue;
                    }
                    format!("{{{} , {}}}   (m:n)\n", a, b)
                }
            };
            out.push_str(&line);
        }
        for (i, bx) in boxes.iter().enumerate() {
            let connected = self.edges.iter().any(|(a, b, r)| {
                *r != S3Rel::OneToOne && (box_of[a.as_str()] == i || box_of[b.as_str()] == i)
            });
            if !bx.is_empty() && !connected {
                out.push_str(&format!("{}   (isolated)\n", label(i)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spell::KeyId;

    fn msg(ids: &[(&str, &str)]) -> IntelMessage {
        IntelMessage {
            key_id: KeyId(0),
            session: "s".into(),
            ts_ms: 0,
            identifiers: ids
                .iter()
                .map(|(t, v)| (t.to_string(), v.to_string()))
                .collect(),
            values: vec![],
            localities: vec![],
            entities: vec![],
            operations: vec![],
            text: String::new(),
        }
    }

    #[test]
    fn one_to_one_detected() {
        // HOST and EXECUTOR are interchangeable: h1↔e1, h2↔e2.
        let sessions = vec![vec![
            msg(&[("HOST", "h1"), ("EXECUTOR", "e1")]),
            msg(&[("HOST", "h2"), ("EXECUTOR", "e2")]),
        ]];
        let g = S3Graph::build(&[sessions]);
        assert_eq!(
            g.edges,
            vec![("EXECUTOR".into(), "HOST".into(), S3Rel::OneToOne)]
        );
    }

    #[test]
    fn one_to_many_detected() {
        // one STAGE owns many TIDs
        let sessions = vec![vec![
            msg(&[("STAGE", "s1"), ("TID", "t1")]),
            msg(&[("STAGE", "s1"), ("TID", "t2")]),
            msg(&[("STAGE", "s2"), ("TID", "t3")]),
        ]];
        let g = S3Graph::build(&[sessions]);
        assert_eq!(
            g.edges,
            vec![("STAGE".into(), "TID".into(), S3Rel::OneToMany)]
        );
        let r = g.render();
        assert!(r.contains("{STAGE} -> {TID}"), "{r}");
    }

    #[test]
    fn many_to_many_detected() {
        let sessions = vec![vec![
            msg(&[("STAGE", "s1"), ("TASK", "0")]),
            msg(&[("STAGE", "s1"), ("TASK", "1")]),
            msg(&[("STAGE", "s2"), ("TASK", "0")]),
        ]];
        let g = S3Graph::build(&[sessions]);
        assert_eq!(
            g.edges,
            vec![("STAGE".into(), "TASK".into(), S3Rel::ManyToMany)]
        );
    }

    #[test]
    fn non_cooccurring_types_have_no_edge() {
        let sessions = vec![vec![msg(&[("A", "1")]), msg(&[("B", "2")])]];
        let g = S3Graph::build(&[sessions]);
        assert!(g.edges.is_empty());
        let r = g.render();
        assert!(r.contains("isolated"), "{r}");
    }

    #[test]
    fn spark_like_chain_renders_figure9_shape() {
        // {HOST/EXECUTOR} -> {STAGE,TASK}-ish -> {TID}; BROADCAST isolated.
        let sessions = vec![vec![
            msg(&[("HOST", "h1"), ("EXECUTOR", "e1")]),
            msg(&[("HOST", "h2"), ("EXECUTOR", "e2")]),
            msg(&[("EXECUTOR", "e1"), ("TID", "t1")]),
            msg(&[("EXECUTOR", "e1"), ("TID", "t2")]),
            msg(&[("EXECUTOR", "e2"), ("TID", "t3")]),
            msg(&[("BROADCAST", "b0")]),
        ]];
        let g = S3Graph::build(&[sessions]);
        let r = g.render();
        assert!(r.contains("EXECUTOR / HOST"), "{r}");
        assert!(r.contains("-> {TID}"), "{r}");
        assert!(r.contains("{BROADCAST}   (isolated)"), "{r}");
    }
}
