//! Lifespan analysis and entity-group relations (paper §4.1, Fig. 6).
//!
//! The lifespan of an entity group in a session is the interval between its
//! first and last log message. Two groups are related by:
//!
//! * `PARENT` — the child's lifespan lies within the parent's in **every**
//!   session where both appear;
//! * `BEFORE` — one group's lifespan ends before the other's begins in
//!   every such session;
//! * `PARALLEL` — anything else.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A lifespan `[first, last]` in session-local milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lifespan {
    /// Timestamp of the group's first message.
    pub first: u64,
    /// Timestamp of the group's last message.
    pub last: u64,
}

impl Lifespan {
    /// A degenerate lifespan at one instant.
    pub fn at(ts: u64) -> Lifespan {
        Lifespan {
            first: ts,
            last: ts,
        }
    }

    /// Extend to cover `ts`.
    pub fn extend(&mut self, ts: u64) {
        self.first = self.first.min(ts);
        self.last = self.last.max(ts);
    }

    /// `true` if `self` lies within `other` (not necessarily strictly).
    pub fn within(&self, other: &Lifespan) -> bool {
        other.first <= self.first && self.last <= other.last
    }

    /// `true` if `self` ends before `other` begins.
    pub fn before(&self, other: &Lifespan) -> bool {
        self.last < other.first
    }

    /// Duration in ms.
    pub fn duration(&self) -> u64 {
        self.last - self.first
    }
}

/// The pairwise relation between two entity groups (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GroupRel {
    /// `a` is the parent of `b` (b's lifespan within a's, every session).
    Parent,
    /// `a` finishes before `b` starts, every session.
    Before,
    /// Overlapping / inconsistent orders.
    Parallel,
}

/// Pairwise relations over `n` groups, computed from per-session lifespans.
///
/// (Intentionally not serialisable: tuple-keyed maps do not fit JSON; the
/// HW-graph serialises the derived [`crate::hierarchy::Hierarchy`] instead.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupRelations {
    n: usize,
    /// Relation for each ordered pair `(a, b)` with `a != b`; missing pairs
    /// never co-occurred.
    rel: HashMap<(usize, usize), GroupRel>,
}

impl GroupRelations {
    /// Compute relations from per-session lifespans: for each session, the
    /// lifespan of every group present in it, each group at most once
    /// (absent groups do not constrain the pair).
    pub fn compute(n: usize, sessions: &[Vec<(usize, Lifespan)>]) -> GroupRelations {
        // Per ordered pair `(a, b)`, what its co-occurrences have shown so far.
        const SEEN: u8 = 1;
        const NOT_PARENT: u8 = 2; // some session: b not strictly within a
        const NOT_BEFORE: u8 = 4; // some session: a not before b
        let mut pairs = vec![0u8; n * n];
        for s in sessions {
            for &(a, la) in s.iter().filter(|&&(a, _)| a < n) {
                for &(b, lb) in s.iter().filter(|&&(b, _)| b < n && b != a) {
                    let mut seen = SEEN;
                    if !lb.within(&la) || la.within(&lb) {
                        seen |= NOT_PARENT;
                    }
                    if !la.before(&lb) {
                        seen |= NOT_BEFORE;
                    }
                    pairs[a * n + b] |= seen;
                }
            }
        }
        let mut rel = HashMap::new();
        for (i, &seen) in pairs.iter().enumerate().filter(|&(_, &seen)| seen != 0) {
            let r = if seen & NOT_PARENT == 0 {
                GroupRel::Parent
            } else if seen & NOT_BEFORE == 0 {
                GroupRel::Before
            } else {
                GroupRel::Parallel
            };
            rel.insert((i / n, i % n), r);
        }
        GroupRelations { n, rel }
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.n
    }

    /// The relation of ordered pair `(a, b)`, if the groups co-occurred.
    pub fn get(&self, a: usize, b: usize) -> Option<GroupRel> {
        self.rel.get(&(a, b)).copied()
    }

    /// `true` if `a` is a parent of `b`.
    pub fn is_parent(&self, a: usize, b: usize) -> bool {
        self.get(a, b) == Some(GroupRel::Parent)
    }

    /// `true` if `a` is before `b`.
    pub fn is_before(&self, a: usize, b: usize) -> bool {
        self.get(a, b) == Some(GroupRel::Before)
    }

    /// All parents of `g`.
    pub fn parents_of(&self, g: usize) -> Vec<usize> {
        (0..self.n).filter(|&p| self.is_parent(p, g)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(a: u64, b: u64) -> Lifespan {
        Lifespan { first: a, last: b }
    }

    fn sess(entries: &[(usize, Lifespan)]) -> Vec<(usize, Lifespan)> {
        entries.to_vec()
    }

    /// The relations as first computed: every ordered pair of all `n`
    /// groups probed in every session.
    fn compute_by_probing(n: usize, sessions: &[Vec<(usize, Lifespan)>]) -> GroupRelations {
        let sessions: Vec<HashMap<usize, Lifespan>> = sessions
            .iter()
            .map(|s| s.iter().copied().collect())
            .collect();
        let mut rel = HashMap::new();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let mut co_occurred = false;
                let mut always_parent = true; // b within a, strictly smaller
                let mut always_before = true; // a before b
                for s in &sessions {
                    let (Some(la), Some(lb)) = (s.get(&a), s.get(&b)) else {
                        continue;
                    };
                    co_occurred = true;
                    let strictly_contains = lb.within(la) && !(la.within(lb));
                    if !strictly_contains {
                        always_parent = false;
                    }
                    if !la.before(lb) {
                        always_before = false;
                    }
                }
                if !co_occurred {
                    continue;
                }
                let r = if always_parent {
                    GroupRel::Parent
                } else if always_before {
                    GroupRel::Before
                } else {
                    GroupRel::Parallel
                };
                rel.insert((a, b), r);
            }
        }
        GroupRelations { n, rel }
    }

    proptest::proptest! {
        /// One pass over the pairs present in each session finds the same
        /// relations as probing every pair in every session; groups numbered
        /// `n` or above are ignored by both.
        #[test]
        fn one_pass_equals_probing(
            n in 0usize..7,
            raw in proptest::collection::vec(
                proptest::collection::vec((0usize..8, 0u64..12, 0u64..6), 0..6),
                0..6,
            ),
        ) {
            let sessions: Vec<Vec<(usize, Lifespan)>> = raw
                .iter()
                .map(|s| {
                    let mut present: Vec<(usize, Lifespan)> = Vec::new();
                    for &(g, first, len) in s {
                        if present.iter().all(|&(p, _)| p != g) {
                            present.push((g, span(first, first + len)));
                        }
                    }
                    present
                })
                .collect();
            proptest::prop_assert_eq!(
                GroupRelations::compute(n, &sessions),
                compute_by_probing(n, &sessions)
            );
        }
    }

    #[test]
    fn lifespan_ops() {
        let mut l = Lifespan::at(5);
        l.extend(2);
        l.extend(9);
        assert_eq!(l, span(2, 9));
        assert!(span(3, 4).within(&l));
        assert!(l.before(&span(10, 12)));
        assert!(!l.before(&span(9, 12)));
        assert_eq!(l.duration(), 7);
    }

    #[test]
    fn containment_in_every_session_is_parent() {
        let sessions = vec![
            sess(&[(0, span(0, 100)), (1, span(10, 50))]),
            sess(&[(0, span(0, 80)), (1, span(20, 70))]),
        ];
        let r = GroupRelations::compute(2, &sessions);
        assert!(r.is_parent(0, 1));
        assert_eq!(r.get(1, 0), Some(GroupRel::Parallel)); // reverse is not parent/before
        assert_eq!(r.parents_of(1), [0]);
    }

    #[test]
    fn one_violation_demotes_to_parallel() {
        let sessions = vec![
            sess(&[(0, span(0, 100)), (1, span(10, 50))]),
            sess(&[(0, span(0, 40)), (1, span(10, 60))]), // overlap, not contained
        ];
        let r = GroupRelations::compute(2, &sessions);
        assert_eq!(r.get(0, 1), Some(GroupRel::Parallel));
    }

    #[test]
    fn strict_precedence_is_before() {
        let sessions = vec![
            sess(&[(0, span(0, 10)), (1, span(20, 30))]),
            sess(&[(0, span(5, 12)), (1, span(13, 30))]),
        ];
        let r = GroupRelations::compute(2, &sessions);
        assert!(r.is_before(0, 1));
        assert_eq!(r.get(1, 0), Some(GroupRel::Parallel));
    }

    #[test]
    fn identical_lifespans_are_parallel() {
        let sessions = vec![sess(&[(0, span(0, 10)), (1, span(0, 10))])];
        let r = GroupRelations::compute(2, &sessions);
        assert_eq!(r.get(0, 1), Some(GroupRel::Parallel));
        assert_eq!(r.get(1, 0), Some(GroupRel::Parallel));
    }

    #[test]
    fn non_cooccurring_pairs_have_no_relation() {
        let sessions = vec![sess(&[(0, span(0, 10))]), sess(&[(1, span(0, 10))])];
        let r = GroupRelations::compute(2, &sessions);
        assert_eq!(r.get(0, 1), None);
    }

    #[test]
    fn session_with_one_group_does_not_constrain() {
        let sessions = vec![
            sess(&[(0, span(0, 100)), (1, span(10, 50))]),
            sess(&[(0, span(0, 100))]), // group 1 absent: no constraint
        ];
        let r = GroupRelations::compute(2, &sessions);
        assert!(r.is_parent(0, 1));
    }
}
