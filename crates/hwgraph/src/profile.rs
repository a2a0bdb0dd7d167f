//! Session profiles: per-session-type workflow models.
//!
//! A system's containers are not homogeneous — a MapReduce job runs an AM
//! session, map sessions and reduce sessions with disjoint workflows.
//! Pooling them into one Algorithm 2 learner empties the critical-key
//! intersections ("a key present in *every* instance" never survives
//! heterogeneity). The paper trains and checks per system; to keep the
//! critical-key machinery of Fig. 5 sharp we cluster training sessions by
//! their *entity-group fingerprint* (Jaccard similarity) and learn the
//! mandatory groups and subroutines per cluster. At detection time a
//! session is checked against its best-matching profile.

use crate::subroutine::SubroutineSet;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One session type: which entity groups its sessions touch and what their
/// subroutines look like.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionProfile {
    /// Union of the entity groups observed across member sessions.
    pub groups: BTreeSet<usize>,
    /// Groups present in *every* member session — their absence from a
    /// matching session is an anomaly (the Spark-19731 signature).
    pub mandatory: BTreeSet<usize>,
    /// Per-group subroutine learners trained on member sessions only.
    pub subroutines: BTreeMap<usize, SubroutineSet>,
    /// Number of member sessions.
    pub sessions_seen: u64,
}

impl SessionProfile {
    /// Jaccard similarity between this profile's group set and a session's
    /// fingerprint: the groups it touches, ascending and distinct. The
    /// shared groups are counted by walking both in order, so scoring a
    /// session builds no set.
    pub fn similarity(&self, fingerprint: &[usize]) -> f64 {
        debug_assert!(ascending(fingerprint), "fingerprint out of order");
        if self.groups.is_empty() && fingerprint.is_empty() {
            return 1.0;
        }
        let mut rest = fingerprint.iter().peekable();
        let shared = self.groups.iter().filter(|&&g| {
            while rest.next_if(|&&f| f < g).is_some() {}
            rest.next_if_eq(&&g).is_some()
        });
        let inter = shared.count();
        let union = self.groups.len() + fingerprint.len() - inter;
        inter as f64 / union.max(1) as f64
    }
}

/// `true` if `groups` is ascending and distinct, as a fingerprint must be:
/// the Jaccard counts and the mandatory set's lookup rely on it.
fn ascending(groups: &[usize]) -> bool {
    groups.windows(2).all(|w| w[0] < w[1])
}

/// The set of learned session profiles.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfileSet {
    /// Profiles in creation order.
    pub profiles: Vec<SessionProfile>,
    /// Jaccard threshold for joining an existing profile during training.
    pub threshold: f64,
}

impl ProfileSet {
    /// A profile set with the default clustering threshold.
    pub fn new() -> ProfileSet {
        ProfileSet {
            profiles: Vec::new(),
            threshold: 0.6,
        }
    }

    /// Number of profiles.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// `true` if no profile was learned.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Count one session with this group fingerprint (ascending, distinct)
    /// into the profile it clusters with (a new one if none is similar
    /// enough) and return that profile, whose per-group learners the caller
    /// then trains on the session's subroutine instances.
    pub(crate) fn join(&mut self, fingerprint: &[usize]) -> &mut SessionProfile {
        // the model's mandatory sets are kept through it
        assert!(ascending(fingerprint), "fingerprint out of order");
        let best = self
            .profiles
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.similarity(fingerprint)))
            .max_by(|a, b| a.1.total_cmp(&b.1));
        let idx = match best {
            Some((i, sim)) if sim >= self.threshold => i,
            _ => {
                self.profiles.push(SessionProfile {
                    groups: BTreeSet::new(),
                    mandatory: fingerprint.iter().copied().collect(),
                    subroutines: BTreeMap::new(),
                    sessions_seen: 0,
                });
                self.profiles.len() - 1
            }
        };
        let p = &mut self.profiles[idx];
        p.groups.extend(fingerprint.iter().copied());
        p.mandatory.retain(|g| fingerprint.binary_search(g).is_ok());
        p.sessions_seen += 1;
        p
    }

    /// Best-matching profile for a fingerprint — the session's groups,
    /// ascending and distinct (detection time) — with the similarity score.
    pub fn best_match_scored(
        &self,
        fingerprint: &[usize],
    ) -> Option<(usize, &SessionProfile, f64)> {
        self.profiles
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p, p.similarity(fingerprint)))
            .max_by(|a, b| a.2.total_cmp(&b.2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subroutine::tests::{all_rows, msg, split_instances};
    use crate::subroutine::SignatureNumbers;
    use extract::{IntelMessage, SessionLog};

    fn session(groups: &[(usize, Vec<IntelMessage>)]) -> BTreeMap<usize, SessionLog> {
        groups
            .iter()
            .map(|(g, msgs)| (*g, SessionLog::from_messages(msgs)))
            .collect()
    }

    fn train(ps: &mut ProfileSet, s: &BTreeMap<usize, SessionLog>) {
        let fingerprint: Vec<usize> = s.keys().copied().collect();
        let profile = ps.join(&fingerprint);
        for (g, log) in s {
            let split = split_instances(log, &all_rows(log));
            let learner = profile.subroutines.entry(*g).or_default();
            learner.train_instances(&mut SignatureNumbers::default(), split.iter(log));
        }
    }

    #[test]
    fn heterogeneous_sessions_get_distinct_profiles() {
        let mut ps = ProfileSet::new();
        // "map" sessions touch groups 0,1; "reduce" sessions touch 5,6,7.
        let map_s = session(&[(0, vec![msg(1, &[])]), (1, vec![msg(2, &[])])]);
        let red_s = session(&[
            (5, vec![msg(10, &[])]),
            (6, vec![msg(11, &[])]),
            (7, vec![msg(12, &[])]),
        ]);
        for _ in 0..3 {
            train(&mut ps, &map_s);
            train(&mut ps, &red_s);
        }
        assert_eq!(ps.len(), 2);
        let fp_map = [0, 1];
        let (i, p, score) = ps.best_match_scored(&fp_map).unwrap();
        assert_eq!(p.mandatory, fp_map.into());
        assert_eq!(score, 1.0, "the fingerprint the profile was learned from");
        let fp_red = [5, 6, 7];
        let (j, _, _) = ps.best_match_scored(&fp_red).unwrap();
        assert_ne!(i, j);
    }

    #[test]
    fn mandatory_shrinks_to_intersection() {
        let mut ps = ProfileSet::new();
        let with_opt = session(&[
            (0, vec![msg(1, &[])]),
            (1, vec![msg(2, &[])]),
            (2, vec![msg(3, &[])]),
        ]);
        let without = session(&[(0, vec![msg(1, &[])]), (1, vec![msg(2, &[])])]);
        train(&mut ps, &with_opt);
        train(&mut ps, &without);
        assert_eq!(ps.len(), 1);
        let mandatory = &ps.profiles[0].mandatory;
        assert!(mandatory.contains(&0) && mandatory.contains(&1));
        assert!(
            !mandatory.contains(&2),
            "optional group must not be mandatory"
        );
    }

    #[test]
    fn per_profile_critical_keys_stay_sharp() {
        let mut ps = ProfileSet::new();
        // map-type sessions: group 0 always sees keys 1 then 2
        let map_s = session(&[(0, vec![msg(1, &[("A", "x")]), msg(2, &[("A", "x")])])]);
        // unrelated AM-type sessions touch other groups with key 9
        let am_s = session(&[
            (3, vec![msg(9, &[("A", "y")])]),
            (4, vec![msg(9, &[("A", "y")])]),
        ]);
        for _ in 0..3 {
            train(&mut ps, &map_s);
            train(&mut ps, &am_s);
        }
        let (_, p, _) = ps.best_match_scored(&[0]).unwrap();
        let sub = p.subroutines[&0]
            .get(&BTreeSet::from(["A".to_string()]))
            .expect("A-signature subroutine");
        // in the pooled (profile-free) world the AM instances would have
        // emptied this; per profile both keys stay critical
        assert_eq!(sub.critical.len(), 2, "{sub:?}");
    }

    #[test]
    fn empty_profileset_matches_nothing() {
        let ps = ProfileSet::new();
        assert!(ps.best_match_scored(&[]).is_none());
        assert!(ps.is_empty());
    }
}
