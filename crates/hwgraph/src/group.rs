//! Entity grouping by nomenclature (paper §4.1, Algorithm 1).
//!
//! Correlated entities usually share a common sub-phrase in their names
//! (`block`, `block manager`, `block manager endpoint`) — but entities that
//! share only their *last* words are usually unrelated, because trailing
//! words carry general meanings (`block manager` vs `security manager`).
//! Algorithm 1 folds both observations into a grouping pass over all
//! extracted entities, ordered by ascending word count.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One group of correlated entities, labelled by their common phrase.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntityGroup {
    /// The group label: the common phrase shared by the members (shrinks as
    /// members join).
    pub name: String,
    /// Member entity phrases.
    pub entities: BTreeSet<String>,
}

/// The result of Algorithm 1: groups plus the reverse index `D_r`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Grouping {
    /// The groups (`D` in the paper).
    pub groups: Vec<EntityGroup>,
    /// Reverse index: entity phrase → indices of the groups containing it.
    pub reverse: BTreeMap<String, Vec<usize>>,
}

impl Grouping {
    /// Indices of the groups containing `entity` (empty slice if none).
    pub fn groups_of(&self, entity: &str) -> &[usize] {
        self.reverse.get(entity).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// `true` if there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

/// `LongestCommonPhrase` of Algorithm 1 (lines 23–30).
///
/// * If either operand is a single word, the result is that word when it
///   occurs in the other phrase, else empty — a one-word phrase contained in
///   a multi-word phrase is correlated with it.
/// * If two multi-word phrases have **only** their last words in common
///   (`block manager` / `security manager` → `manager`), the phrases are not
///   considered correlated and the result is empty.
/// * Otherwise the result is the longest common contiguous word subsequence.
pub fn longest_common_phrase(g: &str, e: &str) -> Option<String> {
    let gw: Vec<&str> = g.split(' ').collect();
    let ew: Vec<&str> = e.split(' ').collect();
    if gw.len() == 1 || ew.len() == 1 {
        let (single, other) = if gw.len() == 1 {
            (&gw, &ew)
        } else {
            (&ew, &gw)
        };
        let w = single[0];
        return if other.contains(&w) {
            Some(w.to_string())
        } else {
            None
        };
    }
    let common = longest_common_word_substring(&gw, &ew)?;
    // "common last few words only" rule: the common phrase is a proper
    // suffix of both phrases → general-meaning tail → not correlated.
    let is_proper_suffix_of_both = common.len() < gw.len()
        && common.len() < ew.len()
        && gw.ends_with(&common)
        && ew.ends_with(&common);
    if is_proper_suffix_of_both {
        return None;
    }
    Some(common.join(" "))
}

/// Longest common contiguous word run of two word lists. Ties are broken by
/// lexicographic order of the phrase, making the function symmetric in its
/// arguments (grouping must not depend on comparison order).
fn longest_common_word_substring<'a>(a: &[&'a str], b: &[&'a str]) -> Option<Vec<&'a str>> {
    let mut best: Option<(usize, usize)> = None; // (start in a, len)
    let mut dp = vec![0usize; b.len() + 1];
    for i in 0..a.len() {
        let mut prev = 0;
        for j in 0..b.len() {
            let cur = dp[j + 1];
            dp[j + 1] = if a[i] == b[j] { prev + 1 } else { 0 };
            if dp[j + 1] > 0 {
                let len = dp[j + 1];
                let start = i + 1 - len;
                let better = match best {
                    None => true,
                    Some((bs, bl)) => {
                        len > bl || (len == bl && a[start..start + len] < a[bs..bs + bl])
                    }
                };
                if better {
                    best = Some((start, len));
                }
            }
            prev = cur;
        }
    }
    best.map(|(s, l)| a[s..s + l].to_vec())
}

/// Algorithm 1: group a set of entity phrases.
///
/// Entities are processed in ascending word-count order (paper line 1). An
/// entity can join several groups; ungrouped entities found their own group.
pub fn group_entities<I, S>(entities: I) -> Grouping
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut list: Vec<String> = entities.into_iter().map(Into::into).collect();
    list.sort_by_key(|e| (e.split(' ').count(), e.clone()));
    list.dedup();

    let mut groups: Vec<EntityGroup> = Vec::new();
    for e in &list {
        let mut grouped = false;
        for g in groups.iter_mut() {
            if g.entities.contains(e) {
                grouped = true;
                continue;
            }
            if let Some(common) = longest_common_phrase(&g.name, e) {
                g.entities.insert(e.clone());
                g.name = common;
                grouped = true;
            }
        }
        if !grouped {
            groups.push(EntityGroup {
                name: e.clone(),
                entities: BTreeSet::from([e.clone()]),
            });
        }
    }

    let mut reverse: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (gi, g) in groups.iter().enumerate() {
        for ent in &g.entities {
            reverse.entry(ent.clone()).or_default().push(gi);
        }
    }
    Grouping { groups, reverse }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcp_single_word_containment() {
        assert_eq!(
            longest_common_phrase("block", "block manager"),
            Some("block".into())
        );
        assert_eq!(
            longest_common_phrase("block manager", "block"),
            Some("block".into())
        );
        assert_eq!(longest_common_phrase("task", "task"), Some("task".into()));
        assert_eq!(longest_common_phrase("block", "task"), None);
        // substring of a word is NOT a common phrase
        assert_eq!(longest_common_phrase("block", "blockage handler"), None);
    }

    #[test]
    fn lcp_last_words_rule() {
        // §4.1: 'block manager' and 'security manager' share only the
        // general-meaning last word → not correlated.
        assert_eq!(
            longest_common_phrase("block manager", "security manager"),
            None
        );
        assert_eq!(longest_common_phrase("map output", "shuffle output"), None);
        // common prefix phrases ARE correlated
        assert_eq!(
            longest_common_phrase("block manager", "block manager endpoint"),
            Some("block manager".into())
        );
        assert_eq!(
            longest_common_phrase("map output", "map task"),
            Some("map".into())
        );
    }

    #[test]
    fn spark_block_family_groups_together() {
        let g = group_entities(["block", "block manager", "block manager endpoint"]);
        assert_eq!(g.len(), 1);
        assert_eq!(g.groups[0].name, "block");
        assert_eq!(g.groups[0].entities.len(), 3);
    }

    #[test]
    fn unrelated_managers_stay_apart() {
        let g = group_entities(["block manager", "security manager"]);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn group_name_shrinks_to_common_phrase() {
        let g = group_entities(["map output", "map task", "map completion event"]);
        assert_eq!(g.len(), 1);
        assert_eq!(g.groups[0].name, "map");
    }

    #[test]
    fn mapreduce_map_family_from_paper() {
        // §6.3: group 'map' captures 'map metrics system' and 'map output'.
        let g = group_entities([
            "map task",
            "map metrics system",
            "map output",
            "reduce task",
        ]);
        let map_group = g
            .groups
            .iter()
            .find(|gr| gr.name == "map")
            .expect("map group");
        assert!(map_group.entities.contains("map metrics system"));
        assert!(map_group.entities.contains("map output"));
        assert!(!map_group.entities.contains("reduce task"));
    }

    #[test]
    fn tez_task_family_from_paper() {
        // §6.3: group 'task' captures 'task' and 'TaskAttempt' (camel-split
        // upstream into 'task attempt').
        let g = group_entities(["task", "task attempt"]);
        assert_eq!(g.len(), 1);
        assert_eq!(g.groups[0].name, "task");
    }

    #[test]
    fn reverse_index_lists_memberships() {
        let g = group_entities(["block", "block manager", "security manager"]);
        assert_eq!(g.groups_of("block manager").len(), 1);
        assert_eq!(g.groups_of("security manager").len(), 1);
        assert_ne!(
            g.groups_of("block manager"),
            g.groups_of("security manager")
        );
        assert!(g.groups_of("ghost").is_empty());
    }

    #[test]
    fn entity_can_join_multiple_groups() {
        // 'shuffle' seeds a group; 'map' seeds a group; 'map shuffle'
        // correlates with both (prefix with one, contained word with other).
        let g = group_entities(["shuffle", "map", "map shuffle"]);
        let memberships = g.groups_of("map shuffle");
        assert!(memberships.len() >= 2, "{g:?}");
    }

    #[test]
    fn duplicates_are_ignored() {
        let g = group_entities(["task", "task", "task"]);
        assert_eq!(g.len(), 1);
        assert_eq!(g.groups[0].entities.len(), 1);
    }

    #[test]
    fn ablation_last_words_rule() {
        // Plain common-substring grouping would merge the two managers under
        // their general-meaning tail `manager`; Algorithm 1's rule rejects
        // that match, so they stay in two groups.
        let (a, b) = ("block manager", "security manager");
        let words = |p: &'static str| p.split(' ').collect::<Vec<_>>();
        assert_eq!(
            longest_common_word_substring(&words(a), &words(b)),
            Some(vec!["manager"])
        );
        assert_eq!(longest_common_phrase(a, b), None);
        assert_eq!(group_entities([a, b]).len(), 2);
    }

    #[test]
    fn deterministic_order() {
        let a = group_entities(["driver", "block", "block manager", "acl"]);
        let b = group_entities(["block manager", "acl", "driver", "block"]);
        assert_eq!(a, b);
    }
}
