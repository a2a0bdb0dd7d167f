//! HW-graph hierarchy construction (paper §4.1, Fig. 7).
//!
//! Starting from the pairwise group relations, the paper repeatedly picks a
//! group that has only `PARALLEL`, `PARENT` and `BEFORE` relations left —
//! i.e. it is nobody's child and nothing precedes it — attaches its children
//! and ordering edges, crosses out its relations, and repeats until all
//! groups are placed.
//!
//! The result is a forest: every group has at most one (immediate) parent,
//! sibling order is captured by `before` edges, unordered siblings run in
//! parallel.

use crate::lifespan::{GroupRel, GroupRelations};
use serde::{Deserialize, Serialize};

/// One node of the hierarchy (indices refer to group indices).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyNode {
    /// Immediate parent group, if any.
    pub parent: Option<usize>,
    /// Immediate children, in placement order.
    pub children: Vec<usize>,
    /// Groups (siblings) that this group strictly precedes.
    pub before: Vec<usize>,
    /// Depth from the root level (roots are 0).
    pub depth: usize,
}

/// The group hierarchy of a HW-graph.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hierarchy {
    /// One node per group.
    pub nodes: Vec<HierarchyNode>,
    /// Root groups in placement order.
    pub roots: Vec<usize>,
}

impl Hierarchy {
    /// Build the hierarchy following the Fig. 7 procedure.
    ///
    /// The *immediate* parent of a group `g` is the parent `p` that is
    /// itself a child (transitively) of every other parent of `g` — with
    /// lifespan containment this is the parent with the largest number of
    /// ancestors among `g`'s parents.
    #[allow(clippy::needless_range_loop)]
    pub fn build(rel: &GroupRelations) -> Hierarchy {
        let n = rel.group_count();
        let mut nodes: Vec<HierarchyNode> = vec![HierarchyNode::default(); n];

        // Immediate parent: among all parents of g, pick the one that is a
        // child of all the others (the most deeply nested). Containment
        // makes parenthood transitive, so "has the most parents itself"
        // identifies the immediate one; ties broken by index for
        // determinism.
        for g in 0..n {
            let parents = rel.parents_of(g);
            if parents.is_empty() {
                continue;
            }
            let immediate = parents
                .iter()
                .copied()
                .max_by_key(|&p| (rel.parents_of(p).len(), usize::MAX - p))
                .expect("non-empty");
            nodes[g].parent = Some(immediate);
        }
        for g in 0..n {
            if let Some(p) = nodes[g].parent {
                nodes[p].children.push(g);
            }
        }

        // BEFORE edges are kept between groups sharing the same parent
        // (sibling ordering); cross-level edges are implied by the parents.
        for a in 0..n {
            for b in 0..n {
                if a != b
                    && rel.get(a, b) == Some(GroupRel::Before)
                    && nodes[a].parent == nodes[b].parent
                {
                    nodes[a].before.push(b);
                }
            }
        }

        // Fig. 7 iterative placement: repeatedly take groups with no
        // unplaced parent and no unplaced BEFORE-predecessor; this yields
        // the deterministic placement order and the depths.
        let mut placed = vec![false; n];
        let mut order: Vec<usize> = Vec::with_capacity(n);
        loop {
            let mut progressed = false;
            for g in 0..n {
                if placed[g] {
                    continue;
                }
                let parent_ok = nodes[g].parent.is_none_or(|p| placed[p]);
                let preds_ok = (0..n).all(|h| {
                    h == g
                        || placed[h]
                        || !(rel.get(h, g) == Some(GroupRel::Before)
                            && nodes[h].parent == nodes[g].parent)
                });
                if parent_ok && preds_ok {
                    placed[g] = true;
                    order.push(g);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        // Cycles in BEFORE cannot happen (strict precedence), but guard:
        // place any stragglers in index order.
        for g in 0..n {
            if !placed[g] {
                order.push(g);
            }
        }

        let mut roots = Vec::new();
        for &g in &order {
            match nodes[g].parent {
                None => {
                    nodes[g].depth = 0;
                    roots.push(g);
                }
                Some(p) => nodes[g].depth = nodes[p].depth + 1,
            }
        }
        Hierarchy { nodes, roots }
    }

    /// Iterate groups in depth-first order (children after their parent).
    pub fn depth_first(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack: Vec<usize> = self.roots.iter().rev().copied().collect();
        while let Some(g) = stack.pop() {
            out.push(g);
            for &c in self.nodes[g].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifespan::{GroupRelations, Lifespan};

    fn span(a: u64, b: u64) -> Lifespan {
        Lifespan { first: a, last: b }
    }

    fn relations(sessions: Vec<Vec<(usize, Lifespan)>>, n: usize) -> GroupRelations {
        GroupRelations::compute(n, &sessions)
    }

    #[test]
    fn figure7_example() {
        // a contains b and d; c runs parallel to a; within a, b before d.
        let rel = relations(
            vec![vec![
                (0, span(0, 100)), // a
                (1, span(10, 40)), // b
                (2, span(5, 105)), // c (overlaps a both ways → parallel)
                (3, span(50, 90)), // d
            ]],
            4,
        );
        let h = Hierarchy::build(&rel);
        assert_eq!(h.nodes[1].parent, Some(0));
        assert_eq!(h.nodes[3].parent, Some(0));
        assert_eq!(h.nodes[2].parent, None);
        assert!(h.roots.contains(&0) && h.roots.contains(&2));
        assert!(h.nodes[1].before.contains(&3)); // b before d (siblings)
        assert_eq!(h.nodes[1].depth, 1);
        assert_eq!(h.nodes[0].depth, 0);
    }

    #[test]
    fn immediate_parent_is_deepest() {
        // a ⊃ b ⊃ c: c's immediate parent must be b, not a.
        let rel = relations(
            vec![vec![
                (0, span(0, 100)),
                (1, span(10, 90)),
                (2, span(20, 80)),
            ]],
            3,
        );
        let h = Hierarchy::build(&rel);
        assert_eq!(h.nodes[1].parent, Some(0));
        assert_eq!(h.nodes[2].parent, Some(1));
        assert_eq!(h.nodes[2].depth, 2);
        assert_eq!(h.depth_first(), [0, 1, 2]);
    }

    #[test]
    fn before_chain_of_roots() {
        let rel = relations(
            vec![vec![(0, span(0, 10)), (1, span(20, 30)), (2, span(40, 50))]],
            3,
        );
        let h = Hierarchy::build(&rel);
        assert!(h.nodes[0].before.contains(&1));
        assert!(h.nodes[1].before.contains(&2));
        assert_eq!(h.roots, [0, 1, 2]); // placement respects BEFORE order
    }

    #[test]
    fn cross_level_before_not_kept_as_sibling_edge() {
        // a ⊃ b; b before c (c is a root): the edge b→c crosses levels and
        // is not a sibling edge.
        let rel = relations(
            vec![vec![(0, span(0, 20)), (1, span(5, 10)), (2, span(30, 40))]],
            3,
        );
        let h = Hierarchy::build(&rel);
        assert_eq!(h.nodes[1].parent, Some(0));
        assert!(h.nodes[1].before.is_empty());
        // a itself precedes c as a sibling (both roots)
        assert!(h.nodes[0].before.contains(&2));
    }

    #[test]
    fn empty_and_single() {
        let rel = relations(vec![], 0);
        let h = Hierarchy::build(&rel);
        assert!(h.roots.is_empty());
        let rel = relations(vec![vec![(0, span(0, 5))]], 1);
        let h = Hierarchy::build(&rel);
        assert_eq!(h.roots, [0]);
    }

    #[test]
    fn inconsistent_sessions_yield_flat_parallel_forest() {
        let rel = relations(
            vec![
                vec![(0, span(0, 10)), (1, span(20, 30))],
                vec![(0, span(20, 30)), (1, span(0, 10))],
            ],
            2,
        );
        let h = Hierarchy::build(&rel);
        assert_eq!(h.nodes[0].parent, None);
        assert_eq!(h.nodes[1].parent, None);
        assert!(h.nodes[0].before.is_empty());
        assert_eq!(h.roots.len(), 2);
    }
}
