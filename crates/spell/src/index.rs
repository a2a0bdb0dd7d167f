//! Candidate index for the Spell matcher.
//!
//! Two structures cut the per-message matching cost from "LCS against every
//! same-length key" to "LCS against a handful of survivors":
//!
//! * a **prefix tree** over the current key token sequences (with wildcard
//!   edges for `*` positions) answers the overwhelmingly common case — the
//!   message is an exact instance of an existing key — in O(message length)
//!   steps per active path. A node keeps its `*` child in a field and its
//!   constant edges in a vector sorted by token, so a step is one load and
//!   one binary search over (usually) one or two entries — nothing is
//!   hashed on the walk, which every training line takes;
//! * an **inverted index** `token → (key, multiplicity)` yields, per key,
//!   an upper bound on the wildcard LCS:
//!
//!   `lcs_len_wild(key, msg) ≤ stars(key) + Σ_tok min(#tok in key constants, #tok in msg)`
//!
//!   — a `*` position can contribute at most 1 regardless of the message,
//!   and a constant position can only pair with an equal message token.
//!   Keys whose bound is below the matching threshold are pruned without
//!   running the LCS dynamic program.
//!
//! Key refinement (constant position → `*`) leaves the old postings and
//! trie paths in place as garbage: stale postings only *overestimate* the
//! bound (never pruning a true match) and stale trie paths are verified
//! against the live key before use. The index is rebuilt from scratch once
//! garbage passes a threshold, restoring full pruning precision.

use crate::intern::{TokenId, STAR_ID, UNKNOWN_ID};
use std::collections::HashMap;

#[derive(Debug, Clone)]
pub(crate) struct MatchIndex {
    /// Per message-length bucket (only same-length keys can match).
    buckets: HashMap<usize, LenBucket>,
    /// Current `*` count per key index (grows monotonically).
    stars: Vec<u32>,
    /// Prefix tree over key token sequences; terminals hold key indices.
    trie: Trie,
    /// Stale postings entries / trie paths accumulated by refinement.
    garbage: usize,
}

#[derive(Debug, Clone)]
struct LenBucket {
    /// Minimum LCS required for a message of this length to match.
    required: usize,
    /// Constant token → (key index, multiplicity in that key).
    postings: HashMap<TokenId, Vec<(u32, u32)>>,
    /// Keys whose star count alone meets `required`: always candidates,
    /// even with zero postings overlap. Ascending, deduplicated.
    high_star: Vec<u32>,
}

impl LenBucket {
    fn new(required: usize) -> LenBucket {
        LenBucket {
            required,
            postings: HashMap::new(),
            high_star: Vec::new(),
        }
    }
}

#[derive(Debug, Clone)]
struct Trie {
    nodes: Vec<TrieNode>,
}

#[derive(Debug, Clone, Default)]
struct TrieNode {
    /// Child along the `*` edge; [`NO_NODE`] if there is none.
    star: u32,
    /// Constant edges `(token, child)`, ascending by token.
    edges: Vec<(TokenId, u32)>,
    terminals: Vec<u32>,
}

/// "No child": the root is node 0 and is nobody's child.
const NO_NODE: u32 = 0;

impl TrieNode {
    fn child(&self, tok: TokenId) -> Option<u32> {
        if tok == STAR_ID {
            return (self.star != NO_NODE).then_some(self.star);
        }
        let at = self.edges.binary_search_by_key(&tok, |&(t, _)| t).ok()?;
        Some(self.edges[at].1)
    }
}

impl Trie {
    fn new() -> Trie {
        Trie {
            nodes: vec![TrieNode::default()],
        }
    }

    fn insert(&mut self, ki: u32, ids: &[TokenId]) {
        let mut node = 0u32;
        for &tok in ids {
            node = match self.nodes[node as usize].child(tok) {
                Some(next) => next,
                None => {
                    let next = self.nodes.len() as u32;
                    self.nodes.push(TrieNode::default());
                    let from = &mut self.nodes[node as usize];
                    if tok == STAR_ID {
                        from.star = next;
                    } else {
                        let at = from.edges.partition_point(|&(t, _)| t < tok);
                        from.edges.insert(at, (tok, next));
                    }
                    next
                }
            };
        }
        let terms = &mut self.nodes[node as usize].terminals;
        if !terms.contains(&ki) {
            terms.push(ki);
            terms.sort_unstable();
        }
    }

    /// Key indices whose trie path matches `ids` (star edges match any
    /// token), written into `out` (cleared first). May contain stale
    /// entries — callers verify against the live key. Ascending order. The
    /// node frontiers live in per-thread scratch and `out` is
    /// caller-provided, so a walk allocates nothing in the steady state.
    fn walk_into(&self, ids: &[TokenId], out: &mut Vec<u32>) {
        out.clear();
        crate::scratch::with_walk(|active, next| {
            active.clear();
            active.push(0);
            for &tok in ids {
                next.clear();
                for &n in active.iter() {
                    let node = &self.nodes[n as usize];
                    // A trie: distinct nodes have distinct children, so the
                    // frontier needs no de-duplication. An unknown token
                    // is no key's constant and can only take the `*` edge.
                    if tok != STAR_ID && tok != UNKNOWN_ID {
                        next.extend(node.child(tok));
                    }
                    next.extend(node.child(STAR_ID));
                }
                if next.is_empty() {
                    return;
                }
                std::mem::swap(active, next);
            }
            for &n in active.iter() {
                out.extend_from_slice(&self.nodes[n as usize].terminals);
            }
            out.sort_unstable();
            out.dedup();
        })
    }
}

impl MatchIndex {
    pub(crate) fn new() -> MatchIndex {
        MatchIndex {
            buckets: HashMap::new(),
            stars: Vec::new(),
            trie: Trie::new(),
            garbage: 0,
        }
    }

    /// Register a brand-new key (index `ki` == `stars.len()`).
    pub(crate) fn insert_key(&mut self, ki: u32, ids: &[TokenId], required: usize) {
        debug_assert_eq!(ki as usize, self.stars.len());
        let bucket = self
            .buckets
            .entry(ids.len())
            .or_insert_with(|| LenBucket::new(required));
        let mut star_count = 0u32;
        let mut counts: HashMap<TokenId, u32> = HashMap::new();
        for &tok in ids {
            if tok == STAR_ID {
                star_count += 1;
            } else {
                *counts.entry(tok).or_default() += 1;
            }
        }
        for (tok, mult) in counts {
            bucket.postings.entry(tok).or_default().push((ki, mult));
        }
        self.stars.push(star_count);
        if star_count as usize >= required {
            bucket.high_star.push(ki);
        }
        self.trie.insert(ki, ids);
    }

    /// Record that key `ki` gained `flipped` new `*` positions; `ids` is its
    /// refined token sequence. Old postings/trie paths stay as garbage.
    pub(crate) fn note_refinement(&mut self, ki: u32, ids: &[TokenId], flipped: u32) {
        self.stars[ki as usize] += flipped;
        self.garbage += flipped as usize;
        let bucket = self
            .buckets
            .get_mut(&ids.len())
            .expect("refined key has a bucket");
        if self.stars[ki as usize] as usize >= bucket.required {
            if let Err(at) = bucket.high_star.binary_search(&ki) {
                bucket.high_star.insert(at, ki);
            }
        }
        self.trie.insert(ki, ids);
    }

    /// `true` once enough refinement garbage accumulated that a rebuild
    /// pays for itself in pruning precision and trie size.
    pub(crate) fn needs_rebuild(&self) -> bool {
        self.garbage > 64 + self.stars.len() / 4
    }

    /// Rebuild from the live key set, dropping all garbage.
    pub(crate) fn rebuild(
        &mut self,
        ikeys: &[Vec<TokenId>],
        required_for: &dyn Fn(usize) -> usize,
    ) {
        self.buckets.clear();
        self.stars.clear();
        self.trie = Trie::new();
        self.garbage = 0;
        for (ki, ids) in ikeys.iter().enumerate() {
            self.insert_key(ki as u32, ids, required_for(ids.len()));
        }
    }

    /// Keys the message may be an exact instance of (trie walk; may contain
    /// stale entries — verify against the live key), written into `out`
    /// (cleared first). Ascending order.
    pub(crate) fn exact_candidates_into(&self, ids: &[TokenId], out: &mut Vec<u32>) {
        self.trie.walk_into(ids, out);
    }

    /// Candidate keys for the LCS phase, with a sound upper bound on their
    /// wildcard LCS against `ids`, written into `out` (cleared first). Only
    /// candidates whose bound meets the bucket's required LCS are returned.
    /// Ascending key order.
    pub(crate) fn scored_candidates_into(&self, ids: &[TokenId], out: &mut Vec<(u32, usize)>) {
        out.clear();
        let Some(bucket) = self.buckets.get(&ids.len()) else {
            return;
        };
        // The count/overlap maps come from per-thread scratch: scoring runs
        // once per non-exact match, and clearing a warm map is far cheaper
        // than growing a fresh one.
        crate::scratch::with_scored(|scratch| {
            let msg_counts = &mut scratch.msg_counts;
            let overlap = &mut scratch.overlap;
            msg_counts.clear();
            overlap.clear();
            for &tok in ids {
                if tok != STAR_ID && tok != UNKNOWN_ID {
                    *msg_counts.entry(tok).or_default() += 1;
                }
            }
            for (&tok, &cm) in msg_counts.iter() {
                if let Some(list) = bucket.postings.get(&tok) {
                    for &(ki, ck) in list {
                        *overlap.entry(ki).or_default() += ck.min(cm) as usize;
                    }
                }
            }
            for (&ki, &ov) in overlap.iter() {
                let bound = (self.stars[ki as usize] as usize + ov).min(ids.len());
                if bound >= bucket.required {
                    out.push((ki, bound));
                }
            }
            for &ki in &bucket.high_star {
                if !overlap.contains_key(&ki) {
                    out.push((ki, (self.stars[ki as usize] as usize).min(ids.len())));
                }
            }
            out.sort_unstable_by_key(|&(ki, _)| ki);
        })
    }
}
