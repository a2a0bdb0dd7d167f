//! The Spell matcher's candidate index — training, detection and serving
//! all match on it.
//!
//! Two structures cut the per-message matching cost from "LCS against every
//! same-length key" to "LCS against a handful of survivors":
//!
//! * a **prefix tree** per key length over the current key token sequences
//!   (with wildcard edges for `*` positions) answers the overwhelmingly
//!   common case — the message is an exact instance of an existing key — in
//!   O(message length) steps per active path. A node keeps its `*` child
//!   in a field and its constant edges in a vector sorted by token, so a
//!   step is one load and one binary search over (usually) one or two
//!   entries — nothing is hashed on the walk;
//! * an **inverted index** `token → (key, multiplicity)` yields, per key,
//!   an upper bound on the wildcard LCS:
//!
//!   `lcs_len_wild(key, msg) ≤ stars(key) + Σ_tok min(#tok in key constants, #tok in msg)`
//!
//!   — a `*` position can contribute at most 1 regardless of the message,
//!   and a constant position can only pair with an equal message token.
//!   Keys whose bound is below the matching threshold are pruned without
//!   running the LCS dynamic program. The scoring pass counts the message's
//!   tokens by sorting them and sums overlaps in a dense per-key array reset
//!   through its touched list, so it hashes once per distinct token.
//!
//! Key refinement (constant position → `*`) leaves the old postings and
//! trie paths in place as garbage: stale postings only *overestimate* the
//! bound (never pruning a true match) and stale trie paths are verified
//! against the live key before use. The index is rebuilt from scratch once
//! garbage passes a threshold, restoring full pruning precision, and once
//! more when training ends (`SpellParser::rebuild_index`).

use crate::intern::{TokenId, STAR_ID, UNKNOWN_ID};
use std::collections::HashMap;

#[derive(Debug, Clone)]
pub(crate) struct MatchIndex {
    /// Indexed by key length: only same-length keys can match.
    buckets: Vec<Option<LenBucket>>,
    /// Current `*` count per key index (grows monotonically).
    stars: Vec<u32>,
    /// The buckets' prefix trees over key token sequences, one arena;
    /// terminals hold key indices.
    trie: Trie,
    /// Stale postings entries / trie paths accumulated by refinement.
    garbage: usize,
}

/// Size of the match index, reported by
/// [`crate::parser::SpellParser::automaton_stats`]. The names predate the
/// one matcher: `states` counts prefix-tree nodes, stale paths included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AutomatonStats {
    /// Number of length buckets.
    pub buckets: usize,
    /// Prefix-tree nodes, each bucket's root included.
    pub states: usize,
    /// Keys indexed.
    pub keys: usize,
}

#[derive(Debug, Clone)]
struct LenBucket {
    /// Minimum LCS required for a message of this length to match.
    required: usize,
    /// Root of this length's prefix tree.
    root: u32,
    /// Constant token → (key index, multiplicity in that key).
    postings: HashMap<TokenId, Vec<(u32, u32)>>,
    /// Keys whose star count alone meets `required`: always candidates,
    /// even with zero postings overlap. Ascending, deduplicated.
    high_star: Vec<u32>,
}

impl LenBucket {
    fn new(required: usize, root: u32) -> LenBucket {
        LenBucket {
            required,
            root,
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

/// "No child": node 0 is the first bucket's root and nobody's child.
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
        Trie { nodes: Vec::new() }
    }

    fn add_root(&mut self) -> u32 {
        self.nodes.push(TrieNode::default());
        self.nodes.len() as u32 - 1
    }

    fn insert(&mut self, root: u32, ki: u32, ids: &[TokenId]) {
        let mut node = root;
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

    /// Key indices whose path from `root` matches `ids` (star edges match
    /// any token), written into `out` (cleared first). May contain stale
    /// entries — callers verify against the live key. Ascending order. The
    /// node frontiers live in per-thread scratch and `out` is
    /// caller-provided, so a walk allocates nothing in the steady state.
    fn walk_into(&self, root: u32, ids: &[TokenId], out: &mut Vec<u32>) {
        out.clear();
        crate::scratch::with_walk(|active, next| {
            active.clear();
            active.push(root);
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
            buckets: Vec::new(),
            stars: Vec::new(),
            trie: Trie::new(),
            garbage: 0,
        }
    }

    /// Register a brand-new key (index `ki` == `stars.len()`).
    pub(crate) fn insert_key(&mut self, ki: u32, ids: &[TokenId], required: usize) {
        debug_assert_eq!(ki as usize, self.stars.len());
        if self.buckets.len() <= ids.len() {
            self.buckets.resize_with(ids.len() + 1, || None);
        }
        let trie = &mut self.trie;
        let bucket = self.buckets[ids.len()]
            .get_or_insert_with(|| LenBucket::new(required, trie.add_root()));
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
        trie.insert(bucket.root, ki, ids);
    }

    /// Record that key `ki` gained `flipped` new `*` positions; `ids` is its
    /// refined token sequence. Old postings/trie paths stay as garbage.
    pub(crate) fn note_refinement(&mut self, ki: u32, ids: &[TokenId], flipped: u32) {
        self.stars[ki as usize] += flipped;
        self.garbage += flipped as usize;
        let bucket = self.buckets[ids.len()]
            .as_mut()
            .expect("refined key has a bucket");
        if self.stars[ki as usize] as usize >= bucket.required {
            if let Err(at) = bucket.high_star.binary_search(&ki) {
                bucket.high_star.insert(at, ki);
            }
        }
        self.trie.insert(bucket.root, ki, ids);
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
        match self.bucket(ids.len()) {
            Some(bucket) => self.trie.walk_into(bucket.root, ids, out),
            None => out.clear(),
        }
    }

    fn bucket(&self, len: usize) -> Option<&LenBucket> {
        self.buckets.get(len)?.as_ref()
    }

    pub(crate) fn stats(&self) -> AutomatonStats {
        AutomatonStats {
            buckets: self.buckets.iter().flatten().count(),
            states: self.trie.nodes.len(),
            keys: self.stars.len(),
        }
    }

    // lint: ingest-hot(begin)

    /// Candidate keys for the LCS phase, with a sound upper bound on their
    /// wildcard LCS against `ids`, written into `out` (cleared first). Only
    /// candidates whose bound meets the bucket's required LCS are returned.
    /// Ascending key order.
    pub(crate) fn scored_candidates_into(&self, ids: &[TokenId], out: &mut Vec<(u32, usize)>) {
        out.clear();
        let Some(bucket) = self.bucket(ids.len()) else {
            return;
        };
        let n = ids.len();
        crate::scratch::with_scored(|scratch| {
            let (toks, overlap, touched) = (
                &mut scratch.toks,
                &mut scratch.overlap,
                &mut scratch.touched,
            );
            if overlap.len() < self.stars.len() {
                // lint: allow(alloc) — grows to the key count once per thread.
                overlap.resize(self.stars.len(), 0);
            }
            // Sorted, the message's tokens form one run per distinct token:
            // its multiplicity, and one postings lookup.
            toks.clear();
            toks.extend(ids.iter().filter(|&&t| t != STAR_ID && t != UNKNOWN_ID));
            toks.sort_unstable();
            for run in toks.chunk_by(|a, b| a == b) {
                let Some(list) = bucket.postings.get(&run[0]) else {
                    continue;
                };
                let cm = run.len() as u32;
                for &(ki, ck) in list {
                    if overlap[ki as usize] == 0 {
                        touched.push(ki);
                    }
                    overlap[ki as usize] += ck.min(cm);
                }
            }
            for &ki in touched.iter() {
                let bound = ((self.stars[ki as usize] + overlap[ki as usize]) as usize).min(n);
                if bound >= bucket.required {
                    out.push((ki, bound));
                }
            }
            for &ki in &bucket.high_star {
                if overlap[ki as usize] == 0 {
                    out.push((ki, (self.stars[ki as usize] as usize).min(n)));
                }
            }
            for &ki in touched.iter() {
                overlap[ki as usize] = 0;
            }
            touched.clear();
            out.sort_unstable_by_key(|&(ki, _)| ki);
        })
    }

    // lint: ingest-hot(end)
}
