//! Compiled key-matching automaton — the frozen-model fast path.
//!
//! Training mutates the key set continuously, so the live matcher
//! (`index.rs`) is built for cheap incremental updates and tolerates
//! refinement garbage. Detection and serving run against a *frozen* model,
//! which admits a much denser representation compiled once by
//! [`KeyAutomaton::compile`]:
//!
//! * keys are grouped into per-message-length **buckets** (only same-length
//!   keys can match), each with a **sorted token dictionary** of the
//!   constant tokens its keys use — one binary search per message token
//!   resolves both the prefix-tree edge label *and* the postings row for
//!   the inverted-index prune, fusing the two lookups the live path pays
//!   separately (trie-edge HashMap probe + postings HashMap probe);
//! * the exact phase walks the bucket's **prefix tree** — Spell's
//!   exact-instance fast path — flattened garbage-free: per-node edge runs
//!   sorted by local token id, one wildcard child per node. The walk keeps
//!   a frontier of live nodes; a message token follows its constant edge
//!   and the `*` edge of each. A node has one parent, so no node enters
//!   the frontier twice. The tree has one node per distinct key prefix, so
//!   a bucket compiles in space linear in its key tokens, with no budget;
//! * postings are stored garbage-free in CSR layout over **bucket-local
//!   key ids**, so the scoring pass runs on dense arrays with touched-list
//!   resets instead of hash maps (see `scratch.rs::AutoScratch`).
//!
//! # Equivalence
//!
//! Verdicts are identical to `MatchIndex` + `match_ids` and to the linear
//! reference scan (property-tested in `tests/proptests.rs` and
//! `tests/automaton_equivalence.rs`):
//!
//! * the exact phase accepts exactly the keys the message instantiates
//!   (every path of the garbage-free tree corresponds to a live key, so no
//!   verification step is needed), and returns the lowest such key id —
//!   an exact instance has the maximal LCS `n`, so it is the final answer;
//! * the scoring phase uses the same sound upper bound
//!   `min(stars + Σ min(mult_key, mult_msg), n)`; garbage-free postings
//!   can only make the bound *tighter* than the live index's, which can
//!   only prune keys whose true LCS is below threshold — never a winner —
//!   and candidates are scanned in ascending key order with the identical
//!   best-score/lowest-id selection loop.

use crate::intern::{TokenId, STAR_ID};
use crate::lcs::{lcs_len_wild_ids, positional_matches_wild_ids};
use crate::scratch::{self, AutoScratch};
use std::collections::{BTreeMap, HashMap};

/// Sentinel for "no node / no token / no terminal" in the packed tables.
const NONE: u32 = u32::MAX;

/// Outcome of one automaton match, tagged with the phase that decided it
/// (the parser mirrors the live path's observability counters from this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AutoMatch {
    /// Message is an exact instance of this key index (global).
    Exact(u32),
    /// Best scored key index (global) at or above the LCS threshold.
    Scored(u32),
    /// No key matches.
    Miss,
}

/// Compile-time statistics, surfaced through
/// [`crate::parser::SpellParser::automaton_stats`] for tests and docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AutomatonStats {
    /// Number of length buckets.
    pub buckets: usize,
    /// Total prefix-tree nodes across buckets.
    pub states: usize,
    /// Total keys compiled in.
    pub keys: usize,
}

/// A frozen key set compiled for matching. Self-contained: owns copies of
/// the key token sequences, so matching needs no access to the live parser
/// structures.
#[derive(Debug, Clone)]
pub(crate) struct KeyAutomaton {
    /// Indexed by message token count.
    buckets: Vec<Option<Bucket>>,
    stats: AutomatonStats,
}

#[derive(Debug, Clone)]
struct Bucket {
    /// Key/message length of this bucket.
    len: usize,
    /// Minimum wildcard LCS required for a match at this length.
    required: usize,
    /// Global key indices, ascending; position is the bucket-local key id.
    keys: Vec<u32>,
    /// Flattened key tokens: row `lk` is `key_toks[lk*len .. (lk+1)*len]`.
    key_toks: Vec<TokenId>,
    /// `*` count per local key.
    stars: Vec<u32>,
    /// Local keys whose star count alone meets `required` (ascending).
    high_star: Vec<u32>,
    /// Sorted distinct constant tokens of this bucket's keys. Binary
    /// searching a message token here yields its local id — the label used
    /// by the prefix-tree edges *and* the postings row below.
    dict: Vec<TokenId>,
    /// CSR offsets into `postings`, length `dict.len() + 1`.
    post_start: Vec<u32>,
    /// (local key, multiplicity) pairs, grouped by dictionary token.
    postings: Vec<(u32, u32)>,
    /// Exact-instance prefix tree over local token ids.
    tree: PrefixTree,
}

/// Flattened garbage-free prefix tree. All tables are indexed by node id
/// (the root is 0); `edges` is CSR with per-node runs sorted by local
/// token id.
#[derive(Debug, Clone)]
struct PrefixTree {
    edge_start: Vec<u32>,
    edges: Vec<(u32, u32)>,
    /// Child along a wildcard key position; `NONE` if absent.
    star_child: Vec<u32>,
    /// Lowest local key ending at this node (`NONE` unless the node is at
    /// full depth).
    terminal: Vec<u32>,
}

impl KeyAutomaton {
    /// Compile the live key set. `required_for(n)` is the matching
    /// threshold for messages of `n` tokens (ceil(n / t)).
    pub(crate) fn compile(
        ikeys: &[Vec<TokenId>],
        required_for: &dyn Fn(usize) -> usize,
    ) -> KeyAutomaton {
        let mut by_len: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for (ki, ids) in ikeys.iter().enumerate() {
            by_len.entry(ids.len()).or_default().push(ki as u32);
        }
        let max_len = by_len.keys().next_back().copied().unwrap_or(0);
        let mut buckets: Vec<Option<Bucket>> = Vec::new();
        buckets.resize_with(max_len + 1, || None);
        let mut stats = AutomatonStats {
            keys: ikeys.len(),
            ..AutomatonStats::default()
        };
        for (len, keys) in by_len {
            let bucket = Bucket::compile(len, keys, ikeys, required_for(len));
            stats.buckets += 1;
            stats.states += bucket.tree.star_child.len();
            buckets[len] = Some(bucket);
        }
        KeyAutomaton { buckets, stats }
    }

    pub(crate) fn stats(&self) -> AutomatonStats {
        self.stats
    }

    // lint: ingest-hot(begin)

    /// Match an interned message against the compiled key set. Runs on
    /// per-thread scratch; allocation-free in the steady state.
    pub(crate) fn match_ids(&self, ids: &[TokenId]) -> AutoMatch {
        let Some(Some(bucket)) = self.buckets.get(ids.len()) else {
            return AutoMatch::Miss;
        };
        scratch::with_auto(|auto| bucket.match_in(ids, auto))
    }

    // lint: ingest-hot(end)
}

impl Bucket {
    fn compile(len: usize, keys: Vec<u32>, ikeys: &[Vec<TokenId>], required: usize) -> Bucket {
        let nkeys = keys.len();
        // Flatten key rows and gather the constant-token dictionary.
        let mut key_toks: Vec<TokenId> = Vec::with_capacity(nkeys * len);
        let mut dict: Vec<TokenId> = Vec::new();
        let mut stars: Vec<u32> = Vec::with_capacity(nkeys);
        for &ki in &keys {
            let row = &ikeys[ki as usize];
            key_toks.extend_from_slice(row);
            let mut s = 0u32;
            for &tok in row {
                if tok == STAR_ID {
                    s += 1;
                } else {
                    dict.push(tok);
                }
            }
            stars.push(s);
        }
        dict.sort_unstable();
        dict.dedup();
        let high_star: Vec<u32> = (0..nkeys as u32)
            .filter(|&lk| stars[lk as usize] as usize >= required)
            .collect();
        // Postings in CSR over local token ids: (ltok, lk, mult) triples
        // sorted by (ltok, lk). `counts` scratch is per-key multiplicity.
        let mut triples: Vec<(u32, u32, u32)> = Vec::new();
        let mut counts: HashMap<TokenId, u32> = HashMap::new();
        for lk in 0..nkeys {
            counts.clear();
            for &tok in &key_toks[lk * len..(lk + 1) * len] {
                if tok != STAR_ID {
                    *counts.entry(tok).or_default() += 1;
                }
            }
            for (&tok, &mult) in counts.iter() {
                let lt = dict.binary_search(&tok).expect("token in dictionary") as u32;
                triples.push((lt, lk as u32, mult));
            }
        }
        triples.sort_unstable();
        let mut post_start = vec![0u32; dict.len() + 1];
        let mut postings: Vec<(u32, u32)> = Vec::with_capacity(triples.len());
        for &(lt, lk, mult) in &triples {
            post_start[lt as usize + 1] += 1;
            postings.push((lk, mult));
        }
        for i in 0..dict.len() {
            post_start[i + 1] += post_start[i];
        }
        let tree = PrefixTree::build(len, nkeys, &key_toks, &dict);
        Bucket {
            len,
            required,
            keys,
            key_toks,
            stars,
            high_star,
            dict,
            post_start,
            postings,
            tree,
        }
    }

    // lint: ingest-hot(begin)

    fn match_in(&self, ids: &[TokenId], auto: &mut AutoScratch) -> AutoMatch {
        debug_assert_eq!(ids.len(), self.len);
        // One binary search per message token resolves the tree edge label
        // and the postings row at once. Stars, unknowns and out-of-dict
        // tokens map to NONE: they can equal no constant key token.
        auto.ltoks.clear();
        for &tok in ids {
            auto.ltoks.push(match self.dict.binary_search(&tok) {
                Ok(lt) => lt as u32,
                Err(_) => NONE,
            });
        }
        // Exact phase: every terminal reached is a live instance.
        let exact = self.tree.walk(&auto.ltoks, &mut auto.frontier);
        if exact != NONE {
            return AutoMatch::Exact(self.keys[exact as usize]);
        }
        // Scored phase on dense arrays with touched-list resets.
        let n = ids.len();
        if auto.counts.len() < self.dict.len() {
            auto.counts.resize(self.dict.len(), 0);
        }
        if auto.overlap.len() < self.keys.len() {
            auto.overlap.resize(self.keys.len(), 0);
        }
        for &lt in &auto.ltoks {
            if lt != NONE {
                if auto.counts[lt as usize] == 0 {
                    auto.touched_tokens.push(lt);
                }
                auto.counts[lt as usize] += 1;
            }
        }
        for &lt in &auto.touched_tokens {
            let cm = auto.counts[lt as usize];
            let (lo, hi) = (
                self.post_start[lt as usize] as usize,
                self.post_start[lt as usize + 1] as usize,
            );
            for &(lk, ck) in &self.postings[lo..hi] {
                if auto.overlap[lk as usize] == 0 {
                    auto.touched_keys.push(lk);
                }
                auto.overlap[lk as usize] += ck.min(cm);
            }
        }
        auto.cands.clear();
        for &lk in &auto.touched_keys {
            let bound =
                (self.stars[lk as usize] as usize + auto.overlap[lk as usize] as usize).min(n);
            if bound >= self.required {
                auto.cands.push((lk, bound));
            }
        }
        for &lk in &self.high_star {
            if auto.overlap[lk as usize] == 0 {
                // stars ≥ required and stars ≤ len = n, so always a candidate.
                auto.cands.push((lk, self.stars[lk as usize] as usize));
            }
        }
        // Reset dense scratch before any early return below.
        for &lt in &auto.touched_tokens {
            auto.counts[lt as usize] = 0;
        }
        auto.touched_tokens.clear();
        for &lk in &auto.touched_keys {
            auto.overlap[lk as usize] = 0;
        }
        auto.touched_keys.clear();
        // Ascending local key == ascending global key: ties resolve to the
        // lowest id exactly as in the live matcher.
        auto.cands.sort_unstable_by_key(|&(lk, _)| lk);
        let mut best: Option<(usize, u32)> = None;
        for &(lk, bound) in auto.cands.iter() {
            if best.is_some_and(|(s, _)| bound <= s) {
                continue;
            }
            let key = &self.key_toks[lk as usize * self.len..(lk as usize + 1) * self.len];
            let pos = positional_matches_wild_ids(key, ids);
            let score = if pos == bound {
                pos
            } else {
                lcs_len_wild_ids(key, ids)
            };
            if score >= self.required && best.is_none_or(|(s, _)| score > s) {
                best = Some((score, lk));
            }
        }
        match best {
            Some((_, lk)) => AutoMatch::Scored(self.keys[lk as usize]),
            None => AutoMatch::Miss,
        }
    }

    // lint: ingest-hot(end)
}

impl PrefixTree {
    /// Build the garbage-free tree over local token ids. Terminals hold the
    /// lowest local key ending at the node (keys are inserted in ascending
    /// order, so first write wins).
    fn build(len: usize, nkeys: usize, key_toks: &[TokenId], dict: &[TokenId]) -> PrefixTree {
        struct Node {
            edges: BTreeMap<u32, u32>,
            star: u32,
            terminal: u32,
        }
        let mut nodes: Vec<Node> = vec![Node {
            edges: BTreeMap::new(),
            star: NONE,
            terminal: NONE,
        }];
        for lk in 0..nkeys {
            let mut at = 0usize;
            for &tok in &key_toks[lk * len..(lk + 1) * len] {
                let lt = if tok == STAR_ID {
                    NONE
                } else {
                    dict.binary_search(&tok).expect("token in dictionary") as u32
                };
                let existing = if lt == NONE {
                    nodes[at].star
                } else {
                    nodes[at].edges.get(&lt).copied().unwrap_or(NONE)
                };
                let child = if existing == NONE {
                    let new_id = nodes.len() as u32;
                    nodes.push(Node {
                        edges: BTreeMap::new(),
                        star: NONE,
                        terminal: NONE,
                    });
                    if lt == NONE {
                        nodes[at].star = new_id;
                    } else {
                        nodes[at].edges.insert(lt, new_id);
                    }
                    new_id
                } else {
                    existing
                };
                at = child as usize;
            }
            if nodes[at].terminal == NONE {
                nodes[at].terminal = lk as u32;
            }
        }
        let mut edge_start = Vec::with_capacity(nodes.len() + 1);
        let mut edges = Vec::new();
        let mut star_child = Vec::with_capacity(nodes.len());
        let mut terminal = Vec::with_capacity(nodes.len());
        edge_start.push(0u32);
        for node in &nodes {
            for (&lt, &child) in &node.edges {
                edges.push((lt, child));
            }
            edge_start.push(edges.len() as u32);
            star_child.push(node.star);
            terminal.push(node.terminal);
        }
        PrefixTree {
            edge_start,
            edges,
            star_child,
            terminal,
        }
    }

    #[inline]
    fn edge(&self, node: u32, lt: u32) -> u32 {
        let (lo, hi) = (
            self.edge_start[node as usize] as usize,
            self.edge_start[node as usize + 1] as usize,
        );
        match self.edges[lo..hi].binary_search_by_key(&lt, |&(l, _)| l) {
            Ok(at) => self.edges[lo + at].1,
            Err(_) => NONE,
        }
    }

    // lint: ingest-hot(begin)

    /// Walk the tree along the message, keeping every live node: a token
    /// follows its constant edge and the `*` edge. Returns the lowest
    /// local key ending at a node the whole message reaches, or `NONE`.
    fn walk(&self, ltoks: &[u32], frontier: &mut (Vec<u32>, Vec<u32>)) -> u32 {
        let (active, next) = frontier;
        active.clear();
        active.push(0);
        for &lt in ltoks {
            next.clear();
            for &node in active.iter() {
                // A node has one parent, so `next` never holds a node
                // twice; `NONE` (no constant of this bucket) only takes
                // the `*` edge.
                if lt != NONE {
                    let via = self.edge(node, lt);
                    if via != NONE {
                        next.push(via);
                    }
                }
                let star = self.star_child[node as usize];
                if star != NONE {
                    next.push(star);
                }
            }
            if next.is_empty() {
                return NONE;
            }
            std::mem::swap(active, next);
        }
        let mut best = NONE;
        for &node in active.iter() {
            best = best.min(self.terminal[node as usize]);
        }
        best
    }

    // lint: ingest-hot(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Interner;

    fn keyset(keys: &[&str]) -> (Vec<Vec<TokenId>>, Interner) {
        let mut it = Interner::new();
        let ikeys = keys
            .iter()
            .map(|k| k.split_whitespace().map(|t| it.intern(t)).collect())
            .collect();
        (ikeys, it)
    }

    fn req(t: f64) -> impl Fn(usize) -> usize {
        move |n| (n as f64 / t).ceil() as usize
    }

    fn ids(it: &Interner, msg: &str) -> Vec<TokenId> {
        msg.split_whitespace()
            .map(|t| it.lookup(t).unwrap_or(crate::intern::UNKNOWN_ID))
            .collect()
    }

    #[test]
    fn exact_instance_hits_lowest_key() {
        let (ikeys, it) = keyset(&["a * c", "a b c", "x y z"]);
        let auto = KeyAutomaton::compile(&ikeys, &req(1.7));
        // "a b c" instantiates both key 0 (via *) and key 1 — lowest wins.
        assert_eq!(auto.match_ids(&ids(&it, "a b c")), AutoMatch::Exact(0));
        assert_eq!(auto.match_ids(&ids(&it, "x y z")), AutoMatch::Exact(2));
        assert_eq!(auto.match_ids(&ids(&it, "a q c")), AutoMatch::Exact(0));
    }

    #[test]
    fn scored_phase_matches_near_misses() {
        let (ikeys, it) = keyset(&["read block b1 from disk zero"]);
        let auto = KeyAutomaton::compile(&ikeys, &req(1.7)); // 6 toks → need 4
        assert_eq!(
            auto.match_ids(&ids(&it, "read block b1 from cable one")),
            AutoMatch::Scored(0)
        );
        assert_eq!(auto.match_ids(&ids(&it, "w x y z u v")), AutoMatch::Miss);
    }

    #[test]
    fn length_mismatch_is_a_miss() {
        let (ikeys, it) = keyset(&["a b c"]);
        let auto = KeyAutomaton::compile(&ikeys, &req(1.7));
        assert_eq!(auto.match_ids(&ids(&it, "a b")), AutoMatch::Miss);
        assert_eq!(auto.match_ids(&ids(&it, "a b c d")), AutoMatch::Miss);
        assert_eq!(auto.match_ids(&[]), AutoMatch::Miss);
    }

    #[test]
    fn empty_key_matches_empty_message() {
        let (mut ikeys, it) = keyset(&["a b"]);
        ikeys.push(Vec::new());
        let auto = KeyAutomaton::compile(&ikeys, &req(1.7));
        assert_eq!(auto.match_ids(&[]), AutoMatch::Exact(1));
        drop(it);
    }

    #[test]
    fn stats_count_tree_nodes() {
        let (ikeys, _it) = keyset(&["a b c", "a b d", "p q"]);
        let auto = KeyAutomaton::compile(&ikeys, &req(1.7));
        let s = auto.stats();
        assert_eq!(s.buckets, 2);
        assert_eq!(s.keys, 3);
        // Root, a, a b, a b c, a b d; root, p, p q.
        assert_eq!(s.states, 8);
    }

    /// Eight positions that are `c{i}` or `*` in every combination: 256
    /// keys of one length, numbered so that the lowest id is not the first
    /// terminal a constant-first walk reaches.
    fn forked_keyset() -> (Vec<Vec<TokenId>>, Interner) {
        let keys: Vec<String> = (0..256u32)
            .map(|k| {
                let mask = (k * 37 + 11) % 256;
                (0..8)
                    .map(|i| {
                        if (mask >> i) & 1 == 1 {
                            format!("c{i}")
                        } else {
                            "*".to_string()
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        keyset(&keys.iter().map(String::as_str).collect::<Vec<_>>())
    }

    #[test]
    fn wide_frontier_returns_the_lowest_key() {
        let (ikeys, it) = forked_keyset();
        let auto = KeyAutomaton::compile(&ikeys, &req(1.7));
        let Some(Some(bucket)) = auto.buckets.get(8) else {
            panic!("one bucket of length 8");
        };
        let walk = |msg: &str| {
            let ltoks: Vec<u32> = ids(&it, msg)
                .iter()
                .map(|t| bucket.dict.binary_search(t).map_or(NONE, |lt| lt as u32))
                .collect();
            let mut frontier = (Vec::new(), Vec::new());
            let found = bucket.tree.walk(&ltoks, &mut frontier);
            (found, frontier.0.len())
        };
        // Every key is an instance: all 256 leaves stay live, and key 0
        // (constants at positions 0, 1 and 3) is the answer.
        assert_eq!(walk("c0 c1 c2 c3 c4 c5 c6 c7"), (0, 256));
        // Two unknown tokens keep only the `*` branch there: 64 leaves,
        // the keys with no constant at positions 2 and 5.
        let (found, live) = walk("c0 c1 zz c3 c4 yy c6 c7");
        assert_eq!(live, 64);
        let lowest = (0..256u32)
            .find(|k| ((k * 37 + 11) % 256) & 0b0010_0100 == 0)
            .expect("some key");
        assert_eq!(found, lowest);
        assert_eq!(
            auto.match_ids(&ids(&it, "c0 c1 zz c3 c4 yy c6 c7")),
            AutoMatch::Exact(lowest)
        );
    }

    #[test]
    fn star_heavy_keys_stay_correct() {
        // Keys that are mostly stars exercise high_star candidates and the
        // default transitions.
        let (ikeys, it) = keyset(&["* * * end", "* * * fin", "a b c end"]);
        let auto = KeyAutomaton::compile(&ikeys, &req(1.7)); // 4 toks → need 3
        assert_eq!(auto.match_ids(&ids(&it, "q r s end")), AutoMatch::Exact(0));
        assert_eq!(auto.match_ids(&ids(&it, "q r s fin")), AutoMatch::Exact(1));
        // Unknown-token probe: stars still carry it over the threshold.
        assert_eq!(
            auto.match_ids(&ids(&it, "zz yy xx ww")),
            AutoMatch::Scored(0)
        );
    }
}
