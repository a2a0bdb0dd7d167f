//! The streaming Spell parser.
//!
//! Consumes raw log messages one at a time and maintains the set of log
//! keys. A message either refines an existing key (variable positions are
//! discovered by disagreement) or founds a new key. The paper's IntelLog
//! embeds a ~400-line Spell with a matching threshold `t` set empirically to
//! 1.7 (§5); we follow both the algorithm and the default.
//!
//! # Hot path
//!
//! A message is tokenised to byte spans and each span is *looked up* in the
//! interner ([`Interner::lookup_bytes`]); every comparison after that is a
//! `u32` compare. Only the tokens of a message that **founds a key** are
//! interned, so the dictionary holds what the keys can name and nothing
//! else — a parameter value seen once (a task id, a byte count) resolves to
//! [`UNKNOWN_ID`] and costs no memory, in training as in detection.
//! Matching consults one `MatchIndex` — a prefix tree for the
//! exact-instance fast path plus an inverted `token → key` index whose
//! overlap bound prunes keys before the LCS dynamic program runs (see
//! `index.rs` for the soundness argument). Training, detection and serving
//! all match on it; when training ends, [`SpellParser::rebuild_index`]
//! drops the garbage that key refinement left in it.
//! [`SpellParser::match_ids_linear`] keeps the unindexed scan as the
//! executable specification; property tests assert the two agree.
//!
//! # One door per job
//!
//! Training writes through [`SpellParser::parse_spans`], in two halves
//! called in sequence. [`SpellParser::prepare`] reads no parser state: it
//! cuts the line into spans and hashes each token, so a trainer may run it
//! ahead of the parser on another thread. [`SpellParser::parse_prepared`]
//! looks the hashed tokens up, matches, refines — and founds a key,
//! interning its tokens, only when nothing matches. An unseen token may
//! stand in for the id it would have been given because a key constant is
//! always an interned id and matching and refinement only ever compare a
//! message token with a key token: [`UNKNOWN_ID`] differs from every
//! constant exactly as the fresh id would, so the same positions score, the
//! same positions flip and the same messages miss.
//! [`SpellParser::parse_message`] is that door plus the message's tokens as
//! strings, for callers that instantiate an owned `IntelMessage` from them.
//! Everything that only reads goes through [`SpellParser::match_ids`] —
//! reached with the per-thread scratch buffers by
//! [`SpellParser::match_line`], or with the caller's own buffers by
//! [`SpellParser::lookup_line_into`] when the token spans are needed after
//! the match (detection writes the session log's row from them).
//!
//! # Matching contract
//!
//! For a message of `n` tokens, a key of the same length is a match when
//! `lcs_len_wild(key, msg) ≥ ceil(n / t)`. Among matching keys the highest
//! LCS wins; ties go to the **lowest** [`KeyId`]. (An exact instance has
//! LCS `n`, the maximum, so exact matches always win.)

use crate::index::{AutomatonStats, MatchIndex};
use crate::intern::{token_hash, Interner, TokenId, STAR_ID, UNKNOWN_ID};
use crate::key::{KeyId, LogKey, STAR};
use crate::lcs::{lcs_len_wild_ids, positional_matches_wild_ids};
use lognlp::Span;
use serde::{Content, DeError, Deserialize, Serialize};

/// Tokenise a log message body for Spell: the spans of
/// [`lognlp::tokenize_spans`] as owned strings.
///
/// [`lognlp::tokenize`] is the same spans with a shape classified per
/// token, so key-token positions stay aligned with the positions the NLP
/// layer sees when it tags a key through its sample message.
///
/// No parse or match path calls this: training and detection read spans.
/// It serves callers that need the strings themselves — ad hoc extraction
/// of an unexpected message, `IntelMessage::instantiate` oracles in tests
/// and in `benchmark/`.
pub fn tokenize_message(message: &str) -> Vec<String> {
    crate::scratch::with_line(|line| {
        lognlp::tokenize_spans(message, &mut line.spans);
        span_texts(message, &line.spans)
    })
}

/// The tokens `spans` cut out of `message`, as owned strings.
fn span_texts(message: &str, spans: &[Span]) -> Vec<String> {
    spans.iter().map(|s| s.of(message).to_string()).collect()
}

/// Result of feeding one message to the parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOutcome {
    /// The key this message belongs to.
    pub key_id: KeyId,
    /// Whether the message founded a brand-new key.
    pub is_new_key: bool,
    /// The message tokens (as used for matching).
    pub tokens: Vec<String>,
}

/// Streaming Spell log-key extractor.
#[derive(Debug, Clone)]
pub struct SpellParser {
    /// Matching threshold `t`: a message of `n` tokens matches a key iff
    /// their LCS length is at least `n / t`. The paper sets 1.7.
    threshold: f64,
    keys: Vec<LogKey>,
    /// Token interner; key and message tokens live here.
    interner: Interner,
    /// Interned key tokens, parallel to `keys`.
    ikeys: Vec<Vec<TokenId>>,
    /// Prefix tree + inverted token index for candidate pruning.
    index: MatchIndex,
}

impl Default for SpellParser {
    fn default() -> Self {
        SpellParser::new(1.7)
    }
}

fn required_for(threshold: f64, n: usize) -> usize {
    (n as f64 / threshold).ceil() as usize
}

impl SpellParser {
    /// Create a parser with the given matching threshold (paper default 1.7).
    ///
    /// # Panics
    /// Panics if `threshold < 1.0` (a threshold below 1 would require an LCS
    /// longer than the message).
    pub fn new(threshold: f64) -> SpellParser {
        assert!(threshold >= 1.0, "Spell threshold must be >= 1.0");
        SpellParser {
            threshold,
            keys: Vec::new(),
            interner: Interner::new(),
            ikeys: Vec::new(),
            index: MatchIndex::new(),
        }
    }

    /// Rebuild the match index from the live key set, dropping the stale
    /// postings and prefix-tree paths that key refinement leaves behind.
    /// Training calls it when that garbage passes a threshold;
    /// `Detector::new` calls it once more when training ends, so detection
    /// prunes at full precision. Verdicts are the same before and after.
    pub fn rebuild_index(&mut self) {
        let t = self.threshold;
        self.index.rebuild(&self.ikeys, &|n| required_for(t, n));
    }

    /// Size of the match index: its prefix-tree nodes, length buckets and
    /// keys. Always `Some`; the name and the `Option` are kept because
    /// `benchmark/` reads them as the `spell.automaton_states` row.
    pub fn automaton_stats(&self) -> Option<AutomatonStats> {
        Some(self.index.stats())
    }

    /// The matching threshold `t`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// All keys discovered so far.
    pub fn keys(&self) -> &[LogKey] {
        &self.keys
    }

    /// Look up a key by id.
    pub fn key(&self, id: KeyId) -> &LogKey {
        &self.keys[id.0 as usize]
    }

    /// Number of keys discovered.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if no key has been discovered yet.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Minimum LCS length required for a message of `n` tokens to match.
    fn required_lcs(&self, n: usize) -> usize {
        required_for(self.threshold, n)
    }

    // lint: ingest-hot(begin)

    /// The matcher: best key for a message of interned tokens, mutating
    /// nothing. See the module docs for the matching contract; equivalent
    /// to [`SpellParser::match_ids_linear`]. Training, detection and
    /// serving all run it on the prefix tree + inverted index.
    pub fn match_ids(&self, ids: &[TokenId]) -> Option<KeyId> {
        // Exact-instance fast path: the prefix tree yields every key this
        // message instantiates (stale paths are filtered by verification);
        // an exact instance has the maximal LCS `n`, so the lowest such
        // KeyId is the final answer.
        let exact = crate::scratch::with_exact(|cands| {
            self.index.exact_candidates_into(ids, cands);
            cands
                .iter()
                .copied()
                .find(|&ki| is_instance(&self.ikeys[ki as usize], ids))
        });
        if let Some(ki) = exact {
            obs::inc!("spell.match.trie_hits");
            return Some(self.keys[ki as usize].id);
        }
        let required = self.required_lcs(ids.len());
        let best = crate::scratch::with_cands(|cands| {
            self.index.scored_candidates_into(ids, cands);
            let mut best: Option<(usize, u32)> = None;
            for &(ki, bound) in cands.iter() {
                // Even reaching its upper bound, this key cannot strictly
                // beat the best so far (earlier id wins ties) — skip the LCS.
                if best.is_some_and(|(s, _)| bound <= s) {
                    continue;
                }
                let key = &self.ikeys[ki as usize];
                let pos = positional_matches_wild_ids(key, ids);
                // `pos ≤ lcs ≤ bound`, so hitting the bound positionally
                // settles the LCS without running the dynamic program.
                let score = if pos == bound {
                    pos
                } else {
                    lcs_len_wild_ids(key, ids)
                };
                if score >= required && best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, ki));
                }
            }
            best
        });
        match best {
            Some((_, ki)) => {
                obs::inc!("spell.match.index_hits");
                Some(self.keys[ki as usize].id)
            }
            None => {
                obs::inc!("spell.match.misses");
                None
            }
        }
    }

    // lint: ingest-hot(end)

    /// Reference matcher: a plain linear scan with one score — the wildcard
    /// LCS — for every same-length key. This is the executable
    /// specification of the matching contract; `match_ids` must agree with
    /// it on every input (property-tested in `tests/proptests.rs`).
    pub fn match_ids_linear(&self, ids: &[TokenId]) -> Option<KeyId> {
        obs::inc!("spell.match.linear_scans");
        let required = self.required_lcs(ids.len());
        let mut best: Option<(usize, u32)> = None;
        for (ki, key) in self.ikeys.iter().enumerate() {
            if key.len() != ids.len() {
                continue;
            }
            let score = lcs_len_wild_ids(key, ids);
            if score >= required && best.is_none_or(|(s, _)| score > s) {
                best = Some((score, ki as u32));
            }
        }
        best.map(|(_, ki)| self.keys[ki as usize].id)
    }

    /// Refine key `id` against a matched message: any position where the
    /// key's constant token disagrees with the message becomes a variable
    /// position. Allocation-free when nothing flips (the steady state).
    fn refine(&mut self, id: KeyId, ids: &[TokenId]) {
        let ki = id.0 as usize;
        let mut flipped = 0u32;
        {
            let key = &mut self.keys[ki];
            let ikey = &mut self.ikeys[ki];
            for (p, &mid) in ids.iter().enumerate() {
                if ikey[p] != STAR_ID && ikey[p] != mid {
                    ikey[p] = STAR_ID;
                    key.tokens[p] = STAR.to_string();
                    flipped += 1;
                }
            }
            key.count += 1;
        }
        if flipped > 0 {
            obs::inc!("spell.keys_refined");
            obs::add!("spell.positions_wildcarded", flipped as u64);
            obs::event!("spell.key_refined", "key" = id.0, "flipped" = flipped);
            self.index.note_refinement(id.0, &self.ikeys[ki], flipped);
            if self.index.needs_rebuild() {
                obs::inc!("spell.index_rebuilds");
                self.rebuild_index();
            }
        }
    }

    /// Found a brand-new key from an unmatched message.
    fn found_key(&mut self, ids: &[TokenId], tokens: Vec<String>) -> KeyId {
        let id = KeyId(self.keys.len() as u32);
        obs::inc!("spell.keys_created");
        obs::event!("spell.new_key", "key" = id.0, "len" = ids.len());
        self.index
            .insert_key(id.0, ids, self.required_lcs(ids.len()));
        self.keys.push(LogKey {
            id,
            tokens: tokens.clone(),
            sample: tokens,
            count: 1,
        });
        self.ikeys.push(ids.to_vec());
        id
    }

    // lint: ingest-hot(begin)

    /// Feed one raw message to the parser — the training door:
    /// [`SpellParser::prepare`] then [`SpellParser::parse_prepared`]. Returns
    /// the key the message was assigned to and whether it founded that key.
    ///
    /// `spans` and `ids` are the caller's line buffers (both cleared first,
    /// as in [`SpellParser::lookup_line_into`]): a stream that keeps them
    /// across lines allocates nothing for a message that matches a key
    /// without changing it, which is all but a few hundred lines of a
    /// corpus. On return `spans` index `message`, and `ids` hold what the
    /// interner knew of each token once the message was dealt with —
    /// [`UNKNOWN_ID`] for a token no key names.
    pub fn parse_spans(
        &mut self,
        message: &str,
        spans: &mut Vec<Span>,
        ids: &mut Vec<TokenId>,
    ) -> (KeyId, bool) {
        crate::scratch::with_hashes(|hashes| {
            SpellParser::prepare(message, spans, hashes);
            self.parse_prepared(message, spans, hashes, ids)
        })
    }

    /// The training door's first half, which reads no parser state: the
    /// token spans of `message` and the [`token_hash`] of each token, into
    /// the caller's buffers (both cleared first). A trainer may prepare
    /// lines ahead of the parser, on any thread.
    pub fn prepare(message: &str, spans: &mut Vec<Span>, hashes: &mut Vec<u64>) {
        lognlp::tokenize_spans(message, spans);
        hashes.clear();
        hashes.extend(spans.iter().map(|s| token_hash(s.of(message).as_bytes())));
    }

    /// The training door's second half: look a prepared message's tokens
    /// up, match, and refine the matched key — or found a key, interning the
    /// message's tokens, when nothing matches. `spans` and `hashes` are what
    /// [`SpellParser::prepare`] made of `message`; `ids` is cleared first and
    /// holds, on return, what the interner knew of each token once the
    /// message was dealt with.
    pub fn parse_prepared(
        &mut self,
        message: &str,
        spans: &[Span],
        hashes: &[u64],
        ids: &mut Vec<TokenId>,
    ) -> (KeyId, bool) {
        obs::inc!("spell.lines_parsed");
        ids.clear();
        for (s, &h) in spans.iter().zip(hashes) {
            let token = s.of(message).as_bytes();
            ids.push(self.interner.lookup_hashed(token, h).unwrap_or(UNKNOWN_ID));
        }
        if let Some(id) = self.match_ids(ids) {
            self.refine(id, ids);
            return (id, false);
        }
        // lint: allow(alloc) — founding a key: 78 of the 69,733 lines of
        // the `train_batch` corpora; the only place training interns.
        let tokens = span_texts(message, spans);
        for (id, token) in ids.iter_mut().zip(&tokens) {
            *id = self.interner.intern(token);
        }
        (self.found_key(ids, tokens), true)
    }

    // lint: ingest-hot(end)

    /// [`SpellParser::parse_spans`] for callers that want the message's
    /// tokens as strings (to instantiate an owned `IntelMessage` from).
    pub fn parse_message(&mut self, message: &str) -> ParseOutcome {
        crate::scratch::with_line(|line| {
            let (key_id, is_new_key) = self.parse_spans(message, &mut line.spans, &mut line.ids);
            ParseOutcome {
                key_id,
                is_new_key,
                tokens: span_texts(message, &line.spans),
            }
        })
    }

    /// The training door as it was before [`SpellParser::parse_spans`]:
    /// every token of every message interned, strings built per line. Kept
    /// as the oracle `tests/proptests.rs` holds the new door to — same
    /// keys, same outcomes, line for line.
    #[doc(hidden)]
    pub fn parse_message_interning(&mut self, message: &str) -> ParseOutcome {
        obs::inc!("spell.lines_parsed");
        let tokens = tokenize_message(message);
        let ids: Vec<TokenId> = tokens.iter().map(|t| self.interner.intern(t)).collect();
        let (key_id, is_new_key) = match self.match_ids(&ids) {
            Some(id) => {
                self.refine(id, &ids);
                (id, false)
            }
            None => (self.found_key(&ids, tokens.clone()), true),
        };
        ParseOutcome {
            key_id,
            is_new_key,
            tokens,
        }
    }

    /// Number of strings the interner holds (`*` included).
    #[doc(hidden)]
    pub fn interned_len(&self) -> usize {
        self.interner.len()
    }

    // lint: ingest-hot(begin)

    /// Match a raw line without mutating anything, through the zero-copy
    /// path: spans are resolved against the interner by byte slice
    /// ([`Interner::lookup_bytes`]), so a match performs no allocation at
    /// all once the per-thread scratch is warm.
    pub fn match_line(&self, message: &str) -> Option<KeyId> {
        crate::scratch::with_line(|line| {
            self.lookup_line_into(message, &mut line.spans, &mut line.ids);
            self.match_ids(&line.ids)
        })
    }

    /// Tokenise and intern-lookup one raw line into caller-provided
    /// buffers (both cleared first): spans index `message`, and unseen
    /// tokens map to [`UNKNOWN_ID`]. Streaming callers keep both buffers
    /// across lines so the per-line cost is allocation-free.
    #[inline]
    pub fn lookup_line_into(&self, message: &str, spans: &mut Vec<Span>, out: &mut Vec<TokenId>) {
        lognlp::tokenize_spans(message, spans);
        out.clear();
        for s in spans.iter() {
            out.push(
                self.interner
                    .lookup_bytes(s.of(message).as_bytes())
                    .unwrap_or(UNKNOWN_ID),
            );
        }
    }

    // lint: ingest-hot(end)

    /// Reassemble a parser from its serialised parts (threshold + keys).
    /// The interner and index are derived state and are rebuilt here; the
    /// index is built from the final keys, so it carries no refinement
    /// garbage.
    ///
    /// The parts come from a model file, so they are checked rather than
    /// trusted: every matcher indexes `keys` by `KeyId`, which is only
    /// sound when ids are dense and in order.
    fn from_parts(threshold: f64, keys: Vec<LogKey>) -> Result<SpellParser, DeError> {
        if threshold.is_nan() || threshold < 1.0 {
            return Err(DeError::msg(format!(
                "spell threshold {threshold} is below 1.0"
            )));
        }
        let mut p = SpellParser::new(threshold);
        for key in keys {
            if key.id.0 as usize != p.keys.len() {
                return Err(DeError::msg(format!(
                    "log key at position {} carries id {} (ids must be dense and in order)",
                    p.keys.len(),
                    key.id.0
                )));
            }
            let ids: Vec<TokenId> = key.tokens.iter().map(|t| p.interner.intern(t)).collect();
            p.index
                .insert_key(key.id.0, &ids, required_for(threshold, ids.len()));
            p.ikeys.push(ids);
            p.keys.push(key);
        }
        Ok(p)
    }
}

#[inline]
fn is_instance(key: &[TokenId], msg: &[TokenId]) -> bool {
    key.len() == msg.len() && key.iter().zip(msg).all(|(&k, &m)| k == STAR_ID || k == m)
}

/// Serialised form: threshold + keys only. The interner, interned key
/// mirror and match index are derived state, rebuilt on deserialisation —
/// this keeps the JSON format identical to the pre-index parser.
#[derive(Serialize, Deserialize)]
struct SpellParserState {
    threshold: f64,
    keys: Vec<LogKey>,
}

impl Serialize for SpellParser {
    fn serialize_content(&self) -> Content {
        SpellParserState {
            threshold: self.threshold,
            keys: self.keys.clone(),
        }
        .serialize_content()
    }
}

impl Deserialize for SpellParser {
    fn deserialize_content(content: &Content) -> Result<Self, DeError> {
        let state = SpellParserState::deserialize_content(content)?;
        SpellParser::from_parts(state.threshold, state.keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_keys_emerge() {
        // The three Fig. 1 message families each converge onto one key with
        // the right variable positions.
        let mut p = SpellParser::default();
        let a1 = p.parse_message("fetcher # 1 about to shuffle output of map attempt_01");
        let a2 = p.parse_message("fetcher # 2 about to shuffle output of map attempt_07");
        assert_eq!(a1.key_id, a2.key_id);
        assert!(a1.is_new_key && !a2.is_new_key);
        assert_eq!(
            p.key(a1.key_id).render(),
            "fetcher # * about to shuffle output of map *"
        );

        let b1 = p.parse_message("[fetcher # 1] read 2264 bytes from map-output for attempt_01");
        let b2 = p.parse_message("[fetcher # 3] read 999 bytes from map-output for attempt_02");
        assert_eq!(b1.key_id, b2.key_id);
        assert_eq!(
            p.key(b1.key_id).render(),
            "[ fetcher # * read * bytes from map-output for *"
        );

        let c1 = p.parse_message("host1:13562 freed by fetcher # 1 in 4ms");
        let c2 = p.parse_message("host9:13562 freed by fetcher # 2 in 18ms");
        assert_eq!(c1.key_id, c2.key_id);
        assert_eq!(p.key(c1.key_id).render(), "* freed by fetcher # * in *");
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn sample_is_first_message() {
        let mut p = SpellParser::default();
        let a = p.parse_message("Starting MapTask metrics system");
        p.parse_message("Stopping MapTask metrics system");
        assert_eq!(p.key(a.key_id).render(), "* MapTask metrics system");
        assert_eq!(
            p.key(a.key_id).render_sample(),
            "Starting MapTask metrics system"
        );
        assert_eq!(p.key(a.key_id).count, 2);
    }

    #[test]
    fn dissimilar_messages_found_new_keys() {
        let mut p = SpellParser::default();
        let a = p.parse_message("Registered BlockManager on host1");
        let b = p.parse_message("Removing block broadcast_0 from memory");
        assert_ne!(a.key_id, b.key_id);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn threshold_controls_merging() {
        // With a permissive threshold (2.0 → LCS ≥ n/2) these merge; with a
        // strict threshold (1.0 → exact) they do not.
        let m1 = "task 1 finished on host1 cleanly today";
        let m2 = "task 2 crashed on host2 cleanly today";
        let mut strict = SpellParser::new(1.0);
        let s1 = strict.parse_message(m1);
        let s2 = strict.parse_message(m2);
        assert_ne!(s1.key_id, s2.key_id);
        let mut loose = SpellParser::new(2.0);
        let l1 = loose.parse_message(m1);
        let l2 = loose.parse_message(m2);
        assert_eq!(l1.key_id, l2.key_id);
    }

    #[test]
    fn match_line_is_pure() {
        let mut p = SpellParser::default();
        p.parse_message("container launched on host1");
        let before = p.len();
        assert!(p.match_line("container launched on host9").is_some());
        assert!(p.match_line("utterly different words entirely").is_none());
        assert_eq!(p.len(), before);
    }

    #[test]
    fn different_lengths_never_match() {
        let mut p = SpellParser::default();
        let a = p.parse_message("task finished");
        let b = p.parse_message("task finished in 4 seconds");
        assert_ne!(a.key_id, b.key_id);
    }

    #[test]
    fn best_match_wins_over_first_match() {
        let mut p = SpellParser::new(1.7);
        p.parse_message("alpha beta gamma delta epsilon zeta eta");
        p.parse_message("alpha beta gamma delta epsilon yot eta");
        // second merged into first: key now has one star
        let probe = p
            .match_line("alpha beta gamma delta epsilon zeta eta")
            .unwrap();
        assert_eq!(probe, KeyId(0));
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn invalid_threshold_panics() {
        let _ = SpellParser::new(0.5);
    }

    #[test]
    fn higher_lcs_beats_earlier_key() {
        // Contract: the highest wildcard LCS wins, not the first key whose
        // positional count clears the threshold. key0 shares 4 of 6 tokens
        // with the probe, key1 shares 5 — key1 must win even though key0
        // was founded first and also clears the threshold.
        let mut p = SpellParser::new(1.7); // 6 tokens → LCS ≥ 4
        let k0 = p.parse_message("read block a1 from disk zero").key_id;
        let k1 = p.parse_message("read block a1 from disk one").key_id;
        // the two founding messages merged? they share 5 of 6 → merged.
        assert_eq!(k0, k1);
        let k2 = p.parse_message("send chunk a1 over wire zero").key_id;
        assert_ne!(k0, k2);
        // probe: LCS 4 with key0-family, exact with neither
        let probe = "read block a1 from cable zero";
        assert_eq!(p.match_line(probe), Some(k0));
        assert_eq!(match_linear(&p, probe), Some(k0));
    }

    #[test]
    fn ties_go_to_lowest_key_id() {
        // 6 tokens at t=1.7 → LCS ≥ 4. The two founding messages share only
        // "p q" (LCS 2 < 4) so they found distinct keys; the probe reaches
        // LCS exactly 4 with both — a genuine tie, resolved to the lowest id.
        let mut p = SpellParser::new(1.7);
        let a = p.parse_message("a b c d p q").key_id;
        let b = p.parse_message("w x y z p q").key_id;
        assert_ne!(a, b);
        let probe = "a b w x p q";
        assert_eq!(p.match_line(probe), Some(a));
        assert_eq!(match_linear(&p, probe), Some(a));
    }

    #[test]
    fn indexed_matches_linear_on_detection_probes() {
        // Train on message families, then probe with held-out variants
        // (unknown tokens included) and assert indexed == linear.
        let mut p = SpellParser::default();
        for host in 1..8 {
            for task in 1..6 {
                p.parse_message(&format!("starting task {task} on host{host} now"));
                p.parse_message(&format!("finished task {task} on host{host} ok"));
                p.parse_message(&format!(
                    "host{host}:13562 freed by fetcher # {task} in 4ms"
                ));
            }
        }
        let probes = [
            "starting task 99 on host42 now",
            "finished task 1 on host1 ok",
            "host77:13562 freed by fetcher # 9 in 18ms",
            "utterly unrelated words that match nothing at all",
            "starting task on host now extra",
        ];
        for probe in probes {
            assert_eq!(
                p.match_line(probe),
                match_linear(&p, probe),
                "divergence on {probe:?}"
            );
        }
    }

    #[test]
    fn serde_roundtrip_preserves_matching() {
        let mut p = SpellParser::default();
        for i in 0..20 {
            p.parse_message(&format!("starting task {i} on host{} now", i % 3));
            p.parse_message(&format!("block manager registered with {i} GB memory"));
        }
        let json = serde_json::to_string(&p).unwrap();
        let q: SpellParser = serde_json::from_str(&json).unwrap();
        assert_eq!(q.threshold(), p.threshold());
        assert_eq!(q.keys(), p.keys());
        for probe in [
            "starting task 99 on host7 now",
            "block manager registered with 9 GB memory",
            "no match here at all",
        ] {
            assert_eq!(q.match_line(probe), p.match_line(probe), "{probe}");
        }
        // serialised form is stable: re-serialising the round-tripped
        // parser is byte-identical
        assert_eq!(serde_json::to_string(&q).unwrap(), json);
    }

    #[test]
    fn out_of_order_key_ids_are_refused() {
        // `keys` is indexed by KeyId everywhere; a model file whose ids are
        // not dense and in order must fail to load, not panic later.
        let mut p = SpellParser::default();
        p.parse_message("starting task 1 on host1");
        p.parse_message("shutdown hook called");
        let json = serde_json::to_string(&p).unwrap();
        assert!(serde_json::from_str::<SpellParser>(&json).is_ok());
        let swapped = json.replacen("\"id\":0", "\"id\":1", 1);
        assert_ne!(swapped, json, "fixture must contain key id 0");
        assert!(serde_json::from_str::<SpellParser>(&swapped).is_err());
        let low = json.replacen("1.7", "0.5", 1);
        assert_ne!(low, json, "fixture must contain the threshold");
        assert!(serde_json::from_str::<SpellParser>(&low).is_err());
    }

    #[test]
    fn index_survives_heavy_refinement_rebuilds() {
        // Enough star-flips to trigger needs_rebuild() several times; the
        // indexed matcher must stay equivalent to the linear scan
        // throughout.
        let mut p = SpellParser::default();
        for i in 0..300 {
            let m = format!("phase {} item {} state {} done", i % 10, i, i % 7);
            p.parse_message(&m);
            assert_eq!(p.match_line(&m), match_linear(&p, &m));
        }
    }

    /// A parser loaded with `keys` (whitespace-separated tokens), the way
    /// a model file is.
    fn loaded(keys: &[&str]) -> SpellParser {
        let keys = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let tokens: Vec<String> = k.split_whitespace().map(String::from).collect();
                LogKey {
                    id: KeyId(i as u32),
                    sample: tokens.clone(),
                    tokens,
                    count: 1,
                }
            })
            .collect();
        SpellParser::from_parts(1.7, keys).expect("valid keys")
    }

    #[test]
    fn exact_instance_hits_lowest_key() {
        let p = loaded(&["a * c", "a b c", "x y z"]);
        // "a b c" instantiates both key 0 (via *) and key 1 — lowest wins.
        assert_eq!(p.match_line("a b c"), Some(KeyId(0)));
        assert_eq!(p.match_line("x y z"), Some(KeyId(2)));
        assert_eq!(p.match_line("a q c"), Some(KeyId(0)));
    }

    #[test]
    fn length_mismatch_is_a_miss_and_empty_key_matches_empty_message() {
        let p = loaded(&["a b c", ""]);
        assert_eq!(p.match_line("a b"), None);
        assert_eq!(p.match_line("a b c d"), None);
        assert_eq!(p.match_line(""), Some(KeyId(1)));
    }

    #[test]
    fn star_heavy_keys_stay_correct() {
        // Keys whose stars alone reach the threshold are scoring candidates
        // with no postings overlap at all. 4 tokens → LCS ≥ 3.
        let p = loaded(&["* * * end", "* * * fin", "a b c end"]);
        assert_eq!(p.match_line("q r s end"), Some(KeyId(0)));
        assert_eq!(p.match_line("q r s fin"), Some(KeyId(1)));
        // Unknown tokens throughout: the stars still carry key 0 over.
        assert_eq!(p.match_line("zz yy xx ww"), Some(KeyId(0)));
        assert_eq!(match_linear(&p, "zz yy xx ww"), Some(KeyId(0)));
    }

    #[test]
    fn stats_count_tree_nodes_and_rebuild_drops_garbage() {
        let p = loaded(&["a b c", "a b d", "p q"]);
        let s = p.automaton_stats().expect("index stats");
        assert_eq!((s.buckets, s.keys), (2, 3));
        // One tree per length: root, a, a b, a b c, a b d; root, p, p q.
        assert_eq!(s.states, 8);
        // Refining "a b c" to "a * c" adds the path a * c and keeps the old
        // one until the index is rebuilt.
        let mut t = p.clone();
        t.parse_message("a x c");
        assert_eq!(t.key(KeyId(0)).render(), "a * c");
        assert_eq!(t.automaton_stats().map(|s| s.states), Some(10));
        t.rebuild_index();
        // Root, a, a *, a * c, a b, a b d; root, p, p q.
        assert_eq!(t.automaton_stats().map(|s| s.states), Some(9));
    }

    /// The oracle over a raw message.
    fn match_linear(p: &SpellParser, message: &str) -> Option<KeyId> {
        let (mut spans, mut ids) = (Vec::new(), Vec::new());
        p.lookup_line_into(message, &mut spans, &mut ids);
        p.match_ids_linear(&ids)
    }
}
