//! Training: from raw log sessions to a ready [`crate::Detector`].
//!
//! The training phase (paper Fig. 2, stages 1–3) runs Spell over all
//! sessions, builds Intel Keys, filters out non-natural-language keys into
//! the ignored list (paper §5), logs each session's matched lines
//! ([`SessionLog`], the compact form of its Intel Messages) and trains the
//! HW-graph.
//!
//! # Parallelism
//!
//! [`Trainer::train`] runs its two **ordered** stages on
//! [`sync::par_map_ordered`], its only parallel primitive: a helper computes
//! each item's state-free half ahead while the calling thread consumes in
//! input order — and, whenever its next item is not ready, computes one
//! itself instead of waiting.
//!
//! * **The Spell stream** — each message may refine the key the next one
//!   matches, so lines are matched one by one in corpus order
//!   ([`SpellParser::parse_prepared`]). Tokenising and hashing a line reads
//!   no parser state ([`SpellParser::prepare`]), so batches of whole
//!   sessions are prepared ahead.
//! * **The HW-graph's merge** ([`hwgraph::GraphBuilder::absorb`]) — profiles
//!   cluster and BEFORE pairs break in session order. A session's log and
//!   its share ([`hwgraph::SessionPart`]: rows routed to groups, lifespans,
//!   Algorithm 2's split into subroutine instances) read only the session,
//!   its line keys and the plan's key → groups map, so each session is
//!   logged and split ahead and its part, log included, is absorbed in
//!   order. An absorbed part is refilled with a later session, not
//!   dropped, so no part's arrays are freed across threads while the map
//!   runs. No stage holds every session's log.
//!
//! Intel-Key extraction, one pass over the keys, is a plain loop.
//! What runs ahead is bounded by `SPLIT_WINDOW_ROWS` lines, never the
//! whole corpus. [`Trainer::train_sequential`] is the reference: the same
//! stages as plain loops on one thread, the same two Spell halves line by
//! line; tests assert `train` produces a byte-identical detector.

use crate::detector::Detector;
use extract::{IntelExtractor, IntelKey, LocalityMatcher, SessionLog};
use hwgraph::{GraphBuilder, HwGraph, SessionPart};
use spell::{KeyId, Session, Span, SpellParser};
use std::collections::BTreeSet;
use sync::{par_map_ordered, Mutex};

/// Configurable trainer for the IntelLog pipeline.
#[derive(Debug, Clone)]
pub struct Trainer {
    /// Spell matching threshold `t` (paper default 1.7).
    pub spell_threshold: f64,
    /// The locality matcher. It carries no setting (detection always
    /// extracts with the built-in patterns); the field is kept because the
    /// benchmark package names it.
    pub matcher: LocalityMatcher,
}

impl Default for Trainer {
    fn default() -> Trainer {
        Trainer {
            spell_threshold: 1.7,
            matcher: LocalityMatcher::new(),
        }
    }
}

/// How far [`Trainer::train`] may run ahead of an ordered stage, in lines:
/// Spell lines prepared and not yet matched, or sessions logged and split
/// and not yet absorbed. What runs ahead is memory, and more of it than its
/// bytes: it is allocated on one thread and freed on another. Splitting
/// the whole corpus first read `peak_rss_mb` 34–38 MiB on `train_batch`
/// against 30–32, and writing every log first 28.6 against 24.9
/// (EXPERIMENTS.md, "Training reads a line the way detection does" and "One
/// ordered pass per training session"). 2,048, 4,096 and 16,384 read within
/// the noise of each other in `lines_per_s` (EXPERIMENTS.md, "Training's
/// ordered stages run ahead"). A session longer than the window runs alone.
const SPLIT_WINDOW_ROWS: usize = 4096;

/// The Spell stream hands sessions to its helper in batches of at least
/// this many lines, so one hand-off is cheap beside the batch's tokenising.
/// Handing over one session per item instead, with the same window and
/// weights, cost `Trainer::train` more process CPU per call in 7 of 8
/// alternating pairs, in each of two sets (medians +8.4 % and +8.2 %), and
/// more wall time in 7 and 8 of 8 (+9.4 %, +10.1 %): 10 Spark + 15
/// MapReduce training jobs, 2 vCPUs (EXPERIMENTS.md, "The Spell stream's
/// batch").
const STREAM_BATCH_LINES: usize = 512;

/// Consecutive sessions cut into batches of at least
/// [`STREAM_BATCH_LINES`] lines (the last may hold fewer).
fn stream_batches(sessions: &[Session]) -> Vec<&[Session]> {
    let mut batches = Vec::new();
    let mut rest = sessions;
    while !rest.is_empty() {
        let mut lines = 0;
        let full = rest.iter().position(|s| {
            lines += s.len();
            lines >= STREAM_BATCH_LINES
        });
        let (batch, later) = rest.split_at(full.map_or(rest.len(), |i| i + 1));
        batches.push(batch);
        rest = later;
    }
    batches
}

/// A batch's lines prepared for Spell ([`SpellParser::prepare`]): every
/// line's spans and token hashes, end to end.
struct PreparedBatch {
    spans: Vec<Span>,
    hashes: Vec<u64>,
    /// Where each line's tokens end.
    ends: Vec<usize>,
}

// lint: ingest-hot(begin)

impl PreparedBatch {
    fn new(sessions: &[Session]) -> PreparedBatch {
        let lines = sessions.iter().flat_map(|s| &s.lines);
        // lint: allow(alloc) — per batch; the line buffers serve every line.
        let (mut spans, mut hashes) = (Vec::new(), Vec::new());
        let mut batch = PreparedBatch {
            spans: Vec::new(),
            hashes: Vec::new(),
            ends: Vec::with_capacity(lines.clone().count()),
        };
        for line in lines {
            SpellParser::prepare(&line.message, &mut spans, &mut hashes);
            batch.spans.extend_from_slice(&spans);
            batch.hashes.extend_from_slice(&hashes);
            batch.ends.push(batch.spans.len());
        }
        batch
    }

    /// Each line's spans and hashes, in order.
    fn lines(&self) -> impl Iterator<Item = (&[Span], &[u64])> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(from, &to)| (&self.spans[from..to], &self.hashes[from..to]))
    }
}

// lint: ingest-hot(end)

/// The keys the HW-graph is built over. Ignored keys contribute neither
/// entities nor lifespans to it (paper §5: they are captured by pattern
/// matching only).
fn graph_keys(keys: &[IntelKey], ignored_keys: &BTreeSet<KeyId>) -> Vec<IntelKey> {
    let kept = keys.iter().filter(|k| !ignored_keys.contains(&k.key_id));
    kept.cloned().collect()
}

/// Stage 3 for one session: the log of its lines, ignored keys skipped.
fn log_session(
    session: &Session,
    line_keys: &[KeyId],
    keys: &[IntelKey],
    ignored_keys: &BTreeSet<KeyId>,
) -> SessionLog {
    let mut log = SessionLog::default();
    log_into(&mut log, session, line_keys, keys, ignored_keys);
    log
}

/// [`log_session`] into an empty `log`. `line_keys` holds the Spell key of
/// each line; the identifiers are read off the line's re-tokenised spans at
/// the key's final field positions.
fn log_into(
    log: &mut SessionLog,
    session: &Session,
    line_keys: &[KeyId],
    keys: &[IntelKey],
    ignored_keys: &BTreeSet<KeyId>,
) {
    let mut spans = Vec::new();
    for (line, kid) in session.lines.iter().zip(line_keys) {
        if ignored_keys.contains(kid) {
            continue;
        }
        lognlp::tokenize_spans(&line.message, &mut spans);
        log.push_line(&keys[kid.0 as usize], line.ts_ms, &line.message, &spans);
    }
}

impl Trainer {
    /// Train on normal-execution sessions and return a detector.
    ///
    /// Runs on every available CPU and produces a detector bit-identical to
    /// [`Trainer::train_sequential`].
    pub fn train(&self, sessions: &[Session]) -> Detector {
        let _span = obs::span!("anomaly.train");
        obs::add!("anomaly.train.sessions", sessions.len() as u64);
        let (parser, parsed) = self.spell_stream_ahead(sessions);
        let (keys, ignored_keys) = self.key_stage(&parser);

        // Stage 3: each session logged and split ahead, merged in order.
        let mut graph = GraphBuilder::plan(&graph_keys(&keys, &ignored_keys));
        let key_groups = graph.key_groups().clone();
        // Absorbed parts go back to be refilled: no part's arrays are freed
        // while the map runs. Freed on this thread while the helper built
        // the next ones, they made the helper wait in the allocator
        // (EXPERIMENTS.md "The session close works in numbers").
        let spent = Mutex::new(Vec::new());
        par_map_ordered(
            &parsed,
            SPLIT_WINDOW_ROWS,
            |(session, _)| session.len(),
            |(session, line_keys)| {
                let spare = spent.lock().pop();
                let mut part: SessionPart = spare.unwrap_or_default();
                part.refill(&key_groups, |log| {
                    log_into(log, session, line_keys, &keys, &ignored_keys)
                });
                part
            },
            |mut part| {
                graph.absorb(&mut part);
                spent.lock().push(part);
            },
        );
        Detector::new(parser, keys, graph.finish(), ignored_keys)
    }

    /// Reference sequential trainer: one thread, plain loops.
    /// [`Trainer::train`] must produce a bit-identical detector; scaling
    /// benchmarks use this as their single-thread baseline.
    pub fn train_sequential(&self, sessions: &[Session]) -> Detector {
        let _span = obs::span!("anomaly.train");
        obs::add!("anomaly.train.sessions", sessions.len() as u64);
        let (parser, parsed) = self.spell_stream(sessions);
        let (keys, ignored_keys) = self.key_stage(&parser);

        // Stage 3: each session logged, then absorbed into the HW-graph.
        let logs = parsed
            .iter()
            .map(|(session, line_keys)| log_session(session, line_keys, &keys, &ignored_keys));
        let graph = HwGraph::build_from_logs(&graph_keys(&keys, &ignored_keys), logs);
        Detector::new(parser, keys, graph, ignored_keys)
    }

    /// Stage 2: the Intel Key of every Spell key, in key order, and the
    /// ignored list (non-NL keys, §5).
    fn key_stage(&self, parser: &SpellParser) -> (Vec<IntelKey>, BTreeSet<KeyId>) {
        let extractor = IntelExtractor::with_matcher(self.matcher.clone());
        let mut ignored_keys = BTreeSet::new();
        let keys = parser.keys().iter().map(|key| {
            if !lognlp::is_natural_language(&key.render_sample()) {
                ignored_keys.insert(key.id);
            }
            extractor.build(key)
        });
        (keys.collect(), ignored_keys)
    }

    // lint: ingest-hot(begin)

    /// Stage 1 of [`Trainer::train_sequential`]: Spell over the ordered
    /// message stream, each line prepared and then parsed — one set of line
    /// buffers for the whole corpus, no string built for a line that changes
    /// no key — remembering each session with its lines' keys (the line
    /// itself keeps its text and timestamp, so nothing else is held per
    /// line).
    fn spell_stream<'s>(
        &self,
        sessions: &'s [Session],
    ) -> (SpellParser, Vec<(&'s Session, Vec<KeyId>)>) {
        let mut parser = SpellParser::new(self.spell_threshold);
        // lint: allow(alloc) — one set of line buffers per corpus.
        let (mut spans, mut hashes, mut ids) = (Vec::new(), Vec::new(), Vec::new());
        let parsed = sessions
            .iter()
            .map(|session| {
                let lines = session.lines.iter();
                let keys = lines.map(|line| {
                    SpellParser::prepare(&line.message, &mut spans, &mut hashes);
                    let parse = parser.parse_prepared(&line.message, &spans, &hashes, &mut ids);
                    parse.0
                });
                (session, keys.collect())
            })
            .collect();
        (parser, parsed)
    }

    /// Stage 1 of [`Trainer::train`]: [`Trainer::spell_stream`] with the
    /// lines prepared a window ahead, a batch of sessions at a time, on the
    /// ordered map's helper.
    fn spell_stream_ahead<'s>(
        &self,
        sessions: &'s [Session],
    ) -> (SpellParser, Vec<(&'s Session, Vec<KeyId>)>) {
        let mut parser = SpellParser::new(self.spell_threshold);
        // lint: allow(alloc) — once per corpus.
        let mut parsed = Vec::with_capacity(sessions.len());
        let mut ids = Vec::new();
        par_map_ordered(
            &stream_batches(sessions),
            SPLIT_WINDOW_ROWS,
            |batch| batch.iter().map(Session::len).sum(),
            |batch| (*batch, PreparedBatch::new(batch)),
            |(batch, prepared)| {
                let mut prepared = prepared.lines();
                for session in batch {
                    let lines = session
                        .lines
                        .iter()
                        .zip(prepared.by_ref().take(session.len()));
                    let keys = lines.map(|(line, (spans, hashes))| {
                        parser
                            .parse_prepared(&line.message, spans, hashes, &mut ids)
                            .0
                    });
                    parsed.push((session, keys.collect()));
                }
            },
        );
        (parser, parsed)
    }

    // lint: ingest-hot(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spell::{Level, LogLine};

    fn line(ts: u64, msg: &str) -> LogLine {
        LogLine {
            ts_ms: ts,
            level: Level::Info,
            source: "X".into(),
            message: msg.into(),
        }
    }

    #[test]
    fn non_nl_keys_are_ignored() {
        let sessions = vec![Session::new(
            "c0",
            vec![
                line(0, "Starting task 1 in stage 0"),
                line(10, "memory=1024 vcores=4 disk=2"),
                line(20, "Finished task 1 in stage 0 and sent 4 bytes to driver"),
            ],
        )];
        let d = Trainer::default().train(&sessions);
        assert_eq!(d.ignored_keys.len(), 1, "{:?}", d.ignored_keys);
        // the key-value dump key is excluded from every group
        for ik in &d.ignored_keys {
            assert!(d.graph.groups_of_key(*ik).is_empty());
        }
    }

    #[test]
    fn trainer_produces_usable_detector() {
        let sessions = vec![
            Session::new(
                "c0",
                vec![
                    line(0, "Registering block manager endpoint on host1"),
                    line(10, "Starting task 1 in stage 0"),
                    line(20, "Finished task 1 in stage 0 and sent 9 bytes to driver"),
                    line(30, "Shutdown hook called"),
                ],
            ),
            Session::new(
                "c1",
                vec![
                    line(0, "Registering block manager endpoint on host2"),
                    line(10, "Starting task 2 in stage 0"),
                    line(20, "Finished task 2 in stage 0 and sent 7 bytes to driver"),
                    line(30, "Shutdown hook called"),
                ],
            ),
        ];
        let d = Trainer::default().train(&sessions);
        assert!(!d.keys.is_empty());
        assert!(!d.graph.groups.is_empty());
        // detection over a training session is clean
        let r = d.detect_session(&sessions[0]);
        assert!(!r.is_problematic(), "{:?}", r.anomalies);
    }

    #[test]
    fn custom_spell_threshold_respected() {
        let t = Trainer {
            spell_threshold: 1.0,
            ..Default::default()
        };
        let d = t.train(&[Session::new("c0", vec![line(0, "a b c"), line(1, "a b d")])]);
        assert_eq!(d.parser.threshold(), 1.0);
        assert_eq!(d.parser.len(), 2); // exact matching: two keys
    }

    #[test]
    fn parallel_training_equals_sequential() {
        // Enough sessions and message variety that the key set keeps
        // evolving (refinements mid-stream). The two detectors must
        // serialise identically.
        let mut sessions = Vec::new();
        for c in 0..12 {
            let mut lines = vec![
                line(
                    0,
                    &format!("Registering block manager endpoint on host{}", c % 4),
                ),
                line(
                    5,
                    &format!("block manager registered with {} GB memory", c + 1),
                ),
            ];
            for t in 0..8 {
                lines.push(line(
                    10 + t,
                    &format!("Starting task {t} in stage {}", c % 2),
                ));
                lines.push(line(
                    40 + t,
                    &format!(
                        "Finished task {t} in stage {} and sent {} bytes to driver",
                        c % 2,
                        t * 13
                    ),
                ));
            }
            lines.push(line(90, "Stopped block manager cleanly"));
            lines.push(line(95, "Shutdown hook called"));
            sessions.push(Session::new(format!("c{c}"), lines));
        }
        let trainer = Trainer::default();
        let par = trainer.train(&sessions);
        let seq = trainer.train_sequential(&sessions);
        assert_eq!(
            serde_json::to_string(&par).unwrap(),
            serde_json::to_string(&seq).unwrap()
        );
        // and they report identically on a held-out anomalous session
        let mut bad = sessions[0].clone();
        bad.lines.truncate(6);
        let rp = par.detect_session(&bad);
        let rs = seq.detect_session(&bad);
        assert_eq!(
            serde_json::to_string(&rp).unwrap(),
            serde_json::to_string(&rs).unwrap()
        );
    }
}
