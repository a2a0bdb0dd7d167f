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
//! Spell is an order-dependent stream — each message may refine the key the
//! next one matches — so stage 1 is one sequential pass in both trainers.
//! [`Trainer::train`] then runs through [`sync::par_map`] every stage that
//! is
//!
//! * **pure per key** — Intel-Key extraction through the POS tagger and
//!   the natural-language check, one pass over the keys;
//! * **pure per session** — writing the session's log, and the HW-graph's
//!   share of it ([`hwgraph::GraphBuilder::part`]: rows routed to groups,
//!   lifespans, Algorithm 2's split into subroutine instances).
//!
//! What stays **ordered** is the HW-graph's merge
//! ([`hwgraph::GraphBuilder::absorb`]): profiles cluster and BEFORE pairs
//! break in session order, so parts are absorbed one by one on the calling
//! thread. Parts are computed a bounded window of sessions ahead of the
//! merge ([`SPLIT_WINDOW_ROWS`]), never for the whole corpus at once.
//! [`Trainer::train_sequential`] is the reference: the same stages as plain
//! loops; tests assert `train` produces a byte-identical detector.
//!
//! The maps pay: on 2 vCPUs, `train_batch` read 8–10 % fewer lines per
//! second with training all sequential, or with either per-session map
//! made sequential (EXPERIMENTS.md, "Training keeps its parallel maps").

use crate::detector::Detector;
use extract::{IntelExtractor, IntelKey, LocalityMatcher, SessionLog};
use hwgraph::{GraphBuilder, HwGraph};
use spell::{KeyId, LogKey, Session, SpellParser};
use std::collections::BTreeSet;
use sync::par_map;

/// Configurable trainer for the IntelLog pipeline.
#[derive(Debug, Clone)]
pub struct Trainer {
    /// Spell matching threshold `t` (paper default 1.7).
    pub spell_threshold: f64,
    /// Locality matcher (user-extensible patterns).
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

/// How many session-log rows [`Trainer::train`] splits into subroutine
/// instances ahead of the ordered merge. Parts in flight are memory, and
/// more of it than their bytes: they are allocated on worker threads and
/// freed on this one, which costs the allocator about twice their size in
/// each thread's arena. Splitting the whole corpus first read `peak_rss_mb`
/// 34–38 MiB on `train_batch` where the parent commit read 30–32; this
/// window — ≈ 11 Spark or ≈ 110 MapReduce sessions, one fork-join per
/// ≈ 1 ms of splitting — read 29.7–30.0, 512 rows 28.8–31.1 at 12 % fewer
/// lines/s, 16,384 rows 30.7–31.6 at 2 % more (EXPERIMENTS.md, "Training
/// reads a line the way detection does"; measured on the persistent pool
/// the executor had until PR 25). A session longer than the window is a
/// window of its own.
const SPLIT_WINDOW_ROWS: usize = 4096;

/// How many of `logs` (not empty) the next window takes.
fn split_window(logs: &[SessionLog]) -> usize {
    let mut rows = 0;
    let fits = |log: &&SessionLog| {
        rows += log.len();
        rows <= SPLIT_WINDOW_ROWS
    };
    logs.iter().take_while(fits).count().max(1)
}

/// Stage 2 for one Spell key: its Intel Key, and its id if it goes to the
/// ignored list (non-NL keys, §5).
fn key_stage(extractor: &IntelExtractor, key: &LogKey) -> (IntelKey, Option<KeyId>) {
    let ignored = !lognlp::is_natural_language(&key.render_sample());
    (extractor.build(key), ignored.then_some(key.id))
}

/// The Intel Keys in key order, and the ignored list.
fn split_key_stage(
    stage: impl IntoIterator<Item = (IntelKey, Option<KeyId>)>,
) -> (Vec<IntelKey>, BTreeSet<KeyId>) {
    let mut ignored_keys = BTreeSet::new();
    let keys = stage.into_iter().map(|(key, ignored)| {
        ignored_keys.extend(ignored);
        key
    });
    (keys.collect(), ignored_keys)
}

/// The keys the HW-graph is built over. Ignored keys contribute neither
/// entities nor lifespans to it (paper §5: they are captured by pattern
/// matching only).
fn graph_keys(keys: &[IntelKey], ignored_keys: &BTreeSet<KeyId>) -> Vec<IntelKey> {
    let kept = keys.iter().filter(|k| !ignored_keys.contains(&k.key_id));
    kept.cloned().collect()
}

/// Stage 3 for one session: the log of its lines, ignored keys skipped.
/// `line_keys` holds the Spell key of each line; the identifiers are read
/// off the line's re-tokenised spans at the key's final field positions.
fn log_session(
    session: &Session,
    line_keys: &[KeyId],
    keys: &[IntelKey],
    ignored_keys: &BTreeSet<KeyId>,
) -> SessionLog {
    let mut log = SessionLog::default();
    let mut spans = Vec::new();
    for (line, kid) in session.lines.iter().zip(line_keys) {
        if ignored_keys.contains(kid) {
            continue;
        }
        lognlp::tokenize_spans(&line.message, &mut spans);
        log.push_line(&keys[kid.0 as usize], line.ts_ms, &line.message, &spans);
    }
    log
}

impl Trainer {
    /// Train on normal-execution sessions and return a detector.
    ///
    /// Runs on every available CPU and produces a detector bit-identical to
    /// [`Trainer::train_sequential`].
    pub fn train(&self, sessions: &[Session]) -> Detector {
        let _span = obs::span!("anomaly.train");
        obs::add!("anomaly.train.sessions", sessions.len() as u64);
        let (parser, parsed) = self.spell_stream(sessions);

        // Stage 2: Intel Keys and the ignored list (parallel, pure per key).
        let extractor = IntelExtractor::with_matcher(self.matcher.clone());
        let (keys, ignored_keys) =
            split_key_stage(par_map(parser.keys(), |k| key_stage(&extractor, k)));

        // Stage 3: session logs (parallel, pure per session) → HW-graph,
        // each window's sessions split in parallel and merged in order.
        let work: Vec<(&Session, &Vec<KeyId>)> = sessions.iter().zip(&parsed).collect();
        let logs = par_map(&work, |(session, line_keys)| {
            log_session(session, line_keys, &keys, &ignored_keys)
        });
        let mut graph = GraphBuilder::plan(&graph_keys(&keys, &ignored_keys));
        let mut rest = &logs[..];
        while !rest.is_empty() {
            let (window, later) = rest.split_at(split_window(rest));
            let parts = par_map(window, |log| graph.part(log));
            parts.into_iter().for_each(|part| graph.absorb(part));
            rest = later;
        }
        Detector::new(parser, keys, graph.finish(), ignored_keys)
    }

    /// Reference sequential trainer: one thread, plain loops.
    /// [`Trainer::train`] must produce a bit-identical detector; scaling
    /// benchmarks use this as their single-thread baseline.
    pub fn train_sequential(&self, sessions: &[Session]) -> Detector {
        let _span = obs::span!("anomaly.train");
        obs::add!("anomaly.train.sessions", sessions.len() as u64);
        let (parser, parsed) = self.spell_stream(sessions);

        // Stage 2: Intel Keys and the ignored list.
        let extractor = IntelExtractor::with_matcher(self.matcher.clone());
        let (keys, ignored_keys) =
            split_key_stage(parser.keys().iter().map(|k| key_stage(&extractor, k)));

        // Stage 3: session logs → HW-graph.
        let logs: Vec<SessionLog> = sessions
            .iter()
            .zip(&parsed)
            .map(|(session, line_keys)| log_session(session, line_keys, &keys, &ignored_keys))
            .collect();
        let graph = HwGraph::build_from_logs(&graph_keys(&keys, &ignored_keys), &logs);
        Detector::new(parser, keys, graph, ignored_keys)
    }

    /// Stage 1 of both trainers: Spell over the ordered message stream
    /// through the id-level door — one pair of line buffers for the whole
    /// corpus, no string built for a line that changes no key —
    /// remembering each line's key (the line itself keeps its text and
    /// timestamp, so nothing else is held per line).
    fn spell_stream(&self, sessions: &[Session]) -> (SpellParser, Vec<Vec<KeyId>>) {
        let mut parser = SpellParser::new(self.spell_threshold);
        let (mut spans, mut ids) = (Vec::new(), Vec::new());
        let parsed = sessions
            .iter()
            .map(|session| {
                let lines = session.lines.iter();
                lines
                    .map(|line| parser.parse_spans(&line.message, &mut spans, &mut ids).0)
                    .collect()
            })
            .collect();
        (parser, parsed)
    }
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
