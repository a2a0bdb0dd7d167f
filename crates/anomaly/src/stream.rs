//! Streaming (online) detection.
//!
//! The paper's detection stage "consumes incoming logs" (Fig. 2); this
//! module provides the online form of §4.2: *unexpected log messages* are
//! reported the moment they arrive, while the *erroneous HW-graph instance*
//! checks (critical keys, orders, mandatory groups, hierarchy) run when the
//! session closes — they are end-of-session properties by definition.
//!
//! The state of an in-flight session lives in [`StreamState`], which does
//! NOT borrow the model: every call takes the `&Detector` explicitly. That
//! split is what lets the serving layer move a live session between shard
//! threads (snapshot/restore during a drain) and pin each session to one
//! model version under hot reload — the state is an owned value, the model
//! an `Arc` the caller threads through.
//!
//! [`StreamState::feed_message`] is the only per-line detection loop body
//! in the crate ([`StreamState::feed`] hands it an owned line's timestamp
//! and message; the serving shards hand it spans of a line batch): offline
//! [`Detector::detect_session`] opens a state, feeds every line and
//! finishes it, so online == offline holds by construction.
//!
//! Of a matched line the state retains one row of its [`SessionLog`] — key
//! id, timestamp, identifier numbers — written straight from the line's
//! token spans: no token `String`, no [`IntelMessage`], and in the steady
//! state no allocation (`tests/stream_zero_alloc.rs`). Only an unexpected
//! message, which is reported with its strings, is instantiated.
//!
//! An unexpected line is extracted ad hoc (§4.2: "to aid diagnosis"): the POS
//! tagger and the dependency parser, ten times a matched line. A faulted job
//! repeats a few unknown templates, so the state memoises the extraction per
//! *shape* — the message with every ASCII digit folded to `0`, lengths kept.
//! Extraction looks at whether a character is a digit, never at which, so the
//! lines of a shape tokenise, tag and classify alike;
//! [`IntelKey::across_digits`] rewrites what does differ and refuses the
//! shapes it cannot vouch for, which are extracted anew each time. What a
//! session retains of unexpected lines is bounded by [`MAX_FULL_UNEXPECTED`]
//! and [`MAX_ADHOC_SHAPES`]; past them lines are counted and reported as
//! [`Anomaly::UnexpectedRepeats`].
//!
//! Correctness contract: all `feed` calls and the final `finish` for one
//! `StreamState` must use the *same* `Detector` — the logged rows carry key
//! ids that are only meaningful against the model they were matched with.
//! The serving layer guarantees this by storing the model `Arc` next to the
//! state.

use crate::detector::Detector;
use crate::instance::{GroupInstance, HwInstance};
use crate::report::{Anomaly, SessionReport};
use extract::{IntelExtractor, IntelKey, IntelMessage, SessionLog};
use spell::LogLine;
use std::collections::BTreeMap;

/// How many unexpected messages a session keeps and reports in full (bounds
/// an in-flight session's memory and its report); further ones are counted.
pub const MAX_FULL_UNEXPECTED: usize = 256;

/// How many shapes of unexpected line a session learns: bounds the memo and
/// the scan of it. A line of a further shape is extracted anew while lines
/// are kept in full, then counted, unextracted, under [`OTHER_TEMPLATE`].
pub const MAX_ADHOC_SHAPES: usize = 32;

/// The `template` of the count of lines of no learnt shape.
pub const OTHER_TEMPLATE: &str = "(other)";

/// One learnt shape of unexpected line.
struct AdhocShape {
    /// The founding message, every ASCII digit folded to `0`.
    shape: Box<[u8]>,
    /// Its ad hoc key [`IntelKey::across_digits`], `None` if that refused.
    key: Option<IntelKey>,
    /// The entity groups of the key's entities.
    groups: Vec<String>,
    /// An `UnexpectedRepeats` of its lines past [`MAX_FULL_UNEXPECTED`].
    repeats: Option<Anomaly>,
}

/// `shape` as a template: its tokens, `*` for those that carry a digit.
fn template_of(shape: &[u8]) -> String {
    let tokens = spell::tokenize_message(&String::from_utf8_lossy(shape));
    let tokens = tokens.iter().map(String::as_str);
    let starred = tokens.map(|t| if t.contains('0') { "*" } else { t });
    starred.collect::<Vec<_>>().join(" ")
}

/// Owned, movable state of one in-flight streaming session. See the module
/// docs for the one-detector-per-state contract.
pub struct StreamState {
    extractor: IntelExtractor,
    session_id: String,
    lines: usize,
    /// One row per matched, non-ignored line.
    log: SessionLog,
    online_anomalies: Vec<Anomaly>,
    /// Interned-id buffer reused across `feed` calls.
    ids: Vec<spell::TokenId>,
    /// Token-span buffer reused across `feed` calls (zero-copy tokenise).
    spans: Vec<spell::Span>,
    /// The memo of ad hoc extractions, in order of founding. Owned by the
    /// session: no lock, moves with the state, dies with it.
    shapes: Vec<AdhocShape>,
    /// Shape buffer reused across unexpected lines.
    folded: Vec<u8>,
    /// The lines past both caps, once there is one.
    other: Option<Anomaly>,
}

impl StreamState {
    /// Open a streaming session. The detector is not captured; pass the
    /// same one to every subsequent call.
    pub fn begin(session_id: impl Into<String>) -> StreamState {
        StreamState {
            extractor: IntelExtractor::new(),
            session_id: session_id.into(),
            lines: 0,
            log: SessionLog::default(),
            online_anomalies: Vec::new(),
            ids: Vec::new(),
            spans: Vec::new(),
            shapes: Vec::new(),
            folded: Vec::new(),
            other: None,
        }
    }

    // lint: ingest-hot(begin)

    /// Feed one log line. Returns the anomaly — kept in this state for the
    /// report — if no Intel Key matches: the message, or the count it joined.
    #[inline]
    pub fn feed(&mut self, detector: &Detector, line: &LogLine) -> Option<&Anomaly> {
        self.feed_message(detector, line.ts_ms, &line.message)
    }

    /// [`StreamState::feed`] over the two fields of a line detection
    /// reads — the borrowed door for callers (the serving shards) whose
    /// lines are spans of a shared buffer, not owned [`LogLine`]s.
    pub fn feed_message(
        &mut self,
        detector: &Detector,
        ts_ms: u64,
        message: &str,
    ) -> Option<&Anomaly> {
        self.lines += 1;
        // Zero-copy match: byte spans + interner lookups straight off the
        // line buffer, reusing this state's span/id buffers; a matched
        // line's row is written from the same spans.
        let parser = &detector.parser;
        parser.lookup_line_into(message, &mut self.spans, &mut self.ids);
        match parser.match_ids(&self.ids) {
            Some(kid) if detector.ignored_keys.contains(&kid) => None,
            Some(kid) => {
                let key = &detector.keys[kid.0 as usize];
                self.log.push_line(key, ts_ms, message, &self.spans);
                None
            }
            None => Some(self.unexpected(detector, ts_ms, message)),
        }
    }

    // lint: ingest-hot(end)

    /// The rare path of [`StreamState::feed_message`]: extract what the
    /// unknown line says — once per shape where that is sound — and keep it
    /// as an online anomaly, or count it once the session holds its fill.
    fn unexpected(&mut self, detector: &Detector, ts_ms: u64, message: &str) -> &Anomaly {
        let fold = |b: u8| if b.is_ascii_digit() { b'0' } else { b };
        self.folded.clear();
        self.folded.extend(message.bytes().map(fold));
        let mut slot = self.shapes.iter().position(|s| *s.shape == *self.folded);
        match slot.map(|i| self.shapes[i].key.is_some()) {
            Some(true) => obs::inc!("anomaly.adhoc.memo_hit"),
            Some(false) => obs::inc!("anomaly.adhoc.not_reusable"),
            None => obs::inc!("anomaly.adhoc.memo_miss"),
        }
        if slot.is_none() && self.shapes.len() < MAX_ADHOC_SHAPES {
            let adhoc = self.extractor.extract_adhoc(message);
            slot = Some(self.shapes.len());
            self.shapes.push(AdhocShape {
                shape: self.folded.as_slice().into(),
                groups: detector.groups_of_entities(&adhoc.entity_phrases()),
                key: adhoc.across_digits(),
                repeats: None,
            });
        }
        if self.online_anomalies.len() >= MAX_FULL_UNEXPECTED {
            return self.count_unexpected(slot, ts_ms);
        }
        let instantiate = |key: &IntelKey| {
            IntelMessage::instantiate_spans(key, message, &self.spans, &self.session_id, ts_ms)
        };
        let learnt = slot.map(|i| &self.shapes[i]);
        let (intel, groups) = match learnt.and_then(|s| Some((s.key.as_ref()?, &s.groups))) {
            Some((key, groups)) => (instantiate(key), groups.clone()),
            None => {
                let intel = instantiate(&self.extractor.extract_adhoc(message));
                let groups = detector.groups_of_entities(&intel.entities);
                (intel, groups)
            }
        };
        obs::inc!("anomaly.verdict.unexpected-message");
        obs::event!("anomaly.unexpected_message", "session" = self.session_id);
        self.online_anomalies.push(Anomaly::UnexpectedMessage {
            ts_ms,
            text: message.to_string(),
            intel,
            groups,
        });
        self.online_anomalies.last().expect("pushed just above")
    }

    /// Count a line the session no longer keeps, under its shape's template
    /// or, for a shape the memo had no room for, under [`OTHER_TEMPLATE`].
    fn count_unexpected(&mut self, slot: Option<usize>, ts_ms: u64) -> &Anomaly {
        obs::inc!("anomaly.unexpected_suppressed");
        let (repeats, founder) = match slot.map(|i| &mut self.shapes[i]) {
            Some(s) => (&mut s.repeats, Some((&s.shape, &s.groups))),
            None => (&mut self.other, None),
        };
        let counted = repeats.get_or_insert_with(|| Anomaly::UnexpectedRepeats {
            template: match founder {
                Some((shape, _)) => template_of(shape),
                None => OTHER_TEMPLATE.to_string(),
            },
            count: 0,
            first_ts_ms: ts_ms,
            last_ts_ms: ts_ms,
            groups: founder.map_or_else(Vec::new, |(_, groups)| groups.clone()),
        });
        if let Anomaly::UnexpectedRepeats {
            count, last_ts_ms, ..
        } = counted
        {
            *count += 1;
            *last_ts_ms = ts_ms;
        }
        counted
    }

    /// Number of lines consumed so far.
    pub fn lines_seen(&self) -> usize {
        self.lines
    }

    /// The session this stream belongs to.
    pub fn session_id(&self) -> &str {
        &self.session_id
    }

    /// Online (unexpected-message) anomalies kept in full so far.
    pub fn online_anomaly_count(&self) -> usize {
        self.online_anomalies.len()
    }

    /// Close the session: run the end-of-session structural checks and
    /// return the full report (online anomalies included). Builds no
    /// HW-graph instance: of the subroutine instances' identifier strings
    /// only those a reported anomaly quotes are rendered.
    pub fn finish(self, detector: &Detector) -> SessionReport {
        self.close(detector, None)
    }

    /// [`StreamState::finish`], also returning the reconstructed HW-graph
    /// instance (paper §4.2; the case studies inspect instances directly).
    pub fn finish_detailed(self, detector: &Detector) -> (SessionReport, HwInstance) {
        let mut groups = BTreeMap::new();
        let report = self.close(detector, Some(&mut groups));
        let instance = HwInstance {
            session: report.session.clone(),
            groups,
        };
        (report, instance)
    }

    fn close(
        self,
        detector: &Detector,
        instance: Option<&mut BTreeMap<usize, GroupInstance>>,
    ) -> SessionReport {
        obs::inc!("anomaly.sessions_checked");
        let mut anomalies = self.online_anomalies;
        let counted = self.shapes.into_iter().filter_map(|s| s.repeats);
        anomalies.extend(counted.chain(self.other));
        let mut report = SessionReport {
            session: self.session_id,
            lines: self.lines,
            anomalies,
        };
        detector.structural_checks(&self.log, &mut report, instance);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::Trainer;
    use spell::{Level, LogLine, Session};

    fn line(ts: u64, msg: &str) -> LogLine {
        LogLine {
            ts_ms: ts,
            level: Level::Info,
            source: "X".into(),
            message: msg.into(),
        }
    }

    fn trained() -> Detector {
        let mk = |id: &str, host: &str, k: u32| {
            Session::new(
                id,
                vec![
                    line(0, &format!("Registering block manager endpoint on {host}")),
                    line(10, &format!("Starting task {k} in stage 0")),
                    line(
                        20,
                        &format!("Finished task {k} in stage 0 and sent 9 bytes to driver"),
                    ),
                    line(30, "Shutdown hook called"),
                ],
            )
        };
        Trainer::default().train(&[
            mk("c0", "host1", 1),
            mk("c1", "host2", 2),
            mk("c2", "host1", 3),
        ])
    }

    #[test]
    fn unexpected_message_surfaces_immediately() {
        let d = trained();
        let mut s = StreamState::begin("c9");
        assert!(s
            .feed(&d, &line(0, "Registering block manager endpoint on host1"))
            .is_none());
        let a = s.feed(&d, &line(5, "spill 1 written to /tmp/x.out"));
        assert!(matches!(a, Some(Anomaly::UnexpectedMessage { .. })));
        assert_eq!(s.lines_seen(), 2);
    }

    #[test]
    fn streaming_equals_batch_detection() {
        let d = trained();
        let session = Session::new(
            "c9",
            vec![
                line(0, "Registering block manager endpoint on host1"),
                line(5, "spill 1 written to /tmp/x.out"),
                line(10, "Starting task 9 in stage 0"),
                // task never finishes → missing critical key at close
                line(30, "Shutdown hook called"),
            ],
        );
        let batch = d.detect_session(&session);
        let mut s = StreamState::begin("c9");
        for l in &session.lines {
            s.feed(&d, l);
        }
        let streamed = s.finish(&d);
        assert_eq!(batch.lines, streamed.lines);
        assert_eq!(
            batch.anomalies.len(),
            streamed.anomalies.len(),
            "\nbatch: {:?}\nstream: {:?}",
            batch.anomalies,
            streamed.anomalies
        );
        assert!(streamed
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::MissingCriticalKey { .. })));
    }

    #[test]
    fn clean_stream_has_clean_close() {
        let d = trained();
        let mut s = StreamState::begin("c9");
        for l in [
            line(0, "Registering block manager endpoint on host1"),
            line(10, "Starting task 5 in stage 0"),
            line(20, "Finished task 5 in stage 0 and sent 9 bytes to driver"),
            line(30, "Shutdown hook called"),
        ] {
            assert!(s.feed(&d, &l).is_none());
        }
        let report = s.finish(&d);
        assert!(!report.is_problematic(), "{:?}", report.anomalies);
    }

    /// A `StreamState` moved mid-session (the snapshot/restore path) must
    /// produce the same report as one that never moved.
    #[test]
    fn moved_state_matches_unmoved_state() {
        let d = trained();
        let lines = [
            line(0, "Registering block manager endpoint on host1"),
            line(5, "spill 1 written to /tmp/x.out"),
            line(10, "Starting task 9 in stage 0"),
            line(30, "Shutdown hook called"),
        ];
        let mut stay = StreamState::begin("c9");
        for l in &lines {
            stay.feed(&d, l);
        }
        let mut moved = StreamState::begin("c9");
        for l in &lines[..2] {
            moved.feed(&d, l);
        }
        // simulate a shard-to-shard handoff: the state crosses threads by
        // value, so it must be Send and survive the move intact
        fn handoff<T: Send>(t: T) -> T {
            t
        }
        let mut moved = handoff(moved);
        for l in &lines[2..] {
            moved.feed(&d, l);
        }
        assert_eq!(moved.lines_seen(), stay.lines_seen());
        assert_eq!(moved.finish(&d), stay.finish(&d));
    }
}
