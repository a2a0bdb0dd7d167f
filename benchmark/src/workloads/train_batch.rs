//! `train_batch` — raw native-syntax log text → model bytes, the way
//! `intellog train` does it: `LogFormat::parse` per line, `Trainer::train`
//! on the default rayon pool, `ModelStore::encode`.
//!
//! Two corpora are trained back to back, because training cost depends on
//! whether the lines come as few long sessions (Spark) or many short ones
//! (MapReduce). This is the only workload where Spell's learning path,
//! Intel-Key extraction and `HwGraph::build` do the work; the frozen
//! automaton, the gateway and the shards do none.

use super::{
    insert_seconds, zero_queue_verdicts_ms, Layers, RepCost, RepSample, RunConfig, Tally, Workload,
};
use crate::corpus::{self, SessionText};
use crate::harness::stats::Window;
use crate::harness::trace::Recorder;
use anomaly::{Detector, Trainer};
use dlasim::SystemKind;
use extract::{IntelExtractor, IntelKey, IntelMessage};
use hwgraph::HwGraph;
use intellog_serve::ModelStore;
use spell::{KeyId, LogFormat, Session, SpellParser};
use std::collections::BTreeSet;

struct Corpus {
    format: LogFormat,
    files: Vec<SessionText>,
    lines: usize,
    /// Model bytes of the sequential reference trainer.
    reference: Vec<u8>,
}

pub struct TrainBatch {
    corpora: Vec<Corpus>,
    probe: Session,
}

/// Header-parse every file into a session, as `read_session` does.
fn ingest(corpus: &Corpus) -> Vec<Session> {
    corpus
        .files
        .iter()
        .map(|f| {
            let lines = f
                .text
                .lines()
                .filter_map(|l| corpus.format.parse(l))
                .collect();
            Session::new(f.id.as_str(), lines)
        })
        .collect()
}

fn line_count(sessions: &[Session]) -> u64 {
    sessions.iter().map(|s| s.len() as u64).sum()
}

fn encode(detector: &Detector) -> Vec<u8> {
    let payload = serde_json::to_string(detector).expect("a detector serialises");
    ModelStore::encode(payload.as_bytes())
}

/// `Trainer::train_sequential` rebuilt from the public calls it makes, one
/// span per stage. The caller asserts the model is byte-equal.
fn train_staged(sessions: &[Session], rec: &mut Recorder) -> Detector {
    type Parsed = (KeyId, Vec<String>, u64);
    let trainer = Trainer::default();
    let mut parser = SpellParser::new(trainer.spell_threshold);
    let parsed: Vec<Vec<Parsed>> = rec.span("spell.parse", |_| {
        let parsed = sessions
            .iter()
            .map(|s| {
                s.lines
                    .iter()
                    .map(|l| {
                        let out = parser.parse_message(&l.message);
                        (out.key_id, out.tokens, l.ts_ms)
                    })
                    .collect()
            })
            .collect();
        (parsed, line_count(sessions))
    });
    let (keys, ignored): (Vec<IntelKey>, BTreeSet<KeyId>) = rec.span("extract.build", |_| {
        let extractor = IntelExtractor::with_matcher(trainer.matcher.clone());
        let keys = parser.keys().iter().map(|k| extractor.build(k)).collect();
        let ignored = parser
            .keys()
            .iter()
            .filter(|k| !lognlp::is_natural_language(&k.render_sample()))
            .map(|k| k.id)
            .collect();
        ((keys, ignored), parser.len() as u64)
    });
    let messages: Vec<Vec<IntelMessage>> = rec.span("extract.instantiate", |_| {
        let mut count = 0;
        let messages = sessions
            .iter()
            .zip(&parsed)
            .map(|(session, lines)| {
                lines
                    .iter()
                    .filter(|(kid, _, _)| !ignored.contains(kid))
                    .map(|(kid, tokens, ts)| {
                        count += 1;
                        IntelMessage::instantiate(&keys[kid.0 as usize], tokens, &session.id, *ts)
                    })
                    .collect()
            })
            .collect();
        (messages, count)
    });
    let graph = rec.span("hwgraph.build", |_| {
        let graph_keys: Vec<IntelKey> = keys
            .iter()
            .filter(|k| !ignored.contains(&k.key_id))
            .cloned()
            .collect();
        let graph = HwGraph::build(&graph_keys, &messages);
        let groups = graph.groups.len() as u64;
        (graph, groups)
    });
    let detector = rec.span("spell.freeze", |_| {
        let detector = Detector::new(parser, keys, graph, ignored);
        let states = detector.parser.automaton_stats().map_or(0, |a| a.states);
        (detector, states as u64)
    });
    // the trainer frees its per-line tokens and messages before it returns
    rec.span("core.train_free", |_| {
        let freed = (parsed.len() + messages.len()) as u64;
        drop((parsed, messages));
        ((), freed)
    });
    detector
}

impl Workload for TrainBatch {
    fn set_up(cfg: &RunConfig, rec: &mut Recorder) -> TrainBatch {
        let plan = [
            (
                SystemKind::Spark,
                LogFormat::Spark,
                cfg.scale.train_spark_jobs,
            ),
            (
                SystemKind::MapReduce,
                LogFormat::Hadoop,
                cfg.scale.train_mapreduce_jobs,
            ),
        ];
        let corpora = plan
            .into_iter()
            .map(|(system, format, jobs)| {
                let jobs = rec.span("dlasim.generate", |_| {
                    (corpus::jobs(system, jobs, cfg.seed, false), jobs as u64)
                });
                Corpus {
                    format,
                    files: corpus::native_text(&jobs),
                    lines: corpus::total_lines(&jobs),
                    reference: Vec::new(),
                }
            })
            .collect();
        TrainBatch {
            corpora,
            probe: corpus::probe_session(SystemKind::Spark),
        }
    }

    fn reference(&mut self) {
        for corpus in &mut self.corpora {
            corpus.reference = encode(&Trainer::default().train_sequential(&ingest(corpus)));
        }
    }

    fn rep(&mut self, rec: &mut Recorder, tally: &mut Tally) -> RepSample {
        let window = Window::open();
        let trained: Vec<(u64, Detector, Vec<u8>)> = rec.span("rep", |rec| {
            let trained = self
                .corpora
                .iter()
                .map(|corpus| {
                    let sessions = rec.span("rep.ingest", |_| {
                        let sessions = ingest(corpus);
                        let lines = line_count(&sessions);
                        (sessions, lines)
                    });
                    let detector = rec.span("rep.train", |_| {
                        (Trainer::default().train(&sessions), sessions.len() as u64)
                    });
                    let bytes = rec.span("rep.encode", |_| {
                        let bytes = encode(&detector);
                        let len = bytes.len() as u64;
                        (bytes, len)
                    });
                    (line_count(&sessions), detector, bytes)
                })
                .collect();
            (trained, self.corpora.len() as u64)
        });
        let (wall_s, cpu_s) = window.close();

        let offered: u64 = self.corpora.iter().map(|c| c.lines as u64).sum();
        let parsed: u64 = trained.iter().map(|(n, _, _)| n).sum();
        tally.ops(offered, offered - parsed);
        for (corpus, (_, _, bytes)) in self.corpora.iter().zip(&trained) {
            tally.verify(*bytes == corpus.reference, || {
                "train_batch: model bytes differ from the sequential reference".into()
            });
        }
        RepSample {
            lines: parsed,
            wall_s,
            cpu_s,
            verdict_ms: zero_queue_verdicts_ms(&trained[0].1, &self.probe),
        }
    }

    fn layers(&mut self, rec: &mut Recorder, tally: &mut Tally, _: &RepCost, out: &mut Layers) {
        let mut model_bytes = 0;
        for corpus in &self.corpora {
            let sessions = rec.span("spell.header_parse", |_| {
                let sessions = ingest(corpus);
                let lines = line_count(&sessions);
                (sessions, lines)
            });
            rec.span("lognlp.tokenize", |_| {
                let mut spans = Vec::new();
                let mut tokens = 0;
                for line in sessions.iter().flat_map(|s| &s.lines) {
                    lognlp::tokenize_spans(&line.message, &mut spans);
                    tokens += spans.len() as u64;
                }
                ((), tokens)
            });
            let staged = rec.span("core.train_staged", |rec| {
                (train_staged(&sessions, rec), sessions.len() as u64)
            });
            let bytes = rec.span("serve.store_save", |_| (encode(&staged), 1));
            tally.verify(bytes == corpus.reference, || {
                "train_batch: the staged trainer's model differs from Trainer::train's".into()
            });
            model_bytes += bytes.len();
            let parallel = rec.span("anomaly.train", |_| {
                (Trainer::default().train(&sessions), sessions.len() as u64)
            });
            tally.verify(encode(&parallel) == corpus.reference, || {
                "train_batch: parallel and sequential trainers disagree".into()
            });
            rec.span("anomaly.train_sequential", |_| {
                let detector = Trainer::default().train_sequential(&sessions);
                (std::hint::black_box(detector), sessions.len() as u64)
            });
        }
        const STAGES: [&str; 6] = [
            "spell.parse",
            "extract.build",
            "extract.instantiate",
            "hwgraph.build",
            "spell.freeze",
            "core.train_free",
        ];
        insert_seconds(out, rec, &STAGES);
        insert_seconds(
            out,
            rec,
            &[
                "spell.header_parse",
                "lognlp.tokenize",
                "serve.store_save",
                "anomaly.train",
                "anomaly.train_sequential",
            ],
        );
        out.insert("spell.keys".into(), rec.count("extract.build") as f64);
        out.insert("hwgraph.groups".into(), rec.count("hwgraph.build") as f64);
        out.insert(
            "spell.automaton_states".into(),
            rec.count("spell.freeze") as f64,
        );
        out.insert("serve.model_bytes".into(), model_bytes as f64);
        let staged: f64 = STAGES.iter().map(|s| rec.seconds(s)).sum();
        let sequential = rec.seconds("anomaly.train_sequential");
        let residual = (staged - sequential).abs() / sequential;
        if residual > 0.10 {
            eprintln!("train_batch: staged stages miss the sequential trainer by {residual:.3}");
        }
        out.insert("core.train_residual_share".into(), residual);
    }
}
