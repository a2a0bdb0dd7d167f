//! `detect_batch` — a JSON-lines Spark corpus (13-digit epoch-ms), every
//! second job fault-injected across all five fault kinds → `ModelStore::load`
//! → `JsonAdapter::parse_record` and the owned-`LogLine` bridge (what
//! `read_session` does) → `IntelLog::detect_job` → one `SessionReport` JSON
//! line per session.
//!
//! It uses `lognlp` and `spell` the other way round from `train_batch`: a
//! borrowed adapter and the frozen read-only automaton instead of an owned
//! native parse and the learning path. `IntelMessage::instantiate`,
//! `extract_adhoc` on unexpected messages and the structural checks do most
//! of the work, so a matcher or format change that helps one batch workload
//! and costs the other shows here.

use super::{
    insert_seconds, model, zero_queue_verdicts_ms, Layers, RepCost, RepSample, RunConfig, Tally,
    Workload,
};
use crate::corpus::{self, SessionText};
use crate::harness::stats::{self, Window};
use crate::harness::trace::Recorder;
use anomaly::SessionReport;
use dlasim::SystemKind;
use extract::{IntelExtractor, IntelMessage};
use intellog_core::{level_of_raw, IntelLog};
use intellog_serve::ModelStore;
use lognlp::format::{AdapterKind, RawRecord};
use spell::{LogLine, Session};
use std::ops::Range;
use std::path::PathBuf;

pub struct DetectBatch {
    model_path: PathBuf,
    files: Vec<SessionText>,
    lines: usize,
    /// The same corpus bridged natively, for the reference.
    bridged: Vec<Session>,
    /// Per fault-injected job, the indices of its sessions.
    faulted: Vec<Range<usize>>,
    reference: Vec<SessionReport>,
    probe: Session,
}

fn own(record: &RawRecord) -> LogLine {
    LogLine {
        ts_ms: record.ts_ms,
        level: level_of_raw(record.level),
        source: record.source.to_string(),
        message: record.message.to_string(),
    }
}

fn ingest(files: &[SessionText]) -> Vec<Session> {
    let adapter = AdapterKind::Json.adapter();
    files
        .iter()
        .map(|f| {
            let lines = f
                .text
                .lines()
                .filter_map(|l| adapter.parse_record(l).ok().map(|r| own(&r)))
                .collect();
            Session::new(f.id.as_str(), lines)
        })
        .collect()
}

fn report_lines(reports: &[SessionReport]) -> String {
    let mut out = String::new();
    for report in reports {
        out.push_str(&serde_json::to_string(report).expect("a report serialises"));
        out.push('\n');
    }
    out
}

impl Workload for DetectBatch {
    fn set_up(cfg: &RunConfig, rec: &mut Recorder) -> DetectBatch {
        let model_path = model::train(SystemKind::Spark, cfg, "detect_batch");
        let mut jobs = rec.span("dlasim.generate", |_| {
            let seed = cfg.seed.wrapping_add(1);
            let jobs = corpus::jobs(SystemKind::Spark, cfg.scale.detect_jobs, seed, true);
            (jobs, cfg.scale.detect_jobs as u64)
        });
        corpus::shift_to_epoch(&mut jobs);
        let mut faulted = Vec::new();
        let mut first = 0;
        for job in &jobs {
            let sessions = first..first + job.sessions.len();
            first = sessions.end;
            if job.injected.is_some() {
                faulted.push(sessions);
            }
        }
        DetectBatch {
            model_path,
            files: corpus::json_text(&jobs),
            lines: corpus::total_lines(&jobs),
            bridged: corpus::bridged_sessions(&jobs),
            faulted,
            reference: Vec::new(),
            probe: corpus::probe_session(SystemKind::Spark),
        }
    }

    fn reference(&mut self) {
        let detector = ModelStore::load(&self.model_path).expect("load the model");
        self.reference = IntelLog::from_detector(detector)
            .detect_job_sequential(&self.bridged)
            .sessions;
    }

    fn rep(&mut self, rec: &mut Recorder, tally: &mut Tally) -> RepSample {
        let window = Window::open();
        let (parsed, il, reports, json) = rec.span("rep", |rec| {
            let detector = rec.span("rep.load", |_| {
                (
                    ModelStore::load(&self.model_path).expect("load the model"),
                    1,
                )
            });
            let sessions = rec.span("rep.ingest", |_| {
                let sessions = ingest(&self.files);
                let lines: u64 = sessions.iter().map(|s| s.len() as u64).sum();
                (sessions, lines)
            });
            let il = IntelLog::from_detector(detector);
            let report = rec.span("rep.detect", |_| {
                (il.detect_job(&sessions), sessions.len() as u64)
            });
            let json = rec.span("rep.report", |_| {
                (report_lines(&report.sessions), report.sessions.len() as u64)
            });
            let parsed: u64 = sessions.iter().map(|s| s.len() as u64).sum();
            ((parsed, il, report.sessions, json), 1)
        });
        let (wall_s, cpu_s) = window.close();

        tally.ops(self.lines as u64, self.lines as u64 - parsed);
        tally.verify(json.lines().count() == self.reference.len(), || {
            "detect_batch: not one report line per session".into()
        });
        for (i, expected) in self.reference.iter().enumerate() {
            tally.verify(reports.get(i) == Some(expected), || {
                format!(
                    "detect_batch: session {} differs from sequential detection over the \
                     natively bridged sessions",
                    expected.session
                )
            });
        }
        for job in &self.faulted {
            let flagged = reports[job.clone()].iter().any(|r| r.is_problematic());
            tally.verify(flagged, || {
                format!(
                    "detect_batch: fault-injected job of {} has no problematic session",
                    reports[job.start].session
                )
            });
        }
        RepSample {
            lines: parsed,
            wall_s,
            cpu_s,
            verdict_ms: zero_queue_verdicts_ms(il.detector(), &self.probe),
        }
    }

    fn layers(&mut self, rec: &mut Recorder, _: &mut Tally, _: &RepCost, out: &mut Layers) {
        let detector = rec.span("serve.store_load", |_| {
            (
                ModelStore::load(&self.model_path).expect("load the model"),
                1,
            )
        });
        let adapter = AdapterKind::Json.adapter();
        let records: Vec<Vec<RawRecord>> = rec.span("lognlp.adapter_parse", |_| {
            let records: Vec<Vec<RawRecord>> = self
                .files
                .iter()
                .map(|f| {
                    f.text
                        .lines()
                        .filter_map(|l| adapter.parse_record(l).ok())
                        .collect()
                })
                .collect();
            let lines = records.iter().map(|r| r.len() as u64).sum();
            (records, lines)
        });
        let sessions: Vec<Session> = rec.span("core.bridge", |_| {
            let sessions = self
                .files
                .iter()
                .zip(&records)
                .map(|(f, records)| Session::new(f.id.as_str(), records.iter().map(own).collect()))
                .collect();
            (sessions, self.lines as u64)
        });

        let lines = || {
            sessions
                .iter()
                .flat_map(|s| s.lines.iter().map(move |l| (s, l)))
        };
        let keys = rec.span("spell.match", |_| {
            let keys: Vec<_> = lines()
                .map(|(_, l)| detector.parser.match_line(&l.message))
                .collect();
            let hits = keys.iter().flatten().count() as u64;
            (keys, hits)
        });
        let matched: Vec<_> = lines()
            .zip(&keys)
            .filter_map(|((s, l), key)| {
                let key = key.filter(|k| !detector.ignored_keys.contains(k))?;
                Some((key, spell::tokenize_message(&l.message), s, l.ts_ms))
            })
            .collect();
        rec.span("extract.instantiate", |_| {
            for (key, tokens, session, ts) in &matched {
                let key = &detector.keys[key.0 as usize];
                std::hint::black_box(IntelMessage::instantiate(key, tokens, &session.id, *ts));
            }
            ((), matched.len() as u64)
        });
        rec.span("extract.adhoc", |_| {
            let extractor = IntelExtractor::new();
            let mut calls = 0;
            for ((_, l), _) in lines().zip(&keys).filter(|(_, key)| key.is_none()) {
                std::hint::black_box(extractor.extract_adhoc(&l.message));
                calls += 1;
            }
            ((), calls)
        });

        let il = IntelLog::from_detector(detector);
        rec.span("anomaly.detect", |_| {
            (
                std::hint::black_box(il.detect_job(&sessions)),
                sessions.len() as u64,
            )
        });
        let reports: Vec<SessionReport> = rec.span("anomaly.detect_sequential", |rec| {
            let reports = sessions
                .iter()
                .map(|s| {
                    rec.span("anomaly.detect_session", |_| {
                        (il.detect_session(s), s.len() as u64)
                    })
                })
                .collect();
            (reports, sessions.len() as u64)
        });
        rec.span("anomaly.report_json", |_| {
            (
                std::hint::black_box(report_lines(&reports)),
                reports.len() as u64,
            )
        });

        insert_seconds(
            out,
            rec,
            &[
                "serve.store_load",
                "lognlp.adapter_parse",
                "core.bridge",
                "spell.match",
                "extract.instantiate",
                "extract.adhoc",
                "anomaly.detect",
                "anomaly.detect_sequential",
                "anomaly.report_json",
            ],
        );
        out.insert(
            "spell.match_hit_share".into(),
            rec.count("spell.match") as f64 / self.lines.max(1) as f64,
        );
        out.insert(
            "extract.adhoc_calls".into(),
            rec.count("extract.adhoc") as f64,
        );
        out.insert(
            "anomaly.structural_s".into(),
            rec.seconds("anomaly.detect_sequential")
                - rec.seconds("spell.match")
                - rec.seconds("extract.instantiate")
                - rec.seconds("extract.adhoc"),
        );
        let per_session = stats::ascending(&rec.durations_us("anomaly.detect_session"));
        out.insert(
            "anomaly.session_p50_us".into(),
            stats::quantile(&per_session, 0.5),
        );
        out.insert(
            "anomaly.session_p99_us".into(),
            stats::quantile(
                &per_session,
                stats::supported_tail(per_session.len()).min(0.99),
            ),
        );
        out.insert(
            "anomaly.problematic_sessions".into(),
            reports.iter().filter(|r| r.is_problematic()).count() as f64,
        );
    }
}
