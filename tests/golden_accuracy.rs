//! Golden-corpus regression tests.
//!
//! Small deterministic dlasim corpora (fixed seeds) are checked in under
//! `tests/golden/` together with the exact evaluation numbers the pipeline
//! produces on them: Table 4 extraction counts, Table 5 HW-graph shape and
//! a Table 8-style per-session detection score. Any change to the
//! simulator, the parser, the extractor, the graph builder or the detector
//! that shifts an observable result shows up here as a byte-level diff.
//!
//! To bless new numbers after an intentional change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_accuracy
//! ```
//!
//! and commit the rewritten files under `tests/golden/`.

use dlasim::{ForeignFormat, RawFormat, SystemKind};
use intellog_bench::{
    evaluate, score, table6_jobs, table6_row, AccuracyRow, IntelLogTool, JobScore, SemVecTool,
    SessionDetector,
};
use intellog_core::{sessions_from_job, sessions_from_text, training_jobs, IntelLog};
use intellog_serve::store::{crc32, ModelStore};
use lognlp::format::AdapterKind;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Jobs per system in the checked-in training corpus. Deliberately small:
/// the corpus lives in git and the tests run in the debug profile.
const TRAIN_JOBS: usize = 2;
/// Workload-generator seed for the training corpus.
const TRAIN_SEED: u64 = 11;
/// Seed for the Spark Table 6 evaluation corpus.
const EVAL_SEED: u64 = 202;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Compare `actual` against the checked-in golden file, or rewrite the file
/// when `GOLDEN_REGEN` is set.
fn golden_check(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(golden_dir())
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", golden_dir().display()));
        std::fs::write(&path, actual)
            .unwrap_or_else(|e| panic!("cannot write golden file {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with GOLDEN_REGEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected.as_str(),
        "output drifted from golden file {}; if the change is intentional \
         regenerate with GOLDEN_REGEN=1 and review the diff",
        path.display()
    );
}

fn system_slug(system: SystemKind) -> &'static str {
    match system {
        SystemKind::Spark => "spark",
        SystemKind::MapReduce => "mapreduce",
        SystemKind::Tez => "tez",
        SystemKind::TensorFlow => "tensorflow",
        other => panic!("no golden corpus for {}", other.name()),
    }
}

/// The foreign rendering each golden-gated system carries alongside its
/// native corpus: one per adapter, spread across systems so all three
/// foreign formats are drift-guarded without tripling every corpus.
fn foreign_of(system: SystemKind) -> ForeignFormat {
    match system {
        SystemKind::Spark => ForeignFormat::Syslog,
        SystemKind::MapReduce => ForeignFormat::Hdfs,
        SystemKind::Tez | SystemKind::TensorFlow => ForeignFormat::Json,
        other => panic!("no foreign corpus for {}", other.name()),
    }
}

/// Render the training corpus exactly as the raw log files a collector
/// would ship: one `# job` / `# session` header per unit, then the raw
/// formatted lines, in the system's native syntax or a `foreign` one (the
/// fixture shape `--format` ingests). This is the drift guard for the
/// simulator itself — if dlasim's generation or rendering changes for these
/// seeds, every downstream golden number is suspect.
fn render_corpus(system: SystemKind, foreign: Option<ForeignFormat>) -> String {
    let format = foreign.map_or(String::new(), |f| format!(" format={}", f.name()));
    let mut out = String::new();
    for (i, job) in training_jobs(system, TRAIN_JOBS, TRAIN_SEED)
        .iter()
        .enumerate()
    {
        writeln!(
            out,
            "# job {i} system={} workload={}{format}",
            system.name(),
            job.workload
        )
        .unwrap();
        for session in &job.sessions {
            writeln!(
                out,
                "# session {} host={} affected={}",
                session.id, session.host, session.affected
            )
            .unwrap();
            let lines = match foreign {
                Some(f) => f.render_session(session),
                None => session.raw_lines(RawFormat::for_system(system)),
            };
            for line in lines {
                out.push_str(&line);
                out.push('\n');
            }
        }
    }
    out
}

/// Stable text rendering of a Table 4 row (exact integer counts).
fn render_table4(row: &AccuracyRow) -> String {
    let mut out = String::new();
    writeln!(out, "system {}", row.system).unwrap();
    writeln!(out, "consumed {}", row.consumed).unwrap();
    writeln!(out, "keys {}", row.keys).unwrap();
    for (name, c) in [
        ("entities", &row.entities),
        ("identifiers", &row.identifiers),
        ("values", &row.values),
        ("localities", &row.localities),
    ] {
        writeln!(out, "{name} total={} fp={} fn={}", c.total, c.fp, c.fn_).unwrap();
    }
    writeln!(
        out,
        "operations total={} missed={}",
        row.operations_total, row.operations_missed
    )
    .unwrap();
    out
}

/// Stable text rendering of the Table 5 graph shape. Averages are exact
/// ratios of integers over the same corpus, so six decimals is stable.
fn render_table5(system: SystemKind) -> String {
    let jobs = training_jobs(system, TRAIN_JOBS, TRAIN_SEED);
    let sessions: Vec<_> = jobs.iter().flat_map(sessions_from_job).collect();
    let il = IntelLog::train(&sessions);
    let stats = &il.graph().stats;
    let mut out = String::new();
    writeln!(out, "system {}", system.name()).unwrap();
    writeln!(out, "avg_session_len {:.6}", stats.avg_session_len).unwrap();
    writeln!(out, "groups_all {}", stats.groups_all).unwrap();
    writeln!(out, "groups_critical {}", stats.groups_critical).unwrap();
    writeln!(out, "sub_len_max {}", stats.sub_len_max).unwrap();
    writeln!(out, "sub_len_avg_all {:.6}", stats.sub_len_avg_all).unwrap();
    writeln!(out, "sub_len_avg_crit {:.6}", stats.sub_len_avg_crit).unwrap();
    out
}

/// The model file `intellog train` would write for the golden corpus, as
/// its checksum and length. The benchmark compares `train` with
/// `train_sequential` of the same build, so a change that bends both alike
/// passes it; this pins the bytes across commits.
fn render_model_crc(system: SystemKind) -> String {
    let jobs = training_jobs(system, TRAIN_JOBS, TRAIN_SEED);
    let sessions: Vec<_> = jobs.iter().flat_map(sessions_from_job).collect();
    let detector = anomaly::Trainer::default().train(&sessions);
    let payload = serde_json::to_string(&detector).expect("a detector serialises");
    let bytes = ModelStore::encode(payload.as_bytes());
    format!("crc32 {:08x} len {}\n", crc32(&bytes), bytes.len())
}

/// Fit `tool` on the four-job clean corpus and score it on the Table 6
/// evaluation corpus: the two `session …` lines every accuracy golden
/// carries, and the per-job score.
fn fit_and_score(system: SystemKind, tool: &mut dyn SessionDetector) -> (String, JobScore) {
    tool.fit(system, &training_jobs(system, 4, TRAIN_SEED));
    let (c, jobs) = score(tool, &table6_jobs(system, EVAL_SEED));
    let (p, r, f) = c.prf();
    let lines = format!(
        "session tp={} fp={} fn={}\nsession precision={p:.6} recall={r:.6} f1={f:.6}\n",
        c.tp, c.fp, c.fn_
    );
    (lines, jobs)
}

/// Table 8-style detection pass (per-session and per-job scoring) for one
/// system. Spark and TensorFlow keep the debug-profile runtime
/// reasonable; the detector code paths are system-independent.
fn render_table8(system: SystemKind) -> String {
    let (sessions, found) = fit_and_score(system, &mut IntelLogTool::default());
    format!(
        "system {} train_jobs=4 seed={TRAIN_SEED} eval_seed={EVAL_SEED}\n{sessions}\
         job detected={} fp={} fn={} latent_found={} total_injected={}\n",
        system.name(),
        found.jobs.tp,
        found.jobs.fp,
        found.jobs.fn_,
        found.latent_found,
        found.jobs.tp + found.jobs.fn_
    )
}

/// Parsing-free baseline accuracy: SemVec consumes **raw rendered lines**
/// (headers included, no parser, no adapter), trains on the clean corpus
/// and is scored per session against ground truth on the Table 6 eval
/// corpus. `foreign` picks the corpus shape; `None` is the native syntax.
fn render_semvec_accuracy(system: SystemKind, foreign: Option<ForeignFormat>) -> String {
    let mut tool = SemVecTool {
        foreign,
        fitted: None,
    };
    let (sessions, _) = fit_and_score(system, &mut tool);
    let (_, detector) = tool.fitted.as_ref().expect("fitted above");
    format!(
        "system {} corpus={} train_jobs=4 seed={TRAIN_SEED} eval_seed={EVAL_SEED}\n\
         threshold {:.6}\n{sessions}",
        system.name(),
        foreign.map_or("native", |f| f.name()),
        detector.threshold()
    )
}

#[test]
fn corpus_matches_checked_in_logs() {
    for system in SystemKind::EVALUATED {
        golden_check(
            &format!("corpus_{}.log", system_slug(system)),
            &render_corpus(system, None),
        );
    }
}

#[test]
fn foreign_corpora_match_checked_in_logs() {
    for system in SystemKind::EVALUATED {
        let format = foreign_of(system);
        golden_check(
            &format!("corpus_{}_{}.log", system_slug(system), format.name()),
            &render_corpus(system, Some(format)),
        );
    }
}

#[test]
fn table4_extraction_counts_are_stable() {
    for system in SystemKind::EVALUATED {
        let jobs = training_jobs(system, TRAIN_JOBS, TRAIN_SEED);
        let row = evaluate(system, &jobs);
        golden_check(
            &format!("table4_{}.txt", system_slug(system)),
            &render_table4(&row),
        );
    }
}

#[test]
fn table5_graph_shape_is_stable() {
    for system in SystemKind::EVALUATED {
        golden_check(
            &format!("table5_{}.txt", system_slug(system)),
            &render_table5(system),
        );
    }
}

#[test]
fn model_bytes_are_stable() {
    for system in SystemKind::EVALUATED {
        golden_check(
            &format!("model_{}.crc", system_slug(system)),
            &render_model_crc(system),
        );
    }
}

/// Each Table 6 row `repro table6` prints at its default 20 training jobs.
#[test]
fn table6_rows_are_stable() {
    for system in SystemKind::ANALYTICS {
        let (row, _) = table6_row(system, 20);
        golden_check(
            &format!("table6_{}.txt", system_slug(system)),
            &format!("{row}\n"),
        );
    }
}

#[test]
fn table8_spark_detection_score_is_stable() {
    golden_check("table8_spark.txt", &render_table8(SystemKind::Spark));
}

#[test]
fn table8_tensorflow_detection_score_is_stable() {
    golden_check(
        "table8_tensorflow.txt",
        &render_table8(SystemKind::TensorFlow),
    );
}

/// Parsing-free baseline rows: two systems natively plus the noisy foreign
/// corpus (syslog-rendered Spark, headers and all) for the parsed-vs-
/// parsing-free comparison in EXPERIMENTS.md.
#[test]
fn semvec_accuracy_is_stable() {
    golden_check(
        "semvec_spark.txt",
        &render_semvec_accuracy(SystemKind::Spark, None),
    );
    golden_check(
        "semvec_tensorflow.txt",
        &render_semvec_accuracy(SystemKind::TensorFlow, None),
    );
    golden_check(
        "semvec_spark_syslog.txt",
        &render_semvec_accuracy(SystemKind::Spark, Some(ForeignFormat::Syslog)),
    );
}

/// Training on adapter-normalised sessions must land on exactly the model
/// the native path produces: the adapters hand Spell byte-identical
/// message bodies in identical order, so key and group structure cannot
/// differ. Stronger than a golden — the native goldens then cover the
/// adapted path too.
#[test]
fn adapted_training_is_equivalent_to_native() {
    for system in [SystemKind::Spark, SystemKind::TensorFlow] {
        let jobs = training_jobs(system, TRAIN_JOBS, TRAIN_SEED);
        let native: Vec<_> = jobs.iter().flat_map(sessions_from_job).collect();
        let il_native = IntelLog::train(&native);
        for format in AdapterKind::ALL {
            let adapted: Vec<_> = jobs
                .iter()
                .flat_map(|j| sessions_from_text(j, format))
                .collect();
            let il = IntelLog::train(&adapted);
            assert_eq!(
                il.detector().keys.len(),
                il_native.detector().keys.len(),
                "{system:?}/{format:?}: key count diverged from native"
            );
            assert_eq!(
                il.graph().groups.len(),
                il_native.graph().groups.len(),
                "{system:?}/{format:?}: group count diverged from native"
            );
        }
    }
}

/// The whole evaluation must be deterministic within one process too:
/// two back-to-back runs of generation + training + scoring are identical.
#[test]
fn evaluation_is_deterministic_in_process() {
    for system in SystemKind::EVALUATED {
        for foreign in [None, Some(foreign_of(system))] {
            assert_eq!(
                render_corpus(system, foreign),
                render_corpus(system, foreign),
                "corpus generation nondeterministic for {} ({foreign:?})",
                system.name()
            );
        }
        let a = evaluate(system, &training_jobs(system, TRAIN_JOBS, TRAIN_SEED));
        let b = evaluate(system, &training_jobs(system, TRAIN_JOBS, TRAIN_SEED));
        assert_eq!(a, b, "table 4 nondeterministic for {}", system.name());
        assert_eq!(
            render_table5(system),
            render_table5(system),
            "table 5 nondeterministic for {}",
            system.name()
        );
    }
    assert_eq!(
        render_semvec_accuracy(SystemKind::Spark, Some(ForeignFormat::Syslog)),
        render_semvec_accuracy(SystemKind::Spark, Some(ForeignFormat::Syslog)),
        "semvec scoring nondeterministic"
    );
}
