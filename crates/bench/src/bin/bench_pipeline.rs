//! Benchmark regression harness: times every pipeline stage and emits a
//! machine-readable `BENCH_pipeline.json`.
//!
//! Stages and metrics (all throughputs in units/second, medians of
//! `--reps` repetitions):
//!
//! * `spell.parse_msgs_per_s` — streaming Spell (`parse_message`, the call
//!   the trainer makes) over a MapReduce corpus;
//! * `spell.match_indexed_msgs_per_s` / `spell.match_linear_msgs_per_s` —
//!   frozen `match_ids` vs the `match_ids_linear` oracle over pre-interned
//!   probes against a ≥1k-key set, plus their ratio `spell.index_speedup`
//!   (regression bar: ≥3×);
//! * `extraction.keys_per_s` — Intel-Key construction (POS tagging +
//!   n-grams) per log key;
//! * `hwgraph.sessions_per_s` — full training (Spell + extraction + graph);
//! * `detection.sequential_sessions_per_s` and
//!   `detection.threads{1,2,4,8}_sessions_per_s` — per-session detection,
//!   genuinely sequential baseline vs rayon pools;
//! * `training.sequential_sessions_per_s` and
//!   `training.threads{N}_sessions_per_s` — parallel training scaling;
//! * `end_to_end.{sequential,parallel}_s` — train + detect wall-clock on
//!   the Table 6-style corpus, plus `end_to_end.speedup_vs_sequential`;
//! * `adapters[]` — per `lognlp::format` adapter (Hadoop, Spark, HDFS
//!   header, RFC-3164 syslog, JSON lines): raw-line ingest throughput
//!   (adapter header parse + streaming Spell, the `train --format` verb)
//!   over the same message bodies in each syntax.
//!
//! Usage: `cargo run --release -p intellog-bench --bin bench_pipeline --
//! [--smoke] [--out PATH] [--reps N]`. `--smoke` shrinks the corpora so CI
//! can validate the emitter in seconds; its numbers are not meaningful.

use dlasim::SystemKind;
use intellog_bench::{intern_probes, synthetic_keyset, training_jobs, training_sessions};
use intellog_core::{render_session, IntelLog};
use lognlp::format::AdapterKind;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct SpellStats {
    corpus_msgs: usize,
    parse_msgs_per_s: f64,
    keyset_size: usize,
    probe_msgs: usize,
    /// Frozen-parser matching: the compiled key automaton (the production
    /// read path). The name predates the automaton — kept stable for
    /// downstream tooling.
    match_indexed_msgs_per_s: f64,
    match_linear_msgs_per_s: f64,
    index_speedup: f64,
    automaton_states: usize,
    automaton_dense_buckets: usize,
    automaton_buckets: usize,
}

/// One `lognlp::format` adapter's raw-line ingest throughput: the whole
/// `train --format` ingestion verb — strip the header, then stream the
/// message body through Spell parsing — over the same sessions rendered in
/// that adapter's syntax.
#[derive(Serialize)]
struct AdapterStats {
    name: String,
    lines: usize,
    adapted_msgs_per_s: f64,
}

#[derive(Serialize)]
struct ExtractionStats {
    keys: usize,
    keys_per_s: f64,
}

#[derive(Serialize)]
struct HwGraphStats {
    sessions: usize,
    sessions_per_s: f64,
}

#[derive(Serialize)]
struct ScalingStats {
    sessions: usize,
    sequential_sessions_per_s: f64,
    threads1_sessions_per_s: f64,
    threads2_sessions_per_s: f64,
    threads4_sessions_per_s: f64,
    threads8_sessions_per_s: f64,
}

#[derive(Serialize)]
struct EndToEndStats {
    train_sessions: usize,
    eval_sessions: usize,
    sequential_s: f64,
    parallel_s: f64,
    /// parallel vs sequential — pure thread scaling.
    speedup_vs_sequential: f64,
}

#[derive(Serialize)]
struct ObservabilityStats {
    /// End-to-end train+detect with the obs layer compiled in but disabled
    /// (the default state — this is the `end_to_end.parallel_s` run).
    disabled_s: f64,
    /// Same workload with the obs layer enabled and recording.
    enabled_s: f64,
    /// (enabled − disabled) / disabled × 100. Regression bar: ≤ 5%.
    overhead_pct: f64,
}

/// Per-stage registry dump from one enabled end-to-end pass: every counter
/// and gauge value, plus count / total time / p99 for each span histogram.
#[derive(Serialize)]
struct StageBreakdown {
    counters: std::collections::BTreeMap<String, u64>,
    span_count: std::collections::BTreeMap<String, u64>,
    span_total_us: std::collections::BTreeMap<String, u64>,
    span_p99_us: std::collections::BTreeMap<String, u64>,
}

#[derive(Serialize)]
struct BenchReport {
    smoke: bool,
    reps: usize,
    spell: SpellStats,
    adapters: Vec<AdapterStats>,
    extraction: ExtractionStats,
    hwgraph: HwGraphStats,
    detection: ScalingStats,
    training: ScalingStats,
    end_to_end: EndToEndStats,
    observability: ObservabilityStats,
    stage_breakdown: StageBreakdown,
}

/// Median wall-clock seconds of `reps` runs of `f`.
fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = "BENCH_pipeline.json".to_string();
    let mut reps: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out_path = it.next().cloned().unwrap_or_else(|| {
                    eprintln!("bench_pipeline: --out requires a path");
                    std::process::exit(2);
                })
            }
            "--reps" => {
                reps = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("bench_pipeline: --reps requires a positive integer");
                    std::process::exit(2);
                }))
            }
            other => {
                eprintln!(
                    "bench_pipeline: unknown argument {other}\n\
                     usage: bench_pipeline [--smoke] [--out PATH] [--reps N]"
                );
                std::process::exit(2);
            }
        }
    }
    let reps = reps.unwrap_or(if smoke { 1 } else { 5 });

    // corpora: shrink everything drastically under --smoke
    let (spell_jobs, keyset, probes, train_jobs, eval_jobs) = if smoke {
        (1, 1000, 500, 1, 1)
    } else {
        (4, 1200, 4000, 8, 6)
    };

    eprintln!("bench_pipeline: smoke={smoke} reps={reps}");

    // --- spell: streaming parse ------------------------------------------
    let sessions = training_sessions(SystemKind::MapReduce, spell_jobs, 1);
    let messages: Vec<String> = sessions
        .iter()
        .flat_map(|s| s.lines.iter().map(|l| l.message.clone()))
        .collect();
    let parse_s = time_median(reps, || {
        let mut p = spell::SpellParser::default();
        for m in &messages {
            p.parse_message(m);
        }
        p.len()
    });

    // --- spell: indexed vs linear matching at >=1k keys ------------------
    let (mut parser, probe_msgs) = synthetic_keyset(keyset, probes);
    assert!(
        parser.len() >= keyset,
        "keyset under-filled: {}",
        parser.len()
    );
    // Freeze: compiles the key set into the prefix-DFA automaton, the
    // production read-path configuration (detection, replay, serving).
    parser.freeze();
    let auto_stats = parser.automaton_stats().expect("frozen parser");
    let probe_ids = intern_probes(&parser, &probe_msgs);
    // Equivalence before timing: the automaton, the live prefix-tree +
    // inverted index (a thawed clone), and the linear-scan reference must
    // agree on every probe — a wrong matcher's throughput is meaningless.
    let mut thawed = parser.clone();
    thawed.thaw();
    for ids in &probe_ids {
        let auto = parser.match_ids(ids);
        assert_eq!(auto, thawed.match_ids(ids));
        assert_eq!(auto, parser.match_ids_linear(ids));
    }
    let indexed_s = time_median(reps, || {
        probe_ids
            .iter()
            .filter(|ids| parser.match_ids(ids).is_some())
            .count()
    });
    let linear_s = time_median(reps.min(3), || {
        probe_ids
            .iter()
            .filter(|ids| parser.match_ids_linear(ids).is_some())
            .count()
    });
    let spell_stats = SpellStats {
        corpus_msgs: messages.len(),
        parse_msgs_per_s: messages.len() as f64 / parse_s,
        keyset_size: parser.len(),
        probe_msgs: probe_msgs.len(),
        match_indexed_msgs_per_s: probe_msgs.len() as f64 / indexed_s,
        match_linear_msgs_per_s: probe_msgs.len() as f64 / linear_s,
        index_speedup: linear_s / indexed_s,
        automaton_states: auto_stats.states,
        automaton_dense_buckets: auto_stats.dense_buckets,
        automaton_buckets: auto_stats.buckets,
    };
    eprintln!(
        "spell: parse {:.0} msgs/s, match automaton {:.0} vs linear {:.0} msgs/s ({:.1}x)",
        spell_stats.parse_msgs_per_s,
        spell_stats.match_indexed_msgs_per_s,
        spell_stats.match_linear_msgs_per_s,
        spell_stats.index_speedup
    );

    // --- format adapters: raw-line ingest per syntax ------------------------
    // Render the same jobs the Spell corpus came from in each line syntax
    // and run the whole ingest verb — header parse, then streaming Spell
    // over the (identical) message bodies.
    let adapter_jobs = training_jobs(SystemKind::MapReduce, spell_jobs, 1);
    let mut adapters: Vec<AdapterStats> = Vec::new();
    for kind in AdapterKind::ALL {
        let adapter = kind.adapter();
        let lines: Vec<String> = adapter_jobs
            .iter()
            .flat_map(|j| j.sessions.iter().flat_map(|s| render_session(kind, s)))
            .collect();
        assert_eq!(lines.len(), messages.len());
        for l in &lines {
            adapter
                .parse_record(l)
                .unwrap_or_else(|e| panic!("{}: rejected own rendering {l:?}: {e}", kind.name()));
        }
        let adapted_s = time_median(reps, || {
            let mut p = spell::SpellParser::default();
            for line in &lines {
                let rec = adapter.parse_record(line).expect("validated above");
                p.parse_message(rec.message);
            }
            p.len()
        });
        let stat = AdapterStats {
            name: kind.name().to_string(),
            lines: lines.len(),
            adapted_msgs_per_s: lines.len() as f64 / adapted_s,
        };
        eprintln!(
            "adapter {}: {:.0} msgs/s",
            stat.name, stat.adapted_msgs_per_s
        );
        adapters.push(stat);
    }

    // --- extraction -------------------------------------------------------
    let mut key_parser = spell::SpellParser::default();
    for m in &messages {
        key_parser.parse_message(m);
    }
    let keys = key_parser.keys().to_vec();
    let extract_s = time_median(reps, || {
        let ex = extract::IntelExtractor::new();
        keys.iter()
            .map(|k| ex.build(k).entities.len())
            .sum::<usize>()
    });
    let extraction = ExtractionStats {
        keys: keys.len(),
        keys_per_s: keys.len() as f64 / extract_s,
    };
    eprintln!(
        "extraction: {:.0} keys/s over {} keys",
        extraction.keys_per_s, extraction.keys
    );

    // --- hwgraph build (full training) ------------------------------------
    let train = training_sessions(SystemKind::MapReduce, train_jobs, 4);
    let hw_s = time_median(reps, || IntelLog::train(&train).graph().groups.len());
    let hwgraph = HwGraphStats {
        sessions: train.len(),
        sessions_per_s: train.len() as f64 / hw_s,
    };
    eprintln!(
        "hwgraph: {:.1} sessions/s over {} sessions",
        hwgraph.sessions_per_s, hwgraph.sessions
    );

    // --- detection scaling -------------------------------------------------
    let il = IntelLog::train(&train);
    let eval = training_sessions(SystemKind::MapReduce, eval_jobs, 99);
    let seq_report = il.detect_job_sequential(&eval);
    assert_eq!(
        pool(1).install(|| il.detect_job(&eval)),
        seq_report,
        "1-thread parallel detection must equal the sequential baseline"
    );
    let det_seq = time_median(reps, || il.detect_job_sequential(&eval).problematic_count());
    let det_at = |threads: usize| {
        let p = pool(threads);
        time_median(reps, || {
            p.install(|| il.detect_job(&eval).problematic_count())
        })
    };
    let detection = ScalingStats {
        sessions: eval.len(),
        sequential_sessions_per_s: eval.len() as f64 / det_seq,
        threads1_sessions_per_s: eval.len() as f64 / det_at(1),
        threads2_sessions_per_s: eval.len() as f64 / det_at(2),
        threads4_sessions_per_s: eval.len() as f64 / det_at(4),
        threads8_sessions_per_s: eval.len() as f64 / det_at(8),
    };
    eprintln!(
        "detection: seq {:.1}, 1t {:.1}, 2t {:.1}, 4t {:.1}, 8t {:.1} sessions/s",
        detection.sequential_sessions_per_s,
        detection.threads1_sessions_per_s,
        detection.threads2_sessions_per_s,
        detection.threads4_sessions_per_s,
        detection.threads8_sessions_per_s
    );

    // --- training scaling ---------------------------------------------------
    let tr_seq = time_median(reps, || {
        IntelLog::train_sequential(&train).graph().groups.len()
    });
    let tr_at = |threads: usize| {
        let p = pool(threads);
        time_median(reps, || {
            p.install(|| IntelLog::train(&train).graph().groups.len())
        })
    };
    let training = ScalingStats {
        sessions: train.len(),
        sequential_sessions_per_s: train.len() as f64 / tr_seq,
        threads1_sessions_per_s: train.len() as f64 / tr_at(1),
        threads2_sessions_per_s: train.len() as f64 / tr_at(2),
        threads4_sessions_per_s: train.len() as f64 / tr_at(4),
        threads8_sessions_per_s: train.len() as f64 / tr_at(8),
    };
    eprintln!(
        "training: seq {:.1}, 1t {:.1}, 2t {:.1}, 4t {:.1}, 8t {:.1} sessions/s",
        training.sequential_sessions_per_s,
        training.threads1_sessions_per_s,
        training.threads2_sessions_per_s,
        training.threads4_sessions_per_s,
        training.threads8_sessions_per_s
    );

    // --- end-to-end train + detect -----------------------------------------
    let e2e_seq = time_median(reps, || {
        let il = IntelLog::train_sequential(&train);
        il.detect_job_sequential(&eval).problematic_count()
    });
    let e2e_par = time_median(reps, || {
        let il = IntelLog::train(&train);
        il.detect_job(&eval).problematic_count()
    });
    let end_to_end = EndToEndStats {
        train_sessions: train.len(),
        eval_sessions: eval.len(),
        sequential_s: e2e_seq,
        parallel_s: e2e_par,
        speedup_vs_sequential: e2e_seq / e2e_par,
    };
    eprintln!(
        "end-to-end: sequential {:.2}s, parallel {:.2}s ({:.2}x)",
        end_to_end.sequential_s, end_to_end.parallel_s, end_to_end.speedup_vs_sequential
    );

    // --- observability overhead + per-stage breakdown -----------------------
    // `e2e_par` above ran with the obs layer compiled in but disabled — that
    // is the baseline. Now the same workload with recording on.
    obs::reset();
    obs::enable();
    let e2e_obs = time_median(reps, || {
        let il = IntelLog::train(&train);
        il.detect_job(&eval).problematic_count()
    });
    // Clean single pass for the breakdown, so stage counts are per-run, not
    // multiplied by `reps`.
    obs::reset();
    {
        let il = IntelLog::train(&train);
        std::hint::black_box(il.detect_job(&eval).problematic_count());
    }
    obs::disable();
    let observability = ObservabilityStats {
        disabled_s: e2e_par,
        enabled_s: e2e_obs,
        overhead_pct: (e2e_obs - e2e_par) / e2e_par * 100.0,
    };
    eprintln!(
        "observability: disabled {:.3}s, enabled {:.3}s ({:+.1}% overhead)",
        observability.disabled_s, observability.enabled_s, observability.overhead_pct
    );
    let mut stage_breakdown = StageBreakdown {
        counters: Default::default(),
        span_count: Default::default(),
        span_total_us: Default::default(),
        span_p99_us: Default::default(),
    };
    for m in obs::snapshot() {
        match m {
            obs::MetricSnapshot::Counter { name, value }
            | obs::MetricSnapshot::Gauge { name, value } => {
                stage_breakdown.counters.insert(name, value);
            }
            obs::MetricSnapshot::Histogram { name, hist } => {
                stage_breakdown.span_count.insert(name.clone(), hist.count);
                stage_breakdown
                    .span_total_us
                    .insert(name.clone(), hist.sum_us);
                stage_breakdown.span_p99_us.insert(name, hist.p99_us);
            }
        }
    }

    let report = BenchReport {
        smoke,
        reps,
        spell: spell_stats,
        adapters,
        extraction,
        hwgraph,
        detection,
        training,
        end_to_end,
        observability,
        stage_breakdown,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    if let Err(e) = std::fs::write(&out_path, format!("{json}\n")) {
        eprintln!("bench_pipeline: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}
