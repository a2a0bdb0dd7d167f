//! The two timing rows `benchmark/` (the repository's one timing harness,
//! see `BENCHMARK.json`) has no equivalent for, emitted as a
//! machine-readable `BENCH_pipeline.json`:
//!
//! * `spell` — frozen `match_ids` (the compiled key automaton, the
//!   production read path) vs the `match_ids_linear` oracle over
//!   pre-interned probes against a ≥1k-key set, and their per-message
//!   ratio `spell.index_speedup` (regression bar: ≥3×). `benchmark/` times
//!   the automaton inside its workloads but never the linear scan;
//! * `adapters[]` — per `lognlp::format` adapter (Hadoop, Spark, HDFS
//!   header, RFC-3164 syslog, JSON lines): raw-line ingest throughput
//!   (adapter header parse + streaming Spell, the `train --format` verb)
//!   over the same message bodies in each syntax. `benchmark/` ingests
//!   JSON and, through a shim, the two native syntaxes only.
//!
//! Throughputs are units/second from the median of `--reps` repetitions;
//! each section's `rep_s` is that median, and the corpora are sized so it
//! stays above 200 ms. `scripts/check_scaling.py` judges the report
//! against the checked-in one.
//!
//! Usage: `cargo run --release -p intellog-bench --bin bench_pipeline --
//! [--out PATH] [--reps N]`.

use dlasim::SystemKind;
use intellog_bench::{intern_probes, synthetic_keyset, training_jobs};
use intellog_core::render_session;
use lognlp::format::AdapterKind;
use serde::Serialize;
use std::time::Instant;

/// Keys in the synthetic key set the matchers run against.
const KEYSET: usize = 1200;
/// Probes per automaton pass (≈ 1.2 M matches/s on the reference host).
const PROBES: usize = 400_000;
/// Leading probes the linear oracle is timed on: it scans every key per
/// message (≈ 9 k msgs/s), so the automaton's probe set would take it a minute.
const LINEAR_PROBES: usize = 4_000;
/// MapReduce training jobs rendered per adapter (≈ 2 k lines each).
const ADAPTER_JOBS: usize = 120;

#[derive(Serialize)]
struct SpellStats {
    keyset_size: usize,
    probe_msgs: usize,
    linear_probe_msgs: usize,
    /// Frozen-parser matching: the compiled key automaton (the production
    /// read path). The name predates the automaton — kept stable for
    /// downstream tooling.
    match_indexed_msgs_per_s: f64,
    match_indexed_rep_s: f64,
    match_linear_msgs_per_s: f64,
    match_linear_rep_s: f64,
    /// Linear seconds per message ÷ automaton seconds per message.
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
    rep_s: f64,
}

#[derive(Serialize)]
struct BenchReport {
    reps: usize,
    spell: SpellStats,
    adapters: Vec<AdapterStats>,
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_pipeline.json".to_string();
    let mut reps = 5usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out_path = it.next().cloned().unwrap_or_else(|| {
                    eprintln!("bench_pipeline: --out requires a path");
                    std::process::exit(2);
                })
            }
            "--reps" => {
                reps = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("bench_pipeline: --reps requires a positive integer");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!(
                    "bench_pipeline: unknown argument {other}\n\
                     usage: bench_pipeline [--out PATH] [--reps N]"
                );
                std::process::exit(2);
            }
        }
    }
    eprintln!("bench_pipeline: reps={reps}");

    // --- spell: automaton vs linear matching at >=1k keys -----------------
    let (mut parser, probe_msgs) = synthetic_keyset(KEYSET, PROBES);
    assert!(
        parser.len() >= KEYSET,
        "keyset under-filled: {}",
        parser.len()
    );
    // Freeze: compiles the key set into the prefix-DFA automaton, the
    // production read-path configuration (detection, replay, serving).
    parser.freeze();
    let auto_stats = parser.automaton_stats().expect("frozen parser");
    let probe_ids = intern_probes(&parser, &probe_msgs);
    drop(probe_msgs);
    let linear_ids = &probe_ids[..LINEAR_PROBES];
    // Equivalence before timing: the automaton, the live prefix-tree +
    // inverted index (a thawed clone), and — on the probes it is timed on —
    // the linear-scan reference must agree; a wrong matcher's throughput is
    // meaningless.
    let mut thawed = parser.clone();
    thawed.thaw();
    for ids in &probe_ids {
        assert_eq!(parser.match_ids(ids), thawed.match_ids(ids));
    }
    for ids in linear_ids {
        assert_eq!(parser.match_ids(ids), parser.match_ids_linear(ids));
    }
    let indexed_s = time_median(reps, || {
        probe_ids
            .iter()
            .filter(|ids| parser.match_ids(ids).is_some())
            .count()
    });
    let linear_s = time_median(reps.min(3), || {
        linear_ids
            .iter()
            .filter(|ids| parser.match_ids_linear(ids).is_some())
            .count()
    });
    let indexed_rate = probe_ids.len() as f64 / indexed_s;
    let linear_rate = linear_ids.len() as f64 / linear_s;
    let spell = SpellStats {
        keyset_size: parser.len(),
        probe_msgs: probe_ids.len(),
        linear_probe_msgs: linear_ids.len(),
        match_indexed_msgs_per_s: indexed_rate,
        match_indexed_rep_s: indexed_s,
        match_linear_msgs_per_s: linear_rate,
        match_linear_rep_s: linear_s,
        index_speedup: indexed_rate / linear_rate,
        automaton_states: auto_stats.states,
        automaton_dense_buckets: auto_stats.dense_buckets,
        automaton_buckets: auto_stats.buckets,
    };
    eprintln!(
        "spell: match automaton {:.0} msgs/s ({:.3} s/rep) vs linear {:.0} msgs/s ({:.3} s/rep): {:.1}x",
        spell.match_indexed_msgs_per_s,
        spell.match_indexed_rep_s,
        spell.match_linear_msgs_per_s,
        spell.match_linear_rep_s,
        spell.index_speedup
    );
    drop(probe_ids);

    // --- format adapters: raw-line ingest per syntax ------------------------
    // Render the same jobs in each line syntax and run the whole ingest
    // verb — header parse, then streaming Spell over the (identical)
    // message bodies through the trainer's door, `parse_spans`.
    let adapter_jobs = training_jobs(SystemKind::MapReduce, ADAPTER_JOBS, 1);
    let mut adapters: Vec<AdapterStats> = Vec::new();
    for kind in AdapterKind::ALL {
        let adapter = kind.adapter();
        let lines: Vec<String> = adapter_jobs
            .iter()
            .flat_map(|j| j.sessions.iter().flat_map(|s| render_session(kind, s)))
            .collect();
        for l in &lines {
            adapter
                .parse_record(l)
                .unwrap_or_else(|e| panic!("{}: rejected own rendering {l:?}: {e}", kind.name()));
        }
        let rep_s = time_median(reps, || {
            let mut p = spell::SpellParser::default();
            let (mut spans, mut ids) = (Vec::new(), Vec::new());
            for line in &lines {
                let rec = adapter.parse_record(line).expect("validated above");
                p.parse_spans(rec.message, &mut spans, &mut ids);
            }
            p.len()
        });
        let stat = AdapterStats {
            name: kind.name().to_string(),
            lines: lines.len(),
            adapted_msgs_per_s: lines.len() as f64 / rep_s,
            rep_s,
        };
        eprintln!(
            "adapter {}: {:.0} msgs/s over {} lines ({:.3} s/rep)",
            stat.name, stat.adapted_msgs_per_s, stat.lines, stat.rep_s
        );
        adapters.push(stat);
    }

    let report = BenchReport {
        reps,
        spell,
        adapters,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    if let Err(e) = std::fs::write(&out_path, format!("{json}\n")) {
        eprintln!("bench_pipeline: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}
