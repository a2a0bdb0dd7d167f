//! Criterion micro-benchmarks of the IntelLog pipeline stages:
//! Spell key extraction, Intel-Key construction, HW-graph training and
//! per-session detection (sequential vs rayon-parallel).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dlasim::SystemKind;
use intellog_bench::training_sessions;
use intellog_core::IntelLog;
use spell::SpellParser;

fn bench_spell(c: &mut Criterion) {
    let sessions = training_sessions(SystemKind::MapReduce, 4, 1);
    let messages: Vec<String> = sessions
        .iter()
        .flat_map(|s| s.lines.iter().map(|l| l.message.clone()))
        .collect();
    let mut g = c.benchmark_group("spell");
    g.throughput(Throughput::Elements(messages.len() as u64));
    g.bench_function("parse_stream", |b| {
        b.iter(|| {
            let mut p = SpellParser::default();
            for m in &messages {
                p.parse_message(m);
            }
            p.len()
        })
    });
    // matching against a trained key set (the detection-phase hot path)
    let mut trained = SpellParser::default();
    for m in &messages {
        trained.parse_message(m);
    }
    g.bench_function("match_stream", |b| {
        b.iter(|| {
            messages
                .iter()
                .filter(|m| trained.match_line(m).is_some())
                .count()
        })
    });
    g.finish();
}

/// Regression guard for the matcher: `match_ids` on the live index vs the
/// reference linear scan against a large (≥1k) key set, over pre-interned
/// probes. The acceptance bar is ≥3× the linear scan; `cargo run --bin
/// bench_pipeline` records the frozen-automaton ratio in
/// BENCH_pipeline.json.
fn bench_spell_throughput(c: &mut Criterion) {
    let (parser, probes) = intellog_bench::synthetic_keyset(1200, 4000);
    assert!(
        parser.len() >= 1000,
        "need >=1k distinct keys, got {}",
        parser.len()
    );
    let probes = intellog_bench::intern_probes(&parser, &probes);
    let mut g = c.benchmark_group("spell_throughput");
    g.throughput(Throughput::Elements(probes.len() as u64));
    g.bench_function("indexed", |b| {
        b.iter(|| {
            probes
                .iter()
                .filter(|ids| parser.match_ids(ids).is_some())
                .count()
        })
    });
    g.bench_function("linear", |b| {
        b.iter(|| {
            probes
                .iter()
                .filter(|ids| parser.match_ids_linear(ids).is_some())
                .count()
        })
    });
    g.finish();
}

fn bench_extraction(c: &mut Criterion) {
    let sessions = training_sessions(SystemKind::Spark, 4, 2);
    let mut parser = SpellParser::default();
    for s in &sessions {
        for l in &s.lines {
            parser.parse_message(&l.message);
        }
    }
    let keys = parser.keys().to_vec();
    let mut g = c.benchmark_group("extraction");
    g.throughput(Throughput::Elements(keys.len() as u64));
    g.bench_function("intel_keys", |b| {
        let ex = extract::IntelExtractor::new();
        b.iter(|| {
            keys.iter()
                .map(|k| ex.build(k).entities.len())
                .sum::<usize>()
        })
    });
    g.bench_function("pos_tagging", |b| {
        b.iter(|| {
            keys.iter()
                .map(|k| lognlp::tag(&lognlp::tokenize(&k.render_sample())).len())
                .sum::<usize>()
        })
    });
    g.finish();
}

fn bench_training(c: &mut Criterion) {
    let mut g = c.benchmark_group("hwgraph");
    g.sample_size(10);
    for jobs in [2usize, 6] {
        let sessions = training_sessions(SystemKind::Spark, jobs, 3);
        g.bench_with_input(BenchmarkId::new("train", jobs), &sessions, |b, sessions| {
            b.iter(|| IntelLog::train(sessions).graph().groups.len())
        });
    }
    // parallel-vs-sequential training scaling
    let sessions = training_sessions(SystemKind::Spark, 6, 3);
    g.bench_function("train_sequential", |b| {
        b.iter(|| IntelLog::train_sequential(&sessions).graph().groups.len())
    });
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        g.bench_with_input(
            BenchmarkId::new("train_threads", threads),
            &threads,
            |b, _| b.iter(|| pool.install(|| IntelLog::train(&sessions).graph().groups.len())),
        );
    }
    g.finish();
}

fn bench_detection(c: &mut Criterion) {
    let train = training_sessions(SystemKind::MapReduce, 8, 4);
    let il = IntelLog::train(&train);
    let eval = training_sessions(SystemKind::MapReduce, 4, 99);
    // Contract check before timing anything: `detect_job` under a 1-thread
    // pool must equal the genuinely sequential loop.
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    assert_eq!(
        one.install(|| il.detect_job(&eval)),
        il.detect_job_sequential(&eval),
        "1-thread parallel detection must match the sequential baseline"
    );
    let mut g = c.benchmark_group("detection");
    g.throughput(Throughput::Elements(eval.len() as u64));
    g.sample_size(10);
    g.bench_function("sequential", |b| {
        b.iter(|| il.detect_job_sequential(&eval).problematic_count())
    });
    g.bench_function("rayon_parallel", |b| {
        b.iter(|| il.detect_job(&eval).problematic_count())
    });
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        g.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| pool.install(|| il.detect_job(&eval).problematic_count()))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_spell,
    bench_spell_throughput,
    bench_extraction,
    bench_training,
    bench_detection
);
criterion_main!(benches);
