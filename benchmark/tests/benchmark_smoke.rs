//! Runs the benchmark binary at `--smoke` size, every workload, untraced
//! and traced, and holds its output against `BENCHMARK.json`.
//!
//! The runs share model and span files under the build directory, so this
//! is one test, run in sequence.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

#[derive(Deserialize)]
struct Workload {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct MetricDecl {
    name: String,
    unit: String,
    better: String,
    bound: Option<f64>,
}

#[derive(Deserialize)]
struct Contract {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Workload>,
    end_to_end: Vec<MetricDecl>,
    per_layer: Vec<MetricDecl>,
}

#[derive(Deserialize)]
struct Value {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

#[derive(Deserialize)]
struct Span {
    id: u64,
    parent: Option<u64>,
    trace: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
    self_ns: u64,
}

fn contract() -> Contract {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn run(workload: &str, trace: &str) -> ResultLine {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "3",
            "--trace",
            trace,
        ])
        .output()
        .expect("run the benchmark");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} --trace {trace}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"))
}

fn declared(metrics: &[MetricDecl]) -> BTreeMap<&str, &str> {
    metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect()
}

fn emitted(line: &ResultLine) -> BTreeMap<&str, &str> {
    line.metrics
        .iter()
        .map(|(name, v)| (name.as_str(), v.unit.as_str()))
        .collect()
}

fn spans_of(workload: &str) -> Vec<Span> {
    // <target>/<profile>/benchmark → <target>/benchmark/trace_<workload>.jsonl
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_benchmark"));
    let path = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("the executable sits in <target>/<profile>")
        .join("benchmark")
        .join(format!("trace_{workload}.jsonl"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect()
}

#[test]
fn every_workload_emits_what_the_contract_lists() {
    let contract = contract();
    assert_eq!(contract.paths, ["benchmark"]);
    assert!(contract.command.iter().any(|a| a == "benchmark/Cargo.toml"));
    assert!((1..=60).contains(&contract.run_seconds));
    let names: Vec<&str> = contract.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "train_batch",
            "detect_batch",
            "serve_saturate",
            "serve_paced"
        ]
    );
    assert!(contract
        .workloads
        .iter()
        .all(|w| !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n')));
    for m in &contract.end_to_end {
        let bound = m.bound.expect("an end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        assert!(m.better == "lower" || m.better == "higher");
    }
    assert!(contract.per_layer.iter().all(|m| m.bound.is_none()));
    assert!(contract
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));

    for workload in names {
        let plain = run(workload, "0");
        assert!(plain.correct && plain.failed == 0 && plain.attempted > 0);
        assert_eq!(
            emitted(&plain),
            declared(&contract.end_to_end),
            "{workload}: end-to-end metrics"
        );
        for (name, v) in &plain.metrics {
            assert!(v.value > 0.0, "{workload}: {name} must never read 0");
        }

        let traced = run(workload, "1");
        assert!(traced.correct && traced.failed == 0, "{workload} traced");
        assert_eq!(
            emitted(&traced),
            declared(&contract.per_layer),
            "{workload}: per-layer metrics"
        );
        if workload == "train_batch" {
            // the staged trainer was asserted byte-equal (else !correct),
            // and its stages must have run
            assert!(traced.metrics["spell.parse_s"].value > 0.0);
            assert!(traced.metrics["spell.keys"].value > 0.0);
            assert_eq!(traced.metrics["serve.proto_parse_s"].value, 0.0);
        }

        let spans = spans_of(workload);
        assert!(!spans.is_empty());
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.id, i as u64);
            assert!(s.start_ns <= s.end_ns && s.self_ns <= s.end_ns - s.start_ns);
            if let Some(p) = s.parent {
                let p = &spans[p as usize];
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{workload}: span {} leaves its parent {}",
                    s.name,
                    p.name
                );
                assert_eq!(p.trace, s.trace, "a child shares its parent's trace id");
            }
        }
        let reps: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "rep")
            .map(|s| s.trace)
            .collect();
        let mut unique = reps.clone();
        unique.dedup();
        assert!(reps.len() >= 3 && unique == reps, "one trace id per rep");
    }
}
