//! End-to-end CLI test: write raw log files to disk, train a model file,
//! detect anomalies in a faulty job — the full non-intrusive deployment
//! story (IntelLog consumes only log files).

use intellog::dlasim::{self, FaultKind, FaultPlan, JobConfig, RawFormat, SystemKind};
use intellog::spell::{LogLine, Session};
use std::path::Path;
use std::process::Command;

fn write_job_logs(dir: &Path, job: &dlasim::GenJob, prefix: &str) -> Vec<String> {
    let fmt = RawFormat::for_system(job.system);
    let mut files = Vec::new();
    for s in &job.sessions {
        let path = dir.join(format!("{prefix}_{}.log", s.id));
        std::fs::write(&path, s.raw_lines(fmt).join("\n"))
            .unwrap_or_else(|e| panic!("cannot write log file {}: {e}", path.display()));
        files.push(path.to_string_lossy().into_owned());
    }
    files
}

fn cfg(seed: u64) -> JobConfig {
    JobConfig {
        system: SystemKind::Spark,
        workload: "wordcount".into(),
        input_gb: 4,
        mem_mb: 4096,
        cores: 4,
        executors: 3,
        hosts: 6,
        seed,
    }
}

#[test]
fn cli_train_graph_detect_roundtrip() {
    let bin = env!("CARGO_BIN_EXE_intellog");
    let dir = std::env::temp_dir().join(format!("intellog-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create temp dir {}: {e}", dir.display()));
    let model = dir.join("model.json");

    // Training corpus: three clean jobs as raw Spark-syntax log files.
    let mut train_files = Vec::new();
    for seed in [1u64, 2, 3] {
        let job = dlasim::generate(&cfg(seed), None);
        train_files.extend(write_job_logs(&dir, &job, &format!("train{seed}")));
    }
    let out = Command::new(bin)
        .args([
            "train",
            "--format",
            "spark",
            "--model",
            model.to_str().unwrap(),
        ])
        .args(&train_files)
        .output()
        .expect("failed to spawn the intellog binary");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trained on"), "{stdout}");
    assert!(model.exists());

    // Graph rendering from the model file.
    let out = Command::new(bin)
        .args(["graph", "--model", model.to_str().unwrap()])
        .output()
        .expect("failed to spawn the intellog binary");
    assert!(out.status.success());
    let graph = String::from_utf8_lossy(&out.stdout);
    assert!(graph.contains("task"), "{graph}");

    // Detection on a faulty job.
    let plan = FaultPlan::new(FaultKind::NetworkFailure, 0.3, 1, 0);
    let faulty = dlasim::generate(&cfg(9), Some(&plan));
    let detect_files = write_job_logs(&dir, &faulty, "eval");
    let out = Command::new(bin)
        .args([
            "detect",
            "--format",
            "spark",
            "--model",
            model.to_str().unwrap(),
        ])
        .args(&detect_files)
        .output()
        .expect("failed to spawn the intellog binary");
    assert!(
        out.status.success(),
        "detect failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Parse the verdict count instead of substring-matching: "10 of 12"
    // contains "0 of", so a raw `!contains("0 of")` check would reject
    // perfectly good detections.
    let summary = stdout
        .lines()
        .find(|l| l.contains("sessions problematic"))
        .unwrap_or_else(|| panic!("no summary line in: {stdout}"));
    let problematic: usize = summary
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparseable summary line: {summary}"));
    assert!(problematic > 0, "fault should be detected: {stdout}");

    // --json mode with --flag=value spelling: one SessionReport JSON
    // object per line, at least one of which is problematic.
    let out = Command::new(bin)
        .args([
            "detect",
            "--json",
            "--format=spark",
            &format!("--model={}", model.to_str().unwrap()),
        ])
        .args(&detect_files)
        .output()
        .expect("failed to spawn the intellog binary");
    assert!(
        out.status.success(),
        "detect --json failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let reports: Vec<intellog::anomaly::SessionReport> = stdout
        .lines()
        .map(|l| serde_json::from_str(l).expect("each line is a SessionReport JSON object"))
        .collect();
    assert_eq!(reports.len(), detect_files.len());
    assert!(
        reports.iter().any(|r| r.is_problematic()),
        "fault must surface in --json output"
    );
    // The CLI detects in parallel; its output is the sequential reference's,
    // line for line, over the same files read the same way.
    let detector = intellog::serve::ModelStore::load(&model).expect("load the model");
    let format = intellog::lognlp::format::AdapterKind::Spark;
    let sessions: Vec<Session> = detect_files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).expect("read a log file back");
            let records = text.lines().filter_map(|l| format.parse_record(l).ok());
            let id = Path::new(f).file_stem().expect("a file stem");
            Session::new(id.to_string_lossy(), records.map(LogLine::from).collect())
        })
        .collect();
    let reference: Vec<String> = intellog::core::IntelLog::from_detector(detector)
        .detect_job_sequential(&sessions)
        .sessions
        .iter()
        .map(|r| serde_json::to_string(r).expect("a report serialises"))
        .collect();
    assert_eq!(stdout.lines().collect::<Vec<_>>(), reference);

    std::fs::remove_dir_all(&dir).ok();
}

/// Every pipeline stage still reports into `obs`: `--metrics -` on `train`
/// then `detect` prints a non-zero sample for each stage's counter.
#[test]
fn cli_metrics_cover_every_pipeline_stage() {
    let bin = env!("CARGO_BIN_EXE_intellog");
    let dir = std::env::temp_dir().join(format!("intellog-cli-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create temp dir {}: {e}", dir.display()));
    let model = dir.join("model.ilm");
    let model = model.to_str().unwrap();
    let run = |args: &[&str], files: &[String], expected: &[&str]| {
        let out = Command::new(bin)
            .args(args)
            .args(["--model", model, "--metrics", "-"])
            .args(files)
            .output()
            .expect("failed to spawn the intellog binary");
        assert!(
            out.status.success(),
            "{args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        for name in expected {
            let value = stdout
                .lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<u64>().ok());
            assert!(value > Some(0), "{args:?}: {name} = {value:?} in\n{stdout}");
        }
    };
    run(
        &["train", "--sim", "spark", "--sim-jobs", "2"],
        &[],
        &[
            "intellog_spell_lines_parsed",
            "intellog_extract_keys_built",
            "intellog_lognlp_sequences_tagged",
            "intellog_hwgraph_builds",
            "intellog_span_hwgraph_build_us_count",
        ],
    );
    let eval = write_job_logs(&dir, &dlasim::generate(&cfg(9), None), "eval");
    run(
        &["detect", "--format", "spark"],
        &eval,
        &["intellog_anomaly_sessions_checked"],
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A log file with a byte that is not UTF-8 trains and detects: the byte
/// becomes U+FFFD in its own line, as on the gateway's wire, and every other
/// line reads as before. The CLI's model and reports equal those built
/// in-process from the files decoded that way.
#[test]
fn cli_reads_invalid_utf8_as_replacement_characters() {
    let bin = env!("CARGO_BIN_EXE_intellog");
    let dir = std::env::temp_dir().join(format!("intellog-cli-utf8-{}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create temp dir {}: {e}", dir.display()));
    let files = write_job_logs(&dir, &dlasim::generate(&cfg(4), None), "job");
    let clean = std::fs::read_to_string(&files[0]).expect("read a log file back");
    let lines: Vec<&str> = clean.lines().collect();
    let k = lines.len() / 2;
    let at = lines[k].find(": ").expect("a Spark line") + 4;
    let mut corrupt = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if i > 0 {
            corrupt.push(b'\n');
        }
        corrupt.extend_from_slice(line.as_bytes());
        if i == k {
            corrupt.insert(corrupt.len() - line.len() + at, 0xFF);
        }
    }
    std::fs::write(&files[0], &corrupt).expect("write the corrupt log file");

    let format = intellog::lognlp::format::AdapterKind::Spark;
    let sessions: Vec<Session> = files
        .iter()
        .map(|f| {
            let bytes = std::fs::read(f).expect("read a log file back");
            let text = String::from_utf8_lossy(&bytes);
            let records = text.lines().filter_map(|l| format.parse_record(l).ok());
            let id = Path::new(f).file_stem().expect("a file stem");
            Session::new(id.to_string_lossy(), records.map(LogLine::from).collect())
        })
        .collect();
    let decoded = String::from_utf8_lossy(&corrupt);
    for (i, (got, want)) in decoded.lines().zip(&lines).enumerate() {
        if i == k {
            assert_eq!(got, format!("{}\u{FFFD}{}", &want[..at], &want[at..]));
        } else {
            assert_eq!(got, *want);
        }
    }

    let model = dir.join("model.ilm");
    let model = model.to_str().expect("a UTF-8 temp path");
    let run = |args: &[&str]| {
        let out = Command::new(bin)
            .args(args)
            .args(["--format", "spark", "--model", model])
            .args(&files)
            .output()
            .expect("failed to spawn the intellog binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?} failed: {stderr}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    run(&["train"]);
    let reference = dir.join("reference.ilm");
    let detector = intellog::anomaly::Trainer::default().train(&sessions);
    intellog::serve::ModelStore::save(&reference, &detector).expect("save the reference");
    assert!(
        std::fs::read(model).ok() == std::fs::read(&reference).ok(),
        "the CLI trained on other lines than the lossy decoding holds"
    );
    let detector = intellog::serve::ModelStore::load(Path::new(model)).expect("load the model");
    let reports: Vec<String> = intellog::core::IntelLog::from_detector(detector)
        .detect_job_sequential(&sessions)
        .sessions
        .iter()
        .map(|r| serde_json::to_string(r).expect("a report serialises"))
        .collect();
    assert_eq!(
        run(&["detect", "--json"]).lines().collect::<Vec<_>>(),
        reports
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_bad_usage() {
    let bin = env!("CARGO_BIN_EXE_intellog");
    let out = Command::new(bin)
        .arg("frobnicate")
        .output()
        .expect("failed to spawn the intellog binary");
    assert!(!out.status.success());
    let out = Command::new(bin)
        .args(["train", "--model"])
        .output()
        .expect("failed to spawn the intellog binary");
    assert!(!out.status.success());
    let out = Command::new(bin)
        .args(["detect", "--model", "/nonexistent/model.json"])
        .output()
        .expect("failed to spawn the intellog binary");
    assert!(!out.status.success());
}
