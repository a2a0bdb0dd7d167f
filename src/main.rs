//! `intellog` — command-line interface to the IntelLog pipeline.
//!
//! Treats each log file as one session (= one YARN container, paper §5).
//!
//! ```text
//! intellog train  --format spark|hadoop --model model.ilm LOGFILE...
//! intellog train  --sim spark --sim-jobs 4 --seed 7 --model model.ilm
//! intellog detect --model model.ilm --format spark|hadoop [--json] LOGFILE...
//! intellog graph  --model model.ilm
//! intellog serve  --model model.ilm --addr 127.0.0.1:4317 --shards 4
//! intellog replay --model model.ilm --addr 127.0.0.1:4317 --system spark
//! intellog emit   --sim spark --format syslog --out corpus/
//! intellog demo
//! ```

#![forbid(unsafe_code)]

mod cliargs;

use cliargs::FlagSet;
use intellog::anomaly::{Detector, Trainer};
use intellog::core::{render_session, training_sessions, IntelLog};
use intellog::dlasim::{FaultKind, SystemKind};
use intellog::lognlp::format::AdapterKind;
use intellog::spell::{LogLine, Session};
use intellog_serve::{Gateway, GatewayConfig, ModelStore, ReplayConfig, TenantRegistry};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "train" => cmd_train(rest),
        "detect" => cmd_detect(rest),
        "graph" => cmd_graph(rest),
        "serve" => cmd_serve(rest),
        "replay" => cmd_replay(rest),
        "emit" => cmd_emit(rest),
        "demo" => cmd_demo(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  intellog train  --format spark|hadoop|hdfs|syslog|json --model MODEL.ilm LOGFILE...
  intellog train  --sim spark|mapreduce|tez|tensorflow [--sim-jobs N] [--seed N] --model MODEL.ilm
  intellog detect --model MODEL.ilm --format spark|hadoop|hdfs|syslog|json [--json] LOGFILE...
  intellog graph  --model MODEL.ilm
  intellog serve  --model MODEL.ilm [--addr HOST:PORT] [--shards N] [--queue-cap N]
                  [--idle-timeout-ms N] [--ring-cap N] [--sink FILE.jsonl] [--addr-file PATH]
                  [--tenant NAME] [--tenant-model NAME=MODEL.ilm]...
  intellog replay --model MODEL.ilm --addr HOST:PORT [--system spark|mapreduce|tez|tensorflow]
                  [--jobs N] [--seed N] [--hosts N] [--rate LINES_PER_S]
                  [--fault session-kill|network-failure|node-failure]
                  [--connections N] [--tenant NAME]
                  [--format native|spark|hadoop|hdfs|syslog|json]
                  [--no-verify] [--expect-anomalies] [--shutdown]
  intellog emit   --sim spark|mapreduce|tez|tensorflow --out DIR
                  [--format spark|hadoop|hdfs|syslog|json] [--sim-jobs N] [--seed N]
                  [--fault session-kill|network-failure|node-failure]
  intellog demo

'train', 'detect' and 'replay' also accept [--metrics PATH|-] to dump
per-stage counters and histograms in Prometheus text format on exit, and
[--trace PATH|-] to stream JSONL trace events; either flag turns the
observability layer on for the run ('serve' always has it on; query it
with the METRICS verb).

Flags accept both '--flag value' and '--flag=value'. Each LOGFILE is one
session (one YARN container's log). Models are stored in the versioned
model-store format (header + crc32); 'train' writes it, every other
command refuses corrupt or mismatched files. 'serve' runs the event-driven
multi-tenant gateway: one nonblocking connection loop feeding sharded
online detectors, with per-tenant models ('--tenant-model', or the LOAD
verb at runtime for hot reload) and live re-sharding (ADDSHARD /
DRAINSHARD verbs). 'replay' drives simulated workloads through it over
'--connections' concurrent sockets and checks the verdicts against
offline detection; with '--format' the corpus is first rendered as raw
text in that syntax and normalised back through its adapter. 'emit'
writes a simulated corpus to disk as raw per-session log files in any of
the five syntaxes. 'demo' trains on simulated Spark jobs and
diagnoses an injected network failure.";

/// Observability wiring for `train|detect|replay`: `--metrics <path|->`
/// enables the obs layer and dumps the registry (Prometheus text) there on
/// success; `--trace <path|->` additionally streams JSONL trace events.
struct ObsSetup {
    metrics: Option<String>,
}

fn obs_setup(flags: &mut FlagSet) -> Result<ObsSetup, String> {
    let metrics = flags.value("--metrics").filter(|v| !v.is_empty());
    let trace = flags.value("--trace").filter(|v| !v.is_empty());
    if metrics.is_some() || trace.is_some() {
        obs::enable();
    }
    if let Some(t) = &trace {
        obs::set_trace_path(t).map_err(|e| format!("--trace {t}: {e}"))?;
    }
    Ok(ObsSetup { metrics })
}

impl ObsSetup {
    /// Flush the trace sink and emit the metrics dump, if requested.
    fn finish(&self) -> Result<(), String> {
        obs::flush_trace();
        if let Some(path) = &self.metrics {
            let text = obs::render_prometheus();
            if path == "-" {
                print!("{text}");
            } else {
                std::fs::write(path, text).map_err(|e| format!("--metrics {path}: {e}"))?;
            }
        }
        Ok(())
    }
}

/// Resolve a `--format` name to its line adapter.
fn parse_format(name: &str) -> Result<AdapterKind, String> {
    AdapterKind::parse(name).ok_or_else(|| {
        format!("unknown --format '{name}' (use spark, hadoop, hdfs, syslog or json)")
    })
}

fn parse_system(s: &str) -> Result<SystemKind, String> {
    match s {
        "spark" => Ok(SystemKind::Spark),
        "mapreduce" => Ok(SystemKind::MapReduce),
        "tez" => Ok(SystemKind::Tez),
        "tensorflow" => Ok(SystemKind::TensorFlow),
        other => Err(format!(
            "unknown system '{other}' (use spark, mapreduce, tez or tensorflow)"
        )),
    }
}

fn parse_fault(s: &str) -> Result<FaultKind, String> {
    Ok(match s {
        "session-kill" => FaultKind::SessionKill,
        "network-failure" => FaultKind::NetworkFailure,
        "node-failure" => FaultKind::NodeFailure,
        "memory-spill" => FaultKind::MemorySpill,
        "starvation-bug" => FaultKind::Starvation,
        other => return Err(format!("unknown --fault '{other}'")),
    })
}

/// Read one log file as a session; lines the adapter rejects (stack-trace
/// continuations, partial writes) are skipped. Bytes that are not UTF-8
/// become U+FFFD, as on the gateway's wire, so one bad byte costs its line
/// a character and not the file.
fn read_session(path: &Path, format: AdapterKind) -> Result<Session, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let lines: Vec<LogLine> = String::from_utf8_lossy(&bytes)
        .lines()
        .filter_map(|l| format.parse_record(l).ok().map(LogLine::from))
        .collect();
    if lines.is_empty() {
        return Err(format!(
            "{}: no parseable log lines (wrong --format?)",
            path.display()
        ));
    }
    let id = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    Ok(Session::new(id, lines))
}

/// Read each file as one session in the `--format` syntax (Hadoop when the
/// flag is absent).
fn read_sessions(files: &[String], format: Option<String>) -> Result<Vec<Session>, String> {
    let format = format
        .as_deref()
        .map_or(Ok(AdapterKind::Hadoop), parse_format)?;
    if files.is_empty() {
        return Err("no log files given".into());
    }
    files
        .iter()
        .map(|f| read_session(Path::new(f), format))
        .collect()
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let mut flags = FlagSet::new(args);
    let obs_out = obs_setup(&mut flags)?;
    let model = flags.value("--model").filter(|v| !v.is_empty());
    let sim = flags.value("--sim");
    let sim_jobs: usize = flags.parse("--sim-jobs", 4)?;
    let seed: u64 = flags.parse("--seed", 7)?;
    let format = flags.value("--format");
    let files = flags.finish();
    let model = PathBuf::from(model.ok_or("--model is required")?);
    let sessions = match sim {
        Some(system) => {
            if !files.is_empty() {
                return Err("--sim and LOGFILE arguments are mutually exclusive".into());
            }
            training_sessions(parse_system(&system)?, sim_jobs.max(1), seed)
        }
        None => read_sessions(&files, format)?,
    };
    let detector = Trainer::default().train(&sessions);
    let bytes = ModelStore::save(&model, &detector).map_err(|e| e.to_string())?;
    println!(
        "trained on {} sessions: {} log keys, {} entity groups ({} critical), {} ignored non-NL keys",
        sessions.len(),
        detector.keys.len(),
        detector.graph.groups.len(),
        detector.graph.groups.iter().filter(|g| g.critical).count(),
        detector.ignored_keys.len(),
    );
    println!("model written to {} ({bytes} bytes)", model.display());
    obs_out.finish()
}

fn load_model(model: Option<String>) -> Result<Detector, String> {
    let model = model
        .filter(|v| !v.is_empty())
        .ok_or("--model is required")?;
    ModelStore::load(Path::new(&model)).map_err(|e| format!("{model}: {e}"))
}

fn cmd_detect(args: &[String]) -> Result<(), String> {
    let mut flags = FlagSet::new(args);
    let obs_out = obs_setup(&mut flags)?;
    let il = IntelLog::from_detector(load_model(flags.value("--model"))?);
    let json = flags.bool("--json");
    let format = flags.value("--format");
    let files = flags.finish();
    let sessions = read_sessions(&files, format)?;
    let report = il.detect_job(&sessions);
    if json {
        // machine-readable: one SessionReport JSON object per line, the
        // same shape the serve anomaly sink writes
        for s in &report.sessions {
            println!("{}", serde_json::to_string(s).map_err(|e| e.to_string())?);
        }
        return obs_out.finish();
    }
    for s in &report.sessions {
        if s.is_problematic() {
            println!("session {}: {} anomalies", s.session, s.anomalies.len());
            // the first five, and every count (they stand for many lines)
            for (i, a) in s.anomalies.iter().enumerate() {
                match a {
                    intellog::anomaly::Anomaly::UnexpectedRepeats {
                        template, count, ..
                    } => println!("  unexpected repeats: {template} × {count}"),
                    _ if i >= 5 => {}
                    intellog::anomaly::Anomaly::UnexpectedMessage { text, groups, .. } => {
                        println!("  unexpected message (groups {groups:?}): {text}")
                    }
                    other => println!("  {other:?}"),
                }
            }
        }
    }
    println!(
        "{} of {} sessions problematic",
        report.problematic_count(),
        report.total_count()
    );
    print!("{}", il.diagnose(&report).render());
    obs_out.finish()
}

fn cmd_graph(args: &[String]) -> Result<(), String> {
    let detector = load_model(FlagSet::new(args).value("--model"))?;
    print!("{}", detector.graph.render_text(&detector.keys));
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    // The gateway's METRICS verb reports pipeline-stage counters too, so
    // the observability layer is always on while serving.
    obs::enable();
    let mut flags = FlagSet::new(args);
    let model = flags.value("--model");
    let default_tenant = flags
        .value("--tenant")
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| intellog_serve::DEFAULT_TENANT.into());
    let tenant_models = flags.values("--tenant-model");
    let config = GatewayConfig {
        addr: flags
            .value("--addr")
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| "127.0.0.1:4317".into()),
        shards: flags.parse("--shards", 4)?,
        queue_capacity: flags.parse("--queue-cap", 1024)?,
        idle_timeout: Duration::from_millis(flags.parse("--idle-timeout-ms", 30_000u64)?),
        ring_capacity: flags.parse("--ring-cap", 4096)?,
        sink_path: flags
            .value("--sink")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from),
        default_tenant: default_tenant.clone(),
        ..GatewayConfig::default()
    };
    let addr_file = flags.value("--addr-file").filter(|v| !v.is_empty());
    let extra = flags.finish();
    if !extra.is_empty() {
        return Err(format!("unexpected arguments: {extra:?}"));
    }
    let registry = Arc::new(TenantRegistry::new());
    registry.register(&default_tenant, Arc::new(load_model(model)?));
    for spec in &tenant_models {
        let (name, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("--tenant-model {spec:?}: expected NAME=PATH"))?;
        if name.is_empty() || path.is_empty() {
            return Err(format!("--tenant-model {spec:?}: expected NAME=PATH"));
        }
        let out = registry
            .load_from_path(name, Path::new(path))
            .map_err(|e| format!("--tenant-model {spec}: {e}"))?;
        println!(
            "tenant {name}: loaded v{} ({} keys) from {path}",
            out.version, out.keys
        );
    }
    let gateway = Gateway::bind_with_registry(&config, registry).map_err(|e| e.to_string())?;
    let addr = gateway.local_addr();
    println!(
        "intellog-gateway listening on {addr} shards={} queue-cap={} idle-timeout={}ms tenants={} default-tenant={}",
        config.shards,
        config.queue_capacity,
        config.idle_timeout.as_millis(),
        1 + tenant_models.len(),
        default_tenant,
    );
    if let Some(p) = addr_file {
        std::fs::write(&p, format!("{addr}\n")).map_err(|e| format!("{p}: {e}"))?;
    }
    gateway.run().map_err(|e| e.to_string())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let mut flags = FlagSet::new(args);
    let obs_out = obs_setup(&mut flags)?;
    let detector = load_model(flags.value("--model"))?;
    let addr = flags
        .value("--addr")
        .filter(|v| !v.is_empty())
        .ok_or("--addr is required")?;
    let rate: u64 = flags.parse("--rate", 0)?;
    let cfg = ReplayConfig {
        system: parse_system(&flags.value("--system").unwrap_or_else(|| "spark".into()))?,
        jobs: flags.parse("--jobs", 1)?,
        seed: flags.parse("--seed", 7)?,
        hosts: flags.parse("--hosts", 8)?,
        rate: (rate > 0).then_some(rate),
        fault: match flags.value("--fault") {
            Some(f) => Some(parse_fault(&f)?),
            None => None,
        },
        verify: !flags.bool("--no-verify"),
        connections: flags.parse("--connections", 1)?,
        tenant: flags.value("--tenant").filter(|v| !v.is_empty()),
        adapter: flags
            .value("--format")
            .filter(|name| name != "native")
            .map(|name| parse_format(&name))
            .transpose()?,
    };
    let expect_anomalies = flags.bool("--expect-anomalies");
    let shutdown = flags.bool("--shutdown");
    let extra = flags.finish();
    if !extra.is_empty() {
        return Err(format!("unexpected arguments: {extra:?}"));
    }
    let outcome = intellog_serve::run_replay(&addr, &detector, &cfg)?;
    println!(
        "replayed {} lines across {} sessions in {:.2}s ({:.0} lines/s)",
        outcome.lines, outcome.sessions, outcome.elapsed_s, outcome.lines_per_s
    );
    println!(
        "server: ingested={} dropped={} problematic={} (offline {}), feed p50/p99 = {}/{} µs",
        outcome.stats.ingested,
        outcome.stats.dropped,
        outcome.online_problematic,
        outcome.offline_problematic,
        outcome
            .stats
            .per_shard
            .iter()
            .map(|s| s.feed_p50_us)
            .max()
            .unwrap_or(0),
        outcome
            .stats
            .per_shard
            .iter()
            .map(|s| s.feed_p99_us)
            .max()
            .unwrap_or(0),
    );
    if shutdown {
        let mut ctl = intellog_serve::ServeClient::connect(&addr).map_err(|e| e.to_string())?;
        ctl.shutdown().map_err(|e| e.to_string())?;
        println!("server shut down");
    }
    if !outcome.mismatches.is_empty() {
        return Err(format!(
            "{} verdict mismatches between serve and offline detection:\n{}",
            outcome.mismatches.len(),
            outcome.mismatches.join("\n")
        ));
    }
    if cfg.verify {
        println!(
            "verified: online verdicts match offline detect_session for all {} sessions",
            outcome.sessions
        );
    }
    if expect_anomalies && outcome.online_problematic == 0 {
        return Err("expected anomalies, but every session came back clean".into());
    }
    obs_out.finish()
}

/// `intellog emit` — write a simulated corpus to disk as raw log files,
/// one per session, in any of the five line syntaxes. Pairs with `--format`
/// on `train`/`detect`: the emitted files are what a deployment against
/// that corpus shape would ingest, so CI can smoke the adapter path end to
/// end without checked-in fixtures.
fn cmd_emit(args: &[String]) -> Result<(), String> {
    use intellog::dlasim::{self, WorkloadGen};
    let mut flags = FlagSet::new(args);
    let system = parse_system(&flags.value("--sim").unwrap_or_else(|| "spark".into()))?;
    let jobs: usize = flags.parse("--sim-jobs", 2)?;
    let seed: u64 = flags.parse("--seed", 7)?;
    let format = flags
        .value("--format")
        .as_deref()
        .map_or(Ok(AdapterKind::Syslog), parse_format)?;
    let out_dir = flags
        .value("--out")
        .filter(|v| !v.is_empty())
        .ok_or("--out DIR is required")?;
    let fault = match flags.value("--fault") {
        Some(f) => Some(parse_fault(&f)?),
        None => None,
    };
    let extra = flags.finish();
    if !extra.is_empty() {
        return Err(format!("unexpected arguments: {extra:?}"));
    }
    let out_dir = PathBuf::from(out_dir);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let mut gen = WorkloadGen::new(seed, 8);
    let mut sessions = 0usize;
    let mut lines = 0usize;
    for j in 0..jobs.max(1) {
        let cfg = gen.training_config(system);
        let plan = match fault {
            Some(kind) if j == 0 => Some(gen.fault_plan(kind)),
            _ => None,
        };
        let job = dlasim::generate(&cfg, plan.as_ref());
        for s in &job.sessions {
            let path = out_dir.join(format!("j{j}_{}.log", s.id));
            let mut text = render_session(format, s).join("\n");
            text.push('\n');
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            sessions += 1;
            lines += s.lines.len();
        }
    }
    println!(
        "emitted {sessions} sessions ({lines} lines) as {} under {}",
        format.name(),
        out_dir.display()
    );
    Ok(())
}

fn cmd_demo() -> Result<(), String> {
    use intellog::core::sessions_from_job;
    use intellog::dlasim::{self, FaultPlan, WorkloadGen};
    println!("training on simulated Spark jobs…");
    let mut gen = WorkloadGen::new(7, 8);
    let mut train = Vec::new();
    for j in 0..6 {
        let cfg = gen.training_config(SystemKind::Spark);
        for (i, mut s) in sessions_from_job(&dlasim::generate(&cfg, None))
            .into_iter()
            .enumerate()
        {
            s.id = format!("t{j}_{i}_{}", s.id);
            train.push(s);
        }
    }
    let il = IntelLog::train(&train);
    println!(
        "{} keys, {} groups\n",
        il.detector().keys.len(),
        il.graph().groups.len()
    );
    let cfg = gen.detection_config(SystemKind::Spark, 3);
    let plan = FaultPlan::new(FaultKind::NetworkFailure, 0.3, 2, 0);
    let job = dlasim::generate(&cfg, Some(&plan));
    let report = il.detect_job(&sessions_from_job(&job));
    println!(
        "injected a network failure: {} of {} sessions flagged",
        report.problematic_count(),
        report.total_count()
    );
    print!("{}", il.diagnose(&report).render());
    Ok(())
}
