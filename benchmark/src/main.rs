//! The benchmark of this repository: four workloads, measured end to end
//! and layer by layer, every layer timed from outside through the public
//! functions of its crate. See `README.md` beside this package.
//!
//! ```text
//! benchmark [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]
//!           [--smoke] [--out PATH]
//! benchmark --compare A.json B.json
//! ```
//!
//! With `--workload` the run happens in this process and the last line of
//! standard output is its result. Without it, every workload runs in a
//! child process of its own (so that `peak_rss_mb` is per workload) and the
//! merged document is printed.

#![forbid(unsafe_code)]

mod corpus;
mod harness;
mod metrics;
mod report;
mod workloads;

use report::{Doc, WorkloadDoc};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{RunConfig, Scale};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed S] [--seconds T] [--trace 0|1] \
                     [--smoke] [--out PATH] | --compare A.json B.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
}

fn parse_args(raw: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        compare: None,
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `<target dir>/benchmark`, beside the profile directory the executable
/// lives in: inside the checkout, and never committed.
fn scratch_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("benchmark")))
        .unwrap_or_else(|| PathBuf::from("target/benchmark"))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().is_some_and(|a| a == workloads::model::FLAG) {
        return match workloads::model::train_here(&raw[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match (Doc::load(a), Doc::load(b)) {
            (Ok(a), Ok(b)) => ExitCode::from(u8::from(report::compare(&a, &b) > 0)),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.2 } else { 25.0 });
    let mut doc = Doc {
        seed: args.seed,
        seconds,
        trace: args.trace,
        smoke: args.smoke,
        host_cpus: sync::thread::available_parallelism().map_or(1, |n| n.get()),
        workloads: BTreeMap::new(),
        claim: None,
    };
    match &args.workload {
        Some(name) => run_here(name, &args, &mut doc),
        None => run_children(&args, &mut doc),
    }
}

fn run_here(name: &str, args: &Args, doc: &mut Doc) -> ExitCode {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: doc.seconds,
        trace: args.trace,
        scale: if args.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
        scratch: scratch_dir(),
    };
    let Some(outcome) = workloads::run(name, &cfg) else {
        eprintln!(
            "benchmark: unknown workload {name}; one of {:?}",
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    assert!(
        outcome
            .metrics
            .keys()
            .all(|n| harness::stats::valid_metric_name(n)),
        "a metric name BENCHMARK.json would refuse"
    );
    let summary = WorkloadDoc::of(&outcome);
    report::print_table(name, &summary);
    for mismatch in outcome.mismatches.iter().take(20) {
        eprintln!("  MISMATCH {mismatch}");
    }
    doc.workloads.insert(name.to_string(), summary);
    if let Some(path) = &args.out {
        if let Err(e) = doc.save(path) {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report::result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: {name} could not verify its outputs");
        ExitCode::FAILURE
    }
}

fn run_children(args: &Args, doc: &mut Doc) -> ExitCode {
    let exe = std::env::current_exe().expect("the path of this executable");
    let scratch = scratch_dir();
    let mut verified = true;
    for name in workloads::NAMES {
        let part = scratch.join(format!("run_{name}.json"));
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &doc.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part)
            .stdout(std::process::Stdio::null());
        if args.smoke {
            child.arg("--smoke");
        }
        let status = child.status().expect("start a workload process");
        verified &= status.success();
        match Doc::load(&part.to_string_lossy()) {
            Ok(mut part) => doc.workloads.append(&mut part.workloads),
            Err(e) => eprintln!("benchmark: {name} left no result: {e}"),
        }
    }
    let out = args.out.clone().unwrap_or_else(|| {
        scratch.join(if args.trace {
            "layers.json"
        } else {
            "end_to_end.json"
        })
    });
    if let Err(e) = doc.save(&out) {
        eprintln!("benchmark: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", out.display());
    println!(
        "{}",
        serde_json::to_string_pretty(doc).expect("a document serialises")
    );
    if verified && doc.workloads.len() == workloads::NAMES.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
