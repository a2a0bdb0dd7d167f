//! The four workloads and the one method they are all measured by.
//!
//! A run is: set-up (timed as `setup_s`, several times), the reference
//! outputs (untimed), one discarded warm-up rep, then measured reps until
//! `--seconds` have passed. Every rep builds what a fresh invocation would
//! build (trainer, detector load, gateway), times one window, and checks
//! its outputs against the reference outside that window. A run reports
//! each per-rep quantity from its best rep (see [`Summary::best`] for why
//! not the median).
//!
//! With `--trace 1` the same reps run three ways — plain, with `obs`
//! recording, and under the span recorder — followed by the workload's
//! per-layer passes.

pub mod detect_batch;
pub mod model;
pub mod serve;
pub mod train_batch;

use crate::harness::stats::{self, Summary};
use crate::harness::trace::Recorder;
use crate::metrics::{per_layer_unit, END_TO_END, PER_LAYER};
use anomaly::{Detector, StreamState};
use spell::Session;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

pub const NAMES: [&str; 4] = [
    "train_batch",
    "detect_batch",
    "serve_saturate",
    "serve_paced",
];

/// An untraced run sets up at least this often, and `setup_s` is the
/// fastest: like a rep, a set-up can only be slowed down by a neighbour.
const MIN_SETUPS: usize = 3;
/// It keeps setting up until this many seconds are spent, so that a cheap
/// set-up gets more tries...
const SETUP_BUDGET_S: f64 = 3.0;
/// ...but no more than this many.
const MAX_SETUPS: usize = 10;
/// Fewest reps a phase measures, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Zero-queue verdict samples taken after each rep of a workload that has
/// no paced gateway to probe.
const VERDICTS_PER_REP: usize = 150;

/// Corpus sizes, in jobs; five jobs are about 10 k Spark or 16 k MapReduce
/// lines. Full size gives reps of half a second to two seconds on the
/// two-vCPU reference host, so that a run holds dozens of reps;
/// `--smoke` only proves the plumbing.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `train_batch`: Spark jobs (few long sessions) in the first corpus.
    pub train_spark_jobs: usize,
    /// `train_batch`: MapReduce jobs (many short sessions) in the second.
    pub train_mapreduce_jobs: usize,
    /// Jobs the model of the detect and serve workloads is trained on.
    pub model_jobs: usize,
    pub detect_jobs: usize,
    pub saturate_jobs: usize,
    pub paced_jobs: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        train_spark_jobs: 10,
        train_mapreduce_jobs: 15,
        model_jobs: 20,
        detect_jobs: 50,
        saturate_jobs: 30,
        paced_jobs: 15,
    };
    pub const SMOKE: Scale = Scale {
        train_spark_jobs: 2,
        train_mapreduce_jobs: 2,
        model_jobs: 3,
        detect_jobs: 10,
        saturate_jobs: 5,
        paced_jobs: 5,
    };
}

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where model files and span files go (inside the build directory).
    pub scratch: PathBuf,
}

/// What one rep measured inside its timed window.
pub struct RepSample {
    /// Raw log lines fully processed in the window.
    pub lines: u64,
    pub wall_s: f64,
    /// utime + stime of the whole process over the window.
    pub cpu_s: f64,
    /// Line-to-verdict latencies observed by this rep (ms).
    pub verdict_ms: Vec<f64>,
}

/// Operations attempted and failed, and whether every output matched its
/// reference.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    mismatches: Vec<String>,
}

impl Tally {
    /// Operations that can fail without the outputs being wrong: a line
    /// dropped, a probe answered late.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// One comparison against a reference output.
    pub fn verify(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches.push(what());
        }
    }
}

pub trait Workload: Sized {
    /// Generate and render the inputs and build whatever a deployment has
    /// before the first line arrives. Timed as `setup_s`.
    fn set_up(cfg: &RunConfig, rec: &mut Recorder) -> Self;
    /// Compute the reference outputs the reps are checked against.
    fn reference(&mut self);
    /// One rep: a fresh instance of the system, one timed window, outputs
    /// checked outside it.
    fn rep(&mut self, rec: &mut Recorder, tally: &mut Tally) -> RepSample;
    /// The per-layer passes of the traced run. `rep` is what a plain rep
    /// costs.
    fn layers(&mut self, rec: &mut Recorder, tally: &mut Tally, rep: &RepCost, out: &mut Layers);
}

/// Wall and CPU seconds of the best plain rep's timed window.
pub struct RepCost {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Per-layer metric values by name.
pub type Layers = BTreeMap<String, f64>;

/// Report the total time of each named span as the layer metric `<span>_s`.
pub fn insert_seconds(out: &mut Layers, rec: &Recorder, spans: &[&str]) {
    for span in spans {
        out.insert(format!("{span}_s"), rec.seconds(span));
    }
}

pub struct Metric {
    pub unit: &'static str,
    pub summary: Summary,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
}

impl Outcome {
    /// Every output matched its reference.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }
}

pub fn run(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    Some(match name {
        "train_batch" => measure::<train_batch::TrainBatch>(name, cfg),
        "detect_batch" => measure::<detect_batch::DetectBatch>(name, cfg),
        "serve_saturate" => measure::<serve::Saturate>(name, cfg),
        "serve_paced" => measure::<serve::Paced>(name, cfg),
        _ => return None,
    })
}

fn measure<W: Workload>(name: &str, cfg: &RunConfig) -> Outcome {
    let mut rec = Recorder::new(cfg.trace);
    let mut tally = Tally::default();

    let mut setup_s = Vec::new();
    let setting_up = Instant::now();
    let mut w = loop {
        let t = Instant::now();
        let w = W::set_up(cfg, &mut rec);
        setup_s.push(t.elapsed().as_secs_f64());
        let spent = setting_up.elapsed().as_secs_f64();
        let more =
            setup_s.len() < MIN_SETUPS || (spent < SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS);
        if cfg.trace || !more {
            break w;
        }
    };
    rec.set_enabled(false);
    w.reference();
    w.rep(&mut rec, &mut tally);

    let metrics = if cfg.trace {
        per_layer(name, cfg, &mut w, &mut rec, &mut tally)
    } else {
        let samples = reps(cfg.seconds, || w.rep(&mut rec, &mut tally));
        end_to_end(&setup_s, &samples)
    };
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        mismatches: tally.mismatches,
        metrics,
    }
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`]'s order.
fn end_to_end(setup_s: &[f64], samples: &[RepSample]) -> BTreeMap<String, Metric> {
    let values = [
        Summary::best(setup_s, false),
        per_rep(samples, true, |r| r.lines as f64 / r.wall_s),
        per_rep(samples, false, |r| r.cpu_s / r.lines as f64 * 1e6),
        Summary::single(stats::peak_rss_mib(), 1),
        per_rep(samples, false, |r| {
            stats::quantile(&stats::ascending(&r.verdict_ms), 0.5)
        }),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, summary)| {
            let metric = Metric {
                unit: def.unit,
                summary,
            };
            (def.name.to_string(), metric)
        })
        .collect()
}

/// The traced run: the same reps plain, with `obs` recording and under the
/// span recorder, then the workload's per-layer passes; spans written out
/// at the end.
fn per_layer<W: Workload>(
    name: &str,
    cfg: &RunConfig,
    w: &mut W,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> BTreeMap<String, Metric> {
    let plain = reps(cfg.seconds * 0.4, || w.rep(rec, tally));
    obs::enable();
    let observed = reps(cfg.seconds * 0.2, || w.rep(rec, tally));
    obs::disable();
    rec.set_enabled(true);
    let traced = reps(cfg.seconds * 0.2, || {
        rec.next_trace();
        w.rep(rec, tally)
    });
    let wall_s = |samples: &[RepSample]| per_rep(samples, false, |r| r.wall_s).value;
    let cost = RepCost {
        wall_s: wall_s(&plain),
        cpu_s: per_rep(&plain, false, |r| r.cpu_s).value,
    };
    let mut layers: Layers = PER_LAYER
        .iter()
        .map(|(n, _, _)| (n.to_string(), 0.0))
        .collect();
    layers.insert(
        "obs.enabled_overhead_share".into(),
        wall_s(&observed) / cost.wall_s - 1.0,
    );
    layers.insert(
        "bench.trace_overhead_share".into(),
        wall_s(&traced) / cost.wall_s - 1.0,
    );
    layers.insert("bench.rep_wall_s".into(), cost.wall_s);
    layers.insert("bench.reps".into(), plain.len() as f64);
    layers.insert("dlasim.generate_s".into(), rec.seconds("dlasim.generate"));
    rec.next_trace();
    w.layers(rec, tally, &cost, &mut layers);
    layers.insert(
        "bench.failed_share".into(),
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    let path = cfg.scratch.join(format!("trace_{name}.jsonl"));
    if let Err(e) = rec.write_jsonl(&path) {
        tally.verify(false, || format!("cannot write {}: {e}", path.display()));
    }
    layers
        .into_iter()
        .map(|(name, value)| {
            let unit = per_layer_unit(&name)
                .unwrap_or_else(|| panic!("layer metric {name} is not declared in PER_LAYER"));
            let metric = Metric {
                unit,
                summary: Summary::single(value, 1),
            };
            (name, metric)
        })
        .collect()
}

/// One value per rep, reported from the best rep.
fn per_rep(
    samples: &[RepSample],
    higher_is_better: bool,
    f: impl Fn(&RepSample) -> f64,
) -> Summary {
    Summary::best(&samples.iter().map(f).collect::<Vec<_>>(), higher_is_better)
}

/// Run `rep` until `seconds` have passed, at least [`MIN_REPS`] times.
fn reps(seconds: f64, mut rep: impl FnMut() -> RepSample) -> Vec<RepSample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        samples.push(rep());
    }
    samples
}

/// Verdict latency with nothing queued ahead: one short session fed line
/// by line through the calls a shard worker makes (`StreamState::feed`,
/// then `finish`), timed from the first line to the report. Workloads
/// without a paced gateway report this, against the model they use, as
/// their line-to-verdict latency: the floor that serving adds queueing to.
pub fn zero_queue_verdicts_ms(detector: &Detector, probe: &Session) -> Vec<f64> {
    (0..VERDICTS_PER_REP)
        .map(|_| {
            let t = Instant::now();
            let mut state = StreamState::begin(probe.id.as_str());
            for line in &probe.lines {
                std::hint::black_box(state.feed(detector, line));
            }
            std::hint::black_box(state.finish(detector));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}
