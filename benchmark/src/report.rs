//! What a run prints and writes: the one-line result the driver reads, the
//! table a person reads, the JSON document `--out` keeps, and `--compare`.

use crate::metrics::{Better, END_TO_END};
use crate::workloads::Outcome;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

#[derive(Serialize)]
struct Value {
    value: f64,
    unit: &'static str,
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, every value with all its digits.
pub fn result_line(outcome: &Outcome) -> String {
    let line = ResultLine {
        correct: outcome.correct(),
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: outcome
            .metrics
            .iter()
            .map(|(name, m)| {
                let value = Value {
                    value: m.summary.value,
                    unit: m.unit,
                };
                (name.clone(), value)
            })
            .collect(),
    };
    serde_json::to_string(&line).expect("a result line serialises")
}

#[derive(Serialize, Deserialize, Clone)]
pub struct MetricDoc {
    /// What the run reports (see `Summary::best`).
    pub value: f64,
    pub unit: String,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: u64,
}

#[derive(Serialize, Deserialize, Clone)]
pub struct WorkloadDoc {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failed_share: f64,
    pub metrics: BTreeMap<String, MetricDoc>,
}

/// One complete set of runs. Its last key is `claim`, and it is `null`: a
/// run of the benchmark measures, it claims nothing.
#[derive(Serialize, Deserialize)]
pub struct Doc {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub host_cpus: usize,
    pub workloads: BTreeMap<String, WorkloadDoc>,
    pub claim: Option<String>,
}

impl WorkloadDoc {
    pub fn of(outcome: &Outcome) -> WorkloadDoc {
        WorkloadDoc {
            correct: outcome.correct(),
            attempted: outcome.attempted,
            failed: outcome.failed,
            failed_share: outcome.failed as f64 / outcome.attempted.max(1) as f64,
            metrics: outcome
                .metrics
                .iter()
                .map(|(name, m)| {
                    let doc = MetricDoc {
                        value: m.summary.value,
                        unit: m.unit.to_string(),
                        median: m.summary.median,
                        q1: m.summary.q1,
                        q3: m.summary.q3,
                        n: m.summary.n as u64,
                    };
                    (name.clone(), doc)
                })
                .collect(),
        }
    }
}

impl Doc {
    pub fn load(path: &str) -> Result<Doc, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    }

    pub fn save(&self, path: &std::path::Path) -> Result<(), String> {
        let json = serde_json::to_string_pretty(self).expect("a document serialises");
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, format!("{json}\n")).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Every metric by name, with its unit, quartiles and sample count.
pub fn print_table(workload: &str, doc: &WorkloadDoc) {
    eprintln!(
        "{workload}: correct={} attempted={} failed={} failed_share={}",
        doc.correct, doc.attempted, doc.failed, doc.failed_share
    );
    for (name, m) in &doc.metrics {
        eprintln!(
            "  {name:<32} {:>14.4} {:<8} median {:.4} q1 {:.4} q3 {:.4} n {}",
            m.value, m.unit, m.median, m.q1, m.q3, m.n
        );
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    /// Within the bound, and the runs' own spread is within it too.
    Resolved,
    /// Within the bound, but the spread is wider than the bound.
    Unresolved,
    /// Worse than the bound allows.
    Regressed,
}

/// How much worse `b` is than `a` as a share of `a` (negative = better),
/// and what that means against `bound` given both runs' own spread.
pub fn judge(a: &MetricDoc, b: &MetricDoc, better: Better, bound: f64) -> (f64, Verdict) {
    let worse = match better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    let spread = |m: &MetricDoc| (m.q3 - m.q1).abs() / m.median.abs();
    let verdict = if worse > bound {
        Verdict::Regressed
    } else if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Resolved
    };
    (worse, verdict)
}

/// Print each end-to-end metric's change from `a` to `b` against its
/// bound, one row per workload. Returns how many regressed.
pub fn compare(a: &Doc, b: &Doc) -> usize {
    let mut regressed = 0;
    println!(
        "{:<15} {:<16} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    for (workload, wa) in &a.workloads {
        let Some(wb) = b.workloads.get(workload) else {
            continue;
        };
        for def in &END_TO_END {
            let (Some(ma), Some(mb)) = (wa.metrics.get(def.name), wb.metrics.get(def.name)) else {
                continue;
            };
            let (worse, verdict) = judge(ma, mb, def.better, def.bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{workload:<15} {:<16} {:>14.4} {:>14.4} {:>+8.3} {:>6.2}  {verdict:?}",
                def.name, ma.value, mb.value, worse, def.bound
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, q1: f64, q3: f64) -> MetricDoc {
        MetricDoc {
            value,
            unit: "x".into(),
            median: value,
            q1,
            q3,
            n: 5,
        }
    }

    #[test]
    fn judge_uses_direction_bound_and_spread() {
        let a = metric(100.0, 99.0, 101.0);
        let (worse, v) = judge(&a, &metric(105.0, 104.0, 106.0), Better::Lower, 0.10);
        assert!((worse - 0.05).abs() < 1e-12);
        assert_eq!(v, Verdict::Resolved);
        let slower = metric(80.0, 79.0, 81.0);
        assert_eq!(
            judge(&a, &slower, Better::Higher, 0.10).1,
            Verdict::Regressed
        );
        assert_eq!(judge(&a, &slower, Better::Lower, 0.10).1, Verdict::Resolved);
        let noisy = metric(101.0, 90.0, 112.0);
        assert_eq!(
            judge(&a, &noisy, Better::Lower, 0.10).1,
            Verdict::Unresolved
        );
    }
}
