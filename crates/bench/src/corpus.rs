//! Corpus builders shared by the experiment binaries and benchmarks.
//!
//! Reproduces the paper's experimental protocol (§6.1, §6.4):
//!
//! * **training**: the workload generator randomly submits jobs with tuned
//!   resources; logs are collected for model training;
//! * **Table 6 evaluation**: five configuration sets; per set, three jobs
//!   injected with kill / network-failure / node-failure plus three jobs
//!   without injected problems — 30 jobs per system, 15 with problems.
//!   Mirroring §6.4, a couple of the non-injected jobs carry latent issues
//!   (memory-pressure spill, starvation bug) that IntelLog may surface as
//!   *unexpected* problems (the paper's "(P/B)" column).

use dlasim::{FaultKind, GenJob, SystemKind, WorkloadGen, CONFIG_SETS};
use intellog_core::sessions_from_job;
use spell::Session;

/// One evaluation job with its ground truth.
#[derive(Debug, Clone)]
pub struct EvalJob {
    /// The generated job (per-session ground truth inside).
    pub job: GenJob,
    /// Pipeline-ready sessions.
    pub sessions: Vec<Session>,
    /// The injected problem (None = submitted as a no-problem job).
    pub injected: Option<FaultKind>,
    /// `true` if the "clean" job carries a latent (P/B) issue.
    pub latent: bool,
}

impl EvalJob {
    /// Ground truth: should a perfect detector flag this job?
    pub fn truly_problematic(&self) -> bool {
        self.injected.is_some()
    }
}

/// Training sessions: `jobs` clean jobs with tuned configurations.
pub fn training_sessions(system: SystemKind, jobs: usize, seed: u64) -> Vec<Session> {
    let mut gen = WorkloadGen::new(seed, 8);
    let mut out = Vec::new();
    for j in 0..jobs {
        let cfg = gen.training_config(system);
        let job = dlasim::generate(&cfg, None);
        for (i, mut s) in sessions_from_job(&job).into_iter().enumerate() {
            s.id = format!("t{j}_{i}_{}", s.id);
            out.push(s);
        }
    }
    out
}

/// Training jobs kept whole (for Table 4/5 evaluation and Stitch).
pub fn training_jobs(system: SystemKind, jobs: usize, seed: u64) -> Vec<GenJob> {
    let mut gen = WorkloadGen::new(seed, 8);
    (0..jobs)
        .map(|_| dlasim::generate(&gen.training_config(system), None))
        .collect()
}

/// The Table 6 evaluation corpus: 30 jobs (15 injected) per system.
pub fn table6_jobs(system: SystemKind, seed: u64) -> Vec<EvalJob> {
    let mut gen = WorkloadGen::new(seed, 8);
    let mut out = Vec::new();
    for set in 0..CONFIG_SETS.len() {
        // three injected jobs
        for kind in FaultKind::INJECTED {
            let cfg = gen.detection_config(system, set);
            let plan = gen.fault_plan(kind);
            let job = dlasim::generate(&cfg, Some(&plan));
            let sessions = sessions_from_job(&job);
            out.push(EvalJob {
                job,
                sessions,
                injected: Some(kind),
                latent: false,
            });
        }
        // three jobs without injected problems; one per corpus carries a
        // latent issue in sets 0 and 3 (spill under tight memory,
        // starvation for Spark / spill for the others)
        for k in 0..3 {
            let cfg = gen.detection_config(system, set);
            let latent_kind = match (set, k) {
                (0, 0) => Some(FaultKind::MemorySpill),
                (3, 0) => Some(if system == SystemKind::Spark {
                    FaultKind::Starvation
                } else {
                    FaultKind::MemorySpill
                }),
                _ => None,
            };
            let plan = latent_kind.map(|kind| gen.fault_plan(kind));
            let mut job = dlasim::generate(&cfg, plan.as_ref());
            // latent issues are NOT "injected problems" in the Table 6 sense
            job.injected = None;
            let sessions = sessions_from_job(&job);
            out.push(EvalJob {
                job,
                sessions,
                injected: None,
                latent: latent_kind.is_some(),
            });
        }
    }
    out
}

/// Detection scoring of one corpus at job granularity (Table 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobScore {
    /// Injected problems detected.
    pub detected: usize,
    /// Clean jobs flagged (no latent issue).
    pub false_positives: usize,
    /// Injected problems missed.
    pub false_negatives: usize,
    /// Latent (performance / bug) issues surfaced — the paper's "(P/B)".
    pub latent_found: usize,
    /// Total injected problems.
    pub total_injected: usize,
}

/// Aggregate per-job verdicts against ground truth.
pub fn score_jobs(results: &[(bool, &EvalJob)]) -> JobScore {
    let mut s = JobScore::default();
    for (flagged, job) in results {
        match (job.injected.is_some(), job.latent, *flagged) {
            (true, _, true) => s.detected += 1,
            (true, _, false) => s.false_negatives += 1,
            (false, true, true) => s.latent_found += 1,
            (false, false, true) => s.false_positives += 1,
            _ => {}
        }
        if job.injected.is_some() {
            s.total_injected += 1;
        }
    }
    s
}

/// Workload for `bench_pipeline`'s `spell` row: a parser holding
/// `n_keys` distinct refined keys (each with two variable positions), plus
/// `n_probes` probe messages mixing the three matcher paths — exact key
/// instances (trie fast path), near-misses with one constant changed
/// (scored/LCS path) and fully unknown messages (pruned to no match).
pub fn synthetic_keyset(n_keys: usize, n_probes: usize) -> (spell::SpellParser, Vec<String>) {
    let base = |i: usize| -> Vec<String> {
        // 6 key-unique tokens + 3 shared: max cross-key LCS is 3, well
        // below the required ceil(9/1.7) = 6, so keys never merge.
        vec![
            format!("svc{i}"),
            format!("op{i}"),
            "processing".into(),
            "request".into(),
            format!("stage{i}"),
            format!("unit{i}"),
            "for".into(),
            format!("id{}", i * 13),
            format!("{i}ms"),
        ]
    };
    let mut p = spell::SpellParser::default();
    let (mut spans, mut ids) = (Vec::new(), Vec::new());
    for i in 0..n_keys {
        p.parse_spans(&base(i).join(" "), &mut spans, &mut ids);
        // second instance differing in the trailing id/latency → two stars
        let mut v = base(i);
        v[7] = format!("id{}", i * 13 + 1);
        v[8] = format!("{}ms", i + 1);
        p.parse_spans(&v.join(" "), &mut spans, &mut ids);
    }
    let probes = (0..n_probes)
        .map(|j| {
            let mut m = base(j % n_keys);
            m[7] = format!("id{}", j * 7);
            m[8] = format!("{j}ms");
            match j % 10 {
                // near-miss: one constant token changed → LCS path
                8 => m[2] = "handling".into(),
                // unknown message: nothing matches
                9 => {
                    for (pos, t) in m.iter_mut().enumerate() {
                        *t = format!("junk{j}_{pos}");
                    }
                }
                _ => {}
            }
            m.join(" ")
        })
        .collect();
    (p, probes)
}

/// Read-only interned form of each probe message against `parser` (unseen
/// tokens become `UNKNOWN_ID`), so `bench_pipeline` times `match_ids` and
/// `match_ids_linear` on identical input with tokenising left out.
pub fn intern_probes(parser: &spell::SpellParser, probes: &[String]) -> Vec<Vec<spell::TokenId>> {
    let mut spans = Vec::new();
    probes
        .iter()
        .map(|m| {
            let mut ids = Vec::new();
            parser.lookup_line_into(m, &mut spans, &mut ids);
            ids
        })
        .collect()
}

/// Precision / recall / F1 from flat counts.
pub fn prf(tp: usize, fp: usize, fn_: usize) -> (f64, f64, f64) {
    let p = if tp + fp == 0 {
        0.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let r = if tp + fn_ == 0 {
        0.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    let f = if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    };
    (p, r, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_protocol_shape() {
        let jobs = table6_jobs(SystemKind::Spark, 1);
        assert_eq!(jobs.len(), 30);
        assert_eq!(jobs.iter().filter(|j| j.injected.is_some()).count(), 15);
        assert_eq!(jobs.iter().filter(|j| j.latent).count(), 2);
        // latent jobs are not counted as injected
        assert!(jobs
            .iter()
            .filter(|j| j.latent)
            .all(|j| j.injected.is_none()));
    }

    #[test]
    fn scoring() {
        let jobs = table6_jobs(SystemKind::Tez, 2);
        // a perfect detector
        let verdicts: Vec<(bool, &EvalJob)> = jobs
            .iter()
            .map(|j| (j.injected.is_some() || j.latent, j))
            .collect();
        let s = score_jobs(&verdicts);
        assert_eq!(s.detected, 15);
        assert_eq!(s.false_negatives, 0);
        assert_eq!(s.false_positives, 0);
        assert_eq!(s.latent_found, 2);
    }

    #[test]
    fn prf_math() {
        let (p, r, f) = prf(41, 6, 4);
        assert!((p - 0.8723).abs() < 0.001);
        assert!((r - 0.9111).abs() < 0.001);
        assert!((f - 0.8913).abs() < 0.01);
        assert_eq!(prf(0, 0, 0), (0.0, 0.0, 0.0));
    }
}
