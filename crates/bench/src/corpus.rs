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

use crate::detector::Confusion;
use dlasim::{FaultKind, GenJob, SystemKind, WorkloadGen, CONFIG_SETS};
use intellog_core::sessions_from_job;
use spell::Session;

/// One evaluation job with its ground truth.
#[derive(Debug, Clone)]
pub struct EvalJob {
    /// The generated job (per-session ground truth inside).
    pub job: GenJob,
    /// The injected problem (None = submitted as a no-problem job).
    pub injected: Option<FaultKind>,
    /// `true` if the "clean" job carries a latent (P/B) issue.
    pub latent: bool,
}

/// Training jobs kept whole: `jobs` clean jobs with tuned configurations.
pub fn training_jobs(system: SystemKind, jobs: usize, seed: u64) -> Vec<GenJob> {
    let mut gen = WorkloadGen::new(seed, 8);
    (0..jobs)
        .map(|_| dlasim::generate(&gen.training_config(system), None))
        .collect()
}

/// The sessions of [`training_jobs`], pipeline-ready, ids made unique
/// across jobs.
pub fn training_sessions(system: SystemKind, jobs: usize, seed: u64) -> Vec<Session> {
    let mut out = Vec::new();
    for (j, job) in training_jobs(system, jobs, seed).iter().enumerate() {
        for (i, mut s) in sessions_from_job(job).into_iter().enumerate() {
            s.id = format!("t{j}_{i}_{}", s.id);
            out.push(s);
        }
    }
    out
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
            out.push(EvalJob {
                job,
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
            out.push(EvalJob {
                job,
                injected: None,
                latent: latent_kind.is_some(),
            });
        }
    }
    out
}

/// Detection scoring of one corpus at job granularity (Table 6), filled in
/// by [`crate::score`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobScore {
    /// Jobs submitted without a latent issue: injected problems detected
    /// (`tp`) and missed (`fn_`), clean jobs flagged (`fp`).
    pub jobs: Confusion,
    /// Latent (performance / bug) issues surfaced — the paper's "(P/B)".
    pub latent_found: usize,
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
}
