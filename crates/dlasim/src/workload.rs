//! Workload generation (paper §6.1).
//!
//! The paper's workload generator randomly submits HiBench jobs to Spark
//! and MapReduce and TPC-H queries (via Hive) to Tez, with resource
//! configurations tuned for successful execution during training and five
//! configuration sets of varying input sizes / resources for the anomaly
//! experiments (§6.4).

use crate::faults::{FaultKind, FaultPlan};
use crate::rng::Rng;
use crate::types::{GenJob, SystemKind};
use serde::{Deserialize, Serialize};

/// Configuration of one submitted job.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobConfig {
    /// Target system.
    pub system: SystemKind,
    /// Workload name (HiBench job or TPC-H query).
    pub workload: String,
    /// Input data size in GB — drives task counts and session lengths.
    pub input_gb: u32,
    /// Container memory in MB.
    pub mem_mb: u32,
    /// Cores per container.
    pub cores: u32,
    /// Number of worker containers (executors / reducers / Tez children).
    pub executors: u32,
    /// Number of cluster hosts.
    pub hosts: u32,
    /// RNG seed.
    pub seed: u64,
}

/// HiBench-style job names used for Spark and MapReduce (paper: text
/// processing, machine learning and graph processing).
pub const HIBENCH_JOBS: &[&str] = &[
    "wordcount",
    "sort",
    "terasort",
    "kmeans",
    "pagerank",
    "bayes",
    "nutchindexing",
    "scan",
];

/// TPC-H query names used for Tez via Hive.
pub const TPCH_QUERIES: &[&str] = &[
    "query1", "query3", "query5", "query6", "query8", "query10", "query12", "query14",
];

/// Model names used for distributed TensorFlow training jobs. Same count as
/// [`HIBENCH_JOBS`] so the generator draws identically many random values
/// regardless of system — existing seeds stay aligned.
pub const TF_MODELS: &[&str] = &[
    "resnet50",
    "inception",
    "vgg16",
    "lstm-ptb",
    "transformer",
    "bert-base",
    "wide-deep",
    "ncf",
];

/// The five configuration sets of §6.4 (input sizes and resources vary to
/// produce sessions of very different lengths).
pub const CONFIG_SETS: [(u32, u32, u32, u32); 5] = [
    // (input_gb, mem_mb, cores, executors)
    (2, 1024, 1, 2),
    (5, 1024, 2, 3),
    (10, 2048, 4, 4),
    (30, 4096, 8, 6),
    (60, 8192, 8, 8),
];

/// The workload generator: randomly picks jobs and configurations.
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    rng: Rng,
    hosts: u32,
}

impl WorkloadGen {
    /// A generator over a cluster with `hosts` worker nodes (the paper uses
    /// 26 workers).
    pub fn new(seed: u64, hosts: u32) -> WorkloadGen {
        WorkloadGen {
            rng: Rng::new(seed),
            hosts: hosts.max(2),
        }
    }

    /// Draw a random training configuration for `system` (resources tuned
    /// generously so jobs run cleanly, per §6.1).
    pub fn training_config(&mut self, system: SystemKind) -> JobConfig {
        let workload = match system {
            SystemKind::Tez => TPCH_QUERIES[self.rng.below(TPCH_QUERIES.len())],
            SystemKind::TensorFlow => TF_MODELS[self.rng.below(TF_MODELS.len())],
            _ => HIBENCH_JOBS[self.rng.below(HIBENCH_JOBS.len())],
        };
        JobConfig {
            system,
            workload: workload.to_string(),
            input_gb: self.rng.between(2, 30) as u32,
            mem_mb: 4096,
            cores: 8,
            executors: self.rng.between(2, 6) as u32,
            hosts: self.hosts,
            seed: self.rng.next_u64(),
        }
    }

    /// Draw the §6.4 detection-phase configuration for config set `set`.
    pub fn detection_config(&mut self, system: SystemKind, set: usize) -> JobConfig {
        let (input_gb, mem_mb, cores, executors) = CONFIG_SETS[set % CONFIG_SETS.len()];
        let workload = match system {
            SystemKind::Tez => TPCH_QUERIES[self.rng.below(TPCH_QUERIES.len())],
            SystemKind::TensorFlow => TF_MODELS[self.rng.below(TF_MODELS.len())],
            _ => HIBENCH_JOBS[self.rng.below(HIBENCH_JOBS.len())],
        };
        JobConfig {
            system,
            workload: workload.to_string(),
            input_gb,
            mem_mb,
            cores,
            executors,
            hosts: self.hosts,
            seed: self.rng.next_u64(),
        }
    }

    /// A fault plan with a random trigger point and victims (paper §6.4:
    /// "the injection tool triggers the problem at a random point").
    pub fn fault_plan(&mut self, kind: FaultKind) -> FaultPlan {
        FaultPlan::new(
            kind,
            0.2 + self.rng.unit() * (0.9 - 0.2),
            self.rng.below(self.hosts as usize),
            self.rng.below(16),
        )
    }
}

/// Generate a job for any analytics system.
pub fn generate(cfg: &JobConfig, fault: Option<&FaultPlan>) -> GenJob {
    let job = match cfg.system {
        SystemKind::Spark => crate::spark::generate(cfg, fault),
        SystemKind::MapReduce => crate::mapreduce::generate(cfg, fault),
        SystemKind::Tez => crate::tez::generate(cfg, fault),
        SystemKind::Yarn => crate::yarn::generate(cfg),
        SystemKind::Nova => crate::nova::generate(cfg),
        SystemKind::TensorFlow => crate::tensorflow::generate(cfg, fault),
    };
    obs::inc!("dlasim.jobs_generated");
    if fault.is_some() {
        obs::inc!("dlasim.jobs_faulted");
    }
    obs::add!("dlasim.sessions_generated", job.sessions.len() as u64);
    obs::add!(
        "dlasim.lines_generated",
        job.sessions
            .iter()
            .map(|s| s.lines.len() as u64)
            .sum::<u64>()
    );
    job
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_configs_are_varied_and_deterministic() {
        let mut a = WorkloadGen::new(1, 26);
        let mut b = WorkloadGen::new(1, 26);
        let ca: Vec<JobConfig> = (0..10)
            .map(|_| a.training_config(SystemKind::Spark))
            .collect();
        let cb: Vec<JobConfig> = (0..10)
            .map(|_| b.training_config(SystemKind::Spark))
            .collect();
        assert_eq!(ca, cb);
        let sizes: std::collections::HashSet<u32> = ca.iter().map(|c| c.input_gb).collect();
        assert!(sizes.len() > 2, "input sizes should vary: {sizes:?}");
    }

    #[test]
    fn tez_uses_tpch_spark_uses_hibench() {
        let mut g = WorkloadGen::new(2, 26);
        let t = g.training_config(SystemKind::Tez);
        assert!(t.workload.starts_with("query"));
        let s = g.training_config(SystemKind::Spark);
        assert!(HIBENCH_JOBS.contains(&s.workload.as_str()));
    }

    #[test]
    fn config_sets_scale_input() {
        assert_eq!(CONFIG_SETS.len(), 5);
        assert!(CONFIG_SETS[4].0 > CONFIG_SETS[0].0 * 10);
    }

    #[test]
    fn fault_plans_within_bounds() {
        let mut g = WorkloadGen::new(3, 26);
        for kind in FaultKind::INJECTED {
            let p = g.fault_plan(kind);
            assert!(p.at_frac >= 0.05 && p.at_frac <= 0.95);
            assert!(p.victim_host < 26);
        }
    }
}
