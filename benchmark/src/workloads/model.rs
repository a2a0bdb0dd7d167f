//! The model the detect and serve workloads load, trained the way the CLI
//! trains one — in a child process, as a deployment would have done it
//! beforehand. Training in the measuring process would leave its own peak
//! (several times what detection or serving need) in `peak_rss_mb`.

use super::RunConfig;
use crate::corpus;
use anomaly::Trainer;
use dlasim::SystemKind;
use intellog_serve::ModelStore;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The hidden flag the child is started with.
pub const FLAG: &str = "--train-model";

const SYSTEMS: [SystemKind; 2] = [SystemKind::Spark, SystemKind::MapReduce];

/// Train on `cfg.scale.model_jobs` jobs of `system` in a child process and
/// take the model through the store once. Returns the model file.
pub fn train(system: SystemKind, cfg: &RunConfig, workload: &str) -> PathBuf {
    std::fs::create_dir_all(&cfg.scratch).expect("create the scratch directory");
    let path = cfg.scratch.join(format!("model_{workload}.ilm"));
    let exe = std::env::current_exe().expect("the path of this executable");
    let status = Command::new(exe)
        .arg(FLAG)
        .arg(system.name())
        .arg(cfg.scale.model_jobs.to_string())
        .arg(cfg.seed.to_string())
        .arg(&path)
        .status()
        .expect("start the training process");
    assert!(status.success(), "the training process failed");
    ModelStore::load(&path).expect("the model just saved loads");
    path
}

/// The child's side: `benchmark --train-model SYSTEM JOBS SEED PATH`.
pub fn train_here(args: &[String]) -> Result<(), String> {
    let [system, jobs, seed, path] = args else {
        return Err(format!("{FLAG} takes SYSTEM JOBS SEED PATH"));
    };
    let system = SYSTEMS
        .into_iter()
        .find(|s| s.name() == system)
        .ok_or(format!("unknown system {system}"))?;
    let jobs = jobs.parse().map_err(|e| format!("JOBS: {e}"))?;
    let seed = seed.parse().map_err(|e| format!("SEED: {e}"))?;
    let sessions = corpus::bridged_sessions(&corpus::jobs(system, jobs, seed, false));
    let detector = Trainer::default().train(&sessions);
    ModelStore::save(Path::new(path), &detector)
        .map(|_| ())
        .map_err(|e| e.to_string())
}
