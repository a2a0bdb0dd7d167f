//! Fault injection (paper §6.4).
//!
//! The paper's problem-injection tool emulates three real-world scenarios —
//! execution abortion (SIGKILL), network failure on a node, and node failure
//! — triggered at a random point during job execution, plus the two
//! "unexpected" anomaly classes found during evaluation: memory-pressure
//! spills (a performance issue) and the Spark-19731 container-starvation
//! bug. The simulator applies each fault to the generated log streams the
//! way the real fault changes real logs (DESIGN.md §1).

use serde::{Deserialize, Serialize};

/// The kinds of injected problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// SIGKILL of one container: its log stream truncates with no cleanup.
    SessionKill,
    /// Network interface down on one node: connections to it fail.
    NetworkFailure,
    /// Whole-node shutdown: its containers truncate, peers log the loss.
    NodeFailure,
    /// Memory limit too low: intermediate data spills to disk
    /// (a performance problem — jobs still succeed).
    MemorySpill,
    /// Spark-19731-style bug: some containers never receive tasks.
    Starvation,
}

impl FaultKind {
    /// Every kind, in declaration order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::SessionKill,
        FaultKind::NetworkFailure,
        FaultKind::NodeFailure,
        FaultKind::MemorySpill,
        FaultKind::Starvation,
    ];

    /// The three injected problems of Table 6.
    pub const INJECTED: [FaultKind; 3] = [
        FaultKind::SessionKill,
        FaultKind::NetworkFailure,
        FaultKind::NodeFailure,
    ];

    /// Short label.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::SessionKill => "session-kill",
            FaultKind::NetworkFailure => "network-failure",
            FaultKind::NodeFailure => "node-failure",
            FaultKind::MemorySpill => "memory-spill",
            FaultKind::Starvation => "starvation-bug",
        }
    }
}

/// A concrete fault plan for one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// What to inject.
    pub kind: FaultKind,
    /// Fraction of job progress at which the fault triggers (0..1).
    pub at_frac: f64,
    /// The victim host (network/node faults) — index into the cluster's
    /// host list.
    pub victim_host: usize,
    /// The victim session index (session kill).
    pub victim_session: usize,
}

impl FaultPlan {
    /// A plan with the given kind and a mid-job trigger point.
    pub fn new(
        kind: FaultKind,
        at_frac: f64,
        victim_host: usize,
        victim_session: usize,
    ) -> FaultPlan {
        FaultPlan {
            kind,
            at_frac: at_frac.clamp(0.05, 0.95),
            victim_host,
            victim_session,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_point_clamped() {
        assert_eq!(
            FaultPlan::new(FaultKind::SessionKill, 1.5, 0, 0).at_frac,
            0.95
        );
        assert_eq!(
            FaultPlan::new(FaultKind::SessionKill, -0.2, 0, 0).at_frac,
            0.05
        );
    }

    #[test]
    fn names_are_distinct() {
        let mut names = FaultKind::ALL.map(FaultKind::name).to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
