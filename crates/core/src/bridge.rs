//! Bridges between the simulated cluster and the IntelLog pipeline.
//!
//! Two paths are provided:
//!
//! * [`session_from_gen`] — direct structural conversion (fast path used by
//!   benchmarks), and on top of it [`training_sessions`], the one simulated
//!   training corpus;
//! * [`sessions_from_text`] — the full-fidelity path: the simulator renders
//!   raw log text in one of the five line syntaxes and the matching
//!   `lognlp::format` adapter parses it back, exercising the same code a
//!   deployment against real log files (`--format`) would use.

use dlasim::{ForeignFormat, GenJob, GenSession, RawFormat, SimLevel, SystemKind, WorkloadGen};
use lognlp::format::AdapterKind;
use spell::{Level, LogLine, Session};

/// Map a simulator severity onto the formatter's level type.
pub fn level_of(sim: SimLevel) -> Level {
    match sim {
        SimLevel::Info => Level::Info,
        SimLevel::Warn => Level::Warn,
        SimLevel::Error => Level::Error,
    }
}

/// Structural conversion of one generated session.
pub fn session_from_gen(gen: &GenSession) -> Session {
    let lines = gen
        .lines
        .iter()
        .map(|l| LogLine {
            ts_ms: l.ts_ms,
            level: level_of(l.level),
            source: l.source.clone(),
            message: l.message.clone(),
        })
        .collect();
    Session::new(gen.id.clone(), lines)
}

/// Structural conversion of a whole job.
pub fn sessions_from_job(job: &GenJob) -> Vec<Session> {
    job.sessions.iter().map(session_from_gen).collect()
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

/// Render one generated session in the syntax `kind` parses.
pub fn render_session(kind: AdapterKind, session: &GenSession) -> Vec<String> {
    match kind {
        AdapterKind::Hadoop => session.raw_lines(RawFormat::Hadoop),
        AdapterKind::Spark => session.raw_lines(RawFormat::Spark),
        AdapterKind::Hdfs => ForeignFormat::Hdfs.render_session(session),
        AdapterKind::Syslog => ForeignFormat::Syslog.render_session(session),
        AdapterKind::Json => ForeignFormat::Json.render_session(session),
    }
}

/// Full-fidelity conversion: render the job as raw text in `kind`'s syntax,
/// normalise each line back through its adapter. Rejected lines are dropped
/// (like stack-trace continuations in real files). Within one session the
/// stable sort in `Session::new` preserves emission order even where a
/// header's one-second resolution collapses distinct millisecond stamps.
pub fn sessions_from_text(job: &GenJob, kind: AdapterKind) -> Vec<Session> {
    job.sessions
        .iter()
        .map(|s| {
            let lines = render_session(kind, s)
                .iter()
                .filter_map(|raw| kind.parse_record(raw).ok().map(LogLine::from))
                .collect();
            Session::new(s.id.clone(), lines)
        })
        .collect()
}

/// Kept for `benchmark/`, remove when it moves to `AdapterKind`: adapters
/// and `LogLine` share one `Level`, so this is the identity.
pub fn level_of_raw(raw: Level) -> Level {
    raw
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlasim::{JobConfig, SystemKind};

    fn job(system: SystemKind) -> GenJob {
        dlasim::generate(
            &JobConfig {
                system,
                workload: "wordcount".into(),
                input_gb: 2,
                mem_mb: 1024,
                cores: 2,
                executors: 2,
                hosts: 3,
                seed: 11,
            },
            None,
        )
    }

    /// Every syntax, over every evaluated system: the text round trip keeps
    /// each line's message, source and level, and the emission order — even
    /// where a one-second header collapsed distinct millisecond stamps.
    #[test]
    fn structural_and_text_paths_agree() {
        for system in SystemKind::EVALUATED {
            let j = job(system);
            let direct = sessions_from_job(&j);
            for kind in AdapterKind::ALL {
                let parsed = sessions_from_text(&j, kind);
                assert_eq!(direct.len(), parsed.len());
                for (sa, sb) in direct.iter().zip(&parsed) {
                    assert_eq!(sa.id, sb.id);
                    assert_eq!(
                        sa.len(),
                        sb.len(),
                        "{kind:?} adapter dropped lines for {system:?}"
                    );
                    assert!(sb.lines.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms));
                    for (la, lb) in sa.lines.iter().zip(&sb.lines) {
                        assert_eq!(la.message, lb.message, "{kind:?} reordered lines");
                        assert_eq!(la.source, lb.source);
                        // the syslog PRI round trip is exact here too: the
                        // simulator only emits INFO/WARN/ERROR
                        assert_eq!(la.level, lb.level);
                    }
                }
            }
        }
    }

    #[test]
    fn json_text_path_keeps_exact_millis() {
        let j = job(SystemKind::Spark);
        let direct = sessions_from_job(&j);
        for (sd, sf) in direct.iter().zip(sessions_from_text(&j, AdapterKind::Json)) {
            for (ld, lf) in sd.lines.iter().zip(&sf.lines) {
                assert_eq!(ld.ts_ms, lf.ts_ms);
            }
        }
    }
}
