//! `intellog replay` — a load generator that drives simulated dlasim
//! workloads through the serve socket and verifies the server's verdicts.
//!
//! The replayer renders each job's sessions, merges their lines into one
//! cluster-wide timeline (a stable sort by timestamp — the arrival order a
//! collector tailing every container would see), partitions the sessions
//! across `connections` concurrent sockets (each session's stream stays on
//! one socket, so per-session order is preserved), paces the lines
//! at a target rate, ENDs every session, drains the server, and then
//! compares the server's per-session reports against offline
//! [`Detector::detect_session`] on exactly the same sessions. Serving is
//! lossless (a full shard queue holds lines back), so the two must be
//! identical — that equivalence is the subsystem's core correctness
//! property (asserted in `tests/loopback.rs` and in CI).

use crate::client::ServeClient;
use crate::metrics::StatsSnapshot;
use anomaly::{Detector, SessionReport};
use dlasim::{FaultKind, SystemKind, WorkloadGen};
use intellog_core::{sessions_from_job, sessions_from_text, IntelLog};
use lognlp::format::AdapterKind;
use spell::Session;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Replay configuration.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Which simulated system's workloads to replay.
    pub system: SystemKind,
    /// Number of jobs (each job is many container sessions).
    pub jobs: usize,
    /// Workload seed — the same seed always replays the same bytes.
    pub seed: u64,
    /// Target ingest rate in lines/second; `None` sends at full speed.
    pub rate: Option<u64>,
    /// Inject this fault into the first job.
    pub fault: Option<FaultKind>,
    /// Concurrent sender connections. Sessions are partitioned across
    /// them (a session's lines all flow over one socket, preserving
    /// per-session order); >1 is what makes shard scaling visible instead
    /// of measuring single-driver saturation.
    pub connections: usize,
    /// Send traffic as this tenant (`TENANT` handshake) and scope the
    /// drain + report fetch to it; `None` uses the server default.
    pub tenant: Option<String>,
    /// Render the corpus as raw text in this syntax and normalise it back
    /// through its `lognlp::format` adapter before sending — the
    /// `--format` ingestion path. Offline verification runs on the same
    /// adapted sessions, so verdict equivalence is checked end to end
    /// through the adapter. `None` replays the structural path.
    pub adapter: Option<AdapterKind>,
}

impl Default for ReplayConfig {
    fn default() -> ReplayConfig {
        ReplayConfig {
            system: SystemKind::Spark,
            jobs: 1,
            seed: 7,
            rate: None,
            fault: None,
            connections: 1,
            tenant: None,
            adapter: None,
        }
    }
}

/// What a replay run observed.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Sessions replayed.
    pub sessions: usize,
    /// Log lines sent.
    pub lines: usize,
    /// Wall-clock send duration (first line → drain ack), seconds.
    pub elapsed_s: f64,
    /// Achieved ingest rate.
    pub lines_per_s: f64,
    /// Problematic sessions according to the server.
    pub online_problematic: usize,
    /// Problematic sessions according to offline detection.
    pub offline_problematic: usize,
    /// Human-readable verdict mismatches (empty = exact agreement).
    pub mismatches: Vec<String>,
    /// Server metrics after the drain.
    pub stats: StatsSnapshot,
}

/// Generate the replay corpus deterministically from the seed: the same
/// config always replays the same bytes (session ids are prefixed with the
/// job index so multi-job replays never collide).
fn generate_jobs(cfg: &ReplayConfig) -> Vec<dlasim::GenJob> {
    // Eight hosts, as `intellog emit` and `training_sessions` simulate.
    let mut gen = WorkloadGen::new(cfg.seed, 8);
    let mut jobs = Vec::new();
    for j in 0..cfg.jobs.max(1) {
        let job_cfg = gen.detection_config(cfg.system, j);
        let plan = match cfg.fault {
            Some(kind) if j == 0 => Some(gen.fault_plan(kind)),
            _ => None,
        };
        let mut job = dlasim::generate(&job_cfg, plan.as_ref());
        for s in &mut job.sessions {
            s.id = format!("j{j}-{}", s.id);
        }
        jobs.push(job);
    }
    jobs
}

/// One sender connection's share of the replay: its sessions' lines in
/// timeline order, then their ENDs.
struct SenderPlan {
    lines: Vec<(String, spell::LogLine)>,
    ends: Vec<String>,
}

/// Convert one job into the sessions that will be both sent and verified:
/// the structural path, or rendered as text and normalised back through
/// the adapter when one is configured. Using the same conversion
/// for senders and the offline reference is what makes the verdict
/// comparison exact through the adapter.
fn job_sessions(job: &dlasim::GenJob, adapter: Option<AdapterKind>) -> Vec<Session> {
    match adapter {
        Some(kind) => sessions_from_text(job, kind),
        None => sessions_from_job(job),
    }
}

/// Partition the replay corpus across `connections` senders. A session's
/// whole stream goes to exactly one sender (round-robin by session index),
/// so per-session line order is preserved no matter how the sockets
/// interleave at the server. Within one job, lines from all sessions are
/// interleaved into one cluster-wide timeline (stable sort by timestamp).
fn plan_senders(session_jobs: &[Vec<Session>], connections: usize) -> Vec<SenderPlan> {
    let c = connections.max(1);
    let mut plans: Vec<SenderPlan> = (0..c)
        .map(|_| SenderPlan {
            lines: Vec::new(),
            ends: Vec::new(),
        })
        .collect();
    let mut session_index = 0usize;
    for sessions in session_jobs {
        let conn_of: Vec<usize> = sessions
            .iter()
            .map(|_| {
                let conn = session_index % c;
                session_index += 1;
                conn
            })
            .collect();
        let mut merged: Vec<(usize, &spell::LogLine)> = sessions
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.lines.iter().map(move |l| (i, l)))
            .collect();
        merged.sort_by_key(|(_, l)| l.ts_ms);
        for (i, line) in merged {
            plans[conn_of[i]]
                .lines
                .push((sessions[i].id.clone(), line.clone()));
        }
        for (i, s) in sessions.iter().enumerate() {
            plans[conn_of[i]].ends.push(s.id.clone());
        }
    }
    plans
}

/// Run one sender connection to completion (lines, then ENDs, flushed).
fn run_sender(
    addr: &str,
    tenant: Option<&str>,
    plan: SenderPlan,
    rate: Option<u64>,
) -> Result<(), String> {
    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    if let Some(t) = tenant {
        client.tenant(t).map_err(|e| format!("tenant: {e}"))?;
    }
    let start = Instant::now();
    let mut sent: u64 = 0;
    for (session, line) in &plan.lines {
        client
            .log(session, line)
            .map_err(|e| format!("send: {e}"))?;
        sent += 1;
        if let Some(rate) = rate.filter(|r| *r > 0) {
            if sent.is_multiple_of(64) {
                client.flush().map_err(|e| format!("flush: {e}"))?;
                let due = Duration::from_secs_f64(sent as f64 / rate as f64);
                let elapsed = start.elapsed();
                if due > elapsed {
                    sync::thread::sleep(due - elapsed);
                }
            }
        }
    }
    for s in &plan.ends {
        client.end(s).map_err(|e| format!("end: {e}"))?;
    }
    // Barrier: the PING reply is only generated once every preceding line
    // on this connection has been parsed and routed, so a joined sender
    // means its traffic is in the server — a later DRAIN cannot overtake
    // bytes still buffered in the kernel or unread by the event loop.
    client.ping().map_err(|e| format!("final ping: {e}"))
}

/// Drive a replay against a running server.
pub fn run_replay(
    addr: &str,
    detector: &Detector,
    cfg: &ReplayConfig,
) -> Result<ReplayOutcome, String> {
    let jobs = generate_jobs(cfg);
    let session_jobs: Vec<Vec<Session>> =
        jobs.iter().map(|j| job_sessions(j, cfg.adapter)).collect();
    let offline_sessions: Vec<Session> = session_jobs.iter().flatten().cloned().collect();
    let total_lines: usize = offline_sessions.iter().map(|s| s.len()).sum();
    let connections = cfg.connections.max(1);
    let per_conn_rate = cfg.rate.map(|r| (r / connections as u64).max(1));

    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    if let Some(t) = &cfg.tenant {
        client.tenant(t).map_err(|e| format!("tenant: {e}"))?;
    }

    let mut plans = plan_senders(&session_jobs, connections);
    let start = Instant::now();
    // N−1 sender threads; the last plan is sent from this thread so a
    // single-connection replay spawns nothing.
    let mut handles = Vec::new();
    let last_plan = plans.pop().ok_or("no sender plan")?;
    for (i, plan) in plans.into_iter().enumerate() {
        let addr = addr.to_string();
        let tenant = cfg.tenant.clone();
        let handle = sync::thread::Builder::new()
            .name(format!("intellog-replay-{i}"))
            .spawn(move || run_sender(&addr, tenant.as_deref(), plan, per_conn_rate))
            .map_err(|e| format!("spawn sender {i}: {e}"))?;
        handles.push(handle);
    }
    run_sender(addr, cfg.tenant.as_deref(), last_plan, per_conn_rate)?;
    for h in handles {
        h.join().map_err(|_| "sender thread panicked")??;
    }
    let drained = match &cfg.tenant {
        Some(t) => client.drain_tenant(t),
        None => client.drain(),
    }
    .map_err(|e| format!("drain: {e}"))?;
    let elapsed_s = start.elapsed().as_secs_f64();
    let _ = drained; // sessions already ENDed count as closed, not drained

    let online: Vec<SessionReport> = match &cfg.tenant {
        Some(t) => client.reports_for(offline_sessions.len() * 2, t),
        None => client.reports(offline_sessions.len() * 2),
    }
    .map_err(|e| format!("reports: {e}"))?;
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;

    let by_id: BTreeMap<&str, &SessionReport> =
        online.iter().map(|r| (r.session.as_str(), r)).collect();
    let online_problematic = online.iter().filter(|r| r.is_problematic()).count();

    // offline reference: the exact same sessions through the batch
    // detector (parallel across sessions)
    let mut mismatches = Vec::new();
    let il = IntelLog::from_detector(detector.clone());
    let offline = il.detect_job(&offline_sessions);
    let offline_problematic = offline.problematic_count();
    for report in &offline.sessions {
        match by_id.get(report.session.as_str()) {
            None => mismatches.push(format!("session {}: no server report", report.session)),
            Some(served) => {
                if served.anomalies != report.anomalies {
                    mismatches.push(format!(
                        "session {}: server saw {} anomalies, offline {} — server {:?} vs offline {:?}",
                        report.session,
                        served.anomalies.len(),
                        report.anomalies.len(),
                        served.anomalies,
                        report.anomalies,
                    ));
                }
            }
        }
    }
    if online.len() != offline_sessions.len() {
        mismatches.push(format!(
            "server returned {} reports for {} sessions (idle-timeout eviction mid-replay?)",
            online.len(),
            offline_sessions.len()
        ));
    }

    Ok(ReplayOutcome {
        sessions: offline_sessions.len(),
        lines: total_lines,
        elapsed_s,
        lines_per_s: total_lines as f64 / elapsed_s.max(1e-9),
        online_problematic,
        offline_problematic,
        mismatches,
        stats,
    })
}
