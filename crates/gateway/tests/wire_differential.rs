//! Wire differential: how a byte stream is cut into socket writes, spread
//! over connections or interleaved with `TENANT` switches must not change
//! what the gateway makes of it. One MapReduce corpus is sent
//!
//! * (a) one protocol line per write,
//! * (b) as a single write,
//! * (c) in 7-byte writes, so that lines, and the fields inside them,
//!   straddle the gateway's reads,
//! * (d) over two concurrent connections, each a single write that
//!   switches `TENANT` in the middle of its lines,
//!
//! and every run must yield the same `REPORTS` — equal to offline
//! `detect_session` — and the same `STATS` line counts. A line that
//! outgrows the read buffer costs its connection, and only it.

use anomaly::{Detector, SessionReport};
use dlasim::{FaultKind, SystemKind};
use intellog_core::sessions_from_job;
use intellog_gateway::{Gateway, GatewayConfig, MAX_READ_BUFFER};
use intellog_serve::{render_log, Backpressure, ServeClient, StatsSnapshot, TenantRegistry};
use spell::Session;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
// lint: allow(std-net) — the client side of the loopback socket; the test
// needs exact control over where each write ends.
use std::net::TcpStream;
use std::time::Duration;
use sync::Arc;

const SYSTEM: SystemKind = SystemKind::MapReduce;

fn trained() -> Arc<Detector> {
    let mut gen = dlasim::WorkloadGen::new(42, 8);
    let mut sessions = Vec::new();
    for j in 0..2 {
        let job = dlasim::generate(&gen.training_config(SYSTEM), None);
        for (i, mut s) in sessions_from_job(&job).into_iter().enumerate() {
            s.id = format!("train{j}_{i}_{}", s.id);
            sessions.push(s);
        }
    }
    Arc::new(anomaly::Trainer::default().train(&sessions))
}

/// One fault-injected job's sessions (those with at least one line).
fn corpus() -> Vec<Session> {
    let mut gen = dlasim::WorkloadGen::new(9, 8);
    let cfg = gen.detection_config(SYSTEM, 0);
    let plan = gen.fault_plan(FaultKind::NodeFailure);
    sessions_from_job(&dlasim::generate(&cfg, Some(&plan)))
        .into_iter()
        .filter(|s| !s.lines.is_empty())
        .collect()
}

/// The wire form of `sessions`: one cluster-wide timeline, each session's
/// `END` right behind its last line.
fn wire(sessions: &[&Session]) -> Vec<String> {
    let mut merged: Vec<(usize, &spell::LogLine)> = sessions
        .iter()
        .enumerate()
        .flat_map(|(i, s)| s.lines.iter().map(move |l| (i, l)))
        .collect();
    merged.sort_by_key(|(_, l)| l.ts_ms);
    let mut left: Vec<usize> = sessions.iter().map(|s| s.len()).collect();
    let mut out = Vec::new();
    for (i, line) in merged {
        out.push(render_log(&sessions[i].id, line));
        left[i] -= 1;
        if left[i] == 0 {
            out.push(format!("END\t{}", sessions[i].id));
        }
    }
    out
}

struct Running {
    addr: String,
    ctl: ServeClient,
    join: sync::thread::JoinHandle<std::io::Result<()>>,
}

fn start(detector: &Arc<Detector>) -> Running {
    let cfg = GatewayConfig {
        shards: 2,
        queue_capacity: 256,
        backpressure: Backpressure::Block,
        idle_timeout: Duration::from_secs(120),
        ..GatewayConfig::default()
    };
    let registry = Arc::new(TenantRegistry::new());
    for tenant in [intellog_serve::DEFAULT_TENANT, "alpha", "beta"] {
        registry.register(tenant, Arc::clone(detector));
    }
    let gateway = Gateway::bind_with_registry(&cfg, registry).expect("bind");
    let (addr, join) = gateway.spawn().expect("spawn gateway");
    let addr = addr.to_string();
    let ctl = ServeClient::connect(&addr).expect("control connection");
    Running { addr, ctl, join }
}

/// Send `writes`, one `write_all` each, then `PING`, and wait until the
/// gateway has answered every verb that has a reply — so everything sent
/// is in a shard queue.
fn send(addr: &str, writes: &[&[u8]]) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut replies = 1;
    for w in writes {
        stream.write_all(w).expect("write");
        replies += w
            .split(|&b| b == b'\n')
            .filter(|l| l.starts_with(b"TENANT\t"))
            .count();
    }
    stream.write_all(b"PING\n").expect("write PING");
    let mut reader = BufReader::new(stream);
    for _ in 0..replies {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        assert_eq!(reply, "OK 0\n");
    }
}

/// Drain, then collect the reports of `tenants` by session and `STATS`.
fn outcome(
    mut running: Running,
    tenants: &[&str],
) -> (BTreeMap<String, SessionReport>, StatsSnapshot) {
    running.ctl.drain().expect("DRAIN");
    let mut reports = BTreeMap::new();
    for tenant in tenants {
        for r in running.ctl.reports_for(4096, tenant).expect("REPORTS") {
            assert!(
                reports.insert(r.session.clone(), r).is_none(),
                "a session was reported twice"
            );
        }
    }
    let stats = running.ctl.stats().expect("STATS");
    running.ctl.shutdown().expect("SHUTDOWN");
    running
        .join
        .join()
        .expect("gateway thread")
        .expect("gateway run");
    (reports, stats)
}

#[test]
fn chunking_connections_and_tenant_switches_do_not_change_the_outcome() {
    let detector = trained();
    let sessions = corpus();
    let offline: BTreeMap<String, SessionReport> = sessions
        .iter()
        .map(|s| (s.id.clone(), detector.detect_session(s)))
        .collect();
    assert!(
        offline.values().any(SessionReport::is_problematic),
        "the injected fault must surface, or equal reports prove little"
    );
    let total_lines: usize = sessions.iter().map(Session::len).sum();
    let all: Vec<&Session> = sessions.iter().collect();
    let lines = wire(&all);
    let mut bytes = Vec::new();
    for l in &lines {
        bytes.extend_from_slice(l.as_bytes());
        bytes.push(b'\n');
    }

    let mut outcomes = Vec::new();
    let default = [intellog_serve::DEFAULT_TENANT];

    // (a) one line per write
    let running = start(&detector);
    let per_line: Vec<Vec<u8>> = lines
        .iter()
        .map(|l| format!("{l}\n").into_bytes())
        .collect();
    send(
        &running.addr,
        &per_line.iter().map(Vec::as_slice).collect::<Vec<_>>(),
    );
    outcomes.push(("one line per write", outcome(running, &default)));

    // (b) a single write
    let running = start(&detector);
    send(&running.addr, &[&bytes]);
    outcomes.push(("a single write", outcome(running, &default)));

    // (c) 7-byte writes
    let running = start(&detector);
    send(&running.addr, &bytes.chunks(7).collect::<Vec<_>>());
    outcomes.push(("7-byte writes", outcome(running, &default)));

    // (d) two connections, each one write switching tenant mid-stream
    let running = start(&detector);
    let senders: Vec<_> = (0..2)
        .map(|conn| {
            let mine: Vec<&Session> = all.iter().skip(conn).step_by(2).copied().collect();
            let (first, second) = mine.split_at(mine.len() / 2);
            let mut stream = b"TENANT\talpha\n".to_vec();
            for l in wire(first) {
                stream.extend_from_slice(format!("{l}\n").as_bytes());
            }
            stream.extend_from_slice(b"TENANT\tbeta\n");
            for l in wire(second) {
                stream.extend_from_slice(format!("{l}\n").as_bytes());
            }
            let addr = running.addr.clone();
            sync::thread::spawn(move || send(&addr, &[&stream]))
        })
        .collect();
    for s in senders {
        s.join().expect("sender thread");
    }
    let (reports, stats) = outcome(running, &["alpha", "beta"]);
    let by_tenant = |t: &str| {
        stats
            .per_tenant
            .iter()
            .find(|p| p.tenant == t)
            .map_or(0, |p| p.lines)
    };
    assert!(by_tenant("alpha") > 0 && by_tenant("beta") > 0);
    assert_eq!(by_tenant("alpha") + by_tenant("beta"), total_lines as u64);
    outcomes.push(("two connections switching tenant", (reports, stats)));

    for (mode, (reports, stats)) in &outcomes {
        assert_eq!(
            reports.len(),
            offline.len(),
            "{mode}: one report per session"
        );
        for (id, expected) in &offline {
            assert_eq!(reports.get(id), Some(expected), "{mode}: session {id}");
        }
        assert_eq!(stats.ingested, total_lines as u64, "{mode}");
        assert_eq!(stats.dropped, 0, "{mode}");
        assert_eq!(stats.protocol_errors, 0, "{mode}");
        assert_eq!(stats.sessions_live, 0, "{mode}");
        assert_eq!(stats.reports_completed, sessions.len() as u64, "{mode}");
        let fed: u64 = stats.per_shard.iter().map(|s| s.ingested).sum();
        assert_eq!(fed, total_lines as u64, "{mode}: per-shard counts add up");
    }
}

#[test]
fn a_line_that_outgrows_the_read_buffer_costs_only_its_connection() {
    let detector = trained();
    let mut running = start(&detector);
    let mut bystander = ServeClient::connect(&running.addr).expect("bystander");
    bystander.ping().expect("bystander ping");

    // 9 MiB with no newline: the write fails once the gateway hangs up, or
    // succeeds into socket buffers — either way no reply ever comes.
    let mut hog = TcpStream::connect(&running.addr).expect("connect");
    let flood = vec![b'x'; MAX_READ_BUFFER + (1 << 20)];
    let sent = hog
        .write_all(&flood)
        .and_then(|_| hog.write_all(b"\nPING\n"));
    let mut reply = String::new();
    let answered = sent.is_ok()
        && BufReader::new(hog)
            .read_line(&mut reply)
            .is_ok_and(|n| n > 0);
    assert!(
        !answered,
        "the oversized line's connection must be dropped, got {reply:?}"
    );

    bystander.ping().expect("other connections are unaffected");
    let stats = running.ctl.stats().expect("STATS");
    assert_eq!(stats.connections_open, 2, "control and bystander remain");
    assert_eq!(stats.connections_total, 3);
    assert_eq!(stats.ingested, 0);
    running.ctl.shutdown().expect("SHUTDOWN");
    running
        .join
        .join()
        .expect("gateway thread does not panic")
        .expect("gateway run");
}
