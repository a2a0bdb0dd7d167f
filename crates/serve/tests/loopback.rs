//! The subsystem's core correctness property, now through the event-driven
//! gateway: replaying a workload over concurrent sockets through lossless
//! shard queues yields exactly the per-session anomaly sets that
//! offline batch detection computes — for the analytics systems including
//! TensorFlow, a fault-injected job, and an adapter-normalised foreign
//! corpus (`--format`-style syslog ingestion).
//!
//! Second half: the loop sleeps in `poll(2)` with no timer behind it, so
//! (a) an idle gateway's `loop_waits` stands still, (b) a connection the
//! sweep is not acting on — paused, held back, half-closed, not reading
//! its reply — cannot keep waking it, and (c) whatever was held up
//! completes the moment its cause goes away. Counted, not timed.

use anomaly::Detector;
use dlasim::{FaultKind, SystemKind};
use intellog_core::training_sessions;
use intellog_serve::{
    render_log, run_replay, Gateway, GatewayConfig, ModelStore, ReplayConfig, ServeClient,
};
use lognlp::format::AdapterKind;
use spell::{Level, LogLine, Session};
use std::io::{BufRead, BufReader, Write};
// lint: allow(std-net) — raw client sockets: these tests park a connection
// in states no well-behaved client stays in (silent, half-closed, deaf).
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use sync::Arc;

fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        shards: 4,
        queue_capacity: 256,
        // generous: a session must never be evicted mid-replay, or its
        // report would be split and verdicts could not match
        idle_timeout: Duration::from_secs(120),
        ring_capacity: 4096,
        ..GatewayConfig::default()
    }
}

fn replay_matches_offline_via(
    system: SystemKind,
    fault: Option<FaultKind>,
    connections: usize,
    adapter: Option<AdapterKind>,
) {
    // as `intellog serve` runs: the gated obs counters land in `METRICS` too
    obs::enable();
    let detector = Arc::new(anomaly::Trainer::default().train(&training_sessions(system, 2, 42)));
    let gateway = Gateway::bind(&gateway_config(), Arc::clone(&detector)).expect("bind");
    let (addr, join) = gateway.spawn().expect("spawn gateway");

    let replay_cfg = ReplayConfig {
        system,
        jobs: 2,
        seed: 9,
        fault,
        connections,
        adapter,
        ..ReplayConfig::default()
    };
    let outcome = run_replay(&addr.to_string(), &detector, &replay_cfg).expect("replay");

    assert!(
        outcome.mismatches.is_empty(),
        "{system:?}: online verdicts must equal offline detect_session:\n{}",
        outcome.mismatches.join("\n")
    );
    assert_eq!(outcome.online_problematic, outcome.offline_problematic);
    assert_eq!(
        outcome.stats.dropped, 0,
        "block backpressure must be lossless"
    );
    assert_eq!(outcome.stats.ingested as usize, outcome.lines);
    assert_eq!(
        outcome.stats.sessions_live, 0,
        "drain must close everything"
    );
    assert!(
        outcome.stats.connections_total >= connections as u64,
        "every replay socket must be accepted"
    );
    if fault.is_some() {
        assert!(
            outcome.online_problematic > 0,
            "{system:?}: injected fault must surface anomalies"
        );
        assert!(!outcome.stats.anomalies_by_kind.is_empty());
    }

    let mut ctl = intellog_serve::ServeClient::connect(&addr.to_string()).expect("ctl");
    let ingested = ctl.stats().expect("STATS").ingested;
    assert_valid_exposition(&ctl.metrics().expect("METRICS"), ingested);
    ctl.shutdown().expect("shutdown");
    join.join().expect("gateway thread").expect("gateway run");
}

/// `METRICS` on a multi-shard gateway is valid Prometheus text: one `TYPE`
/// line per family, none missing, each event counted under one family, and
/// the totals agree with `STATS`.
fn assert_valid_exposition(text: &str, ingested: u64) {
    let mut families = std::collections::BTreeSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let family = rest.split(' ').next().expect("a family name");
            assert!(families.insert(family), "second TYPE line for {family}");
        }
    }
    for family in [
        "intellog_serve_unexpected_suppressed_total",
        "intellog_tenant_unexpected_suppressed_total",
    ] {
        assert!(families.contains(family), "{family} is not exposed");
    }
    // One set of books: what `STATS` counts has no second, gated counter.
    for (event, spellings) in [
        (
            "connections accepted",
            &["connections_total", "connections_accepted"][..],
        ),
        ("protocol errors", &["protocol_errors"]),
        ("rebalances", &["rebalances_total", "rebalance_completed"]),
        ("sessions moved", &["sessions_moved"]),
    ] {
        let under: Vec<_> = families
            .iter()
            .filter(|f| spellings.iter().any(|s| f.contains(s)))
            .collect();
        assert_eq!(under.len(), 1, "{event} exposed as {under:?}");
    }
    let (mut total, mut shard_counts) = (None, Vec::new());
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').expect("a sample is `series value`");
        let name = series.split('{').next().expect("a metric name");
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| name.strip_suffix(suffix).filter(|f| families.contains(f)))
            .unwrap_or(name);
        assert!(families.contains(family), "no TYPE line for {line}");
        if name == "intellog_serve_ingested_total" {
            total = Some(value.parse::<u64>().expect("a counter value"));
        } else if name == "intellog_serve_feed_latency_us_count" {
            shard_counts.push(value.parse::<u64>().expect("a sample count"));
        }
    }
    assert_eq!(total, Some(ingested), "METRICS and STATS disagree");
    assert_eq!(shard_counts.len(), gateway_config().shards);
    assert_eq!(shard_counts.iter().sum::<u64>(), ingested);
}

fn replay_matches_offline(system: SystemKind, fault: Option<FaultKind>, connections: usize) {
    replay_matches_offline_via(system, fault, connections, None);
}

#[test]
fn spark_replay_with_network_fault_matches_offline() {
    replay_matches_offline(SystemKind::Spark, Some(FaultKind::NetworkFailure), 1);
}

#[test]
fn mapreduce_replay_matches_offline_over_concurrent_connections() {
    replay_matches_offline(SystemKind::MapReduce, None, 4);
}

#[test]
fn tez_replay_matches_offline() {
    replay_matches_offline(SystemKind::Tez, Some(FaultKind::SessionKill), 2);
}

#[test]
fn tensorflow_replay_matches_offline() {
    replay_matches_offline(SystemKind::TensorFlow, Some(FaultKind::NodeFailure), 2);
}

/// The `--format` ingestion path end to end: the corpus is rendered as
/// RFC-3164 syslog, normalised back through the adapter, sent over the
/// gateway and verified against offline detection on the same adapted
/// sessions — verdicts must agree exactly despite the second-resolution
/// timestamps the foreign header imposes.
#[test]
fn adapted_syslog_replay_matches_offline() {
    replay_matches_offline_via(
        SystemKind::Spark,
        Some(FaultKind::NetworkFailure),
        2,
        Some(AdapterKind::Syslog),
    );
}

/// A queue far too small for the load: lines are held back for room all
/// the time, and none is lost or reordered — verdicts still equal offline
/// detection, every line is ingested, the drain leaves no live session and
/// the gateway shuts down cleanly.
#[test]
fn lines_held_back_for_room_keep_verdicts_exact() {
    let system = SystemKind::Spark;
    let detector: Arc<Detector> =
        Arc::new(anomaly::Trainer::default().train(&training_sessions(system, 1, 42)));
    let cfg = GatewayConfig {
        shards: 1,
        queue_capacity: 4, // absurdly small: the producer waits for room
        idle_timeout: Duration::from_secs(120),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::bind(&cfg, Arc::clone(&detector)).expect("bind");
    let (addr, join) = gateway.spawn().expect("spawn gateway");

    let replay_cfg = ReplayConfig {
        system,
        jobs: 1,
        seed: 11,
        fault: Some(FaultKind::NetworkFailure),
        connections: 2,
        ..ReplayConfig::default()
    };
    let outcome = run_replay(&addr.to_string(), &detector, &replay_cfg).expect("replay");
    assert!(
        outcome.mismatches.is_empty(),
        "online verdicts must equal offline detect_session:\n{}",
        outcome.mismatches.join("\n")
    );
    assert_eq!(outcome.stats.dropped, 0, "no line is shed");
    assert_eq!(outcome.stats.ingested as usize, outcome.lines);
    assert_eq!(
        outcome.stats.sessions_live, 0,
        "drain must close everything"
    );

    let mut ctl = ServeClient::connect(&addr.to_string()).expect("ctl");
    ctl.shutdown().expect("shutdown");
    join.join().expect("gateway thread").expect("gateway run");
}

// ---------------------------------------------------------------------
// The loop sleeps, and only what it would act on wakes it.
// ---------------------------------------------------------------------

/// How long a held-up state is watched.
const QUIET: Duration = Duration::from_millis(300);

/// Most `loop_waits` may grow over [`QUIET`] with nothing happening: the
/// two `STATS` that frame the window each end one sleep themselves, and
/// the rest is slack. The loop this replaced parked on a ≤ 2 ms back-off
/// and reads ≈ 150 here (EXPERIMENTS.md "The loop sleeps in poll(2)"); a
/// socket watched but not acted on spins and reads in the tens of
/// thousands.
const FLAT: u64 = 5;

fn waits_over_quiet(ctl: &mut ServeClient) -> u64 {
    let before = ctl.stats().expect("STATS").loop_waits;
    sync::thread::sleep(QUIET);
    ctl.stats().expect("STATS").loop_waits - before
}

fn log_line(ts_ms: u64, message: &str) -> LogLine {
    LogLine {
        ts_ms,
        level: Level::Info,
        source: "X".into(),
        message: message.into(),
    }
}

/// A three-session model: cheap to train, and any other line is unexpected.
fn small_detector() -> Arc<Detector> {
    let sessions: Vec<Session> = (0..3)
        .map(|i| {
            let lines = vec![
                log_line(0, &format!("Starting task {i} in stage {i}")),
                log_line(10, &format!("memory={} vcores={i} disk={i}", 1024 + i)),
            ];
            Session::new(format!("c{i}"), lines)
        })
        .collect();
    Arc::new(anomaly::Trainer::default().train(&sessions))
}

fn spawn_small(
    cfg: GatewayConfig,
) -> (
    String,
    sync::thread::JoinHandle<std::io::Result<()>>,
    ServeClient,
) {
    let gateway = Gateway::bind(&cfg, small_detector()).expect("bind");
    let (addr, join) = gateway.spawn().expect("spawn gateway");
    let ctl = ServeClient::connect(&addr.to_string()).expect("ctl");
    (addr.to_string(), join, ctl)
}

fn stop(mut ctl: ServeClient, join: sync::thread::JoinHandle<std::io::Result<()>>) {
    ctl.shutdown().expect("shutdown");
    join.join().expect("gateway thread").expect("gateway run");
}

fn raw_client(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // a reply that never comes is a lost wake-up: fail, do not hang
    let patience = Some(Duration::from_secs(30));
    stream.set_read_timeout(patience).expect("read timeout");
    stream
}

fn read_line(reader: &mut impl BufRead) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("a reply line");
    line
}

/// A fresh named pipe: what stands in for a disk that does not answer.
fn mkfifo(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("intellog-lb-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let made = std::process::Command::new("mkfifo")
        .arg(&path)
        .status()
        .expect("run mkfifo");
    assert!(made.success(), "mkfifo {}", path.display());
    path
}

/// (a) Three open, silent connections: the loop sleeps through them.
#[test]
fn an_idle_loop_sleeps_through_silent_connections() {
    let (addr, join, mut ctl) = spawn_small(GatewayConfig::default());
    let mut silent: Vec<TcpStream> = (0..3).map(|_| raw_client(&addr)).collect();
    while ctl.stats().expect("STATS").connections_open < 4 {
        sync::thread::sleep(Duration::from_millis(1));
    }
    let waits = waits_over_quiet(&mut ctl);
    assert!(
        waits <= FLAT,
        "an idle loop slept {waits} times in {QUIET:?}: something keeps waking it"
    );
    // asleep, not deaf
    for stream in &mut silent {
        stream.write_all(b"PING\n").expect("PING");
        assert_eq!(read_line(&mut BufReader::new(stream)), "OK 0\n");
    }
    assert_eq!(ctl.stats().expect("STATS").accept_errors, 0);
    stop(ctl, join);
}

/// (b) A connection paused behind a `LOAD` whose file does not answer,
/// with its next request already in the socket — and, half-closed, an EOF
/// behind that, which reads as ready for ever.
fn paused_behind_a_slow_load(half_close: bool) {
    let (addr, join, mut ctl) = spawn_small(GatewayConfig::default());
    let model = std::env::temp_dir().join(format!(
        "intellog-lb-{}-{half_close}.ilm",
        std::process::id()
    ));
    ModelStore::save(&model, &small_detector()).expect("save model");
    let fifo = mkfifo(&format!("load-{half_close}"));

    let mut client = raw_client(&addr);
    let load = format!("LOAD\tlate\t{}\n", fifo.display());
    client.write_all(load.as_bytes()).expect("LOAD");
    // the loader thread is now stuck opening the pipe; once the loop has
    // paused the connection, give its socket something to be ready with
    ctl.ping().expect("PING");
    sync::thread::sleep(Duration::from_millis(50));
    client.write_all(b"PING\n").expect("PING");
    if half_close {
        client.shutdown(Shutdown::Write).expect("half-close");
    }
    let waits = waits_over_quiet(&mut ctl);
    assert!(
        waits <= FLAT,
        "a paused connection woke the loop {waits} times in {QUIET:?}"
    );

    // (c) the file answers: the reply, then the request queued behind it
    std::fs::write(&fifo, std::fs::read(&model).expect("model bytes")).expect("feed the pipe");
    let mut reader = BufReader::new(client);
    assert_eq!(read_line(&mut reader), "OK 1\n");
    assert!(read_line(&mut reader).starts_with("LOADED\tlate\t1\t"));
    assert_eq!(read_line(&mut reader), "OK 0\n");
    if half_close {
        assert_eq!(read_line(&mut reader), "", "served to the end, then closed");
    }
    stop(ctl, join);
    let _ = std::fs::remove_file(&fifo);
    let _ = std::fs::remove_file(&model);
}

#[test]
fn a_connection_paused_behind_a_slow_load_cannot_spin_the_loop() {
    paused_behind_a_slow_load(false);
}

#[test]
fn nor_can_it_once_half_closed() {
    paused_behind_a_slow_load(true);
}

/// (b) A connection held back behind a full queue whose shard is stuck —
/// writing a report to a sink nobody reads — with unread input (and,
/// half-closed, an EOF) in its socket. No timer retries the line: the
/// shard's next drain has to wake the loop.
fn blocked_behind_a_full_queue(half_close: bool) {
    const SESSIONS: u64 = 3000;
    let fifo = mkfifo(&format!("sink-{half_close}"));
    let cfg = GatewayConfig {
        shards: 1,
        queue_capacity: 4,
        sink_path: Some(fifo.clone()),
        ..GatewayConfig::default()
    };
    // opening a pipe waits for its other end: open both at once
    let opener = {
        let fifo = fifo.clone();
        sync::thread::spawn(move || std::fs::File::open(fifo).expect("open the sink's reader"))
    };
    let (addr, join, mut ctl) = spawn_small(cfg);
    let mut sink_reader = opener.join().expect("opener thread");

    // every session is one unexpected line: a problematic report each,
    // far more of them than a pipe holds
    let mut wire = Vec::new();
    for i in 0..SESSIONS {
        let line = log_line(i, "spill 1 written to /tmp/x.out");
        wire.extend_from_slice(render_log(&format!("s{i}"), &line).as_bytes());
        wire.extend_from_slice(format!("\nEND\ts{i}\n").as_bytes());
    }
    let mut client = raw_client(&addr);
    let sender = sync::thread::spawn(move || {
        client.write_all(&wire).expect("send");
        if half_close {
            client.shutdown(Shutdown::Write).expect("half-close");
        }
        client
    });
    // held up: lines went in, and then stopped going in
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let before = ctl.stats().expect("STATS");
        sync::thread::sleep(Duration::from_millis(100));
        let after = ctl.stats().expect("STATS");
        if after.ingested > 0 && after.ingested == before.ingested {
            assert!(after.ingested < SESSIONS, "the sink never pushed back");
            assert!(after.per_shard[0].queue_len >= 4, "the queue is full");
            break;
        }
        assert!(Instant::now() < deadline, "the shard never got stuck");
    }
    let waits = waits_over_quiet(&mut ctl);
    assert!(
        waits <= FLAT,
        "a held-back connection woke the loop {waits} times in {QUIET:?}"
    );

    // (c) Somebody reads the sink, and nobody talks to the gateway until
    // every report is out — the sender's bytes all sit in a socket the loop
    // is not watching — so each retry of the held-back line is the work of
    // a shard's drain waking the loop, thousands of times over.
    let _client = sender.join().expect("the send fits the socket's buffers");
    let reader = sync::thread::spawn(move || {
        let mut reports = BufReader::new(&mut sink_reader).lines();
        let read = reports.by_ref().take(SESSIONS as usize).count() as u64;
        (read, sink_reader)
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    while !reader.is_finished() {
        assert!(Instant::now() < deadline, "held-back lines never resumed");
        sync::thread::sleep(Duration::from_millis(5));
    }
    let (read, _sink_reader) = reader.join().expect("reader thread");
    assert_eq!(read, SESSIONS, "every session's report reached the sink");
    let stats = ctl.stats().expect("STATS");
    assert_eq!((stats.ingested, stats.dropped), (SESSIONS, 0));
    stop(ctl, join);
    let _ = std::fs::remove_file(&fifo);
}

#[test]
fn a_connection_blocked_behind_a_full_queue_cannot_spin_the_loop() {
    blocked_behind_a_full_queue(false);
}

#[test]
fn nor_can_it_once_half_closed_and_room_still_wakes_the_loop() {
    blocked_behind_a_full_queue(true);
}

/// (b) A client that asked for more than its socket holds and is not
/// reading: the loop wants to write, cannot, and must sleep on it.
#[test]
fn a_client_not_reading_its_reply_cannot_spin_the_loop() {
    const SESSIONS: usize = 1000;
    let (addr, join, mut ctl) = spawn_small(GatewayConfig::default());
    for i in 0..SESSIONS {
        let session = format!("s{i}");
        ctl.log(&session, &log_line(0, "spill 1 written to /tmp/x.out"))
            .expect("LOG");
        ctl.end(&session).expect("END");
    }
    ctl.drain().expect("DRAIN");
    let reports = ctl.reports(SESSIONS).expect("REPORTS");
    assert_eq!(reports.len(), SESSIONS);
    let reply_bytes: usize = reports
        .iter()
        .map(|r| serde_json::to_string(r).expect("report json").len() + 1)
        .sum();
    // far more than two socket buffers take, well under MAX_WRITE_BUFFER
    let requests = (24 << 20) / reply_bytes + 1;

    let mut client = raw_client(&addr);
    let asked = format!("REPORTS\t{SESSIONS}\n").repeat(requests);
    client.write_all(asked.as_bytes()).expect("REPORTS");
    sync::thread::sleep(Duration::from_millis(200));
    let waits = waits_over_quiet(&mut ctl);
    assert!(
        waits <= FLAT,
        "a full socket woke the loop {waits} times in {QUIET:?}"
    );

    // (c) the client reads: every reply arrives, whole
    let mut reader = BufReader::new(client);
    for _ in 0..requests {
        assert_eq!(read_line(&mut reader), format!("OK {SESSIONS}\n"));
        for _ in 0..SESSIONS {
            assert!(read_line(&mut reader).starts_with('{'));
        }
    }
    stop(ctl, join);
}
