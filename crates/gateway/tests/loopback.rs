//! The subsystem's core correctness property, now through the event-driven
//! gateway: replaying a workload over concurrent sockets with lossless
//! (`block`) backpressure yields exactly the per-session anomaly sets that
//! offline batch detection computes — for the analytics systems including
//! TensorFlow, a fault-injected job, and an adapter-normalised foreign
//! corpus (`--format`-style syslog ingestion).

use anomaly::Detector;
use dlasim::{FaultKind, SystemKind};
use intellog_core::sessions_from_job;
use intellog_gateway::{Gateway, GatewayConfig};
use intellog_serve::{run_replay, Backpressure, ReplayConfig};
use lognlp::format::AdapterKind;
use spell::Session;
use std::time::Duration;
use sync::Arc;

fn train_sessions(system: SystemKind, jobs: usize, seed: u64) -> Vec<Session> {
    let mut gen = dlasim::WorkloadGen::new(seed, 8);
    let mut out = Vec::new();
    for j in 0..jobs {
        let cfg = gen.training_config(system);
        let job = dlasim::generate(&cfg, None);
        for (i, mut s) in sessions_from_job(&job).into_iter().enumerate() {
            s.id = format!("train{j}_{i}_{}", s.id);
            out.push(s);
        }
    }
    out
}

fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        shards: 4,
        queue_capacity: 256,
        backpressure: Backpressure::Block,
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
    let detector = Arc::new(anomaly::Trainer::default().train(&train_sessions(system, 2, 42)));
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

/// Every backpressure policy against a queue far too small for the load
/// accounts for every line, stays responsive, drains to zero live sessions
/// and shuts down cleanly; only `block` may not shed.
#[test]
fn every_backpressure_policy_accounts_for_every_line_under_pressure() {
    let system = SystemKind::Spark;
    let detector: Arc<Detector> =
        Arc::new(anomaly::Trainer::default().train(&train_sessions(system, 1, 42)));
    for policy in [
        Backpressure::Block,
        Backpressure::DropNewest,
        Backpressure::DropOldest,
    ] {
        let cfg = GatewayConfig {
            shards: 1,
            queue_capacity: 4, // absurdly small: force shedding
            backpressure: policy,
            idle_timeout: Duration::from_secs(120),
            ..GatewayConfig::default()
        };
        let gateway = Gateway::bind(&cfg, Arc::clone(&detector)).expect("bind");
        let (addr, join) = gateway.spawn().expect("spawn gateway");

        let replay_cfg = ReplayConfig {
            system,
            jobs: 1,
            seed: 11,
            verify: false, // lossy by design: verdicts will differ
            ..ReplayConfig::default()
        };
        let outcome = run_replay(&addr.to_string(), &detector, &replay_cfg).expect("replay");
        let name = policy.name();
        assert_eq!(
            outcome.stats.ingested + outcome.stats.dropped,
            outcome.lines as u64,
            "{name}: every line is either processed or counted as shed"
        );
        if matches!(policy, Backpressure::Block) {
            assert_eq!(outcome.stats.dropped, 0, "block never sheds");
        }
        // the gateway must stay responsive and drain cleanly even while shedding
        assert_eq!(outcome.stats.sessions_live, 0, "{name}");
        assert!(outcome.stats.per_shard[0].feed_p50_us > 0 || outcome.stats.ingested == 0);

        let mut ctl = intellog_serve::ServeClient::connect(&addr.to_string()).expect("ctl");
        ctl.shutdown().expect("shutdown");
        join.join().expect("gateway thread").expect("gateway run");
    }
}
