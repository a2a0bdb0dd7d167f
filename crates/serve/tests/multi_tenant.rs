//! Multi-tenant acceptance tests: two tenants with different models served
//! concurrently through one gateway; hot reload mid-stream switches only
//! the reloaded tenant's verdicts, with sessions that straddle the reload
//! pinned to the version they opened under; shard add/drain under live
//! load loses nothing.

use anomaly::{Detector, SessionReport, Trainer};
use dlasim::SystemKind;
use intellog_core::{sessions_from_job, training_sessions, IntelLog};
use intellog_serve::{
    run_replay, Gateway, GatewayConfig, ModelStore, ReplayConfig, ServeClient, TenantRegistry,
};
use spell::Session;
use std::path::PathBuf;
use std::time::Duration;
use sync::Arc;

fn train(system: SystemKind, jobs: usize, seed: u64) -> Arc<Detector> {
    Arc::new(Trainer::default().train(&training_sessions(system, jobs, seed)))
}

/// Save a detector into a fresh model file under the system temp dir.
fn save_model(tag: &str, detector: &Detector) -> PathBuf {
    let path = std::env::temp_dir().join(format!("intellog-mt-{}-{tag}.model", std::process::id()));
    ModelStore::save(&path, detector).expect("save model");
    path
}

fn offline_reports(detector: &Detector, sessions: &[Session]) -> Vec<SessionReport> {
    IntelLog::from_detector(detector.clone())
        .detect_job(sessions)
        .sessions
}

fn gateway_config(shards: usize) -> GatewayConfig {
    GatewayConfig {
        shards,
        queue_capacity: 256,
        idle_timeout: Duration::from_secs(120),
        ..GatewayConfig::default()
    }
}

/// Two tenants, different models, replayed concurrently over the same
/// gateway — each tenant's online verdicts must match its *own* model's
/// offline detection, even though the workloads share session ids.
#[test]
fn two_tenants_serve_concurrently_with_isolated_verdicts() {
    let det_a = train(SystemKind::Spark, 2, 42);
    let det_b = train(SystemKind::Spark, 1, 77);
    let path_a = save_model("alpha-v1", &det_a);
    let path_b = save_model("beta-v1", &det_b);

    let registry = Arc::new(TenantRegistry::new());
    let gateway =
        Gateway::bind_with_registry(&gateway_config(4), Arc::clone(&registry)).expect("bind");
    let (addr, join) = gateway.spawn().expect("spawn");

    // Register both tenants over the wire (exercises the background LOAD).
    let mut ctl = ServeClient::connect(&addr.to_string()).expect("ctl");
    let loaded = ctl
        .load("alpha", path_a.to_str().unwrap())
        .expect("load alpha");
    assert!(loaded.starts_with("LOADED\talpha\t1\t"), "got {loaded:?}");
    ctl.load("beta", path_b.to_str().unwrap())
        .expect("load beta");

    let replay_for = |tenant: &str| ReplayConfig {
        system: SystemKind::Spark,
        jobs: 2,
        seed: 9,
        connections: 2,
        tenant: Some(tenant.to_string()),
        ..ReplayConfig::default()
    };
    let addr_b = addr.to_string();
    let det_b2 = Arc::clone(&det_b);
    let beta = sync::thread::Builder::new()
        .name("beta-replay".into())
        .spawn(move || run_replay(&addr_b, &det_b2, &replay_for("beta")))
        .expect("spawn beta");
    let alpha_out =
        run_replay(&addr.to_string(), &det_a, &replay_for("alpha")).expect("alpha replay");
    let beta_out = beta.join().expect("beta thread").expect("beta replay");

    for (name, out) in [("alpha", &alpha_out), ("beta", &beta_out)] {
        assert!(
            out.mismatches.is_empty(),
            "{name}: online must match that tenant's own model:\n{}",
            out.mismatches.join("\n")
        );
        assert_eq!(out.stats.dropped, 0);
    }
    // The two models genuinely disagree on this workload — otherwise the
    // isolation assert above would be vacuous.
    assert_ne!(
        alpha_out.online_problematic, beta_out.online_problematic,
        "pick training seeds whose models disagree on the replayed workload"
    );

    let stats = ctl.stats().expect("stats");
    let tenants: Vec<&str> = stats.per_tenant.iter().map(|t| t.tenant.as_str()).collect();
    assert!(tenants.contains(&"alpha") && tenants.contains(&"beta"));
    for t in &stats.per_tenant {
        assert_eq!(
            t.sessions_live, 0,
            "{}: drain must close everything",
            t.tenant
        );
        assert!(t.lines > 0, "{}: lines must be attributed", t.tenant);
    }

    ctl.shutdown().expect("shutdown");
    join.join().expect("gateway thread").expect("gateway run");
    let _ = std::fs::remove_file(path_a);
    let _ = std::fs::remove_file(path_b);
}

/// Hot reload mid-stream: a session that straddles the reload finishes on
/// the version it opened under; a session opened after the reload uses the
/// new version; an untouched tenant keeps its model.
#[test]
fn hot_reload_pins_straddling_sessions_and_spares_other_tenants() {
    // v1 is deliberately undertrained (a sliver of the corpus) so the
    // reload to the fully trained v2 visibly changes verdicts.
    let corpus = training_sessions(SystemKind::Spark, 3, 100);
    let det_v1 = Arc::new(Trainer::default().train(&corpus[..2]));
    let det_v2 = Arc::new(Trainer::default().train(&corpus));
    let det_b = train(SystemKind::Spark, 1, 77);
    let path_v1 = save_model("reload-v1", &det_v1);
    let path_v2 = save_model("reload-v2", &det_v2);
    let path_b = save_model("reload-b", &det_b);

    // Two probe sessions from a detection workload (richer than training
    // traffic); require the two model versions to disagree on the
    // straddling one so pinning is observable.
    let mut gen = dlasim::WorkloadGen::new(9, 8);
    let job = dlasim::generate(&gen.detection_config(SystemKind::Spark, 0), None);
    let sessions = sessions_from_job(&job);
    let straddle = sessions
        .iter()
        .find(|s| {
            s.lines.len() >= 4
                && offline_reports(&det_v1, std::slice::from_ref(s))[0].anomalies
                    != offline_reports(&det_v2, std::slice::from_ref(s))[0].anomalies
        })
        .expect("no session distinguishes v1 from v2 — change training seeds")
        .clone();
    let fresh = sessions
        .iter()
        .find(|s| s.id != straddle.id && s.lines.len() >= 2)
        .expect("need a second session")
        .clone();

    let registry = Arc::new(TenantRegistry::new());
    let gateway =
        Gateway::bind_with_registry(&gateway_config(2), Arc::clone(&registry)).expect("bind");
    let (addr, join) = gateway.spawn().expect("spawn");

    let mut ctl = ServeClient::connect(&addr.to_string()).expect("ctl");
    ctl.load("alpha", path_v1.to_str().unwrap())
        .expect("load v1");
    ctl.load("beta", path_b.to_str().unwrap())
        .expect("load beta");

    let mut data = ServeClient::connect(&addr.to_string()).expect("data conn");
    data.tenant("alpha").expect("tenant alpha");
    let half = straddle.lines.len() / 2;
    for line in &straddle.lines[..half] {
        data.log(&straddle.id, line).expect("log");
    }
    // Make sure the shard actually *opened* the session under v1 before
    // the swap lands (routing alone is not enough — the lease is taken
    // when the shard consumes the first line).
    data.ping().expect("barrier");
    loop {
        let s = ctl.stats().expect("stats");
        if s.sessions_live >= 1 {
            break;
        }
        sync::thread::sleep(Duration::from_millis(2));
    }

    let loaded = ctl
        .load("alpha", path_v2.to_str().unwrap())
        .expect("load v2");
    assert!(loaded.starts_with("LOADED\talpha\t2\t"), "got {loaded:?}");

    for line in &straddle.lines[half..] {
        data.log(&straddle.id, line).expect("log");
    }
    data.end(&straddle.id).expect("end straddle");
    for line in &fresh.lines {
        data.log(&fresh.id, line).expect("log");
    }
    data.end(&fresh.id).expect("end fresh");
    data.ping().expect("barrier");
    ctl.drain_tenant("alpha").expect("drain");

    let reports = ctl.reports_for(16, "alpha").expect("reports");
    let find = |id: &str| {
        reports
            .iter()
            .find(|r| r.session == id)
            .unwrap_or_else(|| panic!("no report for {id}"))
    };
    assert_eq!(
        find(&straddle.id).anomalies,
        offline_reports(&det_v1, std::slice::from_ref(&straddle))[0].anomalies,
        "session opened under v1 must finish under v1"
    );
    assert_eq!(
        find(&fresh.id).anomalies,
        offline_reports(&det_v2, std::slice::from_ref(&fresh))[0].anomalies,
        "session opened after the reload must use v2"
    );

    // The untouched tenant still serves its original model.
    let beta_cfg = ReplayConfig {
        system: SystemKind::Spark,
        jobs: 1,
        seed: 13,
        tenant: Some("beta".into()),
        ..ReplayConfig::default()
    };
    let beta_out = run_replay(&addr.to_string(), &det_b, &beta_cfg).expect("beta replay");
    assert!(
        beta_out.mismatches.is_empty(),
        "beta must be untouched by alpha's reload:\n{}",
        beta_out.mismatches.join("\n")
    );

    let stats = ctl.stats().expect("stats");
    let alpha = stats
        .per_tenant
        .iter()
        .find(|t| t.tenant == "alpha")
        .expect("alpha stats");
    assert_eq!(alpha.model_version, 2);
    assert_eq!(alpha.reloads, 1);
    let beta_t = stats
        .per_tenant
        .iter()
        .find(|t| t.tenant == "beta")
        .expect("beta stats");
    assert_eq!(beta_t.model_version, 1);
    assert_eq!(beta_t.reloads, 0);

    ctl.shutdown().expect("shutdown");
    join.join().expect("gateway thread").expect("gateway run");
    for p in [path_v1, path_v2, path_b] {
        let _ = std::fs::remove_file(p);
    }
}

/// ADDSHARD and DRAINSHARD while a paced replay is in flight: the ring
/// grows, a shard drains its live sessions to the survivors, and every
/// verdict still matches offline detection with zero losses.
#[test]
fn shard_add_and_drain_under_live_load_lose_nothing() {
    let detector = train(SystemKind::MapReduce, 2, 42);
    let gateway = Gateway::bind(&gateway_config(2), Arc::clone(&detector)).expect("bind");
    let (addr, join) = gateway.spawn().expect("spawn");

    let replay_cfg = ReplayConfig {
        system: SystemKind::MapReduce,
        jobs: 2,
        seed: 9,
        connections: 4,
        rate: Some(400), // pace the replay so the churn lands mid-stream
        ..ReplayConfig::default()
    };
    let addr_r = addr.to_string();
    let det_r = Arc::clone(&detector);
    let replay = sync::thread::Builder::new()
        .name("churn-replay".into())
        .spawn(move || run_replay(&addr_r, &det_r, &replay_cfg))
        .expect("spawn replay");

    let mut ctl = ServeClient::connect(&addr.to_string()).expect("ctl");
    sync::thread::sleep(Duration::from_millis(150));
    let new_index = ctl.add_shard().expect("add shard");
    assert_eq!(new_index, 2, "third shard gets the next index");
    sync::thread::sleep(Duration::from_millis(100));
    let pre = ctl.stats().expect("stats");
    let moved = ctl.drain_shard(0).expect("drain shard 0");

    let outcome = replay.join().expect("replay thread").expect("replay");
    assert!(
        outcome.mismatches.is_empty(),
        "verdicts must survive shard churn:\n{}",
        outcome.mismatches.join("\n")
    );
    assert_eq!(outcome.stats.dropped, 0, "churn must not shed lines");
    assert_eq!(outcome.stats.ingested as usize, outcome.lines);
    assert_eq!(outcome.stats.sessions_live, 0);
    assert!(
        outcome.stats.rebalances >= 2,
        "add + drain are both rebalances (got {})",
        outcome.stats.rebalances
    );
    // The paced replay keeps all sessions open until its tail, so the
    // drained shard always owned live sessions.
    assert!(moved > 0, "draining a loaded shard must move its sessions");
    assert_eq!(
        outcome.stats.sessions_moved - pre.sessions_moved,
        moved as u64,
        "the DRAINSHARD reply must count exactly the drain's moves"
    );

    ctl.shutdown().expect("shutdown");
    join.join().expect("gateway thread").expect("gateway run");
}
