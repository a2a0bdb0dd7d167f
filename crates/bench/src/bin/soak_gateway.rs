//! Gateway soak: many tenants, churning connections and sessions, hot
//! reloads mid-stream, and shard add/drain chaos — all at once, for many
//! rounds — then a full drain and a hard accounting audit.
//!
//! What runs concurrently:
//!
//! * one driver thread per tenant, each looping rounds of connect →
//!   `TENANT` → stream a fault-injected dlasim job (faults rotate through
//!   session kills, node failures, network failures) → `END` every
//!   session → disconnect (connection churn); the first tenant's driver
//!   cuts everything it sends into 7-byte socket writes, so protocol
//!   lines straddle the gateway's reads all soak long;
//! * a chaos thread alternating `ADDSHARD` and `DRAINSHARD` of a live
//!   shard, so sessions are snapshot-moved while their lines are in
//!   flight;
//! * a reload thread hot-`LOAD`ing each tenant's model file round-robin,
//!   so leases pin model versions while the registry swaps under them.
//!
//! Then, alone on the wire so that its rate and the process's memory can be
//! read, a hostile tenant: every line unknown to its model, as a faulted job
//! or a client of the wrong deployment sends them — three lines in four to
//! one session that never ends, the rest to sessions of 30 lines. Its
//! sessions hold a bounded number of unexpected messages and count the rest,
//! so resident memory must stand still and the lines must keep flowing.
//!
//! Afterwards the soak asserts the invariants the gateway guarantees:
//! zero dropped lines (full queues hold lines back), zero protocol errors,
//! every line and every session attributed to its tenant (nothing lost
//! across moves, reloads, or connection churn), and a drain that leaves
//! no session live anywhere.
//!
//! Usage: `cargo run --release -p intellog-bench --bin soak_gateway --
//! [--smoke] [--tenants N] [--rounds N]`. `--smoke` is the CI
//! configuration (seconds, not minutes). Exit status is the verdict.

use dlasim::{FaultKind, SystemKind};
use intellog_core::{sessions_from_job, training_sessions};
use intellog_serve::{Gateway, GatewayConfig, ModelStore, ServeClient, TenantRegistry};
use std::path::PathBuf;
use std::time::Duration;
use sync::Arc;

const SYSTEMS: [SystemKind; 4] = [
    SystemKind::Spark,
    SystemKind::MapReduce,
    SystemKind::Tez,
    SystemKind::TensorFlow,
];
const FAULTS: [Option<FaultKind>; 4] = [
    Some(FaultKind::SessionKill),
    Some(FaultKind::NodeFailure),
    None,
    Some(FaultKind::NetworkFailure),
];

/// What one tenant driver sent, for the final audit.
struct SentTotals {
    tenant: String,
    sessions: u64,
    lines: u64,
}

/// Stream `rounds` fault-injected jobs for one tenant, a fresh connection
/// per round, ENDing every session. Returns the exact totals sent.
fn drive_tenant(
    addr: &str,
    tenant: String,
    tenant_index: usize,
    system: SystemKind,
    rounds: usize,
    jobs_per_round: usize,
) -> Result<SentTotals, String> {
    let mut sessions = 0u64;
    let mut lines = 0u64;
    for round in 0..rounds {
        // tenant 0 dribbles: no line arrives whole
        let write_size = if tenant_index == 0 { 7 } else { usize::MAX };
        let mut client = ServeClient::connect_chunked(addr, write_size)
            .map_err(|e| format!("{tenant}: connect: {e}"))?;
        client
            .tenant(&tenant)
            .map_err(|e| format!("{tenant}: TENANT: {e}"))?;
        let mut gen = dlasim::WorkloadGen::new(1000 + 7 * tenant_index as u64 + round as u64, 8);
        let mut batch = Vec::new();
        for j in 0..jobs_per_round {
            let cfg = gen.detection_config(system, j);
            let fault = FAULTS[(round + j) % FAULTS.len()];
            let plan = fault.map(|k| gen.fault_plan(k));
            let job = dlasim::generate(&cfg, plan.as_ref());
            for mut s in sessions_from_job(&job) {
                if s.lines.is_empty() {
                    // an END with no prior LOG never opens a session
                    // server-side, so it must not count here either
                    continue;
                }
                // round-qualified ids: reopening an id later must count as
                // a fresh session, so make them unique for the audit
                s.id = format!("r{round}j{j}-{}", s.id);
                batch.push(s);
            }
        }
        // Interleave the round's sessions chunk by chunk with light pacing:
        // every session stays open for most of the round, so the chaos
        // thread's ADDSHARD/DRAINSHARD always catches live state to move.
        const CHUNK: usize = 4;
        let max_chunks = batch
            .iter()
            .map(|s| s.lines.len().div_ceil(CHUNK))
            .max()
            .unwrap_or(0);
        for c in 0..max_chunks {
            for s in &batch {
                for line in s.lines.iter().skip(c * CHUNK).take(CHUNK) {
                    client
                        .log(&s.id, line)
                        .map_err(|e| format!("{tenant}: LOG: {e}"))?;
                    lines += 1;
                }
            }
            client
                .flush()
                .map_err(|e| format!("{tenant}: flush: {e}"))?;
            sync::thread::sleep(Duration::from_millis(3));
        }
        for s in &batch {
            client
                .end(&s.id)
                .map_err(|e| format!("{tenant}: END: {e}"))?;
            sessions += 1;
        }
        // barrier: everything this round sent is parsed and routed before
        // the connection drops
        client.ping().map_err(|e| format!("{tenant}: ping: {e}"))?;
    }
    Ok(SentTotals {
        tenant,
        sessions,
        lines,
    })
}

/// Lines per second the hostile tenant must sustain, end to end through the
/// gateway: 5 × what the parent of the memo and the caps sustained on this
/// client on the 2-vCPU reference host (EXPERIMENTS.md, "An unexpected line
/// is extracted once per template").
const HOSTILE_FLOOR_LINES_PER_S: f64 = 290_000.0;
/// Resident memory may move by this much (allocator slack, the report ring
/// turning over) between the first quarter of the hostile stream and its end.
const HOSTILE_RSS_SLACK_MIB: f64 = 16.0;

fn rss_mib() -> f64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages = statm.split(' ').nth(1).and_then(|p| p.parse::<f64>().ok());
    pages.unwrap_or(0.0) * 4096.0 / (1 << 20) as f64
}

/// Send `lines` unknown lines as `tenant` (see the module docs). Returns the
/// totals sent, the lines per second sustained and the growth of resident
/// memory over the last three quarters of the stream.
fn drive_hostile(addr: &str, tenant: &str, lines: u64) -> Result<(SentTotals, f64, f64), String> {
    let io = |e: std::io::Error| format!("{tenant}: {e}");
    let mut client = ServeClient::connect(addr).map_err(io)?;
    client.tenant(tenant).map_err(io)?;
    let mut line = spell::LogLine {
        ts_ms: 0,
        level: spell::Level::Warn,
        source: "Chaos".into(),
        message: String::new(),
    };
    // Wait until the shards have fed everything sent so far.
    let fed = |client: &mut ServeClient, sent: u64| loop {
        let stats = client.stats().map_err(io)?;
        match stats.per_tenant.iter().find(|t| t.tenant == tenant) {
            Some(t) if t.lines >= sent => return Ok::<_, String>(()),
            _ => sync::thread::sleep(Duration::from_millis(1)),
        }
    };
    let (mut sessions, mut rss_early) = (1, 0.0);
    let started = std::time::Instant::now();
    for n in 0..lines {
        let (k, h, mb) = (n % 10, n % 8, 10 + n % 90);
        line.ts_ms = n;
        line.message = match n % 5 {
            0 => {
                format!("gremlin {k} could not reach burrow{h}:4110{h} while gnawing remote cables")
            }
            1 => format!("regnawing ({k}/3) at 5 outstanding cables after {mb}00 ms"),
            2 => format!("crumb {k} of {mb} MB dropped to /tmp/crumb{k}.out"),
            3 => format!("lost gremlin {k} on burrow{h}: squeak timed out after {mb}000 ms"),
            _ => format!("gremlin {k} is chewing cable_{mb} again"),
        };
        if n % 4 == 0 {
            let short = format!("short{}", n / 120);
            sessions += (n % 120 == 0) as u64;
            client.log(&short, &line).map_err(io)?;
            if n % 120 == 116 {
                client.end(&short).map_err(io)?;
            }
        } else {
            client.log("forever", &line).map_err(io)?;
        }
        if n == lines / 4 {
            fed(&mut client, n + 1)?;
            rss_early = rss_mib();
        }
    }
    fed(&mut client, lines)?;
    let rate = lines as f64 / started.elapsed().as_secs_f64();
    let totals = SentTotals {
        tenant: tenant.to_string(),
        sessions,
        lines,
    };
    Ok((totals, rate, rss_mib() - rss_early))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut tenants: Option<usize> = None;
    let mut rounds: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--tenants" => tenants = it.next().and_then(|v| v.parse().ok()),
            "--rounds" => rounds = it.next().and_then(|v| v.parse().ok()),
            other => {
                eprintln!(
                    "soak_gateway: unknown argument {other}\n\
                     usage: soak_gateway [--smoke] [--tenants N] [--rounds N]"
                );
                std::process::exit(2);
            }
        }
    }
    let tenants = tenants.unwrap_or(if smoke { 4 } else { 6 });
    let rounds = rounds.unwrap_or(if smoke { 2 } else { 4 });
    let jobs_per_round = if smoke { 1 } else { 2 };
    let chaos_cycles = if smoke { 2 } else { 6 };

    eprintln!("soak_gateway: tenants={tenants} rounds={rounds} jobs/round={jobs_per_round}");

    // One model file per tenant (reloaded mid-soak by the reload thread).
    let registry = Arc::new(TenantRegistry::new());
    let mut model_paths: Vec<(String, PathBuf)> = Vec::new();
    for i in 0..tenants {
        let name = format!("tenant{i}");
        let system = SYSTEMS[i % SYSTEMS.len()];
        let detector = anomaly::Trainer::default().train(&training_sessions(
            system,
            if smoke { 1 } else { 2 },
            42 + i as u64,
        ));
        let path =
            std::env::temp_dir().join(format!("intellog-soak-{}-{name}.model", std::process::id()));
        ModelStore::save(&path, &detector).expect("save model");
        let detector = Arc::new(detector);
        if i == 0 {
            // the hostile tenant: a model that knows none of its lines
            registry.register("hostile", Arc::clone(&detector));
        }
        registry.register(&name, detector);
        model_paths.push((name, path));
    }

    let cfg = GatewayConfig {
        shards: 4,
        queue_capacity: 1024,
        idle_timeout: Duration::from_secs(300),
        // the reports are not read; a short ring turns over early in the
        // hostile stream, so that what it holds does not read as growth
        ring_capacity: 256,
        ..GatewayConfig::default()
    };
    let gateway = Gateway::bind_with_registry(&cfg, Arc::clone(&registry)).expect("bind");
    let (addr, join) = gateway.spawn().expect("spawn gateway");
    let addr = addr.to_string();

    // --- tenant drivers ---------------------------------------------------
    let mut drivers = Vec::new();
    for (i, (name, _)) in model_paths.iter().enumerate() {
        let addr = addr.clone();
        let name = name.clone();
        let system = SYSTEMS[i % SYSTEMS.len()];
        drivers.push(
            sync::thread::Builder::new()
                .name(format!("soak-{name}"))
                .spawn(move || drive_tenant(&addr, name, i, system, rounds, jobs_per_round))
                .expect("spawn driver"),
        );
    }

    // --- chaos: shard churn while traffic flows ---------------------------
    let chaos_addr = addr.clone();
    let chaos = sync::thread::Builder::new()
        .name("soak-chaos".into())
        .spawn(move || -> Result<(u64, u64), String> {
            let mut ctl =
                ServeClient::connect(&chaos_addr).map_err(|e| format!("chaos: connect: {e}"))?;
            let (mut added, mut moved) = (0u64, 0u64);
            for _ in 0..chaos_cycles {
                sync::thread::sleep(Duration::from_millis(25));
                ctl.add_shard()
                    .map_err(|e| format!("chaos: ADDSHARD: {e}"))?;
                added += 1;
                sync::thread::sleep(Duration::from_millis(25));
                // drain the lowest-indexed live shard ("kill" it)
                let stats = ctl.stats().map_err(|e| format!("chaos: STATS: {e}"))?;
                let victim = stats
                    .per_shard
                    .iter()
                    .map(|s| s.shard)
                    .min()
                    .ok_or("chaos: no live shard")?;
                moved += ctl
                    .drain_shard(victim)
                    .map_err(|e| format!("chaos: DRAINSHARD {victim}: {e}"))?
                    as u64;
            }
            Ok((added, moved))
        })
        .expect("spawn chaos");

    // --- hot reloads while leases are live --------------------------------
    let reload_addr = addr.clone();
    let reload_paths = model_paths.clone();
    let reload = sync::thread::Builder::new()
        .name("soak-reload".into())
        .spawn(move || -> Result<u64, String> {
            let mut ctl =
                ServeClient::connect(&reload_addr).map_err(|e| format!("reload: connect: {e}"))?;
            let mut reloads = 0u64;
            for (name, path) in reload_paths.iter().cycle().take(2 * reload_paths.len()) {
                sync::thread::sleep(Duration::from_millis(30));
                ctl.load(name, path.to_str().expect("utf8 temp path"))
                    .map_err(|e| format!("reload: LOAD {name}: {e}"))?;
                reloads += 1;
            }
            Ok(reloads)
        })
        .expect("spawn reload");

    // --- join everything, then audit --------------------------------------
    let mut failures: Vec<String> = Vec::new();
    let mut sent: Vec<SentTotals> = Vec::new();
    for d in drivers {
        match d.join().expect("driver thread") {
            Ok(totals) => sent.push(totals),
            Err(e) => failures.push(e),
        }
    }
    let (shards_added, sessions_moved_by_chaos) = match chaos.join().expect("chaos thread") {
        Ok(v) => v,
        Err(e) => {
            failures.push(e);
            (0, 0)
        }
    };
    let reloads_done = match reload.join().expect("reload thread") {
        Ok(v) => v,
        Err(e) => {
            failures.push(e);
            0
        }
    };

    // --- the hostile tenant, alone ----------------------------------------
    let hostile_lines = if smoke { 240_000 } else { 1_200_000 };
    let (hostile_rate, hostile_growth) = match drive_hostile(&addr, "hostile", hostile_lines) {
        Ok((totals, rate, growth)) => {
            sent.push(totals);
            (rate, growth)
        }
        Err(e) => {
            failures.push(e);
            (0.0, 0.0)
        }
    };

    let mut ctl = ServeClient::connect(&addr).expect("audit connect");
    ctl.drain().expect("final DRAIN");
    let stats = ctl.stats().expect("final STATS");

    let total_sessions: u64 = sent.iter().map(|t| t.sessions).sum();
    let total_lines: u64 = sent.iter().map(|t| t.lines).sum();
    eprintln!(
        "soak_gateway: sent {total_sessions} sessions / {total_lines} lines across {} tenants; \
         {shards_added} shards added, {sessions_moved_by_chaos} sessions chaos-moved, \
         {reloads_done} hot reloads",
        sent.len()
    );

    eprintln!(
        "soak_gateway: hostile tenant sustained {hostile_rate:.0} lines/s, resident memory \
         moved {hostile_growth:+.1} MiB over its last three quarters, {} lines counted not kept",
        stats.unexpected_suppressed
    );

    let mut check = |ok: bool, msg: String| {
        if !ok {
            failures.push(msg);
        }
    };
    check(
        hostile_rate >= HOSTILE_FLOOR_LINES_PER_S,
        format!("hostile tenant fed {hostile_rate:.0} lines/s < {HOSTILE_FLOOR_LINES_PER_S}"),
    );
    check(
        hostile_growth <= HOSTILE_RSS_SLACK_MIB,
        format!("resident memory grew {hostile_growth:.1} MiB under the hostile tenant"),
    );
    check(
        stats.unexpected_suppressed > hostile_lines / 2,
        format!(
            "only {} unexpected lines suppressed",
            stats.unexpected_suppressed
        ),
    );
    check(
        stats.dropped == 0,
        format!("the gateway shed {} lines", stats.dropped),
    );
    check(
        stats.protocol_errors == 0,
        format!("{} protocol errors", stats.protocol_errors),
    );
    check(
        stats.ingested == total_lines,
        format!("ingested {} != sent {total_lines}", stats.ingested),
    );
    check(
        stats.sessions_live == 0,
        format!("{} sessions still live after drain", stats.sessions_live),
    );
    check(
        sessions_moved_by_chaos > 0,
        "chaos never caught a live session (drains raced past all traffic)".to_string(),
    );
    check(
        stats.rebalances >= 2 * shards_added,
        format!(
            "expected >= {} rebalances, saw {}",
            2 * shards_added,
            stats.rebalances
        ),
    );
    for t in &sent {
        let snap = stats.per_tenant.iter().find(|p| p.tenant == t.tenant);
        match snap {
            None => check(false, format!("{}: no tenant stats", t.tenant)),
            Some(p) => {
                check(
                    p.lines == t.lines,
                    format!("{}: lines {} != sent {}", t.tenant, p.lines, t.lines),
                );
                check(
                    p.sessions_opened == t.sessions,
                    format!(
                        "{}: opened {} != sent {} (lost or duplicated sessions)",
                        t.tenant, p.sessions_opened, t.sessions
                    ),
                );
                check(
                    p.sessions_closed == t.sessions,
                    format!(
                        "{}: closed {} != sent {} (unclean drain)",
                        t.tenant, p.sessions_closed, t.sessions
                    ),
                );
                check(
                    p.sessions_live == 0,
                    format!("{}: {} live after drain", t.tenant, p.sessions_live),
                );
                check(
                    p.reloads >= 2 || t.tenant == "hostile",
                    format!("{}: only {} reloads landed", t.tenant, p.reloads),
                );
            }
        }
    }

    ctl.shutdown().expect("SHUTDOWN");
    join.join().expect("gateway thread").expect("gateway run");
    for (_, path) in &model_paths {
        let _ = std::fs::remove_file(path);
    }

    if failures.is_empty() {
        eprintln!("soak_gateway: PASS");
    } else {
        for f in &failures {
            eprintln!("soak_gateway: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
