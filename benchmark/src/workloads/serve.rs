//! The two serving workloads. Both run a fresh in-process gateway per rep
//! with `shards = nproc`, lossless `block` backpressure and a report ring
//! that holds every session, and both check `REPORTS` against offline
//! `detect_session`.
//!
//! `serve_saturate` — closed loop: one connection per CPU writes the
//! pre-rendered `LOG`/`END` bytes of a MapReduce corpus (many short
//! sessions) as fast as flow control admits; the window is first byte →
//! `DRAIN` ack. Detection is cheap per line here, so the gateway sweep,
//! `parse_log`, ring routing, the per-line `ShardMsg` and the queue
//! hand-off do most of the work, plus session open/close churn.
//!
//! `serve_paced` — open loop at a fixed [`PACED_LINES_PER_S`], about a
//! third of capacity: one connection sends a Spark corpus (long sessions)
//! in [`BATCH_LINES`]-line batches at their due times while a second
//! connection probes line-to-verdict latency every [`PROBE_INTERVAL`]. The
//! same serving layer, used for latency instead of throughput: per-batch
//! enqueueing or a bigger sweep quantum that lifts `serve_saturate` but
//! delays verdicts shows here, as does head-of-line blocking behind a long
//! session's `finish`.

use super::{
    insert_seconds, model, zero_queue_verdicts_ms, Layers, RepCost, RepSample, RunConfig, Tally,
    Workload,
};
use crate::corpus;
use crate::harness::loadgen::{self, Batch, Wire};
use crate::harness::stats::{self, Window};
use crate::harness::trace::Recorder;
use anomaly::{Detector, SessionReport, StreamState};
use dlasim::SystemKind;
use intellog_gateway::{Gateway, GatewayConfig};
use intellog_serve::{
    parse_log, session_key, AnomalySink, Backpressure, ModelStore, Ring, ServeClient, ShardHandle,
    ShardMetrics, ShardMsg, ShardQueue, StatsSnapshot, TenantRegistry, DEFAULT_TENANT,
    DEFAULT_VNODES,
};
use spell::{LogLine, Session};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};
use sync::atomic::{AtomicBool, Ordering};
use sync::{mpsc, Arc};

/// Offered load of `serve_paced`.
pub const PACED_LINES_PER_S: f64 = 25_000.0;
const BATCH_LINES: usize = 64;
const PROBE_INTERVAL: Duration = Duration::from_millis(10);
const PROBE_TENANT: &str = "probe";
/// Probe sessions differ only in id, so that they spread over the shards.
const PROBE_VARIANTS: usize = 16;
const QUEUE_CAPACITY: usize = 1024;
/// Long enough that no session is evicted mid-rep.
const IDLE_TIMEOUT: Duration = Duration::from_secs(300);

fn host_cpus() -> usize {
    sync::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What both serving workloads share: the model, the corpus in wire form
/// and the offline reference.
struct Serve {
    detector: Arc<Detector>,
    /// Wire bytes per sender connection.
    streams: Arc<Vec<Vec<u8>>>,
    sessions: Vec<Session>,
    lines: u64,
    reference: BTreeMap<String, SessionReport>,
    probe: Session,
    probe_reference: Option<SessionReport>,
    shards: usize,
    /// `STATS` of the latest rep, for the per-layer metrics.
    stats: Option<StatsSnapshot>,
}

struct Running {
    addr: String,
    ctl: ServeClient,
    join: sync::thread::JoinHandle<std::io::Result<()>>,
}

impl Serve {
    fn set_up(
        system: SystemKind,
        jobs: usize,
        connections: usize,
        name: &str,
        cfg: &RunConfig,
        rec: &mut Recorder,
    ) -> Serve {
        let model = model::train(system, cfg, name);
        let detector = Arc::new(ModelStore::load(&model).expect("load the model"));
        let jobs = rec.span("dlasim.generate", |_| {
            let seed = cfg.seed.wrapping_add(1);
            (corpus::jobs(system, jobs, seed, false), jobs as u64)
        });
        let serve = Serve {
            detector,
            streams: Arc::new(corpus::wire_streams(&jobs, connections)),
            sessions: corpus::bridged_sessions(&jobs),
            lines: corpus::total_lines(&jobs) as u64,
            reference: BTreeMap::new(),
            probe: corpus::probe_session(system),
            probe_reference: None,
            shards: host_cpus(),
            stats: None,
        };
        // a deployment binds its gateway before the first line arrives
        serve.start().stop();
        serve
    }

    fn reference(&mut self) {
        self.reference = self
            .sessions
            .iter()
            .map(|s| (s.id.clone(), self.detector.detect_session(s)))
            .collect();
        self.probe_reference = Some(self.detector.detect_session(&self.probe));
    }

    fn start(&self) -> Running {
        let cfg = GatewayConfig {
            shards: self.shards,
            queue_capacity: QUEUE_CAPACITY,
            backpressure: Backpressure::Block,
            idle_timeout: IDLE_TIMEOUT,
            // every session's report, plus a generous allowance of probes
            ring_capacity: self.sessions.len() + (1 << 14),
            ..GatewayConfig::default()
        };
        let registry = Arc::new(TenantRegistry::new());
        registry.register(DEFAULT_TENANT, Arc::clone(&self.detector));
        registry.register(PROBE_TENANT, Arc::clone(&self.detector));
        let gateway = Gateway::bind_with_registry(&cfg, registry).expect("bind the gateway");
        let (addr, join) = gateway.spawn().expect("spawn the gateway");
        let addr = addr.to_string();
        let mut ctl = ServeClient::connect(&addr).expect("connect the control client");
        ctl.ping().expect("ping the gateway");
        Running { addr, ctl, join }
    }

    /// After the window: `REPORTS` against the offline reference and the
    /// line accounting from `STATS`. `probes` is how many probe sessions
    /// were sent.
    fn audit(&mut self, running: &mut Running, probes: usize, tally: &mut Tally) {
        let probe_lines = (probes * self.probe.len()) as u64;
        let stats = running.ctl.stats().expect("STATS");
        tally.ops(self.lines + probe_lines, stats.dropped);
        tally.verify(
            stats.ingested + stats.dropped == self.lines + probe_lines,
            || {
                format!(
                    "serve: ingested {} + dropped {} != {} lines sent",
                    stats.ingested,
                    stats.dropped,
                    self.lines + probe_lines
                )
            },
        );
        tally.verify(stats.protocol_errors == 0, || {
            format!("serve: {} protocol errors", stats.protocol_errors)
        });
        self.stats = Some(stats);

        let served = running
            .ctl
            .reports_for(self.sessions.len() + 1, DEFAULT_TENANT)
            .expect("REPORTS");
        tally.verify(served.len() == self.sessions.len(), || {
            format!(
                "serve: {} reports for {} sessions",
                served.len(),
                self.sessions.len()
            )
        });
        let served: BTreeMap<&str, &SessionReport> =
            served.iter().map(|r| (r.session.as_str(), r)).collect();
        for (id, expected) in &self.reference {
            tally.verify(served.get(id.as_str()) == Some(&expected), || {
                format!("serve: session {id} differs from offline detect_session")
            });
        }
        if probes > 0 {
            let served = running
                .ctl
                .reports_for(probes + 1, PROBE_TENANT)
                .expect("REPORTS for the probe tenant");
            let expected = self
                .probe_reference
                .as_ref()
                .expect("reference is computed");
            let good = served
                .iter()
                .filter(|r| r.lines == expected.lines && r.anomalies == expected.anomalies)
                .count();
            tally.verify(served.len() == probes && good == probes, || {
                format!(
                    "serve: {good} of {} probe reports match offline for {probes} probes",
                    served.len()
                )
            });
        }
    }

    /// The pure per-layer passes over the same wire lines, plus the same
    /// lines pushed straight into shard queues with no socket in the way.
    fn layers(&self, rec: &mut Recorder, rep: &RepCost, out: &mut Layers) {
        let wire: Vec<&str> = self
            .streams
            .iter()
            .flat_map(|s| corpus::log_lines(s))
            .collect();
        let parsed: Vec<(String, LogLine)> = rec.span("serve.proto_parse", |_| {
            let parsed: Vec<_> = wire.iter().filter_map(|l| parse_log(l)).collect();
            let n = parsed.len() as u64;
            (parsed, n)
        });
        let ring = Ring::contiguous(self.shards, DEFAULT_VNODES);
        rec.span("serve.ring_route", |_| {
            for (session, _) in &parsed {
                std::hint::black_box(ring.owner(&session_key(DEFAULT_TENANT, session)));
            }
            ((), parsed.len() as u64)
        });
        rec.span("serve.queue_msg", |_| {
            let queue = ShardQueue::new(QUEUE_CAPACITY, Backpressure::Block);
            let mut batch = VecDeque::new();
            for chunk in parsed.chunks(QUEUE_CAPACITY) {
                for i in 0..chunk.len() {
                    queue.push(i);
                }
                queue.drain_timeout(Duration::ZERO, &mut batch);
                batch.clear();
            }
            ((), parsed.len() as u64)
        });
        for session in &self.sessions {
            let mut state = StreamState::begin(session.id.as_str());
            rec.span("anomaly.stream_feed", |_| {
                for line in &session.lines {
                    std::hint::black_box(state.feed(&self.detector, line));
                }
                ((), session.len() as u64)
            });
            rec.span("anomaly.stream_finish", |_| {
                (std::hint::black_box(state.finish(&self.detector)), 1)
            });
        }
        drop(parsed);
        self.shard_direct(rec, &ring);

        insert_seconds(
            out,
            rec,
            &[
                "serve.proto_parse",
                "serve.ring_route",
                "anomaly.stream_feed",
                "anomaly.stream_finish",
                "serve.shard_direct",
            ],
        );
        let queue_s = rec.seconds("serve.queue_msg");
        out.insert(
            "serve.queue_msg_ns".into(),
            queue_s * 1e9 / self.lines.max(1) as f64,
        );
        let finish = stats::ascending(&rec.durations_us("anomaly.stream_finish"));
        out.insert(
            "anomaly.finish_p99_us".into(),
            stats::quantile(&finish, stats::supported_tail(finish.len()).min(0.99)),
        );
        out.insert(
            "gateway.wire_share".into(),
            1.0 - rec.seconds("serve.shard_direct") / rep.wall_s,
        );
        let passes = rec.seconds("serve.proto_parse")
            + rec.seconds("serve.ring_route")
            + queue_s
            + rec.seconds("anomaly.stream_feed")
            + rec.seconds("anomaly.stream_finish");
        out.insert(
            "gateway.unattributed_cpu_share".into(),
            1.0 - passes / rep.cpu_s,
        );
        if let Some(stats) = &self.stats {
            let shards = &stats.per_shard;
            let max = |f: fn(&intellog_serve::ShardSnapshot) -> u64| {
                shards.iter().map(f).max().unwrap_or(0) as f64
            };
            out.insert("serve.feed_p50_us".into(), max(|s| s.feed_p50_us));
            out.insert("serve.feed_p99_us".into(), max(|s| s.feed_p99_us));
            let mean = stats.ingested as f64 / shards.len().max(1) as f64;
            out.insert(
                "serve.shard_skew".into(),
                max(|s| s.ingested) / mean.max(1.0),
            );
            out.insert("serve.dropped_lines".into(), stats.dropped as f64);
            out.insert(
                "gateway.protocol_errors".into(),
                stats.protocol_errors as f64,
            );
        }
    }

    /// The corpus as `ShardMsg`s into `ShardHandle` queues, routed by the
    /// ring, from one thread, until every shard acks a drain: the serving
    /// path minus sockets, framing and `parse_log`.
    fn shard_direct(&self, rec: &mut Recorder, ring: &Ring) {
        enum Event {
            Line(String, LogLine),
            End(String),
        }
        let events: Vec<Event> = self
            .streams
            .iter()
            .flat_map(|s| {
                std::str::from_utf8(s)
                    .expect("wire bytes are UTF-8")
                    .lines()
            })
            .filter_map(|l| match l.strip_prefix("END\t") {
                Some(session) => Some(Event::End(session.to_string())),
                None => parse_log(l).map(|(session, line)| Event::Line(session, line)),
            })
            .collect();
        let registry = TenantRegistry::new();
        let tenant = registry.register(DEFAULT_TENANT, Arc::clone(&self.detector));
        let sink = Arc::new(AnomalySink::new(self.sessions.len(), None).expect("in-memory sink"));
        let shards: Vec<ShardHandle> = (0..self.shards)
            .map(|i| {
                ShardHandle::spawn(
                    i,
                    Arc::new(ShardQueue::new(QUEUE_CAPACITY, Backpressure::Block)),
                    Arc::new(ShardMetrics::default()),
                    Arc::clone(&sink),
                    IDLE_TIMEOUT,
                )
                .expect("spawn a shard worker")
            })
            .collect();
        rec.span("serve.shard_direct", |_| {
            let n = events.len() as u64;
            for event in events {
                match event {
                    Event::Line(session, line) => {
                        let key = session_key(DEFAULT_TENANT, &session);
                        shards[ring.owner(&key)].queue.push(ShardMsg::Line {
                            tenant: Arc::clone(&tenant),
                            key,
                            session,
                            line,
                            enqueued: Instant::now(),
                        });
                    }
                    Event::End(session) => {
                        let key = session_key(DEFAULT_TENANT, &session);
                        shards[ring.owner(&key)]
                            .queue
                            .push_control(ShardMsg::End { key });
                    }
                }
            }
            let (ack, acks) = mpsc::channel();
            for shard in &shards {
                shard.queue.push_control(ShardMsg::Drain {
                    tenant: None,
                    ack: ack.clone(),
                });
            }
            for _ in &shards {
                acks.recv().expect("a shard acks the drain");
            }
            ((), n)
        });
        for shard in shards {
            shard.queue.push_control(ShardMsg::Shutdown);
            shard.join();
        }
    }
}

impl Running {
    fn stop(mut self) {
        self.ctl.shutdown().expect("SHUTDOWN");
        self.join
            .join()
            .expect("the gateway thread does not panic")
            .expect("the gateway exits cleanly");
    }

    fn connect(&self) -> Wire {
        let mut wire = Wire::connect(&self.addr).expect("connect a load connection");
        wire.request("PING").expect("ping on a load connection");
        wire
    }
}

pub struct Saturate(Serve);

impl Workload for Saturate {
    fn set_up(cfg: &RunConfig, rec: &mut Recorder) -> Saturate {
        Saturate(Serve::set_up(
            SystemKind::MapReduce,
            cfg.scale.saturate_jobs,
            host_cpus(),
            "serve_saturate",
            cfg,
            rec,
        ))
    }

    fn reference(&mut self) {
        self.0.reference();
    }

    fn rep(&mut self, rec: &mut Recorder, tally: &mut Tally) -> RepSample {
        let serve = &mut self.0;
        let mut running = serve.start();
        let wires: Vec<Wire> = serve.streams.iter().map(|_| running.connect()).collect();
        let window = Window::open();
        rec.span("rep", |rec| {
            rec.span("rep.send", |_| {
                loadgen::send_closed(wires, &serve.streams).expect("closed-loop send");
                ((), serve.lines)
            });
            rec.span("rep.drain", |_| (running.ctl.drain().expect("DRAIN"), 1));
            ((), 1)
        });
        let (wall_s, cpu_s) = window.close();
        serve.audit(&mut running, 0, tally);
        running.stop();
        RepSample {
            lines: serve.lines,
            wall_s,
            cpu_s,
            verdict_ms: zero_queue_verdicts_ms(&serve.detector, &serve.probe),
        }
    }

    fn layers(&mut self, rec: &mut Recorder, _: &mut Tally, rep: &RepCost, out: &mut Layers) {
        self.0.layers(rec, rep, out);
    }
}

pub struct Paced {
    serve: Serve,
    batches: Vec<Batch>,
    probes: Arc<Vec<Vec<u8>>>,
    /// Pooled over the reps, for the per-layer metrics.
    verdict_ms: Vec<f64>,
    ping_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    achieved_share: f64,
}

/// One probe per variant: `PING`, the probe session, a tenant-scoped
/// `DRAIN`, sent with one write.
fn render_probes(probe: &Session) -> Vec<Vec<u8>> {
    (0..PROBE_VARIANTS)
        .map(|v| {
            let mut bytes = b"PING\n".to_vec();
            for line in &probe.lines {
                let id = format!("probe-{v}");
                bytes.extend_from_slice(intellog_serve::render_log(&id, line).as_bytes());
                bytes.push(b'\n');
            }
            bytes.extend_from_slice(format!("DRAIN\t{PROBE_TENANT}\n").as_bytes());
            bytes
        })
        .collect()
}

impl Workload for Paced {
    fn set_up(cfg: &RunConfig, rec: &mut Recorder) -> Paced {
        let serve = Serve::set_up(
            SystemKind::Spark,
            cfg.scale.paced_jobs,
            1,
            "serve_paced",
            cfg,
            rec,
        );
        Paced {
            batches: corpus::wire_batches(&serve.streams[0], BATCH_LINES),
            probes: Arc::new(render_probes(&serve.probe)),
            serve,
            verdict_ms: Vec::new(),
            ping_ms: Vec::new(),
            lag_ms: Vec::new(),
            achieved_share: 0.0,
        }
    }

    fn reference(&mut self) {
        self.serve.reference();
    }

    fn rep(&mut self, rec: &mut Recorder, tally: &mut Tally) -> RepSample {
        let mut running = self.serve.start();
        let mut wire = running.connect();
        let mut probe_wire = running.connect();
        probe_wire
            .request(&format!("TENANT\t{PROBE_TENANT}"))
            .expect("bind the probe connection to its tenant");
        let stop = Arc::new(AtomicBool::new(false));

        let window = Window::open();
        let start = Instant::now();
        let prober = {
            let (probes, stop) = (Arc::clone(&self.probes), Arc::clone(&stop));
            sync::thread::spawn(move || {
                loadgen::run_probes(&mut probe_wire, &probes, PROBE_INTERVAL, start, &stop)
            })
        };
        let (paced, probed) = rec.span("rep", |rec| {
            let paced = rec.span("rep.send", |_| {
                let paced = loadgen::send_paced(&mut wire, &self.batches, PACED_LINES_PER_S, start)
                    .expect("paced send");
                (paced, self.serve.lines)
            });
            stop.store(true, Ordering::SeqCst);
            let probed = prober
                .join()
                .expect("the probe thread does not panic")
                .expect("probe connection");
            rec.span("rep.drain", |_| (running.ctl.drain().expect("DRAIN"), 1));
            ((paced, probed), 1)
        });
        let (wall_s, cpu_s) = window.close();

        tally.ops(probed.verdict_ms.len() as u64, probed.failed);
        self.serve
            .audit(&mut running, probed.verdict_ms.len(), tally);
        running.stop();
        self.verdict_ms.extend(&probed.verdict_ms);
        self.ping_ms.extend(probed.ping_ms);
        self.lag_ms.extend(paced.lag_ms);
        self.achieved_share = paced.achieved_share;
        RepSample {
            lines: self.serve.lines,
            wall_s,
            cpu_s,
            verdict_ms: probed.verdict_ms,
        }
    }

    fn layers(&mut self, rec: &mut Recorder, _: &mut Tally, rep: &RepCost, out: &mut Layers) {
        self.serve.layers(rec, rep, out);
        out.insert(
            "gateway.verdict_p99_ms".into(),
            stats::latency_percentiles(&self.verdict_ms).1,
        );
        let (p50, tail) = stats::latency_percentiles(&self.ping_ms);
        out.insert("gateway.ping_p50_ms".into(), p50);
        out.insert("gateway.ping_p99_ms".into(), tail);
        out.insert(
            "gateway.sender_lag_p99_ms".into(),
            stats::latency_percentiles(&self.lag_ms).1,
        );
        out.insert("gateway.achieved_share".into(), self.achieved_share);

        // CPU an idle gateway burns with one connection open, over one
        // second in which no thread starts or ends
        let running = self.serve.start();
        let cpu0 = stats::live_threads_cpu_s();
        let t = Instant::now();
        sync::thread::sleep(Duration::from_secs(1));
        let idle_ms = (stats::live_threads_cpu_s() - cpu0) * 1e3 / t.elapsed().as_secs_f64();
        out.insert("gateway.idle_cpu_ms_per_s".into(), idle_ms);
        running.stop();
    }
}
