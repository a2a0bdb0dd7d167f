//! The gateway: one event-loop thread orchestrating every connection,
//! tenant, and shard.
//!
//! Design invariants (DESIGN.md §12):
//!
//! * **The loop never blocks.** It is every shard queue's only producer,
//!   so the free room it reads off a queue (`ShardQueue::room`) can only
//!   grow until it pushes: a batch sized by it is admitted without
//!   waiting. When a queue has no room the line stays in its connection's
//!   buffer, reading that connection stops (TCP backpressure does the
//!   blocking, in the kernel, per client) and the line is tried again next
//!   sweep. Disk I/O (`LOAD`) runs on background threads; their
//!   completions and all shard acks arrive over channels polled with
//!   `try_recv`, each followed by a wake of the idle gate.
//! * **Lines travel in per-sweep batches.** One connection's turn in the
//!   sweep appends every `LOG` line to its shard's open [`LineBatch`] and
//!   pushes each batch with one queue operation when the turn ends —
//!   earlier when the batch has used the room it was opened with, when a
//!   session's `END` must follow its lines, and before any other verb
//!   runs. No batch outlives its turn and no timer or minimum size holds
//!   lines back.
//! * **All routing happens on the loop thread.** The consistent-hash ring
//!   is swapped only here, between complete sweeps, so no message can be
//!   routed by a half-installed ring.
//! * **Rebalances are serialized and order-preserving.** One control
//!   operation (ADDSHARD / DRAINSHARD / DRAIN / SHUTDOWN) runs at a time;
//!   later ones queue. During a rebalance, traffic for sessions that are
//!   changing owner is parked in arrival order and released only after
//!   the moved sessions are restored on their new shards, then re-routed
//!   record by record through the same router — so a moved session sees
//!   exactly the line sequence it would have seen unmoved.
//! * **Sessions pin model versions.** Hot reload (`LOAD`) swaps the
//!   registry entry; live sessions keep their lease until they finish
//!   (see `serve::registry`), so no verdict straddles two versions.

use crate::conn::{Conn, MAX_READ_BUFFER, MAX_WRITE_BUFFER};
use crate::poll::{Poller, ReadOutcome, SocketAddr, Token, WriteOutcome};
use crate::wake::IdleGate;
use anomaly::Detector;
use intellog_serve::{
    parse_log_ref, write_session_key, AnomalySink, Backpressure, LineBatch, Ring, SessionState,
    ShardHandle, ShardMetrics, ShardMsg, ShardQueue, ShardSnapshot, StatsSnapshot, TenantEntry,
    TenantRegistry, DEFAULT_VNODES,
};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use sync::{mpsc, Arc};

/// Gateway configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Initial number of shard worker threads.
    pub shards: usize,
    /// Per-shard queue capacity (log lines).
    pub queue_capacity: usize,
    /// What to do when a shard queue is full.
    pub backpressure: Backpressure,
    /// Sessions idle longer than this are evicted (final report emitted).
    pub idle_timeout: Duration,
    /// How many completed reports the in-memory ring retains.
    pub ring_capacity: usize,
    /// Optional JSONL file receiving every problematic report.
    pub sink_path: Option<PathBuf>,
    /// Tenant used by connections that never send `TENANT`.
    pub default_tenant: String,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub vnodes: usize,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            shards: 4,
            queue_capacity: 1024,
            backpressure: Backpressure::Block,
            idle_timeout: Duration::from_secs(30),
            ring_capacity: 4096,
            sink_path: None,
            default_tenant: intellog_serve::DEFAULT_TENANT.into(),
            vnodes: DEFAULT_VNODES,
        }
    }
}

/// Most text a line batch reserves when it is opened.
const BATCH_TEXT_HINT_MAX: usize = 16 << 10;

/// One live shard: its handle (queue and metrics shared with the worker)
/// plus the batch the current turn of the sweep is filling for it.
struct ShardSlot {
    handle: ShardHandle,
    open: Option<OpenBatch>,
}

/// A batch being filled, and how many lines it may take: the room its
/// queue had when it was opened.
struct OpenBatch {
    batch: LineBatch,
    room: usize,
}

/// Push the open batch, if any, with one queue operation. Never waits:
/// the batch holds no more lines than the queue had room for.
fn push_open(open: &mut Option<OpenBatch>, queue: &ShardQueue<ShardMsg>) {
    if let Some(open) = open.take() {
        let lines = open.batch.len();
        let msg = ShardMsg::Batch {
            batch: open.batch,
            enqueued: Instant::now(),
        };
        queue.push_weighted(msg, lines);
    }
}

/// A record held back during/after a rebalance: a log line, or its
/// session's `END` when `line` is `None`.
struct Parked {
    tenant: Arc<TenantEntry>,
    key: String,
    line: Option<(u64, String)>,
}

/// A completed background load, reported back to the loop.
struct LoadDone {
    token: Token,
    conn_id: u64,
    result: Result<intellog_serve::LoadOutcome, String>,
}

/// The one control operation in flight (they serialize).
enum ControlOp {
    /// Ring rebalance: ADDSHARD (`added`) or DRAINSHARD (`drained`).
    Rebalance {
        new_ring: Arc<Ring>,
        rx: mpsc::Receiver<Vec<SessionState>>,
        expected: usize,
        received: usize,
        moved: Vec<SessionState>,
        added: Option<usize>,
        drained: Option<usize>,
        token: Token,
        conn_id: u64,
    },
    /// Session drain (`DRAIN`), optionally tenant-scoped; `shutdown`
    /// makes the gateway exit once the drain acks.
    Drain {
        rx: mpsc::Receiver<usize>,
        expected: usize,
        received: usize,
        finished: usize,
        token: Token,
        conn_id: u64,
        shutdown: bool,
    },
}

/// A control request waiting for its turn (they run one at a time).
enum QueuedControl {
    AddShard {
        token: Token,
        conn_id: u64,
    },
    DrainShard {
        index: usize,
        token: Token,
        conn_id: u64,
    },
    Drain {
        tenant: Option<String>,
        token: Token,
        conn_id: u64,
        shutdown: bool,
    },
}

/// A bound, running gateway.
pub struct Gateway {
    poller: Poller,
    addr: SocketAddr,
    cfg: GatewayConfig,
    registry: Arc<TenantRegistry>,
    sink: Arc<AnomalySink>,
    gate: Arc<IdleGate>,
    /// Index-stable shard table; drained slots become `None` (their
    /// worker handles retire into `retired` for the final join).
    shards: Vec<Option<ShardSlot>>,
    retired: Vec<ShardHandle>,
    ring: Arc<Ring>,
    /// Connections by poll token (the poller hands out dense, reused
    /// slot indices; `Conn::id` tells generations apart). A connection is
    /// taken out of its slot for its turn in the sweep.
    conns: Vec<Option<Conn>>,
    next_conn_id: u64,
    /// Background-load completions.
    load_tx: mpsc::Sender<LoadDone>,
    load_rx: mpsc::Receiver<LoadDone>,
    active: Option<ControlOp>,
    queued: VecDeque<QueuedControl>,
    /// Records held back during/after a rebalance, in arrival order.
    parked: VecDeque<Parked>,
    /// Scratch for the routing key (`tenant \x1f session`) of the record
    /// being routed.
    key: String,
    // loop-local counters (the loop is single-threaded; no atomics needed)
    connections_open: u64,
    connections_total: u64,
    /// Wall time inside sweeps that did work.
    loop_busy: Duration,
    protocol_errors: u64,
    rebalances: u64,
    sessions_moved: u64,
    loads_inflight: u64,
    shutdown: bool,
}

impl Gateway {
    /// Bind with a single model registered as the default tenant.
    pub fn bind(cfg: &GatewayConfig, detector: Arc<Detector>) -> std::io::Result<Gateway> {
        let registry = Arc::new(TenantRegistry::new());
        registry.register(&cfg.default_tenant, detector);
        Gateway::bind_with_registry(cfg, registry)
    }

    /// Bind over a pre-populated tenant registry (multi-tenant startup;
    /// more tenants can be added later via `LOAD`).
    pub fn bind_with_registry(
        cfg: &GatewayConfig,
        registry: Arc<TenantRegistry>,
    ) -> std::io::Result<Gateway> {
        let poller = Poller::bind(&cfg.addr)?;
        let addr = poller.local_addr();
        let sink = Arc::new(AnomalySink::new(
            cfg.ring_capacity,
            cfg.sink_path.as_deref(),
        )?);
        let gate = Arc::new(IdleGate::new());
        let n = cfg.shards.max(1);
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            shards.push(Some(spawn_shard(cfg, i, &sink, &gate)?));
        }
        let (load_tx, load_rx) = mpsc::channel();
        Ok(Gateway {
            poller,
            addr,
            cfg: cfg.clone(),
            registry,
            sink,
            gate,
            shards,
            retired: Vec::new(),
            ring: Arc::new(Ring::contiguous(n, cfg.vnodes.max(1))),
            conns: Vec::new(),
            next_conn_id: 1,
            load_tx,
            load_rx,
            active: None,
            queued: VecDeque::new(),
            parked: VecDeque::new(),
            key: String::new(),
            connections_open: 0,
            connections_total: 0,
            loop_busy: Duration::ZERO,
            protocol_errors: 0,
            rebalances: 0,
            sessions_moved: 0,
            loads_inflight: 0,
            shutdown: false,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The tenant registry (shared; e.g. for pre-registering models).
    pub fn registry(&self) -> Arc<TenantRegistry> {
        Arc::clone(&self.registry)
    }

    /// Run the event loop until a `SHUTDOWN` drain completes, then join
    /// every shard worker and return.
    pub fn run(mut self) -> std::io::Result<()> {
        let mut idle_streak: u32 = 0;
        while !self.shutdown {
            let started = Instant::now();
            let mut worked = false;
            worked |= self.sweep_accept()?;
            worked |= self.sweep_conns();
            worked |= self.sweep_loads();
            worked |= self.sweep_control();
            worked |= self.sweep_parked();
            if worked {
                self.loop_busy += started.elapsed();
                idle_streak = 0;
            } else {
                // Adaptive backoff: brief spin for latency, then park on
                // the gate so an idle gateway costs ~zero CPU. Capped low
                // enough that a ready socket waits at most ~2ms.
                idle_streak = idle_streak.saturating_add(1);
                if idle_streak > 8 {
                    let us = (1u64 << idle_streak.min(16)).min(2000);
                    self.gate.wait(Duration::from_micros(us));
                }
            }
        }
        // Graceful exit: best-effort flush of buffered replies, then stop
        // the workers.
        for token in 0..self.conns.len() {
            if let Some(mut conn) = self.conns[token].take() {
                self.flush_conn(&mut conn);
            }
        }
        for slot in self.shards.iter().flatten() {
            slot.handle.queue.push_control(ShardMsg::Shutdown);
            slot.handle.queue.close();
        }
        let live = self.shards.drain(..).flatten().map(|slot| slot.handle);
        for h in live.chain(self.retired.drain(..)) {
            h.join();
        }
        Ok(())
    }

    /// Run on a background thread: returns the bound address and the join
    /// handle (used by tests, `intellog replay --spawn`, and the bench).
    pub fn spawn(
        self,
    ) -> std::io::Result<(SocketAddr, sync::thread::JoinHandle<std::io::Result<()>>)> {
        let addr = self.local_addr();
        let join = sync::thread::Builder::new()
            .name("intellog-gateway".into())
            .spawn(move || self.run())?;
        Ok((addr, join))
    }

    // ------------------------------------------------------------------
    // sweep stages
    // ------------------------------------------------------------------

    fn sweep_accept(&mut self) -> std::io::Result<bool> {
        let mut worked = false;
        loop {
            match self.poller.accept() {
                Ok(Some(token)) => {
                    let id = self.next_conn_id;
                    self.next_conn_id += 1;
                    if self.conns.len() <= token {
                        self.conns.resize_with(token + 1, || None);
                    }
                    self.conns[token] = Some(Conn::new(token, id));
                    self.connections_open += 1;
                    self.connections_total += 1;
                    obs::inc!("gateway.connections.accepted");
                    worked = true;
                }
                Ok(None) => return Ok(worked),
                Err(e) => return Err(e),
            }
        }
    }

    /// Give every connection its turn: read, parse and route, push the
    /// batches the turn filled, write replies.
    fn sweep_conns(&mut self) -> bool {
        let mut worked = false;
        for token in 0..self.conns.len() {
            let Some(mut conn) = self.conns[token].take() else {
                continue;
            };
            worked |= self.read_conn(&mut conn);
            worked |= self.process_conn(&mut conn);
            // No batch outlives the turn that filled it.
            self.flush_batches();
            worked |= self.flush_conn(&mut conn);
            let overrun =
                conn.unsent().len() > MAX_WRITE_BUFFER || conn.unparsed() > MAX_READ_BUFFER;
            let done = conn.closing && conn.unsent().is_empty();
            // EOF: the peer is done sending; drop once every buffered
            // line has been parsed and routed (none waiting for room in
            // its shard queue, nothing awaiting an async reply).
            let drained = conn.eof && !conn.paused() && !conn.has_full_line();
            if overrun || done || drained {
                self.poller.close(token);
                self.connections_open -= 1;
                obs::inc!("gateway.connections.closed");
            } else {
                self.conns[token] = Some(conn);
            }
        }
        worked
    }

    /// Pull bytes off one socket, straight into the connection's receive
    /// buffer: one read per sweep, of at most `READ_QUANTUM` bytes.
    fn read_conn(&mut self, conn: &mut Conn) -> bool {
        if conn.blocked || conn.paused() || conn.eof {
            return false;
        }
        match self.poller.read(conn.token, conn.read_space()) {
            ReadOutcome::Data(n) => {
                conn.received(n);
                true
            }
            ReadOutcome::WouldBlock => false,
            ReadOutcome::Closed => {
                // Not dropped yet: bytes already read may still hold
                // complete protocol lines.
                conn.eof = true;
                true
            }
        }
    }

    /// Parse and execute the complete lines buffered on one connection,
    /// up to the first one whose shard queue has no room.
    fn process_conn(&mut self, conn: &mut Conn) -> bool {
        if conn.tenant.is_none() && conn.unparsed() > 0 {
            conn.tenant = self.registry.get(&self.cfg.default_tenant);
        }
        let mut worked = false;
        conn.blocked = false;
        // lint: ingest-hot(begin)
        while !conn.paused() {
            let Some((line, next)) = conn.next_line() else {
                break;
            };
            let routed = match (line.split('\t').next(), &conn.tenant) {
                (Some("LOG"), Some(tenant)) => match parse_log_ref(&line) {
                    Some(log) => {
                        let line = Some((log.ts_ms, log.message));
                        self.route(tenant, log.session, line, conn.unparsed())
                    }
                    None => self.protocol_error(),
                },
                (Some("END"), Some(tenant)) => {
                    match line.split('\t').nth(1).filter(|s| !s.is_empty()) {
                        Some(session) => self.route(tenant, session, None, 0),
                        None => self.protocol_error(),
                    }
                }
                (Some("LOG" | "END"), None) => self.protocol_error(),
                (Some(""), _) if line.is_empty() => true,
                _ => {
                    // lint: allow(alloc) — a control verb, not a data line
                    let line = line.into_owned();
                    conn.advance(next);
                    self.handle_verb(conn, &line);
                    worked = true;
                    continue;
                }
            };
            if !routed {
                conn.blocked = true;
                break;
            }
            conn.advance(next);
            worked = true;
        }
        // lint: ingest-hot(end)
        worked
    }

    /// Push every batch the current turn has open.
    fn flush_batches(&mut self) {
        for slot in self.shards.iter_mut().flatten() {
            push_open(&mut slot.open, &slot.handle.queue);
        }
    }

    /// Push buffered reply bytes to the socket. A peer that is gone
    /// leaves the connection marked for closing with nothing to send.
    fn flush_conn(&mut self, conn: &mut Conn) -> bool {
        let mut worked = false;
        while !conn.unsent().is_empty() {
            match self.poller.write(conn.token, conn.unsent()) {
                WriteOutcome::Wrote(n) => {
                    conn.advance_write(n);
                    worked = true;
                }
                WriteOutcome::WouldBlock => break,
                WriteOutcome::Closed => {
                    conn.advance_write(conn.unsent().len());
                    conn.closing = true;
                    break;
                }
            }
        }
        worked
    }

    fn sweep_loads(&mut self) -> bool {
        let mut worked = false;
        while let Ok(done) = self.load_rx.try_recv() {
            worked = true;
            self.loads_inflight = self.loads_inflight.saturating_sub(1);
            let Some(mut conn) = self.take_conn(done.token, done.conn_id) else {
                continue; // connection closed (its token may be reused)
            };
            conn.awaiting_load = false;
            match done.result {
                Ok(out) => {
                    conn.reply(&format!(
                        "OK 1\nLOADED\t{}\t{}\t{}\t{}\n",
                        out.tenant, out.version, out.keys, out.previous_live
                    ));
                }
                Err(e) => conn.reply(&format!("ERR load failed: {e}\n")),
            }
            self.flush_conn(&mut conn);
            self.conns[done.token] = Some(conn);
        }
        worked
    }

    /// Advance the in-flight control operation, if any, and start queued
    /// ones once the slot frees.
    fn sweep_control(&mut self) -> bool {
        let mut worked = false;
        if let Some(op) = self.active.take() {
            match op {
                ControlOp::Rebalance {
                    new_ring,
                    rx,
                    expected,
                    mut received,
                    mut moved,
                    added,
                    drained,
                    token,
                    conn_id,
                } => {
                    while received < expected {
                        match rx.try_recv() {
                            Ok(batch) => {
                                received += 1;
                                moved.extend(batch);
                                worked = true;
                            }
                            Err(_) => break,
                        }
                    }
                    if received < expected {
                        self.active = Some(ControlOp::Rebalance {
                            new_ring,
                            rx,
                            expected,
                            received,
                            moved,
                            added,
                            drained,
                            token,
                            conn_id,
                        });
                    } else {
                        worked = true;
                        self.finish_rebalance(new_ring, moved, added, drained, token, conn_id);
                    }
                }
                ControlOp::Drain {
                    rx,
                    expected,
                    mut received,
                    mut finished,
                    token,
                    conn_id,
                    shutdown,
                } => {
                    while received < expected {
                        match rx.try_recv() {
                            Ok(n) => {
                                received += 1;
                                finished += n;
                                worked = true;
                            }
                            Err(_) => break,
                        }
                    }
                    if received < expected {
                        self.active = Some(ControlOp::Drain {
                            rx,
                            expected,
                            received,
                            finished,
                            token,
                            conn_id,
                            shutdown,
                        });
                    } else {
                        worked = true;
                        if shutdown {
                            self.reply_to(token, conn_id, "OK 0\n");
                            self.shutdown = true;
                        } else {
                            self.reply_to(token, conn_id, &format!("OK {finished}\n"));
                        }
                    }
                }
            }
        }
        if self.active.is_none() && self.parked.is_empty() {
            if let Some(q) = self.queued.pop_front() {
                worked = true;
                match q {
                    QueuedControl::AddShard { token, conn_id } => {
                        self.start_add_shard(token, conn_id)
                    }
                    QueuedControl::DrainShard {
                        index,
                        token,
                        conn_id,
                    } => self.start_drain_shard(index, token, conn_id),
                    QueuedControl::Drain {
                        tenant,
                        token,
                        conn_id,
                        shutdown,
                    } => self.start_drain(tenant, token, conn_id, shutdown),
                }
            }
        }
        worked
    }

    /// Re-route records parked during a rebalance, strictly in order,
    /// through the same placement and batches as fresh lines.
    fn sweep_parked(&mut self) -> bool {
        // While a rebalance is collecting snapshots the parked queue must
        // hold — the moved sessions are not on any shard yet.
        if self.parked.is_empty() || self.rebalance_active() {
            return false;
        }
        let mut worked = false;
        while let Some(rec) = self.parked.pop_front() {
            let line = rec.line.as_ref().map(|(ts_ms, m)| (*ts_ms, m.as_str()));
            if !self.place(&rec.tenant, &rec.key, line, 0) {
                // Head-of-line blocked on a full queue: retry next sweep
                // to preserve order.
                self.parked.push_front(rec);
                break;
            }
            worked = true;
        }
        self.flush_batches();
        worked
    }

    // ------------------------------------------------------------------
    // verb handling
    // ------------------------------------------------------------------

    /// Execute one verb other than `LOG`/`END`. Everything this
    /// connection routed before it is pushed first, so a `PING` reply
    /// means "all of it is in a shard queue" and a `DRAIN` covers it.
    fn handle_verb(&mut self, conn: &mut Conn, line: &str) {
        self.flush_batches();
        let (token, conn_id) = (conn.token, conn.id);
        let verb = line.split('\t').next().unwrap_or("");
        match verb {
            "TENANT" => match line.split('\t').nth(1).filter(|s| !s.is_empty()) {
                Some(id) => match self.registry.get(id) {
                    Some(entry) => {
                        conn.tenant = Some(entry);
                        conn.reply("OK 0\n");
                    }
                    None => self.verb_error(conn, "unknown tenant (LOAD it first)"),
                },
                None => self.verb_error(conn, "TENANT needs an id"),
            },
            "PING" => conn.reply("OK 0\n"),
            "STATS" => {
                let json = serde_json::to_string(&self.stats()).unwrap_or_else(|_| "{}".into());
                conn.reply(&format!("OK 1\n{json}\n"));
            }
            "METRICS" => {
                let text = self.render_metrics();
                let n = text.lines().count();
                conn.reply(&format!("OK {n}\n"));
                conn.reply(&text);
            }
            "REPORTS" | "ANOMALIES" => {
                let mut fields = line.split('\t');
                let _ = fields.next();
                let n = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(usize::MAX);
                let tenant = fields.next().filter(|s| !s.is_empty());
                let reports = if verb == "REPORTS" {
                    self.sink.recent_reports(n, tenant)
                } else {
                    self.sink.recent_anomalous(n, tenant)
                };
                conn.reply(&format!("OK {}\n", reports.len()));
                for r in &reports {
                    let json = serde_json::to_string(r).unwrap_or_else(|_| "{}".into());
                    conn.reply(&json);
                    conn.reply("\n");
                }
            }
            "LOAD" => {
                let mut fields = line.splitn(3, '\t');
                let _ = fields.next();
                match (
                    fields.next().filter(|s| !s.is_empty()),
                    fields.next().filter(|s| !s.is_empty()),
                ) {
                    (Some(tenant), Some(path)) => self.start_load(conn, tenant, path),
                    _ => self.verb_error(conn, "LOAD needs <tenant>\\t<path>"),
                }
            }
            // Control operations serialize: each joins the queue and
            // `sweep_control` starts it — later this same sweep when
            // nothing is in flight.
            "ADDSHARD" => self
                .queued
                .push_back(QueuedControl::AddShard { token, conn_id }),
            "DRAINSHARD" => match line.split('\t').nth(1).and_then(|v| v.parse().ok()) {
                Some(index) => self.queued.push_back(QueuedControl::DrainShard {
                    index,
                    token,
                    conn_id,
                }),
                None => self.verb_error(conn, "DRAINSHARD needs a shard index"),
            },
            "DRAIN" | "SHUTDOWN" => {
                let tenant = line
                    .split('\t')
                    .nth(1)
                    .filter(|s| !s.is_empty() && verb == "DRAIN")
                    .map(str::to_string);
                self.queued.push_back(QueuedControl::Drain {
                    tenant,
                    token,
                    conn_id,
                    shutdown: verb == "SHUTDOWN",
                });
            }
            other => self.verb_error(conn, &format!("unknown verb {other:?}")),
        }
    }

    // ------------------------------------------------------------------
    // routing
    // ------------------------------------------------------------------

    // lint: ingest-hot(begin)

    /// Route one record of `tenant`'s `session` — a log line, or the
    /// session's `END` when `line` is `None` — honoring rebalance parking.
    /// `false` means its shard queue is full (Block policy): the record
    /// was not taken and must be offered again. `text_hint` sizes a batch
    /// this record opens (the bytes its connection has yet to parse).
    fn route(
        &mut self,
        tenant: &Arc<TenantEntry>,
        session: &str,
        line: Option<(u64, &str)>,
        text_hint: usize,
    ) -> bool {
        let mut key = std::mem::take(&mut self.key);
        write_session_key(&mut key, &tenant.name, session);
        // Global FIFO discipline: while any record is parked, every new
        // one parks behind it (cheapest way to keep affected sessions
        // ordered; the parked queue drains within a few sweeps).
        let taken = if !self.parked.is_empty() || self.changes_owner(&key) {
            // lint: allow(alloc) — only while a rebalance is in flight
            self.parked.push_back(Parked {
                tenant: Arc::clone(tenant),
                key: key.to_string(),
                line: line.map(|(ts_ms, message)| (ts_ms, message.to_string())),
            });
            true
        } else {
            self.place(tenant, &key, line, text_hint)
        };
        self.key = key;
        taken
    }

    /// Hand one record to the shard that owns `key` under the current
    /// ring, no parking checks: a line joins the shard's open batch, an
    /// `END` goes right behind it as a control message (never shed, takes
    /// no room). `false`: a line found no room in the shard's queue.
    fn place(
        &mut self,
        tenant: &Arc<TenantEntry>,
        key: &str,
        line: Option<(u64, &str)>,
        text_hint: usize,
    ) -> bool {
        let shard = self.ring.owner(key);
        let Some(Some(ShardSlot { handle, open })) = self.shards.get_mut(shard) else {
            return true; // routed to a dead slot: impossible by ring invariant
        };
        let queue = &*handle.queue;
        let Some((ts_ms, message)) = line else {
            push_open(open, queue);
            // lint: allow(alloc) — once per session, not per line
            queue.push_control(ShardMsg::End {
                key: key.to_string(),
            });
            return true;
        };
        // A batch is done when it has used the room it was opened with;
        // another tenant's lines (parked records only) need their own.
        if open
            .as_ref()
            .is_some_and(|o| o.batch.len() >= o.room || !Arc::ptr_eq(o.batch.tenant(), tenant))
        {
            push_open(open, queue);
        }
        let open = match open {
            Some(open) => open,
            None => {
                let room = queue.room();
                if room == 0 {
                    return false;
                }
                // An even share of what the turn has left to parse, capped:
                // a batch that outgrows it doubles once or twice, while
                // reserving for the worst case cost 10 MiB of peak RSS.
                let text_hint = (text_hint / self.ring.len().max(1)).min(BATCH_TEXT_HINT_MAX);
                // lint: allow(alloc) — per batch, not per line
                open.insert(OpenBatch {
                    batch: LineBatch::new(Arc::clone(tenant), text_hint),
                    room,
                })
            }
        };
        open.batch.push(key, ts_ms, message);
        true
    }

    // lint: ingest-hot(end)

    /// Whether the in-flight rebalance, if any, moves `key` to another
    /// shard.
    fn changes_owner(&self, key: &str) -> bool {
        match &self.active {
            Some(ControlOp::Rebalance { new_ring, .. }) => {
                self.ring.owner(key) != new_ring.owner(key)
            }
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // control operations
    // ------------------------------------------------------------------

    fn rebalance_active(&self) -> bool {
        matches!(self.active, Some(ControlOp::Rebalance { .. }))
    }

    fn start_load(&mut self, conn: &mut Conn, tenant: &str, path: &str) {
        conn.awaiting_load = true;
        let (token, conn_id) = (conn.token, conn.id);
        let registry = Arc::clone(&self.registry);
        let tx = self.load_tx.clone();
        let gate = Arc::clone(&self.gate);
        let tenant = tenant.to_string();
        let path = PathBuf::from(path);
        self.loads_inflight += 1;
        obs::inc!("gateway.reload.requests");
        let spawned = sync::thread::Builder::new()
            .name("intellog-load".into())
            .spawn(move || {
                let result = registry
                    .load_from_path(&tenant, &path)
                    .map_err(|e| e.to_string());
                let _ = tx.send(LoadDone {
                    token,
                    conn_id,
                    result,
                });
                gate.wake();
            });
        if spawned.is_err() {
            self.loads_inflight -= 1;
            conn.awaiting_load = false;
            conn.reply("ERR load failed: cannot spawn loader thread\n");
        }
    }

    fn start_add_shard(&mut self, token: Token, conn_id: u64) {
        // reuse the lowest dead slot, else grow the table
        let index = self
            .shards
            .iter()
            .position(|s| s.is_none())
            .unwrap_or(self.shards.len());
        let slot = match spawn_shard(&self.cfg, index, &self.sink, &self.gate) {
            Ok(s) => s,
            Err(e) => {
                self.reply_to(token, conn_id, &format!("ERR addshard: {e}\n"));
                return;
            }
        };
        if index == self.shards.len() {
            self.shards.push(Some(slot));
        } else {
            self.shards[index] = Some(slot);
        }
        let new_ring = Arc::new(self.ring.with_shard(index));
        self.begin_rebalance(new_ring, Some(index), None, token, conn_id);
    }

    fn start_drain_shard(&mut self, index: usize, token: Token, conn_id: u64) {
        if !self.ring.contains(index) {
            self.reply_to(
                token,
                conn_id,
                &format!("ERR drainshard: no shard {index}\n"),
            );
            return;
        }
        if self.ring.len() <= 1 {
            self.reply_to(
                token,
                conn_id,
                "ERR drainshard: cannot drain the last shard\n",
            );
            return;
        }
        let new_ring = Arc::new(self.ring.without_shard(index));
        self.begin_rebalance(new_ring, None, Some(index), token, conn_id);
    }

    /// Ask every shard in the *current* ring to snapshot sessions the new
    /// ring assigns elsewhere. FIFO queues guarantee all previously
    /// enqueued lines are processed first.
    fn begin_rebalance(
        &mut self,
        new_ring: Arc<Ring>,
        added: Option<usize>,
        drained: Option<usize>,
        token: Token,
        conn_id: u64,
    ) {
        let (tx, rx) = mpsc::channel();
        let mut expected = 0;
        for &i in self.ring.shards() {
            if let Some(Some(slot)) = self.shards.get(i) {
                slot.handle.queue.push_control(ShardMsg::Rebalance {
                    ring: Arc::clone(&new_ring),
                    ack: tx.clone(),
                });
                expected += 1;
            }
        }
        obs::inc!("gateway.rebalance.started");
        self.active = Some(ControlOp::Rebalance {
            new_ring,
            rx,
            expected,
            received: 0,
            moved: Vec::new(),
            added,
            drained,
            token,
            conn_id,
        });
    }

    /// All shards acked: restore moved sessions on their new owners, swap
    /// the ring, retire a drained worker, reply.
    fn finish_rebalance(
        &mut self,
        new_ring: Arc<Ring>,
        moved: Vec<SessionState>,
        added: Option<usize>,
        drained: Option<usize>,
        token: Token,
        conn_id: u64,
    ) {
        let moved_count = moved.len();
        for state in moved {
            let owner = new_ring.owner(&state.key);
            if let Some(Some(slot)) = self.shards.get(owner) {
                slot.handle.queue.push_control(ShardMsg::Restore {
                    state: Box::new(state),
                });
            }
        }
        self.ring = new_ring;
        self.rebalances += 1;
        self.sessions_moved += moved_count as u64;
        obs::inc!("gateway.rebalance.completed");
        if let Some(index) = drained {
            // The drained worker has handed off every session; retire it.
            if let Some(slot) = self.shards.get_mut(index).and_then(Option::take) {
                slot.handle.queue.push_control(ShardMsg::Shutdown);
                slot.handle.queue.close();
                self.retired.push(slot.handle);
            }
            self.reply_to(token, conn_id, &format!("OK {moved_count}\n"));
        }
        if let Some(index) = added {
            self.reply_to(token, conn_id, &format!("OK {index}\n"));
        }
        // parked traffic now flows via sweep_parked (ring already swapped,
        // restores already enqueued ahead of it in the new owners' queues)
    }

    fn start_drain(&mut self, tenant: Option<String>, token: Token, conn_id: u64, shutdown: bool) {
        let (tx, rx) = mpsc::channel();
        let mut expected = 0;
        for &i in self.ring.shards() {
            if let Some(Some(slot)) = self.shards.get(i) {
                slot.handle.queue.push_control(ShardMsg::Drain {
                    tenant: tenant.clone(),
                    ack: tx.clone(),
                });
                expected += 1;
            }
        }
        self.active = Some(ControlOp::Drain {
            rx,
            expected,
            received: 0,
            finished: 0,
            token,
            conn_id,
            shutdown,
        });
    }

    // ------------------------------------------------------------------
    // helpers
    // ------------------------------------------------------------------

    /// Take the connection out of slot `token` if it is still generation
    /// `conn_id` (not closed, its token not reused). The caller puts it
    /// back.
    fn take_conn(&mut self, token: Token, conn_id: u64) -> Option<Conn> {
        let slot = self.conns.get_mut(token)?;
        if slot.as_ref()?.id != conn_id {
            return None;
        }
        slot.take()
    }

    /// Write a reply if the connection (same generation) is still open.
    /// A peer found gone is reaped by its next turn in the sweep.
    fn reply_to(&mut self, token: Token, conn_id: u64, text: &str) {
        if let Some(mut conn) = self.take_conn(token, conn_id) {
            conn.reply(text);
            self.flush_conn(&mut conn);
            self.conns[token] = Some(conn);
        }
    }

    /// Count a malformed data line. They are fire-and-forget, so nothing
    /// is replied; the line counts as dealt with.
    fn protocol_error(&mut self) -> bool {
        self.protocol_errors += 1;
        obs::inc!("gateway.protocol_errors");
        true
    }

    /// Count a malformed verb and tell its sender.
    fn verb_error(&mut self, conn: &mut Conn, text: &str) {
        self.protocol_error();
        conn.reply(&format!("ERR {text}\n"));
    }

    // ------------------------------------------------------------------
    // stats / metrics
    // ------------------------------------------------------------------

    fn stats(&self) -> StatsSnapshot {
        let per_shard: Vec<_> = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let h = &slot.as_ref()?.handle;
                let mut s = h.metrics.snapshot(i, h.queue.len());
                // the queue owns the authoritative drop counter
                s.dropped = h.queue.dropped();
                Some(s)
            })
            .collect();
        let per_tenant: Vec<_> = self
            .registry
            .entries()
            .iter()
            .map(|t| {
                t.metrics
                    .snapshot(&t.name, t.current().version, t.reloads())
            })
            .collect();
        // Drained shards leave the active topology but their counters are
        // history that already happened — totals must keep them or every
        // DRAINSHARD would silently shrink `ingested`.
        let retired: Vec<_> = self
            .retired
            .iter()
            .map(|h| {
                let mut s = h.metrics.snapshot(usize::MAX, 0);
                s.dropped = h.queue.dropped();
                s
            })
            .collect();
        let total = |f: fn(&ShardSnapshot) -> u64| -> u64 {
            per_shard.iter().map(f).sum::<u64>() + retired.iter().map(f).sum::<u64>()
        };
        StatsSnapshot {
            shards: per_shard.len(),
            backpressure: self.cfg.backpressure.name().to_string(),
            ingested: total(|s| s.ingested),
            dropped: total(|s| s.dropped),
            online_anomalies: total(|s| s.online_anomalies),
            sessions_live: total(|s| s.sessions_live),
            reports_completed: self.sink.completed(),
            reports_problematic: self.sink.problematic(),
            protocol_errors: self.protocol_errors,
            connections_open: self.connections_open,
            connections_total: self.connections_total,
            rebalances: self.rebalances,
            sessions_moved: self.sessions_moved,
            loop_busy_us: self.loop_busy.as_micros() as u64,
            anomalies_by_kind: self.sink.anomalies_by_kind(),
            per_shard,
            per_tenant,
        }
    }

    /// Render gateway state (plus the process-wide obs registry) in
    /// Prometheus text exposition format, for the `METRICS` verb.
    fn render_metrics(&self) -> String {
        use std::fmt::Write;
        let stats = self.stats();
        let mut out = String::new();
        let mut counter = |name: &str, v: u64| {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        };
        counter("intellog_serve_ingested_total", stats.ingested);
        counter("intellog_serve_dropped_total", stats.dropped);
        counter(
            "intellog_serve_online_anomalies_total",
            stats.online_anomalies,
        );
        counter(
            "intellog_serve_reports_completed_total",
            stats.reports_completed,
        );
        counter(
            "intellog_serve_reports_problematic_total",
            stats.reports_problematic,
        );
        counter(
            "intellog_serve_protocol_errors_total",
            stats.protocol_errors,
        );
        counter(
            "intellog_gateway_connections_total",
            stats.connections_total,
        );
        counter("intellog_gateway_rebalances_total", stats.rebalances);
        counter(
            "intellog_gateway_sessions_moved_total",
            stats.sessions_moved,
        );
        counter("intellog_gateway_loop_busy_us_total", stats.loop_busy_us);
        let _ = writeln!(out, "# TYPE intellog_gateway_connections_open gauge");
        let _ = writeln!(
            out,
            "intellog_gateway_connections_open {}",
            stats.connections_open
        );
        let _ = writeln!(out, "# TYPE intellog_serve_sessions_live gauge");
        let _ = writeln!(out, "intellog_serve_sessions_live {}", stats.sessions_live);
        let _ = writeln!(out, "# TYPE intellog_serve_queue_len gauge");
        for s in &stats.per_shard {
            let _ = writeln!(
                out,
                "intellog_serve_queue_len{{shard=\"{}\"}} {}",
                s.shard, s.queue_len
            );
        }
        let _ = writeln!(out, "# TYPE intellog_serve_shard_busy_us_total counter");
        for s in &stats.per_shard {
            let _ = writeln!(
                out,
                "intellog_serve_shard_busy_us_total{{shard=\"{}\"}} {}",
                s.shard, s.busy_us
            );
        }
        // Per-tenant breakdowns: sessions, verdicts, reloads.
        let _ = writeln!(out, "# TYPE intellog_tenant_lines_total counter");
        for t in &stats.per_tenant {
            let _ = writeln!(
                out,
                "intellog_tenant_lines_total{{tenant=\"{}\"}} {}",
                t.tenant, t.lines
            );
        }
        let _ = writeln!(out, "# TYPE intellog_tenant_sessions_live gauge");
        for t in &stats.per_tenant {
            let _ = writeln!(
                out,
                "intellog_tenant_sessions_live{{tenant=\"{}\"}} {}",
                t.tenant, t.sessions_live
            );
        }
        let _ = writeln!(out, "# TYPE intellog_tenant_online_anomalies_total counter");
        for t in &stats.per_tenant {
            let _ = writeln!(
                out,
                "intellog_tenant_online_anomalies_total{{tenant=\"{}\"}} {}",
                t.tenant, t.online_anomalies
            );
        }
        let _ = writeln!(out, "# TYPE intellog_tenant_model_version gauge");
        for t in &stats.per_tenant {
            let _ = writeln!(
                out,
                "intellog_tenant_model_version{{tenant=\"{}\"}} {}",
                t.tenant, t.model_version
            );
        }
        let _ = writeln!(out, "# TYPE intellog_tenant_reloads_total counter");
        for t in &stats.per_tenant {
            let _ = writeln!(
                out,
                "intellog_tenant_reloads_total{{tenant=\"{}\"}} {}",
                t.tenant, t.reloads
            );
        }
        let _ = writeln!(out, "# TYPE intellog_serve_anomalies_by_kind counter");
        for (kind, n) in &stats.anomalies_by_kind {
            let _ = writeln!(
                out,
                "intellog_serve_anomalies_by_kind{{kind=\"{kind}\"}} {n}"
            );
        }
        // Per-shard feed-latency histograms: one family, one series per
        // shard, through the obs registry's own histogram exposition.
        let _ = writeln!(out, "# TYPE intellog_serve_feed_latency_us histogram");
        for (i, slot) in self.shards.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let h = &slot.handle.metrics.feed_latency;
            obs::render_histogram_series(
                &mut out,
                "intellog_serve_feed_latency_us",
                &format!("shard=\"{i}\""),
                &h.bucket_counts(),
                h.sum_us(),
            );
        }
        // Pipeline-stage metrics (spell/lognlp/extract/hwgraph/anomaly)
        // recorded by the gated macros while detectors ran in this process.
        out.push_str(&obs::render_prometheus());
        out
    }
}

/// Spawn one shard worker with a fresh queue and metrics; its drain and
/// rebalance acks wake the loop's idle gate.
fn spawn_shard(
    cfg: &GatewayConfig,
    index: usize,
    sink: &Arc<AnomalySink>,
    gate: &Arc<IdleGate>,
) -> std::io::Result<ShardSlot> {
    let queue = Arc::new(ShardQueue::new(cfg.queue_capacity, cfg.backpressure));
    let metrics = Arc::new(ShardMetrics::default());
    let gate = Arc::clone(gate);
    let handle = ShardHandle::spawn_with_waker(
        index,
        queue,
        metrics,
        Arc::clone(sink),
        cfg.idle_timeout,
        Arc::new(move || gate.wake()),
    )?;
    Ok(ShardSlot { handle, open: None })
}
