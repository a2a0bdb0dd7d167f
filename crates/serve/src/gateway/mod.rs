//! The gateway: one event-loop thread orchestrating every connection,
//! tenant, and shard of this crate's data plane.
//!
//! One thread, many sockets: the gateway accepts line-framed protocol
//! connections on a nonblocking listener and multiplexes them over a
//! level-triggered sweep that sleeps in `poll(2)` when it finds nothing to
//! do. Its parts, all private to the crate:
//!
//! * `poll` — nonblocking sockets, and `Poller::wait`, the `poll(2)` the
//!   loop sleeps in; the only server-side module allowed to touch sockets
//!   and descriptors (lint rule R5);
//! * `conn` — per-connection read/write buffers and cursor framing
//!   (borrowed lines, no copy between socket and parser);
//! * `wake` — the [`IdleGate`]: how `LOAD` threads and shards (acks, queue
//!   room) end that sleep from outside, one byte on a wake descriptor
//!   behind a coalescing flag;
//! * this module — the [`Gateway`] itself: verb dispatch, the per-record
//!   router filling per-sweep line batches, hot reload, live re-sharding
//!   (ADDSHARD / DRAINSHARD), drains.
//!
//! Unix only: the loop sleeps in `poll(2)` and is woken over a
//! `UnixStream` pair.
//!
//! Design invariants (DESIGN.md §8):
//!
//! * **The loop blocks in one place, and only with nothing to do.** A
//!   sweep that did work is followed by another; one that did none by
//!   `Poller::wait` — a `poll(2)` over the listener, the wake descriptor
//!   and the connections the sweep would act on (`Conn::reading` decides
//!   the read set, unsent reply bytes the write set) — which returns the
//!   moment any of them is ready. No timer, no back-off: whatever can make
//!   the next sweep find work ends the sleep itself. Sockets do so by
//!   being in the set; everything off the loop thread does so through the
//!   idle gate (`wake.rs`): `LOAD` completions and shard acks, which
//!   arrive over channels polled with `try_recv`, and queue room. For the
//!   loop never waits *on a queue* either: it is every shard queue's only
//!   producer, so the free room it reads off a queue (`ShardQueue::room`)
//!   can only grow until it pushes, and a batch sized by it is admitted
//!   without waiting. When a queue has no room the line stays in its
//!   connection's buffer, reading that connection stops (TCP backpressure
//!   does the blocking, in the kernel, per client), the loop marks the
//!   queue "room wanted", reads `room()` once more, and only then gives
//!   up; the shard that next drains a marked queue wakes the gate, and
//!   the line is tried again. Disk I/O (`LOAD`) runs on background
//!   threads.
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
//! * **Rebalances are serialized and order-preserving, and the loop holds
//!   no lines.** One control operation (ADDSHARD / DRAINSHARD / DRAIN /
//!   SHUTDOWN) runs at a time; later ones queue. While a rebalance
//!   collects its snapshots, a record whose session is changing owner is
//!   not consumed: it stays in its connection's buffer exactly like one
//!   without queue room, that connection stops there, and the line is
//!   parsed again once the ring is swapped — behind the `Restore` of its
//!   session. So a moved session sees exactly the line sequence it would
//!   have seen unmoved, and nothing the loop owns grows with traffic.
//! * **Sessions pin model versions.** Hot reload (`LOAD`) swaps the
//!   registry entry; live sessions keep their lease until they finish
//!   (see [`crate::registry`]), so no verdict straddles two versions.

mod conn;
mod poll;
mod wake;

pub use conn::{MAX_READ_BUFFER, MAX_WRITE_BUFFER};
pub use wake::IdleGate;

use crate::proto::parse_log_ref;
use crate::ring::write_session_key;
use crate::{
    AnomalySink, Backpressure, LineBatch, Ring, SessionState, ShardHandle, ShardMetrics, ShardMsg,
    ShardQueue, ShardSnapshot, StatsSnapshot, TenantEntry, TenantRegistry, TenantSnapshot,
    DEFAULT_VNODES,
};
use anomaly::Detector;
use conn::Conn;
use poll::{AcceptFailure, AcceptOutcome, Poller, ReadOutcome, SocketAddr, Token, WriteOutcome};
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
    /// Read by nothing: a full shard queue always holds lines back.
    /// Kept because `benchmark/` sets it.
    pub backpressure: Backpressure,
    /// Sessions idle longer than this are evicted (final report emitted).
    pub idle_timeout: Duration,
    /// How many completed reports the in-memory ring retains.
    pub ring_capacity: usize,
    /// Optional JSONL file receiving every problematic report.
    pub sink_path: Option<PathBuf>,
    /// Tenant used by connections that never send `TENANT`.
    pub default_tenant: String,
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
            default_tenant: crate::DEFAULT_TENANT.into(),
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

/// Where a reply that arrives later goes: the connection in poll slot
/// `token`, as long as it is still generation `conn_id` (not closed, its
/// token not reused).
#[derive(Clone, Copy)]
struct ReplyTo {
    token: Token,
    conn_id: u64,
}

impl ReplyTo {
    fn of(conn: &Conn) -> ReplyTo {
        ReplyTo {
            token: conn.token,
            conn_id: conn.id,
        }
    }
}

/// A completed background load, reported back to the loop.
struct LoadDone {
    reply: ReplyTo,
    result: Result<crate::LoadOutcome, String>,
}

/// The acks still owed by the shards a control message was broadcast to.
struct Acks<T> {
    rx: mpsc::Receiver<T>,
    outstanding: usize,
}

impl<T> Acks<T> {
    /// Hand every ack that has arrived to `take`. Returns whether any had,
    /// and whether none is outstanding any more.
    fn collect(&mut self, mut take: impl FnMut(T)) -> (bool, bool) {
        let before = self.outstanding;
        while self.outstanding > 0 {
            let Ok(ack) = self.rx.try_recv() else { break };
            self.outstanding -= 1;
            take(ack);
        }
        (self.outstanding < before, self.outstanding == 0)
    }
}

/// A ring rebalance in flight: ADDSHARD (`added`) or DRAINSHARD
/// (`drained`), the snapshots collected so far in `moved`.
struct Rebalance {
    new_ring: Arc<Ring>,
    acks: Acks<Vec<SessionState>>,
    moved: Vec<SessionState>,
    added: Option<usize>,
    drained: Option<usize>,
    reply: ReplyTo,
}

/// The one control operation in flight (they serialize).
enum ControlOp {
    Rebalance(Rebalance),
    /// Session drain (`DRAIN`), optionally tenant-scoped; `shutdown`
    /// makes the gateway exit once the drain acks.
    Drain {
        acks: Acks<usize>,
        finished: usize,
        reply: ReplyTo,
        shutdown: bool,
    },
}

/// A control request waiting for its turn (they run one at a time).
enum QueuedControl {
    AddShard,
    DrainShard(usize),
    Drain {
        tenant: Option<String>,
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
    queued: VecDeque<(QueuedControl, ReplyTo)>,
    /// Scratch for the routing key (`tenant \x1f session`) of the record
    /// being routed.
    key: String,
    // loop-local counters (the loop is single-threaded; no atomics needed)
    connections_open: u64,
    connections_total: u64,
    /// Wall time inside sweeps that did work.
    loop_busy: Duration,
    /// Times the loop went to sleep.
    loop_waits: u64,
    /// `accept` failures survived.
    accept_errors: u64,
    /// The last `accept` found no descriptor or memory for the connection
    /// at the head of the backlog: the listener stays readable, so the next
    /// wait leaves it out (the sweep after it tries again).
    accept_stalled: bool,
    protocol_errors: u64,
    rebalances: u64,
    sessions_moved: u64,
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
        let gate = Arc::new(IdleGate::new(poller.kicker()?));
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
            ring: Arc::new(Ring::contiguous(n, DEFAULT_VNODES)),
            conns: Vec::new(),
            next_conn_id: 1,
            load_tx,
            load_rx,
            active: None,
            queued: VecDeque::new(),
            key: String::new(),
            connections_open: 0,
            connections_total: 0,
            loop_busy: Duration::ZERO,
            loop_waits: 0,
            accept_errors: 0,
            accept_stalled: false,
            protocol_errors: 0,
            rebalances: 0,
            sessions_moved: 0,
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

    /// Run the event loop until a `SHUTDOWN` drain completes — or the
    /// listener or the wait fails for good, which is the `Err` — then, either
    /// way, flush what replies can be flushed, stop and join every shard
    /// worker, and return.
    pub fn run(mut self) -> std::io::Result<()> {
        let result = self.serve();
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
        result
    }

    /// Sweep while sweeps find work; sleep when one does not.
    fn serve(&mut self) -> std::io::Result<()> {
        while !self.shutdown {
            let started = Instant::now();
            let mut worked = self.sweep_accept()?;
            worked |= self.sweep_conns();
            worked |= self.sweep_loads();
            worked |= self.sweep_control();
            if worked {
                self.loop_busy += started.elapsed();
                continue;
            }
            self.loop_waits += 1;
            let interests = self
                .conns
                .iter()
                .flatten()
                .map(|c| (c.token, c.reading(), !c.unsent().is_empty()));
            // A kick is consumed by the wait and its flag cleared here,
            // before the sweep that looks for the work — never after it
            // (`wake.rs`).
            if self.poller.wait(!self.accept_stalled, interests, None)? {
                self.gate.clear();
            }
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

    /// Accept whatever waits in the backlog. Only a broken listener is an
    /// error; a connection that died in the backlog, or one there is no
    /// descriptor for right now, is counted and survived.
    fn sweep_accept(&mut self) -> std::io::Result<bool> {
        let mut worked = false;
        self.accept_stalled = false;
        loop {
            match self.poller.accept() {
                AcceptOutcome::Accepted(token) => {
                    let id = self.next_conn_id;
                    self.next_conn_id += 1;
                    if self.conns.len() <= token {
                        self.conns.resize_with(token + 1, || None);
                    }
                    self.conns[token] = Some(Conn::new(token, id));
                    self.connections_open += 1;
                    self.connections_total += 1;
                    worked = true;
                }
                AcceptOutcome::WouldBlock => return Ok(worked),
                AcceptOutcome::Failed(failure, e) => {
                    self.accept_errors += 1;
                    match failure {
                        // it left the backlog; the next one may be fine
                        AcceptFailure::Connection => worked = true,
                        AcceptFailure::Stalled => {
                            self.accept_stalled = true;
                            return Ok(worked);
                        }
                        AcceptFailure::Fatal => return Err(e),
                    }
                }
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
            // line has been parsed and routed (none held back by the
            // router, nothing awaiting an async reply).
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
        if !conn.reading() {
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
    /// up to the first one the router does not take.
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
            let Some(mut conn) = self.take_conn(done.reply) else {
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
            self.conns[done.reply.token] = Some(conn);
        }
        worked
    }

    /// Advance the in-flight control operation, if any, and start the next
    /// queued one once the slot frees.
    fn sweep_control(&mut self) -> bool {
        let (mut worked, complete) = match &mut self.active {
            Some(ControlOp::Rebalance(r)) => r.acks.collect(|batch| r.moved.extend(batch)),
            Some(ControlOp::Drain { acks, finished, .. }) => acks.collect(|n| *finished += n),
            None => (false, false),
        };
        if complete {
            worked = true;
            match self.active.take() {
                Some(ControlOp::Rebalance(done)) => self.finish_rebalance(done),
                Some(ControlOp::Drain {
                    finished,
                    reply,
                    shutdown,
                    ..
                }) => {
                    // a shutdown's drain is not reported: the reply means "exiting"
                    let finished = if shutdown { 0 } else { finished };
                    self.reply_to(reply, &format!("OK {finished}\n"));
                    self.shutdown |= shutdown;
                }
                None => {}
            }
        }
        if self.active.is_none() {
            if let Some((request, reply)) = self.queued.pop_front() {
                worked = true;
                match request {
                    QueuedControl::AddShard => self.start_add_shard(reply),
                    QueuedControl::DrainShard(index) => self.start_drain_shard(index, reply),
                    QueuedControl::Drain { tenant, shutdown } => {
                        self.start_drain(tenant, reply, shutdown)
                    }
                }
            }
        }
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
        let reply = ReplyTo::of(conn);
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
            "ADDSHARD" => self.queued.push_back((QueuedControl::AddShard, reply)),
            "DRAINSHARD" => match line.split('\t').nth(1).and_then(|v| v.parse().ok()) {
                Some(index) => self
                    .queued
                    .push_back((QueuedControl::DrainShard(index), reply)),
                None => self.verb_error(conn, "DRAINSHARD needs a shard index"),
            },
            "DRAIN" | "SHUTDOWN" => {
                let tenant = line
                    .split('\t')
                    .nth(1)
                    .filter(|s| !s.is_empty() && verb == "DRAIN")
                    .map(str::to_string);
                let shutdown = verb == "SHUTDOWN";
                self.queued
                    .push_back((QueuedControl::Drain { tenant, shutdown }, reply));
            }
            other => self.verb_error(conn, &format!("unknown verb {other:?}")),
        }
    }

    // ------------------------------------------------------------------
    // routing
    // ------------------------------------------------------------------

    // lint: ingest-hot(begin)

    /// Hand one record of `tenant`'s `session` — a log line, or the
    /// session's `END` when `line` is `None` — to the shard that owns it:
    /// a line joins the shard's open batch, an `END` goes right behind it
    /// as a control message (never shed, takes no room). `false`: the
    /// record was not taken and must be offered again — its line found no
    /// room in the shard's queue, or the rebalance in flight is moving its
    /// session. `text_hint` sizes a batch this record opens
    /// (the bytes its connection has yet to parse).
    fn route(
        &mut self,
        tenant: &Arc<TenantEntry>,
        session: &str,
        line: Option<(u64, &str)>,
        text_hint: usize,
    ) -> bool {
        write_session_key(&mut self.key, &tenant.name, session);
        let key = self.key.as_str();
        let shard = self.ring.owner(key);
        if let Some(ControlOp::Rebalance(moving)) = &self.active {
            // held back until the ring is swapped and its session restored
            if moving.new_ring.owner(key) != shard {
                return false;
            }
        }
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
        // A batch is done when it has used the room it was opened with.
        if open.as_ref().is_some_and(|o| o.batch.len() >= o.room) {
            push_open(open, queue);
        }
        let open = match open {
            Some(open) => open,
            None => {
                let mut room = queue.room();
                if room == 0 {
                    // The line is about to be held back and its connection
                    // left out of the sleep's read set: only the shard can
                    // say when to try again, and only if asked *before* the
                    // look that decides — a drain between the first look and
                    // the mark saw no mark (`ShardQueue::want_room`).
                    queue.want_room();
                    room = queue.room();
                    if room == 0 {
                        return false;
                    }
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
        // Every verb, `TENANT` included, pushes the open batches first, so
        // one batch never sees two tenants.
        debug_assert!(Arc::ptr_eq(open.batch.tenant(), tenant));
        open.batch.push(key, ts_ms, message);
        true
    }

    // lint: ingest-hot(end)

    // ------------------------------------------------------------------
    // control operations
    // ------------------------------------------------------------------

    fn start_load(&mut self, conn: &mut Conn, tenant: &str, path: &str) {
        conn.awaiting_load = true;
        let reply = ReplyTo::of(conn);
        let registry = Arc::clone(&self.registry);
        let tx = self.load_tx.clone();
        let gate = Arc::clone(&self.gate);
        let tenant = tenant.to_string();
        let path = PathBuf::from(path);
        obs::inc!("gateway.reload.requests");
        let spawned = sync::thread::Builder::new()
            .name("intellog-load".into())
            .spawn(move || {
                let result = registry
                    .load_from_path(&tenant, &path)
                    .map_err(|e| e.to_string());
                let _ = tx.send(LoadDone { reply, result });
                gate.wake();
            });
        if spawned.is_err() {
            conn.awaiting_load = false;
            conn.reply("ERR load failed: cannot spawn loader thread\n");
        }
    }

    fn start_add_shard(&mut self, reply: ReplyTo) {
        // reuse the lowest dead slot, else grow the table
        let index = self
            .shards
            .iter()
            .position(|s| s.is_none())
            .unwrap_or(self.shards.len());
        let slot = match spawn_shard(&self.cfg, index, &self.sink, &self.gate) {
            Ok(s) => s,
            Err(e) => {
                self.reply_to(reply, &format!("ERR addshard: {e}\n"));
                return;
            }
        };
        if index == self.shards.len() {
            self.shards.push(Some(slot));
        } else {
            self.shards[index] = Some(slot);
        }
        let new_ring = Arc::new(self.ring.with_shard(index));
        self.begin_rebalance(new_ring, Some(index), None, reply);
    }

    fn start_drain_shard(&mut self, index: usize, reply: ReplyTo) {
        if !self.ring.contains(index) {
            self.reply_to(reply, &format!("ERR drainshard: no shard {index}\n"));
            return;
        }
        if self.ring.len() <= 1 {
            self.reply_to(reply, "ERR drainshard: cannot drain the last shard\n");
            return;
        }
        let new_ring = Arc::new(self.ring.without_shard(index));
        self.begin_rebalance(new_ring, None, Some(index), reply);
    }

    /// Send every shard of the *current* ring the control message `msg`
    /// builds around an ack sender. Control messages join the back of the
    /// FIFO queues, so every line enqueued before is processed first.
    fn broadcast<T>(&self, msg: impl Fn(mpsc::Sender<T>) -> ShardMsg) -> Acks<T> {
        let (tx, rx) = mpsc::channel();
        let mut outstanding = 0;
        for &i in self.ring.shards() {
            if let Some(Some(slot)) = self.shards.get(i) {
                slot.handle.queue.push_control(msg(tx.clone()));
                outstanding += 1;
            }
        }
        Acks { rx, outstanding }
    }

    /// Ask every shard to snapshot the sessions the new ring assigns
    /// elsewhere.
    fn begin_rebalance(
        &mut self,
        new_ring: Arc<Ring>,
        added: Option<usize>,
        drained: Option<usize>,
        reply: ReplyTo,
    ) {
        let acks = self.broadcast(|ack| ShardMsg::Rebalance {
            ring: Arc::clone(&new_ring),
            ack,
        });
        obs::inc!("gateway.rebalance.started");
        self.active = Some(ControlOp::Rebalance(Rebalance {
            new_ring,
            acks,
            moved: Vec::new(),
            added,
            drained,
            reply,
        }));
    }

    /// All shards acked: restore moved sessions on their new owners, swap
    /// the ring, retire a drained worker, reply. Lines held back in their
    /// connections' buffers route by the new ring from the next sweep on,
    /// behind the restores enqueued here.
    fn finish_rebalance(&mut self, done: Rebalance) {
        let moved_count = done.moved.len();
        for state in done.moved {
            let owner = done.new_ring.owner(&state.key);
            if let Some(Some(slot)) = self.shards.get(owner) {
                slot.handle.queue.push_control(ShardMsg::Restore {
                    state: Box::new(state),
                });
            }
        }
        self.ring = done.new_ring;
        self.rebalances += 1;
        self.sessions_moved += moved_count as u64;
        if let Some(index) = done.drained {
            // The drained worker has handed off every session; retire it.
            if let Some(slot) = self.shards.get_mut(index).and_then(Option::take) {
                slot.handle.queue.push_control(ShardMsg::Shutdown);
                slot.handle.queue.close();
                self.retired.push(slot.handle);
            }
        }
        // ADDSHARD answers the new shard's index, DRAINSHARD what it moved
        let answer = done.added.unwrap_or(moved_count);
        self.reply_to(done.reply, &format!("OK {answer}\n"));
    }

    fn start_drain(&mut self, tenant: Option<String>, reply: ReplyTo, shutdown: bool) {
        let acks = self.broadcast(|ack| ShardMsg::Drain {
            tenant: tenant.clone(),
            ack,
        });
        self.active = Some(ControlOp::Drain {
            acks,
            finished: 0,
            reply,
            shutdown,
        });
    }

    // ------------------------------------------------------------------
    // helpers
    // ------------------------------------------------------------------

    /// Take the connection `reply` names out of its slot, if it is still
    /// there. The caller puts it back.
    fn take_conn(&mut self, reply: ReplyTo) -> Option<Conn> {
        let slot = self.conns.get_mut(reply.token)?;
        if slot.as_ref()?.id != reply.conn_id {
            return None;
        }
        slot.take()
    }

    /// Write a reply if the connection is still open. A peer found gone is
    /// reaped by its next turn in the sweep.
    fn reply_to(&mut self, reply: ReplyTo, text: &str) {
        if let Some(mut conn) = self.take_conn(reply) {
            conn.reply(text);
            self.flush_conn(&mut conn);
            self.conns[reply.token] = Some(conn);
        }
    }

    /// Count a malformed data line. They are fire-and-forget, so nothing
    /// is replied; the line counts as dealt with.
    fn protocol_error(&mut self) -> bool {
        self.protocol_errors += 1;
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
                Some(h.metrics.snapshot(i, h.queue.len(), h.queue.dropped()))
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
            .map(|h| h.metrics.snapshot(usize::MAX, 0, h.queue.dropped()))
            .collect();
        let total = |f: fn(&ShardSnapshot) -> u64| -> u64 {
            per_shard.iter().map(f).sum::<u64>() + retired.iter().map(f).sum::<u64>()
        };
        StatsSnapshot {
            shards: per_shard.len(),
            ingested: total(|s| s.ingested),
            dropped: total(|s| s.dropped),
            online_anomalies: total(|s| s.online_anomalies),
            unexpected_suppressed: total(|s| s.unexpected_suppressed),
            sessions_live: total(|s| s.sessions_live),
            reports_completed: self.sink.completed(),
            reports_problematic: self.sink.problematic(),
            protocol_errors: self.protocol_errors,
            connections_open: self.connections_open,
            connections_total: self.connections_total,
            rebalances: self.rebalances,
            sessions_moved: self.sessions_moved,
            loop_busy_us: self.loop_busy.as_micros() as u64,
            loop_waits: self.loop_waits,
            accept_errors: self.accept_errors,
            anomalies_by_kind: self.sink.anomalies_by_kind(),
            per_shard,
            per_tenant,
        }
    }

    /// The `METRICS` reply: the snapshot `STATS` serialises, as Prometheus
    /// families (so the two verbs cannot disagree), the per-shard
    /// feed-latency histograms, then the process-wide obs registry. The
    /// text format itself lives in `obs`.
    fn render_metrics(&self) -> String {
        use obs::MetricKind::{Counter, Gauge, Histogram};
        let stats = self.stats();
        let totals = [
            ("intellog_serve_ingested_total", Counter, stats.ingested),
            ("intellog_serve_dropped_total", Counter, stats.dropped),
            (
                "intellog_serve_online_anomalies_total",
                Counter,
                stats.online_anomalies,
            ),
            (
                "intellog_serve_unexpected_suppressed_total",
                Counter,
                stats.unexpected_suppressed,
            ),
            (
                "intellog_serve_reports_completed_total",
                Counter,
                stats.reports_completed,
            ),
            (
                "intellog_serve_reports_problematic_total",
                Counter,
                stats.reports_problematic,
            ),
            (
                "intellog_serve_protocol_errors_total",
                Counter,
                stats.protocol_errors,
            ),
            (
                "intellog_gateway_connections_total",
                Counter,
                stats.connections_total,
            ),
            (
                "intellog_gateway_rebalances_total",
                Counter,
                stats.rebalances,
            ),
            (
                "intellog_gateway_sessions_moved_total",
                Counter,
                stats.sessions_moved,
            ),
            (
                "intellog_gateway_loop_busy_us_total",
                Counter,
                stats.loop_busy_us,
            ),
            (
                "intellog_gateway_loop_waits_total",
                Counter,
                stats.loop_waits,
            ),
            (
                "intellog_gateway_accept_errors_total",
                Counter,
                stats.accept_errors,
            ),
            (
                "intellog_gateway_connections_open",
                Gauge,
                stats.connections_open,
            ),
            ("intellog_serve_sessions_live", Gauge, stats.sessions_live),
        ];
        let per_shard: [Family<ShardSnapshot>; 2] = [
            ("intellog_serve_queue_len", Gauge, |s| s.queue_len as u64),
            ("intellog_serve_shard_busy_us_total", Counter, |s| s.busy_us),
        ];
        let per_tenant: [Family<TenantSnapshot>; 6] = [
            ("intellog_tenant_lines_total", Counter, |t| t.lines),
            ("intellog_tenant_sessions_live", Gauge, |t| t.sessions_live),
            ("intellog_tenant_online_anomalies_total", Counter, |t| {
                t.online_anomalies
            }),
            (
                "intellog_tenant_unexpected_suppressed_total",
                Counter,
                |t| t.unexpected_suppressed,
            ),
            ("intellog_tenant_model_version", Gauge, |t| t.model_version),
            ("intellog_tenant_reloads_total", Counter, |t| t.reloads),
        ];
        let mut out = String::new();
        for (family, kind, value) in totals {
            obs::render_series(&mut out, family, kind, &[("", value)]);
        }
        for (family, kind, read) in per_shard {
            let shards = stats.per_shard.iter();
            let samples: Vec<_> = shards
                .map(|s| (format!("shard=\"{}\"", s.shard), read(s)))
                .collect();
            obs::render_series(&mut out, family, kind, &samples);
        }
        for (family, kind, read) in per_tenant {
            let tenants = stats.per_tenant.iter();
            let samples: Vec<_> = tenants
                .map(|t| (format!("tenant=\"{}\"", t.tenant), read(t)))
                .collect();
            obs::render_series(&mut out, family, kind, &samples);
        }
        let family = "intellog_serve_anomalies_by_kind";
        let by_kind = stats.anomalies_by_kind.iter();
        let samples: Vec<_> = by_kind
            .map(|(kind, n)| (format!("kind=\"{kind}\""), *n))
            .collect();
        obs::render_series(&mut out, family, Counter, &samples);
        // One histogram family, one series per shard.
        let family = "intellog_serve_feed_latency_us";
        obs::render_series::<&str>(&mut out, family, Histogram, &[]);
        for (i, slot) in self.shards.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let h = &slot.handle.metrics.feed_latency;
            let labels = format!("shard=\"{i}\"");
            obs::render_histogram_series(&mut out, family, &labels, &h.bucket_counts(), h.sum_us());
        }
        // Pipeline-stage metrics (spell/lognlp/extract/hwgraph/anomaly)
        // recorded by the gated macros while detectors ran in this process.
        out.push_str(&obs::render_prometheus());
        out
    }
}

/// A labelled `METRICS` family: its name, its kind, and how one series'
/// sample is read off a `T`.
type Family<T> = (&'static str, obs::MetricKind, fn(&T) -> u64);

/// Spawn one shard worker with a fresh queue and metrics; its drain and
/// rebalance acks, and its draining a queue the loop wants room in, wake
/// the loop's idle gate.
fn spawn_shard(
    cfg: &GatewayConfig,
    index: usize,
    sink: &Arc<AnomalySink>,
    gate: &Arc<IdleGate>,
) -> std::io::Result<ShardSlot> {
    let queue = Arc::new(ShardQueue::new(cfg.queue_capacity, Backpressure::Block));
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
