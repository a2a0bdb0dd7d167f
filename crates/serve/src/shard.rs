//! Shard workers: the threads that own the live sessions.
//!
//! Each incoming log line is routed — by the gateway's consistent-hash
//! [`Ring`] over the tenant-qualified session key — to
//! exactly one shard, so a session's whole stream is processed by a single
//! thread and the per-session [`StreamState`] needs no locking. A session
//! pins its tenant's model version at open (a [`ModelLease`]), so hot
//! reloads never change the detector under a live session.
//!
//! Sessions are *movable*: [`ShardMsg::Rebalance`] makes the worker
//! snapshot every session the new ring assigns elsewhere and hand the
//! owned [`SessionState`]s back through the ack channel; the gateway
//! restores them into their new owners with [`ShardMsg::Restore`]. Because
//! control messages join the back of the FIFO queue, every line enqueued
//! before the rebalance is processed before the snapshot — a moved session
//! resumes exactly where it left off, which is what makes draining a shard
//! under live load verdict-lossless.
//!
//! Lines arrive as [`LineBatch`]es — what one connection's turn in the
//! gateway's sweep routed to this shard: one tenant, one text buffer, one
//! flat record array, one queue operation — and run through one
//! per-record body (`feed_record`) that allocates only when a record
//! opens a session. The clock, `ingested`, and the tenant's `lines` are
//! touched once per batch, not per line.

use crate::metrics::ShardMetrics;
use crate::queue::ShardQueue;
use crate::registry::{ModelLease, TenantEntry};
use crate::ring::{session_of, Ring};
use crate::sink::AnomalySink;
use anomaly::{Anomaly, StreamState};
use spell::LogLine;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};
use sync::atomic::Ordering;
use sync::thread::JoinHandle;
use sync::{mpsc, Arc};

/// The full state of one in-flight session — everything needed to resume
/// it on another shard.
pub struct SessionState {
    /// Ring routing key (`tenant \x1f session`).
    pub key: String,
    /// The tenant this session belongs to.
    pub tenant: Arc<TenantEntry>,
    /// The pinned model version (kept across moves — a session opened on
    /// v1 finishes on v1 even if it is restored after a reload).
    pub lease: ModelLease,
    /// The detection state.
    pub stream: StreamState,
    /// Last activity, for idle eviction.
    pub last_seen: Instant,
}

/// One record of a [`LineBatch`]: where its key and message end in the
/// batch's text (each starts where the previous span ends).
struct Record {
    ts_ms: u64,
    key_end: usize,
    message_end: usize,
}

/// The log lines of one tenant routed to one shard by one connection's
/// turn in the gateway's sweep. Keys and messages sit back to back in one
/// text buffer; a record is two span ends and a timestamp.
pub struct LineBatch {
    tenant: Arc<TenantEntry>,
    text: String,
    records: Vec<Record>,
}

impl LineBatch {
    /// An empty batch for `tenant`, with room for `text_hint` bytes of
    /// keys and messages (a good hint makes the batch two allocations).
    pub fn new(tenant: Arc<TenantEntry>, text_hint: usize) -> LineBatch {
        LineBatch {
            tenant,
            text: String::with_capacity(text_hint),
            // a protocol line shorter than this is rare
            records: Vec::with_capacity(text_hint / 64),
        }
    }

    /// Append one line: ring routing key (`tenant \x1f session`),
    /// timestamp, message.
    pub fn push(&mut self, key: &str, ts_ms: u64, message: &str) {
        self.text.push_str(key);
        let key_end = self.text.len();
        self.text.push_str(message);
        self.records.push(Record {
            ts_ms,
            key_end,
            message_end: self.text.len(),
        });
    }

    /// The tenant every line of the batch belongs to.
    pub fn tenant(&self) -> &Arc<TenantEntry> {
        &self.tenant
    }

    /// Lines in the batch — its weight in the shard queue.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if no line has been appended.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// `(key, ts_ms, message)` per line, in arrival order.
    pub fn records(&self) -> impl Iterator<Item = (&str, u64, &str)> {
        let mut start = 0;
        self.records.iter().map(move |r| {
            let key = &self.text[start..r.key_end];
            let message = &self.text[r.key_end..r.message_end];
            start = r.message_end;
            (key, r.ts_ms, message)
        })
    }
}

/// Messages a shard worker consumes.
pub enum ShardMsg {
    /// The lines one connection's turn routed here (the gateway's only
    /// data message). Queue it with its [`LineBatch::len`] as weight.
    Batch {
        /// The lines.
        batch: LineBatch,
        /// When the gateway enqueued it (feed-latency measurement).
        enqueued: Instant,
    },
    /// One routed log line, owned field by field. The gateway does not
    /// build it; it is kept for `benchmark/`'s `shard_direct` pass and the
    /// model-check suite and runs as a batch of one (`session` is implied
    /// by `key`; of `line` only `ts_ms` and `message` are read).
    Line {
        /// The session's tenant.
        tenant: Arc<TenantEntry>,
        /// Ring routing key (`tenant \x1f session`).
        key: String,
        /// Session (container) id.
        session: String,
        /// The structured line.
        line: LogLine,
        /// When the gateway enqueued it (feed-latency measurement).
        enqueued: Instant,
    },
    /// Explicit end of a session: finish it now.
    End {
        /// Ring routing key.
        key: String,
    },
    /// Finish live sessions (all, or one tenant's) and ack how many were
    /// closed. Because control messages join the back of the queue, every
    /// line enqueued before the drain is processed first.
    Drain {
        /// Restrict the drain to one tenant, or `None` for all.
        tenant: Option<String>,
        /// Ack channel; receives the number of sessions finished.
        ack: mpsc::Sender<usize>,
    },
    /// Snapshot every session the new ring assigns to another shard and
    /// send the owned states back. The worker keeps running with the
    /// sessions it still owns.
    Rebalance {
        /// The ring that will become current once every shard has acked.
        ring: Arc<Ring>,
        /// Receives the snapshot of moved-away sessions.
        ack: mpsc::Sender<Vec<SessionState>>,
    },
    /// Adopt a session snapshotted off another shard.
    Restore {
        /// The moved session (boxed: this variant is rare and large).
        state: Box<SessionState>,
    },
    /// Finish everything and exit the worker thread.
    Shutdown,
}

/// How a shard tells a sleeping producer to look again. Called right
/// after a `Drain`/`Rebalance` ack is in its channel, and right after a
/// drain of the queue when the producer had asked for room
/// ([`ShardQueue::want_room`]) — the two things the gateway's event loop,
/// asleep in `poll(2)`, cannot see for itself.
pub type AckWaker = Arc<dyn Fn() + Send + Sync>;

/// One shard: its queue, its metrics, and its worker thread.
pub struct ShardHandle {
    /// This shard's index (its identity in the ring).
    pub index: usize,
    /// Producer side (shared with the gateway).
    pub queue: Arc<ShardQueue<ShardMsg>>,
    /// Counters (shared with `STATS`).
    pub metrics: Arc<ShardMetrics>,
    join: Option<JoinHandle<()>>,
}

impl ShardHandle {
    /// Spawn a shard worker that wakes nobody (the receiver blocks on the
    /// ack channel itself, the producer inside `push`). Fails only if the OS
    /// refuses the thread; the caller decides whether that is fatal.
    pub fn spawn(
        index: usize,
        queue: Arc<ShardQueue<ShardMsg>>,
        metrics: Arc<ShardMetrics>,
        sink: Arc<AnomalySink>,
        idle_timeout: Duration,
    ) -> std::io::Result<ShardHandle> {
        ShardHandle::spawn_with_waker(index, queue, metrics, sink, idle_timeout, Arc::new(|| {}))
    }

    /// [`ShardHandle::spawn`] with the [`AckWaker`] the worker calls.
    pub fn spawn_with_waker(
        index: usize,
        queue: Arc<ShardQueue<ShardMsg>>,
        metrics: Arc<ShardMetrics>,
        sink: Arc<AnomalySink>,
        idle_timeout: Duration,
        ack_waker: AckWaker,
    ) -> std::io::Result<ShardHandle> {
        let q = Arc::clone(&queue);
        let m = Arc::clone(&metrics);
        let join = sync::thread::Builder::new()
            .name(format!("intellog-shard-{index}"))
            .spawn(move || run_shard(index, &q, &m, &sink, idle_timeout, &*ack_waker))?;
        Ok(ShardHandle {
            index,
            queue,
            metrics,
            join: Some(join),
        })
    }

    /// Join the worker (after a `Shutdown` message has been queued).
    pub fn join(mut self) {
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

type Sessions = HashMap<String, SessionState>;

/// How many records share one clock read for the feed-latency histogram
/// (DESIGN.md §8): each line still gets its own sample, taken at most this
/// many records — a few microseconds — after it was fed.
const LATENCY_STRIDE: u64 = 16;

fn run_shard(
    index: usize,
    queue: &ShardQueue<ShardMsg>,
    metrics: &ShardMetrics,
    sink: &AnomalySink,
    idle_timeout: Duration,
    ack_waker: &(dyn Fn() + Send + Sync),
) {
    // How often we wake up idle and how often, at most, we scan for
    // evictions while busy.
    let tick = Duration::from_millis(100)
        .min(idle_timeout / 2)
        .max(Duration::from_millis(10));
    let mut sessions = Sessions::new();
    let mut last_scan = Instant::now();
    let mut busy = Duration::ZERO;
    // The whole queue is swapped into this deque under one lock per drain
    // (instead of one lock round-trip per message), then processed lock-free.
    let mut drained: VecDeque<ShardMsg> = Default::default();
    let mut shutdown = false;
    loop {
        queue.drain_timeout(tick, &mut drained);
        // drain first, then test the mark: the order `want_room` relies on
        if queue.take_room_wanted() {
            ack_waker();
        }
        let started = Instant::now();
        for msg in drained.drain(..) {
            match msg {
                ShardMsg::Batch { batch, enqueued } => {
                    let records = batch.records();
                    feed_batch(&mut sessions, metrics, batch.tenant(), records, enqueued);
                }
                ShardMsg::Line {
                    tenant,
                    key,
                    line,
                    enqueued,
                    ..
                } => {
                    let record = (key.as_str(), line.ts_ms, line.message.as_str());
                    let records = std::iter::once(record);
                    feed_batch(&mut sessions, metrics, &tenant, records, enqueued);
                }
                ShardMsg::End { key } => {
                    if let Some(live) = sessions.remove(&key) {
                        finish_session(live, metrics, sink, false);
                    }
                }
                ShardMsg::Drain { tenant, ack } => {
                    let n = match tenant {
                        None => finish_all(&mut sessions, metrics, sink),
                        Some(t) => {
                            let keys: Vec<String> = sessions
                                .iter()
                                .filter(|(_, s)| s.tenant.name == t)
                                .map(|(k, _)| k.clone())
                                .collect();
                            let n = keys.len();
                            for k in keys {
                                if let Some(live) = sessions.remove(&k) {
                                    finish_session(live, metrics, sink, false);
                                }
                            }
                            n
                        }
                    };
                    // ack first, then wake: a loop woken before the ack is
                    // in the channel would find nothing and park again
                    let _ = ack.send(n);
                    ack_waker();
                }
                ShardMsg::Rebalance { ring, ack } => {
                    let moved_keys: Vec<String> = sessions
                        .keys()
                        .filter(|k| ring.owner(k) != index)
                        .cloned()
                        .collect();
                    let mut moved = Vec::with_capacity(moved_keys.len());
                    for k in moved_keys {
                        if let Some(s) = sessions.remove(&k) {
                            metrics.sessions_live.fetch_sub(1, Ordering::Relaxed);
                            moved.push(s);
                        }
                    }
                    let _ = ack.send(moved);
                    ack_waker();
                }
                ShardMsg::Restore { state } => {
                    metrics.sessions_live.fetch_add(1, Ordering::Relaxed);
                    match sessions.entry(state.key.clone()) {
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(*state);
                        }
                        std::collections::hash_map::Entry::Occupied(_) => {
                            // Cannot happen while the gateway holds a moved
                            // key's lines back in their connection until
                            // the restore is enqueued, but if it ever
                            // does, close the restored state rather than
                            // silently dropping its verdicts.
                            obs::inc!("gateway.rebalance.restore_conflicts");
                            metrics.sessions_live.fetch_sub(1, Ordering::Relaxed);
                            finish_session(*state, metrics, sink, false);
                        }
                    }
                }
                ShardMsg::Shutdown => {
                    // Everything enqueued before the shutdown has already
                    // been processed (queue order); later messages are shed.
                    finish_all(&mut sessions, metrics, sink);
                    shutdown = true;
                    break;
                }
            }
        }
        if last_scan.elapsed() >= tick {
            last_scan = Instant::now();
            evict_idle(&mut sessions, metrics, sink, idle_timeout);
        }
        busy += started.elapsed();
        metrics
            .busy_us
            .store(busy.as_micros() as u64, Ordering::Relaxed);
        if shutdown {
            return;
        }
    }
}

// lint: ingest-hot(begin)

/// Feed one batch's records to their sessions. The clock is read once for
/// every session's `last_seen` and then once per [`LATENCY_STRIDE`]
/// records; `ingested` and the tenant's `lines` move once.
fn feed_batch<'a>(
    sessions: &mut Sessions,
    metrics: &ShardMetrics,
    tenant: &Arc<TenantEntry>,
    records: impl Iterator<Item = (&'a str, u64, &'a str)>,
    enqueued: Instant,
) {
    let now = Instant::now();
    let (mut fed, mut sampled) = (0u64, 0u64);
    let sample = |lines: u64| {
        let waited = enqueued.elapsed().as_micros() as u64;
        metrics.feed_latency.record_us_n(waited, lines);
    };
    for (key, ts_ms, message) in records {
        feed_record(sessions, metrics, tenant, key, ts_ms, message, now);
        fed += 1;
        if fed - sampled == LATENCY_STRIDE {
            sample(LATENCY_STRIDE);
            sampled = fed;
        }
    }
    if fed > sampled {
        sample(fed - sampled);
    }
    metrics.ingested.fetch_add(fed, Ordering::Relaxed);
    tenant.metrics.lines.fetch_add(fed, Ordering::Relaxed);
}

/// The per-record body: find the session by its borrowed key — opening
/// it is the only step that allocates — and feed it the line.
fn feed_record(
    sessions: &mut Sessions,
    metrics: &ShardMetrics,
    tenant: &Arc<TenantEntry>,
    key: &str,
    ts_ms: u64,
    message: &str,
    now: Instant,
) {
    let live = match sessions.get_mut(key) {
        Some(live) => live,
        None => open_session(sessions, metrics, tenant, key, now),
    };
    live.last_seen = now;
    let detector = live.lease.detector();
    if let Some(anomaly) = live.stream.feed_message(detector, ts_ms, message) {
        let tenant = &live.tenant.metrics;
        metrics.online_anomalies.fetch_add(1, Ordering::Relaxed);
        tenant.online_anomalies.fetch_add(1, Ordering::Relaxed);
        if matches!(anomaly, Anomaly::UnexpectedRepeats { .. }) {
            metrics
                .unexpected_suppressed
                .fetch_add(1, Ordering::Relaxed);
            tenant.unexpected_suppressed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// lint: ingest-hot(end)

/// Open the session `key` names, pinned to the tenant's current model
/// version.
fn open_session<'s>(
    sessions: &'s mut Sessions,
    metrics: &ShardMetrics,
    tenant: &Arc<TenantEntry>,
    key: &str,
    now: Instant,
) -> &'s mut SessionState {
    metrics.sessions_opened.fetch_add(1, Ordering::Relaxed);
    metrics.sessions_live.fetch_add(1, Ordering::Relaxed);
    tenant
        .metrics
        .sessions_opened
        .fetch_add(1, Ordering::Relaxed);
    let session = session_of(key, &tenant.name);
    sessions.entry(key.to_string()).or_insert(SessionState {
        key: key.to_string(),
        lease: tenant.open_session(),
        tenant: Arc::clone(tenant),
        stream: StreamState::begin(session),
        last_seen: now,
    })
}

/// Close one session: final structural checks against its pinned model
/// version, report to the sink, counters updated. Dropping the lease here
/// is what lets an old model version drain after a hot reload.
fn finish_session(live: SessionState, metrics: &ShardMetrics, sink: &AnomalySink, evicted: bool) {
    let counter = if evicted {
        &metrics.sessions_evicted
    } else {
        &metrics.sessions_closed
    };
    counter.fetch_add(1, Ordering::Relaxed);
    metrics.sessions_live.fetch_sub(1, Ordering::Relaxed);
    let SessionState {
        tenant,
        lease,
        stream,
        ..
    } = live;
    let report = stream.finish(lease.detector());
    tenant
        .metrics
        .sessions_closed
        .fetch_add(1, Ordering::Relaxed);
    if report.is_problematic() {
        tenant
            .metrics
            .reports_problematic
            .fetch_add(1, Ordering::Relaxed);
    }
    sink.push(&tenant.name, report);
    drop(lease);
}

fn finish_all(sessions: &mut Sessions, metrics: &ShardMetrics, sink: &AnomalySink) -> usize {
    let n = sessions.len();
    for (_, live) in sessions.drain() {
        finish_session(live, metrics, sink, false);
    }
    n
}

fn evict_idle(
    sessions: &mut Sessions,
    metrics: &ShardMetrics,
    sink: &AnomalySink,
    idle_timeout: Duration,
) {
    let expired: Vec<String> = sessions
        .iter()
        .filter(|(_, live)| live.last_seen.elapsed() >= idle_timeout)
        .map(|(id, _)| id.clone())
        .collect();
    for id in expired {
        if let Some(live) = sessions.remove(&id) {
            finish_session(live, metrics, sink, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Backpressure;
    use crate::registry::TenantRegistry;
    use crate::ring::session_key;
    use anomaly::{Detector, Trainer};
    use spell::{Level, Session};

    fn line(ts: u64, msg: &str) -> LogLine {
        LogLine {
            ts_ms: ts,
            level: Level::Info,
            source: "X".into(),
            message: msg.into(),
        }
    }

    fn trained() -> Detector {
        let mk = |id: &str, k: u32| {
            Session::new(
                id,
                vec![
                    line(0, "Registering block manager endpoint on host1"),
                    line(10, &format!("Starting task {k} in stage 0")),
                    line(
                        20,
                        &format!("Finished task {k} in stage 0 and sent 9 bytes to driver"),
                    ),
                    line(30, "Shutdown hook called"),
                ],
            )
        };
        Trainer::default().train(&[mk("c0", 1), mk("c1", 2), mk("c2", 3)])
    }

    fn harness() -> (
        Arc<TenantEntry>,
        Arc<ShardQueue<ShardMsg>>,
        Arc<ShardMetrics>,
        Arc<AnomalySink>,
    ) {
        let reg = TenantRegistry::new();
        let tenant = reg.register("t0", Arc::new(trained()));
        (
            tenant,
            Arc::new(ShardQueue::new(64, Backpressure::Block)),
            Arc::new(ShardMetrics::default()),
            Arc::new(AnomalySink::new(16, None).unwrap()),
        )
    }

    fn push_line(
        queue: &ShardQueue<ShardMsg>,
        tenant: &Arc<TenantEntry>,
        session: &str,
        l: LogLine,
    ) {
        queue.push(ShardMsg::Line {
            tenant: Arc::clone(tenant),
            key: session_key(&tenant.name, session),
            session: session.into(),
            line: l,
            enqueued: Instant::now(),
        });
    }

    #[test]
    fn end_to_end_shard_worker_matches_batch_detection() {
        let (tenant, queue, metrics, sink) = harness();
        let det = tenant.current().detector.clone();
        let shard = ShardHandle::spawn(
            0,
            Arc::clone(&queue),
            Arc::clone(&metrics),
            Arc::clone(&sink),
            Duration::from_secs(60),
        )
        .unwrap();
        let session = Session::new(
            "c9",
            vec![
                line(0, "Registering block manager endpoint on host1"),
                line(5, "spill 1 written to /tmp/x.out"),
                line(10, "Starting task 9 in stage 0"),
                line(30, "Shutdown hook called"),
            ],
        );
        for l in &session.lines {
            push_line(&queue, &tenant, "c9", l.clone());
        }
        queue.push_control(ShardMsg::End {
            key: session_key("t0", "c9"),
        });
        queue.push_control(ShardMsg::Shutdown);
        shard.join();
        let reports = sink.recent_reports(10, None);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0], det.detect_session(&session));
        assert_eq!(metrics.ingested.load(Ordering::Relaxed), 4);
        assert_eq!(metrics.sessions_closed.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.sessions_live.load(Ordering::Relaxed), 0);
        assert!(metrics.feed_latency.count() == 4);
        // tenant counters saw the same traffic
        assert_eq!(tenant.metrics.lines.load(Ordering::Relaxed), 4);
        assert_eq!(tenant.metrics.sessions_closed.load(Ordering::Relaxed), 1);
        // the session's lease was released on finish
        assert_eq!(tenant.current().live(), 0);
    }

    /// A batch interleaving two sessions, and the same lines as one-line
    /// messages, give the reports offline detection gives: one body.
    #[test]
    fn batches_and_single_lines_run_the_same_body() {
        let (tenant, queue, metrics, sink) = harness();
        let det = tenant.current().detector.clone();
        let shard = ShardHandle::spawn(
            0,
            Arc::clone(&queue),
            Arc::clone(&metrics),
            Arc::clone(&sink),
            Duration::from_secs(60),
        )
        .unwrap();
        let lines = vec![
            line(0, "Registering block manager endpoint on host1"),
            line(5, "spill 1 written to /tmp/x.out"),
            line(10, "Starting task 9 in stage 0"),
            line(30, "Shutdown hook called"),
        ];
        let mut batch = LineBatch::new(Arc::clone(&tenant), 0);
        assert!(batch.is_empty());
        for l in &lines {
            for session in ["b0", "b1"] {
                batch.push(&session_key("t0", session), l.ts_ms, &l.message);
            }
            push_line(&queue, &tenant, "single", l.clone());
        }
        assert_eq!(batch.len(), 8);
        assert_eq!(
            batch.records().nth(3),
            Some(("t0\x1fb1", 5, "spill 1 written to /tmp/x.out"))
        );
        queue.push_weighted(
            ShardMsg::Batch {
                batch,
                enqueued: Instant::now(),
            },
            8,
        );
        for session in ["b0", "b1", "single"] {
            queue.push_control(ShardMsg::End {
                key: session_key("t0", session),
            });
        }
        queue.push_control(ShardMsg::Shutdown);
        shard.join();
        let reports = sink.recent_reports(10, None);
        assert_eq!(reports.len(), 3);
        for session in ["b0", "b1", "single"] {
            let offline = det.detect_session(&Session::new(session, lines.clone()));
            assert!(offline.is_problematic(), "the spill line is unexpected");
            assert!(reports.contains(&offline), "{session} differs from offline");
        }
        assert_eq!(metrics.ingested.load(Ordering::Relaxed), 12);
        assert_eq!(metrics.feed_latency.count(), 12, "one sample per line");
        assert_eq!(metrics.online_anomalies.load(Ordering::Relaxed), 3);
        assert_eq!(tenant.metrics.lines.load(Ordering::Relaxed), 12);
        assert_eq!(tenant.metrics.sessions_opened.load(Ordering::Relaxed), 3);
        assert!(metrics.busy_us.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn idle_sessions_are_evicted_with_final_report() {
        let (tenant, queue, metrics, sink) = harness();
        let shard = ShardHandle::spawn(
            0,
            Arc::clone(&queue),
            Arc::clone(&metrics),
            Arc::clone(&sink),
            Duration::from_millis(50),
        )
        .unwrap();
        push_line(
            &queue,
            &tenant,
            "idle1",
            line(0, "Starting task 9 in stage 0"),
        );
        // wait well past the idle timeout + scan tick
        let deadline = Instant::now() + Duration::from_secs(5);
        while sink.completed() == 0 && Instant::now() < deadline {
            sync::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(sink.completed(), 1, "idle session must be evicted");
        assert_eq!(metrics.sessions_evicted.load(Ordering::Relaxed), 1);
        let report = &sink.recent_reports(1, None)[0];
        assert_eq!(report.session, "idle1");
        // truncated session → structural anomalies in the final report
        assert!(report.is_problematic());
        queue.push_control(ShardMsg::Shutdown);
        shard.join();
    }

    /// Moving a session to another shard mid-stream (Rebalance snapshot →
    /// Restore) must not change its final report.
    #[test]
    fn rebalance_snapshot_restore_is_verdict_lossless() {
        let (tenant, q0, m0, sink) = harness();
        let det = tenant.current().detector.clone();
        let shard0 = ShardHandle::spawn(
            0,
            Arc::clone(&q0),
            Arc::clone(&m0),
            Arc::clone(&sink),
            Duration::from_secs(60),
        )
        .unwrap();
        let q1 = Arc::new(ShardQueue::new(64, Backpressure::Block));
        let m1 = Arc::new(ShardMetrics::default());
        let shard1 = ShardHandle::spawn(
            1,
            Arc::clone(&q1),
            Arc::clone(&m1),
            Arc::clone(&sink),
            Duration::from_secs(60),
        )
        .unwrap();
        let session = Session::new(
            "c9",
            vec![
                line(0, "Registering block manager endpoint on host1"),
                line(5, "spill 1 written to /tmp/x.out"),
                line(10, "Starting task 9 in stage 0"),
                line(30, "Shutdown hook called"),
            ],
        );
        // first half on shard 0
        for l in &session.lines[..2] {
            push_line(&q0, &tenant, "c9", l.clone());
        }
        // rebalance against a ring where shard 0 no longer exists: the
        // session must be snapshotted out
        let ring = Arc::new(Ring::new(&[1], 8));
        let (tx, rx) = mpsc::channel();
        q0.push_control(ShardMsg::Rebalance { ring, ack: tx });
        let moved = rx.recv().unwrap();
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].stream.lines_seen(), 2, "pre-move lines consumed");
        for s in moved {
            q1.push_control(ShardMsg::Restore { state: Box::new(s) });
        }
        // second half on shard 1
        for l in &session.lines[2..] {
            push_line(&q1, &tenant, "c9", l.clone());
        }
        q1.push_control(ShardMsg::End {
            key: session_key("t0", "c9"),
        });
        q0.push_control(ShardMsg::Shutdown);
        q1.push_control(ShardMsg::Shutdown);
        shard0.join();
        shard1.join();
        let reports = sink.recent_reports(10, None);
        assert_eq!(reports.len(), 1, "exactly one report despite the move");
        assert_eq!(reports[0], det.detect_session(&session));
        assert_eq!(m1.sessions_closed.load(Ordering::Relaxed), 1);
        assert_eq!(tenant.current().live(), 0, "lease released after move");
    }

    /// A tenant-scoped drain must leave other tenants' sessions running.
    #[test]
    fn tenant_scoped_drain_is_isolated() {
        let reg = TenantRegistry::new();
        let t0 = reg.register("t0", Arc::new(trained()));
        let t1 = reg.register("t1", Arc::new(trained()));
        let queue = Arc::new(ShardQueue::new(64, Backpressure::Block));
        let metrics = Arc::new(ShardMetrics::default());
        let sink = Arc::new(AnomalySink::new(16, None).unwrap());
        let shard = ShardHandle::spawn(
            0,
            Arc::clone(&queue),
            Arc::clone(&metrics),
            Arc::clone(&sink),
            Duration::from_secs(60),
        )
        .unwrap();
        push_line(&queue, &t0, "s0", line(0, "Starting task 1 in stage 0"));
        push_line(&queue, &t1, "s1", line(0, "Starting task 2 in stage 0"));
        let (tx, rx) = mpsc::channel();
        queue.push_control(ShardMsg::Drain {
            tenant: Some("t0".into()),
            ack: tx,
        });
        assert_eq!(rx.recv().unwrap(), 1, "only t0's session drains");
        assert_eq!(sink.recent_reports(10, Some("t1")).len(), 0);
        assert_eq!(sink.recent_reports(10, Some("t0")).len(), 1);
        queue.push_control(ShardMsg::Shutdown);
        shard.join();
        assert_eq!(sink.recent_reports(10, Some("t1")).len(), 1);
    }
}
