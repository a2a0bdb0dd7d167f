//! Literal allocation proof for the shard worker's per-record body: a
//! line batch is fed to live sessions without allocating; only a record
//! that opens a session does.
//!
//! The binary installs a counting global allocator that counts per thread.
//! The worker thread is not ours to instrument, but its ack waker runs on
//! it: a tenant-scoped `Drain` for a tenant with no sessions finishes
//! nothing, acks, and calls the waker — which publishes the worker's own
//! count. Two such drains bracket the measured batches.
//!
//! The measured lines match an *ignored* key (a key-value dump, §5), which
//! `StreamState::feed_message` retains nothing of, so whatever is counted
//! is the serving layer's.

use anomaly::{Detector, Trainer};
use intellog_serve::{
    session_key, AnomalySink, Backpressure, LineBatch, ShardHandle, ShardMetrics, ShardMsg,
    ShardQueue, TenantEntry, TenantRegistry,
};
use spell::{Level, LogLine, Session};
use std::time::{Duration, Instant};
use sync::atomic::{AtomicU64, Ordering};
use sync::{mpsc, Arc};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

const SESSIONS: u64 = 64;
const LINES: u64 = 4096;
const BATCH: u64 = 256;

fn trained() -> Detector {
    let line = |ts: u64, message: String| LogLine {
        ts_ms: ts,
        level: Level::Info,
        source: "X".into(),
        message,
    };
    let sessions: Vec<Session> = (0..16u64)
        .map(|i| {
            Session::new(
                format!("c{i}"),
                vec![
                    line(0, format!("Starting task {i} in stage {i}")),
                    line(10, format!("memory={} vcores={i} disk={i}", 1024 + i)),
                ],
            )
        })
        .collect();
    Trainer::default().train(&sessions)
}

/// `BATCH` ignored-key lines from line number `from`, dealt round-robin
/// over sessions `prefix0..prefix63`.
fn batch(tenant: &Arc<TenantEntry>, prefix: &str, from: u64) -> ShardMsg {
    let mut batch = LineBatch::new(Arc::clone(tenant), 32 << 10);
    for n in from..from + BATCH {
        let key = session_key(&tenant.name, &format!("{prefix}{}", n % SESSIONS));
        let message = format!(
            "memory={} vcores={} disk={}",
            1024 + n % 16,
            n / 16 % 16,
            n / 256 % 16
        );
        batch.push(&key, n, &message);
    }
    ShardMsg::Batch {
        batch,
        enqueued: Instant::now(),
    }
}

#[test]
fn the_per_record_body_allocates_only_to_open_a_session() {
    let detector = trained();
    let probe = detector
        .parser
        .match_line("memory=1027 vcores=5 disk=7")
        .expect("resource lines match a trained key");
    assert!(detector.ignored_keys.contains(&probe));

    let registry = TenantRegistry::new();
    let tenant = registry.register("t", Arc::new(detector));
    let queue = Arc::new(ShardQueue::new(2 * LINES as usize, Backpressure::Block));
    let metrics = Arc::new(ShardMetrics::default());
    let sink = Arc::new(AnomalySink::new(256, None).expect("memory-only sink"));

    // Runs on the worker thread right after each drain ack.
    let published = Arc::new(AtomicU64::new(0));
    let publish = Arc::clone(&published);
    let shard = ShardHandle::spawn_with_waker(
        0,
        Arc::clone(&queue),
        Arc::clone(&metrics),
        sink,
        Duration::from_secs(600),
        Arc::new(move || publish.store(allocations(), Ordering::SeqCst)),
    )
    .expect("spawn the shard worker");
    let (ack, acks) = mpsc::channel();
    let worker_allocations = || {
        queue.push_control(ShardMsg::Drain {
            tenant: Some("nobody".into()),
            ack: ack.clone(),
        });
        assert_eq!(acks.recv().expect("drain ack"), 0);
        // the waker runs right behind the ack
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut seen = published.swap(0, Ordering::SeqCst);
        while seen == 0 && Instant::now() < deadline {
            sync::thread::sleep(Duration::from_millis(1));
            seen = published.swap(0, Ordering::SeqCst);
        }
        assert!(seen > 0, "the ack waker must run on the worker thread");
        seen
    };

    // Warm-up: the 64 sessions open and their match buffers, the worker's
    // drain deque and the ack channel reach their working size.
    for b in 0..2 {
        queue.push_weighted(batch(&tenant, "live", b * BATCH), BATCH as usize);
    }
    worker_allocations();
    let before = worker_allocations();

    for b in 0..LINES / BATCH {
        queue.push_weighted(batch(&tenant, "live", 1000 + b * BATCH), BATCH as usize);
    }
    let after_live = worker_allocations();

    // The same lines for sessions not seen before: each opens one.
    queue.push_weighted(batch(&tenant, "fresh", 0), BATCH as usize);
    let after_fresh = worker_allocations();

    queue.push_control(ShardMsg::Shutdown);
    shard.join();
    assert_eq!(metrics.ingested.load(Ordering::Relaxed), LINES + 3 * BATCH);
    assert_eq!(metrics.feed_latency.count(), LINES + 3 * BATCH);
    assert_eq!(
        metrics.sessions_opened.load(Ordering::Relaxed),
        2 * SESSIONS
    );

    // What is left is per message, not per line: the drains bracketing the
    // measurement and their acks.
    let fed = after_live - before;
    assert!(
        fed <= 8,
        "the worker allocated {fed} times feeding {LINES} lines to live sessions"
    );
    let opened = after_fresh - after_live;
    assert!(
        opened >= SESSIONS,
        "opening {SESSIONS} sessions must show in the count (saw {opened})"
    );
}
