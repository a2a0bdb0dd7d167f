//! Deterministic concurrency checking of the workspace's real sync code.
//!
//! Compiled only under `--cfg intellog_check` (see DESIGN.md §11):
//!
//! ```text
//! RUSTFLAGS="--cfg intellog_check" cargo test --test model_check --target-dir target/check
//! ```
//!
//! Every scenario runs under `sync::check::explore`, which owns all
//! interleaving: a bounded exhaustive-DFS phase followed by seeded
//! random + PCT-style schedules. Failures print a replayable schedule.
//!
//! Lost wakeups are detected through the forced-timeout criterion: the
//! controlled scheduler fires a timed wait's timeout only when *nothing*
//! else can run, so in scenarios whose timed waits are all eventually
//! satisfied, `forced_timeouts == 0` holds iff no wakeup was lost.
//!
//! The mutant tests at the bottom (compiled only when
//! `--cfg intellog_mutant_lost_wakeup` is added on top) prove the
//! criterion has teeth: with `ShardQueue::push`'s notify deleted, the
//! same scenarios that are silent here must report forced timeouts.
//!
//! No scenario runs a parallel map: `sync::par_map` runs one on scoped
//! threads, which are real OS threads rather than scheduler tasks, and it
//! has no wait or wakeup to check — its workers are joined, never parked.
#![cfg(intellog_check)]

use anomaly::SessionReport;
use intellog_gateway::IdleGate;
use intellog_serve::{
    session_key, AnomalySink, Backpressure, Ring, ShardHandle, ShardMetrics, ShardMsg, ShardQueue,
    TenantRegistry, DEFAULT_VNODES,
};
use spell::{Level, LogLine};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use sync::check::{explore, replay, CheckConfig};
use sync::{thread, Arc};

/// Iteration budget, divided by 10 when `INTELLOG_MC_SMOKE=1` (the CI
/// smoke job) so the bounded run stays well under its time box while the
/// full local run clears the 10k-interleaving bar.
fn iters(full: usize) -> usize {
    match std::env::var("INTELLOG_MC_SMOKE") {
        Ok(v) if v == "1" => (full / 10).max(20),
        _ => full,
    }
}

fn cfg(iterations: usize, dfs_budget: usize) -> CheckConfig {
    CheckConfig {
        iterations,
        dfs_budget,
        ..CheckConfig::default()
    }
}

// ---------------------------------------------------------------------
// ShardQueue: drain_timeout vs concurrent producers, all three policies.
// ---------------------------------------------------------------------

fn queue_scenario(policy: Backpressure, capacity: usize) {
    let q = Arc::new(ShardQueue::new(capacity, policy));
    let producers: Vec<_> = (0..2)
        .map(|i| {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(i))
        })
        .collect();
    // Drain until both pushes are accounted for (enqueued or shed). The
    // consumer only ever waits while an unresolved push remains, and any
    // push that enqueues also notifies — so under a correct queue no
    // timed wait here can need the forced-timeout escape hatch.
    let mut got = 0;
    let mut batch = VecDeque::new();
    while got + (q.dropped() as usize) < 2 {
        got += q.drain_timeout(Duration::from_millis(50), &mut batch);
        batch.clear();
    }
    for p in producers {
        p.join().expect("producer exits");
    }
    assert_eq!(got + q.dropped() as usize, 2);
    if policy == Backpressure::Block {
        assert_eq!(q.dropped(), 0, "block policy must never shed");
    }
}

#[cfg(not(intellog_mutant_lost_wakeup))]
#[test]
fn shard_queue_block_policy_under_all_interleavings() {
    // capacity 1 forces the producer-blocks / drain-unblocks handoff
    let report = explore(&cfg(iters(2000), 300), || {
        queue_scenario(Backpressure::Block, 1)
    });
    report.assert_no_lost_wakeups();
    assert!(report.executions >= iters(2000));
    assert!(
        report.distinct_schedules > 1,
        "scheduler found no diversity"
    );
}

#[cfg(not(intellog_mutant_lost_wakeup))]
#[test]
fn shard_queue_drop_newest_under_all_interleavings() {
    explore(&cfg(iters(2000), 300), || {
        queue_scenario(Backpressure::DropNewest, 1)
    })
    .assert_no_lost_wakeups();
}

#[cfg(not(intellog_mutant_lost_wakeup))]
#[test]
fn shard_queue_drop_oldest_under_all_interleavings() {
    explore(&cfg(iters(2000), 300), || {
        queue_scenario(Backpressure::DropOldest, 1)
    })
    .assert_no_lost_wakeups();
}

/// Weighted pushes (line batches): capacity 4 lines, two producers each
/// pushing a 3-line batch, a control message and an oversized 6-line
/// batch, against a draining consumer. Under every interleaving each line
/// is delivered or counted as shed, control messages are never shed, and
/// `block` sheds nothing — a batch that does not fit waits (the oversized
/// one until the queue holds no lines) and is woken by the drain.
fn weighted_queue_scenario(policy: Backpressure) {
    const CONTROL: usize = 0; // data messages are their own weight
    let q = Arc::new(ShardQueue::new(4, policy));
    let producers: Vec<_> = (0..2)
        .map(|_| {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                q.push_weighted(3, 3);
                q.push_control(CONTROL);
                q.push_weighted(6, 6);
            })
        })
        .collect();
    let (mut lines, mut controls) = (0, 0);
    let mut batch = VecDeque::new();
    while lines + (q.dropped() as usize) < 18 || controls < 2 {
        q.drain_timeout(Duration::from_millis(50), &mut batch);
        controls += batch.iter().filter(|&&m| m == CONTROL).count();
        lines += batch.drain(..).sum::<usize>();
    }
    for p in producers {
        p.join().expect("producer exits");
    }
    assert_eq!(lines + q.dropped() as usize, 18, "every line accounted for");
    assert_eq!(controls, 2, "control messages are never shed");
    if policy == Backpressure::Block {
        assert_eq!(q.dropped(), 0, "block policy must never shed");
    }
}

#[cfg(not(intellog_mutant_lost_wakeup))]
#[test]
fn weighted_pushes_account_for_every_line_under_all_interleavings() {
    for policy in [
        Backpressure::Block,
        Backpressure::DropNewest,
        Backpressure::DropOldest,
    ] {
        let report = explore(&cfg(iters(1500), 300), move || {
            weighted_queue_scenario(policy)
        });
        report.assert_no_lost_wakeups();
        assert!(report.executions >= iters(1500));
    }
}

/// The gateway's never-block rule: a queue's *sole* producer that sizes
/// each push by `room()` is admitted without waiting, whatever the
/// consumer does in between — here it drains once, at any point, and is
/// gone, so a push that waited for room would deadlock the exploration.
#[cfg(not(intellog_mutant_lost_wakeup))]
#[test]
fn sole_producer_sized_by_room_never_waits() {
    let report = explore(&cfg(iters(1500), 300), || {
        let q = Arc::new(ShardQueue::new(4, Backpressure::Block));
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || {
            let mut batch = VecDeque::new();
            q2.drain_timeout(Duration::from_millis(50), &mut batch);
            batch.drain(..).sum::<usize>()
        });
        let mut pushed = 0;
        for _ in 0..3 {
            let lines = q.room().min(3);
            if lines > 0 {
                q.push_weighted(lines, lines);
                pushed += lines;
            }
        }
        let drained = consumer.join().expect("consumer exits");
        assert!(pushed >= 4, "an empty queue has room for its capacity");
        assert_eq!(drained + q.len(), pushed, "nothing shed, nothing lost");
        assert_eq!(q.dropped(), 0);
    });
    report.assert_no_lost_wakeups();
}

/// `close` must wake a producer blocked on a full queue — shed, not hung.
#[cfg(not(intellog_mutant_lost_wakeup))]
#[test]
fn shard_queue_close_always_unblocks_producers() {
    let report = explore(&cfg(iters(1000), 200), || {
        let q = Arc::new(ShardQueue::<u32>::new(1, Backpressure::Block));
        q.push(0);
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || q2.push(1));
        q.close();
        // Whatever the interleaving, the producer must terminate: either
        // it enqueued before the close or it was woken and shed.
        let _ = producer.join().expect("producer exits");
    });
    report.assert_ok();
}

// ---------------------------------------------------------------------
// Serve: one shard worker end to end (lines → END → Shutdown → report).
// ---------------------------------------------------------------------

fn line(ts: u64, msg: &str) -> LogLine {
    LogLine {
        ts_ms: ts,
        level: Level::Info,
        source: "X".into(),
        message: msg.into(),
    }
}

fn trained() -> anomaly::Detector {
    let mk = |id: &str| {
        spell::Session::new(
            id,
            vec![
                line(0, "Registering block manager endpoint on host1"),
                line(10, "Shutdown hook called"),
            ],
        )
    };
    anomaly::Trainer::default().train(&[mk("t0"), mk("t1"), mk("t2")])
}

/// Concurrent producers feed a live shard worker, then END + Shutdown
/// drain it. `run_shard` has a real-time eviction branch
/// (`last_scan.elapsed()`), so the DFS phase is disabled — a fixed
/// schedule does not replay deterministically across wall-clock jitter.
#[cfg(not(intellog_mutant_lost_wakeup))]
#[test]
fn shard_worker_shutdown_always_emits_final_report() {
    let det = Arc::new(trained());
    let report = explore(&cfg(iters(100), 0), move || {
        let registry = TenantRegistry::new();
        let tenant = registry.register("t", Arc::clone(&det));
        let queue = Arc::new(ShardQueue::new(8, Backpressure::Block));
        let metrics = Arc::new(ShardMetrics::default());
        let sink = Arc::new(AnomalySink::new(4, None).expect("memory-only sink"));
        let shard = ShardHandle::spawn(
            0,
            Arc::clone(&queue),
            Arc::clone(&metrics),
            Arc::clone(&sink),
            Duration::from_secs(60),
        )
        .expect("spawn shard worker");
        let producers: Vec<_> = (0..2)
            .map(|i| {
                let q = Arc::clone(&queue);
                let t = Arc::clone(&tenant);
                thread::spawn(move || {
                    q.push(ShardMsg::Line {
                        tenant: t,
                        key: session_key("t", "s"),
                        session: "s".into(),
                        line: line(i, "Registering block manager endpoint on host1"),
                        enqueued: Instant::now(),
                    })
                })
            })
            .collect();
        for p in producers {
            p.join().expect("producer exits");
        }
        queue.push_control(ShardMsg::End {
            key: session_key("t", "s"),
        });
        queue.push_control(ShardMsg::Shutdown);
        shard.join();
        assert_eq!(sink.completed(), 1, "session must be finished exactly once");
        assert_eq!(metrics.ingested.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.sessions_live.load(Ordering::Relaxed), 0);
        assert_eq!(tenant.current().live(), 0, "lease released on finish");
    });
    report.assert_ok();
}

// ---------------------------------------------------------------------
// Gateway protocols: idle-gate wakeups, hot-reload leases, rebalance.
// ---------------------------------------------------------------------

/// The loop's wake descriptor as the scheduler can see it — the seam is
/// `IdleGate`'s `kick` closure: in the gateway it writes one byte to a
/// socket pair and the loop sleeps in `poll(2)`, which no scheduler
/// controls; here the "byte" is a flag under a mutex and the sleep a timed
/// condvar wait, so a sleep nobody ends shows up as a forced timeout. Like
/// the descriptor it is level-triggered: a kick before the sleep makes the
/// sleep return at once, and it stays readable until consumed.
#[derive(Default)]
struct ModelBell {
    readable: sync::Mutex<bool>,
    cv: sync::Condvar,
}

impl ModelBell {
    /// A gate whose kick rings this bell.
    fn gate(self: &Arc<ModelBell>) -> Arc<IdleGate> {
        let bell = Arc::clone(self);
        Arc::new(IdleGate::new(move || {
            *bell.readable.lock() = true;
            bell.cv.notify_one();
        }))
    }

    /// `Poller::wait`: sleep until kicked; consume the kick.
    fn sleep(&self) -> bool {
        let mut readable = self.readable.lock();
        if !*readable {
            readable = self.cv.wait_timeout(readable, Duration::from_millis(50)).0;
        }
        std::mem::take(&mut *readable)
    }
}

/// The event loop's sleep/wake protocol, in both orders. Two wakers each
/// publish a unit of work and wake the gate; the loop sweeps (looks at the
/// work), and when a sweep found nothing new sleeps until kicked, consumes
/// the kick and clears the gate's flag — before its next sweep, or, in the
/// broken variant, after it.
fn gate_scenario(clear_after_sweep: bool) {
    let bell = Arc::new(ModelBell::default());
    let gate = bell.gate();
    let work = Arc::new(AtomicUsize::new(0));
    let wakers: Vec<_> = (0..2)
        .map(|_| {
            let (gate, work) = (Arc::clone(&gate), Arc::clone(&work));
            thread::spawn(move || {
                work.fetch_add(1, Ordering::SeqCst);
                gate.wake();
            })
        })
        .collect();
    let (mut seen, mut kicked) = (0, false);
    while seen < 2 {
        // the sleep consumed the kick; its flag is cleared on one side or
        // the other of the sweep's look at the work
        if kicked && !clear_after_sweep {
            gate.clear();
        }
        let found = work.load(Ordering::SeqCst);
        if kicked && clear_after_sweep {
            gate.clear();
        }
        kicked = found == seen && bell.sleep();
        seen = found;
    }
    for w in wakers {
        w.join().expect("waker exits");
    }
}

/// A wake racing a loop that has not gone to sleep yet is buffered by the
/// flag and the kick; one racing the loop's clear either synchronises with
/// it (the sweep after the clear sees the work) or kicks again — zero
/// forced timeouts proves no interleaving loses it.
#[cfg(not(intellog_mutant_lost_wakeup))]
#[test]
fn idle_gate_wake_is_never_lost() {
    let report = explore(&cfg(iters(1500), 300), || gate_scenario(false));
    report.assert_no_lost_wakeups();
    assert!(report.executions >= iters(1500));
}

/// Clearing the flag *after* the sweep loses a wake: a waker between the
/// sweep's look and the clear finds the flag still set, skips its kick,
/// and the loop sleeps on work it was never told about. The checker must
/// say so.
#[cfg(not(intellog_mutant_lost_wakeup))]
#[test]
fn clearing_the_gate_after_the_sweep_loses_a_wake() {
    let report = explore(&cfg(iters(1500), 300), || gate_scenario(true));
    report.assert_ok(); // terminates — through forced timeouts
    assert!(
        report.forced_timeouts > 0,
        "clear-after-sweep must surface as forced timeouts ({} executions, 0 forced)",
        report.executions
    );
}

/// A drain ack must reach a loop that is about to sleep. The shard sends
/// the ack and *then* wakes the gate; the loop polls the ack channel and
/// sleeps only when it found nothing. An ack sent between the loop's last
/// `try_recv` and its sleep is buffered by the gate's flag and kick — zero
/// forced timeouts proves no interleaving leaves the reply waiting for a
/// wake that never comes. (Real shard worker ⇒ DFS disabled, as above.)
#[cfg(not(intellog_mutant_lost_wakeup))]
#[test]
fn drain_ack_always_wakes_a_parking_loop() {
    let det = Arc::new(trained());
    let report = explore(&cfg(iters(200), 0), move || {
        let registry = TenantRegistry::new();
        let _tenant = registry.register("t", Arc::clone(&det));
        let bell = Arc::new(ModelBell::default());
        let gate = bell.gate();
        let queue = Arc::new(ShardQueue::new(8, Backpressure::Block));
        let sink = Arc::new(AnomalySink::new(4, None).expect("memory-only sink"));
        let waker = Arc::clone(&gate);
        let shard = ShardHandle::spawn_with_waker(
            0,
            Arc::clone(&queue),
            Arc::new(ShardMetrics::default()),
            sink,
            Duration::from_secs(60),
            Arc::new(move || waker.wake()),
        )
        .expect("spawn shard worker");
        let (ack, acks) = sync::mpsc::channel();
        queue.push_control(ShardMsg::Drain { tenant: None, ack });
        // the loop side: poll, sleep only when there is nothing
        while acks.try_recv().is_err() {
            if bell.sleep() {
                gate.clear();
            }
        }
        queue.push_control(ShardMsg::Shutdown);
        shard.join();
    });
    report.assert_no_lost_wakeups();
}

/// The room protocol between the loop and a shard (`ShardQueue::want_room`):
/// the loop, about to hold a line back for lack of room and sleep where the
/// queue's condvars cannot reach it, reads `room()`, marks the queue, and —
/// unless this is the broken variant — reads `room()` again; the shard
/// drains, tests and clears the mark, and wakes the gate if it was set.
fn room_scenario(reread: bool) {
    let bell = Arc::new(ModelBell::default());
    let gate = bell.gate();
    let q = Arc::new(ShardQueue::new(2, Backpressure::Block));
    q.push_weighted(2, 2); // full
    let (q2, waker) = (Arc::clone(&q), Arc::clone(&gate));
    let shard = thread::spawn(move || {
        let mut batch = VecDeque::new();
        q2.drain_timeout(Duration::from_millis(50), &mut batch);
        if q2.take_room_wanted() {
            waker.wake();
        }
    });
    loop {
        let mut room = q.room();
        if room == 0 {
            q.want_room();
            if reread {
                room = q.room();
            }
        }
        if room > 0 {
            q.push_weighted(1, 1);
            break;
        }
        // the line is held back; only the shard's wake ends this
        if bell.sleep() {
            gate.clear();
        }
    }
    shard.join().expect("shard exits");
    assert_eq!((q.len(), q.dropped()), (1, 0));
}

/// Either the drain comes before the re-read, which then sees its room,
/// or after it, and then it sees the mark: no interleaving strands the
/// held-back line.
#[cfg(not(intellog_mutant_lost_wakeup))]
#[test]
fn a_held_back_line_is_always_woken_for_room() {
    let report = explore(&cfg(iters(1500), 300), || room_scenario(true));
    report.assert_no_lost_wakeups();
    assert!(report.executions >= iters(1500));
}

/// Without the re-read, a drain between the first look and the mark sees
/// no mark and wakes nobody, and the loop sleeps beside an empty queue.
#[cfg(not(intellog_mutant_lost_wakeup))]
#[test]
fn marking_room_wanted_without_looking_again_strands_the_line() {
    let report = explore(&cfg(iters(1500), 300), || room_scenario(false));
    report.assert_ok(); // terminates — through forced timeouts
    assert!(
        report.forced_timeouts > 0,
        "mark-without-re-read must surface as forced timeouts ({} executions, 0 forced)",
        report.executions
    );
}

/// Hot reload under racing session opens: a swap must never tear a lease
/// (every lease is pinned to exactly one version and releases it), the
/// old version drains to zero once its sessions end, and an open racing
/// the swap lands on one of the two versions — never a third state.
#[test]
fn hot_reload_swap_and_drain_accounts_every_lease() {
    let det = Arc::new(trained());
    let report = explore(&cfg(iters(800), 200), move || {
        let registry = TenantRegistry::new();
        let tenant = registry.register("t", Arc::clone(&det));
        let before = tenant.open_session(); // pinned to v1 across the swap
        let t2 = Arc::clone(&tenant);
        let d2 = Arc::clone(&det);
        let swapper = thread::spawn(move || t2.swap(d2));
        let racing = tenant.open_session(); // v1 or v2, depending on schedule
        let (new_version, old_version, _old_live) = swapper.join().expect("swap exits");
        assert_eq!((new_version, old_version), (2, 1));
        assert_eq!(before.version(), 1, "existing session must stay pinned");
        assert!(
            racing.version() == 1 || racing.version() == 2,
            "racing open saw version {}",
            racing.version()
        );
        let after = tenant.open_session();
        assert_eq!(after.version(), 2, "post-swap opens must see v2");
        drop(after);
        drop(racing);
        drop(before);
        assert_eq!(tenant.current().live(), 0, "v2 fully drained");
        assert_eq!(tenant.reloads(), 1);
    });
    report.assert_ok();
}

/// Rebalance conservation: a session snapshotted off one shard and
/// restored onto another is finished exactly once, with its line counts
/// and lease intact — under every schedule of the two workers and the
/// producer. (Wall-clock eviction branch ⇒ DFS disabled, as above.)
#[cfg(not(intellog_mutant_lost_wakeup))]
#[test]
fn rebalance_snapshot_restore_conserves_sessions() {
    let det = Arc::new(trained());
    let report = explore(&cfg(iters(60), 0), move || {
        let registry = TenantRegistry::new();
        let tenant = registry.register("t", Arc::clone(&det));
        let key = session_key("t", "s");
        let sink = Arc::new(AnomalySink::new(4, None).expect("memory-only sink"));
        let mk_shard = |i: usize| {
            let queue = Arc::new(ShardQueue::new(8, Backpressure::Block));
            let metrics = Arc::new(ShardMetrics::default());
            let handle = ShardHandle::spawn(
                i,
                Arc::clone(&queue),
                Arc::clone(&metrics),
                Arc::clone(&sink),
                Duration::from_secs(60),
            )
            .expect("spawn shard worker");
            (queue, metrics, handle)
        };
        let (q0, m0, h0) = mk_shard(0);
        let (q1, m1, h1) = mk_shard(1);

        // line 1 arrives on shard 0 (concurrently with the gateway's
        // rebalance decision), which then hands the session to shard 1
        let t = Arc::clone(&tenant);
        let q = Arc::clone(&q0);
        let k = key.clone();
        let producer = thread::spawn(move || {
            q.push(ShardMsg::Line {
                tenant: t,
                key: k.clone(),
                session: "s".into(),
                line: line(0, "Registering block manager endpoint on host1"),
                enqueued: Instant::now(),
            })
        });
        producer.join().expect("producer exits");

        let (ack, moved_rx) = sync::mpsc::channel();
        q0.push_control(ShardMsg::Rebalance {
            ring: Arc::new(Ring::new(&[1], DEFAULT_VNODES)),
            ack,
        });
        let moved = moved_rx.recv().expect("shard 0 acks");
        assert_eq!(moved.len(), 1, "the session must be snapshotted out");
        for state in moved {
            q1.push_control(ShardMsg::Restore {
                state: Box::new(state),
            });
        }
        q1.push(ShardMsg::Line {
            tenant: Arc::clone(&tenant),
            key: key.clone(),
            session: "s".into(),
            line: line(10, "Shutdown hook called"),
            enqueued: Instant::now(),
        });
        q1.push_control(ShardMsg::End { key });
        q0.push_control(ShardMsg::Shutdown);
        q1.push_control(ShardMsg::Shutdown);
        h0.join();
        h1.join();

        assert_eq!(sink.completed(), 1, "moved session finishes exactly once");
        assert_eq!(
            m0.ingested.load(Ordering::Relaxed) + m1.ingested.load(Ordering::Relaxed),
            2,
            "every line is counted on exactly one shard"
        );
        assert_eq!(m0.sessions_live.load(Ordering::Relaxed), 0);
        assert_eq!(m1.sessions_live.load(Ordering::Relaxed), 0);
        assert_eq!(tenant.current().live(), 0, "lease released after the move");
    });
    report.assert_ok();
}

// ---------------------------------------------------------------------
// AnomalySink ring and obs histogram under concurrent writers.
// ---------------------------------------------------------------------

fn report_for(id: &str) -> SessionReport {
    SessionReport {
        session: id.into(),
        lines: 1,
        anomalies: vec![],
    }
}

#[test]
fn anomaly_sink_ring_stays_bounded_under_concurrent_pushes() {
    let report = explore(&cfg(iters(1500), 300), || {
        let sink = Arc::new(AnomalySink::new(2, None).expect("memory-only sink"));
        let pushers: Vec<_> = (0..3)
            .map(|i| {
                let s = Arc::clone(&sink);
                thread::spawn(move || s.push("t", report_for(&format!("s{i}"))))
            })
            .collect();
        for p in pushers {
            p.join().expect("pusher exits");
        }
        assert_eq!(sink.completed(), 3, "every push must be counted");
        let recent = sink.recent_reports(10, None);
        assert_eq!(recent.len(), 2, "ring capacity must bound retention");
    });
    report.assert_ok();
    assert!(report.executions >= iters(1500));
}

#[test]
fn obs_histogram_loses_no_records_under_concurrency() {
    let report = explore(&cfg(iters(1500), 300), || {
        let h = Arc::new(obs::Histogram::new());
        let writers: Vec<_> = (0..3)
            .map(|i| {
                let h = Arc::clone(&h);
                thread::spawn(move || {
                    h.record_us(1 << i);
                    h.record_us(1 << i);
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer exits");
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 6);
        assert_eq!(h.sum_us(), 2 * (1 + 2 + 4));
    });
    report.assert_ok();
}

// ---------------------------------------------------------------------
// Tooling self-tests: replay determinism, failure discovery.
// ---------------------------------------------------------------------

/// The same schedule must reproduce the same execution byte for byte —
/// the property that makes a printed failure schedule actually useful.
#[test]
fn replay_is_byte_identical() {
    fn scenario() {
        let n = Arc::new(AtomicU64::new(0));
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                thread::spawn(move || n.fetch_add(1, Ordering::SeqCst))
            })
            .collect();
        for h in hs {
            h.join().expect("adder exits");
        }
        assert_eq!(n.load(Ordering::SeqCst), 2);
    }
    // An empty schedule falls back to first-choice everywhere and records
    // the canonical schedule; replaying that must be a fixed point.
    let first = replay(&[], 20_000, scenario);
    assert!(first.failure.is_none(), "{:?}", first.failure);
    let second = replay(&first.schedule, 20_000, scenario);
    let third = replay(&first.schedule, 20_000, scenario);
    assert_eq!(second.trace, third.trace, "replay must be deterministic");
    assert_eq!(second.schedule, third.schedule);
    assert_eq!(first.trace, second.trace);
}

/// A wait nobody will ever signal: the scheduler must report a deadlock
/// (not hang) and name the stuck task.
#[test]
fn scheduler_reports_deadlocks() {
    let report = explore(
        &CheckConfig {
            iterations: 10,
            dfs_budget: 10,
            ..CheckConfig::default()
        },
        || {
            let pair = Arc::new((sync::Mutex::new(()), sync::Condvar::new()));
            let g = pair.0.lock();
            let _g = pair.1.wait(g); // untimed, never notified
        },
    );
    let failure = report.failure.expect("deadlock must be detected");
    assert!(
        failure.message.contains("deadlock") && failure.message.contains("main"),
        "unexpected failure: {}",
        failure.message
    );
}

/// The classic ABBA inversion, exercised concurrently: the lock-order
/// witness (layered *under* the model checker) converts the latent
/// deadlock into a deterministic panic naming both acquisition sites.
#[test]
fn abba_inversion_is_discovered() {
    let report = explore(
        &CheckConfig {
            iterations: 50,
            dfs_budget: 50,
            ..CheckConfig::default()
        },
        || {
            let a = Arc::new(sync::Mutex::new(0u32));
            let b = Arc::new(sync::Mutex::new(0u32));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = thread::spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            {
                let _gb = b.lock();
                let _ga = a.lock();
            }
            let _ = t.join();
        },
    );
    let failure = report.failure.expect("ABBA must be caught");
    assert!(
        failure.message.contains("lock-order violation") || failure.message.contains("deadlock"),
        "unexpected failure: {}",
        failure.message
    );
}

// ---------------------------------------------------------------------
// Mutant: deliberately deleted wakeup (satellite self-test).
//
// Build with BOTH cfgs to compile the mutation into ShardQueue::push:
//
// RUSTFLAGS="--cfg intellog_check --cfg intellog_mutant_lost_wakeup" \
//   cargo test --test model_check mutant --target-dir target/mutant
// ---------------------------------------------------------------------

/// With the data-path notify deleted, a consumer blocked in
/// `drain_timeout` can only proceed because the *model checker* force-
/// fires its timeout once nothing else is runnable. A nonzero
/// forced-timeout count is exactly the checker catching the lost wakeup
/// (the same scenarios assert zero under the unmutated build).
#[cfg(intellog_mutant_lost_wakeup)]
#[test]
fn mutant_lost_wakeup_is_caught() {
    let report = explore(&cfg(400, 100), || queue_scenario(Backpressure::Block, 2));
    report.assert_ok(); // scenario still terminates (via forced timeouts)…
    assert!(
        report.forced_timeouts > 0,
        "mutant notify deletion must surface as forced timeouts \
         ({} executions, 0 forced)",
        report.executions
    );
}
