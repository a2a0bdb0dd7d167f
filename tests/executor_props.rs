//! The executor's contract seen from outside `crates/sync`, through the
//! one public entry point the pipeline uses: `sync::par_map_ordered` at the
//! host's parallelism (`crates/sync/src/par.rs` runs the same properties
//! over 1–8 threads).
//!
//! The pipeline's byte-identical parallel/sequential guarantee rests on
//! `par_map_ordered` consuming the sequential map's results in input order
//! for any input size, window and per-item cost distribution, and on no
//! call leaving a thread behind. Detection maps a job with the whole job
//! as its window and every item weighing 1; `whole` below is that shape.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::time::{Duration, Instant};
use sync::atomic::{AtomicUsize, Ordering};
use sync::par_map_ordered;

/// `par_map_ordered` in detection's shape — the whole input as the window,
/// every item weighing 1 — collected in the order the consumer saw.
fn whole<'a, T: Sync, R: Send>(items: &'a [T], f: impl Fn(&'a T) -> R + Sync) -> Vec<R> {
    let mut seen = Vec::with_capacity(items.len());
    par_map_ordered(items, items.len(), |_| 1, f, |r| seen.push(r));
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With the whole input as its window, the map equals the sequential
    /// map in both content and order.
    #[test]
    fn par_map_equals_sequential(items in prop::collection::vec(0u64..1 << 40, 0..300)) {
        let f = |x: &u64| x.wrapping_mul(31).rotate_left(7);
        prop_assert_eq!(whole(&items, f), items.iter().map(f).collect::<Vec<_>>());
    }

    /// `par_map_ordered` hands the consumer the sequential map's results,
    /// in order, whatever the window and the items' weights.
    #[test]
    fn par_map_ordered_consumes_in_sequential_order(
        items in prop::collection::vec(0u64..1 << 40, 0..300),
        window in 1usize..20,
    ) {
        let f = |x: &u64| x.wrapping_mul(31).rotate_left(7);
        let mut seen = Vec::with_capacity(items.len());
        par_map_ordered(&items, window, |x| (*x % 7) as usize, f, |r| seen.push(r));
        prop_assert_eq!(seen, items.iter().map(f).collect::<Vec<_>>());
    }

    /// Non-trivial result types (allocations) survive the slot round-trip.
    #[test]
    fn par_map_preserves_owned_results(items in prop::collection::vec(any::<u32>(), 0..200)) {
        let f = |x: &u32| format!("v{x:08}");
        prop_assert_eq!(whole(&items, f), items.iter().map(f).collect::<Vec<_>>());
    }
}

/// A bare call over an input far larger than the thread count — the
/// process-wide default the pipeline uses, with no pool configured — is
/// order-exact.
#[test]
fn global_pool_par_map_is_order_exact() {
    let items: Vec<u64> = (0..10_000).collect();
    let par = whole(&items, |x| x * 3 + 1);
    let seq: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
    assert_eq!(par, seq);
}

/// A panic in one item reaches the caller after every participant has
/// stopped (no torn state, no hang), and the next call runs normally.
#[test]
fn panic_propagates_and_next_op_runs() {
    let items: Vec<u32> = (0..500).collect();
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        whole(&items, |&x| {
            if x == 250 {
                panic!("executor-test panic at {x}");
            }
            x * 2
        })
    }));
    let payload = result.expect_err("an item's panic must reach the caller");
    let msg = payload
        .downcast_ref::<String>()
        .expect("panic payload should be the formatted message");
    assert!(msg.contains("executor-test panic"), "{msg}");
    let ok = whole(&items, |&x| x + 1);
    assert_eq!(ok, (1..501).collect::<Vec<u32>>());
}

/// A handful of items ~1000x costlier than the rest, at the front of the
/// input — the worst case for one contiguous chunk per thread. Claimed one
/// at a time, by a helper or by the caller while its next result is not
/// ready, every item runs exactly once and the result stays in order.
#[test]
fn skewed_cost_stays_correct_and_spreads() {
    fn burn(iters: u64) -> u64 {
        let mut acc = 0x9e3779b97f4a7c15u64;
        for i in 0..iters {
            acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        acc
    }
    let items: Vec<u64> = (0..400).collect();
    let cost = |&x: &u64| if x < 4 { 2_000_000 } else { 2_000 };
    let value = |x: &u64| burn(cost(x)).wrapping_add(*x);
    let runs = AtomicUsize::new(0);
    let par = whole(&items, |x| {
        runs.fetch_add(1, Ordering::Relaxed);
        value(x)
    });
    assert_eq!(par, items.iter().map(value).collect::<Vec<_>>());
    assert_eq!(runs.load(Ordering::Relaxed), items.len());
}

/// No thread outlives the call that started it: after the map returns,
/// every thread that ran one of its items — other than the caller — is gone
/// from `/proc/self/task`. Threads are told apart by task id, not counted,
/// so tests running alongside cannot disturb the check. Exit is given a
/// grace period: `join` returns when the thread has finished, a moment
/// before the kernel drops its task entry. Skipped where `/proc` is absent.
#[test]
fn no_thread_outlives_a_parallel_op() {
    fn task_id() -> Option<String> {
        let link = std::fs::read_link("/proc/thread-self").ok()?;
        Some(link.file_name()?.to_string_lossy().into_owned())
    }
    let Some(caller) = task_id() else { return };
    let items: Vec<u64> = (0..64).collect();
    let ran_on = whole(&items, |&x| {
        // long enough per item that every participant claims some
        let mut acc = x;
        for i in 0..200_000u64 {
            acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        task_id().expect("/proc/thread-self")
    });
    let helpers: BTreeSet<String> = ran_on.into_iter().filter(|t| *t != caller).collect();
    let alive = |t: &&String| Path::new("/proc/self/task").join(t).exists();
    let deadline = Instant::now() + Duration::from_secs(5);
    while helpers.iter().any(|t| alive(&t)) && Instant::now() < deadline {
        sync::thread::sleep(Duration::from_millis(1));
    }
    let left: Vec<&String> = helpers.iter().filter(alive).collect();
    assert!(
        left.is_empty(),
        "threads {left:?} ran items of a finished op and are still alive"
    );
}
