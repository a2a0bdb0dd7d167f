//! Executor correctness suite for the vendored scoped executor (each
//! parallel op borrows scoped workers that claim items off one atomic
//! cursor; `vendor/rayon/src/lib.rs`).
//!
//! The pipeline's byte-identical parallel/sequential guarantee rests on the
//! executor's `collect()` preserving input order for any input size, worker
//! count and per-item cost distribution — these tests pin that contract
//! from outside the vendor crate, against the same API the pipeline uses —
//! and on no parallel op leaving a thread behind.

use proptest::prelude::*;
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::time::{Duration, Instant};
use sync::atomic::{AtomicUsize, Ordering};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `par_iter().map().collect()` equals the sequential map in both
    /// content and order, for arbitrary sizes and worker counts.
    #[test]
    fn par_map_equals_sequential(
        items in prop::collection::vec(0u64..1 << 40, 0..300),
        workers in 1usize..8,
    ) {
        let pool = ThreadPoolBuilder::new().num_threads(workers).build().unwrap();
        let par: Vec<u64> = pool.install(|| {
            items.par_iter().map(|x| x.wrapping_mul(31).rotate_left(7)).collect()
        });
        let seq: Vec<u64> = items.iter().map(|x| x.wrapping_mul(31).rotate_left(7)).collect();
        prop_assert_eq!(par, seq);
    }

    /// Non-trivial result types (allocations) survive the slot round-trip.
    #[test]
    fn par_map_preserves_owned_results(
        items in prop::collection::vec(any::<u32>(), 0..200),
        workers in 1usize..6,
    ) {
        let pool = ThreadPoolBuilder::new().num_threads(workers).build().unwrap();
        let par: Vec<String> = pool.install(|| {
            items.par_iter().map(|x| format!("v{x:08}")).collect()
        });
        let seq: Vec<String> = items.iter().map(|x| format!("v{x:08}")).collect();
        prop_assert_eq!(par, seq);
    }
}

/// A panic in one item propagates to the calling thread after every
/// participant has stopped (no torn state, no hang), and the next op
/// installed with the same `ThreadPool` runs normally.
#[test]
fn panic_propagates_and_next_op_runs() {
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let items: Vec<u32> = (0..500).collect();
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| {
            items
                .par_iter()
                .map(|&x| {
                    if x == 250 {
                        panic!("executor-test panic at {x}");
                    }
                    x * 2
                })
                .collect::<Vec<u32>>()
        })
    }));
    let payload = result.expect_err("worker panic must reach the submitter");
    let msg = payload
        .downcast_ref::<String>()
        .expect("panic payload should be the formatted message");
    assert!(msg.contains("executor-test panic"), "{msg}");
    // An op after a panicked one must run normally.
    let ok: Vec<u32> = pool.install(|| items.par_iter().map(|&x| x + 1).collect());
    assert_eq!(ok.len(), items.len());
    assert_eq!(ok[0], 1);
}

/// `install` nests: the innermost pool wins, and the outer scope is
/// restored afterwards — including when nesting happens inside a parallel
/// op (which runs inline on its worker, deadlock-free).
#[test]
fn nested_install_scopes_thread_count() {
    let outer = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let inner = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    outer.install(|| {
        assert_eq!(rayon::current_num_threads(), 4);
        inner.install(|| {
            assert_eq!(rayon::current_num_threads(), 2);
            // a parallel op inside the nested install still works
            let v: Vec<u32> = vec![1u32, 2, 3].par_iter().map(|x| x * 10).collect();
            assert_eq!(v, vec![10, 20, 30]);
        });
        assert_eq!(rayon::current_num_threads(), 4, "outer scope restored");
    });

    // Nested par_iter *inside* a parallel op: must complete (runs inline on
    // the participant) and preserve order.
    let items: Vec<u32> = (0..64).collect();
    let nested: Vec<u64> = outer.install(|| {
        items
            .par_iter()
            .map(|&x| {
                let inner_items: Vec<u32> = (0..x % 7).collect();
                let inner_sum: u64 = inner_items
                    .par_iter()
                    .map(|&y| y as u64)
                    .collect::<Vec<u64>>()
                    .iter()
                    .sum();
                x as u64 * 1000 + inner_sum
            })
            .collect()
    });
    let expected: Vec<u64> = items
        .iter()
        .map(|&x| x as u64 * 1000 + (0..x as u64 % 7).sum::<u64>())
        .collect();
    assert_eq!(nested, expected);
}

/// Code running inside scoped workers sees the installed thread count
/// (`current_num_threads` propagates into workers, not just the installing
/// thread).
#[test]
fn workers_report_installed_thread_count() {
    let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
    let items: Vec<u32> = (0..512).collect();
    let seen: Vec<usize> = pool.install(|| {
        items
            .par_iter()
            .map(|_| rayon::current_num_threads())
            .collect()
    });
    assert!(
        seen.iter().all(|&n| n == 3),
        "every item must observe the pool size, got {:?}",
        seen.iter().collect::<std::collections::BTreeSet<_>>()
    );
}

/// Deliberately skewed per-item cost: a handful of items are ~1000x more
/// expensive than the rest. With one contiguous chunk per thread the
/// stragglers would serialise; with items claimed one at a time off a shared
/// cursor the run must both stay correct and actually spread work across
/// workers.
#[test]
fn skewed_cost_stays_correct_and_spreads() {
    fn burn(iters: u64) -> u64 {
        let mut acc = 0x9e3779b97f4a7c15u64;
        for i in 0..iters {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    }

    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let items: Vec<u64> = (0..400).collect();
    // the heavy items cluster at the front of the input — worst case for
    // one-contiguous-chunk-per-thread splitting
    let cost = |&x: &u64| if x < 4 { 2_000_000 } else { 2_000 };

    static DISTINCT_RUNNERS: AtomicUsize = AtomicUsize::new(0);
    let par: Vec<u64> = pool.install(|| {
        items
            .par_iter()
            .map(|x| {
                DISTINCT_RUNNERS.fetch_add(1, Ordering::Relaxed);
                burn(cost(x)).wrapping_add(*x)
            })
            .collect()
    });
    let seq: Vec<u64> = items
        .iter()
        .map(|x| burn(cost(x)).wrapping_add(*x))
        .collect();
    assert_eq!(par, seq);
    assert_eq!(DISTINCT_RUNNERS.load(Ordering::Relaxed), items.len());
}

/// A bare `par_iter` (no install: available parallelism) is also
/// order-exact.
#[test]
fn global_pool_par_map_is_order_exact() {
    let items: Vec<u64> = (0..10_000).collect();
    let par: Vec<u64> = items.par_iter().map(|x| x * 3 + 1).collect();
    let seq: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
    assert_eq!(par, seq);
}

/// Fifty ops in a row under one `ThreadPool` each return the full, correct
/// result: every op starts from a fresh cursor and its own workers.
#[test]
fn repeated_installs_stay_correct() {
    let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    let items: Vec<u32> = (0..256).collect();
    for round in 0..50 {
        let out: Vec<u32> = pool.install(|| items.par_iter().map(|&x| x ^ round).collect());
        assert_eq!(out.len(), items.len());
        assert_eq!(out[7], 7 ^ round);
    }
}

/// No thread outlives the parallel op that started it: after a bare
/// `par_iter` returns, every thread that ran one of its items — other than
/// the caller — is gone from `/proc/self/task`. Threads are told apart by
/// task id, not counted, so tests running alongside cannot disturb the
/// check. Exit is given a grace period: `join` returns when the thread has
/// finished, a moment before the kernel drops its task entry. Skipped where
/// `/proc` is absent.
#[test]
fn no_thread_outlives_a_parallel_op() {
    fn task_id() -> Option<String> {
        let link = std::fs::read_link("/proc/thread-self").ok()?;
        Some(link.file_name()?.to_string_lossy().into_owned())
    }
    let Some(caller) = task_id() else { return };
    let items: Vec<u64> = (0..64).collect();
    let ran_on: Vec<String> = items
        .par_iter()
        .map(|&x| {
            // long enough per item that every participant claims some
            let mut acc = x;
            for i in 0..200_000u64 {
                acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
            task_id().expect("/proc/thread-self")
        })
        .collect();
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
