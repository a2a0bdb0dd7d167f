//! The workspace's one parallel map.
//!
//! [`par_map`] runs `f` over a slice on the calling thread plus
//! `available_parallelism() − 1` scoped workers (never more participants than
//! items). Every participant claims the next index off one atomic cursor, so
//! a costly item holds back only the thread running it, and the workers are
//! joined before the call returns: no thread outlives it. Each participant
//! keeps the `(index, result)` pairs it ran and the caller places them at
//! their input index, so the result equals `items.iter().map(f).collect()`
//! in content and order. A panic in any item is re-raised on the calling
//! thread once every participant has stopped.
//!
//! Scoped threads are real OS threads under `--cfg intellog_check` too (see
//! [`crate::thread`]), so no exploration runs a parallel map.

use crate::atomic::{AtomicUsize, Ordering};
use crate::thread;
use crate::OnceLock;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Map `f` over `items` in parallel; results in input order. A call made
/// from inside `f` starts its own workers.
pub fn par_map<'a, T: Sync, R: Send>(items: &'a [T], f: impl Fn(&'a T) -> R + Sync) -> Vec<R> {
    // Asked once: on Linux each ask reads cgroup files (≈ 17 µs, as much as
    // starting and joining a worker).
    static THREADS: OnceLock<usize> = OnceLock::new();
    let threads = *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()));
    par_map_on(threads, items, f)
}

fn par_map_on<'a, T: Sync, R: Send>(
    threads: usize,
    items: &'a [T],
    f: impl Fn(&'a T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    // `Relaxed`: the cursor hands out indices and publishes nothing; results
    // reach the caller through `join`.
    let cursor = AtomicUsize::new(0);
    let run = || {
        // Sized to an even share, so a participant rarely reallocates.
        let mut ran = Vec::with_capacity(items.len().div_ceil(threads));
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { return ran };
            ran.push((i, f(item)));
        }
    };
    let shares: Vec<_> = thread::scope(|s| {
        // A worker the OS refuses leaves its items to the threads that did
        // start: the cursor hands out whatever is left.
        let workers: Vec<_> = (1..threads)
            .filter_map(|_| thread::Builder::new().spawn_scoped(s, run).ok())
            .collect();
        let mine = catch_unwind(AssertUnwindSafe(run));
        std::iter::once(mine)
            .chain(workers.into_iter().map(|w| w.join()))
            .collect()
    });

    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let mut panic = None;
    for share in shares {
        match share {
            Ok(ran) => ran.into_iter().for_each(|(i, r)| slots[i] = Some(r)),
            Err(payload) => {
                panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    //! The order-exact and no-leftover-thread contracts that make parallel
    //! training and detection byte-identical to their sequential twins, over
    //! every thread count from 1 to 8.

    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;
    use std::time::{Duration, Instant};

    const THREADS: std::ops::RangeInclusive<usize> = 1..=8;

    /// Deterministic pseudo-random values (splitmix64).
    fn values(n: usize, seed: u64) -> Vec<u64> {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..n).map(|_| next()).collect()
    }

    /// Busy work the optimiser cannot drop.
    fn burn(iters: u64) -> u64 {
        let mut acc = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..iters {
            acc = std::hint::black_box(acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        acc
    }

    #[test]
    fn order_equals_sequential_over_sizes_and_threads() {
        let f = |x: &u64| x.wrapping_mul(31).rotate_left(7);
        for threads in THREADS {
            for len in 0..=300 {
                let items = values(len, (threads * 1000 + len) as u64);
                let seq: Vec<u64> = items.iter().map(f).collect();
                assert_eq!(
                    par_map_on(threads, &items, f),
                    seq,
                    "{threads} threads, {len} items"
                );
            }
        }
    }

    #[test]
    fn owned_results_survive_the_slot_round_trip() {
        let f = |x: &u64| format!("v{x:020}");
        for threads in THREADS {
            for len in (0..200).step_by(7) {
                let items = values(len, len as u64);
                let seq: Vec<String> = items.iter().map(f).collect();
                assert_eq!(
                    par_map_on(threads, &items, f),
                    seq,
                    "{threads} threads, {len} items"
                );
            }
        }
    }

    #[test]
    fn panic_propagates_and_next_op_runs() {
        let items: Vec<u32> = (0..500).collect();
        for threads in THREADS {
            let result = catch_unwind(AssertUnwindSafe(|| {
                par_map_on(threads, &items, |&x| {
                    if x == 250 {
                        panic!("par_map test panic at {x}");
                    }
                    x * 2
                })
            }));
            let payload = result.expect_err("an item's panic must reach the caller");
            let msg = payload.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("par_map test panic"), "{msg}");
            let ok = par_map_on(threads, &items, |&x| x + 1);
            assert_eq!(ok, (1..501).collect::<Vec<u32>>(), "{threads} threads");
        }
    }

    /// The heavy items sit at the front of the input, the worst case for one
    /// contiguous chunk per thread, so participants finish out of order.
    #[test]
    fn skewed_cost_stays_correct() {
        let items: Vec<u64> = (0..400).collect();
        let cost = |&x: &u64| if x < 4 { 2_000_000 } else { 2_000 };
        let f = |x: &u64| burn(cost(x)).wrapping_add(*x);
        let seq: Vec<u64> = items.iter().map(f).collect();
        for threads in [2, 4, 8] {
            assert_eq!(par_map_on(threads, &items, f), seq, "{threads} threads");
        }
    }

    #[test]
    fn a_nested_call_completes_in_order() {
        let items: Vec<u64> = (0..64).collect();
        let expected: Vec<u64> = items
            .iter()
            .map(|&x| x * 1000 + (0..x % 7).sum::<u64>())
            .collect();
        for threads in THREADS {
            let nested = par_map_on(threads, &items, |&x| {
                let inner: Vec<u64> = (0..x % 7).collect();
                x * 1000 + par_map_on(threads, &inner, |&y| y).iter().sum::<u64>()
            });
            assert_eq!(nested, expected, "{threads} threads");
        }
    }

    /// After an op returns, every thread that ran one of its items — the
    /// caller aside — is gone from `/proc/self/task`. Threads are told apart
    /// by task id, not counted, so tests running alongside cannot disturb
    /// the check; exit gets a grace period, because `join` returns a moment
    /// before the kernel drops the task entry. Skipped where `/proc` is
    /// absent.
    #[test]
    fn no_thread_outlives_an_op() {
        fn task_id() -> Option<String> {
            let link = std::fs::read_link("/proc/thread-self").ok()?;
            Some(link.file_name()?.to_string_lossy().into_owned())
        }
        let Some(caller) = task_id() else { return };
        let items: Vec<u64> = (0..64).collect();
        for threads in [2, 4, 8] {
            let ran_on = par_map_on(threads, &items, |&x| {
                // long enough per item that every participant claims some
                burn(200_000 + x);
                task_id().expect("/proc/thread-self")
            });
            let helpers: BTreeSet<String> = ran_on.into_iter().filter(|t| *t != caller).collect();
            let alive = |t: &&String| Path::new("/proc/self/task").join(t).exists();
            let deadline = Instant::now() + Duration::from_secs(5);
            while helpers.iter().any(|t| alive(&t)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let left: Vec<&String> = helpers.iter().filter(alive).collect();
            assert!(left.is_empty(), "threads {left:?} outlived their op");
        }
    }
}
