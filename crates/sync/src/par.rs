//! The workspace's one parallel map.
//!
//! [`par_map_ordered`] maps a slice and hands each result to a consumer on
//! the calling thread, in input order. Helpers — `available_parallelism() −
//! 1` scoped threads, never more participants than items — compute items
//! ahead, at most a fixed weight of them in flight; the caller takes each
//! next result, and computes the item itself whenever no helper has claimed
//! it yet — so a helper that starts late, or never, costs nothing. While a
//! helper is still computing the caller's next item, the caller computes a
//! later one instead of waiting, so a map slower than the consumer keeps
//! every thread busy. With a window as large as the input no helper ever
//! waits for room, which is how detection maps a job's sessions. Helpers
//! are joined before the call returns, so no thread outlives it, and a
//! panic in the map or the consumer is re-raised once every participant has
//! stopped. The claim / store / take / wait state behind it is
//! [`Handoff`].
//!
//! Scoped threads are real OS threads under `--cfg intellog_check` too (see
//! [`crate::thread`]), so no exploration runs the map; the model-check
//! suite drives a [`Handoff`] from scheduler tasks instead.

use crate::thread;
use crate::{Condvar, Mutex, OnceLock};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Duration;

/// The host's parallelism, asked once: on Linux each ask reads cgroup files
/// (≈ 17 µs, as much as starting and joining a worker).
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Start one worker in `s`; `None` when the OS refuses the thread, whose
/// share of the work then falls to the threads that did start.
fn spawn_worker<'scope, R: Send + 'scope>(
    s: &'scope thread::Scope<'scope, '_>,
    run: impl FnOnce() -> R + Send + 'scope,
) -> Option<thread::ScopedJoinHandle<'scope, R>> {
    #[cfg(test)]
    if tests::REFUSE_SPAWNS.with(std::cell::Cell::get) {
        return None;
    }
    thread::Builder::new().spawn_scoped(s, run).ok()
}

/// Map `f` over `items` and hand each result to `consume`, on the calling
/// thread and in input order. Helpers run ahead while at most `window` of
/// `weight` is in flight — claimed and not yet consumed; an item heavier
/// than the window runs when nothing else is in flight. While its next
/// result is not ready, the caller computes the next unclaimed item itself.
/// A call made from inside `f` starts its own helpers.
pub fn par_map_ordered<'a, T: Sync, R: Send>(
    items: &'a [T],
    window: usize,
    weight: impl Fn(&T) -> usize + Sync,
    f: impl Fn(&'a T) -> R + Sync,
    consume: impl FnMut(R),
) {
    par_map_ordered_on(host_threads(), items, window, weight, f, consume)
}

fn par_map_ordered_on<'a, T: Sync, R: Send>(
    threads: usize,
    items: &'a [T],
    window: usize,
    weight: impl Fn(&T) -> usize + Sync,
    f: impl Fn(&'a T) -> R + Sync,
    mut consume: impl FnMut(R),
) {
    let helpers = threads.min(items.len()).saturating_sub(1);
    if helpers == 0 {
        return items.iter().for_each(|item| consume(f(item)));
    }

    let handoff = Handoff::new(items.len(), window);
    let weight_of = |i: usize| weight(&items[i]);
    let help = || {
        while let Some(i) = handoff.claim(weight_of) {
            match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                Ok(r) => handoff.store(i, r),
                Err(payload) => {
                    handoff.stop();
                    resume_unwind(payload);
                }
            }
        }
    };
    let (mine, theirs) = thread::scope(|s| {
        let workers: Vec<_> = (0..helpers).filter_map(|_| spawn_worker(s, help)).collect();
        let mine = catch_unwind(AssertUnwindSafe(|| {
            for _ in items {
                let result = loop {
                    match handoff.take(weight_of) {
                        Turn::Delivered(r) => break r,
                        Turn::Compute(j) => handoff.store(j, f(&items[j])),
                        Turn::Stopped => return,
                    }
                };
                consume(result);
            }
        }));
        // Done or failed: a helper waiting for room must not wait on.
        handoff.stop();
        let theirs: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        (mine, theirs)
    });
    // The caller's own panic first: a helper that stopped after it did not
    // fail on its own.
    let theirs = theirs.into_iter().find_map(Result::err);
    if let Some(payload) = mine.err().or(theirs) {
        resume_unwind(payload);
    }
}

/// The caller's turn at its next item, from [`Handoff::take`].
#[derive(Debug)]
pub enum Turn<R> {
    /// Its result, ready to consume.
    Delivered(R),
    /// It is not ready: the caller has claimed item `j` — its next item if
    /// no helper had, else a later one — and computes it,
    /// [`store`](Handoff::store)s it and takes again.
    Compute(usize),
    /// The handoff was stopped (a helper failed): take nothing more.
    Stopped,
}

/// The state [`par_map_ordered`] shares between its caller and its helpers,
/// for `len` items claimed in input order.
///
/// * Helpers [`claim`](Handoff::claim) the next item — waiting while the
///   items in flight already weigh `window` — compute it and
///   [`store`](Handoff::store) its result.
/// * The caller [`take`](Handoff::take)s its items in input order. Until
///   its next result is stored it claims items as a helper would — that
///   item itself when no helper has claimed it yet, else a later one — and
///   waits only when the window has no room, for the `store` of the item it
///   waits for to wake it.
/// * [`stop`](Handoff::stop) ends claiming and wakes every waiter: the
///   caller calls it when done, a helper when its item panicked.
///
/// An item is in flight from its claim until the caller's next `take`, by
/// which time it has been consumed. A helper waiting for room is woken once
/// the weight in flight has fallen to half the window, so it computes a run
/// of items per wake-up rather than one.
pub struct Handoff<R> {
    state: Mutex<Slots<R>>,
    /// The caller waits here for the item it takes next.
    delivered: Condvar,
    /// Helpers wait here for room in the window.
    room: Condvar,
    len: usize,
    window: usize,
}

struct Slots<R> {
    /// Claimed and not yet taken, from the caller's next item on: each
    /// item's weight, and its result once stored.
    claimed: VecDeque<(usize, Option<R>)>,
    /// The next item to claim; the caller's next is `next_claim −
    /// claimed.len()`.
    next_claim: usize,
    /// Weight of the items claimed and not yet released.
    in_flight: usize,
    /// Weight of the item taken last, released by the next take.
    consuming: usize,
    caller_waits: bool,
    helpers_waiting: usize,
    stopped: bool,
}

/// How long the caller's wait lasts before it looks again. A store of the
/// awaited item always wakes it first; the wait is timed so that a lost
/// wake-up shows as a forced timeout under the model checker, not a hang.
const RECHECK: Duration = Duration::from_millis(50);

impl<R> Handoff<R> {
    /// A handoff for `len` items with at most `window` of weight in flight.
    pub fn new(len: usize, window: usize) -> Handoff<R> {
        Handoff {
            state: Mutex::new(Slots {
                claimed: VecDeque::new(),
                next_claim: 0,
                in_flight: 0,
                consuming: 0,
                caller_waits: false,
                helpers_waiting: 0,
                stopped: false,
            }),
            delivered: Condvar::new(),
            room: Condvar::new(),
            len,
            window,
        }
    }

    /// Helper side: the next item to compute, once the window has room for
    /// its `weight`. `None` when every item is claimed or the handoff
    /// stopped.
    pub fn claim(&self, weight: impl Fn(usize) -> usize) -> Option<usize> {
        let mut s = self.state.lock();
        loop {
            if s.stopped || s.next_claim == self.len {
                return None;
            }
            if let Some(i) = self.claim_next(&mut s, &weight) {
                return Some(i);
            }
            s.helpers_waiting += 1;
            s = self.room.wait(s);
            s.helpers_waiting -= 1;
        }
    }

    /// Claim the next unclaimed item if there is one and the window has room
    /// for it (always, when nothing is in flight).
    fn claim_next(&self, s: &mut Slots<R>, weight: impl Fn(usize) -> usize) -> Option<usize> {
        let i = s.next_claim;
        if i == self.len {
            return None;
        }
        let w = weight(i);
        if s.in_flight > 0 && s.in_flight + w > self.window {
            return None;
        }
        s.in_flight += w;
        s.next_claim += 1;
        s.claimed.push_back((w, None));
        Some(i)
    }

    /// The result of item `i`, from whoever claimed it: a helper, or the
    /// caller after [`Turn::Compute`].
    pub fn store(&self, i: usize, result: R) {
        let mut s = self.state.lock();
        let next_take = s.next_claim - s.claimed.len();
        s.claimed[i - next_take].1 = Some(result);
        let awaited = s.caller_waits && i == next_take;
        drop(s);
        if awaited {
            self.wake_caller();
        }
    }

    fn wake_caller(&self) {
        // Mutant hook for the model-check self-test: compiling with
        // `--cfg intellog_mutant_lost_wakeup` (on top of intellog_check)
        // deletes this notify, and tests/model_check.rs proves the checker
        // flags the caller's lost wake-up as a forced timeout.
        #[cfg(not(all(intellog_check, intellog_mutant_lost_wakeup)))]
        self.delivered.notify_one();
    }

    /// Caller side: the turn at the next item in input order. Releases the
    /// item taken before (consumed by now), then hands over the next
    /// result, or an item to compute while it is not ready, or — when the
    /// window has no room — waits for the helper holding it to store it.
    pub fn take(&self, weight: impl Fn(usize) -> usize) -> Turn<R> {
        let mut s = self.state.lock();
        let released = std::mem::take(&mut s.consuming);
        s.in_flight -= released;
        if released > 0 && s.helpers_waiting > 0 && s.in_flight <= self.window / 2 {
            self.room.notify_all();
        }
        loop {
            if s.stopped {
                return Turn::Stopped;
            }
            if let Some((w, result @ Some(_))) = s.claimed.front_mut() {
                let (w, result) = (*w, result.take().expect("stored"));
                s.consuming = w;
                s.claimed.pop_front();
                return Turn::Delivered(result);
            }
            if let Some(j) = self.claim_next(&mut s, &weight) {
                return Turn::Compute(j);
            }
            debug_assert!(!s.claimed.is_empty(), "took more items than there are");
            s.caller_waits = true;
            s = self.delivered.wait_timeout(s, RECHECK).0;
            s.caller_waits = false;
        }
    }

    /// Stop claiming and wake every waiter: the caller when it is done or
    /// failed, a helper whose item panicked.
    pub fn stop(&self) {
        let mut s = self.state.lock();
        s.stopped = true;
        let (caller, helpers) = (s.caller_waits, s.helpers_waiting > 0);
        drop(s);
        if caller {
            self.delivered.notify_one();
        }
        if helpers {
            self.room.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    //! The order-exact and no-leftover-thread contracts that make parallel
    //! training and detection byte-identical to their sequential twins, over
    //! every thread count from 1 to 8.

    use super::*;
    use crate::atomic::{AtomicUsize, Ordering};
    use std::cell::Cell;
    use std::collections::BTreeSet;
    use std::path::Path;
    use std::time::Instant;

    const THREADS: std::ops::RangeInclusive<usize> = 1..=8;

    thread_local! {
        /// Set on a calling thread: every worker it starts is refused, as
        /// when the OS has no thread to give.
        pub(super) static REFUSE_SPAWNS: Cell<bool> = const { Cell::new(false) };
    }

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

    /// `par_map_ordered_on` collected: what the consumer saw, in order.
    fn ordered<'a, T: Sync, R: Send>(
        threads: usize,
        items: &'a [T],
        window: usize,
        weight: impl Fn(&T) -> usize + Sync,
        f: impl Fn(&'a T) -> R + Sync,
    ) -> Vec<R> {
        let mut seen = Vec::with_capacity(items.len());
        par_map_ordered_on(threads, items, window, weight, f, |r| seen.push(r));
        seen
    }

    #[test]
    fn ordered_absorbs_in_sequential_order_over_sizes_and_threads() {
        let f = |x: &u64| x.wrapping_mul(31).rotate_left(7);
        for threads in THREADS {
            for len in 0..=300 {
                let items = values(len, (threads * 1000 + len) as u64);
                let seq: Vec<u64> = items.iter().map(f).collect();
                let window = 1 + len % 9;
                let got = ordered(threads, &items, window, |x| (*x % 4) as usize, f);
                assert_eq!(got, seq, "{threads} threads, {len} items, window {window}");
            }
        }
    }

    #[test]
    fn ordered_owned_results_arrive_whole() {
        let f = |x: &u64| format!("v{x:020}");
        for threads in THREADS {
            for len in (0..200).step_by(7) {
                let items = values(len, len as u64);
                let seq: Vec<String> = items.iter().map(f).collect();
                assert_eq!(
                    ordered(threads, &items, 16, |_| 1, f),
                    seq,
                    "{threads} threads, {len} items"
                );
            }
        }
    }

    /// What was started and not yet consumed never weighs more than the
    /// window, unless it is one item heavier than the window on its own.
    /// Items are timed unevenly, so helpers run ahead and wait for room.
    #[test]
    fn ordered_in_flight_weight_stays_within_the_window() {
        const WINDOW: usize = 12;
        let items: Vec<u64> = (0..300).collect();
        // every 37th item alone outweighs the window
        let weight = |x: &u64| if x % 37 == 36 { 20 } else { (x % 5) as usize };
        for threads in THREADS {
            let started = AtomicUsize::new(0);
            let consumed = AtomicUsize::new(0);
            let worst = AtomicUsize::new(0);
            par_map_ordered_on(
                threads,
                &items,
                WINDOW,
                weight,
                |x| {
                    let w = weight(x);
                    let now = started.fetch_add(w, Ordering::SeqCst) + w;
                    let in_flight = now - consumed.load(Ordering::SeqCst);
                    assert!(
                        in_flight <= WINDOW || in_flight == w,
                        "{threads} threads: {in_flight} in flight at item {x}"
                    );
                    worst.fetch_max(in_flight, Ordering::SeqCst);
                    burn(if x % 3 == 0 { 20_000 } else { 200 });
                    w
                },
                |w| {
                    consumed.fetch_add(w, Ordering::SeqCst);
                },
            );
            assert_eq!(started.into_inner(), consumed.into_inner());
            assert!(worst.into_inner() >= 20, "the oversized items ran");
        }
    }

    #[test]
    fn ordered_panic_in_the_map_propagates_and_next_op_runs() {
        let items: Vec<u32> = (0..500).collect();
        for threads in THREADS {
            let result = catch_unwind(AssertUnwindSafe(|| {
                ordered(
                    threads,
                    &items,
                    8,
                    |_| 1,
                    |&x| {
                        if x == 250 {
                            panic!("ordered map test panic at {x}");
                        }
                        x * 2
                    },
                )
            }));
            let payload = result.expect_err("an item's panic must reach the caller");
            let msg = payload.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("ordered map test panic"), "{msg}");
            let ok = ordered(threads, &items, 8, |_| 1, |&x| x + 1);
            assert_eq!(ok, (1..501).collect::<Vec<u32>>(), "{threads} threads");
        }
    }

    #[test]
    fn ordered_panic_in_the_consumer_propagates_and_next_op_runs() {
        let items: Vec<u32> = (0..500).collect();
        for threads in THREADS {
            let mut seen = 0;
            let result = catch_unwind(AssertUnwindSafe(|| {
                par_map_ordered_on(
                    threads,
                    &items,
                    8,
                    |_| 1,
                    |&x| x,
                    |x| {
                        if x == 100 {
                            panic!("ordered consumer test panic at {x}");
                        }
                        seen += 1;
                    },
                )
            }));
            let payload = result.expect_err("the consumer's panic must reach the caller");
            let msg = payload.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("ordered consumer test panic"), "{msg}");
            assert_eq!(seen, 100, "{threads} threads: consumed up to the panic");
            let ok = ordered(threads, &items, 8, |_| 1, |&x| x + 1);
            assert_eq!(ok, (1..501).collect::<Vec<u32>>(), "{threads} threads");
        }
    }

    /// After an op returns, every thread that ran one of its items — the
    /// caller aside — is gone from `/proc/self/task`. Threads are told apart
    /// by task id, not counted, so tests running alongside cannot disturb
    /// the check. Skipped where `/proc` is absent.
    #[test]
    fn ordered_no_thread_outlives_an_op() {
        let Some(caller) = task_id() else { return };
        let items: Vec<u64> = (0..64).collect();
        for threads in [2, 4, 8] {
            let ran_on = ordered(
                threads,
                &items,
                8,
                |_| 1,
                |&x| {
                    burn(200_000 + x);
                    task_id().expect("/proc/thread-self")
                },
            );
            assert_all_exited(ran_on.into_iter().filter(|t| *t != caller).collect());
        }
    }

    /// The heavy items sit at the front of the input, so helpers finish out
    /// of order and the caller runs ahead of them — in a small window and in
    /// one as large as the input, the shape detection maps a job in.
    #[test]
    fn skewed_cost_stays_correct() {
        let items: Vec<u64> = (0..400).collect();
        let cost = |&x: &u64| if x < 4 { 2_000_000 } else { 2_000 };
        let f = |x: &u64| burn(cost(x)).wrapping_add(*x);
        let seq: Vec<u64> = items.iter().map(f).collect();
        for threads in [2, 4, 8] {
            for window in [8, items.len()] {
                let got = ordered(threads, &items, window, |_| 1, f);
                assert_eq!(got, seq, "{threads} threads, window {window}");
            }
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
            let inner_sum = |x: u64| {
                let inner: Vec<u64> = (0..x % 7).collect();
                ordered(threads, &inner, 4, |_| 1, |&y| y)
                    .iter()
                    .sum::<u64>()
            };
            let nested = ordered(threads, &items, 8, |_| 1, |&x| x * 1000 + inner_sum(x));
            assert_eq!(nested, expected, "{threads} threads");
        }
    }

    #[test]
    fn a_refused_spawn_leaves_the_caller_to_finish_alone() {
        let items: Vec<u64> = (0..200).collect();
        let f = |x: &u64| (x * 7, std::thread::current().id());
        let caller = std::thread::current().id();
        REFUSE_SPAWNS.with(|r| r.set(true));
        let ran = ordered(4, &items, 8, |_| 1, f);
        REFUSE_SPAWNS.with(|r| r.set(false));
        assert!(ran.iter().all(|&(_, t)| t == caller), "only the caller ran");
        let values: Vec<u64> = ran.into_iter().map(|(v, _)| v).collect();
        assert_eq!(values, items.iter().map(|x| x * 7).collect::<Vec<_>>());
    }

    /// The kernel's id of the running thread; `None` without `/proc`.
    fn task_id() -> Option<String> {
        let link = std::fs::read_link("/proc/thread-self").ok()?;
        Some(link.file_name()?.to_string_lossy().into_owned())
    }

    /// Every one of `helpers` is gone from `/proc/self/task`. Exit gets a
    /// grace period, because `join` returns a moment before the kernel drops
    /// the task entry.
    fn assert_all_exited(helpers: BTreeSet<String>) {
        let alive = |t: &&String| Path::new("/proc/self/task").join(t).exists();
        let deadline = Instant::now() + Duration::from_secs(5);
        while helpers.iter().any(|t| alive(&t)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let left: Vec<&String> = helpers.iter().filter(alive).collect();
        assert!(left.is_empty(), "threads {left:?} outlived their op");
    }
}
