//! Metrics-layer unit and property tests, run from outside the crate — the
//! same view the instrumented pipeline crates get.
//!
//! The binary installs a counting global allocator so the "zero-cost when
//! disabled" claim is checked literally: the disabled macro path must not
//! allocate at all.
//!
//! `obs` state (enabled flag, registry) is process-global, so every test
//! here serializes on one lock.

use obs::{Counter, Histogram, MetricSnapshot, HISTOGRAM_BUCKETS};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use sync::{Mutex, MutexGuard, OnceLock};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per thread, so that what the test
    /// harness or another test allocates meanwhile is not counted against
    /// the macros being measured; a `const` cell without a destructor, so
    /// reading it from inside the allocator allocates nothing itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method delegates verbatim to `System`, which upholds the
// GlobalAlloc contract; the only addition is a thread-local counter bump,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwarded to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    // SAFETY: forwarded to `System.dealloc`; `ptr`/`layout` come straight
    // from the caller, whose contract matches System's.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwarded to `System.realloc` with the caller's arguments.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwarded to `System.alloc_zeroed` with the caller's layout.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// All tests in this binary share the process-global obs state.
fn lock() -> MutexGuard<'static, ()> {
    static L: OnceLock<Mutex<()>> = OnceLock::new();
    L.get_or_init(|| Mutex::new(())).lock()
}

#[test]
fn histogram_bucket_boundaries_are_powers_of_two() {
    let h = Histogram::new();
    // Bucket i covers [2^i, 2^(i+1)); 0 is clamped into bucket 0.
    h.record_us(0);
    h.record_us(1);
    assert_eq!(h.bucket_counts()[0], 2);
    for i in 1..HISTOGRAM_BUCKETS - 1 {
        let h = Histogram::new();
        h.record_us(1 << i); // lower edge
        h.record_us((1 << (i + 1)) - 1); // last value still inside
        let counts = h.bucket_counts();
        assert_eq!(counts[i], 2, "bucket {i} should hold both edge values");
        assert_eq!(counts[i + 1], 0, "bucket {} polluted", i + 1);
        // upper edge belongs to the next bucket
        h.record_us(1 << (i + 1));
        assert_eq!(h.bucket_counts()[i + 1], 1);
    }
    // everything past the last boundary lands in the overflow bucket
    let h = Histogram::new();
    h.record_us(u64::MAX);
    h.record_us(1 << 40);
    assert_eq!(h.bucket_counts()[HISTOGRAM_BUCKETS - 1], 2);
}

#[test]
fn counter_and_histogram_sum_saturate_instead_of_wrapping() {
    let c = Counter::new();
    c.add(u64::MAX - 1);
    c.add(5);
    assert_eq!(c.get(), u64::MAX);
    c.inc();
    assert_eq!(c.get(), u64::MAX, "inc past the ceiling must not wrap");

    let h = Histogram::new();
    h.record_us(u64::MAX);
    h.record_us(u64::MAX);
    assert_eq!(h.sum_us(), u64::MAX, "sum must saturate");
    assert_eq!(h.count(), 2, "count still tracks every observation");
}

#[test]
fn concurrent_increments_are_not_lost_under_par_map() {
    static C: Counter = Counter::new();
    static H: Histogram = Histogram::new();
    let items: Vec<u64> = (0..10_000).collect();
    sync::par_map(&items, |i| {
        C.inc();
        H.record_us(*i);
    });
    assert_eq!(C.get(), 10_000);
    assert_eq!(H.count(), 10_000);
    assert_eq!(H.bucket_counts().iter().sum::<u64>(), 10_000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_invariants_hold_for_any_inputs(values in prop::collection::vec(0u64..1 << 22, 1..200)) {
        let h = Histogram::new();
        for v in &values {
            h.record_us(*v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum_us(), values.iter().sum::<u64>());
        prop_assert_eq!(h.bucket_counts().iter().sum::<u64>(), values.len() as u64);
        // quantiles interpolate within buckets but q=1.0 still lands on its
        // bucket's upper edge, bounding every recorded value
        let max = *values.iter().max().unwrap();
        prop_assert!(h.quantile_us(1.0) >= max.max(1));
        prop_assert!(h.quantile_us(0.5) <= h.quantile_us(0.99));
    }

    #[test]
    fn disabled_macros_record_nothing(ops in 1usize..64) {
        let _g = lock();
        obs::disable();
        obs::reset();
        for i in 0..ops {
            obs::inc!("props.disabled_counter");
            obs::add!("props.disabled_adder", i as u64);
            obs::gauge_set!("props.disabled_gauge", 42);
            obs::observe_us!("props.disabled_hist", 17);
            let _s = obs::span!("props.disabled_span");
            obs::event!("props.disabled_event", "i" = i);
        }
        // nothing recorded: any metric previously interned by other tests
        // stays at zero, and the disabled macros intern nothing new
        for m in obs::snapshot() {
            match m {
                MetricSnapshot::Counter { name, value } =>
                    prop_assert_eq!(value, 0, "counter {} moved while disabled", name),
                MetricSnapshot::Gauge { name, value } =>
                    prop_assert_eq!(value, 0, "gauge {} moved while disabled", name),
                MetricSnapshot::Histogram { name, hist } =>
                    prop_assert_eq!(hist.count, 0, "histogram {} moved while disabled", name),
            }
        }
    }
}

#[test]
fn disabled_macro_path_does_not_allocate() {
    let _g = lock();
    obs::disable();
    // Warm the call sites once (the per-site handle is only interned when
    // enabled, but warm anyway so lazy init can never be blamed).
    disabled_workload(1);
    let before = allocations();
    disabled_workload(10_000);
    let delta = allocations() - before;
    assert_eq!(delta, 0, "disabled obs macros allocated {delta} times");
}

#[inline(never)]
fn disabled_workload(n: usize) {
    for i in 0..n {
        obs::inc!("props.noalloc_counter");
        obs::add!("props.noalloc_adder", i as u64);
        obs::observe_us!("props.noalloc_hist", i as u64);
        let _s = obs::span!("props.noalloc_span");
        obs::event!("props.noalloc_event", "i" = i);
    }
}

#[test]
fn enabled_macros_register_and_count() {
    let _g = lock();
    obs::enable();
    obs::reset();
    for _ in 0..3 {
        obs::inc!("props.enabled_counter");
    }
    obs::observe_us!("props.enabled_hist", 100);
    let snap = obs::snapshot();
    let counter = snap.iter().find_map(|m| match m {
        MetricSnapshot::Counter { name, value } if name == "props.enabled_counter" => Some(*value),
        _ => None,
    });
    assert_eq!(counter, Some(3));
    let hist = snap.iter().find_map(|m| match m {
        MetricSnapshot::Histogram { name, hist } if name == "props.enabled_hist" => {
            Some(hist.count)
        }
        _ => None,
    });
    assert_eq!(hist, Some(1));
    obs::disable();
    obs::reset();
}
