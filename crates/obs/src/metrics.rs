//! Metric primitives and the named registry.
//!
//! Everything is updated from hot paths, so the design rule matches the
//! serve shards': atomics only, no locks, no allocation on record. The
//! registry itself takes a mutex, but only on *registration* — hot call
//! sites cache their `&'static` handle in a per-site `OnceLock` (see the
//! macros in `lib.rs`), so the lock is hit once per call site per process.

use std::collections::BTreeMap;
use sync::atomic::{AtomicU64, Ordering};
use sync::Mutex;

/// Number of power-of-two histogram buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` microseconds; the last bucket is open-ended (~34 s).
pub const HISTOGRAM_BUCKETS: usize = 25;

/// A monotonic event counter. `add` **saturates** at `u64::MAX` instead of
/// wrapping: a scrape reading a saturated counter sees a pinned maximum
/// rather than a phantom reset.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (usable in statics for intrinsic, ungated metrics).
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Increment by 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins instantaneous value (queue depths, live sessions).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge (usable in statics).
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Set the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A wait-free fixed-bucket histogram of microsecond samples.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` µs (0 and 1 land in bucket
/// 0; the last bucket is open-ended). Quantiles are linearly interpolated
/// inside the containing bucket, so p50 and p99 stay distinguishable even
/// when most samples share one power-of-two bucket, in exchange for a
/// lock-free `record_us`.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded values (µs) — saturating, for Prometheus `_sum`.
    sum: AtomicU64,
}

impl Histogram {
    /// A zeroed histogram (usable in statics for intrinsic, ungated
    /// metrics like the serve shards' feed-latency distribution).
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Record one microsecond sample.
    #[inline]
    pub fn record_us(&self, us: u64) {
        self.record_us_n(us, 1);
    }

    /// Record `n` samples of the same value (a run of events timed by one
    /// clock read).
    #[inline]
    pub fn record_us_n(&self, us: u64, n: u64) {
        // 0..=1 µs → bucket 0, then one bucket per doubling.
        let idx = (64 - us.max(1).leading_zeros() as usize - 1).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx].fetch_add(n, Ordering::Relaxed);
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(us.saturating_mul(n));
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The value (µs) at quantile `q` (0..=1), linearly interpolated within
    /// the containing bucket; 0 with no samples. The rank of the bucket's
    /// last sample maps to its upper bound, so `quantile_us(1.0)` still
    /// bounds every recorded value (overflow bucket aside) and the estimate
    /// never exceeds the old upper-bound-only report.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (((total as f64) * q).ceil().max(1.0) as u64).min(total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 && seen + c >= rank {
                let lower = if i == 0 { 0 } else { 1u64 << i };
                let upper = 1u64 << (i + 1);
                let frac = (rank - seen) as f64 / c as f64;
                return lower + (frac * (upper - lower) as f64).round() as u64;
            }
            seen += c;
        }
        1u64 << HISTOGRAM_BUCKETS
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.bucket_counts().iter().sum()
    }

    /// Sum of all samples (µs, saturating).
    pub fn sum_us(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Raw per-bucket counts (relaxed loads).
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// Point-in-time view of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of samples (µs).
    pub sum_us: u64,
    /// Median (bucket upper bound, µs).
    pub p50_us: u64,
    /// 99th percentile (bucket upper bound, µs).
    pub p99_us: u64,
    /// Raw bucket counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

/// Point-in-time view of one registered metric.
// The size skew from the inline bucket array is fine: snapshots are built
// in small transient batches for rendering, never stored in bulk, and
// keeping `HistogramSnapshot` unboxed spares every consumer a deref.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricSnapshot {
    /// A counter and its value.
    Counter {
        /// Registered name.
        name: String,
        /// Current value.
        value: u64,
    },
    /// A gauge and its value.
    Gauge {
        /// Registered name.
        name: String,
        /// Current value.
        value: u64,
    },
    /// A histogram and its distribution.
    Histogram {
        /// Registered name.
        name: String,
        /// The distribution.
        hist: HistogramSnapshot,
    },
}

impl MetricSnapshot {
    /// The metric's registered name.
    pub fn name(&self) -> &str {
        match self {
            MetricSnapshot::Counter { name, .. }
            | MetricSnapshot::Gauge { name, .. }
            | MetricSnapshot::Histogram { name, .. } => name,
        }
    }
}

/// A named collection of metrics. The process-wide instance is
/// [`crate::registry`]; tests construct private ones.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Intern a counter by name. Handles are `'static` (the metric is
    /// leaked once) so hot paths can cache them.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut map = self.metrics.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Box::leak(Box::new(Counter::default()))))
        {
            Metric::Counter(c) => c,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Intern a gauge by name (see [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut map = self.metrics.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Box::leak(Box::new(Gauge::default()))))
        {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Intern a histogram by name (see [`Registry::counter`]).
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        let mut map = self.metrics.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Box::leak(Box::new(Histogram::default()))))
        {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Zero every registered metric. Handles stay valid.
    pub fn reset(&self) {
        let map = self.metrics.lock();
        for m in map.values() {
            match m {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// Sorted point-in-time view of every registered metric.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let map = self.metrics.lock();
        map.iter()
            .map(|(name, m)| match m {
                Metric::Counter(c) => MetricSnapshot::Counter {
                    name: name.clone(),
                    value: c.get(),
                },
                Metric::Gauge(g) => MetricSnapshot::Gauge {
                    name: name.clone(),
                    value: g.get(),
                },
                Metric::Histogram(h) => MetricSnapshot::Histogram {
                    name: name.clone(),
                    hist: HistogramSnapshot {
                        count: h.count(),
                        sum_us: h.sum_us(),
                        p50_us: h.quantile_us(0.50),
                        p99_us: h.quantile_us(0.99),
                        buckets: h.bucket_counts(),
                    },
                },
            })
            .collect()
    }

    /// Render every metric in Prometheus text exposition format, names
    /// prefixed `intellog_` and sanitised to `[a-z0-9_]`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for m in self.snapshot() {
            render_metric(&mut out, &m);
        }
        out
    }
}

/// `spell.match.trie_hits` → `intellog_spell_match_trie_hits`.
pub(crate) fn prometheus_name(name: &str) -> String {
    let mut s = String::with_capacity(name.len() + 9);
    s.push_str("intellog_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            s.push(ch.to_ascii_lowercase());
        } else {
            s.push('_');
        }
    }
    s
}

fn render_metric(out: &mut String, m: &MetricSnapshot) {
    let family = prometheus_name(m.name());
    match m {
        MetricSnapshot::Counter { value, .. } => {
            render_series(out, &family, MetricKind::Counter, &[("", *value)]);
        }
        MetricSnapshot::Gauge { value, .. } => {
            render_series(out, &family, MetricKind::Gauge, &[("", *value)]);
        }
        MetricSnapshot::Histogram { hist, .. } => {
            render_series::<&str>(out, &family, MetricKind::Histogram, &[]);
            render_histogram_series(out, &family, "", &hist.buckets, hist.sum_us);
        }
    }
}

/// What a family's `# TYPE` line calls it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic count.
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Bucketed distribution.
    Histogram,
}

/// One metric family in Prometheus text exposition format — the only
/// place the format's `# TYPE` line is written: that line, then one
/// `family{labels} value` line per sample. `family` is the
/// already-sanitised name; a sample's label text comes without braces
/// (`shard="0"`) and is empty for a family of one series. A histogram
/// family passes no samples and follows with one
/// [`render_histogram_series`] per series.
pub fn render_series<L: AsRef<str>>(
    out: &mut String,
    family: &str,
    kind: MetricKind,
    samples: &[(L, u64)],
) {
    use std::fmt::Write;
    let kind = match kind {
        MetricKind::Counter => "counter",
        MetricKind::Gauge => "gauge",
        MetricKind::Histogram => "histogram",
    };
    let _ = writeln!(out, "# TYPE {family} {kind}");
    for (labels, value) in samples {
        let _ = match labels.as_ref() {
            "" => writeln!(out, "{family} {value}"),
            labels => writeln!(out, "{family}{{{labels}}} {value}"),
        };
    }
}

/// The sample lines of one histogram series — cumulative `_bucket`s,
/// `+Inf`, `_sum`, `_count` — under the already-sanitised family name.
/// `labels` is the series' label text without braces (`shard="0"`, or
/// empty); the family's one `# TYPE` line comes from [`render_series`], so
/// several labelled series can share it.
pub fn render_histogram_series(
    out: &mut String,
    family: &str,
    labels: &str,
    buckets: &[u64; HISTOGRAM_BUCKETS],
    sum_us: u64,
) {
    use std::fmt::Write;
    let (sep, braced) = if labels.is_empty() {
        ("", String::new())
    } else {
        (",", format!("{{{labels}}}"))
    };
    let mut cumulative = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        cumulative += c;
        // Only emit buckets up to the last non-empty one to keep
        // the exposition compact; +Inf always closes the series.
        if c > 0 {
            let le = 1u64 << (i + 1);
            let _ = writeln!(
                out,
                "{family}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}"
            );
        }
    }
    let _ = writeln!(
        out,
        "{family}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}"
    );
    let _ = writeln!(out, "{family}_sum{braced} {sum_us}");
    let _ = writeln!(out, "{family}_count{braced} {cumulative}");
}

/// Serialises tests that toggle the global enabled flag (shared with
/// `lib.rs` unit tests).
#[cfg(test)]
pub(crate) fn test_lock() -> &'static Mutex<()> {
    static LOCK: Mutex<()> = Mutex::new(());
    &LOCK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::default();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let h = Histogram::default();
        // 0 and 1 µs land in bucket 0; 2 is the first of bucket 1; each
        // power of two starts a new bucket.
        for us in [0u64, 1] {
            h.record_us(us);
        }
        assert_eq!(h.bucket_counts()[0], 2);
        h.record_us(2);
        h.record_us(3);
        assert_eq!(h.bucket_counts()[1], 2);
        h.record_us(4);
        assert_eq!(h.bucket_counts()[2], 1);
        // the open-ended last bucket absorbs anything ≥ 2^24 µs
        h.record_us(u64::MAX);
        assert_eq!(h.bucket_counts()[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn histogram_sum_saturates() {
        let h = Histogram::default();
        h.record_us(u64::MAX);
        h.record_us(10);
        assert_eq!(h.sum_us(), u64::MAX);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        for _ in 0..99 {
            h.record_us(3); // bucket [2,4)
        }
        h.record_us(1_000_000);
        // p50 sits halfway into the [2,4) bucket, p99 at its top edge —
        // distinguishable despite sharing a power-of-two bucket.
        assert_eq!(h.quantile_us(0.50), 3);
        assert_eq!(h.quantile_us(0.99), 4);
        assert!(h.quantile_us(1.0) >= 1_000_000);
    }

    #[test]
    fn zero_latency_lands_in_first_bucket() {
        let h = Histogram::default();
        h.record_us(0);
        assert_eq!(h.quantile_us(0.5), 2);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let h = Histogram::default();
        for v in [0, 1, 3, 3, 7, 100, 5_000, 5_100, 5_200, 80_000] {
            h.record_us(v);
        }
        let qs: Vec<u64> = [0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| h.quantile_us(q))
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
        assert!(h.quantile_us(1.0) >= 80_000);
        // a single sample in a bucket reports that bucket's upper bound
        let one = Histogram::default();
        one.record_us(3);
        assert_eq!(one.quantile_us(0.5), 4);
    }

    #[test]
    fn registry_interns_by_name_and_resets() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert!(std::ptr::eq(a, b), "same name must intern to one handle");
        a.add(3);
        r.gauge("g").set(9);
        r.histogram("h").record_us(5);
        r.reset();
        assert_eq!(a.get(), 0);
        assert_eq!(r.gauge("g").get(), 0);
        assert_eq!(r.histogram("h").count(), 0);
        // handles survive reset
        a.inc();
        assert_eq!(r.counter("x").get(), 1);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let r = Registry::new();
        r.counter("dual");
        r.gauge("dual");
    }

    #[test]
    fn prometheus_rendering() {
        let r = Registry::new();
        r.counter("spell.match.trie_hits").add(7);
        r.gauge("serve.queue_depth").set(3);
        let h = r.histogram("span.anomaly.detect_us");
        h.record_us(3);
        h.record_us(3);
        h.record_us(100);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE intellog_spell_match_trie_hits counter"));
        assert!(text.contains("intellog_spell_match_trie_hits 7"));
        assert!(text.contains("# TYPE intellog_serve_queue_depth gauge"));
        assert!(text.contains("intellog_serve_queue_depth 3"));
        assert!(text.contains("intellog_span_anomaly_detect_us_bucket{le=\"4\"} 2"));
        assert!(text.contains("intellog_span_anomaly_detect_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("intellog_span_anomaly_detect_us_count 3"));
        assert!(text.contains("intellog_span_anomaly_detect_us_sum 106"));
        // one family, one `TYPE` line, a series per label text
        let mut family = String::new();
        let samples = [("shard=\"0\"", 1), ("shard=\"1\"", 2)];
        render_series(&mut family, "f", MetricKind::Gauge, &samples);
        assert_eq!(
            family,
            "# TYPE f gauge\nf{shard=\"0\"} 1\nf{shard=\"1\"} 2\n"
        );
        // the same series under a label: `le` joins it, `_sum`/`_count` carry it
        let mut labelled = String::new();
        render_histogram_series(&mut labelled, "f", "shard=\"2\"", &h.bucket_counts(), 106);
        assert_eq!(
            labelled,
            "f_bucket{shard=\"2\",le=\"4\"} 2\nf_bucket{shard=\"2\",le=\"128\"} 3\n\
             f_bucket{shard=\"2\",le=\"+Inf\"} 3\nf_sum{shard=\"2\"} 106\nf_count{shard=\"2\"} 3\n"
        );
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new();
        r.counter("zz");
        r.counter("aa");
        r.gauge("mm");
        let names: Vec<String> = r.snapshot().iter().map(|m| m.name().to_string()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }
}
