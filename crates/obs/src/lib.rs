//! # intellog-obs — process-wide observability for the IntelLog pipeline
//!
//! Every pipeline stage (Spell matching, NLP tagging, Intel-Key extraction,
//! HW-graph construction, anomaly train/detect, the serve shards) records
//! into one shared substrate:
//!
//! * a **metrics registry** ([`Registry`]) of named atomic [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket power-of-two [`Histogram`]s;
//! * **span timing** ([`span!`]) — RAII guards feeding per-stage wall-time
//!   histograms (`span.<stage>_us`);
//! * a **JSONL structured event sink** ([`event!`]) for trace-level
//!   debugging.
//!
//! ## Zero cost when disabled
//!
//! Observability is off by default. The gating lives in the macros, not in
//! the metric types: a disabled [`inc!`]/[`add!`]/[`span!`]/[`event!`] call
//! site performs exactly one relaxed atomic load and a branch — no handle
//! lookup, no clock read, no allocation (property-tested with a counting
//! global allocator in `tests/metrics_props.rs`). The primitive types
//! themselves ([`Counter`], [`Histogram`], …) are *ungated*: intrinsic
//! metrics like the serve shards' feed-latency histogram always record.
//!
//! Call [`enable`] once at process start (the CLI does this when
//! `--metrics`/`--trace` is passed; `intellog serve` always does) and read
//! the results with [`render_prometheus`] or [`snapshot`].
//!
//! ## Naming convention
//!
//! Dotted lowercase stage-prefixed names: `spell.match.trie_hits`,
//! `anomaly.verdict.missing-critical-key`, `span.hwgraph.build_us`.
//! [`render_prometheus`] sanitises them to `intellog_spell_match_trie_hits`
//! for scrape compatibility.

#![forbid(unsafe_code)]

mod metrics;
mod span;
mod trace;

pub use metrics::{
    render_histogram_series, render_series, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricKind, MetricSnapshot, Registry, HISTOGRAM_BUCKETS,
};
pub use span::SpanGuard;
pub use trace::{clear_trace, emit_event, flush_trace, set_trace_path, trace_active};

use sync::atomic::{AtomicBool, Ordering};
use sync::OnceLock;

/// Implementation detail of the metric macros: the per-call-site handle
/// cache must name a `OnceLock` reachable from the *expanding* crate, and
/// routing it through the facade keeps expanded code free of raw
/// `std::sync` (the invariant linter checks expansions' source text too).
#[doc(hidden)]
pub use sync::OnceLock as __OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// Turn the observability layer on (idempotent).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn the observability layer off. In-flight [`SpanGuard`]s still record
/// on drop (they captured their histogram at construction).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether gated call sites record. This is the single load every disabled
/// macro invocation costs.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide registry all macros record into.
pub fn registry() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Zero every metric in the global registry (benchmarks and tests).
/// Registered handles stay valid.
pub fn reset() {
    registry().reset();
}

/// Sorted point-in-time view of every metric in the global registry.
pub fn snapshot() -> Vec<MetricSnapshot> {
    registry().snapshot()
}

/// Render the global registry in Prometheus text exposition format.
pub fn render_prometheus() -> String {
    registry().render_prometheus()
}

/// Increment a named counter by 1 (gated; see [`add!`]).
#[macro_export]
macro_rules! inc {
    ($name:literal) => {
        $crate::add!($name, 1u64)
    };
}

/// Add to a named counter (gated). The handle is interned once per call
/// site; when disabled this is one relaxed load and a branch.
#[macro_export]
macro_rules! add {
    ($name:literal, $n:expr) => {{
        if $crate::is_enabled() {
            static __OBS_C: $crate::__OnceLock<&'static $crate::Counter> =
                $crate::__OnceLock::new();
            __OBS_C
                .get_or_init(|| $crate::registry().counter($name))
                .add($n as u64);
        }
    }};
}

/// Set a named gauge (gated).
#[macro_export]
macro_rules! gauge_set {
    ($name:literal, $v:expr) => {{
        if $crate::is_enabled() {
            static __OBS_G: $crate::__OnceLock<&'static $crate::Gauge> = $crate::__OnceLock::new();
            __OBS_G
                .get_or_init(|| $crate::registry().gauge($name))
                .set($v as u64);
        }
    }};
}

/// Record a microsecond sample into a named histogram (gated).
#[macro_export]
macro_rules! observe_us {
    ($name:literal, $us:expr) => {{
        if $crate::is_enabled() {
            static __OBS_H: $crate::__OnceLock<&'static $crate::Histogram> =
                $crate::__OnceLock::new();
            __OBS_H
                .get_or_init(|| $crate::registry().histogram($name))
                .record_us($us as u64);
        }
    }};
}

/// Open a RAII span: wall time from here to the guard's drop lands in the
/// `span.<name>_us` histogram. Bind it — `let _span = obs::span!("x");` —
/// or it closes immediately. Disabled: no clock read, no handle.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        if $crate::is_enabled() {
            static __OBS_S: $crate::__OnceLock<&'static $crate::Histogram> =
                $crate::__OnceLock::new();
            $crate::SpanGuard::started(
                __OBS_S
                    .get_or_init(|| $crate::registry().histogram(concat!("span.", $name, "_us"))),
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    }};
}

/// Emit one structured JSONL trace event (gated; no-op unless a trace sink
/// is installed with [`set_trace_path`]). Values are rendered with
/// `Display` and JSON-escaped.
#[macro_export]
macro_rules! event {
    ($name:literal $(, $k:literal = $v:expr)* $(,)?) => {{
        if $crate::is_enabled() && $crate::trace_active() {
            $crate::emit_event($name, &[$(($k, ::std::format!("{}", $v))),*]);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_roundtrip() {
        // Serialise access to the global enable flag (other tests in this
        // binary may toggle it).
        let _guard = metrics::test_lock().lock();
        enable();
        inc!("test.lib.counter");
        add!("test.lib.counter", 4);
        gauge_set!("test.lib.gauge", 17);
        observe_us!("test.lib.hist", 100);
        {
            let _span = span!("test.lib.stage");
        }
        let snap = snapshot();
        let find = |name: &str| {
            snap.iter()
                .find(|m| m.name() == name)
                .unwrap_or_else(|| panic!("{name} missing from {snap:?}"))
                .clone()
        };
        assert_eq!(find("test.lib.counter"), {
            MetricSnapshot::Counter {
                name: "test.lib.counter".into(),
                value: 5,
            }
        });
        assert!(matches!(
            find("test.lib.gauge"),
            MetricSnapshot::Gauge { value: 17, .. }
        ));
        assert!(
            matches!(find("span.test.lib.stage_us"), MetricSnapshot::Histogram { hist, .. } if hist.count == 1)
        );
        let text = render_prometheus();
        assert!(text.contains("intellog_test_lib_counter 5"), "{text}");
        disable();
    }

    #[test]
    fn disabled_macros_record_nothing() {
        let _guard = metrics::test_lock().lock();
        enable();
        inc!("test.gate.counter"); // register while enabled
        disable();
        let before = registry().counter("test.gate.counter").get();
        inc!("test.gate.counter");
        add!("test.gate.counter", 100);
        assert_eq!(registry().counter("test.gate.counter").get(), before);
    }
}
