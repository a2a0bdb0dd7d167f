//! Per-shard serving metrics.
//!
//! Everything here is updated from the hot ingestion path, so the design
//! rule is: atomics only, no locks, no allocation. Latency percentiles come
//! from the shared `intellog-obs` fixed-bucket power-of-two histogram — the
//! reported p50/p99 are bucket upper bounds, i.e. exact to within 2× which
//! is all a serving dashboard needs, in exchange for a wait-free `record`.
//!
//! These metrics are *intrinsic* to the server (they back the `STATS` and
//! `METRICS` verbs), so they use the obs primitives directly, ungated —
//! they record whether or not the process-wide observability flag is on.

use serde::{Deserialize, Serialize};
use sync::atomic::{AtomicU64, Ordering};

/// Counters owned by one shard worker (shared with the acceptor threads
/// that enqueue into it and with `STATS` snapshotting).
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Log lines fed into a session's `StreamState`.
    pub ingested: AtomicU64,
    /// Online anomalies (unexpected messages) surfaced by `feed`.
    pub online_anomalies: AtomicU64,
    /// Of those, lines their session counted instead of keeping (it held
    /// its fill of unexpected messages; `anomaly::stream`).
    pub unexpected_suppressed: AtomicU64,
    /// Sessions ever opened on this shard.
    pub sessions_opened: AtomicU64,
    /// Sessions closed by an explicit `END` or a drain.
    pub sessions_closed: AtomicU64,
    /// Sessions evicted by the idle timeout.
    pub sessions_evicted: AtomicU64,
    /// Sessions currently live (opened − closed − evicted, tracked
    /// directly so `STATS` needs one load).
    pub sessions_live: AtomicU64,
    /// Enqueue→processed latency per line.
    pub feed_latency: obs::Histogram,
    /// Wall time (µs) the worker spent between a queue drain returning
    /// and the drained messages being done — its share of a window says
    /// whether this shard is the bottleneck.
    pub busy_us: AtomicU64,
}

/// Point-in-time, serialisable view of one shard ( `STATS` verb).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Lines fed into detectors.
    pub ingested: u64,
    /// Lines dropped by backpressure.
    pub dropped: u64,
    /// Online (unexpected-message) anomalies.
    pub online_anomalies: u64,
    /// Of those, lines counted instead of kept.
    pub unexpected_suppressed: u64,
    /// Sessions currently live.
    pub sessions_live: u64,
    /// Sessions ever opened.
    pub sessions_opened: u64,
    /// Sessions closed by END/drain.
    pub sessions_closed: u64,
    /// Sessions evicted by idle timeout.
    pub sessions_evicted: u64,
    /// Lines currently queued.
    pub queue_len: usize,
    /// Median feed latency (µs, bucket upper bound).
    pub feed_p50_us: u64,
    /// 99th-percentile feed latency (µs, bucket upper bound).
    pub feed_p99_us: u64,
    /// Wall time (µs) spent working off drained messages.
    pub busy_us: u64,
}

impl ShardMetrics {
    /// Snapshot the counters (relaxed loads; values are monotonic per
    /// counter but not mutually consistent — fine for monitoring).
    /// `queue_len` and `dropped` are read off the shard's queue, which owns
    /// both.
    pub fn snapshot(&self, shard: usize, queue_len: usize, dropped: u64) -> ShardSnapshot {
        ShardSnapshot {
            shard,
            ingested: self.ingested.load(Ordering::Relaxed),
            dropped,
            online_anomalies: self.online_anomalies.load(Ordering::Relaxed),
            unexpected_suppressed: self.unexpected_suppressed.load(Ordering::Relaxed),
            sessions_live: self.sessions_live.load(Ordering::Relaxed),
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: self.sessions_closed.load(Ordering::Relaxed),
            sessions_evicted: self.sessions_evicted.load(Ordering::Relaxed),
            queue_len,
            feed_p50_us: self.feed_latency.quantile_us(0.50),
            feed_p99_us: self.feed_latency.quantile_us(0.99),
            busy_us: self.busy_us.load(Ordering::Relaxed),
        }
    }
}

/// Counters owned by one tenant (updated by shard workers, read by
/// `STATS`). Same design rule as [`ShardMetrics`]: atomics only.
#[derive(Debug, Default)]
pub struct TenantMetrics {
    /// Lines fed into this tenant's sessions.
    pub lines: AtomicU64,
    /// Sessions ever opened for this tenant.
    pub sessions_opened: AtomicU64,
    /// Sessions finished (END, drain, or idle eviction).
    pub sessions_closed: AtomicU64,
    /// Online (unexpected-message) verdicts.
    pub online_anomalies: AtomicU64,
    /// Of those, lines counted instead of kept.
    pub unexpected_suppressed: AtomicU64,
    /// Completed reports that were problematic.
    pub reports_problematic: AtomicU64,
}

impl TenantMetrics {
    /// Snapshot this tenant's counters.
    pub fn snapshot(&self, tenant: &str, model_version: u64, reloads: u64) -> TenantSnapshot {
        let opened = self.sessions_opened.load(Ordering::Relaxed);
        let closed = self.sessions_closed.load(Ordering::Relaxed);
        TenantSnapshot {
            tenant: tenant.to_string(),
            model_version,
            reloads,
            lines: self.lines.load(Ordering::Relaxed),
            sessions_live: opened.saturating_sub(closed),
            sessions_opened: opened,
            sessions_closed: closed,
            online_anomalies: self.online_anomalies.load(Ordering::Relaxed),
            unexpected_suppressed: self.unexpected_suppressed.load(Ordering::Relaxed),
            reports_problematic: self.reports_problematic.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time, serialisable view of one tenant (`STATS` verb).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantSnapshot {
    /// Tenant id.
    pub tenant: String,
    /// Current model version number.
    pub model_version: u64,
    /// Completed hot reloads.
    pub reloads: u64,
    /// Lines fed into this tenant's sessions.
    pub lines: u64,
    /// Sessions currently live (opened − closed).
    pub sessions_live: u64,
    /// Sessions ever opened.
    pub sessions_opened: u64,
    /// Sessions finished.
    pub sessions_closed: u64,
    /// Online verdicts.
    pub online_anomalies: u64,
    /// Of those, lines counted instead of kept.
    pub unexpected_suppressed: u64,
    /// Problematic completed reports.
    pub reports_problematic: u64,
}

/// The `STATS` reply: whole-server view.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Number of live shards.
    pub shards: usize,
    /// Backpressure policy name.
    pub backpressure: String,
    /// Total lines ingested.
    pub ingested: u64,
    /// Total lines dropped.
    pub dropped: u64,
    /// Total online anomalies.
    pub online_anomalies: u64,
    /// Of those, lines counted instead of kept.
    pub unexpected_suppressed: u64,
    /// Total live sessions.
    pub sessions_live: u64,
    /// Completed (closed + evicted) session reports produced.
    pub reports_completed: u64,
    /// Of those, problematic ones.
    pub reports_problematic: u64,
    /// Protocol lines the server could not parse.
    pub protocol_errors: u64,
    /// Connections currently open on the gateway.
    pub connections_open: u64,
    /// Connections ever accepted.
    pub connections_total: u64,
    /// Ring rebalances completed (ADDSHARD / DRAINSHARD).
    pub rebalances: u64,
    /// Sessions snapshot-moved between shards by rebalances.
    pub sessions_moved: u64,
    /// Wall time (µs) the event loop spent inside sweeps that did work.
    pub loop_busy_us: u64,
    /// Times the event loop went to sleep (a sweep found nothing to do).
    /// An idle gateway's count stands still; one that climbs without
    /// traffic is a loop something keeps waking for nothing.
    pub loop_waits: u64,
    /// `accept` failures survived: connections that died in the backlog,
    /// and attempts refused for lack of descriptors or memory.
    pub accept_errors: u64,
    /// Anomaly counts by kind across all completed reports.
    pub anomalies_by_kind: std::collections::BTreeMap<String, u64>,
    /// Per-shard detail.
    pub per_shard: Vec<ShardSnapshot>,
    /// Per-tenant detail, in tenant-id order.
    pub per_tenant: Vec<TenantSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_counters() {
        let m = ShardMetrics::default();
        m.ingested.store(7, Ordering::Relaxed);
        m.sessions_live.store(2, Ordering::Relaxed);
        let s = m.snapshot(3, 11, 5);
        assert_eq!(s.shard, 3);
        assert_eq!(s.dropped, 5);
        assert_eq!(s.ingested, 7);
        assert_eq!(s.sessions_live, 2);
        assert_eq!(s.queue_len, 11);
    }
}
