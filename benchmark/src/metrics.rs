//! The metric tables. `BENCHMARK.json` at the repository root lists the
//! same names, units, directions and bounds; `tests/benchmark_smoke.rs`
//! fails when the two drift apart.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. All are at the contract's ceiling:
    /// across ten runs on the shared reference host the quartiles of every
    /// metric lie up to a tenth of the median apart (README, "Steadiness").
    pub bound: f64,
}

/// What a user of the system sees, on every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lines_per_s",
        unit: "lines/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_mline",
        unit: "s/Mline",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "verdict_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

use Better::{Higher, Lower};

/// Single-layer metrics of the traced run, `<crate>.<metric>`. A workload
/// that never calls into a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str, Better); 56] = [
    // train_batch: the staged replica of the sequential trainer
    ("spell.header_parse_s", "s", Lower),
    ("lognlp.tokenize_s", "s", Lower),
    ("spell.parse_s", "s", Lower),
    ("spell.keys", "count", Lower),
    ("extract.build_s", "s", Lower),
    ("extract.instantiate_s", "s", Lower),
    ("hwgraph.build_s", "s", Lower),
    ("hwgraph.groups", "count", Lower),
    ("spell.freeze_s", "s", Lower),
    ("spell.automaton_states", "count", Lower),
    ("serve.store_save_s", "s", Lower),
    ("serve.model_bytes", "bytes", Lower),
    ("anomaly.train_s", "s", Lower),
    ("anomaly.train_sequential_s", "s", Lower),
    ("core.train_free_s", "s", Lower),
    ("core.train_residual_share", "share", Lower),
    // detect_batch
    ("serve.store_load_s", "s", Lower),
    ("lognlp.adapter_parse_s", "s", Lower),
    ("core.bridge_s", "s", Lower),
    ("spell.match_s", "s", Lower),
    ("spell.match_hit_share", "share", Higher),
    ("extract.adhoc_s", "s", Lower),
    ("extract.adhoc_calls", "count", Lower),
    ("anomaly.detect_s", "s", Lower),
    ("anomaly.detect_sequential_s", "s", Lower),
    ("anomaly.structural_s", "s", Lower),
    ("anomaly.session_p50_us", "us", Lower),
    ("anomaly.session_p99_us", "us", Lower),
    ("anomaly.report_json_s", "s", Lower),
    ("anomaly.problematic_sessions", "count", Lower),
    // serve_saturate and serve_paced
    ("serve.proto_parse_s", "s", Lower),
    ("serve.ring_route_s", "s", Lower),
    ("serve.queue_msg_ns", "ns", Lower),
    ("anomaly.stream_feed_s", "s", Lower),
    ("anomaly.stream_finish_s", "s", Lower),
    ("anomaly.finish_p99_us", "us", Lower),
    ("serve.shard_direct_s", "s", Lower),
    ("gateway.wire_share", "share", Lower),
    ("gateway.unattributed_cpu_share", "share", Lower),
    ("serve.feed_p50_us", "us", Lower),
    ("serve.feed_p99_us", "us", Lower),
    ("serve.shard_skew", "ratio", Lower),
    ("serve.dropped_lines", "count", Lower),
    ("gateway.protocol_errors", "count", Lower),
    // serve_paced only
    ("gateway.verdict_p99_ms", "ms", Lower),
    ("gateway.ping_p50_ms", "ms", Lower),
    ("gateway.ping_p99_ms", "ms", Lower),
    ("gateway.sender_lag_p99_ms", "ms", Lower),
    ("gateway.achieved_share", "share", Higher),
    ("gateway.idle_cpu_ms_per_s", "ms/s", Lower),
    // every workload
    ("obs.enabled_overhead_share", "share", Lower),
    ("bench.trace_overhead_share", "share", Lower),
    ("bench.failed_share", "share", Lower),
    ("bench.rep_wall_s", "s", Lower),
    ("bench.reps", "count", Higher),
    ("dlasim.generate_s", "s", Lower),
];

pub fn per_layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::stats::valid_metric_name;

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|(n, _, _)| *n))
            .collect();
        assert!(names.iter().all(|n| valid_metric_name(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
