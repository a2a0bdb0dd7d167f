//! Property-based tests over the cluster simulator.

use dlasim::{FaultKind, FaultPlan, JobConfig, RawFormat, SystemKind};
use lognlp::format::AdapterKind;
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = JobConfig> {
    (
        prop_oneof![
            Just(SystemKind::Spark),
            Just(SystemKind::MapReduce),
            Just(SystemKind::Tez),
            Just(SystemKind::TensorFlow),
        ],
        1u32..20,
        prop_oneof![Just(1024u32), Just(2048), Just(4096)],
        1u32..8,
        1u32..6,
        2u32..10,
        any::<u64>(),
    )
        .prop_map(
            |(system, input_gb, mem_mb, cores, executors, hosts, seed)| JobConfig {
                system,
                workload: "wordcount".into(),
                input_gb,
                mem_mb,
                cores,
                executors,
                hosts,
                seed,
            },
        )
}

fn fault_strategy() -> impl Strategy<Value = Option<FaultPlan>> {
    prop_oneof![
        Just(None),
        (
            prop_oneof![
                Just(FaultKind::SessionKill),
                Just(FaultKind::NetworkFailure),
                Just(FaultKind::NodeFailure),
                Just(FaultKind::MemorySpill),
                Just(FaultKind::Starvation),
            ],
            0.05f64..0.95,
            0usize..10,
            0usize..10,
        )
            .prop_map(|(k, f, h, s)| Some(FaultPlan::new(k, f, h, s))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generation never panics, is deterministic, and every line's template
    /// is in the catalog; lines are time-ordered within a session.
    #[test]
    fn generation_wellformed(cfg in config_strategy(), fault in fault_strategy()) {
        let a = dlasim::generate(&cfg, fault.as_ref());
        let b = dlasim::generate(&cfg, fault.as_ref());
        prop_assert_eq!(&a, &b, "non-deterministic generation");
        prop_assert!(!a.sessions.is_empty());
        for s in &a.sessions {
            prop_assert!(s.lines.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms));
            for l in &s.lines {
                prop_assert!(
                    dlasim::truth_of(cfg.system, l.template_id).is_some(),
                    "unknown template {} for {:?}", l.template_id, cfg.system
                );
            }
        }
        prop_assert_eq!(a.injected, fault.as_ref().map(|p| p.kind));
    }

    /// A fault never *adds* sessions and the affected flags only appear on
    /// faulty jobs.
    #[test]
    fn fault_invariants(cfg in config_strategy(), fault in fault_strategy()) {
        let clean = dlasim::generate(&cfg, None);
        let faulty = dlasim::generate(&cfg, fault.as_ref());
        prop_assert_eq!(clean.sessions.len(), faulty.sessions.len());
        prop_assert!(clean.sessions.iter().all(|s| !s.affected));
        if fault.is_none() {
            prop_assert!(faulty.sessions.iter().all(|s| !s.affected));
        }
        // truncating faults only remove lines from the victim sessions
        if matches!(fault.as_ref().map(|p| p.kind), Some(FaultKind::SessionKill | FaultKind::NodeFailure)) {
            for (c, f) in clean.sessions.iter().zip(&faulty.sessions).skip(1) {
                prop_assert!(f.lines.len() <= c.lines.len() || f.affected,
                    "unaffected session grew under truncation");
            }
        }
    }

    /// Raw rendering is parseable line-for-line by the matching
    /// `lognlp::format` adapter.
    #[test]
    fn raw_rendering_roundtrips(cfg in config_strategy()) {
        let job = dlasim::generate(&cfg, None);
        let raw_fmt = RawFormat::for_system(cfg.system);
        let kind = match raw_fmt {
            RawFormat::Hadoop => AdapterKind::Hadoop,
            RawFormat::Spark => AdapterKind::Spark,
        };
        for s in job.sessions.iter().take(3) {
            for (raw, line) in s.raw_lines(raw_fmt).iter().zip(&s.lines) {
                let parsed = kind.parse_record(raw);
                prop_assert!(parsed.is_ok(), "unparseable: {raw}");
                let parsed = parsed.expect("checked");
                prop_assert_eq!(parsed.message, line.message.as_str());
                prop_assert_eq!(parsed.source, line.source.as_str());
            }
        }
    }
}
