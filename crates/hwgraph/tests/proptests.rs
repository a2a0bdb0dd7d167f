//! Property-based tests for HW-graph invariants.

use extract::{IntelExtractor, IntelKey, SessionLog};
use hwgraph::{
    group_entities, longest_common_phrase, GraphBuilder, GroupRelations, Hierarchy, HwGraph,
    Lifespan, Subroutine,
};
use proptest::prelude::*;
use spell::{KeyId, SpellParser};

/// One line of a small Spark-like vocabulary: template number and two
/// parameter values (task and stage, host, or size).
fn render_line((template, a, b): (u32, u32, u32)) -> String {
    match template {
        0 => format!("Registering block manager endpoint on host{a}"),
        1 => format!("block manager registered with {a} GB memory"),
        2 => format!("Starting task {a} in stage {b}"),
        3 => format!(
            "Finished task {a} in stage {b} and sent {} bytes to driver",
            a * 97
        ),
        4 => "Stopped block manager cleanly".to_string(),
        _ => "Shutdown hook called".to_string(),
    }
}

/// Keys and per-session logs the way the trainer makes them: Spell over the
/// whole stream, Intel Keys from the final key set, one row per line.
fn train_inputs(sessions: &[Vec<(u32, u32, u32)>]) -> (Vec<IntelKey>, Vec<SessionLog>) {
    let mut parser = SpellParser::default();
    let (mut spans, mut ids) = (Vec::new(), Vec::new());
    // two instances of every template first, so that every case has keys
    // with `*` fields and groups to route rows to
    let warm = (0..6).map(|t| vec![(t, 1, 0), (t, 2, 1)]);
    let lines: Vec<Vec<(String, spell::KeyId)>> = warm
        .chain(sessions.iter().cloned())
        .map(|session| {
            let texts = session.into_iter().map(render_line);
            texts
                .map(|text| {
                    let key = parser.parse_spans(&text, &mut spans, &mut ids).0;
                    (text, key)
                })
                .collect()
        })
        .collect();
    let extractor = IntelExtractor::new();
    let keys: Vec<IntelKey> = parser.keys().iter().map(|k| extractor.build(k)).collect();
    let logs = lines[6..]
        .iter()
        .map(|session| {
            let mut log = SessionLog::default();
            for (ts, (text, key)) in (0u64..).zip(session) {
                spell::tokenize_spans(text, &mut spans);
                log.push_line(&keys[key.0 as usize], ts * 10, text, &spans);
            }
            log
        })
        .collect();
    (keys, logs)
}

/// Plan, then parts a window at a time — each window's parts all computed
/// before the first of them is absorbed — then finish.
fn build_in_windows(keys: &[IntelKey], logs: &[SessionLog], sizes: &[usize]) -> HwGraph {
    let mut builder = GraphBuilder::plan(keys);
    let (mut rest, mut sizes) = (logs, sizes.iter().cycle());
    while !rest.is_empty() {
        let take = (*sizes.next().expect("a cycle of sizes")).min(rest.len());
        let (window, later) = rest.split_at(take);
        let parts: Vec<_> = window.iter().map(|log| builder.part(log)).collect();
        parts.into_iter().for_each(|part| builder.absorb(part));
        rest = later;
    }
    builder.finish()
}

fn phrase() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            Just("block"),
            Just("manager"),
            Just("task"),
            Just("map"),
            Just("output"),
            Just("security"),
            Just("shuffle"),
            Just("memory"),
            Just("store"),
            Just("driver"),
        ],
        1..4,
    )
    .prop_map(|ws| {
        let mut v: Vec<&str> = Vec::new();
        for w in ws {
            if v.last() != Some(&w) {
                v.push(w);
            }
        }
        v.join(" ")
    })
}

proptest! {
    /// However the sessions are cut into windows — one by one, all at once,
    /// anything between — plan → parts → absorb is `build_from_logs`.
    #[test]
    fn windows_do_not_change_the_graph(
        sessions in prop::collection::vec(
            prop::collection::vec((0u32..6, 0u32..4, 0u32..3), 0..14),
            0..10,
        ),
        sizes in prop::collection::vec(1usize..5, 1..4),
    ) {
        let (keys, logs) = train_inputs(&sessions);
        let whole = HwGraph::build_from_logs(&keys, &logs);
        prop_assert!(whole.stats.groups_all > 0);
        prop_assert_eq!(&build_in_windows(&keys, &logs, &[1]), &whole);
        prop_assert_eq!(&build_in_windows(&keys, &logs, &[logs.len().max(1)]), &whole);
        prop_assert_eq!(&build_in_windows(&keys, &logs, &sizes), &whole);
    }

    /// LCP is symmetric and its result is a sub-phrase of both inputs.
    #[test]
    fn lcp_symmetric_and_contained(a in phrase(), b in phrase()) {
        let ab = longest_common_phrase(&a, &b);
        let ba = longest_common_phrase(&b, &a);
        prop_assert_eq!(ab.clone(), ba);
        if let Some(c) = ab {
            prop_assert!(!c.is_empty());
            let cw: Vec<&str> = c.split(' ').collect();
            for p in [&a, &b] {
                let pw: Vec<&str> = p.split(' ').collect();
                prop_assert!(pw.windows(cw.len()).any(|w| w == cw.as_slice()),
                    "common {:?} not contiguous in {:?}", c, p);
            }
        }
    }

    /// Every entity ends up in at least one group, and the reverse index is
    /// consistent with group membership.
    #[test]
    fn grouping_total_and_consistent(ents in prop::collection::vec(phrase(), 1..15)) {
        let g = group_entities(ents.clone());
        for e in &ents {
            let gs = g.groups_of(e);
            prop_assert!(!gs.is_empty(), "{e} has no group");
            for &gi in gs {
                prop_assert!(g.groups[gi].entities.contains(e));
            }
        }
        for (gi, gr) in g.groups.iter().enumerate() {
            for e in &gr.entities {
                prop_assert!(g.groups_of(e).contains(&gi));
            }
        }
    }

    /// The subroutine learner: `before` is asymmetric, and `critical` +
    /// `keys` are consistent after any instance stream.
    #[test]
    fn subroutine_invariants(
        instances in prop::collection::vec(prop::collection::vec(0u32..6, 1..8), 1..10)
    ) {
        let mut sub = Subroutine::default();
        for inst in &instances {
            let keys: Vec<KeyId> = inst.iter().map(|&k| KeyId(k)).collect();
            sub.update(&keys);
        }
        for &(a, b) in &sub.before {
            prop_assert!(!sub.before.contains(&(b, a)), "symmetric before pair");
            prop_assert!(sub.keys.contains(&a) && sub.keys.contains(&b));
        }
        for k in &sub.critical {
            prop_assert!(sub.keys.contains(k));
            // critical keys really appear in every instance
            for inst in &instances {
                prop_assert!(inst.iter().any(|&x| KeyId(x) == *k));
            }
        }
        prop_assert_eq!(sub.instances as usize, instances.len());
    }

    /// Hierarchy: parents are acyclic, depths consistent, every group placed
    /// exactly once in depth-first order.
    #[test]
    fn hierarchy_wellformed(
        n in 1usize..8,
        raw in prop::collection::vec((0u64..100, 1u64..50), 1..8),
    ) {
        // one synthetic session assigning a lifespan to each group index
        let session: Vec<(usize, Lifespan)> = raw
            .iter()
            .enumerate()
            .take(n)
            .map(|(g, &(start, len))| (g, Lifespan { first: start, last: start + len }))
            .collect();
        let rel = GroupRelations::compute(n, &[session]);
        let h = Hierarchy::build(&rel);
        prop_assert_eq!(h.nodes.len(), n);
        let df = h.depth_first();
        let mut seen = std::collections::HashSet::new();
        for g in &df {
            prop_assert!(seen.insert(*g), "duplicate in depth_first");
        }
        prop_assert_eq!(df.len(), n);
        for (g, node) in h.nodes.iter().enumerate() {
            if let Some(p) = node.parent {
                prop_assert!(p < n);
                prop_assert_eq!(node.depth, h.nodes[p].depth + 1);
                prop_assert!(h.nodes[p].children.contains(&g));
                // walk to a root without cycling
                let mut cur = g;
                let mut steps = 0;
                while let Some(pp) = h.nodes[cur].parent {
                    cur = pp;
                    steps += 1;
                    prop_assert!(steps <= n, "parent cycle");
                }
            } else {
                prop_assert_eq!(node.depth, 0);
            }
        }
    }
}

/// Historical regression case for `lcp_symmetric_and_contained` (recorded
/// in `proptests.proptest-regressions`), pinned as a plain unit test:
/// "output task" vs "task output" share the words but no common *phrase*
/// longer than one word in the same order.
#[test]
fn lcp_regression_output_task() {
    let a = "output task";
    let b = "task output";
    let ab = longest_common_phrase(a, b);
    let ba = longest_common_phrase(b, a);
    assert_eq!(ab, ba);
    if let Some(c) = ab {
        assert!(!c.is_empty());
        let cw: Vec<&str> = c.split(' ').collect();
        for p in [a, b] {
            let pw: Vec<&str> = p.split(' ').collect();
            assert!(
                pw.windows(cw.len()).any(|w| w == cw.as_slice()),
                "common {c:?} not contiguous in {p:?}"
            );
        }
    }
}
