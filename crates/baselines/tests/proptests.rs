//! Property-based tests for the baseline detectors.

use baselines::{DeepLog, LogCluster, S3Graph, S3Rel};
use extract::IntelMessage;
use proptest::prelude::*;
use spell::KeyId;

fn seqs() -> impl Strategy<Value = Vec<Vec<KeyId>>> {
    prop::collection::vec(
        prop::collection::vec((0u32..8).prop_map(KeyId), 1..20),
        1..10,
    )
}

proptest! {
    /// DeepLog never flags a sequence it was trained on when its top-g
    /// (g = 9) covers the whole alphabet (8 keys).
    #[test]
    fn deeplog_permissive_g_accepts_training(ss in seqs()) {
        let mut dl = DeepLog::default();
        for s in &ss {
            dl.train_session(s);
        }
        for s in &ss {
            prop_assert_eq!(dl.count_misses(s), 0, "trained sequence flagged");
        }
    }

    /// Every position holding a never-trained key is necessarily a miss:
    /// an unseen key can appear in no prediction list. (Full monotonicity
    /// does not hold — corruption also changes later histories, which can
    /// flip other positions from miss to hit.)
    #[test]
    fn deeplog_unseen_keys_always_miss(ss in seqs(), idx in prop::collection::vec(0usize..20, 1..5)) {
        let mut dl = DeepLog::default();
        for s in &ss {
            dl.train_session(s);
        }
        let base = ss[0].clone();
        let mut corrupted = base.clone();
        let mut positions = std::collections::BTreeSet::new();
        for i in idx {
            let p = i % base.len();
            corrupted[p] = KeyId(999); // never trained
            positions.insert(p);
        }
        prop_assert!(dl.count_misses(&corrupted) >= positions.len());
        prop_assert!(dl.is_anomalous(&corrupted));
    }

    /// LogCluster accepts every training session and its similarity is in
    /// [0, 1].
    #[test]
    fn logcluster_accepts_training(ss in seqs()) {
        let kb = LogCluster::train(&ss);
        prop_assert!(kb.cluster_count() >= 1);
        prop_assert!(kb.cluster_count() <= ss.len());
        for s in &ss {
            let sim = kb.best_similarity(s);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&sim));
        }
    }

    /// The S³ graph only relates co-occurring identifier types and its
    /// edges never mention unknown types.
    #[test]
    fn s3_edges_wellformed(
        pairs in prop::collection::vec(
            (prop_oneof![Just("A"), Just("B"), Just("C")], 0u32..5,
             prop_oneof![Just("X"), Just("Y")], 0u32..5),
            1..30,
        )
    ) {
        let msgs: Vec<IntelMessage> = pairs
            .iter()
            .map(|(ta, va, tb, vb)| IntelMessage {
                key_id: KeyId(0),
                session: "s".into(),
                ts_ms: 0,
                identifiers: vec![
                    (ta.to_string(), va.to_string()),
                    (tb.to_string(), vb.to_string()),
                ],
                values: vec![],
                localities: vec![],
                entities: vec![],
                operations: vec![],
                text: String::new(),
            })
            .collect();
        let g = S3Graph::build(&[vec![msgs]]);
        for (a, b, rel) in &g.edges {
            prop_assert!(g.types.contains(a), "{a} missing from types");
            prop_assert!(g.types.contains(b));
            prop_assert_ne!(a, b);
            // rendering never panics
            let _ = rel;
        }
        let _ = g.render();
    }
}

/// Historical regression case for `deeplog_unseen_keys_always_miss`
/// (recorded in `proptests.proptest-regressions`), pinned as a plain unit
/// test so it always runs: corrupting position 2 of a trained sequence
/// with a never-trained key must count as a miss.
#[test]
fn deeplog_unseen_key_regression_case() {
    let ss: Vec<Vec<KeyId>> = vec![
        vec![KeyId(5), KeyId(6)],
        vec![
            KeyId(7),
            KeyId(7),
            KeyId(3),
            KeyId(7),
            KeyId(6),
            KeyId(3),
            KeyId(7),
            KeyId(5),
            KeyId(3),
        ],
        vec![
            KeyId(3),
            KeyId(6),
            KeyId(7),
            KeyId(5),
            KeyId(0),
            KeyId(6),
            KeyId(6),
            KeyId(5),
            KeyId(1),
        ],
    ];
    let mut dl = DeepLog::default();
    for s in &ss {
        dl.train_session(s);
    }
    let mut corrupted = ss[0].clone();
    let p = 2 % corrupted.len();
    corrupted[p] = KeyId(999);
    assert!(dl.count_misses(&corrupted) >= 1);
    assert!(dl.is_anomalous(&corrupted));
}

#[test]
fn s3_rel_is_directional_for_one_to_many() {
    // sanity: the OneToMany edge always stores the parent first
    let mk = |ids: Vec<(&str, &str)>| IntelMessage {
        key_id: KeyId(0),
        session: "s".into(),
        ts_ms: 0,
        identifiers: ids.into_iter().map(|(t, v)| (t.into(), v.into())).collect(),
        values: vec![],
        localities: vec![],
        entities: vec![],
        operations: vec![],
        text: String::new(),
    };
    // deliberately name the child type so it sorts before the parent
    let msgs = vec![
        mk(vec![("AAA_CHILD", "c1"), ("ZZZ_PARENT", "p1")]),
        mk(vec![("AAA_CHILD", "c2"), ("ZZZ_PARENT", "p1")]),
        mk(vec![("AAA_CHILD", "c3"), ("ZZZ_PARENT", "p2")]),
    ];
    let g = S3Graph::build(&[vec![msgs]]);
    assert_eq!(
        g.edges,
        vec![(
            "ZZZ_PARENT".to_string(),
            "AAA_CHILD".to_string(),
            S3Rel::OneToMany
        )]
    );
}
