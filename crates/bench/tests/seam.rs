//! The `SessionDetector` seam, and `repro`'s argument handling.

use baselines::{DeepLog, LogCluster};
use dlasim::{FaultKind, GenJob, GenSession, SystemKind};
use intellog_bench::{
    match_keyseq, score, table6_jobs, Confusion, EvalJob, IntelLogTool, KeySeqTool, SemVecTool,
    SessionDetector,
};
use intellog_core::{session_from_gen, training_jobs};

/// Flags exactly the sessions whose ids it was scripted with.
struct Scripted(&'static [&'static str]);

impl SessionDetector for Scripted {
    fn fit(&mut self, _: SystemKind, _: &[GenJob]) {}
    fn flags(&self, session: &GenSession) -> bool {
        self.0.contains(&session.id.as_str())
    }
}

fn job(sessions: &[(&str, bool)], injected: Option<FaultKind>, latent: bool) -> EvalJob {
    let sessions = sessions
        .iter()
        .map(|&(id, affected)| GenSession {
            id: id.into(),
            host: "worker1".into(),
            lines: Vec::new(),
            affected,
        })
        .collect();
    EvalJob {
        job: GenJob {
            system: SystemKind::Spark,
            workload: "wordcount".into(),
            sessions,
            injected,
        },
        injected,
        latent,
    }
}

fn counts(tp: usize, fp: usize, fn_: usize) -> Confusion {
    Confusion { tp, fp, fn_ }
}

#[test]
fn score_counts_sessions_and_jobs() {
    let network = Some(FaultKind::NetworkFailure);
    let eval = [
        // found through a1; a2 is missed and a3 is a false alarm
        job(&[("a1", true), ("a2", true), ("a3", false)], network, false),
        // an injected job nothing flags
        job(&[("b1", true)], Some(FaultKind::SessionKill), false),
        // a latent issue surfaced: found, not a false positive
        job(&[("c1", false), ("c2", false)], None, true),
        // a clean job flagged: the one false positive
        job(&[("d1", false)], None, false),
    ];
    let (sessions, jobs) = score(&Scripted(&["a1", "a3", "c1", "d1"]), &eval);
    assert_eq!(sessions, counts(1, 3, 2));
    assert_eq!((jobs.jobs, jobs.latent_found), (counts(1, 1, 1), 1));
    let (p, r, f) = counts(41, 6, 4).prf(); // the paper's Table 6 totals
    let near = |x: f64, y: f64| (x - y).abs() < 0.001;
    assert!(near(p, 0.8723) && near(r, 0.9111) && near(f, 0.8913));
    assert_eq!(Confusion::default().prf(), (0.0, 0.0, 0.0));
}

#[test]
fn adapters_answer_as_the_calls_they_wrap() {
    let system = SystemKind::Spark;
    let train = training_jobs(system, 2, 5);
    let mut il = IntelLogTool::default();
    let mut dl = KeySeqTool::<DeepLog>::default();
    let mut lc = KeySeqTool::<LogCluster>::default();
    let mut sv = SemVecTool::default();
    let tools: [&mut dyn SessionDetector; 4] = [&mut il, &mut dl, &mut lc, &mut sv];
    tools.into_iter().for_each(|tool| tool.fit(system, &train));
    // owning a parser each changes no verdict: the key spaces are equal
    assert_eq!(dl.parser.keys(), lc.parser.keys());

    let intellog = il.0.as_ref().unwrap();
    let (native, semvec) = sv.fitted.as_ref().unwrap();
    let mut flagged = 0;
    // the first configuration set: three injected jobs, three without
    let eval = table6_jobs(system, 7);
    for gen in eval[..6].iter().flat_map(|j| &j.job.sessions) {
        let session = session_from_gen(gen);
        let direct = intellog.detect_session(&session).is_problematic();
        assert_eq!(il.flags(gen), direct);
        let keys = match_keyseq(&dl.parser, &session);
        assert_eq!(dl.flags(gen), dl.model.is_anomalous(&keys));
        assert_eq!(lc.flags(gen), lc.model.is_anomalous(&keys));
        assert_eq!(sv.flags(gen), semvec.is_anomalous(&gen.raw_lines(*native)));
        flagged += usize::from(direct);
    }
    assert!(flagged > 0, "three injected jobs and nothing flagged");
}

#[test]
fn repro_rejects_bad_arguments_with_usage() {
    let names = "table1|table4|table5|table6|table7|table8|figure1|figure34|figure8|figure9";
    for args in [&["table9"][..], &["table1", "many"], &["table1", "2", "3"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let usage = String::from_utf8_lossy(&out.stderr);
        assert_eq!(usage.trim_end(), format!("usage: repro <{names}> [jobs]"));
    }
}
