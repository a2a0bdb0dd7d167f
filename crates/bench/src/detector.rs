//! One seam over the compared tools (paper §6.3–6.4, Tables 6 and 8): each
//! is fitted on clean jobs and asked one question per session, and [`score`]
//! is the only place a verdict meets the simulator's ground truth. A further
//! tool, corpus shape or noise level is one more row in a caller's loop.

use crate::corpus::{EvalJob, JobScore};
use crate::keyseq::{match_keyseq, train_keyseqs};
use baselines::{DeepLog, LogCluster, LogClusterConfig, SemVec, SemVecConfig};
use dlasim::{ForeignFormat, GenJob, GenSession, RawFormat, SystemKind};
use intellog_core::{session_from_gen, sessions_from_job, IntelLog};
use spell::{Session, SpellParser};

/// A tool that learns from clean jobs and flags single sessions.
pub trait SessionDetector {
    /// Learn normal behaviour of `system` from clean jobs.
    fn fit(&mut self, system: SystemKind, train: &[GenJob]);
    /// `true` if the tool reports the session as anomalous.
    fn flags(&self, session: &GenSession) -> bool;
}

/// Verdicts against ground truth: flagged and anomalous (`tp`), flagged but
/// clean (`fp`), anomalous but not flagged (`fn_`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    pub tp: usize,
    pub fp: usize,
    pub fn_: usize,
}

impl Confusion {
    /// Count one verdict.
    fn add(&mut self, flagged: bool, truth: bool) {
        match (flagged, truth) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, true) => self.fn_ += 1,
            (false, false) => {}
        }
    }

    /// Precision, recall and F1 (each 0 where its denominator is).
    pub fn prf(&self) -> (f64, f64, f64) {
        let ratio = |n: f64, d: f64| if d == 0.0 { 0.0 } else { n / d };
        let p = ratio(self.tp as f64, (self.tp + self.fp) as f64);
        let r = ratio(self.tp as f64, (self.tp + self.fn_) as f64);
        (p, r, ratio(2.0 * p * r, p + r))
    }
}

impl std::ops::AddAssign for Confusion {
    fn add_assign(&mut self, o: Confusion) {
        self.tp += o.tp;
        self.fp += o.fp;
        self.fn_ += o.fn_;
    }
}

/// Score a fitted tool per session against `affected` (Table 8) and per job,
/// flagged when any session is, against `injected` (Table 6), where a flagged
/// latent job counts as found, not as a false positive.
pub fn score(tool: &dyn SessionDetector, eval: &[EvalJob]) -> (Confusion, JobScore) {
    let (mut sessions, mut jobs) = (Confusion::default(), JobScore::default());
    for job in eval {
        let mut flagged = false;
        for session in &job.job.sessions {
            let verdict = tool.flags(session);
            sessions.add(verdict, session.affected);
            flagged |= verdict;
        }
        if job.latent {
            jobs.latent_found += usize::from(flagged);
        } else {
            jobs.jobs.add(flagged, job.injected.is_some());
        }
    }
    (sessions, jobs)
}

fn sessions_of(train: &[GenJob]) -> Vec<Session> {
    train.iter().flat_map(sessions_from_job).collect()
}

/// IntelLog, over the structural bridge.
#[derive(Debug, Default)]
pub struct IntelLogTool(pub Option<IntelLog>);

impl SessionDetector for IntelLogTool {
    fn fit(&mut self, _: SystemKind, train: &[GenJob]) {
        self.0 = Some(IntelLog::train(&sessions_of(train)));
    }
    fn flags(&self, s: &GenSession) -> bool {
        let il = self.0.as_ref().expect("fit before flags");
        il.detect_session(&session_from_gen(s)).is_problematic()
    }
}

/// A key-sequence baseline `model` with the Spell `parser` it was fitted
/// with. Each tool trains its own; the same jobs give equal key spaces.
#[derive(Debug, Default)]
pub struct KeySeqTool<M> {
    pub parser: SpellParser,
    pub model: M,
}

impl SessionDetector for KeySeqTool<DeepLog> {
    fn fit(&mut self, _: SystemKind, train: &[GenJob]) {
        let (parser, seqs) = train_keyseqs(&sessions_of(train));
        self.parser = parser;
        self.model = DeepLog::default();
        seqs.iter().for_each(|s| self.model.train_session(s));
    }
    fn flags(&self, session: &GenSession) -> bool {
        let keys = match_keyseq(&self.parser, &session_from_gen(session));
        self.model.is_anomalous(&keys)
    }
}

impl SessionDetector for KeySeqTool<LogCluster> {
    fn fit(&mut self, _: SystemKind, train: &[GenJob]) {
        let (parser, seqs) = train_keyseqs(&sessions_of(train));
        self.parser = parser;
        self.model = LogCluster::train(LogClusterConfig::default(), &seqs);
    }
    fn flags(&self, session: &GenSession) -> bool {
        let keys = match_keyseq(&self.parser, &session_from_gen(session));
        self.model.is_anomalous(&keys)
    }
}

/// SemVec, reading raw rendered lines (headers and all, no parser) in the
/// `foreign` syntax or, for `None`, the fitted system's native one; `fitted`
/// holds that native syntax and the model.
#[derive(Debug, Default)]
pub struct SemVecTool {
    pub foreign: Option<ForeignFormat>,
    pub fitted: Option<(RawFormat, SemVec)>,
}

impl SemVecTool {
    fn render(&self, native: RawFormat, session: &GenSession) -> Vec<String> {
        match self.foreign {
            Some(f) => f.render_session(session),
            None => session.raw_lines(native),
        }
    }
}

impl SessionDetector for SemVecTool {
    fn fit(&mut self, system: SystemKind, train: &[GenJob]) {
        let native = RawFormat::for_system(system);
        let sessions = train.iter().flat_map(|j| &j.sessions);
        let lines: Vec<_> = sessions.map(|s| self.render(native, s)).collect();
        self.fitted = Some((native, SemVec::train(SemVecConfig::default(), &lines)));
    }
    fn flags(&self, session: &GenSession) -> bool {
        let (native, model) = self.fitted.as_ref().expect("fit before flags");
        model.is_anomalous(&self.render(*native, session))
    }
}
