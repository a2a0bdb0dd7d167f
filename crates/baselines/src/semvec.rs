//! Parsing-free semantic-vector detection (the NeuralLog direction:
//! "Log-based Anomaly Detection Without Log Parsing", ASE'21).
//!
//! NeuralLog's argument is that log parsers are the weak link: on noisy
//! real-world formats, parsing errors corrupt the key sequences every
//! downstream detector consumes, so it skips parsing entirely and embeds
//! raw message text. This baseline realises that direction with the
//! repository's substitution discipline (no pretrained transformer exists
//! here, as with DeepLog's LSTM → n-gram swap, DESIGN.md §1): raw lines —
//! headers, bodies, whatever the corpus carries, **no parser in front** —
//! are feature-hashed into fixed-width semantic vectors (whitespace tokens
//! with digit runs collapsed, plus character trigrams for subword
//! robustness), sessions are the L2-normalised sum of their line vectors,
//! and a session is anomalous when its cosine similarity to the nearest
//! training session falls below a leave-one-out-calibrated threshold.
//!
//! Everything is deterministic: fixed-width vectors, FNV-1a hashing, no
//! data-dependent iteration order.

use serde::{Deserialize, Serialize};

/// Feature-vector width. Fixed so vectors are dense arrays — no hash-map
/// iteration order anywhere near a verdict.
pub const BUCKETS: usize = 256;

/// Configuration of the detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SemVecConfig {
    /// Margin subtracted from the leave-one-out calibration floor: the
    /// threshold is `(min over training sessions of similarity to the
    /// nearest *other* training session) - margin`.
    pub margin: f64,
    /// Lower bound on the calibrated threshold, so degenerate corpora
    /// (every training session identical → calibration floor 1.0) still
    /// leave room for benign variation.
    pub floor: f64,
    /// Upper bound on the calibrated threshold.
    pub ceiling: f64,
}

impl Default for SemVecConfig {
    fn default() -> SemVecConfig {
        SemVecConfig {
            margin: 0.05,
            floor: 0.60,
            ceiling: 0.995,
        }
    }
}

/// One L2-normalised session vector.
type Vector = [f64; BUCKETS];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv1a(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// Accumulate one raw line into `v`: whitespace tokens with every ASCII
/// digit collapsed to `0` (so `step 1400` and `step 17` share features),
/// plus character trigrams of each normalised token (subword signal —
/// `gradient` and `gradients` overlap heavily).
fn accumulate_line(line: &str, v: &mut Vector) {
    for tok in line.split_ascii_whitespace() {
        let mut h = FNV_OFFSET;
        let mut window = [0u8; 3];
        let mut len = 0usize;
        for b in tok.bytes() {
            let b = if b.is_ascii_digit() { b'0' } else { b };
            h = fnv1a(h, b);
            window[0] = window[1];
            window[1] = window[2];
            window[2] = b;
            len += 1;
            if len >= 3 {
                let mut th = FNV_OFFSET;
                for &wb in &window {
                    th = fnv1a(th, wb);
                }
                v[(th % BUCKETS as u64) as usize] += 0.5;
            }
        }
        if len > 0 {
            v[(h % BUCKETS as u64) as usize] += 1.0;
        }
    }
}

fn vectorize<S: AsRef<str>>(lines: &[S]) -> Vector {
    let mut v = [0.0; BUCKETS];
    for line in lines {
        accumulate_line(line.as_ref(), &mut v);
    }
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    v
}

/// Cosine of two unit vectors — plain dot product.
fn dot(a: &Vector, b: &Vector) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The trained parsing-free detector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SemVec {
    /// Configuration.
    pub config: SemVecConfig,
    /// Unit vectors of the training sessions.
    reference: Vec<Vec<f64>>,
    /// Calibrated decision threshold.
    threshold: f64,
}

impl SemVec {
    /// Train on normal sessions, each a slice of **raw log lines** — no
    /// parsing, headers and all. Calibrates the threshold leave-one-out:
    /// every training session must itself clear it against the others.
    pub fn train<S: AsRef<str>>(config: SemVecConfig, sessions: &[Vec<S>]) -> SemVec {
        obs::add!("baselines.semvec.sessions_trained", sessions.len() as u64);
        let vectors: Vec<Vector> = sessions.iter().map(|s| vectorize(s)).collect();
        let mut calib = 1.0f64;
        for (i, v) in vectors.iter().enumerate() {
            let nearest_other = vectors
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, o)| dot(v, o))
                .fold(f64::NEG_INFINITY, f64::max);
            if nearest_other.is_finite() {
                calib = calib.min(nearest_other);
            }
        }
        let threshold = (calib - config.margin).clamp(config.floor, config.ceiling);
        SemVec {
            config,
            reference: vectors.into_iter().map(|v| v.to_vec()).collect(),
            threshold,
        }
    }

    /// The calibrated decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Check the internal invariants serde cannot enforce: every persisted
    /// reference vector must be exactly [`BUCKETS`] wide. Call this after
    /// deserializing a model from untrusted or version-skewed storage; a
    /// freshly trained model always passes.
    pub fn validate(&self) -> Result<(), String> {
        for (i, r) in self.reference.iter().enumerate() {
            if r.len() != BUCKETS {
                return Err(format!(
                    "reference vector {i} has {} buckets, expected {BUCKETS} \
                     (corrupt or version-skewed persisted model)",
                    r.len()
                ));
            }
        }
        Ok(())
    }

    /// Cosine similarity of a session to its nearest training session.
    /// Reference vectors whose width does not match [`BUCKETS`] (possible
    /// only in a corrupt persisted model — see [`SemVec::validate`]) are
    /// skipped rather than panicking.
    pub fn best_similarity<S: AsRef<str>>(&self, lines: &[S]) -> f64 {
        let v = vectorize(lines);
        self.reference
            .iter()
            .filter(|r| r.len() == BUCKETS)
            .map(|r| v.iter().zip(r.iter()).map(|(x, y)| x * y).sum::<f64>())
            .fold(0.0f64, f64::max)
    }

    /// Verdict: anomalous when nothing in the reference set is close.
    pub fn is_anomalous<S: AsRef<str>>(&self, lines: &[S]) -> bool {
        self.best_similarity(lines) < self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(prefix: &str, n: usize) -> Vec<String> {
        (0..n)
            .flat_map(|i| {
                vec![
                    format!("{prefix} Starting task {i} in stage 0 on host{i}"),
                    format!("{prefix} Finished task {i} and sent {} bytes", i * 97),
                ]
            })
            .collect()
    }

    #[test]
    fn normal_sessions_stay_clean() {
        let train: Vec<Vec<String>> = (0..6)
            .map(|_| session("19/06/22 INFO Executor:", 8))
            .collect();
        let d = SemVec::train(SemVecConfig::default(), &train);
        assert!(!d.is_anomalous(&session("19/06/22 INFO Executor:", 10)));
    }

    #[test]
    fn foreign_key_mix_is_flagged() {
        let train: Vec<Vec<String>> = (0..6).map(|_| session("INFO Executor:", 8)).collect();
        let d = SemVec::train(SemVecConfig::default(), &train);
        let alien: Vec<String> = (0..10)
            .map(|i| format!("kernel panic unrecoverable fs corruption sector {i}"))
            .collect();
        assert!(d.is_anomalous(&alien));
    }

    #[test]
    fn digit_normalisation_generalises_parameters() {
        let a = vectorize(&["worker 2 finished step 1400 with loss 0.3517"]);
        let b = vectorize(&["worker 7 finished step 93 with loss 0.0081"]);
        // digit runs of different lengths still hash differently ("1400"
        // vs "93"), so equality is not expected — high overlap is
        assert!(dot(&a, &b) > 0.85, "got {}", dot(&a, &b));
    }

    #[test]
    fn header_noise_dilutes_but_does_not_blind() {
        // The parsing-free pitch: raw lines with headers still carry the
        // semantic signal, just diluted by timestamp/host tokens.
        let with_headers: Vec<String> = (0..8)
            .map(|i| format!("<134>Jun 22 01:02:{i:02} host{i} Executor: Starting task {i}"))
            .collect();
        let train = vec![with_headers.clone(), with_headers.clone()];
        let d = SemVec::train(SemVecConfig::default(), &train);
        assert!(!d.is_anomalous(&with_headers));
    }

    #[test]
    fn threshold_is_calibrated_and_clamped() {
        let identical: Vec<Vec<String>> = vec![session("x", 4); 3];
        let d = SemVec::train(SemVecConfig::default(), &identical);
        // identical sessions calibrate to 1.0 - margin, clamped by ceiling
        assert!(d.threshold() <= d.config.ceiling);
        assert!(d.threshold() >= d.config.floor);
    }

    #[test]
    fn empty_reference_flags_everything() {
        let d = SemVec::train(SemVecConfig::default(), &Vec::<Vec<String>>::new());
        assert!(d.is_anomalous(&["anything".to_string()]));
    }

    #[test]
    fn skewed_persisted_model_errors_instead_of_panicking() {
        let train: Vec<Vec<String>> = (0..3).map(|_| session("INFO X:", 4)).collect();
        let d = SemVec::train(SemVecConfig::default(), &train);
        assert!(d.validate().is_ok());
        // Simulate a version-skewed persisted model: a reference vector of
        // the wrong width survives serde (Vec<Vec<f64>> carries no length
        // invariant) but must not panic scoring.
        let skewed: SemVec = serde_json::from_str(
            r#"{"config":{"margin":0.05,"floor":0.6,"ceiling":0.995},
                "reference":[[1.0,2.0,3.0]],"threshold":0.9}"#,
        )
        .unwrap();
        assert!(skewed.validate().is_err());
        let sim = skewed.best_similarity(&session("INFO X:", 4));
        assert!(sim.is_finite());
    }

    #[test]
    fn deterministic() {
        let train: Vec<Vec<String>> = (0..4).map(|_| session("INFO X:", 6)).collect();
        let a = SemVec::train(SemVecConfig::default(), &train);
        let b = SemVec::train(SemVecConfig::default(), &train);
        assert_eq!(a.threshold(), b.threshold());
        assert_eq!(
            a.best_similarity(&session("INFO X:", 5)),
            b.best_similarity(&session("INFO X:", 5))
        );
    }
}
