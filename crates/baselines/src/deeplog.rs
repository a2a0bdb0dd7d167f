//! DeepLog-style next-log-key anomaly detection (Du et al., CCS'17).
//!
//! DeepLog trains an LSTM to predict the next log key given the recent
//! history and flags an execution when the observed key is not among the
//! model's top-*g* predictions. The *mechanism* — history-conditioned
//! next-key prediction — is what makes it accurate on infrastructure logs
//! (short, fixed-order sequences) and what collapses on data analytics logs
//! (interleaved, variable-length sessions). We expose that mechanism with
//! an order-*h* n-gram predictor with back-off; DESIGN.md §1 documents the
//! substitution argument.

use serde::{Deserialize, Serialize};
use spell::KeyId;
use std::collections::HashMap;

/// History window length `h` (DeepLog's default window is 10).
const HISTORY: usize = 10;

/// Accept the observed key if it is among the top `g` predictions
/// (DeepLog's default g = 9).
const TOP_G: usize = 9;

/// N-gram next-key model with back-off to shorter histories.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DeepLog {
    /// `(history …) → next-key → count`, keyed by stringified history for
    /// JSON friendliness.
    counts: HashMap<String, HashMap<u32, u64>>,
}

fn hist_key(window: &[KeyId]) -> String {
    let mut s = String::with_capacity(window.len() * 4);
    for k in window {
        s.push_str(&k.0.to_string());
        s.push(',');
    }
    s
}

impl DeepLog {
    /// Train on one normal session (a sequence of log keys).
    pub fn train_session(&mut self, keys: &[KeyId]) {
        obs::inc!("baselines.deeplog.sessions_trained");
        for i in 0..keys.len() {
            let start = i.saturating_sub(HISTORY);
            // every suffix of the window, for back-off
            for w in start..=i {
                let entry = self
                    .counts
                    .entry(hist_key(&keys[w..i]))
                    .or_default()
                    .entry(keys[i].0)
                    .or_insert(0);
                *entry += 1;
            }
        }
    }

    /// The top-g next-key predictions for a history window.
    fn predictions(&self, window: &[KeyId]) -> Vec<u32> {
        // back-off: longest known history wins
        for start in 0..=window.len() {
            if let Some(m) = self.counts.get(&hist_key(&window[start..])) {
                let mut v: Vec<(u32, u64)> = m.iter().map(|(k, c)| (*k, *c)).collect();
                v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                return v.into_iter().take(TOP_G).map(|(k, _)| k).collect();
            }
        }
        Vec::new()
    }

    /// Number of positions in `keys` where the observed key was not among
    /// the top-g predictions.
    pub fn count_misses(&self, keys: &[KeyId]) -> usize {
        let mut misses = 0;
        for i in 0..keys.len() {
            let start = i.saturating_sub(HISTORY);
            if !self.predictions(&keys[start..i]).contains(&keys[i].0) {
                misses += 1;
            }
        }
        misses
    }

    /// DeepLog's session-level verdict: anomalous iff any position is
    /// unpredicted.
    pub fn is_anomalous(&self, keys: &[KeyId]) -> bool {
        let verdict = self.count_misses(keys) > 0;
        if verdict {
            obs::inc!("baselines.deeplog.anomalous_sessions");
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ks(v: &[u32]) -> Vec<KeyId> {
        v.iter().map(|&x| KeyId(x)).collect()
    }

    #[test]
    fn fixed_order_sequences_are_learned_perfectly() {
        // Infrastructure-style logs: same short sequence every time.
        let mut m = DeepLog::default();
        for _ in 0..5 {
            m.train_session(&ks(&[1, 2, 3, 4, 5]));
        }
        assert!(!m.is_anomalous(&ks(&[1, 2, 3, 4, 5])));
        assert!(m.is_anomalous(&ks(&[1, 2, 5, 4, 3]))); // order broken
        assert!(m.is_anomalous(&ks(&[1, 2, 3, 9]))); // unseen key
    }

    #[test]
    fn interleaving_destroys_precision() {
        // Analytics-style logs: two concurrent actors interleave at random,
        // so the model flags clean sessions too (the paper's 8.81% precision
        // collapse): an interleaving puts a key after a history it never
        // followed in training, and even g = 9 cannot accept a successor
        // that history never had.
        let mut m = DeepLog::default();
        m.train_session(&ks(&[1, 10, 2, 20, 3, 30]));
        m.train_session(&ks(&[1, 2, 10, 20, 30, 3]));
        // a third benign interleaving still trips the predictor
        assert!(m.is_anomalous(&ks(&[10, 1, 20, 2, 30, 3])));
    }

    #[test]
    fn larger_g_restores_recall_on_seen_variation() {
        let mut m = DeepLog::default();
        m.train_session(&ks(&[1, 2, 3]));
        m.train_session(&ks(&[1, 3, 2]));
        assert!(!m.is_anomalous(&ks(&[1, 2, 3])));
        assert!(!m.is_anomalous(&ks(&[1, 3, 2])));
    }

    #[test]
    fn empty_model_flags_everything() {
        let m = DeepLog::default();
        assert!(m.is_anomalous(&ks(&[1])));
        assert!(!m.is_anomalous(&ks(&[])));
    }

    #[test]
    fn miss_counts_are_monotone_in_corruption() {
        let mut m = DeepLog::default();
        for _ in 0..3 {
            m.train_session(&ks(&[1, 2, 3, 4, 5, 6]));
        }
        let clean = m.count_misses(&ks(&[1, 2, 3, 4, 5, 6]));
        let corrupted = m.count_misses(&ks(&[1, 9, 9, 4, 9, 6]));
        assert!(clean < corrupted);
    }
}
