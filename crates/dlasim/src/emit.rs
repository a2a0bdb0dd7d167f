//! Log emission machinery: deterministic clocks, jitter and concurrency.
//!
//! Each actor (executor thread, fetcher, task) writes through its own
//! [`Emitter`] whose clock advances with random jitter; concurrent actors
//! are `fork`ed from a parent and their lines merged by timestamp — this is
//! what produces the *interchangeable orders* that make data-analytics logs
//! hard for fixed-order tools (paper §2.2).
//!
//! Every draw comes from the crate's own ChaCha8 stream (`rng.rs`), which
//! the golden corpora pin bit for bit: a change to the order or kind of
//! draws here changes every golden.

use crate::rng::Rng;
use crate::types::{SimLevel, SimLine};

/// A deterministic log emitter with its own clock.
#[derive(Debug, Clone)]
pub struct Emitter {
    rng: Rng,
    clock_ms: u64,
    lines: Vec<SimLine>,
}

impl Emitter {
    /// New emitter seeded deterministically, starting at `start_ms`.
    pub fn new(seed: u64, start_ms: u64) -> Emitter {
        Emitter {
            rng: Rng::new(seed),
            clock_ms: start_ms,
            lines: Vec::new(),
        }
    }

    /// Current clock value.
    pub fn now(&self) -> u64 {
        self.clock_ms
    }

    /// Advance the clock by a jittered amount in `[min, max]` ms.
    pub fn tick(&mut self, min: u64, max: u64) {
        let d = if max > min {
            self.rng.between(min, max)
        } else {
            min
        };
        self.clock_ms += d;
    }

    /// Random integer in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi > lo {
            self.rng.between(lo, hi)
        } else {
            lo
        }
    }

    /// Random boolean with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.unit() < p
    }

    /// Emit an INFO line after a small tick.
    pub fn info(&mut self, source: &str, template_id: &'static str, message: String) {
        self.tick(1, 40);
        self.push(SimLevel::Info, source, template_id, message);
    }

    /// Emit a WARN line after a small tick.
    pub fn warn(&mut self, source: &str, template_id: &'static str, message: String) {
        self.tick(1, 40);
        self.push(SimLevel::Warn, source, template_id, message);
    }

    /// Emit an ERROR line after a small tick.
    pub fn error(&mut self, source: &str, template_id: &'static str, message: String) {
        self.tick(1, 40);
        self.push(SimLevel::Error, source, template_id, message);
    }

    fn push(&mut self, level: SimLevel, source: &str, template_id: &'static str, message: String) {
        self.lines.push(SimLine {
            ts_ms: self.clock_ms,
            level,
            source: source.to_string(),
            message,
            template_id,
        });
    }

    /// Fork a concurrent child emitter starting at the current clock; its
    /// lines are merged back with [`Emitter::merge`].
    pub fn fork(&mut self, salt: u64) -> Emitter {
        let seed = self.rng.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Emitter::new(seed, self.clock_ms)
    }

    /// Merge a finished child's lines; the parent clock advances to the
    /// latest time seen.
    pub fn merge(&mut self, child: Emitter) {
        self.clock_ms = self.clock_ms.max(child.clock_ms);
        self.lines.extend(child.lines);
    }

    /// Finish: sort lines by timestamp (stable) and return them.
    pub fn finish(mut self) -> Vec<SimLine> {
        self.lines.sort_by_key(|l| l.ts_ms);
        self.lines
    }

    /// Truncate the line stream at a fraction of its (time) extent —
    /// the SIGKILL model: no cleanup messages after the cut.
    pub fn lines_truncated_at_frac(lines: Vec<SimLine>, frac: f64) -> Vec<SimLine> {
        if lines.is_empty() {
            return lines;
        }
        let first = lines.first().expect("non-empty").ts_ms;
        let last = lines.last().expect("non-empty").ts_ms;
        let cut = first + ((last.saturating_sub(first)) as f64 * frac) as u64;
        lines.into_iter().filter(|l| l.ts_ms <= cut).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut e = Emitter::new(42, 0);
            e.info("X", "t1", "hello world".into());
            e.tick(5, 10);
            e.warn("Y", "t2", format!("value {}", e.clone().range(0, 100)));
            e.finish()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clocks_are_monotone_within_an_emitter() {
        let mut e = Emitter::new(7, 100);
        for i in 0..50 {
            e.info("X", "t", format!("m{i}"));
        }
        let lines = e.finish();
        for w in lines.windows(2) {
            assert!(w[0].ts_ms <= w[1].ts_ms);
        }
        assert!(lines[0].ts_ms >= 100);
    }

    #[test]
    fn forked_children_interleave() {
        let mut parent = Emitter::new(1, 0);
        parent.info("P", "t", "start".into());
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        for i in 0..20 {
            a.info("A", "t", format!("a{i}"));
            b.info("B", "t", format!("b{i}"));
        }
        parent.merge(a);
        parent.merge(b);
        parent.info("P", "t", "end".into());
        let lines = parent.finish();
        // sorted by timestamp and actually interleaved
        assert!(lines.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms));
        let srcs: Vec<&str> = lines.iter().map(|l| l.source.as_str()).collect();
        let first_b = srcs.iter().position(|s| *s == "B").unwrap();
        let last_a = srcs.iter().rposition(|s| *s == "A").unwrap();
        assert!(first_b < last_a, "A and B should interleave: {srcs:?}");
        assert_eq!(srcs.last(), Some(&"P"));
    }

    #[test]
    fn truncation_cuts_tail() {
        let mut e = Emitter::new(3, 0);
        for i in 0..100 {
            e.info("X", "t", format!("m{i}"));
        }
        let lines = e.finish();
        let n = lines.len();
        let cut = Emitter::lines_truncated_at_frac(lines, 0.5);
        assert!(cut.len() < n);
        assert!(!cut.is_empty());
    }
}
