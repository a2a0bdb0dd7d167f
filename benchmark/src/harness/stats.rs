//! Order statistics, `/proc` readers and metric-name validation.

use std::time::Instant;

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
/// Empty input reads 0.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// One metric within a run: the value the run reports, and the median,
/// quartiles and count of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Per-rep samples, reported at their best: the fastest rep. On a
    /// shared host a neighbour can only slow a rep down, for seconds at a
    /// time and by half as much again, so the median of a run moves with
    /// the neighbours while the best rep stays at the speed of the
    /// undisturbed machine, as long as one rep ran undisturbed.
    pub fn best(samples: &[f64], higher_is_better: bool) -> Summary {
        let sorted = ascending(samples);
        Summary {
            value: quantile(&sorted, if higher_is_better { 1.0 } else { 0.0 }),
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            n: sorted.len(),
        }
    }

    /// A quantity read once per run (a count, a peak, a pooled percentile)
    /// from `n` samples.
    pub fn single(value: f64, n: usize) -> Summary {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            n,
        }
    }
}

pub fn ascending(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The highest percentile of a conventional ladder that still has at least
/// ten samples beyond it, so the reported tail is never one outlier.
pub fn supported_tail(n: usize) -> f64 {
    // per mille, so that "ten beyond" is decided in whole samples
    const LADDER: [usize; 5] = [999, 990, 950, 900, 500];
    LADDER
        .into_iter()
        .find(|q| n * (1000 - q) >= 10 * 1000)
        .unwrap_or(500) as f64
        / 1000.0
}

/// `(p50, tail)` of pooled latency samples: the tail is p99 when at least
/// ten samples lie beyond it, else the highest supported rung below it.
pub fn latency_percentiles(samples: &[f64]) -> (f64, f64) {
    let sorted = ascending(samples);
    let tail_q = supported_tail(sorted.len()).min(0.99);
    (quantile(&sorted, 0.5), quantile(&sorted, tail_q))
}

/// Linux reports process times in clock ticks of 1/100 s on every
/// architecture this repository builds for (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// utime + stime of this process (all threads), in seconds.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_stat_cpu_ticks(&stat).map_or(0.0, |t| t as f64 / TICKS_PER_S)
}

/// Fields 14 and 15 of `/proc/<pid>/stat`. The command name (field 2) may
/// contain spaces and parentheses, so fields are counted after the last `)`.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU seconds of the threads alive right now, from the scheduler's own
/// nanosecond clock (`/proc/self/task/*/schedstat`). Finer than
/// [`process_cpu_s`]'s 10 ms ticks, but it forgets a thread when the thread
/// exits, so it only suits a window in which no thread ends.
pub fn live_threads_cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let on_cpu_ns: u64 = tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_ascii_whitespace().next()?.parse::<u64>().ok())
        .sum();
    on_cpu_ns as f64 / 1e9
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status_kib(&status, "VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Wall-clock and process-CPU stopwatch around one timed window.
pub struct Window {
    start: Instant,
    cpu0: f64,
}

impl Window {
    pub fn open() -> Window {
        Window {
            cpu0: process_cpu_s(),
            start: Instant::now(),
        }
    }

    /// `(wall_s, cpu_s)` since [`Window::open`].
    pub fn close(self) -> (f64, f64) {
        let wall = self.start.elapsed().as_secs_f64();
        (wall, process_cpu_s() - self.cpu0)
    }
}

/// A metric name as `BENCHMARK.json` accepts it: `[A-Za-z0-9_.-]{1,64}`,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_inputs() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        let samples: Vec<f64> = (0..=10).map(f64::from).collect();
        let s = Summary::best(&samples, true);
        assert_eq!(
            (s.value, s.median, s.q1, s.q3, s.n),
            (10.0, 5.0, 2.5, 7.5, 11)
        );
        assert_eq!(Summary::best(&samples, false).value, 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(5), 0.5);
        assert_eq!(supported_tail(100), 0.9);
        assert_eq!(supported_tail(999), 0.95);
        assert_eq!(supported_tail(1000), 0.99);
        assert_eq!(supported_tail(10_000), 0.999);
        let samples: Vec<f64> = (1..=2000).map(f64::from).collect();
        // p99 is the ceiling even when p99.9 is supported
        let (p50, p99) = latency_percentiles(&samples);
        assert!((p50 - 1000.5).abs() < 1e-9 && (p99 - 1980.01).abs() < 1e-6);
        // fifty samples support no tail beyond the median
        assert_eq!(latency_percentiles(&samples[..50]).1, 25.5);
    }

    #[test]
    fn proc_parsers() {
        let stat = "42 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(300));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        let status = "Name:\tx\nVmHWM:\t  20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM:"), Some(20480));
        assert!(process_cpu_s() >= 0.0 && peak_rss_mib() > 0.0);
        assert!(live_threads_cpu_s() > 0.0);
    }

    #[test]
    fn metric_names() {
        for good in ["setup_s", "spell.parse_s", "a-b.c_9", "9lives"] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", ".x", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
