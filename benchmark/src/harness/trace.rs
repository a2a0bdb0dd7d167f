//! Bench-side span recorder: every span is opened here, around a call (or
//! one batched pass of calls) into a layer's public function. Nothing is
//! recorded inside the program under test.
//!
//! Spans stay in memory and are written out once, at exit. A disabled
//! recorder runs the closure and records nothing, so the end-to-end reps
//! and the traced reps execute the same code.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// One id per rep (or per group of layer passes).
    pub trace: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span, counted at the same boundary.
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    trace: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            trace: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Start a new trace: spans recorded from now on share a fresh id.
    pub fn next_trace(&mut self) {
        self.trace += 1;
    }

    /// Run `f` inside a span named `name`; `f` returns its result and the
    /// count of work items it processed.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> (R, u64)) -> R {
        if !self.enabled {
            return f(self).0;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            trace: self.trace,
            start_ns: self.now_ns(),
            end_ns: 0,
            count: 0,
        });
        self.open.push(index);
        let (result, count) = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.count = count;
        result
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds spent in spans called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.named(name).map(Span::duration_ns).sum::<u64>() as f64 / 1e9
    }

    /// Total work counted by spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.count).sum()
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// A span's own time: its duration minus what its direct children cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::duration_ns)
            .sum();
        self.spans[index].duration_ns().saturating_sub(children)
    }

    /// One JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"count\":{}}}",
                s.trace,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(id),
                s.count
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.next_trace();
        let got = rec.span("rep", |rec| {
            let a = rec.span("layer.a", |_| (2, 10));
            let b = rec.span("layer.b", |rec| (rec.span("layer.a", |_| (3, 5)), 1));
            (a + b, 0)
        });
        assert_eq!(got, 5);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        for s in spans {
            assert_eq!(s.trace, 1, "one trace id per rep");
            if let Some(p) = s.parent {
                assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
            }
        }
        assert_eq!(rec.count("layer.a"), 15);
        let children = spans[1].duration_ns() + spans[2].duration_ns();
        assert_eq!(rec.self_ns(0), spans[0].duration_ns() - children);
        rec.next_trace();
        rec.span("rep", |_| ((), 0));
        assert_eq!(rec.spans()[4].trace, 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", |_| (7, 1)), 7);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.seconds("x"), 0.0);
    }
}
