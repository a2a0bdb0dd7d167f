//! The anomaly sink: where completed [`SessionReport`]s land.
//!
//! Every closed or evicted session produces exactly one report. The sink
//! keeps the most recent reports in a bounded ring buffer (served by the
//! `REPORTS` / `ANOMALIES` control verbs) and, when configured, appends
//! each *problematic* report as one JSON object per line to a JSONL file —
//! the same shape `intellog detect --json` prints, so offline and online
//! tooling share one format.

use anomaly::SessionReport;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::Path;
use sync::atomic::{AtomicU64, Ordering};
use sync::Mutex;

struct SinkInner {
    /// (tenant, report) — tenant-tagged so `REPORTS`/`ANOMALIES` can be
    /// filtered per tenant; the JSONL file keeps the plain
    /// `SessionReport` shape shared with `intellog detect --json`.
    ring: VecDeque<(String, SessionReport)>,
    anomalies_by_kind: BTreeMap<&'static str, u64>,
}

/// Bounded in-memory ring + optional JSONL file of session reports.
pub struct AnomalySink {
    inner: Mutex<SinkInner>,
    /// The JSONL file, under a lock of its own and never held together with
    /// `inner`: a file that stalls (a full disk, a pipe nobody reads) holds
    /// up the shards with something to write to it — not `STATS` and
    /// `REPORTS`, which read `inner` on the gateway's loop thread.
    file: Mutex<Option<std::io::BufWriter<std::fs::File>>>,
    capacity: usize,
    completed: AtomicU64,
    problematic: AtomicU64,
}

impl AnomalySink {
    /// A sink retaining the last `capacity` reports in memory, appending
    /// problematic ones to `jsonl_path` if given.
    pub fn new(capacity: usize, jsonl_path: Option<&Path>) -> std::io::Result<AnomalySink> {
        let file = match jsonl_path {
            Some(p) => Some(std::io::BufWriter::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(p)?,
            )),
            None => None,
        };
        Ok(AnomalySink {
            inner: Mutex::new(SinkInner {
                ring: VecDeque::with_capacity(capacity.min(4096)),
                anomalies_by_kind: BTreeMap::new(),
            }),
            file: Mutex::new(file),
            capacity: capacity.max(1),
            completed: AtomicU64::new(0),
            problematic: AtomicU64::new(0),
        })
    }

    /// Record one completed session for `tenant`.
    pub fn push(&self, tenant: &str, report: SessionReport) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        if report.is_problematic() {
            self.problematic.fetch_add(1, Ordering::Relaxed);
            if let Some(f) = self.file.lock().as_mut() {
                // One JSON object per line; flush per report so a tailing
                // operator (or the CI smoke test) sees it immediately.
                if let Ok(json) = serde_json::to_string(&report) {
                    let _ = writeln!(f, "{json}");
                    let _ = f.flush();
                }
            }
        }
        let mut inner = self.inner.lock();
        for a in &report.anomalies {
            *inner.anomalies_by_kind.entry(a.kind_name()).or_insert(0) += 1;
        }
        if inner.ring.len() >= self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back((tenant.to_string(), report));
    }

    /// The newest `n` completed reports, oldest first, optionally only
    /// for one tenant.
    pub fn recent_reports(&self, n: usize, tenant: Option<&str>) -> Vec<SessionReport> {
        self.filtered(n, tenant, |_| true)
    }

    /// The newest `n` problematic reports, oldest first, optionally only
    /// for one tenant.
    pub fn recent_anomalous(&self, n: usize, tenant: Option<&str>) -> Vec<SessionReport> {
        self.filtered(n, tenant, SessionReport::is_problematic)
    }

    fn filtered(
        &self,
        n: usize,
        tenant: Option<&str>,
        keep: impl Fn(&SessionReport) -> bool,
    ) -> Vec<SessionReport> {
        let inner = self.inner.lock();
        let mut out: Vec<SessionReport> = inner
            .ring
            .iter()
            .rev()
            .filter(|(t, r)| tenant.is_none_or(|want| want == t.as_str()) && keep(r))
            .map(|(_, r)| r.clone())
            .take(n)
            .collect();
        out.reverse();
        out
    }

    /// Completed session count.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Problematic session count.
    pub fn problematic(&self) -> u64 {
        self.problematic.load(Ordering::Relaxed)
    }

    /// Anomaly counts by kind, for `STATS`.
    pub fn anomalies_by_kind(&self) -> BTreeMap<String, u64> {
        self.inner
            .lock()
            .anomalies_by_kind
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomaly::Anomaly;

    fn report(id: &str, problematic: bool) -> SessionReport {
        SessionReport {
            session: id.into(),
            lines: 1,
            anomalies: if problematic {
                vec![Anomaly::MissingGroup {
                    group: "task".into(),
                }]
            } else {
                vec![]
            },
        }
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let sink = AnomalySink::new(2, None).unwrap();
        sink.push("t0", report("a", false));
        sink.push("t0", report("b", true));
        sink.push("t0", report("c", false));
        let recent = sink.recent_reports(10, None);
        assert_eq!(
            recent
                .iter()
                .map(|r| r.session.as_str())
                .collect::<Vec<_>>(),
            ["b", "c"]
        );
        assert_eq!(sink.completed(), 3);
        assert_eq!(sink.problematic(), 1);
        assert_eq!(sink.recent_anomalous(10, None).len(), 1);
        assert_eq!(sink.anomalies_by_kind().get("missing-group"), Some(&1));
    }

    #[test]
    fn tenant_filter_separates_streams() {
        let sink = AnomalySink::new(8, None).unwrap();
        sink.push("acme", report("a1", true));
        sink.push("globex", report("g1", false));
        sink.push("acme", report("a2", false));
        let acme = sink.recent_reports(10, Some("acme"));
        assert_eq!(
            acme.iter().map(|r| r.session.as_str()).collect::<Vec<_>>(),
            ["a1", "a2"]
        );
        assert_eq!(sink.recent_reports(10, Some("globex")).len(), 1);
        assert_eq!(sink.recent_anomalous(10, Some("globex")).len(), 0);
        assert_eq!(sink.recent_anomalous(10, Some("acme")).len(), 1);
        assert_eq!(sink.recent_reports(10, Some("missing")).len(), 0);
    }

    #[test]
    fn jsonl_file_gets_problematic_reports_only() {
        let dir = std::env::temp_dir().join("intellog-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("sink-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let sink = AnomalySink::new(8, Some(&path)).unwrap();
            sink.push("t0", report("clean", false));
            sink.push("t0", report("bad", true));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        let parsed: SessionReport = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(parsed.session, "bad");
        std::fs::remove_file(&path).unwrap();
    }
}
