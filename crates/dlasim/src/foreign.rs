//! Foreign log-syntax rendering — reproducible corpora for the adapters.
//!
//! Besides the two native syntaxes (`RawFormat`), the `lognlp::format`
//! adapters normalise HDFS/BGL-style, RFC-3164 syslog and JSON-structured
//! lines into the pipeline. To test them against corpora with known ground
//! truth, the simulator can render any generated session in those same
//! foreign syntaxes: one [`ForeignFormat`] per such adapter, deterministic,
//! with the message body byte-identical to the native rendering so
//! cross-format detection results are comparable.
//!
//! HDFS and syslog headers carry one-second timestamps — millisecond
//! fidelity is deliberately lost, exactly like the real formats. Ordering
//! survives because session assembly sorts stably by timestamp, keeping
//! emission order among equal seconds. JSON carries exact milliseconds.

use crate::types::{GenSession, SimLevel, SimLine};

/// The foreign syntaxes, one per non-native `lognlp::format::AdapterKind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForeignFormat {
    /// `190622 HHMMSS pid LEVEL source: message` (HDFS/BGL numeric header).
    Hdfs,
    /// `<PRI>Jun DD HH:MM:SS host source: message` (RFC 3164).
    Syslog,
    /// `{"ts":…,"level":…,"host":…,"source":…,"msg":…}` (one object/line).
    Json,
}

impl ForeignFormat {
    /// Every foreign format, in stable order.
    pub const ALL: [ForeignFormat; 3] = [
        ForeignFormat::Hdfs,
        ForeignFormat::Syslog,
        ForeignFormat::Json,
    ];

    /// The `--format` name understood by the matching adapter.
    pub fn name(self) -> &'static str {
        match self {
            ForeignFormat::Hdfs => "hdfs",
            ForeignFormat::Syslog => "syslog",
            ForeignFormat::Json => "json",
        }
    }

    /// Parse a `--format` style name.
    pub fn parse(name: &str) -> Option<ForeignFormat> {
        Some(match name {
            "hdfs" => ForeignFormat::Hdfs,
            "syslog" => ForeignFormat::Syslog,
            "json" => ForeignFormat::Json,
            _ => return None,
        })
    }

    /// Render one line as emitted on `host`. The simulated clock starts at
    /// 2019-06-22 00:00:00, matching the native `RawFormat` renderings; day
    /// counts roll through calendar month lengths (Jun 30 → Jul 1, …) so
    /// long simulated sessions keep emitting dates the adapters accept.
    pub fn render(self, l: &SimLine, host: &str) -> String {
        let total_s = l.ts_ms / 1000;
        let (s, m, h) = (total_s % 60, (total_s / 60) % 60, (total_s / 3600) % 24);
        let (mon_name, mon, day) = calendar_2019(22 + total_s / 86_400);
        debug_assert!((1..=31).contains(&day), "unrenderable day {day}");
        match self {
            ForeignFormat::Hdfs => format!(
                "19{mon:02}{day:02} {h:02}{m:02}{s:02} {} {} {}: {}",
                pid_of(host),
                l.level.as_str(),
                l.source,
                l.message
            ),
            ForeignFormat::Syslog => format!(
                "<{}>{mon_name} {day:>2} {h:02}:{m:02}:{s:02} {host} {}: {}",
                128 + syslog_severity(l.level),
                l.source,
                l.message
            ),
            ForeignFormat::Json => format!(
                r#"{{"ts":{},"level":"{}","host":"{}","source":"{}","msg":"{}"}}"#,
                l.ts_ms,
                l.level.as_str(),
                json_escape(host),
                json_escape(&l.source),
                json_escape(&l.message)
            ),
        }
    }

    /// Render a whole session in this syntax.
    pub fn render_session(self, session: &GenSession) -> Vec<String> {
        session
            .lines
            .iter()
            .map(|l| self.render(l, &session.host))
            .collect()
    }
}

/// Map a June day count (`22 + elapsed days`; may exceed 30) to
/// `(month name, month number, day of month)` in the simulated year 2019,
/// rolling through real month lengths. Sessions long enough to leave
/// December (190+ simulated days — far beyond anything the generator
/// produces) saturate at Dec 31 rather than emit a date adapters reject.
pub(crate) fn calendar_2019(mut day: u64) -> (&'static str, u64, u64) {
    const MONTHS: [(&str, u64, u64); 7] = [
        ("Jun", 6, 30),
        ("Jul", 7, 31),
        ("Aug", 8, 31),
        ("Sep", 9, 30),
        ("Oct", 10, 31),
        ("Nov", 11, 30),
        ("Dec", 12, 31),
    ];
    for (name, num, len) in MONTHS {
        if day <= len {
            return (name, num, day);
        }
        day -= len;
    }
    ("Dec", 12, 31)
}

/// RFC-3164 severity for a simulated level (facility is local0 = 16).
fn syslog_severity(level: SimLevel) -> u8 {
    match level {
        SimLevel::Info => 6,
        SimLevel::Warn => 4,
        SimLevel::Error => 3,
    }
}

/// A stable fake pid for the HDFS header, derived from the host name so
/// lines from one container share it.
fn pid_of(host: &str) -> u32 {
    1000 + host
        .bytes()
        .fold(0u32, |a, b| a.wrapping_mul(31) + b as u32)
        % 9000
}

/// Escape the characters JSON strings cannot carry raw. Simulator messages
/// contain none of them in practice, but rendering must stay total.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> SimLine {
        SimLine {
            ts_ms: 3_723_456, // 01:02:03.456
            level: SimLevel::Info,
            source: "BlockManager".into(),
            message: "Registered BlockManager".into(),
            template_id: "t",
        }
    }

    #[test]
    fn hdfs_rendering_shape() {
        let r = ForeignFormat::Hdfs.render(&line(), "host3");
        assert!(
            r.ends_with("INFO BlockManager: Registered BlockManager"),
            "{r}"
        );
        assert!(r.starts_with("190622 010203 "), "{r}");
    }

    #[test]
    fn syslog_rendering_shape_and_severity() {
        let mut l = line();
        let r = ForeignFormat::Syslog.render(&l, "host3");
        assert_eq!(
            r,
            "<134>Jun 22 01:02:03 host3 BlockManager: Registered BlockManager"
        );
        l.level = SimLevel::Error;
        assert!(ForeignFormat::Syslog
            .render(&l, "host3")
            .starts_with("<131>"));
        l.level = SimLevel::Warn;
        assert!(ForeignFormat::Syslog
            .render(&l, "host3")
            .starts_with("<132>"));
    }

    #[test]
    fn json_rendering_carries_exact_millis() {
        let r = ForeignFormat::Json.render(&line(), "host3");
        assert_eq!(
            r,
            r#"{"ts":3723456,"level":"INFO","host":"host3","source":"BlockManager","msg":"Registered BlockManager"}"#
        );
    }

    #[test]
    fn json_escape_is_total() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn renderings_roll_over_midnight() {
        let mut l = line();
        l.ts_ms = 86_400_000 + 1000;
        assert!(ForeignFormat::Hdfs
            .render(&l, "h")
            .starts_with("190623 000001"));
        assert!(ForeignFormat::Syslog
            .render(&l, "h")
            .contains("Jun 23 00:00:01"));
    }

    #[test]
    fn renderings_roll_over_month_boundaries() {
        // 9 simulated days past the Jun 22 epoch crosses Jun 30 → Jul 1;
        // the rendered dates must stay adapter-acceptable (no "Jun 32").
        let mut l = line();
        l.ts_ms = 9 * 86_400_000;
        assert!(
            ForeignFormat::Hdfs.render(&l, "h").starts_with("190701 "),
            "{}",
            ForeignFormat::Hdfs.render(&l, "h")
        );
        assert!(
            ForeignFormat::Syslog.render(&l, "h").contains("Jul  1 "),
            "{}",
            ForeignFormat::Syslog.render(&l, "h")
        );
        // Deep into the simulated calendar: Jun 22 + 40 days = Aug 1.
        l.ts_ms = 40 * 86_400_000;
        assert!(ForeignFormat::Hdfs.render(&l, "h").starts_with("190801 "));
        // Past the renderable range the date saturates instead of overflowing.
        l.ts_ms = 400 * 86_400_000;
        assert!(ForeignFormat::Hdfs.render(&l, "h").starts_with("191231 "));
    }

    #[test]
    fn name_roundtrip() {
        for f in ForeignFormat::ALL {
            assert_eq!(ForeignFormat::parse(f.name()), Some(f));
        }
        assert_eq!(ForeignFormat::parse("hadoop"), None);
    }
}
