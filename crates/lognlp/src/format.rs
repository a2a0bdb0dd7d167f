//! The log formatters (paper §5): one [`AdapterKind`] per line syntax.
//!
//! The formats of logs generated by different systems vary, so IntelLog
//! recognises timestamps, levels, output classes and contents by pattern
//! matching, and new systems plug in their own formatter. Five syntaxes are
//! built in: the two the paper's testbed produces — Hadoop style
//! (MapReduce, Tez, YARN) and Spark style — plus the shapes real-world
//! corpora arrive in: HDFS/BGL-style numeric headers, RFC-3164 syslog, and
//! JSON-structured lines. [`AdapterKind::parse_record`] normalises one
//! line into a [`RawRecord`] whose `source` and `message` fields **borrow from the
//! input line** — no heap allocation on the steady-state parse, so a
//! record feeds [`crate::tokenize_spans`] and the interned-token match path
//! directly (the counting-allocator proof in
//! `crates/spell/tests/zero_alloc.rs` covers every adapter).
//!
//! Malformed input is a first-class case, not a panic: every adapter is
//! total, returning a typed [`FormatError`] for lines it cannot normalise
//! (truncated headers, bad timestamps, partial JSON). Property tests in
//! `tests/format_props.rs` fuzz arbitrary bytes through every adapter and
//! lockstep the adapted message against the reference tokenizer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Log severity level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Level {
    /// TRACE
    Trace,
    /// DEBUG (syslog severity 7).
    Debug,
    /// INFO (syslog severities 5–6).
    Info,
    /// WARN (syslog severity 4).
    Warn,
    /// ERROR (syslog severities 0–3).
    Error,
    /// FATAL
    Fatal,
}

impl Level {
    /// Parse the conventional upper-case level token.
    pub fn parse(s: &str) -> Option<Level> {
        Some(match s {
            "TRACE" => Level::Trace,
            "DEBUG" => Level::Debug,
            "INFO" => Level::Info,
            "WARN" | "WARNING" => Level::Warn,
            "ERROR" => Level::Error,
            "FATAL" => Level::Fatal,
            _ => return None,
        })
    }

    /// Canonical upper-case rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "TRACE",
            Level::Debug => "DEBUG",
            Level::Info => "INFO",
            Level::Warn => "WARN",
            Level::Error => "ERROR",
            Level::Fatal => "FATAL",
        }
    }
}

/// One normalised log record. `source` and `message` are byte slices of the
/// adapted input line — resolving them costs nothing and the steady-state
/// ingest path stays allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawRecord<'a> {
    /// Milliseconds since an arbitrary per-format epoch. Only ordering
    /// matters downstream (lifespan analysis sorts by this); formats with
    /// one-second resolution (HDFS headers, RFC-3164) keep emission order
    /// for equal timestamps because `Session::new` sorts stably.
    pub ts_ms: u64,
    /// Severity.
    pub level: Level,
    /// Emitting component (HDFS class, syslog tag, JSON `source` field).
    pub source: &'a str,
    /// The free-text message body consumed by Spell.
    pub message: &'a str,
}

/// Typed reason an adapter rejected a line. Every variant is a normal
/// outcome for real-world corpora (stack-trace continuations, partial
/// writes, binary junk) — adapters never panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatError {
    /// Empty or whitespace-only line.
    Empty,
    /// The fixed header shape did not match; the payload names which part.
    Header(&'static str),
    /// A timestamp field failed to parse.
    Timestamp(&'static str),
    /// The severity token was not a recognised level / priority.
    Level,
    /// A required field was absent.
    MissingField(&'static str),
    /// Structural JSON error (truncated, unbalanced, non-object, nested
    /// containers where a scalar was expected).
    Json(&'static str),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Empty => write!(f, "empty line"),
            FormatError::Header(part) => write!(f, "malformed header: {part}"),
            FormatError::Timestamp(part) => write!(f, "bad timestamp: {part}"),
            FormatError::Level => write!(f, "unrecognised severity"),
            FormatError::MissingField(name) => write!(f, "missing field: {name}"),
            FormatError::Json(what) => write!(f, "malformed JSON line: {what}"),
        }
    }
}

impl std::error::Error for FormatError {}

/// The built-in line syntaxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdapterKind {
    /// Hadoop/Tez/YARN: `YYYY-MM-DD HH:MM:SS,mmm LEVEL [thread] class: msg`
    /// (the `[thread]` part is optional).
    Hadoop,
    /// Spark: `YY/MM/DD HH:MM:SS LEVEL class: msg`.
    Spark,
    /// HDFS/BGL-style numeric header: `YYMMDD HHMMSS pid LEVEL source: msg`.
    Hdfs,
    /// RFC-3164 syslog: `<PRI>Mmm dd hh:mm:ss host tag: msg`.
    Syslog,
    /// JSON-structured line: `{"ts":…, "level":…, "source":…, "msg":…}`.
    Json,
}

impl AdapterKind {
    /// Every built-in adapter, in stable order.
    pub const ALL: [AdapterKind; 5] = [
        AdapterKind::Hadoop,
        AdapterKind::Spark,
        AdapterKind::Hdfs,
        AdapterKind::Syslog,
        AdapterKind::Json,
    ];

    /// Parse a `--format` style name.
    pub fn parse(name: &str) -> Option<AdapterKind> {
        AdapterKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Short name used by `--format` and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            AdapterKind::Hadoop => "hadoop",
            AdapterKind::Spark => "spark",
            AdapterKind::Hdfs => "hdfs",
            AdapterKind::Syslog => "syslog",
            AdapterKind::Json => "json",
        }
    }

    /// The identity. Kept only because `benchmark/` calls
    /// `AdapterKind::Json.adapter().parse_record(..)`; everything else calls
    /// [`AdapterKind::parse_record`] directly.
    pub fn adapter(self) -> AdapterKind {
        self
    }
}

// lint: ingest-hot(begin)

impl AdapterKind {
    /// Normalise one raw line. Total (a typed [`FormatError`], never a
    /// panic) and allocation-free on the accept path: the record borrows
    /// from `line`.
    #[inline]
    pub fn parse_record(self, line: &str) -> Result<RawRecord<'_>, FormatError> {
        match self {
            AdapterKind::Hadoop => parse_hadoop(line),
            AdapterKind::Spark => parse_spark(line),
            AdapterKind::Hdfs => parse_hdfs(line),
            AdapterKind::Syslog => parse_syslog(line),
            AdapterKind::Json => parse_json(line),
        }
    }
}

/// The decimal field at the front of `s` and the bytes after it. Rejects an
/// empty field and one over 19 digits, which keeps every value below
/// u64::MAX (20 digits) and admits 13-digit epoch milliseconds; the checked
/// fold is belt-and-braces against a future cap change.
#[inline]
fn digit_field(s: &[u8]) -> Option<(u64, &[u8])> {
    let len = s.iter().take_while(|b| b.is_ascii_digit()).count();
    if len == 0 || len > 19 {
        return None;
    }
    let mut v: u64 = 0;
    for &b in &s[..len] {
        v = v.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
    }
    Some((v, &s[len..]))
}

/// A field that is one decimal number and nothing else (`"190622"`).
#[inline]
fn digits(s: &[u8]) -> Option<u64> {
    digit_field(s).and_then(|(v, rest)| rest.is_empty().then_some(v))
}

/// A date (year, month, day) or a wall clock (hour, minute, second).
type Triple = (u64, u64, u64);

/// Three decimal fields joined by `sep`: `2019-06-22`, `19/06/22`,
/// `10:00:01`.
#[inline]
fn triple(s: &[u8], sep: u8) -> Option<Triple> {
    let (a, s) = digit_field(s)?;
    let (b, s) = digit_field(s.strip_prefix(&[sep])?)?;
    Some((a, b, digits(s.strip_prefix(&[sep])?)?))
}

/// `s.trim_start()`: ASCII whitespace is skipped byte by byte, and
/// `str::trim_start` takes over at the first non-ASCII byte, so Unicode
/// whitespace (U+00A0, U+3000, …) is skipped as before.
#[inline]
fn trim_start(s: &str) -> &str {
    let mut i = 0;
    loop {
        match s.as_bytes().get(i) {
            Some(b' ' | b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r') => i += 1,
            Some(0x80..) => return s[i..].trim_start(),
            _ => return &s[i..],
        }
    }
}

/// Calendar date and wall clock → milliseconds on a day count that orders
/// across month and year boundaries (months as 31-day frames; exactness is
/// irrelevant, ordering is what downstream consumes). Callers bound the
/// year's width, so the fold cannot overflow.
#[inline]
fn clock_ms((yy, mm, dd): Triple, (h, m, s): Triple) -> Result<u64, FormatError> {
    if mm == 0 || mm > 12 || dd == 0 || dd > 31 || h > 23 || m > 59 || s > 60 {
        return Err(FormatError::Timestamp("range"));
    }
    let day = yy * 372 + (mm - 1) * 31 + (dd - 1);
    Ok((((day * 24 + h) * 60 + m) * 60 + s) * 1000)
}

/// The `source: message` body every header-style syntax ends in, cut at
/// the first `:` followed by a space; `field` names the source part in the
/// rejection.
#[inline]
fn record<'a>(
    ts_ms: u64,
    level: Level,
    body: &'a str,
    field: &'static str,
) -> Result<RawRecord<'a>, FormatError> {
    let cut = body
        .as_bytes()
        .windows(2)
        .position(|w| w[0] == b':' && w[1] == b' ')
        .ok_or(FormatError::MissingField(field))?;
    Ok(RawRecord {
        ts_ms,
        level,
        source: &body[..cut],
        message: &body[cut + 2..],
    })
}

/// The header both log4j layouts share — `DATE TIME LEVEL rest`, the date
/// `date_len` bytes of three `sep`-joined decimal fields — cut at its first
/// three spaces into (date triple, time field, level, rest).
#[inline]
fn log4j_header(
    line: &str,
    date_len: usize,
    sep: u8,
) -> Result<(Triple, &[u8], Level, &str), FormatError> {
    let line = line.trim_end_matches(['\r', '\n']);
    if trim_start(line).is_empty() {
        return Err(FormatError::Empty);
    }
    let b = line.as_bytes();
    let space = |from: usize| b[from..].iter().position(|&c| c == b' ').map(|i| from + i);
    let time = space(0).ok_or(FormatError::Header("time"))?;
    let level_at = space(time + 1).ok_or(FormatError::Header("level"))?;
    let rest = space(level_at + 1).ok_or(FormatError::Header("body"))?;
    if time != date_len {
        return Err(FormatError::Timestamp("date"));
    }
    let date = triple(&b[..time], sep).ok_or(FormatError::Timestamp("date"))?;
    let level = Level::parse(&line[level_at + 1..rest]).ok_or(FormatError::Level)?;
    Ok((date, &b[time + 1..level_at], level, &line[rest + 1..]))
}

/// `2019-06-22 10:00:00,123 INFO [fetcher#1] org.apache.hadoop.X: message`
/// (log4j `%d{ISO8601} %p [%t] %c: %m`). The `[thread]` part is optional
/// and may contain spaces; stack-trace continuation lines fail the
/// header and are rejected.
fn parse_hadoop(line: &str) -> Result<RawRecord<'_>, FormatError> {
    let (date, time, level, rest) = log4j_header(line, 10, b'-')?;
    let comma = time.iter().position(|&b| b == b',');
    let (hms, millis) = time.split_at(comma.ok_or(FormatError::Timestamp("time"))?);
    let hms = triple(hms, b':').ok_or(FormatError::Timestamp("time"))?;
    let millis = digits(&millis[1..]).ok_or(FormatError::Timestamp("time"))?;
    if millis > 999 {
        return Err(FormatError::Timestamp("range"));
    }
    let ts_ms = clock_ms(date, hms)? + millis;
    let mut rest = trim_start(rest);
    if rest.starts_with('[') {
        if let Some(end) = rest.bytes().position(|b| b == b']') {
            rest = trim_start(&rest[end + 1..]);
        }
    }
    record(ts_ms, level, rest, "source")
}

/// `19/06/22 10:00:00 INFO BlockManager: message` (log4j
/// `%d{yy/MM/dd HH:mm:ss} %p %c{1}: %m`).
fn parse_spark(line: &str) -> Result<RawRecord<'_>, FormatError> {
    let (date, time, level, rest) = log4j_header(line, 8, b'/')?;
    let hms = triple(time, b':').ok_or(FormatError::Timestamp("time"))?;
    let ts_ms = clock_ms(date, hms)?;
    record(ts_ms, level, rest, "source")
}

/// `081109 203615 148 INFO dfs.DataNode$PacketResponder: message`.
/// Date and time are fixed-width digit runs; the third field is the
/// log-line id (BGL) / pid, which the pipeline does not need.
fn parse_hdfs(line: &str) -> Result<RawRecord<'_>, FormatError> {
    let line = line.trim_end_matches(['\r', '\n']);
    if line.trim().is_empty() {
        return Err(FormatError::Empty);
    }
    let mut it = line.splitn(5, ' ');
    let date = it.next().ok_or(FormatError::Header("date"))?;
    let time = it.next().ok_or(FormatError::Header("time"))?;
    let id = it.next().ok_or(FormatError::Header("line id"))?;
    let level_tok = it.next().ok_or(FormatError::Header("level"))?;
    let rest = it.next().ok_or(FormatError::Header("body"))?;
    if date.len() != 6 {
        return Err(FormatError::Timestamp("date"));
    }
    let date = digits(date.as_bytes()).ok_or(FormatError::Timestamp("date"))?;
    if time.len() != 6 {
        return Err(FormatError::Timestamp("time"));
    }
    let time = digits(time.as_bytes()).ok_or(FormatError::Timestamp("time"))?;
    digits(id.as_bytes()).ok_or(FormatError::Header("line id"))?;
    let level = Level::parse(level_tok).ok_or(FormatError::Level)?;
    let ts_ms = clock_ms(
        (date / 10_000, (date / 100) % 100, date % 100),
        (time / 10_000, (time / 100) % 100, time % 100),
    )?;
    record(ts_ms, level, rest, "source")
}

/// Three-letter month → 0-based index.
#[inline]
fn month_index(m: &str) -> Option<u64> {
    Some(match m {
        "Jan" => 0,
        "Feb" => 1,
        "Mar" => 2,
        "Apr" => 3,
        "May" => 4,
        "Jun" => 5,
        "Jul" => 6,
        "Aug" => 7,
        "Sep" => 8,
        "Oct" => 9,
        "Nov" => 10,
        "Dec" => 11,
        _ => return None,
    })
}

/// `<34>Oct 11 22:14:15 mymachine su: 'su root' failed …` (RFC 3164).
/// Severity comes from the PRI field (`pri & 7`); the day may be
/// space-padded (`Jun  2`). The hostname is consumed but not kept —
/// localities live inside message bodies in this pipeline.
///
/// **Known limitation:** RFC-3164 timestamps carry no year, so `ts_ms`
/// encodes only month/day/time. Within one calendar year ordering is
/// correct, but a corpus spanning a Dec→Jan boundary wraps to a smaller
/// timestamp and inverts ordering across the boundary (the HDFS adapter
/// recovers the year from its `YYMMDD` date; syslog genuinely cannot).
/// Feed year-spanning syslog corpora in per-year segments, or use a
/// format that carries the year.
fn parse_syslog(line: &str) -> Result<RawRecord<'_>, FormatError> {
    let line = line.trim_end_matches(['\r', '\n']);
    if line.trim().is_empty() {
        return Err(FormatError::Empty);
    }
    let rest = line.strip_prefix('<').ok_or(FormatError::Header("PRI"))?;
    let (pri, rest) = rest.split_once('>').ok_or(FormatError::Header("PRI"))?;
    let pri = digits(pri.as_bytes()).ok_or(FormatError::Header("PRI"))?;
    if pri > 191 {
        return Err(FormatError::Header("PRI"));
    }
    let level = match pri % 8 {
        0..=3 => Level::Error,
        4 => Level::Warn,
        5 | 6 => Level::Info,
        _ => Level::Debug,
    };
    let (mon, rest) = rest.split_once(' ').ok_or(FormatError::Header("month"))?;
    let month = month_index(mon).ok_or(FormatError::Timestamp("month"))?;
    // space-padded day: "Jun  2" leaves a leading blank on the remainder
    let rest = rest.strip_prefix(' ').unwrap_or(rest);
    let (day, rest) = rest.split_once(' ').ok_or(FormatError::Header("day"))?;
    let day = digits(day.as_bytes()).ok_or(FormatError::Timestamp("day"))?;
    if day == 0 || day > 31 {
        return Err(FormatError::Timestamp("day"));
    }
    let (hms, rest) = rest.split_once(' ').ok_or(FormatError::Header("time"))?;
    let hms = triple(hms.as_bytes(), b':').ok_or(FormatError::Timestamp("time"))?;
    let ts_ms = clock_ms((0, month + 1, day), hms)?;
    // hostname, then `tag: message`
    let (_host, rest) = rest
        .split_once(' ')
        .ok_or(FormatError::MissingField("host"))?;
    record(ts_ms, level, rest, "tag")
}

/// Scan one JSON string value starting *after* its opening quote; returns
/// (inner slice, offset one past the closing quote). Escape sequences are
/// validated for balance but left **verbatim** in the slice — decoding
/// would allocate, and Spell treats the rare escaped byte pair as opaque
/// token text. It reads eight bytes at a time: a word with no `"` or `\` is
/// skipped whole, and otherwise its lowest flagged byte is the first one
/// (the zero-byte test's borrow only runs upward).
#[inline]
fn scan_json_string(s: &str) -> Result<(&str, usize), FormatError> {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    let flags = |w: u64, b: u8| {
        let x = w ^ (ONES * u64::from(b));
        x.wrapping_sub(ONES) & !x & (ONES << 7)
    };
    let bytes = s.as_bytes();
    let mut i = 0;
    loop {
        while let Some(word) = bytes[i..].first_chunk::<8>() {
            let w = u64::from_le_bytes(*word);
            let hits = flags(w, b'"') | flags(w, b'\\');
            if hits != 0 {
                i += hits.trailing_zeros() as usize / 8;
                break;
            }
            i += 8;
        }
        match bytes.get(i) {
            None => return Err(FormatError::Json("unterminated string")),
            Some(b'"') => return Ok((&s[..i], i + 1)),
            Some(b'\\') if i + 1 < bytes.len() => i += 2,
            Some(b'\\') => return Err(FormatError::Json("truncated escape")),
            Some(_) => i += 1,
        }
    }
}

/// Byte length of one scalar JSON value (number / true / false / null).
#[inline]
fn scan_json_scalar(s: &str) -> usize {
    s.bytes()
        .position(|b| matches!(b, b',' | b'}' | b' ' | b'\t'))
        .unwrap_or(s.len())
}

/// One flat JSON object per line: `{"ts":1234,"level":"INFO",
/// "source":"Saver","msg":"…"}`. `ts` is epoch milliseconds (numeric —
/// the only foreign format with millisecond fidelity); unknown scalar
/// fields are skipped; nested containers are rejected (structured log
/// lines are flat by convention, and skipping them would need a depth
/// stack on the hot path).
fn parse_json(line: &str) -> Result<RawRecord<'_>, FormatError> {
    let line = line.trim();
    if line.is_empty() {
        return Err(FormatError::Empty);
    }
    let mut rest = trim_start(
        line.strip_prefix('{')
            .ok_or(FormatError::Json("not an object"))?,
    );
    let mut ts: Option<u64> = None;
    let mut level: Option<Level> = None;
    let mut source: Option<&str> = None;
    let mut message: Option<&str> = None;
    loop {
        if let Some(tail) = rest.strip_prefix('}') {
            if !tail.trim().is_empty() {
                return Err(FormatError::Json("trailing bytes"));
            }
            break;
        }
        let body = rest
            .strip_prefix('"')
            .ok_or(FormatError::Json("expected key"))?;
        let (key, used) = scan_json_string(body)?;
        rest = trim_start(&body[used..]);
        rest = trim_start(
            rest.strip_prefix(':')
                .ok_or(FormatError::Json("expected ':'"))?,
        );
        if let Some(body) = rest.strip_prefix('"') {
            let (value, used) = scan_json_string(body)?;
            match key {
                "level" => level = Some(Level::parse(value).ok_or(FormatError::Level)?),
                "source" | "logger" => source = Some(value),
                "msg" | "message" => message = Some(value),
                _ => {}
            }
            rest = trim_start(&body[used..]);
        } else if rest.starts_with(['{', '[']) {
            return Err(FormatError::Json("nested container"));
        } else {
            let used = scan_json_scalar(rest);
            if used == 0 {
                return Err(FormatError::Json("empty value"));
            }
            if key == "ts" {
                ts = Some(digits(&rest.as_bytes()[..used]).ok_or(FormatError::Timestamp("ts"))?);
            }
            rest = trim_start(&rest[used..]);
        }
        if let Some(tail) = rest.strip_prefix(',') {
            rest = trim_start(tail);
        } else if !rest.starts_with('}') {
            return Err(FormatError::Json("expected ',' or '}'"));
        }
    }
    Ok(RawRecord {
        ts_ms: ts.ok_or(FormatError::MissingField("ts"))?,
        level: level.ok_or(FormatError::MissingField("level"))?,
        source: source.ok_or(FormatError::MissingField("source"))?,
        message: message.ok_or(FormatError::MissingField("msg"))?,
    })
}

// lint: ingest-hot(end)

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdfs_line() {
        let r = AdapterKind::Hdfs
            .parse_record(
                "081109 203615 148 INFO dfs.DataNode$PacketResponder: \
                 PacketResponder 1 for block blk_38865049064139660 terminating",
            )
            .unwrap();
        assert_eq!(r.level, Level::Info);
        assert_eq!(r.source, "dfs.DataNode$PacketResponder");
        assert!(r.message.starts_with("PacketResponder 1"));
    }

    #[test]
    fn hdfs_timestamps_order() {
        let a = AdapterKind::Hdfs
            .parse_record("081109 235959 1 INFO X: m")
            .unwrap();
        let b = AdapterKind::Hdfs
            .parse_record("081110 000000 1 INFO X: m")
            .unwrap();
        assert!(b.ts_ms > a.ts_ms);
    }

    #[test]
    fn hdfs_rejections_are_typed() {
        for (line, want) in [
            ("", FormatError::Empty),
            ("081109", FormatError::Header("time")),
            ("081109 203615 xx INFO X: m", FormatError::Header("line id")),
            ("0811 203615 148 INFO X: m", FormatError::Timestamp("date")),
            ("081109 203615 148 NOPE X: m", FormatError::Level),
            (
                "081109 203615 148 INFO no-colon",
                FormatError::MissingField("source"),
            ),
            (
                "081199 203615 148 INFO X: m",
                FormatError::Timestamp("range"),
            ),
        ] {
            assert_eq!(AdapterKind::Hdfs.parse_record(line), Err(want), "{line:?}");
        }
    }

    #[test]
    fn syslog_line() {
        let r = AdapterKind::Syslog
            .parse_record("<34>Oct 11 22:14:15 mymachine su: 'su root' failed for lonvick")
            .unwrap();
        assert_eq!(r.level, Level::Error); // severity 2 (critical)
        assert_eq!(r.source, "su");
        assert_eq!(r.message, "'su root' failed for lonvick");
    }

    #[test]
    fn syslog_space_padded_day_and_severities() {
        let r = AdapterKind::Syslog
            .parse_record("<134>Jun  2 01:02:03 host1 BlockManager: registered")
            .unwrap();
        assert_eq!(r.level, Level::Info);
        let w = AdapterKind::Syslog
            .parse_record("<132>Jun 12 01:02:03 host1 X: m")
            .unwrap();
        assert_eq!(w.level, Level::Warn);
        let d = AdapterKind::Syslog
            .parse_record("<135>Jun 12 01:02:03 host1 X: m")
            .unwrap();
        assert_eq!(d.level, Level::Debug);
    }

    #[test]
    fn syslog_rejections_are_typed() {
        for (line, want) in [
            ("   ", FormatError::Empty),
            ("no pri at all", FormatError::Header("PRI")),
            ("<999>Jun 2 01:02:03 h X: m", FormatError::Header("PRI")),
            ("<34>Nop 2 01:02:03 h X: m", FormatError::Timestamp("month")),
            ("<34>Jun 42 01:02:03 h X: m", FormatError::Timestamp("day")),
            ("<34>Jun 2 99:02:03 h X: m", FormatError::Timestamp("range")),
            (
                "<34>Jun 2 01:02:03 hostonly",
                FormatError::MissingField("host"),
            ),
            (
                "<34>Jun 2 01:02:03 h no-tag-colon",
                FormatError::MissingField("tag"),
            ),
        ] {
            assert_eq!(
                AdapterKind::Syslog.parse_record(line),
                Err(want),
                "{line:?}"
            );
        }
    }

    #[test]
    fn json_line_any_field_order() {
        let r = AdapterKind::Json
            .parse_record(r#"{"msg":"worker 2 finished step 10","ts":4321,"source":"learner","level":"INFO","extra":7}"#)
            .unwrap();
        assert_eq!(r.ts_ms, 4321);
        assert_eq!(r.level, Level::Info);
        assert_eq!(r.source, "learner");
        assert_eq!(r.message, "worker 2 finished step 10");
    }

    #[test]
    fn json_real_world_epoch_ms_roundtrips() {
        // Real epoch-ms timestamps have been 13 digits since 2001-09-09;
        // the digit cap must admit them (regression: a 12-digit cap made
        // every real-world JSON corpus unparseable).
        let r = AdapterKind::Json
            .parse_record(r#"{"ts":1754600000123,"level":"INFO","source":"X","msg":"m"}"#)
            .unwrap();
        assert_eq!(r.ts_ms, 1_754_600_000_123);
        // The largest 19-digit value still parses …
        let max = r#"{"ts":9999999999999999999,"level":"INFO","source":"X","msg":"m"}"#;
        assert_eq!(
            AdapterKind::Json.parse_record(max).unwrap().ts_ms,
            9_999_999_999_999_999_999
        );
        // … while 20-digit inputs (u64::MAX territory) are rejected, not
        // wrapped.
        for ts in ["18446744073709551615", "99999999999999999999"] {
            let line = format!(r#"{{"ts":{ts},"level":"INFO","source":"X","msg":"m"}}"#);
            assert_eq!(
                AdapterKind::Json.parse_record(&line),
                Err(FormatError::Timestamp("ts")),
                "{ts}"
            );
        }
    }

    #[test]
    fn json_escapes_stay_verbatim() {
        let r = AdapterKind::Json
            .parse_record(r#"{"ts":1,"level":"WARN","source":"X","msg":"path \"/tmp\\x\" gone"}"#)
            .unwrap();
        assert_eq!(r.message, r#"path \"/tmp\\x\" gone"#);
    }

    #[test]
    fn json_rejections_are_typed() {
        use FormatError::*;
        for (line, want) in [
            ("", Empty),
            ("not json", Json("not an object")),
            (
                r#"{"ts":1,"level":"INFO","source":"X""#,
                Json("expected ',' or '}'"),
            ),
            (r#"{"msg":"truncat"#, Json("unterminated string")),
            (r#"{"msg":"bad \"#, Json("truncated escape")),
            (r#"{"nested":{"a":1}}"#, Json("nested container")),
            (
                r#"{"ts":1,"level":"INFO","source":"X","msg":"m"} tail"#,
                Json("trailing bytes"),
            ),
            (
                r#"{"ts":1,"level":"INFO","msg":"m"}"#,
                MissingField("source"),
            ),
            (
                r#"{"level":"INFO","source":"X","msg":"m"}"#,
                MissingField("ts"),
            ),
            (
                r#"{"ts":9e9,"level":"INFO","source":"X","msg":"m"}"#,
                Timestamp("ts"),
            ),
            (r#"{"ts":1,"level":"LOUD","source":"X","msg":"m"}"#, Level),
        ] {
            assert_eq!(AdapterKind::Json.parse_record(line), Err(want), "{line:?}");
        }
    }

    #[test]
    fn kind_name_roundtrip() {
        for kind in AdapterKind::ALL {
            assert_eq!(AdapterKind::parse(kind.name()), Some(kind));
        }
        let names = AdapterKind::ALL.map(AdapterKind::name);
        assert_eq!(names, ["hadoop", "spark", "hdfs", "syslog", "json"]);
        assert_eq!(AdapterKind::parse("native"), None);
    }

    #[test]
    fn level_roundtrip() {
        for s in ["TRACE", "DEBUG", "INFO", "WARN", "ERROR", "FATAL"] {
            assert_eq!(Level::parse(s).unwrap().as_str(), s);
        }
        assert_eq!(Level::parse("WARNING"), Some(Level::Warn));
        assert_eq!(Level::parse("NOPE"), None);
    }

    /// Lines in the public log4j layouts Hadoop (`%d{ISO8601} %p [%t] %c: %m`)
    /// and Spark (`%d{yy/MM/dd HH:mm:ss} %p %c{1}: %m`) ship with: the exact
    /// `source` / `message` spans, or the typed rejection.
    #[test]
    fn log4j_layout_fixtures() {
        type Want = Result<(Level, &'static str, &'static str), FormatError>;
        let cases: [(AdapterKind, &str, Want); 14] = [
            (
                AdapterKind::Hadoop,
                "2019-06-22 10:00:01,123 INFO [fetcher#1] org.apache.hadoop.mapreduce.task.reduce.Fetcher: fetcher # 1 about to shuffle output of map attempt_01",
                Ok((
                    Level::Info,
                    "org.apache.hadoop.mapreduce.task.reduce.Fetcher",
                    "fetcher # 1 about to shuffle output of map attempt_01",
                )),
            ),
            (
                AdapterKind::Hadoop,
                "2019-06-22 10:00:01,123 WARN org.apache.hadoop.yarn.NodeManager: Container killed on request",
                Ok((
                    Level::Warn,
                    "org.apache.hadoop.yarn.NodeManager",
                    "Container killed on request",
                )),
            ),
            // thread names contain spaces
            (
                AdapterKind::Hadoop,
                "2015-10-18 18:01:47,978 INFO [IPC Server handler 3 on 8020] org.apache.hadoop.ipc.Server: IPC Server handler 3 on 8020: starting",
                Ok((
                    Level::Info,
                    "org.apache.hadoop.ipc.Server",
                    "IPC Server handler 3 on 8020: starting",
                )),
            ),
            // `%-5p` pads the level; `$` names an inner class
            (
                AdapterKind::Hadoop,
                "2015-10-18 18:01:50,353 INFO  [main] org.apache.hadoop.hdfs.server.datanode.DataNode$DataTransfer: Transmitted blk_1 to /10.0.0.2:50010",
                Ok((
                    Level::Info,
                    "org.apache.hadoop.hdfs.server.datanode.DataNode$DataTransfer",
                    "Transmitted blk_1 to /10.0.0.2:50010",
                )),
            ),
            // the first `": "` ends the source; later ones stay in the message
            (
                AdapterKind::Spark,
                "17/06/09 20:10:46 INFO storage.BlockManager: Found block rdd_2_0 locally: size: 16.0 B",
                Ok((
                    Level::Info,
                    "storage.BlockManager",
                    "Found block rdd_2_0 locally: size: 16.0 B",
                )),
            ),
            (
                AdapterKind::Spark,
                "17/06/09 20:10:40 ERROR executor.CoarseGrainedExecutorBackend$: RECEIVED SIGNAL 15: SIGTERM\r\n",
                Ok((
                    Level::Error,
                    "executor.CoarseGrainedExecutorBackend$",
                    "RECEIVED SIGNAL 15: SIGTERM",
                )),
            ),
            // empty body: accepted with the separator, rejected without it
            (
                AdapterKind::Spark,
                "17/06/09 20:10:40 INFO Executor: ",
                Ok((Level::Info, "Executor", "")),
            ),
            (
                AdapterKind::Spark,
                "17/06/09 20:10:40 INFO Executor:",
                Err(FormatError::MissingField("source")),
            ),
            (
                AdapterKind::Hadoop,
                "2015-10-18 18:01:47,978 INFO [main] no separator here",
                Err(FormatError::MissingField("source")),
            ),
            // stack-trace continuations
            (
                AdapterKind::Hadoop,
                "\tat org.apache.hadoop.ipc.Client.call(Client.java:1476)",
                Err(FormatError::Header("level")),
            ),
            (
                AdapterKind::Hadoop,
                "java.net.ConnectException: Connection refused; For more details see:  http://wiki.apache.org/hadoop/ConnectionRefused",
                Err(FormatError::Timestamp("date")),
            ),
            (
                AdapterKind::Spark,
                "java.io.IOException: Connection refused",
                Err(FormatError::Header("body")),
            ),
            (
                AdapterKind::Spark,
                "17/06/09 20:10:40 LOUD Executor: m",
                Err(FormatError::Level),
            ),
            (AdapterKind::Hadoop, "\r\n", Err(FormatError::Empty)),
        ];
        for (kind, line, want) in cases {
            let got = kind
                .parse_record(line)
                .map(|r| (r.level, r.source, r.message));
            assert_eq!(got, want, "{} {line:?}", kind.name());
        }
    }

    /// Every line the tests in this module hand an adapter.
    const FIXTURES: &[&str] = &[
        "081109 203615 148 INFO dfs.DataNode$PacketResponder: PacketResponder 1 for block blk_38865049064139660 terminating",
        "081109 235959 1 INFO X: m",
        "081110 000000 1 INFO X: m",
        "",
        "081109",
        "081109 203615 xx INFO X: m",
        "0811 203615 148 INFO X: m",
        "081109 203615 148 NOPE X: m",
        "081109 203615 148 INFO no-colon",
        "081199 203615 148 INFO X: m",
        "<34>Oct 11 22:14:15 mymachine su: 'su root' failed for lonvick",
        "<134>Jun  2 01:02:03 host1 BlockManager: registered",
        "<132>Jun 12 01:02:03 host1 X: m",
        "<135>Jun 12 01:02:03 host1 X: m",
        "   ",
        "no pri at all",
        "<999>Jun 2 01:02:03 h X: m",
        "<34>Nop 2 01:02:03 h X: m",
        "<34>Jun 42 01:02:03 h X: m",
        "<34>Jun 2 99:02:03 h X: m",
        "<34>Jun 2 01:02:03 hostonly",
        "<34>Jun 2 01:02:03 h no-tag-colon",
        r#"{"msg":"worker 2 finished step 10","ts":4321,"source":"learner","level":"INFO","extra":7}"#,
        r#"{"ts":1754600000123,"level":"INFO","source":"X","msg":"m"}"#,
        r#"{"ts":9999999999999999999,"level":"INFO","source":"X","msg":"m"}"#,
        r#"{"ts":18446744073709551615,"level":"INFO","source":"X","msg":"m"}"#,
        r#"{"ts":99999999999999999999,"level":"INFO","source":"X","msg":"m"}"#,
        r#"{"ts":1,"level":"WARN","source":"X","msg":"path \"/tmp\\x\" gone"}"#,
        "not json",
        r#"{"ts":1,"level":"INFO","source":"X""#,
        r#"{"msg":"truncat"#,
        r#"{"msg":"bad \"#,
        r#"{"nested":{"a":1}}"#,
        r#"{"ts":1,"level":"INFO","source":"X","msg":"m"} tail"#,
        r#"{"ts":1,"level":"INFO","msg":"m"}"#,
        r#"{"level":"INFO","source":"X","msg":"m"}"#,
        r#"{"ts":9e9,"level":"INFO","source":"X","msg":"m"}"#,
        r#"{"ts":1,"level":"LOUD","source":"X","msg":"m"}"#,
        "2019-06-22 10:00:01,123 INFO [fetcher#1] org.apache.hadoop.mapreduce.task.reduce.Fetcher: fetcher # 1 about to shuffle output of map attempt_01",
        "2019-06-22 10:00:01,123 WARN org.apache.hadoop.yarn.NodeManager: Container killed on request",
        "2015-10-18 18:01:47,978 INFO [IPC Server handler 3 on 8020] org.apache.hadoop.ipc.Server: IPC Server handler 3 on 8020: starting",
        "2015-10-18 18:01:50,353 INFO  [main] org.apache.hadoop.hdfs.server.datanode.DataNode$DataTransfer: Transmitted blk_1 to /10.0.0.2:50010",
        "17/06/09 20:10:46 INFO storage.BlockManager: Found block rdd_2_0 locally: size: 16.0 B",
        "17/06/09 20:10:40 ERROR executor.CoarseGrainedExecutorBackend$: RECEIVED SIGNAL 15: SIGTERM\r\n",
        "17/06/09 20:10:40 INFO Executor: ",
        "17/06/09 20:10:40 INFO Executor:",
        "2015-10-18 18:01:47,978 INFO [main] no separator here",
        "\tat org.apache.hadoop.ipc.Client.call(Client.java:1476)",
        "java.net.ConnectException: Connection refused; For more details see:  http://wiki.apache.org/hadoop/ConnectionRefused",
        "java.io.IOException: Connection refused",
        "17/06/09 20:10:40 LOUD Executor: m",
        "\r\n",
        "2019-06-22 23:59:59,998 INFO X: m",
        "2019-06-22 23:59:59,999 INFO X: m",
        "2019-06-23 00:00:00,000 INFO X: m",
        "2019-06-30 23:59:59,999 INFO X: m",
        "2019-07-01 00:00:00,000 INFO X: m",
        "2019-12-31 23:59:59,999 INFO X: m",
        "2020-01-01 00:00:00,000 INFO X: m",
        "19/06/22 23:59:58 INFO X: m",
        "19/06/22 23:59:59 INFO X: m",
        "19/06/23 00:00:00 INFO X: m",
        "19/06/30 23:59:59 INFO X: m",
        "19/07/01 00:00:00 INFO X: m",
        "19/12/31 23:59:59 INFO X: m",
        "20/01/01 00:00:00 INFO X: m",
        "2019-06-22 99:99:99,000 INFO X: m",
        "2019-13-22 10:00:00,000 INFO X: m",
        "2019-06-22 10:00:00,1000 INFO X: m",
        "2019-06-22 10:00:00 INFO X: m",
        "2019-06-2x 10:00:00,000 INFO X: m",
        "19/06/22 99:99:99 INFO X: m",
        "19/06/32 10:00:00 INFO X: m",
        "19/06/22 10:00 INFO X: m",
        "2019/06/22 10:00:00 INFO X: m",
    ];

    /// The byte scanners answer exactly what the parsers they replaced
    /// answer (`oracle`), record for record and error for error, in every
    /// syntax: on each fixture line, on every prefix of it (a partial write)
    /// and on every line one character away from it.
    #[test]
    fn scanners_equal_the_oracle_around_every_fixture() {
        let swaps = [
            ' ', '\r', '\n', '\t', ':', ',', '/', '-', '[', ']', '"', '\\', '0', '9', 'é',
        ];
        let mut checked = 0usize;
        let mut check = |line: &str| {
            for kind in AdapterKind::ALL {
                assert_eq!(
                    kind.parse_record(line),
                    oracle::parse_record(kind, line),
                    "{} {line:?}",
                    kind.name()
                );
            }
            checked += 1;
        };
        for fixture in FIXTURES {
            check(fixture);
            for (at, c) in fixture.char_indices() {
                check(&fixture[..at]);
                for swap in swaps {
                    let after = &fixture[at + c.len_utf8()..];
                    check(&format!("{}{swap}{after}", &fixture[..at]));
                }
            }
        }
        assert!(checked > 40_000, "{checked}");
    }

    #[test]
    fn log4j_timestamps_order_across_day_month_and_year() {
        let ts = |kind: AdapterKind, stamp: &str| {
            kind.parse_record(&format!("{stamp} INFO X: m"))
                .unwrap_or_else(|e| panic!("{stamp}: {e}"))
                .ts_ms
        };
        for (kind, ordered) in [
            (
                AdapterKind::Hadoop,
                [
                    "2019-06-22 23:59:59,998",
                    "2019-06-22 23:59:59,999",
                    "2019-06-23 00:00:00,000",
                    "2019-06-30 23:59:59,999",
                    "2019-07-01 00:00:00,000",
                    "2019-12-31 23:59:59,999",
                    "2020-01-01 00:00:00,000",
                ],
            ),
            (
                AdapterKind::Spark,
                [
                    "19/06/22 23:59:58",
                    "19/06/22 23:59:59",
                    "19/06/23 00:00:00",
                    "19/06/30 23:59:59",
                    "19/07/01 00:00:00",
                    "19/12/31 23:59:59",
                    "20/01/01 00:00:00",
                ],
            ),
        ] {
            let stamps = ordered.map(|s| ts(kind, s));
            assert!(
                stamps.windows(2).all(|w| w[0] < w[1]),
                "{}: {stamps:?}",
                kind.name()
            );
        }
    }

    #[test]
    fn log4j_timestamp_rejections_are_typed() {
        use FormatError::Timestamp;
        for (kind, line, want) in [
            (
                AdapterKind::Hadoop,
                "2019-06-22 99:99:99,000 INFO X: m",
                Timestamp("range"),
            ),
            (
                AdapterKind::Hadoop,
                "2019-13-22 10:00:00,000 INFO X: m",
                Timestamp("range"),
            ),
            (
                AdapterKind::Hadoop,
                "2019-06-22 10:00:00,1000 INFO X: m",
                Timestamp("range"),
            ),
            (
                AdapterKind::Hadoop,
                "2019-06-22 10:00:00 INFO X: m",
                Timestamp("time"),
            ),
            (
                AdapterKind::Hadoop,
                "2019-06-2x 10:00:00,000 INFO X: m",
                Timestamp("date"),
            ),
            (
                AdapterKind::Spark,
                "19/06/22 99:99:99 INFO X: m",
                Timestamp("range"),
            ),
            (
                AdapterKind::Spark,
                "19/06/32 10:00:00 INFO X: m",
                Timestamp("range"),
            ),
            (
                AdapterKind::Spark,
                "19/06/22 10:00 INFO X: m",
                Timestamp("time"),
            ),
            (
                AdapterKind::Spark,
                "2019/06/22 10:00:00 INFO X: m",
                Timestamp("date"),
            ),
        ] {
            assert_eq!(
                kind.parse_record(line),
                Err(want),
                "{} {line:?}",
                kind.name()
            );
        }
    }
}
