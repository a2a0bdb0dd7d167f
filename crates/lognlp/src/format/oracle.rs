//! The line parsers as they were before the adapters scanned bytes: the
//! oracle the byte-level scanners in `format.rs` are proven equal to, `Result`
//! for `Result` (record, or the `FormatError` variant with its payload).
//! Compiled only into tests: `format.rs`'s unit tests declare it as a
//! module, and `tests/format_props.rs` includes this file by path, so every
//! property strategy runs through both. Keep it as it is; it is the
//! specification of what the production parsers accept.

use super::{AdapterKind, FormatError, Level, RawRecord};

/// [`AdapterKind::parse_record`] as the oracle answers it.
pub fn parse_record(kind: AdapterKind, line: &str) -> Result<RawRecord<'_>, FormatError> {
    match kind {
        AdapterKind::Hadoop => parse_hadoop(line),
        AdapterKind::Spark => parse_spark(line),
        AdapterKind::Hdfs => parse_hdfs(line),
        AdapterKind::Syslog => parse_syslog(line),
        AdapterKind::Json => parse_json(line),
    }
}

/// Decimal field (`"190622"` → 190622). Rejects empty input, non-ASCII-digit
/// bytes and anything that could overflow `u64`: the cap of 19 digits keeps
/// every accepted value below u64::MAX (which has 20 digits), and the
/// checked fold is belt-and-braces against a future cap change. The cap
/// comfortably admits the 13-digit epoch-millisecond timestamps real JSON
/// corpora carry.
#[inline]
fn parse_digits(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 19 {
        return None;
    }
    let mut v: u64 = 0;
    for b in s.bytes() {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_add((b - b'0') as u64)?;
    }
    Some(v)
}

/// A date (year, month, day) or a wall clock (hour, minute, second).
type Triple = (u64, u64, u64);

/// Three decimal fields joined by `sep`: `2019-06-22`, `19/06/22`,
/// `10:00:01`.
#[inline]
fn parse_triple(s: &str, sep: char) -> Option<Triple> {
    let mut it = s.splitn(3, sep);
    Some((
        parse_digits(it.next()?)?,
        parse_digits(it.next()?)?,
        parse_digits(it.next()?)?,
    ))
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

/// The `source: message` body every header-style syntax ends in; `field`
/// names the source part in the rejection.
#[inline]
fn record<'a>(
    ts_ms: u64,
    level: Level,
    body: &'a str,
    field: &'static str,
) -> Result<RawRecord<'a>, FormatError> {
    let (source, message) = body
        .split_once(": ")
        .ok_or(FormatError::MissingField(field))?;
    Ok(RawRecord {
        ts_ms,
        level,
        source,
        message,
    })
}

/// The header both log4j layouts share — `DATE TIME LEVEL rest`, the date
/// `date_len` bytes of three `sep`-joined decimal fields — split into
/// (date triple, time field, level, rest).
#[inline]
fn log4j_header(
    line: &str,
    date_len: usize,
    sep: char,
) -> Result<(Triple, &str, Level, &str), FormatError> {
    let line = line.trim_end_matches(['\r', '\n']);
    if line.trim().is_empty() {
        return Err(FormatError::Empty);
    }
    let mut it = line.splitn(4, ' ');
    let date = it.next().ok_or(FormatError::Header("date"))?;
    let time = it.next().ok_or(FormatError::Header("time"))?;
    let level = it.next().ok_or(FormatError::Header("level"))?;
    let rest = it.next().ok_or(FormatError::Header("body"))?;
    if date.len() != date_len {
        return Err(FormatError::Timestamp("date"));
    }
    let date = parse_triple(date, sep).ok_or(FormatError::Timestamp("date"))?;
    let level = Level::parse(level).ok_or(FormatError::Level)?;
    Ok((date, time, level, rest))
}

/// `2019-06-22 10:00:00,123 INFO [fetcher#1] org.apache.hadoop.X: message`
/// (log4j `%d{ISO8601} %p [%t] %c: %m`). The `[thread]` part is optional
/// and may contain spaces; stack-trace continuation lines fail the
/// header and are rejected.
fn parse_hadoop(line: &str) -> Result<RawRecord<'_>, FormatError> {
    let (date, time, level, rest) = log4j_header(line, 10, '-')?;
    let (hms, millis) = time.split_once(',').ok_or(FormatError::Timestamp("time"))?;
    let hms = parse_triple(hms, ':').ok_or(FormatError::Timestamp("time"))?;
    let millis = parse_digits(millis).ok_or(FormatError::Timestamp("time"))?;
    if millis > 999 {
        return Err(FormatError::Timestamp("range"));
    }
    let ts_ms = clock_ms(date, hms)? + millis;
    let mut rest = rest.trim_start();
    if rest.starts_with('[') {
        if let Some(end) = rest.find(']') {
            rest = rest[end + 1..].trim_start();
        }
    }
    record(ts_ms, level, rest, "source")
}

/// `19/06/22 10:00:00 INFO BlockManager: message` (log4j
/// `%d{yy/MM/dd HH:mm:ss} %p %c{1}: %m`).
fn parse_spark(line: &str) -> Result<RawRecord<'_>, FormatError> {
    let (date, time, level, rest) = log4j_header(line, 8, '/')?;
    let hms = parse_triple(time, ':').ok_or(FormatError::Timestamp("time"))?;
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
    let date = parse_digits(date).ok_or(FormatError::Timestamp("date"))?;
    if time.len() != 6 {
        return Err(FormatError::Timestamp("time"));
    }
    let time = parse_digits(time).ok_or(FormatError::Timestamp("time"))?;
    parse_digits(id).ok_or(FormatError::Header("line id"))?;
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
    let pri = parse_digits(pri).ok_or(FormatError::Header("PRI"))?;
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
    let day = parse_digits(day).ok_or(FormatError::Timestamp("day"))?;
    if day == 0 || day > 31 {
        return Err(FormatError::Timestamp("day"));
    }
    let (hms, rest) = rest.split_once(' ').ok_or(FormatError::Header("time"))?;
    let hms = parse_triple(hms, ':').ok_or(FormatError::Timestamp("time"))?;
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
/// token text.
#[inline]
fn scan_json_string(s: &str) -> Result<(&str, usize), FormatError> {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Ok((&s[..i], i + 1)),
            b'\\' => {
                if i + 1 >= bytes.len() {
                    return Err(FormatError::Json("truncated escape"));
                }
                i += 2;
            }
            _ => i += 1,
        }
    }
    Err(FormatError::Json("unterminated string"))
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
    let mut rest = line
        .strip_prefix('{')
        .ok_or(FormatError::Json("not an object"))?
        .trim_start();
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
        rest = body[used..].trim_start();
        rest = rest
            .strip_prefix(':')
            .ok_or(FormatError::Json("expected ':'"))?
            .trim_start();
        if let Some(body) = rest.strip_prefix('"') {
            let (value, used) = scan_json_string(body)?;
            match key {
                "level" => level = Some(Level::parse(value).ok_or(FormatError::Level)?),
                "source" | "logger" => source = Some(value),
                "msg" | "message" => message = Some(value),
                _ => {}
            }
            rest = body[used..].trim_start();
        } else if rest.starts_with(['{', '[']) {
            return Err(FormatError::Json("nested container"));
        } else {
            let used = scan_json_scalar(rest);
            if used == 0 {
                return Err(FormatError::Json("empty value"));
            }
            if key == "ts" {
                ts = Some(parse_digits(&rest[..used]).ok_or(FormatError::Timestamp("ts"))?);
            }
            rest = rest[used..].trim_start();
        }
        if let Some(tail) = rest.strip_prefix(',') {
            rest = tail.trim_start();
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
