//! Per-connection protocol state: read/write buffers and the line-framed
//! state machine's bookkeeping. No I/O here — the poll core moves bytes,
//! this module owns what they mean.
//!
//! Framing is by cursor. Socket reads land directly in the receive buffer
//! ([`Conn::read_space`]); [`Conn::next_line`] *peeks* the complete line at
//! the cursor as a borrowed `&str` (a line that is not valid UTF-8 is
//! decoded lossily into an owned one) and [`Conn::advance`] moves the
//! cursor past it once the gateway has dealt with it — so a line whose
//! shard queue is full, or whose session a rebalance is moving, simply
//! stays where it is and is read again next sweep. Consumed bytes are
//! reclaimed once per sweep, when the buffer is next offered to the
//! socket, not once per line.

use crate::TenantEntry;
use std::borrow::Cow;
use sync::Arc;

/// Cap on buffered-but-unsent reply bytes before the connection is
/// declared stuck and dropped (a client must drain what it asked for).
pub const MAX_WRITE_BUFFER: usize = 64 << 20;

/// Cap on received-but-unparsed request bytes (one protocol line can
/// never legitimately approach this).
pub const MAX_READ_BUFFER: usize = 8 << 20;

/// Most bytes taken off one socket per sweep, so one firehose connection
/// cannot starve the others.
pub const READ_QUANTUM: usize = 64 << 10;

/// Read space offered to a fresh connection; doubles up to
/// [`READ_QUANTUM`] while reads keep filling it, so a control connection
/// stays small and a firehose needs one read per sweep.
const MIN_READ_SPACE: usize = 4 << 10;

/// One connection's protocol state.
pub struct Conn {
    /// Poll token (slot index; may be reused after close).
    pub token: usize,
    /// Generation id pairing async replies (LOAD) with *this* connection,
    /// not a later one that reused the token.
    pub id: u64,
    /// Receive storage, always initialised; `rbuf[rpos..rend]` holds the
    /// received bytes not yet parsed into lines.
    rbuf: Vec<u8>,
    rpos: usize,
    rend: usize,
    /// How much space the next read is offered.
    offer: usize,
    /// Reply bytes not yet accepted by the socket.
    pub wbuf: Vec<u8>,
    /// How much of `wbuf` is already written.
    pub wpos: usize,
    /// The tenant this connection's data verbs route to (`TENANT` verb);
    /// `None` falls back to the gateway's default tenant.
    pub tenant: Option<Arc<TenantEntry>>,
    /// The router did not take the line at the cursor: its shard queue is
    /// full, or a rebalance in flight is moving its session.
    /// While set, nothing more is read from this connection — its socket
    /// fills and TCP flow control pushes back on the client — and the
    /// line is tried again every sweep; whatever it waits for (queue room,
    /// the rebalance's acks) wakes the loop for that sweep.
    pub blocked: bool,
    /// A `LOAD` running in the background for this connection. While set,
    /// no further input is parsed, so replies stay in request order.
    pub awaiting_load: bool,
    /// The peer closed its write side. Buffered input keeps being parsed;
    /// the connection is dropped once every complete line is consumed.
    pub eof: bool,
    /// Close once `wbuf` drains (e.g. after a fatal protocol reply).
    pub closing: bool,
}

impl Conn {
    /// Fresh state for an accepted socket.
    pub fn new(token: usize, id: u64) -> Conn {
        Conn {
            token,
            id,
            rbuf: Vec::new(),
            rpos: 0,
            rend: 0,
            offer: MIN_READ_SPACE,
            wbuf: Vec::new(),
            wpos: 0,
            tenant: None,
            blocked: false,
            awaiting_load: false,
            eof: false,
            closing: false,
        }
    }

    /// Where the next socket read lands: the free tail of the receive
    /// buffer, after moving the unparsed bytes to its front (the one
    /// compaction per sweep) and growing it if need be.
    pub fn read_space(&mut self) -> &mut [u8] {
        if self.rpos > 0 {
            self.rbuf.copy_within(self.rpos..self.rend, 0);
            self.rend -= self.rpos;
            self.rpos = 0;
        }
        let end = self.rend + self.offer;
        if self.rbuf.len() < end {
            self.rbuf.resize(end, 0);
        }
        &mut self.rbuf[self.rend..end]
    }

    /// Record that the last read put `n` bytes into [`Conn::read_space`].
    pub fn received(&mut self, n: usize) {
        self.rend += n;
        if n == self.offer {
            self.offer = (self.offer * 2).min(READ_QUANTUM);
        }
    }

    /// Received bytes not yet consumed as lines.
    pub fn unparsed(&self) -> usize {
        self.rend - self.rpos
    }

    /// The complete line at the cursor (without its `\n`; a trailing `\r`
    /// is stripped) and the cursor position behind it — hand that to
    /// [`Conn::advance`] to consume the line (before the next
    /// [`Conn::read_space`], which moves the bytes). `None` when no full
    /// line is buffered.
    pub fn next_line(&self) -> Option<(Cow<'_, str>, usize)> {
        let unparsed = &self.rbuf[self.rpos..self.rend];
        let nl = unparsed.iter().position(|&b| b == b'\n')?;
        let line = &unparsed[..nl];
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        Some((String::from_utf8_lossy(line), self.rpos + nl + 1))
    }

    /// Whether any complete (newline-terminated) line is buffered.
    pub fn has_full_line(&self) -> bool {
        self.rbuf[self.rpos..self.rend].contains(&b'\n')
    }

    /// Move the cursor to `to`, a position [`Conn::next_line`] returned.
    pub fn advance(&mut self, to: usize) {
        debug_assert!(self.rpos <= to && to <= self.rend);
        self.rpos = to;
    }

    /// Whether input parsing is paused for an in-flight async reply or a
    /// pending close (a held-back line does not pause parsing: it is
    /// retried).
    pub fn paused(&self) -> bool {
        self.awaiting_load || self.closing
    }

    /// Whether the sweep reads this connection's socket — and therefore
    /// whether the loop's sleep watches it for readability. One predicate
    /// for both: a socket watched but not read would end every sleep at
    /// once and be left as it was (a busy spin), so it stays out while a
    /// line is held back (`blocked`), while parsing is paused, and for good
    /// once the peer has closed its side (`eof`: a half-closed socket reads
    /// as ready for ever).
    pub fn reading(&self) -> bool {
        !(self.blocked || self.paused() || self.eof)
    }

    /// Queue reply bytes (actual socket writes happen in the sweep).
    pub fn reply(&mut self, text: &str) {
        self.wbuf.extend_from_slice(text.as_bytes());
    }

    /// Unsent reply bytes.
    pub fn unsent(&self) -> &[u8] {
        &self.wbuf[self.wpos..]
    }

    /// Record that `n` more bytes of `wbuf` reached the socket, compacting
    /// once everything is out.
    pub fn advance_write(&mut self, n: usize) {
        self.wpos += n;
        if self.wpos >= self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a socket read does: copy as much of `bytes` as fits.
    fn receive(c: &mut Conn, bytes: &[u8]) -> usize {
        let space = c.read_space();
        let n = space.len().min(bytes.len());
        space[..n].copy_from_slice(&bytes[..n]);
        c.received(n);
        n
    }

    fn take_line(c: &mut Conn) -> Option<String> {
        let (line, next) = c.next_line()?;
        let line = line.into_owned();
        c.advance(next);
        Some(line)
    }

    #[test]
    fn line_framing_handles_partials_and_crlf() {
        let mut c = Conn::new(0, 1);
        receive(&mut c, b"PING\r\nSTA");
        assert_eq!(take_line(&mut c).as_deref(), Some("PING"));
        assert_eq!(take_line(&mut c), None, "partial line stays buffered");
        receive(&mut c, b"TS\n\n");
        assert_eq!(take_line(&mut c).as_deref(), Some("STATS"));
        assert_eq!(
            take_line(&mut c).as_deref(),
            Some(""),
            "empty line surfaces"
        );
        assert_eq!(take_line(&mut c), None);
        assert_eq!(c.unparsed(), 0);
    }

    #[test]
    fn a_peeked_line_stays_until_advanced() {
        let mut c = Conn::new(0, 1);
        receive(&mut c, b"PING\nEND\ts1\nPING\n");
        assert_eq!(take_line(&mut c).as_deref(), Some("PING"));
        assert_eq!(c.next_line().unwrap().0, "END\ts1");
        // a blocked line is simply read again, also across a compaction
        receive(&mut c, b"STATS\n");
        assert_eq!(take_line(&mut c).as_deref(), Some("END\ts1"));
        assert_eq!(take_line(&mut c).as_deref(), Some("PING"));
        assert_eq!(take_line(&mut c).as_deref(), Some("STATS"));
        assert_eq!(take_line(&mut c), None);
    }

    #[test]
    fn read_space_grows_with_demand_up_to_the_quantum() {
        let mut c = Conn::new(0, 1);
        assert_eq!(c.read_space().len(), MIN_READ_SPACE);
        let firehose = vec![b'x'; 4 * READ_QUANTUM];
        let mut sent = 0;
        while sent < firehose.len() {
            sent += receive(&mut c, &firehose[sent..]);
            assert!(c.read_space().len() <= READ_QUANTUM);
        }
        assert_eq!(c.read_space().len(), READ_QUANTUM);
        assert_eq!(
            c.unparsed(),
            firehose.len(),
            "a long partial line is kept whole"
        );
        assert_eq!(c.next_line(), None);
    }

    #[test]
    fn write_buffer_compacts_when_drained() {
        let mut c = Conn::new(0, 1);
        c.reply("OK 0\n");
        assert_eq!(c.unsent(), b"OK 0\n");
        c.advance_write(2);
        assert_eq!(c.unsent(), b" 0\n");
        c.advance_write(3);
        assert!(c.wbuf.is_empty() && c.wpos == 0);
    }
}

#[cfg(test)]
mod framing_props {
    //! The cursor framing of [`Conn`] against its specification: however a
    //! byte stream is cut into socket reads — mid-line, between `\r` and `\n`,
    //! inside a multi-byte UTF-8 sequence — and whenever the gateway happens to
    //! consume lines, the connection yields exactly the stream's
    //! newline-terminated segments, each with one trailing `\r` stripped and
    //! decoded lossily; a final segment with no newline stays buffered.

    use super::Conn;
    use proptest::prelude::*;

    /// What the framing must yield for `stream`.
    fn specified_lines(stream: &[u8]) -> Vec<String> {
        let mut segments: Vec<&[u8]> = stream.split(|&b| b == b'\n').collect();
        segments.pop(); // the part behind the last newline is not a line yet
        segments
            .into_iter()
            .map(|s| String::from_utf8_lossy(s.strip_suffix(b"\r").unwrap_or(s)).into_owned())
            .collect()
    }

    /// Pieces a stream is assembled from: the framing's own metacharacters,
    /// protocol-shaped text, multi-byte characters and invalid UTF-8.
    fn piece() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            Just(b"\n".to_vec()),
            Just(b"\n".to_vec()),
            Just(b"\r\n".to_vec()),
            Just(b"\r".to_vec()),
            Just(b"\t".to_vec()),
            Just(b"LOG\ts1\t7\tINFO\tX\t".to_vec()),
            Just("task 7 done \u{e9}\u{6f22}\u{1f980}".as_bytes().to_vec()),
            Just(vec![0xff]),
            Just(vec![0xc3]),       // a two-byte sequence cut short
            Just(vec![0xe6, 0xbc]), // a three-byte sequence cut short
            "[a-zA-Z0-9 =:/_.-]{0,40}".prop_map(String::into_bytes),
        ]
    }

    /// Feed `stream` in reads of the given sizes (cycled), pulling lines after
    /// each read as `pulls` says: `u8::MAX` = every complete line, anything
    /// else = at most that many (the rest waits, like a line whose shard queue
    /// is full). Everything still buffered is pulled at the end.
    fn framed(stream: &[u8], reads: &[usize], pulls: &[u8]) -> (Vec<String>, usize) {
        let mut conn = Conn::new(0, 1);
        let mut lines = Vec::new();
        let mut pull = |conn: &mut Conn, at_most: usize| {
            for _ in 0..at_most {
                let Some((line, next)) = conn.next_line() else {
                    break;
                };
                // a peek is repeatable until the cursor moves
                assert_eq!(
                    conn.next_line().map(|(l, _)| l.into_owned()),
                    Some(line.to_string())
                );
                lines.push(line.into_owned());
                conn.advance(next);
            }
        };
        let mut sent = 0;
        let mut turn = 0;
        while sent < stream.len() {
            let space = conn.read_space();
            let n = reads[turn % reads.len()]
                .min(space.len())
                .min(stream.len() - sent);
            space[..n].copy_from_slice(&stream[sent..sent + n]);
            conn.received(n);
            sent += n;
            let at_most = pulls[turn % pulls.len()];
            pull(
                &mut conn,
                if at_most == u8::MAX {
                    usize::MAX
                } else {
                    at_most as usize
                },
            );
            turn += 1;
        }
        pull(&mut conn, usize::MAX);
        (lines, conn.unparsed())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn any_chunking_yields_the_specified_lines(
            pieces in prop::collection::vec(piece(), 0..60),
            reads in prop::collection::vec(1usize..24, 1..8),
            pulls in prop::collection::vec(prop_oneof![Just(u8::MAX), 0u8..3], 1..6),
        ) {
            let stream: Vec<u8> = pieces.concat();
            let expected = specified_lines(&stream);
            let tail = stream.len() - stream.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);

            let (lines, unparsed) = framed(&stream, &reads, &pulls);
            prop_assert_eq!(&lines, &expected);
            prop_assert_eq!(unparsed, tail, "the final partial line stays buffered");

            // the whole stream in as few reads as the buffer allows
            let (lines, _) = framed(&stream, &[usize::MAX], &[u8::MAX]);
            prop_assert_eq!(&lines, &expected);
        }
    }

    #[test]
    fn specification_examples() {
        assert_eq!(
            specified_lines(b"PING\r\n\nSTATS\r\r\nx\xff\ny"),
            ["PING", "", "STATS\r", "x\u{fffd}"]
        );
        let (lines, unparsed) = framed(b"PING\r\n\nSTATS\r\r\nx\xff\ny", &[1], &[u8::MAX]);
        assert_eq!(lines, ["PING", "", "STATS\r", "x\u{fffd}"]);
        assert_eq!(unparsed, 1);
    }
}
