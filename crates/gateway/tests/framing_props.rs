//! The cursor framing of [`Conn`] against its specification: however a
//! byte stream is cut into socket reads — mid-line, between `\r` and `\n`,
//! inside a multi-byte UTF-8 sequence — and whenever the gateway happens to
//! consume lines, the connection yields exactly the stream's
//! newline-terminated segments, each with one trailing `\r` stripped and
//! decoded lossily; a final segment with no newline stays buffered.

use intellog_gateway::Conn;
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
