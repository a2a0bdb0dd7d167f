//! Literal allocation proof for the gateway's data path: framing → router
//! → flush allocates per *batch*, not per line, on the event-loop thread,
//! and going to sleep and being woken — the descriptor array refilled in
//! place, the wake byte drained, a sweep over every open connection —
//! allocates nothing at all.
//!
//! The binary installs a counting global allocator that counts only on a
//! thread that asked for it. The test thread asks, then runs
//! [`Gateway::run`] itself, so it *is* the loop thread; a client thread
//! drives it in lock step (one write, then wait for the `PING` reply) and
//! reads the counter between phases, while the loop is asleep.

use intellog_gateway::{Gateway, GatewayConfig};
use intellog_serve::Backpressure;
use spell::{Level, LogLine, Session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufRead, BufReader, Write};
// lint: allow(std-net) — the client side of the loopback socket; each write
// must reach the gateway as one read.
use std::net::TcpStream;
// lint: allow(std-sync) — the allocator runs below the facade.
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use sync::Arc;

struct CountingAlloc;

thread_local! {
    /// Whether this thread's allocations are counted. Const-initialised and
    /// without a destructor, so reading it from inside the allocator neither
    /// allocates nor registers anything.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

/// Allocations made by measured threads.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count() {
    // A thread being torn down has no flag left; nothing measures there.
    if MEASURED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method delegates verbatim to `System`, which upholds the
// GlobalAlloc contract; the only addition is a counter bump, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwarded to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    // SAFETY: forwarded to `System.dealloc`; `ptr`/`layout` come straight
    // from the caller, whose contract matches System's.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwarded to `System.realloc` with the caller's arguments.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwarded to `System.alloc_zeroed` with the caller's layout.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SESSIONS: u64 = 64;
const LINES: u64 = 4096;
/// Lines per write: with the `PING` behind them well under the 4 KiB a
/// connection's first read offers, so one write is one read, one turn.
const LINES_PER_WRITE: u64 = 32;
const SHARDS: usize = 2;

fn trained() -> anomaly::Detector {
    let line = |ts: u64, message: &str| LogLine {
        ts_ms: ts,
        level: Level::Info,
        source: "X".into(),
        message: message.into(),
    };
    let sessions: Vec<Session> = (0..3)
        .map(|i| {
            Session::new(
                format!("c{i}"),
                vec![
                    line(0, &format!("Starting task {i} in stage {i}")),
                    line(10, &format!("memory={} vcores={i} disk={i}", 1024 + i)),
                ],
            )
        })
        .collect();
    anomaly::Trainer::default().train(&sessions)
}

/// `LINES_PER_WRITE` data lines starting at line number `from`, dealt
/// round-robin over the live sessions, and a `PING`.
fn write_of(from: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    for n in from..from + LINES_PER_WRITE {
        let line = format!(
            "LOG\ts{}\t{n}\tINFO\tX\tmemory={} vcores={} disk={n}\n",
            n % SESSIONS,
            1024 + n % 7,
            n % 5
        );
        bytes.extend_from_slice(line.as_bytes());
    }
    bytes.extend_from_slice(b"PING\n");
    assert!(bytes.len() < 4096);
    bytes
}

/// Times the loop is woken for nothing in the idle phase.
const EMPTY_WAKES: u64 = 16;

struct Measured {
    writes: u64,
    during_lines: u64,
    while_asleep_and_woken: u64,
    sleeps: u64,
    ingested: u64,
}

/// The connection that talks, in lock step.
struct Wire {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    fn round_trip(&mut self, bytes: &[u8]) -> String {
        self.stream.write_all(bytes).expect("write");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply");
        reply
    }

    fn stats(&mut self) -> intellog_serve::StatsSnapshot {
        assert_eq!(self.round_trip(b"STATS\n"), "OK 1\n");
        let mut json = String::new();
        self.reader.read_line(&mut json).expect("STATS body");
        serde_json::from_str(&json).expect("STATS json")
    }
}

fn drive(addr: String) -> Measured {
    // open and silent throughout: the sleep's descriptor array has more in
    // it than the one connection that talks
    let _silent: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut wire = Wire { stream, reader };
    // Warm-up: every session opens, and the connection's buffers, the
    // router's key scratch and the reply buffer reach their working size.
    for w in 0..2 * SESSIONS / LINES_PER_WRITE {
        assert_eq!(wire.round_trip(&write_of(w * LINES_PER_WRITE)), "OK 0\n");
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let writes = LINES / LINES_PER_WRITE;
    for w in 0..writes {
        let bytes = write_of(1000 + w * LINES_PER_WRITE);
        assert_eq!(wire.round_trip(&bytes), "OK 0\n");
    }
    let after_lines = ALLOCATIONS.load(Ordering::Relaxed);

    // Sleep-and-wake cycles: an empty line is read, framed, and asks for
    // nothing — the loop wakes, sweeps every connection, finds no more
    // work, refills the descriptor array and sleeps again.
    let sleeps_before = wire.stats().loop_waits;
    let asleep = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..EMPTY_WAKES {
        wire.stream.write_all(b"\n").expect("an empty line");
        sync::thread::sleep(Duration::from_millis(5));
    }
    let woken = ALLOCATIONS.load(Ordering::Relaxed);
    let sleeps = wire.stats().loop_waits - sleeps_before;

    assert_eq!(wire.round_trip(b"DRAIN\n"), format!("OK {SESSIONS}\n"));
    let ingested = wire.stats().ingested;
    wire.stream.write_all(b"SHUTDOWN\n").expect("SHUTDOWN");
    Measured {
        writes,
        during_lines: after_lines - before,
        while_asleep_and_woken: woken - asleep,
        sleeps,
        ingested,
    }
}

#[test]
fn the_loop_allocates_per_batch_not_per_line_and_nothing_to_sleep_and_wake() {
    let cfg = GatewayConfig {
        shards: SHARDS,
        backpressure: Backpressure::Block,
        ..GatewayConfig::default()
    };
    let gateway = Gateway::bind(&cfg, Arc::new(trained())).expect("bind");
    let addr = gateway.local_addr().to_string();
    let client = sync::thread::spawn(move || drive(addr));
    MEASURED.with(|m| m.set(true));
    gateway.run().expect("gateway run");
    MEASURED.with(|m| m.set(false));
    let m = client.join().expect("client thread");

    assert_eq!(m.ingested, LINES + 2 * SESSIONS, "every line was routed");
    // Per write: at most one batch per shard, each at most four
    // allocations (its text and its records, each grown at most once), and
    // the `PING` verb's owned line.
    let allowed = m.writes * (4 * SHARDS as u64 + 1);
    assert!(
        m.during_lines <= allowed,
        "{} allocations on the loop thread for {LINES} lines in {} writes (allowed {allowed})",
        m.during_lines,
        m.writes
    );
    assert!(
        m.during_lines >= m.writes,
        "the counter must see the loop thread ({} allocations)",
        m.during_lines
    );
    assert!(
        m.sleeps >= EMPTY_WAKES,
        "the idle phase must hold sleep-and-wake cycles ({} sleeps)",
        m.sleeps
    );
    assert_eq!(
        m.while_asleep_and_woken, 0,
        "{} sleep-and-wake cycles allocated",
        m.sleeps
    );
}
