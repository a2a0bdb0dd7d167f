//! Literal zero-allocation proof for `StreamState::feed` on ignored-key
//! lines.
//!
//! `stream.rs` documents that lines matching an ignored (non-natural-
//! language) key allocate nothing: the match runs on the state's reused
//! span/id buffers and no token string is materialised. The binary
//! installs a counting global allocator (same pattern as
//! `spell/tests/zero_alloc.rs`) so that is checked as stated.
//!
//! The measured lines are all *distinct*: their three variable positions
//! cycle through values seen in training (unseen tokens would all collapse
//! to `UNKNOWN_ID` and make every line the same interned sequence), so any
//! per-sequence state a session keeps shows up as allocations here.

use anomaly::{StreamState, Trainer};
use spell::{Level, LogLine, Session};
use std::alloc::{GlobalAlloc, Layout, System};
// lint: allow(std-sync) — the global allocator runs underneath everything,
// including the sync facade's model-check hooks; counting allocations
// through a facade atomic would re-enter the scheduler from inside alloc.
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates verbatim to `System`, which upholds the
// GlobalAlloc contract; the only addition is a relaxed counter bump, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwarded to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: forwarded to `System.dealloc`; `ptr`/`layout` come straight
    // from the caller, whose contract matches System's.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwarded to `System.realloc` with the caller's arguments.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwarded to `System.alloc_zeroed` with the caller's layout.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Trained values per variable position; 16³ = 4096 distinct lines.
const VALUES: u64 = 16;

fn line(ts: u64, msg: String) -> LogLine {
    LogLine {
        ts_ms: ts,
        level: Level::Info,
        source: "X".into(),
        message: msg,
    }
}

/// A key-value dump: not natural language, so its key is ignored (§5).
fn resource_line(ts: u64, m: u64, v: u64, d: u64) -> LogLine {
    line(ts, format!("memory={} vcores={v} disk={d}", 1024 + m))
}

// The only test in this binary, so nothing else allocates while it counts.
#[test]
fn feed_allocates_nothing_on_ignored_key_lines() {
    // Every value of every variable position appears in training.
    let sessions: Vec<Session> = (0..VALUES)
        .map(|i| {
            Session::new(
                format!("c{i}"),
                vec![
                    line(0, format!("Starting task {i} in stage 0")),
                    resource_line(10, i, i, i),
                    line(
                        20,
                        format!("Finished task {i} in stage 0 and sent 9 bytes to driver"),
                    ),
                ],
            )
        })
        .collect();
    let detector = Trainer::default().train(&sessions);
    let probe = resource_line(0, 3, 5, 7);
    let key = detector
        .parser
        .match_line(&probe.message)
        .expect("resource lines match a trained key");
    assert!(
        detector.ignored_keys.contains(&key),
        "the key-value dump key must be on the ignored list"
    );

    let lines: Vec<LogLine> = (0..VALUES.pow(3))
        .map(|n| resource_line(n, n % VALUES, n / VALUES % VALUES, n / VALUES / VALUES))
        .collect();
    let mut state = StreamState::begin("live");
    // Warmup: grow the state's span/id buffers and the matcher's
    // per-thread scratch to their high-water mark.
    for l in &lines[..8] {
        assert!(state.feed(&detector, l).is_none());
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut surfaced = 0;
    for l in &lines[8..] {
        surfaced += state.feed(&detector, l).is_some() as usize;
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(surfaced, 0, "ignored-key lines never surface an anomaly");
    assert_eq!(state.lines_seen(), lines.len());
    assert_eq!(
        after - before,
        0,
        "StreamState::feed allocated on {} distinct ignored-key lines",
        lines.len() - 8
    );
}
