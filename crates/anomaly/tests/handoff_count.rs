//! Which thread frees what training allocates.
//!
//! The binary installs an allocator that forwards to `System` (the pattern
//! of `spell/tests/zero_alloc.rs`) and tags every block with the thread that
//! allocated it, so a free on any other thread is counted. Such a free is
//! what the parallel trainer's hand-off costs the allocator beyond the
//! block itself, and the trainer is built so that only what crosses on
//! purpose crosses:
//!
//! * `train_sequential` runs on the calling thread: it frees no block that
//!   another thread allocated;
//! * `train` hands the calling thread, per session, one part (the session's
//!   log and a few arrays, `hwgraph::SessionPart`) and, per Spell batch, one
//!   prepared batch. Its count is bounded by the blocks those own — a part
//!   that grew per-group arrays, or a stage that handed over per-line
//!   blocks, would break the bound however the threads were scheduled.
//!
//! One test, so no other test's threads allocate or free while it counts.

use anomaly::Trainer;
use dlasim::{SystemKind, WorkloadGen};
use spell::{Level, LogLine, Session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
// lint: allow(std-sync) — the allocator runs below the facade.
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

struct TaggingAlloc;

/// Bytes in front of every block; the allocating thread's number sits in
/// the four just before the block.
fn header(layout: Layout) -> usize {
    layout.align().max(16)
}

/// The layout asked of `System` for `layout` with its header.
fn outer(layout: Layout) -> Option<Layout> {
    let size = layout.size().checked_add(header(layout))?;
    Layout::from_size_align(size, header(layout)).ok()
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static COUNTING: AtomicBool = AtomicBool::new(false);
static FOREIGN_FREES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's number, given on its first allocation. A `const` cell
    /// without a destructor, so reading it from inside the allocator
    /// allocates nothing and works while the thread is torn down.
    static THREAD: Cell<u32> = const { Cell::new(0) };
}

fn this_thread() -> u32 {
    let number = |t: &Cell<u32>| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    };
    THREAD.try_with(number).unwrap_or(0)
}

/// Count the free of the block at `ptr` if another thread allocated it.
///
/// # Safety
///
/// `ptr` came from [`TaggingAlloc`] and is still allocated.
unsafe fn note_free(ptr: *mut u8) {
    if COUNTING.load(Ordering::Relaxed) {
        // SAFETY: every block `TaggingAlloc` hands out has its tag written
        // in the four bytes before it, inside its header.
        let owner = unsafe { ptr.sub(4).cast::<u32>().read() };
        if owner != this_thread() {
            FOREIGN_FREES.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Tag the block `System` returned at `base` for `layout`; the block the
/// caller gets.
///
/// # Safety
///
/// `base` is null or a live `System` block of [`outer`]`(layout)`.
unsafe fn tagged(base: *mut u8, layout: Layout) -> *mut u8 {
    if base.is_null() {
        return base;
    }
    // SAFETY: the block is `header(layout)` bytes longer than `layout`, so
    // `ptr` and the four tag bytes before it lie inside it; the header is a
    // multiple of 16 and of the alignment, so `ptr` is aligned for `layout`
    // and the tag for `u32`.
    unsafe {
        let ptr = base.add(header(layout));
        ptr.sub(4).cast::<u32>().write(this_thread());
        ptr
    }
}

// SAFETY: every block is a `System` block of the caller's layout grown by a
// header in front, whose size keeps the caller's alignment; the caller's
// pointer is the block past the header, and every method maps it back before
// forwarding. The additions — a thread-local read and two atomic counters —
// neither allocate nor unwind.
unsafe impl GlobalAlloc for TaggingAlloc {
    // SAFETY: forwarded to `System.alloc` with the grown layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let Some(grown) = outer(layout) else {
            return std::ptr::null_mut();
        };
        // SAFETY: `grown` has a non-zero size; the result is tagged as
        // `tagged` requires.
        unsafe { tagged(System.alloc(grown), layout) }
    }

    // SAFETY: forwarded to `System.alloc_zeroed` with the grown layout.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let Some(grown) = outer(layout) else {
            return std::ptr::null_mut();
        };
        // SAFETY: as in `alloc`.
        unsafe { tagged(System.alloc_zeroed(grown), layout) }
    }

    // SAFETY: `ptr` came from `alloc` with `layout`, so the `System` block
    // starts a header before it and has the grown layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let grown = outer(layout).expect("a layout that was allocated");
        // SAFETY: see above.
        unsafe {
            note_free(ptr);
            System.dealloc(ptr.sub(header(layout)), grown);
        }
    }

    // SAFETY: as `dealloc` for the old block; the new one keeps the
    // alignment, so its header has the same size and is re-tagged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = outer(layout).expect("a layout that was allocated");
        let Some(new_grown) = new_size.checked_add(header(layout)) else {
            return std::ptr::null_mut();
        };
        // SAFETY: see above; a realloc returns the old block to the arena
        // that allocated it, so on another thread it counts as a free there.
        unsafe {
            note_free(ptr);
            let base = System.realloc(ptr.sub(header(layout)), grown, new_grown);
            tagged(base, layout)
        }
    }
}

#[global_allocator]
static GLOBAL: TaggingAlloc = TaggingAlloc;

/// Blocks freed by a thread other than their allocating one while `run`
/// runs.
fn foreign_frees(run: impl FnOnce()) -> u64 {
    FOREIGN_FREES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    run();
    COUNTING.store(false, Ordering::SeqCst);
    FOREIGN_FREES.load(Ordering::SeqCst)
}

/// A `SessionLog` owns six arrays: rows, identifier pairs, spellings, type
/// runs, value runs and the value index.
const LOG_BLOCKS: u64 = 6;
/// A `SessionPart` owns, beside its log, its lifespans, repeating keys and
/// per-group instance ranges, and its split's five arrays.
const PART_BLOCKS: u64 = 8;
/// A Spell batch prepared ahead owns its spans, hashes and line ends. Each
/// batch holds at least one session.
const BATCH_BLOCKS: u64 = 3;
/// Per parallel map: starting and joining its helper, and the growth of its
/// queue of items in flight.
const MAP_BLOCKS: u64 = 32;

/// Training sessions of the MapReduce shape: many short containers.
fn mapreduce_sessions() -> Vec<Session> {
    let mut gen = WorkloadGen::new(11, 8);
    let jobs = (0..2).map(|_| dlasim::generate(&gen.training_config(SystemKind::MapReduce), None));
    let line = |l: &dlasim::SimLine| LogLine {
        ts_ms: l.ts_ms,
        level: Level::Info,
        source: l.source.clone(),
        message: l.message.clone(),
    };
    jobs.flat_map(|job| {
        let sessions = job.sessions.iter();
        sessions
            .map(|s| Session::new(s.id.clone(), s.lines.iter().map(line).collect::<Vec<_>>()))
            .collect::<Vec<_>>()
    })
    .collect()
}

#[test]
fn training_frees_only_its_parts_on_another_thread() {
    let sessions = mapreduce_sessions();
    assert!(sessions.len() > 100, "{} sessions", sessions.len());
    let trainer = Trainer::default();

    let sequential = foreign_frees(|| drop(trainer.train_sequential(&sessions)));
    assert_eq!(
        sequential, 0,
        "train_sequential freed another thread's blocks"
    );

    let per_session = LOG_BLOCKS + PART_BLOCKS + BATCH_BLOCKS;
    let bound = sessions.len() as u64 * per_session + 2 * MAP_BLOCKS;
    for run in ["first", "second"] {
        let parallel = foreign_frees(|| drop(trainer.train(&sessions)));
        eprintln!(
            "{run} train: {parallel} blocks freed on another thread, {} sessions, bound {bound}",
            sessions.len()
        );
        assert!(
            parallel <= bound,
            "{run} train freed {parallel} blocks of another thread, over {bound}"
        );
    }
}
