//! A counting global allocator for the zero-allocation tests, included by
//! each test binary that installs it:
//!
//! ```ignore
//! #[path = "../../../tests/support/counting_alloc.rs"]
//! mod counting_alloc;
//! use counting_alloc::allocations;
//! ```
//!
//! It counts per thread, so that what the test harness or another test
//! allocates meanwhile is not counted against the code being measured. It
//! is not a crate: a crate root that holds `unsafe` cannot carry
//! `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Const-initialised and without a
    /// destructor, so reading it from inside the allocator neither allocates
    /// nor registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread is torn down, and
    // such a thread has no counter left; nothing measures there.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method delegates verbatim to `System`, which upholds the
// GlobalAlloc contract; the only addition is a thread-local counter bump,
// which neither allocates nor unwinds.
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
