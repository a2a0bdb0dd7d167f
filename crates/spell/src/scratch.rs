//! Per-thread reusable scratch buffers for the matching hot path.
//!
//! Matching one message runs a trie walk, an inverted-index scoring pass
//! and an LCS dynamic program on the one `MatchIndex` that training,
//! detection and serving share — each of which used to allocate its working
//! vectors/maps per call. One warm buffer per thread amortises to zero
//! allocations per message over the messages that thread matches: every
//! message of a streaming session or of a sequential pass, and every item a
//! helper of the parallel map claims (`sync::par_map_ordered`'s scoped
//! helpers live for one call; the calling thread keeps its buffers across
//! calls).
//!
//! Every helper here hands the buffer to a closure (cleared by the callee
//! as needed) rather than leaking `RefCell` guards into signatures. The
//! closures are leaves — none of them re-enters the same helper — so the
//! `borrow_mut` calls cannot conflict.

use crate::intern::TokenId;
use lognlp::Span;
use std::cell::RefCell;

thread_local! {
    /// DP row for the wildcard-LCS computation.
    static LCS_ROW: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// Active/next node frontiers for the trie walk.
    static WALK: RefCell<(Vec<u32>, Vec<u32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    /// Sorted tokens and dense key overlaps for inverted-index scoring.
    static SCORED: RefCell<ScoredScratch> = const { RefCell::new(ScoredScratch::new()) };
    /// Span + id buffers for the zero-copy line ingest path.
    static LINE: RefCell<LineScratch> = const { RefCell::new(LineScratch::new()) };
    /// Token hashes for the training door's two halves.
    static HASHES: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Exact-candidate output buffer for the trie walk.
    static EXACT: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    /// Scored-candidate output buffer for inverted-index pruning.
    static CANDS: RefCell<Vec<(u32, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Working set for `MatchIndex::scored_candidates_into`. `overlap` is
/// sized to the largest key set seen on this thread and reset through
/// `touched`, so steady-state scoring never allocates.
pub(crate) struct ScoredScratch {
    /// The message's constant-candidate tokens, sorted.
    pub(crate) toks: Vec<TokenId>,
    /// Key index → LCS upper-bound contribution from postings overlap.
    pub(crate) overlap: Vec<u32>,
    /// Key indices with nonzero `overlap`.
    pub(crate) touched: Vec<u32>,
}

impl ScoredScratch {
    const fn new() -> ScoredScratch {
        ScoredScratch {
            toks: Vec::new(),
            overlap: Vec::new(),
            touched: Vec::new(),
        }
    }
}

/// Reusable buffers for tokenising and interning one raw line without
/// allocating: byte spans into the line, then interned ids.
pub(crate) struct LineScratch {
    pub(crate) spans: Vec<Span>,
    pub(crate) ids: Vec<TokenId>,
}

impl LineScratch {
    const fn new() -> LineScratch {
        LineScratch {
            spans: Vec::new(),
            ids: Vec::new(),
        }
    }
}

pub(crate) fn with_lcs_row<R>(f: impl FnOnce(&mut Vec<usize>) -> R) -> R {
    LCS_ROW.with(|cell| f(&mut cell.borrow_mut()))
}

pub(crate) fn with_walk<R>(f: impl FnOnce(&mut Vec<u32>, &mut Vec<u32>) -> R) -> R {
    WALK.with(|cell| {
        let mut guard = cell.borrow_mut();
        let (active, next) = &mut *guard;
        f(active, next)
    })
}

pub(crate) fn with_scored<R>(f: impl FnOnce(&mut ScoredScratch) -> R) -> R {
    SCORED.with(|cell| f(&mut cell.borrow_mut()))
}

pub(crate) fn with_line<R>(f: impl FnOnce(&mut LineScratch) -> R) -> R {
    LINE.with(|cell| f(&mut cell.borrow_mut()))
}

pub(crate) fn with_hashes<R>(f: impl FnOnce(&mut Vec<u64>) -> R) -> R {
    HASHES.with(|cell| f(&mut cell.borrow_mut()))
}

pub(crate) fn with_exact<R>(f: impl FnOnce(&mut Vec<u32>) -> R) -> R {
    EXACT.with(|cell| f(&mut cell.borrow_mut()))
}

pub(crate) fn with_cands<R>(f: impl FnOnce(&mut Vec<(u32, usize)>) -> R) -> R {
    CANDS.with(|cell| f(&mut cell.borrow_mut()))
}
