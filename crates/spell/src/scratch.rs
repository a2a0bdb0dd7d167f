//! Per-thread reusable scratch buffers for the matching hot path.
//!
//! Matching one message runs an LCS dynamic program, a trie walk and an
//! inverted-index scoring pass — each of which used to allocate its working
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
use std::collections::HashMap;

thread_local! {
    /// DP row for the wildcard-LCS computation.
    static LCS_ROW: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// Active/next node frontiers for the trie walk.
    static WALK: RefCell<(Vec<u32>, Vec<u32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    /// Token-count and key-overlap maps for inverted-index scoring.
    static SCORED: RefCell<ScoredScratch> = RefCell::new(ScoredScratch::default());
    /// Span + id buffers for the zero-copy line ingest path.
    static LINE: RefCell<LineScratch> = const { RefCell::new(LineScratch::new()) };
    /// Token hashes for the training door's two halves.
    static HASHES: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Exact-candidate output buffer for the trie walk.
    static EXACT: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    /// Scored-candidate output buffer for inverted-index pruning.
    static CANDS: RefCell<Vec<(u32, usize)>> = const { RefCell::new(Vec::new()) };
    /// Dense working set for the compiled key automaton.
    static AUTO: RefCell<AutoScratch> = const { RefCell::new(AutoScratch::new()) };
}

#[derive(Default)]
pub(crate) struct ScoredScratch {
    /// Token → multiplicity in the message being scored.
    pub(crate) msg_counts: HashMap<TokenId, u32>,
    /// Key index → LCS upper-bound contribution from postings overlap.
    pub(crate) overlap: HashMap<u32, usize>,
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

/// Dense working set for [`crate::automaton::KeyAutomaton`] matching. The
/// `counts`/`overlap` arrays are sized to the largest bucket seen on this
/// thread and reset via the touched lists, so steady-state matching never
/// hashes and never allocates.
pub(crate) struct AutoScratch {
    /// Message tokens mapped to bucket-local dictionary ids (`NONE` for
    /// stars, unknowns and out-of-dictionary tokens).
    pub(crate) ltoks: Vec<u32>,
    /// Local token id → multiplicity in the message (dense, touched-reset).
    pub(crate) counts: Vec<u32>,
    /// Local token ids with nonzero `counts`.
    pub(crate) touched_tokens: Vec<u32>,
    /// Local key id → postings overlap bound contribution (dense,
    /// touched-reset).
    pub(crate) overlap: Vec<u32>,
    /// Local key ids with nonzero `overlap`.
    pub(crate) touched_keys: Vec<u32>,
    /// (local key, LCS upper bound) candidates surviving the prune.
    pub(crate) cands: Vec<(u32, usize)>,
    /// Active/next NFA frontiers for the fallback trie walk.
    pub(crate) frontier: (Vec<u32>, Vec<u32>),
}

impl AutoScratch {
    const fn new() -> AutoScratch {
        AutoScratch {
            ltoks: Vec::new(),
            counts: Vec::new(),
            touched_tokens: Vec::new(),
            overlap: Vec::new(),
            touched_keys: Vec::new(),
            cands: Vec::new(),
            frontier: (Vec::new(), Vec::new()),
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

pub(crate) fn with_auto<R>(f: impl FnOnce(&mut AutoScratch) -> R) -> R {
    AUTO.with(|cell| f(&mut cell.borrow_mut()))
}
