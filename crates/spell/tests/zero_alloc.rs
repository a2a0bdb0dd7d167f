//! Literal zero-allocation proof for the byte-level ingest path.
//!
//! The binary installs a counting global allocator (same pattern as
//! `obs/tests/metrics_props.rs`) so the claims in `parser.rs` are checked
//! as stated, not approximated:
//!
//! * `match_line` against a frozen parser performs **zero** heap
//!   allocations — tokenise to spans, intern-lookup by byte slice, and
//!   the compiled automaton all run out of per-thread scratch;
//! * the `lognlp::format` adapters normalise raw lines (Hadoop, Spark,
//!   HDFS/BGL header, RFC-3164 syslog, JSON) with **zero** heap allocations — the
//!   returned record borrows from the input — and feeding an adapted
//!   message to the frozen matcher stays allocation-free end to end;
//! * `parse_spans`, the training door, performs **zero** heap allocations
//!   for a line that matches a key without changing it — never-seen
//!   parameter values included — and interns nothing for it.
//!
//! The tests warm the per-thread scratch first: scratch buffers and the
//! scoring hash maps grow to their high-water mark on the first pass and
//! are reused (cleared, capacity kept) afterwards. The measured passes run
//! the exact same probes, so any allocation they observe is a genuine
//! per-line cost, not warmup.

use spell::SpellParser;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per thread, so that what the test
    /// harness or another test allocates meanwhile is not counted against
    /// the lines being measured; a `const` cell without a destructor, so
    /// reading it from inside the allocator allocates nothing itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method delegates verbatim to `System`, which upholds the
// GlobalAlloc contract; the only addition is a thread-local counter bump,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwarded to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    // SAFETY: forwarded to `System.dealloc`; `ptr`/`layout` come straight
    // from the caller, whose contract matches System's.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwarded to `System.realloc` with the caller's arguments.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwarded to `System.alloc_zeroed` with the caller's layout.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Training corpus: several templates, two instances each so real `*`
/// positions exist, plus host:port and bracket shapes so the span
/// tokeniser's edge cases are on the measured path.
fn corpus() -> Vec<String> {
    let mut lines = Vec::new();
    for i in 0..12u32 {
        lines.push(format!("Starting task {i} in stage 0 on host{i}:13562"));
        lines.push(format!(
            "Finished task {i} in stage 0 and sent {} bytes to driver",
            i * 97
        ));
        lines.push(format!(
            "[fetcher # {i}] read {} bytes from map-output for attempt_{i}",
            i * 31
        ));
        lines.push(format!("Registering block manager endpoint on host{i}"));
    }
    lines
}

/// Probe mix for the read path: exact instances, fresh parameter values
/// (unseen ids → UNKNOWN_ID), a near-miss, and a fully unknown line.
fn probes() -> Vec<String> {
    let mut p = corpus();
    p.push("Starting task 9999 in stage 7 on host9999:13562".into());
    p.push("Finishing task 3 in stage 0 and sent 42 bytes to driver".into());
    p.push("completely unrelated text never seen in training".into());
    p
}

#[test]
fn frozen_match_line_is_allocation_free() {
    let mut parser = SpellParser::default();
    for line in corpus() {
        parser.parse_message(&line);
    }
    parser.freeze();
    assert!(parser.is_frozen());
    let probes = probes();

    // Warmup: grow every scratch buffer to its high-water mark and record
    // the expected verdicts.
    let expected: Vec<Option<spell::KeyId>> = probes.iter().map(|l| parser.match_line(l)).collect();
    assert!(
        expected.iter().filter(|v| v.is_some()).count() >= corpus().len(),
        "probe mix must exercise the hit path"
    );
    assert!(
        expected.iter().any(|v| v.is_none()),
        "probe mix must exercise the miss path"
    );

    let before = allocations();
    for _ in 0..3 {
        for (line, want) in probes.iter().zip(&expected) {
            assert_eq!(parser.match_line(line), *want);
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "frozen match_line allocated on the steady-state read path"
    );
}

#[test]
fn steady_state_training_line_is_allocation_free() {
    let mut parser = SpellParser::default();
    let (mut spans, mut ids) = (Vec::new(), Vec::new());
    // Warmup: learn the keys and grow the line buffers and the live
    // index's scratch. Twice, so that the second pass changes nothing.
    for line in corpus().iter().chain(&corpus()) {
        parser.parse_spans(line, &mut spans, &mut ids);
    }
    // Exact instances, and instances whose parameter values no line has
    // shown before: neither founds nor refines.
    let steady: Vec<String> = probes()
        .into_iter()
        .filter(|l| parser.match_line(l).is_some())
        .chain([
            "Finished task 9999 in stage 0 and sent 424242 bytes to driver".to_string(),
            "[fetcher # 9999] read 77777 bytes from map-output for attempt_9999".to_string(),
            "Registering block manager endpoint on host9999:13562".to_string(),
        ])
        .collect();
    assert!(steady.len() >= corpus().len() + 4);
    for line in &steady {
        parser.parse_spans(line, &mut spans, &mut ids);
    }
    let keys = parser.keys().to_vec();
    let interned = parser.interned_len();

    let before = allocations();
    for _ in 0..3 {
        for line in &steady {
            let (_, founded) = parser.parse_spans(line, &mut spans, &mut ids);
            assert!(!founded);
        }
    }
    assert_eq!(
        allocations() - before,
        0,
        "parse_spans allocated on a line that changed no key"
    );
    assert_eq!(
        parser.interned_len(),
        interned,
        "a steady line was interned"
    );
    // Only the hit counts moved.
    assert_eq!(parser.len(), keys.len());
    for (now, then) in parser.keys().iter().zip(&keys) {
        assert_eq!((&now.tokens, &now.sample), (&then.tokens, &then.sample));
    }

    // The counter does count: a refining and a founding line allocate.
    let before = allocations();
    let (id, founded) = parser.parse_spans(
        "Registering shuffle manager endpoint on host3",
        &mut spans,
        &mut ids,
    );
    assert!(!founded && parser.key(id).render() == "Registering * manager endpoint on *");
    assert!(allocations() > before, "a refinement builds a `*` token");
    let before = allocations();
    let (_, founded) = parser.parse_spans(
        "completely unrelated text never seen in training",
        &mut spans,
        &mut ids,
    );
    assert!(founded);
    assert!(allocations() > before, "a founding line builds its key");
    assert!(parser.interned_len() > interned);
}

/// The probe corpus rendered in each adapter's syntax, with headers typical
/// of that format. Message bodies are the exact probe lines, so the
/// adapted ingest exercises the same hit/miss mix as the bare-message test.
fn foreign_probes() -> Vec<(lognlp::format::AdapterKind, Vec<String>)> {
    use lognlp::format::AdapterKind;
    let probes = probes();
    vec![
        (
            AdapterKind::Hadoop,
            probes
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    format!(
                        "2019-06-22 01:{:02}:{:02},{:03} INFO [task {i}] spell.Task: {m}",
                        i / 60,
                        i % 60,
                        i % 1000
                    )
                })
                .collect(),
        ),
        (
            AdapterKind::Spark,
            probes
                .iter()
                .enumerate()
                .map(|(i, m)| format!("19/06/22 01:{:02}:{:02} INFO Task: {m}", i / 60, i % 60))
                .collect(),
        ),
        (
            AdapterKind::Hdfs,
            probes
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    format!(
                        "190622 01{:02}{:02} 148 INFO spell.Task: {m}",
                        i / 60,
                        i % 60
                    )
                })
                .collect(),
        ),
        (
            AdapterKind::Syslog,
            probes
                .iter()
                .enumerate()
                .map(|(i, m)| format!("<134>Jun 22 01:{:02}:{:02} host3 Task: {m}", i / 60, i % 60))
                .collect(),
        ),
        (
            AdapterKind::Json,
            probes
                .iter()
                .enumerate()
                .map(|(i, m)| format!(r#"{{"ts":{i},"level":"INFO","source":"Task","msg":"{m}"}}"#))
                .collect(),
        ),
    ]
}

#[test]
fn adapted_ingest_is_allocation_free() {
    let mut parser = SpellParser::default();
    for line in corpus() {
        parser.parse_message(&line);
    }
    parser.freeze();
    let foreign = foreign_probes();

    // Warmup: verify every foreign line adapts to its probe message and
    // record the expected verdicts, growing the matcher scratch.
    let mut expected: Vec<Vec<Option<spell::KeyId>>> = Vec::new();
    for (kind, lines) in &foreign {
        let adapter = kind.adapter();
        let mut verdicts = Vec::new();
        for (line, probe) in lines.iter().zip(probes()) {
            let rec = adapter
                .parse_record(line)
                .unwrap_or_else(|e| panic!("{kind:?} rejected {line:?}: {e}"));
            assert_eq!(rec.message, probe, "{kind:?} mangled the message body");
            verdicts.push(parser.match_line(rec.message));
        }
        assert!(
            verdicts.iter().filter(|v| v.is_some()).count() >= corpus().len(),
            "{kind:?}: adapted probe mix must exercise the hit path"
        );
        expected.push(verdicts);
    }

    let before = allocations();
    for _ in 0..3 {
        for ((kind, lines), verdicts) in foreign.iter().zip(&expected) {
            let adapter = kind.adapter();
            for (line, want) in lines.iter().zip(verdicts) {
                let rec = match adapter.parse_record(line) {
                    Ok(rec) => rec,
                    Err(_) => unreachable!("validated during warmup"),
                };
                assert_eq!(parser.match_line(rec.message), *want);
            }
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "adapter normalisation + frozen match allocated on the steady state"
    );
}
