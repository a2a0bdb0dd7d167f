//! What Algorithm 2's split allocates.
//!
//! The binary installs the counting allocator of
//! `tests/support/counting_alloc.rs`, which counts per thread. The split's
//! working arrays (per-value lists, the call's instances, per-message
//! owners) live in a per-thread scratch, so once a thread has split a
//! session as large, splitting it again allocates only for the growth of
//! the caller's `InstanceSplit` — whose five arrays double as they grow —
//! and not once per group.

use extract::SessionLog;
use hwgraph::{split_instances_into, InstanceSplit};
use spell::KeyId;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

/// Groups in the session: far more than the split's growth can allocate.
const GROUPS: usize = 200;
/// Messages per group.
const PER_GROUP: usize = 5;
/// Identifier pairs per identified message.
const IDS_PER_ROW: usize = 2;

/// A session whose groups' messages interleave: per group a STAGE value
/// and a TASK value per message, and every fifth message identifier-free
/// (the NONE bucket). Returns the log and each group's rows, in order.
fn session() -> (SessionLog, Vec<Vec<u32>>) {
    let mut log = SessionLog::default();
    let mut groups = vec![Vec::new(); GROUPS];
    for i in 0..PER_GROUP {
        for (g, rows) in groups.iter_mut().enumerate() {
            let (task, stage) = (format!("{g}.{i}"), g.to_string());
            let ids = [("TASK", task.as_str()), ("STAGE", stage.as_str())];
            let ids = if i == 4 { &ids[..0] } else { &ids[..] };
            rows.push(log.len() as u32);
            log.push_row(KeyId(i as u32), 0, ids.iter().copied());
        }
    }
    (log, groups)
}

/// Split every group of the session into one fresh `InstanceSplit`.
fn split_all(log: &SessionLog, groups: &[Vec<u32>]) -> InstanceSplit {
    let mut out = InstanceSplit::default();
    for rows in groups {
        split_instances_into(log, rows, &mut out);
    }
    out
}

#[test]
fn warm_split_allocates_only_for_its_output() {
    let (log, groups) = session();
    let warm = split_all(&log, &groups);

    let before = allocations();
    let out = split_all(&log, &groups);
    let made = allocations() - before;
    assert_eq!(out.len(), warm.len());

    // No array of the output holds more than this many entries, and a
    // doubling array that grows to n entries allocates at most
    // ⌊log2 n⌋ + 1 times.
    let entries = (GROUPS * PER_GROUP * IDS_PER_ROW) as u64;
    let growth = 5 * u64::from(u64::BITS - entries.leading_zeros());
    assert!(growth < GROUPS as u64);
    eprintln!("splitting {GROUPS} groups on a warm thread: {made} allocations, bound {growth}");
    assert!(
        made <= growth,
        "splitting {GROUPS} groups made {made} allocations, over the {growth} its output's growth needs"
    );
}
