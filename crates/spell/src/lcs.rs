//! Longest-common-subsequence machinery for Spell.
//!
//! Spell (Du & Li, ICDM'17) matches an incoming message to the stored key
//! whose LCS with it is longest, subject to a threshold. For same-length
//! sequences (the case exercised by positional log keys) the number of
//! positionally equal tokens is a cheap lower bound on the LCS length, so
//! the parser first counts positional matches and only falls back to the
//! full O(m·n) dynamic program when the bound is inconclusive.

use crate::intern::{TokenId, STAR_ID};

/// Length of the longest common subsequence of `a` and `b`.
pub fn lcs_len<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    // Rolling one-row DP: O(min(m,n)) space.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut row = vec![0usize; short.len() + 1];
    for x in long {
        let mut prev_diag = 0; // row[j-1] from the previous iteration
        for (j, y) in short.iter().enumerate() {
            let cur = row[j + 1];
            row[j + 1] = if x == y {
                prev_diag + 1
            } else {
                row[j + 1].max(row[j])
            };
            prev_diag = cur;
        }
    }
    row[short.len()]
}

/// Positional matches where a `*` in the key matches any message token —
/// the matching semantics of a refined Spell key.
pub fn positional_matches_wild(key: &[String], msg: &[String]) -> usize {
    debug_assert_eq!(key.len(), msg.len());
    key.iter()
        .zip(msg)
        .filter(|(k, m)| k.as_str() == crate::key::STAR || k == m)
        .count()
}

/// Interned-token variant of [`positional_matches_wild`]: `u32` compares
/// instead of string compares in the hot loop.
pub fn positional_matches_wild_ids(key: &[TokenId], msg: &[TokenId]) -> usize {
    debug_assert_eq!(key.len(), msg.len());
    key.iter()
        .zip(msg)
        .filter(|&(&k, m)| k == STAR_ID || k == *m)
        .count()
}

/// Interned-token variant of [`lcs_len_wild`]. Runs on a per-thread DP row
/// (this is the matcher's innermost loop; see `scratch.rs`).
pub fn lcs_len_wild_ids(key: &[TokenId], msg: &[TokenId]) -> usize {
    if key.is_empty() || msg.is_empty() {
        return 0;
    }
    crate::scratch::with_lcs_row(|row| {
        row.clear();
        row.resize(msg.len() + 1, 0);
        for &k in key {
            let mut prev_diag = 0;
            for (j, &m) in msg.iter().enumerate() {
                let cur = row[j + 1];
                row[j + 1] = if k == STAR_ID || k == m {
                    prev_diag + 1
                } else {
                    row[j + 1].max(row[j])
                };
                prev_diag = cur;
            }
        }
        row[msg.len()]
    })
}

/// LCS length where a `*` in the key matches any message token.
pub fn lcs_len_wild(key: &[String], msg: &[String]) -> usize {
    if key.is_empty() || msg.is_empty() {
        return 0;
    }
    let mut row = vec![0usize; msg.len() + 1];
    for k in key {
        let mut prev_diag = 0;
        for (j, m) in msg.iter().enumerate() {
            let cur = row[j + 1];
            row[j + 1] = if k.as_str() == crate::key::STAR || k == m {
                prev_diag + 1
            } else {
                row[j + 1].max(row[j])
            };
            prev_diag = cur;
        }
    }
    row[msg.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcs_basics() {
        assert_eq!(lcs_len(&['a', 'b', 'c'], &['a', 'x', 'c']), 2);
        assert_eq!(lcs_len(&['a', 'b', 'c'], &['a', 'b', 'c']), 3);
        assert_eq!(lcs_len::<char>(&[], &['a']), 0);
        assert_eq!(lcs_len(&['x'], &['y']), 0);
    }

    #[test]
    fn lcs_subsequence_not_substring() {
        assert_eq!(lcs_len(&[1, 2, 3, 4], &[1, 9, 3, 9, 4]), 3);
    }

    #[test]
    fn id_variants_agree_with_string_variants() {
        let mut it = crate::intern::Interner::new();
        let key = ["*", "freed", "by", "fetcher", "*"].map(String::from);
        let msg = ["host1", "freed", "by", "worker", "9"].map(String::from);
        let key_ids: Vec<_> = key.iter().map(|t| it.intern(t)).collect();
        let msg_ids: Vec<_> = msg.iter().map(|t| it.intern(t)).collect();
        assert_eq!(
            positional_matches_wild_ids(&key_ids, &msg_ids),
            positional_matches_wild(&key, &msg)
        );
        assert_eq!(
            lcs_len_wild_ids(&key_ids, &msg_ids),
            lcs_len_wild(&key, &msg)
        );
        // a star in the *message* is matched only by a star in the key
        let probe = ["*", "freed", "by", "*", "*"].map(String::from);
        let probe_ids: Vec<_> = probe.iter().map(|t| it.intern(t)).collect();
        assert_eq!(
            lcs_len_wild_ids(&key_ids, &probe_ids),
            lcs_len_wild(&key, &probe)
        );
    }
}
