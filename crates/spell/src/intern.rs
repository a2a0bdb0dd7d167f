//! Token interning — the hot-path representation of log tokens.
//!
//! Spell compares tokens millions of times while matching messages against
//! keys; comparing interned `u32` ids instead of `String`s removes both the
//! pointer chase and the byte-wise comparison from the inner LCS loops. The
//! interner is append-only: ids are dense indices into a string table, and
//! [`STAR_ID`] (the wildcard `*`) is always id 0.
//!
//! Read-only lookups (detection phase) map never-seen tokens to
//! [`UNKNOWN_ID`], a sentinel that compares unequal to every interned key
//! token — exactly the behaviour of a fresh string no key contains.
//!
//! The table is a hand-rolled open-addressing map (FNV-1a over the token
//! bytes, splitmix64-finalised, linear probing) instead of
//! `HashMap<String, u32>` for two reasons:
//!
//! * **interning allocates once, not twice** — the map stores indices into
//!   the string table, so a new token costs exactly one `String`; the old
//!   `HashMap` keyed by owned strings cloned every new token a second time;
//! * **lookups take `&[u8]` and never allocate** — the zero-copy ingest
//!   path resolves tokenizer spans straight out of the line buffer
//!   ([`Interner::lookup_bytes`]), with no `String` materialisation and no
//!   SipHash state; misses are answered after probing at most a handful of
//!   slots.

use crate::key::STAR;
use serde::{Deserialize, Serialize};

/// Interned token identifier. Dense index into the parser's string table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TokenId(pub u32);

/// The interned id of the wildcard token [`STAR`]; always 0.
pub const STAR_ID: TokenId = TokenId(0);

/// Sentinel for tokens never interned (read-only lookups during detection).
/// Never equal to any real id, so it can never match a constant key token.
pub const UNKNOWN_ID: TokenId = TokenId(u32::MAX);

/// Empty-slot marker in the probe table (also [`UNKNOWN_ID`]'s raw value,
/// which by construction is never a real id).
const EMPTY: u32 = u32::MAX;

/// FNV-1a 64 over the token bytes, strengthened with the splitmix64
/// finaliser so low bits are well mixed for the power-of-two table mask.
#[inline]
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Append-only string interner. `*` is interned at construction as id 0.
#[derive(Debug, Clone)]
pub struct Interner {
    /// Id → token text (the only owned copy of each token).
    strings: Vec<String>,
    /// Id → cached hash of the token bytes (avoids rehashing on growth and
    /// makes probe-time comparisons a u64 check before the byte compare).
    hashes: Vec<u64>,
    /// Open-addressing probe table of ids; power-of-two length.
    table: Vec<u32>,
    /// `table.len() - 1`.
    mask: usize,
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

impl Interner {
    pub fn new() -> Interner {
        let mut it = Interner {
            strings: Vec::new(),
            hashes: Vec::new(),
            table: vec![EMPTY; 16],
            mask: 15,
        };
        let star = it.intern(STAR);
        debug_assert_eq!(star, STAR_ID);
        it
    }

    /// Intern `s`, returning its stable id. Allocates exactly one `String`
    /// when `s` is new and nothing at all when it is already interned.
    pub fn intern(&mut self, s: &str) -> TokenId {
        let h = hash_bytes(s.as_bytes());
        let mut slot = (h as usize) & self.mask;
        loop {
            let e = self.table[slot];
            if e == EMPTY {
                break;
            }
            if self.hashes[e as usize] == h && self.strings[e as usize] == s {
                return TokenId(e);
            }
            slot = (slot + 1) & self.mask;
        }
        let id = u32::try_from(self.strings.len()).expect("interner overflow");
        assert!(id != UNKNOWN_ID.0, "interner exhausted the id space");
        self.strings.push(s.to_string());
        self.hashes.push(h);
        self.table[slot] = id;
        // Grow at 7/8 load so probe chains stay short.
        if (self.strings.len() + 1) * 8 > self.table.len() * 7 {
            self.grow();
        }
        TokenId(id)
    }

    fn grow(&mut self) {
        let new_len = self.table.len() * 2;
        self.table.clear();
        self.table.resize(new_len, EMPTY);
        self.mask = new_len - 1;
        for (id, &h) in self.hashes.iter().enumerate() {
            let mut slot = (h as usize) & self.mask;
            while self.table[slot] != EMPTY {
                slot = (slot + 1) & self.mask;
            }
            self.table[slot] = id as u32;
        }
    }

    // lint: ingest-hot(begin)

    /// Read-only lookup by byte slice; `None` for tokens never interned.
    /// The zero-copy ingest path resolves tokenizer spans through this —
    /// it performs no allocation and no string materialisation.
    #[inline]
    pub fn lookup_bytes(&self, bytes: &[u8]) -> Option<TokenId> {
        let h = hash_bytes(bytes);
        let mut slot = (h as usize) & self.mask;
        loop {
            let e = self.table[slot];
            if e == EMPTY {
                return None;
            }
            if self.hashes[e as usize] == h && self.strings[e as usize].as_bytes() == bytes {
                return Some(TokenId(e));
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Read-only lookup; `None` for tokens never interned.
    #[inline]
    pub fn lookup(&self, s: &str) -> Option<TokenId> {
        self.lookup_bytes(s.as_bytes())
    }

    // lint: ingest-hot(end)

    /// The string behind an id. Panics on [`UNKNOWN_ID`] or foreign ids.
    pub fn resolve(&self, id: TokenId) -> &str {
        &self.strings[id.0 as usize]
    }

    /// Number of interned strings (including `*`).
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        // `*` is always present, so the interner is never logically empty.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_is_id_zero() {
        let it = Interner::new();
        assert_eq!(it.lookup(STAR), Some(STAR_ID));
        assert_eq!(it.resolve(STAR_ID), STAR);
    }

    #[test]
    fn interning_is_stable_and_dense() {
        let mut it = Interner::new();
        let a = it.intern("alpha");
        let b = it.intern("beta");
        assert_eq!(it.intern("alpha"), a);
        assert_eq!((a.0, b.0), (1, 2));
        assert_eq!(it.len(), 3);
        assert_eq!(it.resolve(b), "beta");
    }

    #[test]
    fn lookup_never_interns() {
        let mut it = Interner::new();
        it.intern("seen");
        assert_eq!(it.lookup("seen"), Some(TokenId(1)));
        assert_eq!(it.lookup("unseen"), None);
        assert_eq!(it.lookup(STAR), Some(STAR_ID));
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn lookup_bytes_agrees_with_intern() {
        let mut it = Interner::new();
        let words: Vec<String> = (0..2000).map(|i| format!("tok{i}")).collect();
        let ids: Vec<TokenId> = words.iter().map(|w| it.intern(w)).collect();
        for (w, &id) in words.iter().zip(&ids) {
            assert_eq!(it.lookup_bytes(w.as_bytes()), Some(id));
            assert_eq!(it.lookup(w), Some(id));
            assert_eq!(it.resolve(id), w);
        }
        assert_eq!(it.lookup_bytes(b"never-seen"), None);
        // Re-interning after growth keeps ids stable.
        for (w, &id) in words.iter().zip(&ids) {
            assert_eq!(it.intern(w), id);
        }
    }

    #[test]
    fn survives_many_growths() {
        let mut it = Interner::new();
        for i in 0..50_000u32 {
            it.intern(&format!("w{i}"));
        }
        assert_eq!(it.len(), 50_001);
        assert_eq!(it.lookup("w49999"), Some(TokenId(50_000)));
        assert_eq!(it.lookup("w50000"), None);
    }
}
