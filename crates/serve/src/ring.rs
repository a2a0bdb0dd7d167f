//! Consistent-hash session routing.
//!
//! Sessions are routed to shards through a consistent-hash ring with
//! virtual nodes instead of `hash(session) % shards`. The modulo scheme
//! reshuffles almost every session when the shard count changes; the ring
//! moves only the sessions whose arc is claimed by the new shard (on add)
//! or owned by the departing shard (on drain) — in expectation K/N of K
//! sessions for N shards. That bound is what makes live re-sharding
//! (ADDSHARD / DRAINSHARD) cheap: the gateway only snapshots and restores
//! the moved sessions, everything else keeps flowing.
//!
//! The ring is an immutable value: rebalancing builds a *new* ring with
//! [`Ring::with_shard`] / [`Ring::without_shard`] and the gateway swaps an
//! `Arc<Ring>` once every shard has acked the move. Shard workers therefore
//! never observe a half-updated ring.

/// Virtual nodes per shard. More vnodes → smoother balance, slower build;
/// 64 keeps max/mean session skew under ~30% for small shard counts.
pub const DEFAULT_VNODES: usize = 64;

/// FNV-1a over the session key — the same family the old modulo router
/// used, kept so routing stays platform-independent and deterministic.
fn fnv1a(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 — places vnode points on the ring. Decorrelates the point
/// positions from the (small, sequential) shard indices.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Routing key for a session: tenant-qualified so two tenants using the
/// same session id stay independent. `\x1f` (ASCII unit separator) cannot
/// appear in either part — the wire protocol is tab/newline-framed and
/// rejects control bytes.
pub fn session_key(tenant: &str, session: &str) -> String {
    let mut key = String::with_capacity(tenant.len() + 1 + session.len());
    write_session_key(&mut key, tenant, session);
    key
}

/// [`session_key`] spelled into a reused buffer (the gateway's per-line
/// form: no allocation once the buffer has grown).
pub(crate) fn write_session_key(key: &mut String, tenant: &str, session: &str) {
    key.clear();
    key.push_str(tenant);
    key.push('\x1f');
    key.push_str(session);
}

/// The session id inside a routing key built for `tenant`.
pub(crate) fn session_of<'k>(key: &'k str, tenant: &str) -> &'k str {
    key.get(tenant.len() + 1..).unwrap_or(key)
}

/// An immutable consistent-hash ring over a set of shard indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    /// (point, shard) pairs sorted by point; ties broken by shard index
    /// so ring construction is order-independent.
    points: Vec<(u64, usize)>,
    /// Live shard indices, sorted. Indices are stable handles into the
    /// gateway's worker table, so they are not required to be contiguous
    /// (draining shard 1 of 3 leaves {0, 2}).
    shards: Vec<usize>,
    vnodes: usize,
}

impl Ring {
    /// Build a ring over `shards` (deduplicated) with `vnodes` virtual
    /// nodes per shard. Panics if `shards` is empty or `vnodes` is zero —
    /// a ring with nowhere to route is a construction bug.
    pub fn new(shards: &[usize], vnodes: usize) -> Ring {
        assert!(!shards.is_empty(), "ring needs at least one shard");
        assert!(vnodes > 0, "ring needs at least one vnode per shard");
        let mut uniq: Vec<usize> = shards.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        let mut points = Vec::with_capacity(uniq.len() * vnodes);
        for &s in &uniq {
            for v in 0..vnodes {
                // vnode point = splitmix64 of (shard, vnode) packed so
                // distinct pairs map to distinct inputs
                let seed = ((s as u64) << 20) | (v as u64);
                points.push((splitmix64(seed), s));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            shards: uniq,
            vnodes,
        }
    }

    /// Ring over shards `0..n`.
    pub fn contiguous(n: usize, vnodes: usize) -> Ring {
        let shards: Vec<usize> = (0..n).collect();
        Ring::new(&shards, vnodes)
    }

    /// The shard owning `key`: the first vnode point at or after the key's
    /// hash, wrapping to the start of the ring.
    ///
    /// The FNV hash is finalized through splitmix64: session ids that
    /// differ only in trailing digits (`container_00000001`, `…02`, …)
    /// perturb FNV-1a's low bits only, and the ring's binary search is
    /// ordered by the *high* bits — without the avalanche step every
    /// session of a job lands in one arc, i.e. on one shard.
    pub fn owner(&self, key: &str) -> usize {
        let h = splitmix64(fnv1a(key));
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, shard) = if idx == self.points.len() {
            self.points[0]
        } else {
            self.points[idx]
        };
        shard
    }

    /// A new ring with `shard` added (no-op clone if already present).
    pub fn with_shard(&self, shard: usize) -> Ring {
        let mut shards = self.shards.clone();
        if !shards.contains(&shard) {
            shards.push(shard);
        }
        Ring::new(&shards, self.vnodes)
    }

    /// A new ring with `shard` removed. Panics if it is the last shard —
    /// the gateway refuses to drain below one shard at the protocol layer.
    pub fn without_shard(&self, shard: usize) -> Ring {
        let shards: Vec<usize> = self
            .shards
            .iter()
            .copied()
            .filter(|&s| s != shard)
            .collect();
        assert!(!shards.is_empty(), "cannot drain the last shard");
        Ring::new(&shards, self.vnodes)
    }

    /// Live shard indices, sorted ascending.
    pub fn shards(&self) -> &[usize] {
        &self.shards
    }

    /// Whether `shard` participates in this ring.
    pub fn contains(&self, shard: usize) -> bool {
        self.shards.binary_search(&shard).is_ok()
    }

    /// Number of live shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// A ring always has ≥1 shard; this exists for clippy's benefit.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| session_key("t0", &format!("s{i}")))
            .collect()
    }

    #[test]
    fn session_key_round_trips() {
        let mut key = String::from("stale");
        write_session_key(&mut key, "t\x1f0", "container_01");
        assert_eq!(key, session_key("t\x1f0", "container_01"));
        assert_eq!(key, "t\x1f0\x1fcontainer_01");
        assert_eq!(session_of(&key, "t\x1f0"), "container_01");
    }

    #[test]
    fn deterministic_and_order_independent() {
        let a = Ring::new(&[0, 1, 2], 32);
        let b = Ring::new(&[2, 0, 1, 1], 32);
        assert_eq!(a, b);
        for k in keys(100) {
            assert_eq!(a.owner(&k), b.owner(&k));
        }
    }

    #[test]
    fn owners_are_live_shards() {
        let r = Ring::new(&[0, 2, 5], 16);
        for k in keys(500) {
            assert!(r.contains(r.owner(&k)), "owner must be a live shard");
        }
    }

    #[test]
    fn add_moves_sessions_only_to_new_shard() {
        let before = Ring::contiguous(3, DEFAULT_VNODES);
        let after = before.with_shard(3);
        let mut moved = 0usize;
        for k in keys(2000) {
            let (a, b) = (before.owner(&k), after.owner(&k));
            if a != b {
                assert_eq!(b, 3, "a changed owner must be the new shard");
                moved += 1;
            }
        }
        // expectation is K/N = 500; allow generous slack, but it must be
        // far below the ~2/3 a modulo router would move
        assert!(moved > 0, "the new shard must claim some arc");
        assert!(moved < 1000, "moved {moved} of 2000 — not consistent");
    }

    #[test]
    fn remove_moves_only_removed_shards_sessions() {
        let before = Ring::contiguous(4, DEFAULT_VNODES);
        let after = before.without_shard(2);
        for k in keys(2000) {
            let (a, b) = (before.owner(&k), after.owner(&k));
            if a != 2 {
                assert_eq!(a, b, "sessions off the drained shard must not move");
            } else {
                assert_ne!(b, 2, "drained shard must own nothing after");
            }
        }
    }

    #[test]
    fn balance_is_reasonable() {
        let r = Ring::contiguous(4, DEFAULT_VNODES);
        let mut counts = [0usize; 4];
        for k in keys(8000) {
            counts[r.owner(&k)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max < min * 3,
            "shard load skew too high: {counts:?} (vnodes too few?)"
        );
    }

    #[test]
    #[should_panic(expected = "cannot drain the last shard")]
    fn refuses_to_drain_last_shard() {
        let _ = Ring::new(&[0], 8).without_shard(0);
    }
}
