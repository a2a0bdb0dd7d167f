//! The simulator's random stream: ChaCha8 keyed from a `u64` seed.
//!
//! Every golden corpus, Table 4/5/8 row and model CRC under `tests/golden/`
//! is a function of this stream, so the goldens pin it bit for bit: the key
//! is four SplitMix64 steps of the seed, counter and nonce start at zero,
//! the 64-bit block counter sits in words 12–13, and a `u64` is two block
//! words, low first.

/// "expand 32-byte k".
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// A deterministic ChaCha8 generator.
#[derive(Debug, Clone)]
pub(crate) struct Rng {
    /// Cipher input: constants, key, block counter, nonce.
    state: [u32; 16],
    /// Current output block.
    block: [u32; 16],
    /// Next unread word of `block`; 16 = exhausted.
    word: usize,
}

fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl Rng {
    /// The generator for `seed`.
    pub(crate) fn new(mut seed: u64) -> Rng {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        for key in state[4..12].chunks_mut(2) {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            key[0] = z as u32;
            key[1] = (z >> 32) as u32;
        }
        Rng {
            state,
            block: [0; 16],
            word: 16,
        }
    }

    /// Computes the next block: four double rounds (column, then diagonal).
    fn refill(&mut self) {
        let mut x = self.state;
        for _ in 0..4 {
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for ((out, w), s) in self.block.iter_mut().zip(x).zip(self.state) {
            *out = w.wrapping_add(s);
        }
        let counter = (u64::from(self.state[12]) | u64::from(self.state[13]) << 32).wrapping_add(1);
        self.state[12] = counter as u32;
        self.state[13] = (counter >> 32) as u32;
        self.word = 0;
    }

    fn next_u32(&mut self) -> u32 {
        // `>=`, not `==`: it proves the index below in bounds.
        if self.word >= 16 {
            self.refill();
        }
        let v = self.block[self.word];
        self.word += 1;
        v
    }

    /// The next 64 random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        lo | u64::from(self.next_u32()) << 32
    }

    /// A value in `[lo, hi]` (`lo <= hi`); the full `u64` range is the raw draw.
    pub(crate) fn between(&mut self, lo: u64, hi: u64) -> u64 {
        match (hi - lo).checked_add(1) {
            Some(span) => lo + self.next_u64() % span,
            None => self.next_u64(),
        }
    }

    /// A value in `[0, n)` (`n > 0`).
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A value in `[0, 1)` from 53 random bits.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first eight words for seeds 0 and 42, as the golden corpora
    /// were generated with them.
    #[test]
    fn stream_is_pinned() {
        let pinned: [(u64, [u64; 8]); 2] = [
            (
                0,
                [
                    0xbf94_d133_2d8e_e5e8,
                    0x3a73_8775_a6da_5a01,
                    0x3d46_ff10_c143_ee06,
                    0x17c6_ab23_e9f6_424f,
                    0x5ce2_479b_2fb6_898b,
                    0x0ae8_099f_86bf_f662,
                    0x5f2f_09fd_c72f_90bd,
                    0x95d5_3efa_28e5_a01f,
                ],
            ),
            (
                42,
                [
                    0x3115_9ef9_87c9_1afc,
                    0x1755_9844_b416_9001,
                    0xf7d0_afbf_9ad9_a69f,
                    0xb920_7ad5_fd37_495a,
                    0x072d_b0db_6132_9c11,
                    0x4051_bc3b_eca2_6593,
                    0xbfaa_b970_cc47_03b6,
                    0xaff5_425d_8f89_d223,
                ],
            ),
        ];
        for (seed, words) in pinned {
            let mut r = Rng::new(seed);
            assert_eq!(words.map(|_| r.next_u64()), words, "seed {seed}");
        }
    }

    /// One draw of each kind `workload.rs` makes, from a fresh seed 42.
    #[test]
    fn draws_are_pinned() {
        let mut r = Rng::new(42);
        assert_eq!(r.between(2, 30), 15);
        assert_eq!(r.below(7), 0);
        assert_eq!(0.2 + r.unit() * (0.9 - 0.2), 0.877_619_637_484_526_6);
    }

    #[test]
    fn full_range_is_the_raw_draw() {
        let mut r = Rng::new(9);
        for _ in 0..100 {
            let mut raw = r.clone();
            assert_eq!(r.between(0, u64::MAX), raw.next_u64());
        }
    }

    #[test]
    fn draws_stay_in_bounds() {
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            assert!((3..=17).contains(&r.between(3, 17)));
            assert_eq!(r.between(5, 5), 5);
            assert!(r.below(6) < 6);
            assert!((0.0..1.0).contains(&r.unit()));
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(a.next_u64(), Rng::new(43).next_u64());
    }

    #[test]
    fn bits_are_balanced() {
        let mut r = Rng::new(7);
        let ones: u32 = (0..1000).map(|_| r.next_u64().count_ones()).sum();
        // 64,000 bits: expect about 32,000 ones.
        assert!((30_000..34_000).contains(&ones), "{ones}");
    }
}
