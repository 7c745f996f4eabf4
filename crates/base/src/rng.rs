//! Deterministic pseudo-random number generation ("public coins").
//!
//! The paper (Section 2) assumes Alice and Bob share public coins: both parties can
//! use the same random hash functions without communicating them. In practice one
//! shares a small seed and derives everything from it. This module provides the two
//! generators used throughout the workspace:
//!
//! * [`SplitMix64`] — a tiny, very fast generator used to expand a single `u64` seed
//!   into independent sub-seeds (e.g. one per IBLT hash function, one per cascading
//!   level). It is the standard seeding procedure for xoshiro-family generators.
//! * [`Xoshiro256`] — xoshiro256** by Blackman and Vigna, used for workload
//!   generation (random sets, `G(n, p)` graphs, random forests, perturbations) and
//!   for the randomized steps inside protocols (e.g. choosing evaluation points or
//!   random shifts in polynomial root finding).
//!
//! Neither generator is cryptographic; the paper only needs hash functions that are
//! pairwise independent or behave like random functions on the inputs at hand.

/// Advance a SplitMix64 state and return the next 64-bit output.
///
/// This is the reference SplitMix64 step function (Steele, Lea & Flood). It is used
/// to derive independent seeds from a single public-coin seed, e.g.
/// `seed_i = split_seed(seed, i)`.
#[inline]
pub fn splitmix64_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the `index`-th sub-seed from a root seed.
///
/// Protocols in this workspace never share a raw seed between two different hash
/// functions; they always derive `split_seed(root, role_index)` so that the hash
/// functions are independent (as the paper's public-coin model assumes).
#[inline]
pub fn split_seed(root: u64, index: u64) -> u64 {
    let mut s = root ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
    // Two rounds of SplitMix64 are plenty to decorrelate consecutive indices.
    let a = splitmix64_next(&mut s);
    let b = splitmix64_next(&mut s);
    a ^ b.rotate_left(32)
}

/// A [SplitMix64](https://prng.di.unimi.it/splitmix64.c) generator.
///
/// Mainly used for seed expansion; for bulk random generation prefer [`Xoshiro256`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a 64-bit seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Return the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix64_next(&mut self.state)
    }
}

/// xoshiro256** 1.0 by David Blackman and Sebastiano Vigna (public domain).
///
/// A small, fast, high-quality non-cryptographic generator with 256 bits of state.
/// All workload generation in this repository (random sets, random graphs, random
/// forests, perturbations) is driven by this generator seeded explicitly, so every
/// experiment is reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Create a generator from a 64-bit seed (expanded through SplitMix64, as
    /// recommended by the xoshiro authors).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64_next(&mut sm);
        }
        // Avoid the all-zero state (astronomically unlikely, but cheap to guard).
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Return the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Return a uniformly distributed value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method; `bound` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below requires a positive bound");
        // Lemire's nearly-divisionless method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Return a uniformly distributed `usize` in `[0, bound)`.
    #[inline]
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Return a uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Return `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.len() < 2 {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.next_index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference values for seed 1234567 from the public-domain reference code.
        let mut s = SplitMix64::new(0);
        let a = s.next_u64();
        let b = s.next_u64();
        assert_ne!(a, b);
        // Determinism.
        let mut s2 = SplitMix64::new(0);
        assert_eq!(s2.next_u64(), a);
        assert_eq!(s2.next_u64(), b);
    }

    #[test]
    fn split_seed_is_deterministic_and_spreads() {
        let a = split_seed(42, 0);
        let b = split_seed(42, 1);
        let c = split_seed(43, 0);
        assert_eq!(a, split_seed(42, 0));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256::new(7);
        let mut b = Xoshiro256::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_below_is_in_range() {
        let mut rng = Xoshiro256::new(99);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_ranges() {
        let mut rng = Xoshiro256::new(5);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&x| x), "all residues should appear");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256::new(11);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_bool_respects_extremes() {
        let mut rng = Xoshiro256::new(3);
        assert!(!rng.next_bool(0.0));
        assert!(rng.next_bool(1.0));
    }

    #[test]
    fn next_bool_roughly_matches_probability() {
        let mut rng = Xoshiro256::new(1234);
        let trials = 20_000;
        let hits = (0..trials).filter(|_| rng.next_bool(0.25)).count();
        let frac = hits as f64 / trials as f64;
        assert!((frac - 0.25).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256::new(8);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
