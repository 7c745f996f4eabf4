//! The ℓ0-norm based set difference estimator of Theorem 3.1 / Appendix A.
//!
//! Model the symmetric difference as a vector indexed by the universe whose entries
//! lie in {−1, 0, +1} (+1 for elements only in S1, −1 for elements only in S2). Its
//! ℓ0 norm is exactly the set difference size. The estimator keeps, for each of
//! `reps` repetitions, `levels` geometric sub-streams; an element belongs to level
//! `i` with probability `2^{-(i+1)}`. Each level hashes its elements into a
//! constant number of buckets holding 2-bit counters: the count of elements mod 4.
//! An element present on both sides cancels (+1 then −1), so only differing elements
//! leave a trace — which is what makes the sketch an estimator of the *difference*
//! rather than of the sets.
//!
//! A key is mixed once, `h = hash64(x, key_seed)`, and every repetition slices
//! its (level, bucket) pair from that one mix. Repetition `r` forms the wrapping
//! product `v = (h ⊕ k_r) · a_r` with `a_r` odd, then `v · buckets` in 128 bits:
//! the high word is the bucket (a multiply-high, so any bucket count works) and
//! the level is the number of leading zero bits of the low word, capped at
//! `levels − 1`. For a power-of-two bucket count those are disjoint runs of
//! `v`'s high bits, the bucket's first. The evidence that this family keeps the
//! paper's guarantee is statistical, not a proof: `tests/l0_accuracy.rs` checks
//! the level shares against `2^{-(i+1)}`, bucket uniformity, and the estimate on
//! random and structured key sets.
//!
//! Querying finds, per repetition, the deepest level whose number of non-zero buckets
//! exceeds the threshold (8, as in the paper) and scales it back up by the level's
//! sampling rate; if no level is busy the per-level counts are summed directly, which
//! is essentially exact for small differences. The median over repetitions is
//! returned. The guarantee matches the paper's: a constant-factor approximation with
//! probability `1 − δ` using `O(log(1/δ) log n)` bits.

use crate::Side;
use recon_base::hash::hash64;
use recon_base::rng::split_seed;
use recon_base::wire::{write_uvarint, Claimed, Decode, Encode, WireError};
use recon_base::ReconError;

/// Configuration for [`L0Estimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L0Config {
    /// Number of independent repetitions whose median is reported
    /// (`O(log(1/δ))`; default 9).
    pub reps: usize,
    /// Number of geometric levels (`log n`; default 48, enough for any difference
    /// that fits in memory).
    pub levels: usize,
    /// Buckets per level (the paper's constant `Θ(c^2)`; default 32).
    pub buckets: usize,
    /// Busy-level threshold (the paper uses 8).
    pub threshold: usize,
    /// Public-coin seed.
    pub seed: u64,
}

impl Default for L0Config {
    fn default() -> Self {
        Self { reps: 9, levels: 48, buckets: 32, threshold: 8, seed: 0 }
    }
}

impl L0Config {
    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One repetition's slice of a key's mix, `v = (h ^ xor) · mul` (module doc),
/// derived from the seed once per estimator so that no update re-derives it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RepPlan {
    xor: u64,
    /// Odd, so `v` is a bijection of `h`.
    mul: u64,
}

/// The ℓ0-norm set difference estimator (Theorem 3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct L0Estimator {
    cfg: L0Config,
    /// Rep-major: `counters[(rep * levels + level) * buckets + bucket]`, each
    /// value in 0..4 (mod-4 counter).
    counters: Vec<u8>,
    /// Seed of the one strong mix a key gets per update; a function of `cfg`.
    key_seed: u64,
    /// One entry per repetition, a function of `cfg` alone.
    plan: Vec<RepPlan>,
}

impl L0Estimator {
    /// Create an empty estimator.
    pub fn new(cfg: &L0Config) -> Self {
        assert!(cfg.reps >= 1 && cfg.levels >= 1 && cfg.buckets >= 4);
        Self::with_counters(*cfg, vec![0u8; cfg.reps * cfg.levels * cfg.buckets])
    }

    fn with_counters(cfg: L0Config, counters: Vec<u8>) -> Self {
        let plan = (0..cfg.reps as u64)
            .map(|rep| RepPlan {
                xor: split_seed(cfg.seed, 0x1000 + rep),
                mul: split_seed(cfg.seed, 0x2000 + rep) | 1,
            })
            .collect();
        Self { cfg, counters, key_seed: split_seed(cfg.seed, 0x3000), plan }
    }

    fn per_rep(&self) -> usize {
        self.cfg.levels * self.cfg.buckets
    }

    /// The configuration this estimator was built with.
    pub fn config(&self) -> &L0Config {
        &self.cfg
    }

    /// Add element `x` to side `side` (the paper's *update* operation): one
    /// mod-4 counter per repetition.
    #[inline]
    pub fn update(&mut self, x: u64, side: Side) {
        let delta: u8 = match side {
            Side::A => 1,
            Side::B => 3, // ≡ −1 (mod 4)
        };
        let h = hash64(x, self.key_seed);
        let (deepest, buckets) = (self.cfg.levels - 1, self.cfg.buckets);
        let per_rep = self.per_rep();
        for (rep, counters) in self.plan.iter().zip(self.counters.chunks_exact_mut(per_rep)) {
            let v = (h ^ rep.xor).wrapping_mul(rep.mul);
            let scaled = u128::from(v) * buckets as u128;
            let bucket = (scaled >> 64) as usize;
            let level = ((scaled as u64).leading_zeros() as usize).min(deepest);
            let slot = &mut counters[level * buckets + bucket];
            *slot = (*slot + delta) & 3;
        }
    }

    /// [`L0Estimator::update`] for every element of `keys`, as one call.
    #[inline]
    pub fn update_all(&mut self, keys: impl IntoIterator<Item = u64>, side: Side) {
        keys.into_iter().for_each(|x| self.update(x, side));
    }

    /// Merge with another estimator built from the same configuration (the paper's
    /// *merge* operation); returns the combined estimator.
    pub fn merge(&self, other: &L0Estimator) -> Result<L0Estimator, ReconError> {
        if self.cfg != other.cfg {
            return Err(ReconError::InvalidInput(
                "cannot merge l0 estimators with different configurations".to_string(),
            ));
        }
        let mut out = self.clone();
        for (a, b) in out.counters.iter_mut().zip(&other.counters) {
            *a = (*a + *b) & 3;
        }
        Ok(out)
    }

    /// Estimate the size of the symmetric difference (the paper's *query* operation).
    ///
    /// Guaranteed to be within a constant factor of the truth with probability
    /// `1 − δ` for `reps = O(log 1/δ)`; returns 0 only when no difference left any
    /// trace in any repetition.
    pub fn estimate(&self) -> usize {
        let mut per_rep: Vec<usize> =
            self.counters.chunks_exact(self.per_rep()).map(|rep| self.estimate_rep(rep)).collect();
        per_rep.sort_unstable();
        per_rep[per_rep.len() / 2]
    }

    fn estimate_rep(&self, counters: &[u8]) -> usize {
        let b = self.cfg.buckets;
        let nonzero_at = |level: usize| -> usize {
            counters[level * b..(level + 1) * b].iter().filter(|&&c| c != 0).count()
        };
        // Deepest busy level, scaled back by its sampling rate.
        for level in (0..self.cfg.levels).rev() {
            let busy = nonzero_at(level);
            if busy > self.cfg.threshold {
                // Elements reach level `level` with probability 2^-(level+1); the
                // non-zero bucket count slightly undercounts because of collisions,
                // so apply the standard coupon-collector correction.
                let corrected = occupancy_correction(busy, b);
                return corrected.saturating_mul(1usize << (level + 1).min(60));
            }
        }
        // No busy level: the difference is small, so the per-level non-zero bucket
        // counts sum to (approximately) the exact difference.
        (0..self.cfg.levels).map(nonzero_at).sum()
    }

    /// Exact serialized size in bytes (buckets are packed 4 per byte).
    pub fn serialized_len(&self) -> usize {
        Encode::encoded_len(self)
    }
}

/// Invert the balls-in-bins occupancy expectation: if `busy` of `buckets` buckets are
/// non-empty, the maximum-likelihood number of balls is
/// `ln(1 − busy/buckets) / ln(1 − 1/buckets)`.
fn occupancy_correction(busy: usize, buckets: usize) -> usize {
    if busy >= buckets {
        // Saturated: all we know is that the count is at least ~buckets·ln(buckets).
        return buckets * 3;
    }
    let frac = busy as f64 / buckets as f64;
    let est = (1.0 - frac).ln() / (1.0 - 1.0 / buckets as f64).ln();
    est.round().max(busy as f64) as usize
}

impl Encode for L0Estimator {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_uvarint(buf, self.cfg.reps as u64);
        write_uvarint(buf, self.cfg.levels as u64);
        write_uvarint(buf, self.cfg.buckets as u64);
        write_uvarint(buf, self.cfg.threshold as u64);
        buf.extend_from_slice(&self.cfg.seed.to_le_bytes());
        for rep in self.counters.chunks_exact(self.per_rep()) {
            // Pack 4 two-bit counters per byte, each repetition from a fresh byte.
            for chunk in rep.chunks(4) {
                let mut byte = 0u8;
                for (i, &c) in chunk.iter().enumerate() {
                    byte |= (c & 3) << (2 * i);
                }
                buf.push(byte);
            }
        }
    }
}

impl Decode for L0Estimator {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        const HEADER: &str = "l0 estimator header";
        let claimed_reps = Claimed::decode(buf)?;
        let reps = claimed_reps.at_most(1024, HEADER)?;
        let levels = Claimed::decode(buf)?.at_most(64, HEADER)?;
        // A repetition's `levels · buckets` counters must be countable.
        let buckets = Claimed::decode(buf)?.at_most(usize::MAX / levels.max(1), HEADER)?;
        // The busy-level threshold sizes nothing.
        let threshold = Claimed::decode(buf)?.at_most(usize::MAX, HEADER)?;
        let seed = u64::decode(buf)?;
        // `new`'s bounds, on a header a peer wrote.
        if reps == 0 || levels == 0 || buckets < 4 {
            return Err(WireError::Invalid(HEADER));
        }
        let cfg = L0Config { reps, levels, buckets, threshold, seed };
        // The whole plane, bounded by the bytes present before anything is
        // allocated for it (so `reps * per_rep ≤ 4 · buf.len()` below).
        let per_rep = levels * buckets;
        let packed = per_rep.div_ceil(4);
        claimed_reps.items_in(buf, packed)?;
        let (bytes, rest) = buf.split_at(reps * packed);
        *buf = rest;
        let mut counters = Vec::with_capacity(reps * per_rep);
        for rep in bytes.chunks_exact(packed) {
            counters.extend((0..per_rep).map(|i| (rep[i / 4] >> (2 * (i % 4))) & 3));
        }
        Ok(L0Estimator::with_counters(cfg, counters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_base::rng::Xoshiro256;

    fn build_pair(n: usize, d: usize, seed: u64) -> (L0Estimator, L0Estimator) {
        // Alice holds 0..n, Bob holds d..n+d shifted by a large offset for his extra
        // elements so both one-sided differences are exercised.
        let cfg = L0Config::default().with_seed(seed);
        let mut alice = L0Estimator::new(&cfg);
        let mut bob = L0Estimator::new(&cfg);
        for x in 0..n as u64 {
            alice.update(x, Side::A);
            bob.update(x, Side::B);
        }
        // Introduce d differences: d/2 only-Alice, d/2 only-Bob.
        for i in 0..(d / 2) as u64 {
            alice.update(u64::MAX - i, Side::A);
            bob.update(u64::MAX / 2 + i, Side::B);
        }
        if d % 2 == 1 {
            alice.update(u64::MAX / 4, Side::A);
        }
        (alice, bob)
    }

    #[test]
    fn empty_difference_estimates_zero() {
        let (alice, bob) = build_pair(5000, 0, 1);
        assert_eq!(alice.merge(&bob).unwrap().estimate(), 0);
    }

    #[test]
    fn small_differences_are_essentially_exact() {
        for d in [1usize, 2, 4, 8] {
            let (alice, bob) = build_pair(10_000, d, 7 + d as u64);
            let est = alice.merge(&bob).unwrap().estimate();
            assert!(est >= d.saturating_sub(1) && est <= d * 2 + 2, "d = {d}, estimate = {est}");
        }
    }

    #[test]
    fn large_differences_within_constant_factor() {
        for d in [64usize, 256, 1024, 4096] {
            let (alice, bob) = build_pair(20_000, d, 1000 + d as u64);
            let est = alice.merge(&bob).unwrap().estimate();
            assert!(est >= d / 4 && est <= d * 4, "d = {d}, estimate = {est} outside [d/4, 4d]");
        }
    }

    #[test]
    fn shared_elements_cancel_out() {
        // Identical huge sets with zero difference must not inflate the estimate.
        let cfg = L0Config::default().with_seed(3);
        let mut alice = L0Estimator::new(&cfg);
        let mut bob = L0Estimator::new(&cfg);
        let mut rng = Xoshiro256::new(9);
        for _ in 0..50_000 {
            let x = rng.next_u64();
            alice.update(x, Side::A);
            bob.update(x, Side::B);
        }
        assert_eq!(alice.merge(&bob).unwrap().estimate(), 0);
    }

    #[test]
    fn merge_requires_same_config() {
        let a = L0Estimator::new(&L0Config::default().with_seed(1));
        let b = L0Estimator::new(&L0Config::default().with_seed(2));
        assert!(a.merge(&b).is_err());
        let c = L0Estimator::new(&L0Config { buckets: 64, ..L0Config::default().with_seed(1) });
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (alice, _) = build_pair(1000, 10, 5);
        let bytes = alice.to_bytes();
        assert_eq!(bytes.len(), alice.serialized_len());
        let back = L0Estimator::from_bytes(&bytes).unwrap();
        assert_eq!(back, alice);
    }

    #[test]
    fn serialized_size_is_independent_of_set_size() {
        let (small, _) = build_pair(100, 4, 5);
        let (large, _) = build_pair(100_000, 4, 5);
        assert_eq!(small.serialized_len(), large.serialized_len());
        // 9 reps * 48 levels * 32 buckets * 2 bits = 3456 bytes + header.
        assert!(small.serialized_len() < 4_096, "size = {}", small.serialized_len());
    }

    #[test]
    fn decode_rejects_truncation_and_garbage() {
        let (alice, _) = build_pair(100, 4, 5);
        let bytes = alice.to_bytes();
        assert!(L0Estimator::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(L0Estimator::from_bytes(&[0xFF; 3]).is_err());
        // `levels * buckets` overflows; fewer buckets than `new` accepts.
        for (levels, buckets) in [(64, u64::MAX / 2), (48, 3)] {
            let mut header = Vec::new();
            [9, levels, buckets, 8].iter().for_each(|&v| write_uvarint(&mut header, v));
            header.extend_from_slice(&[0u8; 8 + 64]);
            assert!(L0Estimator::from_bytes(&header).is_err(), "{levels} x {buckets}");
        }
    }

    #[test]
    fn decode_bounds_the_plane_by_the_bytes_present() {
        // 2^54 packed bytes claimed over 100; then `reps * packed` past `usize`.
        for buckets in [1u64 << 40, 1 << 52] {
            let mut bytes = Vec::new();
            [1024, 64, buckets, 8].iter().for_each(|&v| write_uvarint(&mut bytes, v));
            bytes.extend_from_slice(&[0u8; 8 + 100]);
            assert!(L0Estimator::decode(&mut bytes.as_slice()).is_err(), "64 x {buckets}");
        }
    }

    #[test]
    fn occupancy_correction_is_monotone() {
        let mut prev = 0;
        for busy in 0..32 {
            let est = occupancy_correction(busy, 32);
            assert!(est >= prev);
            prev = est;
        }
        assert_eq!(occupancy_correction(0, 32), 0);
        assert!(occupancy_correction(32, 32) >= 32);
    }

    #[test]
    fn update_is_symmetric_between_one_and_two_structures() {
        // Updating a single estimator with both sides must equal merging two
        // single-sided estimators.
        let cfg = L0Config::default().with_seed(11);
        let mut joint = L0Estimator::new(&cfg);
        let mut alice = L0Estimator::new(&cfg);
        let mut bob = L0Estimator::new(&cfg);
        for x in 0..500u64 {
            joint.update(x, Side::A);
            alice.update(x, Side::A);
        }
        for x in 400..900u64 {
            joint.update(x, Side::B);
            bob.update(x, Side::B);
        }
        assert_eq!(joint, alice.merge(&bob).unwrap());
    }
}
