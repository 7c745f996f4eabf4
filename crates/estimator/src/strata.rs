//! The strata estimator of Eppstein, Goodrich, Uyeda & Varghese (reference `[14]`),
//! included as the baseline the paper's ℓ0 estimator improves upon.
//!
//! Elements are assigned to geometric strata (stratum `i` with probability
//! `2^{-(i+1)}`); each stratum is a small fixed-size IBLT. To estimate, the decoder
//! walks from the deepest stratum down: every stratum that decodes contributes its
//! exact count, and the first stratum that fails to decode scales the accumulated
//! count by the remaining sampling rate. Accuracy is excellent but each stratum
//! stores full keys, so the sketch is an `O(log u)` factor larger than the ℓ0
//! estimator of Theorem 3.1 — exactly the gap the paper highlights.

use crate::Side;
use recon_base::hash::hash64;
use recon_base::rng::split_seed;
use recon_base::wire::{write_uvarint, Claimed, Decode, Encode, WireError};
use recon_base::ReconError;
use recon_iblt::{Iblt, IbltConfig};

/// Configuration for [`StrataEstimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrataConfig {
    /// Number of strata (default 28, enough for differences up to ~10^8).
    pub strata: usize,
    /// Cells per stratum IBLT (default 40, the value used in the original paper).
    pub cells_per_stratum: usize,
    /// Public-coin seed.
    pub seed: u64,
}

impl Default for StrataConfig {
    fn default() -> Self {
        Self { strata: 28, cells_per_stratum: 40, seed: 0 }
    }
}

impl StrataConfig {
    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn iblt_config(&self) -> IbltConfig {
        IbltConfig::for_u64_keys(split_seed(self.seed, 0x57A7)).with_hash_count(3)
    }
}

/// The strata set difference estimator (baseline `[14]`).
#[derive(Debug, Clone, PartialEq)]
pub struct StrataEstimator {
    cfg: StrataConfig,
    strata: Vec<Iblt>,
    /// Seed of the stratum-assignment hash (split from `cfg.seed` once).
    level_seed: u64,
}

impl StrataEstimator {
    /// Create an empty estimator.
    pub fn new(cfg: &StrataConfig) -> Self {
        assert!(cfg.strata >= 2 && cfg.cells_per_stratum >= 8);
        let iblt_cfg = cfg.iblt_config();
        let strata =
            (0..cfg.strata).map(|_| Iblt::with_cells(cfg.cells_per_stratum, &iblt_cfg)).collect();
        Self::with_strata(*cfg, strata)
    }

    fn with_strata(cfg: StrataConfig, strata: Vec<Iblt>) -> Self {
        Self { cfg, strata, level_seed: split_seed(cfg.seed, 0x57A8) }
    }

    /// The configuration this estimator was built with.
    pub fn config(&self) -> &StrataConfig {
        &self.cfg
    }

    #[inline]
    fn stratum_of(&self, x: u64) -> usize {
        (hash64(x, self.level_seed).trailing_zeros() as usize).min(self.cfg.strata - 1)
    }

    /// Add element `x` to side `side`.
    #[inline]
    pub fn update(&mut self, x: u64, side: Side) {
        let stratum = self.stratum_of(x);
        match side {
            Side::A => self.strata[stratum].insert_u64(x),
            Side::B => self.strata[stratum].delete_u64(x),
        }
    }

    /// [`StrataEstimator::update`] for every element of `keys`, as one call.
    #[inline]
    pub fn update_all(&mut self, keys: impl IntoIterator<Item = u64>, side: Side) {
        keys.into_iter().for_each(|x| self.update(x, side));
    }

    /// Remove element `x` from side `side` — the exact inverse of
    /// [`StrataEstimator::update`], so a long-lived store can maintain the
    /// estimator incrementally under churn. Removing an element that was never
    /// added leaves the (signed) stratum encoding its absence, exactly as a
    /// fresh build over the final set would.
    #[inline]
    pub fn remove(&mut self, x: u64, side: Side) {
        let stratum = self.stratum_of(x);
        match side {
            Side::A => self.strata[stratum].delete_u64(x),
            Side::B => self.strata[stratum].insert_u64(x),
        }
    }

    /// Merge with another estimator built from the same configuration.
    pub fn merge(&self, other: &StrataEstimator) -> Result<StrataEstimator, ReconError> {
        if self.cfg != other.cfg {
            return Err(ReconError::InvalidInput(
                "cannot merge strata estimators with different configurations".to_string(),
            ));
        }
        let mut out = self.clone();
        for (mine, theirs) in out.strata.iter_mut().zip(&other.strata) {
            // "Merging" the A-side of one estimator with the B-side of the other is
            // cellwise addition; since Side::B updates are deletions, adding the
            // signed tables leaves exactly the difference encoding.
            mine.add_assign(theirs)?;
        }
        Ok(out)
    }

    /// Estimate the size of the symmetric difference.
    pub fn estimate(&self) -> usize {
        let mut count = 0usize;
        for i in (0..self.cfg.strata).rev() {
            let decoded = self.strata[i].decode();
            if decoded.complete {
                count += decoded.recovered();
            } else {
                // Stratum i failed: elements reach strata >= i with probability 2^-i,
                // so scale what we have seen among the deeper strata.
                return count.saturating_mul(1usize << (i + 1).min(60));
            }
        }
        count
    }

    /// Exact serialized size in bytes.
    pub fn serialized_len(&self) -> usize {
        Encode::encoded_len(self)
    }
}

impl Encode for StrataEstimator {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_uvarint(buf, self.cfg.strata as u64);
        write_uvarint(buf, self.cfg.cells_per_stratum as u64);
        buf.extend_from_slice(&self.cfg.seed.to_le_bytes());
        for s in &self.strata {
            s.encode(buf);
        }
    }
}

impl Decode for StrataEstimator {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        const HEADER: &str = "strata estimator header";
        let strata = Claimed::decode(buf)?.at_most(64, HEADER)?;
        // Every stratum is a table of this many cells, each at least a byte.
        let cells_per_stratum = Claimed::decode(buf)?.items_in(buf, 1)?;
        let seed = u64::decode(buf)?;
        if strata < 2 || cells_per_stratum < 8 {
            return Err(WireError::Invalid(HEADER));
        }
        let cfg = StrataConfig { strata, cells_per_stratum, seed };
        // A header that matches the receiver's public configuration must not
        // vouch for the tables under it: each stratum has to be the table
        // `new` builds for this header, or `merge` would meet a foreign bank.
        let iblt_cfg = cfg.iblt_config();
        let cells = cells_per_stratum.checked_next_multiple_of(iblt_cfg.hash_count);
        let mut tables = Vec::with_capacity(strata);
        for _ in 0..strata {
            let table = <Iblt as Decode>::decode(buf)?;
            if table.key_bytes() != iblt_cfg.key_bytes
                || table.hash_count() != iblt_cfg.hash_count
                || table.seed() != iblt_cfg.seed
                || Some(table.cells()) != cells
            {
                return Err(WireError::Invalid("strata estimator stratum geometry"));
            }
            tables.push(table);
        }
        Ok(StrataEstimator::with_strata(cfg, tables))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_pair(n: usize, d: usize, seed: u64) -> (StrataEstimator, StrataEstimator) {
        let cfg = StrataConfig::default().with_seed(seed);
        let mut alice = StrataEstimator::new(&cfg);
        let mut bob = StrataEstimator::new(&cfg);
        for x in 0..n as u64 {
            alice.update(x, Side::A);
            bob.update(x, Side::B);
        }
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
    fn zero_difference_estimates_zero() {
        let (a, b) = build_pair(2000, 0, 3);
        assert_eq!(a.merge(&b).unwrap().estimate(), 0);
    }

    #[test]
    fn small_differences_are_exact_or_close() {
        for d in [1usize, 3, 8, 20] {
            let (a, b) = build_pair(5000, d, 17 + d as u64);
            let est = a.merge(&b).unwrap().estimate();
            assert!(est >= d / 2 && est <= d * 2 + 2, "d = {d}, est = {est}");
        }
    }

    #[test]
    fn large_differences_within_factor_two_ish() {
        for d in [200usize, 1000, 5000] {
            let (a, b) = build_pair(20_000, d, 29 + d as u64);
            let est = a.merge(&b).unwrap().estimate();
            assert!(est >= d / 3 && est <= d * 3, "d = {d}, est = {est}");
        }
    }

    #[test]
    fn incremental_updates_match_fresh_build() {
        // Interleaved adds and removes must land bit-identically on a fresh
        // build over the surviving elements, for both sides.
        let cfg = StrataConfig::default().with_seed(11);
        for side in [Side::A, Side::B] {
            let mut churned = StrataEstimator::new(&cfg);
            let mut live: Vec<u64> = Vec::new();
            for x in 0..300u64 {
                churned.update(x, side);
                live.push(x);
                if x % 3 == 0 {
                    let victim = live.remove(live.len() / 2);
                    churned.remove(victim, side);
                }
            }
            let mut fresh = StrataEstimator::new(&cfg);
            for &x in &live {
                fresh.update(x, side);
            }
            assert_eq!(churned, fresh);
        }
    }

    #[test]
    fn merge_requires_same_config() {
        let a = StrataEstimator::new(&StrataConfig::default().with_seed(1));
        let b = StrataEstimator::new(&StrataConfig::default().with_seed(2));
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (a, _) = build_pair(500, 6, 5);
        let bytes = a.to_bytes();
        assert_eq!(bytes.len(), a.serialized_len());
        assert_eq!(StrataEstimator::from_bytes(&bytes).unwrap(), a);
    }

    #[test]
    fn strata_sketch_is_larger_than_l0_sketch() {
        // The whole point of Theorem 3.1: the l0 estimator drops the O(log u) factor.
        let strata = StrataEstimator::new(&StrataConfig::default().with_seed(1));
        let l0 = crate::L0Estimator::new(&crate::L0Config::default().with_seed(1));
        assert!(
            strata.serialized_len() > 3 * l0.serialized_len(),
            "strata {} bytes vs l0 {} bytes",
            strata.serialized_len(),
            l0.serialized_len()
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(StrataEstimator::from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn decode_rejects_strata_that_do_not_match_the_header() {
        // An honest header over foreign tables: each variant used to parse and
        // then unwind `merge` on the receiving replica.
        let cfg = StrataConfig::default().with_seed(9);
        let honest = StrataEstimator::new(&cfg);
        let good = cfg.iblt_config();
        // 42 cells: also a multiple of 2, so each variant differs in one field.
        let cells = honest.strata[0].cells();
        let hostile = [
            ("cell count", Iblt::with_cells(2 * cells, &good)),
            ("key width", Iblt::with_cells(cells, &IbltConfig { key_bytes: 4, ..good })),
            ("seed", Iblt::with_cells(cells, &good.with_seed(good.seed ^ 1))),
            ("hash count", Iblt::with_cells(cells, &good.with_hash_count(2))),
        ];
        for (what, table) in hostile {
            let forged = StrataEstimator::with_strata(cfg, vec![table; cfg.strata]);
            let parsed = StrataEstimator::from_bytes(&forged.to_bytes());
            assert!(parsed.is_err(), "a stratum with the wrong {what} parsed");
        }
        assert_eq!(StrataEstimator::from_bytes(&honest.to_bytes()).unwrap(), honest);
    }
}
