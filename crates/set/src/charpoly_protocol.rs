//! Characteristic-polynomial set reconciliation (Theorem 2.3, after Minsky,
//! Trachtenberg & Zippel).
//!
//! Alice represents her set `S_A` by its characteristic polynomial
//! `χ_{S_A}(z) = ∏_{x ∈ S_A} (z − x)` over GF(2^61 − 1) and sends its evaluations at
//! `d + 1` agreed-upon points lying *outside the universe* (so they can never be
//! roots). Bob evaluates his own characteristic polynomial at the same points, forms
//! the ratios `f_i = χ_{S_A}(z_i) / χ_{S_B}(z_i)`, and interpolates the reduced
//! rational function `χ_{S_A \ S_B} / χ_{S_B \ S_A}`. The paper solves the linear
//! system for its monic numerator and denominator by Gaussian elimination in
//! `O(d^3)`; here one polynomial interpolation plus extended-Euclidean rational
//! reconstruction finds the same fraction in `O(d^2)`. Dividing out the common
//! factor and finding the roots of numerator and denominator yields the two
//! one-sided differences exactly —
//! this protocol succeeds with probability 1 whenever the bound `d` is correct, which
//! is why Theorem 3.9 uses it for child sets with very small differences.

use crate::diff::SetDiff;
use recon_base::hash::hash_u64_set;
use recon_base::rng::split_seed;
use recon_base::wire::{Decode, Encode, WireError};
use recon_base::ReconError;
use recon_field::{batch_invert, find_roots, interpolate, rational_reconstruct, Fp, Poly};
use std::collections::HashSet;

/// Alice's one-round message for the characteristic-polynomial protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CharPolyDigest {
    /// Evaluations of `χ_{S_A}` at the first `d + 1` agreed evaluation points.
    pub evaluations: Vec<u64>,
    /// `|S_A|` (needed to determine the degrees of the interpolated numerator and
    /// denominator).
    pub cardinality: u64,
    /// Order-independent hash of Alice's set, for end-to-end verification.
    pub set_hash: u64,
}

impl Encode for CharPolyDigest {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.evaluations.encode(buf);
        self.cardinality.encode(buf);
        self.set_hash.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.evaluations.encoded_len() + 8 + 8
    }
}

impl Decode for CharPolyDigest {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(CharPolyDigest {
            evaluations: Vec::<u64>::decode(buf)?,
            cardinality: u64::decode(buf)?,
            set_hash: u64::decode(buf)?,
        })
    }
}

/// The exact, one-round characteristic-polynomial reconciliation protocol
/// (Theorem 2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CharPolyProtocol {
    seed: u64,
}

impl CharPolyProtocol {
    /// Bound on universe elements: `2^60`, leaving plenty of field elements
    /// above the universe to serve as evaluation points.
    pub const DEFAULT_UNIVERSE_BOUND: u64 = 1 << 60;

    /// Create a protocol instance from a shared seed; the universe is
    /// `[0, DEFAULT_UNIVERSE_BOUND)`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The shared seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn set_hash_seed(&self) -> u64 {
        split_seed(self.seed, 0xC6A9)
    }

    /// The `i`-th agreed evaluation point (deterministic, outside the universe).
    fn point(&self, i: usize) -> Fp {
        Fp::new(Self::DEFAULT_UNIVERSE_BOUND + i as u64)
    }

    fn check_element(&self, x: u64) -> Result<(), ReconError> {
        if x >= Self::DEFAULT_UNIVERSE_BOUND {
            return Err(ReconError::InvalidInput(format!(
                "element {x} is outside the universe bound {}",
                Self::DEFAULT_UNIVERSE_BOUND
            )));
        }
        Ok(())
    }

    /// Alice's side: evaluate her characteristic polynomial at `d + 1` points.
    ///
    /// Communication is `(d + 1)` field elements (`O(d log u)` bits); time is
    /// `O(n · d)` field operations (each point is a product over the set).
    pub fn digest<'a, I>(&self, set: I, d: usize) -> Result<CharPolyDigest, ReconError>
    where
        I: IntoIterator<Item = &'a u64>,
    {
        let elements: Vec<u64> = set.into_iter().copied().collect();
        for &x in &elements {
            self.check_element(x)?;
        }
        let points: Vec<Fp> = (0..=d).map(|i| self.point(i)).collect();
        let mut evals = vec![Fp::ONE; points.len()];
        for &x in &elements {
            let fx = Fp::new(x);
            for (e, &z) in evals.iter_mut().zip(&points) {
                *e *= z - fx;
            }
        }
        Ok(CharPolyDigest {
            evaluations: evals.into_iter().map(Fp::value).collect(),
            cardinality: elements.len() as u64,
            set_hash: hash_u64_set(elements, self.set_hash_seed()),
        })
    }

    /// Bob's side: compute the exact set difference from Alice's digest.
    pub fn diff(
        &self,
        digest: &CharPolyDigest,
        local: &HashSet<u64>,
    ) -> Result<SetDiff, ReconError> {
        for &x in local {
            self.check_element(x)?;
        }
        let d = digest.evaluations.len().saturating_sub(1);
        // The cardinality is the peer's word: compare it in `i128`, where any
        // `u64` minus any set size fits, and `|delta| ≤ d` then fits an `i64`.
        let delta = i128::from(digest.cardinality) - local.len() as i128;
        if delta.unsigned_abs() > d as u128 {
            return Err(ReconError::DifferenceBoundTooSmall { bound: d });
        }
        let delta = delta as i64;
        // Choose the largest usable degree budget with the parity of `delta`
        // (|S_A \ S_B| + |S_B \ S_A| always has the parity of their difference).
        let d_use = if (d as i64 - delta.abs()) % 2 == 0 { d } else { d - 1 };
        let deg_missing = ((d_use as i64 + delta) / 2) as usize;
        let deg_extra = d_use - deg_missing;

        if d_use == 0 {
            // Bound says the sets are identical.
            return Ok(SetDiff::default());
        }

        // The digest carries `d + 1 ≥ d_use + 1` evaluations; use one more point
        // than the degree budget so the structured solve below has a uniqueness
        // margin (any two candidate fractions within the degree bounds agree on
        // `deg P + deg Q + 1` points only if they are equal).
        let points: Vec<Fp> = (0..=d_use).map(|i| self.point(i)).collect();
        // Bob's evaluations, then the ratios f_i = χ_{S_A}(z_i) / χ_{S_B}(z_i)
        // via one batched inversion.
        let mut local_evals = vec![Fp::ONE; points.len()];
        for &x in local {
            let fx = Fp::new(x);
            for (e, &z) in local_evals.iter_mut().zip(&points) {
                *e *= z - fx;
            }
        }
        let mut inverses = local_evals;
        let all_nonzero = batch_invert(&mut inverses);
        debug_assert!(all_nonzero, "evaluation points lie outside the universe");
        if !all_nonzero {
            return Err(ReconError::InterpolationFailure);
        }
        let ratios: Vec<Fp> = digest.evaluations[..points.len()]
            .iter()
            .zip(&inverses)
            .map(|(&a, &inv)| Fp::new(a) * inv)
            .collect();

        // The reduced monic fraction is unique whenever the bound is honest, so
        // a solve that finds none means the bound was violated.
        let (p_reduced, q_reduced) =
            structured_reduced_fraction(&points, &ratios, deg_missing, deg_extra, delta)
                .ok_or(ReconError::DifferenceBoundTooSmall { bound: d })?;

        let missing_roots = find_roots(&p_reduced, split_seed(self.seed, 0xF00D));
        let extra_roots = find_roots(&q_reduced, split_seed(self.seed, 0xF00E));
        if missing_roots.len() != p_reduced.degree().unwrap_or(0)
            || extra_roots.len() != q_reduced.degree().unwrap_or(0)
        {
            return Err(ReconError::InterpolationFailure);
        }

        let missing: Vec<u64> = missing_roots.into_iter().map(Fp::value).collect();
        let extra: Vec<u64> = extra_roots.into_iter().map(Fp::value).collect();
        // Every recovered element must lie inside the universe.
        if missing.iter().chain(&extra).any(|&x| x >= Self::DEFAULT_UNIVERSE_BOUND) {
            return Err(ReconError::InterpolationFailure);
        }
        Ok(SetDiff { missing, extra })
    }

    /// Bob's side: fully recover Alice's set and verify it against her set hash.
    pub fn reconcile(
        &self,
        digest: &CharPolyDigest,
        local: &HashSet<u64>,
    ) -> Result<HashSet<u64>, ReconError> {
        let diff = self.diff(digest, local)?;
        let bound = digest.evaluations.len().saturating_sub(1);
        let seed = self.set_hash_seed();
        diff.apply(local)
            .filter(|_| diff.verify(local, seed, digest.cardinality, digest.set_hash))
            .ok_or(ReconError::DifferenceBoundTooSmall { bound })
    }
}

/// Structured `O(d^2)` solve of the rational-interpolation system: interpolate
/// the ratio values into a single polynomial `N`, then run extended-Euclidean
/// rational reconstruction against `M = ∏(z − z_i)` and reduce.
///
/// `points` must have `deg_missing + deg_extra + 1` entries; with that margin a
/// reduced monic pair passing the degree/`delta` checks below is unique, so it
/// is exactly the fraction the paper's Gaussian elimination would find. Returns
/// `None` whenever the checks fail, which means the difference bound was
/// violated.
fn structured_reduced_fraction(
    points: &[Fp],
    ratios: &[Fp],
    deg_missing: usize,
    deg_extra: usize,
    delta: i64,
) -> Option<(Poly, Poly)> {
    debug_assert_eq!(points.len(), deg_missing + deg_extra + 1);
    let modulus = Poly::from_roots(points);
    let interpolant = interpolate(points, ratios)?;
    let (r, t) = rational_reconstruct(&modulus, &interpolant, deg_missing)?;
    if r.is_zero() {
        return None;
    }
    let g = r.gcd(&t);
    let (p_reduced, rem_p) = r.divmod(&g);
    let (q_reduced, rem_q) = t.divmod(&g);
    debug_assert!(rem_p.is_zero() && rem_q.is_zero());
    let p_reduced = p_reduced.monic();
    let q_reduced = q_reduced.monic();
    let dp = p_reduced.degree()? as i64;
    let dq = q_reduced.degree().unwrap_or(0) as i64;
    // The true reduced fraction has deg P − deg Q = |S_A| − |S_B| and respects
    // both degree budgets; anything else means the bound was wrong.
    (dp - dq == delta && dp <= deg_missing as i64 && dq <= deg_extra as i64)
        .then_some((p_reduced, q_reduced))
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_base::rng::Xoshiro256;

    fn random_sets(n: usize, d: usize, seed: u64) -> (HashSet<u64>, HashSet<u64>) {
        let mut rng = Xoshiro256::new(seed);
        let mut alice: HashSet<u64> = (0..n).map(|_| rng.next_below(1 << 50)).collect();
        let mut bob = alice.clone();
        for _ in 0..d / 2 {
            alice.insert(rng.next_below(1 << 50));
        }
        for _ in 0..(d - d / 2) {
            bob.insert(rng.next_below(1 << 50));
        }
        (alice, bob)
    }

    #[test]
    fn a_cardinality_past_i64_is_refused_not_overflowed() {
        let (alice, bob) = random_sets(50, 4, 2);
        let protocol = CharPolyProtocol::new(5);
        let honest = protocol.digest(&alice, 8).unwrap();
        for cardinality in [1u64 << 63, u64::MAX] {
            let hostile = CharPolyDigest { cardinality, ..honest.clone() };
            assert_eq!(
                protocol.diff(&hostile, &bob),
                Err(ReconError::DifferenceBoundTooSmall { bound: 8 }),
                "cardinality {cardinality}"
            );
        }
    }

    #[test]
    fn identical_sets_yield_empty_diff() {
        let (alice, _) = random_sets(200, 0, 1);
        let protocol = CharPolyProtocol::new(3);
        let digest = protocol.digest(&alice, 6).unwrap();
        assert!(protocol.diff(&digest, &alice).unwrap().is_empty());
        assert_eq!(protocol.reconcile(&digest, &alice).unwrap(), alice);
    }

    #[test]
    fn exact_recovery_for_small_differences() {
        for d in [1usize, 2, 3, 5, 8, 16] {
            let (alice, bob) = random_sets(400, d, 10 + d as u64);
            let protocol = CharPolyProtocol::new(77);
            let digest = protocol.digest(&alice, d).unwrap();
            assert_eq!(protocol.reconcile(&digest, &bob).unwrap(), alice, "d = {d}");
        }
    }

    #[test]
    fn works_when_bound_exceeds_actual_difference() {
        // d is only an upper bound; the interpolated system is underdetermined and
        // the common-factor division must clean it up.
        let (alice, bob) = random_sets(300, 4, 5);
        let protocol = CharPolyProtocol::new(9);
        for bound in [4usize, 5, 9, 16, 31] {
            let digest = protocol.digest(&alice, bound).unwrap();
            assert_eq!(protocol.reconcile(&digest, &bob).unwrap(), alice, "bound = {bound}");
        }
    }

    #[test]
    fn exact_recovery_for_larger_differences() {
        let (alice, bob) = random_sets(500, 96, 21);
        let protocol = CharPolyProtocol::new(13);
        let digest = protocol.digest(&alice, 110).unwrap();
        assert_eq!(protocol.reconcile(&digest, &bob).unwrap(), alice);
    }

    #[test]
    fn bound_too_small_is_detected() {
        let (alice, bob) = random_sets(300, 40, 33);
        let protocol = CharPolyProtocol::new(5);
        let digest = protocol.digest(&alice, 6).unwrap();
        assert!(protocol.reconcile(&digest, &bob).is_err());
    }

    #[test]
    fn elements_outside_universe_are_rejected() {
        let protocol = CharPolyProtocol::new(1);
        let bad: HashSet<u64> =
            [CharPolyProtocol::DEFAULT_UNIVERSE_BOUND, u64::MAX].into_iter().collect();
        assert!(protocol.digest(&bad, 2).is_err());
        let good: HashSet<u64> = [5u64].into_iter().collect();
        let digest = protocol.digest(&good, 2).unwrap();
        assert!(protocol.diff(&digest, &bad).is_err());
    }

    #[test]
    fn one_sided_differences() {
        let protocol = CharPolyProtocol::new(17);
        let alice: HashSet<u64> = (0..100).collect();
        let bob: HashSet<u64> = (0..90).collect();
        let digest = protocol.digest(&alice, 10).unwrap();
        let diff = protocol.diff(&digest, &bob).unwrap().sorted();
        assert_eq!(diff.missing, (90..100).collect::<Vec<_>>());
        assert!(diff.extra.is_empty());
        let bob_superset: HashSet<u64> = (0..105).collect();
        let digest2 = protocol.digest(&alice, 5).unwrap();
        let diff2 = protocol.diff(&digest2, &bob_superset).unwrap().sorted();
        assert!(diff2.missing.is_empty());
        assert_eq!(diff2.extra, (100..105).collect::<Vec<_>>());
    }

    #[test]
    fn structured_path_solves_tight_and_loose_bounds() {
        // The structured solver must carry both the tight case (degree budget
        // exactly the true difference) and the loose case (budget padded, so
        // numerator and denominator share a spurious common factor) — it is the
        // only solver, so a miss on an honest bound would fail the session.
        let missing: Vec<Fp> = [3u64, 77, 1234].iter().map(|&x| Fp::new(x)).collect();
        let extra: Vec<Fp> = [500u64, 9000].iter().map(|&x| Fp::new(x)).collect();
        let p_true = Poly::from_roots(&missing);
        let q_true = Poly::from_roots(&extra);
        let delta = missing.len() as i64 - extra.len() as i64;
        for slack in [0usize, 2, 5] {
            let deg_missing = missing.len() + slack;
            let deg_extra = extra.len() + slack;
            let points: Vec<Fp> =
                (0..=(deg_missing + deg_extra) as u64).map(|i| Fp::new((1 << 60) + i)).collect();
            let ratios: Vec<Fp> = points.iter().map(|&z| p_true.eval(z) / q_true.eval(z)).collect();
            let (p_red, q_red) =
                structured_reduced_fraction(&points, &ratios, deg_missing, deg_extra, delta)
                    .unwrap_or_else(|| panic!("structured path must solve (slack {slack})"));
            assert_eq!(p_red, p_true, "slack {slack}");
            assert_eq!(q_red, q_true, "slack {slack}");
        }
    }

    #[test]
    fn structured_path_rejects_violated_bounds() {
        // Five genuine differences but a budget of two: the structured solver
        // must refuse (degree/delta check) rather than hand back garbage.
        let missing: Vec<Fp> = (0..5u64).map(|i| Fp::new(i * 13 + 2)).collect();
        let p_true = Poly::from_roots(&missing);
        let points: Vec<Fp> = (0..=3u64).map(|i| Fp::new((1 << 60) + i)).collect();
        let ratios: Vec<Fp> = points.iter().map(|&z| p_true.eval(z)).collect();
        assert_eq!(structured_reduced_fraction(&points, &ratios, 2, 1, 5), None);
    }

    #[test]
    fn digest_roundtrips_through_wire() {
        let (alice, bob) = random_sets(150, 6, 40);
        let protocol = CharPolyProtocol::new(2);
        let digest = protocol.digest(&alice, 8).unwrap();
        let bytes = digest.to_bytes();
        assert_eq!(bytes.len(), digest.encoded_len());
        let decoded = CharPolyDigest::from_bytes(&bytes).unwrap();
        assert_eq!(protocol.reconcile(&decoded, &bob).unwrap(), alice);
    }

    #[test]
    fn digest_is_small_and_scales_with_d() {
        let (alice, _) = random_sets(5000, 0, 50);
        let protocol = CharPolyProtocol::new(4);
        let d8 = protocol.digest(&alice, 8).unwrap().encoded_len();
        let d64 = protocol.digest(&alice, 64).unwrap().encoded_len();
        assert!(d8 < 100, "digest for d=8 should be under 100 bytes, got {d8}");
        assert!(d64 > 4 * d8);
    }
}
