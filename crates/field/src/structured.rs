//! Structured solver for the charpoly rational-interpolation system.
//!
//! The linear system interpolating `χ_{S_A}/χ_{S_B}` from its evaluations is not
//! a generic `d × d` matrix: row `i` is `[1, z_i, …, z_i^{p−1}, −f_i, −f_i z_i,
//! …, −f_i z_i^{q−1}]` — two Vandermonde blocks, one scaled by the ratio values
//! (a Cauchy–Vandermonde displacement structure, Toeplitz/Hankel after a basis
//! change). Such systems need not be solved by `O(d^3)` elimination: finding a
//! monic pair `P, Q` with `P(z_i) = f_i·Q(z_i)` is *rational function
//! reconstruction*, solved in `O(d^2)` by interpolating the values into a single
//! polynomial `N` and running the extended Euclidean algorithm on
//! `(M = ∏(z − z_i), N)` until the remainder degree drops to the numerator
//! bound.
//!
//! Correctness (used by `recon-set`'s charpoly protocol): with `p + q + 1`
//! evaluation points, any two congruence solutions `(r, t)`, `(r′, t′)` with
//! `deg r ≤ p`, `deg t ≤ q` satisfy `deg(r t′ − r′ t) ≤ p + q < deg M`, so the
//! cross-product is the zero polynomial and the reduced fraction is unique. The
//! EEA row returned here satisfies those degree bounds by the standard invariant
//! `deg t_{j} = deg M − deg r_{j−1}`, hence it reduces to exactly the fraction
//! the paper's Gaussian elimination would find.

use crate::fp::Fp;
use crate::poly::Poly;

/// Invert every element of `values` in place using Montgomery's batch-inversion
/// trick (one field inversion plus `3n` multiplications). Returns `false` and
/// leaves `values` untouched if any element is zero.
pub fn batch_invert(values: &mut [Fp]) -> bool {
    let mut prefix = Vec::with_capacity(values.len());
    let mut acc = Fp::ONE;
    for &v in values.iter() {
        if v.is_zero() {
            return false;
        }
        prefix.push(acc);
        acc *= v;
    }
    let mut suffix_inv = acc.inv();
    for i in (0..values.len()).rev() {
        let original = values[i];
        values[i] = suffix_inv * prefix[i];
        suffix_inv *= original;
    }
    true
}

/// Newton interpolation: the unique polynomial of degree `< points.len()` with
/// `P(points[i]) = values[i]`. Returns `None` if two points coincide.
///
/// `O(n^2)` field multiplications; the divided-difference denominators are
/// inverted in one batch, so only a single field inversion is performed.
pub fn interpolate(points: &[Fp], values: &[Fp]) -> Option<Poly> {
    assert_eq!(points.len(), values.len(), "one value per interpolation point");
    let n = points.len();
    if n == 0 {
        return Some(Poly::zero());
    }

    // All divided-difference denominators, level by level: level j uses
    // points[i] − points[i − j] for i in j..n.
    let mut denominators = Vec::with_capacity(n * (n - 1) / 2);
    for j in 1..n {
        for i in j..n {
            denominators.push(points[i] - points[i - j]);
        }
    }
    if !batch_invert(&mut denominators) {
        return None; // repeated interpolation point
    }

    // Divided differences in place: after level j, coef[i] holds f[x_{i−j}..x_i].
    // Walk each level downward so coef[i − 1] is still the previous level's
    // value; level j's inverted denominators start at `offset` in the flat
    // buffer, in the same i-order they were pushed above.
    let mut coef = values.to_vec();
    let mut offset = 0;
    for j in 1..n {
        for i in (j..n).rev() {
            coef[i] = (coef[i] - coef[i - 1]) * denominators[offset + (i - j)];
        }
        offset += n - j;
    }

    // Expand the Newton form ∑ coef[i]·∏_{k<i}(z − z_k) by Horner's rule.
    let mut poly = Poly::zero();
    for i in (0..n).rev() {
        let linear = Poly::from_coeffs(vec![-points[i], Fp::ONE]);
        poly = poly.mul(&linear).add(&Poly::constant(coef[i]));
    }
    Some(poly)
}

/// Rational function reconstruction: the minimal `(r, t)` with
/// `r ≡ t·n (mod m)` and `deg r ≤ numerator_bound`, via the extended Euclidean
/// algorithm (only the `t` cofactor sequence is tracked).
///
/// Returns `None` when no usable pair exists (the cofactor degenerates to
/// zero), which callers treat as a violated difference bound.
pub fn rational_reconstruct(m: &Poly, n: &Poly, numerator_bound: usize) -> Option<(Poly, Poly)> {
    let mut r0 = m.clone();
    let mut t0 = Poly::zero();
    let mut r1 = n.clone();
    let mut t1 = Poly::one();
    while r1.degree().is_some_and(|d| d > numerator_bound) {
        let (quotient, remainder) = r0.divmod(&r1);
        let t2 = t0.sub(&quotient.mul(&t1));
        r0 = r1;
        t0 = t1;
        r1 = remainder;
        t1 = t2;
    }
    if t1.is_zero() {
        return None;
    }
    Some((r1, t1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fp(v: u64) -> Fp {
        Fp::new(v)
    }

    #[test]
    fn batch_invert_matches_scalar_inversion() {
        let mut values: Vec<Fp> = [3u64, 7, 1, 123_456, (1 << 60) + 5].map(fp).to_vec();
        let expected: Vec<Fp> = values.iter().map(|v| v.inv()).collect();
        assert!(batch_invert(&mut values));
        assert_eq!(values, expected);
    }

    #[test]
    fn batch_invert_rejects_zero_and_preserves_input() {
        let mut values = vec![fp(4), Fp::ZERO, fp(9)];
        let before = values.clone();
        assert!(!batch_invert(&mut values));
        assert_eq!(values, before);
        assert!(batch_invert(&mut []));
    }

    #[test]
    fn interpolation_hits_every_point() {
        let points: Vec<Fp> = (100..120u64).map(fp).collect();
        let values: Vec<Fp> = (0..20u64).map(|i| fp(i * i * 31 + 7)).collect();
        let p = interpolate(&points, &values).unwrap();
        assert!(p.degree().unwrap_or(0) < points.len());
        for (z, v) in points.iter().zip(&values) {
            assert_eq!(p.eval(*z), *v);
        }
    }

    #[test]
    fn interpolation_rejects_repeated_points() {
        let points = vec![fp(1), fp(2), fp(1)];
        let values = vec![fp(5), fp(6), fp(7)];
        assert!(interpolate(&points, &values).is_none());
    }

    #[test]
    fn reconstructs_a_rational_function_from_values() {
        // P/Q with P = (z−3)(z−8), Q = (z−100), over p+q+1 = 4 points.
        let p_true = Poly::from_roots(&[fp(3), fp(8)]);
        let q_true = Poly::from_roots(&[fp(100)]);
        let points: Vec<Fp> = (1000..1004u64).map(fp).collect();
        let values: Vec<Fp> = points.iter().map(|&z| p_true.eval(z) / q_true.eval(z)).collect();
        let m = Poly::from_roots(&points);
        let n = interpolate(&points, &values).unwrap();
        let (r, t) = rational_reconstruct(&m, &n, 2).unwrap();
        let g = r.gcd(&t);
        let (p_red, _) = r.divmod(&g);
        let (q_red, _) = t.divmod(&g);
        assert_eq!(p_red.monic(), p_true);
        assert_eq!(q_red.monic(), q_true);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Reconstruction over p + q + 1 points recovers random coprime monic
        /// fractions exactly, including through loose degree bounds.
        #[test]
        fn random_fractions_roundtrip(
            num_roots in proptest::collection::hash_set(0u64..1 << 40, 0usize..6),
            den_roots in proptest::collection::hash_set((1u64 << 41)..(1 << 42), 0usize..6),
            slack in 0usize..3,
        ) {
            let p_true = Poly::from_roots(&num_roots.iter().map(|&r| fp(r)).collect::<Vec<_>>());
            let q_true = Poly::from_roots(&den_roots.iter().map(|&r| fp(r)).collect::<Vec<_>>());
            let p_deg = p_true.degree().unwrap_or(0) + slack;
            let q_deg = q_true.degree().unwrap_or(0) + slack;
            // Evaluation points distinct from every root.
            let points: Vec<Fp> = (0..p_deg + q_deg + 1)
                .map(|i| fp((1u64 << 59) + i as u64))
                .collect();
            let mut denominators: Vec<Fp> = points.iter().map(|&z| q_true.eval(z)).collect();
            prop_assert!(batch_invert(&mut denominators));
            let values: Vec<Fp> = points
                .iter()
                .zip(&denominators)
                .map(|(&z, &inv)| p_true.eval(z) * inv)
                .collect();
            let m = Poly::from_roots(&points);
            let n = interpolate(&points, &values).unwrap();
            let (r, t) = rational_reconstruct(&m, &n, p_deg).unwrap();
            let g = r.gcd(&t);
            let (p_red, _) = r.divmod(&g);
            let (q_red, _) = t.divmod(&g);
            prop_assert_eq!(p_red.monic(), p_true);
            prop_assert_eq!(q_red.monic(), q_true);
        }
    }
}
