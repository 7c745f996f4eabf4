//! Dense univariate polynomials over GF(2^61 − 1).
//!
//! The characteristic-polynomial reconciliation protocol only manipulates polynomials
//! of degree at most `d` (the set-difference bound), so a dense representation with
//! schoolbook multiplication is the right trade-off: it keeps the code simple and is
//! comfortably fast for the `d ≤` a few thousand exercised by the paper's protocols.

use crate::fp::Fp;
use std::fmt;

/// A dense polynomial with coefficients in GF(2^61 − 1), stored little-endian
/// (`coeffs[i]` multiplies `z^i`) and kept normalized (no trailing zero
/// coefficients; the zero polynomial has an empty coefficient vector).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Poly {
    coeffs: Vec<Fp>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Self {
        Poly { coeffs: vec![Fp::ONE] }
    }

    /// A constant polynomial.
    pub fn constant(c: Fp) -> Self {
        let mut p = Poly { coeffs: vec![c] };
        p.normalize();
        p
    }

    /// The monomial `z`.
    pub fn x() -> Self {
        Poly { coeffs: vec![Fp::ZERO, Fp::ONE] }
    }

    /// Build a polynomial from little-endian coefficients (normalizing trailing
    /// zeros).
    pub fn from_coeffs(coeffs: Vec<Fp>) -> Self {
        let mut p = Poly { coeffs };
        p.normalize();
        p
    }

    /// The monic polynomial `∏ (z − r)` with the given roots — exactly the
    /// characteristic polynomial `χ_S` of the paper when `roots` are the set
    /// elements. Built by divide and conquer so constructing a characteristic
    /// polynomial of a large set costs `O(n log^2 n)` field multiplications.
    pub fn from_roots(roots: &[Fp]) -> Self {
        fn build(roots: &[Fp]) -> Poly {
            match roots {
                [] => Poly::one(),
                [r] => Poly::from_coeffs(vec![-*r, Fp::ONE]),
                _ => {
                    let mid = roots.len() / 2;
                    build(&roots[..mid]).mul(&build(&roots[mid..]))
                }
            }
        }
        build(roots)
    }

    fn normalize(&mut self) {
        while self.coeffs.last().is_some_and(|c| c.is_zero()) {
            self.coeffs.pop();
        }
    }

    /// `true` if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// Little-endian coefficients (normalized; empty for the zero polynomial).
    pub fn coeffs(&self) -> &[Fp] {
        &self.coeffs
    }

    /// Leading coefficient (`None` for the zero polynomial).
    pub fn leading(&self) -> Option<Fp> {
        self.coeffs.last().copied()
    }

    /// Evaluate at a point using Horner's rule.
    pub fn eval(&self, z: Fp) -> Fp {
        let mut acc = Fp::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * z + c;
        }
        acc
    }

    /// Polynomial addition.
    pub fn add(&self, other: &Poly) -> Poly {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut coeffs = Vec::with_capacity(n);
        for i in 0..n {
            let a = self.coeffs.get(i).copied().unwrap_or(Fp::ZERO);
            let b = other.coeffs.get(i).copied().unwrap_or(Fp::ZERO);
            coeffs.push(a + b);
        }
        Poly::from_coeffs(coeffs)
    }

    /// Polynomial subtraction.
    pub fn sub(&self, other: &Poly) -> Poly {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut coeffs = Vec::with_capacity(n);
        for i in 0..n {
            let a = self.coeffs.get(i).copied().unwrap_or(Fp::ZERO);
            let b = other.coeffs.get(i).copied().unwrap_or(Fp::ZERO);
            coeffs.push(a - b);
        }
        Poly::from_coeffs(coeffs)
    }

    /// Schoolbook polynomial multiplication.
    pub fn mul(&self, other: &Poly) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let mut coeffs = vec![Fp::ZERO; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a.is_zero() {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                coeffs[i + j] += a * b;
            }
        }
        Poly::from_coeffs(coeffs)
    }

    /// Multiply by a scalar.
    pub fn scale(&self, s: Fp) -> Poly {
        Poly::from_coeffs(self.coeffs.iter().map(|&c| c * s).collect())
    }

    /// Euclidean division: returns `(quotient, remainder)` with
    /// `self = quotient·divisor + remainder` and `deg(remainder) < deg(divisor)`.
    /// Panics if the divisor is zero.
    pub fn divmod(&self, divisor: &Poly) -> (Poly, Poly) {
        assert!(!divisor.is_zero(), "polynomial division by zero");
        if self.coeffs.len() < divisor.coeffs.len() {
            return (Poly::zero(), self.clone());
        }
        let lead_inv = divisor.leading().expect("non-zero divisor").inv();
        let mut rem = self.coeffs.clone();
        let deg_div = divisor.coeffs.len() - 1;
        let quot_len = rem.len() - deg_div;
        let mut quot = vec![Fp::ZERO; quot_len];
        for i in (0..quot_len).rev() {
            let coeff = rem[i + deg_div] * lead_inv;
            quot[i] = coeff;
            if coeff.is_zero() {
                continue;
            }
            for (j, &dc) in divisor.coeffs.iter().enumerate() {
                rem[i + j] -= coeff * dc;
            }
        }
        (Poly::from_coeffs(quot), Poly::from_coeffs(rem))
    }

    /// Remainder of Euclidean division.
    pub fn rem(&self, divisor: &Poly) -> Poly {
        self.divmod(divisor).1
    }

    /// Make the polynomial monic (leading coefficient 1). The zero polynomial is
    /// returned unchanged.
    pub fn monic(&self) -> Poly {
        match self.leading() {
            None => Poly::zero(),
            Some(l) if l == Fp::ONE => self.clone(),
            Some(l) => self.scale(l.inv()),
        }
    }

    /// Monic greatest common divisor via the Euclidean algorithm.
    pub fn gcd(&self, other: &Poly) -> Poly {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a.monic()
    }

    /// Compute `self^exp mod modulus` by repeated squaring (the core step of
    /// Cantor–Zassenhaus root finding, where `exp = (p − 1)/2`).
    pub fn pow_mod(&self, mut exp: u64, modulus: &Poly) -> Poly {
        assert!(
            modulus.degree().is_some_and(|d| d >= 1),
            "pow_mod requires a modulus of degree >= 1"
        );
        let mut base = self.rem(modulus);
        let mut acc = Poly::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul(&base).rem(modulus);
            }
            base = base.mul(&base).rem(modulus);
            exp >>= 1;
        }
        acc
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let terms: Vec<String> = self
            .coeffs
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, c)| !c.is_zero())
            .map(|(i, c)| match i {
                0 => format!("{c}"),
                1 => format!("{c}·z"),
                _ => format!("{c}·z^{i}"),
            })
            .collect();
        write!(f, "{}", terms.join(" + "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn poly_from_u64(coeffs: &[u64]) -> Poly {
        Poly::from_coeffs(coeffs.iter().map(|&c| Fp::new(c)).collect())
    }

    #[test]
    fn normalization_strips_trailing_zeros() {
        let p = poly_from_u64(&[1, 2, 0, 0]);
        assert_eq!(p.degree(), Some(1));
        assert_eq!(Poly::from_coeffs(vec![Fp::ZERO; 4]), Poly::zero());
        assert!(Poly::zero().degree().is_none());
    }

    #[test]
    fn from_roots_has_correct_degree_and_evaluates_to_zero_at_roots() {
        let roots: Vec<Fp> = [3u64, 17, 100, 1 << 40].iter().map(|&r| Fp::new(r)).collect();
        let p = Poly::from_roots(&roots);
        assert_eq!(p.degree(), Some(4));
        assert_eq!(p.leading(), Some(Fp::ONE));
        for &r in &roots {
            assert_eq!(p.eval(r), Fp::ZERO);
        }
        assert_ne!(p.eval(Fp::new(5)), Fp::ZERO);
    }

    #[test]
    fn from_roots_of_empty_set_is_one() {
        assert_eq!(Poly::from_roots(&[]), Poly::one());
    }

    #[test]
    fn eval_matches_naive() {
        let p = poly_from_u64(&[5, 0, 3, 2]); // 5 + 3z^2 + 2z^3
        let z = Fp::new(7);
        let expected = Fp::new(5) + Fp::new(3) * z.pow(2) + Fp::new(2) * z.pow(3);
        assert_eq!(p.eval(z), expected);
    }

    #[test]
    fn mul_matches_known_product() {
        // (z + 1)(z + 2) = z^2 + 3z + 2
        let a = poly_from_u64(&[1, 1]);
        let b = poly_from_u64(&[2, 1]);
        assert_eq!(a.mul(&b), poly_from_u64(&[2, 3, 1]));
    }

    #[test]
    fn divmod_small_example() {
        // (z^2 + 3z + 2) / (z + 1) = (z + 2), remainder 0
        let num = poly_from_u64(&[2, 3, 1]);
        let den = poly_from_u64(&[1, 1]);
        let (q, r) = num.divmod(&den);
        assert_eq!(q, poly_from_u64(&[2, 1]));
        assert!(r.is_zero());
    }

    #[test]
    fn divmod_with_remainder() {
        // z^3 + 1 divided by z^2: quotient z, remainder 1
        let num = poly_from_u64(&[1, 0, 0, 1]);
        let den = poly_from_u64(&[0, 0, 1]);
        let (q, r) = num.divmod(&den);
        assert_eq!(q, poly_from_u64(&[0, 1]));
        assert_eq!(r, poly_from_u64(&[1]));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Poly::one().divmod(&Poly::zero());
    }

    #[test]
    fn gcd_of_polynomials_with_common_root() {
        let common = Fp::new(42);
        let a = Poly::from_roots(&[common, Fp::new(7)]);
        let b = Poly::from_roots(&[common, Fp::new(9), Fp::new(100)]);
        let g = a.gcd(&b);
        assert_eq!(g, Poly::from_roots(&[common]));
    }

    #[test]
    fn gcd_of_coprime_polynomials_is_one() {
        let a = Poly::from_roots(&[Fp::new(1), Fp::new(2)]);
        let b = Poly::from_roots(&[Fp::new(3), Fp::new(4)]);
        assert_eq!(a.gcd(&b), Poly::one());
    }

    #[test]
    fn pow_mod_agrees_with_naive_power() {
        let base = poly_from_u64(&[3, 1]); // z + 3
        let modulus = poly_from_u64(&[1, 0, 0, 1]); // z^3 + 1
        let naive = base.mul(&base).mul(&base).mul(&base).mul(&base).rem(&modulus);
        assert_eq!(base.pow_mod(5, &modulus), naive);
        assert_eq!(base.pow_mod(0, &modulus), Poly::one());
    }

    #[test]
    fn display_is_readable() {
        let p = poly_from_u64(&[2, 0, 1]);
        assert_eq!(format!("{p}"), "1·z^2 + 2");
        assert_eq!(format!("{}", Poly::zero()), "0");
    }

    fn arb_poly(max_deg: usize) -> impl Strategy<Value = Poly> {
        proptest::collection::vec(any::<u64>(), 0..=max_deg + 1)
            .prop_map(|v| Poly::from_coeffs(v.into_iter().map(Fp::new).collect()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn divmod_reconstructs_numerator(a in arb_poly(12), b in arb_poly(6)) {
            prop_assume!(!b.is_zero());
            let (q, r) = a.divmod(&b);
            prop_assert_eq!(q.mul(&b).add(&r), a.clone());
            if !r.is_zero() {
                prop_assert!(r.degree().unwrap() < b.degree().unwrap());
            }
        }

        #[test]
        fn multiplication_distributes_over_addition(
            a in arb_poly(8), b in arb_poly(8), c in arb_poly(8)
        ) {
            prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        }

        #[test]
        fn evaluation_is_ring_homomorphism(a in arb_poly(8), b in arb_poly(8), z in any::<u64>()) {
            let z = Fp::new(z);
            prop_assert_eq!(a.add(&b).eval(z), a.eval(z) + b.eval(z));
            prop_assert_eq!(a.mul(&b).eval(z), a.eval(z) * b.eval(z));
        }

        #[test]
        fn gcd_divides_both(a in arb_poly(8), b in arb_poly(8)) {
            prop_assume!(!a.is_zero() && !b.is_zero());
            let g = a.gcd(&b);
            prop_assert!(a.rem(&g).is_zero());
            prop_assert!(b.rem(&g).is_zero());
        }
    }
}
