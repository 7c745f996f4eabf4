//! # recon-field
//!
//! Finite-field arithmetic and polynomial machinery for the characteristic-polynomial
//! set reconciliation protocol (Theorem 2.3 of *"Reconciling Graphs and Sets of
//! Sets"*, after Minsky, Trachtenberg & Zippel 2003).
//!
//! The protocol represents a set `S = {x_1, …, x_n}` by its characteristic polynomial
//! `χ_S(z) = (z − x_1)(z − x_2)⋯(z − x_n)` over a prime field, transmits evaluations
//! of `χ_S` at a few agreed-upon points, interpolates the rational function
//! `χ_{S_A}(z) / χ_{S_B}(z)` from those evaluations, and recovers the set
//! difference as the roots of the numerator and denominator. The paper solves the
//! interpolation as a linear system by Gaussian elimination in `O(d^3)`; this
//! crate solves it in `O(d^2)` by rational reconstruction instead.
//!
//! This crate provides the substrate:
//!
//! * [`fp::Fp`] — the prime field GF(2^61 − 1) (a Mersenne prime, so reduction is a
//!   couple of shifts and adds; the universe of 64-bit-word elements used throughout
//!   the paper embeds directly as long as elements are `< 2^61 − 1`),
//! * [`poly::Poly`] — dense univariate polynomials with multiplication, Euclidean
//!   division, GCD, evaluation and construction from roots,
//! * [`gf2`] — sparse bitset Gaussian elimination over GF(2) with tracked
//!   combination masks (the IBLT decode-rescue substrate),
//! * [`structured`] — the `O(d^2)` structured solve for the rational
//!   interpolation system (Newton interpolation + extended-Euclidean rational
//!   reconstruction, plus Montgomery batch inversion),
//! * [`roots`] — root finding for polynomials that split into distinct linear
//!   factors, via Cantor–Zassenhaus equal-degree splitting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fp;
pub mod gf2;
pub mod poly;
pub mod roots;
pub mod structured;

pub use fp::{Fp, MODULUS};
pub use gf2::{BitVec, SubsetSolution, SubsetXorSolver};
pub use poly::Poly;
pub use roots::find_roots;
pub use structured::{batch_invert, interpolate, rational_reconstruct};
