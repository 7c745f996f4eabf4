//! # recon-bench
//!
//! Shared workload builders for the Criterion benches and the `experiments` binary
//! that regenerate the paper's evaluation artifacts (Table 1, Figure 1) and the
//! per-theorem experiment suite listed in `DESIGN.md` / `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use recon_apps::database::BinaryTable;
use recon_base::rng::Xoshiro256;
use std::collections::HashSet;

/// A pair of plain sets with exactly `d` differing elements (half on each side).
pub fn set_pair(n: usize, d: usize, seed: u64) -> (HashSet<u64>, HashSet<u64>) {
    let mut rng = Xoshiro256::new(seed);
    let mut alice: HashSet<u64> = HashSet::with_capacity(n + d);
    while alice.len() < n {
        alice.insert(rng.next_below(1 << 48));
    }
    let mut bob = alice.clone();
    while alice.len() < n + d / 2 {
        alice.insert(rng.next_below(1 << 48));
    }
    while bob.len() < n + (d - d / 2) {
        bob.insert(rng.next_below(1 << 48));
    }
    (alice, bob)
}

/// The Table 1 database workload: `s` rows over `u` columns, density ~1/2
/// (`h = Θ(u)`, `n = Θ(su)`), with exactly `d` flipped bits.
pub fn database_pair(s: usize, u: u32, d: usize, seed: u64) -> (BinaryTable, BinaryTable) {
    let mut rng = Xoshiro256::new(seed);
    let alice = BinaryTable::random(s, u, 0.5, &mut rng);
    let bob = alice.flip_bits(d, &mut rng);
    (alice, bob)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_pair_has_requested_difference() {
        let (a, b) = set_pair(1000, 20, 1);
        assert_eq!(a.symmetric_difference(&b).count(), 20);
        assert_eq!(a.len(), 1010);
    }

    #[test]
    fn database_pair_has_bounded_difference() {
        let (a, b) = database_pair(64, 32, 6, 2);
        assert!(a.bit_difference(&b) <= 6);
        assert_eq!(a.num_rows(), 64);
    }
}
