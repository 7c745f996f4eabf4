//! Theorem 2.3 on its one solver: a seeded sweep over small differences.
//!
//! Every honest bound (the true difference plus some slack) must recover
//! Alice's set exactly, and every violated bound that still covers the
//! cardinality gap must fail closed — an error, never `Ok` with a wrong set.

use recon_base::rng::{split_seed, Xoshiro256};
use recon_set::CharPolyProtocol;
use std::collections::HashSet;

/// `(alice, bob)` sharing `common` elements, with `only_a` elements only
/// Alice holds and `only_b` only Bob holds.
fn sets(common: usize, only_a: usize, only_b: usize, seed: u64) -> (HashSet<u64>, HashSet<u64>) {
    let mut rng = Xoshiro256::new(seed);
    let mut pool = HashSet::new();
    while pool.len() < common + only_a + only_b {
        pool.insert(rng.next_below(CharPolyProtocol::DEFAULT_UNIVERSE_BOUND));
    }
    let pool: Vec<u64> = pool.into_iter().collect();
    let (shared, rest) = pool.split_at(common);
    let (a_side, b_side) = rest.split_at(only_a);
    let alice = shared.iter().chain(a_side).copied().collect();
    let bob = shared.iter().chain(b_side).copied().collect();
    (alice, bob)
}

#[test]
fn honest_bounds_recover_and_violated_bounds_fail_closed() {
    let mut rng = Xoshiro256::new(0xC4A2);
    let (mut honest, mut violated) = (0, 0);
    for only_a in 0..=10usize {
        for only_b in 0..=10usize {
            // One run with no shared elements (so a zero side is an empty
            // set), one with up to 390 shared elements (n ≤ 400).
            for common in [0, 1 + rng.next_below(390) as usize] {
                let case = split_seed(0xB0D5, (only_a * 11 + only_b) as u64 * 1000 + common as u64);
                let (alice, bob) = sets(common, only_a, only_b, case);
                let protocol = CharPolyProtocol::new(split_seed(case, 1));
                let truth = only_a + only_b;
                let label = format!("|A∖B| = {only_a}, |B∖A| = {only_b}, common = {common}");

                for slack in 0..=5 {
                    let bound = truth + slack;
                    let digest = protocol.digest(&alice, bound).unwrap();
                    let recovered = protocol.reconcile(&digest, &bob);
                    assert_eq!(recovered.as_ref(), Ok(&alice), "{label}, bound {bound}");
                    honest += 1;
                }

                for bound in only_a.abs_diff(only_b)..truth {
                    let digest = protocol.digest(&alice, bound).unwrap();
                    let result = protocol.reconcile(&digest, &bob);
                    assert!(result.is_err(), "{label}, bound {bound}: violated bound returned Ok");
                    violated += 1;
                }
            }
        }
    }
    assert!(honest + violated >= 500, "sweep ran {honest} honest + {violated} violated cases");
    assert!(violated > 0);
}
