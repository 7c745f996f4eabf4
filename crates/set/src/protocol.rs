//! One-shot drivers for the plain-set protocols, as thin wrappers over the
//! sans-I/O session layer.
//!
//! Each driver builds the two [`recon_protocol::Party`] state machines from
//! [`crate::session`] and runs them through a [`SessionBuilder`] over an
//! in-memory link, so the exact bytes and rounds are recorded the same way the
//! paper accounts for communication. Callers that want to separate the parties
//! (different processes, real transports) use [`crate::session`] directly.

use crate::session;
use recon_base::ReconError;
use recon_protocol::{Amplification, Outcome, SessionBuilder};
use std::collections::HashSet;

/// The result of a locally-driven reconciliation: Bob's recovered copy of Alice's
/// set plus the measured communication.
pub type ReconcileOutcome = Outcome<HashSet<u64>>;

/// Corollary 2.2: one-round set reconciliation with a known difference bound `d`.
///
/// Returns Bob's recovered set and the measured communication (one Alice→Bob
/// message of `O(d log u)` bits). The underlying IBLT decode fails with probability
/// `1/poly(d)`; per the paper's replication amplification, up to two additional
/// attempts with independent hash functions are made (their messages are charged to
/// the transcript), so the driver's failure probability is negligible.
pub fn reconcile_known(
    alice: &HashSet<u64>,
    bob: &HashSet<u64>,
    d: usize,
    seed: u64,
) -> Result<ReconcileOutcome, ReconError> {
    let builder = SessionBuilder::new(seed).amplification(Amplification::replicate(3));
    builder.run(
        session::iblt_known_alice(alice, d, builder.config())?,
        session::iblt_known_bob(bob, builder.config()),
    )
}

/// Theorem 2.3: one-round *exact* set reconciliation via characteristic polynomials.
pub fn reconcile_known_charpoly(
    alice: &HashSet<u64>,
    bob: &HashSet<u64>,
    d: usize,
    seed: u64,
) -> Result<ReconcileOutcome, ReconError> {
    let builder = SessionBuilder::new(seed).amplification(Amplification::single());
    builder.run(
        session::charpoly_known_alice(alice, d, builder.config())?,
        session::charpoly_known_bob(bob, builder.config()),
    )
}

/// Corollary 3.2: two-round set reconciliation when `d` is unknown.
///
/// Round 1: Bob sends Alice an ℓ0 set difference estimator populated with his set.
/// Round 2: Alice merges in her own elements, queries the estimate, inflates it by a
/// constant safety factor, and replies with an IBLT digest sized accordingly. If the
/// estimate was still too small (the estimator only promises a constant-factor
/// approximation), the parties retry with a doubled bound, which models the paper's
/// replication-based amplification while keeping the expected round count at 2.
pub fn reconcile_unknown(
    alice: &HashSet<u64>,
    bob: &HashSet<u64>,
    seed: u64,
) -> Result<ReconcileOutcome, ReconError> {
    let builder = SessionBuilder::new(seed).amplification(Amplification::replicate(6));
    builder.run(
        session::unknown_alice(alice, builder.config()),
        session::unknown_bob(bob, builder.config()),
    )
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
    fn known_d_driver_recovers_and_uses_one_round() {
        let (alice, bob) = random_sets(2000, 20, 1);
        let outcome = reconcile_known(&alice, &bob, 24, 7).unwrap();
        assert_eq!(outcome.recovered, alice);
        assert_eq!(outcome.stats.rounds, 1);
        assert_eq!(outcome.stats.bytes_bob_to_alice, 0);
        assert!(outcome.stats.bytes_alice_to_bob > 0);
    }

    #[test]
    fn charpoly_driver_recovers_exactly() {
        let (alice, bob) = random_sets(300, 10, 2);
        let outcome = reconcile_known_charpoly(&alice, &bob, 12, 9).unwrap();
        assert_eq!(outcome.recovered, alice);
        assert_eq!(outcome.stats.rounds, 1);
    }

    #[test]
    fn charpoly_uses_less_communication_than_iblt_for_same_d() {
        let (alice, bob) = random_sets(500, 8, 3);
        let iblt = reconcile_known(&alice, &bob, 8, 5).unwrap();
        let poly = reconcile_known_charpoly(&alice, &bob, 8, 5).unwrap();
        assert!(
            poly.stats.total_bytes() < iblt.stats.total_bytes(),
            "charpoly {} bytes should undercut IBLT {} bytes",
            poly.stats.total_bytes(),
            iblt.stats.total_bytes()
        );
    }

    #[test]
    fn unknown_d_driver_uses_two_rounds_typically() {
        let (alice, bob) = random_sets(3000, 16, 4);
        let outcome = reconcile_unknown(&alice, &bob, 11).unwrap();
        assert_eq!(outcome.recovered, alice);
        assert!(outcome.stats.rounds >= 2);
        assert!(outcome.stats.bytes_bob_to_alice > 0, "estimator must be transmitted");
    }

    #[test]
    fn unknown_d_driver_handles_zero_difference() {
        let (alice, _) = random_sets(1000, 0, 5);
        let outcome = reconcile_unknown(&alice, &alice, 3).unwrap();
        assert_eq!(outcome.recovered, alice);
    }

    #[test]
    fn unknown_d_driver_handles_large_difference() {
        let (alice, bob) = random_sets(5000, 800, 6);
        let outcome = reconcile_unknown(&alice, &bob, 13).unwrap();
        assert_eq!(outcome.recovered, alice);
    }

    #[test]
    fn known_d_communication_grows_with_d_not_n() {
        let (alice_small, bob_small) = random_sets(500, 8, 7);
        let (alice_large, bob_large) = random_sets(50_000, 8, 8);
        let small = reconcile_known(&alice_small, &bob_small, 8, 1).unwrap();
        let large = reconcile_known(&alice_large, &bob_large, 8, 1).unwrap();
        // A hundred times the keys is one more count byte in a cell of at least 13.
        let (small, large) = (small.stats.total_bytes(), large.stats.total_bytes());
        assert!((small..=small + small / 13).contains(&large), "{small} B against {large} B");
    }
}
