//! Property-based tests of the set-of-sets layer: difference metrics, workload
//! generation and the protocols' never-wrong guarantee.

use proptest::prelude::*;
use recon_base::rng::Xoshiro256;
use recon_protocol::{Amplification, SessionBuilder};
use recon_sos::session::{cascading_known_alice, cascading_known_bob};
use recon_sos::session::{naive_known_alice, naive_known_bob};
use recon_sos::workload::{generate_pair, perturb, random_set_of_sets, WorkloadParams};
use recon_sos::{
    cascading, differing_children, matching_difference, relaxed_difference, SetOfSets, SosParams,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The difference metrics obey their defining inequalities on random instances.
    #[test]
    fn metric_inequalities(seed in any::<u64>(), d in 0usize..12) {
        let workload = WorkloadParams::new(24, 8, 1 << 20);
        let (alice, bob) = generate_pair(&workload, d, seed);
        let matching = matching_difference(&alice, &bob);
        let relaxed = relaxed_difference(&alice, &bob);
        let children = differing_children(&alice, &bob);
        // The perturbation applied at most d element changes.
        prop_assert!(matching <= d);
        // Each direction of the relaxed sum is at most the matching cost.
        prop_assert!(relaxed <= 2 * matching);
        // Symmetry.
        prop_assert_eq!(matching, matching_difference(&bob, &alice));
        prop_assert_eq!(relaxed, relaxed_difference(&bob, &alice));
        // At most 2 child sets can differ per element change.
        prop_assert!(children <= 2 * d);
        // Zero difference iff equal.
        prop_assert_eq!(matching == 0, alice == bob);
    }

    /// Perturbation is measurable: perturbing by d1 then d2 never exceeds d1 + d2.
    #[test]
    fn perturbation_composes_subadditively(seed in any::<u64>(), d1 in 0usize..6, d2 in 0usize..6) {
        let workload = WorkloadParams::new(20, 8, 1 << 20);
        let mut rng = Xoshiro256::new(seed);
        let base = random_set_of_sets(&workload, &mut rng);
        let once = perturb(&base, d1, &workload, &mut rng);
        let twice = perturb(&once, d2, &workload, &mut rng);
        prop_assert!(matching_difference(&base, &twice) <= d1 + d2);
    }

    /// The protocols either recover Alice's parent set exactly or report an error —
    /// even when the declared bound is smaller than the true difference.
    #[test]
    fn protocols_never_return_wrong_data(
        seed in any::<u64>(),
        d_true in 0usize..16,
        d_declared in 1usize..8,
    ) {
        let workload = WorkloadParams::new(32, 10, 1 << 24);
        let (alice, bob) = generate_pair(&workload, d_true, seed);
        let (p, d) = (&SosParams::new(seed ^ 0x5051, workload.max_child_size), d_declared);
        let (run, three, four) =
            (SessionBuilder::new(p.seed), Amplification::replicate(3), Amplification::replicate(4));
        let cascade = cascading_known_alice(&alice, d, p, four)
            .and_then(|a| run.run(a, cascading_known_bob(&bob, p, four)));
        if let Ok(outcome) = cascade {
            prop_assert_eq!(outcome.recovered, alice.clone());
        }
        let naive = naive_known_alice(&alice, d, p, three)
            .and_then(|a| run.run(a, naive_known_bob(&bob, p, three)));
        if let Ok(outcome) = naive {
            prop_assert_eq!(outcome.recovered, alice.clone());
        }
    }

    /// Wire round-trip of the SetOfSets container itself.
    #[test]
    fn set_of_sets_wire_roundtrip(seed in any::<u64>()) {
        use recon_base::wire::{Decode, Encode};
        let workload = WorkloadParams::new(16, 6, 1 << 16);
        let mut rng = Xoshiro256::new(seed);
        let sos = random_set_of_sets(&workload, &mut rng);
        let bytes = sos.to_bytes();
        prop_assert_eq!(SetOfSets::from_bytes(&bytes).unwrap(), sos);
    }
}

/// Attempt-0 reliability of the cascade: one `digest`, one `reconcile`, no
/// amplification, on shapes that concentrate many changes in few children. The
/// levels of a doubling chain share one child seed, so their child-table
/// failures are no longer independent; the level-major cascade with a seed per
/// level (the parent of the child-major rewrite) succeeds on every one of these
/// seeded trials, and so must this one. A trial may fail, never lie.
#[test]
fn cascade_attempt0_reliability_holds() {
    use recon_base::rng::split_seed;
    for (s, h, d, trials) in [(64, 32, 64, 60), (16, 256, 128, 25), (1024, 40, 32, 5)] {
        let workload = WorkloadParams::new(s, h, 1 << 30);
        let mut ok = 0;
        for trial in 0..trials {
            let (alice, bob) = generate_pair(&workload, d, split_seed(0xA77E, trial));
            let protocol =
                cascading::CascadingProtocol::new(SosParams::new(split_seed(0x5EED, trial), h));
            if let Ok(recovered) = protocol.reconcile(&protocol.digest(&alice, d), &bob) {
                assert_eq!(recovered, alice, "s = {s}, h = {h}, d = {d}, trial {trial}");
                ok += 1;
            }
        }
        assert_eq!(ok, trials, "s = {s}, h = {h}, d = {d}: successes under the parent's count");
    }
}
