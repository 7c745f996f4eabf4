//! Property-based consistency tests across protocol layers: the plain set
//! protocols, the set-of-sets protocols and the difference estimators must agree
//! with each other and with ground truth on random inputs.

use proptest::prelude::*;
use recon_base::rng::Xoshiro256;
use recon_estimator::{L0Config, L0Estimator, Side, StrataConfig, StrataEstimator};
use recon_protocol::{Amplification, SessionBuilder};
use recon_set::session::{
    charpoly_known_alice, charpoly_known_bob, iblt_known_alice, iblt_known_bob, unknown_alice,
    unknown_bob,
};
use recon_sos::session::{
    cascading_known_alice, cascading_known_bob, ioi_known_alice, ioi_known_bob,
};
use recon_sos::workload::{generate_pair, WorkloadParams};
use recon_sos::{matching_difference, SosParams};
use std::collections::HashSet;

fn random_set_pair(n: usize, d: usize, seed: u64) -> (HashSet<u64>, HashSet<u64>) {
    let mut rng = Xoshiro256::new(seed);
    let mut alice: HashSet<u64> = (0..n).map(|_| rng.next_below(1 << 48)).collect();
    let mut bob = alice.clone();
    for _ in 0..d / 2 {
        alice.insert(rng.next_below(1 << 48));
    }
    for _ in 0..(d - d / 2) {
        bob.insert(rng.next_below(1 << 48));
    }
    (alice, bob)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// IBLT-based and characteristic-polynomial set reconciliation recover the same
    /// (correct) set, and the charpoly message is never larger.
    #[test]
    fn set_protocols_agree(n in 50usize..400, d in 0usize..24, seed in any::<u64>()) {
        let (alice, bob) = random_set_pair(n, d, seed);
        let bound = d.max(1) + 2;
        let run = SessionBuilder::new(seed ^ 1).amplification(Amplification::replicate(3));
        let a = iblt_known_alice(&alice, bound, run.config()).unwrap();
        let iblt = run.run(a, iblt_known_bob(&bob, run.config())).expect("iblt");
        let run = SessionBuilder::new(seed ^ 2).amplification(Amplification::single());
        let a = charpoly_known_alice(&alice, bound, run.config()).unwrap();
        let poly = run.run(a, charpoly_known_bob(&bob, run.config())).expect("charpoly");
        prop_assert_eq!(&iblt.recovered, &alice);
        prop_assert_eq!(&poly.recovered, &alice);
        prop_assert!(poly.stats.total_bytes() <= iblt.stats.total_bytes());
    }

    /// The two-round unknown-d parties also recover Alice's set, with no bound given.
    #[test]
    fn unknown_d_set_reconciliation_roundtrips(
        n in 100usize..600, d in 0usize..64, seed in any::<u64>()
    ) {
        let (alice, bob) = random_set_pair(n, d, seed);
        let run = SessionBuilder::new(seed ^ 3).amplification(Amplification::replicate(6));
        let (a, b) = (unknown_alice(&alice, run.config()), unknown_bob(&bob, run.config()));
        let outcome = run.run(a, b).expect("unknown");
        prop_assert_eq!(outcome.recovered, alice);
    }

    /// Both difference estimators report values within a constant factor of the true
    /// difference (factor 8 gives comfortable slack over the paper's constants).
    #[test]
    fn estimators_are_constant_factor_accurate(
        n in 200usize..2_000, d in 8usize..512, seed in any::<u64>()
    ) {
        let (alice, bob) = random_set_pair(n, d, seed);
        let true_diff = alice.symmetric_difference(&bob).count();
        prop_assume!(true_diff >= 4);

        let l0_cfg = L0Config::default().with_seed(seed ^ 4);
        let mut a_l0 = L0Estimator::new(&l0_cfg);
        let mut b_l0 = L0Estimator::new(&l0_cfg);
        let strata_cfg = StrataConfig::default().with_seed(seed ^ 5);
        let mut a_st = StrataEstimator::new(&strata_cfg);
        let mut b_st = StrataEstimator::new(&strata_cfg);
        for &x in &alice {
            a_l0.update(x, Side::A);
            a_st.update(x, Side::A);
        }
        for &x in &bob {
            b_l0.update(x, Side::B);
            b_st.update(x, Side::B);
        }
        let l0_est = a_l0.merge(&b_l0).unwrap().estimate();
        let strata_est = a_st.merge(&b_st).unwrap().estimate();
        prop_assert!(l0_est >= true_diff / 8 && l0_est <= true_diff * 8,
            "l0 estimate {} vs true {}", l0_est, true_diff);
        prop_assert!(strata_est >= true_diff / 8 && strata_est <= true_diff * 8,
            "strata estimate {} vs true {}", strata_est, true_diff);
    }

    /// The two one-round set-of-sets protocols recover identical parent sets.
    #[test]
    fn sos_protocols_agree(seed in any::<u64>(), d in 1usize..10) {
        let workload = WorkloadParams::new(48, 12, 1 << 28);
        let (alice, bob) = generate_pair(&workload, d, seed);
        prop_assume!(matching_difference(&alice, &bob) <= d);
        let p = &SosParams::new(seed ^ 7, workload.max_child_size);
        let (run, three, four) =
            (SessionBuilder::new(p.seed), Amplification::replicate(3), Amplification::replicate(4));
        let a = ioi_known_alice(&alice, d, d, p, three).unwrap();
        let flat = run.run(a, ioi_known_bob(&bob, p, three)).expect("flat");
        let a = cascading_known_alice(&alice, d, p, four).unwrap();
        let cascade = run.run(a, cascading_known_bob(&bob, p, four)).expect("cascade");
        prop_assert_eq!(&flat.recovered, &alice);
        prop_assert_eq!(&cascade.recovered, &alice);
        prop_assert_eq!(flat.recovered, cascade.recovered);
    }
}
