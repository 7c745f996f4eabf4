//! Cross-crate integration tests: every set-of-sets protocol, on workloads spanning
//! the parameter ranges the paper discusses, verified against ground truth. Each
//! run is a family's party pair driven in memory by `SessionBuilder::run`, with the
//! amplification that family ships with.

use recon_base::ReconError;
use recon_estimator::L0Config;
use recon_protocol::{Amplification, Outcome, SessionBuilder};
use recon_sos::session as parties;
use recon_sos::workload::{generate_pair, WorkloadParams};
use recon_sos::{matching_difference, SetOfSets, SosParams};

type Run = Result<Outcome<SetOfSets>, ReconError>;

/// Theorem 3.3, three replicated attempts.
fn naive(a: &SetOfSets, b: &SetOfSets, d_hat: usize, p: &SosParams) -> Run {
    let amp = Amplification::replicate(3);
    let alice = parties::naive_known_alice(a, d_hat, p, amp)?;
    SessionBuilder::new(p.seed).run(alice, parties::naive_known_bob(b, p, amp))
}

/// Theorem 3.5, three replicated attempts.
fn flat(a: &SetOfSets, b: &SetOfSets, d: usize, d_hat: usize, p: &SosParams) -> Run {
    let amp = Amplification::replicate(3);
    let alice = parties::ioi_known_alice(a, d, d_hat, p, amp)?;
    SessionBuilder::new(p.seed).run(alice, parties::ioi_known_bob(b, p, amp))
}

/// Theorem 3.7, four replicated attempts.
fn cascade(a: &SetOfSets, b: &SetOfSets, d: usize, p: &SosParams) -> Run {
    let amp = Amplification::replicate(4);
    let alice = parties::cascading_known_alice(a, d, p, amp)?;
    SessionBuilder::new(p.seed).run(alice, parties::cascading_known_bob(b, p, amp))
}

/// Theorem 3.9.
fn multi(a: &SetOfSets, b: &SetOfSets, d: usize, d_hat: usize, p: &SosParams) -> Run {
    let alice = parties::multiround_known_alice(a, d, d_hat, p)?;
    SessionBuilder::new(p.seed).run(alice, parties::multiround_known_bob(b, p))
}

fn check_all_protocols(workload: &WorkloadParams, d: usize, seed: u64) {
    let (alice, bob) = generate_pair(workload, d, seed);
    assert!(matching_difference(&alice, &bob) <= d);
    let params = SosParams::new(seed ^ 0xE2E, workload.max_child_size);
    let d_hat = d.max(1);

    let naive_outcome = naive(&alice, &bob, d_hat, &params).expect("naive");
    assert_eq!(naive_outcome.recovered, alice, "naive, d = {d}");

    let flat_outcome = flat(&alice, &bob, d.max(1), d_hat, &params).expect("flat");
    assert_eq!(flat_outcome.recovered, alice, "iblt-of-iblts, d = {d}");

    let cascade_outcome = cascade(&alice, &bob, d.max(1), &params).expect("cascading");
    assert_eq!(cascade_outcome.recovered, alice, "cascading, d = {d}");

    let rounds = multi(&alice, &bob, d.max(1), d_hat, &params).expect("multiround");
    assert_eq!(rounds.recovered, alice, "multi-round, d = {d}");
}

#[test]
fn small_children_small_difference() {
    check_all_protocols(&WorkloadParams::new(64, 8, 1 << 20), 3, 1);
}

#[test]
fn large_children_small_difference() {
    check_all_protocols(&WorkloadParams::new(48, 64, 1 << 40), 5, 2);
}

#[test]
fn many_children_moderate_difference() {
    check_all_protocols(&WorkloadParams::new(512, 12, 1 << 30), 20, 3);
}

#[test]
fn difference_concentrated_in_one_child() {
    // All d changes hit the same child set: the regime where the cascading protocol's
    // highest level (and Algorithm 1's O(d)-cell child IBLTs) do the heavy lifting.
    let workload = WorkloadParams::new(64, 40, 1 << 30);
    let (alice, _) = generate_pair(&workload, 0, 9);
    let params = SosParams::new(77, workload.max_child_size);
    let mut bob = alice.clone();
    let victim = alice.children()[7].clone();
    bob.remove(&victim);
    let mut changed = victim.clone();
    for x in 0..10u64 {
        changed.insert(1_000_000_000 + x);
    }
    bob.insert(changed);
    let d = 10;
    let outcome = cascade(&alice, &bob, d, &params).expect("cascading");
    assert_eq!(outcome.recovered, alice);
    let outcome = flat(&alice, &bob, d, 2, &params).expect("flat");
    assert_eq!(outcome.recovered, alice);
}

#[test]
fn unknown_difference_protocols_need_no_bound() {
    let workload = WorkloadParams::new(96, 16, 1 << 30);
    let (alice, bob) = generate_pair(&workload, 9, 11);
    let (p, run) = (&SosParams::new(5, workload.max_child_size), SessionBuilder::new(5));
    let est = L0Config::default();
    // The doubling families double from 1 (Theorem 3.5) or 2 (Theorem 3.7) while
    // the bound stays within twice everything either side holds.
    let cap = 2 * (alice.total_elements() + bob.total_elements() + 2);
    let (doubling_1, doubling_2) =
        (Amplification::doubling(1, cap), Amplification::doubling(2, cap));

    let amp = Amplification::replicate(5);
    let (a, b) = (
        parties::naive_unknown_alice(&alice, p, amp, est),
        parties::naive_unknown_bob(&bob, p, amp, est),
    );
    let naive_u = run.run(a, b).expect("naive unknown");
    assert_eq!(naive_u.recovered, alice);
    assert!(naive_u.stats.rounds >= 2);

    let children = alice.num_children().max(bob.num_children());
    let a = parties::ioi_unknown_alice(&alice, p, children, doubling_1).unwrap();
    let flat_u = run.run(a, parties::ioi_unknown_bob(&bob, p, doubling_1)).expect("flat unknown");
    assert_eq!(flat_u.recovered, alice);

    let a = parties::cascading_unknown_alice(&alice, p, doubling_2).unwrap();
    let cascade_u = run.run(a, parties::cascading_unknown_bob(&bob, p, doubling_2));
    assert_eq!(cascade_u.expect("cascading unknown").recovered, alice);

    let (a, b) = (
        parties::multiround_unknown_alice(&alice, p, est),
        parties::multiround_unknown_bob(&bob, p, est),
    );
    let rounds_u = run.run(a, b).expect("multiround unknown");
    assert_eq!(rounds_u.recovered, alice);
    assert!(rounds_u.stats.rounds >= 4);
}

#[test]
fn zero_difference_is_cheap_for_every_protocol() {
    let workload = WorkloadParams::new(128, 16, 1 << 30);
    let (alice, _) = generate_pair(&workload, 0, 13);
    let params = SosParams::new(3, workload.max_child_size);
    for outcome in [
        naive(&alice, &alice, 1, &params).expect("naive"),
        flat(&alice, &alice, 1, 1, &params).expect("flat"),
        cascade(&alice, &alice, 1, &params).expect("cascading"),
        multi(&alice, &alice, 1, 1, &params).expect("multiround"),
    ] {
        assert_eq!(outcome.recovered, alice);
        // Communication must not scale with n when d is tiny: the whole workload is
        // 128 × ~12 elements ≈ 12 KiB, and every digest stays well under it.
        assert!(outcome.stats.total_bytes() < 12_000, "{}", outcome.stats.total_bytes());
    }
}

#[test]
fn communication_ordering_matches_table_1_for_large_u() {
    // Table 1 (large u, d ≤ s, h): naive > iblt-of-iblts > cascading in transmitted
    // bytes, with the multi-round protocol cheapest of all in the d log u term. The
    // ordering is asymptotic in h/d, so a workload with large children (h = 128)
    // and moderate d is used. `tests/paper_claims.rs`
    // (`table_1_bytes_order_naive_ioi_cascading_multiround`) states where the
    // order holds with this implementation's IBLT constants and where it does not.
    let workload = WorkloadParams::new(256, 128, 1 << 40);
    let d = 16;
    let (alice, bob) = generate_pair(&workload, d, 17);
    let params = SosParams::new(23, workload.max_child_size);
    let naive_bytes = naive(&alice, &bob, d, &params).expect("naive").stats.total_bytes();
    let flat_bytes = flat(&alice, &bob, d, d, &params).expect("flat").stats.total_bytes();
    let cascade_bytes = cascade(&alice, &bob, d, &params).expect("cascade").stats.total_bytes();
    assert!(flat_bytes < naive_bytes, "{flat_bytes} !< {naive_bytes}");
    assert!(cascade_bytes < flat_bytes, "{cascade_bytes} !< {flat_bytes}");
}

#[test]
fn recovered_set_of_sets_is_bitwise_identical_not_just_isomorphic() {
    let workload = WorkloadParams::new(100, 10, 1 << 25);
    let (alice, bob) = generate_pair(&workload, 7, 19);
    let params = SosParams::new(29, workload.max_child_size);
    let outcome = cascade(&alice, &bob, 7, &params).expect("cascading");
    let recovered: &SetOfSets = &outcome.recovered;
    assert_eq!(recovered.children(), alice.children());
}
