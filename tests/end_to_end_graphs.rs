//! Cross-crate integration tests for the graph and forest reconciliation pipelines,
//! each scheme's party pair driven in memory by `SessionBuilder::run`.

use recon_base::rng::Xoshiro256;
use recon_base::ReconError;
use recon_graph::degree_neighborhood::{self, DegreeNeighborhoodParams};
use recon_graph::degree_order::DegreeOrderParams;
use recon_graph::forest::{self, Forest};
use recon_graph::{general, session, Graph};
use recon_protocol::{Outcome, SessionBuilder};

/// Theorem 5.2.
fn degree_order(
    a: &Graph,
    b: &Graph,
    d: usize,
    p: &DegreeOrderParams,
) -> Result<Outcome<Graph>, ReconError> {
    let alice = session::degree_order_alice(a, d, p)?;
    SessionBuilder::new(p.seed).run(alice, session::degree_order_bob(b, d, p)?)
}

#[test]
fn degree_ordering_end_to_end_on_identical_graphs() {
    let mut rng = Xoshiro256::new(1);
    let g = Graph::gnp(256, 0.4, &mut rng);
    let params = DegreeOrderParams { h: 48, seed: 3 };
    let Outcome { recovered, stats } = degree_order(&g, &g, 2, &params).expect("reconcile");
    assert_eq!(recovered.num_edges(), g.num_edges());
    assert_eq!(stats.rounds, 1);
    // O(d log n)-ish communication: far below retransmitting ~13k edges (>100 KiB).
    assert!(stats.total_bytes() < 60_000, "{}", stats.total_bytes());
}

#[test]
fn degree_ordering_never_returns_a_wrong_graph() {
    let mut rng = Xoshiro256::new(2);
    let base = Graph::gnp(160, 0.3, &mut rng);
    for d in [2usize, 4, 8] {
        let alice = base.perturb(d / 2, &mut rng);
        let bob = base.perturb(d - d / 2, &mut rng);
        let params = DegreeOrderParams { h: 40, seed: 100 + d as u64 };
        match degree_order(&alice, &bob, d, &params) {
            Ok(Outcome { recovered, .. }) => {
                let mut a: Vec<usize> = (0..160u32).map(|v| alice.degree(v)).collect();
                let mut r: Vec<usize> = (0..160u32).map(|v| recovered.degree(v)).collect();
                a.sort_unstable();
                r.sort_unstable();
                assert_eq!(a, r, "degree sequence must match at d = {d}");
                assert_eq!(recovered.num_edges(), alice.num_edges());
            }
            Err(ReconError::SeparationFailure(_)) => {} // detected, acceptable
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
}

#[test]
fn degree_neighborhood_end_to_end_on_sparse_graphs() {
    let mut rng = Xoshiro256::new(3);
    let base = Graph::gnp(160, 0.1, &mut rng);
    let alice = base.perturb(1, &mut rng);
    let bob = base.perturb(1, &mut rng);
    let params = DegreeNeighborhoodParams::for_gnp(160, 0.1, 7);
    let run = degree_neighborhood::agreed_params(&alice, &bob, &params).and_then(|agreed| {
        let a = session::degree_neighborhood_alice(&alice, 2, &params, &agreed)?;
        let b = session::degree_neighborhood_bob(&bob, 2, &params, &agreed)?;
        SessionBuilder::new(params.seed).run(a, b)
    });
    match run {
        Ok(Outcome { recovered, stats }) => {
            assert_eq!(recovered.num_edges(), alice.num_edges());
            let mut a: Vec<usize> = (0..160u32).map(|v| alice.degree(v)).collect();
            let mut r: Vec<usize> = (0..160u32).map(|v| recovered.degree(v)).collect();
            a.sort_unstable();
            r.sort_unstable();
            assert_eq!(a, r);
            assert!(stats.total_bytes() > 0);
        }
        Err(ReconError::SeparationFailure(_)) => {}
        Err(other) => panic!("unexpected error: {other}"),
    }
}

#[test]
fn forest_reconciliation_end_to_end() {
    let mut rng = Xoshiro256::new(4);
    let base = Forest::random(1_000, 0.1, 6, &mut rng);
    for d in [1usize, 4, 10] {
        let alice = base.perturb(d / 2, &mut rng);
        let bob = base.perturb(d - d / 2, &mut rng);
        let (sigma, seed) = (alice.max_depth().max(bob.max_depth()).max(1), 40 + d as u64);
        let agreed = forest::agreed_params(&alice, &bob, seed).expect("agreed parameters");
        let a = session::forest_alice(&alice, d, sigma, seed, &agreed).expect("alice");
        let b = session::forest_bob(&bob, seed, &agreed).expect("bob");
        let Outcome { recovered, stats } = SessionBuilder::new(seed).run(a, b).expect("forest");
        assert!(recovered.is_isomorphic(&alice, 40 + d as u64), "d = {d}");
        // Communication grows with d·σ, not with the vertex count; the absolute
        // constant is dominated by IBLT cell overhead, so only a loose sanity cap
        // is asserted here. Both shapes are checked in `tests/paper_claims.rs`
        // (`thm_6_1_forest_bytes_are_flat_in_n_and_grow_with_d_sigma`).
        assert!(stats.total_bytes() < 2_000_000, "{}", stats.total_bytes());
    }
}

#[test]
fn general_protocols_agree_with_brute_force_on_tiny_graphs() {
    let mut rng = Xoshiro256::new(5);
    for trial in 0..10u64 {
        let a = Graph::gnp(6, 0.5, &mut rng);
        let b = Graph::gnp(6, 0.5, &mut rng);
        let expected = a.is_isomorphic_bruteforce(&b);
        let (verdict, stats) = general::isomorphism_protocol(&a, &b, trial);
        // One-sided error only: isomorphic graphs are never rejected.
        if expected {
            assert!(verdict);
        }
        assert!(stats.total_bytes() <= 16);
    }
}

#[test]
fn figure1_ambiguity_holds() {
    let (merge1, merge2) = general::figure1_merges();
    assert!(!merge1.is_isomorphic_bruteforce(&merge2));
}

#[test]
fn lower_bound_payload_survives_reconciliation_semantics() {
    // The Theorem 4.4 argument: whoever can produce a graph isomorphic to Alice's can
    // read the payload back out. Simulate Bob holding G_B and "receiving" G_A.
    let payload = vec![1u64, 4, 2, 7, 0];
    let (g_a, g_b) = general::lower_bound_instance(8, &payload);
    assert_eq!(g_a.edge_difference(&g_b), payload.len());
    assert_eq!(general::lower_bound_decode(&g_a, 8, payload.len()), Some(payload));
}
