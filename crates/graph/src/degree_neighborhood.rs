//! Random-graph reconciliation via the degree-neighborhood signature scheme
//! (Section 5.2: Definition 5.4, Theorems 5.5 and 5.6).
//!
//! For sparser graphs the degree-ordering scheme breaks down (top degrees are no
//! longer well separated). Following Czajka & Pandurangan, each vertex's signature
//! becomes the *multiset of its neighbors' degrees*, truncated to degrees at most
//! `m ≈ pn`. A single edge change shifts two endpoint degrees by one, which perturbs
//! the signatures of all their neighbors — `O(pn)` multiset elements in total — but
//! Theorem 5.5 shows conforming vertices stay within multiset distance `2d` while
//! non-conforming vertices are at distance `≥ 2d+1` ("(pn, 4d+1)-disjoint"). Bob
//! therefore recovers Alice's signatures with *set-of-multisets* reconciliation
//! (Section 3.4 + Theorem 3.7), matches each of his vertices to the closest
//! signature, and finishes with labeled-edge set reconciliation, patching his
//! relabelled graph with the decoded edge difference. The two parties
//! are [`crate::session::degree_neighborhood_alice`] and
//! [`crate::session::degree_neighborhood_bob`], both built with [`agreed_params`].

use crate::graph::Graph;
use recon_base::ReconError;
use recon_set::Multiset;
use recon_sos::multiset_of_multisets::{self, PairPacking, SetOfMultisets};
use recon_sos::SosParams;

/// Parameters of the degree-neighborhood scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeNeighborhoodParams {
    /// Degree cap `m` (the paper uses `pn`): only neighbor degrees `≤ m` enter the
    /// signature.
    pub degree_cap: usize,
    /// Public-coin seed shared by both parties.
    pub seed: u64,
}

impl DegreeNeighborhoodParams {
    /// The paper's choice `m = pn` for a `G(n, p)` base graph.
    pub fn for_gnp(n: usize, p: f64, seed: u64) -> Self {
        Self { degree_cap: ((n as f64) * p).ceil() as usize + 1, seed }
    }
}

/// The degree-neighborhood signature of one vertex: the multiset of the degrees
/// (`≤ degree_cap`) of its neighbors.
pub fn signature(graph: &Graph, v: u32, degree_cap: usize) -> Multiset {
    let mut m = Multiset::new();
    for w in graph.neighbors(v) {
        let deg = graph.degree(w);
        if deg <= degree_cap {
            m.insert(deg as u64);
        }
    }
    m
}

/// All vertex signatures, indexed by vertex.
pub fn signatures(graph: &Graph, degree_cap: usize) -> Vec<Multiset> {
    (0..graph.num_vertices() as u32).map(|v| signature(graph, v, degree_cap)).collect()
}

/// The smallest pairwise signature distance in the graph (Definition 5.4: the graph's
/// degree neighborhoods are `(m, k)`-disjoint iff this value is `≥ k`). Quadratic in
/// `n`; intended for experiments and tests.
pub fn min_disjointness(graph: &Graph, degree_cap: usize) -> usize {
    let sigs = signatures(graph, degree_cap);
    let mut best = usize::MAX;
    for i in 0..sigs.len() {
        for j in (i + 1)..sigs.len() {
            best = best.min(sigs[i].difference_size(&sigs[j]));
        }
    }
    if sigs.len() < 2 {
        0
    } else {
        best
    }
}

pub(crate) fn canonical_key(sig: &Multiset) -> Vec<(u64, u64)> {
    let mut pairs: Vec<(u64, u64)> = sig.iter().collect();
    pairs.sort_unstable();
    pairs
}

/// The set-of-sets parameters both parties of Theorem 5.6 run the embedded
/// Section 3.4 session under: its seed, and a packed child-size bound that covers
/// both parties' signatures — the one input neither can compute alone (separated
/// parties agree on it out of band, like any other universe bound).
pub fn agreed_params(
    alice: &Graph,
    bob: &Graph,
    params: &DegreeNeighborhoodParams,
) -> Result<SosParams, ReconError> {
    multiset_of_multisets::resolved_params(
        &SetOfMultisets::from_children(signatures(alice, params.degree_cap)),
        &SetOfMultisets::from_children(signatures(bob, params.degree_cap)),
        &SosParams::new(params.seed ^ 0xDE16, params.degree_cap.max(4)),
        &PairPacking::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session;
    use recon_base::rng::Xoshiro256;
    use recon_protocol::{Outcome, SessionBuilder};

    /// Theorem 5.6's party pair, run in memory.
    fn run_session(
        alice: &Graph,
        bob: &Graph,
        d: usize,
        params: &DegreeNeighborhoodParams,
    ) -> Result<Outcome<Graph>, ReconError> {
        let agreed = agreed_params(alice, bob, params)?;
        let alice = session::degree_neighborhood_alice(alice, d, params, &agreed)?;
        let bob = session::degree_neighborhood_bob(bob, d, params, &agreed)?;
        SessionBuilder::new(params.seed).run(alice, bob)
    }

    #[test]
    fn signature_collects_capped_neighbor_degrees() {
        // Star graph: center 0 with leaves 1..4.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let center_sig = signature(&g, 0, 10);
        assert_eq!(center_sig.count(1), 4);
        let leaf_sig = signature(&g, 1, 10);
        assert_eq!(leaf_sig.count(4), 1);
        // With a cap below the center's degree, leaves see nothing.
        assert!(signature(&g, 1, 3).is_empty());
    }

    #[test]
    fn min_disjointness_detects_twin_vertices() {
        // Two leaves attached to the same vertex have identical signatures.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (2, 3)]);
        assert_eq!(min_disjointness(&g, 10), 0);
    }

    #[test]
    fn identical_graphs_reconcile() {
        let mut rng = Xoshiro256::new(2);
        let g = Graph::gnp(80, 0.15, &mut rng);
        let params = DegreeNeighborhoodParams::for_gnp(80, 0.15, 11);
        match run_session(&g, &g, 1, &params) {
            Ok(outcome) => {
                assert_eq!(outcome.recovered.num_edges(), g.num_edges());
                assert_eq!(outcome.stats.rounds, 1);
            }
            Err(ReconError::SeparationFailure(_)) => {
                // Small sparse graphs can legitimately have twin vertices.
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn reconciles_sparser_graphs_than_degree_ordering() {
        // A moderately sparse G(n, p): signatures are degree multisets, which remain
        // distinguishable even when top degrees collide.
        let mut rng = Xoshiro256::new(7);
        let base = Graph::gnp(128, 0.12, &mut rng);
        let alice = base.perturb(1, &mut rng);
        let bob = base.perturb(1, &mut rng);
        let params = DegreeNeighborhoodParams::for_gnp(128, 0.12, 23);
        match run_session(&alice, &bob, 2, &params) {
            Ok(outcome) => {
                assert_eq!(outcome.recovered.num_edges(), alice.num_edges());
                let mut a_deg: Vec<usize> = (0..128u32).map(|v| alice.degree(v)).collect();
                let mut r_deg: Vec<usize> =
                    (0..128u32).map(|v| outcome.recovered.degree(v)).collect();
                a_deg.sort_unstable();
                r_deg.sort_unstable();
                assert_eq!(a_deg, r_deg);
                assert!(outcome.stats.total_bytes() > 0);
            }
            Err(ReconError::SeparationFailure(_)) => {
                // Theorem 5.5 is asymptotic; at n = 128 occasional twin signatures
                // are expected and must surface as a detected failure.
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn mismatched_vertex_counts_are_rejected() {
        // One more, isolated, vertex on either side: Bob learns Alice's count from
        // the recovered signatures and refuses.
        let mut rng = Xoshiro256::new(3);
        let a = Graph::gnp(160, 0.1, &mut rng);
        let b = Graph::from_edges(161, &a.edges());
        let params = DegreeNeighborhoodParams::for_gnp(160, 0.1, 7);
        assert!(matches!(run_session(&a, &b, 1, &params), Err(ReconError::InvalidInput(_))));
        assert!(matches!(run_session(&b, &a, 1, &params), Err(ReconError::InvalidInput(_))));
    }

    #[test]
    fn twin_vertices_surface_as_separation_failure() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (2, 3)]);
        let params = DegreeNeighborhoodParams { degree_cap: 10, seed: 3 };
        assert!(matches!(run_session(&g, &g, 1, &params), Err(ReconError::SeparationFailure(_))));
    }
}
