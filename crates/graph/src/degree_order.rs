//! Random-graph reconciliation via the degree-ordering signature scheme
//! (Section 5.1: Definition 5.1, Theorems 5.2 and 5.3).
//!
//! Vertices are sorted by degree. The `h` highest-degree vertices are identified by
//! their degree rank (the `(h, d+1, …)` separation guarantees the ranking is immune
//! to `d` edge changes); every other vertex gets as its signature the *set* of
//! top-`h` vertices it is adjacent to. Because the base graph is
//! `(h, d+1, 2d+1)`-separated, conforming vertices have signatures within Hamming
//! distance `d` of each other while non-conforming vertices are at distance `≥ d+1`,
//! so recovering Alice's signature *set of sets* (Theorem 3.7) lets Bob build a
//! conforming labeling, after which the edges are reconciled as an ordinary labeled
//! set (Corollary 2.2): Bob relabels his graph and patches it with the decoded
//! edge difference. The two parties are [`crate::session::degree_order_alice`]
//! and [`crate::session::degree_order_bob`].

use crate::graph::Graph;
use recon_base::ReconError;
use recon_sos::{ChildSet, SetOfSets};
use std::collections::BTreeSet;

/// Parameters of the degree-ordering scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegreeOrderParams {
    /// Number of top-degree "anchor" vertices `h`.
    pub h: usize,
    /// Public-coin seed shared by both parties.
    pub seed: u64,
}

/// The value of `h` suggested by Theorem 5.3 for failure probability `δ`:
/// `h = (1/4) (δ/(d+1))^{1/3} (p(1−p)n / ln n)^{1/6}`, clamped to `[4, n/4]`.
pub fn recommended_h(n: usize, p: f64, d: usize, delta: f64) -> usize {
    let n_f = n as f64;
    let raw = 0.25
        * (delta / (d as f64 + 1.0)).powf(1.0 / 3.0)
        * (p * (1.0 - p) * n_f / n_f.ln()).powf(1.0 / 6.0);
    (raw.floor() as usize).clamp(4, (n / 4).max(4))
}

/// The per-vertex signatures of the scheme: the top-`h` vertices in degree order and,
/// for every other vertex, its adjacency set restricted to the top-`h` vertices
/// (elements are ranks in `[0, h)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeOrderSignatures {
    /// Vertices sorted by decreasing degree; the first `h` are the anchors.
    pub order: Vec<u32>,
    /// For each non-anchor vertex (in `order[h..]`), its signature set of anchor
    /// ranks.
    pub signatures: Vec<(u32, BTreeSet<u64>)>,
}

/// Compute the degree-ordering signatures of a graph.
pub fn signatures(graph: &Graph, h: usize) -> DegreeOrderSignatures {
    let n = graph.num_vertices();
    let h = h.min(n);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    let mut anchor_rank: Vec<Option<u64>> = vec![None; n];
    for (rank, &v) in (0u64..).zip(&order[..h]) {
        anchor_rank[v as usize] = Some(rank);
    }
    let sigs = order[h..]
        .iter()
        .map(|&v| (v, graph.neighbors(v).filter_map(|w| anchor_rank[w as usize]).collect()))
        .collect();
    DegreeOrderSignatures { order, signatures: sigs }
}

/// Check Definition 5.1: the graph is `(h, a, b)`-separated if the top-`h` degrees
/// are pairwise at least `a` apart and all non-anchor signatures are pairwise at
/// Hamming distance at least `b`.
pub fn is_separated(graph: &Graph, h: usize, a: usize, b: usize) -> bool {
    let sigs = signatures(graph, h);
    for window in sigs.order[..h.min(sigs.order.len())].windows(2) {
        if graph.degree(window[0]) < graph.degree(window[1]) + a {
            return false;
        }
    }
    let count = sigs.signatures.len();
    let packed = PackedSignatures::pack(sigs.signatures.iter().map(|(_, sig)| sig), h);
    (0..count).all(|i| (i + 1..count).all(|j| packed.distance(i, &packed, j) >= b))
}

/// Signatures packed as bit sets over the anchor ranks `[0, h)`, `⌈h/64⌉` words
/// each, so that the Hamming distance of two signatures is a `popcount(xor)` per
/// word instead of a walk over two trees. The all-pairs comparisons of
/// [`is_separated`] and of Bob's labelling pack every signature once.
pub(crate) struct PackedSignatures {
    words: usize,
    /// `words` words per signature, back to back.
    bits: Vec<u64>,
    /// Per signature, how many of its elements lie outside `[0, h)`. A local
    /// signature has none; one recovered from a peer is not trusted to.
    outside: Vec<usize>,
}

impl PackedSignatures {
    pub(crate) fn pack<'a>(
        signatures: impl IntoIterator<Item = &'a BTreeSet<u64>>,
        h: usize,
    ) -> Self {
        let words = h.div_ceil(64);
        let mut packed = Self { words, bits: Vec::new(), outside: Vec::new() };
        for signature in signatures {
            let start = packed.bits.len();
            packed.bits.resize(start + words, 0);
            let mut outside = 0;
            for &rank in signature {
                if rank < h as u64 {
                    packed.bits[start + (rank / 64) as usize] |= 1 << (rank % 64);
                } else {
                    outside += 1;
                }
            }
            packed.outside.push(outside);
        }
        packed
    }

    /// Size of the symmetric difference of signature `i` and signature `j` of
    /// `other` (packed for the same `h`). Exact when at most one of the two
    /// has elements outside `[0, h)`, which holds whenever one side is local.
    pub(crate) fn distance(&self, i: usize, other: &Self, j: usize) -> usize {
        debug_assert_eq!(self.words, other.words);
        debug_assert!(self.outside[i] == 0 || other.outside[j] == 0);
        let a = &self.bits[i * self.words..(i + 1) * self.words];
        let b = &other.bits[j * self.words..(j + 1) * self.words];
        let inside: u32 = a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum();
        inside as usize + self.outside[i] + other.outside[j]
    }
}

/// For each of Bob's non-anchor signatures, the index of the one recovered
/// signature within Hamming distance `d` of it (Definition 5.1's conforming
/// vertex). Fails when some signature has no such partner, or more than one.
/// `local` signatures are subsets of `[0, h)`, as [`signatures`] builds them;
/// `recovered` ones come from a peer and may hold anything.
pub fn match_signatures(
    local: &[(u32, BTreeSet<u64>)],
    recovered: &[ChildSet],
    h: usize,
    d: usize,
) -> Result<Vec<usize>, ReconError> {
    let local_packed = PackedSignatures::pack(local.iter().map(|(_, sig)| sig), h);
    let recovered_packed = PackedSignatures::pack(recovered, h);
    let mut partners = Vec::with_capacity(local.len());
    for (i, (v, _)) in local.iter().enumerate() {
        let mut matches =
            (0..recovered.len()).filter(|&j| local_packed.distance(i, &recovered_packed, j) <= d);
        let Some(partner) = matches.next() else {
            return Err(ReconError::SeparationFailure(format!(
                "vertex {v} has no signature within distance {d}"
            )));
        };
        if matches.next().is_some() {
            return Err(ReconError::SeparationFailure(format!(
                "vertex {v} matches multiple signatures within distance {d}"
            )));
        }
        partners.push(partner);
    }
    Ok(partners)
}

pub(crate) fn signature_set_of_sets(sigs: &DegreeOrderSignatures) -> Result<SetOfSets, ReconError> {
    // `from_children` dedupes, so a shared signature leaves fewer children.
    let sos = SetOfSets::from_children(sigs.signatures.iter().map(|(_, s)| s.clone()));
    if sos.num_children() != sigs.signatures.len() {
        return Err(ReconError::SeparationFailure(
            "two vertices share a degree-ordering signature".to_string(),
        ));
    }
    Ok(sos)
}

/// Alice's labeling, indexed by vertex: anchors get labels `0..h` by degree
/// rank, the remaining vertices get labels `h..n` by lexicographic order of
/// their signatures.
pub(crate) fn label_map_from_signatures(sigs: &DegreeOrderSignatures, h: usize) -> Vec<u32> {
    // Vertices are distinct, so the unstable sort orders exactly as a stable one.
    let mut sorted_sigs: Vec<(&BTreeSet<u64>, u32)> =
        sigs.signatures.iter().map(|(v, s)| (s, *v)).collect();
    sorted_sigs.sort_unstable();
    let mut labels = vec![0; sigs.order.len()];
    for (label, &v) in (0u32..).zip(&sigs.order[..h]) {
        labels[v as usize] = label;
    }
    for (label, (_, v)) in (h as u32..).zip(sorted_sigs) {
        labels[v as usize] = label;
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session;
    use recon_base::rng::Xoshiro256;
    use recon_protocol::{Outcome, SessionBuilder};
    use std::collections::HashSet;

    /// Theorem 5.2's party pair, run in memory.
    fn run_session(
        alice: &Graph,
        bob: &Graph,
        d: usize,
        params: &DegreeOrderParams,
    ) -> Result<Outcome<Graph>, ReconError> {
        let alice = session::degree_order_alice(alice, d, params)?;
        SessionBuilder::new(params.seed).run(alice, session::degree_order_bob(bob, d, params)?)
    }

    fn dense_random_graph(n: usize, p: f64, seed: u64) -> Graph {
        let mut rng = Xoshiro256::new(seed);
        Graph::gnp(n, p, &mut rng)
    }

    #[test]
    fn recommended_h_is_reasonable() {
        let h = recommended_h(10_000, 0.3, 4, 0.25);
        assert!((4..=2_500).contains(&h), "h = {h}");
        assert!(recommended_h(100, 0.5, 2, 0.25) >= 4);
    }

    #[test]
    fn signatures_partition_vertices() {
        let g = dense_random_graph(64, 0.4, 1);
        let sigs = signatures(&g, 8);
        assert_eq!(sigs.order.len(), 64);
        assert_eq!(sigs.signatures.len(), 56);
        // Degrees along the order are non-increasing.
        for w in sigs.order.windows(2) {
            assert!(g.degree(w[0]) >= g.degree(w[1]));
        }
        // Signature elements are anchor ranks.
        for (_, sig) in &sigs.signatures {
            assert!(sig.iter().all(|&r| r < 8));
        }
    }

    #[test]
    fn separation_check_detects_ties() {
        // A complete graph has all degrees equal: never (h, 1, _)-separated for h ≥ 2.
        let mut g = Graph::new(6);
        for u in 0..6u32 {
            for v in (u + 1)..6u32 {
                g.add_edge(u, v);
            }
        }
        assert!(!is_separated(&g, 3, 1, 1));
    }

    /// Perturb the graph by deleting edges between non-anchor vertices only. This is
    /// the "conforming" regime: anchor degrees are untouched and non-anchor degrees
    /// only decrease, so the top-`h` ordering provably stays identical on both sides
    /// — the property that full (h, d+1, 2d+1)-separation buys at the much larger
    /// `n` of Theorem 5.3.
    fn perturb_off_anchor(base: &Graph, h: usize, d: usize, rng: &mut Xoshiro256) -> Graph {
        let sigs = signatures(base, h);
        let anchors: HashSet<u32> = sigs.order[..h].iter().copied().collect();
        let candidate_edges: Vec<(u32, u32)> = base
            .edges()
            .into_iter()
            .filter(|&(u, v)| !anchors.contains(&u) && !anchors.contains(&v))
            .collect();
        assert!(candidate_edges.len() >= d);
        let mut out = base.clone();
        let mut removed = HashSet::new();
        while removed.len() < d {
            let (u, v) = candidate_edges[rng.next_index(candidate_edges.len())];
            if removed.insert((u, v)) {
                out.remove_edge(u, v);
            }
        }
        out
    }

    #[test]
    fn reconciles_perturbed_random_graphs_in_the_separated_regime() {
        // Theorem 5.3's separation needs very large n; to exercise the success path
        // at test scale, the perturbation is restricted to non-anchor pairs (which
        // keeps the anchor ordering conforming, exactly the property separation
        // buys). The general G(n,p) perturbation case is covered by the
        // detected-failure test below.
        let base = dense_random_graph(200, 0.35, 7);
        let mut rng = Xoshiro256::new(99);
        for d in [2usize, 4, 8] {
            let alice = perturb_off_anchor(&base, 48, d / 2, &mut rng);
            let bob = perturb_off_anchor(&base, 48, d - d / 2, &mut rng);
            let params = DegreeOrderParams { h: 48, seed: 1000 + d as u64 };
            let outcome = run_session(&alice, &bob, d, &params).unwrap();
            assert_eq!(outcome.recovered.num_edges(), alice.num_edges(), "d = {d}");
            let mut a_deg: Vec<usize> = (0..200u32).map(|v| alice.degree(v)).collect();
            let mut r_deg: Vec<usize> = (0..200u32).map(|v| outcome.recovered.degree(v)).collect();
            a_deg.sort_unstable();
            r_deg.sort_unstable();
            assert_eq!(a_deg, r_deg, "d = {d}");
            assert!(outcome.stats.total_bytes() > 0);
            assert_eq!(outcome.stats.rounds, 1);
        }
    }

    #[test]
    fn unrestricted_perturbations_either_succeed_or_fail_detectably() {
        // With arbitrary edge flips at this small n the anchor ordering often breaks;
        // the protocol must never return a wrong graph silently.
        let base = dense_random_graph(200, 0.35, 7);
        let mut rng = Xoshiro256::new(5);
        for d in [2usize, 6] {
            let alice = base.perturb(d / 2, &mut rng);
            let bob = base.perturb(d - d / 2, &mut rng);
            let params = DegreeOrderParams { h: 48, seed: 2000 + d as u64 };
            match run_session(&alice, &bob, d, &params) {
                Ok(outcome) => {
                    assert_eq!(outcome.recovered.num_edges(), alice.num_edges(), "d = {d}");
                }
                Err(ReconError::SeparationFailure(_)) => {}
                Err(other) => panic!("unexpected error at d = {d}: {other}"),
            }
        }
    }

    #[test]
    fn identical_graphs_reconcile_exactly() {
        let g = dense_random_graph(120, 0.4, 3);
        let params = DegreeOrderParams { h: 40, seed: 5 };
        let outcome = run_session(&g, &g, 2, &params).unwrap();
        // With zero differences the recovered graph is exactly Alice's graph under
        // her canonical relabeling, so edge count and degree sequence must agree.
        assert_eq!(outcome.recovered.num_edges(), g.num_edges());
    }

    #[test]
    fn mismatched_vertex_counts_are_rejected() {
        // One more, isolated, vertex on either side: Bob learns Alice's count from
        // the recovered signatures and refuses.
        let a = dense_random_graph(120, 0.4, 3);
        let b = Graph::from_edges(121, &a.edges());
        let params = DegreeOrderParams { h: 40, seed: 5 };
        assert!(matches!(run_session(&a, &b, 2, &params), Err(ReconError::InvalidInput(_))));
        assert!(matches!(run_session(&b, &a, 2, &params), Err(ReconError::InvalidInput(_))));
    }

    #[test]
    fn recovered_graph_is_isomorphic_for_small_instances() {
        // For a small graph we can verify isomorphism exhaustively after relabeling
        // through Alice's canonical labels.
        let base = dense_random_graph(9, 0.6, 21);
        let mut rng = Xoshiro256::new(4);
        let alice = base.perturb(1, &mut rng);
        let params = DegreeOrderParams { h: 3, seed: 77 };
        if let Ok(outcome) = run_session(&alice, &base, 2, &params) {
            assert!(outcome.recovered.is_isomorphic_bruteforce(&alice));
        }
    }
}
