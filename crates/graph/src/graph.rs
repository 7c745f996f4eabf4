//! The undirected-graph substrate: adjacency structure, `G(n, p)` sampling, the
//! perturbation model of Section 5, and brute-force isomorphism for small graphs.
//!
//! Adjacency is one sorted `Vec<u32>` row per vertex, indexed by vertex. A
//! membership test or an insertion binary-searches the row; a graph built in
//! lexicographic edge order (as [`Graph::gnp`], [`Graph::complement`] and Bob's
//! recovered graph are) only ever appends. Equality and cloning are slice
//! compares and copies, and every other vertex-keyed table of the crate is a
//! vector indexed the same way.
//!
//! The paper's random-graph model: a base graph `G ~ G(n, p)`; Alice and Bob obtain
//! `G_A` and `G_B` by each making at most `d/2` edge changes to `G`, and the goal is
//! one-way reconciliation (Bob ends with a graph isomorphic to `G_A`).

use recon_base::rng::Xoshiro256;
use std::collections::BTreeSet;

/// A simple undirected graph on vertices `0..n` with no self-loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    /// `adj[v]`: the neighbours of `v`, strictly increasing.
    adj: Vec<Vec<u32>>,
    num_edges: usize,
}

impl Graph {
    /// Create an empty graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Self { n, adj: vec![Vec::new(); n], num_edges: 0 }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// `true` if the edge `{u, v}` is present.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.adj.get(u as usize).is_some_and(|row| row.binary_search(&v).is_ok())
    }

    /// Add the edge `{u, v}`; returns `false` if it was already present. Self-loops
    /// are rejected.
    pub fn add_edge(&mut self, u: u32, v: u32) -> bool {
        assert!(u != v, "self-loops are not allowed");
        assert!((u as usize) < self.n && (v as usize) < self.n, "vertex out of range");
        let Err(at) = self.adj[u as usize].binary_search(&v) else {
            return false;
        };
        self.adj[u as usize].insert(at, v);
        let row = &mut self.adj[v as usize];
        let at = row.partition_point(|&w| w < u);
        row.insert(at, u);
        self.num_edges += 1;
        true
    }

    /// Remove the edge `{u, v}`; returns `false` if it was absent.
    pub fn remove_edge(&mut self, u: u32, v: u32) -> bool {
        let Ok(at) = self.adj[u as usize].binary_search(&v) else {
            return false;
        };
        self.adj[u as usize].remove(at);
        let row = &mut self.adj[v as usize];
        let at = row.partition_point(|&w| w < u);
        row.remove(at);
        self.num_edges -= 1;
        true
    }

    /// Toggle the edge `{u, v}` (the paper's "edge change").
    pub fn flip_edge(&mut self, u: u32, v: u32) {
        if self.has_edge(u, v) {
            self.remove_edge(u, v);
        } else {
            self.add_edge(u, v);
        }
    }

    /// Degree of a vertex.
    pub fn degree(&self, v: u32) -> usize {
        self.adj[v as usize].len()
    }

    /// Neighbors of a vertex, in increasing order.
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        self.adj[v as usize].iter().copied()
    }

    /// All edges `{u, v}` with `u < v`, in lexicographic order.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for (u, row) in (0u32..).zip(&self.adj) {
            let above = row.partition_point(|&v| v < u);
            out.extend(row[above..].iter().map(|&v| (u, v)));
        }
        out
    }

    /// Build a graph from an edge list.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Sample `G(n, p)`: every unordered pair is an edge independently with
    /// probability `p`.
    pub fn gnp(n: usize, p: f64, rng: &mut Xoshiro256) -> Self {
        let mut g = Graph::new(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.next_bool(p) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// Apply exactly `changes` random edge flips (the perturbation model of
    /// Section 5), choosing distinct vertex pairs.
    pub fn perturb(&self, changes: usize, rng: &mut Xoshiro256) -> Self {
        assert!(self.n >= 2 || changes == 0, "cannot perturb a graph with fewer than 2 vertices");
        let pairs = self.n * self.n.saturating_sub(1) / 2;
        assert!(changes <= pairs, "cannot flip {changes} distinct pairs of a graph with {pairs}");
        let mut out = self.clone();
        let mut flipped: BTreeSet<(u32, u32)> = BTreeSet::new();
        while flipped.len() < changes {
            let u = rng.next_index(self.n) as u32;
            let v = rng.next_index(self.n) as u32;
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if flipped.insert(key) {
                out.flip_edge(key.0, key.1);
            }
        }
        out
    }

    /// The complement graph (used for `p > 1/2`, as the paper notes).
    pub fn complement(&self) -> Self {
        let mut g = Graph::new(self.n);
        for u in 0..self.n as u32 {
            for v in (u + 1)..self.n as u32 {
                if !self.has_edge(u, v) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// Number of edges that differ between two graphs on the same labeled vertex set.
    pub fn edge_difference(&self, other: &Graph) -> usize {
        assert_eq!(self.n, other.n, "graphs must have the same vertex count");
        let a: BTreeSet<(u32, u32)> = self.edges().into_iter().collect();
        let b: BTreeSet<(u32, u32)> = other.edges().into_iter().collect();
        a.symmetric_difference(&b).count()
    }

    /// Encode a labeled edge as a single `u64` key (used by labeled-edge set
    /// reconciliation once a conforming labeling is known).
    pub fn edge_key(u: u32, v: u32) -> u64 {
        let (a, b) = (u.min(v), u.max(v));
        ((a as u64) << 32) | b as u64
    }

    /// Decode an edge key produced by [`Graph::edge_key`].
    pub fn key_edge(key: u64) -> (u32, u32) {
        ((key >> 32) as u32, (key & 0xFFFF_FFFF) as u32)
    }

    /// The labeled edge set as `u64` keys.
    pub fn edge_keys(&self) -> Vec<u64> {
        self.edges().iter().map(|&(u, v)| Self::edge_key(u, v)).collect()
    }

    /// Relabel the graph: vertex `v` becomes `labels[v]`. `labels` must be a
    /// permutation of `0..n`.
    pub fn relabel(&self, labels: &[u32]) -> Graph {
        assert_eq!(labels.len(), self.n);
        let mut seen = vec![false; self.n];
        for &label in labels {
            let fresh = seen.get_mut(label as usize).is_some_and(|s| !std::mem::replace(s, true));
            assert!(fresh, "labels must be a permutation of 0..{}", self.n);
        }
        // A permutation maps distinct edges to distinct edges: each new row is
        // the old row's labels, sorted.
        let mut adj = vec![Vec::new(); self.n];
        for (row, &label) in self.adj.iter().zip(labels) {
            let mut relabelled: Vec<u32> = row.iter().map(|&v| labels[v as usize]).collect();
            relabelled.sort_unstable();
            adj[label as usize] = relabelled;
        }
        Graph { n: self.n, adj, num_edges: self.num_edges }
    }

    /// Exhaustive isomorphism test for small graphs (`n ≤ 10`): try every
    /// permutation of the vertex labels.
    pub fn is_isomorphic_bruteforce(&self, other: &Graph) -> bool {
        if self.n != other.n || self.num_edges != other.num_edges {
            return false;
        }
        assert!(self.n <= 10, "brute-force isomorphism is limited to 10 vertices");
        let mut perm: Vec<u32> = (0..self.n as u32).collect();
        let target: BTreeSet<(u32, u32)> = other.edges().into_iter().collect();
        permute_and_check(self, &mut perm, 0, &target)
    }

    /// Canonical form of a small graph (`n ≤ 10`): the lexicographically smallest
    /// edge bitstring over all vertex permutations, as a `u64` bitmap over the
    /// `C(n,2)` vertex pairs. Used by the Theorem 4.1/4.3 protocols.
    pub fn canonical_form_small(&self) -> u64 {
        assert!(self.n <= 10, "canonical_form_small is limited to 10 vertices");
        let mut perm: Vec<u32> = (0..self.n as u32).collect();
        let mut best = u64::MAX;
        canonical_search(self, &mut perm, 0, &mut best);
        best
    }

    #[allow(clippy::needless_range_loop)] // the (i, j) pair indexing mirrors the math
    fn bitmap_under(&self, perm: &[u32]) -> u64 {
        // Pair (i, j) with i < j (relabeled) maps to bit index i*n + j (sparse but
        // fine for n ≤ 10 since C(10,2) = 45 < 64 when compacted).
        let mut bitmap = 0u64;
        let mut index = vec![vec![0usize; self.n]; self.n];
        let mut next = 0usize;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                index[i][j] = next;
                next += 1;
            }
        }
        for (u, v) in self.edges() {
            let a = perm[u as usize] as usize;
            let b = perm[v as usize] as usize;
            let (i, j) = (a.min(b), a.max(b));
            bitmap |= 1u64 << index[i][j];
        }
        bitmap
    }
}

fn permute_and_check(
    g: &Graph,
    perm: &mut Vec<u32>,
    k: usize,
    target: &BTreeSet<(u32, u32)>,
) -> bool {
    if k == perm.len() {
        return g.edges().iter().all(|&(u, v)| {
            let (a, b) = (perm[u as usize], perm[v as usize]);
            target.contains(&(a.min(b), a.max(b)))
        });
    }
    for i in k..perm.len() {
        perm.swap(k, i);
        if permute_and_check(g, perm, k + 1, target) {
            perm.swap(k, i);
            return true;
        }
        perm.swap(k, i);
    }
    false
}

fn canonical_search(g: &Graph, perm: &mut Vec<u32>, k: usize, best: &mut u64) {
    if k == perm.len() {
        let bitmap = g.bitmap_under(perm);
        if bitmap < *best {
            *best = bitmap;
        }
        return;
    }
    for i in k..perm.len() {
        perm.swap(k, i);
        canonical_search(g, perm, k + 1, best);
        perm.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_edge_operations() {
        let mut g = Graph::new(5);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0), "duplicate edge must be rejected");
        assert!(g.has_edge(1, 0));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_are_rejected() {
        Graph::new(3).add_edge(1, 1);
    }

    #[test]
    fn flip_edge_toggles() {
        let mut g = Graph::new(3);
        g.flip_edge(0, 2);
        assert!(g.has_edge(0, 2));
        g.flip_edge(0, 2);
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn edges_are_sorted_and_unique() {
        let g = Graph::from_edges(4, &[(2, 3), (0, 1), (1, 2)]);
        assert_eq!(g.edges(), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn gnp_density_is_close_to_p() {
        let mut rng = Xoshiro256::new(5);
        let g = Graph::gnp(200, 0.3, &mut rng);
        let possible = 200 * 199 / 2;
        let density = g.num_edges() as f64 / possible as f64;
        assert!((density - 0.3).abs() < 0.03, "density {density}");
    }

    #[test]
    fn perturb_changes_exactly_d_edges() {
        let mut rng = Xoshiro256::new(9);
        let g = Graph::gnp(100, 0.2, &mut rng);
        for d in [0usize, 1, 5, 20] {
            let perturbed = g.perturb(d, &mut rng);
            assert_eq!(g.edge_difference(&perturbed), d);
        }
    }

    #[test]
    #[should_panic(expected = "cannot flip 2 distinct pairs")]
    fn perturb_refuses_more_changes_than_pairs() {
        Graph::new(2).perturb(2, &mut Xoshiro256::new(1));
    }

    #[test]
    fn perturb_can_flip_every_pair() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        assert_eq!(g.perturb(6, &mut Xoshiro256::new(2)), g.complement());
    }

    #[test]
    fn complement_inverts_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let c = g.complement();
        assert_eq!(c.num_edges(), 4 * 3 / 2 - 2);
        assert!(!c.has_edge(0, 1));
        assert!(c.has_edge(0, 2));
        assert_eq!(c.complement(), g);
    }

    #[test]
    fn edge_keys_roundtrip() {
        for (u, v) in [(0u32, 1u32), (5, 3), (1000, 70_000)] {
            let key = Graph::edge_key(u, v);
            assert_eq!(Graph::key_edge(key), (u.min(v), u.max(v)));
        }
    }

    #[test]
    fn relabeling_preserves_structure() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let relabeled = g.relabel(&[3, 2, 1, 0]);
        assert!(g.is_isomorphic_bruteforce(&relabeled));
        assert_eq!(relabeled.edges(), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "labels must be a permutation")]
    fn relabel_refuses_a_non_permutation() {
        Graph::from_edges(3, &[(0, 2), (1, 2)]).relabel(&[0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "labels must be a permutation")]
    fn relabel_refuses_a_label_past_the_graph() {
        Graph::from_edges(3, &[(0, 2), (1, 2)]).relabel(&[0, 1, 3]);
    }

    #[test]
    fn isomorphism_distinguishes_path_from_star() {
        let path = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let star = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let shuffled_path = Graph::from_edges(4, &[(2, 0), (0, 3), (3, 1)]);
        assert!(!path.is_isomorphic_bruteforce(&star));
        assert!(path.is_isomorphic_bruteforce(&shuffled_path));
    }

    #[test]
    fn canonical_form_is_an_isomorphism_invariant() {
        let path = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let shuffled_path = Graph::from_edges(4, &[(2, 0), (0, 3), (3, 1)]);
        let star = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(path.canonical_form_small(), shuffled_path.canonical_form_small());
        assert_ne!(path.canonical_form_small(), star.canonical_form_small());
    }

    #[test]
    fn edge_difference_counts_symmetric_difference() {
        let a = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        let b = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(a.edge_difference(&b), 2);
        assert_eq!(a.edge_difference(&a), 0);
    }
}
