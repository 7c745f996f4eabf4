//! `Graph`'s sorted adjacency rows against the model they replaced: one
//! `BTreeSet<u32>` of neighbours per vertex. Seeded random sequences of
//! `add_edge`, `remove_edge` and `flip_edge` run on both, and after every step
//! each query, the edge order, equality, cloning, relabelling and the
//! complement agree.

use recon_base::rng::Xoshiro256;
use recon_graph::Graph;
use std::collections::BTreeSet;

/// The reference: a neighbour set per vertex.
struct Model {
    adj: Vec<BTreeSet<u32>>,
}

impl Model {
    fn new(n: usize) -> Self {
        Self { adj: vec![BTreeSet::new(); n] }
    }

    fn add(&mut self, u: u32, v: u32) -> bool {
        self.adj[v as usize].insert(u);
        self.adj[u as usize].insert(v)
    }

    fn remove(&mut self, u: u32, v: u32) -> bool {
        self.adj[v as usize].remove(&u);
        self.adj[u as usize].remove(&v)
    }

    fn num_edges(&self) -> usize {
        self.adj.iter().map(BTreeSet::len).sum::<usize>() / 2
    }

    /// Edges `(u, v)`, `u < v`, in lexicographic order.
    fn edges(&self) -> Vec<(u32, u32)> {
        (0u32..)
            .zip(&self.adj)
            .flat_map(|(u, row)| row.range(u + 1..).map(move |&v| (u, v)))
            .collect()
    }
}

/// Every query of `graph` answers as `model`'s does.
fn assert_agree(graph: &Graph, model: &Model, step: &str) {
    let n = model.adj.len() as u32;
    assert_eq!(graph.num_vertices(), model.adj.len(), "{step}");
    assert_eq!(graph.num_edges(), model.num_edges(), "{step}");
    for u in 0..n {
        let row = &model.adj[u as usize];
        assert_eq!(graph.degree(u), row.len(), "{step}: degree({u})");
        assert!(graph.neighbors(u).eq(row.iter().copied()), "{step}: neighbors({u})");
        for v in 0..n {
            assert_eq!(graph.has_edge(u, v), row.contains(&v), "{step}: has_edge({u}, {v})");
        }
    }
    assert_eq!(graph.edges(), model.edges(), "{step}: edges()");
}

/// A random permutation of `0..n`.
fn permutation(n: usize, rng: &mut Xoshiro256) -> Vec<u32> {
    let mut labels: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        labels.swap(i, rng.next_index(i + 1));
    }
    labels
}

/// The derived graphs of `graph` against the same built from `model`.
fn assert_derived_agree(graph: &Graph, model: &Model, rng: &mut Xoshiro256, step: &str) {
    let n = model.adj.len();
    let edges = model.edges();
    let rebuilt = Graph::from_edges(n, &edges);
    assert_eq!(graph, &rebuilt, "{step}: == against the model's edges");
    assert_eq!(&graph.clone(), graph, "{step}: clone");

    let labels = permutation(n, rng);
    let mut relabelled = Model::new(n);
    for &(u, v) in &edges {
        relabelled.add(labels[u as usize], labels[v as usize]);
    }
    assert_agree(&graph.relabel(&labels), &relabelled, &format!("{step}: relabel"));

    let mut complement = Model::new(n);
    for u in 0..n as u32 {
        for v in u + 1..n as u32 {
            if !model.adj[u as usize].contains(&v) {
                complement.add(u, v);
            }
        }
    }
    assert_agree(&graph.complement(), &complement, &format!("{step}: complement"));
}

#[test]
fn random_edits_agree_with_the_neighbour_set_model() {
    for (seed, n) in [(1u64, 2usize), (2, 5), (3, 12), (4, 40)] {
        let mut rng = Xoshiro256::new(seed);
        let mut graph = Graph::new(n);
        let mut model = Model::new(n);
        for step in 0..300 {
            let u = rng.next_index(n) as u32;
            let v = rng.next_index(n) as u32;
            if u == v {
                continue;
            }
            let what = format!("seed {seed}, step {step}");
            match rng.next_index(3) {
                0 => assert_eq!(graph.add_edge(u, v), model.add(u, v), "{what}: add"),
                1 => assert_eq!(graph.remove_edge(u, v), model.remove(u, v), "{what}: remove"),
                _ => {
                    graph.flip_edge(u, v);
                    if !model.remove(u, v) {
                        model.add(u, v);
                    }
                }
            }
            assert_agree(&graph, &model, &what);
            if step % 10 == 0 {
                assert_derived_agree(&graph, &model, &mut rng, &what);
            }
        }
    }
}

#[test]
fn from_edges_takes_unsorted_input_with_duplicates() {
    let mut rng = Xoshiro256::new(0xAD7);
    for n in [2usize, 7, 30] {
        let mut edges = Vec::new();
        let mut model = Model::new(n);
        while edges.len() < 4 * n {
            let u = rng.next_index(n) as u32;
            let v = rng.next_index(n) as u32;
            if u != v {
                // Either orientation, often twice.
                edges.push((u, v));
                if rng.next_bool(0.3) {
                    edges.push((v, u));
                }
                model.add(u, v);
            }
        }
        let graph = Graph::from_edges(n, &edges);
        assert_agree(&graph, &model, &format!("n = {n}"));
        assert_derived_agree(&graph, &model, &mut rng, &format!("n = {n}"));
    }
}
