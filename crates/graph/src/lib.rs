//! # recon-graph
//!
//! Graph reconciliation built on set-of-sets reconciliation — Sections 4, 5 and 6 of
//! *"Reconciling Graphs and Sets of Sets"* (Mitzenmacher & Morgan, PODS 2018).
//!
//! Alice and Bob hold *unlabeled* graphs on `n` vertices that become isomorphic
//! after at most `d` edge changes; Bob must end up with a graph isomorphic to
//! Alice's, using communication close to `O(d)` words. (For labeled graphs the
//! problem is just set reconciliation over the edge sets — see `recon-set`.)
//!
//! * [`graph`] — the undirected-graph substrate: one sorted neighbour row per
//!   vertex, `G(n, p)` generation, the perturbation model, brute-force
//!   isomorphism for small graphs. Every per-vertex table of the schemes (anchor
//!   ranks, labels) is likewise a vector indexed by vertex.
//! * [`general`] — worst-case protocols (Section 4): the `O(log n)`-bit isomorphism
//!   fingerprint (Theorem 4.1), exhaustive reconciliation (Theorem 4.3), the
//!   Figure 1 merge-ambiguity instance, and the Theorem 4.4 lower-bound encoding.
//! * [`degree_order`] — the degree-ordering signature scheme for dense-ish `G(n,p)`
//!   (Section 5.1, Theorems 5.2/5.3).
//! * [`degree_neighborhood`] — the neighbor-degree-multiset scheme for sparser
//!   `G(n,p)` (Section 5.2, Theorems 5.5/5.6).
//! * [`forest`] — rooted-forest reconciliation via signature multisets (Section 6,
//!   Theorem 6.1).
//!
//! * [`session`] — each scheme's Alice and Bob parties, which
//!   `recon_protocol::SessionBuilder::run` drives in memory. A graph Bob ends
//!   by patching his relabelled graph with the decoded labelled-edge difference.
//!
//! ```
//! use recon_base::rng::Xoshiro256;
//! use recon_graph::{degree_order, session, Graph};
//! use recon_protocol::SessionBuilder;
//!
//! let mut rng = Xoshiro256::new(7);
//! let base = Graph::gnp(200, 0.35, &mut rng);
//! let alice = base.perturb(2, &mut rng);   // Alice's copy drifted by 2 edges
//! let bob = base.perturb(2, &mut rng);     // Bob's copy drifted by 2 other edges
//!
//! // Each side builds its party from its own graph; the session runs the pair.
//! let params = degree_order::DegreeOrderParams { h: 16, seed: 99 };
//! let outcome = session::degree_order_alice(&alice, 4, &params).and_then(|a| {
//!     SessionBuilder::new(params.seed).run(a, session::degree_order_bob(&bob, 4, &params)?)
//! });
//! if let Ok(outcome) = outcome {
//!     assert_eq!(outcome.recovered.num_edges(), alice.num_edges());
//!     println!("graph reconciled with {}", outcome.stats);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod degree_neighborhood;
pub mod degree_order;
pub mod forest;
pub mod general;
pub mod graph;
pub mod session;

pub use forest::Forest;
pub use graph::Graph;
