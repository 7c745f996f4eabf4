//! `graph_gnp`: degree-order random-graph reconciliation (Theorem 5.2) over a
//! fixed cycle of seeded `G(n, p)` instances.
//!
//! The scheme can fail detectably: its labelled-edge IBLT is sent once, without
//! retries, and about one session seed in 1400 gives hash functions it does not
//! decode under. The caller then does what a real one would: it runs the scheme
//! again under another seed, up to [`ATTEMPTS`] times, and all of that is the
//! session (its time is in the latency; bytes and rounds are those of the run
//! that succeeded, an error carries no `CommStats`). A session that fails every
//! attempt — signatures within `d` of each other — counts as failed.
//!
//! The scheme's parties are bespoke state machines with private internals, so
//! a traced session has one span per `poll_send`/`handle` of the real parties;
//! `degree_order::signatures` is timed on its own by a probe.

use super::{traced_run, Scale, Sessions, Verdict, Watched};
use crate::trace::span;
use recon_base::rng::{split_seed, Xoshiro256};
use recon_base::ReconError;
use recon_graph::degree_order::{self, DegreeOrderParams};
use recon_graph::session::{degree_order_alice, degree_order_bob, TAG_GRAPH_CHARGE};
use recon_graph::Graph;
use recon_protocol::{Outcome, SessionBuilder};
use std::collections::HashSet;

/// One (Alice, Bob) pair plus Alice's graph on her canonical labels — the
/// exact graph a correct session must return.
struct Instance {
    alice: Graph,
    bob: Graph,
    expected: Graph,
}

/// Instances cycled through; position `j` of a block uses instance `j % 8`.
const INSTANCES: usize = 8;
/// Sessions in one block.
const BLOCK: usize = 32;
/// Edge changes per side.
const PER_SIDE: usize = 2;
/// The bound on edge changes both parties are told.
const D: usize = 2 * PER_SIDE;
/// Runs of the scheme a session may take, each under a seed of its own.
const ATTEMPTS: usize = 3;

pub struct GraphGnp {
    instances: Vec<Instance>,
    h: usize,
    seed: u64,
}

/// Alice's graph relabelled the way `degree_order_alice` labels it: anchors
/// `0..h` by degree rank, the rest `h..n` in lexicographic signature order.
fn canonical(alice: &Graph, h: usize) -> Graph {
    let sigs = degree_order::signatures(alice, h);
    let mut labels = vec![0u32; alice.num_vertices()];
    for (rank, &v) in sigs.order[..h].iter().enumerate() {
        labels[v as usize] = rank as u32;
    }
    let mut rest: Vec<_> = sigs.signatures.iter().map(|(v, sig)| (sig, *v)).collect();
    rest.sort();
    for (i, (_, v)) in rest.into_iter().enumerate() {
        labels[v as usize] = (h + i) as u32;
    }
    alice.relabel(&labels)
}

/// Remove `count` edges whose endpoints are both outside the `h` vertices of
/// highest degree.
///
/// Theorem 5.2 assumes an `(h, d+1, 2d+1)`-separated base graph, which
/// `G(n, p)` only is at far larger `n` (Theorem 5.3); with unrestricted edge
/// flips (`Graph::perturb`) at `n = 256` the top-`h` degree order differs
/// between the two sides in most instances and the session ends in a
/// `SeparationFailure` before it has done its work. Keeping the changes off the
/// anchors leaves that order identical on both sides — the property separation
/// buys — so the workload times the theorem's regime. Which vertices are
/// anchors is read off the degrees here, not asked of the library.
fn perturb_off_anchor(base: &Graph, h: usize, count: usize, rng: &mut Xoshiro256) -> Graph {
    let mut by_degree: Vec<u32> = (0..base.num_vertices() as u32).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(base.degree(v)), v));
    let anchors: HashSet<u32> = by_degree[..h].iter().copied().collect();
    let candidates: Vec<(u32, u32)> = base
        .edges()
        .into_iter()
        .filter(|(u, v)| !anchors.contains(u) && !anchors.contains(v))
        .collect();
    let mut out = base.clone();
    let mut removed = 0;
    while removed < count {
        let (u, v) = candidates[rng.next_index(candidates.len())];
        if out.remove_edge(u, v) {
            removed += 1;
        }
    }
    out
}

impl GraphGnp {
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let n = scale.pick(256, 64);
        let h = scale.pick(48, 40);
        let mut rng = Xoshiro256::new(split_seed(seed, 0x6000));
        let instances = (0..INSTANCES)
            .map(|_| {
                let base = Graph::gnp(n, 0.35, &mut rng);
                let alice = perturb_off_anchor(&base, h, PER_SIDE, &mut rng);
                let bob = perturb_off_anchor(&base, h, PER_SIDE, &mut rng);
                let expected = canonical(&alice, h);
                Instance { alice, bob, expected }
            })
            .collect();
        Self { instances, h, seed }
    }

    /// Run `attempt` under the seeds of session `j` until one succeeds.
    fn retried(
        &self,
        j: usize,
        mut attempt: impl FnMut(&DegreeOrderParams) -> Result<Outcome<Graph>, ReconError>,
    ) -> Result<Outcome<Graph>, ReconError> {
        let mut seeds = (0..ATTEMPTS).map(|k| split_seed(self.seed, (j + k * BLOCK) as u64));
        let mut run = |seed| attempt(&DegreeOrderParams { h: self.h, seed });
        let first = run(seeds.next().expect("at least one attempt"));
        seeds.fold(first, |result, seed| result.or_else(|_| run(seed)))
    }

    fn judge(&self, j: usize, result: Result<Outcome<Graph>, ReconError>) -> Verdict {
        let expected = &self.instances[j % INSTANCES].expected;
        Verdict::judge(&result, D, |graph| {
            graph.num_vertices() == expected.num_vertices()
                && graph.num_edges() == expected.num_edges()
                && graph == expected
        })
    }
}

impl Sessions for GraphGnp {
    fn block_len(&self) -> usize {
        BLOCK
    }

    fn shape(&self) -> String {
        let n = self.instances[0].alice.num_vertices();
        format!(
            "{INSTANCES} instances of G({n}, 0.35) cycled, h = {}, {PER_SIDE} edge removals per \
             side off the anchors (d = {D}); floor 8·d = {} B",
            self.h,
            8 * D
        )
    }

    fn session(&self, j: usize) -> Verdict {
        let Instance { alice, bob, .. } = &self.instances[j % INSTANCES];
        let result = self.retried(j, |params| {
            let alice = degree_order_alice(alice, D, params)?;
            SessionBuilder::new(params.seed).run(alice, degree_order_bob(bob, D, params)?)
        });
        self.judge(j, result)
    }

    fn traced_session(&self, j: usize) -> Verdict {
        let Instance { alice, bob, .. } = &self.instances[j % INSTANCES];
        let mut watched = Watched::default();
        let result = self.retried(j, |params| {
            let builder = SessionBuilder::new(params.seed);
            let (result, sent) = traced_run("graph", TAG_GRAPH_CHARGE, &builder, || {
                Ok((degree_order_alice(alice, D, params)?, degree_order_bob(bob, D, params)?))
            });
            watched = sent;
            result
        });
        span("harness", "verify", move || Verdict { watched, ..self.judge(j, result) })
    }
}
