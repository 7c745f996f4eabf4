//! What a graph Bob learns from Alice is outside input, even from an honest
//! Alice whose graph is not the size Bob's is. Two inputs used to reach
//! `Graph::add_edge`'s assertions on Bob's party path — the one a daemon or an
//! `Endpoint` runs — and unwind him: a graph with one more, isolated, vertex,
//! which degree-order Bob labelled past his own vertices, and a labelled-edge
//! digest holding a self-loop or an endpoint past the graph. Both Bobs refuse
//! them now, and likewise a key `Graph::edge_key` never makes: the endpoints of
//! an edge Bob has, high half above low half, which would make him return one
//! edge fewer than the keys he verified.

use recon_base::rng::Xoshiro256;
use recon_base::ReconError;
use recon_graph::degree_neighborhood::{agreed_params, DegreeNeighborhoodParams};
use recon_graph::degree_order::DegreeOrderParams;
use recon_graph::session::{self, TAG_GRAPH_EDGES};
use recon_graph::Graph;
use recon_protocol::{Envelope, Party, SessionBuilder, Step};
use recon_set::IbltSetProtocol;
use std::collections::HashSet;

/// The edges a forged digest adds: a self-loop, and an endpoint past the graph.
const FORGED: [(u32, u32); 2] = [(3, 3), (0, 5000)];

fn assert_refused(result: Result<Graph, ReconError>, what: &str) {
    assert!(matches!(result, Err(ReconError::InvalidInput(_))), "{what}: {result:?}");
}

/// An honest Alice, except that her labelled-edge digest is `edges`.
struct ForgedEdges<P> {
    alice: P,
    edges: Envelope,
}

impl<P: Party<Output = ()>> Party for ForgedEdges<P> {
    type Output = ();

    fn poll_send(&mut self) -> Option<Envelope> {
        let envelope = self.alice.poll_send()?;
        Some(if envelope.tag == TAG_GRAPH_EDGES { self.edges.clone() } else { envelope })
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<()>, ReconError> {
        self.alice.handle(envelope)
    }
}

/// The digest of `recovered`'s labelled edges plus `edge`, under `coins`, the
/// edge protocol's public seed: Bob's own edges decode it to exactly one more key.
fn forged_edges(recovered: &Graph, (u, v): (u32, u32), coins: u64) -> Envelope {
    forged_key(recovered, Graph::edge_key(u, v), coins)
}

/// [`forged_edges`] for a raw key.
fn forged_key(recovered: &Graph, key: u64, coins: u64) -> Envelope {
    let mut keys: HashSet<u64> = recovered.edge_keys().into_iter().collect();
    keys.insert(key);
    let digest = IbltSetProtocol::new(coins).digest(&keys, 8);
    Envelope::parallel(TAG_GRAPH_EDGES, "labeled edge IBLT", &digest)
}

fn degree_order(
    alice: &Graph,
    bob: &Graph,
    params: &DegreeOrderParams,
) -> Result<Graph, ReconError> {
    let alice = session::degree_order_alice(alice, 2, params)?;
    let bob = session::degree_order_bob(bob, 2, params)?;
    Ok(SessionBuilder::new(params.seed).run(alice, bob)?.recovered)
}

#[test]
fn degree_order_bob_refuses_a_graph_with_one_more_vertex() {
    for seed in [17, 18, 19] {
        let bob = Graph::gnp(200, 0.35, &mut Xoshiro256::new(seed));
        let alice = Graph::from_edges(201, &bob.edges());
        let params = DegreeOrderParams { h: 48, seed };
        assert!(degree_order(&bob, &bob, &params).is_ok(), "seed {seed}: the honest pair");
        assert_refused(degree_order(&alice, &bob, &params), &format!("seed {seed}, Alice +1"));
        assert_refused(degree_order(&bob, &alice, &params), &format!("seed {seed}, Bob +1"));
    }
}

#[test]
fn degree_order_bob_refuses_a_forged_edge() {
    let graph = Graph::gnp(200, 0.35, &mut Xoshiro256::new(17));
    let params = DegreeOrderParams { h: 48, seed: 91 };
    let honest = degree_order(&graph, &graph, &params).expect("the honest pair");
    for edge in FORGED {
        let alice = ForgedEdges {
            alice: session::degree_order_alice(&graph, 2, &params).unwrap(),
            edges: forged_edges(&honest, edge, params.seed ^ 0xED6E),
        };
        let bob = session::degree_order_bob(&graph, 2, &params).unwrap();
        let result = SessionBuilder::new(params.seed).run(alice, bob).map(|o| o.recovered);
        assert_refused(result, &format!("{edge:?}"));
    }
}

#[test]
fn degree_neighborhood_bob_refuses_a_forged_edge() {
    let graph = Graph::gnp(160, 0.1, &mut Xoshiro256::new(3));
    let params = DegreeNeighborhoodParams::for_gnp(160, 0.1, 7);
    let agreed = agreed_params(&graph, &graph, &params).unwrap();
    let pair = || {
        let alice = session::degree_neighborhood_alice(&graph, 2, &params, &agreed).unwrap();
        (alice, session::degree_neighborhood_bob(&graph, 2, &params, &agreed).unwrap())
    };
    let (alice, bob) = pair();
    let honest = SessionBuilder::new(params.seed).run(alice, bob).expect("the honest pair");
    for edge in FORGED {
        let (alice, bob) = pair();
        let alice = ForgedEdges {
            alice,
            edges: forged_edges(&honest.recovered, edge, params.seed ^ 0xED61),
        };
        let result = SessionBuilder::new(params.seed).run(alice, bob).map(|o| o.recovered);
        assert_refused(result, &format!("{edge:?}"));
    }
}

/// The key of `graph`'s first edge `(u, v)`, `u < v`, with its halves swapped.
fn reversed_key(graph: &Graph) -> u64 {
    let (u, v) = graph.edges()[0];
    ((v as u64) << 32) | u as u64
}

#[test]
fn both_bobs_refuse_a_reversed_edge_key() {
    let graph = Graph::gnp(200, 0.35, &mut Xoshiro256::new(17));
    let params = DegreeOrderParams { h: 48, seed: 91 };
    let honest = degree_order(&graph, &graph, &params).expect("the honest pair");
    let alice = ForgedEdges {
        alice: session::degree_order_alice(&graph, 2, &params).unwrap(),
        edges: forged_key(&honest, reversed_key(&honest), params.seed ^ 0xED6E),
    };
    let bob = session::degree_order_bob(&graph, 2, &params).unwrap();
    let result = SessionBuilder::new(params.seed).run(alice, bob).map(|o| o.recovered);
    assert_refused(result, "degree order, reversed key");

    let graph = Graph::gnp(160, 0.1, &mut Xoshiro256::new(3));
    let params = DegreeNeighborhoodParams::for_gnp(160, 0.1, 7);
    let agreed = agreed_params(&graph, &graph, &params).unwrap();
    let pair = || {
        let alice = session::degree_neighborhood_alice(&graph, 2, &params, &agreed).unwrap();
        (alice, session::degree_neighborhood_bob(&graph, 2, &params, &agreed).unwrap())
    };
    let (alice, bob) = pair();
    let honest = SessionBuilder::new(params.seed).run(alice, bob).expect("the honest pair");
    let (alice, bob) = pair();
    let alice = ForgedEdges {
        alice,
        edges: forged_key(&honest.recovered, reversed_key(&honest.recovered), params.seed ^ 0xED61),
    };
    let result = SessionBuilder::new(params.seed).run(alice, bob).map(|o| o.recovered);
    assert_refused(result, "degree neighbourhood, reversed key");
}
