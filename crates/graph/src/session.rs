//! Sans-I/O [`Party`] implementations of the graph and forest schemes.
//!
//! Each scheme embeds a complete set-of-sets (or set-of-multisets) session via
//! [`recon_protocol::Nested`]: the embedded envelopes travel through the outer
//! session uncharged while their would-be cost accumulates, and once the
//! sub-protocol completes Alice emits a single aggregate charge — matching how
//! the paper accounts the signature reconciliation as one message — followed, in
//! the same round, by the scheme's finale (the labeled-edge IBLT, or the
//! root-signature hash for forests).

use crate::degree_neighborhood::{self, DegreeNeighborhoodParams};
use crate::degree_order::{self, DegreeOrderParams, DegreeOrderSignatures};
use crate::forest::Forest;
use crate::graph::Graph;
use recon_base::ReconError;
use recon_protocol::{Amplification, Envelope, Nested, Party, Step};
use recon_set::{IbltSetProtocol, Multiset};
use recon_sos::multiset_of_multisets::{PairPacking, SetOfMultisets};
use recon_sos::{session as sos_session, SetOfSets, SosParams};
use std::collections::{HashMap, HashSet};

/// Envelope tag: Bob's uncharged acknowledgement that the embedded signature
/// reconciliation completed.
pub const TAG_GRAPH_ACK: u16 = 0x6001;
/// Envelope tag: Alice's aggregate charge for the embedded reconciliation.
pub const TAG_GRAPH_CHARGE: u16 = 0x6002;
/// Envelope tag: the labeled-edge IBLT digest (same round as the charge).
pub const TAG_GRAPH_EDGES: u16 = 0x6003;
/// Envelope tag: the root-signature hash of forest reconciliation.
pub const TAG_GRAPH_ROOTS: u16 = 0x6004;

type BoxedAlice = Box<dyn Party<Output = ()>>;
type BoxedSosBob = Box<dyn Party<Output = SetOfSets>>;
type BoxedMomBob = Box<dyn Party<Output = SetOfMultisets>>;

/// The amplification budget of the embedded cascading sessions (Theorem 3.7's
/// replication).
fn embedded_amplification() -> Amplification {
    Amplification::replicate(4)
}

fn map_signature_errors(error: ReconError) -> ReconError {
    match error {
        ReconError::PeelingFailure { .. }
        | ReconError::ChecksumFailure
        | ReconError::NoMatchingChild { .. } => ReconError::SeparationFailure(
            "signature sets changed by more than the bound; the top-h ordering did not \
             conform under the perturbation"
                .to_string(),
        ),
        other => other,
    }
}

/// Bob's graph on `n` vertices from the recovered labeled edge keys. A key that
/// is no edge of a simple graph on `n` vertices — a self-loop, or an endpoint
/// `≥ n` — only a forged digest holds, and is refused.
fn graph_from_edge_keys(n: usize, keys: HashSet<u64>) -> Result<Graph, ReconError> {
    let mut graph = Graph::new(n);
    for key in keys {
        let (u, v) = Graph::key_edge(key);
        if u == v || u as usize >= n || v as usize >= n {
            return Err(ReconError::InvalidInput(format!(
                "recovered edge ({u}, {v}) is no edge of a simple graph on {n} vertices"
            )));
        }
        graph.add_edge(u, v);
    }
    Ok(graph)
}

// ---------------------------------------------------------------------------
// Degree-ordering scheme (Section 5.1, Theorem 5.2)
// ---------------------------------------------------------------------------

/// Alice's shared shape across all three graph schemes: run the embedded
/// signature sub-session, and on Bob's acknowledgement emit the aggregate
/// charge for it plus the scheme's finale envelope (labeled-edge IBLT or
/// root-signature hash) in the same round.
pub struct SchemeAlice {
    nested: Nested<BoxedAlice>,
    charge_label: &'static str,
    finale: Envelope,
    sent_finale: bool,
    outbox: std::collections::VecDeque<Envelope>,
}

impl SchemeAlice {
    fn new(inner: BoxedAlice, charge_label: &'static str, finale: Envelope) -> Self {
        Self {
            nested: Nested::new(inner),
            charge_label,
            finale,
            sent_finale: false,
            outbox: std::collections::VecDeque::new(),
        }
    }
}

impl Party for SchemeAlice {
    type Output = ();

    fn poll_send(&mut self) -> Option<Envelope> {
        self.nested.poll_send().or_else(|| self.outbox.pop_front())
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<()>, ReconError> {
        if Nested::<BoxedAlice>::is_nested(&envelope) {
            self.nested.handle(envelope)?;
            return Ok(Step::Continue);
        }
        match envelope.tag {
            TAG_GRAPH_ACK if !self.sent_finale => {
                self.sent_finale = true;
                // The embedded exchange is complete: charge its aggregate cost as a
                // single message and send the finale in the same round.
                self.outbox.push_back(Envelope::charge(
                    TAG_GRAPH_CHARGE,
                    self.charge_label,
                    self.nested.charged_bytes(),
                    false,
                ));
                self.outbox.push_back(self.finale.clone());
                Ok(Step::Continue)
            }
            _ => Err(ReconError::InvalidInput(format!(
                "unexpected envelope tag {:#x} for graph-scheme Alice",
                envelope.tag
            ))),
        }
    }
}

/// Build Alice's side of Theorem 5.2 from her graph alone.
pub fn degree_order_alice(
    alice: &Graph,
    d: usize,
    params: &DegreeOrderParams,
) -> Result<SchemeAlice, ReconError> {
    let n = alice.num_vertices();
    let h = params.h.min(n);
    let d = d.max(1);

    let alice_sigs = degree_order::signatures(alice, h);
    let alice_sos = degree_order::signature_set_of_sets(&alice_sigs)?;
    let sos_params = SosParams::new(params.seed ^ 0xD06, h.max(1));
    let inner = sos_session::cascading_known_alice(
        &alice_sos,
        2 * d,
        &sos_params,
        embedded_amplification(),
    )?;

    let (alice_labels, _) = degree_order::label_map_from_signatures(&alice_sigs, h);
    let edge_protocol = IbltSetProtocol::new(params.seed ^ 0xED6E);
    let alice_edges: HashSet<u64> = alice
        .edges()
        .iter()
        .map(|&(u, v)| Graph::edge_key(alice_labels[&u], alice_labels[&v]))
        .collect();
    let edge_digest = edge_protocol.digest(&alice_edges, 2 * d + 4);

    Ok(SchemeAlice::new(
        Box::new(inner),
        "signature set-of-sets (cascading IBLTs)",
        Envelope::parallel(TAG_GRAPH_EDGES, "labeled edge IBLT", &edge_digest),
    ))
}

/// Bob's side of the degree-ordering scheme.
pub struct DegreeOrderBob {
    nested: Nested<BoxedSosBob>,
    bob_sigs: DegreeOrderSignatures,
    bob_edges_raw: Vec<(u32, u32)>,
    n: usize,
    h: usize,
    d: usize,
    seed: u64,
    recovered: Option<SetOfSets>,
    outbox: std::collections::VecDeque<Envelope>,
}

/// Build Bob's side of Theorem 5.2 from his graph alone.
pub fn degree_order_bob(
    bob: &Graph,
    d: usize,
    params: &DegreeOrderParams,
) -> Result<DegreeOrderBob, ReconError> {
    let n = bob.num_vertices();
    let h = params.h.min(n);
    let d = d.max(1);

    let bob_sigs = degree_order::signatures(bob, h);
    let bob_sos = degree_order::signature_set_of_sets(&bob_sigs)?;
    let sos_params = SosParams::new(params.seed ^ 0xD06, h.max(1));
    let inner = sos_session::cascading_known_bob(&bob_sos, &sos_params, embedded_amplification());

    Ok(DegreeOrderBob {
        nested: Nested::new(Box::new(inner)),
        bob_sigs,
        bob_edges_raw: bob.edges(),
        n,
        h,
        d,
        seed: params.seed,
        recovered: None,
        outbox: std::collections::VecDeque::new(),
    })
}

impl Party for DegreeOrderBob {
    type Output = Graph;

    fn poll_send(&mut self) -> Option<Envelope> {
        self.nested.poll_send().or_else(|| self.outbox.pop_front())
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<Graph>, ReconError> {
        if Nested::<BoxedSosBob>::is_nested(&envelope) {
            match self.nested.handle(envelope).map_err(map_signature_errors)? {
                Step::Done(recovered) => {
                    // One signature per non-anchor vertex: any other count is a
                    // graph of another size, whose labels would leave Bob's range.
                    if recovered.num_children() != self.n - self.h {
                        return Err(ReconError::InvalidInput("the graphs differ in size".into()));
                    }
                    self.recovered = Some(recovered);
                    self.outbox.push_back(Envelope::control(
                        TAG_GRAPH_ACK,
                        "signature reconciliation complete",
                        &(),
                    ));
                }
                Step::Continue => {}
            }
            return Ok(Step::Continue);
        }
        match envelope.tag {
            TAG_GRAPH_CHARGE => Ok(Step::Continue),
            TAG_GRAPH_EDGES => {
                let recovered = self.recovered.take().ok_or_else(|| {
                    ReconError::InvalidInput(
                        "edge digest arrived before the signature reconciliation".to_string(),
                    )
                })?;
                // --- Conforming labeling (Definition 5.1). -----------------------
                let mut bob_labels: HashMap<u32, u32> = HashMap::new();
                for (rank, &v) in self.bob_sigs.order[..self.h].iter().enumerate() {
                    bob_labels.insert(v, rank as u32);
                }
                let partners = degree_order::match_signatures(
                    &self.bob_sigs.signatures,
                    recovered.children(),
                    self.h,
                    self.d,
                )?;
                for ((v, _), partner) in self.bob_sigs.signatures.iter().zip(partners) {
                    bob_labels.insert(*v, (self.h + partner) as u32);
                }
                if bob_labels.values().collect::<HashSet<_>>().len() != self.n {
                    return Err(ReconError::SeparationFailure(
                        "conforming labeling is not a bijection".to_string(),
                    ));
                }

                // --- Labeled edge reconciliation (Corollary 2.2). ----------------
                let edge_protocol = IbltSetProtocol::new(self.seed ^ 0xED6E);
                let edge_digest = envelope.decode_payload()?;
                let bob_edges: HashSet<u64> = self
                    .bob_edges_raw
                    .iter()
                    .map(|&(u, v)| Graph::edge_key(bob_labels[&u], bob_labels[&v]))
                    .collect();
                let recovered_edges =
                    edge_protocol.reconcile(&edge_digest, &bob_edges).map_err(|e| {
                        // If the labeled-edge difference blew past 2d, the labelings
                        // did not conform: the underlying cause is insufficient
                        // separation, so report it as such.
                        match e {
                            ReconError::PeelingFailure { .. } | ReconError::ChecksumFailure => {
                                ReconError::SeparationFailure(
                                    "labeled edge difference exceeded the bound; anchor \
                                     ordering or signature matching did not conform"
                                        .to_string(),
                                )
                            }
                            other => other,
                        }
                    })?;

                Ok(Step::Done(graph_from_edge_keys(self.n, recovered_edges)?))
            }
            _ => Err(ReconError::InvalidInput(format!(
                "unexpected envelope tag {:#x} for degree-order Bob",
                envelope.tag
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Degree-neighborhood scheme (Section 5.2, Theorem 5.6)
// ---------------------------------------------------------------------------

/// Build Alice's side of Theorem 5.6. `resolved` must carry the packed
/// `max_child_size` both parties agreed on (see
/// [`degree_neighborhood::agreed_params`]).
pub fn degree_neighborhood_alice(
    alice: &Graph,
    d: usize,
    params: &DegreeNeighborhoodParams,
    resolved: &SosParams,
) -> Result<SchemeAlice, ReconError> {
    let d = d.max(1);
    let alice_sigs = degree_neighborhood::signatures(alice, params.degree_cap);
    {
        let distinct: HashSet<Vec<(u64, u64)>> =
            alice_sigs.iter().map(degree_neighborhood::canonical_key).collect();
        if distinct.len() != alice_sigs.len() {
            return Err(ReconError::SeparationFailure(
                "two vertices share a degree-neighborhood signature".to_string(),
            ));
        }
    }
    let alice_collection = SetOfMultisets::from_children(alice_sigs.iter().cloned());
    let element_changes = 2 * d * (params.degree_cap + 2);
    let packing = PairPacking::default();
    let inner = sos_session::mom_known_alice(
        &alice_collection,
        element_changes,
        resolved,
        &packing,
        embedded_amplification(),
    )?;

    // Alice's canonical labeling: rank of each signature in the sorted distinct
    // signature list (identical to the rank Bob derives from the recovered
    // collection whenever the reconciliation succeeds).
    let mut alice_sorted: Vec<Vec<(u64, u64)>> =
        alice_sigs.iter().map(degree_neighborhood::canonical_key).collect();
    alice_sorted.sort();
    let alice_rank: HashMap<Vec<(u64, u64)>, u32> =
        alice_sorted.iter().enumerate().map(|(i, k)| (k.clone(), i as u32)).collect();
    let alice_labels: Vec<u32> = alice_sigs
        .iter()
        .map(|s| alice_rank.get(&degree_neighborhood::canonical_key(s)).copied())
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| {
            ReconError::SeparationFailure("Alice signature missing from her own ranking".into())
        })?;

    let edge_protocol = IbltSetProtocol::new(params.seed ^ 0xED61);
    let alice_edges: HashSet<u64> = alice
        .edges()
        .iter()
        .map(|&(u, v)| Graph::edge_key(alice_labels[u as usize], alice_labels[v as usize]))
        .collect();
    let edge_digest = edge_protocol.digest(&alice_edges, 2 * d + 4);

    Ok(SchemeAlice::new(
        Box::new(inner),
        "degree-neighborhood signatures (set of multisets)",
        Envelope::parallel(TAG_GRAPH_EDGES, "labeled edge IBLT", &edge_digest),
    ))
}

/// Bob's side of the degree-neighborhood scheme.
pub struct DegreeNeighborhoodBob {
    nested: Nested<BoxedMomBob>,
    bob_sigs: Vec<Multiset>,
    bob_edges_raw: Vec<(u32, u32)>,
    n: usize,
    d: usize,
    seed: u64,
    recovered: Option<SetOfMultisets>,
    outbox: std::collections::VecDeque<Envelope>,
}

/// Build Bob's side of Theorem 5.6 from his graph alone.
pub fn degree_neighborhood_bob(
    bob: &Graph,
    d: usize,
    params: &DegreeNeighborhoodParams,
    resolved: &SosParams,
) -> Result<DegreeNeighborhoodBob, ReconError> {
    let d = d.max(1);
    let bob_sigs = degree_neighborhood::signatures(bob, params.degree_cap);
    let bob_collection = SetOfMultisets::from_children(bob_sigs.iter().cloned());
    let packing = PairPacking::default();
    let inner =
        sos_session::mom_known_bob(&bob_collection, resolved, &packing, embedded_amplification())?;
    Ok(DegreeNeighborhoodBob {
        nested: Nested::new(Box::new(inner)),
        bob_sigs,
        bob_edges_raw: bob.edges(),
        n: bob.num_vertices(),
        d,
        seed: params.seed,
        recovered: None,
        outbox: std::collections::VecDeque::new(),
    })
}

impl Party for DegreeNeighborhoodBob {
    type Output = Graph;

    fn poll_send(&mut self) -> Option<Envelope> {
        self.nested.poll_send().or_else(|| self.outbox.pop_front())
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<Graph>, ReconError> {
        if Nested::<BoxedMomBob>::is_nested(&envelope) {
            if let Step::Done(recovered) = self.nested.handle(envelope)? {
                self.recovered = Some(recovered);
                self.outbox.push_back(Envelope::control(
                    TAG_GRAPH_ACK,
                    "signature reconciliation complete",
                    &(),
                ));
            }
            return Ok(Step::Continue);
        }
        match envelope.tag {
            TAG_GRAPH_CHARGE => Ok(Step::Continue),
            TAG_GRAPH_EDGES => {
                let recovered = self.recovered.take().ok_or_else(|| {
                    ReconError::InvalidInput(
                        "edge digest arrived before the signature reconciliation".to_string(),
                    )
                })?;

                // --- Conforming labeling. ---------------------------------------
                let mut alice_sorted: Vec<Vec<(u64, u64)>> =
                    recovered.children().iter().map(degree_neighborhood::canonical_key).collect();
                alice_sorted.sort();
                let alice_rank: HashMap<Vec<(u64, u64)>, u32> =
                    alice_sorted.iter().enumerate().map(|(i, k)| (k.clone(), i as u32)).collect();
                // Alice refuses twin signatures, so fewer distinct ones than Bob has
                // vertices, or more, is a graph of another size.
                if alice_sorted.len() != self.n || alice_rank.len() != self.n {
                    return Err(ReconError::InvalidInput("the graphs differ in size".into()));
                }

                let recovered_multisets: Vec<Multiset> = alice_sorted
                    .iter()
                    .map(|pairs| {
                        let mut m = Multiset::new();
                        for &(x, c) in pairs {
                            m.insert_n(x, c);
                        }
                        m
                    })
                    .collect();
                let mut bob_labels: Vec<Option<u32>> = vec![None; self.n];
                let mut used: HashSet<u32> = HashSet::new();
                let mut unmatched: Vec<u32> = Vec::new();
                for (v, sig) in self.bob_sigs.iter().enumerate() {
                    if let Some(&rank) = alice_rank.get(&degree_neighborhood::canonical_key(sig)) {
                        bob_labels[v] = Some(rank);
                        used.insert(rank);
                    } else {
                        unmatched.push(v as u32);
                    }
                }
                for &v in &unmatched {
                    let sig = &self.bob_sigs[v as usize];
                    let mut candidates = recovered_multisets
                        .iter()
                        .enumerate()
                        .filter(|(rank, m)| {
                            !used.contains(&(*rank as u32)) && m.difference_size(sig) <= 2 * self.d
                        })
                        .map(|(rank, _)| rank as u32);
                    let Some(rank) = candidates.next() else {
                        return Err(ReconError::SeparationFailure(format!(
                            "vertex {v} has no signature within distance {}",
                            2 * self.d
                        )));
                    };
                    if candidates.next().is_some() {
                        return Err(ReconError::SeparationFailure(format!(
                            "vertex {v} matches multiple signatures within distance {}",
                            2 * self.d
                        )));
                    }
                    bob_labels[v as usize] = Some(rank);
                    used.insert(rank);
                }
                let bob_labels: Vec<u32> =
                    bob_labels.into_iter().map(|l| l.expect("assigned")).collect();

                // --- Labeled edge reconciliation, same round. -------------------
                let edge_protocol = IbltSetProtocol::new(self.seed ^ 0xED61);
                let edge_digest = envelope.decode_payload()?;
                let bob_edges: HashSet<u64> = self
                    .bob_edges_raw
                    .iter()
                    .map(|&(u, v)| Graph::edge_key(bob_labels[u as usize], bob_labels[v as usize]))
                    .collect();
                let recovered_edges = edge_protocol.reconcile(&edge_digest, &bob_edges)?;
                Ok(Step::Done(graph_from_edge_keys(self.n, recovered_edges)?))
            }
            _ => Err(ReconError::InvalidInput(format!(
                "unexpected envelope tag {:#x} for degree-neighborhood Bob",
                envelope.tag
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Forest reconciliation (Section 6, Theorem 6.1)
// ---------------------------------------------------------------------------

/// Build Alice's side of Theorem 6.1. `resolved` must carry the packed
/// `max_child_size` both parties agreed on (see [`crate::forest::agreed_params`]).
pub fn forest_alice(
    alice: &Forest,
    d: usize,
    sigma: usize,
    seed: u64,
    resolved: &SosParams,
) -> Result<SchemeAlice, ReconError> {
    let d = d.max(1);
    let sigma = sigma.max(1);
    let alice_collection = alice.vertex_multisets(seed);
    // Each edge update changes the signatures of at most σ ancestors; each changed
    // signature touches its own multiset and its parent's multiset.
    let element_changes = d * (sigma + 2);
    let packing = PairPacking::default();
    let inner = sos_session::mom_known_alice(
        &alice_collection,
        element_changes,
        resolved,
        &packing,
        embedded_amplification(),
    )?;

    let alice_sigs = alice.signatures(seed);
    let alice_root_hash = recon_base::hash::hash_u64_set(
        alice.roots().into_iter().map(|r| alice_sigs[r as usize]),
        seed ^ 0x2007,
    );
    Ok(SchemeAlice::new(
        Box::new(inner),
        "vertex/edge signature multisets",
        Envelope::parallel(TAG_GRAPH_ROOTS, "root signature hash", &alice_root_hash),
    ))
}

/// Bob's side of forest reconciliation.
pub struct ForestBob {
    nested: Nested<BoxedMomBob>,
    seed: u64,
    recovered: Option<SetOfMultisets>,
    outbox: std::collections::VecDeque<Envelope>,
}

/// Build Bob's side of Theorem 6.1 from his forest alone.
pub fn forest_bob(bob: &Forest, seed: u64, resolved: &SosParams) -> Result<ForestBob, ReconError> {
    let bob_collection = bob.vertex_multisets(seed);
    let packing = PairPacking::default();
    let inner =
        sos_session::mom_known_bob(&bob_collection, resolved, &packing, embedded_amplification())?;
    Ok(ForestBob {
        nested: Nested::new(Box::new(inner)),
        seed,
        recovered: None,
        outbox: std::collections::VecDeque::new(),
    })
}

impl Party for ForestBob {
    type Output = Forest;

    fn poll_send(&mut self) -> Option<Envelope> {
        self.nested.poll_send().or_else(|| self.outbox.pop_front())
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<Forest>, ReconError> {
        if Nested::<BoxedMomBob>::is_nested(&envelope) {
            if let Step::Done(recovered) = self.nested.handle(envelope)? {
                self.recovered = Some(recovered);
                self.outbox.push_back(Envelope::control(
                    TAG_GRAPH_ACK,
                    "signature reconciliation complete",
                    &(),
                ));
            }
            return Ok(Step::Continue);
        }
        match envelope.tag {
            TAG_GRAPH_CHARGE => Ok(Step::Continue),
            TAG_GRAPH_ROOTS => {
                let alice_root_hash: u64 = envelope.decode_payload()?;
                let recovered = self.recovered.take().ok_or_else(|| {
                    ReconError::InvalidInput(
                        "root hash arrived before the signature reconciliation".to_string(),
                    )
                })?;
                let forest = crate::forest::reconstruct(&recovered)?;
                let forest_sigs = forest.signatures(self.seed);
                let forest_root_hash = recon_base::hash::hash_u64_set(
                    forest.roots().into_iter().map(|r| forest_sigs[r as usize]),
                    self.seed ^ 0x2007,
                );
                if forest.num_vertices() != recovered.num_children()
                    || forest_root_hash != alice_root_hash
                {
                    return Err(ReconError::ChecksumFailure);
                }
                Ok(Step::Done(forest))
            }
            _ => Err(ReconError::InvalidInput(format!(
                "unexpected envelope tag {:#x} for forest Bob",
                envelope.tag
            ))),
        }
    }
}
