//! Sans-I/O [`Party`] implementations of the graph and forest schemes.
//!
//! Each scheme embeds a complete set-of-sets (or set-of-multisets) session via
//! [`recon_protocol::Nested`]: the embedded envelopes travel through the outer
//! session uncharged while their would-be cost accumulates, and once the
//! sub-protocol completes Alice emits a single aggregate charge — matching how
//! the paper accounts the signature reconciliation as one message — followed, in
//! the same round, by the scheme's finale (the labeled-edge IBLT, or the
//! root-signature hash for forests).
//!
//! That shell is written once per side: [`SchemeAlice`] and [`SchemeBob`]. A
//! scheme supplies only its signatures, its finale, and Bob's last step from
//! the recovered signatures and the finale envelope; every seed the two sides
//! derive (the nested session's, the edge IBLT's, the root hash's) comes from
//! one helper both of them call.

use crate::degree_neighborhood::{self, DegreeNeighborhoodParams};
use crate::degree_order::{self, DegreeOrderParams, DegreeOrderSignatures};
use crate::forest::Forest;
use crate::graph::Graph;
use recon_base::ReconError;
use recon_protocol::{Amplification, Envelope, Nested, Party, Step};
use recon_set::{IbltSetProtocol, Multiset, SetDigest};
use recon_sos::multiset_of_multisets::{PairPacking, SetOfMultisets};
use recon_sos::{session as sos_session, SetOfSets, SosParams};
use std::collections::{HashMap, VecDeque};

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
type BoxedBob<R> = Box<dyn Party<Output = R>>;
/// A scheme's check of the nested session's result, once it completes.
type Settle<R> = Box<dyn Fn(Result<R, ReconError>) -> Result<R, ReconError>>;
/// A scheme's last step: Bob's output from the recovered signatures and
/// Alice's finale envelope.
type Finish<R, T> = Box<dyn FnMut(R, Envelope) -> Result<T, ReconError>>;

/// The amplification budget of the embedded cascading sessions (Theorem 3.7's
/// replication).
fn embedded_amplification() -> Amplification {
    Amplification::replicate(4)
}

/// Theorem 5.2's decode failures past a bound, reported as their cause: the
/// graph is not separated enough, `why`.
fn separation_failure(why: &'static str) -> impl Fn(ReconError) -> ReconError {
    move |error| match error {
        ReconError::PeelingFailure { .. }
        | ReconError::ChecksumFailure
        | ReconError::NoMatchingChild { .. } => ReconError::SeparationFailure(why.to_string()),
        other => other,
    }
}

/// The edge keys of `edges` under the vertex labeling `label`.
fn labeled_edges(edges: &[(u32, u32)], label: impl Fn(u32) -> u32) -> Vec<u64> {
    edges.iter().map(|&(u, v)| Graph::edge_key(label(u), label(v))).collect()
}

/// Bob's `graph`, relabelled by the conforming labelling, patched by its
/// labelled-edge difference against Alice's `digest`: an extra edge he lacks, a
/// missing one he has, or a failed set hash is a checksum failure. A missing key
/// [`Graph::edge_key`] never makes on `n` vertices — a self-loop, an endpoint
/// `≥ n`, a high half above the low half — only a forged digest holds.
fn patch_labeled_edges(
    protocol: &IbltSetProtocol,
    digest: &SetDigest,
    mut graph: Graph,
) -> Result<Graph, ReconError> {
    let keys = graph.edge_keys();
    let diff = protocol.diff(digest, &keys)?;
    let n = graph.num_vertices();
    let canonical = |u: u32, v: u32| u < v && (v as usize) < n;
    for (u, v) in diff.extra.iter().map(|&key| Graph::key_edge(key)) {
        if !(canonical(u, v) && graph.remove_edge(u, v)) {
            return Err(ReconError::ChecksumFailure);
        }
    }
    for (u, v) in diff.missing.iter().map(|&key| Graph::key_edge(key)) {
        if !canonical(u, v) {
            return Err(ReconError::InvalidInput(format!(
                "recovered edge key ({u}, {v}) is no canonical edge on {n} vertices"
            )));
        }
        if !graph.add_edge(u, v) {
            return Err(ReconError::ChecksumFailure);
        }
    }
    if !diff.verify(&keys, protocol.set_hash_seed(), digest.cardinality, digest.set_hash) {
        return Err(ReconError::ChecksumFailure);
    }
    Ok(graph)
}

/// Alice's shared shape across all three graph schemes: run the embedded
/// signature sub-session, and on Bob's acknowledgement emit the aggregate
/// charge for it plus the scheme's finale envelope (labeled-edge IBLT or
/// root-signature hash) in the same round.
pub struct SchemeAlice {
    nested: Nested<BoxedAlice>,
    charge_label: &'static str,
    finale: Envelope,
    sent_finale: bool,
    outbox: VecDeque<Envelope>,
}

impl SchemeAlice {
    fn new(inner: BoxedAlice, charge_label: &'static str, finale: Envelope) -> Self {
        Self {
            nested: Nested::new(inner),
            charge_label,
            finale,
            sent_finale: false,
            outbox: VecDeque::new(),
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

/// Bob's shared shape across all three graph schemes, mirroring
/// [`SchemeAlice`]: run the embedded signature sub-session, acknowledge its
/// completion, skip Alice's aggregate charge, and hand the recovered
/// signatures with the finale envelope (tag `finale_tag`) to the scheme's
/// last step.
pub struct SchemeBob<R, T> {
    nested: Nested<BoxedBob<R>>,
    settle: Settle<R>,
    finale_tag: u16,
    finish: Finish<R, T>,
    recovered: Option<R>,
    outbox: VecDeque<Envelope>,
}

impl<R: 'static, T> SchemeBob<R, T> {
    fn new(
        inner: impl Party<Output = R> + 'static,
        settle: impl Fn(Result<R, ReconError>) -> Result<R, ReconError> + 'static,
        finale_tag: u16,
        finish: impl FnMut(R, Envelope) -> Result<T, ReconError> + 'static,
    ) -> Self {
        Self {
            nested: Nested::new(Box::new(inner)),
            settle: Box::new(settle),
            finale_tag,
            finish: Box::new(finish),
            recovered: None,
            outbox: VecDeque::new(),
        }
    }
}

impl<R, T> Party for SchemeBob<R, T> {
    type Output = T;

    fn poll_send(&mut self) -> Option<Envelope> {
        self.nested.poll_send().or_else(|| self.outbox.pop_front())
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<T>, ReconError> {
        if Nested::<BoxedBob<R>>::is_nested(&envelope) {
            let recovered = match self.nested.handle(envelope) {
                Ok(Step::Continue) => return Ok(Step::Continue),
                Ok(Step::Done(recovered)) => Ok(recovered),
                Err(error) => Err(error),
            };
            self.recovered = Some((self.settle)(recovered)?);
            self.outbox.push_back(Envelope::control(
                TAG_GRAPH_ACK,
                "signature reconciliation complete",
                &(),
            ));
            return Ok(Step::Continue);
        }
        match envelope.tag {
            TAG_GRAPH_CHARGE => Ok(Step::Continue),
            tag if tag == self.finale_tag => {
                let recovered = self.recovered.take().ok_or_else(|| {
                    ReconError::InvalidInput(
                        "the finale arrived before the signature reconciliation".to_string(),
                    )
                })?;
                Ok(Step::Done((self.finish)(recovered, envelope)?))
            }
            _ => Err(ReconError::InvalidInput(format!(
                "unexpected envelope tag {:#x} for graph-scheme Bob",
                envelope.tag
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Degree-ordering scheme (Section 5.1, Theorem 5.2)
// ---------------------------------------------------------------------------

/// What each party of Theorem 5.2 derives from its own graph: `h`, the
/// signatures, and the nested session's set of sets and parameters.
fn degree_order_side(
    graph: &Graph,
    params: &DegreeOrderParams,
) -> Result<(usize, DegreeOrderSignatures, SetOfSets, SosParams), ReconError> {
    let h = params.h.min(graph.num_vertices());
    let sigs = degree_order::signatures(graph, h);
    let sos = degree_order::signature_set_of_sets(&sigs)?;
    Ok((h, sigs, sos, SosParams::new(params.seed ^ 0xD06, h.max(1))))
}

/// The labeled-edge IBLT of Theorem 5.2.
fn degree_order_edges(params: &DegreeOrderParams) -> IbltSetProtocol {
    IbltSetProtocol::new(params.seed ^ 0xED6E)
}

/// Build Alice's side of Theorem 5.2 from her graph alone.
pub fn degree_order_alice(
    alice: &Graph,
    d: usize,
    params: &DegreeOrderParams,
) -> Result<SchemeAlice, ReconError> {
    let d = d.max(1);
    let (h, alice_sigs, alice_sos, sos_params) = degree_order_side(alice, params)?;
    let inner = sos_session::cascading_known_alice(
        &alice_sos,
        2 * d,
        &sos_params,
        embedded_amplification(),
    )?;

    let alice_labels = degree_order::label_map_from_signatures(&alice_sigs, h);
    let alice_edges = labeled_edges(&alice.edges(), |v| alice_labels[v as usize]);
    let edge_digest = degree_order_edges(params).digest(&alice_edges, 2 * d + 4);

    Ok(SchemeAlice::new(
        Box::new(inner),
        "signature set-of-sets (cascading IBLTs)",
        Envelope::parallel(TAG_GRAPH_EDGES, "labeled edge IBLT", &edge_digest),
    ))
}

/// Build Bob's side of Theorem 5.2 from his graph alone.
pub fn degree_order_bob(
    bob: &Graph,
    d: usize,
    params: &DegreeOrderParams,
) -> Result<SchemeBob<SetOfSets, Graph>, ReconError> {
    let (n, d) = (bob.num_vertices(), d.max(1));
    let (h, bob_sigs, bob_sos, sos_params) = degree_order_side(bob, params)?;
    let inner = sos_session::cascading_known_bob(&bob_sos, &sos_params, embedded_amplification());
    let settle = move |recovered: Result<SetOfSets, ReconError>| {
        let recovered = recovered.map_err(separation_failure(
            "signature sets changed by more than the bound; the top-h ordering did not conform \
             under the perturbation",
        ))?;
        // One signature per non-anchor vertex: any other count is a graph of
        // another size, whose labels would leave Bob's range.
        if recovered.num_children() != n - h {
            return Err(ReconError::InvalidInput("the graphs differ in size".into()));
        }
        Ok(recovered)
    };
    let bob = bob.clone();
    let edge_protocol = degree_order_edges(params);
    Ok(SchemeBob::new(inner, settle, TAG_GRAPH_EDGES, move |recovered, envelope| {
        // --- Conforming labeling (Definition 5.1). -----------------------
        let mut bob_labels = vec![0u32; n];
        for (rank, &v) in (0u32..).zip(&bob_sigs.order[..h]) {
            bob_labels[v as usize] = rank;
        }
        let partners =
            degree_order::match_signatures(&bob_sigs.signatures, recovered.children(), h, d)?;
        for ((v, _), partner) in bob_sigs.signatures.iter().zip(partners) {
            bob_labels[*v as usize] = (h + partner) as u32;
        }
        // Every label is below `n`: `settle` saw `n - h` recovered signatures.
        let mut seen = vec![false; n];
        if bob_labels.iter().any(|&label| std::mem::replace(&mut seen[label as usize], true)) {
            return Err(ReconError::SeparationFailure(
                "conforming labeling is not a bijection".to_string(),
            ));
        }

        // --- Labeled edge reconciliation (Corollary 2.2). ----------------
        let edge_digest = envelope.decode_payload()?;
        // A labeled-edge difference past 2d means the labelings did not
        // conform.
        patch_labeled_edges(&edge_protocol, &edge_digest, bob.relabel(&bob_labels)).map_err(
            separation_failure(
                "labeled edge difference exceeded the bound; anchor ordering or signature \
                 matching did not conform",
            ),
        )
    }))
}

// ---------------------------------------------------------------------------
// Degree-neighborhood scheme (Section 5.2, Theorem 5.6)
// ---------------------------------------------------------------------------

/// The labeled-edge IBLT of Theorem 5.6.
fn degree_neighborhood_edges(params: &DegreeNeighborhoodParams) -> IbltSetProtocol {
    IbltSetProtocol::new(params.seed ^ 0xED61)
}

/// Theorem 5.6's canonical labeling, which both parties derive from Alice's
/// signatures: each distinct signature's rank in their sorted list.
fn signature_ranks(sigs: &[Multiset]) -> HashMap<Vec<(u64, u64)>, u32> {
    let mut sorted: Vec<_> = sigs.iter().map(degree_neighborhood::canonical_key).collect();
    sorted.sort();
    sorted.into_iter().enumerate().map(|(i, k)| (k, i as u32)).collect()
}

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
    let alice_rank = signature_ranks(&alice_sigs);
    if alice_rank.len() != alice_sigs.len() {
        return Err(ReconError::SeparationFailure(
            "two vertices share a degree-neighborhood signature".to_string(),
        ));
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

    // No twins, so every signature has its rank.
    let alice_labels: Vec<u32> =
        alice_sigs.iter().map(|s| alice_rank[&degree_neighborhood::canonical_key(s)]).collect();

    let alice_edges = labeled_edges(&alice.edges(), |v| alice_labels[v as usize]);
    let edge_digest = degree_neighborhood_edges(params).digest(&alice_edges, 2 * d + 4);

    Ok(SchemeAlice::new(
        Box::new(inner),
        "degree-neighborhood signatures (set of multisets)",
        Envelope::parallel(TAG_GRAPH_EDGES, "labeled edge IBLT", &edge_digest),
    ))
}

/// Build Bob's side of Theorem 5.6 from his graph alone.
pub fn degree_neighborhood_bob(
    bob: &Graph,
    d: usize,
    params: &DegreeNeighborhoodParams,
    resolved: &SosParams,
) -> Result<SchemeBob<SetOfMultisets, Graph>, ReconError> {
    let d = d.max(1);
    let n = bob.num_vertices();
    let bob_sigs = degree_neighborhood::signatures(bob, params.degree_cap);
    let bob_collection = SetOfMultisets::from_children(bob_sigs.iter().cloned());
    let packing = PairPacking::default();
    let inner =
        sos_session::mom_known_bob(&bob_collection, resolved, &packing, embedded_amplification())?;
    let bob = bob.clone();
    let edge_protocol = degree_neighborhood_edges(params);
    Ok(SchemeBob::new(
        inner,
        |recovered| recovered,
        TAG_GRAPH_EDGES,
        move |recovered, envelope| {
            // --- Conforming labeling. ---------------------------------------
            let alice_rank = signature_ranks(recovered.children());
            // Alice refuses twin signatures, so fewer distinct ones than Bob has
            // vertices, or more, is a graph of another size.
            if recovered.children().len() != n || alice_rank.len() != n {
                return Err(ReconError::InvalidInput("the graphs differ in size".into()));
            }
            let ranked: Vec<(u32, &Multiset)> = recovered
                .children()
                .iter()
                .map(|m| (alice_rank[&degree_neighborhood::canonical_key(m)], m))
                .collect();
            let mut bob_labels: Vec<Option<u32>> = vec![None; n];
            // Ranks are below `n`: there are `n` distinct signatures.
            let mut used = vec![false; n];
            let mut unmatched: Vec<u32> = Vec::new();
            for (v, sig) in bob_sigs.iter().enumerate() {
                if let Some(&rank) = alice_rank.get(&degree_neighborhood::canonical_key(sig)) {
                    if std::mem::replace(&mut used[rank as usize], true) {
                        return Err(ReconError::SeparationFailure("twin signatures".into()));
                    }
                    bob_labels[v] = Some(rank);
                } else {
                    unmatched.push(v as u32);
                }
            }
            for &v in &unmatched {
                let sig = &bob_sigs[v as usize];
                let mut candidates = ranked
                    .iter()
                    .filter(|&&(rank, m)| !used[rank as usize] && m.difference_size(sig) <= 2 * d)
                    .map(|&(rank, _)| rank);
                let Some(rank) = candidates.next() else {
                    return Err(ReconError::SeparationFailure(format!(
                        "vertex {v} has no signature within distance {}",
                        2 * d
                    )));
                };
                if candidates.next().is_some() {
                    return Err(ReconError::SeparationFailure(format!(
                        "vertex {v} matches multiple signatures within distance {}",
                        2 * d
                    )));
                }
                bob_labels[v as usize] = Some(rank);
                used[rank as usize] = true;
            }
            // Every vertex has a distinct rank below `n`: a bijection.
            let bob_labels: Vec<u32> =
                bob_labels.into_iter().map(|l| l.expect("assigned")).collect();

            // --- Labeled edge reconciliation, same round. -------------------
            let edge_digest = envelope.decode_payload()?;
            patch_labeled_edges(&edge_protocol, &edge_digest, bob.relabel(&bob_labels))
        },
    ))
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

    Ok(SchemeAlice::new(
        Box::new(inner),
        "vertex/edge signature multisets",
        Envelope::parallel(TAG_GRAPH_ROOTS, "root signature hash", &root_hash(alice, seed)),
    ))
}

/// The hash of a forest's root signatures that closes Theorem 6.1.
fn root_hash(forest: &Forest, seed: u64) -> u64 {
    let sigs = forest.signatures(seed);
    let roots = forest.roots().into_iter().map(|r| sigs[r as usize]);
    recon_base::hash::hash_u64_set(roots, seed ^ 0x2007)
}

/// Build Bob's side of Theorem 6.1 from his forest alone.
pub fn forest_bob(
    bob: &Forest,
    seed: u64,
    resolved: &SosParams,
) -> Result<SchemeBob<SetOfMultisets, Forest>, ReconError> {
    let bob_collection = bob.vertex_multisets(seed);
    let packing = PairPacking::default();
    let inner =
        sos_session::mom_known_bob(&bob_collection, resolved, &packing, embedded_amplification())?;
    Ok(SchemeBob::new(
        inner,
        |recovered| recovered,
        TAG_GRAPH_ROOTS,
        move |recovered, envelope| {
            let alice_root_hash: u64 = envelope.decode_payload()?;
            let forest = crate::forest::reconstruct(&recovered)?;
            if forest.num_vertices() != recovered.num_children()
                || root_hash(&forest, seed) != alice_root_hash
            {
                return Err(ReconError::ChecksumFailure);
            }
            Ok(forest)
        },
    ))
}
