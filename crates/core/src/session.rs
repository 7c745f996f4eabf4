//! Sans-I/O [`Party`] implementations of the set-of-sets protocols.
//!
//! Every protocol family of Section 3 is expressed as a pair of party state
//! machines: the one-round families (naive, IBLT-of-IBLTs, cascading) through the
//! generic amplification combinators of `recon-protocol`, the multi-round family
//! (Theorems 3.9/3.10) as bespoke machines. `SessionBuilder::run` drives a pair
//! in memory, an `Endpoint` over a framed transport, and the graph schemes embed
//! them via [`recon_protocol::Nested`].
//!
//! What the two parties of a one-round family must agree on — each attempt's
//! seed, the digest's label, how a failed attempt is answered — is one private
//! `Chain` per family variant, and its bound schedule sits beside it; Alice's
//! and Bob's factories both build from that one definition. The estimator
//! round in front of the unknown-bound families is likewise one pair of
//! helpers, over Bob's and Alice's child hashes.

use crate::cascading::CascadingProtocol;
use crate::iblt_of_iblts::IbltOfIbltsProtocol;
use crate::multiround::ChildPatch;
use crate::multiset_of_multisets::{PairPacking, SetOfMultisets};
use crate::naive::NaiveProtocol;
use crate::types::{ChildSet, SetOfSets, SosParams};
use recon_base::rng::split_seed;
use recon_base::wire::Encode;
use recon_base::ReconError;
use recon_estimator::{L0Config, L0Estimator, Side};
use recon_iblt::{Iblt, IbltConfig};
use recon_protocol::{
    doubled_bound, estimator_preamble, merged_estimate, Amplification, AmplifiedReceiver,
    AmplifiedSender, Deferred, Envelope, Exhaust, Party, Step, WithPreamble,
};
use recon_set::{CharPolyProtocol, IbltSetProtocol};
use std::collections::{BTreeMap, VecDeque};

/// Envelope tag: a one-round set-of-sets digest (any of the three families).
pub const TAG_SOS_DIGEST: u16 = 0x5051;
/// Envelope tag: an uncharged replica request.
pub const TAG_SOS_RETRY: u16 = 0x5052;
/// Envelope tag: the metered 1-byte NACK of the doubling protocols (Cor 3.6/3.8).
pub const TAG_SOS_NACK: u16 = 0x5053;
/// Envelope tag: a child-hash difference estimator (Theorems 3.4/3.10).
pub const TAG_SOS_ESTIMATOR: u16 = 0x5054;
/// Envelope tag: multi-round round 1, Alice's child-hash IBLT + parent hash.
pub const TAG_MR_HASHES: u16 = 0x5055;
/// Envelope tag: multi-round round 2, Bob's hash IBLT + per-child estimators.
pub const TAG_MR_ESTIMATORS: u16 = 0x5056;
/// Envelope tag: multi-round round 3, Alice's per-child patches.
pub const TAG_MR_PATCHES: u16 = 0x5057;
/// Envelope tag: multi-round fallback, Bob's patch failure report.
pub const TAG_MR_FAILURES: u16 = 0x5058;
/// Envelope tag: multi-round fallback, Alice's verbatim child sets.
pub const TAG_MR_FULL: u16 = 0x5059;

/// The attempt chain of one one-round family variant, shared by its two
/// parties: attempt `k` runs under seed role `role + k`, its digest travels as
/// `label`, and Bob decodes it with `reconcile`. A replication chain answers a
/// failed attempt with an uncharged replica request and, once exhausted,
/// reports the last error (Section 3.2). A doubling chain sizes attempt `k`
/// with [`doubled_bound`] and answers with the metered NACK of
/// Corollaries 3.6/3.8, reporting [`ReconError::RetriesExhausted`].
#[derive(Clone, Copy)]
struct Chain {
    role: u64,
    label: &'static str,
    doubling: bool,
    reconcile: fn(SosParams, &Envelope, &SetOfSets) -> Result<SetOfSets, ReconError>,
}

const NAIVE_KNOWN: Chain = Chain {
    role: 0xAA00,
    label: "naive outer IBLT",
    doubling: false,
    reconcile: |p, envelope, sos| NaiveProtocol::new(p).reconcile(&envelope.decode_payload()?, sos),
};
const NAIVE_UNKNOWN: Chain = Chain { role: 0xAC00, ..NAIVE_KNOWN };
const IOI_KNOWN: Chain = Chain {
    role: 0xBB00,
    label: "IBLT of child-IBLT encodings",
    doubling: false,
    reconcile: |p, envelope, sos| {
        IbltOfIbltsProtocol::new(p).reconcile(&envelope.decode_payload()?, sos)
    },
};
const IOI_UNKNOWN: Chain = Chain { role: 0xBC00, doubling: true, ..IOI_KNOWN };
const CASCADING_KNOWN: Chain = Chain {
    role: 0xCC00,
    label: "cascading IBLTs of IBLTs",
    doubling: false,
    reconcile: |p, envelope, sos| {
        CascadingProtocol::new(p).reconcile(&envelope.decode_payload()?, sos)
    },
};
const CASCADING_UNKNOWN: Chain = Chain { role: 0xCD00, doubling: true, ..CASCADING_KNOWN };

/// Seed role of the naive family's child-hash estimator (Theorem 3.4).
const NAIVE_ESTIMATOR: u64 = 0xAB;
/// Seed role of the multi-round family's child-hash estimator (Theorem 3.10).
const MULTIROUND_ESTIMATOR: u64 = 0xD0;

impl Chain {
    fn attempt_params(self, params: &SosParams, attempt: u64) -> SosParams {
        SosParams { seed: params.role_seed(self.role + attempt), ..*params }
    }

    /// Alice: attempt `k`'s digest is `digest(k's parameters, k)`.
    fn alice<D: Encode>(
        self,
        params: &SosParams,
        amplification: Amplification,
        mut digest: impl FnMut(SosParams, u64) -> Result<D, ReconError> + Send + 'static,
    ) -> Result<AmplifiedSender, ReconError> {
        let params = *params;
        AmplifiedSender::new(amplification.max_attempts, move |attempt| {
            let digest = digest(self.attempt_params(&params, attempt), attempt)?;
            Ok(Envelope::round(TAG_SOS_DIGEST, self.label, &digest))
        })
    }

    /// Bob over `sos`; `unpack` maps each attempt's recovered set of sets to
    /// the output, and its failure fails that attempt.
    fn bob<T>(
        self,
        sos: SetOfSets,
        params: &SosParams,
        amplification: Amplification,
        unpack: impl Fn(SetOfSets) -> Result<T, ReconError> + Send + 'static,
    ) -> AmplifiedReceiver<T> {
        let params = *params;
        let doubling = self.doubling;
        let exhaust = if doubling { Exhaust::RetriesExhausted } else { Exhaust::LastError };
        let nack = move |_| match doubling {
            true => Envelope::round(TAG_SOS_NACK, "NACK (double d)", &1u8),
            false => Envelope::control(TAG_SOS_RETRY, "retry request", &()),
        };
        AmplifiedReceiver::new(
            amplification.max_attempts,
            move |attempt, envelope| {
                unpack((self.reconcile)(self.attempt_params(&params, attempt), &envelope, &sos)?)
            },
            |_| true,
            nack,
            exhaust,
        )
    }
}

/// Bob's estimator round of Theorems 3.4/3.10: his child hashes, sent ahead of
/// `inner`.
fn child_hash_preamble<P>(
    sos: &SetOfSets,
    params: &SosParams,
    estimator: L0Config,
    role: u64,
    inner: P,
) -> WithPreamble<P> {
    let config = estimator.with_seed(params.role_seed(role));
    let keys = sos.child_hashes(params.seed);
    estimator_preamble(&config, keys, TAG_SOS_ESTIMATOR, "child-hash difference estimator", inner)
}

/// Alice's half of that round: the merged estimate of differing children.
fn child_hash_estimate(
    sos: &SetOfSets,
    params: &SosParams,
    estimator: L0Config,
    role: u64,
    envelope: &Envelope,
) -> Result<usize, ReconError> {
    let config = estimator.with_seed(params.role_seed(role));
    merged_estimate(&config, sos.child_hashes(params.seed), envelope)
}

// ---------------------------------------------------------------------------
// Naive protocol (Theorems 3.3 / 3.4)
// ---------------------------------------------------------------------------

/// Alice's side of Theorem 3.3 (naive SSRK, known bound on differing children).
pub fn naive_known_alice(
    sos: &SetOfSets,
    d_hat: usize,
    params: &SosParams,
    amplification: Amplification,
) -> Result<impl Party<Output = ()>, ReconError> {
    let sos = sos.clone();
    NAIVE_KNOWN
        .alice(params, amplification, move |p, _| Ok(NaiveProtocol::new(p).digest(&sos, d_hat)))
}

/// Bob's side of Theorem 3.3.
pub fn naive_known_bob(
    sos: &SetOfSets,
    params: &SosParams,
    amplification: Amplification,
) -> impl Party<Output = SetOfSets> {
    NAIVE_KNOWN.bob(sos.clone(), params, amplification, Ok)
}

/// Alice's side of Theorem 3.4 (naive SSRU): waits for Bob's child-hash
/// estimator, then runs the known-bound protocol with a doubled-on-retry bound.
pub fn naive_unknown_alice(
    sos: &SetOfSets,
    params: &SosParams,
    amplification: Amplification,
    estimator: L0Config,
) -> impl Party<Output = ()> {
    let sos = sos.clone();
    let params = *params;
    Deferred::new(move |envelope: Envelope| {
        let estimate = child_hash_estimate(&sos, &params, estimator, NAIVE_ESTIMATOR, &envelope)?;
        NAIVE_UNKNOWN.alice(&params, amplification, move |p, attempt| {
            // Twice Bob's estimate, at least 4, doubled on every retry.
            NaiveProtocol::new(p).try_digest(&sos, doubled_bound(estimate.max(2), attempt + 1)?)
        })
    })
}

/// Bob's side of Theorem 3.4: sends his estimator, then decodes digests.
pub fn naive_unknown_bob(
    sos: &SetOfSets,
    params: &SosParams,
    amplification: Amplification,
    estimator: L0Config,
) -> impl Party<Output = SetOfSets> {
    let receiver = NAIVE_UNKNOWN.bob(sos.clone(), params, amplification, Ok);
    child_hash_preamble(sos, params, estimator, NAIVE_ESTIMATOR, receiver)
}

// ---------------------------------------------------------------------------
// IBLT-of-IBLTs protocol (Theorem 3.5 / Corollary 3.6)
// ---------------------------------------------------------------------------

/// Alice's side of Theorem 3.5 (one-round SSRK, known `d` and `d_hat`).
pub fn ioi_known_alice(
    sos: &SetOfSets,
    d: usize,
    d_hat: usize,
    params: &SosParams,
    amplification: Amplification,
) -> Result<impl Party<Output = ()>, ReconError> {
    let sos = sos.clone();
    IOI_KNOWN.alice(params, amplification, move |p, _| {
        Ok(IbltOfIbltsProtocol::new(p).digest(&sos, d, d_hat))
    })
}

/// Bob's side of Theorem 3.5.
pub fn ioi_known_bob(
    sos: &SetOfSets,
    params: &SosParams,
    amplification: Amplification,
) -> impl Party<Output = SetOfSets> {
    IOI_KNOWN.bob(sos.clone(), params, amplification, Ok)
}

/// Alice's side of Corollary 3.6 (SSRU by repeated doubling `d = 1, 2, 4, …`).
/// `children_cap` bounds `d_hat` by the larger parent-set size — a universe
/// parameter both parties agree on out of band.
pub fn ioi_unknown_alice(
    sos: &SetOfSets,
    params: &SosParams,
    children_cap: usize,
    amplification: Amplification,
) -> Result<impl Party<Output = ()>, ReconError> {
    let sos = sos.clone();
    IOI_UNKNOWN.alice(params, amplification, move |p, attempt| {
        let d = doubled_bound(1, attempt)?;
        IbltOfIbltsProtocol::new(p).try_digest(&sos, d, d.min(children_cap.max(1)))
    })
}

/// Bob's side of Corollary 3.6: each failure is acknowledged with a metered
/// 1-byte NACK so the doubling is an explicit round of communication.
pub fn ioi_unknown_bob(
    sos: &SetOfSets,
    params: &SosParams,
    amplification: Amplification,
) -> impl Party<Output = SetOfSets> {
    IOI_UNKNOWN.bob(sos.clone(), params, amplification, Ok)
}

// ---------------------------------------------------------------------------
// Cascading protocol (Theorem 3.7 / Corollary 3.8)
// ---------------------------------------------------------------------------

/// Alice's side of Theorem 3.7 (one-round SSRK via cascading IBLTs of IBLTs).
pub fn cascading_known_alice(
    sos: &SetOfSets,
    d: usize,
    params: &SosParams,
    amplification: Amplification,
) -> Result<impl Party<Output = ()>, ReconError> {
    let sos = sos.clone();
    CASCADING_KNOWN
        .alice(params, amplification, move |p, _| Ok(CascadingProtocol::new(p).digest(&sos, d)))
}

/// Bob's side of Theorem 3.7.
pub fn cascading_known_bob(
    sos: &SetOfSets,
    params: &SosParams,
    amplification: Amplification,
) -> impl Party<Output = SetOfSets> {
    CASCADING_KNOWN.bob(sos.clone(), params, amplification, Ok)
}

/// Alice's side of Corollary 3.8 (SSRU by repeated doubling `d = 2, 4, 8, …`).
pub fn cascading_unknown_alice(
    sos: &SetOfSets,
    params: &SosParams,
    amplification: Amplification,
) -> Result<impl Party<Output = ()>, ReconError> {
    let sos = sos.clone();
    CASCADING_UNKNOWN.alice(params, amplification, move |p, attempt| {
        CascadingProtocol::new(p).try_digest(&sos, doubled_bound(2, attempt)?)
    })
}

/// Bob's side of Corollary 3.8.
pub fn cascading_unknown_bob(
    sos: &SetOfSets,
    params: &SosParams,
    amplification: Amplification,
) -> impl Party<Output = SetOfSets> {
    CASCADING_UNKNOWN.bob(sos.clone(), params, amplification, Ok)
}

// ---------------------------------------------------------------------------
// Sets/multisets of multisets (Section 3.4)
// ---------------------------------------------------------------------------

/// Alice's side of the Section 3.4 adapter: pack the collection into a plain set
/// of sets and run the cascading protocol on it. `resolved_params` must carry the
/// agreed-on `max_child_size` covering both parties' *packed* children (see
/// [`crate::multiset_of_multisets::resolved_params`]).
pub fn mom_known_alice(
    collection: &SetOfMultisets,
    d: usize,
    resolved_params: &SosParams,
    packing: &PairPacking,
    amplification: Amplification,
) -> Result<impl Party<Output = ()>, ReconError> {
    let packed = collection.to_set_of_sets(packing)?;
    let packed_d = 4 * d.max(1);
    cascading_known_alice(&packed, packed_d, resolved_params, amplification)
}

/// Bob's side of the Section 3.4 adapter: reconcile the packed set of sets, then
/// unpack the recovered collection.
pub fn mom_known_bob(
    collection: &SetOfMultisets,
    resolved_params: &SosParams,
    packing: &PairPacking,
    amplification: Amplification,
) -> Result<impl Party<Output = SetOfMultisets>, ReconError> {
    let packed = collection.to_set_of_sets(packing)?;
    let packing = *packing;
    Ok(CASCADING_KNOWN.bob(packed, resolved_params, amplification, move |recovered| {
        SetOfMultisets::from_set_of_sets(&recovered, &packing)
    }))
}

// ---------------------------------------------------------------------------
// Multi-round protocol (Theorems 3.9 / 3.10)
// ---------------------------------------------------------------------------

/// Compact estimator configuration used for the per-child estimators of round 3
/// (`O(log(d̂/δ) log h)` bits per differing child), one seed per Bob child.
fn child_estimator_config(params: &SosParams, bob_child_hash: u64) -> L0Config {
    let seed = split_seed(params.role_seed(0xD2), bob_child_hash);
    L0Config { reps: 5, levels: 20, buckets: 16, threshold: 8, seed }
}

/// The per-child patch protocol of the charpoly branch (small differences).
fn patch_charpoly(params: &SosParams) -> CharPolyProtocol {
    CharPolyProtocol::new(params.role_seed(0xD4))
}

/// The per-child patch protocol of the IBLT branch.
fn patch_iblt(params: &SosParams) -> IbltSetProtocol {
    IbltSetProtocol::new(params.role_seed(0xD5))
}

fn hash_iblt_config(params: &SosParams) -> IbltConfig {
    IbltConfig::for_u64_keys(params.role_seed(0xD1))
}

fn hash_table(sos: &SetOfSets, d_hat: usize, params: &SosParams) -> Result<Iblt, ReconError> {
    let expected_diff = d_hat.saturating_mul(2).max(2);
    let mut table = Iblt::try_with_expected_diff(expected_diff, &hash_iblt_config(params))?;
    table.insert_u64s(sos.child_hashes(params.seed));
    Ok(table)
}

/// Alice's state machine for Theorem 3.9 (the known-`d` multi-round protocol).
pub struct MultiroundAlice {
    sos: SetOfSets,
    params: SosParams,
    d: usize,
    alice_hash_table: Iblt,
    outbox: VecDeque<Envelope>,
}

/// Build Alice's side of Theorem 3.9. Fails with
/// [`ReconError::ResourceExhausted`] if the allocator cannot provide a
/// child-hash table sized for `d_hat`.
pub fn multiround_known_alice(
    sos: &SetOfSets,
    d: usize,
    d_hat: usize,
    params: &SosParams,
) -> Result<MultiroundAlice, ReconError> {
    let alice_hash_table = hash_table(sos, d_hat, params)?;
    let parent_hash = sos.parent_hash(params.seed);
    let mut outbox = VecDeque::new();
    outbox.push_back(Envelope::round(
        TAG_MR_HASHES,
        "child-hash IBLT",
        &(alice_hash_table.clone(), parent_hash),
    ));
    Ok(MultiroundAlice { sos: sos.clone(), params: *params, d, alice_hash_table, outbox })
}

impl Party for MultiroundAlice {
    type Output = ();

    fn poll_send(&mut self) -> Option<Envelope> {
        self.outbox.pop_front()
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<()>, ReconError> {
        let seed = self.params.seed;
        match envelope.tag {
            TAG_MR_ESTIMATORS => {
                let (bob_hash_table, bob_estimators): (Iblt, Vec<(u64, L0Estimator)>) =
                    envelope.decode_payload()?;
                let hash_diff = self.alice_hash_table.subtract(&bob_hash_table)?.decode_in_place();
                if !hash_diff.complete {
                    return Err(ReconError::PeelingFailure { remaining_cells: 0 });
                }
                let alice_differing: Vec<u64> = hash_diff.positive_u64();

                let charpoly_threshold = (self.d as f64).sqrt().ceil() as usize;
                let charpoly = patch_charpoly(&self.params);
                let by_hash = self.sos.children_by_hash(seed);
                let mut patches: Vec<ChildPatch> = Vec::new();
                for &ah in &alice_differing {
                    let child = *by_hash.get(&ah).ok_or(ReconError::ChecksumFailure)?;
                    // Find the most similar of Bob's differing children by merged
                    // estimate.
                    let mut best: Option<(u64, usize)> = None;
                    for (bh, bob_est) in &bob_estimators {
                        let cfg = child_estimator_config(&self.params, *bh);
                        let mut alice_side = L0Estimator::new(&cfg);
                        alice_side.update_all(child.iter().copied(), Side::A);
                        let estimate = alice_side.merge(bob_est)?.estimate();
                        if best.is_none_or(|(_, e)| estimate < e) {
                            best = Some((*bh, estimate));
                        }
                    }
                    let patch = match best {
                        None => ChildPatch::Full {
                            alice_hash: ah,
                            child: child.iter().copied().collect(),
                        },
                        Some((target_hash, estimate)) => {
                            let bound = (2 * estimate + 2).min(2 * child.len() + 2);
                            let elements_fit_charpoly =
                                child.iter().all(|&x| x < CharPolyProtocol::DEFAULT_UNIVERSE_BOUND);
                            if estimate < charpoly_threshold && elements_fit_charpoly {
                                ChildPatch::CharPoly {
                                    alice_hash: ah,
                                    target_hash,
                                    digest: charpoly.digest(child, bound)?,
                                }
                            } else {
                                ChildPatch::Iblt {
                                    alice_hash: ah,
                                    target_hash,
                                    digest: patch_iblt(&self.params).digest(child, bound),
                                }
                            }
                        }
                    };
                    patches.push(patch);
                }
                self.outbox.push_back(Envelope::round(
                    TAG_MR_PATCHES,
                    "per-child set reconciliation payloads",
                    &patches,
                ));
                Ok(Step::Continue)
            }
            TAG_MR_FAILURES => {
                let fallback_needed: Vec<u64> = envelope.decode_payload()?;
                let by_hash = self.sos.children_by_hash(seed);
                let mut full: Vec<(u64, Vec<u64>)> = Vec::new();
                for &h in &fallback_needed {
                    let child = *by_hash.get(&h).ok_or(ReconError::ChecksumFailure)?;
                    full.push((h, child.iter().copied().collect()));
                }
                self.outbox.push_back(Envelope::round(
                    TAG_MR_FULL,
                    "full child sets (fallback)",
                    &full,
                ));
                Ok(Step::Continue)
            }
            _ => Err(ReconError::InvalidInput(format!(
                "unexpected envelope tag {:#x} for multi-round Alice",
                envelope.tag
            ))),
        }
    }
}

/// Bob's state machine for Theorem 3.9.
pub struct MultiroundBob {
    sos: SetOfSets,
    params: SosParams,
    parent_hash: u64,
    bob_children: BTreeMap<u64, ChildSet>,
    recovered_children: Vec<ChildSet>,
    outbox: VecDeque<Envelope>,
}

/// Build Bob's side of Theorem 3.9. Bob sizes his child-hash IBLT to mirror the
/// table Alice sends, so he needs no prior difference bound of his own.
pub fn multiround_known_bob(sos: &SetOfSets, params: &SosParams) -> MultiroundBob {
    MultiroundBob {
        sos: sos.clone(),
        params: *params,
        parent_hash: 0,
        bob_children: BTreeMap::new(),
        recovered_children: Vec::new(),
        outbox: VecDeque::new(),
    }
}

impl MultiroundBob {
    fn finish(&mut self) -> Result<SetOfSets, ReconError> {
        let mut result = self.sos.clone();
        for child in self.bob_children.values() {
            result.remove(child);
        }
        for child in self.recovered_children.drain(..) {
            result.insert(child);
        }
        if result.parent_hash(self.params.seed) != self.parent_hash {
            return Err(ReconError::ChecksumFailure);
        }
        Ok(result)
    }
}

impl Party for MultiroundBob {
    type Output = SetOfSets;

    fn poll_send(&mut self) -> Option<Envelope> {
        self.outbox.pop_front()
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<SetOfSets>, ReconError> {
        let seed = self.params.seed;
        match envelope.tag {
            TAG_MR_HASHES => {
                let (alice_hash_table, parent_hash): (Iblt, u64) = envelope.decode_payload()?;
                self.parent_hash = parent_hash;
                // Mirror Alice's table size so the tables subtract cell-for-cell.
                let cfg = hash_iblt_config(&self.params);
                let mut bob_hash_table = Iblt::with_cells(alice_hash_table.cells(), &cfg);
                bob_hash_table.insert_u64s(self.sos.child_hashes(seed));
                let hash_diff = alice_hash_table.subtract(&bob_hash_table)?.decode_in_place();
                if !hash_diff.complete {
                    return Err(ReconError::PeelingFailure { remaining_cells: 0 });
                }
                let bob_differing: Vec<u64> = hash_diff.negative_u64();

                let by_hash = self.sos.children_by_hash(seed);
                let mut bob_estimators: Vec<(u64, L0Estimator)> = Vec::new();
                for &h in &bob_differing {
                    let child = (*by_hash.get(&h).ok_or(ReconError::ChecksumFailure)?).clone();
                    let mut est = L0Estimator::new(&child_estimator_config(&self.params, h));
                    est.update_all(child.iter().copied(), Side::B);
                    bob_estimators.push((h, est));
                    self.bob_children.insert(h, child);
                }
                self.outbox.push_back(Envelope::round(
                    TAG_MR_ESTIMATORS,
                    "child-hash IBLT + per-child estimators",
                    &(bob_hash_table, bob_estimators),
                ));
                Ok(Step::Continue)
            }
            TAG_MR_PATCHES => {
                let patches: Vec<ChildPatch> = envelope.decode_payload()?;
                let iblt_protocol = patch_iblt(&self.params);
                let charpoly = patch_charpoly(&self.params);
                let mut fallback_needed: Vec<u64> = Vec::new();
                for patch in &patches {
                    let (alice_hash, target_hash) = match patch {
                        ChildPatch::Full { child, .. } => {
                            self.recovered_children.push(child.iter().copied().collect());
                            continue;
                        }
                        ChildPatch::Iblt { alice_hash, target_hash, .. }
                        | ChildPatch::CharPoly { alice_hash, target_hash, .. } => {
                            (*alice_hash, target_hash)
                        }
                    };
                    let target =
                        self.bob_children.get(target_hash).ok_or(ReconError::ChecksumFailure)?;
                    let target_set = target.iter().copied().collect();
                    let recovered = match patch {
                        ChildPatch::Iblt { digest, .. } => {
                            iblt_protocol.reconcile(digest, &target_set)
                        }
                        ChildPatch::CharPoly { digest, .. } => {
                            charpoly.reconcile(digest, &target_set)
                        }
                        ChildPatch::Full { .. } => continue,
                    };
                    match recovered {
                        Ok(rec)
                            if SetOfSets::child_hash(&rec.iter().copied().collect(), seed)
                                == alice_hash =>
                        {
                            self.recovered_children.push(rec.into_iter().collect());
                        }
                        _ => fallback_needed.push(alice_hash),
                    }
                }
                if fallback_needed.is_empty() {
                    return Ok(Step::Done(self.finish()?));
                }
                // Rare: an estimator under-shot and a patch failed verification. Ask
                // for those children verbatim; counted honestly against the budget.
                self.outbox.push_back(Envelope::round(
                    TAG_MR_FAILURES,
                    "patch failure report",
                    &fallback_needed,
                ));
                Ok(Step::Continue)
            }
            TAG_MR_FULL => {
                let full: Vec<(u64, Vec<u64>)> = envelope.decode_payload()?;
                for (_, child) in full {
                    self.recovered_children.push(child.into_iter().collect());
                }
                Ok(Step::Done(self.finish()?))
            }
            _ => Err(ReconError::InvalidInput(format!(
                "unexpected envelope tag {:#x} for multi-round Bob",
                envelope.tag
            ))),
        }
    }
}

/// Alice's side of Theorem 3.10 (unknown `d`): round 0 receives Bob's child-hash
/// estimator, from which `d_hat` (and the per-child budget `d = d_hat · h`) is
/// derived before the Theorem 3.9 machine starts.
pub fn multiround_unknown_alice(
    sos: &SetOfSets,
    params: &SosParams,
    estimator: L0Config,
) -> impl Party<Output = ()> {
    let sos = sos.clone();
    let params = *params;
    Deferred::new(move |envelope: Envelope| {
        let estimate =
            child_hash_estimate(&sos, &params, estimator, MULTIROUND_ESTIMATOR, &envelope)?;
        // Bob's estimate, so saturating: past `usize` it sizes a child-hash
        // table `multiround_known_alice` refuses.
        let d_hat = estimate.saturating_mul(2).max(4);
        // With d unknown, use the generous per-child budget d = d̂ · h as the switch
        // point between the IBLT and charpoly branches; the per-child estimators of
        // round 3 provide the real per-child bounds.
        let d = d_hat.saturating_mul(params.max_child_size);
        multiround_known_alice(&sos, d, d_hat, &params)
    })
}

/// Bob's side of Theorem 3.10: sends his child-hash estimator, then runs the
/// Theorem 3.9 machine.
pub fn multiround_unknown_bob(
    sos: &SetOfSets,
    params: &SosParams,
    estimator: L0Config,
) -> impl Party<Output = SetOfSets> {
    let bob = multiround_known_bob(sos, params);
    child_hash_preamble(sos, params, estimator, MULTIROUND_ESTIMATOR, bob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_pair, WorkloadParams};
    use recon_protocol::SessionBuilder;

    fn params() -> (WorkloadParams, SosParams) {
        let w = WorkloadParams::new(64, 12, 1 << 20);
        (w, SosParams::new(0x5E55, w.max_child_size))
    }

    #[test]
    fn all_known_d_families_recover_through_a_session() {
        let (w, p) = params();
        let (alice, bob) = generate_pair(&w, 6, 7);
        let builder = SessionBuilder::new(p.seed);

        let naive = builder
            .run(
                naive_known_alice(&alice, 6, &p, Amplification::replicate(3)).unwrap(),
                naive_known_bob(&bob, &p, Amplification::replicate(3)),
            )
            .unwrap();
        assert_eq!(naive.recovered, alice);
        assert_eq!(naive.stats.rounds, 1);

        let ioi = builder
            .run(
                ioi_known_alice(&alice, 6, 6, &p, Amplification::replicate(3)).unwrap(),
                ioi_known_bob(&bob, &p, Amplification::replicate(3)),
            )
            .unwrap();
        assert_eq!(ioi.recovered, alice);

        let cascade = builder
            .run(
                cascading_known_alice(&alice, 6, &p, Amplification::replicate(4)).unwrap(),
                cascading_known_bob(&bob, &p, Amplification::replicate(4)),
            )
            .unwrap();
        assert_eq!(cascade.recovered, alice);

        let multi = builder
            .run(multiround_known_alice(&alice, 6, 6, &p).unwrap(), multiround_known_bob(&bob, &p))
            .unwrap();
        assert_eq!(multi.recovered, alice);
        assert!(multi.stats.rounds >= 3);
    }

    #[test]
    fn unknown_d_families_recover_through_a_session() {
        let (w, p) = params();
        let (alice, bob) = generate_pair(&w, 5, 11);
        let builder = SessionBuilder::new(p.seed);
        let est = L0Config::default();

        let naive = builder
            .run(
                naive_unknown_alice(&alice, &p, Amplification::replicate(5), est),
                naive_unknown_bob(&bob, &p, Amplification::replicate(5), est),
            )
            .unwrap();
        assert_eq!(naive.recovered, alice);
        assert!(naive.stats.rounds >= 2);

        let max_possible = alice.total_elements() + bob.total_elements() + 2;
        let doubling = Amplification::doubling(1, 2 * max_possible);
        let cap = alice.num_children().max(bob.num_children()).max(1);
        let ioi = builder
            .run(
                ioi_unknown_alice(&alice, &p, cap, doubling).unwrap(),
                ioi_unknown_bob(&bob, &p, doubling),
            )
            .unwrap();
        assert_eq!(ioi.recovered, alice);

        let doubling2 = Amplification::doubling(2, 2 * max_possible);
        let cascade = builder
            .run(
                cascading_unknown_alice(&alice, &p, doubling2).unwrap(),
                cascading_unknown_bob(&bob, &p, doubling2),
            )
            .unwrap();
        assert_eq!(cascade.recovered, alice);

        let multi = builder
            .run(multiround_unknown_alice(&alice, &p, est), multiround_unknown_bob(&bob, &p, est))
            .unwrap();
        assert_eq!(multi.recovered, alice);
        assert!(multi.stats.rounds >= 4);
    }

    /// Hand `alice` honest Bob's estimator with every counter byte after the
    /// 12-byte header set to 0x55: the merged estimate reads 96·2⁴⁸, which
    /// must fail her session, not abort her process.
    fn assert_hostile_estimator_exhausts(mut alice: impl Party, mut bob: impl Party) {
        let mut estimator = bob.poll_send().expect("estimator first");
        estimator.payload[12..].fill(0x55);
        match alice.handle(estimator) {
            Err(error @ ReconError::ResourceExhausted { .. }) => assert!(!error.is_retryable()),
            Err(error) => panic!("expected ResourceExhausted, got {error}"),
            Ok(_) => panic!("expected ResourceExhausted, got a digest"),
        }
    }

    fn exhausted<T>(result: Result<T, ReconError>) -> bool {
        matches!(result, Err(ReconError::ResourceExhausted { .. }))
    }

    /// The peer sets the attempt number, so the one doubling schedule must
    /// refuse a bound past `usize` instead of wrapping or panicking: from the
    /// IBLT-of-IBLTs chain's first bound 1 and the cascade's 2.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn doubling_schedules_refuse_bounds_past_usize() {
        assert_eq!(doubled_bound(1, 0).unwrap(), 1);
        assert_eq!(doubled_bound(1, 62).unwrap(), 1 << 62);
        assert_eq!(doubled_bound(1, 63).unwrap(), 1 << 63);
        assert!(exhausted(doubled_bound(1, 64)));
        assert!(exhausted(doubled_bound(1, 70)));
        assert_eq!(doubled_bound(2, 0).unwrap(), 2);
        assert_eq!(doubled_bound(2, 62).unwrap(), 1 << 63);
        for attempt in [63, 64, 70] {
            assert!(exhausted(doubled_bound(2, attempt)), "attempt {attempt}");
        }
    }

    /// A bound whose tables cannot even be counted in `usize` is refused
    /// before anything is allocated.
    #[test]
    fn doubling_digests_refuse_an_overflowing_bound() {
        let (w, p) = params();
        let (alice, _) = generate_pair(&w, 4, 5);
        let huge = usize::MAX / 2 + 1;
        assert!(exhausted(IbltOfIbltsProtocol::new(p).try_digest(&alice, huge, 4)));
        assert!(exhausted(CascadingProtocol::new(p).try_digest(&alice, huge)));
    }

    #[test]
    fn a_hostile_estimator_fails_the_naive_unknown_alice() {
        let (w, p) = params();
        let (alice, bob) = generate_pair(&w, 6, 9);
        let (amp, est) = (Amplification::replicate(3), L0Config::default());
        assert_hostile_estimator_exhausts(
            naive_unknown_alice(&alice, &p, amp, est),
            naive_unknown_bob(&bob, &p, amp, est),
        );
    }

    #[test]
    fn a_hostile_estimator_fails_the_multiround_unknown_alice() {
        let (w, p) = params();
        let (alice, bob) = generate_pair(&w, 6, 9);
        let est = L0Config::default();
        assert_hostile_estimator_exhausts(
            multiround_unknown_alice(&alice, &p, est),
            multiround_unknown_bob(&bob, &p, est),
        );
    }
}
