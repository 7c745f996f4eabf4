//! The IBLT-of-IBLTs protocol — Algorithm 1, Theorem 3.5 (known `d`) and
//! Corollary 3.6 (unknown `d` via repeated doubling).
//!
//! Each child set is encoded as a *child IBLT* with `O(d)` cells, in its headerless
//! [key form](Iblt::write_key_form), plus a short hash of the child set; these
//! fixed-width encodings are then themselves inserted as keys
//! into an *outer IBLT* sized for `d̂` differing children. Bob subtracts his own
//! encodings, peels the outer table to learn which child encodings differ, and then
//! decodes each of Alice's differing child IBLTs against each of his own differing
//! child IBLTs (at most `d̂²` pairs, each `O(d)` work) to recover Alice's child sets.
//! Communication: `O(d̂ d log u + d̂ log s)` bits in one round.

use crate::types::{ChildSet, SetOfSets, SosParams};
use recon_base::wire::{write_uvarint, Claimed, Decode, Encode, WireError};
use recon_base::ReconError;
use recon_iblt::{Iblt, IbltConfig};

/// Alice's one-round message: the outer IBLT over child encodings.
#[derive(Debug, Clone, PartialEq)]
pub struct IbltOfIbltsDigest {
    /// Outer IBLT; each key is `key form(child IBLT) || child hash`.
    pub outer: Iblt,
    /// The per-child difference bound `d` the child IBLTs were sized for.
    pub child_diff_bound: usize,
    /// Hash of Alice's whole parent set, for end-to-end verification.
    pub parent_hash: u64,
    /// Number of child sets Alice holds.
    pub num_children: u64,
}

impl Encode for IbltOfIbltsDigest {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.outer.encode(buf);
        write_uvarint(buf, self.child_diff_bound as u64);
        self.parent_hash.encode(buf);
        self.num_children.encode(buf);
    }
}

impl Decode for IbltOfIbltsDigest {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let outer = <Iblt as Decode>::decode(buf)?;
        // An outer key holds a child table of at least `2d` cells.
        let child_diff_bound = Claimed::decode(buf)?.at_most(outer.key_bytes(), "child bound")?;
        Ok(IbltOfIbltsDigest {
            outer,
            child_diff_bound,
            parent_hash: u64::decode(buf)?,
            num_children: u64::decode(buf)?,
        })
    }
}

/// The IBLT-of-IBLTs protocol (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IbltOfIbltsProtocol {
    params: SosParams,
}

impl IbltOfIbltsProtocol {
    /// Create a protocol instance from shared parameters.
    pub fn new(params: SosParams) -> Self {
        Self { params }
    }

    /// Configuration of the child IBLTs (u64 element keys). Child tables use a
    /// smaller minimum size than stand-alone IBLTs: a child decode failure is caught
    /// by the hash check and surfaces as a retryable error rather than silent
    /// corruption, so the communication savings are worth the slightly higher
    /// failure rate. A child table is only decoded as a trial against one of
    /// Bob's candidates, where a failure just means "try the next one", so it
    /// peels without the rescue.
    fn child_config(&self) -> IbltConfig {
        IbltConfig::for_u64_keys(self.params.role_seed(0xB1))
            .with_cells_per_diff(2.0)
            .with_min_cells(8)
            .with_rescue(None)
    }

    /// Number of cells each child IBLT uses for a per-child difference bound `d`.
    pub fn child_cells(&self, d: usize) -> usize {
        self.child_config().cells_for(d.max(1))
    }

    /// Width in bytes of a child encoding (the child IBLT's key form plus 8-byte hash).
    pub fn encoding_bytes(&self, d: usize) -> usize {
        self.child_config().key_form_len(self.child_cells(d), self.params.max_child_size) + 8
    }

    fn outer_config(&self, d: usize) -> IbltConfig {
        // Retightened sizing backed by the decode-rescue pipeline: Bob's own
        // child encodings are the candidate pool in `reconcile`, and each
        // outer cell costs a whole serialized child table, so the tighter
        // layout saves O(d log u) bits per cell shaved.
        IbltConfig::tuned_for_key_bytes(self.encoding_bytes(d), self.params.role_seed(0xB2))
    }

    /// An empty child table of the right geometry for bound `d`, reusable across
    /// children via [`Iblt::clear`].
    fn child_scratch(&self, d: usize) -> Iblt {
        Iblt::with_cells(self.child_cells(d), &self.child_config())
    }

    /// Encode one child set into `out` using `scratch` as the child table — both
    /// are cleared and reused, so bulk encoders allocate nothing per child.
    fn encode_child_into(&self, child: &ChildSet, scratch: &mut Iblt, out: &mut Vec<u8>) {
        scratch.clear();
        scratch.insert_u64s(child.iter().copied());
        let hash = SetOfSets::child_hash(child, self.params.seed);
        Self::join_encoding(scratch, hash, self.params.max_child_size, out);
    }

    /// The encoding of a child of at most `h` elements whose table is `table`
    /// and whose hash is `hash`, overwriting `out`.
    pub(crate) fn join_encoding(table: &Iblt, hash: u64, h: usize, out: &mut Vec<u8>) {
        out.clear();
        table.write_key_form(h, out);
        out.extend_from_slice(&hash.to_le_bytes());
    }

    /// A child encoding taken apart again: the child table, at the geometry of
    /// this side's own child table `like`, and the child hash.
    pub(crate) fn split_encoding(
        like: &Iblt,
        h: usize,
        encoding: &[u8],
    ) -> Result<(Iblt, u64), ReconError> {
        let (form, hash) = encoding.split_last_chunk::<8>().ok_or(ReconError::ChecksumFailure)?;
        let mut table = like.clone();
        table.read_key_form(h, form).map_err(ReconError::Wire)?;
        Ok((table, u64::from_le_bytes(*hash)))
    }

    /// Alice's side: build the digest for per-child bound `d` and differing-children
    /// bound `d_hat`.
    pub fn digest(&self, sos: &SetOfSets, d: usize, d_hat: usize) -> IbltOfIbltsDigest {
        self.try_digest(sos, d, d_hat).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`IbltOfIbltsProtocol::digest`] for a bound a doubling chain grew: a
    /// table the allocator cannot provide (or whose size overflows `usize`)
    /// is an error.
    pub(crate) fn try_digest(
        &self,
        sos: &SetOfSets,
        d: usize,
        d_hat: usize,
    ) -> Result<IbltOfIbltsDigest, ReconError> {
        let d = d.max(1);
        // The child table first (it is `child_scratch(d)`): once it exists,
        // the encoding width derived from its cell count fits in `usize`.
        let mut scratch = Iblt::try_with_expected_diff(d, &self.child_config())?;
        let expected = d_hat.saturating_mul(2).max(2);
        let mut outer = Iblt::try_with_expected_diff(expected, &self.outer_config(d))?;
        let mut encoding = Vec::with_capacity(self.encoding_bytes(d));
        for child in sos.children() {
            self.encode_child_into(child, &mut scratch, &mut encoding);
            outer.insert(&encoding);
        }
        Ok(IbltOfIbltsDigest {
            outer,
            child_diff_bound: d,
            parent_hash: sos.parent_hash(self.params.seed),
            num_children: sos.num_children() as u64,
        })
    }

    /// Bob's side: recover Alice's parent set.
    pub fn reconcile(
        &self,
        digest: &IbltOfIbltsDigest,
        local: &SetOfSets,
    ) -> Result<SetOfSets, ReconError> {
        let (d, h) = (digest.child_diff_bound.max(1), self.params.max_child_size);
        // An outer key holds a child table of at least `2d` cells, which bounds
        // a peer's `d` before any size is derived from it.
        if d > digest.outer.key_bytes() {
            return Err(ReconError::InvalidInput("child bound exceeds the key width".to_string()));
        }
        let mut table = digest.outer.clone();
        table.adopt_layout(&self.outer_config(d))?;
        let mut scratch = self.child_scratch(d);
        let mut encoding = Vec::with_capacity(self.encoding_bytes(d));
        for child in local.children() {
            self.encode_child_into(child, &mut scratch, &mut encoding);
            table.delete(&encoding);
        }
        // Bob's own child encodings are exactly the candidate pool for the
        // outer decode's rescue (materialized only if the peel stalls).
        let decoded = table.decode_in_place_with_candidates(local.children().iter().map(|child| {
            let mut scratch = self.child_scratch(d);
            let mut encoding = Vec::with_capacity(self.encoding_bytes(d));
            self.encode_child_into(child, &mut scratch, &mut encoding);
            encoding
        }));
        if !decoded.complete {
            return Err(ReconError::PeelingFailure { remaining_cells: table.nonempty_cells() });
        }

        // D_B: Bob's child sets whose encodings appeared on the negative side.
        let local_by_hash = local.children_by_hash(self.params.seed);
        let mut differing_local: Vec<(u64, &ChildSet, Iblt)> = Vec::new();
        for encoding in &decoded.negative {
            let (table_b, hash_b) = Self::split_encoding(&scratch, h, encoding)?;
            let child = *local_by_hash.get(&hash_b).ok_or(ReconError::ChecksumFailure)?;
            differing_local.push((hash_b, child, table_b));
        }

        // D_A: Alice's differing child sets, recovered by pairing each of her child
        // IBLTs with one of Bob's differing child IBLTs. A child with no counterpart
        // on Bob's side (e.g. a brand-new document in the collections application) is
        // additionally tried against the empty set, which succeeds whenever the whole
        // child fits within the per-child difference bound — consistent with the
        // relaxed difference metric, where an unmatched child costs its full size.
        let empty_child = ChildSet::new();
        let empty_table = self.child_scratch(d);
        let mut candidates: Vec<(&ChildSet, &Iblt)> =
            differing_local.iter().map(|(_, c, t)| (*c, t)).collect();
        candidates.push((&empty_child, &empty_table));
        let mut recovered_children: Vec<ChildSet> = Vec::new();
        for encoding in &decoded.positive {
            let (table_a, hash_a) = Self::split_encoding(&scratch, h, encoding)?;
            let mut matched = false;
            for (child_b, table_b) in &candidates {
                let Ok(mut diff_table) = table_a.subtract(table_b) else { continue };
                let peeled = diff_table.decode_in_place();
                if !peeled.complete {
                    continue;
                }
                let mut candidate: ChildSet = (*child_b).clone();
                for x in peeled.negative_u64() {
                    candidate.remove(&x);
                }
                for x in peeled.positive_u64() {
                    candidate.insert(x);
                }
                if SetOfSets::child_hash(&candidate, self.params.seed) == hash_a {
                    recovered_children.push(candidate);
                    matched = true;
                    break;
                }
            }
            if !matched {
                return Err(ReconError::NoMatchingChild { child_hash: hash_a });
            }
        }

        let mut recovered = local.clone();
        for (_, child_b, _) in &differing_local {
            recovered.remove(child_b);
        }
        for child in recovered_children {
            recovered.insert(child);
        }
        if recovered.num_children() as u64 != digest.num_children
            || recovered.parent_hash(self.params.seed) != digest.parent_hash
        {
            return Err(ReconError::ChecksumFailure);
        }
        Ok(recovered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session;
    use crate::workload::{generate_pair, WorkloadParams};
    use recon_protocol::{Amplification, Outcome, SessionBuilder};

    fn params() -> (WorkloadParams, SosParams) {
        let w = WorkloadParams::new(64, 16, 1 << 30);
        (w, SosParams::new(0xD0D0, w.max_child_size))
    }

    /// Theorem 3.5's party pair under three replicated attempts, run in memory.
    fn flat(
        a: &SetOfSets,
        b: &SetOfSets,
        d: usize,
        d_hat: usize,
        p: &SosParams,
    ) -> Outcome<SetOfSets> {
        let amp = Amplification::replicate(3);
        let alice = session::ioi_known_alice(a, d, d_hat, p, amp).unwrap();
        SessionBuilder::new(p.seed).run(alice, session::ioi_known_bob(b, p, amp)).unwrap()
    }

    #[test]
    fn identical_parent_sets_reconcile() {
        let (w, p) = params();
        let (alice, _) = generate_pair(&w, 0, 1);
        let protocol = IbltOfIbltsProtocol::new(p);
        let digest = protocol.digest(&alice, 2, 2);
        assert_eq!(protocol.reconcile(&digest, &alice).unwrap(), alice);
    }

    #[test]
    fn perturbed_parent_sets_reconcile() {
        let (w, p) = params();
        for d in [1usize, 3, 8, 16] {
            let (alice, bob) = generate_pair(&w, d, 50 + d as u64);
            let outcome = flat(&alice, &bob, d, d, &p);
            assert_eq!(outcome.recovered, alice, "d = {d}");
            assert_eq!(outcome.stats.rounds, 1);
        }
    }

    #[test]
    fn unknown_difference_doubles_until_success() {
        let (w, p) = params();
        let (alice, bob) = generate_pair(&w, 9, 77);
        let doubling =
            Amplification::doubling(1, 2 * (alice.total_elements() + bob.total_elements() + 2));
        let cap = alice.num_children().max(bob.num_children());
        let outcome = SessionBuilder::new(p.seed)
            .run(
                session::ioi_unknown_alice(&alice, &p, cap, doubling).unwrap(),
                session::ioi_unknown_bob(&bob, &p, doubling),
            )
            .unwrap();
        assert_eq!(outcome.recovered, alice);
        assert!(outcome.stats.rounds >= 1);
    }

    #[test]
    fn beats_naive_communication_when_children_are_large() {
        // Table 1's ordering: for large h the IBLT-of-IBLTs protocol transmits far
        // less than the naive protocol at the same d.
        let w = WorkloadParams::new(48, 64, 1 << 30);
        let p = SosParams::new(3, w.max_child_size);
        let (alice, bob) = generate_pair(&w, 4, 5);
        let smart = flat(&alice, &bob, 4, 4, &p);
        let amp = Amplification::replicate(3);
        let naive_run = SessionBuilder::new(p.seed)
            .run(
                session::naive_known_alice(&alice, 4, &p, amp).unwrap(),
                session::naive_known_bob(&bob, &p, amp),
            )
            .unwrap();
        assert_eq!(smart.recovered, alice);
        assert_eq!(naive_run.recovered, alice);
        assert!(
            smart.stats.total_bytes() < naive_run.stats.total_bytes(),
            "IBLT-of-IBLTs {} bytes should undercut naive {} bytes",
            smart.stats.total_bytes(),
            naive_run.stats.total_bytes()
        );
    }

    #[test]
    fn digest_roundtrips_through_wire() {
        let (w, p) = params();
        let (alice, bob) = generate_pair(&w, 5, 13);
        let protocol = IbltOfIbltsProtocol::new(p);
        let digest = protocol.digest(&alice, 5, 5);
        let decoded = IbltOfIbltsDigest::from_bytes(&digest.to_bytes()).unwrap();
        assert_eq!(protocol.reconcile(&decoded, &bob).unwrap(), alice);
    }

    #[test]
    fn undersized_bounds_fail_detectably() {
        let (w, p) = params();
        let (alice, bob) = generate_pair(&w, 30, 21);
        let protocol = IbltOfIbltsProtocol::new(p);
        let digest = protocol.digest(&alice, 1, 1);
        assert!(protocol.reconcile(&digest, &bob).is_err());
    }

    #[test]
    fn whole_child_replacements_are_recovered() {
        // A child set with no close match still reconciles: its IBLT decodes against
        // some differing child of Bob's as long as the per-child bound covers the
        // full symmetric difference.
        let (w, p) = params();
        let (alice, mut_bob) = generate_pair(&w, 0, 31);
        let mut bob = mut_bob;
        let removed = alice.children()[0].clone();
        bob.remove(&removed);
        let replacement: ChildSet = (1_000_000u64..1_000_000 + removed.len() as u64).collect();
        bob.insert(replacement.clone());
        let d = removed.len() + replacement.len();
        let outcome = flat(&alice, &bob, d, 2, &p);
        assert_eq!(outcome.recovered, alice);
    }
}
