//! The naive set-of-sets protocol (Theorems 3.3 and 3.4).
//!
//! "The simplest approach to reconciling sets of sets is to ignore the fact that the
//! items are sets": each child set is treated as one opaque item from the huge
//! universe of all possible child sets, encoded as a fixed-width byte string of
//! `O(h log u)` bits, and the parent sets are reconciled with ordinary IBLT set
//! reconciliation (Corollary 2.2 / 3.2). Communication is `O(d̂ · h log u)` bits —
//! the baseline every smarter protocol in this crate is compared against in Table 1.

use crate::types::{SetOfSets, SosParams};
use recon_base::wire::{Decode, Encode, WireError};
use recon_base::ReconError;
use recon_iblt::{Iblt, IbltConfig};

/// Alice's one-round message for the naive protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveDigest {
    /// Outer IBLT whose keys are fixed-width encodings of entire child sets.
    pub outer: Iblt,
    /// Hash of Alice's whole parent set, for end-to-end verification.
    pub parent_hash: u64,
    /// Number of child sets Alice holds.
    pub num_children: u64,
}

impl Encode for NaiveDigest {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.outer.encode(buf);
        self.parent_hash.encode(buf);
        self.num_children.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.outer.encoded_len() + 16
    }
}

impl Decode for NaiveDigest {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(NaiveDigest {
            outer: <Iblt as Decode>::decode(buf)?,
            parent_hash: u64::decode(buf)?,
            num_children: u64::decode(buf)?,
        })
    }
}

/// The naive protocol: child sets as opaque fixed-width items (Theorem 3.3/3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NaiveProtocol {
    params: SosParams,
}

impl NaiveProtocol {
    /// Create a protocol instance from shared parameters.
    pub fn new(params: SosParams) -> Self {
        Self { params }
    }

    /// Width in bytes of the fixed child-set encoding (`O(h log u)` bits).
    pub fn key_bytes(&self) -> usize {
        2 + 8 * self.params.max_child_size
    }

    fn outer_config(&self) -> IbltConfig {
        // Retightened sizing backed by the decode-rescue pipeline: Bob feeds
        // his own child encodings to the solver in `reconcile`, and the
        // session parties amplify residual failures. At O(h log u) bits per
        // outer cell the tighter layout is where the savings are largest.
        IbltConfig::tuned_for_key_bytes(self.key_bytes(), self.params.role_seed(0xA1))
    }

    /// Alice's side: encode her parent set for a bound of `d_hat` differing child
    /// sets.
    pub fn digest(&self, sos: &SetOfSets, d_hat: usize) -> NaiveDigest {
        self.try_digest(sos, d_hat).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`NaiveProtocol::digest`] for a bound derived from the peer's
    /// estimator: a table the allocator cannot provide is an error.
    pub(crate) fn try_digest(
        &self,
        sos: &SetOfSets,
        d_hat: usize,
    ) -> Result<NaiveDigest, ReconError> {
        let cfg = self.outer_config();
        // Both parties' differing children end up in the subtracted table, so size
        // for twice the bound.
        let mut outer = Iblt::try_with_expected_diff(d_hat.saturating_mul(2).max(2), &cfg)?;
        let mut key = Vec::with_capacity(self.key_bytes());
        for child in sos.children() {
            SetOfSets::encode_child_fixed_into(child, self.params.max_child_size, &mut key);
            outer.insert(&key);
        }
        Ok(NaiveDigest {
            outer,
            parent_hash: sos.parent_hash(self.params.seed),
            num_children: sos.num_children() as u64,
        })
    }

    /// Bob's side: recover Alice's parent set from her digest.
    pub fn reconcile(
        &self,
        digest: &NaiveDigest,
        local: &SetOfSets,
    ) -> Result<SetOfSets, ReconError> {
        let mut table = digest.outer.clone();
        table.adopt_layout(&self.outer_config())?;
        let mut key = Vec::with_capacity(self.key_bytes());
        for child in local.children() {
            SetOfSets::encode_child_fixed_into(child, self.params.max_child_size, &mut key);
            table.delete(&key);
        }
        // Every negative key is one of Bob's own child encodings, so they are
        // exactly the candidates the rescue solver wants (materialized only if
        // the peel stalls).
        let decoded = table.decode_in_place_with_candidates(local.children().iter().map(|child| {
            let mut key = Vec::with_capacity(self.key_bytes());
            SetOfSets::encode_child_fixed_into(child, self.params.max_child_size, &mut key);
            key
        }));
        if !decoded.complete {
            return Err(ReconError::PeelingFailure { remaining_cells: table.nonempty_cells() });
        }
        let mut recovered = local.clone();
        for key in &decoded.negative {
            let child = SetOfSets::decode_child_fixed(key).ok_or(ReconError::ChecksumFailure)?;
            if !recovered.remove(&child) {
                return Err(ReconError::ChecksumFailure);
            }
        }
        for key in &decoded.positive {
            let child = SetOfSets::decode_child_fixed(key).ok_or(ReconError::ChecksumFailure)?;
            if !recovered.insert(child) {
                return Err(ReconError::ChecksumFailure);
            }
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
    use recon_estimator::L0Config;
    use recon_protocol::{Amplification, SessionBuilder};

    fn params() -> (WorkloadParams, SosParams) {
        let w = WorkloadParams::new(64, 12, 1 << 20);
        (w, SosParams::new(0xBEEF, w.max_child_size))
    }

    #[test]
    fn identical_parent_sets_reconcile() {
        let (w, p) = params();
        let (alice, _) = generate_pair(&w, 0, 1);
        let protocol = NaiveProtocol::new(p);
        let digest = protocol.digest(&alice, 2);
        assert_eq!(protocol.reconcile(&digest, &alice).unwrap(), alice);
    }

    #[test]
    fn small_perturbations_reconcile() {
        let (w, p) = params();
        let amp = Amplification::replicate(3);
        for d in [1usize, 2, 5, 10] {
            let (alice, bob) = generate_pair(&w, d, 10 + d as u64);
            let outcome = SessionBuilder::new(p.seed)
                .run(
                    session::naive_known_alice(&alice, d, &p, amp).unwrap(),
                    session::naive_known_bob(&bob, &p, amp),
                )
                .unwrap();
            assert_eq!(outcome.recovered, alice, "d = {d}");
            assert_eq!(outcome.stats.rounds, 1);
        }
    }

    #[test]
    fn unknown_difference_reconciles_in_two_or_more_rounds() {
        let (w, p) = params();
        let (alice, bob) = generate_pair(&w, 6, 3);
        let (amp, est) = (Amplification::replicate(5), L0Config::default());
        let outcome = SessionBuilder::new(p.seed)
            .run(
                session::naive_unknown_alice(&alice, &p, amp, est),
                session::naive_unknown_bob(&bob, &p, amp, est),
            )
            .unwrap();
        assert_eq!(outcome.recovered, alice);
        assert!(outcome.stats.rounds >= 2);
        assert!(outcome.stats.bytes_bob_to_alice > 0);
    }

    #[test]
    fn communication_scales_with_child_size() {
        // The whole point of Theorem 3.5/3.7: the naive protocol pays O(h log u) per
        // differing child. Verify the digest grows with h.
        let w_small = WorkloadParams::new(32, 4, 1 << 20);
        let w_large = WorkloadParams::new(32, 32, 1 << 20);
        let (alice_small, _) = generate_pair(&w_small, 2, 5);
        let (alice_large, _) = generate_pair(&w_large, 2, 5);
        let proto_small = NaiveProtocol::new(SosParams::new(1, w_small.max_child_size));
        let proto_large = NaiveProtocol::new(SosParams::new(1, w_large.max_child_size));
        let bytes_small = proto_small.digest(&alice_small, 4).encoded_len();
        let bytes_large = proto_large.digest(&alice_large, 4).encoded_len();
        assert!(bytes_large > 4 * bytes_small, "{bytes_large} vs {bytes_small}");
    }

    #[test]
    fn undersized_bound_is_detected() {
        let (w, p) = params();
        let (alice, bob) = generate_pair(&w, 40, 9);
        let protocol = NaiveProtocol::new(p);
        let digest = protocol.digest(&alice, 1);
        assert!(protocol.reconcile(&digest, &bob).is_err());
    }

    #[test]
    fn digest_roundtrips_through_wire() {
        let (w, p) = params();
        let (alice, bob) = generate_pair(&w, 3, 11);
        let protocol = NaiveProtocol::new(p);
        let digest = protocol.digest(&alice, 4);
        let decoded = NaiveDigest::from_bytes(&digest.to_bytes()).unwrap();
        assert_eq!(protocol.reconcile(&decoded, &bob).unwrap(), alice);
    }
}
