//! The multi-round set-of-sets protocol — Theorem 3.9 (known `d`, 3 rounds) and
//! Theorem 3.10 (unknown `d`, 4 rounds).
//!
//! Instead of nesting IBLTs, this protocol spends extra rounds to avoid paying
//! `log min(d, h)` factors:
//!
//! 1. *(unknown `d` only)* Bob sends an ℓ0 difference estimator over his child-set
//!    hashes so Alice can size the next step.
//! 2. **Alice → Bob**: an IBLT of her child-set hashes (`O(d̂)` cells). Bob subtracts
//!    his own hashes, learns which child sets differ on each side, and
//! 3. **Bob → Alice**: sends back his hash IBLT together with one small set
//!    difference estimator per differing child set.
//! 4. **Alice → Bob**: Alice identifies her own differing children, pairs each with
//!    the most similar of Bob's differing children (smallest estimated difference),
//!    and sends a per-child patch: an IBLT digest for children with larger estimated
//!    differences, or characteristic-polynomial evaluations for very small ones
//!    (Theorem 2.3 is exact, so tiny patches never need retries). Bob applies each
//!    patch to his matched child and swaps the results into his parent set.
//!
//! The parties ([`crate::session::multiround_known_alice`] and its Bob) add a safety
//! fallback the paper handles by replication: if a per-child patch fails to verify
//! (the estimator under-estimated), the child set is re-sent verbatim. This keeps the
//! protocol always-correct; the extra bytes are charged to the transcript so the
//! measured communication honestly reflects the retry.

use recon_base::wire::{Decode, Encode, WireError};
use recon_set::{CharPolyDigest, SetDigest};

/// A per-child patch sent by Alice in the final round.
#[derive(Debug, Clone, PartialEq)]
pub enum ChildPatch {
    /// An IBLT set digest for the child (used when the estimated difference is
    /// large, Corollary 2.2).
    Iblt {
        /// Hash of Alice's child set (identifies the patch, lets Bob verify).
        alice_hash: u64,
        /// Hash of Bob's child set the patch should be applied to.
        target_hash: u64,
        /// The IBLT digest of Alice's child set.
        digest: SetDigest,
    },
    /// Characteristic-polynomial evaluations for the child (used for very small
    /// estimated differences, Theorem 2.3).
    CharPoly {
        /// Hash of Alice's child set.
        alice_hash: u64,
        /// Hash of Bob's child set the patch should be applied to.
        target_hash: u64,
        /// The characteristic-polynomial digest of Alice's child set.
        digest: CharPolyDigest,
    },
    /// The full child set, sent verbatim (fallback when an estimator badly
    /// under-estimated; also used for children with no plausible match).
    Full {
        /// Hash of Alice's child set.
        alice_hash: u64,
        /// The child set itself.
        child: Vec<u64>,
    },
}

impl Encode for ChildPatch {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ChildPatch::Iblt { alice_hash, target_hash, digest } => {
                buf.push(0);
                alice_hash.encode(buf);
                target_hash.encode(buf);
                digest.encode(buf);
            }
            ChildPatch::CharPoly { alice_hash, target_hash, digest } => {
                buf.push(1);
                alice_hash.encode(buf);
                target_hash.encode(buf);
                digest.encode(buf);
            }
            ChildPatch::Full { alice_hash, child } => {
                buf.push(2);
                alice_hash.encode(buf);
                child.encode(buf);
            }
        }
    }
}

impl Decode for ChildPatch {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(ChildPatch::Iblt {
                alice_hash: u64::decode(buf)?,
                target_hash: u64::decode(buf)?,
                digest: SetDigest::decode(buf)?,
            }),
            1 => Ok(ChildPatch::CharPoly {
                alice_hash: u64::decode(buf)?,
                target_hash: u64::decode(buf)?,
                digest: CharPolyDigest::decode(buf)?,
            }),
            2 => Ok(ChildPatch::Full {
                alice_hash: u64::decode(buf)?,
                child: Vec::<u64>::decode(buf)?,
            }),
            _ => Err(WireError::Invalid("child patch tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session;
    use crate::types::{ChildSet, SetOfSets, SosParams};
    use crate::workload::{generate_pair, WorkloadParams};
    use recon_estimator::L0Config;
    use recon_protocol::{Amplification, Outcome, SessionBuilder};
    use recon_set::{CharPolyProtocol, IbltSetProtocol};

    fn params() -> (WorkloadParams, SosParams) {
        let w = WorkloadParams::new(80, 20, 1 << 40);
        (w, SosParams::new(0xABCD, w.max_child_size))
    }

    /// Theorem 3.9's party pair, run in memory.
    fn multi(
        a: &SetOfSets,
        b: &SetOfSets,
        d: usize,
        d_hat: usize,
        p: &SosParams,
    ) -> Outcome<SetOfSets> {
        let alice = session::multiround_known_alice(a, d, d_hat, p).unwrap();
        SessionBuilder::new(p.seed).run(alice, session::multiround_known_bob(b, p)).unwrap()
    }

    #[test]
    fn identical_parent_sets_reconcile_in_one_round_of_hashes() {
        let (w, p) = params();
        let (alice, _) = generate_pair(&w, 0, 1);
        let outcome = multi(&alice, &alice, 4, 4, &p);
        assert_eq!(outcome.recovered, alice);
    }

    #[test]
    fn perturbed_parent_sets_reconcile_known_d() {
        let (w, p) = params();
        for d in [1usize, 4, 10, 24] {
            let (alice, bob) = generate_pair(&w, d, 60 + d as u64);
            let outcome = multi(&alice, &bob, d, d, &p);
            assert_eq!(outcome.recovered, alice, "d = {d}");
            assert!(outcome.stats.rounds >= 3, "d = {d}: {}", outcome.stats.rounds);
        }
    }

    #[test]
    fn unknown_d_adds_an_estimation_round() {
        let (w, p) = params();
        let (alice, bob) = generate_pair(&w, 8, 5);
        let est = L0Config::default();
        let outcome = SessionBuilder::new(p.seed)
            .run(
                session::multiround_unknown_alice(&alice, &p, est),
                session::multiround_unknown_bob(&bob, &p, est),
            )
            .unwrap();
        assert_eq!(outcome.recovered, alice);
        assert!(outcome.stats.rounds >= 4);
    }

    #[test]
    fn child_patch_wire_roundtrip() {
        let charpoly = CharPolyProtocol::new(1);
        let set: std::collections::HashSet<u64> = (0..20).collect();
        let patches = vec![
            ChildPatch::Full { alice_hash: 7, child: vec![1, 2, 3] },
            ChildPatch::CharPoly {
                alice_hash: 9,
                target_hash: 11,
                digest: charpoly.digest(&set, 3).unwrap(),
            },
            ChildPatch::Iblt {
                alice_hash: 13,
                target_hash: 17,
                digest: IbltSetProtocol::new(2).digest(&set, 4),
            },
        ];
        let bytes = patches.to_bytes();
        assert_eq!(Vec::<ChildPatch>::from_bytes(&bytes).unwrap(), patches);
    }

    #[test]
    fn communication_is_dominated_by_small_per_child_payloads() {
        // For small d the per-child payloads are characteristic polynomials of a few
        // words each; the bulk of the cost is the hash IBLTs and estimators, so the
        // total should be well under what the naive protocol would pay (s·h words).
        let (w, p) = params();
        let (alice, bob) = generate_pair(&w, 4, 17);
        let outcome = multi(&alice, &bob, 4, 4, &p);
        assert_eq!(outcome.recovered, alice);
        let amp = Amplification::replicate(3);
        let naive = SessionBuilder::new(p.seed)
            .run(
                session::naive_known_alice(&alice, 4, &p, amp).unwrap(),
                session::naive_known_bob(&bob, &p, amp),
            )
            .unwrap();
        assert!(outcome.stats.total_bytes() < naive.stats.total_bytes());
    }

    #[test]
    fn whole_child_replacement_falls_back_to_full_transmission() {
        let (w, p) = params();
        let (alice, mut bob) = generate_pair(&w, 0, 29);
        let removed = bob.children()[0].clone();
        bob.remove(&removed);
        let replacement: ChildSet = (900_000_000u64..900_000_000 + 16).collect();
        bob.insert(replacement);
        let d = 40;
        let outcome = multi(&alice, &bob, d, 4, &p);
        assert_eq!(outcome.recovered, alice);
    }
}
