//! IBLT-based set reconciliation with a known difference bound (Corollary 2.2).
//!
//! Alice encodes her whole set into an `O(d)`-cell IBLT and sends it (together with
//! her set's hash and cardinality) to Bob. Bob deletes his own elements from the
//! table, peels it, and applies the recovered difference to his set. The set hash
//! lets Bob detect the rare undetectable checksum failures (Section 2 of the paper).

use crate::diff::SetDiff;
use recon_base::hash::SetHasher;
use recon_base::rng::split_seed;
use recon_base::wire::{Decode, Encode, WireError};
use recon_base::ReconError;
use recon_iblt::{Iblt, IbltConfig};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of full `O(n)` digest builds ([`IbltSetProtocol::digest`]
/// calls). Incremental stores serve digests from maintained sketches instead of
/// rebuilding; their tests pin "never rebuilt from scratch" by asserting this
/// counter does not move across the serving path.
static FULL_DIGEST_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Number of full digest builds performed by this process so far.
pub fn full_digest_builds() -> u64 {
    FULL_DIGEST_BUILDS.load(Ordering::Relaxed)
}

/// Alice's one-round message: the IBLT of her set, plus verification metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SetDigest {
    /// The IBLT encoding of Alice's set, sized for the difference bound `d`.
    pub iblt: Iblt,
    /// Order-independent hash of Alice's entire set (guards against checksum
    /// failures during recovery).
    pub set_hash: u64,
    /// `|S_A|`, so Bob can sanity-check the recovered set size.
    pub cardinality: u64,
}

impl Encode for SetDigest {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.iblt.encode(buf);
        self.set_hash.encode(buf);
        self.cardinality.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.iblt.encoded_len() + 8 + 8
    }
}

impl Decode for SetDigest {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SetDigest {
            iblt: <Iblt as Decode>::decode(buf)?,
            set_hash: u64::decode(buf)?,
            cardinality: u64::decode(buf)?,
        })
    }
}

/// The one-round, known-`d` IBLT set reconciliation protocol (Corollary 2.2).
///
/// All hash functions are derived from the protocol seed (public coins); both
/// parties must construct the protocol with the same seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IbltSetProtocol {
    seed: u64,
    iblt_cfg: IbltConfig,
}

impl IbltSetProtocol {
    /// Create a protocol instance from a shared seed with default IBLT sizing.
    pub fn new(seed: u64) -> Self {
        Self { seed, iblt_cfg: IbltConfig::for_u64_keys(split_seed(seed, 0x5E7)) }
    }

    /// Create a protocol instance with the retightened, rescue-backed sizing
    /// ([`IbltConfig::tuned_for_u64_keys`]): per-difference layout, a small
    /// stash, and roughly two-thirds of the classic digest bytes. The session
    /// builders use this; [`IbltSetProtocol::diff`] feeds Bob's own set to the
    /// decode-rescue solver, and the amplification loop covers the residual
    /// failure rate exactly as it covers peeling failures today.
    pub fn tuned(seed: u64) -> Self {
        Self::with_config(seed, IbltConfig::tuned_for_u64_keys(0))
    }

    /// Create a protocol instance with a custom IBLT configuration (ablation knob).
    pub fn with_config(seed: u64, mut cfg: IbltConfig) -> Self {
        cfg.seed = split_seed(seed, 0x5E7);
        cfg.key_bytes = 8;
        Self { seed, iblt_cfg: cfg }
    }

    /// The shared seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The IBLT configuration used for digests.
    pub fn iblt_config(&self) -> &IbltConfig {
        &self.iblt_cfg
    }

    /// The seed of the whole-set verification hash ([`SetHasher`]) derived from
    /// the protocol seed. Public so incremental stores can maintain the same hash
    /// with [`recon_base::hash::SetHasher`] and serve digests without rebuilding.
    pub fn set_hash_seed(&self) -> u64 {
        split_seed(self.seed, 0x5E8)
    }

    /// Alice's side: encode `set` into a digest sized for difference bound `d`.
    ///
    /// Runs in `O(n)` time and produces a message of `O(d log u)` bits.
    pub fn digest<'a, I>(&self, set: I, d: usize) -> SetDigest
    where
        I: IntoIterator<Item = &'a u64>,
    {
        self.try_digest(set, d).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`IbltSetProtocol::digest`] for a bound derived from the peer's
    /// estimator: a table the allocator cannot provide is an error.
    pub(crate) fn try_digest<'a, I>(&self, set: I, d: usize) -> Result<SetDigest, ReconError>
    where
        I: IntoIterator<Item = &'a u64>,
    {
        FULL_DIGEST_BUILDS.fetch_add(1, Ordering::Relaxed);
        let mut iblt = Iblt::try_with_expected_diff(d.max(1), &self.iblt_cfg)?;
        // One pass: each key is folded into the whole-set hash on its way
        // into the table.
        let mut hasher = SetHasher::new(self.set_hash_seed());
        iblt.insert_u64s(set.into_iter().map(|&x| {
            hasher.insert(x);
            x
        }));
        Ok(SetDigest { iblt, set_hash: hasher.finish(), cardinality: hasher.count() })
    }

    /// Bob's side: compute the set difference between Alice's digest and
    /// `local`, Bob's distinct elements in any collection walked twice.
    ///
    /// Fails with [`ReconError::PeelingFailure`] when the difference exceeded what
    /// the digest's table can decode.
    pub fn diff<'a, L>(&self, digest: &SetDigest, local: L) -> Result<SetDiff, ReconError>
    where
        L: IntoIterator<Item = &'a u64> + Copy,
    {
        let mut table = digest.iblt.clone();
        // A digest parsed off the wire carries no decode-side metadata;
        // re-bless it with this protocol's stash split and rescue budget.
        table.adopt_layout(&self.iblt_cfg)?;
        table.delete_u64s(local.into_iter().copied());
        // Decode in place: the clone above is the only copy on this path, and
        // on failure the table holds exactly the residual neither the peel nor
        // the rescue could clear. Every negative key in the difference is one
        // of Bob's own elements, so `local` is exactly the candidate set the
        // rescue solver wants (consumed only if the peel stalls).
        let decoded = table.decode_in_place_with_candidates_u64(local.into_iter().copied());
        if !decoded.complete {
            return Err(ReconError::PeelingFailure { remaining_cells: table.nonempty_cells() });
        }
        Ok(SetDiff { missing: decoded.positive_u64(), extra: decoded.negative_u64() })
    }

    /// Bob's side: fully recover Alice's set, verifying the result against the
    /// digest's set hash and cardinality.
    pub fn reconcile(
        &self,
        digest: &SetDigest,
        local: &HashSet<u64>,
    ) -> Result<HashSet<u64>, ReconError> {
        let diff = self.diff(digest, local)?;
        let seed = self.set_hash_seed();
        diff.apply(local)
            .filter(|_| diff.verify(local, seed, digest.cardinality, digest.set_hash))
            .ok_or(ReconError::ChecksumFailure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_base::rng::Xoshiro256;

    fn random_sets(n: usize, d: usize, seed: u64) -> (HashSet<u64>, HashSet<u64>) {
        let mut rng = Xoshiro256::new(seed);
        let shared: Vec<u64> = (0..n).map(|_| rng.next_u64() >> 2).collect();
        let mut alice: HashSet<u64> = shared.iter().copied().collect();
        let mut bob = alice.clone();
        for _ in 0..d / 2 {
            alice.insert(rng.next_u64() >> 2);
        }
        for _ in 0..(d - d / 2) {
            bob.insert(rng.next_u64() >> 2);
        }
        (alice, bob)
    }

    #[test]
    fn identical_sets_reconcile_trivially() {
        let (alice, _) = random_sets(500, 0, 1);
        let protocol = IbltSetProtocol::new(9);
        let digest = protocol.digest(&alice, 4);
        let diff = protocol.diff(&digest, &alice).unwrap();
        assert!(diff.is_empty());
        assert_eq!(protocol.reconcile(&digest, &alice).unwrap(), alice);
    }

    #[test]
    fn small_difference_reconciles() {
        let (alice, bob) = random_sets(2000, 12, 2);
        let protocol = IbltSetProtocol::new(7);
        let digest = protocol.digest(&alice, 16);
        assert_eq!(protocol.reconcile(&digest, &bob).unwrap(), alice);
    }

    #[test]
    fn digest_size_scales_with_d_not_n() {
        let (small, _) = random_sets(100, 0, 3);
        let (large, _) = random_sets(50_000, 0, 4);
        let protocol = IbltSetProtocol::new(5);
        let digest_small = protocol.digest(&small, 20);
        let digest_large = protocol.digest(&large, 20);
        // Same cells; 500 times the keys is at most one more count byte a cell.
        let range =
            digest_small.encoded_len()..=digest_small.encoded_len() + digest_small.iblt.cells();
        assert!(range.contains(&digest_large.encoded_len()));
        let d20 = protocol.digest(&large, 20).encoded_len();
        let d200 = protocol.digest(&large, 200).encoded_len();
        assert!(d200 > 5 * d20, "communication should grow linearly in d");
    }

    #[test]
    fn under_provisioned_digest_fails_detectably() {
        let (alice, bob) = random_sets(1000, 300, 6);
        let protocol = IbltSetProtocol::new(11);
        let digest = protocol.digest(&alice, 4); // way too small for 300 differences
        match protocol.reconcile(&digest, &bob) {
            Err(ReconError::PeelingFailure { .. }) | Err(ReconError::ChecksumFailure) => {}
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn digest_roundtrips_through_wire() {
        let (alice, bob) = random_sets(300, 8, 8);
        let protocol = IbltSetProtocol::new(3);
        let digest = protocol.digest(&alice, 8);
        let bytes = digest.to_bytes();
        assert_eq!(bytes.len(), digest.encoded_len());
        let decoded = SetDigest::from_bytes(&bytes).unwrap();
        assert_eq!(protocol.reconcile(&decoded, &bob).unwrap(), alice);
    }

    #[test]
    fn asymmetric_differences_work() {
        // Bob has extra elements that Alice lacks; both directions must decode.
        let protocol = IbltSetProtocol::new(21);
        let alice: HashSet<u64> = (0..1000).collect();
        let bob: HashSet<u64> = (5..1020).collect();
        let digest = protocol.digest(&alice, 32);
        let diff = protocol.diff(&digest, &bob).unwrap().sorted();
        assert_eq!(diff.missing, (0..5).collect::<Vec<_>>());
        assert_eq!(diff.extra, (1000..1020).collect::<Vec<_>>());
        assert_eq!(protocol.reconcile(&digest, &bob).unwrap(), alice);
    }

    #[test]
    fn different_seeds_produce_incompatible_tables() {
        let alice: HashSet<u64> = (0..100).collect();
        let bob: HashSet<u64> = (1..101).collect();
        let p1 = IbltSetProtocol::new(1);
        let p2 = IbltSetProtocol::new(2);
        let digest = p1.digest(&alice, 8);
        // Decoding with mismatched hash functions either errors or produces a result
        // that fails verification — it must never silently return a wrong set.
        if let Ok(recovered) = p2.reconcile(&digest, &bob) {
            assert_eq!(recovered, alice);
        }
    }

    /// The tuned layout without the decode rescue (`with_rescue(None)`): a
    /// stalled peel is a detected failure that replication absorbs (7 of these
    /// 200 pairs need a second attempt), and what comes back is never a wrong
    /// set.
    #[test]
    fn peel_only_tuned_layout_reconciles_within_three_attempts() {
        let cfg = IbltConfig::tuned_for_u64_keys(0).with_rescue(None);
        for pair in 0..200u64 {
            let (alice, bob) = random_sets(2000, 40, 0x9EE1 + pair);
            let recovered = (0..3u64).find_map(|attempt| {
                let protocol = IbltSetProtocol::with_config(split_seed(pair, attempt), cfg);
                assert_eq!(protocol.iblt_config().rescue, None);
                protocol.reconcile(&protocol.digest(&alice, 40), &bob).ok()
            });
            assert_eq!(recovered, Some(alice), "pair {pair}");
        }
    }

    #[test]
    fn reconciles_across_a_range_of_difference_sizes() {
        for d in [1usize, 2, 5, 17, 63, 128] {
            let (alice, bob) = random_sets(3000, d, 100 + d as u64);
            let protocol = IbltSetProtocol::new(500 + d as u64);
            let digest = protocol.digest(&alice, d.max(1));
            let recovered = protocol.reconcile(&digest, &bob);
            assert_eq!(recovered.unwrap(), alice, "failed at d = {d}");
        }
    }
}
