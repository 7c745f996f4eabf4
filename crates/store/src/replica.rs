//! One replica: a key set plus the sketches maintained for it under churn.
//!
//! A [`Replica`] keeps, next to its `HashSet<u64>` of keys:
//!
//! * one IBLT bank per **ladder rung** — a fixed menu of difference bounds
//!   (e.g. `[16, 64, 256]`); a session asking for bound `d` is served the
//!   smallest rung ≥ `d`,
//! * a [`StrataEstimator`] (A-side) for sizing unknown-`d` sessions, and
//! * an incremental whole-set hash ([`SetHasher`]).
//!
//! Every sketch is a commutative sum of per-element updates, so a mutation
//! ([`Replica::apply_all`]) costs `O(k)` per bank and key, and the maintained
//! state is **bit-identical** to a from-scratch build over the current keys —
//! which is what lets the daemon serve [`SetDigest`]s indistinguishable from
//! [`IbltSetProtocol::digest`](recon_set::IbltSetProtocol::digest) under
//! [`iblt_known_protocol`] without ever paying its `O(n)`. For the same reason
//! a snapshot holds the keys alone: loading one rebuilds every sketch.

use recon_base::hash::SetHasher;
use recon_base::rng::split_seed;
use recon_base::wire::{read_uvarint, write_uvarint, Claimed, Decode, Encode, WireError};
use recon_base::ReconError;
use recon_estimator::{L0Config, Side, StrataConfig, StrataEstimator};
use recon_iblt::Iblt;
use recon_protocol::{Amplification, SessionConfig};
use recon_set::session::iblt_known_protocol;
use recon_set::SetDigest;
use std::collections::HashSet;

/// The public-coin parameters of a replica, fixed when it is first opened and
/// shared with every client that reconciles against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaParams {
    /// Session seed: clients run their Bob party with exactly this seed, so
    /// the daemon's cached digests line up with the client's decode.
    pub seed: u64,
    /// Ascending difference-bound rungs; one IBLT bank is maintained per rung.
    pub ladder: Vec<usize>,
    /// Replication budget for amplified sessions (attempt 0 is served from the
    /// cached bank; retries rebuild under fresh hash functions).
    pub max_attempts: u64,
}

impl ReplicaParams {
    /// Validate ladder shape: non-empty, strictly ascending, rungs ≥ 1.
    pub fn validate(&self) -> Result<(), ReconError> {
        let ascending = self.ladder.windows(2).all(|w| w[0] < w[1]);
        if self.ladder.is_empty() || self.ladder[0] == 0 || !ascending || self.max_attempts == 0 {
            return Err(ReconError::InvalidInput(format!("invalid replica params {self:?}")));
        }
        Ok(())
    }

    /// The strata-estimator shape clients must build (B-side) for unknown-`d`
    /// reconciliation against this replica.
    pub fn strata_config(&self) -> StrataConfig {
        StrataConfig::default().with_seed(split_seed(self.seed, 0x57A))
    }

    /// Seed of the WAL record checksums.
    pub fn wal_seed(&self) -> u64 {
        split_seed(self.seed, 0x3A1)
    }

    /// The session configuration a client uses to run its Bob party — the same
    /// one a cold [`SessionBuilder`](recon_protocol::SessionBuilder) run would
    /// use, which is what makes daemon-served outcomes byte-identical.
    pub fn session_config(&self) -> SessionConfig {
        SessionConfig {
            seed: self.seed,
            amplification: Amplification::replicate(self.max_attempts),
            estimator: L0Config::default(),
        }
    }

    /// The smallest ladder rung covering difference bound `d`, if any.
    pub fn rung_for(&self, d: usize) -> Option<usize> {
        self.ladder.iter().copied().find(|&rung| rung >= d.max(1))
    }
}

impl Encode for ReplicaParams {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.seed.encode(buf);
        write_uvarint(buf, self.max_attempts);
        self.ladder.encode(buf);
    }
}

impl Decode for ReplicaParams {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let seed = u64::decode(buf)?;
        let max_attempts = read_uvarint(buf)?;
        let ladder = decode_ladder(buf)?;
        let params = ReplicaParams { seed, ladder, max_attempts };
        params.validate().map_err(|_| WireError::Invalid("replica params"))?;
        Ok(params)
    }
}

/// A rung ladder as a peer or the disk wrote it. A rung sizes nothing while
/// it is decoded, so `usize` is its one limit here; [`ReplicaParams::validate`]
/// checks the ladder's shape.
pub(crate) fn decode_ladder(buf: &mut &[u8]) -> Result<Vec<usize>, WireError> {
    let rungs = Vec::<Claimed>::decode(buf)?;
    rungs.into_iter().map(|rung| rung.at_most(usize::MAX, "ladder rung")).collect()
}

/// Snapshot format version: 2 is the key set alone.
const SNAPSHOT_VERSION: u8 = 2;

/// A key set with incrementally maintained sketches. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Replica {
    params: ReplicaParams,
    keys: HashSet<u64>,
    /// One bank per ladder rung, same order as `params.ladder`.
    banks: Vec<Iblt>,
    /// A-side strata estimator over the current keys.
    strata: StrataEstimator,
    /// Incremental state of the attempt-0 digest's whole-set hash.
    set_hash: SetHasher,
}

impl Replica {
    /// An empty replica with the given parameters.
    pub fn new(params: ReplicaParams) -> Result<Self, ReconError> {
        params.validate()?;
        let protocol = iblt_known_protocol(params.seed, 0);
        // A ladder can come from disk: a rung no table fits is an error.
        let banks = params
            .ladder
            .iter()
            .map(|&rung| Iblt::try_with_expected_diff(rung, protocol.iblt_config()))
            .collect::<Result<_, _>>()?;
        let strata = StrataEstimator::new(&params.strata_config());
        let set_hash = SetHasher::new(protocol.set_hash_seed());
        Ok(Self { params, keys: HashSet::new(), banks, strata, set_hash })
    }

    /// The replica's parameters.
    pub fn params(&self) -> &ReplicaParams {
        &self.params
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if the replica holds no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The current key set.
    pub fn keys(&self) -> &HashSet<u64> {
        &self.keys
    }

    /// The maintained A-side strata estimator.
    pub fn strata(&self) -> &StrataEstimator {
        &self.strata
    }

    /// The current whole-set hash (attempt-0 digest seed).
    pub fn set_hash(&self) -> u64 {
        self.set_hash.finish()
    }

    /// Insert (`insert`) or remove every key of `keys`, updating every sketch
    /// in `O(k)` per bank and key — the one mutation path: bulk load, batched
    /// mutations, WAL replay and snapshot load all come through here. Keys
    /// that do not change the set (a present insert, an absent remove) touch
    /// nothing, so the maintained state always equals a fresh build. Returns
    /// how many keys changed the set.
    pub fn apply_all(&mut self, keys: impl IntoIterator<Item = u64>, insert: bool) -> usize {
        let changed: Vec<u64> = keys
            .into_iter()
            .filter(|&key| if insert { self.keys.insert(key) } else { self.keys.remove(&key) })
            .collect();
        for bank in &mut self.banks {
            if insert {
                bank.insert_u64s(changed.iter().copied());
            } else {
                bank.delete_u64s(changed.iter().copied());
            }
        }
        for &key in &changed {
            if insert {
                self.strata.update(key, Side::A);
                self.set_hash.insert(key);
            } else {
                self.strata.remove(key, Side::A);
                self.set_hash.remove(key);
            }
        }
        changed.len()
    }

    /// Serve the digest for difference bound `d` from the maintained banks:
    /// `O(d)` (one bank clone), no rebuild. Returns the effective bound (the
    /// rung) alongside; `None` if `d` exceeds the ladder.
    pub fn digest(&self, d: usize) -> Option<(usize, SetDigest)> {
        let rung = self.params.rung_for(d)?;
        let idx = self.params.ladder.iter().position(|&r| r == rung).expect("rung in ladder");
        let digest = SetDigest {
            iblt: self.banks[idx].clone(),
            set_hash: self.set_hash.finish(),
            cardinality: self.keys.len() as u64,
        };
        Some((rung, digest))
    }

    /// Build the digest for retry `attempt` (≥ 1) from scratch under that
    /// attempt's fresh hash functions — the rare amplification path; counted
    /// by [`recon_set::full_digest_builds`].
    pub fn rebuild_digest(&self, d: usize, attempt: u64) -> SetDigest {
        iblt_known_protocol(self.params.seed, attempt).digest(&self.keys, d)
    }

    /// Estimate the difference against a client's B-side estimator and pick
    /// the effective bound: the smallest rung covering twice the estimate
    /// (the same headroom as [`recon_set::session::unknown_alice`]), falling
    /// back to the largest rung when the estimate exceeds the ladder.
    pub fn estimate_bound(&self, client: &StrataEstimator) -> Result<(usize, usize), ReconError> {
        let estimate = self.strata.merge(client)?.estimate();
        let bound = (estimate * 2).max(8);
        let rung =
            self.params.rung_for(bound).unwrap_or(*self.params.ladder.last().expect("non-empty"));
        Ok((estimate, rung))
    }

    /// Serialize the replica's durable state: the version byte, the
    /// parameters and the keys in strictly ascending order. Every sketch is a
    /// sum of per-key updates, so none is written; loading rebuilds them.
    pub fn encode_snapshot(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.push(SNAPSHOT_VERSION);
        self.params.encode(&mut buf);
        let mut keys: Vec<u64> = self.keys.iter().copied().collect();
        keys.sort_unstable();
        write_uvarint(&mut buf, keys.len() as u64);
        for key in keys {
            buf.extend_from_slice(&key.to_le_bytes());
        }
        buf
    }

    /// Load a snapshot produced by [`Replica::encode_snapshot`]: parse the
    /// parameters and the key list, then rebuild every sketch through
    /// [`Replica::apply_all`] in `O(n)`. Keys out of strictly ascending order
    /// (a duplicate included), an unknown version and trailing bytes are
    /// [`ReconError::InvalidInput`]; a rung no table can be allocated for is
    /// [`ReconError::ResourceExhausted`].
    pub fn decode_snapshot(bytes: &[u8]) -> Result<Self, ReconError> {
        let mut buf = bytes;
        let version = u8::decode(&mut buf).map_err(ReconError::Wire)?;
        if version != SNAPSHOT_VERSION {
            return Err(ReconError::InvalidInput(format!("unknown snapshot version {version}")));
        }
        let params = ReplicaParams::decode(&mut buf).map_err(ReconError::Wire)?;
        // The count comes straight from disk: eight bytes a key must follow.
        let n = Claimed::decode(&mut buf).map_err(ReconError::Wire)?;
        let n = n.items_in(buf, 8).map_err(|_| {
            ReconError::InvalidInput("snapshot claims more keys than its bytes hold".into())
        })?;
        let mut keys = Vec::with_capacity(n);
        for _ in 0..n {
            keys.push(u64::decode(&mut buf).map_err(ReconError::Wire)?);
        }
        if !buf.is_empty() {
            return Err(ReconError::InvalidInput("trailing bytes in snapshot".into()));
        }
        if !keys.windows(2).all(|w| w[0] < w[1]) {
            return Err(ReconError::InvalidInput("snapshot keys not strictly ascending".into()));
        }
        let mut replica = Self::new(params)?;
        replica.apply_all(keys, true);
        Ok(replica)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_base::rng::Xoshiro256;

    fn params() -> ReplicaParams {
        ReplicaParams { seed: 0xC0FFEE, ladder: vec![8, 32, 128], max_attempts: 4 }
    }

    fn churned_replica(n: usize, seed: u64) -> Replica {
        let mut replica = Replica::new(params()).unwrap();
        let mut rng = Xoshiro256::new(seed);
        let mut live: Vec<u64> = Vec::new();
        for i in 0..n {
            let key = rng.next_below(1 << 48);
            if replica.apply_all([key], true) == 1 {
                live.push(key);
            }
            if i % 4 == 3 && !live.is_empty() {
                let victim = live.remove((rng.next_u64() as usize) % live.len());
                assert_eq!(replica.apply_all([victim], false), 1);
            }
        }
        replica
    }

    #[test]
    fn params_validation() {
        assert!(params().validate().is_ok());
        for bad in [
            ReplicaParams { seed: 1, ladder: vec![], max_attempts: 4 },
            ReplicaParams { seed: 1, ladder: vec![0, 4], max_attempts: 4 },
            ReplicaParams { seed: 1, ladder: vec![8, 8], max_attempts: 4 },
            ReplicaParams { seed: 1, ladder: vec![32, 8], max_attempts: 4 },
            ReplicaParams { seed: 1, ladder: vec![8], max_attempts: 0 },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
            assert!(ReplicaParams::from_bytes(&bad.to_bytes()).is_err(), "{bad:?}");
        }
        let good = params();
        assert_eq!(ReplicaParams::from_bytes(&good.to_bytes()).unwrap(), good);
    }

    #[test]
    fn cached_digest_is_byte_identical_to_full_build() {
        // The core invariant of the whole crate: after arbitrary churn, the
        // maintained bank serves exactly the bytes IbltSetProtocol::digest
        // would build from scratch — at every rung.
        let replica = churned_replica(500, 3);
        let protocol = iblt_known_protocol(replica.params().seed, 0);
        for &rung in &replica.params().ladder.clone() {
            let (d_eff, cached) = replica.digest(rung).unwrap();
            assert_eq!(d_eff, rung);
            let fresh = protocol.digest(replica.keys(), rung);
            assert_eq!(cached.to_bytes(), fresh.to_bytes(), "rung {rung}");
        }
        // Requests between rungs round up.
        let (d_eff, _) = replica.digest(9).unwrap();
        assert_eq!(d_eff, 32);
        assert!(replica.digest(1000).is_none());
    }

    #[test]
    fn rebuild_digest_matches_session_retry_protocol() {
        let replica = churned_replica(200, 5);
        let fresh = iblt_known_protocol(replica.params().seed, 2).digest(replica.keys(), 32);
        assert_eq!(replica.rebuild_digest(32, 2).to_bytes(), fresh.to_bytes());
    }

    #[test]
    fn maintained_strata_matches_fresh_build() {
        let replica = churned_replica(400, 7);
        let mut fresh = StrataEstimator::new(&replica.params().strata_config());
        for &key in replica.keys() {
            fresh.update(key, Side::A);
        }
        assert_eq!(replica.strata(), &fresh);
    }

    #[test]
    fn duplicate_insert_and_missing_remove_are_no_ops() {
        let mut replica = Replica::new(params()).unwrap();
        assert_eq!(replica.apply_all([5], true), 1);
        let before = replica.clone();
        assert_eq!(replica.apply_all([5], true), 0);
        assert_eq!(replica.apply_all([99], false), 0);
        assert_eq!(replica, before);
        assert_eq!(replica.apply_all([5], false), 1);
        assert_eq!(replica, Replica::new(params()).unwrap());
    }

    #[test]
    fn snapshot_roundtrips_exactly() {
        let replica = churned_replica(300, 11);
        let bytes = replica.encode_snapshot();
        let restored = Replica::decode_snapshot(&bytes).unwrap();
        assert_eq!(restored, replica);
        // And keeps serving identical digests.
        let (_, a) = replica.digest(8).unwrap();
        let (_, b) = restored.digest(8).unwrap();
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn snapshot_rejects_garbage_and_trailing_bytes() {
        let replica = churned_replica(20, 13);
        let mut bytes = replica.encode_snapshot();
        assert!(Replica::decode_snapshot(&bytes[..bytes.len() / 2]).is_err());
        bytes.push(0);
        assert!(Replica::decode_snapshot(&bytes).is_err());
        assert!(Replica::decode_snapshot(&[9, 9, 9]).is_err());
    }

    #[test]
    fn snapshot_rejects_a_key_count_the_bytes_cannot_hold() {
        let replica = churned_replica(20, 13);
        let bytes = replica.encode_snapshot();
        let mut header = vec![SNAPSHOT_VERSION];
        replica.params.encode(&mut header);
        assert!(bytes.starts_with(&header));
        let mut count = Vec::new();
        write_uvarint(&mut count, replica.keys.len() as u64);
        let keys_at = header.len() + count.len();

        // An otherwise valid snapshot claiming 2^60 keys: an error, not an
        // attempt to allocate for them.
        let mut huge = header.clone();
        write_uvarint(&mut huge, 1 << 60);
        huge.extend_from_slice(&bytes[keys_at..]);
        assert!(matches!(Replica::decode_snapshot(&huge), Err(ReconError::InvalidInput(_))));

        // The file ends in the middle of the key list.
        let cut = keys_at + 8 * (replica.keys.len() / 2) + 3;
        assert!(Replica::decode_snapshot(&bytes[..cut]).is_err());
    }

    #[test]
    fn estimate_bound_picks_a_covering_rung() {
        let mut replica = Replica::new(params()).unwrap();
        let mut client = StrataEstimator::new(&replica.params().strata_config());
        replica.apply_all(0..2000u64, true);
        for x in 0..2000u64 {
            client.update(x, Side::B);
        }
        // 10 extra keys on the replica side only.
        replica.apply_all(5000..5010u64, true);
        let (estimate, rung) = replica.estimate_bound(&client).unwrap();
        assert!((3..=30).contains(&estimate), "estimate {estimate}");
        assert!(replica.params().ladder.contains(&rung));
        assert!(rung >= (estimate * 2).clamp(8, 128) || rung == 128);
    }
}
