//! The [`SketchStore`]: named [`Replica`]s over a [`StorageBackend`], with
//! durable snapshots and write-ahead logging.
//!
//! On-backend layout, per replica `name`:
//!
//! * `name.snap` — the replica's parameters and key set
//!   ([`Replica::encode_snapshot`], written atomically; its sketches are
//!   rebuilt on load),
//! * `name.wal` — fixed-width checksummed mutation records appended since the
//!   last snapshot (see [`crate::wal`]).
//!
//! Mutations are logged before they are acknowledged; [`SketchStore::open`]
//! loads every snapshot and replays its log on top, dropping any torn tail a
//! crash left behind (and truncating the file to the surviving prefix so later
//! appends extend a valid log). Because replica mutations are exactly
//! reversible sketch updates, the recovered state is bit-identical to a
//! from-scratch rebuild over the surviving mutations — the crash-recovery
//! proptest pins this at every truncation boundary.

use recon_base::rng::split_seed;
use recon_base::ReconError;
use recon_estimator::StrataEstimator;
use recon_set::SetDigest;
use std::collections::{BTreeMap, HashSet};

use crate::backend::StorageBackend;
use crate::replica::{Replica, ReplicaParams};
use crate::wal::{self, WalOp};

/// Store-wide configuration: the master seed replica seeds are derived from
/// and the sketch shape given to newly created replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Master seed; each replica's seed is split from it by name.
    pub seed: u64,
    /// Ladder of difference-bound rungs for new replicas.
    pub ladder: Vec<usize>,
    /// Replication budget for new replicas' sessions.
    pub max_attempts: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self { seed: 0x5709E, ladder: vec![16, 64, 256, 1024], max_attempts: 4 }
    }
}

impl StoreConfig {
    /// Replace the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the rung ladder.
    pub fn with_ladder(mut self, ladder: Vec<usize>) -> Self {
        self.ladder = ladder;
        self
    }

    fn params_for(&self, name: &str) -> ReplicaParams {
        let name_hash = recon_base::hash::hash_bytes(name.as_bytes(), 0x5709);
        ReplicaParams {
            seed: split_seed(self.seed, name_hash),
            ladder: self.ladder.clone(),
            max_attempts: self.max_attempts,
        }
    }
}

/// A point-in-time summary of one replica, served by the daemon's `Stat` op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStat {
    /// Number of keys.
    pub cardinality: u64,
    /// Current whole-set hash (attempt-0 digest seed).
    pub set_hash: u64,
    /// The replica's rung ladder.
    pub ladder: Vec<usize>,
    /// Mutations logged since the last snapshot.
    pub wal_records: u64,
}

struct Slot {
    replica: Replica,
    wal_records: u64,
}

/// Named replicas over a storage backend. See the module docs.
pub struct SketchStore<B: StorageBackend> {
    backend: B,
    config: StoreConfig,
    replicas: BTreeMap<String, Slot>,
}

fn snap_name(name: &str) -> String {
    format!("{name}.snap")
}

fn wal_name(name: &str) -> String {
    format!("{name}.wal")
}

/// Validate a replica name: backend-safe and free of the `.snap`/`.wal`
/// suffixes the store appends.
fn validate_replica_name(name: &str) -> Result<(), ReconError> {
    crate::backend::validate_name(name)?;
    if name.ends_with(".snap") || name.ends_with(".wal") {
        return Err(ReconError::InvalidInput(format!("reserved replica name {name:?}")));
    }
    Ok(())
}

impl<B: StorageBackend> SketchStore<B> {
    /// Open a store, recovering every replica the backend holds: load each
    /// snapshot (rebuilding its sketches from the keys), replay its WAL on top
    /// (dropping any torn tail), and truncate the log to the surviving prefix.
    pub fn open(backend: B, config: StoreConfig) -> Result<Self, ReconError> {
        let mut store = Self { backend, config, replicas: BTreeMap::new() };
        for blob in store.backend.list()? {
            let Some(name) = blob.strip_suffix(".snap").map(str::to_string) else { continue };
            let bytes = store
                .backend
                .read(&blob)?
                .ok_or_else(|| ReconError::InvalidInput(format!("{blob} vanished")))?;
            let mut replica = Replica::decode_snapshot(&bytes)?;
            let mut wal_records = 0u64;
            if let Some(log) = store.backend.read(&wal_name(&name))? {
                let scanned = wal::scan(&log, replica.params().wal_seed());
                for &op in &scanned.ops {
                    match op {
                        WalOp::Insert(key) => replica.apply_all([key], true),
                        WalOp::Delete(key) => replica.apply_all([key], false),
                    };
                }
                wal_records = scanned.ops.len() as u64;
                if scanned.dropped_bytes > 0 {
                    // Truncate the torn tail so future appends extend a valid log.
                    store.backend.write_atomic(&wal_name(&name), &log[..scanned.valid_bytes()])?;
                }
            }
            store.replicas.insert(name, Slot { replica, wal_records });
        }
        Ok(store)
    }

    /// The store configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    fn slot(&self, name: &str) -> Result<&Slot, ReconError> {
        self.replicas
            .get(name)
            .ok_or_else(|| ReconError::InvalidInput(format!("unknown replica {name:?}")))
    }

    /// Open (creating and durably initializing if absent) the replica `name`,
    /// returning its parameters.
    pub fn open_replica(&mut self, name: &str) -> Result<ReplicaParams, ReconError> {
        validate_replica_name(name)?;
        if let Some(slot) = self.replicas.get(name) {
            return Ok(slot.replica.params().clone());
        }
        let replica = Replica::new(self.config.params_for(name))?;
        self.backend.write_atomic(&snap_name(name), &replica.encode_snapshot())?;
        self.backend.remove(&wal_name(name))?;
        let params = replica.params().clone();
        self.replicas.insert(name.to_string(), Slot { replica, wal_records: 0 });
        Ok(params)
    }

    fn mutate(&mut self, name: &str, keys: &[u64], insert: bool) -> Result<u64, ReconError> {
        let slot = self
            .replicas
            .get_mut(name)
            .ok_or_else(|| ReconError::InvalidInput(format!("unknown replica {name:?}")))?;
        // Log-ahead: collect the records that will apply (no-ops are neither
        // applied nor logged), append them in one write, then mutate. The
        // overlay tracks membership changes earlier in this same batch.
        let wal_seed = slot.replica.params().wal_seed();
        let mut log = Vec::new();
        let mut changing = Vec::new();
        let mut seen = HashSet::new();
        for &key in keys {
            // A key changes the set once per batch: when it is on the other
            // side of the mutation now and no earlier entry of the batch
            // already moved it.
            if slot.replica.keys().contains(&key) != insert && seen.insert(key) {
                let op = if insert { WalOp::Insert(key) } else { WalOp::Delete(key) };
                wal::append_record(&mut log, op, wal_seed);
                changing.push(key);
            }
        }
        if changing.is_empty() {
            return Ok(0);
        }
        self.backend.append(&wal_name(name), &log)?;
        let slot = self.replicas.get_mut(name).expect("checked above");
        let changed = slot.replica.apply_all(changing.iter().copied(), insert);
        debug_assert_eq!(changed, changing.len(), "WAL-logged mutations must change the replica");
        slot.wal_records += changing.len() as u64;
        Ok(changing.len() as u64)
    }

    /// Insert `keys`, returning how many actually changed the set. Applied
    /// mutations are WAL-logged before the sketches are touched.
    pub fn insert(&mut self, name: &str, keys: &[u64]) -> Result<u64, ReconError> {
        self.mutate(name, keys, true)
    }

    /// Delete `keys`, returning how many actually changed the set.
    pub fn delete(&mut self, name: &str, keys: &[u64]) -> Result<u64, ReconError> {
        self.mutate(name, keys, false)
    }

    /// Write a fresh snapshot of `name` and reset its WAL. Returns the
    /// snapshot size in bytes.
    pub fn snapshot(&mut self, name: &str) -> Result<u64, ReconError> {
        let slot = self
            .replicas
            .get_mut(name)
            .ok_or_else(|| ReconError::InvalidInput(format!("unknown replica {name:?}")))?;
        let bytes = slot.replica.encode_snapshot();
        self.backend.write_atomic(&snap_name(name), &bytes)?;
        self.backend.remove(&wal_name(name))?;
        slot.wal_records = 0;
        Ok(bytes.len() as u64)
    }

    /// Summary statistics for `name`.
    pub fn stat(&self, name: &str) -> Result<StoreStat, ReconError> {
        let slot = self.slot(name)?;
        Ok(StoreStat {
            cardinality: slot.replica.len() as u64,
            set_hash: slot.replica.set_hash(),
            ladder: slot.replica.params().ladder.clone(),
            wal_records: slot.wal_records,
        })
    }

    /// The parameters of replica `name`.
    pub fn params(&self, name: &str) -> Result<ReplicaParams, ReconError> {
        Ok(self.slot(name)?.replica.params().clone())
    }

    /// The key set of replica `name` (tests and retry rebuilds).
    pub fn keys(&self, name: &str) -> Result<&std::collections::HashSet<u64>, ReconError> {
        Ok(self.slot(name)?.replica.keys())
    }

    /// Serve the cached digest of `name` for difference bound `d`: `O(d)`,
    /// never a rebuild. Errors if `d` exceeds the replica's ladder.
    pub fn digest(&self, name: &str, d: usize) -> Result<(usize, SetDigest), ReconError> {
        let slot = self.slot(name)?;
        slot.replica.digest(d).ok_or_else(|| ReconError::DifferenceBoundTooSmall {
            bound: *slot.replica.params().ladder.last().expect("non-empty ladder"),
        })
    }

    /// Build a retry digest (attempt ≥ 1) for `name` from scratch.
    pub fn rebuild_digest(
        &self,
        name: &str,
        d: usize,
        attempt: u64,
    ) -> Result<SetDigest, ReconError> {
        Ok(self.slot(name)?.replica.rebuild_digest(d, attempt))
    }

    /// Estimate the difference between `name` and a client's B-side strata
    /// estimator, returning `(estimate, effective bound)`.
    pub fn estimate_bound(
        &self,
        name: &str,
        client: &StrataEstimator,
    ) -> Result<(usize, usize), ReconError> {
        self.slot(name)?.replica.estimate_bound(client)
    }

    /// Consume the store, returning its backend (used by restart tests).
    pub fn into_backend(self) -> B {
        self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use recon_base::wire::Encode;
    use recon_set::session::iblt_known_protocol;

    fn small_config() -> StoreConfig {
        StoreConfig::default().with_seed(77).with_ladder(vec![8, 32])
    }

    #[test]
    fn open_replica_is_idempotent_and_durable() {
        let mut store = SketchStore::open(MemoryBackend::new(), small_config()).unwrap();
        let params = store.open_replica("alpha").unwrap();
        assert_eq!(store.open_replica("alpha").unwrap(), params);

        // A different name gets a different seed from the same master seed.
        let beta = store.open_replica("beta").unwrap();
        assert_ne!(beta.seed, params.seed);

        let reopened = SketchStore::open(store.into_backend(), small_config()).unwrap();
        assert_eq!(reopened.params("alpha").unwrap(), params);
    }

    #[test]
    fn mutations_replay_after_restart() {
        let mut store = SketchStore::open(MemoryBackend::new(), small_config()).unwrap();
        store.open_replica("r").unwrap();
        assert_eq!(store.insert("r", &[1, 2, 3, 2]).unwrap(), 3, "duplicate is a no-op");
        assert_eq!(store.delete("r", &[2, 99]).unwrap(), 1, "missing delete is a no-op");
        assert_eq!(store.stat("r").unwrap().wal_records, 4);
        let digest_before = store.digest("r", 4).unwrap().1.to_bytes();

        let store2 = SketchStore::open(store.into_backend(), small_config()).unwrap();
        assert_eq!(store2.keys("r").unwrap(), &[1u64, 3].into_iter().collect());
        assert_eq!(store2.stat("r").unwrap().wal_records, 4);
        assert_eq!(store2.digest("r", 4).unwrap().1.to_bytes(), digest_before);
    }

    #[test]
    fn snapshot_resets_the_wal() {
        let mut store = SketchStore::open(MemoryBackend::new(), small_config()).unwrap();
        store.open_replica("r").unwrap();
        store.insert("r", &(0..20).collect::<Vec<_>>()).unwrap();
        assert!(store.snapshot("r").unwrap() > 0);
        assert_eq!(store.stat("r").unwrap().wal_records, 0);
        let digest = store.digest("r", 8).unwrap().1.to_bytes();
        let store2 = SketchStore::open(store.into_backend(), small_config()).unwrap();
        assert_eq!(store2.stat("r").unwrap().wal_records, 0);
        assert_eq!(store2.digest("r", 8).unwrap().1.to_bytes(), digest);
    }

    #[test]
    fn unknown_replica_and_bad_names_error() {
        let mut store = SketchStore::open(MemoryBackend::new(), small_config()).unwrap();
        assert!(store.insert("ghost", &[1]).is_err());
        assert!(store.stat("ghost").is_err());
        assert!(store.open_replica("bad/name").is_err());
        assert!(store.open_replica("clash.snap").is_err());
        store.open_replica("r").unwrap();
        assert!(matches!(
            store.digest("r", 10_000),
            Err(ReconError::DifferenceBoundTooSmall { .. })
        ));
    }

    #[test]
    fn digest_cache_tracks_mutations() {
        let mut store = SketchStore::open(MemoryBackend::new(), small_config()).unwrap();
        store.open_replica("r").unwrap();
        store.insert("r", &(0..100).collect::<Vec<_>>()).unwrap();
        store.delete("r", &[5, 10]).unwrap();
        let (d, cached) = store.digest("r", 20).unwrap();
        assert_eq!(d, 32);
        let protocol = iblt_known_protocol(store.params("r").unwrap().seed, 0);
        let fresh = protocol.digest(store.keys("r").unwrap(), 32);
        assert_eq!(cached.to_bytes(), fresh.to_bytes());
    }
}
