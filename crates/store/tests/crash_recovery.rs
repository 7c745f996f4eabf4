//! Crash-recovery property: truncate the WAL at an **arbitrary byte boundary**
//! (a torn append), reopen the store, and the recovered replica must be
//! bit-identical to a store that was rebuilt from scratch over the surviving
//! prefix of mutations — snapshots, digests at every rung, statistics,
//! everything.

use proptest::prelude::*;
use recon_base::wire::Encode;
use recon_store::wal;
use recon_store::{MemoryBackend, SketchStore, StorageBackend, StoreConfig};

fn config() -> StoreConfig {
    StoreConfig::default().with_seed(0xC4A5).with_ladder(vec![8, 32])
}

/// `(insert?, key)` scripts over a small key pool so deletes actually hit.
fn script() -> impl Strategy<Value = Vec<(bool, u64)>> {
    proptest::collection::vec((any::<bool>(), 0u64..48), 0..60)
}

fn apply(store: &mut SketchStore<MemoryBackend>, ops: &[(bool, u64)]) {
    for &(insert, key) in ops {
        if insert {
            store.insert("r", &[key]).unwrap();
        } else {
            store.delete("r", &[key]).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn torn_wal_recovers_to_the_surviving_prefix(
        before_snap in script(),
        after_snap in script(),
        cut_pick in any::<u64>(),
    ) {
        // Run the full script; everything after the snapshot lives in the WAL.
        let mut store = SketchStore::open(MemoryBackend::new(), config()).unwrap();
        store.open_replica("r").unwrap();
        apply(&mut store, &before_snap);
        store.snapshot("r").unwrap();
        apply(&mut store, &after_snap);
        let wal_seed = store.params("r").unwrap().wal_seed();
        let mut backend = store.into_backend();

        // Crash: the tail of the WAL is torn at an arbitrary byte.
        let log = backend.read("r.wal").unwrap().unwrap_or_default();
        let cut = (cut_pick % (log.len() as u64 + 1)) as usize;
        let torn = &log[..cut];
        backend.write_atomic("r.wal", torn).unwrap();

        // Recovery replays exactly the whole records before the cut.
        let surviving = wal::scan(torn, wal_seed);
        prop_assert_eq!(surviving.ops.len(), cut / wal::RECORD_BYTES);
        let mut recovered = SketchStore::open(backend, config()).unwrap();
        prop_assert_eq!(recovered.stat("r").unwrap().wal_records, surviving.ops.len() as u64);

        // Reference: a fresh store over snapshot-prefix + surviving mutations.
        let mut reference = SketchStore::open(MemoryBackend::new(), config()).unwrap();
        reference.open_replica("r").unwrap();
        apply(&mut reference, &before_snap);
        reference.snapshot("r").unwrap();
        for op in &surviving.ops {
            match op {
                wal::WalOp::Insert(k) => reference.insert("r", &[*k]).unwrap(),
                wal::WalOp::Delete(k) => reference.delete("r", &[*k]).unwrap(),
            };
        }

        prop_assert_eq!(recovered.keys("r").unwrap(), reference.keys("r").unwrap());
        prop_assert_eq!(recovered.stat("r").unwrap(), reference.stat("r").unwrap());

        // Bit-identical sketches: both stores serve the same digest bytes
        // (bank, set hash, cardinality) at every rung of the ladder.
        for &rung in &config().ladder {
            prop_assert_eq!(
                recovered.digest("r", rung).unwrap().1.to_bytes(),
                reference.digest("r", rung).unwrap().1.to_bytes()
            );
        }

        // Bit-identical durable state: snapshotting both stores must produce
        // the same bytes (the parameters and the sorted keys).
        recovered.snapshot("r").unwrap();
        reference.snapshot("r").unwrap();
        let recovered_backend = recovered.into_backend();
        let reference_backend = reference.into_backend();
        prop_assert_eq!(
            recovered_backend.read("r.snap").unwrap().unwrap(),
            reference_backend.read("r.snap").unwrap().unwrap()
        );

        // And the store keeps working after recovery: the truncated WAL was
        // rewritten to the valid prefix, so further appends extend cleanly.
        let mut store = SketchStore::open(recovered_backend, config()).unwrap();
        store.insert("r", &[1000, 1001]).unwrap();
        let reopened = SketchStore::open(store.into_backend(), config()).unwrap();
        prop_assert!(reopened.keys("r").unwrap().contains(&1000));
        prop_assert!(reopened.keys("r").unwrap().contains(&1001));
    }
}
