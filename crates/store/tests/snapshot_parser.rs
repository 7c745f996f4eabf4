//! The snapshot is a disk parser, so it fails closed: a snapshot holds the
//! version byte, the replica parameters and the keys in strictly ascending
//! order, and anything else is refused with an error, never a panic.

use recon_base::wire::{write_uvarint, Encode};
use recon_base::ReconError;
use recon_store::{
    MemoryBackend, Replica, ReplicaParams, SketchStore, StorageBackend, StoreConfig,
};

/// The snapshot format this file pins.
const VERSION: u8 = 2;

fn params() -> ReplicaParams {
    ReplicaParams { seed: 0xC0FFEE, ladder: vec![8, 32, 128], max_attempts: 4 }
}

/// A snapshot written field by field: version, parameters, key list.
fn snapshot_of(version: u8, params: &ReplicaParams, keys: &[u64]) -> Vec<u8> {
    let mut bytes = vec![version];
    params.encode(&mut bytes);
    write_uvarint(&mut bytes, keys.len() as u64);
    for key in keys {
        bytes.extend_from_slice(&key.to_le_bytes());
    }
    bytes
}

#[test]
fn snapshot_is_the_sorted_key_set_alone() {
    let mut replica = Replica::new(params()).unwrap();
    replica.apply_all([90, 3, 7_000_000, 41], true);
    replica.apply_all([41], false);
    assert_eq!(replica.encode_snapshot(), snapshot_of(VERSION, &params(), &[3, 90, 7_000_000]));
    let restored = Replica::decode_snapshot(&replica.encode_snapshot()).unwrap();
    assert_eq!(restored, replica);
}

#[test]
fn keys_out_of_order_and_duplicates_are_refused() {
    for keys in [[5u64, 5], [7, 5]] {
        let bytes = snapshot_of(VERSION, &params(), &keys);
        assert!(
            matches!(Replica::decode_snapshot(&bytes), Err(ReconError::InvalidInput(_))),
            "{keys:?}"
        );
    }
    let ascending = snapshot_of(VERSION, &params(), &[5, 7]);
    assert_eq!(Replica::decode_snapshot(&ascending).unwrap().len(), 2);
}

#[test]
fn a_version_1_snapshot_is_an_unknown_version() {
    let bytes = snapshot_of(1, &params(), &[1, 2, 3]);
    let err = Replica::decode_snapshot(&bytes).unwrap_err();
    assert!(
        matches!(&err, ReconError::InvalidInput(msg) if msg.contains("unknown snapshot version 1")),
        "{err:?}"
    );
}

#[test]
fn a_rung_no_table_fits_fails_open_without_a_panic() {
    let huge = ReplicaParams { seed: 1, ladder: vec![8, 1 << 62], max_attempts: 4 };
    let mut backend = MemoryBackend::new();
    backend.write_atomic("r.snap", &snapshot_of(VERSION, &huge, &[1, 2, 3])).unwrap();
    assert!(matches!(
        SketchStore::open(backend, StoreConfig::default()),
        Err(ReconError::ResourceExhausted { .. })
    ));
}
