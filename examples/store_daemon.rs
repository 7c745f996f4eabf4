//! The persistent sketch store as a long-lived service: a [`StoreDaemon`]
//! serving reconciliation from **cached, incrementally maintained** IBLT banks
//! over the reactor runtime, with durable snapshots + WAL underneath.
//!
//! Run with: `cargo run -p recon-examples --release --example store_daemon`
//!
//! The walk-through:
//!
//! 1. start a daemon over a [`DirBackend`] directory and open two replicas;
//! 2. churn them over the wire — inserts, deletes, a mid-stream snapshot —
//!    while the daemon keeps every ladder rung's sketch up to date in `O(k)`
//!    per mutation, never rebuilding from the key set;
//! 3. reconcile a drifted client set against the cached sketches and verify
//!    the recovered set *and* the measured [`CommStats`] are byte-identical
//!    to a cold one-shot session over the same data;
//! 4. restart the daemon from disk (snapshot + WAL replay) and reconcile
//!    again — persistence makes the cached-sketch service durable.
//!
//! [`DirBackend`]: recon_store::DirBackend
//! [`CommStats`]: recon_base::CommStats

use recon_protocol::SessionBuilder;
use recon_set::full_digest_builds;
use recon_set::session::{iblt_known_alice, iblt_known_bob};
use recon_store::{DirBackend, SketchStore, StoreClient, StoreConfig, StoreDaemon};
use std::collections::HashSet;

const WORKERS: usize = 2;

fn open_store(dir: &std::path::Path) -> SketchStore<DirBackend> {
    let config = StoreConfig::default().with_seed(0x5709_DAE0);
    SketchStore::open(DirBackend::open(dir).expect("open dir"), config).expect("open store")
}

fn main() {
    let dir = std::env::temp_dir().join(format!("recon-store-daemon-ex-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ── 1. daemon + two replicas ────────────────────────────────────────────
    let daemon = StoreDaemon::bind("127.0.0.1:0", open_store(&dir), WORKERS).expect("bind");
    let addr = daemon.local_addr();
    println!("daemon listening on {addr} ({WORKERS} workers, dir backend at {})", dir.display());

    let mut client = StoreClient::connect(addr).expect("connect");
    let params = client.open("inventory").expect("open inventory");
    client.open("telemetry").expect("open telemetry");
    println!(
        "replica \"inventory\": seed {:#x}, ladder {:?}, {} attempts",
        params.seed, params.ladder, params.max_attempts
    );

    // ── 2. churn over the wire ──────────────────────────────────────────────
    let keys: Vec<u64> = (0..4000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    for chunk in keys.chunks(1000) {
        client.insert("inventory", chunk).expect("insert");
    }
    let snap_bytes = client.snapshot("inventory").expect("snapshot");
    let doomed: Vec<u64> = keys.iter().copied().take(250).collect();
    let (applied, total) = client.delete("inventory", &doomed).expect("delete");
    client.insert("telemetry", &[7, 8, 9]).expect("insert telemetry");
    let stat = client.stat("inventory").expect("stat");
    println!(
        "churn: 4000 inserts, snapshot ({snap_bytes} B), {applied} deletes → {total} keys, \
         {} WAL records pending",
        stat.wal_records
    );
    let replica_keys: HashSet<u64> = keys[250..].iter().copied().collect();

    // ── 3. reconcile from cached sketches, verify against a cold session ────
    let mut local: HashSet<u64> = replica_keys.iter().copied().skip(9).collect();
    local.extend((0..5u64).map(|extra| 0xB0B_0000 + extra));

    let builds_before = full_digest_builds();
    let report = client.reconcile("inventory", &local, Some(14)).expect("reconcile");
    assert_eq!(report.recovered, replica_keys, "daemon-served recovery");
    assert_eq!(full_digest_builds(), builds_before, "served from the cache, no rebuild");

    let config = params.session_config();
    let cold = SessionBuilder::new(params.seed)
        .amplification(config.amplification)
        .run(
            iblt_known_alice(&replica_keys, report.d as usize, &config).expect("alice"),
            iblt_known_bob(&local, &config),
        )
        .expect("cold session");
    assert_eq!(cold.recovered, replica_keys);
    assert_eq!(report.stats, cold.stats, "daemon CommStats must equal the cold session's");
    println!(
        "known-d reconcile: bound 14 → rung {}, {} B A→B / {} B B→A — byte-identical to a \
         cold session, zero digest rebuilds",
        report.d, report.stats.bytes_alice_to_bob, report.stats.bytes_bob_to_alice
    );

    // Unknown d: the daemon merges the client's strata estimator with its own.
    let report = client.reconcile("inventory", &local, None).expect("estimated reconcile");
    assert_eq!(report.recovered, replica_keys);
    println!(
        "unknown-d reconcile: strata estimate {} → rung {}, {} B A→B",
        report.estimated.expect("estimated"),
        report.d,
        report.stats.bytes_alice_to_bob
    );

    client.close().expect("close client");
    let (stats, _) = daemon.shutdown();
    println!("daemon retired: {} connection(s) served cleanly", stats.served());

    // ── 4. restart from disk: snapshot + WAL replay ─────────────────────────
    let daemon = StoreDaemon::bind("127.0.0.1:0", open_store(&dir), WORKERS).expect("rebind");
    let mut client = StoreClient::connect(daemon.local_addr()).expect("reconnect");
    let stat = client.stat("inventory").expect("stat after restart");
    assert_eq!(stat.cardinality, replica_keys.len() as u64);
    let report = client.reconcile("inventory", &local, Some(14)).expect("reconcile after restart");
    assert_eq!(report.recovered, replica_keys, "recovered state serves identically");
    println!(
        "after restart: {} keys recovered from snapshot + {} WAL records, reconcile still \
         {} B A→B",
        stat.cardinality, stat.wal_records, report.stats.bytes_alice_to_bob
    );

    client.close().expect("close client");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!("store daemon example finished OK");
}
