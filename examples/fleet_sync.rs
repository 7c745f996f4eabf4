//! N-party reconciliation with `recon-fleet`: a star hub serving dozens of
//! spokes from ONE cached sketch, and a gossip fleet converging pairwise in
//! O(log n) rounds — both provably converged (equal incremental set hashes
//! everywhere) with wire accounting summed from ordinary per-session
//! [`CommStats`].
//!
//! Run with: `cargo run -p recon-examples --release --example fleet_sync`
//! (optionally `-- star`, `-- gossip`, or `-- gossip-tcp` to run one
//! topology).
//!
//! [`CommStats`]: recon_base::CommStats

use recon_fleet::{
    FleetRunner, FleetStats, GossipConfig, GossipRunner, GossipTransport, StarConfig, StarFleet,
};
use recon_set::full_digest_builds;
use recon_store::{MemoryBackend, SketchStore, StoreConfig};
use std::collections::HashSet;

const SPOKES: u64 = 48;
const GOSSIPERS: u64 = 32;

/// Spread keys so the strata estimators see uniform bits.
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn print_stats(what: &str, stats: &FleetStats) {
    println!(
        "{what}: {} rounds, {} sessions, {} B total wire, heaviest replica {} B",
        stats.rounds,
        stats.sessions,
        stats.total_bytes,
        stats.max_replica_bytes()
    );
    for round in &stats.per_round {
        println!("  round {}: {} sessions, {} B", round.round, round.sessions, round.bytes);
    }
}

/// Star: a `StoreDaemon` hub reconciles every spoke against a master replica
/// over TCP, each session served from the hub's cached rung bank.
fn star() {
    println!("── star: {SPOKES} spokes against one StoreDaemon hub ──");
    let base: Vec<u64> = (0..1500).map(key).collect();
    let spoke_sets: Vec<HashSet<u64>> = (0..SPOKES)
        .map(|k| {
            let mut set: HashSet<u64> = base.iter().copied().skip((k % 5) as usize + 1).collect();
            set.insert(key(1_000_000 + k)); // one key only this spoke holds
            set
        })
        .collect();
    let mut expected: HashSet<u64> = base.iter().copied().collect();
    for set in &spoke_sets {
        expected.extend(set);
    }

    let store = SketchStore::open(
        MemoryBackend::new(),
        StoreConfig::default().with_seed(0xF1EE7).with_ladder(vec![64, 256, 1024]),
    )
    .expect("open store");
    let config = StarConfig {
        d_bound: Some(200), // every spoke's diff is known-small; skip estimation
        spoke_threads: 4,
        ..StarConfig::default()
    };
    let mut fleet = StarFleet::launch(store, config, base.iter().copied(), spoke_sets)
        .expect("launch star fleet");
    println!("hub daemon on {}", fleet.local_addr());

    let builds_before = full_digest_builds();
    let stats = fleet.run_to_convergence(4).expect("star convergence");
    println!(
        "hub served {} sessions with {} digest (re)builds — O(1) in the spoke count",
        stats.sessions,
        full_digest_builds() - builds_before
    );
    print_stats("star", &stats);

    let (hub_hash, cardinality) = fleet.hub_state().expect("hub state");
    assert_eq!(cardinality as usize, expected.len());
    for spoke in 0..SPOKES as usize {
        assert_eq!(fleet.spoke_hash(spoke), hub_hash);
    }
    assert_eq!(fleet.spoke_keys(7), &expected);
    println!("converged: every spoke's set hash equals the hub's ({hub_hash:#018x})");

    let (_, server, store) = fleet.shutdown();
    assert_eq!(server.failed, 0);
    let store = store.expect("store released");
    assert_eq!(store.keys("master").expect("master").len(), expected.len());
    println!("hub retired: {} connections served, 0 failed\n", server.served());
}

/// Gossip: seeded random pairwise sessions, no coordinator, until every
/// member's set hash agrees.
fn gossip(transport: GossipTransport) {
    let wire = match transport {
        GossipTransport::Memory => "in-process memory pipes",
        GossipTransport::Tcp => "real TCP sockets",
    };
    println!("── gossip: {GOSSIPERS} replicas over {wire} ──");
    let shared: Vec<u64> = (0..400).map(key).collect();
    let sets: Vec<HashSet<u64>> = (0..GOSSIPERS)
        .map(|m| {
            let mut set: HashSet<u64> = shared.iter().copied().collect();
            set.insert(key(2_000_000 + 2 * m));
            set.insert(key(2_000_001 + 2 * m));
            set
        })
        .collect();
    let mut expected: HashSet<u64> = shared.iter().copied().collect();
    for set in &sets {
        expected.extend(set);
    }

    let config = GossipConfig {
        seed: 0x6055,
        ladder: vec![16, 64, 256],
        transport,
        ..GossipConfig::default()
    };
    let mut fleet = GossipRunner::new(config, sets).expect("build gossip fleet");
    let stats = fleet.run_to_convergence(12).expect("gossip convergence");
    print_stats("gossip", &stats);

    for m in 0..GOSSIPERS as usize {
        assert_eq!(fleet.set_hash(m), fleet.set_hash(0));
    }
    assert_eq!(fleet.keys(11), expected);
    println!(
        "converged: {} replicas agree on {} keys after {} rounds (log2({GOSSIPERS}) = {})\n",
        GOSSIPERS,
        expected.len(),
        stats.rounds,
        (GOSSIPERS as f64).log2() as usize
    );
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match mode.as_str() {
        "star" => star(),
        "gossip" => gossip(GossipTransport::Memory),
        "gossip-tcp" => gossip(GossipTransport::Tcp),
        "all" => {
            star();
            gossip(GossipTransport::Memory);
            gossip(GossipTransport::Tcp);
        }
        other => {
            eprintln!("unknown mode {other:?}: use star | gossip | gossip-tcp | all");
            std::process::exit(2);
        }
    }
    println!("fleet sync example finished OK");
}
