//! Endpoint multiplexing: N concurrent sessions over ONE framed link vs one
//! link (and its framing) per session vs the unframed `SessionBuilder::run` path.
//!
//! The wall-time comparison shows what the multiplexed `Endpoint` costs over
//! the in-memory driver; the printed byte accounting records the baseline the
//! ROADMAP's connection-reuse item is about — how many framed bytes per
//! session a shared link saves versus a link per session.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recon_bench::set_pair;
use recon_estimator::L0Config;
use recon_protocol::{
    drive_pair, Amplification, Endpoint, MemoryTransport, Role, SessionBuilder, SessionConfig,
    SessionId, Transport,
};
use recon_set::session as set_session;
use std::collections::HashSet;
use std::hint::black_box;

const SESSIONS: usize = 8;
const N: usize = 10_000;
const D: usize = 32;
const BOUND: usize = D + 4;

fn workloads() -> Vec<(HashSet<u64>, HashSet<u64>)> {
    (0..SESSIONS).map(|i| set_pair(N, D, 0xB00 + i as u64)).collect()
}

fn config(i: usize) -> SessionConfig {
    SessionConfig {
        seed: 0x77AA ^ i as u64,
        amplification: Amplification::replicate(3),
        estimator: L0Config::default(),
    }
}

/// All sessions through one endpoint pair on one framed transport. Returns the
/// total framed bytes that crossed the shared link.
fn run_multiplexed(pairs: &[(HashSet<u64>, HashSet<u64>)]) -> u64 {
    let (transport_a, transport_b) = MemoryTransport::pair();
    let mut alice_end = Endpoint::new(transport_a);
    let mut bob_end = Endpoint::new(transport_b);
    for (i, (alice, bob)) in pairs.iter().enumerate() {
        let cfg = config(i);
        alice_end
            .register(
                i as SessionId,
                Role::Alice,
                set_session::iblt_known_alice(alice, BOUND, &cfg).unwrap(),
            )
            .unwrap();
        bob_end
            .register(i as SessionId, Role::Bob, set_session::iblt_known_bob(bob, &cfg))
            .unwrap();
    }
    drive_pair(&mut alice_end, &mut bob_end).unwrap();
    let mut framed = bob_end.transport().bytes_framed_in() + bob_end.transport().bytes_framed_out();
    for i in 0..pairs.len() as SessionId {
        black_box(bob_end.take_outcome::<HashSet<u64>>(i).unwrap().unwrap());
        alice_end.close(i);
    }
    // Count the retirement Fins too: they travel on the same link.
    framed =
        framed.max(bob_end.transport().bytes_framed_in() + bob_end.transport().bytes_framed_out());
    framed
}

/// One framed transport (and endpoint pair) per session — connection-per-
/// reconciliation, the shape this PR's API exists to replace. Returns total
/// framed bytes across all links.
fn run_one_link_per_session(pairs: &[(HashSet<u64>, HashSet<u64>)]) -> u64 {
    let mut framed = 0;
    for (i, (alice, bob)) in pairs.iter().enumerate() {
        let cfg = config(i);
        let (transport_a, transport_b) = MemoryTransport::pair();
        let mut alice_end = Endpoint::new(transport_a);
        let mut bob_end = Endpoint::new(transport_b);
        alice_end
            .register(0, Role::Alice, set_session::iblt_known_alice(alice, BOUND, &cfg).unwrap())
            .unwrap();
        bob_end.register(0, Role::Bob, set_session::iblt_known_bob(bob, &cfg)).unwrap();
        drive_pair(&mut alice_end, &mut bob_end).unwrap();
        black_box(bob_end.take_outcome::<HashSet<u64>>(0).unwrap().unwrap());
        alice_end.close(0);
        framed += bob_end.transport().bytes_framed_in() + bob_end.transport().bytes_framed_out();
    }
    framed
}

/// The unframed path: `SessionBuilder::run`, one transcript per session.
fn run_unframed(pairs: &[(HashSet<u64>, HashSet<u64>)]) -> usize {
    let mut metered = 0;
    for (i, (alice, bob)) in pairs.iter().enumerate() {
        let cfg = config(i);
        let outcome = SessionBuilder::new(cfg.seed)
            .amplification(cfg.amplification)
            .run(
                set_session::iblt_known_alice(alice, BOUND, &cfg).unwrap(),
                set_session::iblt_known_bob(bob, &cfg),
            )
            .unwrap();
        metered += outcome.stats.total_bytes();
        black_box(outcome);
    }
    metered
}

fn bench_multiplexing(c: &mut Criterion) {
    let pairs = workloads();

    // Record the byte baselines once, outside the timing loops.
    let metered = run_unframed(&pairs);
    let per_link = run_one_link_per_session(&pairs);
    let multiplexed = run_multiplexed(&pairs);
    println!(
        "endpoint_multiplex baseline: {SESSIONS} sessions x {N} keys (d={D}); \
         {metered} metered protocol bytes; {per_link} framed bytes over {SESSIONS} links vs \
         {multiplexed} framed bytes over 1 link (framing overhead {} resp. {} bytes; \
         the shared link replaces {SESSIONS} connections with 1)",
        per_link as i64 - metered as i64,
        multiplexed as i64 - metered as i64,
    );

    let mut group = c.benchmark_group("endpoint_multiplex");
    group.bench_function(BenchmarkId::new("unframed_sequential", SESSIONS), |b| {
        b.iter(|| black_box(run_unframed(&pairs)));
    });
    group.bench_function(BenchmarkId::new("one_framed_link_per_session", SESSIONS), |b| {
        b.iter(|| black_box(run_one_link_per_session(&pairs)));
    });
    group.bench_function(BenchmarkId::new("multiplexed_one_link", SESSIONS), |b| {
        b.iter(|| black_box(run_multiplexed(&pairs)));
    });
    group.finish();
}

criterion_group!(benches, bench_multiplexing);
criterion_main!(benches);
