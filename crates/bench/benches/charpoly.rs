//! Experiment E-2.3: characteristic-polynomial set reconciliation (Theorem 2.3) —
//! the `O(nd + d^3)` computation cost that motivates IBLTs, swept over `d`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recon_bench::set_pair;
use recon_protocol::{Amplification, Outcome, SessionBuilder};
use recon_set::session::{
    charpoly_known_alice, charpoly_known_bob, iblt_known_alice, iblt_known_bob,
};
use std::collections::HashSet;
use std::hint::black_box;

type Set = HashSet<u64>;

/// Theorem 2.3's exact party pair, run in memory.
fn charpoly(alice: &Set, bob: &Set, d: usize, seed: u64) -> Outcome<Set> {
    let builder = SessionBuilder::new(seed).amplification(Amplification::single());
    let alice = charpoly_known_alice(alice, d, builder.config()).unwrap();
    builder.run(alice, charpoly_known_bob(bob, builder.config())).unwrap()
}

/// Corollary 2.2's party pair under three replicated attempts, run in memory.
fn iblt(alice: &Set, bob: &Set, d: usize, seed: u64) -> Outcome<Set> {
    let builder = SessionBuilder::new(seed).amplification(Amplification::replicate(3));
    let alice = iblt_known_alice(alice, d, builder.config()).unwrap();
    builder.run(alice, iblt_known_bob(bob, builder.config())).unwrap()
}

fn bench_charpoly_vs_d(c: &mut Criterion) {
    let mut group = c.benchmark_group("charpoly_reconciliation_vs_d");
    group.sample_size(10);
    for d in [4usize, 16, 64, 128] {
        let (alice, bob) = set_pair(5_000, d, 100 + d as u64);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, &d| {
            b.iter(|| black_box(charpoly(&alice, &bob, d, 3)));
        });
    }
    group.finish();
}

fn bench_charpoly_vs_iblt(c: &mut Criterion) {
    // The computational gap the paper highlights: same workload, both protocols.
    let mut group = c.benchmark_group("charpoly_vs_iblt_same_workload");
    group.sample_size(10);
    let d = 64;
    let (alice, bob) = set_pair(20_000, d, 5);
    group.bench_function("charpoly", |b| {
        b.iter(|| black_box(charpoly(&alice, &bob, d, 3)));
    });
    group.bench_function("iblt", |b| {
        b.iter(|| black_box(iblt(&alice, &bob, d, 3)));
    });
    group.finish();
}

criterion_group!(benches, bench_charpoly_vs_d, bench_charpoly_vs_iblt);
criterion_main!(benches);
