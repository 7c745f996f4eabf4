//! Experiment E-6.1: forest reconciliation (Theorem 6.1), timed over the number of
//! vertices and the perturbation size. Communication vs `d·σ` is reported by
//! `experiments forest`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recon_base::rng::Xoshiro256;
use recon_graph::forest::{self, Forest};
use recon_graph::session::{forest_alice, forest_bob};
use recon_protocol::{Outcome, SessionBuilder};
use std::hint::black_box;

/// Theorem 6.1's party pair, parameters agreed from both forests, run in memory.
fn reconcile(alice: &Forest, bob: &Forest, d: usize, sigma: usize, seed: u64) -> Outcome<Forest> {
    let agreed = forest::agreed_params(alice, bob, seed).unwrap();
    let alice = forest_alice(alice, d, sigma, seed, &agreed).unwrap();
    SessionBuilder::new(seed).run(alice, forest_bob(bob, seed, &agreed).unwrap()).unwrap()
}

fn bench_forest_vs_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("forest_reconciliation_vs_n");
    group.sample_size(10);
    for n in [1_000usize, 5_000, 20_000] {
        let mut rng = Xoshiro256::new(n as u64);
        let base = Forest::random(n, 0.1, 6, &mut rng);
        let alice = base.perturb(2, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(reconcile(&alice, &base, 4, 7, 9)));
        });
    }
    group.finish();
}

fn bench_forest_vs_d(c: &mut Criterion) {
    let mut group = c.benchmark_group("forest_reconciliation_vs_d");
    group.sample_size(10);
    let mut rng = Xoshiro256::new(3);
    let base = Forest::random(5_000, 0.1, 6, &mut rng);
    for d in [1usize, 4, 16] {
        let alice = base.perturb(d, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, &d| {
            b.iter(|| black_box(reconcile(&alice, &base, 2 * d, 7, 11)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_forest_vs_n, bench_forest_vs_d);
criterion_main!(benches);
