//! IBLT micro-benchmarks and ablations: insert/decode throughput, key-width
//! sensitivity (the nested protocols carry wide keys), partitioned sizing factor
//! (the constant behind Theorem 2.1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recon_base::rng::Xoshiro256;
use recon_iblt::{Iblt, IbltConfig};
use std::hint::black_box;

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("iblt_insert_10k_keys");
    for key_bytes in [8usize, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(key_bytes), &key_bytes, |b, &kb| {
            let cfg = IbltConfig::for_key_bytes(kb, 7);
            let mut rng = Xoshiro256::new(1);
            let keys: Vec<Vec<u8>> =
                (0..10_000).map(|_| (0..kb).map(|_| rng.next_u64() as u8).collect()).collect();
            b.iter(|| {
                let mut table = Iblt::with_expected_diff(64, &cfg);
                for k in &keys {
                    table.insert(k);
                }
                black_box(table)
            });
        });
    }
    group.finish();
}

fn bench_subtract_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("iblt_subtract_and_decode");
    for d in [8usize, 64, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, &d| {
            let cfg = IbltConfig::for_u64_keys(3);
            let mut alice = Iblt::with_expected_diff(d, &cfg);
            let mut bob = Iblt::with_expected_diff(d, &cfg);
            for x in 0..50_000u64 {
                alice.insert_u64(x);
                bob.insert_u64(x + d as u64);
            }
            b.iter(|| {
                let diff = alice.subtract(&bob).unwrap();
                black_box(diff.decode())
            });
        });
    }
    group.finish();
}

fn bench_subtract_decode_in_place(c: &mut Criterion) {
    // The production path since the flat cell bank: subtract yields an owned
    // table which is peeled in place, so no copy of the bank survives.
    let mut group = c.benchmark_group("iblt_subtract_and_decode_in_place");
    for d in [8usize, 64, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, &d| {
            let cfg = IbltConfig::for_u64_keys(3);
            let mut alice = Iblt::with_expected_diff(d, &cfg);
            let mut bob = Iblt::with_expected_diff(d, &cfg);
            for x in 0..50_000u64 {
                alice.insert_u64(x);
                bob.insert_u64(x + d as u64);
            }
            b.iter(|| {
                let mut diff = alice.subtract(&bob).unwrap();
                black_box(diff.decode_in_place())
            });
        });
    }
    group.finish();
}

// The cells-per-difference sizing ablation moved to the dedicated
// `iblt_decode_success_vs_sizing` bench, which sweeps the near-threshold
// factors with and without the decode rescue and reports success rates and
// retry counts instead of wall-clock.

criterion_group!(benches, bench_insert, bench_subtract_decode, bench_subtract_decode_in_place);
criterion_main!(benches);
