//! The ℓ0 estimator's accuracy (Theorem 3.1) as a statistical fact.
//!
//! `L0Estimator::update` slices every repetition's (level, bucket) pair from
//! one mix of the key. The paper's analysis needs levels at rate `2^{-(i+1)}`,
//! buckets spread evenly, repetitions that do not move together, and so an
//! estimate within a constant factor of `d`. These tests check each on seeded
//! trials, over random keys and over structured ones (consecutive integers and
//! the top of the key range).
//!
//! Tier-1 runs 100 trials per `d` at `n = 5 000`. The `#[ignore]`d twin runs
//! 2 000 trials per `d` at `n = 2·10⁴` and bounds the two tails by Wilson 95 %
//! intervals (20–30 s in release):
//! `cargo test -q --release -p recon-estimator --test l0_accuracy -- --ignored --nocapture`.

use recon_base::rng::{split_seed, Xoshiro256};
use recon_base::wire::Encode;
use recon_estimator::{L0Config, L0Estimator, Side};

const DIFFS: [usize; 7] = [1, 4, 16, 64, 250, 1000, 4096];

#[derive(Debug, Clone, Copy)]
enum Keys {
    Random,
    /// `0..n` shared, the next integers only Alice's, `u64::MAX − i` only Bob's.
    Structured,
}

/// Trial `trial`'s two sides: `n` shared keys, `⌈d/2⌉` only Alice's and
/// `⌊d/2⌋` only Bob's.
fn key_sets(keys: Keys, n: usize, d: usize, trial: u64) -> (Vec<u64>, Vec<u64>) {
    let (only_alice, only_bob) = (d.div_ceil(2), d / 2);
    match keys {
        Keys::Random => {
            let mut rng = Xoshiro256::new(split_seed(trial, d as u64));
            let shared: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let mut alice = shared.clone();
            alice.extend((0..only_alice).map(|_| rng.next_u64()));
            let mut bob = shared;
            bob.extend((0..only_bob).map(|_| rng.next_u64()));
            (alice, bob)
        }
        Keys::Structured => (
            (0..(n + only_alice) as u64).collect(),
            (0..n as u64).chain((0..only_bob as u64).map(|i| u64::MAX - i)).collect(),
        ),
    }
}

/// The merged estimate of trial `trial`, under a seed of its own.
fn estimate(keys: Keys, n: usize, d: usize, trial: u64) -> usize {
    let (alice_keys, bob_keys) = key_sets(keys, n, d, trial);
    let cfg = L0Config::default().with_seed(split_seed(0x10_ACC, trial));
    let mut alice = L0Estimator::new(&cfg);
    alice.update_all(alice_keys, Side::A);
    let mut bob = L0Estimator::new(&cfg);
    bob.update_all(bob_keys, Side::B);
    alice.merge(&bob).expect("one configuration").estimate()
}

fn assert_within_factor_two_on_average(keys: Keys) {
    const TRIALS: u64 = 100;
    for d in DIFFS {
        let estimates: Vec<usize> = (0..TRIALS).map(|t| estimate(keys, 5_000, d, t)).collect();
        let outside: Vec<&usize> = estimates.iter().filter(|&&e| 2 * e < d || e > 2 * d).collect();
        assert!(outside.is_empty(), "{keys:?}, d = {d}: estimates outside [d/2, 2d]: {outside:?}");
        let mean = estimates.iter().sum::<usize>() as f64 / (TRIALS as usize * d) as f64;
        assert!((0.9..=1.1).contains(&mean), "{keys:?}, d = {d}: mean estimate {mean:.3}·d");
    }
}

#[test]
fn random_keys_estimate_within_a_factor_two() {
    assert_within_factor_two_on_average(Keys::Random);
}

#[test]
fn structured_keys_estimate_within_a_factor_two() {
    assert_within_factor_two_on_average(Keys::Structured);
}

/// `|count − N·p| ≤ 4σ` for a binomial count of `n` draws at rate `p`.
#[track_caller]
fn assert_binomial(count: usize, n: usize, p: f64, what: &str) {
    let (mean, sigma) = (n as f64 * p, (n as f64 * p * (1.0 - p)).sqrt());
    assert!(
        (count as f64 - mean).abs() <= 4.0 * sigma,
        "{what}: {count} of {n}, expected {mean:.0} ± {sigma:.0}"
    );
}

/// Each key's (level, bucket) per repetition, read back from the wire bytes of
/// an estimator holding that key alone; 12 buckets take the multiply-high's
/// non-power-of-two path.
#[test]
fn levels_halve_buckets_even_out_and_repetitions_are_unrelated() {
    const N: usize = 100_000;
    let cfg = L0Config { reps: 9, levels: 10, buckets: 12, threshold: 8, seed: 0x5EED };
    let cells = cfg.levels * cfg.buckets;
    let mut sketch = L0Estimator::new(&cfg);
    let header = sketch.serialized_len() - cfg.reps * cells / 4;
    for keys in [Keys::Random, Keys::Structured] {
        let mut level_counts = vec![[0usize; 10]; cfg.reps];
        let mut bucket_counts = vec![[0usize; 12]; cfg.reps];
        // Per pair of repetitions, keys at level ≥ j in both, for j = 1, 2, 3.
        let mut joint_deep = vec![[0usize; 3]; cfg.reps * cfg.reps];
        for &x in &key_sets(keys, N, 0, 0).0 {
            sketch.update(x, Side::A);
            let bytes = sketch.to_bytes();
            sketch.update(x, Side::B);
            let levels: Vec<usize> = (0..cfg.reps)
                .map(|rep| {
                    let plane = &bytes[header + rep * cells / 4..][..cells / 4];
                    let cell = (0..cells)
                        .find(|&i| (plane[i / 4] >> (2 * (i % 4))) & 3 != 0)
                        .expect("one counter set per repetition");
                    level_counts[rep][cell / cfg.buckets] += 1;
                    bucket_counts[rep][cell % cfg.buckets] += 1;
                    cell / cfg.buckets
                })
                .collect();
            for (r, &a) in levels.iter().enumerate() {
                for (s, &b) in levels.iter().enumerate().skip(r + 1) {
                    let pair = &mut joint_deep[r * cfg.reps + s];
                    (0..3).filter(|&j| a.min(b) > j).for_each(|j| pair[j] += 1);
                }
            }
        }
        for (rep, (levels, buckets)) in level_counts.iter().zip(&bucket_counts).enumerate() {
            for (level, &count) in levels.iter().enumerate().take(9) {
                let what = format!("{keys:?} rep {rep} level {level}");
                assert_binomial(count, N, 0.5f64.powi(level as i32 + 1), &what);
            }
            for (bucket, &count) in buckets.iter().enumerate() {
                let what = format!("{keys:?} rep {rep} bucket {bucket}");
                assert_binomial(count, N, 1.0 / 12.0, &what);
            }
        }
        for r in 0..cfg.reps {
            for s in r + 1..cfg.reps {
                for (j, &count) in joint_deep[r * cfg.reps + s].iter().enumerate() {
                    let what = format!("{keys:?} reps {r}, {s} both at level ≥ {}", j + 1);
                    assert_binomial(count, N, 0.25f64.powi(j as i32 + 1), &what);
                }
            }
        }
    }
}

/// Wilson 95 % score interval for `k` successes in `n` trials.
fn wilson95(k: usize, n: usize) -> (f64, f64) {
    let (z, k, n) = (1.959_964f64, k as f64, n as f64);
    let p = k / n;
    let scale = 1.0 + z * z / n;
    let centre = (p + z * z / (2.0 * n)) / scale;
    let half = z * (p * (1.0 - p) / n + z * z / (4.0 * n * n)).sqrt() / scale;
    ((centre - half).max(0.0), (centre + half).min(1.0))
}

#[test]
#[ignore = "2 000 trials per d at n = 2·10⁴: seconds in release, minutes in debug; CI runs it in release"]
fn tail_probabilities_have_wilson_upper_bounds_under_one_percent() {
    const TRIALS: usize = 2_000;
    println!("keys        d    P(< d/2) 95 % CI       P(> 2d) 95 % CI        mean");
    for keys in [Keys::Random, Keys::Structured] {
        for d in DIFFS {
            let estimates: Vec<usize> =
                (0..TRIALS as u64).map(|t| estimate(keys, 20_000, d, t)).collect();
            let low = estimates.iter().filter(|&&e| 2 * e < d).count();
            let high = estimates.iter().filter(|&&e| e > 2 * d).count();
            let (low_ci, high_ci) = (wilson95(low, TRIALS), wilson95(high, TRIALS));
            let mean = estimates.iter().sum::<usize>() as f64 / (TRIALS * d) as f64;
            println!(
                "{:<10} {d:>5}  {low:>3} [{:.4}, {:.4}]   {high:>3} [{:.4}, {:.4}]   {mean:.3}·d",
                format!("{keys:?}"),
                low_ci.0,
                low_ci.1,
                high_ci.0,
                high_ci.1
            );
            assert!(low_ci.1 <= 0.01, "{keys:?}, d = {d}: P(< d/2) ≤ {:.4}", low_ci.1);
            assert!(high_ci.1 <= 0.01, "{keys:?}, d = {d}: P(> 2d) ≤ {:.4}", high_ci.1);
        }
    }
}
