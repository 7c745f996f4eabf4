//! Theorem 2.1's reliability, measured without `n`.
//!
//! Counts add and key sums and check sums XOR, so subtracting Bob's table from
//! Alice's leaves exactly the table of their symmetric difference: Alice's
//! extra keys inserted, Bob's deleted. Whether a known-`d` attempt peels
//! therefore depends on the `d` difference keys and the layout, never on the
//! shared keys — which is what lets a reliability curve be sampled with `d`
//! keys a trial instead of `n`. The test here pins that linearity cell by cell
//! for every layout a shipped table uses.

use recon_base::rng::{split_seed, Xoshiro256};
use recon_iblt::{Iblt, IbltConfig};

/// Keys both sides hold: they must cancel without a trace.
const SHARED: usize = 500;

/// `count` random keys of `key_bytes` bytes. Linearity holds for multisets
/// too, so a repeated key would not matter.
fn keys(count: usize, key_bytes: usize, rng: &mut Xoshiro256) -> Vec<Vec<u8>> {
    (0..count).map(|_| (0..key_bytes).map(|_| rng.next_u64() as u8).collect()).collect()
}

/// A table of `cfg` sized for `d`, with `insert` and `delete` applied — through
/// the batched `u64` path for 8-byte keys, as the set digests build them, and
/// key by key otherwise.
fn table(cfg: &IbltConfig, d: usize, insert: &[Vec<u8>], delete: &[Vec<u8>]) -> Iblt {
    let u64_key = |key: &Vec<u8>| u64::from_le_bytes(key[..].try_into().expect("8 bytes"));
    let mut table = Iblt::with_expected_diff(d, cfg);
    if cfg.key_bytes == 8 {
        table.insert_u64s(insert.iter().map(u64_key));
        table.delete_u64s(delete.iter().map(u64_key));
    } else {
        insert.iter().for_each(|key| table.insert(key));
        delete.iter().for_each(|key| table.delete(key));
    }
    table
}

#[test]
fn subtracted_table_is_the_table_of_the_difference() {
    // Every layout a shipped table uses: the set digests' tuned and classic
    // `u64` layouts, the cascade's child tables (`u64` keys) and outer tables
    // (a level's child encoding, and `T_*`'s `2 + 8h` bytes, at Table 1's
    // `h = 32`), and the stash-carrying wide layout of the naive and
    // IBLT-of-IBLTs outer tables.
    let layouts: [(&str, IbltConfig); 6] = [
        ("tuned u64", IbltConfig::tuned_for_u64_keys(0)),
        ("classic u64", IbltConfig::for_u64_keys(0)),
        (
            "cascade child",
            IbltConfig::for_u64_keys(0)
                .with_cells_per_diff(2.0)
                .with_min_cells(8)
                .with_rescue(None),
        ),
        ("cascade outer level", IbltConfig::for_key_bytes(112, 0).with_min_cells(12)),
        ("cascade outer T_*", IbltConfig::for_key_bytes(2 + 8 * 32, 0).with_min_cells(12)),
        ("tuned wide", IbltConfig::tuned_for_key_bytes(112, 0)),
    ];
    let mut stashed = 0;
    for (name, layout) in layouts {
        // One `d` in each tier of the tuned layout table: ≤ 16, ≤ 64, above.
        for d in [1, 9, 16, 40, 64, 150] {
            for seed in 0..3u64 {
                let mut rng = Xoshiro256::new(split_seed(d as u64, seed));
                let cfg = layout.with_seed(rng.next_u64());
                let shared = keys(SHARED, cfg.key_bytes, &mut rng);
                let only_a = keys(d - d / 2, cfg.key_bytes, &mut rng);
                let only_b = keys(d / 2, cfg.key_bytes, &mut rng);
                let alice = table(&cfg, d, &[shared.clone(), only_a.clone()].concat(), &[]);
                let bob = table(&cfg, d, &[shared, only_b.clone()].concat(), &[]);
                let direct = table(&cfg, d, &only_a, &only_b);
                assert_eq!(direct.stash_cells(), cfg.stash_cells, "{name}");
                stashed += usize::from(direct.stash_cells() > 0);
                let subtracted = alice.subtract(&bob).expect("one geometry");
                assert!(subtracted == direct, "{name}, d = {d}, seed {seed}: cells differ");
            }
        }
    }
    assert_eq!(stashed, 2 * 6 * 3, "the two tuned layouts carry stash cells");
}
