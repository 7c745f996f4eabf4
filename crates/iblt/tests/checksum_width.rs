//! What the 4-byte check-sum of 8-byte-key tables is asked to do, counted.
//!
//! A cell is peeled when its count is ±1, its 32-bit check-sum matches the
//! check hash of its key sum, and that key hashes back to the cell. In a table
//! holding twice as many keys as it has cells, positive and negative, most
//! cells of count ±1 hold three keys or more: every one of them is a chance to
//! accept a key sum that is no key. These tests peel such tables until a given
//! number of cells have been accepted and compare every accepted key, and its
//! sign, with the difference that was put in.

use recon_base::rng::{split_seed, Xoshiro256};
use recon_iblt::{Iblt, IbltConfig};
use std::collections::HashSet;

const CELLS: usize = 600;
const KEYS: usize = 2 * CELLS;

/// Peel overloaded tables until `target` cells have been accepted as pure.
/// Returns `(accepted, refused)`: the keys peeled — each checked against the
/// truth — and the cells of count ±1 the stalled peels left behind, every one
/// of which went through the check-sum test and was refused.
fn peel_overloaded_tables(target: usize) -> (usize, usize) {
    let (mut accepted, mut refused) = (0, 0);
    let mut rng = Xoshiro256::new(0xC4EC_5123);
    for table_no in 0u64.. {
        if accepted >= target {
            break;
        }
        let cfg = IbltConfig::for_u64_keys(split_seed(0x32B1, table_no))
            .with_hash_count(3)
            .with_rescue(None);
        let mut table = Iblt::with_cells(CELLS, &cfg);
        let positive: HashSet<u64> = (0..KEYS / 2).map(|_| rng.next_u64()).collect();
        let negative: HashSet<u64> = (0..KEYS / 2).map(|_| rng.next_u64()).collect();
        table.insert_u64s(positive.iter().copied());
        table.delete_u64s(negative.iter().copied());
        let decoded = table.decode_in_place();
        assert!(!decoded.complete, "table {table_no} is overloaded and cannot drain");
        for key in decoded.positive_u64() {
            assert!(positive.contains(&key), "table {table_no}: {key:#x} was never inserted");
        }
        for key in decoded.negative_u64() {
            assert!(negative.contains(&key), "table {table_no}: {key:#x} was never deleted");
        }
        accepted += decoded.recovered();
        refused += table.counts().iter().filter(|&&count| count == 1 || count == -1).count();
    }
    (accepted, refused)
}

#[test]
fn ten_thousand_narrow_checksum_peels_accept_no_wrong_key() {
    let (accepted, refused) = peel_overloaded_tables(10_000);
    assert!(accepted >= 10_000 && refused >= accepted, "{accepted} accepted, {refused} refused");
}

/// The count ROADMAP 1(a) asks for; CI runs it by name, in release.
#[test]
#[ignore = "a million peels: run in release, `cargo test --release -p recon-iblt --test checksum_width -- --ignored`"]
fn a_million_narrow_checksum_peels_accept_no_wrong_key() {
    let (accepted, refused) = peel_overloaded_tables(1_000_000);
    println!(
        "{accepted} cells accepted as pure, every key right; {refused} impure ±1 cells refused"
    );
    assert!(accepted >= 1_000_000 && refused >= accepted);
}
