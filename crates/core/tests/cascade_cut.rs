//! The cascade sends a cut of the paper's levels and lets `T_*` carry what the
//! cut leaves out (`cascading.rs`, "Which levels are sent"): the shape and
//! sizing of that cut, the stragglers only `T_*` can give, and the peer bytes
//! that reach the new paths.

use recon_base::wire::Encode;
use recon_base::ReconError;
use recon_iblt::IbltConfig;
use recon_sos::cascading::CascadingProtocol;
use recon_sos::workload::{generate_pair, WorkloadParams};
use recon_sos::{ChildSet, SetOfSets, SosParams};

/// `(levels, T_*)` for `(h, d)`, and every outer table at the size the rule
/// gives it: the first level for `2d` encodings, level `ℓ` for `2d >> (ℓ − 1)`,
/// `T_*` for `2d >> last`.
#[test]
fn the_cut_has_the_documented_shape_and_sizing() {
    let shapes = [
        (24, 1, 1, false),
        (24, 2, 1, false),
        (24, 3, 1, false),
        (24, 4, 1, false),
        (24, 5, 1, true), // level 3 costs 12 × 225 B and leaves T_* at its 12-cell floor
        (32, 64, 1, true), // level 3: 72 × 225 B to take 36 × 267 B off T_*
        (128, 8, 2, false),
        (128, 16, 3, false), // d < h: the levels reach t and T_* goes
        (128, 17, 2, true),  // T_* is at the floor from level 3 on
        (128, 128, 3, true), // level 5's key is narrower than the child, 840 B < 1026, and does not pay
        (200, 256, 3, true),
        (256, 128, 4, true),
        (4, 64, 1, true), // d >= h with nothing dropped
    ];
    let sos = SetOfSets::from_children([ChildSet::from([1, 2, 3]), ChildSet::from([4])]);
    for (h, d, levels, fallback) in shapes {
        let digest = CascadingProtocol::new(SosParams::new(7, h)).digest(&sos, d);
        let shape = (digest.levels.len(), digest.fallback.is_some());
        assert_eq!(shape, (levels, fallback), "h = {h}, d = {d}");
        // The first level sent is the paper's level 2.
        let expected = |index: usize| (2 * d) >> if index == 0 { 0 } else { index + 1 };
        let tables = digest.levels.iter().chain(&digest.fallback);
        let wants = (0..levels).map(expected).chain([(2 * d) >> (levels + 1)]);
        for (table, want) in tables.zip(wants) {
            let sizing = IbltConfig::for_key_bytes(table.key_bytes(), 0).with_min_cells(12);
            assert_eq!(table.cells(), sizing.cells_for(want.max(4)), "h = {h}, d = {d}");
        }
    }
}

/// The benchmark's `sos_cascading` shape: one level and `T_*`, under 56 KB.
#[test]
fn the_table_1_digest_is_under_56_kb() {
    let workload = WorkloadParams::new(4096, 32, 1 << 30);
    let (alice, _) = generate_pair(&workload, 0, 1);
    let digest = CascadingProtocol::new(SosParams::new(1, 32)).digest(&alice, 64);
    assert!(digest.encoded_len() <= 56_000, "{} bytes", digest.encoded_len());
}

/// Bob's copy of `alice`: the first child with `big` changes (half removals,
/// half insertions), each of the next `singles` children with one element
/// removed. Returns Bob's set and Alice's version of the first child.
fn with_one_big_change(alice: &SetOfSets, big: usize, singles: usize) -> (SetOfSets, ChildSet) {
    let mut children = alice.children().to_vec();
    let straggler = children[0].clone();
    let removed: Vec<u64> = straggler.iter().copied().take(big / 2).collect();
    for (i, x) in removed.into_iter().enumerate() {
        children[0].remove(&x);
        children[0].insert((1 << 40) + i as u64);
    }
    for child in &mut children[1..=singles] {
        let x = *child.iter().next().expect("children are non-empty");
        child.remove(&x);
    }
    (SetOfSets::from_children(children), straggler)
}

const H: usize = 32;
const D: usize = 64;

fn straggler_instance(seed: u64) -> (SetOfSets, CascadingProtocol) {
    let (alice, _) = generate_pair(&WorkloadParams::new(200, H, 1 << 30), 0, seed);
    (alice, CascadingProtocol::new(SosParams::new(0x57A6 + seed, H)))
}

/// A child with more changes than the one level's 8-cell child table holds is
/// recovered from `T_*`, in one attempt — which needs `D_B` put back first:
/// with 57 differing children on Bob's side, his 57 negatives and Alice's
/// straggler would not peel out of 72 cells.
#[test]
fn t_star_recovers_the_stragglers_in_one_attempt() {
    for (big, singles) in [(20, 40), (8, 56)] {
        for seed in 0..5 {
            let (alice, protocol) = straggler_instance(seed);
            let (bob, _) = with_one_big_change(&alice, big, singles);
            let digest = protocol.digest(&alice, D);
            assert_eq!(digest.levels.len(), 1);
            assert_eq!(digest.fallback.as_ref().map(|t| t.cells()), Some(72));
            let recovered = protocol.reconcile(&digest, &bob);
            assert!(recovered.is_ok_and(|set| set == alice), "{big} + {singles}, seed {seed}");
        }
    }
}

/// A `T_*` key that is no child's fixed encoding — an element twice, a length
/// past `h` — in the place of the straggler's: a detected failure, no wrong set.
#[test]
fn a_t_star_key_that_is_no_child_is_not_recovered() {
    let (alice, protocol) = straggler_instance(9);
    let (bob, straggler) = with_one_big_change(&alice, 20, 40);
    let mut repeated = vec![0u8; 2 + 8 * H];
    repeated[0] = 2;
    repeated[2] = 5;
    repeated[10] = 5;
    let mut too_long = SetOfSets::encode_child_fixed(&straggler, H);
    too_long[0] = H as u8 + 1;
    for forged in [repeated, too_long] {
        let mut digest = protocol.digest(&alice, D);
        let table = digest.fallback.as_mut().expect("d >= h");
        table.delete(&SetOfSets::encode_child_fixed(&straggler, H));
        table.insert(&forged);
        let result = protocol.reconcile(&digest, &bob);
        assert!(
            matches!(result, Err(ReconError::NoMatchingChild { .. } | ReconError::ChecksumFailure)),
            "{result:?}"
        );
    }
}

/// A peer's child sketch that peels, with a matching hash, to more than `h`
/// elements is no child of these parameters: refused, where it used to reach
/// the fixed-width encoder's assertion through `T_*`.
#[test]
fn a_child_of_more_than_h_elements_is_refused() {
    let (h, d) = (8, 16);
    let seed = 0xB16;
    let alice_child = ChildSet::from([10, 20, 30, 40, 50, 60, 70]);
    let bob_child: ChildSet = alice_child.iter().copied().chain([80]).collect();
    let oversized: ChildSet = bob_child.iter().copied().chain([90]).collect();
    let shared = [ChildSet::from([1, 2, 3]), ChildSet::from([4, 5])];
    let alice = SetOfSets::from_children(shared.iter().cloned().chain([alice_child]));
    let bob = SetOfSets::from_children(shared.iter().cloned().chain([bob_child]));

    let protocol = CascadingProtocol::new(SosParams::new(seed, h));
    let mut digest = protocol.digest(&alice, d);
    assert!(digest.fallback.is_some());
    // The level tables do not depend on `h`: a peer that allows itself nine
    // elements builds the oversized child's encodings at this side's geometry.
    let forged = CascadingProtocol::new(SosParams::new(seed, h + 1))
        .digest(&SetOfSets::from_children([oversized]), d);
    for (table, extra) in digest.levels.iter_mut().zip(&forged.levels) {
        table.add_assign(extra).expect("same level geometry");
    }
    let result = protocol.reconcile(&digest, &bob);
    assert!(matches!(result, Err(ReconError::NoMatchingChild { .. })), "{result:?}");
}
