//! A peer's digest is outside input. One whose tables do not have the geometry
//! this side's own parameters give them must come back as an error before any
//! table is touched: no panic (a key of another width used to trip the
//! `Iblt::delete` width assertion), and nothing sized from the peer's numbers.

use recon_base::wire::{uvarint_len, Decode, Encode, WireError};
use recon_base::ReconError;
use recon_iblt::{Iblt, IbltConfig};
use recon_sos::cascading::{CascadingDigest, CascadingProtocol};
use recon_sos::iblt_of_iblts::IbltOfIbltsProtocol;
use recon_sos::naive::NaiveProtocol;
use recon_sos::workload::{generate_pair, WorkloadParams};
use recon_sos::{ChildSet, PairPacking, SetOfMultisets, SetOfSets, SosParams};

const H: usize = 24;

fn instance() -> (SetOfSets, SetOfSets, SosParams) {
    let (alice, bob) = generate_pair(&WorkloadParams::new(48, H, 1 << 30), 6, 3);
    (alice, bob, SosParams::new(0xBAD, H))
}

/// An empty table like `table` except for what `alter` changes of its
/// configuration and for `extra_cells`.
fn altered(table: &Iblt, extra_cells: usize, alter: impl Fn(IbltConfig) -> IbltConfig) -> Iblt {
    let cfg = IbltConfig::for_key_bytes(table.key_bytes(), table.seed())
        .with_hash_count(table.hash_count());
    Iblt::with_cells(table.cells() + extra_cells, &alter(cfg))
}

/// The ways a table can disagree with the configuration that expects it.
fn mismatches(table: &Iblt) -> Vec<Iblt> {
    vec![
        altered(table, 0, |cfg| IbltConfig { key_bytes: 5, ..cfg }),
        altered(table, 0, |cfg| cfg.with_seed(cfg.seed ^ 1)),
    ]
}

fn assert_refused<T: std::fmt::Debug>(result: Result<T, ReconError>, what: &str) {
    assert!(matches!(result, Err(ReconError::InvalidInput(_))), "{what}: {result:?}");
}

#[test]
fn cascade_refuses_tables_of_another_geometry() {
    // h = 128, d = 128: levels 2-4 pay for themselves, level 5 does not, so the
    // digest carries three levels and T_*.
    let h = 128;
    let (alice, bob) = generate_pair(&WorkloadParams::new(48, h, 1 << 30), 6, 3);
    let protocol = CascadingProtocol::new(SosParams::new(0xBAD, h));
    let honest = protocol.digest(&alice, 128);
    assert_eq!((honest.levels.len(), honest.fallback.is_some()), (3, true));
    let roundtrip = CascadingDigest::from_bytes(&honest.to_bytes()).unwrap();
    assert_eq!(protocol.reconcile(&roundtrip, &bob).unwrap(), alice);

    for level in 0..honest.levels.len() {
        let table = &honest.levels[level];
        let wrong = mismatches(table).into_iter().chain([
            altered(table, 4, |cfg| cfg),
            altered(table, 0, |cfg| cfg.with_hash_count(cfg.hash_count + 1)),
        ]);
        for table in wrong {
            let mut digest = honest.clone();
            digest.levels[level] = table;
            // As the peer would deliver it.
            let digest = CascadingDigest::from_bytes(&digest.to_bytes()).unwrap();
            assert_refused(protocol.reconcile(&digest, &bob), "level table");
        }
    }
    let fallback = honest.fallback.as_ref().unwrap();
    for table in mismatches(fallback).into_iter().chain([altered(fallback, 4, |cfg| cfg)]) {
        let digest = CascadingDigest { fallback: Some(table), ..honest.clone() };
        assert_refused(protocol.reconcile(&digest, &bob), "fallback table");
    }
}

#[test]
fn cascade_refuses_a_level_count_or_bound_that_is_not_its_own() {
    let (alice, bob, params) = instance();
    let protocol = CascadingProtocol::new(params);
    // h = 24: one level, with T_* once d >= 5 asks for a level that would not pay.
    let with_fallback = protocol.digest(&alice, 64);
    let without = protocol.digest(&alice, 4);
    assert_eq!((with_fallback.levels.len(), with_fallback.fallback.is_some()), (1, true));
    assert_eq!((without.levels.len(), without.fallback.is_some()), (1, false));

    // 45 one-cell levels: the level count must never size a `1 << level` table.
    let one_cell = Iblt::with_cells(1, &IbltConfig::for_u64_keys(0).with_hash_count(1));
    for diff_bound in [64, 1 << 44, usize::MAX] {
        let digest = CascadingDigest {
            diff_bound,
            levels: vec![one_cell.clone(); 45],
            ..with_fallback.clone()
        };
        assert_refused(protocol.reconcile(&digest, &bob), "45 levels");
    }
    let no_levels = CascadingDigest { levels: Vec::new(), ..without.clone() };
    assert_refused(protocol.reconcile(&no_levels, &bob), "no levels");

    let missing = CascadingDigest { fallback: None, ..with_fallback.clone() };
    assert_refused(protocol.reconcile(&missing, &bob), "missing fallback");
    let extra = CascadingDigest { fallback: with_fallback.fallback.clone(), ..without.clone() };
    assert_refused(protocol.reconcile(&extra, &bob), "extra fallback");

    // A bound the tables were not sized for, up to ones whose sizing overflows.
    for diff_bound in [0, 63, 128, usize::MAX / 2, usize::MAX] {
        let digest = CascadingDigest { diff_bound, ..with_fallback.clone() };
        assert_refused(protocol.reconcile(&digest, &bob), "diff bound");
    }
}

#[test]
fn iblt_of_iblts_refuses_tables_of_another_geometry() {
    let (alice, bob, params) = instance();
    let protocol = IbltOfIbltsProtocol::new(params);
    let honest = protocol.digest(&alice, 6, 6);
    assert_eq!(protocol.reconcile(&honest, &bob).unwrap(), alice);
    for outer in mismatches(&honest.outer) {
        let mut digest = honest.clone();
        digest.outer = outer;
        assert_refused(protocol.reconcile(&digest, &bob), "outer table");
    }
    // The child bound sizes Bob's child tables: it must be the one the outer
    // key width was derived from, whatever it claims to be.
    for child_diff_bound in [7, 1 << 44, usize::MAX] {
        let mut digest = honest.clone();
        digest.child_diff_bound = child_diff_bound;
        assert_refused(protocol.reconcile(&digest, &bob), "child bound");
    }
}

#[test]
fn naive_refuses_tables_of_another_geometry() {
    let (alice, bob, params) = instance();
    let protocol = NaiveProtocol::new(params);
    let honest = protocol.digest(&alice, 6);
    assert_eq!(protocol.reconcile(&honest, &bob).unwrap(), alice);
    for outer in mismatches(&honest.outer) {
        let mut digest = honest.clone();
        digest.outer = outer;
        assert_refused(protocol.reconcile(&digest, &bob), "outer table");
    }
}

/// A child sketch travels as a headerless key whose length both sides derive
/// from `h`: a peer with another `h` sends keys of another length, and a key of
/// the right length whose first cell counts `h + 1` elements is no child's
/// sketch. Both are errors, from either protocol.
#[test]
fn child_key_forms_are_checked_against_this_sides_h() {
    let (alice, bob, params) = instance();
    let cascade = CascadingProtocol::new(params);
    let flat = IbltOfIbltsProtocol::new(params);

    // `h = 300` needs two count bytes a cell where `h = 24` needs one.
    let wide = SosParams::new(params.seed, 300);
    let digest = CascadingProtocol::new(wide).digest(&alice, 4);
    assert_refused(cascade.reconcile(&digest, &bob), "cascade keys of another length");
    let digest = IbltOfIbltsProtocol::new(wide).digest(&alice, 6, 6);
    assert_refused(flat.reconcile(&digest, &bob), "flat keys of another length");

    let forged = |key_bytes: usize, count: usize| {
        let mut key = vec![0u8; key_bytes];
        key[0] = count as u8;
        key
    };
    for (count, refused) in [(H, false), (H + 1, true)] {
        let mut digest = cascade.digest(&alice, 4);
        let key = forged(digest.levels[0].key_bytes(), count);
        digest.levels[0].insert(&key);
        let result = cascade.reconcile(&digest, &bob);
        assert_eq!(matches!(result, Err(ReconError::Wire(_))), refused, "cascade: {result:?}");
        assert!(result.is_err());

        let mut digest = flat.digest(&alice, 6, 6);
        let key = forged(digest.outer.key_bytes(), count);
        digest.outer.insert(&key);
        let result = flat.reconcile(&digest, &bob);
        assert_eq!(matches!(result, Err(ReconError::Wire(_))), refused, "flat: {result:?}");
        assert!(result.is_err());
    }
}

/// The digest's bytes are the peer's too: a count that is no `i64` (eleven
/// varint bytes; ten with a 65th bit) and a digest cut short anywhere — in a
/// count plane, a key plane, a check plane — are parse errors.
#[test]
fn a_hostile_count_or_a_short_plane_does_not_parse() {
    let (alice, _, params) = instance();
    let digest = CascadingProtocol::new(params).digest(&alice, 64);
    let bytes = digest.to_bytes();
    assert_eq!(CascadingDigest::from_bytes(&bytes).unwrap(), digest);
    for cut in 0..bytes.len() {
        assert!(CascadingDigest::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
    }
    // The bound, the level count, the first table's header, then its counts.
    let table = &digest.levels[0];
    let first_count = uvarint_len(digest.diff_bound as u64)
        + uvarint_len(digest.levels.len() as u64)
        + [table.key_bytes(), table.hash_count(), table.cells()]
            .map(|v| uvarint_len(v as u64))
            .iter()
            .sum::<usize>()
        + 8;
    for count in [&[0x80u8; 11][..], &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 2]] {
        let mut hostile = bytes[..first_count].to_vec();
        hostile.extend_from_slice(count);
        hostile.extend_from_slice(&bytes[first_count + 1..]);
        assert_eq!(CascadingDigest::from_bytes(&hostile), Err(WireError::VarintOverflow));
    }
}

/// A recovered child's occurrence marker says how many copies of it the unpacked
/// collection holds, so it is the peer's number too: one of 2^40 used to clone
/// the child 2^40 times, one of 0 to drop it without a word. A marker of 0 or
/// past the bound a pair's multiplicity has is refused before any clone.
#[test]
fn an_occurrence_marker_past_the_multiplicity_bound_is_refused() {
    let packing = PairPacking::default();
    let unpack = |marker: u64| {
        let child: ChildSet = [packing.pack(7, 2).unwrap(), (1 << 63) | marker].into();
        SetOfMultisets::from_set_of_sets(&SetOfSets::from_children([child]), &packing)
    };
    assert_eq!(unpack(3).unwrap().num_children(), 3);
    for marker in [1 << 40, 0, packing.max_count() + 1] {
        assert!(matches!(unpack(marker), Err(ReconError::ChecksumFailure)), "marker {marker}");
    }
}
