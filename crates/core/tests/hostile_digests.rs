//! A peer's digest is outside input. One whose tables do not have the geometry
//! this side's own parameters give them must come back as an error before any
//! table is touched: no panic (a key of another width used to trip the
//! `Iblt::delete` width assertion), and nothing sized from the peer's numbers.

use recon_base::wire::{Decode, Encode};
use recon_base::ReconError;
use recon_iblt::{Iblt, IbltConfig};
use recon_sos::cascading::{CascadingDigest, CascadingProtocol};
use recon_sos::iblt_of_iblts::IbltOfIbltsProtocol;
use recon_sos::naive::NaiveProtocol;
use recon_sos::workload::{generate_pair, WorkloadParams};
use recon_sos::{SetOfSets, SosParams};

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
    // h = 128, d = 17: levels 2-4 pay for themselves, level 5 does not, so the
    // digest carries three levels and T_*.
    let h = 128;
    let (alice, bob) = generate_pair(&WorkloadParams::new(48, h, 1 << 30), 6, 3);
    let protocol = CascadingProtocol::new(SosParams::new(0xBAD, h));
    let honest = protocol.digest(&alice, 17);
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
