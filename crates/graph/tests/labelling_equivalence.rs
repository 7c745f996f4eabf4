//! The packed (bit-set) signature comparisons of the degree-ordering scheme
//! against the tree walk they replaced: same partners, same failure variant, same
//! separation verdict.

use recon_base::rng::Xoshiro256;
use recon_base::ReconError;
use recon_graph::degree_order::{is_separated, match_signatures, signatures};
use recon_graph::Graph;
use recon_sos::ChildSet;
use std::collections::BTreeSet;

/// The labelling predicate as it was before signatures were packed: a walk
/// over both trees per pair. Kept as the reference the bit-set path is
/// checked against.
fn match_signatures_by_trees(
    local: &[(u32, BTreeSet<u64>)],
    recovered: &[ChildSet],
    d: usize,
) -> Result<Vec<usize>, String> {
    local
        .iter()
        .map(|(_, sig)| {
            let mut matches = recovered
                .iter()
                .enumerate()
                .filter(|(_, other)| sig.symmetric_difference(other).count() <= d);
            match (matches.next(), matches.next()) {
                (None, _) => Err("no signature within distance".to_string()),
                (Some(_), Some(_)) => Err("multiple signatures within distance".to_string()),
                (Some((idx, _)), None) => Ok(idx),
            }
        })
        .collect()
}

fn assert_same_labelling(
    local: &[(u32, BTreeSet<u64>)],
    recovered: &[ChildSet],
    h: usize,
    d: usize,
) {
    let packed = match_signatures(local, recovered, h, d);
    match match_signatures_by_trees(local, recovered, d) {
        Ok(partners) => assert_eq!(packed.unwrap(), partners),
        Err(reason) => match packed {
            Err(ReconError::SeparationFailure(message)) => {
                let variant = reason.split(' ').next().unwrap();
                assert!(message.contains(variant), "{message:?} is not the {reason:?} case");
            }
            other => panic!("expected a separation failure ({reason}), got {other:?}"),
        },
    }
}

/// `count` random signatures over `[0, h)`, and a copy in which each has up
/// to `flips` ranks toggled (shuffled, as a recovered set of sets would be).
fn signature_pair(
    count: usize,
    h: usize,
    flips: usize,
    rng: &mut Xoshiro256,
) -> (Vec<(u32, BTreeSet<u64>)>, Vec<ChildSet>) {
    let local: Vec<(u32, BTreeSet<u64>)> = (0..count as u32)
        .map(|v| (v, (0..h as u64).filter(|_| rng.next_index(3) == 0).collect()))
        .collect();
    let mut recovered: Vec<ChildSet> = local
        .iter()
        .map(|(_, sig)| {
            let mut sig = sig.clone();
            for _ in 0..rng.next_index(flips + 1) {
                let rank = rng.next_index(h) as u64;
                if !sig.remove(&rank) {
                    sig.insert(rank);
                }
            }
            sig
        })
        .collect();
    recovered.sort();
    (local, recovered)
}

#[test]
fn packed_labelling_matches_the_tree_walk() {
    let mut rng = Xoshiro256::new(0x51C);
    // One word and two words per signature; h = 64 and 70 straddle the
    // word boundary.
    for h in [5usize, 48, 64, 70, 130] {
        // Well separated: every vertex finds exactly its own partner.
        let (local, recovered) = signature_pair(60, h, 2, &mut rng);
        assert_same_labelling(&local, &recovered, h, 2);
        if h >= 48 {
            assert!(match_signatures(&local, &recovered, h, 2).is_ok(), "h = {h}");
        }
        // Not separated: a near-duplicate of a recovered signature makes
        // one vertex match two of them.
        let mut crowded = recovered.clone();
        let mut twin = crowded[7].clone();
        if !twin.remove(&0) {
            twin.insert(0);
        }
        crowded.push(twin);
        assert_same_labelling(&local, &crowded, h, 3);
        if h >= 48 {
            let err = match_signatures(&local, &crowded, h, 3).unwrap_err();
            assert!(err.to_string().contains("multiple"), "h = {h}: {err}");
        }
        // A vertex whose partner is missing matches nothing.
        let partner = match_signatures_by_trees(&local, &recovered, 2)
            .map(|partners| partners[3])
            .unwrap_or(0);
        let mut missing = recovered.clone();
        missing.remove(partner);
        assert_same_labelling(&local, &missing, h, 2);
        if h >= 48 {
            let err = match_signatures(&local, &missing, h, 2).unwrap_err();
            assert!(err.to_string().contains("has no signature"), "h = {h}: {err}");
        }
        // Every threshold, including ones that merge everything.
        for d in [0, 1, 5, h] {
            assert_same_labelling(&local, &recovered, h, d);
        }
    }
    // A peer's signature may hold ranks outside [0, h): they count as
    // differences, exactly as in the tree walk.
    let (local, mut recovered) = signature_pair(20, 70, 1, &mut rng);
    recovered[4].insert(70);
    recovered[9].insert(u64::MAX);
    for d in [1, 2, 3] {
        assert_same_labelling(&local, &recovered, 70, d);
    }
}

#[test]
fn packed_separation_check_matches_the_tree_walk() {
    for (seed, h) in [(1u64, 8usize), (2, 48), (3, 70)] {
        let g = Graph::gnp(90, 0.4, &mut Xoshiro256::new(seed));
        let sigs = signatures(&g, h);
        let closest = (0..sigs.signatures.len())
            .flat_map(|i| (i + 1..sigs.signatures.len()).map(move |j| (i, j)))
            .map(|(i, j)| sigs.signatures[i].1.symmetric_difference(&sigs.signatures[j].1).count())
            .min()
            .unwrap();
        // Degree gaps of 0 always hold, so the signature distances decide.
        assert!(is_separated(&g, h, 0, closest), "h = {h}");
        assert!(!is_separated(&g, h, 0, closest + 1), "h = {h}");
    }
}
