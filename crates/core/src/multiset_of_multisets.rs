//! Sets of multisets and multisets of multisets (Section 3.4).
//!
//! "All of our protocols can be adapted to reconciling sets of multisets or multisets
//! of multisets in a similar way": replace each multiset element `x` with multiplicity
//! `k` by the pair `(x, k)`, reconcile the resulting sets of sets, and read the
//! multiplicities back off. The universe grows from `u` to `u·n`, which here means the
//! pair is packed into a single 64-bit word (`element_bits` bits of element,
//! `64 − element_bits` bits of multiplicity).
//!
//! This adapter is what the graph protocols build on: the degree-neighborhood scheme
//! (Theorem 5.6) reconciles a *set of multisets* of neighbor degrees, and forest
//! reconciliation (Theorem 6.1) reconciles a *multiset of multisets* of vertex
//! signatures. A multiset of child multisets is handled by attaching the child's
//! multiplicity as one extra packed element, keeping the parent a plain set.

use crate::types::{ChildSet, SetOfSets, SosParams};
use recon_base::ReconError;
use recon_set::Multiset;

/// A parent collection of child multisets (possibly itself with repeated children).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SetOfMultisets {
    children: Vec<Multiset>,
}

/// Packing parameters for `(element, multiplicity)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairPacking {
    /// Bits reserved for the element value (the rest hold the multiplicity).
    pub element_bits: u32,
}

impl Default for PairPacking {
    fn default() -> Self {
        Self { element_bits: 44 }
    }
}

impl PairPacking {
    /// Maximum representable element value.
    pub fn max_element(&self) -> u64 {
        (1u64 << self.element_bits) - 1
    }

    /// Maximum representable multiplicity.
    pub fn max_count(&self) -> u64 {
        (1u64 << (63 - self.element_bits)) - 1
    }

    /// Pack `(element, multiplicity)` into a single word.
    pub fn pack(&self, element: u64, count: u64) -> Result<u64, ReconError> {
        if element > self.max_element() {
            return Err(ReconError::InvalidInput(format!(
                "element {element} exceeds the {}-bit packing budget",
                self.element_bits
            )));
        }
        if count == 0 || count > self.max_count() {
            return Err(ReconError::InvalidInput(format!(
                "multiplicity {count} outside [1, {}]",
                self.max_count()
            )));
        }
        Ok((count << self.element_bits) | element)
    }

    /// Unpack a word into `(element, multiplicity)`.
    pub fn unpack(&self, packed: u64) -> (u64, u64) {
        (packed & self.max_element(), (packed >> self.element_bits) & self.max_count())
    }
}

impl SetOfMultisets {
    /// Create an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of child multisets (duplicates are kept: the parent is
    /// allowed to be a multiset of multisets).
    pub fn from_children<I: IntoIterator<Item = Multiset>>(children: I) -> Self {
        Self { children: children.into_iter().collect() }
    }

    /// Add a child multiset.
    pub fn push(&mut self, child: Multiset) {
        self.children.push(child);
    }

    /// The child multisets.
    pub fn children(&self) -> &[Multiset] {
        &self.children
    }

    /// Number of child multisets.
    pub fn num_children(&self) -> usize {
        self.children.len()
    }

    /// Largest number of distinct elements in any child.
    pub fn max_child_distinct(&self) -> usize {
        self.children.iter().map(Multiset::distinct_len).max().unwrap_or(0)
    }

    /// Convert to a plain set of sets by packing `(element, multiplicity)` pairs and
    /// appending the child's own repetition count (so that repeated child multisets
    /// remain distinguishable). Children that are exact duplicates of one another are
    /// collapsed into one child carrying an occurrence-count marker element.
    pub fn to_set_of_sets(&self, packing: &PairPacking) -> Result<SetOfSets, ReconError> {
        use std::collections::BTreeMap;
        // Count identical children.
        let mut groups: BTreeMap<Vec<(u64, u64)>, u64> = BTreeMap::new();
        for child in &self.children {
            let mut key: Vec<(u64, u64)> = child.iter().collect();
            key.sort_unstable();
            *groups.entry(key).or_insert(0) += 1;
        }
        let mut children = Vec::with_capacity(groups.len());
        for (pairs, occurrences) in groups {
            // An occurrence count has the bound a pair's multiplicity has.
            packing.pack(0, occurrences)?;
            let mut set = ChildSet::new();
            for (x, c) in pairs {
                set.insert(packing.pack(x, c)?);
            }
            // The occurrence marker uses the reserved top bit so it can never collide
            // with a packed pair.
            set.insert((1u64 << 63) | occurrences);
            children.push(set);
        }
        Ok(SetOfSets::from_children(children))
    }

    /// Inverse of [`SetOfMultisets::to_set_of_sets`]. An occurrence marker of 0
    /// or above [`PairPacking::max_count`] — which only a peer could have put
    /// there — is refused before the child is cloned for it.
    pub fn from_set_of_sets(sos: &SetOfSets, packing: &PairPacking) -> Result<Self, ReconError> {
        let mut children = Vec::new();
        for child in sos.children() {
            let mut multiset = Multiset::new();
            let mut occurrences = 1u64;
            for &packed in child {
                if packed >> 63 == 1 {
                    occurrences = packed & !(1u64 << 63);
                    packing.pack(0, occurrences).map_err(|_| ReconError::ChecksumFailure)?;
                    continue;
                }
                let (x, c) = packing.unpack(packed);
                if c == 0 {
                    return Err(ReconError::ChecksumFailure);
                }
                multiset.insert_n(x, c);
            }
            for _ in 0..occurrences {
                children.push(multiset.clone());
            }
        }
        Ok(Self { children })
    }

    /// Canonical form for equality checks in tests: children sorted by their pair
    /// lists.
    pub fn canonicalized(&self) -> Vec<Vec<(u64, u64)>> {
        let mut canon: Vec<Vec<(u64, u64)>> = self
            .children
            .iter()
            .map(|c| {
                let mut pairs: Vec<(u64, u64)> = c.iter().collect();
                pairs.sort_unstable();
                pairs
            })
            .collect();
        canon.sort();
        canon
    }
}

/// The shared parameters the two parties of a Section 3.4 session must agree on:
/// the cascading protocol's `SosParams` with a `max_child_size` covering both
/// parties' *packed* children. A caller holding both inputs derives it here (the
/// graph schemes' `agreed_params` do); separated parties agree on it out of band
/// like any other universe bound.
pub fn resolved_params(
    alice: &SetOfMultisets,
    bob: &SetOfMultisets,
    params: &SosParams,
    packing: &PairPacking,
) -> Result<SosParams, ReconError> {
    let alice_sos = alice.to_set_of_sets(packing)?;
    let bob_sos = bob.to_set_of_sets(packing)?;
    let max_child =
        alice_sos.max_child_size().max(bob_sos.max_child_size()).max(params.max_child_size).max(1);
    Ok(SosParams::new(params.seed, max_child))
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_protocol::{Amplification, Outcome, SessionBuilder};

    /// The Section 3.4 party pair under four replicated attempts, run in memory.
    fn run_session(
        a: &SetOfMultisets,
        b: &SetOfMultisets,
        d: usize,
        seed: u64,
    ) -> Outcome<SetOfMultisets> {
        let (packing, amp) = (PairPacking::default(), Amplification::replicate(4));
        let p = resolved_params(a, b, &SosParams::new(seed, 8), &packing).unwrap();
        let alice = crate::session::mom_known_alice(a, d, &p, &packing, amp).unwrap();
        let bob = crate::session::mom_known_bob(b, &p, &packing, amp).unwrap();
        SessionBuilder::new(p.seed).run(alice, bob).unwrap()
    }

    fn ms(pairs: &[(u64, u64)]) -> Multiset {
        let mut m = Multiset::new();
        for &(x, c) in pairs {
            m.insert_n(x, c);
        }
        m
    }

    #[test]
    fn packing_roundtrips_and_enforces_bounds() {
        let packing = PairPacking::default();
        for (x, c) in [(0u64, 1u64), (12345, 7), (packing.max_element(), packing.max_count())] {
            let packed = packing.pack(x, c).unwrap();
            assert_eq!(packing.unpack(packed), (x, c));
        }
        assert!(packing.pack(packing.max_element() + 1, 1).is_err());
        assert!(packing.pack(1, 0).is_err());
        assert!(packing.pack(1, packing.max_count() + 1).is_err());
    }

    #[test]
    fn set_of_sets_conversion_roundtrips() {
        let packing = PairPacking::default();
        let collection = SetOfMultisets::from_children(vec![
            ms(&[(1, 2), (5, 1)]),
            ms(&[(9, 3)]),
            ms(&[(9, 3)]), // duplicate child multiset
            Multiset::new(),
        ]);
        let sos = collection.to_set_of_sets(&packing).unwrap();
        let back = SetOfMultisets::from_set_of_sets(&sos, &packing).unwrap();
        assert_eq!(back.canonicalized(), collection.canonicalized());
        assert_eq!(back.num_children(), 4);
    }

    #[test]
    fn identical_collections_reconcile() {
        let collection =
            SetOfMultisets::from_children((0..40u64).map(|i| ms(&[(i, 1 + i % 3), (i + 100, 2)])));
        let Outcome { recovered, stats } = run_session(&collection, &collection, 2, 5);
        assert_eq!(recovered.canonicalized(), collection.canonicalized());
        assert!(stats.total_bytes() > 0);
    }

    #[test]
    fn multiplicity_and_element_changes_reconcile() {
        let alice = SetOfMultisets::from_children(
            (0..60u64).map(|i| ms(&[(i, 1 + i % 4), (i * 7 + 1000, 2), (i + 5000, 1)])),
        );
        let mut bob_children: Vec<Multiset> = alice.children().to_vec();
        // A multiplicity bump, an element swap and a removed element: 4 logical changes.
        bob_children[3].insert(3);
        bob_children[10].remove(10);
        bob_children[10].insert(999_999);
        bob_children[20].remove(20 * 7 + 1000);
        let bob = SetOfMultisets::from_children(bob_children);
        let recovered = run_session(&alice, &bob, 6, 11).recovered;
        assert_eq!(recovered.canonicalized(), alice.canonicalized());
    }

    #[test]
    fn duplicate_children_with_different_counts_reconcile() {
        let shared: Vec<Multiset> = (0..30u64).map(|i| ms(&[(i, 2)])).collect();
        let mut alice_children = shared.clone();
        alice_children.push(ms(&[(7, 2)])); // now two copies of the child {7:2}
        let alice = SetOfMultisets::from_children(alice_children);
        let bob = SetOfMultisets::from_children(shared);
        let recovered = run_session(&alice, &bob, 3, 21).recovered;
        assert_eq!(recovered.canonicalized(), alice.canonicalized());
    }
}
