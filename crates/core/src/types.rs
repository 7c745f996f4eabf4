//! The set-of-sets data model shared by every protocol in this crate.
//!
//! Alice and Bob each hold a *parent set* of at most `s` *child sets*, each child set
//! containing at most `h` elements from a universe of size `u`; the total size is
//! `n = Σ |child|` (Section 3 of the paper). [`SetOfSets`] is that object, with the
//! helpers the protocols need: canonical child encodings, per-child hashes, and the
//! parent hash used to verify end-to-end recovery.

use recon_base::hash::{hash_u64_set, SetHasher};
use recon_base::rng::split_seed;
use recon_base::wire::{write_uvarint, Claimed, Decode, Encode, WireError};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A child set: a set of 64-bit universe elements, stored sorted so that encodings
/// and hashes are canonical.
pub type ChildSet = BTreeSet<u64>;

/// A parent set of child sets.
///
/// The paper treats the parent as a *set* of child sets; this type therefore assumes
/// the child sets are pairwise distinct (duplicates are deduplicated on
/// construction). Child order carries no meaning — all hashes and encodings are
/// order-independent — but a deterministic iteration order (sorted) is kept so runs
/// are reproducible.
///
/// The children are shared copy-on-write: a clone is a reference bump, and the
/// first mutation of a shared value pays the one deep copy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SetOfSets {
    children: Arc<Vec<ChildSet>>,
}

impl SetOfSets {
    /// Create an empty parent set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of child sets (deduplicating and sorting for a
    /// canonical representation).
    pub fn from_children<I>(children: I) -> Self
    where
        I: IntoIterator<Item = ChildSet>,
    {
        let set: BTreeSet<ChildSet> = children.into_iter().collect();
        Self { children: Arc::new(set.into_iter().collect()) }
    }

    /// Add a child set (ignored if an identical child set is already present).
    pub fn insert(&mut self, child: ChildSet) -> bool {
        match self.children.binary_search(&child) {
            Ok(_) => false,
            Err(pos) => {
                Arc::make_mut(&mut self.children).insert(pos, child);
                true
            }
        }
    }

    /// Remove a child set; returns `true` if it was present.
    pub fn remove(&mut self, child: &ChildSet) -> bool {
        match self.children.binary_search(child) {
            Ok(pos) => {
                Arc::make_mut(&mut self.children).remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// `true` if the given child set is present.
    pub fn contains(&self, child: &ChildSet) -> bool {
        self.children.binary_search(child).is_ok()
    }

    /// Number of child sets (`s`).
    pub fn num_children(&self) -> usize {
        self.children.len()
    }

    /// Maximum child-set size (`h`); 0 for an empty parent set.
    pub fn max_child_size(&self) -> usize {
        self.children.iter().map(BTreeSet::len).max().unwrap_or(0)
    }

    /// Total number of elements across all child sets (`n`).
    pub fn total_elements(&self) -> usize {
        self.children.iter().map(BTreeSet::len).sum()
    }

    /// `true` when there are no child sets.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Iterate over the child sets in canonical (sorted) order.
    pub fn children(&self) -> &[ChildSet] {
        &self.children
    }

    /// Hash of one child set under the shared seed (the `O(log s)`-bit pairwise
    /// independent child hash of Algorithms 1 and 2, realized as 64 bits).
    pub fn child_hash(child: &ChildSet, seed: u64) -> u64 {
        hash_u64_set(child.iter().copied(), split_seed(seed, 0xC41D))
    }

    /// The running form of [`SetOfSets::child_hash`], for a caller that walks a
    /// child's elements anyway: `finish` after inserting them all is that hash.
    pub fn child_hasher(seed: u64) -> SetHasher {
        SetHasher::new(split_seed(seed, 0xC41D))
    }

    /// Hashes of all child sets, in the same order as [`SetOfSets::children`].
    pub fn child_hashes(&self, seed: u64) -> Vec<u64> {
        self.children.iter().map(|c| Self::child_hash(c, seed)).collect()
    }

    /// Order-independent hash of the whole parent set, used by the multi-attempt
    /// protocols to verify that Bob recovered Alice's set of sets exactly
    /// ("Alice can send Bob a hash of her whole set of sets", Section 3.2).
    pub fn parent_hash(&self, seed: u64) -> u64 {
        Self::parent_hash_of(self.child_hashes(seed), seed)
    }

    /// [`SetOfSets::parent_hash`] from child hashes the caller already holds.
    pub fn parent_hash_of(child_hashes: impl IntoIterator<Item = u64>, seed: u64) -> u64 {
        hash_u64_set(child_hashes, split_seed(seed, 0xFA7E))
    }

    /// The child sets keyed by their [`SetOfSets::child_hash`] under `seed`: one
    /// `O(n)` hashing pass, after which each of the `O(d̂)` differing children a
    /// protocol asks for is a constant-time look-up. Of two children with equal
    /// hashes the first in canonical order is kept.
    pub fn children_by_hash(&self, seed: u64) -> HashMap<u64, &ChildSet> {
        // Reversed, so that on a hash collision the earlier child overwrites.
        self.child_hashes(seed).into_iter().zip(self.children.iter()).rev().collect()
    }

    /// Canonical fixed-width byte encoding of a child set: element count followed by
    /// the sorted elements, zero-padded to `max_size` element slots. This is the
    /// "treat each child set as an item from a universe of size `Σ C(u, i)`" encoding
    /// of the naive protocol (Theorem 3.3) and of the fallback table `T_*` in
    /// Algorithm 2.
    pub fn encode_child_fixed(child: &ChildSet, max_size: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + 8 * max_size);
        Self::encode_child_fixed_into(child, max_size, &mut out);
        out
    }

    /// [`SetOfSets::encode_child_fixed`] into a caller-provided buffer (cleared
    /// first), so bulk encoders can reuse one allocation across all children.
    pub fn encode_child_fixed_into(child: &ChildSet, max_size: usize, out: &mut Vec<u8>) {
        assert!(
            child.len() <= max_size,
            "child set of size {} exceeds the fixed encoding width {max_size}",
            child.len()
        );
        out.clear();
        out.extend_from_slice(&(child.len() as u16).to_le_bytes());
        for &x in child {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out.resize(2 + 8 * max_size, 0);
    }

    /// Inverse of [`SetOfSets::encode_child_fixed`].
    pub fn decode_child_fixed(bytes: &[u8]) -> Option<ChildSet> {
        let (count, slots) = bytes.split_first_chunk::<2>()?;
        let count = Claimed::new(u16::from_le_bytes(*count).into()).items_in(slots, 8).ok()?;
        let (elements, padding) = slots.split_at(8 * count);
        let child: ChildSet = elements
            .chunks_exact(8)
            .map(|x| u64::from_le_bytes(x.try_into().expect("8 bytes")))
            .collect();
        // Padding must be all zeros and the elements distinct, otherwise the
        // bytes were not a valid encoding.
        (padding.iter().all(|&b| b == 0) && child.len() == count).then_some(child)
    }
}

impl FromIterator<ChildSet> for SetOfSets {
    fn from_iter<T: IntoIterator<Item = ChildSet>>(iter: T) -> Self {
        Self::from_children(iter)
    }
}

impl Encode for SetOfSets {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_uvarint(buf, self.children.len() as u64);
        for child in self.children.iter() {
            write_uvarint(buf, child.len() as u64);
            for &x in child {
                x.encode(buf);
            }
        }
    }
}

impl Decode for SetOfSets {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        // A child takes at least its length byte, an element eight bytes; the
        // children are collected as they parse, with nothing reserved ahead.
        let s = Claimed::decode(buf)?.items_in(buf, 1)?;
        (0..s)
            .map(|_| {
                let len = Claimed::decode(buf)?.items_in(buf, 8)?;
                (0..len).map(|_| u64::decode(buf)).collect()
            })
            .collect()
    }
}

/// Shared protocol parameters for the set-of-sets protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SosParams {
    /// Public-coin seed shared by Alice and Bob.
    pub seed: u64,
    /// Maximum child-set size `h` the encodings must accommodate (a universe
    /// parameter both parties know).
    pub max_child_size: usize,
}

impl SosParams {
    /// Create parameters from a seed and the universe bound on child-set size.
    pub fn new(seed: u64, max_child_size: usize) -> Self {
        Self { seed, max_child_size: max_child_size.max(1) }
    }

    /// Derive a sub-seed for a protocol role.
    pub fn role_seed(&self, role: u64) -> u64 {
        split_seed(self.seed, role)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child(values: &[u64]) -> ChildSet {
        values.iter().copied().collect()
    }

    #[test]
    fn construction_deduplicates_and_sorts() {
        let sos = SetOfSets::from_children([child(&[3, 1]), child(&[1, 3]), child(&[5])]);
        assert_eq!(sos.num_children(), 2);
        assert!(sos.contains(&child(&[1, 3])));
        assert!(sos.contains(&child(&[5])));
    }

    #[test]
    fn insert_and_remove() {
        let mut sos = SetOfSets::new();
        assert!(sos.insert(child(&[1, 2])));
        assert!(!sos.insert(child(&[2, 1])), "duplicate must be rejected");
        assert_eq!(sos.num_children(), 1);
        assert!(sos.remove(&child(&[1, 2])));
        assert!(!sos.remove(&child(&[1, 2])));
        assert!(sos.is_empty());
    }

    #[test]
    fn size_accessors() {
        let sos = SetOfSets::from_children([child(&[1, 2, 3]), child(&[9]), child(&[4, 5])]);
        assert_eq!(sos.num_children(), 3);
        assert_eq!(sos.max_child_size(), 3);
        assert_eq!(sos.total_elements(), 6);
    }

    #[test]
    fn child_hash_is_content_based() {
        let a = child(&[1, 2, 3]);
        let b = child(&[3, 2, 1]);
        let c = child(&[1, 2, 4]);
        assert_eq!(SetOfSets::child_hash(&a, 7), SetOfSets::child_hash(&b, 7));
        assert_ne!(SetOfSets::child_hash(&a, 7), SetOfSets::child_hash(&c, 7));
        assert_ne!(SetOfSets::child_hash(&a, 7), SetOfSets::child_hash(&a, 8));
    }

    #[test]
    fn parent_hash_detects_any_change() {
        let sos = SetOfSets::from_children([child(&[1, 2]), child(&[3])]);
        let mut changed = sos.clone();
        changed.remove(&child(&[3]));
        changed.insert(child(&[3, 4]));
        assert_ne!(sos.parent_hash(5), changed.parent_hash(5));
        assert_eq!(sos.parent_hash(5), sos.clone().parent_hash(5));
    }

    #[test]
    fn children_by_hash_finds_children() {
        let sos = SetOfSets::from_children([child(&[1, 2]), child(&[3])]);
        let h = SetOfSets::child_hash(&child(&[3]), 9);
        let by_hash = sos.children_by_hash(9);
        assert_eq!(by_hash.len(), 2);
        assert_eq!(by_hash.get(&h), Some(&&child(&[3])));
        assert_eq!(by_hash.get(&(h ^ 1)), None);
    }

    #[test]
    fn fixed_encoding_roundtrips() {
        for c in [child(&[]), child(&[7]), child(&[1, 2, 3, u64::MAX])] {
            let bytes = SetOfSets::encode_child_fixed(&c, 6);
            assert_eq!(bytes.len(), 2 + 8 * 6);
            assert_eq!(SetOfSets::decode_child_fixed(&bytes), Some(c));
        }
    }

    #[test]
    fn fixed_encoding_rejects_garbage() {
        assert_eq!(SetOfSets::decode_child_fixed(&[]), None);
        // Claims 3 elements but provides bytes for only 1.
        let mut bytes = vec![3, 0];
        bytes.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(SetOfSets::decode_child_fixed(&bytes), None);
        // Non-zero padding.
        let mut bytes = SetOfSets::encode_child_fixed(&child(&[1]), 4);
        *bytes.last_mut().unwrap() = 1;
        assert_eq!(SetOfSets::decode_child_fixed(&bytes), None);
    }

    #[test]
    #[should_panic(expected = "exceeds the fixed encoding width")]
    fn fixed_encoding_enforces_max_size() {
        let _ = SetOfSets::encode_child_fixed(&child(&[1, 2, 3]), 2);
    }

    #[test]
    fn wire_roundtrip() {
        let sos = SetOfSets::from_children([child(&[1, 2]), child(&[3, 4, 5]), child(&[])]);
        let bytes = sos.to_bytes();
        assert_eq!(SetOfSets::from_bytes(&bytes).unwrap(), sos);
    }

    #[test]
    fn params_derive_distinct_role_seeds() {
        let p = SosParams::new(3, 10);
        assert_ne!(p.role_seed(1), p.role_seed(2));
        assert_eq!(p.max_child_size, 10);
        assert_eq!(SosParams::new(3, 0).max_child_size, 1);
    }
}
