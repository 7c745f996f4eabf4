//! Multiset reconciliation (Section 3.4 of the paper).
//!
//! "We create a set from our multiset, where if an element x occurs in the multiset
//! k times, then (x, k) is an element of the set. After reconciling this set,
//! recovering the corresponding multiset is immediate. All of the bounds stay the
//! same (d can only decrease), except that u grows to u · n."
//!
//! [`Multiset`] is the counted-set type and [`MultisetProtocol`] the IBLT-based
//! reconciliation of the derived `(element, multiplicity)` pair set, using 16-byte
//! IBLT keys to hold the pair.

use recon_base::hash::hash_u64_set;
use recon_base::rng::split_seed;
use recon_base::wire::{Decode, Encode, WireError};
use recon_base::ReconError;
use recon_iblt::{Iblt, IbltConfig};
use std::collections::HashMap;

/// A multiset of 64-bit elements (element → multiplicity, multiplicities ≥ 1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Multiset {
    counts: HashMap<u64, u64>,
}

impl Multiset {
    /// The empty multiset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a multiset from an iterator of elements (counting repetitions).
    pub fn from_elements<I: IntoIterator<Item = u64>>(elements: I) -> Self {
        let mut ms = Self::new();
        for x in elements {
            ms.insert(x);
        }
        ms
    }

    /// Add one occurrence of `x`.
    pub fn insert(&mut self, x: u64) {
        *self.counts.entry(x).or_insert(0) += 1;
    }

    /// Add `k` occurrences of `x`.
    pub fn insert_n(&mut self, x: u64, k: u64) {
        if k > 0 {
            *self.counts.entry(x).or_insert(0) += k;
        }
    }

    /// Remove one occurrence of `x`; returns `false` if `x` was not present.
    pub fn remove(&mut self, x: u64) -> bool {
        match self.counts.get_mut(&x) {
            Some(c) if *c > 1 => {
                *c -= 1;
                true
            }
            Some(_) => {
                self.counts.remove(&x);
                true
            }
            None => false,
        }
    }

    /// Multiplicity of `x` (0 if absent).
    pub fn count(&self, x: u64) -> u64 {
        self.counts.get(&x).copied().unwrap_or(0)
    }

    /// Number of distinct elements.
    pub fn distinct_len(&self) -> usize {
        self.counts.len()
    }

    /// Total number of occurrences.
    pub fn total_len(&self) -> u64 {
        self.counts.values().sum()
    }

    /// `true` if the multiset is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate over `(element, multiplicity)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&x, &c)| (x, c))
    }

    /// Size of the symmetric difference counted with multiplicity:
    /// `Σ_x |count_A(x) − count_B(x)|`.
    pub fn difference_size(&self, other: &Multiset) -> usize {
        let mut total = 0u64;
        for (&x, &c) in &self.counts {
            total += c.abs_diff(other.count(x));
        }
        for (&x, &c) in &other.counts {
            if !self.counts.contains_key(&x) {
                total += c;
            }
        }
        total as usize
    }

    /// The derived pair set `{(x, k) : x occurs k times}` described in Section 3.4.
    pub fn pair_set(&self) -> Vec<(u64, u64)> {
        self.iter().collect()
    }
}

impl FromIterator<u64> for Multiset {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        Self::from_elements(iter)
    }
}

/// Alice's one-round multiset digest: an IBLT over `(element, multiplicity)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct MultisetDigest {
    /// IBLT over 16-byte `(element, multiplicity)` keys.
    pub iblt: Iblt,
    /// Hash of the pair set, for verification.
    pub pair_hash: u64,
    /// Number of distinct elements in Alice's multiset.
    pub distinct: u64,
}

impl Encode for MultisetDigest {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.iblt.encode(buf);
        self.pair_hash.encode(buf);
        self.distinct.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.iblt.encoded_len() + 16
    }
}

impl Decode for MultisetDigest {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(MultisetDigest {
            iblt: <Iblt as Decode>::decode(buf)?,
            pair_hash: u64::decode(buf)?,
            distinct: u64::decode(buf)?,
        })
    }
}

/// One-round multiset reconciliation with a known bound on the number of element
/// *changes* (Section 3.4: the pair-set difference is at most twice the number of
/// changed elements, never more).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultisetProtocol {
    seed: u64,
    iblt_cfg: IbltConfig,
}

fn pair_key(x: u64, count: u64) -> [u8; 16] {
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&x.to_le_bytes());
    key[8..].copy_from_slice(&count.to_le_bytes());
    key
}

fn key_pair(key: &[u8]) -> (u64, u64) {
    let x = u64::from_le_bytes(key[..8].try_into().expect("16-byte key"));
    let c = u64::from_le_bytes(key[8..16].try_into().expect("16-byte key"));
    (x, c)
}

fn pair_hash_value(ms: &Multiset, seed: u64) -> u64 {
    hash_u64_set(ms.iter().map(|(x, c)| x.rotate_left(17) ^ c.wrapping_mul(0x9E37_79B9)), seed)
}

impl MultisetProtocol {
    /// Create a protocol instance from a shared seed.
    pub fn new(seed: u64) -> Self {
        Self { seed, iblt_cfg: IbltConfig::for_key_bytes(16, split_seed(seed, 0x3517)) }
    }

    /// Alice's side: digest her multiset for a bound of `d` changed element slots.
    ///
    /// A single logical change (e.g. one multiplicity bumped) alters at most two
    /// pairs of the derived pair set, so the IBLT is sized for `2d` keys.
    pub fn digest(&self, multiset: &Multiset, d: usize) -> MultisetDigest {
        let mut iblt = Iblt::with_expected_diff((2 * d).max(1), &self.iblt_cfg);
        for (x, c) in multiset.iter() {
            iblt.insert(&pair_key(x, c));
        }
        MultisetDigest {
            iblt,
            pair_hash: pair_hash_value(multiset, split_seed(self.seed, 0x3518)),
            distinct: multiset.distinct_len() as u64,
        }
    }

    /// Bob's side: recover Alice's multiset.
    pub fn reconcile(
        &self,
        digest: &MultisetDigest,
        local: &Multiset,
    ) -> Result<Multiset, ReconError> {
        let mut table = digest.iblt.clone();
        for (x, c) in local.iter() {
            table.delete(&pair_key(x, c));
        }
        let decoded = table.decode_in_place();
        if !decoded.complete {
            return Err(ReconError::PeelingFailure { remaining_cells: table.nonempty_cells() });
        }
        let mut recovered = local.clone();
        for key in &decoded.negative {
            let (x, c) = key_pair(key);
            // Bob had (x, c) but Alice does not: drop that multiplicity record.
            if recovered.count(x) == c {
                recovered.counts.remove(&x);
            } else {
                return Err(ReconError::ChecksumFailure);
            }
        }
        for key in &decoded.positive {
            let (x, c) = key_pair(key);
            if c == 0 || recovered.counts.contains_key(&x) {
                return Err(ReconError::ChecksumFailure);
            }
            recovered.counts.insert(x, c);
        }
        if recovered.distinct_len() as u64 != digest.distinct
            || pair_hash_value(&recovered, split_seed(self.seed, 0x3518)) != digest.pair_hash
        {
            return Err(ReconError::ChecksumFailure);
        }
        Ok(recovered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_multiset() -> Multiset {
        let mut ms = Multiset::new();
        for x in 0..500u64 {
            ms.insert_n(x, 1 + x % 4);
        }
        ms
    }

    #[test]
    fn multiset_basic_operations() {
        let mut ms = Multiset::new();
        assert!(ms.is_empty());
        ms.insert(7);
        ms.insert(7);
        ms.insert(9);
        assert_eq!(ms.count(7), 2);
        assert_eq!(ms.count(9), 1);
        assert_eq!(ms.count(1), 0);
        assert_eq!(ms.distinct_len(), 2);
        assert_eq!(ms.total_len(), 3);
        assert!(ms.remove(7));
        assert_eq!(ms.count(7), 1);
        assert!(ms.remove(7));
        assert_eq!(ms.count(7), 0);
        assert!(!ms.remove(7));
    }

    #[test]
    fn from_elements_counts_repetitions() {
        let ms = Multiset::from_elements([1, 1, 1, 2, 3, 3]);
        assert_eq!(ms.count(1), 3);
        assert_eq!(ms.count(2), 1);
        assert_eq!(ms.count(3), 2);
        let collected: Multiset = [1u64, 1, 2].into_iter().collect();
        assert_eq!(collected.count(1), 2);
    }

    #[test]
    fn difference_size_counts_multiplicity() {
        let a = Multiset::from_elements([1, 1, 2, 3]);
        let b = Multiset::from_elements([1, 2, 2, 4]);
        // |2-1| + |1-2| + |1-0| + |0-1| = 4
        assert_eq!(a.difference_size(&b), 4);
        assert_eq!(b.difference_size(&a), 4);
        assert_eq!(a.difference_size(&a), 0);
    }

    #[test]
    fn identical_multisets_reconcile() {
        let ms = sample_multiset();
        let protocol = MultisetProtocol::new(4);
        let digest = protocol.digest(&ms, 4);
        assert_eq!(protocol.reconcile(&digest, &ms).unwrap(), ms);
    }

    #[test]
    fn multiplicity_changes_reconcile() {
        let alice = sample_multiset();
        let mut bob = alice.clone();
        // Change multiplicities of a few elements and add/remove some.
        bob.insert(3);
        bob.insert(3);
        bob.remove(10);
        bob.counts.remove(&20);
        bob.insert_n(100_000, 5);
        let d = 8;
        let protocol = MultisetProtocol::new(11);
        let digest = protocol.digest(&alice, d);
        assert_eq!(protocol.reconcile(&digest, &bob).unwrap(), alice);
    }

    #[test]
    fn digest_roundtrips_through_wire() {
        let alice = sample_multiset();
        let protocol = MultisetProtocol::new(2);
        let digest = protocol.digest(&alice, 6);
        let bytes = digest.to_bytes();
        assert_eq!(bytes.len(), digest.encoded_len());
        let decoded = MultisetDigest::from_bytes(&bytes).unwrap();
        assert_eq!(protocol.reconcile(&decoded, &alice).unwrap(), alice);
    }

    #[test]
    fn undersized_digest_fails_detectably() {
        let alice = sample_multiset();
        let mut bob = Multiset::new();
        for x in 1000..1400u64 {
            bob.insert(x);
        }
        let protocol = MultisetProtocol::new(8);
        let digest = protocol.digest(&alice, 2);
        assert!(protocol.reconcile(&digest, &bob).is_err());
    }
}
