//! The counted-set type of Section 3.4.
//!
//! "We create a set from our multiset, where if an element x occurs in the multiset
//! k times, then (x, k) is an element of the set." That reduction is written once,
//! as `recon_sos::multiset_of_multisets::PairPacking`; [`Multiset`] is the value
//! it packs, and the graph schemes build their signatures from it.

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
}

impl FromIterator<u64> for Multiset {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        Self::from_elements(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
