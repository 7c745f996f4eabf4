//! The result of a set reconciliation: a directed symmetric difference.

use recon_base::hash::SetHasher;
use std::collections::HashSet;

/// A decoded set difference, oriented from Bob's perspective.
///
/// `missing` are the elements Alice has and Bob lacks (`S_A \ S_B`); `extra` are the
/// elements Bob has and Alice lacks (`S_B \ S_A`). Applying the difference to Bob's
/// set yields Alice's set, which is the one-way reconciliation goal of the paper.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SetDiff {
    /// Elements in Alice's set but not Bob's (`S_A \ S_B`).
    pub missing: Vec<u64>,
    /// Elements in Bob's set but not Alice's (`S_B \ S_A`).
    pub extra: Vec<u64>,
}

impl SetDiff {
    /// Total number of differing elements (`|S_A ⊕ S_B|`).
    pub fn len(&self) -> usize {
        self.missing.len() + self.extra.len()
    }

    /// `true` when the two sets were identical.
    pub fn is_empty(&self) -> bool {
        self.missing.is_empty() && self.extra.is_empty()
    }

    /// Apply the difference to Bob's set, producing Alice's set — or `None`
    /// when it does not fit `local`: an `extra` element Bob lacks, or a
    /// `missing` one he already has.
    pub fn apply(&self, local: &HashSet<u64>) -> Option<HashSet<u64>> {
        let mut out = local.clone();
        let fits =
            self.extra.iter().all(|x| out.remove(x)) && self.missing.iter().all(|&x| out.insert(x));
        fits.then_some(out)
    }

    /// Whether `local` patched by this difference has `cardinality` elements and
    /// set hash `set_hash` under `seed` — every Bob's check of a decode. It adds
    /// the difference to `local`'s hash, so it holds only after [`SetDiff::apply`]
    /// (or an equally strict patch) accepted the difference.
    pub fn verify<'a>(
        &self,
        local: impl IntoIterator<Item = &'a u64>,
        seed: u64,
        cardinality: u64,
        set_hash: u64,
    ) -> bool {
        let mut hasher = SetHasher::new(seed);
        local.into_iter().for_each(|&x| hasher.insert(x));
        self.extra.iter().for_each(|&x| hasher.remove(x));
        self.missing.iter().for_each(|&x| hasher.insert(x));
        hasher.count() == cardinality && hasher.finish() == set_hash
    }

    /// Normalize for comparisons in tests: sort both components.
    pub fn sorted(mut self) -> SetDiff {
        self.missing.sort_unstable();
        self.extra.sort_unstable();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_reconstructs_alice() {
        let bob: HashSet<u64> = [1, 2, 3, 4].into_iter().collect();
        let diff = SetDiff { missing: vec![10, 11], extra: vec![2, 4] };
        let alice = diff.apply(&bob).unwrap();
        assert_eq!(alice, [1, 3, 10, 11].into_iter().collect());
    }

    #[test]
    fn empty_diff_is_identity() {
        let bob: HashSet<u64> = (0..50).collect();
        let diff = SetDiff::default();
        assert!(diff.is_empty());
        assert_eq!(diff.len(), 0);
        assert_eq!(diff.apply(&bob).unwrap(), bob);
    }

    #[test]
    fn sorted_orders_components() {
        let diff = SetDiff { missing: vec![3, 1], extra: vec![9, 2] }.sorted();
        assert_eq!(diff.missing, vec![1, 3]);
        assert_eq!(diff.extra, vec![2, 9]);
        assert_eq!(diff.len(), 4);
    }
}
