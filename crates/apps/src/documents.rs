//! Document collections represented by shingles (Section 1, after Broder 1997).
//!
//! "Consecutive blocks of k words of a document are hashed into numbers, and a
//! subset of these numbers are used as a signature for the document ... A collection
//! of documents would then correspond to sets of sets, and in cases where two
//! collections had some documents that were similar (instead of exact matches), the
//! corresponding sets would only have a small number of differences. Reconciling
//! collections of documents could start by reconciling the sets of sets
//! corresponding to the collection, to find documents in one collection with no
//! similar document in another collection."

use recon_base::hash::hash_bytes;
use recon_base::ReconError;
use recon_protocol::{Amplification, Outcome, SessionBuilder};
use recon_sos::{session, SetOfSets, SosParams};
use std::collections::BTreeSet;

/// Compute the `k`-word shingle set of a document: every window of `k` consecutive
/// (whitespace-separated, lower-cased) words is hashed to a 64-bit value.
pub fn shingles(text: &str, k: usize, seed: u64) -> BTreeSet<u64> {
    assert!(k >= 1, "shingle width must be at least 1");
    let words: Vec<String> = text
        .split_whitespace()
        .map(|w| w.to_lowercase().chars().filter(|c| c.is_alphanumeric()).collect::<String>())
        .filter(|w| !w.is_empty())
        .collect();
    let mut out = BTreeSet::new();
    if words.len() < k {
        if !words.is_empty() {
            out.insert(hash_bytes(words.join(" ").as_bytes(), seed));
        }
        return out;
    }
    for window in words.windows(k) {
        out.insert(hash_bytes(window.join(" ").as_bytes(), seed));
    }
    out
}

/// A collection of documents, held as raw text plus the derived shingle sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Collection {
    shingle_width: usize,
    seed: u64,
    documents: Vec<String>,
}

impl Collection {
    /// Create an empty collection using `k`-word shingles.
    pub fn new(shingle_width: usize, seed: u64) -> Self {
        Self { shingle_width, seed, documents: Vec::new() }
    }

    /// Add a document.
    pub fn add_document(&mut self, text: impl Into<String>) {
        self.documents.push(text.into());
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// `true` if the collection has no documents.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// The documents.
    pub fn documents(&self) -> &[String] {
        &self.documents
    }

    /// The collection as a set of shingle sets.
    pub fn as_set_of_sets(&self) -> SetOfSets {
        SetOfSets::from_children(
            self.documents.iter().map(|d| shingles(d, self.shingle_width, self.seed)),
        )
    }

    /// Largest shingle-set size in the collection.
    pub fn max_shingles(&self) -> usize {
        self.as_set_of_sets().max_child_size()
    }
}

/// The outcome of comparing a remote collection against a local one via set-of-sets
/// reconciliation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionDiffReport {
    /// Shingle sets present in both collections unchanged (exact duplicates).
    pub exact_duplicates: usize,
    /// Pairs (remote shingle set, closest local shingle set, shingle difference) for
    /// remote documents that are similar-but-not-identical to a local document.
    pub near_duplicates: Vec<(usize, usize, usize)>,
    /// Indices (into the recovered remote set-of-sets) of remote documents with no
    /// similar local document ("fresh" documents that must be fetched in full).
    pub fresh_documents: Vec<usize>,
}

/// Reconcile a local collection against a remote one: recover the remote collection's
/// shingle sets with the cascading set-of-sets protocol and classify each remote
/// document as an exact duplicate, a near duplicate (shingle difference at most
/// `near_threshold`) or fresh.
///
/// `d` bounds the total shingle-level difference between the two collections (the
/// quantity the set-of-sets protocols are parameterized by).
pub fn reconcile_collections(
    remote: &Collection,
    local: &Collection,
    d: usize,
    near_threshold: usize,
    seed: u64,
) -> Result<Outcome<CollectionDiffReport>, ReconError> {
    let remote_sos = remote.as_set_of_sets();
    let local_sos = local.as_set_of_sets();
    let max_child = remote_sos.max_child_size().max(local_sos.max_child_size()).max(1);
    let (params, amp) = (SosParams::new(seed, max_child), Amplification::replicate(4));
    let outcome = SessionBuilder::new(seed).run(
        session::cascading_known_alice(&remote_sos, d.max(1), &params, amp)?,
        session::cascading_known_bob(&local_sos, &params, amp),
    )?;
    // Classify every recovered remote shingle set against the local collection.
    let mut report = CollectionDiffReport {
        exact_duplicates: 0,
        near_duplicates: Vec::new(),
        fresh_documents: Vec::new(),
    };
    for (idx, remote_doc) in outcome.recovered.children().iter().enumerate() {
        if local_sos.contains(remote_doc) {
            report.exact_duplicates += 1;
            continue;
        }
        let best = (local_sos.children().iter().enumerate())
            .map(|(j, l)| (remote_doc.symmetric_difference(l).count(), j))
            .min();
        match best {
            Some((diff, j)) if diff <= near_threshold => {
                report.near_duplicates.push((idx, j, diff));
            }
            _ => report.fresh_documents.push(idx),
        }
    }
    Ok(Outcome { recovered: report, stats: outcome.stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC_A: &str = "the quick brown fox jumps over the lazy dog near the river bank";
    const DOC_B: &str = "reconciliation of sets of sets generalizes set reconciliation neatly";
    const DOC_C: &str = "invertible bloom lookup tables support insertion deletion and listing";

    #[test]
    fn shingles_are_window_hashes() {
        let s = shingles("a b c d", 2, 1);
        assert_eq!(s.len(), 3); // ab, bc, cd
        assert_eq!(shingles("a b c d", 2, 1), s, "deterministic");
        assert_ne!(shingles("a b c d", 2, 2), s, "seed-dependent");
        // Case and punctuation are normalized.
        assert_eq!(shingles("A, b! c d", 2, 1), s);
    }

    #[test]
    fn short_documents_get_a_single_shingle() {
        assert_eq!(shingles("hello", 3, 1).len(), 1);
        assert!(shingles("", 3, 1).is_empty());
    }

    #[test]
    fn collection_round_trip() {
        let mut c = Collection::new(3, 7);
        assert!(c.is_empty());
        c.add_document(DOC_A);
        c.add_document(DOC_B);
        assert_eq!(c.len(), 2);
        let sos = c.as_set_of_sets();
        assert_eq!(sos.num_children(), 2);
        assert!(c.max_shingles() >= 5);
    }

    #[test]
    fn identical_collections_are_all_exact_duplicates() {
        let mut c = Collection::new(3, 9);
        for doc in [DOC_A, DOC_B, DOC_C] {
            c.add_document(doc);
        }
        let Outcome { recovered: report, stats } = reconcile_collections(&c, &c, 2, 4, 11).unwrap();
        assert_eq!(report.exact_duplicates, 3);
        assert!(report.near_duplicates.is_empty());
        assert!(report.fresh_documents.is_empty());
        assert!(stats.total_bytes() > 0);
    }

    #[test]
    fn edited_documents_are_near_duplicates() {
        let mut local = Collection::new(3, 13);
        local.add_document(DOC_A);
        local.add_document(DOC_B);
        let mut remote = Collection::new(3, 13);
        // One word changed in DOC_A: a handful of shingles differ.
        remote.add_document(DOC_A.replace("lazy", "sleepy"));
        remote.add_document(DOC_B);
        let report = reconcile_collections(&remote, &local, 12, 8, 17).unwrap().recovered;
        assert_eq!(report.exact_duplicates, 1);
        assert_eq!(report.near_duplicates.len(), 1);
        assert!(report.fresh_documents.is_empty());
        let (_, _, diff) = report.near_duplicates[0];
        assert!((1..=8).contains(&diff));
    }

    #[test]
    fn brand_new_documents_are_reported_fresh() {
        let mut local = Collection::new(3, 19);
        local.add_document(DOC_A);
        let mut remote = Collection::new(3, 19);
        remote.add_document(DOC_A);
        remote.add_document(DOC_C);
        let d = shingles(DOC_C, 3, 19).len() + 2;
        let report = reconcile_collections(&remote, &local, d, 3, 23).unwrap().recovered;
        assert_eq!(report.exact_duplicates, 1);
        assert_eq!(report.fresh_documents.len(), 1);
    }
}
