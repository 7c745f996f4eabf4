//! # recon-apps
//!
//! The application substrates the paper's introduction motivates set-of-sets
//! reconciliation with:
//!
//! * [`database`] — relational databases of binary data with labeled columns but
//!   unlabeled rows: each row *is* a set (the columns where it holds a 1), so two
//!   databases that differ by `d` flipped bits are exactly an instance of
//!   set-of-sets reconciliation (Section 1 and the Table 1 workload).
//! * [`documents`] — collections of documents represented by shingles (Broder):
//!   each document becomes a set of hashed `k`-word windows, a collection becomes a
//!   set of sets, and reconciling two collections identifies exact duplicates,
//!   near-duplicates (small shingle difference) and fresh documents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod database;
pub mod documents;

pub use database::BinaryTable;
pub use documents::{reconcile_collections, Collection, CollectionDiffReport};
