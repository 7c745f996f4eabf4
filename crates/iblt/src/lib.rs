//! # recon-iblt
//!
//! Invertible Bloom Lookup Tables (IBLTs), the workhorse data structure of
//! *"Reconciling Graphs and Sets of Sets"* (Mitzenmacher & Morgan, PODS 2018) and of
//! practical set reconciliation in general (Goodrich & Mitzenmacher 2011; Eppstein,
//! Goodrich, Uyeda & Varghese 2011).
//!
//! An IBLT is a hash table with `k` hash functions and `m` cells. Each cell stores a
//! signed **count**, the **XOR of all keys** hashed to it, and the **XOR of a
//! checksum** of those keys. Inserting a key increments the counts of its `k` cells
//! and XORs the key and its checksum in; deleting does the reverse (counts may go
//! negative, so the table can represent a *difference* of two sets). Subtracting
//! Bob's table from Alice's leaves only the symmetric difference, which is recovered
//! by **peeling**: a cell whose count is ±1, whose checksum matches its key sum and
//! whose key sum hashes back to it holds one key, to report and remove, possibly exposing more
//! such cells (Theorem 2.1 of the paper: `m = O(d)` cells suffice to list `d` keys
//! with probability `1 − O(1/poly(m))`).
//!
//! ## Design notes
//!
//! * Keys are **fixed-width byte strings** (`key_bytes` per table). The set-of-sets
//!   protocols store entire serialized child IBLTs as keys of an outer IBLT
//!   (Algorithms 1 and 2), so restricting keys to `u64` would not work. Convenience
//!   methods for `u64` keys are provided.
//! * Hashing is **partitioned**: hash function `j` owns cells
//!   `[j·m/k, (j+1)·m/k)`, so the `k` cells of a key are always distinct, exactly as
//!   the paper assumes ("we assume these cells are distinct; for example, one can use
//!   a partitioned hash table").
//! * All hash functions are derived from a single seed (public coins), so Alice and
//!   Bob build structurally identical tables without communication.
//! * Failure modes are explicit: [`DecodeResult::complete`] distinguishes a clean
//!   decode from a peeling failure, and the checksum and the bucket re-hash
//!   reject cells that *look* pure but are not.
//! * Peeling failures are not final: the [`rescue`] module collects the
//!   residual cells of a stalled peel into a sparse GF(2) system and finishes
//!   the decode algebraically, verifying every recovered key against its
//!   checksum before accepting it. This is what lets the tuned sizing
//!   ([`IbltConfig::tuned_for_u64_keys`]) run near the peeling wall instead of
//!   at the classic `2.2·d`.
//!
//! ## Example
//!
//! ```
//! use recon_iblt::{Iblt, IbltConfig};
//!
//! let cfg = IbltConfig::for_u64_keys(1234);
//! // Alice encodes her set, Bob encodes his; the difference is {3, 4} vs {100}.
//! let mut alice = Iblt::with_expected_diff(8, &cfg);
//! for x in [1u64, 2, 3, 4] { alice.insert_u64(x); }
//! let mut bob = Iblt::with_expected_diff(8, &cfg);
//! for x in [1u64, 2, 100] { bob.insert_u64(x); }
//!
//! let diff = alice.subtract(&bob).expect("same geometry");
//! let decoded = diff.decode();
//! assert!(decoded.complete);
//! let mut only_alice = decoded.positive_u64();
//! only_alice.sort_unstable();
//! assert_eq!(only_alice, vec![3, 4]);
//! assert_eq!(decoded.negative_u64(), vec![100]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernels;
pub mod rescue;
mod table;

pub use rescue::{decode_rescues, rescue_failures, DecodeBudget};
pub use table::{DecodeResult, Iblt, IbltConfig};
