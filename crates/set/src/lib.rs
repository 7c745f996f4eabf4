//! # recon-set
//!
//! Set reconciliation — the building block the set-of-sets protocols of
//! *"Reconciling Graphs and Sets of Sets"* (Mitzenmacher & Morgan, PODS 2018) are
//! assembled from.
//!
//! Alice holds a set `S_A`, Bob a set `S_B`, both over a universe of `w`-bit words,
//! and their symmetric difference has size at most `d`. At the end of a (one-way)
//! protocol Bob holds `S_A`. Three protocols are implemented:
//!
//! | Protocol | Paper reference | Rounds | Communication | Time |
//! |----------|-----------------|--------|---------------|------|
//! | [`IbltSetProtocol`] | Corollary 2.2 | 1 | `O(d log u)` bits | `O(n)` |
//! | [`CharPolyProtocol`] | Theorem 2.3 | 1 | `O(d log u)` bits | `O(n·min(d, log² n) + d³)` |
//! | [`session::unknown_alice`] / [`session::unknown_bob`] | Corollary 3.2 | 2 | `O(d log u)` bits | `O(n log d)` |
//!
//! plus the counted-set type of Section 3.4 in [`multiset`]. [`session`] holds
//! each protocol's two parties; `recon_protocol::SessionBuilder::run` drives a
//! pair in memory, an `Endpoint` over a framed transport.
//!
//! The IBLT protocol is fast and succeeds with probability `1 − 1/poly(d)`; the
//! characteristic-polynomial protocol is slower but exact (it fails only if the
//! difference bound was wrong), which is why the multi-round set-of-sets protocol of
//! Theorem 3.9 uses it for child sets with very small differences.
//!
//! ```
//! use std::collections::HashSet;
//! use recon_set::IbltSetProtocol;
//!
//! let alice: HashSet<u64> = (0..1000).collect();
//! let bob: HashSet<u64> = (10..1010).collect();
//!
//! let protocol = IbltSetProtocol::new(42);
//! let digest = protocol.digest(&alice, 32);          // Alice → Bob, one message
//! let recovered = protocol.reconcile(&digest, &bob).unwrap();
//! assert_eq!(recovered, alice);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod charpoly_protocol;
pub mod diff;
pub mod iblt_protocol;
pub mod multiset;
pub mod session;

pub use charpoly_protocol::{CharPolyDigest, CharPolyProtocol};
pub use diff::SetDiff;
pub use iblt_protocol::{full_digest_builds, IbltSetProtocol, SetDigest};
pub use multiset::Multiset;
