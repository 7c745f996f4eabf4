//! # recon-sos — set-of-sets reconciliation
//!
//! The core contribution of *"Reconciling Graphs and Sets of Sets"* (Mitzenmacher &
//! Morgan, PODS 2018): Alice and Bob each hold a parent set of `s` child sets, each
//! child set has at most `h` elements from a universe of size `u`, the total size is
//! `n`, and the total number of element-level differences under the minimum
//! difference matching between their child sets is `d`. At the end of a (one-way)
//! protocol Bob holds Alice's set of sets.
//!
//! Four protocols are implemented, matching the paper's Section 3 and Table 1:
//!
//! | Module | Paper result | Rounds | Communication (bits) |
//! |--------|--------------|--------|-----------------------|
//! | [`naive`] | Thm 3.3 / 3.4 | 1 / 2 | `O(d̂ · min(h log u, u))` |
//! | [`iblt_of_iblts`] | Thm 3.5 / Cor 3.6 (Algorithm 1) | 1 / `O(log d)` | `O(d̂ d log u + d̂ log s)` |
//! | [`cascading`] | Thm 3.7 / Cor 3.8 (Algorithm 2) | 1 / `O(log d)` | `O(d log min(d,h) log u + d log s)` |
//! | [`multiround`] | Thm 3.9 / 3.10 | 3 / 4 | `O(d log u + d̂ log s + d̂ log h)` (up to log(1/δ) factors) |
//!
//! Each family is a pair of parties in [`session`]: Alice and Bob each build
//! theirs from their own data, and `recon_protocol::SessionBuilder::run` drives
//! the pair in memory (an `Endpoint` drives it over a framed transport). Plus:
//!
//! * [`types`] — the [`SetOfSets`] data model, child hashes and parent hashes,
//! * [`matching`] — the exact (minimum-cost matching) and relaxed difference metrics
//!   the bounds are stated against,
//! * [`workload`] — random instance generation with ground-truth difference bounds,
//! * [`multiset_of_multisets`] — the Section 3.4 transformation to sets/multisets of
//!   multisets, used by the graph and forest protocols of `recon-graph`.
//!
//! ```
//! use recon_protocol::{Amplification, SessionBuilder};
//! use recon_sos::workload::{generate_pair, WorkloadParams};
//! use recon_sos::{session, SosParams};
//!
//! // A database-like workload: 64 child sets of up to 16 elements, 6 changed cells.
//! let workload = WorkloadParams::new(64, 16, 1 << 30);
//! let (alice, bob) = generate_pair(&workload, 6, 42);
//!
//! // Theorem 3.7 with up to four replicated attempts.
//! let (params, amp) = (SosParams::new(7, workload.max_child_size), Amplification::replicate(4));
//! let outcome = SessionBuilder::new(params.seed)
//!     .run(
//!         session::cascading_known_alice(&alice, 6, &params, amp).unwrap(),
//!         session::cascading_known_bob(&bob, &params, amp),
//!     )
//!     .unwrap();
//! assert_eq!(outcome.recovered, alice);
//! println!("reconciled with {}", outcome.stats);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cascading;
pub mod iblt_of_iblts;
pub mod matching;
pub mod multiround;
pub mod multiset_of_multisets;
pub mod naive;
pub mod session;
pub mod types;
pub mod workload;

pub use matching::{child_difference, differing_children, matching_difference, relaxed_difference};
pub use multiset_of_multisets::{PairPacking, SetOfMultisets};
pub use recon_estimator::L0Config;
pub use types::{ChildSet, SetOfSets, SosParams};
