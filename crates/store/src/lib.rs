//! # recon-store
//!
//! A persistent, incrementally-maintained sketch store and the long-lived
//! reconciliation daemon built on it.
//!
//! Every protocol in this workspace pays `O(n)` to build its IBLT and strata
//! sketches from the full key set before a single byte moves — at millions of
//! keys per replica, that *encode*, not the wire, dominates the cost of a
//! session. But every sketch here is a sum of per-element updates (XOR key
//! sums, signed counts, reversible hash folds), so maintenance is `O(k)` per
//! insert or delete while a rebuild is `O(n)`: exactly the asymmetry a
//! long-lived store exploits.
//!
//! * [`Replica`] — one key set plus its maintained sketches: an IBLT bank per
//!   ladder rung (difference bound), a [`StrataEstimator`] and an incremental
//!   set hash, all updated in place on mutation and **bit-identical** to a
//!   from-scratch build at every point (pinned by tests).
//! * [`SketchStore`] — a collection of named replicas over a pluggable
//!   [`StorageBackend`] ([`MemoryBackend`] or [`DirBackend`]): durable
//!   snapshots of each replica's parameters and key set plus a write-ahead
//!   mutation log, with torn-tail-tolerant replay so a crashed store recovers
//!   to the exact sketch a fresh rebuild of the surviving prefix would
//!   produce. No sketch is written to disk: opening a store rebuilds them.
//! * [`StoreDaemon`] / [`StoreClient`] — the store wired into the reactor
//!   [`Server`](recon_runtime::Server) as a long-lived TCP daemon speaking a
//!   small framed control protocol (`Open`/`Insert`/`Delete`/`Reconcile`/
//!   `Snapshot`/`Stat`/`Close`), serving reconciliation sessions straight from
//!   the cached sketches: `O(d)` per session, never `O(n)`.
//!
//! Daemon-served sessions reproduce the byte-exact envelopes, outcomes and
//! `CommStats` of a cold [`SessionBuilder`](recon_protocol::SessionBuilder)
//! run over the same sets — the sketches are maintained, not approximated.
//!
//! [`StrataEstimator`]: recon_estimator::StrataEstimator

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod client;
pub mod control;
pub mod daemon;
pub mod replica;
pub mod store;
pub mod wal;

pub use backend::{DirBackend, MemoryBackend, StorageBackend};
pub use client::{ReconcileReport, StoreClient};
pub use daemon::{StoreDaemon, StoreService};
pub use replica::{Replica, ReplicaParams};
pub use store::{SketchStore, StoreConfig, StoreStat};
pub use wal::WalOp;
