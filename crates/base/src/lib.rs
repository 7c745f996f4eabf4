//! # recon-base
//!
//! Shared substrate for the `recon` workspace, the Rust reproduction of
//! *"Reconciling Graphs and Sets of Sets"* (Mitzenmacher & Morgan, PODS 2018).
//!
//! The paper works in the word-RAM model with **public coins**: Alice and Bob share
//! random bits for free, which in practice means they share a small random seed from
//! which every hash function used by a protocol is derived (Section 2 of the paper).
//! This crate provides exactly that substrate:
//!
//! * [`rng`] — deterministic pseudo-random generators (`SplitMix64`, `Xoshiro256``),
//!   used both as the public-coin source and for workload generation,
//! * [`hash`] — strong 64-bit mixers for bucket selection, checksum hashing for
//!   IBLT cells, and order-independent set hashes,
//! * [`wire`] — a small, explicit binary encoding layer ([`wire::Encode`] /
//!   [`wire::Decode`]) so that every protocol message has a well-defined serialized
//!   size in bytes,
//! * [`comm`] — communication accounting ([`comm::CommStats`], [`comm::Transcript`])
//!   recording the direction, size and label of every message and the number of
//!   protocol rounds, mirroring how the paper states its communication bounds,
//! * [`error`] — the shared [`error::ReconError`] type naming every failure mode the
//!   paper discusses (peeling failures, checksum failures, failed matchings, …) plus
//!   the transport-level failures a lossy network adds, with
//!   [`error::ReconError::is_retryable`] classifying which are worth a fresh attempt
//!   (the caller owns the loop that re-runs a whole session).
//!
//! All higher-level crates (`recon-iblt`, `recon-set`, `recon-sos`, `recon-graph`,
//! `recon-apps`) build on these primitives and never use ambient randomness: given the
//! same seed, every protocol run in this workspace is bit-for-bit reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
pub mod error;
pub mod hash;
pub mod rng;
pub mod wire;

pub use comm::{CommStats, Direction, MessageStat, Transcript};
pub use error::ReconError;
pub use hash::{hash64, hash_bytes};
pub use rng::{SplitMix64, Xoshiro256};
pub use wire::{Claimed, Decode, Encode, WireError};
