//! # recon-protocol
//!
//! The sans-I/O protocol layer of the `recon` workspace: a uniform way to express
//! every reconciliation protocol of *"Reconciling Graphs and Sets of Sets"*
//! (Mitzenmacher & Morgan, PODS 2018) as a pair of [`Party`] state machines
//! exchanging tagged, wire-encoded [`Envelope`]s, driven in memory by
//! [`SessionBuilder::run`] or over a framed transport by an [`Endpoint`].
//!
//! The paper presents its results as *message-passing protocols* — explicit
//! rounds, explicit bit budgets, two parties. This crate makes that structure the
//! API:
//!
//! * [`Envelope`] — one message: a tag, a transcript label, a wire-encoded
//!   payload, and a [`Meter`] describing how the message is charged (new round,
//!   parallel, aggregate, or uncharged control traffic).
//! * [`Party`] — one side of a protocol: `poll_send()` and `handle(envelope)`.
//!   No sockets, no transcripts, no shared state: the same machine runs in tests,
//!   across processes, or (later) over async transports.
//! * [`SessionBuilder`] — the one way to run a session in memory: it carries the
//!   shared [`SessionConfig`] the party factories consume, and its `run` moves
//!   envelopes between an Alice and a Bob until Bob produces his output,
//!   returning an [`Outcome`] with the recovered data and the [`CommStats`] of a
//!   [`Transcript`] every envelope was recorded into.
//! * [`Frame`] / [`Transport`] — the multiplexing layer: session-tagged,
//!   length-delimited frames carried by one framing implementation over any
//!   non-blocking byte stream (in-memory pipes, TCP, OS pipes), reassembled by an incremental [`FrameDecoder`].
//! * [`Endpoint`] — the non-blocking driver: many concurrent [`SessionCore`]s
//!   over one framed transport, with per-session transcripts reproducing the
//!   single-session accounting exactly.
//! * [`amplify`] — the paper's two amplification patterns (replication under
//!   fresh hash functions, repeated doubling of the difference bound) as reusable
//!   party combinators, plus estimator-round helpers.
//! * [`Nested`] — embeds one protocol inside another with aggregate charging,
//!   the way the graph theorems consume set-of-sets reconciliation.
//!
//! The concrete protocol families implement their parties in their own crates
//! (`recon-set`, `recon-sos`, `recon-graph`) on top of this layer.
//!
//! [`CommStats`]: recon_base::CommStats
//! [`Transcript`]: recon_base::Transcript

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amplify;
pub mod control;
pub mod endpoint;
pub mod envelope;
pub mod fault;
pub mod frame;
pub mod nested;
pub mod party;
pub mod pool;
pub mod session;
pub mod transport;

pub use amplify::{
    doubled_bound, estimator_preamble, merged_estimate, AmplifiedReceiver, AmplifiedSender,
    Deferred, Exhaust, WithPreamble,
};
pub use control::{ControlFrame, CONTROL_SESSION, TAG_CONTROL_REQUEST, TAG_CONTROL_RESPONSE};
pub use endpoint::{drive_pair, Endpoint, Role};
pub use envelope::{Envelope, Meter, NESTED_TAG_BIT};
pub use fault::{FaultProfile, FaultStats, FaultyTransport};
pub use frame::{Frame, FrameBody, FrameDecoder, SessionId};
pub use nested::Nested;
pub use party::{Party, Step};
pub use pool::{buffer_pool_stats, BufferPool, BufferPoolStats, ConnBuffers};
pub use session::{Amplification, Outcome, SessionBuilder, SessionConfig, SessionCore};
#[cfg(unix)]
pub use transport::Pollable;
pub use transport::{MemoryTransport, StreamTransport, Transport};
