//! # recon-runtime
//!
//! The readiness-driven runtime under the workspace's sans-I/O protocol
//! stack: the layer that turns "a [`SessionCore`] never blocks" from a design
//! principle into served traffic. Built entirely on raw OS readiness APIs —
//! this workspace compiles with no external crates — it provides, bottom up:
//!
//! * [`sys`] — `extern "C"` bindings for `poll(2)`, `O_NONBLOCK` and raw-fd
//!   `read`/`write`; the crate's only `unsafe` module.
//! * [`Poller`] — one blocking wait over many descriptors: level-triggered
//!   `poll(2)`, the same code on every Unix.
//! * [`Reactor`] — many multiplexed [`Endpoint`]s over [`Pollable`] stream
//!   transports, pumped only on readiness ([`Endpoint::poll_ready`]), with
//!   one interest rule (read until the read half hits EOF, write exactly
//!   while output is buffered, [`Endpoint::is_write_blocked`]), per-session
//!   deadlines (a FIFO: every deadline is insert time plus one constant, so
//!   they arrive sorted), and graceful `Fin` draining. [`drive_endpoint`] is
//!   the single-connection client-side loop on the same machinery.
//! * [`Server`] — N worker reactors serving TCP from one shared listener,
//!   each worker accepting inside its own reactor loop and recycling
//!   connection buffers through a `BufferPool`.
//!
//! What stays out: protocol logic (the parties, sessions and accounting live
//! in `recon-protocol` and the family crates, unchanged), and any form of
//! work-stealing between reactors — sessions are single-threaded state
//! machines, so a connection lives its whole life on the worker that
//! accepted it.
//!
//! [`SessionCore`]: recon_protocol::SessionCore
//! [`Endpoint`]: recon_protocol::Endpoint
//! [`Endpoint::poll_ready`]: recon_protocol::Endpoint::poll_ready
//! [`Endpoint::is_write_blocked`]: recon_protocol::Endpoint::is_write_blocked
//! [`Pollable`]: recon_protocol::Pollable

#![cfg(unix)]
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod poller;
pub mod reactor;
pub mod server;
pub mod sys;

pub use poller::{Event, Interest, Poller};
pub use reactor::{drive_endpoint, ConnId, Finished, Reactor, ReactorConfig, Waker};
pub use server::{
    connect_endpoint, Server, ServerConfig, ServerStats, TcpEndpoint, TcpService, TcpTransport,
};
pub use sys::{set_nonblocking, RawFdIo};
