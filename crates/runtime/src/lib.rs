//! # recon-runtime
//!
//! The readiness-driven runtime under the workspace's sans-I/O protocol
//! stack: the layer that turns "a [`SessionCore`] never blocks" from a design
//! principle into served traffic. Built entirely on raw OS readiness APIs —
//! this workspace compiles with no external crates — it provides, bottom up:
//!
//! * [`sys`] — `extern "C"` bindings for `epoll`, `poll(2)`, `O_NONBLOCK`
//!   and `SO_REUSEPORT` listeners; the crate's only `unsafe` module.
//! * [`Poller`] — one blocking wait over many descriptors, with an epoll
//!   backend on Linux (level- or edge-triggered via [`Trigger`]) and a
//!   portable `poll(2)` backend everywhere else ([`Poller::with_backend`]
//!   pins either in code).
//! * [`TimerWheel`] — hashed-wheel deadlines for sessions that stall.
//! * [`Reactor`] — many multiplexed [`Endpoint`]s over [`Pollable`] stream
//!   transports, pumped only on readiness ([`Endpoint::poll_ready`]), with
//!   precise write-interest re-arming ([`Endpoint::is_write_blocked`]),
//!   per-session deadlines, and graceful `Fin` draining. Edge-triggered on
//!   epoll: the transports drain to `WouldBlock` on every event anyway, so
//!   the kernel skips re-scanning still-ready descriptors. [`drive_endpoint`]
//!   is the single-connection client-side loop on the same machinery.
//! * [`Server`] — N worker reactors serving TCP, accepting either on
//!   per-worker `SO_REUSEPORT` listeners (sharded, the Linux default) or via
//!   a central listener with two-choice least-loaded balancing
//!   ([`AcceptMode`]), each worker recycling connection buffers through a
//!   `BufferPool`.
//!
//! What stays out: protocol logic (the parties, sessions and accounting live
//! in `recon-protocol` and the family crates, unchanged), and any form of
//! work-stealing between reactors — sessions are single-threaded state
//! machines, so a connection lives its whole life on the worker the balancer
//! picked.
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
pub mod timer;

pub use poller::{Backend, Event, Interest, Poller, Trigger};
pub use reactor::{drive_endpoint, ConnId, Finished, Reactor, ReactorConfig, Waker};
pub use server::{
    connect_endpoint, AcceptMode, Server, ServerConfig, ServerStats, TcpEndpoint, TcpService,
    TcpTransport,
};
#[cfg(target_os = "linux")]
pub use sys::reuseport_listener;
pub use sys::{set_nonblocking, RawFdIo};
pub use timer::TimerWheel;
