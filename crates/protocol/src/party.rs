//! The [`Party`] state-machine trait: one side of a two-party protocol, with all
//! I/O hoisted out.
//!
//! A party never touches a socket, a transcript or the other party directly. It
//! exposes exactly two operations — "do you have a message to send?" and "here is
//! a message for you" — and a driver ([`SessionBuilder::run`](crate::SessionBuilder::run),
//! an [`Endpoint`](crate::Endpoint), or any custom transport loop) moves
//! [`Envelope`]s between the two parties. This is the sans-I/O
//! pattern: the same state machines run in-memory for tests and benchmarks, over a
//! serialized byte stream between processes, or (later) over an async network
//! transport, without any change to the protocol logic.

use crate::envelope::Envelope;
use recon_base::ReconError;

/// The result of handling one incoming envelope.
#[derive(Debug)]
pub enum Step<T> {
    /// The party consumed the message and the protocol continues; the party may now
    /// have new messages queued for [`Party::poll_send`].
    Continue,
    /// The party has finished and produced its output. For a reconciliation
    /// protocol this is Bob's recovered copy of Alice's data.
    Done(T),
}

/// One side of a two-party, message-passing reconciliation protocol.
pub trait Party {
    /// The value this party produces when it completes. The party whose data is
    /// being recovered (Alice, by the paper's convention) typically uses `()`.
    type Output;

    /// The next envelope this party wants transmitted, if any. Called repeatedly
    /// until it returns `None`; envelopes must be produced in sending order.
    fn poll_send(&mut self) -> Option<Envelope>;

    /// Handle an envelope from the other party.
    fn handle(&mut self, envelope: Envelope) -> Result<Step<Self::Output>, ReconError>;
}

impl<P: Party + ?Sized> Party for &mut P {
    type Output = P::Output;

    fn poll_send(&mut self) -> Option<Envelope> {
        (**self).poll_send()
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<Self::Output>, ReconError> {
        (**self).handle(envelope)
    }
}

impl<P: Party + ?Sized> Party for Box<P> {
    type Output = P::Output;

    fn poll_send(&mut self) -> Option<Envelope> {
        (**self).poll_send()
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<Self::Output>, ReconError> {
        (**self).handle(envelope)
    }
}
