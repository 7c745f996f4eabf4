//! Reusable party state machines for the paper's two amplification patterns.
//!
//! Nearly every one-round protocol in the paper is amplified the same way: Alice
//! transmits a digest, Bob attempts to decode, and on a (detectable) failure the
//! pair moves to the next attempt — either a replica under fresh hash functions
//! (Section 3.2's replication) or a digest resized for a doubled difference bound
//! (Corollaries 3.6/3.8). [`AmplifiedSender`] and [`AmplifiedReceiver`] capture
//! that loop once, as a `Party` pair, parameterized by closures that build and
//! decode the per-attempt digest. [`WithPreamble`] and [`Deferred`] bolt an
//! estimator round (Corollary 3.2 / Theorems 3.4, 3.10) in front of an
//! amplified pair, and that round's two halves are written once:
//! [`estimator_preamble`] is Bob's, [`merged_estimate`] Alice's.

use crate::envelope::Envelope;
use crate::party::{Party, Step};
use recon_base::ReconError;
use recon_estimator::{L0Config, L0Estimator, Side};
use std::collections::VecDeque;

/// Builds the envelope for attempt `k` (0-based).
pub type MakeEnvelope = Box<dyn FnMut(u64) -> Result<Envelope, ReconError> + Send>;

/// Attempts to decode the envelope of attempt `k` into the protocol output.
pub type DecodeEnvelope<T> = Box<dyn FnMut(u64, Envelope) -> Result<T, ReconError> + Send>;

/// How an [`AmplifiedReceiver`] reports failure once every attempt is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exhaust {
    /// Surface the last attempt's error (the replication drivers' behavior).
    LastError,
    /// Surface [`ReconError::RetriesExhausted`] (the doubling drivers' behavior).
    RetriesExhausted,
}

/// The difference bound of doubling attempt `attempt` in a schedule that
/// starts at `first` (Corollaries 3.6/3.8, Corollary 3.2's retries):
/// `first · 2^attempt`. The peer sets `attempt` (each retry request asks for
/// the next one), so a bound past `usize` is refused with
/// [`ReconError::ResourceExhausted`], never wrapped or saturated.
pub fn doubled_bound(first: usize, attempt: u64) -> Result<usize, ReconError> {
    u32::try_from(attempt)
        .ok()
        .and_then(|shift| 1usize.checked_shl(shift))
        .and_then(|factor| first.checked_mul(factor))
        .ok_or(ReconError::ResourceExhausted { what: "doubled bound", limit: usize::MAX })
}

/// The sending half of an amplified one-round protocol: emits the attempt-0
/// digest immediately and a fresh digest for every retry request received.
pub struct AmplifiedSender {
    make: MakeEnvelope,
    queued: Option<Envelope>,
    attempt: u64,
    max_attempts: u64,
}

impl AmplifiedSender {
    /// Create the sender; the attempt-0 envelope is built eagerly so digest
    /// construction errors surface before any message is transmitted.
    pub fn new(
        max_attempts: u64,
        mut make: impl FnMut(u64) -> Result<Envelope, ReconError> + Send + 'static,
    ) -> Result<Self, ReconError> {
        let first = make(0)?;
        Ok(Self { make: Box::new(make), queued: Some(first), attempt: 0, max_attempts })
    }
}

impl std::fmt::Debug for AmplifiedSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmplifiedSender")
            .field("attempt", &self.attempt)
            .field("max_attempts", &self.max_attempts)
            .finish_non_exhaustive()
    }
}

impl Party for AmplifiedSender {
    type Output = ();

    fn poll_send(&mut self) -> Option<Envelope> {
        self.queued.take()
    }

    fn handle(&mut self, _envelope: Envelope) -> Result<Step<()>, ReconError> {
        // Any incoming envelope is the receiver's request for the next attempt.
        self.attempt += 1;
        if self.attempt < self.max_attempts {
            self.queued = Some((self.make)(self.attempt)?);
        }
        Ok(Step::Continue)
    }
}

/// The receiving half of an amplified one-round protocol: decodes each digest,
/// requesting another attempt on retryable failures until the budget runs out.
pub struct AmplifiedReceiver<T> {
    decode: DecodeEnvelope<T>,
    retryable: fn(&ReconError) -> bool,
    nack: Box<dyn Fn(u64) -> Envelope + Send>,
    exhaust: Exhaust,
    attempt: u64,
    max_attempts: u64,
    outbox: VecDeque<Envelope>,
}

impl<T> AmplifiedReceiver<T> {
    /// Create the receiver. `nack` builds the retry-request envelope sent after
    /// failed attempt `k`: an uncharged [`Envelope::control`] for replication
    /// (the paper's replicas are conceptually sent together, so the retry signal
    /// is free), or a metered message (e.g. the 1-byte NACK of Corollary 3.6)
    /// when the doubling round-trip is part of the protocol's round count.
    ///
    /// On the final failed attempt no retry request is sent and the error is
    /// reported according to `exhaust`.
    pub fn new(
        max_attempts: u64,
        decode: impl FnMut(u64, Envelope) -> Result<T, ReconError> + Send + 'static,
        retryable: fn(&ReconError) -> bool,
        nack: impl Fn(u64) -> Envelope + Send + 'static,
        exhaust: Exhaust,
    ) -> Self {
        Self {
            decode: Box::new(decode),
            retryable,
            nack: Box::new(nack),
            exhaust,
            attempt: 0,
            max_attempts,
            outbox: VecDeque::new(),
        }
    }
}

impl<T> std::fmt::Debug for AmplifiedReceiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmplifiedReceiver")
            .field("attempt", &self.attempt)
            .field("max_attempts", &self.max_attempts)
            .field("exhaust", &self.exhaust)
            .finish_non_exhaustive()
    }
}

impl<T> Party for AmplifiedReceiver<T> {
    type Output = T;

    fn poll_send(&mut self) -> Option<Envelope> {
        self.outbox.pop_front()
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<T>, ReconError> {
        let attempt = self.attempt;
        match (self.decode)(attempt, envelope) {
            Ok(output) => Ok(Step::Done(output)),
            Err(error) if (self.retryable)(&error) => {
                self.attempt += 1;
                if self.attempt < self.max_attempts {
                    self.outbox.push_back((self.nack)(attempt));
                    Ok(Step::Continue)
                } else {
                    match self.exhaust {
                        Exhaust::LastError => Err(error),
                        Exhaust::RetriesExhausted => {
                            Err(ReconError::RetriesExhausted { attempts: self.attempt as usize })
                        }
                    }
                }
            }
            Err(error) => Err(error),
        }
    }
}

/// Wraps a party so that a fixed sequence of envelopes (e.g. a difference
/// estimator) is sent before the inner party's own messages.
#[derive(Debug)]
pub struct WithPreamble<P> {
    preamble: VecDeque<Envelope>,
    inner: P,
}

impl<P> WithPreamble<P> {
    /// Send `preamble` (in order), then behave exactly like `inner`.
    pub fn new(preamble: impl IntoIterator<Item = Envelope>, inner: P) -> Self {
        Self { preamble: preamble.into_iter().collect(), inner }
    }
}

impl<P: Party> Party for WithPreamble<P> {
    type Output = P::Output;

    fn poll_send(&mut self) -> Option<Envelope> {
        self.preamble.pop_front().or_else(|| self.inner.poll_send())
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<P::Output>, ReconError> {
        self.inner.handle(envelope)
    }
}

/// Bob's half of an estimator round: his ℓ0 estimator over `keys`, sent as
/// one round envelope (`tag`, `label`) before anything `inner` sends.
pub fn estimator_preamble<P>(
    config: &L0Config,
    keys: impl IntoIterator<Item = u64>,
    tag: u16,
    label: &str,
    inner: P,
) -> WithPreamble<P> {
    let mut estimator = L0Estimator::new(config);
    estimator.update_all(keys, Side::B);
    WithPreamble::new([Envelope::round(tag, label, &estimator)], inner)
}

/// Alice's half of an estimator round: decode Bob's estimator from
/// `envelope`, merge her own over `keys` into it, and estimate the difference.
/// The estimate is the peer's word; whatever it sizes must be allocated
/// fallibly.
pub fn merged_estimate(
    config: &L0Config,
    keys: impl IntoIterator<Item = u64>,
    envelope: &Envelope,
) -> Result<usize, ReconError> {
    let bob: L0Estimator = envelope.decode_payload()?;
    let mut alice = L0Estimator::new(config);
    alice.update_all(keys, Side::A);
    Ok(alice.merge(&bob)?.estimate())
}

enum DeferredState<P> {
    Waiting(Box<dyn FnOnce(Envelope) -> Result<P, ReconError> + Send>),
    Ready(P),
    Poisoned,
}

/// A party whose real state machine can only be built once the first envelope
/// arrives — the shape of every unknown-`d` Alice, who must see Bob's difference
/// estimator before she can size her digests.
pub struct Deferred<P> {
    state: DeferredState<P>,
}

impl<P> Deferred<P> {
    /// Build the inner party from the first incoming envelope via `init`.
    pub fn new(init: impl FnOnce(Envelope) -> Result<P, ReconError> + Send + 'static) -> Self {
        Self { state: DeferredState::Waiting(Box::new(init)) }
    }
}

impl<P> std::fmt::Debug for Deferred<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match self.state {
            DeferredState::Waiting(_) => "waiting",
            DeferredState::Ready(_) => "ready",
            DeferredState::Poisoned => "poisoned",
        };
        f.debug_struct("Deferred").field("state", &state).finish()
    }
}

impl<P: Party> Party for Deferred<P> {
    type Output = P::Output;

    fn poll_send(&mut self) -> Option<Envelope> {
        match &mut self.state {
            DeferredState::Ready(inner) => inner.poll_send(),
            _ => None,
        }
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<P::Output>, ReconError> {
        match std::mem::replace(&mut self.state, DeferredState::Poisoned) {
            DeferredState::Waiting(init) => {
                self.state = DeferredState::Ready(init(envelope)?);
                Ok(Step::Continue)
            }
            DeferredState::Ready(mut inner) => {
                let step = inner.handle(envelope);
                self.state = DeferredState::Ready(inner);
                step
            }
            DeferredState::Poisoned => Err(ReconError::InvalidInput(
                "deferred party used after initialization failure".to_string(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retry_all(_: &ReconError) -> bool {
        true
    }

    #[test]
    fn sender_replays_on_request_until_budget() {
        let mut sender =
            AmplifiedSender::new(3, |attempt| Ok(Envelope::round(1, "digest", &attempt))).unwrap();
        assert_eq!(sender.poll_send().unwrap().decode_payload::<u64>().unwrap(), 0);
        assert!(sender.poll_send().is_none());
        sender.handle(Envelope::control(2, "nack", &())).unwrap();
        assert_eq!(sender.poll_send().unwrap().decode_payload::<u64>().unwrap(), 1);
        sender.handle(Envelope::control(2, "nack", &())).unwrap();
        assert_eq!(sender.poll_send().unwrap().decode_payload::<u64>().unwrap(), 2);
        sender.handle(Envelope::control(2, "nack", &())).unwrap();
        assert!(sender.poll_send().is_none(), "budget exhausted");
    }

    #[test]
    fn receiver_nacks_then_succeeds() {
        let mut receiver: AmplifiedReceiver<u64> = AmplifiedReceiver::new(
            3,
            |attempt, env| {
                let value = env.decode_payload::<u64>()?;
                if attempt < 1 {
                    Err(ReconError::ChecksumFailure)
                } else {
                    Ok(value)
                }
            },
            retry_all,
            |_| Envelope::control(2, "nack", &()),
            Exhaust::LastError,
        );
        assert!(matches!(
            receiver.handle(Envelope::round(1, "digest", &7u64)).unwrap(),
            Step::Continue
        ));
        assert!(receiver.poll_send().is_some());
        assert!(matches!(
            receiver.handle(Envelope::round(1, "digest", &9u64)).unwrap(),
            Step::Done(9)
        ));
    }

    #[test]
    fn receiver_exhaustion_policies() {
        let fail =
            |_: u64, _: Envelope| -> Result<u64, ReconError> { Err(ReconError::ChecksumFailure) };
        let mut last_error: AmplifiedReceiver<u64> = AmplifiedReceiver::new(
            1,
            fail,
            retry_all,
            |_| Envelope::control(2, "nack", &()),
            Exhaust::LastError,
        );
        assert!(matches!(
            last_error.handle(Envelope::round(1, "d", &0u64)),
            Err(ReconError::ChecksumFailure)
        ));

        let mut retries: AmplifiedReceiver<u64> = AmplifiedReceiver::new(
            2,
            fail,
            retry_all,
            |_| Envelope::control(2, "nack", &()),
            Exhaust::RetriesExhausted,
        );
        assert!(matches!(retries.handle(Envelope::round(1, "d", &0u64)).unwrap(), Step::Continue));
        assert!(matches!(
            retries.handle(Envelope::round(1, "d", &0u64)),
            Err(ReconError::RetriesExhausted { attempts: 2 })
        ));
    }

    #[test]
    fn receiver_fatal_errors_do_not_retry() {
        let mut receiver: AmplifiedReceiver<u64> = AmplifiedReceiver::new(
            3,
            |_, _| Err(ReconError::InterpolationFailure),
            |e| matches!(e, ReconError::ChecksumFailure),
            |_| Envelope::control(2, "nack", &()),
            Exhaust::LastError,
        );
        assert!(matches!(
            receiver.handle(Envelope::round(1, "d", &0u64)),
            Err(ReconError::InterpolationFailure)
        ));
        assert!(receiver.poll_send().is_none());
    }

    #[test]
    fn preamble_and_deferred_compose() {
        let bob_inner: AmplifiedReceiver<u64> = AmplifiedReceiver::new(
            1,
            |_, env| env.decode_payload::<u64>(),
            retry_all,
            |_| Envelope::control(2, "nack", &()),
            Exhaust::LastError,
        );
        let mut bob = WithPreamble::new([Envelope::round(3, "estimator", &41u64)], bob_inner);
        let mut alice = Deferred::new(move |env: Envelope| {
            let estimate = env.decode_payload::<u64>()?;
            AmplifiedSender::new(1, move |_| Ok(Envelope::round(1, "digest", &(estimate + 1))))
        });

        // Bob speaks first; Alice defers until the estimator arrives.
        assert!(alice.poll_send().is_none());
        let estimator = bob.poll_send().unwrap();
        assert!(matches!(alice.handle(estimator).unwrap(), Step::Continue));
        let digest = alice.poll_send().unwrap();
        assert!(matches!(bob.handle(digest).unwrap(), Step::Done(42)));
    }
}
