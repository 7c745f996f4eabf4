//! The poll-style [`SessionCore`] state machine and the [`SessionBuilder`] that
//! configures a party pair and drives it in memory.
//!
//! [`SessionCore`] wraps one [`Party`] with its completion state: poll it for
//! outgoing envelopes, hand it incoming ones, and collect the output once the
//! party finishes. It is the unit an [`Endpoint`](crate::Endpoint) multiplexes
//! many of over one framed transport. [`SessionBuilder::run`] pumps two cores
//! against each other until Bob produces his output, recording every envelope
//! into one [`Transcript`] by its [`Meter`](crate::Meter) — the metering an
//! `Endpoint` applies too, so both report the same `CommStats` for a pair.

use crate::envelope::Envelope;
use crate::party::Party;
use recon_base::comm::{CommStats, Direction, Transcript};
use recon_base::ReconError;
use recon_estimator::L0Config;

/// The result of a protocol session: Bob's output plus the measured
/// communication.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome<T> {
    /// Bob's reconstruction of Alice's data (set, set of sets, graph, forest, …).
    pub recovered: T,
    /// Measured communication and rounds.
    pub stats: CommStats,
}

/// Retry/doubling amplification budget shared by both parties of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Amplification {
    /// Maximum number of digest transmissions (attempts) allowed.
    pub max_attempts: u64,
}

impl Amplification {
    /// Exactly one attempt (protocols that are exact or verified end-to-end).
    pub fn single() -> Self {
        Self { max_attempts: 1 }
    }

    /// Up to `attempts` replicated attempts under independent hash functions
    /// (Section 3.2's replication-based amplification).
    pub fn replicate(attempts: u64) -> Self {
        Self { max_attempts: attempts.max(1) }
    }

    /// Repeated doubling from `start` while the doubled bound stays within
    /// `limit` (the Corollary 3.6/3.8 pattern: `d = start, 2·start, 4·start, …`).
    pub fn doubling(start: usize, limit: usize) -> Self {
        let mut attempts = 0u64;
        let mut bound = start.max(1) as u128;
        while bound <= limit as u128 {
            attempts += 1;
            bound *= 2;
        }
        Self { max_attempts: attempts.max(1) }
    }
}

impl Default for Amplification {
    fn default() -> Self {
        Self::replicate(3)
    }
}

/// Shared configuration both parties of a session are constructed from: the
/// public-coin seed, the amplification policy and the difference-estimator
/// shape. Party factories derive their per-role seeds from `seed`, so a given
/// configuration reproduces a given transcript bit-for-bit.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Public-coin seed shared by Alice and Bob.
    pub seed: u64,
    /// Retry/doubling budget.
    pub amplification: Amplification,
    /// Base shape of the ℓ0 difference estimator used by unknown-`d` protocols
    /// (each protocol re-seeds it from `seed`; the shape fields are what matter).
    pub estimator: L0Config,
}

/// Builder for protocol sessions: seeds, amplification policy and estimator
/// configuration, plus the entry point that actually drives a party pair.
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    config: SessionConfig,
}

impl SessionBuilder {
    /// A builder with the given public-coin seed and default policy.
    pub fn new(seed: u64) -> Self {
        Self {
            config: SessionConfig {
                seed,
                amplification: Amplification::default(),
                estimator: L0Config::default(),
            },
        }
    }

    /// Set the amplification policy.
    pub fn amplification(mut self, amplification: Amplification) -> Self {
        self.config.amplification = amplification;
        self
    }

    /// Set the difference-estimator shape.
    pub fn estimator(mut self, estimator: L0Config) -> Self {
        self.config.estimator = estimator;
        self
    }

    /// The configuration party factories consume.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Drive `alice` and `bob` to completion in memory and return Bob's output
    /// with the measured communication: poll each side for outgoing envelopes,
    /// record each into the transcript and hand it to the other side, until Bob
    /// returns [`Step::Done`](crate::Step::Done). Alice's completion (if any) is
    /// implicit — per the paper's one-way convention she never learns whether
    /// Bob succeeded unless the protocol itself sends an acknowledgement. A pass
    /// in which neither side has anything to send is
    /// [`ReconError::SessionStalled`].
    pub fn run<A: Party, B: Party>(
        &self,
        alice: A,
        bob: B,
    ) -> Result<Outcome<B::Output>, ReconError> {
        let (mut alice, mut bob) = (SessionCore::new(alice), SessionCore::new(bob));
        let mut transcript = Transcript::new();
        let mut delivered = 0;
        loop {
            let mut progressed = false;
            while let Some(envelope) = alice.poll_send() {
                progressed = true;
                delivered += 1;
                envelope.record_into(&mut transcript, Direction::AliceToBob)?;
                if bob.handle(envelope)? {
                    let recovered = bob.take_output().expect("completed session has an output");
                    return Ok(Outcome { recovered, stats: transcript.stats() });
                }
            }
            while let Some(envelope) = bob.poll_send() {
                progressed = true;
                delivered += 1;
                envelope.record_into(&mut transcript, Direction::BobToAlice)?;
                alice.handle(envelope)?;
            }
            if !progressed {
                return Err(ReconError::SessionStalled { messages_exchanged: delivered });
            }
        }
    }
}

/// One side of a session as a non-blocking state machine: a [`Party`] plus its
/// completion state. Drivers — the in-memory [`SessionBuilder::run`] loop, an
/// [`Endpoint`](crate::Endpoint) multiplexing many sessions over one framed
/// transport — poll it for outgoing envelopes and feed it incoming ones; once
/// the party reports [`Step::Done`](crate::Step::Done) the core stops sending and holds the output
/// until it is taken.
#[derive(Debug)]
pub struct SessionCore<P: Party> {
    party: P,
    output: Option<P::Output>,
    done: bool,
}

impl<P: Party> SessionCore<P> {
    /// Wrap a party in its session state machine.
    pub fn new(party: P) -> Self {
        Self { party, output: None, done: false }
    }

    /// The next envelope to transmit, if any. A finished core never sends —
    /// mirroring [`SessionBuilder::run`], which stops pumping the moment the
    /// receiving party completes.
    pub fn poll_send(&mut self) -> Option<Envelope> {
        if self.done {
            return None;
        }
        self.party.poll_send()
    }

    /// Feed one incoming envelope to the party. Returns `true` if this envelope
    /// completed the session. Envelopes arriving after completion are dropped
    /// (a multiplexed peer may have frames in flight when the party finishes).
    pub fn handle(&mut self, envelope: Envelope) -> Result<bool, ReconError> {
        if self.done {
            return Ok(false);
        }
        match self.party.handle(envelope)? {
            crate::party::Step::Continue => Ok(false),
            crate::party::Step::Done(output) => {
                self.output = Some(output);
                self.done = true;
                Ok(true)
            }
        }
    }

    /// `true` once the party has produced its output.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The output, once produced (consumes it; subsequent calls return `None`).
    pub fn take_output(&mut self) -> Option<P::Output> {
        self.output.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amplify::{AmplifiedReceiver, AmplifiedSender, Exhaust};
    use crate::party::Step;

    #[test]
    fn amplification_budgets() {
        assert_eq!(Amplification::single().max_attempts, 1);
        assert_eq!(Amplification::replicate(3).max_attempts, 3);
        assert_eq!(Amplification::replicate(0).max_attempts, 1);
        // 1, 2, 4, 8, 16 ≤ 20 < 32 → 5 attempts.
        assert_eq!(Amplification::doubling(1, 20).max_attempts, 5);
        assert_eq!(Amplification::doubling(2, 1).max_attempts, 1);
    }

    #[test]
    fn builder_runs_a_retrying_pair_and_measures_it() {
        let alice =
            AmplifiedSender::new(3, |attempt| Ok(Envelope::round(1, "digest", &attempt))).unwrap();
        let bob: AmplifiedReceiver<u64> = AmplifiedReceiver::new(
            3,
            |attempt, env| {
                if attempt < 2 {
                    Err(ReconError::ChecksumFailure)
                } else {
                    env.decode_payload::<u64>()
                }
            },
            |_| true,
            |_| Envelope::control(2, "nack", &()),
            Exhaust::LastError,
        );
        let outcome = SessionBuilder::new(7).run(alice, bob).unwrap();
        assert_eq!(outcome.recovered, 2);
        // Three digests of 8 bytes; control NACKs are neither counted nor rounded.
        assert_eq!(outcome.stats.rounds, 3);
        assert_eq!(outcome.stats.messages, 3);
        assert_eq!(outcome.stats.bytes_alice_to_bob, 24);
        assert_eq!(outcome.stats.bytes_bob_to_alice, 0);
    }

    #[test]
    fn stalled_sessions_error_out() {
        struct Mute;
        impl Party for Mute {
            type Output = ();
            fn poll_send(&mut self) -> Option<Envelope> {
                None
            }
            fn handle(&mut self, _envelope: Envelope) -> Result<Step<()>, ReconError> {
                Ok(Step::Continue)
            }
        }
        let result = SessionBuilder::new(1).run(Mute, Mute);
        assert!(matches!(result, Err(ReconError::SessionStalled { messages_exchanged: 0 })));
    }
}
