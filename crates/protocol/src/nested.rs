//! Embedding one protocol's session inside another's.
//!
//! The graph schemes (Theorems 5.2, 5.6, 6.1) run a complete set-of-sets
//! reconciliation as a sub-step, and the paper charges that sub-step as a single
//! aggregate message ("Alice sends the signatures ... in the same round"). The
//! [`Nested`] wrapper makes that composition mechanical: the embedded party's
//! envelopes flow through the outer session unchanged in *content* (so a real
//! transport still works), but re-metered as control envelopes, while the bytes
//! they would have charged accumulate in the wrapper. When the sub-protocol
//! finishes, the outer protocol emits a single [`Envelope::charge`] for the
//! accumulated total — the one-message accounting the paper's theorems state.

use crate::envelope::{Envelope, Meter, NESTED_TAG_BIT};
use crate::party::{Party, Step};
use recon_base::ReconError;

/// A sub-protocol party embedded inside an outer protocol.
#[derive(Debug)]
pub struct Nested<P> {
    inner: P,
    charged_bytes: usize,
}

impl<P: Party> Nested<P> {
    /// Wrap an inner party.
    pub fn new(inner: P) -> Self {
        Self { inner, charged_bytes: 0 }
    }

    /// Bytes the inner party's envelopes would have charged to the transcript.
    pub fn charged_bytes(&self) -> usize {
        self.charged_bytes
    }

    /// `true` if `envelope` belongs to an embedded sub-protocol.
    pub fn is_nested(envelope: &Envelope) -> bool {
        envelope.tag & NESTED_TAG_BIT != 0
    }

    /// Next envelope from the inner party, re-tagged and re-metered for transit
    /// through the outer session.
    pub fn poll_send(&mut self) -> Option<Envelope> {
        let mut envelope = self.inner.poll_send()?;
        self.charged_bytes += envelope.charged_bytes();
        envelope.tag |= NESTED_TAG_BIT;
        envelope.meter = Meter::Control;
        Some(envelope)
    }

    /// Route a nested envelope to the inner party (the nested tag bit is
    /// stripped first).
    pub fn handle(&mut self, mut envelope: Envelope) -> Result<Step<P::Output>, ReconError> {
        envelope.tag &= !NESTED_TAG_BIT;
        self.inner.handle(envelope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amplify::AmplifiedSender;

    #[test]
    fn nested_rewrites_meter_and_accumulates_bytes() {
        let sender =
            AmplifiedSender::new(2, |attempt| Ok(Envelope::round(3, "digest", &attempt))).unwrap();
        let mut nested = Nested::new(sender);

        let env = nested.poll_send().unwrap();
        assert_eq!(env.tag, 3 | NESTED_TAG_BIT);
        assert!(Nested::<AmplifiedSender>::is_nested(&env));
        assert_eq!(env.meter, Meter::Control);
        assert_eq!(env.charged_bytes(), 0, "in transit the envelope is uncharged");
        assert_eq!(nested.charged_bytes(), 8, "but the wrapper accumulated the cost");

        // Routing a (nested) retry request reaches the inner sender.
        nested.handle(Envelope::control(4 | NESTED_TAG_BIT, "nack", &())).unwrap();
        let retry = nested.poll_send().unwrap();
        assert_eq!(retry.decode_payload::<u64>().unwrap(), 1);
        assert_eq!(nested.charged_bytes(), 16);
    }
}
