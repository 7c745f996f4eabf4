//! The unit of communication between two [`Party`](crate::Party) state machines.
//!
//! An [`Envelope`] carries a tagged, wire-encoded payload (via [`recon_base::wire`])
//! together with a [`Meter`] describing how the message is charged against the
//! paper's communication accounting. Keeping the metering on the envelope — rather
//! than inside the protocol drivers — is what lets the in-memory
//! [`SessionBuilder::run`](crate::SessionBuilder::run) and a framed
//! [`Endpoint`](crate::Endpoint) record the same `CommStats` while staying
//! transport-agnostic: an envelope can be serialized, shipped over any byte
//! stream, and reconstructed losslessly on the far side.

use recon_base::comm::{Direction, Transcript};
use recon_base::wire::{
    read_length_prefixed, read_uvarint, uvarint_len, write_length_prefixed, write_uvarint, Claimed,
    Decode, Encode, WireError,
};
use recon_base::ReconError;

/// How a message counts against the transcript's byte/round accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Meter {
    /// A normal message: charged at its payload size, starting a new round.
    Round,
    /// Charged at its payload size, in the same round as the previous message
    /// (the paper's "in parallel with" construction).
    Parallel,
    /// Charged at an explicit byte count independent of the payload size. Used for
    /// aggregate charges, e.g. a graph protocol charging an embedded set-of-sets
    /// exchange as a single message the way the paper's theorems state it.
    Explicit {
        /// Bytes to charge.
        bytes: u64,
        /// Whether the charge shares the previous message's round.
        parallel: bool,
    },
    /// Not charged at all. Control envelopes model coordination the paper's
    /// accounting excludes — e.g. "replica `k` failed, send replica `k+1`", which
    /// the paper handles by (conceptually) sending all replicas at once and this
    /// workspace handles lazily without changing the worst-case cost.
    Control,
}

/// A tagged, wire-encoded protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Protocol-defined message tag, used by the receiving party to dispatch.
    /// The high bit ([`NESTED_TAG_BIT`]) is reserved for envelopes re-emitted by a
    /// [`Nested`](crate::Nested) sub-protocol.
    pub tag: u16,
    /// Human-readable label recorded into the transcript (e.g. `"outer IBLT"`).
    pub label: String,
    /// The wire-encoded message body.
    pub payload: Vec<u8>,
    /// How the message is charged.
    pub meter: Meter,
}

/// Tag bit marking envelopes that belong to an embedded sub-protocol.
pub const NESTED_TAG_BIT: u16 = 0x8000;

impl Envelope {
    /// A normally-metered message starting a new round.
    pub fn round<T: Encode + ?Sized>(tag: u16, label: &str, payload: &T) -> Self {
        Self { tag, label: label.to_string(), payload: payload.to_bytes(), meter: Meter::Round }
    }

    /// A message sharing the previous message's round.
    pub fn parallel<T: Encode + ?Sized>(tag: u16, label: &str, payload: &T) -> Self {
        Self { tag, label: label.to_string(), payload: payload.to_bytes(), meter: Meter::Parallel }
    }

    /// An uncharged control message.
    pub fn control<T: Encode + ?Sized>(tag: u16, label: &str, payload: &T) -> Self {
        Self { tag, label: label.to_string(), payload: payload.to_bytes(), meter: Meter::Control }
    }

    /// An aggregate charge of `bytes` bytes with no payload of its own.
    pub fn charge(tag: u16, label: &str, bytes: usize, parallel: bool) -> Self {
        Self {
            tag,
            label: label.to_string(),
            payload: Vec::new(),
            meter: Meter::Explicit { bytes: bytes as u64, parallel },
        }
    }

    /// What this envelope charges to a transcript, if anything: its payload's
    /// length or the number its sender wrote, and whether the charge shares
    /// the previous message's round.
    fn metered(&self) -> Option<(Claimed, bool)> {
        let payload = Claimed::new(self.payload.len() as u64);
        match self.meter {
            Meter::Round => Some((payload, false)),
            Meter::Parallel => Some((payload, true)),
            Meter::Explicit { bytes, parallel } => Some((Claimed::new(bytes), parallel)),
            Meter::Control => None,
        }
    }

    /// The number of bytes this envelope charges to the transcript (one past
    /// `usize` counts as `usize::MAX`).
    pub fn charged_bytes(&self) -> usize {
        self.metered()
            .map_or(0, |(bytes, _)| bytes.at_most(usize::MAX, "charge").unwrap_or(usize::MAX))
    }

    /// `true` if the charge shares the previous message's round.
    pub fn is_parallel(&self) -> bool {
        self.metered().is_some_and(|(_, parallel)| parallel)
    }

    /// Decode the full payload as `T` (the payload must be consumed exactly).
    pub fn decode_payload<T: Decode>(&self) -> Result<T, ReconError> {
        T::from_bytes(&self.payload).map_err(ReconError::Wire)
    }

    /// Record this envelope into `transcript` according to its [`Meter`] — the
    /// single metering rule shared by every driver ([`SessionBuilder::run`],
    /// [`Endpoint`]) so the accounting is a property of the envelope, not of the
    /// transport.
    ///
    /// [`SessionBuilder::run`]: crate::SessionBuilder::run
    /// [`Endpoint`]: crate::Endpoint
    ///
    /// A peer's explicit charge can claim any size: one that would carry the
    /// transcript's byte total past `usize` is refused with
    /// [`ReconError::ResourceExhausted`], and nothing is recorded.
    pub fn record_into(
        &self,
        transcript: &mut Transcript,
        direction: Direction,
    ) -> Result<(), ReconError> {
        let Some((bytes, parallel)) = self.metered() else { return Ok(()) };
        let bytes =
            bytes.at_most(usize::MAX - transcript.total_bytes(), "charge").map_err(|_| {
                ReconError::ResourceExhausted { what: "session bytes", limit: usize::MAX }
            })?;
        if parallel {
            transcript.record_parallel_bytes(direction, &self.label, bytes);
        } else {
            transcript.record_bytes(direction, &self.label, bytes);
        }
        Ok(())
    }
}

impl Encode for Meter {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Meter::Round => buf.push(0),
            Meter::Parallel => buf.push(1),
            Meter::Explicit { bytes, parallel } => {
                buf.push(2);
                write_uvarint(buf, *bytes);
                parallel.encode(buf);
            }
            Meter::Control => buf.push(3),
        }
    }
}

impl Decode for Meter {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(Meter::Round),
            1 => Ok(Meter::Parallel),
            2 => Ok(Meter::Explicit { bytes: read_uvarint(buf)?, parallel: bool::decode(buf)? }),
            3 => Ok(Meter::Control),
            _ => Err(WireError::Invalid("meter tag")),
        }
    }
}

impl Encode for Envelope {
    fn encode(&self, buf: &mut Vec<u8>) {
        // Length-prefix the label and payload straight from the borrowed slices
        // (byte-identical to encoding `Bytes` copies, without the copies).
        self.tag.encode(buf);
        write_length_prefixed(buf, self.label.as_bytes());
        write_length_prefixed(buf, &self.payload);
        self.meter.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.tag.encoded_len()
            + uvarint_len(self.label.len() as u64)
            + self.label.len()
            + uvarint_len(self.payload.len() as u64)
            + self.payload.len()
            + self.meter.encoded_len()
    }
}

impl Decode for Envelope {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let tag = u16::decode(buf)?;
        let label = std::str::from_utf8(read_length_prefixed(buf)?)
            .map_err(|_| WireError::Invalid("envelope label"))?
            .to_string();
        let payload = read_length_prefixed(buf)?.to_vec();
        let meter = Meter::decode(buf)?;
        Ok(Envelope { tag, label, payload, meter })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_meter_and_bytes() {
        let round = Envelope::round(1, "m", &7u64);
        assert_eq!(round.charged_bytes(), 8);
        assert!(!round.is_parallel());

        let parallel = Envelope::parallel(2, "m", &vec![1u64, 2]);
        assert!(parallel.is_parallel());
        assert_eq!(parallel.charged_bytes(), parallel.payload.len());

        let control = Envelope::control(3, "nack", &());
        assert_eq!(control.charged_bytes(), 0);

        let charge = Envelope::charge(4, "aggregate", 123, true);
        assert_eq!(charge.charged_bytes(), 123);
        assert!(charge.is_parallel());
        assert!(charge.payload.is_empty());
    }

    #[test]
    fn envelope_wire_roundtrip() {
        for env in [
            Envelope::round(7, "digest", &vec![1u64, 2, 3]),
            Envelope::parallel(8, "edge IBLT", &0xFFu8),
            Envelope::control(9, "ack", &()),
            Envelope::charge(10, "sos bytes", 4096, false),
        ] {
            let decoded = Envelope::from_bytes(&env.to_bytes()).unwrap();
            assert_eq!(decoded, env);
        }
    }

    #[test]
    fn record_into_applies_the_metering_rule() {
        let mut transcript = Transcript::new();
        for (direction, envelope) in [
            (Direction::AliceToBob, Envelope::round(1, "digest", &vec![1u64, 2])),
            (Direction::AliceToBob, Envelope::parallel(2, "edges", &7u64)),
            (Direction::BobToAlice, Envelope::control(3, "nack", &())),
            (Direction::AliceToBob, Envelope::charge(4, "aggregate", 100, false)),
        ] {
            envelope.record_into(&mut transcript, direction).unwrap();
        }
        let stats = transcript.stats();
        assert_eq!(stats.rounds, 2, "control envelopes must not advance rounds");
        assert_eq!(stats.messages, 3, "control envelopes must not be recorded");
        assert_eq!(stats.bytes_bob_to_alice, 0);
        let vec_len = vec![1u64, 2].to_bytes().len();
        assert_eq!(stats.bytes_alice_to_bob, vec_len + 8 + 100);
    }

    #[test]
    fn decode_payload_requires_full_consumption() {
        let env = Envelope::round(1, "m", &(1u64, 2u64));
        assert_eq!(env.decode_payload::<(u64, u64)>().unwrap(), (1, 2));
        assert!(env.decode_payload::<u64>().is_err());
    }
}
