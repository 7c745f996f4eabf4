//! The shared error type for reconciliation protocols.
//!
//! The paper distinguishes several failure modes; each gets an explicit variant so
//! tests and the experiment harness can assert on *which* failure occurred:
//!
//! * **peeling failures** — the IBLT's 2-core is non-empty and keys remain that
//!   cannot be extracted (detectable; probability `1/poly(m)`, Theorem 2.1),
//! * **checksum failures** — a cell with count ±1 actually contained several keys
//!   whose checksums collided (probability `1/poly(u)`; guarded by whole-set hashes),
//! * **matching failures** — a child IBLT in `E_A \ E_B` does not decode against any
//!   child IBLT in `E_B \ E_A` (Algorithm 1 "report failure"),
//! * **estimation failures** — the difference bound supplied or estimated was too
//!   small for the actual difference,
//! * **separation failures** — a random graph fails to be `(h, a, b)`-separated or
//!   its degree neighborhoods are not `(m, k)`-disjoint, so signature-based labeling
//!   cannot be trusted (Theorems 5.3, 5.5).

use crate::wire::WireError;
use std::fmt;

/// Error type shared by all reconciliation protocols in this workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconError {
    /// IBLT peeling stopped with keys still in the table (non-empty 2-core).
    PeelingFailure {
        /// How many cells remained non-empty when peeling stalled.
        remaining_cells: usize,
    },
    /// A recovered set failed verification against its hash, indicating an
    /// (otherwise undetectable) checksum failure inside an IBLT.
    ChecksumFailure,
    /// A child IBLT recovered from the outer table could not be decoded against any
    /// of the other party's differing child sets.
    NoMatchingChild {
        /// Hash of the child encoding that could not be matched.
        child_hash: u64,
    },
    /// The claimed or estimated difference bound was too small for the actual data.
    DifferenceBoundTooSmall {
        /// The bound that was used.
        bound: usize,
    },
    /// The protocol exhausted its retry/doubling budget without succeeding.
    RetriesExhausted {
        /// Number of attempts made.
        attempts: usize,
    },
    /// A random graph was not sufficiently separated / disjoint for signature-based
    /// reconciliation (Definitions 5.1 and 5.4).
    SeparationFailure(String),
    /// The input violated a protocol precondition (e.g. element outside the universe,
    /// non-forest edit, mismatched vertex counts).
    InvalidInput(String),
    /// A message failed to deserialize.
    Wire(WireError),
    /// A transport-level failure: the underlying byte stream errored, closed
    /// mid-session, or delivered unframeable garbage. The residual stringly
    /// variant for raw I/O errors; conditions a driver can react to have
    /// their own variants ([`ReconError::FrameTooLarge`],
    /// [`ReconError::ChecksumMismatch`], [`ReconError::PeerClosed`],
    /// [`ReconError::SessionStuck`]).
    Transport(String),
    /// A frame's length prefix exceeded the receiver's configured cap —
    /// either a corrupted/desynced stream or a peer probing for an OOM.
    FrameTooLarge {
        /// The length the prefix claimed.
        len: u64,
        /// The receiver's cap.
        max: usize,
    },
    /// A checked frame's keyed checksum trailer did not match its bytes: the
    /// frame was corrupted (or forged) in flight.
    ChecksumMismatch {
        /// The checksum computed over the received bytes.
        expected: u64,
        /// The checksum the frame carried.
        got: u64,
    },
    /// The peer closed the stream while sessions were still unfinished.
    PeerClosed {
        /// How many local sessions were still open.
        open_sessions: usize,
    },
    /// An in-process endpoint pair made no progress for a full round and can
    /// never unblock itself (e.g. a dropped frame on a faulty transport, or a
    /// session registered on only one side).
    SessionStuck {
        /// Unfinished session ids on the first endpoint, ascending.
        waiting_a: Vec<u64>,
        /// Unfinished session ids on the second endpoint, ascending.
        waiting_b: Vec<u64>,
    },
    /// A hard resource cap was hit — the bound a server enforces so a
    /// misbehaving peer cannot grow its memory without limit, or the memory
    /// the allocator could not provide for a size a peer's message implied.
    ResourceExhausted {
        /// Which cap (e.g. `"sessions per connection"`).
        what: &'static str,
        /// The configured limit, or the size the allocator refused.
        limit: usize,
    },
    /// A sans-I/O session stalled: neither party had a message to send and the
    /// receiving party had not produced its output (a protocol logic error).
    SessionStalled {
        /// How many messages had been exchanged when the session stalled.
        messages_exchanged: usize,
    },
    /// The characteristic-polynomial interpolation produced an inconsistent system
    /// (more differences than evaluation points).
    InterpolationFailure,
    /// A deadline elapsed before the work completed: a reactor-served session
    /// (or its whole connection) exceeded its readiness-driven time budget.
    Timeout {
        /// How long the runtime waited, in milliseconds, before giving up.
        waited_ms: u64,
    },
}

impl ReconError {
    /// Whether a *fresh attempt* (reconnect, re-register fresh parties,
    /// re-run) has a chance of succeeding. This is the sole retry criterion;
    /// the caller owns the loop that re-runs the session — never a string
    /// match.
    ///
    /// Transport-level failures are retryable: they say something about the
    /// network the bytes crossed, not about the data being reconciled. A
    /// [`ReconError::ChecksumMismatch`] in particular means a frame was
    /// damaged in flight — the whole point of the checked-frame trailer is to
    /// turn silent corruption into exactly this retryable signal.
    ///
    /// Data- and protocol-level failures are not retryable here: re-running
    /// the identical session on the identical inputs fails identically.
    /// (Decode failures like [`ReconError::PeelingFailure`] are handled a
    /// layer *below* by the amplification combinators, which change the hash
    /// functions between in-session attempts; by the time one surfaces out of
    /// a session, that budget is spent.)
    pub fn is_retryable(&self) -> bool {
        match self {
            ReconError::Transport(_)
            | ReconError::FrameTooLarge { .. }
            | ReconError::ChecksumMismatch { .. }
            | ReconError::PeerClosed { .. }
            | ReconError::SessionStuck { .. }
            | ReconError::Timeout { .. } => true,
            ReconError::PeelingFailure { .. }
            | ReconError::ChecksumFailure
            | ReconError::NoMatchingChild { .. }
            | ReconError::DifferenceBoundTooSmall { .. }
            | ReconError::RetriesExhausted { .. }
            | ReconError::SeparationFailure(_)
            | ReconError::InvalidInput(_)
            | ReconError::Wire(_)
            | ReconError::SessionStalled { .. }
            | ReconError::InterpolationFailure
            | ReconError::ResourceExhausted { .. } => false,
        }
    }
}

impl fmt::Display for ReconError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconError::PeelingFailure { remaining_cells } => {
                write!(f, "IBLT peeling failure ({remaining_cells} cells undecodable)")
            }
            ReconError::ChecksumFailure => write!(f, "IBLT checksum failure detected"),
            ReconError::NoMatchingChild { child_hash } => {
                write!(f, "no matching child set for child encoding {child_hash:#x}")
            }
            ReconError::DifferenceBoundTooSmall { bound } => {
                write!(f, "difference bound {bound} too small for actual difference")
            }
            ReconError::RetriesExhausted { attempts } => {
                write!(f, "protocol failed after {attempts} attempts")
            }
            ReconError::SeparationFailure(why) => write!(f, "graph separation failure: {why}"),
            ReconError::InvalidInput(why) => write!(f, "invalid input: {why}"),
            ReconError::Wire(e) => write!(f, "wire decode error: {e}"),
            ReconError::Transport(why) => write!(f, "transport failure: {why}"),
            ReconError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            ReconError::ChecksumMismatch { expected, got } => {
                write!(f, "frame checksum mismatch (expected {expected:#x}, got {got:#x})")
            }
            ReconError::PeerClosed { open_sessions } => {
                write!(f, "peer closed the stream with {open_sessions} session(s) unfinished")
            }
            ReconError::SessionStuck { waiting_a, waiting_b } => {
                write!(
                    f,
                    "endpoint pair stuck: no frame dispatched, byte moved, or session \
                     finished in a full round (waiting sessions a={waiting_a:?} \
                     b={waiting_b:?})"
                )
            }
            ReconError::ResourceExhausted { what, limit } => {
                write!(f, "resource cap hit: {what} limit is {limit}")
            }
            ReconError::SessionStalled { messages_exchanged } => {
                write!(f, "protocol session stalled after {messages_exchanged} message(s)")
            }
            ReconError::InterpolationFailure => {
                write!(f, "characteristic polynomial interpolation failed")
            }
            ReconError::Timeout { waited_ms } => {
                write!(f, "deadline elapsed after {waited_ms} ms")
            }
        }
    }
}

impl std::error::Error for ReconError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReconError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ReconError {
    fn from(e: WireError) -> Self {
        ReconError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_information() {
        let e = ReconError::PeelingFailure { remaining_cells: 3 };
        assert!(e.to_string().contains('3'));
        let e = ReconError::DifferenceBoundTooSmall { bound: 8 };
        assert!(e.to_string().contains('8'));
        let e = ReconError::NoMatchingChild { child_hash: 0xABCD };
        assert!(e.to_string().contains("abcd"));
    }

    #[test]
    fn wire_errors_convert() {
        let e: ReconError = WireError::UnexpectedEnd.into();
        assert!(matches!(e, ReconError::Wire(WireError::UnexpectedEnd)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(ReconError::ChecksumFailure, ReconError::ChecksumFailure);
        assert_ne!(ReconError::ChecksumFailure, ReconError::PeelingFailure { remaining_cells: 0 });
    }

    #[test]
    fn transport_level_errors_are_retryable_and_data_level_are_not() {
        for retryable in [
            ReconError::Transport("stream read: reset".into()),
            ReconError::FrameTooLarge { len: 1 << 30, max: 1 << 20 },
            ReconError::ChecksumMismatch { expected: 1, got: 2 },
            ReconError::PeerClosed { open_sessions: 3 },
            ReconError::SessionStuck { waiting_a: vec![1], waiting_b: vec![] },
            ReconError::Timeout { waited_ms: 30_000 },
        ] {
            assert!(retryable.is_retryable(), "{retryable} should be retryable");
        }
        for fatal in [
            ReconError::PeelingFailure { remaining_cells: 2 },
            ReconError::ChecksumFailure,
            ReconError::DifferenceBoundTooSmall { bound: 4 },
            ReconError::RetriesExhausted { attempts: 4 },
            ReconError::InvalidInput("bad".into()),
            ReconError::Wire(WireError::UnexpectedEnd),
            ReconError::ResourceExhausted { what: "sessions per connection", limit: 8 },
        ] {
            assert!(!fatal.is_retryable(), "{fatal} should be fatal");
        }
    }

    #[test]
    fn structured_transport_errors_display_their_context() {
        let e = ReconError::FrameTooLarge { len: 500, max: 100 };
        assert!(e.to_string().contains("500") && e.to_string().contains("100"));
        let e = ReconError::ChecksumMismatch { expected: 0xAB, got: 0xCD };
        assert!(e.to_string().contains("0xab") && e.to_string().contains("0xcd"));
        let e = ReconError::PeerClosed { open_sessions: 7 };
        assert!(e.to_string().contains('7'));
        let e = ReconError::SessionStuck { waiting_a: vec![3], waiting_b: vec![9] };
        assert!(e.to_string().contains("a=[3]") && e.to_string().contains("b=[9]"));
        let e = ReconError::ResourceExhausted { what: "buffered output bytes", limit: 4096 };
        assert!(e.to_string().contains("buffered output bytes"));
    }
}
