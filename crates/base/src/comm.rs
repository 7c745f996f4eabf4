//! Communication accounting: who sent how many bytes, and in how many rounds.
//!
//! Every protocol driver in this workspace (set reconciliation, set-of-sets
//! reconciliation, graph reconciliation) records each message it "sends" into a
//! [`Transcript`]. The paper's bounds are stated as bits of communication and rounds
//! of communication (Section 2: "the number of rounds of communication a protocol
//! uses ... denotes the number of total messages sent"); [`CommStats`] reports both so
//! the benchmark harness can regenerate Table 1 and the per-theorem experiments.

use crate::wire::Encode;
use std::fmt;

/// The direction of a message in a two-party protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// A message from Alice (the party whose data must be recovered) to Bob.
    AliceToBob,
    /// A message from Bob to Alice.
    BobToAlice,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::AliceToBob => write!(f, "A→B"),
            Direction::BobToAlice => write!(f, "B→A"),
        }
    }
}

/// A single recorded message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageStat {
    /// Who sent the message.
    pub direction: Direction,
    /// Serialized size in bytes.
    pub bytes: usize,
    /// Human-readable label (e.g. `"outer IBLT"`, `"difference estimator"`).
    pub label: String,
}

/// A transcript of a protocol run: the ordered list of messages exchanged.
///
/// Following the paper, the *number of rounds* equals the number of messages sent
/// (a one-round protocol is a single message from Alice to Bob). Messages recorded
/// with [`Transcript::record_parallel`] share a round with the previous message,
/// which models the paper's "in parallel" phrasing (e.g. Theorem 5.2 reconciles
/// signatures and labeled edges in the same round).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Transcript {
    messages: Vec<MessageStat>,
    /// `rounds[i]` is the round index of `messages[i]`.
    round_of: Vec<usize>,
    /// Bytes across all messages. A recorder of a peer's number checks it
    /// against `usize::MAX - total` first, so no sum below overflows.
    total: usize,
}

impl Transcript {
    /// Create an empty transcript.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a message carrying `payload`, starting a new round.
    pub fn record<T: Encode>(&mut self, direction: Direction, label: &str, payload: &T) -> usize {
        self.record_bytes(direction, label, payload.encoded_len())
    }

    /// Record a message of `bytes` bytes, starting a new round.
    pub fn record_bytes(&mut self, direction: Direction, label: &str, bytes: usize) -> usize {
        self.push(direction, label, bytes, self.rounds() + 1)
    }

    /// Record a message that travels in the same round as the previous message
    /// (the paper's "in parallel with" construction). If the transcript is empty this
    /// starts round 1.
    pub fn record_parallel<T: Encode>(
        &mut self,
        direction: Direction,
        label: &str,
        payload: &T,
    ) -> usize {
        self.record_parallel_bytes(direction, label, payload.encoded_len())
    }

    /// Record a message of `bytes` bytes in the same round as the previous message.
    ///
    /// The explicit-size counterpart of [`Transcript::record_parallel`], matching
    /// [`Transcript::record_bytes`]: callers that already hold a serialized payload
    /// (or an aggregate byte count) can charge it without re-encoding.
    pub fn record_parallel_bytes(
        &mut self,
        direction: Direction,
        label: &str,
        bytes: usize,
    ) -> usize {
        self.push(direction, label, bytes, self.rounds().max(1))
    }

    fn push(&mut self, direction: Direction, label: &str, bytes: usize, round: usize) -> usize {
        self.total += bytes;
        self.messages.push(MessageStat { direction, bytes, label: label.to_string() });
        self.round_of.push(round);
        bytes
    }

    /// Number of rounds used so far (= highest round index).
    pub fn rounds(&self) -> usize {
        self.round_of.last().copied().unwrap_or(0)
    }

    /// All recorded messages, in order.
    pub fn messages(&self) -> &[MessageStat] {
        &self.messages
    }

    /// Total bytes across all messages.
    pub fn total_bytes(&self) -> usize {
        self.total
    }

    /// Total bytes sent in the given direction.
    pub fn bytes_in_direction(&self, direction: Direction) -> usize {
        self.messages.iter().filter(|m| m.direction == direction).map(|m| m.bytes).sum()
    }

    /// Produce the summary statistics for this transcript.
    pub fn stats(&self) -> CommStats {
        CommStats {
            rounds: self.rounds(),
            messages: self.messages.len(),
            bytes_alice_to_bob: self.bytes_in_direction(Direction::AliceToBob),
            bytes_bob_to_alice: self.bytes_in_direction(Direction::BobToAlice),
        }
    }
}

/// Summary of a protocol run's communication cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Number of communication rounds (messages that could not be sent in parallel).
    pub rounds: usize,
    /// Number of individual messages.
    pub messages: usize,
    /// Bytes sent from Alice to Bob.
    pub bytes_alice_to_bob: usize,
    /// Bytes sent from Bob to Alice.
    pub bytes_bob_to_alice: usize,
}

impl CommStats {
    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> usize {
        self.bytes_alice_to_bob + self.bytes_bob_to_alice
    }

    /// Total bits in both directions (the unit the paper uses).
    pub fn total_bits(&self) -> usize {
        self.total_bytes() * 8
    }
}

impl fmt::Display for CommStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} bytes ({} A→B, {} B→A) in {} round(s), {} message(s)",
            self.total_bytes(),
            self.bytes_alice_to_bob,
            self.bytes_bob_to_alice,
            self.rounds,
            self.messages
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_transcript_has_zero_rounds() {
        let t = Transcript::new();
        assert_eq!(t.rounds(), 0);
        assert_eq!(t.total_bytes(), 0);
        assert_eq!(t.stats(), CommStats::default());
    }

    #[test]
    fn record_counts_encoded_len() {
        let mut t = Transcript::new();
        let payload = vec![1u64, 2, 3];
        let bytes = t.record(Direction::AliceToBob, "digest", &payload);
        assert_eq!(bytes, payload.encoded_len());
        assert_eq!(t.total_bytes(), bytes);
        assert_eq!(t.rounds(), 1);
    }

    #[test]
    fn rounds_increment_per_message_but_not_for_parallel() {
        let mut t = Transcript::new();
        t.record_bytes(Direction::AliceToBob, "m1", 10);
        t.record_parallel(Direction::AliceToBob, "m1b", &7u64);
        t.record_bytes(Direction::BobToAlice, "m2", 5);
        t.record_bytes(Direction::AliceToBob, "m3", 1);
        assert_eq!(t.rounds(), 3);
        assert_eq!(t.messages().len(), 4);
    }

    #[test]
    fn parallel_on_empty_transcript_starts_round_one() {
        let mut t = Transcript::new();
        t.record_parallel(Direction::AliceToBob, "m", &1u8);
        assert_eq!(t.rounds(), 1);
    }

    #[test]
    fn record_parallel_bytes_matches_record_parallel() {
        let payload = vec![1u64, 2, 3];
        let mut by_encode = Transcript::new();
        by_encode.record_bytes(Direction::AliceToBob, "m1", 10);
        by_encode.record_parallel(Direction::BobToAlice, "m2", &payload);
        let mut by_bytes = Transcript::new();
        by_bytes.record_bytes(Direction::AliceToBob, "m1", 10);
        by_bytes.record_parallel_bytes(Direction::BobToAlice, "m2", payload.encoded_len());
        assert_eq!(by_encode, by_bytes);
        assert_eq!(by_bytes.rounds(), 1);
    }

    #[test]
    fn direction_totals_are_split() {
        let mut t = Transcript::new();
        t.record_bytes(Direction::AliceToBob, "a", 100);
        t.record_bytes(Direction::BobToAlice, "b", 40);
        t.record_bytes(Direction::AliceToBob, "c", 1);
        let stats = t.stats();
        assert_eq!(stats.bytes_alice_to_bob, 101);
        assert_eq!(stats.bytes_bob_to_alice, 40);
        assert_eq!(stats.total_bytes(), 141);
        assert_eq!(stats.total_bits(), 141 * 8);
        assert_eq!(stats.rounds, 3);
    }

    #[test]
    fn display_formats_reasonably() {
        let mut t = Transcript::new();
        t.record_bytes(Direction::AliceToBob, "a", 10);
        let s = format!("{}", t.stats());
        assert!(s.contains("10 bytes"));
        assert!(s.contains("1 round"));
    }
}
