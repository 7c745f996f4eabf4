//! Deterministic fault injection for hostile-network testing.
//!
//! [`FaultyTransport`] wraps any [`Transport`] and corrupts the *wire bytes*
//! between the endpoint and the real carrier, driven by a seeded
//! [`FaultProfile`]: dropped frames, duplicated frames, single-bit flips,
//! cross-session reordering, and latency/bandwidth shaping. The same seed
//! reproduces the same mishaps byte for byte, so every hostile-network test
//! in this workspace is as deterministic as the protocols themselves.
//!
//! Two design points keep the faults *realistic* rather than merely chaotic:
//!
//! * **Corruption happens after checksumming.** The wrapper performs its own
//!   wire encoding (including the checked-frame trailer when integrity is
//!   negotiated) and injects the possibly-damaged bytes through
//!   [`Transport::send_wire`], exactly like a network that flips a bit on a
//!   frame the sender already protected. Flipping bits before the inner
//!   transport's encoder would checksum the damage and defeat detection.
//! * **Reordering preserves per-session FIFO.** Like QUIC streams, frames of
//!   one session never overtake each other — in-session reordering would be a
//!   protocol violation no real stream transport produces, and it would turn
//!   retryable network mishaps into non-retryable decode errors. A "reorder"
//!   here delays a frame so frames of *other* sessions pass it.
//!
//! Delivery is paced by [`Transport::flush`] ticks: each flush advances the
//! clock, releases every held frame whose delay has elapsed (within the
//! bandwidth budget), and — so a fault profile can slow a driver down but
//! never wedge it — force-releases the oldest held frame whenever a tick
//! would otherwise deliver nothing.

use crate::frame::{Frame, SessionId};
use crate::transport::Transport;
use recon_base::rng::Xoshiro256;
use recon_base::wire::{uvarint_len, write_uvarint, Encode};
use recon_base::ReconError;
use std::collections::{BTreeMap, VecDeque};

/// Seeded description of how a [`FaultyTransport`] misbehaves. Probabilities
/// are per *frame*; `0.0` disables a fault, and [`FaultProfile::clean`] is
/// the identity profile (useful to prove a wrapped run is byte-identical to
/// a bare one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Seed for the fault RNG. Same seed, same mishaps.
    pub seed: u64,
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability one random bit of a frame's body is flipped. Without
    /// checked frames a flip may corrupt payloads *silently*; run bit-flip
    /// profiles with integrity negotiated so damage surfaces as
    /// [`ReconError::ChecksumMismatch`].
    pub bit_flip: f64,
    /// Probability a frame is held back so later frames of other sessions
    /// overtake it.
    pub reorder: f64,
    /// Flush ticks every frame is delayed (0 = deliver on send).
    pub latency_ticks: u64,
    /// Bytes released per flush tick (`None` = unlimited) — crude bandwidth
    /// shaping. At least one frame is still released on any tick that would
    /// otherwise starve, so a tight budget slows drivers without wedging them.
    pub bytes_per_tick: Option<usize>,
}

impl FaultProfile {
    /// The identity profile: no faults, immediate delivery.
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            bit_flip: 0.0,
            reorder: 0.0,
            latency_ticks: 0,
            bytes_per_tick: None,
        }
    }

    /// Drop each frame with probability `p`; nothing else.
    pub fn drop_only(seed: u64, p: f64) -> Self {
        Self { drop: p, ..Self::clean(seed) }
    }

    /// Reorder (cross-session) each frame with probability `p`; nothing else.
    pub fn reorder_only(seed: u64, p: f64) -> Self {
        Self { reorder: p, ..Self::clean(seed) }
    }

    /// Flip one bit of each frame with probability `p`; nothing else.
    pub fn bit_flip_only(seed: u64, p: f64) -> Self {
        Self { bit_flip: p, ..Self::clean(seed) }
    }

    /// A little of everything: drops, duplicates, bit flips, reordering, and
    /// one tick of latency. Meant to run with integrity negotiated.
    pub fn combined(seed: u64) -> Self {
        Self {
            seed,
            drop: 0.02,
            duplicate: 0.02,
            bit_flip: 0.02,
            reorder: 0.05,
            latency_ticks: 1,
            bytes_per_tick: None,
        }
    }

    /// The same profile under a different seed (e.g. per retry attempt — a
    /// retry under the *same* seed would meet the same mishaps and fail the
    /// same way forever).
    pub fn with_seed(self, seed: u64) -> Self {
        Self { seed, ..self }
    }
}

/// Counters of what a [`FaultyTransport`] actually did — tests assert faults
/// really fired, and overhead reports cite them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames handed to `send` (before any fault).
    pub frames_sent: u64,
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames with one bit flipped.
    pub bit_flipped: u64,
    /// Frames held back for cross-session reordering.
    pub reordered: u64,
    /// Wire packets actually delivered to the inner transport.
    pub delivered: u64,
}

struct HeldPacket {
    bytes: Vec<u8>,
    due: u64,
}

/// A [`Transport`] decorator injecting seeded faults between an endpoint and
/// the real carrier. Wrap *both* halves of a pair (with different seeds) for
/// bidirectional hostility; see the module docs for the fault semantics.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    profile: FaultProfile,
    rng: Xoshiro256,
    checked_key: Option<u64>,
    queue: VecDeque<HeldPacket>,
    // Latest delivery tick already promised per session, so a delayed frame
    // never lets a *later* frame of the same session overtake it.
    session_due: BTreeMap<SessionId, u64>,
    tick: u64,
    stats: FaultStats,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wrap `inner`, misbehaving per `profile`.
    pub fn new(inner: T, profile: FaultProfile) -> Self {
        Self {
            inner,
            profile,
            rng: Xoshiro256::new(profile.seed),
            checked_key: None,
            queue: VecDeque::new(),
            session_due: BTreeMap::new(),
            tick: 0,
            stats: FaultStats::default(),
        }
    }

    /// What the faults have done so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Deliver every queued packet whose due tick has arrived, in queue order
    /// (which preserves per-session FIFO: a session's later frames always
    /// carry a due no earlier than its held ones). `force` releases the
    /// oldest packet even when nothing is due — the liveness guarantee.
    fn release(&mut self, force: bool) -> Result<(), ReconError> {
        let mut budget = self.profile.bytes_per_tick;
        let mut delivered_any = false;
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].due > self.tick {
                i += 1;
                continue;
            }
            if let Some(b) = budget {
                if delivered_any && self.queue[i].bytes.len() > b {
                    break; // over budget this tick; the rest keeps aging
                }
            }
            let packet = self.queue.remove(i).expect("index in bounds");
            budget = budget.map(|b| b.saturating_sub(packet.bytes.len()));
            self.stats.delivered += 1;
            delivered_any = true;
            self.inner.send_wire(&packet.bytes)?;
        }
        if force && !delivered_any {
            if let Some(packet) = self.queue.pop_front() {
                self.stats.delivered += 1;
                self.inner.send_wire(&packet.bytes)?;
            }
        }
        Ok(())
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, frame: &Frame) -> Result<(), ReconError> {
        self.stats.frames_sent += 1;
        // Encode the wire packet ourselves so faults land *after* any
        // checksum trailer, like real in-flight corruption.
        let mut body = Vec::new();
        match self.checked_key {
            Some(key) => frame.encode_checked(&mut body, key),
            None => frame.encode(&mut body),
        }
        let mut wire = Vec::with_capacity(uvarint_len(body.len() as u64) + body.len());
        write_uvarint(&mut wire, body.len() as u64);
        let prefix_len = wire.len();
        wire.extend_from_slice(&body);

        if self.rng.next_bool(self.profile.drop) {
            self.stats.dropped += 1;
            return Ok(());
        }
        if self.rng.next_bool(self.profile.bit_flip) {
            // Flip inside the body so framing survives and the corruption is
            // the checksum's problem, not the length prefix's.
            let at = prefix_len + self.rng.next_index(body.len());
            wire[at] ^= 1 << self.rng.next_index(8);
            self.stats.bit_flipped += 1;
        }
        let copies = if self.rng.next_bool(self.profile.duplicate) {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        let mut due = self.tick + self.profile.latency_ticks;
        if self.rng.next_bool(self.profile.reorder) {
            self.stats.reordered += 1;
            due += 1;
        }
        // Never let this frame be delivered before an earlier held frame of
        // the same session.
        let floor = self.session_due.entry(frame.session_id).or_insert(0);
        due = due.max(*floor);
        *floor = due;
        for _ in 0..copies {
            self.queue.push_back(HeldPacket { bytes: wire.clone(), due });
        }
        self.release(false)
    }

    fn recv(&mut self) -> Result<Option<Frame>, ReconError> {
        self.inner.recv()
    }

    fn flush(&mut self) -> Result<(), ReconError> {
        self.tick += 1;
        self.release(true)?;
        self.inner.flush()
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }

    fn has_pending_out(&self) -> bool {
        !self.queue.is_empty() || self.inner.has_pending_out()
    }

    fn bytes_framed_out(&self) -> u64 {
        self.inner.bytes_framed_out()
    }

    fn bytes_framed_in(&self) -> u64 {
        self.inner.bytes_framed_in()
    }

    fn set_integrity_key(&mut self, key: Option<u64>) {
        // Verification happens at the inner transport's decoder.
        self.inner.set_integrity_key(key);
    }

    fn set_checked_out(&mut self, key: Option<u64>) {
        // Intercepted: *we* do the outgoing wire encoding, so the trailer
        // must be ours for faults to land after it.
        self.checked_key = key;
    }

    fn set_max_frame(&mut self, max: usize) {
        self.inner.set_max_frame(max);
    }

    fn send_wire(&mut self, bytes: &[u8]) -> Result<(), ReconError> {
        self.inner.send_wire(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{drive_pair, Endpoint, Role};
    use crate::envelope::Envelope;
    use crate::transport::MemoryTransport;

    fn frame(session: SessionId, value: u64) -> Frame {
        Frame::envelope(session, Envelope::round(1, "m", &value))
    }

    fn drain(t: &mut MemoryTransport) -> Vec<Frame> {
        let mut frames = Vec::new();
        while let Some(f) = t.recv().unwrap() {
            frames.push(f);
        }
        frames
    }

    #[test]
    fn clean_profile_is_the_identity() {
        let (ma, mut mb) = MemoryTransport::pair();
        let mut faulty = FaultyTransport::new(ma, FaultProfile::clean(1));
        let sent: Vec<Frame> = (0..10).map(|i| frame(i % 3, i)).collect();
        for f in &sent {
            faulty.send(f).unwrap();
        }
        faulty.flush().unwrap();
        assert_eq!(drain(&mut mb), sent);
        let stats = faulty.fault_stats();
        assert_eq!(stats.frames_sent, 10);
        assert_eq!(stats.delivered, 10);
        assert_eq!(stats.dropped + stats.duplicated + stats.bit_flipped + stats.reordered, 0);
    }

    #[test]
    fn same_seed_same_faults() {
        let profile = FaultProfile::combined(0xFA07);
        let run = || {
            let (ma, _mb) = MemoryTransport::pair();
            let mut faulty = FaultyTransport::new(ma, profile);
            for i in 0..200 {
                faulty.send(&frame(i % 5, i)).unwrap();
            }
            for _ in 0..8 {
                faulty.flush().unwrap();
            }
            let bytes_delivered = faulty.inner().bytes_framed_out();
            (faulty.fault_stats(), bytes_delivered)
        };
        let (stats_1, bytes_1) = run();
        let (stats_2, bytes_2) = run();
        assert_eq!(stats_1, stats_2);
        assert_eq!(bytes_1, bytes_2);
        // The combined profile actually fires every fault over 200 frames.
        assert!(stats_1.dropped > 0, "{stats_1:?}");
        assert!(stats_1.duplicated > 0, "{stats_1:?}");
        assert!(stats_1.bit_flipped > 0, "{stats_1:?}");
        assert!(stats_1.reordered > 0, "{stats_1:?}");
        // A different seed meets different mishaps.
        let (ma, _mb) = MemoryTransport::pair();
        let mut other = FaultyTransport::new(ma, profile.with_seed(0x0F));
        for i in 0..200 {
            other.send(&frame(i % 5, i)).unwrap();
        }
        assert_ne!(other.fault_stats(), stats_1);
    }

    #[test]
    fn reordering_never_breaks_per_session_fifo() {
        let profile = FaultProfile { reorder: 0.5, latency_ticks: 1, ..FaultProfile::clean(77) };
        let (ma, mut mb) = MemoryTransport::pair();
        let mut faulty = FaultyTransport::new(ma, profile);
        for i in 0..100u64 {
            faulty.send(&frame(i % 4, i)).unwrap();
        }
        for _ in 0..16 {
            faulty.flush().unwrap();
        }
        let received = drain(&mut mb);
        assert_eq!(received.len(), 100, "no drops in this profile");
        assert!(faulty.fault_stats().reordered > 0, "reordering must have fired");
        let payload = |f: &Frame| match &f.body {
            crate::frame::FrameBody::Envelope(e) => e.decode_payload::<u64>().unwrap(),
            other => panic!("unexpected body {other:?}"),
        };
        // Cross-session order changed...
        assert!(
            received.iter().map(payload).collect::<Vec<_>>() != (0..100).collect::<Vec<_>>(),
            "expected at least one cross-session reorder"
        );
        // ...but each session's own frames stayed in order.
        for session in 0..4u64 {
            let per: Vec<u64> =
                received.iter().filter(|f| f.session_id == session).map(payload).collect();
            assert!(per.windows(2).all(|w| w[0] < w[1]), "session {session} reordered: {per:?}");
        }
    }

    #[test]
    fn bit_flips_surface_as_checksum_mismatches_when_negotiated() {
        let key = 0x0BAD_C0DE_u64;
        let profile = FaultProfile::bit_flip_only(3, 1.0);
        let (ma, mut mb) = MemoryTransport::pair();
        mb.set_integrity_key(Some(key));
        let mut faulty = FaultyTransport::new(ma, profile);
        faulty.set_checked_out(Some(key));
        faulty.send(&frame(1, 42)).unwrap();
        faulty.flush().unwrap();
        assert!(matches!(mb.recv(), Err(ReconError::ChecksumMismatch { .. })));
        assert_eq!(faulty.fault_stats().bit_flipped, 1);
    }

    #[test]
    fn latency_shaping_cannot_wedge_an_endpoint_pair() {
        // Heavy shaping: multi-tick latency and a tiny bandwidth budget. The
        // forced-release liveness rule must keep drive_pair converging.
        let profile =
            FaultProfile { latency_ticks: 3, bytes_per_tick: Some(64), ..FaultProfile::clean(9) };
        let (ma, mb) = MemoryTransport::pair();
        let mut alice_end = Endpoint::new(FaultyTransport::new(ma, profile));
        let mut bob_end = Endpoint::new(FaultyTransport::new(mb, profile.with_seed(10)));
        let alice = crate::amplify::AmplifiedSender::new(4, |attempt| {
            Ok(Envelope::round(1, "digest", &(100 + attempt)))
        })
        .unwrap();
        let bob = crate::amplify::AmplifiedReceiver::new(
            4,
            |attempt, env: Envelope| {
                if attempt < 2 {
                    Err(ReconError::ChecksumFailure)
                } else {
                    env.decode_payload::<u64>()
                }
            },
            |_| true,
            |_| Envelope::control(2, "retry", &()),
            crate::amplify::Exhaust::LastError,
        );
        alice_end.register(0, Role::Alice, alice).unwrap();
        bob_end.register(0, Role::Bob, bob).unwrap();
        drive_pair(&mut alice_end, &mut bob_end).unwrap();
        assert_eq!(bob_end.take_outcome::<u64>(0).unwrap().unwrap().recovered, 102);
    }

    #[test]
    fn dropped_frames_stall_the_pair_as_a_retryable_error() {
        // Drop everything: the pair can never finish, and the failure must be
        // the structured, retryable SessionStuck — the signal a caller's
        // retry loop keys on.
        let (ma, mb) = MemoryTransport::pair();
        let mut alice_end =
            Endpoint::new(FaultyTransport::new(ma, FaultProfile::drop_only(4, 1.0)));
        let mut bob_end = Endpoint::new(FaultyTransport::new(mb, FaultProfile::drop_only(5, 1.0)));
        let alice =
            crate::amplify::AmplifiedSender::new(1, |_| Ok(Envelope::round(1, "digest", &7u64)))
                .unwrap();
        let bob = crate::amplify::AmplifiedReceiver::new(
            1,
            |_, env: Envelope| env.decode_payload::<u64>(),
            |_| true,
            |_| Envelope::control(2, "retry", &()),
            crate::amplify::Exhaust::LastError,
        );
        alice_end.register(0, Role::Alice, alice).unwrap();
        bob_end.register(0, Role::Bob, bob).unwrap();
        let error = drive_pair(&mut alice_end, &mut bob_end).unwrap_err();
        assert!(matches!(error, ReconError::SessionStuck { .. }), "{error}");
        assert!(error.is_retryable());
    }
}
