//! The multiplexed [`Endpoint`]: many concurrent sessions over one framed
//! [`Transport`].
//!
//! Where [`SessionBuilder::run`](crate::SessionBuilder::run) drives exactly one
//! reconciliation in memory, an `Endpoint` owns any number of
//! [`SessionCore`]s, each identified by a [`SessionId`] both peers agreed on,
//! and pumps them all through a single byte stream: [`Endpoint::poll_ready`]
//! dispatches every arrived frame to its session, then drains every session's
//! outgoing envelopes into session-tagged [`Frame`]s. Per-session [`Transcript`]s
//! apply the one metering rule, [`Envelope::record_into`], so a
//! protocol multiplexed across a shared connection reports the same
//! [`CommStats`] as the same protocol run alone — amortizing transport setup
//! without distorting the paper's accounting.
//!
//! Session lifecycle: a party that produces its output (or fails) finishes its
//! session; the endpoint then frames an uncharged [`FrameBody::Fin`] so the
//! peer — whose own party may never complete, like Alice in the paper's
//! one-way convention — can retire its half. Outcomes are collected with
//! [`Endpoint::take_outcome`]; an Alice-side session is closed with
//! [`Endpoint::close`], which yields its accounting.

use crate::envelope::Envelope;
use crate::frame::{Frame, FrameBody, SessionId};
use crate::party::Party;
use crate::session::{Outcome, SessionCore};
use crate::transport::Transport;
use recon_base::comm::{CommStats, Direction, Transcript};
use recon_base::ReconError;
use std::any::Any;
use std::collections::BTreeMap;

/// Which paper role the local party plays in a session. The role fixes the
/// [`Direction`] its envelopes are recorded under, so both endpoints of a link
/// reconstruct identical per-session transcripts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The party whose data is being recovered; sends `A→B`.
    Alice,
    /// The recovering party; sends `B→A`.
    Bob,
}

impl Role {
    fn outgoing(self) -> Direction {
        match self {
            Role::Alice => Direction::AliceToBob,
            Role::Bob => Direction::BobToAlice,
        }
    }

    fn incoming(self) -> Direction {
        match self {
            Role::Alice => Direction::BobToAlice,
            Role::Bob => Direction::AliceToBob,
        }
    }
}

/// Object-safe view of a [`SessionCore`] with the output type erased, so one
/// endpoint can host sessions of heterogeneous protocols.
trait ErasedSession {
    fn poll_send(&mut self) -> Option<Envelope>;
    fn handle(&mut self, envelope: Envelope) -> Result<bool, ReconError>;
    fn is_done(&self) -> bool;
    fn take_output(&mut self) -> Option<Box<dyn Any>>;
}

impl<P> ErasedSession for SessionCore<P>
where
    P: Party + 'static,
    P::Output: 'static,
{
    fn poll_send(&mut self) -> Option<Envelope> {
        SessionCore::poll_send(self)
    }

    fn handle(&mut self, envelope: Envelope) -> Result<bool, ReconError> {
        SessionCore::handle(self, envelope)
    }

    fn is_done(&self) -> bool {
        SessionCore::is_done(self)
    }

    fn take_output(&mut self) -> Option<Box<dyn Any>> {
        SessionCore::take_output(self).map(|output| Box::new(output) as Box<dyn Any>)
    }
}

struct Slot {
    role: Role,
    session: Box<dyn ErasedSession>,
    transcript: Transcript,
    error: Option<ReconError>,
    peer_finished: bool,
    fin_sent: bool,
}

impl Slot {
    /// A session that will make no further local progress: its party completed,
    /// failed terminally, or the peer declared the session over.
    fn finished(&self) -> bool {
        self.session.is_done() || self.error.is_some() || self.peer_finished
    }
}

/// A multiplexer of concurrent protocol sessions over one framed transport.
pub struct Endpoint<T: Transport> {
    transport: T,
    sessions: BTreeMap<SessionId, Slot>,
    frames_dispatched: usize,
    integrity: Option<u64>,
    hello_pending: bool,
    max_sessions: Option<usize>,
}

impl<T: Transport> Endpoint<T> {
    /// An endpoint speaking over `transport`, with no sessions yet.
    pub fn new(transport: T) -> Self {
        Self {
            transport,
            sessions: BTreeMap::new(),
            frames_dispatched: 0,
            integrity: None,
            hello_pending: false,
            max_sessions: None,
        }
    }

    /// Offer checked frames (keyed checksum trailers) to the peer, keyed by
    /// `key` — a value both sides derived out of band, like every public coin
    /// in this workspace.
    ///
    /// The decoder accepts checked incoming frames immediately (the peer's
    /// offer may already be in flight), and a [`FrameBody::Hello`] goes out
    /// ahead of any session frame. Outgoing frames start carrying trailers
    /// once the peer's own Hello arrives; against a peer that never offers,
    /// the connection simply proceeds unchecked, byte-identical to a
    /// connection with no offer at all.
    pub fn offer_integrity(&mut self, key: u64) {
        self.integrity = Some(key);
        self.transport.set_integrity_key(Some(key));
        self.hello_pending = true;
    }

    /// Cap how many sessions may be registered at once; registrations past
    /// the cap fail with [`ReconError::ResourceExhausted`]. Servers set this
    /// so one connection cannot open sessions until memory runs out.
    pub fn set_max_sessions(&mut self, max: usize) {
        self.max_sessions = Some(max);
    }

    /// Register the local half of session `id`. The peer endpoint must register
    /// the opposite role under the same id. Fails on a duplicate id.
    pub fn register<P>(&mut self, id: SessionId, role: Role, party: P) -> Result<(), ReconError>
    where
        P: Party + 'static,
        P::Output: 'static,
    {
        if self.sessions.contains_key(&id) {
            return Err(ReconError::InvalidInput(format!("session id {id} already registered")));
        }
        if let Some(max) = self.max_sessions {
            if self.sessions.len() >= max {
                return Err(ReconError::ResourceExhausted {
                    what: "sessions per connection",
                    limit: max,
                });
            }
        }
        self.sessions.insert(
            id,
            Slot {
                role,
                session: Box::new(SessionCore::new(party)),
                transcript: Transcript::new(),
                error: None,
                peer_finished: false,
                fin_sent: false,
            },
        );
        Ok(())
    }

    /// Pump the multiplexer once: flush buffered output if the stream reported
    /// *writable*, drain and dispatch arrived frames if it reported
    /// *readable*, then frame and flush every envelope the sessions queued.
    /// An event-loop driver (see `recon-runtime`) passes the readiness its
    /// poller saw, so it never spins on a stream that has nothing for it; a
    /// driver with no poller, like [`drive_pair`], passes `(true, true)`.
    ///
    /// Returns whether any protocol-level work happened (frames dispatched or
    /// envelopes sent) — drivers loop until their sessions finish and treat a
    /// no-progress iteration as "waiting on the peer". Byte-level progress such
    /// as a partial frame arriving is visible through the transport's counters
    /// instead.
    pub fn poll_ready(&mut self, readable: bool, writable: bool) -> Result<bool, ReconError> {
        let mut progressed = false;
        if writable {
            self.transport.flush()?;
        }
        if readable {
            while let Some(frame) = self.transport.recv()? {
                progressed = true;
                self.dispatch(frame)?;
            }
        }
        progressed |= self.pump_sends()?;
        Ok(progressed)
    }

    /// `true` while the transport holds outgoing bytes its stream has not yet
    /// accepted — the signal a readiness-driven driver uses to arm (and, once
    /// the buffer drains, disarm) write interest.
    pub fn is_write_blocked(&self) -> bool {
        self.transport.has_pending_out()
    }

    fn pump_sends(&mut self) -> Result<bool, ReconError> {
        let mut progressed = false;
        if self.hello_pending {
            self.hello_pending = false;
            progressed = true;
            self.transport.send(&Frame::hello(true))?;
        }
        for (&id, slot) in self.sessions.iter_mut() {
            while let Some(envelope) = slot.session.poll_send() {
                progressed = true;
                if let Err(error) = envelope.record_into(&mut slot.transcript, slot.role.outgoing())
                {
                    slot.error = Some(error);
                    break;
                }
                self.transport.send(&Frame::envelope(id, envelope))?;
            }
            if slot.finished() && !slot.fin_sent {
                progressed = true;
                slot.fin_sent = true;
                self.transport.send(&Frame::fin(id))?;
            }
        }
        self.transport.flush()?;
        Ok(progressed)
    }

    fn dispatch(&mut self, frame: Frame) -> Result<(), ReconError> {
        self.frames_dispatched += 1;
        if let FrameBody::Hello { checksums } = frame.body {
            // Connection-level, never routed to a session. The peer wants
            // checked frames; oblige if we offered too (one-sided offers
            // degrade to an unchecked connection).
            if checksums {
                if let Some(key) = self.integrity {
                    self.transport.set_checked_out(Some(key));
                }
            }
            return Ok(());
        }
        let Some(slot) = self.sessions.get_mut(&frame.session_id) else {
            return match frame.body {
                // A Fin for an already-closed session is normal shutdown skew.
                FrameBody::Fin => Ok(()),
                _ => Err(ReconError::Transport(format!(
                    "envelope for unknown session {}",
                    frame.session_id
                ))),
            };
        };
        match frame.body {
            FrameBody::Fin | FrameBody::Hello { .. } => slot.peer_finished = true,
            FrameBody::Envelope(envelope) => {
                if slot.finished() {
                    // Late frame after local completion/failure; drop it, like
                    // `SessionBuilder::run` drops undelivered envelopes once the
                    // receiving party returns its output.
                    return Ok(());
                }
                // A charge the session's byte total cannot count fails the
                // session before its party sees the envelope.
                let recorded = envelope.record_into(&mut slot.transcript, slot.role.incoming());
                if let Err(error) = recorded.and_then(|()| slot.session.handle(envelope)) {
                    slot.error = Some(error);
                }
            }
        }
        Ok(())
    }

    /// Number of sessions still making progress (registered and not finished).
    pub fn open_sessions(&self) -> usize {
        self.sessions.values().filter(|slot| !slot.finished()).count()
    }

    /// Number of sessions currently registered (finished or not).
    pub fn registered_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// The ids of every currently registered session, in ascending order.
    /// Drivers that did not book-keep their registrations (a server handling
    /// whatever a factory installed) iterate these to harvest outcomes.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.sessions.keys().copied().collect()
    }

    /// Total frames dispatched to sessions so far.
    pub fn frames_dispatched(&self) -> usize {
        self.frames_dispatched
    }

    /// Whether session `id` is finished (`None` if unknown/already taken).
    pub fn is_finished(&self, id: SessionId) -> Option<bool> {
        self.sessions.get(&id).map(Slot::finished)
    }

    /// The communication recorded for session `id` so far.
    pub fn stats(&self, id: SessionId) -> Option<CommStats> {
        self.sessions.get(&id).map(|slot| slot.transcript.stats())
    }

    /// Collect the outcome of a completed session, removing it from the
    /// endpoint. Returns `None` while the session is still running, `Some(Err)`
    /// if its party failed, and `Some(Ok)` with the recovered output plus this
    /// session's measured communication otherwise. The requested output type
    /// must match the registered party's.
    pub fn take_outcome<O: 'static>(
        &mut self,
        id: SessionId,
    ) -> Option<Result<Outcome<O>, ReconError>> {
        let slot = self.sessions.get(&id)?;
        if slot.error.is_none() && !slot.session.is_done() {
            return None;
        }
        let mut slot = self.sessions.remove(&id).expect("checked above");
        if !slot.fin_sent {
            // Retiring before the next poll: tell the peer now. Best-effort,
            // like `close` — the session itself already completed, and a peer
            // that tore the transport down no longer needs the notification.
            let _ = self.transport.send(&Frame::fin(id));
        }
        if let Some(error) = slot.error {
            return Some(Err(error));
        }
        let output = slot.session.take_output().expect("done session has an output");
        match output.downcast::<O>() {
            Ok(recovered) => {
                Some(Ok(Outcome { recovered: *recovered, stats: slot.transcript.stats() }))
            }
            Err(_) => {
                Some(Err(ReconError::InvalidInput(format!("session {id} output type mismatch"))))
            }
        }
    }

    /// Retire every finished session at once, discarding outcomes and stats —
    /// the allocation-free harvest for serving paths that only need sessions
    /// gone (an Alice side whose parties produce no output). Each retired
    /// session gets its peer-notifying `Fin` exactly like [`Endpoint::close`].
    /// Returns how many sessions were retired.
    pub fn close_finished(&mut self) -> usize {
        let transport = &mut self.transport;
        let before = self.sessions.len();
        self.sessions.retain(|&id, slot| {
            if slot.finished() {
                if !slot.fin_sent {
                    let _ = transport.send(&Frame::fin(id));
                }
                false
            } else {
                true
            }
        });
        before - self.sessions.len()
    }

    /// Retire session `id` regardless of local completion — how an Alice-side
    /// endpoint (whose party never produces an output) releases a session once
    /// the peer's Fin arrived. Returns the session's accounting.
    pub fn close(&mut self, id: SessionId) -> Option<CommStats> {
        let slot = self.sessions.remove(&id)?;
        if !slot.fin_sent {
            let _ = self.transport.send(&Frame::fin(id));
        }
        Some(slot.transcript.stats())
    }

    /// The underlying transport (e.g. for its framed-byte counters).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Mutable access to the underlying transport.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }
}

/// Drive two connected in-process endpoints until every session on both sides
/// has finished.
///
/// Deadlock guard: a round where neither endpoint dispatched a frame, moved a
/// single byte through its transport, sent an envelope, or retired a session
/// cannot unblock itself — an in-process pair has no genuine "waiting on the
/// network" state — so the driver returns a structured
/// [`ReconError::SessionStuck`] naming the stuck sessions instead of looping
/// forever on a stalled peer. Byte-level movement counts as progress on
/// purpose, and the guard waits for a *second* consecutive idle round before
/// declaring deadlock: a transport that delivers one byte then `WouldBlock`
/// alternately (the fragmentation torture tests) legally produces isolated
/// idle rounds, but can never produce two in a row while bytes are pending.
pub fn drive_pair<TA: Transport, TB: Transport>(
    a: &mut Endpoint<TA>,
    b: &mut Endpoint<TB>,
) -> Result<(), ReconError> {
    // (frames dispatched, framed bytes in, open sessions) per side: every way a
    // round can matter. Frames/bytes only ever grow, and open sessions only
    // ever shrink, so "all six unchanged" is exactly "nothing happened".
    let observe = |a: &Endpoint<TA>, b: &Endpoint<TB>| {
        (
            a.frames_dispatched(),
            a.transport().bytes_framed_in(),
            a.open_sessions(),
            b.frames_dispatched(),
            b.transport().bytes_framed_in(),
            b.open_sessions(),
        )
    };
    // Both sides put their opening frames on the wire before either reads,
    // as `recon-runtime`'s drivers do.
    a.poll_ready(false, false)?;
    b.poll_ready(false, false)?;
    let mut before = observe(a, b);
    let mut idle_rounds = 0;
    loop {
        let progressed_a = a.poll_ready(true, true)?;
        let progressed_b = b.poll_ready(true, true)?;
        if a.open_sessions() == 0 && b.open_sessions() == 0 {
            return Ok(());
        }
        let after = observe(a, b);
        if progressed_a || progressed_b || after != before {
            idle_rounds = 0;
        } else {
            idle_rounds += 1;
        }
        if idle_rounds >= 2 {
            // BTreeMap iteration gives the ids ascending, as documented.
            return Err(ReconError::SessionStuck {
                waiting_a: a
                    .sessions
                    .iter()
                    .filter(|(_, s)| !s.finished())
                    .map(|(id, _)| *id)
                    .collect(),
                waiting_b: b
                    .sessions
                    .iter()
                    .filter(|(_, s)| !s.finished())
                    .map(|(id, _)| *id)
                    .collect(),
            });
        }
        before = after;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amplify::{AmplifiedReceiver, AmplifiedSender, Exhaust};
    use crate::session::SessionBuilder;
    use crate::transport::MemoryTransport;

    fn counting_pair(
        payload: u64,
        fail_before: u64,
    ) -> (impl Party<Output = ()>, impl Party<Output = u64>) {
        let alice = AmplifiedSender::new(4, move |attempt| {
            Ok(Envelope::round(1, "digest", &(payload + attempt)))
        })
        .unwrap();
        let bob = AmplifiedReceiver::new(
            4,
            move |attempt, env: Envelope| {
                if attempt < fail_before {
                    Err(ReconError::ChecksumFailure)
                } else {
                    env.decode_payload::<u64>()
                }
            },
            |_| true,
            |_| Envelope::control(2, "retry", &()),
            Exhaust::LastError,
        );
        (alice, bob)
    }

    #[test]
    fn one_endpoint_pair_multiplexes_many_sessions() {
        let (ta, tb) = MemoryTransport::pair();
        let mut alice_end = Endpoint::new(ta);
        let mut bob_end = Endpoint::new(tb);

        // Sessions with different retry depths finish at different times over
        // the same link.
        for id in 0..5u64 {
            let (alice, bob) = counting_pair(100 * id, id % 3);
            alice_end.register(id, Role::Alice, alice).unwrap();
            bob_end.register(id, Role::Bob, bob).unwrap();
        }
        drive_pair(&mut alice_end, &mut bob_end).unwrap();

        for id in 0..5u64 {
            let outcome = bob_end.take_outcome::<u64>(id).unwrap().unwrap();
            assert_eq!(outcome.recovered, 100 * id + id % 3);
            // Each replica is one 8-byte round; retries are uncharged control.
            let attempts = (id % 3 + 1) as usize;
            assert_eq!(outcome.stats.rounds, attempts);
            assert_eq!(outcome.stats.bytes_alice_to_bob, 8 * attempts);
            assert_eq!(outcome.stats.bytes_bob_to_alice, 0);
            // The Alice side retired via the peer's Fin with identical stats.
            assert_eq!(alice_end.close(id), Some(outcome.stats));
        }
        assert_eq!(bob_end.registered_sessions(), 0);
    }

    #[test]
    fn multiplexed_stats_match_session_builder() {
        let (ta, tb) = MemoryTransport::pair();
        let mut alice_end = Endpoint::new(ta);
        let mut bob_end = Endpoint::new(tb);
        for id in 0..3u64 {
            let (alice, bob) = counting_pair(7 * id, 2);
            alice_end.register(id, Role::Alice, alice).unwrap();
            bob_end.register(id, Role::Bob, bob).unwrap();
        }
        drive_pair(&mut alice_end, &mut bob_end).unwrap();

        for id in 0..3u64 {
            let multiplexed = bob_end.take_outcome::<u64>(id).unwrap().unwrap();
            let (alice, bob) = counting_pair(7 * id, 2);
            let solo = SessionBuilder::new(0).run(alice, bob).unwrap();
            assert_eq!(multiplexed.recovered, solo.recovered);
            assert_eq!(multiplexed.stats, solo.stats, "session {id}");
        }
    }

    #[test]
    fn failed_sessions_report_their_error_without_poisoning_others() {
        let (ta, tb) = MemoryTransport::pair();
        let mut alice_end = Endpoint::new(ta);
        let mut bob_end = Endpoint::new(tb);

        // Session 0 exhausts its single attempt; session 1 succeeds.
        let alice0 = AmplifiedSender::new(1, |_| Ok(Envelope::round(1, "digest", &1u64))).unwrap();
        let bob0: AmplifiedReceiver<u64> = AmplifiedReceiver::new(
            1,
            |_, _| Err(ReconError::ChecksumFailure),
            |_| true,
            |_| Envelope::control(2, "retry", &()),
            Exhaust::LastError,
        );
        alice_end.register(0, Role::Alice, alice0).unwrap();
        bob_end.register(0, Role::Bob, bob0).unwrap();
        let (alice1, bob1) = counting_pair(55, 0);
        alice_end.register(1, Role::Alice, alice1).unwrap();
        bob_end.register(1, Role::Bob, bob1).unwrap();

        drive_pair(&mut alice_end, &mut bob_end).unwrap();
        assert!(matches!(bob_end.take_outcome::<u64>(0), Some(Err(ReconError::ChecksumFailure))));
        let ok = bob_end.take_outcome::<u64>(1).unwrap().unwrap();
        assert_eq!(ok.recovered, 55);
    }

    #[test]
    fn duplicate_ids_and_unknown_envelopes_are_rejected() {
        let (ta, _tb) = MemoryTransport::pair();
        let mut end = Endpoint::new(ta);
        let (alice, _) = counting_pair(0, 0);
        end.register(9, Role::Alice, alice).unwrap();
        let (alice, _) = counting_pair(0, 0);
        assert!(end.register(9, Role::Alice, alice).is_err());

        assert!(end.dispatch(Frame::envelope(1234, Envelope::round(1, "m", &0u8))).is_err());
        // A stray Fin for a retired session is tolerated.
        assert!(end.dispatch(Frame::fin(1234)).is_ok());
    }

    #[test]
    fn close_finished_retires_sessions_without_outcomes() {
        let (ta, tb) = MemoryTransport::pair();
        let mut alice_end = Endpoint::new(ta);
        let mut bob_end = Endpoint::new(tb);
        for id in 0..3u64 {
            let (alice, bob) = counting_pair(id, 0);
            alice_end.register(id, Role::Alice, alice).unwrap();
            bob_end.register(id, Role::Bob, bob).unwrap();
        }
        assert_eq!(alice_end.close_finished(), 0, "nothing finished yet");
        drive_pair(&mut alice_end, &mut bob_end).unwrap();
        assert_eq!(alice_end.close_finished(), 3);
        assert_eq!(alice_end.registered_sessions(), 0);
        // Bob's outcomes are unaffected by Alice's bulk harvest.
        for id in 0..3u64 {
            assert!(bob_end.take_outcome::<u64>(id).unwrap().is_ok());
        }
    }

    #[test]
    fn drive_pair_detects_a_deadlocked_peer() {
        // Bob waits for an Alice that was never registered on the other side:
        // no frame, byte, or finish can ever happen, and the guard must name
        // the stuck session instead of looping forever.
        let (ta, tb) = MemoryTransport::pair();
        let mut alice_end = Endpoint::new(ta);
        let mut bob_end = Endpoint::new(tb);
        let (_, bob) = counting_pair(1, 0);
        bob_end.register(3, Role::Bob, bob).unwrap();
        match drive_pair(&mut alice_end, &mut bob_end) {
            Err(ReconError::SessionStuck { waiting_a, waiting_b }) => {
                assert_eq!(waiting_a, Vec::<SessionId>::new());
                assert_eq!(waiting_b, vec![3]);
            }
            other => panic!("expected SessionStuck naming the session, got {other:?}"),
        }
    }

    #[test]
    fn mutual_integrity_offers_turn_checksums_on() {
        let (ta, tb) = MemoryTransport::pair();
        let mut alice_end = Endpoint::new(ta);
        let mut bob_end = Endpoint::new(tb);
        let key = 0xC0FFEE_u64;
        alice_end.offer_integrity(key);
        bob_end.offer_integrity(key);
        let (alice, bob) = counting_pair(42, 1);
        alice_end.register(0, Role::Alice, alice).unwrap();
        bob_end.register(0, Role::Bob, bob).unwrap();
        drive_pair(&mut alice_end, &mut bob_end).unwrap();
        let outcome = bob_end.take_outcome::<u64>(0).unwrap().unwrap();
        assert_eq!(outcome.recovered, 43);
        // Stats are metered on envelopes, so trailers don't distort the
        // paper's accounting; only the framed byte counters grow.
        let (alice, bob) = counting_pair(42, 1);
        let solo = crate::session::SessionBuilder::new(0).run(alice, bob).unwrap();
        assert_eq!(outcome.stats, solo.stats);
    }

    #[test]
    fn one_sided_integrity_offer_degrades_to_unchecked() {
        let (ta, tb) = MemoryTransport::pair();
        let mut alice_end = Endpoint::new(ta);
        let mut bob_end = Endpoint::new(tb);
        alice_end.offer_integrity(5);
        let (alice, bob) = counting_pair(7, 0);
        alice_end.register(0, Role::Alice, alice).unwrap();
        bob_end.register(0, Role::Bob, bob).unwrap();
        drive_pair(&mut alice_end, &mut bob_end).unwrap();
        assert_eq!(bob_end.take_outcome::<u64>(0).unwrap().unwrap().recovered, 7);
    }

    #[test]
    fn session_cap_rejects_registration_with_a_structured_error() {
        let (ta, _tb) = MemoryTransport::pair();
        let mut end = Endpoint::new(ta);
        end.set_max_sessions(2);
        for id in 0..2 {
            let (alice, _) = counting_pair(id, 0);
            end.register(id, Role::Alice, alice).unwrap();
        }
        let (alice, _) = counting_pair(9, 0);
        match end.register(9, Role::Alice, alice) {
            Err(ReconError::ResourceExhausted { what, limit: 2 }) => {
                assert_eq!(what, "sessions per connection");
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        // Retiring a session frees its slot.
        end.close(0).unwrap();
        let (alice, _) = counting_pair(9, 0);
        end.register(9, Role::Alice, alice).unwrap();
    }

    #[test]
    fn poll_ready_drives_a_session_like_poll() {
        let (ta, tb) = MemoryTransport::pair();
        let mut alice_end = Endpoint::new(ta);
        let mut bob_end = Endpoint::new(tb);
        let (alice, bob) = counting_pair(9, 1);
        alice_end.register(0, Role::Alice, alice).unwrap();
        bob_end.register(0, Role::Bob, bob).unwrap();
        // Memory transports are always "ready" both ways; pumping by hand
        // must converge like drive_pair.
        let mut rounds = 0;
        while bob_end.take_outcome::<u64>(0).is_none() {
            alice_end.poll_ready(true, true).unwrap();
            bob_end.poll_ready(true, true).unwrap();
            rounds += 1;
            assert!(rounds < 64, "poll_ready failed to converge");
        }
        assert!(!alice_end.is_write_blocked(), "a memory pipe accepts every write");
        assert_eq!(alice_end.session_ids(), vec![0]);
        assert_eq!(bob_end.session_ids(), Vec::<SessionId>::new());
    }
}
