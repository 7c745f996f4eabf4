//! The [`Reactor`]: many multiplexed [`Endpoint`]s driven purely off readiness.
//!
//! A reactor owns a [`Poller`] plus any number of *connections* — endpoints
//! over [`Pollable`] stream transports — and pumps each one only when the OS
//! reports its stream readable or writable: no speculative polling, no
//! sleep-backoff, idle connections cost nothing. Each [`Reactor::turn`] is one
//! event-loop iteration:
//!
//! 1. wait on the poller (bounded by the caller's budget and the earliest
//!    deadline),
//! 2. [`Endpoint::poll_ready`] every connection that got an event,
//! 3. let the caller's visitor harvest outcomes / retire sessions,
//! 4. re-arm each connection's interest from its transport's state — read
//!    until the read half hits EOF, write exactly while output is buffered
//!    ([`Endpoint::is_write_blocked`]) — retire connections that finished, and
//!    fire expired per-session deadlines ([`ReconError::Timeout`]).
//!
//! Connection lifecycle: a connection whose sessions have all been retired
//! keeps its descriptors registered until the transport's output buffer
//! drains (graceful `Fin` delivery), then closes cleanly. A peer that
//! disappears mid-session surfaces as a transport error; a peer that stalls
//! past its deadline, or half-closes and never takes our output, is cut off by
//! the deadline queue. Either way the endpoint is handed back through
//! [`Reactor::take_finished`] for post-mortem accounting.
//!
//! The reactor is single-threaded by design — sessions are `!Sync` state
//! machines — and scales across cores by running one reactor per worker
//! thread; see [`Server`](crate::Server) for the accept layer.

use crate::poller::{Event, Interest, Poller};
use crate::sys;
use recon_base::ReconError;
use recon_protocol::{Endpoint, Pollable, SessionId, Transport};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

/// Identifier of one connection within a reactor (never reused).
pub type ConnId = u64;

/// Token reserved for the reactor's own waker pipe.
const WAKE_TOKEN: u64 = u64::MAX;

/// Token reserved for the auxiliary descriptor ([`Reactor::watch_aux`]).
const AUX_TOKEN: u64 = u64::MAX - 1;

/// Tuning for a [`Reactor`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Deadline applied to every session present on a connection when it is
    /// inserted: a session not finished this long after insertion, or output
    /// not drained by then, fails its connection with [`ReconError::Timeout`].
    /// `None` disables deadlines.
    pub session_deadline: Option<Duration>,
    /// First [`ConnId`] this reactor hands out. A multi-reactor server gives
    /// each worker a disjoint base so connection ids are process-unique.
    pub first_conn_id: ConnId,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self { session_deadline: Some(Duration::from_secs(30)), first_conn_id: 0 }
    }
}

/// Cross-thread handle that interrupts a blocked [`Reactor::turn`].
#[derive(Debug)]
pub struct Waker {
    pipe: std::io::PipeWriter,
}

impl Clone for Waker {
    fn clone(&self) -> Self {
        Self { pipe: self.pipe.try_clone().expect("clone waker pipe") }
    }
}

impl Waker {
    /// Wake the reactor. Best-effort: a full pipe already guarantees a wake,
    /// and a dropped reactor no longer cares.
    pub fn wake(&self) {
        let _ = (&self.pipe).write(&[1]);
    }
}

/// A transport's descriptors in a [`Poller`]: the read descriptor under
/// `token`, a separate write descriptor (a pipe pair's) under `token | 1`,
/// each holding the interest [`Registration::wanted`] computes.
struct Registration {
    token: u64,
    read_fd: RawFd,
    /// The separate write descriptor; `None` when one socket does both.
    write_fd: Option<RawFd>,
    /// Interest held on the read descriptor; `None` once it left the set.
    read: Option<Interest>,
    /// Interest held on the separate write descriptor.
    write: Interest,
}

impl Registration {
    /// Register `transport`'s descriptors under `token` (low bit clear).
    fn new<T: Pollable>(poller: &mut Poller, transport: &T, token: u64) -> std::io::Result<Self> {
        let read_fd = transport.read_fd();
        let write_fd = Some(transport.write_fd()).filter(|&fd| fd != read_fd);
        poller.register(read_fd, token, Interest::READ)?;
        if let Some(fd) = write_fd {
            if let Err(e) = poller.register(fd, token | 1, Interest::NONE) {
                let _ = poller.deregister(read_fd);
                return Err(e);
            }
        }
        Ok(Self { token, read_fd, write_fd, read: Some(Interest::READ), write: Interest::NONE })
    }

    /// The one interest rule, from the transport's state alone: readability
    /// until the read half hits EOF, writability while output is buffered.
    /// A socket at EOF stays registered (a half-closed socket reports nothing
    /// it is not asked for); a pipe's read end leaves the set, because
    /// `poll(2)` reports its hang-up whatever the interest.
    fn wanted<T: Transport>(&self, transport: &T) -> (Option<Interest>, Interest) {
        let (readable, writable) = (!transport.is_closed(), transport.has_pending_out());
        match self.write_fd {
            None => (Some(Interest { readable, writable }), Interest::NONE),
            Some(_) => (readable.then_some(Interest::READ), Interest { readable: false, writable }),
        }
    }

    /// Bring the poller in line with [`Registration::wanted`].
    fn update<T: Transport>(&mut self, poller: &mut Poller, transport: &T) -> std::io::Result<()> {
        let (read, write) = self.wanted(transport);
        if read != self.read {
            match read {
                Some(interest) => poller.modify(self.read_fd, self.token, interest)?,
                None => poller.deregister(self.read_fd)?,
            }
            self.read = read;
        }
        if let Some(fd) = self.write_fd.filter(|_| write != self.write) {
            poller.modify(fd, self.token | 1, write)?;
            self.write = write;
        }
        Ok(())
    }

    /// Take every descriptor still in the set out of it.
    fn remove(&self, poller: &mut Poller) {
        if self.read.is_some() {
            let _ = poller.deregister(self.read_fd);
        }
        if let Some(fd) = self.write_fd {
            let _ = poller.deregister(fd);
        }
    }
}

/// The readiness an event reports for its transport, as `(readable,
/// writable)`. On a separate write descriptor (odd token) only writability
/// means anything; its hang-up surfaces on the next flush.
fn readiness(event: &Event) -> (bool, bool) {
    if event.token & 1 == 1 {
        (false, event.writable || event.readable)
    } else {
        (event.readable, event.writable)
    }
}

struct Conn<T: Transport + Pollable> {
    endpoint: Endpoint<T>,
    /// Its descriptors in the reactor's poller.
    watch: Registration,
    /// Error captured while pumping; resolved during the retirement pass.
    failed: Option<ReconError>,
    inserted: Instant,
}

/// A connection the reactor retired, handed back for accounting.
pub struct Finished<T: Transport + Pollable> {
    /// The connection's id.
    pub conn: ConnId,
    /// The endpoint, with its transport counters and any unharvested sessions.
    pub endpoint: Endpoint<T>,
    /// `Ok` for a clean close (all sessions retired, output drained, or the
    /// peer closed after every session finished); the error otherwise.
    pub result: Result<(), ReconError>,
}

/// A readiness-driven driver for multiplexed endpoints; see the module docs.
pub struct Reactor<T: Transport + Pollable> {
    poller: Poller,
    conns: BTreeMap<ConnId, Conn<T>>,
    /// Per-session deadlines, oldest first. Every entry is insert time plus
    /// the one `session_deadline`, so pushes arrive already sorted.
    deadlines: VecDeque<(Instant, (ConnId, SessionId))>,
    finished: Vec<Finished<T>>,
    events: Vec<Event>,
    next_conn: ConnId,
    waker_rx: std::io::PipeReader,
    waker: Waker,
    aux_fd: Option<RawFd>,
    aux_ready: bool,
    config: ReactorConfig,
}

fn io_err(context: &str, e: std::io::Error) -> ReconError {
    ReconError::Transport(format!("{context}: {e}"))
}

impl<T: Transport + Pollable> Reactor<T> {
    /// A reactor with no connections yet.
    pub fn new(config: ReactorConfig) -> Result<Self, ReconError> {
        let mut poller = Poller::new();
        let (waker_rx, waker_tx) = std::io::pipe().map_err(|e| io_err("create waker pipe", e))?;
        sys::set_nonblocking(waker_rx.as_raw_fd()).map_err(|e| io_err("waker nonblock", e))?;
        sys::set_nonblocking(waker_tx.as_raw_fd()).map_err(|e| io_err("waker nonblock", e))?;
        poller
            .register(waker_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)
            .map_err(|e| io_err("register waker", e))?;
        Ok(Self {
            poller,
            conns: BTreeMap::new(),
            deadlines: VecDeque::new(),
            finished: Vec::new(),
            events: Vec::new(),
            next_conn: config.first_conn_id,
            waker_rx,
            waker: Waker { pipe: waker_tx },
            aux_fd: None,
            aux_ready: false,
            config,
        })
    }

    /// Watch one auxiliary readable descriptor (a worker's own listener)
    /// alongside the connections. A turn that sees it readable latches that,
    /// and [`Reactor::take_aux_ready`] hands the latch out.
    pub fn watch_aux(&mut self, fd: RawFd) -> Result<(), ReconError> {
        if let Some(old) = self.aux_fd.take() {
            let _ = self.poller.deregister(old);
        }
        self.poller.register(fd, AUX_TOKEN, Interest::READ).map_err(|e| io_err("watch aux", e))?;
        self.aux_fd = Some(fd);
        Ok(())
    }

    /// Stop watching the auxiliary descriptor.
    pub fn unwatch_aux(&mut self) {
        if let Some(fd) = self.aux_fd.take() {
            let _ = self.poller.deregister(fd);
        }
        self.aux_ready = false;
    }

    /// Consume the auxiliary-readiness latch. A caller that must back off
    /// instead of consuming the readiness (the server on a failed `accept`)
    /// unwatches the descriptor, since a still-readable one would end every
    /// turn at once, and watches it again later.
    pub fn take_aux_ready(&mut self) -> bool {
        std::mem::take(&mut self.aux_ready)
    }

    /// A handle other threads use to interrupt [`Reactor::turn`].
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Number of live connections.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// Whether no connections are live.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Adopt `endpoint`, registering its transport's descriptors and arming a
    /// deadline for every session currently registered on it. The endpoint is
    /// pumped once immediately so opening envelopes go out without waiting for
    /// the first readiness event.
    pub fn insert(&mut self, endpoint: Endpoint<T>) -> Result<ConnId, ReconError> {
        let conn = self.next_conn;
        self.next_conn += 1;
        let watch = Registration::new(&mut self.poller, endpoint.transport(), conn << 1)
            .map_err(|e| io_err("register connection", e))?;
        let now = Instant::now();
        if let Some(deadline) = self.config.session_deadline {
            // `now` never decreases and `deadline` is one constant: FIFO order.
            let at = now + deadline;
            debug_assert!(self.deadlines.back().is_none_or(|&(last, _)| last <= at));
            for session in endpoint.session_ids() {
                self.deadlines.push_back((at, (conn, session)));
            }
        }
        let mut slot = Conn { endpoint, watch, failed: None, inserted: now };
        // Kick: frame and (attempt to) flush whatever the sessions want to say
        // first; a full socket buffer just arms write interest below.
        if let Err(e) = slot.endpoint.poll_ready(false, false) {
            slot.failed = Some(e);
        }
        self.conns.insert(conn, slot);
        self.settle(conn);
        Ok(conn)
    }

    /// One event-loop iteration; see the module docs. Blocks at most
    /// `max_wait` (`None`: until an event, a deadline, or a wake). The visitor
    /// runs for every connection that got an event, *after* it was pumped —
    /// the place to harvest outcomes and retire finished sessions. Returns how
    /// many connections had events.
    pub fn turn(
        &mut self,
        max_wait: Option<Duration>,
        mut visit: impl FnMut(ConnId, &mut Endpoint<T>),
    ) -> Result<usize, ReconError> {
        let now = Instant::now();
        let deadline_budget =
            self.deadlines.front().map(|&(at, _)| at.saturating_duration_since(now));
        let wait = match (max_wait, deadline_budget) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (one, other) => one.or(other),
        };
        let mut events = std::mem::take(&mut self.events);
        self.poller.wait(&mut events, wait).map_err(|e| io_err("poller wait", e))?;

        // Merge per-connection readiness (a pipe pair can fire both halves).
        let mut ready: BTreeMap<ConnId, (bool, bool)> = BTreeMap::new();
        for event in &events {
            if event.token == WAKE_TOKEN {
                let mut drain = [0u8; 64];
                while matches!(self.waker_rx.read(&mut drain), Ok(n) if n > 0) {}
                continue;
            }
            if event.token == AUX_TOKEN {
                self.aux_ready = true;
                continue;
            }
            let entry = ready.entry(event.token >> 1).or_insert((false, false));
            let (readable, writable) = readiness(event);
            entry.0 |= readable;
            entry.1 |= writable;
        }
        self.events = events;

        let touched = ready.len();
        for (&conn, &(readable, writable)) in &ready {
            let Some(slot) = self.conns.get_mut(&conn) else { continue };
            match slot.endpoint.poll_ready(readable, writable) {
                Ok(_) => {
                    visit(conn, &mut slot.endpoint);
                    // The visitor may have registered new sessions (a service
                    // starting a reconciliation in response to a control
                    // message). Their opening envelopes are queued inside the
                    // endpoint, and no readiness event will arrive to flush
                    // them — pump once more before settling.
                    if let Err(e) = slot.endpoint.poll_ready(false, false) {
                        slot.failed = Some(e);
                    }
                }
                Err(e) => slot.failed = Some(e),
            }
        }
        for (conn, _) in ready {
            self.settle(conn);
        }

        // Deadlines, including ones that expired while we were blocked.
        // Cancellation is lazy: a retired connection's or finished session's
        // entry fires into the void.
        let now = Instant::now();
        while let Some(&(at, (conn, session))) = self.deadlines.front() {
            if at > now {
                break;
            }
            self.deadlines.pop_front();
            let Some(slot) = self.conns.get_mut(&conn) else { continue };
            // An open session, or output the peer never took: either way the
            // connection outlived its deadline.
            if slot.endpoint.is_finished(session) == Some(false) || slot.endpoint.is_write_blocked()
            {
                let waited_ms = now.saturating_duration_since(slot.inserted).as_millis() as u64;
                slot.failed = Some(ReconError::Timeout { waited_ms });
                self.settle(conn);
            }
        }
        Ok(touched)
    }

    /// Retire `conn` if it reached a terminal state; otherwise bring its
    /// interest in line with the transport's state.
    fn settle(&mut self, conn: ConnId) {
        loop {
            let Some(slot) = self.conns.get_mut(&conn) else { return };
            let endpoint = &slot.endpoint;
            let result = if let Some(error) = slot.failed.take() {
                // A peer that vanishes after every session finished is
                // shutdown skew (our Fin hitting its closed socket), not a
                // failure.
                if endpoint.open_sessions() == 0 && !matches!(error, ReconError::Timeout { .. }) {
                    Some(Ok(()))
                } else {
                    Some(Err(error))
                }
            } else if endpoint.transport().is_closed() && endpoint.open_sessions() > 0 {
                Some(Err(ReconError::PeerClosed { open_sessions: endpoint.open_sessions() }))
            } else if endpoint.registered_sessions() == 0 && !endpoint.is_write_blocked() {
                // Every session retired and the Fins are on the wire: done.
                Some(Ok(()))
            } else {
                None
            };

            match result {
                Some(result) => {
                    let slot = self.conns.remove(&conn).expect("checked above");
                    slot.watch.remove(&mut self.poller);
                    self.finished.push(Finished { conn, endpoint: slot.endpoint, result });
                    return;
                }
                None => match slot.watch.update(&mut self.poller, slot.endpoint.transport()) {
                    Ok(()) => return,
                    // Mark failed and take the retirement branch above.
                    Err(e) => slot.failed = Some(io_err("update interest", e)),
                },
            }
        }
    }

    /// Connections retired since the last call, in retirement order.
    pub fn take_finished(&mut self) -> Vec<Finished<T>> {
        std::mem::take(&mut self.finished)
    }
}

/// Drive one endpoint to completion on a private poller — the client-side
/// counterpart of a served connection, and the replacement for every
/// sleep-backoff loop the examples used to carry.
///
/// `until` inspects the endpoint after each pumped event (harvest outcomes,
/// retire sessions) and returns `true` once the caller has everything it
/// wants; the driver then drains any buffered output (so final `Fin`s reach
/// the peer) and returns. A `deadline` bounds the whole call with
/// [`ReconError::Timeout`].
pub fn drive_endpoint<T: Transport + Pollable>(
    endpoint: &mut Endpoint<T>,
    config: &ReactorConfig,
    mut until: impl FnMut(&mut Endpoint<T>) -> Result<bool, ReconError>,
) -> Result<(), ReconError> {
    let mut poller = Poller::new();
    let started = Instant::now();
    let mut watch = Registration::new(&mut poller, endpoint.transport(), 0)
        .map_err(|e| io_err("register", e))?;

    endpoint.poll_ready(false, false)?;
    let mut events = Vec::new();
    let mut done = false;
    loop {
        if !done && until(endpoint)? {
            done = true;
        }
        if done && !endpoint.is_write_blocked() {
            return Ok(());
        }
        watch
            .update(&mut poller, endpoint.transport())
            .map_err(|e| io_err("update interest", e))?;
        let budget = match config.session_deadline {
            Some(deadline) => {
                let left = deadline.checked_sub(started.elapsed()).ok_or(ReconError::Timeout {
                    waited_ms: started.elapsed().as_millis() as u64,
                })?;
                Some(left)
            }
            None => None,
        };
        poller.wait(&mut events, budget).map_err(|e| io_err("poller wait", e))?;
        let (mut readable, mut writable) = (false, false);
        for event in &events {
            let (r, w) = readiness(event);
            readable |= r;
            writable |= w;
        }
        endpoint.poll_ready(readable, writable)?;
        // A peer that closed can never answer an open session: fail fast. Any
        // frames that arrived before the close were dispatched by poll_ready
        // above, so finished-but-unharvested sessions (open_sessions == 0)
        // still get their turn through `until` on the next iteration.
        if endpoint.transport().is_closed() && endpoint.open_sessions() > 0 {
            return Err(ReconError::PeerClosed { open_sessions: endpoint.open_sessions() });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_protocol::amplify::{AmplifiedReceiver, AmplifiedSender, Exhaust};
    use recon_protocol::{Envelope, Role, StreamTransport};
    use std::net::{TcpListener, TcpStream};

    type TcpEndpoint = Endpoint<StreamTransport<TcpStream, TcpStream>>;

    fn tcp_endpoint_pair() -> (TcpEndpoint, TcpEndpoint) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        let wrap = |stream: TcpStream| {
            stream.set_nonblocking(true).expect("nonblocking");
            let reader = stream.try_clone().expect("clone");
            Endpoint::new(StreamTransport::new(reader, stream))
        };
        (wrap(server), wrap(client))
    }

    fn chatty_pair(
        payload: u64,
        retries: u64,
    ) -> (impl recon_protocol::Party<Output = ()>, impl recon_protocol::Party<Output = u64>) {
        let alice = AmplifiedSender::new(8, move |attempt| {
            Ok(Envelope::round(1, "digest", &(payload + attempt)))
        })
        .unwrap();
        let bob = AmplifiedReceiver::new(
            8,
            move |attempt, env: Envelope| {
                if attempt < retries {
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
    fn reactor_serves_a_connection() {
        let (mut server_end, mut client_end) = tcp_endpoint_pair();
        let (alice, bob) = chatty_pair(40, 2);
        server_end.register(0, Role::Alice, alice).unwrap();
        client_end.register(0, Role::Bob, bob).unwrap();

        let config = ReactorConfig {
            session_deadline: Some(Duration::from_secs(10)),
            ..ReactorConfig::default()
        };
        let mut reactor = Reactor::new(config).unwrap();
        let conn = reactor.insert(server_end).unwrap();
        assert_eq!(reactor.len(), 1);

        // Interleave: the reactor drives the server side off readiness while
        // the client pumps itself speculatively (its own loop is exercised by
        // drive_endpoint below).
        let mut outcome = None;
        for _ in 0..400 {
            reactor
                .turn(Some(Duration::from_millis(5)), |id, endpoint| {
                    assert_eq!(id, conn);
                    endpoint.close_finished();
                })
                .unwrap();
            client_end.poll_ready(true, true).unwrap();
            if outcome.is_none() {
                outcome = client_end.take_outcome::<u64>(0);
            }
            if outcome.is_some() && reactor.is_empty() {
                break;
            }
        }
        let outcome = outcome.expect("client finished").expect("session ok");
        assert_eq!(outcome.recovered, 42);
        let finished = reactor.take_finished();
        assert_eq!(finished.len(), 1);
        assert!(finished[0].result.is_ok(), "{:?}", finished[0].result);
        assert!(finished[0].endpoint.transport().bytes_framed_out() > 0);
    }

    #[test]
    fn stalled_sessions_hit_their_deadline() {
        let (mut server_end, _client_end_kept_silent) = tcp_endpoint_pair();
        // Bob waits for an opening message that never comes.
        let (_, bob) = chatty_pair(0, 0);
        server_end.register(0, Role::Bob, bob).unwrap();

        let mut reactor = Reactor::new(ReactorConfig {
            session_deadline: Some(Duration::from_millis(60)),
            ..ReactorConfig::default()
        })
        .unwrap();
        reactor.insert(server_end).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            reactor.turn(Some(Duration::from_millis(10)), |_, _| {}).unwrap();
            let finished = reactor.take_finished();
            if let Some(conn) = finished.into_iter().next() {
                match conn.result {
                    Err(ReconError::Timeout { waited_ms }) => {
                        assert!(waited_ms >= 50, "fired after {waited_ms}ms");
                        break;
                    }
                    other => panic!("expected a timeout, got {other:?}"),
                }
            }
            assert!(Instant::now() < deadline, "deadline never fired");
        }
    }

    #[test]
    fn deadlines_expire_in_insert_order_and_skip_retired_connections() {
        const DEADLINE: Duration = Duration::from_millis(100);
        let mut reactor = Reactor::new(ReactorConfig {
            session_deadline: Some(DEADLINE),
            ..ReactorConfig::default()
        })
        .unwrap();

        // First connection: a session that finishes well inside its deadline.
        let (mut fast_server, mut fast_client) = tcp_endpoint_pair();
        let (alice, bob) = chatty_pair(5, 0);
        fast_server.register(0, Role::Alice, alice).unwrap();
        fast_client.register(0, Role::Bob, bob).unwrap();
        let fast = reactor.insert(fast_server).unwrap();
        let fast_inserted = Instant::now();

        // Pump it to completion; its deadline entry stays queued (lazy
        // cancellation) ahead of the second connection's.
        let mut results = Vec::new();
        while fast_inserted.elapsed() < Duration::from_millis(30) || results.is_empty() {
            reactor
                .turn(Some(Duration::from_millis(5)), |_, endpoint| {
                    endpoint.close_finished();
                })
                .unwrap();
            fast_client.poll_ready(true, true).unwrap();
            let _ = fast_client.take_outcome::<u64>(0);
            results.extend(reactor.take_finished().into_iter().map(|f| (f.conn, f.result)));
            assert!(fast_inserted.elapsed() < DEADLINE, "the fast session did not finish in time");
        }
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, fast);
        assert!(results[0].1.is_ok(), "{:?}", results[0].1);

        // Second connection, inserted at least 30 ms later: Bob waits for an
        // opening message that never comes.
        let (mut slow_server, _slow_client_kept_silent) = tcp_endpoint_pair();
        let (_, bob) = chatty_pair(0, 0);
        slow_server.register(0, Role::Bob, bob).unwrap();
        let slow = reactor.insert(slow_server).unwrap();
        let slow_inserted = Instant::now();

        // The first entry falls due while the second connection is still
        // inside its deadline: it must fire into the void, not retire `slow`.
        let give_up = slow_inserted + Duration::from_secs(5);
        loop {
            reactor.turn(Some(Duration::from_millis(10)), |_, _| {}).unwrap();
            if let Some(finished) = reactor.take_finished().into_iter().next() {
                let elapsed = slow_inserted.elapsed();
                assert_eq!(finished.conn, slow);
                match finished.result {
                    Err(ReconError::Timeout { waited_ms }) => {
                        assert!(waited_ms >= 100, "reported after {waited_ms} ms");
                        assert!(elapsed >= DEADLINE, "fired after {elapsed:?}");
                    }
                    other => panic!("expected a timeout, got {other:?}"),
                }
                break;
            }
            assert!(Instant::now() < give_up, "deadline never fired");
        }
        assert!(reactor.is_empty());
    }

    #[test]
    fn drive_endpoint_completes_a_client_against_a_reactor() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let config = ReactorConfig::default();

        // Sessions are not Send, so the server builds endpoint and reactor on
        // its own thread — the same shape the multi-reactor Server uses.
        let server_config = config.clone();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            stream.set_nonblocking(true).expect("nonblock");
            let reader = stream.try_clone().expect("clone");
            let mut endpoint = Endpoint::new(StreamTransport::new(reader, stream));
            let (alice, _) = chatty_pair(7, 1);
            endpoint.register(0, Role::Alice, alice).unwrap();
            let mut reactor = Reactor::new(server_config).unwrap();
            reactor.insert(endpoint).unwrap();
            while !reactor.is_empty() {
                reactor
                    .turn(Some(Duration::from_millis(20)), |_, endpoint| {
                        endpoint.close_finished();
                    })
                    .unwrap();
            }
            // Endpoints are not Send either: reduce to plain results here.
            reactor
                .take_finished()
                .into_iter()
                .map(|f| (f.conn, f.result, f.endpoint.transport().bytes_framed_out()))
                .collect::<Vec<_>>()
        });

        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nonblocking(true).expect("nonblock");
        let reader = stream.try_clone().expect("clone");
        let mut client_end = Endpoint::new(StreamTransport::new(reader, stream));
        let (_, bob) = chatty_pair(7, 1);
        client_end.register(0, Role::Bob, bob).unwrap();

        let mut outcome = None;
        drive_endpoint(&mut client_end, &config, |endpoint| {
            if let Some(result) = endpoint.take_outcome::<u64>(0) {
                outcome = Some(result?);
                return Ok(true);
            }
            Ok(false)
        })
        .unwrap();
        assert_eq!(outcome.expect("outcome").recovered, 8);
        let finished = server.join().expect("server thread");
        assert_eq!(finished.len(), 1);
        assert!(finished[0].1.is_ok(), "{:?}", finished[0].1);
        assert!(finished[0].2 > 0, "server framed bytes out");
    }

    #[test]
    fn drive_endpoint_fails_fast_when_the_peer_vanishes_mid_session() {
        let (server_end, mut client_end) = tcp_endpoint_pair();
        let (_, bob) = chatty_pair(3, 2);
        client_end.register(0, Role::Bob, bob).unwrap();
        // The peer hangs up before the session exchanged anything.
        drop(server_end);

        let config = ReactorConfig {
            session_deadline: Some(Duration::from_secs(30)),
            ..ReactorConfig::default()
        };
        let started = Instant::now();
        let result = drive_endpoint(&mut client_end, &config, |endpoint| {
            Ok(endpoint.take_outcome::<u64>(0).is_some())
        });
        match result {
            Err(ReconError::PeerClosed { open_sessions }) => {
                assert_eq!(open_sessions, 1);
            }
            other => panic!("expected a fast close error, got {other:?}"),
        }
        // Fail-fast means an error now, not a 30s deadline (or a spin) later.
        assert!(started.elapsed() < Duration::from_secs(5), "did not fail fast");
    }

    #[test]
    fn aux_watch_latches_readiness_until_taken() {
        let mut reactor: Reactor<StreamTransport<TcpStream, TcpStream>> =
            Reactor::new(ReactorConfig { session_deadline: None, ..ReactorConfig::default() })
                .unwrap();
        let (reader, mut writer) = std::io::pipe().expect("os pipe");
        sys::set_nonblocking(reader.as_raw_fd()).unwrap();
        // Backlog that predates the watch is reported by the first turn.
        writer.write_all(&[1]).unwrap();
        reactor.watch_aux(reader.as_raw_fd()).unwrap();
        assert!(!reactor.take_aux_ready(), "nothing latches before a turn");

        reactor.turn(Some(Duration::from_secs(2)), |_, _| {}).unwrap();
        assert!(reactor.take_aux_ready(), "aux readability latches through turn");
        assert!(!reactor.take_aux_ready(), "take consumes the latch");

        reactor.unwatch_aux();
        writer.write_all(&[2]).unwrap();
        reactor.turn(Some(Duration::from_millis(50)), |_, _| {}).unwrap();
        assert!(!reactor.take_aux_ready(), "unwatched aux never reports ready");
    }

    #[test]
    fn waker_interrupts_a_blocked_turn() {
        let mut reactor: Reactor<StreamTransport<TcpStream, TcpStream>> =
            Reactor::new(ReactorConfig { session_deadline: None, ..ReactorConfig::default() })
                .unwrap();
        let waker = reactor.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let started = Instant::now();
        // Without the wake this would block for the full two seconds.
        reactor.turn(Some(Duration::from_secs(2)), |_, _| {}).unwrap();
        assert!(started.elapsed() < Duration::from_secs(1), "waker did not interrupt");
        handle.join().unwrap();
    }
}
