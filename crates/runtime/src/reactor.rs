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
//! 4. re-arm write interest exactly where output is still buffered
//!    ([`Endpoint::is_write_blocked`]), retire connections that finished, and
//!    fire expired per-session deadlines ([`ReconError::Timeout`]).
//!
//! Connection lifecycle: a connection whose sessions have all been retired
//! keeps its descriptors registered until the transport's output buffer
//! drains (graceful `Fin` delivery), then closes cleanly. A peer that
//! disappears mid-session surfaces as a transport error; a peer that stalls
//! past its deadline is cut off by the deadline queue. Either way the endpoint
//! is handed back through [`Reactor::take_finished`] for post-mortem
//! accounting.
//!
//! The reactor is single-threaded by design — sessions are `!Sync` state
//! machines — and scales across cores by running one reactor per worker
//! thread; see [`Server`](crate::Server) for the accept layer.

use crate::poller::{Backend, Event, Interest, Poller};
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
    /// inserted: a session not finished this long after insertion fails its
    /// connection with [`ReconError::Timeout`]. `None` disables deadlines.
    pub session_deadline: Option<Duration>,
    /// Pin the poller backend; `None` uses the platform default (epoll on
    /// Linux, `poll(2)` elsewhere).
    pub backend: Option<Backend>,
    /// First [`ConnId`] this reactor hands out. A multi-reactor server gives
    /// each worker a disjoint base so connection ids are process-unique.
    pub first_conn_id: ConnId,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self { session_deadline: Some(Duration::from_secs(30)), backend: None, first_conn_id: 0 }
    }
}

impl ReactorConfig {
    /// The poller every driver built on this config waits on.
    fn poller(&self) -> Result<Poller, ReconError> {
        Poller::new(self.backend).map_err(|e| io_err("create poller", e))
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

struct Conn<T: Transport + Pollable> {
    endpoint: Endpoint<T>,
    /// Write interest currently armed with the poller.
    write_armed: bool,
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
        let mut poller = config.poller()?;
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

    /// The backend the underlying poller runs on.
    pub fn backend(&self) -> Backend {
        self.poller.backend()
    }

    /// Watch one auxiliary readable descriptor (a worker's own listener)
    /// alongside the connections. Readiness is latched sticky and handed out
    /// through [`Reactor::take_aux_ready`]; the flag starts set so the caller
    /// drains any backlog that predates the registration — required under
    /// edge-triggered delivery, where that backlog will never fire an event.
    pub fn watch_aux(&mut self, fd: RawFd) -> Result<(), ReconError> {
        if let Some(old) = self.aux_fd.take() {
            let _ = self.poller.deregister(old);
        }
        self.poller.register(fd, AUX_TOKEN, Interest::READ).map_err(|e| io_err("watch aux", e))?;
        self.aux_fd = Some(fd);
        self.aux_ready = true;
        Ok(())
    }

    /// Stop watching the auxiliary descriptor.
    pub fn unwatch_aux(&mut self) {
        if let Some(fd) = self.aux_fd.take() {
            let _ = self.poller.deregister(fd);
        }
        self.aux_ready = false;
    }

    /// Consume the auxiliary-readiness latch. The caller must then drain the
    /// descriptor to `WouldBlock`: under edge-triggered epoll a backlog left
    /// behind fires no further event. A caller that must back off instead (the
    /// server on a failed `accept`) unwatches the descriptor, since under
    /// level-triggered `poll(2)` a still-readable one would end every turn at
    /// once, and watches it again later, which re-latches.
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
        let read_fd = endpoint.transport().read_fd();
        let write_fd = endpoint.transport().write_fd();
        self.poller
            .register(read_fd, conn << 1, Interest::READ)
            .map_err(|e| io_err("register connection", e))?;
        if write_fd != read_fd {
            // Separate write half (a pipe): registered with no interest until
            // output actually buffers, so hang-ups still surface.
            if let Err(e) = self.poller.register(write_fd, (conn << 1) | 1, Interest::NONE) {
                let _ = self.poller.deregister(read_fd);
                return Err(io_err("register connection (write half)", e));
            }
        }
        let now = Instant::now();
        if let Some(deadline) = self.config.session_deadline {
            // `now` never decreases and `deadline` is one constant: FIFO order.
            let at = now + deadline;
            debug_assert!(self.deadlines.back().is_none_or(|&(last, _)| last <= at));
            for session in endpoint.session_ids() {
                self.deadlines.push_back((at, (conn, session)));
            }
        }
        let mut slot = Conn { endpoint, write_armed: false, failed: None, inserted: now };
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
            let conn = event.token >> 1;
            let entry = ready.entry(conn).or_insert((false, false));
            if event.token & 1 == 1 {
                // Write-half descriptor: only writability (or its hang-up,
                // which the next flush will surface) is meaningful.
                entry.1 |= event.writable || event.readable;
            } else {
                entry.0 |= event.readable;
                entry.1 |= event.writable;
            }
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
            if slot.endpoint.is_finished(session) == Some(false) {
                let waited_ms = now.saturating_duration_since(slot.inserted).as_millis() as u64;
                slot.failed = Some(ReconError::Timeout { waited_ms });
                self.settle(conn);
            }
        }
        Ok(touched)
    }

    /// Retire `conn` if it reached a terminal state; otherwise re-arm its
    /// write interest to match the transport's buffered-output state.
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
                    let read_fd = slot.endpoint.transport().read_fd();
                    let write_fd = slot.endpoint.transport().write_fd();
                    let _ = self.poller.deregister(read_fd);
                    if write_fd != read_fd {
                        let _ = self.poller.deregister(write_fd);
                    }
                    self.finished.push(Finished { conn, endpoint: slot.endpoint, result });
                    return;
                }
                None => {
                    let want = slot.endpoint.is_write_blocked();
                    if want == slot.write_armed {
                        return;
                    }
                    let read_fd = slot.endpoint.transport().read_fd();
                    let write_fd = slot.endpoint.transport().write_fd();
                    let armed = if write_fd == read_fd {
                        let interest = if want { Interest::READ_WRITE } else { Interest::READ };
                        self.poller.modify(read_fd, conn << 1, interest)
                    } else {
                        let interest = if want { Interest::WRITE } else { Interest::NONE };
                        self.poller.modify(write_fd, (conn << 1) | 1, interest)
                    };
                    match armed {
                        Ok(()) => {
                            slot.write_armed = want;
                            return;
                        }
                        // Mark failed and take the retirement branch above.
                        Err(e) => slot.failed = Some(io_err("re-arm write interest", e)),
                    }
                }
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
    let mut poller = config.poller()?;
    let started = Instant::now();
    let read_fd = endpoint.transport().read_fd();
    let write_fd = endpoint.transport().write_fd();
    poller.register(read_fd, 0, Interest::READ).map_err(|e| io_err("register", e))?;
    if write_fd != read_fd {
        poller.register(write_fd, 1, Interest::NONE).map_err(|e| io_err("register", e))?;
    }

    endpoint.poll_ready(false, false)?;
    let mut events = Vec::new();
    let mut write_armed = false;
    let mut done = false;
    loop {
        if !done && until(endpoint)? {
            done = true;
        }
        if done && !endpoint.is_write_blocked() {
            return Ok(());
        }
        let want = endpoint.is_write_blocked();
        if want != write_armed {
            let result = if write_fd == read_fd {
                poller.modify(read_fd, 0, if want { Interest::READ_WRITE } else { Interest::READ })
            } else {
                poller.modify(write_fd, 1, if want { Interest::WRITE } else { Interest::NONE })
            };
            result.map_err(|e| io_err("re-arm write interest", e))?;
            write_armed = want;
        }
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
            if event.token == 1 {
                writable |= event.writable || event.readable;
            } else {
                readable |= event.readable;
                writable |= event.writable;
            }
        }
        endpoint.poll_ready(readable, writable)?;
        // EOF leaves a level-triggered descriptor permanently readable; fail
        // fast instead of spinning on a peer that can never answer. Any frames
        // that arrived before the close were dispatched by poll_ready above,
        // so finished-but-unharvested sessions (open_sessions == 0) still get
        // their turn through `until` on the next iteration.
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

    fn run_with_backend(backend: Backend) {
        let (mut server_end, mut client_end) = tcp_endpoint_pair();
        let (alice, bob) = chatty_pair(40, 2);
        server_end.register(0, Role::Alice, alice).unwrap();
        client_end.register(0, Role::Bob, bob).unwrap();

        let config = ReactorConfig {
            session_deadline: Some(Duration::from_secs(10)),
            backend: Some(backend),
            ..ReactorConfig::default()
        };
        let mut reactor = Reactor::new(config.clone()).unwrap();
        assert_eq!(reactor.backend(), backend);
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
    fn reactor_serves_a_connection_on_epoll() {
        if cfg!(target_os = "linux") {
            run_with_backend(Backend::Epoll);
        }
    }

    #[test]
    fn reactor_serves_a_connection_on_poll_fallback() {
        run_with_backend(Backend::Poll);
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
        reactor.watch_aux(reader.as_raw_fd()).unwrap();
        // Sticky start: backlog that predates the watch must not be missed.
        assert!(reactor.take_aux_ready());
        assert!(!reactor.take_aux_ready(), "take consumes the latch");

        writer.write_all(&[1]).unwrap();
        reactor.turn(Some(Duration::from_secs(2)), |_, _| {}).unwrap();
        assert!(reactor.take_aux_ready(), "aux readability latches through turn");

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
