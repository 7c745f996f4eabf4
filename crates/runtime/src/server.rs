//! The multi-reactor [`Server`]: accepted TCP connections fanned out across
//! worker [`Reactor`]s, with two accept topologies.
//!
//! **Sharded** ([`AcceptMode::Sharded`], the Linux default): every worker
//! binds its *own* `SO_REUSEPORT` listener on the shared port and accepts
//! directly inside its reactor loop — the kernel hashes incoming 4-tuples
//! across the listeners, there is no acceptor thread, no cross-thread stream
//! hand-off, and no intake lock on the hot path.
//!
//! ```text
//!        port P ── kernel SO_REUSEPORT hash ──┬──────────────┐
//!                                             ▼              ▼
//!                                      listener 0   …  listener N-1
//!                                             │              │
//!                                      worker reactor 0 … reactor N-1
//! ```
//!
//! **Balanced** ([`AcceptMode::Balanced`], the portable fallback): one central
//! non-blocking listener on its own acceptor thread pushes each stream to the
//! less loaded of two sampled workers ("power of two choices": max load within
//! `O(log log n)` of the mean — see Walzer's *"What if we tried Less Power?"*
//! in PAPERS.md) through a mutex-guarded intake plus a reactor
//! [`Waker`](crate::Waker).
//!
//! Each worker owns one single-threaded [`Reactor`], one [`TcpService`]
//! instance (built by the factory passed to [`Server::bind`]), and one
//! [`BufferPool`] recycling connection buffers so steady-state serving
//! allocates nothing per session. Sessions never cross threads after
//! registration, which is what lets the endpoint layer stay `!Send`.

use crate::poller::{Backend, Interest, Poller};
use crate::reactor::{ConnId, Reactor, ReactorConfig};
use crate::sys;
use recon_base::rng::Xoshiro256;
use recon_base::ReconError;
use recon_protocol::{BufferPool, Endpoint, StreamTransport, Transport as _};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// The transport a served TCP connection runs on.
pub type TcpTransport = StreamTransport<TcpStream, TcpStream>;
/// The endpoint a served TCP connection runs on.
pub type TcpEndpoint = Endpoint<TcpTransport>;

/// Per-worker protocol logic a [`Server`] runs. One instance per worker
/// thread, so implementations need `Send` but never `Sync`; shared read-only
/// state (the authoritative dataset) travels in an `Arc` inside the factory.
pub trait TcpService: Send + 'static {
    /// Install the local halves of this connection's sessions. Runs before the
    /// connection joins the reactor, so everything registered here is covered
    /// by the per-session deadlines.
    fn register(&mut self, peer: SocketAddr, endpoint: &mut TcpEndpoint) -> Result<(), ReconError>;

    /// The connection joined worker `conn`'s reactor.
    fn on_accepted(&mut self, _conn: ConnId, _peer: SocketAddr) {}

    /// The connection was pumped by a readiness event: harvest finished
    /// sessions (`take_outcome` / `close`) here. A connection retires once
    /// every session is closed and its output has drained. The default
    /// implementation is [`Endpoint::close_finished`] — retire everything
    /// finished, discarding outcomes and stats, allocation-free — right for
    /// fire-and-forget serving (an Alice side whose parties produce no
    /// output); override it to collect outcomes.
    fn on_progress(&mut self, _conn: ConnId, endpoint: &mut TcpEndpoint) {
        endpoint.close_finished();
    }

    /// The connection retired; `result` is `Ok` for a clean close.
    fn on_closed(
        &mut self,
        _conn: ConnId,
        _endpoint: &TcpEndpoint,
        _result: &Result<(), ReconError>,
    ) {
    }
}

/// How a [`Server`] distributes incoming connections to its workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptMode {
    /// One `SO_REUSEPORT` listener per worker, accepted inside each worker's
    /// reactor loop (Linux). Falls back to [`AcceptMode::Balanced`] where the
    /// socket option is unavailable.
    Sharded,
    /// One central listener on an acceptor thread, two-choice least-loaded
    /// balancing to worker intakes. Portable.
    Balanced,
}

impl Default for AcceptMode {
    fn default() -> Self {
        if cfg!(target_os = "linux") {
            AcceptMode::Sharded
        } else {
            AcceptMode::Balanced
        }
    }
}

/// Tuning for a [`Server`].
///
/// Construct with [`ServerConfig::new`] and chain the builder methods, or use
/// struct-update syntax — every field stays public. The resource caps exist so
/// a hostile peer cannot grow a worker's memory without bound: an oversized
/// length prefix fails with [`ReconError::FrameTooLarge`] before the body is
/// buffered, a session-registration flood with [`ReconError::ResourceExhausted`],
/// and a peer that refuses to drain our output is cut off once
/// [`max_buffered_out`](ServerConfig::max_buffered_out) is reached.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of worker reactors (threads). At least 1.
    pub workers: usize,
    /// Per-session deadline applied by every worker reactor.
    pub session_deadline: Option<Duration>,
    /// Pin the poller backend for the acceptor and all workers.
    pub backend: Option<Backend>,
    /// Accept topology; defaults to sharded on Linux, balanced elsewhere.
    pub accept_mode: AcceptMode,
    /// Seed for the balancer's two random worker choices (balanced mode).
    pub accept_seed: u64,
    /// Largest frame a peer may send, enforced on the length prefix before
    /// any body bytes are buffered. Default 16 MiB — far above any frame the
    /// protocol families produce, far below what exhausts a worker.
    pub max_frame_bytes: usize,
    /// Most sessions a single connection may have registered at once
    /// (excess registrations fail, surfaced to the peer by services that
    /// answer control requests). Default 1024.
    pub max_sessions_per_conn: usize,
    /// Cap on bytes buffered for output per connection, covering peers that
    /// stop reading while sessions keep producing. Default 32 MiB (always at
    /// least one max-sized frame plus its prefix).
    pub max_buffered_out: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4),
            session_deadline: Some(Duration::from_secs(30)),
            backend: None,
            accept_mode: AcceptMode::default(),
            accept_seed: 0x2C01CE5,
            max_frame_bytes: 16 << 20,
            max_sessions_per_conn: 1024,
            max_buffered_out: 32 << 20,
        }
    }
}

impl ServerConfig {
    /// [`ServerConfig::default`], as the root of a builder chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the number of worker reactors.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the per-session deadline (`None` disables deadlines).
    pub fn session_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.session_deadline = deadline;
        self
    }

    /// Pin the poller backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Set the accept topology.
    pub fn accept_mode(mut self, mode: AcceptMode) -> Self {
        self.accept_mode = mode;
        self
    }

    /// Seed the balanced-mode two-choice sampler.
    pub fn accept_seed(mut self, seed: u64) -> Self {
        self.accept_seed = seed;
        self
    }

    /// Cap the per-peer frame size.
    pub fn max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes;
        self
    }

    /// Cap concurrent sessions per connection.
    pub fn max_sessions_per_conn(mut self, sessions: usize) -> Self {
        self.max_sessions_per_conn = sessions;
        self
    }

    /// Cap buffered output bytes per connection.
    pub fn max_buffered_out(mut self, bytes: usize) -> Self {
        self.max_buffered_out = bytes;
        self
    }

    /// The resource caps as one bundle, applied to each adopted connection.
    fn caps(&self) -> ConnCaps {
        ConnCaps {
            max_frame_bytes: self.max_frame_bytes,
            max_sessions_per_conn: self.max_sessions_per_conn,
            // A connection must always be able to buffer one full frame, or a
            // legitimate max-sized send would be rejected outright.
            max_buffered_out: self.max_buffered_out.max(self.max_frame_bytes + 16),
        }
    }
}

/// Per-connection resource caps, applied at adoption time.
#[derive(Debug, Clone, Copy)]
struct ConnCaps {
    max_frame_bytes: usize,
    max_sessions_per_conn: usize,
    max_buffered_out: usize,
}

impl ConnCaps {
    fn apply(&self, endpoint: &mut TcpEndpoint) {
        endpoint.transport_mut().set_max_frame(self.max_frame_bytes);
        endpoint.transport_mut().set_max_buffered_out(self.max_buffered_out);
        endpoint.set_max_sessions(self.max_sessions_per_conn);
    }
}

/// What a [`Server`] did over its lifetime, returned by [`Server::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections each worker retired cleanly, in worker order.
    pub served_per_worker: Vec<u64>,
    /// Connections each worker took in, in worker order: direct accepts in
    /// sharded mode, intake adoptions in balanced mode. Shows how evenly the
    /// kernel (or the balancer) spread the load.
    pub accepted_per_worker: Vec<u64>,
    /// Connections that retired with an error (including registration
    /// failures), across all workers.
    pub failed: u64,
}

impl ServerStats {
    /// Total connections retired cleanly.
    pub fn served(&self) -> u64 {
        self.served_per_worker.iter().sum()
    }
}

struct WorkerShared {
    intake: Mutex<Vec<(TcpStream, SocketAddr)>>,
    /// Live connections assigned to this worker (queued or in its reactor) —
    /// the balancer's load signal.
    load: AtomicU64,
    /// Cleared when the worker's loop returns *or unwinds* (panicking service
    /// callbacks included), so the balancer stops routing to a dead worker.
    alive: AtomicBool,
}

/// Marks the worker dead on every exit path, including panics.
struct AliveGuard<'a>(&'a AtomicBool);

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

struct WorkerReport {
    served: u64,
    accepted: u64,
    failed: u64,
}

/// A listening multi-reactor server; see the module docs. Runs until
/// [`Server::shutdown`].
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accepting_done: Arc<AtomicBool>,
    accept_wake: std::io::PipeWriter,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<WorkerReport>>,
    worker_wakers: Vec<crate::reactor::Waker>,
    shared: Vec<Arc<WorkerShared>>,
}

fn io_err(context: &str, e: std::io::Error) -> ReconError {
    ReconError::Transport(format!("{context}: {e}"))
}

/// Tear down already-spawned worker threads on a failed `Server::bind`.
/// Without `accepting_done` the workers' exit condition could never hold and
/// they would spin (and leak their reactors) forever.
fn abort_workers<'a>(
    stop: &AtomicBool,
    accepting_done: &AtomicBool,
    wakers: impl IntoIterator<Item = &'a crate::reactor::Waker>,
    workers: Vec<std::thread::JoinHandle<WorkerReport>>,
) {
    stop.store(true, Ordering::SeqCst);
    accepting_done.store(true, Ordering::SeqCst);
    for waker in wakers {
        waker.wake();
    }
    for handle in workers {
        let _ = handle.join();
    }
}

impl Server {
    /// Bind `addr` and start serving: one acceptor thread plus
    /// `config.workers` reactor threads, each running the service returned by
    /// `factory(worker_index)`.
    pub fn bind<S: TcpService>(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        mut factory: impl FnMut(usize) -> S,
    ) -> Result<Server, ReconError> {
        let addrs: Vec<SocketAddr> =
            addr.to_socket_addrs().map_err(|e| io_err("resolve addr", e))?.collect();
        if addrs.is_empty() {
            return Err(ReconError::Transport("bind: address resolved to nothing".into()));
        }
        let workers_n = config.workers.max(1);

        // Sharded accept: one SO_REUSEPORT listener per worker; the central
        // listener and acceptor thread disappear entirely. Any setup failure
        // (non-Linux, exotic socket restrictions) falls back to balanced mode.
        let mut shard_listeners: Option<Vec<TcpListener>> = None;
        if config.accept_mode == AcceptMode::Sharded {
            for &candidate in &addrs {
                if let Ok(listeners) = sharded_listeners(candidate, workers_n) {
                    shard_listeners = Some(listeners);
                    break;
                }
            }
        }
        let (listener, local_addr) = match &shard_listeners {
            Some(listeners) => {
                (None, listeners[0].local_addr().map_err(|e| io_err("local addr", e))?)
            }
            None => {
                let listener = TcpListener::bind(&addrs[..]).map_err(|e| io_err("bind", e))?;
                listener.set_nonblocking(true).map_err(|e| io_err("listener nonblock", e))?;
                let local_addr = listener.local_addr().map_err(|e| io_err("local addr", e))?;
                (Some(listener), local_addr)
            }
        };
        let stop = Arc::new(AtomicBool::new(false));
        let accepting_done = Arc::new(AtomicBool::new(false));

        let mut shard_listeners = shard_listeners.map(Vec::into_iter);
        let mut shared = Vec::with_capacity(workers_n);
        let mut workers = Vec::with_capacity(workers_n);
        let (waker_tx, waker_rx) = mpsc::channel();
        for worker in 0..workers_n {
            let worker_shared = Arc::new(WorkerShared {
                intake: Mutex::new(Vec::new()),
                load: AtomicU64::new(0),
                alive: AtomicBool::new(true),
            });
            shared.push(Arc::clone(&worker_shared));
            let reactor_config = ReactorConfig {
                session_deadline: config.session_deadline,
                backend: config.backend,
                // Disjoint id ranges so connection ids are process-unique.
                first_conn_id: (worker as ConnId) << 48,
            };
            let caps = config.caps();
            let shard = shard_listeners.as_mut().and_then(Iterator::next);
            let service = factory(worker);
            let stop = Arc::clone(&stop);
            let accepting_done = Arc::clone(&accepting_done);
            let waker_tx = waker_tx.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(
                    reactor_config,
                    caps,
                    shard,
                    worker_shared,
                    service,
                    stop,
                    accepting_done,
                    waker_tx,
                )
            }));
        }
        drop(waker_tx);
        // The reactors build their wakers on their own threads; collect them
        // before accepting the first connection.
        let mut worker_wakers: Vec<(usize, crate::reactor::Waker)> =
            waker_rx.iter().take(workers_n).collect();
        if worker_wakers.len() < workers_n {
            abort_workers(&stop, &accepting_done, worker_wakers.iter().map(|(_, w)| w), workers);
            return Err(ReconError::Transport("a worker reactor failed to start".into()));
        }
        worker_wakers.sort_by_key(|(worker, _)| *worker);
        let worker_wakers: Vec<_> = worker_wakers.into_iter().map(|(_, waker)| waker).collect();

        let (accept_wake_rx, accept_wake) = match std::io::pipe() {
            Ok(pipe) => pipe,
            Err(e) => {
                abort_workers(&stop, &accepting_done, &worker_wakers, workers);
                return Err(io_err("acceptor wake pipe", e));
            }
        };
        if let Err(e) = sys::set_nonblocking(accept_wake_rx.as_raw_fd()) {
            abort_workers(&stop, &accepting_done, &worker_wakers, workers);
            return Err(io_err("acceptor wake nonblock", e));
        }
        // Sharded mode has no acceptor thread — workers accept for themselves.
        let acceptor = listener.map(|listener| {
            let stop = Arc::clone(&stop);
            let shared = shared.clone();
            let wakers = worker_wakers.clone();
            let backend = config.backend;
            let seed = config.accept_seed;
            std::thread::spawn(move || {
                accept_loop(listener, accept_wake_rx, stop, shared, wakers, backend, seed)
            })
        });

        Ok(Server {
            local_addr,
            stop,
            accepting_done,
            accept_wake,
            acceptor,
            workers,
            worker_wakers,
            shared,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live connections currently assigned to each worker.
    pub fn loads(&self) -> Vec<u64> {
        self.shared.iter().map(|s| s.load.load(Ordering::SeqCst)).collect()
    }

    /// Stop accepting, let in-flight connections finish (bounded by their
    /// session deadlines), and join every thread.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop.store(true, Ordering::SeqCst);
        let _ = (&self.accept_wake).write(&[1]);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Only after the acceptor has fully exited may workers treat an empty
        // intake as final — otherwise a connection accepted during shutdown
        // could land in the intake of a worker that already returned.
        self.accepting_done.store(true, Ordering::SeqCst);
        for waker in &self.worker_wakers {
            waker.wake();
        }
        let mut stats = ServerStats {
            served_per_worker: Vec::new(),
            accepted_per_worker: Vec::new(),
            failed: 0,
        };
        for handle in self.workers.drain(..) {
            match handle.join() {
                Ok(report) => {
                    stats.served_per_worker.push(report.served);
                    stats.accepted_per_worker.push(report.accepted);
                    stats.failed += report.failed;
                }
                Err(_) => {
                    stats.served_per_worker.push(0);
                    stats.accepted_per_worker.push(0);
                    stats.failed += 1;
                }
            }
        }
        stats
    }
}

/// Per-worker SO_REUSEPORT listeners sharing one port: the first may bind
/// port 0; the rest bind the resolved concrete address.
fn sharded_listeners(addr: SocketAddr, workers: usize) -> std::io::Result<Vec<TcpListener>> {
    #[cfg(target_os = "linux")]
    {
        let first = sys::reuseport_listener(addr)?;
        let concrete = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..workers {
            listeners.push(sys::reuseport_listener(concrete)?);
        }
        Ok(listeners)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (addr, workers);
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "SO_REUSEPORT accept sharding requires Linux",
        ))
    }
}

/// One worker: a reactor, its service, its buffer pool, and either its own
/// sharded listener or the balanced intake handshake.
#[allow(clippy::too_many_arguments)]
fn worker_loop<S: TcpService>(
    config: ReactorConfig,
    caps: ConnCaps,
    mut listener: Option<TcpListener>,
    shared: Arc<WorkerShared>,
    mut service: S,
    stop: Arc<AtomicBool>,
    accepting_done: Arc<AtomicBool>,
    waker_tx: mpsc::Sender<(usize, crate::reactor::Waker)>,
) -> WorkerReport {
    // Dropped on every exit path (panics included): tells the balancer to
    // stop routing connections here.
    let _alive = AliveGuard(&shared.alive);
    let worker = (config.first_conn_id >> 48) as usize;
    let mut report = WorkerReport { served: 0, accepted: 0, failed: 0 };
    let Ok(mut reactor) = Reactor::<TcpTransport>::new(config) else {
        // Dropping the sender makes bind() fail loudly.
        return report;
    };
    if let Some(shard) = &listener {
        // Watched alongside the connections; readiness latches sticky, so a
        // backlog predating this registration is still drained.
        if reactor.watch_aux(shard.as_raw_fd()).is_err() {
            return report;
        }
    }
    if waker_tx.send((worker, reactor.waker())).is_err() {
        return report;
    }
    drop(waker_tx);
    let mut pool = BufferPool::new();

    loop {
        // Stop accepting the moment shutdown starts: deregister and close our
        // shard so new connections get a reset, then drain what's in flight.
        if stop.load(Ordering::SeqCst) && listener.is_some() {
            reactor.unwatch_aux();
            listener = None;
        }

        // Sharded mode: accept straight off our own listener. Must drain to
        // WouldBlock — under edge-triggered delivery no event repeats for a
        // backlog we leave behind.
        if let Some(shard) = &listener {
            if reactor.take_aux_ready() {
                loop {
                    match shard.accept() {
                        Ok((stream, peer)) => {
                            shared.load.fetch_add(1, Ordering::SeqCst);
                            report.accepted += 1;
                            match adopt(&mut reactor, caps, &mut service, &mut pool, stream, peer) {
                                Ok(conn) => service.on_accepted(conn, peer),
                                Err(_) => {
                                    shared.load.fetch_sub(1, Ordering::SeqCst);
                                    report.failed += 1;
                                }
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        // Transient accept failure (aborted handshake, EMFILE):
                        // re-latch so the next turn (≤200ms away) retries even
                        // without a fresh readiness edge.
                        Err(_) => {
                            reactor.mark_aux_ready();
                            break;
                        }
                    }
                }
            }
        }

        // Balanced mode: adopt whatever the acceptor queued.
        let streams: Vec<(TcpStream, SocketAddr)> =
            std::mem::take(&mut *shared.intake.lock().expect("intake lock"));
        for (stream, peer) in streams {
            report.accepted += 1;
            match adopt(&mut reactor, caps, &mut service, &mut pool, stream, peer) {
                Ok(conn) => service.on_accepted(conn, peer),
                Err(_) => {
                    shared.load.fetch_sub(1, Ordering::SeqCst);
                    report.failed += 1;
                }
            }
        }

        // Hand back retired connections, recycling their buffers.
        for mut finished in reactor.take_finished() {
            shared.load.fetch_sub(1, Ordering::SeqCst);
            service.on_closed(finished.conn, &finished.endpoint, &finished.result);
            pool.put_back(finished.endpoint.transport_mut().take_buffers());
            match finished.result {
                Ok(()) => report.served += 1,
                Err(_) => report.failed += 1,
            }
        }

        // Exit only once accepting is over for good: in balanced mode the
        // acceptor must be gone (a fresh connection could still land in our
        // intake until then); in sharded mode our listener is already closed.
        if stop.load(Ordering::SeqCst)
            && accepting_done.load(Ordering::SeqCst)
            && reactor.is_empty()
            && shared.intake.lock().expect("intake lock").is_empty()
        {
            return report;
        }

        // The waker interrupts this for intake and shutdown; the cap is a
        // safety tick so a missed wake can never park the worker for good.
        if reactor
            .turn(Some(Duration::from_millis(200)), |conn, endpoint| {
                service.on_progress(conn, endpoint)
            })
            .is_err()
        {
            // A poller-level failure is unrecoverable for this worker.
            report.failed += 1;
            return report;
        }
    }
}

fn adopt<S: TcpService>(
    reactor: &mut Reactor<TcpTransport>,
    caps: ConnCaps,
    service: &mut S,
    pool: &mut BufferPool,
    stream: TcpStream,
    peer: SocketAddr,
) -> Result<ConnId, ReconError> {
    stream.set_nonblocking(true).map_err(|e| io_err("conn nonblock", e))?;
    // Frames are small and latency-coupled (a session round-trips); letting
    // Nagle batch them against delayed ACKs costs tens of ms per exchange.
    stream.set_nodelay(true).map_err(|e| io_err("conn nodelay", e))?;
    let reader = stream.try_clone().map_err(|e| io_err("clone stream", e))?;
    let mut endpoint =
        Endpoint::new(StreamTransport::with_buffers(reader, stream, pool.checkout()));
    caps.apply(&mut endpoint);
    if let Err(e) = service.register(peer, &mut endpoint) {
        pool.put_back(endpoint.transport_mut().take_buffers());
        return Err(e);
    }
    reactor.insert(endpoint)
}

/// Dial `addr` and wrap the stream as a non-blocking, no-delay
/// [`TcpEndpoint`] — the client-side counterpart of the server's adoption
/// path, ready for [`drive_endpoint`](crate::drive_endpoint).
pub fn connect_endpoint(addr: impl ToSocketAddrs) -> Result<TcpEndpoint, ReconError> {
    let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
    stream.set_nonblocking(true).map_err(|e| io_err("conn nonblock", e))?;
    stream.set_nodelay(true).map_err(|e| io_err("conn nodelay", e))?;
    let reader = stream.try_clone().map_err(|e| io_err("clone stream", e))?;
    Ok(Endpoint::new(StreamTransport::new(reader, stream)))
}

/// The acceptor: its own tiny event loop over the listener plus a wake pipe,
/// pushing each accepted stream to the less loaded of two sampled workers.
fn accept_loop(
    listener: TcpListener,
    wake_rx: std::io::PipeReader,
    stop: Arc<AtomicBool>,
    shared: Vec<Arc<WorkerShared>>,
    wakers: Vec<crate::reactor::Waker>,
    backend: Option<Backend>,
    seed: u64,
) {
    let mut wake_rx = wake_rx;
    let mut poller = match backend {
        Some(backend) => Poller::with_backend(backend),
        None => Poller::new(),
    }
    .expect("acceptor poller");
    poller.register(listener.as_raw_fd(), 0, Interest::READ).expect("register listener");
    poller.register(wake_rx.as_raw_fd(), 1, Interest::READ).expect("register acceptor waker");
    let mut rng = Xoshiro256::new(seed);
    let mut events = Vec::new();

    while !stop.load(Ordering::SeqCst) {
        if poller.wait(&mut events, Some(Duration::from_millis(500))).is_err() {
            break;
        }
        let mut drain = [0u8; 64];
        while matches!(wake_rx.read(&mut drain), Ok(n) if n > 0) {}
        let mut transient_error = false;
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    let Some(worker) = pick_two_choices(&shared, &mut rng) else {
                        // Every worker is dead; dropping the stream resets the
                        // client rather than parking it in a dead intake.
                        drop(stream);
                        continue;
                    };
                    shared[worker].load.fetch_add(1, Ordering::SeqCst);
                    shared[worker].intake.lock().expect("intake lock").push((stream, peer));
                    wakers[worker].wake();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Aborted handshakes, fd exhaustion (EMFILE), and other
                // transient errors: keep serving, but back off below.
                Err(_) => {
                    transient_error = true;
                    break;
                }
            }
        }
        if transient_error {
            // The pending connection keeps the listener level-triggered
            // readable, so an un-accepted error (EMFILE until fds free up)
            // would otherwise hot-loop this thread. poll(2) with no
            // descriptors is a pure kernel-timed wait.
            let _ = sys::poll_fds(&mut [], 50);
        }
    }
}

/// Sample two distinct *live* workers uniformly and return the less loaded one
/// (ties go to the first sample) — the classic power-of-two-choices balancer.
/// `None` when no worker is alive.
fn pick_two_choices(shared: &[Arc<WorkerShared>], rng: &mut Xoshiro256) -> Option<usize> {
    let alive: Vec<usize> =
        (0..shared.len()).filter(|&w| shared[w].alive.load(Ordering::SeqCst)).collect();
    let n = alive.len();
    match n {
        0 => None,
        1 => Some(alive[0]),
        _ => {
            let i = rng.next_below(n as u64) as usize;
            let mut j = rng.next_below(n as u64 - 1) as usize;
            if j >= i {
                j += 1;
            }
            let (first, second) = (alive[i], alive[j]);
            if shared[second].load.load(Ordering::SeqCst)
                < shared[first].load.load(Ordering::SeqCst)
            {
                Some(second)
            } else {
                Some(first)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::drive_endpoint;
    use recon_protocol::amplify::{AmplifiedReceiver, AmplifiedSender, Exhaust};
    use recon_protocol::{Envelope, Role};

    struct EchoNumbers;

    impl TcpService for EchoNumbers {
        fn register(
            &mut self,
            _peer: SocketAddr,
            endpoint: &mut TcpEndpoint,
        ) -> Result<(), ReconError> {
            // One Alice session per connection, payload fixed by protocol.
            let alice = AmplifiedSender::new(4, |attempt| {
                Ok(Envelope::round(1, "digest", &(1000 + attempt)))
            })
            .expect("sender");
            endpoint.register(0, Role::Alice, alice)
        }
        // on_progress: the default close-all-finished harvest is exactly right.
    }

    fn run_client(addr: SocketAddr, retries: u64) -> u64 {
        let mut endpoint = connect_endpoint(addr).expect("connect");
        let bob = AmplifiedReceiver::new(
            4,
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
        endpoint.register(0, Role::Bob, bob).expect("register");
        let mut recovered = None;
        drive_endpoint(&mut endpoint, &crate::reactor::ReactorConfig::default(), |endpoint| {
            match endpoint.take_outcome::<u64>(0) {
                Some(outcome) => {
                    recovered = Some(outcome?.recovered);
                    Ok(true)
                }
                None => Ok(false),
            }
        })
        .expect("client drive");
        recovered.expect("recovered")
    }

    fn serve_eight_clients(mode: AcceptMode) -> ServerStats {
        let config = ServerConfig {
            workers: 2,
            session_deadline: Some(Duration::from_secs(15)),
            accept_mode: mode,
            accept_seed: 7,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config, |_| EchoNumbers).expect("bind");
        let addr = server.local_addr();

        let clients: Vec<_> =
            (0..8).map(|i| std::thread::spawn(move || run_client(addr, i % 3))).collect();
        for (i, client) in clients.into_iter().enumerate() {
            let recovered = client.join().expect("client thread");
            assert_eq!(recovered, 1000 + (i as u64 % 3));
        }
        server.shutdown()
    }

    #[test]
    fn two_worker_server_serves_concurrent_clients() {
        let stats = serve_eight_clients(AcceptMode::Balanced);
        assert_eq!(stats.served(), 8, "{stats:?}");
        assert_eq!(stats.failed, 0, "{stats:?}");
        assert_eq!(stats.served_per_worker.len(), 2);
        assert_eq!(stats.accepted_per_worker.iter().sum::<u64>(), 8, "{stats:?}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn sharded_accept_serves_the_same_traffic_without_an_acceptor() {
        let stats = serve_eight_clients(AcceptMode::Sharded);
        assert_eq!(stats.served(), 8, "{stats:?}");
        assert_eq!(stats.failed, 0, "{stats:?}");
        // The kernel spreads by 4-tuple hash; totals must add up regardless
        // of how even the split came out.
        assert_eq!(stats.accepted_per_worker.iter().sum::<u64>(), 8, "{stats:?}");
    }

    fn worker(load: u64, alive: bool) -> Arc<WorkerShared> {
        Arc::new(WorkerShared {
            intake: Mutex::new(Vec::new()),
            load: AtomicU64::new(load),
            alive: AtomicBool::new(alive),
        })
    }

    #[test]
    fn pick_two_choices_prefers_the_lighter_worker() {
        let shared: Vec<Arc<WorkerShared>> =
            (0..4).map(|i| worker(if i == 2 { 0 } else { 100 }, true)).collect();
        let mut rng = Xoshiro256::new(99);
        let mut hits = 0;
        for _ in 0..400 {
            if pick_two_choices(&shared, &mut rng) == Some(2) {
                hits += 1;
            }
        }
        // Worker 2 is in a sample pair with probability 1 - C(3,2)/C(4,2) = 1/2
        // and wins every pair it appears in.
        assert!((150..=250).contains(&hits), "two-choice skew off: {hits}/400");
    }

    #[test]
    fn pick_two_choices_never_routes_to_a_dead_worker() {
        let shared = vec![worker(50, true), worker(0, false), worker(60, true), worker(0, false)];
        let mut rng = Xoshiro256::new(5);
        for _ in 0..200 {
            let picked = pick_two_choices(&shared, &mut rng).expect("live workers exist");
            assert!(picked == 0 || picked == 2, "routed to dead worker {picked}");
        }
        // One survivor: always picked. None: refused.
        let one = vec![worker(9, false), worker(1, true)];
        assert_eq!(pick_two_choices(&one, &mut rng), Some(1));
        let none = vec![worker(0, false), worker(0, false)];
        assert_eq!(pick_two_choices(&none, &mut rng), None);
    }
}
