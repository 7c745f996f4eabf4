//! The multi-reactor [`Server`]: TCP connections accepted by worker
//! [`Reactor`]s from one shared listener.
//!
//! [`Server::bind`] binds one non-blocking listener and hands every worker its
//! own handle to it (`try_clone`). Each worker watches that handle as its
//! reactor's auxiliary descriptor and accepts inside its own loop, so a
//! connection never crosses threads, not even at accept. The same shape runs
//! on every Unix.
//!
//! ```text
//!        port P ── one listening socket (a handle per worker)
//!                     │                      │
//!             worker reactor 0     …    worker reactor N-1
//!             accept · serve             accept · serve
//! ```
//!
//! A new connection wakes every idle worker; the first `accept` wins and the
//! rest read `WouldBlock`. The server keeps no handle of its own: once every
//! worker has closed its handle on shutdown, the port refuses connections.
//!
//! Each worker owns one single-threaded [`Reactor`], one [`TcpService`]
//! instance (built by the factory passed to [`Server::bind`]), and one
//! [`BufferPool`] recycling connection buffers so steady-state serving
//! allocates nothing per session. Sessions never cross threads after
//! accepting, which is what lets the endpoint layer stay `!Send`.

use crate::reactor::{ConnId, Reactor, ReactorConfig, Waker};
use recon_base::ReconError;
use recon_protocol::{BufferPool, Endpoint, StreamTransport, Transport as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

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
    /// Connections each worker accepted from the shared listener, in worker
    /// order. Shows how the race between waking workers spread the load.
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
    workers: Vec<std::thread::JoinHandle<WorkerReport>>,
    worker_wakers: Vec<Waker>,
}

fn io_err(context: &str, e: std::io::Error) -> ReconError {
    ReconError::Transport(format!("{context}: {e}"))
}

/// Stop and join every worker: set `stop`, wake each reactor out of `turn`.
fn stop_workers(
    stop: &AtomicBool,
    wakers: &[Waker],
    workers: Vec<std::thread::JoinHandle<WorkerReport>>,
) -> Vec<std::thread::Result<WorkerReport>> {
    stop.store(true, Ordering::SeqCst);
    for waker in wakers {
        waker.wake();
    }
    workers.into_iter().map(|handle| handle.join()).collect()
}

impl Server {
    /// Bind `addr` and start serving on `config.workers` reactor threads, each
    /// running the service returned by `factory(worker_index)`.
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
        let listener = TcpListener::bind(&addrs[..]).map_err(|e| io_err("bind", e))?;
        listener.set_nonblocking(true).map_err(|e| io_err("listener nonblock", e))?;
        let local_addr = listener.local_addr().map_err(|e| io_err("local addr", e))?;
        // One handle per worker, the original going to the last: the server
        // itself keeps none, so the socket closes with the last worker.
        let mut listeners = Vec::with_capacity(workers_n);
        for _ in 1..workers_n {
            listeners.push(listener.try_clone().map_err(|e| io_err("clone listener", e))?);
        }
        listeners.push(listener);

        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::with_capacity(workers_n);
        let (waker_tx, waker_rx) = mpsc::channel();
        for (worker, listener) in listeners.into_iter().enumerate() {
            let reactor_config = ReactorConfig {
                session_deadline: config.session_deadline,
                // Disjoint id ranges so connection ids are process-unique.
                first_conn_id: (worker as ConnId) << 48,
            };
            let caps = config.caps();
            let service = factory(worker);
            let stop = Arc::clone(&stop);
            let waker_tx = waker_tx.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(reactor_config, caps, listener, service, &stop, waker_tx)
            }));
        }
        drop(waker_tx);
        // The reactors build their wakers on their own threads; collect them
        // so shutdown can interrupt every `turn`.
        let mut worker_wakers: Vec<(usize, Waker)> = waker_rx.iter().take(workers_n).collect();
        worker_wakers.sort_by_key(|(worker, _)| *worker);
        let worker_wakers: Vec<Waker> = worker_wakers.into_iter().map(|(_, waker)| waker).collect();
        if worker_wakers.len() < workers_n {
            stop_workers(&stop, &worker_wakers, workers);
            return Err(ReconError::Transport("a worker reactor failed to start".into()));
        }
        Ok(Server { local_addr, stop, workers, worker_wakers })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting (every worker closes its listener handle, so the port
    /// refuses connections once all have), let in-flight connections finish
    /// (bounded by their session deadlines), and join every worker.
    pub fn shutdown(self) -> ServerStats {
        let mut stats = ServerStats {
            served_per_worker: Vec::new(),
            accepted_per_worker: Vec::new(),
            failed: 0,
        };
        for joined in stop_workers(&self.stop, &self.worker_wakers, self.workers) {
            let report = joined.unwrap_or(WorkerReport { served: 0, accepted: 0, failed: 1 });
            stats.served_per_worker.push(report.served);
            stats.accepted_per_worker.push(report.accepted);
            stats.failed += report.failed;
        }
        stats
    }
}

/// How long a worker stops watching its listener after a failed `accept`.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// One worker: a reactor, its service, its buffer pool, and its handle to the
/// shared listener.
fn worker_loop<S: TcpService>(
    config: ReactorConfig,
    caps: ConnCaps,
    listener: TcpListener,
    mut service: S,
    stop: &AtomicBool,
    waker_tx: mpsc::Sender<(usize, Waker)>,
) -> WorkerReport {
    let worker = (config.first_conn_id >> 48) as usize;
    let mut report = WorkerReport { served: 0, accepted: 0, failed: 0 };
    let listen_fd = listener.as_raw_fd();
    let mut listener = Some(listener);
    // Declared after `listener`, so on every exit path (panics included) the
    // reactor and its registration go before the handle does.
    let Ok(mut reactor) = Reactor::<TcpTransport>::new(config) else {
        // Dropping the sender makes bind() fail loudly.
        return report;
    };
    if reactor.watch_aux(listen_fd).is_err() || waker_tx.send((worker, reactor.waker())).is_err() {
        return report;
    }
    drop(waker_tx);
    let mut pool = BufferPool::new();
    // Set while backing off a failed accept (listener unwatched until then).
    let mut retry_at: Option<Instant> = None;

    loop {
        // Stop accepting the moment shutdown starts. Deregister *before*
        // closing, so the poller never waits on a closed (or reused) fd.
        let stopping = stop.load(Ordering::SeqCst);
        if stopping && listener.is_some() {
            reactor.unwatch_aux();
            listener = None;
            retry_at = None;
        }

        if let Some(shared) = &listener {
            if retry_at.is_some_and(|at| Instant::now() >= at) {
                // Watching again: the next turn reports a backlog still queued.
                retry_at = match reactor.watch_aux(shared.as_raw_fd()) {
                    Ok(()) => None,
                    Err(_) => Some(Instant::now() + ACCEPT_BACKOFF),
                };
            }
            if reactor.take_aux_ready() {
                loop {
                    match shared.accept() {
                        Ok((stream, peer)) => {
                            report.accepted += 1;
                            match adopt(&mut reactor, caps, &mut service, &mut pool, stream, peer) {
                                Ok(conn) => service.on_accepted(conn, peer),
                                Err(_) => report.failed += 1,
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        // Transient failure (aborted handshake, EMFILE): back
                        // off unwatched. The connection not accepted keeps the
                        // listener readable, so watching it would end every
                        // turn at once and spin this worker.
                        Err(_) => {
                            reactor.unwatch_aux();
                            retry_at = Some(Instant::now() + ACCEPT_BACKOFF);
                            break;
                        }
                    }
                }
            }
        }

        // Hand back retired connections, recycling their buffers.
        for mut finished in reactor.take_finished() {
            service.on_closed(finished.conn, &finished.endpoint, &finished.result);
            pool.put_back(finished.endpoint.transport_mut().take_buffers());
            match finished.result {
                Ok(()) => report.served += 1,
                Err(_) => report.failed += 1,
            }
        }

        if stopping && reactor.is_empty() {
            return report;
        }

        // The waker interrupts this for shutdown; the cap is a safety tick so
        // a missed wake can never park the worker for good, and a back-off
        // ends on time.
        let mut wait = Duration::from_millis(200);
        if let Some(at) = retry_at {
            wait = wait.min(at.saturating_duration_since(Instant::now()));
        }
        if reactor.turn(Some(wait), |conn, endpoint| service.on_progress(conn, endpoint)).is_err() {
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

    #[test]
    fn two_worker_server_serves_concurrent_clients() {
        let config = ServerConfig {
            workers: 2,
            session_deadline: Some(Duration::from_secs(15)),
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
        let stats = server.shutdown();
        assert_eq!(stats.served(), 8, "{stats:?}");
        assert_eq!(stats.failed, 0, "{stats:?}");
        assert_eq!(stats.served_per_worker.len(), 2);
        // Whichever worker wins each accept race: the totals must add up.
        assert_eq!(stats.accepted_per_worker.iter().sum::<u64>(), 8, "{stats:?}");
    }

    /// Fails if the server or any worker leaks a handle to the listener: the
    /// port would then keep accepting into a backlog nobody drains.
    #[test]
    fn shutdown_closes_the_port() {
        let config = ServerConfig { workers: 2, ..ServerConfig::default() };
        let server = Server::bind("127.0.0.1:0", config, |_| EchoNumbers).expect("bind");
        let addr = server.local_addr();
        assert_eq!(run_client(addr, 0), 1000);
        let stats = server.shutdown();
        assert_eq!(stats.served(), 1, "{stats:?}");
        let refused = TcpStream::connect(addr).expect_err("port still open after shutdown");
        assert_eq!(refused.kind(), std::io::ErrorKind::ConnectionRefused, "{refused}");
    }
}
