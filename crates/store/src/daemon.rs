//! The reconciliation daemon: a [`SketchStore`] wired into the reactor
//! [`Server`] as a long-lived [`TcpService`].
//!
//! Each accepted connection gets one control session ([`CONTROL_SESSION`],
//! daemon side `Role::Alice`) speaking [`ControlFrame`]s with the opcodes in
//! [`crate::control`]. Mutations and queries are answered inline from the
//! party's `handle`; a `Reconcile` request is two-phase because registering a
//! new data session needs the endpoint, which a sans-I/O party never sees:
//!
//! 1. `handle` validates the request against the store, resolves the ladder
//!    rung, and queues a job on the connection's shared state;
//! 2. [`StoreService::on_progress`] (the reactor's post-pump visit) drains the
//!    queue, registers an [`AmplifiedSender`] Alice on the requested session —
//!    attempt 0 served from the **cached** bank in `O(d)`, retries rebuilt
//!    under fresh hash functions — and only then queues the `ReconcileResp`,
//!    so a client that has the response knows its session is live.
//!
//! The served envelopes are [`iblt_known_alice`]'s byte for byte by
//! construction: the replica's banks and its rebuilt retries take every
//! attempt's protocol from [`iblt_known_protocol`], and each envelope is made
//! by [`iblt_known_envelope`]. So the client runs a completely ordinary
//! [`iblt_known_bob`](recon_set::session::iblt_known_bob) against a daemon
//! that never pays `O(n)` per session.
//!
//! [`iblt_known_alice`]: recon_set::session::iblt_known_alice
//! [`iblt_known_protocol`]: recon_set::session::iblt_known_protocol

use recon_base::wire::Claimed;
use recon_base::ReconError;
use recon_protocol::{
    AmplifiedSender, ControlFrame, Envelope, Party, Role, SessionId, Step, CONTROL_SESSION,
};
use recon_runtime::{ConnId, Server, ServerConfig, TcpEndpoint, TcpService};
use recon_set::session::iblt_known_envelope;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Mutex};

use crate::backend::StorageBackend;
use crate::control::{
    ErrorResp, MutateReq, MutateResp, OpenReq, OpenResp, ReconcileReq, ReconcileResp, SnapshotReq,
    SnapshotResp, StatReq, StatResp, OP_CLOSE, OP_DELETE, OP_ERROR, OP_INSERT, OP_OPEN,
    OP_RECONCILE, OP_SNAPSHOT, OP_STAT,
};
use crate::store::SketchStore;

/// A validated `Reconcile` request waiting for endpoint access.
struct ReconcileJob {
    request_id: u64,
    session: SessionId,
    name: String,
    d: usize,
    max_attempts: u64,
    estimated: Option<u64>,
}

/// Per-connection state shared between the control party (which runs inside
/// the endpoint) and the service (which owns the endpoint access).
#[derive(Default)]
struct ConnShared {
    jobs: Vec<ReconcileJob>,
    outbox: VecDeque<Envelope>,
}

/// The control party: daemon side of one connection's control session.
struct ControlParty<B: StorageBackend> {
    store: Arc<Mutex<SketchStore<B>>>,
    shared: Arc<Mutex<ConnShared>>,
}

impl<B: StorageBackend> ControlParty<B> {
    /// Serve one request inline, or queue a reconcile job. `Ok(None)` means
    /// the response is deferred to [`StoreService::on_progress`].
    fn serve(&mut self, frame: &ControlFrame) -> Result<Option<ControlFrame>, ReconError> {
        let mut store = self.store.lock().expect("store lock");
        let response = match frame.op {
            OP_OPEN => {
                let req: OpenReq = frame.decode_payload()?;
                let params = if req.create {
                    store.open_replica(&req.name)?
                } else {
                    store.params(&req.name)?
                };
                ControlFrame::new(frame.request_id, OP_OPEN, &OpenResp { params })
            }
            OP_INSERT | OP_DELETE => {
                let req: MutateReq = frame.decode_payload()?;
                let applied = if frame.op == OP_INSERT {
                    store.insert(&req.name, &req.keys)?
                } else {
                    store.delete(&req.name, &req.keys)?
                };
                let total = store.stat(&req.name)?.cardinality;
                ControlFrame::new(frame.request_id, frame.op, &MutateResp { applied, total })
            }
            OP_RECONCILE => {
                let req: ReconcileReq = frame.decode_payload()?;
                if req.session == CONTROL_SESSION {
                    return Err(ReconError::InvalidInput(
                        "data session id collides with the control session".into(),
                    ));
                }
                let params = store.params(&req.name)?;
                let (d, estimated) = match req.d_bound {
                    Some(bound) => {
                        let top = *params.ladder.last().expect("non-empty ladder");
                        let rung = Claimed::new(bound)
                            .at_most(top, "difference bound")
                            .ok()
                            .and_then(|bound| params.rung_for(bound))
                            .ok_or(ReconError::DifferenceBoundTooSmall { bound: top })?;
                        (rung, None)
                    }
                    None => {
                        let estimator = req.estimator.as_ref().ok_or_else(|| {
                            ReconError::InvalidInput(
                                "reconcile without a bound needs an estimator".into(),
                            )
                        })?;
                        let (estimate, rung) = store.estimate_bound(&req.name, estimator)?;
                        (rung, Some(estimate as u64))
                    }
                };
                self.shared.lock().expect("conn lock").jobs.push(ReconcileJob {
                    request_id: frame.request_id,
                    session: req.session,
                    name: req.name,
                    d,
                    max_attempts: params.max_attempts,
                    estimated,
                });
                return Ok(None);
            }
            OP_SNAPSHOT => {
                let req: SnapshotReq = frame.decode_payload()?;
                let bytes = store.snapshot(&req.name)?;
                ControlFrame::new(frame.request_id, OP_SNAPSHOT, &SnapshotResp { bytes })
            }
            OP_STAT => {
                let req: StatReq = frame.decode_payload()?;
                let stat = store.stat(&req.name)?;
                ControlFrame::new(frame.request_id, OP_STAT, &StatResp { stat })
            }
            OP_CLOSE => ControlFrame::new(frame.request_id, OP_CLOSE, &()),
            op => {
                return Err(ReconError::InvalidInput(format!("unknown control opcode {op:#06x}")))
            }
        };
        Ok(Some(response))
    }
}

impl<B: StorageBackend> Party for ControlParty<B> {
    type Output = ();

    fn poll_send(&mut self) -> Option<Envelope> {
        self.shared.lock().expect("conn lock").outbox.pop_front()
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<()>, ReconError> {
        let frame = ControlFrame::from_envelope(&envelope)?;
        // A failed operation answers with OP_ERROR but keeps the session:
        // one bad request must not tear down a long-lived control channel.
        let response = match self.serve(&frame) {
            Ok(Some(response)) => response,
            Ok(None) => return Ok(Step::Continue),
            Err(error) => ControlFrame::new(
                frame.request_id,
                OP_ERROR,
                &ErrorResp { message: error.to_string() },
            ),
        };
        self.shared
            .lock()
            .expect("conn lock")
            .outbox
            .push_back(response.response_envelope("control response"));
        // Never `Step::Done` — a done session core stops sending, which would
        // strand the queued response (the `Close` ack included). The session
        // retires through the client's `Fin` instead, like any Alice side.
        Ok(Step::Continue)
    }
}

/// The per-worker [`TcpService`] serving a shared [`SketchStore`].
pub struct StoreService<B: StorageBackend> {
    store: Arc<Mutex<SketchStore<B>>>,
    /// Set by `register`, claimed by the `on_accepted` that follows it (the
    /// worker loop calls them back-to-back on one thread).
    pending: Option<Arc<Mutex<ConnShared>>>,
    conns: HashMap<ConnId, Arc<Mutex<ConnShared>>>,
}

impl<B: StorageBackend> StoreService<B> {
    /// A service over a shared store handle.
    pub fn new(store: Arc<Mutex<SketchStore<B>>>) -> Self {
        Self { store, pending: None, conns: HashMap::new() }
    }
}

impl<B: StorageBackend + 'static> TcpService for StoreService<B> {
    fn register(
        &mut self,
        _peer: SocketAddr,
        endpoint: &mut TcpEndpoint,
    ) -> Result<(), ReconError> {
        let shared = Arc::new(Mutex::new(ConnShared::default()));
        let party = ControlParty { store: Arc::clone(&self.store), shared: Arc::clone(&shared) };
        endpoint.register(CONTROL_SESSION, Role::Alice, party)?;
        self.pending = Some(shared);
        Ok(())
    }

    fn on_accepted(&mut self, conn: ConnId, _peer: SocketAddr) {
        let shared = self.pending.take().expect("on_accepted follows register");
        self.conns.insert(conn, shared);
    }

    fn on_progress(&mut self, conn: ConnId, endpoint: &mut TcpEndpoint) {
        if let Some(shared) = self.conns.get(&conn) {
            let jobs: Vec<ReconcileJob> =
                std::mem::take(&mut shared.lock().expect("conn lock").jobs);
            for job in jobs {
                let store = Arc::clone(&self.store);
                let name = job.name.clone();
                let d = job.d;
                let sender = AmplifiedSender::new(job.max_attempts, move |attempt| {
                    let store = store.lock().expect("store lock");
                    // Attempt 0 is the cached bank: O(d), bit-identical to a
                    // fresh build.
                    let digest = if attempt == 0 {
                        store.digest(&name, d)?.1
                    } else {
                        store.rebuild_digest(&name, d, attempt)?
                    };
                    Ok(iblt_known_envelope(attempt, &digest))
                });
                let response = match sender
                    .and_then(|party| endpoint.register(job.session, Role::Alice, party))
                {
                    Ok(()) => ControlFrame::new(
                        job.request_id,
                        OP_RECONCILE,
                        &ReconcileResp {
                            session: job.session,
                            d: job.d as u64,
                            estimated: job.estimated,
                        },
                    ),
                    Err(error) => ControlFrame::new(
                        job.request_id,
                        OP_ERROR,
                        &ErrorResp { message: error.to_string() },
                    ),
                };
                shared
                    .lock()
                    .expect("conn lock")
                    .outbox
                    .push_back(response.response_envelope("control response"));
            }
        }
        endpoint.close_finished();
    }

    fn on_closed(
        &mut self,
        conn: ConnId,
        _endpoint: &TcpEndpoint,
        _result: &Result<(), ReconError>,
    ) {
        self.conns.remove(&conn);
    }
}

/// A running store daemon: a multi-reactor [`Server`] whose workers share one
/// [`SketchStore`].
pub struct StoreDaemon<B: StorageBackend> {
    server: Server,
    store: Arc<Mutex<SketchStore<B>>>,
}

impl<B: StorageBackend + 'static> StoreDaemon<B> {
    /// Bind `addr` and serve `store` on `workers` reactor threads. The server
    /// runs without session deadlines: control sessions live as long as their
    /// connections.
    pub fn bind(
        addr: impl ToSocketAddrs,
        store: SketchStore<B>,
        workers: usize,
    ) -> Result<Self, ReconError> {
        let config = ServerConfig::new().workers(workers.max(1)).session_deadline(None);
        Self::bind_with(addr, store, config)
    }

    /// [`StoreDaemon::bind`] with full control over the [`ServerConfig`] —
    /// worker count, deadlines and the per-connection resource caps
    /// (frame size, session count, buffered output).
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        store: SketchStore<B>,
        config: ServerConfig,
    ) -> Result<Self, ReconError> {
        let store = Arc::new(Mutex::new(store));
        let server = {
            let store = Arc::clone(&store);
            Server::bind(addr, config, move |_| StoreService::new(Arc::clone(&store)))?
        };
        Ok(Self { server, store })
    }

    /// The address the daemon is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stop serving and reclaim the store.
    pub fn shutdown(self) -> (recon_runtime::ServerStats, SketchStore<B>) {
        let stats = self.server.shutdown();
        // Every other handle lived in a worker's service, and the workers have
        // been joined.
        let Ok(store) = Arc::try_unwrap(self.store) else {
            unreachable!("a store handle outlived the server's workers")
        };
        (stats, store.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner()))
    }
}
