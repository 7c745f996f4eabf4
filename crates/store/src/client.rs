//! The daemon's client: a blocking facade over one [`TcpEndpoint`] driven by
//! [`drive_endpoint`].
//!
//! A [`StoreClient`] multiplexes everything over a single connection: the
//! control session ([`CONTROL_SESSION`], client side `Role::Bob`) for
//! commands, plus one fresh data session per [`StoreClient::reconcile`] call
//! running a completely ordinary [`iblt_known_bob`] party. The client
//! registers its Bob **before** sending the `Reconcile` request — the
//! endpoint multiplexer treats an envelope for an unregistered session as a
//! transport error, and the daemon's digest can arrive in the same readiness
//! event as the control response.
//!
//! [`iblt_known_bob`]: recon_set::session::iblt_known_bob

use recon_base::comm::CommStats;
use recon_base::ReconError;
use recon_estimator::{Side, StrataEstimator};
use recon_protocol::{ControlFrame, Envelope, Party, Role, SessionId, Step, CONTROL_SESSION};
use recon_runtime::{connect_endpoint, drive_endpoint, ReactorConfig, TcpEndpoint};
use recon_set::session::iblt_known_bob;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::ToSocketAddrs;
use std::sync::{Arc, Mutex};

use crate::control::{
    ErrorResp, MutateReq, MutateResp, OpenReq, OpenResp, ReconcileReq, ReconcileResp, SnapshotReq,
    SnapshotResp, StatReq, StatResp, OP_CLOSE, OP_DELETE, OP_ERROR, OP_INSERT, OP_OPEN,
    OP_RECONCILE, OP_SNAPSHOT, OP_STAT,
};
use crate::replica::ReplicaParams;
use crate::store::StoreStat;

/// What one daemon-served reconciliation produced.
#[derive(Debug, Clone)]
pub struct ReconcileReport {
    /// The replica's full key set, recovered by the local Bob party.
    pub recovered: HashSet<u64>,
    /// Measured communication of the data session (control traffic excluded).
    pub stats: CommStats,
    /// Effective difference bound served (the ladder rung).
    pub d: u64,
    /// The strata estimate, when the daemon sized the session.
    pub estimated: Option<u64>,
}

#[derive(Default)]
struct ClientShared {
    /// Responses by request id (services may answer out of order).
    inbox: HashMap<u64, ControlFrame>,
    /// Requests waiting for the endpoint pump.
    outbox: VecDeque<Envelope>,
}

/// Client side of the control session: pumps queued requests out, files
/// responses into the shared inbox, and completes on the `Close` response.
struct ClientControl {
    shared: Arc<Mutex<ClientShared>>,
}

impl Party for ClientControl {
    type Output = ();

    fn poll_send(&mut self) -> Option<Envelope> {
        self.shared.lock().expect("client lock").outbox.pop_front()
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<()>, ReconError> {
        let frame = ControlFrame::from_envelope(&envelope)?;
        let closing = frame.op == OP_CLOSE;
        self.shared.lock().expect("client lock").inbox.insert(frame.request_id, frame);
        if closing {
            Ok(Step::Done(()))
        } else {
            Ok(Step::Continue)
        }
    }
}

/// A connected store-daemon client. See the module docs.
pub struct StoreClient {
    endpoint: TcpEndpoint,
    config: ReactorConfig,
    shared: Arc<Mutex<ClientShared>>,
    next_request: u64,
    next_session: SessionId,
    /// Parameters of replicas opened through this client, by name.
    params: HashMap<String, ReplicaParams>,
}

impl StoreClient {
    /// Connect to a daemon at `addr` and install the control session.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ReconError> {
        let mut endpoint = connect_endpoint(addr)?;
        let shared = Arc::new(Mutex::new(ClientShared::default()));
        endpoint.register(
            CONTROL_SESSION,
            Role::Bob,
            ClientControl { shared: Arc::clone(&shared) },
        )?;
        Ok(Self {
            endpoint,
            config: ReactorConfig::default(),
            shared,
            next_request: 1,
            next_session: CONTROL_SESSION + 1,
            params: HashMap::new(),
        })
    }

    /// Queue a request frame; returns its request id.
    fn send(&mut self, op: u16, body: &impl recon_base::wire::Encode) -> u64 {
        let request_id = self.next_request;
        self.next_request += 1;
        let frame = ControlFrame::new(request_id, op, body);
        self.shared
            .lock()
            .expect("client lock")
            .outbox
            .push_back(frame.request_envelope("control request"));
        request_id
    }

    /// Drive the endpoint until the response to `request_id` arrives, mapping
    /// an `OP_ERROR` response to `Err`.
    fn wait(&mut self, request_id: u64) -> Result<ControlFrame, ReconError> {
        let shared = Arc::clone(&self.shared);
        drive_endpoint(&mut self.endpoint, &self.config, |_| {
            Ok(shared.lock().expect("client lock").inbox.contains_key(&request_id))
        })?;
        let frame = self
            .shared
            .lock()
            .expect("client lock")
            .inbox
            .remove(&request_id)
            .expect("wait returned with the response present");
        check_error(frame)
    }

    fn request(
        &mut self,
        op: u16,
        body: &impl recon_base::wire::Encode,
    ) -> Result<ControlFrame, ReconError> {
        let request_id = self.send(op, body);
        self.wait(request_id)
    }

    /// Open (creating if absent) replica `name`, returning — and caching —
    /// its parameters.
    pub fn open(&mut self, name: &str) -> Result<ReplicaParams, ReconError> {
        self.open_with(name, true)
    }

    fn open_with(&mut self, name: &str, create: bool) -> Result<ReplicaParams, ReconError> {
        let resp: OpenResp =
            self.request(OP_OPEN, &OpenReq { name: name.to_string(), create })?.decode_payload()?;
        self.params.insert(name.to_string(), resp.params.clone());
        Ok(resp.params)
    }

    /// Insert `keys` into replica `name`; returns `(applied, cardinality)`.
    pub fn insert(&mut self, name: &str, keys: &[u64]) -> Result<(u64, u64), ReconError> {
        let req = MutateReq { name: name.to_string(), keys: keys.to_vec() };
        let resp: MutateResp = self.request(OP_INSERT, &req)?.decode_payload()?;
        Ok((resp.applied, resp.total))
    }

    /// Delete `keys` from replica `name`; returns `(applied, cardinality)`.
    pub fn delete(&mut self, name: &str, keys: &[u64]) -> Result<(u64, u64), ReconError> {
        let req = MutateReq { name: name.to_string(), keys: keys.to_vec() };
        let resp: MutateResp = self.request(OP_DELETE, &req)?.decode_payload()?;
        Ok((resp.applied, resp.total))
    }

    /// Snapshot replica `name`; returns the snapshot size in bytes.
    pub fn snapshot(&mut self, name: &str) -> Result<u64, ReconError> {
        let resp: SnapshotResp =
            self.request(OP_SNAPSHOT, &SnapshotReq { name: name.to_string() })?.decode_payload()?;
        Ok(resp.bytes)
    }

    /// Statistics for replica `name`.
    pub fn stat(&mut self, name: &str) -> Result<StoreStat, ReconError> {
        let resp: StatResp =
            self.request(OP_STAT, &StatReq { name: name.to_string() })?.decode_payload()?;
        Ok(resp.stat)
    }

    /// Reconcile `local` against replica `name`: recover the replica's full
    /// key set from a daemon-served session. With `d_bound = None` the client
    /// builds a strata estimator over `local` and lets the daemon size the
    /// session.
    ///
    /// A failure whose [`ReconError::is_retryable`] holds (a lost connection,
    /// a corrupt frame, a stuck session) leaves this client's connection in an
    /// unknown state: retry by connecting a new client. Sessions are stateful
    /// and cannot resume mid-protocol, so recovery is re-execution.
    pub fn reconcile(
        &mut self,
        name: &str,
        local: &HashSet<u64>,
        d_bound: Option<u64>,
    ) -> Result<ReconcileReport, ReconError> {
        // Fetch-without-create: reconciling must never conjure an empty
        // replica out of a typo'd name.
        let params = match self.params.get(name) {
            Some(params) => params.clone(),
            None => self.open_with(name, false)?,
        };
        let session = self.next_session;
        self.next_session += 1;

        // Register Bob before the request leaves: the daemon's digest may
        // arrive in the same readiness event as the control response.
        let bob = iblt_known_bob(local, &params.session_config());
        self.endpoint.register(session, Role::Bob, bob)?;

        let estimator = match d_bound {
            Some(_) => None,
            None => {
                let mut estimator = StrataEstimator::new(&params.strata_config());
                estimator.update_all(local.iter().copied(), Side::B);
                Some(estimator)
            }
        };
        let request_id = self.send(
            OP_RECONCILE,
            &ReconcileReq { name: name.to_string(), session, d_bound, estimator },
        );

        let shared = Arc::clone(&self.shared);
        let mut outcome = None;
        let drove = drive_endpoint(&mut self.endpoint, &self.config, |endpoint| {
            if outcome.is_none() {
                if let Some(done) = endpoint.take_outcome::<HashSet<u64>>(session) {
                    outcome = Some(done);
                }
            }
            let inbox = &shared.lock().expect("client lock").inbox;
            match inbox.get(&request_id) {
                // An error response means no Alice was registered; stop waiting.
                Some(frame) => Ok(frame.op == OP_ERROR || outcome.is_some()),
                None => Ok(false),
            }
        });
        let frame = self.shared.lock().expect("client lock").inbox.remove(&request_id);
        drove?;
        let frame = check_error(frame.expect("drive returned with the response present"))
            .inspect_err(|_| {
                // The daemon refused: retire the never-started Bob session.
                let _ = self.endpoint.close(session);
            })?;
        let resp: ReconcileResp = frame.decode_payload()?;
        let outcome = outcome.expect("outcome present when drive finished")?;
        Ok(ReconcileReport {
            recovered: outcome.recovered,
            stats: outcome.stats,
            d: resp.d,
            estimated: resp.estimated,
        })
    }

    /// Close the control session gracefully and drain the connection.
    pub fn close(mut self) -> Result<(), ReconError> {
        self.send(OP_CLOSE, &());
        let mut closed = false;
        drive_endpoint(&mut self.endpoint, &self.config, |endpoint| {
            if !closed {
                if let Some(outcome) = endpoint.take_outcome::<()>(CONTROL_SESSION) {
                    outcome?;
                    closed = true;
                }
            }
            Ok(closed && !endpoint.is_write_blocked())
        })
    }
}

fn check_error(frame: ControlFrame) -> Result<ControlFrame, ReconError> {
    if frame.op == OP_ERROR {
        let err: ErrorResp = frame.decode_payload()?;
        return Err(ReconError::InvalidInput(format!("daemon error: {}", err.message)));
    }
    Ok(frame)
}
