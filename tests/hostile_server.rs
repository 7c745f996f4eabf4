//! Malicious peers against a capped [`Server`]: the per-connection resource
//! caps ([`ServerConfig::max_frame_bytes`], [`ServerConfig::max_sessions_per_conn`])
//! must fail hostile connections with structured errors while the server
//! keeps serving well-behaved clients — a bad peer can cost its own
//! connection, never the worker's memory.

use recon_base::wire::write_uvarint;
use recon_base::ReconError;
use recon_protocol::amplify::{AmplifiedReceiver, AmplifiedSender, Exhaust};
use recon_protocol::{ControlFrame, Envelope, Party, Role, Step, CONTROL_SESSION};
use recon_runtime::{
    connect_endpoint, drive_endpoint, ReactorConfig, Server, ServerConfig, TcpEndpoint, TcpService,
};
use recon_set::session::iblt_known_bob;
use recon_store::control::{ReconcileReq, OP_CLOSE, OP_ERROR, OP_RECONCILE};
use recon_store::{MemoryBackend, SketchStore, StoreClient, StoreConfig, StoreDaemon};
use std::collections::{HashSet, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One Alice session per connection, fixed payload — enough protocol to prove
/// a clean client is still served.
struct OneSender;

impl TcpService for OneSender {
    fn register(
        &mut self,
        _peer: SocketAddr,
        endpoint: &mut TcpEndpoint,
    ) -> Result<(), ReconError> {
        let alice =
            AmplifiedSender::new(4, |attempt| Ok(Envelope::round(1, "digest", &(1000 + attempt))))
                .expect("sender");
        endpoint.register(0, Role::Alice, alice)
    }
}

fn run_clean_client(addr: SocketAddr) -> u64 {
    let mut endpoint = connect_endpoint(addr).expect("connect");
    let bob = AmplifiedReceiver::new(
        4,
        |_, env: Envelope| env.decode_payload::<u64>(),
        |_| true,
        |_| Envelope::control(2, "retry", &()),
        Exhaust::LastError,
    );
    endpoint.register(0, Role::Bob, bob).expect("register");
    let mut recovered = None;
    drive_endpoint(&mut endpoint, &ReactorConfig::default(), |endpoint| {
        match endpoint.take_outcome::<u64>(0) {
            Some(outcome) => {
                recovered = Some(outcome?.recovered);
                Ok(true)
            }
            None => Ok(false),
        }
    })
    .expect("clean client drive");
    recovered.expect("recovered")
}

/// A peer claiming a gigabyte-sized frame is cut off on the *length prefix*
/// alone — the worker never buffers (or even waits for) the claimed body, so
/// the claim costs the attacker their connection and the server nothing.
#[test]
fn oversized_frame_claim_is_rejected_on_its_prefix_alone() {
    let config = ServerConfig::new()
        .workers(1)
        .session_deadline(Some(Duration::from_secs(10)))
        .max_frame_bytes(4096);
    let server = Server::bind("127.0.0.1:0", config, |_| OneSender).expect("bind");
    let addr = server.local_addr();

    let claimed: u64 = 1 << 30;
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut prefix = Vec::new();
    write_uvarint(&mut prefix, claimed);
    stream.write_all(&prefix).expect("send length prefix");

    // The server must kill the connection now, without seeing a single body
    // byte. Keep feeding garbage until the kernel reports the reset; the
    // accepted volume is bounded by the in-flight socket buffers, nowhere
    // near the claimed gigabyte.
    let mut accepted = prefix.len() as u64;
    let garbage = [0u8; 64 * 1024];
    loop {
        match stream.write(&garbage) {
            Ok(0) | Err(_) => break,
            Ok(n) => accepted += n as u64,
        }
        assert!(
            accepted < (64 << 20),
            "server kept reading a frame {accepted} bytes into a {claimed}-byte claim"
        );
    }
    drop(stream);

    // The worker that refused the attacker still serves a clean client.
    assert_eq!(run_clean_client(addr), 1000);
    let stats = server.shutdown();
    assert_eq!(stats.served(), 1, "{stats:?}");
    assert!(stats.failed >= 1, "hostile connection must be counted as failed: {stats:?}");
}

/// Control-session client used to flood the daemon with reconcile requests:
/// all requests are pre-queued, responses are collected for inspection. The
/// session finishes once `expected` responses are in — the daemon acks
/// `OP_CLOSE` inline but defers reconcile grants/refusals to its progress
/// hook, so the close ack can legitimately arrive *first*.
struct FloodControl {
    outbox: VecDeque<Envelope>,
    responses: Arc<Mutex<Vec<ControlFrame>>>,
    expected: usize,
}

impl Party for FloodControl {
    type Output = ();

    fn poll_send(&mut self) -> Option<Envelope> {
        self.outbox.pop_front()
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<()>, ReconError> {
        let frame = ControlFrame::from_envelope(&envelope)?;
        let mut responses = self.responses.lock().expect("responses lock");
        responses.push(frame);
        if responses.len() >= self.expected {
            Ok(Step::Done(()))
        } else {
            Ok(Step::Continue)
        }
    }
}

/// A client that asks one connection for more concurrent sessions than
/// [`ServerConfig::max_sessions_per_conn`] allows gets a structured per-request
/// error for the excess — the daemon registers nothing beyond the cap, keeps
/// the connection alive, and still serves the request that fit.
#[test]
fn session_flood_is_refused_per_request_and_the_connection_survives() {
    let keys: Vec<u64> = (0..200u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let replica: HashSet<u64> = keys.iter().copied().collect();

    let store = SketchStore::open(MemoryBackend::new(), StoreConfig::default().with_seed(0xCAFE))
        .expect("open store");
    // Room for the control session plus exactly one data session.
    let config = ServerConfig::new().workers(1).session_deadline(None).max_sessions_per_conn(2);
    let daemon = StoreDaemon::bind_with("127.0.0.1:0", store, config).expect("bind daemon");
    let addr = daemon.local_addr();

    // Set the replica up over a well-behaved client connection.
    let mut setup = StoreClient::connect(addr).expect("connect setup");
    let params = setup.open("stock").expect("open");
    setup.insert("stock", &keys).expect("insert");
    setup.close().expect("close setup");

    // The flood: three reconcile requests (sessions 1-3) plus the close, all
    // queued before the first byte moves, so they land in one batch ahead of
    // any session completing.
    let responses = Arc::new(Mutex::new(Vec::new()));
    let mut outbox = VecDeque::new();
    for session in 1..=3u64 {
        let req =
            ReconcileReq { name: "stock".to_string(), session, d_bound: Some(8), estimator: None };
        outbox.push_back(
            ControlFrame::new(session, OP_RECONCILE, &req).request_envelope("control request"),
        );
    }
    outbox.push_back(ControlFrame::new(9, OP_CLOSE, &()).request_envelope("control request"));

    let mut endpoint = connect_endpoint(addr).expect("connect flood");
    endpoint
        .register(
            CONTROL_SESSION,
            Role::Bob,
            FloodControl { outbox, responses: Arc::clone(&responses), expected: 4 },
        )
        .expect("register control");
    let session_config = params.session_config();
    for session in 1..=3u64 {
        endpoint
            .register(session, Role::Bob, iblt_known_bob(&replica, &session_config))
            .expect("register bob");
    }

    // Phase 1: drive until every control response (including the close) is in.
    let watch = Arc::clone(&responses);
    drive_endpoint(&mut endpoint, &ReactorConfig::default(), |endpoint| {
        let _ = endpoint.take_outcome::<()>(CONTROL_SESSION);
        Ok(watch.lock().expect("responses lock").len() >= 4)
    })
    .expect("drive flood");

    let responses = responses.lock().expect("responses lock");
    let granted: Vec<u64> =
        responses.iter().filter(|f| f.op == OP_RECONCILE).map(|f| f.request_id).collect();
    let refused: Vec<u64> =
        responses.iter().filter(|f| f.op == OP_ERROR).map(|f| f.request_id).collect();
    assert_eq!(granted, vec![1], "exactly the request that fit under the cap is served");
    assert_eq!(refused, vec![2, 3], "the excess requests fail individually");
    drop(responses);

    // Phase 2: retire the refused sessions locally, then finish the granted
    // one — the connection survived the flood.
    for &session in &refused {
        let _ = endpoint.close(session);
    }
    let mut recovered = None;
    drive_endpoint(&mut endpoint, &ReactorConfig::default(), |endpoint| {
        if recovered.is_none() {
            if let Some(outcome) = endpoint.take_outcome::<HashSet<u64>>(granted[0]) {
                recovered = Some(outcome?.recovered);
            }
        }
        Ok(recovered.is_some() && !endpoint.is_write_blocked())
    })
    .expect("drive granted session");
    assert_eq!(recovered.expect("granted session outcome"), replica);
    drop(endpoint);

    let (stats, _) = daemon.shutdown();
    assert_eq!(stats.failed, 0, "cap refusals must not fail connections: {stats:?}");
}
