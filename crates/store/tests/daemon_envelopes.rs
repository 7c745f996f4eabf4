//! The daemon's served Alice, envelope by envelope: for every attempt of the
//! replication budget — attempt 0 from the cached bank, each retry rebuilt —
//! the daemon puts on the wire exactly the envelope (tag, label, payload)
//! [`iblt_known_alice`] builds for the same keys, bound and seed.

use recon_base::ReconError;
use recon_protocol::{ControlFrame, Envelope, Party, Role, Step, CONTROL_SESSION};
use recon_runtime::{connect_endpoint, drive_endpoint, ReactorConfig};
use recon_set::session::{iblt_known_alice, TAG_RETRY};
use recon_store::control::{ReconcileReq, OP_RECONCILE};
use recon_store::{MemoryBackend, SketchStore, StoreClient, StoreConfig, StoreDaemon};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// A Bob that keeps every digest it is sent and asks for the next replica
/// until it holds `attempts` of them.
struct Recorder {
    seen: Arc<Mutex<Vec<Envelope>>>,
    attempts: usize,
    retry: Option<Envelope>,
}

impl Party for Recorder {
    type Output = ();

    fn poll_send(&mut self) -> Option<Envelope> {
        self.retry.take()
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<()>, ReconError> {
        let mut seen = self.seen.lock().unwrap();
        seen.push(envelope);
        if seen.len() == self.attempts {
            return Ok(Step::Done(()));
        }
        self.retry = Some(Envelope::control(TAG_RETRY, "retry request", &()));
        Ok(Step::Continue)
    }
}

/// The control session's client half: sends one request, ignores the answer.
struct OneRequest(Option<Envelope>);

impl Party for OneRequest {
    type Output = ();

    fn poll_send(&mut self) -> Option<Envelope> {
        self.0.take()
    }

    fn handle(&mut self, _: Envelope) -> Result<Step<()>, ReconError> {
        Ok(Step::Continue)
    }
}

#[test]
fn every_served_attempt_equals_the_cold_alice_envelope() {
    let config = StoreConfig::default().with_seed(0xE7E1).with_ladder(vec![16, 64]);
    let store = SketchStore::open(MemoryBackend::new(), config).unwrap();
    let daemon = StoreDaemon::bind("127.0.0.1:0", store, 1).unwrap();
    let mut setup = StoreClient::connect(daemon.local_addr()).unwrap();
    let params = setup.open("served").unwrap();
    let keys: Vec<u64> = (0..1500u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    setup.insert("served", &keys).unwrap();
    let attempts = params.max_attempts as usize;
    assert_eq!(attempts, 4, "attempts 0–3");

    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut endpoint = connect_endpoint(daemon.local_addr()).unwrap();
    let recorder = Recorder { seen: Arc::clone(&seen), attempts, retry: None };
    endpoint.register(2, Role::Bob, recorder).unwrap();
    let request =
        ReconcileReq { name: "served".into(), session: 2, d_bound: Some(20), estimator: None };
    let request = ControlFrame::new(1, OP_RECONCILE, &request).request_envelope("control request");
    endpoint.register(CONTROL_SESSION, Role::Bob, OneRequest(Some(request))).unwrap();
    drive_endpoint(&mut endpoint, &ReactorConfig::default(), |endpoint| {
        Ok(endpoint.take_outcome::<()>(2).is_some())
    })
    .unwrap();
    drop(endpoint);

    let keys: HashSet<u64> = keys.into_iter().collect();
    let mut alice = iblt_known_alice(&keys, 64, &params.session_config()).unwrap();
    let served = seen.lock().unwrap();
    assert_eq!(served.len(), attempts);
    for (attempt, served) in served.iter().enumerate() {
        let cold = alice.poll_send().expect("one envelope per attempt");
        assert_eq!(
            (served.tag, &served.label, &served.payload),
            (cold.tag, &cold.label, &cold.payload),
            "attempt {attempt}"
        );
        alice.handle(Envelope::control(TAG_RETRY, "retry request", &())).unwrap();
    }

    setup.close().unwrap();
    daemon.shutdown();
}
