//! Property coverage for the store's control vocabulary: every op body
//! roundtrips through its wire encoding and through a [`ControlFrame`], and
//! the daemon's error path — `OP_ERROR` echoing the request id — holds for
//! arbitrary garbage requests on a live connection, without killing the
//! control session.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use recon_base::wire::{Decode, Encode};
use recon_base::ReconError;
use recon_estimator::{Side, StrataEstimator};
use recon_protocol::{ControlFrame, Envelope, Party, Role, Step, CONTROL_SESSION};
use recon_runtime::{connect_endpoint, drive_endpoint, ReactorConfig};
use recon_store::control::{
    ErrorResp, MutateReq, MutateResp, OpenReq, OpenResp, ReconcileReq, ReconcileResp, SnapshotReq,
    SnapshotResp, StatReq, StatResp, OP_ERROR, OP_OPEN, OP_RECONCILE, OP_STAT,
};
use recon_store::{
    MemoryBackend, ReplicaParams, SketchStore, StoreClient, StoreConfig, StoreDaemon, StoreStat,
};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, OnceLock};

fn lowercase(bytes: Vec<u8>) -> String {
    bytes.into_iter().map(|b| (b'a' + b % 26) as char).collect()
}

fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: &T, op: u16) {
    assert_eq!(&T::from_bytes(&value.to_bytes()).unwrap(), value, "direct wire roundtrip");
    // And through a ControlFrame + its uncharged envelope, like the daemon.
    let frame = ControlFrame::new(7, op, value);
    let envelope = Envelope::from_bytes(&frame.response_envelope("resp").to_bytes()).unwrap();
    let back = ControlFrame::from_envelope(&envelope).unwrap();
    assert_eq!(back.request_id, 7);
    assert_eq!(back.op, op);
    assert_eq!(&back.decode_payload::<T>().unwrap(), value, "frame roundtrip");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every control body survives
    /// encode → decode unchanged, bare and wrapped in a [`ControlFrame`].
    #[test]
    fn store_control_bodies_roundtrip(
        name_bytes in pvec(0u8..26, 0..12),
        create in any::<bool>(),
        keys in pvec(any::<u64>(), 0..48),
        applied in any::<u64>(),
        total in any::<u64>(),
        session in 1u64..10_000,
        d_bound in any::<u64>(),
        with_bound in any::<bool>(),
        snapshot_bytes in any::<u64>(),
        ladder_steps in pvec(1usize..50, 1..5),
        message_bytes in pvec(0u8..26, 0..40),
        estimated in any::<u64>(),
    ) {
        let name = lowercase(name_bytes);
        roundtrip(&OpenReq { name: name.clone(), create }, OP_OPEN);

        // Strictly ascending ladder from positive increments.
        let ladder: Vec<usize> = ladder_steps
            .iter()
            .scan(0usize, |acc, &step| { *acc += step; Some(*acc) })
            .collect();
        let params = ReplicaParams { seed: d_bound, ladder: ladder.clone(), max_attempts: 3 };
        roundtrip(&OpenResp { params: params.clone() }, OP_OPEN);

        roundtrip(&MutateReq { name: name.clone(), keys: keys.clone() }, 2);
        roundtrip(&MutateResp { applied, total }, 2);

        let estimator = if with_bound {
            None
        } else {
            let mut estimator = StrataEstimator::new(&params.strata_config());
            for &key in &keys {
                estimator.update(key, Side::B);
            }
            Some(estimator)
        };
        roundtrip(
            &ReconcileReq {
                name: name.clone(),
                session,
                d_bound: with_bound.then_some(d_bound),
                estimator,
            },
            OP_RECONCILE,
        );
        roundtrip(
            &ReconcileResp { session, d: d_bound, estimated: with_bound.then_some(estimated) },
            OP_RECONCILE,
        );

        roundtrip(&SnapshotReq { name: name.clone() }, 5);
        roundtrip(&SnapshotResp { bytes: snapshot_bytes }, 5);
        roundtrip(&StatReq { name: name.clone() }, OP_STAT);
        roundtrip(
            &StatResp {
                stat: StoreStat {
                    cardinality: total,
                    set_hash: d_bound,
                    ladder,
                    wal_records: applied,
                },
            },
            OP_STAT,
        );

        roundtrip(&ErrorResp { message: lowercase(message_bytes) }, OP_ERROR);
    }

    /// Live daemon error echo: an arbitrary bad request — unknown opcode or
    /// known opcode with garbage payload — is answered with `OP_ERROR` under
    /// the *same* request id, and the control session survives to serve a
    /// valid request right after.
    #[test]
    fn daemon_echoes_op_error_for_arbitrary_garbage(
        request_id in any::<u64>(),
        unknown_op in 9u16..0xFFFF,
        garbage in pvec(any::<u8>(), 0..64),
        use_known_op in any::<bool>(),
    ) {
        let addr = shared_daemon();
        let mut endpoint = connect_endpoint(addr).expect("connect");
        let shared = Arc::new(Mutex::new(RawShared::default()));
        endpoint
            .register(CONTROL_SESSION, Role::Bob, RawControl(Arc::clone(&shared)))
            .expect("register");

        // Garbage first. A known op with random payload bytes exercises the
        // body-decode error path; an unknown op the dispatch error path.
        let op = if use_known_op { OP_RECONCILE } else { unknown_op };
        let bad = ControlFrame { request_id, op, payload: garbage };
        let error = raw_request(&mut endpoint, &shared, bad).expect("error response");
        prop_assert_eq!(error.request_id, request_id, "error echoes the request id");
        prop_assert_eq!(error.op, OP_ERROR);
        let resp: ErrorResp = error.decode_payload().expect("error body");
        prop_assert!(!resp.message.is_empty());

        // The session is still alive: a valid Stat answers normally.
        let follow_up = request_id.wrapping_add(1);
        let stat = ControlFrame::new(follow_up, OP_STAT, &StatReq { name: "seed".into() });
        let ok = raw_request(&mut endpoint, &shared, stat).expect("stat response");
        prop_assert_eq!(ok.request_id, follow_up);
        prop_assert_eq!(ok.op, OP_STAT);
        let stat: StatResp = ok.decode_payload().expect("stat body");
        prop_assert_eq!(stat.stat.cardinality, 64);
    }
}

/// One daemon for every proptest case, seeded with a 64-key replica named
/// `seed`; leaked so its worker threads outlive the test cases.
fn shared_daemon() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let store = SketchStore::open(
            MemoryBackend::new(),
            StoreConfig::default().with_seed(0xEC40).with_ladder(vec![16, 64]),
        )
        .unwrap();
        let daemon = StoreDaemon::bind("127.0.0.1:0", store, 1).unwrap();
        let addr = daemon.local_addr();
        let mut client = StoreClient::connect(addr).unwrap();
        client.open("seed").unwrap();
        client.insert("seed", &(0..64u64).collect::<Vec<_>>()).unwrap();
        client.close().unwrap();
        std::mem::forget(daemon);
        addr
    })
}

#[derive(Default)]
struct RawShared {
    inbox: HashMap<u64, ControlFrame>,
    outbox: VecDeque<Envelope>,
}

/// A bare-hands control party: sends whatever frames the test queues —
/// including malformed ones a [`StoreClient`] would never produce — and
/// files every response by request id.
struct RawControl(Arc<Mutex<RawShared>>);

impl Party for RawControl {
    type Output = ();

    fn poll_send(&mut self) -> Option<Envelope> {
        self.0.lock().expect("raw lock").outbox.pop_front()
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<()>, ReconError> {
        let frame = ControlFrame::from_envelope(&envelope)?;
        self.0.lock().expect("raw lock").inbox.insert(frame.request_id, frame);
        Ok(Step::Continue)
    }
}

fn raw_request(
    endpoint: &mut recon_runtime::TcpEndpoint,
    shared: &Arc<Mutex<RawShared>>,
    frame: ControlFrame,
) -> Result<ControlFrame, ReconError> {
    let request_id = frame.request_id;
    shared.lock().expect("raw lock").outbox.push_back(frame.request_envelope("raw request"));
    drive_endpoint(endpoint, &ReactorConfig::default(), |_| {
        Ok(shared.lock().expect("raw lock").inbox.contains_key(&request_id))
    })?;
    Ok(shared
        .lock()
        .expect("raw lock")
        .inbox
        .remove(&request_id)
        .expect("drive returned with the response present"))
}
