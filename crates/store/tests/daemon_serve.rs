//! End-to-end daemon parity: a long-lived [`StoreDaemon`] serving
//! reconciliation from cached sketches must be observationally identical —
//! recovered set, `CommStats`, wire bytes — to a cold one-shot session over
//! the same data, without ever rebuilding a digest from scratch.

use recon_base::wire::Encode;
use recon_base::ReconError;
use recon_estimator::{Side, StrataConfig, StrataEstimator};
use recon_protocol::{ControlFrame, Envelope, Party, Role, Step, CONTROL_SESSION};
use recon_runtime::{connect_endpoint, drive_endpoint, ReactorConfig, ServerConfig};
use recon_set::full_digest_builds;
use recon_set::session::{iblt_known_alice, iblt_known_bob};
use recon_store::control::{ReconcileReq, ReconcileResp, OP_CLOSE, OP_ERROR, OP_RECONCILE};
use recon_store::{MemoryBackend, SketchStore, StoreClient, StoreConfig, StoreDaemon};
use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Mutex};

fn daemon_config() -> StoreConfig {
    StoreConfig::default().with_seed(0xDAE0).with_ladder(vec![16, 64, 256])
}

#[test]
fn daemon_serves_byte_identical_sessions_without_rebuilds() {
    let store = SketchStore::open(MemoryBackend::new(), daemon_config()).unwrap();
    let daemon = StoreDaemon::bind("127.0.0.1:0", store, 2).unwrap();
    let mut client = StoreClient::connect(daemon.local_addr()).unwrap();

    // A churned replica: 3000 inserts, 300 deletes, applied over the wire.
    let params = client.open("events").unwrap();
    let keys: Vec<u64> = (0..3000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    for chunk in keys.chunks(500) {
        client.insert("events", chunk).unwrap();
    }
    let doomed: Vec<u64> = keys.iter().copied().take(300).collect();
    let (applied, total) = client.delete("events", &doomed).unwrap();
    assert_eq!(applied, 300);
    assert_eq!(total, 2700);
    let replica_keys: HashSet<u64> = keys[300..].iter().copied().collect();

    // Bob drifts: 12 missing, 8 extra (symmetric difference 20).
    let mut local: HashSet<u64> = replica_keys.iter().copied().skip(12).collect();
    for extra in 0..8u64 {
        local.insert(0xB0B_0000 + extra);
    }

    // Known-d reconciliation, served from the maintained bank: the full-build
    // counter must not move — that is the "never rebuilt from scratch" pin.
    let builds_before = full_digest_builds();
    let report = client.reconcile("events", &local, Some(20)).unwrap();
    assert_eq!(
        full_digest_builds(),
        builds_before,
        "daemon-served reconciliation must not rebuild a digest"
    );
    assert_eq!(report.recovered, replica_keys);
    assert_eq!(report.d, 64, "20 rounds up to the 64 rung");
    assert_eq!(report.estimated, None);

    // Cold one-shot session over the same sets and the same effective bound:
    // outcomes and CommStats must match byte for byte.
    let config = params.session_config();
    let cold = recon_protocol::SessionBuilder::new(params.seed)
        .amplification(config.amplification)
        .run(
            iblt_known_alice(&replica_keys, report.d as usize, &config).unwrap(),
            iblt_known_bob(&local, &config),
        )
        .unwrap();
    assert_eq!(cold.recovered, replica_keys);
    assert_eq!(report.stats, cold.stats, "daemon stats must equal a cold session's");
    assert!(report.stats.bytes_alice_to_bob > 0);

    // Unknown-d: the daemon merges strata estimators and picks a rung.
    let report2 = client.reconcile("events", &local, None).unwrap();
    assert_eq!(report2.recovered, replica_keys);
    let estimate = report2.estimated.expect("daemon estimated the difference");
    assert!(estimate >= 5, "20 true differences, estimate {estimate}");
    assert!(params.ladder.contains(&(report2.d as usize)));

    // Reconciling twice more reuses the same cached bank (sessions get fresh
    // ids, outcomes stay stable).
    let report3 = client.reconcile("events", &local, Some(20)).unwrap();
    assert_eq!(report3.recovered, replica_keys);
    assert_eq!(report3.stats, report.stats);

    client.close().unwrap();
    let (stats, store) = daemon.shutdown();
    assert_eq!(stats.served(), 1, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
    assert_eq!(store.keys("events").unwrap(), &replica_keys);
}

#[test]
fn daemon_survives_bad_requests_and_serves_many_clients() {
    let store = SketchStore::open(MemoryBackend::new(), daemon_config()).unwrap();
    bad_requests_then_many_clients(StoreDaemon::bind("127.0.0.1:0", store, 2).unwrap());
}

/// The same traffic through [`StoreDaemon::bind_with`] and an explicit
/// [`ServerConfig`]; every worker reactor waits on `poll(2)`, the only poller.
#[test]
fn daemon_serves_many_clients_on_the_poll_backend() {
    let store = SketchStore::open(MemoryBackend::new(), daemon_config()).unwrap();
    let config = ServerConfig::new().workers(2).session_deadline(None);
    bad_requests_then_many_clients(StoreDaemon::bind_with("127.0.0.1:0", store, config).unwrap());
}

fn bad_requests_then_many_clients(daemon: StoreDaemon<MemoryBackend>) {
    let addr = daemon.local_addr();

    // Seed one replica through a setup client.
    let mut setup = StoreClient::connect(addr).unwrap();
    setup.open("shared").unwrap();
    let keys: Vec<u64> = (0..800u64).collect();
    setup.insert("shared", &keys).unwrap();

    // Errors answer on the control channel without killing the session...
    assert!(setup.stat("ghost").is_err());
    assert!(setup.reconcile("ghost", &HashSet::new(), Some(8)).is_err());
    let err = setup.reconcile("shared", &HashSet::new(), Some(100_000)).unwrap_err();
    assert!(format!("{err}").contains("daemon error"), "{err}");
    // ...and the session keeps working afterwards.
    let stat = setup.stat("shared").unwrap();
    assert_eq!(stat.cardinality, 800);
    assert_eq!(stat.wal_records, 800);
    setup.close().unwrap();

    // Concurrent clients reconcile against the same cached sketches.
    let expected: HashSet<u64> = keys.iter().copied().collect();
    let handles: Vec<_> = (0..4u64)
        .map(|i| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = StoreClient::connect(addr).unwrap();
                let local: HashSet<u64> = expected.iter().copied().skip(i as usize + 1).collect();
                let report = client.reconcile("shared", &local, Some(16)).unwrap();
                assert_eq!(report.recovered, expected);
                client.close().unwrap();
                report.stats
            })
        })
        .collect();
    let all_stats: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Same rung, same replica: every client pays the same Alice→Bob bytes.
    for stats in &all_stats[1..] {
        assert_eq!(stats.bytes_alice_to_bob, all_stats[0].bytes_alice_to_bob);
    }

    let (stats, _) = daemon.shutdown();
    assert_eq!(stats.served(), 5, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
}

/// Client half of the control session with the request bytes in the test's
/// hands — what [`StoreClient`] keeps private.
#[derive(Default)]
struct RawControl {
    outbox: VecDeque<Envelope>,
    inbox: Vec<ControlFrame>,
}

struct RawControlParty(Arc<Mutex<RawControl>>);

impl Party for RawControlParty {
    type Output = ();

    fn poll_send(&mut self) -> Option<Envelope> {
        self.0.lock().unwrap().outbox.pop_front()
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<()>, ReconError> {
        let frame = ControlFrame::from_envelope(&envelope)?;
        let closing = frame.op == OP_CLOSE;
        self.0.lock().unwrap().inbox.push(frame);
        Ok(if closing { Step::Done(()) } else { Step::Continue })
    }
}

#[test]
fn hostile_strata_estimator_is_refused_and_the_connection_lives_on() {
    // One worker: if the hostile request unwound it, nothing below is served.
    let store = SketchStore::open(MemoryBackend::new(), daemon_config()).unwrap();
    let daemon = StoreDaemon::bind("127.0.0.1:0", store, 1).unwrap();
    let mut setup = StoreClient::connect(daemon.local_addr()).unwrap();
    let params = setup.open("shared").unwrap();
    let keys: HashSet<u64> = (0..800u64).collect();
    setup.insert("shared", &keys.iter().copied().collect::<Vec<_>>()).unwrap();
    let local: HashSet<u64> = keys.iter().copied().skip(5).collect();

    // The replica's public strata header over tables of twice the cells: the
    // header is 10 bytes (two one-byte varints and the seed) in both configs.
    let cfg = params.strata_config();
    let wide = StrataConfig { cells_per_stratum: 2 * cfg.cells_per_stratum, ..cfg };
    let mut honest = StrataEstimator::new(&cfg);
    honest.update_all(local.iter().copied(), Side::B);
    let request = |session, estimator| ReconcileReq {
        name: "shared".to_string(),
        session,
        d_bound: None,
        estimator: Some(estimator),
    };
    let mut hostile = request(1, honest.clone()).to_bytes();
    hostile.truncate(hostile.len() - honest.serialized_len() + 10);
    hostile.extend_from_slice(&StrataEstimator::new(&wide).to_bytes()[10..]);

    let control = Arc::new(Mutex::new(RawControl::default()));
    let mut endpoint = connect_endpoint(daemon.local_addr()).unwrap();
    endpoint.register(CONTROL_SESSION, Role::Bob, RawControlParty(Arc::clone(&control))).unwrap();
    let send = |frame: ControlFrame| {
        control.lock().unwrap().outbox.push_back(frame.request_envelope("control request"))
    };
    let config = ReactorConfig::default();

    send(ControlFrame { request_id: 1, op: OP_RECONCILE, payload: hostile });
    drive_endpoint(&mut endpoint, &config, |_| Ok(!control.lock().unwrap().inbox.is_empty()))
        .unwrap();
    let refused = control.lock().unwrap().inbox.remove(0);
    assert_eq!((refused.request_id, refused.op), (1, OP_ERROR), "{refused:?}");

    // The same connection, the same opcode, an honest estimator.
    endpoint.register(2, Role::Bob, iblt_known_bob(&local, &params.session_config())).unwrap();
    send(ControlFrame::new(2, OP_RECONCILE, &request(2, honest)));
    let mut outcome = None;
    drive_endpoint(&mut endpoint, &config, |endpoint| {
        outcome = outcome.take().or_else(|| endpoint.take_outcome::<HashSet<u64>>(2));
        Ok(outcome.is_some() && !control.lock().unwrap().inbox.is_empty())
    })
    .unwrap();
    assert_eq!(outcome.unwrap().unwrap().recovered, keys);
    let served = control.lock().unwrap().inbox.remove(0);
    assert_eq!(served.op, OP_RECONCILE, "{served:?}");
    assert_eq!(served.decode_payload::<ReconcileResp>().unwrap().session, 2);

    send(ControlFrame::new(3, OP_CLOSE, &()));
    drive_endpoint(&mut endpoint, &config, |endpoint| {
        Ok(endpoint.take_outcome::<()>(CONTROL_SESSION).is_some())
    })
    .unwrap();
    drop(endpoint);

    assert_eq!(setup.stat("shared").unwrap().cardinality, 800);
    setup.close().unwrap();
    let (stats, _) = daemon.shutdown();
    assert_eq!(stats.served(), 2, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
}

#[test]
fn mutations_during_daemon_lifetime_are_durable() {
    // Daemon over a dir backend: mutations applied over the wire survive a
    // full daemon restart (snapshot + WAL replay on reopen).
    let dir = std::env::temp_dir().join(format!("recon-store-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let open_store = || {
        SketchStore::open(recon_store::DirBackend::open(&dir).unwrap(), daemon_config()).unwrap()
    };

    let daemon = StoreDaemon::bind("127.0.0.1:0", open_store(), 1).unwrap();
    let mut client = StoreClient::connect(daemon.local_addr()).unwrap();
    client.open("journal").unwrap();
    client.insert("journal", &(0..500u64).collect::<Vec<_>>()).unwrap();
    client.snapshot("journal").unwrap();
    client.insert("journal", &(500..640u64).collect::<Vec<_>>()).unwrap();
    client.delete("journal", &[0, 1, 2]).unwrap();
    assert_eq!(client.stat("journal").unwrap().wal_records, 143);
    client.close().unwrap();
    daemon.shutdown();

    // Restart from disk: snapshot + 143 logged mutations replay exactly.
    let daemon = StoreDaemon::bind("127.0.0.1:0", open_store(), 1).unwrap();
    let mut client = StoreClient::connect(daemon.local_addr()).unwrap();
    let stat = client.stat("journal").unwrap();
    assert_eq!(stat.cardinality, 637);
    assert_eq!(stat.wal_records, 143);
    let expected: HashSet<u64> = (3..640).collect();
    let report =
        client.reconcile("journal", &(3..600).collect::<HashSet<u64>>(), Some(60)).unwrap();
    assert_eq!(report.recovered, expected);
    client.close().unwrap();
    daemon.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
