//! End-to-end test of the reactor runtime: one [`Server`] (2 worker reactors)
//! serving ≥8 concurrent TCP client connections, each multiplexing *mixed
//! protocol families* (unknown-`d` set reconciliation, known-`d` IBLT set
//! reconciliation, cascading set-of-sets), with every recovery and every
//! per-session [`CommStats`] asserted byte-identical to the blocking
//! `SessionBuilder` driver running the very same party pairs: readiness
//! delivery is an implementation detail the protocol cannot see.

use recon_base::ReconError;
use recon_protocol::{Amplification, Outcome, Party, Role, SessionBuilder, SessionId};
use recon_runtime::{drive_endpoint, ReactorConfig, Server, ServerConfig, TcpEndpoint, TcpService};
use recon_set::session as set_session;
use recon_sos::workload::{generate_pair, WorkloadParams};
use recon_sos::{session as sos_session, SetOfSets, SosParams};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::Duration;

const SHARED_SEED: u64 = 0x0EAC_7012;
const UNKNOWN_SET: SessionId = 0;
const KNOWN_SET: SessionId = 1;
const CASCADING_SOS: SessionId = 2;
const CLIENTS: usize = 8;
const WORKERS: usize = 2;

// The server's (Alice's) datasets are fixed — a server cannot know which
// replica will dial in — while every client's (Bob's) datasets drift from them
// under the client's own index, so the 8 concurrent connections all reconcile
// different differences.

fn unknown_alice_set() -> HashSet<u64> {
    (0..800u64).map(|x| x * 7 + 1).collect()
}

fn unknown_bob_set(client: u64) -> HashSet<u64> {
    let mut bob: HashSet<u64> = unknown_alice_set().into_iter().filter(|x| x % 100 != 3).collect();
    bob.extend((0..5u64).map(|x| 1_000_000 + client * 16 + x));
    bob
}

fn known_alice_set() -> HashSet<u64> {
    (0..500u64).map(|x| x * 13 + 5).collect()
}

fn known_bob_set(client: u64) -> HashSet<u64> {
    let mut bob = known_alice_set();
    for x in 0..4u64 {
        bob.insert(2_000_000 + client * 8 + x);
        bob.remove(&((x * 29) * 13 + 5));
    }
    bob
}

fn sos_pair() -> (SetOfSets, SetOfSets) {
    generate_pair(&WorkloadParams::new(32, 12, 1 << 28), 4, SHARED_SEED)
}

fn sos_params() -> SosParams {
    SosParams::new(SHARED_SEED ^ 0x505, 12)
}

fn builder() -> SessionBuilder {
    SessionBuilder::new(SHARED_SEED).amplification(Amplification::replicate(6))
}

fn alice_unknown() -> impl Party<Output = ()> + 'static {
    set_session::unknown_alice(&unknown_alice_set(), builder().config())
}

fn alice_known() -> impl Party<Output = ()> + 'static {
    set_session::iblt_known_alice(&known_alice_set(), 16, builder().config()).expect("alice")
}

fn alice_sos() -> impl Party<Output = ()> + 'static {
    sos_session::cascading_known_alice(&sos_pair().0, 4, &sos_params(), Amplification::replicate(4))
        .expect("alice")
}

fn bob_unknown(client: u64) -> impl Party<Output = HashSet<u64>> + 'static {
    set_session::unknown_bob(&unknown_bob_set(client), builder().config())
}

fn bob_known(client: u64) -> impl Party<Output = HashSet<u64>> + 'static {
    set_session::iblt_known_bob(&known_bob_set(client), builder().config())
}

fn bob_sos() -> impl Party<Output = SetOfSets> + 'static {
    sos_session::cascading_known_bob(&sos_pair().1, &sos_params(), Amplification::replicate(4))
}

/// The server side: three Alice sessions per connection.
struct MixedFamilies;

impl TcpService for MixedFamilies {
    fn register(
        &mut self,
        _peer: SocketAddr,
        endpoint: &mut TcpEndpoint,
    ) -> Result<(), ReconError> {
        endpoint.register(UNKNOWN_SET, Role::Alice, alice_unknown())?;
        endpoint.register(KNOWN_SET, Role::Alice, alice_known())?;
        endpoint.register(CASCADING_SOS, Role::Alice, alice_sos())?;
        Ok(())
    }
    // on_progress: default close-all-finished harvest.
}

struct ClientRecoveries {
    unknown: Outcome<HashSet<u64>>,
    known: Outcome<HashSet<u64>>,
    sos: Outcome<SetOfSets>,
}

/// One reactor client: dial, run all three sessions readiness-driven, return
/// the outcomes.
fn run_client(addr: SocketAddr, client: u64) -> ClientRecoveries {
    let mut endpoint = recon_runtime::connect_endpoint(addr).expect("connect");
    endpoint.register(UNKNOWN_SET, Role::Bob, bob_unknown(client)).expect("register");
    endpoint.register(KNOWN_SET, Role::Bob, bob_known(client)).expect("register");
    endpoint.register(CASCADING_SOS, Role::Bob, bob_sos()).expect("register");

    let config = ReactorConfig {
        session_deadline: Some(Duration::from_secs(60)),
        ..ReactorConfig::default()
    };
    let (mut unknown, mut known, mut sos) = (None, None, None);
    drive_endpoint(&mut endpoint, &config, |endpoint| {
        if unknown.is_none() {
            unknown = endpoint.take_outcome::<HashSet<u64>>(UNKNOWN_SET).map(|o| o.expect("ok"));
        }
        if known.is_none() {
            known = endpoint.take_outcome::<HashSet<u64>>(KNOWN_SET).map(|o| o.expect("ok"));
        }
        if sos.is_none() {
            sos = endpoint.take_outcome::<SetOfSets>(CASCADING_SOS).map(|o| o.expect("ok"));
        }
        Ok(unknown.is_some() && known.is_some() && sos.is_some())
    })
    .expect("client drive");
    ClientRecoveries { unknown: unknown.unwrap(), known: known.unwrap(), sos: sos.unwrap() }
}

/// Serve `CLIENTS` concurrent mixed-family connections on `WORKERS` worker
/// reactors and check every outcome against the blocking driver.
#[test]
fn reactor_serves_eight_mixed_family_connections() {
    let config =
        ServerConfig::new().workers(WORKERS).session_deadline(Some(Duration::from_secs(60)));
    let server = Server::bind("127.0.0.1:0", config, |_| MixedFamilies).expect("bind");
    let addr = server.local_addr();

    let handles: Vec<_> = (0..CLIENTS as u64)
        .map(|client| std::thread::spawn(move || (client, run_client(addr, client))))
        .collect();
    for handle in handles {
        let (client, got) = handle.join().expect("client thread");

        // The blocking path: identical party pairs through SessionBuilder.
        let expected_unknown =
            builder().run(alice_unknown(), bob_unknown(client)).expect("blocking unknown");
        let expected_known =
            builder().run(alice_known(), bob_known(client)).expect("blocking known");
        let expected_sos = builder().run(alice_sos(), bob_sos()).expect("blocking sos");

        assert_eq!(got.unknown.recovered, expected_unknown.recovered, "client {client} unknown");
        assert_eq!(got.unknown.stats, expected_unknown.stats, "client {client} unknown stats");
        assert_eq!(got.known.recovered, expected_known.recovered, "client {client} known");
        assert_eq!(got.known.stats, expected_known.stats, "client {client} known stats");
        assert_eq!(got.sos.recovered, expected_sos.recovered, "client {client} sos");
        assert_eq!(got.sos.stats, expected_sos.stats, "client {client} sos stats");
    }

    let stats = server.shutdown();
    assert_eq!(stats.served(), CLIENTS as u64, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
    assert_eq!(stats.served_per_worker.len(), WORKERS);
}
