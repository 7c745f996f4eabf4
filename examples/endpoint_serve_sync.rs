//! A reconciliation *server*: sharded database sync over non-blocking TCP,
//! served by the readiness-driven reactor runtime (`recon-runtime`).
//!
//! Run self-driving (a 2-worker reactor server plus 8 concurrent clients over
//! loopback sockets — every one verified against the blocking driver):
//!
//! ```text
//! cargo run -p recon-examples --release --example endpoint_serve_sync
//! ```
//!
//! Or as real processes:
//!
//! ```text
//! cargo run -p recon-examples --release --example endpoint_serve_sync -- --serve 127.0.0.1:7171 8
//! cargo run -p recon-examples --release --example endpoint_serve_sync -- --sync  127.0.0.1:7171 3
//! ```
//!
//! The server holds the authoritative [`BinaryTable`] (the paper's Section 3.5
//! binary-row database); each client holds a replica with `D` bits flipped
//! under its own seed. A shared [`ShardedRunner`] splits the rows into
//! `SHARDS` deterministic shards, each shard becomes one naive set-of-sets
//! session, and one `Endpoint` per connection multiplexes all of them.
//!
//! Where the PR-2 version hand-pumped a single connection with
//! `std::thread::sleep` backoff, the server is now a [`Server`]: a
//! non-blocking listener balancing accepted connections across two worker
//! [`Reactor`]s (least-loaded-of-two-choices), each driving its endpoints
//! purely off epoll/`poll(2)` readiness — idle connections cost nothing, and
//! the process serves any number of concurrent clients. Clients run the same
//! machinery single-connection via [`drive_endpoint`].
//!
//! [`Server`]: recon_runtime::Server
//! [`Reactor`]: recon_runtime::Reactor
//! [`drive_endpoint`]: recon_runtime::drive_endpoint

use recon_apps::BinaryTable;
use recon_base::rng::Xoshiro256;
use recon_base::{CommStats, ReconError};
use recon_protocol::{
    Amplification, Outcome, Role, SessionBuilder, SessionId, ShardedRunner, Transport,
};
use recon_runtime::{drive_endpoint, ConnId, ReactorConfig, Server, ServerConfig, TcpService};
use recon_sos::{session as sos_session, sharded, SetOfSets, SosParams};
use std::sync::mpsc;
use std::time::Duration;

const SHARED_SEED: u64 = 0x005E_EDDB;
const SHARDS: usize = 6;
const ROWS: usize = 96;
const COLUMNS: u32 = 32;
const D: usize = 6;
const CLIENTS: usize = 8;
const WORKERS: usize = 2;

/// Every shard reconciles under the always-safe bound of `2D` differing rows.
const PER_SHARD_ROWS: usize = 2 * D;

/// The authoritative table every replica drifted from.
fn server_table() -> BinaryTable {
    let mut rng = Xoshiro256::new(SHARED_SEED);
    BinaryTable::random(ROWS, COLUMNS, 0.5, &mut rng)
}

/// Client `client`'s replica: the server table with `D` bits flipped under a
/// per-client seed, so the 8 concurrent connections all reconcile different
/// differences against the same authority.
fn client_table(client: u64) -> BinaryTable {
    let mut rng = Xoshiro256::new(SHARED_SEED ^ (0xC11E_4700 + client));
    server_table().flip_bits(D, &mut rng)
}

fn runner() -> ShardedRunner {
    ShardedRunner::new(SHARDS, SHARED_SEED ^ 0x5A)
}

/// Per-shard session ingredients shared by both roles.
fn shard_setup(table: &BinaryTable) -> (Vec<SetOfSets>, Vec<SosParams>) {
    let runner = runner();
    let shards = sharded::shard_set_of_sets(table.as_set_of_sets(), &runner);
    let params = (0..runner.num_shards())
        .map(|s| SosParams::new(runner.shard_seed(s), COLUMNS as usize))
        .collect();
    (shards, params)
}

fn alice_party(
    shards: &[SetOfSets],
    params: &[SosParams],
    shard: usize,
) -> impl recon_protocol::Party<Output = ()> + 'static {
    sos_session::naive_known_alice(
        &shards[shard],
        PER_SHARD_ROWS,
        &params[shard],
        Amplification::replicate(4),
    )
    .expect("alice party")
}

fn bob_party(
    shards: &[SetOfSets],
    params: &[SosParams],
    shard: usize,
) -> impl recon_protocol::Party<Output = SetOfSets> + 'static {
    sos_session::naive_known_bob(&shards[shard], &params[shard], Amplification::replicate(4))
}

fn reactor_config() -> ReactorConfig {
    ReactorConfig { session_deadline: Some(Duration::from_secs(60)), ..ReactorConfig::default() }
}

/// The server side of every connection: `SHARDS` Alice sessions built from the
/// authoritative table. One instance per worker reactor.
struct ShardSyncService {
    shards: Vec<SetOfSets>,
    params: Vec<SosParams>,
    worker: usize,
    done: mpsc::Sender<bool>,
}

impl TcpService for ShardSyncService {
    fn register(
        &mut self,
        _peer: std::net::SocketAddr,
        endpoint: &mut recon_runtime::TcpEndpoint,
    ) -> Result<(), ReconError> {
        for shard in 0..SHARDS {
            endpoint.register(
                shard as SessionId,
                Role::Alice,
                alice_party(&self.shards, &self.params, shard),
            )?;
        }
        Ok(())
    }

    // on_progress: the default close-all-finished harvest is exactly right
    // for an Alice side whose parties produce no output.

    fn on_closed(
        &mut self,
        conn: ConnId,
        endpoint: &recon_runtime::TcpEndpoint,
        result: &Result<(), ReconError>,
    ) {
        match result {
            Ok(()) => eprintln!(
                "[serve] worker {} closed conn {:#x} cleanly ({} framed bytes out)",
                self.worker,
                conn,
                endpoint.transport().bytes_framed_out()
            ),
            Err(e) => eprintln!("[serve] worker {} conn {conn:#x} failed: {e}", self.worker),
        }
        let _ = self.done.send(result.is_ok());
    }
}

/// Start the 2-worker reactor server; returns it plus a channel that yields
/// one message per retired connection.
fn start_server(address: &str) -> (Server, mpsc::Receiver<bool>) {
    let (done_tx, done_rx) = mpsc::channel();
    let (shards, params) = shard_setup(&server_table());
    let config =
        ServerConfig::new().workers(WORKERS).session_deadline(Some(Duration::from_secs(60)));
    let server = Server::bind(address, config, |worker| ShardSyncService {
        shards: shards.clone(),
        params: params.clone(),
        worker,
        done: done_tx.clone(),
    })
    .expect("bind reactor server");
    (server, done_rx)
}

/// Serve `conns` connections on the reactor, then shut down.
fn serve_reactor(address: &str, conns: usize) {
    let (server, done) = start_server(address);
    eprintln!(
        "[serve] reactor server on {} ({WORKERS} workers, waiting for {conns} connections)",
        server.local_addr()
    );
    let mut clean = 0;
    for _ in 0..conns {
        if done.recv().expect("server alive") {
            clean += 1;
        }
    }
    let stats = server.shutdown();
    eprintln!(
        "[serve] done: {clean}/{conns} clean; per-worker {:?}, {} failed",
        stats.served_per_worker, stats.failed
    );
    assert_eq!(clean, conns, "every connection must close cleanly");
}

/// One reactor client: reconcile every shard concurrently over one connection
/// driven by readiness events, then verify outcome and stats against the
/// blocking driver.
fn sync_reactor(address: &str, client: u64) -> Vec<CommStats> {
    let mut endpoint =
        recon_runtime::connect_endpoint(address).expect("connect (is --serve running?)");
    let table = client_table(client);
    let (shards, params) = shard_setup(&table);
    for shard in 0..SHARDS {
        endpoint
            .register(shard as SessionId, Role::Bob, bob_party(&shards, &params, shard))
            .expect("register");
    }

    let mut recovered_shards: Vec<Option<Outcome<SetOfSets>>> = (0..SHARDS).map(|_| None).collect();
    drive_endpoint(&mut endpoint, &reactor_config(), |endpoint| {
        for (shard, slot) in recovered_shards.iter_mut().enumerate() {
            if slot.is_none() {
                if let Some(outcome) = endpoint.take_outcome::<SetOfSets>(shard as SessionId) {
                    *slot = Some(outcome?);
                }
            }
        }
        Ok(recovered_shards.iter().all(Option::is_some))
    })
    .expect("reactor client");

    let outcomes: Vec<_> = recovered_shards.into_iter().map(Option::unwrap).collect();

    // The reassembled table must be the authority...
    let children =
        outcomes.iter().flat_map(|o| o.recovered.children().to_vec()).collect::<Vec<_>>();
    let recovered =
        BinaryTable::from_set_of_sets(COLUMNS, SetOfSets::from_children(children)).expect("table");
    assert_eq!(recovered, server_table(), "client {client} must recover the server's table");

    // ...and every shard's outcome and CommStats must be byte-identical to the
    // blocking driver running the very same party pair.
    let (server_shards, server_params) = shard_setup(&server_table());
    for (shard, outcome) in outcomes.iter().enumerate() {
        let blocking = SessionBuilder::new(0)
            .run(
                alice_party(&server_shards, &server_params, shard),
                bob_party(&shards, &params, shard),
            )
            .expect("blocking path");
        assert_eq!(outcome.recovered, blocking.recovered, "client {client} shard {shard}");
        assert_eq!(outcome.stats, blocking.stats, "client {client} shard {shard} stats");
    }
    outcomes.into_iter().map(|o| o.stats).collect()
}

/// Self-driving reactor mode: one server, `CLIENTS` concurrent clients.
fn self_drive() {
    let (server, done) = start_server("127.0.0.1:0");
    let address = server.local_addr().to_string();
    eprintln!("[self] reactor server on {address} ({WORKERS} workers)");

    let clients: Vec<_> = (0..CLIENTS as u64)
        .map(|client| {
            let address = address.clone();
            std::thread::spawn(move || sync_reactor(&address, client))
        })
        .collect();
    let mut merged = Vec::new();
    for (client, handle) in clients.into_iter().enumerate() {
        let per_shard = handle.join().expect("client thread");
        let stats = ShardedRunner::merge_stats(&per_shard);
        println!("client {client}: {stats}");
        merged.push(stats);
    }
    for _ in 0..CLIENTS {
        assert!(done.recv().expect("server alive"), "a connection closed uncleanly");
    }
    let stats = server.shutdown();
    assert_eq!(stats.served(), CLIENTS as u64, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
    println!(
        "synced {CLIENTS} concurrent clients x {SHARDS} shard sessions ({ROWS}x{COLUMNS} table, \
         {D} flipped bits each) on {WORKERS} worker reactors; per-worker connections {:?}; \
         every outcome and CommStats byte-identical to the blocking driver",
        stats.served_per_worker
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--serve") => {
            let address = args.get(2).map(String::as_str).unwrap_or("127.0.0.1:7171");
            let conns = args.get(3).and_then(|n| n.parse().ok()).unwrap_or(1);
            serve_reactor(address, conns);
        }
        Some("--sync") => {
            let address = args.get(2).map(String::as_str).unwrap_or("127.0.0.1:7171");
            let client = args.get(3).and_then(|n| n.parse().ok()).unwrap_or(0);
            let per_shard = sync_reactor(address, client);
            println!("client {client}: {}", ShardedRunner::merge_stats(&per_shard));
        }
        _ => self_drive(),
    }
}
