//! A reconciliation *server*: `TABLES` independent databases synced over one
//! non-blocking TCP connection per client, served by the readiness-driven
//! reactor runtime (`recon-runtime`).
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
//! The server holds `TABLES` authoritative [`BinaryTable`]s (the paper's
//! Section 3.5 binary-row database); each client holds a replica of every
//! table with `D` bits flipped under its own seed. Table `t` reconciles as
//! session `t`, one naive set-of-sets session under its own public-coin seed,
//! and one `Endpoint` per connection multiplexes all `TABLES` sessions.
//!
//! The server is a [`Server`]: two worker [`Reactor`]s accepting from one
//! shared non-blocking listener, each driving its endpoints purely off
//! `poll(2)` readiness — idle connections cost nothing, and the process
//! serves any number of concurrent clients. Clients run the same machinery single-connection via
//! [`drive_endpoint`].
//!
//! [`Server`]: recon_runtime::Server
//! [`Reactor`]: recon_runtime::Reactor
//! [`drive_endpoint`]: recon_runtime::drive_endpoint

use recon_apps::BinaryTable;
use recon_base::rng::{split_seed, Xoshiro256};
use recon_base::{CommStats, ReconError};
use recon_protocol::{Amplification, Outcome, Party, Role, SessionBuilder, SessionId, Transport};
use recon_runtime::{drive_endpoint, ConnId, ReactorConfig, Server, ServerConfig, TcpService};
use recon_sos::{session as sos_session, SetOfSets, SosParams};
use std::sync::mpsc;
use std::time::Duration;

const SHARED_SEED: u64 = 0x005E_EDDB;
const TABLES: usize = 6;
const ROWS: usize = 96;
const COLUMNS: u32 = 32;
const D: usize = 6;
const CLIENTS: usize = 8;
const WORKERS: usize = 2;

/// `D` flipped bits change at most `D` rows, each one differing child on
/// either side: every table reconciles under a bound of `2D` differing rows.
const DIFFERING_ROWS: usize = 2 * D;

/// The authoritative tables every replica drifted from.
fn server_tables() -> Vec<BinaryTable> {
    (0..TABLES as u64)
        .map(|t| BinaryTable::random(ROWS, COLUMNS, 0.5, &mut Xoshiro256::new(SHARED_SEED ^ t)))
        .collect()
}

/// Client `client`'s replicas: every server table with `D` bits flipped under
/// a per-client seed, so the 8 concurrent connections all reconcile different
/// differences against the same authority.
fn client_tables(client: u64) -> Vec<BinaryTable> {
    let mut rng = Xoshiro256::new(SHARED_SEED ^ (0xC11E_4700 + client));
    server_tables().iter().map(|table| table.flip_bits(D, &mut rng)).collect()
}

/// Table `t`'s public coins, shared by both roles.
fn params(t: usize) -> SosParams {
    SosParams::new(split_seed(SHARED_SEED, t as u64), COLUMNS as usize)
}

fn alice_party(tables: &[BinaryTable], t: usize) -> impl Party<Output = ()> + 'static {
    sos_session::naive_known_alice(
        tables[t].as_set_of_sets(),
        DIFFERING_ROWS,
        &params(t),
        Amplification::replicate(4),
    )
    .expect("alice party")
}

fn bob_party(tables: &[BinaryTable], t: usize) -> impl Party<Output = SetOfSets> + 'static {
    sos_session::naive_known_bob(
        tables[t].as_set_of_sets(),
        &params(t),
        Amplification::replicate(4),
    )
}

fn reactor_config() -> ReactorConfig {
    ReactorConfig { session_deadline: Some(Duration::from_secs(60)), ..ReactorConfig::default() }
}

/// The server side of every connection: one Alice session per authoritative
/// table. One instance per worker reactor.
struct TableSyncService {
    tables: Vec<BinaryTable>,
    worker: usize,
    done: mpsc::Sender<bool>,
}

impl TcpService for TableSyncService {
    fn register(
        &mut self,
        _peer: std::net::SocketAddr,
        endpoint: &mut recon_runtime::TcpEndpoint,
    ) -> Result<(), ReconError> {
        for t in 0..TABLES {
            endpoint.register(t as SessionId, Role::Alice, alice_party(&self.tables, t))?;
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
    let tables = server_tables();
    let config =
        ServerConfig::new().workers(WORKERS).session_deadline(Some(Duration::from_secs(60)));
    let server = Server::bind(address, config, |worker| TableSyncService {
        tables: tables.clone(),
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

/// One reactor client: reconcile every table concurrently over one connection
/// driven by readiness events, verify each outcome and its stats against the
/// blocking driver, and return the connection's total accounting.
fn sync_reactor(address: &str, client: u64) -> CommStats {
    let mut endpoint =
        recon_runtime::connect_endpoint(address).expect("connect (is --serve running?)");
    let tables = client_tables(client);
    for t in 0..TABLES {
        endpoint.register(t as SessionId, Role::Bob, bob_party(&tables, t)).expect("register");
    }

    let mut slots: Vec<Option<Outcome<SetOfSets>>> = (0..TABLES).map(|_| None).collect();
    drive_endpoint(&mut endpoint, &reactor_config(), |endpoint| {
        for (t, slot) in slots.iter_mut().enumerate() {
            if slot.is_none() {
                if let Some(outcome) = endpoint.take_outcome::<SetOfSets>(t as SessionId) {
                    *slot = Some(outcome?);
                }
            }
        }
        Ok(slots.iter().all(Option::is_some))
    })
    .expect("reactor client");

    // Every table must come back as the authority's, and every session's
    // outcome and CommStats must be byte-identical to the blocking driver
    // running the very same party pair.
    let authority = server_tables();
    let mut total = CommStats::default();
    for (t, outcome) in slots.into_iter().map(Option::unwrap).enumerate() {
        let blocking = SessionBuilder::new(0)
            .run(alice_party(&authority, t), bob_party(&tables, t))
            .expect("blocking path");
        assert_eq!(outcome.recovered, blocking.recovered, "client {client} table {t}");
        assert_eq!(outcome.stats, blocking.stats, "client {client} table {t} stats");
        let recovered = BinaryTable::from_set_of_sets(COLUMNS, outcome.recovered).expect("table");
        assert_eq!(recovered, authority[t], "client {client} must recover table {t}");
        // The sessions share one connection: bytes and messages add up, while
        // their rounds overlap.
        total = CommStats {
            rounds: total.rounds.max(outcome.stats.rounds),
            messages: total.messages + outcome.stats.messages,
            bytes_alice_to_bob: total.bytes_alice_to_bob + outcome.stats.bytes_alice_to_bob,
            bytes_bob_to_alice: total.bytes_bob_to_alice + outcome.stats.bytes_bob_to_alice,
        };
    }
    total
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
    for (client, handle) in clients.into_iter().enumerate() {
        println!("client {client}: {}", handle.join().expect("client thread"));
    }
    for _ in 0..CLIENTS {
        assert!(done.recv().expect("server alive"), "a connection closed uncleanly");
    }
    let stats = server.shutdown();
    assert_eq!(stats.served(), CLIENTS as u64, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
    println!(
        "synced {CLIENTS} concurrent clients x {TABLES} table sessions ({ROWS}x{COLUMNS} tables, \
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
            println!("client {client}: {}", sync_reactor(address, client));
        }
        _ => self_drive(),
    }
}
