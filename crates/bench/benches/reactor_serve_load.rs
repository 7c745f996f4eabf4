//! Reactor serving capacity under real concurrency: a multi-process load
//! generator drives over a thousand simultaneous TCP connections (one
//! known-`d` set-reconciliation session each) against one [`Server`], and
//! reports throughput *and* tail latency.
//!
//! `recon-benchmark` pins one CPU and drives one connection at a time, so it
//! cannot see this; here the bench re-executes itself as `--load-child` worker
//! processes, each running a client-side [`Reactor`] that multiplexes hundreds
//! of concurrent endpoints — so the server faces a genuinely external,
//! kernel-scheduled load. Each child measures every session's insert-to-retire
//! latency and streams the raw nanosecond values to the parent, which prints
//! the wall-clock per served session (sessions/sec at this concurrency) and
//! the p50 / p99 of the session-latency distribution. Nothing gates on the
//! numbers; the asserts (every connection served, none failed) are the check.
//!
//! Full mode runs 4 children × 256 connections (1024 concurrent); `--smoke`
//! runs 2 × 32 so CI can execute the whole pipeline in seconds.

use criterion::{black_box, smoke_mode};
use recon_bench::set_pair;
use recon_protocol::{Amplification, Role, SessionConfig};
use recon_runtime::{
    connect_endpoint, ConnId, Reactor, ReactorConfig, Server, ServerConfig, TcpService,
};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
// Light enough that a single core can push >1k concurrent sessions through in
// seconds — this bench is about the serving path (accept, readiness, framing,
// buffer recycling), not IBLT compute.
const N: usize = 1_000;
const D: usize = 8;
const BOUND: usize = D + 4;
/// Generous: under 1k-connection queueing on one core, an individual session
/// legitimately waits far longer than any interactive deadline.
const DEADLINE: Duration = Duration::from_secs(120);

fn config() -> SessionConfig {
    SessionConfig {
        seed: 0x5EED,
        amplification: Amplification::replicate(3),
        estimator: recon_estimator::L0Config::default(),
    }
}

/// One authoritative/replica pair; deterministic, so child processes rebuild
/// the very same replica set from the shared seed.
fn dataset() -> (HashSet<u64>, HashSet<u64>) {
    set_pair(N, D, 0xACE)
}

struct OneSession {
    alice_set: HashSet<u64>,
}

impl TcpService for OneSession {
    fn register(
        &mut self,
        _peer: SocketAddr,
        endpoint: &mut recon_runtime::TcpEndpoint,
    ) -> Result<(), recon_base::ReconError> {
        let alice = recon_set::session::iblt_known_alice(&self.alice_set, BOUND, &config())?;
        endpoint.register(0, Role::Alice, alice)
    }
    // on_progress: default close-all-finished harvest.
}

/// Child-process body: drive `conns` concurrent sessions on one client-side
/// reactor, printing each session's insert-to-retire latency (integer
/// nanoseconds, one per line) to stdout.
fn load_child(addr: SocketAddr, conns: usize) {
    let (_, bob_set) = dataset();
    let reactor_config =
        ReactorConfig { session_deadline: Some(DEADLINE), ..ReactorConfig::default() };
    let mut reactor = Reactor::new(reactor_config).expect("client reactor");
    let mut started: HashMap<ConnId, Instant> = HashMap::with_capacity(conns);
    for _ in 0..conns {
        let mut endpoint = connect_endpoint(addr).expect("connect");
        let bob = recon_set::session::iblt_known_bob(&bob_set, &config());
        endpoint.register(0, Role::Bob, bob).expect("register");
        let conn = reactor.insert(endpoint).expect("insert");
        started.insert(conn, Instant::now());
    }

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut done = 0usize;
    while done < conns {
        reactor
            .turn(Some(Duration::from_millis(200)), |_, endpoint| {
                if let Some(outcome) = endpoint.take_outcome::<HashSet<u64>>(0) {
                    black_box(outcome.expect("session outcome").recovered);
                }
            })
            .expect("client turn");
        for finished in reactor.take_finished() {
            finished.result.expect("clean close");
            let latency = started[&finished.conn].elapsed();
            writeln!(out, "{}", latency.as_nanos()).expect("write latency");
            done += 1;
        }
    }
}

/// Parent body: serve, fan out child processes, gather every session latency.
/// Returns `(wall_per_session, p50, p99)`.
fn run_load(children: usize, conns_per_child: usize) -> (Duration, Duration, Duration) {
    let (alice_set, _) = dataset();
    let server_config = ServerConfig::new().workers(WORKERS).session_deadline(Some(DEADLINE));
    let server = Server::bind("127.0.0.1:0", server_config, move |_| OneSession {
        alice_set: alice_set.clone(),
    })
    .expect("bind");
    let addr = server.local_addr();
    let exe = std::env::current_exe().expect("current exe");

    let start = Instant::now();
    let procs: Vec<_> = (0..children)
        .map(|_| {
            Command::new(&exe)
                .arg("--load-child")
                .arg(addr.to_string())
                .arg(conns_per_child.to_string())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn load child")
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(children * conns_per_child);
    for child in procs {
        let output = child.wait_with_output().expect("wait for load child");
        assert!(output.status.success(), "load child failed: {:?}", output.status);
        for line in String::from_utf8(output.stdout).expect("child stdout").lines() {
            latencies.push(line.trim().parse().expect("latency line"));
        }
    }
    let wall = start.elapsed();

    let stats = server.shutdown();
    let sessions = (children * conns_per_child) as u64;
    assert_eq!(latencies.len() as u64, sessions, "every session must report a latency");
    assert_eq!(stats.served(), sessions, "every connection must be served: {stats:?}");
    assert_eq!(stats.failed, 0, "no connection may fail under load: {stats:?}");

    latencies.sort_unstable();
    let percentile = |q: f64| {
        Duration::from_nanos(latencies[((latencies.len() - 1) as f64 * q).round() as usize])
    };
    (wall / sessions as u32, percentile(0.50), percentile(0.99))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Child re-execution entry: must be checked before anything else so the
    // shim's flag parsing never sees child invocations.
    if let Some(at) = args.iter().position(|a| a == "--load-child") {
        let addr: SocketAddr = args[at + 1].parse().expect("child addr");
        let conns: usize = args[at + 2].parse().expect("child conns");
        load_child(addr, conns);
        return;
    }

    let (children, conns_per_child) = if smoke_mode() { (2, 32) } else { (4, 256) };
    let conns = children * conns_per_child;
    let (per_session, p50, p99) = run_load(children, conns_per_child);
    println!(
        "reactor_serve_load/conns/{conns}: {per_session:.2?} / session \
         ({:.0} sessions/sec), latency p50 {p50:.2?} p99 {p99:.2?}",
        1.0 / per_session.as_secs_f64().max(1e-9),
    );
}
