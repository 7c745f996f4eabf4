//! Two processes, one pipe, many concurrent reconciliations — multiplexed
//! endpoints driven by OS readiness instead of sleep-backoff polling.
//!
//! Run with: `cargo run -p recon-examples --release --example session_two_processes`
//!
//! The parent plays Alice, a forked child plays Bob. Each process owns an
//! [`Endpoint`] over a [`StreamTransport`] on the child's stdin/stdout pipes
//! (both ends switched to `O_NONBLOCK`) and registers *three* sessions of
//! mixed families — unknown-`d` set reconciliation, known-`d` IBLT set
//! reconciliation, and cascading set-of-sets reconciliation — that interleave
//! their session-tagged frames over the same byte stream. Each process
//! constructs only its own party state machines from its own data plus the
//! shared public-coin seed; the per-session `CommStats` each side reports are
//! identical to running the protocols alone.
//!
//! Both processes block in [`drive_endpoint`] — the reactor runtime's
//! `poll(2)` wait — and are woken only when the pipe actually has bytes
//! or buffer space: no `std::thread::sleep`, no reader thread.
//!
//! [`Endpoint`]: recon_protocol::Endpoint
//! [`StreamTransport`]: recon_protocol::StreamTransport
//! [`drive_endpoint`]: recon_runtime::drive_endpoint

use recon_base::CommStats;
use recon_protocol::{Amplification, Endpoint, Role, SessionBuilder, SessionId, Transport};
use recon_runtime::{drive_endpoint, set_nonblocking, RawFdIo, ReactorConfig};
use recon_set::session as set_session;
use recon_sos::workload::{generate_pair, WorkloadParams};
use recon_sos::{session as sos_session, SetOfSets, SosParams};
use std::collections::HashSet;
use std::os::fd::AsRawFd;
use std::process::{Command, Stdio};
use std::time::Duration;

const SHARED_SEED: u64 = 0xC0FFEE;
const UNKNOWN_SET: SessionId = 0;
const KNOWN_SET: SessionId = 1;
const CASCADING_SOS: SessionId = 2;

// Both processes derive the example datasets from the shared seed, but each
// constructs only its *own* party from its own half — the other half is used
// solely to verify the recovery at the end.

fn unknown_pair() -> (HashSet<u64>, HashSet<u64>) {
    let alice: HashSet<u64> = (0..1_000u64).map(|x| x * 7 + 1).collect();
    let mut bob: HashSet<u64> = alice.iter().copied().filter(|x| x % 125 != 3).collect();
    bob.extend((0..8u64).map(|x| 1_000_000 + x));
    (alice, bob)
}

fn known_pair() -> (HashSet<u64>, HashSet<u64>) {
    let alice: HashSet<u64> = (0..600u64).map(|x| x * 13 + 5).collect();
    let mut bob = alice.clone();
    for x in 0..6u64 {
        bob.insert(2_000_000 + x);
        bob.remove(&(x * 13 * 17 + 5));
    }
    (alice, bob)
}

fn sos_pair() -> (SetOfSets, SetOfSets) {
    generate_pair(&WorkloadParams::new(48, 12, 1 << 28), 4, SHARED_SEED)
}

fn sos_params() -> SosParams {
    SosParams::new(SHARED_SEED ^ 0x505, 12)
}

const ALL_SESSIONS: [SessionId; 3] = [UNKNOWN_SET, KNOWN_SET, CASCADING_SOS];

fn register_bob<T: Transport>(endpoint: &mut Endpoint<T>) {
    let builder = SessionBuilder::new(SHARED_SEED).amplification(Amplification::replicate(6));
    endpoint
        .register(
            UNKNOWN_SET,
            Role::Bob,
            set_session::unknown_bob(&unknown_pair().1, builder.config()),
        )
        .unwrap();
    endpoint
        .register(
            KNOWN_SET,
            Role::Bob,
            set_session::iblt_known_bob(&known_pair().1, builder.config()),
        )
        .unwrap();
    endpoint
        .register(
            CASCADING_SOS,
            Role::Bob,
            sos_session::cascading_known_bob(
                &sos_pair().1,
                &sos_params(),
                Amplification::replicate(4),
            ),
        )
        .unwrap();
}

fn register_alice<T: Transport>(endpoint: &mut Endpoint<T>) {
    let builder = SessionBuilder::new(SHARED_SEED).amplification(Amplification::replicate(6));
    endpoint
        .register(
            UNKNOWN_SET,
            Role::Alice,
            set_session::unknown_alice(&unknown_pair().0, builder.config()),
        )
        .unwrap();
    endpoint
        .register(
            KNOWN_SET,
            Role::Alice,
            set_session::iblt_known_alice(&known_pair().0, 16, builder.config())
                .expect("alice party"),
        )
        .unwrap();
    endpoint
        .register(
            CASCADING_SOS,
            Role::Alice,
            sos_session::cascading_known_alice(
                &sos_pair().0,
                4,
                &sos_params(),
                Amplification::replicate(4),
            )
            .expect("alice party"),
        )
        .unwrap();
}

/// Harvest one finished Bob session, verifying the recovery. Returns `true`
/// when it was collected.
fn take_bob_outcome<T: Transport>(endpoint: &mut Endpoint<T>, id: SessionId) -> bool {
    match id {
        UNKNOWN_SET | KNOWN_SET => match endpoint.take_outcome::<HashSet<u64>>(id) {
            None => false,
            Some(outcome) => {
                let outcome = outcome.expect("set session");
                let expected = if id == UNKNOWN_SET { unknown_pair().0 } else { known_pair().0 };
                assert_eq!(outcome.recovered, expected, "session {id}");
                eprintln!(
                    "[bob]   session {id} recovered {} elements: {}",
                    expected.len(),
                    outcome.stats
                );
                true
            }
        },
        _ => match endpoint.take_outcome::<SetOfSets>(id) {
            None => false,
            Some(outcome) => {
                let outcome = outcome.expect("sos session");
                assert_eq!(outcome.recovered, sos_pair().0, "session {id}");
                eprintln!(
                    "[bob]   session {id} recovered {} child sets: {}",
                    outcome.recovered.num_children(),
                    outcome.stats
                );
                true
            }
        },
    }
}

fn reactor_config() -> ReactorConfig {
    ReactorConfig { session_deadline: Some(Duration::from_secs(60)), ..ReactorConfig::default() }
}

/// The child process: Bob's endpoint directly over the stdin/stdout pipe
/// descriptors in non-blocking mode, driven by the reactor runtime.
fn run_bob() {
    set_nonblocking(0).expect("stdin nonblock");
    set_nonblocking(1).expect("stdout nonblock");
    // Raw-fd I/O instead of Stdin/Stdout: libstd's stdout LineWriter would
    // buffer bytes where the transport's readiness accounting cannot see them.
    let transport = recon_protocol::StreamTransport::new(RawFdIo::stdin(), RawFdIo::stdout());
    let mut endpoint = Endpoint::new(transport);
    register_bob(&mut endpoint);

    let mut remaining: Vec<SessionId> = ALL_SESSIONS.to_vec();
    drive_endpoint(&mut endpoint, &reactor_config(), |endpoint| {
        remaining.retain(|&id| !take_bob_outcome(endpoint, id));
        Ok(remaining.is_empty())
    })
    .expect("bob reactor drive");
    eprintln!("[bob]   all {} sessions done over one pipe (readiness-driven)", ALL_SESSIONS.len());
}

/// The parent process: Alice's endpoint over the child's pipes, readiness-driven.
fn run_alice() {
    let exe = std::env::current_exe().expect("own path");
    let mut child = Command::new(exe)
        .arg("--bob")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn Bob process");
    let to_bob = child.stdin.take().expect("child stdin");
    let from_bob = child.stdout.take().expect("child stdout");
    set_nonblocking(to_bob.as_raw_fd()).expect("child stdin nonblock");
    set_nonblocking(from_bob.as_raw_fd()).expect("child stdout nonblock");
    let mut endpoint = Endpoint::new(recon_protocol::StreamTransport::new(from_bob, to_bob));
    register_alice(&mut endpoint);

    let mut stats: Vec<CommStats> = Vec::new();
    let mut harvest = |endpoint: &mut Endpoint<_>| {
        for id in ALL_SESSIONS {
            if endpoint.is_finished(id) == Some(true) {
                let session_stats = endpoint.close(id).expect("registered");
                eprintln!("[alice] session {id} finished: {session_stats}");
                stats.push(session_stats);
            }
        }
        Ok(stats.len() == ALL_SESSIONS.len())
    };
    if let Err(e) = drive_endpoint(&mut endpoint, &reactor_config(), &mut harvest) {
        // Bob exits the moment his outcomes are collected; our final Fin
        // replies hitting his closed stdin are expected shutdown skew. The
        // poll that wrote them returned the error before `harvest` saw the
        // sessions Bob's Fins finished in that same poll, so harvest once more.
        let finished = harvest(&mut endpoint);
        assert!(matches!(finished, Ok(true)), "transport failed mid-protocol: {e}");
    }

    let status = child.wait().expect("wait for Bob");
    assert!(status.success(), "Bob must exit cleanly");
    let framed = endpoint.transport().bytes_framed_out() + endpoint.transport().bytes_framed_in();
    println!(
        "multiplexed two-process reconciliation complete: 3 mixed-family sessions, \
         {} metered protocol bytes inside {framed} framed bytes on one pipe, \
         zero sleeps (poll(2) readiness)",
        stats.iter().map(|s| s.total_bytes()).sum::<usize>()
    );
}

fn main() {
    let mut args = std::env::args();
    let _ = args.next();
    match args.next().as_deref() {
        Some("--bob") => run_bob(),
        _ => run_alice(),
    }
}
