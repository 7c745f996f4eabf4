//! Surviving a hostile network: seeded fault injection, checked frames, and
//! retry-until-reconciled.
//!
//! Run with: `cargo run -p recon-examples --release --example hostile_network`
//!
//! Two endpoints reconcile a set difference through a [`FaultyTransport`]
//! that drops frames, duplicates them, flips bits, and reorders deliveries —
//! all driven by a **fixed seed**, so every run of this example meets exactly
//! the same mishaps. Both sides negotiate the keyed checksum trailer
//! ([`Endpoint::offer_integrity`]), so a flipped bit surfaces as a structured
//! [`ReconError::ChecksumMismatch`] instead of silent corruption, and a plain
//! loop re-runs failed attempts under fresh fault seeds until the
//! reconciliation lands (at most 16 attempts). The loop continues only while
//! [`ReconError::is_retryable`] holds — no error-message matching.

use recon_base::rng::split_seed;
use recon_base::ReconError;
use recon_protocol::{
    drive_pair, Amplification, Endpoint, FaultProfile, FaultyTransport, MemoryTransport, Role,
    SessionBuilder, Transport,
};
use recon_set::session;
use std::collections::HashSet;

const SHARED_SEED: u64 = 0xBAD_5EA;
const INTEGRITY_KEY: u64 = 0x0C1E_0C1E;
const MAX_ATTEMPTS: u32 = 16;

fn alice_set() -> HashSet<u64> {
    (0..1_000u64).map(|x| x * 7 + 1).collect()
}

fn bob_set() -> HashSet<u64> {
    // Bob is missing 8 of Alice's elements and has 8 extras of his own.
    let mut set: HashSet<u64> = alice_set().into_iter().filter(|x| x % 125 != 3).collect();
    set.extend((0..8u64).map(|x| 1_000_000 + x));
    set
}

fn main() {
    // A genuinely nasty profile: 10% drops, 5% duplicates, 10% bit flips,
    // 20% cross-session reorders, one tick of latency on everything.
    let profile = FaultProfile {
        drop: 0.10,
        duplicate: 0.05,
        bit_flip: 0.10,
        reorder: 0.20,
        latency_ticks: 1,
        ..FaultProfile::clean(SHARED_SEED)
    };
    let builder = SessionBuilder::new(SHARED_SEED).amplification(Amplification::replicate(4));

    println!("profile: {profile:?}");

    let mut wire_bytes = 0u64;
    let mut faults = 0u64;
    let mut run_attempt = |attempt: u32| -> Result<HashSet<u64>, ReconError> {
        // Each attempt gets a fresh connection under a fresh fault seed — the
        // same seed would meet the same mishaps and fail the same way forever.
        let (ta, tb) = MemoryTransport::pair();
        let mut alice_end = Endpoint::new(FaultyTransport::new(
            ta,
            profile.with_seed(split_seed(SHARED_SEED, 2 * u64::from(attempt))),
        ));
        let mut bob_end = Endpoint::new(FaultyTransport::new(
            tb,
            profile.with_seed(split_seed(SHARED_SEED, 2 * u64::from(attempt) + 1)),
        ));
        // Both sides offer the keyed trailer; the Hello handshake turns it on.
        alice_end.offer_integrity(INTEGRITY_KEY);
        bob_end.offer_integrity(INTEGRITY_KEY);

        alice_end
            .register(
                0,
                Role::Alice,
                session::iblt_known_alice(&alice_set(), 20, builder.config())?,
            )
            .expect("register alice");
        bob_end
            .register(0, Role::Bob, session::iblt_known_bob(&bob_set(), builder.config()))
            .expect("register bob");

        let result = drive_pair(&mut alice_end, &mut bob_end);
        for end in [&alice_end, &bob_end] {
            let stats = end.transport().fault_stats();
            faults += stats.dropped + stats.duplicated + stats.bit_flipped + stats.reordered;
            wire_bytes += end.transport().bytes_framed_out();
        }
        let stats = bob_end.transport().fault_stats();
        match &result {
            Ok(()) => println!("attempt {attempt}: completed   ({stats:?})"),
            Err(error) => println!("attempt {attempt}: {error}"),
        }
        result?;
        let outcome = bob_end.take_outcome::<HashSet<u64>>(0).expect("session finished")?;
        Ok(outcome.recovered)
    };
    let mut attempt = 0;
    let recovered = loop {
        match run_attempt(attempt) {
            Ok(recovered) => break recovered,
            Err(error) if error.is_retryable() && attempt + 1 < MAX_ATTEMPTS => attempt += 1,
            Err(error) => {
                panic!("reconciliation must eventually survive the fault profile: {error:?}")
            }
        }
    };
    let attempts = attempt + 1;

    assert_eq!(recovered, alice_set(), "Bob must recover Alice's set exactly");
    assert!(
        ReconError::ChecksumMismatch { expected: 0, got: 1 }.is_retryable(),
        "checksum mismatches are retryable by construction"
    );
    println!(
        "reconciled in {attempts} attempt(s): {} elements recovered, \
         {faults} faults injected, {wire_bytes} wire bytes total",
        recovered.len()
    );
}
