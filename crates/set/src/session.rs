//! Sans-I/O [`Party`] implementations of the plain-set protocols.
//!
//! Each factory builds *one side* of a protocol from that party's own data plus
//! the shared [`SessionConfig`] (public-coin seed, amplification policy,
//! estimator shape); `SessionBuilder::run` drives a pair in memory and reports
//! the exact bytes and rounds the paper accounts for.

use crate::charpoly_protocol::CharPolyProtocol;
use crate::iblt_protocol::{IbltSetProtocol, SetDigest};
use recon_base::rng::split_seed;
use recon_base::ReconError;
use recon_estimator::L0Config;
use recon_protocol::{
    doubled_bound, estimator_preamble, merged_estimate, AmplifiedReceiver, AmplifiedSender,
    Deferred, Envelope, Exhaust, Party, SessionConfig,
};
use std::collections::HashSet;

/// Envelope tag: an IBLT or characteristic-polynomial set digest.
pub const TAG_DIGEST: u16 = 0x5E01;
/// Envelope tag: a retry request (control, uncharged).
pub const TAG_RETRY: u16 = 0x5E02;
/// Envelope tag: the ℓ0 difference estimator of Corollary 3.2.
pub const TAG_ESTIMATOR: u16 = 0x5E03;

fn retryable_iblt_failure(error: &ReconError) -> bool {
    matches!(error, ReconError::PeelingFailure { .. } | ReconError::ChecksumFailure)
}

fn control_retry(_attempt: u64) -> Envelope {
    Envelope::control(TAG_RETRY, "retry request", &())
}

/// Corollary 2.2's attempt chain: attempt `k` runs under fresh hash
/// functions derived from the session seed. Both parties, and the store
/// daemon's cached Alice, take every attempt's protocol from here.
pub fn iblt_known_protocol(seed: u64, attempt: u64) -> IbltSetProtocol {
    IbltSetProtocol::tuned(split_seed(seed, 0x2E0 + attempt))
}

/// The envelope that carries attempt `attempt`'s digest of Corollary 2.2.
pub fn iblt_known_envelope(attempt: u64, digest: &SetDigest) -> Envelope {
    let label = if attempt == 0 { "set digest (IBLT)" } else { "set digest (replica)" };
    Envelope::round(TAG_DIGEST, label, digest)
}

/// Alice's side of Corollary 2.2 (one-round IBLT set reconciliation, known `d`),
/// with replication-based amplification per the shared config.
pub fn iblt_known_alice(
    set: &HashSet<u64>,
    d: usize,
    config: &SessionConfig,
) -> Result<impl Party<Output = ()>, ReconError> {
    let set = set.clone();
    let seed = config.seed;
    AmplifiedSender::new(config.amplification.max_attempts, move |attempt| {
        let digest = iblt_known_protocol(seed, attempt).digest(&set, d);
        Ok(iblt_known_envelope(attempt, &digest))
    })
}

/// Bob's side of Corollary 2.2: decodes each digest against his set, requesting
/// a replica on detectable failures.
pub fn iblt_known_bob(
    set: &HashSet<u64>,
    config: &SessionConfig,
) -> impl Party<Output = HashSet<u64>> {
    let set = set.clone();
    let seed = config.seed;
    AmplifiedReceiver::new(
        config.amplification.max_attempts,
        move |attempt, envelope: Envelope| {
            let digest = envelope.decode_payload()?;
            iblt_known_protocol(seed, attempt).reconcile(&digest, &set)
        },
        retryable_iblt_failure,
        control_retry,
        Exhaust::LastError,
    )
}

/// Alice's side of Theorem 2.3 (one-round exact reconciliation via
/// characteristic polynomials). Exact protocols need no amplification.
pub fn charpoly_known_alice(
    set: &HashSet<u64>,
    d: usize,
    config: &SessionConfig,
) -> Result<impl Party<Output = ()>, ReconError> {
    let protocol = CharPolyProtocol::new(config.seed);
    let digest = protocol.digest(set, d)?;
    AmplifiedSender::new(1, move |_| {
        Ok(Envelope::round(TAG_DIGEST, "characteristic polynomial evaluations", &digest))
    })
}

/// Bob's side of Theorem 2.3.
pub fn charpoly_known_bob(
    set: &HashSet<u64>,
    config: &SessionConfig,
) -> impl Party<Output = HashSet<u64>> {
    let set = set.clone();
    let protocol = CharPolyProtocol::new(config.seed);
    AmplifiedReceiver::new(
        1,
        move |_, envelope: Envelope| {
            let digest = envelope.decode_payload()?;
            protocol.reconcile(&digest, &set)
        },
        |_| false,
        control_retry,
        Exhaust::LastError,
    )
}

/// Corollary 3.2's agreement: the estimator both parties build, and the one
/// digest protocol every attempt runs (only the bound doubles).
fn unknown_agreement(config: &SessionConfig) -> (L0Config, IbltSetProtocol) {
    let estimator = config.estimator.with_seed(split_seed(config.seed, 0xE57));
    (estimator, IbltSetProtocol::tuned(split_seed(config.seed, 0x5E71)))
}

/// Alice's side of Corollary 3.2 (two-round reconciliation, unknown `d`): she
/// waits for Bob's ℓ0 estimator, merges in her own elements, and sizes an
/// amplified IBLT digest from the estimate (doubling the bound on each retry).
pub fn unknown_alice(set: &HashSet<u64>, config: &SessionConfig) -> impl Party<Output = ()> {
    let set = set.clone();
    let (estimator, protocol) = unknown_agreement(config);
    let max_attempts = config.amplification.max_attempts;
    Deferred::new(move |envelope: Envelope| {
        let estimate = merged_estimate(&estimator, set.iter().copied(), &envelope)?;
        AmplifiedSender::new(max_attempts, move |attempt| {
            // Constant-factor headroom over the estimate (twice it, at least
            // 8); retries double the bound.
            let digest = protocol.try_digest(&set, doubled_bound(estimate.max(4), attempt + 1)?)?;
            let label = if attempt == 0 { "set digest (IBLT)" } else { "set digest (retry)" };
            Ok(Envelope::round(TAG_DIGEST, label, &digest))
        })
    })
}

/// Bob's side of Corollary 3.2: sends his estimator first, then decodes digests.
pub fn unknown_bob(
    set: &HashSet<u64>,
    config: &SessionConfig,
) -> impl Party<Output = HashSet<u64>> {
    let (estimator, protocol) = unknown_agreement(config);
    let keys = set.iter().copied();
    let set = set.clone();
    let receiver = AmplifiedReceiver::new(
        config.amplification.max_attempts,
        move |_, envelope: Envelope| {
            let digest = envelope.decode_payload()?;
            protocol.reconcile(&digest, &set)
        },
        retryable_iblt_failure,
        control_retry,
        Exhaust::RetriesExhausted,
    );
    estimator_preamble(&estimator, keys, TAG_ESTIMATOR, "l0 difference estimator", receiver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_base::rng::Xoshiro256;
    use recon_protocol::{Amplification, SessionBuilder};

    fn random_sets(n: usize, d: usize, seed: u64) -> (HashSet<u64>, HashSet<u64>) {
        let mut rng = Xoshiro256::new(seed);
        let mut alice: HashSet<u64> = (0..n).map(|_| rng.next_below(1 << 50)).collect();
        let mut bob = alice.clone();
        for _ in 0..d / 2 {
            alice.insert(rng.next_below(1 << 50));
        }
        for _ in 0..(d - d / 2) {
            bob.insert(rng.next_below(1 << 50));
        }
        (alice, bob)
    }

    #[test]
    fn session_driven_iblt_pair_recovers() {
        let (alice, bob) = random_sets(500, 12, 3);
        let builder = SessionBuilder::new(9).amplification(Amplification::replicate(3));
        let outcome = builder
            .run(
                iblt_known_alice(&alice, 16, builder.config()).unwrap(),
                iblt_known_bob(&bob, builder.config()),
            )
            .unwrap();
        assert_eq!(outcome.recovered, alice);
        assert_eq!(outcome.stats.rounds, 1);
        assert_eq!(outcome.stats.bytes_bob_to_alice, 0);
    }

    #[test]
    fn session_driven_unknown_pair_recovers() {
        // A typical difference, none at all, and 800 keys out of 5 000.
        for (n, d, data_seed, seed) in [(800, 24, 4, 11), (1000, 0, 5, 3), (5000, 800, 6, 13)] {
            let (alice, bob) = random_sets(n, d, data_seed);
            let builder = SessionBuilder::new(seed).amplification(Amplification::replicate(6));
            let outcome = builder
                .run(unknown_alice(&alice, builder.config()), unknown_bob(&bob, builder.config()))
                .unwrap();
            assert_eq!(outcome.recovered, alice, "n = {n}, d = {d}");
            assert!(outcome.stats.rounds >= 2);
            assert!(outcome.stats.bytes_bob_to_alice > 0, "the estimator is transmitted");
        }
    }

    #[test]
    fn a_hostile_estimator_fails_alice_instead_of_aborting_her() {
        // Every counter byte after the 12-byte header set to 0x55: the merged
        // estimate reads 96·2⁴⁸, a digest the allocator cannot provide.
        let (alice, bob) = random_sets(300, 8, 7);
        let builder = SessionBuilder::new(21);
        let mut estimator =
            unknown_bob(&bob, builder.config()).poll_send().expect("estimator first");
        estimator.payload[12..].fill(0x55);
        match unknown_alice(&alice, builder.config()).handle(estimator) {
            Err(error @ ReconError::ResourceExhausted { .. }) => assert!(!error.is_retryable()),
            Err(error) => panic!("expected ResourceExhausted, got {error}"),
            Ok(_) => panic!("expected ResourceExhausted, got a digest"),
        }
    }
}
