//! The nine-family equivalence suite under seeded hostile-network fault
//! profiles.
//!
//! Every test drives all nine protocol families (three plain-set, four
//! set-of-sets, graph, forest) concurrently over one framed in-memory byte
//! stream wrapped in a [`FaultyTransport`], with a **fixed seed** so each run
//! meets exactly the same mishaps. A failed attempt must surface as a
//! *structured retryable* error ([`ReconError::is_retryable`]) — the retry
//! loop below never inspects message strings — after which the finished
//! sessions are harvested and only the unfinished families are re-registered
//! on a fresh connection under a fresh per-attempt fault seed (the same seed
//! would meet the same faults and fail identically forever).
//!
//! The clean profile doubles as a regression anchor: a wrapped run with no
//! faults must complete in one attempt with per-session `CommStats`
//! byte-identical to the solo `SessionBuilder` runs.

use recon_base::comm::CommStats;
use recon_base::rng::{split_seed, Xoshiro256};

use recon_graph::degree_order::DegreeOrderParams;
use recon_graph::{forest, session as graph_session, Forest, Graph};
use recon_protocol::{
    drive_pair, Amplification, Endpoint, FaultProfile, FaultyTransport, MemoryTransport, Role,
    SessionBuilder, Transport,
};
use recon_set::session as set_session;
use recon_sos::workload::{generate_pair, WorkloadParams};
use recon_sos::{session as sos_session, SetOfSets, SosParams};
use std::collections::HashSet;

const SEED: u64 = 0x00FA_0175;
const INTEGRITY_KEY: u64 = 0x1D10_0C1E;
const MAX_ATTEMPTS: u32 = 15;
const FAMILIES: usize = 9;

/// Shared inputs and per-family session parameters, fixed for the whole test
/// so every attempt registers byte-identical parties.
struct Workload {
    set_a: HashSet<u64>,
    set_b: HashSet<u64>,
    iblt: SessionBuilder,
    charpoly: SessionBuilder,
    unknown: SessionBuilder,
    sos_a: SetOfSets,
    sos_b: SetOfSets,
    sos_params: SosParams,
    sos_d: usize,
    sos_amp: Amplification,
    graph: Graph,
    graph_params: DegreeOrderParams,
    forest_alice: Forest,
    forest_base: Forest,
    forest_seed: u64,
    forest_resolved: SosParams,
}

impl Workload {
    fn new(seed: u64) -> Self {
        let mut rng = Xoshiro256::new(seed);
        let mut set_a: HashSet<u64> = (0..300).map(|_| rng.next_below(1 << 48)).collect();
        let mut set_b = set_a.clone();
        for _ in 0..8 {
            set_a.insert(rng.next_below(1 << 48));
            set_b.insert(rng.next_below(1 << 48));
        }

        let workload = WorkloadParams::new(30, 8, 1 << 28);
        let sos_d = 4;
        let (sos_a, sos_b) = generate_pair(&workload, sos_d, seed ^ 4);
        let sos_params = SosParams::new(seed ^ 5, workload.max_child_size);

        let mut graph_rng = Xoshiro256::new(seed ^ 6);
        let graph = Graph::gnp(120, 0.25, &mut graph_rng);

        let mut forest_rng = Xoshiro256::new(seed ^ 8);
        let forest_base = Forest::random(150, 0.1, 5, &mut forest_rng);
        let forest_alice = forest_base.perturb(2, &mut forest_rng);
        let forest_seed = 761u64;
        let forest_resolved =
            forest::agreed_params(&forest_alice, &forest_base, forest_seed).unwrap();

        Self {
            set_a,
            set_b,
            iblt: SessionBuilder::new(seed ^ 1).amplification(Amplification::replicate(3)),
            charpoly: SessionBuilder::new(seed ^ 2).amplification(Amplification::single()),
            unknown: SessionBuilder::new(seed ^ 3).amplification(Amplification::replicate(6)),
            sos_a,
            sos_b,
            sos_params,
            sos_d,
            sos_amp: Amplification::replicate(4),
            graph,
            graph_params: DegreeOrderParams { h: 48, seed: seed ^ 7 },
            forest_alice,
            forest_base,
            forest_seed,
            forest_resolved,
        }
    }

    /// Expected per-family stats from the solo in-memory path (one
    /// `SessionBuilder::run` each) — the equivalence baseline.
    fn expected(&self) -> Vec<CommStats> {
        let mut expected = Vec::with_capacity(FAMILIES);
        expected.push(
            self.iblt
                .run(
                    set_session::iblt_known_alice(&self.set_a, 20, self.iblt.config()).unwrap(),
                    set_session::iblt_known_bob(&self.set_b, self.iblt.config()),
                )
                .unwrap()
                .stats,
        );
        expected.push(
            self.charpoly
                .run(
                    set_session::charpoly_known_alice(&self.set_a, 20, self.charpoly.config())
                        .unwrap(),
                    set_session::charpoly_known_bob(&self.set_b, self.charpoly.config()),
                )
                .unwrap()
                .stats,
        );
        expected.push(
            self.unknown
                .run(
                    set_session::unknown_alice(&self.set_a, self.unknown.config()),
                    set_session::unknown_bob(&self.set_b, self.unknown.config()),
                )
                .unwrap()
                .stats,
        );
        let p = &self.sos_params;
        let (d, amp) = (self.sos_d, self.sos_amp);
        expected.push(
            SessionBuilder::new(p.seed)
                .run(
                    sos_session::naive_known_alice(&self.sos_a, d, p, amp).unwrap(),
                    sos_session::naive_known_bob(&self.sos_b, p, amp),
                )
                .unwrap()
                .stats,
        );
        expected.push(
            SessionBuilder::new(p.seed)
                .run(
                    sos_session::ioi_known_alice(&self.sos_a, d, d, p, amp).unwrap(),
                    sos_session::ioi_known_bob(&self.sos_b, p, amp),
                )
                .unwrap()
                .stats,
        );
        expected.push(
            SessionBuilder::new(p.seed)
                .run(
                    sos_session::cascading_known_alice(&self.sos_a, d, p, amp).unwrap(),
                    sos_session::cascading_known_bob(&self.sos_b, p, amp),
                )
                .unwrap()
                .stats,
        );
        expected.push(
            SessionBuilder::new(p.seed)
                .run(
                    sos_session::multiround_known_alice(&self.sos_a, d, d, p).unwrap(),
                    sos_session::multiround_known_bob(&self.sos_b, p),
                )
                .unwrap()
                .stats,
        );
        expected.push(
            SessionBuilder::new(self.graph_params.seed)
                .run(
                    graph_session::degree_order_alice(&self.graph, 4, &self.graph_params).unwrap(),
                    graph_session::degree_order_bob(&self.graph, 4, &self.graph_params).unwrap(),
                )
                .unwrap()
                .stats,
        );
        let (seed, agreed) = (self.forest_seed, &self.forest_resolved);
        expected.push(
            SessionBuilder::new(seed)
                .run(
                    graph_session::forest_alice(&self.forest_alice, 4, 6, seed, agreed).unwrap(),
                    graph_session::forest_bob(&self.forest_base, seed, agreed).unwrap(),
                )
                .unwrap()
                .stats,
        );
        expected
    }
}

/// Register family `family` (fresh parties) under session id `family` on both
/// endpoints.
fn register_family<T: Transport>(
    w: &Workload,
    family: usize,
    alice_end: &mut Endpoint<T>,
    bob_end: &mut Endpoint<T>,
) {
    let id = family as u64;
    let p = &w.sos_params;
    let (d, amp) = (w.sos_d, w.sos_amp);
    match family {
        0 => {
            alice_end
                .register(
                    id,
                    Role::Alice,
                    set_session::iblt_known_alice(&w.set_a, 20, w.iblt.config()).unwrap(),
                )
                .unwrap();
            bob_end
                .register(id, Role::Bob, set_session::iblt_known_bob(&w.set_b, w.iblt.config()))
                .unwrap();
        }
        1 => {
            alice_end
                .register(
                    id,
                    Role::Alice,
                    set_session::charpoly_known_alice(&w.set_a, 20, w.charpoly.config()).unwrap(),
                )
                .unwrap();
            bob_end
                .register(
                    id,
                    Role::Bob,
                    set_session::charpoly_known_bob(&w.set_b, w.charpoly.config()),
                )
                .unwrap();
        }
        2 => {
            alice_end
                .register(id, Role::Alice, set_session::unknown_alice(&w.set_a, w.unknown.config()))
                .unwrap();
            bob_end
                .register(id, Role::Bob, set_session::unknown_bob(&w.set_b, w.unknown.config()))
                .unwrap();
        }
        3 => {
            alice_end
                .register(
                    id,
                    Role::Alice,
                    sos_session::naive_known_alice(&w.sos_a, d, p, amp).unwrap(),
                )
                .unwrap();
            bob_end
                .register(id, Role::Bob, sos_session::naive_known_bob(&w.sos_b, p, amp))
                .unwrap();
        }
        4 => {
            alice_end
                .register(
                    id,
                    Role::Alice,
                    sos_session::ioi_known_alice(&w.sos_a, d, d, p, amp).unwrap(),
                )
                .unwrap();
            bob_end.register(id, Role::Bob, sos_session::ioi_known_bob(&w.sos_b, p, amp)).unwrap();
        }
        5 => {
            alice_end
                .register(
                    id,
                    Role::Alice,
                    sos_session::cascading_known_alice(&w.sos_a, d, p, amp).unwrap(),
                )
                .unwrap();
            bob_end
                .register(id, Role::Bob, sos_session::cascading_known_bob(&w.sos_b, p, amp))
                .unwrap();
        }
        6 => {
            alice_end
                .register(
                    id,
                    Role::Alice,
                    sos_session::multiround_known_alice(&w.sos_a, d, d, p).unwrap(),
                )
                .unwrap();
            bob_end
                .register(id, Role::Bob, sos_session::multiround_known_bob(&w.sos_b, p))
                .unwrap();
        }
        7 => {
            alice_end
                .register(
                    id,
                    Role::Alice,
                    graph_session::degree_order_alice(&w.graph, 4, &w.graph_params).unwrap(),
                )
                .unwrap();
            bob_end
                .register(
                    id,
                    Role::Bob,
                    graph_session::degree_order_bob(&w.graph, 4, &w.graph_params).unwrap(),
                )
                .unwrap();
        }
        _ => {
            alice_end
                .register(
                    id,
                    Role::Alice,
                    graph_session::forest_alice(
                        &w.forest_alice,
                        4,
                        6,
                        w.forest_seed,
                        &w.forest_resolved,
                    )
                    .unwrap(),
                )
                .unwrap();
            bob_end
                .register(
                    id,
                    Role::Bob,
                    graph_session::forest_bob(&w.forest_base, w.forest_seed, &w.forest_resolved)
                        .unwrap(),
                )
                .unwrap();
        }
    }
}

/// Harvest family `family` from Bob's endpoint if it finished: verify the
/// recovered data and return its stats. An `Err` outcome (a session the
/// faults killed) retires the slot and reports the family as still pending.
fn harvest_family<T: Transport>(
    w: &Workload,
    family: usize,
    bob_end: &mut Endpoint<T>,
) -> Option<CommStats> {
    let id = family as u64;
    match family {
        0..=2 => match bob_end.take_outcome::<HashSet<u64>>(id)? {
            Ok(outcome) => {
                assert_eq!(outcome.recovered, w.set_a, "family {family} recovered wrong data");
                Some(outcome.stats)
            }
            Err(_) => None,
        },
        3..=6 => match bob_end.take_outcome::<SetOfSets>(id)? {
            Ok(outcome) => {
                assert_eq!(outcome.recovered, w.sos_a, "family {family} recovered wrong data");
                Some(outcome.stats)
            }
            Err(_) => None,
        },
        7 => match bob_end.take_outcome::<Graph>(id)? {
            Ok(outcome) => Some(outcome.stats),
            Err(_) => None,
        },
        _ => match bob_end.take_outcome::<Forest>(id)? {
            Ok(outcome) => Some(outcome.stats),
            Err(_) => None,
        },
    }
}

/// What one suite run under a profile produced.
struct SuiteReport {
    attempts: u32,
    /// Framed bytes both sides actually put on the wire, summed over attempts
    /// (faulted frames included) — the retry-overhead measure.
    wire_bytes: u64,
    /// Per-family stats of the successful attempt.
    per_family: Vec<CommStats>,
    /// Total fault-injector drops/flips/dups across all attempts.
    faults_fired: u64,
}

/// Run the nine-family suite to completion under `profile`, retrying failed
/// attempts with a fresh per-attempt fault seed. Retries are driven *only* by
/// [`ReconError::is_retryable`] — any non-retryable failure panics.
fn run_suite_under(profile: FaultProfile, checksums: bool) -> SuiteReport {
    let w = Workload::new(SEED);
    let mut done: Vec<Option<CommStats>> = vec![None; FAMILIES];
    let mut wire_bytes = 0u64;
    let mut faults_fired = 0u64;
    let mut attempts = 0u32;

    while done.iter().any(Option::is_none) {
        assert!(
            attempts < MAX_ATTEMPTS,
            "suite did not converge in {MAX_ATTEMPTS} attempts under {profile:?}; \
             pending: {:?}",
            done.iter()
                .enumerate()
                .filter(|(_, d)| d.is_none())
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        );
        let (ta, tb) = MemoryTransport::pair();
        let mut alice_end = Endpoint::new(FaultyTransport::new(
            ta,
            profile.with_seed(split_seed(profile.seed, 2 * attempts as u64)),
        ));
        let mut bob_end = Endpoint::new(FaultyTransport::new(
            tb,
            profile.with_seed(split_seed(profile.seed, 2 * attempts as u64 + 1)),
        ));
        if checksums {
            alice_end.offer_integrity(INTEGRITY_KEY);
            bob_end.offer_integrity(INTEGRITY_KEY);
        }
        for (family, slot) in done.iter().enumerate() {
            if slot.is_none() {
                register_family(&w, family, &mut alice_end, &mut bob_end);
            }
        }
        let result = drive_pair(&mut alice_end, &mut bob_end);
        attempts += 1;
        wire_bytes += alice_end.transport().bytes_framed_out();
        wire_bytes += bob_end.transport().bytes_framed_out();
        for stats in [alice_end.transport().fault_stats(), bob_end.transport().fault_stats()] {
            faults_fired += stats.dropped + stats.bit_flipped + stats.duplicated;
        }
        if let Err(error) = result {
            assert!(error.is_retryable(), "a fault surfaced as a NON-retryable error: {error:?}");
        }
        // Harvest whatever finished before the failure (resume semantics:
        // completed families are never re-run).
        for (family, slot) in done.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = harvest_family(&w, family, &mut bob_end);
            }
        }
    }

    SuiteReport {
        attempts,
        wire_bytes,
        per_family: done.into_iter().map(Option::unwrap).collect(),
        faults_fired,
    }
}

/// A clean (fault-free) wrapped run is the identity: one attempt, and every
/// family's `CommStats` byte-identical to its solo `SessionBuilder` twin —
/// the `FaultyTransport` wrapper itself costs nothing.
#[test]
fn clean_profile_run_is_byte_identical_to_the_bare_suite() {
    let expected = Workload::new(SEED).expected();
    let report = run_suite_under(FaultProfile::clean(SEED), false);
    assert_eq!(report.attempts, 1, "clean run must not retry");
    assert_eq!(report.faults_fired, 0);
    assert_eq!(report.per_family, expected, "clean wrapped run must match the solo runs");
}

/// Checksum negotiation without faults is also invisible to the accounting:
/// the trailer bytes ride outside the envelope metering.
#[test]
fn clean_profile_with_checksums_preserves_all_stats() {
    let expected = Workload::new(SEED).expected();
    let report = run_suite_under(FaultProfile::clean(SEED), true);
    assert_eq!(report.attempts, 1);
    assert_eq!(report.per_family, expected);
    eprintln!("clean+checksums: {} wire bytes", report.wire_bytes);
}

/// Dropped frames stall sessions into [`ReconError::SessionStuck`]; the retry
/// loop re-runs only the unfinished families and everything eventually
/// completes with correct outcomes. The wire-byte total quantifies what the
/// hostile network cost.
#[test]
fn drop_profile_completes_with_retries() {
    // The whole suite is only a few dozen frames, so the per-frame drop
    // probability is sized up to make mishaps certain, not merely possible.
    let clean = run_suite_under(FaultProfile::clean(SEED), false);
    let report = run_suite_under(FaultProfile::drop_only(SEED, 0.15), false);
    assert!(report.attempts > 1, "drop profile was expected to force at least one retry");
    assert!(report.faults_fired > 0, "no frame was ever dropped");
    assert!(
        report.wire_bytes > clean.wire_bytes,
        "retries must cost wire bytes: {} vs clean {}",
        report.wire_bytes,
        clean.wire_bytes
    );
    eprintln!(
        "drop profile: {} attempts, {} wire bytes ({} clean), {} faults",
        report.attempts, report.wire_bytes, clean.wire_bytes, report.faults_fired
    );
}

/// Cross-session reordering alone never breaks a session (per-session FIFO is
/// preserved by construction), so the suite completes in one attempt with
/// byte-identical stats.
#[test]
fn reorder_profile_completes_first_try_with_identical_stats() {
    let expected = Workload::new(SEED).expected();
    let report = run_suite_under(FaultProfile::reorder_only(SEED, 0.25), false);
    assert_eq!(report.attempts, 1, "reordering alone must not fail a session");
    assert_eq!(report.per_family, expected);
}

/// With integrity negotiated, bit flips surface as structured
/// [`ReconError::ChecksumMismatch`] (retryable) instead of silent corruption,
/// and the suite recovers by re-running the damaged attempt.
#[test]
fn bit_flip_profile_with_checksums_completes_with_retries() {
    let report = run_suite_under(FaultProfile::bit_flip_only(SEED, 0.08), true);
    assert!(report.faults_fired > 0, "no bit was ever flipped");
    assert!(report.attempts >= 1);
    eprintln!(
        "bit-flip profile: {} attempts, {} wire bytes, {} faults",
        report.attempts, report.wire_bytes, report.faults_fired
    );
}

/// Everything at once: drops, duplicates, bit flips (checksummed), reordering
/// and latency. Outcomes must still be correct for all nine families.
#[test]
fn combined_profile_completes_under_checksums() {
    // `combined()` scaled up for this suite's small frame count.
    let profile = FaultProfile {
        drop: 0.08,
        duplicate: 0.08,
        bit_flip: 0.08,
        reorder: 0.2,
        ..FaultProfile::combined(SEED)
    };
    let report = run_suite_under(profile, true);
    assert!(report.faults_fired > 0);
    eprintln!(
        "combined profile: {} attempts, {} wire bytes, {} faults",
        report.attempts, report.wire_bytes, report.faults_fired
    );
}
