//! Transport-equivalence tests for the sans-I/O session layer.
//!
//! Every protocol family is driven two ways: through `SessionBuilder::run`, which
//! records each envelope into a transcript by its meter, and *manually*, message
//! by message, with each [`Envelope`] serialized to bytes, decoded on the far
//! side — the way two separate processes would exchange them — and metered by an
//! independent copy of the rule. The recovered data and the measured
//! [`CommStats`] must agree byte for byte: the accounting is a property of the
//! protocol, not of the transport. The framed `Endpoint` path is then held to
//! the same `SessionBuilder::run` baseline.

use proptest::prelude::*;
use recon_base::comm::{CommStats, Direction, Transcript};
use recon_base::rng::Xoshiro256;
use recon_base::wire::{Decode, Encode};
use recon_base::ReconError;
use recon_estimator::L0Config;
use recon_protocol::{
    drive_pair, Amplification, Endpoint, Envelope, MemoryTransport, Meter, Outcome, Party, Role,
    SessionBuilder, SessionConfig, Step,
};
use recon_set::session as set_session;
use recon_sos::workload::{generate_pair, WorkloadParams};
use recon_sos::{session as sos_session, SetOfSets, SosParams};
use std::collections::HashSet;
use std::fmt::Debug;

/// Drive a party pair by hand, pushing every envelope through a serialize →
/// deserialize round trip, and account for it the way `Envelope::record_into`
/// does.
fn drive_over_bytes<A: Party, B: Party>(
    mut alice: A,
    mut bob: B,
) -> Result<(B::Output, CommStats), ReconError> {
    // Deliberately an *independent* reimplementation of `Envelope::record_into`
    // rather than a call into it: `SessionBuilder::run` already meters through
    // it, so reusing it here would make the accounting comparison tautological.
    // If the Meter rules change in one place and not the other, these tests
    // fail loudly instead of agreeing by construction.
    fn record(transcript: &mut Transcript, direction: Direction, envelope: &Envelope) {
        match envelope.meter {
            Meter::Round => {
                transcript.record_bytes(direction, &envelope.label, envelope.payload.len());
            }
            Meter::Parallel => {
                transcript.record_parallel_bytes(
                    direction,
                    &envelope.label,
                    envelope.payload.len(),
                );
            }
            Meter::Explicit { bytes, parallel } => {
                if parallel {
                    transcript.record_parallel_bytes(direction, &envelope.label, bytes as usize);
                } else {
                    transcript.record_bytes(direction, &envelope.label, bytes as usize);
                }
            }
            Meter::Control => {}
        }
    }

    let mut transcript = Transcript::new();
    loop {
        let mut progressed = false;
        while let Some(envelope) = alice.poll_send() {
            progressed = true;
            let wire_bytes = envelope.to_bytes();
            let envelope = Envelope::from_bytes(&wire_bytes).expect("envelope wire roundtrip");
            record(&mut transcript, Direction::AliceToBob, &envelope);
            if let Step::Done(output) = bob.handle(envelope)? {
                return Ok((output, transcript.stats()));
            }
        }
        while let Some(envelope) = bob.poll_send() {
            progressed = true;
            let wire_bytes = envelope.to_bytes();
            let envelope = Envelope::from_bytes(&wire_bytes).expect("envelope wire roundtrip");
            record(&mut transcript, Direction::BobToAlice, &envelope);
            alice.handle(envelope)?;
        }
        assert!(progressed, "party pair stalled");
    }
}

/// Run the pair `pair` builds from `builder`'s configuration through
/// `SessionBuilder::run` and, built afresh, through [`drive_over_bytes`]. Both
/// must end the same way — the same output and `CommStats`, or the same error;
/// the session's outcome is returned, if it has one.
fn session_matches_bytes<A: Party, B: Party>(
    builder: &SessionBuilder,
    pair: impl Fn(&SessionConfig) -> (A, B),
) -> Option<Outcome<B::Output>>
where
    B::Output: PartialEq + Debug,
{
    let (alice, bob) = pair(builder.config());
    let session = builder.run(alice, bob);
    let (alice, bob) = pair(builder.config());
    match (session, drive_over_bytes(alice, bob)) {
        (Ok(session), Ok((recovered, stats))) => {
            assert_eq!(recovered, session.recovered);
            assert_eq!(stats, session.stats);
            Some(session)
        }
        (Err(session), Err(bytes)) => {
            assert_eq!(session.to_string(), bytes.to_string(), "both runs must fail identically");
            None
        }
        (session, bytes) => panic!("the runs disagree: {session:?} against {bytes:?}"),
    }
}

/// Drive a single party pair through a *framed* in-memory transport: one
/// `Endpoint` per side, session-tagged frames on a shared byte stream — the
/// multiplexed path, degenerate case of one session. Returns Bob's output plus
/// the per-session stats both endpoints recorded.
fn drive_over_endpoint_pair<A, B>(
    alice: A,
    bob: B,
) -> Result<(B::Output, CommStats, CommStats), ReconError>
where
    A: Party + 'static,
    B: Party + 'static,
    B::Output: 'static,
{
    let (transport_a, transport_b) = MemoryTransport::pair();
    let mut alice_end = Endpoint::new(transport_a);
    let mut bob_end = Endpoint::new(transport_b);
    alice_end.register(0, Role::Alice, alice)?;
    bob_end.register(0, Role::Bob, bob)?;
    drive_pair(&mut alice_end, &mut bob_end)?;
    let outcome = bob_end.take_outcome::<B::Output>(0).expect("session finished")?;
    let alice_stats = alice_end.close(0).expect("session registered");
    Ok((outcome.recovered, outcome.stats, alice_stats))
}

fn random_set_pair(n: usize, d: usize, seed: u64) -> (HashSet<u64>, HashSet<u64>) {
    let mut rng = Xoshiro256::new(seed);
    let mut alice: HashSet<u64> = (0..n).map(|_| rng.next_below(1 << 48)).collect();
    let mut bob = alice.clone();
    for _ in 0..d / 2 {
        alice.insert(rng.next_below(1 << 48));
    }
    for _ in 0..(d - d / 2) {
        bob.insert(rng.next_below(1 << 48));
    }
    (alice, bob)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// IBLT set reconciliation (Cor 2.2): manual byte-level driving reproduces
    /// `SessionBuilder::run`'s output and CommStats exactly.
    #[test]
    fn set_iblt_known_matches_session(
        n in 50usize..400, d in 0usize..24, seed in any::<u64>()
    ) {
        let (alice, bob) = random_set_pair(n, d, seed);
        let bound = d.max(1) + 2;
        let builder = SessionBuilder::new(seed ^ 1).amplification(Amplification::replicate(3));
        session_matches_bytes(&builder, |config| (
            set_session::iblt_known_alice(&alice, bound, config).expect("alice"),
            set_session::iblt_known_bob(&bob, config),
        )).expect("session");
    }

    /// Characteristic-polynomial set reconciliation (Thm 2.3).
    #[test]
    fn set_charpoly_matches_session(
        n in 50usize..300, d in 0usize..16, seed in any::<u64>()
    ) {
        let (alice, bob) = random_set_pair(n, d, seed);
        let bound = d.max(1) + 2;
        let builder = SessionBuilder::new(seed ^ 2).amplification(Amplification::single());
        session_matches_bytes(&builder, |config| (
            set_session::charpoly_known_alice(&alice, bound, config).expect("alice"),
            set_session::charpoly_known_bob(&bob, config),
        )).expect("session");
    }

    /// Unknown-d set reconciliation (Cor 3.2), including the estimator round.
    #[test]
    fn set_unknown_matches_session(
        n in 100usize..500, d in 0usize..48, seed in any::<u64>()
    ) {
        let (alice, bob) = random_set_pair(n, d, seed);
        let builder = SessionBuilder::new(seed ^ 3).amplification(Amplification::replicate(6));
        session_matches_bytes(&builder, |config| (
            set_session::unknown_alice(&alice, config),
            set_session::unknown_bob(&bob, config),
        )).expect("session");
    }

    /// All four set-of-sets families, known-d variants.
    #[test]
    fn sos_known_families_match_sessions(seed in any::<u64>(), d in 1usize..8) {
        let workload = WorkloadParams::new(48, 12, 1 << 28);
        let (alice, bob) = generate_pair(&workload, d, seed);
        let params = SosParams::new(seed ^ 0x50, workload.max_child_size);
        let (p, builder) = (&params, SessionBuilder::new(params.seed));
        let (three, four) = (Amplification::replicate(3), Amplification::replicate(4));

        session_matches_bytes(&builder, |_| (
            sos_session::naive_known_alice(&alice, d, p, three).expect("alice"),
            sos_session::naive_known_bob(&bob, p, three),
        )).expect("naive session");
        session_matches_bytes(&builder, |_| (
            sos_session::ioi_known_alice(&alice, d, d, p, three).expect("alice"),
            sos_session::ioi_known_bob(&bob, p, three),
        )).expect("ioi session");
        session_matches_bytes(&builder, |_| (
            sos_session::cascading_known_alice(&alice, d, p, four).expect("alice"),
            sos_session::cascading_known_bob(&bob, p, four),
        )).expect("cascading session");
        // Theorem 3.9 has no amplification, so some random instances legitimately
        // fail with constant probability; the two runs must agree either way.
        session_matches_bytes(&builder, |_| (
            sos_session::multiround_known_alice(&alice, d, d, p).unwrap(),
            sos_session::multiround_known_bob(&bob, p),
        ));
    }

    /// All four set-of-sets families, unknown-d variants (estimator rounds and
    /// metered NACK doubling included).
    #[test]
    fn sos_unknown_families_match_sessions(seed in any::<u64>(), d in 1usize..6) {
        let workload = WorkloadParams::new(40, 10, 1 << 28);
        let (alice, bob) = generate_pair(&workload, d, seed);
        let params = SosParams::new(seed ^ 0x51, workload.max_child_size);
        let (p, builder) = (&params, SessionBuilder::new(params.seed));
        let (five, estimator) = (Amplification::replicate(5), L0Config::default());

        session_matches_bytes(&builder, |_| (
            sos_session::naive_unknown_alice(&alice, p, five, estimator),
            sos_session::naive_unknown_bob(&bob, p, five, estimator),
        )).expect("naive session");

        let max_possible = alice.total_elements() + bob.total_elements() + 2;
        let children_cap = alice.num_children().max(bob.num_children()).max(1);
        let doubling = Amplification::doubling(1, 2 * max_possible);
        session_matches_bytes(&builder, |_| (
            sos_session::ioi_unknown_alice(&alice, p, children_cap, doubling).expect("alice"),
            sos_session::ioi_unknown_bob(&bob, p, doubling),
        )).expect("ioi session");

        let doubling = Amplification::doubling(2, 2 * max_possible);
        session_matches_bytes(&builder, |_| (
            sos_session::cascading_unknown_alice(&alice, p, doubling).expect("alice"),
            sos_session::cascading_unknown_bob(&bob, p, doubling),
        )).expect("cascading session");

        session_matches_bytes(&builder, |_| (
            sos_session::multiround_unknown_alice(&alice, p, estimator),
            sos_session::multiround_unknown_bob(&bob, p, estimator),
        ));
    }
}

#[test]
fn degree_order_session_matches_session() {
    use recon_graph::degree_order::DegreeOrderParams;
    use recon_graph::{session as graph_session, Graph};

    let mut rng = Xoshiro256::new(17);
    let base = Graph::gnp(200, 0.35, &mut rng);
    let params = DegreeOrderParams { h: 48, seed: 91 };
    let outcome = session_matches_bytes(&SessionBuilder::new(params.seed), |_| {
        (
            graph_session::degree_order_alice(&base, 4, &params).expect("alice"),
            graph_session::degree_order_bob(&base, 4, &params).expect("bob"),
        )
    })
    .expect("session");
    assert_eq!(outcome.recovered.num_edges(), base.num_edges());
    assert_eq!(outcome.stats.rounds, 1, "charge + parallel edge digest share one round");
    assert_eq!(outcome.stats.messages, 2);
}

#[test]
fn forest_session_matches_session() {
    use recon_graph::forest::{self, Forest};
    use recon_graph::session as graph_session;

    let mut rng = Xoshiro256::new(23);
    let base = Forest::random(300, 0.1, 5, &mut rng);
    let alice = base.perturb(2, &mut rng);
    let seed = 501u64;
    let agreed = forest::agreed_params(&alice, &base, seed).expect("agreed params");
    let outcome = session_matches_bytes(&SessionBuilder::new(seed), |_| {
        (
            graph_session::forest_alice(&alice, 4, 6, seed, &agreed).expect("alice"),
            graph_session::forest_bob(&base, seed, &agreed).expect("bob"),
        )
    })
    .expect("session");
    assert!(outcome.recovered.is_isomorphic(&alice, seed));
    assert_eq!(outcome.stats.rounds, 1);
}

// ---------------------------------------------------------------------------
// Framed transport (Endpoint over MemoryTransport) vs SessionBuilder::run
// ---------------------------------------------------------------------------

/// Per family: the framed multiplexed path reports byte-identical `CommStats`
/// to `SessionBuilder::run`, on both endpoints.
#[test]
fn framed_transport_matches_session_builder_per_family() {
    let seed = 0xF4A3;

    // Set, known d (Cor 2.2).
    let (alice, bob) = random_set_pair(300, 14, seed);
    let builder = SessionBuilder::new(seed ^ 1).amplification(Amplification::replicate(3));
    let solo = builder
        .run(
            set_session::iblt_known_alice(&alice, 16, builder.config()).expect("alice"),
            set_session::iblt_known_bob(&bob, builder.config()),
        )
        .expect("solo run");
    let (recovered, bob_stats, alice_stats) = drive_over_endpoint_pair(
        set_session::iblt_known_alice(&alice, 16, builder.config()).expect("alice"),
        set_session::iblt_known_bob(&bob, builder.config()),
    )
    .expect("framed run");
    assert_eq!(recovered, solo.recovered);
    assert_eq!(bob_stats, solo.stats, "set/iblt-known");
    assert_eq!(alice_stats, solo.stats, "set/iblt-known alice side");

    // Set, characteristic polynomial (Thm 2.3).
    let builder = SessionBuilder::new(seed ^ 2).amplification(Amplification::single());
    let solo = builder
        .run(
            set_session::charpoly_known_alice(&alice, 16, builder.config()).expect("alice"),
            set_session::charpoly_known_bob(&bob, builder.config()),
        )
        .expect("solo run");
    let (recovered, bob_stats, alice_stats) = drive_over_endpoint_pair(
        set_session::charpoly_known_alice(&alice, 16, builder.config()).expect("alice"),
        set_session::charpoly_known_bob(&bob, builder.config()),
    )
    .expect("framed run");
    assert_eq!(recovered, solo.recovered);
    assert_eq!(bob_stats, solo.stats, "set/charpoly");
    assert_eq!(alice_stats, solo.stats);

    // Set, unknown d (Cor 3.2) — estimator round included.
    let builder = SessionBuilder::new(seed ^ 3).amplification(Amplification::replicate(6));
    let solo = builder
        .run(
            set_session::unknown_alice(&alice, builder.config()),
            set_session::unknown_bob(&bob, builder.config()),
        )
        .expect("solo run");
    let (recovered, bob_stats, alice_stats) = drive_over_endpoint_pair(
        set_session::unknown_alice(&alice, builder.config()),
        set_session::unknown_bob(&bob, builder.config()),
    )
    .expect("framed run");
    assert_eq!(recovered, solo.recovered);
    assert_eq!(bob_stats, solo.stats, "set/unknown");
    assert_eq!(alice_stats, solo.stats);

    // Sets of sets: all four families, known d.
    let workload = WorkloadParams::new(48, 12, 1 << 28);
    let d = 5;
    let (sos_alice, sos_bob) = generate_pair(&workload, d, seed ^ 4);
    let params = SosParams::new(seed ^ 5, workload.max_child_size);
    let amplification = Amplification::replicate(4);

    let solo = SessionBuilder::new(params.seed)
        .run(
            sos_session::naive_known_alice(&sos_alice, d, &params, amplification).expect("alice"),
            sos_session::naive_known_bob(&sos_bob, &params, amplification),
        )
        .expect("solo run");
    let (recovered, bob_stats, alice_stats) = drive_over_endpoint_pair(
        sos_session::naive_known_alice(&sos_alice, d, &params, amplification).expect("alice"),
        sos_session::naive_known_bob(&sos_bob, &params, amplification),
    )
    .expect("framed run");
    assert_eq!(recovered, solo.recovered);
    assert_eq!(bob_stats, solo.stats, "sos/naive");
    assert_eq!(alice_stats, solo.stats);

    let solo = SessionBuilder::new(params.seed)
        .run(
            sos_session::ioi_known_alice(&sos_alice, d, d, &params, amplification).expect("alice"),
            sos_session::ioi_known_bob(&sos_bob, &params, amplification),
        )
        .expect("solo run");
    let (recovered, bob_stats, alice_stats) = drive_over_endpoint_pair(
        sos_session::ioi_known_alice(&sos_alice, d, d, &params, amplification).expect("alice"),
        sos_session::ioi_known_bob(&sos_bob, &params, amplification),
    )
    .expect("framed run");
    assert_eq!(recovered, solo.recovered);
    assert_eq!(bob_stats, solo.stats, "sos/ioi");
    assert_eq!(alice_stats, solo.stats);

    let solo = SessionBuilder::new(params.seed)
        .run(
            sos_session::cascading_known_alice(&sos_alice, d, &params, amplification)
                .expect("alice"),
            sos_session::cascading_known_bob(&sos_bob, &params, amplification),
        )
        .expect("solo run");
    let (recovered, bob_stats, alice_stats) = drive_over_endpoint_pair(
        sos_session::cascading_known_alice(&sos_alice, d, &params, amplification).expect("alice"),
        sos_session::cascading_known_bob(&sos_bob, &params, amplification),
    )
    .expect("framed run");
    assert_eq!(recovered, solo.recovered);
    assert_eq!(bob_stats, solo.stats, "sos/cascading");
    assert_eq!(alice_stats, solo.stats);

    let solo = SessionBuilder::new(params.seed)
        .run(
            sos_session::multiround_known_alice(&sos_alice, d, d, &params).unwrap(),
            sos_session::multiround_known_bob(&sos_bob, &params),
        )
        .expect("solo run (seed chosen to succeed)");
    let (recovered, bob_stats, alice_stats) = drive_over_endpoint_pair(
        sos_session::multiround_known_alice(&sos_alice, d, d, &params).unwrap(),
        sos_session::multiround_known_bob(&sos_bob, &params),
    )
    .expect("framed run");
    assert_eq!(recovered, solo.recovered);
    assert_eq!(bob_stats, solo.stats, "sos/multiround");
    assert_eq!(alice_stats, solo.stats);

    // Graph, degree-ordering scheme (Thm 5.2) — nested + parallel charges.
    use recon_graph::degree_order::DegreeOrderParams;
    use recon_graph::{session as graph_session, Graph};
    let mut rng = Xoshiro256::new(seed ^ 6);
    let graph = Graph::gnp(150, 0.3, &mut rng);
    let graph_params = DegreeOrderParams { h: 48, seed: seed ^ 7 };
    let solo = SessionBuilder::new(graph_params.seed)
        .run(
            graph_session::degree_order_alice(&graph, 4, &graph_params).expect("alice"),
            graph_session::degree_order_bob(&graph, 4, &graph_params).expect("bob"),
        )
        .expect("solo run");
    let (recovered, bob_stats, alice_stats) = drive_over_endpoint_pair(
        graph_session::degree_order_alice(&graph, 4, &graph_params).expect("alice"),
        graph_session::degree_order_bob(&graph, 4, &graph_params).expect("bob"),
    )
    .expect("framed run");
    assert_eq!(recovered.num_edges(), solo.recovered.num_edges());
    assert_eq!(bob_stats, solo.stats, "graph/degree-order");
    assert_eq!(alice_stats, solo.stats);
}

// ---------------------------------------------------------------------------
// Acceptance: >= 8 concurrent mixed-family sessions over ONE framed transport
// ---------------------------------------------------------------------------

/// Body of the nine-session acceptance test, shared with the kernel-dispatch
/// equivalence test below: runs the full mixed-family suite (nine concurrent
/// sessions over one framed transport, each checked against its solo
/// `SessionBuilder::run` twin), asserts every recovery, and returns the per-session
/// stats so callers can compare whole runs against each other.
fn run_nine_session_suite() -> Vec<CommStats> {
    use recon_graph::degree_order::DegreeOrderParams;
    use recon_graph::{forest, session as graph_session, Forest, Graph};

    let seed = 0x008E_5510;
    let (transport_a, transport_b) = MemoryTransport::pair();
    let mut alice_end = Endpoint::new(transport_a);
    let mut bob_end = Endpoint::new(transport_b);

    // Expected outcomes from `SessionBuilder::run`, one session each.
    let mut expected: Vec<CommStats> = Vec::new();

    // Sessions 0-2: three plain-set protocols on distinct data.
    let (set_a, set_b) = random_set_pair(400, 18, seed);
    let builder = SessionBuilder::new(seed ^ 1).amplification(Amplification::replicate(3));
    expected.push(
        builder
            .run(
                set_session::iblt_known_alice(&set_a, 20, builder.config()).unwrap(),
                set_session::iblt_known_bob(&set_b, builder.config()),
            )
            .unwrap()
            .stats,
    );
    alice_end
        .register(
            0,
            Role::Alice,
            set_session::iblt_known_alice(&set_a, 20, builder.config()).unwrap(),
        )
        .unwrap();
    bob_end.register(0, Role::Bob, set_session::iblt_known_bob(&set_b, builder.config())).unwrap();

    let charpoly_builder = SessionBuilder::new(seed ^ 2).amplification(Amplification::single());
    expected.push(
        charpoly_builder
            .run(
                set_session::charpoly_known_alice(&set_a, 20, charpoly_builder.config()).unwrap(),
                set_session::charpoly_known_bob(&set_b, charpoly_builder.config()),
            )
            .unwrap()
            .stats,
    );
    alice_end
        .register(
            1,
            Role::Alice,
            set_session::charpoly_known_alice(&set_a, 20, charpoly_builder.config()).unwrap(),
        )
        .unwrap();
    bob_end
        .register(1, Role::Bob, set_session::charpoly_known_bob(&set_b, charpoly_builder.config()))
        .unwrap();

    let unknown_builder = SessionBuilder::new(seed ^ 3).amplification(Amplification::replicate(6));
    expected.push(
        unknown_builder
            .run(
                set_session::unknown_alice(&set_a, unknown_builder.config()),
                set_session::unknown_bob(&set_b, unknown_builder.config()),
            )
            .unwrap()
            .stats,
    );
    alice_end
        .register(2, Role::Alice, set_session::unknown_alice(&set_a, unknown_builder.config()))
        .unwrap();
    bob_end
        .register(2, Role::Bob, set_session::unknown_bob(&set_b, unknown_builder.config()))
        .unwrap();

    // Sessions 3-5: three set-of-sets families.
    let workload = WorkloadParams::new(40, 10, 1 << 28);
    let d = 4;
    let (sos_a, sos_b) = generate_pair(&workload, d, seed ^ 4);
    let params = SosParams::new(seed ^ 5, workload.max_child_size);
    let amplification = Amplification::replicate(4);
    expected.push(
        SessionBuilder::new(params.seed)
            .run(
                sos_session::naive_known_alice(&sos_a, d, &params, amplification).unwrap(),
                sos_session::naive_known_bob(&sos_b, &params, amplification),
            )
            .unwrap()
            .stats,
    );
    alice_end
        .register(
            3,
            Role::Alice,
            sos_session::naive_known_alice(&sos_a, d, &params, amplification).unwrap(),
        )
        .unwrap();
    bob_end
        .register(3, Role::Bob, sos_session::naive_known_bob(&sos_b, &params, amplification))
        .unwrap();

    expected.push(
        SessionBuilder::new(params.seed)
            .run(
                sos_session::ioi_known_alice(&sos_a, d, d, &params, amplification).unwrap(),
                sos_session::ioi_known_bob(&sos_b, &params, amplification),
            )
            .unwrap()
            .stats,
    );
    alice_end
        .register(
            4,
            Role::Alice,
            sos_session::ioi_known_alice(&sos_a, d, d, &params, amplification).unwrap(),
        )
        .unwrap();
    bob_end
        .register(4, Role::Bob, sos_session::ioi_known_bob(&sos_b, &params, amplification))
        .unwrap();

    expected.push(
        SessionBuilder::new(params.seed)
            .run(
                sos_session::cascading_known_alice(&sos_a, d, &params, amplification).unwrap(),
                sos_session::cascading_known_bob(&sos_b, &params, amplification),
            )
            .unwrap()
            .stats,
    );
    alice_end
        .register(
            5,
            Role::Alice,
            sos_session::cascading_known_alice(&sos_a, d, &params, amplification).unwrap(),
        )
        .unwrap();
    bob_end
        .register(5, Role::Bob, sos_session::cascading_known_bob(&sos_b, &params, amplification))
        .unwrap();

    // Session 6: multi-round set of sets (Thm 3.9; three genuine rounds).
    expected.push(
        SessionBuilder::new(params.seed)
            .run(
                sos_session::multiround_known_alice(&sos_a, d, d, &params).unwrap(),
                sos_session::multiround_known_bob(&sos_b, &params),
            )
            .unwrap()
            .stats,
    );
    alice_end
        .register(
            6,
            Role::Alice,
            sos_session::multiround_known_alice(&sos_a, d, d, &params).unwrap(),
        )
        .unwrap();
    bob_end.register(6, Role::Bob, sos_session::multiround_known_bob(&sos_b, &params)).unwrap();

    // Session 7: graph degree-ordering scheme (nested SoS + parallel edges).
    let mut rng = Xoshiro256::new(seed ^ 6);
    let graph = Graph::gnp(150, 0.3, &mut rng);
    let graph_params = DegreeOrderParams { h: 48, seed: seed ^ 7 };
    expected.push(
        SessionBuilder::new(graph_params.seed)
            .run(
                graph_session::degree_order_alice(&graph, 4, &graph_params).unwrap(),
                graph_session::degree_order_bob(&graph, 4, &graph_params).unwrap(),
            )
            .unwrap()
            .stats,
    );
    alice_end
        .register(
            7,
            Role::Alice,
            graph_session::degree_order_alice(&graph, 4, &graph_params).unwrap(),
        )
        .unwrap();
    bob_end
        .register(7, Role::Bob, graph_session::degree_order_bob(&graph, 4, &graph_params).unwrap())
        .unwrap();

    // Session 8: forest reconciliation (nested multiset-of-multisets).
    let mut rng = Xoshiro256::new(seed ^ 8);
    let base = Forest::random(200, 0.1, 5, &mut rng);
    let forest_alice = base.perturb(2, &mut rng);
    let forest_seed = 761u64;
    let resolved = forest::agreed_params(&forest_alice, &base, forest_seed).unwrap();
    expected.push(
        SessionBuilder::new(forest_seed)
            .run(
                graph_session::forest_alice(&forest_alice, 4, 6, forest_seed, &resolved).unwrap(),
                graph_session::forest_bob(&base, forest_seed, &resolved).unwrap(),
            )
            .unwrap()
            .stats,
    );
    alice_end
        .register(
            8,
            Role::Alice,
            graph_session::forest_alice(&forest_alice, 4, 6, forest_seed, &resolved).unwrap(),
        )
        .unwrap();
    bob_end
        .register(8, Role::Bob, graph_session::forest_bob(&base, forest_seed, &resolved).unwrap())
        .unwrap();

    // All nine sessions share one framed byte stream.
    assert_eq!(bob_end.registered_sessions(), 9);
    drive_pair(&mut alice_end, &mut bob_end).unwrap();

    let take = |end: &mut Endpoint<MemoryTransport>, id: u64| -> CommStats {
        match id {
            0..=2 => {
                let outcome = end.take_outcome::<HashSet<u64>>(id).unwrap().unwrap();
                assert_eq!(outcome.recovered, set_a, "session {id} recovery");
                outcome.stats
            }
            3..=6 => {
                let outcome = end.take_outcome::<SetOfSets>(id).unwrap().unwrap();
                assert_eq!(outcome.recovered, sos_a, "session {id} recovery");
                outcome.stats
            }
            7 => end.take_outcome::<Graph>(id).unwrap().unwrap().stats,
            _ => end.take_outcome::<Forest>(id).unwrap().unwrap().stats,
        }
    };
    let mut per_session = Vec::with_capacity(9);
    for id in 0..9u64 {
        let alice_stats = alice_end.close(id).expect("alice side registered");
        let stats = take(&mut bob_end, id);
        assert_eq!(stats, expected[id as usize], "session {id} vs SessionBuilder::run");
        assert_eq!(alice_stats, expected[id as usize], "session {id} alice side");
        per_session.push(stats);
    }
    per_session
}

/// One endpoint pair multiplexes nine concurrent sessions spanning all three
/// protocol layers (plain sets, sets of sets, graphs) over a single framed
/// byte stream, and every session's `CommStats` is byte-identical to the same
/// protocol run alone through `SessionBuilder::run`.
#[test]
fn one_endpoint_drives_nine_concurrent_mixed_family_sessions() {
    let per_session = run_nine_session_suite();
    assert_eq!(per_session.len(), 9);
}
