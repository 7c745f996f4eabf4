//! Golden wire bytes: a pinned hash of what each sketch family puts on the
//! wire for fixed seeds and inputs.
//!
//! The per-key hot paths (seed plans, batched index computation, word-wise key
//! XOR) are rewritten for speed from time to time; every such rewrite must be
//! bits-preserving. These literals were captured before the first of those
//! rewrites and fail on any change to a cell, an estimator counter or an
//! envelope byte. A deliberate wire-format change updates them in the same
//! commit and says so: wire format v2, step (a) — varint counts, 4-byte
//! check-sums for keys of at most 8 bytes, key-form child encodings, the
//! by-bytes cascade cut — re-captured every literal that holds an IBLT (the two
//! ℓ0 estimator literals are the ones that did not move). The ℓ0 estimator's
//! one-mix update — every repetition's level and bucket sliced from one
//! `hash64` of the key, in place of a Mersenne-61 pairwise level hash and a
//! bucket hash per repetition — puts different counters on the wire in the same
//! format and size, and re-captured the three literals that hold an ℓ0:
//! `l0 default`, `l0 with 12 buckets` and the unknown-`d` set transcript.

use recon_base::rng::Xoshiro256;
use recon_base::wire::Encode;
use recon_estimator::{L0Config, L0Estimator, Side, StrataConfig, StrataEstimator};
use recon_graph::degree_neighborhood::{self, DegreeNeighborhoodParams};
use recon_graph::degree_order::{self, DegreeOrderParams};
use recon_graph::{forest, session as graph_session, Forest, Graph};
use recon_protocol::{Amplification, Party, SessionBuilder, Step};
use recon_set::{session as set_session, IbltSetProtocol};
use recon_sos::cascading::CascadingProtocol;
use recon_sos::iblt_of_iblts::IbltOfIbltsProtocol;
use recon_sos::naive::NaiveProtocol;
use recon_sos::session as sos_session;
use recon_sos::workload::{generate_pair, WorkloadParams};
use recon_sos::SosParams;
use std::collections::HashSet;

/// FNV-1a, written out here so the pin shares no code with the library's own
/// hash functions.
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn digest_of(value: &impl Encode) -> u64 {
    fnv1a(FNV_OFFSET, &value.to_bytes())
}

/// Drive a party pair to completion, hashing every envelope either side emits
/// (in emission order) into one transcript hash.
fn transcript_hash<A: Party, B: Party>(mut alice: A, mut bob: B) -> (u64, B::Output) {
    let mut hash = FNV_OFFSET;
    loop {
        let mut progressed = false;
        while let Some(envelope) = alice.poll_send() {
            progressed = true;
            hash = fnv1a(hash, &envelope.to_bytes());
            if let Step::Done(output) = bob.handle(envelope).expect("bob handles") {
                return (hash, output);
            }
        }
        while let Some(envelope) = bob.poll_send() {
            progressed = true;
            hash = fnv1a(hash, &envelope.to_bytes());
            alice.handle(envelope).expect("alice handles");
        }
        assert!(progressed, "session stalled");
    }
}

fn set_pair(n: usize, d: usize, seed: u64) -> (HashSet<u64>, HashSet<u64>) {
    let mut rng = Xoshiro256::new(seed);
    let mut alice: HashSet<u64> = (0..n).map(|_| rng.next_u64() >> 3).collect();
    let mut bob = alice.clone();
    for _ in 0..d / 2 {
        alice.insert(rng.next_u64() >> 3);
    }
    for _ in 0..d - d / 2 {
        bob.insert(rng.next_u64() >> 3);
    }
    (alice, bob)
}

/// Remove `count` edges between non-anchor vertices, so both sides keep the
/// same top-`h` degree order (the regime Theorem 5.2 assumes).
fn remove_off_anchor(base: &Graph, h: usize, count: usize, rng: &mut Xoshiro256) -> Graph {
    let anchors: HashSet<u32> =
        degree_order::signatures(base, h).order[..h].iter().copied().collect();
    let candidates: Vec<(u32, u32)> = base
        .edges()
        .into_iter()
        .filter(|(u, v)| !anchors.contains(u) && !anchors.contains(v))
        .collect();
    let mut out = base.clone();
    let mut removed = 0;
    while removed < count {
        let (u, v) = candidates[rng.next_index(candidates.len())];
        if out.remove_edge(u, v) {
            removed += 1;
        }
    }
    out
}

/// Compare `(name, got, pinned)` triples, reporting every mismatch at once so
/// a deliberate format change can update all its literals from one run.
#[track_caller]
fn assert_pinned(pins: &[(&str, u64, u64)]) {
    let changed: Vec<String> = pins
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: got {got:#018X}, pinned {want:#018X}"))
        .collect();
    assert!(changed.is_empty(), "wire bytes changed:\n{}", changed.join("\n"));
}

#[test]
fn set_digests_are_pinned() {
    let (alice, _) = set_pair(3000, 40, 0xA11CE);
    // Tuned layout (k = 3, stash) at two sizes, and the classic k = 4 layout.
    let tuned = IbltSetProtocol::tuned(0x5E7_0001);
    let classic = IbltSetProtocol::new(0x5E7_0002);
    assert_pinned(&[
        ("tuned d=50", digest_of(&tuned.digest(&alice, 50)), 0xC0A5_ED4B_CAEF_FAEC),
        ("tuned d=700", digest_of(&tuned.digest(&alice, 700)), 0x5036_2A53_5946_280E),
        ("classic d=50", digest_of(&classic.digest(&alice, 50)), 0x8D31_B877_0335_DEB7),
    ]);
}

#[test]
fn estimators_are_pinned() {
    let (alice, bob) = set_pair(5000, 300, 0xE57);
    let mut l0 = L0Estimator::new(&L0Config::default().with_seed(0x10_0001));
    let odd_shape = L0Config { reps: 5, levels: 20, buckets: 12, threshold: 8, seed: 0x10_0002 };
    let mut odd = L0Estimator::new(&odd_shape);
    let mut strata = StrataEstimator::new(&StrataConfig::default().with_seed(0x57_0001));
    for &x in &alice {
        l0.update(x, Side::A);
        odd.update(x, Side::A);
        strata.update(x, Side::A);
    }
    for &x in &bob {
        l0.update(x, Side::B);
        odd.update(x, Side::B);
        strata.update(x, Side::B);
    }
    // Extremes of the key range, around `2^61` and at the top.
    for x in [0, 1, (1 << 61) - 2, (1 << 61) - 1, 1 << 61, u64::MAX - 1, u64::MAX] {
        l0.update(x, Side::A);
        odd.update(x, Side::B);
    }
    assert_pinned(&[
        ("l0 default", digest_of(&l0), 0x119D_91A9_5E31_6888),
        ("l0 with 12 buckets", digest_of(&odd), 0xBA63_4E18_B1E8_A096),
        ("strata", digest_of(&strata), 0x9D60_DF69_5DF4_5847),
    ]);
}

#[test]
fn set_of_sets_digests_are_pinned() {
    let workload = WorkloadParams::new(200, 24, 1 << 30);
    let params = SosParams::new(0x505_0001, workload.max_child_size);
    let (alice, _) = generate_pair(&workload, 20, 0x505);
    let cascade = CascadingProtocol::new(params).digest(&alice, 32);
    assert!(cascade.fallback.is_some());
    let ioi = IbltOfIbltsProtocol::new(params).digest(&alice, 8, 12);
    let naive = NaiveProtocol::new(params).digest(&alice, 12);
    assert_pinned(&[
        // PR 23: the cascade sends only the levels that pay for themselves (at
        // h = 24 the one 8-cell level) plus `T_*`, all child tables under one seed.
        ("cascading", digest_of(&cascade), 0x8106_CDA5_ECF1_1A6F),
        ("iblt of iblts", digest_of(&ioi), 0xA238_E0AD_E09A_79CF),
        ("naive", digest_of(&naive), 0xBD14_C8B2_5ABE_93FA),
    ]);
}

#[test]
fn session_transcripts_are_pinned() {
    // Corollary 3.2 end to end: Bob's estimator, Alice's sized digest.
    let (alice, bob) = set_pair(4000, 60, 0xC0FFEE);
    let builder = SessionBuilder::new(0x5E55_0001).amplification(Amplification::replicate(4));
    let (set_hash, recovered) = transcript_hash(
        set_session::unknown_alice(&alice, builder.config()),
        set_session::unknown_bob(&bob, builder.config()),
    );
    assert_eq!(recovered, alice);

    // Theorem 5.2 end to end: the nested cascading session, then the labelled
    // edge digest.
    let mut rng = Xoshiro256::new(0x6EA9);
    let base = Graph::gnp(160, 0.35, &mut rng);
    let graph_alice = remove_off_anchor(&base, 40, 2, &mut rng);
    let graph_bob = remove_off_anchor(&base, 40, 2, &mut rng);
    let params = DegreeOrderParams { h: 40, seed: 0x6EA9_0001 };
    let (graph_hash, recovered) = transcript_hash(
        graph_session::degree_order_alice(&graph_alice, 4, &params).expect("alice builds"),
        graph_session::degree_order_bob(&graph_bob, 4, &params).expect("bob builds"),
    );
    assert_eq!(recovered.num_edges(), graph_alice.num_edges());

    // Corollary 2.2 and Theorem 2.3, one round each.
    let (alice, bob) = set_pair(3000, 40, 0x5E7_0003);
    let (iblt_hash, recovered) = transcript_hash(
        set_session::iblt_known_alice(&alice, 40, builder.config()).expect("alice builds"),
        set_session::iblt_known_bob(&bob, builder.config()),
    );
    assert_eq!(recovered, alice);
    let (alice, bob) = set_pair(200, 12, 0x5E7_0004);
    let (alice, bob): (HashSet<u64>, HashSet<u64>) =
        (alice.iter().map(|x| x >> 8).collect(), bob.iter().map(|x| x >> 8).collect());
    let (charpoly_hash, recovered) = transcript_hash(
        set_session::charpoly_known_alice(&alice, 12, builder.config()).expect("alice builds"),
        set_session::charpoly_known_bob(&bob, builder.config()),
    );
    assert_eq!(recovered, alice);

    // Section 3's set-of-sets families, known and unknown bound. The doubling
    // pairs start at a bound far below the difference, so their transcripts
    // walk the metered NACK chain through several attempts (six for the IBLT
    // of IBLTs, four for the cascade).
    let workload = WorkloadParams::new(96, 16, 1 << 30);
    let params = SosParams::new(0x505_0002, workload.max_child_size);
    let (alice, bob) = generate_pair(&workload, 30, 0x505_0003);
    let (replicate, estimator) = (Amplification::replicate(4), L0Config::default());
    let doubling = Amplification::doubling(1, 1 << 12);
    let cap = alice.num_children().max(bob.num_children());
    let sos_hashes = [
        transcript_hash(
            sos_session::naive_known_alice(&alice, 30, &params, replicate).expect("alice builds"),
            sos_session::naive_known_bob(&bob, &params, replicate),
        ),
        transcript_hash(
            sos_session::naive_unknown_alice(&alice, &params, replicate, estimator),
            sos_session::naive_unknown_bob(&bob, &params, replicate, estimator),
        ),
        transcript_hash(
            sos_session::ioi_known_alice(&alice, 60, 30, &params, replicate).expect("alice builds"),
            sos_session::ioi_known_bob(&bob, &params, replicate),
        ),
        transcript_hash(
            sos_session::ioi_unknown_alice(&alice, &params, cap, doubling).expect("alice builds"),
            sos_session::ioi_unknown_bob(&bob, &params, doubling),
        ),
        transcript_hash(
            sos_session::cascading_known_alice(&alice, 30, &params, replicate)
                .expect("alice builds"),
            sos_session::cascading_known_bob(&bob, &params, replicate),
        ),
        transcript_hash(
            sos_session::cascading_unknown_alice(&alice, &params, doubling).expect("alice builds"),
            sos_session::cascading_unknown_bob(&bob, &params, doubling),
        ),
        transcript_hash(
            sos_session::multiround_known_alice(&alice, 60, 30, &params).expect("alice builds"),
            sos_session::multiround_known_bob(&bob, &params),
        ),
        transcript_hash(
            sos_session::multiround_unknown_alice(&alice, &params, estimator),
            sos_session::multiround_unknown_bob(&bob, &params, estimator),
        ),
    ]
    .map(|(hash, recovered)| {
        assert_eq!(recovered, alice);
        hash
    });

    // Theorem 5.6 and Theorem 6.1: the nested set-of-multisets session, then
    // the labelled edge digest or the root-signature hash.
    let mut rng = Xoshiro256::new(3);
    let base = Graph::gnp(128, 0.2, &mut rng);
    let (graph_alice, graph_bob) = (base.perturb(1, &mut rng), base.perturb(1, &mut rng));
    let params = DegreeNeighborhoodParams::for_gnp(128, 0.2, 7);
    let agreed = degree_neighborhood::agreed_params(&graph_alice, &graph_bob, &params)
        .expect("agreed parameters");
    let (neighborhood_hash, recovered) = transcript_hash(
        graph_session::degree_neighborhood_alice(&graph_alice, 2, &params, &agreed)
            .expect("alice builds"),
        graph_session::degree_neighborhood_bob(&graph_bob, 2, &params, &agreed)
            .expect("bob builds"),
    );
    assert_eq!(recovered.num_edges(), graph_alice.num_edges());
    let mut rng = Xoshiro256::new(0xF0);
    let base = Forest::random(400, 0.1, 6, &mut rng);
    let (forest_alice, forest_bob) = (base.perturb(2, &mut rng), base.perturb(2, &mut rng));
    let sigma = forest_alice.max_depth().max(forest_bob.max_depth()).max(1);
    let agreed =
        forest::agreed_params(&forest_alice, &forest_bob, 0xF0_0001).expect("agreed parameters");
    let (forest_hash, recovered) = transcript_hash(
        graph_session::forest_alice(&forest_alice, 4, sigma, 0xF0_0001, &agreed)
            .expect("alice builds"),
        graph_session::forest_bob(&forest_bob, 0xF0_0001, &agreed).expect("bob builds"),
    );
    assert!(recovered.is_isomorphic(&forest_alice, 0xF0_0001));

    assert_pinned(&[
        ("set unknown-d transcript", set_hash, 0x535E_F0AB_51DF_95C6),
        // PR 23: the nested cascading session's cut, as above.
        ("degree-order graph transcript", graph_hash, 0xBF49_ABA6_6A63_39FA),
        ("set iblt known-d transcript", iblt_hash, 0xE3BA_6F11_E38C_6D35),
        ("set charpoly transcript", charpoly_hash, 0x86E2_5185_CF0A_9BC2),
        ("naive known-d transcript", sos_hashes[0], 0xE56E_D103_1773_0093),
        ("naive unknown-d transcript", sos_hashes[1], 0xED7E_9396_A8BC_588F),
        ("iblt of iblts known-d transcript", sos_hashes[2], 0x9467_3C19_9C98_5A78),
        ("iblt of iblts unknown-d transcript", sos_hashes[3], 0xB842_411D_CE8E_C20A),
        ("cascading known-d transcript", sos_hashes[4], 0x2F02_6ED4_DC8A_E4E9),
        ("cascading unknown-d transcript", sos_hashes[5], 0xDC25_943F_83FF_9339),
        ("multiround known-d transcript", sos_hashes[6], 0xC44C_910E_934A_0707),
        ("multiround unknown-d transcript", sos_hashes[7], 0xE4A8_A38C_CD8E_A51B),
        ("degree-neighborhood graph transcript", neighborhood_hash, 0x2CB5_B613_D40D_ACD1),
        ("forest transcript", forest_hash, 0x67B4_83EB_544A_4A1F),
    ]);
}
