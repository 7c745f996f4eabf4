//! The paper's evaluation claims, each asserted as a *shape* on seeded data: a
//! log-log slope, an ordering, a `≤` bound on bytes over the theorem's word
//! count, or "a failure is detected, never silent". No test pins an absolute
//! byte count or a wall time.
//!
//! | claim | test |
//! |---|---|
//! | Cor 2.2: IBLT digest linear in `d`, flat in `n` | `cor_2_2_iblt_bytes_are_linear_in_d_and_flat_in_n` |
//! | Thm 2.3: charpoly digest linear in `d`, below the IBLT's | `thm_2_3_charpoly_bytes_are_linear_in_d_and_below_iblt` |
//! | Thm 3.7: cascade bytes within `40 ×` `d·log min(d, h)` words | `thm_3_7_cascade_bytes_stay_within_forty_times_the_word_count` |
//! | Table 1: bytes naive > IBLT-of-IBLTs > cascading > multi-round | `table_1_bytes_order_naive_ioi_cascading_multiround` |
//! | Thms 5.2/5.3: degree ordering on `G(n, p)` | `thms_5_2_5_3_degree_order_failures_are_detected_never_silent` |
//! | Thms 5.5/5.6: degree neighborhoods on `G(n, p)` | `thms_5_5_5_6_degree_neighborhood_failures_are_detected_never_silent` |
//! | Thm 6.1: forest bytes flat in `n`, growing with `d·σ` | `thm_6_1_forest_bytes_are_flat_in_n_and_grow_with_d_sigma` |
//!
//! Tier-1 runs few seeds. The `#[ignore]`d twins in `long` run the same checks
//! on more seeds and print every measurement (about 10 s in release):
//! `cargo test -q --release -p recon-examples --test paper_claims long:: -- --ignored --nocapture`.

use recon_apps::database::{BinaryTable, SosProtocolKind};
use recon_base::rng::Xoshiro256;
use recon_base::wire::Encode;
use recon_base::ReconError;
use recon_graph::degree_neighborhood::{self, DegreeNeighborhoodParams};
use recon_graph::degree_order::{self, DegreeOrderParams};
use recon_graph::forest::{self, Forest};
use recon_graph::{session as graph_session, Graph};
use recon_protocol::{Amplification, Outcome, SessionBuilder};
use recon_set::charpoly_protocol::CharPolyProtocol;
use recon_set::iblt_protocol::{IbltSetProtocol, SetDigest};
use recon_set::session as set_session;
use recon_sos::session as sos_session;
use recon_sos::workload::{generate_pair, WorkloadParams};
use recon_sos::SosParams;
use std::collections::HashSet;
use std::ops::Range;
use std::time::Instant;

/// A pair of plain sets with exactly `d` differing elements (half on each side).
fn set_pair(n: usize, d: usize, seed: u64) -> (HashSet<u64>, HashSet<u64>) {
    let mut rng = Xoshiro256::new(seed);
    let mut alice: HashSet<u64> = HashSet::with_capacity(n + d);
    while alice.len() < n {
        alice.insert(rng.next_below(1 << 48));
    }
    let mut bob = alice.clone();
    while alice.len() < n + d / 2 {
        alice.insert(rng.next_below(1 << 48));
    }
    while bob.len() < n + (d - d / 2) {
        bob.insert(rng.next_below(1 << 48));
    }
    (alice, bob)
}

/// The Table 1 database workload: `s` rows over `u` columns, density ~1/2
/// (`h = Θ(u)`, `n = Θ(su)`), with exactly `d` flipped bits.
fn database_pair(s: usize, u: u32, d: usize, seed: u64) -> (BinaryTable, BinaryTable) {
    let mut rng = Xoshiro256::new(seed);
    let alice = BinaryTable::random(s, u, 0.5, &mut rng);
    let bob = alice.flip_bits(d, &mut rng);
    (alice, bob)
}

/// The Wilson score interval at 95 % confidence for `k` successes in `n` trials.
fn wilson95(k: usize, n: usize) -> (f64, f64) {
    let (z, k, n) = (1.959_964f64, k as f64, n as f64);
    let p = k / n;
    let scale = 1.0 + z * z / n;
    let centre = (p + z * z / (2.0 * n)) / scale;
    let half = z * (p * (1.0 - p) / n + z * z / (4.0 * n * n)).sqrt() / scale;
    ((centre - half).max(0.0), (centre + half).min(1.0))
}

/// Asserts that the least-squares slope of `ln bytes` against `ln d` is 1 ± 0.15.
fn assert_linear(claim: &str, seed: u64, points: &[(usize, usize)]) {
    let logs: Vec<(f64, f64)> =
        points.iter().map(|&(d, bytes)| ((d as f64).ln(), (bytes as f64).ln())).collect();
    let n = logs.len() as f64;
    let (mx, my) = logs.iter().fold((0.0, 0.0), |(sx, sy), (x, y)| (sx + x / n, sy + y / n));
    let cov: f64 = logs.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = logs.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    let slope = cov / var;
    println!("{claim}  seed {seed}: (d, bytes) {points:?}, log-log slope {slope:.3}");
    assert!((0.85..=1.15).contains(&slope), "{claim}, seed {seed}: slope {slope:.3}");
}

/// Cor 2.2's one-round message under a bound of `d`: the first attempt's digest.
/// A session's bytes also count the replicas a failed peel asks for (at
/// `n = 20 000, d = 32` one seed's session sends more than its `d = 64` run).
fn iblt_digest(set: &HashSet<u64>, d: usize, seed: u64) -> SetDigest {
    IbltSetProtocol::tuned(seed).digest(set, d)
}

fn check_iblt_sets(seeds: Range<u64>) {
    for seed in seeds {
        let points: Vec<(usize, usize)> = [32usize, 64, 128, 256]
            .into_iter()
            .map(|d| {
                let (alice, bob) = set_pair(20_000, d, seed * 1000 + d as u64);
                let run = SessionBuilder::new(seed).amplification(Amplification::replicate(3));
                let party = set_session::iblt_known_alice(&alice, d, run.config()).unwrap();
                let outcome = run.run(party, set_session::iblt_known_bob(&bob, run.config()));
                assert_eq!(outcome.expect("Cor 2.2 session").recovered, alice, "d = {d}");
                (d, iblt_digest(&alice, d, seed).encoded_len())
            })
            .collect();
        assert_linear("Cor 2.2", seed, &points);

        // Ten times the keys under the same bound: the same cells, each at most
        // one count byte wider.
        let d = 64;
        let small = iblt_digest(&set_pair(2_000, d, seed).0, d, seed);
        let large = iblt_digest(&set_pair(20_000, d, seed).0, d, seed).encoded_len();
        let (cells, small) = (small.iblt.cells(), small.encoded_len());
        println!("Cor 2.2  seed {seed}: n = 2 000 → {small} B, n = 20 000 → {large} B");
        assert!((small..=small + cells).contains(&large), "seed {seed}: {small} vs {large} B");
    }
}

#[test]
fn cor_2_2_iblt_bytes_are_linear_in_d_and_flat_in_n() {
    check_iblt_sets(1..2);
}

fn check_charpoly(seeds: Range<u64>) {
    for seed in seeds {
        let mut points = Vec::new();
        for d in [1usize, 4, 16, 32, 64, 128] {
            let (alice, bob) = set_pair(2_000, d, seed * 1000 + d as u64);
            let run = SessionBuilder::new(seed);
            let party = set_session::charpoly_known_alice(&alice, d, run.config()).unwrap();
            let outcome = run.run(party, set_session::charpoly_known_bob(&bob, run.config()));
            let outcome = outcome.expect("Thm 2.3 session");
            assert_eq!(outcome.recovered, alice, "d = {d}");
            assert_eq!(outcome.stats.rounds, 1, "d = {d}");
            let poly = CharPolyProtocol::new(seed).digest(&alice, d).unwrap().encoded_len();
            let iblt = iblt_digest(&alice, d, seed).encoded_len();
            println!("Thm 2.3  seed {seed}, d = {d:>3}: charpoly {poly:>5} B, IBLT {iblt:>5} B");
            assert!(poly < iblt, "seed {seed}, d = {d}: charpoly {poly} B ≥ IBLT {iblt} B");
            if d >= 16 {
                points.push((d, poly));
            }
        }
        assert_linear("Thm 2.3", seed, &points);
    }
}

#[test]
fn thm_2_3_charpoly_bytes_are_linear_in_d_and_below_iblt() {
    check_charpoly(1..2);
}

fn check_cascade(seeds: Range<u64>) {
    let amp = Amplification::replicate(4);
    for seed in seeds {
        for h in [16usize, 64] {
            let workload = WorkloadParams::new(256, h, 1 << 40);
            let params = SosParams::new(seed, h);
            for d in [4usize, 8, 16, 32] {
                let (alice, bob) = generate_pair(&workload, d, seed * 1000 + (h * 100 + d) as u64);
                let party = sos_session::cascading_known_alice(&alice, d, &params, amp).unwrap();
                let bob = sos_session::cascading_known_bob(&bob, &params, amp);
                let outcome = SessionBuilder::new(seed).run(party, bob).expect("Thm 3.7 session");
                assert_eq!(outcome.recovered, alice, "seed {seed}, h = {h}, d = {d}");
                // Theorem 3.7's communication is `d · log min(d, h)` 8-byte words
                // up to a constant; the ratio is the constant paid today. A
                // failed attempt is retried with a replica of the same size, one
                // round each, so the theorem prices one round.
                let words = d as f64 * (d.min(h) as f64).log2().max(1.0);
                let (bytes, rounds) = (outcome.stats.total_bytes(), outcome.stats.rounds);
                let ratio = (bytes / rounds) as f64 / (8.0 * words);
                println!(
                    "Thm 3.7  seed {seed}, h = {h:>2}, d = {d:>2}: {bytes:>6} B in {rounds} \
                     round(s) = {ratio:.1} × the words a round"
                );
                assert!(ratio <= 40.0, "seed {seed}, h = {h}, d = {d}: {ratio:.1} × the words");
            }
        }
    }
}

#[test]
fn thm_3_7_cascade_bytes_stay_within_forty_times_the_word_count() {
    check_cascade(1..2);
}

fn check_table_1(seeds: Range<u64>) {
    use SosProtocolKind::{Cascading, IbltOfIblts, MultiRound, Naive};
    // The large-`u` regime Table 1 orders: u = 128 columns, s = 256 rows and
    // d = 16 flipped bits. At d = 4 the order does not hold with these
    // constants: cascading then needs a second round (≈ 4.9 kB) where
    // IBLT-of-IBLTs decodes in one (≈ 2.6 kB). Computation is printed, not
    // asserted: here IBLT-of-IBLTs is the slowest one-round protocol.
    let (s, u, d) = (256, 128, 16);
    for seed in seeds {
        let (alice, bob) = database_pair(s, u, d, seed);
        let runs: Vec<(usize, f64)> = [Naive, IbltOfIblts, Cascading, MultiRound]
            .into_iter()
            .map(|kind| {
                let start = Instant::now();
                let outcome = bob.reconcile_from(&alice, d, kind, 7).expect("Table 1 session");
                let ms = start.elapsed().as_secs_f64() * 1e3;
                assert_eq!(outcome.recovered, alice, "seed {seed}, {kind:?}");
                (outcome.stats.total_bytes(), ms)
            })
            .collect();
        let bytes: Vec<usize> = runs.iter().map(|&(bytes, _)| bytes).collect();
        let ms: Vec<String> = runs.iter().map(|&(_, ms)| format!("{ms:.1}")).collect();
        println!(
            "Table 1  seed {seed}: naive, IoI, cascading, multi-round: {bytes:?} B, {ms:?} ms"
        );
        assert!(bytes.windows(2).all(|w| w[0] > w[1]), "seed {seed}: {bytes:?}");
    }
}

#[test]
fn table_1_bytes_order_naive_ioi_cascading_multiround() {
    check_table_1(1..6);
}

/// Each vertex's degree with its neighbours' sorted degrees, sorted: equal for
/// isomorphic graphs.
fn degree_profile(graph: &Graph) -> Vec<(usize, Vec<usize>)> {
    let mut profile: Vec<(usize, Vec<usize>)> = (0..graph.num_vertices() as u32)
        .map(|v| {
            let mut around: Vec<usize> = graph.neighbors(v).map(|w| graph.degree(w)).collect();
            around.sort_unstable();
            (graph.degree(v), around)
        })
        .collect();
    profile.sort_unstable();
    profile
}

/// The two Section 5 schemes for `G(n, p)`.
#[derive(Debug, Clone, Copy)]
enum Scheme {
    /// Theorems 5.2/5.3.
    DegreeOrder,
    /// Theorems 5.5/5.6.
    DegreeNeighborhood,
}

/// One `G(n, p)` row: seeded base graphs, each perturbed by `d` edge flips
/// split between the parties.
struct GnpRow {
    n: usize,
    p: f64,
    d: usize,
}

impl GnpRow {
    /// The degree-ordering scheme's anchor count.
    fn h(&self) -> usize {
        48.min(self.n / 4)
    }
}

impl Scheme {
    /// Whether Alice's graph meets the condition under which the scheme's
    /// theorem promises success: Definition 5.1's `(h, d + 1, 2d + 1)`
    /// separation, or Definition 5.4's `(pn, 4d + 1)`-disjointness.
    fn separated(self, row: &GnpRow, alice: &Graph) -> bool {
        match self {
            Scheme::DegreeOrder => {
                degree_order::is_separated(alice, row.h(), row.d + 1, 2 * row.d + 1)
            }
            Scheme::DegreeNeighborhood => {
                let cap = DegreeNeighborhoodParams::for_gnp(row.n, row.p, 0).degree_cap;
                degree_neighborhood::min_disjointness(alice, cap) > 4 * row.d
            }
        }
    }

    fn reconcile(
        self,
        row: &GnpRow,
        alice: &Graph,
        bob: &Graph,
        seed: u64,
    ) -> Result<Outcome<Graph>, ReconError> {
        let d = row.d;
        match self {
            Scheme::DegreeOrder => {
                let params = DegreeOrderParams { h: row.h(), seed };
                let party = graph_session::degree_order_alice(alice, d, &params)?;
                let bob = graph_session::degree_order_bob(bob, d, &params)?;
                SessionBuilder::new(seed).run(party, bob)
            }
            Scheme::DegreeNeighborhood => {
                let params = DegreeNeighborhoodParams::for_gnp(row.n, row.p, seed);
                let agreed = degree_neighborhood::agreed_params(alice, bob, &params)?;
                let party = graph_session::degree_neighborhood_alice(alice, d, &params, &agreed)?;
                let bob = graph_session::degree_neighborhood_bob(bob, d, &params, &agreed)?;
                SessionBuilder::new(seed).run(party, bob)
            }
        }
    }
}

/// Success and separation shares with Wilson intervals. At these `n` the
/// theorems' regime is not reached (Thm 5.3 needs
/// `p ≥ C d log n (d²/(δ²n))^{1/7}`): few graphs are separated and many runs
/// fail. So the claim checked is the one every `n` owes: a failure is a
/// `SeparationFailure`, and a returned graph is Alice's.
fn check_gnp(scheme: Scheme, rows: &[GnpRow], trials: u64) {
    for row in rows {
        let (mut ok, mut separated) = (0, 0);
        for t in 0..trials {
            let mut rng = Xoshiro256::new(row.n as u64 * 1_000 + t);
            let base = Graph::gnp(row.n, row.p, &mut rng);
            let alice = base.perturb(row.d / 2, &mut rng);
            let bob = base.perturb(row.d - row.d / 2, &mut rng);
            separated += usize::from(scheme.separated(row, &alice));
            match scheme.reconcile(row, &alice, &bob, t) {
                // Bob holds Alice's graph under her own labeling, so compare an
                // isomorphism invariant.
                Ok(outcome) => {
                    let right = degree_profile(&outcome.recovered) == degree_profile(&alice);
                    assert!(right, "{scheme:?}, n = {}, trial {t}: a wrong graph", row.n);
                    ok += 1;
                }
                Err(ReconError::SeparationFailure(_)) => {}
                Err(other) => panic!("{scheme:?}, n = {}, trial {t}: {other}", row.n),
            }
        }
        let trials = trials as usize;
        let (ok_ci, sep_ci) = (wilson95(ok, trials), wilson95(separated, trials));
        println!(
            "{scheme:?} n = {}, p = {:.2}, d = {}: success {ok}/{trials} [{:.2}, {:.2}], \
             separated {separated}/{trials} [{:.2}, {:.2}]",
            row.n, row.p, row.d, ok_ci.0, ok_ci.1, sep_ci.0, sep_ci.1
        );
    }
}

const DEGREE_ORDER_ROWS: [GnpRow; 2] =
    [GnpRow { n: 192, p: 0.35, d: 2 }, GnpRow { n: 256, p: 0.35, d: 4 }];
const DEGREE_NEIGHBORHOOD_ROWS: [GnpRow; 2] =
    [GnpRow { n: 256, p: 0.2, d: 2 }, GnpRow { n: 320, p: 0.15, d: 2 }];

#[test]
fn thms_5_2_5_3_degree_order_failures_are_detected_never_silent() {
    check_gnp(Scheme::DegreeOrder, &DEGREE_ORDER_ROWS, 5);
}

#[test]
fn thms_5_5_5_6_degree_neighborhood_failures_are_detected_never_silent() {
    check_gnp(Scheme::DegreeNeighborhood, &DEGREE_NEIGHBORHOOD_ROWS, 2);
}

/// Alice's and Bob's forests: a random forest on `n` vertices of depth at most
/// `sigma`, perturbed by `d` moves split between the parties.
fn forest_pair(n: usize, sigma: usize, d: usize, seed: u64) -> (Forest, Forest) {
    let mut rng = Xoshiro256::new(seed);
    let base = Forest::random(n, 0.08, sigma, &mut rng);
    (base.perturb(d / 2, &mut rng), base.perturb(d - d / 2, &mut rng))
}

fn forest_bytes(alice: &Forest, bob: &Forest, d: usize, sigma: usize, seed: u64) -> usize {
    let agreed = forest::agreed_params(alice, bob, seed).expect("agreed parameters");
    let party = graph_session::forest_alice(alice, d, sigma, seed, &agreed).unwrap();
    let bob = graph_session::forest_bob(bob, seed, &agreed).unwrap();
    let outcome = SessionBuilder::new(seed).run(party, bob).expect("Thm 6.1 session");
    assert!(outcome.recovered.is_isomorphic(alice, seed), "d = {d}, σ = {sigma}");
    outcome.stats.total_bytes()
}

fn check_forests(seeds: Range<u64>) {
    // Theorem 6.1 charges `O(dσ log(dσ) log n)` bits, so ten times the vertices
    // may cost at most the ratio of the logarithms.
    let log_ratio = (10_000f64).ln() / (1_000f64).ln();
    for seed in seeds {
        let mut by_d_sigma = Vec::new();
        for (d, sigma) in [(1usize, 4usize), (4, 4), (4, 8), (16, 8)] {
            let (small, large) =
                (forest_pair(1_000, sigma, d, seed), forest_pair(10_000, sigma, d, seed));
            let depths = [&small.0, &small.1, &large.0, &large.1].map(Forest::max_depth);
            let bound = depths.into_iter().max().unwrap().max(1);
            let small = forest_bytes(&small.0, &small.1, d, bound, seed);
            let large = forest_bytes(&large.0, &large.1, d, bound, seed);
            println!(
                "Thm 6.1  seed {seed}, d = {d:>2}, σ = {bound:>2}: \
                 n = 1 000 → {small} B, n = 10 000 → {large} B"
            );
            assert!(large as f64 <= log_ratio * small as f64, "seed {seed}: {small} vs {large} B");
            by_d_sigma.push((d * bound, small));
        }
        by_d_sigma.sort_unstable();
        for pair in by_d_sigma.windows(2) {
            let ((ds0, bytes0), (ds1, bytes1)) = (pair[0], pair[1]);
            assert!(ds0 == ds1 || bytes0 < bytes1, "seed {seed}: bytes by d·σ {by_d_sigma:?}");
        }
    }
}

#[test]
fn thm_6_1_forest_bytes_are_flat_in_n_and_grow_with_d_sigma() {
    check_forests(1..2);
}

/// The same checks on more seeds.
mod long {
    use super::*;

    #[test]
    #[ignore = "seconds in release; CI runs it by name"]
    fn cor_2_2_on_ten_seeds() {
        check_iblt_sets(1..11);
    }

    #[test]
    #[ignore = "seconds in release; CI runs it by name"]
    fn thm_2_3_on_ten_seeds() {
        check_charpoly(1..11);
    }

    #[test]
    #[ignore = "seconds in release; CI runs it by name"]
    fn thm_3_7_on_ten_seeds() {
        check_cascade(1..11);
    }

    #[test]
    #[ignore = "seconds in release; CI runs it by name"]
    fn table_1_on_twenty_seeds() {
        check_table_1(1..21);
    }

    #[test]
    #[ignore = "seconds in release; CI runs it by name"]
    fn thms_5_2_5_3_on_forty_trials() {
        check_gnp(Scheme::DegreeOrder, &DEGREE_ORDER_ROWS, 40);
    }

    #[test]
    #[ignore = "seconds in release; CI runs it by name"]
    fn thms_5_5_5_6_on_forty_trials() {
        check_gnp(Scheme::DegreeNeighborhood, &DEGREE_NEIGHBORHOOD_ROWS, 40);
    }

    #[test]
    #[ignore = "seconds in release; CI runs it by name"]
    fn thm_6_1_on_five_seeds() {
        check_forests(1..6);
    }
}
