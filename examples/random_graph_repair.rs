//! Repair Bob's copy of an unlabeled random graph so it matches Alice's, using both
//! signature schemes of Section 5.
//!
//! Run with: `cargo run -p recon-examples --release --example random_graph_repair`

use recon_base::rng::Xoshiro256;
use recon_graph::degree_neighborhood::{self, DegreeNeighborhoodParams};
use recon_graph::degree_order::DegreeOrderParams;
use recon_graph::{session, Graph};
use recon_protocol::{Outcome, SessionBuilder};

fn main() {
    // --- Degree-ordering scheme on a dense-ish graph (Theorem 5.2). ---------------
    let mut rng = Xoshiro256::new(7);
    let n = 256;
    let base = Graph::gnp(n, 0.35, &mut rng);
    let alice = base.perturb(2, &mut rng);
    let bob = base.perturb(2, &mut rng);
    let d = 4;
    println!(
        "G(n={n}, p=0.35): Alice has {} edges, Bob has {}, ≤ {d} edge changes apart",
        alice.num_edges(),
        bob.num_edges()
    );
    // Each side builds its party from its own graph alone.
    let params = DegreeOrderParams { h: 48, seed: 11 };
    let run = session::degree_order_alice(&alice, d, &params).and_then(|alice| {
        SessionBuilder::new(params.seed).run(alice, session::degree_order_bob(&bob, d, &params)?)
    });
    match run {
        Ok(Outcome { recovered, stats }) => {
            println!(
                "degree-ordering scheme: recovered a graph with {} edges using {stats}",
                recovered.num_edges()
            );
        }
        Err(e) => println!(
            "degree-ordering scheme: detected failure ({e}); at this small n the graph is often \
             not (h, d+1, 2d+1)-separated — Theorem 5.3 needs larger n"
        ),
    }

    // --- Degree-neighborhood scheme on a sparser graph (Theorem 5.6). --------------
    let n = 192;
    let p = 0.12;
    let base = Graph::gnp(n, p, &mut rng);
    let alice = base.perturb(1, &mut rng);
    let bob = base.perturb(1, &mut rng);
    println!(
        "\nG(n={n}, p={p}): Alice has {} edges, Bob has {}, ≤ 2 edge changes apart",
        alice.num_edges(),
        bob.num_edges()
    );
    // Both sides must agree on one bound over their packed signatures.
    let params = DegreeNeighborhoodParams::for_gnp(n, p, 13);
    let run = degree_neighborhood::agreed_params(&alice, &bob, &params).and_then(|agreed| {
        let alice = session::degree_neighborhood_alice(&alice, 2, &params, &agreed)?;
        let bob = session::degree_neighborhood_bob(&bob, 2, &params, &agreed)?;
        SessionBuilder::new(params.seed).run(alice, bob)
    });
    match run {
        Ok(Outcome { recovered, stats }) => {
            println!(
                "degree-neighborhood scheme: recovered a graph with {} edges using {stats}",
                recovered.num_edges()
            );
        }
        Err(e) => println!("degree-neighborhood scheme: detected failure ({e})"),
    }
}
