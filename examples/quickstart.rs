//! Quickstart: reconcile two sets of sets with every protocol in the crate.
//!
//! Run with: `cargo run -p recon-examples --release --example quickstart`
//!
//! Alice and Bob each hold 256 child sets of up to 64 elements; Bob's copy has
//! drifted by 8 element-level changes. Each protocol lets Bob recover Alice's data,
//! and we print the measured communication so the Table 1 trade-offs are visible.
//! Every run is the same two steps: each side builds its party from its own data,
//! and `SessionBuilder::run` moves and meters the messages between them.

use recon_base::ReconError;
use recon_protocol::{Amplification, Outcome, SessionBuilder};
use recon_sos::workload::{generate_pair, WorkloadParams};
use recon_sos::{matching_difference, session, SetOfSets, SosParams};

fn main() -> Result<(), ReconError> {
    let workload = WorkloadParams::new(256, 64, 1 << 30);
    let d = 8;
    let (alice, bob) = generate_pair(&workload, d, 2024);
    println!(
        "workload: s = {} child sets, h ≤ {}, n = {} elements, ground-truth d = {}",
        alice.num_children(),
        workload.max_child_size,
        alice.total_elements(),
        matching_difference(&alice, &bob),
    );

    let (p, d_hat, run) = (&SosParams::new(7, workload.max_child_size), d, SessionBuilder::new(7));
    // The one-round families retry under fresh hash functions: Theorem 3.7 up to
    // four times, the others three.
    let (three, four) = (Amplification::replicate(3), Amplification::replicate(4));
    let runs: Vec<(&str, Outcome<SetOfSets>)> = vec![
        (
            "naive (Thm 3.3)",
            run.run(
                session::naive_known_alice(&alice, d_hat, p, three)?,
                session::naive_known_bob(&bob, p, three),
            )?,
        ),
        (
            "IBLT of IBLTs (Thm 3.5)",
            run.run(
                session::ioi_known_alice(&alice, d, d_hat, p, three)?,
                session::ioi_known_bob(&bob, p, three),
            )?,
        ),
        (
            "cascading (Thm 3.7)",
            run.run(
                session::cascading_known_alice(&alice, d, p, four)?,
                session::cascading_known_bob(&bob, p, four),
            )?,
        ),
        (
            "multi-round (Thm 3.9)",
            run.run(
                session::multiround_known_alice(&alice, d, d_hat, p)?,
                session::multiround_known_bob(&bob, p),
            )?,
        ),
    ];

    println!("\n{:<26} {:>12} {:>8} {:>10}", "protocol", "bytes", "rounds", "correct");
    for (name, outcome) in &runs {
        println!(
            "{:<26} {:>12} {:>8} {:>10}",
            name,
            outcome.stats.total_bytes(),
            outcome.stats.rounds,
            outcome.recovered == alice,
        );
    }

    // Unknown-d variants need no prior bound at all: Corollary 3.8 doubles it per
    // attempt, up to a cap both sides can agree on.
    let doubling =
        Amplification::doubling(2, 2 * (alice.total_elements() + bob.total_elements() + 2));
    let unknown = run.run(
        session::cascading_unknown_alice(&alice, p, doubling)?,
        session::cascading_unknown_bob(&bob, p, doubling),
    )?;
    println!(
        "\ncascading with unknown d (Cor 3.8): {} bytes in {} rounds, correct = {}",
        unknown.stats.total_bytes(),
        unknown.stats.rounds,
        unknown.recovered == alice
    );
    Ok(())
}
