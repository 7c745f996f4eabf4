//! Trial decodes in a matching walk are peel-only. IBLT-of-IBLTs Bob pairs
//! each of Alice's differing child tables with each of his own, and the
//! cascade's Bob tries each recovered child against its nearest candidates; a
//! pair that does not decode only means "try the next candidate", so no trial
//! runs the GF(2) rescue. The binary holds one test, so no other test moves the
//! process-wide rescue counters while it reads them.

use recon_apps::database::{BinaryTable, SosProtocolKind};
use recon_base::rng::{split_seed, Xoshiro256};
use recon_iblt::{decode_rescues, rescue_failures};
use recon_protocol::SessionBuilder;
use recon_sos::session::{cascading_known_alice, cascading_known_bob};
use recon_sos::workload::{generate_pair, WorkloadParams};
use recon_sos::SosParams;

/// Table 1's point: `s = 256` rows over `u = 128` columns, `d = 16` flipped
/// bits. Then the cascade on the `sos_cascading` benchmark shape: 4096 child
/// sets of up to 32 elements, `d = 64`.
#[test]
fn an_honest_table_1_ioi_session_runs_no_rescue() {
    let (s, u, d) = (256, 128, 16);
    for seed in 1..6 {
        let mut rng = Xoshiro256::new(seed);
        let alice = BinaryTable::random(s, u, 0.5, &mut rng);
        let bob = alice.flip_bits(d, &mut rng);
        let before = (decode_rescues(), rescue_failures());
        let outcome = bob.reconcile_from(&alice, d, SosProtocolKind::IbltOfIblts, 7).unwrap();
        assert_eq!(outcome.recovered, alice, "seed {seed}");
        assert_eq!((decode_rescues(), rescue_failures()), before, "seed {seed}: a rescue ran");
    }

    let shape = WorkloadParams::new(4096, 32, 1 << 30);
    let d = 64;
    let (alice, bob) = generate_pair(&shape, d, split_seed(1, 0x505));
    for j in 0..4 {
        let params = SosParams::new(split_seed(1, j), shape.max_child_size);
        let builder = SessionBuilder::new(params.seed);
        let amplification = builder.config().amplification;
        let before = (decode_rescues(), rescue_failures());
        let outcome = builder
            .run(
                cascading_known_alice(&alice, d, &params, amplification).unwrap(),
                cascading_known_bob(&bob, &params, amplification),
            )
            .unwrap();
        assert_eq!(outcome.recovered, alice, "cascade session {j}");
        assert_eq!((decode_rescues(), rescue_failures()), before, "session {j}: a rescue ran");
    }
}
