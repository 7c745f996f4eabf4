//! IBLT-of-IBLTs trial decodes are peel-only. Bob pairs each of Alice's
//! differing child tables with each of his own, and a pair that does not
//! decode only means "try the next candidate", so no trial runs the GF(2)
//! rescue. The binary holds one test, so no other test moves the process-wide
//! rescue counters while it reads them.

use recon_apps::database::{BinaryTable, SosProtocolKind};
use recon_base::rng::Xoshiro256;
use recon_iblt::{decode_rescues, rescue_failures};

/// Table 1's point: `s = 256` rows over `u = 128` columns, `d = 16` flipped bits.
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
}
