//! `sos_cascading`: the paper's core protocol (Theorem 3.7) on the Table 1
//! database shape — `s` rows of up to `h` cells with `d` flipped bits.
//!
//! A traced session runs the library's own `cascading_known_alice`/`_bob`
//! under spans; `CascadingProtocol::digest` and `reconcile` are also called
//! directly on the same inputs.

use super::{traced_run, Scale, Sessions, Verdict};
use crate::trace::span;
use recon_base::rng::split_seed;
use recon_protocol::SessionBuilder;
use recon_sos::cascading::CascadingProtocol;
use recon_sos::session::{cascading_known_alice, cascading_known_bob, TAG_SOS_DIGEST};
use recon_sos::workload::{generate_pair, WorkloadParams};
use recon_sos::{SetOfSets, SosParams};
use std::hint::black_box;

pub struct SosCascading {
    alice: SetOfSets,
    bob: SetOfSets,
    d: usize,
    max_child_size: usize,
    seed: u64,
}

impl SosCascading {
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let shape = WorkloadParams::new(scale.pick(4096, 82), 32, 1 << 30);
        let d = scale.pick(64, 4);
        let (alice, bob) = generate_pair(&shape, d, split_seed(seed, 0x505));
        Self { alice, bob, d, max_child_size: shape.max_child_size, seed }
    }

    fn params(&self, j: usize) -> SosParams {
        SosParams::new(split_seed(self.seed, j as u64), self.max_child_size)
    }
}

impl Sessions for SosCascading {
    fn block_len(&self) -> usize {
        15
    }

    fn shape(&self) -> String {
        format!(
            "{} child sets of up to {} elements, d = {} element changes; floor 8·d = {} B",
            self.alice.num_children(),
            self.max_child_size,
            self.d,
            8 * self.d
        )
    }

    fn session(&self, j: usize) -> Verdict {
        let params = self.params(j);
        let builder = SessionBuilder::new(params.seed);
        let amplification = builder.config().amplification;
        let result =
            cascading_known_alice(&self.alice, self.d, &params, amplification).and_then(|alice| {
                builder.run(alice, cascading_known_bob(&self.bob, &params, amplification))
            });
        Verdict::judge(&result, self.d, |sos| *sos == self.alice)
    }

    fn traced_session(&self, j: usize) -> Verdict {
        let params = self.params(j);
        let builder = SessionBuilder::new(params.seed);
        let amplification = builder.config().amplification;
        let (result, watched) = traced_run("core", TAG_SOS_DIGEST, &builder, || {
            Ok((
                cascading_known_alice(&self.alice, self.d, &params, amplification)?,
                cascading_known_bob(&self.bob, &params, amplification),
            ))
        });
        span("harness", "verify", move || Verdict {
            watched,
            ..Verdict::judge(&result, self.d, |sos| *sos == self.alice)
        })
    }

    fn stages(&self, j: usize) {
        let protocol = CascadingProtocol::new(self.params(j));
        let digest = span("core", "digest", || protocol.digest(&self.alice, self.d));
        black_box(span("core", "reconcile", || protocol.reconcile(&digest, &self.bob)).is_ok());
    }
}
