//! `set_known` and `set_unknown`: plain-set sessions over the same pair of
//! sets (Corollaries 2.2 and 3.2).
//!
//! A traced session runs the library's own party factories and parties under
//! spans ([`traced_run`]); the stages of `set_known` — digest, diff, reconcile
//! — are also called directly, as the public API, on the same inputs.

use super::{traced_run, Scale, Sessions, Verdict};
use crate::trace::span;
use recon_base::rng::{split_seed, Xoshiro256};
use recon_protocol::SessionBuilder;
use recon_set::session::{
    iblt_known_alice, iblt_known_bob, unknown_alice, unknown_bob, TAG_DIGEST,
};
use recon_set::IbltSetProtocol;
use std::collections::HashSet;
use std::hint::black_box;

/// Two `n`-key sets whose symmetric difference is exactly `d`.
pub struct SetPair {
    pub alice: HashSet<u64>,
    pub bob: HashSet<u64>,
    pub d: usize,
}

impl SetPair {
    pub fn generate(n: usize, d: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256::new(seed);
        let mut draw = |count: usize, into: &mut HashSet<u64>, avoid: &HashSet<u64>| {
            let target = into.len() + count;
            while into.len() < target {
                let key = rng.next_u64();
                if !avoid.contains(&key) {
                    into.insert(key);
                }
            }
        };
        let mut alice = HashSet::with_capacity(n);
        draw(n - d / 2, &mut alice, &HashSet::new());
        let mut bob = alice.clone();
        draw(d / 2, &mut alice, &bob);
        draw(d - d / 2, &mut bob, &alice);
        Self { alice, bob, d }
    }

    fn sized(seed: u64, scale: Scale) -> Self {
        Self::generate(scale.pick(100_000, 2_000), scale.pick(1_000, 20), split_seed(seed, 0x5E7))
    }
}

pub struct SetKnown {
    pair: SetPair,
    /// The bound both parties agree on: 1.25·d.
    bound: usize,
    seed: u64,
}

impl SetKnown {
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let pair = SetPair::sized(seed, scale);
        let bound = pair.d + pair.d / 4;
        Self { pair, bound, seed }
    }

    pub fn pair(&self) -> &SetPair {
        &self.pair
    }

    pub fn bound(&self) -> usize {
        self.bound
    }
}

impl Sessions for SetKnown {
    fn block_len(&self) -> usize {
        32
    }

    fn shape(&self) -> String {
        format!(
            "n = {} u64 keys, d = {}, bound {}; floor 8·d = {} B",
            self.pair.alice.len(),
            self.pair.d,
            self.bound,
            8 * self.pair.d
        )
    }

    fn session(&self, j: usize) -> Verdict {
        let builder = SessionBuilder::new(split_seed(self.seed, j as u64));
        let config = builder.config();
        let result = iblt_known_alice(&self.pair.alice, self.bound, config)
            .and_then(|alice| builder.run(alice, iblt_known_bob(&self.pair.bob, config)));
        Verdict::judge(&result, self.pair.d, |set| *set == self.pair.alice)
    }

    fn traced_session(&self, j: usize) -> Verdict {
        let builder = SessionBuilder::new(split_seed(self.seed, j as u64));
        let config = builder.config();
        let (result, watched) = traced_run("set", TAG_DIGEST, &builder, || {
            Ok((
                iblt_known_alice(&self.pair.alice, self.bound, config)?,
                iblt_known_bob(&self.pair.bob, config),
            ))
        });
        // `move`: the recovered set is dropped inside the span, as part of verifying.
        span("harness", "verify", move || Verdict {
            watched,
            ..Verdict::judge(&result, self.pair.d, |set| *set == self.pair.alice)
        })
    }

    fn stages(&self, j: usize) {
        let protocol = IbltSetProtocol::tuned(split_seed(self.seed, j as u64));
        let digest = span("set", "digest", || protocol.digest(&self.pair.alice, self.bound));
        black_box(span("set", "diff", || protocol.diff(&digest, &self.pair.bob)).is_ok());
        black_box(span("set", "reconcile", || protocol.reconcile(&digest, &self.pair.bob)).is_ok());
    }
}

pub struct SetUnknown {
    pair: SetPair,
    seed: u64,
}

impl SetUnknown {
    pub fn setup(seed: u64, scale: Scale) -> Self {
        Self { pair: SetPair::sized(seed, scale), seed }
    }
}

impl Sessions for SetUnknown {
    fn block_len(&self) -> usize {
        29
    }

    fn shape(&self) -> String {
        format!(
            "n = {} u64 keys, d = {} (not told to the parties); floor 8·d = {} B",
            self.pair.alice.len(),
            self.pair.d,
            8 * self.pair.d
        )
    }

    fn session(&self, j: usize) -> Verdict {
        let builder = SessionBuilder::new(split_seed(self.seed, j as u64));
        let config = builder.config();
        let result = builder
            .run(unknown_alice(&self.pair.alice, config), unknown_bob(&self.pair.bob, config));
        Verdict::judge(&result, self.pair.d, |set| *set == self.pair.alice)
    }

    fn traced_session(&self, j: usize) -> Verdict {
        let builder = SessionBuilder::new(split_seed(self.seed, j as u64));
        let config = builder.config();
        let (result, watched) = traced_run("set", TAG_DIGEST, &builder, || {
            Ok((unknown_alice(&self.pair.alice, config), unknown_bob(&self.pair.bob, config)))
        });
        span("harness", "verify", move || Verdict {
            watched,
            ..Verdict::judge(&result, self.pair.d, |set| *set == self.pair.alice)
        })
    }
}
