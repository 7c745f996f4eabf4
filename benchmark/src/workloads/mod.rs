//! The six session workloads and the interface the runner drives them through.
//!
//! Every workload is a **closed loop**: the next session starts when the
//! previous one has been verified. A block is a fixed list of sessions;
//! session `j` of *every* block runs under `split_seed(seed, j)`, so all blocks
//! do identical work and the exact metrics (bytes, rounds, ok share) do not
//! depend on how many blocks a run had time for. Inputs and session seeds come
//! from `--seed` alone — never from trying the library out — so two commits
//! are always timed on the same sessions, and a session that fails is counted.

pub mod daemon;
pub mod graph;
pub mod sets;
pub mod sos;

use crate::trace::{self, span, Span};
use recon_base::ReconError;
use recon_protocol::{Envelope, Outcome, Party, SessionBuilder, Step};
use std::cell::Cell;
use std::time::Instant;

/// Workload names in run order; why each exists is in `BENCHMARK.json` and the
/// README.
pub const WORKLOADS: [&str; 6] =
    ["set_known", "set_unknown", "sos_cascading", "graph_gnp", "daemon_read", "daemon_mixed"];

/// Input sizes: the real ones, or the 1/50 smoke sizes of `--check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Check,
}

impl Scale {
    /// `full` at full scale, `check` under `--check`.
    pub fn pick(self, full: usize, check: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Check => check,
        }
    }
}

/// What one session produced, after checking it against ground truth.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verdict {
    /// The session completed and its output equals Alice's data.
    pub ok: bool,
    /// The session returned an output that differs from ground truth — the
    /// one outcome that must never happen (a detected failure is `!ok` only).
    pub wrong: bool,
    pub wire_bytes: u64,
    pub rounds: u64,
    /// True size of the difference reconciled, the `8·d` byte floor's `d`.
    pub d_true: u64,
    /// Envelopes sent under the tag a traced session watches (its digest tag,
    /// or the graph scheme's nested charge), and the bytes they charged. Zero
    /// in an opaque session.
    pub watched: Watched,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Watched {
    pub messages: u64,
    pub bytes: u64,
}

impl Verdict {
    /// Judge a session result; `matches` compares the output with ground truth.
    pub fn judge<T>(
        result: &Result<Outcome<T>, ReconError>,
        d_true: usize,
        matches: impl FnOnce(&T) -> bool,
    ) -> Self {
        match result {
            Ok(outcome) => {
                let ok = matches(&outcome.recovered);
                Verdict {
                    ok,
                    wrong: !ok,
                    wire_bytes: outcome.stats.total_bytes() as u64,
                    rounds: outcome.stats.rounds as u64,
                    d_true: d_true as u64,
                    watched: Watched::default(),
                }
            }
            Err(_) => Verdict { d_true: d_true as u64, ..Verdict::default() },
        }
    }
}

/// One timed session.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Party construction → verified output.
    pub latency_ns: u64,
    pub verdict: Verdict,
}

/// Where a traced block records to.
#[derive(Debug, Clone, Copy)]
pub struct TraceCtx {
    /// Shared time origin of the run.
    pub epoch: Instant,
    /// Session id of the block's first session.
    pub session_base: u32,
}

/// What a workload reports when it is torn down.
#[derive(Debug, Default)]
pub struct Teardown {
    /// Invariants that did not hold; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// Counts only the workload can see (server statistics, the process-wide
    /// counters' change over its lifetime), named like the per-layer metric
    /// they feed.
    pub counters: Vec<(&'static str, f64)>,
}

/// What the runner needs from a workload.
pub trait Workload {
    /// Sessions in one block, over all clients.
    fn block_len(&self) -> usize;

    /// The load shape, stated with the results.
    fn shape(&self) -> String;

    /// Run one block, pushing one sample per session. With `trace` set, run
    /// every session under spans and hand the spans back.
    fn run_block(&mut self, trace: Option<TraceCtx>, samples: &mut Vec<Sample>) -> Vec<Span>;

    /// Tear down: stop what was started, check invariants, hand over counters.
    fn finish(self: Box<Self>) -> Teardown;
}

/// An in-memory, single-threaded workload: two parties over a `MemoryLink`.
pub trait Sessions {
    fn block_len(&self) -> usize;
    fn shape(&self) -> String;
    /// The opaque session the end-to-end metrics time: party construction
    /// through verified output.
    fn session(&self, j: usize) -> Verdict;
    /// The same session — the library's own parties, via [`traced_run`] —
    /// under spans.
    fn traced_session(&self, j: usize) -> Verdict;
    /// The public calls a session is made of, called directly on the session's
    /// inputs, one span each. They run beside the traced session, not inside it.
    fn stages(&self, _j: usize) {}
}

impl<S: Sessions> Workload for S {
    fn block_len(&self) -> usize {
        Sessions::block_len(self)
    }

    fn shape(&self) -> String {
        format!("closed loop, 1 thread, in-memory link; {}", Sessions::shape(self))
    }

    fn run_block(&mut self, trace: Option<TraceCtx>, samples: &mut Vec<Sample>) -> Vec<Span> {
        if let Some(ctx) = trace {
            trace::start(ctx.epoch);
        }
        for j in 0..Sessions::block_len(self) {
            if let Some(ctx) = trace {
                trace::set_session(ctx.session_base + j as u32);
            }
            let start = Instant::now();
            let verdict = match trace {
                None => self.session(j),
                Some(_) => span("harness", "session", || self.traced_session(j)),
            };
            samples.push(Sample { latency_ns: start.elapsed().as_nanos() as u64, verdict });
            if trace.is_some() {
                span("harness", "stages", || self.stages(j));
            }
        }
        trace::finish()
    }

    fn finish(self: Box<Self>) -> Teardown {
        Teardown::default()
    }
}

/// A library party with a span around each of its two operations, tallying
/// the envelopes it sends under the watched tag.
struct Spanned<'a, P> {
    inner: P,
    layer: &'static str,
    poll: &'static str,
    handle: &'static str,
    watch: u16,
    watched: &'a Cell<Watched>,
}

impl<P: Party> Party for Spanned<'_, P> {
    type Output = P::Output;

    fn poll_send(&mut self) -> Option<Envelope> {
        let envelope = span(self.layer, self.poll, || self.inner.poll_send())?;
        if envelope.tag == self.watch {
            let seen = self.watched.get();
            self.watched.set(Watched {
                messages: seen.messages + 1,
                bytes: seen.bytes + envelope.charged_bytes() as u64,
            });
        }
        Some(envelope)
    }

    fn handle(&mut self, envelope: Envelope) -> Result<Step<P::Output>, ReconError> {
        span(self.layer, self.handle, || self.inner.handle(envelope))
    }
}

/// A session of the library's own parties under spans: `party_build` around
/// the factories, `run` around `SessionBuilder::run`, and inside it one span
/// per `poll_send`/`handle` of either party, all but `run` charged to `layer`.
/// What `run` keeps for itself is the driver. Also returns what was sent under
/// the `watch` tag.
pub fn traced_run<A: Party, B: Party>(
    layer: &'static str,
    watch: u16,
    builder: &SessionBuilder,
    build: impl FnOnce() -> Result<(A, B), ReconError>,
) -> (Result<Outcome<B::Output>, ReconError>, Watched) {
    let watched = Cell::new(Watched::default());
    let result = span(layer, "party_build", build).and_then(|(alice, bob)| {
        let alice = Spanned {
            inner: alice,
            layer,
            poll: "alice_poll_send",
            handle: "alice_handle",
            watch,
            watched: &watched,
        };
        let bob = Spanned {
            inner: bob,
            layer,
            poll: "bob_poll_send",
            handle: "bob_handle",
            watch,
            watched: &watched,
        };
        span("protocol", "run", || builder.run(alice, bob))
    });
    (result, watched.get())
}

/// Build workload `name` from `seed` (this is what `setup_s` times).
pub fn build(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "set_known" => Box::new(sets::SetKnown::setup(seed, scale)),
        "set_unknown" => Box::new(sets::SetUnknown::setup(seed, scale)),
        "sos_cascading" => Box::new(sos::SosCascading::setup(seed, scale)),
        "graph_gnp" => Box::new(graph::GraphGnp::setup(seed, scale)),
        "daemon_read" => Box::new(daemon::DaemonRead::setup(seed, scale)?),
        "daemon_mixed" => Box::new(daemon::DaemonMixed::setup(seed, scale)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}
