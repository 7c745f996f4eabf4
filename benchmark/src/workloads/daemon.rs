//! `daemon_read` and `daemon_mixed`: a `StoreDaemon` with one worker, served
//! over loopback TCP to one client that runs on the calling thread. No real
//! link is measured. Client and worker take turns (the loop is closed), and
//! the process is pinned to one CPU (`main.rs`), so a session's time is the
//! work both sides do, not where the scheduler put them.
//!
//! From the client a daemon session is one opaque `StoreClient::reconcile`
//! call, so the traced form only separates connect, mutate, reconcile and
//! close; what the server does inside is measured differentially by the probe
//! in `probes.rs` on an in-process `SketchStore` with the same contents.

use super::{Sample, Scale, Teardown, TraceCtx, Verdict, Workload};
use crate::trace::{self, span, Span};
use recon_base::rng::{split_seed, Xoshiro256};
use recon_protocol::{buffer_pool_stats, Outcome};
use recon_set::full_digest_builds;
use recon_store::{
    MemoryBackend, ReconcileReport, SketchStore, StoreClient, StoreConfig, StoreDaemon,
};
use std::collections::{HashSet, VecDeque};
use std::net::SocketAddr;
use std::time::Instant;

/// Difference bound `daemon_read` clients ask for (the ladder's first rung).
const READ_BOUND: u64 = 16;
/// Keys a `daemon_read` client's copy has drifted by.
const READ_DRIFT: usize = 12;

pub fn distinct_keys(count: usize, rng: &mut Xoshiro256) -> Vec<u64> {
    let mut seen = HashSet::with_capacity(count);
    while seen.len() < count {
        seen.insert(rng.next_u64());
    }
    let mut keys: Vec<u64> = seen.into_iter().collect();
    keys.sort_unstable();
    keys
}

/// An in-memory store with default config, one preloaded replica per entry.
pub fn preloaded_store(
    seed: u64,
    replicas: &[(String, &[u64])],
) -> Result<SketchStore<MemoryBackend>, String> {
    let config = StoreConfig::default().with_seed(split_seed(seed, 0xDAE));
    let mut store = SketchStore::open(MemoryBackend::new(), config).map_err(|e| e.to_string())?;
    for (name, keys) in replicas {
        store.open_replica(name).map_err(|e| e.to_string())?;
        store.insert(name, keys).map_err(|e| e.to_string())?;
    }
    Ok(store)
}

/// The served daemon plus the process-wide counters as they stood when it
/// came up.
struct Hosted {
    daemon: StoreDaemon<MemoryBackend>,
    addr: SocketAddr,
    digest_builds_at_start: u64,
    pool_at_start: recon_protocol::BufferPoolStats,
    sessions: u64,
}

impl Hosted {
    fn bind(store: SketchStore<MemoryBackend>) -> Result<Self, String> {
        let daemon = StoreDaemon::bind("127.0.0.1:0", store, 1).map_err(|e| e.to_string())?;
        Ok(Self {
            addr: daemon.local_addr(),
            daemon,
            digest_builds_at_start: full_digest_builds(),
            pool_at_start: buffer_pool_stats(),
            sessions: 0,
        })
    }

    /// Shut down and turn the counters into per-layer values.
    fn teardown(self, require_cached: bool) -> Teardown {
        let (stats, _store) = self.daemon.shutdown();
        let rebuilds = full_digest_builds() - self.digest_builds_at_start;
        let pool = buffer_pool_stats();
        let checkouts =
            (pool.hits + pool.misses) - (self.pool_at_start.hits + self.pool_at_start.misses);
        let misses = pool.misses - self.pool_at_start.misses;
        let cached_share = 1.0 - rebuilds as f64 / self.sessions.max(1) as f64;
        let mut violations = Vec::new();
        if stats.failed != 0 {
            violations.push(format!("ServerStats::failed = {} (expected 0)", stats.failed));
        }
        if require_cached && rebuilds != 0 {
            violations.push(format!(
                "{rebuilds} full digest builds over {} sessions (cached_serve_share must be 1)",
                self.sessions
            ));
        }
        Teardown {
            violations,
            counters: vec![
                ("runtime.failed_conns", stats.failed as f64),
                ("runtime.pool_miss_share", misses as f64 / checkouts.max(1) as f64),
                ("store.cached_serve_share", cached_share),
            ],
        }
    }
}

/// A daemon-served reconciliation as the `Outcome` every session is judged by.
fn outcome(report: ReconcileReport) -> Outcome<HashSet<u64>> {
    Outcome { recovered: report.recovered, stats: report.stats }
}

/// Run `sessions` sessions one after the other on this thread, under spans
/// when `trace` is set.
fn run_sessions(
    sessions: usize,
    trace: Option<TraceCtx>,
    samples: &mut Vec<Sample>,
    mut session: impl FnMut() -> Sample,
) -> Vec<Span> {
    if let Some(ctx) = trace {
        trace::start(ctx.epoch);
    }
    for j in 0..sessions {
        if let Some(ctx) = trace {
            trace::set_session(ctx.session_base + j as u32);
        }
        samples.push(session());
    }
    trace::finish()
}

// ---------------------------------------------------------------------------
// daemon_read
// ---------------------------------------------------------------------------

const READ_REPLICA: &str = "bench";

pub struct DaemonRead {
    hosted: Hosted,
    /// The client's drifted copy; every session dials afresh.
    local: HashSet<u64>,
    truth: HashSet<u64>,
}

impl DaemonRead {
    pub fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let mut rng = Xoshiro256::new(split_seed(seed, 0xDA01));
        let keys = distinct_keys(scale.pick(10_000, 200), &mut rng);
        let hosted = Hosted::bind(preloaded_store(seed, &[(READ_REPLICA.to_string(), &keys)])?)?;
        let truth: HashSet<u64> = keys.iter().copied().collect();
        let mut local = truth.clone();
        for key in keys.iter().skip(rng.next_index(keys.len() / 2)).take(READ_DRIFT / 2) {
            local.remove(key);
        }
        while local.len() < truth.len() {
            local.insert(rng.next_u64());
        }
        Ok(Self { hosted, local, truth })
    }

    /// connect → reconcile → close → verify. The traced and the opaque session
    /// are the same calls: `span` is inert unless the block is traced.
    fn session(&self) -> Sample {
        let start = Instant::now();
        let verdict = span("harness", "session", || {
            let report = span("runtime", "connect", || StoreClient::connect(self.hosted.addr))
                .and_then(|mut client| {
                    let report = span("store", "client_reconcile", || {
                        client.reconcile(READ_REPLICA, &self.local, Some(READ_BOUND))
                    });
                    span("runtime", "close", || client.close())?;
                    report
                });
            span("harness", "verify", || {
                Verdict::judge(&report.map(outcome), READ_DRIFT, |set| *set == self.truth)
            })
        });
        Sample { latency_ns: start.elapsed().as_nanos() as u64, verdict }
    }
}

impl Workload for DaemonRead {
    fn block_len(&self) -> usize {
        512
    }

    fn shape(&self) -> String {
        format!(
            "closed loop, 1 client × 1 connection per session, daemon with 1 worker, loopback TCP \
             (no real link); replica of {} keys, client drift {READ_DRIFT}, bound {READ_BOUND}; \
             floor 8·d = {} B",
            self.truth.len(),
            8 * READ_DRIFT
        )
    }

    fn run_block(&mut self, trace: Option<TraceCtx>, samples: &mut Vec<Sample>) -> Vec<Span> {
        self.hosted.sessions += self.block_len() as u64;
        run_sessions(self.block_len(), trace, samples, || self.session())
    }

    fn finish(self: Box<Self>) -> Teardown {
        self.hosted.teardown(true)
    }
}

// ---------------------------------------------------------------------------
// daemon_mixed
// ---------------------------------------------------------------------------

/// Iterations in one lap of the client's key ring, which is one block.
const MIXED_LAP: usize = 192;
const MIXED_REPLICA: &str = "mixed";

/// The client's persistent connection, its own copy, and a model of what the
/// replica must hold.
pub struct DaemonMixed {
    hosted: Hosted,
    client: StoreClient,
    /// The bound a reconcile falls back to: the top rung of the replica's
    /// ladder.
    fallback_bound: u64,
    base_keys: usize,
    mine: HashSet<u64>,
    model: HashSet<u64>,
    /// Key batches inserted round-robin, each deleted again two iterations
    /// later, so after any whole number of laps the replica is back in the
    /// same state and every block does identical work.
    ring: Vec<Vec<u64>>,
    /// The batches the replica currently holds on top of its base keys.
    live: VecDeque<Vec<u64>>,
    iteration: usize,
    /// The last session failed even with the fallback, so `mine` is behind by
    /// more than this iteration's own mutations.
    behind: bool,
}

impl DaemonMixed {
    pub fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let batch = scale.pick(48, 4);
        let base_keys = scale.pick(10_000, 200);
        let mut rng = Xoshiro256::new(split_seed(seed, 0xDA02));
        let all = distinct_keys(base_keys + MIXED_LAP * batch, &mut rng);
        let (base, fresh) = all.split_at(base_keys);
        let hosted = Hosted::bind(preloaded_store(seed, &[(MIXED_REPLICA.to_string(), base)])?)?;
        let mut client = StoreClient::connect(hosted.addr).map_err(|e| e.to_string())?;
        let params = client.open(MIXED_REPLICA).map_err(|e| e.to_string())?;
        let mine: HashSet<u64> = base.iter().copied().collect();
        Ok(Self {
            hosted,
            client,
            fallback_bound: *params.ladder.last().ok_or("replica without a ladder")? as u64,
            base_keys,
            model: mine.clone(),
            mine,
            ring: fresh.chunks(batch).map(<[u64]>::to_vec).collect(),
            live: VecDeque::new(),
            iteration: 0,
            behind: false,
        })
    }

    /// One iteration: insert a batch, delete the batch inserted two
    /// iterations ago, reconcile, verify, adopt. Only reconcile → verified
    /// output is the session's latency; the mutations take their share of the
    /// block's wall-clock, i.e. of `sessions_per_s`.
    ///
    /// With `d_bound = None` the daemon sizes the session from a strata
    /// estimate. About once in 1500 iterations the estimate comes out far
    /// under the true difference, the rung is too small and every attempt
    /// fails; the client then does what a real one would and asks again with
    /// the ladder's top rung. The second reconcile is part of the session: its
    /// time is in the latency, and bytes and rounds are those of the reconcile
    /// that succeeded (an error carries no `CommStats`).
    fn iterate(&mut self) -> Sample {
        let insert = self.ring[self.iteration % self.ring.len()].clone();
        self.iteration += 1;
        let mut d_true =
            span("store", "client_insert", || self.client.insert(MIXED_REPLICA, &insert))
                .map_or(0, |(applied, _)| applied as usize);
        self.model.extend(insert.iter().copied());
        self.live.push_back(insert);
        if self.live.len() > 2 {
            let delete = self.live.pop_front().expect("three live batches");
            d_true += span("store", "client_delete", || self.client.delete(MIXED_REPLICA, &delete))
                .map_or(0, |(applied, _)| applied as usize);
            for key in &delete {
                self.model.remove(key);
            }
        }
        if self.behind {
            d_true = self.mine.symmetric_difference(&self.model).count();
        }

        let start = Instant::now();
        let verdict = span("harness", "session", || {
            let report = span("store", "client_reconcile", || {
                self.client.reconcile(MIXED_REPLICA, &self.mine, None).or_else(|_| {
                    self.client.reconcile(MIXED_REPLICA, &self.mine, Some(self.fallback_bound))
                })
            });
            span("harness", "verify", || {
                let result = report.map(outcome);
                let verdict = Verdict::judge(&result, d_true, |set| *set == self.model);
                self.behind = !verdict.ok;
                if let Ok(outcome) = result {
                    self.mine = outcome.recovered;
                }
                verdict
            })
        });
        Sample { latency_ns: start.elapsed().as_nanos() as u64, verdict }
    }
}

impl Workload for DaemonMixed {
    fn block_len(&self) -> usize {
        MIXED_LAP
    }

    fn shape(&self) -> String {
        let batch = self.ring[0].len();
        format!(
            "closed loop, 1 client × 1 persistent connection, daemon with 1 worker, loopback TCP \
             (no real link); replica of {} keys, each iteration inserts {batch} and deletes \
             {batch} then reconciles with a client-built strata estimator; floor 8·d = {} B",
            self.base_keys,
            8 * 2 * batch
        )
    }

    fn run_block(&mut self, trace: Option<TraceCtx>, samples: &mut Vec<Sample>) -> Vec<Span> {
        self.hosted.sessions += MIXED_LAP as u64;
        run_sessions(MIXED_LAP, trace, samples, || self.iterate())
    }

    fn finish(self: Box<Self>) -> Teardown {
        let this = *self;
        // The client first, so the daemon retires its connection cleanly. The
        // daemon counters describe `daemon_read`'s serving path; here only
        // the invariants matter.
        let closed = this.client.close();
        let mut violations = this.hosted.teardown(false).violations;
        if let Err(error) = closed {
            violations.push(format!("closing the client: {error}"));
        }
        Teardown { violations, counters: Vec::new() }
    }
}
