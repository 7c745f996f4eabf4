//! The two passes over a workload.
//!
//! * [`end_to_end`] — the untraced pass: a session is one opaque call. One
//!   discarded warm-up block, then timed blocks until `--seconds` have passed,
//!   at least [`MIN_BLOCKS`] blocks ran and a p95 has its 200 samples. How
//!   the samples become numbers is in `stats.rs`.
//! * [`traced`] — the traced pass: replays sessions under spans, calls the
//!   stages directly, runs the layer probes, and reports every per-layer
//!   metric plus how much of an opaque session the spans explain.

use crate::probes;
use crate::report::{Metric, RunReport};
use crate::stats::{self, BlockStat, DRIFT_WINDOW, P95_MIN_SAMPLES};
use crate::trace::{self, Span};
use crate::workloads::sets::SetKnown;
use crate::workloads::{self, Sample, Scale, Teardown, TraceCtx, Workload, WORKLOADS};
use std::path::Path;
use std::time::Instant;

/// Timed blocks after which `peak_rss_mb` is read and the repeated set-ups
/// begin.
const RSS_BLOCKS: usize = 3;
/// Fewest timed blocks in a run.
const MIN_BLOCKS: usize = 7;
/// The workloads whose replay a per-layer metric is read from, in the order
/// [`stage_metrics`] lists them.
const STAGE_OWNERS: [&str; 4] = ["set_known", "sos_cascading", "graph_gnp", "daemon_read"];

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

/// Build the workload, timed.
fn timed_setup(opts: &Options) -> Result<(Box<dyn Workload>, f64), String> {
    let start = Instant::now();
    let workload = workloads::build(&opts.workload, opts.seed, opts.scale)?;
    Ok((workload, start.elapsed().as_secs_f64()))
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Latencies in ms of the sessions that succeeded.
fn ok_latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().filter(|s| s.verdict.ok).map(|s| ms(s.latency_ns)).collect()
}

fn print_metric(metric: &Metric, note: &str) {
    println!("  {:<34} {:>14.6} {:<8} {note}", metric.name, metric.value, metric.unit);
}

fn print_problems(problems: &[String]) {
    for problem in problems {
        println!("  VIOLATION: {problem}");
    }
}

pub fn end_to_end(opts: &Options) -> Result<RunReport, String> {
    // Set-up is timed here and again after every timed block from the
    // `RSS_BLOCKS`-th on, so that its moments are spread over the whole run.
    let (mut workload, first_setup) = timed_setup(opts)?;
    let mut setups = vec![first_setup];
    println!("workload {} — seed {}, {}", opts.workload, opts.seed, workload.shape());
    let block_len = workload.block_len();
    workload.run_block(None, &mut Vec::new());

    let started = Instant::now();
    let mut all: Vec<Sample> = Vec::new();
    let mut verified = 0;
    let mut block_seconds = Vec::new();
    let mut peak_rss = 0.0;
    while block_seconds.len() < MIN_BLOCKS
        || verified < P95_MIN_SAMPLES
        || started.elapsed().as_secs_f64() < opts.seconds
    {
        let block_start = Instant::now();
        workload.run_block(None, &mut all);
        block_seconds.push(block_start.elapsed().as_secs_f64());
        verified = all.iter().filter(|s| s.verdict.ok).count();
        if verified == 0 {
            // Every block runs the same sessions: none will succeed later.
            workload.finish();
            return Err(format!("no session of {} succeeded", opts.workload));
        }
        if block_seconds.len() == RSS_BLOCKS {
            // Read after a fixed amount of work, so that a store that logs
            // every mutation does not look bigger on a faster machine, and
            // before a second copy of the inputs is ever built.
            peak_rss = peak_rss_mb()?;
        }
        if block_seconds.len() >= RSS_BLOCKS {
            let (spare, seconds) = timed_setup(opts)?;
            spare.finish();
            setups.push(seconds);
        }
    }
    let timed_s = started.elapsed().as_secs_f64();
    let teardown = workload.finish();

    let ok: Vec<&Sample> = all.iter().filter(|s| s.verdict.ok).collect();
    let wrong = all.iter().filter(|s| s.verdict.wrong).count();

    let measured = ok_latencies(&all);
    let corrected = stats::drift_corrected(&measured, DRIFT_WINDOW);
    let p50 = stats::percentile(&corrected, 50.0);
    // Per block: where its verified sessions sit in `corrected`, and its
    // wall-clock taken back by as much as the correction took them back.
    let mut blocks = Vec::new();
    let mut block_rates = Vec::new();
    let mut at = 0;
    for (block, seconds) in all.chunks(block_len).zip(&block_seconds) {
        let n = block.iter().filter(|s| s.verdict.ok).count();
        let share =
            corrected[at..at + n].iter().sum::<f64>() / measured[at..at + n].iter().sum::<f64>();
        blocks.push((at..at + n, seconds * share));
        block_rates.push(n as f64 / seconds);
        at += n;
    }
    let per_stretch = P95_MIN_SAMPLES.div_ceil(block_len);
    let stretches = stats::stretches(&corrected, &blocks, per_stretch);
    if stretches.is_empty() {
        return Err(format!(
            "no stretch of {per_stretch} blocks had the {P95_MIN_SAMPLES} verified sessions a p95 needs"
        ));
    }
    let p95 = stretches.iter().map(|s| s.p95).fold(f64::INFINITY, f64::min);
    let rate = stretches.iter().map(|s| s.rate).fold(0.0, f64::max);
    let machine = BlockStat::of(&block_rates);
    // Exact metrics: integer totals over whole, identical blocks, so the
    // quotients do not depend on how many blocks ran.
    let bytes: u64 = ok.iter().map(|s| s.verdict.wire_bytes).sum();
    let rounds: u64 = ok.iter().map(|s| s.verdict.rounds).sum();
    let floor: u64 = ok.iter().map(|s| 8 * s.verdict.d_true).sum();

    let metrics = vec![
        Metric::new("setup_s", setups.iter().copied().fold(f64::INFINITY, f64::min), "s"),
        Metric::new("session_ms_p50", p50, "ms"),
        Metric::new("session_ms_p95", p95, "ms"),
        Metric::new("sessions_per_s", rate, "1/s"),
        Metric::new("wire_bytes_per_session", bytes as f64 / ok.len() as f64, "bytes"),
        Metric::new("wire_overhead_x", bytes as f64 / floor as f64, "x"),
        Metric::new("rounds_per_session", rounds as f64 / ok.len() as f64, "count"),
        Metric::new("ok_share", ok.len() as f64 / all.len() as f64, "share"),
        Metric::new("peak_rss_mb", peak_rss, "MiB"),
    ];
    println!(
        "end-to-end: {} timed blocks of {block_len} sessions in {timed_s:.2} s, {} of {} sessions \
         verified",
        block_seconds.len(),
        ok.len(),
        all.len()
    );
    for metric in &metrics {
        let note = match metric.name {
            "setup_s" => format!(
                "fastest of {} set-ups spread over the run; their median {:.6}",
                setups.len(),
                stats::median(&setups)
            ),
            "session_ms_p50" => format!(
                "drift-corrected, over {} pooled samples; as measured {:.6}",
                corrected.len(),
                stats::percentile(&measured, 50.0)
            ),
            "session_ms_p95" => format!(
                "drift-corrected, quietest of {} stretches of {} samples; over all pooled {:.6}; \
                 as measured {:.6}",
                stretches.len(),
                per_stretch * block_len,
                stats::percentile(&corrected, 95.0),
                stats::percentile(&measured, 95.0)
            ),
            "sessions_per_s" => format!(
                "verified sessions ÷ drift-corrected wall-clock, quietest stretch; over the whole \
                 run {:.6}; as measured {:.6}, by block median {:.6} with inter-quartile spread \
                 {:.1}%",
                ok.len() as f64 / blocks.iter().map(|(_, seconds)| seconds).sum::<f64>(),
                ok.len() as f64 / block_seconds.iter().sum::<f64>(),
                machine.median,
                100.0 * machine.spread()
            ),
            "wire_overhead_x" => "wire bytes ÷ 8·d_true".to_string(),
            "peak_rss_mb" => format!("VmHWM after set-up, warm-up and {RSS_BLOCKS} timed blocks"),
            _ => String::new(),
        };
        print_metric(metric, &note);
    }
    if wrong > 0 {
        println!("  VIOLATION: {wrong} session(s) returned a WRONG answer");
    }
    print_problems(&teardown.violations);
    Ok(RunReport {
        correct: wrong == 0 && teardown.violations.is_empty(),
        attempted: all.len() as u64,
        failed: (all.len() - ok.len()) as u64,
        metrics,
    })
}

/// Opaque and traced runs of the same sessions of one workload, block by block.
struct Replay {
    shape: String,
    opaque: Vec<Sample>,
    traced: Vec<Sample>,
    spans: Vec<Span>,
    teardown: Teardown,
}

impl Replay {
    /// Build workload `name`, warm it up, then run its block opaque and traced
    /// in turn — once, and again until `seconds` have passed.
    fn run(name: &str, opts: &Options, seconds: f64, epoch: Instant) -> Result<Self, String> {
        let mut workload = workloads::build(name, opts.seed, opts.scale)?;
        let shape = workload.shape();
        let (mut opaque, mut traced, mut spans) = (Vec::new(), Vec::new(), Vec::new());
        workload.run_block(None, &mut Vec::new());
        let started = Instant::now();
        while traced.is_empty() || started.elapsed().as_secs_f64() < seconds {
            workload.run_block(None, &mut opaque);
            let ctx = TraceCtx { epoch, session_base: traced.len() as u32 };
            trace::append(&mut spans, workload.run_block(Some(ctx), &mut traced));
        }
        Ok(Self { shape, opaque, traced, spans, teardown: workload.finish() })
    }

    fn all(&self) -> impl Iterator<Item = &Sample> {
        self.opaque.iter().chain(&self.traced)
    }

    /// What makes the replay incorrect, each prefixed with `name`.
    fn problems(&self, name: &str) -> Vec<String> {
        let wrong = self.all().filter(|s| s.verdict.wrong).count();
        let mut problems: Vec<String> =
            self.teardown.violations.iter().map(|v| format!("{name}: {v}")).collect();
        if wrong > 0 {
            problems.push(format!("{name}: {wrong} session(s) returned a WRONG answer"));
        }
        problems
    }

    /// Per traced session, the summed self time in ms of the spans `pick`
    /// accepts. `pick` also sees the name of the root span the span is under.
    fn self_ms_per_session(&self, pick: impl Fn(&Span, &str) -> bool) -> Vec<f64> {
        let mut per_session = vec![0u64; self.traced.len()];
        let mut root = "";
        for (span, self_ns) in self.spans.iter().zip(trace::self_times(&self.spans)) {
            if span.parent.is_none() {
                root = span.name;
            }
            if pick(span, root) {
                per_session[span.session as usize] += self_ns;
            }
        }
        per_session.into_iter().map(ms).collect()
    }

    /// What the `(layer, name)` spans cost one session: the median over the
    /// traced sessions of their self time.
    fn stage_ms(&self, layer: &str, name: &str) -> f64 {
        stats::median(&self.self_ms_per_session(|s, _| s.layer == layer && s.name == name))
    }

    /// A count over the verified traced sessions.
    fn total(&self, pick: fn(&Sample) -> u64) -> f64 {
        self.traced.iter().filter(|s| s.verdict.ok).map(pick).sum::<u64>() as f64
    }

    /// `(trace_coverage, trace_overhead_x)`: the self time of the library-layer
    /// spans under a session's root — not the harness's own spans, not what
    /// `SessionBuilder::run` keeps for itself — and the whole traced session,
    /// each as a share of the opaque run of the same session one block
    /// earlier; the median over sessions of either share.
    fn coverage(&self) -> Result<(f64, f64), String> {
        let explained = self.self_ms_per_session(|s, root| {
            root == "session" && s.layer != "harness" && (s.layer, s.name) != ("protocol", "run")
        });
        let (mut covered, mut overhead) = (Vec::new(), Vec::new());
        for ((opaque, traced), explained) in self.opaque.iter().zip(&self.traced).zip(explained) {
            if opaque.verdict.ok && traced.verdict.ok {
                covered.push(explained / ms(opaque.latency_ns));
                overhead.push(traced.latency_ns as f64 / opaque.latency_ns as f64);
            }
        }
        if covered.is_empty() {
            return Err("no session succeeded both opaque and traced".to_string());
        }
        Ok((stats::median(&covered), stats::median(&overhead)))
    }
}

fn counter(teardown: &Teardown, name: &str) -> f64 {
    teardown.counters.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |(_, v)| *v)
}

/// The per-layer metrics read from the replay of stage owner `name`.
fn stage_metrics(name: &str, replay: &Replay) -> Vec<Metric> {
    let sessions = replay.traced.len() as f64;
    let digests = replay.total(|s| s.verdict.watched.messages);
    match name {
        "set_known" => {
            let diff = replay.self_ms_per_session(|s, _| (s.layer, s.name) == ("set", "diff"));
            let reconcile =
                replay.self_ms_per_session(|s, _| (s.layer, s.name) == ("set", "reconcile"));
            let verify_apply: Vec<f64> = reconcile.iter().zip(&diff).map(|(r, d)| r - d).collect();
            vec![
                Metric::new("set.party_build_ms", replay.stage_ms("set", "party_build"), "ms"),
                Metric::new("set.digest_ms", replay.stage_ms("set", "digest"), "ms"),
                Metric::new("set.diff_ms", stats::median(&diff), "ms"),
                Metric::new("set.verify_apply_ms", stats::median(&verify_apply), "ms"),
                Metric::new("set.attempts_per_session", digests / sessions, "count"),
                Metric::new("protocol.driver_self_ms", replay.stage_ms("protocol", "run"), "ms"),
            ]
        }
        "sos_cascading" => vec![
            Metric::new("core.digest_ms", replay.stage_ms("core", "digest"), "ms"),
            Metric::new("core.reconcile_ms", replay.stage_ms("core", "reconcile"), "ms"),
            Metric::new(
                "core.digest_bytes",
                replay.total(|s| s.verdict.watched.bytes) / digests,
                "bytes",
            ),
            Metric::new("core.attempts_per_session", digests / sessions, "count"),
        ],
        "graph_gnp" => vec![
            Metric::new("graph.party_build_ms", replay.stage_ms("graph", "party_build"), "ms"),
            Metric::new(
                "graph.sos_bytes_share",
                replay.total(|s| s.verdict.watched.bytes) / replay.total(|s| s.verdict.wire_bytes),
                "share",
            ),
            Metric::new(
                "graph.ok_share",
                replay.all().filter(|s| s.verdict.ok).count() as f64 / replay.all().count() as f64,
                "share",
            ),
        ],
        "daemon_read" => {
            ["runtime.failed_conns", "runtime.pool_miss_share", "store.cached_serve_share"]
                .into_iter()
                .map(|name| {
                    let unit = if name == "runtime.failed_conns" { "count" } else { "share" };
                    Metric::new(name, counter(&replay.teardown, name), unit)
                })
                .collect()
        }
        _ => Vec::new(),
    }
}

/// The traced pass. The benchmark's contract wants every per-layer metric
/// from every traced run, whichever workload it names, so every stage owner
/// is replayed for one block and every probe runs; the workload named is
/// replayed last, for what is left of `--seconds`.
pub fn traced(opts: &Options, out_dir: &Path) -> Result<RunReport, String> {
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    let epoch = Instant::now();
    let mut metrics = Vec::new();
    let mut problems = Vec::new();
    for name in STAGE_OWNERS.into_iter().filter(|name| *name != opts.workload) {
        let replay = Replay::run(name, opts, 0.0, epoch)?;
        problems.extend(replay.problems(name));
        metrics.extend(stage_metrics(name, &replay));
    }
    let set_known = SetKnown::setup(opts.seed, opts.scale);
    metrics.extend(probes::kernels(set_known.pair(), set_known.bound(), opts.seed));
    metrics.push(probes::graph_signatures(opts.seed, opts.scale));
    metrics.extend(probes::daemon(opts.seed, opts.scale)?);

    let left = opts.seconds - epoch.elapsed().as_secs_f64();
    let named = Replay::run(&opts.workload, opts, left, epoch)?;
    problems.extend(named.problems(&opts.workload));
    metrics.extend(stage_metrics(&opts.workload, &named));

    let (coverage, overhead) = named.coverage()?;
    metrics.push(Metric::new("trace_coverage", coverage, "share"));
    metrics.push(Metric::new("trace_overhead_x", overhead, "x"));

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("{}.trace.json", opts.workload));
    let document = crate::json::Value::Obj(vec![
        ("workload".into(), crate::json::Value::Str(opts.workload.clone())),
        ("seed".into(), crate::json::Value::Num(opts.seed as f64)),
        ("spans".into(), trace::to_json(&named.spans)),
    ]);
    std::fs::write(&path, document.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;

    let sessions = named.traced.len();
    println!("workload {} — seed {}, {}", opts.workload, opts.seed, named.shape);
    println!(
        "traced pass: {sessions} sessions run opaque and traced; {} spans written to {}",
        named.spans.len(),
        path.display()
    );
    println!("  self time per traced session, by layer (the stages called beside it included):");
    for (layer, self_ns) in trace::layer_self_ns(&named.spans) {
        println!("    {layer:<10} {:>12.6} ms", ms(self_ns) / sessions as f64);
    }
    println!("per-layer metrics (probes on fixed instances; stages from their owner's replay):");
    for metric in &metrics {
        print_metric(metric, "");
    }
    if !(0.9..=1.1).contains(&overhead) {
        println!(
            "  NOTE: a traced session took {overhead:.2}× its opaque twin; this run's per-layer \
             times carry that much doubt"
        );
    }
    print_problems(&problems);
    let attempted = named.all().count() as u64;
    Ok(RunReport {
        correct: problems.is_empty(),
        attempted,
        failed: named.all().filter(|s| !s.verdict.ok).count() as u64,
        metrics,
    })
}
