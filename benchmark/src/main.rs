//! `recon-benchmark`: the end-to-end and per-layer benchmark of the recon
//! workspace. See `benchmark/README.md` for what is measured and why.
//!
//! ```text
//! recon-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--check]
//! recon-benchmark run all [--seed <u64>] [--seconds <s>] [--trace] [--check] [--json <file>]
//! recon-benchmark compare <a.jsonl> <b.jsonl>
//! ```
//!
//! The first form runs one workload in this process and ends its output with
//! one JSON line (the form `BENCHMARK.json`'s `command` is completed to).
//! `run all` runs every workload in a child process of its own, so
//! `peak_rss_mb` is per workload. Run from the repository root.

mod compare;
mod json;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Value;
use report::Spec;
use run::Options;
use std::io::Write;
use std::path::Path;
use std::process::{Command, ExitCode};
use workloads::{Scale, WORKLOADS};

/// Where the traced pass writes `<workload>.trace.json`, relative to the
/// repository root.
const TRACE_DIR: &str = "benchmark/out";
/// Timed seconds per run under `--check`.
const CHECK_SECONDS: f64 = 0.2;

const USAGE: &str = "usage:
  recon-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--check]
  recon-benchmark run all [--seed <u64>] [--seconds <s>] [--trace] [--check] [--json <file>]
  recon-benchmark compare <a.jsonl> <b.jsonl>
workloads: set_known set_unknown sos_cascading graph_gnp daemon_read daemon_mixed";

/// The flags shared by the single-workload and the `run all` forms.
#[derive(Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    check: bool,
    json: Option<String>,
}

fn parse_flags(args: &[String], trace_takes_value: bool) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => flags.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds {seconds} is out of range"));
                }
                flags.seconds = Some(seconds);
            }
            "--trace" if trace_takes_value => match value()?.as_str() {
                "0" => flags.trace = false,
                "1" => flags.trace = true,
                other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            },
            "--trace" => flags.trace = true,
            "--check" => flags.check = true,
            "--json" => flags.json = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(flags)
}

/// Run one workload in this process; the last line printed is the result.
fn run_one(flags: Flags) -> Result<bool, String> {
    let scale = if flags.check { Scale::Check } else { Scale::Full };
    let opts = Options {
        workload: flags.workload.ok_or("--workload is required")?,
        seed: flags.seed.ok_or("--seed is required")?,
        seconds: match flags.seconds {
            Some(seconds) if !flags.check => seconds,
            None if !flags.check => return Err("--seconds is required".to_string()),
            _ => CHECK_SECONDS,
        },
        scale,
    };
    let report = if flags.trace {
        run::traced(&opts, Path::new(TRACE_DIR))?
    } else {
        run::end_to_end(&opts)?
    };
    let mut correct = report.correct;
    if flags.check {
        let spec = Spec::load()?;
        let listed = if flags.trace { &spec.per_layer } else { &spec.end_to_end };
        let problems = Spec::check(listed, &report.metrics);
        for problem in &problems {
            println!("  CHECK FAILED: {problem}");
        }
        correct &= problems.is_empty();
    }
    println!("{}", report.to_json());
    Ok(correct)
}

/// One child run of `run all`.
struct ChildRun {
    workload: &'static str,
    trace: bool,
    /// The parsed result line, when the child printed one.
    report: Option<Value>,
    succeeded: bool,
}

fn spawn_child(
    workload: &'static str,
    trace: bool,
    seed: u64,
    seconds: f64,
    check: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["--workload", workload, "--seed", &seed.to_string()]);
    command.args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    if check {
        command.arg("--check");
    }
    let output = command.output().map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let report = lines.last().and_then(|line| json::parse(line).ok());
    if report.is_some() {
        lines.pop();
    }
    for line in lines {
        println!("{line}");
    }
    std::io::stderr().write_all(&output.stderr).map_err(|e| e.to_string())?;
    Ok(ChildRun { workload, trace, report, succeeded: output.status.success() })
}

fn summary(runs: &[ChildRun]) {
    println!("\nsummary (end-to-end pass):");
    let Some(names) = runs
        .iter()
        .find(|r| !r.trace && r.report.is_some())
        .and_then(|r| r.report.as_ref()?.get("metrics")?.as_object())
        .map(|fields| fields.iter().map(|(name, _)| name.clone()).collect::<Vec<_>>())
    else {
        println!("  no end-to-end results");
        return;
    };
    print!("{:<24}", "metric");
    for run in runs.iter().filter(|r| !r.trace) {
        print!(" {:>14}", run.workload);
    }
    println!();
    for name in names {
        print!("{name:<24}");
        for run in runs.iter().filter(|r| !r.trace) {
            let value = run
                .report
                .as_ref()
                .and_then(|r| r.get("metrics")?.get(&name)?.get("value")?.as_f64());
            match value {
                Some(value) => print!(" {value:>14.5}"),
                None => print!(" {:>14}", "—"),
            }
        }
        println!();
    }
}

fn run_all(flags: Flags) -> Result<bool, String> {
    let seed = flags.seed.unwrap_or(1);
    let seconds = match flags.seconds {
        Some(seconds) => seconds,
        None => Spec::load()?.run_seconds,
    };
    println!(
        "recon-benchmark: TCP workloads run over loopback, no real link is measured; every \
         workload runs in its own process"
    );
    // `--check` exercises both passes; otherwise `--trace` picks the traced one.
    let passes: &[bool] = if flags.check { &[false, true] } else { &[flags.trace] };
    let mut runs = Vec::new();
    for workload in WORKLOADS {
        for &trace in passes {
            println!();
            runs.push(spawn_child(workload, trace, seed, seconds, flags.check)?);
        }
    }
    if passes.contains(&false) {
        summary(&runs);
    }
    if let Some(path) = &flags.json {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        for run in &runs {
            if let Some(report) = &run.report {
                let record = Value::Obj(vec![
                    ("workload".into(), Value::Str(run.workload.into())),
                    ("seed".into(), Value::Num(seed as f64)),
                    ("trace".into(), Value::Num(f64::from(u8::from(run.trace)))),
                    ("report".into(), report.clone()),
                ]);
                writeln!(file, "{record}").map_err(|e| format!("{path}: {e}"))?;
            }
        }
    }
    let failed: Vec<String> = runs
        .iter()
        .filter(|r| !r.succeeded || r.report.is_none())
        .map(|r| format!("{} (trace {})", r.workload, u8::from(r.trace)))
        .collect();
    if failed.is_empty() {
        println!("\nall {} runs correct", runs.len());
    } else {
        println!("\nFAILED: {}", failed.join(", "));
    }
    Ok(failed.is_empty())
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => match args.get(1).map(String::as_str) {
            Some("all") => run_all(parse_flags(&args[2..], false)?),
            _ => Err("`run` takes `all`".to_string()),
        },
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a, b),
            _ => Err("`compare` takes two run-set files".to_string()),
        },
        Some(_) => run_one(parse_flags(args, true)?),
        None => Err("no arguments".to_string()),
    }
}

/// Pin this process — and with it every thread and child it starts — to one of
/// the CPUs it may run on (the last), and say which.
///
/// On the shared hosts this runs on, where the scheduler puts two threads that
/// take turns decides most of what a loopback session costs: on one core a
/// hand-over is a context switch, across cores it is an inter-processor
/// interrupt into a halted virtual CPU, and the host wakes that one up when it
/// pleases (over ten runs `daemon_read`'s median session read 0.83 – 1.19 ms as
/// measured, 0.56 – 0.64 ms pinned). Every workload is a closed loop in which
/// one thread works at a time, so one CPU is all it can use. What this hides: a
/// change that overlaps client and daemon work.
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls get a pointer to `size` bytes that live across them;
    // pid 0 is the calling thread, from which new threads inherit.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|&w| w != 0)?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: as above.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(64 * word + bit)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a != "compare") {
        match pin_to_one_cpu() {
            Some(cpu) => println!("recon-benchmark: pinned to CPU {cpu}"),
            None => println!("recon-benchmark: could not pin to one CPU; timings will be noisier"),
        }
    }
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("recon-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
