//! `compare <a> <b>`: set two run sets side by side under the benchmark's own
//! bounds.
//!
//! A run set is the file `run all --json <file>` appends to: one JSON object
//! per line, `{"workload", "seed", "trace", "report"}`. Per workload and
//! end-to-end metric one line is printed, with a verdict:
//!
//! * Measured metrics (times, throughput, memory): both medians, by how much
//!   `b` is worse, the bound from `BENCHMARK.json`, the wider of the two
//!   sides' inter-quartile spreads. `worse` — `b`'s median is worse than `a`'s
//!   by more than the bound; `unresolved` — within the bound, but a side's own
//!   spread is wider than the bound, so "unchanged" cannot be claimed; `ok`
//!   otherwise.
//! * Exact metrics ([`EXACT`]) repeat exactly for a seed, so runs are matched
//!   by seed and any difference is a change: `ok` — every seed both sides ran
//!   gave the same value; `worse` / `better` — some seed did not, by the
//!   direction of the summed difference; `unresolved` — the sides share no seed.

use crate::json::{self, Value};
use crate::report::{Spec, SpecMetric};
use crate::stats;
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;

/// The end-to-end metrics that are counts of the program, not measurements:
/// identical for identical code, inputs and seed.
pub const EXACT: [&str; 4] =
    ["wire_bytes_per_session", "wire_overhead_x", "rounds_per_session", "ok_share"];

/// `setup_s` may also worsen by this much before it counts (the issue's "25 %
/// or 0.05 s"): most set-ups here take a few milliseconds.
const SETUP_SLACK_S: f64 = 0.05;

/// End-to-end values of one run set: `(workload, metric) → [(seed, value)]`.
type RunSet = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet::new();
    for (number, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let at = |what: &str| format!("{path}:{}: no {what}", number + 1);
        let record = json::parse(line).map_err(|e| format!("{path}:{}: {e}", number + 1))?;
        if record.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload =
            record.get("workload").and_then(Value::as_str).ok_or_else(|| at("workload"))?;
        let seed = record.get("seed").and_then(Value::as_f64).ok_or_else(|| at("seed"))? as u64;
        let metrics = record
            .get("report")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .ok_or_else(|| at("report.metrics"))?;
        for (name, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(Value::as_f64) {
                set.entry((workload.to_string(), name.clone())).or_default().push((seed, value));
            }
        }
    }
    Ok(set)
}

fn values(runs: &[(u64, f64)]) -> Vec<f64> {
    runs.iter().map(|(_, value)| *value).collect()
}

/// Inter-quartile distance as a share of the median; `None` for a single run.
fn spread(values: &[f64]) -> Option<f64> {
    stats::quartiles(values).map(|(q1, _, q3)| (q3 - q1) / stats::median(values))
}

/// By how much `b` is worse than `a`, as a share of `a`; negative when better.
fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let change = (b - a) / a;
    // `+ 0.0` turns the −0 of a negated zero change back into 0.
    if higher_is_better {
        -change + 0.0
    } else {
        change
    }
}

/// The verdict on a measured metric: `b` against `a` under `bound`, ignoring
/// a change of the medians of at most `slack` in the metric's own unit.
/// Returns `(worse_by, widest spread, verdict)`.
pub fn measured_verdict(
    a: &[f64],
    b: &[f64],
    higher_is_better: bool,
    bound: f64,
    slack: f64,
) -> (f64, Option<f64>, &'static str) {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let worse = worse_by(median_a, median_b, higher_is_better);
    let widest = [spread(a), spread(b)].into_iter().flatten().reduce(f64::max);
    let word = if worse > bound && (median_b - median_a).abs() > slack {
        "worse"
    } else if widest.is_some_and(|s| s > bound) {
        "unresolved"
    } else {
        "ok"
    };
    (worse, widest, word)
}

/// The verdict on an exact metric: runs matched by seed. Returns `(seeds both
/// sides ran, seeds whose values differ, summed worse_by over those, verdict)`.
pub fn exact_verdict(
    a: &[(u64, f64)],
    b: &[(u64, f64)],
    higher_is_better: bool,
) -> (usize, usize, f64, &'static str) {
    let by_seed: BTreeMap<u64, f64> = a.iter().copied().collect();
    let matched: Vec<(f64, f64)> =
        b.iter().filter_map(|(seed, value)| Some((*by_seed.get(seed)?, *value))).collect();
    let differing: Vec<f64> = matched
        .iter()
        .filter(|(va, vb)| va != vb)
        .map(|(va, vb)| worse_by(*va, *vb, higher_is_better))
        .collect();
    // `+ 0.0`: the sum of no differences is −0.
    let total: f64 = differing.iter().sum::<f64>() + 0.0;
    let word = match (matched.len(), differing.len()) {
        (0, _) => "unresolved",
        (_, 0) => "ok",
        _ if total > 0.0 => "worse",
        _ => "better",
    };
    (matched.len(), differing.len(), total, word)
}

fn print_measured(
    workload: &str,
    metric: &SpecMetric,
    a: &[f64],
    b: &[f64],
) -> Result<bool, String> {
    let bound = metric.bound.ok_or_else(|| format!("{}: no bound", metric.name))?;
    let slack = if metric.name == "setup_s" { SETUP_SLACK_S } else { 0.0 };
    let (worse, widest, word) = measured_verdict(a, b, metric.higher_is_better, bound, slack);
    println!(
        "{workload:<14} {:<24} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}% {:>8}  {word}",
        metric.name,
        stats::median(a),
        stats::median(b),
        100.0 * worse,
        100.0 * bound,
        widest.map_or("n/a".to_string(), |s| format!("{:.2}%", 100.0 * s)),
    );
    Ok(word != "worse")
}

fn print_exact(workload: &str, metric: &SpecMetric, a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    let (matched, differing, total, word) = exact_verdict(a, b, metric.higher_is_better);
    println!(
        "{workload:<14} {:<24} {:>14.6} {:>14.6} {:>8.2}% {:>7} {:>8}  {word}",
        metric.name,
        stats::median(&values(a)),
        stats::median(&values(b)),
        100.0 * total,
        "exact",
        format!("{differing}/{matched}"),
    );
    word != "worse"
}

/// Print the comparison; `Ok(true)` when nothing is `worse`.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let spec = Spec::load()?;
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    println!("a = {path_a}\nb = {path_b}\nworse_by > 0 means b is worse than a");
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "median a", "median b", "worse_by", "bound", "spread"
    );
    println!(
        "(exact metrics are matched by seed: `spread` is then seeds that differ / seeds both ran, \
         `worse_by` their sum)"
    );
    for workload in WORKLOADS {
        for metric in &spec.end_to_end {
            let key = (workload.to_string(), metric.name.clone());
            let (Some(runs_a), Some(runs_b)) = (a.get(&key), b.get(&key)) else {
                println!("{workload:<14} {:<24} missing from a run set", metric.name);
                clean = false;
                continue;
            };
            clean &= if EXACT.contains(&metric.name.as_str()) {
                print_exact(workload, metric, runs_a, runs_b)
            } else {
                print_measured(workload, metric, &values(runs_a), &values(runs_b))?
            };
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_verdicts_follow_direction_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        // Lower is better: +20% is worse than a 10% bound, −20% is fine.
        assert_eq!(
            measured_verdict(&steady, &[12.0, 12.1, 11.9, 12.0], false, 0.10, 0.0).2,
            "worse"
        );
        assert_eq!(measured_verdict(&steady, &[8.0, 8.1, 7.9, 8.0], false, 0.10, 0.0).2, "ok");
        // Higher is better flips the sign.
        assert_eq!(measured_verdict(&steady, &[8.0, 8.1, 7.9, 8.0], true, 0.10, 0.0).2, "worse");
        // Medians agree but one side is too noisy to say "unchanged".
        assert_eq!(
            measured_verdict(&steady, &[7.0, 10.0, 13.0, 10.0], false, 0.10, 0.0).2,
            "unresolved"
        );
        // A single run per side has no spread: only ok / worse are possible.
        let (worse_by, widest, word) = measured_verdict(&[10.0], &[10.5], false, 0.10, 0.0);
        assert!((worse_by - 0.05).abs() < 1e-12);
        assert_eq!((widest, word), (None, "ok"));
        // An absolute slack forgives a large relative change of a tiny value.
        assert_eq!(measured_verdict(&[0.003], &[0.005], false, 0.25, 0.05).2, "ok");
        assert_eq!(measured_verdict(&[0.3], &[0.5], false, 0.25, 0.05).2, "worse");
    }

    #[test]
    fn exact_verdicts_match_runs_by_seed() {
        let a = [(1, 45100.0), (2, 45100.0), (3, 46000.0)];
        // Same seeds in another order, same values: ok.
        assert_eq!(exact_verdict(&a, &[(3, 46000.0), (1, 45100.0)], false).3, "ok");
        // One seed's bytes went up by 1 %: worse, however small and whatever
        // the other seeds did.
        let (matched, differing, total, word) =
            exact_verdict(&a, &[(1, 45551.0), (2, 45100.0)], false);
        assert_eq!((matched, differing, word), (2, 1, "worse"));
        assert!((total - 0.01).abs() < 1e-12);
        assert_eq!(exact_verdict(&a, &[(1, 44000.0)], false).3, "better");
        // Higher is better (ok_share): a drop is worse.
        assert_eq!(exact_verdict(&[(1, 1.0)], &[(1, 0.96875)], true).3, "worse");
        // No seed in common: values of different inputs say nothing.
        assert_eq!(exact_verdict(&a, &[(9, 45100.0)], false).3, "unresolved");
    }
}
