//! The aggregation rules every reported number goes through.
//!
//! * The host this runs on changes speed in phases of seconds (a pure CPU loop
//!   sits on plateaus of 1×, 1.35× and 1.75× its fastest, with nothing else
//!   running in the VM), so latencies are **drift-corrected** before any
//!   percentile is read ([`drift_corrected`]): the timed sessions are cut into
//!   windows of a few consecutive sessions, a window's drift is its median over
//!   the smallest window median, and each latency is divided by its window's
//!   drift. A session slower than its neighbours stays that much slower; a
//!   stretch in which everything is slower is scaled back.
//! * p50 is the nearest-rank median of the pooled corrected latencies.
//! * The host also stalls single sessions, in bursts: in a bad minute a fifth of
//!   the sessions of a loopback workload, in a good one none. So the tail and
//!   the rate are read from the **quietest stretch** ([`stretches`]): the run is
//!   cut into stretches of as many whole blocks as hold 200 sessions — a p95 is
//!   refused under 200 samples, so that ten lie beyond it ([`p95`]) — and the
//!   smallest p95 and the highest rate among them are reported. Every block
//!   runs the same sessions, so what the program does to its own tail is in
//!   every stretch.
//! * A stretch's rate is its verified sessions over its wall-clock, with each
//!   block's wall-clock taken back by the share the correction took its
//!   sessions' latencies back. The rate as measured, and the median and
//!   inter-quartile distance of the per-block rates ([`BlockStat`]), are
//!   printed beside it as what the machine did.
//! * Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//!   default "exclusive" method), so `compare` and an outside checker agree.

/// Samples needed before a p95 is reported: ten samples must lie beyond it.
pub const P95_MIN_SAMPLES: usize = 200;

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(|a, b| a.total_cmp(b));
    out
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, q2, q3)` as `statistics.quantiles(values, n=4)` gives them. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Median and inter-quartile distance of per-block values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockStat {
    pub median: f64,
    pub iqr: f64,
}

impl BlockStat {
    pub fn of(block_values: &[f64]) -> Self {
        let iqr = quartiles(block_values).map_or(0.0, |(q1, _, q3)| q3 - q1);
        Self { median: median(block_values), iqr }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        self.iqr / self.median
    }
}

/// Consecutive sessions in one drift window. Five is the smallest odd count
/// whose median one slow session cannot move; longer windows straddle more of
/// the host's phase changes (calibration in the README).
pub const DRIFT_WINDOW: usize = 5;

/// `latencies` (in the order they were measured) with the host's drift taken
/// out: each divided by `its window's median ÷ the smallest window median`.
/// A trailing partial window joins the one before it.
pub fn drift_corrected(latencies: &[f64], window: usize) -> Vec<f64> {
    let windows = (latencies.len() / window).max(1);
    let bounds = |w: usize| {
        let end = if w + 1 == windows { latencies.len() } else { (w + 1) * window };
        w * window..end
    };
    let levels: Vec<f64> = (0..windows).map(|w| median(&latencies[bounds(w)])).collect();
    let quietest = levels.iter().copied().fold(f64::INFINITY, f64::min);
    (0..windows)
        .flat_map(|w| latencies[bounds(w)].iter().map(move |l| (l, w)))
        .map(|(latency, w)| latency * quietest / levels[w])
        .collect()
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of pooled samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let v = sorted(samples);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The p95 of `samples`, refused when there are fewer than
/// [`P95_MIN_SAMPLES`] of them.
pub fn p95(samples: &[f64]) -> Result<f64, String> {
    if samples.len() < P95_MIN_SAMPLES {
        return Err(format!(
            "p95 needs at least {P95_MIN_SAMPLES} samples (ten beyond it), got {}",
            samples.len()
        ));
    }
    Ok(percentile(samples, 95.0))
}

/// The tail and the rate of one stretch of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stretch {
    pub p95: f64,
    /// Sessions per corrected second.
    pub rate: f64,
}

/// Cut a run into stretches of `per_stretch` consecutive blocks. A block is
/// where its verified sessions sit in `corrected` and its corrected
/// wall-clock in seconds. Trailing blocks that do not fill a stretch, and
/// stretches with too few verified sessions for a p95, are left out.
pub fn stretches(
    corrected: &[f64],
    blocks: &[(std::ops::Range<usize>, f64)],
    per_stretch: usize,
) -> Vec<Stretch> {
    blocks
        .chunks_exact(per_stretch)
        .filter_map(|stretch| {
            let samples = &corrected[stretch[0].0.start..stretch[per_stretch - 1].0.end];
            let seconds: f64 = stretch.iter().map(|(_, seconds)| seconds).sum();
            Some(Stretch { p95: p95(samples).ok()?, rate: samples.len() as f64 / seconds })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stretches_are_whole_blocks_with_a_p95_of_their_own() {
        // Five blocks of 100 sessions, two to a stretch: two stretches, the
        // fifth block left over. The second stretch has a burst of stalls.
        let mut corrected = vec![1.0; 500];
        corrected[200..250].fill(9.0);
        let blocks: Vec<_> =
            (0..5).map(|b| (100 * b..100 * (b + 1), if b == 2 { 0.5 } else { 0.1 })).collect();
        let found = stretches(&corrected, &blocks, 2);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0], Stretch { p95: 1.0, rate: 200.0 / 0.2 });
        assert_eq!(found[1].p95, 9.0);
        assert!((found[1].rate - 200.0 / 0.6).abs() < 1e-9);
        // A stretch short of 200 verified sessions has no p95 and is left out.
        let thin: Vec<_> = (0..2).map(|b| (90 * b..90 * (b + 1), 0.1)).collect();
        assert!(stretches(&corrected, &thin, 2).is_empty());
    }

    #[test]
    fn p95_is_refused_under_200_samples() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert!(p95(&values[..199]).is_err());
        assert!(p95(&values[..40]).is_err(), "the gate is the slice the percentile is taken from");
        // Nearest rank: ceil(0.95 · 200) = 190, leaving exactly ten beyond.
        assert_eq!(p95(&values).unwrap(), 190.0);
    }

    #[test]
    fn drift_correction_rescales_slow_stretches_and_keeps_slow_sessions() {
        // Three windows of five: quiet, quiet with one slow session, and a
        // stretch where the machine is 1.5× slow throughout.
        let quiet = [10.0, 10.0, 10.0, 10.0, 10.0];
        let outlier = [10.0, 10.0, 30.0, 10.0, 10.0];
        let slow = [15.0, 15.0, 15.0, 45.0, 15.0];
        let all: Vec<f64> = [quiet, outlier, slow].concat();
        let corrected = drift_corrected(&all, 5);
        assert_eq!(corrected[..10], all[..10], "quiet windows are left alone");
        assert_eq!(corrected[10..], [10.0, 10.0, 10.0, 30.0, 10.0], "the stretch is scaled back");
        // A trailing partial window joins the last whole one.
        let ragged = drift_corrected(&all[..12], 5);
        assert_eq!(ragged[5..], [10.0, 10.0, 30.0, 10.0, 10.0, 15.0, 15.0]);
        // Fewer samples than one window: one window, nothing to correct.
        assert_eq!(drift_corrected(&[3.0, 1.0], 5), [3.0, 1.0]);
    }

    #[test]
    fn percentile_is_nearest_rank_on_unsorted_input() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&samples, 50.0), 3.0);
        assert_eq!(percentile(&samples, 100.0), 5.0);
        assert_eq!(percentile(&samples, 1.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn block_stat_is_median_and_iqr_over_blocks() {
        // Seven blocks with one outlier: the median ignores it and the IQR
        // (exclusive quartiles: q1 = 10, q3 = 12) stays narrow.
        let blocks = [10.0, 11.0, 10.0, 12.0, 11.0, 50.0, 10.0];
        let stat = BlockStat::of(&blocks);
        assert_eq!(stat.median, 11.0);
        assert_eq!(stat.iqr, 2.0);
        assert!((stat.spread() - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
