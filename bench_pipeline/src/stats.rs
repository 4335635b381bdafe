//! Order statistics for the timed samples and the `--check` comparator.

/// The `q`-quantile (0..=1) of `sorted` by linear interpolation between
/// closest ranks. `sorted` must be ascending and non-empty.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let position = q * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    quantile(&sorted(samples), 0.5)
}

/// First quartile, median, third quartile.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    Some((quantile(&sorted, 0.25), quantile(&sorted, 0.5), quantile(&sorted, 0.75)))
}

/// Root mean square; 0 for no samples.
pub fn rms(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|x| x * x).sum::<f64>() / samples.len() as f64).sqrt()
}

/// The tail percentiles a report may quote, highest first, in per mille
/// (whole numbers, so that 100 samples × 10 % is exactly ten).
const TAILS: [usize; 3] = [999, 990, 900];

/// The highest percentile of [`TAILS`] that has at least ten samples beyond
/// it, with its value — `None` when even p90 has fewer (n < 100), in which
/// case the median is all the samples support.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(samples);
    TAILS
        .iter()
        .find(|&&per_mille| sorted.len() * (1000 - per_mille) / 1000 >= 10)
        .map(|&per_mille| per_mille as f64 / 1000.0)
        .map(|p| (p, quantile(&sorted, p)))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Worse by more than the bound, but one of the two runs' own samples
    /// spread wider than the bound: the runs cannot tell.
    Unresolved,
    /// The baseline has no value for this workload × metric.
    New,
}

/// Holds `current` against `baseline`. Every gated metric is lower-is-better
/// and may worsen by `bound`, a share of the baseline; a bound of 0
/// tolerates nothing, which is how counts are held. `spread` is the wider of the two runs' quartile distances over
/// their medians, 0 where a metric has no samples to take one from.
pub fn check(bound: f64, baseline: Option<f64>, current: f64, spread: f64) -> Verdict {
    match baseline {
        None => Verdict::New,
        Some(baseline) if current <= baseline * (1.0 + bound) => Verdict::Ok,
        Some(_) if spread > bound => Verdict::Unresolved,
        Some(_) => Verdict::Regressed,
    }
}

/// One `--check` row; `ratio` is current / baseline where that is defined.
#[derive(Debug, Clone)]
pub struct Row {
    pub key: String,
    pub baseline: Option<f64>,
    pub current: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (baseline, ratio) = match self.baseline {
            Some(b) if b != 0.0 => (format!("{b:.6}"), format!("{:.3}", self.current / b)),
            Some(b) => (format!("{b:.6}"), "-".to_string()),
            None => ("-".to_string(), "-".to_string()),
        };
        write!(
            f,
            "{:<44} {:>14} {:>14.6} {:>7} {:>+6.1}%  {:?}",
            self.key,
            baseline,
            self.current,
            ratio,
            self.bound * 100.0,
            self.verdict
        )
    }
}

/// Compares `current` against `baseline` (both `workload/metric → value`),
/// one row per current entry, in the order given.
pub fn compare(
    current: &[(String, f64)],
    baseline: &[(String, f64)],
    bound_of: impl Fn(&str) -> f64,
    spread_of: impl Fn(&str) -> f64,
) -> Vec<Row> {
    current
        .iter()
        .map(|(key, value)| {
            let base = baseline.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
            let bound = bound_of(key);
            Row {
                key: key.clone(),
                baseline: base,
                current: *value,
                bound,
                verdict: check(bound, base, *value, spread_of(key)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!((q1, q2, q3), (2.0, 3.0, 4.0));
        assert!(quartiles(&[]).is_none());
    }

    #[test]
    fn rms_of_signed_errors() {
        assert_eq!(rms(&[]), 0.0);
        assert!((rms(&[3.0, -4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn fewer_than_a_hundred_samples_yield_a_median_only() {
        // n < 20: not even the median has ten samples beyond it, and no tail
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(tail(&few).is_none());
        assert_eq!(median(&few), 9.0);
        // 99 samples: p90 would have 9.9 beyond it — still none
        let almost: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(tail(&almost).is_none());
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        let (p, value) = tail(&hundred).unwrap();
        assert_eq!(p, 0.90);
        assert!((value - 89.1).abs() < 1e-9);
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&thousand).unwrap().0, 0.99);
        let many: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail(&many).unwrap().0, 0.999);
    }

    #[test]
    fn a_metric_may_worsen_by_its_bound_and_no_more() {
        assert_eq!(check(0.10, Some(1.0), 1.10, 0.0), Verdict::Ok);
        assert_eq!(check(0.10, Some(1.0), 0.50, 0.0), Verdict::Ok);
        assert_eq!(check(0.10, Some(1.0), 1.11, 0.0), Verdict::Regressed);
        assert_eq!(check(0.10, None, 1.0, 0.0), Verdict::New);
    }

    #[test]
    fn a_zero_bound_tolerates_nothing() {
        assert_eq!(check(0.0, Some(896_000.0), 896_000.0, 0.0), Verdict::Ok);
        assert_eq!(check(0.0, Some(896_000.0), 896_001.0, 0.0), Verdict::Regressed);
        // failed_fraction: a zero baseline tolerates nothing
        assert_eq!(check(0.0, Some(0.0), 0.0, 0.0), Verdict::Ok);
        assert_eq!(check(0.0, Some(0.0), 0.01, 0.0), Verdict::Regressed);
    }

    #[test]
    fn a_run_that_spreads_wider_than_the_bound_cannot_show_a_regression() {
        assert_eq!(check(0.25, Some(1.0), 1.30, 0.31), Verdict::Unresolved);
        assert_eq!(check(0.25, Some(1.0), 1.30, 0.25), Verdict::Regressed);
        // nor does the spread excuse anything within the bound
        assert_eq!(check(0.25, Some(1.0), 1.20, 0.31), Verdict::Ok);
    }

    #[test]
    fn compare_prints_one_row_per_workload_metric() {
        let current = vec![
            ("a/request_p50_s".to_string(), 1.2),
            ("a/device_shots".to_string(), 10.0),
            ("b/request_p50_s".to_string(), 1.0),
        ];
        let baseline = vec![("a/request_p50_s".to_string(), 1.0), ("a/device_shots".into(), 10.0)];
        let bound = |key: &str| if key.ends_with("device_shots") { 0.0 } else { 0.10 };
        let rows = compare(&current, &baseline, bound, |_| 0.0);
        let verdicts: Vec<Verdict> = rows.iter().map(|r| r.verdict).collect();
        assert_eq!(verdicts, [Verdict::Regressed, Verdict::Ok, Verdict::New]);
        assert!(rows[0].to_string().contains("a/request_p50_s"));
    }
}
