//! Summary statistics and the two-commit verdict rule.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` with its
//! default `exclusive` method, interpolation and clamping included, so a
//! run-to-run spread computed here agrees with one computed from the
//! printed values.

/// Sorted copy of `xs` (total order, so NaN cannot scramble it).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `i`-th of the `n - 1` cut points dividing `xs` into `n` groups,
/// exactly as `statistics.quantiles(xs, n=n)[i - 1]`.
///
/// # Panics
/// When `xs` is empty or `i` is not in `1..n`.
pub fn quantile(xs: &[f64], i: usize, n: usize) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    assert!(0 < i && i < n, "cut point {i} of {n}");
    let data = sorted(xs);
    let ld = data.len();
    if ld == 1 {
        return data[0];
    }
    let m = ld + 1;
    let j = (i * m / n).clamp(1, ld - 1);
    // May leave [0, n] after clamping: Python then extrapolates, and so
    // must this.
    let delta = (i * m) as f64 - (j * n) as f64;
    (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
}

/// Median (the middle of the three quartile cut points for `n >= 2`).
pub fn median(xs: &[f64]) -> f64 {
    let data = sorted(xs);
    let k = data.len();
    assert!(k > 0, "median of no samples");
    if k % 2 == 1 {
        data[k / 2]
    } else {
        (data[k / 2 - 1] + data[k / 2]) / 2.0
    }
}

/// First and third quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    (quantile(xs, 1, 4), quantile(xs, 3, 4))
}

/// Percentile `p` (e.g. `90.0` or `99.9`) by linear interpolation between
/// order statistics (Python's `method="inclusive"`), which never reads
/// beyond the largest sample the way the exclusive method does on small
/// samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let data = sorted(xs);
    assert!(!data.is_empty(), "percentile of no samples");
    let h = (data.len() - 1) as f64 * p / 100.0;
    let j = (h.floor() as usize).min(data.len() - 1);
    let next = data[(j + 1).min(data.len() - 1)];
    data[j] + (h - j as f64) * (next - data[j])
}

/// Arithmetic mean; 0 for no values.
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (n, sum) = xs.into_iter().fold((0usize, 0.0), |(n, s), x| (n + 1, s + x));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `part` as a percentage of `whole`; 0 when `whole` is not positive.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// Mean of `xs` without its lowest and its highest value (of all values
/// when there are fewer than three).
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    let data = sorted(xs);
    let middle = if data.len() >= 3 { &data[1..data.len() - 1] } else { &data[..] };
    mean(middle.iter().copied())
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no samples");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The percentiles a timing may report beyond its median, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest reported percentile with at least ten of `n` samples
/// beyond it, or `None` when even the 75th has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|p| (100.0 - p) * n as f64 >= 1000.0 - 1e-9)
}

/// One timing's summary as the reports print it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The rule-chosen tail percentile and its value, when `n` allows one.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `xs` (non-empty).
    pub fn of(xs: &[f64]) -> Self {
        let tail = tail_percentile(xs.len()).map(|p| (p, percentile(xs, p)));
        Self { n: xs.len(), p50: median(xs), tail }
    }

    /// `p50 1.234 (p90 2.345, N = 120)` in the unit the caller scaled to.
    pub fn describe(&self) -> String {
        match self.tail {
            Some((p, v)) => format!("p50 {:.4} (p{p} {v:.4}, N = {})", self.p50, self.n),
            None => format!(
                "p50 {:.4} (no percentile has 10 samples beyond it, N = {})",
                self.p50, self.n
            ),
        }
    }
}

/// The outcome of comparing one (metric, workload) across two commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least 9 of 10 pairs and the medians differ by
    /// more than the parent's interquartile range.
    Improved,
    /// The change's median is worse than the parent's by more than the
    /// metric's bound.
    Regressed,
    /// Within the bound, and the parent's spread is narrower than it.
    Unchanged,
    /// Within the bound, but the parent's own spread is wider than the
    /// bound, so "unchanged" cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// The word `compare` prints.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies the two-commit rule to runs taken in alternating pairs:
/// `parent[i]` and `change[i]` form pair `i`. `bound` is the share of the
/// parent's median by which the metric may worsen.
pub fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    // Orient every value so that lower is better.
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let a: Vec<f64> = parent.iter().map(|x| sign * x).collect();
    let b: Vec<f64> = change.iter().map(|x| sign * x).collect();
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(&b).filter(|(p, c)| c < p).count();
    let (ma, mb) = (median(&a), median(&b));
    let (q1, q3) = quartiles(&a);
    let scale = ma.abs();
    let worse_by = if scale > 0.0 { (mb - ma) / scale } else { 0.0 };
    if wins * 10 >= pairs * 9 && pairs > 0 && mb < ma && ma - mb > q3 - q1 {
        return Verdict::Improved;
    }
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let best_parent = a.iter().copied().fold(f64::INFINITY, f64::min);
    let every_run_better = b.iter().all(|&c| c < best_parent);
    if scale > 0.0 && (q3 - q1) / scale > bound && !every_run_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_statistics() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(median(&ten), 5.5);
        // Two samples: Python extrapolates beyond the data.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&forty, 75.0), 30.25);
        assert!((percentile(&[3.0, 1.0, 2.0], 90.0) - 2.8).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        let noisy = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 12.5, 11.5, 10.2, 11.8];
        let (q1, q3) = quartiles(&noisy);
        assert!((q1 - 10.15).abs() < 1e-12 && (q3 - 12.125).abs() < 1e-12);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        let steps = [0.052, 0.042, 0.9, 0.042, 0.052, 0.01, 0.042];
        assert!((trimmed_mean(&steps) - 0.046).abs() < 1e-12);
        assert_eq!(trimmed_mean(&[3.0, 1.0]), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        let s = Summary::of(&(1..=40).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail, Some((75.0, 30.25)));
        assert!(s.describe().contains("p75") && s.describe().contains("N = 40"));
    }

    #[test]
    fn verdicts_on_hand_computed_runs() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3];
        // Parent quartiles: 99.725 and 100.35, IQR 0.625; median 100.05.
        let faster: Vec<f64> = parent.iter().map(|x| x - 5.0).collect();
        assert_eq!(verdict(&parent, &faster, false, 0.05), Verdict::Improved);
        // 10% slower against a 5% bound.
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.10).collect();
        assert_eq!(verdict(&parent, &slower, false, 0.05), Verdict::Regressed);
        // Same runs: no wins, medians equal.
        assert_eq!(verdict(&parent, &parent, false, 0.05), Verdict::Unchanged);
        // A higher-is-better metric reading 10% higher improved.
        assert_eq!(verdict(&parent, &slower, true, 0.05), Verdict::Improved);
        // Half the runs better by 0.2: wins 5/10, not an improvement.
        let mixed: Vec<f64> = parent
            .iter()
            .enumerate()
            .map(|(i, x)| if i % 2 == 0 { x - 0.2 } else { x + 0.2 })
            .collect();
        assert_eq!(verdict(&parent, &mixed, false, 0.05), Verdict::Unchanged);
    }

    #[test]
    fn wide_parent_spread_is_unresolved_unless_every_run_is_better() {
        let parent = [80.0, 120.0, 90.0, 110.0, 100.0];
        // Quartiles 85 and 115: a 30% spread against a 10% bound.
        let same = [82.0, 118.0, 91.0, 111.0, 101.0];
        assert_eq!(verdict(&parent, &same, false, 0.10), Verdict::Unresolved);
        let all_better = [60.0, 61.0, 62.0, 63.0, 64.0];
        assert_eq!(verdict(&parent, &all_better, false, 0.10), Verdict::Improved);
        let better_not_by_iqr = [79.0, 78.0, 77.0, 76.5, 76.0];
        // Every run beats the parent's best, but the medians are only 23
        // apart against an IQR of 30: unchanged rather than unresolved.
        assert_eq!(verdict(&parent, &better_not_by_iqr, false, 0.10), Verdict::Unchanged);
    }
}
