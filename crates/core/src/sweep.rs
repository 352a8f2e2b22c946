//! Parameter sweeps: the machinery behind Figs 5–9.
//!
//! Each figure varies `k2` (or `k3`) along a log-spaced axis, holds the
//! other costs fixed, synthesizes an ensemble per point, and plots a
//! statistic's mean with 95% confidence intervals. [`SweepPlan`] captures
//! that shape once so every figure binary is a few lines.

use crate::bootstrap::{bootstrap_mean_ci, MeanCi};
use crate::synthesizer::{ColdConfig, SynthesisResult};
use cold_cost::CostParams;
use serde::{Deserialize, Serialize};

/// Log-spaced values from `lo` to `hi` inclusive.
///
/// # Panics
/// Panics unless `0 < lo <= hi` and `count >= 2` (or `count == 1` with
/// `lo == hi`).
pub fn log_space(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi >= lo, "need 0 < lo <= hi");
    if count == 1 {
        assert!(lo == hi, "count = 1 requires lo == hi");
        return vec![lo];
    }
    assert!(count >= 2);
    let (llo, lhi) = (lo.ln(), hi.ln());
    (0..count).map(|i| (llo + (lhi - llo) * i as f64 / (count - 1) as f64).exp()).collect()
}

/// One sweep point: a `(k2, k3)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Bandwidth cost.
    pub k2: f64,
    /// Hub cost.
    pub k3: f64,
}

/// Aggregated result at one sweep point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepCell {
    /// The parameter point.
    pub point: SweepPoint,
    /// Statistic name → mean and CI over the ensemble.
    pub stats: Vec<(String, MeanCi)>,
    /// Trials at this point that produced no network even after the
    /// fault-tolerant ensemble's retry; their samples are simply absent
    /// from [`stats`](Self::stats) (the CIs widen accordingly).
    pub lost_trials: usize,
}

impl SweepCell {
    /// Looks up a statistic by name.
    pub fn stat(&self, name: &str) -> Option<&MeanCi> {
        self.stats.iter().find(|(n, _)| n == name).map(|(_, ci)| ci)
    }
}

/// A full sweep: base configuration + the `(k2, k3)` grid + trial count.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Template configuration; its `params.k2/k3` are overridden per point.
    pub base: ColdConfig,
    /// The grid of points to evaluate.
    pub points: Vec<SweepPoint>,
    /// Independent contexts per point.
    pub trials: usize,
    /// Statistics to aggregate (names from [`crate::NetworkStats::get`]).
    pub stats: Vec<String>,
    /// Master seed; trial `t` of point `i` uses a seed derived from
    /// `(seed, i, t)`.
    pub seed: u64,
    /// Bootstrap confidence level (e.g. 0.95).
    pub confidence: f64,
}

impl SweepPlan {
    /// The paper's Fig 5–7 grid: `k2` log-spaced `1e-4…1.6e-3` (7 points),
    /// `k3 ∈ {0, 10, 100, 1000}`.
    pub fn paper_grid(base: ColdConfig, trials: usize, stats: &[&str], seed: u64) -> Self {
        let mut points = Vec::new();
        for &k3 in &[0.0, 10.0, 100.0, 1000.0] {
            for k2 in log_space(1e-4, 1.6e-3, 7) {
                points.push(SweepPoint { k2, k3 });
            }
        }
        Self {
            base,
            points,
            trials,
            stats: stats.iter().map(|s| s.to_string()).collect(),
            seed,
            confidence: 0.95,
        }
    }

    /// Runs the sweep. Parallelism comes from `ColdConfig::ensemble`
    /// within each point.
    pub fn run(&self) -> Vec<SweepCell> {
        self.run_with(|r| r)
    }

    /// Runs the sweep with a per-trial post-processing hook (e.g. to also
    /// capture raw values). The hook sees every completed
    /// [`SynthesisResult`].
    ///
    /// Trials run through the fault-tolerant ensemble
    /// ([`ColdConfig::synthesize_ensemble`]): a panicking trial is retried
    /// once on a fresh seed, and a trial lost even then drops out of the
    /// point's samples (counted in [`SweepCell::lost_trials`]) instead of
    /// tearing down the whole sweep.
    pub fn run_with(
        &self,
        mut observe: impl FnMut(SynthesisResult) -> SynthesisResult,
    ) -> Vec<SweepCell> {
        let _span = cold_obs::span("core.sweep");
        let mut out = Vec::with_capacity(self.points.len());
        for (i, &point) in self.points.iter().enumerate() {
            let cfg = ColdConfig {
                params: CostParams { k2: point.k2, k3: point.k3, ..self.base.params },
                ..self.base
            };
            let point_seed = cold_context::rng::derive_seed(self.seed, i as u64);
            let outcome = cfg.synthesize_ensemble(point_seed, self.trials, None);
            let lost_trials = outcome.lost_trials().len();
            let results: Vec<SynthesisResult> =
                outcome.results.into_iter().map(|(_, r)| observe(r)).collect();
            let stats = self
                .stats
                .iter()
                .map(|name| {
                    let samples: Vec<f64> =
                        results.iter().filter_map(|r| r.stats.get(name)).collect();
                    let ci = bootstrap_mean_ci(&samples, self.confidence, 1000, point_seed);
                    (name.clone(), ci)
                })
                .collect();
            out.push(SweepCell { point, stats, lost_trials });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_space_endpoints_and_monotone() {
        let xs = log_space(1e-4, 1.6e-3, 5);
        assert_eq!(xs.len(), 5);
        assert!((xs[0] - 1e-4).abs() < 1e-12);
        assert!((xs[4] - 1.6e-3).abs() < 1e-9);
        for w in xs.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Log spacing: constant ratio.
        let r1 = xs[1] / xs[0];
        let r2 = xs[3] / xs[2];
        assert!((r1 - r2).abs() < 1e-9);
    }

    #[test]
    fn single_point_log_space() {
        assert_eq!(log_space(2.0, 2.0, 1), vec![2.0]);
    }

    #[test]
    fn small_sweep_produces_cells() {
        let base = ColdConfig::quick(7, 1e-4, 0.0);
        let plan = SweepPlan {
            base,
            points: vec![SweepPoint { k2: 1e-4, k3: 0.0 }, SweepPoint { k2: 1.6e-3, k3: 0.0 }],
            trials: 3,
            stats: vec!["average_degree".into(), "diameter".into()],
            seed: 1,
            confidence: 0.95,
        };
        let cells = plan.run();
        assert_eq!(cells.len(), 2);
        for cell in &cells {
            let deg = cell.stat("average_degree").unwrap();
            assert_eq!(deg.count, 3);
            assert!(deg.lo <= deg.mean && deg.mean <= deg.hi);
            // Any connected graph on 7 nodes has average degree in
            // [2−2/7, 6].
            assert!(deg.mean >= 2.0 - 2.0 / 7.0 - 1e-9 && deg.mean <= 6.0);
            assert!(cell.stat("diameter").is_some());
            assert!(cell.stat("nonexistent").is_none());
            assert_eq!(cell.lost_trials, 0, "clean sweep loses no trials");
        }
    }

    #[test]
    fn higher_k2_gives_denser_networks() {
        // The Fig 5 trend, at miniature scale: average degree increases
        // with k2.
        let base = ColdConfig::quick(8, 1e-4, 0.0);
        let plan = SweepPlan {
            base,
            points: vec![SweepPoint { k2: 1e-5, k3: 0.0 }, SweepPoint { k2: 5e-2, k3: 0.0 }],
            trials: 4,
            stats: vec!["average_degree".into()],
            seed: 2,
            confidence: 0.95,
        };
        let cells = plan.run();
        let lo = cells[0].stat("average_degree").unwrap().mean;
        let hi = cells[1].stat("average_degree").unwrap().mean;
        assert!(hi > lo, "avg degree at high k2 ({hi}) not above low k2 ({lo})");
    }
}
