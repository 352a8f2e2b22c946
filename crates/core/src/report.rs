//! Markdown ensemble reports.
//!
//! Simulation studies built on COLD report *ensemble* statistics ("95%
//! confidence intervals for performance estimates", §1 challenge 1); this
//! module renders a self-contained Markdown document for an ensemble —
//! configuration, per-statistic means with bootstrap CIs, cost breakdown,
//! survivability — ready to paste into a lab notebook or CI artifact.

use crate::bootstrap::bootstrap_mean_ci;
use crate::resilience::survivability;
use crate::synthesizer::{ColdConfig, EnsembleOutcome, SynthesisResult};
use std::fmt::Write as _;

/// Statistics included in the report, in order.
const REPORT_STATS: [(&str, &str); 8] = [
    ("average_degree", "average node degree"),
    ("cvnd", "CVND (degree variation)"),
    ("diameter", "hop diameter"),
    ("average_path_length", "average path length"),
    ("global_clustering", "global clustering"),
    ("hubs", "hub PoPs"),
    ("leaves", "leaf PoPs"),
    ("degeneracy", "degeneracy (max k-core)"),
];

/// Renders a Markdown report for an ensemble synthesized from `config`.
///
/// `seed` is only echoed into the provenance header (the ensemble itself
/// is supplied by the caller, so any generation scheme is accepted).
pub fn ensemble_report(config: &ColdConfig, ensemble: &[SynthesisResult], seed: u64) -> String {
    assert!(!ensemble.is_empty(), "cannot report on an empty ensemble");
    let mut out = String::new();
    let n = ensemble[0].network.n();
    let _ = writeln!(out, "# COLD ensemble report\n");
    let _ = writeln!(out, "- networks: **{}** × {} PoPs (master seed {seed})", ensemble.len(), n);
    let p = config.params;
    let _ = writeln!(
        out,
        "- cost parameters: k0 = {}, k1 = {}, k2 = {:e}, k3 = {}",
        p.k0, p.k1, p.k2, p.k3
    );
    let _ = writeln!(
        out,
        "- GA: {} generations × population {} ({:?} mode)\n",
        config.ga.generations, config.ga.population, config.mode
    );

    // Topology statistics.
    let _ = writeln!(out, "## Topology statistics (mean, 95% bootstrap CI)\n");
    let _ = writeln!(out, "| statistic | mean | 95% CI |");
    let _ = writeln!(out, "|---|---|---|");
    for (key, label) in REPORT_STATS {
        let xs: Vec<f64> = ensemble.iter().filter_map(|r| r.stats.get(key)).collect();
        let ci = bootstrap_mean_ci(&xs, 0.95, 1000, seed ^ key.len() as u64);
        let _ = writeln!(out, "| {label} | {:.3} | [{:.3}, {:.3}] |", ci.mean, ci.lo, ci.hi);
    }

    // Costs.
    let _ = writeln!(out, "\n## Cost breakdown (ensemble means)\n");
    let mean = |f: fn(&SynthesisResult) -> f64| {
        ensemble.iter().map(f).sum::<f64>() / ensemble.len() as f64
    };
    let total = mean(|r| r.network.total_cost());
    let _ = writeln!(out, "| component | mean | share |");
    let _ = writeln!(out, "|---|---|---|");
    for (label, value) in [
        ("link existence (k0)", mean(|r| r.network.cost.existence)),
        ("link length (k1)", mean(|r| r.network.cost.length)),
        ("bandwidth (k2)", mean(|r| r.network.cost.bandwidth)),
        ("hub complexity (k3)", mean(|r| r.network.cost.hub)),
    ] {
        let share = if total > 0.0 { 100.0 * value / total } else { 0.0 };
        let _ = writeln!(out, "| {label} | {value:.1} | {share:.0}% |");
    }
    let _ = writeln!(out, "| **total** | **{total:.1}** | 100% |");

    // Survivability.
    let _ = writeln!(out, "\n## Survivability\n");
    let reports: Vec<_> =
        ensemble.iter().map(|r| survivability(&r.network.topology, &r.context)).collect();
    let bridges = reports.iter().map(|s| s.bridges as f64).sum::<f64>() / reports.len() as f64;
    let resilient = reports.iter().filter(|s| s.two_edge_connected).count();
    let worst =
        reports.iter().map(|s| s.worst_link_failure_traffic_fraction).fold(0.0f64, f64::max);
    let _ = writeln!(out, "- mean bridge links: {bridges:.1}");
    let _ = writeln!(out, "- 2-edge-connected networks: {resilient}/{}", reports.len());
    let _ = writeln!(
        out,
        "- worst single-link failure across the ensemble strands {:.0}% of traffic",
        100.0 * worst
    );

    // Optimizer provenance.
    let _ = writeln!(out, "\n## Optimization\n");
    let evals = mean(|r| r.evaluations as f64);
    let repair = mean(|r| r.repair_rate);
    let hit_rate = mean(|r| r.eval_stats.hit_rate());
    let eval_secs = mean(|r| r.eval_stats.eval_seconds);
    let _ = writeln!(out, "- mean objective evaluations per network: {evals:.0}");
    let _ = writeln!(
        out,
        "- mean fitness-cache hit rate: {:.1}% (cached costs skip routing entirely)",
        100.0 * hit_rate
    );
    let _ = writeln!(out, "- mean wall-clock evaluation time per network: {eval_secs:.3} s");
    let _ = writeln!(out, "- mean connectivity-repair rate: {repair:.3}");
    if ensemble.iter().any(|r| !r.heuristic_costs.is_empty()) {
        let _ = writeln!(out, "- seeded with greedy heuristics (initialized GA); GA result ≤ every seed by construction");
    }

    // Per-run optimizer telemetry: every counter `SynthesisResult` carries
    // is rendered, so two configs can be compared run by run rather than
    // through ensemble means alone.
    let _ = writeln!(out, "\n### Per-run optimizer telemetry\n");
    let _ = writeln!(out, "| run | generations | evaluations | cache hit rate | eval wall-time |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (i, r) in ensemble.iter().enumerate() {
        let _ = writeln!(
            out,
            "| {i} | {} | {} | {:.1}% | {:.3} s |",
            r.generations_run,
            r.evaluations,
            100.0 * r.eval_stats.hit_rate(),
            r.eval_stats.eval_seconds
        );
    }
    if let Some(path) = ensemble.iter().find_map(|r| r.journal_path.as_deref()) {
        let _ = writeln!(out, "\nPer-generation traces: `{}`", path.display());
    }
    out
}

/// Renders the report for a fault-tolerant ensemble run
/// ([`ColdConfig::synthesize_ensemble`]): the standard report over the
/// trials that completed, followed by a failure table when any trial
/// failed. A fully-lost ensemble still yields a document (provenance
/// header plus the failure table) rather than a panic, so a CI job always
/// has an artifact to attach.
pub fn outcome_report(config: &ColdConfig, outcome: &EnsembleOutcome, seed: u64) -> String {
    let completed: Vec<SynthesisResult> = outcome.results.iter().map(|(_, r)| r.clone()).collect();
    let mut out = if completed.is_empty() {
        format!(
            "# COLD ensemble report\n\n- networks: **0** of {} requested \
             (master seed {seed}) — every trial failed\n",
            outcome.total
        )
    } else {
        ensemble_report(config, &completed, seed)
    };
    out.push_str(&failure_section(outcome));
    out
}

/// The `## Trial failures` section: empty string for a clean run, else a
/// summary line and one table row per failed *attempt* (a trial that
/// panicked and then succeeded on its retry seed contributes one row,
/// marked recovered).
fn failure_section(outcome: &EnsembleOutcome) -> String {
    if outcome.failures.is_empty() {
        return String::new();
    }
    let lost = outcome.lost_trials();
    let failed_trials: std::collections::BTreeSet<usize> =
        outcome.failures.iter().map(|f| f.trial).collect();
    let mut out = String::new();
    let _ = writeln!(out, "\n## Trial failures\n");
    let _ = writeln!(
        out,
        "{} of {} trials failed at least once; {} recovered on a retry seed, {} lost \
         (ensemble statistics above cover completed trials only).\n",
        failed_trials.len(),
        outcome.total,
        failed_trials.len() - lost.len(),
        lost.len()
    );
    let _ = writeln!(out, "| trial | attempt | seed | error | outcome |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for f in &outcome.failures {
        let _ = writeln!(
            out,
            "| {} | {} | {:#018x} | {} | {} |",
            f.trial,
            f.attempt,
            f.seed,
            f.error,
            if f.recovered { "recovered" } else { "lost" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::ensemble_with;
    use crate::ColdConfig;

    #[test]
    fn report_contains_all_sections_and_numbers() {
        let cfg = ColdConfig::quick(8, 4e-4, 10.0);
        let ensemble = cfg.ensemble(3, 4);
        let md = ensemble_report(&cfg, &ensemble, 3);
        for heading in [
            "# COLD ensemble report",
            "## Topology statistics",
            "## Cost breakdown",
            "## Survivability",
            "## Optimization",
        ] {
            assert!(md.contains(heading), "missing `{heading}`");
        }
        assert!(md.contains("networks: **4** × 8 PoPs"));
        assert!(md.contains("average node degree"));
        assert!(md.contains("**total**"));
        assert!(md.contains("fitness-cache hit rate"));
        assert!(md.contains("wall-clock evaluation time"));
        assert!(md.contains("### Per-run optimizer telemetry"));
        // One telemetry row per ensemble member, each rendering hit rate
        // and eval wall-time.
        let telemetry_rows = md
            .lines()
            .skip_while(|l| !l.contains("Per-run optimizer telemetry"))
            .filter(|l| l.ends_with(" s |"))
            .count();
        assert_eq!(telemetry_rows, ensemble.len());
        // Table rows parse as Markdown tables (pipe-delimited, 3+ cells).
        let stat_rows =
            md.lines().filter(|l| l.starts_with("| ") && l.matches('|').count() >= 4).count();
        assert!(stat_rows >= REPORT_STATS.len(), "stat rows: {stat_rows}");
    }

    #[test]
    fn shares_sum_to_about_100_percent() {
        let cfg = ColdConfig::quick(7, 1e-4, 10.0);
        let ensemble = cfg.ensemble(4, 3);
        let md = ensemble_report(&cfg, &ensemble, 4);
        let shares: f64 = md
            .lines()
            .filter(|l| l.ends_with("% |") && !l.contains("**"))
            .filter_map(|l| {
                l.rsplit('|')
                    .nth(1)
                    .and_then(|c| c.trim().trim_end_matches('%').parse::<f64>().ok())
            })
            .sum();
        assert!((97.0..=103.0).contains(&shares), "shares sum to {shares}");
    }

    #[test]
    #[should_panic(expected = "empty ensemble")]
    fn empty_ensemble_rejected() {
        let cfg = ColdConfig::quick(6, 1e-4, 0.0);
        ensemble_report(&cfg, &[], 0);
    }

    #[test]
    fn clean_outcome_report_has_no_failure_section() {
        let cfg = ColdConfig::quick(7, 1e-4, 10.0);
        let outcome = cfg.synthesize_ensemble(9, 3, None);
        assert!(outcome.is_complete());
        let md = outcome_report(&cfg, &outcome, 9);
        assert!(!md.contains("## Trial failures"));
        assert!(md.contains("networks: **3**"));
    }

    #[test]
    fn failure_table_reports_recovered_and_lost_trials() {
        let cfg = ColdConfig::quick(7, 1e-4, 10.0);
        // Trial 1 panics once then recovers; trial 2 fails both attempts.
        let outcome = ensemble_with(
            &cfg,
            9,
            4,
            Box::new(|c, seed, trial, attempt| {
                if trial == 1 && attempt == 1 {
                    panic!("injected flake");
                }
                if trial == 2 {
                    panic!("injected hard failure");
                }
                c.try_synthesize(seed)
            }),
        );
        assert_eq!(outcome.lost_trials(), vec![2]);
        let md = outcome_report(&cfg, &outcome, 9);
        assert!(md.contains("## Trial failures"));
        assert!(
            md.contains("2 of 4 trials failed at least once; 1 recovered on a retry seed, 1 lost")
        );
        assert!(md.contains("injected flake"));
        assert!(md.contains("injected hard failure"));
        assert!(md.contains("| recovered |"));
        assert!(md.contains("| lost |"));
        // Three failed attempts → three table rows (trial 1 once, trial 2
        // twice).
        let rows =
            md.lines().filter(|l| l.ends_with("| recovered |") || l.ends_with("| lost |")).count();
        assert_eq!(rows, 3);
        // The statistics above cover the 3 completed trials.
        assert!(md.contains("networks: **3**"));
    }

    #[test]
    fn fully_lost_ensemble_still_yields_a_document() {
        let cfg = ColdConfig::quick(7, 1e-4, 10.0);
        let outcome =
            ensemble_with(&cfg, 9, 2, Box::new(|_, _, _, _| panic!("everything is on fire")));
        assert!(outcome.results.is_empty());
        let md = outcome_report(&cfg, &outcome, 9);
        assert!(md.contains("every trial failed"));
        assert!(md.contains("## Trial failures"));
        assert!(md.contains("everything is on fire"));
    }
}
