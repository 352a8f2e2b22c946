//! Figure 4: GA runtime vs number of nodes, with the cubic fit
//! `t ≈ c·n³` (for fixed `T = M`). The n³ arises from the all-pairs
//! shortest-path routing inside every cost evaluation.

use crate::{fmt, print_table, ExpOptions};
use cold::{ColdConfig, SynthesisMode};
use serde_json::json;
use std::time::Instant;

/// Runs the experiment.
pub fn run(opts: &ExpOptions) -> serde_json::Value {
    let sizes: Vec<usize> = if opts.full { vec![10, 20, 40, 80, 160] } else { vec![8, 16, 32, 64] };
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &n in &sizes {
        let mut cfg = ColdConfig { ga: opts.ga_settings(), ..ColdConfig::paper(n, 4e-4, 10.0) };
        cfg.mode = SynthesisMode::GaOnly; // time the GA itself, not the greedy seeds
        let start = Instant::now();
        let r = cfg.synthesize(opts.seed);
        let secs = start.elapsed().as_secs_f64();
        let c = secs / (n as f64).powi(3);
        let arcs = r.eval_stats.arcs_scanned;
        rows.push(vec![
            n.to_string(),
            fmt(secs),
            fmt(c),
            r.evaluations.to_string(),
            arcs.to_string(),
        ]);
        points.push(json!({
            "n": n,
            "seconds": secs,
            "c_over_n3": c,
            "evaluations": r.evaluations,
            "arcs_scanned": arcs,
        }));
    }
    print_table(
        &format!(
            "Figure 4: GA runtime vs n (T = M = {}, single run per point)",
            opts.ga_settings().generations
        ),
        &["n", "seconds", "sec/n^3", "evaluations", "arcs scanned"],
        &rows,
    );
    // Log-log slopes over the measured range (paper: ≈ 3 for runtime).
    // Arcs scanned by routing is the host-independent work behind it.
    let slope = |key: &str| {
        let xs: Vec<f64> = points.iter().map(|p| (p["n"].as_u64().unwrap() as f64).ln()).collect();
        let ys: Vec<f64> = points.iter().map(|p| p[key].as_f64().unwrap().ln()).collect();
        let npts = xs.len() as f64;
        let (sx, sy): (f64, f64) = (xs.iter().sum(), ys.iter().sum());
        let sxy: f64 = xs.iter().zip(&ys).map(|(a, b)| a * b).sum();
        let sxx: f64 = xs.iter().map(|a| a * a).sum();
        (npts * sxy - sx * sy) / (npts * sxx - sx * sx)
    };
    let (runtime_slope, arcs_slope) = (slope("seconds"), slope("arcs_scanned"));
    println!("\nlog-log slope of runtime vs n: {} (paper: ~3)", fmt(runtime_slope));
    println!("log-log slope of arcs scanned vs n: {}", fmt(arcs_slope));
    json!({
        "experiment": "fig4",
        "generations": opts.ga_settings().generations,
        "population": opts.ga_settings().population,
        "points": points,
        "loglog_slope": runtime_slope,
        "arcs_loglog_slope": arcs_slope,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_grows_superlinearly() {
        // Tiny sizes so the test is fast; even there, growth with n must
        // be clearly superlinear.
        let opts = ExpOptions { seed: 4, ..Default::default() };
        // Use a private reduced size list by calling run() in quick mode —
        // quick sizes are 8..64; the 64 point keeps this test meaningful
        // but it stays seconds-scale in release and tolerable in debug.
        let v = run(&opts);
        // Routing work, not wall-clock: a loaded host slows the large
        // points and flattens a timed slope, but not the arcs scanned.
        let pts = v["points"].as_array().unwrap();
        let first = pts.first().unwrap()["arcs_scanned"].as_u64().unwrap();
        let last = pts.last().unwrap()["arcs_scanned"].as_u64().unwrap();
        assert!(last > first, "routing work must grow with n");
        let slope = v["arcs_loglog_slope"].as_f64().unwrap();
        assert!(slope > 1.2, "log-log slope {slope} too shallow for O(n^3·M·T)");
    }
}
