//! `cold-perf compare PARENT CHANGE`: the verdict on every (end-to-end
//! metric, workload) pair, from two files of runs written with `--out`.
//!
//! Runs pair up in file order, so record them alternating between the
//! two commits. Directions and bounds come from `BENCHMARK.json`.

use crate::stats::{median, quartiles, verdict, Verdict};
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn read_json(path: &str) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn declared(path: &str) -> Result<Vec<Declared>, String> {
    let doc = read_json(path)?;
    let list = doc["end_to_end"].as_array().ok_or_else(|| format!("{path}: no end_to_end list"))?;
    list.iter()
        .map(|m| {
            Ok(Declared {
                name: m["name"].as_str().ok_or("metric without a name")?.to_string(),
                higher_is_better: m["better"].as_str() == Some("higher"),
                bound: m["bound"].as_f64().ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// One untraced run: its workload and metric values.
type Run = (String, BTreeMap<String, f64>);

/// Untraced runs in file order.
fn runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let doc: serde_json::Value =
            serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if doc["trace"].as_bool() == Some(true) {
            continue;
        }
        let workload =
            doc["workload"].as_str().ok_or_else(|| format!("{path}:{}: no workload", i + 1))?;
        let mut values = BTreeMap::new();
        if let Some(metrics) = doc["metrics"].as_object() {
            for (name, m) in metrics.iter() {
                if let Some(v) = m["value"].as_f64() {
                    values.insert(name.clone(), v);
                }
            }
        }
        out.push((workload.to_string(), values));
    }
    Ok(out)
}

fn series(runs: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter().filter(|(w, _)| w == workload).filter_map(|(_, m)| m.get(metric).copied()).collect()
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--benchmark" => benchmark = it.next().ok_or("--benchmark needs a path")?.clone(),
            _ => files.push(arg.as_str()),
        }
    }
    let [parent_path, change_path] = files[..] else {
        return Err("compare needs two run files: PARENT CHANGE".into());
    };
    let metrics = declared(&benchmark)?;
    let (parent, change) = (runs(parent_path)?, runs(change_path)?);
    let mut workloads: Vec<&str> = Vec::new();
    for (w, _) in &parent {
        if !workloads.contains(&w.as_str()) {
            workloads.push(w);
        }
    }
    let mut regressed = false;
    println!(
        "{:<13} {:<20} {:>32} {:>32} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "parent median [q1, q3] n",
        "change median [q1, q3] n",
        "delta",
        "bound"
    );
    for w in workloads {
        for m in &metrics {
            let (a, b) = (series(&parent, w, &m.name), series(&change, w, &m.name));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let v = verdict(&a, &b, m.higher_is_better, m.bound);
            regressed |= v == Verdict::Regressed;
            let show = |xs: &[f64]| {
                let (q1, q3) = quartiles(xs);
                format!("{:.4} [{q1:.4}, {q3:.4}] {}", median(xs), xs.len())
            };
            let delta = 100.0 * (median(&b) - median(&a)) / median(&a).abs().max(f64::MIN_POSITIVE);
            println!(
                "{w:<13} {:<20} {:>32} {:>32} {delta:>+7.2}% {:>6}  {}",
                m.name,
                show(&a),
                show(&b),
                m.bound,
                v.as_str()
            );
        }
    }
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}
