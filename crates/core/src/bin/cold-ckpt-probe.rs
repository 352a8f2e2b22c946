//! `cold-ckpt-probe` — cross-process checkpoint portability probe.
//!
//! ```sh
//! cold-ckpt-probe inspect campaign.ckpt.json
//! cold-ckpt-probe resume-ga input.json      # {"config", "seed", "snapshot"[, "objective"]}
//! cold-ckpt-probe resume-campaign campaign.ckpt.json
//! ```
//!
//! Checkpoints claim to be portable: a `GaCheckpoint` or
//! `CampaignCheckpoint` written by one process must resume bit-identically
//! in another. This tool is the *other* process — the portability tests
//! hand it snapshots produced in-process and require its stdout to match
//! the uninterrupted in-process reference exactly. Output is one JSON
//! document of deterministic fields only (edges, cost histories, final
//! population costs, and a Pareto trial's front, hypervolume history and
//! reference point — never wall-clock stats).

use cold::context::rng::derive_seed;
use cold::{
    run_campaign, Campaign, CampaignCheckpoint, ColdConfig, LocalTrials, RunOptions, Snapshots,
    TrialRecord, TrialSpec,
};
use serde::Deserialize as _;
use serde_json::Value;
use std::path::PathBuf;

const USAGE: &str = "cold-ckpt-probe — cross-process checkpoint portability probe

USAGE:
    cold-ckpt-probe inspect <ckpt.json>         summarize a checkpoint file
    cold-ckpt-probe resume-ga <input.json>      resume a GA snapshot to completion;
                                                input: {\"config\", \"seed\", \"snapshot\"},
                                                and the trial's \"objective\" unless cost
    cold-ckpt-probe resume-campaign <ckpt.json> resume a campaign checkpoint to completion
";

fn fail(msg: &str) -> ! {
    eprintln!("cold-ckpt-probe: {msg}");
    std::process::exit(1);
}

fn read_file(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("read {}: {e}", path.display())))
}

/// The deterministic slice of one synthesis result's trial record — the
/// unit of bit-identity the portability tests compare.
fn trial_value(trial: usize, seed: u64, r: &cold::SynthesisResult) -> Value {
    let record = TrialRecord::from_result(trial, seed, r).to_value();
    let mut slice = serde_json::Map::new();
    for key in ["trial", "seed", "edges", "best_cost_history", "final_population_costs"]
        .into_iter()
        .chain(["front", "hypervolume_history", "reference"])
    {
        if let Some(v) = record.get(key) {
            slice.insert(key.into(), v.clone());
        }
    }
    Value::Object(slice)
}

fn inspect(path: &PathBuf) {
    let text = read_file(path);
    let doc: Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| fail(&format!("{}: not JSON: {e}", path.display())));
    let kind = doc["kind"].as_str().unwrap_or("unknown");
    let summary = match kind {
        "cold-campaign-checkpoint" => {
            let ckpt = CampaignCheckpoint::from_json(&text)
                .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
            serde_json::json!({
                "kind": kind,
                "master_seed": ckpt.master_seed,
                "count": ckpt.count,
                "completed": ckpt.records.len(),
            })
        }
        _ => match cold::ga::GaCheckpoint::from_value(&doc) {
            Ok(ga) => serde_json::json!({
                "kind": "cold-ga-checkpoint",
                "generation": ga.generation,
                "population": ga.population.len(),
            }),
            Err(e) => fail(&format!("{}: unrecognized checkpoint: {e}", path.display())),
        },
    };
    println!("{}", serde_json::to_string(&summary).expect("summary serializes"));
}

fn resume_ga(path: &PathBuf) {
    let doc: Value = serde_json::from_str(&read_file(path))
        .unwrap_or_else(|e| fail(&format!("{}: not JSON: {e}", path.display())));
    let config = ColdConfig::from_json_value(&doc["config"])
        .unwrap_or_else(|| fail("input `config` is not a valid ColdConfig"));
    let seed = doc["seed"].as_u64().unwrap_or_else(|| fail("input `seed` missing"));
    let objective = cold::objective_from_value(doc.get("objective"), config.context.n)
        .unwrap_or_else(|| fail("input `objective` is not a trial objective"));
    let resume = if doc["snapshot"].is_null() {
        None
    } else {
        Some(
            cold::ga::GaCheckpoint::from_value(&doc["snapshot"])
                .unwrap_or_else(|e| fail(&format!("input `snapshot`: {e}"))),
        )
    };
    let options = RunOptions { resume, ..RunOptions::default() };
    let result = config
        .run_trial(TrialSpec::new(seed, objective), options)
        .unwrap_or_else(|e| fail(&format!("resume failed: {e}")));
    println!(
        "{}",
        serde_json::to_string(&trial_value(0, seed, &result)).expect("trial serializes")
    );
}

fn resume_campaign(path: &PathBuf) {
    let ckpt = CampaignCheckpoint::from_json(&read_file(path))
        .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    let campaign = Campaign {
        objective: ckpt.objective.clone(),
        ..Campaign::new(ckpt.config, ckpt.master_seed, ckpt.count)
    };
    let (master_seed, count) = (campaign.master_seed, campaign.count);
    // The resumed leg's own snapshots go next to the input, never over it.
    let scratch = path.with_extension("resume.ckpt.json");
    let snapshots = Some(Snapshots { path: &scratch, every: count.max(1) });
    let results = run_campaign(
        &campaign,
        snapshots,
        Some(ckpt),
        &mut LocalTrials::default(),
        None,
        |_, _| {},
    )
    .unwrap_or_else(|e| fail(&format!("campaign resume failed: {e}")))
    .into_results();
    let _ = std::fs::remove_file(&scratch);
    let trials: Vec<Value> = results
        .iter()
        .enumerate()
        .map(|(i, r)| trial_value(i, derive_seed(master_seed, i as u64), r))
        .collect();
    println!(
        "{}",
        serde_json::to_string(&serde_json::json!({ "trials": trials })).expect("trials serialize")
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [cmd, path] => {
            let path = PathBuf::from(path);
            match cmd.as_str() {
                "inspect" => inspect(&path),
                "resume-ga" => resume_ga(&path),
                "resume-campaign" => resume_campaign(&path),
                other => fail(&format!("unknown subcommand `{other}`\n\n{USAGE}")),
            }
        }
        [flag] if flag == "--help" || flag == "-h" => println!("{USAGE}"),
        _ => fail(&format!("expected a subcommand and a path\n\n{USAGE}")),
    }
}
