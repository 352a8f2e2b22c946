//! Checkpoint portability: snapshots taken mid-run in *this* process
//! must resume bit-identically in a *separate* process
//! (`cold-ckpt-probe`). Serialization quirks that an in-process
//! round-trip can mask — shared statics, interned state, anything that
//! never actually crosses the process boundary — have nowhere to hide
//! here.

use cold::context::rng::derive_seed;
use cold::ga::GaCheckpoint;
use cold::{
    run_campaign, Campaign, ColdConfig, ColdError, LocalTrials, RunOptions, Snapshots,
    SynthesisResult, TrialObjective, TrialSpec,
};
use serde::Serialize as _;
use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, Output};

fn probe(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cold-ckpt-probe"))
        .args(args)
        .output()
        .expect("spawn cold-ckpt-probe")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cold-portability-{}-{name}", std::process::id()))
}

/// The same deterministic slice `cold-ckpt-probe` prints for one trial.
fn trial_value(trial: usize, seed: u64, r: &SynthesisResult) -> Value {
    let edges: Vec<Value> =
        r.network.topology.edges().map(|(a, b)| serde_json::json!([a, b])).collect();
    serde_json::json!({
        "trial": trial,
        "seed": seed,
        "edges": edges,
        "best_cost_history": r.best_cost_history,
        "final_population_costs": r.final_population_costs,
    })
}

fn stdout_json(out: &Output) -> Value {
    assert!(
        out.status.success(),
        "probe failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).expect("probe prints JSON")
}

#[test]
fn ga_snapshot_resumes_bit_identically_in_a_separate_process() {
    let config = ColdConfig::quick(8, 4e-4, 10.0);
    let seed = 7u64;

    // Capture a mid-run snapshot while producing the reference result.
    let mut snapshot: Option<GaCheckpoint> = None;
    let mut sink = |ckpt: GaCheckpoint| {
        if snapshot.is_none() {
            snapshot = Some(ckpt);
        }
    };
    let checkpoint = Some(cold::ga::CheckpointHook { every: 2, sink: &mut sink });
    let options = RunOptions { checkpoint, ..RunOptions::default() };
    let reference = config
        .run_trial(TrialSpec::new(seed, TrialObjective::Cost), options)
        .expect("reference synthesis")
        .into_single();
    let snapshot = snapshot.expect("a snapshot was captured mid-run");
    assert!(snapshot.generation > 0, "snapshot must be genuinely mid-run");

    let input = temp_path("ga-input.json");
    std::fs::write(
        &input,
        serde_json::to_string(&serde_json::json!({
            "config": config.to_json_value(),
            "seed": seed,
            "snapshot": snapshot.to_value(),
        }))
        .expect("input serializes"),
    )
    .expect("write probe input");

    let resumed = stdout_json(&probe(&["resume-ga", input.to_str().unwrap()]));
    assert_eq!(
        resumed,
        trial_value(0, seed, &reference),
        "cross-process GA resume diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_file(&input);
}

#[test]
fn campaign_checkpoint_resumes_bit_identically_in_a_separate_process() {
    let config = ColdConfig::quick(8, 4e-4, 10.0);
    let (master, count) = (41u64, 3usize);

    // Reference: uninterrupted campaign in this process.
    let ref_ckpt = temp_path("campaign-ref.ckpt.json");
    let campaign = Campaign::new(config, master, count);
    let snapshots = Some(Snapshots { path: &ref_ckpt, every: count });
    let reference =
        run_campaign(&campaign, snapshots, None, &mut LocalTrials::default(), None, |_, _| {})
            .expect("reference campaign")
            .into_results();

    // Interrupted leg: cancel after the first trial, leaving a
    // one-trial checkpoint on disk — the stand-in for a dead process.
    let ckpt = temp_path("campaign.ckpt.json");
    let cancel = std::sync::atomic::AtomicBool::new(false);
    let source = &mut LocalTrials::default();
    let every1 = Some(Snapshots { path: &ckpt, every: 1 });
    let err = run_campaign(&campaign, every1, None, source, Some(&cancel), |i, _| {
        if i == 0 {
            cancel.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    })
    .expect_err("canceled campaign must not complete");
    assert!(matches!(err, ColdError::Canceled { completed: 1 }), "unexpected error: {err}");
    assert!(ckpt.exists(), "cancel must leave a checkpoint at {}", ckpt.display());

    let resumed = stdout_json(&probe(&["resume-campaign", ckpt.to_str().unwrap()]));
    let expected: Vec<Value> = reference
        .iter()
        .enumerate()
        .map(|(i, r)| trial_value(i, derive_seed(master, i as u64), r))
        .collect();
    assert_eq!(
        resumed,
        serde_json::json!({ "trials": expected }),
        "cross-process campaign resume diverged from the uninterrupted run"
    );

    // `inspect` agrees with what we wrote.
    let summary = stdout_json(&probe(&["inspect", ckpt.to_str().unwrap()]));
    assert_eq!(summary["kind"].as_str(), Some("cold-campaign-checkpoint"));
    assert_eq!(summary["completed"].as_u64(), Some(1));
    assert_eq!(summary["count"].as_u64(), Some(count as u64));

    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&ref_ckpt);
}
