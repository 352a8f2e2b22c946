//! End-to-end crash recovery through the `cold-gen` binary: halt a
//! campaign mid-ensemble with `--halt-after` (the deterministic stand-in
//! for `kill -9`), resume it with `--resume`, and require the output
//! directory to match an uninterrupted run file-for-file.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cold-gen")).args(args).output().expect("spawn cold-gen")
}

fn temp_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("cold-gen-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).expect("create temp out dir");
    p
}

/// Sorted `(file name, contents)` of every exported network in `dir`
/// (checkpoint sidecars excluded).
fn exports(dir: &Path) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("read out dir")
        .map(|e| e.expect("dir entry"))
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.ends_with(".json") && !name.ends_with(".ckpt.json")
        })
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let body = std::fs::read_to_string(e.path()).expect("read export");
            (name, body)
        })
        .collect();
    out.sort();
    out
}

#[test]
fn halt_then_resume_matches_uninterrupted_run_file_for_file() {
    let dir_a = temp_dir("full");
    let dir_b = temp_dir("resumed");
    let common = ["--quick", "--n", "8", "--seed", "77", "--count", "3", "--quiet"];

    // Reference: one uninterrupted run.
    let full = run(&[&common[..], &["--out", dir_a.to_str().unwrap()]].concat());
    assert!(full.status.success(), "full run failed: {}", String::from_utf8_lossy(&full.stderr));

    // Leg 1: checkpoint every trial, halt (exit code 3) after the first
    // fresh trial — the snapshot must already be on disk.
    let halted = run(&[
        &common[..],
        &["--out", dir_b.to_str().unwrap(), "--checkpoint-every", "1", "--halt-after", "1"],
    ]
    .concat());
    assert_eq!(halted.status.code(), Some(3), "halt leg must exit 3");
    let ckpt = dir_b.join("cold_campaign_seed000000000000004d.ckpt.json");
    assert!(ckpt.exists(), "halt left no snapshot at {}", ckpt.display());
    assert!(exports(&dir_b).len() < 3, "halted leg must not finish the campaign");

    // Leg 2: resume from the snapshot and finish.
    let resumed = run(&[
        &common[..],
        &["--out", dir_b.to_str().unwrap(), "--resume", ckpt.to_str().unwrap()],
    ]
    .concat());
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );

    // The resumed directory reproduces the uninterrupted one exactly.
    let a = exports(&dir_a);
    let b = exports(&dir_b);
    assert_eq!(a.len(), 3);
    assert_eq!(a, b, "resumed campaign exports differ from uninterrupted run");

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn resume_with_mismatched_campaign_is_a_clean_error() {
    let dir = temp_dir("mismatch");
    let halted = run(&[
        "--quick",
        "--n",
        "8",
        "--seed",
        "77",
        "--count",
        "3",
        "--quiet",
        "--out",
        dir.to_str().unwrap(),
        "--checkpoint-every",
        "1",
        "--halt-after",
        "1",
    ]);
    assert_eq!(halted.status.code(), Some(3));
    let ckpt = dir.join("cold_campaign_seed000000000000004d.ckpt.json");

    // Same snapshot, different master seed: rejected, not silently mixed.
    let wrong = run(&[
        "--quick",
        "--n",
        "8",
        "--seed",
        "78",
        "--count",
        "3",
        "--quiet",
        "--out",
        dir.to_str().unwrap(),
        "--resume",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(wrong.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&wrong.stderr);
    assert!(stderr.contains("checkpoint rejected"), "stderr: {stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_safety_flag_validation() {
    // Zero intervals are parse-time errors (exit 2). Each case writes
    // into a temporary directory, should it ever run.
    let out_dir = temp_dir("flag-validation");
    let out_flag = ["--out", out_dir.to_str().unwrap()];
    for bad in [&["--checkpoint-every", "0"][..], &["--halt-after", "0"][..]] {
        let out = run(&[&["--quick", "--n", "8", "--quiet"][..], &out_flag, bad].concat());
        assert_eq!(out.status.code(), Some(2), "args {bad:?} must be rejected");
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn resilient_runs_match_across_deadline_and_halt_resume() {
    // A --bridge-cost run goes through the same campaign loop as a cost
    // run, and so does a --pareto run: a deadline-guarded run and a
    // halted-then-resumed campaign both reproduce the plain run's exports
    // file for file.
    let common = ["--quick", "--n", "8", "--seed", "77", "--count", "3", "--quiet"];
    for (tag, mode) in
        [("resilient", &["--bridge-cost", "50"][..]), ("pareto", &["--pareto", "--archive", "16"])]
    {
        let flags = [&common[..], mode].concat();
        let plain = temp_dir(&format!("{tag}-plain"));
        let out = run(&[&flags[..], &["--out", plain.to_str().unwrap()]].concat());
        assert!(out.status.success(), "plain run failed: {}", String::from_utf8_lossy(&out.stderr));
        let reference = exports(&plain);
        assert_eq!(reference.len(), 3);

        let guarded = temp_dir(&format!("{tag}-deadline"));
        let out =
            run(&[&flags[..], &["--out", guarded.to_str().unwrap(), "--trial-deadline", "5"]]
                .concat());
        assert!(
            out.status.success(),
            "deadline run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(exports(&guarded), reference, "--trial-deadline changed a {tag} export");

        let resumed = temp_dir(&format!("{tag}-resumed"));
        let halted = run(&[
            &flags[..],
            &["--out", resumed.to_str().unwrap(), "--checkpoint-every", "1", "--halt-after", "1"],
        ]
        .concat());
        assert_eq!(halted.status.code(), Some(3), "halt leg must exit 3");
        let ckpt = resumed.join("cold_campaign_seed000000000000004d.ckpt.json");
        let text = std::fs::read_to_string(&ckpt).expect("halt left a snapshot");
        assert!(text.contains("\"objective\""), "a {tag} snapshot names its objective");
        let out = run(&[
            &flags[..],
            &["--out", resumed.to_str().unwrap(), "--resume", ckpt.to_str().unwrap()],
        ]
        .concat());
        assert!(out.status.success(), "resume failed: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(exports(&resumed), reference, "resumed {tag} campaign differs");

        // The snapshot belongs to the {tag} campaign: a cost run rejects it.
        let wrong = run(&[
            &common[..],
            &["--out", resumed.to_str().unwrap(), "--resume", ckpt.to_str().unwrap()],
        ]
        .concat());
        assert_eq!(wrong.status.code(), Some(1));
        assert!(String::from_utf8_lossy(&wrong.stderr).contains("objective"));

        for dir in [plain, guarded, resumed] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn a_halt_only_names_a_snapshot_that_holds_its_trials() {
    // The campaign's last trial is never snapshotted, so halting there
    // would name a snapshot without it: the run completes instead, with
    // the uninterrupted run's exports.
    let common = ["--quick", "--n", "8", "--seed", "5", "--quiet"];
    for count in ["1", "3"] {
        let full = temp_dir(&format!("last-full-{count}"));
        let out =
            run(&[&common[..], &["--count", count, "--out", full.to_str().unwrap()]].concat());
        assert!(out.status.success(), "full run failed: {}", String::from_utf8_lossy(&out.stderr));
        let reference = exports(&full);
        assert_eq!(reference.len().to_string(), count);

        let halted = temp_dir(&format!("last-halted-{count}"));
        let out = run(&[
            &common[..],
            &["--count", count, "--out", halted.to_str().unwrap()],
            &["--checkpoint-every", "1", "--halt-after", count],
        ]
        .concat());
        assert_eq!(
            out.status.code(),
            Some(0),
            "count {count}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(exports(&halted), reference, "count {count}: exports differ");
        for dir in [full, halted] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    // Off the snapshot cadence, the halt waits for the next snapshot: it
    // holds both fresh trials, and the resumed run finishes the campaign.
    let full = temp_dir("cadence-full");
    let out = run(&[&common[..], &["--count", "4", "--out", full.to_str().unwrap()]].concat());
    assert!(out.status.success(), "full run failed: {}", String::from_utf8_lossy(&out.stderr));
    let halted = temp_dir("cadence-halted");
    let args = ["--count", "4", "--checkpoint-every", "2", "--out", halted.to_str().unwrap()];
    let out = run(&[&common[..], &args, &["--halt-after", "1"]].concat());
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let ckpt = halted.join("cold_campaign_seed0000000000000005.ckpt.json");
    let snapshot = cold::CampaignCheckpoint::load(&ckpt).expect("the named snapshot exists");
    assert_eq!(snapshot.records.len(), 2);
    let out = run(&[&common[..], &args, &["--resume", ckpt.to_str().unwrap()]].concat());
    assert!(out.status.success(), "resume failed: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(exports(&halted), exports(&full));
    for dir in [full, halted] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_pareto_front_file_is_the_in_process_front() {
    // `--pareto` writes trial i's front, computed on the campaign's trial
    // seed, as `export::pareto_front_to_json` renders it; cold-serve's
    // Pareto documents are pinned against the same rendering.
    let dir = temp_dir("pareto-front");
    let out = run(&[
        "--quick",
        "--n",
        "8",
        "--seed",
        "13",
        "--count",
        "1",
        "--quiet",
        "--pareto",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "pareto run failed: {}", String::from_utf8_lossy(&out.stderr));
    let seed = cold::context::rng::derive_seed(13, 0);
    let cfg = cold::ColdConfig::quick(8, 4e-4, 10.0);
    let front = cold::try_synthesize_pareto(&cfg, seed, cold::pareto::DEFAULT_ARCHIVE_CAPACITY)
        .expect("pareto run");
    let file = dir.join(format!("cold_pareto_n8_seed{seed:016x}.json"));
    let written = std::fs::read_to_string(&file).expect("front file written");
    assert_eq!(written, cold::export::pareto_front_to_json(&front));
    let _ = std::fs::remove_dir_all(&dir);
}
