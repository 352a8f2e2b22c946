//! End-to-end tests for the `cold-gen` runtime guards, fault-injection
//! flags, and the documented exit-code contract: every code in the
//! `--help` EXIT CODES table is produced by a real invocation here.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cold-gen")).args(args).output().expect("spawn cold-gen")
}

fn temp_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("cold-guards-{}-{name}", std::process::id()));
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
fn help_documents_the_exit_code_table() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "--help is a success");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("EXIT CODES"), "help must carry the exit-code table");
    for needle in [
        "0   success",
        "1   synthesis or campaign failure",
        "2   flag or validation error",
        "3   injected halt (--halt-after)",
        "4   a trial exceeded --trial-deadline",
        "5   a GA run stalled under --stall-gens",
    ] {
        assert!(text.contains(needle), "help missing exit-code row {needle:?}:\n{text}");
    }
    assert!(text.contains("--faults <SPEC>"), "help must document --faults");
    assert!(text.contains("COLD_FAULTS"), "help must mention the env var form");
}

/// The deadline-guarded runs: a plain ensemble, and a checkpointed
/// campaign (same retry policy, same exit codes).
const DEADLINE_MODES: [(&str, &[&str]); 2] =
    [("ensemble", &[]), ("campaign", &["--checkpoint-every", "1"])];

#[test]
fn unrecovered_deadline_overrun_exits_4() {
    for (mode, extra) in DEADLINE_MODES {
        let dir = temp_dir(&format!("deadline-{mode}"));
        let out = run(&[
            &[
                "--quick",
                "--n",
                "8",
                "--seed",
                "5",
                "--count",
                "1",
                "--quiet",
                "--out",
                dir.to_str().unwrap(),
                "--trial-deadline",
                "0.2",
                "--faults",
                "trial.hang:p=1.0",
            ],
            extra,
        ]
        .concat());
        assert_eq!(out.status.code(), Some(4), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("deadline"), "stderr must say why: {err}");
        // A one-trial campaign never snapshots: there is nothing to resume.
        assert!(!err.contains("recoverable"), "{mode}: a resume hint names no snapshot: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn one_shot_hang_is_absorbed_and_exits_0() {
    for (mode, extra) in DEADLINE_MODES {
        let dir = temp_dir(&format!("deadline-recovered-{mode}"));
        let out = run(&[
            &[
                "--quick",
                "--n",
                "8",
                "--seed",
                "5",
                "--count",
                "1",
                "--quiet",
                "--out",
                dir.to_str().unwrap(),
                "--trial-deadline",
                "0.2",
                "--faults",
                "trial.hang:1",
            ],
            extra,
        ]
        .concat());
        assert_eq!(
            out.status.code(),
            Some(0),
            "retry must absorb the one-shot hang; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(exports(&dir).len(), 1, "the recovered trial must still be exported");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn injected_panic_is_absorbed_in_plain_and_resilient_runs() {
    for (mode, extra) in [("plain", &[][..]), ("resilient", &["--bridge-cost", "50"][..])] {
        let dir = temp_dir(&format!("panic-{mode}"));
        let out = run(&[
            &["--quick", "--n", "8", "--seed", "5", "--count", "1", "--quiet"][..],
            &["--out", dir.to_str().unwrap(), "--faults", "eval.panic:1"],
            extra,
        ]
        .concat());
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{mode}: the retry must absorb the panic: {err}");
        assert!(err.contains("retry recovered it"), "{mode}: stderr names the failure: {err}");
        assert_eq!(exports(&dir).len(), 1, "{mode}: the recovered trial must be exported");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn stalled_ga_exits_5_but_still_writes_outputs() {
    // The stall guard reads best cost in scalar runs and archive
    // hypervolume in Pareto runs; both report the stall the same way.
    let common = ["--quick", "--n", "8", "--seed", "17", "--count", "1", "--quiet"];
    for (name, mode) in [("stall", &[][..]), ("stall-pareto", &["--pareto", "--archive", "16"][..])]
    {
        let dir = temp_dir(name);
        let out =
            run(&[&common[..], mode, &["--out", dir.to_str().unwrap(), "--stall-gens", "1"]]
                .concat());
        assert_eq!(out.status.code(), Some(5), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("stall"), "stderr must name the stop reason: {err}");
        assert_eq!(exports(&dir).len(), 1, "stall is a soft stop: outputs are still written");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn invalid_guard_and_fault_flags_exit_2() {
    for bad in [
        &["--quick", "--faults", "bogus.site:1"][..],
        &["--quick", "--faults", "eval.nan:p=1.5"][..],
        &["--quick", "--trial-deadline", "0"][..],
        &["--quick", "--trial-deadline", "-3"][..],
        &["--quick", "--stall-gens", "0"][..],
        &["--quick", "--n", "1"][..],
        &["--quick", "--k2", "-1"][..],
        &["--quick", "--n", "abc"][..],
        &["--quick", "--count", "--quiet"][..],
        &["--quick", "--seed"][..],
        &["--quick", "--journal", "Cargo.toml/journal.jsonl"][..],
        &["evolve", "--plan"][..],
        &["evolve", "--out"][..],
    ] {
        let out = run(bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("USAGE"), "exit-2 path reprints usage: {err}");
    }
}

#[test]
fn halt_under_injected_fault_resumes_clean_to_identical_outputs() {
    // A fault-armed campaign halted mid-run must leave a snapshot that a
    // clean (fault-free) resume completes to the same artifacts as a run
    // that never saw a fault: eval.slow perturbs timing, never results.
    let dir_a = temp_dir("chaos-full");
    let dir_b = temp_dir("chaos-resumed");
    let common = ["--quick", "--n", "8", "--seed", "77", "--count", "3", "--quiet"];

    let full = run(&[&common[..], &["--out", dir_a.to_str().unwrap()]].concat());
    assert!(full.status.success(), "full run failed: {}", String::from_utf8_lossy(&full.stderr));

    let halted = run(&[
        &common[..],
        &[
            "--out",
            dir_b.to_str().unwrap(),
            "--checkpoint-every",
            "1",
            "--halt-after",
            "1",
            "--faults",
            "eval.slow:5",
        ],
    ]
    .concat());
    assert_eq!(halted.status.code(), Some(3), "halt leg must exit 3");
    let ckpt = dir_b.join("cold_campaign_seed000000000000004d.ckpt.json");
    assert!(ckpt.exists(), "halt left no snapshot at {}", ckpt.display());

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

    let a = exports(&dir_a);
    let b = exports(&dir_b);
    assert_eq!(a.len(), 3);
    assert_eq!(a, b, "fault-interrupted campaign must resume to the clean run's artifacts");

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
