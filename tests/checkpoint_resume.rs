//! Workspace-level crash-safety journeys: a campaign killed mid-run and
//! resumed from its snapshot must reproduce the uninterrupted campaign
//! bit-for-bit (exports included), an injected trial panic must surface as
//! a `trial_failed` journal event plus a partial report rather than an
//! abort, and checkpoint writes must leave an audit trail in the journal.

use cold::report::outcome_report;
use cold::{export, run_campaign, CampaignCheckpoint, ColdConfig};
use cold_obs::{parse_journal, Event, TraceMode};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests that flip the process-global telemetry state, and the
/// tests whose campaigns emit into it (their checkpoint events would land
/// in another test's journal).
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default).lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cold-ckpt-{}-{name}", std::process::id()))
}

#[test]
fn interrupted_campaign_resume_is_bit_identical_end_to_end() {
    let _guard = telemetry_lock();
    let cfg = ColdConfig::quick(8, 4e-4, 10.0);
    let ckpt = temp_file("journey.ckpt.json");
    let _ = std::fs::remove_file(&ckpt);

    // Uninterrupted reference, capturing what a CLI run would export.
    let full = run_campaign(&cfg, 21, 3, 1, &ckpt, None, None, |_, _| {}).expect("reference run");
    let reference: Vec<String> =
        full.iter().map(|r| export::to_json(&r.network, &r.context)).collect();
    let _ = std::fs::remove_file(&ckpt);

    // Crash mid-campaign: the hook dies on trial 1, after the snapshot
    // covering trials 0–1 hit the disk.
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_campaign(&cfg, 21, 3, 1, &ckpt, None, None, |i, _| {
            if i == 1 {
                panic!("simulated kill");
            }
        })
    }));
    assert!(crashed.is_err(), "first leg must die");

    // Resume from the snapshot and compare every exported artifact.
    let snapshot = CampaignCheckpoint::load(&ckpt).expect("valid snapshot on disk");
    assert!(!snapshot.records.is_empty() && snapshot.records.len() < 3, "partial snapshot");
    let resumed =
        run_campaign(&cfg, 21, 3, 1, &ckpt, Some(snapshot), None, |_, _| {}).expect("resumed run");
    assert_eq!(resumed.len(), full.len());
    for (i, (a, b)) in full.iter().zip(&resumed).enumerate() {
        assert_eq!(a.network.topology, b.network.topology, "trial {i} topology");
        assert_eq!(a.best_cost_history, b.best_cost_history, "trial {i} history");
        assert_eq!(
            reference[i],
            export::to_json(&b.network, &b.context),
            "trial {i} exported JSON differs after resume"
        );
    }
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn injected_panic_emits_trial_failed_events_and_partial_report() {
    let _guard = telemetry_lock();
    let journal = temp_file("failures.jsonl");
    cold_obs::configure(TraceMode::Journal(journal.clone())).expect("journal sink");
    let cfg = ColdConfig::quick(7, 4e-4, 10.0);
    // Trial 1 panics on both attempts; everything else is healthy.
    let outcome = cfg.ensemble_with_runner(9, 3, &|c, seed, trial, _attempt| {
        if trial == 1 {
            panic!("injected trial failure");
        }
        c.try_synthesize(seed)
    });
    cold_obs::configure(TraceMode::Off).expect("disable sink");

    // The ensemble degrades instead of aborting: 2 of 3 trials survive.
    assert_eq!(outcome.lost_trials(), vec![1]);
    assert_eq!(outcome.results.len(), 2);

    // Both failed attempts are journaled as `trial_failed` events.
    let text = std::fs::read_to_string(&journal).expect("journal written");
    let events = parse_journal(&text).expect("journal parses");
    let mut failed: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::TrialFailed(f) => Some(f),
            _ => None,
        })
        .collect();
    failed.sort_by_key(|f| f.attempt);
    assert_eq!(failed.len(), 2, "one event per failed attempt");
    assert!(failed.iter().all(|f| f.trial == 1));
    assert_eq!(failed.iter().map(|f| f.attempt).collect::<Vec<_>>(), vec![1, 2]);
    assert_ne!(failed[0].seed, failed[1].seed, "retry runs on a fresh salted seed");
    assert!(failed.iter().all(|f| f.error.contains("injected trial failure")));

    // The report renders the partial ensemble plus the failure table.
    let md = outcome_report(&cfg, &outcome, 9);
    assert!(md.contains("networks: **2**"));
    assert!(md.contains("## Trial failures"));
    assert!(md.contains("injected trial failure"));
    assert!(md.contains("| lost |"));
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn campaign_checkpoints_leave_a_journal_audit_trail() {
    let _guard = telemetry_lock();
    let journal = temp_file("audit.jsonl");
    let ckpt = temp_file("audit.ckpt.json");
    let _ = std::fs::remove_file(&ckpt);
    cold_obs::configure(TraceMode::Journal(journal.clone())).expect("journal sink");
    let cfg = ColdConfig::quick(7, 4e-4, 10.0);
    run_campaign(&cfg, 5, 3, 1, &ckpt, None, None, |_, _| {}).expect("campaign");
    cold_obs::configure(TraceMode::Off).expect("disable sink");

    let text = std::fs::read_to_string(&journal).expect("journal written");
    let events = parse_journal(&text).expect("journal parses");
    let checkpoints: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Checkpoint(c) => Some(c),
            _ => None,
        })
        .collect();
    // every=1, count=3: snapshots after trials 1 and 2; the final trial
    // completes the campaign and is not snapshotted.
    assert_eq!(checkpoints.iter().map(|c| c.completed).collect::<Vec<_>>(), vec![1, 2]);
    assert!(checkpoints.iter().all(|c| c.total == 3));
    assert!(checkpoints.iter().all(|c| c.path.ends_with("audit.ckpt.json")));
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&ckpt);
}
