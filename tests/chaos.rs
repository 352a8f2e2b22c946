//! Chaos suite: deterministic injected faults × expected recovery paths.
//!
//! Each case arms one `cold-fault` site, drives the real synthesis stack
//! against it, and asserts the *recovery* — not just the failure: retries
//! land on salted seeds and reproduce the clean retry result, partial
//! ensembles keep their failure table, checkpoint write faults never
//! corrupt the previous snapshot, and an interrupted campaign resumes
//! bit-identically once the fault clears.
//!
//! Fault state is process-global, so every test serializes on one mutex
//! and tears down completely — including joining watchdog-abandoned
//! trial threads, which would otherwise keep hitting injection sites and
//! consume the next case's one-shot triggers.

use cold::{
    join_abandoned_watchdog_threads, run_campaign, Campaign, CampaignCheckpoint, ColdConfig,
    ColdError, LocalTrials, Snapshots, StopReason, SynthesisMode, TrialOutcome, TrialRecord,
    TrialSource, RETRY_SALT,
};
use cold_context::rng::derive_seed;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Serializes tests that arm the process-global fault schedule.
fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default).lock().unwrap_or_else(|e| e.into_inner())
}

/// Tears down after a chaos case: drains watchdog-abandoned threads
/// *before* clearing, so a straggling attempt cannot fire into the next
/// test's schedule, then disarms everything.
fn teardown() {
    join_abandoned_watchdog_threads();
    cold_fault::clear();
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cold-chaos-{}-{name}", std::process::id()))
}

#[test]
fn injected_panic_is_recovered_by_the_salted_retry() {
    let _guard = fault_lock();
    let cfg = ColdConfig::quick(8, 1e-4, 10.0);
    let master = 5;

    // Clean references, computed before arming anything.
    cold_fault::clear();
    let retry_seed = derive_seed(derive_seed(master, RETRY_SALT), 0);
    let expected_retry = cfg.synthesize(retry_seed);

    cold_fault::configure("eval.panic:1", master).expect("valid spec");
    let outcome = cfg.synthesize_ensemble(master, 1, None);
    teardown();

    assert!(outcome.is_complete(), "one-shot panic must be absorbed by the retry");
    assert_eq!(outcome.failures.len(), 1);
    let f = &outcome.failures[0];
    assert_eq!((f.trial, f.attempt), (0, 1));
    assert!(f.recovered);
    assert!(
        matches!(&f.error, ColdError::TrialPanic(msg) if msg.contains("injected panic")),
        "got {:?}",
        f.error
    );
    // The recovered trial ran the documented salted seed — bit-identical
    // to synthesizing that seed directly.
    let (_, recovered) = &outcome.results[0];
    assert_eq!(recovered.network.topology, expected_retry.network.topology);
    assert_eq!(recovered.best_cost_history, expected_retry.best_cost_history);

    // A campaign contains the panic the same way: the hit trial is
    // retried on its salted seed, and its record says so. Both trials run
    // at once, so the one-shot fault may hit either: the failure table
    // names it.
    let path = tmp_path("panic-campaign.json");
    let _ = std::fs::remove_file(&path);
    cold_fault::configure("eval.panic:1", master).expect("valid spec");
    let source = &mut Recording(LocalTrials::default(), Vec::new());
    let every1 = Some(Snapshots { path: &path, every: 1 });
    let outcome =
        run_campaign(&Campaign::new(cfg, master, 2), every1, None, source, None, |_, _| {});
    teardown();
    let outcome = outcome.expect("one-shot panic must be absorbed by the campaign's retry");
    assert_eq!(outcome.failures.len(), 1);
    let hit = outcome.failures[0].trial;
    let salted = derive_seed(derive_seed(master, RETRY_SALT), hit as u64);
    assert_eq!(source.1[hit].seed, salted);
    let expected_hit = cfg.synthesize(salted);
    assert_eq!(outcome.results[hit].1.network.topology, expected_hit.network.topology);
    assert_eq!(outcome.results[hit].1.best_cost_history, expected_hit.best_cost_history);
    let other = 1 - hit;
    let expected_other = cfg.synthesize(derive_seed(master, other as u64));
    assert_eq!(outcome.results[other].1.network.topology, expected_other.network.topology);
    assert_eq!(outcome.results[other].1.best_cost_history, expected_other.best_cost_history);
    let _ = std::fs::remove_file(&path);
}

/// A local trial source that keeps a copy of every record it hands over.
struct Recording(LocalTrials, Vec<TrialRecord>);

impl TrialSource for Recording {
    fn next_trials(
        &mut self,
        campaign: &CampaignCheckpoint,
        next: usize,
    ) -> Result<Vec<TrialOutcome>, ColdError> {
        let trials = self.0.next_trials(campaign, next)?;
        self.1.extend(trials.iter().filter_map(|t| t.done.as_ref().map(|(r, _)| r.clone())));
        Ok(trials)
    }
}

#[test]
fn persistent_nan_degrades_to_a_partial_outcome_with_a_failure_table() {
    let _guard = fault_lock();
    // GaOnly: a NaN cost must hit the *engine's* finiteness boundary, not
    // the greedy heuristics (which assume a sane evaluator).
    let mut cfg = ColdConfig::quick(8, 1e-4, 10.0);
    cfg.mode = SynthesisMode::GaOnly;
    cold_fault::configure("eval.nan:p=1.0", 7).expect("valid spec");
    let outcome = cfg.synthesize_ensemble(7, 1, None);
    teardown();

    assert!(!outcome.is_complete());
    assert_eq!(outcome.lost_trials(), vec![0]);
    assert_eq!(outcome.failures.len(), 2, "both attempts recorded");
    for f in &outcome.failures {
        assert!(!f.recovered);
        assert!(
            matches!(&f.error, ColdError::Ga(cold_ga::GaError::NonFiniteCost { cost, .. }) if cost.is_nan()),
            "NaN must surface as the typed NonFiniteCost, got {:?}",
            f.error
        );
    }
    let md = cold::report::outcome_report(&cfg, &outcome, 7);
    assert!(md.contains("## Trial failures"), "report must carry the failure table");
}

#[test]
fn deadline_overrun_is_recovered_when_the_hang_is_one_shot() {
    let _guard = fault_lock();
    let cfg = ColdConfig::quick(8, 1e-4, 10.0);
    cold_fault::configure("trial.hang:1", 9).expect("valid spec");
    // The injected hang sleeps ~2s; a 300ms deadline fires long before.
    let outcome = cfg.synthesize_ensemble(9, 1, Some(Duration::from_millis(300)));
    teardown();

    assert!(outcome.is_complete(), "attempt 2 runs clean after the one-shot hang");
    assert_eq!(outcome.failures.len(), 1);
    let f = &outcome.failures[0];
    assert_eq!((f.trial, f.attempt), (0, 1));
    assert!(f.recovered);
    assert!(matches!(f.error, ColdError::DeadlineExceeded { seconds } if seconds > 0.0));
}

#[test]
fn persistent_hang_becomes_a_lost_trial_not_a_wedge() {
    let _guard = fault_lock();
    let cfg = ColdConfig::quick(8, 1e-4, 10.0);
    cold_fault::configure("trial.hang:p=1.0", 11).expect("valid spec");
    let started = std::time::Instant::now();
    let outcome = cfg.synthesize_ensemble(11, 1, Some(Duration::from_millis(200)));
    let elapsed = started.elapsed();
    teardown();

    assert!(!outcome.is_complete());
    assert_eq!(outcome.lost_trials(), vec![0]);
    assert_eq!(outcome.failures.len(), 2);
    assert!(outcome
        .failures
        .iter()
        .all(|f| matches!(f.error, ColdError::DeadlineExceeded { .. }) && !f.recovered));
    // The whole point of the watchdog: the ensemble returns promptly even
    // though both attempts are still sleeping in the background.
    assert!(elapsed < Duration::from_secs(2), "ensemble wedged for {elapsed:?} on a hanging trial");
}

#[test]
fn ga_checkpoint_write_fault_never_corrupts_the_previous_snapshot() {
    let _guard = fault_lock();
    use cold_ga::{GaCheckpoint, GaError, GaSettings, GeneticAlgorithm};

    let dir = tmp_path("ga-ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snap.json");

    // Two genuine snapshots from one run.
    cold_fault::clear();
    let cfg = ColdConfig::quick(8, 1e-4, 10.0);
    let ctx = cfg.context.generate(3);
    let objective = cold::ColdObjective::new(&ctx, cfg.params);
    let ga = GeneticAlgorithm::new(&objective, GaSettings::quick(3));
    let mut snaps = Vec::new();
    let mut sink = |c: GaCheckpoint| snaps.push(c);
    ga.run_resumable(&[], None, Some(cold_ga::CheckpointHook { every: 10, sink: &mut sink }), None)
        .unwrap();
    assert!(snaps.len() >= 2, "need two snapshots");
    let (a, b) = (&snaps[0], &snaps[1]);

    // Snapshot A lands cleanly; the armed fault makes B's save fail with
    // a typed error naming the path — and A must still load intact.
    a.save(&path).unwrap();
    cold_fault::configure("ga.checkpoint_write_err:1", 3).expect("valid spec");
    let err = b.save(&path).unwrap_err();
    teardown();

    match err {
        GaError::Checkpoint(msg) => {
            assert!(msg.contains("injected checkpoint write failure"), "{msg}");
            assert!(msg.contains("snap.json"), "error must name the path: {msg}");
        }
        other => panic!("expected Checkpoint, got {other:?}"),
    }
    let on_disk = GaCheckpoint::load(&path).expect("previous snapshot still valid");
    assert_eq!(on_disk.to_json(), a.to_json(), "failed save must not touch the old snapshot");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_io_fault_aborts_resumably_and_resume_matches_uninterrupted() {
    let _guard = fault_lock();
    let cfg = ColdConfig::quick(7, 1e-4, 10.0);
    let path = tmp_path("campaign.ckpt.json");
    let _ = std::fs::remove_file(&path);

    let (campaign, every1) = (Campaign::new(cfg, 13, 4), Some(Snapshots { path: &path, every: 1 }));
    // Uninterrupted reference, no faults.
    cold_fault::clear();
    let full = run_campaign(&campaign, every1, None, &mut LocalTrials::default(), None, |_, _| {})
        .expect("clean run")
        .into_results();
    let _ = std::fs::remove_file(&path);

    // every=1, count=4 ⇒ snapshot writes after trials 1, 2, 3. The second
    // write fails ⇒ the campaign aborts with trial 0's snapshot on disk.
    cold_fault::configure("campaign.io_err:2", 13).expect("valid spec");
    let err = run_campaign(&campaign, every1, None, &mut LocalTrials::default(), None, |_, _| {})
        .unwrap_err();
    teardown();

    match &err {
        ColdError::Io(e) => {
            let msg = e.to_string();
            assert!(msg.contains("injected campaign checkpoint I/O failure"), "{msg}");
            assert!(msg.contains("campaign.ckpt.json"), "error must name the path: {msg}");
        }
        other => panic!("expected Io, got {other:?}"),
    }
    let snapshot = CampaignCheckpoint::load(&path).expect("first snapshot survived the abort");
    assert_eq!(snapshot.records.len(), 1, "exactly the pre-fault prefix is on disk");

    // Resume with faults cleared: bit-identical to the uninterrupted run.
    let source = &mut LocalTrials::default();
    let resumed = run_campaign(&campaign, every1, Some(snapshot), source, None, |_, _| {})
        .expect("resume")
        .into_results();
    assert_eq!(resumed.len(), full.len());
    for (x, y) in full.iter().zip(&resumed) {
        assert_eq!(x.network.topology, y.network.topology);
        assert_eq!(x.best_cost_history, y.best_cost_history);
        assert_eq!(x.stop_reason, y.stop_reason);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stall_guard_surfaces_as_a_typed_stop_reason() {
    let _guard = fault_lock();
    cold_fault::clear();
    let mut cfg = ColdConfig::quick(8, 1e-4, 10.0);
    cfg.ga.stall_gens = Some(2);
    let r = cfg.synthesize(17);
    // The quick instance converges well before the 40-generation cap, so
    // two flat generations must occur; the run is deterministic, so this
    // is a stable assertion, not a probabilistic one.
    assert_eq!(r.stop_reason, StopReason::Stalled);
    assert!(r.generations_run < cfg.ga.generations, "stall must shorten the run");
    // The guard changes when the run stops, never what it found up to
    // there: the history is a prefix of the unguarded run's.
    let mut unguarded = cfg;
    unguarded.ga.stall_gens = None;
    let full = unguarded.synthesize(17);
    assert_eq!(
        r.best_cost_history[..],
        full.best_cost_history[..r.best_cost_history.len()],
        "guarded history must be a prefix of the unguarded history"
    );
}

#[test]
fn retry_seeds_never_collide_with_primary_trial_seeds() {
    // The retry stream `derive_seed(derive_seed(master, RETRY_SALT), i)`
    // must be disjoint from the primary stream `derive_seed(master, i)` —
    // a collision would make a "fresh" retry replay the exact failure.
    for master in [0u64, 1, 2014, 0xDEAD_BEEF, u64::MAX] {
        let retry_base = derive_seed(master, RETRY_SALT);
        let primary: std::collections::HashSet<u64> =
            (0..256).map(|i| derive_seed(master, i)).collect();
        assert_eq!(primary.len(), 256, "primary seeds collide among themselves");
        for i in 0..256 {
            let retry = derive_seed(retry_base, i);
            assert!(
                !primary.contains(&retry),
                "retry seed for trial {i} collides with a primary seed (master {master:#x})"
            );
        }
    }
}

#[test]
fn corrupt_campaign_checkpoints_are_typed_errors_naming_the_file() {
    let _guard = fault_lock();
    cold_fault::clear();
    let dir = tmp_path("corrupt");
    std::fs::create_dir_all(&dir).unwrap();

    // Garbage text: well-formed UTF-8 that is not a checkpoint.
    let garbage = dir.join("garbage.ckpt.json");
    std::fs::write(&garbage, "not json at all").unwrap();
    match CampaignCheckpoint::load(&garbage) {
        Err(ColdError::Checkpoint(msg)) => {
            assert!(msg.contains("garbage.ckpt.json"), "error must name the file: {msg}")
        }
        other => panic!("expected Checkpoint error, got {other:?}"),
    }

    // Garbage bytes: invalid UTF-8 fails the read itself — a named I/O
    // error, not a panic.
    let binary = dir.join("binary.ckpt.json");
    std::fs::write(&binary, b"\x00\xff\xfe").unwrap();
    match CampaignCheckpoint::load(&binary) {
        Err(ColdError::Io(e)) => {
            assert!(e.to_string().contains("binary.ckpt.json"), "{e}")
        }
        other => panic!("expected Io error, got {other:?}"),
    }

    // Truncated genuine snapshot.
    let cfg = ColdConfig::quick(7, 1e-4, 10.0);
    let r = cfg.synthesize(derive_seed(3, 0));
    let mut good = CampaignCheckpoint::new(&Campaign::new(cfg, 3, 2));
    good.records.push(cold::TrialRecord::from_result(0, derive_seed(3, 0), &r));
    let good = good.to_json();
    let truncated = dir.join("truncated.ckpt.json");
    std::fs::write(&truncated, &good[..good.len() / 2]).unwrap();
    match CampaignCheckpoint::load(&truncated) {
        Err(ColdError::Checkpoint(msg)) => {
            assert!(msg.contains("truncated.ckpt.json"), "{msg}")
        }
        other => panic!("expected Checkpoint error, got {other:?}"),
    }

    // Missing file is a (named) I/O error, not a panic.
    match CampaignCheckpoint::load(&dir.join("absent.ckpt.json")) {
        Err(ColdError::Io(e)) => assert!(e.to_string().contains("absent.ckpt.json")),
        other => panic!("expected Io error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_injection_is_deterministic_per_seed() {
    let _guard = fault_lock();
    // The same (spec, seed) pair must produce the same failure pattern —
    // chaos runs are as reproducible as clean ones.
    let mut cfg = ColdConfig::quick(8, 1e-4, 10.0);
    cfg.mode = SynthesisMode::GaOnly;
    let run = |seed: u64| {
        cold_fault::configure("eval.nan:p=0.5", seed).expect("valid spec");
        let outcome = cfg.synthesize_ensemble(seed, 1, None);
        cold_fault::clear();
        outcome.failures.iter().map(|f| (f.trial, f.attempt)).collect::<Vec<_>>()
    };
    let a = run(21);
    let b = run(21);
    teardown();
    assert_eq!(a, b, "identical spec+seed must reproduce the identical failure pattern");
}

#[test]
fn an_injected_nan_fails_a_pareto_trial_at_the_engine_boundary() {
    let _guard = fault_lock();
    // A Pareto candidate prices all three objectives from its cost
    // session; a NaN injected there must still fail the trial as a typed
    // NonFiniteCost on the same candidate, whichever evaluation it hits:
    // the first (a full pass), one inside generation 0, and one in a
    // later generation, where sessions repair and answer duplicates.
    let mut cfg = ColdConfig::quick(8, 1e-4, 10.0);
    cfg.mode = SynthesisMode::GaOnly;
    cfg.ga.parallel = false;
    let mut seen = Vec::new();
    for hit in [1, 7, 60] {
        cold_fault::configure(&format!("eval.nan:{hit}"), 3).expect("valid spec");
        let result = cold::pareto::try_synthesize_pareto(&cfg, 3, 8);
        teardown();
        match result {
            Err(ColdError::Ga(cold_ga::GaError::NonFiniteCost { batch_index, cost, edges })) => {
                assert!(cost.is_nan(), "hit {hit}: the NaN is the cost component, got {cost}");
                seen.push((batch_index, edges));
            }
            other => panic!("hit {hit}: expected NonFiniteCost, got {:?}", other.map(|_| ())),
        }
    }
    assert_eq!(seen, [(0, 7), (6, 19), (1, 12)]);
}
