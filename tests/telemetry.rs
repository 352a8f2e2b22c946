//! Integration tests for the `cold-obs` telemetry layer: a real synthesis
//! run journaled to disk, the JSONL schema round-tripped through the
//! vendored `serde_json`, and the determinism guarantee (tracing on vs.
//! off) checked at the `ColdConfig` level.

use cold::{ColdConfig, RunOptions, TrialObjective, TrialSpec};
use cold_obs::{parse_journal, Event, TraceMode};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests in this binary that flip the process-global telemetry
/// state (sink, timer gate). Without it `cargo test`'s parallel threads
/// would race on enable/disable.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default).lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_journal(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cold-telemetry-{}-{name}.jsonl", std::process::id()))
}

#[test]
fn journal_records_one_event_per_generation_and_round_trips() {
    let _guard = telemetry_lock();
    let path = temp_journal("roundtrip");
    cold_obs::configure(TraceMode::Journal(path.clone())).expect("journal sink");
    let cfg = ColdConfig::quick(10, 4e-4, 10.0);
    let result = cfg.synthesize(42);
    cold_obs::configure(TraceMode::Off).expect("disable sink");

    assert_eq!(result.journal_path.as_deref(), Some(path.as_path()));
    let text = std::fs::read_to_string(&path).expect("journal written");
    let events = parse_journal(&text).expect("every line is a valid event");

    // Exactly one run_start and one run_end, same run id, framing the
    // generation events.
    let starts: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::RunStart(s) => Some(s),
            _ => None,
        })
        .collect();
    let ends: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::RunEnd(s) => Some(s),
            _ => None,
        })
        .collect();
    assert_eq!(starts.len(), 1);
    assert_eq!(ends.len(), 1);
    assert_eq!(starts[0].run, ends[0].run);
    assert_eq!(starts[0].n, 10);
    assert_eq!(starts[0].generations, cfg.ga.generations);

    // One generation event per executed generation, 1-based and ordered,
    // with monotone non-increasing best fitness (elitism).
    let gens: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Generation(g) => Some(g),
            _ => None,
        })
        .collect();
    assert_eq!(gens.len(), result.generations_run);
    for (i, g) in gens.iter().enumerate() {
        assert_eq!(g.run, starts[0].run);
        assert_eq!(g.record.generation, i + 1);
        assert!(g.record.best <= g.record.mean + 1e-12);
        assert!(g.record.mean <= g.record.worst + 1e-12);
        assert!((0.0..=1.0).contains(&g.record.diversity));
        if i > 0 {
            assert!(g.record.best <= gens[i - 1].record.best + 1e-12, "best regressed at {i}");
        }
    }

    // The run_end summary matches what the synthesis result reports.
    assert_eq!(ends[0].generations_run, result.generations_run);
    assert_eq!(ends[0].evaluations, result.evaluations);
    assert!((ends[0].best_cost - result.network.total_cost()).abs() < 1e-9);
    assert!((0.0..=1.0).contains(&ends[0].cache_hit_rate));

    // Schema round-trip through the vendored serde_json: serialize each
    // parsed event back to a JSONL line, re-parse, and re-serialize; the
    // fixed point must be reached after one cycle.
    for event in &events {
        let line = event.to_json_line();
        let reparsed = parse_journal(&line).expect("re-serialized event parses");
        assert_eq!(reparsed.len(), 1);
        assert_eq!(reparsed[0].to_json_line(), line, "round-trip changed the event");
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn guard_and_fault_events_round_trip_through_the_journal() {
    let _guard = telemetry_lock();
    let path = temp_journal("guard-events");
    cold_obs::configure(TraceMode::Journal(path.clone())).expect("journal sink");
    cold_obs::emit(&Event::TrialDeadlineExceeded(cold_obs::TrialDeadlineExceeded {
        trial: 3,
        attempt: 2,
        seed: u64::MAX,
        seconds: 0.25,
    }));
    cold_obs::emit(&Event::GaStalled(cold_obs::GaStalled {
        run: cold_obs::run_id(0xBEEF),
        generation: 57,
        stall_gens: 25,
        best: 101.5,
    }));
    cold_obs::emit(&Event::FaultInjected(cold_obs::FaultInjected {
        site: "eval.nan".into(),
        hit: 12,
    }));
    cold_obs::configure(TraceMode::Off).expect("disable sink");

    let text = std::fs::read_to_string(&path).expect("journal written");
    let events = parse_journal(&text).expect("every line is a valid event");
    assert_eq!(events.len(), 3);
    match &events[0] {
        Event::TrialDeadlineExceeded(d) => {
            assert_eq!((d.trial, d.attempt, d.seed), (3, 2, u64::MAX));
            assert_eq!(d.seconds, 0.25);
        }
        other => panic!("expected trial_deadline_exceeded, got {other:?}"),
    }
    match &events[1] {
        Event::GaStalled(s) => {
            assert_eq!((s.generation, s.stall_gens), (57, 25));
            assert_eq!(s.best, 101.5);
        }
        other => panic!("expected ga_stalled, got {other:?}"),
    }
    match &events[2] {
        Event::FaultInjected(f) => assert_eq!((f.site.as_str(), f.hit), ("eval.nan", 12)),
        other => panic!("expected fault_injected, got {other:?}"),
    }
    // One serialize→parse→serialize cycle is a fixed point.
    for event in &events {
        let line = event.to_json_line();
        let reparsed = parse_journal(&line).expect("re-serialized event parses");
        assert_eq!(reparsed[0].to_json_line(), line);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_events_round_trip_through_the_journal() {
    let _guard = telemetry_lock();
    let path = temp_journal("serve-events");
    cold_obs::configure(TraceMode::Journal(path.clone())).expect("journal sink");
    let id = "00c0ffee00c0ffee".to_string();
    cold_obs::emit(&Event::JobSubmitted(cold_obs::JobSubmitted {
        id: id.clone(),
        n: 12,
        count: 4,
        seed: u64::MAX,
    }));
    cold_obs::emit(&Event::JobStarted(cold_obs::JobStarted { id: id.clone(), resumed: 2 }));
    cold_obs::emit(&Event::CacheHit(cold_obs::CacheHit {
        id: id.clone(),
        kind: "inflight".into(),
    }));
    cold_obs::emit(&Event::JobDone(cold_obs::JobDone { id: id.clone(), trials: 4, seconds: 1.75 }));
    cold_obs::emit(&Event::JobFailed(cold_obs::JobFailed {
        id: id.clone(),
        error: "trial panicked: injected".into(),
    }));
    cold_obs::configure(TraceMode::Off).expect("disable sink");

    let text = std::fs::read_to_string(&path).expect("journal written");
    let events = parse_journal(&text).expect("every line is a valid event");
    assert_eq!(events.len(), 5);
    match &events[0] {
        Event::JobSubmitted(j) => {
            assert_eq!(j.id, id);
            assert_eq!((j.n, j.count, j.seed), (12, 4, u64::MAX));
        }
        other => panic!("expected job_submitted, got {other:?}"),
    }
    match &events[1] {
        Event::JobStarted(j) => assert_eq!((j.id.as_str(), j.resumed), (id.as_str(), 2)),
        other => panic!("expected job_started, got {other:?}"),
    }
    match &events[2] {
        Event::CacheHit(c) => {
            assert_eq!((c.id.as_str(), c.kind.as_str()), (id.as_str(), "inflight"))
        }
        other => panic!("expected cache_hit, got {other:?}"),
    }
    match &events[3] {
        Event::JobDone(j) => {
            assert_eq!((j.id.as_str(), j.trials), (id.as_str(), 4));
            assert_eq!(j.seconds, 1.75);
        }
        other => panic!("expected job_done, got {other:?}"),
    }
    match &events[4] {
        Event::JobFailed(j) => {
            assert_eq!(
                (j.id.as_str(), j.error.as_str()),
                (id.as_str(), "trial panicked: injected")
            );
        }
        other => panic!("expected job_failed, got {other:?}"),
    }
    // One serialize→parse→serialize cycle is a fixed point.
    for event in &events {
        let line = event.to_json_line();
        let reparsed = parse_journal(&line).expect("re-serialized event parses");
        assert_eq!(reparsed[0].to_json_line(), line);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn stalled_warm_run_journals_ga_stalled() {
    let _guard = telemetry_lock();
    cold_obs::configure(TraceMode::Off).expect("start untraced");
    let mut cfg = ColdConfig::quick(8, 4e-4, 10.0);
    cfg.ga.stall_gens = Some(1);
    let parent = cfg.synthesize(3).network.topology;

    let path = temp_journal("warm-stall");
    cold_obs::configure(TraceMode::Journal(path.clone())).expect("journal sink");
    let warm = TrialObjective::Warm { parent, costs: cold::ChangeCosts::default() };
    let r = cfg.run_trial(TrialSpec::new(11, warm), RunOptions::default()).expect("warm run");
    cold_obs::configure(TraceMode::Off).expect("disable sink");
    assert_eq!(r.stop_reason, cold::StopReason::Stalled, "a converged parent stalls at once");

    let text = std::fs::read_to_string(&path).expect("journal written");
    let events = parse_journal(&text).expect("every line is a valid event");
    let frame: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e, Event::RunStart(_) | Event::GaStalled(_) | Event::RunEnd(_)))
        .collect();
    assert_eq!(frame.len(), 3, "run_start, ga_stalled, run_end: {frame:?}");
    match frame[0] {
        Event::RunStart(s) => assert_eq!(s.mode, "Warm"),
        other => panic!("expected run_start, got {other:?}"),
    }
    match frame[1] {
        Event::GaStalled(s) => {
            assert_eq!((s.generation, s.stall_gens), (r.generations_run, 1));
            assert_eq!(Some(&s.best), r.best_cost_history.last());
        }
        other => panic!("expected ga_stalled, got {other:?}"),
    }
    assert!(matches!(frame[2], Event::RunEnd(_)), "run_end closes the run");
    std::fs::remove_file(&path).ok();
}

#[test]
fn resilient_run_journals_one_run_frame() {
    let _guard = telemetry_lock();
    let cfg = ColdConfig::quick(8, 4e-4, 10.0);
    let path = temp_journal("resilient");
    cold_obs::configure(TraceMode::Journal(path.clone())).expect("journal sink");
    let spec = TrialSpec::new(5, TrialObjective::Resilient { bridge_cost: 50.0 });
    let r = cfg.run_trial(spec, RunOptions::default()).expect("resilient run");
    cold_obs::configure(TraceMode::Off).expect("disable sink");

    let text = std::fs::read_to_string(&path).expect("journal written");
    let events = parse_journal(&text).expect("every line is a valid event");
    let starts: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::RunStart(s) => Some(s),
            _ => None,
        })
        .collect();
    let ends = events.iter().filter(|e| matches!(e, Event::RunEnd(_))).count();
    assert_eq!((starts.len(), ends), (1, 1), "one run_start and one run_end");
    assert_eq!(starts[0].mode, "Resilient");
    let generations = events.iter().filter(|e| matches!(e, Event::Generation(_))).count();
    assert_eq!(generations, r.generations_run);
    std::fs::remove_file(&path).ok();
}

#[test]
fn tracing_does_not_perturb_synthesis() {
    let _guard = telemetry_lock();
    cold_obs::configure(TraceMode::Off).expect("start untraced");
    let cfg = ColdConfig::quick(9, 4e-4, 10.0);
    let plain = cfg.synthesize(7);
    assert_eq!(plain.journal_path, None);

    let path = temp_journal("determinism");
    cold_obs::configure(TraceMode::Journal(path.clone())).expect("journal sink");
    let traced = cfg.synthesize(7);
    cold_obs::configure(TraceMode::Off).expect("disable sink");

    // Bit-identical topology and cost; identical deterministic counters.
    // (eval_seconds is wall-clock and legitimately differs.)
    assert_eq!(plain.network.topology, traced.network.topology);
    assert_eq!(plain.network.total_cost(), traced.network.total_cost());
    assert_eq!(plain.evaluations, traced.evaluations);
    assert_eq!(plain.generations_run, traced.generations_run);
    assert_eq!(plain.eval_stats.requested, traced.eval_stats.requested);
    assert_eq!(plain.eval_stats.cache_hits, traced.eval_stats.cache_hits);
    assert_eq!(plain.eval_stats.cache_misses, traced.eval_stats.cache_misses);

    std::fs::remove_file(&path).ok();
}

#[test]
fn metrics_snapshot_lands_in_journal() {
    let _guard = telemetry_lock();
    let path = temp_journal("metrics");
    cold_obs::configure(TraceMode::Journal(path.clone())).expect("journal sink");
    let cfg = ColdConfig::quick(8, 4e-4, 10.0);
    let _ = cfg.synthesize(5);
    cold_obs::emit_metrics_snapshot();
    cold_obs::configure(TraceMode::Off).expect("disable sink");

    let text = std::fs::read_to_string(&path).expect("journal written");
    let events = parse_journal(&text).expect("valid journal");
    let metrics = events
        .iter()
        .rev()
        .find_map(|e| match e {
            Event::Metrics(m) => Some(m),
            _ => None,
        })
        .expect("snapshot event present");
    let names: Vec<&str> = metrics.metrics.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&"cost.evaluate_total"), "timers recorded: {names:?}");
    assert!(names.contains(&"ga.evaluate_batch"), "timers recorded: {names:?}");

    std::fs::remove_file(&path).ok();
    cold_obs::reset();
}
