//! # `cold-fault` — deterministic, seeded fault injection for COLD.
//!
//! A chaos harness is only useful when its chaos is *reproducible*: a
//! fault schedule must fire at the same hits on every run with the same
//! seed, so a failing recovery path can be replayed under a debugger.
//! This crate provides a small set of **named injection sites** that the
//! rest of the workspace consults at its failure-prone boundaries:
//!
//! | site                      | instrumented in | effect when fired |
//! |---------------------------|-----------------|-------------------|
//! | `eval.panic`              | `cold-cost::evaluate_total` | panics (contained by `cold::run_attempt`, so the trial is retried) |
//! | `eval.nan`                | `cold-cost::evaluate_total` | returns `NaN` (rejected by the GA's finiteness boundary) |
//! | `eval.slow`               | `cold-cost::evaluate_total` | sleeps, simulating a pathological evaluation |
//! | `ga.checkpoint_write_err` | `cold-ga::GaCheckpoint::save` | fails the snapshot write with `GaError::Checkpoint` |
//! | `trial.hang`              | `cold::ColdConfig::run_trial` (every synthesis mode) | sleeps long enough to trip the trial deadline watchdog |
//! | `campaign.io_err`         | `cold::CampaignCheckpoint::save` | fails the campaign snapshot write with `ColdError::Io` |
//! | `serve.worker_panic`      | `cold-serve` worker loop | panics inside a synthesis worker (caught; the job fails, the server survives) |
//! | `dist.worker_crash`       | `cold-serve --role worker` trial loop: lease start, then each GA snapshot hand-off | aborts the worker process mid-trial, after the firing hand-off's snapshot is uploaded (the coordinator evicts it and migrates its leases) |
//! | `dist.conn_drop`          | `cold-serve --role worker` protocol client | drops the TCP connection after sending a frame, before the reply (the exchange is retried) |
//! | `dist.heartbeat_miss`     | `cold-serve --role worker` heartbeat thread | skips one heartbeat (enough misses and the coordinator evicts the worker) |
//!
//! ## Arming faults
//!
//! Faults are **off by default**; the disarmed check is one relaxed
//! atomic load (the same pattern as `cold-obs`, pinned by the
//! `obs_overhead` bench). Arm them via the environment:
//!
//! ```text
//! COLD_FAULTS=eval.panic:1                  # fire on the 1st hit, once
//! COLD_FAULTS=eval.slow:p=0.05              # fire each hit w.p. 0.05
//! COLD_FAULTS=eval.nan:3,trial.hang:p=0.5   # comma-separated schedule
//! COLD_FAULTS_SEED=42                       # seed for p= decisions
//! ```
//!
//! or explicitly in code / CLI flag handlers:
//!
//! ```
//! cold_fault::configure("eval.nan:2", 42).unwrap();
//! cold_fault::clear();
//! ```
//!
//! ## Trigger semantics and determinism
//!
//! - `site:N` (count trigger) fires on exactly the `N`-th hit of the
//!   site, **once** — a one-shot, so "first attempt fails, retry
//!   succeeds" scenarios need no extra bookkeeping.
//! - `site:p=<prob>` (probability trigger) decides each hit by hashing
//!   `(seed, site, hit index)` through SplitMix64 — *not* by drawing from
//!   a shared RNG stream — so the decision for hit `k` of a site is a
//!   pure function of the schedule, independent of thread interleaving
//!   and of what other sites did.
//!
//! Hit counters are global per process and per site. Parallel workers
//! hitting the same site contend on one mutex *only while armed*; the
//! disarmed fast path never locks.
//!
//! Every fired fault emits a `fault_injected` telemetry event (when
//! `cold-obs` has a sink), so chaos-run journals are an audit trail of
//! exactly which faults fired at which hits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once};

/// Every site name the workspace instruments. [`configure`] rejects
/// schedules naming anything else, so a typo in `COLD_FAULTS` is an
/// error, not a silently dead schedule.
pub const SITES: [&str; 10] = [
    "eval.panic",
    "eval.nan",
    "eval.slow",
    "ga.checkpoint_write_err",
    "trial.hang",
    "campaign.io_err",
    "serve.worker_panic",
    "dist.worker_crash",
    "dist.conn_drop",
    "dist.heartbeat_miss",
];

/// When a rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Fire on exactly the `n`-th hit (1-based), once.
    Nth(u64),
    /// Fire each hit independently with this probability.
    Prob(f64),
}

/// One armed `site:trigger` rule.
#[derive(Debug, Clone, PartialEq)]
struct Rule {
    site: &'static str,
    trigger: Trigger,
    /// Hits observed at this site so far (1-based after increment).
    hits: u64,
    /// Whether an [`Trigger::Nth`] rule has already fired.
    fired: bool,
}

/// The armed schedule. `None` while disarmed.
struct FaultState {
    seed: u64,
    rules: Vec<Rule>,
}

/// Fast-path gate consulted by [`armed`] and [`should_fire`].
static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<FaultState>> = Mutex::new(None);
static ENV_INIT: Once = Once::new();

/// One step of the SplitMix64 output function (duplicated from
/// `cold-context` so this crate stays a leaf below the whole stack).
#[inline]
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// FNV-1a over the site name, so each site's probability stream is
/// decorrelated from the others under the same seed.
fn site_hash(site: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in site.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The deterministic per-hit decision of a probability trigger: a pure
/// function of `(seed, site, hit)`.
fn prob_decision(seed: u64, site: &str, hit: u64, p: f64) -> bool {
    // 53 uniform mantissa bits in [0, 1); `u < p` fires with prob. p and
    // p = 1.0 always fires.
    let x = splitmix64(seed ^ site_hash(site) ^ splitmix64(hit));
    let u = (x >> 11) as f64 / (1u64 << 53) as f64;
    u < p
}

/// Parses one `site:trigger` clause of the `COLD_FAULTS` grammar.
fn parse_rule(clause: &str) -> Result<Rule, String> {
    let (site_name, trigger) = clause
        .split_once(':')
        .ok_or_else(|| format!("fault clause `{clause}` must be `site:N` or `site:p=<prob>`"))?;
    let site =
        SITES.iter().find(|&&s| s == site_name).copied().ok_or_else(|| {
            format!("unknown fault site `{site_name}` (known: {})", SITES.join(", "))
        })?;
    let trigger = if let Some(p) = trigger.strip_prefix("p=") {
        let p: f64 =
            p.parse().map_err(|_| format!("fault site `{site_name}`: bad probability `{p}`"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("fault site `{site_name}`: probability {p} must be in [0, 1]"));
        }
        Trigger::Prob(p)
    } else {
        let n: u64 = trigger
            .parse()
            .map_err(|_| format!("fault site `{site_name}`: bad hit count `{trigger}`"))?;
        if n == 0 {
            return Err(format!("fault site `{site_name}`: hit counts are 1-based (got 0)"));
        }
        Trigger::Nth(n)
    };
    Ok(Rule { site, trigger, hits: 0, fired: false })
}

/// Arms the schedule described by `spec` (the `COLD_FAULTS` grammar:
/// comma-separated `site:N` / `site:p=<prob>` clauses), with `seed`
/// driving the probability triggers. Replaces any previous schedule and
/// resets all hit counters. An empty `spec` is equivalent to [`clear`].
///
/// # Errors
/// A human-readable description of the first malformed clause or unknown
/// site name; the previous schedule is left untouched on error.
pub fn configure(spec: &str, seed: u64) -> Result<(), String> {
    // Any explicit configuration suppresses later env initialization.
    ENV_INIT.call_once(|| {});
    let spec = spec.trim();
    if spec.is_empty() {
        clear();
        return Ok(());
    }
    let mut rules = Vec::new();
    for clause in spec.split(',') {
        let rule = parse_rule(clause.trim())?;
        if rules.iter().any(|r: &Rule| r.site == rule.site) {
            return Err(format!("fault site `{}` appears twice in the schedule", rule.site));
        }
        rules.push(rule);
    }
    let mut state = STATE.lock().expect("fault state poisoned");
    *state = Some(FaultState { seed, rules });
    ARMED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Disarms all faults and resets hit counters. The fast path goes back
/// to a single relaxed atomic load.
pub fn clear() {
    ENV_INIT.call_once(|| {});
    let mut state = STATE.lock().expect("fault state poisoned");
    *state = None;
    ARMED.store(false, Ordering::Relaxed);
}

/// Re-seeds the probability triggers of an already-armed schedule
/// without resetting hit counters — the CLI uses this to tie an
/// env-armed (`COLD_FAULTS`) schedule to its `--seed` master seed.
pub fn reseed(seed: u64) {
    let mut state = STATE.lock().expect("fault state poisoned");
    if let Some(s) = state.as_mut() {
        s.seed = seed;
    }
}

/// Lazily applies `COLD_FAULTS` (seeded by `COLD_FAULTS_SEED`, default
/// 0) the first time fault state is queried, unless [`configure`] or
/// [`clear`] already ran. A malformed value is reported once on stderr
/// and treated as disarmed.
fn ensure_env_init() {
    ENV_INIT.call_once(|| {
        let Ok(spec) = std::env::var("COLD_FAULTS") else { return };
        let seed =
            std::env::var("COLD_FAULTS_SEED").ok().and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
        let mut rules = Vec::new();
        let mut parse = || -> Result<(), String> {
            let spec = spec.trim();
            if spec.is_empty() {
                return Ok(());
            }
            for clause in spec.split(',') {
                rules.push(parse_rule(clause.trim())?);
            }
            Ok(())
        };
        match parse() {
            Ok(()) if rules.is_empty() => {}
            Ok(()) => {
                let mut state = STATE.lock().expect("fault state poisoned");
                *state = Some(FaultState { seed, rules });
                ARMED.store(true, Ordering::Relaxed);
            }
            Err(e) => eprintln!("[cold-fault] COLD_FAULTS ignored: {e}"),
        }
    });
}

/// True when a fault schedule is armed (after lazy `COLD_FAULTS`
/// evaluation). The disarmed cost is one relaxed atomic load, so
/// instrumented hot paths guard their site checks with this.
#[inline]
pub fn armed() -> bool {
    ensure_env_init();
    ARMED.load(Ordering::Relaxed)
}

/// Records one hit of `site` and decides whether its armed rule (if any)
/// fires. Returns `false` immediately — without locking — while
/// disarmed. Fired faults emit a `fault_injected` telemetry event when
/// `cold-obs` has a sink.
///
/// # Panics
/// Debug builds assert `site` is one of [`SITES`]; instrumentation
/// typos must not silently never fire.
pub fn should_fire(site: &str) -> bool {
    if !armed() {
        return false;
    }
    debug_assert!(SITES.contains(&site), "unknown fault site `{site}`");
    let decision = {
        let mut state = STATE.lock().expect("fault state poisoned");
        let Some(state) = state.as_mut() else { return false };
        let seed = state.seed;
        let Some(rule) = state.rules.iter_mut().find(|r| r.site == site) else { return false };
        rule.hits += 1;
        match rule.trigger {
            Trigger::Nth(n) => {
                if rule.hits == n && !rule.fired {
                    rule.fired = true;
                    Some(rule.hits)
                } else {
                    None
                }
            }
            Trigger::Prob(p) => prob_decision(seed, site, rule.hits, p).then_some(rule.hits),
        }
    };
    // Emit outside the state lock: the obs sink takes its own lock and
    // nested global locks invite deadlocks from instrumented sinks.
    match decision {
        Some(hit) => {
            if cold_obs::is_enabled() {
                cold_obs::emit(&cold_obs::Event::FaultInjected(cold_obs::FaultInjected {
                    site: site.to_string(),
                    hit,
                }));
            }
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Serializes tests that touch the global fault state.
    fn fault_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disarmed_by_default_and_after_clear() {
        let _guard = fault_lock();
        clear();
        assert!(!armed());
        assert!(!should_fire("eval.panic"));
        configure("eval.panic:1", 0).unwrap();
        assert!(armed());
        clear();
        assert!(!armed());
        assert!(!should_fire("eval.panic"));
    }

    #[test]
    fn nth_trigger_fires_exactly_once_on_the_nth_hit() {
        let _guard = fault_lock();
        configure("eval.nan:3", 7).unwrap();
        let fired: Vec<bool> = (0..6).map(|_| should_fire("eval.nan")).collect();
        assert_eq!(fired, vec![false, false, true, false, false, false]);
        // Other sites are unaffected.
        assert!(!should_fire("eval.panic"));
        clear();
    }

    #[test]
    fn configure_resets_hit_counters() {
        let _guard = fault_lock();
        configure("eval.nan:2", 7).unwrap();
        assert!(!should_fire("eval.nan"));
        assert!(should_fire("eval.nan"));
        configure("eval.nan:2", 7).unwrap();
        assert!(!should_fire("eval.nan"));
        assert!(should_fire("eval.nan"), "re-configuring must restart the schedule");
        clear();
    }

    #[test]
    fn probability_trigger_is_deterministic_in_seed_and_hit() {
        let _guard = fault_lock();
        configure("eval.slow:p=0.5", 42).unwrap();
        let a: Vec<bool> = (0..64).map(|_| should_fire("eval.slow")).collect();
        configure("eval.slow:p=0.5", 42).unwrap();
        let b: Vec<bool> = (0..64).map(|_| should_fire("eval.slow")).collect();
        assert_eq!(a, b, "same seed, same schedule, same decisions");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f), "p=0.5 over 64 hits mixes");
        configure("eval.slow:p=0.5", 43).unwrap();
        let c: Vec<bool> = (0..64).map(|_| should_fire("eval.slow")).collect();
        assert_ne!(a, c, "different seed, different schedule");
        clear();
    }

    #[test]
    fn probability_extremes() {
        let _guard = fault_lock();
        configure("eval.nan:p=1.0", 1).unwrap();
        assert!((0..32).all(|_| should_fire("eval.nan")), "p=1 always fires");
        configure("eval.nan:p=0.0", 1).unwrap();
        assert!((0..32).all(|_| !should_fire("eval.nan")), "p=0 never fires");
        clear();
    }

    #[test]
    fn reseed_changes_probability_decisions() {
        let _guard = fault_lock();
        configure("trial.hang:p=0.5", 1).unwrap();
        let a: Vec<bool> = (0..64).map(|_| should_fire("trial.hang")).collect();
        configure("trial.hang:p=0.5", 1).unwrap();
        reseed(99);
        let b: Vec<bool> = (0..64).map(|_| should_fire("trial.hang")).collect();
        assert_ne!(a, b);
        clear();
    }

    #[test]
    fn schedules_cover_multiple_sites_independently() {
        let _guard = fault_lock();
        configure("eval.panic:1,ga.checkpoint_write_err:2", 5).unwrap();
        assert!(should_fire("eval.panic"));
        assert!(!should_fire("ga.checkpoint_write_err"));
        assert!(should_fire("ga.checkpoint_write_err"));
        assert!(!should_fire("eval.panic"), "one-shot already spent");
        assert!(!should_fire("campaign.io_err"), "unscheduled site never fires");
        clear();
    }

    #[test]
    fn distributed_sites_arm_and_fire_like_any_other() {
        let _guard = fault_lock();
        configure("dist.worker_crash:1,dist.conn_drop:2,dist.heartbeat_miss:p=1.0", 11).unwrap();
        assert!(should_fire("dist.worker_crash"));
        assert!(!should_fire("dist.worker_crash"), "one-shot spent");
        assert!(!should_fire("dist.conn_drop"));
        assert!(should_fire("dist.conn_drop"));
        assert!((0..4).all(|_| should_fire("dist.heartbeat_miss")));
        clear();
    }

    #[test]
    fn grammar_rejects_malformed_schedules() {
        let _guard = fault_lock();
        clear();
        assert!(configure("eval.panic", 0).is_err(), "missing trigger");
        assert!(configure("warp.core:1", 0).is_err(), "unknown site");
        assert!(configure("eval.panic:0", 0).is_err(), "0th hit");
        assert!(configure("eval.panic:p=1.5", 0).is_err(), "probability out of range");
        assert!(configure("eval.panic:p=x", 0).is_err(), "non-numeric probability");
        assert!(configure("eval.panic:1,eval.panic:2", 0).is_err(), "duplicate site");
        assert!(!armed(), "failed configure must not arm");
        // Empty spec is an explicit disarm.
        configure("eval.nan:1", 0).unwrap();
        configure("", 0).unwrap();
        assert!(!armed());
    }

    #[test]
    fn fired_faults_emit_fault_injected_events() {
        let _guard = fault_lock();
        let path =
            std::env::temp_dir().join(format!("cold-fault-journal-{}.jsonl", std::process::id()));
        cold_obs::configure(cold_obs::TraceMode::Journal(path.clone())).expect("journal sink");
        configure("eval.nan:2", 3).unwrap();
        assert!(!should_fire("eval.nan"));
        assert!(should_fire("eval.nan"));
        clear();
        cold_obs::configure(cold_obs::TraceMode::Off).unwrap();
        let text = std::fs::read_to_string(&path).expect("journal written");
        let events = cold_obs::parse_journal(&text).expect("journal validates");
        match &events[..] {
            [cold_obs::Event::FaultInjected(f)] => {
                assert_eq!(f.site, "eval.nan");
                assert_eq!(f.hit, 2);
            }
            other => panic!("expected exactly one fault_injected event, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
