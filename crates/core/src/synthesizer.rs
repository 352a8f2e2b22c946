//! The top-level COLD synthesis API.
//!
//! A [`ColdConfig`] bundles everything: the context model (§3.1), the cost
//! parameters (§3.2), the GA settings (§4–§5) and the synthesis mode
//! (plain GA, or the *initialized GA* of Fig 3 that seeds the first
//! generation with the greedy heuristics' outputs). A synthesis is a pure
//! function of `(config, seed)`.

use crate::error::{panic_message, ColdError};
use crate::objective::ColdObjective;
use crate::stats::NetworkStats;
use cold_context::rng::derive_seed;
use cold_context::{Context, ContextConfig};
use cold_cost::{CostParams, Network};
use cold_ga::{GaSettings, GeneticAlgorithm};
use cold_heuristics::{all_heuristics, RandomGreedyConfig};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Salt mixed into the master seed for one-shot retries of failed trials,
/// so the retry runs a fresh (but still deterministic) random stream
/// instead of replaying the exact failure. Public so the retry-seed
/// soundness test can pin the derivation
/// `derive_seed(derive_seed(master, RETRY_SALT), trial)` against the
/// original trial seeds.
pub const RETRY_SALT: u64 = 0x5245_5452; // "RETR"

/// How long the `trial.hang` fault sleeps, in milliseconds. Long enough
/// to overrun any test deadline by a wide margin, short enough that an
/// abandoned hanging attempt drains quickly in
/// [`join_abandoned_watchdog_threads`].
const HANG_MS: u64 = 2000;

/// A thread-safe per-generation progress callback.
///
/// This is the serve-layer's live-progress hook: the GA engine already
/// reports one read-only [`cold_obs::GenerationRecord`] per generation to
/// its [`cold_obs::GenerationObserver`]; a `ProgressSink` receives the
/// same records through an `Arc`d closure so it can cross the thread
/// boundary of the deadline watchdog (the trace observer, by contrast,
/// lives on the synthesis thread). Sinks must be cheap and read-only —
/// they run on the synthesis thread between generations.
pub type ProgressSink = std::sync::Arc<dyn Fn(&cold_obs::GenerationRecord) + Send + Sync>;

/// Fans one generation record out to the trace observer (when telemetry
/// is enabled) and an optional [`ProgressSink`] — the single observer
/// slot `cold-ga` exposes, multiplexed.
pub(crate) struct ObserverFanout {
    trace: Option<cold_obs::TraceObserver>,
    progress: Option<ProgressSink>,
}

impl ObserverFanout {
    /// The engine's observer slot: `None` when nobody listens, so the
    /// engine skips building generation records altogether.
    pub(crate) fn slot(&mut self) -> Option<&mut dyn cold_obs::GenerationObserver> {
        if self.trace.is_some() || self.progress.is_some() {
            Some(self)
        } else {
            None
        }
    }
}

/// One GA run's journal frame, shared by every synthesis mode (scalar,
/// warm, Pareto): `run_start` when the run begins; `ga_stalled` (when the
/// stall guard ended it) and `run_end` when it returns. Inert when
/// telemetry is off.
pub(crate) struct RunTelemetry {
    seed: u64,
    stall_gens: Option<usize>,
    traced: bool,
}

impl RunTelemetry {
    /// Emits `run_start` for a `mode` run on an `n`-node context.
    pub(crate) fn start(seed: u64, n: usize, mode: String, ga: &GaSettings) -> Self {
        let traced = cold_obs::is_enabled();
        if traced {
            cold_obs::emit(&cold_obs::Event::RunStart(cold_obs::RunStart {
                run: cold_obs::run_id(seed),
                n,
                mode,
                generations: ga.generations,
                population: ga.population,
            }));
        }
        Self { seed, stall_gens: ga.stall_gens, traced }
    }

    /// The run's generation observer: the trace observer (when telemetry
    /// is on) fanned out with `progress`.
    pub(crate) fn observer(&self, progress: Option<ProgressSink>) -> ObserverFanout {
        let trace = self.traced.then(|| cold_obs::TraceObserver::new(self.seed));
        ObserverFanout { trace, progress }
    }

    /// Emits `ga_stalled` when the stall guard ended the run, then
    /// `run_end`. `best_cost` is the scalar best (the cheapest front
    /// member for Pareto runs).
    pub(crate) fn end(
        &self,
        stop_reason: cold_ga::StopReason,
        generations_run: usize,
        best_cost: f64,
        eval_stats: &cold_ga::EvalStats,
        repair_stats: &cold_ga::repair::RepairStats,
    ) {
        if !self.traced {
            return;
        }
        let run = cold_obs::run_id(self.seed);
        if stop_reason == cold_ga::StopReason::Stalled {
            cold_obs::emit(&cold_obs::Event::GaStalled(cold_obs::GaStalled {
                run: run.clone(),
                generation: generations_run,
                stall_gens: self.stall_gens.unwrap_or(0),
                best: best_cost,
            }));
        }
        cold_obs::emit(&cold_obs::Event::RunEnd(cold_obs::RunEnd {
            run,
            generations_run,
            best_cost,
            evaluations: eval_stats.requested,
            cache_hit_rate: eval_stats.hit_rate(),
            eval_seconds: eval_stats.eval_seconds,
            repair_rate: repair_stats.repair_rate(),
        }));
    }
}

impl cold_obs::GenerationObserver for ObserverFanout {
    fn on_generation(&mut self, record: &cold_obs::GenerationRecord) {
        if let Some(trace) = &mut self.trace {
            trace.on_generation(record);
        }
        if let Some(sink) = &self.progress {
            sink(record);
        }
    }
}

/// Watchdog-abandoned trial threads. [`run_with_deadline`] detaches the
/// worker when the deadline fires (a scoped thread would have to be
/// joined, wedging the caller on the very hang it guards against); the
/// handle lands here so tests can drain stragglers before the next case
/// arms its own faults.
static ABANDONED_WATCHDOGS: std::sync::Mutex<Vec<std::thread::JoinHandle<()>>> =
    std::sync::Mutex::new(Vec::new());

/// Joins every watchdog-abandoned trial thread that is still running.
///
/// Production callers never need this — abandoned threads hold no locks
/// and die with the process. The chaos test suite calls it between cases
/// so a straggling (injected-hang) attempt cannot consume the next
/// case's one-shot fault triggers.
#[doc(hidden)]
pub fn join_abandoned_watchdog_threads() {
    let handles: Vec<_> = {
        let mut guard = ABANDONED_WATCHDOGS.lock().expect("watchdog registry lock");
        guard.drain(..).collect()
    };
    for h in handles {
        let _ = h.join();
    }
}

/// Runs one trial on a detached thread with a wall-clock deadline.
///
/// Returns the trial's own result when it finishes in time, or
/// [`ColdError::DeadlineExceeded`] when the deadline fires first — in
/// which case the worker thread is *abandoned* (registered in the
/// straggler registry), not killed: Rust has no safe thread
/// cancellation, so the guard's job is to keep the ensemble moving, not
/// to reclaim the wedged thread.
pub(crate) fn run_with_deadline(
    cfg: &ColdConfig,
    seed: u64,
    deadline: std::time::Duration,
    progress: Option<ProgressSink>,
) -> Result<SynthesisResult, ColdError> {
    let cfg = *cfg;
    let (tx, rx) = std::sync::mpsc::channel();
    // Trace context is thread-local; snapshot it here and re-install it
    // on the worker so the trial's events stay under the caller's span.
    let trace_ctx = cold_obs::trace::current();
    let worker = std::thread::spawn(move || {
        let _trace = trace_ctx.map(cold_obs::trace::enter);
        let outcome =
            catch_unwind(AssertUnwindSafe(|| cfg.try_synthesize_progress(seed, progress)))
                .unwrap_or_else(|payload| {
                    Err(ColdError::TrialPanic(panic_message(payload.as_ref())))
                });
        // The receiver is gone when the deadline already fired; the
        // result is then dropped with the thread.
        let _ = tx.send(outcome);
    });
    match rx.recv_timeout(deadline) {
        Ok(outcome) => {
            let _ = worker.join();
            outcome
        }
        Err(_) => {
            let mut guard = ABANDONED_WATCHDOGS.lock().expect("watchdog registry lock");
            guard.retain(|h| !h.is_finished());
            guard.push(worker);
            Err(ColdError::DeadlineExceeded { seconds: deadline.as_secs_f64() })
        }
    }
}

/// How the GA's initial population is seeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SynthesisMode {
    /// Plain GA: MST + clique + random fill only (the "GA" line of Fig 3).
    GaOnly,
    /// Initialized GA: additionally seed with the four greedy heuristics'
    /// outputs, guaranteeing the result is at least as good as every
    /// competitor (the "initialised GA" line of Fig 3). This is the
    /// recommended default.
    #[default]
    Initialized,
}

/// Full configuration of a COLD synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ColdConfig {
    /// Context model (PoP locations, populations, traffic).
    pub context: ContextConfig,
    /// Cost parameters `k0…k3` and overprovisioning.
    pub params: CostParams,
    /// Genetic-algorithm settings (`seed` field is overridden per trial).
    pub ga: GaSettings,
    /// Plain or initialized GA.
    pub mode: SynthesisMode,
    /// Random-greedy heuristic configuration (used in initialized mode).
    pub random_greedy: RandomGreedyConfig,
}

impl ColdConfig {
    /// Paper-scale configuration: `T = M = 100` GA, initialized mode,
    /// `k0 = 10, k1 = 1` and the given `k2, k3`.
    pub fn paper(n: usize, k2: f64, k3: f64) -> Self {
        Self {
            context: ContextConfig::paper_default(n),
            params: CostParams::paper(k2, k3),
            ga: GaSettings::paper_default(0),
            mode: SynthesisMode::Initialized,
            random_greedy: RandomGreedyConfig::default(),
        }
    }

    /// Reduced configuration for tests and quick experiment modes.
    pub fn quick(n: usize, k2: f64, k3: f64) -> Self {
        Self {
            ga: GaSettings::quick(0),
            random_greedy: RandomGreedyConfig { permutations: 3 },
            ..Self::paper(n, k2, k3)
        }
    }

    /// Checks the whole configuration — context model, cost parameters
    /// and GA settings — before any work starts.
    ///
    /// # Errors
    /// [`ColdError::Config`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), ColdError> {
        self.context.validate().map_err(|why| ColdError::Config(format!("context: {why}")))?;
        self.params.validate().map_err(|why| ColdError::Config(format!("cost params: {why}")))?;
        self.ga.validate().map_err(|why| ColdError::Config(format!("GA settings: {why}")))?;
        Ok(())
    }

    /// Synthesizes one network: generates the context for `seed`, then
    /// optimizes deterministically.
    ///
    /// # Panics
    /// Panics on an invalid configuration or a misbehaving cost model —
    /// use [`try_synthesize`](Self::try_synthesize) for a typed error.
    pub fn synthesize(&self, seed: u64) -> SynthesisResult {
        self.try_synthesize(seed).expect("synthesis failed")
    }

    /// Fallible [`synthesize`](Self::synthesize): configuration problems
    /// and GA failures (e.g. a non-finite cost) surface as [`ColdError`]
    /// so ensemble drivers can record and retry the trial.
    pub fn try_synthesize(&self, seed: u64) -> Result<SynthesisResult, ColdError> {
        self.try_synthesize_progress(seed, None)
    }

    /// [`try_synthesize`](Self::try_synthesize) with an optional live
    /// per-generation [`ProgressSink`]. The sink is a strictly read-only
    /// consumer of the same [`cold_obs::GenerationRecord`]s the trace
    /// observer sees, so attaching one never changes the synthesized
    /// network — `cold-serve` uses this to report job progress while a
    /// synthesis runs.
    pub fn try_synthesize_progress(
        &self,
        seed: u64,
        progress: Option<ProgressSink>,
    ) -> Result<SynthesisResult, ColdError> {
        self.validate()?;
        if cold_fault::armed() && cold_fault::should_fire("trial.hang") {
            std::thread::sleep(std::time::Duration::from_millis(HANG_MS));
        }
        let ctx = self.context.generate(derive_seed(seed, 0xC0));
        self.try_synthesize_in_context_progress(ctx, seed, progress)
    }

    /// [`try_synthesize_progress`](Self::try_synthesize_progress) plus
    /// the GA engine's crash-safety hooks, for lease-based remote
    /// execution: `checkpoint` receives a mid-run [`cold_ga::GaCheckpoint`]
    /// every `every` generations, and `resume` restarts the GA
    /// bit-identically from such a snapshot (RNG state included).
    ///
    /// The cheap deterministic pre-GA work — context generation and
    /// heuristic seeding — always re-runs, because the result document
    /// (heuristic costs, context) must be identical whether or not the
    /// trial was ever interrupted; with `resume` the engine then ignores
    /// the seed population and continues from the snapshot. Resuming on a
    /// different host than the one that wrote the snapshot yields the
    /// same network byte-for-byte (only wall-clock `eval_seconds`
    /// differs), which is the invariant checkpoint migration relies on.
    ///
    /// # Errors
    /// As [`try_synthesize`](Self::try_synthesize), plus
    /// [`ColdError::Ga`] when `resume` is inconsistent with the
    /// configured GA settings.
    pub fn try_synthesize_resumable(
        &self,
        seed: u64,
        progress: Option<ProgressSink>,
        checkpoint: Option<cold_ga::CheckpointHook<'_>>,
        resume: Option<cold_ga::GaCheckpoint>,
    ) -> Result<SynthesisResult, ColdError> {
        self.validate()?;
        if cold_fault::armed() && cold_fault::should_fire("trial.hang") {
            std::thread::sleep(std::time::Duration::from_millis(HANG_MS));
        }
        let ctx = self.context.generate(derive_seed(seed, 0xC0));
        self.synthesize_hooked(ctx, seed, progress, checkpoint, resume)
    }

    /// Optimizes within an explicitly provided context (e.g. real PoP
    /// locations, or the fixed-context comparisons of Fig 3).
    ///
    /// When telemetry is active (`COLD_TRACE` or [`cold_obs::configure`])
    /// the run emits a `run_start` event, one `generation` event per GA
    /// generation, and a `run_end` summary, all tagged with `seed` as the
    /// run identifier; the journal file (if any) is echoed into
    /// [`SynthesisResult::journal_path`]. Tracing never changes the
    /// synthesized network: observers receive read-only records.
    pub fn synthesize_in_context(&self, ctx: Context, seed: u64) -> SynthesisResult {
        self.try_synthesize_in_context(ctx, seed).expect("synthesis failed")
    }

    /// Fallible [`synthesize_in_context`](Self::synthesize_in_context).
    ///
    /// # Errors
    /// [`ColdError::Config`] for inconsistent settings,
    /// [`ColdError::Ga`] when the engine rejects the run (e.g. a cost
    /// model producing NaN).
    pub fn try_synthesize_in_context(
        &self,
        ctx: Context,
        seed: u64,
    ) -> Result<SynthesisResult, ColdError> {
        self.try_synthesize_in_context_progress(ctx, seed, None)
    }

    /// [`try_synthesize_in_context`](Self::try_synthesize_in_context)
    /// with an optional live per-generation [`ProgressSink`] (see
    /// [`try_synthesize_progress`](Self::try_synthesize_progress)).
    pub fn try_synthesize_in_context_progress(
        &self,
        ctx: Context,
        seed: u64,
        progress: Option<ProgressSink>,
    ) -> Result<SynthesisResult, ColdError> {
        self.synthesize_hooked(ctx, seed, progress, None, None)
    }

    /// The shared synthesis body: every public entry funnels here. With
    /// `checkpoint`/`resume` both `None` this is exactly the historical
    /// path (the engine call degenerates to `try_run_traced`).
    fn synthesize_hooked(
        &self,
        ctx: Context,
        seed: u64,
        progress: Option<ProgressSink>,
        checkpoint: Option<cold_ga::CheckpointHook<'_>>,
        resume: Option<cold_ga::GaCheckpoint>,
    ) -> Result<SynthesisResult, ColdError> {
        let _span = cold_obs::span("core.synthesize");
        let telemetry = RunTelemetry::start(seed, ctx.n(), format!("{:?}", self.mode), &self.ga);
        let objective = ColdObjective::new(&ctx, self.params);
        let mut heuristic_costs = Vec::new();
        let seeds: Vec<cold_graph::AdjacencyMatrix> = match self.mode {
            SynthesisMode::GaOnly => Vec::new(),
            SynthesisMode::Initialized => {
                let hs = {
                    let _t = cold_obs::timer("core.heuristic_seed");
                    all_heuristics(
                        objective.evaluator(),
                        &self.random_greedy,
                        derive_seed(seed, 0x4755),
                    )
                };
                hs.into_iter()
                    .map(|(name, r)| {
                        heuristic_costs.push((name.to_string(), r.cost));
                        r.topology
                    })
                    .collect()
            }
        };
        let ga_settings = GaSettings { seed: derive_seed(seed, 0x6741), ..self.ga };
        let engine = GeneticAlgorithm::try_new(&objective, ga_settings)?;
        let result = engine.run_resumable(
            &seeds,
            telemetry.observer(progress).slot(),
            checkpoint,
            resume,
        )?;
        telemetry.end(
            result.stop_reason,
            result.generations_run,
            result.best.cost,
            &result.eval_stats,
            &result.repair_stats,
        );
        let network = Network::build(result.best.topology.clone(), &ctx, self.params)
            .expect("GA result is connected");
        let stats = NetworkStats::compute(&network.graph()).expect("connected");
        Ok(SynthesisResult {
            journal_path: cold_obs::journal_path(),
            context: ctx,
            network,
            stats,
            best_cost_history: result.history,
            final_population_costs: result.final_population.iter().map(|i| i.cost).collect(),
            heuristic_costs,
            evaluations: result.evaluations,
            eval_stats: result.eval_stats,
            repair_rate: result.repair_stats.repair_rate(),
            generations_run: result.generations_run,
            stop_reason: result.stop_reason,
        })
    }

    /// Synthesizes an ensemble of `count` networks with independent
    /// contexts, in parallel across trials.
    ///
    /// Within each trial the GA runs serially (`parallel = false`) so the
    /// machine is not oversubscribed; trial-level parallelism dominates
    /// for ensembles anyway.
    ///
    /// # Panics
    /// Panics when a trial fails *and* its one-shot retry also fails —
    /// use [`synthesize_ensemble`](Self::synthesize_ensemble) to degrade
    /// gracefully to a partial ensemble instead.
    pub fn ensemble(&self, master_seed: u64, count: usize) -> Vec<SynthesisResult> {
        let outcome = self.synthesize_ensemble(master_seed, count);
        if let Some(f) = outcome.failures.iter().find(|f| !f.recovered) {
            panic!("ensemble trial {} failed after retry: {}", f.trial, f.error);
        }
        outcome.results.into_iter().map(|(_, r)| r).collect()
    }

    /// Fault-tolerant [`ensemble`](Self::ensemble): a trial that fails —
    /// a typed [`ColdError`] from [`try_synthesize`](Self::try_synthesize)
    /// or an outright panic, caught at the worker boundary so the
    /// crossbeam scope is never poisoned — is recorded, journaled as a
    /// `trial_failed` event, and retried once on a fresh salted seed.
    /// Trials whose retry also fails are dropped from the ensemble; the
    /// returned [`EnsembleOutcome`] carries the surviving results plus a
    /// failure table, so a 100-trial campaign with one bad trial yields
    /// 99 networks and an audit trail instead of an abort.
    ///
    /// Successful trials are bit-identical to [`ensemble`](Self::ensemble)
    /// output: seeds derive the same way and retries never perturb other
    /// trials' streams.
    pub fn synthesize_ensemble(&self, master_seed: u64, count: usize) -> EnsembleOutcome {
        self.ensemble_with_runner(master_seed, count, &|cfg, seed, _trial, _attempt| {
            cfg.try_synthesize(seed)
        })
    }

    /// [`synthesize_ensemble`](Self::synthesize_ensemble) with an optional
    /// per-trial wall-clock deadline. A trial that overruns is abandoned
    /// by the watchdog and degrades into the
    /// normal failure accounting — [`ColdError::DeadlineExceeded`] in the
    /// failure table, a retry on the salted seed, and a lost trial if the
    /// retry also overruns — instead of wedging the whole ensemble.
    /// `deadline: None` is exactly [`Self::synthesize_ensemble`].
    pub fn synthesize_ensemble_guarded(
        &self,
        master_seed: u64,
        count: usize,
        deadline: Option<std::time::Duration>,
    ) -> EnsembleOutcome {
        match deadline {
            None => self.synthesize_ensemble(master_seed, count),
            Some(d) => self.ensemble_with_runner(master_seed, count, &move |cfg, seed, _t, _a| {
                run_with_deadline(cfg, seed, d, None)
            }),
        }
    }

    /// [`synthesize_ensemble`](Self::synthesize_ensemble) with an
    /// injectable trial runner — the seam failure-injection tests (in this
    /// crate and downstream) use to make a chosen `(trial, attempt)` panic
    /// or error deterministically. The runner receives
    /// `(config, seed, trial, attempt)` and the real pipeline is simply
    /// `config.try_synthesize(seed)`.
    pub fn ensemble_with_runner(
        &self,
        master_seed: u64,
        count: usize,
        run_trial: &TrialRunner,
    ) -> EnsembleOutcome {
        let _span = cold_obs::span("core.ensemble");
        let serial = ColdConfig { ga: GaSettings { parallel: false, ..self.ga }, ..*self };
        let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        let workers = workers.min(count).max(1);
        let next = std::sync::atomic::AtomicUsize::new(0);
        enum Message {
            // Boxed: a SynthesisResult is orders of magnitude larger than
            // the failure record, and every message would pay its size.
            Done(usize, Box<SynthesisResult>),
            Failed { trial: usize, attempt: usize, seed: u64, error: ColdError },
        }
        let (tx, rx) = std::sync::mpsc::channel::<Message>();
        // Snapshot the ensemble span's context so every worker thread
        // (and hence every trial span) nests under it.
        let trace_ctx = cold_obs::trace::current();
        crossbeam::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let serial = &serial;
                let trace_ctx = trace_ctx.clone();
                scope.spawn(move |_| {
                    let _trace = trace_ctx.map(cold_obs::trace::enter);
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        for attempt in 1..=2usize {
                            let seed = if attempt == 1 {
                                derive_seed(master_seed, i as u64)
                            } else {
                                derive_seed(derive_seed(master_seed, RETRY_SALT), i as u64)
                            };
                            // The catch_unwind boundary keeps a panicking
                            // objective (or any other bug inside one trial)
                            // from unwinding into the crossbeam scope, which
                            // would re-raise and poison the whole ensemble.
                            let outcome = catch_unwind(AssertUnwindSafe(|| {
                                run_trial(serial, seed, i, attempt)
                            }))
                            .unwrap_or_else(|payload| {
                                Err(ColdError::TrialPanic(panic_message(payload.as_ref())))
                            });
                            match outcome {
                                Ok(r) => {
                                    tx.send(Message::Done(i, Box::new(r)))
                                        .expect("result channel open");
                                    break;
                                }
                                Err(error) => {
                                    if cold_obs::is_enabled() {
                                        if let ColdError::DeadlineExceeded { seconds } = &error {
                                            cold_obs::emit(
                                                &cold_obs::Event::TrialDeadlineExceeded(
                                                    cold_obs::TrialDeadlineExceeded {
                                                        trial: i,
                                                        attempt,
                                                        seed,
                                                        seconds: *seconds,
                                                    },
                                                ),
                                            );
                                        }
                                        cold_obs::emit(&cold_obs::Event::TrialFailed(
                                            cold_obs::TrialFailed {
                                                trial: i,
                                                attempt,
                                                seed,
                                                error: error.to_string(),
                                            },
                                        ));
                                    }
                                    tx.send(Message::Failed { trial: i, attempt, seed, error })
                                        .expect("result channel open");
                                }
                            }
                        }
                    }
                });
            }
        })
        .expect("ensemble scope never sees a worker panic");
        drop(tx);
        let mut results: Vec<(usize, SynthesisResult)> = Vec::new();
        let mut failures: Vec<TrialFailure> = Vec::new();
        for msg in rx {
            match msg {
                Message::Done(i, r) => results.push((i, *r)),
                Message::Failed { trial, attempt, seed, error } => {
                    failures.push(TrialFailure { trial, attempt, seed, error, recovered: false })
                }
            }
        }
        results.sort_by_key(|(i, _)| *i);
        let completed: std::collections::HashSet<usize> = results.iter().map(|(i, _)| *i).collect();
        for f in &mut failures {
            f.recovered = completed.contains(&f.trial);
        }
        failures.sort_by_key(|f| (f.trial, f.attempt));
        EnsembleOutcome { total: count, results, failures }
    }
}

/// A single-trial runner injected into
/// [`ensemble_with_runner`](ColdConfig::ensemble_with_runner): receives
/// `(config, seed, trial, attempt)` and produces one synthesis result. The
/// production runner is `config.try_synthesize(seed)`; tests substitute
/// runners that panic or error on a chosen `(trial, attempt)`.
pub type TrialRunner =
    dyn Fn(&ColdConfig, u64, usize, usize) -> Result<SynthesisResult, ColdError> + Sync;

/// One failed attempt of one ensemble trial.
#[derive(Debug)]
pub struct TrialFailure {
    /// Zero-based trial index within the ensemble.
    pub trial: usize,
    /// 1-based attempt that failed (1 = first try, 2 = the retry).
    pub attempt: usize,
    /// The derived seed the failing attempt ran with.
    pub seed: u64,
    /// What went wrong.
    pub error: ColdError,
    /// Whether a later attempt of the same trial succeeded.
    pub recovered: bool,
}

/// Result of a fault-tolerant ensemble: the trials that completed (tagged
/// with their index, ascending) plus a table of every failed attempt.
#[derive(Debug)]
pub struct EnsembleOutcome {
    /// Trials requested.
    pub total: usize,
    /// `(trial index, result)` for each completed trial, ascending.
    pub results: Vec<(usize, SynthesisResult)>,
    /// Every failed attempt, in `(trial, attempt)` order. A trial with a
    /// failed first attempt and a successful retry appears here once with
    /// `recovered = true` *and* in [`results`](Self::results).
    pub failures: Vec<TrialFailure>,
}

impl EnsembleOutcome {
    /// Whether every requested trial produced a network.
    pub fn is_complete(&self) -> bool {
        self.results.len() == self.total
    }

    /// Trials that produced no network even after the retry.
    pub fn lost_trials(&self) -> Vec<usize> {
        (0..self.total).filter(|&i| !self.results.iter().any(|&(j, _)| j == i)).collect()
    }
}

/// Everything produced by one synthesis.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The JSONL run journal this synthesis appended to, when journal
    /// tracing was active (`COLD_TRACE=journal:<path>` or an explicit
    /// [`cold_obs::configure`]); `None` otherwise. Lets downstream tools
    /// pair a result with its per-generation trace.
    pub journal_path: Option<std::path::PathBuf>,
    /// The random context the network was designed for.
    pub context: Context,
    /// The synthesized network (topology + capacities + routes + cost).
    pub network: Network,
    /// Topology statistics (§6).
    pub stats: NetworkStats,
    /// Best cost per generation (monotone nonincreasing).
    pub best_cost_history: Vec<f64>,
    /// Costs of the whole final GA population (ascending) — §3.3's
    /// "population of solutions" output.
    pub final_population_costs: Vec<f64>,
    /// `(heuristic name, cost)` for each greedy competitor (initialized
    /// mode only; empty otherwise).
    pub heuristic_costs: Vec<(String, f64)>,
    /// Objective evaluations requested by the GA (the fitness cache may
    /// serve some from memory — see [`eval_stats`](Self::eval_stats)).
    pub evaluations: usize,
    /// Fitness-cache hits/misses and wall-clock evaluation time.
    pub eval_stats: cold_ga::EvalStats,
    /// Fraction of offspring needing connectivity repair.
    pub repair_rate: f64,
    /// Generations actually run.
    pub generations_run: usize,
    /// Why the GA returned (completion, early stop, or the stall guard).
    pub stop_reason: cold_ga::StopReason,
}

impl SynthesisResult {
    /// Best cost found.
    pub fn best_cost(&self) -> f64 {
        self.network.total_cost()
    }

    /// The cheapest heuristic competitor, if any ran.
    pub fn best_heuristic(&self) -> Option<(&str, f64)> {
        self.heuristic_costs
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, c)| (n.as_str(), *c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic() {
        let cfg = ColdConfig::quick(10, 1e-4, 10.0);
        let a = cfg.synthesize(7);
        let b = cfg.synthesize(7);
        assert_eq!(a.network.topology, b.network.topology);
        assert_eq!(a.best_cost_history, b.best_cost_history);
        let c = cfg.synthesize(8);
        assert_ne!(a.context, c.context);
    }

    #[test]
    fn initialized_beats_every_heuristic() {
        let cfg = ColdConfig::quick(10, 4e-4, 10.0);
        let r = cfg.synthesize(3);
        assert_eq!(r.heuristic_costs.len(), 4);
        let (name, best_h) = r.best_heuristic().unwrap();
        assert!(
            r.best_cost() <= best_h + 1e-9,
            "GA ({}) worse than {name} ({best_h})",
            r.best_cost()
        );
    }

    #[test]
    fn ga_only_mode_runs_without_heuristics() {
        let mut cfg = ColdConfig::quick(8, 1e-4, 0.0);
        cfg.mode = SynthesisMode::GaOnly;
        let r = cfg.synthesize(1);
        assert!(r.heuristic_costs.is_empty());
        assert!(r.best_cost() > 0.0);
    }

    #[test]
    fn ensemble_is_deterministic_and_varied() {
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let e1 = cfg.ensemble(5, 4);
        let e2 = cfg.ensemble(5, 4);
        assert_eq!(e1.len(), 4);
        for (a, b) in e1.iter().zip(&e2) {
            assert_eq!(a.network.topology, b.network.topology);
        }
        // Different contexts ⇒ (almost surely) different networks.
        let distinct =
            e1.windows(2).filter(|w| w[0].network.topology != w[1].network.topology).count();
        assert!(distinct >= 2, "ensemble members suspiciously identical");
    }

    #[test]
    fn history_never_regresses_and_matches_cost() {
        let cfg = ColdConfig::quick(9, 1e-3, 100.0);
        let r = cfg.synthesize(11);
        for w in r.best_cost_history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
        let last = *r.best_cost_history.last().unwrap();
        assert!((last - r.best_cost()).abs() < 1e-9);
        assert!(!r.final_population_costs.is_empty());
        assert!((r.final_population_costs[0] - last).abs() < 1e-9);
    }

    #[test]
    fn eval_stats_are_plumbed_through() {
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let r = cfg.synthesize(2);
        assert_eq!(r.eval_stats.requested, r.evaluations);
        assert_eq!(r.eval_stats.cache_hits + r.eval_stats.cache_misses, r.evaluations);
        assert!(r.eval_stats.cache_misses > 0, "something must actually be evaluated");
        assert!(r.eval_stats.eval_seconds > 0.0);
    }

    #[test]
    fn ensemble_survives_a_panicking_trial_and_recovers_via_retry() {
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let reference = cfg.ensemble(5, 4);
        // Trial 2's first attempt panics; its retry (fresh salted seed)
        // succeeds. The scope must not poison and every trial must fill.
        let outcome = cfg.ensemble_with_runner(5, 4, &|c, seed, trial, attempt| {
            if trial == 2 && attempt == 1 {
                panic!("injected objective failure");
            }
            c.try_synthesize(seed)
        });
        assert!(outcome.is_complete(), "retry must recover the trial");
        assert_eq!(outcome.failures.len(), 1);
        let f = &outcome.failures[0];
        assert_eq!((f.trial, f.attempt), (2, 1));
        assert!(f.recovered);
        assert!(matches!(f.error, ColdError::TrialPanic(_)));
        assert!(f.error.to_string().contains("injected objective failure"));
        // Unaffected trials are bit-identical to the clean ensemble; the
        // recovered trial ran a different (salted) seed.
        for (i, r) in &outcome.results {
            if *i != 2 {
                assert_eq!(r.network.topology, reference[*i].network.topology, "trial {i}");
            }
        }
        let retried_seed = derive_seed(derive_seed(5, super::RETRY_SALT), 2);
        let expected_retry = cfg.synthesize(retried_seed);
        let (_, recovered) = outcome.results.iter().find(|(i, _)| *i == 2).unwrap();
        assert_eq!(recovered.network.topology, expected_retry.network.topology);
    }

    #[test]
    fn ensemble_degrades_to_partial_when_retry_also_fails() {
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let outcome = cfg.ensemble_with_runner(5, 4, &|c, seed, trial, _attempt| {
            if trial == 1 {
                return Err(ColdError::Config("injected persistent failure".into()));
            }
            c.try_synthesize(seed)
        });
        assert!(!outcome.is_complete());
        assert_eq!(outcome.results.len(), 3, "three trials survive");
        assert_eq!(outcome.lost_trials(), vec![1]);
        assert_eq!(outcome.failures.len(), 2, "both attempts recorded");
        assert!(outcome.failures.iter().all(|f| f.trial == 1 && !f.recovered));
        assert_eq!(
            outcome.failures.iter().map(|f| f.attempt).collect::<Vec<_>>(),
            vec![1, 2],
            "attempts recorded in order"
        );
    }

    #[test]
    fn resilient_ensemble_matches_plain_ensemble_when_nothing_fails() {
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let plain = cfg.ensemble(9, 3);
        let outcome = cfg.synthesize_ensemble(9, 3);
        assert!(outcome.is_complete() && outcome.failures.is_empty());
        for ((i, a), b) in outcome.results.iter().zip(&plain) {
            assert_eq!(a.network.topology, b.network.topology, "trial {i}");
            assert_eq!(a.best_cost_history, b.best_cost_history);
        }
    }

    #[test]
    fn invalid_configs_are_typed_errors_not_panics() {
        let mut cfg = ColdConfig::quick(8, 1e-4, 10.0);
        cfg.context.scale = f64::NAN;
        match cfg.try_synthesize(1) {
            Err(ColdError::Config(why)) => assert!(why.contains("scale"), "{why}"),
            other => panic!("expected Config error, got {other:?}"),
        }
        let mut cfg = ColdConfig::quick(8, 1e-4, 10.0);
        cfg.ga.population = 0;
        assert!(matches!(cfg.try_synthesize(1), Err(ColdError::Config(_))));
    }

    #[test]
    fn fixed_context_varies_only_via_ga_seed() {
        // §3.3: "create multiple networks with the same context".
        let cfg = ColdConfig::quick(9, 4e-4, 10.0);
        let ctx = cfg.context.generate(99);
        let a = cfg.synthesize_in_context(ctx.clone(), 1);
        let b = cfg.synthesize_in_context(ctx.clone(), 2);
        assert_eq!(a.context, b.context);
        // Costs may differ slightly between GA seeds but both are valid.
        assert!(a.best_cost() > 0.0 && b.best_cost() > 0.0);
    }
}
