//! The top-level COLD synthesis API.
//!
//! A [`ColdConfig`] bundles everything: the context model (§3.1), the cost
//! parameters (§3.2), the GA settings (§4–§5) and the synthesis mode
//! (plain GA, or the *initialized GA* of Fig 3 that seeds the first
//! generation with the greedy heuristics' outputs). A synthesis is a pure
//! function of `(config, seed)`.

use crate::checkpoint::{run_campaign, Campaign, LocalTrials};
use crate::error::{panic_message, ColdError};
use crate::evolve::{ChangeCosts, ChangePenaltyObjective, WARM_SALT};
use crate::objective::ColdObjective;
use crate::pareto::{ColdMultiObjective, ParetoFrontMember};
use crate::resilience::ResilientObjective;
use crate::stats::NetworkStats;
use cold_context::rng::derive_seed;
use cold_context::{Context, ContextConfig};
use cold_cost::{CostParams, Network};
use cold_ga::pareto::{ParetoGa, ParetoPoint, ParetoResult};
use cold_ga::{GaResult, GaSettings, GeneticAlgorithm, Individual, Objective};
use cold_graph::AdjacencyMatrix;
use cold_heuristics::{all_heuristics_on, RandomGreedyConfig};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Salt mixed into the master seed for one-shot retries of failed trials,
/// so the retry runs a fresh (but still deterministic) random stream
/// instead of replaying the exact failure. Public so the retry-seed
/// soundness test can pin the derivation
/// `derive_seed(derive_seed(master, RETRY_SALT), trial)` against the
/// original trial seeds.
pub const RETRY_SALT: u64 = 0x5245_5452; // "RETR"

/// Salts of a trial's random streams, each `derive_seed(seed, salt)`:
/// the context, the heuristic seeding, and the GA of a cold-started run
/// (warm runs use [`WARM_SALT`]).
pub(crate) const CONTEXT_SALT: u64 = 0xC0;
const HEURISTIC_SALT: u64 = 0x4755; // "GU"
const GA_SALT: u64 = 0x6741; // "Ga"

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

/// One GA run's telemetry: the journal frame — `run_start` when the run
/// begins; `ga_stalled` (when the stall guard ended it) and `run_end`
/// when it returns — and the engine's one observer slot, fanned out to
/// the trace observer (when telemetry is on) and an optional
/// [`ProgressSink`].
struct RunTelemetry {
    seed: u64,
    stall_gens: Option<usize>,
    trace: Option<cold_obs::TraceObserver>,
    progress: Option<ProgressSink>,
}

impl RunTelemetry {
    /// Emits `run_start` for a `mode` run on an `n`-node context.
    fn start(
        seed: u64,
        n: usize,
        mode: String,
        ga: &GaSettings,
        progress: Option<ProgressSink>,
    ) -> Self {
        let trace = cold_obs::is_enabled().then(|| {
            cold_obs::emit(&cold_obs::Event::RunStart(cold_obs::RunStart {
                run: cold_obs::run_id(seed),
                n,
                mode,
                generations: ga.generations,
                population: ga.population,
            }));
            cold_obs::TraceObserver::new(seed)
        });
        Self { seed, stall_gens: ga.stall_gens, trace, progress }
    }

    /// The engine's observer slot: `None` when nobody listens, so the
    /// engine skips building generation records altogether.
    fn slot(&mut self) -> Option<&mut dyn cold_obs::GenerationObserver> {
        if self.trace.is_some() || self.progress.is_some() {
            Some(self)
        } else {
            None
        }
    }

    /// Emits `ga_stalled` when the stall guard ended the run, then
    /// `run_end`. The best cost is a Pareto run's cheapest front member.
    fn end(&self, r: &GaResult) {
        if self.trace.is_none() {
            return;
        }
        let run = cold_obs::run_id(self.seed);
        if r.stop_reason == cold_ga::StopReason::Stalled {
            cold_obs::emit(&cold_obs::Event::GaStalled(cold_obs::GaStalled {
                run: run.clone(),
                generation: r.generations_run,
                stall_gens: self.stall_gens.unwrap_or(0),
                best: r.best.cost,
            }));
        }
        cold_obs::emit(&cold_obs::Event::RunEnd(cold_obs::RunEnd {
            run,
            generations_run: r.generations_run,
            best_cost: r.best.cost,
            evaluations: r.eval_stats.requested,
            cache_hit_rate: r.eval_stats.hit_rate(),
            eval_seconds: r.eval_stats.eval_seconds,
            repair_rate: r.repair_stats.repair_rate(),
        }));
    }
}

impl cold_obs::GenerationObserver for RunTelemetry {
    fn on_generation(&mut self, record: &cold_obs::GenerationRecord) {
        if let Some(trace) = &mut self.trace {
            trace.on_generation(record);
        }
        if let Some(sink) = &self.progress {
            sink(record);
        }
    }
}

/// Watchdog-abandoned trial threads. [`run_attempt`] detaches the
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
    let handles = std::mem::take(&mut *ABANDONED_WATCHDOGS.lock().expect("watchdog registry lock"));
    for h in handles {
        let _ = h.join();
    }
}

/// A GA snapshot sink that can cross the watchdog thread: an owned
/// [`cold_ga::CheckpointHook`] sink, handed each snapshot by value.
pub type CheckpointSink = Box<dyn FnMut(cold_ga::GaCheckpoint) + Send>;

/// The optional inputs of one [`run_attempt`]. None of them changes the
/// result.
#[derive(Default)]
pub struct AttemptOptions {
    /// Continue the GA from this snapshot.
    pub resume: Option<cold_ga::GaCheckpoint>,
    /// Wall-clock budget: the attempt runs on a watchdog thread and is
    /// abandoned when it overruns.
    pub deadline: Option<std::time::Duration>,
    /// Live per-generation progress sink.
    pub progress: Option<ProgressSink>,
    /// `(every, sink)`: hand the sink a GA snapshot every `every`
    /// generations.
    pub checkpoint: Option<(usize, CheckpointSink)>,
}

/// Runs `f`, turning a panic into [`ColdError::TrialPanic`].
pub(crate) fn contain<T>(f: impl FnOnce() -> Result<T, ColdError>) -> Result<T, ColdError> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|payload| Err(ColdError::TrialPanic(panic_message(payload.as_ref()))))
}

/// One attempt at a trial — the trial step of every campaign,
/// ensemble and distributed grant: `config` on `spec`, with the optional
/// [`AttemptOptions`]. `(trial, attempt)` only label the journal.
///
/// A panic inside the attempt is contained. With a deadline the attempt
/// runs on a detached thread; when the deadline fires first that thread
/// is *abandoned* (registered in the straggler registry), not killed:
/// Rust has no safe thread cancellation, so the watchdog's job is to
/// keep the caller moving, not to reclaim the wedged thread. An overrun
/// is journaled as `trial_deadline_exceeded`.
///
/// # Errors
/// The run's [`ColdError`], [`ColdError::TrialPanic`] for a panic and
/// [`ColdError::DeadlineExceeded`] for an overrun.
pub fn run_attempt(
    config: &ColdConfig,
    trial: usize,
    attempt: usize,
    spec: TrialSpec,
    options: AttemptOptions,
) -> Result<SynthesisResult, ColdError> {
    let AttemptOptions { resume, deadline, progress, mut checkpoint } = options;
    let (cfg, seed) = (*config, spec.seed);
    let run = move || {
        contain(|| {
            let checkpoint = checkpoint
                .as_mut()
                .map(|(every, sink)| cold_ga::CheckpointHook { every: *every, sink: &mut **sink });
            let options = RunOptions { progress, checkpoint, resume };
            cfg.run_trial(spec, options)
        })
    };
    let Some(deadline) = deadline else { return run() };
    let (tx, rx) = std::sync::mpsc::channel();
    // Trace context is thread-local; snapshot it here and re-install it
    // on the worker so the trial's events stay under the caller's span.
    let trace_ctx = cold_obs::trace::current();
    let worker = std::thread::spawn(move || {
        let _trace = trace_ctx.map(cold_obs::trace::enter);
        // The receiver is gone when the deadline already fired; the
        // result is then dropped with the thread.
        let _ = tx.send(run());
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
            let seconds = deadline.as_secs_f64();
            if cold_obs::is_enabled() {
                cold_obs::emit(&cold_obs::Event::TrialDeadlineExceeded(
                    cold_obs::TrialDeadlineExceeded { trial, attempt, seed, seconds },
                ));
            }
            Err(ColdError::DeadlineExceeded { seconds })
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

/// What one trial minimizes. Every variant runs the same pipeline
/// ([`ColdConfig::run_trial`]), takes every [`RunOptions`] hook and
/// yields a [`SynthesisResult`]; they differ only in the objective, the
/// initial population, the GA salt and the survival strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum TrialObjective {
    /// Eq. (2): the paper's synthesis.
    Cost,
    /// Eq. (2) plus a [`ChangeCosts`] penalty for every link that differs
    /// from `parent`, warm-started from `parent` (DESIGN.md §17).
    Warm {
        /// The design the GA starts from and prices changes against;
        /// same node count as the context.
        parent: AdjacencyMatrix,
        /// Per-link rewiring prices.
        costs: ChangeCosts,
    },
    /// Eq. (2) plus `bridge_cost` per bridge link
    /// ([`crate::resilience`]).
    Resilient {
        /// Extra cost per bridge (finite, >= 0).
        bridge_cost: f64,
    },
    /// Build cost, failure impact and delay under NSGA-II survival
    /// ([`crate::pareto`]); yields a front besides its cheapest network.
    Pareto {
        /// Bound on the carried archive (>= 1).
        archive: usize,
    },
}

impl TrialObjective {
    /// Checks the objective's parameters for an `n`-node context.
    pub(crate) fn validate(&self, n: usize) -> Result<(), ColdError> {
        let why = match self {
            TrialObjective::Warm { parent, .. } if parent.n() != n => {
                Some(format!("warm-start parent has {} nodes, context has {n}", parent.n()))
            }
            TrialObjective::Warm { costs, .. } => costs.validate().err(),
            TrialObjective::Resilient { bridge_cost }
                if !bridge_cost.is_finite() || *bridge_cost < 0.0 =>
            {
                Some(format!("bridge cost {bridge_cost} must be finite and >= 0"))
            }
            _ => None,
        };
        why.map_or(Ok(()), |why| Err(ColdError::Config(why)))
    }
}

/// One trial: its seed, its objective, and optionally an explicit
/// context (otherwise drawn from the seed).
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSpec {
    /// The trial seed every stream derives from.
    pub seed: u64,
    /// The context to design for; `None` draws it from `seed`.
    pub context: Option<Context>,
    /// What to minimize.
    pub objective: TrialObjective,
}

impl TrialSpec {
    /// A trial of `objective` on the context drawn from `seed`.
    pub fn new(seed: u64, objective: TrialObjective) -> Self {
        Self { seed, context: None, objective }
    }
}

/// The optional hooks of one run. None of them changes the result.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Live per-generation progress sink.
    pub progress: Option<ProgressSink>,
    /// Mid-run GA snapshots for crash safety; a Pareto run's carry its
    /// NSGA-II state.
    pub checkpoint: Option<cold_ga::CheckpointHook<'a>>,
    /// Resume the GA from a snapshot of a run of the same objective.
    pub resume: Option<cold_ga::GaCheckpoint>,
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

    /// Checks the whole configuration — context model, cost parameters,
    /// GA settings and the random-greedy heuristic — before any work
    /// starts.
    ///
    /// # Errors
    /// [`ColdError::Config`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), ColdError> {
        self.context.validate().map_err(|why| ColdError::Config(format!("context: {why}")))?;
        self.params.validate().map_err(|why| ColdError::Config(format!("cost params: {why}")))?;
        self.ga.validate().map_err(|why| ColdError::Config(format!("GA settings: {why}")))?;
        if self.random_greedy.permutations == 0 {
            return Err(ColdError::Config("random greedy: permutations must be >= 1".into()));
        }
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
        self.run_trial(TrialSpec::new(seed, TrialObjective::Cost), RunOptions::default())
    }

    /// Optimizes within an explicitly provided context (e.g. real PoP
    /// locations, or the fixed-context comparisons of Fig 3).
    ///
    /// # Panics
    /// As [`synthesize`](Self::synthesize).
    pub fn synthesize_in_context(&self, ctx: Context, seed: u64) -> SynthesisResult {
        self.run_trial(
            TrialSpec { seed, context: Some(ctx), objective: TrialObjective::Cost },
            RunOptions::default(),
        )
        .expect("synthesis failed")
    }

    /// Runs one trial. Every synthesis, whatever its objective, is this
    /// one pipeline (DESIGN.md §10.1): validate, the `trial.hang` fault
    /// site, the context (the spec's, or drawn from
    /// `derive_seed(seed, 0xC0)`), `run_start`, the initial population,
    /// the GA, `run_end`, and the winner(s) built into [`Network`]s.
    /// Neither telemetry nor `options.progress` changes the result.
    ///
    /// `options.checkpoint` hands out a mid-run [`cold_ga::GaCheckpoint`]
    /// every `every` generations; `options.resume` restarts the GA
    /// bit-identically from one, on any host. Context generation and
    /// heuristic seeding always re-run, so the result is the same whether
    /// or not the trial was ever interrupted.
    ///
    /// # Errors
    /// [`ColdError::Config`] for an invalid configuration or objective (a
    /// warm parent whose node count differs from the context included);
    /// [`ColdError::Ga`] when the engine rejects the run (a non-finite
    /// cost, a resume snapshot of another run or survival strategy).
    pub fn run_trial(
        &self,
        spec: TrialSpec,
        options: RunOptions<'_>,
    ) -> Result<SynthesisResult, ColdError> {
        self.validate()?;
        let n = spec.context.as_ref().map_or(self.context.n, Context::n);
        spec.objective.validate(n)?;
        if cold_fault::armed() && cold_fault::should_fire("trial.hang") {
            std::thread::sleep(std::time::Duration::from_millis(HANG_MS));
        }
        let TrialSpec { seed, context, objective } = spec;
        let ctx = context.unwrap_or_else(|| self.context.generate(derive_seed(seed, CONTEXT_SALT)));
        let (span, mode) = match &objective {
            TrialObjective::Cost => ("core.synthesize", format!("{:?}", self.mode)),
            TrialObjective::Warm { .. } => ("core.synthesize_warm", "Warm".into()),
            TrialObjective::Resilient { .. } => ("core.synthesize", "Resilient".into()),
            TrialObjective::Pareto { .. } => ("core.synthesize_pareto", "Pareto".into()),
        };
        let _span = cold_obs::span(span);
        let mut telemetry = RunTelemetry::start(seed, ctx.n(), mode, &self.ga, options.progress);
        let plain = ColdObjective::new(&ctx, self.params);
        let (seeds, heuristic_costs): (Vec<AdjacencyMatrix>, _) = match (&objective, self.mode) {
            (TrialObjective::Warm { .. }, _) | (_, SynthesisMode::GaOnly) => Default::default(),
            (_, SynthesisMode::Initialized) => {
                let _t = cold_obs::timer("core.heuristic_seed");
                all_heuristics_on(
                    plain.evaluator(),
                    &self.random_greedy,
                    derive_seed(seed, HEURISTIC_SALT),
                    self.ga.workers(),
                )
                .into_iter()
                .map(|(name, r)| (r.topology, (name.to_string(), r.cost)))
                .unzip()
            }
        };
        let settings = |salt| GaSettings { seed: derive_seed(seed, salt), ..self.ga };
        let (checkpoint, resume) = (options.checkpoint, options.resume);
        let (result, pareto) = match objective {
            TrialObjective::Pareto { archive } => {
                let objective = ColdMultiObjective::new(&ctx, self.params);
                let engine = ParetoGa::try_new(&objective, settings(GA_SALT), archive)?;
                let r = engine.run_resumable(&seeds, telemetry.slot(), checkpoint, resume)?;
                // The archive is in lexicographic objective order, so its
                // first member is the cheapest.
                let (topology, cost) = (r.front[0].topology.clone(), r.front[0].objectives[0]);
                let scalar = GaResult {
                    best: Individual { topology, cost },
                    history: Vec::new(),
                    final_population: Vec::new(),
                    generations_run: r.generations_run,
                    evaluations: r.evaluations,
                    eval_stats: r.eval_stats,
                    repair_stats: r.repair_stats,
                    stop_reason: r.stop_reason,
                };
                (scalar, Some(r))
            }
            scalar => {
                let (objective, warm_parent): (Box<dyn Objective + '_>, _) = match scalar {
                    TrialObjective::Warm { parent, costs } => (
                        Box::new(ChangePenaltyObjective::new(plain, parent.clone(), costs)),
                        Some(parent),
                    ),
                    TrialObjective::Resilient { bridge_cost } => {
                        (Box::new(ResilientObjective::new(&ctx, self.params, bridge_cost)), None)
                    }
                    _ => (Box::new(plain), None),
                };
                let salt = if warm_parent.is_some() { WARM_SALT } else { GA_SALT };
                let engine = GeneticAlgorithm::try_new(&*objective, settings(salt))?;
                let result = match &warm_parent {
                    Some(parent) => engine.run_warm(parent, telemetry.slot(), checkpoint, resume),
                    None => engine.run_resumable(&seeds, telemetry.slot(), checkpoint, resume),
                }?;
                (result, None)
            }
        };
        Ok(self.finish(ctx, &telemetry, result, heuristic_costs, pareto))
    }

    /// The tail of every [`run_trial`](Self::run_trial): `run_end`, then
    /// the best design (for a Pareto run, the cheapest front member) and
    /// every front member built into [`Network`]s.
    fn finish(
        &self,
        ctx: Context,
        telemetry: &RunTelemetry,
        result: GaResult,
        heuristic_costs: Vec<(String, f64)>,
        pareto: Option<ParetoResult>,
    ) -> SynthesisResult {
        telemetry.end(&result);
        let build = |t: AdjacencyMatrix| {
            Network::build(t, &ctx, self.params).expect("GA designs are repaired, hence connected")
        };
        let member = |p: ParetoPoint| ParetoFrontMember {
            network: build(p.topology),
            objectives: p.objectives,
        };
        let (front, hypervolume_history, reference) = match pareto {
            Some(r) => {
                (r.front.into_iter().map(member).collect(), r.hypervolume_history, r.reference)
            }
            None => Default::default(),
        };
        let network = build(result.best.topology);
        let stats = NetworkStats::compute(&network.graph()).expect("connected");
        SynthesisResult {
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
            front,
            hypervolume_history,
            reference,
        }
    }

    /// Synthesizes an ensemble of `count` networks with independent
    /// contexts, several trials at once (see [`LocalTrials`]).
    ///
    /// # Panics
    /// Panics on an invalid configuration, and when a trial fails *and*
    /// its one-shot retry also fails — use
    /// [`synthesize_ensemble`](Self::synthesize_ensemble) to degrade
    /// gracefully to a partial ensemble instead.
    pub fn ensemble(&self, master_seed: u64, count: usize) -> Vec<SynthesisResult> {
        let outcome = self.synthesize_ensemble(master_seed, count, None);
        if let Some(f) = outcome.failures.iter().find(|f| !f.recovered) {
            panic!("ensemble trial {} failed after retry: {}", f.trial, f.error);
        }
        outcome.into_results()
    }

    /// Fault-tolerant [`ensemble`](Self::ensemble): a [`run_campaign`]
    /// without a snapshot file, each trial one [`run_attempt`] under an
    /// optional per-trial wall-clock `deadline`. A trial that fails — a
    /// typed [`ColdError`], a contained panic, or an overrun abandoned by
    /// the watchdog — is recorded, journaled as a `trial_failed` event,
    /// and retried once on a fresh salted seed. Trials whose retry also
    /// fails are dropped from the ensemble; the returned
    /// [`EnsembleOutcome`] carries the surviving results plus a failure
    /// table, so a 100-trial campaign with one bad trial yields 99
    /// networks and an audit trail instead of an abort or a wedge.
    ///
    /// Successful trials are bit-identical to [`ensemble`](Self::ensemble)
    /// output: seeds derive the same way and retries never perturb other
    /// trials' streams.
    ///
    /// # Panics
    /// Panics on an invalid configuration: no trial could run.
    pub fn synthesize_ensemble(
        &self,
        master_seed: u64,
        count: usize,
        deadline: Option<std::time::Duration>,
    ) -> EnsembleOutcome {
        let source = &mut LocalTrials { deadline, ..LocalTrials::default() };
        let campaign = Campaign::new(*self, master_seed, count);
        run_campaign(&campaign, None, None, source, None, |_, _| {}).expect("valid ensemble config")
    }
}

/// A single-trial runner that replaces [`run_attempt`] in a
/// [`LocalTrials`] — the seam failure-injection tests (in this crate and
/// downstream) use to make a chosen `(trial, attempt)` panic or error
/// deterministically. It receives `(config, seed, trial, attempt)`.
pub type TrialRunner =
    dyn Fn(&ColdConfig, u64, usize, usize) -> Result<SynthesisResult, ColdError> + Sync;

/// One failed attempt of one campaign trial.
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

/// Result of a campaign or ensemble: the trials that completed (tagged
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
    /// The completed trials' results, in trial order, without their
    /// indices.
    pub fn into_results(self) -> Vec<SynthesisResult> {
        self.results.into_iter().map(|(_, r)| r).collect()
    }

    /// Whether every requested trial produced a network.
    pub fn is_complete(&self) -> bool {
        self.results.len() == self.total
    }

    /// Trials that produced no network even after the retry.
    pub fn lost_trials(&self) -> Vec<usize> {
        (0..self.total).filter(|&i| !self.results.iter().any(|&(j, _)| j == i)).collect()
    }
}

/// Everything produced by one synthesis, whatever its objective. A
/// Pareto run also fills [`front`](Self::front),
/// [`hypervolume_history`](Self::hypervolume_history) and
/// [`reference`](Self::reference); its scalar fields describe the
/// cheapest front member, and it records no per-generation best cost or
/// final population.
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
    /// A Pareto run's final archive, each member built into a network, in
    /// lexicographic objective order (empty for scalar runs).
    pub front: Vec<ParetoFrontMember>,
    /// A Pareto run's archive hypervolume per generation, index 0 after
    /// the initial population (empty for scalar runs).
    pub hypervolume_history: Vec<f64>,
    /// A Pareto run's hypervolume reference point (empty for scalar runs).
    pub reference: Vec<f64>,
}

impl SynthesisResult {
    /// Best cost found (a Pareto run's cheapest front member).
    pub fn best_cost(&self) -> f64 {
        self.network.total_cost()
    }

    /// The final archive hypervolume (0 for scalar runs).
    pub fn hypervolume(&self) -> f64 {
        self.hypervolume_history.last().copied().unwrap_or(0.0)
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
    use crate::checkpoint::tests::ensemble_with;

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
    fn bridge_cost_and_warm_trials_count_the_arcs_their_sessions_scan() {
        // Both objectives wrap the cost objective's delta session; their
        // trials must report the arcs it read, not the trait default 0.
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let ctx = cfg.context.generate(4);
        let parent = cold_graph::mst::mst_matrix(8, ctx.distance_fn());
        let objectives = [
            TrialObjective::Resilient { bridge_cost: 1e6 },
            TrialObjective::Warm { parent, costs: crate::ChangeCosts::uniform(1.0) },
        ];
        for objective in objectives {
            let label = format!("{objective:?}");
            let spec = TrialSpec { seed: 9, context: Some(ctx.clone()), objective };
            let r = cfg.run_trial(spec, RunOptions::default()).unwrap();
            assert!(r.eval_stats.arcs_scanned > 0, "{label}: {:?}", r.eval_stats);
        }
    }

    #[test]
    fn ensemble_survives_a_panicking_trial_and_recovers_via_retry() {
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let reference = cfg.ensemble(5, 4);
        // Trial 2's first attempt panics; its retry (fresh salted seed)
        // succeeds. The scope must not poison and every trial must fill.
        let outcome = ensemble_with(
            &cfg,
            5,
            4,
            Box::new(|c, seed, trial, attempt| {
                if trial == 2 && attempt == 1 {
                    panic!("injected objective failure");
                }
                c.try_synthesize(seed)
            }),
        );
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
        let outcome = ensemble_with(
            &cfg,
            5,
            4,
            Box::new(|c, seed, trial, _attempt| {
                if trial == 1 {
                    return Err(ColdError::Config("injected persistent failure".into()));
                }
                c.try_synthesize(seed)
            }),
        );
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
        let outcome = cfg.synthesize_ensemble(9, 3, None);
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
        let mut cfg = ColdConfig::quick(8, 4e-4, 10.0);
        cfg.random_greedy.permutations = 0;
        match cfg.validate() {
            Err(ColdError::Config(why)) => assert!(why.contains("permutations"), "{why}"),
            other => panic!("expected Config error, got {other:?}"),
        }
        assert!(matches!(cfg.try_synthesize(1), Err(ColdError::Config(_))));
        // Every objective, on a derived and on an explicit context.
        let ctx = ColdConfig::quick(8, 1e-4, 10.0).context.generate(3);
        let objectives = [
            TrialObjective::Cost,
            TrialObjective::Warm {
                parent: AdjacencyMatrix::complete(8),
                costs: crate::ChangeCosts::uniform(1.0),
            },
            TrialObjective::Resilient { bridge_cost: 10.0 },
            TrialObjective::Pareto { archive: 8 },
        ];
        let breakages: [fn(&mut ColdConfig); 3] =
            [|c| c.params.k1 = -1.0, |c| c.ga.population = 0, |c| c.context.scale = f64::NAN];
        for (b, breakage) in breakages.iter().enumerate() {
            let mut cfg = ColdConfig::quick(8, 1e-4, 10.0);
            breakage(&mut cfg);
            for objective in &objectives {
                for context in [None, Some(ctx.clone())] {
                    let explicit = context.is_some();
                    let spec = TrialSpec { seed: 1, context, objective: objective.clone() };
                    match cfg.run_trial(spec, RunOptions::default()) {
                        Err(ColdError::Config(_)) => {}
                        Err(other) => {
                            panic!("breakage {b}, {objective:?}, explicit {explicit}: {other:?}")
                        }
                        Ok(_) => panic!("breakage {b}, {objective:?}, explicit {explicit}: ran"),
                    }
                }
            }
        }
    }

    #[test]
    fn every_objective_resumes_from_every_snapshot_bit_identically() {
        let mut cfg = ColdConfig::quick(8, 4e-4, 10.0);
        cfg.ga.generations = 6;
        let ctx = cfg.context.generate(4);
        let parent = cold_graph::mst::mst_matrix(8, ctx.distance_fn());
        let objectives = [
            TrialObjective::Cost,
            TrialObjective::Warm { parent, costs: crate::ChangeCosts::uniform(1.0) },
            TrialObjective::Resilient { bridge_cost: 50.0 },
            TrialObjective::Pareto { archive: 8 },
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Every deterministic field: eval_seconds and the session-count
        // dependent delta/full split aside.
        let deterministic = |r: &SynthesisResult| {
            let s = &r.eval_stats;
            let front: Vec<_> =
                r.front.iter().map(|m| (m.network.topology.clone(), bits(&m.objectives))).collect();
            (
                (r.best_cost().to_bits(), r.network.topology.clone(), bits(&r.best_cost_history)),
                (r.generations_run, r.evaluations, (s.requested, s.cache_hits, s.cache_misses)),
                (r.repair_rate.to_bits(), r.stop_reason, bits(&r.final_population_costs)),
                (front, bits(&r.hypervolume_history), bits(&r.reference)),
            )
        };
        let mut pareto_snapshot = None;
        for objective in objectives {
            let label = format!("{objective:?}");
            let pareto = matches!(objective, TrialObjective::Pareto { .. });
            let spec = TrialSpec::new(9, objective);
            let mut snapshots = Vec::new();
            let mut sink = |c: cold_ga::GaCheckpoint| snapshots.push(c);
            let checkpoint = Some(cold_ga::CheckpointHook { every: 1, sink: &mut sink });
            let options = RunOptions { checkpoint, ..RunOptions::default() };
            let plain = cfg.run_trial(spec.clone(), options).unwrap();
            assert_eq!(snapshots.len(), 5, "{label}: one snapshot per generation but the last");
            for snapshot in &snapshots {
                assert_eq!(snapshot.pareto.is_some(), pareto, "{label}");
                let resume = Some(cold_ga::GaCheckpoint::from_json(&snapshot.to_json()).unwrap());
                let options = RunOptions { resume, ..RunOptions::default() };
                let resumed = cfg.run_trial(spec.clone(), options).unwrap();
                let generation = snapshot.generation;
                assert_eq!(
                    deterministic(&resumed),
                    deterministic(&plain),
                    "{label} @ {generation}"
                );
            }
            if pareto {
                assert!(plain.front.len() >= 2 && !plain.hypervolume_history.is_empty(), "{label}");
                pareto_snapshot = snapshots.pop();
            }
        }
        // A snapshot resumes only a run of its own objective.
        let options = RunOptions { resume: pareto_snapshot, ..RunOptions::default() };
        let err = cfg.run_trial(TrialSpec::new(9, TrialObjective::Cost), options).unwrap_err();
        assert!(matches!(err, ColdError::Ga(cold_ga::GaError::Checkpoint(_))), "{err:?}");
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
