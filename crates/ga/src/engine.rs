//! The generational loop (§4.1 steps 2–5), shared by every survival
//! strategy.
//!
//! One loop builds generation 0, breeds, repairs, evaluates (through one
//! fitness cache and the run's sessions on one executor), runs the convergence
//! guards and reports each generation. What the paper's operators leave
//! open is a crate-private survival strategy: the fitness type (a cost or
//! an objective vector), survival itself, the progress series the guards
//! read, and the hypervolume a generation record carries.
//! [`GeneticAlgorithm`] runs the loop with elitist survival;
//! [`ParetoGa`](crate::pareto::ParetoGa) with NSGA-II's.

use crate::checkpoint::GaCheckpoint;
use crate::chromosome::{inverse_cost_weights, sort_by_cost, weighted_pick, Individual};
use crate::crossover::{crossover_child, select_parents};
use crate::error::GaError;
use crate::init::{initial_population, warm_population};
use crate::mutation::mutate;
use crate::repair::{repair, RepairStats};
use crate::settings::GaSettings;
use crate::{Objective, ObjectiveSession};
use cold_graph::executor::{with_executor, Executor};
use cold_graph::AdjacencyMatrix;
use cold_obs::{GenerationObserver, GenerationRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Periodic checkpointing configuration for a resumable run.
///
/// The engine hands `sink` a fresh, owned [`GaCheckpoint`] after every
/// `every`-th completed generation (and never for the generation an early
/// stop fires on — the run ends there anyway). The sink is expected to
/// persist the snapshot or pass it on; persistence failures should be handled inside
/// the sink (log and continue), since a failed checkpoint write must not
/// kill an otherwise healthy run.
pub struct CheckpointHook<'a> {
    /// Generations between snapshots (≥ 1).
    pub every: usize,
    /// Receives each snapshot.
    pub sink: &'a mut dyn FnMut(GaCheckpoint),
}

/// Why a GA run returned: normal completion, the convergence-plateau
/// early stop, or the stall guard.
///
/// Serialized as a lowercase snake_case string (`"completed"`,
/// `"early_stopped"`, `"stalled"`) in trial records and journals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// All `generations` ran (or the run was resumed past them).
    Completed,
    /// [`GaSettings::early_stop`] fired: the best cost (archive
    /// hypervolume under NSGA-II) plateaued within `rel_tol` over the
    /// trailing window.
    EarlyStopped,
    /// [`GaSettings::stall_gens`] fired: no strict best-cost (archive
    /// hypervolume) improvement for that many consecutive generations.
    Stalled,
}

impl StopReason {
    /// The stable wire name used in trial records and journals.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::EarlyStopped => "early_stopped",
            StopReason::Stalled => "stalled",
        }
    }

    /// Parses a wire name produced by [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "completed" => Some(StopReason::Completed),
            "early_stopped" => Some(StopReason::EarlyStopped),
            "stalled" => Some(StopReason::Stalled),
            _ => None,
        }
    }
}

/// Outcome of one GA run.
#[derive(Debug, Clone)]
pub struct GaResult {
    /// The best topology found, with its cost.
    pub best: Individual,
    /// Best cost after each generation (index 0 = initial population).
    pub history: Vec<f64>,
    /// The full final generation, sorted by ascending cost — §3.3's
    /// "non-exclusive" property: one run yields a population of good
    /// topologies for the same context.
    pub final_population: Vec<Individual>,
    /// Generations actually executed (≤ `settings.generations` when early
    /// stopping fires).
    pub generations_run: usize,
    /// Objective evaluations *requested* (population + offspring per
    /// generation). With the fitness cache on, the number actually computed
    /// is [`eval_stats.cache_misses`](EvalStats::cache_misses).
    pub evaluations: usize,
    /// Fitness-evaluation accounting (cache hits/misses, wall-clock time).
    pub eval_stats: EvalStats,
    /// Connectivity-repair activity (§4.1.3 "It is used rarely").
    pub repair_stats: RepairStats,
    /// Why the run returned (completion, early stop, or stall guard).
    pub stop_reason: StopReason,
}

/// Objective-evaluation accounting for one GA run.
///
/// The invariant `requested == cache_hits + cache_misses` always holds;
/// with [`GaSettings::fitness_cache`] off, `cache_hits == 0`. Hits and
/// misses depend only on the (deterministic) sequence of evaluated
/// topologies, so they are identical between serial and parallel runs with
/// the same seed; only `eval_seconds` is wall-clock and machine-dependent.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalStats {
    /// Costs requested across the run.
    pub requested: usize,
    /// Requests served from the chromosome-keyed memo cache. Duplicates
    /// *within* one batch count as hits: they are evaluated once.
    pub cache_hits: usize,
    /// Requests that actually ran the objective.
    pub cache_misses: usize,
    /// Wall-clock seconds spent inside objective evaluation (the timed
    /// region excludes cache bookkeeping).
    pub eval_seconds: f64,
    /// Cache misses answered *incrementally* by a stateful
    /// [`ObjectiveSession`] (shortest-path-tree
    /// repair instead of full re-routing). `delta_evals + full_evals ==
    /// cache_misses`. Unlike the cache counters, the split varies with
    /// the session count — 1, or `available_parallelism` with
    /// `settings.parallel` — while every returned cost stays
    /// bit-identical. For one session count it repeats run to run: chunk
    /// k of a batch always goes to session k. Not serialized into
    /// checkpoints: a resumed run restarts both counters at zero.
    pub delta_evals: usize,
    /// Cache misses answered by a full from-scratch evaluation (stateless
    /// objectives count every miss here).
    pub full_evals: usize,
    /// Arcs read by the sessions' routing; varies like `delta_evals`.
    pub arcs_scanned: u64,
}

impl EvalStats {
    /// Fraction of requests served from the cache (0 when nothing was
    /// requested).
    pub fn hit_rate(&self) -> f64 {
        if self.requested == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requested as f64
        }
    }
}

/// A per-worker evaluation session of either objective kind.
pub(crate) trait Session: Send {
    /// A scalar cost or an objective vector.
    type Fitness: Clone + Send;
    /// Fitness of a connected topology.
    fn evaluate(&mut self, t: &AdjacencyMatrix) -> Self::Fitness;
    /// The components the evaluation boundary checks.
    fn components(fitness: &Self::Fitness) -> &[f64];
    /// Cumulative `(delta, full)` evaluation counts and arcs scanned.
    fn counts(&self) -> (usize, usize, u64);
}

impl Session for Box<dyn ObjectiveSession + '_> {
    type Fitness = f64;
    fn evaluate(&mut self, t: &AdjacencyMatrix) -> f64 {
        self.cost(t, None)
    }
    fn components(cost: &f64) -> &[f64] {
        std::slice::from_ref(cost)
    }
    fn counts(&self) -> (usize, usize, u64) {
        (self.delta_evals(), self.full_evals(), self.arcs_scanned())
    }
}

/// A fitness memo cache as a snapshot holds it.
pub(crate) type CacheEntries<F> = Vec<(AdjacencyMatrix, F)>;

/// What the paper's operators leave open; everything else about a
/// generation is the shared loop. The defaults are the scalar GA's.
pub(crate) trait Survival {
    /// A scalar cost or an objective vector.
    type Fitness;

    /// The next generation, from the ranked current one (`cost` is the
    /// selection key; empty at generation 0) and the evaluated newcomers.
    fn survive(
        &mut self,
        population: Vec<Individual>,
        newcomers: Vec<AdjacencyMatrix>,
        fitness: Vec<Self::Fitness>,
    ) -> Vec<Individual>;

    /// This generation's entry in the series the guards read, where lower
    /// is progress: the best cost.
    fn progress(&self, population: &[Individual]) -> f64 {
        population[0].cost
    }

    /// The costs a generation record summarizes as best/mean/worst.
    fn record_costs(&self, population: &[Individual]) -> Vec<f64> {
        population.iter().map(|i| i.cost).collect()
    }

    /// The generation record's hypervolume (scalar runs have no archive).
    fn hypervolume(&self) -> f64 {
        0.0
    }

    /// Puts the strategy's state and the fitness memo `cache` into
    /// `snapshot`.
    fn save(
        &self,
        cache: Option<&HashMap<AdjacencyMatrix, Self::Fitness>>,
        snapshot: &mut GaCheckpoint,
    );

    /// Restores the strategy's state from `snapshot`, whose scalar part
    /// the engine already checked, and takes its fitness cache out of it.
    ///
    /// # Errors
    /// Why the snapshot cannot belong to a run of this strategy.
    fn restore(
        &mut self,
        snapshot: &mut GaCheckpoint,
    ) -> Result<Option<CacheEntries<Self::Fitness>>, String>;
}

/// The scalar GA's survival (§4.1): the `num_saved` cheapest individuals
/// plus every offspring, sorted by cost.
struct Elitist {
    num_saved: usize,
}

impl Survival for Elitist {
    type Fitness = f64;

    fn survive(
        &mut self,
        mut population: Vec<Individual>,
        newcomers: Vec<AdjacencyMatrix>,
        costs: Vec<f64>,
    ) -> Vec<Individual> {
        population.truncate(self.num_saved);
        population.extend(newcomers.into_iter().zip(costs).map(|(t, c)| Individual::new(t, c)));
        sort_by_cost(&mut population);
        population
    }

    fn save(&self, cache: Option<&HashMap<AdjacencyMatrix, f64>>, snapshot: &mut GaCheckpoint) {
        snapshot.cache = cache.map(|c| c.iter().map(|(t, v)| (t.clone(), *v)).collect());
    }

    fn restore(
        &mut self,
        snapshot: &mut GaCheckpoint,
    ) -> Result<Option<CacheEntries<f64>>, String> {
        if snapshot.pareto.is_some() {
            return Err("snapshot is of a Pareto run, not a scalar one".into());
        }
        Ok(snapshot.cache.take())
    }
}

/// How generation 0 is built (internal to the engine entry points).
pub(crate) enum InitMode<'a> {
    /// MST + clique anchors, the provided seed topologies, Erdős–Rényi
    /// fill — the paper's §4.1 step 1 (and the "initialized GA" when
    /// seeds are present).
    Cold(&'a [AdjacencyMatrix]),
    /// Parent chromosome plus mutation-operator perturbations of it —
    /// the warm-start path for network evolution (no random init).
    Warm(&'a AdjacencyMatrix),
}

/// What the loop carries from one committed generation to the next.
pub(crate) struct RunState<F> {
    pub(crate) rng: StdRng,
    /// Ranked by the strategy; `cost` is the selection key.
    pub(crate) population: Vec<Individual>,
    /// The strategy's progress series (index 0 = initial population).
    pub(crate) history: Vec<f64>,
    pub(crate) generations_run: usize,
    pub(crate) stats: EvalStats,
    pub(crate) repair_stats: RepairStats,
    pub(crate) cache: Option<HashMap<AdjacencyMatrix, F>>,
    pub(crate) stop_reason: StopReason,
}

/// The COLD genetic algorithm, generic over the [`Objective`].
#[derive(Debug, Clone)]
pub struct GeneticAlgorithm<O: Objective> {
    objective: O,
    settings: GaSettings,
    /// Components every fitness must have: 1 for a scalar cost, K for
    /// an NSGA-II objective vector.
    pub(crate) width: usize,
    /// Evaluation sessions, and executor threads, of a run:
    /// [`GaSettings::workers`].
    workers: usize,
}

impl<O: Objective> GeneticAlgorithm<O> {
    /// Creates an engine.
    ///
    /// # Panics
    /// Panics when `settings` are inconsistent (see
    /// [`GaSettings::validate`]).
    pub fn new(objective: O, settings: GaSettings) -> Self {
        Self::try_new(objective, settings).expect("invalid GA settings")
    }

    /// Fallible [`new`](Self::new): inconsistent settings are reported as
    /// [`GaError::InvalidSettings`] instead of aborting the process.
    pub fn try_new(objective: O, settings: GaSettings) -> Result<Self, GaError> {
        settings.validate().map_err(GaError::InvalidSettings)?;
        Ok(Self { objective, settings, width: 1, workers: settings.workers() })
    }

    /// The settings in use.
    pub fn settings(&self) -> &GaSettings {
        &self.settings
    }

    /// The objective being minimized.
    pub fn objective(&self) -> &O {
        &self.objective
    }

    /// Runs the GA with no externally provided seed topologies
    /// (the plain "GA" line of Fig 3).
    pub fn run(&self) -> GaResult {
        self.run_seeded(&[])
    }

    /// Runs the GA with `seeds` added to the initial population — the
    /// "initialized GA" of Fig 3, guaranteed to end at least as good as
    /// the best seed.
    pub fn run_seeded(&self, seeds: &[AdjacencyMatrix]) -> GaResult {
        self.run_traced(seeds, None)
    }

    /// [`run_seeded`](Self::run_seeded) with an optional per-generation
    /// telemetry observer.
    ///
    /// The observer fires exactly once per *executed* generation (so
    /// `generations_run` times), after selection, with a
    /// [`GenerationRecord`] computed read-only from engine state: the
    /// observer never sees the population or the RNG, so a traced run is
    /// bit-identical to an untraced one. With `None`, no telemetry values
    /// (including the diversity scan) are computed at all.
    pub fn run_traced(
        &self,
        seeds: &[AdjacencyMatrix],
        observer: Option<&mut dyn GenerationObserver>,
    ) -> GaResult {
        self.try_run_traced(seeds, observer).expect("GA run failed")
    }

    /// Fallible [`run_traced`](Self::run_traced): an objective that
    /// produces a non-finite cost surfaces as
    /// [`GaError::NonFiniteCost`] instead of corrupting selection (or
    /// panicking), so ensemble drivers can record and retry the trial.
    pub fn try_run_traced(
        &self,
        seeds: &[AdjacencyMatrix],
        observer: Option<&mut dyn GenerationObserver>,
    ) -> Result<GaResult, GaError> {
        self.run_resumable(seeds, observer, None, None)
    }

    /// The master entry point: [`try_run_traced`](Self::try_run_traced)
    /// plus crash-safety hooks.
    ///
    /// With a [`CheckpointHook`], the engine hands a [`GaCheckpoint`] to
    /// the sink after every `every`-th completed generation. With
    /// `resume`, the run continues from the given snapshot instead of
    /// building a fresh initial population (`seeds` are ignored — they
    /// only influence generation 0, which already happened). A resumed
    /// run is bit-identical to an uninterrupted one with the same
    /// settings: the RNG stream continues mid-sequence, and the restored
    /// fitness cache reproduces the same hit/miss counters. Only
    /// `eval_stats.eval_seconds` is wall-clock and may differ.
    ///
    /// # Errors
    /// [`GaError::Checkpoint`] when `resume` disagrees with the engine's
    /// settings or objective shape; [`GaError::NonFiniteCost`] when the
    /// objective misbehaves.
    pub fn run_resumable(
        &self,
        seeds: &[AdjacencyMatrix],
        observer: Option<&mut dyn GenerationObserver>,
        checkpoint: Option<CheckpointHook<'_>>,
        resume: Option<GaCheckpoint>,
    ) -> Result<GaResult, GaError> {
        self.run_hooked(InitMode::Cold(seeds), observer, checkpoint, resume)
    }

    /// Runs the GA *warm-started* from a parent chromosome: generation 0
    /// is the (repaired) parent plus mutated perturbations of it — see
    /// [`warm_population`] — instead of the cold MST/clique/ER mix.
    ///
    /// With the parent in the population and elitism on, the run never
    /// ends worse than the parent under this engine's objective. The RNG
    /// stream is the engine's usual one (seeded from
    /// `settings.seed`): warm seeding consumes exactly `population - 1`
    /// mutation draws before the generation loop starts, so a warm run
    /// is as deterministic — and as resumable — as a cold one.
    ///
    /// # Errors
    /// [`GaError::InvalidSettings`] when the parent's node count does not
    /// match the objective; otherwise as
    /// [`run_resumable`](Self::run_resumable).
    pub fn run_warm(
        &self,
        parent: &AdjacencyMatrix,
        observer: Option<&mut dyn GenerationObserver>,
        checkpoint: Option<CheckpointHook<'_>>,
        resume: Option<GaCheckpoint>,
    ) -> Result<GaResult, GaError> {
        if parent.n() != self.objective.n() {
            return Err(GaError::InvalidSettings(format!(
                "warm-start parent has {} nodes, objective expects {}",
                parent.n(),
                self.objective.n()
            )));
        }
        self.run_hooked(InitMode::Warm(parent), observer, checkpoint, resume)
    }

    /// The scalar GA behind [`run_resumable`](Self::run_resumable) and
    /// [`run_warm`](Self::run_warm): the shared loop with [`Elitist`]
    /// survival.
    fn run_hooked(
        &self,
        init: InitMode<'_>,
        observer: Option<&mut dyn GenerationObserver>,
        checkpoint: Option<CheckpointHook<'_>>,
        resume: Option<GaCheckpoint>,
    ) -> Result<GaResult, GaError> {
        let mut elitist = Elitist { num_saved: self.settings.num_saved };
        let open = || self.objective.session();
        let run = self.evolve(init, &mut elitist, open, observer, checkpoint, resume)?;
        Ok(GaResult {
            best: run.population[0].clone(),
            history: run.history,
            final_population: run.population,
            generations_run: run.generations_run,
            evaluations: run.stats.requested,
            eval_stats: run.stats,
            repair_stats: run.repair_stats,
            stop_reason: run.stop_reason,
        })
    }

    /// The one generational loop: generation 0 from `init` (unless
    /// continuing from the `resume` snapshot), then breed, repair,
    /// evaluate through sessions from `open`, and let `survival` choose,
    /// until the cap or a guard stops the run. `checkpoint` receives a
    /// snapshot every `every` generations the guards pass.
    ///
    /// # Errors
    /// [`GaError::Checkpoint`] for a zero interval or a snapshot that
    /// cannot belong to this run; [`GaError::NonFiniteCost`] when the
    /// objective misbehaves.
    pub(crate) fn evolve<S, V>(
        &self,
        init: InitMode<'_>,
        survival: &mut V,
        open: impl Fn() -> S,
        observer: Option<&mut dyn GenerationObserver>,
        checkpoint: Option<CheckpointHook<'_>>,
        resume: Option<GaCheckpoint>,
    ) -> Result<RunState<S::Fitness>, GaError>
    where
        S: Session,
        V: Survival<Fitness = S::Fitness>,
    {
        if checkpoint.as_ref().is_some_and(|hook| hook.every == 0) {
            return Err(GaError::Checkpoint("checkpoint interval must be >= 1".into()));
        }
        let resume = resume.map(|ckpt| self.resume_state(ckpt, survival)).transpose()?;
        // One evaluation session per worker, kept alive across generations
        // so stateful objectives (delta evaluators) can carry routing state
        // from parents to offspring, and one executor of as many threads
        // for the whole run.
        let sessions = (0..self.workers).map(|_| open()).collect();
        with_pool(sessions, |pool| {
            self.generations(init, resume, survival, pool, observer, checkpoint)
        })
    }

    /// [`evolve`](Self::evolve)'s loop, evaluating on `pool`.
    fn generations<S, V>(
        &self,
        init: InitMode<'_>,
        resume: Option<RunState<S::Fitness>>,
        survival: &mut V,
        pool: &Pool<'_, '_, S>,
        mut observer: Option<&mut dyn GenerationObserver>,
        mut checkpoint: Option<CheckpointHook<'_>>,
    ) -> Result<RunState<S::Fitness>, GaError>
    where
        S: Session,
        V: Survival<Fitness = S::Fitness>,
    {
        // Candidate-link pruning: the sorted pair-index universe link
        // mutation may add from. A pair qualifies when either endpoint is
        // among the other's k nearest (the relation is not symmetric).
        let universe: Option<Vec<usize>> = self.settings.mutation_neighbors.map(|k| {
            let probe = AdjacencyMatrix::empty(self.objective.n());
            let mut pairs: Vec<usize> = self
                .objective
                .k_nearest(k)
                .into_iter()
                .enumerate()
                .flat_map(|(u, vs)| vs.into_iter().map(move |v| (u, v)))
                .map(|(u, v)| probe.pair_index(u, v))
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            pairs
        });

        let mut run = match resume {
            Some(run) => run,
            None => {
                let mut rng = StdRng::seed_from_u64(self.settings.seed);
                let mut repair_stats = RepairStats::default();
                let mut stats = EvalStats::default();
                // Chromosome-keyed fitness memo: the adjacency bitset
                // hashes/compares directly, and fitness is a pure
                // function of it.
                let mut cache = self.settings.fitness_cache.then(HashMap::new);

                // Generation 0. Seeding is one-shot, so it gets its own
                // histogram rather than a per-generation record field.
                let seed_start = cold_obs::timers_enabled().then(Instant::now);
                let mut topologies = match init {
                    InitMode::Cold(seeds) => {
                        initial_population(&self.objective, &self.settings, seeds, &mut rng)
                    }
                    InitMode::Warm(parent) => warm_population(
                        &self.objective,
                        &self.settings,
                        parent,
                        universe.as_deref(),
                        &mut rng,
                    ),
                };
                // Initial ER fill and seeds are already connected (init
                // repairs them), but repair defensively so the invariant
                // is explicit.
                for t in &mut topologies {
                    repair(t, &self.objective, &mut repair_stats);
                }
                if let Some(start) = seed_start {
                    cold_obs::observe_seconds("ga.seed_seconds", start.elapsed().as_secs_f64());
                }
                let fitness = self.evaluate_all(&topologies, pool, cache.as_mut(), &mut stats)?;
                let population = survival.survive(Vec::new(), topologies, fitness);
                RunState {
                    rng,
                    history: vec![survival.progress(&population)],
                    population,
                    generations_run: 0,
                    stats,
                    repair_stats,
                    cache,
                    stop_reason: StopReason::Completed,
                }
            }
        };

        // Stall counter: consecutive trailing generations without strict
        // progress. The series is monotone nonincreasing, so the counter
        // is recomputable from `history` alone — a resumed run restores
        // it without any checkpoint schema change.
        let mut stall_count = run.history.windows(2).rev().take_while(|w| w[1] >= w[0]).count();

        // Telemetry deltas: counter states at the end of the previous
        // generation, so each record reports per-generation activity.
        let mut prev_stats = run.stats;
        let mut prev_repaired = run.repair_stats.repaired;
        while run.generations_run < self.settings.generations {
            run.generations_run += 1;
            // Phase attribution (selection/crossover/mutation vs repair)
            // feeds the per-generation record and the `ga.*` histograms;
            // timing stays off unless someone is listening so the
            // disabled path keeps its <2% overhead bar.
            let timed = observer.is_some() || cold_obs::timers_enabled();
            let breed_start = timed.then(Instant::now);
            // Offspring topologies (children built single-threaded from one
            // RNG stream for determinism; evaluation is the parallel part).
            let population = &run.population;
            let rng = &mut run.rng;
            let mut children: Vec<AdjacencyMatrix> =
                Vec::with_capacity(self.settings.num_crossover + self.settings.num_mutation);
            for _ in 0..self.settings.num_crossover {
                let parents = select_parents(population, &self.settings, rng);
                children.push(crossover_child(
                    population,
                    &parents,
                    self.settings.uniform_crossover_weights,
                    rng,
                ));
            }
            let weights = inverse_cost_weights(population);
            for _ in 0..self.settings.num_mutation {
                let src = weighted_pick(&weights, rng.gen_range(0.0..1.0));
                let mut child = population[src].topology.clone();
                mutate(&mut child, &self.objective, &self.settings, universe.as_deref(), rng);
                children.push(child);
            }
            let breed_seconds = breed_start.map_or(0.0, |s| s.elapsed().as_secs_f64());
            let repair_start = timed.then(Instant::now);
            for c in &mut children {
                repair(c, &self.objective, &mut run.repair_stats);
            }
            let repair_seconds = repair_start.map_or(0.0, |s| s.elapsed().as_secs_f64());
            cold_obs::observe_seconds("ga.breed_seconds", breed_seconds);
            cold_obs::observe_seconds("ga.repair_seconds", repair_seconds);
            let fitness = self.evaluate_all(&children, pool, run.cache.as_mut(), &mut run.stats)?;

            run.population =
                survival.survive(std::mem::take(&mut run.population), children, fitness);
            run.history.push(survival.progress(&run.population));

            if let Some(obs) = observer.as_deref_mut() {
                obs.on_generation(&generation_record(
                    &run,
                    survival,
                    &prev_stats,
                    prev_repaired,
                    &self.settings,
                    breed_seconds,
                    repair_seconds,
                ));
                prev_stats = run.stats;
                prev_repaired = run.repair_stats.repaired;
            }

            let history = &run.history;
            if let Some(es) = self.settings.early_stop {
                if history.len() > es.window {
                    let then = history[history.len() - 1 - es.window];
                    let now = *history.last().expect("nonempty");
                    if then - now <= es.rel_tol * then.abs() {
                        run.stop_reason = StopReason::EarlyStopped;
                        break;
                    }
                }
            }

            let improved = history[history.len() - 1] < history[history.len() - 2];
            stall_count = if improved { 0 } else { stall_count + 1 };
            if let Some(k) = self.settings.stall_gens {
                if stall_count >= k {
                    run.stop_reason = StopReason::Stalled;
                    break;
                }
            }

            // Snapshot *after* a generation is fully committed (and not
            // when a guard just ended the run — there is nothing left to
            // resume). The RNG state is captured post-generation, so a
            // resumed stream continues exactly where this one is.
            if let Some(hook) = checkpoint.as_mut().filter(|hook| {
                run.generations_run.is_multiple_of(hook.every)
                    && run.generations_run < self.settings.generations
            }) {
                let snapshot = self.snapshot(&run, survival);
                let _sink_timer = cold_obs::timer("ga.checkpoint_sink");
                (hook.sink)(snapshot);
            }
        }
        Ok(run)
    }

    /// The snapshot of a committed generation: the loop state, plus what
    /// `survival` keeps.
    fn snapshot<V: Survival>(&self, run: &RunState<V::Fitness>, survival: &V) -> GaCheckpoint {
        let mut snapshot = GaCheckpoint {
            settings: self.settings,
            generation: run.generations_run,
            rng_state: run.rng.state(),
            population: run.population.clone(),
            history: run.history.clone(),
            eval_stats: run.stats,
            repair_stats: run.repair_stats,
            cache: None,
            pareto: None,
        };
        survival.save(run.cache.as_ref(), &mut snapshot);
        snapshot
    }

    /// The loop state a resume snapshot restores, restoring `survival`'s
    /// own. Rejects a snapshot that cannot possibly belong to this engine:
    /// continuing under different settings, a different node count or
    /// another survival strategy would silently change what the run means.
    fn resume_state<V: Survival>(
        &self,
        mut ckpt: GaCheckpoint,
        survival: &mut V,
    ) -> Result<RunState<V::Fitness>, GaError> {
        if ckpt.settings != self.settings {
            return Err(GaError::Checkpoint(
                "snapshot settings differ from engine settings".into(),
            ));
        }
        if ckpt.generation > self.settings.generations {
            return Err(GaError::Checkpoint(format!(
                "snapshot is {} generations in, past the configured {}",
                ckpt.generation, self.settings.generations
            )));
        }
        let n = self.objective.n();
        for ind in &ckpt.population {
            if ind.topology.n() != n {
                return Err(GaError::Checkpoint(format!(
                    "snapshot population has {}-node topologies, objective expects {n}",
                    ind.topology.n()
                )));
            }
            if !ind.cost.is_finite() {
                return Err(GaError::Checkpoint(format!(
                    "snapshot population carries non-finite cost {}",
                    ind.cost
                )));
            }
        }
        let cache = survival.restore(&mut ckpt).map_err(GaError::Checkpoint)?;
        Ok(RunState {
            rng: StdRng::from_state(ckpt.rng_state),
            population: ckpt.population,
            history: ckpt.history,
            generations_run: ckpt.generation,
            stats: ckpt.eval_stats,
            repair_stats: ckpt.repair_stats,
            cache: self
                .settings
                .fitness_cache
                .then(|| cache.unwrap_or_default().into_iter().collect()),
            stop_reason: StopReason::Completed,
        })
    }

    /// Evaluates a batch of topologies, consulting and filling the fitness
    /// memo `cache` when one is supplied.
    ///
    /// The cache phase is serial in both serial and parallel modes, so the
    /// hit/miss counters — and, fitness being pure, every returned value —
    /// are independent of `settings.parallel`. Within-batch duplicates
    /// resolve to one evaluation even on the very first batch.
    fn evaluate_all<S: Session>(
        &self,
        topologies: &[AdjacencyMatrix],
        pool: &Pool<'_, '_, S>,
        cache: Option<&mut HashMap<AdjacencyMatrix, S::Fitness>>,
        stats: &mut EvalStats,
    ) -> Result<Vec<S::Fitness>, GaError> {
        stats.requested += topologies.len();
        let result = (|| {
            let Some(cache) = cache else {
                stats.cache_misses += topologies.len();
                let all: Vec<&AdjacencyMatrix> = topologies.iter().collect();
                return self.evaluate_batch(&all, pool, stats);
            };
            // Resolve each request to Ok(cached fitness) or Err(index into
            // the unique pending list).
            let mut pending: Vec<&AdjacencyMatrix> = Vec::new();
            let mut first_seen: HashMap<&AdjacencyMatrix, usize> = HashMap::new();
            let resolved: Vec<Result<S::Fitness, usize>> = topologies
                .iter()
                .map(|t| {
                    if let Some(f) = cache.get(t) {
                        stats.cache_hits += 1;
                        Ok(f.clone())
                    } else if let Some(&k) = first_seen.get(t) {
                        stats.cache_hits += 1;
                        Err(k)
                    } else {
                        stats.cache_misses += 1;
                        first_seen.insert(t, pending.len());
                        pending.push(t);
                        Err(pending.len() - 1)
                    }
                })
                .collect();
            let fresh = self.evaluate_batch(&pending, pool, stats)?;
            for (t, f) in pending.iter().zip(&fresh) {
                cache.insert((*t).clone(), f.clone());
            }
            Ok(resolved
                .into_iter()
                .map(|r| match r {
                    Ok(f) => f,
                    Err(k) => fresh[k].clone(),
                })
                .collect())
        })();
        // Session counters are cumulative; publish the current totals so
        // checkpoints and per-generation records see a consistent split.
        let counts: Vec<_> = pool.sessions.iter().map(|s| lock(s).counts()).collect();
        stats.delta_evals = counts.iter().map(|c| c.0).sum();
        stats.full_evals = counts.iter().map(|c| c.1).sum();
        stats.arcs_scanned = counts.iter().map(|c| c.2).sum();
        result
    }

    /// Runs the objective over `batch` on `pool`, adding the elapsed
    /// wall-clock time to `stats.eval_seconds`.
    ///
    /// A batch of four or more on several sessions is cut into chunks of
    /// `ceil(len / min(sessions, len))`, and chunk k is always evaluated
    /// by session k, on whichever executor thread is free. So each
    /// session sees the same candidates in the same order on every run,
    /// and its delta/full split repeats with it.
    ///
    /// Every fitness is checked here — the single boundary all
    /// evaluations pass through: it must have the engine's width, and a
    /// NaN/∞ component from a misbehaving objective is caught in release
    /// builds too (a NaN cost would otherwise win every selection
    /// tournament via the `EPSILON` clamp in `inverse_cost_weights`).
    fn evaluate_batch<S: Session>(
        &self,
        batch: &[&AdjacencyMatrix],
        pool: &Pool<'_, '_, S>,
        stats: &mut EvalStats,
    ) -> Result<Vec<S::Fitness>, GaError> {
        let _batch_timer = cold_obs::timer("ga.evaluate_batch");
        let start = Instant::now();
        let sessions = pool.sessions;
        let fitness: Vec<S::Fitness> = if batch.len() < 4 || sessions.len() == 1 {
            let session = &mut *lock(&sessions[0]);
            batch.iter().map(|t| session.evaluate(t)).collect()
        } else {
            let chunk = batch.len().div_ceil(sessions.len().min(batch.len()));
            // The executor's threads outlive this batch, so they get it
            // by value.
            let owned: Arc<[AdjacencyMatrix]> = batch.iter().map(|&t| t.clone()).collect();
            let chunks = owned.len().div_ceil(chunk);
            let evaluated = pool.exec.map(chunks, move |_, k| {
                let session = &mut *lock(&sessions[k]);
                owned[k * chunk..]
                    .iter()
                    .take(chunk)
                    .map(|t| session.evaluate(t))
                    .collect::<Vec<_>>()
            });
            evaluated.into_iter().flatten().collect()
        };
        stats.eval_seconds += start.elapsed().as_secs_f64();
        for (batch_index, f) in fitness.iter().enumerate() {
            let components = S::components(f);
            if components.len() != self.width {
                return Err(GaError::InvalidSettings(format!(
                    "objective returned {} components, declared {}",
                    components.len(),
                    self.width
                )));
            }
            if let Some(&bad) = components.iter().find(|c| !c.is_finite()) {
                return Err(GaError::NonFiniteCost {
                    batch_index,
                    cost: bad,
                    edges: batch[batch_index].edge_count(),
                });
            }
        }
        Ok(fitness)
    }
}

/// The run's evaluation sessions and the executor their batches run on.
struct Pool<'a, 'env, S> {
    exec: &'a Executor<'env>,
    sessions: &'env [Mutex<S>],
}

/// Runs `f` with `sessions` on an executor of one thread per session.
fn with_pool<S: Session, T>(sessions: Vec<S>, f: impl FnOnce(&Pool<'_, '_, S>) -> T) -> T {
    let sessions: Vec<Mutex<S>> = sessions.into_iter().map(Mutex::new).collect();
    with_executor(sessions.len(), |exec| f(&Pool { exec, sessions: &sessions }))
}

/// Session `s`, which only an earlier panic of its own can have poisoned;
/// that panic ends the run.
fn lock<S>(s: &Mutex<S>) -> MutexGuard<'_, S> {
    s.lock().expect("a session is never used after its evaluation panicked")
}

/// Builds the telemetry record for a just-selected generation. Read-only
/// over the population, the strategy and counter snapshots; only called
/// when an observer is attached, so untraced runs skip the diversity scan
/// entirely.
fn generation_record<V: Survival>(
    run: &RunState<V::Fitness>,
    survival: &V,
    prev_stats: &EvalStats,
    prev_repaired: usize,
    settings: &GaSettings,
    breed_seconds: f64,
    repair_seconds: f64,
) -> GenerationRecord {
    let costs = survival.record_costs(&run.population);
    let distinct: HashSet<&AdjacencyMatrix> = run.population.iter().map(|i| &i.topology).collect();
    let stats = &run.stats;
    GenerationRecord {
        generation: run.generations_run,
        best: costs.iter().copied().fold(f64::INFINITY, f64::min),
        mean: costs.iter().copied().sum::<f64>() / costs.len() as f64,
        worst: costs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        diversity: distinct.len() as f64 / run.population.len() as f64,
        cache_hits: stats.cache_hits - prev_stats.cache_hits,
        cache_misses: stats.cache_misses - prev_stats.cache_misses,
        delta_evals: stats.delta_evals - prev_stats.delta_evals,
        full_evals: stats.full_evals - prev_stats.full_evals,
        crossover: settings.num_crossover,
        mutation: settings.num_mutation,
        repairs: run.repair_stats.repaired - prev_repaired,
        eval_seconds: stats.eval_seconds - prev_stats.eval_seconds,
        breed_seconds,
        repair_seconds,
        hypervolume: survival.hypervolume(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::EarlyStop;
    use crate::test_objective::{AnchoredLine, LineObjective};
    use cold_graph::components::matrix_is_connected;

    fn engine(n: usize, k0: f64, k1: f64, k3: f64, seed: u64) -> GeneticAlgorithm<LineObjective> {
        GeneticAlgorithm::new(LineObjective { n, k0, k1, k3 }, GaSettings::quick(seed))
    }

    #[test]
    fn history_is_monotone_nonincreasing() {
        let r = engine(10, 5.0, 1.0, 2.0, 1).run();
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "best cost regressed: {:?}", w);
        }
        assert_eq!(r.generations_run, GaSettings::quick(1).generations);
    }

    #[test]
    fn best_is_connected_and_first_in_population() {
        let r = engine(9, 3.0, 1.0, 0.0, 2).run();
        assert!(matrix_is_connected(&r.best.topology));
        assert_eq!(r.final_population[0].cost, r.best.cost);
        for ind in &r.final_population {
            assert!(matrix_is_connected(&ind.topology));
        }
    }

    #[test]
    fn k1_dominant_finds_mst() {
        // With only length costs, the optimum is the line-path MST with
        // total length n−1 and k0 per edge.
        let n = 8;
        let r = engine(n, 1.0, 100.0, 0.0, 3).run();
        let mst_cost = (n - 1) as f64 * (1.0 + 100.0);
        assert!((r.best.cost - mst_cost).abs() < 1e-9, "best {} vs MST {}", r.best.cost, mst_cost);
    }

    #[test]
    fn k3_dominant_tends_toward_hub_and_spoke() {
        // Huge hub cost ⇒ the optimum has exactly one core node. §5 shows
        // the *plain* GA struggles at large k3 (Fig 3 right) — that is the
        // motivation for the initialized GA — so for the plain quick GA we
        // only require clear progress toward a hubby topology…
        let r = engine(8, 0.1, 0.1, 1000.0, 4).run();
        let hubs = r.best.topology.degrees().iter().filter(|&&d| d > 1).count();
        assert!(hubs <= 3, "plain GA should get close, got {hubs} hubs");
        // …while the GA seeded with a star (as the initialized GA would be)
        // must find the single-hub optimum.
        let obj = LineObjective { n: 8, k0: 0.1, k1: 0.1, k3: 1000.0 };
        let star =
            AdjacencyMatrix::from_edges(8, &(1..8).map(|v| (0, v)).collect::<Vec<_>>()).unwrap();
        let seeded = GeneticAlgorithm::new(obj, GaSettings::quick(4)).run_seeded(&[star]);
        let hubs = seeded.best.topology.degrees().iter().filter(|&&d| d > 1).count();
        assert_eq!(hubs, 1, "initialized GA must reach the single-hub optimum");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = engine(8, 5.0, 1.0, 2.0, 7).run();
        let b = engine(8, 5.0, 1.0, 2.0, 7).run();
        assert_eq!(a.best.cost, b.best.cost);
        assert_eq!(a.best.topology, b.best.topology);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let mut s = GaSettings::quick(8);
        s.parallel = false;
        let serial =
            GeneticAlgorithm::new(LineObjective { n: 8, k0: 5.0, k1: 1.0, k3: 2.0 }, s).run();
        let parallel = engine(8, 5.0, 1.0, 2.0, 8).run();
        assert_eq!(serial.best.topology, parallel.best.topology);
        assert_eq!(serial.history, parallel.history);
    }

    #[test]
    fn seeding_guarantees_at_least_seed_quality() {
        // Seed with the known optimum for k1-dominant costs (the path) and
        // verify the GA never does worse.
        let obj = LineObjective { n: 8, k0: 1.0, k1: 50.0, k3: 0.0 };
        let path = AdjacencyMatrix::from_edges(8, &(0..7).map(|i| (i, i + 1)).collect::<Vec<_>>())
            .unwrap();
        let seed_cost = obj.cost(&path);
        let ga = GeneticAlgorithm::new(obj, GaSettings::quick(9));
        let r = ga.run_seeded(&[path]);
        assert!(r.best.cost <= seed_cost + 1e-12);
    }

    #[test]
    fn early_stop_shortens_run() {
        let mut s = GaSettings::quick(10);
        s.early_stop = Some(EarlyStop { window: 3, rel_tol: 0.0 });
        let r = GeneticAlgorithm::new(LineObjective { n: 6, k0: 1.0, k1: 10.0, k3: 0.0 }, s).run();
        assert!(r.generations_run <= GaSettings::quick(10).generations);
        // The small instance converges almost immediately, so the stop rule
        // must fire well before the cap.
        assert!(r.generations_run < 40, "ran {} generations", r.generations_run);
    }

    #[test]
    fn evaluations_are_counted() {
        let s = GaSettings::quick(11);
        let r = GeneticAlgorithm::new(LineObjective { n: 6, k0: 1.0, k1: 1.0, k3: 0.0 }, s).run();
        let expected = s.population + s.generations * (s.num_crossover + s.num_mutation);
        assert_eq!(r.evaluations, expected);
        assert_eq!(r.eval_stats.requested, expected);
        assert_eq!(r.eval_stats.cache_hits + r.eval_stats.cache_misses, expected);
    }

    /// Counts how many times the objective is actually evaluated.
    struct CountingObjective {
        inner: LineObjective,
        calls: AtomicUsize,
    }

    impl CountingObjective {
        fn new(inner: LineObjective) -> Self {
            Self { inner, calls: AtomicUsize::new(0) }
        }
    }

    impl Objective for CountingObjective {
        fn n(&self) -> usize {
            self.inner.n()
        }

        fn distance(&self, u: usize, v: usize) -> f64 {
            self.inner.distance(u, v)
        }

        fn cost(&self, topology: &AdjacencyMatrix) -> f64 {
            self.calls.fetch_add(1, AtomicOrdering::Relaxed);
            self.inner.cost(topology)
        }
    }

    #[test]
    fn duplicates_in_one_batch_evaluated_once() {
        let obj = CountingObjective::new(LineObjective { n: 5, k0: 1.0, k1: 1.0, k3: 0.0 });
        let mut s = GaSettings::quick(1);
        s.parallel = false;
        let ga = GeneticAlgorithm::new(&obj, s);
        let a = AdjacencyMatrix::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let b = AdjacencyMatrix::complete(5);
        let batch = vec![a.clone(), a.clone(), b.clone(), a.clone()];
        let mut cache = Some(std::collections::HashMap::new());
        let mut stats = EvalStats::default();
        with_pool(vec![ga.objective().session()], |pool| {
            let costs = ga.evaluate_all(&batch, pool, cache.as_mut(), &mut stats).unwrap();
            assert_eq!(obj.calls.load(AtomicOrdering::Relaxed), 2, "a and b each routed once");
            assert_eq!(costs[0], costs[1]);
            assert_eq!(costs[1], costs[3]);
            assert_eq!(stats.requested, 4);
            assert_eq!(stats.cache_hits, 2);
            assert_eq!(stats.cache_misses, 2);
            assert_eq!(stats.full_evals, 2, "stateless sessions answer every miss in full");
            assert_eq!(stats.delta_evals, 0);
            // A second identical batch is served entirely from the cache.
            let again = ga.evaluate_all(&batch, pool, cache.as_mut(), &mut stats).unwrap();
            assert_eq!(again, costs);
            assert_eq!(obj.calls.load(AtomicOrdering::Relaxed), 2);
            assert_eq!(stats.cache_hits, 6);
            assert_eq!(stats.cache_misses, 2);
            assert_eq!(stats.full_evals, 2);
        });
    }

    #[test]
    fn cache_misses_equal_actual_objective_calls() {
        let obj = CountingObjective::new(LineObjective { n: 6, k0: 2.0, k1: 1.0, k3: 1.0 });
        let mut s = GaSettings::quick(12);
        s.parallel = false;
        let r = GeneticAlgorithm::new(&obj, s).run();
        assert_eq!(r.eval_stats.cache_misses, obj.calls.load(AtomicOrdering::Relaxed));
        assert!(r.eval_stats.cache_hits > 0, "a converging quick run must produce duplicates");
        assert_eq!(r.eval_stats.cache_hits + r.eval_stats.cache_misses, r.evaluations);
        assert!(r.eval_stats.eval_seconds >= 0.0);
    }

    #[test]
    fn cache_counters_agree_across_parallelism() {
        let mut s = GaSettings::quick(13);
        s.parallel = false;
        let serial =
            GeneticAlgorithm::new(LineObjective { n: 8, k0: 5.0, k1: 1.0, k3: 2.0 }, s).run();
        let parallel = engine(8, 5.0, 1.0, 2.0, 13).run();
        assert_eq!(serial.eval_stats.cache_hits, parallel.eval_stats.cache_hits);
        assert_eq!(serial.eval_stats.cache_misses, parallel.eval_stats.cache_misses);
        assert_eq!(serial.eval_stats.requested, parallel.eval_stats.requested);
    }

    #[test]
    fn cached_run_is_bit_identical_to_uncached() {
        let obj = LineObjective { n: 8, k0: 5.0, k1: 1.0, k3: 2.0 };
        let mut s = GaSettings::quick(14);
        s.fitness_cache = false;
        let uncached = GeneticAlgorithm::new(&obj, s).run();
        assert_eq!(uncached.eval_stats.cache_hits, 0, "cache off must never report hits");
        assert_eq!(uncached.eval_stats.cache_misses, uncached.evaluations);
        let cached = GeneticAlgorithm::new(&obj, GaSettings::quick(14)).run();
        assert_eq!(cached.best.cost, uncached.best.cost);
        assert_eq!(cached.best.topology, uncached.best.topology);
        assert_eq!(cached.history, uncached.history);
        let fp: Vec<_> = cached.final_population.iter().map(|i| i.cost).collect();
        let fu: Vec<_> = uncached.final_population.iter().map(|i| i.cost).collect();
        assert_eq!(fp, fu);
    }

    /// Collects every record handed to the observer.
    #[derive(Default)]
    struct RecordingObserver {
        records: Vec<GenerationRecord>,
    }

    impl GenerationObserver for RecordingObserver {
        fn on_generation(&mut self, record: &GenerationRecord) {
            self.records.push(record.clone());
        }
    }

    #[test]
    fn observer_fires_once_per_generation_with_monotone_best() {
        let ga = engine(8, 5.0, 1.0, 2.0, 21);
        let mut obs = RecordingObserver::default();
        let r = ga.run_traced(&[], Some(&mut obs));
        assert_eq!(
            obs.records.len(),
            r.generations_run,
            "exactly one observer event per executed generation"
        );
        assert_eq!(r.generations_run, ga.settings().generations, "no early stop configured");
        for (k, rec) in obs.records.iter().enumerate() {
            assert_eq!(rec.generation, k + 1, "generations are 1-based and in order");
            // Elitism ⇒ the best of generation g equals history[g].
            assert_eq!(rec.best, r.history[k + 1]);
            assert!(
                rec.best <= rec.mean + 1e-12 && rec.mean <= rec.worst + 1e-12,
                "best ≤ mean ≤ worst must hold ({} / {} / {})",
                rec.best,
                rec.mean,
                rec.worst
            );
            assert!(rec.diversity > 0.0 && rec.diversity <= 1.0);
            assert_eq!(rec.crossover, ga.settings().num_crossover);
            assert_eq!(rec.mutation, ga.settings().num_mutation);
            assert!(rec.eval_seconds >= 0.0);
        }
        for w in obs.records.windows(2) {
            assert!(w[1].best <= w[0].best + 1e-12, "best fitness regressed: {w:?}");
        }
        // Per-generation deltas sum back to the run totals (generation 0's
        // initial-population evaluations are not observer events).
        let hits: usize = obs.records.iter().map(|r| r.cache_hits).sum();
        let misses: usize = obs.records.iter().map(|r| r.cache_misses).sum();
        let gen0 = ga.settings().population;
        assert_eq!(hits + misses + gen0, r.eval_stats.requested);
    }

    #[test]
    fn observer_respects_early_stop() {
        let mut s = GaSettings::quick(22);
        s.early_stop = Some(EarlyStop { window: 3, rel_tol: 0.0 });
        let ga = GeneticAlgorithm::new(LineObjective { n: 6, k0: 1.0, k1: 10.0, k3: 0.0 }, s);
        let mut obs = RecordingObserver::default();
        let r = ga.run_traced(&[], Some(&mut obs));
        assert!(r.generations_run < s.generations, "early stop must fire on this instance");
        assert_eq!(obs.records.len(), r.generations_run);
    }

    #[test]
    fn observed_run_is_bit_identical_to_unobserved() {
        let plain = engine(8, 5.0, 1.0, 2.0, 23).run();
        let mut obs = RecordingObserver::default();
        let traced = engine(8, 5.0, 1.0, 2.0, 23).run_traced(&[], Some(&mut obs));
        assert_eq!(plain.best.cost, traced.best.cost);
        assert_eq!(plain.best.topology, traced.best.topology);
        assert_eq!(plain.history, traced.history);
        // eval_seconds is wall-clock; only the counters are deterministic.
        assert_eq!(plain.eval_stats.requested, traced.eval_stats.requested);
        assert_eq!(plain.eval_stats.cache_hits, traced.eval_stats.cache_hits);
        assert_eq!(plain.eval_stats.cache_misses, traced.eval_stats.cache_misses);
        let fp: Vec<_> = plain.final_population.iter().map(|i| i.cost).collect();
        let ft: Vec<_> = traced.final_population.iter().map(|i| i.cost).collect();
        assert_eq!(fp, ft);
    }

    /// Captures every checkpoint the engine emits.
    fn run_with_checkpoints(
        ga: &GeneticAlgorithm<LineObjective>,
        every: usize,
    ) -> (GaResult, Vec<GaCheckpoint>) {
        let mut snaps = Vec::new();
        let mut sink = |c: GaCheckpoint| snaps.push(c);
        let hook = CheckpointHook { every, sink: &mut sink };
        let r = ga.run_resumable(&[], None, Some(hook), None).unwrap();
        (r, snaps)
    }

    fn assert_results_bit_identical(a: &GaResult, b: &GaResult) {
        assert_eq!(a.best.cost, b.best.cost);
        assert_eq!(a.best.topology, b.best.topology);
        assert_eq!(a.history, b.history);
        assert_eq!(a.generations_run, b.generations_run);
        assert_eq!(a.evaluations, b.evaluations);
        // eval_seconds is wall-clock; every other stat is deterministic.
        assert_eq!(a.eval_stats.requested, b.eval_stats.requested);
        assert_eq!(a.eval_stats.cache_hits, b.eval_stats.cache_hits);
        assert_eq!(a.eval_stats.cache_misses, b.eval_stats.cache_misses);
        assert_eq!(a.repair_stats, b.repair_stats);
        assert_eq!(a.stop_reason, b.stop_reason);
        let fa: Vec<_> = a.final_population.iter().map(|i| (i.topology.clone(), i.cost)).collect();
        let fb: Vec<_> = b.final_population.iter().map(|i| (i.topology.clone(), i.cost)).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn checkpointed_run_is_bit_identical_to_plain() {
        let ga = engine(8, 5.0, 1.0, 2.0, 31);
        let plain = ga.run();
        let (snapped, snaps) = run_with_checkpoints(&ga, 5);
        assert_results_bit_identical(&plain, &snapped);
        let expected = (ga.settings().generations - 1) / 5;
        assert_eq!(snaps.len(), expected, "one snapshot per 5 completed generations");
        for s in &snaps {
            assert_eq!(s.generation + 1, s.history.len());
            assert!(s.cache.is_some(), "quick settings keep the fitness cache on");
        }
    }

    #[test]
    fn resume_from_any_checkpoint_is_bit_identical() {
        let ga = engine(8, 5.0, 1.0, 2.0, 32);
        let uninterrupted = ga.run();
        let (_, snaps) = run_with_checkpoints(&ga, 7);
        assert!(snaps.len() >= 2, "need several snapshots to make this meaningful");
        for snap in snaps {
            // Round-trip through JSON first: resuming from the *serialized*
            // form is what the integration path exercises.
            let restored = GaCheckpoint::from_json(&snap.to_json()).unwrap();
            let resumed = ga.run_resumable(&[], None, None, Some(restored)).unwrap();
            assert_results_bit_identical(&uninterrupted, &resumed);
        }
    }

    /// `snap`'s document with every chromosome in the edge-list form
    /// `{"n", "edges": [[u, v], …]}` snapshots were written in before the
    /// packed form.
    fn edge_list_document(snap: &GaCheckpoint) -> String {
        let edge_list = |t: &AdjacencyMatrix, cost: f64| {
            let edges: Vec<serde_json::Value> =
                t.edges().map(|(u, v)| serde_json::json!([u, v])).collect();
            serde_json::json!({ "topology": { "n": t.n(), "edges": edges }, "cost": cost })
        };
        let mut doc = snap.to_value();
        *doc.get_mut("population").expect("population") = serde_json::Value::Array(
            snap.population.iter().map(|i| edge_list(&i.topology, i.cost)).collect(),
        );
        *doc.get_mut("cache").expect("cache") = serde_json::Value::Array(
            snap.cache.iter().flatten().map(|(t, cost)| edge_list(t, *cost)).collect(),
        );
        serde_json::to_string(&doc).expect("serializes")
    }

    #[test]
    fn edge_list_snapshots_resume_bit_identically() {
        let ga = engine(8, 5.0, 1.0, 2.0, 32);
        let uninterrupted = ga.run();
        let (_, snaps) = run_with_checkpoints(&ga, 7);
        let snap = snaps.last().expect("a mid-run snapshot");
        let text = edge_list_document(snap);
        assert!(text.contains("\"edges\"") && !text.contains("\"bits\""), "{text}");
        let restored = GaCheckpoint::from_json(&text).expect("the edge-list form parses");
        assert_eq!(restored.to_json(), snap.to_json(), "parses to the engine's snapshot");
        let resumed = ga.run_resumable(&[], None, None, Some(restored)).unwrap();
        assert_results_bit_identical(&uninterrupted, &resumed);
    }

    #[test]
    fn resume_rejects_mismatched_settings() {
        let ga = engine(8, 5.0, 1.0, 2.0, 33);
        let (_, snaps) = run_with_checkpoints(&ga, 5);
        let snap = snaps.into_iter().next().unwrap();
        let other = engine(8, 5.0, 1.0, 2.0, 34); // different seed ⇒ different run
        let err = other.run_resumable(&[], None, None, Some(snap.clone())).unwrap_err();
        assert!(matches!(err, GaError::Checkpoint(_)), "got {err:?}");
        // Node-count mismatch is also rejected.
        let small = engine(6, 5.0, 1.0, 2.0, 33);
        let err = small.run_resumable(&[], None, None, Some(snap)).unwrap_err();
        assert!(matches!(err, GaError::Checkpoint(_)), "got {err:?}");
    }

    #[test]
    fn zero_checkpoint_interval_is_rejected() {
        let ga = engine(6, 1.0, 1.0, 0.0, 35);
        let mut sink = |_: GaCheckpoint| {};
        let hook = CheckpointHook { every: 0, sink: &mut sink };
        let err = ga.run_resumable(&[], None, Some(hook), None).unwrap_err();
        assert!(matches!(err, GaError::Checkpoint(_)), "got {err:?}");
    }

    /// An objective that returns NaN for any topology with at least
    /// `poison_at` edges — the misbehaving-cost-model stand-in.
    struct PoisonObjective {
        inner: LineObjective,
        poison_at: usize,
    }

    impl Objective for PoisonObjective {
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn distance(&self, u: usize, v: usize) -> f64 {
            self.inner.distance(u, v)
        }
        fn cost(&self, topology: &AdjacencyMatrix) -> f64 {
            if topology.edge_count() >= self.poison_at {
                f64::NAN
            } else {
                self.inner.cost(topology)
            }
        }
    }

    #[test]
    fn non_finite_cost_is_a_typed_error_not_a_winner() {
        // The initial population always contains the clique, which has the
        // maximum edge count, so poisoning dense topologies trips on
        // generation 0 in every profile (this guards the release-build
        // path where `debug_assert!` is compiled out).
        let obj = PoisonObjective {
            inner: LineObjective { n: 6, k0: 1.0, k1: 1.0, k3: 0.0 },
            poison_at: 10,
        };
        let err = GeneticAlgorithm::new(obj, GaSettings::quick(36))
            .try_run_traced(&[], None)
            .unwrap_err();
        match err {
            GaError::NonFiniteCost { cost, edges, .. } => {
                assert!(cost.is_nan());
                assert!(edges >= 10);
            }
            other => panic!("expected NonFiniteCost, got {other:?}"),
        }
    }

    /// An objective whose every evaluation panics with its own message.
    struct PanickingObjective;

    impl Objective for PanickingObjective {
        fn n(&self) -> usize {
            6
        }
        fn distance(&self, _: usize, _: usize) -> f64 {
            1.0
        }
        fn cost(&self, t: &AdjacencyMatrix) -> f64 {
            panic!("the objective gave up on {} edges", t.edge_count())
        }
    }

    #[test]
    fn a_parallel_batch_panic_keeps_the_objectives_message() {
        let settings = GaSettings { parallel: true, ..GaSettings::quick(41) };
        let ga = GeneticAlgorithm::new(PanickingObjective, settings);
        let complete = AdjacencyMatrix::complete(6);
        let batch = vec![&complete; 4];
        let sessions = vec![ga.objective.session(), ga.objective.session()];
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_pool(sessions, |pool| ga.evaluate_batch(&batch, pool, &mut EvalStats::default()))
        }))
        .expect_err("the batch panics");
        let message = payload.downcast_ref::<String>().expect("a formatted panic message");
        assert_eq!(message, "the objective gave up on 15 edges");
    }

    /// A flat objective: nothing ever strictly improves, so the stall
    /// guard must fire after exactly `stall_gens` generations.
    struct FlatObjective {
        n: usize,
    }

    impl Objective for FlatObjective {
        fn n(&self) -> usize {
            self.n
        }
        fn distance(&self, _: usize, _: usize) -> f64 {
            1.0
        }
        fn cost(&self, _: &AdjacencyMatrix) -> f64 {
            42.0
        }
    }

    #[test]
    fn stop_reason_reflects_how_the_run_ended() {
        let full = engine(6, 1.0, 1.0, 0.0, 40).run();
        assert_eq!(full.stop_reason, StopReason::Completed);

        let mut s = GaSettings::quick(40);
        s.early_stop = Some(EarlyStop { window: 3, rel_tol: 0.0 });
        let early =
            GeneticAlgorithm::new(LineObjective { n: 6, k0: 1.0, k1: 10.0, k3: 0.0 }, s).run();
        assert_eq!(early.stop_reason, StopReason::EarlyStopped);
    }

    #[test]
    fn stall_guard_terminates_flat_runs() {
        let mut s = GaSettings::quick(41);
        s.stall_gens = Some(4);
        let r = GeneticAlgorithm::new(FlatObjective { n: 6 }, s).run();
        assert_eq!(r.stop_reason, StopReason::Stalled);
        assert_eq!(r.generations_run, 4, "flat objective stalls after exactly stall_gens");
        assert_eq!(r.history.len(), 5);
    }

    #[test]
    fn stall_counter_survives_resume_bit_identically() {
        // The stall counter is recomputed from `history` on resume, so a
        // resumed stalled run must end at the same generation with the
        // same stop reason as an uninterrupted one.
        let mut s = GaSettings::quick(42);
        s.stall_gens = Some(6);
        let ga = GeneticAlgorithm::new(FlatObjective { n: 6 }, s);
        let uninterrupted = ga.run_resumable(&[], None, None, None).unwrap();
        assert_eq!(uninterrupted.stop_reason, StopReason::Stalled);
        let mut snaps = Vec::new();
        let mut sink = |c: GaCheckpoint| snaps.push(c);
        let hook = CheckpointHook { every: 2, sink: &mut sink };
        ga.run_resumable(&[], None, Some(hook), None).unwrap();
        assert!(snaps.len() >= 2, "expected snapshots at generations 2 and 4");
        for snap in snaps {
            let restored = GaCheckpoint::from_json(&snap.to_json()).unwrap();
            let resumed = ga.run_resumable(&[], None, None, Some(restored)).unwrap();
            assert_results_bit_identical(&uninterrupted, &resumed);
        }
    }

    #[test]
    fn warm_run_is_deterministic_and_never_worse_than_parent() {
        let obj = LineObjective { n: 8, k0: 5.0, k1: 1.0, k3: 2.0 };
        let parent =
            AdjacencyMatrix::from_edges(8, &(0..7).map(|i| (i, i + 1)).collect::<Vec<_>>())
                .unwrap();
        let parent_cost = obj.cost(&parent);
        let ga = GeneticAlgorithm::new(&obj, GaSettings::quick(51));
        let a = ga.run_warm(&parent, None, None, None).unwrap();
        let b = ga.run_warm(&parent, None, None, None).unwrap();
        assert_eq!(a.best.topology, b.best.topology);
        assert_eq!(a.history, b.history);
        assert!(a.best.cost <= parent_cost + 1e-12, "elitism keeps the parent's quality");
        // The warm stream is distinct from the cold one with the same seed.
        let cold = ga.run();
        assert_ne!(a.history, cold.history, "warm init must change the run");
    }

    #[test]
    fn warm_run_rejects_a_mismatched_parent() {
        let ga = engine(8, 5.0, 1.0, 2.0, 52);
        let parent = AdjacencyMatrix::empty(5);
        let err = ga.run_warm(&parent, None, None, None).unwrap_err();
        assert!(matches!(err, GaError::InvalidSettings(_)), "got {err:?}");
    }

    #[test]
    fn warm_checkpoint_resume_is_bit_identical() {
        let obj = LineObjective { n: 8, k0: 5.0, k1: 1.0, k3: 2.0 };
        let parent =
            AdjacencyMatrix::from_edges(8, &(0..7).map(|i| (i, i + 1)).collect::<Vec<_>>())
                .unwrap();
        let ga = GeneticAlgorithm::new(&obj, GaSettings::quick(53));
        let uninterrupted = ga.run_warm(&parent, None, None, None).unwrap();
        let mut snaps = Vec::new();
        let mut sink = |c: GaCheckpoint| snaps.push(c);
        let hook = CheckpointHook { every: 7, sink: &mut sink };
        ga.run_warm(&parent, None, Some(hook), None).unwrap();
        assert!(!snaps.is_empty());
        for snap in snaps {
            let restored = GaCheckpoint::from_json(&snap.to_json()).unwrap();
            let resumed = ga.run_warm(&parent, None, None, Some(restored)).unwrap();
            assert_results_bit_identical(&uninterrupted, &resumed);
        }
    }

    #[test]
    fn stop_reason_wire_names_round_trip() {
        for r in [StopReason::Completed, StopReason::EarlyStopped, StopReason::Stalled] {
            assert_eq!(StopReason::parse(r.as_str()), Some(r));
        }
        assert_eq!(StopReason::parse("wedged"), None);
    }

    #[test]
    fn checkpoint_save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("cold-ga-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let ga = engine(8, 5.0, 1.0, 2.0, 43);
        let (_, snaps) = run_with_checkpoints(&ga, 10);
        let snap = snaps.into_iter().next().unwrap();
        snap.save(&path).unwrap();
        let back = GaCheckpoint::load(&path).unwrap();
        // Cache entry order is HashMap-dependent in the live snapshot;
        // the serialized form is the canonical (sorted) one.
        assert_eq!(back.to_json(), snap.to_json());
        // Corrupt documents surface as typed errors that name the path.
        std::fs::write(&path, &snap.to_json()[..40]).unwrap();
        let err = GaCheckpoint::load(&path).unwrap_err();
        match err {
            GaError::Checkpoint(msg) => {
                assert!(msg.contains("snap.json"), "error must name the path: {msg}");
            }
            other => panic!("expected Checkpoint, got {other:?}"),
        }
        let missing = GaCheckpoint::load(&dir.join("absent.json")).unwrap_err();
        assert!(matches!(missing, GaError::Checkpoint(m) if m.contains("absent.json")));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What the bit pins below compare: the `history` bits, then
    /// `[evaluations, cache hits, cache misses, generations_run]`, then
    /// the stop reason.
    fn pinned(r: &GaResult) -> (Vec<u64>, [usize; 4], StopReason) {
        let history = r.history.iter().map(|c| c.to_bits()).collect();
        let counts =
            [r.evaluations, r.eval_stats.cache_hits, r.eval_stats.cache_misses, r.generations_run];
        (history, counts, r.stop_reason)
    }

    /// An instance whose costs are not integers, so history bits carry
    /// real information.
    fn pin_objective() -> LineObjective {
        LineObjective { n: 12, k0: 1.9, k1: 0.6, k3: 9.7 }
    }

    #[test]
    fn cold_parallel_cached_run_is_pinned_to_the_bit() {
        const HISTORY: [u64; 41] = [
            0x405ec00000000000,
            0x405e666666666666,
            0x405bc66666666666,
            0x405a200000000000,
            0x4058cccccccccccd,
            0x4058cccccccccccd,
            0x4058cccccccccccd,
            0x405879999999999a,
            0x405879999999999a,
            0x405879999999999a,
            0x405879999999999a,
            0x4058733333333333,
            0x4058733333333333,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4057266666666666,
            0x4056d33333333334,
            0x4056d33333333334,
            0x4056d33333333334,
            0x4056d33333333334,
            0x4056d33333333334,
            0x4056d33333333334,
        ];
        let mut s = GaSettings::quick(61);
        s.parallel = true;
        s.fitness_cache = true;
        let r = GeneticAlgorithm::new(LineObjective { n: 12, k0: 2.7, k1: 1.3, k3: 7.9 }, s).run();
        assert_eq!(pinned(&r), (HISTORY.to_vec(), [1320, 878, 442, 40], StopReason::Completed));
    }

    #[test]
    fn parallel_eval_stats_are_pinned_and_repeat() {
        let run = |workers| {
            let mut s = GaSettings::quick(29);
            s.parallel = true;
            s.fitness_cache = true;
            let mut ga = GeneticAlgorithm::new(AnchoredLine(pin_objective()), s);
            ga.workers = workers;
            EvalStats { eval_seconds: 0.0, ..ga.run().eval_stats }
        };
        // The engine that spawned threads per batch gave these on a
        // two-core host: chunk k of a batch still goes to session k.
        let two = run(2);
        let pinned = EvalStats {
            requested: 1320,
            cache_hits: 881,
            cache_misses: 439,
            eval_seconds: 0.0,
            delta_evals: 53,
            full_evals: 386,
            arcs_scanned: 11392,
        };
        assert_eq!(two, pinned);
        assert_eq!(run(2), two);
        assert_eq!(run(3), run(3));
        assert_ne!(run(1), two, "the split shows which session saw which candidate");
    }

    #[test]
    fn batches_smaller_than_the_session_count_go_to_the_first_sessions() {
        let ga = engine(9, 1.0, 1.0, 1.0, 3);
        let t = AdjacencyMatrix::complete(9);
        let expected = ga.objective().cost(&t);
        for len in 0..=6 {
            let batch = vec![&t; len];
            let sessions = (0..8).map(|_| ga.objective().session()).collect();
            with_pool(sessions, |pool| {
                let costs = ga.evaluate_batch(&batch, pool, &mut EvalStats::default()).unwrap();
                assert_eq!(costs, vec![expected; len]);
                let per_session: Vec<usize> =
                    pool.sessions.iter().map(|s| lock(s).counts().1).collect();
                // Below four candidates one session takes them all; from
                // four on, min(8, len) chunks of one go to sessions 0..len.
                let busy = if len < 4 { len.min(1) } else { len };
                let each = if len < 4 { len } else { 1 };
                let want: Vec<usize> = (0..8).map(|k| if k < busy { each } else { 0 }).collect();
                assert_eq!(per_session, want, "a batch of {len}");
            });
        }
    }

    #[test]
    fn warm_run_is_pinned_to_the_bit() {
        const HISTORY: [u64; 41] = [
            0x40534ccccccccccc,
            0x4053200000000000,
            0x4052533333333332,
            0x4052533333333332,
            0x4051f99999999999,
            0x4051b33333333332,
            0x4051b33333333332,
            0x4051000000000000,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
            0x404f266666666665,
        ];
        let obj = LineObjective { n: 11, k0: 3.1, k1: 0.7, k3: 5.3 };
        let parent =
            AdjacencyMatrix::from_edges(11, &(0..10).map(|i| (i, i + 1)).collect::<Vec<_>>())
                .unwrap();
        let r = GeneticAlgorithm::new(&obj, GaSettings::quick(62))
            .run_warm(&parent, None, None, None)
            .unwrap();
        assert_eq!(pinned(&r), (HISTORY.to_vec(), [1320, 982, 338, 40], StopReason::Completed));
    }

    #[test]
    fn stalled_run_is_pinned_to_the_bit() {
        const HISTORY: [u64; 12] = [
            0x405f200000000000,
            0x405b2ccccccccccc,
            0x405a466666666666,
            0x4057600000000000,
            0x405739999999999a,
            0x4054cccccccccccd,
            0x4054cccccccccccd,
            0x4054cccccccccccd,
            0x405459999999999a,
            0x405459999999999a,
            0x405459999999999a,
            0x405459999999999a,
        ];
        let mut s = GaSettings::quick(63);
        s.stall_gens = Some(3);
        let r = GeneticAlgorithm::new(pin_objective(), s).run();
        assert_eq!(pinned(&r), (HISTORY.to_vec(), [392, 164, 228, 11], StopReason::Stalled));
    }

    #[test]
    fn early_stopped_run_is_pinned_to_the_bit() {
        const HISTORY: [u64; 20] = [
            0x405f200000000000,
            0x405b4ccccccccccd,
            0x4059333333333333,
            0x4055666666666666,
            0x4055666666666666,
            0x4055666666666666,
            0x4054cccccccccccd,
            0x405459999999999a,
            0x405459999999999a,
            0x405459999999999a,
            0x405459999999999a,
            0x4054333333333334,
            0x4054333333333334,
            0x4054333333333334,
            0x4054333333333334,
            0x4053e66666666666,
            0x4053e66666666666,
            0x4053e66666666666,
            0x4053e66666666666,
            0x4053e66666666666,
        ];
        let mut s = GaSettings::quick(64);
        s.early_stop = Some(EarlyStop { window: 4, rel_tol: 1e-3 });
        let r = GeneticAlgorithm::new(pin_objective(), s).run();
        assert_eq!(pinned(&r), (HISTORY.to_vec(), [648, 310, 338, 19], StopReason::EarlyStopped));
    }

    use crate::Objective;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
}
