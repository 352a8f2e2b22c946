//! Multi-objective Pareto synthesis — NSGA-II over COLD chromosomes.
//!
//! The paper collapses operator intent into the single linear cost of
//! eq. (2), but §3.3 chose a GA precisely because it is *flexible* and
//! *non-exclusive*: small changes accommodate new objectives, and one run
//! yields a whole population of good topologies. This module takes both
//! properties to their conclusion: instead of scalarizing, it optimizes a
//! fixed-length **objective vector** ([`MultiObjective`]) with the
//! NSGA-II machinery — fast non-dominated sorting, crowding-distance
//! selection, and (μ+λ) environmental selection — and returns an
//! approximation of the Pareto front rather than a single winner.
//!
//! NSGA-II is a survival strategy of the one generational loop in
//! [`engine`](crate::engine): breeding is exactly the paper's
//! ([`crossover_child`](crate::crossover::crossover_child),
//! [`mutate`](crate::mutation::mutate), MST
//! [`repair`](crate::repair::repair)); only *selection pressure* changes.
//! Parent selection reuses the scalar tournament/inverse-cost machinery
//! through a
//! **crowded-comparison pseudo-cost**: `2·rank + 1/(1 + crowding)`, which
//! orders individuals exactly as NSGA-II's crowded-comparison operator
//! (lower rank first, larger crowding first within a rank) while staying
//! finite, so [`Individual`] and the existing tournament code apply
//! unchanged.
//!
//! A bounded [`ParetoArchive`] carries the best non-dominated points
//! across generations. When full, it evicts the member of
//! `archive ∪ {newcomer}` with the **smallest exclusive hypervolume
//! contribution** — the greedy hypervolume archiver, whose archive
//! hypervolume is provably monotone non-decreasing: dropping the global
//! minimum contributor `z` from `S = A ∪ {x}` leaves
//! `HV(S) − contrib(z) ≥ HV(S) − contrib(x) = HV(A)`. CI asserts this
//! monotonicity on every `--pareto` journal.
//!
//! Everything is bit-deterministic for a fixed seed: one RNG stream
//! breeds, evaluation is order-independent, and every sort in the
//! dominance/crowding/archive path carries an explicit total tiebreak.

use crate::checkpoint::{GaCheckpoint, ParetoState};
use crate::chromosome::{cmp_by_cost, Individual};
use crate::engine::{
    CacheEntries, CheckpointHook, EvalStats, GeneticAlgorithm, InitMode, Session, StopReason,
    Survival,
};
use crate::error::GaError;
use crate::repair::RepairStats;
use crate::settings::GaSettings;
use crate::{Objective, StatelessSession};
use cold_graph::AdjacencyMatrix;
use cold_obs::GenerationObserver;
use std::collections::HashMap;

/// The vector-valued fitness interface the Pareto engine minimizes.
///
/// All components are minimized, must be finite, non-negative and
/// deterministic, and every call must return exactly
/// [`num_objectives`](Self::num_objectives) values. Implementations must
/// be [`Sync`]: populations are evaluated in parallel.
pub trait MultiObjective: Sync {
    /// Number of nodes of every candidate topology.
    fn n(&self) -> usize;

    /// Length `K` of the objective vector (≥ 2, fixed for the lifetime of
    /// the objective).
    fn num_objectives(&self) -> usize;

    /// Physical distance between two nodes (drives connectivity repair
    /// and node mutation, exactly as [`Objective::distance`]).
    fn distance(&self, u: usize, v: usize) -> f64;

    /// Objective vector of a **connected** topology. The engine repairs
    /// candidates before calling this. Component 0 should be the paper's
    /// build cost so generation telemetry (`best`/`mean`/`worst`) stays
    /// comparable with scalar runs.
    fn objectives(&self, topology: &AdjacencyMatrix) -> Vec<f64>;

    /// Opens a per-worker evaluation session (the vector analogue of
    /// [`Objective::session`]). Stateful implementations may reuse
    /// routing state between offspring; results must
    /// be bit-identical to [`objectives`](Self::objectives).
    fn session(&self) -> Box<dyn MultiObjectiveSession + '_> {
        Box::new(StatelessSession { objective: self, full: 0 })
    }

    /// The `k` nearest other nodes of every node (see
    /// [`Objective::k_nearest`]).
    fn k_nearest(&self, k: usize) -> Vec<Vec<usize>> {
        crate::k_nearest(self.n(), |u, v| self.distance(u, v), k)
    }
}

/// A per-worker vector-fitness session (see [`MultiObjective::session`]).
pub trait MultiObjectiveSession: Send {
    /// Objective vector of a **connected** topology, bit-identical to
    /// [`MultiObjective::objectives`]. `base` is ignored, as in
    /// [`crate::ObjectiveSession::cost`].
    fn objectives(
        &mut self,
        topology: &AdjacencyMatrix,
        base: Option<&AdjacencyMatrix>,
    ) -> Vec<f64>;

    /// Evaluations this session answered incrementally.
    fn delta_evals(&self) -> usize {
        0
    }

    /// Evaluations this session answered with a full recomputation.
    fn full_evals(&self) -> usize {
        0
    }
}

impl<M: MultiObjective + ?Sized> MultiObjectiveSession for StatelessSession<'_, M> {
    fn objectives(
        &mut self,
        topology: &AdjacencyMatrix,
        _base: Option<&AdjacencyMatrix>,
    ) -> Vec<f64> {
        self.full += 1;
        self.objective.objectives(topology)
    }
    fn full_evals(&self) -> usize {
        self.full
    }
}

impl Session for Box<dyn MultiObjectiveSession + '_> {
    type Fitness = Vec<f64>;
    fn evaluate(&mut self, t: &AdjacencyMatrix) -> Vec<f64> {
        self.objectives(t, None)
    }
    fn components(objectives: &Vec<f64>) -> &[f64] {
        objectives
    }
    fn counts(&self) -> (usize, usize, u64) {
        (self.delta_evals(), self.full_evals(), 0)
    }
}

/// Adapter exposing the scalar-free parts of a [`MultiObjective`] to the
/// shared engine (generation 0, mutation, repair), which only consumes
/// `n`/`distance`/`k_nearest` of its objective.
#[derive(Debug, Clone)]
struct ScalarView<'a, M: MultiObjective>(&'a M);

impl<M: MultiObjective> Objective for ScalarView<'_, M> {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn distance(&self, u: usize, v: usize) -> f64 {
        self.0.distance(u, v)
    }
    fn cost(&self, _topology: &AdjacencyMatrix) -> f64 {
        unreachable!("the Pareto engine never scalarizes candidates")
    }
    fn k_nearest(&self, k: usize) -> Vec<Vec<usize>> {
        self.0.k_nearest(k)
    }
}

/// `true` when `a` Pareto-dominates `b` under minimization: no component
/// worse, at least one strictly better.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// Deterministic total order on objective vectors (lexicographic with
/// IEEE total ordering per component).
fn cmp_objectives(a: &[f64], b: &[f64]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let c = x.total_cmp(y);
        if c != std::cmp::Ordering::Equal {
            return c;
        }
    }
    std::cmp::Ordering::Equal
}

/// Fast non-dominated sorting (Deb et al. 2002): partitions `objs` into
/// fronts of indices — front 0 is mutually non-dominated, every point of
/// front `r+1` is dominated by some point of front `r`. Index order
/// within a front follows input order, so the result is deterministic.
pub fn non_dominated_sort(objs: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n = objs.len();
    if n == 0 {
        return Vec::new();
    }
    let mut dominated_by: Vec<usize> = vec![0; n]; // how many dominate i
    let mut dominates_list: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if dominates(&objs[i], &objs[j]) {
                dominates_list[i].push(j);
                dominated_by[j] += 1;
            } else if dominates(&objs[j], &objs[i]) {
                dominates_list[j].push(i);
                dominated_by[i] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
    while !current.is_empty() {
        let mut next: Vec<usize> = Vec::new();
        for &i in &current {
            for &j in &dominates_list[i] {
                dominated_by[j] -= 1;
                if dominated_by[j] == 0 {
                    next.push(j);
                }
            }
        }
        next.sort_unstable();
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// Crowding distances for one front (aligned with `front`): boundary
/// points of every objective get `+∞`, interior points accumulate the
/// normalized neighbor gap. Ties in an objective are broken by index so
/// the assignment is deterministic.
pub fn crowding_distances(objs: &[Vec<f64>], front: &[usize]) -> Vec<f64> {
    let len = front.len();
    let mut dist = vec![0.0f64; len];
    if len == 0 {
        return dist;
    }
    if len <= 2 {
        return vec![f64::INFINITY; len];
    }
    let k = objs[front[0]].len();
    let mut order: Vec<usize> = (0..len).collect();
    // `m` indexes the objective *component*, not `objs` — the range loop
    // is the honest shape here despite clippy's reading.
    #[allow(clippy::needless_range_loop)]
    for m in 0..k {
        order.sort_by(|&a, &b| {
            objs[front[a]][m].total_cmp(&objs[front[b]][m]).then(front[a].cmp(&front[b]))
        });
        let lo = objs[front[order[0]]][m];
        let hi = objs[front[order[len - 1]]][m];
        dist[order[0]] = f64::INFINITY;
        dist[order[len - 1]] = f64::INFINITY;
        let range = hi - lo;
        if range <= 0.0 {
            continue;
        }
        for w in 1..len - 1 {
            let gap = objs[front[order[w + 1]]][m] - objs[front[order[w - 1]]][m];
            dist[order[w]] += gap / range;
        }
    }
    dist
}

/// Exact hypervolume (minimization) of `points` with respect to
/// `reference`: the Lebesgue measure of the union of boxes
/// `[pᵢ, reference]`. Points not strictly better than the reference in
/// every component contribute nothing. Exact recursive slicing — fine for
/// the archive sizes COLD uses (≤ a few hundred points, K = 3).
pub fn hypervolume(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    Slicer::new(reference, points.iter().map(Vec::as_slice)).total()
}

/// The slicing sweep's order on `d`-dimensional points: by the last
/// coordinate, ties lexicographic.
fn slice_order(a: &[f64], b: &[f64]) -> std::cmp::Ordering {
    a[a.len() - 1].total_cmp(&b[b.len() - 1]).then_with(|| cmp_objectives(a, b))
}

/// Exact hypervolume of one point set and of the set minus any one
/// point, sharing one sort and one set of sweep buffers.
struct Slicer<'a> {
    reference: &'a [f64],
    /// `(input index, point)` of the points inside the reference box, in
    /// [`slice_order`].
    inside: Vec<(usize, &'a [f64])>,
    /// The points a sweep runs over.
    pts: Vec<&'a [f64]>,
    /// One sorted active set per level above the 2-D one.
    levels: Vec<Vec<&'a [f64]>>,
}

impl<'a> Slicer<'a> {
    fn new(reference: &'a [f64], points: impl Iterator<Item = &'a [f64]>) -> Self {
        let d = reference.len();
        let mut inside: Vec<(usize, &[f64])> = points
            .enumerate()
            .filter(|(_, p)| p.len() == d && p.iter().zip(reference).all(|(a, r)| a < r))
            .collect();
        inside.sort_by(|a, b| slice_order(a.1, b.1));
        let levels = vec![Vec::new(); d.saturating_sub(2)];
        Self { reference, pts: Vec::with_capacity(inside.len()), inside, levels }
    }

    /// Hypervolume of every point.
    fn total(&mut self) -> f64 {
        self.without(usize::MAX)
    }

    /// Hypervolume of every point but the `skip`-th of the input.
    fn without(&mut self, skip: usize) -> f64 {
        let Self { reference, inside, pts, levels } = self;
        pts.clear();
        pts.extend(inside.iter().filter(|&&(i, _)| i != skip).map(|&(_, p)| p));
        hv_sorted(pts, reference, levels)
    }
}

/// Hypervolume of `pts`, in [`slice_order`] on their first `r.len()`
/// coordinates (the rest are ignored), w.r.t. `r`. Sweeps the last
/// dimension: between consecutive cut heights the active set is the
/// prefix, whose (d−1)-volume scales the slab. Each level keeps its
/// active set sorted as points arrive (`levels`, one per level above
/// 2-D), so no prefix is re-sorted, and the 2-D level is a running
/// minimum. The volume is a function of the point set alone: the sums
/// run in the order of the sorted projections, whatever order equal
/// projections arrive in.
fn hv_sorted<'a>(pts: &[&'a [f64]], r: &[f64], levels: &mut [Vec<&'a [f64]>]) -> f64 {
    if pts.is_empty() {
        return 0.0;
    }
    let d = r.len();
    let slab = |i: usize, p: &[f64]| pts.get(i + 1).map_or(r[d - 1], |q| q[d - 1]) - p[d - 1];
    match d {
        1 => (r[0] - pts.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min)).max(0.0),
        2 => {
            let (mut vol, mut best) = (0.0, f64::INFINITY);
            for (i, p) in pts.iter().enumerate() {
                best = best.min(p[0]);
                let thickness = slab(i, p);
                if thickness <= 0.0 {
                    continue;
                }
                vol += thickness * (r[0] - best).max(0.0);
            }
            vol
        }
        _ => {
            let (active, deeper) = levels.split_last_mut().expect("one active set per level");
            active.clear();
            let mut vol = 0.0;
            for (i, &p) in pts.iter().enumerate() {
                let at = active.partition_point(|q| slice_order(&q[..d - 1], &p[..d - 1]).is_le());
                active.insert(at, p);
                let thickness = slab(i, p);
                if thickness <= 0.0 {
                    continue;
                }
                vol += thickness * hv_sorted(active, &r[..d - 1], deeper);
            }
            vol
        }
    }
}

/// One member of the Pareto front: a topology with its objective vector.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// The candidate topology.
    pub topology: AdjacencyMatrix,
    /// Its objective vector (same order as
    /// [`MultiObjective::objectives`]).
    pub objectives: Vec<f64>,
}

/// A bounded archive of mutually non-dominated points with monotone
/// non-decreasing hypervolume (see the module docs for the eviction
/// argument).
#[derive(Debug, Clone)]
pub struct ParetoArchive {
    capacity: usize,
    reference: Vec<f64>,
    points: Vec<ParetoPoint>,
}

impl ParetoArchive {
    /// Creates an empty archive holding at most `capacity` points, with
    /// hypervolume measured against `reference`.
    ///
    /// # Panics
    /// Panics when `capacity == 0` or any reference component is
    /// non-finite.
    pub fn new(capacity: usize, reference: Vec<f64>) -> Self {
        assert!(capacity >= 1, "archive capacity must be >= 1");
        assert!(reference.iter().all(|r| r.is_finite()), "reference point must be finite");
        Self { capacity, reference, points: Vec::new() }
    }

    /// The archived front, in deterministic (lexicographic objective)
    /// order.
    pub fn points(&self) -> &[ParetoPoint] {
        &self.points
    }

    /// The hypervolume reference point.
    pub fn reference(&self) -> &[f64] {
        &self.reference
    }

    /// Hypervolume of the archived front w.r.t. the reference point.
    pub fn hypervolume(&self) -> f64 {
        self.slicer().total()
    }

    fn slicer(&self) -> Slicer<'_> {
        Slicer::new(&self.reference, self.points.iter().map(|p| p.objectives.as_slice()))
    }

    /// Offers a candidate. Rejected when any archived point weakly
    /// dominates it (equal vectors count); otherwise it displaces every
    /// point it dominates and, over capacity, the smallest exclusive-
    /// hypervolume contributor of the union is evicted.
    pub fn insert(&mut self, topology: &AdjacencyMatrix, objectives: &[f64]) {
        debug_assert_eq!(objectives.len(), self.reference.len());
        let weakly_dominated = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x <= y);
        if self.points.iter().any(|p| weakly_dominated(&p.objectives, objectives)) {
            return;
        }
        self.points.retain(|p| !dominates(objectives, &p.objectives));
        let at = self
            .points
            .binary_search_by(|p| cmp_objectives(&p.objectives, objectives))
            .unwrap_or_else(|i| i);
        self.points.insert(
            at,
            ParetoPoint { topology: topology.clone(), objectives: objectives.to_vec() },
        );
        if self.points.len() > self.capacity {
            let mut slicer = self.slicer();
            let total = slicer.total();
            let mut evict = 0usize;
            let mut least = f64::INFINITY;
            for i in 0..self.points.len() {
                let contribution = total - slicer.without(i);
                // Strict `<` keeps the first (lexicographically smallest)
                // minimal contributor, so eviction is deterministic.
                if contribution < least {
                    least = contribution;
                    evict = i;
                }
            }
            self.points.remove(evict);
        }
    }
}

/// Outcome of one Pareto run.
#[derive(Debug, Clone)]
pub struct ParetoResult {
    /// The archived Pareto-front approximation, mutually non-dominated,
    /// in lexicographic objective order.
    pub front: Vec<ParetoPoint>,
    /// Archive hypervolume after each generation (index 0 = after the
    /// initial population). Monotone non-decreasing by construction.
    pub hypervolume_history: Vec<f64>,
    /// The hypervolume reference point (fixed after generation 0).
    pub reference: Vec<f64>,
    /// Generations actually executed.
    pub generations_run: usize,
    /// Objective evaluations requested across the run.
    pub evaluations: usize,
    /// Evaluation accounting (cache and session counters).
    pub eval_stats: EvalStats,
    /// Connectivity-repair activity.
    pub repair_stats: RepairStats,
    /// Why the run returned.
    pub stop_reason: StopReason,
}

/// Margin applied to the generation-0 objective maxima to fix the
/// hypervolume reference point (see [`ParetoGa::try_run_traced`]).
pub const REFERENCE_MARGIN: f64 = 1.1;

/// NSGA-II over COLD chromosomes, generic over the [`MultiObjective`]: the
/// shared generational loop with NSGA-II survival.
#[derive(Debug, Clone)]
pub struct ParetoGa<'a, M: MultiObjective> {
    engine: GeneticAlgorithm<ScalarView<'a, M>>,
    archive_capacity: usize,
}

impl<'a, M: MultiObjective> ParetoGa<'a, M> {
    /// Creates a Pareto engine. `archive_capacity` bounds the carried
    /// front (a common choice is the population size).
    ///
    /// # Errors
    /// [`GaError::InvalidSettings`] for inconsistent GA settings, a zero
    /// archive capacity, or fewer than two objectives.
    pub fn try_new(
        objective: &'a M,
        settings: GaSettings,
        archive_capacity: usize,
    ) -> Result<Self, GaError> {
        let mut engine = GeneticAlgorithm::try_new(ScalarView(objective), settings)?;
        engine.width = objective.num_objectives();
        if archive_capacity == 0 {
            return Err(GaError::InvalidSettings("archive capacity must be >= 1".into()));
        }
        if engine.width < 2 {
            return Err(GaError::InvalidSettings(format!(
                "multi-objective synthesis needs >= 2 objectives, got {}",
                engine.width
            )));
        }
        Ok(Self { engine, archive_capacity })
    }

    /// The settings in use.
    pub fn settings(&self) -> &GaSettings {
        self.engine.settings()
    }

    /// Runs NSGA-II with `seeds` added to the initial population and an
    /// optional per-generation observer.
    ///
    /// Breeding reuses the paper's operators verbatim; environmental
    /// selection is (μ+λ): parents and offspring are pooled, ranked by
    /// non-dominated front and crowding distance, and the best
    /// `settings.population` survive (`num_saved` elitism is subsumed —
    /// rank-0 parents always outrank dominated offspring). The
    /// hypervolume reference point is fixed after generation 0 at
    /// [`REFERENCE_MARGIN`] × the per-objective maximum of the evaluated
    /// initial population (degenerate all-zero objectives fall back to
    /// 1.0), then never moves — which is what makes the per-generation
    /// archive hypervolume monotone and comparable. The early-stop and
    /// stall guards read that hypervolume.
    ///
    /// The observer's [`GenerationRecord`](cold_obs::GenerationRecord)
    /// reports `best`/`mean`/`worst` over objective 0 (the build cost)
    /// and the archive hypervolume after the generation's inserts.
    ///
    /// # Errors
    /// [`GaError::NonFiniteCost`] when any objective component comes back
    /// non-finite.
    pub fn try_run_traced(
        &self,
        seeds: &[AdjacencyMatrix],
        observer: Option<&mut dyn GenerationObserver>,
    ) -> Result<ParetoResult, GaError> {
        self.run_resumable(seeds, observer, None, None)
    }

    /// [`try_run_traced`](Self::try_run_traced) plus the crash-safety
    /// hooks of [`GeneticAlgorithm::run_resumable`]: a snapshot — the
    /// scalar one plus the NSGA-II state ([`ParetoState`]) — every
    /// `every` generations, and a bit-identical resume from one.
    ///
    /// # Errors
    /// As [`GeneticAlgorithm::run_resumable`]; a scalar run's snapshot is
    /// [`GaError::Checkpoint`].
    pub fn run_resumable(
        &self,
        seeds: &[AdjacencyMatrix],
        observer: Option<&mut dyn GenerationObserver>,
        checkpoint: Option<CheckpointHook<'_>>,
        resume: Option<GaCheckpoint>,
    ) -> Result<ParetoResult, GaError> {
        let objective = self.engine.objective().0;
        let mut nsga2 = Nsga2 {
            population: self.engine.settings().population,
            width: self.engine.width,
            objectives: Vec::new(),
            archive: ParetoArchive::new(self.archive_capacity, Vec::new()),
            hypervolume: 0.0,
        };
        let open = || objective.session();
        let run = self.engine.evolve(
            InitMode::Cold(seeds),
            &mut nsga2,
            open,
            observer,
            checkpoint,
            resume,
        )?;
        Ok(ParetoResult {
            front: nsga2.archive.points,
            // The loop's progress series is the negated hypervolume;
            // negation is exact both ways.
            hypervolume_history: run.history.iter().map(|p| -p).collect(),
            reference: nsga2.archive.reference,
            generations_run: run.generations_run,
            evaluations: run.stats.requested,
            eval_stats: run.stats,
            repair_stats: run.repair_stats,
            stop_reason: run.stop_reason,
        })
    }
}

/// NSGA-II survival: (μ+λ) rank-and-crowding truncation, with every
/// surviving rank-0 member offered to the bounded archive. The progress
/// series is the negated archive hypervolume.
struct Nsga2 {
    /// Survivors per generation (μ).
    population: usize,
    /// Components of every objective vector (K).
    width: usize,
    /// Objective vectors, aligned with the current population.
    objectives: Vec<Vec<f64>>,
    /// Its reference point is fixed at generation 0.
    archive: ParetoArchive,
    /// Archive hypervolume after the latest inserts.
    hypervolume: f64,
}

impl Survival for Nsga2 {
    type Fitness = Vec<f64>;

    /// Pools `population` with the evaluated `newcomers`, ranks the pool,
    /// keeps the best μ, and offers each rank-0 survivor to the archive.
    /// Generation 0 (an empty `population`) fixes the reference point and
    /// keeps every member.
    fn survive(
        &mut self,
        population: Vec<Individual>,
        newcomers: Vec<AdjacencyMatrix>,
        objectives: Vec<Vec<f64>>,
    ) -> Vec<Individual> {
        let keep = if population.is_empty() {
            self.archive.reference = (0..objectives[0].len())
                .map(|k| objectives.iter().map(|o| o[k]).fold(0.0, f64::max))
                .map(|r| if r > 0.0 { r * REFERENCE_MARGIN } else { 1.0 })
                .collect();
            usize::MAX
        } else {
            self.population
        };
        let mut pool: Vec<(Individual, Vec<f64>)> = population
            .into_iter()
            .zip(std::mem::take(&mut self.objectives))
            .chain(newcomers.into_iter().map(|t| Individual::new(t, 0.0)).zip(objectives))
            .collect();
        rank_and_sort(&mut pool);
        pool.truncate(keep);
        for (ind, objs) in &pool {
            // Only rank-0 members (pseudo < 1) can enter the archive; the
            // archive re-checks dominance anyway, so this is just a skip.
            if ind.cost < 1.0 {
                self.archive.insert(&ind.topology, objs);
            }
        }
        self.hypervolume = self.archive.hypervolume();
        cold_obs::gauge_set_f64("ga.hypervolume", self.hypervolume);
        let survivors;
        (survivors, self.objectives) = pool.into_iter().unzip();
        survivors
    }

    fn progress(&self, _population: &[Individual]) -> f64 {
        -self.hypervolume
    }

    fn record_costs(&self, _population: &[Individual]) -> Vec<f64> {
        self.objectives.iter().map(|o| o[0]).collect()
    }

    fn hypervolume(&self) -> f64 {
        self.hypervolume
    }

    fn save(
        &self,
        cache: Option<&HashMap<AdjacencyMatrix, Vec<f64>>>,
        snapshot: &mut GaCheckpoint,
    ) {
        snapshot.pareto = Some(ParetoState {
            archive: self.archive.points.clone(),
            reference: self.archive.reference.clone(),
            objectives: self.objectives.clone(),
            cache: cache.map(|c| c.iter().map(|(t, o)| (t.clone(), o.clone())).collect()),
        });
    }

    /// Restores the archive, its reference point and the population's
    /// objective vectors; the archive hypervolume is the negated last
    /// entry of the progress series.
    fn restore(
        &mut self,
        snapshot: &mut GaCheckpoint,
    ) -> Result<Option<CacheEntries<Vec<f64>>>, String> {
        let state =
            snapshot.pareto.take().ok_or("snapshot is of a scalar run, not a Pareto one")?;
        let n = snapshot.population.first().map_or(0, |i| i.topology.n());
        let fits = |o: &[f64]| o.len() == self.width && o.iter().all(|x| x.is_finite());
        if !fits(&state.reference)
            || state.objectives.len() != snapshot.population.len()
            || !state.objectives.iter().all(|o| fits(o))
            || state.archive.len() > self.archive.capacity
            || !state.archive.iter().all(|p| p.topology.n() == n && fits(&p.objectives))
            || !state.cache.iter().flatten().all(|(t, o)| t.n() == n && fits(o))
        {
            return Err(format!(
                "snapshot NSGA-II state does not fit {} objectives, an archive of {} and \
                 {} survivors of {n} nodes",
                self.width,
                self.archive.capacity,
                snapshot.population.len()
            ));
        }
        self.archive.reference = state.reference;
        self.archive.points = state.archive;
        self.objectives = state.objectives;
        self.hypervolume = -snapshot.history.last().expect("a snapshot's history is nonempty");
        Ok(state.cache)
    }
}

/// Assigns every pool member its crowded-comparison pseudo-cost
/// (`2·rank + 1/(1 + crowding)`, stored as its selection `cost`) and
/// sorts the pool by it, with the scalar engine's deterministic edge
/// tiebreaks.
fn rank_and_sort(pool: &mut [(Individual, Vec<f64>)]) {
    let objs: Vec<Vec<f64>> = pool.iter().map(|(_, o)| o.clone()).collect();
    for (rank, front) in non_dominated_sort(&objs).into_iter().enumerate() {
        let crowding = crowding_distances(&objs, &front);
        for (&i, &c) in front.iter().zip(&crowding) {
            pool[i].0.cost = 2.0 * rank as f64 + 1.0 / (1.0 + c);
        }
    }
    pool.sort_by(|a, b| cmp_by_cost(&a.0, &b.0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two toy objectives over points on a line: total link build cost
    /// (k0 per link + length) vs. total pairwise hop distance — sparse
    /// trees are cheap but far, dense graphs expensive but close, so the
    /// true trade-off curve is non-trivial.
    pub(super) struct LineTradeoff {
        pub n: usize,
    }

    impl MultiObjective for LineTradeoff {
        fn n(&self) -> usize {
            self.n
        }
        fn num_objectives(&self) -> usize {
            2
        }
        fn distance(&self, u: usize, v: usize) -> f64 {
            (u as f64 - v as f64).abs()
        }
        fn objectives(&self, topo: &AdjacencyMatrix) -> Vec<f64> {
            let mut build = 0.0;
            for (u, v) in topo.edges() {
                build += 3.0 + self.distance(u, v);
            }
            // Unweighted all-pairs hop count via BFS per source.
            let g = topo.to_graph();
            let mut hops = 0.0;
            for s in 0..self.n {
                let mut dist = vec![usize::MAX; self.n];
                let mut queue = std::collections::VecDeque::from([s]);
                dist[s] = 0;
                while let Some(u) = queue.pop_front() {
                    for &v in g.neighbors(u) {
                        if dist[v] == usize::MAX {
                            dist[v] = dist[u] + 1;
                            queue.push_back(v);
                        }
                    }
                }
                hops += dist.iter().map(|&d| d as f64).sum::<f64>();
            }
            vec![build, hops]
        }
    }

    #[test]
    fn dominance_is_strict_partial_order() {
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[2.0, 2.0], &[1.0, 2.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]), "equal vectors do not dominate");
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]), "incomparable");
    }

    #[test]
    fn non_dominated_sort_layers_a_staircase() {
        let objs = vec![
            vec![1.0, 4.0], // front 0
            vec![2.0, 2.0], // front 0
            vec![4.0, 1.0], // front 0
            vec![2.0, 5.0], // dominated by (1,4)
            vec![5.0, 5.0], // dominated by everything
        ];
        let fronts = non_dominated_sort(&objs);
        assert_eq!(fronts[0], vec![0, 1, 2]);
        assert_eq!(fronts[1], vec![3]);
        assert_eq!(fronts[2], vec![4]);
    }

    #[test]
    fn crowding_boundaries_are_infinite() {
        let objs = vec![vec![1.0, 4.0], vec![2.0, 2.0], vec![4.0, 1.0], vec![3.0, 1.5]];
        let front = vec![0, 1, 2, 3];
        let d = crowding_distances(&objs, &front);
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[2], f64::INFINITY);
        assert!(d[1].is_finite() && d[1] > 0.0);
        assert!(d[3].is_finite() && d[3] > 0.0);
    }

    #[test]
    fn hypervolume_of_known_boxes() {
        // Single point: one box.
        assert!((hypervolume(&[vec![1.0, 1.0]], &[3.0, 3.0]) - 4.0).abs() < 1e-12);
        // Two staircase points: box(1,2) has area 2·1 = 2, box(2,1) has
        // area 1·2 = 2, their overlap [(2,2)→(3,3)] has area 1 → union 3.
        assert!((hypervolume(&[vec![1.0, 2.0], vec![2.0, 1.0]], &[3.0, 3.0]) - 3.0).abs() < 1e-12);
        // A dominated point adds nothing.
        assert!((hypervolume(&[vec![1.0, 1.0], vec![2.0, 2.0]], &[3.0, 3.0]) - 4.0).abs() < 1e-12);
        // Points at or beyond the reference contribute nothing.
        assert_eq!(hypervolume(&[vec![3.0, 1.0]], &[3.0, 3.0]), 0.0);
        // 3-D: unit-corner point in a 2-cube.
        assert!((hypervolume(&[vec![1.0, 1.0, 1.0]], &[2.0, 2.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    /// The recursive slicing the sweep replaced: it sorts every prefix
    /// and copies every projection. The oracle of the bit-equality tests.
    fn hypervolume_by_recursion(points: &[Vec<f64>], reference: &[f64]) -> f64 {
        fn slices(pts: &[&[f64]], r: &[f64]) -> f64 {
            if pts.is_empty() {
                return 0.0;
            }
            let d = r.len();
            if d == 1 {
                let best = pts.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
                return (r[0] - best).max(0.0);
            }
            let mut sorted: Vec<&[f64]> = pts.to_vec();
            sorted.sort_by(|a, b| a[d - 1].total_cmp(&b[d - 1]).then_with(|| cmp_objectives(a, b)));
            let mut vol = 0.0;
            let mut proj: Vec<Vec<f64>> = Vec::with_capacity(sorted.len());
            for (i, p) in sorted.iter().enumerate() {
                proj.push(p[..d - 1].to_vec());
                let hi = if i + 1 < sorted.len() { sorted[i + 1][d - 1] } else { r[d - 1] };
                let thickness = hi - p[d - 1];
                if thickness <= 0.0 {
                    continue;
                }
                let prefix: Vec<&[f64]> = proj.iter().map(|q| q.as_slice()).collect();
                vol += thickness * slices(&prefix, &r[..d - 1]);
            }
            vol
        }
        let inside: Vec<&[f64]> = points
            .iter()
            .filter(|p| p.len() == reference.len() && p.iter().zip(reference).all(|(a, r)| a < r))
            .map(|p| p.as_slice())
            .collect();
        slices(&inside, reference)
    }

    /// `count` random K-vectors: free floats, or values on a coarse grid
    /// that tie often and reach the reference point.
    fn random_points(rng: &mut StdRng, k: usize, count: usize, grid: bool) -> Vec<Vec<f64>> {
        let coord = |rng: &mut StdRng| {
            if grid {
                rng.gen_range(0..5) as f64 * 0.25
            } else {
                rng.gen_range(0.0..1.0)
            }
        };
        (0..count).map(|_| (0..k).map(|_| coord(rng)).collect()).collect()
    }

    #[test]
    fn hypervolume_matches_the_recursive_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(25);
        for k in 2..=4 {
            let reference = vec![1.0; k];
            for grid in [false, true] {
                for count in [0, 1, 2, 3, 5, 8, 13, 21, 34, 40] {
                    let points = random_points(&mut rng, k, count, grid);
                    assert_eq!(
                        hypervolume(&points, &reference).to_bits(),
                        hypervolume_by_recursion(&points, &reference).to_bits(),
                        "K = {k}, grid = {grid}, {count} points"
                    );
                }
            }
        }
    }

    #[test]
    fn archive_evictions_match_the_cloning_oracle() {
        // The archive before the sweep rewrite: every leave-one-out
        // contribution re-measured a cloned objective matrix.
        fn insert_by_cloning(members: &mut Vec<Vec<f64>>, x: &[f64], cap: usize, r: &[f64]) {
            if members.iter().any(|p| p.iter().zip(x).all(|(a, b)| a <= b)) {
                return;
            }
            members.retain(|p| !dominates(x, p));
            let at = members.binary_search_by(|p| cmp_objectives(p, x)).unwrap_or_else(|i| i);
            members.insert(at, x.to_vec());
            if members.len() > cap {
                let total = hypervolume_by_recursion(members, r);
                let (mut evict, mut least) = (0, f64::INFINITY);
                for i in 0..members.len() {
                    let mut rest = members.clone();
                    rest.remove(i);
                    let contribution = total - hypervolume_by_recursion(&rest, r);
                    if contribution < least {
                        (evict, least) = (i, contribution);
                    }
                }
                members.remove(evict);
            }
        }
        let topo = AdjacencyMatrix::empty(3);
        let mut rng = StdRng::seed_from_u64(7);
        for k in [2, 3] {
            for grid in [false, true] {
                let reference = vec![1.0; k];
                let mut archive = ParetoArchive::new(8, reference.clone());
                let mut oracle = Vec::new();
                for x in random_points(&mut rng, k, 300, grid) {
                    archive.insert(&topo, &x);
                    insert_by_cloning(&mut oracle, &x, 8, &reference);
                    let members: Vec<Vec<f64>> =
                        archive.points().iter().map(|p| p.objectives.clone()).collect();
                    assert_eq!(members, oracle, "K = {k}, grid = {grid}");
                    assert_eq!(
                        archive.hypervolume().to_bits(),
                        hypervolume_by_recursion(&oracle, &reference).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn archive_is_bounded_and_monotone() {
        let topo = AdjacencyMatrix::empty(3);
        let mut archive = ParetoArchive::new(3, vec![10.0, 10.0]);
        let mut last = 0.0;
        // A stream of staircase points; capacity 3 forces evictions.
        for i in 0..8 {
            let x = 1.0 + i as f64;
            let y = 8.0 - i as f64;
            archive.insert(&topo, &[x, y]);
            let hv = archive.hypervolume();
            assert!(hv >= last - 1e-12, "hypervolume regressed: {last} -> {hv}");
            last = hv;
            assert!(archive.points().len() <= 3);
        }
        // Dominating everything collapses the front to one point.
        archive.insert(&topo, &[0.5, 0.5]);
        assert_eq!(archive.points().len(), 1);
        assert!(archive.hypervolume() >= last - 1e-12);
    }

    #[test]
    fn archive_rejects_weakly_dominated() {
        let topo = AdjacencyMatrix::empty(3);
        let mut archive = ParetoArchive::new(8, vec![10.0, 10.0]);
        archive.insert(&topo, &[2.0, 2.0]);
        archive.insert(&topo, &[2.0, 2.0]); // duplicate
        archive.insert(&topo, &[3.0, 2.0]); // dominated
        assert_eq!(archive.points().len(), 1);
    }

    #[test]
    fn pareto_run_yields_mutually_non_dominated_front() {
        let obj = LineTradeoff { n: 8 };
        let ga = ParetoGa::try_new(&obj, GaSettings::quick(7), 40).unwrap();
        let r = ga.try_run_traced(&[], None).unwrap();
        assert!(r.front.len() >= 2, "trade-off must surface >= 2 points, got {}", r.front.len());
        for a in &r.front {
            for b in &r.front {
                assert!(
                    !dominates(&a.objectives, &b.objectives),
                    "front not mutually non-dominated: {:?} dominates {:?}",
                    a.objectives,
                    b.objectives
                );
            }
        }
        for w in r.hypervolume_history.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "hypervolume regressed: {:?}", w);
        }
        assert_eq!(r.hypervolume_history.len(), r.generations_run + 1);
    }

    #[test]
    fn pareto_run_is_bit_deterministic() {
        let obj = LineTradeoff { n: 7 };
        let run = || {
            let ga = ParetoGa::try_new(&obj, GaSettings::quick(11), 30).unwrap();
            ga.try_run_traced(&[], None).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.front, b.front);
        assert_eq!(a.hypervolume_history, b.hypervolume_history);
        assert_eq!(a.reference, b.reference);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let obj = LineTradeoff { n: 7 };
        let serial = {
            let s = GaSettings { parallel: false, ..GaSettings::quick(3) };
            ParetoGa::try_new(&obj, s, 30).unwrap().try_run_traced(&[], None).unwrap()
        };
        let parallel = {
            let s = GaSettings { parallel: true, ..GaSettings::quick(3) };
            ParetoGa::try_new(&obj, s, 30).unwrap().try_run_traced(&[], None).unwrap()
        };
        assert_eq!(serial.front, parallel.front);
        assert_eq!(serial.hypervolume_history, parallel.hypervolume_history);
    }

    #[test]
    fn a_pareto_run_resumes_from_every_snapshot_bit_identically() {
        let obj = LineTradeoff { n: 7 };
        let ga = ParetoGa::try_new(&obj, GaSettings::quick(5), 12).unwrap();
        let mut snaps = Vec::new();
        let mut sink = |c: GaCheckpoint| snaps.push(c);
        let hook = CheckpointHook { every: 1, sink: &mut sink };
        let plain = ga.run_resumable(&[], None, Some(hook), None).unwrap();
        assert_eq!(snaps.len(), plain.generations_run - 1, "one snapshot per generation");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for snap in &snaps {
            let state = snap.pareto.as_ref().expect("a Pareto snapshot");
            assert_eq!(state.reference, plain.reference, "the reference is fixed at generation 0");
            assert_eq!(state.objectives.len(), snap.population.len());
            let restored = GaCheckpoint::from_json(&snap.to_json()).expect("round trip");
            assert_eq!(restored.to_json(), snap.to_json());
            let resumed = ga.run_resumable(&[], None, None, Some(restored)).unwrap();
            assert_eq!(resumed.front, plain.front, "generation {}", snap.generation);
            assert_eq!(bits(&resumed.hypervolume_history), bits(&plain.hypervolume_history));
            assert_eq!(bits(&resumed.reference), bits(&plain.reference));
            assert_eq!(
                (resumed.generations_run, resumed.stop_reason, resumed.repair_stats),
                (plain.generations_run, plain.stop_reason, plain.repair_stats)
            );
            let counts = |s: &EvalStats| (s.requested, s.cache_hits, s.cache_misses);
            assert_eq!(counts(&resumed.eval_stats), counts(&plain.eval_stats));
        }
        // A snapshot resumes only under its own survival strategy.
        let mut scalar = snaps[0].clone();
        scalar.pareto = None;
        let err = ga.run_resumable(&[], None, None, Some(scalar)).unwrap_err();
        assert!(matches!(err, GaError::Checkpoint(_)), "{err:?}");
        let elitist = GeneticAlgorithm::try_new(ScalarView(&obj), GaSettings::quick(5)).unwrap();
        let err = elitist.run_resumable(&[], None, None, Some(snaps[0].clone())).unwrap_err();
        assert!(matches!(err, GaError::Checkpoint(_)), "{err:?}");
    }

    #[test]
    fn too_few_objectives_rejected() {
        struct One;
        impl MultiObjective for One {
            fn n(&self) -> usize {
                4
            }
            fn num_objectives(&self) -> usize {
                1
            }
            fn distance(&self, u: usize, v: usize) -> f64 {
                (u as f64 - v as f64).abs()
            }
            fn objectives(&self, _t: &AdjacencyMatrix) -> Vec<f64> {
                vec![1.0]
            }
        }
        assert!(matches!(
            ParetoGa::try_new(&One, GaSettings::quick(1), 10),
            Err(GaError::InvalidSettings(_))
        ));
        assert!(matches!(
            ParetoGa::try_new(&LineTradeoff { n: 4 }, GaSettings::quick(1), 0),
            Err(GaError::InvalidSettings(_))
        ));
    }
}
