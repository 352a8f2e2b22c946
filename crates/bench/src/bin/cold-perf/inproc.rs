//! The in-process workloads: scalar synthesis at the paper's size and at
//! n = 200, and Pareto synthesis.
//!
//! The measured run calls the library's public entry points
//! (`ColdConfig::try_synthesize`, `try_synthesize_pareto`). The traced run
//! rebuilds the same pipeline from public parts, with a span around each
//! call into a layer and a timing wrapper around the objective, and must
//! produce the bit-identical result; that is what shows it measures the
//! same program.

use crate::spans::Spans;
use crate::stats::{geomean, mean, pct};
use crate::{pace, Outcome, Workload, SETUP_REPS};
use cold::context::rng::derive_seed;
use cold::context::Context;
use cold::cost::{evaluate_total, CostParams, DeltaEval, Network};
use cold::ga::{
    dominates, GaSettings, GenerationObserver, GenerationRecord, GeneticAlgorithm, MultiObjective,
    MultiObjectiveSession, Objective, ObjectiveSession, ParetoGa,
};
use cold::graph::components::matrix_is_connected;
use cold::graph::mst::mst_matrix;
use cold::graph::AdjacencyMatrix;
use cold::heuristics::all_heuristics;
use cold::{ColdConfig, ColdMultiObjective, ColdObjective, NetworkStats, SynthesisMode};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pareto archive bound (the library default).
const ARCHIVE: usize = cold::pareto::DEFAULT_ARCHIVE_CAPACITY;

/// One in-process workload at a given size.
///
/// A measured run has `quality_inputs + 1` inputs: the workload's fixed
/// quality inputs and one drawn from the workload seed. It synthesizes
/// them in rounds, one of each per round, until the time budget is spent
/// and at least `MIN_ROUNDS` rounds are done. An input's latency is the
/// geometric mean of its repeats, each scaled to the reference host speed
/// (`pace`): the work is deterministic, so repeats differ only by the
/// shared host's pace. Inputs are mostly fixed because a synthesis's cost
/// varies with its context, by up to 1.8x between n = 30 contexts: with
/// four of ten inputs drawn from the seed, `paper-n30` runs spread 0.11
/// against 0.04 for the fixed inputs alone.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Scalar or Pareto.
    pub pareto: bool,
    /// The synthesis configuration every operation uses.
    pub cfg: ColdConfig,
    /// The fixed inputs, which come first; the quality metric is taken
    /// over exactly these.
    pub quality_inputs: usize,
    /// Size of the evaluation-kernel probe the traced run adds, if any.
    pub kernel_probe_n: Option<usize>,
}

/// Rounds a measured run completes even when the time budget is spent
/// sooner, so that every input has a repeat.
pub const MIN_ROUNDS: usize = 2;

impl Plan {
    /// The benchmark's configuration of an in-process workload. Each has
    /// ten inputs, so that the one drawn from the seed carries a tenth of
    /// the latency metric; generations are sized so that two rounds or
    /// more fit a 20 s run. With five inputs, the seed-drawn one alone
    /// spread `large-n200` and `pareto-n20` runs by about 0.03.
    pub fn of(w: Workload) -> Self {
        // The evaluation-heavy workloads run the GA on one thread, as each
        // trial of a multi-trial synthesis does. On two shared cores a
        // second thread speeds them up at most 1.4x but takes on the host's
        // noise on both cores: runs spread up to 3x wider at n = 200. At
        // n = 30 the paper's parallel GA is as fast and as steady.
        let (pareto, cfg, quality_inputs, kernel_probe_n) = match w {
            Workload::PaperN30 => (false, ColdConfig::paper(30, 4e-4, 10.0), 9, None),
            Workload::LargeN200 => {
                // An eighth of the quick GA's generations, so that a
                // network takes about 1 s and ten of them fit a round.
                let mut cfg = ColdConfig::quick(200, 4e-4, 10.0);
                cfg.mode = SynthesisMode::GaOnly;
                cfg.ga.generations = 5;
                cfg.ga.mutation_neighbors = Some(12);
                cfg.ga.parallel = false;
                (false, cfg, 9, Some(500))
            }
            Workload::ParetoN20 => {
                // A quarter of the quick GA's generations, so that a front
                // takes about 1 s.
                let mut cfg = ColdConfig::quick(20, 4e-4, 10.0);
                cfg.ga.generations = 10;
                cfg.ga.parallel = false;
                (true, cfg, 9, None)
            }
            Workload::ServeMix | Workload::Dist1Worker => unreachable!("served workload"),
        };
        Self { pareto, cfg, quality_inputs, kernel_probe_n }
    }

    /// The same workload with a two-generation GA: what set-up runs.
    fn warm_up(&self) -> Self {
        let mut warm = *self;
        warm.cfg.ga.generations = 2;
        warm
    }
}

/// What the checks, the quality metric and the bit-identity comparison
/// need from one synthesis.
struct Done {
    context: Context,
    /// Scalar: the one design and `[cost]`; Pareto: every front member and
    /// its objective vector.
    designs: Vec<(AdjacencyMatrix, Vec<f64>)>,
    /// Best cost per generation (scalar) or archive hypervolume per
    /// generation (Pareto).
    history: Vec<f64>,
    cache_hits: usize,
    cache_misses: usize,
}

impl Done {
    fn from_scalar(r: cold::SynthesisResult) -> Self {
        Self {
            designs: vec![(r.network.topology.clone(), vec![r.network.total_cost()])],
            history: r.best_cost_history,
            cache_hits: r.eval_stats.cache_hits,
            cache_misses: r.eval_stats.cache_misses,
            context: r.context,
        }
    }

    fn from_pareto(r: cold::ParetoSynthesisResult) -> Self {
        Self {
            designs: r.front.into_iter().map(|m| (m.network.topology, m.objectives)).collect(),
            history: r.hypervolume_history,
            cache_hits: r.eval_stats.cache_hits,
            cache_misses: r.eval_stats.cache_misses,
            context: r.context,
        }
    }

    /// Bit-for-bit equality of everything the synthesis decided.
    fn same_as(&self, other: &Done) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        self.context == other.context
            && self.designs.len() == other.designs.len()
            && self
                .designs
                .iter()
                .zip(&other.designs)
                .all(|(a, b)| a.0 == b.0 && bits(&a.1) == bits(&b.1))
            && bits(&self.history) == bits(&other.history)
            && (self.cache_hits, self.cache_misses) == (other.cache_hits, other.cache_misses)
    }

    /// The output-correctness check of one operation.
    fn check(&self, plan: &Plan) -> Result<(), String> {
        let params = &plan.cfg.params;
        for (topology, objectives) in &self.designs {
            if !matrix_is_connected(topology) {
                return Err("a synthesized network is disconnected".into());
            }
            let cost =
                evaluate_total(topology, &self.context, params).map_err(|e| e.to_string())?;
            if cost.to_bits() != objectives[0].to_bits() {
                return Err(format!(
                    "reported cost {} differs from evaluate_total {cost}",
                    objectives[0]
                ));
            }
        }
        if plan.pareto {
            for (i, a) in self.designs.iter().enumerate() {
                if let Some(b) = self.designs.iter().find(|b| dominates(&b.1, &a.1)) {
                    return Err(format!("front member {i} {:?} is dominated by {:?}", a.1, b.1));
                }
            }
            if self.history.windows(2).any(|w| w[1] < w[0]) {
                return Err("hypervolume history decreased".into());
            }
        }
        Ok(())
    }

    /// Cheapest design's cost over the minimum spanning tree's cost on the
    /// same context.
    fn cost_ratio(&self, params: &CostParams) -> f64 {
        let cheapest = self.designs.iter().map(|d| d.1[0]).fold(f64::INFINITY, f64::min);
        cheapest / mst_cost(&self.context, params)
    }
}

/// Build cost of the minimum spanning tree on `ctx`: the quality metric's
/// reference design.
pub fn mst_cost(ctx: &Context, params: &CostParams) -> f64 {
    let mst = mst_matrix(ctx.n(), ctx.distance_fn());
    evaluate_total(&mst, ctx, params).expect("a spanning tree is connected")
}

fn run_plain(plan: &Plan, seed: u64) -> Result<(Duration, Done), String> {
    let start = Instant::now();
    if plan.pareto {
        let r = cold::try_synthesize_pareto(&plan.cfg, seed, ARCHIVE).map_err(|e| e.to_string())?;
        Ok((start.elapsed(), Done::from_pareto(r)))
    } else {
        let r = plan.cfg.try_synthesize(seed).map_err(|e| e.to_string())?;
        Ok((start.elapsed(), Done::from_scalar(r)))
    }
}

/// The seed of input `i`: a fixed quality input for the first
/// `plan.quality_inputs`, then one derived from the workload seed.
fn op_seed(w: Workload, plan: &Plan, seed: u64, i: usize) -> u64 {
    if i < plan.quality_inputs {
        w.quality_seed(i)
    } else {
        derive_seed(derive_seed(seed, w.salt()), i as u64)
    }
}

/// Set-up as one fresh process sees it: the first (two-generation)
/// synthesis, the body of the `setup-probe` subcommand.
pub fn warm_up(w: Workload, rep: usize) -> Result<(), String> {
    run_plain(&Plan::of(w).warm_up(), w.setup_seed(rep)).map(|_| ())
}

/// Times `SETUP_REPS` fresh processes (`cold-perf setup-probe`), each
/// from spawn to exit, between runs of the reference work: seconds as
/// measured and at the reference speed.
pub fn measure_setup(w: Workload) -> Result<(Vec<f64>, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    pace::paced(SETUP_REPS, |rep| {
        let start = Instant::now();
        let status = std::process::Command::new(&exe)
            .args(["setup-probe", "--workload", w.name(), "--rep", &rep.to_string()])
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("setup probe: {e}"))?;
        if !status.success() {
            return Err(format!("setup probe exited with {status}"));
        }
        Ok(start.elapsed().as_secs_f64())
    })
}

/// Runs one in-process workload for `seconds`. Set-up is timed apart, by
/// `measure_setup`.
pub fn run(
    w: Workload,
    plan: &Plan,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    if trace {
        run_traced_window(w, plan, seed, seconds)
    } else {
        run_measured(w, plan, seed, seconds)
    }
}

/// The measured run: the plan's inputs in rounds (see [`Plan`]), with the
/// host's reference work timed before every synthesis and after the
/// last. Every repeat must reproduce its input's first result to the bit.
fn run_measured(w: Workload, plan: &Plan, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = plan.quality_inputs + 1;
    let seeds: Vec<u64> = (0..inputs).map(|i| op_seed(w, plan, seed, i)).collect();
    let mut first: Vec<Option<Done>> = (0..inputs).map(|_| None).collect();
    // Per input, (seconds taken, index of the reference before) of every
    // repeat.
    let mut timed: Vec<Vec<(f64, usize)>> = vec![Vec::new(); inputs];
    let mut reference = Vec::new();
    let window = Instant::now();
    let mut rounds = 0;
    'rounds: loop {
        for (i, &s) in seeds.iter().enumerate() {
            if rounds >= MIN_ROUNDS && window.elapsed().as_secs_f64() >= seconds {
                break 'rounds;
            }
            out.attempted += 1;
            reference.push(pace::reference_ms());
            let result = run_plain(plan, s).and_then(|(took, done)| {
                match &first[i] {
                    None => done.check(plan)?,
                    Some(earlier) if !done.same_as(earlier) => {
                        return Err("a repeat differs from the input's first result".into())
                    }
                    Some(_) => {}
                }
                Ok((took, done))
            });
            match result {
                Ok((took, done)) => {
                    timed[i].push((took.as_secs_f64(), reference.len() - 1));
                    first[i].get_or_insert(done);
                }
                Err(why) => out.fail(format!("input {i}, round {rounds}: {why}")),
            }
        }
        rounds += 1;
    }
    reference.push(pace::reference_ms());
    let ratios: Vec<f64> = first[..plan.quality_inputs]
        .iter()
        .flatten()
        .map(|done| done.cost_ratio(&plan.cfg.params))
        .collect();
    if ratios.len() == plan.quality_inputs {
        out.set("cost_ratio_geomean", geomean(&ratios));
    }
    // Repeat k's reference "after" is the one timed before synthesis k + 1,
    // whichever input that was.
    let mut raw = Vec::new();
    let mut scaled = Vec::new();
    for repeats in timed.iter().filter(|r| !r.is_empty()) {
        let each: Vec<f64> = repeats
            .iter()
            .map(|&(s, k)| pace::scaled_ms(s, reference[k], reference[k + 1]))
            .collect();
        scaled.push(geomean(&each));
        raw.push(geomean(&repeats.iter().map(|&(s, _)| s * 1e3).collect::<Vec<_>>()));
    }
    out.latency(&format!("{rounds}-round synthesis"), &raw, &scaled, &reference);
    Ok(out)
}

/// The traced run: one pass over inputs for `seconds` (at least two),
/// each run untraced and traced (see [`traced_pair`]).
fn run_traced_window(w: Workload, plan: &Plan, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut ratios = Vec::new();
    let mut tally = Tally::default();
    let mut spans = Spans::new();
    let window = Instant::now();
    let mut i = 0;
    while i < 2 || window.elapsed().as_secs_f64() < seconds {
        out.attempted += 1;
        let result = traced_pair(plan, op_seed(w, plan, seed, i), i, &mut spans, &mut tally);
        match result.and_then(|(took, done)| done.check(plan).map(|()| (took, done))) {
            Ok((_, done)) if i < plan.quality_inputs => {
                ratios.push(done.cost_ratio(&plan.cfg.params))
            }
            Ok(_) => {}
            Err(why) => out.fail(format!("input {i}: {why}")),
        }
        i += 1;
    }
    if ratios.len() == plan.quality_inputs {
        out.set("cost_ratio_geomean", geomean(&ratios));
    }
    tally.report(&mut out, &spans);
    if let Some(n) = plan.kernel_probe_n {
        kernel_probe(n, seed, &mut out)?;
    }
    out.spans = Some(spans);
    Ok(out)
}

/// Runs operation `i` untraced and traced, in alternating order, and
/// insists both give the same result. Returns the untraced timing.
fn traced_pair(
    plan: &Plan,
    seed: u64,
    i: usize,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<(Duration, Done), String> {
    let traced_first = i % 2 == 1;
    let mut traced = None;
    if traced_first {
        traced = Some(run_traced(plan, seed, i as u64, spans, tally)?);
    }
    let (took, done) = run_plain(plan, seed)?;
    let (traced_took, traced_done) = match traced {
        Some(t) => t,
        None => run_traced(plan, seed, i as u64, spans, tally)?,
    };
    if !traced_done.same_as(&done) {
        return Err("traced result differs from the untraced synthesis".into());
    }
    tally.untraced_s += took.as_secs_f64();
    tally.traced_s += traced_took.as_secs_f64();
    Ok((took, done))
}

/// Per-call evaluation timings, split by how the session answered.
#[derive(Debug, Default, Clone, Copy)]
struct EvalTally {
    delta_n: usize,
    delta_s: f64,
    full_n: usize,
    full_s: f64,
}

impl EvalTally {
    fn add(&mut self, other: &EvalTally) {
        self.delta_n += other.delta_n;
        self.delta_s += other.delta_s;
        self.full_n += other.full_n;
        self.full_s += other.full_s;
    }

    fn count(&mut self, delta: bool, seconds: f64) {
        if delta {
            self.delta_n += 1;
            self.delta_s += seconds;
        } else {
            self.full_n += 1;
            self.full_s += seconds;
        }
    }
}

/// Timing wrapper of a scalar objective: delegates everything and times
/// each session call, classifying it by the session's delta counter.
struct TimedObjective<'a> {
    inner: &'a ColdObjective<'a>,
    tally: Mutex<EvalTally>,
}

impl Objective for TimedObjective<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn distance(&self, u: usize, v: usize) -> f64 {
        self.inner.distance(u, v)
    }
    // The engine evaluates through sessions only; direct calls are not
    // timed.
    fn cost(&self, topology: &AdjacencyMatrix) -> f64 {
        self.inner.cost(topology)
    }
    fn session(&self) -> Box<dyn ObjectiveSession + '_> {
        Box::new(TimedSession {
            inner: self.inner.session(),
            tally: &self.tally,
            local: EvalTally::default(),
        })
    }
    fn k_nearest(&self, k: usize) -> Vec<Vec<usize>> {
        self.inner.k_nearest(k)
    }
}

struct TimedSession<'a> {
    inner: Box<dyn ObjectiveSession + 'a>,
    tally: &'a Mutex<EvalTally>,
    local: EvalTally,
}

impl ObjectiveSession for TimedSession<'_> {
    fn cost(&mut self, topology: &AdjacencyMatrix, base: Option<&AdjacencyMatrix>) -> f64 {
        let before = self.inner.delta_evals();
        let start = Instant::now();
        let cost = self.inner.cost(topology, base);
        self.local.count(self.inner.delta_evals() > before, start.elapsed().as_secs_f64());
        cost
    }
    fn delta_evals(&self) -> usize {
        self.inner.delta_evals()
    }
    fn full_evals(&self) -> usize {
        self.inner.full_evals()
    }
}

impl Drop for TimedSession<'_> {
    fn drop(&mut self) {
        if let Ok(mut tally) = self.tally.lock() {
            tally.add(&self.local);
        }
    }
}

/// Every candidate one Pareto session evaluated, in order, with its
/// lineage hint: enough to replay the session's cost component.
type CallLog = Vec<(AdjacencyMatrix, Option<AdjacencyMatrix>)>;

/// Timing wrapper of the three-objective adapter; also records each
/// session's calls for the post-run replay. The log holds the seconds
/// spent in session calls and every session's calls.
struct TimedMulti<'a> {
    inner: &'a ColdMultiObjective<'a>,
    log: Mutex<(f64, Vec<CallLog>)>,
}

impl MultiObjective for TimedMulti<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }
    fn distance(&self, u: usize, v: usize) -> f64 {
        MultiObjective::distance(self.inner, u, v)
    }
    // As for `TimedObjective::cost`: only session calls are timed.
    fn objectives(&self, topology: &AdjacencyMatrix) -> Vec<f64> {
        self.inner.objectives(topology)
    }
    fn session(&self) -> Box<dyn MultiObjectiveSession + '_> {
        Box::new(TimedMultiSession {
            inner: self.inner.session(),
            log: &self.log,
            calls: Vec::new(),
            seconds: 0.0,
        })
    }
    fn k_nearest(&self, k: usize) -> Vec<Vec<usize>> {
        MultiObjective::k_nearest(self.inner, k)
    }
}

struct TimedMultiSession<'a> {
    inner: Box<dyn MultiObjectiveSession + 'a>,
    log: &'a Mutex<(f64, Vec<CallLog>)>,
    calls: CallLog,
    seconds: f64,
}

impl MultiObjectiveSession for TimedMultiSession<'_> {
    fn objectives(
        &mut self,
        topology: &AdjacencyMatrix,
        base: Option<&AdjacencyMatrix>,
    ) -> Vec<f64> {
        let start = Instant::now();
        let v = self.inner.objectives(topology, base);
        self.seconds += start.elapsed().as_secs_f64();
        self.calls.push((topology.clone(), base.cloned()));
        v
    }
    fn delta_evals(&self) -> usize {
        self.inner.delta_evals()
    }
    fn full_evals(&self) -> usize {
        self.inner.full_evals()
    }
}

impl Drop for TimedMultiSession<'_> {
    fn drop(&mut self) {
        if let Ok(mut log) = self.log.lock() {
            log.0 += self.seconds;
            log.1.push(std::mem::take(&mut self.calls));
        }
    }
}

/// Generation boundaries, timestamped on the span recorder's clock.
struct GenLog {
    origin: Instant,
    offset: f64,
    gens: Vec<(f64, GenerationRecord)>,
}

impl GenerationObserver for GenLog {
    fn on_generation(&mut self, record: &GenerationRecord) {
        self.gens.push((self.offset + self.origin.elapsed().as_secs_f64(), record.clone()));
    }
}

/// Everything the traced runs measure, summed over operations.
#[derive(Debug, Default)]
struct Tally {
    ops: usize,
    untraced_s: f64,
    traced_s: f64,
    op_s: f64,
    context_s: Vec<f64>,
    heuristics_s: Vec<f64>,
    build_s: Vec<f64>,
    stats_s: Vec<f64>,
    ga_s: f64,
    eval_s: f64,
    repair_s: f64,
    gen_s: Vec<f64>,
    gen_other_s: Vec<f64>,
    select_s: Vec<f64>,
    hits: usize,
    requested: usize,
    misses: usize,
    evals: EvalTally,
    candidates: usize,
    candidate_s: f64,
    f1_replay_s: f64,
    sweep_s: Vec<f64>,
}

/// One traced synthesis. Mirrors `ColdConfig::try_synthesize` and
/// `try_synthesize_pareto` step for step: context, heuristic seeding, GA,
/// network build (and statistics, scalar only).
fn run_traced(
    plan: &Plan,
    seed: u64,
    trace: u64,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<(Duration, Done), String> {
    let cfg = &plan.cfg;
    let root = spans.open("op", trace, None);
    let span = spans.open("context.generate", trace, Some(root));
    let ctx = cfg.context.generate(derive_seed(seed, 0xC0));
    tally.context_s.push(spans.close(span));

    let scalar = ColdObjective::new(&ctx, cfg.params);
    let seeds: Vec<AdjacencyMatrix> = match cfg.mode {
        SynthesisMode::GaOnly => Vec::new(),
        SynthesisMode::Initialized => {
            let span = spans.open("heuristics.seed", trace, Some(root));
            let hs =
                all_heuristics(scalar.evaluator(), &cfg.random_greedy, derive_seed(seed, 0x4755));
            tally.heuristics_s.push(spans.close(span));
            hs.into_iter().map(|(_, r)| r.topology).collect()
        }
    };
    let settings = GaSettings { seed: derive_seed(seed, 0x6741), ..cfg.ga };
    let ga_span = spans.open("ga.run", trace, Some(root));
    let mut log = GenLog { origin: Instant::now(), offset: spans.now(), gens: Vec::new() };

    // The operation ends when its root span closes; the Pareto replay
    // that follows is measurement, not synthesis.
    let (took, done) = if plan.pareto {
        let multi = ColdMultiObjective::new(&ctx, cfg.params);
        let timed = TimedMulti { inner: &multi, log: Mutex::new((0.0, Vec::new())) };
        let engine = ParetoGa::try_new(&timed, settings, ARCHIVE).map_err(|e| e.to_string())?;
        let result = engine.try_run_traced(&seeds, Some(&mut log)).map_err(|e| e.to_string())?;
        tally.ga_s += spans.close(ga_span);
        gen_spans(
            spans,
            trace,
            ga_span,
            &log,
            result.eval_stats.eval_seconds,
            "pareto.eval",
            tally,
        );
        tally.hits += result.eval_stats.cache_hits;
        tally.misses += result.eval_stats.cache_misses;
        tally.requested += result.eval_stats.requested;
        let mut designs = Vec::new();
        for p in &result.front {
            let span = spans.open("cost.network_build", trace, Some(root));
            let network =
                Network::build(p.topology.clone(), &ctx, cfg.params).map_err(|e| e.to_string())?;
            tally.build_s.push(spans.close(span));
            designs.push((network.topology, p.objectives.clone()));
        }
        let took = spans.close(root);
        let (seconds, sessions) =
            timed.log.into_inner().map_err(|_| "call log poisoned".to_string())?;
        tally.candidates += sessions.iter().map(Vec::len).sum::<usize>();
        tally.candidate_s += seconds;
        replay_pareto(&ctx, cfg.params, &sessions, tally);
        let done = Done {
            context: ctx.clone(),
            designs,
            history: result.hypervolume_history,
            cache_hits: result.eval_stats.cache_hits,
            cache_misses: result.eval_stats.cache_misses,
        };
        (took, done)
    } else {
        let timed = TimedObjective { inner: &scalar, tally: Mutex::new(EvalTally::default()) };
        let engine = GeneticAlgorithm::try_new(&timed, settings).map_err(|e| e.to_string())?;
        let result =
            engine.run_resumable(&seeds, Some(&mut log), None, None).map_err(|e| e.to_string())?;
        tally.ga_s += spans.close(ga_span);
        gen_spans(spans, trace, ga_span, &log, result.eval_stats.eval_seconds, "cost.eval", tally);
        tally.evals.add(&timed.tally.into_inner().map_err(|_| "tally poisoned".to_string())?);
        tally.hits += result.eval_stats.cache_hits;
        tally.misses += result.eval_stats.cache_misses;
        tally.requested += result.eval_stats.requested;
        let span = spans.open("cost.network_build", trace, Some(root));
        let network = Network::build(result.best.topology.clone(), &ctx, cfg.params)
            .map_err(|e| e.to_string())?;
        tally.build_s.push(spans.close(span));
        let span = spans.open("core.stats", trace, Some(root));
        NetworkStats::compute(&network.graph()).map_err(|e| e.to_string())?;
        tally.stats_s.push(spans.close(span));
        let took = spans.close(root);
        let done = Done {
            context: ctx.clone(),
            designs: vec![(network.topology, vec![network.cost.total()])],
            history: result.history,
            cache_hits: result.eval_stats.cache_hits,
            cache_misses: result.eval_stats.cache_misses,
        };
        (took, done)
    };
    tally.ops += 1;
    tally.op_s += took;
    Ok((Duration::from_secs_f64(took), done))
}

/// Lays the per-generation phase times the engine reports out as spans
/// under the GA span. Within generation `k` the engine breeds, repairs,
/// evaluates, then selects and reports; generation 0's evaluation is the
/// run's evaluation time not claimed by any later generation.
fn gen_spans(
    spans: &mut Spans,
    trace: u64,
    parent: usize,
    log: &GenLog,
    total_eval_s: f64,
    eval_name: &'static str,
    tally: &mut Tally,
) {
    let mut claimed = 0.0;
    let mut prev_report: Option<f64> = None;
    for (report, r) in &log.gens {
        let eval_start = report - r.eval_seconds;
        let repair_start = eval_start - r.repair_seconds;
        let breed_start = repair_start - r.breed_seconds;
        spans.record("ga.breed", trace, Some(parent), breed_start, repair_start);
        spans.record("ga.repair", trace, Some(parent), repair_start, eval_start);
        spans.record(eval_name, trace, Some(parent), eval_start, *report);
        match prev_report {
            None => {
                let e0 = total_eval_s - log.gens.iter().map(|g| g.1.eval_seconds).sum::<f64>();
                if e0 > 0.0 {
                    spans.record(eval_name, trace, Some(parent), breed_start - e0, breed_start);
                }
            }
            Some(prev) => {
                let wall = report - prev;
                tally.gen_s.push(wall);
                tally.gen_other_s.push(wall - r.breed_seconds - r.repair_seconds - r.eval_seconds);
                tally.select_s.push(wall - r.eval_seconds);
            }
        }
        claimed += r.eval_seconds;
        tally.repair_s += r.repair_seconds;
        prev_report = Some(*report);
    }
    tally.eval_s += total_eval_s.max(claimed);
}

/// Replays the Pareto sessions' cost component through fresh delta
/// evaluators (same candidates, same order, same hints, hence the same
/// delta/full decisions) and a sample of their failure sweeps.
fn replay_pareto(ctx: &Context, params: CostParams, sessions: &[CallLog], tally: &mut Tally) {
    /// Every this-many-th candidate gets its failure sweep replayed.
    const SWEEP_SAMPLE: usize = 8;
    for calls in sessions {
        let mut delta = DeltaEval::new(ctx, params);
        for (i, (topology, base)) in calls.iter().enumerate() {
            let before = delta.delta_evals();
            let start = Instant::now();
            let cost = delta.eval(topology, base.as_ref());
            let seconds = start.elapsed().as_secs_f64();
            std::hint::black_box(cost.ok());
            tally.f1_replay_s += seconds;
            tally.evals.count(delta.delta_evals() > before, seconds);
            if i % SWEEP_SAMPLE == 0 {
                if let Ok(network) = Network::build(topology.clone(), ctx, params) {
                    let start = Instant::now();
                    std::hint::black_box(cold::failure::single_link_failures(&network, ctx));
                    tally.sweep_s.push(start.elapsed().as_secs_f64());
                }
            }
        }
    }
}

impl Tally {
    fn report(&self, out: &mut Outcome, spans: &Spans) {
        let ops = self.ops.max(1) as f64;
        out.set("context.generate_ms", 1e3 * mean(self.context_s.iter().copied()));
        out.set("heuristics.seed_ms", 1e3 * mean(self.heuristics_s.iter().copied()));
        let heuristics_s = self.heuristics_s.iter().fold(0.0, |a, b| a + b);
        out.set("heuristics.share_pct", pct(heuristics_s, self.op_s));
        out.set("cost.network_build_ms", 1e3 * mean(self.build_s.iter().copied()));
        out.set("core.stats_ms", 1e3 * mean(self.stats_s.iter().copied()));
        let e = &self.evals;
        if e.delta_n > 0 {
            out.set("cost.delta_eval_us", 1e6 * e.delta_s / e.delta_n as f64);
        }
        if e.full_n > 0 {
            out.set("cost.full_eval_us", 1e6 * e.full_s / e.full_n as f64);
        }
        out.set("cost.delta_fallback_pct", pct(e.full_n as f64, (e.delta_n + e.full_n) as f64));
        out.set("cost.evals_per_network", self.misses as f64 / ops);
        out.set("ga.cache_hit_pct", pct(self.hits as f64, self.requested as f64));
        out.set("ga.gen_ms", 1e3 * mean(self.gen_s.iter().copied()));
        out.set("ga.eval_share_pct", pct(self.eval_s, self.ga_s));
        out.set("ga.other_ms_per_gen", 1e3 * mean(self.gen_other_s.iter().copied()));
        out.set("ga.repair_pct", pct(self.repair_s, self.ga_s));
        if self.candidates > 0 {
            out.set("pareto.candidate_eval_ms", 1e3 * self.candidate_s / self.candidates as f64);
            out.set("pareto.f1_share_pct", pct(self.f1_replay_s, self.candidate_s));
            out.set("pareto.select_ms_per_gen", 1e3 * mean(self.select_s.iter().copied()));
            out.set("failure.sweep_ms", 1e3 * mean(self.sweep_s.iter().copied()));
        }
        let layers = spans.self_times();
        let unattributed = layers.get("op").copied().unwrap_or(0.0);
        out.set("core.unattributed_pct", pct(unattributed, self.op_s));
        out.set("obs.trace_overhead_pct", pct(self.traced_s - self.untraced_s, self.untraced_s));
        let listing: Vec<String> =
            layers.iter().map(|(layer, s)| format!("{layer} {:.1}%", pct(*s, self.op_s))).collect();
        out.note(format!(
            "self time by layer over {} traced operations: {}",
            self.ops,
            listing.join(", ")
        ));
    }
}

/// The Fig 4 large-n point without a full synthesis: a fixed chain of
/// GA-like moves at `n` PoPs (500 in the benchmark), priced from scratch
/// by `evaluate_total` and incrementally by one `DeltaEval` session, which
/// must agree to the bit.
fn kernel_probe(n: usize, seed: u64, out: &mut Outcome) -> Result<(), String> {
    const STEPS: usize = 40;
    let params = CostParams::paper(4e-4, 10.0);
    let probe = derive_seed(seed, 0x500);
    let ctx = cold::context::ContextConfig::paper_default(n).generate(probe);
    let neighbors = ctx.k_nearest(12);
    let mut draw = 0u64;
    let mut next = |m: u64| {
        draw += 1;
        (derive_seed(probe, draw) % m) as usize
    };
    // Two lineages: the spanning tree, and a design 48 short links away
    // from it, so that crossovers between them land near the session's
    // 32-flip limit, as GA offspring often do.
    let mst = mst_matrix(n, ctx.distance_fn());
    let mut far = mst.clone();
    for _ in 0..48 {
        let u = next(n as u64);
        far.set_edge(u, neighbors[u][next(neighbors[u].len() as u64)], true);
    }
    // (design, index of the design it was derived from)
    let mut chain: Vec<(AdjacencyMatrix, Option<usize>)> = vec![(mst, None), (far, None)];
    while chain.len() < STEPS {
        let (mut t, from) = if next(4) == 0 {
            // Crossover: every pair the parents disagree on comes from
            // either parent at random; the first parent is the hint.
            let (a, b) = (next(chain.len() as u64), next(chain.len() as u64));
            let (first, second) = (&chain[a].0, &chain[b].0);
            let mut child = first.clone();
            for (u, v) in second.edges().filter(|&(u, v)| !first.has_edge(u, v)) {
                if next(2) == 0 {
                    child.set_edge(u, v, true);
                }
            }
            for (u, v) in first.edges().filter(|&(u, v)| !second.has_edge(u, v)) {
                if next(2) == 0 {
                    child.set_edge(u, v, false);
                    if !matrix_is_connected(&child) {
                        child.set_edge(u, v, true);
                    }
                }
            }
            (child, a)
        } else {
            (chain[chain.len() - 1].0.clone(), chain.len() - 1)
        };
        // Then a link mutation of one to three flips among near pairs.
        for _ in 0..1 + next(3) {
            let u = next(n as u64);
            let v = neighbors[u][next(neighbors[u].len() as u64)];
            let had = t.has_edge(u, v);
            t.set_edge(u, v, !had);
            if had && !matrix_is_connected(&t) {
                t.set_edge(u, v, true);
            }
        }
        chain.push((t, Some(from)));
    }
    let mut session = DeltaEval::new(&ctx, params);
    let (mut delta_s, mut full_s, mut repaired) = (0.0, 0.0, 0usize);
    for (t, from) in &chain {
        let start = Instant::now();
        let full = evaluate_total(t, &ctx, &params).map_err(|e| e.to_string())?;
        full_s += start.elapsed().as_secs_f64();
        let before = session.delta_evals();
        let start = Instant::now();
        let delta = session.eval(t, from.map(|j| &chain[j].0)).map_err(|e| e.to_string())?;
        if session.delta_evals() > before {
            delta_s += start.elapsed().as_secs_f64();
            repaired += 1;
        }
        if delta.to_bits() != full.to_bits() {
            out.fail(format!("n = {n} probe: delta {delta} differs from full {full}"));
        }
    }
    out.set("cost.full_eval_us_n500", 1e6 * full_s / chain.len() as f64);
    out.set("cost.delta_eval_us_n500", 1e6 * delta_s / repaired.max(1) as f64);
    out.set(
        "cost.delta_fallback_pct_n500",
        pct((chain.len() - repaired) as f64, chain.len() as f64),
    );
    Ok(())
}
