//! Multi-objective COLD synthesis: cost vs. resilience vs. delay.
//!
//! The paper optimizes the single scalar of eq. (2), but §2's invitation
//! to extend the model applies to the *shape* of the objective too: an
//! operator rarely wants one network, they want the trade-off curve
//! between build-out budget, failure exposure, and user-visible latency.
//! This module wires COLD's cost model into the NSGA-II engine of
//! [`cold_ga::pareto`] with three objectives, all minimized:
//!
//! 1. **Build cost** — eq. (2) exactly, evaluated through the same
//!    incremental [`cold_ga::ObjectiveSession`] machinery as scalar
//!    synthesis, so the delta-evaluation speedup carries over.
//! 2. **Worst single-link-failure impact** — from
//!    [`crate::failure::single_link_failures`]: the worst link's stranded
//!    traffic fraction plus a capped overload term (see
//!    [`UTILIZATION_WEIGHT`]).
//! 3. **Demand-weighted mean path length** — the capacity plan's
//!    traffic-weighted route length per unit of offered traffic, a
//!    propagation-delay proxy.
//!
//! The output is not one network but a bounded Pareto archive; each
//! front member is built into a full [`Network`].

use crate::error::ColdError;
use crate::failure::{single_link_failures, FailureReport};
use crate::objective::ColdObjective;
use crate::synthesizer::{ColdConfig, ProgressSink, SynthesisMode};
use cold_context::rng::derive_seed;
use cold_context::Context;
use cold_cost::{CostParams, Network};
use cold_ga::pareto::{MultiObjective, MultiObjectiveSession};
use cold_ga::{GaSettings, Objective, ObjectiveSession};
use cold_graph::AdjacencyMatrix;
use cold_heuristics::all_heuristics;

/// Weight of the capped overload term in the failure-impact objective,
/// relative to the stranded-traffic fraction (which dominates: losing
/// traffic outright is worse than congesting it).
pub const UTILIZATION_WEIGHT: f64 = 0.1;

/// Rerouted utilization beyond this cap stops increasing the impact
/// objective. Also guards the `INFINITY` sentinel
/// [`crate::failure::LinkFailureImpact::max_utilization`] uses for
/// links that carried nothing before a failure.
pub const UTILIZATION_CAP: f64 = 10.0;

/// Collapses a failure report into the scalar the impact objective
/// minimizes: over all single-link failures, the worst value of
/// `stranded_fraction + UTILIZATION_WEIGHT · min(util, CAP)/CAP`.
pub fn failure_impact(report: &FailureReport) -> f64 {
    report
        .impacts
        .iter()
        .map(|i| {
            i.stranded_traffic_fraction
                + UTILIZATION_WEIGHT * (i.max_utilization.min(UTILIZATION_CAP) / UTILIZATION_CAP)
        })
        .fold(0.0, f64::max)
}

/// COLD's three objectives packaged for the NSGA-II engine.
#[derive(Debug, Clone)]
pub struct ColdMultiObjective<'a> {
    inner: ColdObjective<'a>,
}

impl<'a> ColdMultiObjective<'a> {
    /// Creates the three-objective adapter for a context and cost
    /// parameters.
    pub fn new(ctx: &'a Context, params: CostParams) -> Self {
        Self { inner: ColdObjective::new(ctx, params) }
    }

    /// The context being optimized for.
    pub fn context(&self) -> &'a Context {
        self.inner.context()
    }

    /// The cost parameters.
    pub fn params(&self) -> CostParams {
        self.inner.params()
    }

    /// Objectives 2 and 3 — failure impact and demand-weighted mean path
    /// length. Both need full routing on the candidate, so they share one
    /// [`Network::build`].
    fn tail_objectives(&self, topology: &AdjacencyMatrix) -> (f64, f64) {
        let ctx = self.inner.context();
        let network = Network::build(topology.clone(), ctx, self.inner.params())
            .expect("GA repairs candidates before evaluation; topology must be connected");
        let impact = failure_impact(&single_link_failures(&network, ctx));
        let total = ctx.traffic.total();
        let delay =
            if total > 0.0 { network.plan.traffic_weighted_route_length() / total } else { 0.0 };
        (impact, delay)
    }
}

impl MultiObjective for ColdMultiObjective<'_> {
    fn n(&self) -> usize {
        Objective::n(&self.inner)
    }

    fn num_objectives(&self) -> usize {
        3
    }

    fn distance(&self, u: usize, v: usize) -> f64 {
        Objective::distance(&self.inner, u, v)
    }

    fn objectives(&self, topology: &AdjacencyMatrix) -> Vec<f64> {
        let cost = self.inner.cost(topology);
        let (impact, delay) = self.tail_objectives(topology);
        vec![cost, impact, delay]
    }

    fn session(&self) -> Box<dyn MultiObjectiveSession + '_> {
        // The cost component rides the inner delta session (bit-identical
        // to a full evaluation); the failure and delay components are pure
        // functions of the topology, recomputed per call.
        Box::new(ColdMultiSession { objective: self, inner: self.inner.session() })
    }

    fn k_nearest(&self, k: usize) -> Vec<Vec<usize>> {
        Objective::k_nearest(&self.inner, k)
    }
}

/// Per-worker session: incremental cost evaluation plus the two
/// routing-bound objectives.
struct ColdMultiSession<'a> {
    objective: &'a ColdMultiObjective<'a>,
    inner: Box<dyn ObjectiveSession + 'a>,
}

impl MultiObjectiveSession for ColdMultiSession<'_> {
    fn objectives(
        &mut self,
        topology: &AdjacencyMatrix,
        base: Option<&AdjacencyMatrix>,
    ) -> Vec<f64> {
        let cost = self.inner.cost(topology, base);
        let (impact, delay) = self.objective.tail_objectives(topology);
        vec![cost, impact, delay]
    }
    fn delta_evals(&self) -> usize {
        self.inner.delta_evals()
    }
    fn full_evals(&self) -> usize {
        self.inner.full_evals()
    }
}

/// One member of a served Pareto front: the fully built network plus its
/// objective vector `[build cost, failure impact, mean path length]`.
#[derive(Debug, Clone)]
pub struct ParetoFrontMember {
    /// The simulation-ready network.
    pub network: Network,
    /// The member's objective vector, same order as
    /// [`ColdMultiObjective::objectives`].
    pub objectives: Vec<f64>,
}

/// Everything produced by one multi-objective synthesis.
#[derive(Debug, Clone)]
pub struct ParetoSynthesisResult {
    /// The JSONL run journal, when journal tracing was active.
    pub journal_path: Option<std::path::PathBuf>,
    /// The context the front was designed for.
    pub context: Context,
    /// The final archive, every member built into a network. Mutually
    /// non-dominated, sorted lexicographically by objective vector.
    pub front: Vec<ParetoFrontMember>,
    /// Archive hypervolume after each generation (index 0 = after the
    /// initial population). Monotone non-decreasing.
    pub hypervolume_history: Vec<f64>,
    /// The fixed hypervolume reference point.
    pub reference: Vec<f64>,
    /// Generations actually run.
    pub generations_run: usize,
    /// Objective evaluations requested.
    pub evaluations: usize,
    /// Fitness-cache and delta-evaluation counters.
    pub eval_stats: cold_ga::EvalStats,
    /// Why the engine returned.
    pub stop_reason: cold_ga::StopReason,
}

impl ParetoSynthesisResult {
    /// The front member with the lowest build cost.
    pub fn cheapest(&self) -> Option<&ParetoFrontMember> {
        self.front.iter().min_by(|a, b| a.objectives[0].total_cmp(&b.objectives[0]))
    }

    /// The final archive hypervolume.
    pub fn hypervolume(&self) -> f64 {
        self.hypervolume_history.last().copied().unwrap_or(0.0)
    }
}

/// Default bound on the Pareto archive carried across generations.
pub const DEFAULT_ARCHIVE_CAPACITY: usize = 32;

/// Multi-objective synthesis: generates the context for `seed`, then runs
/// NSGA-II over [`ColdMultiObjective`].
///
/// # Errors
/// [`ColdError::Config`] for invalid configuration, [`ColdError::Ga`] for
/// engine failures (non-finite objective components, bad settings).
pub fn try_synthesize_pareto(
    cfg: &ColdConfig,
    seed: u64,
    archive_capacity: usize,
) -> Result<ParetoSynthesisResult, ColdError> {
    cfg.validate()?;
    let ctx = cfg.context.generate(derive_seed(seed, 0xC0));
    try_synthesize_pareto_in_context(cfg, ctx, seed, archive_capacity, None)
}

/// [`try_synthesize_pareto`] within an explicit context, with an optional
/// live per-generation [`ProgressSink`] — the serve layer's entry point.
///
/// Telemetry mirrors scalar synthesis: a `run_start` event (mode
/// `"Pareto"`), one `generation` event per generation whose
/// `hypervolume` field carries the archive hypervolume, and a `run_end`
/// summary reporting the cheapest front member as `best_cost`.
///
/// # Errors
/// As [`try_synthesize_pareto`].
pub fn try_synthesize_pareto_in_context(
    cfg: &ColdConfig,
    ctx: Context,
    seed: u64,
    archive_capacity: usize,
    progress: Option<ProgressSink>,
) -> Result<ParetoSynthesisResult, ColdError> {
    let _span = cold_obs::span("core.synthesize_pareto");
    let traced = cold_obs::is_enabled();
    if traced {
        cold_obs::emit(&cold_obs::Event::RunStart(cold_obs::RunStart {
            run: cold_obs::run_id(seed),
            n: ctx.n(),
            mode: "Pareto".into(),
            generations: cfg.ga.generations,
            population: cfg.ga.population,
        }));
    }
    let objective = ColdMultiObjective::new(&ctx, cfg.params);
    let seeds: Vec<AdjacencyMatrix> = match cfg.mode {
        SynthesisMode::GaOnly => Vec::new(),
        SynthesisMode::Initialized => {
            let _t = cold_obs::timer("core.heuristic_seed");
            all_heuristics(
                objective.inner.evaluator(),
                &cfg.random_greedy,
                derive_seed(seed, 0x4755),
            )
            .into_iter()
            .map(|(_, r)| r.topology)
            .collect()
        }
    };
    let ga_settings = GaSettings { seed: derive_seed(seed, 0x6741), ..cfg.ga };
    let engine = cold_ga::pareto::ParetoGa::try_new(&objective, ga_settings, archive_capacity)?;
    let mut observer = crate::synthesizer::ObserverFanout::new(
        traced.then(|| cold_obs::TraceObserver::new(seed)),
        progress,
    );
    let result = if observer.is_active() {
        engine.try_run_traced(&seeds, Some(&mut observer))?
    } else {
        engine.try_run_traced(&seeds, None)?
    };
    let front: Vec<ParetoFrontMember> = result
        .front
        .iter()
        .map(|p| {
            let network = Network::build(p.topology.clone(), &ctx, cfg.params)
                .expect("archive members are repaired candidates, hence connected");
            ParetoFrontMember { network, objectives: p.objectives.clone() }
        })
        .collect();
    if traced {
        cold_obs::emit(&cold_obs::Event::RunEnd(cold_obs::RunEnd {
            run: cold_obs::run_id(seed),
            generations_run: result.generations_run,
            best_cost: front.iter().map(|m| m.objectives[0]).fold(f64::INFINITY, f64::min),
            evaluations: result.evaluations,
            cache_hit_rate: result.eval_stats.hit_rate(),
            eval_seconds: result.eval_stats.eval_seconds,
            repair_rate: result.repair_stats.repair_rate(),
        }));
    }
    Ok(ParetoSynthesisResult {
        journal_path: cold_obs::journal_path(),
        context: ctx,
        front,
        hypervolume_history: result.hypervolume_history,
        reference: result.reference,
        generations_run: result.generations_run,
        evaluations: result.evaluations,
        eval_stats: result.eval_stats,
        stop_reason: result.stop_reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cold_ga::pareto::dominates;

    fn quick_cfg(n: usize) -> ColdConfig {
        let mut cfg = ColdConfig::quick(n, 4e-4, 10.0);
        cfg.ga.generations = 6;
        cfg
    }

    #[test]
    fn objective_vector_has_three_finite_components() {
        let cfg = quick_cfg(6);
        let ctx = cfg.context.generate(1);
        let obj = ColdMultiObjective::new(&ctx, cfg.params);
        let mst = cold_graph::mst::mst_matrix(6, ctx.distance_fn());
        let v = obj.objectives(&mst);
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|x| x.is_finite()), "{v:?}");
        // A tree strands traffic on every cut: nonzero impact.
        assert!(v[1] > 0.0);
        // Build cost matches the scalar objective exactly.
        assert_eq!(v[0], ColdObjective::new(&ctx, cfg.params).cost(&mst));
    }

    #[test]
    fn session_is_bit_identical_to_full_evaluation() {
        let cfg = quick_cfg(7);
        let ctx = cfg.context.generate(2);
        let obj = ColdMultiObjective::new(&ctx, cfg.params);
        let mut session = obj.session();
        let mst = cold_graph::mst::mst_matrix(7, ctx.distance_fn());
        assert_eq!(session.objectives(&mst, None), obj.objectives(&mst));
        let mut ringed = mst.clone();
        ringed.set_edge(0, 6, true);
        assert_eq!(session.objectives(&ringed, Some(&mst)), obj.objectives(&ringed));
        assert!(session.delta_evals() > 0, "cost component must take the delta path");
    }

    #[test]
    fn pareto_synthesis_yields_mutually_non_dominated_networks() {
        let cfg = quick_cfg(8);
        let r = try_synthesize_pareto(&cfg, 3, 16).unwrap();
        assert!(r.front.len() >= 2, "front of {} gives no trade-off", r.front.len());
        for a in &r.front {
            for b in &r.front {
                assert!(
                    !dominates(&a.objectives, &b.objectives),
                    "{:?} dominates {:?}",
                    a.objectives,
                    b.objectives
                );
            }
        }
        for w in r.hypervolume_history.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "hypervolume regressed: {:?}", w);
        }
        assert!(r.hypervolume() > 0.0);
        assert!(r.eval_stats.delta_evals > 0, "pareto runs must reuse delta evaluation");
        // Every member is a real, connected network.
        for m in &r.front {
            assert!(m.network.total_cost() > 0.0);
            assert_eq!(m.network.n(), 8);
        }
    }

    #[test]
    fn pareto_synthesis_is_deterministic() {
        let cfg = quick_cfg(7);
        let a = try_synthesize_pareto(&cfg, 5, 8).unwrap();
        let b = try_synthesize_pareto(&cfg, 5, 8).unwrap();
        assert_eq!(a.front.len(), b.front.len());
        for (x, y) in a.front.iter().zip(&b.front) {
            assert_eq!(x.network.topology, y.network.topology);
            assert_eq!(x.objectives, y.objectives);
        }
        assert_eq!(a.hypervolume_history, b.hypervolume_history);
    }

    /// Quick n = 12, T = 6, seed 2014, archive 16: the pinned front.
    fn pinned_run(parallel: bool) -> ParetoSynthesisResult {
        let mut cfg = quick_cfg(12);
        cfg.ga.parallel = parallel;
        try_synthesize_pareto(&cfg, 2014, 16).unwrap()
    }

    #[test]
    fn fixed_seed_front_is_pinned_to_the_bit() {
        // Recorded with the failure sweep's oracle (a full re-route per
        // failed link, `failure::tests`): the incremental sweep must
        // reproduce these bits.
        const FRONT: [[u64; 3]; 16] = [
            [0x407d62c1dab8753d, 0x3fe2f866db77c9d3, 0x4031bb45e124726a],
            [0x4081b94a85a7cd54, 0x3fe316ac7dc39141, 0x40319277b323a222],
            [0x4083f1f45dc0a773, 0x3fcc0fe5fe9a0c39, 0x4031af4ab9971975],
            [0x4085eaf0d3c653ee, 0x3fc2116b8c32820e, 0x4034acba9749187f],
            [0x408605a618ab1899, 0x3fcc0fe5fe9a0c39, 0x403185d31e179452],
            [0x40864288745ee0b0, 0x3fb999999999999a, 0x403353ad2c7a79c7],
            [0x4088622f5c44137e, 0x3fb999999999999a, 0x4032cdaf227f221b],
            [0x408930a4c54e6982, 0x3fb999999999999a, 0x4031b1044825920a],
            [0x408a92799f73c5ca, 0x3fbb9822145b6516, 0x4031a31cbbcb3c3c],
            [0x408db88dfbc032d3, 0x3fb999999999999a, 0x4030bc8d42decaa6],
            [0x408fe9f45fea8ee8, 0x3fb999999999999a, 0x402f86e72ac34437],
            [0x4093a937b7190fc9, 0x3fb999999999999a, 0x402f446b45a37f6a],
            [0x4094ca2af72e52eb, 0x3fb999999999999a, 0x402ef6f4173097e7],
            [0x409a77732902bf1e, 0x3fb999999999999a, 0x402ea90ef43718cb],
            [0x409cc5da8f214eac, 0x3fb999999999999a, 0x402e8924c9a8da59],
            [0x409ef68ef2a2ad38, 0x3fb999999999999a, 0x402e7c90ef6acfba],
        ];
        const HYPERVOLUME: [u64; 7] = [
            0x40dac0f8dd98f085,
            0x40dc42f2576c65ad,
            0x40dd83d12eac3bae,
            0x40dea7e7796bb252,
            0x40deb9a49fab19e6,
            0x40dee46e1b56b238,
            0x40df0946c7005281,
        ];
        let r = pinned_run(true);
        let front: Vec<[u64; 3]> =
            r.front.iter().map(|m| [0, 1, 2].map(|k| m.objectives[k].to_bits())).collect();
        assert_eq!(front, FRONT);
        let hv: Vec<u64> = r.hypervolume_history.iter().map(|h| h.to_bits()).collect();
        assert_eq!(hv, HYPERVOLUME);
    }

    #[test]
    fn serial_and_parallel_fronts_agree() {
        let (serial, parallel) = (pinned_run(false), pinned_run(true));
        assert_eq!(serial.front.len(), parallel.front.len());
        for (a, b) in serial.front.iter().zip(&parallel.front) {
            assert_eq!(a.network.topology, b.network.topology);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.objectives), bits(&b.objectives));
        }
        assert_eq!(serial.hypervolume_history, parallel.hypervolume_history);
        assert_eq!(serial.evaluations, parallel.evaluations);
    }

    #[test]
    fn utilization_term_is_capped() {
        let report = FailureReport {
            impacts: vec![crate::failure::LinkFailureImpact {
                link: (0, 1),
                stranded_traffic_fraction: 0.25,
                max_utilization: f64::INFINITY,
                overloaded_links: 1,
                mean_stretch: 1.0,
            }],
        };
        let impact = failure_impact(&report);
        assert!(impact.is_finite());
        assert!((impact - (0.25 + UTILIZATION_WEIGHT)).abs() < 1e-12);
    }
}
