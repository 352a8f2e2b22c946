//! Multi-objective COLD synthesis: cost vs. resilience vs. delay.
//!
//! The paper optimizes the single scalar of eq. (2), but §2's invitation
//! to extend the model applies to the *shape* of the objective too: an
//! operator rarely wants one network, they want the trade-off curve
//! between build-out budget, failure exposure, and user-visible latency.
//! This module wires COLD's cost model into the NSGA-II engine of
//! [`cold_ga::pareto`] with three objectives, all minimized:
//!
//! 1. **Build cost** — eq. (2) exactly, priced by the same incremental
//!    [`DeltaEval`] session as scalar synthesis, so the delta-evaluation
//!    speedup carries over.
//! 2. **Worst single-link-failure impact** — the worst link's stranded
//!    traffic fraction plus a capped overload term (see [`weigh`] and
//!    [`UTILIZATION_WEIGHT`]), folded by [`crate::failure::worst_failure`].
//!    The fold skips every failure whose bound the running worst already
//!    reaches: `weigh(stranded, U0)` for a bridge (`U0` the candidate's
//!    base peak utilization, about `1/O`) and `weigh(0, ∞)` for any other
//!    link. It visits bridges by decreasing bound, then the other links by
//!    decreasing base load, and the session keeps its buffers from one
//!    candidate to the next.
//! 3. **Demand-weighted mean path length** — the traffic-weighted route
//!    length per unit of offered traffic, a propagation-delay proxy.
//!
//! One routing prices all three: the session's routing of the candidate
//! it just costed, whose rows equal a fresh build's, so f2 and f3 equal
//! what a [`Network::build`] of the candidate gives, bit for bit, without
//! building it. The output is not one network but a bounded Pareto
//! archive; each front member is built into a full [`Network`].

use crate::error::ColdError;
use crate::failure::{worst_failure, FailureReport, SweepBuffers};
use crate::objective::ColdObjective;
use crate::synthesizer::{ColdConfig, RunOptions, SynthesisResult, TrialObjective, TrialSpec};
use cold_context::Context;
use cold_cost::{CostParams, DeltaEval, Network};
use cold_ga::pareto::{MultiObjective, MultiObjectiveSession};
use cold_ga::Objective;
use cold_graph::AdjacencyMatrix;

/// Weight of the capped overload term in the failure-impact objective,
/// relative to the stranded-traffic fraction (which dominates: losing
/// traffic outright is worse than congesting it).
pub const UTILIZATION_WEIGHT: f64 = 0.1;

/// Rerouted utilization beyond this cap stops increasing the impact
/// objective. Also guards the `INFINITY` sentinel
/// [`crate::failure::LinkFailureImpact::max_utilization`] uses for
/// links that carried nothing before a failure.
pub const UTILIZATION_CAP: f64 = 10.0;

/// The impact objective's weight of one failure:
/// `stranded_fraction + UTILIZATION_WEIGHT · min(utilization, CAP)/CAP`.
/// Non-decreasing in utilization; a failure that strands nothing weighs
/// at most `weigh(0.0, f64::INFINITY)`, which is `UTILIZATION_WEIGHT`.
pub fn weigh(stranded_fraction: f64, utilization: f64) -> f64 {
    stranded_fraction + UTILIZATION_WEIGHT * (utilization.min(UTILIZATION_CAP) / UTILIZATION_CAP)
}

/// Collapses a failure report into the scalar the impact objective
/// minimizes: the worst [`weigh`] over all single-link failures.
pub fn failure_impact(report: &FailureReport) -> f64 {
    report
        .impacts
        .iter()
        .map(|i| weigh(i.stranded_traffic_fraction, i.max_utilization))
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

    /// The objective vector of `topology`, priced by `delta`: f1 is the
    /// session's cost, and f2 and f3 read the routing that priced it.
    /// After an injected `eval.*` fault there is no routing; the NaN cost
    /// then fails the trial at the engine's finiteness check.
    fn price(
        &self,
        delta: &mut DeltaEval<'_>,
        sweep: &mut SweepBuffers,
        topology: &AdjacencyMatrix,
        base: Option<&AdjacencyMatrix>,
    ) -> Vec<f64> {
        let cost = delta
            .eval(topology, base)
            .expect("GA repairs candidates before evaluation; topology must be connected");
        let Some(routing) = delta.routing() else { return vec![cost, f64::NAN, f64::NAN] };
        let ctx = self.context();
        let impact = worst_failure(routing, ctx, self.params().overprovision, weigh, sweep);
        let total = ctx.traffic.total();
        let delay = if total > 0.0 { routing.weighted() / total } else { 0.0 };
        vec![cost, impact, delay]
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

    /// Prices `topology` in a session of its own: one full routing pass.
    fn objectives(&self, topology: &AdjacencyMatrix) -> Vec<f64> {
        let delta = &mut DeltaEval::new(self.context(), self.params());
        self.price(delta, &mut SweepBuffers::default(), topology, None)
    }

    fn session(&self) -> Box<dyn MultiObjectiveSession + '_> {
        Box::new(ColdMultiSession {
            objective: self,
            delta: DeltaEval::new(self.context(), self.params()),
            sweep: SweepBuffers::default(),
        })
    }

    fn k_nearest(&self, k: usize) -> Vec<Vec<usize>> {
        Objective::k_nearest(&self.inner, k)
    }
}

/// Per-worker session: one [`DeltaEval`] prices build cost incrementally
/// (bit-identical to a full evaluation), and the failure and delay
/// objectives read the routing it leaves. The failure fold's buffers are
/// kept from one candidate to the next.
struct ColdMultiSession<'a> {
    objective: &'a ColdMultiObjective<'a>,
    delta: DeltaEval<'a>,
    sweep: SweepBuffers,
}

impl MultiObjectiveSession for ColdMultiSession<'_> {
    fn objectives(
        &mut self,
        topology: &AdjacencyMatrix,
        base: Option<&AdjacencyMatrix>,
    ) -> Vec<f64> {
        self.objective.price(&mut self.delta, &mut self.sweep, topology, base)
    }
    fn delta_evals(&self) -> usize {
        self.delta.delta_evals()
    }
    fn full_evals(&self) -> usize {
        self.delta.full_evals()
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

/// Everything produced by one multi-objective synthesis: a
/// [`SynthesisResult`] whose `front`, `hypervolume_history` and
/// `reference` are filled.
pub type ParetoSynthesisResult = SynthesisResult;

/// Default bound on the Pareto archive carried across generations.
pub const DEFAULT_ARCHIVE_CAPACITY: usize = 32;

/// Multi-objective synthesis: generates the context for `seed`, then runs
/// NSGA-II over [`ColdMultiObjective`] — [`ColdConfig::run_trial`] with a
/// [`TrialObjective::Pareto`] objective.
///
/// Telemetry mirrors scalar synthesis: a `run_start` event (mode
/// `"Pareto"`), one `generation` event per generation whose
/// `hypervolume` field carries the archive hypervolume, and a `run_end`
/// summary reporting the cheapest front member as `best_cost`.
///
/// # Errors
/// [`ColdError::Config`] for invalid configuration, [`ColdError::Ga`] for
/// engine failures (non-finite objective components, a zero archive).
pub fn try_synthesize_pareto(
    cfg: &ColdConfig,
    seed: u64,
    archive_capacity: usize,
) -> Result<ParetoSynthesisResult, ColdError> {
    let objective = TrialObjective::Pareto { archive: archive_capacity };
    cfg.run_trial(TrialSpec::new(seed, objective), RunOptions::default())
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

    /// The three objectives of `topology` the way they were priced before
    /// sessions shared their routing: one [`Network::build`], its full
    /// failure report, and its plan's weighted route length.
    fn built_objectives(obj: &ColdMultiObjective, topology: &AdjacencyMatrix) -> Vec<f64> {
        let ctx = obj.context();
        let net = Network::build(topology.clone(), ctx, obj.params()).unwrap();
        let impact = failure_impact(&crate::failure::single_link_failures(&net, ctx));
        let delay = net.plan.traffic_weighted_route_length() / ctx.traffic.total();
        vec![ColdObjective::new(ctx, obj.params()).cost(topology), impact, delay]
    }

    #[test]
    fn session_objectives_equal_the_stateless_ones_on_every_delta_path() {
        // A chain that takes each `DeltaEval` path: a full pass, a
        // repair, a duplicate of a pooled topology (0 flips), a second
        // full pass far from every anchor, and a repair from it.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for overprovision in [1.0, 4.0] {
            let cfg = quick_cfg(12);
            let ctx = cfg.context.generate(6);
            let obj = ColdMultiObjective::new(&ctx, cfg.params.with_overprovision(overprovision));
            let mst = cold_graph::mst::mst_matrix(12, ctx.distance_fn());
            let mut chord = mst.clone();
            let (a, b) = (0..12)
                .flat_map(|a| (a + 1..12).map(move |b| (a, b)))
                .find(|&(a, b)| !mst.has_edge(a, b))
                .unwrap();
            chord.set_edge(a, b, true);
            let clique = AdjacencyMatrix::complete(12);
            let mut pruned = clique.clone();
            pruned.set_edge(a, b, false);
            let chain = [&mst, &chord, &mst, &clique, &pruned];
            let paths = [(0, 1), (1, 1), (2, 1), (2, 2), (3, 2)];
            let mut session = obj.session();
            for (step, (topology, path)) in chain.into_iter().zip(paths).enumerate() {
                let got = session.objectives(topology, None);
                assert_eq!(
                    bits(&got),
                    bits(&obj.objectives(topology)),
                    "O {overprovision} step {step}"
                );
                assert_eq!(bits(&got), bits(&built_objectives(&obj, topology)), "step {step}");
                assert_eq!((session.delta_evals(), session.full_evals()), path, "step {step}");
            }
        }
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
    fn stalled_front_is_pinned_to_the_bit() {
        // The stall guard reads the archive hypervolume: the run stops on the
        // first generation that does not raise it.
        const FRONT: [[u64; 3]; 16] = [
            [0x407d62c1dab8753d, 0x3fe2f866db77c9d3, 0x4031bb45e124726a],
            [0x407fa47f498aa362, 0x3fe1b0e84fafffba, 0x40321c086efc777e],
            [0x4080edac01626f8a, 0x3fd769500dc30441, 0x403167afc4ce01cb],
            [0x4081cdcd3d4406c1, 0x3fc2116b8c32820e, 0x4030fc363041368c],
            [0x40824ad303d4a52a, 0x3fbb9822145b6516, 0x4030b3a51a9cca8e],
            [0x40843a76a6a704ec, 0x3fb999999999999a, 0x4030e12e17b066cf],
            [0x408538e6e330a02c, 0x3fc2116b8c32820e, 0x403064010e3d2841],
            [0x40863d12fad21ea1, 0x3fc4fa7199869823, 0x40303e7d902ce51f],
            [0x4088f8a778bb7575, 0x3fb999999999999a, 0x402fbfac4838cbbf],
            [0x408ce2061c85449a, 0x3fb999999999999a, 0x402f7e44b731782d],
            [0x4090fda7d9606f3e, 0x3fb999999999999a, 0x402f4cbe1ec3e39d],
            [0x40926e7e64dba296, 0x3fb63b3a55b544b8, 0x402f560f44ef0897],
            [0x409332c5882e3197, 0x3fb999999999999a, 0x402f1e49d74f8696],
            [0x40952f5ac728e873, 0x3fb999999999999a, 0x402ece2bd28916a1],
            [0x40982f1f670570ab, 0x3fb999999999999a, 0x402e925f1e9a53b4],
            [0x409b4822c6620776, 0x3fb999999999999a, 0x402e831cdd6b5f0e],
        ];
        const HYPERVOLUME: [u64; 23] = [
            0x40dac0f8dd98f085,
            0x40dc42f2576c65ad,
            0x40dd83d12eac3bae,
            0x40dea7e7796bb252,
            0x40deb9a49fab19e6,
            0x40dee46e1b56b238,
            0x40df0946c7005281,
            0x40df6e73ff172a06,
            0x40e0105c527f27a8,
            0x40e0365bd14e0be9,
            0x40e039c78507bda0,
            0x40e04c24a1366c02,
            0x40e05aaa58104868,
            0x40e05d0bcc22f08e,
            0x40e0629fb595d407,
            0x40e0659e8b2107b0,
            0x40e066b91ad64fe6,
            0x40e06bb1bca79ce0,
            0x40e06d2144b26098,
            0x40e06d4b5db73401,
            0x40e0a972d38525b1,
            0x40e0aaadcd3d8ffc,
            0x40e0aaadcd3d8ffc,
        ];
        let mut cfg = quick_cfg(12);
        cfg.ga.generations = 40;
        cfg.ga.stall_gens = Some(1);
        let r = try_synthesize_pareto(&cfg, 2014, 16).unwrap();
        assert_eq!(r.stop_reason, cold_ga::StopReason::Stalled);
        assert_eq!(r.generations_run, 22);
        let front: Vec<[u64; 3]> =
            r.front.iter().map(|m| [0, 1, 2].map(|k| m.objectives[k].to_bits())).collect();
        assert_eq!(front, FRONT);
        let hv: Vec<u64> = r.hypervolume_history.iter().map(|h| h.to_bits()).collect();
        assert_eq!(hv, HYPERVOLUME);
    }

    #[test]
    fn early_stopped_front_is_pinned_to_the_bit() {
        // The plateau guard reads the archive hypervolume too.
        const FRONT: [[u64; 3]; 16] = [
            [0x407d62c1dab8753d, 0x3fe2f866db77c9d3, 0x4031bb45e124726a],
            [0x407d9e244fa2630a, 0x3fe2f866db77c9d3, 0x4031b4cb2e4b5735],
            [0x4083f1f45dc0a773, 0x3fcc0fe5fe9a0c39, 0x4031af4ab9971975],
            [0x408605a618ab1899, 0x3fcc0fe5fe9a0c39, 0x403185d31e179452],
            [0x40872164a243e4b9, 0x3fc2116b8c32820e, 0x4034a3c6a63eb16a],
            [0x4087cb23ac7d11f0, 0x3fb999999999999a, 0x40334ad235b23d0b],
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
        const HYPERVOLUME: [u64; 6] = [
            0x40dac0f8dd98f085,
            0x40dc42f2576c65ad,
            0x40dd83d12eac3bae,
            0x40dea7e7796bb252,
            0x40deb9a49fab19e6,
            0x40dee46e1b56b238,
        ];
        let mut cfg = quick_cfg(12);
        cfg.ga.generations = 40;
        cfg.ga.early_stop = Some(cold_ga::EarlyStop { window: 2, rel_tol: 0.01 });
        let r = try_synthesize_pareto(&cfg, 2014, 16).unwrap();
        assert_eq!(r.stop_reason, cold_ga::StopReason::EarlyStopped);
        assert_eq!(r.generations_run, 5);
        let front: Vec<[u64; 3]> =
            r.front.iter().map(|m| [0, 1, 2].map(|k| m.objectives[k].to_bits())).collect();
        assert_eq!(front, FRONT);
        let hv: Vec<u64> = r.hypervolume_history.iter().map(|h| h.to_bits()).collect();
        assert_eq!(hv, HYPERVOLUME);
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
