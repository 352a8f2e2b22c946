//! Redundancy-aware synthesis — the extension §2 invites.
//!
//! The PoP-level model deliberately omits redundancy ("We do not include
//! redundancy, port numbers or other complex constraints at this level",
//! §3.2), but the paper stresses that "it is generally easy to add
//! additional costs or constraints to the model" (§2). This module does
//! exactly that: a wrapper [`Objective`] that adds a *bridge cost* — every
//! link whose single failure would disconnect the network incurs an extra
//! penalty — plus survivability analysis of the result.
//!
//! With a small bridge cost the GA trades some build-out budget for rings;
//! with a large one it produces fully 2-edge-connected networks. The cost
//! stays operationally meaningful: it is the expected price of an outage
//! on an unprotected link.

use crate::failure::cross_cut_demand;
use crate::objective::ColdObjective;
use cold_context::Context;
use cold_cost::CostParams;
use cold_ga::{Objective, ObjectiveSession};
use cold_graph::connectivity::cut_structure;
use cold_graph::AdjacencyMatrix;
use serde::{Deserialize, Serialize};

/// The COLD objective plus a per-bridge outage cost.
#[derive(Debug, Clone)]
pub struct ResilientObjective<'a> {
    inner: ColdObjective<'a>,
    /// Extra cost charged for every bridge link.
    pub bridge_cost: f64,
}

impl<'a> ResilientObjective<'a> {
    /// Wraps the standard objective with a bridge penalty.
    ///
    /// # Panics
    /// Panics if `bridge_cost` is negative or non-finite.
    pub fn new(ctx: &'a Context, params: CostParams, bridge_cost: f64) -> Self {
        assert!(bridge_cost >= 0.0 && bridge_cost.is_finite(), "bridge cost must be >= 0");
        Self { inner: ColdObjective::new(ctx, params), bridge_cost }
    }

    /// The wrapped plain objective.
    pub fn inner(&self) -> &ColdObjective<'a> {
        &self.inner
    }
}

impl Objective for ResilientObjective<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn distance(&self, u: usize, v: usize) -> f64 {
        self.inner.distance(u, v)
    }
    fn cost(&self, topology: &AdjacencyMatrix) -> f64 {
        let base = self.inner.cost(topology);
        if self.bridge_cost == 0.0 {
            return base;
        }
        let bridges = cut_structure(&topology.to_graph()).bridges.len();
        base + self.bridge_cost * bridges as f64
    }

    fn session(&self) -> Box<dyn ObjectiveSession + '_> {
        // Delegate to the inner delta session and add the bridge term on
        // top. Without this override the trait default wraps `cost()` in a
        // stateless session, so every resilient evaluation silently paid
        // for full APSP routing.
        Box::new(ResilientSession { inner: self.inner.session(), bridge_cost: self.bridge_cost })
    }

    fn k_nearest(&self, k: usize) -> Vec<Vec<usize>> {
        self.inner.k_nearest(k)
    }
}

/// Per-worker session: the inner objective's incremental evaluation plus
/// the bridge penalty, which is cheap (one DFS) and recomputed per call.
/// Bit-identical to [`ResilientObjective::cost`] because the inner session
/// is bit-identical to the inner objective and the bridge term is a pure
/// function of the topology.
struct ResilientSession<'a> {
    inner: Box<dyn ObjectiveSession + 'a>,
    bridge_cost: f64,
}

impl ObjectiveSession for ResilientSession<'_> {
    fn cost(&mut self, topology: &AdjacencyMatrix, base: Option<&AdjacencyMatrix>) -> f64 {
        let inner = self.inner.cost(topology, base);
        if self.bridge_cost == 0.0 {
            return inner;
        }
        let bridges = cut_structure(&topology.to_graph()).bridges.len();
        inner + self.bridge_cost * bridges as f64
    }
    fn delta_evals(&self) -> usize {
        self.inner.delta_evals()
    }
    fn full_evals(&self) -> usize {
        self.inner.full_evals()
    }
}

/// Survivability report for a synthesized topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Survivability {
    /// Number of bridge links (single points of failure among links).
    pub bridges: usize,
    /// Number of articulation PoPs (single points of failure among PoPs).
    pub articulation_points: usize,
    /// Whether the network survives any single link failure.
    pub two_edge_connected: bool,
    /// Fraction of total offered traffic that would be disconnected by the
    /// worst single link failure.
    pub worst_link_failure_traffic_fraction: f64,
}

/// Analyzes a topology's survivability in a context.
///
/// One Tarjan pass gives the bridges, the articulation points, the
/// connectivity, and the two sides of every bridge, so the demand a bridge
/// failure strands is summed without relabelling components per bridge.
pub fn survivability(topology: &AdjacencyMatrix, ctx: &Context) -> Survivability {
    let cuts = cut_structure(&topology.to_graph());
    let total_traffic = ctx.traffic.total();
    let mut worst = 0.0f64;
    if total_traffic > 0.0 {
        for &bridge in &cuts.bridges {
            worst = worst.max(cross_cut_demand(&cuts, bridge, ctx) / total_traffic);
        }
    }
    Survivability {
        bridges: cuts.bridges.len(),
        articulation_points: cuts.articulation_points.len(),
        two_edge_connected: cuts.is_two_edge_connected(),
        worst_link_failure_traffic_fraction: worst,
    }
}

/// Synthesizes a resilience-aware network: the standard pipeline
/// (heuristic seeds + GA) but optimizing [`ResilientObjective`].
///
/// Returns the best topology, its resilient-objective value, and its
/// survivability report.
///
/// # Errors
/// Returns [`crate::ColdError::Ga`] for invalid GA settings or evaluation
/// failures and [`crate::ColdError::Config`] if the winning topology
/// cannot be built into a network.
pub fn synthesize_resilient(
    base: &crate::ColdConfig,
    bridge_cost: f64,
    seed: u64,
) -> Result<(cold_cost::Network, f64, Survivability), crate::ColdError> {
    let ctx = base.context.generate(cold_context::rng::derive_seed(seed, 0xC0));
    let objective = ResilientObjective::new(&ctx, base.params, bridge_cost);
    // Seed with the plain heuristics (still valid topologies, just scored
    // differently) exactly as the initialized GA does.
    let eval = cold_cost::CostEvaluator::new(&ctx, base.params);
    let seeds: Vec<AdjacencyMatrix> =
        cold_heuristics::all_heuristics(&eval, &base.random_greedy, seed)
            .into_iter()
            .map(|(_, r)| r.topology)
            .collect();
    let ga_settings =
        cold_ga::GaSettings { seed: cold_context::rng::derive_seed(seed, 0x6741), ..base.ga };
    let engine = cold_ga::GeneticAlgorithm::try_new(&objective, ga_settings)?;
    let result = engine.try_run_traced(&seeds, None)?;
    let report = survivability(&result.best.topology, &ctx);
    let network = cold_cost::Network::build(result.best.topology.clone(), &ctx, base.params)
        .map_err(|e| crate::ColdError::Config(format!("GA output not buildable: {e:?}")))?;
    Ok((network, result.best.cost, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColdConfig;

    #[test]
    fn bridge_penalty_added_to_cost() {
        let cfg = ColdConfig::quick(6, 1e-4, 0.0);
        let ctx = cfg.context.generate(1);
        let plain = ColdObjective::new(&ctx, cfg.params);
        let res = ResilientObjective::new(&ctx, cfg.params, 50.0);
        // A tree on 6 nodes has 5 bridges.
        let tree = cold_graph::mst::mst_matrix(6, ctx.distance_fn());
        assert!((res.cost(&tree) - (plain.cost(&tree) + 250.0)).abs() < 1e-9);
        // A cycle has none.
        let ring =
            AdjacencyMatrix::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
                .unwrap();
        assert!((res.cost(&ring) - plain.cost(&ring)).abs() < 1e-9);
    }

    #[test]
    fn survivability_of_tree_vs_ring() {
        let cfg = ColdConfig::quick(6, 1e-4, 0.0);
        let ctx = cfg.context.generate(2);
        let tree = cold_graph::mst::mst_matrix(6, ctx.distance_fn());
        let s = survivability(&tree, &ctx);
        assert_eq!(s.bridges, 5);
        assert!(!s.two_edge_connected);
        assert!(s.worst_link_failure_traffic_fraction > 0.0);
        let ring =
            AdjacencyMatrix::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
                .unwrap();
        let s = survivability(&ring, &ctx);
        assert_eq!(s.bridges, 0);
        assert!(s.two_edge_connected);
        assert_eq!(s.worst_link_failure_traffic_fraction, 0.0);
    }

    #[test]
    fn high_bridge_cost_produces_two_edge_connected_networks() {
        let cfg = ColdConfig::quick(9, 1e-4, 0.0);
        let (net, _, report) = synthesize_resilient(&cfg, 1e6, 3).unwrap();
        assert!(
            report.two_edge_connected,
            "bridge cost 1e6 must eliminate bridges; got {} bridges over {} links",
            report.bridges,
            net.link_count()
        );
        assert!(net.link_count() >= 9, "2-edge-connected needs >= n links");
    }

    #[test]
    fn zero_bridge_cost_reduces_to_plain_cold() {
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let (net, cost, _) = synthesize_resilient(&cfg, 0.0, 4).unwrap();
        let plain = cfg.synthesize(4);
        assert_eq!(net.topology, plain.network.topology);
        assert!((cost - plain.best_cost()).abs() < 1e-9);
    }

    #[test]
    fn session_cost_is_bit_identical_to_objective_cost() {
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let ctx = cfg.context.generate(7);
        let res = ResilientObjective::new(&ctx, cfg.params, 75.0);
        let mut session = res.session();
        let tree = cold_graph::mst::mst_matrix(8, ctx.distance_fn());
        // Full evaluation path.
        assert_eq!(session.cost(&tree, None), res.cost(&tree));
        // Delta path: single-edge change against the cached base must land
        // on the exact same bits as a from-scratch evaluation.
        let mut ringed = tree.clone();
        ringed.set_edge(0, 7, true);
        assert_eq!(session.cost(&ringed, Some(&tree)), res.cost(&ringed));
        assert!(session.delta_evals() > 0, "second eval must take the delta path");
    }

    #[test]
    fn resilient_runs_use_delta_evaluation() {
        // Regression: `ResilientObjective` used to inherit the stateless
        // default session, so resilient GA runs did full APSP per eval.
        let cfg = ColdConfig::quick(8, 1e-4, 0.0);
        let ctx = cfg.context.generate(5);
        let res = ResilientObjective::new(&ctx, cfg.params, 100.0);
        let settings = cold_ga::GaSettings { seed: 11, generations: 4, ..cfg.ga };
        let engine = cold_ga::GeneticAlgorithm::try_new(&res, settings).unwrap();
        let result = engine.try_run_traced(&[], None).unwrap();
        assert!(
            result.eval_stats.delta_evals > 0,
            "resilient run performed no delta evals: {:?}",
            result.eval_stats
        );
    }

    #[test]
    fn survivability_handles_zero_total_traffic() {
        // A context with no demand at all: fractions must be 0, not NaN.
        let mut ctx = cold_context::Context::from_positions(
            (0..5).map(|i| cold_context::Point::new(i as f64, 0.0)).collect(),
            cold_context::PopulationKind::Constant { value: 1.0 },
            cold_context::GravityModel::raw(),
            0,
        );
        ctx.traffic = cold_context::TrafficMatrix::zeros(5);
        assert_eq!(ctx.traffic.total(), 0.0);
        let path = AdjacencyMatrix::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let s = survivability(&path, &ctx);
        assert_eq!(s.bridges, 4);
        assert!(
            s.worst_link_failure_traffic_fraction == 0.0,
            "zero offered traffic must yield fraction 0, got {}",
            s.worst_link_failure_traffic_fraction
        );
    }

    #[test]
    fn worst_failure_fraction_counts_both_directions() {
        // Barbell: bridge splits 3/3; crossing fraction = 2·9·t/(30·t) for
        // uniform demands = 0.6.
        let ctx = cold_context::Context::from_positions(
            (0..6).map(|i| cold_context::Point::new(i as f64, 0.0)).collect(),
            cold_context::PopulationKind::Constant { value: 1.0 },
            cold_context::GravityModel::raw(),
            0,
        );
        let barbell = AdjacencyMatrix::from_edges(
            6,
            &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)],
        )
        .unwrap();
        let s = survivability(&barbell, &ctx);
        assert_eq!(s.bridges, 1);
        assert!((s.worst_link_failure_traffic_fraction - 0.6).abs() < 1e-9);
    }
}
