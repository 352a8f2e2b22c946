//! The COLD objective function (§3.2.3, eq. 2).

use crate::capacity::{assign_capacities, CapacityPlan};
use crate::params::CostParams;
use cold_context::Context;
use cold_graph::routing::RoutingState;
use cold_graph::{AdjacencyMatrix, GraphError};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Component-wise breakdown of a topology's cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// `k0 · |E|` — link-existence cost.
    pub existence: f64,
    /// `k1 · Σ ℓᵢ` — length cost.
    pub length: f64,
    /// `k2 · Σ ℓᵢ·wᵢ = k2 · Σ t_r·L_r` — bandwidth cost.
    pub bandwidth: f64,
    /// `k3 · |N_C|` — hub complexity cost.
    pub hub: f64,
}

impl CostBreakdown {
    /// The cost of a routed topology: `k0·|E| + k1·Σℓ + k2·Σt·L + k3·hubs`,
    /// with `|E|`, `Σℓ` (in edge order) and the hubs read off the routing's
    /// adjacency. Every evaluation path prices through this one tail.
    pub(crate) fn of(routing: &RoutingState, params: &CostParams) -> Self {
        let csr = routing.csr();
        let mut links = 0usize;
        let mut total_length = 0.0f64;
        for (_, _, len) in csr.edges() {
            links += 1;
            total_length += len;
        }
        let hubs = (0..csr.n()).filter(|&v| csr.degree(v) > 1).count();
        Self {
            existence: params.k0 * links as f64,
            length: params.k1 * total_length,
            bandwidth: params.k2 * routing.weighted(),
            hub: params.k3 * hubs as f64,
        }
    }

    /// Total cost (the GA's fitness value; lower is better).
    pub fn total(&self) -> f64 {
        self.existence + self.length + self.bandwidth + self.hub
    }
}

/// Evaluates the full cost of `topology` in `ctx` under `params`,
/// returning the component breakdown and the capacity plan.
///
/// # Errors
/// Propagates routing failures ([`GraphError::Disconnected`],
/// [`GraphError::SizeMismatch`]). Connectivity is a *constraint*, not a
/// penalty: COLD repairs disconnected candidates before evaluation
/// (§4.1.3), so evaluation treats disconnection as an error rather than
/// assigning a pseudo-cost.
pub fn evaluate_parts(
    topology: &AdjacencyMatrix,
    ctx: &Context,
    params: &CostParams,
) -> Result<(CostBreakdown, CapacityPlan), GraphError> {
    let _timer = cold_obs::timer("cost.evaluate_parts");
    // Params are validated once at `CostEvaluator::new` / config build time;
    // re-validating per evaluation was pure hot-path overhead.
    debug_assert!(params.validate().is_ok(), "invalid cost params: {:?}", params.validate());
    let plan = assign_capacities(topology, ctx, params.overprovision)?;
    Ok((CostBreakdown::of(&plan.routing, params), plan))
}

/// The `eval.*` fault sites every evaluation entry point honours:
/// `eval.panic` panics, `eval.slow` sleeps 15 ms, and `eval.nan` yields the
/// NaN the caller must answer instead of a cost.
pub(crate) fn injected_fault() -> Option<f64> {
    if cold_fault::armed() {
        if cold_fault::should_fire("eval.panic") {
            panic!("cold-fault: injected panic at eval.panic");
        }
        if cold_fault::should_fire("eval.nan") {
            return Some(f64::NAN);
        }
        if cold_fault::should_fire("eval.slow") {
            std::thread::sleep(std::time::Duration::from_millis(15));
        }
    }
    None
}

thread_local! {
    /// Per-thread routing state for [`evaluate_total`]. Thread-local so
    /// the GA's parallel fitness workers each reuse their own buffers
    /// without locking.
    static ROUTING: RefCell<RoutingState> = RefCell::new(RoutingState::new());
}

/// Total cost only — the allocation-lean hot path the GA calls once per
/// candidate per generation.
///
/// Routes into a thread-local [`RoutingState`] and prices it; skips the
/// link loads, capacities and owned state [`evaluate_parts`] materializes
/// for reports. The returned total is bit-identical to
/// `evaluate_parts(..).0.total()`.
///
/// # Errors
/// As for [`evaluate_parts`].
pub fn evaluate_total(
    topology: &AdjacencyMatrix,
    ctx: &Context,
    params: &CostParams,
) -> Result<f64, GraphError> {
    if let Some(nan) = injected_fault() {
        return Ok(nan);
    }
    let _timer = cold_obs::timer("cost.evaluate_total");
    evaluate_total_untimed(topology, ctx, params)
}

/// [`evaluate_total`] without the `cold-obs` scoped timer.
///
/// Exists so the `obs_overhead` bench can measure the disabled-telemetry
/// timer cost directly (instrumented-but-off vs. bare); library and GA
/// callers should use [`evaluate_total`].
#[doc(hidden)]
pub fn evaluate_total_untimed(
    topology: &AdjacencyMatrix,
    ctx: &Context,
    params: &CostParams,
) -> Result<f64, GraphError> {
    debug_assert!(params.validate().is_ok(), "invalid cost params: {:?}", params.validate());
    if topology.n() != ctx.n() {
        return Err(GraphError::SizeMismatch { expected: ctx.n(), actual: topology.n() });
    }
    ROUTING.with(|routing| {
        let routing = &mut *routing.borrow_mut();
        routing.build(topology, ctx.distance_fn(), ctx.traffic_fn())?;
        Ok(CostBreakdown::of(routing, params).total())
    })
}

/// A reusable evaluator bundling a context and parameters.
///
/// This is the `Objective` the GA optimizes; bundling lets the engine stay
/// generic over *what* is being minimized (the extensibility §2 calls out:
/// "it is generally easy to add additional costs or constraints").
#[derive(Debug, Clone)]
pub struct CostEvaluator<'a> {
    /// The synthesis context (fixed during one optimization).
    pub ctx: &'a Context,
    /// The cost parameters.
    pub params: CostParams,
}

impl<'a> CostEvaluator<'a> {
    /// Creates an evaluator.
    pub fn new(ctx: &'a Context, params: CostParams) -> Self {
        params.validate().expect("invalid cost params");
        Self { ctx, params }
    }

    /// Cost of a (connected) topology — the GA's fitness call, routed
    /// through the allocation-lean [`evaluate_total`] path.
    ///
    /// # Errors
    /// See [`evaluate_total`].
    pub fn cost(&self, topology: &AdjacencyMatrix) -> Result<f64, GraphError> {
        evaluate_total(topology, self.ctx, &self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cold_context::gravity::GravityModel;
    use cold_context::population::PopulationKind;
    use cold_context::region::Point;

    fn square_context() -> Context {
        Context::from_positions(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(1.0, 1.0),
                Point::new(0.0, 1.0),
            ],
            PopulationKind::Constant { value: 1.0 },
            GravityModel::raw(),
            0,
        )
    }

    #[test]
    fn breakdown_on_ring() {
        let ctx = square_context();
        let ring = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let params = CostParams::new(10.0, 1.0, 0.01, 5.0);
        let (b, plan) = evaluate_parts(&ring, &ctx, &params).unwrap();
        assert_eq!(b.existence, 40.0);
        assert!((b.length - 4.0).abs() < 1e-12);
        // All 4 nodes have degree 2 ⇒ all are hubs.
        assert_eq!(b.hub, 20.0);
        // t·L: 8 adjacent ordered pairs at distance 1 = 8; 4 diagonal
        // ordered pairs at distance 2 = 8 → 16. Bandwidth = 0.01·16.
        assert!((b.bandwidth - 0.16).abs() < 1e-12);
        assert!((b.total() - (40.0 + 4.0 + 0.16 + 20.0)).abs() < 1e-12);
        assert_eq!(plan.link_count(), 4);
    }

    #[test]
    fn star_has_one_hub() {
        let ctx = square_context();
        let star = AdjacencyMatrix::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let params = CostParams::new(0.0, 0.0, 0.0, 7.0);
        let (b, _) = evaluate_parts(&star, &ctx, &params).unwrap();
        assert_eq!(b.hub, 7.0);
        assert_eq!(b.total(), 7.0);
    }

    #[test]
    fn k0_counts_links() {
        let ctx = square_context();
        let full = AdjacencyMatrix::complete(4);
        let params = CostParams::new(2.0, 0.0, 0.0, 0.0);
        assert_eq!(evaluate_total(&full, &ctx, &params).unwrap(), 12.0);
    }

    #[test]
    fn disconnected_is_error_not_penalty() {
        let ctx = square_context();
        let topo = AdjacencyMatrix::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            evaluate_total(&topo, &ctx, &CostParams::default()),
            Err(GraphError::Disconnected)
        ));
    }

    #[test]
    fn evaluator_matches_free_function() {
        let ctx = square_context();
        let params = CostParams::paper(1e-3, 10.0);
        let ev = CostEvaluator::new(&ctx, params);
        let ring = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(
            ev.cost(&ring).unwrap(),
            evaluate_parts(&ring, &ctx, &params).unwrap().0.total()
        );
    }

    #[test]
    fn bandwidth_identity_holds() {
        // k2·Σℓw computed from the plan equals the bandwidth component.
        let ctx = square_context();
        let topo = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let params = CostParams::new(0.0, 0.0, 0.5, 0.0);
        let (b, plan) = evaluate_parts(&topo, &ctx, &params).unwrap();
        let direct: f64 = plan.length.iter().zip(plan.load()).map(|(&l, &w)| 0.5 * l * w).sum();
        assert!((b.bandwidth - direct).abs() < 1e-9);
    }

    #[test]
    fn evaluate_total_is_bit_identical_to_parts() {
        let ctx = square_context();
        let params = CostParams::paper(3e-4, 12.0).with_overprovision(1.5);
        let topologies = [
            AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap(),
            AdjacencyMatrix::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap(),
            AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap(),
            AdjacencyMatrix::complete(4),
        ];
        for topo in &topologies {
            let full = evaluate_parts(topo, &ctx, &params).unwrap().0.total();
            let lean = evaluate_total(topo, &ctx, &params).unwrap();
            assert_eq!(lean, full, "paths must agree bit-for-bit");
            // And the scratch must not leak state between evaluations.
            assert_eq!(evaluate_total(topo, &ctx, &params).unwrap(), lean);
        }
    }

    #[test]
    fn evaluate_total_propagates_errors() {
        let ctx = square_context();
        let params = CostParams::default();
        let disconnected = AdjacencyMatrix::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            evaluate_total(&disconnected, &ctx, &params),
            Err(GraphError::Disconnected)
        ));
        let wrong_n = AdjacencyMatrix::complete(5);
        assert!(matches!(
            evaluate_total(&wrong_n, &ctx, &params),
            Err(GraphError::SizeMismatch { expected: 4, actual: 5 })
        ));
    }

    #[test]
    fn coincident_pops_cost_both_paths() {
        // Two PoPs at identical coordinates: the zero-length link must still
        // carry (and charge for) the full subtree's bandwidth on both
        // evaluation paths.
        let ctx = Context::from_positions(
            vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(1.0, 0.0)],
            PopulationKind::Constant { value: 1.0 },
            GravityModel::raw(),
            0,
        );
        let topo = AdjacencyMatrix::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let params = CostParams::new(0.0, 0.0, 1.0, 0.0);
        let (b, plan) = evaluate_parts(&topo, &ctx, &params).unwrap();
        // Unit demands: pairs (0,1) and (0,2) each route over the length-1
        // link, (1,2) over the length-0 link ⇒ Σ t·L = 4.
        assert_eq!(b.bandwidth, 4.0);
        // The zero-length link still carries its four demands.
        let zero_link = plan.edges().iter().position(|&e| e == (1, 2)).unwrap();
        assert_eq!(plan.load()[zero_link], 4.0);
        assert_eq!(evaluate_total(&topo, &ctx, &params).unwrap(), b.total());
    }

    #[test]
    fn tree_beats_clique_when_k0_dominates() {
        // §3.2.3: "if this cost dominates, the spanning trees are optimal".
        let ctx = square_context();
        let params = CostParams::new(1000.0, 1.0, 1e-6, 0.0);
        let mst = cold_graph::mst::mst_matrix(4, ctx.distance_fn());
        let clique = AdjacencyMatrix::complete(4);
        assert!(
            evaluate_total(&mst, &ctx, &params).unwrap()
                < evaluate_total(&clique, &ctx, &params).unwrap()
        );
    }

    #[test]
    fn clique_beats_tree_when_k2_dominates() {
        // §3.2.3: "when k2 dominates … the result will be a clique".
        let ctx = square_context();
        let params = CostParams::new(0.001, 0.001, 100.0, 0.0);
        let mst = cold_graph::mst::mst_matrix(4, ctx.distance_fn());
        let clique = AdjacencyMatrix::complete(4);
        assert!(
            evaluate_total(&clique, &ctx, &params).unwrap()
                < evaluate_total(&mst, &ctx, &params).unwrap()
        );
    }

    #[test]
    fn star_beats_ring_when_k3_dominates() {
        // §3.2.3: "If this cost is dominant, the optimal network will have
        // only one node with degree greater than one".
        let ctx = square_context();
        let params = CostParams::new(0.0, 0.0, 0.0, 100.0);
        let star = AdjacencyMatrix::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let ring = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert!(
            evaluate_total(&star, &ctx, &params).unwrap()
                < evaluate_total(&ring, &ctx, &params).unwrap()
        );
    }
}
