//! Capacity assignment by shortest-path routing (§3.2.1).
//!
//! The one hard constraint of the optimization is "that the capacities of
//! the network are sufficient to carry the inter-PoP traffic, which
//! implicitly requires the network to be connected" (§3.2). COLD satisfies
//! it constructively: route every demand on its shortest geometric path,
//! set each link's required bandwidth `wᵢ` to the traffic crossing it, and
//! install `O·wᵢ` capacity.

use cold_context::Context;
use cold_graph::routing::RoutingState;
use cold_graph::{AdjacencyMatrix, GraphError};

/// The routed-capacity view of one topology in one context.
#[derive(Debug, Clone)]
pub struct CapacityPlan {
    /// Edges sorted ascending as `(u, v)`, `u < v`.
    edges: Vec<(usize, usize)>,
    /// Geometric length `ℓᵢ` per edge (aligned with [`edges`](Self::edges)).
    pub length: Vec<f64>,
    /// Required bandwidth `wᵢ` per edge.
    load: Vec<f64>,
    /// Installed capacity per edge: `O · wᵢ`.
    pub capacity: Vec<f64>,
    /// The routing this plan was built from: adjacency, per-source
    /// distance and parent rows (the shortest-path trees, one per source
    /// PoP) and `Σ t·L`.
    pub routing: RoutingState,
}

impl CapacityPlan {
    /// Edges sorted ascending as `(u, v)`, `u < v`.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Required bandwidth `wᵢ` per edge (sum of routed demands).
    pub fn load(&self) -> &[f64] {
        &self.load
    }

    /// `Σ_r t_r·L_r` — the route-length form of the bandwidth cost (eq. 1).
    pub fn traffic_weighted_route_length(&self) -> f64 {
        self.routing.weighted()
    }

    /// Total geometric length of all links.
    pub fn total_length(&self) -> f64 {
        self.length.iter().sum()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.edges.len()
    }

    /// Maximum link utilization `wᵢ / capacityᵢ` (equals `1/O` on loaded
    /// links by construction). Returns 0 for an unloaded network.
    pub fn max_utilization(&self) -> f64 {
        self.load
            .iter()
            .zip(&self.capacity)
            .filter(|&(_, &c)| c > 0.0)
            .map(|(&w, &c)| w / c)
            .fold(0.0, f64::max)
    }
}

/// Routes `ctx`'s traffic over `topology` and assigns capacities.
///
/// # Errors
/// [`GraphError::SizeMismatch`] when topology and context disagree on `n`;
/// [`GraphError::Disconnected`] when some positive demand cannot be routed.
pub fn assign_capacities(
    topology: &AdjacencyMatrix,
    ctx: &Context,
    overprovision: f64,
) -> Result<CapacityPlan, GraphError> {
    if topology.n() != ctx.n() {
        return Err(GraphError::SizeMismatch { expected: ctx.n(), actual: topology.n() });
    }
    assert!(overprovision >= 1.0, "overprovision must be >= 1");
    let mut routing = RoutingState::new();
    routing.build(topology, ctx.distance_fn(), ctx.traffic_fn())?;
    let load = routing.link_loads(ctx.traffic_fn())?;
    let (edges, length) = routing.csr().edges().map(|(u, v, len)| ((u, v), len)).unzip();
    let capacity = load.iter().map(|&w| overprovision * w).collect();
    Ok(CapacityPlan { edges, length, load, capacity, routing })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cold_context::gravity::GravityModel;
    use cold_context::population::PopulationKind;
    use cold_context::region::Point;

    /// Three PoPs on a line with unit populations.
    fn line_context() -> Context {
        Context::from_positions(
            vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(2.0, 0.0)],
            PopulationKind::Constant { value: 1.0 },
            GravityModel::raw(),
            0,
        )
    }

    #[test]
    fn line_topology_loads() {
        let ctx = line_context();
        let topo = AdjacencyMatrix::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let plan = assign_capacities(&topo, &ctx, 1.0).unwrap();
        assert_eq!(plan.link_count(), 2);
        // Demands: each ordered pair 1.0. Edge (0,1) carries 0↔1 and 0↔2: 4.
        assert_eq!(plan.load(), [4.0, 4.0]);
        assert_eq!(plan.capacity, plan.load());
        assert_eq!(plan.total_length(), 2.0);
        // t·L = 4 pairs at length 1 + 2 pairs at length 2 = 8.
        assert!((plan.traffic_weighted_route_length() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn overprovision_scales_capacity_not_load() {
        let ctx = line_context();
        let topo = AdjacencyMatrix::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let plan = assign_capacities(&topo, &ctx, 2.5).unwrap();
        assert_eq!(plan.load(), [4.0, 4.0]);
        assert_eq!(plan.capacity, vec![10.0, 10.0]);
        assert!((plan.max_utilization() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn disconnected_topology_rejected() {
        let ctx = line_context();
        let topo = AdjacencyMatrix::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(assign_capacities(&topo, &ctx, 1.0).unwrap_err(), GraphError::Disconnected);
    }

    #[test]
    fn size_mismatch_rejected() {
        let ctx = line_context();
        let topo = AdjacencyMatrix::complete(4);
        assert!(matches!(
            assign_capacities(&topo, &ctx, 1.0),
            Err(GraphError::SizeMismatch { expected: 3, actual: 4 })
        ));
    }

    #[test]
    fn direct_links_shorten_routes() {
        let ctx = line_context();
        let tri = AdjacencyMatrix::complete(3);
        let line = AdjacencyMatrix::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let pt = assign_capacities(&tri, &ctx, 1.0).unwrap();
        let pl = assign_capacities(&line, &ctx, 1.0).unwrap();
        // With the direct 0–2 link, total t·L stays 8 (the direct link has
        // the same length as the two-hop path) but per-link loads drop.
        assert!(pt.load().iter().cloned().fold(0.0, f64::max) <= 4.0);
        assert!(pt.traffic_weighted_route_length() <= pl.traffic_weighted_route_length() + 1e-12);
    }
}
