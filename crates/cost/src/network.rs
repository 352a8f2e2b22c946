//! The fully annotated synthesized network.
//!
//! Requirement 5 of the paper's introduction: "The model should generate a
//! 'network', not just an abstract graph. Simulations often need details
//! such as link capacity, distances, and routing." [`Network`] is that
//! output: topology + per-link length/load/capacity + shortest-path routes
//! + the cost at which it was built.

use crate::capacity::CapacityPlan;
use crate::cost::{evaluate_parts, CostBreakdown};
use crate::params::CostParams;
use cold_context::Context;
use cold_graph::{AdjacencyMatrix, GraphError};

/// One fully specified link of a synthesized network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Smaller endpoint PoP.
    pub u: usize,
    /// Larger endpoint PoP.
    pub v: usize,
    /// Geometric length `ℓ`.
    pub length: f64,
    /// Required bandwidth `w` (routed traffic crossing the link).
    pub load: f64,
    /// Installed capacity `O·w`.
    pub capacity: f64,
}

/// A synthesized PoP-level network: the complete simulation-ready artifact.
#[derive(Debug, Clone)]
pub struct Network {
    /// The PoP-level topology.
    pub topology: AdjacencyMatrix,
    /// Annotated links (sorted by `(u, v)`).
    pub links: Vec<Link>,
    /// Cost components under the parameters the network was built with.
    pub cost: CostBreakdown,
    /// The parameters used.
    pub params: CostParams,
    /// Routing and capacity details (shortest-path trees per source).
    pub plan: CapacityPlan,
}

impl Network {
    /// Annotates `topology` with capacities, routes and costs for `ctx`.
    ///
    /// # Errors
    /// [`GraphError::Disconnected`] / [`GraphError::SizeMismatch`] as in
    /// [`evaluate_parts`].
    pub fn build(
        topology: AdjacencyMatrix,
        ctx: &Context,
        params: CostParams,
    ) -> Result<Self, GraphError> {
        let (cost, plan) = evaluate_parts(&topology, ctx, &params)?;
        let links = plan
            .edges()
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| Link {
                u,
                v,
                length: plan.length[i],
                load: plan.load()[i],
                capacity: plan.capacity[i],
            })
            .collect();
        Ok(Self { topology, links, cost, params, plan })
    }

    /// Number of PoPs.
    pub fn n(&self) -> usize {
        self.topology.n()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Total cost of the network.
    pub fn total_cost(&self) -> f64 {
        self.cost.total()
    }

    /// The route (PoP sequence) used for demand `(s, t)`; `None` when
    /// either PoP is out of range.
    pub fn route(&self, s: usize, t: usize) -> Option<Vec<usize>> {
        self.plan.routing.route(s, t)
    }

    /// The adjacency-list view of the topology.
    pub fn graph(&self) -> cold_graph::Graph {
        self.topology.to_graph()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cold_context::gravity::GravityModel;
    use cold_context::population::PopulationKind;
    use cold_context::region::Point;

    fn ctx() -> Context {
        Context::from_positions(
            vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(0.0, 1.0)],
            PopulationKind::Constant { value: 2.0 },
            GravityModel::raw(),
            0,
        )
    }

    #[test]
    fn build_annotates_every_link() {
        let topo = AdjacencyMatrix::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        let net = Network::build(topo, &ctx(), CostParams::paper(1e-3, 10.0)).unwrap();
        assert_eq!(net.n(), 3);
        assert_eq!(net.link_count(), 2);
        for l in &net.links {
            assert!(l.length > 0.0);
            assert!(l.load > 0.0, "all pairs have demand so all links carry traffic");
            assert_eq!(l.capacity, l.load, "O = 1");
        }
        assert!(net.total_cost() > 0.0);
    }

    #[test]
    fn routes_are_exposed() {
        let topo = AdjacencyMatrix::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        let net = Network::build(topo, &ctx(), CostParams::default()).unwrap();
        assert_eq!(net.route(1, 2), Some(vec![1, 0, 2]));
        assert_eq!(net.route(1, 1), Some(vec![1]));
    }

    #[test]
    fn out_of_range_routes_are_none() {
        let topo = AdjacencyMatrix::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        let net = Network::build(topo, &ctx(), CostParams::default()).unwrap();
        assert_eq!(net.route(0, 3), None);
        assert_eq!(net.route(3, 0), None);
        assert_eq!(net.route(1, usize::MAX), None);
    }

    #[test]
    fn overprovision_reflected_in_links() {
        let topo = AdjacencyMatrix::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let params = CostParams::paper(1e-4, 0.0).with_overprovision(2.0);
        let net = Network::build(topo, &ctx(), params).unwrap();
        for l in &net.links {
            assert!((l.capacity - 2.0 * l.load).abs() < 1e-12);
        }
    }

    #[test]
    fn disconnected_build_fails() {
        let topo = AdjacencyMatrix::from_edges(3, &[(0, 1)]).unwrap();
        assert!(Network::build(topo, &ctx(), CostParams::default()).is_err());
    }
}
