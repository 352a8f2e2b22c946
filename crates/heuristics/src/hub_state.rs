//! Shared scaffolding for the hub-growing heuristics (§5).
//!
//! All four greedy algorithms manipulate the same state: a set of *hubs*,
//! the links between hubs, and the rule that every non-hub (leaf) attaches
//! to its closest hub. [`HubNetwork`] encapsulates that state and its
//! materialization into an [`AdjacencyMatrix`] for cost evaluation, which
//! goes through a [`DeltaEval`] session: successive candidates differ from
//! a network evaluated shortly before by a few links, so most are priced
//! by repairing a pooled anchor's routing rather than from scratch.

use cold_cost::DeltaEval;
use cold_graph::AdjacencyMatrix;

/// A hub-and-leaves network under construction.
#[derive(Debug, Clone)]
pub struct HubNetwork {
    n: usize,
    /// Sorted hub node indices.
    hubs: Vec<usize>,
    /// Inter-hub links (each `(u, v)` with `u < v`, both hubs).
    hub_links: Vec<(usize, usize)>,
}

impl HubNetwork {
    /// Starts with a single hub; every other node will attach to it.
    pub fn single_hub(n: usize, hub: usize) -> Self {
        assert!(hub < n, "hub {hub} out of range");
        Self { n, hubs: vec![hub], hub_links: Vec::new() }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The current hubs (sorted).
    pub fn hubs(&self) -> &[usize] {
        &self.hubs
    }

    /// The current inter-hub links.
    pub fn hub_links(&self) -> &[(usize, usize)] {
        &self.hub_links
    }

    /// Whether `v` is currently a hub.
    pub fn is_hub(&self, v: usize) -> bool {
        self.hubs.binary_search(&v).is_ok()
    }

    /// Non-hub nodes (sorted).
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.n).filter(|&v| !self.is_hub(v)).collect()
    }

    /// Promotes `v` to a hub with the given links to existing hubs.
    ///
    /// # Panics
    /// Panics if `v` is already a hub or any link endpoint is not a hub.
    pub fn promote(&mut self, v: usize, links_to_hubs: &[usize]) {
        assert!(!self.is_hub(v), "node {v} is already a hub");
        for &h in links_to_hubs {
            assert!(self.is_hub(h), "link target {h} is not a hub");
            let (a, b) = if v < h { (v, h) } else { (h, v) };
            if !self.hub_links.contains(&(a, b)) {
                self.hub_links.push((a, b));
            }
        }
        let pos = self.hubs.binary_search(&v).unwrap_err();
        self.hubs.insert(pos, v);
    }

    /// Replaces the entire inter-hub link set (used by clique/MST variants
    /// that rebuild the interconnect after each promotion).
    ///
    /// # Panics
    /// Panics if any endpoint is not a hub.
    pub fn set_hub_links(&mut self, links: Vec<(usize, usize)>) {
        for &(u, v) in &links {
            assert!(self.is_hub(u) && self.is_hub(v), "link ({u},{v}) joins non-hubs");
        }
        self.hub_links = links;
    }

    /// Materializes the topology: inter-hub links plus one link from every
    /// leaf to its closest hub (by `dist`).
    ///
    /// The result is connected iff the hub subgraph is connected; all four
    /// §5 heuristics maintain that invariant.
    pub fn to_matrix(&self, dist: impl Fn(usize, usize) -> f64) -> AdjacencyMatrix {
        let mut m = AdjacencyMatrix::empty(self.n);
        for &(u, v) in &self.hub_links {
            m.set_edge(u, v, true);
        }
        for leaf in self.leaves() {
            let closest = self
                .hubs
                .iter()
                .copied()
                .min_by(|&a, &b| dist(leaf, a).total_cmp(&dist(leaf, b)).then(a.cmp(&b)))
                .expect("at least one hub");
            m.set_edge(leaf, closest, true);
        }
        m
    }

    /// Cost of the materialized network, priced through `session`
    /// (bit-identical to [`CostEvaluator::cost`](cold_cost::CostEvaluator::cost)).
    ///
    /// # Panics
    /// Panics if the hub subgraph is disconnected (a heuristic bug).
    pub fn cost(&self, session: &mut DeltaEval<'_>) -> f64 {
        let ctx = session.ctx();
        let m = self.to_matrix(|u, v| ctx.distance(u, v));
        session.eval(&m, None).expect("hub heuristics maintain connectivity")
    }
}

/// Finds the best single-hub star: tests every node as the hub and returns
/// the cheapest (§5: "All the PoPs are tested as a possible hub and the
/// best one is taken" — applied to the starting star as well).
pub fn best_single_hub(session: &mut DeltaEval<'_>) -> (HubNetwork, f64) {
    let n = session.ctx().n();
    assert!(n >= 1, "need at least one node");
    let mut best: Option<(HubNetwork, f64)> = None;
    for hub in 0..n {
        let net = HubNetwork::single_hub(n, hub);
        let c = net.cost(session);
        if best.as_ref().is_none_or(|(_, bc)| c < *bc) {
            best = Some((net, c));
        }
    }
    best.expect("n >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cold_context::gravity::GravityModel;
    use cold_context::population::PopulationKind;
    use cold_context::region::Point;
    use cold_context::Context;
    use cold_cost::CostParams;

    fn line_ctx(n: usize) -> Context {
        let pts = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
        Context::from_positions(
            pts,
            PopulationKind::Constant { value: 1.0 },
            GravityModel::raw(),
            0,
        )
    }

    #[test]
    fn single_hub_star_topology() {
        let ctx = line_ctx(5);
        let mut session = DeltaEval::new(&ctx, CostParams::paper(1e-4, 10.0));
        let net = HubNetwork::single_hub(5, 2);
        let m = net.to_matrix(ctx.distance_fn());
        assert_eq!(m.edge_count(), 4);
        assert_eq!(m.degree(2), 4);
        assert!(net.cost(&mut session) > 0.0);
    }

    #[test]
    fn leaves_attach_to_closest_hub() {
        let ctx = line_ctx(6);
        let mut net = HubNetwork::single_hub(6, 0);
        net.promote(5, &[0]);
        let m = net.to_matrix(ctx.distance_fn());
        // Leaves 1,2 closest to hub 0; leaves 3,4 closest to hub 5.
        assert!(m.has_edge(1, 0) && m.has_edge(2, 0));
        assert!(m.has_edge(3, 5) && m.has_edge(4, 5));
        assert!(m.has_edge(0, 5));
    }

    #[test]
    fn promote_validates() {
        let mut net = HubNetwork::single_hub(4, 1);
        net.promote(3, &[1]);
        assert!(net.is_hub(3));
        assert_eq!(net.hubs(), &[1, 3]);
        assert_eq!(net.leaves(), vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "already a hub")]
    fn double_promotion_panics() {
        let mut net = HubNetwork::single_hub(4, 1);
        net.promote(1, &[]);
    }

    #[test]
    fn best_single_hub_prefers_center_on_line() {
        // On a line with uniform demand, a central hub minimizes length
        // and bandwidth cost.
        let ctx = line_ctx(7);
        let (net, cost) = best_single_hub(&mut DeltaEval::new(&ctx, CostParams::paper(1e-3, 0.0)));
        assert_eq!(net.hubs(), &[3], "expected central hub, cost {cost}");
    }
}
