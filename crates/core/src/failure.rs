//! Single-link failure analysis — using COLD's networks for the purpose
//! they were built for.
//!
//! The paper's networks exist to drive simulations ("to test new
//! networking algorithms and protocols whose properties and performance
//! often depend on the structure of the underlying network", §1). This
//! module implements the canonical such study: fail each link in turn,
//! re-route all traffic on the surviving topology, and measure
//!
//! - **stranded traffic** (demand with no surviving path),
//! - **overload** (rerouted load vs installed capacity — meaningful when
//!   the network was provisioned with an overprovisioning factor `O > 1`),
//! - **stretch** (geometric route-length inflation).
//!
//! Because COLD emits capacities and routing, the whole analysis runs on
//! the synthesis output alone — requirement 5 of §1 paying off.
//!
//! # One incremental sweep
//!
//! The sweep starts from the routing the network already carries
//! (`net.plan.routing`) and reports for every link exactly what a full
//! shortest-path re-route of the topology without that link reports, bit
//! for bit:
//!
//! - **Bridges** (one Tarjan pass finds them all) need no Dijkstra. Every
//!   surviving route keeps its path, so stretch is exactly 1. Stranded
//!   demand is the demand crossing the cut, and loads are the subtree pass
//!   over the base trees with that demand zeroed.
//! - **Any other link** re-runs Dijkstra only for the sources whose tree
//!   contains it. Deleting a non-tree edge cannot change a Dijkstra run,
//!   whose tie-break picks the `(dist, id)`-least relaxer — a property of
//!   the final labels, not of the relaxation schedule. Every other source
//!   reuses its cached per-link load contributions.
//!
//! Each link's load is then folded over sources in ascending order, the
//! summation order of [`cold_graph::routing::route_traffic`], so
//! utilization, overload counts and stretch equal a full re-route's.

use cold_context::Context;
use cold_cost::Network;
use cold_graph::connectivity::{cut_structure, CutStructure};
use cold_graph::routing::{accumulate_source, push_down, Csr, SubtreeScratch};
use cold_graph::shortest_path::DijkstraWorkspace;
use cold_graph::Graph;
use serde::{Deserialize, Serialize};

/// Outcome of failing one link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkFailureImpact {
    /// The failed link's endpoints.
    pub link: (usize, usize),
    /// Fraction of total offered traffic with no surviving route.
    pub stranded_traffic_fraction: f64,
    /// Maximum rerouted utilization (`new load / installed capacity`) over
    /// surviving links; `> 1` means congestion under the paper's
    /// provisioning. `0` when no surviving link carries load, and
    /// `INFINITY` when a link installed with zero capacity (it carried
    /// nothing before the failure) now carries traffic.
    pub max_utilization: f64,
    /// Number of surviving links whose rerouted load exceeds capacity.
    pub overloaded_links: usize,
    /// Mean multiplicative stretch of the geometric route length over
    /// demands that survive (≥ 1).
    pub mean_stretch: f64,
}

/// Whole-network failure report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureReport {
    /// Per-link impacts, ordered as `Network::links`.
    pub impacts: Vec<LinkFailureImpact>,
}

impl FailureReport {
    /// The single worst link by stranded traffic (ties: by utilization).
    pub fn worst(&self) -> Option<&LinkFailureImpact> {
        self.impacts.iter().max_by(|a, b| {
            a.stranded_traffic_fraction
                .total_cmp(&b.stranded_traffic_fraction)
                .then(a.max_utilization.total_cmp(&b.max_utilization))
        })
    }

    /// Fraction of links whose failure strands no traffic and overloads
    /// nothing — the "survivable share" of the network.
    pub fn survivable_link_fraction(&self) -> f64 {
        if self.impacts.is_empty() {
            return 1.0;
        }
        self.impacts
            .iter()
            .filter(|i| i.stranded_traffic_fraction == 0.0 && i.overloaded_links == 0)
            .count() as f64
            / self.impacts.len() as f64
    }
}

/// Analyzes every single-link failure of `net` in `ctx`.
///
/// `net` must have been built in `ctx`: its shortest-path trees are the
/// pre-failure routes. Capacities are taken from the network as built
/// (`O·w`); with `O = 1` any reroute overloads something, so provision
/// with [`cold_cost::CostParams::with_overprovision`] for meaningful
/// headroom numbers.
pub fn single_link_failures(net: &Network, ctx: &Context) -> FailureReport {
    assert_eq!(ctx.n(), net.n(), "network and context disagree on PoP count");
    let total_traffic = ctx.traffic.total();
    let g = net.graph();
    let sweep = Sweep::new(net, ctx, &g);
    let mut buf = Buffers::default();
    buf.csr.build(&g, ctx.distance_fn());
    let impacts = net
        .links
        .iter()
        .map(|failed| {
            let link = (failed.u.min(failed.v), failed.u.max(failed.v));
            buf.load.clear();
            buf.load.resize(net.plan.link_count(), 0.0);
            let (stranded, mean_stretch) = if sweep.cuts.is_bridge(link.0, link.1) {
                (sweep.fail_bridge(link, &mut buf), 1.0)
            } else {
                (0.0, sweep.fail_cycle_link(link, &mut buf))
            };
            let (max_utilization, overloaded_links) = sweep.utilization(link, &buf.load);
            LinkFailureImpact {
                link: (failed.u, failed.v),
                stranded_traffic_fraction: if total_traffic > 0.0 {
                    stranded / total_traffic
                } else {
                    0.0
                },
                max_utilization,
                overloaded_links,
                mean_stretch,
            }
        })
        .collect();
    FailureReport { impacts }
}

/// Demand stranded by the failure of `bridge`: `t(s, t)` summed in
/// row-major order over the ordered pairs left disconnected, including
/// pairs that were never connected.
pub(crate) fn cross_cut_demand(cuts: &CutStructure, bridge: (usize, usize), ctx: &Context) -> f64 {
    let mut stranded = 0.0f64;
    for s in 0..ctx.n() {
        for t in 0..ctx.n() {
            if s != t && !cuts.connected_without(bridge, s, t) {
                stranded += ctx.traffic.demand(s, t);
            }
        }
    }
    stranded
}

/// What one sweep reuses across failures, all derived once from the
/// network's own routing.
///
/// A network that routed has no demand between its components (building
/// it would have failed), so only a bridge failure strands demand and
/// every other failure routes the context's demands unchanged.
struct Sweep<'a> {
    net: &'a Network,
    ctx: &'a Context,
    cuts: CutStructure,
    /// Base-edge index per node pair, at `AdjacencyMatrix::pair_index`.
    edge_at: Vec<usize>,
    /// Installed capacity per base edge.
    capacity: Vec<f64>,
    /// Children-first order of each source's base tree.
    order: Vec<Vec<usize>>,
    /// `(edge, load)` contributions of each source's base tree.
    contrib: Vec<Vec<(usize, f64)>>,
    /// Per source, the targets its stretch terms cover: positive demand
    /// at a positive base distance.
    stretch_targets: Vec<Vec<usize>>,
}

/// Scratch state of a sweep, rewritten by every failure.
#[derive(Default)]
struct Buffers {
    /// The network's adjacency; a failure cuts one edge of it.
    csr: Csr,
    dijkstra: DijkstraWorkspace,
    subtree: SubtreeScratch,
    demand: Vec<f64>,
    /// Per-edge loads of the failure in progress.
    load: Vec<f64>,
}

impl<'a> Sweep<'a> {
    fn new(net: &'a Network, ctx: &'a Context, g: &Graph) -> Self {
        let n = net.n();
        let edges = net.plan.edges();
        let mut edge_at = vec![usize::MAX; n * n.saturating_sub(1) / 2];
        for (i, &(u, v)) in edges.iter().enumerate() {
            edge_at[net.topology.pair_index(u, v)] = i;
        }
        // Keyed by normalized endpoints: stored links need not be `u < v`.
        let mut capacity = vec![0.0; edges.len()];
        for l in &net.links {
            if let Ok(i) = edges.binary_search(&(l.u.min(l.v), l.u.max(l.v))) {
                capacity[i] = l.capacity;
            }
        }
        let mut sweep = Self {
            net,
            ctx,
            cuts: cut_structure(g),
            edge_at,
            capacity,
            order: Vec::with_capacity(n),
            contrib: Vec::with_capacity(n),
            stretch_targets: Vec::with_capacity(n),
        };
        let traffic = ctx.traffic_fn();
        let mut subtree = SubtreeScratch::new();
        for (s, tree) in net.plan.routing.trees.iter().enumerate() {
            let mut contrib = Vec::new();
            accumulate_source(s, &tree.dist, &tree.parent, &traffic, &mut subtree, |p, v, d| {
                contrib.push((sweep.edge(p, v), d))
            })
            .expect("a built network routes every demand");
            let targets =
                (0..n).filter(|&t| t != s && traffic(s, t) > 0.0 && tree.dist[t] > 0.0).collect();
            sweep.order.push(subtree.order().to_vec());
            sweep.contrib.push(contrib);
            sweep.stretch_targets.push(targets);
        }
        sweep
    }

    /// Base-edge index of the tree link `{p, v}`.
    fn edge(&self, p: usize, v: usize) -> usize {
        self.edge_at[self.net.topology.pair_index(p, v)]
    }

    /// Fills `buf.load` for the failure of `bridge` and returns the demand
    /// it strands. Surviving routes are unchanged, so this is the subtree
    /// pass over every base tree with the cross-cut demand zeroed.
    fn fail_bridge(&self, bridge: (usize, usize), buf: &mut Buffers) -> f64 {
        let traffic = |s, t| {
            if self.cuts.connected_without(bridge, s, t) {
                self.ctx.traffic.demand(s, t)
            } else {
                0.0
            }
        };
        for (s, tree) in self.net.plan.routing.trees.iter().enumerate() {
            push_down(
                s,
                &tree.dist,
                &tree.parent,
                &self.order[s],
                &traffic,
                &mut buf.demand,
                |p, v, d| buf.load[self.edge(p, v)] += d,
            )
            .expect("stranded demands zeroed, remaining pairs routable");
        }
        cross_cut_demand(&self.cuts, bridge, self.ctx)
    }

    /// Fills `buf.load` for the failure of the non-bridge `{u, v}` and
    /// returns the mean stretch. Only sources whose base tree uses the
    /// link are re-routed; the rest replay their cached contributions.
    fn fail_cycle_link(&self, (u, v): (usize, usize), buf: &mut Buffers) -> f64 {
        let Buffers { csr, dijkstra, subtree, load, .. } = buf;
        let traffic = self.ctx.traffic_fn();
        let mut stretch_sum = 0.0f64;
        let mut stretch_count = 0usize;
        csr.with_edge_cut(u, v, |csr| {
            for (s, tree) in self.net.plan.routing.trees.iter().enumerate() {
                let targets = &self.stretch_targets[s];
                stretch_count += targets.len();
                if tree.parent[v] != u && tree.parent[u] != v {
                    for &(e, d) in &self.contrib[s] {
                        load[e] += d;
                    }
                    // Unchanged route: each term is `dist / dist`, exactly 1.
                    for _ in targets {
                        stretch_sum += 1.0;
                    }
                    continue;
                }
                csr.dijkstra(dijkstra, s);
                let dist = dijkstra.dist();
                accumulate_source(s, dist, dijkstra.parent(), &traffic, subtree, |p, w, d| {
                    load[self.edge(p, w)] += d
                })
                .expect("a non-bridge failure leaves every routed pair connected");
                for &t in targets {
                    stretch_sum += dist[t] / tree.dist[t];
                }
            }
        });
        if stretch_count > 0 {
            stretch_sum / stretch_count as f64
        } else {
            1.0
        }
    }

    /// Maximum utilization and overloaded-link count of `load` over the
    /// links that survive the failure of `failed`.
    fn utilization(&self, failed: (usize, usize), load: &[f64]) -> (f64, usize) {
        let mut max_util = 0.0f64;
        let mut overloaded = 0usize;
        for ((&edge, &load), &installed) in
            self.net.plan.edges().iter().zip(load).zip(&self.capacity)
        {
            if edge == failed {
                continue;
            }
            if installed > 0.0 {
                let util = load / installed;
                max_util = max_util.max(util);
                if util > 1.0 + 1e-9 {
                    overloaded += 1;
                }
            } else if load > 0.0 {
                // Link carried nothing before (zero capacity) but does now.
                overloaded += 1;
                max_util = f64::INFINITY;
            }
        }
        (max_util, overloaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cold_context::{GravityModel, Point, PopulationKind};
    use cold_cost::{CostParams, Network};
    use cold_graph::routing::route_traffic;
    use cold_graph::AdjacencyMatrix;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The sweep's oracle: for every link, clone the topology without it
    /// and re-route all traffic from scratch. The incremental sweep must
    /// reproduce it bit for bit.
    fn single_link_failures_by_rerouting(net: &Network, ctx: &Context) -> FailureReport {
        let n = net.n();
        assert_eq!(ctx.n(), n, "network and context disagree on PoP count");
        let dist = ctx.distance_fn();
        let total_traffic = ctx.traffic.total();
        // Baseline route lengths for stretch.
        let base = route_traffic(&net.graph(), dist, ctx.traffic_fn())
            .expect("synthesized networks are connected");
        let base_len: Vec<Vec<f64>> = (0..n).map(|s| base.trees[s].dist.clone()).collect();
        let capacity: std::collections::HashMap<(usize, usize), f64> =
            net.links.iter().map(|l| ((l.u.min(l.v), l.u.max(l.v)), l.capacity)).collect();

        let mut impacts = Vec::with_capacity(net.links.len());
        for failed in &net.links {
            let mut topo = net.topology.clone();
            topo.set_edge(failed.u, failed.v, false);
            let g = topo.to_graph();
            // Route only the demands that still have a path; measure the rest.
            let comps = cold_graph::components::connected_components(&g);
            let survives = |s: usize, t: usize| comps.label[s] == comps.label[t];
            let mut stranded = 0.0f64;
            for s in 0..n {
                for t in 0..n {
                    if s != t && !survives(s, t) {
                        stranded += ctx.traffic.demand(s, t);
                    }
                }
            }
            let routed = route_traffic(&g, dist, |s, t| {
                if survives(s, t) {
                    ctx.traffic.demand(s, t)
                } else {
                    0.0
                }
            })
            .expect("stranded demands zeroed, remaining pairs routable");
            let mut max_util = 0.0f64;
            let mut overloaded = 0usize;
            for (i, &(u, v)) in routed.edges.iter().enumerate() {
                let installed = capacity.get(&(u.min(v), u.max(v))).copied().unwrap_or(0.0);
                if installed > 0.0 {
                    let util = routed.load[i] / installed;
                    max_util = max_util.max(util);
                    if util > 1.0 + 1e-9 {
                        overloaded += 1;
                    }
                } else if routed.load[i] > 0.0 {
                    overloaded += 1;
                    max_util = f64::INFINITY;
                }
            }
            let mut stretch_sum = 0.0f64;
            let mut stretch_count = 0usize;
            for (s, base_row) in base_len.iter().enumerate() {
                for (t, &before) in base_row.iter().enumerate() {
                    if s != t && survives(s, t) && ctx.traffic.demand(s, t) > 0.0 {
                        let after = routed.trees[s].dist[t];
                        if before > 0.0 {
                            stretch_sum += after / before;
                            stretch_count += 1;
                        }
                    }
                }
            }
            impacts.push(LinkFailureImpact {
                link: (failed.u, failed.v),
                stranded_traffic_fraction: if total_traffic > 0.0 {
                    stranded / total_traffic
                } else {
                    0.0
                },
                max_utilization: max_util,
                overloaded_links: overloaded,
                mean_stretch: if stretch_count > 0 {
                    stretch_sum / stretch_count as f64
                } else {
                    1.0
                },
            });
        }
        FailureReport { impacts }
    }

    /// Field-by-field bit equality of two reports.
    fn assert_same_bits(a: &FailureReport, b: &FailureReport) -> Result<(), TestCaseError> {
        prop_assert_eq!(a.impacts.len(), b.impacts.len());
        for (x, y) in a.impacts.iter().zip(&b.impacts) {
            prop_assert_eq!(x.link, y.link);
            prop_assert_eq!(
                x.stranded_traffic_fraction.to_bits(),
                y.stranded_traffic_fraction.to_bits(),
                "stranded on {:?}",
                x.link
            );
            prop_assert_eq!(
                x.max_utilization.to_bits(),
                y.max_utilization.to_bits(),
                "utilization on {:?}",
                x.link
            );
            prop_assert_eq!(x.overloaded_links, y.overloaded_links, "overloads on {:?}", x.link);
            prop_assert_eq!(
                x.mean_stretch.to_bits(),
                y.mean_stretch.to_bits(),
                "stretch on {:?}",
                x.link
            );
        }
        Ok(())
    }

    /// Topology families of the bit-identity property.
    #[derive(Debug, Clone, Copy)]
    enum Family {
        /// A random spanning tree: every link is a bridge.
        Tree,
        /// One cycle through all PoPs: no link is a bridge.
        Ring,
        /// The minimum spanning tree plus `n / 4` random chords.
        MstChords,
        /// Every pair with probability 0.4, plus the MST.
        Dense,
        /// Two separate trees-with-chords, with no demand between them.
        Split,
    }

    /// A context of `n` PoPs. `layout` 0 draws positions freely, 1 makes
    /// every fifth PoP coincide with another (zero-length links), and 2
    /// snaps PoPs to a coarse grid (coincident PoPs and many equal-cost
    /// paths). With `zero_demand`, about a third of the ordered pairs get
    /// no traffic.
    fn random_context(n: usize, seed: u64, layout: u8, zero_demand: bool) -> Context {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut points: Vec<Point> = (0..n)
            .map(|_| match layout {
                2 => Point::new(rng.gen_range(0..8) as f64, rng.gen_range(0..8) as f64),
                _ => Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
            })
            .collect();
        if layout == 1 {
            for i in (0..n).step_by(5).skip(1) {
                points[i] = points[rng.gen_range(0..i)];
            }
        }
        let mut ctx = Context::from_positions(
            points,
            PopulationKind::Exponential { mean: 30.0 },
            GravityModel::raw(),
            seed,
        );
        if zero_demand {
            for s in 0..n {
                for t in 0..n {
                    if s != t && rng.gen_bool(0.3) {
                        ctx.traffic.set_demand(s, t, 0.0);
                    }
                }
            }
        }
        ctx
    }

    /// Adds `count` random chords to `topo` among `nodes`.
    fn add_chords(topo: &mut AdjacencyMatrix, nodes: &[usize], count: usize, rng: &mut StdRng) {
        for _ in 0..count {
            let (a, b) = (rng.gen_range(0..nodes.len()), rng.gen_range(0..nodes.len()));
            if a != b {
                topo.set_edge(nodes[a], nodes[b], true);
            }
        }
    }

    /// A random tree over `nodes` in `topo`.
    fn add_tree(topo: &mut AdjacencyMatrix, nodes: &[usize], rng: &mut StdRng) {
        for i in 1..nodes.len() {
            topo.set_edge(nodes[i], nodes[rng.gen_range(0..i)], true);
        }
    }

    /// A topology of `family` on `ctx`; zeroes the traffic between the
    /// two halves of a [`Family::Split`] topology so it still routes.
    fn random_topology(family: Family, ctx: &mut Context, seed: u64) -> AdjacencyMatrix {
        let n = ctx.n();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x70b0);
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let mut topo = AdjacencyMatrix::empty(n);
        match family {
            Family::Tree => add_tree(&mut topo, &perm, &mut rng),
            Family::Ring => {
                for i in 0..n {
                    topo.set_edge(perm[i], perm[(i + 1) % n], true);
                }
            }
            Family::MstChords | Family::Dense => {
                topo = cold_graph::mst::mst_matrix(n, ctx.distance_fn());
                if matches!(family, Family::MstChords) {
                    add_chords(&mut topo, &perm, n / 4, &mut rng);
                } else {
                    for u in 0..n {
                        for v in u + 1..n {
                            if rng.gen_bool(0.4) {
                                topo.set_edge(u, v, true);
                            }
                        }
                    }
                }
            }
            Family::Split => {
                let (left, right) = perm.split_at(n / 3);
                for half in [left, right] {
                    add_tree(&mut topo, half, &mut rng);
                    add_chords(&mut topo, half, half.len() / 3, &mut rng);
                }
                for &s in left {
                    for &t in right {
                        ctx.traffic.set_demand(s, t, 0.0);
                        ctx.traffic.set_demand(t, s, 0.0);
                    }
                }
            }
        }
        topo
    }

    const FAMILIES: [Family; 5] =
        [Family::Tree, Family::Ring, Family::MstChords, Family::Dense, Family::Split];

    fn family() -> impl Strategy<Value = Family> {
        (0..FAMILIES.len()).prop_map(|i| FAMILIES[i])
    }

    /// Overprovisioning factor `O`: 1 (no headroom) or 4.
    fn overprovision() -> impl Strategy<Value = f64> {
        any::<bool>().prop_map(|roomy| if roomy { 4.0 } else { 1.0 })
    }

    /// The sweep equals the full re-route on one random case.
    fn check_sweep(
        n: usize,
        seed: u64,
        family: Family,
        layout: u8,
        zero_demand: bool,
        overprovision: f64,
    ) -> Result<(), TestCaseError> {
        let mut ctx = random_context(n, seed, layout, zero_demand);
        let topo = random_topology(family, &mut ctx, seed);
        let params = CostParams::paper(1e-3, 0.0).with_overprovision(overprovision);
        let net = Network::build(topo, &ctx, params).expect("every family routes its demand");
        assert_same_bits(
            &single_link_failures(&net, &ctx),
            &single_link_failures_by_rerouting(&net, &ctx),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sweep_is_bit_identical_to_rerouting_n20(
            seed in 0u64..10_000,
            family in family(),
            layout in 0u8..3,
            zero_demand in any::<bool>(),
            overprovision in overprovision(),
        ) {
            check_sweep(20, seed, family, layout, zero_demand, overprovision)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        #[test]
        fn sweep_is_bit_identical_to_rerouting_n80(
            seed in 0u64..10_000,
            family in family(),
            layout in 0u8..3,
            zero_demand in any::<bool>(),
            overprovision in overprovision(),
        ) {
            check_sweep(80, seed, family, layout, zero_demand, overprovision)?;
        }
    }

    #[test]
    fn every_family_and_layout_is_bit_identical() {
        // The property draws its cases at random; this pins one of every
        // family × layout × provisioning, with and without zero demands.
        for (i, &family) in FAMILIES.iter().enumerate() {
            for layout in 0..3u8 {
                for (j, overprovision) in [1.0, 4.0].into_iter().enumerate() {
                    let seed = (i * 6 + layout as usize * 2 + j) as u64;
                    check_sweep(20, seed, family, layout, seed.is_multiple_of(2), overprovision)
                        .unwrap();
                }
            }
        }
    }

    fn square_ctx() -> Context {
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
    fn tree_failures_strand_traffic() {
        let ctx = square_ctx();
        let star = AdjacencyMatrix::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let net = Network::build(star, &ctx, CostParams::paper(1e-3, 0.0)).unwrap();
        let report = single_link_failures(&net, &ctx);
        assert_eq!(report.impacts.len(), 3);
        for i in &report.impacts {
            // Cutting a spoke strands one PoP: 2·3 of 12 ordered pairs.
            assert!((i.stranded_traffic_fraction - 0.5).abs() < 1e-9);
        }
        assert_eq!(report.survivable_link_fraction(), 0.0);
    }

    #[test]
    fn ring_failures_reroute_everything() {
        let ctx = square_ctx();
        let ring = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        // Provision 4× headroom so reroutes fit.
        let params = CostParams::paper(1e-3, 0.0).with_overprovision(4.0);
        let net = Network::build(ring, &ctx, params).unwrap();
        let report = single_link_failures(&net, &ctx);
        for i in &report.impacts {
            assert_eq!(i.stranded_traffic_fraction, 0.0);
            assert_eq!(i.overloaded_links, 0, "4x headroom must absorb any single failure");
            assert!(i.max_utilization <= 1.0 + 1e-9);
            assert!(i.mean_stretch >= 1.0);
        }
        assert_eq!(report.survivable_link_fraction(), 1.0);
    }

    #[test]
    fn tight_provisioning_overloads_on_reroute() {
        let ctx = square_ctx();
        let ring = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        // O = 1: every reroute must exceed some installed capacity.
        let net = Network::build(ring, &ctx, CostParams::paper(1e-3, 0.0)).unwrap();
        let report = single_link_failures(&net, &ctx);
        for i in &report.impacts {
            assert_eq!(i.stranded_traffic_fraction, 0.0, "ring survives any single cut");
            assert!(i.overloaded_links > 0, "O = 1 leaves no headroom");
            assert!(i.max_utilization > 1.0);
        }
    }

    #[test]
    fn stretch_reflects_detours() {
        let ctx = square_ctx();
        let ring = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let net = Network::build(ring, &ctx, CostParams::paper(1e-3, 0.0)).unwrap();
        let report = single_link_failures(&net, &ctx);
        // Failing (0,1): the 0↔1 demand now takes the 3-hop way around
        // (length 3 vs 1) — mean stretch must be clearly above 1.
        let impact = report.impacts.iter().find(|i| i.link == (0, 1)).unwrap();
        assert!(impact.mean_stretch > 1.1, "stretch {}", impact.mean_stretch);
    }

    #[test]
    fn worst_link_identified() {
        let ctx = square_ctx();
        // Triangle + pendant: the pendant link is the clear worst.
        let topo = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let net = Network::build(topo, &ctx, CostParams::paper(1e-3, 0.0)).unwrap();
        let report = single_link_failures(&net, &ctx);
        let worst = report.worst().unwrap();
        assert_eq!(worst.link, (2, 3));
        assert!(worst.stranded_traffic_fraction > 0.0);
    }

    #[test]
    fn reversed_link_endpoints_still_find_installed_capacity() {
        // Regression: capacity lookup used to key on the raw `(l.u, l.v)`
        // tuple, so an endpoint-order mismatch with the routing layer read
        // as zero capacity and reported infinite utilization.
        let ctx = square_ctx();
        let ring = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let params = CostParams::paper(1e-3, 0.0).with_overprovision(4.0);
        let mut net = Network::build(ring, &ctx, params).unwrap();
        let baseline = single_link_failures(&net, &ctx);
        // Flip every stored link's endpoint order; the analysis must be
        // insensitive to it.
        for l in &mut net.links {
            std::mem::swap(&mut l.u, &mut l.v);
        }
        let flipped = single_link_failures(&net, &ctx);
        assert_eq!(baseline.impacts.len(), flipped.impacts.len());
        for (b, f) in baseline.impacts.iter().zip(&flipped.impacts) {
            assert!(f.max_utilization.is_finite(), "reversed order read as zero capacity");
            assert_eq!(b.max_utilization, f.max_utilization);
            assert_eq!(b.overloaded_links, f.overloaded_links);
            assert_eq!(b.stranded_traffic_fraction, f.stranded_traffic_fraction);
        }
    }

    #[test]
    fn end_to_end_on_synthesized_network() {
        let r = crate::ColdConfig::quick(9, 4e-4, 10.0).synthesize(5);
        let report = single_link_failures(&r.network, &r.context);
        assert_eq!(report.impacts.len(), r.network.link_count());
        for i in &report.impacts {
            assert!((0.0..=1.0).contains(&i.stranded_traffic_fraction));
            assert!(i.mean_stretch >= 1.0 - 1e-9);
        }
    }
}
