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
//! The sweep starts from a routing state (adjacency and per-source
//! distance and parent rows) — the one a built network carries
//! (`net.plan.routing`), or the one a cost session left behind
//! ([`cold_cost::DeltaEval::routing`]) — and reports for every link
//! exactly what a full shortest-path re-route of the topology without that
//! link reports, bit for bit:
//!
//! - **Bridges** (one Tarjan pass over the routing's own adjacency finds
//!   them all) need no Dijkstra. Every surviving route keeps its path, so
//!   stretch is exactly 1. Stranded demand is the demand crossing the
//!   cut, and loads are the subtree pass over the base trees with that
//!   demand zeroed.
//! - **Any other link** re-routes only the sources whose tree contains it.
//!   Deleting a non-tree edge cannot change a Dijkstra run: a node's
//!   parent is the first relaxer in settle order to reach its final
//!   label, a node is queued at that label when its parent settles, and
//!   a non-tree edge only offers labels that are later beaten or tied.
//!   Every other source reuses its cached per-link load contributions.
//! - **A touched source** has its tree repaired by
//!   [`cold_graph::routing::TreeRepair`], the repair incremental
//!   evaluation uses, with the link as the one deleted pair: the subtree
//!   below the cut edge is orphaned, re-labelled from its surviving
//!   neighbours and propagated, and every orphan takes its unique
//!   shortest predecessor. The rows are a fresh Dijkstra's on the cut
//!   adjacency. A base tree with a tie (its `RoutingState::tie_free` flag
//!   is false), or an orphan with several shortest predecessors, re-runs
//!   that Dijkstra instead (DESIGN.md §13, §15.1).
//!
//! Each link's load is then folded over sources in ascending order, the
//! summation order of [`cold_graph::routing::RoutingState::link_loads`],
//! so utilization, overload counts and stretch equal a full re-route's.
//!
//! # The report and the objective
//!
//! One per-link body serves two callers. [`single_link_failures`] reports
//! every link of a built network against the capacities it installed.
//! [`worst_failure`], the Pareto impact objective, needs only the routing
//! its cost session priced: it installs `O ·` that routing's own loads,
//! tallies only what the objective weighs (stranded fraction and peak
//! utilization, no stretch or overload counts), and visits only the
//! failures that can still raise the worst.
//!
//! # The fold's bounds
//!
//! A non-bridge failure strands nothing, so it weighs at most
//! `weigh(0, ∞)`. A bridge failure keeps every surviving route and only
//! removes demand, so each link's failed load folds a subset of its base
//! contributions, each no larger, in the same ascending source order;
//! rounding is monotone, so no surviving link's utilization exceeds the
//! base plan's peak `U0`, and the failure weighs at most
//! `weigh(stranded, U0)`. The fold visits the bridges by decreasing bound,
//! then the non-bridges by decreasing base load, and skips each failure
//! whose bound the running maximum already reaches (DESIGN.md §15.1).

use cold_context::Context;
use cold_cost::network::Link;
use cold_cost::Network;
use cold_graph::connectivity::{cut_structure, CutStructure};
use cold_graph::routing::{
    accumulate_source, pair_slot, push_down, Csr, EdgeDiff, RoutingState, SubtreeScratch,
    TreeRepair,
};
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
    let _timer = cold_obs::timer("failure.sweep_seconds");
    let SweepBuffers { tables, scratch, .. } = &mut SweepBuffers::default();
    let sweep = Sweep::new(&net.plan.routing, ctx, Capacity::Links(&net.links), tables, scratch);
    let impacts = net
        .links
        .iter()
        .map(|failed| LinkFailureImpact {
            link: (failed.u, failed.v),
            ..sweep.fail((failed.u.min(failed.v), failed.u.max(failed.v)), scratch)
        })
        .collect();
    scratch.record();
    FailureReport { impacts }
}

/// The worst `weigh(stranded_traffic_fraction, max_utilization)` over
/// every single-link failure of the topology `routing` routes in `ctx`,
/// with `overprovision ·` the routing's own link loads as capacities —
/// the capacities [`cold_cost::assign_capacities`] installs. It equals
/// folding `weigh` over [`single_link_failures`] of the built network
/// with `max` from 0, bit for bit.
///
/// `weigh` must be non-decreasing in utilization and never NaN. The fold
/// skips every failure whose bound — `weigh(0.0, f64::INFINITY)` for a
/// non-bridge, `weigh(stranded, U0)` for a bridge, with `U0` the base
/// plan's peak utilization — the running maximum already reaches; `max`
/// over non-NaN values ignores order, so the skipped failures cannot
/// change the result. `buffers` hold the sweep's tables and scratch; a
/// caller that keeps them across calls stops allocating once they have
/// grown.
pub fn worst_failure(
    routing: &RoutingState,
    ctx: &Context,
    overprovision: f64,
    weigh: impl Fn(f64, f64) -> f64,
    buffers: &mut SweepBuffers,
) -> f64 {
    assert_eq!(ctx.n(), routing.n(), "routing and context disagree on PoP count");
    let _timer = cold_obs::timer("failure.sweep_seconds");
    let (worst, visits) = bounded_worst(routing, ctx, overprovision, weigh, buffers);
    visits.record();
    worst
}

/// How many failures of each kind a fold visited, and how many its bounds
/// skipped.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Visits {
    bridge_visited: usize,
    bridge_skipped: usize,
    nonbridge_visited: usize,
    nonbridge_skipped: usize,
}

impl Visits {
    /// Adds the fold's visit counters.
    fn record(&self) {
        cold_obs::counter_add("failure.bridge_visited", self.bridge_visited as u64);
        cold_obs::counter_add("failure.bridge_skipped", self.bridge_skipped as u64);
        cold_obs::counter_add("failure.nonbridge_visited", self.nonbridge_visited as u64);
        cold_obs::counter_add("failure.nonbridge_skipped", self.nonbridge_skipped as u64);
    }
}

/// [`worst_failure`]'s fold; also returns what it visited and skipped.
fn bounded_worst(
    routing: &RoutingState,
    ctx: &Context,
    overprovision: f64,
    weigh: impl Fn(f64, f64) -> f64,
    buffers: &mut SweepBuffers,
) -> (f64, Visits) {
    let SweepBuffers { tables, scratch: buf, visits: order } = buffers;
    let sweep = Sweep::new(routing, ctx, Capacity::Provisioned(overprovision), tables, buf);
    let t = sweep.tables;
    // Every failure with the most it can weigh: bridges by decreasing
    // bound, then non-bridges by decreasing base load.
    let peak = sweep.utilization(None, &t.load).0;
    order.clear();
    for &bridge in &sweep.cuts.bridges {
        let stranded = sweep.fraction(sweep.stranded(bridge, &mut buf.piece));
        order.push((bridge, weigh(stranded, peak)));
    }
    order.sort_by(|a, b| b.1.total_cmp(&a.1));
    let bridges = order.len();
    let cycle_bound = weigh(0.0, f64::INFINITY);
    order.extend(
        t.edges.iter().filter(|&&(u, v)| !sweep.cuts.is_bridge(u, v)).map(|&l| (l, cycle_bound)),
    );
    let load = |(u, v): (usize, usize)| t.load[sweep.edge(u, v)];
    order[bridges..].sort_by(|a, b| load(b.0).total_cmp(&load(a.0)));

    let mut worst = 0.0f64;
    let mut fold = |failures: &[((usize, usize), f64)]| {
        let mut visited = 0usize;
        for &(link, bound) in failures {
            if worst >= bound {
                continue;
            }
            let impact = sweep.fail(link, buf);
            worst = worst.max(weigh(impact.stranded_traffic_fraction, impact.max_utilization));
            visited += 1;
        }
        (visited, failures.len() - visited)
    };
    let (bridge_visited, bridge_skipped) = fold(&order[..bridges]);
    let (nonbridge_visited, nonbridge_skipped) = fold(&order[bridges..]);
    buf.record();
    (worst, Visits { bridge_visited, bridge_skipped, nonbridge_visited, nonbridge_skipped })
}

/// Demand stranded by a bridge failure whose pieces
/// ([`CutStructure::pieces_without`]) are `piece`: `t(s, t)` summed in
/// row-major order over the ordered pairs in different pieces, including
/// pairs that were never connected.
pub(crate) fn cross_cut_demand(piece: &[usize], ctx: &Context) -> f64 {
    let mut stranded = 0.0f64;
    for (s, &from) in piece.iter().enumerate() {
        for (t, &to) in piece.iter().enumerate() {
            if from != to {
                stranded += ctx.traffic.demand(s, t);
            }
        }
    }
    stranded
}

/// Where a sweep's installed capacities come from, and what it tallies.
enum Capacity<'a> {
    /// A built network's links, matched by normalized endpoints (stored
    /// links need not be `u < v`); a link with none installs nothing.
    /// The sweep reports every field of every failure.
    Links(&'a [Link]),
    /// `O ·` each link's base load: [`RoutingState::link_loads`]' fold, so
    /// the values of [`cold_cost::assign_capacities`]. The sweep tallies
    /// only what the impact objective weighs: failures read stretch 1 and
    /// no overloaded links.
    Provisioned(f64),
}

/// The buffers of failure sweeps: the tables a sweep derives from its
/// routing and the scratch its failures rewrite. Kept across sweeps, they
/// stop allocating once they have grown.
#[derive(Default)]
pub struct SweepBuffers {
    tables: Tables,
    scratch: Buffers,
    /// The fold's failures in visiting order, each with its bound.
    visits: Vec<((usize, usize), f64)>,
}

/// Rows of varying length in one flat buffer: row `i` is
/// `items[at[i]..at[i + 1]]`.
#[derive(Default)]
struct Flat<T> {
    items: Vec<T>,
    at: Vec<usize>,
}

impl<T> Flat<T> {
    fn clear(&mut self) {
        self.items.clear();
        self.at.clear();
        self.at.push(0);
    }

    /// Closes the row of the items pushed since the last row.
    fn end_row(&mut self) {
        self.at.push(self.items.len());
    }

    fn row(&self, i: usize) -> &[T] {
        &self.items[self.at[i]..self.at[i + 1]]
    }
}

/// What one sweep reuses across failures, all derived once from one
/// routing.
#[derive(Default)]
struct Tables {
    /// The routed edges, `(u, v)` with `u < v`, ascending.
    edges: Vec<(usize, usize)>,
    /// Edge index per node pair, at `AdjacencyMatrix::pair_index`.
    edge_at: Vec<usize>,
    /// Base load per edge: its contributions folded in ascending source
    /// order.
    load: Vec<f64>,
    /// Installed capacity per edge.
    capacity: Vec<f64>,
    /// Children-first order of each source's base tree.
    order: Flat<usize>,
    /// `(edge, load)` contributions of each source's base tree.
    contrib: Flat<(usize, f64)>,
    /// Per source, the targets its stretch terms cover: positive demand
    /// at a positive base distance. Empty rows when the sweep does not
    /// report stretch.
    stretch_targets: Flat<usize>,
}

/// One sweep over one routing.
///
/// A topology that routed has no demand between its components (routing
/// it would have failed), so only a bridge failure strands demand and
/// every other failure routes the context's demands unchanged.
struct Sweep<'a> {
    routing: &'a RoutingState,
    ctx: &'a Context,
    total_traffic: f64,
    /// Whether failures tally stretch and overloaded links (the full
    /// report).
    report: bool,
    cuts: CutStructure,
    tables: &'a Tables,
}

/// One touched source's rows after a failure, and the repair that
/// writes them.
#[derive(Default)]
struct Rows {
    dist: Vec<f64>,
    parent: Vec<usize>,
    repair: TreeRepair,
}

/// Scratch state of a sweep, rewritten by every failure.
#[derive(Default)]
struct Buffers {
    /// The routed adjacency; a failure cuts one edge of it.
    csr: Csr,
    subtree: SubtreeScratch,
    demand: Vec<f64>,
    /// Per-edge loads of the failure in progress.
    load: Vec<f64>,
    /// Per node, its piece once the failing bridge is cut.
    piece: Vec<usize>,
    rows: Rows,
    /// Re-routes of touched sources over the whole sweep: trees repaired
    /// in place, and trees that took a fresh Dijkstra.
    repaired: u64,
    rerouted: u64,
}

impl Buffers {
    /// Adds the sweep's re-route counters and clears them.
    fn record(&mut self) {
        cold_obs::counter_add("failure.repaired_sources", std::mem::take(&mut self.repaired));
        cold_obs::counter_add("failure.rerouted_sources", std::mem::take(&mut self.rerouted));
    }
}

impl<'a> Sweep<'a> {
    /// Fills `tables` from `routing` and points `buf` at its adjacency.
    fn new(
        routing: &'a RoutingState,
        ctx: &'a Context,
        capacity: Capacity<'_>,
        tables: &'a mut Tables,
        buf: &mut Buffers,
    ) -> Self {
        let n = routing.n();
        let report = matches!(capacity, Capacity::Links(_));
        let t = tables;
        t.edges.clear();
        t.edges.extend(routing.csr().edges().map(|(u, v, _)| (u, v)));
        t.edge_at.clear();
        t.edge_at.resize(n * n.saturating_sub(1) / 2, usize::MAX);
        for (i, &(u, v)) in t.edges.iter().enumerate() {
            t.edge_at[pair_slot(n, u, v)] = i;
        }
        t.load.clear();
        t.load.resize(t.edges.len(), 0.0);
        t.order.clear();
        t.contrib.clear();
        t.stretch_targets.clear();
        let traffic = ctx.traffic_fn();
        for s in 0..n {
            let (dist, parent) = (routing.dist(s), routing.parent(s));
            let Tables { edge_at, load, contrib, .. } = &mut *t;
            accumulate_source(s, dist, parent, &traffic, &mut buf.subtree, |p, v, d| {
                let e = edge_at[pair_slot(n, p, v)];
                load[e] += d;
                contrib.items.push((e, d));
            })
            .expect("a routing routes every demand");
            t.order.items.extend_from_slice(buf.subtree.order());
            t.order.end_row();
            t.contrib.end_row();
            if report {
                let targets = (0..n).filter(|&t| t != s && traffic(s, t) > 0.0 && dist[t] > 0.0);
                t.stretch_targets.items.extend(targets);
            }
            t.stretch_targets.end_row();
        }
        t.capacity.clear();
        match capacity {
            Capacity::Links(links) => {
                t.capacity.resize(t.edges.len(), 0.0);
                for l in links {
                    if let Ok(i) = t.edges.binary_search(&(l.u.min(l.v), l.u.max(l.v))) {
                        t.capacity[i] = l.capacity;
                    }
                }
            }
            Capacity::Provisioned(overprovision) => {
                t.capacity.extend(t.load.iter().map(|&w| overprovision * w));
            }
        }
        buf.csr.clone_from(routing.csr());
        Self {
            routing,
            ctx,
            total_traffic: ctx.traffic.total(),
            report,
            cuts: cut_structure(routing.csr()),
            tables: t,
        }
    }

    /// Edge index of the routed link `{p, v}`.
    fn edge(&self, p: usize, v: usize) -> usize {
        self.tables.edge_at[pair_slot(self.routing.n(), p, v)]
    }

    /// `demand` as a fraction of the offered traffic.
    fn fraction(&self, demand: f64) -> f64 {
        if self.total_traffic > 0.0 {
            demand / self.total_traffic
        } else {
            0.0
        }
    }

    /// The impact of failing `link` (`u < v`): what a full re-route of
    /// the topology without it reports, bit for bit, in every field the
    /// sweep tallies.
    fn fail(&self, link: (usize, usize), buf: &mut Buffers) -> LinkFailureImpact {
        buf.load.clear();
        buf.load.resize(self.tables.edges.len(), 0.0);
        let (stranded, mean_stretch) = if self.cuts.is_bridge(link.0, link.1) {
            (self.fail_bridge(link, buf), 1.0)
        } else {
            (0.0, self.fail_cycle_link(link, buf))
        };
        let (max_utilization, overloaded_links) = self.utilization(Some(link), &buf.load);
        LinkFailureImpact {
            link,
            stranded_traffic_fraction: self.fraction(stranded),
            max_utilization,
            overloaded_links,
            mean_stretch,
        }
    }

    /// The demand the failure of `bridge` strands; leaves its pieces in
    /// `piece`.
    fn stranded(&self, bridge: (usize, usize), piece: &mut Vec<usize>) -> f64 {
        self.cuts.pieces_without(bridge, piece);
        cross_cut_demand(piece, self.ctx)
    }

    /// Fills `buf.load` for the failure of `bridge` and returns the demand
    /// it strands. Surviving routes are unchanged, so this is the subtree
    /// pass over every base tree with the cross-cut demand zeroed.
    fn fail_bridge(&self, bridge: (usize, usize), buf: &mut Buffers) -> f64 {
        let stranded = self.stranded(bridge, &mut buf.piece);
        let Buffers { piece, demand, load, .. } = buf;
        let traffic = |s, t| if piece[s] == piece[t] { self.ctx.traffic.demand(s, t) } else { 0.0 };
        let routing = self.routing;
        for s in 0..routing.n() {
            push_down(
                s,
                routing.dist(s),
                routing.parent(s),
                self.tables.order.row(s),
                &traffic,
                demand,
                |p, v, d| load[self.edge(p, v)] += d,
            )
            .expect("stranded demands zeroed, remaining pairs routable");
        }
        stranded
    }

    /// Fills `buf.load` for the failure of the non-bridge `{u, v}` and
    /// returns the mean stretch. Only sources whose base tree uses the
    /// link are re-routed, by a tree repair where it is exact and a fresh
    /// Dijkstra otherwise; the rest replay their cached contributions.
    fn fail_cycle_link(&self, (u, v): (usize, usize), buf: &mut Buffers) -> f64 {
        let Buffers { csr, subtree, load, rows, repaired, rerouted, .. } = buf;
        let traffic = self.ctx.traffic_fn();
        let mut stretch_sum = 0.0f64;
        let mut stretch_count = 0usize;
        let routing = self.routing;
        csr.with_edge_cut(u, v, |csr| {
            for s in 0..routing.n() {
                let targets = self.tables.stretch_targets.row(s);
                stretch_count += targets.len();
                let base_dist = routing.dist(s);
                if !self.touches(s, (u, v)) {
                    for &(e, d) in self.tables.contrib.row(s) {
                        load[e] += d;
                    }
                    // Unchanged route: each term is `dist / dist`, exactly 1.
                    for _ in targets {
                        stretch_sum += 1.0;
                    }
                    continue;
                }
                if self.reroute(s, (u, v), csr, rows) {
                    *repaired += 1;
                } else {
                    *rerouted += 1;
                }
                let Rows { dist, parent, .. } = &*rows;
                accumulate_source(s, dist, parent, &traffic, subtree, |p, w, d| {
                    load[self.edge(p, w)] += d
                })
                .expect("a non-bridge failure leaves every routed pair connected");
                for &t in targets {
                    stretch_sum += dist[t] / base_dist[t];
                }
            }
        });
        if stretch_count > 0 {
            stretch_sum / stretch_count as f64
        } else {
            1.0
        }
    }

    /// Whether source `s`'s base tree holds the link `{u, v}`.
    fn touches(&self, s: usize, (u, v): (usize, usize)) -> bool {
        let parent = self.routing.parent(s);
        parent[v] == u || parent[u] == v
    }

    /// Fills `rows` with the rows of touched source `s` once its tree
    /// link is cut in `csr`: the base rows through [`TreeRepair::run`].
    /// Returns whether they were repaired in place.
    fn reroute(&self, s: usize, link: (usize, usize), csr: &Csr, rows: &mut Rows) -> bool {
        let routing = self.routing;
        rows.dist.clear();
        rows.dist.extend_from_slice(routing.dist(s));
        rows.parent.clear();
        rows.parent.extend_from_slice(routing.parent(s));
        let mut tie_free = routing.tie_free(s);
        let diff = EdgeDiff { deleted: &[link], inserted: &[] };
        let Rows { dist, parent, repair } = rows;
        repair.run(csr, diff, s, dist, parent, &mut tie_free).in_place
    }

    /// Maximum utilization of `load` over the links that survive the
    /// failure of `failed` (every link for `None`), and the number of
    /// them it overloads when the sweep reports overloads (0 otherwise).
    fn utilization(&self, failed: Option<(usize, usize)>, load: &[f64]) -> (f64, usize) {
        let mut max_util = 0.0f64;
        let mut overloaded = 0usize;
        let t = self.tables;
        for ((&edge, &load), &installed) in t.edges.iter().zip(load).zip(&t.capacity) {
            if Some(edge) == failed {
                continue;
            }
            if installed > 0.0 {
                let util = load / installed;
                max_util = max_util.max(util);
                overloaded += usize::from(self.report && util > 1.0 + 1e-9);
            } else if load > 0.0 {
                // Link carried nothing before (zero capacity) but does now.
                overloaded += usize::from(self.report);
                max_util = f64::INFINITY;
            }
        }
        (max_util, overloaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::{failure_impact, weigh, UTILIZATION_WEIGHT};
    use cold_context::{GravityModel, Point, PopulationKind};
    use cold_cost::{CostParams, Network};
    use cold_graph::shortest_path::DijkstraWorkspace;
    use cold_graph::AdjacencyMatrix;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Routes `traffic` over `topology` from scratch: the routing state,
    /// its edges and their loads.
    fn reroute(
        topology: &AdjacencyMatrix,
        ctx: &Context,
        traffic: impl Fn(usize, usize) -> f64 + Copy,
    ) -> (RoutingState, Vec<(usize, usize)>, Vec<f64>) {
        let mut routing = RoutingState::new();
        routing.build(topology, ctx.distance_fn(), traffic).expect("stranded demands zeroed");
        let load = routing.link_loads(traffic).unwrap();
        let edges = routing.csr().edges().map(|(u, v, _)| (u, v)).collect();
        (routing, edges, load)
    }

    /// The sweep's oracle: for every link, clone the topology without it
    /// and re-route all traffic from scratch. The incremental sweep must
    /// reproduce it bit for bit.
    fn single_link_failures_by_rerouting(net: &Network, ctx: &Context) -> FailureReport {
        let n = net.n();
        assert_eq!(ctx.n(), n, "network and context disagree on PoP count");
        let total_traffic = ctx.traffic.total();
        // Baseline route lengths for stretch.
        let (base, _, _) = reroute(&net.topology, ctx, ctx.traffic_fn());
        let base_len: Vec<Vec<f64>> = (0..n).map(|s| base.dist(s).to_vec()).collect();
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
            let surviving = |s, t| if survives(s, t) { ctx.traffic.demand(s, t) } else { 0.0 };
            let (routed, edges, load) = reroute(&topo, ctx, surviving);
            let mut max_util = 0.0f64;
            let mut overloaded = 0usize;
            for (i, &(u, v)) in edges.iter().enumerate() {
                let installed = capacity.get(&(u.min(v), u.max(v))).copied().unwrap_or(0.0);
                if installed > 0.0 {
                    let util = load[i] / installed;
                    max_util = max_util.max(util);
                    if util > 1.0 + 1e-9 {
                        overloaded += 1;
                    }
                } else if load[i] > 0.0 {
                    overloaded += 1;
                    max_util = f64::INFINITY;
                }
            }
            let mut stretch_sum = 0.0f64;
            let mut stretch_count = 0usize;
            for (s, base_row) in base_len.iter().enumerate() {
                for (t, &before) in base_row.iter().enumerate() {
                    if s != t && survives(s, t) && ctx.traffic.demand(s, t) > 0.0 {
                        let after = routed.dist(s)[t];
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

    /// The bounded fold over a fresh routing of one random case equals
    /// the impact objective folded over the full report of the built
    /// network, by `to_bits`. Returns how many failures the bound skipped.
    fn check_bounded(
        n: usize,
        seed: u64,
        family: Family,
        layout: u8,
        zero_demand: bool,
        overprovision: f64,
    ) -> Result<usize, TestCaseError> {
        let mut ctx = random_context(n, seed, layout, zero_demand);
        let topo = random_topology(family, &mut ctx, seed);
        let (routing, _, _) = reroute(&topo, &ctx, ctx.traffic_fn());
        let params = CostParams::paper(1e-3, 0.0).with_overprovision(overprovision);
        let net = Network::build(topo, &ctx, params).expect("every family routes its demand");
        let buffers = &mut SweepBuffers::default();
        let (bounded, visits) = bounded_worst(&routing, &ctx, overprovision, weigh, buffers);
        let full = failure_impact(&single_link_failures(&net, &ctx));
        prop_assert_eq!(bounded.to_bits(), full.to_bits(), "{:?} layout {}", family, layout);
        prop_assert_eq!(
            worst_failure(&routing, &ctx, overprovision, weigh, buffers).to_bits(),
            full.to_bits()
        );
        Ok(visits.bridge_skipped + visits.nonbridge_skipped)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn bounded_worst_impact_equals_the_full_report_n20(
            seed in 0u64..10_000,
            family in family(),
            layout in 0u8..3,
            zero_demand in any::<bool>(),
            overprovision in overprovision(),
        ) {
            check_bounded(20, seed, family, layout, zero_demand, overprovision)?;
        }
    }

    #[test]
    fn every_family_and_layout_bounds_exactly() {
        // One of every family × layout × provisioning; the bound must
        // skip somewhere, and some case must visit every failure.
        let (mut skipped, mut complete) = (0, 0);
        for (i, &family) in FAMILIES.iter().enumerate() {
            for layout in 0..3u8 {
                for (j, overprovision) in [1.0, 4.0].into_iter().enumerate() {
                    let seed = (i * 6 + layout as usize * 2 + j) as u64;
                    let zero_demand = seed.is_multiple_of(2);
                    let k = check_bounded(20, seed, family, layout, zero_demand, overprovision)
                        .unwrap();
                    skipped += k;
                    complete += usize::from(k == 0);
                }
            }
        }
        assert!(skipped > 0 && complete > 0, "skipped {skipped}, complete cases {complete}");
    }

    #[test]
    fn a_dominant_bridge_skips_every_other_failure() {
        // Triangle + pendant: failing the pendant link strands a quarter
        // of the PoPs' traffic, far above any non-bridge failure's cap.
        let ctx = square_ctx();
        let topo = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let net = Network::build(topo, &ctx, CostParams::paper(1e-3, 0.0)).unwrap();
        let buffers = &mut SweepBuffers::default();
        let (worst, visits) = bounded_worst(&net.plan.routing, &ctx, 1.0, weigh, buffers);
        assert!(worst > UTILIZATION_WEIGHT, "the bridge dominates: {worst}");
        assert_eq!(visits.nonbridge_skipped, 3, "no non-bridge failure is visited");
        let full = failure_impact(&single_link_failures(&net, &ctx));
        assert_eq!(worst.to_bits(), full.to_bits());
    }

    #[test]
    fn a_roomy_ring_visits_every_failure() {
        // O = 4: every reroute fits, no failure reaches the cap, so the
        // fold visits all four links.
        let ctx = square_ctx();
        let ring = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let params = CostParams::paper(1e-3, 0.0).with_overprovision(4.0);
        let net = Network::build(ring, &ctx, params).unwrap();
        let buffers = &mut SweepBuffers::default();
        let (worst, visits) = bounded_worst(&net.plan.routing, &ctx, 4.0, weigh, buffers);
        assert!(worst < UTILIZATION_WEIGHT, "no failure reaches the cap: {worst}");
        assert_eq!(visits.nonbridge_skipped, 0);
        let full = failure_impact(&single_link_failures(&net, &ctx));
        assert_eq!(worst.to_bits(), full.to_bits());
    }

    /// Every bridge failure of one random case weighs at most its bound
    /// `weigh(stranded, U0)`, and its peak utilization stays at or below
    /// the base plan's `U0`. Returns how many bridges the case has.
    fn check_bridge_bound(
        seed: u64,
        family: Family,
        layout: u8,
        zero_demand: bool,
        overprovision: f64,
    ) -> Result<usize, TestCaseError> {
        let mut ctx = random_context(20, seed, layout, zero_demand);
        let topo = random_topology(family, &mut ctx, seed);
        let (routing, _, _) = reroute(&topo, &ctx, ctx.traffic_fn());
        let (mut tables, mut buf) = (Tables::default(), Buffers::default());
        let capacity = Capacity::Provisioned(overprovision);
        let sweep = Sweep::new(&routing, &ctx, capacity, &mut tables, &mut buf);
        let peak = sweep.utilization(None, &sweep.tables.load).0;
        for &bridge in &sweep.cuts.bridges {
            let stranded = sweep.fraction(sweep.stranded(bridge, &mut Vec::new()));
            let impact = sweep.fail(bridge, &mut buf);
            let case = format!("{family:?} layout {layout} O {overprovision} bridge {bridge:?}");
            prop_assert_eq!(stranded.to_bits(), impact.stranded_traffic_fraction.to_bits());
            prop_assert!(impact.max_utilization <= peak, "{}: above U0 {}", case, peak);
            prop_assert!(
                weigh(stranded, impact.max_utilization) <= weigh(stranded, peak),
                "{}",
                case
            );
        }
        Ok(sweep.cuts.bridges.len())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn every_bridge_failure_weighs_at_most_its_bound(
            seed in 0u64..10_000,
            family in family(),
            layout in 0u8..3,
            zero_demand in any::<bool>(),
            overprovision in overprovision(),
        ) {
            check_bridge_bound(seed, family, layout, zero_demand, overprovision)?;
        }
    }

    #[test]
    fn every_family_and_layout_keeps_the_bridge_bound() {
        // One of every family × layout × provisioning.
        let mut bridges = 0;
        for (i, &family) in FAMILIES.iter().enumerate() {
            for layout in 0..3u8 {
                for (j, overprovision) in [1.0, 4.0].into_iter().enumerate() {
                    let seed = (i * 6 + layout as usize * 2 + j) as u64;
                    let zero_demand = seed.is_multiple_of(2);
                    bridges += check_bridge_bound(seed, family, layout, zero_demand, overprovision)
                        .unwrap();
                }
            }
        }
        assert!(bridges > 0);
    }

    #[test]
    fn a_leafy_network_visits_only_its_top_bridge() {
        // A ring 0-1-2-3 with a three-PoP tail 0-4-5-6 and one leaf on
        // each of 1, 2 and 3, all demands equal: cutting (0, 4) strands
        // 3 of 10 PoPs (42/90 of the traffic), every other bridge at most
        // 2 (32/90), so its bound cannot reach the top bridge's weight,
        // and no non-bridge failure (at most 0.1) can either.
        let points = [
            (0.0, 0.0),
            (4.0, 0.0),
            (4.0, 4.0),
            (0.0, 4.0),
            (-2.0, -1.0),
            (-4.0, -2.0),
            (-6.0, -3.0),
            (6.0, -1.0),
            (6.0, 6.0),
            (-1.0, 6.0),
        ];
        let ctx = Context::from_positions(
            points.iter().map(|&(x, y)| Point::new(x, y)).collect(),
            PopulationKind::Constant { value: 1.0 },
            GravityModel::raw(),
            0,
        );
        let edges =
            [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (1, 7), (2, 8), (3, 9)];
        let topo = AdjacencyMatrix::from_edges(10, &edges).unwrap();
        let net = Network::build(topo, &ctx, CostParams::paper(1e-3, 0.0)).unwrap();
        let buffers = &mut SweepBuffers::default();
        let (worst, visits) = bounded_worst(&net.plan.routing, &ctx, 1.0, weigh, buffers);
        let expected = Visits {
            bridge_visited: 1,
            bridge_skipped: 5,
            nonbridge_visited: 0,
            nonbridge_skipped: 4,
        };
        assert_eq!(visits, expected);
        let report = single_link_failures(&net, &ctx);
        assert_eq!(report.worst().unwrap().link, (0, 4));
        assert_eq!(worst.to_bits(), failure_impact(&report).to_bits());
    }

    /// Checks the rows the sweep uses for every (source, non-bridge link)
    /// pair it re-routes against the cut adjacency's fresh Dijkstra:
    /// distances by `to_bits`, parents exactly. Returns how many pairs
    /// were repaired in place and how many fell back.
    fn check_touched_rows(net: &Network, ctx: &Context, case: &str) -> (usize, usize) {
        let (mut tables, mut buf) = (Tables::default(), Buffers::default());
        let capacity = Capacity::Links(&net.links);
        let sweep = Sweep::new(&net.plan.routing, ctx, capacity, &mut tables, &mut buf);
        let mut csr = net.plan.routing.csr().clone();
        let (mut rows, mut fresh) = (Rows::default(), DijkstraWorkspace::new());
        let (mut repaired, mut rerouted) = (0, 0);
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for &(u, v) in net.plan.edges() {
            if sweep.cuts.is_bridge(u, v) {
                continue;
            }
            csr.with_edge_cut(u, v, |csr| {
                for s in (0..net.n()).filter(|&s| sweep.touches(s, (u, v))) {
                    let in_place = sweep.reroute(s, (u, v), csr, &mut rows);
                    let Rows { dist, parent, .. } = &rows;
                    csr.dijkstra(&mut fresh, s);
                    assert_eq!(bits(dist), bits(fresh.dist()), "{case}: {s} without ({u},{v})");
                    assert_eq!(parent, fresh.parent(), "{case}: {s} without ({u},{v})");
                    if in_place {
                        repaired += 1;
                    } else {
                        rerouted += 1;
                    }
                }
            });
        }
        (repaired, rerouted)
    }

    #[test]
    fn touched_rows_equal_a_fresh_dijkstra_on_the_cut_adjacency() {
        // Every family × layout. Layout 0 (no coincident PoPs, no
        // equal-cost paths) must take the repair every time; the grid
        // layout's ties must send some sources to the fresh Dijkstra.
        let mut counts = [(0usize, 0usize); 3];
        for (i, &family) in FAMILIES.iter().enumerate() {
            for layout in 0..3u8 {
                for seed in [i as u64 * 3 + layout as u64, 100 + i as u64 * 3 + layout as u64] {
                    let mut ctx = random_context(20, seed, layout, seed.is_multiple_of(2));
                    let topo = random_topology(family, &mut ctx, seed);
                    let net = Network::build(topo, &ctx, CostParams::paper(1e-3, 0.0)).unwrap();
                    let case = format!("{family:?} layout {layout} seed {seed}");
                    let (repaired, rerouted) = check_touched_rows(&net, &ctx, &case);
                    counts[layout as usize].0 += repaired;
                    counts[layout as usize].1 += rerouted;
                }
            }
        }
        let [free, _, grid] = counts;
        assert!(free.0 > 0 && free.1 == 0, "layout 0 repairs every pair: {free:?}");
        assert!(grid.1 > 0, "the grid layout falls back at least once: {grid:?}");
    }

    #[test]
    fn an_orphan_with_two_shortest_predecessors_falls_back() {
        // Source 0's tree is tie-free, but without the link (0, 1) node 1
        // is as near through 3 as through 4. A fresh Dijkstra settles 4
        // first and takes it as the parent, while 3 comes first in node
        // 1's arcs, so no choice among the two is safe without the run.
        let points = [(3.0, 2.0), (0.0, 2.0), (2.0, 5.0), (1.0, 3.0), (2.0, 4.0)];
        let ctx = Context::from_positions(
            points.iter().map(|&(x, y)| Point::new(x, y)).collect(),
            PopulationKind::Constant { value: 1.0 },
            GravityModel::raw(),
            0,
        );
        let edges = [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (3, 4)];
        let topo = AdjacencyMatrix::from_edges(5, &edges).unwrap();
        let net = Network::build(topo, &ctx, CostParams::paper(1e-3, 0.0)).unwrap();
        let (_, rerouted) = check_touched_rows(&net, &ctx, "two predecessors");
        assert!(rerouted > 0, "the tie must take the fresh Dijkstra");
        let mut csr = net.plan.routing.csr().clone();
        let mut ws = DijkstraWorkspace::new();
        csr.with_edge_cut(0, 1, |csr| csr.dijkstra(&mut ws, 0));
        assert_eq!(ws.parent()[1], 4);
        assert_eq!(ws.dist()[3] + ctx.distance(3, 1), ws.dist()[1], "3 ties with 4");
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
