//! Shortest-path routing of a traffic matrix: one [`RoutingState`] per
//! topology.
//!
//! This implements the capacity side of the paper's cost model (§3.2.1):
//! every demand `t(s, t)` is routed on the shortest geometric path, the
//! bandwidth `w_i` required on link `i` is the sum of all demands whose
//! route crosses it, and the bandwidth cost satisfies the identity
//! `Σ_i k2·ℓ_i·w_i = k2 · Σ_r t_r · L_r` (paper eq. 1 with O = 1; the
//! overprovisioning factor multiplies capacities uniformly and does not
//! affect which topology is optimal).
//!
//! [`RoutingState::build`] is the one loop that routes every source. It
//! lays the topology out as a [`Csr`], runs one Dijkstra per source into
//! row-major `n × n` distance and parent rows and a per-source tie-free
//! flag, prices each source's demands as `Σ_t t(s,t)·dist[t]`, and folds
//! those per-source terms in ascending source order. Every consumer reads
//! that state: the objective needs only the fold, incremental evaluation
//! keeps the rows of each pooled anchor and commits repaired ones through
//! [`RoutingState::replace_rows`], capacity plans ask for
//! [`RoutingState::link_loads`] and [`RoutingState::route`], and the
//! single-link failure sweep starts from the rows.
//!
//! # Tree repair
//!
//! [`TreeRepair::run`] is the one shortest-path-tree repair, for
//! incremental evaluation and the failure sweep alike. Given one source's
//! rows (a fresh Dijkstra's on the old topology), the new adjacency and
//! the [`EdgeDiff`], it orphans the subtrees below deleted tree edges
//! (found from their roots through the arcs) and the unreached nodes,
//! seeds each orphan from its non-orphan neighbours, relaxes the inserted
//! edges and propagates with a lazy-deletion heap. Non-orphan labels never
//! need to grow, so this ends at the relaxation fixpoint, whose labels are
//! a fresh run's bit for bit: the minimum left-fold sums of real paths.
//!
//! A fresh run's parent is the first relaxer in settle order to reach the
//! final label, under ties not always the `(dist, id)`-least shortest
//! predecessor, so the repair never picks among ties: every node whose
//! label changed or that an equal-label relaxation reached takes its
//! *unique* shortest predecessor, and the others keep their parents. On a
//! *tie-free* old tree ([`RoutingState::tie_free`]) that is exact: a new
//! predecessor of an unmarked node would be an inserted edge or a node
//! whose label changed, and relaxing either marks it; an orphan's raised
//! label ties into a non-orphan only if it was already a non-parent
//! predecessor, a tie; a deleted non-tree edge was never a predecessor. A
//! tree with a tie, or a marked node with several shortest predecessors,
//! re-runs Dijkstra for that source alone (DESIGN.md §13).
//!
//! Link loads are computed on demand. Per source, subtree demand is pushed
//! down the shortest-path tree in children-before-parents order — the same
//! trick as Brandes' betweenness accumulation — so the all-pairs routing is
//! O(n·m·log n + n²), not O(n³·path length). The order is by decreasing
//! tree *depth* (hops), counting-sorted in O(n). It must *not* be by
//! decreasing distance: with zero-length edges (coincident PoPs) a parent
//! and child tie on distance, and a distance ordering could process the
//! parent first and silently drop the child's subtree load. Each link's
//! per-source contributions are folded in ascending source order, one term
//! per source at most.
//!
//! The pieces of that pass are public for callers that re-route a few
//! sources of an already routed topology and must land on its exact bits
//! (the single-link failure sweep): [`Csr::with_edge_cut`] runs one
//! source's Dijkstra with one edge cut, [`accumulate_source`] is the
//! depth-ordered subtree pass, and [`push_down`] replays it over a tree
//! order it recorded ([`SubtreeScratch::order`]). Replaying cached
//! contributions of unchanged sources and fresh ones of re-routed sources
//! in ascending source order reproduces [`RoutingState::link_loads`] bit
//! for bit.

use crate::adjacency::AdjacencyMatrix;
use crate::graph::Graph;
use crate::shortest_path::{path_from_parents, DijkstraWorkspace, HeapItem};
use crate::{GraphError, Result};
use std::collections::BinaryHeap;

/// CSR adjacency with per-arc lengths, rebuilt once per topology so the n
/// per-source Dijkstras read contiguous arrays instead of calling the
/// length closure ~2m times each.
#[derive(Debug, Default)]
pub struct Csr {
    start: Vec<usize>,
    node: Vec<usize>,
    len: Vec<f64>,
}

impl Clone for Csr {
    fn clone(&self) -> Self {
        let mut c = Self::new();
        c.clone_from(self);
        c
    }

    /// Copies `source`'s arcs into this adjacency's buffers, reusing
    /// their allocations.
    fn clone_from(&mut self, source: &Self) {
        self.start.clone_from(&source.start);
        self.node.clone_from(&source.node);
        self.len.clone_from(&source.len);
    }
}

impl Csr {
    /// Creates an empty adjacency; [`build`](Self::build) fills it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the adjacency for `g` with arc lengths `len(u, v)`, in
    /// `g`'s neighbor order.
    ///
    /// # Panics
    /// Panics on a negative or NaN length.
    pub fn build(&mut self, g: &Graph, len: impl Fn(usize, usize) -> f64) {
        let n = g.n();
        self.start.clear();
        self.node.clear();
        self.len.clear();
        self.start.reserve(n + 1);
        self.start.push(0);
        for u in 0..n {
            for &v in g.neighbors(u) {
                let w = len(u, v);
                assert!(w >= 0.0, "negative or NaN edge length on ({u},{v}): {w}");
                self.node.push(v);
                self.len.push(w);
            }
            self.start.push(self.node.len());
        }
    }

    /// Rebuilds the adjacency for the topology `m` straight from its edge
    /// bits, allocation-free once the buffers have grown: the arcs, in
    /// the (ascending) neighbor order, of [`build`](Self::build) on
    /// `m.to_graph()`.
    ///
    /// # Panics
    /// Panics on a negative or NaN length.
    pub fn build_matrix(&mut self, m: &AdjacencyMatrix, len: impl Fn(usize, usize) -> f64) {
        let n = m.n();
        // Degrees land at start[u + 2]; the prefix sum then leaves node
        // u's first arc at start[u + 1], which serves as its fill cursor
        // and ends on node u + 1's first arc.
        self.start.clear();
        self.start.resize(n + 2, 0);
        for (u, v) in m.edges() {
            self.start[u + 2] += 1;
            self.start[v + 2] += 1;
        }
        for i in 2..n + 2 {
            self.start[i] += self.start[i - 1];
        }
        let arcs = self.start[n + 1];
        self.node.clear();
        self.node.resize(arcs, 0);
        self.len.clear();
        self.len.resize(arcs, 0.0);
        // Edges come in ascending pair order, so every node's arcs fill
        // in ascending neighbor order.
        for (u, v) in m.edges() {
            for (a, b) in [(u, v), (v, u)] {
                let w = len(a, b);
                assert!(w >= 0.0, "negative or NaN edge length on ({a},{b}): {w}");
                let k = self.start[a + 1];
                self.node[k] = b;
                self.len[k] = w;
                self.start[a + 1] += 1;
            }
        }
        self.start.pop();
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// Degree of `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.start[u + 1] - self.start[u]
    }

    /// Number of arcs (twice the number of edges).
    pub fn arc_count(&self) -> usize {
        self.node.len()
    }

    /// The neighbors of `u`, in the graph's neighbor order.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.node[self.start[u]..self.start[u + 1]]
    }

    /// The arcs out of `u` as `(neighbor, length)`, in the graph's
    /// neighbor order.
    pub fn arcs(&self, u: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let arcs = self.start[u]..self.start[u + 1];
        self.node[arcs.clone()].iter().copied().zip(self.len[arcs].iter().copied())
    }

    /// The undirected edges as `(u, v, length)` with `u < v`, in the order
    /// of [`Graph::edges`] on the graph the adjacency was built from.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n()).flat_map(move |u| {
            self.arcs(u).filter(move |&(v, _)| u < v).map(move |(v, len)| (u, v, len))
        })
    }

    /// Runs Dijkstra from `source` into `ws`.
    pub fn dijkstra(&self, ws: &mut DijkstraWorkspace, source: usize) {
        ws.run_csr(source, &self.start, &self.node, &self.len);
    }

    /// Runs `f` on this adjacency with the undirected edge `{u, v}` cut.
    ///
    /// Both arcs get length `+∞` while `f` runs and their lengths are
    /// restored afterwards. An infinite arc never relaxes anything (`d + ∞`
    /// is not below any label), so every Dijkstra inside `f` is
    /// bit-identical to one on the graph without the edge. A pair that is
    /// not an edge leaves the adjacency unchanged.
    pub fn with_edge_cut<R>(&mut self, u: usize, v: usize, f: impl FnOnce(&Self) -> R) -> R {
        let arcs = [self.arc(u, v), self.arc(v, u)];
        let saved = arcs.map(|a| a.map(|k| std::mem::replace(&mut self.len[k], f64::INFINITY)));
        let out = f(self);
        for (k, w) in arcs.into_iter().zip(saved).filter_map(|(k, w)| k.zip(w)) {
            self.len[k] = w;
        }
        out
    }

    /// Index of the arc `u → v`, if any.
    fn arc(&self, u: usize, v: usize) -> Option<usize> {
        (self.start[u]..self.start[u + 1]).find(|&k| self.node[k] == v)
    }
}

/// Shortest-path routing of one traffic matrix over one topology: the
/// adjacency, every source's distance and parent row, and the priced
/// demand `Σ t·L` per source and in total.
///
/// [`build`](Self::build) fills it; buffers are reused across builds, so
/// one state per worker thread makes repeated evaluations allocation-free
/// after warm-up.
#[derive(Debug, Default)]
pub struct RoutingState {
    csr: Csr,
    /// Row-major `n × n` distances, one row per source (`∞` unreachable).
    dist: Vec<f64>,
    /// Row-major `n × n` parents (`parent[s*n + s] == s`, `usize::MAX`
    /// unreachable).
    parent: Vec<usize>,
    /// Per source, whether its tree is tie-free
    /// ([`DijkstraWorkspace::tie_free`]).
    tie_free: Vec<bool>,
    /// `per_source[s] = Σ_t t(s,t)·dist_s[t]`.
    per_source: Vec<f64>,
    /// The per-source terms folded in ascending source order.
    weighted: f64,
    dijkstra: DijkstraWorkspace,
    demand: Vec<f64>,
    staged: Vec<f64>,
}

impl Clone for RoutingState {
    fn clone(&self) -> Self {
        let mut c = Self::new();
        c.clone_from(self);
        c
    }

    /// Copies `source`'s routing — adjacency, rows and prices — into this
    /// state's buffers, reusing their allocations (the scratch buffers
    /// are not copied).
    fn clone_from(&mut self, source: &Self) {
        self.csr.clone_from(&source.csr);
        self.dist.clone_from(&source.dist);
        self.parent.clone_from(&source.parent);
        self.tie_free.clone_from(&source.tie_free);
        self.per_source.clone_from(&source.per_source);
        self.weighted = source.weighted;
    }
}

impl RoutingState {
    /// Creates an empty state; [`build`](Self::build) fills it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Routes `traffic(s, t)` over the topology `m` with edge lengths
    /// `len(u, v)` and returns `Σ_r t_r·L_r`, the traffic-weighted total
    /// route length (eq. 1). The adjacency is filled by
    /// [`Csr::build_matrix`], so a reused state allocates nothing once
    /// its buffers have grown.
    ///
    /// Demands with `s == t` are ignored; demands must be non-negative.
    /// After an error the state is unusable until the next successful
    /// build.
    ///
    /// # Errors
    /// Returns [`GraphError::Disconnected`] if any positive demand connects
    /// a pair with no path.
    ///
    /// # Panics
    /// Panics on a negative or NaN length or demand.
    pub fn build(
        &mut self,
        m: &AdjacencyMatrix,
        len: impl Fn(usize, usize) -> f64,
        traffic: impl Fn(usize, usize) -> f64,
    ) -> Result<f64> {
        self.csr.build_matrix(m, len);
        let n = self.csr.n();
        self.dist.resize(n * n, f64::INFINITY);
        self.parent.resize(n * n, usize::MAX);
        self.tie_free.clear();
        self.per_source.clear();
        let mut weighted = 0.0f64;
        for s in 0..n {
            self.csr.dijkstra(&mut self.dijkstra, s);
            let w = collect_demands(s, self.dijkstra.dist(), &traffic, &mut self.demand)?;
            self.dist[s * n..(s + 1) * n].copy_from_slice(self.dijkstra.dist());
            self.parent[s * n..(s + 1) * n].copy_from_slice(self.dijkstra.parent());
            self.tie_free.push(self.dijkstra.tie_free());
            self.per_source.push(w);
            weighted += w;
        }
        self.weighted = weighted;
        Ok(weighted)
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.per_source.len()
    }

    /// The routed topology's adjacency.
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Shortest distances from `s` (`f64::INFINITY` when unreachable).
    pub fn dist(&self, s: usize) -> &[f64] {
        let n = self.n();
        &self.dist[s * n..(s + 1) * n]
    }

    /// Shortest-path tree parents from `s` (`parent[s] == s`, `usize::MAX`
    /// when unreachable).
    pub fn parent(&self, s: usize) -> &[usize] {
        let n = self.n();
        &self.parent[s * n..(s + 1) * n]
    }

    /// Whether the tree of `s` is tie-free: every node it reaches but `s`
    /// has exactly one shortest predecessor, so [`TreeRepair`] may repair
    /// it in place.
    pub fn tie_free(&self, s: usize) -> bool {
        self.tie_free[s]
    }

    /// `Σ_r t_r·L_r`: the per-source terms folded in ascending source
    /// order.
    pub fn weighted(&self) -> f64 {
        self.weighted
    }

    /// The route (node sequence) of demand `(s, t)`; `None` when either
    /// node is out of range or `t` is unreachable from `s`.
    pub fn route(&self, s: usize, t: usize) -> Option<Vec<usize>> {
        if s >= self.n() {
            return None;
        }
        path_from_parents(s, self.parent(s), t)
    }

    /// Per-link loads (both directions summed) aligned with
    /// [`Csr::edges`]: the required bandwidth `w_i` of §3.2. Every source's
    /// demand is pushed down its tree in decreasing-depth order, and each
    /// link's contributions are folded in ascending source order.
    ///
    /// # Errors
    /// [`GraphError::Disconnected`] if `traffic` has positive demand
    /// between nodes the routing does not connect (never for the traffic
    /// the state was built with).
    pub fn link_loads(&self, traffic: impl Fn(usize, usize) -> f64) -> Result<Vec<f64>> {
        let n = self.n();
        let mut slot = vec![usize::MAX; n * n.saturating_sub(1) / 2];
        let mut edges = 0usize;
        for (u, v, _) in self.csr.edges() {
            slot[pair_slot(n, u, v)] = edges;
            edges += 1;
        }
        let mut load = vec![0.0f64; edges];
        let mut scratch = SubtreeScratch::new();
        for s in 0..n {
            accumulate_source(
                s,
                self.dist(s),
                self.parent(s),
                &traffic,
                &mut scratch,
                |p, v, d| load[slot[pair_slot(n, p, v)]] += d,
            )?;
        }
        Ok(load)
    }

    /// Commits repaired rows: for the `k`-th of `sources`, row `k` of the
    /// row-major `dist` and `parent` and flag `k` of `tie_free` replace
    /// that source's rows and flag. `csr` (the repaired topology's
    /// adjacency) is swapped in, only the repaired sources are re-priced,
    /// and the per-source terms are refolded in ascending source order —
    /// so the new `Σ t·L` is bit-identical to a fresh
    /// [`build`](Self::build) whenever the rows are. Returns it.
    ///
    /// # Errors
    /// [`GraphError::Disconnected`] if a repaired row leaves positive
    /// demand unreachable; the state is then unchanged.
    pub fn replace_rows(
        &mut self,
        csr: &mut Csr,
        sources: &[usize],
        dist: &[f64],
        parent: &[usize],
        tie_free: &[bool],
        traffic: impl Fn(usize, usize) -> f64,
    ) -> Result<f64> {
        let n = self.n();
        self.staged.clear();
        self.staged.reserve(n);
        for (k, &s) in sources.iter().enumerate() {
            let w = collect_demands(s, &dist[k * n..(k + 1) * n], &traffic, &mut self.demand)?;
            self.staged.push(w);
        }
        for (k, &s) in sources.iter().enumerate() {
            self.dist[s * n..(s + 1) * n].copy_from_slice(&dist[k * n..(k + 1) * n]);
            self.parent[s * n..(s + 1) * n].copy_from_slice(&parent[k * n..(k + 1) * n]);
            self.tie_free[s] = tie_free[k];
            self.per_source[s] = self.staged[k];
        }
        std::mem::swap(&mut self.csr, csr);
        self.weighted = self.per_source.iter().fold(0.0, |acc, &w| acc + w);
        Ok(self.weighted)
    }
}

/// The edges one topology lost and gained against another.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeDiff<'a> {
    /// Removed pairs.
    pub deleted: &'a [(usize, usize)],
    /// Added pairs with their (symmetric) length.
    pub inserted: &'a [(usize, usize, f64)],
}

/// How one [`TreeRepair::run`] went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repaired {
    /// Arcs read, a fallback Dijkstra's included.
    pub arcs: usize,
    /// Whether the rows were repaired in place rather than re-run.
    pub in_place: bool,
}

/// [`TreeRepair`] node states: tree path intact and label unmoved; below
/// a deleted tree edge, or unreached; label improved or matched.
const KEEP: u8 = 0;
const ORPHAN: u8 = 1;
const RECHECK: u8 = 2;

/// A [`HeapItem`] under a type of its own: a `BinaryHeap` instantiation
/// shared with the Dijkstra body kept `pop` from being inlined there,
/// slowing full passes by ~5% at n = 200.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Queued(HeapItem);

/// The one shortest-path-tree repair (see the module docs) and its
/// reusable buffers.
#[derive(Debug, Default)]
pub struct TreeRepair {
    status: Vec<u8>,
    /// The orphans, then the marked nodes: whose parents are re-derived.
    check: Vec<usize>,
    heap: BinaryHeap<Queued>,
    dijkstra: DijkstraWorkspace,
}

impl TreeRepair {
    /// Creates empty buffers; they grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns the rows and flag of `source`, a fresh Dijkstra's on the old
    /// topology, into a fresh Dijkstra's on `csr`, the old topology with
    /// `diff` applied (lengths symmetric). A tree with a tie, or a
    /// repaired node with several shortest predecessors, re-runs Dijkstra.
    pub fn run(
        &mut self,
        csr: &Csr,
        diff: EdgeDiff<'_>,
        source: usize,
        dist: &mut [f64],
        parent: &mut [usize],
        tie_free: &mut bool,
    ) -> Repaired {
        let mut arcs = 0;
        if *tie_free && self.in_place(csr, diff, source, dist, parent, &mut arcs) {
            return Repaired { arcs, in_place: true };
        }
        csr.dijkstra(&mut self.dijkstra, source);
        dist.copy_from_slice(self.dijkstra.dist());
        parent.copy_from_slice(self.dijkstra.parent());
        *tie_free = self.dijkstra.tie_free();
        Repaired { arcs: arcs + csr.arc_count(), in_place: false }
    }

    /// The in-place repair of a tie-free tree. Returns false, the rows
    /// then garbage, at a node with several shortest predecessors.
    fn in_place(
        &mut self,
        csr: &Csr,
        diff: EdgeDiff<'_>,
        source: usize,
        dist: &mut [f64],
        parent: &mut [usize],
        arcs: &mut usize,
    ) -> bool {
        let Self { status, check, heap, .. } = self;
        status.clear();
        status.resize(dist.len(), KEEP);
        check.clear();
        // Orphans: the child endpoint of every deleted tree edge, their
        // tree descendants (found through the arcs, so in time linear in
        // the orphans' degrees), and the unreached nodes, which an
        // insertion may reach.
        for &(u, v) in diff.deleted {
            let child = if parent[v] == u {
                v
            } else if parent[u] == v {
                u
            } else {
                continue;
            };
            status[child] = ORPHAN;
            check.push(child);
        }
        let mut next = 0;
        while let Some(&x) = check.get(next) {
            next += 1;
            for (y, _) in csr.arcs(x) {
                if parent[y] == x && status[y] == KEEP {
                    status[y] = ORPHAN;
                    check.push(y);
                }
            }
        }
        for x in 0..dist.len() {
            if !dist[x].is_finite() && status[x] == KEEP {
                status[x] = ORPHAN;
                check.push(x);
            }
        }
        // Seed each orphan from its non-orphan neighbours, whose labels
        // are upper bounds (their tree paths survive).
        heap.clear();
        for &x in check.iter() {
            dist[x] = f64::INFINITY;
            *arcs += csr.degree(x);
            for (y, len) in csr.arcs(x).filter(|&(y, _)| status[y] != ORPHAN) {
                dist[x] = dist[x].min(dist[y] + len);
            }
            if dist[x].is_finite() {
                heap.push(Queued(HeapItem { dist: dist[x], node: x }));
            }
        }
        // Relax the inserted edges, then propagate to the fixpoint. Every
        // label a relaxation improves or matches joins the orphans in
        // `check`.
        let mut relax = |y: usize, nd: f64, dist: &mut [f64], heap: &mut BinaryHeap<Queued>| {
            if nd < dist[y] {
                dist[y] = nd;
                heap.push(Queued(HeapItem { dist: nd, node: y }));
            }
            if nd <= dist[y] && status[y] == KEEP {
                status[y] = RECHECK;
                check.push(y);
            }
        };
        for &(u, v, w) in diff.inserted {
            relax(v, dist[u] + w, dist, heap);
            relax(u, dist[v] + w, dist, heap);
        }
        while let Some(Queued(HeapItem { dist: d, node: x })) = heap.pop() {
            if d == dist[x] {
                *arcs += csr.degree(x);
                for (y, len) in csr.arcs(x) {
                    relax(y, d + len, dist, heap);
                }
            }
        }
        // Every node in `check` takes its unique shortest predecessor (an
        // unreached one none).
        for &x in check.iter().filter(|&&x| x != source) {
            parent[x] = usize::MAX;
            if dist[x].is_finite() {
                *arcs += csr.degree(x);
                let mut preds = csr.arcs(x).filter(|&(y, len)| dist[y] + len == dist[x]);
                match (preds.next(), preds.next()) {
                    (Some((y, _)), None) => parent[x] = y,
                    _ => return false,
                }
            }
        }
        true
    }
}

/// Buffers of the per-source subtree-accumulation pass
/// ([`accumulate_source`]).
#[derive(Debug, Default)]
pub struct SubtreeScratch {
    demand: Vec<f64>,
    depth: Vec<usize>,
    counts: Vec<usize>,
    order: Vec<usize>,
}

impl SubtreeScratch {
    /// Creates empty buffers; they grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The children-first node order of the last [`accumulate_source`]
    /// call: reachable non-source nodes by decreasing hop depth, ties by
    /// ascending id. It depends only on the tree, so [`push_down`] can
    /// reuse it for other demands on the same tree.
    pub fn order(&self) -> &[usize] {
        &self.order
    }
}

/// Flat upper-triangle index of the unordered pair `{u, v}`, matching
/// [`crate::AdjacencyMatrix::pair_index`] without needing a matrix.
#[inline]
pub fn pair_slot(n: usize, u: usize, v: usize) -> usize {
    debug_assert!(u != v && u < n && v < n, "bad pair ({u},{v}) for n={n}");
    let (i, j) = if u < v { (u, v) } else { (v, u) };
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// Collects the demands out of source `s`, pushes them down the
/// shortest-path tree in decreasing-depth order, and reports each tree
/// link's contribution through `add_load(parent, node, demand)`: at most
/// one call per link, only for positive contributions. This is
/// [`RoutingState::link_loads`]' per-source pass: order the tree, then
/// [`push_down`]. Returns `Σ_t t(s,t)·dist[t]`.
///
/// # Errors
/// Returns [`GraphError::Disconnected`] if any positive demand out of `s`
/// targets a node with non-finite `dist`.
pub fn accumulate_source(
    s: usize,
    dist: &[f64],
    parent: &[usize],
    traffic: &impl Fn(usize, usize) -> f64,
    scratch: &mut SubtreeScratch,
    add_load: impl FnMut(usize, usize, f64),
) -> Result<f64> {
    tree_order(s, dist, parent, scratch);
    let SubtreeScratch { demand, order, .. } = scratch;
    push_down(s, dist, parent, order, traffic, demand, add_load)
}

/// Orders the reachable non-source nodes of the shortest-path tree of `s`
/// by decreasing hop depth, ties by ascending id, into `scratch.order`.
/// Every child precedes its parent.
fn tree_order(s: usize, dist: &[f64], parent: &[usize], scratch: &mut SubtreeScratch) {
    tree_depths(s, dist, parent, &mut scratch.depth);
    order_by_depth_desc(&scratch.depth, &mut scratch.counts, &mut scratch.order);
}

/// The subtree pass of [`accumulate_source`] over a given children-first
/// `order` (from [`SubtreeScratch::order`]): collects the demands out of `s` into the
/// scratch vector `demand`, pushes them down the tree, and reports each
/// positive tree-link contribution through `add_load(parent, node, demand)`.
/// Returns `Σ_t t(s,t)·dist[t]`.
///
/// # Errors
/// As for [`accumulate_source`].
pub fn push_down(
    s: usize,
    dist: &[f64],
    parent: &[usize],
    order: &[usize],
    traffic: &impl Fn(usize, usize) -> f64,
    demand: &mut Vec<f64>,
    mut add_load: impl FnMut(usize, usize, f64),
) -> Result<f64> {
    let weighted = collect_demands(s, dist, traffic, demand)?;
    for &v in order {
        if demand[v] > 0.0 {
            let p = parent[v];
            debug_assert_ne!(p, usize::MAX);
            add_load(p, v, demand[v]);
            demand[p] += demand[v];
        }
    }
    Ok(weighted)
}

/// Fills `demand` with the demands out of source `s` (rejecting positive
/// demand to unreachable nodes) and returns `Σ_t t(s,t)·dist[t]`. Building,
/// committing repaired rows and pushing loads down all price through this
/// one loop, so their `Σ t·L` terms stay bit-identical.
fn collect_demands(
    s: usize,
    dist: &[f64],
    traffic: &impl Fn(usize, usize) -> f64,
    demand: &mut Vec<f64>,
) -> Result<f64> {
    let n = dist.len();
    demand.clear();
    demand.resize(n, 0.0);
    let mut weighted = 0.0f64;
    for t in 0..n {
        if t == s {
            continue;
        }
        let d = traffic(s, t);
        assert!(d >= 0.0, "negative or NaN demand ({s},{t}): {d}");
        if d > 0.0 {
            if !dist[t].is_finite() {
                return Err(GraphError::Disconnected);
            }
            demand[t] += d;
            weighted += d * dist[t];
        }
    }
    Ok(weighted)
}

/// Computes each reachable node's hop depth in the shortest-path tree
/// (`usize::MAX` for unreachable nodes) by memoized parent walks — O(n)
/// amortized, since every node's depth is assigned exactly once.
fn tree_depths(source: usize, dist: &[f64], parent: &[usize], depth: &mut Vec<usize>) {
    let n = dist.len();
    depth.clear();
    depth.resize(n, usize::MAX);
    depth[source] = 0;
    for start in 0..n {
        if depth[start] != usize::MAX || !dist[start].is_finite() {
            continue;
        }
        // Walk up to the first node of known depth, then assign the chain.
        let mut v = start;
        let mut steps = 0usize;
        while depth[v] == usize::MAX {
            v = parent[v];
            steps += 1;
        }
        let mut d = depth[v] + steps;
        let mut v = start;
        while depth[v] == usize::MAX {
            depth[v] = d;
            d -= 1;
            v = parent[v];
        }
    }
}

/// Counting-sorts the reachable non-source nodes by *decreasing* tree depth
/// into `order`, so every child precedes its parent. A zero-length tree
/// edge gives parent and child equal *distance* but never equal depth,
/// which is why depth (not distance) must order the subtree pass.
fn order_by_depth_desc(depth: &[usize], counts: &mut Vec<usize>, order: &mut Vec<usize>) {
    let max_depth = depth.iter().filter(|&&d| d != usize::MAX).max().copied().unwrap_or(0);
    counts.clear();
    counts.resize(max_depth + 1, 0);
    for &d in depth {
        if d != usize::MAX && d > 0 {
            counts[d] += 1;
        }
    }
    // Turn counts into bucket start offsets for descending depth.
    let mut acc = 0usize;
    for d in (1..=max_depth).rev() {
        let c = counts[d];
        counts[d] = acc;
        acc += c;
    }
    order.clear();
    order.resize(acc, 0);
    for (v, &d) in depth.iter().enumerate() {
        if d != usize::MAX && d > 0 {
            order[counts[d]] = v;
            counts[d] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortest_path::dijkstra;

    /// A routed topology with its per-link loads, as a capacity plan holds
    /// them.
    #[derive(Debug)]
    struct Routed {
        state: RoutingState,
        edges: Vec<(usize, usize)>,
        load: Vec<f64>,
    }

    impl Routed {
        fn load_on(&self, u: usize, v: usize) -> Option<f64> {
            let key = (u.min(v), u.max(v));
            self.edges.iter().position(|&e| e == key).map(|i| self.load[i])
        }
    }

    fn route(
        g: &Graph,
        len: impl Fn(usize, usize) -> f64,
        traffic: impl Fn(usize, usize) -> f64 + Copy,
    ) -> Result<Routed> {
        let mut state = RoutingState::new();
        state.build(&g.to_adjacency_matrix(), len, traffic)?;
        let load = state.link_loads(traffic)?;
        let edges = state.csr().edges().map(|(u, v, _)| (u, v)).collect();
        Ok(Routed { state, edges, load })
    }

    fn uniform_traffic(_: usize, _: usize) -> f64 {
        1.0
    }

    #[test]
    fn path_graph_loads_peak_in_middle() {
        // 0-1-2-3: edge (1,2) carries all 4 crossing demands ×2 directions.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let r = route(&g, |_, _| 1.0, uniform_traffic).unwrap();
        // (0,1): demands {0}↔{1,2,3} = 3 each way ⇒ 6.
        assert_eq!(r.load_on(0, 1), Some(6.0));
        // (1,2): {0,1}↔{2,3} = 4 each way ⇒ 8.
        assert_eq!(r.load_on(1, 2), Some(8.0));
        assert_eq!(r.load_on(2, 3), Some(6.0));
        assert_eq!(r.load_on(0, 2), None);
    }

    #[test]
    fn weighted_route_length_matches_link_identity() {
        // eq. (1): Σ t_r L_r == Σ ℓ_i w_i for any lengths and demands.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]).unwrap();
        let len = |u: usize, v: usize| ((u + 2 * v) % 5 + 1) as f64 * 0.1;
        let sym = move |u: usize, v: usize| if u < v { len(u, v) } else { len(v, u) };
        let traffic = |s: usize, t: usize| ((s * 3 + t) % 4) as f64;
        let r = route(&g, sym, traffic).unwrap();
        let link_side: f64 = r.edges.iter().zip(&r.load).map(|(&(u, v), &w)| sym(u, v) * w).sum();
        assert!(
            (link_side - r.state.weighted()).abs() < 1e-9,
            "Σ ℓ·w = {link_side} vs Σ t·L = {}",
            r.state.weighted()
        );
    }

    #[test]
    fn star_routes_through_hub() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let r = route(&g, |_, _| 1.0, uniform_traffic).unwrap();
        // Each spoke edge carries: own↔hub (2) + own↔two other spokes (4) = 6.
        for v in 1..4 {
            assert_eq!(r.load_on(0, v), Some(6.0));
        }
        assert_eq!(r.state.route(1, 2), Some(vec![1, 0, 2]));
    }

    #[test]
    fn disconnected_with_demand_errors() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(route(&g, |_, _| 1.0, uniform_traffic).unwrap_err(), GraphError::Disconnected);
    }

    #[test]
    fn disconnected_without_demand_is_fine() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        // Traffic only between 0 and 1.
        let t = |s: usize, d: usize| if s < 2 && d < 2 { 1.0 } else { 0.0 };
        let r = route(&g, |_, _| 1.0, t).unwrap();
        assert_eq!(r.load_on(0, 1), Some(2.0));
    }

    #[test]
    fn zero_traffic_zero_loads() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let r = route(&g, |_, _| 1.0, |_, _| 0.0).unwrap();
        assert!(r.load.iter().all(|&l| l == 0.0));
        assert_eq!(r.state.weighted(), 0.0);
    }

    #[test]
    fn zero_length_edge_does_not_drop_subtree_loads() {
        // Two PoPs at identical coordinates: nodes 1 and 2 coincide, so the
        // edge (1,2) has length 0. In the tree from source 0, node 2 is the
        // parent of node 1 at *equal distance*; the old decreasing-distance
        // ordering processed the parent first and dropped the child's
        // subtree demand from edge (0,2).
        let g = Graph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let len = |u: usize, v: usize| {
            let (u, v) = if u < v { (u, v) } else { (v, u) };
            if (u, v) == (1, 2) {
                0.0
            } else {
                1.0
            }
        };
        let r = route(&g, len, uniform_traffic).unwrap();
        // (0,2) carries 0↔1 and 0↔2: four unit demands.
        assert_eq!(r.load_on(0, 2), Some(4.0));
        // (1,2) carries 0↔1 and 1↔2: four unit demands.
        assert_eq!(r.load_on(1, 2), Some(4.0));
        // And the eq. (1) identity must hold: Σ ℓ·w = 1·4 + 0·4 = Σ t·L.
        let link_side: f64 = r.edges.iter().zip(&r.load).map(|(&(u, v), &w)| len(u, v) * w).sum();
        assert_eq!(link_side, r.state.weighted());
    }

    #[test]
    fn routing_state_reuses_buffers_across_graphs() {
        // Larger graph first, then smaller: buffers must shrink correctly,
        // and the reused state must agree bit for bit with a fresh one.
        let mut state = RoutingState::new();
        let big = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        state.build(&big.to_adjacency_matrix(), |_, _| 1.0, uniform_traffic).unwrap();
        let small = Graph::from_edges(4, &[(0, 1), (1, 3), (2, 3), (0, 2)]).unwrap();
        let len = |u: usize, v: usize| (u + v) as f64 * 0.25;
        let weighted = state.build(&small.to_adjacency_matrix(), len, uniform_traffic).unwrap();
        let fresh = route(&small, len, uniform_traffic).unwrap();
        assert_eq!(weighted.to_bits(), fresh.state.weighted().to_bits());
        assert_eq!(state.n(), 4);
        for s in 0..4 {
            assert_eq!(state.dist(s), fresh.state.dist(s));
            assert_eq!(state.parent(s), fresh.state.parent(s));
        }
        assert_eq!(state.link_loads(uniform_traffic).unwrap(), fresh.load);
    }

    #[test]
    fn matrix_and_graph_adjacencies_agree_arc_for_arc() {
        // Bigger first, so the matrix build also reuses shrinking buffers.
        let (mut from_matrix, mut from_graph) = (Csr::new(), Csr::new());
        let len = |u: usize, v: usize| ((3 * u + 5 * v) % 7) as f64 * 0.5 + (u * v) as f64 * 1e-3;
        let arcs =
            |c: &Csr| (0..c.n()).flat_map(|u| c.arcs(u).map(move |a| (u, a))).collect::<Vec<_>>();
        for n in [9usize, 0, 1, 5, 30] {
            // A path plus chords.
            let mut m = AdjacencyMatrix::empty(n);
            for v in 1..n {
                m.set_edge(v - 1, v, true);
                if v % 3 == 0 {
                    m.set_edge(v, v / 3, true);
                }
            }
            from_matrix.build_matrix(&m, len);
            from_graph.build(&m.to_graph(), len);
            assert_eq!(from_matrix.n(), n);
            assert_eq!(arcs(&from_matrix), arcs(&from_graph), "n = {n}");
        }
    }

    #[test]
    fn replace_rows_refolds_to_a_fresh_build_bit_for_bit() {
        // Committing the rows an added chord changes must leave the state
        // equal to a fresh build of the new topology, reusing the cached
        // per-source terms of every other source.
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)];
        let len = |u: usize, v: usize| ((u.min(v) + 2 * u.max(v)) % 5 + 1) as f64 * 0.1;
        let traffic = |s: usize, t: usize| ((s * 3 + t) % 4) as f64;
        let mut state = route(&Graph::from_edges(5, &edges).unwrap(), len, traffic).unwrap().state;
        let g = Graph::from_edges(5, &[edges.as_slice(), &[(0, 3)]].concat()).unwrap();
        let fresh = route(&g, len, traffic).unwrap().state;
        let changed: Vec<usize> = (0..5).filter(|&s| state.dist(s) != fresh.dist(s)).collect();
        assert!(!changed.is_empty() && changed.len() < 5, "the chord must change some rows");
        let dist: Vec<f64> = changed.iter().flat_map(|&s| fresh.dist(s).to_vec()).collect();
        let parent: Vec<usize> = changed.iter().flat_map(|&s| fresh.parent(s).to_vec()).collect();
        let flags: Vec<bool> = changed.iter().map(|&s| fresh.tie_free(s)).collect();
        let mut csr = fresh.csr().clone();
        let weighted =
            state.replace_rows(&mut csr, &changed, &dist, &parent, &flags, traffic).unwrap();
        assert_eq!(weighted.to_bits(), fresh.weighted().to_bits());
        for s in 0..5 {
            assert_eq!(state.parent(s), fresh.parent(s));
        }
        assert_eq!(state.csr().edges().count(), 7, "the repaired adjacency is adopted");
        // A row leaving positive demand unreachable is refused untouched.
        let mut cut = dist.clone();
        cut[1] = f64::INFINITY;
        let before = state.clone();
        assert_eq!(
            state.replace_rows(&mut csr, &changed, &cut, &parent, &flags, traffic).unwrap_err(),
            GraphError::Disconnected
        );
        assert_eq!(state.weighted().to_bits(), before.weighted().to_bits());
        assert_eq!(state.dist(changed[0]), before.dist(changed[0]));
    }

    #[test]
    fn cut_dijkstra_and_replayed_contributions_match_a_full_reroute() {
        // A 6-cycle with two chords and one zero-length edge (2,3).
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4), (0, 3)];
        let len = |u: usize, v: usize| {
            let (u, v) = (u.min(v), u.max(v));
            if (u, v) == (2, 3) {
                0.0
            } else {
                ((u * 7 + v * 3) % 4 + 1) as f64 * 0.5
            }
        };
        let traffic = |s: usize, t: usize| ((s * 5 + t) % 3) as f64;
        let g = Graph::from_edges(6, &edges).unwrap();
        let mut csr = Csr::new();
        csr.build(&g, len);
        let mut ws = DijkstraWorkspace::new();
        for &(u, v) in &edges {
            let rest: Vec<_> = edges.iter().copied().filter(|&e| e != (u, v)).collect();
            let cut = Graph::from_edges(6, &rest).unwrap();
            let full = route(&cut, len, traffic).unwrap();
            // Fold per-source contributions in source order, as a sweep
            // replaying cached trees does.
            let mut load = vec![0.0; full.edges.len()];
            let mut scratch = SubtreeScratch::new();
            csr.with_edge_cut(u, v, |csr| {
                for s in 0..6 {
                    csr.dijkstra(&mut ws, s);
                    let tree = dijkstra(&cut, s, len);
                    assert_eq!(ws.dist(), tree.dist.as_slice(), "dist from {s} without ({u},{v})");
                    assert_eq!(ws.parent(), tree.parent.as_slice());
                    accumulate_source(
                        s,
                        ws.dist(),
                        ws.parent(),
                        &traffic,
                        &mut scratch,
                        |p, w, d| {
                            let key = (p.min(w), p.max(w));
                            load[full.edges.binary_search(&key).unwrap()] += d;
                        },
                    )
                    .unwrap();
                }
            });
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&load), bits(&full.load), "loads without ({u},{v})");
        }
        // The cut is undone: the adjacency routes the whole graph again.
        csr.dijkstra(&mut ws, 0);
        assert_eq!(ws.dist(), dijkstra(&g, 0, len).dist.as_slice());
    }

    #[test]
    fn asymmetric_demands_sum_onto_undirected_link() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let t = |s: usize, d: usize| {
            if (s, d) == (0, 1) {
                3.0
            } else if (s, d) == (1, 0) {
                5.0
            } else {
                0.0
            }
        };
        let r = route(&g, |_, _| 2.0, t).unwrap();
        assert_eq!(r.load_on(0, 1), Some(8.0));
        assert_eq!(r.state.weighted(), 16.0);
    }
}
