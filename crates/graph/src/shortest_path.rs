//! Dijkstra shortest paths, shortest-path trees, and BFS hop distances.
//!
//! COLD routes all traffic on shortest paths by *geometric length* (§3.2.1):
//! "we will make the natural choice of shortest-path routing in the model,
//! which will minimize the length of routes, and hence the bandwidth
//! dependent component of cost". The all-pairs computation here is the
//! dominant O(n³) term in the GA's runtime (Fig 4).

use crate::graph::Graph;
use crate::routing::Csr;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A single-source shortest-path tree.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    /// The source node.
    pub source: usize,
    /// `dist[v]` is the shortest distance from `source` to `v`
    /// (`f64::INFINITY` when unreachable).
    pub dist: Vec<f64>,
    /// `parent[v]` is `v`'s predecessor on a shortest path from `source`.
    /// `parent[source] == source`; unreachable nodes have `usize::MAX`.
    pub parent: Vec<usize>,
}

impl ShortestPathTree {
    /// Reconstructs the node sequence `source → … → target`, or `None` if
    /// `target` is unreachable or out of range.
    pub fn path_to(&self, target: usize) -> Option<Vec<usize>> {
        path_from_parents(self.source, &self.parent, target)
    }

    /// Whether every node is reachable from the source.
    pub fn all_reachable(&self) -> bool {
        self.dist.iter().all(|d| d.is_finite())
    }
}

/// The node sequence `source → … → target` along the tree `parent` (with
/// `parent[source] == source` and `usize::MAX` marking unreachable nodes),
/// or `None` if `target` is unreachable or out of range.
pub(crate) fn path_from_parents(
    source: usize,
    parent: &[usize],
    target: usize,
) -> Option<Vec<usize>> {
    if *parent.get(target)? == usize::MAX {
        return None;
    }
    let mut path = vec![target];
    let mut v = target;
    while v != source {
        v = parent[v];
        path.push(v);
        debug_assert!(path.len() <= parent.len(), "parent cycle");
    }
    path.reverse();
    Some(path)
}

/// Max-heap entry ordered so the smallest `(dist, node)` pops first — the
/// order of the Dijkstra body and of the tree repair. The comparisons are
/// `#[inline]` so the heap loops inline them whichever codegen unit they
/// land in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeapItem {
    /// Tentative distance.
    pub(crate) dist: f64,
    /// The node it labels.
    pub(crate) node: usize,
}

impl PartialEq for HeapItem {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the min element.
        other.dist.total_cmp(&self.dist).then_with(|| other.node.cmp(&self.node))
    }
}

/// Reusable buffers for repeated Dijkstra runs.
///
/// All-pairs routing runs one Dijkstra per source per candidate topology,
/// which makes the per-call allocations (`dist`, `parent`, `done`, `ties`
/// and the heap) the dominant allocator traffic of the GA's hot path. A
/// workspace amortizes them: [`Csr::dijkstra`] reuses the buffers and the
/// results stay readable through [`dist`](Self::dist) /
/// [`parent`](Self::parent) / [`tie_free`](Self::tie_free) until the next
/// run.
#[derive(Debug, Clone, Default)]
pub struct DijkstraWorkspace {
    dist: Vec<f64>,
    parent: Vec<usize>,
    done: Vec<bool>,
    /// Every relaxation that matched a node's label, as `(node, label)`:
    /// at the end, a node has a second shortest predecessor iff one of
    /// its entries holds its final label.
    ties: Vec<(usize, f64)>,
    tie_free: bool,
    heap: BinaryHeap<HeapItem>,
}

impl DijkstraWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs Dijkstra from `source` over a CSR adjacency: node `u`'s
    /// neighbors are `node[start[u]..start[u + 1]]` with arc lengths at the
    /// same indices of `len` (`n = start.len() - 1`). This is the one
    /// Dijkstra body; [`Csr::dijkstra`], [`dijkstra`] and [`apsp`] all run
    /// it.
    ///
    /// # Panics
    /// Panics if `source >= n`. Lengths must already be validated
    /// non-negative by the CSR builder.
    pub(crate) fn run_csr(&mut self, source: usize, start: &[usize], node: &[usize], len: &[f64]) {
        let n = start.len().saturating_sub(1);
        assert!(source < n, "source {source} out of range (n={n})");
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.parent.clear();
        self.parent.resize(n, usize::MAX);
        self.done.clear();
        self.done.resize(n, false);
        self.ties.clear();
        self.heap.clear();
        // Every arc pushes at most once (from its settled tail), onto the
        // heap or the tie list, so a reused workspace never grows mid-run.
        self.heap.reserve(node.len() + 1);
        self.ties.reserve(node.len());
        self.dist[source] = 0.0;
        self.parent[source] = source;
        self.heap.push(HeapItem { dist: 0.0, node: source });
        while let Some(HeapItem { dist: d, node: u }) = self.heap.pop() {
            if self.done[u] {
                continue;
            }
            self.done[u] = true;
            for k in start[u]..start[u + 1] {
                let v = node[k];
                let nd = d + len[k];
                let dv = self.dist[v];
                // Strict `<` makes the parent the *first* relaxer to reach
                // the final label, in settle order. With positive lengths
                // every node at a distance is queued before the first pop
                // at that distance, so settle order is `(dist, id)` order
                // and the parent is the `(dist, id)`-least predecessor.
                // A zero-length edge can queue a node after a larger id at
                // the same distance has settled, and then it is not (see
                // `zero_length_edges_make_the_parent_the_first_relaxer`).
                if nd < dv {
                    self.dist[v] = nd;
                    self.parent[v] = u;
                    self.heap.push(HeapItem { dist: nd, node: v });
                } else if nd == dv {
                    // Every shortest predecessor relaxes `v` once, after
                    // it settles: the first at the final label is the
                    // last strict improvement, each later one lands here
                    // with that label.
                    self.ties.push((v, nd));
                }
            }
        }
        // An infinite arc "ties" an unreached node; the source's label is
        // not a relaxation's.
        let dist = &self.dist;
        self.tie_free =
            !self.ties.iter().any(|&(v, l)| v != source && l == dist[v] && l.is_finite());
    }

    /// Whether the last run's tree is *tie-free*: every reached node but
    /// the source has exactly one shortest predecessor (a neighbour `u`
    /// with `dist[u] + len(u → v) == dist[v]`), so every parent is forced.
    pub fn tie_free(&self) -> bool {
        self.tie_free
    }

    /// Distances of the last run (`f64::INFINITY` when unreachable).
    pub fn dist(&self) -> &[f64] {
        &self.dist
    }

    /// Parent pointers of the last run (`parent[source] == source`,
    /// `usize::MAX` when unreachable).
    pub fn parent(&self) -> &[usize] {
        &self.parent
    }
}

/// Dijkstra's algorithm from `source` with edge lengths given by `len`.
///
/// `len(u, v)` must be non-negative and finite on every edge of `g`.
/// Equal-cost ties are resolved deterministically: the parent is the
/// first predecessor in settle order that reaches the final distance, so
/// the returned tree is a pure function of its inputs. With positive
/// lengths that is the predecessor minimizing `(dist, node id)`; with
/// zero-length edges it need not be. A node with a single shortest
/// predecessor has that parent whatever the schedule.
///
/// # Panics
/// Panics if `source >= g.n()` or a negative/NaN length is produced.
pub fn dijkstra(g: &Graph, source: usize, len: impl Fn(usize, usize) -> f64) -> ShortestPathTree {
    let mut csr = Csr::new();
    csr.build(g, len);
    tree(&csr, source)
}

/// The shortest-path tree of `source` over `csr`.
fn tree(csr: &Csr, source: usize) -> ShortestPathTree {
    let mut ws = DijkstraWorkspace::new();
    csr.dijkstra(&mut ws, source);
    ShortestPathTree { source, dist: ws.dist, parent: ws.parent }
}

/// All-pairs shortest paths: one [`ShortestPathTree`] per source.
///
/// O(n · (m log n)) — the routing/capacity computation of §3.2.1 calls this
/// once per candidate topology, which is the dominant cost of the GA.
pub fn apsp(g: &Graph, len: impl Fn(usize, usize) -> f64 + Copy) -> Vec<ShortestPathTree> {
    let mut csr = Csr::new();
    csr.build(g, len);
    (0..g.n()).map(|s| tree(&csr, s)).collect()
}

/// BFS hop counts from `source`; `usize::MAX` marks unreachable nodes.
pub fn bfs_hops(g: &Graph, source: usize) -> Vec<usize> {
    let n = g.n();
    assert!(source < n, "source {source} out of range (n={n})");
    let mut hops = vec![usize::MAX; n];
    hops[source] = 0;
    let mut queue = std::collections::VecDeque::with_capacity(n);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if hops[v] == usize::MAX {
                hops[v] = hops[u] + 1;
                queue.push_back(v);
            }
        }
    }
    hops
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Square with one diagonal:
    /// 0-1 (1.0), 1-2 (1.0), 2-3 (1.0), 3-0 (1.0), 0-2 (1.5)
    fn square() -> (Graph, impl Fn(usize, usize) -> f64 + Copy) {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let len = |u: usize, v: usize| {
            let (u, v) = if u < v { (u, v) } else { (v, u) };
            match (u, v) {
                (0, 2) => 1.5,
                _ => 1.0,
            }
        };
        (g, len)
    }

    #[test]
    fn dijkstra_picks_cheaper_diagonal() {
        let (g, len) = square();
        let t = dijkstra(&g, 0, len);
        assert_eq!(t.dist[0], 0.0);
        assert_eq!(t.dist[1], 1.0);
        assert_eq!(t.dist[2], 1.5, "direct diagonal beats the two-hop path of length 2");
        assert_eq!(t.dist[3], 1.0);
        assert_eq!(t.path_to(2), Some(vec![0, 2]));
    }

    #[test]
    fn path_reconstruction_on_path_graph() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let t = dijkstra(&g, 0, |_, _| 1.0);
        assert_eq!(t.path_to(3), Some(vec![0, 1, 2, 3]));
        assert_eq!(t.path_to(0), Some(vec![0]));
    }

    #[test]
    fn unreachable_nodes_are_reported() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let t = dijkstra(&g, 0, |_, _| 1.0);
        assert!(t.dist[2].is_infinite());
        assert_eq!(t.path_to(2), None);
        assert!(!t.all_reachable());
    }

    #[test]
    fn apsp_is_symmetric_for_undirected_graphs() {
        let (g, len) = square();
        let trees = apsp(&g, len);
        for s in 0..4 {
            for t in 0..4 {
                assert!(
                    (trees[s].dist[t] - trees[t].dist[s]).abs() < 1e-12,
                    "dist({s},{t}) asymmetric"
                );
            }
        }
    }

    #[test]
    fn bfs_hops_counts_edges() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let h = bfs_hops(&g, 0);
        assert_eq!(h[..4], [0, 1, 2, 3]);
        assert_eq!(h[4], usize::MAX);
    }

    #[test]
    fn workspace_matches_fresh_dijkstra_across_reuse() {
        let (g, len) = square();
        let other = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let mut ws = DijkstraWorkspace::new();
        let mut csr = Csr::new();
        csr.build(&g, len);
        for s in 0..4 {
            csr.dijkstra(&mut ws, s);
            let fresh = dijkstra(&g, s, len);
            assert_eq!(ws.dist(), &fresh.dist[..]);
            assert_eq!(ws.parent(), &fresh.parent[..]);
        }
        // Reuse on a *larger* graph must resize, not truncate.
        csr.build(&other, |_, _| 1.0);
        csr.dijkstra(&mut ws, 5);
        let fresh = dijkstra(&other, 5, |_, _| 1.0);
        assert_eq!(ws.dist(), &fresh.dist[..]);
        assert_eq!(ws.parent(), &fresh.parent[..]);
    }

    #[test]
    fn out_of_range_target_has_no_path() {
        let t = dijkstra(&Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap(), 0, |_, _| 1.0);
        assert_eq!(t.path_to(2), Some(vec![0, 1, 2]));
        assert_eq!(t.path_to(3), None);
        assert_eq!(t.path_to(usize::MAX), None);
    }

    #[test]
    fn deterministic_under_ties() {
        // Two equal-length routes 0-1-3 and 0-2-3; tie-break must be stable.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let a = dijkstra(&g, 0, |_, _| 1.0);
        let b = dijkstra(&g, 0, |_, _| 1.0);
        assert_eq!(a.parent, b.parent);
        // Lower-indexed parent wins the tie.
        assert_eq!(a.parent[3], 1);
    }

    #[test]
    fn equal_cost_parallel_routes_pick_the_dist_then_id_minimal_parent() {
        // Ladder with many parallel equal-weight routes: 0-{1,2}-{3,4}-5,
        // plus a same-length route into 3 via higher-indexed 4 won't matter.
        // With positive lengths settle order is (dist, id) order, so every
        // tie resolves to the predecessor with the smallest (dist, id),
        // independent of the per-vertex relaxation order.
        let g =
            Graph::from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)])
                .unwrap();
        let t = dijkstra(&g, 0, |_, _| 1.0);
        assert_eq!(t.dist, vec![0.0, 1.0, 1.0, 2.0, 2.0, 3.0]);
        // 3 and 4 are reachable at cost 2 via both 1 and 2; 1 settles first.
        assert_eq!(t.parent[3], 1);
        assert_eq!(t.parent[4], 1);
        // 5 is reachable at cost 3 via both 3 and 4; 3 settles first.
        assert_eq!(t.parent[5], 3);

        // The CSR runner agrees exactly, and so does a CSR with the
        // neighbor lists reversed — the canonical parent does not depend
        // on per-vertex relaxation order.
        let n = g.n();
        let build = |rev: bool| {
            let (mut start, mut node, mut elen) = (vec![0], Vec::new(), Vec::new());
            for u in 0..n {
                let mut nbrs: Vec<usize> = g.neighbors(u).to_vec();
                if rev {
                    nbrs.reverse();
                }
                for v in nbrs {
                    node.push(v);
                    elen.push(1.0);
                }
                start.push(node.len());
            }
            (start, node, elen)
        };
        for rev in [false, true] {
            let (start, node, elen) = build(rev);
            let mut ws = DijkstraWorkspace::new();
            ws.run_csr(0, &start, &node, &elen);
            assert_eq!(ws.dist(), &t.dist[..], "rev={rev}");
            assert_eq!(ws.parent(), &t.parent[..], "rev={rev}");
        }
    }

    #[test]
    fn zero_length_edges_make_the_parent_the_first_relaxer() {
        // 0-2, 0-3, 1-4, 2-4 of length 1 and 1-3 of length 0. From 0, node
        // 2 settles (dist 1) and labels 4 at 2 before 3 settles and
        // reaches 1 over the zero-length edge; 1 then settles at dist 1
        // and also reaches 4 at 2, but too late. The parent of 4 is 2,
        // although 1 is the (dist, id)-smaller predecessor.
        let g = Graph::from_edges(5, &[(0, 2), (0, 3), (1, 4), (2, 4), (1, 3)]).unwrap();
        let len = |u: usize, v: usize| if (u.min(v), u.max(v)) == (1, 3) { 0.0 } else { 1.0 };
        let t = dijkstra(&g, 0, len);
        assert_eq!(t.dist, vec![0.0, 1.0, 1.0, 1.0, 2.0]);
        assert_eq!(t.parent, vec![0, 3, 0, 0, 2]);
        assert_eq!(t.dist[1] + len(1, 4), t.dist[4], "1 is a shortest predecessor of 4 too");
    }
}
