//! Minimum spanning trees and the inter-component joining step.
//!
//! MSTs appear in three places in the paper:
//! 1. the minimum spanning tree is one of the GA's seed topologies (§4.1);
//! 2. the `MST` greedy heuristic connects hubs in a spanning tree (§5);
//! 3. the connectivity-repair step joins disconnected components with a
//!    minimum spanning tree over the shortest inter-component links
//!    (§4.1.3).
//!
//! Weights are supplied as a closure `(u, v) -> f64` so callers can pass a
//! Euclidean distance matrix, a cost-adjusted length, or anything else
//! without copying.

use crate::adjacency::AdjacencyMatrix;
use crate::components::matrix_components;
use crate::union_find::UnionFind;
use crate::WeightedEdge;

/// Kruskal's MST over the complete graph on `n` nodes with the given pair
/// weight. Returns `n - 1` edges (empty for `n <= 1`).
///
/// Ties are broken deterministically by `(weight, u, v)` so results are
/// reproducible across runs and platforms.
///
/// # Panics
/// Panics if any weight is NaN.
pub fn mst_kruskal(n: usize, weight: impl Fn(usize, usize) -> f64) -> Vec<WeightedEdge> {
    if n <= 1 {
        return Vec::new();
    }
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            let w = weight(u, v);
            assert!(!w.is_nan(), "NaN weight for pair ({u},{v})");
            edges.push(WeightedEdge { u, v, weight: w });
        }
    }
    edges.sort_by(|a, b| {
        a.weight.total_cmp(&b.weight).then_with(|| a.u.cmp(&b.u)).then_with(|| a.v.cmp(&b.v))
    });
    let mut uf = UnionFind::new(n);
    let mut out = Vec::with_capacity(n - 1);
    for e in edges {
        if uf.union(e.u, e.v) {
            out.push(e);
            if out.len() == n - 1 {
                break;
            }
        }
    }
    out
}

/// Prim's MST for dense graphs: O(n²) with no heap, the right shape when the
/// input is a complete geometric graph (as in COLD's repair and seeding).
///
/// Equivalent tree weight to [`mst_kruskal`]; edge set may differ under ties.
pub fn mst_prim(n: usize, weight: impl Fn(usize, usize) -> f64) -> Vec<WeightedEdge> {
    if n <= 1 {
        return Vec::new();
    }
    let mut in_tree = vec![false; n];
    let mut best = vec![f64::INFINITY; n];
    let mut best_from = vec![0usize; n];
    in_tree[0] = true;
    for (v, b) in best.iter_mut().enumerate().skip(1) {
        *b = weight(0, v);
        assert!(!b.is_nan(), "NaN weight for pair (0,{v})");
    }
    let mut out = Vec::with_capacity(n - 1);
    for _ in 1..n {
        let mut pick = usize::MAX;
        for v in 0..n {
            if !in_tree[v] && (pick == usize::MAX || best[v] < best[pick]) {
                pick = v;
            }
        }
        debug_assert_ne!(pick, usize::MAX);
        in_tree[pick] = true;
        out.push(WeightedEdge::new(best_from[pick], pick, best[pick]));
        for v in 0..n {
            if !in_tree[v] {
                let w = weight(pick, v);
                assert!(!w.is_nan(), "NaN weight for pair ({pick},{v})");
                if w < best[v] {
                    best[v] = w;
                    best_from[v] = pick;
                }
            }
        }
    }
    out
}

/// The MST as an [`AdjacencyMatrix`] — the GA's spanning-tree seed (§4.1).
pub fn mst_matrix(n: usize, weight: impl Fn(usize, usize) -> f64) -> AdjacencyMatrix {
    let mut m = AdjacencyMatrix::empty(n);
    for e in mst_kruskal(n, weight) {
        m.set_edge(e.u, e.v, true);
    }
    m
}

/// Connectivity repair (§4.1.3): if `m` is disconnected, finds the shortest
/// link between each pair of connected components and adds a minimum
/// spanning tree (by physical link distance) over those candidate links so
/// the result is connected.
///
/// Returns the edges that were added (empty when already connected).
pub fn join_components(
    m: &mut AdjacencyMatrix,
    weight: impl Fn(usize, usize) -> f64,
) -> Vec<WeightedEdge> {
    let comps = matrix_components(m);
    if comps.count <= 1 {
        return Vec::new();
    }
    let groups = comps.groups();
    let k = comps.count;
    // Shortest physical link between each pair of components.
    let mut bridge: Vec<Vec<Option<WeightedEdge>>> = vec![vec![None; k]; k];
    for a in 0..k {
        for b in (a + 1)..k {
            let mut best: Option<WeightedEdge> = None;
            for &u in &groups[a] {
                for &v in &groups[b] {
                    let w = weight(u, v);
                    assert!(!w.is_nan(), "NaN weight for pair ({u},{v})");
                    let cand = WeightedEdge::new(u, v, w);
                    let better = match &best {
                        None => true,
                        Some(cur) => {
                            cand.weight < cur.weight
                                || (cand.weight == cur.weight && (cand.u, cand.v) < (cur.u, cur.v))
                        }
                    };
                    if better {
                        best = Some(cand);
                    }
                }
            }
            bridge[a][b] = best;
        }
    }
    // MST over the component meta-graph using the bridge weights.
    let meta = mst_kruskal(k, |a, b| {
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        bridge[a][b].expect("bridge exists for every component pair").weight
    });
    let mut added = Vec::with_capacity(meta.len());
    for e in meta {
        let link = bridge[e.u][e.v].expect("bridge exists");
        m.set_edge(link.u, link.v, true);
        added.push(link);
    }
    debug_assert!(crate::components::matrix_is_connected(m));
    added
}

/// Total weight of an edge set.
pub fn total_weight(edges: &[WeightedEdge]) -> f64 {
    edges.iter().map(|e| e.weight).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four points on a line at x = 0, 1, 2, 10.
    fn line_weight(u: usize, v: usize) -> f64 {
        let xs = [0.0f64, 1.0, 2.0, 10.0];
        (xs[u] - xs[v]).abs()
    }

    #[test]
    fn kruskal_on_line_picks_consecutive_edges() {
        let t = mst_kruskal(4, line_weight);
        assert_eq!(t.len(), 3);
        assert_eq!(total_weight(&t), 10.0);
        let pairs: Vec<_> = t.iter().map(|e| (e.u, e.v)).collect();
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(1, 2)));
        assert!(pairs.contains(&(2, 3)));
    }

    #[test]
    fn prim_matches_kruskal_weight() {
        // A pseudo-random but deterministic weight function.
        let w = |u: usize, v: usize| (((u * 7 + v * 13) % 10) + 1) as f64;
        let sym = |u: usize, v: usize| if u < v { w(u, v) } else { w(v, u) };
        for n in [2usize, 5, 9] {
            let k = total_weight(&mst_kruskal(n, sym));
            let p = total_weight(&mst_prim(n, sym));
            assert!((k - p).abs() < 1e-12, "n={n}: kruskal {k} != prim {p}");
        }
    }

    #[test]
    fn trivial_sizes() {
        assert!(mst_kruskal(0, |_, _| 1.0).is_empty());
        assert!(mst_kruskal(1, |_, _| 1.0).is_empty());
        assert!(mst_prim(1, |_, _| 1.0).is_empty());
    }

    #[test]
    fn mst_matrix_is_spanning_tree() {
        let m = mst_matrix(6, line_like(6));
        assert_eq!(m.edge_count(), 5);
        assert!(crate::components::matrix_is_connected(&m));
    }

    fn line_like(n: usize) -> impl Fn(usize, usize) -> f64 {
        move |u, v| {
            let _ = n;
            (u as f64 - v as f64).abs()
        }
    }

    #[test]
    fn join_components_connects_minimally() {
        // Two components {0,1} and {2,3} on a line; cheapest bridge is 1-2.
        let mut m = AdjacencyMatrix::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let added = join_components(&mut m, line_like(4));
        assert_eq!(added.len(), 1);
        assert_eq!((added[0].u, added[0].v), (1, 2));
        assert!(crate::components::matrix_is_connected(&m));
    }

    #[test]
    fn join_components_noop_when_connected() {
        let mut m = AdjacencyMatrix::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(join_components(&mut m, line_like(3)).is_empty());
        assert_eq!(m.edge_count(), 2);
    }

    /// `join_components` as it was over DFS labels of a built `Graph`.
    fn join_components_oracle(
        m: &mut AdjacencyMatrix,
        weight: impl Fn(usize, usize) -> f64,
    ) -> Vec<WeightedEdge> {
        let comps = crate::components::connected_components(&m.to_graph());
        if comps.count <= 1 {
            return Vec::new();
        }
        let groups = comps.groups();
        let k = comps.count;
        let mut bridge: Vec<Vec<Option<WeightedEdge>>> = vec![vec![None; k]; k];
        for a in 0..k {
            for b in (a + 1)..k {
                let mut best: Option<WeightedEdge> = None;
                for &u in &groups[a] {
                    for &v in &groups[b] {
                        let cand = WeightedEdge::new(u, v, weight(u, v));
                        let better = best.as_ref().is_none_or(|cur| {
                            cand.weight < cur.weight
                                || (cand.weight == cur.weight && (cand.u, cand.v) < (cur.u, cur.v))
                        });
                        if better {
                            best = Some(cand);
                        }
                    }
                }
                bridge[a][b] = best;
            }
        }
        let meta = mst_kruskal(k, |a, b| {
            let (a, b) = if a < b { (a, b) } else { (b, a) };
            bridge[a][b].unwrap().weight
        });
        let mut added = Vec::new();
        for e in meta {
            let link = bridge[e.u][e.v].unwrap();
            m.set_edge(link.u, link.v, true);
            added.push(link);
        }
        added
    }

    #[test]
    fn join_components_matches_the_dfs_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        for n in [0usize, 1, 2, 9, 40] {
            // Integer grid points: many equal-length candidate bridges.
            let xy: Vec<(f64, f64)> =
                (0..n).map(|_| (rng.gen_range(0..6) as f64, rng.gen_range(0..6) as f64)).collect();
            let w = |u: usize, v: usize| (xy[u].0 - xy[v].0).hypot(xy[u].1 - xy[v].1);
            for density in [0.0, 0.02, 0.06, 0.3] {
                let mut m = AdjacencyMatrix::empty(n);
                for p in 0..m.pair_count() {
                    m.set_bit(p, rng.gen_bool(density));
                }
                let mut oracle = m.clone();
                let added = join_components(&mut m, w);
                assert_eq!(added, join_components_oracle(&mut oracle, w), "n = {n}");
                assert_eq!(m, oracle);
            }
        }
    }

    #[test]
    fn join_many_singletons_builds_mst() {
        let mut m = AdjacencyMatrix::empty(5);
        let added = join_components(&mut m, line_like(5));
        assert_eq!(added.len(), 4);
        assert!(crate::components::matrix_is_connected(&m));
        // Line metric ⇒ the MST over singletons is the path graph.
        assert_eq!(total_weight(&added), 4.0);
    }
}
