//! Bridges, articulation points and 2-edge-connectivity.
//!
//! §3.2 of the paper excludes redundancy from the PoP-level constraints
//! ("We do not include redundancy, port numbers or other complex
//! constraints at this level") while §2 stresses that the optimization
//! framework makes such extensions easy. This module supplies the
//! survivability substrate for exactly that extension
//! (`cold::resilience`): Tarjan's linear-time bridge and
//! articulation-point detection.
//!
//! A *bridge* is a link whose failure disconnects the network; an
//! *articulation point* is a PoP whose failure does. A connected network
//! with no bridges is 2-edge-connected — it survives any single link cut.

use crate::graph::Graph;

/// Bridges and articulation points of a graph, plus what the DFS that
/// found them knows about the pieces a bridge failure leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutStructure {
    /// Bridge edges as `(u, v)` with `u < v`, sorted.
    pub bridges: Vec<(usize, usize)>,
    /// Articulation points, sorted ascending.
    pub articulation_points: Vec<usize>,
    /// Connected-component label per node (DFS root order).
    component: Vec<usize>,
    /// DFS discovery time per node; a node's DFS subtree is the nodes
    /// discovered in `enter[v]..exit[v]`.
    enter: Vec<usize>,
    /// Discovery clock when the node's DFS subtree was finished.
    exit: Vec<usize>,
}

impl CutStructure {
    /// Number of connected components.
    fn components(&self) -> usize {
        self.component.iter().max().map_or(0, |&c| c + 1)
    }

    /// Whether `s` and `t` are in the same connected component.
    fn connected(&self, s: usize, t: usize) -> bool {
        self.component[s] == self.component[t]
    }

    /// Whether `{u, v}` is a bridge.
    pub fn is_bridge(&self, u: usize, v: usize) -> bool {
        self.bridges.binary_search(&(u.min(v), u.max(v))).is_ok()
    }

    /// Whether `s` and `t` are still connected once `bridge` fails.
    ///
    /// A bridge is a DFS tree edge, and removing it splits off exactly the
    /// DFS subtree of its child endpoint, so this is two interval tests
    /// instead of a component labelling per bridge.
    ///
    /// # Panics
    /// Debug builds panic if `bridge` is not a bridge.
    pub fn connected_without(&self, bridge: (usize, usize), s: usize, t: usize) -> bool {
        let (u, v) = bridge;
        debug_assert!(self.is_bridge(u, v), "({u},{v}) is not a bridge");
        let child = if self.enter[u] > self.enter[v] { u } else { v };
        let below = |x: usize| (self.enter[child]..self.exit[child]).contains(&self.enter[x]);
        self.connected(s, t) && below(s) == below(t)
    }

    /// Whether the graph is connected and has no bridges (survives any
    /// single link failure). Graphs with fewer than 2 nodes count as
    /// 2-edge-connected.
    pub fn is_two_edge_connected(&self) -> bool {
        self.component.len() <= 1 || (self.components() == 1 && self.bridges.is_empty())
    }
}

/// Computes bridges and articulation points with an iterative Tarjan DFS
/// (no recursion, so deep path graphs cannot overflow the stack).
pub fn cut_structure(g: &Graph) -> CutStructure {
    let n = g.n();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut exit = vec![usize::MAX; n];
    let mut component = vec![usize::MAX; n];
    let mut parent = vec![usize::MAX; n];
    let mut is_art = vec![false; n];
    let mut bridges = Vec::new();
    let mut timer = 0usize;
    let mut components = 0usize;

    for root in 0..n {
        if disc[root] != usize::MAX {
            continue;
        }
        // Iterative DFS with explicit neighbor cursors.
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        disc[root] = timer;
        low[root] = timer;
        component[root] = components;
        timer += 1;
        let mut root_children = 0usize;
        while let Some(&mut (v, ref mut cursor)) = stack.last_mut() {
            if *cursor < g.neighbors(v).len() {
                let w = g.neighbors(v)[*cursor];
                *cursor += 1;
                if disc[w] == usize::MAX {
                    parent[w] = v;
                    disc[w] = timer;
                    low[w] = timer;
                    component[w] = components;
                    timer += 1;
                    if v == root {
                        root_children += 1;
                    }
                    stack.push((w, 0));
                } else if w != parent[v] {
                    low[v] = low[v].min(disc[w]);
                }
            } else {
                stack.pop();
                exit[v] = timer;
                if let Some(&(p, _)) = stack.last() {
                    low[p] = low[p].min(low[v]);
                    if low[v] > disc[p] {
                        bridges.push(if p < v { (p, v) } else { (v, p) });
                    }
                    if p != root && low[v] >= disc[p] {
                        is_art[p] = true;
                    }
                }
            }
        }
        if root_children > 1 {
            is_art[root] = true;
        }
        components += 1;
    }
    bridges.sort_unstable();
    let articulation_points = (0..n).filter(|&v| is_art[v]).collect();
    CutStructure { bridges, articulation_points, component, enter: disc, exit }
}

/// Whether the graph is connected and has no bridges (survives any single
/// link failure). Graphs with fewer than 2 nodes count as 2-edge-connected.
pub fn is_two_edge_connected(g: &Graph) -> bool {
    cut_structure(g).is_two_edge_connected()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_edges_are_all_bridges() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (1, 3), (3, 4)]).unwrap();
        let c = cut_structure(&g);
        assert_eq!(c.bridges, vec![(0, 1), (1, 2), (1, 3), (3, 4)]);
        assert_eq!(c.articulation_points, vec![1, 3]);
        assert!(!is_two_edge_connected(&g));
    }

    #[test]
    fn cycle_has_no_bridges() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let c = cut_structure(&g);
        assert!(c.bridges.is_empty());
        assert!(c.articulation_points.is_empty());
        assert!(is_two_edge_connected(&g));
    }

    #[test]
    fn barbell_bridge_detected() {
        // Two triangles joined by the single edge (2, 3).
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
            .unwrap();
        let c = cut_structure(&g);
        assert_eq!(c.bridges, vec![(2, 3)]);
        assert_eq!(c.articulation_points, vec![2, 3]);
    }

    #[test]
    fn star_hub_is_the_articulation_point() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let c = cut_structure(&g);
        assert_eq!(c.articulation_points, vec![0]);
        assert_eq!(c.bridges.len(), 4);
    }

    #[test]
    fn disconnected_graph_is_not_two_edge_connected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!is_two_edge_connected(&g));
        // …but each edge is still a bridge within its component.
        assert_eq!(cut_structure(&g).bridges.len(), 2);
    }

    #[test]
    fn bridge_removal_matches_brute_force() {
        // Cross-check Tarjan against "remove edge, test connectivity".
        let g = Graph::from_edges(
            8,
            &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6), (6, 7)],
        )
        .unwrap();
        let fast = cut_structure(&g).bridges;
        let mut slow = Vec::new();
        let m = g.to_adjacency_matrix();
        for (u, v) in m.edges() {
            let mut cut = m.clone();
            cut.set_edge(u, v, false);
            if !crate::components::matrix_is_connected(&cut) {
                slow.push((u, v));
            }
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn bridge_sides_match_brute_force_components() {
        // Two components: a barbell with a tail, and a lone edge.
        let g = Graph::from_edges(
            10,
            &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3), (5, 6), (6, 7), (8, 9)],
        )
        .unwrap();
        let c = cut_structure(&g);
        assert_eq!(c.components(), 2);
        assert!(!c.is_two_edge_connected());
        let m = g.to_adjacency_matrix();
        for &(u, v) in &c.bridges {
            assert!(c.is_bridge(v, u));
            let mut cut = m.clone();
            cut.set_edge(u, v, false);
            let label = crate::components::matrix_components(&cut).label;
            for s in 0..10 {
                for t in 0..10 {
                    assert_eq!(
                        c.connected_without((u, v), s, t),
                        label[s] == label[t],
                        "bridge ({u},{v}), pair ({s},{t})"
                    );
                }
            }
        }
        assert!(!c.is_bridge(0, 1));
    }

    #[test]
    fn trivial_graphs() {
        assert!(is_two_edge_connected(&Graph::from_edges(0, &[]).unwrap()));
        assert!(is_two_edge_connected(&Graph::from_edges(1, &[]).unwrap()));
        let pair = Graph::from_edges(2, &[(0, 1)]).unwrap();
        assert!(!is_two_edge_connected(&pair), "a single edge is a bridge");
    }
}
