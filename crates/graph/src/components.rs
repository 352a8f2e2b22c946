//! Connected components and connectivity predicates.
//!
//! The paper's networks must be connected ("a disconnected data network is
//! broken", §1); the GA's crossover and mutation steps can disconnect a
//! candidate, after which the repair step (§4.1.3) joins the components via
//! an inter-component MST. This module provides the component analysis that
//! repair and the constraint checks rely on.

use crate::adjacency::AdjacencyMatrix;
use crate::graph::Graph;
use crate::union_find::UnionFind;

/// Per-node component labels plus the component count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentLabels {
    /// `label[v]` ∈ `0..count` is the component of node `v`; labels are
    /// assigned in order of each component's smallest node index.
    pub label: Vec<usize>,
    /// Number of connected components (`0` for the empty graph).
    pub count: usize,
}

impl ComponentLabels {
    /// Groups node indices by component, ordered by label.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.count];
        for (v, &c) in self.label.iter().enumerate() {
            groups[c].push(v);
        }
        groups
    }
}

/// Computes connected components of a [`Graph`] by iterative DFS.
pub fn connected_components(g: &Graph) -> ComponentLabels {
    let n = g.n();
    let mut label = vec![usize::MAX; n];
    let mut count = 0usize;
    let mut stack = Vec::new();
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        label[start] = count;
        stack.push(start);
        while let Some(v) = stack.pop() {
            for &w in g.neighbors(v) {
                if label[w] == usize::MAX {
                    label[w] = count;
                    stack.push(w);
                }
            }
        }
        count += 1;
    }
    ComponentLabels { label, count }
}

/// Connected components of an [`AdjacencyMatrix`] by [`UnionFind`], labelled
/// in order of each component's smallest node as [`connected_components`].
pub fn matrix_components(m: &AdjacencyMatrix) -> ComponentLabels {
    let mut uf = UnionFind::new(m.n());
    for (u, v) in m.edges() {
        uf.union(u, v);
    }
    let (mut label, mut count) = (vec![usize::MAX; m.n()], 0);
    for v in 0..m.n() {
        let root = uf.find(v);
        if label[root] == usize::MAX {
            (label[root], count) = (count, count + 1);
        }
        label[v] = label[root];
    }
    ComponentLabels { label, count }
}

/// Whether the graph is connected. The empty graph (n = 0) and the
/// single-node graph are considered connected.
pub fn is_connected(g: &Graph) -> bool {
    g.n() <= 1 || connected_components(g).count == 1
}

/// Whether the matrix-represented graph is connected.
pub fn matrix_is_connected(m: &AdjacencyMatrix) -> bool {
    m.n() <= 1 || matrix_components(m).count == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_is_connected() {
        assert!(is_connected(&Graph::from_edges(0, &[]).unwrap()));
        assert!(is_connected(&Graph::from_edges(1, &[]).unwrap()));
    }

    #[test]
    fn two_isolated_nodes_are_disconnected() {
        let g = Graph::from_edges(2, &[]).unwrap();
        assert!(!is_connected(&g));
        let c = connected_components(&g);
        assert_eq!(c.count, 2);
        assert_eq!(c.label, vec![0, 1]);
    }

    #[test]
    fn path_is_one_component() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let c = connected_components(&g);
        assert_eq!(c.count, 1);
        assert!(is_connected(&g));
    }

    #[test]
    fn labels_in_smallest_index_order() {
        // Components: {0,2}, {1,4}, {3}
        let g = Graph::from_edges(5, &[(0, 2), (1, 4)]).unwrap();
        let c = connected_components(&g);
        assert_eq!(c.count, 3);
        assert_eq!(c.label[0], 0);
        assert_eq!(c.label[2], 0);
        assert_eq!(c.label[1], 1);
        assert_eq!(c.label[4], 1);
        assert_eq!(c.label[3], 2);
        assert_eq!(c.groups(), vec![vec![0, 2], vec![1, 4], vec![3]]);
    }

    #[test]
    fn union_find_labels_equal_the_dfs_labels() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        for n in [0usize, 1, 2, 7, 30, 90] {
            // Sparse densities leave isolated nodes and many components.
            for density in [0.0, 0.01, 0.03, 0.1, 0.5] {
                let mut m = AdjacencyMatrix::empty(n);
                for p in 0..m.pair_count() {
                    m.set_bit(p, rng.gen_bool(density));
                }
                let dfs = connected_components(&m.to_graph());
                assert_eq!(matrix_components(&m), dfs, "n = {n}, density {density}");
                assert_eq!(matrix_is_connected(&m), n <= 1 || dfs.count == 1);
            }
        }
    }

    #[test]
    fn matrix_helpers_agree() {
        let m = AdjacencyMatrix::from_edges(5, &[(0, 1), (2, 3)]).unwrap();
        assert!(!matrix_is_connected(&m));
        assert_eq!(matrix_components(&m).count, 3);
        let full = AdjacencyMatrix::complete(5);
        assert!(matrix_is_connected(&full));
    }
}
