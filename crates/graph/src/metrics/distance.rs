//! Path-length statistics: hop diameter (Fig 6) and average shortest path.
//!
//! The paper's diameter "denotes the maximum number of hops between pairs
//! of nodes in the graph" (§6) — i.e. the unweighted/hop diameter — which
//! is what Fig 6 plots. A geometric (weighted) diameter is also provided
//! since synthesized networks carry link lengths.

use crate::graph::Graph;
use crate::shortest_path::{apsp, bfs_hops};
use crate::{GraphError, Result};

/// Hop diameter: the maximum over all node pairs of the minimum hop count.
///
/// Returns `Ok(0)` for graphs with fewer than 2 nodes.
///
/// # Errors
/// [`GraphError::Disconnected`] if some pair has no path.
pub fn hop_diameter(g: &Graph) -> Result<usize> {
    let n = g.n();
    if n <= 1 {
        return Ok(0);
    }
    let mut diam = 0usize;
    for s in 0..n {
        let hops = bfs_hops(g, s);
        for &h in &hops {
            if h == usize::MAX {
                return Err(GraphError::Disconnected);
            }
            diam = diam.max(h);
        }
    }
    Ok(diam)
}

/// Average shortest-path length in hops over all unordered distinct pairs.
///
/// # Errors
/// [`GraphError::Disconnected`] if some pair has no path.
pub fn average_path_length(g: &Graph) -> Result<f64> {
    let n = g.n();
    if n <= 1 {
        return Ok(0.0);
    }
    let mut total = 0usize;
    for s in 0..n {
        let hops = bfs_hops(g, s);
        for (t, &h) in hops.iter().enumerate() {
            if t == s {
                continue;
            }
            if h == usize::MAX {
                return Err(GraphError::Disconnected);
            }
            total += h;
        }
    }
    Ok(total as f64 / (n * (n - 1)) as f64)
}

/// Weighted (geometric) diameter: the maximum over pairs of the shortest
/// weighted distance, with `len(u, v)` giving each edge's length.
///
/// # Errors
/// [`GraphError::Disconnected`] if some pair has no path.
pub fn weighted_diameter(g: &Graph, len: impl Fn(usize, usize) -> f64 + Copy) -> Result<f64> {
    let n = g.n();
    if n <= 1 {
        return Ok(0.0);
    }
    let mut diam = 0.0f64;
    for tree in apsp(g, len) {
        for &d in &tree.dist {
            if !d.is_finite() {
                return Err(GraphError::Disconnected);
            }
            diam = diam.max(d);
        }
    }
    Ok(diam)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_graph_diameter() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        assert_eq!(hop_diameter(&g).unwrap(), 4);
    }

    #[test]
    fn star_has_diameter_two() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        assert_eq!(hop_diameter(&g).unwrap(), 2);
        // APL: 4 hub-spoke pairs at 1, 6 spoke-spoke pairs at 2 → 16/10.
        assert!((average_path_length(&g).unwrap() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn clique_has_diameter_one() {
        let g = crate::AdjacencyMatrix::complete(6).to_graph();
        assert_eq!(hop_diameter(&g).unwrap(), 1);
        assert_eq!(average_path_length(&g).unwrap(), 1.0);
    }

    #[test]
    fn disconnected_is_an_error() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(hop_diameter(&g).unwrap_err(), GraphError::Disconnected);
        assert_eq!(average_path_length(&g).unwrap_err(), GraphError::Disconnected);
        assert_eq!(weighted_diameter(&g, |_, _| 1.0).unwrap_err(), GraphError::Disconnected);
    }

    #[test]
    fn trivial_graphs_have_zero_diameter() {
        assert_eq!(hop_diameter(&Graph::from_edges(0, &[]).unwrap()).unwrap(), 0);
        assert_eq!(hop_diameter(&Graph::from_edges(1, &[]).unwrap()).unwrap(), 0);
    }

    #[test]
    fn weighted_diameter_uses_lengths() {
        // Triangle with one long edge: weighted shortest path avoids it.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let len = |u: usize, v: usize| {
            let (u, v) = if u < v { (u, v) } else { (v, u) };
            if (u, v) == (0, 2) {
                5.0
            } else {
                1.0
            }
        };
        // d(0,2) = min(5, 1+1) = 2 — the weighted diameter.
        assert!((weighted_diameter(&g, len).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(hop_diameter(&g).unwrap(), 1);
    }
}
