//! Connectivity repair (§4.1.3).
//!
//! "The mutation and crossover steps can produce a network that is
//! disconnected. If this occurs, COLD finds all the connected components
//! and the shortest link between each pair of connected components. COLD
//! then finds a minimum spanning tree (minimum in terms of physical link
//! distance) to connect these components."
//!
//! The heavy lifting lives in [`cold_graph::mst::join_components`]
//! (components by union–find, labelled by smallest node); this
//! module adapts it to the GA's [`Objective`] and tracks how often repair
//! fires (the paper notes "It is used rarely. However, when the costs
//! induce topologies with low numbers of links, this step becomes more
//! frequent" — the counter lets experiments verify that claim).

use crate::Objective;
use cold_graph::mst::join_components;
use cold_graph::AdjacencyMatrix;

/// Statistics about repair activity over a GA run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Offspring that needed repair.
    pub repaired: usize,
    /// Offspring inspected.
    pub inspected: usize,
    /// Total links added across all repairs.
    pub links_added: usize,
}

impl RepairStats {
    /// Fraction of inspected offspring that needed repair.
    pub fn repair_rate(&self) -> f64 {
        if self.inspected == 0 {
            0.0
        } else {
            self.repaired as f64 / self.inspected as f64
        }
    }
}

/// Ensures `topology` is connected, adding minimum-distance bridge links if
/// needed, and updates `stats`.
pub fn repair<O: Objective>(
    topology: &mut AdjacencyMatrix,
    objective: &O,
    stats: &mut RepairStats,
) {
    stats.inspected += 1;
    let added = join_components(topology, |u, v| objective.distance(u, v));
    if !added.is_empty() {
        stats.repaired += 1;
        stats.links_added += added.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_objective::LineObjective;
    use cold_graph::components::matrix_is_connected;

    #[test]
    fn repair_connects_and_counts() {
        let obj = LineObjective { n: 6, k0: 0.0, k1: 0.0, k3: 0.0 };
        let mut stats = RepairStats::default();
        let mut m = AdjacencyMatrix::from_edges(6, &[(0, 1), (2, 3), (4, 5)]).unwrap();
        repair(&mut m, &obj, &mut stats);
        assert!(matrix_is_connected(&m));
        assert_eq!(stats.inspected, 1);
        assert_eq!(stats.repaired, 1);
        assert_eq!(stats.links_added, 2);
        // Line metric: bridges are the unit-length gaps (1,2) and (3,4).
        assert!(m.has_edge(1, 2));
        assert!(m.has_edge(3, 4));
    }

    #[test]
    fn connected_input_is_untouched() {
        let obj = LineObjective { n: 4, k0: 0.0, k1: 0.0, k3: 0.0 };
        let mut stats = RepairStats::default();
        let mut m = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let before = m.clone();
        repair(&mut m, &obj, &mut stats);
        assert_eq!(m, before);
        assert_eq!(stats.repaired, 0);
        assert_eq!(stats.inspected, 1);
        assert_eq!(stats.repair_rate(), 0.0);
    }

    #[test]
    fn repair_rate_accumulates() {
        let obj = LineObjective { n: 4, k0: 0.0, k1: 0.0, k3: 0.0 };
        let mut stats = RepairStats::default();
        let mut a = AdjacencyMatrix::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut b = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        repair(&mut a, &obj, &mut stats);
        repair(&mut b, &obj, &mut stats);
        assert_eq!(stats.inspected, 2);
        assert_eq!(stats.repaired, 1);
        assert!((stats.repair_rate() - 0.5).abs() < 1e-12);
    }
}
