//! The GA's individuals: a topology chromosome with its cached cost.

use cold_graph::AdjacencyMatrix;

/// One member of the GA population.
///
/// §4: "Each candidate topology in the current generation is stored as an
/// n by n adjacency matrix. The costs for each topology are also stored."
#[derive(Debug, Clone, PartialEq)]
pub struct Individual {
    /// The candidate topology (always connected once admitted to a
    /// generation — the engine repairs offspring before evaluation).
    pub topology: AdjacencyMatrix,
    /// The cached objective value.
    pub cost: f64,
}

impl Individual {
    /// Pairs a topology with its cost.
    ///
    /// Finiteness is *enforced* at the engine's evaluation boundary
    /// (`evaluate_batch` returns [`GaError::NonFiniteCost`](crate::GaError)
    /// in every build profile); the `debug_assert!` here is only a
    /// backstop for direct constructions in tests.
    pub fn new(topology: AdjacencyMatrix, cost: f64) -> Self {
        debug_assert!(cost.is_finite(), "individual cost must be finite, got {cost}");
        Self { topology, cost }
    }
}

/// Sorts a population by ascending cost with a deterministic tiebreak on
/// the chromosome bits (so runs are reproducible even under cost ties).
pub fn sort_by_cost(population: &mut [Individual]) {
    population.sort_by(cmp_by_cost);
}

/// The order [`sort_by_cost`] sorts by: cost, then edge count, then edge
/// list.
pub(crate) fn cmp_by_cost(a: &Individual, b: &Individual) -> std::cmp::Ordering {
    a.cost
        .total_cmp(&b.cost)
        .then_with(|| a.topology.edge_count().cmp(&b.topology.edge_count()))
        .then_with(|| a.topology.edges().cmp(b.topology.edges()))
}

/// Inverse-cost selection weights (§4.1.1/§4.1.2: parents and mutation
/// sources are "chosen with probability inversely proportional to their
/// cost"). Costs at or below `f64::EPSILON` are clamped so a zero-cost
/// individual cannot produce an infinite weight.
pub fn inverse_cost_weights(population: &[Individual]) -> Vec<f64> {
    population.iter().map(|ind| 1.0 / ind.cost.max(f64::EPSILON)).collect()
}

/// Samples an index from `weights` proportionally, using a `[0, 1)` uniform
/// draw. Deterministic given the draw; always returns a valid index for
/// nonempty weights — degenerate inputs (all-zero mass, non-finite sums)
/// fall back to a uniform pick instead of biasing toward the last index or
/// reading out of range.
///
/// # Panics
/// Panics on empty `weights` in every build profile: the old
/// `debug_assert!` let release builds fall through to `weights.len() - 1`,
/// which wraps to `usize::MAX` and indexes out of bounds at the call site.
pub fn weighted_pick(weights: &[f64], u: f64) -> usize {
    assert!(!weights.is_empty(), "weighted_pick needs at least one weight");
    let total: f64 = weights.iter().sum();
    if !total.is_finite() || total <= 0.0 {
        // Degenerate: all weights zero, or the sum overflowed/NaN'd (both
        // caught by the finiteness test) — fall back to uniform.
        return ((u * weights.len() as f64) as usize).min(weights.len() - 1);
    }
    let mut target = u * total;
    for (i, &w) in weights.iter().enumerate() {
        target -= w;
        if target < 0.0 {
            return i;
        }
    }
    // u at the top of the open interval can survive the loop through
    // floating-point rounding; the last index is the correct limit.
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ind(n: usize, edges: &[(usize, usize)], cost: f64) -> Individual {
        Individual::new(AdjacencyMatrix::from_edges(n, edges).unwrap(), cost)
    }

    #[test]
    fn sorting_is_by_cost_then_deterministic() {
        let mut pop =
            vec![ind(3, &[(0, 1), (1, 2)], 5.0), ind(3, &[(0, 2)], 2.0), ind(3, &[(0, 1)], 2.0)];
        sort_by_cost(&mut pop);
        assert_eq!(pop[0].cost, 2.0);
        assert_eq!(pop[2].cost, 5.0);
        // Tie between the two cost-2 individuals broken by edge list:
        // (0,1) < (0,2).
        assert!(pop[0].topology.has_edge(0, 1));
    }

    #[test]
    fn inverse_weights_favor_cheap() {
        let pop = vec![ind(2, &[(0, 1)], 1.0), ind(2, &[], 4.0)];
        let w = inverse_cost_weights(&pop);
        assert!((w[0] - 1.0).abs() < 1e-12);
        assert!((w[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn weighted_pick_respects_mass() {
        let w = vec![1.0, 3.0];
        // First quarter of the unit interval → index 0.
        assert_eq!(weighted_pick(&w, 0.1), 0);
        assert_eq!(weighted_pick(&w, 0.24), 0);
        assert_eq!(weighted_pick(&w, 0.26), 1);
        assert_eq!(weighted_pick(&w, 0.99), 1);
    }

    #[test]
    fn weighted_pick_handles_zero_total() {
        let w = vec![0.0, 0.0, 0.0];
        assert_eq!(weighted_pick(&w, 0.0), 0);
        assert_eq!(weighted_pick(&w, 0.99), 2);
    }

    #[test]
    fn weighted_pick_draw_at_open_boundary_stays_in_range() {
        // The largest f64 strictly below 1.0 — the extreme of the engine's
        // `gen_range(0.0..1.0)` draw — must map to the last index, not
        // past it, for both proportional and degenerate fallback paths.
        let top = 1.0_f64.next_down();
        for w in [vec![1.0, 3.0, 2.0], vec![0.0, 0.0, 0.0]] {
            let i = weighted_pick(&w, top);
            assert_eq!(i, w.len() - 1, "u→1⁻ picks the final index, got {i}");
        }
        assert_eq!(weighted_pick(&[5.0], top), 0);
    }

    #[test]
    fn weighted_pick_non_finite_total_falls_back_to_uniform() {
        // An ∞ or NaN mass sum must not bias every pick to index 0 (∞
        // total makes `u * total` ∞, never < 0 after one subtraction) —
        // the uniform fallback keeps selection usable.
        for w in [vec![f64::INFINITY, 1.0, 1.0], vec![f64::NAN, 1.0, 1.0]] {
            assert_eq!(weighted_pick(&w, 0.0), 0);
            assert_eq!(weighted_pick(&w, 0.5), 1);
            assert_eq!(weighted_pick(&w, 0.99), 2);
        }
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn weighted_pick_rejects_empty_weights() {
        // Must panic with a message in release builds too — the old
        // debug_assert! left `weights.len() - 1` to wrap in release.
        weighted_pick(&[], 0.5);
    }

    #[test]
    fn zero_cost_is_clamped() {
        let pop = vec![ind(2, &[(0, 1)], 0.0)];
        let w = inverse_cost_weights(&pop);
        assert!(w[0].is_finite());
    }
}
