//! Dense traffic matrices.

use serde::{Deserialize, Serialize};

/// A dense `n × n` traffic matrix: `demand(s, t)` is the offered traffic
/// from PoP `s` to PoP `t`. Diagonal entries are zero (intra-PoP traffic
/// never crosses an inter-PoP link).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficMatrix {
    n: usize,
    /// Row-major demands.
    data: Vec<f64>,
}

impl TrafficMatrix {
    /// Creates an all-zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self { n, data: vec![0.0; n * n] }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != n²`, any entry is negative/NaN, or the
    /// diagonal is nonzero.
    pub fn from_rows(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "need n² entries");
        for s in 0..n {
            for t in 0..n {
                let x = data[s * n + t];
                assert!(x >= 0.0, "demand ({s},{t}) = {x} must be nonnegative");
                if s == t {
                    assert_eq!(x, 0.0, "diagonal must be zero");
                }
            }
        }
        Self { n, data }
    }

    /// Number of PoPs.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Demand from `s` to `t`.
    #[inline]
    pub fn demand(&self, s: usize, t: usize) -> f64 {
        self.data[s * self.n + t]
    }

    /// Sets the demand from `s` to `t`.
    ///
    /// # Panics
    /// Panics on the diagonal or a negative value.
    pub fn set_demand(&mut self, s: usize, t: usize, value: f64) {
        assert!(s != t || value == 0.0, "diagonal must stay zero");
        assert!(value >= 0.0, "demand must be nonnegative");
        self.data[s * self.n + t] = value;
    }

    /// Total offered traffic over all ordered pairs.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Total traffic originating at `s` (row sum).
    pub fn row_sum(&self, s: usize) -> f64 {
        (0..self.n).map(|t| self.demand(s, t)).sum()
    }

    /// Whether `demand(s, t) == demand(t, s)` for all pairs (within `eps`).
    pub fn is_symmetric(&self, eps: f64) -> bool {
        for s in 0..self.n {
            for t in (s + 1)..self.n {
                if (self.demand(s, t) - self.demand(t, s)).abs() > eps {
                    return false;
                }
            }
        }
        true
    }

    /// Multiplies every demand by `factor` in place.
    ///
    /// # Panics
    /// Panics if `factor` is negative or NaN.
    pub fn scale(&mut self, factor: f64) {
        assert!(factor >= 0.0, "scale factor must be nonnegative");
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// A closure view suitable for `cold_graph::routing::RoutingState::build`.
    pub fn as_fn(&self) -> impl Fn(usize, usize) -> f64 + Copy + '_ {
        move |s, t| self.demand(s, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set() {
        let mut tm = TrafficMatrix::zeros(3);
        assert_eq!(tm.total(), 0.0);
        tm.set_demand(0, 1, 2.5);
        tm.set_demand(1, 0, 1.5);
        assert_eq!(tm.demand(0, 1), 2.5);
        assert_eq!(tm.total(), 4.0);
        assert_eq!(tm.row_sum(0), 2.5);
        assert!(!tm.is_symmetric(1e-12));
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn diagonal_rejected() {
        let mut tm = TrafficMatrix::zeros(2);
        tm.set_demand(1, 1, 1.0);
    }

    #[test]
    fn from_rows_validates() {
        let tm = TrafficMatrix::from_rows(2, vec![0.0, 3.0, 4.0, 0.0]);
        assert_eq!(tm.demand(0, 1), 3.0);
        assert_eq!(tm.demand(1, 0), 4.0);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_demand_rejected() {
        TrafficMatrix::from_rows(2, vec![0.0, -1.0, 0.0, 0.0]);
    }

    #[test]
    fn scale_multiplies_everything() {
        let mut tm = TrafficMatrix::from_rows(2, vec![0.0, 2.0, 4.0, 0.0]);
        tm.scale(0.5);
        assert_eq!(tm.demand(0, 1), 1.0);
        assert_eq!(tm.demand(1, 0), 2.0);
    }

    #[test]
    fn as_fn_matches() {
        let tm = TrafficMatrix::from_rows(2, vec![0.0, 7.0, 1.0, 0.0]);
        let f = tm.as_fn();
        assert_eq!(f(0, 1), 7.0);
        assert_eq!(f(1, 1), 0.0);
    }
}
