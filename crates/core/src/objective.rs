//! The COLD cost function packaged as a GA [`Objective`].

use cold_context::Context;
use cold_cost::{CostEvaluator, CostParams, DeltaEval};
use cold_ga::{Objective, ObjectiveSession};
use cold_graph::AdjacencyMatrix;

/// Adapter: evaluates eq. (2) for the GA.
///
/// The GA guarantees candidates are connected (repair precedes
/// evaluation), so a routing failure here is a programming error and
/// panics rather than being silently penalized.
#[derive(Debug, Clone)]
pub struct ColdObjective<'a> {
    eval: CostEvaluator<'a>,
}

impl<'a> ColdObjective<'a> {
    /// Creates the objective for a context and cost parameters.
    pub fn new(ctx: &'a Context, params: CostParams) -> Self {
        Self { eval: CostEvaluator::new(ctx, params) }
    }

    /// The underlying evaluator (for breakdowns and capacity plans).
    pub fn evaluator(&self) -> &CostEvaluator<'a> {
        &self.eval
    }

    /// The context being optimized for.
    pub fn context(&self) -> &'a Context {
        self.eval.ctx
    }

    /// The cost parameters.
    pub fn params(&self) -> CostParams {
        self.eval.params
    }
}

impl Objective for ColdObjective<'_> {
    fn n(&self) -> usize {
        self.eval.ctx.n()
    }

    fn distance(&self, u: usize, v: usize) -> f64 {
        self.eval.ctx.distance(u, v)
    }

    fn cost(&self, topology: &AdjacencyMatrix) -> f64 {
        self.eval
            .cost(topology)
            .expect("GA repairs candidates before evaluation; topology must be connected")
    }

    fn session(&self) -> Box<dyn ObjectiveSession + '_> {
        Box::new(DeltaSession { delta: DeltaEval::new(self.eval.ctx, self.eval.params) })
    }

    fn k_nearest(&self, k: usize) -> Vec<Vec<usize>> {
        // Same values as the trait default (the context precomputes the
        // distance matrix the default would query), but authoritative:
        // the candidate universe comes straight from the geographic
        // context.
        self.eval.ctx.k_nearest(k)
    }
}

/// Per-worker incremental evaluation session: wraps
/// [`cold_cost::DeltaEval`], whose results are bit-identical to
/// [`CostEvaluator::cost`], so the GA sees delta evaluation purely as a
/// speedup.
struct DeltaSession<'a> {
    delta: DeltaEval<'a>,
}

impl ObjectiveSession for DeltaSession<'_> {
    fn cost(&mut self, topology: &AdjacencyMatrix, base: Option<&AdjacencyMatrix>) -> f64 {
        self.delta
            .eval(topology, base)
            .expect("GA repairs candidates before evaluation; topology must be connected")
    }
    fn delta_evals(&self) -> usize {
        self.delta.delta_evals()
    }
    fn full_evals(&self) -> usize {
        self.delta.full_evals()
    }
    fn arcs_scanned(&self) -> u64 {
        self.delta.arcs_scanned()
    }
}

/// The same objective also drives the simulated-annealing baseline
/// ([`cold_heuristics::annealing`]) so GA-vs-SA comparisons are
/// apples-to-apples.
impl cold_heuristics::AnnealingProblem for ColdObjective<'_> {
    fn n(&self) -> usize {
        Objective::n(self)
    }
    fn distance(&self, u: usize, v: usize) -> f64 {
        Objective::distance(self, u, v)
    }
    fn cost(&self, topology: &AdjacencyMatrix) -> f64 {
        Objective::cost(self, topology)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cold_context::ContextConfig;

    #[test]
    fn objective_matches_evaluator() {
        let ctx = ContextConfig::paper_default(8).generate(1);
        let obj = ColdObjective::new(&ctx, CostParams::paper(1e-4, 10.0));
        assert_eq!(obj.n(), 8);
        let mst = cold_graph::mst::mst_matrix(8, ctx.distance_fn());
        assert_eq!(obj.cost(&mst), obj.evaluator().cost(&mst).unwrap());
        assert_eq!(obj.distance(0, 1), ctx.distance(0, 1));
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_candidate_panics() {
        let ctx = ContextConfig::paper_default(4).generate(2);
        let obj = ColdObjective::new(&ctx, CostParams::default());
        let disconnected = AdjacencyMatrix::from_edges(4, &[(0, 1)]).unwrap();
        obj.cost(&disconnected);
    }
}
