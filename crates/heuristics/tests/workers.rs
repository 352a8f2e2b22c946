//! `all_heuristics_on` is the same computation on any number of workers:
//! with 1, 2 and 3 workers every topology and every cost bit equals the
//! four standalone heuristics', at the quick (n = 12) and paper (n = 30)
//! sizes, over several contexts and 1, 3 and 10 random-greedy
//! permutations.

use cold_context::ContextConfig;
use cold_cost::{CostEvaluator, CostParams};
use cold_graph::AdjacencyMatrix;
use cold_heuristics::{
    all_heuristics_on, complete_heuristic, greedy_attachment, mst_heuristic, random_greedy,
    HeuristicResult, RandomGreedyConfig,
};

/// A result as compared: its name, topology and cost bits.
fn key(name: &str, r: HeuristicResult) -> (String, AdjacencyMatrix, u64) {
    (name.to_string(), r.topology, r.cost.to_bits())
}

fn check(n: usize, context_seed: u64, params: CostParams) {
    let ctx = ContextConfig::paper_default(n).generate(context_seed);
    let eval = CostEvaluator::new(&ctx, params);
    let singles = [
        key("complete", complete_heuristic(&eval)),
        key("mst", mst_heuristic(&eval)),
        key("greedy attachment", greedy_attachment(&eval)),
    ];
    for permutations in [1, 3, 10] {
        let cfg = RandomGreedyConfig { permutations };
        let seed = context_seed + 100;
        let mut expected = vec![key("random greedy", random_greedy(&eval, &cfg, seed))];
        expected.extend(singles.iter().cloned());
        for workers in 1..=3 {
            let got: Vec<_> = all_heuristics_on(&eval, &cfg, seed, workers)
                .into_iter()
                .map(|(name, r)| key(name, r))
                .collect();
            assert_eq!(
                got, expected,
                "n {n}, context {context_seed}, {permutations} permutations, {workers} workers"
            );
        }
    }
}

#[test]
fn every_worker_count_matches_the_standalone_heuristics_at_n12() {
    for context_seed in 1..=3 {
        check(12, context_seed, CostParams::paper(4e-4, 10.0));
        check(12, context_seed, CostParams::paper(1e-3, 1.0));
    }
}

#[test]
fn every_worker_count_matches_the_standalone_heuristics_at_n30() {
    for context_seed in 1..=2 {
        check(30, context_seed, CostParams::paper(4e-4, 10.0));
    }
}
