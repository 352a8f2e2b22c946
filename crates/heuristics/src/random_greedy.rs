//! The *Random Greedy* heuristic (§5).
//!
//! "A random permutation of all the nodes is chosen. The algorithm then
//! iterates over the PoPs in this order. For each PoP it decides whether
//! changing it to a hub reduces the cost of the network, and if so, the
//! node \[is\] made a hub. New hubs are linked to the existing hubs greedily:
//! picking the lowest cost connecting link, etc., until there are no more
//! cost reductions. Once all the PoPs in the permutation have been
//! evaluated, the process repeats for many different random permutations."

use crate::greedy_attach::greedy_link_new_hub;
use crate::hub_state::{best_single_hub, HubNetwork};
use crate::HeuristicResult;
use cold_cost::{CostEvaluator, DeltaEval};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration for Random Greedy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RandomGreedyConfig {
    /// Number of random permutations tried; the best outcome is kept.
    pub permutations: usize,
}

impl Default for RandomGreedyConfig {
    fn default() -> Self {
        Self { permutations: 10 }
    }
}

/// One pass over a fixed permutation, starting from the best single-hub
/// `star`.
fn one_pass(
    session: &mut DeltaEval<'_>,
    star: &(HubNetwork, f64),
    perm: &[usize],
) -> (HubNetwork, f64) {
    let (mut net, mut cost) = star.clone();
    for &cand in perm {
        if net.is_hub(cand) {
            continue;
        }
        let mut trial = net.clone();
        trial.promote(cand, &[]);
        let (trial, c) = greedy_link_new_hub(trial, cand, session);
        if c < cost {
            net = trial;
            cost = c;
        }
    }
    (net, cost)
}

/// Runs Random Greedy over `config.permutations` random permutations.
pub fn random_greedy(
    eval: &CostEvaluator<'_>,
    config: &RandomGreedyConfig,
    seed: u64,
) -> HeuristicResult {
    let mut session = DeltaEval::new(eval.ctx, eval.params);
    let star = best_single_hub(&mut session);
    from_star(&mut session, &star, config, seed)
}

/// Random Greedy from the best single-hub `star`, priced through
/// `session`.
pub(crate) fn from_star(
    session: &mut DeltaEval<'_>,
    star: &(HubNetwork, f64),
    config: &RandomGreedyConfig,
    seed: u64,
) -> HeuristicResult {
    assert!(config.permutations >= 1, "need at least one permutation");
    let n = session.ctx().n();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best: Option<(HubNetwork, f64)> = None;
    for _ in 0..config.permutations {
        let mut perm: Vec<usize> = (0..n).collect();
        // Fisher–Yates shuffle.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let (net, cost) = one_pass(session, star, &perm);
        if best.as_ref().is_none_or(|(_, bc)| cost < *bc) {
            best = Some((net, cost));
        }
    }
    let (net, cost) = best.expect("at least one permutation ran");
    HeuristicResult { topology: net.to_matrix(session.ctx().distance_fn()), cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cold_context::ContextConfig;
    use cold_cost::CostParams;

    #[test]
    fn result_is_connected_and_consistent() {
        let ctx = ContextConfig::paper_default(12).generate(12);
        let eval = CostEvaluator::new(&ctx, CostParams::paper(1e-4, 10.0));
        let r = random_greedy(&eval, &RandomGreedyConfig { permutations: 3 }, 1);
        assert!(cold_graph::components::matrix_is_connected(&r.topology));
        assert!((eval.cost(&r.topology).unwrap() - r.cost).abs() < 1e-9);
    }

    #[test]
    fn more_permutations_never_hurt() {
        let ctx = ContextConfig::paper_default(10).generate(13);
        let eval = CostEvaluator::new(&ctx, CostParams::paper(4e-4, 10.0));
        // Same seed: the first permutation of both runs is identical, so
        // the 5-permutation run sees a superset of candidates.
        let few = random_greedy(&eval, &RandomGreedyConfig { permutations: 1 }, 7);
        let many = random_greedy(&eval, &RandomGreedyConfig { permutations: 5 }, 7);
        assert!(many.cost <= few.cost + 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let ctx = ContextConfig::paper_default(9).generate(14);
        let eval = CostEvaluator::new(&ctx, CostParams::paper(1e-4, 10.0));
        let cfg = RandomGreedyConfig { permutations: 2 };
        let a = random_greedy(&eval, &cfg, 42);
        let b = random_greedy(&eval, &cfg, 42);
        assert_eq!(a.topology, b.topology);
        assert_eq!(a.cost, b.cost);
    }
}
