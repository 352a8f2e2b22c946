//! Greedy hub-growing heuristics and brute-force enumeration (§5).
//!
//! The paper validates the GA against four greedy algorithms, each of which
//! "starts with one hub node, and every other node a leaf node connected to
//! it. Leaf nodes are converted to hub nodes one at a time, in such a way
//! that the cost of the network reduces with each new hub … At every step
//! the remaining leaf nodes are reconnected to the new closest hub node. If
//! a hub can not be added without increasing the cost of the network, the
//! algorithm terminates." They differ in how new hubs interconnect:
//!
//! - [`complete`]: hubs always form a clique;
//! - [`mst_hubs`]: hubs are connected by a minimum spanning tree;
//! - [`greedy_attach`]: each new hub adds its cost-greedy choice of links
//!   to existing hubs;
//! - [`random_greedy()`]: nodes are considered for promotion in random
//!   permutation order (greedy links), best of many permutations.
//!
//! These heuristics serve two roles in the paper: independent competitors
//! (Fig 3) and seeds for the *initialized GA*, which then dominates all of
//! them by construction.
//!
//! Every candidate network is priced through a [`cold_cost::DeltaEval`]
//! session, bit-identical to [`CostEvaluator::cost`]: a candidate is one
//! promotion or one link away from a network priced shortly before, so
//! the session's anchor pool answers most of them by repairing that
//! network's routing. [`all_heuristics`] runs all four through one
//! session and computes the best single-hub star they all start from
//! once; each standalone function opens its own session.
//!
//! [`brute_force`] provides the exact optimum for small `n` — the paper's
//! ground-truth check that the GA "always finds the real optimal solution"
//! for small networks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annealing;
pub mod brute_force;
pub mod complete;
pub mod greedy_attach;
pub mod hub_state;
pub mod mst_hubs;
pub mod random_greedy;

pub use annealing::{anneal, AnnealingProblem, AnnealingResult, AnnealingSettings};
pub use brute_force::brute_force_optimum;
pub use complete::complete_heuristic;
pub use greedy_attach::greedy_attachment;
pub use hub_state::HubNetwork;
pub use mst_hubs::mst_heuristic;
pub use random_greedy::{random_greedy, RandomGreedyConfig};

use cold_cost::{CostEvaluator, DeltaEval};
use cold_graph::AdjacencyMatrix;

/// A heuristic's output: the topology it found and its cost.
#[derive(Debug, Clone)]
pub struct HeuristicResult {
    /// The best topology found.
    pub topology: AdjacencyMatrix,
    /// Its cost under the evaluator it was optimized for.
    pub cost: f64,
}

/// Runs all four greedy heuristics and returns their results, keyed for
/// reporting. The order matches Fig 3's legend: random greedy, complete,
/// mst, greedy attachment. They share one evaluation session and one
/// best single-hub star; every result is bit-identical to running the
/// four standalone functions.
pub fn all_heuristics(
    eval: &CostEvaluator<'_>,
    random_greedy_cfg: &RandomGreedyConfig,
    seed: u64,
) -> Vec<(&'static str, HeuristicResult)> {
    let mut session = DeltaEval::new(eval.ctx, eval.params);
    let star = hub_state::best_single_hub(&mut session);
    vec![
        ("random greedy", random_greedy::from_star(&mut session, &star, random_greedy_cfg, seed)),
        ("complete", complete::from_star(&mut session, &star)),
        ("mst", mst_hubs::from_star(&mut session, &star)),
        ("greedy attachment", greedy_attach::from_star(&mut session, &star)),
    ]
}
