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
//! network's routing. [`all_heuristics_on`] computes the best single-hub
//! star they all start from once, then runs every random-greedy
//! permutation and the other three heuristics as tasks on one
//! [`cold_graph::executor`], each worker pricing through its own session;
//! each standalone function opens one session of its own.
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

use cold_context::Context;
use cold_cost::{CostEvaluator, DeltaEval};
use cold_graph::executor::with_executor;
use cold_graph::AdjacencyMatrix;
use std::sync::Mutex;

/// A heuristic's output: the topology it found and its cost.
#[derive(Debug, Clone)]
pub struct HeuristicResult {
    /// The best topology found.
    pub topology: AdjacencyMatrix,
    /// Its cost under the evaluator it was optimized for.
    pub cost: f64,
}

impl HeuristicResult {
    /// A heuristic's hub network, materialized, with its cost.
    fn of(ctx: &Context, (net, cost): (HubNetwork, f64)) -> Self {
        Self { topology: net.to_matrix(ctx.distance_fn()), cost }
    }
}

/// Runs all four greedy heuristics on one thread and returns their
/// results, keyed for reporting: [`all_heuristics_on`] with one worker.
pub fn all_heuristics(
    eval: &CostEvaluator<'_>,
    random_greedy_cfg: &RandomGreedyConfig,
    seed: u64,
) -> Vec<(&'static str, HeuristicResult)> {
    all_heuristics_on(eval, random_greedy_cfg, seed, 1)
}

/// One unit of [`all_heuristics_on`]'s work.
#[derive(Debug, Clone, Copy)]
enum Task {
    /// Random greedy's pass over permutation `k`.
    Pass(usize),
    Complete,
    Mst,
    GreedyAttachment,
}

/// Runs all four greedy heuristics as tasks on an executor of `workers`
/// threads and returns their results, keyed for reporting. The order
/// matches Fig 3's legend: random greedy, complete, mst, greedy
/// attachment.
///
/// The best single-hub star they all start from is computed once, and
/// random greedy's permutations are drawn up front from its seed. Each
/// permutation's pass, complete, mst and greedy attachment is then one
/// task, priced through its worker's own [`DeltaEval`] session; with
/// several workers the longest, greedy attachment, goes first. The best
/// pass is picked in permutation order, so every result is bit-identical
/// to the four standalone functions whatever the worker count. With one
/// worker the tasks run in Fig 3's order on one session.
pub fn all_heuristics_on(
    eval: &CostEvaluator<'_>,
    random_greedy_cfg: &RandomGreedyConfig,
    seed: u64,
    workers: usize,
) -> Vec<(&'static str, HeuristicResult)> {
    let workers = workers.max(1);
    let mut sessions: Vec<Mutex<DeltaEval<'_>>> =
        (0..workers).map(|_| Mutex::new(DeltaEval::new(eval.ctx, eval.params))).collect();
    let star = hub_state::best_single_hub(sessions[0].get_mut().expect("no task ran yet"));
    let perms = random_greedy::permutations(eval.ctx.n(), random_greedy_cfg, seed);
    let passes = (0..perms.len()).map(Task::Pass);
    let tasks: Vec<Task> = if workers == 1 {
        passes.chain([Task::Complete, Task::Mst, Task::GreedyAttachment]).collect()
    } else {
        [Task::GreedyAttachment, Task::Complete, Task::Mst].into_iter().chain(passes).collect()
    };
    let (sessions, star, perms, order) = (&sessions, &star, &perms, &tasks);
    let found = with_executor(workers, |exec| {
        exec.map(order.len(), move |worker, k| {
            let session = &mut *sessions[worker].lock().expect("a worker's session is its own");
            match order[k] {
                Task::Pass(p) => random_greedy::one_pass(session, star, &perms[p]),
                Task::Complete => complete::from_star(session, star),
                Task::Mst => mst_hubs::from_star(session, star),
                Task::GreedyAttachment => greedy_attach::from_star(session, star),
            }
        })
    });
    let mut passes = Vec::with_capacity(perms.len());
    let [mut complete, mut mst, mut greedy] = [None, None, None];
    for (task, result) in tasks.into_iter().zip(found) {
        match task {
            Task::Pass(_) => passes.push(result),
            Task::Complete => complete = Some(result),
            Task::Mst => mst = Some(result),
            Task::GreedyAttachment => greedy = Some(result),
        }
    }
    let single = |found: Option<_>| HeuristicResult::of(eval.ctx, found.expect("one task each"));
    vec![
        ("random greedy", HeuristicResult::of(eval.ctx, random_greedy::best_pass(passes))),
        ("complete", single(complete)),
        ("mst", single(mst)),
        ("greedy attachment", single(greedy)),
    ]
}
