//! The COLD Genetic Algorithm (§4–§5 of the paper).
//!
//! COLD's optimization problem — minimize eq. (2) over connected graphs —
//! has no useful decomposition or relaxation, so the paper solves it with a
//! heuristic Genetic Algorithm chosen for being *flexible* (small changes
//! accommodate new objectives), *competitive* (seeding the initial
//! population with other algorithms' outputs guarantees the result is at
//! least as good as theirs) and *non-exclusive* (one run yields a whole
//! population of good topologies) (§3.3).
//!
//! This crate implements the GA exactly as §4 describes:
//!
//! - chromosomes are adjacency matrices ([`chromosome`]);
//! - the first generation contains the MST, the clique, optional seed
//!   topologies, and Erdős–Rényi fill ([`init`]);
//! - crossover picks `b = 10` random candidates, keeps the best `a = 2`,
//!   and copies each potential link from a parent chosen with probability
//!   inversely proportional to cost ([`crossover`]);
//! - mutation is either a geometric(½) link add/remove or a node
//!   "leaf-ification" ([`mutation`]);
//! - disconnected offspring are repaired with an inter-component MST
//!   ([`repair`], §4.1.3);
//! - the generational loop with elitism and (optional) parallel fitness
//!   evaluation, on one `cold_graph::executor` per run, lives in
//!   [`engine`].
//!
//! There is one generational loop. The scalar GA ([`GeneticAlgorithm`])
//! and multi-objective NSGA-II ([`ParetoGa`], in [`pareto`]) run it with
//! different survival strategies, and they differ only where the paper's
//! operators leave room: the fitness type (a cost or an objective
//! vector), survival (elites plus offspring, or (μ+λ) rank-and-crowding
//! truncation into a hypervolume archive), and the progress series the
//! early-stop and stall guards read (best cost, or archive hypervolume).
//! Generation 0, breeding, repair, cached parallel evaluation, the
//! guards and telemetry are shared — a new objective really is the small
//! change §3.3 promises.
//!
//! The engine is generic over an [`Objective`] so alternative cost models
//! (multi-AS interconnect costs, router-level objectives, …) plug in
//! without touching the GA — the extensibility §2 highlights. Objectives
//! that can evaluate incrementally open per-worker [`ObjectiveSession`]s,
//! which receive each offspring's lineage (its parent topology) and may
//! repair cached routing state instead of recomputing from scratch — the
//! results must be, and for `cold-cost`'s delta evaluator are,
//! bit-identical either way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod chromosome;
pub mod crossover;
pub mod engine;
pub mod error;
pub mod init;
pub mod mutation;
pub mod pareto;
pub mod repair;
pub mod settings;

pub use checkpoint::GaCheckpoint;
pub use chromosome::Individual;
pub use engine::{CheckpointHook, EvalStats, GaResult, GeneticAlgorithm, StopReason};
pub use error::GaError;
pub use pareto::{
    crowding_distances, dominates, hypervolume, non_dominated_sort, MultiObjective,
    MultiObjectiveSession, ParetoArchive, ParetoGa, ParetoPoint, ParetoResult,
};
pub use settings::{EarlyStop, GaSettings};

// Telemetry hook types, re-exported so engine callers can attach
// observers without depending on `cold-obs` directly.
pub use cold_obs::{GenerationObserver, GenerationRecord};

use cold_graph::AdjacencyMatrix;

/// The fitness interface the GA minimizes.
///
/// Implementations must be [`Sync`]: the engine evaluates populations in
/// parallel. Costs must be finite, non-negative and deterministic — the
/// engine caches them per individual.
pub trait Objective: Sync {
    /// Number of nodes of every candidate topology.
    fn n(&self) -> usize;

    /// Physical distance between two nodes (drives connectivity repair and
    /// node mutation's "closest non-leaf" reattachment).
    fn distance(&self, u: usize, v: usize) -> f64;

    /// Cost of a **connected** topology. The engine repairs candidates
    /// before calling this, so implementations may treat disconnection as
    /// a programming error.
    fn cost(&self, topology: &AdjacencyMatrix) -> f64;

    /// Opens a per-worker evaluation session. The engine keeps one session
    /// per evaluation thread alive across generations, so stateful
    /// implementations (incremental/delta evaluators) can reuse routing
    /// state between offspring. The default session is stateless and just
    /// forwards to [`cost`](Self::cost).
    ///
    /// Sessions must agree bit-for-bit with [`cost`](Self::cost): the
    /// engine treats them as a transparent optimization and mixes session
    /// results with cached `cost` results freely.
    fn session(&self) -> Box<dyn ObjectiveSession + '_> {
        Box::new(StatelessSession { objective: self, full: 0 })
    }

    /// The `k` nearest other nodes of every node under
    /// [`distance`](Self::distance), each list sorted by `(distance, id)`
    /// ascending. This is the candidate-link universe for pruned mutation
    /// (`GaSettings::mutation_neighbors`); implementations with
    /// precomputed geometry can override it with a cheaper/authoritative
    /// version.
    fn k_nearest(&self, k: usize) -> Vec<Vec<usize>> {
        k_nearest(self.n(), |u, v| self.distance(u, v), k)
    }
}

/// The default [`Objective::k_nearest`] and
/// [`MultiObjective::k_nearest`]: every node's `k` nearest others under
/// `distance`, each list sorted by `(distance, id)`.
fn k_nearest(n: usize, distance: impl Fn(usize, usize) -> f64, k: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|u| {
            let mut others: Vec<usize> = (0..n).filter(|&v| v != u).collect();
            others.sort_by(|&a, &b| distance(u, a).total_cmp(&distance(u, b)).then(a.cmp(&b)));
            others.truncate(k);
            others
        })
        .collect()
}

/// A per-worker fitness evaluation session (see [`Objective::session`]).
///
/// `cost` takes a `base` lineage hint that every session ignores and the
/// engine always passes as `None`: an incremental session finds the
/// evaluated topologies a candidate is near in its own anchor pool (see
/// `cold_cost::DeltaEval`). The parameter stays only for existing
/// implementers and callers. Results must not depend on which session
/// evaluates which candidate — only the work done may vary.
pub trait ObjectiveSession: Send {
    /// Cost of a **connected** topology, bit-identical to
    /// [`Objective::cost`].
    fn cost(&mut self, topology: &AdjacencyMatrix, base: Option<&AdjacencyMatrix>) -> f64;

    /// Evaluations this session answered incrementally.
    fn delta_evals(&self) -> usize {
        0
    }

    /// Evaluations this session answered with a full recomputation.
    fn full_evals(&self) -> usize {
        0
    }

    /// Arcs read by this session's routing (0 when it does not count).
    fn arcs_scanned(&self) -> u64 {
        0
    }
}

/// The default stateless session of both objective kinds: forwards to
/// [`Objective::cost`] or [`MultiObjective::objectives`] and counts every
/// call as a full evaluation.
struct StatelessSession<'a, T: ?Sized> {
    objective: &'a T,
    full: usize,
}

impl<O: Objective + ?Sized> ObjectiveSession for StatelessSession<'_, O> {
    fn cost(&mut self, topology: &AdjacencyMatrix, _base: Option<&AdjacencyMatrix>) -> f64 {
        self.full += 1;
        self.objective.cost(topology)
    }
    fn full_evals(&self) -> usize {
        self.full
    }
}

/// Blanket implementation for references, so `&O` can be passed where an
/// objective is expected.
impl<O: Objective + ?Sized> Objective for &O {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn distance(&self, u: usize, v: usize) -> f64 {
        (**self).distance(u, v)
    }
    fn cost(&self, topology: &AdjacencyMatrix) -> f64 {
        (**self).cost(topology)
    }
    fn session(&self) -> Box<dyn ObjectiveSession + '_> {
        (**self).session()
    }
    fn k_nearest(&self, k: usize) -> Vec<Vec<usize>> {
        (**self).k_nearest(k)
    }
}

#[cfg(test)]
pub(crate) mod test_objective {
    use super::{Objective, ObjectiveSession};
    use cold_graph::AdjacencyMatrix;

    /// A cheap deterministic objective for engine tests: nodes on a line,
    /// cost = k0·|E| + k1·Σℓ + k3·hubs. No routing, so tests are fast and
    /// the optimum is analytically known for extreme parameters.
    pub struct LineObjective {
        pub n: usize,
        pub k0: f64,
        pub k1: f64,
        pub k3: f64,
    }

    impl Objective for LineObjective {
        fn n(&self) -> usize {
            self.n
        }
        fn distance(&self, u: usize, v: usize) -> f64 {
            (u as f64 - v as f64).abs()
        }
        fn cost(&self, topo: &AdjacencyMatrix) -> f64 {
            let mut c = 0.0;
            for (u, v) in topo.edges() {
                c += self.k0 + self.k1 * self.distance(u, v);
            }
            c += self.k3 * topo.degrees().iter().filter(|&&d| d > 1).count() as f64;
            c
        }
    }

    /// [`LineObjective`] with sessions that work like a routing session
    /// repairing its anchor: a candidate within four pairs of the
    /// session's previous one counts as a delta evaluation scanning one
    /// arc per changed pair, any other as a full one scanning two arcs
    /// per edge. So the counters depend on which session sees which
    /// candidates, in which order, and costs do not.
    pub struct AnchoredLine(pub LineObjective);

    impl Objective for AnchoredLine {
        fn n(&self) -> usize {
            self.0.n
        }
        fn distance(&self, u: usize, v: usize) -> f64 {
            self.0.distance(u, v)
        }
        fn cost(&self, topo: &AdjacencyMatrix) -> f64 {
            self.0.cost(topo)
        }
        fn session(&self) -> Box<dyn ObjectiveSession + '_> {
            Box::new(AnchoredSession { objective: &self.0, last: None, counts: (0, 0, 0) })
        }
    }

    struct AnchoredSession<'a> {
        objective: &'a LineObjective,
        last: Option<AdjacencyMatrix>,
        /// Delta evaluations, full evaluations, arcs scanned.
        counts: (usize, usize, u64),
    }

    impl ObjectiveSession for AnchoredSession<'_> {
        fn cost(&mut self, topo: &AdjacencyMatrix, _base: Option<&AdjacencyMatrix>) -> f64 {
            let flips = self.last.as_ref().map(|last| -> u32 {
                last.words().iter().zip(topo.words()).map(|(a, b)| (a ^ b).count_ones()).sum()
            });
            match flips {
                Some(flips) if flips <= 4 => {
                    self.counts.0 += 1;
                    self.counts.2 += u64::from(flips);
                }
                _ => {
                    self.counts.1 += 1;
                    self.counts.2 += 2 * topo.edge_count() as u64;
                }
            }
            self.last = Some(topo.clone());
            self.objective.cost(topo)
        }
        fn delta_evals(&self) -> usize {
            self.counts.0
        }
        fn full_evals(&self) -> usize {
            self.counts.1
        }
        fn arcs_scanned(&self) -> u64 {
            self.counts.2
        }
    }
}
