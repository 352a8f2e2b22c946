//! Incremental (delta) objective evaluation.
//!
//! The GA's runtime is dominated by all-pairs shortest paths: every
//! offspring re-routes the full traffic matrix even though mutation flips
//! only ~2 links and late-stage crossover children differ from their
//! parents by a handful of pairs; the §5 heuristics likewise price
//! candidates one promotion or one link away from a network priced just
//! before. [`DeltaEval`] exploits that locality: it pools the
//! [`RoutingState`] (per-source distance and parent rows and priced
//! demand) of recently evaluated topologies — its **anchors** — and,
//! given the next candidate, copies the nearest anchor's rows, repairs
//! only the shortest-path trees the flipped edges actually touch,
//! re-prices only the rerouted demand, and falls back to a full pass (the
//! [`RoutingState::build`] of
//! [`evaluate_total`](crate::evaluate_total)) when no anchor is near
//! enough.
//!
//! # Anchor pool
//!
//! The pool holds at most 64 anchors and at most 16 MiB of rows (16·n²
//! bytes per anchor), and at least 2. The nearest anchor is the one at
//! the smallest Hamming distance, at most `max_flips`; ties go to the
//! most recently used. A duplicate of a pooled topology is answered with
//! its pooled total. Repairs and full passes build into a spare entry
//! that joins the pool only on success — a failure leaves every anchor
//! intact — and a full pool evicts its least recently used anchor, whose
//! buffers become the next spare, so a warmed-up session allocates
//! nothing per evaluation.
//!
//! # Bit-identity
//!
//! Delta evaluation is an optimization, not an approximation: every total
//! it returns is **bit-identical** to [`evaluate_total`](crate::evaluate_total) on the same
//! topology, and every anchor's rows and tie-free flags equal a fresh
//! [`RoutingState::build`]'s. Three facts make that exact:
//!
//! 1. *Repaired rows are fresh rows.* A touched source's rows go through
//!    [`TreeRepair::run`], the one tree repair of `cold_graph::routing`
//!    (its module docs give the algorithm and the proof): distances are
//!    the relaxation fixpoint's, parents are forced or re-run. A source
//!    is touched when a deleted edge is one of its tree edges (or, in a
//!    tree with a tie, any shortest-predecessor link) or an inserted edge
//!    improves or ties one of its labels; every other source keeps rows
//!    and a flag that a fresh build reproduces.
//! 2. *Per-source pricing shares one loop.* Repaired rows are committed
//!    through [`RoutingState::replace_rows`], which prices each repaired
//!    source with the loop `build` uses and refolds the per-source terms
//!    in ascending source order — the same summation tree as the full
//!    pass.
//! 3. *The remaining terms are recomputed.* `k0·|E|`, `k1·Σℓ` and
//!    `k3·hubs` are cheap (O(m + n)) and priced from the committed state
//!    by the one tail [`evaluate_total`](crate::evaluate_total) uses.
//!
//! A source whose repair re-ran Dijkstra (its tree had a tie, or the
//! diff made one) counts in [`DeltaEval::rerouted_sources`]. Ties need
//! equal-cost paths, which coincident or grid-snapped PoPs make and PoPs
//! at random positions do not.

use crate::cost::{injected_fault, CostBreakdown};
use crate::params::CostParams;
use cold_context::Context;
use cold_graph::routing::{Csr, EdgeDiff, RoutingState, TreeRepair};
use cold_graph::{AdjacencyMatrix, GraphError};

/// Most anchors one session pools.
const POOL_MAX_ENTRIES: usize = 64;
/// Most bytes of distance and parent rows one session pools: 16·n² bytes
/// per anchor (an `f64` and a `usize` per ordered pair).
const POOL_MAX_ROW_BYTES: usize = 16 << 20;
/// Fewest anchors one session pools, whatever `n`: a parent must survive
/// its first child.
const POOL_MIN_ENTRIES: usize = 2;

/// How many anchors a session at `n` nodes pools (see DESIGN.md §13 for
/// the measurement behind the bounds).
fn pool_capacity(n: usize) -> usize {
    let row_bytes = 16 * n * n;
    (POOL_MAX_ROW_BYTES / row_bytes.max(1)).clamp(POOL_MIN_ENTRIES, POOL_MAX_ENTRIES)
}

/// A successfully evaluated topology and its routing.
#[derive(Debug)]
struct Anchor {
    /// The evaluated chromosome.
    topology: AdjacencyMatrix,
    /// Its routing: the rows repairs start from, and the cached per-source
    /// prices unaffected sources keep.
    routing: RoutingState,
    /// Its total cost (returned directly for duplicate candidates).
    total: f64,
    /// The session clock when it was last used; the pool evicts the
    /// smallest.
    used: u64,
}

impl Anchor {
    fn empty() -> Self {
        Self {
            topology: AdjacencyMatrix::empty(0),
            routing: RoutingState::new(),
            total: 0.0,
            used: 0,
        }
    }
}

/// Reusable buffers; everything grows on first use and is reused across
/// evaluations.
#[derive(Debug, Default)]
struct Scratch {
    /// The candidate's adjacency; swapped into its anchor on commit.
    csr: Csr,
    deleted: Vec<(usize, usize)>,
    inserted: Vec<(usize, usize, f64)>,
    repair: TreeRepair,
    /// Repaired rows and flags of the affected sources, staged until
    /// every one of them prices successfully.
    rdist: Vec<f64>,
    rparent: Vec<usize>,
    rtie_free: Vec<bool>,
    affected: Vec<usize>,
}

/// An incremental evaluation session: the delta-aware counterpart of
/// [`CostEvaluator`](crate::CostEvaluator).
///
/// One `DeltaEval` serves one worker thread. [`eval`](Self::eval) decides
/// per candidate whether to repair a pooled anchor's shortest-path trees
/// or to re-route from scratch; either way the returned total is
/// bit-identical to [`evaluate_total`](crate::evaluate_total), so using a
/// `DeltaEval` can change *how much work* an optimization does but never
/// *what it computes*.
#[derive(Debug)]
pub struct DeltaEval<'a> {
    ctx: &'a Context,
    params: CostParams,
    /// Candidates differing from every pooled anchor by more than this
    /// many pairs are evaluated from scratch.
    max_flips: usize,
    /// Recently evaluated topologies, at most `capacity` of them.
    pool: Vec<Anchor>,
    capacity: usize,
    /// The current anchor: the pool entry used last.
    current: usize,
    /// Whether the last evaluation priced its topology, so the current
    /// anchor holds that topology's routing.
    priced: bool,
    /// The next full pass or repair is built here; it joins the pool only
    /// on success, so a failure leaves every pooled anchor intact.
    spare: Anchor,
    /// Advances once per evaluation and once per commit.
    clock: u64,
    scratch: Scratch,
    delta_evals: usize,
    full_evals: usize,
    reanchors: usize,
    rerouted_sources: usize,
    arcs_scanned: u64,
}

impl<'a> DeltaEval<'a> {
    /// Creates a session that repairs from anchors at most
    /// `max_flips = 32` pairs away.
    ///
    /// However many sources a diff touches, their repairs cost far less
    /// than a full pass as long as the orphaned regions are local, which
    /// single-edge GA moves keep true even when *most* sources are
    /// touched (a deleted MST edge reroutes a couple of leaves in nearly
    /// every tree), so the touched count is not bounded.
    pub fn new(ctx: &'a Context, params: CostParams) -> Self {
        Self::with_limits(ctx, params, 32)
    }

    /// Creates a session that repairs from anchors at most `max_flips`
    /// (≥ 1) pairs away.
    pub fn with_limits(ctx: &'a Context, params: CostParams, max_flips: usize) -> Self {
        params.validate().expect("invalid cost params");
        assert!(max_flips >= 1, "max_flips must be >= 1");
        Self {
            ctx,
            params,
            max_flips,
            pool: Vec::new(),
            capacity: pool_capacity(ctx.n()),
            current: 0,
            priced: false,
            spare: Anchor::empty(),
            clock: 0,
            scratch: Scratch::default(),
            delta_evals: 0,
            full_evals: 0,
            reanchors: 0,
            rerouted_sources: 0,
            arcs_scanned: 0,
        }
    }

    /// The context this session prices in.
    pub fn ctx(&self) -> &'a Context {
        self.ctx
    }

    /// Evaluations answered from a pooled anchor: a tree repair, or a
    /// duplicate of a pooled topology.
    pub fn delta_evals(&self) -> usize {
        self.delta_evals
    }

    /// Evaluations answered by a full from-scratch pass.
    pub fn full_evals(&self) -> usize {
        self.full_evals
    }

    /// Delta evaluations that started from a pooled anchor other than
    /// the current one (a subset of [`delta_evals`](Self::delta_evals)).
    pub fn reanchors(&self) -> usize {
        self.reanchors
    }

    /// Sources whose tree repair re-ran Dijkstra (the tree had a tie, or
    /// a repaired node several shortest predecessors). Added once per
    /// evaluation.
    pub fn rerouted_sources(&self) -> usize {
        self.rerouted_sources
    }

    /// Arcs read by this session's shortest-path work: `n · 2|E|` per
    /// full pass (every source's Dijkstra reads every arc of a connected
    /// graph), and per repair what [`TreeRepair::run`] reports. Added
    /// once per evaluation; unlike wall-clock time, it does not depend on
    /// host load.
    pub fn arcs_scanned(&self) -> u64 {
        self.arcs_scanned
    }

    /// The routing of the topology the last [`eval`](Self::eval) priced:
    /// the current anchor's, whose rows and tie-free flags equal a fresh
    /// [`RoutingState::build`]'s on that topology. `None` before the first
    /// evaluation and after one that failed or returned an injected fault.
    pub fn routing(&self) -> Option<&RoutingState> {
        self.priced.then(|| &self.pool[self.current].routing)
    }

    /// Cost of `topology`, bit-identical to
    /// [`evaluate_total`](crate::evaluate_total).
    ///
    /// The session finds the pooled anchor nearest `topology` (at most
    /// `max_flips` pairs away; ties go to the most recently used) and
    /// repairs a copy of its rows, or answers a duplicate with its pooled
    /// total; with no such anchor it runs a full pass. `_base`, a lineage
    /// hint, is ignored: the pool finds evaluated ancestors itself.
    ///
    /// # Errors
    /// As for [`evaluate_total`](crate::evaluate_total): disconnection
    /// under positive demand, or a node-count mismatch. Errors never
    /// corrupt a pooled anchor — the session stays usable.
    pub fn eval(
        &mut self,
        topology: &AdjacencyMatrix,
        _base: Option<&AdjacencyMatrix>,
    ) -> Result<f64, GraphError> {
        self.priced = false;
        // Sessions are a drop-in replacement for the stateless path, so
        // chaos scenarios armed against `eval.*` fire here too.
        if let Some(nan) = injected_fault() {
            return Ok(nan);
        }
        let _timer = cold_obs::timer("cost.evaluate_total");
        // Attribute this evaluation's wall time to the delta or full
        // histogram depending on which path actually resolved it.
        let start = if cold_obs::timers_enabled() { Some(std::time::Instant::now()) } else { None };
        let observe = |path: &'static str, start: Option<std::time::Instant>| {
            if let Some(start) = start {
                cold_obs::observe_seconds(path, start.elapsed().as_secs_f64());
            }
        };
        if topology.n() != self.ctx.n() {
            return Err(GraphError::SizeMismatch { expected: self.ctx.n(), actual: topology.n() });
        }
        self.clock += 1;
        if let Some((src, flips)) = self.nearest(topology)? {
            let total =
                if flips == 0 { self.pool[src].total } else { self.try_repair(src, topology)? };
            if src != self.current {
                self.reanchors += 1;
            }
            self.pool[src].used = self.clock;
            self.current = src;
            if flips > 0 {
                self.commit();
            }
            self.delta_evals += 1;
            self.priced = true;
            observe("cost.eval_delta_seconds", start);
            return Ok(total);
        }
        let total = self.full_pass(topology)?;
        self.commit();
        self.full_evals += 1;
        self.priced = true;
        observe("cost.eval_full_seconds", start);
        Ok(total)
    }

    /// The pooled anchor nearest `topology`, at most `max_flips` pairs
    /// away, as `(index, distance)`; ties go to the most recently used.
    fn nearest(&self, topology: &AdjacencyMatrix) -> Result<Option<(usize, usize)>, GraphError> {
        let mut best: Option<(usize, usize)> = None;
        for (i, anchor) in self.pool.iter().enumerate() {
            let limit = best.map_or(self.max_flips, |(_, d)| d);
            if let Some(d) = topology.hamming_up_to(&anchor.topology, limit)? {
                if best.is_none_or(|(b, bd)| d < bd || anchor.used > self.pool[b].used) {
                    best = Some((i, d));
                }
            }
        }
        Ok(best)
    }

    /// Moves the spare into the pool as the current anchor. A full pool
    /// evicts its least recently used entry, whose buffers become the
    /// next spare, so a warmed-up session stops allocating anchors.
    fn commit(&mut self) {
        self.clock += 1;
        self.spare.used = self.clock;
        if self.pool.len() < self.capacity {
            self.pool.push(std::mem::replace(&mut self.spare, Anchor::empty()));
            self.current = self.pool.len() - 1;
        } else {
            let lru = (0..self.pool.len())
                .min_by_key(|&i| self.pool[i].used)
                .expect("the pool holds at least two anchors");
            std::mem::swap(&mut self.pool[lru], &mut self.spare);
            self.current = lru;
        }
    }

    /// Full evaluation into the spare — the [`RoutingState::build`] of
    /// [`evaluate_total`](crate::evaluate_total).
    fn full_pass(&mut self, topology: &AdjacencyMatrix) -> Result<f64, GraphError> {
        let spare = &mut self.spare;
        spare.routing.build(topology, self.ctx.distance_fn(), self.ctx.traffic_fn())?;
        spare.topology.clone_from(topology);
        spare.total = CostBreakdown::of(&spare.routing, &self.params).total();
        self.arcs_scanned += (topology.n() * 2 * topology.edge_count()) as u64;
        Ok(spare.total)
    }

    /// Repairs pooled anchor `src` toward `child` into the spare, leaving
    /// `src` itself untouched.
    fn try_repair(&mut self, src: usize, child: &AdjacencyMatrix) -> Result<f64, GraphError> {
        let source = &self.pool[src];
        let n = child.n();
        let dist_fn = self.ctx.distance_fn();
        let s = &mut self.scratch;
        s.deleted.clear();
        s.inserted.clear();
        for (u, v) in child.diff_pairs(&source.topology) {
            if child.has_edge(u, v) {
                s.inserted.push((u, v, dist_fn(u, v)));
            } else {
                s.deleted.push((u, v));
            }
        }

        // Which sources do the flips touch? A deleted edge does iff it is
        // a tree edge, or, in a tree with a tie, a shortest-predecessor
        // link (its loss can untie a node). An inserted edge does iff it
        // improves or ties a label. Every other source keeps its rows and
        // flag, which a fresh build would reproduce.
        let routing = &source.routing;
        let tight =
            |row: &[f64], u: usize, v: usize, w: f64| row[u] + w <= row[v] || row[v] + w <= row[u];
        s.affected.clear();
        for src in 0..n {
            let (row, par) = (routing.dist(src), routing.parent(src));
            let tie_free = routing.tie_free(src);
            let touched = s.deleted.iter().any(|&(u, v)| {
                par[v] == u || par[u] == v || (!tie_free && tight(row, u, v, dist_fn(u, v)))
            }) || s.inserted.iter().any(|&(u, v, w)| tight(row, u, v, w));
            if touched {
                s.affected.push(src);
            }
        }

        s.csr.build_matrix(child, dist_fn);
        s.rdist.clear();
        s.rparent.clear();
        s.rtie_free.clear();
        for &src in &s.affected {
            s.rdist.extend_from_slice(routing.dist(src));
            s.rparent.extend_from_slice(routing.parent(src));
            s.rtie_free.push(routing.tie_free(src));
        }
        let diff = EdgeDiff { deleted: &s.deleted, inserted: &s.inserted };
        let (mut arcs, mut rerouted) = (0, 0);
        for (k, &src) in s.affected.iter().enumerate() {
            let repaired = s.repair.run(
                &s.csr,
                diff,
                src,
                &mut s.rdist[k * n..(k + 1) * n],
                &mut s.rparent[k * n..(k + 1) * n],
                &mut s.rtie_free[k],
            );
            arcs += repaired.arcs;
            rerouted += usize::from(!repaired.in_place);
        }
        // The spare takes a copy of the source's rows; only repaired rows
        // that all price successfully replace them.
        let spare = &mut self.spare;
        spare.routing.clone_from(routing);
        spare.routing.replace_rows(
            &mut s.csr,
            &s.affected,
            &s.rdist,
            &s.rparent,
            &s.rtie_free,
            self.ctx.traffic_fn(),
        )?;
        spare.topology.clone_from(child);
        spare.total = CostBreakdown::of(&spare.routing, &self.params).total();
        self.arcs_scanned += arcs as u64;
        self.rerouted_sources += rerouted;
        Ok(spare.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::evaluate_total;
    use cold_context::ContextConfig;
    use cold_graph::components::matrix_is_connected;
    use cold_graph::mst::mst_matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ctx(n: usize, seed: u64) -> Context {
        ContextConfig::paper_default(n).generate(seed)
    }

    /// Flips one random pair, preferring flips that keep the topology
    /// connected; returns the flipped pair index.
    fn random_connected_flip(topo: &mut AdjacencyMatrix, rng: &mut StdRng) -> usize {
        loop {
            let pair = rng.gen_range(0..topo.pair_count());
            let had = topo.bit(pair);
            topo.set_bit(pair, !had);
            if !had || matrix_is_connected(topo) {
                return pair;
            }
            topo.set_bit(pair, true); // removal disconnected; try again
        }
    }

    #[test]
    fn full_path_matches_evaluate_total_bit_for_bit() {
        let ctx = ctx(10, 3);
        let params = CostParams::paper(4e-4, 10.0);
        let mut de = DeltaEval::new(&ctx, params);
        let mst = mst_matrix(10, ctx.distance_fn());
        let clique = AdjacencyMatrix::complete(10);
        for topo in [&mst, &clique, &mst] {
            let full = evaluate_total(topo, &ctx, &params).unwrap();
            // Force the full path by emptying the pool each time.
            de.pool.clear();
            assert_eq!(de.eval(topo, None).unwrap(), full);
        }
        assert_eq!(de.full_evals(), 3);
        assert_eq!(de.delta_evals(), 0);
    }

    #[test]
    fn mutation_chain_is_bit_identical_to_full_reevaluation() {
        let ctx = ctx(14, 7);
        let params = CostParams::paper(2e-4, 6.0);
        let mut de = DeltaEval::new(&ctx, params);
        let mut topo = mst_matrix(14, ctx.distance_fn());
        let mut rng = StdRng::seed_from_u64(11);
        for step in 0..60 {
            let prev = topo.clone();
            random_connected_flip(&mut topo, &mut rng);
            let expected = evaluate_total(&topo, &ctx, &params).unwrap();
            let got = de.eval(&topo, Some(&prev)).unwrap();
            assert_eq!(got, expected, "step {step} diverged from the full evaluation");
        }
        assert!(de.delta_evals() >= 50, "chain of single flips must mostly delta");
    }

    #[test]
    fn duplicate_of_anchor_is_served_from_cached_total() {
        let ctx = ctx(8, 1);
        let params = CostParams::paper(1e-4, 10.0);
        let mut de = DeltaEval::new(&ctx, params);
        let topo = mst_matrix(8, ctx.distance_fn());
        let a = de.eval(&topo, None).unwrap();
        let b = de.eval(&topo, None).unwrap();
        assert_eq!(a, b);
        assert_eq!(de.full_evals(), 1);
        assert_eq!(de.delta_evals(), 1, "zero-flip duplicate counts as a delta");
    }

    #[test]
    fn oversized_diff_falls_back_to_full_evaluation() {
        let ctx = ctx(9, 5);
        let params = CostParams::paper(1e-4, 10.0);
        let mut de = DeltaEval::with_limits(&ctx, params, 2);
        let mst = mst_matrix(9, ctx.distance_fn());
        let clique = AdjacencyMatrix::complete(9);
        de.eval(&mst, None).unwrap();
        // MST → clique differs by far more than 2 pairs.
        let expected = evaluate_total(&clique, &ctx, &params).unwrap();
        assert_eq!(de.eval(&clique, None).unwrap(), expected);
        assert_eq!(de.full_evals(), 2);
        assert_eq!(de.delta_evals(), 0);
    }

    #[test]
    fn pooled_parent_reanchors_siblings_that_drifted_from_the_anchor() {
        let ctx = ctx(10, 13);
        let params = CostParams::paper(1e-4, 10.0);
        // max_flips = 1: two different single-flip children of the same
        // parent differ from each other by 2 > 1, so the second child can
        // only be delta-evaluated from the parent, which is no longer the
        // current anchor but is still pooled.
        let mut de = DeltaEval::with_limits(&ctx, params, 1);
        let parent = AdjacencyMatrix::complete(10);
        de.eval(&parent, None).unwrap();
        let mut child_a = parent.clone();
        child_a.set_edge(0, 1, false);
        let mut child_b = parent.clone();
        child_b.set_edge(2, 3, false);
        let ea = evaluate_total(&child_a, &ctx, &params).unwrap();
        let eb = evaluate_total(&child_b, &ctx, &params).unwrap();
        assert_eq!(de.eval(&child_a, None).unwrap().to_bits(), ea.to_bits());
        assert_eq!(de.reanchors(), 0, "child_a repairs from the current anchor");
        assert_eq!(de.eval(&child_b, None).unwrap().to_bits(), eb.to_bits());
        assert_eq!(de.delta_evals(), 2, "both children delta-evaluate");
        assert_eq!(de.full_evals(), 1, "only the parent took a full pass");
        assert_eq!(de.reanchors(), 1, "child_b re-anchored on the pooled parent");
    }

    #[test]
    fn duplicate_of_a_pooled_older_topology_runs_no_pass() {
        let ctx = ctx(10, 8);
        let params = CostParams::paper(2e-4, 5.0);
        let mut de = DeltaEval::with_limits(&ctx, params, 1);
        let mst = mst_matrix(10, ctx.distance_fn());
        let clique = AdjacencyMatrix::complete(10);
        let first = de.eval(&mst, None).unwrap();
        de.eval(&clique, None).unwrap();
        assert_eq!((de.full_evals(), de.pool.len()), (2, 2));
        let again = de.eval(&mst, None).unwrap();
        assert_eq!(again.to_bits(), first.to_bits());
        assert_eq!(de.full_evals(), 2, "no full pass");
        assert_eq!((de.delta_evals(), de.reanchors()), (1, 1));
        assert_eq!(de.pool.len(), 2, "no repair committed a new anchor");
    }

    #[test]
    fn a_failed_repair_leaves_its_pooled_anchor_usable() {
        let ctx = ctx(10, 4);
        let params = CostParams::paper(1e-4, 10.0);
        let mut de = DeltaEval::with_limits(&ctx, params, 1);
        let tree = mst_matrix(10, ctx.distance_fn());
        de.eval(&tree, None).unwrap();
        de.eval(&AdjacencyMatrix::complete(10), None).unwrap();
        // One flip from the pooled (not current) tree: cutting a tree
        // edge disconnects it, so the repair from the tree fails.
        let (u, v) = tree.edges().next().unwrap();
        let mut cut = tree.clone();
        cut.set_edge(u, v, false);
        assert!(matches!(de.eval(&cut, None), Err(GraphError::Disconnected)));
        let (delta, full) = (de.delta_evals(), de.full_evals());
        // A connected one-flip child of the tree still repairs from it.
        let mut child = tree.clone();
        let (a, b) = (0..10)
            .flat_map(|a| (a + 1..10).map(move |b| (a, b)))
            .find(|&(a, b)| !tree.has_edge(a, b))
            .unwrap();
        child.set_edge(a, b, true);
        let expected = evaluate_total(&child, &ctx, &params).unwrap();
        assert_eq!(de.eval(&child, None).unwrap().to_bits(), expected.to_bits());
        assert_eq!((de.delta_evals(), de.full_evals()), (delta + 1, full));
    }

    #[test]
    fn an_evicted_anchors_child_falls_back_to_a_full_pass() {
        let ctx = ctx(20, 5);
        let params = CostParams::paper(1e-4, 10.0);
        let mut de = DeltaEval::with_limits(&ctx, params, 1);
        let clique = AdjacencyMatrix::complete(20);
        // The clique minus pairs 2i and 2i + 1: any two of these are four
        // flips apart, so with max_flips = 1 each takes a full pass.
        let minus = |i: usize| {
            let mut t = clique.clone();
            t.set_bit(2 * i, false);
            t.set_bit(2 * i + 1, false);
            t
        };
        let first = minus(0);
        de.eval(&first, None).unwrap();
        for i in 1..=de.capacity {
            de.eval(&minus(i), None).unwrap();
        }
        assert_eq!(de.full_evals(), de.capacity + 1);
        assert_eq!(de.pool.len(), de.capacity, "the pool stays at its bound");
        // One flip from the evicted first anchor, three from every pooled one.
        let mut child = first.clone();
        child.set_bit(0, true);
        let expected = evaluate_total(&child, &ctx, &params).unwrap();
        assert_eq!(de.eval(&child, None).unwrap().to_bits(), expected.to_bits());
        assert_eq!(de.full_evals(), de.capacity + 2, "the evicted anchor cannot serve");
        assert_eq!(de.delta_evals(), 0);
    }

    #[test]
    fn routing_is_the_last_priced_topologys_and_none_after_a_failure() {
        let ctx = ctx(8, 9);
        let params = CostParams::paper(1e-4, 10.0);
        let mut de = DeltaEval::new(&ctx, params);
        assert!(de.routing().is_none(), "nothing priced yet");
        let tree = mst_matrix(8, ctx.distance_fn());
        let mut fresh = RoutingState::new();
        let mut ring = tree.clone();
        ring.set_edge(0, 7, !tree.has_edge(0, 7));
        // A full pass, a repair and a duplicate each leave their own rows.
        for topo in [&tree, &ring, &tree] {
            de.eval(topo, None).unwrap();
            fresh.build(topo, ctx.distance_fn(), ctx.traffic_fn()).unwrap();
            let routing = de.routing().unwrap();
            assert_eq!(routing.weighted().to_bits(), fresh.weighted().to_bits());
            for s in 0..8 {
                assert_eq!(routing.parent(s), fresh.parent(s));
            }
        }
        let (u, v) = tree.edges().next().unwrap();
        let mut cut = tree.clone();
        cut.set_edge(u, v, false);
        assert!(de.eval(&cut, None).is_err());
        assert!(de.routing().is_none(), "a failed evaluation priced nothing");
    }

    #[test]
    fn pool_bounds_hold_at_every_size() {
        assert_eq!(pool_capacity(0), POOL_MAX_ENTRIES);
        assert_eq!(pool_capacity(30), POOL_MAX_ENTRIES);
        assert_eq!(pool_capacity(200), (16 << 20) / (16 * 200 * 200));
        assert_eq!(pool_capacity(5000), POOL_MIN_ENTRIES);
        for n in [1, 50, 150, 300, 1000] {
            let cap = pool_capacity(n);
            assert!((POOL_MIN_ENTRIES..=POOL_MAX_ENTRIES).contains(&cap));
            assert!(cap == POOL_MIN_ENTRIES || cap * 16 * n * n <= POOL_MAX_ROW_BYTES);
        }
    }

    #[test]
    fn disconnection_is_an_error_and_the_session_stays_usable() {
        let ctx = ctx(8, 2);
        let params = CostParams::paper(1e-4, 10.0);
        let mut de = DeltaEval::new(&ctx, params);
        let mut topo = mst_matrix(8, ctx.distance_fn());
        let before = de.eval(&topo, None).unwrap();
        // Disconnect a leaf: positive gravity demand makes this an error.
        let leaf_edge = topo.edges().next().unwrap();
        let prev = topo.clone();
        topo.set_edge(leaf_edge.0, leaf_edge.1, false);
        if !matrix_is_connected(&topo) {
            assert!(matches!(de.eval(&topo, Some(&prev)), Err(GraphError::Disconnected)));
        }
        // The anchor survived: re-evaluating the known topology agrees.
        assert_eq!(de.eval(&prev, None).unwrap(), before);
        let wrong_n = AdjacencyMatrix::complete(9);
        assert!(matches!(
            de.eval(&wrong_n, None),
            Err(GraphError::SizeMismatch { expected: 8, actual: 9 })
        ));
    }

    #[test]
    fn a_failed_full_pass_leaves_the_anchor_intact() {
        let ctx = ctx(10, 6);
        let params = CostParams::paper(1e-4, 10.0);
        // max_flips = 1: the disconnected candidate below is two flips from
        // the anchor and has no base, so only a full pass can answer it.
        let mut de = DeltaEval::with_limits(&ctx, params, 1);
        let anchor = mst_matrix(10, ctx.distance_fn());
        de.eval(&anchor, None).unwrap();
        let mut cut = anchor.clone();
        for (u, v) in anchor.edges().take(2) {
            cut.set_edge(u, v, false);
        }
        assert!(matches!(de.eval(&cut, None), Err(GraphError::Disconnected)));
        assert_eq!(de.full_evals(), 1, "only the anchor's full pass succeeded");
        // A one-flip child of the old anchor still repairs from its rows.
        let mut child = anchor.clone();
        child.set_edge(0, 9, !anchor.has_edge(0, 9));
        let expected = evaluate_total(&child, &ctx, &params).unwrap();
        assert_eq!(de.eval(&child, None).unwrap().to_bits(), expected.to_bits());
        assert_eq!(de.delta_evals(), 1, "the child must be a delta eval");
    }

    #[test]
    fn repairs_handle_coincident_pops_and_zero_length_edges() {
        use cold_context::gravity::GravityModel;
        use cold_context::population::PopulationKind;
        use cold_context::region::Point;
        // Nodes 1 and 2 coincide → zero-length edge; repairs must keep
        // the equal-distance tie handling of the full run.
        let ctx = Context::from_positions(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 1.0),
                Point::new(0.0, 2.0),
            ],
            PopulationKind::Constant { value: 1.0 },
            GravityModel::raw(),
            0,
        );
        let params = CostParams::new(1.0, 1.0, 0.5, 2.0);
        let mut de = DeltaEval::new(&ctx, params);
        let mut topo = mst_matrix(5, ctx.distance_fn());
        let mut rng = StdRng::seed_from_u64(21);
        de.eval(&topo, None).unwrap();
        for _ in 0..40 {
            let prev = topo.clone();
            random_connected_flip(&mut topo, &mut rng);
            let expected = evaluate_total(&topo, &ctx, &params).unwrap();
            assert_eq!(de.eval(&topo, Some(&prev)).unwrap(), expected);
        }
    }

    /// A context of `n` PoPs drawn by `layout`: 0 the paper's, 1 an exact
    /// square grid (equal-cost paths everywhere), 2 free positions where
    /// every fifth PoP coincides with an earlier one (zero-length links).
    fn layout_ctx(layout: u8, n: usize, seed: u64) -> Context {
        use cold_context::gravity::GravityModel;
        use cold_context::population::PopulationKind;
        use cold_context::region::Point;
        if layout == 0 {
            return ctx(n, seed);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let side = (n as f64).sqrt().ceil() as usize;
        let mut points: Vec<Point> = match layout {
            1 => (0..n).map(|i| Point::new((i % side) as f64, (i / side) as f64)).collect(),
            _ => (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
                .collect(),
        };
        if layout == 2 {
            for i in (0..n).step_by(5).skip(1) {
                points[i] = points[rng.gen_range(0..i)];
            }
        }
        Context::from_positions(
            points,
            PopulationKind::Exponential { mean: 30.0 },
            GravityModel::raw(),
            seed,
        )
    }

    #[test]
    fn every_anchor_holds_the_rows_and_flags_of_a_fresh_build() {
        // After every evaluation of an 80-flip chain the current anchor's
        // rows equal a fresh `RoutingState::build` (distances by bits,
        // parents exactly) and so do its tie-free flags. Paper contexts
        // have no ties, so every repair stays in place; the grid and the
        // coincident PoPs send some sources to Dijkstra.
        let params = CostParams::paper(2e-4, 6.0);
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for layout in 0..3u8 {
            let mut rerouted = 0;
            for seed in 0..3u64 {
                let ctx = layout_ctx(layout, 25, seed);
                let mut de = DeltaEval::new(&ctx, params);
                let mut topo = mst_matrix(25, ctx.distance_fn());
                let mut rng = StdRng::seed_from_u64(seed ^ 0xa7c4);
                let mut fresh = RoutingState::new();
                for step in 0..80 {
                    random_connected_flip(&mut topo, &mut rng);
                    let total = de.eval(&topo, None).unwrap();
                    let expected = evaluate_total(&topo, &ctx, &params).unwrap();
                    assert_eq!(total.to_bits(), expected.to_bits());
                    fresh.build(&topo, ctx.distance_fn(), ctx.traffic_fn()).unwrap();
                    let anchor = &de.pool[de.current];
                    assert_eq!(anchor.topology, topo);
                    let row = de.routing().expect("the evaluation priced its topology");
                    assert!(std::ptr::eq(row, &anchor.routing));
                    let case = format!("layout {layout} seed {seed} step {step}");
                    for s in 0..25 {
                        assert_eq!(bits(row.dist(s)), bits(fresh.dist(s)), "{case}: dist {s}");
                        assert_eq!(row.parent(s), fresh.parent(s), "{case}: parent {s}");
                        assert_eq!(row.tie_free(s), fresh.tie_free(s), "{case}: flag {s}");
                    }
                }
                assert!(de.delta_evals() >= 70, "the chain must mostly repair");
                rerouted += de.rerouted_sources();
            }
            if layout == 0 {
                assert_eq!(rerouted, 0, "paper contexts repair every source in place");
            } else {
                assert!(rerouted > 0, "layout {layout} has ties");
            }
        }
    }
}
