//! Incremental (delta) objective evaluation for large-`n` synthesis.
//!
//! The GA's runtime is dominated by all-pairs shortest paths: every
//! offspring re-routes the full traffic matrix even though mutation flips
//! only ~2 links and late-stage crossover children differ from their
//! parents by a handful of pairs. [`DeltaEval`] exploits that locality:
//! it keeps the [`RoutingState`] (per-source distance and parent rows and
//! priced demand) of the **anchor** — the last successfully evaluated
//! topology — and, given the next candidate, repairs only the
//! shortest-path trees the flipped edges actually touch, re-prices only
//! the rerouted demand, and falls back to a full pass (the
//! [`RoutingState::build`] of [`evaluate_total`](crate::evaluate_total))
//! when the dirty set exceeds its thresholds. A full pass builds into a
//! spare state that becomes the anchor only on success, so a failed one
//! leaves the anchor intact.
//!
//! # Bit-identity
//!
//! Delta evaluation is an optimization, not an approximation: every total
//! it returns is **bit-identical** to [`evaluate_total`](crate::evaluate_total) on the same
//! topology. Three facts make that exact, not merely close:
//!
//! 1. *Distances are schedule-independent.* Dijkstra labels are left-fold
//!    sums `((0 ⊕ w₁) ⊕ w₂) ⊕ …` of real path weights, and float addition
//!    is monotone on non-negatives. Any relaxation process whose labels
//!    are always fold-sums of real paths and which terminates at the
//!    relaxation fixpoint (`dist[v] ≤ dist[u] ⊕ w` for every edge)
//!    computes exactly the minimum fold-sum per vertex — independent of
//!    relaxation order, neighbor order, or whether it started from
//!    scratch or from a repaired previous tree. The repair below
//!    terminates at that fixpoint, so its rows equal a fresh run's rows
//!    bit for bit.
//! 2. *Per-source pricing shares one loop.* Repaired rows are committed
//!    through [`RoutingState::replace_rows`], which prices each repaired
//!    source with the loop `build` uses and refolds the per-source terms
//!    in ascending source order — the same summation tree as the full
//!    pass.
//! 3. *The remaining terms are recomputed.* `k0·|E|`, `k1·Σℓ` and
//!    `k3·hubs` are cheap (O(m + n)) and priced from the committed state
//!    by the one tail [`evaluate_total`](crate::evaluate_total) uses.
//!
//! # Repair algorithm
//!
//! For each source `s` whose tree is touched (a deleted edge is one of
//! its tree edges, or an inserted edge strictly shortens some label):
//!
//! 1. **Orphan** the subtree below every deleted tree edge (memoized
//!    parent walks — O(n)); orphans get `dist = ∞`.
//! 2. **Seed** every orphan from its non-orphan neighbors in the *new*
//!    graph, and relax inserted edges between non-orphans (strict `<`).
//! 3. **Propagate** with a lazy-deletion min-heap until quiescent.
//!
//! Non-orphan labels never need to grow (their tree paths survive the
//! deletion by construction), so decrease-only relaxation reaches the
//! fixpoint. Sources the flips don't touch keep their rows and their
//! cached per-source price untouched.

use crate::cost::{injected_fault, CostBreakdown};
use crate::params::CostParams;
use cold_context::Context;
use cold_graph::routing::{Csr, RoutingState};
use cold_graph::shortest_path::HeapItem;
use cold_graph::{AdjacencyMatrix, GraphError};
use std::collections::BinaryHeap;

/// The last successfully evaluated topology and its routing.
#[derive(Debug, Clone)]
struct Anchor {
    /// The evaluated chromosome.
    topology: AdjacencyMatrix,
    /// Its routing: the rows repairs start from, and the cached per-source
    /// prices unaffected sources keep.
    routing: RoutingState,
    /// The anchor's total cost (returned directly for duplicate
    /// candidates).
    total: f64,
}

/// Reusable buffers; everything grows on first use and is reused across
/// evaluations.
#[derive(Debug, Default)]
struct Scratch {
    /// A full pass builds here and swaps with the anchor on success.
    spare: RoutingState,
    /// The candidate's adjacency; swapped into the anchor on commit.
    csr: Csr,
    /// Per-vertex repair status: 0 unknown, 1 keeps its label, 2 orphan.
    status: Vec<u8>,
    chain: Vec<usize>,
    heap: BinaryHeap<HeapItem>,
    /// Repaired rows of the affected sources, staged until every one of
    /// them prices successfully.
    rdist: Vec<f64>,
    rparent: Vec<usize>,
    affected: Vec<usize>,
}

/// An incremental evaluation session: the delta-aware counterpart of
/// [`CostEvaluator`](crate::CostEvaluator).
///
/// One `DeltaEval` serves one worker thread. [`eval`](Self::eval) decides
/// per candidate whether to repair the anchor's shortest-path trees or to
/// re-route from scratch; either way the returned total is bit-identical
/// to [`evaluate_total`](crate::evaluate_total), so using a `DeltaEval`
/// can change *how much work* an optimization does but never *what it
/// computes*.
#[derive(Debug)]
pub struct DeltaEval<'a> {
    ctx: &'a Context,
    params: CostParams,
    /// Candidates differing from the anchor (or the base hint) by more
    /// than this many pairs are evaluated from scratch.
    max_flips: usize,
    /// Fall back to a full pass when more than this many sources need
    /// repair — beyond that, n fresh Dijkstras are cheaper than the
    /// bookkeeping.
    max_affected: usize,
    anchor: Option<Anchor>,
    scratch: Scratch,
    delta_evals: usize,
    full_evals: usize,
    reanchors: usize,
}

impl<'a> DeltaEval<'a> {
    /// Creates a session with default thresholds: `max_flips = 32` and
    /// `max_affected = n` (the affected-count guard never fires; only
    /// oversized diffs force a full pass).
    ///
    /// Repairing a source tree costs far less than a fresh Dijkstra as
    /// long as the orphaned region is local — which single-edge GA moves
    /// keep true even when *most* sources are touched (a deleted MST
    /// edge reroutes a couple of leaves in nearly every tree). Measured
    /// on mutation chains at n = 200, capping at n/2 forced ~30% of
    /// steps to a full pass and halved throughput; the affected count is
    /// a poor proxy for repair cost, so the default no longer bounds it.
    pub fn new(ctx: &'a Context, params: CostParams) -> Self {
        params.validate().expect("invalid cost params");
        let n = ctx.n();
        Self::with_limits(ctx, params, 32, n.max(1))
    }

    /// Creates a session with explicit fallback thresholds (both ≥ 1).
    pub fn with_limits(
        ctx: &'a Context,
        params: CostParams,
        max_flips: usize,
        max_affected: usize,
    ) -> Self {
        params.validate().expect("invalid cost params");
        assert!(max_flips >= 1 && max_affected >= 1, "thresholds must be >= 1");
        Self {
            ctx,
            params,
            max_flips,
            max_affected,
            anchor: None,
            scratch: Scratch::default(),
            delta_evals: 0,
            full_evals: 0,
            reanchors: 0,
        }
    }

    /// Evaluations answered by tree repair (including zero-flip
    /// duplicates of the anchor).
    pub fn delta_evals(&self) -> usize {
        self.delta_evals
    }

    /// Evaluations answered by a full from-scratch pass.
    pub fn full_evals(&self) -> usize {
        self.full_evals
    }

    /// Internal anchor rebuilds triggered by a base hint (not counted in
    /// either request counter; their all-pairs work is attributed to the
    /// delta request that triggered them).
    pub fn reanchors(&self) -> usize {
        self.reanchors
    }

    /// Cost of `topology`, bit-identical to
    /// [`evaluate_total`](crate::evaluate_total).
    ///
    /// `base` is an optional lineage hint: the topology `topology` was
    /// derived from (its parent in the GA). When the candidate has
    /// drifted too far from the anchor but sits close to `base`, the
    /// session re-anchors on `base` (one internal full pass) and repairs
    /// from there — the pattern a converged population's offspring
    /// produce.
    ///
    /// # Errors
    /// As for [`evaluate_total`](crate::evaluate_total): disconnection
    /// under positive demand, or a node-count mismatch. Errors never
    /// corrupt the anchor — the session stays usable.
    pub fn eval(
        &mut self,
        topology: &AdjacencyMatrix,
        base: Option<&AdjacencyMatrix>,
    ) -> Result<f64, GraphError> {
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
        if self.anchor.is_some() {
            if let Some(total) = self.try_delta(topology)? {
                self.delta_evals += 1;
                observe("cost.eval_delta_seconds", start);
                return Ok(total);
            }
            // Too far from the anchor. If the candidate is close to its
            // declared parent, rebuild the anchor there and retry; a
            // parent that fails to anchor (it should always be a
            // previously evaluated, connected topology) simply drops
            // through to the full pass.
            if let Some(b) = base {
                let near_base = b != &self.anchor.as_ref().expect("anchor checked").topology
                    && topology.diff_pairs_up_to(b, self.max_flips)?.is_some();
                if near_base && self.full_anchor(b).is_ok() {
                    self.reanchors += 1;
                    if let Some(total) = self.try_delta(topology)? {
                        self.delta_evals += 1;
                        observe("cost.eval_delta_seconds", start);
                        return Ok(total);
                    }
                }
            }
        }
        let total = self.full_anchor(topology)?;
        self.full_evals += 1;
        observe("cost.eval_full_seconds", start);
        Ok(total)
    }

    /// Full evaluation that also (re)builds the anchor — the
    /// [`RoutingState::build`] of [`evaluate_total`](crate::evaluate_total),
    /// into the spare state, which replaces the anchor only on success.
    fn full_anchor(&mut self, topology: &AdjacencyMatrix) -> Result<f64, GraphError> {
        let routing = &mut self.scratch.spare;
        routing.build(&topology.to_graph(), self.ctx.distance_fn(), self.ctx.traffic_fn())?;
        let total = CostBreakdown::of(routing, &self.params).total();
        let routing = std::mem::take(routing);
        let anchor = Anchor { topology: topology.clone(), routing, total };
        if let Some(old) = self.anchor.replace(anchor) {
            self.scratch.spare = old.routing;
        }
        Ok(total)
    }

    /// Attempts a repair against the current anchor. `Ok(None)` means the
    /// dirty set exceeded a threshold (caller falls back); `Ok(Some(t))`
    /// commits the repaired state as the new anchor.
    fn try_delta(&mut self, child: &AdjacencyMatrix) -> Result<Option<f64>, GraphError> {
        let anchor = self.anchor.as_mut().expect("try_delta requires an anchor");
        let n = child.n();
        let Some(flips) = child.diff_pairs_up_to(&anchor.topology, self.max_flips)? else {
            return Ok(None);
        };
        if flips.is_empty() {
            return Ok(Some(anchor.total));
        }
        let dist_fn = self.ctx.distance_fn();
        let mut deleted: Vec<(usize, usize)> = Vec::with_capacity(flips.len());
        let mut inserted: Vec<(usize, usize, f64)> = Vec::with_capacity(flips.len());
        for &(u, v) in &flips {
            if child.has_edge(u, v) {
                inserted.push((u, v, dist_fn(u, v)));
            } else {
                deleted.push((u, v));
            }
        }

        // Which sources' trees do the flips actually touch? A deleted
        // edge matters iff it is a tree edge; an inserted edge matters
        // iff it strictly shortens one endpoint (ties change neither
        // distances nor, under first-relaxer-wins, this tree's prices).
        let s = &mut self.scratch;
        let routing = &mut anchor.routing;
        s.affected.clear();
        for src in 0..n {
            let (row, par) = (routing.dist(src), routing.parent(src));
            let touched = deleted.iter().any(|&(u, v)| par[v] == u || par[u] == v)
                || inserted.iter().any(|&(u, v, w)| row[u] + w < row[v] || row[v] + w < row[u]);
            if touched {
                if s.affected.len() >= self.max_affected {
                    return Ok(None);
                }
                s.affected.push(src);
            }
        }

        s.csr.build(&child.to_graph(), dist_fn);
        s.rdist.clear();
        s.rparent.clear();
        for &src in &s.affected {
            s.rdist.extend_from_slice(routing.dist(src));
            s.rparent.extend_from_slice(routing.parent(src));
        }
        for (k, &src) in s.affected.iter().enumerate() {
            repair_source(
                src,
                &mut s.rdist[k * n..(k + 1) * n],
                &mut s.rparent[k * n..(k + 1) * n],
                &s.csr,
                &deleted,
                &inserted,
                &mut s.status,
                &mut s.chain,
                &mut s.heap,
            );
        }
        // Commits only if every repaired row prices successfully.
        routing.replace_rows(
            &mut s.csr,
            &s.affected,
            &s.rdist,
            &s.rparent,
            self.ctx.traffic_fn(),
        )?;
        anchor.topology = child.clone();
        anchor.total = CostBreakdown::of(routing, &self.params).total();
        Ok(Some(anchor.total))
    }
}

/// Repairs one source's shortest-path tree in place (see the module docs
/// for why the result is bit-identical to a fresh Dijkstra).
#[allow(clippy::too_many_arguments)]
fn repair_source(
    source: usize,
    wdist: &mut [f64],
    wparent: &mut [usize],
    csr: &Csr,
    deleted: &[(usize, usize)],
    inserted: &[(usize, usize, f64)],
    status: &mut Vec<u8>,
    chain: &mut Vec<usize>,
    heap: &mut BinaryHeap<HeapItem>,
) {
    let n = wdist.len();
    status.clear();
    status.resize(n, 0);
    status[source] = 1;
    // Orphan roots: the child endpoint of every deleted tree edge.
    for &(u, v) in deleted {
        if wparent[v] == u {
            status[v] = 2;
        } else if wparent[u] == v {
            status[u] = 2;
        }
    }
    // Classify everyone by memoized parent walks: a vertex is an orphan
    // iff its tree path hits an orphan root (previously unreachable
    // vertices re-enter as orphans too, so insertions can connect them).
    for x0 in 0..n {
        if status[x0] != 0 {
            continue;
        }
        chain.clear();
        let mut x = x0;
        while status[x] == 0 {
            if !wdist[x].is_finite() || wparent[x] == usize::MAX {
                status[x] = 2;
                break;
            }
            chain.push(x);
            x = wparent[x];
        }
        let verdict = status[x];
        for &c in chain.iter() {
            status[c] = verdict;
        }
    }
    heap.clear();
    for x in 0..n {
        if status[x] == 2 {
            wdist[x] = f64::INFINITY;
            wparent[x] = usize::MAX;
        }
    }
    // Seed each orphan from its surviving (non-orphan) neighbors in the
    // new graph — equivalent to those neighbors relaxing it.
    for x in 0..n {
        if status[x] != 2 {
            continue;
        }
        for (y, len) in csr.arcs(x) {
            if status[y] == 2 {
                continue;
            }
            let nd = wdist[y] + len;
            if nd < wdist[x] {
                wdist[x] = nd;
                wparent[x] = y;
            }
        }
        if wdist[x].is_finite() {
            heap.push(HeapItem { dist: wdist[x], node: x });
        }
    }
    // Inserted edges can strictly shorten surviving labels; relax both
    // directions (orphan endpoints are already at ∞ or seeded above).
    for &(u, v, w) in inserted {
        if wdist[u] + w < wdist[v] {
            wdist[v] = wdist[u] + w;
            wparent[v] = u;
            heap.push(HeapItem { dist: wdist[v], node: v });
        }
        if wdist[v] + w < wdist[u] {
            wdist[u] = wdist[v] + w;
            wparent[u] = v;
            heap.push(HeapItem { dist: wdist[u], node: u });
        }
    }
    // Lazy-deletion propagation to the relaxation fixpoint. Decrease-only
    // relaxation suffices: surviving labels never need to grow (their
    // tree paths survive the deletions by construction of the orphan
    // set), and orphans restart from ∞.
    while let Some(HeapItem { dist: d, node: x }) = heap.pop() {
        if d > wdist[x] {
            continue;
        }
        for (y, len) in csr.arcs(x) {
            let nd = wdist[x] + len;
            if nd < wdist[y] {
                wdist[y] = nd;
                wparent[y] = x;
                heap.push(HeapItem { dist: nd, node: y });
            }
        }
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
            // Force the full path by clearing the anchor each time.
            de.anchor = None;
            assert_eq!(de.eval(topo, None).unwrap(), full);
        }
        assert_eq!(de.full_evals(), 3);
        assert_eq!(de.delta_evals(), 0);
    }

    #[test]
    fn mutation_chain_is_bit_identical_to_full_reevaluation() {
        let ctx = ctx(14, 7);
        let params = CostParams::paper(2e-4, 6.0);
        // Generous thresholds: at n = 14 a single flip routinely touches
        // more than n/2 source trees, and this test wants the repair path.
        let mut de = DeltaEval::with_limits(&ctx, params, 32, 14);
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
        let mut de = DeltaEval::with_limits(&ctx, params, 2, 100);
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
    fn tight_affected_threshold_forces_fallback_without_changing_results() {
        let ctx = ctx(12, 9);
        let params = CostParams::paper(3e-4, 8.0);
        // max_affected = 1: almost every flip touches more than one
        // source, so this session nearly always takes the full path.
        let mut de = DeltaEval::with_limits(&ctx, params, 32, 1);
        let mut topo = mst_matrix(12, ctx.distance_fn());
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let prev = topo.clone();
            random_connected_flip(&mut topo, &mut rng);
            let expected = evaluate_total(&topo, &ctx, &params).unwrap();
            assert_eq!(de.eval(&topo, Some(&prev)).unwrap(), expected);
        }
        assert!(de.full_evals() >= 15, "threshold of 1 must mostly fall back");
    }

    #[test]
    fn base_hint_reanchors_siblings_that_drifted_from_the_anchor() {
        let ctx = ctx(10, 13);
        let params = CostParams::paper(1e-4, 10.0);
        // max_flips = 1: two different single-flip children of the same
        // parent differ from each other by 2 > 1, so the second child can
        // only be delta-evaluated by re-anchoring on the shared parent.
        let mut de = DeltaEval::with_limits(&ctx, params, 1, 100);
        let parent = AdjacencyMatrix::complete(10);
        de.eval(&parent, None).unwrap();
        let mut child_a = parent.clone();
        child_a.set_edge(0, 1, false);
        let mut child_b = parent.clone();
        child_b.set_edge(2, 3, false);
        let ea = evaluate_total(&child_a, &ctx, &params).unwrap();
        let eb = evaluate_total(&child_b, &ctx, &params).unwrap();
        assert_eq!(de.eval(&child_a, Some(&parent)).unwrap(), ea);
        assert_eq!(de.eval(&child_b, Some(&parent)).unwrap(), eb);
        assert_eq!(de.delta_evals(), 2, "both children delta-evaluate");
        assert_eq!(de.full_evals(), 1, "only the first parent evaluation is a request-level full");
        assert_eq!(de.reanchors(), 1, "child_b re-anchored on the shared parent");
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
        let mut de = DeltaEval::with_limits(&ctx, params, 1, 10);
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
}
