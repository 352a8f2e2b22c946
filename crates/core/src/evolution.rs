//! Incremental network evolution.
//!
//! §3 of the paper observes that "networks are rarely designed from
//! scratch – they evolve. Operators and managers try to optimize (by
//! reducing costs, or improving performance) but usually do so
//! heuristically." This module models that process: given an *existing*
//! network and a grown context (more PoPs, more traffic), re-optimize
//! where the legacy links are sunk costs — their build-out components
//! (`k0`, `k1`) are discounted, while bandwidth (`k2`) and hub (`k3`)
//! costs remain, since capacity and operations are paid either way.
//!
//! The result quantifies the paper's scaling claim from §8 ("it allows for
//! intuitive and sensible scaling") in the more realistic brown-field
//! setting: how much of the old network survives, and what the cost of
//! organic growth is versus a green-field redesign.

use crate::objective::ColdObjective;
use cold_context::rng::derive_seed;
use cold_context::{Context, Point};
use cold_cost::{CostParams, Network};
use cold_ga::{GaSettings, GeneticAlgorithm, Objective, ObjectiveSession};
use cold_graph::AdjacencyMatrix;
use serde::{Deserialize, Serialize};

/// Evolution settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvolutionConfig {
    /// Fraction of the build-out cost (`k0 + k1·ℓ`) still charged for a
    /// legacy link: `0` = fully sunk (reuse is free), `1` = no discount
    /// (green-field). Typical operator economics sit near 0–0.2.
    pub legacy_cost_fraction: f64,
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        Self { legacy_cost_fraction: 0.1 }
    }
}

/// Objective for brown-field optimization: like COLD's, but legacy links
/// pay only `legacy_cost_fraction` of their `k0`/`k1` components.
#[derive(Debug, Clone)]
pub struct EvolutionObjective<'a> {
    inner: ColdObjective<'a>,
    /// Legacy adjacency, embedded in the grown node set.
    legacy: AdjacencyMatrix,
    cfg: EvolutionConfig,
}

impl<'a> EvolutionObjective<'a> {
    /// Creates the objective. `legacy` must have the same node count as
    /// `ctx` (embed the old network into the grown PoP set first — new
    /// PoPs simply have no legacy links).
    pub fn new(
        ctx: &'a Context,
        params: CostParams,
        legacy: AdjacencyMatrix,
        cfg: EvolutionConfig,
    ) -> Self {
        assert_eq!(legacy.n(), ctx.n(), "legacy topology must be embedded in the grown context");
        assert!(
            (0.0..=1.0).contains(&cfg.legacy_cost_fraction),
            "legacy cost fraction must be in [0, 1]"
        );
        Self { inner: ColdObjective::new(ctx, params), legacy, cfg }
    }

    /// The sunk-cost refund of reused legacy links — a pure function of
    /// the topology, shared by the stateless and session paths so they
    /// stay bit-identical.
    fn refund(&self, topology: &AdjacencyMatrix) -> f64 {
        let params = self.inner.params();
        let refund_rate = 1.0 - self.cfg.legacy_cost_fraction;
        let mut refund = 0.0;
        for (u, v) in self.legacy.edges() {
            if topology.has_edge(u, v) {
                refund += refund_rate * (params.k0 + params.k1 * self.distance(u, v));
            }
        }
        refund
    }
}

impl Objective for EvolutionObjective<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn distance(&self, u: usize, v: usize) -> f64 {
        self.inner.distance(u, v)
    }
    fn cost(&self, topology: &AdjacencyMatrix) -> f64 {
        // Refund the sunk share of build-out costs on reused legacy links.
        self.inner.cost(topology) - self.refund(topology)
    }

    fn session(&self) -> Box<dyn ObjectiveSession + '_> {
        // Delegate to the inner delta session and subtract the refund on
        // top. Without this override the trait default wraps `cost()` in
        // a stateless session, so every brown-field evaluation silently
        // paid for full APSP routing.
        Box::new(EvolutionSession { inner: self.inner.session(), outer: self })
    }

    fn k_nearest(&self, k: usize) -> Vec<Vec<usize>> {
        self.inner.k_nearest(k)
    }
}

/// Per-worker session: the inner objective's incremental evaluation minus
/// the legacy refund, which is cheap (one pass over legacy edges) and
/// recomputed per call. Bit-identical to [`EvolutionObjective::cost`].
struct EvolutionSession<'a> {
    inner: Box<dyn ObjectiveSession + 'a>,
    outer: &'a EvolutionObjective<'a>,
}

impl ObjectiveSession for EvolutionSession<'_> {
    fn cost(&mut self, topology: &AdjacencyMatrix, base: Option<&AdjacencyMatrix>) -> f64 {
        self.inner.cost(topology, base) - self.outer.refund(topology)
    }
    fn delta_evals(&self) -> usize {
        self.inner.delta_evals()
    }
    fn full_evals(&self) -> usize {
        self.inner.full_evals()
    }
    fn arcs_scanned(&self) -> u64 {
        self.inner.arcs_scanned()
    }
}

/// Outcome of one evolution step.
#[derive(Debug, Clone)]
pub struct EvolutionResult {
    /// The evolved network (scored at *full* costs for comparability).
    pub network: Network,
    /// The brown-field objective value (with the legacy discount).
    pub brownfield_cost: f64,
    /// Legacy links kept.
    pub links_kept: usize,
    /// Legacy links retired.
    pub links_retired: usize,
    /// New links built.
    pub links_built: usize,
}

impl EvolutionResult {
    /// Fraction of legacy links that survive the evolution step.
    pub fn retention(&self) -> f64 {
        let legacy = self.links_kept + self.links_retired;
        if legacy == 0 {
            0.0
        } else {
            self.links_kept as f64 / legacy as f64
        }
    }
}

/// Grows a context by appending `extra` new PoPs (fresh locations and
/// populations from the same model), keeping the original PoPs and their
/// populations intact, and rebuilding the gravity matrix.
pub fn grow_context(
    base: &Context,
    config: &cold_context::ContextConfig,
    extra: usize,
    seed: u64,
) -> Context {
    use cold_context::{PointProcess, PopulationModel};
    let mut pos_rng = cold_context::rng::rng_for(seed, 0x67726F);
    let mut pop_rng = cold_context::rng::rng_for(seed, 0x67726F + 1);
    let new_points = config.points.sample(extra, &config.region, &mut pos_rng);
    let mut positions = base.positions.clone();
    positions
        .extend(new_points.into_iter().map(|p| Point::new(p.x * config.scale, p.y * config.scale)));
    let mut populations = base.populations.clone();
    populations.extend(config.population.sample(extra, &mut pop_rng));
    let traffic = config.gravity.traffic_matrix(&populations, Some(&positions));
    Context::new(positions, populations, traffic)
}

/// Evolves `legacy_topology` (defined on the first PoPs of `grown`) into a
/// network serving the grown context.
///
/// The GA is seeded with the natural operator move — keep everything and
/// attach each new PoP to its closest legacy PoP — so the evolved design
/// is at least as good as naive growth.
pub fn evolve(
    grown: &Context,
    legacy_topology: &AdjacencyMatrix,
    params: CostParams,
    ga: GaSettings,
    cfg: EvolutionConfig,
    seed: u64,
) -> EvolutionResult {
    let n_old = legacy_topology.n();
    let n = grown.n();
    assert!(n >= n_old, "grown context must contain the legacy PoPs");
    let legacy = crate::evolve::embed_parent(legacy_topology, n);
    // Naive-growth seed: legacy + nearest-attach for new PoPs.
    let mut naive = legacy.clone();
    for v in n_old..n {
        let closest = (0..n_old)
            .min_by(|&a, &b| grown.distance(v, a).total_cmp(&grown.distance(v, b)))
            .expect("legacy network nonempty");
        naive.set_edge(v, closest, true);
    }
    let objective = EvolutionObjective::new(grown, params, legacy.clone(), cfg);
    let engine =
        GeneticAlgorithm::new(&objective, GaSettings { seed: derive_seed(seed, 0xE7), ..ga });
    let result = engine.run_seeded(&[naive]);
    let best = result.best.topology;
    let mut kept = 0usize;
    let mut retired = 0usize;
    for (u, v) in legacy.edges() {
        if best.has_edge(u, v) {
            kept += 1;
        } else {
            retired += 1;
        }
    }
    let built = best.edge_count() - kept;
    let network = Network::build(best, grown, params).expect("GA output connected");
    EvolutionResult {
        network,
        brownfield_cost: result.best.cost,
        links_kept: kept,
        links_retired: retired,
        links_built: built,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColdConfig;

    fn quick_setup(
        n0: usize,
        extra: usize,
        seed: u64,
    ) -> (ColdConfig, Context, AdjacencyMatrix, Context) {
        let cfg = ColdConfig::quick(n0, 1e-4, 10.0);
        let base = cfg.synthesize(seed);
        let grown = grow_context(&base.context, &cfg.context, extra, seed + 1);
        (cfg, base.context, base.network.topology.clone(), grown)
    }

    #[test]
    fn grow_context_preserves_existing_pops() {
        let (_, base_ctx, _, grown) = quick_setup(8, 4, 1);
        assert_eq!(grown.n(), 12);
        assert_eq!(&grown.positions[..8], &base_ctx.positions[..]);
        assert_eq!(&grown.populations[..8], &base_ctx.populations[..]);
        // Traffic includes new pairs.
        assert!(grown.traffic.total() > base_ctx.traffic.total());
    }

    #[test]
    fn evolution_keeps_most_legacy_links_when_sunk() {
        let (cfg, _, legacy, grown) = quick_setup(9, 3, 2);
        let r = evolve(
            &grown,
            &legacy,
            cfg.params,
            cfg.ga,
            EvolutionConfig { legacy_cost_fraction: 0.0 },
            3,
        );
        assert!(
            r.retention() >= 0.5,
            "with fully sunk legacy costs most links should survive, kept {}/{}",
            r.links_kept,
            r.links_kept + r.links_retired
        );
        assert!(r.links_built >= 3, "each new PoP needs at least one link");
        assert!(cold_graph::components::matrix_is_connected(&r.network.topology));
    }

    #[test]
    fn greenfield_fraction_one_matches_plain_objective() {
        let (cfg, _, legacy, grown) = quick_setup(8, 2, 4);
        let obj = EvolutionObjective::new(
            &grown,
            cfg.params,
            crate::evolve::embed_parent(&legacy, 10),
            EvolutionConfig { legacy_cost_fraction: 1.0 },
        );
        let plain = ColdObjective::new(&grown, cfg.params);
        let probe = cold_graph::mst::mst_matrix(10, grown.distance_fn());
        assert!((obj.cost(&probe) - plain.cost(&probe)).abs() < 1e-9);
    }

    #[test]
    fn sunk_costs_make_legacy_links_cheaper() {
        let (cfg, _, legacy, grown) = quick_setup(8, 2, 5);
        let embedded = crate::evolve::embed_parent(&legacy, 10);
        let obj = EvolutionObjective::new(
            &grown,
            cfg.params,
            embedded.clone(),
            EvolutionConfig { legacy_cost_fraction: 0.0 },
        );
        let plain = ColdObjective::new(&grown, cfg.params);
        // Any topology that reuses a legacy link scores strictly lower.
        let mut naive = embedded.clone();
        for v in 8..10 {
            naive.set_edge(v, 0, true);
        }
        cold_graph::mst::join_components(&mut naive, grown.distance_fn());
        assert!(obj.cost(&naive) < plain.cost(&naive));
    }

    #[test]
    fn brownfield_session_is_bit_identical_and_incremental() {
        // Regression: `EvolutionObjective` used to inherit the stateless
        // default session, so brown-field GA runs did full APSP per eval.
        let (cfg, _, legacy, grown) = quick_setup(8, 2, 8);
        let embedded = crate::evolve::embed_parent(&legacy, 10);
        let obj = EvolutionObjective::new(
            &grown,
            cfg.params,
            embedded.clone(),
            EvolutionConfig::default(),
        );
        let mut session = obj.session();
        let mut naive = embedded.clone();
        for v in 8..10 {
            naive.set_edge(v, 0, true);
        }
        cold_graph::mst::join_components(&mut naive, grown.distance_fn());
        assert_eq!(session.cost(&naive, None), obj.cost(&naive));
        let mut tweaked = naive.clone();
        tweaked.set_edge(0, 9, !tweaked.has_edge(0, 9));
        cold_graph::mst::join_components(&mut tweaked, grown.distance_fn());
        assert_eq!(session.cost(&tweaked, Some(&naive)), obj.cost(&tweaked));
        assert!(session.delta_evals() > 0, "second eval must take the delta path");
        // And a whole GA run actually exercises the incremental path.
        let settings = GaSettings { seed: 11, generations: 4, ..cfg.ga };
        let engine = GeneticAlgorithm::try_new(&obj, settings).unwrap();
        let result = engine.try_run_traced(&[], None).unwrap();
        assert!(
            result.eval_stats.delta_evals > 0,
            "brown-field run performed no delta evals: {:?}",
            result.eval_stats
        );
    }

    #[test]
    fn evolution_result_accounting_adds_up() {
        let (cfg, _, legacy, grown) = quick_setup(8, 3, 6);
        let r = evolve(&grown, &legacy, cfg.params, cfg.ga, EvolutionConfig::default(), 7);
        assert_eq!(r.links_kept + r.links_retired, legacy.edge_count());
        assert_eq!(r.network.link_count(), r.links_kept + r.links_built);
        assert!((0.0..=1.0).contains(&r.retention()));
    }
}
