//! Degenerate and adversarial inputs: the pipeline must stay correct (or
//! fail loudly and precisely) at the edges of its domain.

use cold::{ColdConfig, SynthesisMode};
use cold_context::{Context, GravityModel, Point, PopulationKind};
use cold_cost::{evaluate_parts, CostEvaluator, CostParams, Network};
use cold_ga::{GaSettings, GeneticAlgorithm};
use cold_graph::AdjacencyMatrix;

fn tiny_ga(seed: u64) -> GaSettings {
    GaSettings {
        generations: 6,
        population: 10,
        num_saved: 2,
        num_crossover: 5,
        num_mutation: 3,
        parallel: false,
        ..GaSettings::quick(seed)
    }
}

/// Coincident PoPs (two data centers in one building) give zero-length
/// links; routing and costs must handle zero distances.
#[test]
fn coincident_pops_are_handled() {
    let positions = vec![
        Point::new(0.5, 0.5),
        Point::new(0.5, 0.5), // exact duplicate
        Point::new(1.5, 0.5),
        Point::new(0.5, 1.5),
    ];
    let ctx = Context::from_positions(
        positions,
        PopulationKind::Constant { value: 1.0 },
        GravityModel::raw(),
        0,
    );
    assert_eq!(ctx.distance(0, 1), 0.0);
    let eval = CostEvaluator::new(&ctx, CostParams::paper(1e-3, 10.0));
    let full = AdjacencyMatrix::complete(4);
    let cost = eval.cost(&full).expect("zero-length links are fine");
    assert!(cost.is_finite() && cost > 0.0);
    let net = Network::build(full, &ctx, CostParams::paper(1e-3, 10.0)).unwrap();
    // The zero-length link is free in k1/k2 terms but still exists.
    let zero_link = net.links.iter().find(|l| (l.u, l.v) == (0, 1)).unwrap();
    assert_eq!(zero_link.length, 0.0);
}

/// The minimum interesting network: two PoPs.
#[test]
fn two_pop_network_synthesizes() {
    let cfg = ColdConfig {
        context: cold_context::ContextConfig::paper_default(2),
        params: CostParams::paper(1e-4, 10.0),
        ga: tiny_ga(0),
        mode: SynthesisMode::GaOnly,
        random_greedy: Default::default(),
    };
    let r = cfg.synthesize(1);
    assert_eq!(r.network.link_count(), 1, "the only connected 2-node graph");
    assert_eq!(r.stats.diameter, 1);
}

/// Three PoPs: the smallest case with a real topology decision
/// (triangle vs path).
#[test]
fn three_pop_decisions_follow_costs() {
    let ctx = cold_context::ContextConfig::paper_default(3).generate(5);
    // k0 enormous ⇒ 2 links (a path); k2 enormous ⇒ 3 links (triangle).
    let sparse = GeneticAlgorithm::new(
        cold::ColdObjective::new(&ctx, CostParams::new(1e6, 1.0, 0.0, 0.0)),
        tiny_ga(1),
    )
    .run();
    assert_eq!(sparse.best.topology.edge_count(), 2);
    let dense = GeneticAlgorithm::new(
        cold::ColdObjective::new(&ctx, CostParams::new(1e-9, 1e-9, 1e3, 0.0)),
        tiny_ga(2),
    )
    .run();
    assert_eq!(dense.best.topology.edge_count(), 3);
}

/// Extremely skewed populations (one metropolis, many villages) must not
/// break routing or produce non-finite costs.
#[test]
fn extreme_population_skew() {
    let mut positions = Vec::new();
    for i in 0..8 {
        positions.push(Point::new(i as f64, (i % 3) as f64));
    }
    let populations = vec![1e9, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1e-6];
    let traffic = GravityModel::raw().traffic_matrix(&populations, Some(&positions));
    let ctx = Context::new(positions, populations, traffic);
    let eval = CostEvaluator::new(&ctx, CostParams::paper(1e-10, 10.0));
    let mst = cold_graph::mst::mst_matrix(8, ctx.distance_fn());
    let cost = eval.cost(&mst).unwrap();
    assert!(cost.is_finite(), "skewed demand must not overflow: {cost}");
}

/// All-zero cost parameters: every connected topology costs 0; the GA must
/// still terminate and return something connected.
#[test]
fn zero_costs_still_terminate() {
    let ctx = cold_context::ContextConfig::paper_default(6).generate(6);
    let obj = cold::ColdObjective::new(&ctx, CostParams::new(0.0, 0.0, 0.0, 0.0));
    let r = GeneticAlgorithm::new(&obj, tiny_ga(3)).run();
    assert_eq!(r.best.cost, 0.0);
    assert!(cold_graph::components::matrix_is_connected(&r.best.topology));
}

/// A context with zero traffic (all demands zero via a zero-total scale)
/// reduces the objective to pure build-out costs.
#[test]
fn zero_traffic_reduces_to_buildout() {
    let positions: Vec<Point> = (0..5).map(|i| Point::new(i as f64, 0.0)).collect();
    let populations = vec![1.0; 5];
    let mut traffic = GravityModel::raw().traffic_matrix(&populations, Some(&positions));
    traffic.scale(0.0);
    let ctx = Context::new(positions, populations, traffic);
    let eval = CostEvaluator::new(&ctx, CostParams::new(10.0, 1.0, 1e6, 0.0));
    // Even with a huge k2, no traffic ⇒ bandwidth cost zero ⇒ MST optimal.
    let mst = cold_graph::mst::mst_matrix(5, ctx.distance_fn());
    let clique = AdjacencyMatrix::complete(5);
    assert!(eval.cost(&mst).unwrap() < eval.cost(&clique).unwrap());
    let (breakdown, _) = evaluate_parts(&mst, &ctx, &eval.params).unwrap();
    assert_eq!(breakdown.bandwidth, 0.0);
}

/// Asymmetric traffic (all demand one-directional) still routes and loads
/// links correctly.
#[test]
fn one_directional_traffic() {
    let positions: Vec<Point> = (0..4).map(|i| Point::new(i as f64, 0.0)).collect();
    let mut traffic = cold_context::TrafficMatrix::zeros(4);
    traffic.set_demand(0, 3, 10.0); // single demand, one direction
    let ctx = Context::new(positions, vec![1.0; 4], traffic);
    let path = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
    let net = Network::build(path, &ctx, CostParams::new(1.0, 1.0, 1.0, 0.0)).unwrap();
    for l in &net.links {
        assert_eq!(l.load, 10.0, "every path link carries the single demand");
    }
}

/// Duplicate seeds across ensemble trials must not happen (seed derivation
/// is collision-resistant for small indices).
#[test]
fn ensemble_trial_seeds_are_distinct() {
    let mut seen = std::collections::HashSet::new();
    for i in 0..10_000u64 {
        assert!(seen.insert(cold_context::rng::derive_seed(42, i)), "collision at {i}");
    }
}

/// Degenerate GA settings (population of 2, one generation) still run.
#[test]
fn minimal_ga_settings() {
    let ctx = cold_context::ContextConfig::paper_default(5).generate(8);
    let obj = cold::ColdObjective::new(&ctx, CostParams::paper(1e-4, 0.0));
    let settings = GaSettings {
        generations: 1,
        population: 2,
        num_saved: 1,
        num_crossover: 1,
        num_mutation: 0,
        tournament_pool: 2,
        parents: 1,
        parallel: false,
        ..GaSettings::quick(0)
    };
    let r = GeneticAlgorithm::new(&obj, settings).run();
    assert!(cold_graph::components::matrix_is_connected(&r.best.topology));
    // Population 2 = MST + clique anchors; best of those two.
}

/// An elongated 100:1 region — beyond anything the paper tested — still
/// yields valid connected networks.
#[test]
fn extreme_aspect_ratio_region() {
    let cfg = ColdConfig {
        context: cold_context::ContextConfig {
            region: cold_context::Region::Rectangle { aspect: 100.0 },
            ..cold_context::ContextConfig::paper_default(10)
        },
        params: CostParams::paper(4e-4, 0.0),
        ga: tiny_ga(4),
        mode: SynthesisMode::GaOnly,
        random_greedy: Default::default(),
    };
    let r = cfg.synthesize(9);
    assert!(cold_graph::components::matrix_is_connected(&r.network.topology));
    // A near-1-D region forces high diameters (chain-like networks).
    assert!(r.stats.diameter >= 3, "got diameter {}", r.stats.diameter);
}
