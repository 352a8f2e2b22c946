//! Integration tests for the extension modules working together:
//! CSV import → synthesis → resilience hardening → brown-field evolution
//! → router-level expansion → export.

use cold::evolution::{evolve, grow_context, EvolutionConfig};
use cold::resilience::{survivability, ResilientObjective};
use cold::router_level::{expand, RouterLevelConfig};
use cold::{ColdConfig, RunOptions, SynthesisMode, TrialObjective, TrialSpec};
use cold_context::import::context_from_csv;
use cold_context::{GravityModel, PopulationKind};
use cold_ga::{GaSettings, GeneticAlgorithm, Objective};

const CITIES: &str = "\
A, 0.0, 0.0, 3.0
B, 10.0, 0.0, 1.0
C, 10.0, 8.0, 2.0
D, 0.0, 8.0, 1.5
E, 5.0, 4.0, 4.0
F, 15.0, 4.0, 0.5
G, 5.0, 12.0, 0.8
H, 2.0, 3.0, 1.1
";

fn tiny_ga(seed: u64) -> GaSettings {
    GaSettings {
        generations: 12,
        population: 16,
        num_saved: 4,
        num_crossover: 8,
        num_mutation: 4,
        parallel: false,
        ..GaSettings::quick(seed)
    }
}

#[test]
fn imported_cities_flow_through_the_whole_pipeline() {
    let (ctx, names) =
        context_from_csv(CITIES, PopulationKind::Constant { value: 1.0 }, GravityModel::raw(), 0)
            .unwrap();
    assert_eq!(names.len(), 8);
    let cfg = ColdConfig {
        context: cold_context::ContextConfig::paper_default(8),
        params: cold_cost::CostParams::new(2.0, 1.0, 1e-2, 3.0),
        ga: tiny_ga(0),
        mode: SynthesisMode::Initialized,
        random_greedy: Default::default(),
    };
    let r = cfg.synthesize_in_context(ctx.clone(), 1);
    assert!(cold_graph::components::matrix_is_connected(&r.network.topology));

    // Router-level expansion of the imported design.
    let rl = RouterLevelConfig { router_capacity: ctx.traffic.total() / 10.0, max_routers: 4 };
    let routers = expand(&r.network, &ctx, &rl);
    assert!(routers.router_count() >= 8);
    assert!(cold_graph::components::matrix_is_connected(&routers.to_matrix()));

    // Exports work on imported coordinates (which are not in [0, 1]²).
    let svg = cold::export::to_svg(&r.network, &ctx);
    assert!(svg.contains("<svg"));
    let json: serde_json::Value =
        serde_json::from_str(&cold::export::to_json(&r.network, &ctx)).unwrap();
    assert_eq!(json["n"], 8);
}

#[test]
fn resilient_objective_is_never_cheaper_than_plain() {
    let cfg = ColdConfig::quick(9, 1e-4, 10.0);
    let ctx = cfg.context.generate(2);
    let plain = cold::ColdObjective::new(&ctx, cfg.params);
    let res = ResilientObjective::new(&ctx, cfg.params, 33.0);
    for seed in 0..5u64 {
        // Arbitrary connected candidates via the plain GA's population.
        let engine = GeneticAlgorithm::new(&plain, tiny_ga(seed));
        let r = engine.run();
        for ind in r.final_population.iter().take(4) {
            assert!(res.cost(&ind.topology) >= plain.cost(&ind.topology) - 1e-9);
        }
    }
}

#[test]
fn resilience_hardening_reduces_worst_case_failures() {
    let cfg = ColdConfig { ga: tiny_ga(0), ..ColdConfig::quick(10, 1e-4, 0.0) };
    let seed = 3;
    let plain = cfg.synthesize(seed);
    let plain_report = survivability(&plain.network.topology, &plain.context);
    let spec = TrialSpec::new(seed, TrialObjective::Resilient { bridge_cost: 1e5 });
    let hardened = cfg.run_trial(spec, RunOptions::default()).unwrap();
    let hard_report = survivability(&hardened.network.topology, &hardened.context);
    let hardened = hardened.network;
    assert!(
        hard_report.bridges <= plain_report.bridges,
        "hardening must not add bridges ({} -> {})",
        plain_report.bridges,
        hard_report.bridges
    );
    assert!(hard_report.two_edge_connected);
    assert!(hardened.link_count() >= plain.network.link_count());
    assert_eq!(hard_report.worst_link_failure_traffic_fraction, 0.0);
}

#[test]
fn evolution_then_hardening_composes() {
    // Grow a network, then verify the evolved topology can be analyzed
    // and the grown context re-used for a resilient redesign.
    let cfg = ColdConfig { ga: tiny_ga(0), ..ColdConfig::quick(8, 4e-4, 10.0) };
    let v1 = cfg.synthesize(4);
    let grown = grow_context(&v1.context, &cfg.context, 4, 5);
    assert_eq!(grown.n(), 12);
    let evolved = evolve(
        &grown,
        &v1.network.topology,
        cfg.params,
        tiny_ga(1),
        EvolutionConfig { legacy_cost_fraction: 0.0 },
        6,
    );
    assert!(cold_graph::components::matrix_is_connected(&evolved.network.topology));
    assert_eq!(evolved.links_kept + evolved.links_retired, v1.network.link_count());
    let report = survivability(&evolved.network.topology, &grown);
    assert!(report.bridges <= evolved.network.link_count());
    // Evolved network serves the *grown* traffic (capacity plan exists).
    assert!(evolved.network.plan.max_utilization() <= 1.0 + 1e-9);
}

#[test]
fn sunk_costs_increase_legacy_retention() {
    // Retention with fully sunk legacy costs should be at least as high
    // as with green-field pricing, averaged over seeds.
    let cfg = ColdConfig { ga: tiny_ga(0), ..ColdConfig::quick(9, 4e-4, 10.0) };
    let mut sunk_total = 0.0;
    let mut green_total = 0.0;
    for seed in 0..3u64 {
        let v1 = cfg.synthesize(seed);
        let grown = grow_context(&v1.context, &cfg.context, 3, seed + 10);
        let sunk = evolve(
            &grown,
            &v1.network.topology,
            cfg.params,
            tiny_ga(2),
            EvolutionConfig { legacy_cost_fraction: 0.0 },
            seed + 20,
        );
        let green = evolve(
            &grown,
            &v1.network.topology,
            cfg.params,
            tiny_ga(2),
            EvolutionConfig { legacy_cost_fraction: 1.0 },
            seed + 20,
        );
        sunk_total += sunk.retention();
        green_total += green.retention();
    }
    assert!(
        sunk_total >= green_total - 1e-9,
        "sunk-cost retention {sunk_total} below green-field {green_total}"
    );
}
