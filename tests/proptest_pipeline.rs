//! Property-based tests across the full pipeline: arbitrary (sane) cost
//! parameters and seeds must always yield connected, capacity-feasible,
//! internally consistent networks.

use cold::{ColdConfig, SynthesisMode};
use cold_cost::CostParams;
use cold_ga::GaSettings;
use cold_graph::components::matrix_is_connected;
use proptest::prelude::*;

/// A tiny-but-valid GA so each proptest case stays fast.
fn tiny_ga(seed: u64) -> GaSettings {
    GaSettings {
        generations: 8,
        population: 12,
        num_saved: 3,
        num_crossover: 6,
        num_mutation: 3,
        parallel: false,
        ..GaSettings::quick(seed)
    }
}

fn arb_params() -> impl Strategy<Value = CostParams> {
    // Log-uniform-ish ranges covering all the paper's regimes.
    (
        0.0f64..50.0,                         // k0
        0.0f64..5.0,                          // k1
        -14f64..-4.0,                         // ln k2
        proptest::option::of(0.0f64..2000.0), // k3 (None -> 0)
    )
        .prop_map(|(k0, k1, lk2, k3)| CostParams::new(k0, k1, lk2.exp(), k3.unwrap_or(0.0)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn synthesis_always_yields_valid_networks(
        params in arb_params(),
        n in 5usize..12,
        seed in 0u64..1000,
    ) {
        let cfg = ColdConfig {
            context: cold_context::ContextConfig::paper_default(n),
            params,
            ga: tiny_ga(0),
            mode: SynthesisMode::GaOnly,
            random_greedy: Default::default(),
        };
        let r = cfg.synthesize(seed);
        let net = &r.network;
        // Connected and spanning.
        prop_assert!(matrix_is_connected(&net.topology));
        prop_assert!(net.link_count() >= n - 1);
        prop_assert!(net.link_count() <= n * (n - 1) / 2);
        // Capacity covers load on every link.
        for l in &net.links {
            prop_assert!(l.capacity + 1e-9 >= l.load);
            prop_assert!(l.length >= 0.0 && l.length.is_finite());
        }
        // Cost components are consistent and nonnegative.
        prop_assert!(net.cost.existence >= -1e-12);
        prop_assert!(net.cost.length >= -1e-12);
        prop_assert!(net.cost.bandwidth >= -1e-12);
        prop_assert!(net.cost.hub >= -1e-12);
        let total = net.cost.existence + net.cost.length + net.cost.bandwidth + net.cost.hub;
        prop_assert!((total - net.total_cost()).abs() < 1e-9 * (1.0 + total.abs()));
        // Best-cost history is monotone and ends at the reported cost.
        for w in r.best_cost_history.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-9);
        }
        prop_assert!(
            (r.best_cost_history.last().unwrap() - net.total_cost()).abs()
                < 1e-9 * (1.0 + net.total_cost())
        );
        // Stats are self-consistent with the topology.
        prop_assert_eq!(r.stats.n, n);
        prop_assert_eq!(r.stats.m, net.link_count());
        prop_assert_eq!(r.stats.hubs + r.stats.leaves, n);
    }

    #[test]
    fn same_seed_same_network(params in arb_params(), seed in 0u64..100) {
        let cfg = ColdConfig {
            context: cold_context::ContextConfig::paper_default(7),
            params,
            ga: tiny_ga(0),
            mode: SynthesisMode::GaOnly,
            random_greedy: Default::default(),
        };
        let a = cfg.synthesize(seed);
        let b = cfg.synthesize(seed);
        prop_assert_eq!(a.network.topology, b.network.topology);
        prop_assert_eq!(a.best_cost_history, b.best_cost_history);
    }

    #[test]
    fn heuristics_always_produce_connected_feasible_networks(
        k2 in -12f64..-4.0,
        k3 in 0.0f64..500.0,
        seed in 0u64..200,
    ) {
        let ctx = cold_context::ContextConfig::paper_default(8).generate(seed);
        let eval = cold_cost::CostEvaluator::new(&ctx, CostParams::paper(k2.exp(), k3));
        for (name, r) in cold_heuristics::all_heuristics(&eval, &Default::default(), seed) {
            prop_assert!(matrix_is_connected(&r.topology), "{} disconnected", name);
            let recomputed = eval.cost(&r.topology).unwrap();
            prop_assert_eq!(recomputed.to_bits(), r.cost.to_bits(), "{} cost drift", name);
        }
    }

    #[test]
    fn context_scaling_preserves_optimal_topology_shape(
        seed in 0u64..50,
    ) {
        // Costs are relative (§3.2.3): multiplying all four k's by a
        // constant must not change the chosen topology.
        let base = ColdConfig {
            context: cold_context::ContextConfig::paper_default(8),
            params: CostParams::paper(4e-4, 10.0),
            ga: tiny_ga(0),
            mode: SynthesisMode::GaOnly,
            random_greedy: Default::default(),
        };
        let scaled = ColdConfig { params: base.params.scaled(7.5), ..base };
        let a = base.synthesize(seed);
        let b = scaled.synthesize(seed);
        prop_assert_eq!(a.network.topology.clone(), b.network.topology.clone());
        prop_assert!((b.best_cost() - 7.5 * a.best_cost()).abs() < 1e-6 * b.best_cost());
    }
}
