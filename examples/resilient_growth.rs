//! Resilience and brown-field growth — the two extension modules working
//! together.
//!
//! 1. design a network for a small market;
//! 2. grow the market (new PoPs, more traffic) and *evolve* the network
//!    treating existing links as sunk costs (§3: "networks are rarely
//!    designed from scratch – they evolve");
//! 3. compare against a plain redesign and against a resilience-aware
//!    design where bridge links carry an outage cost (§2's extensibility).
//!
//! ```sh
//! cargo run --release --example resilient_growth
//! ```

use cold::evolution::{evolve, grow_context, EvolutionConfig};
use cold::resilience::survivability;
use cold::{ColdConfig, RunOptions, TrialObjective, TrialSpec};

fn main() {
    let cfg = ColdConfig::quick(12, 4e-4, 10.0);
    let seed = 21;

    // Step 1: green-field design for the initial market.
    let v1 = cfg.synthesize(seed);
    println!(
        "year 1: {} PoPs, {} links, cost {:.1}",
        v1.network.n(),
        v1.network.link_count(),
        v1.best_cost()
    );
    let s1 = survivability(&v1.network.topology, &v1.context);
    println!(
        "        bridges {}, worst single-link failure strands {:.0}% of traffic",
        s1.bridges,
        100.0 * s1.worst_link_failure_traffic_fraction
    );

    // Step 2: the market grows by 6 PoPs; evolve with sunk legacy costs.
    let grown = grow_context(&v1.context, &cfg.context, 6, seed + 1);
    let evolved = evolve(
        &grown,
        &v1.network.topology,
        cfg.params,
        cfg.ga,
        EvolutionConfig { legacy_cost_fraction: 0.1 },
        seed + 2,
    );
    println!(
        "\nyear 2 (evolved): {} PoPs, {} links — kept {}, retired {}, built {} (retention {:.0}%)",
        evolved.network.n(),
        evolved.network.link_count(),
        evolved.links_kept,
        evolved.links_retired,
        evolved.links_built,
        100.0 * evolved.retention()
    );
    println!(
        "        full-cost value {:.1} (brown-field objective {:.1})",
        evolved.network.total_cost(),
        evolved.brownfield_cost
    );

    // Compare: green-field redesign of the grown market.
    let redesign = cfg.synthesize_in_context(grown.clone(), seed + 3);
    println!(
        "year 2 (redesign): {} links at cost {:.1} — evolution kept {:.0}% of the plant,\n\
         \x20       a redesign would rebuild from scratch",
        redesign.network.link_count(),
        redesign.best_cost(),
        100.0 * evolved.retention()
    );

    // Step 3: resilience-aware design — price each bridge at an outage
    // cost and watch the rings appear.
    println!("\nresilience sweep (same market, rising bridge cost):");
    for bridge_cost in [0.0, 20.0, 200.0, 2000.0] {
        let spec = TrialSpec::new(seed + 4, TrialObjective::Resilient { bridge_cost });
        let r = cfg.run_trial(spec, RunOptions::default()).expect("synthesis");
        let (net, report) = (&r.network, survivability(&r.network.topology, &r.context));
        println!(
            "  bridge cost {:>6}: {} links, {} bridges, 2-edge-connected: {}, worst failure {:.0}%",
            bridge_cost,
            net.link_count(),
            report.bridges,
            report.two_edge_connected,
            100.0 * report.worst_link_failure_traffic_fraction
        );
    }
    println!("\n(the build-out budget buys survivability once the outage cost justifies it)");
}
