//! Warm-vs-cold convergence regression for the evolution workload.
//!
//! The point of warm-starting (`TrialObjective::Warm`) is that a
//! perturbed context is *mostly* the old context, so seeding the GA
//! population from the parent design should reach the cold run's final
//! best cost in a fraction of the generations. These tests pin that
//! claim at n = 50 so a regression in the warm-start path (seeding,
//! embedding, RNG streams) fails loudly instead of silently degrading
//! into a cold start. EXPERIMENTS.md records one measured run.

use cold::{
    ChangeCosts, ColdConfig, EvolutionPlan, PlanStep, RunOptions, TrialObjective, TrialSpec,
};

/// First generation index (1-based count) at which `history` reaches
/// `target`, or `None` if it never does.
fn generations_to_reach(history: &[f64], target: f64) -> Option<usize> {
    history.iter().position(|&c| c <= target + 1e-9).map(|g| g + 1)
}

/// A warm start on a perturbed n = 50 context must match the cold run's
/// final best cost in at most half the generations the cold run took.
/// Change costs are zero here so both runs optimize the identical
/// objective and the histories are directly comparable. The comparison
/// runs the plain GA (`GaOnly`): warm-starting replaces *initialization*,
/// so the fair baseline is the cold initializer it displaces, not the
/// greedy-heuristic portfolio (which is orthogonal to either run).
#[test]
fn warm_start_reaches_cold_best_in_half_the_generations_at_n50() {
    let mut config = ColdConfig::quick(50, 1e-4, 10.0);
    config.mode = cold::SynthesisMode::GaOnly;
    let parent_seed = 90;
    let step_seed = 91;

    // Parent design on the original context.
    let parent = config.try_synthesize(parent_seed).expect("parent synthesis");

    // Perturbation: the *same* PoPs with 10% more traffic — the "demand
    // grew" scenario from the evolution workload. The step runs under a
    // fresh GA seed so warm and cold explore independently of the parent
    // run's streams.
    let mut ctx = parent.context.clone();
    ctx.traffic.scale(1.1);

    let cold = config.synthesize_in_context(ctx.clone(), step_seed);
    let warm =
        TrialObjective::Warm { parent: parent.network.topology, costs: ChangeCosts::default() };
    let warm = config
        .run_trial(
            TrialSpec { seed: step_seed, context: Some(ctx), objective: warm },
            RunOptions::default(),
        )
        .expect("warm synthesis on perturbed context");

    let cold_best = cold.best_cost();
    let cold_gens = cold.generations_run;
    let warm_gens = generations_to_reach(&warm.best_cost_history, cold_best).unwrap_or_else(|| {
        panic!(
            "warm run never reached cold best {cold_best:.2}; warm history ends at {:?}",
            warm.best_cost_history.last()
        )
    });
    assert!(
        2 * warm_gens <= cold_gens,
        "warm start needed {warm_gens} generations to reach the cold best \
         ({cold_best:.2}), more than half of the cold run's {cold_gens}"
    );
    // And the warm run must end at least as good as the cold run — the
    // seeded population can only add information.
    assert!(
        warm.best_cost() <= cold_best + 1e-9,
        "warm final {:.2} worse than cold final {cold_best:.2}",
        warm.best_cost()
    );
}

/// A 4-step plan at n = 50 yields a valid, round-trippable schedule:
/// every step past the base is warm, costs stay finite, and the diffs
/// are consistent with each step's reported topology size.
#[test]
fn four_step_plan_at_n50_produces_a_valid_schedule() {
    let mut base = ColdConfig::quick(48, 1e-4, 10.0);
    // Keep the regression affordable: the schedule-shape checks don't
    // need the full 40 generations the convergence test above uses.
    base.ga.generations = 12;
    let plan = EvolutionPlan {
        base,
        seed: 417,
        change_costs: ChangeCosts::uniform(1.0),
        steps: vec![
            PlanStep::AddPop { count: 2 },
            PlanStep::ScaleTraffic { factor: 1.5 },
            PlanStep::CostChange { k0: None, k1: None, k2: Some(4e-4), k3: None },
            PlanStep::ScaleTraffic { factor: 0.8 },
        ],
    };
    plan.validate().expect("plan validates");

    let schedule = cold::run_plan(&plan).expect("plan runs");
    assert_eq!(schedule.steps.len(), 5, "base + 4 evolution steps");
    assert!(!schedule.steps[0].convergence.warm, "base step is cold");
    assert_eq!(schedule.steps[1].n, 50, "add_pop grew the context");
    for (idx, step) in schedule.steps.iter().enumerate().skip(1) {
        assert!(step.convergence.warm, "step {idx} must warm-start");
        assert!(step.convergence.generations_run > 0);
        assert!(step.convergence.best_cost.is_finite());
        assert!(
            !step.diff.added.is_empty() || !step.diff.removed.is_empty() || step.diff.kept > 0,
            "step {idx} diff is empty"
        );
    }

    // The schedule document round-trips.
    let doc = schedule.to_json();
    let back = cold::TopologySchedule::from_json(&doc).expect("schedule round-trips");
    assert_eq!(back.steps.len(), schedule.steps.len());
    assert_eq!(back.total_rewired(), schedule.total_rewired());
}
