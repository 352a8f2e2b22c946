//! Bit-pins for the scalar synthesis paths: an initialized run, a GaOnly
//! run in an explicit context, a warm run (uninterrupted, and
//! checkpointed mid-run then resumed), and a two-step evolution plan.
//!
//! Each pin records the topology's edges, the best-cost history (its
//! length, last value and an FNV-1a digest of every value's bits), the
//! fitness cache's hits and misses, the generations run and the stop
//! reason. Any change to the numbers a run produces fails here.

use cold::fingerprint::fnv1a64;
use cold::ga::{CheckpointHook, GaCheckpoint};
use cold::{
    ChangeCosts, ColdConfig, EvolutionPlan, PlanStep, RunOptions, SynthesisMode, SynthesisResult,
    TrialObjective, TrialSpec,
};

/// The pinned facts of one run, on one line.
fn summary(r: &SynthesisResult) -> String {
    let edges: Vec<(usize, usize)> = r.network.topology.edges().collect();
    let h = &r.best_cost_history;
    let bits: Vec<u8> = h.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    format!(
        "edges {edges:?} history {} {:#018x} {:#018x} cache {}/{} generations {} {}",
        h.len(),
        h.last().map_or(0, |c| c.to_bits()),
        fnv1a64(&bits),
        r.eval_stats.cache_hits,
        r.eval_stats.cache_misses,
        r.generations_run,
        r.stop_reason.as_str(),
    )
}

const INITIALIZED: &str = "edges [(0, 1), (0, 2), (0, 3), (0, 7), (0, 8), (2, 4), (2, 5), \
    (2, 6), (2, 9)] history 41 0x407713bac35d822d 0x8b515ce94379e79a cache 1048/272 \
    generations 40 completed";

const GA_ONLY: &str = "edges [(0, 6), (0, 8), (1, 8), (1, 10), (2, 3), (2, 4), (2, 5), \
    (2, 8), (3, 9), (3, 11), (7, 8)] history 41 0x4075d5de84eb6722 0x248381490d5dd1e7 \
    cache 1022/298 generations 40 completed";

const WARM: &str = "edges [(0, 1), (1, 5), (1, 8), (1, 9), (2, 3), (2, 7), (2, 8), (4, 8), \
    (6, 8)] history 41 0x4079e1d76a3161d1 0xb7c320e7b062719b cache 1075/245 generations 40 \
    completed";

#[test]
fn initialized_synthesis_is_pinned_to_the_bit() {
    let cfg = ColdConfig::quick(10, 4e-4, 10.0);
    assert_eq!(summary(&cfg.try_synthesize(2014).expect("synthesis")), INITIALIZED);
}

#[test]
fn ga_only_synthesis_in_context_is_pinned_to_the_bit() {
    let mut cfg = ColdConfig::quick(12, 1e-4, 10.0);
    cfg.mode = SynthesisMode::GaOnly;
    let r = cfg.synthesize_in_context(cfg.context.generate(77), 5);
    assert!(r.heuristic_costs.is_empty());
    assert_eq!(summary(&r), GA_ONLY);
}

/// Seed 9 on the quick n = 10 config, warm-started from another
/// synthesis' design.
fn warm_run(options: RunOptions<'_>) -> SynthesisResult {
    let cfg = ColdConfig::quick(10, 4e-4, 10.0);
    let parent = ColdConfig::quick(10, 1e-4, 0.0).synthesize(31).network.topology;
    let costs = ChangeCosts { add_cost: 2.0, remove_cost: 1.0, length_weight: 0.01 };
    let spec = TrialSpec::new(9, TrialObjective::Warm { parent, costs });
    cfg.run_trial(spec, options).expect("warm").into_single()
}

#[test]
fn warm_synthesis_is_pinned_to_the_bit() {
    assert_eq!(summary(&warm_run(RunOptions::default())), WARM);
}

#[test]
fn resumed_warm_synthesis_is_pinned_to_the_bit() {
    let mut snapshot: Option<GaCheckpoint> = None;
    let mut sink = |ckpt: GaCheckpoint| {
        if ckpt.generation == 20 {
            snapshot = Some(ckpt);
        }
    };
    let checkpoint = Some(CheckpointHook { every: 10, sink: &mut sink });
    let first = warm_run(RunOptions { checkpoint, ..RunOptions::default() });
    assert_eq!(summary(&first), WARM, "checkpointed");
    let resume = Some(snapshot.expect("a snapshot at generation 20"));
    let resumed = warm_run(RunOptions { resume, ..RunOptions::default() });
    assert_eq!(summary(&resumed), WARM, "resumed");
}

#[test]
fn two_step_plan_schedule_is_pinned_to_the_byte() {
    let plan = EvolutionPlan {
        base: ColdConfig::quick(9, 1e-4, 10.0),
        seed: 5,
        change_costs: ChangeCosts::uniform(1.0),
        steps: vec![PlanStep::AddPop { count: 2 }, PlanStep::ScaleTraffic { factor: 1.5 }],
    };
    let json = cold::run_plan(&plan).expect("plan").to_json();
    assert_eq!((json.len(), fnv1a64(json.as_bytes())), (13894, 0x356b2cfad0cd79ad));
}
