//! The evolution subsystem: warm-started incremental redesign over a
//! plan of context perturbations (DESIGN.md §17).
//!
//! Real networks are not designed once — they grow as traffic drifts,
//! PoPs are added and costs change. This module models that workload on
//! top of COLD's one-shot synthesis: an [`EvolutionPlan`] applies a
//! sequence of perturbations to a base [`ColdConfig`], and every step
//! *warm-starts* the GA from the previous step's design (the paper's own
//! operators perturb the parent chromosome instead of a random initial
//! population — see `cold_ga::init::warm_population`). A
//! [`ChangePenaltyObjective`] prices the rewiring itself, so the
//! optimizer trades design quality against operational churn exactly the
//! way an operator would.
//!
//! The output is a time-sliced [`TopologySchedule`]: one topology per
//! step plus its rewiring diff, cost breakdown and convergence stats.
//! Everything is a pure function of `(plan, seed)`, so schedules are
//! byte-identical across runs and across serial/parallel GA settings.

use crate::error::ColdError;
use crate::synthesizer::{ColdConfig, RunOptions, SynthesisResult, TrialObjective, TrialSpec};
use cold_context::rng::derive_seed;
use cold_ga::{Objective, ObjectiveSession};
use cold_graph::AdjacencyMatrix;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Salt mixed into a step seed to derive the warm GA stream (`"WA"`),
/// keeping warm runs on a random stream disjoint from the cold path's
/// `0x6741` GA salt and the context salt `0xC0`. Public so the
/// determinism tests can pin the derivation.
pub const WARM_SALT: u64 = 0x5741; // "WA"

/// Per-link rewiring prices for the change penalty.
///
/// The penalty charged for a candidate topology `t` against a parent
/// design `p` is
///
/// ```text
/// Σ_{links added}   (add_cost    + length_weight·ℓ)
/// + Σ_{links removed} (remove_cost + length_weight·ℓ)
/// ```
///
/// so with `length_weight = 0` and `add_cost = remove_cost = c` it is
/// exactly `c ×` the edit (Hamming) distance between the chromosomes —
/// zero iff `t == p` and monotone in the number of rewired links (pinned
/// by proptest).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChangeCosts {
    /// Flat cost per link built that the parent did not have.
    pub add_cost: f64,
    /// Flat cost per parent link retired.
    pub remove_cost: f64,
    /// Additional cost per unit fiber length of every changed link.
    pub length_weight: f64,
}

impl Default for ChangeCosts {
    fn default() -> Self {
        Self { add_cost: 0.0, remove_cost: 0.0, length_weight: 0.0 }
    }
}

impl ChangeCosts {
    /// Uniform per-edge pricing: `c` per changed link, no length term.
    pub fn uniform(c: f64) -> Self {
        Self { add_cost: c, remove_cost: c, length_weight: 0.0 }
    }

    /// Whether every component is zero (the penalty vanishes entirely).
    pub fn is_zero(&self) -> bool {
        self.add_cost == 0.0 && self.remove_cost == 0.0 && self.length_weight == 0.0
    }

    /// Checks all components are finite and non-negative.
    ///
    /// # Errors
    /// Names the offending component.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("add_cost", self.add_cost),
            ("remove_cost", self.remove_cost),
            ("length_weight", self.length_weight),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("change costs: {name} = {v} must be finite and >= 0"));
            }
        }
        Ok(())
    }
}

/// The rewiring penalty of `topology` against `parent` under `costs`,
/// with link lengths from `dist`. Pure function of its inputs — the
/// session and the reporting path both call it, which is what keeps the
/// delta-evaluated GA bit-identical to a stateless one.
pub fn change_penalty(
    parent: &AdjacencyMatrix,
    topology: &AdjacencyMatrix,
    costs: &ChangeCosts,
    dist: impl Fn(usize, usize) -> f64,
) -> f64 {
    assert_eq!(parent.n(), topology.n(), "change penalty needs same-size chromosomes");
    if costs.is_zero() {
        return 0.0;
    }
    let mut penalty = 0.0;
    for pair in 0..topology.pair_count() {
        let now = topology.bit(pair);
        let was = parent.bit(pair);
        if now == was {
            continue;
        }
        let flat = if now { costs.add_cost } else { costs.remove_cost };
        let (u, v) = topology.index_pair(pair);
        penalty += flat + costs.length_weight * dist(u, v);
    }
    penalty
}

/// An [`Objective`] overlay charging [`ChangeCosts`] for every link that
/// differs from a parent design, on top of any inner objective.
///
/// Mirrors `ResilientObjective`: the `session()` override wraps the
/// *inner* delta-evaluation session and adds the (cheap, pure) penalty
/// per call, so warm runs keep incremental evaluation — without it every
/// evaluation would silently pay for full APSP routing.
#[derive(Debug, Clone)]
pub struct ChangePenaltyObjective<O> {
    inner: O,
    parent: AdjacencyMatrix,
    costs: ChangeCosts,
}

impl<O: Objective> ChangePenaltyObjective<O> {
    /// Wraps `inner`, pricing changes against `parent`.
    ///
    /// # Panics
    /// Panics when the parent's node count differs from the objective's
    /// or when any cost component is negative or non-finite.
    pub fn new(inner: O, parent: AdjacencyMatrix, costs: ChangeCosts) -> Self {
        assert_eq!(parent.n(), inner.n(), "parent must match the objective's node count");
        if let Err(why) = costs.validate() {
            panic!("{why}");
        }
        Self { inner, parent, costs }
    }

    /// The parent design changes are priced against.
    pub fn parent(&self) -> &AdjacencyMatrix {
        &self.parent
    }

    /// The rewiring penalty of `topology` alone (no inner cost).
    pub fn penalty(&self, topology: &AdjacencyMatrix) -> f64 {
        change_penalty(&self.parent, topology, &self.costs, |u, v| self.inner.distance(u, v))
    }
}

impl<O: Objective> Objective for ChangePenaltyObjective<O> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn distance(&self, u: usize, v: usize) -> f64 {
        self.inner.distance(u, v)
    }
    fn cost(&self, topology: &AdjacencyMatrix) -> f64 {
        self.inner.cost(topology) + self.penalty(topology)
    }

    fn session(&self) -> Box<dyn ObjectiveSession + '_> {
        Box::new(ChangePenaltySession { inner: self.inner.session(), outer: self })
    }

    fn k_nearest(&self, k: usize) -> Vec<Vec<usize>> {
        self.inner.k_nearest(k)
    }
}

/// Per-worker session: the inner objective's incremental evaluation plus
/// the change penalty, recomputed per call as a pure function of the
/// topology — bit-identical to [`ChangePenaltyObjective::cost`].
struct ChangePenaltySession<'a, O: Objective> {
    inner: Box<dyn ObjectiveSession + 'a>,
    outer: &'a ChangePenaltyObjective<O>,
}

impl<O: Objective> ObjectiveSession for ChangePenaltySession<'_, O> {
    fn cost(&mut self, topology: &AdjacencyMatrix, base: Option<&AdjacencyMatrix>) -> f64 {
        self.inner.cost(topology, base) + self.outer.penalty(topology)
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

/// One perturbation of an [`EvolutionPlan`].
///
/// JSON form is `"kind"`-tagged (hand-rolled — the vendored serde derive
/// has no tag attribute): `{"kind":"add_pop","count":2}`,
/// `{"kind":"scale_traffic","factor":1.5}`,
/// `{"kind":"cost_change","k2":4e-4}` (absent `k*` keys leave the
/// component unchanged).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanStep {
    /// Append `count` new PoPs (locations and populations sampled from
    /// the base context model) and rebuild the gravity matrix.
    AddPop {
        /// New PoPs to add.
        count: usize,
    },
    /// Multiply every traffic demand by `factor`.
    ScaleTraffic {
        /// Traffic multiplier (> 0).
        factor: f64,
    },
    /// Override cost parameters; `None` leaves a component unchanged.
    CostChange {
        /// New link-existence cost `k0`.
        k0: Option<f64>,
        /// New per-length cost `k1`.
        k1: Option<f64>,
        /// New bandwidth-distance cost `k2`.
        k2: Option<f64>,
        /// New hub cost `k3`.
        k3: Option<f64>,
    },
}

impl PlanStep {
    /// The journal/schedule label for this perturbation kind.
    pub fn kind(&self) -> &'static str {
        match self {
            PlanStep::AddPop { .. } => "add_pop",
            PlanStep::ScaleTraffic { .. } => "scale_traffic",
            PlanStep::CostChange { .. } => "cost_change",
        }
    }
}

impl Serialize for PlanStep {
    fn to_json_value(&self) -> Value {
        let mut m = serde_json::Map::new();
        m.insert("kind".into(), Value::String(self.kind().into()));
        match self {
            PlanStep::AddPop { count } => {
                m.insert("count".into(), count.to_json_value());
            }
            PlanStep::ScaleTraffic { factor } => {
                m.insert("factor".into(), factor.to_json_value());
            }
            PlanStep::CostChange { k0, k1, k2, k3 } => {
                for (name, v) in [("k0", k0), ("k1", k1), ("k2", k2), ("k3", k3)] {
                    if let Some(v) = v {
                        m.insert(name.into(), v.to_json_value());
                    }
                }
            }
        }
        Value::Object(m)
    }
}

impl Deserialize for PlanStep {
    fn from_json_value(v: &Value) -> Option<Self> {
        let obj = v.as_object()?;
        match obj.get("kind")?.as_str()? {
            "add_pop" => Some(PlanStep::AddPop { count: obj.get("count")?.as_u64()? as usize }),
            "scale_traffic" => {
                Some(PlanStep::ScaleTraffic { factor: obj.get("factor")?.as_f64()? })
            }
            "cost_change" => {
                let field = |name: &str| -> Option<Option<f64>> {
                    match obj.get(name) {
                        None | Some(Value::Null) => Some(None),
                        Some(v) => v.as_f64().map(Some),
                    }
                };
                Some(PlanStep::CostChange {
                    k0: field("k0")?,
                    k1: field("k1")?,
                    k2: field("k2")?,
                    k3: field("k3")?,
                })
            }
            _ => None,
        }
    }
}

/// A sequence of perturbations applied to a base configuration, each
/// followed by a warm-started re-synthesis.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EvolutionPlan {
    /// The configuration step 0 synthesizes cold.
    pub base: ColdConfig,
    /// Master seed; every step derives its streams from it.
    pub seed: u64,
    /// Rewiring prices charged on every warm step.
    pub change_costs: ChangeCosts,
    /// The perturbations, applied in order.
    pub steps: Vec<PlanStep>,
}

impl Deserialize for EvolutionPlan {
    fn from_json_value(v: &Value) -> Option<Self> {
        let obj = v.as_object()?;
        // `change_costs` may be omitted (penalty-free plan).
        let change_costs = match obj.get("change_costs") {
            None | Some(Value::Null) => ChangeCosts::default(),
            Some(v) => ChangeCosts::from_json_value(v)?,
        };
        Some(Self {
            base: ColdConfig::from_json_value(obj.get("base")?)?,
            seed: obj.get("seed")?.as_u64()?,
            change_costs,
            steps: Vec::from_json_value(obj.get("steps")?)?,
        })
    }
}

impl EvolutionPlan {
    /// Parses a plan from its JSON document form.
    ///
    /// # Errors
    /// [`ColdError::Config`] describing the parse failure.
    pub fn from_json(text: &str) -> Result<Self, ColdError> {
        serde_json::from_str(text).map_err(|e| ColdError::Config(format!("evolution plan: {e}")))
    }

    /// Serializes the plan as a JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plan serialization is infallible")
    }

    /// Validates the base config, change costs and every step.
    ///
    /// # Errors
    /// [`ColdError::Config`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), ColdError> {
        self.base.validate()?;
        self.change_costs.validate().map_err(ColdError::Config)?;
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                PlanStep::AddPop { count } => {
                    if *count == 0 {
                        return Err(ColdError::Config(format!(
                            "step {i}: add_pop count must be >= 1"
                        )));
                    }
                }
                PlanStep::ScaleTraffic { factor } => {
                    if !factor.is_finite() || *factor <= 0.0 {
                        return Err(ColdError::Config(format!(
                            "step {i}: traffic factor {factor} must be finite and > 0"
                        )));
                    }
                }
                PlanStep::CostChange { k0, k1, k2, k3 } => {
                    for (name, v) in [("k0", k0), ("k1", k1), ("k2", k2), ("k3", k3)] {
                        if let Some(v) = v {
                            if !v.is_finite() || *v < 0.0 {
                                return Err(ColdError::Config(format!(
                                    "step {i}: {name} = {v} must be finite and >= 0"
                                )));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Links rewired by one evolution step, relative to its parent design.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RewiringDiff {
    /// Links built that the parent did not have (`u < v`).
    pub added: Vec<(usize, usize)>,
    /// Parent links retired (`u < v`).
    pub removed: Vec<(usize, usize)>,
    /// Parent links kept.
    pub kept: usize,
    /// The [`ChangeCosts`] penalty of the step's final design.
    pub change_penalty: f64,
}

/// Convergence accounting for one step's GA run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepConvergence {
    /// Whether the step warm-started from the previous design (step 0 is
    /// always cold).
    pub warm: bool,
    /// Generations the GA actually ran.
    pub generations_run: usize,
    /// Objective evaluations requested.
    pub evaluations: usize,
    /// Final best objective value (includes the change penalty on warm
    /// steps).
    pub best_cost: f64,
    /// Why the GA returned, e.g. `"Completed"`.
    pub stop_reason: String,
}

/// One time slice of a [`TopologySchedule`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleStep {
    /// Zero-based step index (0 = the cold base synthesis).
    pub step: usize,
    /// Perturbation kind (`"base"` for step 0).
    pub kind: String,
    /// PoP count after the perturbation.
    pub n: usize,
    /// Full COLD cost of the step's network (no change penalty).
    pub network_cost: f64,
    /// The network document (`cold::export::to_json` shape: PoPs, links
    /// with loads/capacities, cost breakdown).
    pub topology: Value,
    /// Rewiring relative to the previous step (empty for step 0).
    pub diff: RewiringDiff,
    /// GA convergence stats for this step.
    pub convergence: StepConvergence,
}

/// The time-sliced output of [`run_plan`]: one topology per plan step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologySchedule {
    /// The plan's master seed.
    pub seed: u64,
    /// The rewiring prices the plan ran with.
    pub change_costs: ChangeCosts,
    /// One entry per step, in order (steps.len() == plan.steps.len() + 1).
    pub steps: Vec<ScheduleStep>,
}

impl TopologySchedule {
    /// Serializes the schedule as a JSON document. Deterministic: the
    /// same plan and seed produce byte-identical text.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("schedule serialization is infallible")
    }

    /// Parses a schedule back from its JSON document form.
    ///
    /// # Errors
    /// [`ColdError::Config`] describing the parse failure.
    pub fn from_json(text: &str) -> Result<Self, ColdError> {
        serde_json::from_str(text).map_err(|e| ColdError::Config(format!("topology schedule: {e}")))
    }

    /// Total links rewired (added + removed) across all warm steps.
    pub fn total_rewired(&self) -> usize {
        self.steps.iter().map(|s| s.diff.added.len() + s.diff.removed.len()).sum()
    }
}

/// Embeds `parent` (defined on the first `parent.n()` PoPs) into a
/// possibly larger node set; new PoPs start with no links. This is how a
/// warm start crosses an `add_pop` boundary — and how `cold-serve` seeds
/// a child evolve job from a smaller parent design.
///
/// # Panics
/// Panics when `n < parent.n()` (evolution never shrinks the node set).
pub fn embed_parent(parent: &AdjacencyMatrix, n: usize) -> AdjacencyMatrix {
    assert!(n >= parent.n(), "embedding cannot shrink the node set");
    if n == parent.n() {
        return parent.clone();
    }
    let mut m = AdjacencyMatrix::empty(n);
    for (u, v) in parent.edges() {
        m.set_edge(u, v, true);
    }
    m
}

fn diff(parent: &AdjacencyMatrix, child: &AdjacencyMatrix, penalty: f64) -> RewiringDiff {
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let mut kept = 0usize;
    for (u, v) in child.edges() {
        if parent.has_edge(u, v) {
            kept += 1;
        } else {
            added.push((u, v));
        }
    }
    for (u, v) in parent.edges() {
        if !child.has_edge(u, v) {
            removed.push((u, v));
        }
    }
    RewiringDiff { added, removed, kept, change_penalty: penalty }
}

/// One schedule entry; journals its `evolution_step` event when
/// telemetry is active.
fn schedule_step(
    plan: &EvolutionPlan,
    step: usize,
    kind: &str,
    result: &SynthesisResult,
    diff: RewiringDiff,
) -> ScheduleStep {
    let doc: Value =
        serde_json::from_str(&crate::export::to_json(&result.network, &result.context))
            .expect("export::to_json emits valid JSON");
    let best_cost = *result.best_cost_history.last().expect("GA ran >= 1 generation");
    if cold_obs::is_enabled() {
        cold_obs::emit(&cold_obs::Event::EvolutionStep(cold_obs::EvolutionStep {
            run: cold_obs::run_id(plan.seed),
            step,
            kind: kind.into(),
            n: result.context.n(),
            best_cost,
            generations: result.generations_run,
        }));
    }
    ScheduleStep {
        step,
        kind: kind.to_string(),
        n: result.context.n(),
        network_cost: result.network.total_cost(),
        topology: doc,
        diff,
        convergence: StepConvergence {
            warm: step > 0,
            generations_run: result.generations_run,
            evaluations: result.evaluations,
            best_cost,
            stop_reason: format!("{:?}", result.stop_reason),
        },
    }
}

/// Runs an evolution plan: a cold base synthesis, then one warm-started
/// re-synthesis per perturbation, emitting an `evolution_step` journal
/// event per step when telemetry is active.
///
/// # Errors
/// [`ColdError::Config`] for an invalid plan, plus anything the
/// underlying syntheses return.
pub fn run_plan(plan: &EvolutionPlan) -> Result<TopologySchedule, ColdError> {
    plan.validate()?;
    let _span = cold_obs::span("core.evolve");
    // Step 0: the cold base synthesis.
    let base = plan.base.try_synthesize(plan.seed)?;
    let mut steps = vec![schedule_step(plan, 0, "base", &base, RewiringDiff::default())];
    let mut config = plan.base;
    let mut ctx = base.context;
    let mut parent = base.network.topology;
    for (i, step) in plan.steps.iter().enumerate() {
        let idx = i + 1;
        let step_seed = derive_seed(plan.seed, idx as u64);
        match step {
            PlanStep::AddPop { count } => {
                ctx = crate::evolution::grow_context(&ctx, &config.context, *count, step_seed);
                config.context.n += count;
            }
            PlanStep::ScaleTraffic { factor } => {
                ctx.traffic.scale(*factor);
            }
            PlanStep::CostChange { k0, k1, k2, k3 } => {
                let p = &mut config.params;
                for (v, k) in [(k0, &mut p.k0), (k1, &mut p.k1), (k2, &mut p.k2), (k3, &mut p.k3)] {
                    *k = v.unwrap_or(*k);
                }
            }
        }
        let embedded = embed_parent(&parent, ctx.n());
        let objective = TrialObjective::Warm { parent: embedded.clone(), costs: plan.change_costs };
        let spec = TrialSpec { seed: step_seed, context: Some(ctx), objective };
        let result = config.run_trial(spec, RunOptions::default())?;
        let penalty =
            change_penalty(&embedded, &result.network.topology, &plan.change_costs, |u, v| {
                result.context.distance(u, v)
            });
        let d = diff(&embedded, &result.network.topology, penalty);
        steps.push(schedule_step(plan, idx, step.kind(), &result, d));
        parent = result.network.topology;
        ctx = result.context;
    }
    Ok(TopologySchedule { seed: plan.seed, change_costs: plan.change_costs, steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::ColdObjective;
    use crate::ColdConfig;

    fn quick_plan(n: usize, seed: u64) -> EvolutionPlan {
        EvolutionPlan {
            base: ColdConfig::quick(n, 1e-4, 10.0),
            seed,
            change_costs: ChangeCosts::uniform(1.0),
            steps: vec![
                PlanStep::AddPop { count: 2 },
                PlanStep::ScaleTraffic { factor: 1.5 },
                PlanStep::CostChange { k0: None, k1: None, k2: Some(4e-4), k3: None },
            ],
        }
    }

    #[test]
    fn change_penalty_is_zero_on_parent_and_counts_edits() {
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let ctx = cfg.context.generate(1);
        let parent = cold_graph::mst::mst_matrix(8, ctx.distance_fn());
        let obj = ChangePenaltyObjective::new(
            ColdObjective::new(&ctx, cfg.params),
            parent.clone(),
            ChangeCosts::uniform(5.0),
        );
        assert_eq!(obj.penalty(&parent), 0.0);
        // Add one link the MST does not have: penalty = one add_cost, and
        // the topology stays connected so the inner cost is defined.
        let (u, v) = (0..8)
            .flat_map(|u| (u + 1..8).map(move |v| (u, v)))
            .find(|&(u, v)| !parent.has_edge(u, v))
            .expect("a tree on 8 nodes is not complete");
        let mut child = parent.clone();
        child.set_edge(u, v, true);
        assert!((obj.penalty(&child) - 5.0).abs() < 1e-12);
        let plain = ColdObjective::new(&ctx, cfg.params);
        assert!((obj.cost(&child) - (plain.cost(&child) + 5.0)).abs() < 1e-9);
    }

    #[test]
    fn length_weight_prices_fiber_distance() {
        let cfg = ColdConfig::quick(6, 1e-4, 0.0);
        let ctx = cfg.context.generate(2);
        let parent = cold_graph::mst::mst_matrix(6, ctx.distance_fn());
        let costs = ChangeCosts { add_cost: 1.0, remove_cost: 0.0, length_weight: 2.0 };
        let obj = ChangePenaltyObjective::new(
            ColdObjective::new(&ctx, cfg.params),
            parent.clone(),
            costs,
        );
        let (u, v) = (0..6)
            .flat_map(|u| (u + 1..6).map(move |v| (u, v)))
            .find(|&(u, v)| !parent.has_edge(u, v))
            .expect("a tree on 6 nodes is not complete");
        let mut child = parent.clone();
        child.set_edge(u, v, true);
        let expected = 1.0 + 2.0 * ctx.distance(u, v);
        assert!((obj.penalty(&child) - expected).abs() < 1e-9);
    }

    #[test]
    fn session_cost_is_bit_identical_to_objective_cost() {
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let ctx = cfg.context.generate(3);
        let parent = cold_graph::mst::mst_matrix(8, ctx.distance_fn());
        let obj = ChangePenaltyObjective::new(
            ColdObjective::new(&ctx, cfg.params),
            parent.clone(),
            ChangeCosts { add_cost: 3.0, remove_cost: 7.0, length_weight: 0.5 },
        );
        let mut session = obj.session();
        assert_eq!(session.cost(&parent, None), obj.cost(&parent));
        let (u, v) = (0..8)
            .flat_map(|u| (u + 1..8).map(move |v| (u, v)))
            .find(|&(u, v)| !parent.has_edge(u, v))
            .expect("a tree on 8 nodes is not complete");
        let mut child = parent.clone();
        child.set_edge(u, v, true);
        // Delta path against the cached base must land on the same bits.
        assert_eq!(session.cost(&child, Some(&parent)), obj.cost(&child));
        assert!(session.delta_evals() > 0, "second eval must take the delta path");
    }

    #[test]
    fn warm_runs_use_delta_evaluation() {
        // Regression guard mirroring the resilient overlay: without the
        // session() override every warm evaluation would full-eval.
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let ctx = cfg.context.generate(4);
        let parent = cold_graph::mst::mst_matrix(8, ctx.distance_fn());
        let objective = TrialObjective::Warm { parent, costs: ChangeCosts::uniform(1.0) };
        let r = cfg
            .run_trial(TrialSpec { seed: 9, context: Some(ctx), objective }, RunOptions::default())
            .unwrap();
        assert!(
            r.eval_stats.delta_evals > 0,
            "warm run performed no delta evals: {:?}",
            r.eval_stats
        );
    }

    #[test]
    fn warm_synthesis_shares_the_cold_context() {
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let cold = cfg.synthesize(21);
        let objective = TrialObjective::Warm {
            parent: cold.network.topology.clone(),
            costs: ChangeCosts::default(),
        };
        let warm = cfg.run_trial(TrialSpec::new(21, objective), RunOptions::default()).unwrap();
        assert_eq!(
            warm.context, cold.context,
            "same (config, seed) must optimize the same context"
        );
        // Elitism + parent-as-member-0: the warm best can never be worse.
        assert!(warm.best_cost() <= cold.best_cost() + 1e-9);
    }

    #[test]
    fn mismatched_parent_is_a_config_error() {
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let parent = AdjacencyMatrix::complete(5);
        let objective = TrialObjective::Warm { parent, costs: ChangeCosts::default() };
        let err = cfg.run_trial(TrialSpec::new(1, objective), RunOptions::default()).unwrap_err();
        assert!(matches!(err, ColdError::Config(_)), "got {err:?}");
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = quick_plan(10, 77);
        let text = plan.to_json();
        let back = EvolutionPlan::from_json(&text).unwrap();
        assert_eq!(back, plan);
        // Step kinds use the documented snake_case tags.
        assert!(text.contains("\"add_pop\"") && text.contains("\"scale_traffic\""));
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let mut plan = quick_plan(8, 1);
        plan.steps[0] = PlanStep::AddPop { count: 0 };
        assert!(matches!(plan.validate(), Err(ColdError::Config(_))));
        let mut plan = quick_plan(8, 1);
        plan.steps[1] = PlanStep::ScaleTraffic { factor: -2.0 };
        assert!(matches!(plan.validate(), Err(ColdError::Config(_))));
        let mut plan = quick_plan(8, 1);
        plan.change_costs.add_cost = f64::NAN;
        assert!(matches!(plan.validate(), Err(ColdError::Config(_))));
    }

    #[test]
    fn run_plan_produces_a_coherent_schedule() {
        let plan = quick_plan(9, 5);
        let schedule = run_plan(&plan).unwrap();
        assert_eq!(schedule.steps.len(), 4);
        assert_eq!(schedule.steps[0].kind, "base");
        assert!(!schedule.steps[0].convergence.warm);
        assert_eq!(schedule.steps[1].kind, "add_pop");
        assert_eq!(schedule.steps[1].n, 11, "add_pop must grow the context");
        for s in &schedule.steps[1..] {
            assert!(s.convergence.warm);
            assert!(s.network_cost > 0.0);
            // Diff accounting: kept + added = links of this step's design.
            let links = s.topology["links"].as_array().expect("export doc carries links").len();
            assert_eq!(s.diff.kept + s.diff.added.len(), links);
            assert!(s.diff.change_penalty >= 0.0);
        }
        // Uniform unit change costs: penalty == rewired link count.
        let s1 = &schedule.steps[1];
        assert!(
            (s1.diff.change_penalty - (s1.diff.added.len() + s1.diff.removed.len()) as f64).abs()
                < 1e-9
        );
    }

    #[test]
    fn schedules_are_byte_identical_and_parallel_invariant() {
        let plan = quick_plan(8, 13);
        let a = run_plan(&plan).unwrap().to_json();
        let b = run_plan(&plan).unwrap().to_json();
        assert_eq!(a, b, "same plan + seed must reproduce the schedule byte-for-byte");
        let mut parallel = plan.clone();
        parallel.base.ga.parallel = !plan.base.ga.parallel;
        let c = run_plan(&parallel).unwrap().to_json();
        assert_eq!(a, c, "serial and parallel evaluation must agree bit-for-bit");
        let mut other = plan.clone();
        other.seed = 14;
        let d = run_plan(&other).unwrap().to_json();
        assert_ne!(a, d, "a different seed must change the schedule");
    }

    #[test]
    fn schedule_round_trips_through_json() {
        let plan = EvolutionPlan {
            base: ColdConfig::quick(8, 1e-4, 10.0),
            seed: 3,
            change_costs: ChangeCosts::uniform(0.5),
            steps: vec![PlanStep::ScaleTraffic { factor: 2.0 }],
        };
        let schedule = run_plan(&plan).unwrap();
        let back = TopologySchedule::from_json(&schedule.to_json()).unwrap();
        assert_eq!(back, schedule);
    }
}
