//! Campaigns: the one local trial loop, and its crash-safe checkpoints.
//!
//! A *campaign* is `count` trials of one objective with per-trial seeds
//! `derive_seed(master_seed, i)`, committed in trial order by
//! [`run_campaign`] — every ensemble, `cold-gen` run and served job. The
//! checkpoint design exploits that everything a trial produces is a pure
//! function of `(config, seed)`: a [`TrialRecord`] stores only the small
//! deterministic outputs (topology edges, history, counters) and
//! [`TrialRecord::rebuild`] reconstructs the full [`SynthesisResult`] —
//! context, capacitated network, statistics — by re-deriving them, which
//! costs milliseconds instead of a GA run.
//!
//! Snapshots are single JSON documents written atomically (temp file +
//! rename in the destination directory), so a crash mid-write leaves the
//! previous snapshot intact, never a truncated one. See DESIGN.md §10.

use crate::error::ColdError;
use crate::evolve::ChangeCosts;
use crate::pareto::ParetoFrontMember;
use crate::synthesizer::{
    contain, run_attempt, AttemptOptions, ColdConfig, EnsembleOutcome, ProgressSink,
    SynthesisResult, TrialFailure, TrialObjective, TrialRunner, TrialSpec, CONTEXT_SALT,
    RETRY_SALT,
};
use cold_context::rng::derive_seed;
use cold_cost::Network;
use cold_graph::AdjacencyMatrix;
use serde::{Deserialize as _, Serialize as _};
use serde_json::{json, Value};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// The deterministic outputs of one completed trial — everything needed
/// to reproduce its [`SynthesisResult`] without re-running the GA.
///
/// `eval_seconds` inside [`eval_stats`](Self::eval_stats) is the one
/// wall-clock field: it round-trips exactly through the checkpoint (so a
/// resumed campaign reports the time the original leg actually spent) but
/// is exempt from bit-identity comparisons against an uninterrupted run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Zero-based trial index within the campaign.
    pub trial: usize,
    /// The per-trial seed (`derive_seed(master_seed, trial)`).
    pub seed: u64,
    /// Node count of the synthesized topology.
    pub n: usize,
    /// Edges of the best topology, ascending.
    pub edges: Vec<(usize, usize)>,
    /// Best cost per generation.
    pub best_cost_history: Vec<f64>,
    /// Final GA population costs, ascending.
    pub final_population_costs: Vec<f64>,
    /// `(heuristic name, cost)` pairs (initialized mode only).
    pub heuristic_costs: Vec<(String, f64)>,
    /// Objective evaluations requested.
    pub evaluations: usize,
    /// Fitness-cache counters and wall-clock evaluation time.
    pub eval_stats: cold_ga::EvalStats,
    /// Fraction of offspring needing connectivity repair.
    pub repair_rate: f64,
    /// Generations actually run.
    pub generations_run: usize,
    /// Why the trial's GA run returned (completion, early stop, or the
    /// stall guard), serialized as its wire name.
    pub stop_reason: cold_ga::StopReason,
    /// A Pareto trial's front. Empty for scalar trials, whose records
    /// carry none of the three Pareto keys.
    pub front: Vec<FrontRecord>,
    /// A Pareto trial's archive hypervolume per generation.
    pub hypervolume_history: Vec<f64>,
    /// A Pareto trial's hypervolume reference point.
    pub reference: Vec<f64>,
}

/// One Pareto front member of a [`TrialRecord`]: its edges, ascending,
/// and its objective vector.
pub type FrontRecord = (Vec<(usize, usize)>, Vec<f64>);

impl TrialRecord {
    /// Distills a completed trial into its checkpointable form.
    pub fn from_result(trial: usize, seed: u64, r: &SynthesisResult) -> Self {
        Self {
            trial,
            seed,
            n: r.network.topology.n(),
            edges: r.network.topology.edges().collect(),
            best_cost_history: r.best_cost_history.clone(),
            final_population_costs: r.final_population_costs.clone(),
            heuristic_costs: r.heuristic_costs.clone(),
            evaluations: r.evaluations,
            eval_stats: r.eval_stats,
            repair_rate: r.repair_rate,
            generations_run: r.generations_run,
            stop_reason: r.stop_reason,
            front: r
                .front
                .iter()
                .map(|m| (m.network.topology.edges().collect(), m.objectives.clone()))
                .collect(),
            hypervolume_history: r.hypervolume_history.clone(),
            reference: r.reference.clone(),
        }
    }

    /// Reconstructs the full [`SynthesisResult`] by re-deriving the
    /// deterministic parts: the context is regenerated from the seed, the
    /// network and every front member rebuilt (capacities, routes, cost)
    /// from the stored edges, and the statistics recomputed.
    /// Bit-identical to the original for every deterministic field.
    ///
    /// # Errors
    /// [`ColdError::Checkpoint`] when the stored topology does not fit
    /// the config (node-count mismatch, invalid edge, disconnected).
    pub fn rebuild(&self, config: &ColdConfig) -> Result<SynthesisResult, ColdError> {
        let fail = |why: String| ColdError::Checkpoint(format!("trial {}: {why}", self.trial));
        if self.n != config.context.n {
            let n = config.context.n;
            return Err(fail(format!("topology has {} nodes, config expects {n}", self.n)));
        }
        let ctx = config.context.generate(derive_seed(self.seed, CONTEXT_SALT));
        let build = |edges: &[(usize, usize)]| {
            let topology = AdjacencyMatrix::from_edges(self.n, edges)
                .map_err(|e| fail(format!("bad topology: {e:?}")))?;
            Network::build(topology, &ctx, config.params)
                .map_err(|e| fail(format!("stored topology unusable: {e:?}")))
        };
        let network = build(&self.edges)?;
        let member = |(edges, objectives): &FrontRecord| {
            Ok(ParetoFrontMember { network: build(edges)?, objectives: objectives.clone() })
        };
        let front = self.front.iter().map(member).collect::<Result<_, ColdError>>()?;
        let stats = crate::stats::NetworkStats::compute(&network.graph())
            .expect("network built above is connected");
        Ok(SynthesisResult {
            journal_path: cold_obs::journal_path(),
            context: ctx,
            network,
            stats,
            best_cost_history: self.best_cost_history.clone(),
            final_population_costs: self.final_population_costs.clone(),
            heuristic_costs: self.heuristic_costs.clone(),
            evaluations: self.evaluations,
            eval_stats: self.eval_stats,
            repair_rate: self.repair_rate,
            generations_run: self.generations_run,
            stop_reason: self.stop_reason,
            front,
            hypervolume_history: self.hypervolume_history.clone(),
            reference: self.reference.clone(),
        })
    }

    /// The record's JSON object form — the same shape embedded in a
    /// [`CampaignCheckpoint`], public so the distributed protocol can
    /// ship single trial results over the wire.
    pub fn to_value(&self) -> Value {
        let mut v = json!({
            "trial": self.trial,
            "seed": self.seed,
            "n": self.n,
            "edges": edges_value(&self.edges),
            "best_cost_history": self.best_cost_history,
            "final_population_costs": self.final_population_costs,
            "heuristic_costs": Value::Array(
                self.heuristic_costs
                    .iter()
                    .map(|(name, cost)| json!({ "name": name, "cost": *cost }))
                    .collect()
            ),
            "evaluations": self.evaluations,
            "eval_stats": {
                "requested": self.eval_stats.requested,
                "cache_hits": self.eval_stats.cache_hits,
                "cache_misses": self.eval_stats.cache_misses,
                "eval_seconds": self.eval_stats.eval_seconds,
                "delta_evals": self.eval_stats.delta_evals,
                "full_evals": self.eval_stats.full_evals,
                "arcs_scanned": self.eval_stats.arcs_scanned,
            },
            "repair_rate": self.repair_rate,
            "generations_run": self.generations_run,
            "stop_reason": self.stop_reason.as_str(),
        });
        if let (false, Value::Object(map)) = (self.front.is_empty(), &mut v) {
            let front = self.front.iter().map(|(edges, objectives)| {
                json!({ "edges": edges_value(edges), "objectives": objectives })
            });
            map.insert("front".into(), Value::Array(front.collect()));
            map.insert("hypervolume_history".into(), json!(self.hypervolume_history));
            map.insert("reference".into(), json!(self.reference));
        }
        v
    }

    /// Parses and schema-validates a record from its JSON object form.
    ///
    /// # Errors
    /// A human-readable message naming the first missing or mistyped
    /// field.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let mut front = Vec::new();
        if let Some(members) = v.get("front") {
            for m in members.as_array().ok_or("trial: `front` is not an array")? {
                front.push((edges_field(m)?, f64_array(m, "objectives")?));
            }
        }
        let pareto_array = |key| v.get(key).map_or(Ok(Vec::new()), |_| f64_array(v, key));
        let heuristic =
            |h: &Value| Some((h.get("name")?.as_str()?.to_string(), h.get("cost")?.as_f64()?));
        let heuristic_costs = v
            .get("heuristic_costs")
            .and_then(Value::as_array)
            .ok_or("trial: `heuristic_costs` missing")?
            .iter()
            .map(|h| heuristic(h).ok_or("trial: heuristic name or cost missing"))
            .collect::<Result<_, _>>()?;
        let es = v.get("eval_stats").ok_or("trial: `eval_stats` missing")?;
        Ok(Self {
            trial: usize_field(v, "trial")?,
            seed: v.get("seed").and_then(Value::as_u64).ok_or("trial: `seed` missing")?,
            n: usize_field(v, "n")?,
            edges: edges_field(v)?,
            best_cost_history: f64_array(v, "best_cost_history")?,
            final_population_costs: f64_array(v, "final_population_costs")?,
            heuristic_costs,
            evaluations: usize_field(v, "evaluations")?,
            eval_stats: cold_ga::EvalStats {
                requested: usize_field(es, "requested")?,
                cache_hits: usize_field(es, "cache_hits")?,
                cache_misses: usize_field(es, "cache_misses")?,
                eval_seconds: f64_field(es, "eval_seconds")?,
                // Lenient: checkpoints written before the delta/full split
                // existed simply report zeros.
                delta_evals: es.get("delta_evals").and_then(Value::as_u64).unwrap_or(0) as usize,
                full_evals: es.get("full_evals").and_then(Value::as_u64).unwrap_or(0) as usize,
                arcs_scanned: es.get("arcs_scanned").and_then(Value::as_u64).unwrap_or(0),
            },
            repair_rate: f64_field(v, "repair_rate")?,
            generations_run: usize_field(v, "generations_run")?,
            stop_reason: v
                .get("stop_reason")
                .and_then(Value::as_str)
                .and_then(cold_ga::StopReason::parse)
                .ok_or("trial: `stop_reason` missing or unknown")?,
            front,
            hypervolume_history: pareto_array("hypervolume_history")?,
            reference: pareto_array("reference")?,
        })
    }
}

/// The edge-list codec of trial records and warm parents:
/// `[[u, v], …]`.
fn edges_value(edges: &[(usize, usize)]) -> Value {
    Value::Array(edges.iter().map(|&(u, v)| json!([u, v])).collect())
}

/// Parses the `edges` field of `v` written by [`edges_value`].
fn edges_field(v: &Value) -> Result<Vec<(usize, usize)>, String> {
    let mut edges = Vec::new();
    for e in v.get("edges").and_then(Value::as_array).ok_or("trial: `edges` missing")? {
        let pair = e.as_array().filter(|p| p.len() == 2).ok_or("trial: edge is not a pair")?;
        let u = pair[0].as_u64().ok_or("trial: edge endpoint not an integer")? as usize;
        let w = pair[1].as_u64().ok_or("trial: edge endpoint not an integer")? as usize;
        edges.push((u, w));
    }
    Ok(edges)
}

fn usize_field(v: &Value, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .map(|u| u as usize)
        .ok_or_else(|| format!("field `{key}` missing or not a nonnegative integer"))
}

fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("field `{key}` missing or not a number"))
}

fn f64_array(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("field `{key}` missing or not an array"))?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| format!("`{key}` entry is not a number")))
        .collect()
}

/// What a campaign is: `count` trials of `objective` under `config`,
/// trial `i` seeded `derive_seed(master_seed, i)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// The configuration every trial runs under.
    pub config: ColdConfig,
    /// What every trial minimizes.
    pub objective: TrialObjective,
    /// Master seed; trial `i` runs with `derive_seed(master_seed, i)`.
    pub master_seed: u64,
    /// Total trials in the campaign.
    pub count: usize,
}

impl Campaign {
    /// A campaign of `count` cost trials.
    pub fn new(config: ColdConfig, master_seed: u64, count: usize) -> Self {
        Self { config, objective: TrialObjective::Cost, master_seed, count }
    }

    /// Checks the configuration and the objective before any trial runs.
    ///
    /// # Errors
    /// [`ColdError::Config`] for an invalid configuration or objective
    /// parameters (a bridge cost, a warm parent or its change costs).
    pub fn validate(&self) -> Result<(), ColdError> {
        self.config.validate()?;
        self.objective.validate(self.config.context.n)
    }
}

/// The seed of attempt `attempt` (1-based) at trial `trial` of the
/// campaign on `master_seed`: the first attempt runs
/// `derive_seed(master_seed, trial)`, every later one the salted
/// `derive_seed(derive_seed(master_seed, RETRY_SALT), trial)`.
pub fn attempt_seed(master_seed: u64, trial: usize, attempt: usize) -> u64 {
    let master = if attempt <= 1 { master_seed } else { derive_seed(master_seed, RETRY_SALT) };
    derive_seed(master, trial as u64)
}

/// A trial objective's JSON form, `None` for cost: `{"kind":
/// "resilient", "bridge_cost"}`, `{"kind": "pareto", "archive"}` or
/// `{"kind": "warm", "parent": {"n", "edges"}, "costs"}`. Campaign
/// snapshots and lease grants carry it under an `objective` key, which
/// a cost campaign or grant omits.
pub fn objective_value(objective: &TrialObjective) -> Option<Value> {
    Some(match objective {
        TrialObjective::Cost => return None,
        TrialObjective::Resilient { bridge_cost } => {
            json!({ "kind": "resilient", "bridge_cost": *bridge_cost })
        }
        TrialObjective::Pareto { archive } => json!({ "kind": "pareto", "archive": *archive }),
        TrialObjective::Warm { parent, costs } => json!({
            "kind": "warm",
            "parent": { "n": parent.n(), "edges": edges_value(&parent.edges().collect::<Vec<_>>()) },
            "costs": costs.to_json_value(),
        }),
    })
}

/// Parses [`objective_value`]'s form for trials on `n` nodes, an absent
/// key (`None`) being cost; a warm parent of another size is rejected
/// before its matrix is allocated.
pub fn objective_from_value(o: Option<&Value>, n: usize) -> Option<TrialObjective> {
    let Some(o) = o else { return Some(TrialObjective::Cost) };
    match o.get("kind")?.as_str()? {
        "resilient" => {
            Some(TrialObjective::Resilient { bridge_cost: o.get("bridge_cost")?.as_f64()? })
        }
        "pareto" => Some(TrialObjective::Pareto { archive: o.get("archive")?.as_u64()? as usize }),
        "warm" => {
            let parent =
                o.get("parent").filter(|p| p.get("n").and_then(Value::as_u64) == Some(n as u64))?;
            Some(TrialObjective::Warm {
                parent: AdjacencyMatrix::from_edges(n, &edges_field(parent).ok()?).ok()?,
                costs: ChangeCosts::from_json_value(o.get("costs")?)?,
            })
        }
        _ => None,
    }
}

/// A resumable snapshot of a campaign: its identity plus the completed
/// prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// The configuration the campaign runs under. A resume validates this
    /// against the caller's config — silently continuing a campaign with
    /// different parameters would poison the ensemble.
    pub config: ColdConfig,
    /// The campaign's objective, validated on resume like the config.
    pub objective: TrialObjective,
    /// Master seed; trial `i` runs with `derive_seed(master_seed, i)`.
    pub master_seed: u64,
    /// Total trials in the campaign.
    pub count: usize,
    /// Completed trials, a prefix `0..records.len()` of the campaign.
    pub records: Vec<TrialRecord>,
}

impl CampaignCheckpoint {
    /// The snapshot of `campaign` before any trial completed.
    pub fn new(campaign: &Campaign) -> Self {
        let Campaign { config, objective, master_seed, count } = campaign.clone();
        Self { config, objective, master_seed, count, records: Vec::new() }
    }

    /// Converts the snapshot into its JSON object form. A cost campaign
    /// has no `objective` key.
    pub fn to_value(&self) -> Value {
        let mut v = json!({
            "kind": "cold-campaign-checkpoint",
            "version": 1u64,
            "config": self.config.to_json_value(),
            "master_seed": self.master_seed,
            "count": self.count,
            "records": Value::Array(self.records.iter().map(TrialRecord::to_value).collect()),
        });
        if let (Some(objective), Value::Object(map)) = (objective_value(&self.objective), &mut v) {
            map.insert("objective".into(), objective);
        }
        v
    }

    /// Parses and schema-validates a snapshot.
    ///
    /// # Errors
    /// [`ColdError::Checkpoint`] describing the first violated rule.
    pub fn from_value(v: &Value) -> Result<Self, ColdError> {
        let fail = |why: String| ColdError::Checkpoint(why);
        match v.get("kind").and_then(Value::as_str) {
            Some("cold-campaign-checkpoint") => {}
            Some(other) => return Err(fail(format!("not a campaign checkpoint (kind `{other}`)"))),
            None => return Err(fail("not a campaign checkpoint (missing `kind`)".into())),
        }
        match v.get("version").and_then(Value::as_u64) {
            Some(1) => {}
            other => {
                return Err(fail(format!("unsupported campaign checkpoint version {other:?}")))
            }
        }
        let config = v
            .get("config")
            .and_then(ColdConfig::from_json_value)
            .ok_or_else(|| fail("field `config` missing or malformed".into()))?;
        let master_seed = v
            .get("master_seed")
            .and_then(Value::as_u64)
            .ok_or_else(|| fail("field `master_seed` missing".into()))?;
        let count = usize_field(v, "count").map_err(fail)?;
        let objective = objective_from_value(v.get("objective"), config.context.n)
            .ok_or_else(|| fail(format!("unsupported campaign objective {}", v["objective"])))?;
        let mut records = Vec::new();
        for (i, r) in v
            .get("records")
            .and_then(Value::as_array)
            .ok_or_else(|| fail("field `records` missing or not an array".into()))?
            .iter()
            .enumerate()
        {
            let record = TrialRecord::from_value(r).map_err(fail)?;
            if record.trial != i {
                return Err(fail(format!(
                    "records must be the contiguous prefix 0..: slot {i} holds trial {}",
                    record.trial
                )));
            }
            records.push(record);
        }
        if records.len() > count {
            return Err(fail(format!("{} records exceed campaign size {count}", records.len())));
        }
        Ok(Self { config, objective, master_seed, count, records })
    }

    /// Serializes the snapshot as one JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("Value serialization is infallible")
    }

    /// Parses a snapshot from JSON text.
    ///
    /// # Errors
    /// [`ColdError::Checkpoint`] for invalid JSON or schema violations.
    pub fn from_json(text: &str) -> Result<Self, ColdError> {
        let v: Value = serde_json::from_str(text)
            .map_err(|e| ColdError::Checkpoint(format!("invalid JSON: {e}")))?;
        Self::from_value(&v)
    }

    /// Writes the snapshot atomically: the document lands in a temp file
    /// next to `path`, then replaces it with one `rename`. A crash at any
    /// point leaves either the old snapshot or the new one — never a
    /// truncated hybrid.
    ///
    /// # Errors
    /// [`ColdError::Io`] naming `path` when the write or rename fails (or
    /// a `campaign.io_err` fault is armed and fires).
    pub fn save(&self, path: &Path) -> Result<(), ColdError> {
        let _timer = cold_obs::timer("core.checkpoint_save");
        if cold_fault::armed() && cold_fault::should_fire("campaign.io_err") {
            return Err(ColdError::Io(std::io::Error::other(format!(
                "{}: injected campaign checkpoint I/O failure",
                path.display()
            ))));
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json() + "\n").map_err(|e| {
            ColdError::Io(std::io::Error::new(e.kind(), format!("{}: {e}", tmp.display())))
        })?;
        std::fs::rename(&tmp, path).map_err(|e| {
            ColdError::Io(std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))
        })?;
        Ok(())
    }

    /// Reads a snapshot back from disk.
    ///
    /// # Errors
    /// [`ColdError::Io`] when the file is unreadable, and
    /// [`ColdError::Checkpoint`] when its contents do not validate; both
    /// name `path`.
    pub fn load(path: &Path) -> Result<Self, ColdError> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            ColdError::Io(std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))
        })?;
        Self::from_json(&text).map_err(|e| match e {
            ColdError::Checkpoint(why) => {
                ColdError::Checkpoint(format!("{}: {why}", path.display()))
            }
            other => other,
        })
    }

    /// Rejects a snapshot that belongs to a different campaign.
    ///
    /// # Errors
    /// [`ColdError::Checkpoint`] naming the first mismatching field.
    pub fn validate_against(&self, campaign: &Campaign) -> Result<(), ColdError> {
        let field = if self.config != campaign.config {
            "config"
        } else if self.objective != campaign.objective {
            "objective"
        } else if self.master_seed != campaign.master_seed {
            "master seed"
        } else if self.count != campaign.count {
            "campaign size"
        } else {
            return Ok(());
        };
        Err(ColdError::Checkpoint(format!("snapshot {field} differs from the requested campaign")))
    }
}

/// One trial as a [`TrialSource`] hands it over: its record and result,
/// or none when the trial was lost, and every failed attempt.
pub struct TrialOutcome {
    /// Zero-based trial index within the campaign.
    pub trial: usize,
    /// The completed trial, `None` when every attempt failed.
    pub done: Option<(TrialRecord, SynthesisResult)>,
    /// The trial's failed attempts, in order.
    pub failures: Vec<TrialFailure>,
}

/// Where a campaign's fresh trials come from.
///
/// [`run_campaign`] owns everything else — validation, the resumed
/// prefix, cancellation, the snapshot cadence, what a lost trial does,
/// the per-trial hook — and asks its source for the trials from `next`
/// on, in index order. [`LocalTrials`] runs them in this process;
/// `cold-serve`'s distributed pool runs them on remote workers.
pub trait TrialSource {
    /// The next trials of `campaign` — trial `next` onward, in order —
    /// or none after a bounded wait, after which the loop checks its
    /// cancel flag and asks again.
    ///
    /// # Errors
    /// The source itself failed: the campaign stops with this error.
    fn next_trials(
        &mut self,
        campaign: &CampaignCheckpoint,
        next: usize,
    ) -> Result<Vec<TrialOutcome>, ColdError>;
}

/// The local trial source: up to `available_parallelism` trials at once,
/// handed over in trial order. A window of several trials runs on scoped
/// threads, each re-entering the caller's trace context, with the GA
/// serial (`parallel: false`) so the cores are not oversubscribed; a
/// window of one runs on the caller's thread with the config untouched.
///
/// Every trial runs the local retry policy: one [`run_attempt`] on
/// [`attempt_seed`]'s first seed and, when that fails, once more on its
/// salted second. Failed attempts are journaled as `trial_failed`; a retried
/// trial's [`TrialRecord`] stores the salted seed, so its checkpoint
/// resumes correctly. The default runs unguarded and unobserved.
#[derive(Default)]
pub struct LocalTrials {
    /// Per-attempt wall-clock deadline: an overrunning attempt is
    /// abandoned, journaled as `trial_deadline_exceeded`, and fails with
    /// [`ColdError::DeadlineExceeded`].
    pub deadline: Option<std::time::Duration>,
    /// Live per-generation progress callback, forwarded into each fresh
    /// trial's GA run (see [`ProgressSink`]). Rebuilt trials report no
    /// generations — they never re-run the GA.
    pub progress: Option<ProgressSink>,
    /// Runs each attempt in place of [`run_attempt`]; its panics are
    /// contained. The failure-injection test seam.
    pub runner: Option<Box<TrialRunner>>,
}

impl LocalTrials {
    /// Trial `trial` of `campaign` on `config`, under the retry policy.
    fn run(
        &self,
        config: &ColdConfig,
        campaign: &CampaignCheckpoint,
        trial: usize,
    ) -> TrialOutcome {
        let mut failures: Vec<TrialFailure> = Vec::new();
        for attempt in 1..=2 {
            let seed = attempt_seed(campaign.master_seed, trial, attempt);
            let result = match &self.runner {
                Some(runner) => contain(|| runner(config, seed, trial, attempt)),
                None => {
                    let (deadline, progress) = (self.deadline, self.progress.clone());
                    let options =
                        AttemptOptions { deadline, progress, ..AttemptOptions::default() };
                    let spec = TrialSpec::new(seed, campaign.objective.clone());
                    run_attempt(config, trial, attempt, spec, options)
                }
            };
            let error = match result {
                Ok(r) => {
                    failures.iter_mut().for_each(|f| f.recovered = true);
                    let done = Some((TrialRecord::from_result(trial, seed, &r), r));
                    return TrialOutcome { trial, done, failures };
                }
                Err(error) => error,
            };
            if cold_obs::is_enabled() {
                cold_obs::emit(&cold_obs::Event::TrialFailed(cold_obs::TrialFailed {
                    trial,
                    attempt,
                    seed,
                    error: error.to_string(),
                }));
            }
            failures.push(TrialFailure { trial, attempt, seed, error, recovered: false });
        }
        TrialOutcome { trial, done: None, failures }
    }
}

impl TrialSource for LocalTrials {
    fn next_trials(
        &mut self,
        campaign: &CampaignCheckpoint,
        next: usize,
    ) -> Result<Vec<TrialOutcome>, ColdError> {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let window = cores.min(campaign.count - next);
        if window <= 1 {
            return Ok(vec![self.run(&campaign.config, campaign, next)]);
        }
        let ga = cold_ga::GaSettings { parallel: false, ..campaign.config.ga };
        let serial = ColdConfig { ga, ..campaign.config };
        let trace = cold_obs::trace::current();
        let this = &*self;
        Ok(std::thread::scope(|scope| {
            let workers: Vec<_> = (next..next + window)
                .map(|trial| {
                    let (trace, serial) = (trace.clone(), &serial);
                    scope.spawn(move || {
                        let _trace = trace.map(cold_obs::trace::enter);
                        this.run(serial, campaign, trial)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("attempts contain their panics")).collect()
        }))
    }
}

/// Where and how often a campaign snapshots itself.
#[derive(Debug, Clone, Copy)]
pub struct Snapshots<'a> {
    /// The snapshot file, replaced atomically on every write.
    pub path: &'a Path,
    /// Snapshot after every `every`-th completed trial (>= 1).
    pub every: usize,
}

/// Runs (or resumes) `campaign`, drawing its trials from `source` and
/// committing them in trial order — the one trial loop of every
/// ensemble, `cold-gen` run and served job.
///
/// With `snapshots`, a [`CampaignCheckpoint`] is written atomically after
/// every `every`-th completed trial (and a `checkpoint` journal event
/// emitted when tracing is active). With `resume`, the snapshot's
/// completed trials are rebuilt instead of re-run — the results are
/// bit-identical (modulo the wall-clock `eval_seconds`) to an
/// uninterrupted campaign.
///
/// A lost trial — every attempt failed — ends a campaign that has a
/// snapshot file, whose snapshot stays resumable. Without one, the
/// trial is recorded as lost and the campaign moves on: the returned
/// [`EnsembleOutcome`] holds the partial ensemble and the failure table.
///
/// `on_trial` fires once per result, in trial order, for both rebuilt and
/// freshly-run trials — CLI progress/export hooks go there. For fresh
/// trials it fires *after* the snapshot write, so a hook that kills the
/// process never loses the trial it just saw.
///
/// `cancel` is checked before every trial is committed: when set, the
/// campaign snapshots its completed prefix and returns
/// [`ColdError::Canceled`]. Trials in flight when the flag flips run to
/// completion and are dropped — cancellation never corrupts a trial.
///
/// # Errors
/// [`ColdError::Config`] for an invalid campaign, and any [`ColdError`]
/// from the resume validation, the source, checkpoint rebuilding,
/// snapshot I/O or a lost trial, and [`ColdError::Canceled`].
pub fn run_campaign(
    campaign: &Campaign,
    snapshots: Option<Snapshots<'_>>,
    resume: Option<CampaignCheckpoint>,
    source: &mut dyn TrialSource,
    cancel: Option<&AtomicBool>,
    mut on_trial: impl FnMut(usize, &SynthesisResult),
) -> Result<EnsembleOutcome, ColdError> {
    if snapshots.is_some_and(|s| s.every == 0) {
        return Err(ColdError::Checkpoint("checkpoint interval must be >= 1".into()));
    }
    // One campaign span per invocation: trial spans (and their GA
    // generations) nest under it in the trace tree.
    let _span = cold_obs::span("core.campaign");
    campaign.validate()?;
    let mut snapshot = CampaignCheckpoint::new(campaign);
    if let Some(resumed) = resume {
        resumed.validate_against(campaign)?;
        snapshot.records = resumed.records;
    }
    let count = campaign.count;
    let mut outcome = EnsembleOutcome { total: count, results: Vec::new(), failures: Vec::new() };
    for record in &snapshot.records {
        let r = record.rebuild(&campaign.config)?;
        on_trial(record.trial, &r);
        outcome.results.push((record.trial, r));
    }
    let save = |snapshot: &CampaignCheckpoint, to: Snapshots<'_>| -> Result<(), ColdError> {
        snapshot.save(to.path)?;
        if cold_obs::is_enabled() {
            cold_obs::emit(&cold_obs::Event::Checkpoint(cold_obs::CheckpointEvent {
                path: to.path.display().to_string(),
                completed: snapshot.records.len(),
                total: count,
            }));
        }
        Ok(())
    };
    let mut next = snapshot.records.len();
    let mut handed = Vec::new().into_iter();
    while next < count {
        if cancel.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
            // Drain: make the completed prefix durable even when the
            // cancel lands off the checkpoint cadence.
            if let Some(to) = snapshots.filter(|_| !snapshot.records.is_empty()) {
                save(&snapshot, to)?;
            }
            return Err(ColdError::Canceled { completed: outcome.results.len() });
        }
        let Some(TrialOutcome { trial, done, mut failures }) = handed.next() else {
            handed = source.next_trials(&snapshot, next)?.into_iter();
            continue;
        };
        next = trial + 1;
        let Some((record, r)) = done else {
            if snapshots.is_some() {
                return Err(failures.pop().expect("a lost trial failed its last attempt").error);
            }
            outcome.failures.extend(failures);
            continue;
        };
        outcome.failures.extend(failures);
        snapshot.records.push(record);
        if let Some(to) = snapshots {
            // Snapshot *before* the hook: a hook that aborts the process
            // (the CLI's --halt-after does exactly that) still leaves the
            // trial it just observed recoverable on disk.
            let completed = snapshot.records.len();
            if completed.is_multiple_of(to.every) && completed < count {
                save(&snapshot, to)?;
            }
        }
        on_trial(trial, &r);
        outcome.results.push((trial, r));
    }
    Ok(outcome)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A cost ensemble whose attempts run `runner` in place of
    /// [`run_attempt`].
    pub(crate) fn ensemble_with(
        config: &ColdConfig,
        master_seed: u64,
        count: usize,
        runner: Box<TrialRunner>,
    ) -> EnsembleOutcome {
        let source = &mut LocalTrials { runner: Some(runner), ..LocalTrials::default() };
        let campaign = Campaign::new(*config, master_seed, count);
        run_campaign(&campaign, None, None, source, None, |_, _| {}).expect("valid campaign")
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cold-campaign-{}-{name}.json", std::process::id()));
        p
    }

    fn assert_same_deterministic_fields(a: &SynthesisResult, b: &SynthesisResult) {
        assert_eq!(a.network.topology, b.network.topology);
        assert_eq!(a.context, b.context);
        assert_eq!(a.best_cost_history, b.best_cost_history);
        assert_eq!(a.final_population_costs, b.final_population_costs);
        assert_eq!(a.heuristic_costs, b.heuristic_costs);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.eval_stats.requested, b.eval_stats.requested);
        assert_eq!(a.eval_stats.cache_hits, b.eval_stats.cache_hits);
        assert_eq!(a.eval_stats.cache_misses, b.eval_stats.cache_misses);
        assert_eq!(a.repair_rate, b.repair_rate);
        assert_eq!(a.generations_run, b.generations_run);
        assert_eq!(a.stats, b.stats);
        assert!((a.network.total_cost() - b.network.total_cost()).abs() < 1e-12);
    }

    #[test]
    fn trial_record_rebuilds_bit_identically() {
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let seed = derive_seed(42, 0);
        let original = cfg.synthesize(seed);
        let record = TrialRecord::from_result(0, seed, &original);
        let rebuilt = record.rebuild(&cfg).expect("rebuild");
        assert_same_deterministic_fields(&original, &rebuilt);
        // The wall-clock field round-trips the *recorded* value exactly.
        assert_eq!(rebuilt.eval_stats.eval_seconds, original.eval_stats.eval_seconds);
    }

    #[test]
    fn campaign_checkpoint_round_trips_through_json() {
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let seed = derive_seed(7, 0);
        let r = cfg.synthesize(seed);
        let mut snapshot = CampaignCheckpoint::new(&Campaign::new(cfg, 7, 3));
        snapshot.records.push(TrialRecord::from_result(0, seed, &r));
        let back = CampaignCheckpoint::from_json(&snapshot.to_json()).expect("round trip");
        assert_eq!(back, snapshot);
        assert!(!snapshot.to_json().contains("objective"), "a cost snapshot has no objective key");
        snapshot.objective = TrialObjective::Resilient { bridge_cost: 50.0 };
        let back = CampaignCheckpoint::from_json(&snapshot.to_json()).expect("round trip");
        assert_eq!(back, snapshot);
    }

    #[test]
    fn pareto_and_warm_snapshots_round_trip_through_json() {
        let mut cfg = ColdConfig::quick(8, 1e-4, 10.0);
        cfg.ga.generations = 4;
        let seed = derive_seed(7, 0);
        let r = crate::try_synthesize_pareto(&cfg, seed, 8).expect("pareto run");
        let pareto = Campaign {
            objective: TrialObjective::Pareto { archive: 8 },
            ..Campaign::new(cfg, 7, 2)
        };
        let mut snapshot = CampaignCheckpoint::new(&pareto);
        snapshot.records.push(TrialRecord::from_result(0, seed, &r));
        let back = CampaignCheckpoint::from_json(&snapshot.to_json()).expect("round trip");
        assert_eq!(back, snapshot);
        let rebuilt = back.records[0].rebuild(&cfg).expect("rebuild");
        assert_same_deterministic_fields(&r, &rebuilt);
        assert_eq!(rebuilt.front.len(), r.front.len());
        for (a, b) in r.front.iter().zip(&rebuilt.front) {
            assert_eq!(a.network.topology, b.network.topology);
            let bits = |m: &ParetoFrontMember| {
                m.objectives.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(a), bits(b));
        }
        assert_eq!(rebuilt.hypervolume_history, r.hypervolume_history);
        assert_eq!(rebuilt.reference, r.reference);

        let costs = ChangeCosts { add_cost: 1.5, remove_cost: 0.5, length_weight: 0.25 };
        snapshot.objective = TrialObjective::Warm { parent: r.network.topology.clone(), costs };
        snapshot.records.clear();
        let mut v = snapshot.to_value();
        assert_eq!(CampaignCheckpoint::from_value(&v).expect("round trip"), snapshot);
        // A warm parent of another size than the campaign's is rejected.
        let parent = v.get_mut("objective").and_then(|o| o.get_mut("parent")).expect("parent");
        if let Value::Object(parent) = parent {
            parent.insert("n".into(), json!(9));
        }
        assert!(CampaignCheckpoint::from_value(&v).is_err());
    }

    #[test]
    fn corrupt_campaign_documents_are_rejected() {
        assert!(CampaignCheckpoint::from_json("").is_err());
        assert!(CampaignCheckpoint::from_json("{}").is_err());
        assert!(CampaignCheckpoint::from_json("{\"kind\":\"cold-ga-checkpoint\"}").is_err());
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let r = cfg.synthesize(derive_seed(7, 0));
        let mut good = CampaignCheckpoint::new(&Campaign::new(cfg, 7, 2));
        good.records.push(TrialRecord::from_result(0, derive_seed(7, 0), &r));
        let good = good.to_json();
        assert!(CampaignCheckpoint::from_json(&good[..good.len() / 2]).is_err(), "truncation");
        let tampered = good.replace("\"count\":2", "\"count\":0");
        assert!(CampaignCheckpoint::from_json(&tampered).is_err(), "records exceed count");
    }

    #[test]
    fn resume_validation_rejects_foreign_campaigns() {
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let campaign = Campaign::new(cfg, 5, 4);
        let snapshot = CampaignCheckpoint::new(&campaign);
        assert!(snapshot.validate_against(&campaign).is_ok());
        assert!(snapshot.validate_against(&Campaign::new(cfg, 6, 4)).is_err(), "seed mismatch");
        assert!(snapshot.validate_against(&Campaign::new(cfg, 5, 8)).is_err(), "count mismatch");
        let other = ColdConfig::quick(9, 1e-4, 10.0);
        assert!(snapshot.validate_against(&Campaign::new(other, 5, 4)).is_err(), "config mismatch");
        let resilient = TrialObjective::Resilient { bridge_cost: 5.0 };
        let campaign = Campaign { objective: resilient, ..campaign };
        assert!(snapshot.validate_against(&campaign).is_err(), "objective mismatch");
    }

    #[test]
    fn interrupted_campaign_resumes_bit_identically() {
        let cfg = ColdConfig::quick(7, 1e-4, 10.0);
        let path = tmp_path("resume");
        let _ = std::fs::remove_file(&path);

        let (campaign, every1) =
            (Campaign::new(cfg, 11, 4), Some(Snapshots { path: &path, every: 1 }));
        // Uninterrupted reference.
        let full =
            run_campaign(&campaign, every1, None, &mut LocalTrials::default(), None, |_, _| {})
                .expect("full run")
                .into_results();
        let _ = std::fs::remove_file(&path);

        // First leg: simulate a crash by stopping after 2 trials via the
        // on_trial hook (panic caught here, as a kill would).
        let leg = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_campaign(&campaign, every1, None, &mut LocalTrials::default(), None, |i, _| {
                if i == 1 {
                    panic!("simulated crash after trial 1");
                }
            })
        }));
        assert!(leg.is_err(), "first leg must die mid-campaign");
        let snapshot = CampaignCheckpoint::load(&path).expect("crash left a valid snapshot");
        // Snapshots are written before on_trial fires, so the crash in the
        // trial-1 hook still left trial 1 on disk.
        assert_eq!(snapshot.records.len(), 2, "both completed trials checkpointed");

        // Second leg: resume and complete.
        let source = &mut LocalTrials::default();
        let resumed = run_campaign(&campaign, every1, Some(snapshot), source, None, |_, _| {})
            .expect("resumed run")
            .into_results();
        assert_eq!(resumed.len(), full.len());
        for (a, b) in full.iter().zip(&resumed) {
            assert_same_deterministic_fields(a, b);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn campaign_checkpoint_cadence_and_final_trial_skip() {
        let cfg = ColdConfig::quick(7, 1e-4, 10.0);
        let path = tmp_path("cadence");
        let _ = std::fs::remove_file(&path);
        let (count, every) = (4, 2);
        let results = run_campaign(
            &Campaign::new(cfg, 3, count),
            Some(Snapshots { path: &path, every }),
            None,
            &mut LocalTrials::default(),
            None,
            |i, _| {
                // Before the last trial's hook, the snapshot on disk holds
                // every completed trial up to the last cadence point.
                if i < count - 1 {
                    let on_disk = CampaignCheckpoint::load(&path).map_or(0, |c| c.records.len());
                    assert_eq!(on_disk, (i + 1) / every * every, "on_trial({i})");
                }
            },
        )
        .expect("run");
        assert_eq!(results.results.len(), 4);
        // every=2, count=4: snapshot after trial 2 only (after trial 4 the
        // campaign is complete — nothing to resume).
        let snapshot = CampaignCheckpoint::load(&path).expect("snapshot written");
        assert_eq!(snapshot.records.len(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
