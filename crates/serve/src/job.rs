//! Job identity, specification, and lifecycle state.
//!
//! A *job* is one synthesis request: a [`ColdConfig`], a master seed, and
//! a trial count. Its identity is the content-addressed fingerprint
//! [`cold::job_fingerprint`] of exactly those three things, rendered as
//! 16 hex digits — two requests that mean the same synthesis share an id
//! no matter how their JSON was spelled, which is what makes the result
//! cache and in-flight deduplication correct by construction.

use cold::{ChangeCosts, ColdConfig};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::sync::Mutex;

/// What a job computes: a scalar ensemble (the default), one
/// multi-objective Pareto front, or a warm-started evolution step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobMode {
    /// The standard scalar-GA ensemble campaign.
    #[default]
    Standard,
    /// One NSGA-II run; the whole Pareto front lands in `result.json`.
    Pareto,
    /// One warm-started synthesis seeded from a parent job's cached
    /// design, pricing rewired links with [`ChangeCosts`]. The parent
    /// job id is part of the fingerprint, so a chain of evolve jobs is
    /// content-addressed end to end.
    Evolve,
}

impl JobMode {
    /// The wire name of this mode.
    pub fn name(&self) -> &'static str {
        match self {
            JobMode::Standard => "standard",
            JobMode::Pareto => "pareto",
            JobMode::Evolve => "evolve",
        }
    }
}

/// One synthesis request, as submitted to `POST /jobs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// The synthesis configuration.
    pub config: ColdConfig,
    /// Master seed (trial `i` derives its own seed from it).
    pub seed: u64,
    /// Number of ensemble trials.
    pub count: usize,
    /// Scalar ensemble, Pareto front, or evolution step.
    pub mode: JobMode,
    /// Evolve mode only: the parent job's fingerprint (the 16-hex wire
    /// form parsed to its `u64`). The worker warm-starts from that job's
    /// cached design when it is still available, and falls back to a
    /// cold run when it is not.
    pub parent: Option<u64>,
    /// Evolve mode only: per-link rewiring prices against the parent.
    pub change: ChangeCosts,
}

impl JobSpec {
    /// Parses a request body: `{"config": {...}, "seed": N, "count": N}`.
    /// `seed` defaults to 0 and `count` to 1; `config` is mandatory.
    ///
    /// # Errors
    /// A human-readable message for the 400 response.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let obj = v.as_object().ok_or("request body must be a JSON object")?;
        let config_value = obj.get("config").ok_or("missing required field `config`")?;
        let config = ColdConfig::from_json_value(config_value)
            .ok_or("field `config` is not a valid ColdConfig document")?;
        config.validate().map_err(|e| e.to_string())?;
        let seed = match obj.get("seed") {
            None => 0,
            Some(s) => s.as_u64().ok_or("field `seed` must be a nonnegative integer")?,
        };
        let count = match obj.get("count") {
            None => 1,
            Some(c) => c.as_u64().ok_or("field `count` must be a positive integer")? as usize,
        };
        if count == 0 {
            return Err("field `count` must be >= 1".into());
        }
        let mode = match obj.get("mode").and_then(|m| m.as_str()) {
            None => JobMode::Standard,
            Some("standard") => JobMode::Standard,
            Some("pareto") => JobMode::Pareto,
            Some("evolve") => JobMode::Evolve,
            Some(other) => {
                return Err(format!("unknown mode `{other}` (standard | pareto | evolve)"))
            }
        };
        if mode == JobMode::Pareto && count != 1 {
            return Err("pareto jobs run a single front; `count` must be 1".into());
        }
        let parent = match obj.get("parent") {
            None => None,
            Some(p) => {
                let hex = p.as_str().ok_or("field `parent` must be a 16-hex job id string")?;
                if hex.len() != 16 {
                    return Err("field `parent` must be a 16-hex job id string".into());
                }
                Some(
                    u64::from_str_radix(hex, 16)
                        .map_err(|_| "field `parent` must be a 16-hex job id string")?,
                )
            }
        };
        let change = match obj.get("change_costs") {
            None | Some(Value::Null) => ChangeCosts::default(),
            Some(v) => ChangeCosts::from_json_value(v)
                .ok_or("field `change_costs` is not a valid ChangeCosts document")?,
        };
        change.validate().map_err(|e| format!("field `change_costs`: {e}"))?;
        if mode == JobMode::Evolve {
            if parent.is_none() {
                return Err("evolve jobs require a `parent` job id".into());
            }
            if count != 1 {
                return Err("evolve jobs run a single synthesis; `count` must be 1".into());
            }
        } else {
            if parent.is_some() {
                return Err("field `parent` requires `mode: evolve`".into());
            }
            if !change.is_zero() {
                return Err("field `change_costs` requires `mode: evolve`".into());
            }
        }
        Ok(Self { config, seed, count, mode, parent, change })
    }

    /// The parent job id in its 16-hex wire form (evolve jobs only).
    pub fn parent_hex(&self) -> Option<String> {
        self.parent.map(cold::fingerprint_hex)
    }

    /// Parses a JSON text body (the `POST /jobs` entry point).
    ///
    /// # Errors
    /// A human-readable message for the 400 response.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        Self::from_value(&v)
    }

    /// The job's JSON object form (persisted as `job.json` in the cache).
    /// The `mode` key appears only for pareto and evolve jobs, so standard job
    /// documents (and their fingerprints) are byte-identical to earlier
    /// releases.
    pub fn to_value(&self) -> Value {
        let mut v = serde_json::json!({
            "config": self.config.to_json_value(),
            "seed": self.seed,
            "count": self.count,
        });
        if let (JobMode::Pareto | JobMode::Evolve, Value::Object(map)) = (self.mode, &mut v) {
            map.insert("mode".into(), Value::String(self.mode.name().into()));
        }
        if let (JobMode::Evolve, Value::Object(map)) = (self.mode, &mut v) {
            let parent = self.parent_hex().expect("evolve specs carry a parent");
            map.insert("parent".into(), Value::String(parent));
            map.insert("change_costs".into(), self.change.to_json_value());
        }
        v
    }

    /// The content-addressed job id: 16 hex digits of the fingerprint of
    /// [`to_value`](Self::to_value). For a standard job that is
    /// [`cold::job_fingerprint`]; pareto and evolve jobs mix the mode
    /// (and, for evolve, the parent id and change costs) into the
    /// document — same config + seed must not collide across modes, and
    /// a child's identity chains its parent's.
    pub fn id(&self) -> String {
        cold::fingerprint_hex(cold::value_fingerprint(&self.to_value()))
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// A worker is running its campaign.
    Running,
    /// Finished; the result document is in the cache.
    Done,
    /// Failed terminally (after the worker-level retry).
    Failed(String),
    /// Interrupted by a graceful drain; a restarted server resumes it
    /// from its campaign checkpoint.
    Interrupted,
}

impl JobStatus {
    /// The wire name of this status.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed(_) => "failed",
            JobStatus::Interrupted => "interrupted",
        }
    }
}

/// Live progress of a running job, updated by the worker's progress sink
/// and `on_trial` callback.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobProgress {
    /// Trials completed (including checkpoint-resumed ones).
    pub trials_done: usize,
    /// Latest GA generation reported by the current trial.
    pub generation: usize,
    /// Best cost seen in the current trial so far.
    pub best: f64,
}

/// The registry entry for one job: spec plus mutexed live state.
#[derive(Debug)]
pub struct JobEntry {
    /// The immutable request.
    pub spec: JobSpec,
    /// Current lifecycle status.
    pub status: Mutex<JobStatus>,
    /// Live progress (meaningful while `Running`).
    pub progress: Mutex<JobProgress>,
    /// Trace context minted at submission (trace id = job id). The
    /// worker re-enters it so every event of the job's campaign shares
    /// one resolvable trace.
    pub trace: Mutex<Option<cold_obs::trace::TraceCtx>>,
    /// When the job (re)entered the queue — queue-wait attribution.
    pub enqueued: Mutex<std::time::Instant>,
    /// Live `GET /jobs/{id}/events` subscribers: each holds the sender
    /// half of the channel its streaming thread blocks on.
    subscribers: Mutex<Vec<std::sync::mpsc::Sender<String>>>,
}

impl JobEntry {
    /// A fresh queued entry for `spec`.
    pub fn new(spec: JobSpec) -> Self {
        Self {
            spec,
            status: Mutex::new(JobStatus::Queued),
            progress: Mutex::new(JobProgress::default()),
            trace: Mutex::new(None),
            enqueued: Mutex::new(std::time::Instant::now()),
            subscribers: Mutex::new(Vec::new()),
        }
    }

    /// Registers a live-stream subscriber; the returned receiver yields
    /// one JSON payload per published event until [`Self::close_stream`].
    pub fn subscribe(&self) -> std::sync::mpsc::Receiver<String> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.subscribers.lock().expect("subscribers poisoned").push(tx);
        rx
    }

    /// True when at least one event stream is attached — lets publishers
    /// skip building payloads nobody is listening for.
    pub fn has_subscribers(&self) -> bool {
        !self.subscribers.lock().expect("subscribers poisoned").is_empty()
    }

    /// Sends one payload to every live subscriber, pruning subscribers
    /// whose streaming thread is gone.
    pub fn publish(&self, payload: &str) {
        let mut subs = self.subscribers.lock().expect("subscribers poisoned");
        subs.retain(|tx| tx.send(payload.to_string()).is_ok());
    }

    /// Drops every subscriber sender: blocked streams observe the
    /// disconnect and end with a clean EOF. Call after publishing a
    /// terminal status.
    pub fn close_stream(&self) {
        self.subscribers.lock().expect("subscribers poisoned").clear();
    }

    /// Snapshot of the status document served by `GET /jobs/{id}`.
    pub fn status_value(&self, id: &str) -> Value {
        let status = self.status.lock().expect("job status poisoned").clone();
        let progress = *self.progress.lock().expect("job progress poisoned");
        let mut doc = serde_json::Map::new();
        doc.insert("id".into(), Value::String(id.to_string()));
        doc.insert("status".into(), Value::String(status.name().to_string()));
        doc.insert("seed".into(), self.spec.seed.to_json_value());
        doc.insert("count".into(), self.spec.count.to_json_value());
        doc.insert("trials_done".into(), progress.trials_done.to_json_value());
        if matches!(status, JobStatus::Running) {
            doc.insert("generation".into(), progress.generation.to_json_value());
            doc.insert("best".into(), progress.best.to_json_value());
        }
        if let JobStatus::Failed(why) = &status {
            doc.insert("error".into(), Value::String(why.clone()));
        }
        Value::Object(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            config: ColdConfig::quick(8, 4e-4, 10.0),
            seed: 7,
            count: 2,
            mode: JobMode::Standard,
            parent: None,
            change: ChangeCosts::default(),
        }
    }

    #[test]
    fn spec_round_trips_through_json_and_keeps_its_id() {
        let spec = spec();
        let text = serde_json::to_string(&spec.to_value()).unwrap();
        let back = JobSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.id(), spec.id());
        assert_eq!(spec.id().len(), 16);
    }

    #[test]
    fn defaults_and_malformed_bodies() {
        let config =
            serde_json::to_string(&ColdConfig::quick(8, 4e-4, 10.0).to_json_value()).unwrap();
        let spec = JobSpec::from_json(&format!("{{\"config\":{config}}}")).unwrap();
        assert_eq!((spec.seed, spec.count), (0, 1));

        assert!(JobSpec::from_json("not json").is_err());
        assert!(JobSpec::from_json("{}").unwrap_err().contains("config"));
        assert!(JobSpec::from_json("{\"config\":{\"bogus\":1}}").is_err());
        assert!(JobSpec::from_json(&format!("{{\"config\":{config},\"count\":0}}"))
            .unwrap_err()
            .contains(">= 1"));
        // A config the worker could not run is refused at submission.
        let mut zero = ColdConfig::quick(8, 4e-4, 10.0);
        zero.random_greedy.permutations = 0;
        let doc = serde_json::json!({ "config": zero.to_json_value() });
        assert!(JobSpec::from_value(&doc).unwrap_err().contains("permutations"));
    }

    #[test]
    fn pareto_mode_round_trips_and_changes_the_id() {
        let standard = JobSpec { count: 1, ..spec() };
        let pareto = JobSpec { mode: JobMode::Pareto, ..standard };
        // Round trip keeps the mode.
        let text = serde_json::to_string(&pareto.to_value()).unwrap();
        let back = JobSpec::from_json(&text).unwrap();
        assert_eq!(back.mode, JobMode::Pareto);
        assert_eq!(back.id(), pareto.id());
        // Same config + seed, different mode: different jobs.
        assert_ne!(standard.id(), pareto.id());
        // An explicit `"mode":"standard"` is the same job as no mode key
        // at all — the id is computed from the mode-free document.
        let config = standard.config.to_json_value();
        let doc = serde_json::json!({
            "config": config, "seed": 7, "count": 1, "mode": "standard",
        });
        let explicit = JobSpec::from_value(&doc).unwrap();
        assert_eq!(explicit.id(), standard.id());
        // Pareto fronts are single runs.
        let doc = serde_json::json!({
            "config": config, "seed": 7, "count": 3, "mode": "pareto",
        });
        assert!(JobSpec::from_value(&doc).unwrap_err().contains("count"));
        // Unknown modes are a 400, not a silent default.
        let doc = serde_json::json!({
            "config": config, "seed": 7, "count": 1, "mode": "nsga3",
        });
        assert!(JobSpec::from_value(&doc).unwrap_err().contains("nsga3"));
    }

    #[test]
    fn evolve_mode_round_trips_and_chains_the_parent_id() {
        let standard = JobSpec { count: 1, ..spec() };
        let parent = standard.id();
        let evolve = JobSpec {
            mode: JobMode::Evolve,
            parent: Some(u64::from_str_radix(&parent, 16).unwrap()),
            change: ChangeCosts::uniform(2.0),
            ..standard
        };
        // Round trip keeps mode, parent, and change costs.
        let text = serde_json::to_string(&evolve.to_value()).unwrap();
        let back = JobSpec::from_json(&text).unwrap();
        assert_eq!(back, evolve);
        assert_eq!(back.parent_hex().as_deref(), Some(parent.as_str()));
        assert_eq!(back.id(), evolve.id());
        // Every mode with the same config + seed is a distinct job.
        let pareto = JobSpec { mode: JobMode::Pareto, ..standard };
        assert_ne!(evolve.id(), standard.id());
        assert_ne!(evolve.id(), pareto.id());
        // The parent id is part of the child's identity: re-parenting or
        // re-pricing the same synthesis is a different job.
        let other_parent = JobSpec { parent: Some(0xDECADE), ..evolve };
        assert_ne!(other_parent.id(), evolve.id());
        let other_costs = JobSpec { change: ChangeCosts::uniform(9.0), ..evolve };
        assert_ne!(other_costs.id(), evolve.id());
    }

    #[test]
    fn evolve_mode_validation_rejects_malformed_requests() {
        let config = ColdConfig::quick(8, 4e-4, 10.0).to_json_value();
        // Parent is mandatory for evolve...
        let doc = serde_json::json!({ "config": config, "seed": 7, "mode": "evolve" });
        assert!(JobSpec::from_value(&doc).unwrap_err().contains("parent"));
        // ...must be 16 hex digits...
        let doc = serde_json::json!({
            "config": config, "seed": 7, "mode": "evolve", "parent": "xyz",
        });
        assert!(JobSpec::from_value(&doc).unwrap_err().contains("16-hex"));
        // ...and is rejected outside evolve mode, as are change costs.
        let doc = serde_json::json!({
            "config": config, "seed": 7, "parent": "aaaaaaaaaaaaaaaa",
        });
        assert!(JobSpec::from_value(&doc).unwrap_err().contains("mode: evolve"));
        let doc = serde_json::json!({
            "config": config, "seed": 7,
            "change_costs": {"add_cost": 1.0, "remove_cost": 1.0, "length_weight": 0.0},
        });
        assert!(JobSpec::from_value(&doc).unwrap_err().contains("mode: evolve"));
        // Evolve runs are single syntheses.
        let doc = serde_json::json!({
            "config": config, "seed": 7, "count": 3, "mode": "evolve",
            "parent": "aaaaaaaaaaaaaaaa",
        });
        assert!(JobSpec::from_value(&doc).unwrap_err().contains("count"));
        // Negative change costs are a 400, not a panic in the worker.
        let doc = serde_json::json!({
            "config": config, "seed": 7, "mode": "evolve", "parent": "aaaaaaaaaaaaaaaa",
            "change_costs": {"add_cost": -1.0, "remove_cost": 0.0, "length_weight": 0.0},
        });
        assert!(JobSpec::from_value(&doc).unwrap_err().contains("add_cost"));
    }

    #[test]
    fn subscribers_receive_published_payloads_until_close() {
        let entry = JobEntry::new(spec());
        assert!(!entry.has_subscribers());
        let rx = entry.subscribe();
        assert!(entry.has_subscribers());
        entry.publish("one");
        assert_eq!(rx.recv().unwrap(), "one");
        entry.close_stream();
        assert!(rx.recv().is_err(), "a closed stream disconnects its receiver");
        drop(entry.subscribe());
        entry.publish("two"); // dead subscribers are pruned, not errors
        assert!(!entry.has_subscribers());
    }

    #[test]
    fn status_document_reflects_lifecycle() {
        let entry = JobEntry::new(spec());
        let id = entry.spec.id();
        let doc = entry.status_value(&id);
        assert_eq!(doc["status"].as_str(), Some("queued"));
        *entry.status.lock().unwrap() = JobStatus::Running;
        *entry.progress.lock().unwrap() =
            JobProgress { trials_done: 1, generation: 12, best: 99.5 };
        let doc = entry.status_value(&id);
        assert_eq!(doc["status"].as_str(), Some("running"));
        assert_eq!(doc["trials_done"].as_u64(), Some(1));
        assert_eq!(doc["generation"].as_u64(), Some(12));
        *entry.status.lock().unwrap() = JobStatus::Failed("boom".into());
        let doc = entry.status_value(&id);
        assert_eq!(doc["error"].as_str(), Some("boom"));
    }
}
