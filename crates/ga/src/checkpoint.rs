//! Crash-safe GA run snapshots.
//!
//! A [`GaCheckpoint`] captures everything the generational loop needs to
//! continue a run exactly where it stopped: the surviving population with
//! cached costs, the best-cost history, the evaluation/repair counters,
//! the fitness memo cache, and — crucially — the raw RNG stream state.
//! Resuming from a checkpoint is bit-identical to never having stopped
//! (pinned by `engine` tests and the workspace `checkpoint_resume`
//! integration test): the RNG continues mid-stream and the restored
//! cache reproduces the same hit/miss sequence.
//!
//! Serialization uses the vendored `serde_json` only, as one JSON object
//! (see DESIGN.md §10 for the schema). Each chromosome is written as its
//! packed pair words in hex, and cache entries are sorted by those words
//! so the serialized form is deterministic. Readers also accept the older
//! edge-list chromosome form, so snapshots written before it still resume.
//!
//! A Pareto (NSGA-II) run's snapshot is the same document plus its
//! survival state, [`ParetoState`], under a `pareto` key; its cache
//! entries carry objective vectors instead of costs.

use crate::chromosome::Individual;
use crate::engine::EvalStats;
use crate::pareto::ParetoPoint;
use crate::repair::RepairStats;
use crate::settings::GaSettings;
use cold_graph::AdjacencyMatrix;
use serde::{Deserialize as _, Serialize as _};
use serde_json::{json, Value};

/// A resumable snapshot of a GA run after a completed generation.
#[derive(Debug, Clone, PartialEq)]
pub struct GaCheckpoint {
    /// The settings of the run that produced this snapshot. A resume
    /// validates these against the engine's settings — continuing a run
    /// under different parameters would silently change its meaning.
    pub settings: GaSettings,
    /// Completed generations (`history.len() - 1`).
    pub generation: usize,
    /// Raw xoshiro256++ state of the engine RNG, captured *after* the
    /// checkpointed generation, so the resumed stream continues exactly.
    pub rng_state: [u64; 4],
    /// The surviving population, cost-sorted, with cached costs.
    pub population: Vec<Individual>,
    /// Best cost after each generation so far (index 0 = initial
    /// population).
    pub history: Vec<f64>,
    /// Evaluation counters at the snapshot point.
    pub eval_stats: EvalStats,
    /// Repair counters at the snapshot point.
    pub repair_stats: RepairStats,
    /// The fitness memo cache, present iff `settings.fitness_cache`.
    /// Restoring it keeps the resumed hit/miss counters — and therefore
    /// the whole [`EvalStats`] — identical to an uninterrupted run. Always
    /// `None` in a Pareto snapshot, whose cache is
    /// [`ParetoState::cache`].
    pub cache: Option<Vec<(AdjacencyMatrix, f64)>>,
    /// The NSGA-II survival state of a Pareto run; `None` for a scalar
    /// run. The population's `cost`s are then its crowded-comparison
    /// pseudo-costs, and `history` the negated archive hypervolume.
    pub pareto: Option<ParetoState>,
}

/// What a Pareto run's snapshot adds to the scalar one.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoState {
    /// The archived front, in the archive's order.
    pub archive: Vec<ParetoPoint>,
    /// The hypervolume reference point fixed at generation 0. A resume
    /// restores it; recomputing it would need generation 0's population.
    pub reference: Vec<f64>,
    /// The population's objective vectors, aligned with
    /// [`GaCheckpoint::population`].
    pub objectives: Vec<Vec<f64>>,
    /// The fitness memo cache, present iff `settings.fitness_cache`.
    pub cache: Option<Vec<(AdjacencyMatrix, Vec<f64>)>>,
}

/// Serializes a chromosome as `{"n": …, "bits": …}`: 16 lowercase hex
/// digits per packed word of [`AdjacencyMatrix::words`], word 0 first.
fn topology_to_value(t: &AdjacencyMatrix) -> Value {
    use std::fmt::Write as _;
    let mut bits = String::with_capacity(16 * t.words().len());
    for w in t.words() {
        write!(bits, "{w:016x}").expect("writing to a String is infallible");
    }
    json!({ "n": t.n(), "bits": bits })
}

/// One packed word from its 16 lowercase hex digits; `None` on any other
/// byte (a sign or a byte of a multi-byte character included).
fn hex_word(digits: &[u8]) -> Option<u64> {
    digits.iter().try_fold(0u64, |w, &d| {
        let x = match d {
            b'0'..=b'9' => d - b'0',
            b'a'..=b'f' => d - b'a' + 10,
            _ => return None,
        };
        Some(w << 4 | u64::from(x))
    })
}

/// Parses a chromosome serialized by [`topology_to_value`], or in the
/// edge-list form `{"n": …, "edges": [[u, v], …]}` that snapshots were
/// written in before it.
fn topology_from_value(v: &Value) -> Result<AdjacencyMatrix, String> {
    let n =
        v.get("n").and_then(Value::as_u64).ok_or("topology: field `n` missing or not an integer")?
            as usize;
    if let Some(bits) = v.get("bits") {
        let hex = bits.as_str().ok_or("topology: field `bits` is not a string")?.as_bytes();
        if hex.len() % 16 != 0 {
            return Err(format!("topology: `bits` has {} digits, not 16 per word", hex.len()));
        }
        let words = hex
            .chunks(16)
            .map(hex_word)
            .collect::<Option<Vec<u64>>>()
            .ok_or("topology: `bits` is not lowercase hex digits")?;
        return AdjacencyMatrix::from_words(n, words)
            .ok_or_else(|| format!("topology: `bits` is not the packed pairs of {n} nodes"));
    }
    let edges = v
        .get("edges")
        .and_then(Value::as_array)
        .ok_or("topology: neither `bits` nor an `edges` array")?;
    // Stored chromosomes are repaired, hence connected: n nodes need at
    // least n - 1 edges. Checking that first bounds the n(n-1)/2-bit
    // allocation by the document's own size.
    if n > edges.len() + 1 {
        return Err(format!("topology: {} edges cannot connect {n} nodes", edges.len()));
    }
    let mut pairs = Vec::with_capacity(edges.len());
    for e in edges {
        let pair = e.as_array().filter(|p| p.len() == 2).ok_or("topology: edge is not a pair")?;
        let u = pair[0].as_u64().ok_or("topology: edge endpoint not an integer")? as usize;
        let v = pair[1].as_u64().ok_or("topology: edge endpoint not an integer")? as usize;
        pairs.push((u, v));
    }
    AdjacencyMatrix::from_edges(n, &pairs).map_err(|e| format!("topology: {e:?}"))
}

fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("field `{key}` missing or not a number"))
}

fn usize_field(v: &Value, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .map(|u| u as usize)
        .ok_or_else(|| format!("field `{key}` missing or not a nonnegative integer"))
}

/// The numbers of the array `v`, a `what` field.
fn f64_values(v: Option<&Value>, what: &str) -> Result<Vec<f64>, String> {
    v.and_then(Value::as_array)
        .ok_or_else(|| format!("field `{what}` missing or not an array"))?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| format!("`{what}` entry is not a number")))
        .collect()
}

/// A scalar individual or cache entry: `{"topology", "cost"}`.
fn costed_value(t: &AdjacencyMatrix, cost: &f64) -> Value {
    json!({ "topology": topology_to_value(t), "cost": *cost })
}

/// A Pareto archive member or cache entry: `{"topology", "objectives"}`.
fn point_value(t: &AdjacencyMatrix, objectives: &Vec<f64>) -> Value {
    json!({ "topology": topology_to_value(t), "objectives": objectives })
}

/// Parses [`point_value`]'s form.
fn point_from_value(v: &Value) -> Result<(AdjacencyMatrix, Vec<f64>), String> {
    let t = topology_from_value(v.get("topology").ok_or("entry: no topology")?)?;
    Ok((t, f64_values(v.get("objectives"), "objectives")?))
}

/// A fitness cache: `null`, or its entries sorted by packed words, since
/// the engine's HashMap has no stable order.
fn cache_value<F>(
    cache: Option<&[(AdjacencyMatrix, F)]>,
    entry: impl Fn(&AdjacencyMatrix, &F) -> Value,
) -> Value {
    let Some(entries) = cache else { return Value::Null };
    let mut sorted: Vec<&(AdjacencyMatrix, F)> = entries.iter().collect();
    sorted.sort_by(|a, b| a.0.words().cmp(b.0.words()));
    Value::Array(sorted.into_iter().map(|(t, f)| entry(t, f)).collect())
}

/// Parses [`cache_value`]'s form, each entry through `entry`.
fn cache_from_value<F>(
    cache: Option<&Value>,
    entry: impl Fn(&Value) -> Result<(AdjacencyMatrix, F), String>,
) -> Result<Option<Vec<(AdjacencyMatrix, F)>>, String> {
    match cache {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Array(entries)) => {
            entries.iter().map(entry).collect::<Result<_, _>>().map(Some)
        }
        Some(_) => Err("field `cache` must be null or an array".into()),
    }
}

impl ParetoState {
    /// The `pareto` member of a snapshot document; the cache is written
    /// as the document's `cache`.
    fn to_value(&self) -> Value {
        let archive: Vec<Value> =
            self.archive.iter().map(|p| point_value(&p.topology, &p.objectives)).collect();
        json!({ "archive": archive, "reference": self.reference, "objectives": self.objectives })
    }

    /// Parses the `pareto` member `v` and the document's `cache`.
    fn from_value(v: &Value, cache: Option<&Value>) -> Result<Self, String> {
        let archive = v
            .get("archive")
            .and_then(Value::as_array)
            .ok_or("pareto: `archive` missing or not an array")?
            .iter()
            .map(|p| {
                point_from_value(p)
                    .map(|(topology, objectives)| ParetoPoint { topology, objectives })
            })
            .collect::<Result<_, _>>()?;
        let objectives = v
            .get("objectives")
            .and_then(Value::as_array)
            .ok_or("pareto: `objectives` missing or not an array")?
            .iter()
            .map(|o| f64_values(Some(o), "objectives"))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            archive,
            reference: f64_values(v.get("reference"), "reference")?,
            objectives,
            cache: cache_from_value(cache, point_from_value)?,
        })
    }
}

impl GaCheckpoint {
    /// Converts the snapshot into its JSON object form.
    pub fn to_value(&self) -> Value {
        let population: Vec<Value> =
            self.population.iter().map(|ind| costed_value(&ind.topology, &ind.cost)).collect();
        let cache = match &self.pareto {
            None => cache_value(self.cache.as_deref(), costed_value),
            Some(state) => cache_value(state.cache.as_deref(), point_value),
        };
        let mut v = json!({
            "kind": "cold-ga-checkpoint",
            "version": 1u64,
            "settings": self.settings.to_json_value(),
            "generation": self.generation,
            "rng_state": Value::Array(self.rng_state.iter().map(|&w| json!(w)).collect()),
            "population": Value::Array(population),
            "history": Value::Array(self.history.iter().map(|&h| json!(h)).collect()),
            "eval_stats": {
                "requested": self.eval_stats.requested,
                "cache_hits": self.eval_stats.cache_hits,
                "cache_misses": self.eval_stats.cache_misses,
                "eval_seconds": self.eval_stats.eval_seconds,
            },
            "repair_stats": {
                "repaired": self.repair_stats.repaired,
                "inspected": self.repair_stats.inspected,
                "links_added": self.repair_stats.links_added,
            },
            "cache": cache,
        });
        if let (Some(state), Value::Object(map)) = (&self.pareto, &mut v) {
            map.insert("pareto".into(), state.to_value());
        }
        v
    }

    /// Parses a snapshot back from its JSON object form, validating the
    /// schema.
    ///
    /// # Errors
    /// A human-readable description of the first violated rule.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        match v.get("kind").and_then(Value::as_str) {
            Some("cold-ga-checkpoint") => {}
            Some(other) => return Err(format!("not a GA checkpoint (kind `{other}`)")),
            None => return Err("not a GA checkpoint (missing `kind`)".into()),
        }
        match v.get("version").and_then(Value::as_u64) {
            Some(1) => {}
            other => return Err(format!("unsupported GA checkpoint version {other:?}")),
        }
        let settings = v
            .get("settings")
            .and_then(GaSettings::from_json_value)
            .ok_or("field `settings` missing or malformed")?;
        let rng_words = v
            .get("rng_state")
            .and_then(Value::as_array)
            .filter(|a| a.len() == 4)
            .ok_or("field `rng_state` must be a 4-element array")?;
        let mut rng_state = [0u64; 4];
        for (slot, w) in rng_state.iter_mut().zip(rng_words) {
            *slot = w.as_u64().ok_or("rng_state word is not a u64")?;
        }
        let costed = |e: &Value| {
            let t = topology_from_value(e.get("topology").ok_or("entry: no topology")?)?;
            Ok((t, f64_field(e, "cost")?))
        };
        let population = v
            .get("population")
            .and_then(Value::as_array)
            .ok_or("field `population` missing or not an array")?
            .iter()
            .map(|e| costed(e).map(|(topology, cost)| Individual { topology, cost }))
            .collect::<Result<_, String>>()?;
        let history = f64_values(v.get("history"), "history")?;
        let es = v.get("eval_stats").ok_or("field `eval_stats` missing")?;
        let eval_stats = EvalStats {
            requested: usize_field(es, "requested")?,
            cache_hits: usize_field(es, "cache_hits")?,
            cache_misses: usize_field(es, "cache_misses")?,
            eval_seconds: f64_field(es, "eval_seconds")?,
            // The delta/full split is in-memory telemetry only: resumed
            // runs restart it at zero alongside the fresh sessions.
            ..EvalStats::default()
        };
        let rs = v.get("repair_stats").ok_or("field `repair_stats` missing")?;
        let repair_stats = RepairStats {
            repaired: usize_field(rs, "repaired")?,
            inspected: usize_field(rs, "inspected")?,
            links_added: usize_field(rs, "links_added")?,
        };
        let pareto =
            v.get("pareto").map(|p| ParetoState::from_value(p, v.get("cache"))).transpose()?;
        let cache = match pareto {
            None => cache_from_value(v.get("cache"), costed)?,
            Some(_) => None,
        };
        Ok(Self {
            settings,
            generation: history.len().checked_sub(1).ok_or("history must be nonempty")?,
            rng_state,
            population,
            history,
            eval_stats,
            repair_stats,
            cache,
            pareto,
        })
        .and_then(|ckpt| {
            let claimed = usize_field(v, "generation")?;
            if claimed != ckpt.generation {
                return Err(format!(
                    "generation {claimed} disagrees with history length {}",
                    ckpt.history.len()
                ));
            }
            if ckpt.population.is_empty() {
                return Err("population is empty".into());
            }
            Ok(ckpt)
        })
    }

    /// Serializes the snapshot as one JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("Value serialization is infallible")
    }

    /// Parses a snapshot from JSON text.
    ///
    /// # Errors
    /// Invalid JSON or schema violations, as a human-readable string.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
        Self::from_value(&v)
    }

    /// Persists the snapshot to `path` atomically: the JSON is written to
    /// a `.tmp` sibling and renamed over the target, so a crash (or an
    /// injected `ga.checkpoint_write_err` fault) mid-write never corrupts
    /// an existing snapshot.
    ///
    /// # Errors
    /// [`crate::GaError::Checkpoint`] naming `path`, on I/O failure or an
    /// injected fault.
    pub fn save(&self, path: &std::path::Path) -> Result<(), crate::GaError> {
        use crate::GaError;
        if cold_fault::armed() && cold_fault::should_fire("ga.checkpoint_write_err") {
            return Err(GaError::Checkpoint(format!(
                "{}: injected checkpoint write failure",
                path.display()
            )));
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json())
            .map_err(|e| GaError::Checkpoint(format!("{}: write failed: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| GaError::Checkpoint(format!("{}: rename failed: {e}", path.display())))
    }

    /// Loads a snapshot saved by [`save`](Self::save).
    ///
    /// # Errors
    /// [`crate::GaError::Checkpoint`] naming `path`: unreadable file, invalid
    /// JSON (truncated/garbage documents included), or schema violations.
    /// Never panics on corrupt input.
    pub fn load(path: &std::path::Path) -> Result<Self, crate::GaError> {
        use crate::GaError;
        let text = std::fs::read_to_string(path)
            .map_err(|e| GaError::Checkpoint(format!("{}: read failed: {e}", path.display())))?;
        Self::from_json(&text).map_err(|e| GaError::Checkpoint(format!("{}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GaCheckpoint {
        let a = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let b = AdjacencyMatrix::complete(4);
        GaCheckpoint {
            settings: GaSettings::quick(7),
            generation: 2,
            rng_state: [u64::MAX, 1, 0x1234_5678_9ABC_DEF0, 42],
            population: vec![
                Individual { topology: a.clone(), cost: 12.5 },
                Individual { topology: b.clone(), cost: 99.0 },
            ],
            history: vec![15.0, 13.0, 12.5],
            eval_stats: EvalStats {
                requested: 120,
                cache_hits: 20,
                cache_misses: 100,
                eval_seconds: 0.125,
                ..EvalStats::default()
            },
            repair_stats: RepairStats { repaired: 3, inspected: 80, links_added: 4 },
            cache: Some(vec![(b, 99.0), (a, 12.5)]),
            pareto: None,
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let ckpt = sample();
        let back = GaCheckpoint::from_json(&ckpt.to_json()).expect("round trip");
        assert_eq!(back.settings, ckpt.settings);
        assert_eq!(back.generation, ckpt.generation);
        assert_eq!(back.rng_state, ckpt.rng_state, "full-width u64 state must survive JSON");
        assert_eq!(back.history, ckpt.history);
        assert_eq!(back.eval_stats, ckpt.eval_stats);
        assert_eq!(back.repair_stats, ckpt.repair_stats);
        assert_eq!(back.population.len(), ckpt.population.len());
        for (x, y) in back.population.iter().zip(&ckpt.population) {
            assert_eq!(x.topology, y.topology);
            assert_eq!(x.cost, y.cost);
        }
        // The cache is serialized sorted; compare as sets.
        let mut a = back.cache.unwrap();
        let mut b = ckpt.cache.unwrap();
        let key = |e: &(AdjacencyMatrix, f64)| e.0.edges().collect::<Vec<_>>();
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a.len(), b.len());
        for ((ta, ca), (tb, cb)) in a.iter().zip(&b) {
            assert_eq!(ta, tb);
            assert_eq!(ca, cb);
        }
    }

    #[test]
    fn a_pareto_snapshot_is_the_scalar_document_plus_its_nsga2_state() {
        let mut ckpt = sample();
        let cache = ckpt.cache.take().map(|c| c.into_iter().map(|(t, c)| (t, vec![c, 0.5])));
        let front = ParetoPoint {
            topology: ckpt.population[0].topology.clone(),
            objectives: vec![12.5, 0.5],
        };
        ckpt.pareto = Some(ParetoState {
            archive: vec![front],
            reference: vec![108.9, 1.1],
            objectives: vec![vec![12.5, 0.5], vec![99.0, 0.25]],
            cache: cache.map(Iterator::collect),
        });
        let doc = ckpt.to_value();
        assert_eq!(doc["cache"][0]["objectives"], json!([12.5, 0.5]), "the cache holds vectors");
        assert_eq!(doc["pareto"]["reference"], json!([108.9, 1.1]));
        assert!(sample().to_value().get("pareto").is_none(), "a scalar snapshot has no `pareto`");
        let back = GaCheckpoint::from_json(&ckpt.to_json()).expect("round trip");
        assert_eq!(back.to_json(), ckpt.to_json());
        let mut bad = doc.clone();
        let state = bad.get_mut("pareto").expect("a pareto member");
        *state.get_mut("objectives").expect("objectives") = json!([[1.0, "x"]]);
        assert!(GaCheckpoint::from_value(&bad).is_err(), "a non-numeric objective");
    }

    #[test]
    fn serialization_is_deterministic() {
        // HashMap-order independence: reversed cache entries serialize to
        // the same bytes.
        let ckpt = sample();
        let mut rev = ckpt.clone();
        rev.cache.as_mut().unwrap().reverse();
        assert_eq!(ckpt.to_json(), rev.to_json());
    }

    /// `sample()`'s document with its first chromosome replaced by
    /// `topology`.
    fn with_first_topology(topology: Value) -> Value {
        let mut doc = sample().to_value();
        let Some(Value::Array(population)) = doc.get_mut("population") else {
            panic!("a population array");
        };
        *population[0].get_mut("topology").expect("a topology") = topology;
        doc
    }

    #[test]
    fn chromosomes_are_written_as_packed_hex_words() {
        // The path 0-1-2-3 sets pairs (0,1), (1,2) and (2,3): bits 0, 3, 5.
        let path = json!({"n": 4, "bits": "0000000000000029"});
        assert_eq!(sample().to_value()["population"][0]["topology"], path);
    }

    #[test]
    fn malformed_bits_are_errors_not_panics() {
        let cases = [
            ("wrong length", json!("29")),
            ("one digit short", json!("000000000000029")),
            ("two words for one", json!("00000000000000290000000000000000")),
            ("a non-hex digit", json!("000000000000002g")),
            ("an uppercase digit", json!("00000000000000A9")),
            ("a sign", json!("+000000000000029")),
            ("a set padding bit", json!("0000000000000040")),
            ("a multi-byte character", json!("00000000000000é")),
            ("not a string", json!(41)),
        ];
        for (what, bits) in cases {
            let doc = with_first_topology(json!({"n": 4, "bits": bits}));
            assert!(GaCheckpoint::from_value(&doc).is_err(), "{what} was accepted");
        }
        let huge = with_first_topology(json!({"n": u64::MAX, "bits": "0000000000000029"}));
        assert!(GaCheckpoint::from_value(&huge).is_err(), "an overflowing node count");
    }

    #[test]
    fn an_edge_list_too_short_to_connect_its_nodes_is_rejected_before_allocating() {
        // A claimed 2^33 nodes would need 2^65 bits.
        let huge = with_first_topology(json!({"n": 8_589_934_592_u64, "edges": []}));
        let err = GaCheckpoint::from_value(&huge).unwrap_err();
        assert!(err.contains("0 edges cannot connect 8589934592 nodes"), "{err}");
        let short = with_first_topology(json!({"n": 4, "edges": [[0, 1], [1, 2]]}));
        assert!(GaCheckpoint::from_value(&short).is_err(), "a disconnected path");
        let path = with_first_topology(json!({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}));
        assert!(GaCheckpoint::from_value(&path).is_ok(), "a spanning path");
    }

    #[test]
    fn corrupt_documents_are_rejected() {
        assert!(GaCheckpoint::from_json("").is_err());
        assert!(GaCheckpoint::from_json("{}").is_err());
        assert!(GaCheckpoint::from_json("{\"kind\":\"other\"}").is_err());
        let good = sample().to_json();
        // Truncation must not validate.
        assert!(GaCheckpoint::from_json(&good[..good.len() / 2]).is_err());
        // A generation/history mismatch must not validate.
        let tampered = good.replace("\"generation\":2", "\"generation\":9");
        assert!(GaCheckpoint::from_json(&tampered).is_err());
    }
}
