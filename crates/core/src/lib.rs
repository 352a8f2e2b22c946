//! # COLD: Combined Optimization and Layered Design
//!
//! A from-scratch Rust implementation of the PoP-level network topology
//! synthesizer from *"COLD: PoP-level Network Topology Synthesis"* (Bowden,
//! Roughan, Bean — ACM CoNEXT 2014).
//!
//! COLD generates ensembles of realistic PoP-level data networks by
//! balancing randomness and design: the *context* (PoP locations and a
//! gravity-model traffic matrix) is random, while the network built for
//! each context is the (heuristically) cost-optimal design under the
//! four-parameter objective
//!
//! ```text
//! min Σ_links (k0 + k1·ℓ + k2·ℓ·w)  +  k3·#hubs
//! ```
//!
//! subject to carrying all offered traffic on shortest-path routes.
//!
//! ## Quick start
//!
//! ```
//! use cold::{ColdConfig, SynthesisMode};
//!
//! // 12 PoPs, paper cost preset (k0=10, k1=1), chosen k2/k3, quick GA.
//! let config = ColdConfig::quick(12, 4e-4, 10.0);
//! let result = config.synthesize(42);
//! let net = &result.network;
//! println!(
//!     "{} PoPs, {} links, cost {:.1}",
//!     net.n(),
//!     net.link_count(),
//!     net.total_cost()
//! );
//! assert!(net.link_count() >= net.n() - 1); // connected by construction
//! ```
//!
//! ## Module map
//!
//! - [`synthesizer`] — the top-level API: config → synthesized network(s).
//! - [`objective`] — the COLD cost function as a GA [`cold_ga::Objective`].
//! - [`stats`] — the §6 statistics bundle for a topology.
//! - [`report`] — Markdown ensemble reports (stats + CIs + costs +
//!   survivability).
//! - [`bootstrap`] — bootstrap confidence intervals (the error bars of
//!   Figs 3 and 5).
//! - [`sweep`] — parameter sweeps over `(k2, k3)` grids with parallel
//!   trials (Figs 5–9).
//! - [`zoo`] — a surrogate "Topology Zoo" standing in for the dataset of
//!   ref \[16\] (see DESIGN.md §5 for the substitution rationale).
//! - [`router_level`] — template-based router-level expansion of a
//!   PoP-level network (the layered step previewed in §1/§8).
//! - [`inter_as`] — multi-AS synthesis over shared cities (§2's
//!   extensibility example).
//! - [`abc`] — Approximate Bayesian Computation to fit `k` parameters to
//!   an observed network (§8 future work).
//! - [`resilience`] — redundancy-aware synthesis: a bridge-outage cost on
//!   top of eq. (2), the constraint extension §2 invites, plus
//!   survivability analysis.
//! - [`evolution`] — brown-field incremental design: grow the context and
//!   re-optimize with legacy links as sunk costs (§3's "networks are
//!   rarely designed from scratch – they evolve").
//! - [`evolve`] — the evolution subsystem: warm-started synthesis over an
//!   [`EvolutionPlan`] of context perturbations, with a rewiring
//!   [`ChangeCosts`] penalty and time-sliced [`TopologySchedule`] output
//!   (DESIGN.md §17).
//! - [`export`] — DOT / GraphML / JSON / SVG exporters for simulation
//!   hand-off and visualization.
//! - [`failure`] — single-link failure analysis on the synthesized
//!   artifact (stranded traffic, reroute overload, path stretch).
//! - [`graphml_in`] — GraphML *import* (Topology-Zoo-style documents and
//!   this crate's own exports), feeding external networks into the ABC
//!   fitting workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abc;
pub mod bootstrap;
pub mod checkpoint;
pub mod error;
pub mod evolution;
pub mod evolve;
pub mod export;
pub mod failure;
pub mod fingerprint;
pub mod graphml_in;
pub mod inter_as;
pub mod objective;
pub mod pareto;
pub mod report;
pub mod resilience;
pub mod router_level;
pub mod stats;
pub mod sweep;
pub mod synthesizer;
pub mod zoo;

pub use checkpoint::{
    attempt_seed, objective_from_value, objective_value, run_campaign, Campaign,
    CampaignCheckpoint, LocalTrials, Snapshots, TrialOutcome, TrialRecord, TrialSource,
};
pub use cold_ga::StopReason;
pub use error::ColdError;
pub use evolve::{
    change_penalty, embed_parent, run_plan, ChangeCosts, ChangePenaltyObjective, EvolutionPlan,
    PlanStep, RewiringDiff, ScheduleStep, StepConvergence, TopologySchedule, WARM_SALT,
};
pub use fingerprint::{canonical_json, fingerprint_hex, job_fingerprint, value_fingerprint};
pub use objective::ColdObjective;
pub use pareto::{
    try_synthesize_pareto, ColdMultiObjective, ParetoFrontMember, ParetoSynthesisResult,
};
pub use stats::NetworkStats;
pub use synthesizer::{
    join_abandoned_watchdog_threads, run_attempt, AttemptOptions, CheckpointSink, ColdConfig,
    EnsembleOutcome, ProgressSink, RunOptions, SynthesisMode, SynthesisResult, TrialFailure,
    TrialObjective, TrialRunner, TrialSpec, RETRY_SALT,
};

// Re-export the component crates so `cold` is a one-stop dependency.
pub use cold_baselines as baselines;
pub use cold_context as context;
pub use cold_cost as cost;
pub use cold_ga as ga;
pub use cold_graph as graph;
pub use cold_heuristics as heuristics;
