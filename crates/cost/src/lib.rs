//! COLD's network cost model (§3.2 of the paper).
//!
//! A candidate PoP-level topology is scored by
//!
//! ```text
//! cost(G) = Σ_{i ∈ E} (k0 + k1·ℓᵢ + k2·ℓᵢ·wᵢ)  +  Σ_{j ∈ N_C} k3     (2)
//! ```
//!
//! where `ℓᵢ` is link `i`'s geometric length, `wᵢ` the bandwidth required
//! to carry all shortest-path-routed traffic crossing it, and
//! `N_C = {j : degree(j) > 1}` the set of core (hub) PoPs.
//!
//! - [`params`]: the four tunable costs `k0…k3` (with `k1 = 1` as the
//!   paper's normalization) and the overprovisioning factor `O`.
//! - [`capacity`]: shortest-path routing of the traffic matrix and link
//!   bandwidth assignment (§3.2.1).
//! - [`cost`]: the objective function, with a component breakdown.
//! - [`delta`]: incremental re-evaluation — repairs only the
//!   shortest-path trees a mutation's flipped edges touch, bit-identical
//!   to the full pass.
//! - [`network`]: the full synthesized-network output — links, lengths,
//!   capacities and routes — "more than just a series of connected nodes"
//!   (§2 item 5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod cost;
pub mod delta;
pub mod network;
pub mod params;

pub use capacity::{assign_capacities, CapacityPlan};
#[doc(hidden)]
pub use cost::evaluate_total_untimed;
pub use cost::{evaluate_parts, evaluate_total, CostBreakdown, CostEvaluator};
pub use delta::DeltaEval;
pub use network::Network;
pub use params::CostParams;
