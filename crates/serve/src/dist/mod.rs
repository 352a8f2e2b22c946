//! Fault-tolerant distributed trial execution for `cold-serve`.
//!
//! A coordinator process shards each campaign's trials across a pool
//! of worker processes over a tiny std-TCP protocol
//! ([`proto`]), with pull-based work-stealing leases, heartbeats,
//! bounded retry with exponential backoff, and checkpoint migration —
//! a trial killed mid-GA on one worker resumes bit-identically from
//! its last uploaded snapshot on another. With zero workers the
//! coordinator degrades gracefully to inline execution, so
//! `--role coordinator` is never worse than a standalone server.
//!
//! See `DESIGN.md` §16 for the protocol frames, the lease state
//! machine, and the failure/recovery matrix.

pub mod coordinator;
pub mod proto;
pub mod worker;

pub use coordinator::{DistConfig, DistHandle, DistPool, PoolTrials};
pub use worker::{run_worker, WorkerConfig};
