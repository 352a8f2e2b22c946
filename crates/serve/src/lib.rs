//! # cold-serve — synthesis as a service
//!
//! A dependency-free (std + the workspace's vendored `serde_json`)
//! HTTP/1.1 front end over the COLD synthesizer: clients `POST` a
//! [`cold::ColdConfig`] and get back a content-addressed job id; a fixed
//! pool of workers drains a bounded FIFO queue through the same guarded
//! campaign machinery the `cold-gen` CLI uses; results land in an
//! on-disk cache keyed by the canonical configuration fingerprint, so a
//! semantically identical resubmission — however its JSON was spelled —
//! is a cache hit, and an identical submission *while the first is still
//! running* coalesces onto the in-flight job.
//!
//! ## Routes
//!
//! | route | answer |
//! |-------|--------|
//! | `POST /jobs` | `202` queued, `200` cache/in-flight hit, `503` + `Retry-After` queue full, `400` typed error |
//! | `GET /jobs/{id}` | `200` status + live progress, `404` typed error |
//! | `GET /jobs/{id}/result` | `200` result document, `202` not ready, `404` |
//! | `GET /healthz` | `200` liveness + queue depth |
//! | `GET /metrics` | `200` Prometheus-style text from the `cold-obs` registry |
//! | `POST /admin/shutdown` | `200`, then drains exactly like SIGTERM |
//!
//! ## Crash-safety contract
//!
//! Synthesis is a pure function of `(config, seed)`, so the service
//! never invents state: every job runs as a checkpointed campaign
//! (`checkpoint_every = 1`) inside its cache directory. A drain cancels
//! between trials; a kill loses at most the trial in flight; either way
//! a restarted server re-scans the cache, re-enqueues unfinished jobs,
//! and resumes them from their checkpoints (`job_started` journal events
//! carry the resumed-trial count). A worker panic — including the armed
//! `serve.worker_panic` chaos site — fails at most one job attempt,
//! never the process.
//!
//! ## Distributed mode
//!
//! `cold-serve --role coordinator` additionally listens on a worker
//! protocol port and shards each campaign's trials across remote
//! `cold-serve --role worker` processes with work-stealing leases,
//! heartbeats, and checkpoint migration — see the [`dist`] module and
//! `DESIGN.md` §16. With zero workers the coordinator runs trials
//! inline, so distributed mode strictly adds capacity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acceptor;
pub mod cache;
pub mod dist;
pub mod http;
pub mod job;
pub mod metrics;
pub mod queue;
pub mod server;

pub use cache::ResultCache;
pub use dist::{DistConfig, DistPool, WorkerConfig};
pub use http::{client_request, ClientResponse, Request, Response};
pub use job::{JobEntry, JobMode, JobProgress, JobSpec, JobStatus};
pub use queue::{BoundedQueue, QueueFull};
pub use server::{Server, ServerConfig, ServerHandle};
