//! Worker side of the distributed trial pool.
//!
//! A worker is deliberately stateless: it registers with the
//! coordinator, then loops pulling one lease at a time, running the
//! trial, and uploading the result. An idle worker re-polls soon after a
//! `no_work` (10 ms), doubling the wait up to the coordinator's
//! `backoff_ms`, so a job submitted just after the worker went idle is
//! leased at once. The trial runs through
//! `run_grant` — one [`cold::run_attempt`], the step every local trial
//! and the coordinator's inline fallback run too — so a panic is
//! contained and the job's trial deadline (`cold-serve --deadline`,
//! shipped in the grant) is enforced here; either comes back to the
//! coordinator as a `trial_error`, which requeues the trial at once.
//! Everything that matters for recovery lives on the coordinator — if a
//! worker dies mid-trial (crash, SIGKILL, network partition) the
//! coordinator notices via the missed heartbeats, requeues the lease,
//! and the next holder resumes from the last uploaded GA snapshot.
//!
//! Snapshot uploads are deltas. Within a lease the checkpoint sink
//! remembers which fitness-cache chromosomes the coordinator has
//! acknowledged (after a migration, those of the grant's snapshot), and
//! each `trial_checkpoint` carries the population, RNG state, history
//! and counters plus only the unacknowledged cache entries, with the
//! size of the whole cache. The coordinator merges the delta into its
//! copy of the run. A `checkpoint_rejected` reply (the copy lacks
//! entries the delta assumes) makes the sink forget its acknowledgements
//! and send the snapshot again in full; a `lease_revoked` reply (the
//! lease expired, was re-queued, or its trial completed elsewhere) stops
//! the lease's uploads.
//!
//! Fault sites wired through this module:
//!
//! * `dist.worker_crash` — `abort()`s the process at a trial boundary
//!   (before the GA starts, or right after a checkpoint upload), the
//!   injected stand-in for a SIGKILL mid-campaign.
//! * `dist.conn_drop` — drops the connection after writing a request
//!   frame, exercising the retry/idempotency paths.
//! * `dist.heartbeat_miss` — skips one heartbeat, exercising eviction
//!   tolerance.

use crate::dist::proto::{self, LeaseGrant, Msg};
use cold::ga::GaCheckpoint;
use cold::graph::AdjacencyMatrix;
use cold::{
    fingerprint_hex, value_fingerprint, AttemptOptions, CheckpointSink, ColdConfig, ColdError,
    ProgressSink, TrialObjective, TrialRecord, TrialSpec,
};
use serde::Deserialize;
use serde_json::json;
use std::collections::HashSet;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Connection settings for one worker process.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub coordinator: String,
    /// Self-reported name; must be unique within the pool (the default
    /// `worker-<pid>` is).
    pub name: String,
    /// Heartbeat interval in milliseconds.
    pub heartbeat_ms: u64,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            coordinator: "127.0.0.1:8094".into(),
            name: format!("worker-{}", std::process::id()),
            heartbeat_ms: 500,
        }
    }
}

/// One request/reply exchange on a fresh connection.
fn exchange(addr: &str, msg: &Msg) -> io::Result<Msg> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    proto::write_frame(&mut stream, msg)?;
    if cold_fault::armed() && cold_fault::should_fire("dist.conn_drop") {
        // Simulate the connection dying between request and reply: the
        // request may or may not have been processed, which is exactly
        // why every upload is idempotent.
        drop(stream);
        return Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "injected fault: dist.conn_drop",
        ));
    }
    proto::read_frame(&mut stream)
}

/// Retries an idempotent exchange a few times before giving up.
fn exchange_retry(addr: &str, msg: &Msg, attempts: usize) -> io::Result<Msg> {
    let mut last = None;
    for i in 0..attempts {
        match exchange(addr, msg) {
            Ok(reply) => return Ok(reply),
            Err(e) => {
                last = Some(e);
                if i + 1 < attempts {
                    thread::sleep(Duration::from_millis(200));
                }
            }
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("exchange failed")))
}

/// Aborts the process when the fault `site` is armed and fires.
fn crash_if_armed(site: &str) {
    if cold_fault::armed() && cold_fault::should_fire(site) {
        eprintln!("[cold-serve] worker aborting: injected fault {site}");
        std::process::abort();
    }
}

/// Runs the worker loop until the coordinator drains it or `shutdown`
/// is set. Returns `Ok(())` on a clean drain.
///
/// # Errors
/// An I/O error if the coordinator is unreachable at registration time
/// (after a bounded retry window) or disappears for good mid-run.
pub fn run_worker(cfg: &WorkerConfig, shutdown: &AtomicBool) -> io::Result<()> {
    // All of this worker's journal lines live under one `dist.worker`
    // root; per-trial spans re-anchor under the owning job's trace.
    let worker_trace_id = fingerprint_hex(value_fingerprint(&json!({"dist_worker": cfg.name})));
    let _scope = cold_obs::trace::root("dist.worker", &worker_trace_id);
    let worker_ctx = cold_obs::trace::current();

    // Registration, with retry: the worker may start before the
    // coordinator's listener is up.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        match exchange(&cfg.coordinator, &Msg::Hello { worker: cfg.name.clone() }) {
            Ok(Msg::HelloOk) => break,
            Ok(other) => {
                return Err(io::Error::other(format!("unexpected hello reply: {other:?}")))
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                thread::sleep(Duration::from_millis(250));
            }
        }
    }
    eprintln!("[cold-serve] worker {} joined coordinator {}", cfg.name, cfg.coordinator);

    // Heartbeat thread: cheap, independent of trial execution, and the
    // drain side-channel (the coordinator answers `drain: true` once
    // the server starts shutting down).
    let drain = Arc::new(AtomicBool::new(false));
    let hb_stop = Arc::new(AtomicBool::new(false));
    let heartbeat = {
        let addr = cfg.coordinator.clone();
        let name = cfg.name.clone();
        let every = Duration::from_millis(cfg.heartbeat_ms.max(50));
        let drain = Arc::clone(&drain);
        let hb_stop = Arc::clone(&hb_stop);
        let ctx = worker_ctx.clone();
        thread::spawn(move || {
            let _scope = ctx.map(cold_obs::trace::enter);
            while !hb_stop.load(Ordering::SeqCst) {
                thread::sleep(every);
                if hb_stop.load(Ordering::SeqCst) {
                    break;
                }
                if cold_fault::armed() && cold_fault::should_fire("dist.heartbeat_miss") {
                    continue; // skip exactly this beat
                }
                if let Ok(Msg::HeartbeatOk { drain: d }) =
                    exchange(&addr, &Msg::Heartbeat { worker: name.clone() })
                {
                    if d {
                        drain.store(true, Ordering::SeqCst);
                    }
                }
            }
        })
    };

    // An idle worker's first re-poll comes soon; the wait then doubles up
    // to the coordinator's `backoff_ms`, so the idle request rate after
    // the first few hundred milliseconds is the coordinator's.
    const FIRST_IDLE_WAIT: Duration = Duration::from_millis(10);
    let mut idle_wait = FIRST_IDLE_WAIT;
    let mut consecutive_failures = 0usize;
    let outcome = loop {
        if shutdown.load(Ordering::SeqCst) || drain.load(Ordering::SeqCst) {
            break Ok(());
        }
        match exchange(&cfg.coordinator, &Msg::LeaseRequest { worker: cfg.name.clone() }) {
            Ok(Msg::Grant(grant)) => {
                consecutive_failures = 0;
                idle_wait = FIRST_IDLE_WAIT;
                run_lease(cfg, grant);
            }
            Ok(Msg::NoWork { backoff_ms }) => {
                consecutive_failures = 0;
                let cap = Duration::from_millis(backoff_ms.clamp(10, 2000));
                thread::sleep(idle_wait.min(cap));
                idle_wait = (idle_wait * 2).min(cap);
            }
            Ok(Msg::Drain) => break Ok(()),
            Ok(_) | Err(_) => {
                consecutive_failures += 1;
                if consecutive_failures > 120 {
                    break Err(io::Error::other("coordinator unreachable for too long"));
                }
                thread::sleep(Duration::from_millis(250));
            }
        }
    };

    let _ = exchange(&cfg.coordinator, &Msg::Bye { worker: cfg.name.clone() });
    hb_stop.store(true, Ordering::SeqCst);
    let _ = heartbeat.join();
    eprintln!("[cold-serve] worker {} drained", cfg.name);
    outcome
}

/// The GA snapshot a migration grant resumes from, if it carries one.
pub(crate) fn grant_resume(grant: &LeaseGrant) -> Option<GaCheckpoint> {
    grant.snapshot.as_ref().and_then(|s| GaCheckpoint::from_value(s).ok())
}

/// Runs a granted trial — the trial step of remote workers and of the
/// coordinator's inline fallback alike: one [`cold::run_attempt`] of the
/// shipped config on the grant's seed, resumed from `resume` (the
/// grant's snapshot, see [`grant_resume`]), under the grant's trial
/// deadline, handing a snapshot to `checkpoint` every `ckpt_every`
/// generations.
///
/// # Errors
/// [`ColdError::Config`] for an unparseable config, else the attempt's
/// error.
pub(crate) fn run_grant(
    grant: &LeaseGrant,
    resume: Option<GaCheckpoint>,
    progress: Option<ProgressSink>,
    checkpoint: Option<CheckpointSink>,
) -> Result<TrialRecord, ColdError> {
    let config = ColdConfig::from_json_value(&grant.config)
        .ok_or_else(|| ColdError::Config("grant carried an unparseable config".into()))?;
    let options = AttemptOptions {
        resume,
        deadline: grant.trial_deadline_ms.map(Duration::from_millis),
        progress,
        checkpoint: checkpoint.map(|sink| (grant.ckpt_every.max(1), sink)),
    };
    let spec = TrialSpec::new(grant.seed, TrialObjective::Cost);
    cold::run_attempt(&config, grant.trial, grant.attempt, spec, options)
        .map(|r| TrialRecord::from_result(grant.trial, grant.seed, &r))
}

/// One lease's snapshot uploads. The coordinator's copy of the run holds
/// the fitness-cache chromosomes in `acked` (after a migration, those of
/// the grant's snapshot), so an upload carries only the other entries.
pub(crate) struct Uploads {
    worker: String,
    lease: String,
    acked: HashSet<AdjacencyMatrix>,
    /// The coordinator answered `lease_revoked`: upload nothing more.
    revoked: bool,
}

impl Uploads {
    /// Uploads of worker `worker` for `lease`, resumed from `resume`.
    pub(crate) fn new(worker: &str, lease: &str, resume: Option<&GaCheckpoint>) -> Self {
        let cache = resume.and_then(|r| r.cache.as_deref()).unwrap_or_default();
        Self {
            worker: worker.to_string(),
            lease: lease.to_string(),
            acked: cache.iter().map(|(t, _)| t.clone()).collect(),
            revoked: false,
        }
    }

    /// Uploads `ckpt` through `send` (one exchange with the coordinator
    /// per call): the snapshot with its cache cut to the unacknowledged
    /// entries, again in full if the coordinator rejects the delta.
    /// Returns `false`, sending nothing, once the lease is revoked.
    pub(crate) fn upload(
        &mut self,
        ckpt: &GaCheckpoint,
        mut send: impl FnMut(&Msg) -> io::Result<Msg>,
    ) -> bool {
        if self.revoked {
            return false;
        }
        let mut resent = false;
        loop {
            let (upload, sent) = self.delta(ckpt);
            match send(&upload) {
                Ok(Msg::CheckpointOk) => self.acked.extend(sent),
                Ok(Msg::CheckpointRejected { reason }) if !resent => {
                    eprintln!(
                        "[cold-serve] worker {} re-sends a full snapshot: {reason}",
                        self.worker
                    );
                    self.acked.clear();
                    resent = true;
                    continue;
                }
                Ok(Msg::LeaseRevoked) => self.revoked = true,
                // A lost exchange: the entries stay unacknowledged and
                // ride the next upload, which the coordinator merges as a
                // union, so a delta it did apply is harmless to re-send.
                _ => {}
            }
            return true;
        }
    }

    /// The `trial_checkpoint` for `ckpt` and the chromosomes it carries.
    fn delta(&self, ckpt: &GaCheckpoint) -> (Msg, Vec<AdjacencyMatrix>) {
        let cache = ckpt.cache.as_ref().map(|entries| {
            entries.iter().filter(|(t, _)| !self.acked.contains(t)).cloned().collect::<Vec<_>>()
        });
        let mut delta = GaCheckpoint {
            settings: ckpt.settings,
            generation: ckpt.generation,
            rng_state: ckpt.rng_state,
            population: ckpt.population.clone(),
            history: ckpt.history.clone(),
            eval_stats: ckpt.eval_stats,
            repair_stats: ckpt.repair_stats,
            cache,
        };
        let upload = Msg::TrialCheckpoint {
            worker: self.worker.clone(),
            lease: self.lease.clone(),
            snapshot: delta.to_value(),
            cache_total: ckpt.cache.as_ref().map_or(0, Vec::len),
        };
        (upload, delta.cache.take().into_iter().flatten().map(|(t, _)| t).collect())
    }
}

/// Executes one granted trial through `run_grant`, uploading periodic
/// GA checkpoints as deltas, then uploads the result (idempotent,
/// retried) or reports the failure.
fn run_lease(cfg: &WorkerConfig, grant: LeaseGrant) {
    // Re-anchor this trial's spans (and its GA generation events) under
    // the owning job's distributed trace.
    let _scope = cold_obs::trace::root("dist.lease", &grant.trace_id);
    crash_if_armed("dist.worker_crash");
    let resume = grant_resume(&grant);
    if let Some(r) = &resume {
        eprintln!(
            "[cold-serve] worker {} resuming job {} trial {} from generation {}",
            cfg.name, grant.job, grant.trial, r.generation
        );
    }

    let addr = cfg.coordinator.clone();
    let mut uploads = Uploads::new(&cfg.name, &grant.lease, resume.as_ref());
    let upload_snapshot = move |ckpt: &GaCheckpoint| {
        if uploads.upload(ckpt, |msg| exchange(&addr, msg)) {
            // Crash *after* the upload: the injected stand-in for a
            // worker SIGKILLed mid-GA with a snapshot already safely
            // off-box — the migrated trial must resume from it, not from
            // scratch.
            crash_if_armed("dist.worker_crash");
        }
    };
    let error = match run_grant(&grant, resume, None, Some(Box::new(upload_snapshot))) {
        Ok(record) => {
            let upload = Msg::TrialResult {
                worker: cfg.name.clone(),
                lease: grant.lease.clone(),
                job: grant.job.clone(),
                trial: grant.trial,
                seed: grant.seed,
                record: record.to_value(),
            };
            match exchange_retry(&cfg.coordinator, &upload, 3) {
                Ok(Msg::ResultOk { duplicate }) => {
                    if duplicate {
                        eprintln!(
                            "[cold-serve] worker {} result for job {} trial {} was a duplicate",
                            cfg.name, grant.job, grant.trial
                        );
                    }
                    return;
                }
                Ok(other) => format!("result upload rejected: {other:?}"),
                Err(e) => format!("result upload failed: {e}"),
            }
        }
        Err(e) => e.to_string(),
    };
    eprintln!(
        "[cold-serve] worker {} failed job {} trial {}: {error}",
        cfg.name, grant.job, grant.trial
    );
    // A failed attempt (an overrun included): tell the coordinator now
    // instead of letting the lease run out its deadline. Best-effort —
    // if this is lost, the deadline path covers it.
    let _ = exchange(
        &cfg.coordinator,
        &Msg::TrialError { worker: cfg.name.clone(), lease: grant.lease, error },
    );
}
