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
//! Snapshot uploads leave the GA's thread. The checkpoint sink only
//! moves each snapshot into the lease's one-slot `Mailbox`, where the
//! newest snapshot replaces an unsent one, and the GA keeps evolving; a
//! per-lease uploader thread (`upload_snapshots`) ships them. When the
//! attempt returns the mailbox closes: an unsent snapshot is dropped, and
//! a GA the watchdog abandoned hands off into the closed mailbox, so it
//! uploads nothing more.
//!
//! Each `trial_checkpoint` carries the engine's whole snapshot, fitness
//! cache included, in the compact chromosome form of `cold_ga`'s
//! checkpoint codec; the coordinator replaces its copy of the run with
//! it. A lost exchange needs no repair, since the next upload is whole
//! too. A `lease_revoked` reply (the lease expired, was re-queued, or its
//! trial completed elsewhere) closes the mailbox and stops the lease's
//! uploads.
//!
//! Fault sites wired through this module:
//!
//! * `dist.worker_crash` — `abort()`s the process mid-campaign, the
//!   injected stand-in for a SIGKILL. It is hit at lease start (before
//!   the GA starts) and once per snapshot the GA hands off; a hand-off's
//!   hit aborts once that snapshot or a newer one is acknowledged, or,
//!   if the attempt ends first, right after that snapshot is flushed.
//! * `dist.conn_drop` — drops the connection after writing a request
//!   frame, exercising the retry/idempotency paths.
//! * `dist.heartbeat_miss` — skips one heartbeat, exercising eviction
//!   tolerance.

use crate::dist::proto::{self, LeaseGrant, Msg};
use cold::ga::GaCheckpoint;
use cold::{
    fingerprint_hex, value_fingerprint, AttemptOptions, CheckpointSink, ColdConfig, ColdError,
    ProgressSink, TrialRecord, TrialSpec,
};
use serde::Deserialize;
use serde_json::json;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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
    if fires("dist.conn_drop") {
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

/// Whether the fault `site` is armed and fires on this hit.
fn fires(site: &str) -> bool {
    cold_fault::armed() && cold_fault::should_fire(site)
}

/// Aborts the process for the injected fault `site`.
fn crash(site: &str) -> ! {
    eprintln!("[cold-serve] worker aborting: injected fault {site}");
    std::process::abort();
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
                if fires("dist.heartbeat_miss") {
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
/// shipped config and objective on the grant's seed, resumed from
/// `resume` (the grant's snapshot, see [`grant_resume`]), under the
/// grant's trial deadline, handing a snapshot to `checkpoint` every
/// `ckpt_every` generations.
///
/// # Errors
/// [`ColdError::Config`] for an unparseable config or objective, else
/// the attempt's error.
pub(crate) fn run_grant(
    grant: &LeaseGrant,
    resume: Option<GaCheckpoint>,
    progress: Option<ProgressSink>,
    checkpoint: Option<CheckpointSink>,
) -> Result<TrialRecord, ColdError> {
    let config = ColdConfig::from_json_value(&grant.config)
        .ok_or_else(|| ColdError::Config("grant carried an unparseable config".into()))?;
    let objective = cold::objective_from_value(grant.objective.as_ref(), config.context.n)
        .ok_or_else(|| ColdError::Config("grant carried an unparseable objective".into()))?;
    let options = AttemptOptions {
        resume,
        deadline: grant.trial_deadline_ms.map(Duration::from_millis),
        progress,
        checkpoint: checkpoint.map(|sink| (grant.ckpt_every.max(1), sink)),
    };
    let spec = TrialSpec::new(grant.seed, objective);
    cold::run_attempt(&config, grant.trial, grant.attempt, spec, options)
        .map(|r| TrialRecord::from_result(grant.trial, grant.seed, &r))
}

/// One lease's snapshot uploads.
pub(crate) struct Uploads {
    worker: String,
    lease: String,
    /// Generation of the newest snapshot the coordinator acknowledged.
    acked_generation: Option<usize>,
    /// The coordinator answered `lease_revoked`: upload nothing more.
    revoked: bool,
}

impl Uploads {
    /// Uploads of worker `worker` for `lease`.
    pub(crate) fn new(worker: &str, lease: &str) -> Self {
        Self {
            worker: worker.to_string(),
            lease: lease.to_string(),
            acked_generation: None,
            revoked: false,
        }
    }

    /// Uploads `ckpt` whole through `send` (one exchange with the
    /// coordinator). Returns `false`, sending nothing, once the lease is
    /// revoked.
    pub(crate) fn upload(
        &mut self,
        ckpt: &GaCheckpoint,
        send: impl FnOnce(&Msg) -> io::Result<Msg>,
    ) -> bool {
        if self.revoked {
            return false;
        }
        let upload = Msg::TrialCheckpoint {
            worker: self.worker.clone(),
            lease: self.lease.clone(),
            snapshot: ckpt.to_value(),
        };
        match send(&upload) {
            Ok(Msg::CheckpointOk) => self.acked_generation = Some(ckpt.generation),
            Ok(Msg::LeaseRevoked) => self.revoked = true,
            // A lost or refused exchange: the next snapshot is uploaded
            // whole, so nothing is owed.
            _ => {}
        }
        true
    }
}

/// The one-slot mailbox between a lease's GA thread and its uploader:
/// it holds the newest snapshot the GA handed off and the uploader has
/// not taken yet.
#[derive(Default)]
struct Mailbox {
    slot: Mutex<Slot>,
    ready: Condvar,
}

#[derive(Default)]
struct Slot {
    /// The newest snapshot not yet taken for upload.
    pending: Option<GaCheckpoint>,
    /// The attempt returned or the lease was revoked: hand-offs are
    /// dropped.
    closed: bool,
    /// The injected `dist.worker_crash` fired for the hand-off of this
    /// generation.
    crash_at: Option<usize>,
}

impl Mailbox {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands `ckpt` to the uploader, replacing an unsent older snapshot,
    /// and returns at once. `crash` is asked once per accepted hand-off
    /// whether the injected worker crash fires for it. Returns `false`,
    /// dropping `ckpt`, once the mailbox is closed.
    fn post(&self, ckpt: GaCheckpoint, crash: impl FnOnce() -> bool) -> bool {
        let mut slot = self.lock();
        if slot.closed {
            return false;
        }
        if crash() {
            slot.crash_at.get_or_insert(ckpt.generation);
        }
        slot.pending = Some(ckpt);
        self.ready.notify_one();
        true
    }

    /// Closes the mailbox: later hand-offs are dropped, and so is an
    /// unsent snapshot, unless an injected crash waits for it.
    fn close(&self) {
        let mut slot = self.lock();
        slot.closed = true;
        if slot.crash_at.is_none() {
            slot.pending = None;
        }
        self.ready.notify_one();
    }

    /// The next snapshot to upload, waiting for one; `None` once the
    /// mailbox is closed and empty.
    fn take(&self) -> Option<GaCheckpoint> {
        let mut slot = self.lock();
        loop {
            if let Some(ckpt) = slot.pending.take() {
                return Some(ckpt);
            }
            if slot.closed {
                return None;
            }
            slot = self.ready.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn crash_at(&self) -> Option<usize> {
        self.lock().crash_at
    }
}

/// A lease's uploader: uploads each snapshot `mailbox` hands over,
/// through `uploads` and `send`, until the mailbox closes; a
/// `lease_revoked` reply closes it. Returns `true` when the injected
/// worker crash is due: the snapshot it fired for, or a newer one, is
/// acknowledged, or the mailbox closed after it fired (that snapshot
/// flushed first).
fn upload_snapshots(
    mailbox: &Mailbox,
    uploads: &mut Uploads,
    mut send: impl FnMut(&Msg) -> io::Result<Msg>,
) -> bool {
    while let Some(ckpt) = mailbox.take() {
        uploads.upload(&ckpt, &mut send);
        if uploads.revoked {
            mailbox.close();
            break;
        }
        if mailbox.crash_at().is_some_and(|g| uploads.acked_generation >= Some(g)) {
            return true;
        }
    }
    mailbox.crash_at().is_some()
}

/// Executes one granted trial through `run_grant`, uploading periodic
/// GA checkpoints whole from the lease's uploader thread, then
/// uploads the result (idempotent, retried) or reports the failure.
fn run_lease(cfg: &WorkerConfig, grant: LeaseGrant) {
    // Re-anchor this trial's spans (and its GA generation events) under
    // the owning job's distributed trace.
    let _scope = cold_obs::trace::root("dist.lease", &grant.trace_id);
    if fires("dist.worker_crash") {
        crash("dist.worker_crash");
    }
    let resume = grant_resume(&grant);
    if let Some(r) = &resume {
        eprintln!(
            "[cold-serve] worker {} resuming job {} trial {} from generation {}",
            cfg.name, grant.job, grant.trial, r.generation
        );
    }

    // The GA only hands each snapshot to the mailbox; the uploader
    // thread ships it. The post-upload crash site is hit once per
    // hand-off, on the GA thread, so a trigger count names the same
    // snapshot however the uploads coalesce.
    let mailbox = Arc::new(Mailbox::default());
    let hand_off = {
        let mailbox = Arc::clone(&mailbox);
        move |ckpt: GaCheckpoint| {
            mailbox.post(ckpt, || fires("dist.worker_crash"));
        }
    };
    let mut uploads = Uploads::new(&cfg.name, &grant.lease);
    let ctx = cold_obs::trace::current();
    let outcome = thread::scope(|scope| {
        scope.spawn(|| {
            let _scope = ctx.map(cold_obs::trace::enter);
            let send = |msg: &Msg| exchange(&cfg.coordinator, msg);
            if upload_snapshots(&mailbox, &mut uploads, send) {
                // The injected stand-in for a worker SIGKILLed mid-GA
                // with a snapshot already safely off-box: the migrated
                // trial must resume from it, not from scratch.
                crash("dist.worker_crash");
            }
        });
        let outcome = run_grant(&grant, resume, None, Some(Box::new(hand_off)));
        // An abandoned GA's later hand-offs are dropped here.
        mailbox.close();
        outcome
    });
    let error = match outcome {
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

#[cfg(test)]
mod tests {
    use super::*;
    use cold::TrialObjective;
    use std::sync::mpsc::{self, Receiver, Sender};

    /// The engine's snapshots of a small trial, one per generation
    /// (index `g - 1` holds generation `g`).
    fn snapshots() -> Vec<GaCheckpoint> {
        let mut snaps = Vec::new();
        let mut sink = |c: GaCheckpoint| snaps.push(c);
        let checkpoint = Some(cold::ga::CheckpointHook { every: 1, sink: &mut sink });
        let options = cold::RunOptions { checkpoint, ..cold::RunOptions::default() };
        let spec = TrialSpec::new(7, TrialObjective::Cost);
        ColdConfig::quick(6, 4e-4, 10.0).run_trial(spec, options).expect("trial");
        snaps
    }

    /// What one upload carried: the generation and the snapshot document.
    type Sent = (u64, serde_json::Value);

    /// An uploader over `mailbox` whose exchanges block: each upload is
    /// reported on the returned receiver, and its exchange returns the
    /// next reply the test sends (an error once the sender is dropped).
    fn blocked_uploader(
        mailbox: &Arc<Mailbox>,
    ) -> (Receiver<Sent>, Sender<Msg>, thread::JoinHandle<bool>) {
        let (sent_tx, sent_rx) = mpsc::channel();
        let (reply_tx, reply_rx) = mpsc::channel::<Msg>();
        let mailbox = Arc::clone(mailbox);
        let uploader = thread::spawn(move || {
            let mut uploads = Uploads::new("w1", "1ea5e1ea5e1ea5e1");
            upload_snapshots(&mailbox, &mut uploads, |msg| {
                let Msg::TrialCheckpoint { snapshot, .. } = msg else {
                    panic!("expected a snapshot upload, got {msg:?}");
                };
                let generation = snapshot["generation"].as_u64().expect("generation");
                sent_tx.send((generation, snapshot.clone())).expect("test listens");
                reply_rx.recv().map_err(|_| io::Error::from(io::ErrorKind::ConnectionAborted))
            })
        });
        (sent_rx, reply_tx, uploader)
    }

    const NO_CRASH: fn() -> bool = || false;

    #[test]
    fn hand_off_returns_while_an_exchange_is_blocked_and_the_newest_snapshot_wins() {
        let snaps = snapshots();
        let mailbox = Arc::new(Mailbox::default());
        let (sent, replies, uploader) = blocked_uploader(&mailbox);
        assert!(mailbox.post(snaps[0].clone(), NO_CRASH));
        assert_eq!(sent.recv().expect("upload").0, 1);
        // The generation-1 exchange is blocked; the GA hands off two more
        // snapshots without waiting, and the newer replaces the unsent one.
        assert!(mailbox.post(snaps[1].clone(), NO_CRASH));
        assert!(mailbox.post(snaps[2].clone(), NO_CRASH));
        replies.send(Msg::CheckpointOk).expect("reply");
        assert_eq!(sent.recv().expect("upload").0, 3, "generation 2 was superseded unsent");
        replies.send(Msg::CheckpointOk).expect("reply");
        assert!(mailbox.post(snaps[3].clone(), NO_CRASH));
        let (generation, snapshot) = sent.recv().expect("upload");
        assert_eq!(generation, 4);
        assert_eq!(snapshot, snaps[3].to_value(), "the engine's whole snapshot");
        replies.send(Msg::CheckpointOk).expect("reply");
        mailbox.close();
        assert!(!uploader.join().expect("uploader"), "no crash is due");
        let later: Vec<u64> = sent.try_iter().map(|s| s.0).collect();
        assert!(later.is_empty(), "uploads after close: {later:?}");
    }

    #[test]
    fn lease_revoked_stops_uploads_and_closes_the_mailbox() {
        let snaps = snapshots();
        let mailbox = Arc::new(Mailbox::default());
        let (sent, replies, uploader) = blocked_uploader(&mailbox);
        mailbox.post(snaps[0].clone(), NO_CRASH);
        assert_eq!(sent.recv().expect("upload").0, 1);
        replies.send(Msg::LeaseRevoked).expect("reply");
        assert!(!uploader.join().expect("uploader"));
        assert!(!mailbox.post(snaps[1].clone(), NO_CRASH), "hand-offs after revocation");
        assert!(sent.try_recv().is_err(), "nothing more was uploaded");
    }

    #[test]
    fn a_closed_mailbox_drops_hand_offs() {
        let snaps = snapshots();
        let mailbox = Mailbox::default();
        assert!(mailbox.post(snaps[0].clone(), NO_CRASH));
        mailbox.close();
        assert!(!mailbox.post(snaps[1].clone(), NO_CRASH));
        assert!(mailbox.take().is_none(), "the unsent snapshot was dropped");
        let mut uploads = Uploads::new("w1", "1ea5e1ea5e1ea5e1");
        let crash = upload_snapshots(&mailbox, &mut uploads, |msg| panic!("uploaded {msg:?}"));
        assert!(!crash);
    }

    #[test]
    fn an_injected_crash_waits_for_its_snapshot_to_be_acknowledged() {
        let snaps = snapshots();
        let mailbox = Arc::new(Mailbox::default());
        let (sent, replies, uploader) = blocked_uploader(&mailbox);
        mailbox.post(snaps[0].clone(), NO_CRASH);
        assert_eq!(sent.recv().expect("upload").0, 1);
        // The crash fires for the generation-2 hand-off while generation 1
        // is in flight: acknowledging generation 1 does not trigger it.
        mailbox.post(snaps[1].clone(), || true);
        replies.send(Msg::CheckpointOk).expect("reply");
        assert_eq!(sent.recv().expect("upload").0, 2);
        replies.send(Msg::CheckpointOk).expect("reply");
        assert!(uploader.join().expect("uploader"), "the crash is due");

        // When the attempt ends first, the snapshot is flushed before the
        // crash.
        let mailbox = Arc::new(Mailbox::default());
        mailbox.post(snaps[2].clone(), || true);
        mailbox.close();
        let (sent, replies, uploader) = blocked_uploader(&mailbox);
        assert_eq!(sent.recv().expect("flush").0, 3);
        drop(replies); // the flush's exchange fails
        assert!(uploader.join().expect("uploader"), "the crash is due");
    }
}
