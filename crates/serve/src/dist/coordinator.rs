//! Coordinator side of the distributed trial pool.
//!
//! The coordinator owns all campaign state: which trials are pending,
//! which are leased to which worker, and which are complete. Workers
//! are stateless pullers — they ask for work ([`proto::Msg::LeaseRequest`]),
//! run it, and upload results. Robustness is built from four pieces:
//!
//! * **Leases with deadlines.** Every grant carries a wall-clock
//!   deadline; a lease not fulfilled in time is reclaimed and requeued.
//! * **Heartbeats with eviction.** Workers beat every few hundred
//!   milliseconds; a worker silent past
//!   [`DistConfig::heartbeat_timeout`] is evicted and its leases
//!   requeued immediately (faster than waiting out the deadline).
//! * **Bounded retry with backoff.** Each requeue re-grants the trial
//!   with attempt+1 after an exponential, deterministically-jittered
//!   delay. After [`DistConfig::max_lease_attempts`] the trial falls
//!   back to the ensemble's salted-seed retry path; if that is also
//!   exhausted the job fails — exactly the lost-trial semantics of the
//!   local campaign runner.
//! * **Checkpoint migration.** Workers upload mid-run
//!   [`GaCheckpoint`]s whole. The coordinator parses each upload (it is
//!   input from outside the program) and keeps it in memory as the
//!   lease's copy of the run, replacing the previous one; an upload older
//!   than the copy is answered `error`, and one for a lease the worker no
//!   longer holds `lease_revoked`. A requeued trial carries the copy, so
//!   its next holder resumes bit-identically instead of restarting from
//!   generation 0. Nothing is written to disk: a restarted coordinator
//!   re-runs in-flight trials from generation 0.
//!
//! A job's campaign is [`cold::run_campaign`] drawing its trials from a
//! [`PoolTrials`] source. Every grant carries the server's trial
//! deadline. When no workers are registered (none ever joined, or all
//! died) that source degrades gracefully by leasing the job's pending
//! trials to the coordinator itself and running each grant through the
//! workers' own trial step, `run_grant` — one [`cold::run_attempt`]
//! under the grant's deadline, with the migrated GA snapshot as resume —
//! so a job never hangs on an empty pool.

use crate::acceptor;
use crate::dist::proto::{self, LeaseGrant, Msg};
use crate::dist::worker::{grant_resume, run_grant};
use crate::metrics::names;
use cold::context::rng::derive_seed;
use cold::ga::GaCheckpoint;
use cold::{
    fingerprint_hex, value_fingerprint, CampaignCheckpoint, ColdError, ProgressSink, TrialOutcome,
    TrialRecord, TrialSource, RETRY_SALT,
};
use serde::Serialize;
use serde_json::{json, Value};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs for the coordinator pool.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Listen address for the worker protocol (`host:port`; port 0 asks
    /// the OS for an ephemeral port).
    pub addr: String,
    /// How long a worker may hold a trial lease before the coordinator
    /// reclaims and requeues it.
    pub lease_deadline: Duration,
    /// A worker silent for longer than this is evicted and its leases
    /// requeued.
    pub heartbeat_timeout: Duration,
    /// Lease attempts per seed phase before escalating: primary-seed
    /// exhaustion switches to the salted retry seed; salted exhaustion
    /// fails the job.
    pub max_lease_attempts: usize,
    /// Workers upload a GA snapshot every this many generations.
    pub ckpt_every: usize,
    /// Base of the exponential requeue backoff, in milliseconds.
    pub backoff_base_ms: u64,
    /// How long after the pool starts the coordinator waits for a first
    /// worker before it runs pending trials inline; a job submitted
    /// later than that runs inline at once. Irrelevant once any worker
    /// has ever joined.
    pub local_fallback_grace: Duration,
}

impl Default for DistConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            lease_deadline: Duration::from_secs(120),
            heartbeat_timeout: Duration::from_millis(2500),
            max_lease_attempts: 3,
            ckpt_every: 5,
            backoff_base_ms: 50,
            local_fallback_grace: Duration::from_secs(2),
        }
    }
}

/// A trial waiting to be granted (or re-granted) to a worker.
struct PendingTrial {
    trial: usize,
    seed: u64,
    /// Running on the salted retry seed (primary budget exhausted).
    salted: bool,
    /// 1-based lease attempt this grant will carry.
    attempt: usize,
    /// Backoff gate: not grantable before this instant.
    eligible_at: Instant,
    /// The GA snapshot a previous holder uploaded last, if any.
    snapshot: Option<GaCheckpoint>,
    /// Previous holder; `Some` marks a re-grant, which is journaled as
    /// a `trial_migrated`.
    last_worker: Option<String>,
}

/// An outstanding grant.
struct Lease {
    job: String,
    trial: usize,
    seed: u64,
    salted: bool,
    attempt: usize,
    worker: String,
    deadline: Instant,
    /// This holder's newest uploaded snapshot (at first, the snapshot the
    /// grant resumed from).
    snapshot: Option<GaCheckpoint>,
}

/// Per-job shard of campaign state.
struct JobShard {
    /// Canonical JSON form of the job's `ColdConfig`, shipped verbatim
    /// in every grant.
    config_value: Value,
    master_seed: u64,
    /// Trace context of the owning job — lease/migration events join
    /// the same distributed trace the job's other events live in.
    trace: Option<cold_obs::trace::TraceCtx>,
    /// Per-attempt wall-clock deadline every grant of the job carries.
    trial_deadline: Option<Duration>,
    pending: VecDeque<PendingTrial>,
    /// Completed records not yet drained by the campaign loop.
    completed: HashMap<usize, TrialRecord>,
    /// Fingerprints of completed trials — the idempotency key for
    /// result uploads (first completion wins, duplicates acknowledged
    /// and dropped).
    done: HashSet<String>,
    failed: Option<String>,
}

struct PoolState {
    /// Registered workers and their last sign of life.
    workers: HashMap<String, Instant>,
    jobs: BTreeMap<String, JobShard>,
    leases: HashMap<String, Lease>,
    ever_joined: bool,
}

/// Content-addressed identity of one completed trial (job + index).
fn trial_fp(job: &str, trial: usize) -> String {
    fingerprint_hex(value_fingerprint(&json!({"job": job, "trial": trial})))
}

/// Content-addressed lease id over (job, trial, seed, attempt).
fn lease_fp(job: &str, trial: usize, seed: u64, attempt: usize) -> String {
    fingerprint_hex(value_fingerprint(
        &json!({"job": job, "trial": trial, "seed": seed, "attempt": attempt}),
    ))
}

/// The worker name of trials the coordinator runs inline.
const COORDINATOR: &str = "coordinator";

/// Exponential backoff with deterministic jitter for requeued leases.
/// `attempt` is the attempt the requeued grant will carry (>= 2).
fn backoff_delay(cfg: &DistConfig, job: &str, trial: usize, attempt: usize) -> Duration {
    let exp = attempt.saturating_sub(2).min(16) as u32;
    let base = cfg.backoff_base_ms.saturating_mul(1u64 << exp).min(5_000);
    let h = value_fingerprint(&json!({"dist_backoff": job, "trial": trial, "attempt": attempt}));
    let jitter = if base == 0 { 0 } else { h % (base / 2 + 1) };
    Duration::from_millis(base + jitter)
}

/// The coordinator's shared pool: lease table, worker registry, and the
/// per-job shards the campaign loop drains.
pub struct DistPool {
    cfg: DistConfig,
    state: Mutex<PoolState>,
    wake: Condvar,
    /// Hard stop for the acceptor/housekeeper threads.
    stop: AtomicBool,
    /// The protocol listener's address, when [`DistPool::start`] bound
    /// one: [`DistPool::shutdown`] connects to it to wake the acceptor.
    listener_addr: Option<SocketAddr>,
    /// Graceful drain (shared with the HTTP server's shutdown flag):
    /// workers are told to exit at their next trial boundary.
    draining: Arc<AtomicBool>,
    started: Instant,
    /// Pool-level trace: `worker_joined` / `worker_lost` events anchor
    /// under one `dist.pool` root span.
    trace: Option<cold_obs::trace::TraceCtx>,
}

/// Join handle for the coordinator's protocol threads.
pub struct DistHandle {
    addr: SocketAddr,
    acceptor: thread::JoinHandle<()>,
}

impl DistHandle {
    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Joins the acceptor (which in turn joins handlers and the
    /// housekeeper). Call after [`DistPool::shutdown`].
    pub fn join(self) {
        let _ = self.acceptor.join();
    }
}

impl DistPool {
    /// Creates a pool without binding a listener (exercised directly by
    /// unit tests; production goes through [`DistPool::start`]).
    pub fn new(cfg: DistConfig, draining: Arc<AtomicBool>) -> Arc<Self> {
        Self::with_listener(cfg, draining, None)
    }

    fn with_listener(
        cfg: DistConfig,
        draining: Arc<AtomicBool>,
        listener_addr: Option<SocketAddr>,
    ) -> Arc<Self> {
        let trace = {
            let id = fingerprint_hex(value_fingerprint(
                &json!({"dist_pool": cfg.addr, "pid": u64::from(std::process::id())}),
            ));
            let _scope = cold_obs::trace::root("dist.pool", &id);
            cold_obs::trace::current()
        };
        Arc::new(Self {
            cfg,
            state: Mutex::new(PoolState {
                workers: HashMap::new(),
                jobs: BTreeMap::new(),
                leases: HashMap::new(),
                ever_joined: false,
            }),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            listener_addr,
            draining,
            started: Instant::now(),
            trace,
        })
    }

    /// Binds the worker protocol listener and spawns the acceptor, two
    /// connection handlers, and the housekeeping thread.
    ///
    /// # Errors
    /// Any I/O error from binding `cfg.addr`.
    pub fn start(
        cfg: DistConfig,
        draining: Arc<AtomicBool>,
    ) -> io::Result<(Arc<Self>, DistHandle)> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let pool = Self::with_listener(cfg, draining, Some(addr));

        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let mut handlers = Vec::new();
        for _ in 0..2 {
            let rx = Arc::clone(&conn_rx);
            let pool = Arc::clone(&pool);
            handlers.push(thread::spawn(move || loop {
                let stream = match rx.lock().expect("dist conn queue poisoned").recv() {
                    Ok(s) => s,
                    Err(_) => break,
                };
                pool.handle_conn(stream);
            }));
        }
        let housekeeper = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                while !pool.stop.load(Ordering::SeqCst) {
                    pool.tick();
                    thread::sleep(Duration::from_millis(100));
                }
            })
        };
        let acceptor = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                acceptor::accept_until(listener, &pool.stop, |stream| conn_tx.send(stream).is_ok());
                drop(conn_tx);
                for h in handlers {
                    let _ = h.join();
                }
                let _ = housekeeper.join();
            })
        };
        Ok((pool, DistHandle { addr, acceptor }))
    }

    /// Stops the protocol threads. Safe to call more than once.
    pub fn shutdown(&self) {
        match self.listener_addr {
            Some(addr) => acceptor::stop_and_wake(&self.stop, addr),
            None => self.stop.store(true, Ordering::SeqCst),
        }
        self.wake.notify_all();
    }

    /// Number of currently registered (heartbeating) workers.
    pub fn workers_alive(&self) -> usize {
        self.state.lock().expect("dist pool poisoned").workers.len()
    }

    fn emit_pool(&self, event: cold_obs::Event) {
        if cold_obs::is_enabled() {
            cold_obs::emit_with_ctx(&event, self.trace.as_ref());
        }
    }

    /// One connection = one exchange: read a frame, dispatch, reply.
    fn handle_conn(&self, mut stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
        let msg = match proto::read_frame_sized(&mut stream) {
            Ok((msg, bytes)) => {
                if matches!(msg, Msg::TrialCheckpoint { .. }) {
                    cold_obs::counter_add(names::DIST_CHECKPOINT_UPLOADS, 1);
                    cold_obs::counter_add(names::DIST_CHECKPOINT_BYTES, bytes as u64);
                }
                msg
            }
            Err(_) => return,
        };
        let reply = self.dispatch(msg);
        let _ = proto::write_frame(&mut stream, &reply);
    }

    /// Pure protocol state machine (no sockets) — unit tests drive the
    /// coordinator through here directly.
    fn dispatch(&self, msg: Msg) -> Msg {
        match msg {
            Msg::Hello { worker } => {
                self.join_worker(&worker);
                Msg::HelloOk
            }
            Msg::Heartbeat { worker } => {
                // An evicted-but-alive worker re-registers implicitly.
                self.join_worker(&worker);
                Msg::HeartbeatOk { drain: self.draining.load(Ordering::SeqCst) }
            }
            Msg::LeaseRequest { worker } => {
                if self.draining.load(Ordering::SeqCst) {
                    return Msg::Drain;
                }
                self.join_worker(&worker);
                self.grant(&worker)
            }
            Msg::TrialCheckpoint { worker, lease, snapshot } => {
                self.handle_checkpoint(&worker, &lease, &snapshot)
            }
            Msg::TrialResult { worker, lease, job, trial, seed, record } => {
                self.handle_result(&worker, &lease, &job, trial, seed, &record)
            }
            Msg::TrialError { worker, lease, error } => {
                self.handle_trial_error(&worker, &lease, &error)
            }
            Msg::Bye { worker } => {
                self.handle_bye(&worker);
                Msg::ByeOk
            }
            _ => Msg::Error { message: "unexpected message for the coordinator".into() },
        }
    }

    fn join_worker(&self, worker: &str) {
        let mut st = self.state.lock().expect("dist pool poisoned");
        if st.workers.insert(worker.to_string(), Instant::now()).is_none() {
            st.ever_joined = true;
            cold_obs::gauge_set(names::DIST_WORKERS_ALIVE, st.workers.len() as i64);
            drop(st);
            self.emit_pool(cold_obs::Event::WorkerJoined(cold_obs::WorkerJoined {
                worker: worker.to_string(),
            }));
        }
    }

    fn grant(&self, worker: &str) -> Msg {
        let mut st = self.state.lock().expect("dist pool poisoned");
        self.lease(&mut st, worker, None).map_or(Msg::NoWork { backoff_ms: 200 }, Msg::Grant)
    }

    /// Leases the first eligible pending trial — of any job, or of job
    /// `only` — to `worker`, journaling `trial_leased` (and
    /// `trial_migrated` for a re-grant) for remote and inline grants
    /// alike.
    fn lease(&self, st: &mut PoolState, worker: &str, only: Option<&str>) -> Option<LeaseGrant> {
        let now = Instant::now();
        let pick = st.jobs.iter().find_map(|(id, shard)| {
            if shard.failed.is_some() || only.is_some_and(|o| o != id) {
                return None;
            }
            shard.pending.iter().position(|p| p.eligible_at <= now).map(|pos| (id.clone(), pos))
        });
        let (job_id, pos) = pick?;
        let shard = st.jobs.get_mut(&job_id).expect("picked shard exists");
        let p = shard.pending.remove(pos).expect("picked slot exists");
        let lease_id = lease_fp(&job_id, p.trial, p.seed, p.attempt);
        let grant = LeaseGrant {
            lease: lease_id.clone(),
            job: job_id.clone(),
            trial: p.trial,
            seed: p.seed,
            attempt: p.attempt,
            config: shard.config_value.clone(),
            deadline_ms: self.cfg.lease_deadline.as_millis() as u64,
            trial_deadline_ms: shard.trial_deadline.map(|d| d.as_millis() as u64),
            ckpt_every: self.cfg.ckpt_every,
            trace_id: shard
                .trace
                .as_ref()
                .map(|c| c.trace_id.clone())
                .unwrap_or_else(|| job_id.clone()),
            snapshot: p.snapshot.as_ref().map(GaCheckpoint::to_value),
        };
        if cold_obs::is_enabled() {
            let ctx = shard.trace.as_ref();
            cold_obs::emit_with_ctx(
                &cold_obs::Event::TrialLeased(cold_obs::TrialLeased {
                    id: job_id.clone(),
                    trial: p.trial,
                    lease: lease_id.clone(),
                    worker: worker.to_string(),
                    attempt: p.attempt,
                }),
                ctx,
            );
            if let Some(from) = &p.last_worker {
                cold_obs::emit_with_ctx(
                    &cold_obs::Event::TrialMigrated(cold_obs::TrialMigrated {
                        id: job_id.clone(),
                        trial: p.trial,
                        lease: lease_id.clone(),
                        from_worker: from.clone(),
                        to_worker: worker.to_string(),
                        resumed_generation: p.snapshot.as_ref().map_or(0, |s| s.generation),
                    }),
                    ctx,
                );
            }
        }
        st.leases.insert(
            lease_id,
            Lease {
                job: job_id,
                trial: p.trial,
                seed: p.seed,
                salted: p.salted,
                attempt: p.attempt,
                worker: worker.to_string(),
                deadline: now + self.cfg.lease_deadline,
                snapshot: p.snapshot,
            },
        );
        cold_obs::gauge_set(names::DIST_LEASES_ACTIVE, st.leases.len() as i64);
        Some(grant)
    }

    /// Stores an uploaded snapshot as the lease's copy of its run.
    fn handle_checkpoint(&self, worker: &str, lease: &str, snapshot: &Value) -> Msg {
        let upload = match GaCheckpoint::from_value(snapshot) {
            Ok(c) => c,
            Err(why) => return Msg::Error { message: format!("bad checkpoint: {why}") },
        };
        let mut st = self.state.lock().expect("dist pool poisoned");
        if let Some(beat) = st.workers.get_mut(worker) {
            *beat = Instant::now();
        }
        // An upload for an expired/unknown lease is not an error — the
        // trial moved on and the worker's eventual result upload dedups —
        // but the worker should stop uploading for it.
        let Some(l) = st.leases.get_mut(lease).filter(|l| l.worker == worker) else {
            return Msg::LeaseRevoked;
        };
        // A lease has one uploader, whose exchanges are sequential, so an
        // upload older than the copy comes only from a misbehaving peer.
        if let Some(stored) = l.snapshot.as_ref().filter(|s| s.generation > upload.generation) {
            return Msg::Error {
                message: format!(
                    "checkpoint generation {} is older than the stored generation {}",
                    upload.generation, stored.generation
                ),
            };
        }
        l.snapshot = Some(upload);
        Msg::CheckpointOk
    }

    /// Idempotent completion: the first upload for a (job, trial) wins;
    /// later uploads (expired leases, duplicated sends) are acknowledged
    /// as duplicates and dropped.
    fn record_completion(&self, st: &mut PoolState, job: &str, rec: TrialRecord) -> bool {
        let fp = trial_fp(job, rec.trial);
        let trial = rec.trial;
        let Some(shard) = st.jobs.get_mut(job) else {
            return true;
        };
        if shard.done.contains(&fp) {
            return true;
        }
        shard.done.insert(fp);
        shard.completed.insert(trial, rec);
        shard.pending.retain(|p| p.trial != trial);
        // Cancel other in-flight leases for the same trial (a requeued
        // copy whose original holder just finished first).
        st.leases.retain(|_, l| l.job != job || l.trial != trial);
        cold_obs::gauge_set(names::DIST_LEASES_ACTIVE, st.leases.len() as i64);
        false
    }

    fn handle_result(
        &self,
        worker: &str,
        lease: &str,
        job: &str,
        trial: usize,
        seed: u64,
        record: &Value,
    ) -> Msg {
        let rec = match TrialRecord::from_value(record) {
            Ok(r) => r,
            Err(why) => return Msg::Error { message: format!("bad trial record: {why}") },
        };
        if rec.trial != trial || rec.seed != seed {
            return Msg::Error { message: "record does not match its envelope".into() };
        }
        Msg::ResultOk { duplicate: self.complete(worker, lease, job, rec) }
    }

    /// Settles `lease` with its trial's record; returns whether another
    /// lease of the trial completed first (the record is then dropped).
    fn complete(&self, worker: &str, lease: &str, job: &str, rec: TrialRecord) -> bool {
        let mut st = self.state.lock().expect("dist pool poisoned");
        if let Some(beat) = st.workers.get_mut(worker) {
            *beat = Instant::now();
        }
        st.leases.remove(lease);
        let duplicate = self.record_completion(&mut st, job, rec);
        drop(st);
        self.wake.notify_all();
        duplicate
    }

    fn handle_trial_error(&self, worker: &str, lease: &str, error: &str) -> Msg {
        let now = Instant::now();
        let mut st = self.state.lock().expect("dist pool poisoned");
        if let Some(beat) = st.workers.get_mut(worker) {
            *beat = Instant::now();
        }
        if let Some(l) = st.leases.remove(lease) {
            self.requeue_lease(&mut st, l, error, now);
            cold_obs::gauge_set(names::DIST_LEASES_ACTIVE, st.leases.len() as i64);
        }
        drop(st);
        self.wake.notify_all();
        // Absorbed either way; the worker only needs an ack.
        Msg::ResultOk { duplicate: true }
    }

    fn handle_bye(&self, worker: &str) {
        let now = Instant::now();
        let mut st = self.state.lock().expect("dist pool poisoned");
        if st.workers.remove(worker).is_none() {
            return;
        }
        let n_lost = self.requeue_leases(&mut st, |l| l.worker == worker, "worker departed", now);
        cold_obs::gauge_set(names::DIST_WORKERS_ALIVE, st.workers.len() as i64);
        cold_obs::gauge_set(names::DIST_LEASES_ACTIVE, st.leases.len() as i64);
        drop(st);
        // A clean drain-time bye holds no leases and is not a loss.
        if n_lost > 0 {
            self.emit_pool(cold_obs::Event::WorkerLost(cold_obs::WorkerLost {
                worker: worker.to_string(),
                leases: n_lost,
            }));
        }
        self.wake.notify_all();
    }

    /// Puts a lost lease's trial back in the queue: attempt+1 after a
    /// backoff, escalating to the salted seed and then to job failure
    /// when the budgets run out.
    fn requeue_lease(&self, st: &mut PoolState, lease: Lease, reason: &str, now: Instant) {
        let fp = trial_fp(&lease.job, lease.trial);
        let Some(shard) = st.jobs.get_mut(&lease.job) else {
            return;
        };
        if shard.done.contains(&fp) {
            return;
        }
        let next_attempt = lease.attempt + 1;
        if next_attempt <= self.cfg.max_lease_attempts {
            let delay = backoff_delay(&self.cfg, &lease.job, lease.trial, next_attempt);
            shard.pending.push_back(PendingTrial {
                trial: lease.trial,
                seed: lease.seed,
                salted: lease.salted,
                attempt: next_attempt,
                eligible_at: now + delay,
                snapshot: lease.snapshot,
                last_worker: Some(lease.worker),
            });
            return;
        }
        // Budget exhausted on this seed phase. Journal the loss exactly
        // like the local runner's trial_failed, then escalate.
        if cold_obs::is_enabled() {
            cold_obs::emit_with_ctx(
                &cold_obs::Event::TrialFailed(cold_obs::TrialFailed {
                    trial: lease.trial,
                    attempt: lease.attempt,
                    seed: lease.seed,
                    error: format!("lease budget exhausted: {reason}"),
                }),
                shard.trace.as_ref(),
            );
        }
        if lease.salted {
            shard.failed = Some(format!(
                "trial {} lost on primary and salted seeds after {} lease attempts each: {reason}",
                lease.trial, self.cfg.max_lease_attempts
            ));
            return;
        }
        let salted_seed =
            derive_seed(derive_seed(shard.master_seed, RETRY_SALT), lease.trial as u64);
        shard.pending.push_back(PendingTrial {
            trial: lease.trial,
            seed: salted_seed,
            salted: true,
            attempt: 1,
            eligible_at: now,
            snapshot: None,
            last_worker: Some(lease.worker),
        });
    }

    /// Removes every lease matching `lost` and requeues its trial;
    /// returns how many there were.
    fn requeue_leases(
        &self,
        st: &mut PoolState,
        lost: impl Fn(&Lease) -> bool,
        reason: &str,
        now: Instant,
    ) -> usize {
        let lost: Vec<Lease> = st.leases.extract_if(|_, l| lost(l)).map(|(_, l)| l).collect();
        let n = lost.len();
        for l in lost {
            self.requeue_lease(st, l, reason, now);
        }
        n
    }

    /// Housekeeping: evict silent workers, expire overdue leases.
    fn tick(&self) {
        let now = Instant::now();
        let mut st = self.state.lock().expect("dist pool poisoned");
        let mut changed = false;
        let mut losses: Vec<(String, usize)> = Vec::new();

        let dead: Vec<String> = st
            .workers
            .iter()
            .filter(|(_, beat)| now.duration_since(**beat) > self.cfg.heartbeat_timeout)
            .map(|(n, _)| n.clone())
            .collect();
        for name in dead {
            st.workers.remove(&name);
            let lost =
                self.requeue_leases(&mut st, |l| l.worker == name, "worker heartbeat missed", now);
            losses.push((name, lost));
            changed = true;
        }
        changed |=
            self.requeue_leases(&mut st, |l| l.deadline <= now, "lease deadline expired", now) > 0;

        if changed {
            cold_obs::gauge_set(names::DIST_WORKERS_ALIVE, st.workers.len() as i64);
            cold_obs::gauge_set(names::DIST_LEASES_ACTIVE, st.leases.len() as i64);
        }
        drop(st);
        for (worker, leases) in losses {
            self.emit_pool(cold_obs::Event::WorkerLost(cold_obs::WorkerLost { worker, leases }));
        }
        if changed {
            self.wake.notify_all();
        }
    }

    /// Queues `campaign`'s trials after its completed prefix as job `id`.
    fn register_job(
        &self,
        id: &str,
        campaign: &CampaignCheckpoint,
        trial_deadline: Option<Duration>,
    ) {
        let now = Instant::now();
        let mut pending = VecDeque::new();
        for i in campaign.records.len()..campaign.count {
            pending.push_back(PendingTrial {
                trial: i,
                seed: derive_seed(campaign.master_seed, i as u64),
                salted: false,
                attempt: 1,
                eligible_at: now,
                snapshot: None,
                last_worker: None,
            });
        }
        let shard = JobShard {
            config_value: campaign.config.to_json_value(),
            master_seed: campaign.master_seed,
            trace: cold_obs::trace::current(),
            trial_deadline,
            pending,
            completed: HashMap::new(),
            done: HashSet::new(),
            failed: None,
        };
        self.state.lock().expect("dist pool poisoned").jobs.insert(id.to_string(), shard);
    }

    fn deregister_job(&self, id: &str) {
        // Runs in `PoolTrials::drop`, which must not panic: a poisoned
        // pool is left as it is.
        let Ok(mut st) = self.state.lock() else { return };
        st.jobs.remove(id);
        st.leases.retain(|_, l| l.job != id);
        cold_obs::gauge_set(names::DIST_LEASES_ACTIVE, st.leases.len() as i64);
    }

    /// What job `id`'s campaign gets next: its completed trials from
    /// `next` on, or its failure. Otherwise, when no worker is registered
    /// and the fallback grace is over, one of its pending trials is
    /// leased to the coordinator and run through `inline`; else the call
    /// waits (bounded) for the pool to change.
    fn next_step(
        &self,
        id: &str,
        next: usize,
        inline: impl FnOnce(&LeaseGrant) -> Result<TrialRecord, ColdError>,
    ) -> Step {
        let mut st = self.state.lock().expect("dist pool poisoned");
        let inline_ok = st.workers.is_empty()
            && (st.ever_joined || self.started.elapsed() >= self.cfg.local_fallback_grace);
        let Some(shard) = st.jobs.get_mut(id) else {
            return Step::Failed("job was deregistered".into());
        };
        if let Some(why) = shard.failed.clone() {
            return Step::Failed(why);
        }
        let mut recs = Vec::new();
        let mut next = next;
        while let Some(r) = shard.completed.remove(&next) {
            recs.push(r);
            next += 1;
        }
        if !recs.is_empty() {
            return Step::Extended(recs);
        }
        match inline_ok.then(|| self.lease(&mut st, COORDINATOR, Some(id))).flatten() {
            Some(grant) => {
                drop(st);
                match inline(&grant) {
                    Ok(rec) => {
                        self.complete(COORDINATOR, &grant.lease, id, rec);
                    }
                    Err(e) => {
                        self.handle_trial_error(COORDINATOR, &grant.lease, &e.to_string());
                    }
                }
            }
            None => drop(self.wake.wait_timeout(st, Duration::from_millis(100))),
        }
        Step::Idle
    }
}

enum Step {
    Extended(Vec<TrialRecord>),
    Failed(String),
    Idle,
}

/// The pool as a campaign's [`TrialSource`]: job `id`'s trials run on
/// remote workers, or inline on the coordinator while none is
/// registered. The job is registered with the pool on the first request
/// and deregistered when the source is dropped.
///
/// Driven by [`cold::run_campaign`] with `checkpoint_every = 1`, a
/// campaign's per-trial seeds, snapshots and results are those of a
/// local run (modulo wall-clock timing fields): workers resume migrated
/// trials from uploaded GA snapshots, and a resumed GA run is
/// deterministic. A trial that exhausts its lease budget on both the
/// primary and salted seeds — the distributed analogue of a trial that
/// fails twice — ends the campaign with [`ColdError::TrialPanic`].
pub struct PoolTrials<'a> {
    pool: &'a DistPool,
    id: &'a str,
    deadline: Option<Duration>,
    progress: Option<ProgressSink>,
    registered: bool,
}

impl<'a> PoolTrials<'a> {
    /// A source for job `id`. `deadline` bounds every attempt, remote
    /// or inline; `progress` observes the trials the coordinator runs
    /// inline.
    pub fn new(
        pool: &'a DistPool,
        id: &'a str,
        deadline: Option<Duration>,
        progress: Option<ProgressSink>,
    ) -> Self {
        Self { pool, id, deadline, progress, registered: false }
    }
}

impl TrialSource for PoolTrials<'_> {
    fn next_trials(
        &mut self,
        campaign: &CampaignCheckpoint,
        next: usize,
    ) -> Result<Vec<TrialOutcome>, ColdError> {
        if !self.registered {
            self.pool.register_job(self.id, campaign, self.deadline);
            self.registered = true;
        }
        let inline =
            |grant: &LeaseGrant| run_grant(grant, grant_resume(grant), self.progress.clone(), None);
        match self.pool.next_step(self.id, next, inline) {
            Step::Extended(recs) => recs
                .into_iter()
                .map(|rec| {
                    let r = rec.rebuild(&campaign.config)?;
                    Ok(TrialOutcome {
                        trial: rec.trial,
                        done: Some((rec, r)),
                        failures: Vec::new(),
                    })
                })
                .collect(),
            Step::Failed(why) => Err(ColdError::TrialPanic(why)),
            Step::Idle => Ok(Vec::new()),
        }
    }
}

impl Drop for PoolTrials<'_> {
    fn drop(&mut self) {
        if self.registered {
            self.pool.deregister_job(self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::worker::Uploads;
    use cold::{
        Campaign, ColdConfig, LocalTrials, RunOptions, Snapshots, TrialObjective, TrialSpec,
    };
    use std::path::PathBuf;

    fn quick_cfg() -> ColdConfig {
        ColdConfig::quick(8, 1e-4, 10.0)
    }

    fn test_pool(cfg: DistConfig) -> Arc<DistPool> {
        DistPool::new(cfg, Arc::new(AtomicBool::new(false)))
    }

    /// Registers job `id`: one trial of `quick_cfg()` on `master_seed`.
    fn register(pool: &DistPool, id: &str, master_seed: u64) {
        let campaign = CampaignCheckpoint::new(&Campaign::new(quick_cfg(), master_seed, 1));
        pool.register_job(id, &campaign, None);
    }

    fn granted(msg: Msg) -> LeaseGrant {
        match msg {
            Msg::Grant(g) => g,
            other => panic!("expected a lease grant, got {other:?}"),
        }
    }

    #[test]
    fn backoff_grows_exponentially_is_capped_and_deterministic() {
        let cfg = DistConfig { backoff_base_ms: 50, ..DistConfig::default() };
        let d2 = backoff_delay(&cfg, "job", 0, 2);
        let d3 = backoff_delay(&cfg, "job", 0, 3);
        let d9 = backoff_delay(&cfg, "job", 0, 9);
        assert!(d2 >= Duration::from_millis(50) && d2 <= Duration::from_millis(75));
        assert!(d3 >= Duration::from_millis(100) && d3 <= Duration::from_millis(150));
        assert!(d9 <= Duration::from_millis(7500), "cap plus jitter bound");
        assert_eq!(backoff_delay(&cfg, "job", 0, 2), d2, "jitter is deterministic");
        assert_ne!(
            backoff_delay(&cfg, "job", 1, 2),
            backoff_delay(&cfg, "job", 2, 2),
            "jitter varies across trials"
        );
    }

    #[test]
    fn lease_lifecycle_grant_complete_deduplicate() {
        let pool = test_pool(DistConfig::default());
        let cfg = quick_cfg();
        register(&pool, "job-a", 42);
        assert_eq!(pool.dispatch(Msg::Hello { worker: "w1".into() }), Msg::HelloOk);
        let grant = granted(pool.dispatch(Msg::LeaseRequest { worker: "w1".into() }));
        assert_eq!(grant.trial, 0);
        assert_eq!(grant.attempt, 1);
        assert_eq!(grant.seed, derive_seed(42, 0));
        assert!(grant.snapshot.is_none());
        // A second idle worker finds nothing to steal.
        assert_eq!(
            pool.dispatch(Msg::LeaseRequest { worker: "w2".into() }),
            Msg::NoWork { backoff_ms: 200 }
        );
        let r = cfg.synthesize(grant.seed);
        let rec = TrialRecord::from_result(0, grant.seed, &r);
        let upload = Msg::TrialResult {
            worker: "w1".into(),
            lease: grant.lease.clone(),
            job: "job-a".into(),
            trial: 0,
            seed: grant.seed,
            record: rec.to_value(),
        };
        assert_eq!(pool.dispatch(upload.clone()), Msg::ResultOk { duplicate: false });
        assert_eq!(pool.dispatch(upload), Msg::ResultOk { duplicate: true }, "idempotent upload");
        match pool.next_step("job-a", 0, |_| unreachable!("a worker is registered")) {
            Step::Extended(recs) => {
                assert_eq!(recs.len(), 1);
                assert_eq!(recs[0].trial, 0);
            }
            _ => panic!("completed trial must drain"),
        }
    }

    #[test]
    fn expired_lease_is_requeued_with_next_attempt_and_migration_marker() {
        let dcfg = DistConfig {
            lease_deadline: Duration::from_millis(0),
            backoff_base_ms: 0,
            ..DistConfig::default()
        };
        let pool = test_pool(dcfg);
        register(&pool, "job-a", 7);
        pool.dispatch(Msg::Hello { worker: "w1".into() });
        let first = granted(pool.dispatch(Msg::LeaseRequest { worker: "w1".into() }));
        pool.tick(); // deadline 0 => immediately expired
        let second = granted(pool.dispatch(Msg::LeaseRequest { worker: "w2".into() }));
        assert_eq!(second.trial, first.trial);
        assert_eq!(second.seed, first.seed, "same seed phase");
        assert_eq!(second.attempt, 2);
        assert_ne!(second.lease, first.lease, "attempt is part of the lease id");
        let st = pool.state.lock().expect("state");
        let l = st.leases.get(&second.lease).expect("active lease");
        assert_eq!(l.worker, "w2");
    }

    #[test]
    fn heartbeat_silence_evicts_worker_and_requeues_its_lease() {
        let dcfg = DistConfig {
            heartbeat_timeout: Duration::from_millis(0),
            backoff_base_ms: 0,
            ..DistConfig::default()
        };
        let pool = test_pool(dcfg);
        register(&pool, "job-a", 7);
        pool.dispatch(Msg::Hello { worker: "w1".into() });
        let _ = granted(pool.dispatch(Msg::LeaseRequest { worker: "w1".into() }));
        std::thread::sleep(Duration::from_millis(5));
        pool.tick();
        assert_eq!(pool.workers_alive(), 0, "silent worker evicted");
        {
            let st = pool.state.lock().expect("state");
            assert!(st.leases.is_empty(), "orphaned lease reclaimed");
            let shard = st.jobs.get("job-a").expect("shard");
            assert_eq!(shard.pending.len(), 1);
            assert_eq!(shard.pending[0].attempt, 2);
            assert_eq!(shard.pending[0].last_worker.as_deref(), Some("w1"));
        }
        // The evicted worker's heartbeat re-registers it.
        assert_eq!(
            pool.dispatch(Msg::Heartbeat { worker: "w1".into() }),
            Msg::HeartbeatOk { drain: false }
        );
        assert_eq!(pool.workers_alive(), 1);
    }

    #[test]
    fn lease_budget_exhaustion_switches_to_salted_seed_then_fails_the_job() {
        let dcfg = DistConfig {
            lease_deadline: Duration::from_millis(0),
            max_lease_attempts: 1,
            backoff_base_ms: 0,
            ..DistConfig::default()
        };
        let pool = test_pool(dcfg);
        let master = 42u64;
        register(&pool, "job-a", master);
        pool.dispatch(Msg::Hello { worker: "w1".into() });
        let first = granted(pool.dispatch(Msg::LeaseRequest { worker: "w1".into() }));
        assert_eq!(first.seed, derive_seed(master, 0));
        pool.tick(); // primary budget (1 attempt) exhausted -> salted
        let second = granted(pool.dispatch(Msg::LeaseRequest { worker: "w1".into() }));
        assert_eq!(second.seed, derive_seed(derive_seed(master, RETRY_SALT), 0));
        assert_eq!(second.attempt, 1, "salted phase restarts the attempt counter");
        pool.tick(); // salted budget exhausted -> job fails
        match pool.next_step("job-a", 0, |_| unreachable!("a worker is registered")) {
            Step::Failed(why) => assert!(why.contains("lost"), "unexpected reason: {why}"),
            _ => panic!("job must fail after both seed phases are exhausted"),
        }
    }

    #[test]
    fn uploaded_snapshot_travels_with_the_requeued_trial() {
        let dcfg = DistConfig {
            lease_deadline: Duration::from_millis(0),
            backoff_base_ms: 0,
            ..DistConfig::default()
        };
        let pool = test_pool(dcfg);
        let cfg = quick_cfg();
        register(&pool, "job-a", 7);
        pool.dispatch(Msg::Hello { worker: "w1".into() });
        let grant = granted(pool.dispatch(Msg::LeaseRequest { worker: "w1".into() }));
        // Produce a genuine mid-run snapshot by running the trial with a
        // checkpoint hook.
        let mut snaps: Vec<Value> = Vec::new();
        let mut sink = |c: cold::ga::GaCheckpoint| snaps.push(c.to_value());
        let checkpoint = Some(cold::ga::CheckpointHook { every: 2, sink: &mut sink });
        let options = RunOptions { checkpoint, ..RunOptions::default() };
        cfg.run_trial(TrialSpec::new(grant.seed, TrialObjective::Cost), options).expect("trial");
        let snapshot = snaps.last().expect("at least one snapshot").clone();
        let generation = snapshot.get("generation").and_then(Value::as_u64).expect("generation");
        assert!(generation > 0);
        assert_eq!(
            pool.dispatch(Msg::TrialCheckpoint {
                worker: "w1".into(),
                lease: grant.lease.clone(),
                snapshot: snapshot.clone(),
            }),
            Msg::CheckpointOk
        );
        pool.tick(); // lease expires; snapshot must ride along
        let regrant = granted(pool.dispatch(Msg::LeaseRequest { worker: "w2".into() }));
        assert_eq!(regrant.snapshot, Some(snapshot));
    }

    /// The engine's own snapshots of a trial of `quick_cfg()` on `seed`,
    /// one per generation (index `g - 1` holds generation `g`).
    fn engine_snapshots(seed: u64) -> Vec<GaCheckpoint> {
        let mut snaps = Vec::new();
        let mut sink = |c: GaCheckpoint| snaps.push(c);
        let checkpoint = Some(cold::ga::CheckpointHook { every: 1, sink: &mut sink });
        let options = RunOptions { checkpoint, ..RunOptions::default() };
        quick_cfg().run_trial(TrialSpec::new(seed, TrialObjective::Cost), options).expect("trial");
        assert!(snaps.iter().all(|s| s.cache.is_some()), "the quick GA memoizes fitness");
        snaps
    }

    /// The coordinator's copy of `lease`'s run, serialized.
    fn stored(pool: &DistPool, lease: &str) -> Option<String> {
        let st = pool.state.lock().expect("state");
        st.leases.get(lease).expect("active lease").snapshot.as_ref().map(GaCheckpoint::to_json)
    }

    /// Registers a one-trial job and leases its trial to `w1`.
    fn leased(pool: &DistPool) -> LeaseGrant {
        register(pool, "job-a", 7);
        pool.dispatch(Msg::Hello { worker: "w1".into() });
        granted(pool.dispatch(Msg::LeaseRequest { worker: "w1".into() }))
    }

    #[test]
    fn whole_uploads_replace_the_copy_and_resume_bit_identically() {
        let pool = test_pool(DistConfig {
            lease_deadline: Duration::from_millis(0),
            backoff_base_ms: 0,
            ..DistConfig::default()
        });
        let grant = leased(&pool);
        let snaps = engine_snapshots(grant.seed);
        let mut uploads = Uploads::new("w1", &grant.lease);
        for g in [2, 4, 6] {
            let ckpt = &snaps[g - 1];
            let sent = uploads.upload(ckpt, |msg| {
                let Msg::TrialCheckpoint { snapshot, .. } = msg else {
                    panic!("expected a snapshot upload, got {msg:?}");
                };
                assert_eq!(*snapshot, ckpt.to_value(), "generation {g} is uploaded whole");
                let reply = pool.dispatch(msg.clone());
                assert_eq!(reply, Msg::CheckpointOk);
                Ok(reply)
            });
            assert!(sent);
            assert_eq!(stored(&pool, &grant.lease), Some(ckpt.to_json()), "generation {g}");
        }
        // The migration grant ships the newest acknowledged snapshot in
        // full, and the trial resumed from it matches the uninterrupted run.
        pool.tick();
        let regrant = granted(pool.dispatch(Msg::LeaseRequest { worker: "w2".into() }));
        assert_eq!(regrant.snapshot, Some(snaps[5].to_value()));
        let resume = grant_resume(&regrant);
        assert_eq!(resume.as_ref().map(GaCheckpoint::to_json), Some(snaps[5].to_json()));
        let resumed = run_grant(&regrant, resume, None, None).expect("resumed trial");
        let spec = TrialSpec::new(grant.seed, TrialObjective::Cost);
        let plain = quick_cfg().run_trial(spec, RunOptions::default()).expect("trial");
        let plain = TrialRecord::from_result(0, grant.seed, &plain.into_single());
        assert_eq!(resumed.edges, plain.edges);
        assert_eq!(resumed.best_cost_history, plain.best_cost_history);
        assert_eq!(resumed.final_population_costs, plain.final_population_costs);
        assert_eq!(resumed.evaluations, plain.evaluations);
        assert_eq!(resumed.eval_stats.cache_hits, plain.eval_stats.cache_hits);
        // The next holder's upload replaces the copy.
        let mut uploads = Uploads::new("w2", &regrant.lease);
        uploads.upload(&snaps[7], |msg| Ok(pool.dispatch(msg.clone())));
        assert_eq!(stored(&pool, &regrant.lease), Some(snaps[7].to_json()));
    }

    #[test]
    fn malformed_and_older_uploads_are_answered_error() {
        let pool = test_pool(DistConfig::default());
        let grant = leased(&pool);
        let snaps = engine_snapshots(grant.seed);
        let upload = |snapshot: Value| Msg::TrialCheckpoint {
            worker: "w1".into(),
            lease: grant.lease.clone(),
            snapshot,
        };
        assert_eq!(pool.dispatch(upload(snaps[2].to_value())), Msg::CheckpointOk);
        let good = snaps[3].to_json();
        let bits = good.split("\"bits\":\"").nth(1).expect("packed chromosomes");
        let first = format!("\"bits\":\"{}", &bits[..16]);
        // n = 8 has 28 pairs: bit 60, the first digit's lowest, is padding.
        let padding = format!("1{}", &bits[1..16]);
        for bad in ["0", "000000000000000g", "+00000000000000f", &padding, "00000000000000é"] {
            let doc = good.replacen(&first, &format!("\"bits\":\"{bad}"), 1);
            let reply = pool.dispatch(upload(serde_json::from_str(&doc).expect("JSON")));
            assert!(matches!(reply, Msg::Error { .. }), "{bad:?} got {reply:?}");
        }
        // An upload older than the stored copy leaves it unchanged.
        let reply = pool.dispatch(upload(snaps[1].to_value()));
        assert!(matches!(reply, Msg::Error { .. }), "{reply:?}");
        assert_eq!(stored(&pool, &grant.lease), Some(snaps[2].to_json()));
    }

    #[test]
    fn an_edge_list_claiming_too_many_nodes_is_answered_error() {
        let pool = test_pool(DistConfig::default());
        let grant = leased(&pool);
        let mut doc = engine_snapshots(grant.seed)[3].to_value();
        let Some(Value::Array(population)) = doc.get_mut("population") else {
            panic!("a population array");
        };
        let topology = population[0].get_mut("topology").expect("a chromosome");
        *topology = serde_json::json!({"n": 8_589_934_592_u64, "edges": []});
        let reply = pool.dispatch(Msg::TrialCheckpoint {
            worker: "w1".into(),
            lease: grant.lease.clone(),
            snapshot: doc,
        });
        assert!(matches!(reply, Msg::Error { .. }), "{reply:?}");
        assert_eq!(stored(&pool, &grant.lease), None, "nothing was stored");
    }

    #[test]
    fn uploads_for_a_revoked_lease_are_answered_lease_revoked() {
        let pool = test_pool(DistConfig {
            lease_deadline: Duration::from_millis(0),
            backoff_base_ms: 0,
            ..DistConfig::default()
        });
        let grant = leased(&pool);
        let snaps = engine_snapshots(grant.seed);
        pool.tick(); // the lease expires and its trial is re-queued
        let regrant = granted(pool.dispatch(Msg::LeaseRequest { worker: "w2".into() }));
        let mut uploads = Uploads::new("w1", &grant.lease);
        let mut replies = Vec::new();
        let mut send = |msg: &Msg| {
            let reply = pool.dispatch(msg.clone());
            replies.push(reply.clone());
            Ok(reply)
        };
        assert!(uploads.upload(&snaps[0], &mut send));
        // Once revoked, the sink uploads nothing more for the lease.
        assert!(!uploads.upload(&snaps[1], &mut send));
        assert_eq!(replies, vec![Msg::LeaseRevoked]);
        // A lease held by another worker is revoked for this one too.
        let mut stray = Uploads::new("w1", &regrant.lease);
        stray.upload(&snaps[0], |msg| {
            assert_eq!(pool.dispatch(msg.clone()), Msg::LeaseRevoked);
            Ok(Msg::LeaseRevoked)
        });
        assert_eq!(stored(&pool, &regrant.lease), None);
    }

    /// An in-thread worker: pulls leases and uploads each trial's record
    /// until `stop` is set. It runs in lockstep with a campaign that
    /// snapshots every trial to `ckpt`: trial `t` is uploaded only once
    /// the snapshot holds trials `0..t`, so the loop drains one trial at
    /// a time.
    fn spawn_simulated_worker(
        pool: &Arc<DistPool>,
        stop: &Arc<AtomicBool>,
        ckpt: &std::path::Path,
    ) -> thread::JoinHandle<()> {
        let pool = Arc::clone(pool);
        let stop = Arc::clone(stop);
        let ckpt = ckpt.to_path_buf();
        thread::spawn(move || {
            pool.dispatch(Msg::Hello { worker: "sim".into() });
            while !stop.load(Ordering::SeqCst) {
                match pool.dispatch(Msg::LeaseRequest { worker: "sim".into() }) {
                    Msg::Grant(g) => {
                        use serde::Deserialize;
                        let wcfg = ColdConfig::from_json_value(&g.config).expect("config");
                        let r = wcfg.synthesize(g.seed);
                        let rec = TrialRecord::from_result(g.trial, g.seed, &r);
                        while CampaignCheckpoint::load(&ckpt).map_or(0, |c| c.records.len())
                            < g.trial
                            && !stop.load(Ordering::SeqCst)
                        {
                            thread::sleep(Duration::from_millis(5));
                        }
                        pool.dispatch(Msg::TrialResult {
                            worker: "sim".into(),
                            lease: g.lease,
                            job: g.job,
                            trial: g.trial,
                            seed: g.seed,
                            record: rec.to_value(),
                        });
                    }
                    _ => thread::sleep(Duration::from_millis(10)),
                }
            }
        })
    }

    fn temp_ckpt(tag: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("cold-dist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let ckpt = dir.join("ckpt.json");
        (dir, ckpt)
    }

    #[test]
    fn campaign_over_simulated_workers_matches_local_ensemble() {
        let pool = test_pool(DistConfig::default());
        let cfg = quick_cfg();
        let master = 9u64;
        let count = 3usize;
        let (dir, ckpt) = temp_ckpt("coord");
        let stop = Arc::new(AtomicBool::new(false));
        let worker = spawn_simulated_worker(&pool, &stop, &ckpt);
        let cancel = AtomicBool::new(false);
        let mut seen = Vec::new();
        let results = cold::run_campaign(
            &Campaign::new(cfg, master, count),
            Some(Snapshots { path: &ckpt, every: 1 }),
            None,
            &mut PoolTrials::new(&pool, "job-sim", None, None),
            Some(&cancel),
            |i, _| {
                // Every completed trial but the last is on disk before
                // its hook fires.
                if i < count - 1 {
                    let on_disk = CampaignCheckpoint::load(&ckpt).map_or(0, |c| c.records.len());
                    assert_eq!(on_disk, i + 1, "on_trial({i})");
                }
                seen.push(i);
            },
        )
        .expect("distributed campaign")
        .into_results();
        stop.store(true, Ordering::SeqCst);
        worker.join().expect("worker thread");
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(results.len(), count);
        for (i, r) in results.iter().enumerate() {
            let local = cfg.synthesize(derive_seed(master, i as u64));
            assert_eq!(r.network.topology, local.network.topology);
            assert_eq!(r.best_cost_history, local.best_cost_history);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn canceled_distributed_campaign_resumes_locally_bit_identically() {
        let pool = test_pool(DistConfig::default());
        let cfg = quick_cfg();
        let (master, count) = (17u64, 3usize);
        let (dir, ckpt) = temp_ckpt("cancel");
        let stop = Arc::new(AtomicBool::new(false));
        let worker = spawn_simulated_worker(&pool, &stop, &ckpt);
        let cancel = AtomicBool::new(false);
        let err = cold::run_campaign(
            &Campaign::new(cfg, master, count),
            Some(Snapshots { path: &ckpt, every: 1 }),
            None,
            &mut PoolTrials::new(&pool, "job-cancel", None, None),
            Some(&cancel),
            |i, _| {
                if i == 0 {
                    cancel.store(true, Ordering::SeqCst);
                }
            },
        )
        .expect_err("a canceled campaign must not complete");
        stop.store(true, Ordering::SeqCst);
        worker.join().expect("worker thread");
        assert!(matches!(err, ColdError::Canceled { completed: 1 }), "unexpected error: {err}");
        let snapshot = CampaignCheckpoint::load(&ckpt).expect("cancel left a checkpoint");
        assert_eq!(snapshot.records.len(), 1);

        let resumed = cold::run_campaign(
            &Campaign::new(cfg, master, count),
            Some(Snapshots { path: &ckpt, every: 1 }),
            Some(snapshot),
            &mut LocalTrials::default(),
            None,
            |_, _| {},
        )
        .expect("local resume")
        .into_results();
        assert_eq!(resumed.len(), count);
        for (i, r) in resumed.iter().enumerate() {
            let local = cfg.synthesize(derive_seed(master, i as u64));
            assert_eq!(r.network.topology, local.network.topology);
            assert_eq!(r.context, local.context);
            assert_eq!(r.best_cost_history, local.best_cost_history);
            assert_eq!(r.final_population_costs, local.final_population_costs);
            assert_eq!(r.heuristic_costs, local.heuristic_costs);
            assert_eq!(r.evaluations, local.evaluations);
            assert_eq!(r.stats, local.stats);
            assert_eq!(r.network.total_cost().to_bits(), local.network.total_cost().to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lost_trial_fails_the_campaign_and_leaves_a_loadable_checkpoint() {
        let dcfg = DistConfig {
            lease_deadline: Duration::from_millis(0),
            max_lease_attempts: 1,
            backoff_base_ms: 0,
            local_fallback_grace: Duration::from_millis(0),
            ..DistConfig::default()
        };
        let pool = test_pool(dcfg);
        let cfg = quick_cfg();
        let (dir, ckpt) = temp_ckpt("lost");
        // A worker that finishes trial 0, waits until it is checkpointed,
        // then takes every later lease and never answers; it also plays
        // housekeeper, so each dropped lease expires at once.
        // Registered up front, so no trial ever falls back to inline.
        pool.dispatch(Msg::Hello { worker: "lossy".into() });
        let stop = Arc::new(AtomicBool::new(false));
        let worker = {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            let ckpt = ckpt.clone();
            thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match pool.dispatch(Msg::LeaseRequest { worker: "lossy".into() }) {
                        Msg::Grant(g) if g.trial == 0 && !ckpt.exists() => {
                            let r = cfg.synthesize(g.seed);
                            let rec = TrialRecord::from_result(0, g.seed, &r);
                            pool.dispatch(Msg::TrialResult {
                                worker: "lossy".into(),
                                lease: g.lease,
                                job: g.job,
                                trial: 0,
                                seed: g.seed,
                                record: rec.to_value(),
                            });
                            while !ckpt.exists() && !stop.load(Ordering::SeqCst) {
                                thread::sleep(Duration::from_millis(5));
                            }
                        }
                        _ => thread::sleep(Duration::from_millis(5)),
                    }
                    pool.tick();
                }
            })
        };
        let cancel = AtomicBool::new(false);
        let err = cold::run_campaign(
            &Campaign::new(cfg, 5, 3),
            Some(Snapshots { path: &ckpt, every: 1 }),
            None,
            &mut PoolTrials::new(&pool, "job-lost", None, None),
            Some(&cancel),
            |_, _| {},
        )
        .expect_err("a lost trial must fail the campaign");
        stop.store(true, Ordering::SeqCst);
        worker.join().expect("worker thread");
        assert!(matches!(err, ColdError::TrialPanic(_)), "unexpected error: {err}");
        let snapshot = CampaignCheckpoint::load(&ckpt).expect("the checkpoint still loads");
        assert_eq!(snapshot.records.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_pool_falls_back_to_inline_execution() {
        let dcfg =
            DistConfig { local_fallback_grace: Duration::from_millis(0), ..DistConfig::default() };
        let pool = test_pool(dcfg);
        let cfg = quick_cfg();
        let dir = std::env::temp_dir().join(format!("cold-dist-inline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let ckpt = dir.join("ckpt.json");
        let cancel = AtomicBool::new(false);
        let results = cold::run_campaign(
            &Campaign::new(cfg, 5, 2),
            Some(Snapshots { path: &ckpt, every: 1 }),
            None,
            &mut PoolTrials::new(&pool, "job-inline", None, None),
            Some(&cancel),
            |_, _| {},
        )
        .expect("inline fallback campaign")
        .into_results();
        assert_eq!(results.len(), 2);
        let local = cfg.synthesize(derive_seed(5, 1));
        assert_eq!(results[1].network.topology, local.network.topology);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
