//! The synthesis server: accept loop, HTTP thread pool, synthesis
//! worker pool, job registry, and graceful drain.
//!
//! ## Architecture
//!
//! ```text
//!  TcpListener ──accept──▶ [acceptor thread] ──mpsc──▶ [HTTP pool ×H]
//!                                                        │ POST /jobs
//!                                                        ▼
//!                registry (id → JobEntry) ◀──── BoundedQueue of job ids
//!                                                        │ pop
//!                                                        ▼
//!                                              [synthesis workers ×N]
//!                                     run_campaign (ckpt.json) ◀── trials:
//!                                                        │     LocalTrials, or
//!                                                        │     PoolTrials (dist)
//!                                                        ▼
//!                                        ResultCache (result.json)
//! ```
//!
//! HTTP threads only ever do cheap work (hashing, cache lookup, queue
//! push); every standard job runs on a worker through
//! [`cold::run_campaign`] with `checkpoint_every = 1`. Its trials come
//! from [`cold::LocalTrials`] (with salted retries), or on a coordinator
//! from the distributed pool's [`PoolTrials`] (with lease retries); the
//! wall-clock deadline and stall detection apply either way, and a
//! drain (SIGTERM or `POST /admin/shutdown`) cancels at the next trial
//! boundary with the completed prefix already checkpointed — a
//! restarted server re-scans the cache directory and resumes.

use crate::acceptor;
use crate::cache::ResultCache;
use crate::dist::{DistConfig, DistPool, PoolTrials};
use crate::http::{
    read_request, write_sse_frame, write_sse_keepalive, write_stream_head, Request, Response,
};
use crate::job::{JobEntry, JobMode, JobProgress, JobSpec, JobStatus};
use crate::metrics::{self, names};
use crate::queue::{BoundedQueue, QueueFull};
use cold::{
    Campaign, CampaignCheckpoint, ColdError, LocalTrials, ProgressSink, RunOptions, Snapshots,
    TrialObjective, TrialSource, TrialSpec,
};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Synthesis workers. 0 is allowed (jobs queue but never run) — the
    /// queue tests rely on it for determinism.
    pub workers: usize,
    /// HTTP handler threads.
    pub http_threads: usize,
    /// Bounded job-queue capacity; a full queue answers 503.
    pub queue_capacity: usize,
    /// Content-addressed result cache directory.
    pub cache_dir: PathBuf,
    /// Optional per-trial wall-clock deadline.
    pub trial_deadline: Option<Duration>,
    /// Optional cache size bound. After every result write the cache is
    /// trimmed back under this many bytes by evicting completed job
    /// directories LRU-first; parents of queued or running evolve jobs
    /// are never evicted (they are pending warm-start seeds).
    pub cache_max_bytes: Option<u64>,
    /// When set, the server also runs a distributed coordinator: a
    /// worker-protocol listener plus a lease/heartbeat pool, and every
    /// standard-mode campaign is sharded across remote workers (falling
    /// back to inline execution while none are registered).
    pub dist: Option<DistConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            http_threads: 4,
            queue_capacity: 16,
            cache_dir: PathBuf::from("cold-serve-cache"),
            trial_deadline: None,
            cache_max_bytes: None,
            dist: None,
        }
    }
}

/// State shared by the acceptor, HTTP pool, and workers.
struct Shared {
    registry: Mutex<HashMap<String, Arc<JobEntry>>>,
    queue: BoundedQueue<String>,
    cache: ResultCache,
    /// Behind an `Arc` so the distributed pool can share it as its
    /// drain flag: one SIGTERM drains HTTP, campaigns, and workers.
    shutdown: Arc<AtomicBool>,
    /// The HTTP listener's address, which a drain connects to so the
    /// blocked acceptor wakes.
    addr: SocketAddr,
    trial_deadline: Option<Duration>,
    cache_max_bytes: Option<u64>,
    /// Present when this server is a distributed coordinator.
    dist: Option<Arc<DistPool>>,
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    dist_addr: Option<SocketAddr>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The distributed coordinator's worker-protocol address, when
    /// [`ServerConfig::dist`] was set.
    pub fn dist_addr(&self) -> Option<SocketAddr> {
        self.dist_addr
    }

    /// True once a drain has been requested (signal, admin route, or
    /// [`ServerHandle::shutdown`]).
    pub fn is_draining(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain: stop accepting, cancel campaigns at
    /// their next trial boundary (checkpointed), then stop.
    pub fn shutdown(&self) {
        self.shared.drain();
    }

    /// Blocks until the drain completes and every thread has exited.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// The `cold-serve` server.
pub struct Server;

impl Server {
    /// Binds, re-enqueues unfinished jobs from the cache directory, and
    /// starts the acceptor, HTTP pool, and worker pool.
    ///
    /// # Errors
    /// Propagates bind and cache-directory failures.
    pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
        let cache = ResultCache::open(&config.cache_dir)?;
        // The service is always observable: counters feed `/metrics`.
        cold_obs::set_timers_enabled(true);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let (dist_pool, dist_handle) = match &config.dist {
            Some(dc) => {
                let (pool, handle) = DistPool::start(dc.clone(), Arc::clone(&shutdown))?;
                (Some(pool), Some(handle))
            }
            None => (None, None),
        };
        let dist_addr = dist_handle.as_ref().map(|h| h.addr());

        let shared = Arc::new(Shared {
            registry: Mutex::new(HashMap::new()),
            queue: BoundedQueue::new(config.queue_capacity.max(1)),
            cache,
            shutdown,
            addr,
            trial_deadline: config.trial_deadline,
            cache_max_bytes: config.cache_max_bytes,
            dist: dist_pool,
        });

        // Resume-on-restart: anything accepted but unfinished by a
        // previous process goes back on the queue (bypassing the bound —
        // these jobs were already admitted once).
        {
            let mut registry = shared.registry.lock().expect("registry poisoned");
            for (id, spec) in shared.cache.scan_unfinished() {
                let entry = Arc::new(JobEntry::new(spec));
                // The resumed leg is a fresh causal unit: re-mint its
                // trace (same trace id — it is the job id) so this
                // journal has its own root anchor.
                mint_job_trace(&entry, &id);
                registry.insert(id.clone(), entry);
                shared.queue.push_forced(id);
            }
            cold_obs::gauge_set(names::QUEUE_DEPTH, shared.queue.len() as i64);
        }

        let mut worker_handles = Vec::new();
        for w in 0..config.workers {
            let shared = Arc::clone(&shared);
            worker_handles.push(
                std::thread::Builder::new().name(format!("cold-serve-worker-{w}")).spawn(
                    move || {
                        cold_obs::gauge_add(names::WORKERS_ACTIVE, 1);
                        worker_loop(&shared);
                        cold_obs::gauge_add(names::WORKERS_ACTIVE, -1);
                    },
                )?,
            );
        }

        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let mut http_handles = Vec::new();
        for h in 0..config.http_threads.max(1) {
            let shared = Arc::clone(&shared);
            let conn_rx = Arc::clone(&conn_rx);
            http_handles.push(
                std::thread::Builder::new().name(format!("cold-serve-http-{h}")).spawn(
                    move || loop {
                        let stream = conn_rx.lock().expect("conn queue poisoned").recv();
                        match stream {
                            Ok(mut stream) => handle_connection(&shared, &mut stream),
                            Err(_) => break, // acceptor hung up: drain done
                        }
                    },
                )?,
            );
        }

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new().name("cold-serve-accept".into()).spawn(move || {
                acceptor::accept_until(listener, &shared.shutdown, |stream| {
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                    // A stalled reader must not wedge a handler thread
                    // mid-response either.
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
                    conn_tx.send(stream).is_ok()
                });
                // Drain sequence: stop HTTP, then stop workers. Campaigns
                // in flight observe the shutdown flag as their cancel
                // signal and return at the next trial boundary.
                drop(conn_tx);
                for h in http_handles {
                    let _ = h.join();
                }
                shared.queue.close();
                for w in worker_handles {
                    let _ = w.join();
                }
                // The dist protocol stops *after* the synthesis workers:
                // their draining campaigns must stay reachable for
                // in-flight result uploads. Then linger until every
                // registered worker has observed the drain (heartbeats
                // answer `drain: true`; the goodbye empties the
                // registry) — stopping the listener first would leave
                // workers retrying against a dead address until their
                // own unreachability bound trips. Bounded, so a worker
                // that was itself killed cannot wedge shutdown.
                if let (Some(pool), Some(handle)) = (&shared.dist, dist_handle) {
                    let grace = std::time::Instant::now() + Duration::from_secs(5);
                    while pool.workers_alive() > 0 && std::time::Instant::now() < grace {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    pool.shutdown();
                    handle.join();
                }
            })?
        };

        Ok(ServerHandle { shared, dist_addr, acceptor: Some(acceptor) })
    }
}

impl Shared {
    /// Starts a drain: sets the shutdown flag and wakes the acceptor.
    fn drain(&self) {
        acceptor::stop_and_wake(&self.shutdown, self.addr);
    }
}

// ---------------------------------------------------------------------
// HTTP routing
// ---------------------------------------------------------------------

fn handle_connection(shared: &Shared, stream: &mut TcpStream) {
    let request = match read_request(stream) {
        Ok(request) => {
            cold_obs::counter_add(names::HTTP_REQUESTS, 1);
            request
        }
        Err(e) => {
            let _ = Response::error(400, "bad_request", &e.to_string()).write_to(stream);
            return;
        }
    };
    // The event stream writes the connection incrementally and cannot go
    // through the buffered request/response path.
    if request.method == "GET" {
        if let Some(id) =
            request.path.strip_prefix("/jobs/").and_then(|rest| rest.strip_suffix("/events"))
        {
            stream_events(shared, id, stream);
            return;
        }
    }
    let _ = route(shared, &request).write_to(stream);
}

/// `GET /jobs/{id}/events`: a live SSE stream of the job's status
/// transitions and per-generation records. Subscribes *before* taking
/// the status snapshot so no transition can fall between the two; ends
/// with a clean EOF when the job publishes a terminal status (or was
/// already terminal).
fn stream_events(shared: &Shared, id: &str, stream: &mut TcpStream) {
    let entry = shared.registry.lock().expect("registry poisoned").get(id).cloned();
    let Some(entry) = entry else {
        // Finished in a previous process: a short stream of the cached
        // terminal status keeps the route total.
        if shared.cache.lookup(id).is_some() {
            let doc = serde_json::json!({ "id": id, "status": "done", "cached": true });
            if write_stream_head(stream).is_ok() {
                let _ = write_sse_frame(
                    stream,
                    &serde_json::to_string(&doc).expect("status serializes"),
                );
            }
            return;
        }
        let _ = Response::error(404, "not_found", "no such job").write_to(stream);
        return;
    };
    let rx = entry.subscribe();
    if write_stream_head(stream).is_err() {
        return;
    }
    let snapshot = entry.status_value(id);
    if write_sse_frame(stream, &serde_json::to_string(&snapshot).expect("status serializes"))
        .is_err()
    {
        return;
    }
    if matches!(snapshot["status"].as_str(), Some("done" | "failed" | "interrupted")) {
        return; // already terminal: snapshot is the whole stream
    }
    loop {
        match rx.recv_timeout(Duration::from_millis(250)) {
            Ok(payload) => {
                if write_sse_frame(stream, &payload).is_err() {
                    return; // client went away; subscriber is pruned on next publish
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::SeqCst) || write_sse_keepalive(stream).is_err() {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return, // terminal: clean EOF
        }
    }
}

fn route(shared: &Shared, request: &Request) -> Response {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/metrics") => Response::text(200, metrics::render()),
        ("POST", "/jobs") => submit(shared, &request.body),
        ("POST", "/admin/shutdown") => {
            shared.drain();
            Response::json(200, "{\"ok\":true,\"draining\":true}".into())
        }
        ("GET", _) if path.starts_with("/jobs/") => {
            let rest = &path["/jobs/".len()..];
            match rest.strip_suffix("/result") {
                Some(id) => result(shared, id),
                None if rest.contains('/') => Response::error(404, "not_found", "no such route"),
                None => status(shared, rest),
            }
        }
        (_, "/jobs") | (_, "/healthz") | (_, "/metrics") | (_, "/admin/shutdown") => {
            Response::error(405, "method_not_allowed", "wrong method for this route")
        }
        _ => Response::error(404, "not_found", "no such route"),
    }
}

fn healthz(shared: &Shared) -> Response {
    let registry = shared.registry.lock().expect("registry poisoned");
    let doc = match &shared.dist {
        Some(pool) => serde_json::json!({
            "ok": true,
            "draining": shared.shutdown.load(Ordering::SeqCst),
            "queued": shared.queue.len(),
            "jobs": registry.len(),
            "dist_workers": pool.workers_alive(),
        }),
        None => serde_json::json!({
            "ok": true,
            "draining": shared.shutdown.load(Ordering::SeqCst),
            "queued": shared.queue.len(),
            "jobs": registry.len(),
        }),
    };
    Response::json(200, serde_json::to_string(&doc).expect("healthz serializes"))
}

fn submit(shared: &Shared, body: &[u8]) -> Response {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "bad_request", "body is not UTF-8"),
    };
    let spec = match JobSpec::from_json(text) {
        Ok(s) => s,
        Err(msg) => return Response::error(400, "bad_request", &msg),
    };
    let id = spec.id();

    // 1. Completed before (this or a previous process): serve from cache.
    if shared.cache.lookup(&id).is_some() {
        shared.cache.touch(&id);
        return answer_cache_hit(&id, "result");
    }

    // Hold the registry lock across check-and-insert so two identical
    // concurrent submissions cannot both enqueue.
    let mut registry = shared.registry.lock().expect("registry poisoned");

    // 2. Identical job already in flight: coalesce onto it.
    if let Some(entry) = registry.get(&id) {
        let current = entry.status.lock().expect("job status poisoned").clone();
        match current {
            JobStatus::Queued | JobStatus::Running | JobStatus::Interrupted => {
                return answer_cache_hit(&id, "inflight");
            }
            JobStatus::Done => return answer_cache_hit(&id, "result"),
            JobStatus::Failed(_) => {
                // A resubmission of a failed job is a fresh attempt.
                match shared.queue.push(id.clone()) {
                    Err(QueueFull) => return answer_queue_full(),
                    Ok(()) => {
                        *entry.status.lock().expect("job status poisoned") = JobStatus::Queued;
                        *entry.progress.lock().expect("job progress poisoned") =
                            JobProgress::default();
                        *entry.enqueued.lock().expect("enqueue time poisoned") = Instant::now();
                        let entry = Arc::clone(entry);
                        return answer_accepted(shared, &id, &entry);
                    }
                }
            }
        }
    }

    // 3. New job: reserve a queue slot, persist the spec, register.
    match shared.queue.push(id.clone()) {
        Err(QueueFull) => answer_queue_full(),
        Ok(()) => {
            if let Err(e) = shared.cache.store_spec(&id, &spec) {
                eprintln!("cold-serve: job {id}: spec not persisted ({e}); resume disabled");
            }
            let entry = Arc::new(JobEntry::new(spec));
            registry.insert(id.clone(), Arc::clone(&entry));
            answer_accepted(shared, &id, &entry)
        }
    }
}

/// Mints the job's trace: a root scope named `serve.job` whose trace id
/// *is* the content-addressed job id, anchored in the journal by its
/// `span_start` event. The context is stored on the entry for the worker
/// to re-enter. A no-op (storing `None`) while telemetry is off.
fn mint_job_trace(entry: &JobEntry, id: &str) {
    let scope = cold_obs::trace::root("serve.job", id);
    *entry.trace.lock().expect("job trace poisoned") = cold_obs::trace::current();
    drop(scope);
}

fn answer_cache_hit(id: &str, kind: &str) -> Response {
    let counter =
        if kind == "result" { names::CACHE_HITS_RESULT } else { names::CACHE_HITS_INFLIGHT };
    cold_obs::counter_add(counter, 1);
    {
        // Cache hits happen on connection threads with no job scope;
        // anchor them in the job's trace (trace id = job id) so the
        // journal's causal graph stays fully resolvable.
        let _scope = cold_obs::trace::root("serve.cache_hit", id);
        cold_obs::emit(&cold_obs::Event::CacheHit(cold_obs::CacheHit {
            id: id.to_string(),
            kind: kind.to_string(),
        }));
    }
    let doc = if kind == "result" {
        serde_json::json!({ "id": id, "status": "done", "cached": true })
    } else {
        serde_json::json!({ "id": id, "status": "pending", "deduplicated": true })
    };
    Response::json(200, serde_json::to_string(&doc).expect("hit doc serializes"))
}

fn answer_queue_full() -> Response {
    cold_obs::counter_add(names::QUEUE_REJECTIONS, 1);
    Response::error(503, "queue_full", "job queue is at capacity; retry shortly")
        .with_header("retry-after", "1")
}

fn answer_accepted(shared: &Shared, id: &str, entry: &JobEntry) -> Response {
    let spec = &entry.spec;
    cold_obs::counter_add(names::JOBS_SUBMITTED, 1);
    cold_obs::gauge_set(names::QUEUE_DEPTH, shared.queue.len() as i64);
    // (Re)mint the trace at acceptance so the submission event below is
    // this trace's first child.
    mint_job_trace(entry, id);
    let ctx = entry.trace.lock().expect("job trace poisoned").clone();
    cold_obs::emit_with_ctx(
        &cold_obs::Event::JobSubmitted(cold_obs::JobSubmitted {
            id: id.to_string(),
            n: spec.config.context.n,
            count: spec.count,
            seed: spec.seed,
        }),
        ctx.as_ref(),
    );
    let doc = serde_json::json!({ "id": id, "status": "queued", "queued": shared.queue.len() });
    Response::json(202, serde_json::to_string(&doc).expect("accept doc serializes"))
}

fn status(shared: &Shared, id: &str) -> Response {
    let registry = shared.registry.lock().expect("registry poisoned");
    if let Some(entry) = registry.get(id) {
        return Response::json(
            200,
            serde_json::to_string(&entry.status_value(id)).expect("status serializes"),
        );
    }
    drop(registry);
    if shared.cache.lookup(id).is_some() {
        let doc = serde_json::json!({ "id": id, "status": "done", "cached": true });
        return Response::json(200, serde_json::to_string(&doc).expect("status serializes"));
    }
    Response::error(404, "not_found", "no such job")
}

fn result(shared: &Shared, id: &str) -> Response {
    if let Some(doc) = shared.cache.lookup(id) {
        shared.cache.touch(id);
        return Response::json(200, doc);
    }
    let registry = shared.registry.lock().expect("registry poisoned");
    if let Some(entry) = registry.get(id) {
        return Response::json(
            202,
            serde_json::to_string(&entry.status_value(id)).expect("status serializes"),
        );
    }
    Response::error(404, "not_found", "no such job")
}

// ---------------------------------------------------------------------
// Synthesis workers
// ---------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    while let Some(id) = shared.queue.pop() {
        cold_obs::gauge_set(names::QUEUE_DEPTH, shared.queue.len() as i64);
        let entry = {
            let registry = shared.registry.lock().expect("registry poisoned");
            registry.get(&id).cloned()
        };
        let Some(entry) = entry else {
            continue; // registry and queue are only ever updated together
        };
        let waited = entry.enqueued.lock().expect("enqueue time poisoned").elapsed();
        cold_obs::observe_seconds(names::JOB_QUEUE_WAIT_SECONDS, waited.as_secs_f64());
        if shared.shutdown.load(Ordering::SeqCst) {
            transition(&entry, &id, JobStatus::Interrupted);
            continue;
        }
        cold_obs::gauge_add(names::JOBS_INFLIGHT, 1);
        run_job(shared, &id, &entry);
        cold_obs::gauge_add(names::JOBS_INFLIGHT, -1);
    }
}

/// Applies a status transition and publishes the new status document to
/// any live event streams; terminal transitions then end the streams
/// (their receivers see the disconnect as EOF).
fn transition(entry: &JobEntry, id: &str, status: JobStatus) {
    let terminal =
        matches!(status, JobStatus::Done | JobStatus::Failed(_) | JobStatus::Interrupted);
    *entry.status.lock().expect("job status poisoned") = status;
    if entry.has_subscribers() {
        entry.publish(&serde_json::to_string(&entry.status_value(id)).expect("status serializes"));
    }
    if terminal {
        entry.close_stream();
    }
}

/// Runs one job. Every mode shares this frame: the job's trace, the
/// progress sink, a panic boundary around each attempt (including the
/// armed `serve.worker_panic` fault site), and the persist → counters →
/// `job_done` → evict tail in [`finish_job`]. A mode supplies only the
/// function that produces its result document: [`standard_doc`],
/// [`pareto_doc`] or [`evolve_doc`]. The first panic retries the job — a
/// standard job resumes from its campaign checkpoint, so no completed
/// trial reruns — and a second panic fails the job, never the server.
fn run_job(shared: &Shared, id: &str, entry: &Arc<JobEntry>) {
    // Re-enter the trace minted at submission: the campaign, its trials,
    // and every GA generation below nest under the job's root span.
    let job_ctx = entry.trace.lock().expect("job trace poisoned").clone();
    let _trace = job_ctx.map(cold_obs::trace::enter);
    transition(entry, id, JobStatus::Running);
    let started = Instant::now();
    let sink = progress_sink(entry);
    let ckpt_path = shared.cache.checkpoint_path(id);

    for attempt in 1..=2u32 {
        let resume = CampaignCheckpoint::load(&ckpt_path).ok();
        cold_obs::emit(&cold_obs::Event::JobStarted(cold_obs::JobStarted {
            id: id.to_string(),
            resumed: resume.as_ref().map_or(0, |c| c.records.len()),
        }));
        let sink = Arc::clone(&sink);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            if cold_fault::should_fire("serve.worker_panic") {
                panic!("injected fault: serve.worker_panic");
            }
            match entry.spec.mode {
                JobMode::Standard => standard_doc(shared, id, entry, &ckpt_path, resume, sink),
                JobMode::Pareto => pareto_doc(id, &entry.spec, sink),
                JobMode::Evolve => evolve_doc(shared, id, &entry.spec, sink),
            }
        }));

        let error = match outcome {
            Ok(Ok((doc, trials))) => return finish_job(shared, id, entry, &doc, trials, started),
            // Graceful drain: checkpointed; a restart resumes it.
            Ok(Err(ColdError::Canceled { .. })) => {
                return transition(entry, id, JobStatus::Interrupted)
            }
            Ok(Err(e)) => e.to_string(),
            Err(payload) => {
                cold_obs::counter_add(names::WORKER_PANICS, 1);
                if attempt == 1 {
                    continue; // first panic: retry
                }
                format!("worker panicked twice: {}", cold::error::panic_message(payload.as_ref()))
            }
        };
        return fail_job(id, entry, &error);
    }
}

/// The job's live-progress sink: records each generation's number and
/// best cost, and streams the record to any event-stream subscribers.
fn progress_sink(entry: &Arc<JobEntry>) -> ProgressSink {
    let run = cold_obs::run_id(entry.spec.seed);
    let entry = Arc::clone(entry);
    Arc::new(move |record: &cold_obs::GenerationRecord| {
        {
            let mut p = entry.progress.lock().expect("job progress poisoned");
            p.generation = record.generation;
            p.best = record.best;
        }
        if entry.has_subscribers() {
            let event = cold_obs::Event::Generation(cold_obs::GenerationEvent {
                run: run.clone(),
                record: record.clone(),
            });
            entry.publish(&serde_json::to_string(&event.to_value()).expect("record serializes"));
        }
    })
}

/// A result document and the number of trials behind it.
type JobDoc = Result<(serde_json::Value, usize), ColdError>;

/// A standard job: a checkpointed campaign of `count` trials, drawn
/// from the worker pool in coordinator mode (same seeds, same checkpoint
/// file — see the dist module), else run locally with salted retries.
fn standard_doc(
    shared: &Shared,
    id: &str,
    entry: &Arc<JobEntry>,
    ckpt_path: &std::path::Path,
    resume: Option<CampaignCheckpoint>,
    sink: ProgressSink,
) -> JobDoc {
    let spec = entry.spec;
    let (deadline, progress) = (shared.trial_deadline, Some(sink));
    let mut source: Box<dyn TrialSource + '_> = match &shared.dist {
        Some(pool) => Box::new(PoolTrials::new(pool, id, deadline, progress)),
        None => Box::new(LocalTrials { deadline, progress, ..LocalTrials::default() }),
    };
    let results = cold::run_campaign(
        &Campaign::new(spec.config, spec.seed, spec.count),
        // Checkpoint every trial: drains lose nothing.
        Some(Snapshots { path: ckpt_path, every: 1 }),
        resume,
        source.as_mut(),
        Some(&shared.shutdown),
        |i, _| entry.progress.lock().expect("job progress poisoned").trials_done = i + 1,
    )?
    .into_results();
    let report = cold::report::ensemble_report(&spec.config, &results, spec.seed);
    let topologies: Vec<serde_json::Value> = results
        .iter()
        .map(|r| {
            serde_json::from_str(&cold::export::to_json(&r.network, &r.context))
                .expect("exporter emits valid JSON")
        })
        .collect();
    let doc = serde_json::json!({
        "id": id,
        "seed": spec.seed,
        "count": spec.count,
        "report": report,
        "topologies": topologies,
    });
    Ok((doc, results.len()))
}

/// A `mode: pareto` job: one NSGA-II synthesis, the whole front as the
/// result document. A front is one run with no campaign checkpoint, so a
/// retry or a restart after a drain runs it from scratch.
fn pareto_doc(id: &str, spec: &JobSpec, sink: ProgressSink) -> JobDoc {
    let objective = TrialObjective::Pareto { archive: cold::pareto::DEFAULT_ARCHIVE_CAPACITY };
    let options = RunOptions { progress: Some(sink), ..RunOptions::default() };
    let result = spec.config.run_trial(TrialSpec::new(spec.seed, objective), options)?.into_front();
    let front: serde_json::Value =
        serde_json::from_str(&cold::export::pareto_front_to_json(&result))
            .expect("front exporter emits valid JSON");
    let doc = serde_json::json!({
        "id": id,
        "seed": spec.seed,
        "mode": "pareto",
        "result": front,
    });
    Ok((doc, 1))
}

/// A `mode: evolve` job: one synthesis warm-started from the parent
/// job's cached design (result document first, campaign checkpoint as a
/// fallback), pricing rewired links with the spec's change costs. When
/// the parent's artifacts are gone — evicted, or never completed here —
/// the job falls back to a cold run: same context, same objective, so
/// the result is still well-defined, just slower. Evolve jobs always run
/// on the coordinator's local pool.
fn evolve_doc(shared: &Shared, id: &str, spec: &JobSpec, sink: ProgressSink) -> JobDoc {
    let parent_hex = spec.parent_hex().expect("evolve specs carry a parent");
    // The parent design, embedded into this job's node set when the
    // child's context grew. A parent larger than the child cannot seed
    // it (evolution never shrinks the node set) — cold fallback.
    let n = spec.config.context.n;
    let seed_topology = load_parent_topology(&shared.cache, &parent_hex)
        .filter(|t| t.n() <= n)
        .map(|t| cold::embed_parent(&t, n));
    let objective = match &seed_topology {
        Some(parent) => {
            // The parent earned another LRU life: it is visibly load-bearing.
            shared.cache.touch(&parent_hex);
            cold_obs::counter_add(names::WARM_STARTS, 1);
            cold_obs::emit(&cold_obs::Event::WarmStart(cold_obs::WarmStart {
                id: id.to_string(),
                parent: parent_hex.clone(),
                seeds: spec.config.ga.population,
            }));
            TrialObjective::Warm { parent: parent.clone(), costs: spec.change }
        }
        None => TrialObjective::Cost,
    };
    let options = RunOptions { progress: Some(sink), ..RunOptions::default() };
    let result =
        spec.config.run_trial(TrialSpec::new(spec.seed, objective), options)?.into_single();
    let topology: serde_json::Value =
        serde_json::from_str(&cold::export::to_json(&result.network, &result.context))
            .expect("exporter emits valid JSON");
    let penalty = seed_topology.as_ref().map_or(0.0, |p| {
        cold::change_penalty(p, &result.network.topology, &spec.change, |u, v| {
            result.context.distance(u, v)
        })
    });
    // `topologies` (not `topology`): a chained child parses this document
    // exactly like a standard job's.
    let doc = serde_json::json!({
        "id": id,
        "seed": spec.seed,
        "mode": "evolve",
        "parent": parent_hex,
        "warm": seed_topology.is_some(),
        "generations": result.generations_run,
        "change_penalty": penalty,
        "cost": result.network.total_cost(),
        "topologies": [topology],
    });
    Ok((doc, 1))
}

/// The parent's best design, for seeding a child's GA population: the
/// first topology of its cached result document, else trial 0 of its
/// campaign checkpoint (so a drained-but-unfinished parent still
/// warm-starts its children).
fn load_parent_topology(
    cache: &ResultCache,
    parent_id: &str,
) -> Option<cold::graph::AdjacencyMatrix> {
    if let Some(text) = cache.lookup(parent_id) {
        if let Some(m) = serde_json::from_str::<serde_json::Value>(&text)
            .ok()
            .and_then(|doc| topology_doc_matrix(&doc))
        {
            return Some(m);
        }
    }
    let ckpt = CampaignCheckpoint::load(&cache.checkpoint_path(parent_id)).ok()?;
    let rec = ckpt.records.first()?;
    cold::graph::AdjacencyMatrix::from_edges(rec.n, &rec.edges).ok()
}

/// Extracts the first `{n, links: [{source, target}]}` topology of a
/// standard or evolve result document as an adjacency matrix.
fn topology_doc_matrix(doc: &serde_json::Value) -> Option<cold::graph::AdjacencyMatrix> {
    let topo = doc["topologies"].as_array()?.first()?;
    let n = topo["n"].as_u64()? as usize;
    let mut m = cold::graph::AdjacencyMatrix::empty(n);
    for link in topo["links"].as_array()? {
        let u = link["source"].as_u64()? as usize;
        let v = link["target"].as_u64()? as usize;
        if u >= n || v >= n || u == v {
            return None;
        }
        m.set_edge(u, v, true);
    }
    Some(m)
}

/// Trims the cache back under `--cache-max-bytes` (when set) after a
/// result write. Protected from eviction: every non-terminal registry
/// job, and the parents of all queued or running evolve jobs — evicting
/// a pending warm-start seed would silently degrade its child to a cold
/// run.
fn maybe_evict(shared: &Shared) {
    let Some(max) = shared.cache_max_bytes else { return };
    let mut protected = std::collections::HashSet::new();
    {
        let registry = shared.registry.lock().expect("registry poisoned");
        for (jid, entry) in registry.iter() {
            let status = entry.status.lock().expect("job status poisoned").clone();
            if matches!(status, JobStatus::Queued | JobStatus::Running | JobStatus::Interrupted) {
                protected.insert(jid.clone());
                if let Some(parent) = entry.spec.parent_hex() {
                    protected.insert(parent);
                }
            }
        }
    }
    let evicted = shared.cache.evict_lru(max, &protected);
    if !evicted.is_empty() {
        cold_obs::counter_add(names::CACHE_EVICTIONS, evicted.len() as u64);
        // An evicted job must leave the registry too, or a resubmission
        // would claim done-ness with no result document left to serve.
        let mut registry = shared.registry.lock().expect("registry poisoned");
        for jid in &evicted {
            registry.remove(jid);
        }
    }
}

/// The shared tail of every successful job: persist the result
/// document, then the counters, `job_done`, the `done` transition and a
/// cache trim.
fn finish_job(
    shared: &Shared,
    id: &str,
    entry: &Arc<JobEntry>,
    doc: &serde_json::Value,
    trials: usize,
    started: Instant,
) {
    let text = serde_json::to_string(doc).expect("result doc serializes");
    if let Err(e) = shared.cache.store_result(id, &text) {
        fail_job(id, entry, &format!("result not persisted: {e}"));
        return;
    }
    shared.cache.touch(id);
    entry.progress.lock().expect("job progress poisoned").trials_done = trials;
    let seconds = started.elapsed().as_secs_f64();
    cold_obs::counter_add(names::JOBS_COMPLETED, 1);
    cold_obs::observe_seconds(names::JOB_SECONDS, seconds);
    cold_obs::emit(&cold_obs::Event::JobDone(cold_obs::JobDone {
        id: id.to_string(),
        trials,
        seconds,
    }));
    transition(entry, id, JobStatus::Done);
    maybe_evict(shared);
}

fn fail_job(id: &str, entry: &Arc<JobEntry>, why: &str) {
    cold_obs::counter_add(names::JOBS_FAILED, 1);
    cold_obs::emit(&cold_obs::Event::JobFailed(cold_obs::JobFailed {
        id: id.to_string(),
        error: why.to_string(),
    }));
    transition(entry, id, JobStatus::Failed(why.to_string()));
}
