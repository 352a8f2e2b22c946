//! End-to-end tests for `cold-serve` over real TCP sockets.
//!
//! Every in-process test mutates process-global telemetry/fault state
//! (the journal sink, the metric registry, armed faults), so they all
//! serialize on one mutex and reset that state up front.

use cold::ColdConfig;
use cold_serve::dist::run_worker;
use cold_serve::http::client_request;
use cold_serve::{DistConfig, Server, ServerConfig, ServerHandle, WorkerConfig};
use serde::Serialize as _;
use serde_json::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cold-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fresh_globals(journal: Option<&PathBuf>) {
    cold_fault::clear();
    cold_obs::reset();
    match journal {
        Some(path) => {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent).expect("journal dir");
            }
            let _ = std::fs::remove_file(path);
            cold_obs::configure(cold_obs::TraceMode::Journal(path.clone())).expect("journal sink");
        }
        None => cold_obs::configure(cold_obs::TraceMode::Off).expect("sink off"),
    }
}

fn start(config: ServerConfig) -> (ServerHandle, String) {
    let handle = Server::start(config).expect("server starts");
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

fn job_body(n: usize, seed: u64, count: usize) -> String {
    let config = ColdConfig::quick(n, 4e-4, 10.0);
    let doc = serde_json::json!({
        "config": config.to_json_value(),
        "seed": seed,
        "count": count,
    });
    serde_json::to_string(&doc).expect("body serializes")
}

fn parse_body(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON body ({e}): {body}"))
}

/// Polls `GET /jobs/{id}` until its status is one of `until` (returning
/// the final document) or the deadline passes (panicking).
fn poll_until(addr: &str, id: &str, until: &[&str], deadline: Duration) -> Value {
    let started = Instant::now();
    loop {
        let resp = client_request(addr, "GET", &format!("/jobs/{id}"), None).expect("poll");
        let doc = parse_body(&resp.body);
        if let Some(status) = doc["status"].as_str() {
            if until.contains(&status) {
                return doc;
            }
        }
        assert!(
            started.elapsed() < deadline,
            "job {id} did not reach {until:?} within {deadline:?}; last: {doc:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Runs `join` on a helper thread and fails unless it returns within two
/// seconds, so a lost drain wake-up fails the test instead of hanging
/// the suite.
fn joins_promptly(what: &str, join: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        join();
        let _ = tx.send(());
    });
    let limit = Duration::from_secs(2);
    if rx.recv_timeout(limit).is_err() {
        panic!("{what}: drain did not finish within {limit:?}");
    }
}

fn read_journal(path: &PathBuf) -> Vec<cold_obs::Event> {
    let text = std::fs::read_to_string(path).expect("journal written");
    cold_obs::parse_journal(&text).expect("journal validates")
}

#[test]
fn submit_poll_result_then_cache_hit() {
    let _guard = global_lock();
    let dir = temp_dir("happy");
    let journal = dir.join("serve.jsonl");
    fresh_globals(Some(&journal));

    let (handle, addr) =
        start(ServerConfig { workers: 1, cache_dir: dir.join("cache"), ..ServerConfig::default() });

    // Cold submission: accepted and queued.
    let body = job_body(8, 11, 2);
    let resp = client_request(&addr, "POST", "/jobs", Some(&body)).expect("submit");
    assert_eq!(resp.status, 202, "{}", resp.body);
    let id = parse_body(&resp.body)["id"].as_str().expect("id").to_string();
    assert_eq!(id.len(), 16);

    // Live status then completion.
    let done = poll_until(&addr, &id, &["done"], Duration::from_secs(120));
    assert_eq!(done["trials_done"].as_u64(), Some(2));

    // The result document has the report and one topology per trial.
    let resp = client_request(&addr, "GET", &format!("/jobs/{id}/result"), None).expect("result");
    assert_eq!(resp.status, 200);
    let doc = parse_body(&resp.body);
    assert!(doc["report"].as_str().expect("report").contains("COLD ensemble report"));
    assert_eq!(doc["topologies"].as_array().expect("topologies").len(), 2);

    // Identical resubmission — different JSON spelling would hash the
    // same, but even the same body must short-circuit to the cache.
    let resp = client_request(&addr, "POST", "/jobs", Some(&body)).expect("resubmit");
    assert_eq!(resp.status, 200);
    let doc = parse_body(&resp.body);
    assert_eq!(doc["cached"].as_bool(), Some(true));
    assert_eq!(doc["id"].as_str(), Some(id.as_str()));

    // /metrics moved: one submission, one completion, one result hit.
    let metrics = client_request(&addr, "GET", "/metrics", None).expect("metrics").body;
    let counter = |name: &str| cold_serve::metrics::parse_counter(&metrics, name);
    assert_eq!(counter("cold_serve_jobs_submitted"), Some(1));
    assert_eq!(counter("cold_serve_jobs_completed"), Some(1));
    assert_eq!(counter("cold_serve_cache_hits_result"), Some(1));

    handle.shutdown();
    handle.join();

    // The journal recorded the whole lifecycle, including the cache hit.
    let events = read_journal(&journal);
    let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
    assert!(kinds.contains(&"job_submitted"));
    assert!(kinds.contains(&"job_started"));
    assert!(kinds.contains(&"job_done"));
    assert!(kinds.contains(&"cache_hit"));
    for event in &events {
        if let cold_obs::Event::CacheHit(hit) = event {
            assert_eq!((hit.id.as_str(), hit.kind.as_str()), (id.as_str(), "result"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queue_backpressure_dedup_and_typed_errors() {
    let _guard = global_lock();
    let dir = temp_dir("queue");
    fresh_globals(None);

    // No workers: the queue fills deterministically and nothing drains.
    let (handle, addr) = start(ServerConfig {
        workers: 0,
        queue_capacity: 2,
        cache_dir: dir.join("cache"),
        ..ServerConfig::default()
    });

    let first = job_body(8, 1, 1);
    let resp = client_request(&addr, "POST", "/jobs", Some(&first)).expect("submit 1");
    assert_eq!(resp.status, 202);
    let id = parse_body(&resp.body)["id"].as_str().expect("id").to_string();
    let resp = client_request(&addr, "POST", "/jobs", Some(&job_body(8, 2, 1))).expect("submit 2");
    assert_eq!(resp.status, 202);

    // Queue full: 503 with Retry-After and a typed body.
    let resp = client_request(&addr, "POST", "/jobs", Some(&job_body(8, 3, 1))).expect("submit 3");
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("retry-after"), Some("1"));
    let doc = parse_body(&resp.body);
    assert_eq!(doc["error"]["kind"].as_str(), Some("queue_full"));

    // An identical in-flight submission coalesces — it does NOT consume
    // a queue slot and does NOT get rejected even though the queue is full.
    let resp = client_request(&addr, "POST", "/jobs", Some(&first)).expect("dedup");
    assert_eq!(resp.status, 200);
    let doc = parse_body(&resp.body);
    assert_eq!(doc["deduplicated"].as_bool(), Some(true));
    assert_eq!(doc["id"].as_str(), Some(id.as_str()));

    // Unknown job id: typed 404.
    let resp = client_request(&addr, "GET", "/jobs/ffffffffffffffff", None).expect("status");
    assert_eq!(resp.status, 404);
    assert_eq!(parse_body(&resp.body)["error"]["kind"].as_str(), Some("not_found"));

    // Malformed config: typed 400.
    let resp = client_request(&addr, "POST", "/jobs", Some("{\"config\":{\"nope\":1}}"))
        .expect("malformed");
    assert_eq!(resp.status, 400);
    assert_eq!(parse_body(&resp.body)["error"]["kind"].as_str(), Some("bad_request"));

    // Result of a queued job: 202 (not ready), with its status document.
    let resp = client_request(&addr, "GET", &format!("/jobs/{id}/result"), None).expect("result");
    assert_eq!(resp.status, 202);
    assert_eq!(parse_body(&resp.body)["status"].as_str(), Some("queued"));

    // Wrong method: 405.
    let resp = client_request(&addr, "GET", "/jobs", None).expect("wrong method");
    assert_eq!(resp.status, 405);

    // Backpressure is visible in /metrics.
    let metrics = client_request(&addr, "GET", "/metrics", None).expect("metrics").body;
    assert_eq!(
        cold_serve::metrics::parse_counter(&metrics, "cold_serve_queue_rejections"),
        Some(1)
    );
    assert_eq!(
        cold_serve::metrics::parse_counter(&metrics, "cold_serve_cache_hits_inflight"),
        Some(1)
    );

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Submits `body` and returns its id once the job is done.
fn submit_and_wait(addr: &str, body: &str) -> String {
    let resp = client_request(addr, "POST", "/jobs", Some(body)).expect("submit");
    assert_eq!(resp.status, 202, "{}", resp.body);
    let id = parse_body(&resp.body)["id"].as_str().expect("id").to_string();
    let done = poll_until(addr, &id, &["done"], Duration::from_secs(180));
    assert_eq!(done["status"].as_str(), Some("done"));
    id
}

/// One job of each mode, on a fresh server: the evolve job's parent is
/// completed before `serve.worker_panic:1` is armed (when `faulted`), so
/// the fault hits the job under test. Returns the job's result document.
fn panic_retry_run(mode: &str, faulted: bool) -> String {
    let dir = temp_dir(&format!("chaos-retry-{mode}-{faulted}"));
    let journal = dir.join("serve.jsonl");
    fresh_globals(Some(&journal));
    let (handle, addr) =
        start(ServerConfig { workers: 1, cache_dir: dir.join("cache"), ..ServerConfig::default() });

    let config = ColdConfig::quick(8, 4e-4, 10.0).to_json_value();
    let body = match mode {
        "standard" => job_body(8, 21, 1),
        "pareto" => {
            serde_json::json!({ "config": config, "seed": 13, "mode": "pareto" }).to_string()
        }
        _ => {
            let parent = submit_and_wait(&addr, &job_body(8, 21, 1));
            serde_json::json!({
                "config": config,
                "seed": 22,
                "mode": "evolve",
                "parent": parent,
                "change_costs": {"add_cost": 1.0, "remove_cost": 1.0, "length_weight": 0.0},
            })
            .to_string()
        }
    };
    if faulted {
        // One-shot: the first job attempt panics, the retry runs clean.
        cold_fault::configure("serve.worker_panic:1", 7).expect("arm fault");
    }
    let id = submit_and_wait(&addr, &body);
    let result = client_request(&addr, "GET", &format!("/jobs/{id}/result"), None).expect("result");
    assert_eq!(result.status, 200, "{mode}");

    // The server stayed responsive and counted the contained panic.
    let resp = client_request(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(resp.status, 200);
    let metrics = client_request(&addr, "GET", "/metrics", None).expect("metrics").body;
    let panics = cold_serve::metrics::parse_counter(&metrics, "cold_serve_worker_panics");
    assert_eq!(panics.unwrap_or(0), u64::from(faulted), "{mode}");

    handle.shutdown();
    handle.join();
    cold_fault::clear();

    // Journal: the fault fired, the job still completed, and the retry's
    // job_started is visible (two starts for one job).
    let events = read_journal(&journal);
    let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
    assert_eq!(kinds.contains(&"fault_injected"), faulted, "{mode}");
    assert!(kinds.contains(&"job_done"), "{mode}");
    let starts =
        events.iter().filter(|e| matches!(e, cold_obs::Event::JobStarted(s) if s.id == id)).count();
    assert_eq!(starts, if faulted { 2 } else { 1 }, "{mode}: job_started events");
    std::fs::remove_dir_all(&dir).ok();
    result.body
}

/// A result document without the standard report's run-specific lines:
/// evaluation wall time and the journal path.
fn deterministic_doc(body: &str) -> String {
    let doc = parse_body(body);
    let Some(report) = doc["report"].as_str() else { return body.to_string() };
    let kept: Vec<&str> = report
        .lines()
        .filter(|l| !l.contains("wall-clock") && !l.contains(" s |") && !l.contains("traces:"))
        .collect();
    let mut map = doc.as_object().expect("result doc is an object").clone();
    map.insert("report".into(), Value::String(kept.join("\n")));
    serde_json::to_string(&Value::Object(map)).expect("doc serializes")
}

#[test]
fn worker_panic_is_contained_and_the_job_retries() {
    let _guard = global_lock();
    for mode in ["standard", "pareto", "evolve"] {
        let [faulted, clean] = [true, false].map(|f| deterministic_doc(&panic_retry_run(mode, f)));
        assert_eq!(faulted, clean, "{mode}: the retried job's result document moved");
    }
}

#[test]
fn repeated_worker_panics_fail_the_job_but_not_the_server() {
    let _guard = global_lock();
    let dir = temp_dir("chaos-fail");
    fresh_globals(None);
    // Every hit panics: both attempts die, the job fails terminally.
    cold_fault::configure("serve.worker_panic:p=1.0", 7).expect("arm fault");

    let (handle, addr) =
        start(ServerConfig { workers: 1, cache_dir: dir.join("cache"), ..ServerConfig::default() });

    let resp = client_request(&addr, "POST", "/jobs", Some(&job_body(8, 31, 1))).expect("submit");
    assert_eq!(resp.status, 202);
    let id = parse_body(&resp.body)["id"].as_str().expect("id").to_string();
    let failed = poll_until(&addr, &id, &["failed"], Duration::from_secs(120));
    assert!(failed["error"].as_str().expect("error").contains("panicked twice"));

    // Disarm and prove the server (and the same worker) still serves.
    cold_fault::clear();
    let resp = client_request(&addr, "POST", "/jobs", Some(&job_body(8, 32, 1))).expect("submit");
    assert_eq!(resp.status, 202);
    let id2 = parse_body(&resp.body)["id"].as_str().expect("id").to_string();
    poll_until(&addr, &id2, &["done"], Duration::from_secs(120));

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_checkpoints_and_a_restarted_server_resumes() {
    let _guard = global_lock();
    let dir = temp_dir("drain");
    let cache_dir = dir.join("cache");
    let journal_a = dir.join("serve-a.jsonl");
    let journal_b = dir.join("serve-b.jsonl");
    fresh_globals(Some(&journal_a));

    let (handle, addr) =
        start(ServerConfig { workers: 1, cache_dir: cache_dir.clone(), ..ServerConfig::default() });

    // Enough trials that a drain triggered after the first completes is
    // guaranteed to land between trials, leaving work to resume.
    let body = job_body(8, 41, 12);
    let resp = client_request(&addr, "POST", "/jobs", Some(&body)).expect("submit");
    assert_eq!(resp.status, 202);
    let id = parse_body(&resp.body)["id"].as_str().expect("id").to_string();

    // Wait for the first checkpointed trial, then drain via the admin
    // route (the same flag SIGTERM sets).
    let started = Instant::now();
    loop {
        let resp = client_request(&addr, "GET", &format!("/jobs/{id}"), None).expect("poll");
        let doc = parse_body(&resp.body);
        if doc["trials_done"].as_u64().unwrap_or(0) >= 1 {
            break;
        }
        assert!(started.elapsed() < Duration::from_secs(120), "first trial never completed");
        std::thread::sleep(Duration::from_millis(2));
    }
    let resp = client_request(&addr, "POST", "/admin/shutdown", None).expect("shutdown");
    assert_eq!(resp.status, 200);
    handle.join();

    // The job is unfinished on disk: no result, but a checkpoint.
    let cache = cold_serve::ResultCache::open(&cache_dir).expect("cache");
    assert!(cache.lookup(&id).is_none(), "drained job must not have a result yet");
    assert!(cache.checkpoint_path(&id).exists(), "drain must leave a checkpoint");

    // Restart on the same cache dir: the job is re-enqueued and resumed.
    fresh_globals(Some(&journal_b));
    let (handle, addr) =
        start(ServerConfig { workers: 1, cache_dir: cache_dir.clone(), ..ServerConfig::default() });
    let done = poll_until(&addr, &id, &["done"], Duration::from_secs(240));
    assert_eq!(done["trials_done"].as_u64(), Some(12));
    let resp = client_request(&addr, "GET", &format!("/jobs/{id}/result"), None).expect("result");
    assert_eq!(resp.status, 200);
    assert_eq!(parse_body(&resp.body)["topologies"].as_array().expect("topologies").len(), 12);

    handle.shutdown();
    handle.join();

    // The restart's journal proves it resumed rather than started over.
    let resumed = read_journal(&journal_b)
        .iter()
        .find_map(|e| match e {
            cold_obs::Event::JobStarted(s) if s.id == id => Some(s.resumed),
            _ => None,
        })
        .expect("restarted server emitted job_started");
    assert!(resumed >= 1, "resume must pick up checkpointed trials, got {resumed}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_served_job_event_carries_a_resolvable_trace() {
    let _guard = global_lock();
    let dir = temp_dir("trace");
    let journal = dir.join("serve.jsonl");
    fresh_globals(Some(&journal));

    let (handle, addr) =
        start(ServerConfig { workers: 1, cache_dir: dir.join("cache"), ..ServerConfig::default() });

    let body = job_body(8, 51, 2);
    let resp = client_request(&addr, "POST", "/jobs", Some(&body)).expect("submit");
    assert_eq!(resp.status, 202, "{}", resp.body);
    let id = parse_body(&resp.body)["id"].as_str().expect("id").to_string();
    poll_until(&addr, &id, &["done"], Duration::from_secs(120));

    // A cache hit rides on a connection thread with no worker scope —
    // it must still land in the job's trace.
    let resp = client_request(&addr, "POST", "/jobs", Some(&body)).expect("resubmit");
    assert_eq!(resp.status, 200);

    handle.shutdown();
    handle.join();

    // Every event in a served-job journal is trace-stamped, the trace id
    // IS the content-addressed job id, and every parent resolves.
    let text = std::fs::read_to_string(&journal).expect("journal written");
    let traced = cold_obs::parse_journal_traced(&text).expect("journal parses");
    let problems = cold_obs::trace::validate_trace(&traced, true);
    assert!(problems.is_empty(), "trace validation failed: {problems:?}");
    for (event, fields) in &traced {
        let fields = fields.as_ref().expect("validated above");
        assert_eq!(fields.trace_id, id, "{} escaped the job trace", event.kind());
    }

    // The causal chain nests: generation records hang off a parent span
    // (the trial), and the trace has its `serve.job` root anchor.
    let has_root_anchor = traced
        .iter()
        .any(|(e, _)| matches!(e, cold_obs::Event::SpanStart(s) if s.name == "serve.job"));
    assert!(has_root_anchor, "missing serve.job span_start anchor");
    let generations_with_parents = traced
        .iter()
        .filter(|(e, _)| e.kind() == "generation")
        .filter(|(_, f)| f.as_ref().is_some_and(|f| f.parent_id.is_some()))
        .count();
    assert!(generations_with_parents > 0, "generation events must be parent-linked");

    // journal-check itself accepts it under --require-trace (the CI
    // smoke's contract), via the library the binary wraps.
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn event_stream_delivers_generations_live_and_ends_cleanly() {
    let _guard = global_lock();
    let dir = temp_dir("sse");
    fresh_globals(None);

    let (handle, addr) =
        start(ServerConfig { workers: 1, cache_dir: dir.join("cache"), ..ServerConfig::default() });

    // Enough trials that the stream attaches while the job is running.
    let resp = client_request(&addr, "POST", "/jobs", Some(&job_body(8, 61, 6))).expect("submit");
    assert_eq!(resp.status, 202, "{}", resp.body);
    let id = parse_body(&resp.body)["id"].as_str().expect("id").to_string();

    // The blocking client reads the stream to EOF — exactly the clean
    // close the server promises after a terminal status.
    let stream_addr = addr.clone();
    let stream_id = id.clone();
    let reader = std::thread::spawn(move || {
        client_request(&stream_addr, "GET", &format!("/jobs/{stream_id}/events"), None)
            .expect("stream reads to clean EOF")
    });

    poll_until(&addr, &id, &["done"], Duration::from_secs(240));
    let resp = reader.join().expect("stream thread");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("text/event-stream"));

    // Frames: `data: {json}` separated by blank lines; `:` lines are
    // keep-alive comments.
    let frames: Vec<Value> =
        resp.body.lines().filter_map(|l| l.strip_prefix("data: ")).map(parse_body).collect();
    assert!(frames.len() >= 2, "expected snapshot + terminal frames, got {:?}", resp.body);

    // Subscribe-before-snapshot: the first frame is a live (non-terminal)
    // status document, the last is the terminal one.
    let first = &frames[0];
    assert!(
        matches!(first["status"].as_str(), Some("queued" | "running")),
        "stream must attach mid-job, first frame: {first}"
    );
    let last = &frames[frames.len() - 1];
    assert_eq!(last["status"].as_str(), Some("done"), "terminal frame: {last}");
    assert_eq!(last["id"].as_str(), Some(id.as_str()));

    // Generation records streamed live, shaped like journal events.
    let generations: Vec<&Value> =
        frames.iter().filter(|f| f["event"].as_str() == Some("generation")).collect();
    assert!(!generations.is_empty(), "no generation frames in {:?}", resp.body);
    assert!(generations[0]["gen"].as_u64().is_some());
    assert!(generations[0]["best"].as_f64().is_some());

    // A stream opened on an unknown id is a typed 404, not a hang.
    let resp =
        client_request(&addr, "GET", "/jobs/ffffffffffffffff/events", None).expect("404 stream");
    assert_eq!(resp.status, 404);

    // A stream opened after completion is a one-frame terminal stream.
    let resp =
        client_request(&addr, "GET", &format!("/jobs/{id}/events"), None).expect("done stream");
    assert_eq!(resp.status, 200);
    let done_frames: Vec<&str> =
        resp.body.lines().filter_map(|l| l.strip_prefix("data: ")).collect();
    assert_eq!(done_frames.len(), 1, "{:?}", resp.body);
    assert_eq!(parse_body(done_frames[0])["status"].as_str(), Some("done"));

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binaries_smoke_loadgen_and_sigterm_drain() {
    let _guard = global_lock();
    let dir = temp_dir("bins");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("serve.jsonl");

    let mut serve = std::process::Command::new(env!("CARGO_BIN_EXE_cold-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--cache-dir",
            dir.join("cache").to_str().expect("utf-8 path"),
            "--journal",
            journal.to_str().expect("utf-8 path"),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("cold-serve spawns");

    // Scrape the ephemeral address from the startup line.
    let addr = {
        use std::io::{BufRead, BufReader};
        let stdout = serve.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("startup line");
        line.trim()
            .strip_prefix("cold-serve listening on http://")
            .unwrap_or_else(|| panic!("unexpected startup line: {line}"))
            .to_string()
    };

    // Drive it with the loadgen binary: 6 submissions over 2 distinct
    // seeds exercise cold, deduplicated, and cached paths.
    let loadgen = std::process::Command::new(env!("CARGO_BIN_EXE_cold-loadgen"))
        .args(["--addr", &addr, "--clients", "2", "--jobs", "6", "--distinct", "2"])
        .output()
        .expect("cold-loadgen runs");
    let report = String::from_utf8_lossy(&loadgen.stdout);
    assert!(loadgen.status.success(), "loadgen failed: {report}");
    assert!(report.contains("cold-loadgen: 6 submissions"), "unexpected report: {report}");

    // The service did real work and the cache was hit.
    let metrics = client_request(&addr, "GET", "/metrics", None).expect("metrics").body;
    let counter = |name: &str| cold_serve::metrics::parse_counter(&metrics, name).unwrap_or(0);
    assert_eq!(counter("cold_serve_jobs_completed"), 2, "{metrics}");
    assert_eq!(
        counter("cold_serve_cache_hits_result") + counter("cold_serve_cache_hits_inflight"),
        4,
        "{metrics}"
    );

    // A second, fully-cached pass with --json: the report is one JSON
    // object with the same counters and percentiles as the text form.
    let loadgen = std::process::Command::new(env!("CARGO_BIN_EXE_cold-loadgen"))
        .args(["--addr", &addr, "--clients", "1", "--jobs", "2", "--distinct", "2", "--json"])
        .output()
        .expect("cold-loadgen --json runs");
    assert!(loadgen.status.success());
    let doc = parse_body(String::from_utf8_lossy(&loadgen.stdout).trim());
    assert_eq!(doc["tool"].as_str(), Some("cold-loadgen"));
    assert_eq!(doc["submissions"].as_u64(), Some(2));
    assert_eq!(doc["paths"]["cached"].as_u64(), Some(2), "{doc}");
    assert_eq!(doc["paths"]["failed"].as_u64(), Some(0));
    assert!(doc["submit_latency"]["p50_seconds"].as_f64().is_some(), "{doc}");
    assert!(doc["jobs_per_second"].as_f64().unwrap_or(0.0) > 0.0);

    // SIGTERM: the server drains and exits 0.
    let pid = serve.id().to_string();
    let killed =
        std::process::Command::new("kill").args(["-TERM", &pid]).status().expect("kill runs");
    assert!(killed.success());
    let status = serve.wait().expect("serve exits");
    assert!(status.success(), "cold-serve exited {status:?}");

    // Its journal validates and contains the serve event kinds.
    let text = std::fs::read_to_string(&journal).expect("journal written");
    let events = cold_obs::parse_journal(&text).expect("journal validates");
    let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
    assert!(kinds.contains(&"job_submitted"));
    assert!(kinds.contains(&"job_done"));
    assert!(kinds.contains(&"cache_hit"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evolve_job_warm_starts_from_its_parent_over_tcp() {
    let _guard = global_lock();
    let dir = temp_dir("evolve");
    let journal = dir.join("serve.jsonl");
    fresh_globals(Some(&journal));

    let (handle, addr) =
        start(ServerConfig { workers: 1, cache_dir: dir.join("cache"), ..ServerConfig::default() });

    // Parent: an ordinary synthesis whose cached topology becomes the seed.
    let parent_body = job_body(8, 21, 1);
    let resp = client_request(&addr, "POST", "/jobs", Some(&parent_body)).expect("submit parent");
    assert_eq!(resp.status, 202, "{}", resp.body);
    let parent_id = parse_body(&resp.body)["id"].as_str().expect("id").to_string();
    poll_until(&addr, &parent_id, &["done"], Duration::from_secs(120));

    // Child: an evolve job chained on the parent, pricing rewiring.
    let config = ColdConfig::quick(8, 4e-4, 10.0);
    let body = serde_json::to_string(&serde_json::json!({
        "config": config.to_json_value(),
        "seed": 22,
        "count": 1,
        "mode": "evolve",
        "parent": parent_id,
        "change_costs": {"add_cost": 1.0, "remove_cost": 1.0, "length_weight": 0.0},
    }))
    .expect("body serializes");
    let resp = client_request(&addr, "POST", "/jobs", Some(&body)).expect("submit child");
    assert_eq!(resp.status, 202, "{}", resp.body);
    let id = parse_body(&resp.body)["id"].as_str().expect("id").to_string();
    assert_ne!(id, parent_id, "child identity must chain, not collide");

    poll_until(&addr, &id, &["done"], Duration::from_secs(120));
    let resp = client_request(&addr, "GET", &format!("/jobs/{id}/result"), None).expect("result");
    assert_eq!(resp.status, 200);
    let doc = parse_body(&resp.body);
    assert_eq!(doc["mode"].as_str(), Some("evolve"));
    assert_eq!(doc["parent"].as_str(), Some(parent_id.as_str()));
    assert_eq!(doc["warm"].as_bool(), Some(true), "parent was cached: {doc:?}");
    assert!(doc["generations"].as_u64().unwrap_or(0) > 0);
    assert!(doc["change_penalty"].as_f64().expect("penalty") >= 0.0);
    assert_eq!(doc["topologies"].as_array().map(Vec::len), Some(1));

    // Resubmitting the identical child is a result-cache hit.
    let resp = client_request(&addr, "POST", "/jobs", Some(&body)).expect("resubmit");
    assert_eq!(resp.status, 200);
    assert_eq!(parse_body(&resp.body)["cached"].as_bool(), Some(true));

    // The warm start moved the metric.
    let metrics = client_request(&addr, "GET", "/metrics", None).expect("metrics").body;
    assert_eq!(cold_serve::metrics::parse_counter(&metrics, "cold_serve_warm_starts"), Some(1));

    handle.shutdown();
    handle.join();

    // The journal chains the warm start back to the parent.
    let events = read_journal(&journal);
    let warm: Vec<&cold_obs::WarmStart> = events
        .iter()
        .filter_map(|e| match e {
            cold_obs::Event::WarmStart(w) => Some(w),
            _ => None,
        })
        .collect();
    assert_eq!(warm.len(), 1, "exactly one warm start journaled");
    assert_eq!(warm[0].id, id);
    assert_eq!(warm[0].parent, parent_id);
    assert!(warm[0].seeds > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pareto_job_serves_a_whole_front() {
    let _guard = global_lock();
    let dir = temp_dir("pareto");
    let journal = dir.join("serve.jsonl");
    fresh_globals(Some(&journal));

    let (handle, addr) =
        start(ServerConfig { workers: 1, cache_dir: dir.join("cache"), ..ServerConfig::default() });

    let config = ColdConfig::quick(8, 4e-4, 10.0);
    let body = serde_json::to_string(&serde_json::json!({
        "config": config.to_json_value(),
        "seed": 13,
        "mode": "pareto",
    }))
    .expect("body serializes");
    let resp = client_request(&addr, "POST", "/jobs", Some(&body)).expect("submit");
    assert_eq!(resp.status, 202, "{}", resp.body);
    let id = parse_body(&resp.body)["id"].as_str().expect("id").to_string();

    // The same config without the mode key is a *different* job.
    let standard_body = job_body(8, 13, 1);
    let resp = client_request(&addr, "POST", "/jobs", Some(&standard_body)).expect("submit std");
    let std_id = parse_body(&resp.body)["id"].as_str().expect("id").to_string();
    assert_ne!(id, std_id, "pareto and standard jobs must not share an id");

    poll_until(&addr, &id, &["done"], Duration::from_secs(180));
    let resp = client_request(&addr, "GET", &format!("/jobs/{id}/result"), None).expect("result");
    assert_eq!(resp.status, 200);
    let doc = parse_body(&resp.body);
    assert_eq!(doc["mode"].as_str(), Some("pareto"));
    let result = &doc["result"];
    let front = result["front"].as_array().expect("front array");
    assert!(front.len() >= 2, "front of {} networks", front.len());
    for member in front {
        assert_eq!(member["objectives"].as_array().map(|o| o.len()), Some(3));
        assert!(member["network"]["links"].as_array().is_some());
    }
    // Hypervolume history is present and monotone non-decreasing.
    let history: Vec<f64> = result["hypervolume_history"]
        .as_array()
        .expect("history")
        .iter()
        .map(|v| v.as_f64().expect("finite"))
        .collect();
    assert!(!history.is_empty());
    for w in history.windows(2) {
        assert!(w[1] >= w[0] - 1e-12, "hypervolume regressed: {w:?}");
    }

    // Resubmission is a result-cache hit.
    let resp = client_request(&addr, "POST", "/jobs", Some(&body)).expect("resubmit");
    assert_eq!(resp.status, 200);
    assert_eq!(parse_body(&resp.body)["cached"].as_bool(), Some(true));

    handle.shutdown();
    handle.join();
    // The journal's generation events carry the archive hypervolume.
    let events = read_journal(&journal);
    let hvs: Vec<f64> = events
        .iter()
        .filter_map(|e| match e {
            cold_obs::Event::Generation(g) => Some(g.record.hypervolume),
            _ => None,
        })
        .collect();
    assert!(!hvs.is_empty(), "pareto run journaled no generations");
    assert!(hvs.iter().any(|&h| h > 0.0), "hypervolume never left zero: {hvs:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn idle_server_drains_promptly_through_shutdown_and_the_admin_route() {
    let _guard = global_lock();
    let dir = temp_dir("prompt-drain");
    fresh_globals(None);

    let (handle, _) =
        start(ServerConfig { workers: 1, cache_dir: dir.join("a"), ..ServerConfig::default() });
    handle.shutdown();
    joins_promptly("shutdown()", move || handle.join());

    // Bound to every interface: the drain's wake-up goes through loopback.
    let (handle, _) = start(ServerConfig {
        addr: "0.0.0.0:0".into(),
        workers: 1,
        cache_dir: dir.join("b"),
        ..ServerConfig::default()
    });
    let addr = format!("127.0.0.1:{}", handle.local_addr().port());
    let resp = client_request(&addr, "POST", "/admin/shutdown", None).expect("shutdown");
    assert_eq!(resp.status, 200);
    joins_promptly("POST /admin/shutdown", move || handle.join());
    std::fs::remove_dir_all(&dir).ok();
}

/// Each request is one connection; none may wait on the acceptor. A
/// polling acceptor with a 10 ms interval needs about 400 ms here.
#[test]
fn sequential_requests_do_not_wait_on_the_acceptor() {
    let _guard = global_lock();
    let dir = temp_dir("healthz-latency");
    fresh_globals(None);
    let (handle, addr) =
        start(ServerConfig { workers: 1, cache_dir: dir.join("cache"), ..ServerConfig::default() });

    let started = Instant::now();
    for _ in 0..40 {
        let resp = client_request(&addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let took = started.elapsed();
    handle.shutdown();
    handle.join();
    assert!(took < Duration::from_millis(200), "40 sequential GET /healthz took {took:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A coordinator with no workers, whose fallback grace is already over:
/// every trial runs inline on the coordinator.
fn lone_coordinator() -> Option<DistConfig> {
    Some(DistConfig { local_fallback_grace: Duration::ZERO, ..DistConfig::default() })
}

/// Starts an in-process remote worker on `handle`'s pool and waits until
/// the coordinator has registered it. Set the flag to stop it.
fn start_worker(
    handle: &ServerHandle,
    addr: &str,
) -> (Arc<AtomicBool>, std::thread::JoinHandle<std::io::Result<()>>) {
    let cfg = WorkerConfig {
        coordinator: handle.dist_addr().expect("dist listener").to_string(),
        name: "e2e-worker".into(),
        heartbeat_ms: 100,
    };
    let stop = Arc::new(AtomicBool::new(false));
    let thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || run_worker(&cfg, &stop))
    };
    let started = Instant::now();
    while parse_body(&client_request(addr, "GET", "/healthz", None).expect("healthz").body)
        ["dist_workers"]
        .as_u64()
        != Some(1)
    {
        assert!(started.elapsed() < Duration::from_secs(30), "the worker never registered");
        std::thread::sleep(Duration::from_millis(10));
    }
    (stop, thread)
}

#[test]
fn trial_deadline_applies_with_and_without_a_pool() {
    let _guard = global_lock();
    let mut topologies = Vec::new();
    for (tag, dist) in [
        ("standalone", None),
        ("coordinator", lone_coordinator()),
        ("worker", Some(DistConfig::default())),
    ] {
        let dir = temp_dir(&format!("deadline-{tag}"));
        let journal = dir.join("serve.jsonl");
        fresh_globals(Some(&journal));
        // One-shot: the first trial attempt hangs past the deadline, the
        // next attempt runs clean.
        cold_fault::configure("trial.hang:1", 7).expect("arm fault");
        let (handle, addr) = start(ServerConfig {
            workers: 1,
            cache_dir: dir.join("cache"),
            trial_deadline: Some(Duration::from_millis(300)),
            dist,
            ..ServerConfig::default()
        });
        // A remote worker, registered before the job is submitted, runs
        // every trial.
        let worker = (tag == "worker").then(|| start_worker(&handle, &addr));
        let started = Instant::now();
        let id = submit_and_wait(&addr, &job_body(8, 31, 1));
        let took = started.elapsed();
        let result =
            client_request(&addr, "GET", &format!("/jobs/{id}/result"), None).expect("result");
        topologies.push(parse_body(&result.body)["topologies"].clone());
        if tag == "worker" {
            // The abandoned attempt's GA runs on once its hang ends; it
            // must upload nothing more for the lease it lost.
            let uploads = || {
                let metrics = client_request(&addr, "GET", "/metrics", None).expect("metrics");
                cold_serve::metrics::parse_counter(&metrics.body, "cold_dist_checkpoint_uploads")
                    .unwrap_or(0)
            };
            let before = uploads();
            cold::join_abandoned_watchdog_threads(); // waits out the hang and the GA
            assert_eq!(uploads(), before, "the abandoned attempt uploaded snapshots");
        }
        if let Some((stop, thread)) = worker {
            stop.store(true, Ordering::SeqCst);
            thread.join().expect("worker thread").expect("worker leaves cleanly");
        }
        handle.shutdown();
        handle.join();
        cold::join_abandoned_watchdog_threads();
        cold_fault::clear();

        let events = read_journal(&journal);
        assert!(
            events.iter().any(|e| matches!(e, cold_obs::Event::TrialDeadlineExceeded(_))),
            "{tag}: the hanging attempt was not cut off by the deadline"
        );
        assert!(
            events.iter().any(|e| matches!(e, cold_obs::Event::JobDone(d) if d.id == id)),
            "{tag}: job_done missing"
        );
        if tag == "worker" {
            // The worker reported the overrun, so the trial was leased
            // again at once rather than after the lease deadline.
            assert!(took < Duration::from_secs(2), "the job waited {took:?} on the 2 s hang");
            let leases = events
                .iter()
                .filter(
                    |e| matches!(e, cold_obs::Event::TrialLeased(l) if l.id == id && l.trial == 0),
                )
                .count();
            assert!(leases >= 2, "trial 0 was leased {leases} time(s)");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    // The pool re-leases a failed trial on its own seed (the lease
    // budget), whether it ran inline or on a worker.
    assert_eq!(topologies[2], topologies[1], "the remote retry changed the result");
}

#[test]
fn inline_fallback_serves_the_standalone_document() {
    let _guard = global_lock();
    let body = job_body(8, 29, 2);
    let mut docs = Vec::new();
    for (tag, dist) in [("standalone", None), ("coordinator", lone_coordinator())] {
        let dir = temp_dir(&format!("inline-{tag}"));
        let journal = dir.join("serve.jsonl");
        fresh_globals(Some(&journal));
        // Trial 1 sleeps before its GA starts (no deadline is set, so the
        // result is unchanged): the job cannot finish before the event
        // stream below attaches.
        cold_fault::configure("trial.hang:2", 7).expect("arm fault");
        let coordinator = dist.is_some();
        let (handle, addr) = start(ServerConfig {
            workers: 1,
            cache_dir: dir.join("cache"),
            dist,
            ..ServerConfig::default()
        });
        let resp = client_request(&addr, "POST", "/jobs", Some(&body)).expect("submit");
        assert_eq!(resp.status, 202, "{}", resp.body);
        let id = parse_body(&resp.body)["id"].as_str().expect("id").to_string();
        // The live progress sink streams each generation record.
        let reader = {
            let (addr, id) = (addr.clone(), id.clone());
            std::thread::spawn(move || {
                client_request(&addr, "GET", &format!("/jobs/{id}/events"), None)
                    .expect("stream reads to clean EOF")
            })
        };
        poll_until(&addr, &id, &["done"], Duration::from_secs(180));
        let stream = reader.join().expect("stream thread").body;
        let last_generation = stream
            .lines()
            .filter_map(|l| l.strip_prefix("data: "))
            .map(parse_body)
            .filter(|f| f["event"].as_str() == Some("generation"))
            .filter_map(|f| f["gen"].as_u64())
            .max();
        assert!(last_generation > Some(0), "{tag}: live progress never moved: {stream}");
        let result =
            client_request(&addr, "GET", &format!("/jobs/{id}/result"), None).expect("result");
        assert_eq!(result.status, 200, "{tag}");
        docs.push(deterministic_doc(&result.body));
        handle.shutdown();
        handle.join();
        cold_fault::clear();

        if coordinator {
            let inline = read_journal(&journal)
                .into_iter()
                .any(|e| matches!(e, cold_obs::Event::TrialLeased(l) if l.worker == "coordinator"));
            assert!(inline, "no trial was leased to the coordinator itself");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(docs[0], docs[1], "inline trials changed the result document");
}
