//! Distributed-mode end-to-end tests: a real coordinator process, real
//! worker processes, real TCP — and a SIGKILL-grade worker crash in the
//! middle of a campaign.
//!
//! The chaos proof at the heart of this file: an ensemble sharded over
//! two workers, one of which `abort()`s once the coordinator has
//! acknowledged its first GA snapshot hand-off (or a newer snapshot),
//! must still produce *exactly* the topologies an undisturbed
//! single-process run produces — and the journal must show the killed
//! trial migrating with `resumed_generation >= 1` (resumed from the
//! snapshot, not restarted from generation 0). A second case aborts
//! once its third hand-off is acknowledged, so the migrated snapshot is
//! one the coordinator assembled from a full upload and deltas.

use cold::context::rng::derive_seed;
use cold::ColdConfig;
use cold_serve::dist::proto::{self, Msg};
use cold_serve::http::client_request;
use cold_serve::{DistConfig, DistPool, Server, ServerConfig};
use serde::Serialize as _;
use serde_json::Value;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cold-serve-dist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn parse_body(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON body ({e}): {body}"))
}

/// Spawns a coordinator on ephemeral HTTP + dist ports and scrapes both
/// addresses from its startup lines.
fn spawn_coordinator(dir: &Path, extra: &[&str]) -> (Child, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cold-serve"));
    cmd.args([
        "--role",
        "coordinator",
        "--addr",
        "127.0.0.1:0",
        "--dist-addr",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--cache-dir",
        dir.join("cache").to_str().expect("utf-8 path"),
        "--journal",
        dir.join("coordinator.jsonl").to_str().expect("utf-8 path"),
    ])
    .args(extra)
    .stdout(Stdio::piped());
    let mut child = cmd.spawn().expect("coordinator spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let mut scrape = |prefix: &str| -> String {
        let line = lines.next().expect("startup line").expect("readable line");
        line.trim()
            .strip_prefix(prefix)
            .unwrap_or_else(|| panic!("unexpected startup line: {line}"))
            .to_string()
    };
    let http_addr = scrape("cold-serve listening on http://");
    let dist_addr = scrape("cold-serve dist listening on ");
    (child, http_addr, dist_addr)
}

fn spawn_worker(dir: &Path, dist_addr: &str, name: &str, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_cold-serve"))
        .args([
            "--role",
            "worker",
            "--coordinator",
            dist_addr,
            "--worker-name",
            name,
            "--heartbeat-ms",
            "100",
            "--journal",
            dir.join(format!("{name}.jsonl")).to_str().expect("utf-8 path"),
        ])
        .args(extra)
        .spawn()
        .expect("worker spawns")
}

/// Polls `/healthz` until `dist_workers` reaches `want`.
fn wait_for_workers(addr: &str, want: u64, deadline: Duration) {
    let started = Instant::now();
    loop {
        if let Ok(resp) = client_request(addr, "GET", "/healthz", None) {
            let doc = parse_body(&resp.body);
            if doc["dist_workers"].as_u64() == Some(want) {
                return;
            }
        }
        assert!(
            started.elapsed() < deadline,
            "coordinator never saw {want} workers within {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

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
        std::thread::sleep(Duration::from_millis(25));
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

fn term_and_reap(mut child: Child, what: &str) {
    let pid = child.id().to_string();
    let killed = Command::new("kill").args(["-TERM", &pid]).status().expect("kill runs");
    assert!(killed.success());
    let status = child.wait().expect("child exits");
    assert!(status.success(), "{what} exited {status:?}");
}

/// The chaos matrix entry: kill one of two workers mid-trial and
/// require the distributed result to match an undisturbed
/// single-process run file-for-file. The worker dies after its first
/// upload, then, in a second case, after its third.
#[test]
fn killed_worker_migrates_checkpoint_and_result_matches_local_run() {
    killed_worker_case("chaos", "dist.worker_crash:2", 1);
    killed_worker_case("chaos-delta", "dist.worker_crash:4", 3);
}

/// Runs the chaos case with the crashing worker armed with `fault`; the
/// killed trial must resume from generation `min_resumed` or later.
fn killed_worker_case(tag: &str, fault: &str, min_resumed: usize) {
    let dir = temp_dir(tag);
    let (master_seed, count, n) = (77u64, 3usize, 8usize);

    // Snapshot cadence 1 ensures the crashing worker uploads a
    // generation-1 or later checkpoint before its injected abort (the
    // fault site is hit once at lease start, then once per snapshot
    // hand-off; the abort waits for that snapshot's acknowledgement).
    let (coordinator, http_addr, dist_addr) =
        spawn_coordinator(&dir, &["--dist-ckpt-every", "1", "--lease-deadline", "30"]);
    let crashy = spawn_worker(&dir, &dist_addr, "crashy", &["--faults", fault]);
    let steady = spawn_worker(&dir, &dist_addr, "steady", &[]);
    wait_for_workers(&http_addr, 2, Duration::from_secs(15));

    let config = ColdConfig::quick(n, 4e-4, 10.0);
    let body = serde_json::to_string(&serde_json::json!({
        "config": config.to_json_value(),
        "seed": master_seed,
        "count": count,
    }))
    .expect("body serializes");
    let resp = client_request(&http_addr, "POST", "/jobs", Some(&body)).expect("submit");
    assert_eq!(resp.status, 202, "{}", resp.body);
    let id = parse_body(&resp.body)["id"].as_str().expect("job id").to_string();

    let doc = poll_until(&http_addr, &id, &["done", "failed"], Duration::from_secs(120));
    assert_eq!(doc["status"].as_str(), Some("done"), "job failed: {doc}");

    // The distributed ensemble is file-for-file what a single
    // undisturbed process computes.
    let result =
        client_request(&http_addr, "GET", &format!("/jobs/{id}/result"), None).expect("result");
    assert_eq!(result.status, 200, "{}", result.body);
    let got = parse_body(&result.body);
    let expected: Vec<Value> = (0..count)
        .map(|i| {
            let r = config.synthesize(derive_seed(master_seed, i as u64));
            parse_body(&cold::export::to_json(&r.network, &r.context))
        })
        .collect();
    assert_eq!(
        got["topologies"],
        Value::Array(expected),
        "distributed topologies diverge from the undisturbed local run"
    );

    // The crashed worker died by abort, not cleanly.
    let mut crashy = crashy;
    let crashy_status = crashy.wait().expect("crashy exits");
    assert!(!crashy_status.success(), "crashy was supposed to abort");

    // Clean drain: the steady worker and the coordinator both exit 0.
    term_and_reap(coordinator, "coordinator");
    term_and_reap(steady, "steady worker");

    // Journal forensics: the kill is visible, the migration resumed
    // from a real snapshot, and nothing was lost.
    let text = std::fs::read_to_string(dir.join("coordinator.jsonl")).expect("coordinator journal");
    let events = cold_obs::parse_journal(&text).expect("journal validates");
    let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
    assert!(kinds.contains(&"worker_joined"));
    assert!(kinds.contains(&"trial_leased"));
    assert!(kinds.contains(&"job_done"));
    assert!(!kinds.contains(&"job_failed"), "{kinds:?}");
    let lost: Vec<&cold_obs::WorkerLost> = events
        .iter()
        .filter_map(|e| match e {
            cold_obs::Event::WorkerLost(w) => Some(w),
            _ => None,
        })
        .collect();
    assert!(
        lost.iter().any(|w| w.worker == "crashy" && w.leases > 0),
        "the aborted worker must be evicted holding its lease: {lost:?}"
    );
    let migrations: Vec<&cold_obs::TrialMigrated> = events
        .iter()
        .filter_map(|e| match e {
            cold_obs::Event::TrialMigrated(m) => Some(m),
            _ => None,
        })
        .collect();
    assert!(
        migrations.iter().any(|m| m.from_worker == "crashy" && m.resumed_generation >= 1),
        "the killed trial must resume from its uploaded snapshot, \
         not restart from generation 0: {migrations:?}"
    );
    assert!(
        migrations.iter().any(|m| m.from_worker == "crashy" && m.resumed_generation >= min_resumed),
        "the killed trial must resume from generation {min_resumed} or later: {migrations:?}"
    );

    // The steady worker's own journal is a valid trace too.
    let wtext = std::fs::read_to_string(dir.join("steady.jsonl")).expect("worker journal");
    cold_obs::parse_journal(&wtext).expect("worker journal validates");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Two clean workers, no chaos: the scale-out path itself is
/// bit-faithful and drains cleanly.
#[test]
fn two_worker_ensemble_matches_local_run_and_drains() {
    let dir = temp_dir("clean");
    let (master_seed, count, n) = (5u64, 2usize, 8usize);

    let (coordinator, http_addr, dist_addr) = spawn_coordinator(&dir, &[]);
    let w1 = spawn_worker(&dir, &dist_addr, "w1", &[]);
    let w2 = spawn_worker(&dir, &dist_addr, "w2", &[]);
    wait_for_workers(&http_addr, 2, Duration::from_secs(15));

    let config = ColdConfig::quick(n, 4e-4, 10.0);
    let body = serde_json::to_string(&serde_json::json!({
        "config": config.to_json_value(),
        "seed": master_seed,
        "count": count,
    }))
    .expect("body serializes");
    let resp = client_request(&http_addr, "POST", "/jobs", Some(&body)).expect("submit");
    assert_eq!(resp.status, 202, "{}", resp.body);
    let id = parse_body(&resp.body)["id"].as_str().expect("job id").to_string();

    let doc = poll_until(&http_addr, &id, &["done", "failed"], Duration::from_secs(120));
    assert_eq!(doc["status"].as_str(), Some("done"), "job failed: {doc}");

    let result =
        client_request(&http_addr, "GET", &format!("/jobs/{id}/result"), None).expect("result");
    let got = parse_body(&result.body);
    let expected: Vec<Value> = (0..count)
        .map(|i| {
            let r = config.synthesize(derive_seed(master_seed, i as u64));
            parse_body(&cold::export::to_json(&r.network, &r.context))
        })
        .collect();
    assert_eq!(got["topologies"], Value::Array(expected));

    term_and_reap(coordinator, "coordinator");
    term_and_reap(w1, "worker w1");
    term_and_reap(w2, "worker w2");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An idle coordinator whose worker-protocol listener is bound to every
/// interface: the admin drain wakes both acceptors, the dist one
/// through loopback.
#[test]
fn idle_coordinator_drains_promptly_through_the_admin_route() {
    let dir = temp_dir("prompt-drain");
    let handle = Server::start(ServerConfig {
        workers: 1,
        cache_dir: dir.join("cache"),
        dist: Some(DistConfig { addr: "0.0.0.0:0".into(), ..DistConfig::default() }),
        ..ServerConfig::default()
    })
    .expect("coordinator starts");
    let addr = handle.local_addr().to_string();
    let resp = client_request(&addr, "POST", "/admin/shutdown", None).expect("shutdown");
    assert_eq!(resp.status, 200);
    joins_promptly("coordinator after POST /admin/shutdown", move || handle.join());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dist_pool_drains_promptly() {
    let (pool, handle) = DistPool::start(DistConfig::default(), Arc::new(AtomicBool::new(false)))
        .expect("pool starts");
    pool.shutdown();
    joins_promptly("DistPool::shutdown", move || handle.join());
}

/// Each exchange is one connection; none may wait on the acceptor. A
/// polling acceptor with a 10 ms interval needs about 400 ms here.
#[test]
fn sequential_heartbeats_do_not_wait_on_the_acceptor() {
    let (pool, handle) = DistPool::start(DistConfig::default(), Arc::new(AtomicBool::new(false)))
        .expect("pool starts");
    let addr = handle.addr();
    let started = Instant::now();
    for _ in 0..40 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let _ = stream.set_nodelay(true);
        proto::write_frame(&mut stream, &Msg::Heartbeat { worker: "probe".into() })
            .expect("send heartbeat");
        let reply = proto::read_frame(&mut stream).expect("reply");
        assert_eq!(reply, Msg::HeartbeatOk { drain: false });
    }
    let took = started.elapsed();
    pool.shutdown();
    handle.join();
    assert!(took < Duration::from_millis(200), "40 sequential heartbeats took {took:?}");
}
