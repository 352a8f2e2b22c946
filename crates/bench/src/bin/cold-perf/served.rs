//! The served workloads: the real `cold-serve` binaries driven over TCP.
//!
//! Clients are closed loops: each sends its next job only after the
//! previous answer arrived, as callers waiting for a design do. A job is
//! timed from the start of `POST /jobs` until the `GET /jobs/{id}/result`
//! body is in; in between the client follows the job's event stream to
//! EOF rather than polling, so latency is not quantised by a poll period.

use crate::http;
use crate::inproc::mst_cost;
use crate::spans::Spans;
use crate::stats::{geomean, mean, median, pct, percentile, Summary};
use crate::{work_dir, Outcome, Workload, SETUP_REPS};
use cold::context::rng::derive_seed;
use cold::ColdConfig;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a started process may take to answer `/healthz`, or a
/// draining one to exit.
const PROCESS_DEADLINE: Duration = Duration::from_secs(15);

/// One served workload.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Coordinator plus one remote worker, instead of a standalone server.
    dist: bool,
    /// Closed-loop clients.
    clients: usize,
    /// Configuration of every job.
    cfg: ColdConfig,
    /// Trials per job.
    count: usize,
    /// Draw resubmissions and evolve children besides fresh jobs.
    mix: bool,
    /// The first fresh jobs, run even when the time budget is spent
    /// sooner. Their seeds are the workload's fixed quality inputs, and
    /// the quality metric is taken over exactly these.
    quality_jobs: usize,
    /// Fresh jobs whose served trials are compared with in-process
    /// syntheses.
    identity_checked: usize,
}

impl Plan {
    fn of(w: Workload) -> Self {
        match w {
            Workload::ServeMix => Self {
                dist: false,
                clients: 2,
                cfg: ColdConfig::quick(12, 4e-4, 10.0),
                count: 1,
                mix: true,
                quality_jobs: 100,
                identity_checked: 5,
            },
            Workload::Dist1Worker => Self {
                dist: true,
                clients: 1,
                // Trials as small as `serve-mix` jobs, so that leases and
                // snapshot and result uploads, not the GA, are most of a
                // job. With n = 20 trials a job took 1.4-1.9 s against
                // 1.2-1.3 s now, and the GA's share moved with the host's
                // slow spells: runs spread 0.17 in one set. Trials run
                // the GA on one thread, as in the in-process
                // evaluation-heavy workloads (see `inproc::Plan::of`), so
                // the one worker process keeps to one core.
                cfg: {
                    let mut cfg = ColdConfig::quick(12, 4e-4, 10.0);
                    cfg.ga.parallel = false;
                    cfg
                },
                count: 8,
                mix: false,
                quality_jobs: 6,
                identity_checked: 1,
            },
            _ => unreachable!("in-process workload"),
        }
    }
}

/// The `cold-serve` build beside this binary.
fn serve_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin = exe.with_file_name("cold-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found; build it into the same target directory with \
             `cargo build --release -p cold-serve`",
            bin.display()
        ))
    }
}

fn log_file(path: &Path) -> Result<Stdio, String> {
    std::fs::File::create(path).map(Stdio::from).map_err(|e| format!("{}: {e}", path.display()))
}

/// A running service: one server, or a coordinator and its worker. Its
/// processes are stopped and waited for, and its directory removed, on
/// drop.
struct Service {
    dir: PathBuf,
    addr: String,
    /// The coordinator's worker-protocol address.
    dist_addr: Option<String>,
    journal: bool,
    children: Vec<Child>,
}

impl Service {
    /// Starts the server, or the coordinator without its worker (see
    /// [`add_worker`](Self::add_worker)), and waits until it answers.
    fn start(plan: &Plan, dir: PathBuf, journal: bool) -> Result<Self, String> {
        let bin = serve_bin()?;
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut cmd = Command::new(&bin);
        cmd.args(["--addr", "127.0.0.1:0", "--cache-dir"]).arg(dir.join("cache"));
        if plan.dist {
            cmd.args(["--role", "coordinator", "--dist-addr", "127.0.0.1:0", "--workers", "1"]);
        } else {
            cmd.args(["--workers", "2"]);
        }
        if journal {
            cmd.arg("--journal").arg(dir.join("serve.jsonl"));
        }
        cmd.stdout(Stdio::piped()).stderr(log_file(&dir.join("serve.log"))?);
        let mut child = cmd.spawn().map_err(|e| format!("{}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut svc =
            Service { dir, addr: String::new(), dist_addr: None, journal, children: vec![child] };

        // Startup lines: the HTTP address, then (coordinator) the worker
        // protocol address. The server writes nothing else to stdout.
        let log = svc.dir.join("serve.log");
        let mut lines = BufReader::new(stdout).lines();
        let mut startup = |prefix: &str| -> Result<String, String> {
            for line in lines.by_ref() {
                let line = line.map_err(|e| e.to_string())?;
                if let Some(rest) = line.strip_prefix(prefix) {
                    return Ok(rest.trim().to_string());
                }
            }
            let why = std::fs::read_to_string(&log).unwrap_or_default();
            Err(format!("cold-serve exited before printing `{prefix}`: {}", why.trim()))
        };
        svc.addr = startup("cold-serve listening on http://")?;
        if plan.dist {
            svc.dist_addr = Some(startup("cold-serve dist listening on ")?);
        }
        wait_healthy(&svc.addr, |_| true)?;
        Ok(svc)
    }

    /// Starts the coordinator's one worker and waits until it has joined.
    fn add_worker(&mut self) -> Result<(), String> {
        let bin = serve_bin()?;
        let dist_addr = self.dist_addr.as_deref().ok_or("a standalone server takes no worker")?;
        let mut cmd = Command::new(&bin);
        cmd.args(["--role", "worker", "--coordinator", dist_addr]);
        cmd.args(["--worker-name", "cold-perf-worker"]);
        if self.journal {
            cmd.arg("--journal").arg(self.dir.join("worker.jsonl"));
        }
        cmd.stdout(Stdio::null()).stderr(log_file(&self.dir.join("worker.log"))?);
        self.children.push(cmd.spawn().map_err(|e| format!("{}: {e}", bin.display()))?);
        wait_healthy(&self.addr, |doc| doc["dist_workers"].as_u64().unwrap_or(0) >= 1)
    }

    /// Drains the service (`POST /admin/shutdown`) and waits for every
    /// process to exit; the journals stay readable until drop.
    fn shutdown(&mut self) -> Result<(), String> {
        let _ = http::request(&self.addr, "POST", "/admin/shutdown", b"");
        let deadline = Instant::now() + PROCESS_DEADLINE;
        let mut unclean = Vec::new();
        for child in &mut self.children {
            let status = loop {
                match child.try_wait() {
                    Ok(Some(status)) => break Some(status),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break None;
                    }
                }
            };
            if !status.is_some_and(|s| s.success()) {
                unclean.push(format!("{status:?}"));
            }
        }
        self.children.clear();
        if unclean.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "service did not drain cleanly ({}); logs in {}",
                unclean.join(", "),
                self.dir.display()
            ))
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn wait_healthy(addr: &str, ready: impl Fn(&Value) -> bool) -> Result<(), String> {
    let deadline = Instant::now() + PROCESS_DEADLINE;
    loop {
        if let Ok(r) = http::request(addr, "GET", "/healthz", b"") {
            if r.status == 200 && r.json().is_ok_and(|doc| ready(&doc)) {
                return Ok(());
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("service at {addr} not ready within {PROCESS_DEADLINE:?}"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn job_body(cfg: &ColdConfig, seed: u64, count: usize) -> String {
    let doc = serde_json::json!({ "config": cfg, "seed": seed, "count": count });
    serde_json::to_string(&doc).expect("job documents serialize")
}

fn evolve_body(cfg: &ColdConfig, seed: u64, parent: &str) -> String {
    let doc = serde_json::json!({
        "config": cfg,
        "seed": seed,
        "count": 1,
        "mode": "evolve",
        "parent": parent,
        "change_costs": { "add_cost": 1.0, "remove_cost": 1.0, "length_weight": 0.0 },
    });
    serde_json::to_string(&doc).expect("job documents serialize")
}

/// Where one job's time went, as the client saw it (seconds).
#[derive(Debug, Clone, Copy, Default)]
struct Timing {
    total: f64,
    submit: f64,
    wait: f64,
    result: f64,
}

/// Submits one job, follows its events to the end, fetches its result.
/// Returns the timing, whether the submission was answered from the
/// cache, the job id and the result body.
fn perform(
    addr: &str,
    body: &str,
    spans: Option<(&mut Spans, u64)>,
) -> Result<(Timing, bool, String, Vec<u8>), String> {
    let t0 = Instant::now();
    let submitted = http::request(addr, "POST", "/jobs", body.as_bytes())
        .map_err(|e| format!("submit: {e}"))?;
    let t1 = Instant::now();
    if submitted.status != 200 && submitted.status != 202 {
        return Err(format!(
            "submit answered {}: {}",
            submitted.status,
            String::from_utf8_lossy(&submitted.body)
        ));
    }
    let doc = submitted.json().map_err(|e| format!("submit: {e}"))?;
    let id = doc["id"].as_str().ok_or("submit answer has no id")?.to_string();
    let cached = doc["cached"].as_bool() == Some(true);
    let t1b = Instant::now();
    if !cached {
        let frames = http::events(addr, &format!("/jobs/{id}/events"))
            .map_err(|e| format!("events of {id}: {e}"))?;
        let last = frames.iter().rev().find_map(|f| {
            serde_json::from_str::<Value>(f)
                .ok()
                .and_then(|v| v["status"].as_str().map(String::from))
        });
        if last.as_deref() != Some("done") {
            return Err(format!("job {id} ended with status {last:?}"));
        }
    }
    let t2 = Instant::now();
    let result = http::request(addr, "GET", &format!("/jobs/{id}/result"), b"")
        .map_err(|e| format!("result of {id}: {e}"))?;
    let t3 = Instant::now();
    if result.status != 200 {
        return Err(format!("result of {id} answered {}", result.status));
    }
    if let Some((spans, trace)) = spans {
        let root = spans.record("op", trace, None, spans.at(t0), spans.at(t3));
        spans.record("serve.submit", trace, Some(root), spans.at(t0), spans.at(t1));
        spans.record("serve.wait", trace, Some(root), spans.at(t1b), spans.at(t2));
        spans.record("serve.result", trace, Some(root), spans.at(t2), spans.at(t3));
    }
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    let timing = Timing {
        total: secs(t0, t3),
        submit: secs(t0, t1),
        wait: secs(t1b, t2),
        result: secs(t2, t3),
    };
    Ok((timing, cached, id, result.body))
}

/// What a client draws next.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A job never submitted before: a cold synthesis and a cache write.
    Fresh(usize),
    /// The same document as fresh job `i`, answered from the cache.
    Resubmit(usize),
    /// A warm-started child of fresh job `parent`.
    Evolve { parent: usize, seed: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Cold,
    Cached,
    Warm,
}

#[derive(Debug, Clone)]
enum FreshState {
    Pending,
    Done { id: String, body: Vec<u8> },
    Failed,
}

/// A job that completed and passed its checks.
#[derive(Debug, Clone, Copy)]
struct Finished {
    /// Its place in the drawn sequence.
    j: usize,
    class: Class,
    timing: Timing,
}

#[derive(Debug, Default)]
struct MixState {
    drawn: usize,
    /// Seed and state of every fresh job drawn so far.
    fresh: Vec<(u64, FreshState)>,
    done: Vec<Finished>,
    evolve_ops: usize,
    failures: Vec<String>,
}

/// The job sequence of one run, a pure function of the workload seed.
/// Resubmissions and evolve children name an earlier fresh job by index;
/// a client that draws one waits until that job has finished (only the
/// other client can still be running it).
struct Mix {
    w: Workload,
    plan: Plan,
    seed: u64,
    window: Instant,
    seconds: f64,
    state: Mutex<MixState>,
    settled: Condvar,
}

impl Mix {
    fn draw(&self) -> Option<(usize, Op)> {
        let mut st = self.state.lock().expect("mix lock");
        if self.window.elapsed().as_secs_f64() >= self.seconds
            && st.fresh.len() >= self.plan.quality_jobs
        {
            return None;
        }
        let j = st.drawn as u64;
        st.drawn += 1;
        let op = |op| Some((j as usize, op));
        let kind = if self.plan.mix && !st.fresh.is_empty() {
            derive_seed(self.seed ^ 0x4B1D, j) % 10
        } else {
            0
        };
        let pick = (derive_seed(self.seed ^ 0x919C, j) % st.fresh.len().max(1) as u64) as usize;
        match kind {
            0..=4 => {
                let k = st.fresh.len();
                let seed = if k < self.plan.quality_jobs {
                    self.w.quality_seed(k)
                } else {
                    derive_seed(self.seed ^ 0xF4E5, k as u64)
                };
                st.fresh.push((seed, FreshState::Pending));
                op(Op::Fresh(st.fresh.len() - 1))
            }
            5..=7 => op(Op::Resubmit(pick)),
            _ => {
                st.evolve_ops += 1;
                op(Op::Evolve { parent: pick, seed: derive_seed(self.seed ^ 0xE701, j) })
            }
        }
    }

    fn fresh_seed(&self, i: usize) -> u64 {
        self.state.lock().expect("mix lock").fresh[i].0
    }

    fn settle(&self, i: usize, state: FreshState) {
        self.state.lock().expect("mix lock").fresh[i].1 = state;
        self.settled.notify_all();
    }

    fn wait_for(&self, i: usize) -> FreshState {
        let mut st = self.state.lock().expect("mix lock");
        while matches!(st.fresh[i].1, FreshState::Pending) {
            st = self.settled.wait(st).expect("mix lock");
        }
        st.fresh[i].1.clone()
    }

    fn record(&self, j: usize, outcome: Result<(Class, Timing), String>) {
        let mut st = self.state.lock().expect("mix lock");
        match outcome {
            Ok((class, timing)) => st.done.push(Finished { j, class, timing }),
            Err(why) => st.failures.push(why),
        }
    }

    /// One closed-loop client.
    fn client(&self, addr: &str, mut spans: Option<&mut Spans>) {
        let cfg = &self.plan.cfg;
        while let Some((j, op)) = self.draw() {
            let rec = spans.as_deref_mut().map(|s| (s, j as u64));
            let outcome = match op {
                Op::Fresh(i) => {
                    let body = job_body(cfg, self.fresh_seed(i), self.plan.count);
                    match perform(addr, &body, rec) {
                        Ok((timing, _, id, body)) => {
                            self.settle(i, FreshState::Done { id, body });
                            Ok((Class::Cold, timing))
                        }
                        Err(why) => {
                            self.settle(i, FreshState::Failed);
                            Err(format!("fresh job {i}: {why}"))
                        }
                    }
                }
                Op::Resubmit(i) => match self.wait_for(i) {
                    FreshState::Done { body: first, .. } => {
                        let body = job_body(cfg, self.fresh_seed(i), self.plan.count);
                        match perform(addr, &body, rec) {
                            Ok((timing, true, _, again)) if again == first => {
                                Ok((Class::Cached, timing))
                            }
                            Ok((_, true, id, _)) => {
                                Err(format!("cached answer of {id} differs from its first answer"))
                            }
                            Ok((_, false, id, _)) => {
                                Err(format!("resubmitted {id} was not answered from the cache"))
                            }
                            Err(why) => Err(format!("resubmission of fresh job {i}: {why}")),
                        }
                    }
                    _ => Err(format!("resubmission of failed fresh job {i}")),
                },
                Op::Evolve { parent, seed } => match self.wait_for(parent) {
                    FreshState::Done { id: parent_id, .. } => {
                        let body = evolve_body(cfg, seed, &parent_id);
                        match perform(addr, &body, rec) {
                            Ok((timing, _, id, result)) => {
                                let doc: Value =
                                    serde_json::from_str(&String::from_utf8_lossy(&result))
                                        .unwrap_or(Value::Null);
                                if doc["warm"].as_bool() == Some(true) {
                                    Ok((Class::Warm, timing))
                                } else {
                                    Err(format!(
                                        "evolve child {id} of {parent_id} did not warm-start"
                                    ))
                                }
                            }
                            Err(why) => Err(format!("evolve child of fresh job {parent}: {why}")),
                        }
                    }
                    _ => Err(format!("evolve child of failed fresh job {parent}")),
                },
            };
            self.record(j, outcome);
        }
    }
}

/// What one measured window produced.
struct Window {
    wall: f64,
    state: MixState,
    spans: Option<Spans>,
}

fn run_window(
    w: Workload,
    plan: &Plan,
    addr: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Window {
    let mix = Mix {
        w,
        plan: *plan,
        seed,
        window: Instant::now(),
        seconds,
        state: Mutex::new(MixState::default()),
        settled: Condvar::new(),
    };
    let root = Spans::new();
    let mut recorders: Vec<Option<Spans>> =
        (0..plan.clients).map(|_| traced.then(|| root.fork())).collect();
    std::thread::scope(|scope| {
        for rec in recorders.iter_mut() {
            let mix = &mix;
            scope.spawn(move || mix.client(addr, rec.as_mut()));
        }
    });
    let wall = mix.window.elapsed().as_secs_f64();
    let spans = traced.then(|| {
        let mut all = root;
        for rec in recorders.into_iter().flatten() {
            all.absorb(rec);
        }
        all
    });
    Window { wall, state: mix.state.into_inner().expect("mix lock"), spans }
}

/// Starts a service and completes one warm-up job on it: the set-up a
/// user of the service pays before the first real answer.
fn set_up(plan: &Plan, w: Workload, rep: usize, dir: PathBuf) -> Result<(Service, f64), String> {
    let start = Instant::now();
    let mut svc = Service::start(plan, dir, false)?;
    let body = job_body(&plan.cfg, w.setup_seed(rep), 1);
    if plan.dist {
        // Queue the warm-up job before the worker exists, so that the
        // worker's first lease request finds it. Submitted after the join,
        // it races that request, and when it loses, the trial waits out
        // the idle worker's 200 ms backoff: set-up times split in two.
        http::request(&svc.addr, "POST", "/jobs", body.as_bytes())
            .map_err(|e| format!("warm-up job: {e}"))?;
        svc.add_worker()?;
    }
    // For the coordinator, the same document again: answered from the
    // queued job, whose end this follows.
    perform(&svc.addr, &body, None).map_err(|e| format!("warm-up job: {e}"))?;
    Ok((svc, start.elapsed().as_secs_f64()))
}

/// Runs one served workload.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let plan = Plan::of(w);
    let base = work_dir().join(format!("{}-{}", w.name(), std::process::id()));
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut svc = None;
    for rep in 0..SETUP_REPS {
        if let Some(mut prev) = svc.take() {
            Service::shutdown(&mut prev)?;
        }
        let (started, took) = set_up(&plan, w, rep, base.join(format!("setup-{rep}")))?;
        setups.push(took);
        svc = Some(started);
    }
    let mut svc = svc.expect("at least one set-up");
    // Served times are reported as measured, not at the reference speed
    // (`pace`): a served job waits on request handling and polling as much
    // as on the CPU; scaled, `dist-1worker`'s latency spread wider between
    // runs in four of five sets of ten (README, "The host's pace").
    out.setup("service starts with a warm-up job", &setups, &setups);

    let mix_seed = derive_seed(seed, w.salt());
    let budget = if trace { seconds / 2.0 } else { seconds };
    let untraced = run_window(w, &plan, &svc.addr, mix_seed, budget, false);
    svc.shutdown()?;
    drop(svc);
    let main = if trace {
        let mut traced_svc = Service::start(&plan, base.join("traced"), true)?;
        if plan.dist {
            traced_svc.add_worker()?;
        }
        let before = scrape(&traced_svc.addr)?;
        let traced = run_window(w, &plan, &traced_svc.addr, mix_seed, budget, true);
        let after = scrape(&traced_svc.addr)?;
        traced_svc.shutdown()?;
        layer_metrics(&plan, &traced, &untraced, &before, &after, &traced_svc.dir, &mut out);
        traced
    } else {
        untraced
    };
    let _ = std::fs::remove_dir_all(&base);

    let st = &main.state;
    out.attempted = st.done.len() + st.failures.len();
    for why in &st.failures {
        out.fail(why.clone());
    }
    let latencies: Vec<f64> = st.done.iter().map(|d| 1e3 * d.timing.total).collect();
    out.latency("job", &latencies, &latencies, &[]);
    out.note(format!("{} jobs completed in {:.3} s", latencies.len(), main.wall));
    let classes: Vec<String> = [Class::Cold, Class::Cached, Class::Warm]
        .iter()
        .map(|c| format!("{c:?} {}", st.done.iter().filter(|d| d.class == *c).count()))
        .collect();
    out.note(format!("jobs by class: {}", classes.join(", ")));
    check_and_rate(&plan, st, &mut out);
    out.spans = main.spans;
    Ok(out)
}

/// The served results' correctness checks, and the quality metric, over
/// the first `quality_jobs` fresh jobs.
fn check_and_rate(plan: &Plan, st: &MixState, out: &mut Outcome) {
    let mut ratios = Vec::new();
    for (k, (seed, state)) in st.fresh.iter().enumerate().take(plan.quality_jobs) {
        let FreshState::Done { id, body } = state else {
            continue; // already counted as a failed operation
        };
        let doc: Value =
            serde_json::from_str(&String::from_utf8_lossy(body)).unwrap_or(Value::Null);
        let served = doc["topologies"].as_array().cloned().unwrap_or_default();
        let mut problems = Vec::new();
        if served.len() != plan.count {
            problems.push(format!("served {} of {} trials", served.len(), plan.count));
        }
        for (i, topo) in served.iter().enumerate() {
            let trial_seed = derive_seed(*seed, i as u64);
            if k < plan.identity_checked {
                let identical = plan.cfg.try_synthesize(trial_seed).ok().is_some_and(|r| {
                    let local: Value =
                        serde_json::from_str(&cold::export::to_json(&r.network, &r.context))
                            .unwrap_or(Value::Null);
                    serde_json::to_string(&local).ok() == serde_json::to_string(topo).ok()
                });
                if !identical {
                    problems.push(format!("trial {i} differs from the in-process synthesis"));
                }
            }
            let ctx = plan.cfg.context.generate(derive_seed(trial_seed, 0xC0));
            match topo["cost"]["total"].as_f64() {
                Some(cost) => ratios.push(cost / mst_cost(&ctx, &plan.cfg.params)),
                None => problems.push(format!("trial {i} has no cost")),
            }
        }
        if !problems.is_empty() {
            out.fail(format!("job {id}: {}", problems.join("; ")));
        }
    }
    if ratios.len() == plan.quality_jobs * plan.count {
        out.set("cost_ratio_geomean", geomean(&ratios));
    }
}

/// Counter, gauge and histogram `_sum`/`_count` samples of `/metrics`.
fn scrape(addr: &str) -> Result<BTreeMap<String, f64>, String> {
    let r = http::request(addr, "GET", "/metrics", b"").map_err(|e| format!("/metrics: {e}"))?;
    Ok(parse_metrics(r.text().map_err(|e| e.to_string())?))
}

fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| v.trim().parse().ok().map(|v| (k.to_string(), v)))
        .collect()
}

/// Totals over a traced window's journal(s).
#[derive(Debug, Default)]
struct JournalTotals {
    runs: BTreeSet<String>,
    cache_hits: f64,
    cache_misses: f64,
    delta_evals: f64,
    full_evals: f64,
    migrations: usize,
}

fn read_journal(path: &Path, totals: &mut JournalTotals) {
    let Ok(text) = std::fs::read_to_string(path) else { return };
    for event in text.lines().filter_map(|l| serde_json::from_str::<Value>(l).ok()) {
        match event["event"].as_str() {
            Some("generation") => {
                if let Some(run) = event["run"].as_str() {
                    totals.runs.insert(run.to_string());
                }
                let count = |k: &str| event[k].as_f64().unwrap_or(0.0);
                totals.cache_hits += count("cache_hits");
                totals.cache_misses += count("cache_misses");
                totals.delta_evals += count("delta_evals");
                totals.full_evals += count("full_evals");
            }
            Some("trial_migrated") => totals.migrations += 1,
            _ => {}
        }
    }
}

/// The per-layer metrics of a served workload: client spans, `/metrics`
/// deltas over the traced window, and the service's own journals.
fn layer_metrics(
    plan: &Plan,
    traced: &Window,
    untraced: &Window,
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    dir: &Path,
    out: &mut Outcome,
) {
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    let hist_mean = |name: &str| {
        let count = delta(&format!("{name}_count"));
        if count > 0.0 {
            delta(&format!("{name}_sum")) / count
        } else {
            0.0
        }
    };
    let done = &traced.state.done;
    out.set("serve.submit_ms", 1e3 * mean(done.iter().map(|d| d.timing.submit)));
    out.set("serve.result_ms", 1e3 * mean(done.iter().map(|d| d.timing.result)));
    out.set(
        "serve.client_overhead_ms",
        1e3 * mean(done.iter().map(|d| {
            let t = d.timing;
            t.total - t.submit - t.wait - t.result
        })),
    );
    out.set("serve.queue_wait_ms", 1e3 * hist_mean("cold_serve_job_queue_wait_seconds"));
    out.set("serve.job_ms", 1e3 * hist_mean("cold_serve_job_seconds"));
    let hits = delta("cold_serve_cache_hits_result") + delta("cold_serve_cache_hits_inflight");
    out.set("serve.cache_hit_pct", pct(hits, hits + delta("cold_serve_jobs_submitted")));
    out.set(
        "serve.warm_start_pct",
        pct(delta("cold_serve_warm_starts"), traced.state.evolve_ops as f64),
    );
    for (class, p50, p90) in [
        (Class::Cold, "serve.cold_ms_p50", "serve.cold_ms_p90"),
        (Class::Cached, "serve.cached_ms_p50", "serve.cached_ms_p90"),
        (Class::Warm, "serve.warm_ms_p50", "serve.warm_ms_p90"),
    ] {
        let ms: Vec<f64> =
            done.iter().filter(|d| d.class == class).map(|d| 1e3 * d.timing.total).collect();
        if !ms.is_empty() {
            out.set(p50, median(&ms));
            out.set(p90, percentile(&ms, 90.0));
            out.note(format!("{class:?} job latency ms: {}", Summary::of(&ms).describe()));
        }
    }

    let delta_n = delta("cold_cost_eval_delta_seconds_count");
    let full_n = delta("cold_cost_eval_full_seconds_count");
    out.set("cost.delta_eval_us", 1e6 * hist_mean("cold_cost_eval_delta_seconds"));
    out.set("cost.full_eval_us", 1e6 * hist_mean("cold_cost_eval_full_seconds"));
    out.set("heuristics.seed_ms", 1e3 * hist_mean("cold_core_heuristic_seed"));
    out.set(
        "heuristics.share_pct",
        pct(delta("cold_core_heuristic_seed_sum"), delta("cold_serve_job_seconds_sum")),
    );

    let mut journal = JournalTotals::default();
    read_journal(&dir.join("serve.jsonl"), &mut journal);
    read_journal(&dir.join("worker.jsonl"), &mut journal);
    // Remote trials evaluate in the worker, which has no /metrics: its
    // journal's per-generation counts give the delta/full split there.
    let (delta_n, full_n) =
        if plan.dist { (journal.delta_evals, journal.full_evals) } else { (delta_n, full_n) };
    out.set("cost.delta_fallback_pct", pct(full_n, delta_n + full_n));
    out.set("ga.cache_hit_pct", pct(journal.cache_hits, journal.cache_hits + journal.cache_misses));
    if !journal.runs.is_empty() {
        out.set("cost.evals_per_network", journal.cache_misses / journal.runs.len() as f64);
    }
    if plan.dist {
        let server_s = hist_mean("cold_serve_job_seconds");
        out.set("dist.job_server_s", server_s);
        out.set(
            "dist.client_overhead_ms",
            1e3 * (mean(done.iter().map(|d| d.timing.total)) - server_s),
        );
        out.set("dist.migrations", journal.migrations as f64);
        if journal.migrations > 0 {
            out.fail(format!(
                "{} trials migrated between workers in an undisturbed run",
                journal.migrations
            ));
        }
    }

    if let Some(spans) = &traced.spans {
        let layers = spans.self_times();
        let total: f64 = layers.values().sum();
        out.set("core.unattributed_pct", pct(layers.get("op").copied().unwrap_or(0.0), total));
        let listing: Vec<String> =
            layers.iter().map(|(layer, s)| format!("{layer} {:.1}%", pct(*s, total))).collect();
        out.note(format!("client-side self time by layer: {}", listing.join(", ")));
    }
    // Both windows draw the same job sequence: compare the jobs both ran.
    let by_draw = |w: &Window| -> BTreeMap<usize, f64> {
        w.state.done.iter().map(|d| (d.j, d.timing.total)).collect()
    };
    let (with, without) = (by_draw(traced), by_draw(untraced));
    let common: Vec<(f64, f64)> =
        with.iter().filter_map(|(j, t)| without.get(j).map(|u| (*t, *u))).collect();
    let (traced_s, untraced_s) = common.iter().fold((0.0, 0.0), |(a, b), (t, u)| (a + t, b + u));
    out.set("obs.trace_overhead_pct", pct(traced_s - untraced_s, untraced_s));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_text_keeps_bare_samples_only() {
        let text = "# TYPE cold_serve_job_seconds histogram\n\
                    cold_serve_job_seconds_bucket{le=\"1\"} 3\n\
                    cold_serve_job_seconds_sum 0.75\n\
                    cold_serve_job_seconds_count 3\n\
                    cold_serve_jobs_submitted 4\n";
        let m = parse_metrics(text);
        assert_eq!(m.len(), 3);
        assert_eq!(m["cold_serve_job_seconds_sum"], 0.75);
        assert_eq!(m["cold_serve_jobs_submitted"], 4.0);
    }
}
