//! `cold-perf` — end-to-end and per-layer performance benchmark of COLD.
//!
//! ```sh
//! cold-perf --workload paper-n30 --seed 2014 --seconds 20 --trace 0
//! cold-perf trace --seed 2014 --out runs.jsonl       # every workload, traced
//! cold-perf compare parent.jsonl change.jsonl        # verdict per (metric, workload)
//! ```
//!
//! A run prints a summary on stderr and, as the last line of stdout, one
//! JSON object per workload: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See README.md for the workloads and metrics.

mod compare;
mod http;
mod inproc;
mod pace;
mod served;
mod spans;
mod stats;

use stats::Summary;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2014;

/// Seconds measured per workload when `--seconds` is not given (the
/// benchmark's `run_seconds`).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Set-ups timed per run for `setup_s`; the mean of all but the fastest
/// and the slowest is reported.
pub const SETUP_REPS: usize = 7;

/// End-to-end metrics and their units, reported by every workload.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("latency_ms_geomean", "ms"), ("cost_ratio_geomean", "ratio")];

/// Per-layer metrics and their units, reported by every traced run
/// (0 where the workload does not exercise the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("context.generate_ms", "ms"),
    ("heuristics.seed_ms", "ms"),
    ("heuristics.share_pct", "%"),
    ("cost.delta_eval_us", "us"),
    ("cost.full_eval_us", "us"),
    ("cost.delta_fallback_pct", "%"),
    ("cost.evals_per_network", "count"),
    ("cost.network_build_ms", "ms"),
    ("cost.delta_eval_us_n500", "us"),
    ("cost.full_eval_us_n500", "us"),
    ("cost.delta_fallback_pct_n500", "%"),
    ("ga.cache_hit_pct", "%"),
    ("ga.gen_ms", "ms"),
    ("ga.eval_share_pct", "%"),
    ("ga.other_ms_per_gen", "ms"),
    ("ga.repair_pct", "%"),
    ("pareto.candidate_eval_ms", "ms"),
    ("pareto.f1_share_pct", "%"),
    ("pareto.select_ms_per_gen", "ms"),
    ("failure.sweep_ms", "ms"),
    ("core.stats_ms", "ms"),
    ("core.unattributed_pct", "%"),
    ("serve.submit_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.client_overhead_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.job_ms", "ms"),
    ("serve.cache_hit_pct", "%"),
    ("serve.warm_start_pct", "%"),
    ("serve.cold_ms_p50", "ms"),
    ("serve.cold_ms_p90", "ms"),
    ("serve.cached_ms_p50", "ms"),
    ("serve.cached_ms_p90", "ms"),
    ("serve.warm_ms_p50", "ms"),
    ("serve.warm_ms_p90", "ms"),
    ("dist.job_server_s", "s"),
    ("dist.client_overhead_ms", "ms"),
    ("dist.migrations", "count"),
    ("obs.trace_overhead_pct", "%"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's setting: one n = 30 network at a time, T = M = 100.
    PaperN30,
    /// n = 200, quick GA, GA-only seeding, pruned mutation.
    LargeN200,
    /// One Pareto front at a time at n = 20.
    ParetoN20,
    /// `cold-serve` under a mix of fresh, cached and warm-started jobs.
    ServeMix,
    /// A coordinator and one remote worker.
    Dist1Worker,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 5] = [
        Workload::PaperN30,
        Workload::LargeN200,
        Workload::ParetoN20,
        Workload::ServeMix,
        Workload::Dist1Worker,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperN30 => "paper-n30",
            Workload::LargeN200 => "large-n200",
            Workload::ParetoN20 => "pareto-n20",
            Workload::ServeMix => "serve-mix",
            Workload::Dist1Worker => "dist-1worker",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Seed of set-up repetition `rep`. The same for every workload seed,
    /// so that `setup_s` measures set-up rather than the input drawn.
    pub fn setup_seed(self, rep: usize) -> u64 {
        cold::context::rng::derive_seed(self.salt() ^ 0x5E70_0000, rep as u64)
    }

    /// Seed of quality input `i`. The same for every workload seed, so
    /// that `cost_ratio_geomean` changes only when the designs do.
    pub fn quality_seed(self, i: usize) -> u64 {
        cold::context::rng::derive_seed(self.salt() ^ 0x9A11_0000, i as u64)
    }

    /// Mixed into the workload seed so workloads draw unrelated inputs.
    pub fn salt(self) -> u64 {
        match self {
            Workload::PaperN30 => 0xC01D_0030,
            Workload::LargeN200 => 0xC01D_0200,
            Workload::ParetoN20 => 0xC01D_0020,
            Workload::ServeMix => 0xC01D_5E12,
            Workload::Dist1Worker => 0xC01D_D157,
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (networks, fronts or jobs).
    pub attempted: usize,
    /// Operations that failed, were refused, or failed a check.
    pub failed: usize,
    /// Why, for the first few failures.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines for the stderr summary.
    pub notes: Vec<String>,
    /// Per-operation latencies (ms), for the `--out` record.
    pub latencies_ms: Vec<f64>,
    /// Times of the reference work (`pace`), for the `--out` record.
    pub reference_ms: Vec<f64>,
    /// The traced run's spans.
    pub spans: Option<spans::Spans>,
}

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a summary line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// `setup_s` from the set-up times of `what` (seconds): `s` as the
    /// metric takes them, `raw_s` as the clock read them. The mean of all
    /// but the fastest and the slowest: robust like a median, but it does
    /// not jump by a whole step where set-up times fall on steps, as
    /// `serve-mix`'s do on the acceptor's 10 ms poll.
    pub fn setup(&mut self, what: &str, raw_s: &[f64], s: &[f64]) {
        self.set("setup_s", stats::trimmed_mean(s));
        let mut line =
            format!("setup: {} {what}, trimmed mean {:.4} s", s.len(), stats::trimmed_mean(raw_s));
        if raw_s != s {
            line += &format!(", at the reference speed {:.4} s", stats::trimmed_mean(s));
        }
        self.note(line);
    }

    /// The shared latency metric over per-operation latencies (ms): `ms`
    /// as the metric takes them, `raw_ms` as the clock read them, and the
    /// reference times (`pace`) taken beside them, if any. A geometric
    /// mean, so that an operation drawn from the workload seed moves it by
    /// a fixed share of its own deviation, where it would make the median
    /// of a few unequal operations jump.
    pub fn latency(&mut self, what: &str, raw_ms: &[f64], ms: &[f64], reference_ms: &[f64]) {
        if ms.is_empty() {
            return;
        }
        self.set("latency_ms_geomean", stats::geomean(ms));
        self.note(format!("{what} latency ms: {}", Summary::of(raw_ms).describe()));
        if !reference_ms.is_empty() {
            self.note(format!(
                "{what} latency ms at the reference speed: {}; reference work ms: {}",
                Summary::of(ms).describe(),
                Summary::of(reference_ms).describe()
            ));
        }
        self.latencies_ms = raw_ms.to_vec();
        self.reference_ms = reference_ms.to_vec();
    }
}

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage:
    cold-perf [run] [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
    cold-perf trace [--workload NAME]... [--seed N] [--seconds S] [--out FILE]   (run --trace 1)
    cold-perf compare PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]
workloads: paper-n30 large-n200 pareto-n20 serve-mix dist-1worker";

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                run.workloads.push(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => run.seed = value()?.parse().map_err(|_| "--seed: integer expected")?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|_| "--seconds: number expected")?;
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: 0 or 1 expected".into()),
                }
            }
            "--out" => run.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if run.workloads.is_empty() {
        run.workloads = Workload::ALL.to_vec();
    }
    Ok(run)
}

/// Where runs keep scratch state and span files: beside the build output.
pub fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("cold-perf")
}

/// Runs one workload.
fn run_workload(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    match w {
        Workload::PaperN30 | Workload::LargeN200 | Workload::ParetoN20 => {
            let (raw, scaled) = inproc::measure_setup(w)?;
            let mut out = inproc::run(w, &inproc::Plan::of(w), seed, seconds, trace)?;
            out.setup("fresh starts", &raw, &scaled);
            Ok(out)
        }
        Workload::ServeMix | Workload::Dist1Worker => served::run(w, seed, seconds, trace),
    }
}

/// The metrics a run reports: every end-to-end metric untraced, every
/// per-layer metric traced.
fn reported(out: &Outcome, trace: bool) -> serde_json::Value {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = serde_json::Map::new();
    for &(name, unit) in table {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        metrics.insert(name.to_string(), serde_json::json!({ "value": value, "unit": unit }));
    }
    serde_json::Value::Object(metrics)
}

fn run_main(args: &[String]) -> Result<ExitCode, String> {
    let run = parse_run(args)?;
    let mut all_correct = true;
    for &w in &run.workloads {
        let out = run_workload(w, run.seed, run.seconds, run.trace)?;
        let correct = out.failed == 0;
        all_correct &= correct;
        let metrics = reported(&out, run.trace);
        eprintln!(
            "== {} (seed {}, {} s, trace {})",
            w.name(),
            run.seed,
            run.seconds,
            run.trace as u8
        );
        for line in &out.notes {
            eprintln!("   {line}");
        }
        for why in &out.failures {
            eprintln!("   FAILED: {why}");
        }
        if let Some(&share) = out.metrics.get("core.unattributed_pct").filter(|&&s| s > 5.0) {
            eprintln!("   WARNING: {share:.1}% of operation time is attributed to no layer");
        }
        if let Some(map) = metrics.as_object() {
            for (name, m) in map.iter() {
                eprintln!(
                    "   {name:<30} {:>14.6} {}",
                    m["value"].as_f64().unwrap_or(0.0),
                    m["unit"].as_str().unwrap_or("")
                );
            }
        }
        if let Some(spans) = &out.spans {
            let path = work_dir().join(format!("spans-{}-{}.json", w.name(), run.seed));
            std::fs::create_dir_all(work_dir()).map_err(|e| e.to_string())?;
            std::fs::write(
                &path,
                serde_json::to_string(&spans.to_json(w.name(), run.seed))
                    .map_err(|e| e.to_string())?,
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("   spans: {}", path.display());
        }
        if let Some(path) = &run.out {
            let record = serde_json::json!({
                "workload": w.name(),
                "seed": run.seed,
                "seconds": run.seconds,
                "trace": run.trace,
                "correct": correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": metrics,
                "notes": out.notes,
                "latencies_ms": out.latencies_ms,
                "reference_ms": out.reference_ms,
            });
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            writeln!(file, "{}", serde_json::to_string(&record).map_err(|e| e.to_string())?)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let line = serde_json::json!({
            "correct": correct,
            "attempted": out.attempted.max(1),
            "failed": out.failed,
            "metrics": metrics,
        });
        println!("{}", serde_json::to_string(&line).map_err(|e| e.to_string())?);
    }
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn setup_probe(args: &[String]) -> Result<ExitCode, String> {
    let (mut w, mut rep) = (None, 0usize);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => w = Workload::parse(value),
            "--rep" => rep = value.parse().map_err(|_| "--rep: integer expected")?,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    inproc::warm_up(w.ok_or("setup-probe needs an in-process --workload")?, rep)?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("setup-probe") => setup_probe(&args[1..]),
        Some("run") => run_main(&args[1..]),
        Some("trace") => run_main(&[&args[1..], &["--trace".into(), "1".into()]].concat()),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => run_main(&args),
    };
    result.unwrap_or_else(|why| {
        eprintln!("cold-perf: {why}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root, found upward from the
    /// package built: `cold-bench` or the benchmark's own.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|path| path.is_file())
            .expect("BENCHMARK.json at the repository root");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        doc[section]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (m["name"].as_str().unwrap().to_string(), m["unit"].as_str().unwrap().to_string())
            })
            .collect()
    }

    fn assert_declared(table: &[(&str, &str)], section: &str) {
        let declared = declared(section);
        let emitted: Vec<(String, String)> =
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(emitted, declared, "{section} in BENCHMARK.json and the binary disagree");
        for (name, _) in &emitted {
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "metric name `{name}`"
            );
        }
    }

    /// The three in-process workloads at toy size, through both the
    /// measured and the traced run.
    #[test]
    fn toy_in_process_runs_emit_every_declared_metric() {
        assert_declared(END_TO_END, "end_to_end");
        assert_declared(PER_LAYER, "per_layer");
        for w in [Workload::PaperN30, Workload::LargeN200, Workload::ParetoN20] {
            let mut plan = inproc::Plan::of(w);
            plan.cfg.context.n = 8;
            plan.cfg.ga = cold::ga::GaSettings {
                generations: 10,
                population: 10,
                num_saved: 2,
                num_crossover: 5,
                num_mutation: 3,
                mutation_neighbors: plan.cfg.ga.mutation_neighbors.map(|_| 4),
                ..plan.cfg.ga
            };
            // Two inputs: one fixed, one drawn from the seed.
            plan.quality_inputs = 1;
            plan.kernel_probe_n = plan.kernel_probe_n.map(|_| 40);
            // `setup_s` comes from `measure_setup`, which spawns the built
            // binary, not the test harness.
            let untraced = inproc::run(w, &plan, 7, 0.0, false).unwrap();
            assert_eq!(
                (untraced.attempted, untraced.failed),
                (2 * inproc::MIN_ROUNDS, 0),
                "{w:?}: {:?}",
                untraced.failures
            );
            for (name, _) in END_TO_END.iter().filter(|(name, _)| *name != "setup_s") {
                let v = untraced.metrics.get(name).copied().unwrap_or(0.0);
                assert!(v > 0.0 && v.is_finite(), "{w:?}: {name} = {v}");
            }
            // The traced run fails an operation whose traced result is not
            // bit-identical to the untraced synthesis.
            let traced = inproc::run(w, &plan, 7, 0.0, true).unwrap();
            assert_eq!((traced.attempted, traced.failed), (2, 0), "{w:?}: {:?}", traced.failures);
            assert_eq!(
                traced.metrics["cost_ratio_geomean"],
                untraced.metrics["cost_ratio_geomean"]
            );
            let layer = reported(&traced, true);
            let map = layer.as_object().unwrap();
            assert_eq!(map.len(), PER_LAYER.len());
            assert!(traced.metrics["core.unattributed_pct"] < 5.0, "{w:?}");
            assert!(traced.metrics["cost.evals_per_network"] > 0.0, "{w:?}");
            assert!(traced.spans.as_ref().is_some_and(|s| !s.spans().is_empty()));
        }
    }
}
