//! `cold-gen` — command-line network generator.
//!
//! The downstream-user entry point: generate one network or an ensemble
//! from the command line and write simulation-ready files.
//!
//! ```sh
//! cold-gen --n 30 --k2 4e-4 --k3 10 --seed 1 --count 5 \
//!          --format graphml --out networks/
//! ```
//!
//! Telemetry: `--journal <path>` writes a JSONL run journal (one
//! `generation` event per GA generation), `--progress` prints live
//! per-generation lines to stderr, `--quiet` silences the normal stdout
//! chatter. The `COLD_TRACE` environment variable offers the same
//! switches to any binary in the workspace; the explicit flags win.
//!
//! Crash safety: `--checkpoint-every N` snapshots the campaign to a
//! sidecar JSON file after every N completed trials (atomic
//! write-then-rename), and `--resume <path>` picks a killed campaign back
//! up from its snapshot — completed trials are rebuilt from the record
//! instead of re-run, and the final ensemble is bit-identical to an
//! uninterrupted run. `--halt-after K` exits with code 3 after K freshly
//! synthesized trials, a deterministic stand-in for `kill -9` that the CI
//! crash-recovery smoke test drives. See DESIGN.md §10.

use cold::{export, Campaign, CampaignCheckpoint, ColdConfig, SynthesisMode, TrialObjective};
use std::path::PathBuf;

#[derive(Debug)]
struct Args {
    n: usize,
    k2: f64,
    k3: f64,
    seed: u64,
    count: usize,
    format: String,
    out: PathBuf,
    quick: bool,
    ga_only: bool,
    bridge_cost: Option<f64>,
    pareto: bool,
    archive: Option<usize>,
    journal: Option<PathBuf>,
    progress: bool,
    quiet: bool,
    checkpoint_every: Option<usize>,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
    halt_after: Option<usize>,
    trial_deadline: Option<f64>,
    stall_gens: Option<usize>,
    mutation_neighbors: Option<usize>,
    faults: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            n: 30,
            k2: 4e-4,
            k3: 10.0,
            seed: 2014,
            count: 1,
            format: "json".into(),
            out: PathBuf::from("."),
            quick: false,
            ga_only: false,
            bridge_cost: None,
            pareto: false,
            archive: None,
            journal: None,
            progress: false,
            quiet: false,
            checkpoint_every: None,
            checkpoint: None,
            resume: None,
            halt_after: None,
            trial_deadline: None,
            stall_gens: None,
            mutation_neighbors: None,
            faults: None,
        }
    }
}

impl Args {
    /// Crash-safe mode: any crash-safety flag gives the campaign a
    /// snapshot file.
    fn campaign(&self) -> bool {
        self.checkpoint_every.is_some()
            || self.checkpoint.is_some()
            || self.resume.is_some()
            || self.halt_after.is_some()
    }

    /// Where snapshots go: explicit `--checkpoint`, else the file being
    /// resumed (so one file tracks the whole campaign), else a sidecar in
    /// the output directory.
    fn checkpoint_path(&self) -> PathBuf {
        self.checkpoint.clone().or_else(|| self.resume.clone()).unwrap_or_else(|| {
            self.out.join(format!("cold_campaign_seed{:016x}.ckpt.json", self.seed))
        })
    }
}

const USAGE: &str = "cold-gen — generate COLD PoP-level networks

USAGE:
    cold-gen [OPTIONS]
    cold-gen evolve --plan <PATH> [EVOLVE OPTIONS]   (see `cold-gen evolve --help`)

OPTIONS:
    --n <N>             number of PoPs                     [default: 30]
    --k2 <F>            bandwidth cost k2                  [default: 4e-4]
    --k3 <F>            hub cost k3                        [default: 10]
    --seed <U64>        master seed                        [default: 2014]
    --count <N>         networks to generate               [default: 1]
    --format <F>        json | dot | graphml | svg | all   [default: json]
    --out <DIR>         output directory                   [default: .]
    --quick             reduced GA (T = M = 40) for fast previews
    --ga-only           skip heuristic population seeding (the random
                        greedy pass costs O(n^2) evaluations; combine
                        with --mutation-neighbors at large n)
    --bridge-cost <F>   resilience extension: per-bridge outage cost
    --pareto            multi-objective mode: NSGA-II over build cost,
                        worst single-link-failure impact, and demand-
                        weighted mean path length; writes one JSON file
                        per trial holding the whole Pareto front (the
                        crash-safety and deadline flags apply per front)
    --archive <N>       bound on the Pareto archive (with --pareto)
                        [default: 32]
    --journal <PATH>    write a JSONL run journal (per-generation traces)
    --progress          live per-generation progress lines on stderr
    --quiet             suppress normal stdout output
    --help              print this help

CRASH SAFETY:
    --checkpoint-every <N>  snapshot the campaign after every N completed
                            trials (atomic write; implies N=1 when any
                            other crash-safety flag is set without it)
    --checkpoint <PATH>     snapshot file
                            [default: <out>/cold_campaign_seed<seed>.ckpt.json]
    --resume <PATH>         resume a killed campaign from its snapshot;
                            completed trials are rebuilt, not re-run, and
                            the ensemble matches an uninterrupted run
    --halt-after <K>        exit with code 3 at the first snapshot that
                            holds K freshly synthesized trials, leaving it
                            on disk (crash injection for recovery tests);
                            with none before the last trial, the run
                            completes instead

RUNTIME GUARDS:
    A failed trial (a panic, a non-finite cost, a deadline overrun) is
    retried once on a salted seed. A trial lost twice is dropped from the
    ensemble and the run exits 1 (4 for a deadline) after writing the
    others; with a crash-safety flag it ends the campaign instead, and the
    snapshot stays resumable.

    --trial-deadline <SECS> per-trial wall-clock deadline; an overrunning
                            trial is abandoned by the watchdog
    --stall-gens <K>        terminate a GA run after K consecutive
                            generations without best-cost improvement
                            (reported as a `stalled` stop reason)
    --mutation-neighbors <K>
                            restrict mutation link additions to each
                            PoP's K geographically nearest neighbors
                            (recommended for large n; changes the GA's
                            random stream, not its guarantees)

FAULT INJECTION:
    --faults <SPEC>         arm deterministic fault injection, e.g.
                            `eval.panic:1` (fire on the 1st hit) or
                            `eval.nan:p=0.05` (5% of hits, derived from
                            --seed). Same syntax as COLD_FAULTS; the flag
                            wins over the environment.

EXIT CODES:
    0   success
    1   synthesis or campaign failure (campaigns leave a resumable
        snapshot; see stderr)
    2   flag or validation error
    3   injected halt (--halt-after), snapshot left on disk
    4   a trial exceeded --trial-deadline
    5   a GA run stalled under --stall-gens (outputs still written)
";

const EVOLVE_USAGE: &str = "cold-gen evolve — run a network evolution plan

Synthesizes the plan's base config cold, then warm-starts one GA run per
perturbation (new PoPs, traffic scaling, cost changes) with the previous
step's design as the seed population, pricing every rewired link with the
plan's change costs. Writes the full time-sliced topology schedule as one
JSON document. See DESIGN.md §17 for the plan format.

USAGE:
    cold-gen evolve --plan <PATH> [OPTIONS]

OPTIONS:
    --plan <PATH>       evolution plan JSON (required)
    --out <PATH>        schedule output file
                        [default: cold_schedule_seed<seed>.json]
    --journal <PATH>    write a JSONL run journal (evolution_step events
                        plus the usual per-generation traces)
    --progress          live per-generation progress lines on stderr
    --quiet             suppress normal stdout output
    --help              print this help

EXIT CODES:
    0   success
    1   synthesis failure
    2   flag, plan-parse, or validation error
";

/// The `cold-gen evolve` subcommand: plan in, schedule out.
fn evolve_main() -> ! {
    let mut plan_path: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut journal: Option<PathBuf> = None;
    let mut progress = false;
    let mut quiet = false;
    let mut flags = Flags { args: std::env::args().skip(2), usage: EVOLVE_USAGE };
    while let Some(flag) = flags.args.next() {
        match flag.as_str() {
            "--plan" => plan_path = Some(PathBuf::from(flags.value(&flag))),
            "--out" => out = Some(PathBuf::from(flags.value(&flag))),
            "--journal" => journal = Some(PathBuf::from(flags.value(&flag))),
            "--progress" => progress = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!("{EVOLVE_USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag `{other}`"), EVOLVE_USAGE),
        }
    }
    let Some(plan_path) = plan_path else { usage_error("--plan is required", EVOLVE_USAGE) };
    if journal.is_some() && progress {
        usage_error("--journal and --progress are mutually exclusive", EVOLVE_USAGE);
    }
    let text = std::fs::read_to_string(&plan_path).unwrap_or_else(|e| {
        eprintln!("--plan {}: {e}", plan_path.display());
        std::process::exit(2);
    });
    let plan = cold::EvolutionPlan::from_json(&text).unwrap_or_else(|e| {
        eprintln!("--plan {}: {e}", plan_path.display());
        std::process::exit(2);
    });
    if let Some(path) = &journal {
        cold_obs::configure(cold_obs::TraceMode::Journal(path.clone())).unwrap_or_else(|e| {
            usage_error(&format!("--journal {}: {e}", path.display()), EVOLVE_USAGE)
        });
    } else if progress {
        cold_obs::configure(cold_obs::TraceMode::Progress).expect("progress sink is infallible");
    }
    let _trace = cold_obs::trace::root("cli.evolve", &cold_obs::run_id(plan.seed));
    let schedule = match cold::run_plan(&plan) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cold-gen evolve: {e}");
            cold_obs::emit_metrics_snapshot();
            std::process::exit(1);
        }
    };
    let out =
        out.unwrap_or_else(|| PathBuf::from(format!("cold_schedule_seed{:016x}.json", plan.seed)));
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out, schedule.to_json()).expect("write schedule file");
    if !quiet {
        for s in &schedule.steps {
            println!(
                "  step {} ({}): n={} cost {:.1} (+{} / -{} links, {} generations{})",
                s.step,
                s.kind,
                s.n,
                s.network_cost,
                s.diff.added.len(),
                s.diff.removed.len(),
                s.convergence.generations_run,
                if s.convergence.warm { ", warm" } else { "" }
            );
        }
        println!(
            "wrote {} ({} steps, {} links rewired)",
            out.display(),
            schedule.steps.len(),
            schedule.total_rewired()
        );
    }
    cold_obs::emit_metrics_snapshot();
    if let Some(path) = &journal {
        if !quiet {
            println!("journal: {}", path.display());
        }
    }
    std::process::exit(0);
}

/// A command line being parsed: a missing or malformed flag value is a
/// usage error, never a panic.
struct Flags {
    args: std::iter::Skip<std::env::Args>,
    usage: &'static str,
}

impl Flags {
    /// The value after `flag`.
    fn value(&mut self, flag: &str) -> String {
        let value = self.args.next();
        value.unwrap_or_else(|| usage_error(&format!("{flag} needs a value"), self.usage))
    }

    /// The value after `flag`, parsed.
    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let value = self.value(flag);
        let why = format!("{flag}: invalid value `{value}`");
        value.parse().unwrap_or_else(|_| usage_error(&why, self.usage))
    }
}

/// Prints `why` and the usage text, then exits 2 — the flag and
/// validation error path.
fn usage_error(why: &str, usage: &str) -> ! {
    eprintln!("{why}\n\n{usage}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut flags = Flags { args: std::env::args().skip(1), usage: USAGE };
    while let Some(flag) = flags.args.next() {
        match flag.as_str() {
            "--n" => args.n = flags.parse(&flag),
            "--k2" => args.k2 = flags.parse(&flag),
            "--k3" => args.k3 = flags.parse(&flag),
            "--seed" => args.seed = flags.parse(&flag),
            "--count" => args.count = flags.parse(&flag),
            "--format" => args.format = flags.value(&flag),
            "--out" => args.out = PathBuf::from(flags.value(&flag)),
            "--quick" => args.quick = true,
            "--ga-only" => args.ga_only = true,
            "--bridge-cost" => args.bridge_cost = Some(flags.parse(&flag)),
            "--pareto" => args.pareto = true,
            "--archive" => args.archive = Some(flags.parse(&flag)),
            "--journal" => args.journal = Some(PathBuf::from(flags.value(&flag))),
            "--progress" => args.progress = true,
            "--quiet" => args.quiet = true,
            "--checkpoint-every" => args.checkpoint_every = Some(flags.parse(&flag)),
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(flags.value(&flag))),
            "--resume" => args.resume = Some(PathBuf::from(flags.value(&flag))),
            "--halt-after" => args.halt_after = Some(flags.parse(&flag)),
            "--trial-deadline" => args.trial_deadline = Some(flags.parse(&flag)),
            "--stall-gens" => args.stall_gens = Some(flags.parse(&flag)),
            "--mutation-neighbors" => args.mutation_neighbors = Some(flags.parse(&flag)),
            "--faults" => args.faults = Some(flags.value(&flag)),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag `{other}`"), USAGE),
        }
    }
    let why = if !["json", "dot", "graphml", "svg", "all"].contains(&args.format.as_str()) {
        format!("invalid --format `{}`", args.format)
    } else if args.journal.is_some() && args.progress {
        "--journal and --progress are mutually exclusive".into()
    } else if args.checkpoint_every == Some(0) {
        "--checkpoint-every must be >= 1".into()
    } else if args.halt_after == Some(0) {
        "--halt-after must be >= 1".into()
    } else if args.pareto && args.bridge_cost.is_some() {
        "--pareto cannot be combined with --bridge-cost".into()
    } else if args.archive.is_some() && !args.pareto {
        "--archive requires --pareto".into()
    } else if args.archive == Some(0) {
        "--archive must be >= 1".into()
    } else if args.trial_deadline.is_some_and(|d| !d.is_finite() || d <= 0.0) {
        "--trial-deadline must be a positive number of seconds".into()
    } else if args.stall_gens == Some(0) {
        "--stall-gens must be >= 1".into()
    } else {
        return args;
    };
    usage_error(&why, USAGE)
}

/// Writes trial `i`'s files and prints its summary line: the chosen
/// export format(s) of its network, or with `--pareto` its whole front as
/// one JSON document. A `--bridge-cost` line adds the survivability note.
fn export_trial(args: &Args, i: usize, r: &cold::SynthesisResult) {
    let stem_seed = cold_context::rng::derive_seed(args.seed, i as u64);
    let say = |line: String| {
        if !args.quiet {
            println!("{line}");
        }
    };
    if args.pareto {
        let path = args.out.join(format!("cold_pareto_n{}_seed{stem_seed:016x}.json", args.n));
        std::fs::write(&path, export::pareto_front_to_json(r)).expect("write output file");
        say(format!("wrote {}", path.display()));
        let (size, hv, gens) = (r.front.len(), r.hypervolume(), r.generations_run);
        return say(format!(
            "  front {i}: {size} networks, hypervolume {hv:.4}, {gens} generations"
        ));
    }
    let (network, context) = (&r.network, &r.context);
    let stem = args.out.join(format!("cold_n{}_seed{stem_seed:016x}", args.n));
    let all = ["json", "dot", "graphml", "svg"];
    for ext in all.into_iter().filter(|&ext| args.format == "all" || args.format == ext) {
        let body = match ext {
            "json" => export::to_json(network, context),
            "dot" => export::to_dot(network, context),
            "graphml" => export::to_graphml(network, context),
            _ => export::to_svg(network, context),
        };
        let path = stem.with_extension(ext);
        std::fs::write(&path, body).expect("write output file");
        say(format!("wrote {}", path.display()));
    }
    let note = match args.bridge_cost {
        Some(_) => {
            let report = cold::resilience::survivability(&network.topology, context);
            let (bridges, two) = (report.bridges, report.two_edge_connected);
            format!(", bridges {bridges} (2-edge-connected: {two})")
        }
        None => String::new(),
    };
    let (n, links, cost) = (network.n(), network.link_count(), network.total_cost());
    say(format!("  network {i}: {n} PoPs, {links} links, cost {cost:.1}{note}"));
}

/// The trial loop of every run: [`cold::run_campaign`] over a concurrent
/// [`cold::LocalTrials`], with a snapshot file when a crash-safety flag
/// is set. Export and `--halt-after` crash injection run in the
/// per-trial hook, in trial order. Returns whether any trial's GA run
/// stalled (for the exit-5 path).
fn run_trials(args: &Args, campaign: &Campaign) -> bool {
    let ckpt_path = args.checkpoint_path();
    let every = args.checkpoint_every.unwrap_or(1);
    let snapshots = args.campaign().then_some(cold::Snapshots { path: &ckpt_path, every });
    let resume = args.resume.as_ref().map(|p| {
        CampaignCheckpoint::load(p).unwrap_or_else(|e| {
            eprintln!("--resume {}: {e}", p.display());
            std::process::exit(2);
        })
    });
    let rebuilt = resume.as_ref().map_or(0, |s| s.records.len());
    if !args.quiet {
        if rebuilt > 0 {
            println!("resuming campaign: {rebuilt}/{} trials from snapshot", args.count);
        }
        if snapshots.is_some() {
            println!("checkpoint: {} (every {every} trial(s))", ckpt_path.display());
        }
    }
    let deadline = args.trial_deadline.map(std::time::Duration::from_secs_f64);
    let mut fresh = 0usize;
    let mut stalled = false;
    let outcome = cold::run_campaign(
        campaign,
        snapshots,
        resume,
        &mut cold::LocalTrials { deadline, ..cold::LocalTrials::default() },
        None,
        |i, r: &cold::SynthesisResult| {
            stalled |= r.stop_reason == cold::StopReason::Stalled;
            export_trial(args, i, r);
            // Only freshly synthesized trials count toward --halt-after,
            // and the halt waits for a snapshot that holds this trial: one
            // on the cadence, which is already on disk. The last trial is
            // never snapshotted, so a halt due there completes the run.
            if i >= rebuilt {
                fresh += 1;
                let saved = (i + 1).is_multiple_of(every) && i + 1 < args.count;
                if saved && args.halt_after.is_some_and(|k| fresh >= k) {
                    cold_obs::emit_metrics_snapshot();
                    eprintln!(
                        "halted after {fresh} fresh trial(s); resume with --resume {}",
                        ckpt_path.display()
                    );
                    std::process::exit(3);
                }
            }
        },
    );
    let overrun = |e: &cold::ColdError| matches!(e, cold::ColdError::DeadlineExceeded { .. });
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("campaign failed: {e}");
        if snapshots.is_some() && ckpt_path.exists() {
            eprintln!("completed trials are recoverable: --resume {}", ckpt_path.display());
        }
        cold_obs::emit_metrics_snapshot();
        std::process::exit(if overrun(&e) { 4 } else { 1 });
    });
    for f in &outcome.failures {
        let recovered = if f.recovered { "; retry recovered it" } else { "" };
        eprintln!("trial {} attempt {} failed ({}){recovered}", f.trial, f.attempt, f.error);
    }
    if !outcome.is_complete() {
        eprintln!("lost trials after retry: {:?}", outcome.lost_trials());
        cold_obs::emit_metrics_snapshot();
        let overran = outcome.failures.iter().any(|f| !f.recovered && overrun(&f.error));
        std::process::exit(if overran { 4 } else { 1 });
    }
    stalled
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("evolve") {
        evolve_main();
    }
    let args = parse_args();
    if let Some(path) = &args.journal {
        cold_obs::configure(cold_obs::TraceMode::Journal(path.clone()))
            .unwrap_or_else(|e| usage_error(&format!("--journal {}: {e}", path.display()), USAGE));
    } else if args.progress {
        cold_obs::configure(cold_obs::TraceMode::Progress).expect("progress sink is infallible");
    }
    // Root trace scope for the whole invocation: the trace id is the run
    // id of the master seed, so journal joins need no side tables. Inert
    // when no sink is configured.
    let _trace = cold_obs::trace::root("cli.run", &cold_obs::run_id(args.seed));
    // Arm fault injection: the explicit flag wins over COLD_FAULTS; either
    // way the schedule derives from the master seed so a chaos run is as
    // reproducible as a clean one.
    if let Some(spec) = &args.faults {
        cold_fault::configure(spec, args.seed)
            .unwrap_or_else(|e| usage_error(&format!("--faults: {e}"), USAGE));
    } else if cold_fault::armed() {
        cold_fault::reseed(args.seed);
    }
    let mut cfg = if args.quick {
        ColdConfig::quick(args.n, args.k2, args.k3)
    } else {
        ColdConfig {
            mode: SynthesisMode::Initialized,
            ..ColdConfig::paper(args.n, args.k2, args.k3)
        }
    };
    if args.ga_only {
        cfg.mode = SynthesisMode::GaOnly;
    }
    if let Some(k) = args.stall_gens {
        cfg.ga.stall_gens = Some(k);
    }
    if let Some(k) = args.mutation_neighbors {
        cfg.ga.mutation_neighbors = Some(k);
    }
    let objective = match (args.bridge_cost, args.pareto) {
        (Some(bridge_cost), _) => TrialObjective::Resilient { bridge_cost },
        (None, true) => TrialObjective::Pareto {
            archive: args.archive.unwrap_or(cold::pareto::DEFAULT_ARCHIVE_CAPACITY),
        },
        (None, false) => TrialObjective::Cost,
    };
    let campaign = Campaign { objective, ..Campaign::new(cfg, args.seed, args.count) };
    if let Err(e) = campaign.validate() {
        usage_error(&e.to_string(), USAGE);
    }
    std::fs::create_dir_all(&args.out).expect("create output directory");
    let stalled = run_trials(&args, &campaign);
    // Close the journal (or progress stream) with a registry summary so
    // offline analysis sees where the wall-time went.
    cold_obs::emit_metrics_snapshot();
    if let Some(path) = &args.journal {
        if !args.quiet {
            println!("journal: {}", path.display());
        }
    }
    if stalled {
        let k = args.stall_gens.unwrap_or(0);
        eprintln!("one or more GA runs stalled (no improvement in {k} generations)");
        std::process::exit(5);
    }
}
