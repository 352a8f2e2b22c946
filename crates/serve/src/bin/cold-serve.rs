//! `cold-serve` — the COLD synthesis service.
//!
//! ```sh
//! cold-serve --addr 127.0.0.1:0 --workers 2 --cache-dir runs/serve-cache
//! cold-serve --journal runs/serve.jsonl --deadline 60
//! cold-serve --faults serve.worker_panic:1 --faults-seed 7   # chaos smoke
//! ```
//!
//! Prints `cold-serve listening on http://<addr>` (resolving ephemeral
//! ports) on stdout once bound — scripts scrape that line. Drains
//! gracefully on SIGTERM / SIGINT / `POST /admin/shutdown`: in-flight
//! campaigns cancel at their next trial boundary with the completed
//! prefix checkpointed, so restarting with the same `--cache-dir`
//! resumes them.
//!
//! ## Distributed mode
//!
//! ```sh
//! cold-serve --role coordinator --dist-addr 127.0.0.1:8094
//! cold-serve --role worker --coordinator 127.0.0.1:8094
//! ```
//!
//! A coordinator additionally prints `cold-serve dist listening on
//! <addr>` and shards every campaign's trials across registered
//! workers (work-stealing leases, heartbeats, checkpoint migration —
//! see `DESIGN.md` §16). A worker runs no HTTP server at all: it pulls
//! leases until the coordinator drains it or a signal arrives, then
//! exits 0.

use cold_serve::dist::{run_worker, DistConfig, WorkerConfig};
use cold_serve::{Server, ServerConfig};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const USAGE: &str = "cold-serve — COLD synthesis service

USAGE:
    cold-serve [OPTIONS]

OPTIONS:
    --addr <HOST:PORT>      bind address (default 127.0.0.1:8093; port 0 = ephemeral)
    --workers <N>           synthesis worker threads (default 2)
    --http-threads <N>      HTTP handler threads (default 4)
    --queue <N>             job queue capacity; full queue answers 503 (default 16)
    --cache-dir <PATH>      content-addressed result cache (default cold-serve-cache)
    --cache-max-bytes <N>   bound the cache: after each result write, evict
                            completed job directories LRU-first until the
                            cache fits (parents of in-flight evolve jobs
                            are never evicted; default unbounded)
    --deadline <SECS>       per-trial wall-clock deadline (default none)
    --journal <PATH>        append a JSONL event journal (job + synthesis events)
    --faults <SPEC>         arm deterministic fault injection (COLD_FAULTS syntax)
    --faults-seed <N>       seed for probabilistic fault triggers (default 0)
    -h, --help              show this help

DISTRIBUTED MODE:
    --role <ROLE>           coordinator | worker (default: standalone server)
    --dist-addr <HOST:PORT> coordinator: worker-protocol listen address
                            (default 127.0.0.1:8094; port 0 = ephemeral)
    --coordinator <ADDR>    worker: coordinator address to pull leases from
    --worker-name <NAME>    worker: pool-unique name (default worker-<pid>)
    --heartbeat-ms <N>      worker: heartbeat interval (default 500)
    --lease-deadline <SECS> coordinator: per-trial lease deadline (default 120)
    --dist-ckpt-every <N>   coordinator: GA snapshot upload cadence (default 5);
                            a worker uploads in the background, skipping a
                            snapshot superseded before it leaves
";

/// Set from the signal handler; polled by the main thread.
static SIGNALED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SIGNALED.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `on_signal` only performs an atomic store, which is
    // async-signal-safe; `signal(2)` is in every libc std already links.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

fn main() {
    let mut config = ServerConfig { addr: "127.0.0.1:8093".into(), ..ServerConfig::default() };
    let mut journal: Option<PathBuf> = None;
    let mut faults: Option<String> = None;
    let mut faults_seed = 0u64;
    let mut role: Option<String> = None;
    let mut dist_addr = "127.0.0.1:8094".to_string();
    let mut worker_cfg = WorkerConfig::default();
    let mut dist_cfg = DistConfig::default();

    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} requires a value\n\n{USAGE}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = value(&mut args, "--addr"),
            "--workers" => {
                config.workers = value(&mut args, "--workers").parse().unwrap_or_else(|_| {
                    eprintln!("--workers: integer expected\n\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--http-threads" => {
                config.http_threads =
                    value(&mut args, "--http-threads").parse().unwrap_or_else(|_| {
                        eprintln!("--http-threads: integer expected\n\n{USAGE}");
                        std::process::exit(2);
                    });
            }
            "--queue" => {
                config.queue_capacity = value(&mut args, "--queue").parse().unwrap_or_else(|_| {
                    eprintln!("--queue: integer expected\n\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--cache-dir" => config.cache_dir = PathBuf::from(value(&mut args, "--cache-dir")),
            "--cache-max-bytes" => {
                config.cache_max_bytes =
                    Some(value(&mut args, "--cache-max-bytes").parse().unwrap_or_else(|_| {
                        eprintln!("--cache-max-bytes: integer expected\n\n{USAGE}");
                        std::process::exit(2);
                    }));
            }
            "--deadline" => {
                let secs: f64 = value(&mut args, "--deadline").parse().unwrap_or_else(|_| {
                    eprintln!("--deadline: seconds expected\n\n{USAGE}");
                    std::process::exit(2);
                });
                config.trial_deadline = Some(Duration::from_secs_f64(secs));
            }
            "--role" => {
                let r = value(&mut args, "--role");
                if r != "coordinator" && r != "worker" {
                    eprintln!("--role: `coordinator` or `worker` expected\n\n{USAGE}");
                    std::process::exit(2);
                }
                role = Some(r);
            }
            "--dist-addr" => dist_addr = value(&mut args, "--dist-addr"),
            "--coordinator" => worker_cfg.coordinator = value(&mut args, "--coordinator"),
            "--worker-name" => worker_cfg.name = value(&mut args, "--worker-name"),
            "--heartbeat-ms" => {
                worker_cfg.heartbeat_ms =
                    value(&mut args, "--heartbeat-ms").parse().unwrap_or_else(|_| {
                        eprintln!("--heartbeat-ms: integer expected\n\n{USAGE}");
                        std::process::exit(2);
                    });
            }
            "--lease-deadline" => {
                let secs: f64 = value(&mut args, "--lease-deadline").parse().unwrap_or_else(|_| {
                    eprintln!("--lease-deadline: seconds expected\n\n{USAGE}");
                    std::process::exit(2);
                });
                dist_cfg.lease_deadline = Duration::from_secs_f64(secs);
            }
            "--dist-ckpt-every" => {
                dist_cfg.ckpt_every =
                    value(&mut args, "--dist-ckpt-every").parse().unwrap_or_else(|_| {
                        eprintln!("--dist-ckpt-every: integer expected\n\n{USAGE}");
                        std::process::exit(2);
                    });
            }
            "--journal" => journal = Some(PathBuf::from(value(&mut args, "--journal"))),
            "--faults" => faults = Some(value(&mut args, "--faults")),
            "--faults-seed" => {
                faults_seed = value(&mut args, "--faults-seed").parse().unwrap_or_else(|_| {
                    eprintln!("--faults-seed: integer expected\n\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unexpected argument `{other}`\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = &journal {
        cold_obs::configure(cold_obs::TraceMode::Journal(path.clone()))
            .unwrap_or_else(|e| panic!("--journal {}: {e}", path.display()));
    }
    if let Some(spec) = &faults {
        cold_fault::configure(spec, faults_seed).unwrap_or_else(|e| {
            eprintln!("--faults: {e}\n\n{USAGE}");
            std::process::exit(2);
        });
    }

    install_signal_handlers();

    // Worker role: no HTTP server at all — just the lease-pulling loop,
    // drained by the coordinator or a signal.
    if role.as_deref() == Some("worker") {
        match run_worker(&worker_cfg, &SIGNALED) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("cold-serve: worker failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if role.as_deref() == Some("coordinator") {
        dist_cfg.addr = dist_addr;
        config.dist = Some(dist_cfg);
    }

    let handle = match Server::start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cold-serve: startup failed: {e}");
            std::process::exit(1);
        }
    };
    println!("cold-serve listening on http://{}", handle.local_addr());
    if let Some(addr) = handle.dist_addr() {
        println!("cold-serve dist listening on {addr}");
    }
    std::io::stdout().flush().expect("stdout flush");

    while !SIGNALED.load(Ordering::SeqCst) && !handle.is_draining() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("cold-serve: draining (campaigns cancel at their next trial boundary)");
    handle.shutdown();
    handle.join();
    eprintln!("cold-serve: drained; unfinished jobs resume on restart");
}
