//! Prometheus-style text rendering of the `cold-obs` metric registry.
//!
//! The registry stores dotted names (`serve.jobs_submitted`,
//! `cost.evaluate_total`); `/metrics` exposes them with the conventional
//! `cold_` namespace and underscores: counters and gauges as single
//! samples, histograms as cumulative `_bucket{le="..."}` series (on the
//! registry's log-scale bounds) plus `_sum` and `_count`. The previous
//! `_min`/`_max` pseudo-summary series were nonconformant — no Prometheus
//! type emits them — and are gone.

use cold_obs::registry::BUCKET_BOUNDS;
use cold_obs::Metric;

/// Counter names the serve layer increments (registered lazily on first
/// touch, like every `cold-obs` metric).
pub mod names {
    /// HTTP requests handled, any route.
    pub const HTTP_REQUESTS: &str = "serve.http_requests";
    /// Jobs accepted into the queue.
    pub const JOBS_SUBMITTED: &str = "serve.jobs_submitted";
    /// Jobs that completed and cached a result.
    pub const JOBS_COMPLETED: &str = "serve.jobs_completed";
    /// Jobs that failed terminally.
    pub const JOBS_FAILED: &str = "serve.jobs_failed";
    /// Submissions answered from the on-disk result cache.
    pub const CACHE_HITS_RESULT: &str = "serve.cache_hits_result";
    /// Submissions coalesced onto an in-flight job.
    pub const CACHE_HITS_INFLIGHT: &str = "serve.cache_hits_inflight";
    /// Submissions refused with 503 (queue at capacity).
    pub const QUEUE_REJECTIONS: &str = "serve.queue_rejections";
    /// Evolve jobs that seeded their GA population from a parent job's
    /// cached design (as opposed to falling back to a cold start).
    pub const WARM_STARTS: &str = "serve.warm_starts";
    /// Completed job directories removed by LRU cache eviction.
    pub const CACHE_EVICTIONS: &str = "serve.cache_evictions";
    /// Worker panics contained by the job boundary.
    pub const WORKER_PANICS: &str = "serve.worker_panics";
    /// Wall-clock seconds per completed job (histogram).
    pub const JOB_SECONDS: &str = "serve.job_seconds";
    /// Seconds a job waited in the queue before a worker picked it up
    /// (histogram).
    pub const JOB_QUEUE_WAIT_SECONDS: &str = "serve.job_queue_wait_seconds";
    /// Jobs currently waiting in the queue (gauge).
    pub const QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Jobs currently being executed (gauge).
    pub const JOBS_INFLIGHT: &str = "serve.jobs_inflight";
    /// Worker threads alive in the pool (gauge).
    pub const WORKERS_ACTIVE: &str = "serve.workers_active";
    /// Remote workers currently registered with the distributed
    /// coordinator (gauge; rendered as `cold_dist_workers_alive`).
    pub const DIST_WORKERS_ALIVE: &str = "dist.workers_alive";
    /// Trial leases currently outstanding across all jobs (gauge;
    /// rendered as `cold_dist_leases_active`).
    pub const DIST_LEASES_ACTIVE: &str = "dist.leases_active";
    /// GA snapshot uploads (`trial_checkpoint` frames) the coordinator
    /// received, accepted or not.
    pub const DIST_CHECKPOINT_UPLOADS: &str = "dist.checkpoint_uploads";
    /// Payload bytes of the received `trial_checkpoint` frames.
    pub const DIST_CHECKPOINT_BYTES: &str = "dist.checkpoint_bytes";
}

/// Renders the current registry snapshot as Prometheus exposition text.
pub fn render() -> String {
    let mut out = String::new();
    for (name, metric) in cold_obs::snapshot() {
        let flat = format!("cold_{}", name.replace('.', "_"));
        match metric {
            Metric::Counter(c) => {
                out.push_str(&format!("# TYPE {flat} counter\n{flat} {c}\n"));
            }
            Metric::Gauge(g) => {
                out.push_str(&format!("# TYPE {flat} gauge\n{flat} {g}\n"));
            }
            Metric::FloatGauge(g) => {
                out.push_str(&format!("# TYPE {flat} gauge\n{flat} {g}\n"));
            }
            Metric::Histogram { count, sum, buckets, .. } => {
                out.push_str(&format!("# TYPE {flat} histogram\n"));
                // Prometheus buckets are cumulative; the registry stores
                // per-bucket counts with overflow implicit in `count`.
                let mut cumulative = 0u64;
                for (bound, in_bucket) in BUCKET_BOUNDS.iter().zip(buckets) {
                    cumulative += in_bucket;
                    out.push_str(&format!("{flat}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
                }
                out.push_str(&format!(
                    "{flat}_bucket{{le=\"+Inf\"}} {count}\n{flat}_sum {sum}\n{flat}_count {count}\n"
                ));
            }
        }
    }
    out
}

/// Reads the value of counter/gauge `flat_name` out of rendered
/// exposition text — the assertion helper the smoke tests and loadgen
/// use. Matches only the exact bare sample name, never `_bucket`/`_sum`/
/// `_count` series or `# TYPE` lines that share the prefix.
pub fn parse_counter(text: &str, flat_name: &str) -> Option<u64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.split(' ').next() == Some(flat_name))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_flattens_names_and_round_trips_counters() {
        // The registry is process-global; scope this test's effect.
        cold_obs::set_timers_enabled(true);
        cold_obs::reset();
        cold_obs::counter_add(names::JOBS_SUBMITTED, 3);
        cold_obs::observe_seconds(names::JOB_SECONDS, 0.5);
        cold_obs::gauge_set(names::QUEUE_DEPTH, 4);
        let text = render();
        cold_obs::set_timers_enabled(false);
        cold_obs::reset();

        assert_eq!(parse_counter(&text, "cold_serve_jobs_submitted"), Some(3));
        assert!(text.contains("# TYPE cold_serve_jobs_submitted counter"));
        assert!(text.contains("# TYPE cold_serve_queue_depth gauge"));
        assert_eq!(parse_counter(&text, "cold_serve_queue_depth"), Some(4));
        assert!(text.contains("cold_serve_job_seconds_count 1"));
        assert!(text.contains("cold_serve_job_seconds_sum 0.5"));
        assert!(text.contains("# TYPE cold_serve_job_seconds histogram"));
        // 0.5s lands in the le="1" bucket; cumulative series reach 1 by +Inf.
        assert!(text.contains("cold_serve_job_seconds_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("cold_serve_job_seconds_bucket{le=\"+Inf\"} 1"));
        // The nonconformant pseudo-summary series are gone.
        assert!(!text.contains("_min "), "{text}");
        assert!(!text.contains("_max "), "{text}");
    }

    #[test]
    fn parse_counter_ignores_series_sharing_the_prefix() {
        let text = "# TYPE cold_x counter\ncold_x_bucket{le=\"1\"} 9\ncold_x_sum 9\ncold_x 7\n";
        assert_eq!(parse_counter(text, "cold_x"), Some(7));
        assert_eq!(parse_counter(text, "cold_x_sum"), Some(9));
        assert_eq!(parse_counter(text, "cold_missing"), None);
    }
}
