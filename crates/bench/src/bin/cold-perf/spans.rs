//! In-memory spans for the traced run, and per-layer self time.
//!
//! A span's name is `layer.what` (`ga.breed`, `cost.eval`); the root span
//! of every operation is `op`, so its self time is the part of the
//! operation no layer accounts for. Spans stay in memory and are written
//! once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval, in seconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what`, or `op` for an operation's root.
    pub name: &'static str,
    /// One id per network, front or job.
    pub trace: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
}

impl Span {
    /// The layer the span's self time is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans against one epoch.
#[derive(Debug, Clone)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose epoch is now.
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    /// A recorder sharing `self`'s epoch, for another thread.
    pub fn fork(&self) -> Self {
        Self { epoch: self.epoch, spans: Vec::new() }
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// `t` as seconds since the epoch.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Opens a span starting now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, trace: u64, parent: Option<usize>) -> usize {
        let now = self.now();
        self.record(name, trace, parent, now, f64::NAN)
    }

    /// Ends span `id` now and returns its duration.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now();
        let span = &mut self.spans[id];
        span.end = now;
        span.end - span.start
    }

    /// Adds a span whose interval was measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> usize {
        self.spans.push(Span { name, trace, parent, start, end });
        self.spans.len() - 1
    }

    /// Appends another recorder's spans (same epoch), re-pointing parents.
    pub fn absorb(&mut self, other: Spans) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer: each span's duration minus the part of its
    /// interval that its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered: Vec<(f64, f64)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start.max(s.start), self.spans[c].end.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut union = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            *out.entry(s.layer()).or_insert(0.0) += (s.end - s.start) - union;
        }
        out
    }

    /// The spans and per-layer self times as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> serde_json::Value {
        let mut layers = serde_json::Map::new();
        for (layer, seconds) in self.self_times() {
            layers.insert(layer.to_string(), serde_json::json!(seconds));
        }
        let spans: Vec<serde_json::Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                serde_json::json!({
                    "id": id,
                    "name": s.name,
                    "trace": s.trace,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                })
            })
            .collect();
        serde_json::json!({
            "workload": workload,
            "seed": seed,
            "self_seconds": serde_json::Value::Object(layers),
            "spans": spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::new();
        let root = s.record("op", 1, None, 0.0, 10.0);
        let ga = s.record("ga.run", 1, Some(root), 1.0, 9.0);
        // Overlapping children count once; the overhang past the parent
        // is clipped.
        s.record("cost.eval", 1, Some(ga), 2.0, 5.0);
        s.record("cost.eval", 1, Some(ga), 4.0, 6.0);
        s.record("ga.breed", 1, Some(ga), 8.0, 12.0);
        let t = s.self_times();
        assert!((t["op"] - 2.0).abs() < 1e-12);
        assert!((t["cost"] - 5.0).abs() < 1e-12);
        // ga.run: 8 s minus 4 s (2..6) minus 1 s (8..9), plus breed's 4 s.
        assert!((t["ga"] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let mut a = Spans::new();
        a.record("op", 1, None, 0.0, 1.0);
        let mut b = a.fork();
        let root = b.record("op", 2, None, 0.0, 2.0);
        b.record("serve.submit", 2, Some(root), 0.5, 1.5);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!((a.self_times()["op"] - 2.0).abs() < 1e-12);
    }
}
