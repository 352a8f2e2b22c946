//! The host's pace: a fixed reference computation timed beside the
//! measured operations, so that CPU-bound latency can be reported at a
//! reference host speed.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by up to 1.5x over spells of seconds to tens of seconds, and a whole
//! run can land in one spell. The reference does the kinds of work a
//! synthesis does (all-pairs shortest paths on a dense graph, Dijkstra on
//! a sparse one, hashing with allocation, sorting) in code of the
//! benchmark's own, so a change to the program cannot move it. An
//! operation's time scaled by [`REF_MS`] over the reference's time
//! measured just before and just after it keeps what the program did and
//! cancels most of the drift: over ten 20 s runs per workload, in-process
//! latency spread 0.013-0.046 scaled, against 0.046-0.114 unscaled.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The reference time, in ms, that scaled latencies are reported at: a
/// scaled latency reads as the latency on a host that runs the reference
/// in 25 ms. On the baseline's host, 90% of its runs took 18-28 ms.
pub const REF_MS: f64 = 25.0;

/// xorshift64: the reference's inputs, the same on every call.
fn next(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Floyd-Warshall on a dense random graph of `n` nodes, `reps` times.
fn all_pairs(n: usize, reps: usize) -> f64 {
    let mut s = 0x9E37_79B9_7F4A_7C15;
    let base: Vec<f64> = (0..n * n)
        .map(|k| if k % (n + 1) == 0 { 0.0 } else { (next(&mut s) % 1000) as f64 + 1.0 })
        .collect();
    let mut acc = 0.0;
    for _ in 0..reps {
        let mut d = base.clone();
        for k in 0..n {
            for i in 0..n {
                let dik = d[i * n + k];
                for j in 0..n {
                    let via = dik + d[k * n + j];
                    if via < d[i * n + j] {
                        d[i * n + j] = via;
                    }
                }
            }
        }
        acc += d[n * n - 1];
    }
    acc
}

/// Dijkstra with a binary heap on a sparse random graph of `n` nodes,
/// from `reps` sources.
fn shortest_paths(n: usize, reps: usize) -> f64 {
    let mut s = 0x0123_4567_89AB_CDEF;
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for u in 0..n {
        for _ in 0..4 {
            let r = next(&mut s);
            let (v, w) = ((r % n as u64) as usize, ((r >> 20) % 100) as f64 + 1.0);
            adj[u].push((v, w));
            adj[v].push((u, w));
        }
    }
    let mut acc = 0.0;
    for src in (0..reps).map(|r| r % n) {
        let mut dist = vec![f64::INFINITY; n];
        let mut heap = BinaryHeap::new();
        dist[src] = 0.0;
        heap.push(Reverse((0u64, src)));
        while let Some(Reverse((bits, u))) = heap.pop() {
            let d = f64::from_bits(bits);
            if d > dist[u] {
                continue;
            }
            for &(v, w) in &adj[u] {
                if d + w < dist[v] {
                    dist[v] = d + w;
                    heap.push(Reverse(((d + w).to_bits(), v)));
                }
            }
        }
        acc += dist.iter().sum::<f64>();
    }
    acc
}

/// Inserts, updates and removes `ops` heap-allocated entries of a hash
/// map.
fn hashing(ops: u64) -> usize {
    let mut map: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut acc = 0;
    for i in 0..ops {
        let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 5000;
        let entry = map.entry(k).or_insert_with(|| vec![0u8; 64 + (k % 200) as usize]);
        entry[0] = entry[0].wrapping_add(1);
        acc += entry.len();
        if i % 3 == 0 {
            map.remove(&(k ^ 1));
        }
    }
    acc
}

/// Sorts `reps` vectors of `n` floats.
fn sorting(n: usize, reps: usize) -> f64 {
    let mut acc = 0.0;
    for r in 0..reps {
        let mut v: Vec<f64> = (0..n).map(|i| ((i * 7919 + r * 31) % 10007) as f64 * 0.37).collect();
        v.sort_by(f64::total_cmp);
        acc += v[n / 2];
    }
    acc
}

/// The reference work; its result is a checksum of every part.
fn work() -> f64 {
    black_box(all_pairs(black_box(40), 60))
        + black_box(shortest_paths(black_box(400), 60))
        + black_box(hashing(black_box(80_000))) as f64
        + black_box(sorting(black_box(2000), 80))
}

/// Times the reference work once, in ms.
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    black_box(work());
    start.elapsed().as_secs_f64() * 1e3
}

/// `took_s` (seconds) in ms at the reference speed, given the reference's
/// times (ms) just before and just after it.
pub fn scaled_ms(took_s: f64, before_ms: f64, after_ms: f64) -> f64 {
    took_s * 1e3 * REF_MS / (0.5 * (before_ms + after_ms))
}

/// Calls `op` for repetitions `0..reps`, timing the reference work before
/// each call and after the last. `op` returns the seconds it measured;
/// the result holds those seconds and the same at the reference speed.
pub fn paced<E>(
    reps: usize,
    mut op: impl FnMut(usize) -> Result<f64, E>,
) -> Result<(Vec<f64>, Vec<f64>), E> {
    let mut reference = vec![reference_ms()];
    let mut took = Vec::with_capacity(reps);
    for rep in 0..reps {
        took.push(op(rep)?);
        reference.push(reference_ms());
    }
    let scaled = took
        .iter()
        .enumerate()
        .map(|(k, &s)| 1e-3 * scaled_ms(s, reference[k], reference[k + 1]))
        .collect();
    Ok((took, scaled))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `REF_MS` holds only for this exact work: any edit to the reference
    /// changes the checksum, and must re-measure `REF_MS` and the
    /// baseline.
    #[test]
    fn reference_work_is_fixed() {
        assert_eq!(work(), 15292360.9, "checksum");
    }

    #[test]
    fn scaling_keeps_time_at_reference_speed() {
        assert_eq!(scaled_ms(0.5, REF_MS, REF_MS), 500.0);
        // A host running at half speed takes twice as long for both.
        assert_eq!(scaled_ms(1.0, 2.0 * REF_MS, 2.0 * REF_MS), 500.0);
        assert_eq!(scaled_ms(1.0, REF_MS, 3.0 * REF_MS), 500.0);
    }
}
