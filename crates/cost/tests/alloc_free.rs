//! A warmed-up [`DeltaEval`] session allocates nothing per evaluation:
//! full passes, repairs from the current or an older pooled anchor, and
//! duplicates all reuse the session's buffers, and a full pool recycles
//! its evicted anchor's.
//!
//! The global allocator below counts allocations on the calling thread
//! only, so tests running on other threads do not disturb the count.

use cold_context::ContextConfig;
use cold_cost::{evaluate_total, CostParams, DeltaEval};
use cold_graph::components::matrix_is_connected;
use cold_graph::mst::mst_matrix;
use cold_graph::AdjacencyMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts allocations and reallocations per thread, then defers to the
/// system allocator.
struct Counting;

fn count() {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter
// is a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// A walk at a constant edge count: each step starts from the previous
/// topology or, one time in four, from a random earlier one, and makes
/// 0–2 swaps (drop an edge, keeping the graph connected, and add an absent
/// pair). A session with `max_flips = 2` repairs one-swap steps, answers
/// revisits from the pool and runs a full pass on most two-swap steps.
fn walk(start: AdjacencyMatrix, steps: usize, seed: u64) -> Vec<AdjacencyMatrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs = start.pair_count();
    let mut chain = vec![start];
    for _ in 0..steps {
        let from =
            if rng.gen_range(0..4) == 0 { rng.gen_range(0..chain.len()) } else { chain.len() - 1 };
        let mut t = chain[from].clone();
        for _ in 0..rng.gen_range(0..=2) {
            loop {
                let p = rng.gen_range(0..pairs);
                if t.bit(p) {
                    t.set_bit(p, false);
                    if matrix_is_connected(&t) {
                        break;
                    }
                    t.set_bit(p, true);
                }
            }
            loop {
                let p = rng.gen_range(0..pairs);
                if !t.bit(p) {
                    t.set_bit(p, true);
                    break;
                }
            }
        }
        chain.push(t);
    }
    chain
}

#[test]
fn a_warmed_up_session_allocates_nothing_per_evaluation() {
    let n = 30;
    let ctx = ContextConfig::paper_default(n).generate(5);
    let params = CostParams::paper(4e-4, 10.0);
    let mut start = mst_matrix(n, ctx.distance_fn());
    for p in (0..start.pair_count()).step_by(37) {
        start.set_bit(p, true);
    }
    let warm = walk(start, 800, 1);
    let measured = walk(warm[warm.len() - 1].clone(), 300, 2);
    let want: Vec<u64> =
        measured.iter().map(|t| evaluate_total(t, &ctx, &params).unwrap().to_bits()).collect();

    let mut session = DeltaEval::with_limits(&ctx, params, 2);
    for t in &warm {
        session.eval(t, None).unwrap();
    }
    let (delta, full, reanchors) =
        (session.delta_evals(), session.full_evals(), session.reanchors());
    let mut got = Vec::with_capacity(measured.len());
    let before = allocations();
    for t in &measured {
        got.push(session.eval(t, None).unwrap().to_bits());
    }
    let allocated = allocations() - before;

    assert_eq!(got, want, "every cost is bit-identical to evaluate_total");
    assert!(session.full_evals() > full, "the measured run includes full passes");
    assert!(session.delta_evals() > delta, "and repairs");
    assert!(session.reanchors() > reanchors, "and re-anchors on older pooled anchors");
    assert_eq!(allocated, 0, "a warmed-up session allocated {allocated} times");
}
