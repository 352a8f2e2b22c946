//! Property-based pin: incremental delta evaluation is bit-identical to
//! a from-scratch [`evaluate_total`] along random mutation chains.
//!
//! Two sessions ride every chain: a *wide* one whose `max_flips` admits
//! every single-edge repair (so the incremental path is actually
//! exercised), and a *tight* one (`max_flips = 2`) that a forced
//! multi-edge batch per chain pushes past its fallback boundary. Both
//! must agree with the full recomputation on every step, to the bit.
//!
//! A revisit schedule exercises the anchor pool: each step jumps back to
//! a random earlier member of the chain and flips 0–3 pairs, so the
//! nearest pooled anchor is often not the current one.

use cold_context::ContextConfig;
use cold_cost::{evaluate_total, CostParams, DeltaEval};
use cold_graph::components::matrix_is_connected;
use cold_graph::mst::mst_matrix;
use cold_graph::AdjacencyMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Flips one random pair, retrying removals that would disconnect.
fn random_connected_flip(topo: &mut AdjacencyMatrix, rng: &mut StdRng) {
    loop {
        let pair = rng.gen_range(0..topo.pair_count());
        let had = topo.bit(pair);
        topo.set_bit(pair, !had);
        if !had || matrix_is_connected(topo) {
            return;
        }
        topo.set_bit(pair, true); // removal disconnected; try again
    }
}

/// Adds `count` currently-absent edges (connectivity can only improve).
fn add_absent_edges(topo: &mut AdjacencyMatrix, count: usize) {
    let mut added = 0;
    for pair in 0..topo.pair_count() {
        if !topo.bit(pair) {
            topo.set_bit(pair, true);
            added += 1;
            if added == count {
                return;
            }
        }
    }
    panic!("topology too dense to add {count} edges");
}

/// Runs one mutation chain at size `n`, checking every step against the
/// full recomputation for both sessions.
fn check_chain(n: usize, steps: usize, seed: u64, k2: f64, k3: f64) -> Result<(), TestCaseError> {
    let ctx = ContextConfig::paper_default(n).generate(seed);
    let params = CostParams::paper(k2, k3);
    // Wide: `max_flips` sized so single-flip repairs always stay
    // incremental. Tight: `max_flips = 2`, crossed by the forced batch
    // below.
    let mut wide = DeltaEval::with_limits(&ctx, params, 64);
    let mut tight = DeltaEval::with_limits(&ctx, params, 2);
    let mut topo = mst_matrix(n, ctx.distance_fn());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_cafe);
    let check = |topo: &AdjacencyMatrix,
                 prev: Option<&AdjacencyMatrix>,
                 wide: &mut DeltaEval,
                 tight: &mut DeltaEval|
     -> Result<(), TestCaseError> {
        let full = evaluate_total(topo, &ctx, &params).unwrap();
        let a = wide.eval(topo, prev).unwrap();
        let b = tight.eval(topo, prev).unwrap();
        prop_assert_eq!(a.to_bits(), full.to_bits(), "wide session diverged");
        prop_assert_eq!(b.to_bits(), full.to_bits(), "tight session diverged");
        Ok(())
    };
    for _ in 0..steps {
        let prev = topo.clone();
        random_connected_flip(&mut topo, &mut rng);
        check(&topo, Some(&prev), &mut wide, &mut tight)?;
    }
    // Forced threshold crossing: a three-edge batch exceeds the tight
    // session's `max_flips = 2`, guaranteeing a diff-stage fallback.
    let tight_fulls_before = tight.full_evals();
    add_absent_edges(&mut topo, 3);
    check(&topo, None, &mut wide, &mut tight)?;
    prop_assert!(
        tight.full_evals() > tight_fulls_before,
        "a 3-edge batch must fall back past max_flips = 2"
    );
    prop_assert!(wide.delta_evals() > 0, "wide session never took the incremental path");
    Ok(())
}

/// Runs a revisit schedule at size `n`: every step starts from a random
/// earlier member of the chain and flips 0–3 pairs. Two sessions — the
/// default one and a narrow one (`max_flips = 3`) that can only repair
/// from an anchor at most three flips away — must match the full
/// recomputation to the bit on every step.
fn check_revisits(
    n: usize,
    steps: usize,
    seed: u64,
    k2: f64,
    k3: f64,
) -> Result<(), TestCaseError> {
    let ctx = ContextConfig::paper_default(n).generate(seed);
    let params = CostParams::paper(k2, k3);
    let mut default = DeltaEval::new(&ctx, params);
    let mut narrow = DeltaEval::with_limits(&ctx, params, 3);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e71_5175);
    let mut chain = vec![mst_matrix(n, ctx.distance_fn())];
    for step in 0..=steps {
        let mut topo = chain[rng.gen_range(0..chain.len())].clone();
        if step > 0 {
            for _ in 0..rng.gen_range(0..=3) {
                random_connected_flip(&mut topo, &mut rng);
            }
        }
        let full = evaluate_total(&topo, &ctx, &params).unwrap();
        let a = default.eval(&topo, None).unwrap();
        let b = narrow.eval(&topo, None).unwrap();
        prop_assert_eq!(a.to_bits(), full.to_bits(), "default session diverged at step {}", step);
        prop_assert_eq!(b.to_bits(), full.to_bits(), "narrow session diverged at step {}", step);
        chain.push(topo);
    }
    prop_assert!(narrow.reanchors() > 0, "no step repaired from an older pooled anchor");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn delta_matches_full_recompute_n20(
        seed in 0u64..1000,
        lk2 in -12f64..-6.0,
        k3 in proptest::option::of(1f64..500.0),
    ) {
        check_chain(20, 12, seed, lk2.exp(), k3.unwrap_or(0.0))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn delta_matches_full_recompute_n80(
        seed in 0u64..1000,
        lk2 in -12f64..-6.0,
        k3 in proptest::option::of(1f64..500.0),
    ) {
        check_chain(80, 8, seed, lk2.exp(), k3.unwrap_or(0.0))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn delta_matches_full_recompute_n200(
        seed in 0u64..1000,
        lk2 in -12f64..-6.0,
        k3 in proptest::option::of(1f64..500.0),
    ) {
        check_chain(200, 5, seed, lk2.exp(), k3.unwrap_or(0.0))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn pooled_revisits_match_full_recompute_n20(
        seed in 0u64..1000,
        lk2 in -12f64..-6.0,
        k3 in proptest::option::of(1f64..500.0),
    ) {
        check_revisits(20, 40, seed, lk2.exp(), k3.unwrap_or(0.0))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn pooled_revisits_match_full_recompute_n80(
        seed in 0u64..1000,
        lk2 in -12f64..-6.0,
        k3 in proptest::option::of(1f64..500.0),
    ) {
        check_revisits(80, 20, seed, lk2.exp(), k3.unwrap_or(0.0))?;
    }
}
