//! Full re-evaluation vs. incremental delta evaluation along a
//! GA-representative mutation chain.
//!
//! Each benchmark walks the same precomputed chain of single-edge flips
//! (starting from the MST, the GA's usual seed) and prices every step:
//! `full_reeval` calls [`evaluate_total`] from scratch, `delta` prices
//! through a [`DeltaEval`] session, which repairs each step from the
//! previous one, its current anchor. Both produce bit-identical totals (asserted before timing), so
//! the ratio is pure fitness throughput. The PR acceptance bar is ≥5×
//! at n = 200.

use cold_context::{Context, ContextConfig};
use cold_cost::{evaluate_total, CostParams, DeltaEval};
use cold_graph::components::matrix_is_connected;
use cold_graph::mst::mst_matrix;
use cold_graph::AdjacencyMatrix;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CHAIN_LEN: usize = 32;

/// A mutation chain: `chain[i+1]` differs from `chain[i]` by one flipped
/// pair, every step connected — the exact workload the GA's sessions see.
fn mutation_chain(ctx: &Context, len: usize, seed: u64) -> Vec<AdjacencyMatrix> {
    let mut topo = mst_matrix(ctx.n(), ctx.distance_fn());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chain = vec![topo.clone()];
    while chain.len() < len {
        let pair = rng.gen_range(0..topo.pair_count());
        let had = topo.bit(pair);
        topo.set_bit(pair, !had);
        if had && !matrix_is_connected(&topo) {
            topo.set_bit(pair, true); // removal disconnected; retry
            continue;
        }
        chain.push(topo.clone());
    }
    chain
}

fn bench_incremental(c: &mut Criterion) {
    for n in [50usize, 200, 500] {
        let ctx = ContextConfig::paper_default(n).generate(1);
        let params = CostParams::paper(4e-4, 10.0);
        let chain = mutation_chain(&ctx, CHAIN_LEN, 7);

        // The speedup only counts if the answers match, to the bit.
        {
            let mut session = DeltaEval::new(&ctx, params);
            for (i, pair) in chain.windows(2).enumerate() {
                let full = evaluate_total(&pair[1], &ctx, &params).unwrap();
                let delta = session.eval(&pair[1], None).unwrap();
                assert_eq!(delta.to_bits(), full.to_bits(), "n={n} step {i} diverged");
            }
        }

        let mut group = c.benchmark_group(format!("incremental_n{n}"));
        group.sample_size(10);
        group.bench_function("full_reeval", |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for t in &chain {
                    acc += evaluate_total(black_box(t), &ctx, &params).unwrap();
                }
                black_box(acc)
            });
        });
        group.bench_function("delta", |b| {
            b.iter(|| {
                // Fresh session per pass: the first step's anchor build
                // (one full evaluation) is honestly inside the timing.
                let mut session = DeltaEval::new(&ctx, params);
                let mut acc = 0.0;
                for t in &chain {
                    acc += session.eval(black_box(t), None).unwrap();
                }
                black_box(acc)
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
