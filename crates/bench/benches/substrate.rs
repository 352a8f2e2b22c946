//! Criterion benches for the algorithmic substrate: APSP/routing (the
//! dominant O(n³) term of Fig 4), cost evaluation, and the dK census of
//! Fig 1.

use cold_context::ContextConfig;
use cold_cost::{CostEvaluator, CostParams};
use cold_graph::mst::mst_matrix;
use cold_graph::routing::RoutingState;
use cold_graph::shortest_path::apsp;
use cold_graph::subgraphs::dk_parameter_count;
use cold_graph::AdjacencyMatrix;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_apsp(c: &mut Criterion) {
    let mut group = c.benchmark_group("apsp");
    for n in [30usize, 100, 200] {
        let ctx = ContextConfig::paper_default(n).generate(1);
        // Route over a moderately meshy graph: MST plus shortcuts.
        let mut topo = mst_matrix(n, ctx.distance_fn());
        for i in 0..n / 2 {
            topo.set_edge(i, (i + n / 2) % n, true);
        }
        let g = topo.to_graph();
        let dist = ctx.distance_fn();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(apsp(&g, dist)));
        });
    }
    group.finish();
}

fn bench_routing_and_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost_eval");
    for n in [30usize, 100] {
        let ctx = ContextConfig::paper_default(n).generate(2);
        let eval = CostEvaluator::new(&ctx, CostParams::paper(4e-4, 10.0));
        let mst = mst_matrix(n, ctx.distance_fn());
        let clique = AdjacencyMatrix::complete(n);
        group.bench_with_input(BenchmarkId::new("mst", n), &n, |b, _| {
            b.iter(|| black_box(eval.cost(&mst).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("clique", n), &n, |b, _| {
            b.iter(|| black_box(eval.cost(&clique).unwrap()));
        });
        let mut routing = RoutingState::new();
        group.bench_with_input(BenchmarkId::new("routing_state_loads", n), &n, |b, _| {
            b.iter(|| {
                routing.build(&mst, ctx.distance_fn(), ctx.traffic_fn()).unwrap();
                black_box(routing.link_loads(ctx.traffic_fn()).unwrap())
            });
        });
    }
    group.finish();
}

fn bench_dk_census(c: &mut Criterion) {
    let mut group = c.benchmark_group("dk_count");
    for n in [15usize, 25] {
        let ctx = ContextConfig::paper_default(n).generate(3);
        let topo = mst_matrix(n, ctx.distance_fn());
        let g = topo.to_graph();
        for d in [2usize, 3] {
            group.bench_with_input(BenchmarkId::new(format!("d{d}"), n), &n, |b, _| {
                b.iter(|| black_box(dk_parameter_count(&g, d)));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_apsp, bench_routing_and_cost, bench_dk_census);
criterion_main!(benches);
