//! Benches for the GA's objective hot path.
//!
//! `seed_path` is a faithful replica of the evaluation pipeline as of the
//! growth seed (commit b75725a): per-source fresh Dijkstra allocations, a
//! comparator sort of the subtree order, a pair-indexed edge-slot table
//! rebuilt per call, materialized shortest-path trees, and a capacity plan
//! that clones the edge and load vectors. `lean_evaluate_total` is the
//! current GA fitness call: one thread-local `RoutingState` build (CSR
//! Dijkstra per source into reused rows, per-source priced demand), no
//! link loads, no plan. The acceptance bar was ≥2× objective evaluation
//! throughput at n = 50 on GA-representative topologies.

use cold::{ColdConfig, ColdObjective};
use cold_cost::{evaluate_total, CostEvaluator, CostParams};
use cold_ga::{GaSettings, GeneticAlgorithm};
use cold_graph::AdjacencyMatrix;
use cold_heuristics::{greedy_attachment, mst_heuristic};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const N: usize = 50;

/// The seed commit's objective evaluation, reproduced verbatim for an
/// honest before/after comparison inside one binary (hence the lint allow:
/// the replica must keep the seed's exact loop shape).
#[allow(clippy::needless_range_loop)]
mod seed_replica {
    use cold_context::Context;
    use cold_cost::CostParams;
    use cold_graph::shortest_path::{dijkstra, ShortestPathTree};
    use cold_graph::{AdjacencyMatrix, Graph, GraphError};

    struct SeedRouting {
        edges: Vec<(usize, usize)>,
        load: Vec<f64>,
        traffic_weighted_route_length: f64,
        #[allow(dead_code)]
        trees: Vec<ShortestPathTree>,
    }

    fn route_traffic(
        g: &Graph,
        len: impl Fn(usize, usize) -> f64 + Copy,
        traffic: impl Fn(usize, usize) -> f64,
    ) -> Result<SeedRouting, GraphError> {
        let n = g.n();
        let edges: Vec<(usize, usize)> = g.edges().collect();
        let matrix = AdjacencyMatrix::empty(n);
        let mut edge_slot = vec![usize::MAX; matrix.pair_count()];
        for (i, &(u, v)) in edges.iter().enumerate() {
            edge_slot[matrix.pair_index(u, v)] = i;
        }
        let mut load = vec![0.0f64; edges.len()];
        let mut weighted_len = 0.0f64;
        let mut trees = Vec::with_capacity(n);
        for s in 0..n {
            let tree = dijkstra(g, s, len);
            let mut order: Vec<usize> =
                (0..n).filter(|&v| v != s && tree.dist[v].is_finite()).collect();
            order.sort_by(|&a, &b| tree.dist[b].total_cmp(&tree.dist[a]).then(b.cmp(&a)));
            let mut demand = vec![0.0f64; n];
            for t in 0..n {
                if t == s {
                    continue;
                }
                let d = traffic(s, t);
                if d > 0.0 {
                    if !tree.dist[t].is_finite() {
                        return Err(GraphError::Disconnected);
                    }
                    demand[t] += d;
                    weighted_len += d * tree.dist[t];
                }
            }
            for &v in &order {
                let p = tree.parent[v];
                if demand[v] > 0.0 {
                    load[edge_slot[matrix.pair_index(p, v)]] += demand[v];
                    demand[p] += demand[v];
                }
            }
            trees.push(tree);
        }
        Ok(SeedRouting { edges, load, traffic_weighted_route_length: weighted_len, trees })
    }

    /// Seed `evaluate`: `assign_capacities` (with its clones) + breakdown.
    pub fn evaluate(
        topology: &AdjacencyMatrix,
        ctx: &Context,
        params: &CostParams,
    ) -> Result<f64, GraphError> {
        params.validate().expect("valid params");
        if topology.n() != ctx.n() {
            return Err(GraphError::SizeMismatch { expected: ctx.n(), actual: topology.n() });
        }
        let g = topology.to_graph();
        let dist = ctx.distance_fn();
        let routing = route_traffic(&g, dist, ctx.traffic_fn())?;
        let length: Vec<f64> = routing.edges.iter().map(|&(u, v)| dist(u, v)).collect();
        let capacity: Vec<f64> = routing.load.iter().map(|&w| params.overprovision * w).collect();
        let edges = routing.edges.clone();
        let load = routing.load.clone();
        let existence = params.k0 * edges.len() as f64;
        let len_cost = params.k1 * length.iter().sum::<f64>();
        let bandwidth = params.k2 * routing.traffic_weighted_route_length;
        let hub = params.k3 * topology.degrees().iter().filter(|&&d| d > 1).count() as f64;
        std::hint::black_box((&capacity, &load));
        Ok(existence + len_cost + bandwidth + hub)
    }
}

/// GA-representative topologies at n = 50: the sparse MST, the greedy
/// attachment's denser output, and an MST thickened with chords (the kind
/// of mid-density candidate crossover produces).
fn topologies() -> (cold_context::Context, CostParams, Vec<AdjacencyMatrix>) {
    let cfg = ColdConfig::paper(N, 4e-4, 10.0);
    let ctx = cfg.context.generate(1);
    let eval = CostEvaluator::new(&ctx, cfg.params);
    let mst = mst_heuristic(&eval).topology;
    let greedy = greedy_attachment(&eval).topology;
    let mut thick = mst.clone();
    for i in (0..N - 5).step_by(3) {
        thick.set_edge(i, i + 5, true);
    }
    (ctx, cfg.params, vec![mst, greedy, thick])
}

fn bench_objective_paths(c: &mut Criterion) {
    let (ctx, params, topos) = topologies();
    // The two paths must agree before we compare their speed. The seed kept
    // one flat running sum for Σ t·L while the current path sums per source
    // first, so the totals differ by reassociation noise (~1 ULP), not more.
    for t in &topos {
        let seed = seed_replica::evaluate(t, &ctx, &params).unwrap();
        let lean = evaluate_total(t, &ctx, &params).unwrap();
        assert!(
            (seed - lean).abs() <= 1e-9 * seed.abs(),
            "seed replica ({seed}) and lean path ({lean}) disagree"
        );
    }
    let mut group = c.benchmark_group("objective_n50");
    group.bench_function("seed_path", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for t in &topos {
                acc += seed_replica::evaluate(black_box(t), &ctx, &params).unwrap();
            }
            black_box(acc)
        });
    });
    group.bench_function("lean_evaluate_total", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for t in &topos {
                acc += evaluate_total(black_box(t), &ctx, &params).unwrap();
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_ga_fitness_cache(c: &mut Criterion) {
    // Whole-GA view: the memo cache skips routing for duplicate offspring.
    let cfg = ColdConfig::paper(30, 4e-4, 10.0);
    let ctx = cfg.context.generate(2);
    let settings = GaSettings {
        generations: 10,
        population: 20,
        num_saved: 4,
        num_crossover: 10,
        num_mutation: 6,
        parallel: false,
        ..GaSettings::quick(5)
    };
    let mut group = c.benchmark_group("ga_fitness_cache_n30");
    group.sample_size(10);
    for cache in [false, true] {
        let label = if cache { "cache_on" } else { "cache_off" };
        group.bench_function(label, |b| {
            b.iter(|| {
                let obj = ColdObjective::new(&ctx, cfg.params);
                let s = GaSettings { fitness_cache: cache, ..settings };
                black_box(GeneticAlgorithm::new(&obj, s).run().best.cost)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_objective_paths, bench_ga_fitness_cache);
criterion_main!(benches);
