//! Criterion benches for the optimizers: the GA (Fig 4's subject, plus the
//! parallel-evaluation ablation) and the §5 greedy heuristics.

use cold::{ColdConfig, ColdMultiObjective, ColdObjective, SynthesisMode};
use cold_cost::{CostEvaluator, CostParams, Network};
use cold_ga::chromosome::{inverse_cost_weights, weighted_pick};
use cold_ga::crossover::{crossover_child, select_parents};
use cold_ga::mutation::mutate;
use cold_ga::repair::{repair, RepairStats};
use cold_ga::{hypervolume, GaSettings, GeneticAlgorithm, Individual, Objective, ParetoGa};
use cold_graph::AdjacencyMatrix;
use cold_heuristics::{
    all_heuristics, all_heuristics_on, complete_heuristic, greedy_attachment, mst_heuristic,
    random_greedy, RandomGreedyConfig,
};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Small GA settings so the bench iterates in reasonable time; scaling
/// shape (Fig 4) comes from varying n at fixed T = M.
fn bench_settings(seed: u64, parallel: bool) -> GaSettings {
    GaSettings {
        generations: 10,
        population: 20,
        num_saved: 4,
        num_crossover: 10,
        num_mutation: 6,
        parallel,
        ..GaSettings::quick(seed)
    }
}

fn bench_ga_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ga_runtime");
    group.sample_size(10);
    for n in [10usize, 20, 40] {
        let cfg = ColdConfig::paper(n, 4e-4, 10.0);
        let ctx = cfg.context.generate(1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let obj = ColdObjective::new(&ctx, cfg.params);
                let ga = GeneticAlgorithm::new(&obj, bench_settings(7, false));
                black_box(ga.run().best.cost)
            });
        });
    }
    group.finish();
}

fn bench_ga_parallelism(c: &mut Criterion) {
    // The parallel-evaluation ablation: same GA, serial vs threaded
    // fitness evaluation (worthwhile from moderate n upward).
    let mut group = c.benchmark_group("ga_parallel");
    group.sample_size(10);
    let n = 60;
    let cfg = ColdConfig::paper(n, 4e-4, 10.0);
    let ctx = cfg.context.generate(2);
    for parallel in [false, true] {
        let label = if parallel { "parallel" } else { "serial" };
        group.bench_function(label, |b| {
            b.iter(|| {
                let obj = ColdObjective::new(&ctx, cfg.params);
                let ga = GeneticAlgorithm::new(&obj, bench_settings(8, parallel));
                black_box(ga.run().best.cost)
            });
        });
    }
    group.finish();
}

/// One generation's offspring, bred as the engine breeds them: crossover
/// children from tournament parents, then mutants of inverse-cost picks.
fn breed<O: Objective>(
    population: &[Individual],
    objective: &O,
    settings: &GaSettings,
    rng: &mut StdRng,
) -> Vec<AdjacencyMatrix> {
    let mut children = Vec::with_capacity(settings.num_crossover + settings.num_mutation);
    for _ in 0..settings.num_crossover {
        let parents = select_parents(population, settings, rng);
        children.push(crossover_child(
            population,
            &parents,
            settings.uniform_crossover_weights,
            rng,
        ));
    }
    let weights = inverse_cost_weights(population);
    for _ in 0..settings.num_mutation {
        let src = weighted_pick(&weights, rng.gen_range(0.0..1.0));
        let mut child = population[src].topology.clone();
        mutate(&mut child, objective, settings, None, rng);
        children.push(child);
    }
    children
}

fn bench_ga_operators(c: &mut Criterion) {
    // The GA's serial operators for one generation at the paper's
    // proportions (M = 100: 50 crossover and 30 mutation offspring), on
    // the population a one-generation run leaves. `ga_breed` selects,
    // crosses and mutates; `ga_repair` copies those 80 offspring and
    // repairs each.
    let fixtures: Vec<_> = [30usize, 200]
        .into_iter()
        .map(|n| {
            let cfg = ColdConfig::paper(n, 4e-4, 10.0);
            let ctx = cfg.context.generate(5);
            let settings = GaSettings { generations: 1, ..GaSettings::paper_default(5) };
            let population = GeneticAlgorithm::new(&ColdObjective::new(&ctx, cfg.params), settings)
                .run()
                .final_population;
            (n, cfg, ctx, settings, population)
        })
        .collect();
    let mut group = c.benchmark_group("ga_breed");
    for (n, cfg, ctx, settings, population) in &fixtures {
        let obj = ColdObjective::new(ctx, cfg.params);
        group.bench_with_input(BenchmarkId::from_parameter(n), population, |b, population| {
            let mut rng = StdRng::seed_from_u64(6);
            b.iter(|| breed(population, &obj, settings, &mut rng).len());
        });
    }
    group.finish();
    let mut group = c.benchmark_group("ga_repair");
    for (n, cfg, ctx, settings, population) in &fixtures {
        let obj = ColdObjective::new(ctx, cfg.params);
        let children = breed(population, &obj, settings, &mut StdRng::seed_from_u64(6));
        group.bench_with_input(BenchmarkId::from_parameter(n), &children, |b, children| {
            b.iter(|| {
                let mut stats = RepairStats::default();
                for child in children {
                    repair(&mut child.clone(), &obj, &mut stats);
                }
                stats.repaired
            });
        });
    }
    group.finish();
}

fn bench_heuristics(c: &mut Criterion) {
    let mut group = c.benchmark_group("heuristics");
    let n = 20;
    let ctx = ColdConfig::paper(n, 4e-4, 10.0).context.generate(3);
    let eval = CostEvaluator::new(&ctx, CostParams::paper(4e-4, 10.0));
    group.bench_function("complete", |b| b.iter(|| black_box(complete_heuristic(&eval).cost)));
    group.bench_function("mst", |b| b.iter(|| black_box(mst_heuristic(&eval).cost)));
    group.bench_function("greedy_attachment", |b| {
        b.iter(|| black_box(greedy_attachment(&eval).cost))
    });
    group.bench_function("random_greedy_x3", |b| {
        b.iter(|| black_box(random_greedy(&eval, &RandomGreedyConfig { permutations: 3 }, 4).cost))
    });
    // The initialized GA's seeding: all four heuristics at the quick
    // (n = 12, 3 permutations) and paper (n = 30, 10 permutations) sizes,
    // on one executor worker (`all_heuristics_w1`) and on two.
    for (n, permutations) in [(12usize, 3usize), (30, 10)] {
        let ctx = ColdConfig::paper(n, 4e-4, 10.0).context.generate(3);
        let eval = CostEvaluator::new(&ctx, CostParams::paper(4e-4, 10.0));
        let cfg = RandomGreedyConfig { permutations };
        for workers in [1, 2] {
            let id = BenchmarkId::new(format!("all_heuristics_w{workers}"), n);
            group.bench_with_input(id, &cfg, |b, cfg| {
                b.iter(|| black_box(all_heuristics_on(&eval, cfg, 4, workers).len()))
            });
        }
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesize");
    group.sample_size(10);
    let mut cfg = ColdConfig::quick(15, 4e-4, 10.0);
    cfg.ga = bench_settings(9, false);
    for mode in [SynthesisMode::GaOnly, SynthesisMode::Initialized] {
        let label = match mode {
            SynthesisMode::GaOnly => "plain_ga",
            SynthesisMode::Initialized => "initialized",
        };
        let cfg = ColdConfig { mode, ..cfg };
        group.bench_function(label, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(cfg.synthesize(seed).best_cost())
            });
        });
    }
    group.finish();
}

fn bench_pareto(c: &mut Criterion) {
    // NSGA-II vs the scalar GA at the same budget, plus the exact
    // hypervolume computation over a realistic archive-sized front.
    let mut group = c.benchmark_group("pareto");
    group.sample_size(10);
    let n = 15;
    let cfg = ColdConfig::paper(n, 4e-4, 10.0);
    let ctx = cfg.context.generate(4);
    group.bench_function("nsga2_run", |b| {
        b.iter(|| {
            let obj = ColdMultiObjective::new(&ctx, cfg.params);
            let ga = ParetoGa::try_new(&obj, bench_settings(7, false), 32).unwrap();
            black_box(ga.try_run_traced(&[], None).unwrap().front.len())
        });
    });
    let obj = ColdMultiObjective::new(&ctx, cfg.params);
    let ga = ParetoGa::try_new(&obj, bench_settings(7, false), 32).unwrap();
    let result = ga.try_run_traced(&[], None).unwrap();
    let points: Vec<Vec<f64>> = result.front.iter().map(|p| p.objectives.clone()).collect();
    group.bench_function("hypervolume_exact", |b| {
        b.iter(|| black_box(hypervolume(&points, &result.reference)));
    });
    // Objective 2's kernel without the GA around it: the single-link
    // failure sweep over the heuristic seeds of a Pareto run, which are
    // tree-like and bridge-heavy, so few of their links reach the tree
    // repair, and over the meshed candidates the sweep meets inside a
    // run: the members of an n = 20 front (quick GA cut to T = 10, as in
    // cold-perf's pareto-n20 workload).
    let sweep_all = |nets: &[Network], ctx: &cold::context::Context| {
        for net in nets {
            black_box(cold::failure::single_link_failures(net, ctx));
        }
    };
    for n in [20usize, 50] {
        let cfg = ColdConfig::quick(n, 4e-4, 10.0);
        let ctx = cfg.context.generate(4);
        let eval = CostEvaluator::new(&ctx, cfg.params);
        let nets: Vec<Network> = all_heuristics(&eval, &cfg.random_greedy, 4)
            .into_iter()
            .map(|(_, r)| Network::build(r.topology, &ctx, cfg.params).unwrap())
            .collect();
        group.bench_with_input(BenchmarkId::new("failure_sweep", n), &nets, |b, nets| {
            b.iter(|| sweep_all(nets, &ctx));
        });
    }
    let mut cfg = ColdConfig::quick(20, 4e-4, 10.0);
    cfg.ga.generations = 10;
    let front = cold::pareto::try_synthesize_pareto(&cfg, 2014, 32).unwrap();
    let nets: Vec<Network> = front.front.into_iter().map(|m| m.network).collect();
    group.bench_with_input(BenchmarkId::new("failure_sweep_front", 20), &nets, |b, nets| {
        b.iter(|| sweep_all(nets, &front.context));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ga_scaling,
    bench_ga_parallelism,
    bench_ga_operators,
    bench_heuristics,
    bench_end_to_end,
    bench_pareto
);
criterion_main!(benches);
