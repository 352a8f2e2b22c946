//! Crossover (§4.1.1).
//!
//! "COLD picks `b` topologies uniformly at random as candidates to become
//! parents, then chooses the best `a` of them as parents … For each of
//! these possible links, we choose one of the `a` parents at random and
//! copy whether the link exists or not from that parent. When choosing the
//! parents at random, they are chosen with probability inversely
//! proportional to their cost."
//!
//! Children are built word-wise on the per-pair RNG stream: one uniform
//! draw per pair, whether or not the parents agree; it picks only where they differ.

use crate::chromosome::{weighted_pick, Individual};
use crate::settings::GaSettings;
use cold_graph::AdjacencyMatrix;
use rand::rngs::StdRng;
use rand::Rng;

/// Selects the parent set for one crossover: draw `b` *distinct* candidate
/// indices uniformly at random (a partial Fisher–Yates shuffle; the whole
/// population when `b ≥ M`), keep the best `a` by cost.
///
/// Returns indices into `population`, sorted by ascending cost.
pub fn select_parents(
    population: &[Individual],
    settings: &GaSettings,
    rng: &mut StdRng,
) -> Vec<usize> {
    debug_assert!(!population.is_empty());
    let m = population.len();
    let b = settings.tournament_pool.min(m);
    let a = settings.parents.min(b);
    // Partial Fisher–Yates, unbuilt: slot `i` ends with what slot `j_i` held
    // before step `i`: `j_i`, unless a step `k < i` with `j_k = j_i` moved it.
    let mut pool: Vec<usize> = (0..b).map(|i| rng.gen_range(i..m)).collect();
    for i in (0..b).rev() {
        let (mut slot, mut step) = (pool[i], i);
        while let Some(k) = pool[..step].iter().rposition(|&j| j == slot) {
            (slot, step) = (k, k);
        }
        pool[i] = slot;
    }
    pool.sort_by(|&x, &y| {
        population[x].cost.total_cmp(&population[y].cost).then_with(|| x.cmp(&y))
    });
    pool.truncate(a.max(1));
    pool
}

/// Produces one child: each potential link is copied from a parent drawn
/// with probability inversely proportional to that parent's cost (or
/// uniformly when `uniform_weights` is set — the ablation variant).
///
/// The child may be disconnected; the engine repairs it afterwards
/// (§4.1.3).
pub fn crossover_child(
    population: &[Individual],
    parent_idx: &[usize],
    uniform_weights: bool,
    rng: &mut StdRng,
) -> AdjacencyMatrix {
    debug_assert!(!parent_idx.is_empty());
    let first = &population[parent_idx[0]].topology;
    if parent_idx.len() == 1 {
        return first.clone();
    }
    let weights: Vec<f64> = if uniform_weights {
        vec![1.0; parent_idx.len()]
    } else {
        parent_idx.iter().map(|&i| 1.0 / population[i].cost.max(f64::EPSILON)).collect()
    };
    let word = |i: usize, w: usize| population[i].topology.words()[w];
    let (pairs, mut words) = (first.pair_count(), vec![0; first.words().len()]);
    for (w, out) in words.iter_mut().enumerate() {
        *out = parent_idx.iter().fold(!0, |acc, &i| acc & word(i, w));
        let mut differ = *out ^ parent_idx.iter().fold(0, |acc, &i| acc | word(i, w));
        let mut next = 0;
        while differ != 0 {
            let bit = differ.trailing_zeros();
            for _ in next..bit {
                rng.gen_range(0.0..1.0);
            }
            let u = rng.gen_range(0.0..1.0);
            *out |= word(parent_idx[weighted_pick(&weights, u)], w) & 1 << bit;
            (next, differ) = (bit + 1, differ & (differ - 1));
        }
        for _ in next..(pairs - w * 64).min(64) as u32 {
            rng.gen_range(0.0..1.0);
        }
    }
    AdjacencyMatrix::from_words(first.n(), words).expect("the parents' word layout")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn pop() -> Vec<Individual> {
        vec![
            Individual::new(
                AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap(),
                1.0,
            ),
            Individual::new(AdjacencyMatrix::complete(4), 10.0),
            Individual::new(
                AdjacencyMatrix::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap(),
                5.0,
            ),
            Individual::new(
                AdjacencyMatrix::from_edges(4, &[(0, 3), (1, 3), (2, 3)]).unwrap(),
                50.0,
            ),
        ]
    }

    #[test]
    fn parents_are_best_of_pool() {
        let population = pop();
        let settings = GaSettings { tournament_pool: 4, parents: 2, ..GaSettings::quick(0) };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let parents = select_parents(&population, &settings, &mut rng);
            assert!(!parents.is_empty() && parents.len() <= 2);
            // Sorted by cost ascending.
            for w in parents.windows(2) {
                assert!(population[w[0]].cost <= population[w[1]].cost);
            }
        }
    }

    #[test]
    fn worst_topology_rarely_parents() {
        // §4.1.1: "Choosing parents this way ensures that the worst
        // topologies will not become parents" (with b covering the
        // population, the worst can only parent when drawn b times).
        let population = pop();
        let settings = GaSettings { tournament_pool: 4, parents: 2, ..GaSettings::quick(0) };
        let mut rng = StdRng::seed_from_u64(2);
        let mut worst_count = 0;
        for _ in 0..500 {
            if select_parents(&population, &settings, &mut rng).contains(&3) {
                worst_count += 1;
            }
        }
        assert!(worst_count < 50, "worst individual selected {worst_count}/500 times");
    }

    #[test]
    fn child_links_come_from_parents() {
        let population = pop();
        let mut rng = StdRng::seed_from_u64(3);
        let child = crossover_child(&population, &[0, 2], false, &mut rng);
        for pair in 0..child.pair_count() {
            let from_a = population[0].topology.bit(pair);
            let from_b = population[2].topology.bit(pair);
            let c = child.bit(pair);
            assert!(c == from_a || c == from_b, "pair {pair} invented a link state");
        }
    }

    #[test]
    fn cheaper_parent_contributes_more() {
        // Parent 0 (cost 1) vs parent 1 (cost 10): on pairs where they
        // differ, ~91% of copies should come from parent 0.
        let population = pop();
        let mut rng = StdRng::seed_from_u64(4);
        let (mut from_cheap, mut total) = (0usize, 0usize);
        for _ in 0..300 {
            let child = crossover_child(&population, &[0, 1], false, &mut rng);
            for pair in 0..child.pair_count() {
                let a = population[0].topology.bit(pair);
                let b = population[1].topology.bit(pair);
                if a != b {
                    total += 1;
                    if child.bit(pair) == a {
                        from_cheap += 1;
                    }
                }
            }
        }
        let frac = from_cheap as f64 / total as f64;
        assert!((0.85..0.97).contains(&frac), "cheap-parent fraction {frac}");
    }

    /// The per-pair partial Fisher–Yates `select_parents` replaced.
    fn select_parents_oracle(
        population: &[Individual],
        settings: &GaSettings,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        let m = population.len();
        let b = settings.tournament_pool.min(m);
        let a = settings.parents.min(b);
        let mut indices: Vec<usize> = (0..m).collect();
        for i in 0..b {
            let j = rng.gen_range(i..m);
            indices.swap(i, j);
        }
        let mut pool = indices[..b].to_vec();
        pool.sort_by(|&x, &y| {
            population[x].cost.total_cmp(&population[y].cost).then_with(|| x.cmp(&y))
        });
        pool.truncate(a.max(1));
        pool
    }

    /// The per-pair `crossover_child` the word-wise one replaced.
    fn crossover_child_oracle(
        population: &[Individual],
        parent_idx: &[usize],
        uniform_weights: bool,
        rng: &mut StdRng,
    ) -> AdjacencyMatrix {
        let n = population[parent_idx[0]].topology.n();
        let weights: Vec<f64> = if uniform_weights {
            vec![1.0; parent_idx.len()]
        } else {
            parent_idx.iter().map(|&i| 1.0 / population[i].cost.max(f64::EPSILON)).collect()
        };
        let mut child = AdjacencyMatrix::empty(n);
        for pair in 0..child.pair_count() {
            let pick = if parent_idx.len() == 1 {
                0
            } else {
                weighted_pick(&weights, rng.gen_range(0.0..1.0))
            };
            child.set_bit(pair, population[parent_idx[pick]].topology.bit(pair));
        }
        child
    }

    /// Five random topologies on `n` nodes (densities 0.1–0.9, one exact
    /// duplicate) with distinct or, when `equal`, identical costs.
    fn random_pop(n: usize, equal: bool, rng: &mut StdRng) -> Vec<Individual> {
        let mut pop: Vec<Individual> = [0.1, 0.5, 0.9, 0.3]
            .iter()
            .enumerate()
            .map(|(k, &density)| {
                let mut t = AdjacencyMatrix::empty(n);
                for p in 0..t.pair_count() {
                    t.set_bit(p, rng.gen_bool(density));
                }
                Individual::new(t, if equal { 7.0 } else { 1.0 + 3.0 * k as f64 })
            })
            .collect();
        pop.push(Individual::new(pop[1].topology.clone(), pop[3].cost));
        pop
    }

    #[test]
    fn word_wise_crossover_matches_the_per_pair_oracle_and_its_stream() {
        let mut rng = StdRng::seed_from_u64(11);
        let parent_sets: [&[usize]; 5] = [&[2], &[0, 1], &[1, 4], &[0, 2, 3], &[4, 1, 3]];
        for n in [2usize, 12, 128] {
            for equal in [false, true] {
                let pop = random_pop(n, equal, &mut rng);
                for parents in parent_sets {
                    for uniform in [false, true] {
                        let seed = rng.gen::<u64>();
                        let (mut a, mut b) =
                            (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                        for _ in 0..3 {
                            let child = crossover_child(&pop, parents, uniform, &mut a);
                            let oracle = crossover_child_oracle(&pop, parents, uniform, &mut b);
                            assert_eq!(child, oracle, "n = {n}, parents {parents:?}");
                            assert_eq!(a.state(), b.state(), "n = {n}, parents {parents:?}");
                            let pairs = child.pair_count();
                            let last = child.words().last().copied().unwrap_or(0);
                            assert!(
                                pairs.is_multiple_of(64) || last >> (pairs % 64) == 0,
                                "padding"
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(AdjacencyMatrix::empty(128).pair_count() % 64, 0, "n = 128 fills its words");
    }

    #[test]
    fn allocation_free_selection_matches_the_fisher_yates_oracle() {
        let mut rng = StdRng::seed_from_u64(12);
        for m in [1usize, 2, 5, 10, 37] {
            let pop: Vec<Individual> = (0..m)
                .map(|i| Individual::new(AdjacencyMatrix::empty(3), (i * 7 % 5) as f64 + 1.0))
                .collect();
            for (b, a) in [(1usize, 1usize), (2, 2), (4, 2), (10, 2), (10, 3), (40, 4)] {
                let settings =
                    GaSettings { tournament_pool: b, parents: a, ..GaSettings::quick(0) };
                let seed = rng.gen::<u64>();
                let (mut x, mut y) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                for _ in 0..20 {
                    assert_eq!(
                        select_parents(&pop, &settings, &mut x),
                        select_parents_oracle(&pop, &settings, &mut y),
                        "m = {m}, b = {b}, a = {a}"
                    );
                    assert_eq!(x.state(), y.state());
                }
            }
        }
    }

    #[test]
    fn single_parent_clones() {
        let population = pop();
        let mut rng = StdRng::seed_from_u64(5);
        let child = crossover_child(&population, &[2], false, &mut rng);
        assert_eq!(child, population[2].topology);
    }
}
