//! Mutation operators (§4.1.2).
//!
//! Two mutation types:
//!
//! - **Link mutation**: a pair `(m⁺, m⁻)` of geometric(½) counts; `m⁺`
//!   existing links are removed and `m⁻` absent links are added, "giving an
//!   average of two link changes each time a mutation occurs".
//! - **Node mutation**: "one of the non-leaf nodes is chosen uniformly at
//!   random and made into a leaf node, with its only link now running to
//!   the closest non-leaf node." This operator is what lets high-`k3`
//!   optimizations discover hub-and-spoke structure quickly (§7).
//!
//! Link mutation draws from the ascending lists of present and absent pairs
//! (the RNG stream of building them) by rank/select over the packed words.
//!
//! Mutated offspring may be disconnected; the engine repairs them.

use crate::Objective;
use cold_graph::AdjacencyMatrix;
use rand::rngs::StdRng;
use rand::Rng;

/// Samples a geometric random variable with success probability `p`,
/// counting failures before the first success (support `{0, 1, …}`, mean
/// `(1−p)/p`; `p = ½` ⇒ mean 1).
pub fn geometric(p: f64, rng: &mut StdRng) -> usize {
    debug_assert!(p > 0.0 && p <= 1.0);
    let mut k = 0usize;
    while rng.gen_range(0.0..1.0) >= p {
        k += 1;
        if k > 10_000 {
            // Practically unreachable for sane p; guards a degenerate RNG.
            break;
        }
    }
    k
}

/// Link mutation: removes `m⁺ ~ Geom(p)` random existing links and adds
/// `m⁻ ~ Geom(p)` random absent links (each capped by availability).
pub fn link_mutation(topology: &mut AdjacencyMatrix, p: f64, rng: &mut StdRng) {
    link_mutation_in(topology, p, None, rng);
}

/// Link mutation over a restricted candidate universe: like
/// [`link_mutation`], but when `universe` is `Some(pairs)` (sorted pair
/// indices) only those pairs may be **added**. Removals always range over
/// every existing link, so pruning never strands an edge the optimizer
/// wants gone. `None` is exactly [`link_mutation`] — same RNG stream,
/// same results.
pub fn link_mutation_in(
    topology: &mut AdjacencyMatrix,
    p: f64,
    universe: Option<&[usize]>,
    rng: &mut StdRng,
) {
    let m_plus = geometric(p, rng);
    let m_minus = geometric(p, rng);
    let before = &topology.clone(); // the lists' state before any draw
    let (pairs, present) = (before.pair_count(), before.edge_count());
    let addable = universe.map(|u| u.iter().copied().filter(move |&i| !before.bit(i)));
    let absent = addable.clone().map_or(pairs - present, Iterator::count);
    swap_remove_ranks(present, m_plus, rng, |r| {
        topology.set_bit(select(before.words().iter().copied(), r), false);
    });
    let absent_word = |w: usize| !before.words()[w] & !0 >> 64usize.saturating_sub(pairs - w * 64);
    swap_remove_ranks(absent, m_minus, rng, |r| {
        let pair = match addable.clone() {
            Some(mut u) => u.nth(r).expect("rank below the addable count"),
            None => select((0..before.words().len()).map(absent_word), r),
        };
        topology.set_bit(pair, true);
    });
}

/// Plays `min(k, len)` rounds of `list.swap_remove(rng.gen_range(0..list.len()))`
/// on an unbuilt list `0..len`, handing each removed entry to `take`.
fn swap_remove_ranks(len: usize, k: usize, rng: &mut StdRng, mut take: impl FnMut(usize)) {
    let mut moved: Vec<(usize, usize)> = Vec::new(); // (slot, entry from the tail)
    let at = |moved: &[(usize, usize)], s| moved.iter().rfind(|m| m.0 == s).map_or(s, |m| m.1);
    for last in (len - k.min(len)..len).rev() {
        let i = rng.gen_range(0..last + 1);
        take(at(&moved, i));
        if i != last {
            moved.push((i, at(&moved, last)));
        }
    }
}

/// Flat index of the `rank`-th set bit (from 0) of `words`.
fn select(words: impl Iterator<Item = u64>, mut rank: usize) -> usize {
    for (w, mut x) in words.enumerate() {
        if rank < x.count_ones() as usize {
            (0..rank).for_each(|_| x &= x - 1);
            return w * 64 + x.trailing_zeros() as usize;
        }
        rank -= x.count_ones() as usize;
    }
    unreachable!("rank below the set-bit count")
}

/// Node mutation: picks a non-leaf node uniformly at random, removes all
/// its links, and reattaches it by a single link to the closest remaining
/// non-leaf node (by `objective.distance`). Falls back to the closest node
/// of any degree when no other non-leaf remains.
///
/// No-op when the graph has no non-leaf node (e.g. a single edge).
pub fn node_mutation<O: Objective>(
    topology: &mut AdjacencyMatrix,
    objective: &O,
    rng: &mut StdRng,
) {
    let n = topology.n();
    if n < 3 {
        return;
    }
    let mut degrees = topology.degrees();
    let non_leaves = degrees.iter().filter(|&&d| d > 1).count();
    if non_leaves == 0 {
        return;
    }
    let pick = rng.gen_range(0..non_leaves);
    let victim = (0..n).filter(|&v| degrees[v] > 1).nth(pick).expect("a non-leaf");
    // Strip all links from the victim.
    for (u, degree) in degrees.iter_mut().enumerate() {
        if u != victim && topology.has_edge(u, victim) {
            topology.set_edge(u, victim, false);
            *degree -= 1;
        }
    }
    // Reattach to the closest non-leaf (after stripping), else the
    // closest node overall.
    let hubs_left = (0..n).any(|v| v != victim && degrees[v] > 1);
    let closest = (0..n)
        .filter(|&v| v != victim && (!hubs_left || degrees[v] > 1))
        .min_by(|&a, &b| {
            objective.distance(victim, a).total_cmp(&objective.distance(victim, b)).then(a.cmp(&b))
        })
        .expect("n >= 3 guarantees a candidate");
    topology.set_edge(victim, closest, true);
}

/// Applies one mutation — node mutation with probability
/// `settings.node_mutation_prob`, link mutation otherwise. `universe`
/// restricts link *additions* when candidate-link pruning is active
/// (`GaSettings::mutation_neighbors`); the engine precomputes it once.
pub fn mutate<O: Objective>(
    topology: &mut AdjacencyMatrix,
    objective: &O,
    settings: &crate::GaSettings,
    universe: Option<&[usize]>,
    rng: &mut StdRng,
) {
    if rng.gen_range(0.0..1.0) < settings.node_mutation_prob {
        node_mutation(topology, objective, rng);
    } else {
        link_mutation_in(topology, settings.link_mutation_p, universe, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_objective::LineObjective;
    use rand::SeedableRng;

    #[test]
    fn geometric_mean_is_correct() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let sum: usize = (0..n).map(|_| geometric(0.5, &mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn link_mutation_changes_on_average_two_links() {
        let mut rng = StdRng::seed_from_u64(2);
        let base =
            AdjacencyMatrix::from_edges(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]).unwrap();
        let trials = 20_000;
        let mut total_changes = 0usize;
        for _ in 0..trials {
            let mut m = base.clone();
            link_mutation(&mut m, 0.5, &mut rng);
            total_changes += m.hamming_distance(&base).unwrap();
        }
        let mean = total_changes as f64 / trials as f64;
        // Slightly under 2.0 because removals/additions can cap out.
        assert!((1.7..2.1).contains(&mean), "mean changes {mean}");
    }

    #[test]
    fn node_mutation_creates_a_leaf_attached_to_closest_hub() {
        // Line 0-1-2-3-4 (path): interior nodes are non-leaves.
        let obj = LineObjective { n: 5, k0: 0.0, k1: 0.0, k3: 0.0 };
        let mut rng = StdRng::seed_from_u64(3);
        let mut saw_leafification = false;
        for _ in 0..50 {
            let mut m = AdjacencyMatrix::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
            node_mutation(&mut m, &obj, &mut rng);
            // Victim now has degree exactly 1.
            let degs = m.degrees();
            assert!(degs.iter().filter(|&&d| d == 1).count() >= 2);
            if m.edge_count() < 4 {
                saw_leafification = true;
            }
        }
        assert!(saw_leafification);
    }

    #[test]
    fn node_mutation_reattaches_to_nearest_non_leaf() {
        // Star + chain: 0 is hub (0-1, 0-2, 0-3), 3-4 chain so 3 is a hub.
        // Mutating node 3 must reattach it to the closest remaining hub.
        let obj = LineObjective { n: 5, k0: 0.0, k1: 0.0, k3: 0.0 };
        // Force the victim to be node 0 or 3 (the only non-leaves).
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..30 {
            let mut m = AdjacencyMatrix::from_edges(5, &[(0, 1), (0, 2), (0, 3), (3, 4)]).unwrap();
            node_mutation(&mut m, &obj, &mut rng);
            let degs = m.degrees();
            // Victim ends with degree 1; total edges shrink or stay equal.
            assert!(m.edge_count() <= 4);
            assert!(degs.contains(&1));
        }
    }

    #[test]
    fn node_mutation_noop_on_single_edge() {
        let obj = LineObjective { n: 2, k0: 0.0, k1: 0.0, k3: 0.0 };
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = AdjacencyMatrix::from_edges(2, &[(0, 1)]).unwrap();
        let before = m.clone();
        node_mutation(&mut m, &obj, &mut rng);
        assert_eq!(m, before);
    }

    #[test]
    fn mutate_dispatches_both_kinds() {
        let obj = LineObjective { n: 6, k0: 0.0, k1: 0.0, k3: 0.0 };
        let settings = crate::GaSettings { node_mutation_prob: 0.5, ..crate::GaSettings::quick(0) };
        let mut rng = StdRng::seed_from_u64(6);
        let base =
            AdjacencyMatrix::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let mut changed = 0;
        for _ in 0..100 {
            let mut m = base.clone();
            mutate(&mut m, &obj, &settings, None, &mut rng);
            if m != base {
                changed += 1;
            }
        }
        assert!(changed > 50, "mutation changed only {changed}/100 topologies");
    }

    #[test]
    fn restricted_universe_only_adds_allowed_pairs() {
        let mut rng = StdRng::seed_from_u64(7);
        let base = AdjacencyMatrix::from_edges(8, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        // Only pairs (0,1), (0,2), (4,5) may ever be added.
        let allowed: Vec<usize> =
            vec![base.pair_index(0, 1), base.pair_index(0, 2), base.pair_index(4, 5)];
        let mut sorted = allowed.clone();
        sorted.sort_unstable();
        for _ in 0..500 {
            let mut m = base.clone();
            link_mutation_in(&mut m, 0.5, Some(&sorted), &mut rng);
            for (u, v) in m.edges() {
                let p = m.pair_index(u, v);
                assert!(base.bit(p) || sorted.contains(&p), "added disallowed pair ({u},{v})");
            }
        }
    }

    /// The list-based `link_mutation_in` the rank/select one replaced.
    fn link_mutation_oracle(
        topology: &mut AdjacencyMatrix,
        p: f64,
        universe: Option<&[usize]>,
        rng: &mut StdRng,
    ) {
        let m_plus = geometric(p, rng);
        let m_minus = geometric(p, rng);
        let mut present: Vec<usize> =
            (0..topology.pair_count()).filter(|&i| topology.bit(i)).collect();
        let mut absent: Vec<usize> = match universe {
            Some(pairs) => pairs.iter().copied().filter(|&i| !topology.bit(i)).collect(),
            None => (0..topology.pair_count()).filter(|&i| !topology.bit(i)).collect(),
        };
        for _ in 0..m_plus.min(present.len()) {
            let i = rng.gen_range(0..present.len());
            let pair = present.swap_remove(i);
            topology.set_bit(pair, false);
        }
        for _ in 0..m_minus.min(absent.len()) {
            let i = rng.gen_range(0..absent.len());
            let pair = absent.swap_remove(i);
            topology.set_bit(pair, true);
        }
    }

    /// The `node_mutation` body that collected its candidate lists.
    fn node_mutation_oracle<O: Objective>(
        topology: &mut AdjacencyMatrix,
        objective: &O,
        rng: &mut StdRng,
    ) {
        let n = topology.n();
        if n < 3 {
            return;
        }
        let degrees = topology.degrees();
        let non_leaves: Vec<usize> = (0..n).filter(|&v| degrees[v] > 1).collect();
        if non_leaves.is_empty() {
            return;
        }
        let victim = non_leaves[rng.gen_range(0..non_leaves.len())];
        for u in 0..n {
            if u != victim && topology.has_edge(u, victim) {
                topology.set_edge(u, victim, false);
            }
        }
        let degrees = topology.degrees();
        let hubs: Vec<usize> = (0..n).filter(|&v| v != victim && degrees[v] > 1).collect();
        let candidates =
            if hubs.is_empty() { (0..n).filter(|&v| v != victim).collect() } else { hubs };
        let closest = candidates
            .into_iter()
            .min_by(|&a, &b| {
                objective
                    .distance(victim, a)
                    .total_cmp(&objective.distance(victim, b))
                    .then(a.cmp(&b))
            })
            .unwrap();
        topology.set_edge(victim, closest, true);
    }

    /// A random topology on `n` nodes with edge probability `density`.
    fn random_topology(n: usize, density: f64, rng: &mut StdRng) -> AdjacencyMatrix {
        let mut t = AdjacencyMatrix::empty(n);
        for p in 0..t.pair_count() {
            t.set_bit(p, rng.gen_bool(density));
        }
        t
    }

    #[test]
    fn rank_select_link_mutation_matches_the_list_oracle() {
        let mut rng = StdRng::seed_from_u64(13);
        for n in [12usize, 200] {
            for density in [0.0, 0.02, 0.3, 0.97, 1.0] {
                let base = random_topology(n, density, &mut rng);
                let pairs = base.pair_count();
                let sparse: Vec<usize> = (0..pairs).filter(|_| rng.gen_bool(0.1)).collect();
                let universes: [Option<&[usize]>; 3] = [None, Some(&sparse), Some(&[])];
                for universe in universes {
                    // p = 0.1 draws counts that often exceed what is left.
                    for p in [0.5, 0.1] {
                        let seed = rng.gen::<u64>();
                        let (mut a, mut b) =
                            (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                        let (mut x, mut y) = (base.clone(), base.clone());
                        for _ in 0..40 {
                            link_mutation_in(&mut x, p, universe, &mut a);
                            link_mutation_oracle(&mut y, p, universe, &mut b);
                            assert_eq!(x, y, "n = {n}, density {density}, p = {p}");
                            assert_eq!(a.state(), b.state());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn node_mutation_matches_the_list_oracle() {
        let mut rng = StdRng::seed_from_u64(14);
        for n in [3usize, 12, 40] {
            let obj = LineObjective { n, k0: 0.0, k1: 0.0, k3: 0.0 };
            for density in [0.05, 0.2, 0.8] {
                let seed = rng.gen::<u64>();
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let (mut x, mut y) =
                    (random_topology(n, density, &mut rng), AdjacencyMatrix::empty(n));
                y.clone_from(&x);
                for _ in 0..30 {
                    node_mutation(&mut x, &obj, &mut a);
                    node_mutation_oracle(&mut y, &obj, &mut b);
                    assert_eq!(x, y, "n = {n}, density {density}");
                    assert_eq!(a.state(), b.state());
                }
            }
        }
    }

    #[test]
    fn none_universe_matches_unrestricted_rng_stream() {
        // `link_mutation_in(.., None, ..)` must be byte-for-byte the old
        // operator: same RNG consumption, same offspring.
        let base = AdjacencyMatrix::from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6)]).unwrap();
        let mut a_rng = StdRng::seed_from_u64(9);
        let mut b_rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let mut a = base.clone();
            let mut b = base.clone();
            link_mutation(&mut a, 0.5, &mut a_rng);
            link_mutation_in(&mut b, 0.5, None, &mut b_rng);
            assert_eq!(a, b);
        }
    }
}
