//! Oracle for the one shortest-path-tree repair: after
//! [`TreeRepair::run`], a source's rows and tie-free flag equal a fresh
//! Dijkstra's on the new adjacency — distances by `to_bits`, parents
//! exactly — and the flag equals a brute-force predecessor count.

use cold_graph::routing::{Csr, EdgeDiff, TreeRepair};
use cold_graph::shortest_path::DijkstraWorkspace;
use cold_graph::AdjacencyMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` points. `layout` 0 draws them freely, 1 makes every fifth point
/// coincide with an earlier one (zero-length links), and 2 snaps them to
/// an 8 × 8 grid (coincident points and many equal-cost paths).
fn points(n: usize, layout: u8, rng: &mut StdRng) -> Vec<(f64, f64)> {
    let mut points: Vec<(f64, f64)> = (0..n)
        .map(|_| match layout {
            2 => (rng.gen_range(0..8) as f64, rng.gen_range(0..8) as f64),
            _ => (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
        })
        .collect();
    if layout == 1 {
        for i in (0..n).step_by(5).skip(1) {
            points[i] = points[rng.gen_range(0..i)];
        }
    }
    points
}

/// Euclidean lengths, symmetric to the bit.
fn lengths(points: &[(f64, f64)]) -> impl Fn(usize, usize) -> f64 + Copy + '_ {
    move |u, v| {
        let (dx, dy) = (points[u].0 - points[v].0, points[u].1 - points[v].1);
        (dx * dx + dy * dy).sqrt()
    }
}

/// Whether every node `ws` reached but the source has exactly one
/// shortest predecessor on `csr`, counted over every arc.
fn brute_force_tie_free(csr: &Csr, ws: &DijkstraWorkspace, source: usize) -> bool {
    let dist = ws.dist();
    let mut preds = vec![0usize; csr.n()];
    for u in 0..csr.n() {
        for (v, len) in csr.arcs(u) {
            if dist[u] + len == dist[v] {
                preds[v] += 1;
            }
        }
    }
    (0..csr.n()).all(|v| v == source || !dist[v].is_finite() || preds[v] == 1)
}

/// A random tree plus `n / 3` chords, then `flips` random pairs toggled
/// (deletions may disconnect it). Returns the old and new topologies.
fn topologies(n: usize, flips: usize, rng: &mut StdRng) -> (AdjacencyMatrix, AdjacencyMatrix) {
    let mut old = AdjacencyMatrix::empty(n);
    for v in 1..n {
        old.set_edge(v, rng.gen_range(0..v), true);
    }
    for _ in 0..n / 3 {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            old.set_edge(a, b, true);
        }
    }
    let mut new = old.clone();
    while new.hamming_distance(&old).unwrap() < flips {
        let pair = rng.gen_range(0..new.pair_count());
        new.set_bit(pair, !new.bit(pair));
    }
    (old, new)
}

/// Repairs every source of `old` toward `new` and checks each against a
/// fresh Dijkstra on `new`. Returns how many sources were repaired in
/// place and how many re-ran Dijkstra.
fn check_diff(
    old: &AdjacencyMatrix,
    new: &AdjacencyMatrix,
    len: impl Fn(usize, usize) -> f64 + Copy,
) -> Result<(usize, usize), TestCaseError> {
    let (mut before, mut after) = (Csr::new(), Csr::new());
    before.build_matrix(old, len);
    after.build_matrix(new, len);
    let (mut deleted, mut inserted) = (Vec::new(), Vec::new());
    for (u, v) in new.diff_pairs(old) {
        if new.has_edge(u, v) {
            inserted.push((u, v, len(u, v)));
        } else {
            deleted.push((u, v));
        }
    }
    let diff = EdgeDiff { deleted: &deleted, inserted: &inserted };
    let (mut base, mut fresh, mut repair) =
        (DijkstraWorkspace::new(), DijkstraWorkspace::new(), TreeRepair::new());
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (mut in_place, mut rerouted) = (0, 0);
    for s in 0..old.n() {
        before.dijkstra(&mut base, s);
        prop_assert_eq!(
            base.tie_free(),
            brute_force_tie_free(&before, &base, s),
            "base flag of {}",
            s
        );
        let (mut dist, mut parent, mut tie_free) =
            (base.dist().to_vec(), base.parent().to_vec(), base.tie_free());
        let repaired = repair.run(&after, diff, s, &mut dist, &mut parent, &mut tie_free);
        after.dijkstra(&mut fresh, s);
        prop_assert_eq!(bits(&dist), bits(fresh.dist()), "distances from {}", s);
        prop_assert_eq!(&parent[..], fresh.parent(), "parents from {}", s);
        prop_assert_eq!(tie_free, brute_force_tie_free(&after, &fresh, s), "flag of {}", s);
        if repaired.in_place {
            in_place += 1;
        } else {
            rerouted += 1;
        }
    }
    Ok((in_place, rerouted))
}

/// One random case: `n` points in `layout`, a diff of `flips` pairs.
fn check_case(
    n: usize,
    seed: u64,
    layout: u8,
    flips: usize,
) -> Result<(usize, usize), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = points(n, layout, &mut rng);
    let (old, new) = topologies(n, flips, &mut rng);
    check_diff(&old, &new, lengths(&points))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn repaired_rows_equal_a_fresh_dijkstra(
        n in 4usize..24,
        seed in 0u64..100_000,
        layout in 0u8..3,
        flips in 1usize..=4,
    ) {
        check_case(n, seed, layout, flips)?;
    }
}

#[test]
fn free_points_repair_in_place_and_grid_points_fall_back() {
    // Free points have no equal-cost paths, so every source repairs in
    // place; the grid's ties send some sources to Dijkstra.
    let mut counts = [(0usize, 0usize); 3];
    for layout in 0..3u8 {
        for seed in 0..40u64 {
            let (in_place, rerouted) = check_case(16, seed, layout, 1 + seed as usize % 4).unwrap();
            counts[layout as usize].0 += in_place;
            counts[layout as usize].1 += rerouted;
        }
    }
    let [free, _, grid] = counts;
    assert!(free.0 > 0 && free.1 == 0, "free points: {free:?}");
    assert!(grid.1 > 0, "grid points: {grid:?}");
}

#[test]
fn an_orphan_with_two_shortest_predecessors_falls_back() {
    // Source 0's tree is tie-free, but without the link (0, 1) node 1 is
    // as near through 3 as through 4. A fresh Dijkstra settles 4 first
    // and takes it as the parent, while 3 comes first in node 1's arcs,
    // so the repair must not pick either: source 0 re-runs Dijkstra.
    let points = [(3.0, 2.0), (0.0, 2.0), (2.0, 5.0), (1.0, 3.0), (2.0, 4.0)];
    let len = lengths(&points);
    let old =
        AdjacencyMatrix::from_edges(5, &[(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (3, 4)]).unwrap();
    let mut new = old.clone();
    new.set_edge(0, 1, false);
    let (mut csr, mut ws) = (Csr::new(), DijkstraWorkspace::new());
    csr.build_matrix(&old, len);
    csr.dijkstra(&mut ws, 0);
    assert!(ws.tie_free(), "the base tree of 0 has no tie");
    let (mut dist, mut parent, mut tie_free) = (ws.dist().to_vec(), ws.parent().to_vec(), true);
    csr.build_matrix(&new, len);
    let diff = EdgeDiff { deleted: &[(0, 1)], inserted: &[] };
    let repaired = TreeRepair::new().run(&csr, diff, 0, &mut dist, &mut parent, &mut tie_free);
    assert!(!repaired.in_place, "the tie must take Dijkstra");
    assert!(repaired.arcs >= csr.arc_count(), "the fallback's arcs are counted");
    csr.dijkstra(&mut ws, 0);
    assert_eq!((dist.as_slice(), parent.as_slice()), (ws.dist(), ws.parent()));
    assert_eq!(parent[1], 4);
    assert_eq!(dist[3] + len(3, 1), dist[1], "3 ties with 4");
    assert!(!tie_free, "node 1 now has two shortest predecessors");
    // The whole diff, every source, against the oracle.
    check_diff(&old, &new, len).unwrap();
}
