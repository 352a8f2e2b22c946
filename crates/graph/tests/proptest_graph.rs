//! Property-based tests over the graph substrate.

use cold_graph::components::{matrix_components, matrix_is_connected};
use cold_graph::metrics::{
    average_degree, degree_assortativity, degree_stats, global_clustering, hop_diameter,
    node_betweenness, normalized_s_metric, s_metric,
};
use cold_graph::mst::{join_components, mst_kruskal, mst_prim, total_weight};
use cold_graph::routing::RoutingState;
use cold_graph::shortest_path::{apsp, bfs_hops};
use cold_graph::{AdjacencyMatrix, Graph};
use proptest::prelude::*;

/// Strategy: a random simple graph on `n` nodes as an edge-presence vector.
fn arb_graph(max_n: usize) -> impl Strategy<Value = AdjacencyMatrix> {
    (2..=max_n).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        proptest::collection::vec(any::<bool>(), pairs).prop_map(move |bits| {
            let mut m = AdjacencyMatrix::empty(n);
            for (p, b) in bits.into_iter().enumerate() {
                m.set_bit(p, b);
            }
            m
        })
    })
}

/// Strategy: random positions on the unit square for `n` nodes.
fn positions(n: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), n)
}

/// Strategy: a random *regular* graph (every node the same degree) — a
/// cycle, a complete graph, or a perfect matching.
fn arb_regular_graph(max_n: usize) -> impl Strategy<Value = AdjacencyMatrix> {
    (0usize..3, 3..=max_n).prop_map(|(kind, n)| match kind {
        0 => {
            // Cycle: 2-regular.
            let mut m = AdjacencyMatrix::empty(n);
            for i in 0..n {
                m.set_edge(i, (i + 1) % n, true);
            }
            m
        }
        1 => AdjacencyMatrix::complete(n), // (n−1)-regular
        _ => {
            // Perfect matching on an even node count: 1-regular.
            let n = n - n % 2;
            let mut m = AdjacencyMatrix::empty(n);
            for i in (0..n).step_by(2) {
                m.set_edge(i, i + 1, true);
            }
            m
        }
    })
}

fn euclid(pos: &[(f64, f64)]) -> impl Fn(usize, usize) -> f64 + Copy + '_ {
    move |u, v| {
        let (dx, dy) = (pos[u].0 - pos[v].0, pos[u].1 - pos[v].1);
        (dx * dx + dy * dy).sqrt()
    }
}

proptest! {
    #[test]
    fn handshake_lemma(m in arb_graph(12)) {
        let degs = m.degrees();
        prop_assert_eq!(degs.iter().sum::<usize>(), 2 * m.edge_count());
    }

    #[test]
    fn graph_matrix_round_trip(m in arb_graph(12)) {
        prop_assert_eq!(m.to_graph().to_adjacency_matrix(), m);
    }

    #[test]
    fn components_partition_nodes(m in arb_graph(12)) {
        let c = matrix_components(&m);
        let groups = c.groups();
        let total: usize = groups.iter().map(Vec::len).sum();
        prop_assert_eq!(total, m.n());
        // No edge crosses two components.
        for (u, v) in m.edges() {
            prop_assert_eq!(c.label[u], c.label[v]);
        }
    }

    #[test]
    fn mst_algorithms_agree_on_weight(pos in positions(8)) {
        let d = euclid(&pos);
        let k = total_weight(&mst_kruskal(8, d));
        let p = total_weight(&mst_prim(8, d));
        prop_assert!((k - p).abs() < 1e-9);
    }

    #[test]
    fn mst_is_spanning_and_acyclic(pos in positions(9)) {
        let d = euclid(&pos);
        let edges = mst_kruskal(9, d);
        prop_assert_eq!(edges.len(), 8);
        let mut m = AdjacencyMatrix::empty(9);
        for e in &edges {
            m.set_edge(e.u, e.v, true);
        }
        prop_assert!(matrix_is_connected(&m));
    }

    #[test]
    fn repair_always_connects(mut m in arb_graph(10), pos in positions(10)) {
        let n = m.n();
        let pos = &pos[..n];
        let d = euclid(pos);
        let before = m.edge_count();
        let added = join_components(&mut m, d);
        prop_assert!(matrix_is_connected(&m));
        prop_assert_eq!(m.edge_count(), before + added.len());
    }

    #[test]
    fn dijkstra_satisfies_triangle_inequality(m in arb_graph(10), pos in positions(10)) {
        let n = m.n();
        if !matrix_is_connected(&m) {
            return Ok(());
        }
        let g = m.to_graph();
        let pos = &pos[..n];
        let d = euclid(pos);
        let trees = apsp(&g, d);
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    prop_assert!(
                        trees[a].dist[b] <= trees[a].dist[c] + trees[c].dist[b] + 1e-9
                    );
                }
            }
        }
    }

    #[test]
    fn shortest_dist_never_exceeds_direct_edge(m in arb_graph(10), pos in positions(10)) {
        let n = m.n();
        let g = m.to_graph();
        let pos = &pos[..n];
        let d = euclid(pos);
        for (u, v) in m.edges() {
            let t = cold_graph::shortest_path::dijkstra(&g, u, d);
            prop_assert!(t.dist[v] <= d(u, v) + 1e-12);
        }
    }

    #[test]
    fn routing_load_conservation(m in arb_graph(9), pos in positions(9)) {
        // Σ ℓ_i w_i must equal Σ_r t_r L_r (paper eq. 1) for random inputs.
        let mut m = m;
        let n = m.n();
        let pos = &pos[..n];
        let d = euclid(pos);
        join_components(&mut m, d);
        let traffic = |s: usize, t: usize| ((s * 7 + t * 3) % 5) as f64;
        let mut r = RoutingState::new();
        let weighted = r.build(&m, d, traffic).unwrap();
        let load = r.link_loads(traffic).unwrap();
        let lhs: f64 = r.csr().edges().zip(&load).map(|((u, v, _), &w)| d(u, v) * w).sum();
        prop_assert!((lhs - weighted).abs() < 1e-6 * (1.0 + lhs.abs()));
    }

    #[test]
    fn bfs_hops_zero_only_at_source(m in arb_graph(10)) {
        let g = m.to_graph();
        let h = bfs_hops(&g, 0);
        prop_assert_eq!(h[0], 0);
        for (v, &hv) in h.iter().enumerate().skip(1) {
            prop_assert!(hv != 0, "node {} claims hop distance 0", v);
        }
    }

    #[test]
    fn diameter_bounds(m in arb_graph(10)) {
        if !matrix_is_connected(&m) {
            return Ok(());
        }
        let g = m.to_graph();
        let diam = hop_diameter(&g).unwrap();
        prop_assert!(diam <= g.n().saturating_sub(1));
        if g.n() >= 2 {
            prop_assert!(diam >= 1);
        }
    }

    #[test]
    fn clustering_in_unit_interval(m in arb_graph(10)) {
        let g = m.to_graph();
        let c = global_clustering(&g);
        prop_assert!((0.0..=1.0).contains(&c), "gcc = {}", c);
    }

    #[test]
    fn degree_stats_consistency(m in arb_graph(12)) {
        let g = m.to_graph();
        let s = degree_stats(&g);
        prop_assert!((s.mean - average_degree(&g)).abs() < 1e-12);
        prop_assert!(s.min <= s.max);
        prop_assert_eq!(s.leaves + s.hubs + g.degrees().iter().filter(|&&d| d == 0).count(), g.n());
        // CVND is nonnegative and zero iff all degrees equal.
        prop_assert!(s.cvnd >= 0.0);
        if s.min == s.max {
            prop_assert!(s.cvnd.abs() < 1e-12);
        }
    }

    #[test]
    fn betweenness_nonnegative_and_bounded(m in arb_graph(9)) {
        if !matrix_is_connected(&m) {
            return Ok(());
        }
        let g = m.to_graph();
        let n = g.n() as f64;
        let bound = (n - 1.0) * (n - 2.0) / 2.0 + 1e-9;
        for b in node_betweenness(&g) {
            prop_assert!(b >= -1e-12 && b <= bound, "betweenness {} out of [0,{}]", b, bound);
        }
    }

    #[test]
    fn canonical_form_invariant_under_permutation(m in arb_graph(7), seed in any::<u64>()) {
        let n = m.n();
        // Derive a permutation from the seed deterministically.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut s = seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let permuted = m.permuted(&perm);
        prop_assert!(cold_graph::canonical::are_isomorphic(&m, &permuted));
    }

    #[test]
    fn dk_distribution_total_equals_census(m in arb_graph(8)) {
        let g = m.to_graph();
        for d in 2..=3 {
            let total: u64 = cold_graph::subgraphs::dk_distribution(&g, d).values().sum();
            prop_assert_eq!(total, cold_graph::subgraphs::connected_subgraph_count(&g, d));
        }
    }

    #[test]
    fn dk2_class_count_never_exceeds_edges(m in arb_graph(9)) {
        let g: Graph = m.to_graph();
        let classes = cold_graph::subgraphs::dk_parameter_count(&g, 2);
        prop_assert!(classes <= g.m().max(1));
    }

    #[test]
    fn bridges_match_brute_force_removal(m in arb_graph(9)) {
        let g = m.to_graph();
        let fast = cold_graph::connectivity::cut_structure(&g).bridges;
        // Brute force: an edge is a bridge iff removing it increases the
        // number of connected components.
        let base_components = matrix_components(&m).count;
        let mut slow = Vec::new();
        for (u, v) in m.edges() {
            let mut cut = m.clone();
            cut.set_edge(u, v, false);
            if matrix_components(&cut).count > base_components {
                slow.push((u, v));
            }
        }
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn every_layout_finds_the_same_cuts(m in arb_graph(12)) {
        // The DFS runs on a `Graph`, a routing's CSR and the bits of the
        // matrix alike; the graph's cuts are the brute-force-checked ones.
        let expect = cold_graph::connectivity::cut_structure(&m.to_graph());
        let mut csr = cold_graph::routing::Csr::new();
        csr.build_matrix(&m, |_, _| 1.0);
        for cuts in [cold_graph::connectivity::cut_structure(&csr),
                     cold_graph::connectivity::cut_structure(&m)] {
            prop_assert_eq!(&cuts.bridges, &expect.bridges);
            prop_assert_eq!(&cuts.articulation_points, &expect.articulation_points);
            prop_assert_eq!(cuts.is_two_edge_connected(), expect.is_two_edge_connected());
        }
    }

    #[test]
    fn articulation_points_match_brute_force(m in arb_graph(8)) {
        let g = m.to_graph();
        let fast = cold_graph::connectivity::cut_structure(&g).articulation_points;
        let base = matrix_components(&m).count;
        let mut slow = Vec::new();
        for v in 0..m.n() {
            // Remove v by clearing its edges, then compare component
            // counts excluding the isolated v itself.
            let mut cut = m.clone();
            for u in 0..m.n() {
                if u != v && cut.has_edge(u, v) {
                    cut.set_edge(u, v, false);
                }
            }
            let comps = matrix_components(&cut);
            // Components not counting the now-isolated v (if originally
            // non-isolated).
            let adjusted = if m.degree(v) > 0 { comps.count - 1 } else { comps.count };
            if adjusted > base {
                slow.push(v);
            }
        }
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn regular_graphs_have_undefined_assortativity(m in arb_regular_graph(10)) {
        // All endpoint degrees equal ⇒ zero variance ⇒ Newman's r is
        // 0/0; the contract is `None`, never NaN or a panic.
        prop_assert_eq!(degree_assortativity(&m.to_graph()), None);
    }

    #[test]
    fn assortativity_is_in_minus_one_one_when_defined(m in arb_graph(10)) {
        let g = m.to_graph();
        if let Some(r) = degree_assortativity(&g) {
            prop_assert!(g.m() > 0, "defined r requires edges");
            prop_assert!(r.is_finite(), "r = {}", r);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {}", r);
        }
    }

    #[test]
    fn normalized_s_metric_contracts(m in arb_graph(10)) {
        let g = m.to_graph();
        match normalized_s_metric(&g) {
            None => prop_assert_eq!(g.m(), 0, "None is reserved for edgeless graphs"),
            Some(ns) => {
                prop_assert!(g.m() > 0);
                prop_assert!(ns > 0.0 && ns <= 1.0 + 1e-12, "normalized s = {}", ns);
            }
        }
    }

    #[test]
    fn s_metric_edgeless_and_lower_bound_contracts(m in arb_graph(10)) {
        let g = m.to_graph();
        let s = s_metric(&g);
        if g.m() == 0 {
            // Edgeless: s is exactly zero and both derived metrics are
            // undefined rather than NaN.
            prop_assert_eq!(s, 0.0);
            prop_assert_eq!(degree_assortativity(&g), None);
            prop_assert_eq!(normalized_s_metric(&g), None);
        } else {
            // Every edge contributes d_u·d_v ≥ 1.
            prop_assert!(s >= g.m() as f64, "s = {} below edge count {}", s, g.m());
        }
    }

    #[test]
    fn two_edge_connected_iff_connected_and_bridgeless(m in arb_graph(9)) {
        let g = m.to_graph();
        let expect = matrix_is_connected(&m)
            && cold_graph::connectivity::cut_structure(&g).bridges.is_empty();
        prop_assert_eq!(cold_graph::connectivity::is_two_edge_connected(&g), expect);
    }
}
