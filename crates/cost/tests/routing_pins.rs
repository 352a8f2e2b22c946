//! Bit pins of the routing outputs: `evaluate_total`, the per-link
//! length/load/capacity of `Network::build`, its cost breakdown and
//! `Σ t·L`, and a few routes, on three contexts — the paper's default, one
//! with coincident PoPs (zero-length links) and one snapped to a grid
//! (equal-cost ties). The values were recorded before the routing paths
//! were merged into one `RoutingState`, so a refactor that moves a single
//! bit of any of them fails here.

use cold_context::{Context, ContextConfig, GravityModel, Point, PopulationKind};
use cold_cost::{evaluate_total, CostParams, Network};
use cold_graph::mst::mst_matrix;
use cold_graph::AdjacencyMatrix;

/// The minimum spanning tree plus the chords `{i, (7i + 5) mod n}` of every
/// third `i`, or with `lattice` plus every link of length at most 1 (on a
/// grid: equal-cost paths through equidistant predecessors).
fn mst_plus_chords(ctx: &Context, lattice: bool) -> AdjacencyMatrix {
    let n = ctx.n();
    let mut topo = mst_matrix(n, ctx.distance_fn());
    for i in 0..n {
        for j in i + 1..n {
            if (lattice && ctx.distance_fn()(i, j) <= 1.0)
                || (!lattice && j == (i * 7 + 5) % n && i % 3 == 0)
            {
                topo.set_edge(i, j, true);
            }
        }
    }
    topo
}

/// `n` PoPs at fixed pseudo-random positions, or with `grid` on the
/// points of a unit grid six wide; every `every`-th PoP (if any)
/// coincides with the one before it.
fn placed(n: usize, every: Option<usize>, grid: bool) -> Context {
    let points = (0..n)
        .map(|i| {
            let k = every.filter(|&e| i > 0 && i % e == 0).map_or(i, |_| i - 1);
            if grid {
                Point::new((k % 6) as f64, (k / 6) as f64)
            } else {
                Point::new(((k * 37 + 11) % 101) as f64, ((k * 53 + 29) % 97) as f64)
            }
        })
        .collect();
    Context::from_positions(
        points,
        PopulationKind::Exponential { mean: 30.0 },
        GravityModel::raw(),
        7,
    )
}

/// FNV-1a over the bits of every link's length, load and capacity.
fn link_digest(net: &Network) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for l in &net.links {
        for x in
            [l.u as u64, l.v as u64, l.length.to_bits(), l.load.to_bits(), l.capacity.to_bits()]
        {
            h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Everything pinned for one context, as one comparable line.
fn pins(ctx: &Context, lattice: bool) -> String {
    let params = CostParams::paper(4e-4, 10.0).with_overprovision(1.5);
    let topo = mst_plus_chords(ctx, lattice);
    let total = evaluate_total(&topo, ctx, &params).unwrap();
    let net = Network::build(topo, ctx, params).unwrap();
    let n = ctx.n();
    let c = net.cost;
    let routes: Vec<_> = [(0, n - 1), (n - 1, 0), (n / 2, 1), (3, n / 3)]
        .map(|(s, t)| net.route(s, t).unwrap())
        .into();
    format!(
        "total {:x} cost {:x} {:x} {:x} {:x} twrl {:x} links {} digest {:x} routes {routes:?}",
        total.to_bits(),
        c.existence.to_bits(),
        c.length.to_bits(),
        c.bandwidth.to_bits(),
        c.hub.to_bits(),
        net.plan.traffic_weighted_route_length().to_bits(),
        net.link_count(),
        link_digest(&net),
    )
}

#[test]
fn paper_default_mst_with_chords() {
    let ctx = ContextConfig::paper_default(30).generate(2014);
    assert_eq!(
        pins(&ctx, false),
        "total 40a51a666a24f039 cost 4075400000000000 40674772d6a2f2bc 409e3bde7975821b 406e000000000000 twrl 4152740a89a1f8a9 links 34 digest f1007e3d3fb967df routes [[0, 5, 16, 13, 20, 12, 29], [29, 12, 20, 13, 16, 5, 0], [15, 3, 24, 29, 19, 14, 1], [3, 15, 10]]"
    );
}

#[test]
fn coincident_pops_route_over_zero_length_links() {
    assert_eq!(
        pins(&placed(24, Some(5), false), false),
        "total 40d24cd8809e7ace cost 4070e00000000000 407dda343d168b8f 40d1676fafaa20a0 4065400000000000 twrl 41853ec3d5ef2cd3 links 27 digest 3559bcf282acd41 routes [[0, 5, 4, 17, 12, 23], [23, 12, 17, 4, 5, 0], [12, 1], [3, 14, 1, 17, 6, 19, 8]]"
    );
}

#[test]
fn grid_snapped_pops_break_equal_cost_ties() {
    assert_eq!(
        pins(&placed(24, None, true), true),
        "total 409738a88d05d9cb cost 4077c00000000000 4043000000000000 4089e1511a0bb396 406e000000000000 twrl 413f978b804b48b8 links 38 digest c8e7d0ef76ec2371 routes [[0, 1, 2, 3, 4, 5, 11, 17, 23], [23, 17, 11, 5, 4, 3, 2, 1, 0], [12, 6, 0, 1], [3, 2, 8]]"
    );
}
