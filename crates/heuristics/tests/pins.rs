//! Bit-pins for the four §5 heuristics as the initialized GA runs them.
//!
//! Each pin records, per heuristic, the edge count, an FNV-1a digest of the
//! edge list and the bits of the reported cost, from [`all_heuristics`]
//! with 10 and with 3 random-greedy permutations. The contexts are the
//! paper's n = 30 setting (two seeds, a hub-averse and a hub-friendly cost
//! point), a context with coincident PoPs (zero-length links) and a unit
//! grid whose equal distances make every tie-break visible. Any change to
//! which topology a heuristic picks, or to a single bit of its cost, fails
//! here.

use cold_context::gravity::GravityModel;
use cold_context::population::PopulationKind;
use cold_context::region::Point;
use cold_context::{Context, ContextConfig};
use cold_cost::{CostEvaluator, CostParams};
use cold_heuristics::{all_heuristics, RandomGreedyConfig};

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

/// One line per heuristic: name, edge count, edge-list digest, cost bits.
fn summary(ctx: &Context, params: CostParams, permutations: usize) -> Vec<String> {
    let eval = CostEvaluator::new(ctx, params);
    all_heuristics(&eval, &RandomGreedyConfig { permutations }, 2014)
        .into_iter()
        .map(|(name, r)| {
            let bytes: Vec<u8> = r
                .topology
                .edges()
                .flat_map(|(u, v)| [u as u32, v as u32])
                .flat_map(u32::to_le_bytes)
                .collect();
            format!(
                "{name}: {} {:#018x} {:#018x}",
                r.topology.edge_count(),
                fnv1a64(&bytes),
                r.cost.to_bits()
            )
        })
        .collect()
}

/// Checks both permutation counts against `expected` (10 permutations
/// first, then 3).
fn check(ctx: &Context, params: CostParams, expected: [[&str; 4]; 2]) {
    let got = [10, 3].map(|permutations| summary(ctx, params, permutations));
    assert_eq!(got, expected);
}

fn paper_n30(seed: u64) -> Context {
    ContextConfig::paper_default(30).generate(seed)
}

#[test]
fn paper_n30_seed_1_hub_averse() {
    check(
        &paper_n30(1),
        CostParams::paper(4e-4, 10.0),
        [
            [
                "random greedy: 35 0xd861142219e22ea1 0x409d0d3689fbf466",
                "complete: 32 0xcb34fa1592d544d6 0x409d4fb7325e7d35",
                "mst: 29 0x0b7c060276c0f7d4 0x409d63aa364301ec",
                "greedy attachment: 35 0xc131d1c9c45b7322 0x409ce405592ba480",
            ],
            [
                "random greedy: 34 0xe6a8858f9fd084e1 0x409dc597febac3ca",
                "complete: 32 0xcb34fa1592d544d6 0x409d4fb7325e7d35",
                "mst: 29 0x0b7c060276c0f7d4 0x409d63aa364301ec",
                "greedy attachment: 35 0xc131d1c9c45b7322 0x409ce405592ba480",
            ],
        ],
    );
}

#[test]
fn paper_n30_seed_1_hub_friendly() {
    check(
        &paper_n30(1),
        CostParams::paper(1.6e-3, 0.0),
        [
            [
                "random greedy: 45 0xbd5e8692f4e9d954 0x40b4b7a19e1c22f5",
                "complete: 44 0xa651743b92319f61 0x40b56db44314f389",
                "mst: 29 0x892a9c599f4f6ad7 0x40b6f4dd5d2309d5",
                "greedy attachment: 49 0xa2386ccb9a6eb046 0x40b46d875f934ac0",
            ],
            [
                "random greedy: 47 0x341458ff25a82216 0x40b5c098e9794b9f",
                "complete: 44 0xa651743b92319f61 0x40b56db44314f389",
                "mst: 29 0x892a9c599f4f6ad7 0x40b6f4dd5d2309d5",
                "greedy attachment: 49 0xa2386ccb9a6eb046 0x40b46d875f934ac0",
            ],
        ],
    );
}

#[test]
fn paper_n30_seed_2014_hub_averse() {
    check(
        &paper_n30(2014),
        CostParams::paper(4e-4, 10.0),
        [
            [
                "random greedy: 34 0x9d9e3d234b5ca396 0x40a2845796e55921",
                "complete: 35 0x7481c26cfbc3cc79 0x40a3296a109d55cb",
                "mst: 29 0x338be92aebf1658b 0x40a3517395c55c6e",
                "greedy attachment: 33 0x2eadfe696da41fb8 0x40a23b2ce9921dda",
            ],
            [
                "random greedy: 38 0x6d43451d2110728f 0x40a30c3b4ae6ed60",
                "complete: 35 0x7481c26cfbc3cc79 0x40a3296a109d55cb",
                "mst: 29 0x338be92aebf1658b 0x40a3517395c55c6e",
                "greedy attachment: 33 0x2eadfe696da41fb8 0x40a23b2ce9921dda",
            ],
        ],
    );
}

#[test]
fn paper_n30_seed_2014_hub_friendly() {
    check(
        &paper_n30(2014),
        CostParams::paper(1.6e-3, 0.0),
        [
            [
                "random greedy: 54 0x2bbe02047a013754 0x40bbef478aeaeffa",
                "complete: 44 0x5b3af6fa8709779b 0x40bd13c3d27e5327",
                "mst: 29 0x3145eca66802e24f 0x40bfe765284e078a",
                "greedy attachment: 50 0xda9fc639b2141ded 0x40bb4117fb2c4532",
            ],
            [
                "random greedy: 54 0x2bbe02047a013754 0x40bbef478aeaeffa",
                "complete: 44 0x5b3af6fa8709779b 0x40bd13c3d27e5327",
                "mst: 29 0x3145eca66802e24f 0x40bfe765284e078a",
                "greedy attachment: 50 0xda9fc639b2141ded 0x40bb4117fb2c4532",
            ],
        ],
    );
}

#[test]
fn coincident_pops() {
    // Three PoPs share one spot and two share another, so some links have
    // zero length and several routes tie exactly.
    let spots = [
        (0.0, 0.0),
        (3.0, 0.0),
        (3.0, 0.0),
        (3.0, 0.0),
        (1.0, 2.5),
        (5.0, 4.0),
        (5.0, 4.0),
        (0.5, 4.5),
        (2.0, 6.0),
        (6.0, 1.0),
    ];
    let ctx = Context::from_positions(
        spots.iter().map(|&(x, y)| Point::new(x, y)).collect(),
        PopulationKind::Constant { value: 1.0 },
        GravityModel::raw(),
        0,
    );
    check(
        &ctx,
        CostParams::new(1.0, 1.0, 0.05, 0.5),
        [
            [
                "random greedy: 9 0xbb652b91de9b1c43 0x404ac0ef149fad11",
                "complete: 10 0xf75ad74200c6fed5 0x404d320183a12a00",
                "mst: 9 0xbb652b91de9b1c43 0x404ac0ef149fad11",
                "greedy attachment: 9 0x9e3d93c109a8a5f3 0x404ad35ccd2308cf",
            ],
            [
                "random greedy: 9 0xb28af0bffd456fa0 0x404ad35ccd2308cf",
                "complete: 10 0xf75ad74200c6fed5 0x404d320183a12a00",
                "mst: 9 0xbb652b91de9b1c43 0x404ac0ef149fad11",
                "greedy attachment: 9 0x9e3d93c109a8a5f3 0x404ad35ccd2308cf",
            ],
        ],
    );
}

#[test]
fn unit_grid_ties() {
    // A 4×4 unit grid with uniform demand: equal link lengths and equal
    // candidate costs everywhere, so the heuristics' tie-breaks decide.
    let pts = (0..16).map(|i| Point::new((i % 4) as f64, (i / 4) as f64)).collect();
    let ctx = Context::from_positions(
        pts,
        PopulationKind::Constant { value: 1.0 },
        GravityModel::raw(),
        0,
    );
    check(
        &ctx,
        CostParams::new(1.0, 1.0, 0.05, 0.5),
        [
            [
                "random greedy: 16 0x978f38870f8f9e75 0x40513c4bf337148c",
                "complete: 16 0x88271754a43085ea 0x4051dba29e94de32",
                "mst: 15 0xe3722b1a6cdab5d6 0x40518918c003e158",
                "greedy attachment: 17 0x5f23752ba508051a 0x40519ad262943fc6",
            ],
            [
                "random greedy: 16 0x978f38870f8f9e75 0x40513c4bf337148c",
                "complete: 16 0x88271754a43085ea 0x4051dba29e94de32",
                "mst: 15 0xe3722b1a6cdab5d6 0x40518918c003e158",
                "greedy attachment: 17 0x5f23752ba508051a 0x40519ad262943fc6",
            ],
        ],
    );
}
