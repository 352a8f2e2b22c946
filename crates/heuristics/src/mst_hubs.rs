//! The *MST* heuristic (§5): "Just like complete, but the hubs are
//! connected in a minimum spanning tree."

use crate::hub_state::{best_single_hub, HubNetwork};
use crate::HeuristicResult;
use cold_cost::{CostEvaluator, DeltaEval};
use cold_graph::mst::mst_kruskal;

/// MST interconnect (by physical distance) over the given hub set.
fn mst_links(hubs: &[usize], dist: impl Fn(usize, usize) -> f64) -> Vec<(usize, usize)> {
    // MST over the hub sub-metric, mapped back to node indices.
    let k = hubs.len();
    mst_kruskal(k, |a, b| dist(hubs[a], hubs[b]))
        .into_iter()
        .map(|e| {
            let (u, v) = (hubs[e.u], hubs[e.v]);
            if u < v {
                (u, v)
            } else {
                (v, u)
            }
        })
        .collect()
}

/// Runs the MST heuristic to a local optimum.
pub fn mst_heuristic(eval: &CostEvaluator<'_>) -> HeuristicResult {
    let mut session = DeltaEval::new(eval.ctx, eval.params);
    let star = best_single_hub(&mut session);
    HeuristicResult::of(eval.ctx, from_star(&mut session, &star))
}

/// The MST heuristic's local optimum from the best single-hub `star`,
/// priced through `session`.
pub(crate) fn from_star(
    session: &mut DeltaEval<'_>,
    star: &(HubNetwork, f64),
) -> (HubNetwork, f64) {
    let ctx = session.ctx();
    let dist = |u: usize, v: usize| ctx.distance(u, v);
    let (mut net, mut cost) = star.clone();
    loop {
        let mut best: Option<(usize, f64)> = None;
        for cand in net.leaves() {
            let mut trial = net.clone();
            trial.promote(cand, &[]);
            let links = mst_links(trial.hubs(), dist);
            trial.set_hub_links(links);
            let c = trial.cost(session);
            if c < cost && best.as_ref().is_none_or(|&(_, bc)| c < bc) {
                best = Some((cand, c));
            }
        }
        match best {
            Some((cand, c)) => {
                net.promote(cand, &[]);
                let links = mst_links(net.hubs(), dist);
                net.set_hub_links(links);
                cost = c;
            }
            None => break,
        }
    }
    (net, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cold_context::ContextConfig;
    use cold_cost::CostParams;

    #[test]
    fn mst_links_span_hubs() {
        let dist = |u: usize, v: usize| (u as f64 - v as f64).abs();
        let links = mst_links(&[0, 3, 7], dist);
        assert_eq!(links.len(), 2);
        assert!(links.contains(&(0, 3)));
        assert!(links.contains(&(3, 7)));
    }

    #[test]
    fn result_is_connected_and_consistent() {
        let ctx = ContextConfig::paper_default(12).generate(6);
        let eval = CostEvaluator::new(&ctx, CostParams::paper(1e-4, 10.0));
        let r = mst_heuristic(&eval);
        assert!(cold_graph::components::matrix_is_connected(&r.topology));
        assert!((eval.cost(&r.topology).unwrap() - r.cost).abs() < 1e-9);
    }

    #[test]
    fn tree_structured_result_when_k0_k1_dominate() {
        // MST-connected hubs + leaf attachments form a tree (no cycles),
        // so edge count is exactly n − 1.
        let ctx = ContextConfig::paper_default(10).generate(7);
        let eval = CostEvaluator::new(&ctx, CostParams::paper(1e-6, 0.0));
        let r = mst_heuristic(&eval);
        assert_eq!(r.topology.edge_count(), 9);
    }

    #[test]
    fn beats_or_matches_star_baseline() {
        let ctx = ContextConfig::paper_default(10).generate(8);
        let eval = CostEvaluator::new(&ctx, CostParams::paper(4e-4, 10.0));
        let (_, star_cost) = best_single_hub(&mut DeltaEval::new(&ctx, eval.params));
        assert!(mst_heuristic(&eval).cost <= star_cost + 1e-9);
    }
}
