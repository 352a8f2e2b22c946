//! The *Complete* heuristic (§5): hubs form a clique.
//!
//! "All the PoPs are tested as a possible hub and the best one is taken.
//! This repeats until none of the remaining nodes will reduce the cost when
//! added as a hub. Each new hub is connected to all the existing hubs, thus
//! making a network where the hubs form a completely connected graph."

use crate::hub_state::{best_single_hub, HubNetwork};
use crate::HeuristicResult;
use cold_cost::{CostEvaluator, DeltaEval};

/// Clique interconnect over the given hub set.
fn clique_links(hubs: &[usize]) -> Vec<(usize, usize)> {
    let mut links = Vec::with_capacity(hubs.len() * hubs.len().saturating_sub(1) / 2);
    for (i, &u) in hubs.iter().enumerate() {
        for &v in &hubs[i + 1..] {
            links.push(if u < v { (u, v) } else { (v, u) });
        }
    }
    links
}

/// Runs the Complete heuristic to a local optimum.
pub fn complete_heuristic(eval: &CostEvaluator<'_>) -> HeuristicResult {
    let mut session = DeltaEval::new(eval.ctx, eval.params);
    let star = best_single_hub(&mut session);
    HeuristicResult::of(eval.ctx, from_star(&mut session, &star))
}

/// The Complete heuristic's local optimum from the best single-hub
/// `star`, priced through `session`.
pub(crate) fn from_star(
    session: &mut DeltaEval<'_>,
    star: &(HubNetwork, f64),
) -> (HubNetwork, f64) {
    let (mut net, mut cost) = star.clone();
    loop {
        let mut best: Option<(usize, f64)> = None;
        for cand in net.leaves() {
            let mut trial = net.clone();
            trial.promote(cand, &[]);
            trial.set_hub_links(clique_links(trial.hubs()));
            let c = trial.cost(session);
            if c < cost && best.as_ref().is_none_or(|&(_, bc)| c < bc) {
                best = Some((cand, c));
            }
        }
        match best {
            Some((cand, c)) => {
                net.promote(cand, &[]);
                net.set_hub_links(clique_links(net.hubs()));
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
    fn clique_links_formula() {
        assert_eq!(clique_links(&[1, 3, 5]), vec![(1, 3), (1, 5), (3, 5)]);
        assert!(clique_links(&[2]).is_empty());
    }

    #[test]
    fn result_is_connected_and_consistent() {
        let ctx = ContextConfig::paper_default(12).generate(3);
        let eval = CostEvaluator::new(&ctx, CostParams::paper(1e-4, 10.0));
        let r = complete_heuristic(&eval);
        assert!(cold_graph::components::matrix_is_connected(&r.topology));
        assert!((eval.cost(&r.topology).unwrap() - r.cost).abs() < 1e-9);
    }

    #[test]
    fn never_worse_than_best_star() {
        let ctx = ContextConfig::paper_default(10).generate(4);
        let eval = CostEvaluator::new(&ctx, CostParams::paper(4e-4, 0.0));
        let (_, star_cost) = best_single_hub(&mut DeltaEval::new(&ctx, eval.params));
        let r = complete_heuristic(&eval);
        assert!(r.cost <= star_cost + 1e-9);
    }

    #[test]
    fn high_hub_cost_keeps_single_hub() {
        // With an enormous k3, promoting any second hub must be rejected.
        let ctx = ContextConfig::paper_default(10).generate(5);
        let eval = CostEvaluator::new(&ctx, CostParams::paper(1e-5, 1e9));
        let r = complete_heuristic(&eval);
        let hubs = r.topology.degrees().iter().filter(|&&d| d > 1).count();
        assert_eq!(hubs, 1);
    }
}
