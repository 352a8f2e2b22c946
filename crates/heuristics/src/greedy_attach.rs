//! The *Greedy attachment* heuristic (§5): "Like complete and MST, but
//! inter-hub connections are chosen greedily for each new hub": the new hub
//! first takes its best single link to an existing hub, then keeps adding
//! links while each addition reduces the network cost.

use crate::hub_state::{best_single_hub, HubNetwork};
use crate::HeuristicResult;
use cold_cost::{CostEvaluator, DeltaEval};

/// Greedily links freshly promoted hub `new_hub` to existing hubs:
/// repeatedly add the single cost-minimizing link while cost decreases.
/// Returns the updated network and its cost; the first link is mandatory
/// (the hub must join the hub subgraph) even if it raises cost.
pub(crate) fn greedy_link_new_hub(
    mut net: HubNetwork,
    new_hub: usize,
    session: &mut DeltaEval<'_>,
) -> (HubNetwork, f64) {
    let mut linked: Vec<usize> = Vec::new();
    let mut current_cost = f64::INFINITY;
    loop {
        let mut best: Option<(usize, f64)> = None;
        for &h in net.hubs() {
            if h == new_hub || linked.contains(&h) {
                continue;
            }
            let mut trial = net.clone();
            trial.set_hub_links(with_link(net.hub_links(), new_hub, h));
            let c = trial.cost(session);
            if best.as_ref().is_none_or(|&(_, bc)| c < bc) {
                best = Some((h, c));
            }
        }
        let Some((h, c)) = best else { break };
        // The first link is mandatory (the hub subgraph must stay
        // connected); later links only if they strictly reduce cost.
        if linked.is_empty() || c < current_cost {
            net.set_hub_links(with_link(net.hub_links(), new_hub, h));
            linked.push(h);
            current_cost = c;
        } else {
            break;
        }
    }
    (net, current_cost)
}

/// `links` plus the edge `{a, b}` (idempotent).
fn with_link(links: &[(usize, usize)], a: usize, b: usize) -> Vec<(usize, usize)> {
    let e = if a < b { (a, b) } else { (b, a) };
    let mut l = links.to_vec();
    if !l.contains(&e) {
        l.push(e);
    }
    l
}

/// Runs the Greedy-attachment heuristic to a local optimum.
pub fn greedy_attachment(eval: &CostEvaluator<'_>) -> HeuristicResult {
    let mut session = DeltaEval::new(eval.ctx, eval.params);
    let star = best_single_hub(&mut session);
    HeuristicResult::of(eval.ctx, from_star(&mut session, &star))
}

/// The Greedy-attachment heuristic's local optimum from the best
/// single-hub `star`, priced through `session`.
pub(crate) fn from_star(
    session: &mut DeltaEval<'_>,
    star: &(HubNetwork, f64),
) -> (HubNetwork, f64) {
    let (mut net, mut cost) = star.clone();
    loop {
        let mut best: Option<(HubNetwork, f64)> = None;
        for cand in net.leaves() {
            let mut trial = net.clone();
            trial.promote(cand, &[]);
            let (trial, c) = greedy_link_new_hub(trial, cand, session);
            if c < cost && best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                best = Some((trial, c));
            }
        }
        match best {
            Some((next, c)) => {
                net = next;
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
    fn result_is_connected_and_consistent() {
        let ctx = ContextConfig::paper_default(12).generate(9);
        let eval = CostEvaluator::new(&ctx, CostParams::paper(1e-4, 10.0));
        let r = greedy_attachment(&eval);
        assert!(cold_graph::components::matrix_is_connected(&r.topology));
        assert!((eval.cost(&r.topology).unwrap() - r.cost).abs() < 1e-9);
    }

    #[test]
    fn never_worse_than_star() {
        let ctx = ContextConfig::paper_default(10).generate(10);
        let eval = CostEvaluator::new(&ctx, CostParams::paper(4e-4, 10.0));
        let (_, star_cost) = best_single_hub(&mut DeltaEval::new(&ctx, eval.params));
        assert!(greedy_attachment(&eval).cost <= star_cost + 1e-9);
    }

    #[test]
    fn promotes_hubs_when_length_cost_rewards_it() {
        // With the paper's k0 = 10, k1 = 1 and no hub cost, spreading hubs
        // lets leaves attach to nearby hubs, cutting the k1 length cost, so
        // the heuristic must promote beyond the single-hub star.
        let ctx = ContextConfig::paper_default(12).generate(11);
        let eval = CostEvaluator::new(&ctx, CostParams::paper(1.6e-3, 0.0));
        let r = greedy_attachment(&eval);
        let hubs = r.topology.degrees().iter().filter(|&&d| d > 1).count();
        assert!(hubs >= 2, "expected multiple hubs, got {hubs}");
        let (_, star_cost) = best_single_hub(&mut DeltaEval::new(&ctx, eval.params));
        assert!(r.cost < star_cost, "promotion must strictly improve on the star");
    }
}
