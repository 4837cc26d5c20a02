//! Tabu search — another "other strategies" slot of the paper's Fig. 1
//! (extension).
//!
//! Best-move search over the swap neighbourhood with a recency-based
//! tabu list on position pairs. Unlike R-PBLA, the best *non-tabu* move
//! is taken even when it worsens the solution, which lets the search
//! climb out of local optima without restarts; an aspiration criterion
//! overrides the tabu status of a move that would beat the global best.
//!
//! The neighbourhood comes from the budget-aware [`Neighborhood`]
//! stream (the same abstraction R-PBLA and ILS ride): exhaustive on
//! small meshes, sampled or distance-restricted per the engine's
//! [`NeighborhoodPolicy`](phonoc_core::NeighborhoodPolicy) at scale.
//! Each pass is scanned on the incremental move API
//! ([`OptContext::peek_moves`]): every candidate swap is delta-scored
//! in parallel and charged only for the edges it perturbs.

use crate::neighborhood::{scan_quota, Neighborhood};
use phonoc_core::{MappingOptimizer, Move, MoveEval, OptContext};
use std::collections::HashMap;

/// Iterations a reversed move stays forbidden, as a multiple of the
/// tile count (a common tenure heuristic).
const TENURE_FACTOR: usize = 1;

/// Tabu-search mapper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TabuSearch;

impl MappingOptimizer for TabuSearch {
    fn name(&self) -> &'static str {
        "tabu"
    }

    fn optimize(&self, ctx: &mut OptContext<'_>) {
        let tiles = ctx.tile_count();
        let tenure = (TENURE_FACTOR * tiles).max(2);
        let mut nbhd = Neighborhood::new(ctx);

        // Seeded elite incumbent (portfolio rounds) or random start.
        let start = ctx.initial_mapping();
        if ctx.set_current(start).is_none() || nbhd.admitted_len() == 0 {
            return;
        }
        let mut global_best = ctx.current_score().expect("cursor set");
        let mut tabu: HashMap<(usize, usize), usize> = HashMap::new();
        let mut iteration = 0usize;

        while !ctx.exhausted() {
            iteration += 1;
            let quota = scan_quota(ctx.remaining(), nbhd.admitted_len());
            let moves = nbhd.pass(ctx, quota);
            if moves.is_empty() {
                if nbhd.widen(ctx) {
                    continue;
                }
                break;
            }
            let scanned = ctx.peek_moves(moves);
            let truncated = scanned.len() < moves.len();
            let mut best: Option<&MoveEval> = None;
            for ev in &scanned {
                let Move::Swap(a, b) = ev.mv();
                let is_tabu = tabu.get(&(a, b)).is_some_and(|&until| until > iteration);
                // Aspiration: a new global best is always admissible.
                if is_tabu && ev.score() <= global_best {
                    continue;
                }
                if best.is_none_or(|x| ev.score() > x.score()) {
                    best = Some(ev);
                }
            }
            let Some(best) = best.copied() else {
                if truncated {
                    break;
                }
                // Everything tabu (or the locality radius too tight)
                // and nothing aspirational: open the neighbourhood up,
                // then fall back to clearing the tabu list.
                if nbhd.widen(ctx) {
                    continue;
                }
                tabu.clear();
                continue;
            };
            ctx.apply_scored_move(&best);
            // Tabu commits worsening moves too; "improvement" for the
            // locality stream's narrow-back rule is a new global best.
            if best.score() > global_best {
                nbhd.notify_improved(ctx);
            }
            global_best = global_best.max(best.score());
            let Move::Swap(a, b) = best.mv();
            tabu.insert((a, b), iteration + tenure);
            if truncated {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_problem;
    use phonoc_core::{run_dse, DseConfig, NeighborhoodPolicy, PeekStrategy};

    #[test]
    fn respects_budget_and_validity() {
        let p = tiny_problem();
        let r = run_dse(&p, &TabuSearch, &DseConfig::new(400, 13));
        assert_eq!(r.evaluations, 400);
        assert!(r.best_mapping.is_valid());
        let rd = run_dse(
            &p,
            &TabuSearch,
            &DseConfig::new(400, 13).with_strategy(PeekStrategy::Delta),
        );
        assert!(
            rd.stats.delta_evaluations > 0,
            "tabu must use incremental scans"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = tiny_problem();
        for policy in NeighborhoodPolicy::ALL {
            let a = run_dse(&p, &TabuSearch, &DseConfig::new(250, 5).with_policy(policy));
            let b = run_dse(&p, &TabuSearch, &DseConfig::new(250, 5).with_policy(policy));
            assert_eq!(a.best_mapping, b.best_mapping, "{policy}");
            assert_eq!(a.evaluations, 250, "{policy}");
        }
    }
}
