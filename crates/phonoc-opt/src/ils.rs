//! Iterated local search (extension): perturb-and-descend, the natural
//! middle ground between R-PBLA's full restarts and tabu's continuous
//! walk.
//!
//! Each round starts from the best solution found so far, applies a
//! small random perturbation (a handful of swaps — the "kick"), and runs
//! first-improvement descent until a local optimum. Compared to R-PBLA's
//! random restarts, the kick preserves most of the incumbent's
//! structure, which pays off on problems whose good solutions share
//! large building blocks (grid embeddings do).
//!
//! The descent walks the budget-aware [`Neighborhood`] stream (shared
//! with R-PBLA and tabu): each pass's candidates are visited from a
//! random offset and delta-scored with
//! [`OptContext::peek_move_improving`] — the objective-aware peek that
//! rejects non-improving moves via a cheap admissible bound and
//! scores the rest exactly — and the first improving one committed with
//! [`OptContext::apply_scored_move`]. A dry pass widens a locality
//! stream before the round is declared a local optimum.

use crate::neighborhood::{scan_quota, Neighborhood};
use phonoc_core::{MappingOptimizer, OptContext};
use rand::Rng;

/// Number of random swaps in each perturbation kick.
const KICK_STRENGTH: usize = 3;

/// Iterated local search with first-improvement descent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IteratedLocalSearch;

impl MappingOptimizer for IteratedLocalSearch {
    fn name(&self) -> &'static str {
        "ils"
    }

    fn optimize(&self, ctx: &mut OptContext<'_>) {
        let mut nbhd = Neighborhood::new(ctx);

        // Seeded elite incumbent (portfolio rounds) or random start.
        let mut best = ctx.initial_mapping();
        let Some(mut best_score) = ctx.evaluate(&best) else {
            return;
        };
        if nbhd.admitted_len() == 0 {
            return;
        }

        'rounds: while !ctx.exhausted() {
            // Kick: perturb the incumbent, then make it the cursor (one
            // full evaluation, as before the move API).
            let mut kicked = best.clone();
            for _ in 0..KICK_STRENGTH {
                kicked.random_swap(ctx.rng());
            }
            let Some(mut current_score) = ctx.set_current(kicked) else {
                break;
            };
            nbhd.reset();

            // First-improvement descent over the neighbourhood stream.
            loop {
                let mut improved = false;
                let quota = scan_quota(ctx.remaining(), nbhd.admitted_len());
                let moves = nbhd.pass(ctx, quota);
                // Random starting offset decorrelates successive rounds
                // even under the (deterministically ordered) exhaustive
                // stream.
                let offset = ctx.rng().gen_range(0..moves.len().max(1));
                for i in 0..moves.len() {
                    let mv = moves[(i + offset) % moves.len()];
                    let Some(ev) = ctx.peek_move_improving(mv) else {
                        break 'rounds;
                    };
                    if ev.score() > current_score {
                        ctx.apply_scored_move(&ev);
                        current_score = ev.score();
                        improved = true;
                        break;
                    }
                }
                if improved {
                    nbhd.notify_improved(ctx);
                    continue;
                }
                if !nbhd.widen(ctx) {
                    break;
                }
            }
            if current_score > best_score {
                best = ctx.current_mapping().expect("cursor set").clone();
                best_score = current_score;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_search::RandomSearch;
    use crate::test_support::tiny_problem;
    use phonoc_core::{run_dse, DseConfig, PeekStrategy};

    #[test]
    fn respects_budget_and_validity() {
        let p = tiny_problem();
        let r = run_dse(&p, &IteratedLocalSearch, &DseConfig::new(600, 4));
        assert_eq!(r.evaluations, 600);
        assert!(r.best_mapping.is_valid());
        let rd = run_dse(
            &p,
            &IteratedLocalSearch,
            &DseConfig::new(600, 4).with_strategy(PeekStrategy::Delta),
        );
        assert!(
            rd.stats.delta_evaluations > 0,
            "ils must descend on the move API"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = tiny_problem();
        let a = run_dse(&p, &IteratedLocalSearch, &DseConfig::new(400, 21));
        let b = run_dse(&p, &IteratedLocalSearch, &DseConfig::new(400, 21));
        assert_eq!(a.best_mapping, b.best_mapping);
    }

    #[test]
    fn not_worse_than_random_search() {
        let p = tiny_problem();
        let rs = run_dse(&p, &RandomSearch, &DseConfig::new(900, 8));
        let ils = run_dse(&p, &IteratedLocalSearch, &DseConfig::new(900, 8));
        assert!(
            ils.best_score >= rs.best_score - 0.5,
            "ils {} far below rs {}",
            ils.best_score,
            rs.best_score
        );
    }
}
