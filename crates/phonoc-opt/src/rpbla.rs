//! R-PBLA — the paper's randomized priority-based list algorithm
//! (Section II-D2).
//!
//! Quoting the paper: the algorithm "tries, at each step, to make the
//! best move as possible within a list of admitted moves, i.e. the moves
//! consisting on swapping the tasks mapped onto two different tiles. The
//! list is ordered according to the worst-case power loss or SNR
//! associated with any potential move. The algorithm does not allow
//! uphill moves […] when the algorithm finds a local minimum […] it
//! records the solution and generates another random starting point in
//! the hope of falling in a different region of attraction."
//!
//! Implementation notes:
//!
//! * The admitted list contains every pair swap of the tile permutation
//!   in which at least one side hosts a task
//!   ([`crate::neighborhood::admitted_moves`]; swapping two free tiles
//!   is a no-op for the objective and is excluded from the list).
//! * "Ordered according to the worst-case loss/SNR" + "best move" =
//!   steepest descent — generalized here to **best-of-scanned** over a
//!   budget-aware [`Neighborhood`] stream: under the (small-mesh
//!   default) exhaustive stream the whole admitted list is scored and
//!   the maximum-score move taken, exactly as the paper describes;
//!   under the sampled/locality streams each pass scores a seeded,
//!   duplicate-free subset sized by [`scan_quota`], so a 12×12+ descent
//!   actually *descends* through many commits instead of burning the
//!   whole budget on one truncated prefix scan. Ties break on the first
//!   encountered, which depends on the randomized starting point — the
//!   *randomized* part of the name, together with the random restarts.
//! * The scan runs on the **incremental move API**
//!   ([`OptContext::peek_moves_improving`]): each candidate swap is
//!   delta-scored in parallel against the current solution and charged
//!   only for the work it triggers. The scan is objective-aware — IL
//!   runs ride the crosstalk-free loss fast path, SNR runs the
//!   bound-then-verify peek that rejects non-improving swaps cheaply
//!   while scoring potential improvements exactly — so one descent
//!   step costs a small fraction of the `O(n²)` full evaluations the
//!   naive scan would pay. Budget accounting stays fair — cheaper
//!   moves simply buy more of them. Bounded peeks never change which
//!   move the steepest-descent step selects (property-tested).
//! * A dry scan under the locality stream widens the radius and
//!   rescans; a dry sampled/exhaustive scan is a (probable, resp.
//!   proven) local optimum and triggers a restart. Restarts continue
//!   until the shared evaluation budget is exhausted, so a comparison
//!   against RS/GA at equal budget is fair.

use crate::neighborhood::{scan_quota, Neighborhood};
use phonoc_core::{MappingOptimizer, MoveEval, OptContext};

/// The paper's purpose-built search strategy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rpbla;

/// First maximum-score entry (ties break on the earliest, as the
/// sequential scan did). Bound-rejected entries compare by their upper
/// bound, which never exceeds the cursor score — so they can never
/// outrank an improving exact entry.
pub(crate) fn best_of(evals: &[MoveEval]) -> Option<&MoveEval> {
    let mut best: Option<&MoveEval> = None;
    for ev in evals {
        if best.is_none_or(|b| ev.score() > b.score()) {
            best = Some(ev);
        }
    }
    best
}

impl MappingOptimizer for Rpbla {
    fn name(&self) -> &'static str {
        "r-pbla"
    }

    fn optimize(&self, ctx: &mut OptContext<'_>) {
        let mut nbhd = Neighborhood::new(ctx);
        if nbhd.admitted_len() == 0 {
            // Degenerate single-position instance: score the only point.
            let m = ctx.random_mapping();
            ctx.evaluate(&m);
            return;
        }

        'restarts: while !ctx.exhausted() {
            // Starting point (one full evaluation): the seeded elite
            // incumbent when a portfolio round planted one, a random
            // draw otherwise — and always random on later restarts
            // (the seed is one-shot).
            let start = ctx.initial_mapping();
            if ctx.set_current(start).is_none() {
                break;
            }
            nbhd.reset();

            // Best-of-scanned descent over the neighbourhood stream,
            // scored incrementally and in parallel. The improving scan
            // only pays for exact deltas on moves that can actually
            // beat the cursor; everything else is bound-rejected
            // cheaply.
            loop {
                let quota = scan_quota(ctx.remaining(), nbhd.admitted_len());
                let moves = nbhd.pass(ctx, quota);
                if moves.is_empty() {
                    // An empty locality pool at this radius: widen, or
                    // give up on this start if already maximal.
                    ctx.note_scan_dry(nbhd.radius().unwrap_or(0));
                    if nbhd.widen() {
                        ctx.note_widened(nbhd.radius().unwrap_or(0));
                        continue;
                    }
                    continue 'restarts;
                }
                let scanned = ctx.peek_moves_improving(moves);
                let truncated = scanned.len() < moves.len();
                match best_of(&scanned) {
                    // Uphill move (for a maximized score) found: take it.
                    Some(best) if best.score() > ctx.current_score().expect("cursor set") => {
                        let best = *best;
                        ctx.apply_scored_move(&best);
                        let before = nbhd.radius();
                        nbhd.notify_improved();
                        if let (Some(b), Some(a)) = (before, nbhd.radius()) {
                            if a < b {
                                ctx.note_narrowed(a);
                            }
                        }
                        if truncated {
                            // The scan was cut short by the budget; the
                            // partial best was still applied, but stop.
                            break 'restarts;
                        }
                    }
                    // Dry scan. Locality widens and rescans; otherwise
                    // this is a (probable/proven) local optimum — the
                    // incumbent is already recorded by the context, so
                    // restart from a fresh random point.
                    Some(_) => {
                        if truncated {
                            break 'restarts;
                        }
                        ctx.note_scan_dry(nbhd.radius().unwrap_or(0));
                        if !nbhd.widen() {
                            continue 'restarts;
                        }
                        ctx.note_widened(nbhd.radius().unwrap_or(0));
                    }
                    // Budget exhausted before anything was scored.
                    None => break 'restarts,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_search::RandomSearch;
    use crate::test_support::tiny_problem;
    use phonoc_core::{run_dse, DseConfig, NeighborhoodPolicy, PeekStrategy};

    #[test]
    fn respects_budget_and_validity() {
        let p = tiny_problem();
        let r = run_dse(&p, &Rpbla, &DseConfig::new(400, 9));
        assert_eq!(r.evaluations, 400);
        assert!(r.best_mapping.is_valid());
        // The descent scans run on the peek API; pin the delta backend
        // (the hybrid route legitimately picks full passes on a dense
        // 3×3) to check the incremental path is really exercised.
        let rd = run_dse(
            &p,
            &Rpbla,
            &DseConfig::new(400, 9).with_strategy(PeekStrategy::Delta),
        );
        assert!(
            rd.delta_evaluations > 0,
            "R-PBLA must use incremental scans"
        );
    }

    #[test]
    fn respects_budget_under_every_neighborhood_policy() {
        let p = tiny_problem();
        for policy in NeighborhoodPolicy::ALL {
            let r = run_dse(&p, &Rpbla, &DseConfig::new(300, 9).with_policy(policy));
            assert_eq!(r.evaluations, 300, "{policy}");
            assert!(r.best_mapping.is_valid(), "{policy}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = tiny_problem();
        for policy in NeighborhoodPolicy::ALL {
            let a = run_dse(&p, &Rpbla, &DseConfig::new(300, 21).with_policy(policy));
            let b = run_dse(&p, &Rpbla, &DseConfig::new(300, 21).with_policy(policy));
            assert_eq!(a.best_mapping, b.best_mapping, "{policy}");
        }
    }

    #[test]
    fn descends_monotonically_within_history() {
        let p = tiny_problem();
        let r = run_dse(&p, &Rpbla, &DseConfig::new(600, 2));
        let mut prev = f64::NEG_INFINITY;
        for (_, s) in &r.history {
            assert!(*s > prev);
            prev = *s;
        }
    }

    #[test]
    fn beats_random_search_at_equal_budget() {
        // The paper's headline comparison, in miniature: same budget,
        // same seed, R-PBLA should not lose to RS on a structured
        // problem.
        let p = tiny_problem();
        let budget = 800;
        let rs = run_dse(&p, &RandomSearch, &DseConfig::new(budget, 33));
        let rp = run_dse(&p, &Rpbla, &DseConfig::new(budget, 33));
        assert!(
            rp.best_score >= rs.best_score,
            "r-pbla {} < rs {}",
            rp.best_score,
            rs.best_score
        );
    }
}
