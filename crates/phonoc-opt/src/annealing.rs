//! Simulated annealing — one of the "other strategies" slots in the
//! paper's Fig. 1 (extension).
//!
//! Standard geometric-cooling SA over the swap neighbourhood. The
//! initial temperature is calibrated from the spread of a short random
//! probe so the hyper-parameters transfer across objectives (dB scales
//! of IL and SNR differ by an order of magnitude). After calibration the
//! walk runs on the incremental move API: each candidate swap is
//! delta-scored against the current solution ([`OptContext::peek_move`])
//! and only committed ([`OptContext::apply_scored_move`]) when the
//! Metropolis rule accepts it, so a rejected move costs a fraction of a
//! full evaluation. Candidate moves are proposed by the
//! [`Neighborhood`] stream's single-draw entry point
//! ([`Neighborhood::draw`]): uniform over the *admitted* (task-bearing)
//! pairs — free–free swaps, which the objective cannot see, are no
//! longer proposed. The draw deliberately ignores the locality radius
//! under every [`NeighborhoodPolicy`](phonoc_core::NeighborhoodPolicy):
//! a Metropolis walk needs a fixed global proposal kernel for its
//! acceptance rule to stay meaningful across temperatures (the
//! radius/widening machinery belongs to the scan-based descents).

use crate::neighborhood::Neighborhood;
use phonoc_core::{MappingOptimizer, OptContext};
use rand::Rng;

/// Geometric cooling factor per epoch (0 < alpha < 1).
const COOLING: f64 = 0.93;
/// Moves attempted per temperature epoch, as a multiple of the tile
/// count.
const MOVES_PER_EPOCH: usize = 8;
/// Probe evaluations used to calibrate the initial temperature.
const PROBE: usize = 24;

/// Simulated-annealing mapper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimulatedAnnealing;

impl MappingOptimizer for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "sa"
    }

    fn optimize(&self, ctx: &mut OptContext<'_>) {
        let mut nbhd = Neighborhood::new(ctx);
        // Calibration probe: estimate the score spread.
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        // Seeded elite incumbent (portfolio rounds) or random start.
        let mut current = ctx.initial_mapping();
        let Some(mut current_score) = ctx.evaluate(&current) else {
            return;
        };
        lo = lo.min(current_score);
        hi = hi.max(current_score);
        for _ in 0..PROBE {
            let m = ctx.random_mapping();
            let Some(s) = ctx.evaluate(&m) else { return };
            if s > current_score {
                current = m;
                current_score = s;
            }
            lo = lo.min(s);
            hi = hi.max(s);
        }
        let spread = (hi - lo).max(1e-3);
        let mut temperature = spread;
        let floor = spread * 1e-3;

        // Switch to the incremental cursor for the walk itself.
        if ctx.set_current(current.clone()).is_none() {
            return;
        }

        // Track the trajectory's own best so a cooling cycle can reheat
        // from it instead of from wherever the walk drifted.
        let mut best = current;
        let mut best_score = current_score;

        let epoch = MOVES_PER_EPOCH * ctx.tile_count().max(2);
        // Budget-aware schedule: make sure the walk actually freezes
        // before the evaluations run out, whatever the budget is. The
        // fixed `COOLING` acts as an upper bound (slowest decay).
        // `remaining()` counts full-evaluation-equivalents; delta moves
        // cost less, so this is a conservative epoch estimate.
        let epochs_in_budget = (ctx.remaining() / epoch).max(1) as f64;
        let adaptive = (floor / spread).powf(1.0 / epochs_in_budget);
        let cooling = adaptive.min(COOLING).clamp(0.05, 0.999);
        while !ctx.exhausted() {
            for _ in 0..epoch {
                let Some(mv) = nbhd.draw() else {
                    return;
                };
                let Some(ev) = ctx.peek_move(mv) else {
                    return;
                };
                let delta = ev.score() - current_score;
                let accept = delta >= 0.0
                    || ctx
                        .rng()
                        .gen_bool((delta / temperature).exp().clamp(0.0, 1.0));
                if accept {
                    ctx.apply_scored_move(&ev);
                    current_score = ev.score();
                    if ev.score() > best_score {
                        best = ctx.current_mapping().expect("cursor set").clone();
                        best_score = ev.score();
                    }
                }
            }
            temperature *= cooling;
            if temperature < floor {
                // Reheat cycle: restart the walk from the best solution
                // seen so far with a warm (but not fully hot) schedule.
                if ctx.set_current(best.clone()).is_none() {
                    return;
                }
                current_score = best_score;
                temperature = spread * 0.3;
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
        let r = run_dse(&p, &SimulatedAnnealing, &DseConfig::new(500, 17));
        assert_eq!(r.evaluations, 500);
        assert!(r.best_mapping.is_valid());
        let rd = run_dse(
            &p,
            &SimulatedAnnealing,
            &DseConfig::new(500, 17).with_strategy(PeekStrategy::Delta),
        );
        assert!(
            rd.stats.delta_evaluations > 0,
            "sa must walk on the move API"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = tiny_problem();
        let a = run_dse(&p, &SimulatedAnnealing, &DseConfig::new(300, 8));
        let b = run_dse(&p, &SimulatedAnnealing, &DseConfig::new(300, 8));
        assert_eq!(a.best_mapping, b.best_mapping);
    }

    #[test]
    fn not_worse_than_random_search() {
        let p = tiny_problem();
        let rs = run_dse(&p, &RandomSearch, &DseConfig::new(800, 55));
        let sa = run_dse(&p, &SimulatedAnnealing, &DseConfig::new(800, 55));
        assert!(
            sa.best_score >= rs.best_score - 0.5,
            "sa {} far below rs {}",
            sa.best_score,
            rs.best_score
        );
    }
}
