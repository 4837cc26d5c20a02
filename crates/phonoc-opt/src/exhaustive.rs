//! Exhaustive enumeration of every valid mapping — the ground-truth
//! oracle for tiny instances.
//!
//! The mapping problem is NP-hard (paper Section II-D2); this strategy
//! exists so tests can verify that the heuristics reach the true optimum
//! where the space is small enough to enumerate
//! (`tiles! / (tiles - tasks)!` assignments).

use phonoc_core::{Mapping, MappingOptimizer, OptContext};
use phonoc_topo::TileId;

/// Brute-force enumerator. Stops early if the budget runs out, in which
/// case the incumbent is only a lower bound — size the budget with
/// [`Exhaustive::space_size`] when an exact optimum is required.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exhaustive;

impl Exhaustive {
    /// Number of valid mappings of `tasks` onto `tiles`
    /// (`tiles · (tiles−1) ⋯ (tiles−tasks+1)`), saturating on overflow.
    #[must_use]
    pub fn space_size(tasks: usize, tiles: usize) -> usize {
        let mut total = 1usize;
        for i in 0..tasks {
            total = total.saturating_mul(tiles - i);
        }
        total
    }
}

impl MappingOptimizer for Exhaustive {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn optimize(&self, ctx: &mut OptContext<'_>) {
        let tasks = ctx.task_count();
        let tiles = ctx.tile_count();
        let mut assignment: Vec<TileId> = Vec::with_capacity(tasks);
        let mut used = vec![false; tiles];
        enumerate(ctx, tasks, tiles, &mut assignment, &mut used);
    }
}

/// Depth-first enumeration of injective assignments.
/// Returns `false` when the budget ran out (aborts the recursion).
fn enumerate(
    ctx: &mut OptContext<'_>,
    tasks: usize,
    tiles: usize,
    assignment: &mut Vec<TileId>,
    used: &mut [bool],
) -> bool {
    if assignment.len() == tasks {
        let m = Mapping::from_assignment(assignment.clone(), tiles)
            .expect("enumeration yields valid assignments");
        return ctx.evaluate(&m).is_some();
    }
    for tile in 0..tiles {
        if used[tile] {
            continue;
        }
        used[tile] = true;
        assignment.push(TileId(tile));
        let keep_going = enumerate(ctx, tasks, tiles, assignment, used);
        assignment.pop();
        used[tile] = false;
        if !keep_going {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::micro_problem;
    use phonoc_core::{run_dse, DseConfig};

    #[test]
    fn space_size_formula() {
        assert_eq!(Exhaustive::space_size(2, 4), 12);
        assert_eq!(Exhaustive::space_size(4, 4), 24);
        assert_eq!(Exhaustive::space_size(3, 9), 504);
        assert_eq!(Exhaustive::space_size(0, 5), 1);
    }

    #[test]
    fn enumerates_the_whole_space() {
        let p = micro_problem();
        let space = Exhaustive::space_size(p.task_count(), p.tile_count());
        let r = run_dse(&p, &Exhaustive, &DseConfig::new(space + 10, 0));
        assert_eq!(r.evaluations, space, "must evaluate every mapping once");
    }

    #[test]
    fn heuristics_reach_the_exhaustive_optimum() {
        use crate::annealing::SimulatedAnnealing;
        use crate::genetic::GeneticAlgorithm;
        use crate::rpbla::Rpbla;
        let p = micro_problem();
        let space = Exhaustive::space_size(p.task_count(), p.tile_count());
        let truth = run_dse(&p, &Exhaustive, &DseConfig::new(space, 0)).best_score;
        // Give each heuristic the full space worth of budget: they should
        // find the global optimum of this micro instance.
        for opt in [
            &Rpbla as &dyn phonoc_core::MappingOptimizer,
            &GeneticAlgorithm,
            &SimulatedAnnealing,
        ] {
            let r = run_dse(&p, opt, &DseConfig::new(space, 1234));
            assert!(
                (r.best_score - truth).abs() < 1e-9,
                "{} reached {} but optimum is {truth}",
                opt.name(),
                r.best_score
            );
        }
    }
}
