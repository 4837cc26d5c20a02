//! Random search (paper Section II-D2): "generates randomly a population
//! of a given size and then picks the best individual".
//!
//! With the engine's budget semantics this is simply: draw uniformly
//! random valid mappings until the evaluation budget runs out; the
//! incumbent tracking in [`OptContext`] keeps the best. Draws are scored
//! in chunks through [`OptContext::evaluate_batch_improving`], which
//! fans the independent evaluations across CPU cores; chunks are drawn
//! sequentially from the seeded RNG, so the stream — and therefore the
//! result — is identical to the one-at-a-time loop.
//!
//! RS keeps nothing but the best draw, so it only needs an exact score
//! for a draw that beats the incumbent. Under an SNR-based objective
//! each chunk is scored against the incumbent held at its start: a
//! draw's full pass stops as soon as one communication proves the
//! draw's worst-case SNR no better (see the bounded full evaluation in
//! `phonoc_core::evaluator`). A stopped draw is billed and counted as
//! the full evaluation it stands for, so the ledger, the `RunStats`,
//! the history and the result are those of exact scoring, bit for bit.
//! The chunk's mappings are redrawn in place
//! ([`Mapping::reshuffle`], the same RNG calls as
//! [`Mapping::random`]), so a draw allocates nothing.
//!
//! RS is **deliberately policy-free and start-free**: it proposes whole
//! uniform mappings rather than moves, so there is no swap
//! neighbourhood a
//! [`NeighborhoodPolicy`](phonoc_core::NeighborhoodPolicy) could
//! restrict, and seeding it with an elite incumbent (the portfolio
//! exchange hook other strategies honour through
//! [`OptContext::initial_mapping`]) would only distort the uniform
//! baseline it exists to provide. A portfolio lane running `rs` still
//! contributes — its samples feed the shared incumbent — it just never
//! *consumes* an exchanged elite.

use phonoc_core::{Mapping, MappingOptimizer, OptContext};

/// Mappings drawn per parallel scoring chunk.
const CHUNK: usize = 64;

/// The paper's RS baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomSearch;

impl MappingOptimizer for RandomSearch {
    fn name(&self) -> &'static str {
        "rs"
    }

    fn optimize(&self, ctx: &mut OptContext<'_>) {
        let mut batch = vec![Mapping::identity(ctx.task_count(), ctx.tile_count()); CHUNK];
        while !ctx.exhausted() {
            let n = ctx.remaining().min(CHUNK);
            for m in &mut batch[..n] {
                m.reshuffle(ctx.rng());
            }
            if ctx.evaluate_batch_improving(&batch[..n]).len() < n {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_problem;
    use phonoc_core::{run_dse, DseConfig};

    #[test]
    fn uses_whole_budget() {
        let p = tiny_problem();
        let r = run_dse(&p, &RandomSearch, &DseConfig::new(123, 7));
        assert_eq!(r.evaluations, 123);
        assert!(r.best_mapping.is_valid());
    }

    #[test]
    fn more_budget_never_hurts() {
        let p = tiny_problem();
        let small = run_dse(&p, &RandomSearch, &DseConfig::new(20, 5));
        let large = run_dse(&p, &RandomSearch, &DseConfig::new(400, 5));
        assert!(
            large.best_score >= small.best_score,
            "a prefix-extended search cannot be worse under the same seed"
        );
    }
}
