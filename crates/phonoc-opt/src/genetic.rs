//! Genetic algorithm (paper Section II-D2): "creates a fixed-sized
//! population of candidate solutions that, using the crossover and
//! mutation operators, evolves over a number of generations toward
//! better solutions."
//!
//! The chromosome is the full tile permutation of a [`Mapping`]
//! (tasks first, free tiles in the tail), so permutation-preserving
//! operators keep every individual valid by construction:
//!
//! * **selection** — size-`k` tournament;
//! * **crossover** — PMX (partially mapped), standard for permutation
//!   encodings;
//! * **mutation** — an admitted swap drawn from the engine-selected
//!   [`Neighborhood`] stream ([`Neighborhood::draw_for`]), so the GA
//!   respects the context's
//!   [`NeighborhoodPolicy`](phonoc_core::NeighborhoodPolicy): under
//!   `locality` a mutation displaces tasks at most the current radius
//!   apart (relative to the individual being mutated), and under every
//!   policy mutations stop wasting draws on objective-invisible
//!   free–free swaps;
//! * **elitism** — the best `ELITE` individuals survive unchanged.
//!
//! (Random search deliberately stays policy-free: it proposes whole
//! uniform mappings, not moves, so there is no neighbourhood to
//! restrict — see `random_search`.)

use crate::neighborhood::Neighborhood;
use phonoc_core::{Mapping, MappingOptimizer, OptContext};
use phonoc_topo::TileId;
use rand::Rng;

/// Population size. The parameters follow common practice for
/// permutation problems of this size (tens of positions).
const POPULATION: usize = 40;
/// Individuals copied unchanged into the next generation.
const ELITE: usize = 2;
/// Tournament size for parent selection.
const TOURNAMENT: usize = 3;
/// Per-offspring probability of one extra mutation swap.
const MUTATION_RATE: f64 = 0.35;

/// The paper's GA baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeneticAlgorithm;

impl MappingOptimizer for GeneticAlgorithm {
    fn name(&self) -> &'static str {
        "ga"
    }

    fn optimize(&self, ctx: &mut OptContext<'_>) {
        // The policy-respecting mutation kernel (see the module docs).
        let mut nbhd = Neighborhood::new(ctx);

        // Initial population, scored as one parallel batch. The first
        // individual is the context's initial mapping — a planted
        // elite incumbent under portfolio exchange, a plain random
        // draw otherwise.
        let initial: Vec<Mapping> = (0..POPULATION)
            .map(|i| {
                if i == 0 {
                    ctx.initial_mapping()
                } else {
                    ctx.random_mapping()
                }
            })
            .collect();
        let scores = ctx.evaluate_batch(&initial);
        let mut pop: Vec<(Mapping, f64)> = initial.into_iter().zip(scores).collect();
        if pop.is_empty() {
            return;
        }

        while !ctx.exhausted() {
            // Sort descending by fitness (higher score = better).
            pop.sort_by(|a, b| b.1.total_cmp(&a.1));
            let survivors = ELITE.min(pop.len());
            let mut next: Vec<(Mapping, f64)> = pop[..survivors].to_vec();
            // Breed the whole generation first (evaluation consumes no
            // randomness, so the RNG stream matches a breed-then-score
            // interleaving), then score it as one parallel batch.
            let mut offspring: Vec<Mapping> = Vec::with_capacity(POPULATION - next.len());
            while next.len() + offspring.len() < POPULATION {
                let a = tournament(&pop, TOURNAMENT, ctx);
                let b = tournament(&pop, TOURNAMENT, ctx);
                let mut child = pmx(&pop[a].0, &pop[b].0, ctx.rng());
                if ctx.rng().gen_bool(MUTATION_RATE) {
                    if let Some(mv) = nbhd.draw_for(&child) {
                        child.apply_move(mv);
                    }
                }
                debug_assert!(child.is_valid());
                offspring.push(child);
            }
            let scores = ctx.evaluate_batch(&offspring);
            let exhausted = scores.len() < offspring.len();
            next.extend(offspring.into_iter().zip(scores));
            pop = next;
            if exhausted {
                return;
            }
        }
    }
}

/// Tournament selection: index of the best of `k` random individuals.
fn tournament(pop: &[(Mapping, f64)], k: usize, ctx: &mut OptContext<'_>) -> usize {
    let k = k.clamp(1, pop.len());
    let mut best = ctx.rng().gen_range(0..pop.len());
    for _ in 1..k {
        let c = ctx.rng().gen_range(0..pop.len());
        if pop[c].1 > pop[best].1 {
            best = c;
        }
    }
    best
}

/// Partially-mapped crossover over the full tile permutation.
pub(crate) fn pmx<R: Rng + ?Sized>(a: &Mapping, b: &Mapping, rng: &mut R) -> Mapping {
    let pa = a.permutation();
    let pb = b.permutation();
    let n = pa.len();
    if n < 2 {
        return a.clone();
    }
    let (lo, hi) = random_window(n, rng);

    let mut child: Vec<Option<TileId>> = vec![None; n];
    let mut used = vec![false; n];
    // Copy the window from parent A.
    for i in lo..=hi {
        child[i] = Some(pa[i]);
        used[pa[i].0] = true;
    }
    // Map B's window genes displaced by A's window.
    for i in lo..=hi {
        let gene = pb[i];
        if used[gene.0] {
            continue;
        }
        // Follow the PMX chain to find a free position.
        let mut pos = i;
        loop {
            let displaced = pa[pos];
            pos = pb
                .iter()
                .position(|&g| g == displaced)
                .expect("permutation");
            if !(lo..=hi).contains(&pos) {
                break;
            }
        }
        // The chain lands on a free slot for true permutations; guard
        // anyway so a collision degrades to leftover-filling instead of
        // silently dropping a gene.
        if child[pos].is_none() {
            child[pos] = Some(gene);
            used[gene.0] = true;
        }
    }
    // Fill the rest from B in order.
    for i in 0..n {
        if child[i].is_none() {
            let gene = pb[i];
            if !used[gene.0] {
                child[i] = Some(gene);
                used[gene.0] = true;
            }
        }
    }
    // Any still-unfilled positions take the remaining genes in order.
    let mut leftovers = (0..n).filter(|&g| !used[g]).map(TileId);
    let perm: Vec<TileId> = child
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| leftovers.next().expect("counts match")))
        .collect();
    mapping_from_perm(perm, a.task_count())
}

fn random_window<R: Rng + ?Sized>(n: usize, rng: &mut R) -> (usize, usize) {
    let i = rng.gen_range(0..n);
    let j = rng.gen_range(0..n);
    (i.min(j), i.max(j))
}

fn mapping_from_perm(perm: Vec<TileId>, task_count: usize) -> Mapping {
    let tile_count = perm.len();
    let assignment: Vec<TileId> = perm[..task_count].to_vec();
    // `from_assignment` re-derives the free tail; the tail order may
    // differ from `perm`'s but free-tile order is semantically irrelevant.
    Mapping::from_assignment(assignment, tile_count)
        .expect("crossover of valid permutations stays valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_problem;
    use phonoc_core::{run_dse, DseConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ga_respects_budget_and_validity() {
        let p = tiny_problem();
        let r = run_dse(&p, &GeneticAlgorithm, &DseConfig::new(500, 3));
        assert_eq!(r.evaluations, 500);
        assert!(r.best_mapping.is_valid());
    }

    #[test]
    fn ga_is_deterministic_per_seed() {
        let p = tiny_problem();
        let a = run_dse(&p, &GeneticAlgorithm, &DseConfig::new(300, 11));
        let b = run_dse(&p, &GeneticAlgorithm, &DseConfig::new(300, 11));
        assert_eq!(a.best_mapping, b.best_mapping);
    }

    #[test]
    fn ga_respects_every_neighborhood_policy() {
        // The mutation kernel draws from the engine-selected stream;
        // every policy must stay valid, budget-exact and deterministic.
        let p = tiny_problem();
        for policy in phonoc_core::NeighborhoodPolicy::ALL {
            let a = phonoc_core::run_dse(
                &p,
                &GeneticAlgorithm,
                &DseConfig::new(200, 6).with_policy(policy),
            );
            let b = phonoc_core::run_dse(
                &p,
                &GeneticAlgorithm,
                &DseConfig::new(200, 6).with_policy(policy),
            );
            assert_eq!(a.evaluations, 200, "{policy}");
            assert!(a.best_mapping.is_valid(), "{policy}");
            assert_eq!(a.best_mapping, b.best_mapping, "{policy}");
        }
    }

    proptest! {
        /// PMX must always produce valid permutations.
        #[test]
        fn crossovers_preserve_validity(
            seed in 0u64..1000,
            tasks in 2usize..10,
            extra in 0usize..6,
        ) {
            let tiles = tasks + extra;
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Mapping::random(tasks, tiles, &mut rng);
            let b = Mapping::random(tasks, tiles, &mut rng);
            let child = pmx(&a, &b, &mut rng);
            prop_assert!(child.is_valid());
            prop_assert_eq!(child.task_count(), tasks);
        }
    }
}
