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
//! Each generation is bred into reused buffers (no allocation once the
//! first one is built) and scored as one batch. A child whose task
//! placement repeats a member of the current population's — as PMX of
//! two equal parents does in a converged population — is scored from
//! that member ([`OptContext::evaluate_batch_known`]): it is still
//! billed as a full evaluation, so the search, its ledger and its trace
//! are those of recomputing it, but no pass runs. A per-member
//! placement hash keeps the lookup cheaper than the passes it saves.
//! Children that repeat only an earlier sibling of the same generation
//! are still recomputed.
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
        if pop.len() < POPULATION {
            // The budget ran out inside the first batch.
            return;
        }
        let mut breeder = Breeder::new(&pop);

        while !ctx.exhausted() {
            // Sort descending by fitness (higher score = better); the
            // first `ELITE` individuals survive unchanged.
            pop.sort_by(|a, b| b.1.total_cmp(&a.1));
            breeder.breed(&pop, ctx, &mut nbhd);
            let scores = ctx.evaluate_batch_known(&breeder.children, &breeder.known);
            if scores.len() < breeder.children.len() {
                return;
            }
            // The offspring replace everyone but the elites; the
            // replaced individuals' buffers become the next
            // generation's child slots.
            let replaced = pop[ELITE..].iter_mut();
            for ((slot, child), score) in replaced.zip(&mut breeder.children).zip(scores) {
                std::mem::swap(&mut slot.0, child);
                slot.1 = score;
            }
        }
    }
}

/// One generation's offspring and the buffers that breed them, reused
/// across generations so breeding allocates nothing.
struct Breeder {
    /// The offspring slots, `POPULATION - ELITE` of them.
    children: Vec<Mapping>,
    /// Per child: the score of a population member whose task
    /// placement the child repeats (scored from that member, not
    /// recomputed), `None` for a new placement.
    known: Vec<Option<f64>>,
    /// Per population member: [`placement_hash`] of its task placement,
    /// compared before the placements themselves.
    pop_hash: Vec<u64>,
    pmx: Pmx,
}

impl Breeder {
    /// Buffers shaped like the individuals of `pop`.
    fn new(pop: &[(Mapping, f64)]) -> Breeder {
        Breeder {
            children: pop[ELITE..].iter().map(|(m, _)| m.clone()).collect(),
            known: Vec::with_capacity(POPULATION),
            pop_hash: Vec::with_capacity(POPULATION),
            pmx: Pmx::default(),
        }
    }

    /// Breeds one generation from `pop` (sorted best first) into the
    /// child slots: tournament parents, PMX, then an optional mutation
    /// swap, with the RNG calls in the order a breed-then-score loop
    /// makes them (evaluation consumes no randomness).
    fn breed(&mut self, pop: &[(Mapping, f64)], ctx: &mut OptContext<'_>, nbhd: &mut Neighborhood) {
        self.known.clear();
        self.pop_hash.clear();
        self.pop_hash
            .extend(pop.iter().map(|(m, _)| placement_hash(m)));
        for child in &mut self.children {
            let a = &pop[tournament(pop, TOURNAMENT, ctx)];
            let b = &pop[tournament(pop, TOURNAMENT, ctx)];
            self.pmx.cross(&a.0, &b.0, ctx.rng(), child);
            if ctx.rng().gen_bool(MUTATION_RATE) {
                if let Some(mv) = nbhd.draw_for(child) {
                    child.apply_move(mv);
                }
            }
            debug_assert!(child.is_valid());
            self.known.push(known_score(pop, &self.pop_hash, child));
        }
    }
}

/// The score of the first member of `pop` (whose placement hashes
/// `pop_hash` holds) with `child`'s task placement, if any. Only the
/// free-tile tail may differ from that member, and no score reads it.
fn known_score(pop: &[(Mapping, f64)], pop_hash: &[u64], child: &Mapping) -> Option<f64> {
    let hash = placement_hash(child);
    pop.iter()
        .zip(pop_hash)
        .find(|&((m, _), &h)| h == hash && m.assignment() == child.assignment())
        .map(|((_, score), _)| *score)
}

/// An FNV-1a-style hash over `m`'s task placement (one step per task's
/// tile): equal placements hash equal, so one integer compare per
/// population member rules most members out before any slice
/// comparison.
fn placement_hash(m: &Mapping) -> u64 {
    m.assignment().iter().fold(0xcbf2_9ce4_8422_2325, |h, t| {
        (h ^ t.0 as u64).wrapping_mul(0x0100_0000_01b3)
    })
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

/// Partially-mapped crossover over the full tile permutation, on
/// buffers reused from one child to the next.
#[derive(Debug, Default)]
struct Pmx {
    /// The child permutation being built; [`UNSET`] marks an open slot.
    child: Vec<TileId>,
    /// Per gene (tile): whether A's window or a PMX chain placed it.
    used: Vec<bool>,
    /// Per gene: its position in parent B's permutation — the inverse
    /// the PMX chain walk follows.
    pos_in_b: Vec<usize>,
}

/// An open slot of [`Pmx::child`].
const UNSET: TileId = TileId(usize::MAX);

impl Pmx {
    /// Writes the PMX child of `a` and `b` into `out`: parent A's
    /// window, B's displaced window genes placed along the PMX chain,
    /// the rest from B in order. The child keeps the task placement of
    /// that permutation with its free tiles in ascending order
    /// ([`Mapping::reassign`]), so later windows read the same tail
    /// whatever buffer it lands in.
    fn cross<R: Rng + ?Sized>(&mut self, a: &Mapping, b: &Mapping, rng: &mut R, out: &mut Mapping) {
        let pa = a.permutation();
        let pb = b.permutation();
        let n = pa.len();
        if n < 2 {
            out.clone_from(a);
            return;
        }
        debug_assert_eq!(out.tile_count(), n, "child slot of another shape");
        let (lo, hi) = random_window(n, rng);

        self.child.clear();
        self.child.resize(n, UNSET);
        self.used.clear();
        self.used.resize(n, false);
        self.pos_in_b.resize(n, 0);
        for (i, gene) in pb.iter().enumerate() {
            self.pos_in_b[gene.0] = i;
        }
        let (child, used) = (&mut self.child, &mut self.used);
        // Copy the window from parent A.
        for i in lo..=hi {
            child[i] = pa[i];
            used[pa[i].0] = true;
        }
        // Map B's window genes displaced by A's window.
        for (i, &gene) in (lo..=hi).zip(&pb[lo..=hi]) {
            if used[gene.0] {
                continue;
            }
            // Follow the PMX chain to find a free position.
            let mut pos = i;
            loop {
                pos = self.pos_in_b[pa[pos].0];
                if !(lo..=hi).contains(&pos) {
                    break;
                }
            }
            // For permutations the chain ends on an open slot outside
            // the window, a different one for each displaced gene.
            debug_assert_eq!(child[pos], UNSET, "PMX chains collided");
            child[pos] = gene;
            used[gene.0] = true;
        }
        // Fill the rest from B in order. The chains ended on every
        // slot whose B gene sits in A's window, so these genes are new.
        for (slot, &gene) in child.iter_mut().zip(pb) {
            if *slot == UNSET {
                debug_assert!(!used[gene.0], "PMX would place gene {gene} twice");
                *slot = gene;
            }
        }
        out.reassign(&child[..a.task_count()])
            .expect("crossover of valid permutations stays valid");
    }
}

fn random_window<R: Rng + ?Sized>(n: usize, rng: &mut R) -> (usize, usize) {
    let i = rng.gen_range(0..n);
    let j = rng.gen_range(0..n);
    (i.min(j), i.max(j))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_problem;
    use phonoc_core::{run_dse, DseConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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

    #[test]
    fn a_converged_population_sends_known_scores() {
        // Forty copies of one mapping: PMX of two equal parents returns
        // their placement, so every child a mutation leaves alone is
        // scored from its parent — and the engine's debug cross-check
        // confirms each known score when the batch is booked.
        let p = tiny_problem();
        let mut ctx = OptContext::new(&p, 1_000, 4);
        let mut nbhd = Neighborhood::new(&mut ctx);
        let m = ctx.random_mapping();
        let score = ctx.evaluate(&m).unwrap();
        let pop = vec![(m, score); POPULATION];
        let mut breeder = Breeder::new(&pop);
        breeder.breed(&pop, &mut ctx, &mut nbhd);
        let known = breeder.known.iter().flatten().count();
        assert!(
            known >= breeder.children.len() / 2,
            "only {known} of {} children scored from a parent",
            breeder.children.len()
        );
        assert!(breeder.known.iter().flatten().all(|&s| s == score));
        let scores = ctx.evaluate_batch_known(&breeder.children, &breeder.known);
        assert_eq!(scores.len(), breeder.children.len());
        assert_eq!(ctx.stats().full_evaluations, 1 + breeder.children.len());
    }

    #[test]
    fn any_member_with_the_childs_placement_lends_its_score() {
        // Children are looked up in the whole population, not only
        // among their parents; a free-tile tail that differs does not
        // hide a repeat, and a new placement stays unknown.
        let p = phonoc_core::MappingProblem::new(
            phonoc_apps::benchmarks::pip(),
            phonoc_topo::Topology::mesh(4, 4, phonoc_phys::Length::from_mm(2.5)),
            phonoc_router::crux::crux_router(),
            Box::new(phonoc_route::XyRouting),
            phonoc_phys::PhysicalParameters::default(),
            phonoc_core::Objective::MaximizeWorstCaseSnr,
        )
        .unwrap();
        let mut ctx = OptContext::new(&p, 1_000, 9);
        let pop: Vec<(Mapping, f64)> = (0..POPULATION)
            .map(|i| (ctx.random_mapping(), i as f64))
            .collect();
        let hashes: Vec<u64> = pop.iter().map(|(m, _)| placement_hash(m)).collect();
        let member = &pop[17].0;
        assert_eq!(known_score(&pop, &hashes, member), Some(17.0));
        let tasks = member.task_count();
        let retailed = member.with_move(phonoc_core::Move::Swap(tasks, tasks + 1));
        assert_eq!(retailed.assignment(), member.assignment());
        assert_ne!(retailed, *member);
        assert_eq!(known_score(&pop, &hashes, &retailed), Some(17.0));
        let fresh = (0..)
            .map(|_| ctx.random_mapping())
            .find(|m| pop.iter().all(|(p, _)| p.assignment() != m.assignment()))
            .unwrap();
        assert_eq!(known_score(&pop, &hashes, &fresh), None);
    }

    /// The PMX this module shipped before it bred into reused buffers:
    /// `position` chain walks and a fresh `from_assignment` per child.
    fn reference_pmx<R: Rng + ?Sized>(a: &Mapping, b: &Mapping, rng: &mut R) -> Mapping {
        let pa = a.permutation();
        let pb = b.permutation();
        let n = pa.len();
        if n < 2 {
            return a.clone();
        }
        let (lo, hi) = random_window(n, rng);
        let mut child: Vec<Option<TileId>> = vec![None; n];
        let mut used = vec![false; n];
        for i in lo..=hi {
            child[i] = Some(pa[i]);
            used[pa[i].0] = true;
        }
        for (i, &gene) in (lo..=hi).zip(&pb[lo..=hi]) {
            if used[gene.0] {
                continue;
            }
            let mut pos = i;
            loop {
                let displaced = pa[pos];
                pos = pb.iter().position(|&g| g == displaced).unwrap();
                if !(lo..=hi).contains(&pos) {
                    break;
                }
            }
            if child[pos].is_none() {
                child[pos] = Some(gene);
                used[gene.0] = true;
            }
        }
        for i in 0..n {
            if child[i].is_none() {
                let gene = pb[i];
                if !used[gene.0] {
                    child[i] = Some(gene);
                    used[gene.0] = true;
                }
            }
        }
        let mut leftovers = (0..n).filter(|&g| !used[g]).map(TileId);
        let perm: Vec<TileId> = child
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|| leftovers.next().unwrap()))
            .collect();
        Mapping::from_assignment(perm[..a.task_count()].to_vec(), n).unwrap()
    }

    proptest! {
        /// The buffered PMX builds today's children bit for bit — the
        /// free-tile tail included, which later windows read — and
        /// leaves the RNG where the reference leaves it, on buffers
        /// reused from one child to the next.
        #[test]
        fn buffered_pmx_matches_the_reference(
            seed in 0u64..1000,
            tasks in 1usize..12,
            extra in 0usize..6,
        ) {
            let tiles = tasks + extra;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pmx = Pmx::default();
            let mut out = Mapping::random(tasks, tiles, &mut rng);
            for _ in 0..8 {
                let a = Mapping::random(tasks, tiles, &mut rng);
                let b = Mapping::random(tasks, tiles, &mut rng);
                let mut fork = rng.clone();
                let expected = reference_pmx(&a, &b, &mut fork);
                pmx.cross(&a, &b, &mut rng, &mut out);
                prop_assert_eq!(&out, &expected);
                prop_assert!(out.is_valid());
                prop_assert_eq!(rng.next_u64(), fork.next_u64());
            }
        }
    }
}
