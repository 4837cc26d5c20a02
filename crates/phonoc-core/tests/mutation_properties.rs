//! Incremental problem mutation and seed starts: the warm-start
//! engine's correctness contract.
//!
//! * Mutating a live [`MappingProblem`] in place
//!   ([`MappingProblem::update_edge_bandwidths`] / `add_edge` /
//!   `remove_edge`) must be **bit-identical** to tearing the problem
//!   down and rebuilding it from the mutated CG — over random mutation
//!   batches, checked by evaluating random mappings against a
//!   fresh-built oracle.
//! * A seed start planted with [`OptContext::set_seed_start`] but never
//!   consumed must be *detectable* ([`OptContext::seed_start_pending`])
//!   without being an error — start-free strategies legitimately
//!   ignore seeds.
//!
//! Same idiom as `delta_properties.rs`: seeded loops over randomized
//! cases with exact (bit-level) equality assertions, not approximate
//! comparisons.

use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonoc_apps::{CommunicationGraph, TaskId};
use phonoc_core::{Mapping, MappingOptimizer, MappingProblem, Objective, OptContext};
use phonoc_phys::{Length, PhysicalParameters};
use phonoc_route::XyRouting;
use phonoc_router::crux::crux_router;
use phonoc_topo::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MESH: usize = 4;

fn problem_from(cg: CommunicationGraph) -> MappingProblem {
    MappingProblem::new(
        cg,
        Topology::mesh(MESH, MESH, Length::from_mm(2.5)),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        Objective::MaximizeWorstCaseSnr,
    )
    .unwrap()
}

fn scenario_cg(seed: u64) -> CommunicationGraph {
    ScenarioSpec {
        family: ScenarioFamily::Random,
        mesh: MESH,
        density_pct: 100,
        seed,
    }
    .build()
}

/// A directed pair with no edge in either direction, or `None`.
fn free_pair(problem: &MappingProblem, rng: &mut StdRng) -> Option<(TaskId, TaskId)> {
    let n = problem.task_count();
    for _ in 0..64 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b
            && problem.cg().edge_index(TaskId(a), TaskId(b)).is_none()
            && problem.cg().edge_index(TaskId(b), TaskId(a)).is_none()
        {
            return Some((TaskId(a), TaskId(b)));
        }
    }
    None
}

/// Random mutation batches against a fresh-built oracle: after any mix
/// of weight updates, edge removals and edge additions, the mutated
/// problem must evaluate every mapping bit-identically to a problem
/// rebuilt from scratch on the mutated CG.
#[test]
fn mutated_problem_matches_fresh_build() {
    for case in 0..8 {
        let mut rng = StdRng::seed_from_u64(0xA11C_E000 + case);
        let mut problem = problem_from(scenario_cg(case + 1));
        for batch in 0..4 {
            // One batch: 1–4 random mutations of mixed kinds.
            for _ in 0..rng.gen_range(1..=4usize) {
                match rng.gen_range(0..3u32) {
                    0 => {
                        // Re-weight a random existing edge.
                        let e = &problem.cg().edges()[rng.gen_range(0..problem.cg().edge_count())];
                        let (s, d) = (e.src, e.dst);
                        let bw = e.bandwidth * rng.gen_range(0.5..=1.5);
                        problem.update_edge_bandwidths(&[(s, d, bw)]).unwrap();
                    }
                    1 if problem.cg().edge_count() > 4 => {
                        // Drop a random edge (keep a few so the CG
                        // stays interesting).
                        let e = &problem.cg().edges()[rng.gen_range(0..problem.cg().edge_count())];
                        let (s, d) = (e.src, e.dst);
                        problem.remove_edge(s, d).unwrap();
                    }
                    _ => {
                        if let Some((s, d)) = free_pair(&problem, &mut rng) {
                            problem.add_edge(s, d, rng.gen_range(10.0..200.0)).unwrap();
                        }
                    }
                }
            }
            // Oracle: the same CG, built from scratch.
            let fresh = problem_from(problem.cg().clone());
            assert_eq!(
                problem.evaluator().edge_count(),
                fresh.evaluator().edge_count(),
                "case {case} batch {batch}: edge caches out of lock-step"
            );
            let mut map_rng = StdRng::seed_from_u64(0xBEEF + case * 31 + batch);
            for _ in 0..5 {
                let m = Mapping::random(problem.task_count(), problem.tile_count(), &mut map_rng);
                let (mm, ms) = problem.evaluate(&m);
                let (fm, fs) = fresh.evaluate(&m);
                assert_eq!(
                    ms.to_bits(),
                    fs.to_bits(),
                    "case {case} batch {batch}: scores diverge ({ms} vs {fs})"
                );
                assert_eq!(
                    mm.worst_case_snr.0.to_bits(),
                    fm.worst_case_snr.0.to_bits(),
                    "case {case} batch {batch}: metrics diverge"
                );
            }
        }
    }
}

/// Mutation validation: bad updates are rejected with the problem left
/// untouched (all-or-nothing), on both the evaluator and CG layers.
#[test]
fn invalid_mutations_are_rejected_atomically() {
    let mut problem = problem_from(scenario_cg(7));
    let edges_before: Vec<_> = problem.cg().edges().to_vec();
    let e0 = (edges_before[0].src, edges_before[0].dst);
    let missing = {
        let mut rng = StdRng::seed_from_u64(5);
        free_pair(&problem, &mut rng).expect("d100 random CGs are not complete")
    };

    // Nonexistent edge in a batch → whole batch rejected.
    assert!(problem
        .update_edge_bandwidths(&[(e0.0, e0.1, 50.0), (missing.0, missing.1, 50.0)])
        .is_err());
    // Nonpositive / non-finite weights → rejected.
    assert!(problem
        .update_edge_bandwidths(&[(e0.0, e0.1, 0.0)])
        .is_err());
    assert!(problem
        .update_edge_bandwidths(&[(e0.0, e0.1, f64::NAN)])
        .is_err());
    // Duplicate add, self-loop add, missing remove → rejected.
    assert!(problem.add_edge(e0.0, e0.1, 10.0).is_err());
    assert!(problem.add_edge(e0.0, e0.0, 10.0).is_err());
    assert!(problem.remove_edge(missing.0, missing.1).is_err());

    assert_eq!(
        problem.cg().edges(),
        edges_before.as_slice(),
        "rejected mutations must leave the CG untouched"
    );
    assert_eq!(problem.evaluator().edge_count(), edges_before.len());
}

/// A start-free strategy (like random search): never calls
/// `initial_mapping`, so a planted seed goes unconsumed.
#[derive(Debug)]
struct StartFree;

impl MappingOptimizer for StartFree {
    fn name(&self) -> &'static str {
        "start-free"
    }
    fn optimize(&self, ctx: &mut OptContext<'_>) {
        while !ctx.exhausted() {
            let m = ctx.random_mapping();
            if ctx.evaluate(&m).is_none() {
                break;
            }
        }
    }
}

/// Seed-start misuse detection: a planted seed a start-free strategy
/// never consumes stays queryable (and is logged once, not asserted
/// on); consuming strategies take exactly the planted mapping.
#[test]
fn unconsumed_seed_starts_are_detectable_not_fatal() {
    let problem = problem_from(scenario_cg(31));
    let planted = Mapping::identity(problem.task_count(), problem.tile_count());

    // Start-free strategy: the seed survives the whole session.
    let mut ctx = OptContext::new(&problem, 10, 1);
    assert!(!ctx.seed_start_pending());
    ctx.set_seed_start(planted.clone());
    assert!(ctx.seed_start_pending());
    StartFree.optimize(&mut ctx);
    assert!(
        ctx.seed_start_pending(),
        "a start-free run must leave the seed unconsumed (and detectable)"
    );
    let result = ctx.finish("start-free"); // logs the rate-limited warning
    assert!(result.best_score.is_finite());

    // Consuming strategy: the seed is handed out exactly once.
    let mut ctx = OptContext::new(&problem, 10, 1);
    ctx.set_seed_start(planted.clone());
    let start = ctx.initial_mapping();
    assert_eq!(
        start, planted,
        "initial_mapping must return the planted seed"
    );
    assert!(!ctx.seed_start_pending(), "the seed is one-shot");
    // Later draws fall back to random (no stale seed replay).
    let next = ctx.initial_mapping();
    assert_ne!(next, planted, "consumed seeds must not be handed out twice");
}
