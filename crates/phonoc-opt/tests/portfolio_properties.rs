//! Properties of the portfolio subsystem that must hold by
//! construction, pinned in CI:
//!
//! * **thread-count invariance** — a full portfolio run (lanes fanned
//!   out over `parallel_map_tasks`, nested batch scans inside each
//!   lane) is bit-identical at 1, 2 and 4 workers, for scan-based,
//!   trajectory and population lanes;
//! * **budget honesty** — lane allotments sum exactly to the global
//!   budget and no lane overruns its allotment;
//! * **determinism per seed**, and seed sensitivity;
//! * **exchange semantics** — seeded starts actually reach the lanes
//!   (a planted elite is visible through `initial_mapping`).

use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonoc_core::parallel::set_worker_override;
use phonoc_core::{MappingProblem, Objective, OptContext};
use phonoc_opt::{run_portfolio, PortfolioSpec};
use phonoc_phys::{Length, PhysicalParameters};
use phonoc_route::XyRouting;
use phonoc_router::crux::crux_router;
use phonoc_topo::Topology;
use std::sync::{Mutex, MutexGuard};

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

struct Pinned<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

impl Drop for Pinned<'_> {
    fn drop(&mut self) {
        set_worker_override(None);
    }
}

fn pin() -> Pinned<'static> {
    Pinned(OVERRIDE_LOCK.lock().unwrap())
}

fn problem(family: ScenarioFamily, mesh: usize, seed: u64) -> MappingProblem {
    let spec = ScenarioSpec {
        family,
        mesh,
        density_pct: 100,
        seed,
    };
    MappingProblem::new(
        spec.build(),
        Topology::mesh(mesh, mesh, Length::from_mm(2.5)),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        Objective::MaximizeWorstCaseSnr,
    )
    .unwrap()
}

#[test]
fn portfolio_runs_are_bit_identical_across_worker_counts() {
    let _pin = pin();
    let p = problem(ScenarioFamily::Hotspot, 6, 1);
    // Mixed lanes: scan-based, trajectory and population strategies,
    // so the invariance covers every scoring path (batch peeks, single
    // peeks, batch evaluation) nested inside the lane fan-out.
    let spec = PortfolioSpec::parse("r-pbla@sampled+sa+ga,exchange=best,rounds=3").unwrap();
    set_worker_override(Some(1));
    let reference = run_portfolio(&p, &spec, 360, 42);
    for workers in [1usize, 2, 4] {
        set_worker_override(Some(workers));
        let run = run_portfolio(&p, &spec, 360, 42);
        assert_eq!(
            run.best_mapping, reference.best_mapping,
            "best mapping @ {workers} workers"
        );
        assert_eq!(
            run.best_score.to_bits(),
            reference.best_score.to_bits(),
            "best score @ {workers} workers"
        );
        assert_eq!(run.evaluations, reference.evaluations);
        let scores: Vec<u64> = run.lanes.iter().map(|l| l.best_score.to_bits()).collect();
        let ref_scores: Vec<u64> = reference
            .lanes
            .iter()
            .map(|l| l.best_score.to_bits())
            .collect();
        assert_eq!(scores, ref_scores, "lane scores @ {workers} workers");
        let rounds: Vec<u64> = run.round_best.iter().map(|s| s.to_bits()).collect();
        let ref_rounds: Vec<u64> = reference.round_best.iter().map(|s| s.to_bits()).collect();
        assert_eq!(rounds, ref_rounds, "round history @ {workers} workers");
    }
}

#[test]
fn trajectory_lanes_are_worker_count_invariant() {
    let _pin = pin();
    let p = problem(ScenarioFamily::Random, 4, 2);
    let spec = PortfolioSpec::parse("r-pbla@locality+tabu+ils,exchange=best,rounds=3").unwrap();
    set_worker_override(Some(1));
    let reference = run_portfolio(&p, &spec, 240, 7);
    for workers in [2usize, 4] {
        set_worker_override(Some(workers));
        let run = run_portfolio(&p, &spec, 240, 7);
        assert_eq!(
            run.best_mapping, reference.best_mapping,
            "{workers} workers"
        );
        assert_eq!(
            run.best_score.to_bits(),
            reference.best_score.to_bits(),
            "{workers} workers"
        );
        assert_eq!(run.evaluations, reference.evaluations, "{workers} workers");
    }
}

#[test]
fn ledgers_sum_to_the_global_budget_and_lanes_never_overrun() {
    let p = problem(ScenarioFamily::Tree, 4, 3);
    for budget in [37usize, 240, 1_001] {
        let spec = PortfolioSpec::parse("r-pbla+sa+rs,rounds=4").unwrap();
        let r = run_portfolio(&p, &spec, budget, 5);
        assert_eq!(r.budget, budget);
        assert_eq!(
            r.lanes.iter().map(|l| l.allotted).sum::<usize>(),
            budget,
            "allotments must sum exactly to the global budget"
        );
        for lane in &r.lanes {
            assert!(
                lane.used <= lane.allotted,
                "{} overran: {}/{}",
                lane.label,
                lane.used,
                lane.allotted
            );
        }
        assert_eq!(r.evaluations, r.lanes.iter().map(|l| l.used).sum::<usize>());
        assert!(r.evaluations <= budget);
    }
}

#[test]
fn deterministic_per_seed_and_seed_sensitive() {
    // A 6×6 instance under a small budget: far from converged, so
    // different seeds cannot plausibly coincide bit-for-bit.
    let p = problem(ScenarioFamily::Clustered, 6, 1);
    let spec = PortfolioSpec::parse("r-pbla@sampled+tabu,exchange=best,rounds=3").unwrap();
    let a = run_portfolio(&p, &spec, 90, 21);
    let b = run_portfolio(&p, &spec, 90, 21);
    assert_eq!(a.best_mapping, b.best_mapping);
    assert_eq!(a.best_score.to_bits(), b.best_score.to_bits());
    let c = run_portfolio(&p, &spec, 90, 22);
    // Different seeds explore different trajectories; scores may tie on
    // plateaus but the full lane breakdown coinciding bitwise would
    // mean the seed is ignored.
    let fingerprint = |r: &phonoc_opt::PortfolioResult| {
        (
            r.best_mapping.clone(),
            r.lanes
                .iter()
                .map(|l| (l.used, l.best_score.to_bits()))
                .collect::<Vec<_>>(),
        )
    };
    assert_ne!(fingerprint(&a), fingerprint(&c));
}

#[test]
fn seeded_starts_reach_the_optimizers() {
    // The exchange hook itself: a planted elite comes back out of
    // `initial_mapping`, and only once.
    let p = problem(ScenarioFamily::Pipeline, 4, 1);
    let mut ctx = OptContext::new(&p, 10, 3);
    let elite = ctx.random_mapping();
    ctx.set_seed_start(elite.clone());
    assert_eq!(ctx.initial_mapping(), elite);
    assert_ne!(ctx.initial_mapping(), elite, "seed must be one-shot");
}

#[test]
fn broadcast_exchange_propagates_the_elite() {
    // Under broadcast-best every lane restarts from the global round
    // best, so the portfolio's final score can never trail what its
    // own first round established.
    let p = problem(ScenarioFamily::Hotspot, 4, 2);
    let spec =
        PortfolioSpec::parse("r-pbla@sampled+r-pbla@locality,exchange=best,rounds=4").unwrap();
    let r = run_portfolio(&p, &spec, 400, 11);
    assert!(r.round_best.windows(2).all(|w| w[1] >= w[0]));
    assert_eq!(r.round_best.last().copied(), Some(r.best_score));
    // With exchange on, every lane has seen the elite; lanes can only
    // deviate *above* it in later rounds, so no lane ends below the
    // first round's shared incumbent.
    for lane in &r.lanes {
        assert!(
            lane.best_score >= r.round_best[0],
            "{} at {} fell below the round-1 incumbent {}",
            lane.label,
            lane.best_score,
            r.round_best[0]
        );
    }
}
