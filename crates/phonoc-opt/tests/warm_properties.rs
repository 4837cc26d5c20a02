//! Warm-start engine properties: seeding, determinism and cache-key
//! canonicalization.
//!
//! * A warm-started portfolio run is **bit-identical** to a cold run
//!   handed the same seed mapping — and both are worker-count
//!   invariant (pinned to 1/2/4 workers, the CI matrix).
//! * A whole request stream replayed through a [`WarmCache`] is
//!   deterministic at any worker count.
//! * [`RequestKey`]s are canonical: random edge reorderings of the same
//!   CG key identically, while every parameter that changes the result
//!   (weights, structure, budget, seed, spec, grid, topology kind,
//!   routing function, loss coefficients, objective) changes the key.
//!   The family half is the evaluator's table fingerprint, so a custom
//!   routing that calls itself `xy` but routes differently keys apart
//!   from the builtin, while parameters no score reads (laser power,
//!   detector sensitivity) leave the key alone.
//! * Exact hits are checked against the tables: a problem rebuilt from
//!   identical inputs (another object, sharing the first one's interned
//!   tables) is still an exact hit.
//!
//! The worker override is process-global; like
//! `phonoc-core/tests/thread_invariance.rs`, tests that pin it
//! serialize on one mutex and restore the default before releasing it.

use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonoc_apps::{CgBuilder, CommunicationGraph};
use phonoc_core::parallel::set_worker_override;
use phonoc_core::{MappingProblem, Objective};
use phonoc_opt::{
    run_portfolio_seeded, PortfolioResult, PortfolioSpec, RequestKey, WarmCache, WarmSource,
};
use phonoc_phys::{Db, Dbm, Length, PhysicalParameters};
use phonoc_route::{NetworkPath, RoutingAlgorithm, RoutingError, XyRouting, YxRouting};
use phonoc_router::crossbar::crossbar_router;
use phonoc_router::crux::crux_router;
use phonoc_router::RouterModel;
use phonoc_topo::{TileId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn problem_from(cg: CommunicationGraph, mesh: usize) -> MappingProblem {
    MappingProblem::new(
        cg,
        Topology::mesh(mesh, mesh, Length::from_mm(2.5)),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        Objective::MaximizeWorstCaseSnr,
    )
    .unwrap()
}

fn scenario_problem(seed: u64) -> MappingProblem {
    let mesh = 4;
    let cg = ScenarioSpec {
        family: ScenarioFamily::Random,
        mesh,
        density_pct: 100,
        seed,
    }
    .build();
    problem_from(cg, mesh)
}

fn spec() -> PortfolioSpec {
    PortfolioSpec::parse("r-pbla@sampled+sa,exchange=best,rounds=3").unwrap()
}

fn fingerprint(r: &PortfolioResult) -> (u64, Vec<u64>, Vec<usize>, usize) {
    (
        r.best_score.to_bits(),
        r.round_best.iter().map(|s| s.to_bits()).collect(),
        r.round_evaluations.clone(),
        r.evaluations,
    )
}

/// Warm-started runs are deterministic and worker-count invariant:
/// seeding the same elite into the same request gives one bit-exact
/// result at 1, 2 and 4 workers.
#[test]
fn warm_started_runs_are_worker_count_invariant() {
    let _pin = pin();
    let problem = scenario_problem(3);
    let pspec = spec();
    // The "prior elite": a finished cold run's best mapping.
    set_worker_override(Some(1));
    let elite = run_portfolio_seeded(&problem, &pspec, 90, 7, None).best_mapping;
    let reference = run_portfolio_seeded(&problem, &pspec, 90, 8, Some(&elite));
    for workers in WORKER_COUNTS {
        set_worker_override(Some(workers));
        let rerun = run_portfolio_seeded(&problem, &pspec, 90, 8, Some(&elite));
        assert_eq!(
            fingerprint(&rerun),
            fingerprint(&reference),
            "warm run @ {workers} workers"
        );
        assert_eq!(rerun.best_mapping, reference.best_mapping);
    }
}

/// The cache's near-hit path is exactly `run_portfolio_seeded` with the
/// donor elite — no hidden state beyond the seed mapping.
#[test]
fn near_hit_equals_directly_seeded_run() {
    let mut problem = scenario_problem(5);
    let pspec = spec();
    let mut cache = WarmCache::new();
    let cold = cache.solve(&problem, &pspec, 90, 7);
    assert_eq!(cold.source, WarmSource::Cold);

    // Perturb one weight so the next request near-hits.
    let (s, d, bw) = {
        let e = &problem.cg().edges()[0];
        (e.src, e.dst, e.bandwidth)
    };
    problem
        .update_edge_bandwidths(&[(s, d, bw * 1.07)])
        .unwrap();
    let warm = cache.solve(&problem, &pspec, 90, 7);
    assert!(matches!(warm.source, WarmSource::NearHit { .. }));

    let direct = run_portfolio_seeded(&problem, &pspec, 90, 7, Some(&cold.result.best_mapping));
    assert_eq!(fingerprint(&warm.result), fingerprint(&direct));
    assert_eq!(warm.result.best_mapping, direct.best_mapping);
}

/// A whole request stream (cold → exact repeat → perturbed near hit)
/// replays bit-identically at every worker count.
#[test]
fn cache_streams_are_worker_count_invariant() {
    let _pin = pin();
    let pspec = spec();
    let stream = |workers: usize| {
        set_worker_override(Some(workers));
        let mut problem = scenario_problem(9);
        let mut cache = WarmCache::new();
        let a = cache.solve(&problem, &pspec, 60, 3);
        let b = cache.solve(&problem, &pspec, 60, 3);
        let (s, d, bw) = {
            let e = &problem.cg().edges()[1];
            (e.src, e.dst, e.bandwidth)
        };
        problem
            .update_edge_bandwidths(&[(s, d, bw * 0.93)])
            .unwrap();
        let c = cache.solve(&problem, &pspec, 60, 3);
        assert_eq!(a.source, WarmSource::Cold);
        assert_eq!(b.source, WarmSource::ExactHit);
        assert_eq!(b.evaluations_spent, 0);
        assert!(matches!(c.source, WarmSource::NearHit { .. }));
        // The returned counters record how each request was satisfied.
        let warm = |r: &PortfolioResult| {
            let s = r.stats;
            (s.warm_exact_hits, s.warm_near_hits, s.warm_cold)
        };
        assert_eq!(
            [warm(&a.result), warm(&b.result), warm(&c.result)],
            [(0, 0, 1), (1, 0, 0), (0, 1, 0)]
        );
        (
            fingerprint(&a.result),
            fingerprint(&b.result),
            fingerprint(&c.result),
        )
    };
    let reference = stream(1);
    for workers in WORKER_COUNTS {
        assert_eq!(stream(workers), reference, "stream @ {workers} workers");
    }
}

/// Edge-order canonicalization: listing the same weighted edges in any
/// order produces the same key (and content hash). Random shuffles over
/// random CGs.
#[test]
fn keys_are_invariant_under_edge_reordering() {
    for case in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DE + case);
        let names: Vec<String> = (0..8).map(|i| format!("t{i}")).collect();
        let mut edges = Vec::new();
        for s in 0..8usize {
            for d in 0..8usize {
                if s != d && rng.gen_bool(0.3) {
                    edges.push((s, d, rng.gen_range(10.0..500.0)));
                }
            }
        }
        if edges.is_empty() {
            edges.push((0, 1, 42.0));
        }
        let build = |order: &[(usize, usize, f64)]| {
            let mut b = CgBuilder::new("case").tasks(names.iter().map(String::as_str));
            for &(s, d, bw) in order {
                b = b.edge(names[s].as_str(), names[d].as_str(), bw);
            }
            problem_from(b.build().unwrap(), 3)
        };
        let key = RequestKey::of(&build(&edges), &spec(), 50, 1);
        for _ in 0..3 {
            // Fisher–Yates off the seeded rng.
            for i in (1..edges.len()).rev() {
                edges.swap(i, rng.gen_range(0..=i));
            }
            let shuffled = RequestKey::of(&build(&edges), &spec(), 50, 1);
            assert_eq!(key, shuffled, "case {case}: reorder changed the key");
        }
    }
}

/// Anything the result depends on must change the key: weights,
/// structure, budget, seed, portfolio spec, topology and objective all
/// produce distinct keys (exact equality means collisions only for
/// canonically-equal requests).
#[test]
fn every_result_relevant_parameter_changes_the_key() {
    let cg = || {
        CgBuilder::new("k")
            .tasks(["a", "b", "c", "d"])
            .edge("a", "b", 100.0)
            .edge("b", "c", 200.0)
            .edge("c", "d", 300.0)
            .build()
            .unwrap()
    };
    let base = RequestKey::of(&problem_from(cg(), 2), &spec(), 50, 1);

    // Weight change.
    let mut p = problem_from(cg(), 2);
    let (s, d) = {
        let e = &p.cg().edges()[0];
        (e.src, e.dst)
    };
    p.update_edge_bandwidths(&[(s, d, 101.0)]).unwrap();
    assert_ne!(base, RequestKey::of(&p, &spec(), 50, 1), "weight");
    // ...but the family half is shared (that is what makes it a near
    // hit instead of a cold run).
    assert_eq!(base.family(), RequestKey::of(&p, &spec(), 50, 1).family());

    // Structural change.
    let mut p = problem_from(cg(), 2);
    p.remove_edge(s, d).unwrap();
    assert_ne!(base, RequestKey::of(&p, &spec(), 50, 1), "structure");

    // Run parameters.
    assert_ne!(
        base,
        RequestKey::of(&problem_from(cg(), 2), &spec(), 60, 1),
        "budget"
    );
    assert_ne!(
        base,
        RequestKey::of(&problem_from(cg(), 2), &spec(), 50, 2),
        "seed"
    );
    let other_spec = PortfolioSpec::parse("r-pbla@sampled+sa,exchange=best,rounds=2").unwrap();
    assert_ne!(
        base,
        RequestKey::of(&problem_from(cg(), 2), &other_spec, 50, 1),
        "portfolio spec"
    );

    // Architecture: a different mesh is a different family entirely.
    let wider = RequestKey::of(&problem_from(cg(), 3), &spec(), 50, 1);
    assert_ne!(base, wider, "topology");
    assert_ne!(base.family(), wider.family());

    // Objective.
    let loss = MappingProblem::new(
        cg(),
        Topology::mesh(2, 2, Length::from_mm(2.5)),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        Objective::MinimizeWorstCaseLoss,
    )
    .unwrap();
    let loss_key = RequestKey::of(&loss, &spec(), 50, 1);
    assert_ne!(base, loss_key, "objective");
    assert_ne!(base.family(), loss_key.family());

    // Identical reconstruction collides (the whole point)...
    assert_eq!(base, RequestKey::of(&problem_from(cg(), 2), &spec(), 50, 1));
    // ...and a rebuilt problem (another object, sharing the interned
    // tables) is an exact hit of the first one's cached result.
    let mut cache = WarmCache::new();
    let first = cache.solve(&problem_from(cg(), 2), &spec(), 50, 1);
    let rebuilt = cache.solve(&problem_from(cg(), 2), &spec(), 50, 1);
    assert_eq!(rebuilt.source, WarmSource::ExactHit);
    assert_eq!(rebuilt.evaluations_spent, 0);
    assert_eq!(fingerprint(&rebuilt.result), fingerprint(&first.result));

    // The architecture keys by what the evaluator reads, not by names:
    // a routing named `xy` that routes YX is not the builtin `xy`...
    #[derive(Debug)]
    struct CallsItselfXy;
    impl RoutingAlgorithm for CallsItselfXy {
        fn name(&self) -> &'static str {
            "xy"
        }
        fn route(
            &self,
            topo: &Topology,
            src: TileId,
            dst: TileId,
        ) -> Result<NetworkPath, RoutingError> {
            YxRouting.route(topo, src, dst)
        }
    }
    let family = |topo: Topology,
                  router: RouterModel,
                  routing: Box<dyn RoutingAlgorithm>,
                  params: PhysicalParameters| {
        let p = MappingProblem::new(
            cg(),
            topo,
            router,
            routing,
            params,
            Objective::MaximizeWorstCaseSnr,
        )
        .unwrap();
        RequestKey::of(&p, &spec(), 50, 1)
    };
    let mesh3 = || Topology::mesh(3, 3, Length::from_mm(2.5));
    let table1 = PhysicalParameters::default;
    let builtin_xy = family(mesh3(), crossbar_router(), Box::new(XyRouting), table1());
    let fake_xy = family(
        mesh3(),
        crossbar_router(),
        Box::new(CallsItselfXy),
        table1(),
    );
    assert_ne!(builtin_xy.family(), fake_xy.family(), "routing");
    // ...a torus is not a mesh of the same size...
    let crux_mesh = family(mesh3(), crux_router(), Box::new(XyRouting), table1());
    let torus = Topology::torus(3, 3, Length::from_mm(2.5));
    let crux_torus = family(torus, crux_router(), Box::new(XyRouting), table1());
    assert_ne!(crux_mesh.family(), crux_torus.family(), "topology kind");
    // ...and a changed loss coefficient is another physics.
    let lossier = PhysicalParameters::builder()
        .crossing_loss(Db(-0.05))
        .build();
    let lossier = family(mesh3(), crux_router(), Box::new(XyRouting), lossier);
    assert_ne!(crux_mesh.family(), lossier.family(), "crossing loss");
    // Parameters no score reads leave the whole key alone.
    for unread in [
        PhysicalParameters::builder().laser_power(Dbm(3.0)).build(),
        PhysicalParameters::builder()
            .detector_sensitivity(Dbm(-20.0))
            .build(),
    ] {
        assert_eq!(
            crux_mesh,
            family(mesh3(), crux_router(), Box::new(XyRouting), unread),
            "{unread:?}"
        );
    }

    // So do alias, case and `@auto` spellings of the same lanes: they
    // run the same race, so a repeated request must hit the same entry.
    for alias in [
        "rpbla@sampled+annealing,exchange=best,rounds=3",
        "R-PBLA@Sampled+SA@auto,rounds=3",
        "r-pbla@SAMPLED/hybrid+sa@AUTO/Hybrid,exchange=best,rounds=3",
    ] {
        let aliased = PortfolioSpec::parse(alias).unwrap();
        assert_eq!(
            base,
            RequestKey::of(&problem_from(cg(), 2), &aliased, 50, 1),
            "alias `{alias}`"
        );
    }
}
