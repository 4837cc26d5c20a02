//! Criterion micro-benchmarks for the mapping evaluator: the operation
//! every search algorithm pays per candidate, so its throughput bounds
//! the whole design-space exploration (paper Table II ran 100 000+
//! evaluations per cell).
//!
//! Medians from each run are recorded in `BENCH_evaluator.json` at the
//! repository root so the perf trajectory stays machine-readable.

use bench::{paper_problem, TABLE2_APPS};
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonoc_core::{
    BoundedLossDelta, DeltaScratch, DseConfig, EvalScratch, Mapping, MappingProblem, Objective,
    OptContext, PeekStrategy,
};
use phonoc_opt::Rpbla;
use phonoc_phys::{Db, PhysicalParameters};
use phonoc_route::XyRouting;
use phonoc_router::crux::crux_router;
use phonoc_topo::{Topology, TopologyKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An 8×8-mesh instance: no paper benchmark exceeds 32 tasks, so the
/// scaling point uses a seeded synthetic CG with VOPD-like density.
fn synthetic_8x8() -> MappingProblem {
    let mut rng = StdRng::seed_from_u64(42);
    let cg = phonoc_apps::synthetic::random(56, 60, &mut rng);
    MappingProblem::new(
        cg,
        Topology::mesh(8, 8, bench::tile_pitch()),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        Objective::MaximizeWorstCaseSnr,
    )
    .expect("synthetic 8x8 instance is valid")
}

fn evaluator_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluate_mapping");
    for app in TABLE2_APPS {
        let problem = paper_problem(app, TopologyKind::Mesh, Objective::MaximizeWorstCaseSnr);
        let tasks = problem.task_count();
        let tiles = problem.tile_count();
        group.bench_function(app, |b| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter_batched(
                || Mapping::random(tasks, tiles, &mut rng),
                |m| problem.evaluate(&m),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn evaluator_construction(c: &mut Criterion) {
    // Problem assembly precomputes every tile-pair path and the router
    // interaction matrix; it is paid once per experiment cell.
    c.bench_function("evaluator_precompute_dvopd_6x6", |b| {
        b.iter(|| paper_problem("DVOPD", TopologyKind::Mesh, Objective::MaximizeWorstCaseSnr));
    });
}

/// The full-vs-incremental comparison on one instance: rescoring a
/// single swap incrementally vs. a from-scratch evaluation of the
/// swapped mapping. All paths produce bit-identical worst cases.
///
///  * `full_reevaluate_swap` — the scratch-reusing full evaluation of
///    the swapped mapping (the honest full-eval baseline after PR 2).
///  * `evaluate_delta_swap` — the exact SNR-bearing delta on a random
///    mapping: the dense worst case (a random placement couples a
///    large fraction of all communications to any swap).
///  * `evaluate_delta_loss_swap` — the loss objective (Eq. 3): no
///    crosstalk, 1–2 orders of magnitude faster than full.
fn full_vs_delta_on(c: &mut Criterion, name: &str, problem: &MappingProblem) {
    let evaluator = problem.evaluator();
    let tasks = problem.task_count();
    let tiles = problem.tile_count();
    let mut rng = StdRng::seed_from_u64(7);
    let mapping = Mapping::random(tasks, tiles, &mut rng);
    let state = evaluator.init_state(&mapping);
    // A fixed cycle of single-swap moves, so all sides rescore the
    // same workload.
    let moves: Vec<phonoc_core::Move> = (0..64)
        .map(|_| mapping.random_swap_move(&mut rng))
        .collect();

    let mut group = c.benchmark_group(name);
    group.bench_function("full_reevaluate_swap", |b| {
        let mut scratch = EvalScratch::default();
        let mut i = 0usize;
        b.iter(|| {
            let mv = moves[i % moves.len()];
            i += 1;
            let moved = mapping.with_move(mv);
            black_box(evaluator.evaluate_into(&moved, None, &mut scratch))
        });
    });
    group.bench_function("evaluate_delta_swap", |b| {
        let mut scratch = DeltaScratch::default();
        let mut i = 0usize;
        b.iter(|| {
            let mv = moves[i % moves.len()];
            i += 1;
            black_box(evaluator.evaluate_delta_with(&state, &mapping, mv, &mut scratch))
        });
    });
    group.bench_function("evaluate_delta_loss_swap", |b| {
        let mut scratch = DeltaScratch::default();
        let mut i = 0usize;
        b.iter(|| {
            let mv = moves[i % moves.len()];
            i += 1;
            black_box(evaluator.evaluate_delta_loss(&state, &mapping, mv, &mut scratch))
        });
    });
    group.finish();
}

fn full_vs_delta(c: &mut Criterion) {
    // The headline instance (VOPD/4×4) plus the search-time workload
    // from an R-PBLA-optimized placement.
    let problem = paper_problem("VOPD", TopologyKind::Mesh, Objective::MaximizeWorstCaseSnr);
    full_vs_delta_on(c, "full_vs_delta_vopd_4x4", &problem);
    {
        let evaluator = problem.evaluator();
        let optimized = phonoc_core::run_dse(
            &problem,
            phonoc_opt::registry::optimizer("r-pbla").unwrap().as_ref(),
            &DseConfig::new(3_000, 5),
        )
        .best_mapping;
        let opt_state = evaluator.init_state(&optimized);
        let opt_moves: Vec<phonoc_core::Move> = {
            let mut rng = StdRng::seed_from_u64(11);
            (0..64)
                .map(|_| optimized.random_swap_move(&mut rng))
                .collect()
        };
        let mut group = c.benchmark_group("full_vs_delta_vopd_4x4");
        group.bench_function("evaluate_delta_swap_optimized", |b| {
            let mut scratch = DeltaScratch::default();
            let mut i = 0usize;
            b.iter(|| {
                let mv = opt_moves[i % opt_moves.len()];
                i += 1;
                black_box(evaluator.evaluate_delta_with(&opt_state, &optimized, mv, &mut scratch))
            });
        });
        group.bench_function("full_reevaluate_swap_optimized", |b| {
            let mut scratch = EvalScratch::default();
            let mut i = 0usize;
            b.iter(|| {
                let mv = opt_moves[i % opt_moves.len()];
                i += 1;
                let moved = optimized.with_move(mv);
                black_box(evaluator.evaluate_into(&moved, None, &mut scratch))
            });
        });
        group.finish();
    }

    // Mesh scaling: the affected-edge index gets sparser as meshes
    // grow, so the delta win should widen past 4×4 (ROADMAP "scale past
    // 8×8").
    let dvopd = paper_problem("DVOPD", TopologyKind::Mesh, Objective::MaximizeWorstCaseSnr);
    full_vs_delta_on(c, "full_vs_delta_dvopd_6x6", &dvopd);
    let synth = synthetic_8x8();
    full_vs_delta_on(c, "full_vs_delta_synthetic_8x8", &synth);
    let cell = bench::sweep::scenario_problem(&mpeg_like(16));
    full_vs_delta_on(c, "full_vs_delta_mpeg_like_16x16", &cell);
}

/// The `mpeg-like` scenario cell on an `mesh × mesh` grid at density
/// 200 (seed 1): hub traffic with long XY paths.
fn mpeg_like(mesh: usize) -> ScenarioSpec {
    ScenarioSpec {
        family: ScenarioFamily::MpegLike,
        mesh,
        density_pct: 200,
        seed: 1,
    }
}

/// The SNR commit: [`phonoc_core::Evaluator::apply_move`] along a walk
/// of random swaps from a random placement, on 8×8 and 16×16 `mpeg-like`
/// cells — the state patch every accepted move of an SNR search pays.
/// Swaps are their own inverses, so the walk commits 64 swaps and then
/// undoes them in reverse: it cycles through the same 128 commits
/// however many iterations a sample runs.
fn snr_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("snr_commit_walk");
    for mesh in [8, 16] {
        let problem = bench::sweep::scenario_problem(&mpeg_like(mesh));
        let evaluator = problem.evaluator();
        let mut rng = StdRng::seed_from_u64(9);
        let start = Mapping::random(problem.task_count(), problem.tile_count(), &mut rng);
        let moves: Vec<phonoc_core::Move> =
            (0..64).map(|_| start.random_swap_move(&mut rng)).collect();
        group.bench_function(&format!("apply_move_mpeg_like_{mesh}x{mesh}"), |b| {
            let mut mapping = start.clone();
            let mut state = evaluator.init_state(&mapping);
            let mut scratch = DeltaScratch::default();
            let mut i = 0usize;
            b.iter(|| {
                let k = i % (2 * moves.len());
                let mv = moves[k.min(2 * moves.len() - 1 - k)];
                i += 1;
                black_box(evaluator.apply_move(&mut state, &mut mapping, mv, &mut scratch))
            });
        });
    }
    group.finish();
}

/// Allocating full evaluation vs. the scratch-reusing path, on the
/// paper-style sweep workload (a cycle of random mappings).
///
/// Three rungs: `evaluate_reference` is the original ~20-allocation
/// pass (kept in-tree as the oracle/baseline), `evaluate_alloc` the
/// current thin wrapper (fresh scratch + materialized metrics per
/// call), and `evaluate_into_scratch` the reused-scratch path that
/// search loops ride — zero allocation, one `log10` per evaluation.
fn full_alloc_vs_scratch(c: &mut Criterion) {
    for (name, problem) in [
        (
            "full_alloc_vs_scratch_vopd_4x4",
            paper_problem("VOPD", TopologyKind::Mesh, Objective::MaximizeWorstCaseSnr),
        ),
        (
            "full_alloc_vs_scratch_dvopd_6x6",
            paper_problem("DVOPD", TopologyKind::Mesh, Objective::MaximizeWorstCaseSnr),
        ),
        ("full_alloc_vs_scratch_synthetic_8x8", synthetic_8x8()),
    ] {
        let evaluator = problem.evaluator();
        let tasks = problem.task_count();
        let tiles = problem.tile_count();
        let mut rng = StdRng::seed_from_u64(3);
        let mappings: Vec<Mapping> = (0..64)
            .map(|_| Mapping::random(tasks, tiles, &mut rng))
            .collect();
        let mut group = c.benchmark_group(name);
        group.bench_function("evaluate_reference", |b| {
            let mut i = 0usize;
            b.iter(|| {
                let m = &mappings[i % mappings.len()];
                i += 1;
                black_box(evaluator.evaluate_reference(m, None))
            });
        });
        group.bench_function("evaluate_alloc", |b| {
            let mut i = 0usize;
            b.iter(|| {
                let m = &mappings[i % mappings.len()];
                i += 1;
                black_box(evaluator.evaluate(m))
            });
        });
        group.bench_function("evaluate_into_scratch", |b| {
            let mut scratch = EvalScratch::default();
            let mut i = 0usize;
            b.iter(|| {
                let m = &mappings[i % mappings.len()];
                i += 1;
                black_box(evaluator.evaluate_into(m, None, &mut scratch))
            });
        });
        group.finish();
    }
}

/// Bound-then-verify SNR peeks vs. exact deltas on the dense worst
/// case: a random VOPD/4×4 placement, threshold at the incumbent
/// (current worst-case SNR) — exactly the greedy-descent workload that
/// used to sit at parity with full evaluation.
fn snr_peek_bound_vs_exact(c: &mut Criterion) {
    let problem = paper_problem("VOPD", TopologyKind::Mesh, Objective::MaximizeWorstCaseSnr);
    let evaluator = problem.evaluator();
    let mut rng = StdRng::seed_from_u64(7);
    let mapping = Mapping::random(problem.task_count(), problem.tile_count(), &mut rng);
    let state = evaluator.init_state(&mapping);
    let threshold = state.worst_case_snr();
    let moves: Vec<phonoc_core::Move> = (0..64)
        .map(|_| mapping.random_swap_move(&mut rng))
        .collect();

    let mut group = c.benchmark_group("snr_peek_bound_vs_exact_vopd_4x4");
    group.bench_function("exact_delta_peek", |b| {
        let mut scratch = DeltaScratch::default();
        let mut i = 0usize;
        b.iter(|| {
            let mv = moves[i % moves.len()];
            i += 1;
            black_box(evaluator.evaluate_delta_with(&state, &mapping, mv, &mut scratch))
        });
    });
    group.bench_function("bounded_peek_vs_incumbent", |b| {
        let mut scratch = DeltaScratch::default();
        let mut i = 0usize;
        b.iter(|| {
            let mv = moves[i % moves.len()];
            i += 1;
            black_box(evaluator.evaluate_delta_bounded(
                &state,
                &mapping,
                mv,
                &mut scratch,
                threshold,
            ))
        });
    });
    group.finish();
}

/// Loss cursor state vs. the full crosstalk state on an 8×8
/// scenario cell (one of the power/loss request stream's): the same
/// mapping seated and the same swap committed by a context under the
/// SNR objective (which builds and patches the full per-hop crosstalk
/// caches) and under the laser-power objective (which keeps only each
/// edge's path and insertion loss).
///
///  * `seat_*` — [`OptContext::set_current`]: `init_state` vs.
///    `init_loss_state` behind the same bookkeeping;
///  * `commit_*` — two [`OptContext::apply_scored_move`] calls that
///    commit a swap and swap it back (peeks scored once up front, so
///    only the commit is timed: `apply_move` vs. `apply_loss_move`
///    behind the same bookkeeping).
fn loss_seat_vs_full_state(c: &mut Criterion) {
    let spec = ScenarioSpec {
        family: ScenarioFamily::MpegLike,
        mesh: 8,
        density_pct: 100,
        seed: 200,
    };
    let problem = MappingProblem::new(
        spec.build(),
        Topology::mesh(8, 8, bench::tile_pitch()),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        Objective::MaximizeWorstCaseSnr,
    )
    .expect("8x8 scenario cell is valid");
    let mut rng = StdRng::seed_from_u64(5);
    let mapping = Mapping::random(problem.task_count(), problem.tile_count(), &mut rng);
    let mv = mapping.random_swap_move(&mut rng);
    let power = Objective::by_name("power").expect("power objective");
    // Effectively unlimited: the bench must never exhaust a context.
    let budget = 1usize << 40;
    let context = |objective: Objective| {
        let mut ctx = OptContext::new(&problem, budget, 1);
        ctx.set_objective(objective)
            .expect("a fresh context has not evaluated yet");
        ctx.set_peek_strategy(PeekStrategy::Delta);
        ctx
    };

    let mut group = c.benchmark_group("loss_seat_vs_full_state");
    for (name, objective) in [("full", Objective::MaximizeWorstCaseSnr), ("loss", power)] {
        group.bench_function(&format!("seat_{name}_state"), |b| {
            let mut ctx = context(objective);
            b.iter(|| black_box(ctx.set_current(mapping.clone())));
        });
        group.bench_function(&format!("commit_{name}_state"), |b| {
            let mut ctx = context(objective);
            ctx.set_current(mapping.clone());
            // A swap is its own inverse: score it from both sides once,
            // then commit the pair alternately.
            let there = ctx.peek_move(mv).expect("budget left");
            ctx.apply_scored_move(&there);
            let back = ctx.peek_move(mv).expect("budget left");
            ctx.apply_scored_move(&back);
            b.iter(|| {
                ctx.apply_scored_move(&there);
                ctx.apply_scored_move(&back);
            });
        });
    }
    group.finish();
}

/// The loss family's per-move and per-seat work on `mpeg-like` d100 s1
/// cells (4×4, 8×8, 16×16), from a random placement:
///
///  * `exact_*` — [`phonoc_core::Evaluator::evaluate_delta_loss`] over
///    256 random swaps, one per iteration (what `sa` and `tabu` take on
///    every move under `loss`/`power`);
///  * `exact_worst_edge_*` — the same peek over 64 swaps that move the
///    worst-loss edge, whose new worst case needs the whole edge scan
///    (the swaps a bounded peek verifies);
///  * `bounded_rejection_*` —
///    [`phonoc_core::Evaluator::evaluate_delta_loss_bounded`] at the
///    placement's own worst loss over the random swaps it rejects;
///  * `seat_*` — [`OptContext::set_current`] under `loss`, the seat a
///    portfolio lane takes on every restart.
///
/// Every case calls public API only, so this group can be copied into
/// an older checkout to time both side by side.
fn loss_peek(c: &mut Criterion) {
    let mut group = c.benchmark_group("loss_peek");
    let loss = Objective::by_name("loss").expect("loss objective");
    for mesh in [4, 8, 16] {
        let spec = ScenarioSpec {
            family: ScenarioFamily::MpegLike,
            mesh,
            density_pct: 100,
            seed: 1,
        };
        let problem = bench::sweep::scenario_problem(&spec);
        let evaluator = problem.evaluator();
        let mut rng = StdRng::seed_from_u64(17);
        let mapping = Mapping::random(problem.task_count(), problem.tile_count(), &mut rng);
        let state = evaluator.init_state(&mapping);
        let worst = state.worst_case_il();
        let mut scratch = DeltaScratch::default();
        let random: Vec<phonoc_core::Move> = (0..256)
            .map(|_| mapping.random_swap_move(&mut rng))
            .collect();
        let verifies = |mv: &phonoc_core::Move, scratch: &mut DeltaScratch| {
            let peek = evaluator.evaluate_delta_loss_bounded(&state, &mapping, *mv, scratch, worst);
            matches!(peek, BoundedLossDelta::Exact { moved_edges, .. } if moved_edges > 0)
        };
        let rejected: Vec<_> = random
            .iter()
            .copied()
            .filter(|mv| !verifies(mv, &mut scratch))
            .collect();
        let worst_edge: Vec<_> = (0..1 << 20)
            .map(|_| mapping.random_swap_move(&mut rng))
            .filter(|mv| verifies(mv, &mut scratch))
            .take(64)
            .collect();
        let cases = [
            ("exact", &random, false),
            ("exact_worst_edge", &worst_edge, false),
            ("bounded_rejection", &rejected, true),
        ];
        for (name, moves, bounded) in cases {
            group.bench_function(&format!("{name}_{mesh}x{mesh}"), |b| {
                let mut i = 0usize;
                b.iter(|| {
                    let mv = moves[i % moves.len()];
                    i += 1;
                    if bounded {
                        black_box(evaluator.evaluate_delta_loss_bounded(
                            &state,
                            &mapping,
                            mv,
                            &mut scratch,
                            worst,
                        ));
                    } else {
                        black_box(evaluator.evaluate_delta_loss(
                            &state,
                            &mapping,
                            mv,
                            &mut scratch,
                        ));
                    }
                });
            });
        }
        group.bench_function(&format!("seat_{mesh}x{mesh}"), |b| {
            // Effectively unlimited: the bench must never exhaust it.
            let mut ctx = OptContext::new(&problem, 1usize << 40, 1);
            ctx.set_objective(loss)
                .expect("a fresh context has not evaluated yet");
            b.iter(|| black_box(ctx.set_current(mapping.clone())));
        });
    }
    group.finish();
}

/// The bounded full pass ([`phonoc_core::Evaluator::evaluate_bounded`])
/// against the exact one on the two candidate sets that reach it:
///
///  * `random_*` — uniform random placements at random search's
///    threshold, the best worst-case SNR of 256 earlier draws;
///  * `neighbours_*` — one-swap neighbours of an R-PBLA optimum at the
///    optimum's own worst-case SNR, the threshold of an improving scan
///    around a converged cursor;
///  * `rs_draws_*` — random search itself: 1024 uniform draws scored in
///    order on one reused scratch, each against the best worst-case SNR
///    of the draws before it (`-∞` for the first), so the scratch's
///    list of recent stopping edges warms up as in a run. One
///    iteration scores all 1024.
///
/// `*_exact` runs `evaluate_into` on the same mappings.
fn full_pass_bounded(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_pass_bounded");
    for (name, app) in [("vopd_4x4", "VOPD"), ("dvopd_6x6", "DVOPD")] {
        let problem = paper_problem(app, TopologyKind::Mesh, Objective::MaximizeWorstCaseSnr);
        let evaluator = problem.evaluator();
        let (tasks, tiles) = (problem.task_count(), problem.tile_count());
        let mut rng = StdRng::seed_from_u64(11);
        let worst_snr = |m: &Mapping| evaluator.evaluate(m).worst_case_snr.0;
        let incumbent = (0..256)
            .map(|_| worst_snr(&Mapping::random(tasks, tiles, &mut rng)))
            .fold(f64::NEG_INFINITY, f64::max);
        let random: Vec<Mapping> = (0..64)
            .map(|_| Mapping::random(tasks, tiles, &mut rng))
            .collect();
        let optimum =
            phonoc_core::run_dse(&problem, &Rpbla, &DseConfig::new(4_000, 1)).best_mapping;
        let cursor = worst_snr(&optimum);
        let neighbours: Vec<Mapping> = (0..64)
            .map(|_| optimum.with_move(optimum.random_swap_move(&mut rng)))
            .collect();
        for (set, mappings, threshold) in [
            ("random", &random, Db(incumbent)),
            ("neighbours", &neighbours, Db(cursor)),
        ] {
            group.bench_function(&format!("{name}_{set}_exact"), |b| {
                let mut scratch = EvalScratch::default();
                let mut i = 0usize;
                b.iter(|| {
                    let m = &mappings[i % mappings.len()];
                    i += 1;
                    black_box(evaluator.evaluate_into(m, None, &mut scratch))
                });
            });
            group.bench_function(&format!("{name}_{set}_bounded"), |b| {
                let mut scratch = EvalScratch::default();
                let mut i = 0usize;
                b.iter(|| {
                    let m = &mappings[i % mappings.len()];
                    i += 1;
                    black_box(evaluator.evaluate_bounded(m, threshold, &mut scratch))
                });
            });
        }
        let draws: Vec<Mapping> = (0..1024)
            .map(|_| Mapping::random(tasks, tiles, &mut rng))
            .collect();
        group.bench_function(&format!("{name}_rs_draws_exact"), |b| {
            let mut scratch = EvalScratch::default();
            b.iter(|| {
                let mut incumbent = f64::NEG_INFINITY;
                for m in &draws {
                    let snr = evaluator
                        .evaluate_into(m, None, &mut scratch)
                        .worst_case_snr
                        .0;
                    incumbent = incumbent.max(snr);
                }
                black_box(incumbent)
            });
        });
        group.bench_function(&format!("{name}_rs_draws_bounded"), |b| {
            let mut scratch = EvalScratch::default();
            b.iter(|| {
                let mut incumbent = f64::NEG_INFINITY;
                for m in &draws {
                    if let Some(s) = evaluator.evaluate_bounded(m, Db(incumbent), &mut scratch) {
                        incumbent = incumbent.max(s.worst_case_snr.0);
                    }
                }
                black_box(incumbent)
            });
        });
    }
    group.finish();
}

/// Problem assembly (CG, routing of every tile pair, tables) on the
/// `mpeg-like` d100 s1 cells at 8×8 and 16×16:
///
///  * `cold_*` — no other problem on the architecture is alive, so the
///    build routes, computes every gain and registers new tables (each
///    iteration also drops them);
///  * `interned_*` — another problem on the architecture is alive, so
///    the build routes, matches the live tables and shares them.
///
/// Every case calls public API only, so this group can be copied into
/// an older checkout (where both cases build cold) to time both side by
/// side.
fn problem_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("problem_build");
    for mesh in [8, 16] {
        let spec = ScenarioSpec {
            family: ScenarioFamily::MpegLike,
            mesh,
            density_pct: 100,
            seed: 1,
        };
        group.bench_function(&format!("cold_mpeg_like_{mesh}x{mesh}"), |b| {
            b.iter(|| bench::sweep::scenario_problem(&spec));
        });
        let alive = bench::sweep::scenario_problem(&spec);
        group.bench_function(&format!("interned_mpeg_like_{mesh}x{mesh}"), |b| {
            b.iter(|| bench::sweep::scenario_problem(&spec));
        });
        drop(alive);
    }
    group.finish();
}

criterion_group!(
    benches,
    evaluator_throughput,
    evaluator_construction,
    full_vs_delta,
    full_alloc_vs_scratch,
    snr_peek_bound_vs_exact,
    snr_commit,
    loss_seat_vs_full_state,
    loss_peek,
    full_pass_bounded,
    problem_build
);
criterion_main!(benches);
