//! Criterion benchmarks for the search strategies at a fixed small
//! budget: wall-clock per evaluation differs between strategies because
//! of their bookkeeping (GA population management, R-PBLA neighbourhood
//! scans), which is exactly the overhead an equal-evaluation comparison
//! must keep small.

use bench::paper_problem;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonoc_core::parallel::{parallel_map_with, set_worker_override, FORK_WORK};
use phonoc_core::{
    run_dse, DseConfig, MappingOptimizer, Move, NeighborhoodPolicy, Objective, OptContext,
    PeekStrategy,
};
use phonoc_opt::neighborhood::Neighborhood;
use phonoc_opt::{GeneticAlgorithm, RandomSearch, Rpbla, SimulatedAnnealing, TabuSearch};
use phonoc_topo::TopologyKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn optimizer_overhead(c: &mut Criterion) {
    let problem = paper_problem("VOPD", TopologyKind::Mesh, Objective::MaximizeWorstCaseSnr);
    let budget = 2_000;
    let optimizers: Vec<Box<dyn MappingOptimizer>> = vec![
        Box::new(RandomSearch),
        Box::new(GeneticAlgorithm),
        Box::new(Rpbla),
        Box::new(SimulatedAnnealing),
        Box::new(TabuSearch),
    ];
    let mut group = c.benchmark_group("optimize_vopd_2k_evals");
    group.sample_size(10);
    for opt in &optimizers {
        group.bench_function(opt.name(), |b| {
            b.iter(|| run_dse(&problem, opt.as_ref(), &DseConfig::new(budget, 42)));
        });
    }
    group.finish();

    // The paper's three strategies on its largest cell (DVOPD, 6×6
    // mesh) at a Table II-sized budget, where GA offspring that repeat
    // a parent are scored from it rather than recomputed.
    let problem = paper_problem("DVOPD", TopologyKind::Mesh, Objective::MaximizeWorstCaseSnr);
    let paper: [Box<dyn MappingOptimizer>; 3] = [
        Box::new(GeneticAlgorithm),
        Box::new(RandomSearch),
        Box::new(Rpbla),
    ];
    let mut group = c.benchmark_group("optimize_dvopd_4k_evals");
    group.sample_size(10);
    for opt in &paper {
        group.bench_function(opt.name(), |b| {
            b.iter(|| run_dse(&problem, opt.as_ref(), &DseConfig::new(4_000, 42)));
        });
    }
    group.finish();
}

/// Move-stream generation against a seated random cursor, on the 8×8
/// and 16×16 `mpeg-like` cells (density 200, seed 1).
///
/// * `sampled`, `locality_start` and `locality_widened` time building
///   a [`Neighborhood`] plus one quota-32 pass (at the start radius, or
///   after widening all the way, where every admitted pair qualifies);
///   `locality_new` times the construction alone.
/// * `new_sampled` and `new_locality` time construction per policy.
/// * `locality_pass_r{2,4,8,max}_q{3,32,187}` and `sampled_pass_q3` time
///   one pass of a stream built (and widened to that radius) outside
///   the timed closure: the per-pass cost of a session's later passes.
///   Quota 3 is what a short portfolio lane round draws; 32 is the
///   `MIN_SCAN` floor; 187 is `scan_quota(1500, …)`, a fresh descent's
///   quota at the sweep's budget.
/// * `locality_lane_round` times one short portfolio lane round's
///   stream work: a fresh locality stream, then quota-3 passes at radii
///   2, 4 and 8 on one cursor, so per-radius setup counts.
fn neighborhood_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("neighborhood_pass");
    for mesh in [8, 16] {
        let problem = bench::sweep::scenario_problem(&ScenarioSpec {
            family: ScenarioFamily::MpegLike,
            mesh,
            density_pct: 200,
            seed: 1,
        });
        let mut ctx = OptContext::new(&problem, 1_000_000, 5);
        let start = ctx.random_mapping();
        ctx.set_current(start).expect("budget is ample");
        let cell = format!("mpeg_like_{mesh}x{mesh}");
        group.bench_function(&format!("sampled_{cell}"), |b| {
            b.iter(|| {
                let mut n = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Sampled, 7);
                black_box(n.pass(&ctx, 32).len())
            });
        });
        group.bench_function(&format!("locality_new_{cell}"), |b| {
            b.iter(|| Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Locality, 7));
        });
        group.bench_function(&format!("locality_start_{cell}"), |b| {
            b.iter(|| {
                let mut n = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Locality, 7);
                black_box(n.pass(&ctx, 32).len())
            });
        });
        group.bench_function(&format!("locality_widened_{cell}"), |b| {
            b.iter(|| {
                let mut n = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Locality, 7);
                while n.widen(&mut ctx) {}
                black_box(n.pass(&ctx, 32).len())
            });
        });
        for (name, policy) in [
            ("sampled", NeighborhoodPolicy::Sampled),
            ("locality", NeighborhoodPolicy::Locality),
        ] {
            group.bench_function(&format!("new_{name}_{cell}"), |b| {
                b.iter(|| Neighborhood::with_policy(&ctx, policy, 7));
            });
        }
        group.bench_function(&format!("locality_lane_round_{cell}"), |b| {
            b.iter(|| {
                let mut n = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Locality, 7);
                let mut drawn = n.pass(&ctx, 3).len();
                for _ in 0..2 {
                    n.widen(&mut ctx);
                    drawn += n.pass(&ctx, 3).len();
                }
                black_box(drawn)
            });
        });
        let mut n = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Sampled, 7);
        n.pass(&ctx, 3);
        group.bench_function(&format!("sampled_pass_q3_{cell}"), |b| {
            b.iter(|| black_box(n.pass(&ctx, 3).len()));
        });
        let mut n = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Locality, 7);
        for radius in ["r2", "r4", "r8", "rmax"] {
            if radius == "rmax" {
                while n.widen(&mut ctx) {}
            }
            for quota in [3, 32, 96, 187] {
                group.bench_function(&format!("locality_pass_{radius}_q{quota}_{cell}"), |b| {
                    b.iter(|| black_box(n.pass(&ctx, quota).len()));
                });
            }
            n.widen(&mut ctx);
        }
    }
    group.finish();
}

/// The pool's one dispatch rule, measured where it decides.
///
/// * `round_trip_{1,2}_workers` time an empty two-item batch stating
///   `2 × FORK_WORK`: inline at one worker, and at two the dispatch
///   round-trip (a send, two wake-ups, a receive) that `FORK_WORK` is
///   sized from.
/// * `{full,delta,loss}_{inline,forked}_mpeg_like_{8x8,16x16}` time one
///   `peek_moves_improving` batch stating `2 × FORK_WORK` units (the
///   least work that forks) against a seated random cursor on the
///   mpeg-like d100 cells, at one worker and at two: full-routed and
///   SNR-delta peeks state the edge count each, loss peeks one unit.
///   Their inline time over `2 × FORK_WORK` is the route's ns per unit.
fn dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");
    let empty = [(), ()];
    for workers in [1, 2] {
        let name = format!(
            "round_trip_{workers}_worker{}",
            if workers > 1 { "s" } else { "" }
        );
        group.bench_function(&name, |b| {
            set_worker_override(Some(workers));
            b.iter(|| parallel_map_with(&empty, 2 * FORK_WORK, || (), |_, &()| ()));
        });
    }
    for mesh in [8, 16] {
        let spec = ScenarioSpec {
            family: ScenarioFamily::MpegLike,
            mesh,
            density_pct: 100,
            seed: 1,
        };
        for (route, objective, strategy) in [
            ("full", Objective::MaximizeWorstCaseSnr, PeekStrategy::Full),
            (
                "delta",
                Objective::MaximizeWorstCaseSnr,
                PeekStrategy::Delta,
            ),
            (
                "loss",
                Objective::MinimizeWorstCaseLoss,
                PeekStrategy::Hybrid,
            ),
        ] {
            let problem = bench::sweep::scenario_problem_with_objective(&spec, objective);
            let unit = problem.evaluator().edge_count();
            let len = if route == "loss" {
                2 * FORK_WORK
            } else {
                (2 * FORK_WORK).div_ceil(unit)
            };
            let mut ctx = OptContext::new(&problem, usize::MAX / unit, 5);
            ctx.set_peek_strategy(strategy);
            let start = ctx.random_mapping();
            let mut rng = StdRng::seed_from_u64(9);
            let moves: Vec<Move> = (0..len).map(|_| start.random_swap_move(&mut rng)).collect();
            ctx.set_current(start).expect("budget is ample");
            for (path, workers) in [("inline", 1), ("forked", 2)] {
                let name = format!("{route}_{path}_mpeg_like_{mesh}x{mesh}");
                group.bench_function(&name, |b| {
                    set_worker_override(Some(workers));
                    b.iter(|| black_box(ctx.peek_moves_improving(&moves).len()));
                });
            }
        }
    }
    set_worker_override(None);
    group.finish();
}

criterion_group!(benches, optimizer_overhead, neighborhood_pass, dispatch);
criterion_main!(benches);
