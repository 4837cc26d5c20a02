//! Executable bound for the hub-band peek route.
//!
//! In the 6×6–8×8 hub band — occupancy concentration 1.5–2.2, the
//! star/hotspot/MPEG-like shapes — the full-vs-bounded winner flips
//! between seeds with ~10–15% margins, so the per-cursor route
//! ([`phonoc_core::Evaluator::prefers_full_peeks`]) picks the average-best side and an
//! occasional single-seed cell may sit above the sweep's 1.20 headline.
//! This test turns that prose into executable bounds: over every
//! hub-band cell (both seeds)
//!
//! * the route is a pure function of the mapping — recomputing it
//!   gives the same answer, a cursor reached through a commit routes
//!   like one seated directly, and every peek of an engine scan takes
//!   it (no per-move routing);
//! * the route's improving-scan cost never exceeds **1.5×** the per-cell
//!   best of the two routes — the same generous factor
//!   `scripts/bench_gate.py` applies.

use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonoc_core::{
    DeltaScratch, EvalScratch, EvalState, Mapping, MappingProblem, Move, Objective, OptContext,
    PeekRoute,
};
use phonoc_phys::{Length, PhysicalParameters};
use phonoc_route::XyRouting;
use phonoc_router::crux::crux_router;
use phonoc_topo::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

const HUB_BAND: std::ops::RangeInclusive<f64> = 1.5..=2.2;
const MOVES: usize = 48;
const SAMPLES: usize = 5;
/// The bench gate's generous advisory factor: hub-band seed flips are
/// 10–15%, so 1.5× leaves real headroom while still catching a route
/// that picks the wrong side outright (the band's full/bounded gap is
/// well above 2× when the rule misroutes systematically). Unlike raw
/// timings, the asserted *ratio* is scale-invariant — a uniformly
/// throttled runner slows both interleaved routes alike — so only noise
/// that asymmetrically poisons one route across all
/// `SAMPLES × (1 + RETRY_ROUNDS)` ≥2 ms min-merged samples could flake
/// it, which is the same robustness argument the sweep harness makes.
const BOUND: f64 = 1.5;
/// Extra measurement rounds (min-merged) before a cell may fail: on a
/// shared box a background burst can poison one route's samples.
const RETRY_ROUNDS: usize = 4;

struct Cell {
    spec: ScenarioSpec,
    problem: MappingProblem,
    mapping: Mapping,
    state: EvalState,
    moves: Vec<Move>,
}

/// Every 6×6/8×8 cell of the hub-concentrated families (both seeds)
/// whose random-placement concentration falls in the documented band.
fn hub_band_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for family in [
        ScenarioFamily::Star,
        ScenarioFamily::Hotspot,
        ScenarioFamily::MpegLike,
    ] {
        for mesh in [6usize, 8] {
            for seed in [1u64, 2] {
                let spec = ScenarioSpec {
                    family,
                    mesh,
                    density_pct: 100,
                    seed,
                };
                let problem = MappingProblem::new(
                    spec.build(),
                    Topology::mesh(mesh, mesh, Length::from_mm(2.5)),
                    crux_router(),
                    Box::new(XyRouting),
                    PhysicalParameters::default(),
                    Objective::MaximizeWorstCaseSnr,
                )
                .expect("scenario problems are valid");
                // The sweep harness's workload: a seeded random
                // placement plus a fixed seeded swap cycle.
                let mut rng =
                    StdRng::seed_from_u64(seed.wrapping_mul(0xC0FF_EE00).wrapping_add(13));
                let mapping = Mapping::random(problem.task_count(), problem.tile_count(), &mut rng);
                let state = problem.evaluator().init_state(&mapping);
                let moves: Vec<Move> = (0..MOVES)
                    .map(|_| mapping.random_swap_move(&mut rng))
                    .collect();
                if HUB_BAND.contains(&problem.evaluator().occupancy_concentration(&mapping)) {
                    cells.push(Cell {
                        spec,
                        problem,
                        mapping,
                        state,
                        moves,
                    });
                }
            }
        }
    }
    cells
}

#[test]
fn hub_band_route_is_a_pure_function_of_the_mapping() {
    let cells = hub_band_cells();
    assert!(
        cells.len() >= 4,
        "the documented hub band should cover several 6x6-8x8 cells, found {}",
        cells.len()
    );
    for cell in &cells {
        let id = cell.spec.id();
        let evaluator = cell.problem.evaluator();
        let route = evaluator.prefers_full_peeks(&cell.mapping);
        // The same placement reached through a swap and back.
        let back = cell.moves[0];
        let fresh = cell.mapping.with_move(back).with_move(back);
        assert_eq!(fresh, cell.mapping, "{id}");
        assert_eq!(
            route,
            evaluator.prefers_full_peeks(&fresh),
            "{id}: route not pure"
        );

        // A cursor seated on the mapping and one that reaches it through
        // a commit take the same route on every peek of a scan.
        let routes_of = |ctx: &mut OptContext<'_>| -> Vec<bool> {
            ctx.peek_moves_improving(&cell.moves)
                .iter()
                .map(|ev| ev.route() == PeekRoute::Full)
                .collect()
        };
        let mut seated = OptContext::new(&cell.problem, 1_000_000, 0);
        seated.set_current(cell.mapping.clone()).expect("budget");
        let mut committed = OptContext::new(&cell.problem, 1_000_000, 0);
        committed
            .set_current(cell.mapping.with_move(back))
            .expect("budget");
        let ev = committed.peek_move(back).expect("budget");
        committed.apply_scored_move(&ev);
        assert_eq!(committed.current_mapping(), Some(&cell.mapping), "{id}");
        let via_seat = routes_of(&mut seated);
        let via_commit = routes_of(&mut committed);
        assert_eq!(via_seat, vec![route; cell.moves.len()], "{id}");
        assert_eq!(via_commit, via_seat, "{id}: commit changed the route");
        println!(
            "{id}: concentration {:.3}, route {}",
            evaluator.occupancy_concentration(&cell.mapping),
            if route { "full" } else { "bounded" }
        );
    }
}

/// Minimum wall-clock one timed sample should span (the sweep
/// harness's discipline): samples far below the scheduler quantum
/// measure mostly timer noise, which is exactly what would flake this
/// bound on a loaded runner.
const TARGET_SAMPLE_NS: u128 = 2_000_000;

/// Times one pass of the cycle on the full (`full == true`) or the
/// bounded route, repeated `reps` times, returning ns for a single
/// pass (averaged over the repetitions).
fn time_pass(
    cell: &Cell,
    full: bool,
    reps: usize,
    fs: &mut EvalScratch,
    ds: &mut DeltaScratch,
) -> u64 {
    let evaluator = cell.problem.evaluator();
    let threshold = cell.state.worst_case_snr();
    let t = Instant::now();
    for _ in 0..reps.max(1) {
        for &mv in &cell.moves {
            if full {
                let moved = cell.mapping.with_move(mv);
                black_box(evaluator.evaluate_into(&moved, None, fs));
            } else {
                black_box(evaluator.evaluate_delta_bounded(
                    &cell.state,
                    &cell.mapping,
                    mv,
                    ds,
                    threshold,
                ));
            }
        }
    }
    (t.elapsed().as_nanos() / reps.max(1) as u128) as u64
}

/// Fastest-of-N interleaved observation per route, with the sweep
/// harness's discipline in miniature: a settle pause before the clock
/// starts, per-route repetition counts calibrated so every timed sample
/// spans at least [`TARGET_SAMPLE_NS`], and the minimum kept (identical
/// deterministic work per pass, so the min is the least-disturbed
/// observation). Returns `[full, bounded]`.
fn measure(cell: &Cell, fs: &mut EvalScratch, ds: &mut DeltaScratch) -> [u64; 2] {
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut reps = [1usize; 2];
    for (slot, full) in reps.iter_mut().zip([true, false]) {
        let single = u128::from(time_pass(cell, full, 1, fs, ds)).max(1); // warm-up + calibration
        *slot = ((TARGET_SAMPLE_NS / single).max(1) as usize).min(256);
    }
    let mut best = [u64::MAX; 2];
    for _ in 0..SAMPLES {
        for ((slot, full), reps) in best.iter_mut().zip([true, false]).zip(reps) {
            *slot = (*slot).min(time_pass(cell, full, reps, fs, ds));
        }
    }
    best
}

#[test]
fn hub_band_route_stays_within_the_generous_bound_across_seeds() {
    let cells = hub_band_cells();
    let mut fs = EvalScratch::default();
    let mut ds = DeltaScratch::default();
    for cell in &cells {
        let route = cell.problem.evaluator().prefers_full_peeks(&cell.mapping);
        let ratio = |[full, bounded]: [u64; 2]| {
            let chosen = if route { full } else { bounded };
            chosen as f64 / full.min(bounded).max(1) as f64
        };
        let mut obs = measure(cell, &mut fs, &mut ds);
        // Min-merge retries: identical deterministic work per pass, so
        // the minimum across rounds is just a better sample.
        for _ in 0..RETRY_ROUNDS {
            if ratio(obs) <= BOUND {
                break;
            }
            let fresh = measure(cell, &mut fs, &mut ds);
            for (slot, f) in obs.iter_mut().zip(fresh) {
                *slot = (*slot).min(f);
            }
        }
        let [full, bounded] = obs;
        println!(
            "{}: full {full} ns, bounded {bounded} ns, route {} ({:.3}x best)",
            cell.spec.id(),
            if route { "full" } else { "bounded" },
            ratio(obs)
        );
        assert!(
            ratio(obs) <= BOUND,
            "{}: the {} route exceeds {BOUND}x the per-cell best (full {full} ns, bounded {bounded} ns)",
            cell.spec.id(),
            if route { "full" } else { "bounded" },
        );
    }
}
