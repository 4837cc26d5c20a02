//! A batch scan takes one of three paths: inline on the calling thread
//! (booking each move as it is scored), forked over the worker pool
//! (scored in parallel, then booked in order), or the sequential peek
//! loop a caller could write itself. They must be indistinguishable:
//! for each peek route (full pass, SNR delta, loss, and a loss batch
//! heavy enough to fork) and for a budget
//! that covers the batch and one that runs out partway through it,
//! `peek_moves_improving` at 1, 2 and 4 workers returns bit-identical
//! [`MoveEval`]s and leaves the same ledger, [`RunStats`], trace and
//! incumbent as `peek_move_improving` called once per move. The inline
//! path must also score no move once the budget has run out
//! ([`OptContext::scored_peeks`]), and a forked batch no move past what
//! the budget can pay at the route's least bill: a full-routed batch
//! scores exactly what it books, any other leaves fewer unbilled moves
//! than the units left at the call.
//!
//! A batch states its work to the pool's one rule (`edge_count` per
//! full-routed or SNR-delta peek, one per loss peek). Every case that
//! claims to fork checks that the context really forked a batch
//! ([`OptContext::forked_batches`]), and every one-worker case that it
//! did not, so the worker matrix cannot silently test only inline
//! paths.
//!
//! The worker override is process-global, so the tests serialize on one
//! mutex and restore the default before releasing it.

use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonoc_core::parallel::{set_worker_override, FORK_WORK};
use phonoc_core::{
    Mapping, MappingProblem, Move, MoveEval, Objective, OptContext, PeekRoute, PeekStrategy,
    RunStats, RunTrace, TraceEvent,
};
use phonoc_phys::{Length, PhysicalParameters};
use phonoc_route::XyRouting;
use phonoc_router::crux::crux_router;
use phonoc_topo::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Locks the override for one test and restores the default on drop.
struct Pinned<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

impl Drop for Pinned<'_> {
    fn drop(&mut self) {
        set_worker_override(None);
    }
}

fn pin() -> Pinned<'static> {
    Pinned(OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
}

/// A 6×6 hotspot cell under `objective`.
fn problem(objective: Objective) -> MappingProblem {
    let spec = ScenarioSpec {
        family: ScenarioFamily::Hotspot,
        mesh: 6,
        density_pct: 150,
        seed: 2,
    };
    MappingProblem::new(
        spec.build(),
        Topology::mesh(6, 6, Length::from_mm(2.5)),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        objective,
    )
    .expect("scenario problems are valid")
}

/// What a batch leaves behind: its evaluations, the ledger, the
/// counters, the events and the incumbent.
type Outcome = (
    Vec<MoveEval>,
    (usize, usize, bool),
    RunStats,
    Vec<TraceEvent>,
    Option<(Mapping, f64)>,
);

/// Runs `scan` on a fresh traced context seated on `start`, and returns
/// what it left, the moves the context scored and the batches it forked.
fn run(
    p: &MappingProblem,
    strategy: PeekStrategy,
    budget: usize,
    start: &Mapping,
    scan: impl FnOnce(&mut OptContext<'_>) -> Vec<MoveEval>,
) -> (Outcome, u64, u64) {
    let mut ctx = OptContext::new(p, budget, 0);
    ctx.set_trace_sink(Box::new(RunTrace::new()));
    ctx.set_peek_strategy(strategy);
    ctx.set_current(start.clone())
        .expect("budget covers the seat");
    let evals = scan(&mut ctx);
    let outcome = (
        evals,
        (ctx.used(), ctx.remaining(), ctx.exhausted()),
        ctx.stats(),
        ctx.drain_trace(),
        ctx.best().map(|(m, s)| (m.clone(), s)),
    );
    (outcome, ctx.scored_peeks(), ctx.forked_batches())
}

#[test]
fn inline_forked_and_sequential_batches_agree() {
    let _pin = pin();
    // Far above the fork work, so 2 and 4 workers really fork, except
    // a loss batch below twice the fork work; the heavy loss batch is
    // well above it (a loss peek states one unit).
    let routes = [
        ("full", Objective::MaximizeWorstCaseSnr, PeekStrategy::Full),
        (
            "snr-delta",
            Objective::MaximizeWorstCaseSnr,
            PeekStrategy::Delta,
        ),
        (
            "loss",
            Objective::MinimizeWorstCaseLoss,
            PeekStrategy::Hybrid,
        ),
        (
            "heavy-loss",
            Objective::MinimizeWorstCaseLoss,
            PeekStrategy::Hybrid,
        ),
    ];
    for (name, objective, strategy) in routes {
        let p = problem(objective);
        assert_eq!(p.tile_count(), 36);
        let unit = p.evaluator().edge_count();
        let len = match name {
            "loss" => FORK_WORK,
            "heavy-loss" => 4 * FORK_WORK,
            _ => (4 * FORK_WORK).div_ceil(unit),
        };
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        let start = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
        let moves: Vec<Move> = (0..len).map(|_| start.random_swap_move(&mut rng)).collect();
        // Plenty of budget, then a budget that runs out partway.
        for budget in [1_000_000, 4] {
            let label = format!("{name} at budget {budget}");
            let (sequential, _, _) = run(&p, strategy, budget, &start, |ctx| {
                moves
                    .iter()
                    .map_while(|&mv| ctx.peek_move_improving(mv))
                    .collect()
            });
            let billed = sequential.0.len() as u64;
            assert_eq!(
                billed < moves.len() as u64,
                budget == 4,
                "{label}: only the small budget cuts the batch"
            );
            assert!(billed > 0, "{label}: the batch scores something");
            let full = sequential.0.iter().all(|ev| ev.route() == PeekRoute::Full);
            assert_eq!(full, name == "full", "{label}: the route under test");
            // Units left after the seat.
            let left = ((budget - 1) * unit) as u64;
            for workers in [1, 2, 4] {
                set_worker_override(Some(workers));
                let (batch, scored, forked) = run(&p, strategy, budget, &start, |ctx| {
                    ctx.peek_moves_improving(&moves)
                });
                assert_eq!(batch, sequential, "{label} at {workers} workers");
                // With plenty of budget, every batch but the light loss
                // one claims to fork on more than one worker; one
                // worker, or the light loss batch, never forks.
                if workers == 1 || name == "loss" {
                    assert_eq!(forked, 0, "{label} must run inline at {workers} workers");
                } else if budget > 4 {
                    assert!(forked > 0, "{label} must fork at {workers} workers");
                }
                if forked > 0 {
                    // A forked batch scores no more than the budget can
                    // pay at the route's least bill: a full-routed one
                    // exactly what it books, any other fewer unbilled
                    // moves than the units left.
                    if full {
                        assert_eq!(scored, billed, "{label} at {workers} workers");
                    }
                    assert!(scored - billed < left, "{label} at {workers} workers");
                } else {
                    // Inline batches book each move as they score it:
                    // nothing past the budget.
                    assert_eq!(scored, billed, "{label} at {workers} workers");
                }
            }
            set_worker_override(None);
        }
    }
}

#[test]
fn forked_batches_cut_by_the_budget_score_only_what_it_pays() {
    let _pin = pin();
    let p = problem(Objective::MaximizeWorstCaseSnr);
    let unit = p.evaluator().edge_count();
    let mut rng = StdRng::seed_from_u64(0xC07);
    let start = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
    // Full route: a budget that pays for `paid` peeks (plus the seat),
    // `paid` heavy enough to fork at 2 and 4 workers, and twice as many
    // moves. SNR delta: as many moves as the fork needs, and a budget
    // of as many units as moves, which its peeks (billed their affected
    // edges) cannot all pay.
    let paid = (4 * FORK_WORK).div_ceil(unit);
    let delta_len = (4 * FORK_WORK).div_ceil(unit);
    for (name, strategy, len, budget) in [
        ("full", PeekStrategy::Full, 2 * paid, 1 + paid),
        (
            "snr-delta",
            PeekStrategy::Delta,
            delta_len,
            1 + delta_len.div_ceil(unit),
        ),
    ] {
        let moves: Vec<Move> = (0..len).map(|_| start.random_swap_move(&mut rng)).collect();
        let (sequential, _, _) = run(&p, strategy, budget, &start, |ctx| {
            moves
                .iter()
                .map_while(|&mv| ctx.peek_move_improving(mv))
                .collect()
        });
        let billed = sequential.0.len() as u64;
        assert!(billed < len as u64, "{name}: the budget cuts the batch");
        let full = name == "full";
        assert_eq!(
            sequential.0.iter().all(|ev| ev.route() == PeekRoute::Full),
            full,
            "{name}: the route under test"
        );
        let left = (budget - 1) * unit;
        for workers in [2, 4] {
            set_worker_override(Some(workers));
            let (batch, scored, forked) = run(&p, strategy, budget, &start, |ctx| {
                ctx.peek_moves_improving(&moves)
            });
            assert!(forked > 0, "{name} must fork at {workers} workers");
            assert_eq!(batch, sequential, "{name} at {workers} workers");
            if full {
                assert_eq!(scored, billed, "full at {workers} workers: scored = booked");
            } else {
                assert!(scored > billed, "the delta batch scores past its bill");
                assert!(
                    scored - billed < left as u64,
                    "delta at {workers} workers: {} unbilled, {left} units left",
                    scored - billed
                );
            }
        }
        set_worker_override(None);
    }
}
