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
//! ([`OptContext::scored_peeks`]).
//!
//! The worker override is process-global, so the tests serialize on one
//! mutex and restore the default before releasing it.

use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonoc_core::engine::LOSS_FORK_WORK;
use phonoc_core::parallel::{set_worker_override, FORK_FLOOR};
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
/// what it left plus the moves the context scored.
fn run(
    p: &MappingProblem,
    strategy: PeekStrategy,
    budget: usize,
    start: &Mapping,
    scan: impl FnOnce(&mut OptContext<'_>) -> Vec<MoveEval>,
) -> (Outcome, u64) {
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
    (outcome, ctx.scored_peeks())
}

#[test]
fn inline_forked_and_sequential_batches_agree() {
    let _pin = pin();
    // Far above the fork floor, so 2 and 4 workers really fork, except
    // a loss batch below the loss fork work; the heavy loss batch is
    // just above it (the cell has 36 tiles).
    let heavy_loss = LOSS_FORK_WORK / 36 + 1;
    let routes = [
        (
            "full",
            Objective::MaximizeWorstCaseSnr,
            PeekStrategy::Full,
            16 * FORK_FLOOR,
        ),
        (
            "snr-delta",
            Objective::MaximizeWorstCaseSnr,
            PeekStrategy::Delta,
            16 * FORK_FLOOR,
        ),
        (
            "loss",
            Objective::MinimizeWorstCaseLoss,
            PeekStrategy::Hybrid,
            16 * FORK_FLOOR,
        ),
        (
            "heavy-loss",
            Objective::MinimizeWorstCaseLoss,
            PeekStrategy::Hybrid,
            heavy_loss,
        ),
    ];
    for (name, objective, strategy, len) in routes {
        let p = problem(objective);
        assert_eq!(p.tile_count(), 36);
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        let start = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
        let moves: Vec<Move> = (0..len).map(|_| start.random_swap_move(&mut rng)).collect();
        // Plenty of budget, then a budget that runs out partway.
        for budget in [1_000_000, 4] {
            let label = format!("{name} at budget {budget}");
            let (sequential, _) = run(&p, strategy, budget, &start, |ctx| {
                moves
                    .iter()
                    .map_while(|&mv| ctx.peek_move_improving(mv))
                    .collect()
            });
            let billed = sequential.0.len();
            assert_eq!(
                billed < moves.len(),
                budget == 4,
                "{label}: only the small budget cuts the batch"
            );
            assert!(billed > 0, "{label}: the batch scores something");
            let full = sequential.0.iter().all(|ev| ev.route() == PeekRoute::Full);
            assert_eq!(full, name == "full", "{label}: the route under test");
            for workers in [1, 2, 4] {
                set_worker_override(Some(workers));
                let (batch, scored) = run(&p, strategy, budget, &start, |ctx| {
                    ctx.peek_moves_improving(&moves)
                });
                assert_eq!(batch, sequential, "{label} at {workers} workers");
                // Inline batches (one worker, or a light loss batch)
                // book each move as they score it: nothing past the
                // budget.
                if workers == 1 || name == "loss" {
                    assert_eq!(scored, billed as u64, "{label} at {workers} workers");
                } else {
                    assert_eq!(scored, moves.len() as u64, "{label}: a forked batch");
                }
            }
            set_worker_override(None);
        }
    }
}
