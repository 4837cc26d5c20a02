//! Thread-count invariance: every parallel entry point must return
//! **bit-identical** results whatever the worker count — the half of
//! the "multi-core verification" ROADMAP item that a single-core
//! container *can* verify. The worker count is pinned through
//! [`phonoc_core::parallel::set_worker_override`] (the same knob the
//! CI worker matrix drives via `PHONOC_WORKERS`), and each property
//! compares a 1-worker reference run against 2-, 4- (and for the pool
//! properties 8-) worker reruns of identical work — including the
//! persistent pool against the plain sequential map, mid-run worker
//! resizes between batches, and reused sticky scratch slots polluted by
//! a differently-shaped batch.
//!
//! The override is process-global, so every test serializes on one
//! mutex and restores the default before releasing it.

use phonoc_core::parallel::{parallel_map_with, set_worker_override, FORK_WORK};
use phonoc_core::{EvalScratch, Mapping, MappingProblem, Move, Objective, OptContext, RunStats};
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
    Pinned(OVERRIDE_LOCK.lock().unwrap())
}

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn problem(mesh: usize, density: u32, seed: u64) -> MappingProblem {
    use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
    let spec = ScenarioSpec {
        family: ScenarioFamily::Random,
        mesh,
        density_pct: density,
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
fn plain_maps_are_worker_count_invariant() {
    let _pin = pin();
    let items: Vec<u64> = (0..257).collect();
    let fine = |work: usize| {
        parallel_map_with(
            &items,
            work,
            || (),
            |_, &x| x.wrapping_mul(0x9E37_79B9).rotate_left(7),
        )
    };
    set_worker_override(Some(1));
    // Light work stays inline, heavy work forks: the same results.
    let (light, heavy) = (FORK_WORK, usize::MAX);
    let reference = fine(light);
    for workers in WORKER_COUNTS {
        set_worker_override(Some(workers));
        assert_eq!(fine(light), reference, "light map @ {workers} workers");
        assert_eq!(fine(heavy), reference, "heavy map @ {workers} workers");
    }
}

/// The ledger units one full SNR evaluation on `p` costs: a batch of
/// them states `unit` work per mapping.
fn unit(p: &MappingProblem) -> usize {
    p.evaluator().edge_count()
}

/// The worst-case bits of every mapping, through the engine's batch
/// path: `evaluate_into` on each worker's sticky scratch.
fn batch_bits(p: &MappingProblem, mappings: &[Mapping]) -> Vec<(u64, u64)> {
    let evaluator = p.evaluator();
    let work = mappings.len() * unit(p);
    parallel_map_with(mappings, work, EvalScratch::default, |scratch, m| {
        let s = evaluator.evaluate_into(m, None, scratch);
        (s.worst_case_snr.0.to_bits(), s.worst_case_il.0.to_bits())
    })
}

#[test]
fn batch_evaluation_is_worker_count_invariant() {
    let _pin = pin();
    let p = problem(6, 150, 3);
    let mut rng = StdRng::seed_from_u64(99);
    // Enough mappings that 4 workers genuinely fork (≥ 4 × FORK_WORK
    // units).
    let mappings: Vec<Mapping> = (0..(4 * FORK_WORK).div_ceil(unit(&p)))
        .map(|_| Mapping::random(p.task_count(), p.tile_count(), &mut rng))
        .collect();
    // The known-score batch is told every third score (the sequential
    // evaluation's), so its full passes fork over the other entries.
    let known: Vec<Option<f64>> = mappings
        .iter()
        .enumerate()
        .map(|(i, m)| (i % 3 == 0).then(|| p.evaluate(m).1))
        .collect();
    // The engine's batch entry points, scores bit for bit, with the
    // ledger and stats the known-score batch must share with the plain
    // one.
    #[derive(Clone, Copy)]
    enum Batch {
        Plain,
        Improving,
        Known,
    }
    type Outcome = (Vec<Option<u64>>, usize, RunStats);
    // What each batch left, and whether the context forked it.
    let scores = |batch: Batch| -> (Outcome, bool) {
        let mut ctx = OptContext::new(&p, 1_000, 1);
        let scores = match batch {
            Batch::Plain => ctx
                .evaluate_batch(&mappings)
                .into_iter()
                .map(Some)
                .collect(),
            Batch::Improving => ctx.evaluate_batch_improving(&mappings),
            Batch::Known => ctx
                .evaluate_batch_known(&mappings, &known)
                .into_iter()
                .map(Some)
                .collect(),
        };
        let bits = scores.into_iter().map(|s| s.map(f64::to_bits)).collect();
        ((bits, ctx.used(), ctx.stats()), ctx.forked_batches() > 0)
    };
    let all = || [Batch::Plain, Batch::Improving, Batch::Known].map(scores);
    set_worker_override(Some(1));
    let reference = batch_bits(&p, &mappings);
    let score_reference = all().map(|(outcome, _)| outcome);
    assert_eq!(score_reference[2], score_reference[0], "known vs plain");
    for workers in WORKER_COUNTS {
        set_worker_override(Some(workers));
        // Bit-exact, not approximately equal.
        assert_eq!(batch_bits(&p, &mappings), reference, "@ {workers} workers");
        for (i, (outcome, forked)) in all().into_iter().enumerate() {
            assert_eq!(
                outcome, score_reference[i],
                "OptContext batch {i} @ {workers} workers"
            );
            assert_eq!(forked, workers > 1, "batch {i} forks @ {workers} workers");
        }
    }
}

#[test]
fn peek_scans_are_worker_count_invariant() {
    let _pin = pin();
    let p = problem(6, 200, 7);
    let tiles = p.tile_count();
    let moves: Vec<Move> = (0..tiles)
        .flat_map(|a| ((a + 1)..tiles).map(move |b| Move::Swap(a, b)))
        .collect();
    let start = Mapping::random(p.task_count(), tiles, &mut StdRng::seed_from_u64(5));

    let scan = |workers: usize, improving: bool| -> Vec<(Move, u64)> {
        set_worker_override(Some(workers));
        let mut ctx = OptContext::new(&p, 100_000, 1);
        ctx.set_current(start.clone()).unwrap();
        let evals = if improving {
            ctx.peek_moves_improving(&moves)
        } else {
            ctx.peek_moves(&moves)
        };
        evals
            .into_iter()
            .map(|ev| (ev.mv(), ev.score().to_bits()))
            .collect()
    };
    for improving in [false, true] {
        let reference = scan(1, improving);
        assert_eq!(reference.len(), moves.len());
        for workers in WORKER_COUNTS {
            assert_eq!(
                scan(workers, improving),
                reference,
                "improving={improving} @ {workers} workers"
            );
        }
    }
}

#[test]
fn pool_is_bit_identical_to_the_sequential_map() {
    // The persistent pool against the plain sequential map on a real
    // evaluation workload, at every worker count the CI matrix pins
    // plus 8 (more workers than a small host has cores).
    let _pin = pin();
    let p = problem(6, 150, 11);
    let mut rng = StdRng::seed_from_u64(21);
    // Enough mappings that 8 workers genuinely fork (≥ 8 × FORK_WORK
    // units).
    let mappings: Vec<Mapping> = (0..(8 * FORK_WORK).div_ceil(unit(&p)))
        .map(|_| Mapping::random(p.task_count(), p.tile_count(), &mut rng))
        .collect();
    let evaluator = p.evaluator();
    let eval_bits = |scratch: &mut EvalScratch, m: &Mapping| -> (u64, u64) {
        let s = evaluator.evaluate_into(m, None, scratch);
        (s.worst_case_snr.0.to_bits(), s.worst_case_il.0.to_bits())
    };
    let mut scratch = EvalScratch::default();
    let reference: Vec<(u64, u64)> = mappings
        .iter()
        .map(|m| eval_bits(&mut scratch, m))
        .collect();
    for workers in [1, 2, 4, 8] {
        set_worker_override(Some(workers));
        let work = mappings.len() * unit(&p);
        let (pooled, mut threads): (Vec<_>, Vec<_>) =
            parallel_map_with(&mappings, work, EvalScratch::default, |scratch, m| {
                (eval_bits(scratch, m), std::thread::current().id())
            })
            .into_iter()
            .unzip();
        assert_eq!(pooled, reference, "pool @ {workers} workers");
        threads.dedup();
        assert_eq!(threads.len(), workers, "forks @ {workers} workers");
    }
}

#[test]
fn mid_run_worker_resizes_between_batches_do_not_change_results() {
    // A realistic override lifecycle: the worker count changes *between*
    // batches mid-run (the deterministic-resize contract — the pool
    // grows lazily and never shrinks, but dispatch width follows the
    // override immediately). Every batch must stay bit-identical to the
    // 1-worker reference regardless of the resize schedule.
    let _pin = pin();
    let p = problem(6, 180, 5);
    let mut rng = StdRng::seed_from_u64(31);
    let batches: Vec<Vec<Mapping>> = (0..4)
        .map(|_| {
            (0..24)
                .map(|_| Mapping::random(p.task_count(), p.tile_count(), &mut rng))
                .collect()
        })
        .collect();
    set_worker_override(Some(1));
    let reference: Vec<Vec<_>> = batches.iter().map(|b| batch_bits(&p, b)).collect();
    // Resize up, down, up again — between batches, never within one.
    for schedule in [[1, 4, 2, 8], [8, 1, 4, 2], [2, 2, 8, 1]] {
        for (i, (batch, workers)) in batches.iter().zip(schedule).enumerate() {
            set_worker_override(Some(workers));
            assert_eq!(
                batch_bits(&p, batch),
                reference[i],
                "batch {i} @ {workers} workers"
            );
        }
    }
}

#[test]
fn sticky_scratches_are_buffers_not_accumulators() {
    // A worker's sticky scratch slot survives across batches; results
    // must nevertheless depend only on the current item, never on what
    // a previous batch left in the reused slot. Run the same batch
    // after a batch of *different* work on problems of different size —
    // if any evaluation read stale scratch state, the bits would move.
    let _pin = pin();
    let small = problem(4, 220, 13);
    let large = problem(6, 150, 17);
    let mut rng = StdRng::seed_from_u64(41);
    let small_batch: Vec<Mapping> = (0..32)
        .map(|_| Mapping::random(small.task_count(), small.tile_count(), &mut rng))
        .collect();
    let large_batch: Vec<Mapping> = (0..32)
        .map(|_| Mapping::random(large.task_count(), large.tile_count(), &mut rng))
        .collect();
    set_worker_override(Some(1));
    let fresh = batch_bits(&small, &small_batch);
    for workers in [2, 4, 8] {
        set_worker_override(Some(workers));
        // Pollute every worker's sticky slot with the larger problem's
        // scratch geometry, then re-run the small batch on the same
        // (now stale-shaped) slots.
        let _ = batch_bits(&large, &large_batch);
        assert_eq!(
            batch_bits(&small, &small_batch),
            fresh,
            "stale slot leaked @ {workers} workers"
        );
    }
}
