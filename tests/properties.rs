//! Property-based integration tests over the full stack: randomized
//! applications, topologies and mappings must uphold the evaluator's
//! invariants.

use phonocmap::core::Move;
use phonocmap::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn pitch() -> Length {
    Length::from_mm(2.5)
}

/// Builds a random problem from a seed: a random weakly connected CG on
/// a mesh just big enough (plus optional slack).
fn random_problem(seed: u64, tasks: usize, slack: usize) -> MappingProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let cg = phonocmap::apps::synthetic::random(tasks, tasks / 2, &mut rng);
    let (w, h) = fit_grid(tasks + slack);
    MappingProblem::new(
        cg,
        Topology::mesh(w, h, pitch()),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        Objective::MaximizeWorstCaseSnr,
    )
    .expect("random problems assemble")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every insertion loss is strictly negative, every SNR positive and
    /// at most the ceiling, and the worst cases bound the per-edge
    /// values.
    #[test]
    fn evaluator_invariants_hold(
        seed in 0u64..500,
        tasks in 4usize..20,
        slack in 0usize..5,
    ) {
        let p = random_problem(seed, tasks, slack);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let m = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
        let (metrics, score) = p.evaluate(&m);
        prop_assert_eq!(metrics.edges.len(), p.cg().edge_count());
        let ceiling = p.evaluator().snr_ceiling();
        for e in &metrics.edges {
            prop_assert!(e.insertion_loss.0 < 0.0);
            prop_assert!(e.snr.0 > 0.0 && e.snr <= ceiling);
            prop_assert!(e.insertion_loss >= metrics.worst_case_il);
            prop_assert!(e.snr >= metrics.worst_case_snr);
        }
        prop_assert!(score.is_finite());
    }

    /// Swapping two free tiles never changes the evaluation; swapping a
    /// task with anything keeps the mapping valid.
    #[test]
    fn free_tile_swaps_are_neutral(
        seed in 0u64..500,
        tasks in 3usize..10,
    ) {
        // Force at least two free tiles.
        let p = random_problem(seed, tasks, 3);
        let tiles = p.tile_count();
        prop_assume!(tiles >= tasks + 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Mapping::random(tasks, tiles, &mut rng);
        let (before, _) = p.evaluate(&m);
        let swapped = m.with_move(Move::Swap(tasks, tasks + 1)); // two free positions
        prop_assert!(swapped.is_valid());
        let (after, _) = p.evaluate(&swapped);
        prop_assert_eq!(before, after);
    }

    /// The mapping permutation survives arbitrary swap sequences.
    #[test]
    fn swap_sequences_preserve_validity(
        seed in 0u64..1000,
        tasks in 2usize..12,
        slack in 0usize..6,
        swaps in proptest::collection::vec((0usize..18, 0usize..18), 0..40),
    ) {
        let tiles = tasks + slack;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Mapping::random(tasks, tiles, &mut rng);
        for (a, b) in swaps {
            let (a, b) = (a % tiles, b % tiles);
            if a != b {
                m.apply_move(Move::Swap(a, b));
            }
            prop_assert!(m.is_valid());
        }
    }

    /// Evaluation is a pure function of the mapping.
    #[test]
    fn evaluation_is_pure(seed in 0u64..300, tasks in 4usize..14) {
        let p = random_problem(seed, tasks, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
        let (a, sa) = p.evaluate(&m);
        let (b, sb) = p.evaluate(&m);
        prop_assert_eq!(a, b);
        prop_assert_eq!(sa, sb);
    }

    /// Relabeling by symmetry: mirroring the whole mapping left-right on
    /// the mesh cannot change hop counts, so insertion losses built only
    /// from hop structure stay within the mirrored multiset.
    #[test]
    fn horizontal_mirror_preserves_worst_case_loss(
        seed in 0u64..300,
        tasks in 4usize..12,
    ) {
        let p = random_problem(seed, tasks, 0);
        let topo = p.topology();
        let (w, _) = (topo.width(), topo.height());
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
        // Mirror each task's tile: (x, y) -> (w-1-x, y).
        let mirrored: Vec<TileId> = (0..p.task_count())
            .map(|t| {
                let c = topo.coord(m.tile_of_task(t));
                topo.tile_at(w - 1 - c.x, c.y).expect("mirror stays in grid")
            })
            .collect();
        let mirrored = Mapping::from_assignment(mirrored, p.tile_count()).unwrap();
        let (a, _) = p.evaluate(&m);
        let (b, _) = p.evaluate(&mirrored);
        // Hop counts are mirror-invariant; router-internal losses are
        // direction-dependent (W→E ≠ E→W by a few hundredths of a dB),
        // so allow a small tolerance.
        prop_assert!(
            (a.worst_case_il.0 - b.worst_case_il.0).abs() < 0.2,
            "mirror changed worst-case loss too much: {} vs {}",
            a.worst_case_il,
            b.worst_case_il
        );
    }
}
