//! Property tests for the allocation-free evaluation pipeline:
//!
//! * [`Evaluator::evaluate_into`] on a **reused** scratch is
//!   bit-identical to the allocating wrappers (and to the independent
//!   full pass inside [`Evaluator::init_state`]) on random mappings and
//!   random activity masks;
//! * bound-then-verify SNR peeks ([`Evaluator::evaluate_delta_bounded`])
//!   are admissible — a rejection's bound really bounds the exact score
//!   — and never change which move a greedy R-PBLA step selects
//!   compared to exact peeks (PIP + VOPD, both objectives).

use phonoc_core::{
    BoundedDelta, BoundedLossDelta, DeltaScratch, EvalScratch, Evaluator, Mapping, MappingProblem,
    Move, MoveEval, Objective, OptContext,
};
use phonoc_phys::{Db, Length, PhysicalParameters};
use phonoc_route::XyRouting;
use phonoc_router::crux::crux_router;
use phonoc_topo::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn problem(app: &str, w: usize, h: usize, objective: Objective) -> MappingProblem {
    let cg = match app {
        "pip" => phonoc_apps::benchmarks::pip(),
        "vopd" => phonoc_apps::benchmarks::vopd(),
        other => panic!("unknown app {other}"),
    };
    MappingProblem::new(
        cg,
        Topology::mesh(w, h, Length::from_mm(2.5)),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        objective,
    )
    .unwrap()
}

fn instances() -> Vec<MappingProblem> {
    let mut out = Vec::new();
    for objective in [
        Objective::MinimizeWorstCaseLoss,
        Objective::MaximizeWorstCaseSnr,
        // One objective from each cross-layer power family: the loss
        // fast path (power) and the SNR machinery (margin) both run
        // through every bounded/greedy invariant below.
        Objective::MinimizeLaserPower {
            modulation: phonoc_phys::Modulation::Ook,
        },
        Objective::MaximizeSnrMargin {
            modulation: phonoc_phys::Modulation::Pam4,
        },
    ] {
        out.push(problem("pip", 3, 3, objective));
        out.push(problem("pip", 4, 4, objective));
        out.push(problem("vopd", 4, 4, objective));
    }
    out
}

/// The R-PBLA admitted move list: every position pair with at least one
/// task side (mirrors `phonoc_opt::neighborhood::admitted_moves`).
fn admitted_moves(tasks: usize, tiles: usize) -> Vec<Move> {
    let mut moves = Vec::new();
    for a in 0..tasks.min(tiles) {
        for b in (a + 1)..tiles {
            moves.push(Move::Swap(a, b));
        }
    }
    moves
}

#[test]
fn evaluate_into_bit_matches_wrappers_on_random_mappings_and_masks() {
    // One scratch reused across *every* instance, mapping and mask —
    // stale buffer contents from a previous (even differently-shaped)
    // evaluation must never leak into the next result.
    let mut scratch = EvalScratch::default();
    for p in instances() {
        let ev: &Evaluator = p.evaluator();
        let mut rng = StdRng::seed_from_u64(0x5C4A7C4);
        for round in 0..30 {
            let mapping = Mapping::random(p.task_count(), p.tile_count(), &mut rng);

            // All-active: compare against the *independent* reference
            // implementation (the original allocating pass), the public
            // wrapper, and the delta path's init_state full pass.
            let summary = ev.evaluate_into(&mapping, None, &mut scratch);
            let reference = ev.evaluate_reference(&mapping, None);
            assert_eq!(scratch.to_metrics(), reference, "{p:?} round {round}");
            assert_eq!(summary.worst_case_il, reference.worst_case_il);
            assert_eq!(summary.worst_case_snr, reference.worst_case_snr);
            assert_eq!(ev.evaluate(&mapping), reference, "{p:?} round {round}");
            let state = ev.init_state(&mapping);
            assert_eq!(state.to_metrics(), reference, "{p:?} round {round} (state)");

            // Random activity masks, including the degenerate extremes.
            for mask_round in 0..4 {
                let mask: Vec<bool> = match mask_round {
                    0 => vec![true; ev.edge_count()],
                    1 => vec![false; ev.edge_count()],
                    _ => (0..ev.edge_count()).map(|_| rng.gen_bool(0.5)).collect(),
                };
                let summary = ev.evaluate_into(&mapping, Some(&mask), &mut scratch);
                let reference = ev.evaluate_reference(&mapping, Some(&mask));
                assert_eq!(
                    scratch.to_metrics(),
                    reference,
                    "{p:?} round {round} mask {mask_round}"
                );
                assert_eq!(summary.worst_case_il, reference.worst_case_il);
                assert_eq!(summary.worst_case_snr, reference.worst_case_snr);
                assert_eq!(ev.evaluate_subset(&mapping, Some(&mask)), reference);
            }
        }
    }
}

#[test]
fn bounded_delta_is_admissible_and_exact_when_it_completes() {
    for p in instances() {
        let ev = p.evaluator();
        let mut rng = StdRng::seed_from_u64(0xB0D3D);
        let mut scratch = DeltaScratch::default();
        for _ in 0..20 {
            let mapping = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
            let state = ev.init_state(&mapping);
            for _ in 0..10 {
                let mv = mapping.random_swap_move(&mut rng);
                let exact = ev.evaluate_delta(&state, &mapping, mv);
                // Thresholds around the interesting region: the current
                // worst case, values clearly below/above it, and the
                // exact answer itself (boundary: `<=` must reject).
                for threshold in [
                    state.worst_case_snr(),
                    Db(state.worst_case_snr().0 - 5.0),
                    Db(state.worst_case_snr().0 + 5.0),
                    exact.new_worst_snr,
                ] {
                    match ev.evaluate_delta_bounded(&state, &mapping, mv, &mut scratch, threshold) {
                        BoundedDelta::Exact(d) => {
                            assert_eq!(d, exact, "{p:?}: {mv:?} at {threshold}");
                            // Exact results either beat the threshold or
                            // came from the neutral-move short-circuit,
                            // where the exact delta is free anyway.
                            assert!(
                                d.new_worst_snr.0 > threshold.0 || mv.is_neutral(&mapping),
                                "{p:?}: exact result must beat the threshold"
                            );
                        }
                        BoundedDelta::Rejected { bound, cost } => {
                            assert!(
                                exact.new_worst_snr.0 <= bound.0,
                                "{p:?}: {mv:?} bound {bound} below exact {}",
                                exact.new_worst_snr
                            );
                            assert!(
                                bound.0 <= threshold.0,
                                "{p:?}: {mv:?} rejected with bound {bound} above {threshold}"
                            );
                            assert!(cost <= exact.affected_edges);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn bounded_loss_delta_is_admissible_and_exact_when_it_completes() {
    for p in instances() {
        let ev = p.evaluator();
        let mut rng = StdRng::seed_from_u64(0xB1055);
        let mut scratch = DeltaScratch::default();
        for _ in 0..20 {
            let mapping = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
            let state = ev.init_state(&mapping);
            for _ in 0..10 {
                let mv = mapping.random_swap_move(&mut rng);
                let (exact_il, exact_moved) =
                    ev.evaluate_delta_loss(&state, &mapping, mv, &mut scratch);
                // Thresholds around the interesting region, including
                // the exact answer itself (boundary: `<=` must reject).
                for threshold in [
                    state.worst_case_il(),
                    Db(state.worst_case_il().0 - 5.0),
                    Db(state.worst_case_il().0 + 5.0),
                    exact_il,
                ] {
                    match ev.evaluate_delta_loss_bounded(
                        &state,
                        &mapping,
                        mv,
                        &mut scratch,
                        threshold,
                    ) {
                        BoundedLossDelta::Exact {
                            new_worst_il,
                            moved_edges,
                        } => {
                            // The fall-through is bit-identical to the
                            // plain loss fast path. (Unlike the SNR
                            // peek, an exact result may still land at
                            // or below the threshold: the bound only
                            // screens the *moved* edges, and an exact
                            // non-improving score is as usable to the
                            // scan as a rejection.)
                            assert_eq!(new_worst_il, exact_il, "{p:?}: {mv:?} at {threshold}");
                            assert_eq!(moved_edges, exact_moved);
                        }
                        BoundedLossDelta::Rejected { bound, cost } => {
                            // Admissible: the exact score can never beat
                            // the bound the rejection reported.
                            assert!(
                                exact_il.0 <= bound.0,
                                "{p:?}: {mv:?} bound {bound} below exact {exact_il}"
                            );
                            assert!(
                                bound.0 <= threshold.0,
                                "{p:?}: {mv:?} rejected with bound {bound} above {threshold}"
                            );
                            // A rejection only charges the marking pass.
                            assert!(cost <= exact_moved.max(1));
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn bounded_loss_delta_batch_matches_sequential() {
    for p in instances() {
        let ev = p.evaluator();
        let mut rng = StdRng::seed_from_u64(0xBA7C5);
        let mut scratch = DeltaScratch::default();
        let mapping = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
        let state = ev.init_state(&mapping);
        let threshold = state.worst_case_il();
        let moves: Vec<Move> = (0..40)
            .map(|_| mapping.random_swap_move(&mut rng))
            .collect();
        let batch = ev.evaluate_delta_loss_bounded_batch(&state, &mapping, &moves, threshold);
        assert_eq!(batch.len(), moves.len());
        for (&mv, got) in moves.iter().zip(&batch) {
            let want =
                ev.evaluate_delta_loss_bounded(&state, &mapping, mv, &mut scratch, threshold);
            assert_eq!(*got, want, "{p:?}: {mv:?}");
        }
    }
}

#[test]
fn bounded_delta_batch_matches_sequential() {
    // The parallel batch is a public entry point in its own right (the
    // engine's scan runs its own scorer per worker), so its
    // input-ordered equivalence is pinned here.
    for p in instances() {
        let ev = p.evaluator();
        let mut rng = StdRng::seed_from_u64(0xBA7C4);
        let mut scratch = DeltaScratch::default();
        let mapping = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
        let state = ev.init_state(&mapping);
        let threshold = state.worst_case_snr();
        let moves: Vec<Move> = (0..40)
            .map(|_| mapping.random_swap_move(&mut rng))
            .collect();
        let batch = ev.evaluate_delta_bounded_batch(&state, &mapping, &moves, threshold);
        assert_eq!(batch.len(), moves.len());
        for (&mv, got) in moves.iter().zip(&batch) {
            let want = ev.evaluate_delta_bounded(&state, &mapping, mv, &mut scratch, threshold);
            assert_eq!(*got, want, "{p:?}: {mv:?}");
        }
    }
}

/// First maximum-score entry, the R-PBLA steepest-descent selection.
fn best_of(evals: &[MoveEval]) -> Option<&MoveEval> {
    let mut best: Option<&MoveEval> = None;
    for ev in evals {
        if best.is_none_or(|b| ev.score() > b.score()) {
            best = Some(ev);
        }
    }
    best
}

#[test]
fn bounded_peeks_never_change_greedy_rpbla_selection() {
    for p in instances() {
        let moves = admitted_moves(p.task_count(), p.tile_count());
        // Two cursors on the same problem; budgets large enough that no
        // scan is ever truncated.
        let mut exact_ctx = OptContext::new(&p, 10_000_000, 0);
        let mut bounded_ctx = OptContext::new(&p, 10_000_000, 0);
        let mut rng = StdRng::seed_from_u64(0x9B1A);
        for round in 0..8 {
            let start = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
            exact_ctx.set_current(start.clone()).unwrap();
            bounded_ctx.set_current(start).unwrap();

            // Full greedy descent: at every step both scans must agree
            // on whether an improving move exists and, if so, select the
            // same move with the same exact score.
            for step in 0.. {
                let current = exact_ctx.current_score().unwrap();
                assert_eq!(bounded_ctx.current_score().unwrap(), current);
                let exact_scan = exact_ctx.peek_moves(&moves);
                let bounded_scan = bounded_ctx.peek_moves_improving(&moves);
                assert_eq!(exact_scan.len(), bounded_scan.len());

                // Every exact entry of the improving scan must agree
                // with the exact scan; every bounded entry must bound it.
                for (e, b) in exact_scan.iter().zip(&bounded_scan) {
                    assert_eq!(e.mv(), b.mv());
                    match b {
                        MoveEval::Bounded { bound, .. } => {
                            assert!(
                                e.score() <= bound.0 && bound.0 <= current,
                                "{p:?} round {round}: bound {bound} vs exact {} at {current}",
                                e.score()
                            );
                        }
                        _ => assert_eq!(e.score(), b.score(), "{p:?} round {round}"),
                    }
                }

                let exact_best = best_of(&exact_scan).expect("nonempty scan");
                let bounded_best = best_of(&bounded_scan).expect("nonempty scan");
                if exact_best.score() > current {
                    assert!(
                        bounded_best.is_exact(),
                        "{p:?} round {round} step {step}: improving move came back bounded"
                    );
                    assert_eq!(exact_best.mv(), bounded_best.mv());
                    assert_eq!(exact_best.score(), bounded_best.score());
                    let committed = *bounded_best;
                    bounded_ctx.apply_scored_move(&committed);
                    let committed_exact = *exact_best;
                    exact_ctx.apply_scored_move(&committed_exact);
                    assert_eq!(
                        exact_ctx.current_mapping().unwrap(),
                        bounded_ctx.current_mapping().unwrap()
                    );
                } else {
                    // Local optimum under both scans: no improving entry
                    // may exist in either.
                    assert!(
                        bounded_best.score() <= current,
                        "{p:?} round {round}: bounded scan invented an improvement"
                    );
                    break;
                }
            }
        }
    }
}
