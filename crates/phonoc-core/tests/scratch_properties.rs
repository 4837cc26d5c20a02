//! Property tests for the allocation-free evaluation pipeline:
//!
//! * [`Evaluator::evaluate_into`] on a **reused** scratch, the SNR
//!   cursor seat ([`Evaluator::init_state`]) built on its pass, and the
//!   path-table loss fold ([`Evaluator::worst_case_il`]) are
//!   bit-identical to the allocating wrappers and the independent
//!   reference pass on random mappings and random activity masks —
//!   mesh, torus (wrap links), ring (ring routing) and an edgeless CG;
//! * the bounded full pass ([`Evaluator::evaluate_bounded`]) rejects a
//!   mapping exactly when its worst-case SNR is no better than the
//!   threshold, and otherwise bit-matches [`Evaluator::evaluate_into`];
//!   its answer is the same on a fresh scratch, one warmed on the same
//!   problem and one holding a larger problem's stopping edges;
//! * bound-then-verify SNR peeks ([`Evaluator::evaluate_delta_bounded`])
//!   are admissible — a rejection's bound really bounds the exact score
//!   — and, like full-routed improving peeks, never change which move a
//!   greedy R-PBLA step selects compared to exact peeks (PIP + VOPD,
//!   both objectives).

use phonoc_apps::{CgBuilder, CommunicationGraph};
use phonoc_core::{
    BoundedDelta, BoundedLossDelta, DeltaScratch, EvalScratch, Evaluator, Mapping, MappingProblem,
    Move, MoveEval, Objective, OptContext, PeekRoute, PeekStrategy,
};
use phonoc_phys::{Db, Length, PhysicalParameters};
use phonoc_route::{RingRouting, RoutingAlgorithm, XyRouting};
use phonoc_router::crux::crux_router;
use phonoc_topo::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn problem_on(
    cg: CommunicationGraph,
    topology: Topology,
    routing: Box<dyn RoutingAlgorithm>,
    objective: Objective,
) -> MappingProblem {
    MappingProblem::new(
        cg,
        topology,
        crux_router(),
        routing,
        PhysicalParameters::default(),
        objective,
    )
    .unwrap()
}

fn problem(app: &str, w: usize, h: usize, objective: Objective) -> MappingProblem {
    let cg = match app {
        "pip" => phonoc_apps::benchmarks::pip(),
        "vopd" => phonoc_apps::benchmarks::vopd(),
        other => panic!("unknown app {other}"),
    };
    let mesh = Topology::mesh(w, h, Length::from_mm(2.5));
    problem_on(cg, mesh, Box::new(XyRouting), objective)
}

/// Six tasks and no communications: the seat's `edges == 0` path. Seat
/// test only — the evaluator short-circuits every move on it, which the
/// bounded-peek test's neutral-move check does not expect.
fn edgeless_problem() -> MappingProblem {
    let cg = CgBuilder::new("edgeless")
        .tasks(["a", "b", "c", "d", "e", "f"])
        .build()
        .unwrap();
    let mesh = Topology::mesh(3, 3, Length::from_mm(2.5));
    problem_on(
        cg,
        mesh,
        Box::new(XyRouting),
        Objective::MaximizeWorstCaseSnr,
    )
}

fn instances() -> Vec<MappingProblem> {
    let pitch = Length::from_mm(2.5);
    let mut out = Vec::new();
    for objective in [
        Objective::MinimizeWorstCaseLoss,
        Objective::MaximizeWorstCaseSnr,
        // One objective from each cross-layer power family: the loss
        // delta (power) and the SNR machinery (margin) both run
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
        out.push(problem_on(
            phonoc_apps::benchmarks::vopd(),
            Topology::torus(4, 4, pitch),
            Box::new(XyRouting),
            objective,
        ));
        out.push(problem_on(
            phonoc_apps::benchmarks::pip(),
            Topology::ring(9, pitch),
            Box::new(RingRouting),
            objective,
        ));
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
    for p in instances().into_iter().chain([edgeless_problem()]) {
        let ev: &Evaluator = p.evaluator();
        let mut rng = StdRng::seed_from_u64(0x5C4A7C4);
        for round in 0..30 {
            let mapping = Mapping::random(p.task_count(), p.tile_count(), &mut rng);

            // All-active: compare against the *independent* reference
            // implementation (the original allocating pass), the public
            // wrapper, and the SNR cursor seat laid out from this pass
            // (an edgeless CG must seat at the SNR ceiling).
            let summary = ev.evaluate_into(&mapping, None, &mut scratch);
            let reference = ev.evaluate_reference(&mapping, None);
            assert_eq!(scratch.to_metrics(), reference, "{p:?} round {round}");
            assert_eq!(summary.worst_case_il, reference.worst_case_il);
            assert_eq!(summary.worst_case_snr, reference.worst_case_snr);
            // The path-table loss fold loss-family evaluations score.
            assert_eq!(
                ev.worst_case_il(&mapping).0.to_bits(),
                summary.worst_case_il.0.to_bits(),
                "{p:?} round {round}"
            );
            assert_eq!(ev.evaluate(&mapping), reference, "{p:?} round {round}");
            let state = ev.init_state(&mapping);
            assert_eq!(state.to_metrics(), reference, "{p:?} round {round} (state)");
            if ev.edge_count() == 0 {
                assert_eq!(state.worst_case_snr(), ev.snr_ceiling(), "{p:?}");
            }

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

/// One ulp up (`+1`) or down (`-1`) from a finite `x`.
fn ulp_step(x: f64, dir: i8) -> f64 {
    if dir > 0 {
        x.next_up()
    } else {
        x.next_down()
    }
}

#[test]
fn bounded_full_pass_rejects_exactly_the_mappings_that_cannot_beat_the_threshold() {
    let objectives = [
        Objective::MaximizeWorstCaseSnr,
        Objective::by_name("margin").unwrap(),
        Objective::by_name("margin-pam4").unwrap(),
    ];
    let mut scratch = EvalScratch::default();
    let mut exact_scratch = EvalScratch::default();
    let (mut rejected, mut rejected_at_score) = (0usize, 0usize);
    // One problem per cell (mesh, torus, ring): the pass does not
    // depend on the objective, the thresholds below do.
    for p in instances()
        .into_iter()
        .filter(|p| p.objective() == Objective::MaximizeWorstCaseSnr)
    {
        let ev = p.evaluator();
        let ceiling = ev.snr_ceiling();
        let mut rng = StdRng::seed_from_u64(0xB0F1);
        for round in 0..40 {
            let mapping = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
            let exact = ev.evaluate_into(&mapping, None, &mut exact_scratch);
            let exact_metrics = exact_scratch.to_metrics();
            let worst = exact.worst_case_snr;
            for objective in objectives {
                // Thresholds an engine derives from a score (the exact
                // score itself, one ulp either side, the ceiling's
                // score, random scores nearby), plus raw extremes.
                let score = objective.score_worst_snr(worst);
                let mut scores = vec![
                    score,
                    ulp_step(score, 1),
                    ulp_step(score, -1),
                    objective.score_worst_snr(ceiling),
                ];
                scores.extend((0..4).map(|_| score + rng.gen_range(-10.0..10.0)));
                let thresholds = scores
                    .iter()
                    .map(|&s| (Some(s), objective.threshold_for_score(s)))
                    .chain([
                        (None, Db(f64::NEG_INFINITY)),
                        (None, ceiling),
                        (None, worst),
                        (None, Db(ulp_step(worst.0, 1))),
                        (None, Db(ulp_step(worst.0, -1))),
                    ]);
                for (from_score, t) in thresholds {
                    let label = format!("{p:?} round {round} {objective} at {t:?}");
                    match ev.evaluate_bounded(&mapping, t, &mut scratch) {
                        None => {
                            rejected += 1;
                            assert!(worst <= t, "{label}: rejected a mapping at {worst:?}");
                            if let Some(s) = from_score {
                                assert!(objective.score_worst_snr(worst) <= s, "{label}");
                                rejected_at_score += usize::from(s == score);
                            }
                        }
                        Some(summary) => {
                            assert_eq!(
                                summary.worst_case_il.0.to_bits(),
                                exact.worst_case_il.0.to_bits()
                            );
                            assert_eq!(summary.worst_case_snr.0.to_bits(), worst.0.to_bits());
                            assert_eq!(scratch.to_metrics(), exact_metrics, "{label}");
                            // A noisy worst edge always trips the
                            // cutoff once its last update lands.
                            assert!(
                                !(worst <= t && worst < ceiling),
                                "{label}: kept a mapping at {worst:?}"
                            );
                        }
                    }
                }
            }
        }
    }
    // Non-vacuity: rejections happen, including at the exact score (the
    // boundary where `<=` must fire).
    assert!(
        rejected > 0 && rejected_at_score > 0,
        "{rejected} / {rejected_at_score}"
    );
}

/// Random search on `p` for `draws` draws against the running
/// incumbent, on `scratch`: leaves the edges that stopped its bounded
/// passes on the scratch, as a real run would.
fn warm_up(p: &MappingProblem, scratch: &mut EvalScratch, draws: usize, rng: &mut StdRng) {
    let ev = p.evaluator();
    let mut incumbent = Db(f64::NEG_INFINITY);
    for _ in 0..draws {
        let m = Mapping::random(p.task_count(), p.tile_count(), rng);
        if let Some(s) = ev.evaluate_bounded(&m, incumbent, scratch) {
            incumbent = Db(incumbent.0.max(s.worst_case_snr.0));
        }
    }
}

#[test]
fn bounded_full_pass_does_not_depend_on_what_the_scratch_saw() {
    // The victim-first probe tests the edges that stopped earlier passes
    // on the same scratch. Which edges those are may change how early a
    // pass stops, never its answer: a fresh scratch, one warmed on the
    // same problem and one holding stoppers from a larger problem (edge
    // indices past this problem's count among them) must agree.
    let larger = problem_on(
        phonoc_apps::benchmarks::dvopd(),
        Topology::mesh(6, 6, Length::from_mm(2.5)),
        Box::new(XyRouting),
        Objective::MaximizeWorstCaseSnr,
    );
    let (mut rejected, mut kept) = (0usize, 0usize);
    for p in instances()
        .into_iter()
        .filter(|p| p.objective() == Objective::MaximizeWorstCaseSnr)
    {
        let ev = p.evaluator();
        let mut rng = StdRng::seed_from_u64(0x57A1E);
        let (mut warm, mut stale) = (EvalScratch::default(), EvalScratch::default());
        warm_up(&p, &mut warm, 200, &mut rng);
        warm_up(&larger, &mut stale, 200, &mut rng);
        let mut exact = EvalScratch::default();
        let mut current = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
        for round in 0..120 {
            // Random draws and one-swap neighbours, the two candidate
            // streams that reach the bounded pass.
            let m = if round % 2 == 0 {
                Mapping::random(p.task_count(), p.tile_count(), &mut rng)
            } else {
                current.with_move(current.random_swap_move(&mut rng))
            };
            let worst = ev.evaluate_into(&m, None, &mut exact).worst_case_snr;
            let threshold = Db(worst.0 + rng.gen_range(-3.0..3.0));
            let mut fresh = EvalScratch::default();
            let label = format!("{p:?} round {round} at {threshold:?}");
            let want = ev.evaluate_bounded(&m, threshold, &mut fresh);
            for scratch in [&mut warm, &mut stale] {
                let got = ev.evaluate_bounded(&m, threshold, scratch);
                assert_eq!(got.is_some(), want.is_some(), "{label}");
                if let (Some(got), Some(want)) = (got, want) {
                    assert_eq!(
                        got.worst_case_il.0.to_bits(),
                        want.worst_case_il.0.to_bits()
                    );
                    assert_eq!(
                        got.worst_case_snr.0.to_bits(),
                        want.worst_case_snr.0.to_bits()
                    );
                    assert_eq!(scratch.to_metrics(), fresh.to_metrics(), "{label}");
                }
            }
            rejected += usize::from(want.is_none());
            kept += usize::from(want.is_some());
            current = m;
        }
    }
    assert!(rejected > 0 && kept > 0, "{rejected} rejected, {kept} kept");
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
    // Full-routed improving peeks stop their pass once a move cannot
    // beat the cursor: pinning the full route checks those bounds too.
    // The plain loss objective takes the bound-then-verify loss peek
    // like every loss-family objective, so its rejections are counted.
    let mut full_bounds = 0usize;
    let mut loss_rejections = 0usize;
    for p in instances() {
        for strategy in [PeekStrategy::Hybrid, PeekStrategy::Full] {
            let moves = admitted_moves(p.task_count(), p.tile_count());
            // Two cursors on the same problem; budgets large enough that no
            // scan is ever truncated.
            let mut exact_ctx = OptContext::new(&p, 10_000_000, 0);
            let mut bounded_ctx = OptContext::new(&p, 10_000_000, 0);
            exact_ctx.set_peek_strategy(strategy);
            bounded_ctx.set_peek_strategy(strategy);
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
                        if !b.is_exact() {
                            full_bounds += usize::from(b.route() == PeekRoute::Full);
                            loss_rejections += usize::from(
                                p.objective() == Objective::MinimizeWorstCaseLoss
                                    && b.route() == PeekRoute::BoundedRejected,
                            );
                            let bound = b.score();
                            assert!(
                                e.score() <= bound && bound <= current,
                                "{p:?} round {round}: bound {bound} vs exact {} at {current}",
                                e.score()
                            );
                        } else {
                            assert_eq!(e.score(), b.score(), "{p:?} round {round}");
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
    assert!(
        full_bounds > 0,
        "no full-routed improving peek stopped early"
    );
    assert!(
        loss_rejections > 0,
        "no improving peek under the loss objective was bound-rejected"
    );
}
