//! Property tests for the adaptive (hybrid) SNR peek strategy: routing
//! a peek through the full-scratch path, the exact delta, or the
//! bound-then-verify peek is an implementation detail that must never
//! leak into search behaviour.
//!
//! * every exact peek score is **bit-identical** under
//!   [`PeekStrategy::Delta`], [`PeekStrategy::Full`] and
//!   [`PeekStrategy::Hybrid`], across the scenario families (including
//!   12×12 meshes);
//! * greedy descents (steepest improvement over an admitted list —
//!   the R-PBLA step) select the same move sequence, commit the same
//!   mappings and end on the same committed score under all three
//!   strategies, and that score matches an independent full
//!   evaluation;
//! * the hybrid's budget books stay honest: every peek is counted as
//!   exactly one full *or* one delta evaluation, matching its route;
//! * the sequential peeks and the batch scans are one path: a
//!   `peek_move`/`peek_move_improving` is indistinguishable from the
//!   one-element `peek_moves`/`peek_moves_improving` — same `MoveEval`,
//!   ledger, `RunStats` and trace events — under every objective and
//!   every strategy, up to and across budget exhaustion;
//! * a hybrid cursor's route is the rule on its committed mapping after
//!   every commit, across flips both ways, and a strategy change
//!   reroutes a seated cursor exactly as seating it under the new
//!   strategy would.

use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonoc_core::{
    Mapping, MappingProblem, Move, MoveEval, Objective, OptContext, PeekRoute, PeekStrategy,
    RunTrace,
};
use phonoc_phys::{Length, PhysicalParameters};
use phonoc_route::XyRouting;
use phonoc_router::crux::crux_router;
use phonoc_topo::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The swept instances: every family small, plus 6×6 and 12×12 cells so
/// the router sees sparse-at-scale shapes where the delta wins.
fn scenario_instances() -> Vec<(ScenarioSpec, MappingProblem)> {
    let mut specs = Vec::new();
    for family in ScenarioFamily::ALL {
        specs.push(ScenarioSpec {
            family,
            mesh: 4,
            density_pct: 100,
            seed: 1,
        });
    }
    for family in [
        ScenarioFamily::Random,
        ScenarioFamily::Hotspot,
        ScenarioFamily::Clustered,
    ] {
        specs.push(ScenarioSpec {
            family,
            mesh: 6,
            density_pct: 200,
            seed: 2,
        });
    }
    for family in [ScenarioFamily::Pipeline, ScenarioFamily::Hotspot] {
        specs.push(ScenarioSpec {
            family,
            mesh: 12,
            density_pct: 100,
            seed: 1,
        });
    }
    specs
        .into_iter()
        .map(|spec| {
            let problem = MappingProblem::new(
                spec.build(),
                Topology::mesh(spec.mesh, spec.mesh, Length::from_mm(2.5)),
                crux_router(),
                Box::new(XyRouting),
                PhysicalParameters::default(),
                Objective::MaximizeWorstCaseSnr,
            )
            .expect("scenario problems are valid");
            (spec, problem)
        })
        .collect()
}

const STRATEGIES: [PeekStrategy; 3] = [
    PeekStrategy::Delta,
    PeekStrategy::Full,
    PeekStrategy::Hybrid,
];

/// A deterministic admitted-list subset: big meshes would make full
/// `O(n²)` scans the dominant test cost without adding coverage.
fn admitted_subset(tasks: usize, tiles: usize, cap: usize) -> Vec<Move> {
    let mut moves = Vec::new();
    for a in 0..tasks.min(tiles) {
        for b in (a + 1)..tiles {
            moves.push(Move::Swap(a, b));
        }
    }
    if moves.len() > cap {
        // Deterministic thinning: keep every k-th move.
        let k = moves.len().div_ceil(cap);
        moves = moves.into_iter().step_by(k).collect();
    }
    moves
}

/// First maximum-score entry (the steepest-descent selection).
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
fn exact_peeks_are_bit_identical_under_every_strategy() {
    for (spec, p) in scenario_instances() {
        let mut rng = StdRng::seed_from_u64(0x4859);
        let start = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
        let moves: Vec<Move> = (0..40).map(|_| start.random_swap_move(&mut rng)).collect();

        let mut contexts: Vec<OptContext<'_>> = STRATEGIES
            .iter()
            .map(|&s| {
                let mut ctx = OptContext::new(&p, 10_000_000, 0);
                ctx.set_peek_strategy(s);
                ctx.set_current(start.clone()).expect("budget is huge");
                ctx
            })
            .collect();

        for &mv in &moves {
            let evals: Vec<MoveEval> = contexts
                .iter_mut()
                .map(|ctx| ctx.peek_move(mv).expect("budget is huge"))
                .collect();
            // `peek_move` is exact under every strategy; scores match
            // to the bit, and the reference (Delta) score matches an
            // independent from-scratch evaluation.
            for (ev, strategy) in evals.iter().zip(STRATEGIES) {
                assert!(ev.is_exact(), "{}: {strategy:?}", spec.id());
                assert_eq!(
                    ev.score(),
                    evals[0].score(),
                    "{}: {strategy:?} diverged on {mv:?}",
                    spec.id()
                );
                assert_eq!(ev.mv(), mv);
            }
            let (_, full) = p.evaluate(&start.with_move(mv));
            assert_eq!(evals[0].score(), full, "{}: {mv:?}", spec.id());
        }
    }
}

#[test]
fn greedy_descent_is_strategy_invariant_and_commits_true_scores() {
    for (spec, p) in scenario_instances() {
        let moves = admitted_subset(p.task_count(), p.tile_count(), 400);
        let mut rng = StdRng::seed_from_u64(0xD15C);
        let start = Mapping::random(p.task_count(), p.tile_count(), &mut rng);

        let mut contexts: Vec<OptContext<'_>> = STRATEGIES
            .iter()
            .map(|&s| {
                let mut ctx = OptContext::new(&p, 10_000_000, 0);
                ctx.set_peek_strategy(s);
                ctx.set_current(start.clone()).expect("budget is huge");
                ctx
            })
            .collect();

        for step in 0..4 {
            // All three scans must agree on the steepest improving move
            // (or on the absence of one).
            let scans: Vec<Vec<MoveEval>> = contexts
                .iter_mut()
                .map(|ctx| ctx.peek_moves_improving(&moves))
                .collect();
            let current = contexts[0].current_score().expect("cursor set");
            let reference = best_of(&scans[0]).expect("nonempty scan");
            let improving = reference.score() > current;
            for (scan, strategy) in scans.iter().zip(STRATEGIES) {
                assert_eq!(scan.len(), moves.len(), "{}: truncated scan", spec.id());
                let best = best_of(scan).expect("nonempty scan");
                if improving {
                    assert_eq!(
                        best.mv(),
                        reference.mv(),
                        "{}: {strategy:?} selected a different move at step {step}",
                        spec.id()
                    );
                    assert_eq!(best.score(), reference.score(), "{}", spec.id());
                    assert!(best.is_exact(), "{}: improving move not exact", spec.id());
                } else {
                    assert!(
                        best.score() <= current,
                        "{}: {strategy:?} invented an improvement",
                        spec.id()
                    );
                }
            }
            if !improving {
                break;
            }
            for (ctx, scan) in contexts.iter_mut().zip(&scans) {
                let best = *best_of(scan).expect("nonempty scan");
                ctx.apply_scored_move(&best);
            }
            let mapping = contexts[0].current_mapping().unwrap().clone();
            let score = contexts[0].current_score().unwrap();
            for ctx in &contexts {
                assert_eq!(ctx.current_mapping().unwrap(), &mapping, "{}", spec.id());
                assert_eq!(ctx.current_score().unwrap(), score, "{}", spec.id());
            }
            // The committed score is the true score: an independent full
            // evaluation of the committed mapping agrees to the bit.
            let (_, full) = p.evaluate(&mapping);
            assert_eq!(score, full, "{}: committed score drifted", spec.id());
        }
    }
}

/// Cross-layer objectives over a small scenario slice: every member of
/// [`Objective::ALL`] beyond the two plain paper objectives.
fn power_family_instances() -> Vec<(Objective, MappingProblem)> {
    let mut out = Vec::new();
    for objective in Objective::ALL {
        if objective.modulation().is_none() {
            continue;
        }
        for (family, mesh) in [(ScenarioFamily::Random, 4), (ScenarioFamily::Hotspot, 6)] {
            let spec = ScenarioSpec {
                family,
                mesh,
                density_pct: 100,
                seed: 1,
            };
            let problem = MappingProblem::new(
                spec.build(),
                Topology::mesh(spec.mesh, spec.mesh, Length::from_mm(2.5)),
                crux_router(),
                Box::new(XyRouting),
                PhysicalParameters::default(),
                objective,
            )
            .expect("scenario problems are valid");
            out.push((objective, problem));
        }
    }
    out
}

#[test]
fn power_family_peeks_are_bit_identical_under_every_strategy() {
    for (objective, p) in power_family_instances() {
        let mut rng = StdRng::seed_from_u64(0x90E4);
        let start = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
        let moves: Vec<Move> = (0..30).map(|_| start.random_swap_move(&mut rng)).collect();

        let mut contexts: Vec<OptContext<'_>> = STRATEGIES
            .iter()
            .map(|&s| {
                let mut ctx = OptContext::new(&p, 10_000_000, 0);
                ctx.set_peek_strategy(s);
                ctx.set_current(start.clone()).expect("budget is huge");
                ctx
            })
            .collect();

        for &mv in &moves {
            let evals: Vec<MoveEval> = contexts
                .iter_mut()
                .map(|ctx| ctx.peek_move(mv).expect("budget is huge"))
                .collect();
            for (ev, strategy) in evals.iter().zip(STRATEGIES) {
                assert!(ev.is_exact(), "{objective}: {strategy:?}");
                assert_eq!(
                    ev.score(),
                    evals[0].score(),
                    "{objective}: {strategy:?} diverged on {mv:?}"
                );
            }
            // The peek score is the objective applied to a full
            // independent evaluation, to the bit — the delta/bounded/
            // hybrid routes all collapse onto the same number.
            let metrics = p.evaluator().evaluate(&start.with_move(mv));
            assert_eq!(
                evals[0].score(),
                objective.score(&metrics),
                "{objective}: {mv:?}"
            );
        }
    }
}

#[test]
fn power_family_greedy_descent_is_strategy_invariant() {
    for (objective, p) in power_family_instances() {
        let moves = admitted_subset(p.task_count(), p.tile_count(), 300);
        let mut rng = StdRng::seed_from_u64(0x90E5);
        let start = Mapping::random(p.task_count(), p.tile_count(), &mut rng);

        let mut contexts: Vec<OptContext<'_>> = STRATEGIES
            .iter()
            .map(|&s| {
                let mut ctx = OptContext::new(&p, 10_000_000, 0);
                ctx.set_peek_strategy(s);
                ctx.set_current(start.clone()).expect("budget is huge");
                ctx
            })
            .collect();

        for step in 0..3 {
            let scans: Vec<Vec<MoveEval>> = contexts
                .iter_mut()
                .map(|ctx| ctx.peek_moves_improving(&moves))
                .collect();
            let current = contexts[0].current_score().expect("cursor set");
            let reference = best_of(&scans[0]).expect("nonempty scan");
            let improving = reference.score() > current;
            for (scan, strategy) in scans.iter().zip(STRATEGIES) {
                let best = best_of(scan).expect("nonempty scan");
                if improving {
                    assert_eq!(
                        best.mv(),
                        reference.mv(),
                        "{objective}: {strategy:?} selected a different move at step {step}"
                    );
                    assert_eq!(best.score(), reference.score(), "{objective}");
                    assert!(best.is_exact(), "{objective}: improving move not exact");
                } else {
                    assert!(
                        best.score() <= current,
                        "{objective}: {strategy:?} invented an improvement"
                    );
                }
            }
            if !improving {
                break;
            }
            for (ctx, scan) in contexts.iter_mut().zip(&scans) {
                let best = *best_of(scan).expect("nonempty scan");
                ctx.apply_scored_move(&best);
            }
            // Committed scores are true objective scores.
            let mapping = contexts[0].current_mapping().unwrap().clone();
            let score = contexts[0].current_score().unwrap();
            for ctx in &contexts {
                assert_eq!(ctx.current_mapping().unwrap(), &mapping, "{objective}");
                assert_eq!(ctx.current_score().unwrap(), score, "{objective}");
            }
            let metrics = p.evaluator().evaluate(&mapping);
            assert_eq!(score, objective.score(&metrics), "{objective}: drift");
        }
    }
}

#[test]
fn power_route_peeks_keep_the_budget_ledger_honest() {
    for (objective, p) in power_family_instances() {
        let mut ctx = OptContext::new(&p, 10_000_000, 3);
        ctx.set_peek_strategy(PeekStrategy::Hybrid);
        let start = ctx.random_mapping();
        ctx.set_current(start).expect("budget is huge");
        assert_eq!(ctx.stats().full_evaluations, 1, "set_current is one full");
        assert_eq!(ctx.used(), 1, "a full costs one equivalent");

        let moves = admitted_subset(p.task_count(), p.tile_count(), 100);

        // Exact scan: loss-based objectives never route to full (their
        // fast path is always cheaper); SNR-based ones may.
        let before = ctx.used();
        let scanned = ctx.peek_moves(&moves);
        let routed_full = scanned
            .iter()
            .filter(|ev| ev.route() == PeekRoute::Full)
            .count();
        if objective.is_loss_based() {
            assert_eq!(routed_full, 0, "{objective}: loss peeks routed to full");
        }
        assert_eq!(ctx.stats().full_evaluations, 1 + routed_full, "{objective}");
        assert_eq!(
            ctx.stats().delta_evaluations,
            moves.len() - routed_full,
            "{objective}"
        );
        // Work-aware accounting (in full-evaluation-equivalents): the
        // scan is never free, and no peek may cost more than a full.
        let spent = ctx.used() - before;
        assert!(spent > 0, "{objective}: peeks were free");
        assert!(spent <= moves.len(), "{objective}: peeks over-charged");

        // Improving scan: bounded rejections also charge their work —
        // one more booked delta per peek, nonzero total spend.
        let before = ctx.used();
        let deltas_before = ctx.stats().delta_evaluations;
        let improving = ctx.peek_moves_improving(&moves);
        assert_eq!(improving.len(), moves.len());
        let routed_full = improving
            .iter()
            .filter(|ev| ev.route() == PeekRoute::Full)
            .count();
        if objective.is_loss_based() {
            assert_eq!(routed_full, 0, "{objective}: loss peeks routed to full");
        }
        assert_eq!(
            ctx.stats().delta_evaluations - deltas_before,
            moves.len() - routed_full,
            "{objective}: every peek (rejections included) books one delta"
        );
        let spent = ctx.used() - before;
        assert!(spent > 0, "{objective}: rejections were free");
        assert!(spent <= moves.len(), "{objective}");
    }
}

#[test]
fn hybrid_books_every_peek_as_exactly_one_evaluation() {
    for (spec, p) in scenario_instances() {
        let mut ctx = OptContext::new(&p, 10_000_000, 3);
        ctx.set_peek_strategy(PeekStrategy::Hybrid);
        let start = ctx.random_mapping();
        ctx.set_current(start).expect("budget is huge");
        assert_eq!(ctx.stats().full_evaluations, 1, "set_current is one full");

        let moves = admitted_subset(p.task_count(), p.tile_count(), 120);
        let scanned = ctx.peek_moves(&moves);
        assert_eq!(scanned.len(), moves.len(), "{}", spec.id());
        // Every peek lands in exactly one ledger, matching its route.
        let routed_full = scanned
            .iter()
            .filter(|ev| ev.route() == PeekRoute::Full)
            .count();
        assert_eq!(
            ctx.stats().full_evaluations,
            1 + routed_full,
            "{}: full ledger",
            spec.id()
        );
        assert_eq!(
            ctx.stats().delta_evaluations,
            moves.len() - routed_full,
            "{}: delta ledger",
            spec.id()
        );
    }
}

/// Everything a peek can observably change on a context: the ledger,
/// the decision counters, the cursor and the incumbent.
fn books(ctx: &OptContext<'_>) -> (usize, usize, usize, bool, phonoc_core::RunStats) {
    (
        ctx.used(),
        ctx.stats().full_evaluations,
        ctx.stats().delta_evaluations,
        ctx.exhausted(),
        ctx.stats(),
    )
}

#[test]
fn sequential_peeks_equal_one_element_batches() {
    for objective in Objective::ALL {
        for (family, mesh) in [(ScenarioFamily::Random, 4), (ScenarioFamily::Hotspot, 6)] {
            let spec = ScenarioSpec {
                family,
                mesh,
                density_pct: 100,
                seed: 1,
            };
            let p = MappingProblem::new(
                spec.build(),
                Topology::mesh(mesh, mesh, Length::from_mm(2.5)),
                crux_router(),
                Box::new(XyRouting),
                PhysicalParameters::default(),
                objective,
            )
            .expect("scenario problems are valid");
            let mut rng = StdRng::seed_from_u64(0x5E9B);
            let start = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
            let moves: Vec<Move> = (0..400).map(|_| start.random_swap_move(&mut rng)).collect();
            for strategy in STRATEGIES {
                let label = format!("{objective}/{}/{strategy}", spec.id());
                // A small budget, so the loop also crosses exhaustion.
                let context = || {
                    let mut ctx = OptContext::new(&p, 6, 0);
                    ctx.set_trace_sink(Box::new(RunTrace::new()));
                    ctx.set_peek_strategy(strategy);
                    ctx.set_current(start.clone()).expect("budget");
                    ctx
                };
                let (mut seq, mut bat) = (context(), context());
                for (i, &mv) in moves.iter().enumerate() {
                    let improving = i % 2 == 1;
                    let one = if improving {
                        seq.peek_move_improving(mv)
                    } else {
                        seq.peek_move(mv)
                    };
                    let batch = if improving {
                        bat.peek_moves_improving(&[mv])
                    } else {
                        bat.peek_moves(&[mv])
                    };
                    assert_eq!(
                        one.into_iter().collect::<Vec<_>>(),
                        batch,
                        "{label}: {mv:?}"
                    );
                    assert_eq!(books(&seq), books(&bat), "{label}: books after {mv:?}");
                    assert_eq!(seq.drain_trace(), bat.drain_trace(), "{label}: events");
                    assert_eq!(seq.best(), bat.best(), "{label}: incumbent");
                    // Commit every improving exact peek, so later peeks
                    // run against re-routed cursors.
                    if let Some(ev) = one.filter(|ev| {
                        ev.is_exact() && ev.score() > seq.current_score().expect("cursor")
                    }) {
                        seq.apply_scored_move(&ev);
                        bat.apply_scored_move(&ev);
                    }
                }
                assert!(
                    seq.exhausted(),
                    "{label}: the loop never reached exhaustion"
                );
            }
        }
    }
}

/// Hub-band cells (6×6 and 8×8, both seeds), where random placements
/// sit on both sides of the hybrid rule's thresholds.
fn hub_band_instances() -> Vec<(ScenarioSpec, MappingProblem)> {
    let mut out = Vec::new();
    for family in [ScenarioFamily::Hotspot, ScenarioFamily::MpegLike] {
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
                out.push((spec, problem));
            }
        }
    }
    out
}

#[test]
fn hybrid_cursor_route_follows_the_rule_across_flips() {
    let (mut to_delta, mut to_full) = (0usize, 0usize);
    for (spec, p) in hub_band_instances() {
        let id = spec.id();
        let evaluator = p.evaluator();
        let mut rng = StdRng::seed_from_u64(0xF11B);
        let mut ctx = OptContext::new(&p, 10_000_000, 0);
        ctx.set_current(Mapping::random(p.task_count(), p.tile_count(), &mut rng))
            .expect("budget is huge");
        let mut last_full = None;
        // A random walk that commits every exact peek: the route must be
        // the rule's on every committed mapping.
        for step in 0..60 {
            let cursor = ctx.current_mapping().expect("cursor").clone();
            let mv = cursor.random_swap_move(&mut rng);
            let ev = if step % 2 == 0 {
                ctx.peek_move(mv).expect("budget is huge")
            } else {
                ctx.peek_move_improving(mv).expect("budget is huge")
            };
            let full = evaluator.prefers_full_peeks(&cursor);
            assert_eq!(
                ev.route() == PeekRoute::Full,
                full,
                "{id} step {step}: the peek took {:?} against the rule",
                ev.route()
            );
            match (last_full, full) {
                (Some(true), false) => to_delta += 1,
                (Some(false), true) => to_full += 1,
                _ => {}
            }
            last_full = Some(full);
            if !ev.is_exact() {
                continue;
            }
            let (_, fresh) = p.evaluate(&cursor.with_move(mv));
            assert_eq!(
                ev.score().to_bits(),
                fresh.to_bits(),
                "{id} step {step}: exact peek differs from a fresh evaluation"
            );
            ctx.apply_scored_move(&ev);
            assert_eq!(ctx.current_score(), Some(fresh), "{id} step {step}");
        }
    }
    println!("route flips: {to_delta} full->delta, {to_full} delta->full");
    assert!(to_delta >= 1, "no walk flipped a cursor from full to delta");
    assert!(to_full >= 1, "no walk flipped a cursor from delta to full");
}

#[test]
fn a_strategy_change_reroutes_the_seated_cursor() {
    for (spec, p) in scenario_instances() {
        let mut rng = StdRng::seed_from_u64(0x5E7);
        let start = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
        let moves: Vec<Move> = (0..12).map(|_| start.random_swap_move(&mut rng)).collect();
        for (from, to) in [
            (PeekStrategy::Full, PeekStrategy::Delta),
            (PeekStrategy::Delta, PeekStrategy::Full),
        ] {
            let label = format!("{} {from}->{to}", spec.id());
            let mut switched = OptContext::new(&p, 10_000_000, 0);
            switched.set_peek_strategy(from);
            switched.set_current(start.clone()).expect("budget is huge");
            switched.set_peek_strategy(to);
            let mut seated = OptContext::new(&p, 10_000_000, 0);
            seated.set_peek_strategy(to);
            seated.set_current(start.clone()).expect("budget is huge");
            for (i, &mv) in moves.iter().enumerate() {
                let (a, b) = if i % 2 == 0 {
                    (switched.peek_move(mv), seated.peek_move(mv))
                } else {
                    (
                        switched.peek_move_improving(mv),
                        seated.peek_move_improving(mv),
                    )
                };
                let (a, b) = (a.expect("budget is huge"), b.expect("budget is huge"));
                assert_eq!(a, b, "{label}: {mv:?}");
                assert_eq!(a.score().to_bits(), b.score().to_bits(), "{label}: {mv:?}");
                if i % 2 == 0 {
                    assert!(a.is_exact(), "{label}: exact peek came back a bound");
                    let (_, fresh) = p.evaluate(&start.with_move(mv));
                    assert_eq!(a.score().to_bits(), fresh.to_bits(), "{label}: {mv:?}");
                }
                assert_eq!(books(&switched), books(&seated), "{label}: books");
            }
        }
    }
}
