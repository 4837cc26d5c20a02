//! Property tests pinning the central invariant of the move-based
//! search core: **incremental evaluation is bit-identical to full
//! re-evaluation** — for random mappings, random moves (task–task and
//! task–free swaps), on PIP and VOPD over 3×3 and 4×4
//! meshes plus two long-path inputs (DVOPD on 6×6, an 8×8 hotspot
//! scenario cell) and two tori (VOPD on 4×4, DVOPD on 6×6), under every
//! objective family.

use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonoc_core::{Evaluator, Mapping, MappingProblem, Move, Objective};
use phonoc_phys::{Length, PhysicalParameters};
use phonoc_route::XyRouting;
use phonoc_router::crux::crux_router;
use phonoc_topo::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn problem(app: &str, w: usize, h: usize, objective: Objective) -> MappingProblem {
    problem_on(app, Topology::mesh(w, h, Length::from_mm(2.5)), objective)
}

fn problem_on(app: &str, topology: Topology, objective: Objective) -> MappingProblem {
    let cg = match app {
        "pip" => phonoc_apps::benchmarks::pip(),
        "vopd" => phonoc_apps::benchmarks::vopd(),
        "dvopd" => phonoc_apps::benchmarks::dvopd(),
        "hotspot" => ScenarioSpec {
            family: ScenarioFamily::Hotspot,
            mesh: topology.width(),
            density_pct: 100,
            seed: 1,
        }
        .build(),
        other => panic!("unknown app {other}"),
    };
    MappingProblem::new(
        cg,
        topology,
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        objective,
    )
    .unwrap()
}

/// Every (app, mesh) instance, across all four objective families.
/// PIP (8 tasks) fits 3×3 and gains free tiles on 4×4; VOPD (16 tasks)
/// saturates 4×4. DVOPD (32 tasks) on 6×6 keeps free tiles and the
/// 8×8 hotspot cell saturates its mesh; both have long paths, so a
/// move perturbs many victims and shared path heads. The VOPD and DVOPD
/// tori add wrap-around paths, whose lengths differ from the mesh's.
fn instances() -> Vec<MappingProblem> {
    let mut out = Vec::new();
    for objective in [
        Objective::MinimizeWorstCaseLoss,
        Objective::MaximizeWorstCaseSnr,
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
        out.push(problem("dvopd", 6, 6, objective));
        out.push(problem("hotspot", 8, 8, objective));
        let torus = |w, h| Topology::torus(w, h, Length::from_mm(2.5));
        out.push(problem_on("vopd", torus(4, 4), objective));
        out.push(problem_on("dvopd", torus(6, 6), objective));
    }
    out
}

/// A random non-degenerate move: mostly uniform position swaps
/// (including the free tail), sometimes a task moved onto a free tile
/// when free tiles exist.
fn random_move(mapping: &Mapping, rng: &mut StdRng) -> Move {
    let tiles = mapping.tile_count();
    let tasks = mapping.task_count();
    if tasks < tiles && rng.gen_bool(0.3) {
        // Swap a random task with a random free position.
        let task = rng.gen_range(0..tasks);
        Move::Swap(task, rng.gen_range(tasks..tiles))
    } else {
        mapping.random_swap_move(rng)
    }
}

#[test]
fn delta_bit_matches_full_evaluation_on_random_moves() {
    for p in instances() {
        let ev: &Evaluator = p.evaluator();
        let mut rng = StdRng::seed_from_u64(0xD617A);
        for _ in 0..40 {
            let mapping = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
            let state = ev.init_state(&mapping);
            // init_state must agree with evaluate to the bit.
            assert_eq!(state.to_metrics(), ev.evaluate(&mapping), "{p:?}");
            for _ in 0..8 {
                let mv = random_move(&mapping, &mut rng);
                let delta = ev.evaluate_delta(&state, &mapping, mv);
                let moved = mapping.with_move(mv);
                let full = ev.evaluate(&moved);
                // Bit-exact agreement of the incremental worst cases.
                assert_eq!(
                    delta.new_worst_il, full.worst_case_il,
                    "{p:?}: IL mismatch on {mv:?}"
                );
                assert_eq!(
                    delta.new_worst_snr, full.worst_case_snr,
                    "{p:?}: SNR mismatch on {mv:?}"
                );
            }
        }
    }
}

#[test]
fn committed_walks_stay_bit_identical_to_full_evaluation() {
    for p in instances() {
        let ev = p.evaluator();
        let mut rng = StdRng::seed_from_u64(0xC0317);
        let mut mapping = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
        let mut state = ev.init_state(&mapping);
        let mut scratch = phonoc_core::DeltaScratch::default();
        // Long random walk: every commit must leave the cached state
        // exactly where a fresh full evaluation would put it. (Debug
        // builds additionally re-verify inside apply_move itself.)
        for step in 0..60 {
            let mv = random_move(&mapping, &mut rng);
            let delta = ev.apply_move(&mut state, &mut mapping, mv, &mut scratch);
            assert!(mapping.is_valid());
            let full = ev.evaluate(&mapping);
            assert_eq!(state.to_metrics(), full, "{p:?} step {step} after {mv:?}");
            assert_eq!(delta.new_worst_il, full.worst_case_il);
            assert_eq!(delta.new_worst_snr, full.worst_case_snr);
        }
    }
}

#[test]
fn loss_fast_path_bit_matches_full_evaluation() {
    for p in instances() {
        let ev = p.evaluator();
        let mut rng = StdRng::seed_from_u64(0x1055);
        let mut scratch = phonoc_core::DeltaScratch::default();
        for _ in 0..30 {
            let mapping = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
            let state = ev.init_state(&mapping);
            for _ in 0..8 {
                let mv = random_move(&mapping, &mut rng);
                let (il, moved) = ev.evaluate_delta_loss(&state, &mapping, mv, &mut scratch);
                let full = ev.evaluate(&mapping.with_move(mv));
                assert_eq!(il, full.worst_case_il, "{p:?}: {mv:?}");
                assert!(moved <= ev.edge_count());
            }
        }
    }
}

#[test]
fn neutral_moves_change_nothing_and_cost_nothing() {
    let p = problem("pip", 4, 4, Objective::MaximizeWorstCaseSnr);
    let ev = p.evaluator();
    let mut rng = StdRng::seed_from_u64(7);
    let mapping = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
    let state = ev.init_state(&mapping);
    let tasks = p.task_count();
    // Free–free swap and the identity swap are neutral.
    for mv in [Move::Swap(tasks, tasks + 1), Move::Swap(2, 2)] {
        assert!(mv.is_neutral(&mapping));
        let delta = ev.evaluate_delta(&state, &mapping, mv);
        assert_eq!(delta.affected_edges, 0);
        assert_eq!(delta.new_worst_il, state.worst_case_il());
        assert_eq!(delta.new_worst_snr, state.worst_case_snr());
    }
}
