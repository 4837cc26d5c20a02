//! End-to-end integration: every paper benchmark through the full stack
//! (CG → topology → router → routing → evaluator → optimizer → report).

use phonocmap::prelude::*;

fn problem_for(app: &str, torus: bool, objective: Objective) -> MappingProblem {
    let cg = benchmarks::benchmark(app).expect("known benchmark");
    let (w, h) = fit_grid(cg.task_count());
    let pitch = Length::from_mm(2.5);
    let topo = if torus {
        Topology::torus(w, h, pitch)
    } else {
        Topology::mesh(w, h, pitch)
    };
    MappingProblem::new(
        cg,
        topo,
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        objective,
    )
    .expect("paper benchmarks assemble")
}

#[test]
fn all_benchmarks_assemble_on_mesh_and_torus() {
    for app in [
        "263dec_mp3dec",
        "263enc_mp3enc",
        "DVOPD",
        "MPEG-4",
        "MWD",
        "PIP",
        "VOPD",
        "Wavelet",
    ] {
        for torus in [false, true] {
            let p = problem_for(app, torus, Objective::MaximizeWorstCaseSnr);
            assert!(p.task_count() <= p.tile_count());
            assert_eq!(p.evaluator().edge_count(), p.cg().edge_count());
        }
    }
}

#[test]
fn every_optimizer_runs_every_small_benchmark() {
    let optimizers: Vec<Box<dyn MappingOptimizer>> = vec![
        Box::new(RandomSearch),
        Box::new(GeneticAlgorithm),
        Box::new(Rpbla),
        Box::new(SimulatedAnnealing),
        Box::new(TabuSearch),
    ];
    for app in ["PIP", "MPEG-4"] {
        let p = problem_for(app, false, Objective::MaximizeWorstCaseSnr);
        for opt in &optimizers {
            let r = run_dse(&p, opt.as_ref(), &DseConfig::new(400, 5));
            assert_eq!(r.evaluations, 400, "{app}/{}", opt.name());
            assert!(r.best_mapping.is_valid());
            assert!(r.best_score.is_finite());
        }
    }
}

#[test]
fn reports_round_trip_through_analysis() {
    let p = problem_for("VOPD", false, Objective::MinimizeWorstCaseLoss);
    let r = run_dse(&p, &Rpbla, &DseConfig::new(1_000, 1));
    let report = analyze(&p, &r.best_mapping);
    assert_eq!(report.edges.len(), p.cg().edge_count());
    assert_eq!(report.application, "VOPD");
    // Report's worst case agrees with the optimizer's score.
    assert!((report.worst_case_il.0 - r.best_score).abs() < 1e-9);
    // Small meshes stay comfortably inside the default power budget.
    assert!(report.feasible);
    let table = report.to_table();
    assert!(table.contains("vld"));
}

#[test]
fn optimization_never_loses_to_a_random_baseline() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    for objective in [
        Objective::MinimizeWorstCaseLoss,
        Objective::MaximizeWorstCaseSnr,
    ] {
        let p = problem_for("MWD", false, objective);
        let mut rng = StdRng::seed_from_u64(77);
        let random = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
        let (_, random_score) = p.evaluate(&random);
        let optimized = run_dse(&p, &Rpbla, &DseConfig::new(3_000, 77));
        assert!(
            optimized.best_score >= random_score,
            "{objective}: optimized {} < random {random_score}",
            optimized.best_score
        );
    }
}

#[test]
fn seeded_runs_are_fully_reproducible_across_the_stack() {
    let p1 = problem_for("Wavelet", true, Objective::MaximizeWorstCaseSnr);
    let p2 = problem_for("Wavelet", true, Objective::MaximizeWorstCaseSnr);
    let a = run_dse(&p1, &GeneticAlgorithm, &DseConfig::new(1_500, 1234));
    let b = run_dse(&p2, &GeneticAlgorithm, &DseConfig::new(1_500, 1234));
    assert_eq!(a.best_mapping, b.best_mapping);
    assert_eq!(a.history, b.history);
}
