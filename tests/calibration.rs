//! Calibration tests: the observable *shapes* of the paper's evaluation
//! must hold in this reproduction. These are the assertions that keep
//! the model honest — if a refactor breaks one of these, the
//! reproduction no longer tells the paper's story.

use phonocmap::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mesh_problem(app: &str, objective: Objective) -> MappingProblem {
    let cg = benchmarks::benchmark(app).expect("known benchmark");
    let (w, h) = fit_grid(cg.task_count());
    MappingProblem::new(
        cg,
        Topology::mesh(w, h, Length::from_mm(2.5)),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        objective,
    )
    .expect("assembles")
}

/// The hand-constructed grid embedding of VOPD: every one of its 20
/// communications is tile-adjacent (see `phonoc-apps::benchmarks::vopd`).
/// Task order follows the VOPD builder.
fn vopd_embedding() -> Mapping {
    let tiles = [
        0,  // demux  (0,0)
        1,  // vld    (1,0)
        2,  // run_le_dec (2,0)
        3,  // inv_scan   (3,0)
        7,  // ac_dc_pred (3,1)
        11, // stripe_mem (3,2)
        6,  // iquan  (2,1)
        5,  // idct   (1,1)
        9,  // up_samp (1,2)
        8,  // vop_rec (0,2)
        12, // pad    (0,3)
        13, // vop_mem (1,3)
        14, // smooth (2,3)
        4,  // arm    (0,1)
        10, // mem_ctrl (2,2)
        15, // disp   (3,3)
    ];
    Mapping::from_assignment(tiles.into_iter().map(TileId).collect(), 16).expect("valid embedding")
}

#[test]
fn vopd_embedding_is_truly_adjacent() {
    let cg = benchmarks::vopd();
    let topo = Topology::mesh(4, 4, Length::from_mm(2.5));
    let m = vopd_embedding();
    for e in cg.edges() {
        let a = topo.coord(m.tile_of_task(e.src.0));
        let b = topo.coord(m.tile_of_task(e.dst.0));
        let dist = a.x.abs_diff(b.x) + a.y.abs_diff(b.y);
        assert_eq!(
            dist,
            1,
            "{} → {} spans {dist} hops",
            cg.task_name(e.src),
            cg.task_name(e.dst)
        );
    }
}

#[test]
fn embedded_vopd_reaches_the_snr_plateau() {
    // Paper Table II: optimized VOPD mesh SNR ≈ 38 dB — the
    // crossing-noise-limited plateau. Our reconstruction must put a
    // fully adjacent mapping in that same plateau (> 30 dB), far above
    // the OFF-leak-limited band (< 25 dB).
    let p = mesh_problem("VOPD", Objective::MaximizeWorstCaseSnr);
    let (metrics, _) = p.evaluate(&vopd_embedding());
    assert!(
        metrics.worst_case_snr.0 > 30.0,
        "embedding should hit the plateau, got {}",
        metrics.worst_case_snr
    );
}

#[test]
fn embedded_vopd_loss_matches_single_hop_band() {
    // All-adjacent communications: inject + one link + eject
    // ≈ −(0.75 + 0.0685 + 0.54) ≈ −1.36 dB; allow the injection-chain
    // spread. Paper's optimized VOPD loss: −1.52 dB.
    let p = mesh_problem("VOPD", Objective::MinimizeWorstCaseLoss);
    let (metrics, _) = p.evaluate(&vopd_embedding());
    assert!(
        metrics.worst_case_il.0 > -1.6 && metrics.worst_case_il.0 < -1.2,
        "single-hop worst-case loss out of band: {}",
        metrics.worst_case_il
    );
}

#[test]
fn random_mappings_are_far_from_the_plateau() {
    // Fig. 3's point: random mappings of the dense apps live in the
    // 5–25 dB SNR band.
    let p = mesh_problem("VOPD", Objective::MaximizeWorstCaseSnr);
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..50 {
        let m = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
        let (metrics, _) = p.evaluate(&m);
        assert!(
            metrics.worst_case_snr.0 < 30.0,
            "a random VOPD mapping should not reach the plateau: {}",
            metrics.worst_case_snr
        );
    }
}

#[test]
fn hub_limited_mpeg4_cannot_reach_the_plateau() {
    // MPEG-4's SDRAM hub (degree 16 > grid degree 4) forces multi-hop
    // communications, capping SNR around 20 dB — exactly what the
    // paper's Table II shows (19.06–21.08 across all algorithms).
    let p = mesh_problem("MPEG-4", Objective::MaximizeWorstCaseSnr);
    let r = run_dse(&p, &Rpbla, &DseConfig::new(10_000, 3));
    assert!(
        r.best_score < 30.0,
        "MPEG-4 must stay hub-limited, got {}",
        r.best_score
    );
    assert!(
        r.best_score > 10.0,
        "but optimization should lift it above the random floor: {}",
        r.best_score
    );
}

#[test]
fn losses_land_in_the_papers_band() {
    // Paper Table II loss values: −1.52 … −3.18 dB across all apps and
    // topologies. Random mappings may be slightly worse; optimized ones
    // must be inside.
    for app in ["PIP", "MWD", "VOPD", "DVOPD"] {
        let p = mesh_problem(app, Objective::MinimizeWorstCaseLoss);
        let r = run_dse(&p, &Rpbla, &DseConfig::new(5_000, 9));
        assert!(
            r.best_score > -3.5 && r.best_score < -1.0,
            "{app}: optimized loss {} outside the plausible band",
            r.best_score
        );
    }
}

#[test]
fn bigger_networks_lose_more() {
    // Paper: "both the crosstalk noise and the power loss scale up with
    // the network size: the worst-case values are reached in case of the
    // DVOPD application that is mapped on the bigger topology."
    let small = mesh_problem("PIP", Objective::MinimizeWorstCaseLoss);
    let large = mesh_problem("DVOPD", Objective::MinimizeWorstCaseLoss);
    let small_loss = run_dse(&small, &Rpbla, &DseConfig::new(4_000, 4)).best_score;
    let large_loss = run_dse(&large, &Rpbla, &DseConfig::new(4_000, 4)).best_score;
    assert!(
        large_loss < small_loss,
        "DVOPD ({large_loss}) must lose more than PIP ({small_loss})"
    );
}

#[test]
fn torus_improves_the_loss_of_large_apps() {
    // Wrap-around links halve the worst-case hop count of big meshes;
    // the paper's torus loss columns are consistently no worse than the
    // mesh ones for DVOPD.
    let cg = benchmarks::dvopd();
    let (w, h) = fit_grid(cg.task_count());
    let pitch = Length::from_mm(2.5);
    let mesh = MappingProblem::new(
        cg.clone(),
        Topology::mesh(w, h, pitch),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        Objective::MinimizeWorstCaseLoss,
    )
    .unwrap();
    let torus = MappingProblem::new(
        cg,
        Topology::torus(w, h, pitch),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        Objective::MinimizeWorstCaseLoss,
    )
    .unwrap();
    // Same random mapping on both: the torus routes cannot be longer.
    let mut rng = StdRng::seed_from_u64(31);
    let m = Mapping::random(32, w * h, &mut rng);
    let (mm, _) = mesh.evaluate(&m);
    let (tm, _) = torus.evaluate(&m);
    assert!(
        tm.worst_case_il.0 >= mm.worst_case_il.0 - 0.3,
        "torus {} much worse than mesh {}",
        tm.worst_case_il,
        mm.worst_case_il
    );
}

#[test]
fn rpbla_matches_or_beats_rs_on_every_benchmark() {
    // The paper's headline Table II ordering at equal budget.
    for app in ["PIP", "MWD", "VOPD", "MPEG-4"] {
        let p = mesh_problem(app, Objective::MaximizeWorstCaseSnr);
        let rs = run_dse(&p, &RandomSearch, &DseConfig::new(3_000, 55));
        let rp = run_dse(&p, &Rpbla, &DseConfig::new(3_000, 55));
        assert!(
            rp.best_score >= rs.best_score - 1e-9,
            "{app}: r-pbla {} < rs {}",
            rp.best_score,
            rs.best_score
        );
    }
}
