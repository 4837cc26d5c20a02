//! Quality-regression mini-sweep for the portfolio subsystem: pins the
//! tentpole claim in CI instead of only in `BENCH_sweep.json`.
//!
//! At equal **total** budget on 12×12 cells (where the admitted list
//! outgrows the budget and the sampled/locality streams diverge), the
//! exchanged portfolio must match or beat the best single lane on a
//! strong majority of cells — and never collapse on any. Every run is
//! deterministic per seed, so these are exact regression bounds, not
//! statistical ones; the committed full sweep extends the same claim
//! to all 52 12×12/16×16 cells (46/52 wins, enforced by
//! `scripts/bench_gate.py --strict-quality`).

use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonoc_core::{run_dse, DseConfig, MappingProblem, NeighborhoodPolicy, Objective};
use phonoc_opt::portfolio::DEFAULT_SPEC;
use phonoc_opt::{run_portfolio, PortfolioSpec, Rpbla};
use phonoc_phys::{Length, PhysicalParameters};
use phonoc_route::XyRouting;
use phonoc_router::crux::crux_router;
use phonoc_topo::Topology;

/// The sweep's per-cell optimizer budget.
const BUDGET: usize = 1_500;

fn problem(family: ScenarioFamily, mesh: usize, seed: u64) -> MappingProblem {
    let spec = ScenarioSpec {
        family,
        mesh,
        density_pct: 100,
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
fn portfolio_matches_or_beats_the_best_single_lane_at_12x12() {
    let spec = PortfolioSpec::parse(DEFAULT_SPEC).unwrap();
    let mut wins = 0;
    let mut cells = 0;
    for family in [ScenarioFamily::Pipeline, ScenarioFamily::Hotspot] {
        for seed in [1u64, 2] {
            let p = problem(family, 12, seed);
            let sampled = run_dse(
                &p,
                &Rpbla,
                &DseConfig::new(BUDGET, seed).with_policy(NeighborhoodPolicy::Sampled),
            )
            .best_score;
            let locality = run_dse(
                &p,
                &Rpbla,
                &DseConfig::new(BUDGET, seed).with_policy(NeighborhoodPolicy::Locality),
            )
            .best_score;
            let best_lane = sampled.max(locality);
            let portfolio = run_portfolio(&p, &spec, BUDGET, seed);
            assert!(
                portfolio.evaluations <= BUDGET,
                "{family:?}-s{seed}: portfolio overran the total budget"
            );
            cells += 1;
            if portfolio.best_score >= best_lane {
                wins += 1;
            }
            // Never a collapse: on these cells the committed margins
            // are +0.006 to +2.3 dB, so the slack only guards against
            // a silent quality regression.
            assert!(
                portfolio.best_score >= best_lane - 0.05,
                "{family:?}-s{seed}: portfolio {:.3} dB trails best lane {:.3} dB",
                portfolio.best_score,
                best_lane
            );
        }
    }
    assert!(
        wins * 4 >= cells * 3,
        "portfolio won only {wins}/{cells} cells (claim: strong majority)"
    );
}
