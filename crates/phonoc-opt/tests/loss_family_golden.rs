//! Loss-family searches pinned bit for bit.
//!
//! * **Golden pin** — every strategy a loss/power request can run
//!   (R-PBLA under three neighbourhood policies, tabu, SA, ILS and the
//!   default portfolio) on two 8×8 scenario cells, under the three
//!   loss-based objectives, at a fixed budget and seeds 1–3. Each run's
//!   score bits, evaluation ledger, best mapping and `RunStats` must
//!   match `golden/loss_family.txt`, recorded before loss-family cursors
//!   dropped their crosstalk state — so that change, and any later
//!   one, provably keeps every search decision.
//! * **Cursor property** — along a long random commit walk under a
//!   loss-based objective, the cursor score equals a from-scratch
//!   `objective.score(&evaluate(mapping))` after every commit. Debug
//!   builds also check each commit's state internally; this test keeps
//!   the equality pinned in release builds, where they do not.
//!
//! On a golden mismatch the regenerated table is written next to the
//! test binary's temp dir (`loss_family.actual.txt`); after an
//! intended change, review the diff and copy it over the golden file.

use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonoc_core::{
    run_dse, DseConfig, Mapping, MappingProblem, Move, Objective, OptContext, RunStats,
};
use phonoc_opt::portfolio::DEFAULT_SPEC;
use phonoc_opt::{run_portfolio, single_spec, PortfolioSpec};
use phonoc_phys::{Length, PhysicalParameters};
use phonoc_route::XyRouting;
use phonoc_router::crux::crux_router;
use phonoc_topo::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GOLDEN: &str = include_str!("golden/loss_family.txt");

const BUDGET: usize = 300;

const OBJECTIVES: [&str; 3] = ["loss", "power", "power-pam4"];

const SINGLES: [&str; 6] = [
    "r-pbla@sampled",
    "r-pbla@locality",
    "r-pbla@exhaustive",
    "tabu",
    "sa",
    "ils",
];

/// Two of the 8×8 cells the power/loss request stream serves.
fn cells() -> [ScenarioSpec; 2] {
    let cell = |family, seed| ScenarioSpec {
        family,
        mesh: 8,
        density_pct: 100,
        seed,
    };
    [
        cell(ScenarioFamily::MpegLike, 200),
        cell(ScenarioFamily::Hotspot, 201),
    ]
}

fn problem(spec: &ScenarioSpec, objective: Objective) -> MappingProblem {
    MappingProblem::new(
        spec.build(),
        Topology::mesh(spec.mesh, spec.mesh, Length::from_mm(2.5)),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        objective,
    )
    .unwrap()
}

/// FNV-1a over `bytes`: a stable fingerprint for the golden table.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn mapping_print(m: &Mapping) -> u64 {
    let tiles: Vec<String> = m.permutation().iter().map(|t| t.0.to_string()).collect();
    fnv(tiles.join(",").as_bytes())
}

fn stats_print(s: &RunStats) -> u64 {
    fnv(format!("{s:?}").as_bytes())
}

fn row(label: &str, score: f64, evaluations: usize, m: &Mapping, s: &RunStats) -> String {
    format!(
        "{label} score={:016x} evals={evaluations} full={} delta={} map={:016x} stats={:016x}",
        score.to_bits(),
        s.full_evaluations,
        s.delta_evaluations,
        mapping_print(m),
        stats_print(s),
    )
}

fn table() -> Vec<String> {
    let portfolio = PortfolioSpec::parse(DEFAULT_SPEC).unwrap();
    let mut rows = Vec::new();
    for cell in cells() {
        for name in OBJECTIVES {
            let objective = Objective::by_name(name).unwrap();
            let p = problem(&cell, objective);
            for seed in 1..=3u64 {
                for text in SINGLES {
                    let spec = single_spec(text).unwrap();
                    let config =
                        DseConfig::new(BUDGET, seed).with_policy(spec.policy.unwrap_or_default());
                    let r = run_dse(&p, spec.optimizer.as_ref(), &config);
                    let label = format!("{}!{name} {text} s{seed}", cell.id());
                    rows.push(row(
                        &label,
                        r.best_score,
                        r.evaluations,
                        &r.best_mapping,
                        &r.stats,
                    ));
                }
                let r = run_portfolio(&p, &portfolio, BUDGET, seed);
                let label = format!("{}!{name} portfolio s{seed}", cell.id());
                rows.push(row(
                    &label,
                    r.best_score,
                    r.evaluations,
                    &r.best_mapping,
                    &r.stats,
                ));
            }
        }
    }
    rows
}

#[test]
fn loss_family_searches_match_the_golden_pin() {
    let actual = table();
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let mismatched: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a != *e)
        .map(|(a, e)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    if mismatched.is_empty() && actual.len() == expected.len() {
        return;
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("loss_family.actual.txt");
    std::fs::write(&out, actual.join("\n") + "\n").unwrap();
    panic!(
        "{} of {} golden rows differ ({} expected); regenerated table at {}:\n{}",
        mismatched.len() + actual.len().abs_diff(expected.len()),
        actual.len(),
        expected.len(),
        out.display(),
        mismatched.join("\n"),
    );
}

#[test]
fn loss_cursor_score_matches_a_fresh_evaluation_after_every_commit() {
    for cell in cells() {
        for name in OBJECTIVES {
            let objective = Objective::by_name(name).unwrap();
            let p = problem(&cell, objective);
            let mut ctx = OptContext::new(&p, 1_000_000, 9);
            let mut rng = StdRng::seed_from_u64(17);
            let start = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
            ctx.set_current(start).unwrap();
            for step in 0..60 {
                let cursor = ctx.current_mapping().unwrap().clone();
                // Alternate the sequential and batch peek entry points.
                let ev = if step % 2 == 0 {
                    ctx.peek_move(cursor.random_swap_move(&mut rng)).unwrap()
                } else {
                    let moves: Vec<Move> =
                        (0..4).map(|_| cursor.random_swap_move(&mut rng)).collect();
                    let pick = rng.gen_range(0..moves.len());
                    ctx.peek_moves(&moves)[pick]
                };
                ctx.apply_scored_move(&ev);
                let mapping = ctx.current_mapping().unwrap();
                let fresh = objective.score(&p.evaluator().evaluate(mapping));
                assert_eq!(
                    ctx.current_score().unwrap().to_bits(),
                    fresh.to_bits(),
                    "{}!{name}: cursor score diverged at commit {step}",
                    cell.id()
                );
                assert_eq!(ev.score().to_bits(), fresh.to_bits());
            }
        }
    }
}
