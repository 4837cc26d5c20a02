//! SNR-family searches pinned bit for bit.
//!
//! Every strategy the paper's Table II comparison runs (RS, GA,
//! R-PBLA), plus ILS and SA, on PIP, VOPD and DVOPD over the mesh and
//! the torus, under the plain worst-case SNR objective and the PAM-4
//! SNR margin, at a fixed budget and seeds 1–3. R-PBLA and ILS also run
//! with full-pass peeks pinned (`/full`), the route small grids take
//! under the default hybrid strategy too. Each run's score bits,
//! evaluation ledger, best mapping, `RunStats` and convergence history
//! must match `golden/snr_family.txt`, recorded before the full pass
//! learned to stop early on mappings that cannot beat a threshold — so
//! that change, and any later one, provably keeps every search
//! decision.
//!
//! On a mismatch the regenerated table is written to the test binary's
//! temp dir (`snr_family.actual.txt`); after an intended change, review
//! the diff and copy it over the golden file.

use phonoc_apps::benchmarks;
use phonoc_core::{run_dse, DseConfig, DseResult, MappingProblem, Objective};
use phonoc_opt::single_spec;
use phonoc_phys::{Length, PhysicalParameters};
use phonoc_route::XyRouting;
use phonoc_router::crux::crux_router;
use phonoc_topo::{fit_grid, Topology};

const GOLDEN: &str = include_str!("golden/snr_family.txt");

const BUDGET: usize = 1_500;

const APPS: [&str; 3] = ["PIP", "VOPD", "DVOPD"];

const OBJECTIVES: [&str; 2] = ["snr", "margin-pam4"];

const SPECS: [&str; 7] = ["rs", "ga", "r-pbla", "r-pbla/full", "ils", "ils/full", "sa"];

/// An app on its paper-sized grid (`fit_grid`), as mesh or torus.
fn problem(app: &str, torus: bool, objective: Objective) -> MappingProblem {
    let cg = benchmarks::benchmark(app).unwrap();
    let (w, h) = fit_grid(cg.task_count());
    let pitch = Length::from_mm(2.5);
    let topology = if torus {
        Topology::torus(w.max(3), h.max(3), pitch)
    } else {
        Topology::mesh(w, h, pitch)
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

/// FNV-1a over `bytes`: a stable fingerprint for the golden table.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn row(label: &str, r: &DseResult) -> String {
    let tiles: Vec<String> = r
        .best_mapping
        .permutation()
        .iter()
        .map(|t| t.0.to_string())
        .collect();
    let history: Vec<String> = r
        .history
        .iter()
        .map(|(at, score)| format!("{at}:{:016x}", score.to_bits()))
        .collect();
    format!(
        "{label} score={:016x} evals={} full={} delta={} map={:016x} stats={:016x} history={:016x}",
        r.best_score.to_bits(),
        r.evaluations,
        r.stats.full_evaluations,
        r.stats.delta_evaluations,
        fnv(tiles.join(",").as_bytes()),
        fnv(format!("{:?}", r.stats).as_bytes()),
        fnv(history.join(",").as_bytes()),
    )
}

fn table() -> Vec<String> {
    let mut rows = Vec::new();
    for app in APPS {
        for torus in [false, true] {
            let topology = if torus { "torus" } else { "mesh" };
            for name in OBJECTIVES {
                let p = problem(app, torus, Objective::by_name(name).unwrap());
                for text in SPECS {
                    let spec = single_spec(text).unwrap();
                    for seed in 1..=3u64 {
                        let config = DseConfig::new(BUDGET, seed)
                            .with_strategy(spec.strategy.unwrap_or_default());
                        let r = run_dse(&p, spec.optimizer.as_ref(), &config);
                        rows.push(row(&format!("{app}/{topology}!{name} {text} s{seed}"), &r));
                    }
                }
            }
        }
    }
    rows
}

#[test]
fn snr_family_searches_match_the_golden_pin() {
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
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("snr_family.actual.txt");
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
