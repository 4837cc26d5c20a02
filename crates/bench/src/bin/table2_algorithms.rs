//! Regenerates **Table II** of the paper: best worst-case SNR and
//! worst-case loss found by RS, GA and R-PBLA on mesh and torus
//! topologies for the eight benchmarks, under an equal evaluation
//! budget.
//!
//! ```text
//! cargo run --release -p bench --bin table2_algorithms [--budget N] [--seed S]
//! ```
//!
//! Default budget: 100 000 evaluations per (app, topology, objective,
//! algorithm) cell — the paper equalizes running time; we equalize
//! evaluations so budgets are deterministic. The binary prints our
//! numbers next to the paper's and writes `results/table2.csv`.

use bench::{
    bin_args, paper_problem, write_results_file, PAPER_TABLE2_LOSS, PAPER_TABLE2_SNR, TABLE2_APPS,
};
use phonoc_core::{run_dse, DseConfig, MappingOptimizer, Objective};
use phonoc_opt::{GeneticAlgorithm, RandomSearch, Rpbla};
use phonoc_topo::TopologyKind;
use std::fmt::Write as _;

/// One Table II cell: best SNR and best loss for an (app, topology,
/// algorithm) combination.
#[derive(Debug, Clone, Copy)]
struct Cell {
    snr: f64,
    loss: f64,
}

fn optimizers() -> Vec<(&'static str, Box<dyn MappingOptimizer + Sync>)> {
    vec![
        ("RS", Box::new(RandomSearch)),
        ("GA", Box::new(GeneticAlgorithm)),
        ("R-PBLA", Box::new(Rpbla)),
    ]
}

fn main() {
    let (budget, seed): (usize, u64) = bin_args(&["--budget", "--seed"], |a| {
        Ok((a.parsed("--budget", 100_000)?, a.parsed("--seed", 2016)?))
    });
    let kinds = [TopologyKind::Mesh, TopologyKind::Torus];
    let algos = optimizers();

    println!(
        "Table II reproduction: {budget} evaluations per cell, seed {seed}\n\
         (paper reference values in parentheses)\n"
    );

    // Compute all cells in parallel: one pool task per (app, topology).
    // Item order is (app-major, mesh then torus) and the map preserves
    // it, so chunking by 2 below regroups the cells per application.
    let jobs: Vec<(&str, TopologyKind)> = TABLE2_APPS
        .iter()
        .flat_map(|&app| kinds.map(|kind| (app, kind)))
        .collect();
    let collected: Vec<[Cell; 3]> = phonoc_core::parallel::parallel_map_with(
        &jobs,
        usize::MAX,
        || (),
        |_, &(app, kind)| {
            let snr_problem = paper_problem(app, kind, Objective::MaximizeWorstCaseSnr);
            let loss_problem = paper_problem(app, kind, Objective::MinimizeWorstCaseLoss);
            let mut cells = [Cell {
                snr: 0.0,
                loss: 0.0,
            }; 3];
            for (i, (_, algo)) in algos.iter().enumerate() {
                let snr =
                    run_dse(&snr_problem, algo.as_ref(), &DseConfig::new(budget, seed)).best_score;
                let loss =
                    run_dse(&loss_problem, algo.as_ref(), &DseConfig::new(budget, seed)).best_score;
                cells[i] = Cell { snr, loss };
            }
            cells
        },
    );
    let results: Vec<Vec<[Cell; 3]>> = collected.chunks(2).map(<[_]>::to_vec).collect(); // [app][kind][algo]

    let mut csv =
        String::from("app,topology,algorithm,snr_db,loss_db,paper_snr_db,paper_loss_db\n");
    let header = format!(
        "{:<15} {:<6} | {:>18} {:>18} {:>18}",
        "Application", "Topo", "RS (SNR/Loss)", "GA (SNR/Loss)", "R-PBLA (SNR/Loss)"
    );
    println!("{header}");
    println!("{}", "-".repeat(header.len()));
    for (a, app) in TABLE2_APPS.iter().enumerate() {
        for (k, kind) in kinds.iter().enumerate() {
            let cells = &results[a][k];
            let paper_snr = if k == 0 {
                PAPER_TABLE2_SNR[a].1
            } else {
                PAPER_TABLE2_SNR[a].2
            };
            let paper_loss = if k == 0 {
                PAPER_TABLE2_LOSS[a].1
            } else {
                PAPER_TABLE2_LOSS[a].2
            };
            let mut row = format!("{:<15} {:<6} |", app, kind.to_string());
            for (i, (name, _)) in optimizers().iter().enumerate() {
                let _ = write!(row, " {:>7.2}/{:>6.2}   ", cells[i].snr, cells[i].loss);
                let _ = writeln!(
                    csv,
                    "{app},{kind},{name},{:.3},{:.3},{:.2},{:.2}",
                    cells[i].snr, cells[i].loss, paper_snr[i], paper_loss[i]
                );
            }
            println!("{row}");
            println!(
                "{:<15} {:<6} | ({:>5.2}/{:>5.2})     ({:>5.2}/{:>5.2})     ({:>5.2}/{:>5.2})",
                "  (paper)",
                "",
                paper_snr[0],
                paper_loss[0],
                paper_snr[1],
                paper_loss[1],
                paper_snr[2],
                paper_loss[2]
            );
        }
    }

    // Shape summary mirroring the paper's Section III claims.
    let mut ga_beats_rs = 0usize;
    let mut rpbla_beats_rs = 0usize;
    let mut total = 0usize;
    for per_app in &results {
        for cells in per_app {
            total += 1;
            if cells[1].snr >= cells[0].snr - 1e-9 {
                ga_beats_rs += 1;
            }
            if cells[2].snr >= cells[0].snr - 1e-9 {
                rpbla_beats_rs += 1;
            }
        }
    }
    println!(
        "\nshape check: GA >= RS in {ga_beats_rs}/{total} cells; R-PBLA >= RS in {rpbla_beats_rs}/{total} cells"
    );
    write_results_file("table2.csv", &csv);
}
