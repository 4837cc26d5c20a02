//! Optimizer-strategy ablation: the paper's three strategies plus the
//! two "other strategies" extension slots (simulated annealing and tabu
//! search) under an equal budget, with convergence history.
//!
//! ```text
//! cargo run --release -p bench --bin optimizer_ablation [--budget N] [--seed S]
//! ```

use bench::{bin_args, paper_problem, write_results_file};
use phonoc_core::{run_dse, DseConfig, MappingOptimizer, Objective};
use phonoc_opt::{
    GeneticAlgorithm, IteratedLocalSearch, RandomSearch, Rpbla, SimulatedAnnealing, TabuSearch,
};
use phonoc_topo::TopologyKind;
use std::fmt::Write as _;

const APPS: [&str; 3] = ["VOPD", "MPEG-4", "Wavelet"];

fn main() {
    let (budget, seed): (usize, u64) = bin_args(&["--budget", "--seed"], |a| {
        Ok((a.parsed("--budget", 30_000)?, a.parsed("--seed", 11)?))
    });

    let optimizers: Vec<Box<dyn MappingOptimizer>> = vec![
        Box::new(RandomSearch),
        Box::new(GeneticAlgorithm),
        Box::new(Rpbla),
        Box::new(SimulatedAnnealing),
        Box::new(TabuSearch),
        Box::new(IteratedLocalSearch),
    ];

    println!("Optimizer ablation: worst-case SNR objective, mesh, {budget} evaluations\n");
    println!(
        "{:<10} {:>10} {:>12} {:>22}",
        "app", "optimizer", "SNR (dB)", "evals to best"
    );

    let mut csv = String::from("app,optimizer,snr_db,evals_to_best\n");
    for app in APPS {
        let problem = paper_problem(app, TopologyKind::Mesh, Objective::MaximizeWorstCaseSnr);
        for opt in &optimizers {
            let r = run_dse(&problem, opt.as_ref(), &DseConfig::new(budget, seed));
            let evals_to_best = r.history.last().map_or(0, |(e, _)| *e);
            println!(
                "{app:<10} {:>10} {:>12.2} {:>22}",
                r.optimizer, r.best_score, evals_to_best
            );
            let _ = writeln!(
                csv,
                "{app},{},{:.3},{evals_to_best}",
                r.optimizer, r.best_score
            );
        }
        println!();
    }
    write_results_file("optimizer_ablation.csv", &csv);
}
