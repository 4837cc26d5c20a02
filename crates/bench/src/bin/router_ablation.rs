//! Router-microarchitecture ablation (ours; motivated by the paper's
//! claim that "new … optical router architectures … can be added without
//! any changes in the tool core").
//!
//! Compares the Crux reconstruction against the full 25-ring crossbar
//! and the 16-ring XY-reduced crossbar on a subset of benchmarks:
//! optimized worst-case SNR and loss under an equal budget.
//!
//! ```text
//! cargo run --release -p bench --bin router_ablation [--budget N] [--seed S]
//! ```

use bench::{bin_args, problem_with_router, router_by_name, write_results_file};
use phonoc_core::{run_dse, DseConfig, Objective};
use phonoc_opt::Rpbla;
use phonoc_topo::TopologyKind;
use std::fmt::Write as _;

const ROUTERS: [&str; 3] = ["crux", "crossbar", "xy-crossbar"];
const APPS: [&str; 4] = ["PIP", "MPEG-4", "VOPD", "Wavelet"];

fn main() {
    let (budget, seed): (usize, u64) = bin_args(&["--budget", "--seed"], |a| {
        Ok((a.parsed("--budget", 30_000)?, a.parsed("--seed", 7)?))
    });

    println!("Router ablation: R-PBLA, {budget} evaluations per cell, mesh topology\n");
    println!(
        "{:<10} {:>12} {:>10} {:>14} {:>12} {:>12}",
        "app", "router", "rings", "crossings", "SNR (dB)", "loss (dB)"
    );

    let mut csv = String::from("app,router,microrings,plain_crossings,snr_db,loss_db\n");
    for app in APPS {
        for router_name in ROUTERS {
            let router = router_by_name(router_name);
            let rings = router.microring_count();
            let crossings = router.plain_crossing_count();
            let snr_problem = problem_with_router(
                app,
                TopologyKind::Mesh,
                Objective::MaximizeWorstCaseSnr,
                router_by_name(router_name),
            );
            let loss_problem = problem_with_router(
                app,
                TopologyKind::Mesh,
                Objective::MinimizeWorstCaseLoss,
                router,
            );
            let snr = run_dse(&snr_problem, &Rpbla, &DseConfig::new(budget, seed)).best_score;
            let loss = run_dse(&loss_problem, &Rpbla, &DseConfig::new(budget, seed)).best_score;
            println!(
                "{app:<10} {router_name:>12} {rings:>10} {crossings:>14} {snr:>12.2} {loss:>12.3}"
            );
            let _ = writeln!(
                csv,
                "{app},{router_name},{rings},{crossings},{snr:.3},{loss:.3}"
            );
        }
        println!();
    }
    println!(
        "expected shape: the full crossbar pays for its 25 rings with extra\n\
         OFF-pass losses on every route (worse optimized loss than Crux);\n\
         Crux's sparse netlist keeps straight passes nearly free."
    );
    write_results_file("router_ablation.csv", &csv);
}
