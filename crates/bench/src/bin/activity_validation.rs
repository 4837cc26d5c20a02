//! Worst-case-bound validation sweep (extension): Monte-Carlo activity
//! sampling across all benchmarks, reporting the bound, the worst
//! sampled configuration and the pessimism margin at each duty cycle.
//!
//! ```text
//! cargo run --release -p bench --bin activity_validation [--samples N] [--seed S]
//! ```

use bench::{bin_args, paper_problem, write_results_file, TABLE2_APPS};
use phonoc_core::montecarlo::activity_study;
use phonoc_core::{run_dse, DseConfig, Objective};
use phonoc_opt::Rpbla;
use phonoc_topo::TopologyKind;
use std::fmt::Write as _;

fn main() {
    let (samples, seed): (usize, u64) = bin_args(&["--samples", "--seed"], |a| {
        Ok((a.parsed("--samples", 2_000)?, a.parsed("--seed", 19)?))
    });

    println!("Monte-Carlo validation: {samples} sampled activity patterns per cell\n");
    println!(
        "{:<15} {:>9} {:>12} {:>13} {:>14} {:>12}",
        "app", "activity", "bound (dB)", "min sampled", "mean sampled", "pessimism"
    );

    let mut csv =
        String::from("app,activity,bound_snr_db,min_sampled_db,mean_sampled_db,pessimism_db\n");
    let mut violations = 0usize;
    for app in TABLE2_APPS {
        let problem = paper_problem(app, TopologyKind::Mesh, Objective::MaximizeWorstCaseSnr);
        let mapping = run_dse(&problem, &Rpbla, &DseConfig::new(10_000, seed)).best_mapping;
        for activity in [0.25, 0.5, 1.0] {
            let s = activity_study(&problem, &mapping, activity, samples, seed);
            if s.min_sampled_snr < s.worst_case_snr {
                violations += 1;
            }
            println!(
                "{:<15} {:>8.0}% {:>12.2} {:>13.2} {:>14.2} {:>11.2}",
                app,
                activity * 100.0,
                s.worst_case_snr.0,
                s.min_sampled_snr.0,
                s.mean_sampled_snr.0,
                s.pessimism().0
            );
            let _ = writeln!(
                csv,
                "{app},{activity},{:.3},{:.3},{:.3},{:.3}",
                s.worst_case_snr.0,
                s.min_sampled_snr.0,
                s.mean_sampled_snr.0,
                s.pessimism().0
            );
        }
        println!();
    }
    println!("bound violations: {violations} (must be 0 — the worst case is a true bound)");
    write_results_file("activity_validation.csv", &csv);
    assert_eq!(violations, 0, "worst-case bound violated");
}
