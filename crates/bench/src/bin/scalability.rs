//! Network-scalability study, quantifying the paper's introduction:
//! worst-case loss and SNR "scale up with the network size", ultimately
//! hitting the laser power budget and WDM nonlinearity walls.
//!
//! Rides the scenario subsystem (`phonoc_apps::scenario`): for each
//! mesh size the study optimizes a full-occupancy scenario of the
//! chosen family (pipeline by default — the classic full-chain
//! stress), reports optimized worst-case IL/SNR, the laser power each
//! configuration needs, and how many WDM channels fit. Now reaches
//! 12×12 and 16×16.
//!
//! ```text
//! cargo run --release -p bench --bin scalability
//!     [--budget N] [--seed S] [--family pipeline|star|...] [--density PCT]
//! ```

use bench::sweep::scenario_problem_with_objective;
use bench::{bin_args, write_results_file};
use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonoc_core::{run_dse, DseConfig, Objective};
use phonoc_opt::Rpbla;
use phonoc_phys::{PhysicalParameters, PowerBudget};
use std::fmt::Write as _;

fn main() {
    let (budget, seed, density_pct, family): (usize, u64, u32, ScenarioFamily) =
        bin_args(&["--budget", "--seed", "--density", "--family"], |a| {
            let name = a.value("--family").unwrap_or_else(|| "pipeline".into());
            let family = ScenarioFamily::by_name(&name)
                .ok_or_else(|| format!("unknown scenario family `{name}`"))?;
            Ok((
                a.parsed("--budget", 5_000)?,
                a.parsed("--seed", 5)?,
                a.parsed("--density", 100)?,
                family,
            ))
        });
    let params = PhysicalParameters::default();
    let power = PowerBudget::new(params);

    println!(
        "Scalability sweep: full-occupancy `{}` scenarios on n×n meshes, R-PBLA, {budget} evals\n",
        family.name()
    );
    println!(
        "{:>5} {:>7} {:>7} {:>12} {:>12} {:>16} {:>12} {:>14}",
        "mesh",
        "tasks",
        "edges",
        "IL_wc (dB)",
        "SNR_wc (dB)",
        "laser (dBm)",
        "feasible",
        "WDM channels"
    );

    let mut csv = String::from(
        "n,tasks,edges,worst_il_db,worst_snr_db,required_laser_dbm,feasible,max_wdm\n",
    );
    for n in [3, 4, 5, 6, 8, 10, 12, 16] {
        let spec = ScenarioSpec {
            family,
            mesh: n,
            density_pct,
            seed,
        };
        let problem = scenario_problem_with_objective(&spec, Objective::MinimizeWorstCaseLoss);
        let edges = problem.cg().edge_count();
        let result = run_dse(&problem, &Rpbla, &DseConfig::new(budget, seed));
        let (metrics, _) = problem.evaluate(&result.best_mapping);

        let il = metrics.worst_case_il;
        let snr = metrics.worst_case_snr;
        let laser = power.required_laser_power(il);
        let feasible = power.is_feasible(il);
        let wdm = power.max_wdm_channels(il);
        println!(
            "{:>4}² {:>7} {:>7} {:>12.3} {:>12.2} {:>16.2} {:>12} {:>14}",
            n,
            spec.task_count(),
            edges,
            il.0,
            snr.0,
            laser.0,
            feasible,
            wdm
        );
        let _ = writeln!(
            csv,
            "{n},{},{edges},{:.3},{:.2},{:.2},{feasible},{wdm}",
            spec.task_count(),
            il.0,
            snr.0,
            laser.0
        );
    }
    println!(
        "\nexpected shape: |IL_wc| grows roughly linearly with the mesh diameter\n\
         and the WDM channel count shrinks accordingly — the scalability wall\n\
         the paper's mapping optimization pushes outward."
    );
    write_results_file("scalability.csv", &csv);
}
