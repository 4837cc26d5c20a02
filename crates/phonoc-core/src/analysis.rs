//! Detailed per-mapping analysis reports: per-communication breakdown,
//! BER estimates, the laser power budget / scalability verdict (paper
//! Section I's motivation, made quantitative) and the per-source
//! launch-power aggregation behind the power-family objectives.

use crate::mapping::Mapping;
use crate::problem::MappingProblem;
use phonoc_phys::ber::ber_from_snr;
use phonoc_phys::{Db, Dbm, LaserBudget, Milliwatts, Modulation, PowerBudget};
use std::fmt;

/// Analysis of one mapped communication.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeReport {
    /// Source task name.
    pub src_task: String,
    /// Destination task name.
    pub dst_task: String,
    /// Tile hosting the source task.
    pub src_tile: usize,
    /// Tile hosting the destination task.
    pub dst_tile: usize,
    /// Routers traversed.
    pub hops: usize,
    /// Insertion loss (negative dB).
    pub insertion_loss: Db,
    /// Signal-to-noise ratio at the detector.
    pub snr: Db,
    /// Estimated on-off-keying bit error rate at this SNR.
    pub ber: f64,
}

/// One source laser's share of the chip power budget: each source
/// drives all its outgoing communications off one laser, so its
/// requirement is set by its worst (most lossy) link.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceLaserReport {
    /// Source task name.
    pub src_task: String,
    /// Tile hosting the source task.
    pub src_tile: usize,
    /// Outgoing communications this laser drives.
    pub links: usize,
    /// The source's worst (most negative) link insertion loss.
    pub worst_loss: Db,
    /// Launch power the worst link demands (sensitivity + modulation
    /// margin + loss magnitude).
    pub launch_power: Dbm,
    /// Whether that launch power stays under the nonlinearity ceiling.
    pub feasible: bool,
}

/// The mapping's laser-power story under one modulation format: every
/// source's worst-link launch power, aggregated to a chip total — the
/// quantity the [`Objective::MinimizeLaserPower`] objective family
/// drives down via the worst link overall.
///
/// [`Objective::MinimizeLaserPower`]: crate::problem::Objective::MinimizeLaserPower
#[derive(Debug, Clone, PartialEq)]
pub struct LaserReport {
    /// The modulation format the margins assume.
    pub modulation: Modulation,
    /// Per-source breakdown, in first-appearance (CG edge) order.
    pub sources: Vec<SourceLaserReport>,
    /// Worst single-link launch power — the network requirement when
    /// all channels share one laser rail.
    pub worst_launch_power: Dbm,
    /// Chip total: linear (mW) sum of per-source launch powers.
    pub total_power: Milliwatts,
    /// Whether every source stays under the nonlinearity ceiling.
    pub feasible: bool,
}

/// Whole-network analysis of one mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    /// Application name.
    pub application: String,
    /// Topology description (e.g. `"4×4 mesh"`).
    pub topology: String,
    /// Router name.
    pub router: String,
    /// Per-communication breakdown, in CG edge order.
    pub edges: Vec<EdgeReport>,
    /// Worst-case insertion loss (paper Eq. 3).
    pub worst_case_il: Db,
    /// Worst-case SNR (paper Eq. 4).
    pub worst_case_snr: Db,
    /// Worst (largest) estimated BER across communications.
    pub worst_case_ber: f64,
    /// Laser power each channel needs to cover the worst-case loss.
    pub required_laser_power: Dbm,
    /// Whether the configured laser covers the worst-case loss.
    pub feasible: bool,
    /// WDM channels that fit under the nonlinearity ceiling at this
    /// worst-case loss.
    pub max_wdm_channels: usize,
    /// Per-source laser aggregation (under the objective's modulation
    /// when it names one, OOK otherwise).
    pub laser: LaserReport,
}

impl NetworkReport {
    /// Renders the report as an aligned text table (the tool's
    /// human-facing output).
    #[must_use]
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {} on {} ({} router)",
            self.application, self.topology, self.router
        );
        let _ = writeln!(
            out,
            "{:<14} {:<14} {:>5} {:>5} {:>6} {:>9} {:>9} {:>10}",
            "src", "dst", "s@", "d@", "hops", "IL (dB)", "SNR (dB)", "BER"
        );
        for e in &self.edges {
            let _ = writeln!(
                out,
                "{:<14} {:<14} {:>5} {:>5} {:>6} {:>9.3} {:>9.2} {:>10.2e}",
                e.src_task,
                e.dst_task,
                e.src_tile,
                e.dst_tile,
                e.hops,
                e.insertion_loss.0,
                e.snr.0,
                e.ber
            );
        }
        let _ = writeln!(
            out,
            "worst-case: IL {:.3} dB | SNR {:.2} dB | BER {:.2e}",
            self.worst_case_il.0, self.worst_case_snr.0, self.worst_case_ber
        );
        let _ = writeln!(
            out,
            "power budget: need {:.2} at the laser -> {} | up to {} WDM channels",
            self.required_laser_power,
            if self.feasible {
                "feasible"
            } else {
                "INFEASIBLE"
            },
            self.max_wdm_channels
        );
        let _ = writeln!(
            out,
            "laser budget ({}): {} sources, worst link {:.2}, chip total {:.3} mW -> {}",
            self.laser.modulation,
            self.laser.sources.len(),
            self.laser.worst_launch_power,
            self.laser.total_power.0,
            if self.laser.feasible {
                "feasible"
            } else {
                "INFEASIBLE"
            },
        );
        for s in &self.laser.sources {
            let _ = writeln!(
                out,
                "  {:<14} @{:<3} {:>2} links  worst IL {:>8.3} dB  launch {:>8.3} dBm{}",
                s.src_task,
                s.src_tile,
                s.links,
                s.worst_loss.0,
                s.launch_power.0,
                if s.feasible { "" } else { "  INFEASIBLE" },
            );
        }
        out
    }
}

impl fmt::Display for NetworkReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table())
    }
}

/// Produces the full [`NetworkReport`] for `mapping` on `problem`.
///
/// # Panics
///
/// Panics if `mapping` does not match the problem dimensions (a
/// programming error; use the same problem the mapping was built for).
#[must_use]
pub fn analyze(problem: &MappingProblem, mapping: &Mapping) -> NetworkReport {
    let metrics = problem.evaluator().evaluate(mapping);
    let cg = problem.cg();
    let budget = PowerBudget::new(*problem.params());

    let mut edges = Vec::with_capacity(metrics.edges.len());
    let mut worst_ber = 0.0f64;
    for (e, em) in cg.edges().iter().zip(&metrics.edges) {
        let src_tile = mapping.tile_of_task(e.src.0).0;
        let dst_tile = mapping.tile_of_task(e.dst.0).0;
        let hops = problem
            .evaluator()
            .path_hops(src_tile, dst_tile)
            .expect("mapped tasks occupy distinct tiles");
        let ber = ber_from_snr(em.snr);
        worst_ber = worst_ber.max(ber);
        edges.push(EdgeReport {
            src_task: cg.task_name(e.src).to_owned(),
            dst_task: cg.task_name(e.dst).to_owned(),
            src_tile,
            dst_tile,
            hops,
            insertion_loss: em.insertion_loss,
            snr: em.snr,
            ber,
        });
    }

    // Per-source laser aggregation: each source's requirement is its
    // worst outgoing link, under the objective's modulation when it
    // names one (a `!power`/`!margin` run), OOK otherwise.
    let modulation = problem.objective().modulation().unwrap_or(Modulation::Ook);
    let laser = laser_report(problem, &edges, modulation);

    NetworkReport {
        application: cg.name().to_owned(),
        topology: problem.topology().describe(),
        router: problem.router().name().to_owned(),
        edges,
        worst_case_il: metrics.worst_case_il,
        worst_case_snr: metrics.worst_case_snr,
        worst_case_ber: worst_ber,
        required_laser_power: budget.required_laser_power(metrics.worst_case_il),
        feasible: budget.is_feasible(metrics.worst_case_il),
        max_wdm_channels: budget.max_wdm_channels(metrics.worst_case_il),
        laser,
    }
}

/// Aggregates the edge breakdown into the per-source [`LaserReport`]
/// under `modulation`. Sources appear in CG edge order (first
/// appearance); each one's requirement is its worst outgoing link.
fn laser_report(
    problem: &MappingProblem,
    edges: &[EdgeReport],
    modulation: Modulation,
) -> LaserReport {
    let budget = LaserBudget::new(*problem.params(), modulation);
    let mut sources: Vec<SourceLaserReport> = Vec::new();
    for e in edges {
        match sources.iter_mut().find(|s| s.src_tile == e.src_tile) {
            Some(s) => {
                s.links += 1;
                s.worst_loss = Db(s.worst_loss.0.min(e.insertion_loss.0));
            }
            None => sources.push(SourceLaserReport {
                src_task: e.src_task.clone(),
                src_tile: e.src_tile,
                links: 1,
                worst_loss: e.insertion_loss,
                launch_power: Dbm(f64::NAN), // filled below
                feasible: false,
            }),
        }
    }
    for s in &mut sources {
        s.launch_power = budget.source_launch_power(s.worst_loss);
        s.feasible = budget.is_feasible(s.worst_loss);
    }
    let worst_loss = Db(sources.iter().fold(0.0f64, |w, s| w.min(s.worst_loss.0)));
    let per_source: Vec<Db> = sources.iter().map(|s| s.worst_loss).collect();
    LaserReport {
        modulation,
        worst_launch_power: budget.required_launch_power(worst_loss),
        total_power: budget.total_launch_power(&per_source),
        feasible: sources.iter().all(|s| s.feasible),
        sources,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Objective;
    use phonoc_phys::{Length, PhysicalParameters};
    use phonoc_route::XyRouting;
    use phonoc_router::crux::crux_router;
    use phonoc_topo::Topology;

    fn problem() -> MappingProblem {
        MappingProblem::new(
            phonoc_apps::benchmarks::pip(),
            Topology::mesh(3, 3, Length::from_mm(2.5)),
            crux_router(),
            Box::new(XyRouting),
            PhysicalParameters::default(),
            Objective::MaximizeWorstCaseSnr,
        )
        .unwrap()
    }

    #[test]
    fn report_covers_every_edge() {
        let p = problem();
        let m = Mapping::identity(8, 9);
        let r = analyze(&p, &m);
        assert_eq!(r.edges.len(), p.cg().edge_count());
        assert_eq!(r.application, "PIP");
        assert_eq!(r.topology, "3×3 mesh");
        assert_eq!(r.router, "crux");
    }

    #[test]
    fn worst_cases_are_bounds() {
        let p = problem();
        let m = Mapping::identity(8, 9);
        let r = analyze(&p, &m);
        for e in &r.edges {
            assert!(e.insertion_loss >= r.worst_case_il);
            assert!(e.snr >= r.worst_case_snr);
            assert!(e.ber <= r.worst_case_ber);
        }
    }

    #[test]
    fn small_networks_are_feasible() {
        let p = problem();
        let m = Mapping::identity(8, 9);
        let r = analyze(&p, &m);
        assert!(r.feasible, "a 3×3 mesh is far inside the 26 dB budget");
        assert!(r.max_wdm_channels > 0);
        assert!(r.required_laser_power.0 < 0.0);
    }

    #[test]
    fn laser_report_aggregates_per_source() {
        let p = problem();
        let m = Mapping::identity(8, 9);
        let r = analyze(&p, &m);
        // Plain objectives analyze under OOK.
        assert_eq!(r.laser.modulation, phonoc_phys::Modulation::Ook);
        // Every CG edge is owned by exactly one source laser.
        assert_eq!(
            r.laser.sources.iter().map(|s| s.links).sum::<usize>(),
            r.edges.len()
        );
        let budget = phonoc_phys::LaserBudget::new(*p.params(), phonoc_phys::Modulation::Ook);
        for s in &r.laser.sources {
            // A source's worst loss is the min over its outgoing edges.
            let worst = r
                .edges
                .iter()
                .filter(|e| e.src_tile == s.src_tile)
                .fold(0.0f64, |w, e| w.min(e.insertion_loss.0));
            assert_eq!(s.worst_loss.0, worst, "{}", s.src_task);
            assert_eq!(s.launch_power, budget.source_launch_power(s.worst_loss));
        }
        // The network-wide worst launch power is the per-edge worst
        // case — the exact quantity the power objective minimizes.
        assert_eq!(
            r.laser.worst_launch_power,
            budget.required_launch_power(r.worst_case_il)
        );
        // Chip total is the linear sum of per-source requirements.
        let total: f64 = r
            .laser
            .sources
            .iter()
            .map(|s| s.launch_power.to_milliwatts().0)
            .sum();
        assert!((r.laser.total_power.0 - total).abs() < 1e-12);
        assert!(r.laser.feasible, "3×3 identity mapping is tiny");
    }

    #[test]
    fn power_objectives_analyze_under_their_modulation() {
        let p = MappingProblem::new(
            phonoc_apps::benchmarks::pip(),
            Topology::mesh(3, 3, Length::from_mm(2.5)),
            crux_router(),
            Box::new(XyRouting),
            PhysicalParameters::default(),
            Objective::MinimizeLaserPower {
                modulation: phonoc_phys::Modulation::Pam4,
            },
        )
        .unwrap();
        let m = Mapping::identity(8, 9);
        let r = analyze(&p, &m);
        assert_eq!(r.laser.modulation, phonoc_phys::Modulation::Pam4);
        // PAM-4 demands the eye penalty more power than an OOK report
        // of the same mapping.
        let ook = analyze(&problem(), &m);
        let gap = r.laser.worst_launch_power.0 - ook.laser.worst_launch_power.0;
        assert!((gap - phonoc_phys::Modulation::Pam4.eye_penalty().0).abs() < 1e-12);
        let table = r.to_table();
        assert!(table.contains("laser budget (pam4)"));
    }

    #[test]
    fn table_rendering_mentions_key_facts() {
        let p = problem();
        let m = Mapping::identity(8, 9);
        let r = analyze(&p, &m);
        let table = r.to_table();
        assert!(table.contains("PIP"));
        assert!(table.contains("worst-case"));
        assert!(table.contains("feasible"));
        assert!(table.contains("inp_mem"));
        // Display delegates to to_table.
        assert_eq!(format!("{r}"), table);
    }
}
