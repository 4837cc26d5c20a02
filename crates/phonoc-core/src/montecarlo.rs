//! Monte-Carlo validation of the worst-case crosstalk analysis
//! (extension).
//!
//! The paper's evaluator assumes *all* communications transmit
//! simultaneously — the worst case. Real traffic has duty cycles below
//! one, so the realized SNR of any communication is at least the
//! worst-case figure. This module samples random activity patterns
//! (each communication independently active with probability
//! `activity`) and aggregates the realized worst-case SNR distribution,
//! giving two things:
//!
//! * a **validation oracle**: no sampled configuration may ever be worse
//!   than the analytical worst case (property-tested),
//! * a **pessimism estimate**: how much margin the worst-case bound
//!   leaves at realistic duty cycles, which is the data a designer needs
//!   to decide whether worst-case sizing of the laser is wasteful.
//!
//! # Examples
//!
//! ```
//! use phonoc_core::montecarlo::{activity_study, ActivityStudy};
//! use phonoc_core::{Mapping, MappingProblem, Objective};
//! use phonoc_phys::{Length, PhysicalParameters};
//! use phonoc_route::XyRouting;
//! use phonoc_router::crux::crux_router;
//! use phonoc_topo::Topology;
//!
//! # fn main() -> Result<(), phonoc_core::CoreError> {
//! let problem = MappingProblem::new(
//!     phonoc_apps::benchmarks::pip(),
//!     Topology::mesh(3, 3, Length::from_mm(2.5)),
//!     crux_router(),
//!     Box::new(XyRouting),
//!     PhysicalParameters::default(),
//!     Objective::MaximizeWorstCaseSnr,
//! )?;
//! let mapping = Mapping::identity(8, 9);
//! let study: ActivityStudy = activity_study(&problem, &mapping, 0.5, 200, 7);
//! assert!(study.min_sampled_snr >= study.worst_case_snr);
//! # Ok(())
//! # }
//! ```

use crate::mapping::Mapping;
use crate::problem::MappingProblem;
use phonoc_phys::Db;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a Monte-Carlo activity study.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityStudy {
    /// Per-communication activity probability used for sampling.
    pub activity: f64,
    /// Number of sampled activity patterns.
    pub samples: usize,
    /// The analytical worst case (all communications active).
    pub worst_case_snr: Db,
    /// Worst realized SNR over all samples (≥ `worst_case_snr`).
    pub min_sampled_snr: Db,
    /// Mean over samples of the realized worst-case SNR.
    pub mean_sampled_snr: Db,
    /// Fraction of samples whose realized worst case equals the SNR
    /// ceiling (no interference at all).
    pub interference_free_fraction: f64,
}

impl ActivityStudy {
    /// The pessimism margin of the worst-case bound at this duty cycle:
    /// `mean_sampled − worst_case` in dB.
    #[must_use]
    pub fn pessimism(&self) -> Db {
        self.mean_sampled_snr - self.worst_case_snr
    }
}

/// Samples `samples` random activity patterns (each communication active
/// independently with probability `activity`) and summarizes the
/// realized worst-case SNR.
///
/// # Panics
///
/// Panics if `activity` is outside `[0, 1]` or `samples == 0`.
#[must_use]
pub fn activity_study(
    problem: &MappingProblem,
    mapping: &Mapping,
    activity: f64,
    samples: usize,
    seed: u64,
) -> ActivityStudy {
    assert!((0.0..=1.0).contains(&activity), "activity must be in [0,1]");
    assert!(samples > 0, "need at least one sample");
    let evaluator = problem.evaluator();
    let edge_count = evaluator.edge_count();
    let worst = evaluator.evaluate(mapping).worst_case_snr;
    let ceiling = evaluator.snr_ceiling();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut mask = vec![false; edge_count];
    let mut min_snr = f64::INFINITY;
    let mut sum_snr = 0.0f64;
    let mut free = 0usize;
    // One reused scratch for the whole sampling loop: after the first
    // sample, evaluations are allocation-free.
    let mut scratch = crate::evaluator::EvalScratch::default();
    for _ in 0..samples {
        for slot in &mut mask {
            *slot = rng.gen_bool(activity);
        }
        let summary = evaluator.evaluate_into(mapping, Some(&mask), &mut scratch);
        let snr = summary.worst_case_snr.0;
        min_snr = min_snr.min(snr);
        sum_snr += snr;
        if (snr - ceiling.0).abs() < 1e-12 {
            free += 1;
        }
    }
    ActivityStudy {
        activity,
        samples,
        worst_case_snr: worst,
        min_sampled_snr: Db(min_snr),
        mean_sampled_snr: Db(sum_snr / samples as f64),
        interference_free_fraction: free as f64 / samples as f64,
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
            phonoc_apps::benchmarks::mpeg4(),
            Topology::mesh(4, 3, Length::from_mm(2.5)),
            crux_router(),
            Box::new(XyRouting),
            PhysicalParameters::default(),
            Objective::MaximizeWorstCaseSnr,
        )
        .unwrap()
    }

    #[test]
    fn worst_case_bounds_every_sample() {
        let p = problem();
        let m = Mapping::identity(p.task_count(), p.tile_count());
        for activity in [0.1, 0.5, 0.9] {
            let s = activity_study(&p, &m, activity, 300, 11);
            assert!(
                s.min_sampled_snr >= s.worst_case_snr,
                "activity {activity}: sampled {} below bound {}",
                s.min_sampled_snr,
                s.worst_case_snr
            );
        }
    }

    #[test]
    fn full_activity_recovers_the_worst_case() {
        let p = problem();
        let m = Mapping::identity(p.task_count(), p.tile_count());
        let s = activity_study(&p, &m, 1.0, 5, 3);
        assert_eq!(s.min_sampled_snr, s.worst_case_snr);
        assert_eq!(s.mean_sampled_snr, s.worst_case_snr);
    }

    #[test]
    fn zero_activity_is_interference_free() {
        let p = problem();
        let m = Mapping::identity(p.task_count(), p.tile_count());
        let s = activity_study(&p, &m, 0.0, 10, 3);
        assert!((s.interference_free_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lower_duty_cycles_mean_more_margin() {
        let p = problem();
        let m = Mapping::identity(p.task_count(), p.tile_count());
        let low = activity_study(&p, &m, 0.2, 400, 9);
        let high = activity_study(&p, &m, 0.9, 400, 9);
        assert!(
            low.mean_sampled_snr >= high.mean_sampled_snr,
            "less activity cannot mean more noise: {} vs {}",
            low.mean_sampled_snr,
            high.mean_sampled_snr
        );
        assert!(low.pessimism().0 >= 0.0);
    }

    #[test]
    #[should_panic(expected = "activity")]
    fn rejects_bad_activity() {
        let p = problem();
        let m = Mapping::identity(p.task_count(), p.tile_count());
        let _ = activity_study(&p, &m, 1.5, 10, 0);
    }
}
