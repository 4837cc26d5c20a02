//! Bi-objective (loss, SNR) Pareto-front collection (extension).
//!
//! The paper optimizes either worst-case loss (Eq. 3) *or* worst-case
//! SNR (Eq. 4). The two objectives conflict in general — a loss-optimal
//! mapping packs communications tightly, an SNR-optimal one spreads
//! them apart — so a designer usually wants the trade-off curve rather
//! than two separate optima. [`ParetoFront`] accumulates the
//! non-dominated `(worst-case IL, worst-case SNR)` points seen during
//! any search.
//!
//! # Examples
//!
//! ```
//! use phonoc_core::pareto::ParetoFront;
//! use phonoc_core::Mapping;
//!
//! let mut front: ParetoFront = ParetoFront::new();
//! let m = Mapping::identity(2, 4);
//! front.offer(&m, -2.0, 20.0);
//! front.offer(&m, -1.5, 15.0); // better loss, worse SNR: kept
//! front.offer(&m, -2.5, 10.0); // dominated: dropped
//! assert_eq!(front.len(), 2);
//! ```

use crate::mapping::Mapping;

/// A point on the loss/SNR trade-off curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// The mapping achieving this trade-off.
    pub mapping: Mapping,
    /// Worst-case insertion loss in dB (higher, i.e. closer to 0, is
    /// better).
    pub loss_db: f64,
    /// Worst-case SNR in dB (higher is better).
    pub snr_db: f64,
}

/// A set of mutually non-dominated `(loss, SNR)` points.
///
/// Both coordinates are maximized. A point dominates another if it is
/// at least as good on both axes and strictly better on one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParetoFront {
    points: Vec<ParetoPoint>,
}

impl ParetoFront {
    /// An empty front.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers a candidate; it is inserted iff no existing point
    /// dominates it, evicting any points it dominates. Returns whether
    /// the candidate was kept.
    pub fn offer(&mut self, mapping: &Mapping, loss_db: f64, snr_db: f64) -> bool {
        let dominated = |a_loss: f64, a_snr: f64, b_loss: f64, b_snr: f64| {
            b_loss >= a_loss && b_snr >= a_snr && (b_loss > a_loss || b_snr > a_snr)
        };
        if self.points.iter().any(|p| {
            dominated(loss_db, snr_db, p.loss_db, p.snr_db)
                || (p.loss_db == loss_db && p.snr_db == snr_db)
        }) {
            return false;
        }
        self.points
            .retain(|p| !dominated(p.loss_db, p.snr_db, loss_db, snr_db));
        self.points.push(ParetoPoint {
            mapping: mapping.clone(),
            loss_db,
            snr_db,
        });
        true
    }

    /// Number of points on the front.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the front is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points, sorted by loss (best loss first).
    #[must_use]
    pub fn sorted_points(&self) -> Vec<&ParetoPoint> {
        let mut pts: Vec<&ParetoPoint> = self.points.iter().collect();
        pts.sort_by(|a, b| b.loss_db.total_cmp(&a.loss_db));
        pts
    }

    /// Verifies the mutual non-domination invariant (test helper).
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        for (i, a) in self.points.iter().enumerate() {
            for (j, b) in self.points.iter().enumerate() {
                if i != j
                    && b.loss_db >= a.loss_db
                    && b.snr_db >= a.snr_db
                    && (b.loss_db > a.loss_db || b.snr_db > a.snr_db)
                {
                    return false;
                }
            }
        }
        true
    }
}

/// Samples `samples` random mappings and returns their Pareto front —
/// the cheap baseline front a designer gets without any search.
#[must_use]
pub fn random_front(
    problem: &crate::problem::MappingProblem,
    samples: usize,
    seed: u64,
) -> ParetoFront {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut front = ParetoFront::new();
    for _ in 0..samples {
        let m = Mapping::random(problem.task_count(), problem.tile_count(), &mut rng);
        let metrics = problem.evaluator().evaluate(&m);
        front.offer(&m, metrics.worst_case_il.0, metrics.worst_case_snr.0);
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{MappingProblem, Objective};
    use phonoc_phys::{Length, PhysicalParameters};
    use phonoc_route::XyRouting;
    use phonoc_router::crux::crux_router;
    use phonoc_topo::Topology;

    fn dummy_mapping() -> Mapping {
        Mapping::identity(2, 4)
    }

    #[test]
    fn keeps_non_dominated_points() {
        let mut f = ParetoFront::new();
        let m = dummy_mapping();
        assert!(f.offer(&m, -2.0, 30.0));
        assert!(f.offer(&m, -1.5, 20.0));
        assert!(f.offer(&m, -2.5, 35.0));
        assert_eq!(f.len(), 3);
        assert!(f.is_consistent());
    }

    #[test]
    fn drops_dominated_and_duplicate_points() {
        let mut f = ParetoFront::new();
        let m = dummy_mapping();
        assert!(f.offer(&m, -2.0, 30.0));
        assert!(!f.offer(&m, -2.0, 30.0), "duplicate rejected");
        assert!(!f.offer(&m, -2.1, 29.0), "dominated rejected");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn evicts_newly_dominated_points() {
        let mut f = ParetoFront::new();
        let m = dummy_mapping();
        f.offer(&m, -2.0, 20.0);
        f.offer(&m, -1.8, 18.0);
        // This one dominates both.
        assert!(f.offer(&m, -1.5, 25.0));
        assert_eq!(f.len(), 1);
        assert!(f.is_consistent());
    }

    #[test]
    fn sorted_points_order_by_loss() {
        let mut f = ParetoFront::new();
        let m = dummy_mapping();
        f.offer(&m, -2.5, 40.0);
        f.offer(&m, -1.5, 20.0);
        f.offer(&m, -2.0, 30.0);
        let pts = f.sorted_points();
        assert!((pts[0].loss_db - -1.5).abs() < 1e-12);
        assert!((pts[2].loss_db - -2.5).abs() < 1e-12);
    }

    #[test]
    fn random_front_is_consistent_and_nonempty() {
        let p = MappingProblem::new(
            phonoc_apps::benchmarks::pip(),
            Topology::mesh(3, 3, Length::from_mm(2.5)),
            crux_router(),
            Box::new(XyRouting),
            PhysicalParameters::default(),
            Objective::MaximizeWorstCaseSnr,
        )
        .unwrap();
        let f = random_front(&p, 300, 5);
        assert!(!f.is_empty());
        assert!(f.is_consistent());
        // Multiple trade-off points usually survive for PIP.
        assert!(!f.is_empty());
    }
}
