//! The mapping problem: application + architecture + objective
//! (paper Section II-D1).

use crate::error::CoreError;
use crate::evaluator::{Evaluator, NetworkMetrics};
use crate::mapping::Mapping;
use phonoc_apps::CommunicationGraph;
use phonoc_phys::{Db, Modulation, PhysicalParameters};
use phonoc_route::RoutingAlgorithm;
use phonoc_router::RouterModel;
use phonoc_topo::Topology;
use std::fmt;

/// The optimization objectives: the paper's two (Eqs. 3 and 4) plus the
/// cross-layer **power family** built on
/// [`phonoc_phys::modulation`](phonoc_phys::Modulation).
///
/// Every objective reduces a mapping to a scalar **score where higher
/// is always better**, and every score is a function of the two
/// worst-case figures the incremental evaluator maintains
/// ([`score_worst_cases`](Self::score_worst_cases)) — that narrow waist
/// is what lets a third objective family ride the existing
/// full/delta/bounded/hybrid peek machinery bit-identically:
///
/// * **Loss-based** ([`is_loss_based`](Self::is_loss_based)):
///   `MinimizeWorstCaseLoss` scores the worst-case IL itself;
///   `MinimizeLaserPower` shifts it by the modulation's required SNR
///   margin, so the score is the negated worst-link launch power in
///   dBm modulo the (mapping-independent) detector sensitivity —
///   minimizing launch power ≡ minimizing worst-case loss at a
///   modulation-dependent offset. Both ride the crosstalk-free loss
///   fast path.
/// * **SNR-based** ([`uses_snr`](Self::uses_snr)):
///   `MaximizeWorstCaseSnr` scores the worst-case SNR;
///   `MaximizeSnrMargin` scores the *headroom* above the modulation's
///   required SNR (positive = the worst link closes its 10⁻⁹ BER
///   target). Both ride the exact-delta and bound-then-verify peeks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize the worst-case insertion loss magnitude (Eq. 3).
    MinimizeWorstCaseLoss,
    /// Maximize the worst-case (minimum) SNR (Eq. 4).
    MaximizeWorstCaseSnr,
    /// Minimize the worst-link laser launch power under a modulation
    /// format: score = `worst_il − required_snr_margin` (dB; higher is
    /// better, i.e. less power). The absolute launch power in dBm is
    /// `detector_sensitivity − score` — see
    /// [`phonoc_phys::LaserBudget`].
    MinimizeLaserPower {
        /// The modulation format whose SNR margin sets the power floor.
        modulation: Modulation,
    },
    /// Maximize the SNR margin above a modulation's BER requirement:
    /// score = `worst_snr − required_snr_margin` (dB; ≥ 0 means every
    /// link closes the 10⁻⁹ BER target).
    MaximizeSnrMargin {
        /// The modulation format whose required SNR is the baseline.
        modulation: Modulation,
    },
}

impl Objective {
    /// All objectives over both modulation presets, for sweeps/tests.
    pub const ALL: [Objective; 6] = [
        Objective::MinimizeWorstCaseLoss,
        Objective::MaximizeWorstCaseSnr,
        Objective::MinimizeLaserPower {
            modulation: Modulation::Ook,
        },
        Objective::MinimizeLaserPower {
            modulation: Modulation::Pam4,
        },
        Objective::MaximizeSnrMargin {
            modulation: Modulation::Ook,
        },
        Objective::MaximizeSnrMargin {
            modulation: Modulation::Pam4,
        },
    ];

    /// Scalar score of a metrics record under this objective.
    /// **Higher is always better** for every variant, so all objectives
    /// fit the same search interface.
    #[must_use]
    pub fn score(&self, metrics: &NetworkMetrics) -> f64 {
        self.score_worst_cases(metrics.worst_case_il, metrics.worst_case_snr)
    }

    /// Scalar score from the two worst-case figures alone — the form
    /// incremental evaluation produces (see
    /// [`ScoreDelta`](crate::evaluator::ScoreDelta)). This is the
    /// narrow waist every peek route scores through, which is what
    /// makes Full/Delta/Bounded/Hybrid bit-identical per objective.
    #[must_use]
    pub fn score_worst_cases(&self, worst_il: Db, worst_snr: Db) -> f64 {
        if self.is_loss_based() {
            self.score_worst_il(worst_il)
        } else {
            self.score_worst_snr(worst_snr)
        }
    }

    /// Score of a loss-based objective from the worst-case insertion
    /// loss alone — what the loss-route peeks produce. Must only be
    /// called when [`is_loss_based`](Self::is_loss_based).
    #[must_use]
    pub fn score_worst_il(&self, worst_il: Db) -> f64 {
        debug_assert!(self.is_loss_based());
        match self {
            Objective::MinimizeLaserPower { modulation } => {
                worst_il.0 - modulation.required_snr_margin().0
            }
            _ => worst_il.0,
        }
    }

    /// Score of an SNR-based objective from the worst-case SNR alone —
    /// what the delta/bounded SNR peeks produce. Must only be called
    /// when [`uses_snr`](Self::uses_snr).
    #[must_use]
    pub fn score_worst_snr(&self, worst_snr: Db) -> f64 {
        debug_assert!(self.uses_snr());
        match self {
            Objective::MaximizeSnrMargin { modulation } => {
                worst_snr.0 - modulation.required_snr_margin().0
            }
            _ => worst_snr.0,
        }
    }

    /// Whether this objective's score is a function of the worst-case
    /// SNR (crosstalk-coupled: peeks need the delta/bounded SNR
    /// machinery). The complement of [`is_loss_based`](Self::is_loss_based).
    #[must_use]
    pub fn uses_snr(&self) -> bool {
        matches!(
            self,
            Objective::MaximizeWorstCaseSnr | Objective::MaximizeSnrMargin { .. }
        )
    }

    /// Whether this objective's score is a function of the worst-case
    /// insertion loss only (crosstalk-free: peeks ride the loss fast
    /// path).
    #[must_use]
    pub fn is_loss_based(&self) -> bool {
        !self.uses_snr()
    }

    /// The modulation format a power-family objective is parameterized
    /// by (`None` for the paper's two plain objectives).
    #[must_use]
    pub fn modulation(&self) -> Option<Modulation> {
        match self {
            Objective::MinimizeWorstCaseLoss | Objective::MaximizeWorstCaseSnr => None,
            Objective::MinimizeLaserPower { modulation }
            | Objective::MaximizeSnrMargin { modulation } => Some(*modulation),
        }
    }

    /// The constant the score subtracts from its worst-case figure
    /// (zero for the plain objectives, the modulation's required SNR
    /// margin for the power family).
    fn margin(&self) -> f64 {
        match self.modulation() {
            None => 0.0,
            Some(m) => m.required_snr_margin().0,
        }
    }

    /// The **admissible rejection threshold** bound-then-verify peeks
    /// need: the largest worst-case figure `t` (worst-case SNR for
    /// SNR-based objectives, worst-case IL for loss-based ones) such
    /// that any candidate whose bound is `≤ t` is guaranteed to score
    /// `≤ score`. For the plain objectives this is exactly `Db(score)`;
    /// for the power family it is `score + margin` nudged down until
    /// `t − margin ≤ score` holds, verified directly so the
    /// admissibility argument never depends on FP round-trip identities
    /// (FP subtraction is monotone, so `x ≤ t` ⇒
    /// `x − margin ≤ t − margin ≤ score`).
    #[must_use]
    pub fn threshold_for_score(&self, score: f64) -> Db {
        let margin = self.margin();
        if margin == 0.0 {
            return Db(score);
        }
        let mut t = score + margin;
        while t - margin > score {
            t = f64::from_bits(if t > 0.0 || (t == 0.0 && t.is_sign_positive()) {
                t.to_bits() - 1
            } else {
                t.to_bits() + 1
            });
        }
        Db(t)
    }

    /// Canonical spec-suffix name, as accepted by
    /// [`by_name`](Self::by_name) and printed in search-spec canonical
    /// strings (`!power`, `!margin-pam4`, …).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Objective::MinimizeWorstCaseLoss => "loss",
            Objective::MaximizeWorstCaseSnr => "snr",
            Objective::MinimizeLaserPower { modulation } => match modulation {
                Modulation::Ook => "power",
                Modulation::Pam4 => "power-pam4",
            },
            Objective::MaximizeSnrMargin { modulation } => match modulation {
                Modulation::Ook => "margin",
                Modulation::Pam4 => "margin-pam4",
            },
        }
    }

    /// Parses a spec-suffix name (case-insensitive): `"loss"`, `"snr"`,
    /// `"power"`/`"power-ook"`, `"power-pam4"`, `"margin"`/
    /// `"margin-ook"`, `"margin-pam4"`.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Objective> {
        match name.to_lowercase().as_str() {
            "loss" => Some(Objective::MinimizeWorstCaseLoss),
            "snr" => Some(Objective::MaximizeWorstCaseSnr),
            "power" | "power-ook" => Some(Objective::MinimizeLaserPower {
                modulation: Modulation::Ook,
            }),
            "power-pam4" => Some(Objective::MinimizeLaserPower {
                modulation: Modulation::Pam4,
            }),
            "margin" | "margin-ook" => Some(Objective::MaximizeSnrMargin {
                modulation: Modulation::Ook,
            }),
            "margin-pam4" => Some(Objective::MaximizeSnrMargin {
                modulation: Modulation::Pam4,
            }),
            _ => None,
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::MinimizeWorstCaseLoss => write!(f, "worst-case loss"),
            Objective::MaximizeWorstCaseSnr => write!(f, "worst-case SNR"),
            Objective::MinimizeLaserPower { modulation } => {
                write!(f, "laser power ({modulation})")
            }
            Objective::MaximizeSnrMargin { modulation } => {
                write!(f, "SNR margin ({modulation})")
            }
        }
    }
}

/// A fully assembled mapping problem: the CG, the NoC architecture
/// (topology + router + routing), the physical parameters, the objective
/// and the precomputed [`Evaluator`].
pub struct MappingProblem {
    cg: CommunicationGraph,
    topology: Topology,
    router: RouterModel,
    routing: Box<dyn RoutingAlgorithm>,
    params: PhysicalParameters,
    objective: Objective,
    evaluator: Evaluator,
}

impl fmt::Debug for MappingProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappingProblem")
            .field("cg", &self.cg.name())
            .field("topology", &self.topology.describe())
            .field("router", &self.router.name())
            .field("routing", &self.routing.name())
            .field("objective", &self.objective)
            .finish_non_exhaustive()
    }
}

impl MappingProblem {
    /// Assembles a problem and precomputes its evaluator.
    ///
    /// # Errors
    ///
    /// Propagates every [`CoreError`] from [`Evaluator::new`]: size
    /// violations, routing failures, router/routing incompatibilities and
    /// bad parameters.
    pub fn new(
        cg: CommunicationGraph,
        topology: Topology,
        router: RouterModel,
        routing: Box<dyn RoutingAlgorithm>,
        params: PhysicalParameters,
        objective: Objective,
    ) -> Result<MappingProblem, CoreError> {
        let evaluator = Evaluator::new(&cg, &topology, &router, routing.as_ref(), &params)?;
        Ok(MappingProblem {
            cg,
            topology,
            router,
            routing,
            params,
            objective,
            evaluator,
        })
    }

    /// The application communication graph.
    #[must_use]
    pub fn cg(&self) -> &CommunicationGraph {
        &self.cg
    }

    /// The NoC topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The optical router model.
    #[must_use]
    pub fn router(&self) -> &RouterModel {
        &self.router
    }

    /// The routing algorithm.
    #[must_use]
    pub fn routing(&self) -> &dyn RoutingAlgorithm {
        self.routing.as_ref()
    }

    /// The physical parameter set.
    #[must_use]
    pub fn params(&self) -> &PhysicalParameters {
        &self.params
    }

    /// The optimization objective.
    #[must_use]
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The precomputed evaluator.
    #[must_use]
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// Number of tasks to place.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.cg.task_count()
    }

    /// Number of tiles available.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.topology.tile_count()
    }

    /// Evaluates a mapping and returns `(metrics, score)` under the
    /// problem objective (higher score = better).
    #[must_use]
    pub fn evaluate(&self, mapping: &Mapping) -> (NetworkMetrics, f64) {
        let metrics = self.evaluator.evaluate(mapping);
        let score = self.objective.score(&metrics);
        (metrics, score)
    }

    /// Re-weights existing CG edges in place (a traffic phase
    /// transition). No evaluator table reads a weight, so only the CG
    /// changes — see the [`Evaluator`] module docs on incremental
    /// mutation.
    ///
    /// # Errors
    ///
    /// [`CoreError::Mutation`] for missing edges, out-of-range tasks or
    /// invalid bandwidths; the batch is all-or-nothing.
    pub fn update_edge_bandwidths(
        &mut self,
        updates: &[(phonoc_apps::TaskId, phonoc_apps::TaskId, f64)],
    ) -> Result<(), CoreError> {
        self.cg
            .update_bandwidths(updates)
            .map_err(|e| CoreError::Mutation(e.to_string()))
    }

    /// Adds a new communication `src → dst`, appending it to both the
    /// CG and the evaluator's edge caches (O(1); the expensive
    /// architecture tables are reused).
    ///
    /// # Errors
    ///
    /// [`CoreError::Mutation`] for unknown tasks, self-loops, duplicate
    /// edges or invalid bandwidths.
    pub fn add_edge(
        &mut self,
        src: phonoc_apps::TaskId,
        dst: phonoc_apps::TaskId,
        bandwidth: f64,
    ) -> Result<(), CoreError> {
        self.cg
            .add_edge(src, dst, bandwidth)
            .map_err(|e| CoreError::Mutation(e.to_string()))?;
        self.evaluator
            .add_edge(src.0, dst.0)
            .expect("CG accepted the edge, so the evaluator must too");
        Ok(())
    }

    /// Removes the communication `src → dst` from both the CG and the
    /// evaluator's edge caches (later edges shift down positionally in
    /// both).
    ///
    /// # Errors
    ///
    /// [`CoreError::Mutation`] for unknown tasks or a missing edge.
    pub fn remove_edge(
        &mut self,
        src: phonoc_apps::TaskId,
        dst: phonoc_apps::TaskId,
    ) -> Result<(), CoreError> {
        let idx = self
            .cg
            .remove_edge(src, dst)
            .map_err(|e| CoreError::Mutation(e.to_string()))?;
        self.evaluator
            .remove_edge(idx)
            .expect("CG held the edge at this index, so the evaluator must too");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonoc_phys::{Db, Length};
    use phonoc_route::XyRouting;
    use phonoc_router::crux::crux_router;

    fn problem(objective: Objective) -> MappingProblem {
        MappingProblem::new(
            phonoc_apps::benchmarks::pip(),
            Topology::mesh(3, 3, Length::from_mm(2.5)),
            crux_router(),
            Box::new(XyRouting),
            PhysicalParameters::default(),
            objective,
        )
        .unwrap()
    }

    #[test]
    fn scores_point_in_the_right_direction() {
        let metrics_good = NetworkMetrics {
            edges: vec![],
            worst_case_il: Db(-1.5),
            worst_case_snr: Db(38.0),
        };
        let metrics_bad = NetworkMetrics {
            edges: vec![],
            worst_case_il: Db(-3.0),
            worst_case_snr: Db(15.0),
        };
        for o in Objective::ALL {
            assert!(
                o.score(&metrics_good) > o.score(&metrics_bad),
                "{o}: better metrics must score higher"
            );
        }
    }

    #[test]
    fn power_scores_are_margin_shifted_worst_cases() {
        use phonoc_phys::Modulation;
        let il = Db(-4.25);
        let snr = Db(22.5);
        for m in Modulation::ALL {
            let power = Objective::MinimizeLaserPower { modulation: m };
            let margin = Objective::MaximizeSnrMargin { modulation: m };
            assert_eq!(
                power.score_worst_cases(il, snr),
                il.0 - m.required_snr_margin().0
            );
            assert_eq!(
                margin.score_worst_cases(il, snr),
                snr.0 - m.required_snr_margin().0
            );
        }
    }

    #[test]
    fn objective_families_partition() {
        for o in Objective::ALL {
            assert_ne!(o.uses_snr(), o.is_loss_based(), "{o}");
        }
        assert!(Objective::MinimizeWorstCaseLoss.is_loss_based());
        assert!(Objective::MaximizeWorstCaseSnr.uses_snr());
        assert!(Objective::by_name("power").unwrap().is_loss_based());
        assert!(Objective::by_name("margin-pam4").unwrap().uses_snr());
    }

    #[test]
    fn objective_names_round_trip() {
        for o in Objective::ALL {
            assert_eq!(Objective::by_name(o.name()), Some(o), "{o}");
        }
        assert_eq!(Objective::by_name("POWER-OOK"), Objective::by_name("power"));
        assert_eq!(Objective::by_name("energy"), None);
    }

    #[test]
    fn thresholds_are_admissible_and_tight() {
        // For every objective and a spread of scores: the threshold t
        // must satisfy t − margin ≤ score (admissible), and be within a
        // few ulps of score + margin (tight).
        for o in Objective::ALL {
            let margin = match o.modulation() {
                None => 0.0,
                Some(m) => m.required_snr_margin().0,
            };
            for score in [-37.25, -1e-3, 0.0, 0.1875, 19.75, 93.5] {
                let t = o.threshold_for_score(score);
                assert!(
                    t.0 - margin <= score,
                    "{o}: threshold {t:?} not admissible for score {score}"
                );
                assert!(
                    (t.0 - (score + margin)).abs() <= (score + margin).abs() * 1e-12 + 1e-12,
                    "{o}: threshold {t:?} too loose for score {score}"
                );
            }
            // Plain objectives must pass the score through exactly.
            if o.modulation().is_none() {
                assert_eq!(o.threshold_for_score(17.5).0, 17.5);
                assert_eq!(o.threshold_for_score(-3.25).0, -3.25);
            }
        }
    }

    #[test]
    fn problem_assembles_and_evaluates() {
        let p = problem(Objective::MaximizeWorstCaseSnr);
        assert_eq!(p.task_count(), 8);
        assert_eq!(p.tile_count(), 9);
        let m = Mapping::identity(8, 9);
        let (metrics, score) = p.evaluate(&m);
        assert_eq!(metrics.edges.len(), p.cg().edge_count());
        assert!((score - metrics.worst_case_snr.0).abs() < 1e-12);
    }

    #[test]
    fn debug_mentions_the_parts() {
        let p = problem(Objective::MinimizeWorstCaseLoss);
        let dbg = format!("{p:?}");
        assert!(dbg.contains("PIP"));
        assert!(dbg.contains("crux"));
        assert!(dbg.contains("3×3 mesh"));
    }

    #[test]
    fn objective_display() {
        assert_eq!(
            Objective::MinimizeWorstCaseLoss.to_string(),
            "worst-case loss"
        );
        assert_eq!(
            Objective::MaximizeWorstCaseSnr.to_string(),
            "worst-case SNR"
        );
        assert_eq!(
            Objective::by_name("power-pam4").unwrap().to_string(),
            "laser power (pam4)"
        );
        assert_eq!(
            Objective::by_name("margin").unwrap().to_string(),
            "SNR margin (ook)"
        );
    }

    #[test]
    fn a_nan_snr_ceiling_is_rejected_up_front() {
        let err = MappingProblem::new(
            phonoc_apps::benchmarks::pip(),
            Topology::mesh(3, 3, Length::from_mm(2.5)),
            crux_router(),
            Box::new(XyRouting),
            PhysicalParameters::builder()
                .snr_ceiling(Db(f64::NAN))
                .build(),
            Objective::MaximizeWorstCaseSnr,
        )
        .unwrap_err();
        assert!(
            matches!(&err, CoreError::BadParameters(msg) if msg.contains("snr_ceiling")),
            "got {err}"
        );
    }
}
