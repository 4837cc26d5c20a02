//! Laser power budget and WDM scalability analysis (extension).
//!
//! The paper's introduction motivates mapping optimization with the power
//! budget argument: *"the power injected into the chip must be higher than
//! the photodetector sensitivity plus the worst-case power loss. However,
//! the total power cannot exceed a certain threshold due to the
//! nonlinearities of the silicon material. Multiwavelength signals further
//! exacerbate this problem."*
//!
//! This module turns that argument into numbers: given the physical
//! parameters and a worst-case insertion loss produced by the mapping
//! evaluator, it answers
//!
//! * is the network operable at all ([`PowerBudget::is_feasible`])?
//! * how much laser power does each wavelength channel need
//!   ([`PowerBudget::required_laser_power`])?
//! * how many WDM channels fit under the nonlinearity ceiling
//!   ([`PowerBudget::max_wdm_channels`])?
//!
//! # Examples
//!
//! ```
//! use phonoc_phys::budget::PowerBudget;
//! use phonoc_phys::params::PhysicalParameters;
//! use phonoc_phys::units::Db;
//!
//! let budget = PowerBudget::new(PhysicalParameters::default());
//! // A mapping with 2 dB worst-case loss is easily feasible…
//! assert!(budget.is_feasible(Db(-2.0)));
//! // …and leaves room for many WDM channels.
//! assert!(budget.max_wdm_channels(Db(-2.0)) > 100);
//! ```

use crate::params::PhysicalParameters;
use crate::units::{Db, Dbm};

/// Power-budget analyzer for a given physical parameter set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBudget {
    params: PhysicalParameters,
}

impl PowerBudget {
    /// Creates an analyzer over `params`.
    #[must_use]
    pub fn new(params: PhysicalParameters) -> Self {
        PowerBudget { params }
    }

    /// The underlying parameters.
    #[must_use]
    pub fn params(&self) -> &PhysicalParameters {
        &self.params
    }

    /// Laser power per channel needed to detect a signal that suffers
    /// `worst_case_loss` (a negative dB figure): the detector sensitivity
    /// minus the loss.
    ///
    /// ```
    /// use phonoc_phys::budget::PowerBudget;
    /// use phonoc_phys::params::PhysicalParameters;
    /// use phonoc_phys::units::{Db, Dbm};
    ///
    /// let b = PowerBudget::new(PhysicalParameters::default());
    /// // Sensitivity −26 dBm, loss −2 dB → need −24 dBm at the laser.
    /// assert_eq!(b.required_laser_power(Db(-2.0)), Dbm(-24.0));
    /// ```
    #[must_use]
    pub fn required_laser_power(&self, worst_case_loss: Db) -> Dbm {
        self.params.detector_sensitivity + -worst_case_loss
    }

    /// Margin (dB) between the configured laser power and what the
    /// worst-case loss requires. Positive = operable with headroom.
    #[must_use]
    pub fn margin(&self, worst_case_loss: Db) -> Db {
        self.params.laser_power - self.required_laser_power(worst_case_loss)
    }

    /// Whether the configured laser power can cover `worst_case_loss` and
    /// still meet the detector sensitivity.
    #[must_use]
    pub fn is_feasible(&self, worst_case_loss: Db) -> bool {
        self.margin(worst_case_loss).0 >= 0.0
    }

    /// The worst-case loss magnitude the configured laser/detector pair
    /// can tolerate (the scalability wall of the paper's introduction).
    #[must_use]
    pub fn tolerable_loss(&self) -> Db {
        // loss_budget is positive; the tolerable insertion loss is its
        // negation.
        -self.params.loss_budget()
    }

    /// Maximum number of WDM channels that fit under the silicon
    /// nonlinearity ceiling when each channel must individually cover
    /// `worst_case_loss`.
    ///
    /// Each channel needs [`required_laser_power`](Self::required_laser_power);
    /// `n` simultaneous channels multiply the injected power by `n`
    /// (`+10·log10(n)` dB). Returns 0 when even a single channel exceeds
    /// the ceiling.
    #[must_use]
    pub fn max_wdm_channels(&self, worst_case_loss: Db) -> usize {
        let per_channel = self.required_laser_power(worst_case_loss);
        let headroom = self.params.nonlinearity_threshold - per_channel;
        if headroom.0 < 0.0 {
            return 0;
        }
        let n = 10f64.powf(headroom.0 / 10.0);
        n.floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Dbm;

    fn default_budget() -> PowerBudget {
        PowerBudget::new(PhysicalParameters::default())
    }

    #[test]
    fn required_power_adds_loss_to_sensitivity() {
        let b = default_budget();
        assert_eq!(b.required_laser_power(Db(-3.0)), Dbm(-23.0));
        assert_eq!(b.required_laser_power(Db(0.0)), Dbm(-26.0));
    }

    #[test]
    fn margin_and_feasibility_agree() {
        let b = default_budget();
        // Default laser is 0 dBm, sensitivity −26 dBm → 26 dB budget.
        assert!(b.is_feasible(Db(-25.9)));
        assert!(!b.is_feasible(Db(-26.1)));
        assert!((b.margin(Db(-26.0)).0).abs() < 1e-12);
    }

    #[test]
    fn tolerable_loss_mirrors_loss_budget() {
        let b = default_budget();
        assert_eq!(b.tolerable_loss(), Db(-26.0));
    }

    #[test]
    fn wdm_channel_count_shrinks_with_loss() {
        let b = default_budget();
        let light = b.max_wdm_channels(Db(-1.0));
        let heavy = b.max_wdm_channels(Db(-20.0));
        assert!(light > heavy, "more loss must mean fewer channels");
        assert!(heavy >= 1);
    }

    #[test]
    fn wdm_channel_count_exact_value() {
        let b = default_budget();
        // per-channel −24 dBm, ceiling +20 dBm → 44 dB headroom → 10^4.4.
        let n = b.max_wdm_channels(Db(-2.0));
        assert_eq!(n, 25_118);
    }

    #[test]
    fn infeasible_single_channel_returns_zero() {
        let params = PhysicalParameters::builder()
            .nonlinearity_threshold(Dbm(-30.0))
            .build();
        let b = PowerBudget::new(params);
        assert_eq!(b.max_wdm_channels(Db(-10.0)), 0);
    }
}
