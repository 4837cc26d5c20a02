//! Physical loss and crosstalk parameters (paper Table I) plus the
//! system-level constants needed by the power-budget extension.
//!
//! The defaults reproduce Table I of the paper exactly:
//!
//! | Parameter | Notation | Value |
//! |-----------|----------|-------|
//! | Crossing loss | `Lc` | −0.04 dB |
//! | Propagation loss in silicon | `Lp` | −0.274 dB/cm |
//! | Power loss per PPSE, OFF | `Lp,off` | −0.005 dB |
//! | Power loss per PPSE, ON | `Lp,on` | −0.5 dB |
//! | Power loss per CPSE, OFF | `Lc,off` | −0.045 dB |
//! | Power loss per CPSE, ON | `Lc,on` | −0.5 dB |
//! | Crossing crosstalk | `Kc` | −40 dB |
//! | Crosstalk per PSE, OFF | `Kp,off` | −20 dB |
//! | Crosstalk per PSE, ON | `Kp,on` | −25 dB |
//!
//! # Examples
//!
//! ```
//! use phonoc_phys::params::PhysicalParameters;
//! use phonoc_phys::units::Db;
//!
//! let table1 = PhysicalParameters::default();
//! assert_eq!(table1.crossing_loss, Db(-0.04));
//!
//! // A hypothetical improved crossing:
//! let tuned = PhysicalParameters::builder()
//!     .crossing_loss(Db(-0.02))
//!     .build();
//! assert_eq!(tuned.crossing_loss, Db(-0.02));
//! assert_eq!(tuned.ppse_on_loss, Db(-0.5)); // untouched fields keep Table I
//! ```

use crate::units::{Db, Dbm};

/// The complete set of physical-layer coefficients used by the loss and
/// crosstalk models.
///
/// All `Db` fields follow the negative-is-loss convention of
/// [`crate::units::Db`]. Construct with [`PhysicalParameters::default`] for
/// the paper's Table I values, or with [`PhysicalParameters::builder`] to
/// override individual coefficients (e.g. to model a different fabrication
/// process, which is exactly the "extend the library with new photonic
/// building blocks" use case of the paper's Section II-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalParameters {
    /// `Lc`: loss of a waveguide crossing traversal (Ding et al. 2010).
    pub crossing_loss: Db,
    /// `Lp`: propagation loss in silicon waveguide, per centimetre
    /// (Dong et al. 2010).
    pub propagation_loss_per_cm: Db,
    /// `Lp,off`: loss of passing a parallel PSE in OFF resonance
    /// (Chan et al. 2011).
    pub ppse_off_loss: Db,
    /// `Lp,on`: loss of being dropped by a parallel PSE in ON resonance
    /// (Chan et al. 2011).
    pub ppse_on_loss: Db,
    /// `Lc,off`: loss of passing a crossing PSE in OFF resonance.
    pub cpse_off_loss: Db,
    /// `Lc,on`: loss of being dropped by a crossing PSE in ON resonance
    /// (Lee et al. 2008).
    pub cpse_on_loss: Db,
    /// `Kc`: crosstalk coefficient of a waveguide crossing (Ding et al.
    /// 2010).
    pub crossing_crosstalk: Db,
    /// `Kp,off`: crosstalk coefficient of a PSE in OFF resonance
    /// (Chan et al. 2011).
    pub pse_off_crosstalk: Db,
    /// `Kp,on`: crosstalk coefficient of a PSE in ON resonance
    /// (Chan et al. 2011).
    pub pse_on_crosstalk: Db,
    /// Laser power injected per wavelength channel. Not part of Table I;
    /// used by the power-budget / scalability analysis. Default 0 dBm.
    pub laser_power: Dbm,
    /// Photodetector sensitivity: the minimum power required for correct
    /// detection. Default −26 dBm (typical for chip-scale Ge detectors in
    /// the system-level literature, e.g. Chan et al. 2011).
    pub detector_sensitivity: Dbm,
    /// Maximum total power that can be injected into a waveguide before
    /// silicon nonlinearities distort the signal. Default +20 dBm.
    pub nonlinearity_threshold: Dbm,
    /// SNR value reported for a communication that suffers no crosstalk at
    /// all (no aggressor shares any element with it). Default 100 dB,
    /// comfortably above the ≈40 dB single-crossing bound.
    pub snr_ceiling: Db,
}

impl Default for PhysicalParameters {
    /// Table I of the paper, plus documented defaults for the
    /// power-budget extension fields.
    fn default() -> Self {
        PhysicalParameters {
            crossing_loss: Db(-0.04),
            propagation_loss_per_cm: Db(-0.274),
            ppse_off_loss: Db(-0.005),
            ppse_on_loss: Db(-0.5),
            cpse_off_loss: Db(-0.045),
            cpse_on_loss: Db(-0.5),
            crossing_crosstalk: Db(-40.0),
            pse_off_crosstalk: Db(-20.0),
            pse_on_crosstalk: Db(-25.0),
            laser_power: Dbm(0.0),
            detector_sensitivity: Dbm(-26.0),
            nonlinearity_threshold: Dbm(20.0),
            snr_ceiling: Db(100.0),
        }
    }
}

impl PhysicalParameters {
    /// Returns a builder pre-loaded with the Table I defaults.
    #[must_use]
    pub fn builder() -> PhysicalParametersBuilder {
        PhysicalParametersBuilder {
            params: PhysicalParameters::default(),
        }
    }

    /// The optical power budget available to cover worst-case insertion
    /// loss: `laser_power − detector_sensitivity`, as a positive dB margin.
    ///
    /// A network is *feasible* only if its worst-case insertion loss
    /// magnitude stays below this budget (paper Section I).
    #[must_use]
    pub fn loss_budget(&self) -> Db {
        self.laser_power - self.detector_sensitivity
    }

    /// Validates physical plausibility: every loss coefficient must be
    /// non-positive and every crosstalk coefficient strictly negative,
    /// and the SNR ceiling finite and strictly positive.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        let losses = [
            ("Lc", self.crossing_loss),
            ("Lp", self.propagation_loss_per_cm),
            ("Lp,off", self.ppse_off_loss),
            ("Lp,on", self.ppse_on_loss),
            ("Lc,off", self.cpse_off_loss),
            ("Lc,on", self.cpse_on_loss),
        ];
        for (name, v) in losses {
            if v.0 > 0.0 {
                return Err(format!("loss coefficient {name} must be <= 0 dB, got {v}"));
            }
            if !v.0.is_finite() {
                return Err(format!("loss coefficient {name} must be finite, got {v}"));
            }
        }
        let crosstalks = [
            ("Kc", self.crossing_crosstalk),
            ("Kp,off", self.pse_off_crosstalk),
            ("Kp,on", self.pse_on_crosstalk),
        ];
        for (name, v) in crosstalks {
            if v.0 >= 0.0 || !v.0.is_finite() {
                return Err(format!(
                    "crosstalk coefficient {name} must be < 0 dB, got {v}"
                ));
            }
        }
        // `!(x > 0)` also catches NaN, which no comparison passes.
        let ceiling = self.snr_ceiling.0;
        if !(ceiling > 0.0 && ceiling.is_finite()) {
            return Err(format!(
                "snr_ceiling must be finite and > 0 dB, got {}",
                self.snr_ceiling
            ));
        }
        if self.loss_budget().0 <= 0.0 {
            return Err(format!(
                "laser power {} does not exceed detector sensitivity {}",
                self.laser_power, self.detector_sensitivity
            ));
        }
        Ok(())
    }
}

/// Non-consuming builder for [`PhysicalParameters`] ([C-BUILDER]).
///
/// Every field starts at its Table I default; call the setter for each
/// coefficient you want to override, then [`build`](Self::build).
#[derive(Debug, Clone)]
pub struct PhysicalParametersBuilder {
    params: PhysicalParameters,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident : $ty:ty),+ $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(&mut self, value: $ty) -> &mut Self {
                self.params.$name = value;
                self
            }
        )+
    };
}

impl PhysicalParametersBuilder {
    builder_setters! {
        /// Sets `Lc`, the waveguide-crossing loss.
        crossing_loss: Db,
        /// Sets `Lp`, the propagation loss per centimetre.
        propagation_loss_per_cm: Db,
        /// Sets `Lp,off`, the OFF-state parallel-PSE pass loss.
        ppse_off_loss: Db,
        /// Sets `Lp,on`, the ON-state parallel-PSE drop loss.
        ppse_on_loss: Db,
        /// Sets `Lc,off`, the OFF-state crossing-PSE pass loss.
        cpse_off_loss: Db,
        /// Sets `Lc,on`, the ON-state crossing-PSE drop loss.
        cpse_on_loss: Db,
        /// Sets `Kc`, the crossing crosstalk coefficient.
        crossing_crosstalk: Db,
        /// Sets `Kp,off`, the OFF-state PSE crosstalk coefficient.
        pse_off_crosstalk: Db,
        /// Sets `Kp,on`, the ON-state PSE crosstalk coefficient.
        pse_on_crosstalk: Db,
        /// Sets the per-channel laser power (power-budget extension).
        laser_power: Dbm,
        /// Sets the photodetector sensitivity (power-budget extension).
        detector_sensitivity: Dbm,
        /// Sets the silicon nonlinearity power ceiling.
        nonlinearity_threshold: Dbm,
        /// Sets the SNR value reported for crosstalk-free communications.
        snr_ceiling: Db,
    }

    /// Finalizes the parameter set.
    #[must_use]
    pub fn build(&self) -> PhysicalParameters {
        self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_one() {
        let p = PhysicalParameters::default();
        assert_eq!(p.crossing_loss, Db(-0.04));
        assert_eq!(p.propagation_loss_per_cm, Db(-0.274));
        assert_eq!(p.ppse_off_loss, Db(-0.005));
        assert_eq!(p.ppse_on_loss, Db(-0.5));
        assert_eq!(p.cpse_off_loss, Db(-0.045));
        assert_eq!(p.cpse_on_loss, Db(-0.5));
        assert_eq!(p.crossing_crosstalk, Db(-40.0));
        assert_eq!(p.pse_off_crosstalk, Db(-20.0));
        assert_eq!(p.pse_on_crosstalk, Db(-25.0));
    }

    #[test]
    fn default_passes_validation() {
        PhysicalParameters::default().validate().unwrap();
    }

    #[test]
    fn builder_overrides_single_field() {
        let p = PhysicalParameters::builder()
            .crossing_loss(Db(-0.15))
            .build();
        assert_eq!(p.crossing_loss, Db(-0.15));
        assert_eq!(p.ppse_off_loss, Db(-0.005));
    }

    #[test]
    fn builder_chains_multiple_fields() {
        let mut b = PhysicalParameters::builder();
        b.pse_on_crosstalk(Db(-30.0)).laser_power(Dbm(3.0));
        let p = b.build();
        assert_eq!(p.pse_on_crosstalk, Db(-30.0));
        assert_eq!(p.laser_power, Dbm(3.0));
    }

    #[test]
    fn loss_budget_is_laser_minus_sensitivity() {
        let p = PhysicalParameters::default();
        assert_eq!(p.loss_budget(), Db(26.0));
    }

    #[test]
    fn validation_rejects_positive_loss() {
        let p = PhysicalParameters::builder().crossing_loss(Db(0.3)).build();
        let err = p.validate().unwrap_err();
        assert!(err.contains("Lc"), "unexpected message: {err}");
    }

    #[test]
    fn validation_rejects_nonnegative_crosstalk() {
        let p = PhysicalParameters::builder()
            .pse_off_crosstalk(Db(0.0))
            .build();
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_inverted_power_budget() {
        let p = PhysicalParameters::builder()
            .laser_power(Dbm(-30.0))
            .build();
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite() {
        let p = PhysicalParameters::builder()
            .ppse_on_loss(Db(f64::NAN))
            .build();
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_a_non_positive_or_non_finite_snr_ceiling() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -1.0] {
            let p = PhysicalParameters::builder().snr_ceiling(Db(bad)).build();
            let err = p.validate().unwrap_err();
            assert!(
                err.contains("snr_ceiling"),
                "{bad}: unexpected message: {err}"
            );
        }
        let default = PhysicalParameters::default();
        assert_eq!(default.snr_ceiling, Db(100.0));
        default.validate().unwrap();
    }
}
