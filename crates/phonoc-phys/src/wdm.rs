//! Multi-wavelength (WDM) channel analysis (extension).
//!
//! The paper's introduction notes that "multiwavelength signals further
//! exacerbate" the power-budget problem, "since the above considerations
//! apply to each individual wavelength channel". This module makes the
//! per-channel bookkeeping explicit:
//!
//! * a [`WdmGrid`] describes the channel plan (count and spacing on the
//!   ITU-style grid around 1550 nm);
//! * microring resonances are periodic (free spectral range), so rings
//!   tuned to channel *i* also disturb channels aliased onto the same
//!   resonance — [`WdmGrid::aliases`] exposes that structure;
//! * [`wdm_feasibility`] combines a worst-case insertion loss with the
//!   grid to report the aggregate power entering the chip and whether it
//!   stays under the nonlinearity ceiling.
//!
//! # Examples
//!
//! ```
//! use phonoc_phys::wdm::{wdm_feasibility, WdmGrid};
//! use phonoc_phys::{Db, PhysicalParameters};
//!
//! let grid = WdmGrid::new(8, 0.8);
//! let report = wdm_feasibility(&PhysicalParameters::default(), &grid, Db(-2.0));
//! assert!(report.feasible);
//! assert_eq!(report.channels, 8);
//! ```

use crate::params::PhysicalParameters;
use crate::units::{Db, Dbm};

/// Speed of light (m/s) for wavelength/frequency conversions.
const C_M_PER_S: f64 = 299_792_458.0;

/// A dense WDM channel plan centred on 1550 nm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WdmGrid {
    channels: usize,
    /// Channel spacing in nanometres (0.8 nm ≈ 100 GHz at 1550 nm).
    spacing_nm: f64,
}

impl WdmGrid {
    /// Creates a grid of `channels` wavelengths spaced `spacing_nm`
    /// apart.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` or the spacing is not positive.
    #[must_use]
    pub fn new(channels: usize, spacing_nm: f64) -> WdmGrid {
        assert!(channels > 0, "a WDM grid needs at least one channel");
        assert!(
            spacing_nm > 0.0 && spacing_nm.is_finite(),
            "channel spacing must be positive"
        );
        WdmGrid {
            channels,
            spacing_nm,
        }
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Channel spacing in nanometres.
    #[must_use]
    pub fn spacing_nm(&self) -> f64 {
        self.spacing_nm
    }

    /// Centre wavelength of channel `i` (nm), centred on 1550 nm.
    ///
    /// # Panics
    ///
    /// Panics if `i >= channels`.
    #[must_use]
    pub fn wavelength_nm(&self, i: usize) -> f64 {
        assert!(i < self.channels, "channel {i} out of range");
        let span = self.spacing_nm * (self.channels as f64 - 1.0);
        1550.0 - span / 2.0 + self.spacing_nm * i as f64
    }

    /// Total optical bandwidth spanned by the grid (nm).
    #[must_use]
    pub fn span_nm(&self) -> f64 {
        self.spacing_nm * (self.channels as f64 - 1.0)
    }

    /// Channels whose wavelengths alias onto the resonance of a ring
    /// tuned to channel `i`, for a ring with free spectral range
    /// `fsr_nm`: every channel offset by an integer multiple of the FSR.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `fsr_nm` is not positive.
    #[must_use]
    pub fn aliases(&self, i: usize, fsr_nm: f64) -> Vec<usize> {
        assert!(fsr_nm > 0.0, "FSR must be positive");
        let base = self.wavelength_nm(i);
        (0..self.channels)
            .filter(|&j| {
                if j == i {
                    return false;
                }
                let delta = (self.wavelength_nm(j) - base).abs();
                let cycles = delta / fsr_nm;
                (cycles - cycles.round()).abs() * fsr_nm < self.spacing_nm / 4.0
                    && cycles.round() >= 1.0
            })
            .collect()
    }

    /// Frequency spacing (GHz) corresponding to the wavelength spacing
    /// at 1550 nm (`Δf ≈ c·Δλ/λ²`).
    #[must_use]
    pub fn spacing_ghz(&self) -> f64 {
        let lambda_m = 1550.0e-9;
        C_M_PER_S * (self.spacing_nm * 1e-9) / (lambda_m * lambda_m) / 1e9
    }
}

/// Outcome of a WDM power-budget check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WdmFeasibility {
    /// Channels in the plan.
    pub channels: usize,
    /// Laser power each channel needs to cover the worst-case loss.
    pub per_channel_power: Dbm,
    /// Aggregate power injected into the chip (`per-channel + 10·log n`).
    pub aggregate_power: Dbm,
    /// The silicon nonlinearity ceiling it is compared against.
    pub ceiling: Dbm,
    /// Whether the aggregate stays under the ceiling.
    pub feasible: bool,
    /// Margin to the ceiling (positive = headroom).
    pub margin: Db,
}

/// Checks whether `grid.channels()` wavelengths, each sized to cover
/// `worst_case_loss`, fit under the nonlinearity ceiling of `params`.
#[must_use]
pub fn wdm_feasibility(
    params: &PhysicalParameters,
    grid: &WdmGrid,
    worst_case_loss: Db,
) -> WdmFeasibility {
    let budget = crate::budget::PowerBudget::new(*params);
    let per_channel = budget.required_laser_power(worst_case_loss);
    let aggregate = per_channel + Db(10.0 * (grid.channels() as f64).log10());
    let margin = params.nonlinearity_threshold - aggregate;
    WdmFeasibility {
        channels: grid.channels(),
        per_channel_power: per_channel,
        aggregate_power: aggregate,
        ceiling: params.nonlinearity_threshold,
        feasible: margin.0 >= 0.0,
        margin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_geometry() {
        let g = WdmGrid::new(4, 0.8);
        assert_eq!(g.channels(), 4);
        assert!((g.span_nm() - 2.4).abs() < 1e-12);
        // Centred on 1550: first channel at 1548.8.
        assert!((g.wavelength_nm(0) - 1548.8).abs() < 1e-9);
        assert!((g.wavelength_nm(3) - 1551.2).abs() < 1e-9);
        // 0.8 nm ≈ 100 GHz.
        assert!((g.spacing_ghz() - 99.86).abs() < 0.5);
    }

    #[test]
    fn aliases_follow_the_fsr() {
        // 8 channels, 0.8 nm apart; FSR = 3.2 nm → channel 0 aliases
        // with channel 4.
        let g = WdmGrid::new(8, 0.8);
        assert_eq!(g.aliases(0, 3.2), vec![4]);
        assert_eq!(g.aliases(4, 3.2), vec![0]);
        // A huge FSR aliases nothing.
        assert!(g.aliases(0, 100.0).is_empty());
    }

    #[test]
    fn feasibility_tracks_channel_count() {
        let p = PhysicalParameters::default();
        let small = wdm_feasibility(&p, &WdmGrid::new(4, 0.8), Db(-3.0));
        let huge = wdm_feasibility(&p, &WdmGrid::new(1_000_000, 0.01), Db(-3.0));
        assert!(small.feasible);
        assert!(!huge.feasible, "a million channels must blow the budget");
        assert!(small.margin.0 > huge.margin.0);
    }

    #[test]
    fn aggregate_power_is_per_channel_plus_log_n() {
        let p = PhysicalParameters::default();
        let r = wdm_feasibility(&p, &WdmGrid::new(10, 0.8), Db(-4.0));
        assert!((r.aggregate_power.0 - (r.per_channel_power.0 + 10.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = WdmGrid::new(0, 0.8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_spacing_rejected() {
        let _ = WdmGrid::new(4, -1.0);
    }
}
