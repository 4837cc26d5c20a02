//! Per-link modulation formats and the laser-power budget they imply
//! (cross-layer extension).
//!
//! The paper evaluates mappings on worst-case insertion loss and SNR
//! alone; the cross-layer literature shows that the *modulation format*
//! couples the two into a power story. Multilevel signaling (PAM-4)
//! doubles the bits per symbol but splits the eye into `L − 1 = 3`
//! sub-eyes, costing `10·log10((L−1)²) ≈ 9.54 dB` of SNR at equal peak
//! power (Karempudi et al., arXiv 2110.06105); and the laser must launch
//! enough power that the worst link still closes its BER target after
//! the mapping's worst-case loss (PROTEUS-style co-management,
//! arXiv 2008.07566).
//!
//! This module provides both halves:
//!
//! * [`Modulation`] — OOK and PAM-4 presets, each with a **required SNR
//!   margin**: the minimum optical SNR at which the format reaches
//!   [`TARGET_BER`] under the crate's [`crate::ber`] model. The margins
//!   are fixed constants (verified against the bisection inverse
//!   [`crate::ber::required_snr_for_ber`] in tests) so objective scores
//!   built on them stay bit-deterministic.
//! * [`LaserBudget`] — the launch-power model: given a link's insertion
//!   loss and a modulation, the power a source laser must inject so the
//!   detector still sees `sensitivity + margin`, plus per-source
//!   aggregation over worst links and a feasibility check against the
//!   silicon nonlinearity ceiling.
//!
//! # Derivation of the margins
//!
//! For OOK the crate's BER model gives `BER = ½·erfc(Q/√2)` with
//! `Q = √SNR_lin`; inverting at `TARGET_BER = 1e-9` by bisection yields
//! **15.5607 dB** (the classic "Q ≈ 6" rule of thumb). PAM-4 keeps the
//! same symbol-rate noise bandwidth but divides the eye amplitude by
//! `L − 1 = 3`, so it needs `(L−1)² = 9×` the linear SNR:
//! `15.5607 + 10·log10(9) = `**25.1031 dB**.
//!
//! # Examples
//!
//! ```
//! use phonoc_phys::modulation::{LaserBudget, Modulation};
//! use phonoc_phys::params::PhysicalParameters;
//! use phonoc_phys::units::Db;
//!
//! // PAM-4 needs ~9.54 dB more SNR than OOK for the same BER target…
//! let penalty = Modulation::Pam4.required_snr_margin() - Modulation::Ook.required_snr_margin();
//! assert!((penalty.0 - 9.542_425_094_393_248).abs() < 1e-12);
//!
//! // …which translates directly into launch power: a 10 dB-loss link
//! // needs −26 + 15.56 + 10 ≈ −0.44 dBm under OOK.
//! let budget = LaserBudget::new(PhysicalParameters::default(), Modulation::Ook);
//! let launch = budget.required_launch_power(Db(-10.0));
//! assert!((launch.0 - -0.439_310_080_915_424).abs() < 1e-9);
//! ```

use crate::params::PhysicalParameters;
use crate::units::{Db, Dbm, Milliwatts};

/// The bit-error-rate target the preset margins are derived for.
pub const TARGET_BER: f64 = 1e-9;

/// Required OOK SNR (dB) to hit [`TARGET_BER`] under the crate's BER
/// model — `required_snr_for_ber(1e-9)`, frozen as a constant so scores
/// built on it are bit-deterministic.
const OOK_SNR_MARGIN_DB: f64 = 15.560_689_919_084_576;

/// PAM-4's eye penalty over OOK at equal peak power: the eye splits
/// into `L − 1 = 3` sub-eyes, costing `10·log10((L−1)²) = 10·log10(9)`.
const PAM4_EYE_PENALTY_DB: f64 = 9.542_425_094_393_248;

/// A per-link modulation format preset.
///
/// Fieldless by design: each variant pins a (levels, required-margin)
/// pair, so the enum is `Copy`/`Eq`/`Hash` and embeds directly in
/// objective enums and cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// On-off keying: 2 levels, 1 bit/symbol. The implicit format of
    /// the paper's SNR analysis.
    Ook,
    /// 4-level pulse-amplitude modulation: 2 bits/symbol at a
    /// `10·log10(9) ≈ 9.54 dB` SNR penalty versus OOK.
    Pam4,
}

impl Modulation {
    /// Every supported format, for iteration in tests and sweeps.
    pub const ALL: [Modulation; 2] = [Modulation::Ook, Modulation::Pam4];

    /// Number of signaling levels (`L`).
    #[must_use]
    pub fn levels(self) -> u32 {
        match self {
            Modulation::Ook => 2,
            Modulation::Pam4 => 4,
        }
    }

    /// Bits carried per symbol (`log2(L)`).
    #[must_use]
    pub fn bits_per_symbol(self) -> u32 {
        match self {
            Modulation::Ook => 1,
            Modulation::Pam4 => 2,
        }
    }

    /// Canonical lowercase name, also accepted by [`by_name`](Self::by_name).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Modulation::Ook => "ook",
            Modulation::Pam4 => "pam4",
        }
    }

    /// Parses a format name (case-insensitive): `"ook"` or `"pam4"`.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Modulation> {
        match name.to_lowercase().as_str() {
            "ook" => Some(Modulation::Ook),
            "pam4" | "pam-4" => Some(Modulation::Pam4),
            _ => None,
        }
    }

    /// The minimum optical SNR at which this format reaches
    /// [`TARGET_BER`]: the margin a mapping's worst-case SNR must clear,
    /// and the margin the laser-power model adds above detector
    /// sensitivity.
    #[must_use]
    pub fn required_snr_margin(self) -> Db {
        match self {
            Modulation::Ook => Db(OOK_SNR_MARGIN_DB),
            Modulation::Pam4 => Db(OOK_SNR_MARGIN_DB + PAM4_EYE_PENALTY_DB),
        }
    }

    /// The SNR penalty of this format relative to OOK
    /// (`10·log10((L−1)²)`; zero for OOK).
    #[must_use]
    pub fn eye_penalty(self) -> Db {
        match self {
            Modulation::Ook => Db(0.0),
            Modulation::Pam4 => Db(PAM4_EYE_PENALTY_DB),
        }
    }
}

impl std::fmt::Display for Modulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Laser launch-power model for a parameter set and modulation format.
///
/// A link whose insertion loss is `loss` (negative dB) closes its BER
/// target only if the detector sees at least
/// `sensitivity + required_snr_margin`, so the source laser must launch
///
/// ```text
/// P_launch = sensitivity + margin − loss      (dBm; −loss ≥ 0)
/// ```
///
/// Each source drives all its links off one laser, so a *source's*
/// requirement is set by its worst (most lossy) link; the chip total is
/// the linear (mW) sum over sources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaserBudget {
    params: PhysicalParameters,
    modulation: Modulation,
}

impl LaserBudget {
    /// Creates a launch-power model over `params` for `modulation`.
    #[must_use]
    pub fn new(params: PhysicalParameters, modulation: Modulation) -> Self {
        LaserBudget { params, modulation }
    }

    /// The modulation format this budget assumes.
    #[must_use]
    pub fn modulation(&self) -> Modulation {
        self.modulation
    }

    /// The underlying parameters.
    #[must_use]
    pub fn params(&self) -> &PhysicalParameters {
        &self.params
    }

    /// Launch power required for a link with insertion loss `loss`
    /// (negative dB): detector sensitivity, plus the modulation's SNR
    /// margin, plus the loss magnitude.
    #[must_use]
    pub fn required_launch_power(&self, loss: Db) -> Dbm {
        self.params.detector_sensitivity + self.modulation.required_snr_margin() + -loss
    }

    /// A source laser's requirement: the launch power of its worst
    /// (most lossy) link. `worst_loss` is the minimum (most negative)
    /// insertion loss over the source's links.
    #[must_use]
    pub fn source_launch_power(&self, worst_loss: Db) -> Dbm {
        self.required_launch_power(worst_loss)
    }

    /// Total chip laser power: the linear sum of per-source launch
    /// powers, each set by that source's worst link loss.
    #[must_use]
    pub fn total_launch_power(&self, per_source_worst_loss: &[Db]) -> Milliwatts {
        per_source_worst_loss
            .iter()
            .map(|&loss| self.required_launch_power(loss).to_milliwatts())
            .sum()
    }

    /// Whether a link with insertion loss `loss` can be driven without
    /// exceeding the silicon nonlinearity ceiling.
    #[must_use]
    pub fn is_feasible(&self, loss: Db) -> bool {
        self.required_launch_power(loss).0 <= self.params.nonlinearity_threshold.0
    }

    /// Headroom (dB) between the nonlinearity ceiling and the launch
    /// power a link of loss `loss` requires. Negative = infeasible.
    #[must_use]
    pub fn headroom(&self, loss: Db) -> Db {
        self.params.nonlinearity_threshold - self.required_launch_power(loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ber::required_snr_for_ber;

    #[test]
    fn margins_match_the_ber_bisection() {
        // The frozen OOK constant must agree with the live inverse of
        // the BER model (the bisection converges to f64 precision).
        let bisected = required_snr_for_ber(TARGET_BER);
        assert!(
            (Modulation::Ook.required_snr_margin().0 - bisected.0).abs() < 1e-9,
            "frozen OOK margin {} drifted from bisection {}",
            Modulation::Ook.required_snr_margin(),
            bisected
        );
        // PAM-4 = OOK + 10·log10(9), exactly.
        let pam4 = Modulation::Pam4.required_snr_margin();
        let expect = Modulation::Ook.required_snr_margin().0 + 10.0 * 9f64.log10();
        assert!((pam4.0 - expect).abs() < 1e-12);
    }

    #[test]
    fn eye_penalty_is_the_margin_gap() {
        for m in Modulation::ALL {
            let gap = m.required_snr_margin() - Modulation::Ook.required_snr_margin();
            assert!((gap.0 - m.eye_penalty().0).abs() < 1e-12);
        }
        assert_eq!(Modulation::Ook.eye_penalty(), Db(0.0));
    }

    #[test]
    fn levels_and_bits_are_consistent() {
        for m in Modulation::ALL {
            assert_eq!(1 << m.bits_per_symbol(), m.levels());
        }
    }

    #[test]
    fn names_round_trip() {
        for m in Modulation::ALL {
            assert_eq!(Modulation::by_name(m.name()), Some(m));
            assert_eq!(format!("{m}"), m.name());
        }
        assert_eq!(Modulation::by_name("PAM-4"), Some(Modulation::Pam4));
        assert_eq!(Modulation::by_name("qam16"), None);
    }

    #[test]
    fn launch_power_adds_sensitivity_margin_and_loss() {
        let b = LaserBudget::new(PhysicalParameters::default(), Modulation::Ook);
        // −26 dBm sensitivity + 15.5607 margin + 10 dB loss.
        let p = b.required_launch_power(Db(-10.0));
        assert!((p.0 - (-26.0 + OOK_SNR_MARGIN_DB + 10.0)).abs() < 1e-12);
        // Lossless link still needs sensitivity + margin.
        let p0 = b.required_launch_power(Db(0.0));
        assert!((p0.0 - (-26.0 + OOK_SNR_MARGIN_DB)).abs() < 1e-12);
    }

    #[test]
    fn pam4_needs_the_eye_penalty_more_power() {
        let params = PhysicalParameters::default();
        let ook = LaserBudget::new(params, Modulation::Ook);
        let pam4 = LaserBudget::new(params, Modulation::Pam4);
        let gap = pam4.required_launch_power(Db(-5.0)) - ook.required_launch_power(Db(-5.0));
        assert!((gap.0 - PAM4_EYE_PENALTY_DB).abs() < 1e-12);
    }

    #[test]
    fn total_power_sums_sources_linearly() {
        let b = LaserBudget::new(PhysicalParameters::default(), Modulation::Ook);
        let one = b.required_launch_power(Db(-3.0)).to_milliwatts();
        let total = b.total_launch_power(&[Db(-3.0), Db(-3.0)]);
        assert!((total.0 - 2.0 * one.0).abs() < 1e-12);
        assert_eq!(b.total_launch_power(&[]), Milliwatts::ZERO);
    }

    #[test]
    fn feasibility_tracks_the_nonlinearity_ceiling() {
        let b = LaserBudget::new(PhysicalParameters::default(), Modulation::Pam4);
        // Ceiling +20 dBm, sensitivity −26, margin ≈ 25.1: loss past
        // ≈ −20.9 dB becomes infeasible.
        assert!(b.is_feasible(Db(-20.0)));
        assert!(!b.is_feasible(Db(-21.5)));
        assert!(b.headroom(Db(-20.0)).0 > 0.0);
        assert!(b.headroom(Db(-21.5)).0 < 0.0);
    }
}
