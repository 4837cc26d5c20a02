//! Unit newtypes for optical power, gain and geometric length.
//!
//! The photonic-NoC literature mixes logarithmic (dB, dBm) and linear (mW,
//! dimensionless gain) quantities freely; confusing the two is the classic
//! source of silent modeling bugs. This module gives each quantity its own
//! newtype ([C-NEWTYPE]) so the compiler keeps them apart:
//!
//! * [`Db`] — a relative gain in decibels. Losses are negative
//!   (e.g. `Db(-0.5)` for an ON-resonance ring pass).
//! * [`LinearGain`] — the same quantity as a dimensionless linear factor.
//! * [`Dbm`] — an absolute power level referenced to 1 mW.
//! * [`Milliwatts`] — an absolute power in linear units.
//! * [`Length`] — a geometric length (waveguide runs), stored in
//!   micrometres.
//!
//! # Examples
//!
//! ```
//! use phonoc_phys::units::{Db, Milliwatts};
//!
//! let input = Milliwatts(1.0);
//! let after = input.attenuate(Db(-3.0103));
//! assert!((after.0 - 0.5).abs() < 1e-4);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A relative power gain expressed in decibels.
///
/// Negative values are losses. `Db` values add along a cascade of optical
/// elements, which is why [`Add`] and [`Sum`] are implemented: the total
/// insertion loss of a path is the plain sum of its element losses.
///
/// # Examples
///
/// ```
/// use phonoc_phys::units::Db;
///
/// let path_loss: Db = [Db(-0.04), Db(-0.5), Db(-0.274)].into_iter().sum();
/// assert!((path_loss.0 - -0.814).abs() < 1e-12);
/// assert!(path_loss.to_linear().0 < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Db(pub f64);

impl Db {
    /// The zero-loss (unit-gain) element.
    pub const ZERO: Db = Db(0.0);

    /// Converts this decibel gain to a linear power factor.
    ///
    /// ```
    /// use phonoc_phys::units::Db;
    /// assert!((Db(-10.0).to_linear().0 - 0.1).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn to_linear(self) -> LinearGain {
        LinearGain(10f64.powf(self.0 / 10.0))
    }

    /// Absolute magnitude in dB, e.g. for reporting "insertion loss of
    /// 1.52 dB" where the sign convention is understood.
    #[must_use]
    pub fn magnitude(self) -> f64 {
        self.0.abs()
    }

    /// Returns `true` if this value represents a loss (strictly negative).
    #[must_use]
    pub fn is_loss(self) -> bool {
        self.0 < 0.0
    }
}

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl AddAssign for Db {
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl Sum for Db {
    fn sum<I: Iterator<Item = Db>>(iter: I) -> Db {
        iter.fold(Db::ZERO, Add::add)
    }
}

impl Mul<f64> for Db {
    type Output = Db;
    /// Scales a per-unit coefficient, e.g. `Lp dB/cm * length cm`.
    fn mul(self, rhs: f64) -> Db {
        Db(self.0 * rhs)
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*} dB", prec, self.0)
        } else {
            write!(f, "{} dB", self.0)
        }
    }
}

/// A dimensionless linear power gain (`P_out / P_in`).
///
/// Linear gains *multiply* along a cascade and *add* when independent noise
/// contributions are accumulated, hence both [`Mul`] and [`Add`] are
/// provided.
///
/// # Examples
///
/// ```
/// use phonoc_phys::units::{Db, LinearGain};
///
/// let g = Db(-3.0).to_linear() * Db(-3.0).to_linear();
/// assert!((g.to_db().0 - -6.0).abs() < 1e-9);
/// assert_eq!(LinearGain::UNIT.0, 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct LinearGain(pub f64);

impl LinearGain {
    /// The identity gain (0 dB).
    pub const UNIT: LinearGain = LinearGain(1.0);
    /// A gain of zero: total extinction. `to_db` yields `-inf`.
    pub const ZERO: LinearGain = LinearGain(0.0);

    /// Converts this linear factor back to decibels.
    ///
    /// Returns negative infinity for a zero gain.
    #[must_use]
    pub fn to_db(self) -> Db {
        Db(10.0 * self.0.log10())
    }
}

impl Default for LinearGain {
    fn default() -> Self {
        LinearGain::UNIT
    }
}

impl Mul for LinearGain {
    type Output = LinearGain;
    fn mul(self, rhs: LinearGain) -> LinearGain {
        LinearGain(self.0 * rhs.0)
    }
}

impl Add for LinearGain {
    type Output = LinearGain;
    fn add(self, rhs: LinearGain) -> LinearGain {
        LinearGain(self.0 + rhs.0)
    }
}

impl Sum for LinearGain {
    fn sum<I: Iterator<Item = LinearGain>>(iter: I) -> LinearGain {
        iter.fold(LinearGain::ZERO, Add::add)
    }
}

impl fmt::Display for LinearGain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "×{}", self.0)
    }
}

/// An absolute optical power in milliwatts.
///
/// # Examples
///
/// ```
/// use phonoc_phys::units::{Db, Dbm, Milliwatts};
///
/// let laser = Dbm(0.0).to_milliwatts(); // 0 dBm == 1 mW
/// assert!((laser.0 - 1.0).abs() < 1e-12);
/// let detected = laser.attenuate(Db(-20.0));
/// assert!((detected.to_dbm().0 - -20.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Milliwatts(pub f64);

impl Milliwatts {
    /// Zero optical power.
    pub const ZERO: Milliwatts = Milliwatts(0.0);

    /// Applies a decibel gain/loss to this power.
    #[must_use]
    pub fn attenuate(self, gain: Db) -> Milliwatts {
        self * gain.to_linear()
    }

    /// Converts to an absolute dBm level. Zero power maps to `-inf` dBm.
    #[must_use]
    pub fn to_dbm(self) -> Dbm {
        Dbm(10.0 * self.0.log10())
    }
}

impl Mul<LinearGain> for Milliwatts {
    type Output = Milliwatts;
    fn mul(self, rhs: LinearGain) -> Milliwatts {
        Milliwatts(self.0 * rhs.0)
    }
}

impl Add for Milliwatts {
    type Output = Milliwatts;
    fn add(self, rhs: Milliwatts) -> Milliwatts {
        Milliwatts(self.0 + rhs.0)
    }
}

impl AddAssign for Milliwatts {
    fn add_assign(&mut self, rhs: Milliwatts) {
        self.0 += rhs.0;
    }
}

impl Sum for Milliwatts {
    fn sum<I: Iterator<Item = Milliwatts>>(iter: I) -> Milliwatts {
        iter.fold(Milliwatts::ZERO, Add::add)
    }
}

impl fmt::Display for Milliwatts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} mW", self.0)
    }
}

/// An absolute optical power level in dBm (decibels referenced to 1 mW).
///
/// # Examples
///
/// ```
/// use phonoc_phys::units::{Db, Dbm};
///
/// let sensitivity = Dbm(-26.0);
/// let laser = Dbm(0.0);
/// // The loss budget between the two is a relative quantity:
/// let budget: Db = laser - sensitivity;
/// assert_eq!(budget, Db(26.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Dbm(pub f64);

impl Dbm {
    /// Converts this absolute level to linear milliwatts.
    #[must_use]
    pub fn to_milliwatts(self) -> Milliwatts {
        Milliwatts(10f64.powf(self.0 / 10.0))
    }
}

impl Add<Db> for Dbm {
    type Output = Dbm;
    /// Applying a relative gain to an absolute level yields a new level.
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}

impl Sub for Dbm {
    type Output = Db;
    /// The difference of two absolute levels is a relative gain.
    fn sub(self, rhs: Dbm) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*} dBm", prec, self.0)
        } else {
            write!(f, "{} dBm", self.0)
        }
    }
}

/// A geometric length, stored internally in micrometres.
///
/// Waveguide propagation loss coefficients are quoted per centimetre
/// (Table I of the paper), while chip floorplans are naturally expressed in
/// millimetres, so conversions in both directions are provided.
///
/// # Examples
///
/// ```
/// use phonoc_phys::units::Length;
///
/// let pitch = Length::from_mm(2.5);
/// assert!((pitch.as_cm() - 0.25).abs() < 1e-12);
/// assert_eq!(pitch + pitch, Length::from_mm(5.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Length {
    micrometers: f64,
}

impl Length {
    /// The zero length.
    pub const ZERO: Length = Length { micrometers: 0.0 };

    /// Creates a length from micrometres.
    #[must_use]
    pub fn from_um(um: f64) -> Length {
        Length { micrometers: um }
    }

    /// Creates a length from millimetres.
    #[must_use]
    pub fn from_mm(mm: f64) -> Length {
        Length {
            micrometers: mm * 1_000.0,
        }
    }

    /// Creates a length from centimetres.
    #[must_use]
    pub fn from_cm(cm: f64) -> Length {
        Length {
            micrometers: cm * 10_000.0,
        }
    }

    /// This length in micrometres.
    #[must_use]
    pub fn as_um(self) -> f64 {
        self.micrometers
    }

    /// This length in millimetres.
    #[must_use]
    pub fn as_mm(self) -> f64 {
        self.micrometers / 1_000.0
    }

    /// This length in centimetres (the unit of `Lp` in Table I).
    #[must_use]
    pub fn as_cm(self) -> f64 {
        self.micrometers / 10_000.0
    }

    /// Whether this is a length a waveguide can have: finite and not
    /// negative (zero is allowed).
    #[must_use]
    pub fn is_physical(self) -> bool {
        self.micrometers.is_finite() && self.micrometers >= 0.0
    }
}

impl Add for Length {
    type Output = Length;
    fn add(self, rhs: Length) -> Length {
        Length {
            micrometers: self.micrometers + rhs.micrometers,
        }
    }
}

impl AddAssign for Length {
    fn add_assign(&mut self, rhs: Length) {
        self.micrometers += rhs.micrometers;
    }
}

impl Mul<f64> for Length {
    type Output = Length;
    fn mul(self, rhs: f64) -> Length {
        Length {
            micrometers: self.micrometers * rhs,
        }
    }
}

impl Sum for Length {
    fn sum<I: Iterator<Item = Length>>(iter: I) -> Length {
        iter.fold(Length::ZERO, Add::add)
    }
}

impl fmt::Display for Length {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} µm", self.micrometers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn db_to_linear_known_points() {
        assert!(close(Db(0.0).to_linear().0, 1.0));
        assert!(close(Db(-10.0).to_linear().0, 0.1));
        assert!(close(Db(-20.0).to_linear().0, 0.01));
        assert!(close(Db(10.0).to_linear().0, 10.0));
        assert!(close(Db(-3.010_299_956_639_812).to_linear().0, 0.5));
    }

    #[test]
    fn linear_to_db_roundtrip() {
        for v in [-40.0, -25.0, -0.274, -0.005, 0.0, 3.7] {
            assert!(close(Db(v).to_linear().to_db().0, v));
        }
    }

    #[test]
    fn db_addition_is_linear_multiplication() {
        let sum = Db(-3.0) + Db(-7.0);
        let prod = Db(-3.0).to_linear() * Db(-7.0).to_linear();
        assert!(close(sum.to_linear().0, prod.0));
    }

    #[test]
    fn db_sum_iterator() {
        let total: Db = vec![Db(-1.0), Db(-2.0), Db(-3.0)].into_iter().sum();
        assert!(close(total.0, -6.0));
        let empty: Db = Vec::<Db>::new().into_iter().sum();
        assert_eq!(empty, Db::ZERO);
    }

    #[test]
    fn db_scaling_for_per_cm_coefficients() {
        // 0.25 cm of -0.274 dB/cm waveguide.
        let loss = Db(-0.274) * 0.25;
        assert!(close(loss.0, -0.0685));
    }

    #[test]
    fn db_ordering_and_predicates() {
        assert!(Db(-1.0) < Db(-0.5));
        assert!(Db(-0.5).is_loss());
        assert!(!Db(0.0).is_loss());
        assert!(close(Db(-2.5).magnitude(), 2.5));
    }

    #[test]
    fn milliwatts_attenuation() {
        let p = Milliwatts(2.0).attenuate(Db(-3.010_299_956_639_812));
        assert!(close(p.0, 1.0));
    }

    #[test]
    fn dbm_mw_roundtrip() {
        assert!(close(Dbm(0.0).to_milliwatts().0, 1.0));
        assert!(close(Dbm(-30.0).to_milliwatts().0, 0.001));
        assert!(close(Milliwatts(5.0).to_dbm().0, 6.989_700_043_360_187));
    }

    #[test]
    fn dbm_arithmetic_with_db() {
        let received = Dbm(0.0) + Db(-12.5);
        assert!(close(received.0, -12.5));
        let margin = Dbm(-12.5) - Dbm(-26.0);
        assert!(close(margin.0, 13.5));
    }

    #[test]
    fn milliwatt_noise_accumulation() {
        let mut noise = Milliwatts::ZERO;
        noise += Milliwatts(0.001);
        noise += Milliwatts(0.002);
        assert!(close(noise.0, 0.003));
        let total: Milliwatts = vec![Milliwatts(0.5), Milliwatts(0.25)].into_iter().sum();
        assert!(close(total.0, 0.75));
    }

    #[test]
    fn length_conversions() {
        let l = Length::from_cm(1.0);
        assert!(close(l.as_mm(), 10.0));
        assert!(close(l.as_um(), 10_000.0));
        assert!(close(Length::from_mm(2.5).as_cm(), 0.25));
        assert!(close(Length::from_um(500.0).as_mm(), 0.5));
    }

    #[test]
    fn length_arithmetic() {
        let total: Length = vec![Length::from_mm(1.0); 4].into_iter().sum();
        assert_eq!(total, Length::from_mm(4.0));
        assert_eq!(Length::from_mm(2.0) * 3.0, Length::from_mm(6.0));
    }

    #[test]
    fn displays_are_nonempty_and_informative() {
        assert_eq!(format!("{:.2}", Db(-1.234)), "-1.23 dB");
        assert_eq!(format!("{}", Milliwatts(1.0)), "1 mW");
        assert_eq!(format!("{:.1}", Dbm(-26.04)), "-26.0 dBm");
        assert_eq!(format!("{}", Length::from_um(5.0)), "5 µm");
        assert_eq!(format!("{}", LinearGain(0.5)), "×0.5");
    }

    #[test]
    fn zero_gain_maps_to_negative_infinity_db() {
        assert_eq!(LinearGain::ZERO.to_db().0, f64::NEG_INFINITY);
        assert_eq!(Milliwatts::ZERO.to_dbm().0, f64::NEG_INFINITY);
    }
}
