//! Photonic building blocks and their first-order transfer equations
//! (paper Eqs. 1a–1j).
//!
//! The paper's component library contains three fundamental devices
//! (Section II-B):
//!
//! * the **silicon waveguide** — pure propagation loss `Lp · length`;
//! * the **waveguide crossing** — two perpendicular waveguides; a signal
//!   passes straight with loss `Lc` and leaks `Kc` into *both*
//!   perpendicular directions (Eqs. 1i, 1j);
//! * the **photonic switching element (PSE)** — a microring resonator
//!   coupled to two waveguides, in one of two geometries:
//!   *parallel* ([`PseKind::Parallel`], PPSE, Fig. 2a–b) or *crossing*
//!   ([`PseKind::Crossing`], CPSE, Fig. 2c–d).
//!
//! A PSE is in [`ResonanceState::On`] when the traversing wavelength
//! matches the ring resonance (the signal is coupled to the drop port), or
//! [`ResonanceState::Off`] (the signal continues to the through port).
//!
//! The ten transfer equations are exposed both as power-in/power-out
//! functions on [`PhysicalParameters`] via [`ElementTransfer`], and as raw
//! coefficient lookups used by the router netlist analysis.
//!
//! # Examples
//!
//! ```
//! use phonoc_phys::elements::{ElementTransfer, PseKind, ResonanceState};
//! use phonoc_phys::params::PhysicalParameters;
//! use phonoc_phys::units::Milliwatts;
//!
//! let p = PhysicalParameters::default();
//! let t = ElementTransfer::new(&p);
//! // Eq. (1c): P_D = Lp,on · P_in for an ON parallel PSE.
//! let dropped = t.pse_main_output(PseKind::Parallel, ResonanceState::On, Milliwatts(1.0));
//! assert!((dropped.0 - 0.891).abs() < 1e-3);
//! ```

use crate::params::PhysicalParameters;
use crate::units::{Db, LinearGain, Milliwatts};
use std::fmt;

/// The two PSE geometries of Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PseKind {
    /// PPSE: microring between two *parallel* waveguides (Fig. 2a–b).
    /// Dropping reverses the propagation direction on the second
    /// waveguide.
    Parallel,
    /// CPSE: microring at a *waveguide crossing* (Fig. 2c–d). Dropping
    /// turns the signal onto the perpendicular waveguide.
    Crossing,
}

impl fmt::Display for PseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PseKind::Parallel => write!(f, "PPSE"),
            PseKind::Crossing => write!(f, "CPSE"),
        }
    }
}

/// Whether the microring resonance matches the traversing wavelength.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResonanceState {
    /// The ring resonates: the input signal is coupled to the drop port.
    On,
    /// The ring is detuned: the input signal continues to the through
    /// port.
    Off,
}

impl fmt::Display for ResonanceState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResonanceState::On => write!(f, "ON"),
            ResonanceState::Off => write!(f, "OFF"),
        }
    }
}

/// Coefficient-level view of Eqs. (1a)–(1j) for a given parameter set.
///
/// The *main output* of an element traversal is where the signal is
/// supposed to go (through port when OFF, drop port when ON, straight
/// across for a plain crossing); the *leak output* is where first-order
/// crosstalk escapes. Both are returned as linear gains so that the
/// network-level analysis can multiply/accumulate them cheaply.
#[derive(Debug, Clone, Copy)]
pub struct ElementTransfer<'p> {
    params: &'p PhysicalParameters,
}

impl<'p> ElementTransfer<'p> {
    /// Creates a transfer-function view over `params`.
    #[must_use]
    pub fn new(params: &'p PhysicalParameters) -> Self {
        ElementTransfer { params }
    }

    /// Loss (dB) experienced by the signal on its intended path through a
    /// PSE.
    ///
    /// * OFF, Parallel → Eq. (1a): `Lp,off`
    /// * ON, Parallel → Eq. (1c): `Lp,on`
    /// * OFF, Crossing → Eq. (1e): `Lc,off`
    /// * ON, Crossing → Eq. (1g): `Lc,on`
    #[must_use]
    pub fn pse_main_loss(&self, kind: PseKind, state: ResonanceState) -> Db {
        match (kind, state) {
            (PseKind::Parallel, ResonanceState::Off) => self.params.ppse_off_loss,
            (PseKind::Parallel, ResonanceState::On) => self.params.ppse_on_loss,
            (PseKind::Crossing, ResonanceState::Off) => self.params.cpse_off_loss,
            (PseKind::Crossing, ResonanceState::On) => self.params.cpse_on_loss,
        }
    }

    /// First-order crosstalk gain leaked by a PSE traversal to its
    /// complementary port, as a *linear* gain because the CPSE-OFF case is
    /// a linear sum of two coefficients.
    ///
    /// * OFF, Parallel → Eq. (1b): `Kp,off` into the drop port
    /// * ON, Parallel → Eq. (1d): `Kp,on` into the through port
    /// * OFF, Crossing → Eq. (1f): `Kp,off + Kc` into the drop port
    /// * ON, Crossing → Eq. (1h): `Kp,on` into the through port
    #[must_use]
    pub fn pse_leak_gain(&self, kind: PseKind, state: ResonanceState) -> LinearGain {
        match (kind, state) {
            (PseKind::Parallel, ResonanceState::Off) => self.params.pse_off_crosstalk.to_linear(),
            (PseKind::Parallel, ResonanceState::On) => self.params.pse_on_crosstalk.to_linear(),
            (PseKind::Crossing, ResonanceState::Off) => {
                // Eq. (1f): P_D = (Kp,off + Kc) · P_in — a *linear* sum.
                self.params.pse_off_crosstalk.to_linear()
                    + self.params.crossing_crosstalk.to_linear()
            }
            (PseKind::Crossing, ResonanceState::On) => self.params.pse_on_crosstalk.to_linear(),
        }
    }

    /// Loss (dB) of passing straight through a plain waveguide crossing,
    /// Eq. (1i): `P_out2 = Lc · P_in`.
    #[must_use]
    pub fn crossing_loss(&self) -> Db {
        self.params.crossing_loss
    }

    /// Crosstalk gain leaked into *each* perpendicular direction of a
    /// plain crossing, Eq. (1j): `P_out1 = P_out3 = Kc · P_in`.
    #[must_use]
    pub fn crossing_leak_gain(&self) -> LinearGain {
        self.params.crossing_crosstalk.to_linear()
    }

    /// Propagation loss of a straight waveguide of length `cm`
    /// centimetres: `Lp · length`.
    #[must_use]
    pub fn propagation_loss(&self, cm: f64) -> Db {
        self.params.propagation_loss_per_cm * cm
    }

    /// Output power on the intended path of a PSE traversal
    /// (Eqs. 1a, 1c, 1e, 1g).
    #[must_use]
    pub fn pse_main_output(
        &self,
        kind: PseKind,
        state: ResonanceState,
        input: Milliwatts,
    ) -> Milliwatts {
        input.attenuate(self.pse_main_loss(kind, state))
    }

    /// Crosstalk power leaked by a PSE traversal
    /// (Eqs. 1b, 1d, 1f, 1h).
    #[must_use]
    pub fn pse_leak_output(
        &self,
        kind: PseKind,
        state: ResonanceState,
        input: Milliwatts,
    ) -> Milliwatts {
        input * self.pse_leak_gain(kind, state)
    }

    /// Straight-through output power of a plain crossing (Eq. 1i).
    #[must_use]
    pub fn crossing_output(&self, input: Milliwatts) -> Milliwatts {
        input.attenuate(self.crossing_loss())
    }

    /// Power leaked into one perpendicular direction of a plain crossing
    /// (Eq. 1j).
    #[must_use]
    pub fn crossing_leak_output(&self, input: Milliwatts) -> Milliwatts {
        input * self.crossing_leak_gain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transfer_fixture() -> PhysicalParameters {
        PhysicalParameters::default()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    fn lin(db: f64) -> f64 {
        10f64.powf(db / 10.0)
    }

    #[test]
    fn eq_1a_ppse_off_through() {
        let p = transfer_fixture();
        let t = ElementTransfer::new(&p);
        let out = t.pse_main_output(PseKind::Parallel, ResonanceState::Off, Milliwatts(1.0));
        assert!(close(out.0, lin(-0.005)));
    }

    #[test]
    fn eq_1b_ppse_off_leak() {
        let p = transfer_fixture();
        let t = ElementTransfer::new(&p);
        let out = t.pse_leak_output(PseKind::Parallel, ResonanceState::Off, Milliwatts(1.0));
        assert!(close(out.0, lin(-20.0)));
    }

    #[test]
    fn eq_1c_ppse_on_drop() {
        let p = transfer_fixture();
        let t = ElementTransfer::new(&p);
        let out = t.pse_main_output(PseKind::Parallel, ResonanceState::On, Milliwatts(1.0));
        assert!(close(out.0, lin(-0.5)));
    }

    #[test]
    fn eq_1d_ppse_on_leak() {
        let p = transfer_fixture();
        let t = ElementTransfer::new(&p);
        let out = t.pse_leak_output(PseKind::Parallel, ResonanceState::On, Milliwatts(1.0));
        assert!(close(out.0, lin(-25.0)));
    }

    #[test]
    fn eq_1e_cpse_off_through() {
        let p = transfer_fixture();
        let t = ElementTransfer::new(&p);
        let out = t.pse_main_output(PseKind::Crossing, ResonanceState::Off, Milliwatts(1.0));
        assert!(close(out.0, lin(-0.045)));
    }

    #[test]
    fn eq_1f_cpse_off_leak_is_linear_sum() {
        let p = transfer_fixture();
        let t = ElementTransfer::new(&p);
        let out = t.pse_leak_output(PseKind::Crossing, ResonanceState::Off, Milliwatts(1.0));
        assert!(close(out.0, lin(-20.0) + lin(-40.0)));
    }

    #[test]
    fn eq_1g_cpse_on_drop() {
        let p = transfer_fixture();
        let t = ElementTransfer::new(&p);
        let out = t.pse_main_output(PseKind::Crossing, ResonanceState::On, Milliwatts(1.0));
        assert!(close(out.0, lin(-0.5)));
    }

    #[test]
    fn eq_1h_cpse_on_leak() {
        let p = transfer_fixture();
        let t = ElementTransfer::new(&p);
        let out = t.pse_leak_output(PseKind::Crossing, ResonanceState::On, Milliwatts(1.0));
        assert!(close(out.0, lin(-25.0)));
    }

    #[test]
    fn eq_1i_crossing_through() {
        let p = transfer_fixture();
        let t = ElementTransfer::new(&p);
        let out = t.crossing_output(Milliwatts(2.0));
        assert!(close(out.0, 2.0 * lin(-0.04)));
    }

    #[test]
    fn eq_1j_crossing_leak() {
        let p = transfer_fixture();
        let t = ElementTransfer::new(&p);
        let out = t.crossing_leak_output(Milliwatts(2.0));
        assert!(close(out.0, 2.0 * lin(-40.0)));
    }

    #[test]
    fn propagation_loss_scales_with_length() {
        let p = transfer_fixture();
        let t = ElementTransfer::new(&p);
        assert!(close(t.propagation_loss(1.0).0, -0.274));
        assert!(close(t.propagation_loss(0.25).0, -0.0685));
        assert!(close(t.propagation_loss(0.0).0, 0.0));
    }

    #[test]
    fn leak_is_always_weaker_than_main_path() {
        let p = transfer_fixture();
        let t = ElementTransfer::new(&p);
        for kind in [PseKind::Parallel, PseKind::Crossing] {
            for state in [ResonanceState::On, ResonanceState::Off] {
                let main = t.pse_main_output(kind, state, Milliwatts(1.0)).0;
                let leak = t.pse_leak_output(kind, state, Milliwatts(1.0)).0;
                assert!(
                    leak < main,
                    "leak should be below main path for {kind} {state}"
                );
            }
        }
    }

    #[test]
    fn displays() {
        assert_eq!(PseKind::Parallel.to_string(), "PPSE");
        assert_eq!(PseKind::Crossing.to_string(), "CPSE");
        assert_eq!(ResonanceState::On.to_string(), "ON");
        assert_eq!(ResonanceState::Off.to_string(), "OFF");
    }
}
