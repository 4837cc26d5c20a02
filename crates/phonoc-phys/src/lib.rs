//! Physical-layer foundations for photonic network-on-chip analysis.
//!
//! This crate is the "Libraries" module of the PhoNoCMap architecture
//! (paper Fig. 1, box 2): the photonic building blocks — waveguides,
//! microring resonators, waveguide crossings — and their physical
//! loss/crosstalk coefficients, together with the first-order analytical
//! transfer model of Eqs. (1a)–(1j).
//!
//! # Layout
//!
//! * [`units`] — `Db`, `LinearGain`, `Dbm`, `Milliwatts`, `Length`
//!   newtypes with the conversions the rest of the workspace relies on.
//! * [`params`] — [`params::PhysicalParameters`], defaulting to the
//!   paper's Table I.
//! * [`elements`] — PSE geometries/states and the ten transfer equations.
//! * [`ber`] — Q-factor / bit-error-rate estimation (extension).
//! * [`budget`] — laser power budget and WDM scalability analysis
//!   (extension).
//! * [`modulation`] — OOK / PAM-4 modulation presets with their
//!   BER-derived required SNR margins, and the [`LaserBudget`]
//!   launch-power model (cross-layer extension): a format's margin is
//!   the bisection inverse of the [`ber`] model at 10⁻⁹ BER (OOK
//!   ≈ 15.56 dB; PAM-4 adds the `10·log10(9) ≈ 9.54 dB` multilevel eye
//!   penalty), and a source laser must launch
//!   `sensitivity + margin + |worst-link loss|` dBm. These margins are
//!   what the mapping tool's power objectives
//!   (`Objective::MinimizeLaserPower` / `MaximizeSnrMargin` in
//!   `phonoc-core`) are built on.
//!
//! # Example: evaluating one switching stage by hand
//!
//! ```
//! use phonoc_phys::elements::{ElementTransfer, PseKind, ResonanceState};
//! use phonoc_phys::params::PhysicalParameters;
//! use phonoc_phys::units::{Db, Milliwatts};
//!
//! let params = PhysicalParameters::default();
//! let t = ElementTransfer::new(&params);
//!
//! // A signal turning inside a router: one ON crossing-PSE…
//! let after_turn = t.pse_main_output(PseKind::Crossing, ResonanceState::On, Milliwatts(1.0));
//! // …then 0.25 cm of silicon waveguide to the next router.
//! let at_next_router = after_turn.attenuate(t.propagation_loss(0.25));
//! assert!(at_next_router.0 < 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ber;
pub mod budget;
pub mod elements;
pub mod modulation;
pub mod params;
pub mod units;

pub use budget::PowerBudget;
pub use elements::{ElementTransfer, PseKind, ResonanceState};
pub use modulation::{LaserBudget, Modulation};
pub use params::{PhysicalParameters, PhysicalParametersBuilder};
pub use units::{Db, Dbm, Length, LinearGain, Milliwatts};
