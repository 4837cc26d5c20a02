//! Optical router microarchitectures for photonic NoC analysis.
//!
//! This crate provides the router half of PhoNoCMap's "Architecture
//! Modeling" module (paper Fig. 1): validated netlist models of 5×5
//! optical routers, from which per-connection insertion losses
//! ([`RouterModel::traversal_loss`]) and the 25×25 first-order crosstalk
//! coupling matrix ([`RouterModel::interaction_matrix`], one walk over
//! the aggressor traversals) are derived automatically. Those two are
//! all an evaluator reads from a router.
//!
//! * [`netlist`] — the router description DSL: directed waveguide
//!   segments, crossings, parallel/crossing PSEs, and walk-validated
//!   port-to-port routes.
//! * [`port`] — the five-port naming shared with routing algorithms.
//! * [`crux`] — reconstruction of the Crux router used in the paper's
//!   case studies (12 microrings, XY-legal connections only).
//! * [`crossbar`] — the full 25-ring matrix crossbar and a 16-ring
//!   XY-reduced variant, used as baselines/ablations.
//! * [`registry`] — name-based lookup plus the user extension point.
//!
//! # Example
//!
//! ```
//! use phonoc_router::crux::crux_router;
//! use phonoc_router::port::{Port, PortPair};
//! use phonoc_phys::PhysicalParameters;
//!
//! let crux = crux_router();
//! let params = PhysicalParameters::default();
//! let loss = crux
//!     .traversal_loss(PortPair::new(Port::West, Port::East), &params)
//!     .expect("crux supports W→E");
//! assert!(loss.is_loss());
//! ```

#![warn(missing_docs)]

pub mod crossbar;
pub mod crux;
pub mod netlist;
pub mod port;
pub mod registry;
pub mod report;

pub use netlist::{NetlistBuilder, NetlistError, PassMode, RouterModel, Traversal};
pub use port::{Port, PortPair};
pub use registry::RouterRegistry;
