//! # phonocmap
//!
//! A Rust reproduction of **PhoNoCMap** (Fusella & Cilardo, DATE 2016):
//! automated design-space exploration of application-task mappings for
//! photonic networks-on-chip, minimizing worst-case insertion loss or
//! maximizing worst-case crosstalk SNR.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`phys`] — photonic building blocks, Table I parameters, transfer
//!   equations, BER and power-budget analysis.
//! * [`router`] — optical router netlists (Crux, crossbars) and the DSL
//!   to define new ones.
//! * [`topo`] — mesh/torus/ring topologies with physical geometry.
//! * [`route`] — XY/YX/ring routing algorithms.
//! * [`apps`] — the paper's eight multimedia benchmarks + generators.
//! * [`core`] — the mapping problem, evaluator, and DSE engine.
//! * [`opt`] — RS, GA, R-PBLA, SA, tabu, exhaustive search strategies,
//!   plus the branch-and-bound exact lane with optimality certificates.
//!
//! # Quickstart
//!
//! ```
//! use phonocmap::prelude::*;
//!
//! # fn main() -> Result<(), phonocmap::core::CoreError> {
//! // VOPD on a 4×4 mesh of Crux routers, XY routing, Table I physics.
//! let problem = MappingProblem::new(
//!     phonocmap::apps::benchmarks::vopd(),
//!     Topology::mesh(4, 4, Length::from_mm(2.5)),
//!     crux_router(),
//!     Box::new(XyRouting),
//!     PhysicalParameters::default(),
//!     Objective::MaximizeWorstCaseSnr,
//! )?;
//!
//! // Optimize with the paper's R-PBLA under a fixed evaluation budget.
//! let result = run_dse(&problem, &Rpbla, &DseConfig::new(2_000, 42));
//! let report = analyze(&problem, &result.best_mapping);
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use phonoc_apps as apps;
pub use phonoc_core as core;
pub use phonoc_opt as opt;
pub use phonoc_phys as phys;
pub use phonoc_route as route;
pub use phonoc_router as router;
pub use phonoc_topo as topo;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use phonoc_apps::{benchmarks, CgBuilder, CommunicationGraph};
    pub use phonoc_core::{
        analyze, run_dse, CoreError, DseConfig, DseResult, Evaluator, Mapping, MappingOptimizer,
        MappingProblem, NeighborhoodPolicy, NetworkReport, Objective, OptContext,
    };
    pub use phonoc_opt::{
        run_portfolio, Certificate, ExactSearch, Exhaustive, GeneticAlgorithm, PortfolioResult,
        PortfolioSpec, RandomSearch, Rpbla, SimulatedAnnealing, TabuSearch,
    };
    pub use phonoc_phys::{Db, Dbm, Length, PhysicalParameters, PowerBudget};
    pub use phonoc_route::{RingRouting, RoutingAlgorithm, XyRouting, YxRouting};
    pub use phonoc_router::crossbar::{crossbar_router, xy_crossbar_router};
    pub use phonoc_router::crux::crux_router;
    pub use phonoc_router::{
        NetlistBuilder, PassMode, Port, PortPair, RouterModel, RouterRegistry,
    };
    pub use phonoc_topo::{fit_grid, TileId, Topology, TopologyKind};
}
