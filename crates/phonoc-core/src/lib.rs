//! PhoNoCMap core: the mapping problem, its evaluator and the DSE engine.
//!
//! This crate is the paper's primary contribution — the "Design Space
//! Exploration" box of Fig. 1 plus the "Mapping Evaluator" — built
//! around an explicit **move abstraction**: search strategies describe
//! candidate solutions as [`mapping::Move`]s (pairwise position swaps,
//! task↔task or task↔free tile) and score them *incrementally*, paying
//! only for the communications a move actually perturbs instead of a
//! full `O(edges × interactions)` re-evaluation.
//!
//! * [`mapping`] — the assignment Ω : C → T (paper Eqs. 5–6) and the
//!   [`mapping::Move`] neighbourhood operations.
//! * [`evaluator`] — worst-case insertion loss and SNR evaluation
//!   (Eqs. 3–4) over precomputed per-tile-pair paths and router
//!   interaction matrices. Every scorer is **bit-identical** to every
//!   other: the full pass [`Evaluator::evaluate_into`]
//!   (allocation-free on a reused [`evaluator::EvalScratch`]) with the
//!   thin allocating wrapper [`Evaluator::evaluate`]; and the
//!   incremental side over an
//!   [`evaluator::EvalState`], where one SNR delta kernel serves the
//!   exact peek [`Evaluator::evaluate_delta`], the bound-then-verify
//!   peek [`Evaluator::evaluate_delta_bounded`] and the commit
//!   [`Evaluator::apply_move`], next to the crosstalk-free loss peeks
//!   (`evaluate_delta_loss`, `evaluate_delta_loss_bounded`). Batched
//!   move scans run on the engine's worker scratches — see [`engine`].
//! * [`problem`] — [`problem::MappingProblem`]: CG + topology + router +
//!   routing + parameters + objective. [`problem::Objective`] spans
//!   three families: worst-case insertion loss, worst-case SNR, and the
//!   modulation-aware laser-power objectives (`power`, `margin` and
//!   their PAM-4 variants) built on `phonoc_phys::LaserBudget`.
//! * [`engine`] — the budgeted, seeded search harness behind the single
//!   entry point [`engine::run_dse`]`(problem, optimizer, &`
//!   [`engine::DseConfig`]`)`: the [`engine::MappingOptimizer`] trait,
//!   full/batch evaluation, and the move cursor
//!   ([`engine::OptContext::set_current`], the typed objective-aware
//!   peek family [`engine::OptContext::peek_move`] / `peek_moves` /
//!   `peek_move_improving` / `peek_moves_improving`, and
//!   [`engine::OptContext::apply_scored_move`]) with **work-aware
//!   budget accounting**: a full evaluation costs `edge_count` integer
//!   units, a peek only the evaluator work it actually triggered. The
//!   peek family is objective-generic, so one optimizer implementation
//!   serves all three objective families bit-identically.
//! * [`parallel`] — the deterministic fork–join primitive behind batch
//!   evaluation (std-thread based; no external dependencies; a batch
//!   forks only once the work it states reaches twice
//!   [`parallel::FORK_WORK`] ledger units, never inside another).
//! * [`telemetry`] — structured run traces: the [`telemetry::TraceSink`]
//!   recorder every [`engine::OptContext`] carries (disabled
//!   [`telemetry::NullSink`] by default — bit-identical results either
//!   way), the always-on [`telemetry::RunStats`] decision counters
//!   (peek route mix, bound rejections, neighbourhood stream, portfolio
//!   rounds, warm-cache hits, exact-lane prunes), and the
//!   `phonocmap-trace/1` JSONL format with its renderer, parser and
//!   analyzer.
//! * [`analysis`] — human-facing per-communication reports with BER and
//!   power-budget verdicts, plus the per-source laser budget
//!   ([`analysis::LaserReport`]): required launch power per source
//!   under the problem objective's modulation format, chip total, and
//!   nonlinearity-threshold feasibility.
//! * [`error`] — shared error type.
//!
//! # Example: full evaluation
//!
//! ```
//! use phonoc_core::prelude::*;
//! use phonoc_phys::{Length, PhysicalParameters};
//! use phonoc_route::XyRouting;
//! use phonoc_router::crux::crux_router;
//! use phonoc_topo::Topology;
//!
//! # fn main() -> Result<(), phonoc_core::CoreError> {
//! let problem = MappingProblem::new(
//!     phonoc_apps::benchmarks::pip(),
//!     Topology::mesh(3, 3, Length::from_mm(2.5)),
//!     crux_router(),
//!     Box::new(XyRouting),
//!     PhysicalParameters::default(),
//!     Objective::MaximizeWorstCaseSnr,
//! )?;
//! let mapping = Mapping::identity(8, 9);
//! let (metrics, score) = problem.evaluate(&mapping);
//! assert!(metrics.worst_case_snr.0 > 0.0);
//! assert_eq!(score, metrics.worst_case_snr.0);
//! # Ok(())
//! # }
//! ```
//!
//! # Example: incremental move scoring
//!
//! ```
//! use phonoc_core::prelude::*;
//! use phonoc_phys::{Length, PhysicalParameters};
//! use phonoc_route::XyRouting;
//! use phonoc_router::crux::crux_router;
//! use phonoc_topo::Topology;
//!
//! # fn main() -> Result<(), phonoc_core::CoreError> {
//! let problem = MappingProblem::new(
//!     phonoc_apps::benchmarks::pip(),
//!     Topology::mesh(3, 3, Length::from_mm(2.5)),
//!     crux_router(),
//!     Box::new(XyRouting),
//!     PhysicalParameters::default(),
//!     Objective::MaximizeWorstCaseSnr,
//! )?;
//! let evaluator = problem.evaluator();
//! let mapping = Mapping::identity(8, 9);
//! let state = evaluator.init_state(&mapping);
//! // Peek a swap without paying for a full re-evaluation; the result
//! // is bit-identical to `evaluator.evaluate(&mapping.with_move(mv))`.
//! let mv = Move::Swap(0, 3);
//! let delta = evaluator.evaluate_delta(&state, &mapping, mv);
//! let full = evaluator.evaluate(&mapping.with_move(mv));
//! assert_eq!(delta.new_worst_snr, full.worst_case_snr);
//! assert_eq!(delta.new_worst_il, full.worst_case_il);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod engine;
pub mod error;
pub mod evaluator;
pub mod mapping;
pub mod montecarlo;
pub mod parallel;
pub mod pareto;
pub mod problem;
pub mod telemetry;

pub use analysis::{analyze, EdgeReport, LaserReport, NetworkReport, SourceLaserReport};
pub use engine::{
    run_dse, run_dse_traced, DseConfig, DseResult, MappingOptimizer, MoveEval, NeighborhoodPolicy,
    OptContext, PeekStrategy,
};
pub use error::CoreError;
pub use evaluator::bound::CertificateBound;
pub use evaluator::{
    BoundedDelta, BoundedLossDelta, DeltaScratch, EdgeMetrics, EvalScratch, EvalState, EvalSummary,
    Evaluator, NetworkMetrics, ScoreDelta, ScoreTables,
};
pub use mapping::{Mapping, Move};
pub use montecarlo::{activity_study, ActivityStudy};
pub use pareto::{random_front, ParetoFront, ParetoPoint};
pub use problem::{MappingProblem, Objective};
pub use telemetry::{
    parse_trace, render_trace, summarize_trace, NullSink, PeekRoute, RunStats, RunTrace,
    TraceEvent, TraceHeader, TraceSink, WarmOutcome, TRACE_SCHEMA,
};

/// Convenient glob import for downstream code and examples.
pub mod prelude {
    pub use crate::analysis::{analyze, NetworkReport};
    pub use crate::engine::{
        run_dse, run_dse_traced, DseConfig, DseResult, MappingOptimizer, MoveEval,
        NeighborhoodPolicy, OptContext, PeekStrategy,
    };
    pub use crate::error::CoreError;
    pub use crate::evaluator::bound::CertificateBound;
    pub use crate::evaluator::{
        EvalScratch, EvalState, EvalSummary, Evaluator, NetworkMetrics, ScoreDelta,
    };
    pub use crate::mapping::{Mapping, Move};
    pub use crate::montecarlo::{activity_study, ActivityStudy};
    pub use crate::pareto::{random_front, ParetoFront};
    pub use crate::problem::{MappingProblem, Objective};
    pub use crate::telemetry::{NullSink, RunStats, RunTrace, TraceEvent, TraceSink};
}
