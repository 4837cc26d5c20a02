//! Mapping optimization strategies for PhoNoCMap (paper Section II-D2).
//!
//! The paper ships three strategies — random search, a genetic algorithm
//! and the purpose-built R-PBLA — and explicitly invites users to
//! "extend the library themselves with other algorithms". This crate
//! implements all three plus three extensions (simulated annealing, tabu
//! search and iterated local search) and an exhaustive oracle for tiny
//! instances; all of them are plain [`MappingOptimizer`](phonoc_core::MappingOptimizer)
//! implementations,
//! so adding another requires no change anywhere else.
//!
//! # Move-based vs. population-based scoring
//!
//! Strategies whose neighbourhood is the pairwise swap walk the engine's
//! **move cursor**: `OptContext::set_current` full-evaluates a starting
//! point once, the peek family scores candidate
//! [`Move`](phonoc_core::Move)s *incrementally*, and `apply_scored_move`
//! commits the chosen one. Peeks are objective-aware, and each
//! `MoveEval` names the `PeekRoute` it took: IL runs ride the
//! crosstalk-free loss delta, SNR runs the exact SNR delta — or, for
//! greedy steps ([`Rpbla`], [`IteratedLocalSearch`] via
//! `peek_move_improving` / `peek_moves_improving`), the family's
//! bound-then-verify peek, which rejects non-improving swaps at a
//! fraction of the exact cost without ever changing the selected move. [`SimulatedAnnealing`] and
//! [`TabuSearch`] need exact scores for worsening moves too and stay on
//! exact peeks. All variants are bit-identical to a full evaluation
//! where a score is produced, charged only for the work the evaluator
//! actually did, and scanned in parallel for whole admitted lists —
//! which is why these descents fit many more probes into the same
//! evaluation budget than a naive re-evaluating loop would.
//!
//! # Budget-aware neighbourhoods
//!
//! *Which* swaps a scan looks at is itself pluggable: the four
//! local-search strategies draw their candidates from a
//! [`Neighborhood`] stream selected by the engine's
//! [`NeighborhoodPolicy`](phonoc_core::NeighborhoodPolicy)
//! (`exhaustive` — the canonical admitted list, the small-mesh default
//! and test oracle; `sampled` — seeded duplicate-free uniform subsets
//! per pass; `locality` — Manhattan-radius-restricted swaps that widen
//! when a scan goes dry; `auto` picks per problem size). On 12×12+
//! meshes the admitted list outgrows any reasonable budget (32 640
//! swaps at 16×16 against the sweep's 1 500 evaluations), so the
//! exhaustive scan degenerates into "score a lexicographic prefix, move
//! once"; the sampled and locality streams keep steepest descent
//! *descending* at the same budget — measured in `BENCH_sweep.json`
//! and pinned by `tests/neighborhood_quality.rs`. See the
//! [`neighborhood`] module docs for the design.
//!
//! Population strategies ([`RandomSearch`], [`GeneticAlgorithm`]) score
//! independent mappings and instead use `OptContext::evaluate_batch`,
//! which fans a generation across CPU cores while keeping results (and
//! the incumbent) in deterministic input order. The GA's *mutation*
//! kernel nevertheless rides the same [`Neighborhood`] abstraction
//! ([`Neighborhood::draw_for`]), so it too respects the engine's
//! neighbourhood policy; RS stays deliberately policy-free (uniform
//! whole-mapping proposals have no neighbourhood). [`Exhaustive`] stays
//! on plain full evaluation.
//!
//! # Portfolio search
//!
//! PR 4's sweep showed no single configuration wins everywhere
//! (sampled takes 42/52 large cells, locality the rest), so the
//! [`portfolio`] subsystem races N lanes — each `(optimizer,
//! NeighborhoodPolicy, PeekStrategy, RNG stream)` — as deterministic
//! bulk-synchronous rounds with **broadcast-best elite exchange**
//! between rounds (every lane restarts from the round's best
//! incumbent) and per-lane budget ledgers that sum exactly to the
//! global budget. Results are
//! bit-identical at every worker-thread count. Registry specs with a
//! `portfolio:` prefix (see [`registry::search_spec`]) name portfolio
//! runs, e.g.
//! `portfolio:r-pbla@sampled+r-pbla@locality+sa,exchange=best,rounds=8`.
//!
//! # Warm starts
//!
//! Service-mode deployments see the same or nearly-the-same request
//! repeatedly (a redeployed workload, a traffic phase re-weighting a
//! few edges). The [`warm`] module closes that loop with a
//! content-addressed [`WarmCache`]: canonically-equal requests return
//! the stored result with **zero** optimizer evaluations, and
//! same-family requests (identical architecture/physics/objective,
//! different edges) seed every round-0 portfolio lane with the best
//! stored elite via [`run_portfolio_seeded`] — the same
//! `set_seed_start` hook elite exchange rides between rounds. Paired
//! with phonoc-core's in-place problem mutation
//! (`MappingProblem::update_edge_bandwidths` / `add_edge` /
//! `remove_edge`), a request stream re-solves a mutated problem
//! without rebuilding architecture tables per request; each request
//! runs in a fresh `OptContext`. `bench::replay` measures what this buys
//! (`BENCH_warmstart.json`); `tests/warm_properties.rs` pins the
//! determinism and key-canonicalization contracts.
//!
//! # Optimality certificates
//!
//! Heuristic scores are relative; the [`exact`] module makes them
//! absolute. [`exact::prove`] runs a deterministic branch-and-bound
//! (registry name `exact`, so `exact!power` and `portfolio:exact+…`
//! lanes parse like any other spec) that assigns tasks in fixed order,
//! tries tiles in ascending index order, and prunes with an admissible
//! score bound ([`phonoc_core::CertificateBound`]) built from two
//! ingredients: the **unaffected-minimum** bound over determined
//! communications (a placed communication's IL is final and its noise
//! only grows — the same monotonicity the engine's bounded SNR peek
//! trusts) and a **Gilmore–Lawler order-statistic tail** over
//! undetermined ones (*r* distinct task pairs must occupy *r* distinct
//! tile-pair paths, so their best IL is at most the *r*-th largest
//! path IL in the instance — one sort at root, O(1) per node, cheap at
//! any mesh size). Both are admissible bit-for-bit: the IL side is
//! exact table comparisons, the SNR side relaxes accumulated noise by
//! `1 − 1e−9` against summation-order rounding (derivation in
//! `phonoc_core::evaluator::bound`).
//!
//! The resulting [`exact::Certificate`] reports `root_bound` (no
//! mapping scores above it), `gap_db = root_bound − best_score ≥ 0`,
//! and `proved` — `true` only when the pruned space was exhausted
//! within budget, making `best_score` *the* optimum. Node expansion
//! rides the engine's integer evaluation-unit ledger
//! ([`phonoc_core::OptContext::charge_bound`]), so `DseConfig` budget,
//! seed, and objective semantics carry over unchanged, and search
//! order, tie-breaks, and node counts are reproducible byte-for-byte.
//! In `BENCH_sweep.json` (schema /7) every cell carries `lower_bound`
//! (the root bound under the row's objective), `gap_db` (distance from
//! that bound to the row's achieved score), and `proved_optimal`
//! (whether the exact lane certified the row's score as optimal);
//! `scripts/bench_gate.py --gaps` fails a run whose proved set shrinks
//! or whose median gap widens against the committed baseline.
//!
//! | Strategy | Type | Scoring path | Paper status |
//! |----------|------|--------------|--------------|
//! | [`RandomSearch`] | sampling | parallel batch | baseline (§II-D2) |
//! | [`GeneticAlgorithm`] | population | parallel batch | baseline (§II-D2) |
//! | [`Rpbla`] | best-move descent + restarts | incremental moves | the paper's contribution |
//! | [`SimulatedAnnealing`] | trajectory | incremental moves | "other strategies" slot |
//! | [`TabuSearch`] | trajectory | incremental moves | "other strategies" slot |
//! | [`IteratedLocalSearch`] | perturb + descend | incremental moves | "other strategies" slot |
//! | [`Exhaustive`] | enumeration | full evaluation | test oracle |
//! | [`ExactSearch`] | branch and bound | bound + full evaluation | optimality certificates |
//!
//! # Example
//!
//! ```
//! use phonoc_core::{run_dse, DseConfig, MappingProblem, Objective};
//! use phonoc_opt::Rpbla;
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
//! let result = run_dse(&problem, &Rpbla, &DseConfig::new(2_000, 42));
//! assert!(result.best_mapping.is_valid());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod annealing;
pub mod exact;
pub mod exhaustive;
pub mod genetic;
pub mod ils;
pub mod neighborhood;
pub mod portfolio;
pub mod random_search;
pub mod registry;
pub mod rpbla;
pub mod tabu;
pub mod warm;

pub use annealing::SimulatedAnnealing;
pub use exact::{prove, prove_traced, root_bound};
pub use exact::{Certificate, ExactSearch};
pub use exhaustive::Exhaustive;
pub use genetic::GeneticAlgorithm;
pub use ils::IteratedLocalSearch;
pub use neighborhood::{admitted_moves, scan_quota, Neighborhood};
pub use portfolio::{
    run_portfolio, run_portfolio_seeded, run_portfolio_seeded_traced, BudgetLedger, LaneOutcome,
    LaneSpec, PortfolioResult, PortfolioSpec,
};
pub use random_search::RandomSearch;
pub use registry::{builtin_names, optimizer, search_spec, single_spec, SearchSpec, SingleSpec};
pub use rpbla::Rpbla;
pub use tabu::TabuSearch;
pub use warm::{FamilyKey, RequestKey, WarmCache, WarmSolve, WarmSource};

#[cfg(test)]
pub(crate) mod test_support {
    use phonoc_core::{MappingProblem, Objective};
    use phonoc_phys::{Length, PhysicalParameters};
    use phonoc_route::XyRouting;
    use phonoc_router::crux::crux_router;
    use phonoc_topo::Topology;

    /// PIP on a 3×3 mesh: small enough for fast tests, structured enough
    /// that search beats luck.
    pub fn tiny_problem() -> MappingProblem {
        MappingProblem::new(
            phonoc_apps::benchmarks::pip(),
            Topology::mesh(3, 3, Length::from_mm(2.5)),
            crux_router(),
            Box::new(XyRouting),
            PhysicalParameters::default(),
            Objective::MaximizeWorstCaseSnr,
        )
        .unwrap()
    }

    /// A 3-task pipeline on a 2×2 mesh: 24 possible mappings, fully
    /// enumerable.
    pub fn micro_problem() -> MappingProblem {
        MappingProblem::new(
            phonoc_apps::synthetic::pipeline(3),
            Topology::mesh(2, 2, Length::from_mm(2.5)),
            crux_router(),
            Box::new(XyRouting),
            PhysicalParameters::default(),
            Objective::MinimizeWorstCaseLoss,
        )
        .unwrap()
    }
}
