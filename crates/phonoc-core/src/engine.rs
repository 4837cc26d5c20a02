//! The design-space exploration engine: budgeted, seeded, fair.
//!
//! The paper compares RS, GA and R-PBLA "with the same running time". We
//! substitute a deterministic, machine-independent notion of fairness:
//! every optimizer receives the same **evaluation budget**, enforced by
//! [`OptContext`] — the only way an optimizer can score a mapping. The
//! context also tracks the incumbent best and a convergence history, so
//! no optimizer can forget its best or exceed its budget.
//!
//! # Budget units and incremental moves
//!
//! A full evaluation re-scores every CG edge, but an incremental
//! [`Move`] evaluation ([`OptContext::peek_move`]) only re-scores the
//! edges a swap actually perturbs. Charging both one "evaluation" would
//! overbill delta evaluation by an order of magnitude, so the budget is
//! tracked in integer **edge units**: a budget of `B` evaluations is
//! `B × edge_count` units, a full evaluation costs `edge_count` units,
//! and a peek costs `max(1, work)` units — the honest amount of
//! evaluator work it triggered (affected edges for an exact SNR delta,
//! moved edges for a loss delta, victims recomputed before rejection
//! for a bounded peek). All arithmetic is integral, so accounting is
//! exact and deterministic. The one courtesy rule: an action that
//! *starts* within budget is allowed to complete, with the spend
//! saturating at the budget (`evaluations` then reports exactly the
//! configured budget).
//!
//! # Typed, objective-aware peeks
//!
//! Peeks dispatch on the problem [`Objective`] **family** (see
//! [`Objective::is_loss_based`]) and return a [`MoveEval`] **typed by
//! what was actually computed**, so stale figures cannot leak:
//!
//! * loss-based family (worst-case loss, and the modulation-aware
//!   laser-power objective, which is the same worst-link figure shifted
//!   by a constant margin) — [`MoveEval::Loss`] from the crosstalk-free
//!   fast path (`evaluate_delta_loss`), one to two orders of magnitude
//!   cheaper than an SNR delta; improving-only scans additionally ride
//!   the bound-then-verify loss peek (`evaluate_delta_loss_bounded`)
//!   against the threshold [`Objective::il_threshold_for_score`]
//!   derives from the cursor score;
//! * SNR-based family (worst-case SNR, SNR margin), exact
//!   ([`OptContext::peek_move`] / [`OptContext::peek_moves`]) —
//!   [`MoveEval::Snr`] with the full bit-exact delta, or
//!   [`MoveEval::Full`] when the active [`PeekStrategy`] routed the
//!   move to a full scratch re-evaluation;
//! * SNR-based family, improving-only
//!   ([`OptContext::peek_move_improving`] /
//!   [`OptContext::peek_moves_improving`]) — bound-then-verify: moves
//!   that cannot beat the cursor come back as [`MoveEval::Bounded`]
//!   (admissible upper bound, cheap), candidates that might improve are
//!   scored exactly. Greedy selection over an improving scan is
//!   identical to one over exact peeks (property-tested).
//!
//! Every route is bit-identical for every objective in its family
//! (`tests/hybrid_properties.rs` pins all four objectives under all
//! three strategies), so an optimizer written against the peek family
//! is objective-generic for free: the same greedy scan minimizes loss,
//! maximizes SNR, or minimizes the modulation-aware launch power,
//! depending only on the [`Objective`] the context carries.
//!
//! Only exact variants can be committed; [`OptContext::apply_scored_move`]
//! rejects a bounded peek.
//!
//! # One entry point
//!
//! Callers run searches through [`run_dse`] with a [`DseConfig`]: the
//! budget and seed plus the optional knobs — [`PeekStrategy`],
//! [`NeighborhoodPolicy`], an [`Objective`] override (applied via
//! [`OptContext::set_objective`] *before* any evaluation, so a
//! session's scores are always on one scale), and a seed-start
//! [`Mapping`].
//!
//! # One peek route per cursor
//!
//! Deltas are not always cheaper: the allocation-free full
//! [`crate::Evaluator::evaluate_into`] re-evaluation beats the SNR delta
//! on short-path placements, and the delta (or the bound-then-verify
//! peek) wins once paths grow long or traffic concentrates on a hub.
//! Which side wins is a property of the *placement*, not of the move:
//! the committed scenario sweep shows a per-move router sending either
//! all or none of a run's peeks to the full pass on all but a few
//! percent of its rows. SNR-family peeks therefore take **one route per
//! cursor** under a [`PeekStrategy`]:
//!
//! * [`PeekStrategy::Hybrid`] (the default) decides the route when the
//!   cursor is seated ([`OptContext::set_current`]) and after every
//!   commit ([`OptContext::apply_scored_move`]), from the cursor's
//!   [`EvalState`] alone ([`EvalState::prefers_full_peeks`]: mean path
//!   length and occupancy concentration). Every peek against that
//!   cursor is then a full scratch re-evaluation ([`MoveEval::Full`]) or
//!   the delta side — the exact delta, or the bound-then-verify peek in
//!   `_improving` scans;
//! * [`PeekStrategy::Delta`] / [`PeekStrategy::Full`] pin one side —
//!   for benchmarking the route itself and for tests that exercise one
//!   path's accounting.
//!
//! All four peek entry points score through one per-move scorer and
//! book through one routine: the sequential peeks on the context's own
//! scratches, the batch scans on each worker's sticky scratch pair. A
//! sequential peek is therefore indistinguishable from a one-element
//! batch — same [`MoveEval`], ledger, counters and trace events
//! (property-tested in `tests/hybrid_properties.rs`).
//!
//! All routes are **bit-identical**, so the strategy can never change a
//! committed score or a greedy selection — only the wall-clock cost and
//! the *honest* budget charge: a full-backed peek is billed `edge_count`
//! units (and counted as a full evaluation), a delta peek its
//! `affected_edges`. Cheaper routes simply buy more peeks out of the
//! same budget.
//!
//! # Neighbourhood policies
//!
//! Orthogonal to *how* a move is scored (the peek strategy) is *which*
//! moves a swap-based search looks at: the [`NeighborhoodPolicy`] on
//! the context selects the move stream (`exhaustive` admitted list,
//! seeded `sampled` subsets, Manhattan-`locality` restriction, or
//! size-`auto`) that the `Neighborhood` abstraction in `phonoc-opt`
//! materializes. The engine only stores and hands out the policy —
//! scoring, routing and budget accounting are unchanged underneath, so
//! every policy inherits the bit-exactness and honest-ledger guarantees
//! above. Set it per run with [`DseConfig::with_policy`].
//!
//! # Seeded starts (portfolio lanes, warm starts)
//!
//! Optimizers obtain their first solution through
//! [`OptContext::initial_mapping`] — normally a plain random draw, but
//! a caller can plant a specific mapping with
//! [`OptContext::set_seed_start`] (consumed exactly once). This is the
//! elite-exchange hook of the portfolio subsystem in `phonoc-opt`:
//! between bulk-synchronous rounds, a lane resumes from the incumbent
//! its [`DseConfig::start`] carries — and the warm-start cache rides
//! the same hook to seed round 0 from a previously solved neighbour.
//! Unseeded contexts behave bit-identically to the pre-hook engine.
//! A planted seed that nobody consumes is logged once per process and
//! queryable via [`OptContext::seed_start_pending`] (not asserted:
//! start-free strategies like random search legitimately ignore
//! seeds).
//!
//! # Reusable contexts (request streams)
//!
//! A context is built per *session*, but a long-lived driver solving a
//! stream of related requests should not rebuild one per request:
//! [`OptContext::reset_for`] re-arms an existing context for a new
//! `(problem, budget, seed)` while keeping the allocated capital — the
//! grow-only full-evaluation [`EvalScratch`] and the peeks'
//! [`DeltaScratch`] — so steady-state sessions allocate nothing on the
//! hot path. [`OptContext::finish`] extracts a [`DseResult`] without
//! consuming the context, making the persistent-engine loop:
//! `reset_for` → `optimize` → `finish`, repeat. A reused context is
//! property-tested bit-identical to a fresh one
//! (`tests/mutation_properties.rs`); pair with the incremental problem
//! mutation API on [`MappingProblem`] to re-solve a mutated problem
//! without re-running the architecture precomputations.
//!
//! # Telemetry
//!
//! Every routing, bounding and improvement decision the context makes
//! is counted in a [`RunStats`] ledger (always on — integer increments
//! in the same sequential code that keeps the evaluation counters, so
//! they are deterministic at any worker count) and, when a recording
//! [`TraceSink`] is installed with [`OptContext::set_trace_sink`],
//! additionally emitted as a typed [`TraceEvent`]. The default
//! [`NullSink`] reports itself disabled, so
//! emission sites skip event construction entirely and results are
//! bit-identical with and without a recorder (property-pinned in
//! `tests/telemetry_properties.rs`). [`run_dse_traced`] is the
//! one-call traced entry point; [`DseResult::stats`] carries the
//! counter snapshot either way. See [`crate::telemetry`] for the event
//! taxonomy, the determinism contract (counters and event streams
//! deterministic, wall-clock timings advisory and outside the trace)
//! and the reconciliation identities tying the route counters to the
//! evaluation ledger.
//!
//! Optimizers implement [`MappingOptimizer`] (the trait lives here in the
//! core so that new strategies can be added "without any changes in the
//! tool core", paper Section I — implementations live in `phonoc-opt`).
//! Swap-based strategies walk a *cursor* — [`OptContext::set_current`]
//! to full-evaluate a starting point (on the context's reused
//! [`EvalScratch`]), the peek family to score candidate moves
//! incrementally, and [`OptContext::apply_scored_move`] to commit one —
//! while population strategies batch-score whole generations with
//! [`OptContext::evaluate_batch`].

use crate::error::CoreError;
use crate::evaluator::{
    BoundedDelta, BoundedLossDelta, DeltaScratch, EvalScratch, EvalState, EvalSummary, Evaluator,
    ScoreDelta,
};
use crate::mapping::{Mapping, Move};
use crate::parallel;
use crate::problem::{MappingProblem, Objective};
use crate::telemetry::{NullSink, PeekRoute, RunStats, RunTrace, TraceEvent, TraceSink};
use phonoc_phys::Db;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// How SNR-objective peeks score a candidate move (loss-objective peeks
/// always ride the crosstalk-free fast path, which no alternative
/// approaches). See the [module docs](self) for the measured rationale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeekStrategy {
    /// One route per cursor, decided from its state when it is seated
    /// and after every commit ([`EvalState::prefers_full_peeks`]) —
    /// every peek against that cursor takes it (default).
    #[default]
    Hybrid,
    /// Always the incremental delta (exact, or bound-then-verify in the
    /// `_improving` peeks).
    Delta,
    /// Always a full scratch re-evaluation of the moved mapping.
    Full,
}

impl PeekStrategy {
    /// Every strategy, in the canonical order.
    pub const ALL: [PeekStrategy; 3] = [
        PeekStrategy::Hybrid,
        PeekStrategy::Delta,
        PeekStrategy::Full,
    ];

    /// Stable lowercase identifier (used by CLI flags and portfolio
    /// lane specs).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PeekStrategy::Hybrid => "hybrid",
            PeekStrategy::Delta => "delta",
            PeekStrategy::Full => "full",
        }
    }

    /// Looks a strategy up by its [`PeekStrategy::name`]
    /// (case-insensitive).
    #[must_use]
    pub fn by_name(name: &str) -> Option<PeekStrategy> {
        let lower = name.to_lowercase();
        PeekStrategy::ALL.into_iter().find(|s| s.name() == lower)
    }
}

impl fmt::Display for PeekStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How swap-based optimizers enumerate their neighbourhood — the
/// engine-level knob behind the `Neighborhood` move streams implemented
/// in `phonoc-opt`. The policy lives on the [`OptContext`] (set it with
/// [`OptContext::set_neighborhood_policy`] or run through
/// [`DseConfig::with_policy`]) so one setting reaches every optimizer a
/// sweep runs, while the peek route and the honest budget
/// ledger keep working unchanged underneath: a policy only changes
/// *which* moves a scan looks at, never how a looked-at move is scored
/// or billed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NeighborhoodPolicy {
    /// Resolve per problem size: the exhaustive admitted list up to
    /// 8×8-class meshes (where a full scan still fits the paper's
    /// budgets), seeded uniform sampling beyond. The default.
    #[default]
    Auto,
    /// The full admitted swap list in its canonical order — the
    /// original behaviour, kept as the small-mesh default and the test
    /// oracle.
    Exhaustive,
    /// Seeded uniform swap sampling without replacement over the
    /// admitted pairs: each scan pass draws a fresh duplicate-free
    /// subset, so best-of-scanned selection is unbiased instead of
    /// lexicographically truncated.
    Sampled,
    /// Distance-restricted swaps: only moves whose two exchanged tiles
    /// (under the *current* cursor mapping) lie within a Manhattan
    /// radius of each other, widening adaptively when a scan goes dry.
    Locality,
}

impl NeighborhoodPolicy {
    /// Every policy, in the canonical order.
    pub const ALL: [NeighborhoodPolicy; 4] = [
        NeighborhoodPolicy::Auto,
        NeighborhoodPolicy::Exhaustive,
        NeighborhoodPolicy::Sampled,
        NeighborhoodPolicy::Locality,
    ];

    /// Stable lowercase identifier (used by CLI flags and sweep JSON).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            NeighborhoodPolicy::Auto => "auto",
            NeighborhoodPolicy::Exhaustive => "exhaustive",
            NeighborhoodPolicy::Sampled => "sampled",
            NeighborhoodPolicy::Locality => "locality",
        }
    }

    /// Looks a policy up by its [`NeighborhoodPolicy::name`]
    /// (case-insensitive).
    #[must_use]
    pub fn by_name(name: &str) -> Option<NeighborhoodPolicy> {
        let lower = name.to_lowercase();
        NeighborhoodPolicy::ALL
            .into_iter()
            .find(|p| p.name() == lower)
    }
}

impl fmt::Display for NeighborhoodPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A scored candidate [`Move`], produced by the peek entry points
/// ([`OptContext::peek_move`], [`OptContext::peek_moves`], and their
/// `_improving` variants) and consumed by
/// [`OptContext::apply_scored_move`].
///
/// The variant is **typed by what was actually computed**, so stale
/// fields cannot leak: a loss-objective peek never carries an SNR
/// figure (none was evaluated), and a bound-rejected peek carries only
/// its upper bound (the exact score was never derived).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MoveEval {
    /// Loss-objective peek: only the new worst-case insertion loss was
    /// computed, via the crosstalk-free fast path
    /// ([`crate::Evaluator::evaluate_delta_loss`]).
    Loss {
        /// The move that was scored.
        mv: Move,
        /// Objective score (the new worst-case IL in dB; higher =
        /// better) — bit-identical to a full evaluation.
        score: f64,
        /// Worst-case insertion loss after the move.
        new_worst_il: Db,
        /// Edges whose paths the move changes (the delta's honest
        /// cost).
        moved_edges: usize,
    },
    /// SNR-objective exact peek: the full incremental delta.
    Snr {
        /// The move that was scored.
        mv: Move,
        /// Objective score (the new worst-case SNR in dB; higher =
        /// better) — bit-identical to a full evaluation.
        score: f64,
        /// The underlying incremental evaluation.
        delta: ScoreDelta,
    },
    /// Full-scratch peek: the moved mapping was re-evaluated from
    /// scratch because the cursor's route is the full pass — chosen
    /// from its state under [`PeekStrategy::Hybrid`], or pinned by
    /// [`PeekStrategy::Full`]. Exact and committable —
    /// bit-identical to the delta-backed [`MoveEval::Snr`] — and billed
    /// the full pass's honest cost (`edge_count` budget units, counted
    /// as a full evaluation).
    Full {
        /// The move that was scored.
        mv: Move,
        /// Objective score (the new worst-case SNR in dB; higher =
        /// better).
        score: f64,
        /// The full evaluation's worst cases.
        summary: EvalSummary,
    },
    /// Bound-rejected SNR peek: the move's exact score is `≤ bound ≤`
    /// the threshold it was tested against (the cursor score, for the
    /// `_improving` peeks), so it cannot improve. It carries no exact
    /// score and **cannot be committed**.
    Bounded {
        /// The move that was bounded.
        mv: Move,
        /// Admissible upper bound on the move's score.
        bound: Db,
    },
}

impl MoveEval {
    /// The move this evaluation describes.
    #[must_use]
    pub fn mv(&self) -> Move {
        match *self {
            MoveEval::Loss { mv, .. }
            | MoveEval::Snr { mv, .. }
            | MoveEval::Full { mv, .. }
            | MoveEval::Bounded { mv, .. } => mv,
        }
    }

    /// The objective score (higher = better). For exact variants this
    /// is bit-identical to a full evaluation of the moved mapping; for
    /// [`MoveEval::Bounded`] it is the *upper bound* — comparisons
    /// against an incumbent the bound was tested at remain sound, since
    /// the true score is no larger.
    #[must_use]
    pub fn score(&self) -> f64 {
        match *self {
            MoveEval::Loss { score, .. }
            | MoveEval::Snr { score, .. }
            | MoveEval::Full { score, .. } => score,
            MoveEval::Bounded { bound, .. } => bound.0,
        }
    }

    /// Whether an exact score was computed (committable).
    #[must_use]
    pub fn is_exact(&self) -> bool {
        !matches!(self, MoveEval::Bounded { .. })
    }

    /// The full incremental delta, when one was computed
    /// ([`MoveEval::Snr`] only).
    #[must_use]
    pub fn delta(&self) -> Option<&ScoreDelta> {
        match self {
            MoveEval::Snr { delta, .. } => Some(delta),
            _ => None,
        }
    }
}

/// The cursor: the mapping a move-based strategy currently stands on,
/// with its incremental evaluation state and its hybrid peek route.
struct Cursor {
    mapping: Mapping,
    state: EvalState,
    score: f64,
    /// Whether [`PeekStrategy::Hybrid`] sends SNR peeks against this
    /// cursor to the full pass — decided when the cursor is seated and
    /// after every commit, never per move.
    full_route: bool,
}

impl Cursor {
    fn new(mapping: Mapping, state: EvalState, score: f64) -> Cursor {
        let full_route = state.prefers_full_peeks();
        Cursor {
            mapping,
            state,
            score,
            full_route,
        }
    }

    /// The scorer every peek against this cursor runs through.
    fn scorer<'a>(
        &'a self,
        evaluator: &'a Evaluator,
        objective: Objective,
        strategy: PeekStrategy,
        improving: bool,
        unit: u64,
    ) -> Scorer<'a> {
        Scorer {
            evaluator,
            objective,
            mapping: &self.mapping,
            state: &self.state,
            scoring: self.scoring(objective, strategy, improving),
            unit: unit as usize,
        }
    }

    /// How every peek against this cursor is scored, from the objective
    /// family, the pinned strategy and whether the scan only needs
    /// improving moves exactly. Loss-based objectives always ride their
    /// fast path; the plain loss objective's fast path is already exact
    /// and cheap, so it has no bounded variant.
    fn scoring(&self, objective: Objective, strategy: PeekStrategy, improving: bool) -> Scoring {
        if objective.is_loss_based() {
            return if improving && !matches!(objective, Objective::MinimizeWorstCaseLoss) {
                Scoring::LossBounded(objective.il_threshold_for_score(self.score))
            } else {
                Scoring::Loss
            };
        }
        let full = match strategy {
            PeekStrategy::Hybrid => self.full_route,
            PeekStrategy::Delta => false,
            PeekStrategy::Full => true,
        };
        if full {
            Scoring::Full
        } else if improving {
            Scoring::SnrBounded(objective.snr_threshold_for_score(self.score))
        } else {
            Scoring::Snr
        }
    }
}

/// The evaluation path every peek against one cursor takes (the cursor
/// threshold rides along for the bound-then-verify variants).
#[derive(Debug, Clone, Copy)]
enum Scoring {
    /// Full scratch re-evaluation of the moved mapping.
    Full,
    /// Exact SNR delta.
    Snr,
    /// Bound-then-verify SNR peek against the threshold.
    SnrBounded(Db),
    /// Crosstalk-free loss fast path.
    Loss,
    /// Bound-then-verify loss peek against the threshold.
    LossBounded(Db),
}

impl Scoring {
    /// Whether exact results came through a bound-then-verify peek
    /// (booked as verify fall-throughs rather than plain deltas).
    fn bounded(self) -> bool {
        matches!(self, Scoring::SnrBounded(_) | Scoring::LossBounded(_))
    }
}

/// The one per-move scorer behind all four peek entry points: what a
/// peek reads (never writes) about the cursor, plus how to score. The
/// sequential peeks run it on the context's own scratches, the batch
/// scans on each worker's sticky pair.
struct Scorer<'a> {
    evaluator: &'a Evaluator,
    objective: Objective,
    mapping: &'a Mapping,
    state: &'a EvalState,
    scoring: Scoring,
    /// Budget units of a full pass (its honest cost).
    unit: usize,
}

impl Scorer<'_> {
    /// Scores `mv`, returning the typed evaluation and the evaluator
    /// work it cost in budget units (before the one-unit floor).
    fn score(
        &self,
        mv: Move,
        full: &mut EvalScratch,
        delta: &mut DeltaScratch,
    ) -> (MoveEval, usize) {
        let (evaluator, objective) = (self.evaluator, self.objective);
        let (state, mapping) = (self.state, self.mapping);
        let snr = |delta: ScoreDelta| {
            let score = objective.score_worst_snr(delta.new_worst_snr);
            (MoveEval::Snr { mv, score, delta }, delta.affected_edges)
        };
        let loss = |new_worst_il: Db, moved_edges: usize| {
            let score = objective.score_worst_il(new_worst_il);
            let ev = MoveEval::Loss {
                mv,
                score,
                new_worst_il,
                moved_edges,
            };
            (ev, moved_edges)
        };
        match self.scoring {
            Scoring::Full => {
                let summary = evaluator.evaluate_into(&mapping.with_move(mv), None, full);
                let score =
                    objective.score_worst_cases(summary.worst_case_il, summary.worst_case_snr);
                (MoveEval::Full { mv, score, summary }, self.unit)
            }
            Scoring::Snr => snr(evaluator.evaluate_delta_with(state, mapping, mv, delta)),
            Scoring::SnrBounded(threshold) => {
                match evaluator.evaluate_delta_bounded(state, mapping, mv, delta, threshold) {
                    BoundedDelta::Rejected { bound, cost } => {
                        let bound = Db(objective.score_worst_snr(bound));
                        (MoveEval::Bounded { mv, bound }, cost)
                    }
                    BoundedDelta::Exact(d) => snr(d),
                }
            }
            Scoring::Loss => {
                let (il, moved) = evaluator.evaluate_delta_loss(state, mapping, mv, delta);
                loss(il, moved)
            }
            Scoring::LossBounded(threshold) => {
                match evaluator.evaluate_delta_loss_bounded(state, mapping, mv, delta, threshold) {
                    BoundedLossDelta::Rejected { bound, cost } => {
                        let bound = Db(objective.score_worst_il(bound));
                        (MoveEval::Bounded { mv, bound }, cost)
                    }
                    BoundedLossDelta::Exact {
                        new_worst_il,
                        moved_edges,
                    } => loss(new_worst_il, moved_edges),
                }
            }
        }
    }
}

/// The search-side view of a problem: evaluation with budget
/// enforcement, incumbent tracking and a seeded RNG.
pub struct OptContext<'p> {
    problem: &'p MappingProblem,
    /// The objective scores are computed under — the problem's own
    /// unless overridden with [`OptContext::set_objective`] before the
    /// first evaluation (the [`DseConfig::objective`] hook).
    objective: Objective,
    rng: StdRng,
    /// Budget in edge units (`budget_evals × unit`).
    budget_units: u64,
    used_units: u64,
    /// Units per full evaluation (= CG edge count, min 1).
    unit: u64,
    full_evaluations: usize,
    delta_evaluations: usize,
    best: Option<(Mapping, f64)>,
    history: Vec<(usize, f64)>,
    cursor: Option<Cursor>,
    /// How SNR-objective peeks are routed (see [`PeekStrategy`]).
    strategy: PeekStrategy,
    /// How swap neighbourhoods are enumerated (see
    /// [`NeighborhoodPolicy`]); consumed by the `Neighborhood` streams
    /// in `phonoc-opt`.
    policy: NeighborhoodPolicy,
    /// A mapping the next [`OptContext::initial_mapping`] call should
    /// hand out instead of a random draw — how a portfolio lane
    /// resumes from an exchanged elite incumbent.
    seed_start: Option<Mapping>,
    /// Decision counters (always on; see [`crate::telemetry`]). The
    /// two ledger mirrors (`full_evaluations` / `delta_evaluations`)
    /// are filled from the fields above at snapshot time.
    stats: RunStats,
    /// Where trace events go — [`NullSink`] (disabled) unless a
    /// recorder was installed with [`OptContext::set_trace_sink`].
    sink: Box<dyn TraceSink>,
    /// Reused buffers for full evaluations: after warm-up,
    /// [`OptContext::evaluate`] performs no heap allocation.
    full_scratch: EvalScratch,
    /// Reused buffers for the sequential delta peeks and commits; they
    /// outlive cursors and sessions, so the next
    /// [`OptContext::set_current`] — possibly on a different problem —
    /// starts warm.
    delta_scratch: DeltaScratch,
}

impl fmt::Debug for OptContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OptContext")
            .field("budget", &(self.budget_units / self.unit))
            .field("used_units", &self.used_units)
            .field("full_evaluations", &self.full_evaluations)
            .field("delta_evaluations", &self.delta_evaluations)
            .field("best_score", &self.best.as_ref().map(|(_, s)| *s))
            .finish_non_exhaustive()
    }
}

impl<'p> OptContext<'p> {
    /// Creates a context with `budget` full-evaluation-equivalents and a
    /// deterministic RNG seeded with `seed`.
    #[must_use]
    pub fn new(problem: &'p MappingProblem, budget: usize, seed: u64) -> Self {
        let unit = problem.evaluator().edge_count().max(1) as u64;
        OptContext {
            problem,
            objective: problem.objective(),
            rng: StdRng::seed_from_u64(seed),
            budget_units: budget as u64 * unit,
            used_units: 0,
            unit,
            full_evaluations: 0,
            delta_evaluations: 0,
            best: None,
            history: Vec::new(),
            cursor: None,
            strategy: PeekStrategy::default(),
            policy: NeighborhoodPolicy::default(),
            seed_start: None,
            stats: RunStats::default(),
            sink: Box::new(NullSink),
            full_scratch: EvalScratch::default(),
            delta_scratch: DeltaScratch::default(),
        }
    }

    /// Re-arms the context for a fresh session on `problem` — the
    /// warm-start path for request streams. All *run state* (budget
    /// ledger, RNG, incumbent, history, cursor, pending seed start) is
    /// reset exactly as [`OptContext::new`] would; all *capital* is
    /// kept: the grow-only [`EvalScratch`] and [`DeltaScratch`]
    /// survive, so the next session starts allocation-free even on a
    /// different problem. The
    /// problem itself carries the other reusable capital — distance
    /// tables and the interaction matrix live in its [`Evaluator`]
    /// (see its docs on incremental mutation), and the hybrid peek
    /// route is decided at the first [`OptContext::set_current`], which
    /// is exactly when the new placement's state is known.
    ///
    /// A session reset with a planted-but-unconsumed seed start logs
    /// the same misuse warning as a finished session (see
    /// [`OptContext::seed_start_pending`]).
    ///
    /// Peek strategy, neighbourhood policy and the installed
    /// [`TraceSink`] persist across resets — they configure the
    /// engine, not one run. Decision counters ([`OptContext::stats`])
    /// reset with the rest of the run state; drain a recording sink
    /// before resetting if its events should be kept per session.
    ///
    /// [`Evaluator`]: crate::Evaluator
    pub fn reset_for(&mut self, problem: &'p MappingProblem, budget: usize, seed: u64) {
        self.warn_unconsumed_seed("reset_for");
        self.cursor = None;
        self.problem = problem;
        self.objective = problem.objective();
        self.rng = StdRng::seed_from_u64(seed);
        self.unit = problem.evaluator().edge_count().max(1) as u64;
        self.budget_units = budget as u64 * self.unit;
        self.used_units = 0;
        self.full_evaluations = 0;
        self.delta_evaluations = 0;
        self.best = None;
        self.history.clear();
        self.seed_start = None;
        self.stats = RunStats::default();
    }

    /// The objective every evaluation and peek scores under — the
    /// problem's own unless overridden.
    #[must_use]
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Overrides the scoring objective for this session — how
    /// [`DseConfig::objective`] re-targets a search (e.g. a `!power`
    /// spec suffix) without rebuilding the problem and its precomputed
    /// evaluator capital. Resets to the problem's own objective on
    /// [`OptContext::reset_for`].
    ///
    /// # Errors
    ///
    /// [`CoreError::ObjectiveLocked`] if any evaluation or peek already
    /// happened — mixing scores from two objectives in one
    /// incumbent/history would be meaningless, so the objective is
    /// locked by the first evaluation and the context is left
    /// unchanged. Debug builds additionally assert, so misuse fails
    /// loudly during development; release builds report the documented
    /// error.
    pub fn set_objective(&mut self, objective: Objective) -> Result<(), CoreError> {
        let locked = self.used_units != 0 || self.cursor.is_some() || self.best.is_some();
        debug_assert!(
            !locked,
            "set_objective must be called before any evaluation"
        );
        if locked {
            return Err(CoreError::ObjectiveLocked {
                evaluations: self.used(),
            });
        }
        self.objective = objective;
        Ok(())
    }

    /// The active neighbourhood-enumeration policy.
    #[must_use]
    pub fn neighborhood_policy(&self) -> NeighborhoodPolicy {
        self.policy
    }

    /// Pins the neighbourhood-enumeration policy swap-based optimizers
    /// should build their move streams from. Purely a *selection*
    /// setting: every selected move is still scored and billed by the
    /// same peek machinery, so scores stay bit-exact and the budget
    /// ledger honest under every policy.
    pub fn set_neighborhood_policy(&mut self, policy: NeighborhoodPolicy) {
        self.policy = policy;
    }

    /// Manhattan distance between two **tiles** (row-major tile
    /// indices) on the problem's topology grid; wrap-around links, if
    /// any, are ignored. This is the layout distance
    /// [`NeighborhoodPolicy::Locality`] move streams restrict swaps by
    /// — note that a `Move::Swap(a, b)` names permutation *slots*, so
    /// the tiles it exchanges are `mapping.permutation()[a]` /
    /// `[b]`, not `a`/`b` themselves.
    ///
    /// # Panics
    ///
    /// Panics if either tile index is out of the topology's range.
    #[must_use]
    pub fn tile_distance(&self, a: usize, b: usize) -> usize {
        let topo = self.problem.topology();
        let ca = topo.coord(phonoc_topo::TileId(a));
        let cb = topo.coord(phonoc_topo::TileId(b));
        ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y)
    }

    /// The active SNR-peek routing strategy.
    #[must_use]
    pub fn peek_strategy(&self) -> PeekStrategy {
        self.strategy
    }

    /// Pins (or restores) the SNR-peek routing strategy for subsequent
    /// peeks. Every strategy produces bit-identical exact scores, so
    /// this can never change what a search *selects* — only what each
    /// peek costs (wall clock and honest budget units).
    pub fn set_peek_strategy(&mut self, strategy: PeekStrategy) {
        self.strategy = strategy;
    }

    /// The problem under optimization.
    #[must_use]
    pub fn problem(&self) -> &'p MappingProblem {
        self.problem
    }

    /// Number of tasks to place.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.problem.task_count()
    }

    /// Number of tiles available.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.problem.tile_count()
    }

    /// The seeded random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Full-evaluation-equivalents still available (rounded up, so any
    /// nonzero remainder reports at least 1).
    #[must_use]
    pub fn remaining(&self) -> usize {
        ((self.budget_units - self.used_units).div_ceil(self.unit)) as usize
    }

    /// Full-evaluation-equivalents consumed so far (rounded up).
    #[must_use]
    pub fn used(&self) -> usize {
        self.used_units.div_ceil(self.unit) as usize
    }

    /// Full evaluations performed (each charged `edge_count` units),
    /// including peeks the [`PeekStrategy`] routed to a full pass.
    #[must_use]
    pub fn full_evaluations(&self) -> usize {
        self.full_evaluations
    }

    /// Incremental move evaluations performed (each charged by its
    /// affected-edge count).
    #[must_use]
    pub fn delta_evaluations(&self) -> usize {
        self.delta_evaluations
    }

    /// Whether the budget is exhausted.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.used_units >= self.budget_units
    }

    /// Charges `cost` units; the action was admitted before starting, so
    /// the spend saturates at the budget.
    fn charge(&mut self, cost: u64) {
        self.used_units = (self.used_units + cost).min(self.budget_units);
    }

    /// Admits and charges `cost` edge-units of admissible-bound work —
    /// the integer-ledger hook certificate searches
    /// (`phonoc_opt::exact`) ride, so branch-and-bound node expansion
    /// spends the same budget currency as every evaluation and peek and
    /// `run_dse` semantics (budget, seed, objective) carry over
    /// unchanged. Each admitted call charges at least one unit (bound
    /// maintenance for a node that determined no new communication
    /// still walks the occupancy tables) and counts as one incremental
    /// evaluation in the session statistics, exactly like a delta peek
    /// charged by its affected-edge count.
    ///
    /// Returns `false` — charging nothing — once the budget is
    /// exhausted; the search should then abandon its certificate and
    /// return with the incumbent.
    pub fn charge_bound(&mut self, cost: u64) -> bool {
        if self.exhausted() {
            return false;
        }
        self.charge(cost.max(1));
        self.delta_evaluations += 1;
        self.stats.bound_charges += 1;
        true
    }

    /// Builds and records `event` only when a recording sink is
    /// installed — the zero-cost-when-off hook every emission site
    /// goes through.
    #[inline]
    fn emit(&mut self, event: impl FnOnce() -> TraceEvent) {
        if self.sink.enabled() {
            let ev = event();
            self.sink.record(ev);
        }
    }

    /// Installs the sink subsequent events are recorded into
    /// (replacing the default disabled [`NullSink`]). Installing a
    /// recorder never changes scores, evaluation counts or RNG draws —
    /// only whether decisions are *also* emitted as [`TraceEvent`]s
    /// (bit-identity is property-pinned in
    /// `tests/telemetry_properties.rs`).
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = sink;
    }

    /// Whether a recording sink is installed (events are being
    /// emitted).
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// Takes the recorded events out of the installed sink (empty for
    /// the default [`NullSink`]).
    pub fn drain_trace(&mut self) -> Vec<TraceEvent> {
        self.sink.drain()
    }

    /// Snapshot of the session's decision counters, with the ledger
    /// mirrors (`full_evaluations` / `delta_evaluations`) filled in.
    /// The route counters always partition the ledger
    /// ([`RunStats::reconciles`]).
    #[must_use]
    pub fn stats(&self) -> RunStats {
        RunStats {
            full_evaluations: self.full_evaluations,
            delta_evaluations: self.delta_evaluations,
            ..self.stats
        }
    }

    /// The convergence history so far: `(evaluation index, incumbent
    /// score)` at every improvement — the same trajectory
    /// [`DseResult::history`] reports after the session.
    #[must_use]
    pub fn history(&self) -> &[(usize, f64)] {
        &self.history
    }

    /// Records a neighbourhood stream widening (radius after the
    /// widen). Counter + optional [`TraceEvent::Widened`].
    pub fn note_widened(&mut self, radius: usize) {
        self.stats.widenings += 1;
        self.emit(|| TraceEvent::Widened { radius });
    }

    /// Records a scan pass that produced no improving (or no
    /// admissible) move at `radius` — the widen trigger.
    pub fn note_scan_dry(&mut self, radius: usize) {
        self.stats.dry_scans += 1;
        self.emit(|| TraceEvent::DryScan { radius });
    }

    /// Records a neighbourhood stream narrowing back on improvement
    /// (radius after the narrow).
    pub fn note_narrowed(&mut self, radius: usize) {
        self.stats.narrowings += 1;
        self.emit(|| TraceEvent::Narrowed { radius });
    }

    /// Records an exact-lane search outcome: node/leaf totals plus the
    /// bound-cut depth histogram (`cut_depths[d]` = subtrees cut at
    /// assignment depth `d`). Counters + optional
    /// [`TraceEvent::ExactSummary`] / [`TraceEvent::ExactCuts`]
    /// events (one per non-empty depth bucket).
    pub fn note_exact_search(&mut self, nodes: usize, leaves: usize, cut_depths: &[usize]) {
        self.stats.exact_nodes += nodes;
        self.stats.exact_leaves += leaves;
        self.emit(|| TraceEvent::ExactSummary { nodes, leaves });
        for (depth, &cuts) in cut_depths.iter().enumerate() {
            if cuts > 0 {
                self.emit(|| TraceEvent::ExactCuts { depth, cuts });
            }
        }
    }

    fn record(&mut self, mapping: &Mapping, score: f64) {
        let improved = self.best.as_ref().is_none_or(|(_, s)| score > *s);
        if improved {
            self.best = Some((mapping.clone(), score));
            let index = self.used();
            self.history.push((index, score));
            self.stats.improvements += 1;
            self.emit(|| TraceEvent::Improved {
                spent: index,
                score_bits: score.to_bits(),
            });
        }
    }

    /// Scores `mapping` under the problem objective (higher = better),
    /// consuming one full evaluation. Returns `None` — without
    /// evaluating — once the budget is exhausted; optimizers should then
    /// return. Runs on the context's reused [`EvalScratch`], so the
    /// evaluation itself allocates nothing.
    pub fn evaluate(&mut self, mapping: &Mapping) -> Option<f64> {
        if self.exhausted() {
            return None;
        }
        self.charge(self.unit);
        self.full_evaluations += 1;
        self.stats.full_direct += 1;
        let summary = self
            .problem
            .evaluator()
            .evaluate_into(mapping, None, &mut self.full_scratch);
        let score = self
            .objective
            .score_worst_cases(summary.worst_case_il, summary.worst_case_snr);
        self.record(mapping, score);
        Some(score)
    }

    /// Scores a batch of mappings (in parallel across CPU cores), each
    /// consuming one full evaluation. Only as many mappings as the
    /// remaining budget admits are evaluated: the returned vector holds
    /// scores for the evaluated *prefix* and may be shorter than the
    /// input. Incumbent tracking visits results in input order, so the
    /// outcome is identical to a sequential [`OptContext::evaluate`]
    /// loop.
    pub fn evaluate_batch(&mut self, mappings: &[Mapping]) -> Vec<f64> {
        let admit = self.remaining().min(mappings.len());
        if admit == 0 {
            return Vec::new();
        }
        let summaries = self
            .problem
            .evaluator()
            .evaluate_summaries_batch(&mappings[..admit]);
        let objective = self.objective;
        let mut scores = Vec::with_capacity(admit);
        for (mapping, s) in mappings.iter().zip(summaries) {
            self.charge(self.unit);
            self.full_evaluations += 1;
            self.stats.full_direct += 1;
            let score = objective.score_worst_cases(s.worst_case_il, s.worst_case_snr);
            self.record(mapping, score);
            scores.push(score);
        }
        scores
    }

    /// Convenience: a uniformly random valid mapping from the context's
    /// RNG.
    #[must_use]
    pub fn random_mapping(&mut self) -> Mapping {
        Mapping::random(
            self.problem.task_count(),
            self.problem.tile_count(),
            &mut self.rng,
        )
    }

    /// Seeds the *next* [`OptContext::initial_mapping`] call with
    /// `mapping` — how a portfolio round hands a lane the elite
    /// incumbent it should resume from. One-shot: the seed is consumed
    /// by the first `initial_mapping` call; later calls (and every call
    /// when no seed was planted) fall back to a random draw.
    pub fn set_seed_start(&mut self, mapping: Mapping) {
        self.seed_start = Some(mapping);
    }

    /// Whether a planted seed start is still waiting to be consumed by
    /// [`OptContext::initial_mapping`]. A seed still pending when the
    /// session ends (or is [`OptContext::reset_for`]) usually means the
    /// optimizer never called `initial_mapping` — e.g. a strategy that
    /// draws its own random starts was handed an elite incumbent it
    /// silently ignored. That is *legal* (random search deliberately
    /// stays start-free, and portfolios do seed RS lanes), so the
    /// engine logs a rate-limited warning instead of asserting; this
    /// query lets harnesses and tests check the outcome explicitly.
    #[must_use]
    pub fn seed_start_pending(&self) -> bool {
        self.seed_start.is_some()
    }

    /// Logs (once per process) when a session finishes with a planted
    /// seed start nobody consumed — the "seed set but never used"
    /// misuse is otherwise silent, and a hard assert would misfire on
    /// the legitimately start-free strategies.
    fn warn_unconsumed_seed(&self, when: &str) {
        if self.seed_start.is_some() {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "phonoc-core: a seed start planted with set_seed_start was never \
                     consumed by initial_mapping (detected at {when}); the optimizer \
                     likely draws its own starts. Further occurrences are not logged."
                );
            });
        }
    }

    /// The mapping an optimizer should start its search from: the
    /// planted seed start, if one is pending, otherwise a fresh
    /// [`OptContext::random_mapping`] draw. Unseeded contexts behave
    /// bit-identically to `random_mapping` (same single RNG draw), so
    /// migrating an optimizer's starting point onto this entry point
    /// changes nothing outside portfolio runs.
    #[must_use]
    pub fn initial_mapping(&mut self) -> Mapping {
        match self.seed_start.take() {
            Some(m) => m,
            None => self.random_mapping(),
        }
    }

    /// Full-evaluates `mapping`, makes it the cursor for subsequent
    /// [`OptContext::peek_move`] / [`OptContext::apply_scored_move`]
    /// calls, and returns its score. Consumes one full evaluation;
    /// `None` once the budget is exhausted.
    pub fn set_current(&mut self, mapping: Mapping) -> Option<f64> {
        if self.exhausted() {
            return None;
        }
        self.charge(self.unit);
        self.full_evaluations += 1;
        self.stats.full_direct += 1;
        let state = self.problem.evaluator().init_state(&mapping);
        let score = self
            .objective
            .score_worst_cases(state.worst_case_il(), state.worst_case_snr());
        self.record(&mapping, score);
        self.cursor = Some(Cursor::new(mapping, state, score));
        Some(score)
    }

    /// The cursor's mapping, if [`OptContext::set_current`] was called.
    #[must_use]
    pub fn current_mapping(&self) -> Option<&Mapping> {
        self.cursor.as_ref().map(|c| &c.mapping)
    }

    /// The cursor's score.
    #[must_use]
    pub fn current_score(&self) -> Option<f64> {
        self.cursor.as_ref().map(|c| c.score)
    }

    /// Incrementally scores `mv` against the cursor without moving it,
    /// dispatching on the [`Objective`] family (see
    /// [`Objective::is_loss_based`]):
    ///
    /// * loss-based objectives (worst-case loss, laser power) — the
    ///   crosstalk-free fast path
    ///   ([`crate::Evaluator::evaluate_delta_loss`]), charged
    ///   `max(1, moved_edges)` units, returning [`MoveEval::Loss`];
    /// * SNR-based objectives (worst-case SNR, SNR margin) — the
    ///   cursor's route under the active [`PeekStrategy`]: the exact
    ///   SNR-bearing delta, charged `max(1, affected_edges)` units and
    ///   returning [`MoveEval::Snr`], or a full scratch re-evaluation,
    ///   charged `edge_count` units and returning [`MoveEval::Full`].
    ///
    /// Either way the score is bit-identical to a full evaluation of
    /// the moved mapping. Returns `None` once the budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if no cursor is set.
    pub fn peek_move(&mut self, mv: Move) -> Option<MoveEval> {
        self.peek_one(mv, false)
    }

    /// Like [`OptContext::peek_move`], but only guarantees an exact
    /// score for moves that can *improve* on the cursor: candidates are
    /// run through the objective family's bound-then-verify peek
    /// ([`crate::Evaluator::evaluate_delta_bounded`] for SNR-based
    /// objectives, [`crate::Evaluator::evaluate_delta_loss_bounded`]
    /// for the laser-power objective) with the admissible rejection
    /// threshold the objective derives from the cursor score
    /// ([`Objective::snr_threshold_for_score`] /
    /// [`Objective::il_threshold_for_score`]), and non-improving moves
    /// come back as [`MoveEval::Bounded`] at a fraction of the exact
    /// cost (charged by the work actually performed). Moves that can
    /// beat the cursor are scored exactly, bit-identical to
    /// [`OptContext::peek_move`]. Under the plain loss objective the
    /// fast path is already cheap and exact, so this is identical to
    /// `peek_move`. When the cursor's route is the full pass, every
    /// move comes back as an exact [`MoveEval::Full`], improving or
    /// not — which never changes what a greedy scan selects, since
    /// exact scores and bounds order identically around the cursor
    /// threshold.
    ///
    /// Greedy strategies (steepest or first improvement against the
    /// cursor) select exactly the same moves as with exact peeks.
    ///
    /// # Panics
    ///
    /// Panics if no cursor is set.
    pub fn peek_move_improving(&mut self, mv: Move) -> Option<MoveEval> {
        self.peek_one(mv, true)
    }

    /// Batch variant of [`OptContext::peek_move`] (the R-PBLA
    /// admitted-list scan): scores every move in one order-preserving
    /// parallel pass. Only as many moves as the remaining budget admits
    /// are *charged*: the returned vector covers the charged prefix of
    /// `moves` and may be shorter than the input. Deterministic: results
    /// and incumbent updates are in input order.
    ///
    /// # Panics
    ///
    /// Panics if no cursor is set.
    pub fn peek_moves(&mut self, moves: &[Move]) -> Vec<MoveEval> {
        self.peek_batch(moves, false)
    }

    /// Batch variant of [`OptContext::peek_move_improving`]: every move
    /// is tested against the cursor score at the time of the call.
    /// Improving moves come back exact, non-improving ones as
    /// [`MoveEval::Bounded`] — unless the cursor's route is the full
    /// pass, which always yields exact [`MoveEval::Full`]s. Either way
    /// the selection a greedy step makes over the result is identical
    /// to one over [`OptContext::peek_moves`].
    ///
    /// # Panics
    ///
    /// Panics if no cursor is set.
    pub fn peek_moves_improving(&mut self, moves: &[Move]) -> Vec<MoveEval> {
        self.peek_batch(moves, true)
    }

    /// The sequential peeks: the shared scorer on the context's own
    /// scratches (no pool dispatch, no result vector), then the shared
    /// booking.
    fn peek_one(&mut self, mv: Move, improving: bool) -> Option<MoveEval> {
        if self.exhausted() {
            return None;
        }
        let scorer = self
            .cursor
            .as_ref()
            .expect("peek_move without set_current")
            .scorer(
                self.problem.evaluator(),
                self.objective,
                self.strategy,
                improving,
                self.unit,
            );
        let (ev, cost) = scorer.score(mv, &mut self.full_scratch, &mut self.delta_scratch);
        let bounded = scorer.scoring.bounded();
        Some(self.book_peek(ev, cost, bounded))
    }

    /// The batch scans: the shared scorer over `moves` in one
    /// order-preserving parallel pass (each worker's sticky scratch slot
    /// holds a full/delta scratch pair, built once per worker lifetime),
    /// then the shared booking in input order until the budget runs
    /// out.
    fn peek_batch(&mut self, moves: &[Move], improving: bool) -> Vec<MoveEval> {
        if self.exhausted() || moves.is_empty() {
            return Vec::new();
        }
        let scorer = self
            .cursor
            .as_ref()
            .expect("peek_moves without set_current")
            .scorer(
                self.problem.evaluator(),
                self.objective,
                self.strategy,
                improving,
                self.unit,
            );
        let scored = parallel::parallel_map_with(
            moves,
            || (EvalScratch::default(), DeltaScratch::default()),
            |(full, delta), &mv| scorer.score(mv, full, delta),
        );
        let bounded = scorer.scoring.bounded();
        let mut out = Vec::with_capacity(scored.len());
        for (ev, cost) in scored {
            if self.exhausted() {
                break;
            }
            out.push(self.book_peek(ev, cost, bounded));
        }
        out
    }

    /// Books one scored peek — the one routine every peek entry point
    /// charges through: bills `max(1, cost)` units, counts a full-backed
    /// peek as a full evaluation and everything else as a delta
    /// evaluation, classifies the route (`bounded` says whether exact
    /// results came through the bound-then-verify peek), emits the
    /// [`TraceEvent::PeekRouted`] event and tracks the incumbent.
    /// Counters and events happen here, in input order, never inside a
    /// parallel scan — that is what keeps the stream deterministic.
    fn book_peek(&mut self, ev: MoveEval, cost: usize, bounded: bool) -> MoveEval {
        let charged = cost.max(1);
        self.charge(charged as u64);
        let route = match ev {
            MoveEval::Full { .. } => {
                self.full_evaluations += 1;
                self.stats.full_peeks += 1;
                PeekRoute::Full
            }
            MoveEval::Bounded { .. } => {
                self.delta_evaluations += 1;
                self.stats.bound_rejected += 1;
                PeekRoute::BoundedRejected
            }
            MoveEval::Snr { .. } | MoveEval::Loss { .. } if bounded => {
                self.delta_evaluations += 1;
                self.stats.bound_verified += 1;
                PeekRoute::BoundedVerified
            }
            MoveEval::Snr { .. } => {
                self.delta_evaluations += 1;
                self.stats.delta_exact += 1;
                PeekRoute::Delta
            }
            MoveEval::Loss { .. } => {
                self.delta_evaluations += 1;
                self.stats.loss_fast_path += 1;
                PeekRoute::Loss
            }
        };
        self.emit(|| TraceEvent::PeekRouted {
            route,
            cost: charged,
        });
        if ev.is_exact() {
            self.note_peeked(ev.mv(), ev.score());
        }
        ev
    }

    /// Records a peeked candidate into the incumbent if it improves —
    /// materializing the moved mapping only in that (rare) case, so no
    /// strategy can lose a best solution it merely looked at.
    fn note_peeked(&mut self, mv: Move, score: f64) {
        let improves = self.best.as_ref().is_none_or(|(_, s)| score > *s);
        if improves {
            let cursor = self.cursor.as_ref().expect("cursor checked by caller");
            let moved = cursor.mapping.with_move(mv);
            self.record(&moved, score);
        }
    }

    /// Commits a previously peeked move: the cursor's mapping and
    /// incremental state advance to the moved solution. Free of charge —
    /// the scoring work was already billed by the peek.
    ///
    /// # Panics
    ///
    /// Panics if no cursor is set, or if `ev` is a bound-rejected peek
    /// ([`MoveEval::Bounded`] carries no exact score — re-peek the move
    /// exactly if a strategy really wants to commit a non-improving
    /// move). Debug builds additionally assert that the committed state
    /// bit-matches a full re-evaluation and that the peeked score is
    /// consistent with it.
    pub fn apply_scored_move(&mut self, ev: &MoveEval) {
        assert!(
            ev.is_exact(),
            "cannot commit a bound-rejected peek ({:?})",
            ev.mv()
        );
        let cursor = self
            .cursor
            .as_mut()
            .expect("apply_scored_move without set_current");
        self.problem.evaluator().apply_move(
            &mut cursor.state,
            &mut cursor.mapping,
            ev.mv(),
            &mut self.delta_scratch,
        );
        let score = self
            .objective
            .score_worst_cases(cursor.state.worst_case_il(), cursor.state.worst_case_snr());
        debug_assert_eq!(
            score,
            ev.score(),
            "committed move score diverged from its peek"
        );
        cursor.score = score;
        // Re-decide the route on the committed state: descents change
        // path lengths and occupancy, and the route should track the
        // placement the peeks actually score (one `O(tiles)` pass).
        cursor.full_route = cursor.state.prefers_full_peeks();
        let mapping = cursor.mapping.clone();
        self.record(&mapping, score);
    }

    /// The incumbent best, if any evaluation happened.
    #[must_use]
    pub fn best(&self) -> Option<(&Mapping, f64)> {
        self.best.as_ref().map(|(m, s)| (m, *s))
    }

    /// Extracts the finished session's [`DseResult`] while keeping the
    /// context alive for reuse — pair with [`OptContext::reset_for`] to
    /// run a request stream through one context. Logs the unconsumed-
    /// seed-start warning if applicable.
    ///
    /// # Panics
    ///
    /// Panics if no mapping was ever evaluated (zero budget or a broken
    /// strategy) — same contract as [`run_dse`].
    #[must_use]
    pub fn finish(&mut self, optimizer: &str) -> DseResult {
        self.warn_unconsumed_seed("finish");
        let evaluations = self.used();
        let (best_mapping, best_score) = self
            .best
            .clone()
            .expect("optimizer must evaluate at least one mapping");
        let stats = self.stats();
        let budget = (self.budget_units / self.unit) as usize;
        self.emit(|| TraceEvent::SessionEnd {
            stats,
            spent: evaluations,
            budget,
            score_bits: best_score.to_bits(),
        });
        DseResult {
            optimizer: optimizer.to_owned(),
            best_mapping,
            best_score,
            evaluations,
            full_evaluations: self.full_evaluations,
            delta_evaluations: self.delta_evaluations,
            history: std::mem::take(&mut self.history),
            stats,
        }
    }
}

/// A mapping optimization strategy (paper Section II-D2). Object-safe so
/// strategies can be registered and swapped at run time.
pub trait MappingOptimizer: fmt::Debug {
    /// Short identifier, e.g. `"rs"`, `"ga"`, `"r-pbla"`.
    fn name(&self) -> &'static str;

    /// Runs the search until the context's budget is exhausted (or the
    /// strategy converges). All scoring must go through the context
    /// ([`OptContext::evaluate`], [`OptContext::evaluate_batch`], or the
    /// move API); the incumbent best is tracked there.
    fn optimize(&self, ctx: &mut OptContext<'_>);
}

/// Outcome of one DSE run.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// Optimizer name.
    pub optimizer: String,
    /// Best mapping found.
    pub best_mapping: Mapping,
    /// Its score (higher = better; dB of worst-case IL or SNR depending
    /// on the objective).
    pub best_score: f64,
    /// Budget actually consumed, in full-evaluation-equivalents
    /// (rounded up; delta evaluations are charged fractionally, see
    /// [`OptContext`]).
    pub evaluations: usize,
    /// Count of full evaluations performed.
    pub full_evaluations: usize,
    /// Count of incremental move evaluations performed.
    pub delta_evaluations: usize,
    /// `(evaluation index, incumbent score)` at every improvement.
    pub history: Vec<(usize, f64)>,
    /// Decision counters for the session (route mix, bound rejections,
    /// neighbourhood stream, improvements) — see [`crate::telemetry`].
    pub stats: RunStats,
}

/// Everything a single search session is configured with — budget,
/// seed, peek routing, neighbourhood policy, objective override, seeded
/// start — built fluently and handed to [`run_dse`], the one search
/// entry point:
///
/// ```ignore
/// let result = run_dse(&problem, &Rpbla, &DseConfig::new(2_000, 42));
/// let tuned = run_dse(
///     &problem,
///     &Rpbla,
///     &DseConfig::new(2_000, 42)
///         .with_policy(NeighborhoodPolicy::Sampled)
///         .with_strategy(PeekStrategy::Delta)
///         .with_objective(Objective::MinimizeLaserPower { modulation: Modulation::Ook }),
/// );
/// ```
///
/// `DseConfig::new(budget, seed)` is exactly the classic defaults:
/// hybrid peeks, auto neighbourhood, the problem's own objective, a
/// random starting point. A config is plain data (`Clone`), so sweeps
/// can build one base config and vary a field per cell.
#[derive(Debug, Clone, Default)]
pub struct DseConfig {
    /// Evaluation budget in full-evaluation-equivalents.
    pub budget: usize,
    /// RNG seed — same seed, same result.
    pub seed: u64,
    /// SNR-peek routing (cost only — never changes scores).
    pub strategy: PeekStrategy,
    /// Neighbourhood-enumeration policy for swap-based scans.
    pub policy: NeighborhoodPolicy,
    /// Objective override for this session (`None` scores under the
    /// problem's own objective) — how a `!power` spec suffix re-targets
    /// a search without rebuilding the problem.
    pub objective: Option<Objective>,
    /// Mapping the optimizer's first [`OptContext::initial_mapping`]
    /// call hands out — the elite-exchange hook portfolio lanes resume
    /// through. `None` keeps the classic random start.
    pub start: Option<Mapping>,
}

impl DseConfig {
    /// A config with the classic defaults: hybrid peeks, auto
    /// neighbourhood, the problem's own objective, a random start.
    #[must_use]
    pub fn new(budget: usize, seed: u64) -> Self {
        DseConfig {
            budget,
            seed,
            ..DseConfig::default()
        }
    }

    /// Pins the SNR-peek routing strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: PeekStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Pins the neighbourhood-enumeration policy.
    #[must_use]
    pub fn with_policy(mut self, policy: NeighborhoodPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the scoring objective for this session.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = Some(objective);
        self
    }

    /// Plants the mapping the optimizer starts from (the portfolio
    /// elite-exchange / warm-start hook).
    #[must_use]
    pub fn with_start(mut self, start: Mapping) -> Self {
        self.start = Some(start);
        self
    }
}

/// Runs `optimizer` on `problem` under `config` — **the** search entry
/// point: every knob a session has (budget, seed, peek strategy,
/// neighbourhood policy, objective override, seeded start) arrives
/// through the one [`DseConfig`]. The portfolio subsystem drives this
/// once per (lane, round) with [`DseConfig::start`] carrying the
/// exchanged incumbent; plain callers build
/// `DseConfig::new(budget, seed)` and go.
///
/// Sessions are deterministic per `(config, problem)`: same seed, same
/// result, with the honest budget ledger and incumbent tracking
/// documented on [`OptContext`].
///
/// # Panics
///
/// Panics if the optimizer returns without evaluating a single mapping
/// (which would mean a zero budget or a broken strategy).
#[must_use]
pub fn run_dse(
    problem: &MappingProblem,
    optimizer: &dyn MappingOptimizer,
    config: &DseConfig,
) -> DseResult {
    let mut ctx = OptContext::new(problem, config.budget, config.seed);
    apply_config(&mut ctx, config);
    optimizer.optimize(&mut ctx);
    ctx.finish(optimizer.name())
}

/// [`run_dse`] with a recording [`RunTrace`] installed: the same
/// session bit for bit (scores, evaluation counts, RNG draws — the
/// recorder is invisible to the search; property-pinned in
/// `tests/telemetry_properties.rs`), plus the drained [`TraceEvent`]
/// stream, ready for [`crate::telemetry::render_trace`]. The stream is
/// byte-reproducible per `(problem, config)` at any worker count.
///
/// # Panics
///
/// Same contract as [`run_dse`].
#[must_use]
pub fn run_dse_traced(
    problem: &MappingProblem,
    optimizer: &dyn MappingOptimizer,
    config: &DseConfig,
) -> (DseResult, Vec<TraceEvent>) {
    let mut ctx = OptContext::new(problem, config.budget, config.seed);
    ctx.set_trace_sink(Box::new(RunTrace::new()));
    apply_config(&mut ctx, config);
    optimizer.optimize(&mut ctx);
    let result = ctx.finish(optimizer.name());
    let events = ctx.drain_trace();
    (result, events)
}

/// The shared configuration step of [`run_dse`] / [`run_dse_traced`]:
/// applies every [`DseConfig`] knob to a fresh context.
fn apply_config(ctx: &mut OptContext<'_>, config: &DseConfig) {
    if let Some(objective) = config.objective {
        ctx.set_objective(objective)
            .expect("a fresh context has not evaluated yet");
    }
    ctx.set_peek_strategy(config.strategy);
    ctx.set_neighborhood_policy(config.policy);
    if let Some(start) = &config.start {
        ctx.set_seed_start(start.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Objective;
    use phonoc_phys::{Length, PhysicalParameters};
    use phonoc_route::XyRouting;
    use phonoc_router::crux::crux_router;
    use phonoc_topo::Topology;

    fn tiny_problem() -> MappingProblem {
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

    /// A trivial strategy used to test the engine plumbing.
    #[derive(Debug)]
    struct FirstRandom;

    impl MappingOptimizer for FirstRandom {
        fn name(&self) -> &'static str {
            "first-random"
        }
        fn optimize(&self, ctx: &mut OptContext<'_>) {
            while !ctx.exhausted() {
                let m = ctx.random_mapping();
                if ctx.evaluate(&m).is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn budget_is_enforced_exactly() {
        let p = tiny_problem();
        let r = run_dse(&p, &FirstRandom, &DseConfig::new(37, 1));
        assert_eq!(r.evaluations, 37);
        assert_eq!(r.full_evaluations, 37);
        assert_eq!(r.delta_evaluations, 0);
    }

    #[test]
    fn objective_override_rescores_the_session() {
        let p = tiny_problem(); // problem objective: worst-case SNR
        let power = Objective::by_name("power").unwrap();
        let r = run_dse(
            &p,
            &FirstRandom,
            &DseConfig::new(37, 1).with_objective(power),
        );
        // The session's best score is the override objective of its
        // best mapping, bit-for-bit.
        let metrics = p.evaluator().evaluate(&r.best_mapping);
        assert_eq!(r.best_score, power.score(&metrics));
        // Overriding with the problem's own objective is the identity.
        let plain = run_dse(&p, &FirstRandom, &DseConfig::new(37, 1));
        let same = run_dse(
            &p,
            &FirstRandom,
            &DseConfig::new(37, 1).with_objective(p.objective()),
        );
        assert_eq!(plain.best_mapping, same.best_mapping);
        assert_eq!(plain.best_score, same.best_score);
    }

    #[test]
    fn objective_set_before_evaluation_succeeds() {
        let p = tiny_problem(); // problem objective: worst-case SNR
        let power = Objective::by_name("power").unwrap();
        let mut ctx = OptContext::new(&p, 10, 0);
        ctx.set_objective(power).unwrap();
        assert_eq!(ctx.objective(), power);
        let m = ctx.random_mapping();
        let score = ctx.evaluate(&m).unwrap();
        let metrics = p.evaluator().evaluate(&m);
        assert_eq!(score, power.score(&metrics));
    }

    // The pre-evaluation-only contract of `set_objective`, both builds:
    // debug builds assert (fail loudly during development), release
    // builds report the documented `CoreError::ObjectiveLocked` and
    // leave the context unchanged. CI runs the suite under both
    // profiles, so each path stays covered.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "set_objective")]
    fn objective_cannot_change_mid_session() {
        let p = tiny_problem();
        let mut ctx = OptContext::new(&p, 10, 0);
        let m = ctx.random_mapping();
        ctx.evaluate(&m).unwrap();
        let _ = ctx.set_objective(Objective::by_name("power").unwrap());
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn objective_change_mid_session_is_a_documented_error() {
        let p = tiny_problem();
        let mut ctx = OptContext::new(&p, 10, 0);
        let before = ctx.objective();
        let m = ctx.random_mapping();
        ctx.evaluate(&m).unwrap();
        let err = ctx
            .set_objective(Objective::by_name("power").unwrap())
            .unwrap_err();
        assert_eq!(err, CoreError::ObjectiveLocked { evaluations: 1 });
        assert!(err.to_string().contains("locked"));
        // The rejected call left the session's objective untouched.
        assert_eq!(ctx.objective(), before);
    }

    #[test]
    fn charge_bound_rides_the_ledger() {
        let p = tiny_problem();
        let unit = p.evaluator().edge_count().max(1) as u64;
        let mut ctx = OptContext::new(&p, 2, 0);
        // Two full evaluations' worth of units, drained 3 units at a
        // time: every admitted call charges exactly what it asked for
        // (min 1) and counts as one incremental evaluation.
        let mut calls = 0usize;
        while ctx.charge_bound(3) {
            calls += 1;
            assert!(calls <= 2 * unit as usize, "budget never exhausts");
        }
        assert!(ctx.exhausted());
        assert_eq!(calls, (2 * unit).div_ceil(3) as usize);
        assert_eq!(ctx.delta_evaluations(), calls);
        assert_eq!(ctx.full_evaluations(), 0);
        // Exhausted contexts admit nothing and charge nothing.
        assert!(!ctx.charge_bound(1));
        assert_eq!(ctx.delta_evaluations(), calls);
    }

    #[test]
    fn incumbent_never_worsens() {
        let p = tiny_problem();
        let r = run_dse(&p, &FirstRandom, &DseConfig::new(100, 2));
        let mut prev = f64::NEG_INFINITY;
        for (_, s) in &r.history {
            assert!(*s > prev, "history must be strictly improving");
            prev = *s;
        }
        assert!((r.history.last().unwrap().1 - r.best_score).abs() < 1e-12);
    }

    #[test]
    fn same_seed_same_result() {
        let p = tiny_problem();
        let a = run_dse(&p, &FirstRandom, &DseConfig::new(50, 99));
        let b = run_dse(&p, &FirstRandom, &DseConfig::new(50, 99));
        assert_eq!(a.best_mapping, b.best_mapping);
        assert!((a.best_score - b.best_score).abs() < 1e-12);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let p = tiny_problem();
        let a = run_dse(&p, &FirstRandom, &DseConfig::new(10, 1));
        let b = run_dse(&p, &FirstRandom, &DseConfig::new(10, 2));
        // Scores may coincide, but the mappings should differ for a
        // 10-draw random search over 9!/(1!)= large space.
        assert_ne!(a.best_mapping, b.best_mapping);
    }

    #[test]
    fn evaluate_returns_none_after_exhaustion() {
        let p = tiny_problem();
        let mut ctx = OptContext::new(&p, 2, 0);
        let m = ctx.random_mapping();
        assert!(ctx.evaluate(&m).is_some());
        assert!(ctx.evaluate(&m).is_some());
        assert!(ctx.evaluate(&m).is_none());
        assert!(ctx.exhausted());
        assert_eq!(ctx.remaining(), 0);
    }

    #[test]
    fn best_is_reachable_midway() {
        let p = tiny_problem();
        let mut ctx = OptContext::new(&p, 5, 0);
        assert!(ctx.best().is_none());
        let m = ctx.random_mapping();
        let s = ctx.evaluate(&m).unwrap();
        let (bm, bs) = ctx.best().unwrap();
        assert_eq!(bm, &m);
        assert!((bs - s).abs() < 1e-12);
    }

    #[test]
    fn batch_evaluation_matches_sequential() {
        let p = tiny_problem();
        let mut seq = OptContext::new(&p, 20, 3);
        let mut bat = OptContext::new(&p, 20, 3);
        let mappings: Vec<Mapping> = (0..12).map(|_| seq.random_mapping()).collect();
        let seq_scores: Vec<f64> = mappings.iter().map(|m| seq.evaluate(m).unwrap()).collect();
        let bat_scores = bat.evaluate_batch(&mappings);
        assert_eq!(seq_scores, bat_scores);
        assert_eq!(seq.best().unwrap().1, bat.best().unwrap().1);
        assert_eq!(bat.used(), 12);
    }

    #[test]
    fn batch_evaluation_truncates_at_budget() {
        let p = tiny_problem();
        let mut ctx = OptContext::new(&p, 5, 3);
        let mappings: Vec<Mapping> = (0..12).map(|_| ctx.random_mapping()).collect();
        let scores = ctx.evaluate_batch(&mappings);
        assert_eq!(scores.len(), 5);
        assert!(ctx.exhausted());
        assert!(ctx.evaluate_batch(&mappings).is_empty());
    }

    #[test]
    fn move_cursor_scores_match_full_evaluation() {
        let p = tiny_problem();
        let mut ctx = OptContext::new(&p, 1000, 7);
        let start = ctx.random_mapping();
        let s0 = ctx.set_current(start.clone()).unwrap();
        assert_eq!(ctx.current_score(), Some(s0));
        // Peek a few swaps: each must agree with a from-scratch eval.
        for (a, b) in [(0usize, 1usize), (2, 5), (0, 8), (3, 4)] {
            let ev = ctx.peek_move(Move::Swap(a, b)).unwrap();
            let (_, full) = p.evaluate(&start.with_swap(a, b));
            assert_eq!(ev.score(), full, "swap ({a},{b})");
        }
        // Commit one and verify the cursor advanced.
        let ev = ctx.peek_move(Move::Swap(1, 6)).unwrap();
        ctx.apply_scored_move(&ev);
        assert_eq!(ctx.current_mapping().unwrap(), &start.with_swap(1, 6));
        assert_eq!(ctx.current_score(), Some(ev.score()));
    }

    #[test]
    fn delta_budget_is_cheaper_than_full() {
        // A sparse problem (6-task pipeline on 16 tiles): most swaps
        // perturb only a few of the 5 edges, so delta charging admits
        // far more peeks than full evaluations.
        let p = MappingProblem::new(
            phonoc_apps::synthetic::pipeline(6),
            Topology::mesh(4, 4, Length::from_mm(2.5)),
            crux_router(),
            Box::new(XyRouting),
            PhysicalParameters::default(),
            Objective::MaximizeWorstCaseSnr,
        )
        .unwrap();
        let budget = 10;
        let mut ctx = OptContext::new(&p, budget, 1);
        // Pin the delta backend: this test documents *delta* budget
        // accounting, independent of what the hybrid route would pick.
        ctx.set_peek_strategy(PeekStrategy::Delta);
        let m = ctx.random_mapping();
        ctx.set_current(m).unwrap();
        let tiles = p.tile_count();
        let mut peeks = 0usize;
        while ctx
            .peek_move(Move::Swap(peeks % tiles, (peeks + 1) % tiles))
            .is_some()
        {
            peeks += 1;
            assert!(peeks < 100_000, "budget never exhausts");
        }
        // Strictly more peeks than full evaluations would have fit, and
        // a mean cost strictly below one full evaluation.
        assert!(
            peeks > budget,
            "only {peeks} peeks fit in a {budget}-evaluation budget"
        );
        assert_eq!(ctx.delta_evaluations(), peeks);
        assert_eq!(ctx.full_evaluations(), 1);
    }

    #[test]
    fn peeked_improvements_enter_the_incumbent() {
        let p = tiny_problem();
        let mut ctx = OptContext::new(&p, 1000, 11);
        let m = ctx.random_mapping();
        ctx.set_current(m).unwrap();
        let mut best_peek = f64::NEG_INFINITY;
        for a in 0..9 {
            for b in (a + 1)..9 {
                if let Some(ev) = ctx.peek_move(Move::Swap(a, b)) {
                    best_peek = best_peek.max(ev.score());
                }
            }
        }
        let (_, incumbent) = ctx.best().unwrap();
        assert!(
            incumbent >= best_peek,
            "incumbent {incumbent} lost a peeked {best_peek}"
        );
    }
}
