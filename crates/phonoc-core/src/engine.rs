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
//! # Objective-aware peeks, tagged by route
//!
//! Peeks dispatch on the problem [`Objective`] **family** (see
//! [`Objective::is_loss_based`]) and return a [`MoveEval`]: the move,
//! its score, and the [`PeekRoute`] that produced it. The scorer
//! decides the route once per peek; the budget ledger, the
//! [`RunStats`] route counters, the trace and the text reports all
//! read that one tag. Each cursor scores through one of three
//! evaluator routes, and every route takes one threshold: `-∞` for the
//! exact peeks ([`OptContext::peek_move`] / [`OptContext::peek_moves`]),
//! and the threshold [`Objective::threshold_for_score`] derives from
//! the cursor score for the improving-only peeks
//! ([`OptContext::peek_move_improving`] /
//! [`OptContext::peek_moves_improving`]). One rule serves both
//! families: an improving peek is bound-then-verify, so a move that
//! cannot beat the cursor comes back [`PeekRoute::BoundedRejected`]
//! with its admissible upper bound as the score (cheap), and a move
//! that might is scored exactly and comes back
//! [`PeekRoute::BoundedVerified`].
//!
//! * loss-based family (worst-case loss, and the modulation-aware
//!   laser-power objective, which is the same worst-link figure shifted
//!   by a constant margin) — the crosstalk-free loss delta, one to two
//!   orders of magnitude cheaper than an SNR delta: exact peeks take
//!   [`PeekRoute::Loss`] (`evaluate_delta_loss`), improving ones the
//!   bound-then-verify loss peek (`evaluate_delta_loss_bounded`).
//!   Insertion loss (paper Eq. 3) depends only on each communication's
//!   own path, so a loss-family cursor is its own variant, chosen once
//!   by [`OptContext::set_current`]: a `LossState` of per-edge paths
//!   and losses and their worst case (`O(edges)`; every [`EvalState`]
//!   embeds one), which [`OptContext::apply_scored_move`] patches
//!   through the loss commit an SNR commit also runs — the same scores
//!   bit for bit (pinned by
//!   `crates/phonoc-opt/tests/loss_family_golden.rs`), at a fraction of
//!   the seat and commit cost;
//! * SNR-based family (worst-case SNR, SNR margin) — the SNR delta:
//!   exact peeks take [`PeekRoute::Delta`], the bit-exact incremental
//!   delta, improving ones the bound-then-verify SNR peek;
//! * SNR-based family on a cursor the active [`PeekStrategy`] routes to
//!   the full pass — [`PeekRoute::Full`], a full scratch re-evaluation,
//!   billed as one. In an improving scan the pass stops once the move
//!   proves it cannot beat the cursor
//!   ([`crate::Evaluator::evaluate_bounded`]); such a peek carries the
//!   threshold's score as its bound and is not [`MoveEval::is_exact`].
//!
//! Greedy selection over an improving scan is identical to one over
//! exact peeks (property-tested).
//!
//! Every route is bit-identical for every objective in its family
//! (`tests/hybrid_properties.rs` pins all four objectives under all
//! three strategies), so an optimizer written against the peek family
//! is objective-generic for free: the same greedy scan minimizes loss,
//! maximizes SNR, or minimizes the modulation-aware launch power,
//! depending only on the [`Objective`] the context carries.
//!
//! Only exact peeks can be committed; [`OptContext::apply_scored_move`]
//! rejects a bound, whether bound-rejected or a stopped full pass.
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
//!   mapping alone ([`Evaluator::prefers_full_peeks`]: mean path length
//!   and occupancy concentration, both read off the path table). Every
//!   peek against that cursor is then a full scratch re-evaluation
//!   ([`PeekRoute::Full`]) or the delta side — the exact delta, or the
//!   bound-then-verify peek in `_improving` scans;
//! * [`PeekStrategy::Delta`] / [`PeekStrategy::Full`] pin one side —
//!   for benchmarking the route itself and for tests that exercise one
//!   path's accounting.
//!
//! A cursor holds only what its route reads: the crosstalk
//! [`EvalState`] on the delta side, nothing but its mapping and score on
//! the full pass (a commit just moves the mapping). A cursor flipping to
//! the delta side seats its state, unbilled like the commit or
//! [`OptContext::set_peek_strategy`] call that flipped it.
//!
//! All four peek entry points score through one per-move scorer and
//! book through one routine: the sequential peeks on the context's own
//! scratch, forked batch scans on each worker's sticky one. Every batch
//! states to the pool's one dispatch rule ([`crate::parallel`]) what
//! its route costs ([`evaluation_work`], `Scorer::bill_bounds`), and a
//! peek batch scores at most the moves the remaining budget can pay at
//! their least bill. One that would not fork is the sequential peek
//! loop, booking each move as it is scored. A sequential peek is thus
//! indistinguishable from a one-element batch, and a batch from a loop
//! of sequential peeks — same [`MoveEval`]s, ledger, counters and trace
//! events (property-tested in `tests/hybrid_properties.rs` and
//! `tests/batch_paths.rs`).
//!
//! All routes score each peek **bit-identically**, so the strategy can
//! never change a single peek's score or which move one greedy scan
//! selects — only the wall-clock cost and the *honest* budget charge: a
//! full-backed peek is billed `edge_count` units (and counted as a full
//! evaluation), a delta peek its `affected_edges`. Cheaper routes
//! simply buy more peeks out of the same budget, so at equal budget a
//! run on another route goes a different distance and can end on a
//! different score (e.g. `optimize --app DVOPD --budget 3000 --seed 1`:
//! `r-pbla` 13.466 dB, `r-pbla/delta` 18.858 dB).
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
//! to evaluate a starting point, the peek family to score candidate moves
//! incrementally, and [`OptContext::apply_scored_move`] to commit one —
//! while population strategies batch-score whole generations with
//! [`OptContext::evaluate_batch`], or with
//! [`OptContext::evaluate_batch_known`] when some members repeat a
//! placement whose score they already hold (billed alike, computed
//! once).

use crate::error::CoreError;
use crate::evaluator::{
    BoundedDelta, BoundedLossDelta, DeltaScratch, EvalScratch, EvalState, Evaluator, LossState,
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
/// always take the crosstalk-free loss delta, which no alternative
/// approaches). See the [module docs](self) for the measured rationale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeekStrategy {
    /// One route per cursor, decided from its mapping when it is seated
    /// and after every commit ([`Evaluator::prefers_full_peeks`]) —
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
    /// (under the *current* cursor mapping — `Move::Swap(a, b)` names
    /// permutation slots, so the tiles are `perm[a]` and `perm[b]`) lie
    /// within a Manhattan radius of each other on the topology's grid
    /// (wrap-around links ignored), widening adaptively when a scan
    /// goes dry.
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
/// It carries the [`PeekRoute`] the scorer took, decided once per peek:
/// the ledger, the route counters in [`RunStats`] and the
/// [`TraceEvent::PeekRouted`] event all read that one tag. A
/// [`PeekRoute::BoundedRejected`] peek, and a [`PeekRoute::Full`] peek
/// of an improving scan whose full pass stopped early, carry only an
/// admissible upper bound (the exact score was never derived) and
/// cannot be committed ([`MoveEval::is_exact`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoveEval {
    mv: Move,
    score: f64,
    route: PeekRoute,
    /// Whether `score` is the exact score rather than a bound.
    exact: bool,
}

impl MoveEval {
    /// The move this evaluation describes.
    #[must_use]
    pub fn mv(&self) -> Move {
        self.mv
    }

    /// The objective score (higher = better). For an exact peek this is
    /// bit-identical to a full evaluation of the moved mapping; for a
    /// bound — a bound-rejected peek, or a full-routed improving peek
    /// whose pass stopped once the move could not beat the cursor — it
    /// is the admissible *upper bound*: comparisons against an
    /// incumbent the bound was tested at remain sound, since the true
    /// score is no larger.
    #[must_use]
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Whether an exact score was computed (committable): every peek
    /// but a [`PeekRoute::BoundedRejected`] one and a
    /// [`PeekRoute::Full`] one of an improving scan that proved the move
    /// cannot beat the cursor. Optimizers tell bounds from scores by
    /// this, never by the route.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// The route the scorer took for this peek.
    #[must_use]
    pub fn route(&self) -> PeekRoute {
        self.route
    }
}

/// The cursor: the mapping a move-based strategy currently stands on,
/// its score, and the state its peek route reads.
struct Cursor {
    mapping: Mapping,
    score: f64,
    state: CursorState,
}

/// A cursor's peek route and the incremental state that route reads:
/// the variant *is* the route. `Cursor::reroute` picks it when the
/// cursor is seated, after every commit and when the strategy changes —
/// never per move.
enum CursorState {
    /// Loss family: each edge's path and insertion loss, no crosstalk.
    Loss(LossState),
    /// SNR family on the delta side: the crosstalk state the exact and
    /// bound-then-verify SNR peeks read.
    Snr(EvalState),
    /// SNR family on the full pass: every peek re-evaluates the moved
    /// mapping from scratch, so the cursor keeps no state.
    Full,
}

impl Cursor {
    /// The one step that picks an SNR cursor's variant, from `strategy`
    /// and (under [`PeekStrategy::Hybrid`]) the rule on its mapping: run
    /// when the cursor is seated, after every commit and when the
    /// strategy changes. A loss cursor has one route.
    fn reroute(&mut self, evaluator: &Evaluator, strategy: PeekStrategy) {
        if matches!(self.state, CursorState::Loss(_)) {
            return;
        }
        let full = match strategy {
            PeekStrategy::Hybrid => evaluator.prefers_full_peeks(&self.mapping),
            PeekStrategy::Delta => false,
            PeekStrategy::Full => true,
        };
        if full {
            self.state = CursorState::Full;
        } else if matches!(self.state, CursorState::Full) {
            self.state = CursorState::Snr(evaluator.init_state(&self.mapping));
        }
    }

    /// The scorer every peek against this cursor runs through.
    fn scorer<'a>(
        &'a self,
        evaluator: &'a Evaluator,
        objective: Objective,
        improving: bool,
    ) -> Scorer<'a> {
        Scorer {
            evaluator,
            objective,
            mapping: &self.mapping,
            scoring: self.scoring(objective, improving),
            unit: evaluator.edge_count().max(1),
        }
    }

    /// How every peek against this cursor is scored: its route, at the
    /// cursor threshold in improving scans and at `-∞` otherwise.
    fn scoring(&self, objective: Objective, improving: bool) -> Scoring<'_> {
        let threshold = if improving {
            objective.threshold_for_score(self.score)
        } else {
            Db(f64::NEG_INFINITY)
        };
        match &self.state {
            CursorState::Loss(state) => Scoring::Loss(state, threshold),
            CursorState::Snr(state) => Scoring::Snr(state, threshold),
            CursorState::Full => Scoring::Full(threshold),
        }
    }
}

/// The evaluator route every peek against one cursor takes, with the
/// state it reads and the threshold a move must beat: the cursor's in
/// improving scans, `-∞` (nothing is rejected) for exact peeks.
#[derive(Debug, Clone, Copy)]
enum Scoring<'a> {
    /// Full scratch re-evaluation of the moved mapping, stopped once it
    /// proves the worst-case SNR `≤` the threshold.
    Full(Db),
    /// SNR delta: exact at `-∞`, bound-then-verify otherwise.
    Snr(&'a EvalState, Db),
    /// Crosstalk-free loss delta: exact at `-∞`, bound-then-verify
    /// otherwise.
    Loss(&'a LossState, Db),
}

/// What a billed action is counted as in the ledger.
#[derive(Debug, Clone, Copy)]
enum Billed {
    /// A full evaluation outside the peeks (`evaluate`, the batches,
    /// `set_current`).
    Direct,
    /// A peek, on its route.
    Peek(PeekRoute),
    /// A certificate search's admissible-bound work (`charge_bound`).
    Bound,
}

/// The buffers one peek scores on. The sequential peeks use the
/// context's own; the batch scans each worker's sticky set.
struct PeekScratch {
    full: EvalScratch,
    /// The moved mapping a full-routed peek scores, rewritten in place
    /// per peek.
    moved: Mapping,
    delta: DeltaScratch,
}

impl Default for PeekScratch {
    fn default() -> PeekScratch {
        PeekScratch {
            full: EvalScratch::default(),
            moved: Mapping::identity(0, 0),
            delta: DeltaScratch::default(),
        }
    }
}

/// The one per-move scorer behind all four peek entry points: what a
/// peek reads (never writes) about the cursor, plus how to score. The
/// sequential peeks run it on the context's own scratch, the batch
/// scans on each worker's sticky one.
struct Scorer<'a> {
    evaluator: &'a Evaluator,
    objective: Objective,
    mapping: &'a Mapping,
    scoring: Scoring<'a>,
    /// Budget units of a full pass (its honest cost).
    unit: usize,
}

impl Scorer<'_> {
    /// Scores `mv`, returning the evaluation — tagged with the route
    /// taken — and the evaluator work it cost in budget units (before
    /// the one-unit floor).
    fn score(&self, mv: Move, scratch: &mut PeekScratch) -> (MoveEval, usize) {
        let (evaluator, objective, mapping) = (self.evaluator, self.objective, self.mapping);
        let delta = &mut scratch.delta;
        // The worst-case figure the route scores (SNR, or loss for the
        // loss route), its cost, and whether it is exact or a bound.
        let (worst, cost, exact) = match self.scoring {
            Scoring::Full(threshold) => {
                let moved = &mut scratch.moved;
                moved.clone_from(mapping);
                moved.apply_move(mv);
                match evaluator.evaluate_bounded(moved, threshold, &mut scratch.full) {
                    Some(s) => (s.worst_case_snr, self.unit, true),
                    None => (threshold, self.unit, false),
                }
            }
            // Exact peeks keep the kernel specialised for `-∞`.
            Scoring::Snr(state, Db(f64::NEG_INFINITY)) => {
                let d = evaluator.evaluate_delta_with(state, mapping, mv, delta);
                (d.new_worst_snr, d.affected_edges, true)
            }
            Scoring::Snr(state, threshold) => {
                match evaluator.evaluate_delta_bounded(state, mapping, mv, delta, threshold) {
                    BoundedDelta::Rejected { bound, cost } => (bound, cost, false),
                    BoundedDelta::Exact(d) => (d.new_worst_snr, d.affected_edges, true),
                }
            }
            Scoring::Loss(state, Db(f64::NEG_INFINITY)) => {
                let (il, moved) = evaluator.loss_delta(state, mapping, mv, delta);
                (il, moved, true)
            }
            Scoring::Loss(state, threshold) => {
                match evaluator.loss_delta_bounded(state, mapping, mv, delta, threshold) {
                    BoundedLossDelta::Rejected { bound, cost } => (bound, cost, false),
                    BoundedLossDelta::Exact {
                        new_worst_il,
                        moved_edges,
                    } => (new_worst_il, moved_edges, true),
                }
            }
        };
        let score = match self.scoring {
            Scoring::Loss(..) => objective.score_worst_il(worst),
            Scoring::Full(_) | Scoring::Snr(..) => objective.score_worst_snr(worst),
        };
        // The one place a peek's route is derived: the full pass keeps
        // its own, a thresholded delta is a bound-then-verify peek.
        let route = match self.scoring {
            Scoring::Full(_) => PeekRoute::Full,
            Scoring::Snr(_, Db(f64::NEG_INFINITY)) => PeekRoute::Delta,
            Scoring::Loss(_, Db(f64::NEG_INFINITY)) => PeekRoute::Loss,
            _ if exact => PeekRoute::BoundedVerified,
            _ => PeekRoute::BoundedRejected,
        };
        let ev = MoveEval {
            mv,
            score,
            route,
            exact,
        };
        (ev, cost)
    }

    /// The least a peek on this route bills and the work it states to
    /// the pool, in ledger units: a full pass bills and costs `unit`, an
    /// SNR delta bills ≥ 1 at a full pass's work, a loss delta ≥ 1 at 1.
    fn bill_bounds(&self) -> (usize, usize) {
        match self.scoring {
            Scoring::Full(_) => (self.unit, self.unit),
            Scoring::Snr(..) => (1, self.unit),
            Scoring::Loss(..) => (1, 1),
        }
    }
}

/// The score of one direct (non-peek) evaluation of `mapping` under
/// `objective`, `None` once the pass proves the worst-case SNR `≤
/// threshold`. A loss-family score reads only the worst-case insertion
/// loss, so it takes the loss-table scan ([`Evaluator::worst_case_il`])
/// instead of a crosstalk pass and never rejects; an SNR-family one
/// runs the bounded full pass on `scratch`.
fn score_direct(
    evaluator: &Evaluator,
    objective: Objective,
    mapping: &Mapping,
    threshold: Db,
    scratch: &mut EvalScratch,
) -> Option<f64> {
    if objective.is_loss_based() {
        return Some(objective.score_worst_il(evaluator.worst_case_il(mapping)));
    }
    let summary = evaluator.evaluate_bounded(mapping, threshold, scratch)?;
    Some(objective.score_worst_snr(summary.worst_case_snr))
}

/// The pool work ([`crate::parallel`]) of one full evaluation under
/// `objective`, in ledger units: the edge count for the SNR family's
/// crosstalk pass, one for the loss family's loss-table scan.
#[must_use]
pub fn evaluation_work(evaluator: &Evaluator, objective: Objective) -> usize {
    if objective.is_loss_based() {
        1
    } else {
        evaluator.edge_count().max(1)
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
    /// The session's evaluation counters and decision counters (always
    /// on; see [`crate::telemetry`]) — the one store of both, bumped
    /// where each evaluation is billed.
    stats: RunStats,
    /// Where trace events go — [`NullSink`] (disabled) unless a
    /// recorder was installed with [`OptContext::set_trace_sink`].
    sink: Box<dyn TraceSink>,
    /// Reused buffers for full evaluations, the sequential peeks and
    /// commits: after warm-up, [`OptContext::evaluate`] and the peeks
    /// perform no heap allocation. They outlive cursors, so the next
    /// [`OptContext::set_current`] starts warm.
    scratch: PeekScratch,
    /// Moves the peek family has scored, billed or not (see
    /// [`OptContext::scored_peeks`]).
    scored_peeks: u64,
    /// See [`OptContext::forked_batches`].
    forked_batches: u64,
}

impl fmt::Debug for OptContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OptContext")
            .field("budget", &(self.budget_units / self.unit))
            .field("used_units", &self.used_units)
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
            budget_units: (budget as u64).saturating_mul(unit),
            used_units: 0,
            unit,
            best: None,
            history: Vec::new(),
            cursor: None,
            strategy: PeekStrategy::default(),
            policy: NeighborhoodPolicy::default(),
            seed_start: None,
            stats: RunStats::default(),
            sink: Box::new(NullSink),
            scratch: PeekScratch::default(),
            scored_peeks: 0,
            forked_batches: 0,
        }
    }

    /// A fresh context with every [`DseConfig`] knob applied — budget,
    /// seed, objective override, peek strategy, neighbourhood policy
    /// and seeded start. The one config-to-context step [`run_dse`],
    /// [`run_dse_traced`] and the exact lane's certificate runs share.
    #[must_use]
    pub fn with_config(problem: &'p MappingProblem, config: &DseConfig) -> Self {
        let mut ctx = OptContext::new(problem, config.budget, config.seed);
        if let Some(objective) = config.objective {
            ctx.objective = objective;
        }
        ctx.strategy = config.strategy;
        ctx.policy = config.policy;
        ctx.seed_start.clone_from(&config.start);
        ctx
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
    /// evaluator capital.
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

    /// Pins (or restores) the SNR-peek routing strategy for subsequent
    /// peeks. Every strategy scores each peek bit-identically; what
    /// changes is what each peek costs (wall clock and honest budget
    /// units), and so how far a budgeted run gets. A seated cursor takes
    /// the new strategy's route at once (a cursor moving to the delta
    /// side seats its state, unbilled).
    pub fn set_peek_strategy(&mut self, strategy: PeekStrategy) {
        self.strategy = strategy;
        if let Some(cursor) = &mut self.cursor {
            cursor.reroute(self.problem.evaluator(), strategy);
        }
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

    /// Whether the budget is exhausted.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.used_units >= self.budget_units
    }

    /// Books one billed action — the one routine that writes the
    /// ledger: charges `units` (the action was admitted before it
    /// started, so the spend saturates at the budget), counts it as a
    /// full or an incremental evaluation, and bumps the one counter
    /// that partitions those two ([`RunStats::reconciles`]).
    fn book(&mut self, units: u64, action: Billed) {
        self.used_units = self.used_units.saturating_add(units).min(self.budget_units);
        let stats = &mut self.stats;
        *match action {
            Billed::Direct => &mut stats.full_direct,
            Billed::Peek(route) => stats.route_counter(route),
            Billed::Bound => &mut stats.bound_charges,
        } += 1;
        if matches!(action, Billed::Direct | Billed::Peek(PeekRoute::Full)) {
            stats.full_evaluations += 1;
        } else {
            stats.delta_evaluations += 1;
        }
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
        self.book(cost.max(1), Billed::Bound);
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

    /// Snapshot of the session's counters: the evaluation ledger
    /// (`full_evaluations` / `delta_evaluations`) and the decision
    /// counters that partition it ([`RunStats::reconciles`]).
    #[must_use]
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Moves the peek family has scored so far, whether or not they were
    /// billed: the billed peeks plus whatever a forked batch scan scored
    /// past the point where the budget ran out. A test hook (the billed
    /// count is in [`OptContext::stats`]); it never changes a result.
    #[doc(hidden)]
    #[must_use]
    pub fn scored_peeks(&self) -> u64 {
        self.scored_peeks
    }

    /// Batches (direct or peek) this context forked over the pool: a
    /// test hook to check claimed forks; it never changes a result.
    #[doc(hidden)]
    #[must_use]
    pub fn forked_batches(&self) -> u64 {
        self.forked_batches
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

    /// Whether `score` would become the incumbent best.
    fn beats_best(&self, score: f64) -> bool {
        self.best.as_ref().is_none_or(|(_, s)| score > *s)
    }

    fn record(&mut self, mapping: &Mapping, score: f64) {
        if self.beats_best(score) {
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
    /// evaluation itself allocates nothing; a loss-family objective
    /// reads only the path table ([`Evaluator::worst_case_il`]).
    pub fn evaluate(&mut self, mapping: &Mapping) -> Option<f64> {
        if self.exhausted() {
            return None;
        }
        self.book(self.unit, Billed::Direct);
        let score = self.direct_score(mapping);
        self.record(mapping, score);
        Some(score)
    }

    /// The exact score of one direct evaluation, on the context's own
    /// scratch.
    fn direct_score(&mut self, mapping: &Mapping) -> f64 {
        let (evaluator, objective) = (self.problem.evaluator(), self.objective);
        let exact = Db(f64::NEG_INFINITY);
        score_direct(evaluator, objective, mapping, exact, &mut self.scratch.full)
            .expect("a -∞ threshold never rejects")
    }

    /// Scores a batch of mappings (in parallel across CPU cores), each
    /// billed as one full evaluation. Only as many mappings as the
    /// remaining budget admits are evaluated: the returned vector holds
    /// scores for the evaluated *prefix* and may be shorter than the
    /// input. Incumbent tracking visits results in input order, so the
    /// outcome is identical to a sequential [`OptContext::evaluate`]
    /// loop.
    pub fn evaluate_batch(&mut self, mappings: &[Mapping]) -> Vec<f64> {
        self.evaluate_batch_known(mappings, &[])
    }

    /// [`OptContext::evaluate_batch`] for a caller that already knows
    /// some of the scores: `known[i]`, when `Some`, is the score of a
    /// mapping with the same task placement as `mappings[i]` (a GA child
    /// that repeats a parent). Only the admitted mappings whose score is
    /// not known run the full pass; every admitted mapping is still
    /// billed as one full evaluation and visited by incumbent tracking
    /// in input order, so scores, budget truncation, the ledger,
    /// [`RunStats`], the history and the trace are exactly those of
    /// `evaluate_batch`. An empty `known` knows nothing. Debug builds
    /// check every known score bit for bit against a fresh evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `known` is neither empty nor as long as `mappings`.
    pub fn evaluate_batch_known(
        &mut self,
        mappings: &[Mapping],
        known: &[Option<f64>],
    ) -> Vec<f64> {
        assert!(
            known.is_empty() || known.len() == mappings.len(),
            "known scores must cover the batch ({} for {} mappings)",
            known.len(),
            mappings.len()
        );
        self.score_batch(mappings, known, Db(f64::NEG_INFINITY))
            .into_iter()
            .map(|score| score.expect("a -∞ threshold never rejects"))
            .collect()
    }

    /// Like [`OptContext::evaluate_batch`], but only scores exactly the
    /// mappings that can beat the incumbent held at the call: under an
    /// SNR-based objective each full pass stops once it proves the
    /// mapping's worst-case SNR no better than the incumbent's
    /// ([`Evaluator::evaluate_bounded`]), and that mapping comes back
    /// `None`. Every evaluated mapping is billed and counted as one
    /// full evaluation either way, and the incumbent ends where the
    /// exact batch would leave it, since a rejected mapping could not
    /// have entered it. Without an incumbent, or under a loss-based
    /// objective, every mapping is scored exactly. Random search's
    /// entry point: it keeps nothing but the best.
    pub fn evaluate_batch_improving(&mut self, mappings: &[Mapping]) -> Vec<Option<f64>> {
        let threshold = match &self.best {
            Some((_, score)) if !self.objective.is_loss_based() => {
                self.objective.threshold_for_score(*score)
            }
            _ => Db(f64::NEG_INFINITY),
        };
        self.score_batch(mappings, &[], threshold)
    }

    /// The batch every entry point shares: the admitted mappings whose
    /// score is not `known` (an empty `known` knows none) through the
    /// bounded full pass at `threshold` in one order-preserving parallel
    /// pass, stating [`evaluation_work`] per pass, then billing and
    /// incumbent tracking for every admitted mapping in input order.
    fn score_batch(
        &mut self,
        mappings: &[Mapping],
        known: &[Option<f64>],
        threshold: Db,
    ) -> Vec<Option<f64>> {
        let admit = self.remaining().min(mappings.len());
        if admit == 0 {
            return Vec::new();
        }
        let known_at = |i: usize| known.get(i).copied().flatten();
        let (evaluator, objective) = (self.problem.evaluator(), self.objective);
        let fresh: Vec<&Mapping> = (0..admit)
            .filter(|&i| known_at(i).is_none())
            .map(|i| &mappings[i])
            .collect();
        let work = fresh
            .len()
            .saturating_mul(evaluation_work(evaluator, objective));
        self.forked_batches += u64::from(parallel::workers_for(work, fresh.len()) > 1);
        let computed =
            parallel::parallel_map_with(&fresh, work, EvalScratch::default, |scratch, m| {
                score_direct(evaluator, objective, m, threshold, scratch)
            });
        let mut computed = computed.into_iter();
        let mut scores = Vec::with_capacity(admit);
        for (i, mapping) in mappings[..admit].iter().enumerate() {
            self.book(self.unit, Billed::Direct);
            let score = match known_at(i) {
                Some(score) => {
                    debug_assert_eq!(
                        score.to_bits(),
                        self.direct_score(mapping).to_bits(),
                        "known score of batch entry {i} differs from its evaluation"
                    );
                    Some(score)
                }
                None => computed.next().expect("one pass per unknown entry"),
            };
            if let Some(score) = score {
                self.record(mapping, score);
            }
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
    /// session ends usually means the optimizer never called
    /// `initial_mapping` — e.g. a strategy that draws its own random
    /// starts was handed an elite incumbent it silently ignored. That is *legal* (random search deliberately
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
    fn warn_unconsumed_seed(&self) {
        if self.seed_start.is_some() {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "phonoc-core: a seed start planted with set_seed_start was never \
                     consumed by initial_mapping before the session finished; the optimizer \
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

    /// Evaluates `mapping`, makes it the cursor for subsequent
    /// [`OptContext::peek_move`] / [`OptContext::apply_scored_move`]
    /// calls, and returns its score. Consumes one full evaluation;
    /// `None` once the budget is exhausted. Loss-based objectives seat
    /// a loss cursor (paths and insertion losses; see the [module
    /// docs](self#objective-aware-peeks-tagged-by-route)), SNR-based
    /// ones what their route reads ([`PeekStrategy`]).
    pub fn set_current(&mut self, mapping: Mapping) -> Option<f64> {
        if self.exhausted() {
            return None;
        }
        self.book(self.unit, Billed::Direct);
        // The one place a cursor's family is decided. Loss-family peeks
        // read only paths and insertion losses, so their cursors skip
        // the crosstalk caches (still billed as the full evaluation the
        // seat replaces); an SNR cursor then takes its route.
        let evaluator = self.problem.evaluator();
        let state = if self.objective.is_loss_based() {
            // Reseat into the previous loss cursor's buffers, if any.
            let mut state = match self.cursor.take().map(|c| c.state) {
                Some(CursorState::Loss(state)) => state,
                _ => LossState::default(),
            };
            evaluator.reseat_loss_state(&mut state, &mapping);
            CursorState::Loss(state)
        } else {
            CursorState::Full
        };
        let mut cursor = Cursor {
            mapping,
            score: f64::NAN,
            state,
        };
        cursor.reroute(evaluator, self.strategy);
        cursor.score = match &cursor.state {
            CursorState::Loss(state) => self.objective.score_worst_il(state.worst_case_il()),
            CursorState::Snr(state) => self.objective.score_worst_snr(state.worst_case_snr()),
            CursorState::Full => self.direct_score(&cursor.mapping),
        };
        self.record(&cursor.mapping, cursor.score);
        let score = cursor.score;
        self.cursor = Some(cursor);
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
    ///   crosstalk-free loss delta
    ///   ([`crate::Evaluator::evaluate_delta_loss`]), charged
    ///   `max(1, moved_edges)` units, on [`PeekRoute::Loss`];
    /// * SNR-based objectives (worst-case SNR, SNR margin) — the
    ///   cursor's route under the active [`PeekStrategy`]: the exact
    ///   SNR-bearing delta, charged `max(1, affected_edges)` units and
    ///   on [`PeekRoute::Delta`], or a full scratch re-evaluation,
    ///   charged `edge_count` units, on [`PeekRoute::Full`].
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
    /// for loss-based ones) with the admissible rejection
    /// threshold the objective derives from the cursor score
    /// ([`Objective::threshold_for_score`]), and non-improving moves
    /// come back [`PeekRoute::BoundedRejected`] at a fraction of the exact
    /// cost (charged by the work actually performed). Moves that can
    /// beat the cursor are scored exactly, bit-identical to
    /// [`OptContext::peek_move`]. When an SNR cursor's route is the
    /// full pass, every move comes back on [`PeekRoute::Full`], billed
    /// `edge_count` units, and the pass stops once it proves the move
    /// cannot beat the cursor ([`crate::Evaluator::evaluate_bounded`]
    /// at the same threshold); such a peek carries the threshold's
    /// score as its bound and is not [`MoveEval::is_exact`]. None of this changes
    /// what a greedy scan selects, since exact scores and bounds order
    /// identically around the cursor threshold.
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
    /// admitted-list scan). Only as many moves as the remaining budget
    /// admits are *charged*: the returned vector covers the charged
    /// prefix of `moves` and may be shorter than the input.
    /// Deterministic: results and incumbent updates are in input order,
    /// identical to a [`OptContext::peek_move`] loop that stops at the
    /// first `None`, at any worker count. Only moves the remaining budget
    /// can pay at their least bill are scored: inline as that loop, or
    /// forked ([`crate::parallel`]) in one parallel pass booked after.
    ///
    /// # Panics
    ///
    /// Panics if no cursor is set.
    pub fn peek_moves(&mut self, moves: &[Move]) -> Vec<MoveEval> {
        self.peek_batch(moves, false)
    }

    /// Batch variant of [`OptContext::peek_move_improving`]: every move
    /// is tested against the cursor score at the time of the call.
    /// Improving moves come back exact, non-improving ones as bounds:
    /// [`PeekRoute::BoundedRejected`], or [`PeekRoute::Full`] when the
    /// cursor's route is the full pass. Either way the selection a
    /// greedy step makes over the result is identical to one over
    /// [`OptContext::peek_moves`].
    ///
    /// # Panics
    ///
    /// Panics if no cursor is set.
    pub fn peek_moves_improving(&mut self, moves: &[Move]) -> Vec<MoveEval> {
        self.peek_batch(moves, true)
    }

    /// The sequential peeks: the shared scorer on the context's own
    /// scratch (no pool dispatch, no result vector), then the shared
    /// booking.
    fn peek_one(&mut self, mv: Move, improving: bool) -> Option<MoveEval> {
        if self.exhausted() {
            return None;
        }
        let scorer = self
            .cursor
            .as_ref()
            .expect("peek_move without set_current")
            .scorer(self.problem.evaluator(), self.objective, improving);
        let (ev, cost) = scorer.score(mv, &mut self.scratch);
        self.scored_peeks += 1;
        Some(self.book_peek(ev, cost))
    }

    /// The batch scans: at most the moves the remaining budget can pay
    /// at their least bill ([`Scorer::bill_bounds`]). Inline, the
    /// sequential peek loop. Forked, one order-preserving parallel pass
    /// on each worker's sticky scratch, then booking in input order
    /// until the budget runs out: fewer moves than the units left go
    /// unbilled, and none on the full route.
    fn peek_batch(&mut self, moves: &[Move], improving: bool) -> Vec<MoveEval> {
        if self.exhausted() || moves.is_empty() {
            return Vec::new();
        }
        let scorer = self
            .cursor
            .as_ref()
            .expect("peek_moves without set_current")
            .scorer(self.problem.evaluator(), self.objective, improving);
        let (least, per_move) = scorer.bill_bounds();
        let left = usize::try_from(self.budget_units - self.used_units).unwrap_or(usize::MAX);
        let moves = &moves[..moves.len().min(left.div_ceil(least))];
        let work = moves.len().saturating_mul(per_move);
        if parallel::workers_for(work, moves.len()) == 1 {
            let mut out = Vec::with_capacity(moves.len());
            for &mv in moves {
                let Some(ev) = self.peek_one(mv, improving) else {
                    break;
                };
                out.push(ev);
            }
            return out;
        }
        self.forked_batches += 1;
        let scored =
            parallel::parallel_map_with(moves, work, PeekScratch::default, |scratch, &mv| {
                scorer.score(mv, scratch)
            });
        self.scored_peeks += scored.len() as u64;
        let mut out = Vec::with_capacity(scored.len());
        for (ev, cost) in scored {
            if self.exhausted() {
                break;
            }
            out.push(self.book_peek(ev, cost));
        }
        out
    }

    /// Books one scored peek — the routine every peek entry point
    /// charges through: bills `max(1, cost)` units on the peek's
    /// [`PeekRoute`], emits the [`TraceEvent::PeekRouted`] event and
    /// tracks the incumbent. Counters and events happen here, in input
    /// order, never inside a parallel scan — that is what keeps the
    /// stream deterministic.
    fn book_peek(&mut self, ev: MoveEval, cost: usize) -> MoveEval {
        let charged = cost.max(1);
        self.book(charged as u64, Billed::Peek(ev.route));
        self.emit(|| TraceEvent::PeekRouted {
            route: ev.route,
            cost: charged,
        });
        if ev.is_exact() {
            self.note_peeked(ev.mv, ev.score);
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
    /// incremental state advance to the moved solution, and the cursor
    /// re-decides its route there. Free of charge — the scoring work was
    /// already billed by the peek.
    ///
    /// # Panics
    ///
    /// Panics if no cursor is set, or if `ev` carries a bound rather
    /// than an exact score ([`MoveEval::is_exact`]): a
    /// [`PeekRoute::BoundedRejected`] peek, or a [`PeekRoute::Full`]
    /// peek of an improving scan whose pass stopped once the move could
    /// not beat the cursor. Re-peek the move exactly if a strategy
    /// really wants to commit a non-improving move. Debug builds
    /// additionally assert that the committed score bit-matches a fresh
    /// evaluation of the moved mapping (and the state commits that
    /// their state matches a fresh seat).
    pub fn apply_scored_move(&mut self, ev: &MoveEval) {
        assert!(
            ev.is_exact(),
            "cannot commit a peek that carries only a bound (bound-rejected, \
             or a full pass stopped in an improving scan): {:?} on {:?}",
            ev.mv(),
            ev.route()
        );
        // Most commits do not beat the incumbent: only a new best pays
        // for a copy of the mapping.
        let new_best = self.beats_best(ev.score());
        let cursor = self
            .cursor
            .as_mut()
            .expect("apply_scored_move without set_current");
        let (evaluator, mapping) = (self.problem.evaluator(), &mut cursor.mapping);
        let delta = &mut self.scratch.delta;
        match &mut cursor.state {
            CursorState::Loss(state) => evaluator.apply_loss_move(state, mapping, ev.mv(), delta),
            CursorState::Snr(state) => {
                evaluator.apply_move(state, mapping, ev.mv(), delta);
            }
            CursorState::Full => mapping.apply_move(ev.mv()),
        }
        // Descents change path lengths and occupancy, and the route
        // should track the placement the peeks actually score.
        cursor.reroute(evaluator, self.strategy);
        cursor.score = ev.score();
        debug_assert_eq!(
            score_direct(
                evaluator,
                self.objective,
                &cursor.mapping,
                Db(f64::NEG_INFINITY),
                &mut self.scratch.full
            )
            .map(f64::to_bits),
            Some(ev.score().to_bits()),
            "committed move score diverged from a fresh evaluation"
        );
        if new_best {
            let mapping = cursor.mapping.clone();
            self.record(&mapping, ev.score());
        }
    }

    /// The incumbent best, if any evaluation happened.
    #[must_use]
    pub fn best(&self) -> Option<(&Mapping, f64)> {
        self.best.as_ref().map(|(m, s)| (m, *s))
    }

    /// Extracts the finished session's [`DseResult`]. Logs the
    /// unconsumed-seed-start warning if applicable.
    ///
    /// # Panics
    ///
    /// Panics if no mapping was ever evaluated (zero budget or a broken
    /// strategy) — same contract as [`run_dse`].
    #[must_use]
    pub fn finish(&mut self, optimizer: &str) -> DseResult {
        self.warn_unconsumed_seed();
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
    /// `(evaluation index, incumbent score)` at every improvement.
    pub history: Vec<(usize, f64)>,
    /// The session's counters: full and delta evaluation counts plus
    /// the decision counters that partition them (route mix, bound
    /// rejections, neighbourhood stream, improvements) — see
    /// [`crate::telemetry`].
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
    /// SNR-peek routing. Each single peek scores bit-identically on
    /// every route, but the route sets how many units each peek bills,
    /// so at equal budget the search goes a different distance and can
    /// end on a different score.
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
    let mut ctx = OptContext::with_config(problem, config);
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
    let mut ctx = OptContext::with_config(problem, config);
    ctx.set_trace_sink(Box::new(RunTrace::new()));
    optimizer.optimize(&mut ctx);
    let result = ctx.finish(optimizer.name());
    let events = ctx.drain_trace();
    (result, events)
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
        assert_eq!(r.stats.full_evaluations, 37);
        assert_eq!(r.stats.delta_evaluations, 0);
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
        assert_eq!(ctx.stats().delta_evaluations, calls);
        assert_eq!(ctx.stats().full_evaluations, 0);
        // Exhausted contexts admit nothing and charge nothing.
        assert!(!ctx.charge_bound(1));
        assert_eq!(ctx.stats().delta_evaluations, calls);
    }

    #[test]
    fn huge_budgets_saturate_instead_of_wrapping() {
        let p = tiny_problem();
        let unit = p.evaluator().edge_count() as u64;
        // The smallest budget whose edge units overflow 64 bits: a
        // wrapping product would leave a budget of a few units.
        let budget = (u64::MAX / unit + 1) as usize;
        let mut ctx = OptContext::new(&p, budget, 0);
        assert!(ctx.remaining() >= budget - 1);
        let m = ctx.random_mapping();
        assert!(ctx.evaluate(&m).is_some());
        assert!(!ctx.exhausted());
        let mut ctx = OptContext::new(&p, usize::MAX, 1);
        assert!(ctx.remaining() >= budget - 1);
        assert!(ctx.evaluate(&m).is_some());
        assert!(!ctx.exhausted());
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

    /// Scores, ledger, stats, history and trace of one batch call on a
    /// fresh traced context: the known-score batch when `known` is
    /// `Some`, the plain batch otherwise.
    #[allow(clippy::type_complexity)]
    fn traced_batch(
        p: &MappingProblem,
        objective: Objective,
        budget: usize,
        mappings: &[Mapping],
        known: Option<&[Option<f64>]>,
    ) -> (
        Vec<u64>,
        usize,
        RunStats,
        Vec<(usize, f64)>,
        Vec<TraceEvent>,
    ) {
        let mut ctx = OptContext::new(p, budget, 3);
        ctx.set_objective(objective).unwrap();
        ctx.set_trace_sink(Box::new(RunTrace::new()));
        let scores = match known {
            Some(known) => ctx.evaluate_batch_known(mappings, known),
            None => ctx.evaluate_batch(mappings),
        };
        let bits = scores.into_iter().map(f64::to_bits).collect();
        let history = ctx.history().to_vec();
        (bits, ctx.used(), ctx.stats(), history, ctx.drain_trace())
    }

    #[test]
    fn known_scores_change_nothing_but_the_work() {
        let p = tiny_problem();
        let mut rng = StdRng::seed_from_u64(8);
        // Repeats make some entries copies of earlier ones, as GA
        // children repeat their parents.
        let mut mappings: Vec<Mapping> = (0..9)
            .map(|_| Mapping::random(p.task_count(), p.tile_count(), &mut rng))
            .collect();
        mappings.extend_from_within(2..7);
        for objective in [
            Objective::MaximizeWorstCaseSnr,
            Objective::MinimizeWorstCaseLoss,
        ] {
            let fresh: Vec<f64> = mappings
                .iter()
                .map(|m| objective.score(&p.evaluator().evaluate(m)))
                .collect();
            let patterns: [Vec<Option<f64>>; 3] = [
                fresh.iter().map(|&s| Some(s)).collect(),
                fresh
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| (i % 3 != 1).then_some(s))
                    .collect(),
                vec![None; mappings.len()],
            ];
            // 20 admits the whole batch; 8 truncates it to a prefix that
            // holds known entries, and so does 1.
            for budget in [20, 8, 1] {
                let plain = traced_batch(&p, objective, budget, &mappings, None);
                assert_eq!(plain.0.len(), mappings.len().min(budget));
                for known in &patterns {
                    let with = traced_batch(&p, objective, budget, &mappings, Some(known));
                    assert_eq!(with, plain, "{objective:?} budget {budget} known {known:?}");
                }
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "known score of batch entry 1")]
    fn a_wrong_known_score_fails_the_debug_cross_check() {
        let p = tiny_problem();
        let mut ctx = OptContext::new(&p, 10, 0);
        let mappings: Vec<Mapping> = (0..3).map(|_| ctx.random_mapping()).collect();
        let real = p.evaluate(&mappings[1]).1;
        ctx.evaluate_batch_known(&mappings, &[None, Some(real.next_up()), None]);
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
            let (_, full) = p.evaluate(&start.with_move(Move::Swap(a, b)));
            assert_eq!(ev.score(), full, "swap ({a},{b})");
        }
        // Commit one and verify the cursor advanced.
        let ev = ctx.peek_move(Move::Swap(1, 6)).unwrap();
        ctx.apply_scored_move(&ev);
        assert_eq!(
            ctx.current_mapping().unwrap(),
            &start.with_move(Move::Swap(1, 6))
        );
        assert_eq!(ctx.current_score(), Some(ev.score()));
    }

    #[test]
    #[should_panic(expected = "a full pass stopped in an improving scan")]
    fn a_stopped_full_peek_cannot_be_committed() {
        let p = tiny_problem();
        let mut ctx = OptContext::new(&p, 10_000, 1);
        ctx.set_peek_strategy(PeekStrategy::Full);
        let m = ctx.random_mapping();
        ctx.set_current(m).unwrap();
        let stopped = (1..p.tile_count())
            .filter_map(|b| ctx.peek_move_improving(Move::Swap(0, b)))
            .find(|ev| !ev.is_exact())
            .expect("some swap cannot beat a random start");
        assert_eq!(stopped.route(), PeekRoute::Full);
        ctx.apply_scored_move(&stopped);
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
        assert_eq!(ctx.stats().delta_evaluations, peeks);
        assert_eq!(ctx.stats().full_evaluations, 1);
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
