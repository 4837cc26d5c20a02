//! Branch-and-bound with optimality certificates — the exact lane.
//!
//! Where every other strategy in this crate reports "the best mapping I
//! found", [`prove`] reports *how far from optimal* that mapping can
//! possibly be, and — when the search space is exhausted within budget
//! — that it **is** optimal. The search assigns tasks to tiles in fixed
//! task order (task 0 first) trying tiles in ascending index order, the
//! exact enumeration order of [`Exhaustive`](crate::Exhaustive), and
//! prunes a subtree whenever the admissible bound
//! ([`phonoc_core::CertificateBound`]: the unaffected-minimum
//! determined-edge bound plus the Gilmore–Lawler order-statistic tail;
//! see `phonoc_core::evaluator::bound` for the derivation) cannot beat
//! the incumbent. Pruning on `bound <= incumbent` is safe because the
//! engine's incumbent only improves on *strictly* greater scores — a
//! pruned subtree can at best tie.
//!
//! # Determinism
//!
//! Certificates are reproducible byte-for-byte per `(problem, config)`:
//! the task order, tile order, and tie-breaks are fixed; the bound is
//! bit-deterministic (exact table lookups on the IL side, snapshot-
//! restored noise on the SNR side); and the only seed-dependence is the
//! classic one — the seeded/random warm-start incumbent, identical to
//! every other optimizer's `DseConfig` semantics. Same config, same
//! node count, same leaf count, same certificate.
//!
//! # Budget
//!
//! Node expansion rides the engine's integer evaluation-unit ledger:
//! each assignment charges the bound work it performed (the number of
//! communications the placement newly determined, minimum one unit) via
//! [`OptContext::charge_bound`], and each surviving leaf pays a normal
//! full evaluation. A `DseConfig { budget, seed, objective, start }`
//! therefore means exactly what it means everywhere else; when the
//! ledger runs dry the search aborts and the certificate honestly
//! reports `proved: false` with the incumbent-so-far.
//!
//! # Telemetry
//!
//! The search feeds the [`phonoc_core::telemetry`] layer through
//! [`OptContext::note_exact_search`]: node and leaf totals land in the
//! session's [`RunStats`](phonoc_core::RunStats), and a recording sink
//! additionally receives one `exact_summary` event plus one
//! `exact_cuts` event per non-empty depth of the **bound-cut
//! histogram** — [`Certificate::cut_depths`], counting at each
//! assignment depth how many subtrees the admissible bound pruned.
//! Deep cuts are cheap (small subtrees), shallow cuts are where the
//! bound earns its keep; the histogram makes that visible per run.
//! [`prove_traced`] returns the event stream alongside the
//! certificate; tracing never changes the search (counters are
//! deterministic, events carry integers only).

use phonoc_core::{
    CertificateBound, DseConfig, DseResult, Mapping, MappingOptimizer, MappingProblem, Objective,
    OptContext, RunTrace, TraceEvent,
};
use phonoc_topo::TileId;

/// Deterministic branch-and-bound mapper (registry name `"exact"`).
///
/// As a [`MappingOptimizer`] it plugs into [`run_dse`](phonoc_core::run_dse), the registry
/// and portfolio lanes like any other strategy — a `portfolio:exact+…`
/// lane *proves* small cells instead of sampling them. Use [`prove`]
/// when you need the certificate itself (root bound, gap, proved flag,
/// node counts) rather than just the best mapping.
///
/// Intended for small meshes (≤5×5): the search space is
/// `tiles!/(tiles−tasks)!` and only the bound stands between you and
/// all of it. On larger meshes the root bound is still useful — see
/// [`root_bound`] — but exhausting the space within any sane budget is
/// not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactSearch;

impl MappingOptimizer for ExactSearch {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn optimize(&self, ctx: &mut OptContext<'_>) {
        let mut stats = SearchStats::default();
        branch_and_bound(ctx, &mut stats);
        ctx.note_exact_search(
            stats.nodes as usize,
            stats.leaves as usize,
            &stats.cut_depths,
        );
    }
}

/// An optimality certificate: the outcome of a [`prove`] run.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// The underlying search outcome (best mapping, score, ledger
    /// accounting, improvement history) — same shape as any
    /// [`run_dse`](phonoc_core::run_dse) result.
    pub result: DseResult,
    /// The admissible root bound: no mapping of this instance scores
    /// above this value (score space, higher-is-better dB). This is
    /// the sweep's `lower_bound` column — a *lower* bound in classic
    /// cost-minimization parlance.
    pub root_bound: f64,
    /// `root_bound − best_score` ≥ 0: the certified distance between
    /// the bound and what the search achieved. Zero means the root
    /// bound itself is tight.
    pub gap_db: f64,
    /// `true` when the search exhausted the whole (pruned) space within
    /// budget — `result.best_score` **is** the optimum. `false` means
    /// the budget ran dry first and the score is only an incumbent.
    pub proved: bool,
    /// Internal nodes expanded (task→tile assignments tried).
    pub nodes: u64,
    /// Complete assignments that survived pruning and were evaluated.
    pub leaves: u64,
    /// Bound-cut histogram: `cut_depths[d]` counts the subtrees pruned
    /// with `d` tasks assigned (index = assignment depth at the cut;
    /// trailing depths with zero cuts are not stored).
    pub cut_depths: Vec<usize>,
}

#[derive(Debug, Default)]
struct SearchStats {
    nodes: u64,
    leaves: u64,
    cut_depths: Vec<usize>,
}

impl SearchStats {
    fn record_cut(&mut self, depth: usize) {
        if self.cut_depths.len() <= depth {
            self.cut_depths.resize(depth + 1, 0);
        }
        self.cut_depths[depth] += 1;
    }
}

/// Runs the exact search under the standard [`DseConfig`] semantics and
/// returns the full [`Certificate`].
///
/// Equivalent to `run_dse(problem, &ExactSearch, config)` plus the
/// certificate fields [`run_dse`](phonoc_core::run_dse)'s [`DseResult`] cannot carry.
///
/// # Panics
///
/// Panics on a zero budget (like every [`run_dse`](phonoc_core::run_dse) session: the search
/// must evaluate at least one mapping).
#[must_use]
pub fn prove(problem: &MappingProblem, config: &DseConfig) -> Certificate {
    prove_inner(problem, config, false).0
}

/// [`prove`] with a recording trace: returns the certificate plus the
/// `phonocmap-trace/1` event stream of the run (`exact_summary`,
/// `exact_cuts` per depth, `session_end` — see the [module
/// docs](self#telemetry)). The certificate is bit-identical to what
/// [`prove`] returns for the same `(problem, config)`.
///
/// # Panics
///
/// Same as [`prove`].
#[must_use]
pub fn prove_traced(
    problem: &MappingProblem,
    config: &DseConfig,
) -> (Certificate, Vec<TraceEvent>) {
    prove_inner(problem, config, true)
}

fn prove_inner(
    problem: &MappingProblem,
    config: &DseConfig,
    traced: bool,
) -> (Certificate, Vec<TraceEvent>) {
    let mut ctx = OptContext::with_config(problem, config);
    if traced {
        ctx.set_trace_sink(Box::new(RunTrace::new()));
    }
    let root_bound = root_bound(problem, ctx.objective());
    let mut stats = SearchStats::default();
    let proved = branch_and_bound(&mut ctx, &mut stats);
    ctx.note_exact_search(
        stats.nodes as usize,
        stats.leaves as usize,
        &stats.cut_depths,
    );
    let result = ctx.finish("exact");
    let events = ctx.drain_trace();
    (
        Certificate {
            root_bound,
            gap_db: root_bound - result.best_score,
            proved,
            nodes: stats.nodes,
            leaves: stats.leaves,
            cut_depths: stats.cut_depths,
            result,
        },
        events,
    )
}

/// The admissible instance-wide score bound on its own — cheap for
/// **any** mesh size (one sort of the per-tile-pair path ILs), which is
/// how the bench sweep fills its `lower_bound` column on cells far too
/// large to prove.
#[must_use]
pub fn root_bound(problem: &MappingProblem, objective: Objective) -> f64 {
    CertificateBound::new(problem.evaluator(), objective).bound()
}

/// Establishes the warm-start incumbent and runs the bounded DFS.
/// Returns `true` when the search space was exhausted (optimality
/// proved), `false` when the budget aborted it.
fn branch_and_bound(ctx: &mut OptContext<'_>, stats: &mut SearchStats) -> bool {
    // Evaluate the session's starting mapping first: the seeded start
    // (portfolio exchange hook) or the classic seeded-random mapping.
    // This both warms the incumbent for pruning and preserves run_dse's
    // "every session evaluates at least once" invariant.
    let start = ctx.initial_mapping();
    if ctx.evaluate(&start).is_none() {
        return false;
    }
    let tasks = ctx.task_count();
    let tiles = ctx.tile_count();
    let mut lb = CertificateBound::new(ctx.problem().evaluator(), ctx.objective());
    let mut assignment: Vec<TileId> = Vec::with_capacity(tasks);
    let mut used = vec![false; tiles];
    dfs(
        ctx,
        &mut lb,
        tasks,
        tiles,
        &mut assignment,
        &mut used,
        stats,
    )
}

/// Depth-first branch and bound. Returns `false` when the budget ran
/// out (aborts the recursion, like the exhaustive enumerator).
fn dfs(
    ctx: &mut OptContext<'_>,
    lb: &mut CertificateBound<'_>,
    tasks: usize,
    tiles: usize,
    assignment: &mut Vec<TileId>,
    used: &mut [bool],
    stats: &mut SearchStats,
) -> bool {
    if assignment.len() == tasks {
        stats.leaves += 1;
        let m = Mapping::from_assignment(assignment.clone(), tiles)
            .expect("the search yields valid assignments");
        return ctx.evaluate(&m).is_some();
    }
    let task = assignment.len();
    for tile in 0..tiles {
        if used[tile] {
            continue;
        }
        used[tile] = true;
        assignment.push(TileId(tile));
        let bound_work = lb.assign(task, TileId(tile));
        stats.nodes += 1;
        let mut keep_going = ctx.charge_bound(bound_work as u64);
        if keep_going {
            // `<=` is safe: the incumbent only improves on strictly
            // greater scores, so a subtree that can at best tie is
            // never the unique optimum.
            let incumbent = ctx.best().map_or(f64::NEG_INFINITY, |(_, s)| s);
            if lb.bound() > incumbent {
                keep_going = dfs(ctx, lb, tasks, tiles, assignment, used, stats);
            } else {
                stats.record_cut(assignment.len());
            }
        }
        lb.unassign();
        assignment.pop();
        used[tile] = false;
        if !keep_going {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::micro_problem;
    use crate::Exhaustive;
    use phonoc_core::run_dse;

    #[test]
    fn proves_the_exhaustive_optimum_on_the_micro_instance() {
        let p = micro_problem();
        let space = Exhaustive::space_size(p.task_count(), p.tile_count());
        let truth = run_dse(&p, &Exhaustive, &DseConfig::new(space + 10, 0));
        let cert = prove(&p, &DseConfig::new(space + 10, 0));
        assert!(cert.proved, "micro instance must be provable");
        assert_eq!(
            cert.result.best_score.to_bits(),
            truth.best_score.to_bits(),
            "certificate must bit-match the exhaustive optimum"
        );
        assert!(cert.root_bound >= cert.result.best_score);
        assert!(cert.gap_db >= 0.0);
        assert!(cert.leaves <= space as u64, "pruning must not add leaves");
    }

    #[test]
    fn certificates_are_reproducible_byte_for_byte() {
        let p = micro_problem();
        let a = prove(&p, &DseConfig::new(200, 7));
        let b = prove(&p, &DseConfig::new(200, 7));
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.leaves, b.leaves);
        assert_eq!(a.proved, b.proved);
        assert_eq!(a.result.best_score.to_bits(), b.result.best_score.to_bits());
        assert_eq!(a.result.best_mapping, b.result.best_mapping);
        assert_eq!(a.result.evaluations, b.result.evaluations);
        assert_eq!(a.root_bound.to_bits(), b.root_bound.to_bits());
    }

    #[test]
    fn budget_starvation_reports_unproved() {
        let p = micro_problem();
        // One unit: enough for the warm-start evaluation, nothing else.
        let cert = prove(&p, &DseConfig::new(1, 0));
        assert!(!cert.proved);
        assert!(cert.result.evaluations >= 1);
        assert!(
            cert.gap_db >= 0.0,
            "bound must still dominate the incumbent"
        );
    }

    #[test]
    fn optimizer_entry_point_matches_prove() {
        let p = micro_problem();
        let space = Exhaustive::space_size(p.task_count(), p.tile_count());
        let config = DseConfig::new(space + 10, 3);
        let via_run = run_dse(&p, &ExactSearch, &config);
        let via_prove = prove(&p, &config);
        assert_eq!(
            via_run.best_score.to_bits(),
            via_prove.result.best_score.to_bits()
        );
        assert_eq!(via_run.evaluations, via_prove.result.evaluations);
        assert_eq!(via_run.optimizer, "exact");
    }

    #[test]
    fn root_bound_is_finite_on_larger_meshes() {
        // The GL root bound must stay cheap and finite well past the
        // provable range.
        let p = crate::test_support::tiny_problem();
        for objective in Objective::ALL {
            let b = root_bound(&p, objective);
            assert!(b.is_finite(), "{objective:?} root bound must be finite");
        }
    }
}
