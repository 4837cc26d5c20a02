//! Admissible score bounds over *partial* assignments — the pruning
//! engine behind `phonoc_opt::exact`'s branch-and-bound certificates
//! and the sweep's per-cell `lower_bound` column.
//!
//! # The bound, in score space
//!
//! Scores are higher-is-better dB ([`Objective::score_worst_cases`]),
//! so an optimality "lower bound" in classic minimization parlance is
//! numerically an **upper bound on the best achievable score**: for a
//! partial assignment *P*, `bound(P) ≥ score(M)` for every complete
//! mapping *M* extending *P*. A branch whose bound does not beat the
//! incumbent can be pruned without losing the optimum; at the empty
//! assignment the bound is an instance-wide optimality certificate —
//! exactly what the sweep's `lower_bound` / `gap_db` columns report.
//!
//! [`CertificateBound`] combines two admissible ingredients through
//! the objective's narrow waist:
//!
//! * **Unaffected-minimum (determined edges).** Once both endpoints of
//!   a communication are placed its path is fixed, so its insertion
//!   loss is final, and its crosstalk noise can only *grow* as further
//!   placements add aggressors (every noise increment is a
//!   non-negative `prefix · K · suffix` term). The minimum IL over
//!   determined edges and the minimum SNR over determined edges under
//!   the noise *collected so far* therefore both upper-bound their
//!   final worst cases — the same monotonicity
//!   [`Evaluator::evaluate_delta_loss_bounded`]'s unaffected-minimum
//!   rejection already trusts.
//! * **Gilmore–Lawler tail (undetermined edges).** An injective task
//!   mapping sends distinct ordered task pairs to distinct ordered
//!   tile pairs, so *r* undetermined communications (over *r* distinct
//!   task pairs) must occupy *r* distinct tile-pair paths — and the
//!   minimum of *r* distinct entries of the instance-wide path-IL
//!   table is at most its *r*-th largest entry. One descending sort of
//!   the `tiles·(tiles−1)` per-pair ILs at construction makes this an
//!   O(1) lookup at any depth and for **any** mesh size; it is the
//!   assignment-problem pairing bound of Gilmore and Lawler
//!   specialized to a min-max objective, where pairing sorted demands
//!   against sorted costs collapses to the order statistic.
//!
//! On a single-communication instance both ingredients are tight: the
//! root IL tail is the best path in the instance (achievable by
//! placing the two tasks on that pair) and a lone communication never
//! collects crosstalk, so the SNR bound sits at the ceiling — the
//! bound equals the optimum for all four objective families.
//!
//! # Floating-point admissibility
//!
//! IL arithmetic is comparisons over exact precomputed table values —
//! no accumulation, so the IL side is admissible bit-for-bit. Noise
//! *is* accumulated, and in assignment order rather than
//! [`Evaluator::evaluate_into`]'s canonical tile order, so the two FP
//! sums can differ by rounding even when they are equal as real
//! numbers. The SNR bound therefore relaxes: noise is scaled by
//! `1 − 1e−9` (vastly more than the worst-case summation error of the
//! few-thousand-term sums involved) and the resulting dB value nudged
//! up by `1e−9` dB before clamping to the ceiling, so the reported
//! bound is ≥ the canonical evaluation's SNR under any summation
//! order. Backtracking restores noise from saved snapshots — never by
//! subtraction, whose cancellation residue could silently tighten the
//! bound below admissibility.
//!
//! Everything is deterministic: same instance, same assign/unassign
//! sequence, same bounds to the last bit — the property
//! `phonoc_opt::exact` needs for byte-for-byte reproducible
//! certificates.

use super::{Evaluator, PathInfo};
use crate::problem::Objective;
use phonoc_phys::Db;
use phonoc_topo::TileId;

/// Multiplier that relaxes accumulated noise before the SNR bound is
/// taken — orders of magnitude beyond the worst-case FP summation
/// error, so order-of-summation rounding can never make the bound
/// inadmissible.
const NOISE_RELAX: f64 = 1.0 - 1e-9;

/// Additive dB slack absorbing the (≤ 1 ulp) non-monotonicity of the
/// library `log10` between the bound's ratio and the canonical one.
const SNR_SLACK_DB: f64 = 1e-9;

/// One determined-edge hop parked on a tile, carrying everything the
/// incremental noise exchange needs inline — the same
/// entry-with-payload layout as the evaluator's counting-sort
/// occupancy tables ([`super::EvalScratch`]), in push/pop form so
/// backtracking is a truncation.
#[derive(Debug, Clone, Copy)]
struct BoundOcc {
    edge: u32,
    pair: u16,
    src: u16,
    prefix: f64,
    suffix: f64,
}

/// Per-[`assign`](CertificateBound::assign) frame: how far to roll
/// every stack back on [`unassign`](CertificateBound::unassign).
#[derive(Debug, Clone, Copy)]
struct Frame {
    task: u32,
    det_len: u32,
    occ_len: u32,
    undo_len: u32,
    prev_min_il: f64,
}

/// The combined unaffected-minimum + Gilmore–Lawler certificate bound
/// (see the module docs for the derivation and admissibility
/// argument): an admissible score bound over partial task→tile
/// assignments.
///
/// Construct once per (problem, objective). The state is incremental:
/// [`assign`] extends the partial assignment, [`unassign`] backtracks
/// the most recent extension (LIFO), and [`bound`] reports a
/// score-space value that upper-bounds every complete mapping
/// extending the current partial assignment. At the empty assignment
/// that is the instance-wide **root bound** — the cheap any-mesh-size
/// value the bench sweep reports as `lower_bound`.
///
/// [`assign`]: CertificateBound::assign
/// [`unassign`]: CertificateBound::unassign
/// [`bound`]: CertificateBound::bound
#[derive(Debug)]
pub struct CertificateBound<'a> {
    ev: &'a Evaluator,
    objective: Objective,
    /// Instance-wide per-tile-pair path ILs, sorted descending (least
    /// lossy first): the Gilmore–Lawler table.
    pair_il_desc: Vec<f64>,
    /// Canonical pair id per edge (duplicate `(src, dst)` edges share
    /// one id, since they also share one tile pair under any mapping).
    edge_pair_id: Vec<u32>,
    /// Undetermined-edge multiplicity per pair id.
    undet_per_pair: Vec<u32>,
    /// Number of pair ids with at least one undetermined edge — the
    /// order statistic the IL tail bound looks up.
    distinct_undet: usize,
    /// `tile_of[task]`, `usize::MAX` when unplaced.
    tile_of: Vec<usize>,
    /// Running minimum IL over determined edges (`+∞` when none).
    det_min_il: f64,
    /// Determined edges, in determination order (a stack).
    det_edges: Vec<u32>,
    /// Per-edge accumulated crosstalk noise / signal gain (meaningful
    /// for determined edges only).
    noise: Vec<f64>,
    gain: Vec<f64>,
    /// Determined-edge hops grouped per tile (push/pop occupancy).
    tile_occ: Vec<Vec<BoundOcc>>,
    /// Tiles that received an occupancy push, in order.
    occ_log: Vec<u32>,
    /// `(edge, previous noise)` snapshots, restored in reverse.
    undo: Vec<(u32, f64)>,
    frames: Vec<Frame>,
}

impl<'a> CertificateBound<'a> {
    /// Builds the bound state for `evaluator` under `objective`.
    ///
    /// Cost is dominated by one descending sort of the
    /// `tiles·(tiles−1)` per-pair path ILs — cheap enough to compute
    /// per sweep cell at any mesh size.
    #[must_use]
    pub fn new(evaluator: &'a Evaluator, objective: Objective) -> CertificateBound<'a> {
        let tiles = evaluator.tables.0.tile_count;
        // `NaN` marks the `s == d` slots, which have no path.
        let mut pair_il_desc: Vec<f64> = evaluator
            .tables
            .0
            .path_db
            .iter()
            .copied()
            .filter(|db| !db.is_nan())
            .collect();
        pair_il_desc.sort_by(|a, b| b.total_cmp(a));

        // Canonicalize duplicate (src, dst) edges onto one pair id so
        // the distinct-pair count behind the IL tail stays honest.
        let edges = evaluator.edge_endpoints.len();
        let mut edge_pair_id = vec![0u32; edges];
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (e, &(s, d)) in evaluator.edge_endpoints.iter().enumerate() {
            let id = match pairs.iter().position(|&p| p == (s, d)) {
                Some(i) => i,
                None => {
                    pairs.push((s, d));
                    pairs.len() - 1
                }
            };
            edge_pair_id[e] = id as u32;
        }
        let mut undet_per_pair = vec![0u32; pairs.len()];
        for &id in &edge_pair_id {
            undet_per_pair[id as usize] += 1;
        }
        let distinct_undet = pairs.len();

        CertificateBound {
            ev: evaluator,
            objective,
            pair_il_desc,
            edge_pair_id,
            undet_per_pair,
            distinct_undet,
            tile_of: vec![usize::MAX; evaluator.task_edges.len()],
            det_min_il: f64::INFINITY,
            det_edges: Vec::new(),
            noise: vec![0.0; edges],
            gain: vec![0.0; edges],
            tile_occ: vec![Vec::new(); tiles],
            occ_log: Vec::new(),
            undo: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// The objective the bound scores under.
    #[must_use]
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The Gilmore–Lawler IL tail for the current undetermined set:
    /// the `p`-th largest per-pair path IL, `p` = distinct
    /// undetermined task pairs (`+∞` when everything is determined).
    fn tail_il(&self) -> f64 {
        if self.distinct_undet == 0 || self.pair_il_desc.is_empty() {
            return f64::INFINITY;
        }
        let idx = self.distinct_undet.min(self.pair_il_desc.len()) - 1;
        self.pair_il_desc[idx]
    }

    /// Admissible upper bound on any completion's worst-case SNR: the
    /// minimum over determined edges of their SNR under the noise
    /// collected so far (relaxed — see the module docs), clamped to
    /// the evaluator's ceiling.
    fn snr_ub(&self) -> f64 {
        let ceiling = self.ev.tables.0.snr_ceiling.0;
        let mut min_ratio = f64::INFINITY;
        for &e in &self.det_edges {
            let e = e as usize;
            if self.noise[e] > 0.0 {
                min_ratio = min_ratio.min(self.gain[e] / (self.noise[e] * NOISE_RELAX));
            }
        }
        if min_ratio.is_finite() {
            (10.0 * min_ratio.log10() + SNR_SLACK_DB).min(ceiling)
        } else {
            ceiling
        }
    }

    /// Exchanges crosstalk between a newly determined edge and the
    /// occupancies already parked on its path's routers, then parks
    /// the edge's hops. Every noise write of *existing* victims is
    /// snapshot-logged first.
    fn couple_edge(&mut self, e: usize, path: &PathInfo) {
        let src = self.ev.edge_endpoints[e].0;
        for hop in &path.hops {
            let mut acc = 0.0;
            let row = &self.ev.tables.0.interaction[hop.pair as usize];
            for o in &self.tile_occ[hop.tile as usize] {
                if o.edge as usize == e || o.src as usize == src {
                    continue;
                }
                // The occupant aggresses the new edge …
                let k = row[o.pair as usize];
                if k > 0.0 {
                    acc += o.prefix * k;
                }
                // … and the new edge aggresses the occupant.
                let k = self.ev.tables.0.interaction[o.pair as usize][hop.pair as usize];
                if k > 0.0 {
                    let victim = o.edge as usize;
                    self.undo.push((o.edge, self.noise[victim]));
                    self.noise[victim] += (hop.prefix * k) * o.suffix;
                }
            }
            self.noise[e] += acc * hop.suffix;
            self.tile_occ[hop.tile as usize].push(BoundOcc {
                edge: e as u32,
                pair: hop.pair as u16,
                src: src as u16,
                prefix: hop.prefix,
                suffix: hop.suffix,
            });
            self.occ_log.push(hop.tile);
        }
    }

    /// Short identifier for certificates and reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        "gl+unaffected-min"
    }

    /// Number of tasks currently placed.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Admissible score-space bound on any completion of the current
    /// partial assignment (higher-is-better dB, same scale as
    /// [`Objective::score_worst_cases`]).
    #[must_use]
    pub fn bound(&self) -> f64 {
        // Any completion's worst IL is ≤ each determined edge's final
        // IL, ≤ the undetermined tail, and ≤ 0 (the evaluator's
        // worst-case scan starts at 0 dB).
        let il_ub = self.det_min_il.min(self.tail_il()).min(0.0);
        self.objective
            .score_worst_cases(Db(il_ub), Db(self.snr_ub()))
    }

    /// Places `task` on `tile`, updating the incremental state.
    /// Returns the bound work performed in **edge units** (the number
    /// of communications this placement newly determined) — the cost a
    /// budgeted search charges via
    /// [`OptContext::charge_bound`](crate::OptContext::charge_bound).
    pub fn assign(&mut self, task: usize, tile: TileId) -> usize {
        debug_assert!(self.tile_of[task] == usize::MAX, "task already placed");
        debug_assert!(
            tile.0 < self.tile_occ.len(),
            "tile out of range for this topology"
        );
        let frame = Frame {
            task: task as u32,
            det_len: self.det_edges.len() as u32,
            occ_len: self.occ_log.len() as u32,
            undo_len: self.undo.len() as u32,
            prev_min_il: self.det_min_il,
        };
        self.tile_of[task] = tile.0;
        let mut determined = 0usize;
        let ev = self.ev;
        for &e in &ev.task_edges[task] {
            let (s, d) = ev.edge_endpoints[e];
            let (st, dt) = (self.tile_of[s], self.tile_of[d]);
            if st == usize::MAX || dt == usize::MAX {
                continue;
            }
            determined += 1;
            let idx = st * ev.tables.0.tile_count + dt;
            let path = ev.path(idx);
            self.det_min_il = self.det_min_il.min(ev.tables.0.path_db[idx]);
            self.noise[e] = 0.0;
            self.gain[e] = path.total_gain;
            self.det_edges.push(e as u32);
            let id = self.edge_pair_id[e] as usize;
            self.undet_per_pair[id] -= 1;
            if self.undet_per_pair[id] == 0 {
                self.distinct_undet -= 1;
            }
            self.couple_edge(e, path);
        }
        self.frames.push(frame);
        determined
    }

    /// Undoes the most recent [`assign`](CertificateBound::assign)
    /// (LIFO).
    pub fn unassign(&mut self) {
        let frame = self.frames.pop().expect("unassign without a frame");
        self.tile_of[frame.task as usize] = usize::MAX;
        // Un-determine this frame's edges (restore the pair counters).
        while self.det_edges.len() > frame.det_len as usize {
            let e = self.det_edges.pop().expect("stack underflow") as usize;
            let id = self.edge_pair_id[e] as usize;
            if self.undet_per_pair[id] == 0 {
                self.distinct_undet += 1;
            }
            self.undet_per_pair[id] += 1;
            self.noise[e] = 0.0;
        }
        // Unpark this frame's hops (pure truncation per tile).
        while self.occ_log.len() > frame.occ_len as usize {
            let tile = self.occ_log.pop().expect("stack underflow") as usize;
            self.tile_occ[tile].pop();
        }
        // Restore victims' noise from snapshots, newest first — exact
        // FP restoration, never subtraction.
        while self.undo.len() > frame.undo_len as usize {
            let (e, old) = self.undo.pop().expect("stack underflow");
            self.noise[e as usize] = old;
        }
        self.det_min_il = frame.prev_min_il;
    }

    /// Clears back to the empty assignment.
    pub fn reset(&mut self) {
        while !self.frames.is_empty() {
            self.unassign();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Mapping;
    use crate::problem::MappingProblem;
    use phonoc_phys::{Length, PhysicalParameters};
    use phonoc_route::XyRouting;
    use phonoc_router::crux::crux_router;
    use phonoc_topo::Topology;

    fn problem(cg: phonoc_apps::CommunicationGraph, rows: usize, cols: usize) -> MappingProblem {
        MappingProblem::new(
            cg,
            Topology::mesh(rows, cols, Length::from_mm(2.5)),
            crux_router(),
            Box::new(XyRouting),
            PhysicalParameters::default(),
            Objective::MaximizeWorstCaseSnr,
        )
        .unwrap()
    }

    /// Walks every full assignment of `p` depth-first, checking at
    /// every node that the bound dominates the true score of every
    /// completion below it.
    fn check_admissible(p: &MappingProblem, objective: Objective) {
        let ev = p.evaluator();
        let mut lb = CertificateBound::new(ev, objective);
        let tasks = p.task_count();
        let tiles = p.tile_count();
        let mut assignment: Vec<TileId> = Vec::new();
        let mut used = vec![false; tiles];
        // Returns the max completion score below the current node.
        fn dfs(
            p: &MappingProblem,
            objective: Objective,
            lb: &mut CertificateBound<'_>,
            tasks: usize,
            tiles: usize,
            assignment: &mut Vec<TileId>,
            used: &mut [bool],
        ) -> f64 {
            if assignment.len() == tasks {
                let m = Mapping::from_assignment(assignment.clone(), tiles).unwrap();
                let metrics = p.evaluator().evaluate(&m);
                return objective.score_worst_cases(metrics.worst_case_il, metrics.worst_case_snr);
            }
            let mut best = f64::NEG_INFINITY;
            for tile in 0..tiles {
                if used[tile] {
                    continue;
                }
                used[tile] = true;
                assignment.push(TileId(tile));
                lb.assign(assignment.len() - 1, TileId(tile));
                let below = dfs(p, objective, lb, tasks, tiles, assignment, used);
                let bound = lb.bound();
                assert!(
                    bound >= below,
                    "bound {bound} < best completion {below} at depth {} ({objective:?})",
                    assignment.len(),
                );
                lb.unassign();
                assignment.pop();
                used[tile] = false;
                best = best.max(below);
            }
            best
        }
        let best = dfs(
            p,
            objective,
            &mut lb,
            tasks,
            tiles,
            &mut assignment,
            &mut used,
        );
        assert!(
            lb.bound() >= best,
            "root bound {} < optimum {best} ({objective:?})",
            lb.bound(),
        );
        assert_eq!(lb.depth(), 0, "walk must fully backtrack");
    }

    #[test]
    fn bound_is_admissible_at_every_node_of_a_small_instance() {
        let cg = phonoc_apps::synthetic::pipeline(4);
        let p = problem(cg, 2, 3);
        for objective in Objective::ALL {
            check_admissible(&p, objective);
        }
    }

    #[test]
    fn single_edge_root_bound_is_exact() {
        let cg = phonoc_apps::CgBuilder::new("single-edge")
            .tasks(["a", "b"])
            .edge("a", "b", 1.0)
            .build()
            .unwrap();
        let p = problem(cg, 2, 2);
        let ev = p.evaluator();
        for objective in Objective::ALL {
            let lb = CertificateBound::new(ev, objective);
            // Optimum by brute force over the 12 mappings.
            let mut best = f64::NEG_INFINITY;
            for a in 0..4 {
                for c in 0..4 {
                    if a == c {
                        continue;
                    }
                    let m = Mapping::from_assignment(vec![TileId(a), TileId(c)], 4).unwrap();
                    let metrics = ev.evaluate(&m);
                    best = best.max(
                        objective.score_worst_cases(metrics.worst_case_il, metrics.worst_case_snr),
                    );
                }
            }
            assert_eq!(
                lb.bound().to_bits(),
                best.to_bits(),
                "single-edge root bound must be exact ({objective:?})"
            );
        }
    }

    #[test]
    fn backtracking_restores_state_bit_for_bit() {
        let cg = phonoc_apps::synthetic::pipeline(5);
        let p = problem(cg, 3, 3);
        let ev = p.evaluator();
        let mut lb = CertificateBound::new(ev, Objective::MaximizeWorstCaseSnr);
        let root = lb.bound();
        lb.assign(0, TileId(4));
        let after_one = lb.bound();
        lb.assign(1, TileId(1));
        lb.assign(2, TileId(3));
        lb.unassign();
        lb.unassign();
        assert_eq!(lb.bound().to_bits(), after_one.to_bits());
        lb.unassign();
        assert_eq!(lb.bound().to_bits(), root.to_bits());
        // Re-walking the same prefix reproduces the same bounds.
        lb.assign(0, TileId(4));
        assert_eq!(lb.bound().to_bits(), after_one.to_bits());
        lb.reset();
        assert_eq!(lb.bound().to_bits(), root.to_bits());
    }
}
