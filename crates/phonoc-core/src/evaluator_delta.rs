//! Incremental (move-based) evaluation: the delta path of the
//! [`Evaluator`].
//!
//! A [`Move`] perturbs at most two tiles, so only the communications
//! incident to the moved task(s) change their network paths. Everything
//! else can only change through *crosstalk*: a router on one of those
//! old or new paths gains or loses an aggressor. [`EvalState`] caches
//! per-edge IL and SNR, the **per-(edge, hop) aggressor accumulation**
//! (`acc`) of every router visit, and per-router occupancy lists whose
//! entries carry the aggressor data (port pair, prefix gain) inline so
//! the hot loops never chase path pointers. `acc` is one table at a
//! fixed row stride, the evaluator's longest path: hop `h` of edge `e`
//! sits at `e · max_hops + h`, and slots past the end of the edge's
//! path hold `0.0`, so a path that grows or shrinks never moves another
//! edge's slots.
//!
//! # One kernel
//!
//! Every SNR delta — the exact peek ([`Evaluator::evaluate_delta`]),
//! the bound-then-verify peek ([`Evaluator::evaluate_delta_bounded`])
//! and the commit ([`Evaluator::apply_move`]) — runs one kernel that
//! scores a move against a threshold. The exact peek and the commit
//! pass `-∞`, which the kernel can never reject. The kernel
//!
//! 1. collects the moved edges (via the evaluator's task→edges index)
//!    and trims each one to the hops that *really* change — XY routes
//!    from an unmoved source share a bitwise-identical head with the
//!    old path, which is skipped entirely,
//! 2. patches the occupancy lists of the changed tiles and marks a
//!    resident victim hop *dirty* only if a changed occupancy actually
//!    couples into it (nonzero interaction gain after the same-source
//!    exclusion),
//! 3. takes the worst-IL min-scan and the minimum SNR over unaffected
//!    edges, an admissible bound that rejects before any noise work,
//! 4. re-sums each affected victim's noise in canonical tile order,
//!    computing each dirty accumulation at most once against the
//!    patched lists (a branch-free multiply-select loop: excluded or
//!    zero-gain entries contribute an exact `+0.0`) — lazily under a
//!    finite threshold, so a rejected peek skips the rest, and in one
//!    linear warm-up pass at `-∞`, where every one is read — and
//! 5. selects the affected minimum in the linear ratio domain, where
//!    `log10`'s monotonicity makes the selection exact: under a finite
//!    threshold one `log10` per decrease of the running minimum feeds
//!    the early exit, at `-∞` a single `log10` at the end. Debug builds
//!    verify the result against the canonical per-edge scan.
//!
//! The commit then writes back, in place, what the kernel left in the
//! scratch: the moved edges' paths and losses (the commit a loss cursor
//! runs, with the kernel's worst-loss scan), the patched lists, each
//! dirty accumulation into its slot, each moved edge's accumulations
//! along its new path into its row (zeroing the slots past the new
//! end), and the affected victims' SNRs. Nothing else is rewritten.
//!
//! # Exactness
//!
//! Incremental results are **bit-identical** to a full
//! [`Evaluator::evaluate`], not merely close. Floating-point addition is
//! commutative but not associative, so this requires discipline rather
//! than luck:
//!
//! * a per-hop accumulation is an ordered sum over the router's
//!   occupancy list (ascending `(edge, hop)`, exactly the full pass's
//!   insertion order); adding a zero term (excluded or zero-gain
//!   entry) instead of skipping it is bit-exact because every term is
//!   non-negative and `x + 0.0 == x` for `x ≥ 0`, which is also what
//!   makes inserting or removing non-coupled entries a no-op;
//! * a victim's noise is `Σ acc·suffix` over its hops in ascending
//!   tile order — precomputed per path as `PathInfo::tile_order` —
//!   with `acc` from the state's row and `suffix` read off the path's
//!   own hop (`HopInfo::suffix`, the value the full pass reads), which
//!   is exactly the expression and order of the full pass's tile-major
//!   loop;
//! * shared path heads are reused only when the old and new hops are
//!   entrywise identical (tile, port pair, and bitwise prefix), which
//!   holds by construction when the leading route segments coincide.
//!
//! The seat ([`Evaluator::init_state`]) *is* the full pass: it runs
//! [`Evaluator::evaluate_into`]'s kernel and lays that pass's
//! occupancies, accumulations, losses, SNRs and worst cases out per
//! edge and per tile, so no second copy of the pass has to keep its
//! order. Victims the pass skips (tiles with fewer than two occupants,
//! or no coupling partner among the pairs present) hold an exact `+0.0`
//! accumulation, which is what summing them would give; so do the
//! slots past the end of each path.
//!
//! The [`Evaluator::apply_move`] commit carries a debug assertion
//! comparing the updated state against a fresh seat — that is, against
//! the full pass — and the workspace property tests
//! (`crates/phonoc-core/tests/`, `tests/properties.rs`) pin the equality
//! on random mappings and moves.

use super::{EvalScratch, Evaluator, HopInfo, NetworkMetrics, PathInfo};
use crate::mapping::{Mapping, Move};
use phonoc_phys::Db;

/// One occupancy of a router: edge `edge`'s hop `hop` traverses it with
/// port pair `pair`, arriving with linear gain `prefix`. Lists are kept
/// ascending by `(edge, hop)` — the full pass's insertion order. Shared
/// with the scratch-reusing full evaluator ([`super::EvalScratch`]), so
/// both passes run the same branch-free accumulate over the same entry
/// layout.
///
/// The edge's source task rides along as a packed `u16` (the evaluator
/// checks it fits at construction) so the inner accumulate loop runs
/// the same-source exclusion without a gather into the endpoint table.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub(super) struct Occ {
    pub(super) edge: u32,
    pub(super) hop: u32,
    pub(super) pair: u16,
    pub(super) src: u16,
    pub(super) prefix: f64,
}

/// Per-edge paths and insertion losses of one mapping and their worst
/// case: all a loss-based objective scores (paper Eq. 3 reads only each
/// edge's own path). A loss-family cursor holds just this; every
/// [`EvalState`] embeds one, patched through the same commit.
///
/// `il` is each edge's entry of the evaluator's dense loss table, laid
/// out in edge order so the worst-case scans ([`lane_min`]) read one
/// contiguous slice. A cursor that moves to a new mapping reseats into
/// its own buffers ([`Evaluator::reseat_loss_state`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct LossState {
    /// Per edge: index of its current path (`src_tile * tiles + dst`).
    path_of_edge: Vec<usize>,
    /// Per edge: insertion loss in dB (`path_db[path_of_edge[e]]`).
    il: Vec<f64>,
    worst_il: f64,
}

impl LossState {
    /// Worst-case insertion loss (paper Eq. 3) of the cached mapping.
    pub(crate) fn worst_case_il(&self) -> Db {
        Db(self.worst_il)
    }
}

/// Mapping-dependent caches enabling incremental SNR re-evaluation.
///
/// Build one with [`Evaluator::init_state`] (a full pass, kept), then
/// score candidate moves with [`Evaluator::evaluate_delta`] and commit
/// them with [`Evaluator::apply_move`]. The state is tied to the
/// evaluator and mapping it was built from; the commit path keeps all
/// three in sync.
///
/// It holds each edge's path and insertion loss (what the loss peeks
/// read) and the crosstalk caches the SNR deltas read: per-hop
/// accumulations, per-edge SNR, and per-tile occupancy lists.
#[derive(Debug, Clone)]
pub struct EvalState {
    /// Per edge: path and insertion loss; the worst-case loss.
    loss: LossState,
    /// Per (edge, hop): the ordered aggressor accumulation at that
    /// router, at `edge * max_hops + hop` (the evaluator's longest path
    /// is the row stride). Slots past the end of an edge's path hold
    /// `0.0`.
    acc: Vec<f64>,
    /// Per edge: SNR in dB (from the path gain and the noise
    /// `Σ acc·suffix`, clamped to the ceiling).
    snr: Vec<f64>,
    /// Per tile: occupancies ascending by `(edge, hop)`.
    tile_hops: Vec<Vec<Occ>>,
    worst_snr: f64,
}

impl EvalState {
    /// Worst-case insertion loss (paper Eq. 3) of the cached mapping.
    #[must_use]
    pub fn worst_case_il(&self) -> Db {
        self.loss.worst_case_il()
    }

    /// Worst-case SNR (paper Eq. 4) of the cached mapping.
    #[must_use]
    pub fn worst_case_snr(&self) -> Db {
        Db(self.worst_snr)
    }

    /// Materializes full [`NetworkMetrics`] from the cached state.
    #[must_use]
    pub fn to_metrics(&self) -> NetworkMetrics {
        NetworkMetrics {
            edges: (0..self.snr.len())
                .map(|e| super::EdgeMetrics {
                    edge: e,
                    insertion_loss: Db(self.loss.il[e]),
                    snr: Db(self.snr[e]),
                })
                .collect(),
            worst_case_il: self.worst_case_il(),
            worst_case_snr: Db(self.worst_snr),
        }
    }
}

/// Outcome of incrementally scoring one [`Move`].
///
/// The two *new* worst cases are bit-identical to what a full
/// re-evaluation of the moved mapping would report. `affected_edges` is
/// the number of victims whose noise had to be re-derived — the honest
/// cost of the delta, which the engine uses for budget accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreDelta {
    /// Worst-case insertion loss after the move.
    pub new_worst_il: Db,
    /// Worst-case SNR after the move.
    pub new_worst_snr: Db,
    /// Victim edges whose noise was recomputed (0 for neutral moves).
    pub affected_edges: usize,
}

/// Outcome of a bound-then-verify SNR peek
/// ([`Evaluator::evaluate_delta_bounded`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundedDelta {
    /// The move cannot lift the worst-case SNR above the threshold it
    /// was tested against: its exact new worst-case SNR is `≤ bound ≤
    /// threshold`. The exact value was **not** fully computed — a
    /// rejected peek must never be committed.
    Rejected {
        /// An admissible upper bound on the move's new worst-case SNR.
        bound: Db,
        /// Victim noise recomputations performed before rejection (0
        /// when the structural bound already rejected) — the honest
        /// evaluator work, used for budget accounting.
        cost: usize,
    },
    /// The move may beat the threshold: the full delta was computed
    /// and is bit-identical to [`Evaluator::evaluate_delta`].
    Exact(ScoreDelta),
}

/// Outcome of a bound-then-verify *loss* peek
/// ([`Evaluator::evaluate_delta_loss_bounded`]) — the crosstalk-free
/// sibling of [`BoundedDelta`], used by the loss-based objective family
/// (worst-case loss, laser power) in improving-only scans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundedLossDelta {
    /// The move cannot lift the worst-case insertion loss above the
    /// threshold it was tested against: its exact new worst-case IL is
    /// `≤ bound ≤ threshold`. The exhaustive edge scan was **not**
    /// performed — a rejected peek must never be committed.
    Rejected {
        /// An admissible upper bound on the move's new worst-case
        /// insertion loss (dB, negative; higher = better).
        bound: Db,
        /// Moved edges whose new paths were looked up before rejection —
        /// the honest evaluator work, used for budget accounting.
        cost: usize,
    },
    /// The move may beat the threshold: the exact new worst case was
    /// computed, bit-identical to [`Evaluator::evaluate_delta_loss`].
    Exact {
        /// Worst-case insertion loss after the move.
        new_worst_il: Db,
        /// Edges whose paths the move changes (the delta's honest cost).
        moved_edges: usize,
    },
}

/// Mean path length `h̄` below which a full scratch pass
/// ([`Evaluator::evaluate_into`]) scores SNR peeks faster than the delta
/// side: the delta's advantage (recomputing only coupled victims) grows
/// with path length, while short-path problems are dominated by its
/// fixed patching and marking overheads. Pinned by the gap in the
/// committed scenario sweep (`BENCH_sweep.json`, random placements):
/// every 8×8 cell sits at `h̄ ≤ 6.66` with the full pass ahead
/// (`clustered-8x8-d200-s1`, `h̄` 6.66: delta 11% and bounded 2%
/// slower), every 12×12 cell at `h̄ ≥ 8.70` with the delta side ahead
/// (`clustered-12x12-d50-s1`, `h̄` 8.70: full 35% slower than the
/// delta, 65% slower than the bounded peek). The three constants are
/// the hybrid route rule, [`Evaluator::prefers_full_peeks`].
const FULL_PASS_MAX_HOPS: f64 = 7.0;
/// Occupancy concentration from which hub workloads go to the delta
/// side early: the incumbent's worst edge sits on the hub, so moves that
/// do not touch it reject through the structural bound at near-zero
/// cost. Pinned between `mpeg-like-6x6-d100-s2` (concentration 1.48:
/// bounded 30% slower than full) and `mpeg-like-8x8-d100-s2` (1.62: full
/// 3% slower than bounded); `hotspot-8x8-d100-s1` (1.71) has full 43%
/// slower.
const HUB_CONCENTRATION: f64 = 1.5;
/// `h̄` floor of the hub exception: below it, the bound-then-verify
/// overheads still beat what rejection saves. Pinned between
/// `mpeg-like-6x6-d50-s2` (`h̄` 4.49, concentration 1.84: bounded 10%
/// slower than full) and `hotspot-6x6-d100-s1` (`h̄` 4.60, concentration
/// 1.91: full 39% slower than bounded).
const HUB_MIN_HOPS: f64 = 4.5;

impl Evaluator {
    /// Occupancy concentration of `mapping`, `(Σk²/Σk) / (Σk/tiles)`
    /// over the routers' occupancy counts `k` (the path hops on each
    /// tile, read from the path table): the size-biased occupancy of the
    /// router a random hop sits on, relative to the plain mean. ≈1 for
    /// evenly spread traffic, ≫1 for hub workloads whose worst-case edge
    /// lives on one hot router. `Σk²` is folded in tile order.
    ///
    /// # Panics
    ///
    /// Panics if `mapping` does not match the topology.
    #[must_use]
    pub fn occupancy_concentration(&self, mapping: &Mapping) -> f64 {
        let mut occupancy = vec![0usize; self.tables.0.tile_count];
        for p in self.edge_paths(mapping) {
            for hop in &self.path(p).hops {
                occupancy[hop.tile as usize] += 1;
            }
        }
        let hops = occupancy.iter().sum::<usize>() as f64;
        let tiles = self.tables.0.tile_count.max(1) as f64;
        let sum_sq: f64 = occupancy.iter().map(|&k| (k as f64).powi(2)).sum();
        let mean_occ = hops / tiles;
        // Size-biased mean occupancy E_sb[k] = Σk²/Σk: the expected
        // list length at the router a uniformly random hop sits on.
        let biased_occ = if hops > 0.0 { sum_sq / hops } else { 0.0 };
        if mean_occ > 0.0 {
            biased_occ / mean_occ
        } else {
            0.0
        }
    }

    /// The hybrid SNR-peek route of a cursor standing on `mapping`:
    /// `true` sends every peek to a full scratch re-evaluation, `false`
    /// to the delta side (the exact delta, or the bound-then-verify
    /// peek in improving scans). The engine decides it once per cursor —
    /// when the cursor is seated and after every commit — so no peek
    /// pays for routing. With the mean path length `h̄ = Σ hops / edges`,
    ///
    /// `full ⇔ h̄ < 7.0 ∧ ¬(concentration ≥ 1.5 ∧ h̄ ≥ 4.5)`
    ///
    /// ([`Evaluator::occupancy_concentration`]), both read off the path
    /// table. Every route scores each peek bit-identically, so the rule
    /// only changes what a peek costs — which, at equal budget, changes
    /// how far a run gets.
    ///
    /// # Panics
    ///
    /// Panics if `mapping` does not match the topology.
    #[must_use]
    pub fn prefers_full_peeks(&self, mapping: &Mapping) -> bool {
        let hops: usize = self
            .edge_paths(mapping)
            .map(|p| self.path(p).hops.len())
            .sum();
        let mean_hops = hops as f64 / self.edge_count().max(1) as f64;
        mean_hops < FULL_PASS_MAX_HOPS
            && !(mean_hops >= HUB_MIN_HOPS
                && self.occupancy_concentration(mapping) >= HUB_CONCENTRATION)
    }
}

/// Reusable buffers for delta evaluation.
///
/// One scratch serves any number of sequential
/// [`Evaluator::evaluate_delta_with`] calls; the engine's batched scans
/// draw one from each worker's sticky scratch slot (built once per
/// worker lifetime — see [`crate::parallel`]). All buffers use
/// epoch-stamped marks, so reuse never requires clearing.
#[derive(Debug, Default, Clone)]
pub struct DeltaScratch {
    epoch: u32,
    /// Edges incident to a moved task (their paths change).
    moved: Vec<usize>,
    moved_mark: Vec<u32>,
    /// Per edge (dense): its new path index (valid where moved).
    new_path: Vec<usize>,
    /// Per edge (dense): length of the bitwise-shared head between its
    /// old and new paths (valid where moved).
    head_len: Vec<u32>,
    /// The moved edges' accumulations along their new paths, one run
    /// per moved edge in `moved` order (the kernel re-sums moved
    /// victims first, in that order); filled at `-∞` and copied by the
    /// commit into each moved edge's row.
    moved_acc: Vec<f64>,
    /// Victims whose noise changes; the moved edges come first, in
    /// `moved` order.
    affected: Vec<usize>,
    affected_mark: Vec<u32>,
    /// Per edge (dense): the affected victim's new noise (valid where
    /// affected); the commit derives its SNR from it.
    new_noise: Vec<f64>,
    /// Per (edge, hop), at the state's slot `edge * max_hops + hop`:
    /// the kernel's memo of updated accumulations (valid for every
    /// dirty hop once the kernel has run to completion). Only hops the
    /// move keeps use it; the commit writes each dirty one into its
    /// slot.
    acc_new: Vec<f64>,
    /// The hop is dirty this epoch: some changed occupancy couples
    /// into it.
    acc_mark: Vec<u32>,
    /// Under a finite threshold, where the memo fills lazily: `acc_new`
    /// at this flat index has been computed this epoch.
    acc_done: Vec<u32>,
    /// Kept victim hops needing recomputation: `(edge, hop, tile,
    /// pair)`.
    dirty_hops: Vec<(u32, u32, u32, u16)>,
    /// Tiles whose occupancy changes, with patched hop lists and the
    /// changed occupancies (old removals + new insertions) there.
    tile_mark: Vec<u32>,
    tile_slot: Vec<u32>,
    patched_tiles: Vec<usize>,
    patched_lists: Vec<Vec<Occ>>,
    changed_occs: Vec<Vec<(u32, u16)>>,
}

impl DeltaScratch {
    /// Readies the scratch for a problem of this shape and starts a new
    /// epoch.
    fn begin(&mut self, edges: usize, tiles: usize, flat_hops: usize) {
        if self.moved_mark.len() < edges {
            self.moved_mark.resize(edges, 0);
            self.affected_mark.resize(edges, 0);
            self.new_path.resize(edges, 0);
            self.head_len.resize(edges, 0);
            self.new_noise.resize(edges, 0.0);
        }
        if self.tile_mark.len() < tiles {
            self.tile_mark.resize(tiles, 0);
            self.tile_slot.resize(tiles, 0);
        }
        if self.acc_mark.len() < flat_hops {
            self.acc_mark.resize(flat_hops, 0);
            self.acc_done.resize(flat_hops, 0);
            self.acc_new.resize(flat_hops, 0.0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale marks could collide, so reset them all.
            self.moved_mark.fill(0);
            self.affected_mark.fill(0);
            self.tile_mark.fill(0);
            self.acc_mark.fill(0);
            self.acc_done.fill(0);
            self.epoch = 1;
        }
        self.moved.clear();
        self.moved_acc.clear();
        self.affected.clear();
        self.patched_tiles.clear();
        self.dirty_hops.clear();
    }

    fn is_moved(&self, e: usize) -> bool {
        self.moved_mark[e] == self.epoch
    }

    fn is_affected(&self, e: usize) -> bool {
        self.affected_mark[e] == self.epoch
    }

    fn mark_affected(&mut self, e: usize) {
        if self.affected_mark[e] != self.epoch {
            self.affected_mark[e] = self.epoch;
            self.affected.push(e);
        }
    }

    /// Whether the occupancy `(e, h)` is removed by this move: `e`
    /// moved and `h` beyond the bitwise-shared head.
    fn occ_removed(&self, e: usize, h: usize) -> bool {
        self.moved_mark[e] == self.epoch && h >= self.head_len[e] as usize
    }

    fn slot_of(&self, tile: usize) -> usize {
        debug_assert_eq!(self.tile_mark[tile], self.epoch);
        self.tile_slot[tile] as usize
    }
}

/// Independent accumulators of [`lane_min`].
const LANES: usize = 8;

/// One compare-select step of every minimum here: `x` if it is below
/// `acc`, else `acc`. Ties keep the accumulator, as a sequential
/// `fold(.., f64::min)` does, and so does a NaN `x`.
#[inline(always)]
fn lower(acc: f64, x: f64) -> f64 {
    if x < acc {
        x
    } else {
        acc
    }
}

/// `x`, or a NaN when `skip` — which no [`lower`] step adopts: how a
/// [`lane_min`] caller leaves an element out without a branch (a
/// branch per element would mispredict on every moved edge).
#[inline(always)]
fn skip_if(skip: bool, x: f64) -> f64 {
    f64::from_bits(x.to_bits() | u64::from(skip).wrapping_neg())
}

/// The minimum of `from` and `value(i)` for `i` in `0..n`: the one
/// min-scan of the loss family (worst-case insertion loss) and of the
/// SNR delta's unaffected edges. Element `i` goes to lane `i % LANES`,
/// whose chains of [`lower`] are independent, so the scan is bound by
/// its loads rather than by one compare's latency per element; the lanes
/// then fold from `from`, lowest first. Callers skip elements with
/// [`skip_if`].
///
/// The result equals the sequential `fold(from, f64::min)` bit for bit
/// whenever no two compared values tie with different bits: distinct
/// finite values have a unique minimum, and the one such tie, `+0.0`
/// against `-0.0`, resolves to `from` when `from` is `+0.0` (no element
/// can lower it unless negative). Insertion losses fold from `+0.0`.
/// SNRs fold from `+∞` and are never `-0.0` (`10·log10` of a positive
/// ratio is not, and the SNR ceiling is validated positive).
#[inline(always)]
fn lane_min(from: f64, n: usize, value: impl Fn(usize) -> f64) -> f64 {
    let mut lanes = [from; LANES];
    let whole = n - n % LANES;
    for base in (0..whole).step_by(LANES) {
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane = lower(*lane, value(base + j));
        }
    }
    for (lane, i) in lanes.iter_mut().zip(whole..n) {
        *lane = lower(*lane, value(i));
    }
    lanes.into_iter().fold(from, lower)
}

impl Evaluator {
    /// The SNR cursor seat: one full pass ([`Evaluator::evaluate_into`]'s
    /// own kernel), whose occupancies, accumulations, losses, SNRs and
    /// worst cases are laid out per edge and per tile as the caches
    /// incremental scoring needs. The resulting metrics are the
    /// full pass's, so identical to [`Evaluator::evaluate`].
    ///
    /// # Panics
    ///
    /// Panics if `mapping` does not match the topology (as
    /// [`Evaluator::evaluate`] does).
    #[must_use]
    pub fn init_state(&self, mapping: &Mapping) -> EvalState {
        let path_of_edge: Vec<usize> = self.edge_paths(mapping).collect();
        // Accumulations the pass skips, and slots past a path's end, are
        // an exact `+0.0`.
        let mut acc = vec![0.0f64; path_of_edge.len() * self.tables.0.max_hops];
        let mut scratch = EvalScratch::default();
        let summary = self
            .full_pass(mapping, None, &mut scratch, f64::NEG_INFINITY, |o, a| {
                acc[self.acc_slot(o.edge as usize, o.hop as usize)] = a;
            })
            .expect("a -∞ threshold never rejects");
        // A fresh scratch is sized exactly to this problem, so its
        // per-edge losses move into the state as they are.
        let EvalScratch {
            tile_offset,
            occ,
            noise,
            il,
            gain,
            ..
        } = scratch;
        let tile_hops = tile_offset
            .windows(2)
            .map(|w| occ[w[0] as usize..w[1] as usize].to_vec())
            .collect();
        let snr = gain
            .iter()
            .zip(&noise)
            .map(|(&g, &n)| self.snr_of(g, n))
            .collect();
        EvalState {
            loss: LossState {
                path_of_edge,
                il,
                worst_il: summary.worst_case_il.0,
            },
            acc,
            snr,
            tile_hops,
            worst_snr: summary.worst_case_snr.0,
        }
    }

    /// The loss cursor seat: per-edge paths and insertion losses plus
    /// the worst case, in `O(edges)` (see [`LossState`]). `worst_il` is
    /// [`Evaluator::worst_case_il`]'s scan.
    pub(crate) fn init_loss_state(&self, mapping: &Mapping) -> LossState {
        let mut state = LossState::default();
        self.reseat_loss_state(&mut state, mapping);
        state
    }

    /// [`Evaluator::init_loss_state`] into a used state's buffers: the
    /// seat a loss cursor takes when it moves to a new mapping, with no
    /// allocation once the buffers fit the edge count.
    pub(crate) fn reseat_loss_state(&self, state: &mut LossState, mapping: &Mapping) {
        state.path_of_edge.clear();
        state.path_of_edge.extend(self.edge_paths(mapping));
        state.il.clear();
        state
            .il
            .extend(state.path_of_edge.iter().map(|&p| self.tables.0.path_db[p]));
        let il = &state.il[..];
        state.worst_il = lane_min(0.0, il.len(), |e| il[e]);
    }

    /// The worst-case insertion loss of `mapping` (paper Eq. 3) from
    /// the loss table alone, in `O(edges)` with no crosstalk pass and no
    /// allocation — all a loss-family objective scores. The loss seat's
    /// min-scan over the edges' path losses, so the result is
    /// bit-identical to [`Evaluator::evaluate_into`]'s `worst_case_il`.
    ///
    /// # Panics
    ///
    /// Panics if `mapping` does not match the topology.
    #[must_use]
    pub fn worst_case_il(&self, mapping: &Mapping) -> Db {
        assert_eq!(
            mapping.tile_count(),
            self.tables.0.tile_count,
            "mapping built for a different topology"
        );
        let ends = &self.edge_endpoints[..];
        Db(lane_min(0.0, ends.len(), |e| {
            let (s, d) = ends[e];
            self.tables.0.path_db
                [mapping.tile_of_task(s).0 * self.tables.0.tile_count + mapping.tile_of_task(d).0]
        }))
    }

    /// Per edge, in edge order: the index of its path under `mapping`
    /// (`src_tile × tiles + dst_tile`) — the first step of both state
    /// seats and of [`Evaluator::worst_case_il`].
    fn edge_paths<'a>(&'a self, mapping: &'a Mapping) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(
            mapping.tile_count(),
            self.tables.0.tile_count,
            "mapping built for a different topology"
        );
        self.edge_endpoints.iter().map(|&(s, d)| {
            mapping.tile_of_task(s).0 * self.tables.0.tile_count + mapping.tile_of_task(d).0
        })
    }

    /// Where hop `hop` of edge `edge` sits in [`EvalState`]'s `acc` (and
    /// the kernel's memo): row `edge`, at the fixed stride `max_hops`.
    fn acc_slot(&self, edge: usize, hop: usize) -> usize {
        edge * self.tables.0.max_hops + hop
    }

    pub(super) fn path(&self, idx: usize) -> &PathInfo {
        self.tables.0.paths[idx]
            .as_ref()
            .expect("distinct tasks map to distinct tiles")
    }

    /// Per-edge SNR from total path gain and accumulated noise, matching
    /// the full pass formula (ceiling when noise-free, clamped).
    pub(super) fn snr_of(&self, total_gain: f64, noise: f64) -> f64 {
        let snr = if noise > 0.0 {
            10.0 * (total_gain / noise).log10()
        } else {
            self.tables.0.snr_ceiling.0
        };
        snr.min(self.tables.0.snr_ceiling.0)
    }

    /// Whether aggressor edge `ae` (port pair `a_pair`) contributes
    /// noise to victim edge `ve` (port pair `v_pair`) at a shared router
    /// — the full pass's same-source exclusion plus the zero-gain skip.
    fn interacts(&self, ve: usize, v_pair: u16, ae: usize, a_pair: u16) -> bool {
        ae != ve
            && self.edge_endpoints[ae].0 != self.edge_endpoints[ve].0
            && (self.tables.0.row_mask[v_pair as usize] >> a_pair) & 1 != 0
    }

    /// One router's aggressor accumulation for victim edge `ve` (hop
    /// port pair `v_pair`), iterating `hops_here` in list order — the
    /// shared inner loop of the full and incremental passes. Entries
    /// carry pair and prefix inline, so no path lookups happen here.
    pub(super) fn aggressor_sum(&self, ve: usize, v_pair: u16, hops_here: &[Occ]) -> f64 {
        let v_src = self.edge_endpoints[ve].0;
        self.aggressor_sum_packed(ve as u32, v_pair, v_src as u16, hops_here)
    }

    /// [`Evaluator::aggressor_sum`] with the victim's identity already
    /// packed — the form the scratch-reusing full pass uses, where the
    /// victim's own occupancy entry carries everything needed.
    ///
    /// Branch-free: excluded entries (the victim itself, and every
    /// stream of the victim's source task) contribute an exact `+0.0`
    /// via a multiply-select, which is bit-identical to skipping them
    /// (all terms are non-negative, so `acc + 0.0 == acc` to the bit).
    /// The exclusion tests run entirely on the entries' inline fields —
    /// no lookups leave the occupancy list.
    #[inline]
    pub(super) fn aggressor_sum_packed(
        &self,
        ve: u32,
        v_pair: u16,
        v_src: u16,
        hops_here: &[Occ],
    ) -> f64 {
        let row = &self.tables.0.interaction[v_pair as usize];
        let mut acc = 0.0;
        for occ in hops_here {
            let excluded = (occ.edge == ve) | (occ.src == v_src);
            let select = f64::from(u8::from(!excluded));
            acc += occ.prefix * row[occ.pair as usize] * select;
        }
        acc
    }

    /// Incrementally scores `mv` against `state` (which must describe
    /// `mapping`) without committing anything. Allocates a fresh
    /// [`DeltaScratch`]; hot paths should hold one and call
    /// [`Evaluator::evaluate_delta_with`].
    ///
    /// # Panics
    ///
    /// Panics if the move is out of range for `mapping` (see
    /// [`Move::positions`]).
    #[must_use]
    pub fn evaluate_delta(&self, state: &EvalState, mapping: &Mapping, mv: Move) -> ScoreDelta {
        let mut scratch = DeltaScratch::default();
        self.evaluate_delta_with(state, mapping, mv, &mut scratch)
    }

    /// [`Evaluator::evaluate_delta`] with caller-provided buffers.
    ///
    /// # Panics
    ///
    /// Panics if the move is out of range for `mapping`.
    #[must_use]
    pub fn evaluate_delta_with(
        &self,
        state: &EvalState,
        mapping: &Mapping,
        mv: Move,
        scratch: &mut DeltaScratch,
    ) -> ScoreDelta {
        self.exact_snr_delta(state, mapping, mv, scratch)
    }

    /// Loss-objective fast path: the new worst-case insertion loss
    /// after `mv`, plus the number of moved edges (the delta's honest
    /// cost). Insertion loss depends only on each edge's own path —
    /// no crosstalk recomputation is involved — so this runs in
    /// `O(moved + edges)` with a handful of table lookups and is one
    /// to two orders of magnitude cheaper than a full evaluation.
    ///
    /// The returned loss is bit-identical to
    /// `evaluate(mapping.with_move(mv)).worst_case_il`.
    ///
    /// # Panics
    ///
    /// Panics if the move is out of range for `mapping`.
    #[must_use]
    pub fn evaluate_delta_loss(
        &self,
        state: &EvalState,
        mapping: &Mapping,
        mv: Move,
        scratch: &mut DeltaScratch,
    ) -> (Db, usize) {
        self.loss_delta(&state.loss, mapping, mv, scratch)
    }

    /// [`Evaluator::evaluate_delta_loss`] on a loss state.
    pub(crate) fn loss_delta(
        &self,
        state: &LossState,
        mapping: &Mapping,
        mv: Move,
        scratch: &mut DeltaScratch,
    ) -> (Db, usize) {
        if !self.mark_moved(mapping, mv, scratch, 0) {
            return (state.worst_case_il(), 0);
        }
        (Db(self.loss_worst_il(state, scratch)), scratch.moved.len())
    }

    /// The shared first pass of every delta (both loss peeks and the SNR
    /// kernel): starts a scratch epoch sized for `flat_hops` per-hop
    /// marks (none for a loss delta), marks the edges `mv` moves and
    /// records their new paths in `scratch`. Returns `false` for a
    /// neutral move (free↔free or identity: nothing moves, the old
    /// worst cases stand).
    fn mark_moved(
        &self,
        mapping: &Mapping,
        mv: Move,
        scratch: &mut DeltaScratch,
        flat_hops: usize,
    ) -> bool {
        let edges = self.edge_endpoints.len();
        let tasks = mapping.task_count();
        scratch.begin(edges, self.tables.0.tile_count, flat_hops);

        let (a, b) = mv.positions(mapping);
        if a == b || a >= tasks || edges == 0 {
            return false;
        }
        let perm = mapping.permutation();
        let task_b = if b < tasks { Some(b) } else { None };
        let new_tile = |task: usize| -> usize {
            if task == a {
                perm[b].0
            } else if Some(task) == task_b {
                perm[a].0
            } else {
                perm[task].0
            }
        };
        for &t in [Some(a), task_b].iter().flatten() {
            for &e in &self.task_edges[t] {
                if scratch.moved_mark[e] != scratch.epoch {
                    scratch.moved_mark[e] = scratch.epoch;
                    scratch.moved.push(e);
                    let (s, d) = self.edge_endpoints[e];
                    scratch.new_path[e] = new_tile(s) * self.tables.0.tile_count + new_tile(d);
                }
            }
        }
        true
    }

    /// The exact new worst-case insertion loss after the move marked in
    /// `scratch`: the minimum over every edge, moved edges on their new
    /// paths — the one scan both loss peeks, both commits and the SNR
    /// kernel take. The unmoved edges' minimum is the old worst case
    /// when no moved edge carries it (the worst edge stays), and
    /// otherwise one [`lane_min`] over the losses with the moved edges
    /// skipped; the moved edges' new losses fold in after it. Every
    /// order gives the same bits (see [`lane_min`]).
    fn loss_worst_il(&self, state: &LossState, scratch: &DeltaScratch) -> f64 {
        let worst_moved = scratch.moved.iter().any(|&e| state.il[e] <= state.worst_il);
        let kept = if worst_moved {
            let n = self.edge_endpoints.len();
            let (il, marks, epoch) = (&state.il[..n], &scratch.moved_mark[..n], scratch.epoch);
            lane_min(0.0, n, |e| skip_if(marks[e] == epoch, il[e]))
        } else {
            state.worst_il
        };
        scratch.moved.iter().fold(kept, |w, &e| {
            lower(w, self.tables.0.path_db[scratch.new_path[e]])
        })
    }

    /// Bound-then-verify loss peek: scores `mv` only as far as needed to
    /// decide whether its new worst-case insertion loss can exceed
    /// `threshold` — the loss-family analogue of
    /// [`Evaluator::evaluate_delta_bounded`], used by the loss-based
    /// objectives' improving-only scans.
    ///
    /// Insertion loss is per-edge (no coupling), so the new worst case
    /// is `min(min over moved edges of their new IL, min over unmoved
    /// edges of their old IL)`. Two admissible upper bounds reject most
    /// non-improving moves after the `O(moved)` marking pass alone,
    /// skipping the exhaustive `O(edges)` scan:
    ///
    /// 1. **Moved-minimum bound** — the new worst case cannot exceed
    ///    the minimum new IL over the moved edges;
    /// 2. **Structural bound** — when no moved edge carries the current
    ///    worst-case loss, the (unchanged) worst edge still bounds the
    ///    new worst case at `state.worst_il`; with the threshold at the
    ///    cursor score this rejects every move that does not touch the
    ///    worst edge.
    ///
    /// If neither bound fires, the returned
    /// [`BoundedLossDelta::Exact`] is bit-identical to
    /// [`Evaluator::evaluate_delta_loss`] — accepted moves always carry
    /// exact scores, so greedy selection over bounded peeks matches
    /// selection over exact peeks.
    ///
    /// # Panics
    ///
    /// Panics if the move is out of range for `mapping`.
    #[must_use]
    pub fn evaluate_delta_loss_bounded(
        &self,
        state: &EvalState,
        mapping: &Mapping,
        mv: Move,
        scratch: &mut DeltaScratch,
        threshold: Db,
    ) -> BoundedLossDelta {
        self.loss_delta_bounded(&state.loss, mapping, mv, scratch, threshold)
    }

    /// [`Evaluator::evaluate_delta_loss_bounded`] on a loss state.
    pub(crate) fn loss_delta_bounded(
        &self,
        state: &LossState,
        mapping: &Mapping,
        mv: Move,
        scratch: &mut DeltaScratch,
        threshold: Db,
    ) -> BoundedLossDelta {
        if !self.mark_moved(mapping, mv, scratch, 0) {
            // Neutral move: the exact value is free.
            return BoundedLossDelta::Exact {
                new_worst_il: state.worst_case_il(),
                moved_edges: 0,
            };
        }
        // Admissible bound, O(moved): the new worst case is at most the
        // minimum new IL over moved edges, and — when the current worst
        // edge is untouched — at most the (unchanged) old worst case.
        let mut bound = f64::INFINITY;
        let mut worst_edge_moved = false;
        for &e in &scratch.moved {
            bound = bound.min(self.tables.0.path_db[scratch.new_path[e]]);
            if state.il[e] <= state.worst_il {
                worst_edge_moved = true;
            }
        }
        if !worst_edge_moved {
            bound = bound.min(state.worst_il);
        }
        if bound <= threshold.0 {
            return BoundedLossDelta::Rejected {
                bound: Db(bound),
                cost: scratch.moved.len(),
            };
        }
        // Verify: the exhaustive scan `evaluate_delta_loss` runs
        // (bit-identical exact value).
        BoundedLossDelta::Exact {
            new_worst_il: Db(self.loss_worst_il(state, scratch)),
            moved_edges: scratch.moved.len(),
        }
    }

    /// Bound-then-verify SNR peek: scores `mv` only as far as needed to
    /// decide whether its new worst-case SNR can exceed `threshold`.
    ///
    /// Crosstalk can only *hurt* SNR, so two admissible upper bounds
    /// reject most non-improving moves long before the full delta:
    ///
    /// 1. **Structural bound** — the new worst case cannot exceed the
    ///    (unchanged) minimum SNR over unaffected edges; when the
    ///    current worst edge is not touched by the move, this rejects
    ///    after the marking pass alone, with zero noise recomputation.
    /// 2. **Running verify bound** — otherwise affected victims are
    ///    recomputed exactly, one at a time with *lazy* dirty-hop
    ///    accumulation, and the peek exits as soon as the running
    ///    minimum drops to the threshold (the minimum only decreases,
    ///    so rejection is sound).
    ///
    /// If no bound fires, the returned [`BoundedDelta::Exact`] is
    /// bit-identical to [`Evaluator::evaluate_delta`] — accepted moves
    /// always carry exact scores. This is what breaks the dense-
    /// placement parity ceiling: on a random VOPD/4×4 placement a swap
    /// couples into ~¾ of all communications, so the exact delta sits
    /// at parity with full evaluation, but most candidate moves cannot
    /// beat the incumbent and are rejected at a fraction of that cost.
    ///
    /// # Panics
    ///
    /// Panics if the move is out of range for `mapping`.
    #[must_use]
    pub fn evaluate_delta_bounded(
        &self,
        state: &EvalState,
        mapping: &Mapping,
        mv: Move,
        scratch: &mut DeltaScratch,
        threshold: Db,
    ) -> BoundedDelta {
        self.snr_delta(state, mapping, mv, scratch, threshold.0)
    }

    /// The kernel at `-∞`, which never rejects: the exact delta of the
    /// exact peek and the commit.
    fn exact_snr_delta(
        &self,
        state: &EvalState,
        mapping: &Mapping,
        mv: Move,
        scratch: &mut DeltaScratch,
    ) -> ScoreDelta {
        match self.snr_delta(state, mapping, mv, scratch, f64::NEG_INFINITY) {
            BoundedDelta::Exact(delta) => delta,
            BoundedDelta::Rejected { .. } => unreachable!("a -∞ threshold never rejects"),
        }
    }

    /// The one SNR delta kernel (see the module docs): scores `mv` as
    /// far as needed to decide whether its new worst-case SNR can
    /// exceed `threshold`, leaving the moved edges, patched lists, dirty
    /// accumulations, moved accumulations and affected noise in
    /// `scratch`. At `threshold = -∞` it never rejects, warms its memo
    /// in one linear pass and takes a single `log10`.
    ///
    /// Inlined into its two callers, so the `-∞` one compiles with the
    /// threshold tests folded away and a re-sum that only reads the
    /// memo.
    #[inline(always)]
    fn snr_delta(
        &self,
        state: &EvalState,
        mapping: &Mapping,
        mv: Move,
        scratch: &mut DeltaScratch,
        threshold: f64,
    ) -> BoundedDelta {
        let delta = |new_worst_il: f64, new_worst_snr: f64, affected_edges: usize| ScoreDelta {
            new_worst_il: Db(new_worst_il),
            new_worst_snr: Db(new_worst_snr),
            affected_edges,
        };
        if !self.delta_collect_moved(state, mapping, mv, scratch) {
            // Neutral move (free↔free or identity): nothing changes.
            return BoundedDelta::Exact(delta(state.loss.worst_il, state.worst_snr, 0));
        }
        self.delta_patch_and_mark(state, scratch);

        let exact = threshold == f64::NEG_INFINITY;
        let (worst_il, unaffected_snr) = self.delta_scan_il_and_unaffected_snr(state, scratch);
        if !exact && unaffected_snr <= threshold {
            return BoundedDelta::Rejected {
                bound: Db(unaffected_snr),
                cost: 0,
            };
        }
        if exact {
            // Every dirty accumulation will be read: compute them all
            // in one linear pass, so the re-sums below only read the
            // memo.
            for i in 0..scratch.dirty_hops.len() {
                let (v, vh, tile, pair) = scratch.dirty_hops[i];
                let slot = scratch.slot_of(tile as usize);
                scratch.acc_new[self.acc_slot(v as usize, vh as usize)] =
                    self.aggressor_sum(v as usize, pair, &scratch.patched_lists[slot]);
            }
        }

        // Verify: exact per-victim noise, tracking the affected minimum
        // in the linear ratio domain. Under a finite threshold each
        // *decrease* of the minimum takes one `log10` and runs the
        // early-exit test; at `-∞` no test can fire, so the single
        // `log10` waits for the end.
        let mut min_ratio = f64::INFINITY;
        let mut any_noise_free = false;
        for i in 0..scratch.affected.len() {
            let v = scratch.affected[i];
            let (noise, gain) = self.lazy_victim_noise(state, scratch, v, exact);
            scratch.new_noise[v] = noise;
            if noise > 0.0 {
                let ratio = gain / noise;
                if exact {
                    min_ratio = min_ratio.min(ratio);
                } else if ratio < min_ratio {
                    min_ratio = ratio;
                    let affected_snr = (10.0 * min_ratio.log10()).min(self.tables.0.snr_ceiling.0);
                    if affected_snr <= threshold {
                        return BoundedDelta::Rejected {
                            bound: Db(unaffected_snr.min(affected_snr)),
                            cost: i + 1,
                        };
                    }
                }
            } else {
                any_noise_free = true;
            }
        }

        // Survived every bound: `snr_of` is monotone non-decreasing in
        // gain/noise, so the minimum affected SNR is attained at the
        // minimum ratio; noise-free victims sit at the ceiling.
        let affected_snr = if min_ratio.is_finite() {
            (10.0 * min_ratio.log10()).min(self.tables.0.snr_ceiling.0)
        } else if any_noise_free {
            self.tables.0.snr_ceiling.0
        } else {
            f64::INFINITY
        };
        let worst_snr = unaffected_snr.min(affected_snr);
        debug_assert_eq!(
            worst_snr,
            self.canonical_worst_snr(state, scratch),
            "ratio-domain SNR selection diverged from the canonical scan"
        );
        BoundedDelta::Exact(delta(worst_il, worst_snr, scratch.affected.len()))
    }

    /// Memoized lazy accumulation for kept hop `flat` of victim `v`:
    /// hops marked dirty are recomputed (at most once per epoch)
    /// against the patched list at the hop's tile; clean hops read the
    /// cached state. `hop` is only read on a recompute. A `warm` memo
    /// already holds every dirty hop, so it is only read.
    #[inline]
    fn lazy_acc(
        &self,
        state: &EvalState,
        scratch: &mut DeltaScratch,
        flat: usize,
        v: usize,
        hop: &HopInfo,
        warm: bool,
    ) -> f64 {
        if scratch.acc_mark[flat] != scratch.epoch {
            return state.acc[flat];
        }
        if !warm && scratch.acc_done[flat] != scratch.epoch {
            let slot = scratch.slot_of(hop.tile as usize);
            let acc = self.aggressor_sum(v, hop.pair as u16, &scratch.patched_lists[slot]);
            scratch.acc_new[flat] = acc;
            scratch.acc_done[flat] = scratch.epoch;
        }
        scratch.acc_new[flat]
    }

    /// Exact `(noise, total gain)` of affected victim `v` against the
    /// patched occupancies, computing dirty accumulations on demand and
    /// summing in the canonical tile order of the full pass. With a
    /// `warm` memo (the kernel at `-∞`, see [`Evaluator::lazy_acc`]) a
    /// moved victim's accumulations along its new path are appended to
    /// `moved_acc` for the commit.
    #[inline(always)]
    fn lazy_victim_noise(
        &self,
        state: &EvalState,
        scratch: &mut DeltaScratch,
        v: usize,
        warm: bool,
    ) -> (f64, f64) {
        let base = self.acc_slot(v, 0);
        if scratch.is_moved(v) {
            let head = scratch.head_len[v] as usize;
            let path = self.path(scratch.new_path[v]);
            let run = scratch.moved_acc.len();
            if warm {
                scratch.moved_acc.resize(run + path.hops.len(), 0.0);
            }
            let mut noise = 0.0f64;
            for &h in &path.tile_order {
                let h = h as usize;
                let hop = &path.hops[h];
                let acc = if h < head {
                    // Shared-head hops are entrywise identical to the
                    // old path, so their cached slots still apply.
                    self.lazy_acc(state, scratch, base + h, v, hop, warm)
                } else {
                    let slot = scratch.slot_of(hop.tile as usize);
                    let hops_here = &scratch.patched_lists[slot];
                    if hops_here.len() >= 2 {
                        self.aggressor_sum(v, hop.pair as u16, hops_here)
                    } else {
                        0.0
                    }
                };
                if warm {
                    scratch.moved_acc[run + h] = acc;
                }
                noise += acc * hop.suffix;
            }
            (noise, path.total_gain)
        } else {
            let path = self.path(state.loss.path_of_edge[v]);
            let mut noise = 0.0f64;
            for &h in &path.tile_order {
                let hop = &path.hops[h as usize];
                let acc = self.lazy_acc(state, scratch, base + h as usize, v, hop, warm);
                noise += acc * hop.suffix;
            }
            (noise, path.total_gain)
        }
    }

    /// Commits `mv`: updates `mapping`, and patches `state`'s caches so
    /// they are bit-identical to a fresh [`Evaluator::init_state`] of
    /// the moved mapping (debug-asserted). Returns the delta that was
    /// applied.
    ///
    /// # Panics
    ///
    /// Panics if the move is out of range for `mapping`.
    pub fn apply_move(
        &self,
        state: &mut EvalState,
        mapping: &mut Mapping,
        mv: Move,
        scratch: &mut DeltaScratch,
    ) -> ScoreDelta {
        let delta = self.exact_snr_delta(state, mapping, mv, scratch);
        // The moved edges' paths and losses: the loss cursor's commit,
        // with the worst case the kernel's scan already found.
        self.commit_loss(&mut state.loss, scratch, delta.new_worst_il.0);

        if !scratch.moved.is_empty() {
            // Patched tile occupancies.
            for (slot, &tile) in scratch.patched_tiles.iter().enumerate() {
                state.tile_hops[tile].clear();
                state.tile_hops[tile].extend_from_slice(&scratch.patched_lists[slot]);
            }
            // Dirty accumulations, from the kernel's memo (at `-∞` it
            // holds every one).
            for &(v, vh, _, _) in &scratch.dirty_hops {
                let slot = self.acc_slot(v as usize, vh as usize);
                state.acc[slot] = scratch.acc_new[slot];
            }
            // Moved edges: the kernel's runs, in `moved` order, each
            // over its edge's whole row (a dirty shared-head hop gets
            // the memo's value again).
            debug_assert_eq!(scratch.affected[..scratch.moved.len()], scratch.moved[..]);
            let mut run = 0;
            for &e in &scratch.moved {
                let n = self.path(scratch.new_path[e]).hops.len();
                let row = &mut state.acc[self.acc_slot(e, 0)..self.acc_slot(e + 1, 0)];
                row[..n].copy_from_slice(&scratch.moved_acc[run..run + n]);
                row[n..].fill(0.0);
                run += n;
            }
            // Recomputed victims.
            for &v in &scratch.affected {
                let gain = self.path(state.loss.path_of_edge[v]).total_gain;
                state.snr[v] = self.snr_of(gain, scratch.new_noise[v]);
            }
        }
        state.worst_snr = delta.new_worst_snr.0;
        mapping.apply_move(mv);

        debug_assert!(
            self.state_matches_full_eval(state, mapping),
            "incremental state diverged from full evaluation after {mv:?}"
        );
        delta
    }

    /// The loss commit: the same marking pass and min-scan the loss
    /// peeks score with, then [`Evaluator::commit_loss`], then `mv`
    /// applied to `mapping`. Debug builds check the result against a
    /// fresh [`Evaluator::init_loss_state`] and a full evaluation.
    pub(crate) fn apply_loss_move(
        &self,
        state: &mut LossState,
        mapping: &mut Mapping,
        mv: Move,
        scratch: &mut DeltaScratch,
    ) {
        if self.mark_moved(mapping, mv, scratch, 0) {
            let worst_il = self.loss_worst_il(state, scratch);
            self.commit_loss(state, scratch, worst_il);
        }
        mapping.apply_move(mv);
        debug_assert!(
            self.loss_state_matches_full_eval(state, mapping),
            "loss state diverged from full evaluation after {mv:?}"
        );
    }

    /// Writes the move marked in `scratch` into `state`: each moved
    /// edge's new path and insertion loss, and `worst_il`, the new worst
    /// case its caller's scan found (the one commit of both cursor
    /// families).
    fn commit_loss(&self, state: &mut LossState, scratch: &DeltaScratch, worst_il: f64) {
        for &e in &scratch.moved {
            let p = scratch.new_path[e];
            state.path_of_edge[e] = p;
            state.il[e] = self.tables.0.path_db[p];
        }
        state.worst_il = worst_il;
    }

    /// Debug-only invariant of [`Evaluator::apply_loss_move`]: `state`
    /// equals a fresh loss seat of `mapping`, and its worst case is
    /// bit-identical to a full evaluation's.
    fn loss_state_matches_full_eval(&self, state: &LossState, mapping: &Mapping) -> bool {
        let fresh = self.init_loss_state(mapping);
        state.path_of_edge == fresh.path_of_edge
            && state.il == fresh.il
            && state.worst_il.to_bits() == fresh.worst_il.to_bits()
            && state.worst_il.to_bits() == self.evaluate(mapping).worst_case_il.0.to_bits()
    }

    /// Debug-only invariant: `state` equals a fresh seat of `mapping`,
    /// and so a full evaluation of it.
    fn state_matches_full_eval(&self, state: &EvalState, mapping: &Mapping) -> bool {
        let fresh = self.init_state(mapping);
        state.loss.path_of_edge == fresh.loss.path_of_edge
            && state.acc == fresh.acc
            && state.loss.il == fresh.loss.il
            && state.snr == fresh.snr
            && state.tile_hops == fresh.tile_hops
            && state.loss.worst_il == fresh.loss.worst_il
            && state.worst_snr == fresh.worst_snr
            && self.evaluate(mapping) == state.to_metrics()
    }

    /// Phase 1 of an SNR delta: the shared marking pass, then each
    /// moved edge becomes affected (moved edges first, in `moved`
    /// order) and records its bitwise-shared head length (XY routes
    /// with an unmoved source often keep their leading hops — identical
    /// tile, pair and prefix — which then need no patching at all).
    /// Returns `false` for neutral moves, where nothing changes.
    fn delta_collect_moved(
        &self,
        state: &EvalState,
        mapping: &Mapping,
        mv: Move,
        scratch: &mut DeltaScratch,
    ) -> bool {
        if !self.mark_moved(mapping, mv, scratch, state.acc.len()) {
            return false;
        }
        for i in 0..scratch.moved.len() {
            let e = scratch.moved[i];
            scratch.mark_affected(e);
            let old_hops = &self.path(state.loss.path_of_edge[e]).hops;
            let new_hops = &self.path(scratch.new_path[e]).hops;
            let head = old_hops
                .iter()
                .zip(new_hops)
                .take_while(|(o, n)| {
                    o.tile == n.tile && o.pair == n.pair && o.prefix.to_bits() == n.prefix.to_bits()
                })
                .count();
            scratch.head_len[e] = head as u32;
        }
        true
    }

    /// Phase 2 of a delta: patches the occupancy lists of every tile a
    /// moved edge really changes, and marks the kept victim hops some
    /// changed occupancy couples into (filling `dirty_hops` and the
    /// affected set).
    fn delta_patch_and_mark(&self, state: &EvalState, scratch: &mut DeltaScratch) {
        // Patch every tile that really changes: old-path hops beyond the
        // shared head are removals, new-path hops beyond it are
        // insertions.
        for i in 0..scratch.moved.len() {
            let e = scratch.moved[i];
            let src = self.edge_endpoints[e].0;
            let head = scratch.head_len[e] as usize;
            for hop in &self.path(state.loss.path_of_edge[e]).hops[head..] {
                self.touch_tile(state, scratch, hop.tile as usize);
                let slot = scratch.slot_of(hop.tile as usize);
                scratch.changed_occs[slot].push((e as u32, hop.pair as u16));
            }
            let new_path = self.path(scratch.new_path[e]);
            for (off, hop) in new_path.hops[head..].iter().enumerate() {
                self.touch_tile(state, scratch, hop.tile as usize);
                let slot = scratch.slot_of(hop.tile as usize);
                scratch.changed_occs[slot].push((e as u32, hop.pair as u16));
                scratch.patched_lists[slot].push(Occ {
                    edge: e as u32,
                    hop: (head + off) as u32,
                    pair: hop.pair as u16,
                    src: src as u16,
                    prefix: hop.prefix,
                });
            }
        }
        // One marking pass per patched tile: queue every kept victim
        // hop that some changed occupancy couples into, then restore the
        // canonical (edge, hop) order of the patched list.
        for si in 0..scratch.patched_tiles.len() {
            let tile = scratch.patched_tiles[si];
            for oi in 0..state.tile_hops[tile].len() {
                let occ = state.tile_hops[tile][oi];
                let v = occ.edge as usize;
                if scratch.occ_removed(v, occ.hop as usize) {
                    continue; // removed occupancies are not victims here
                }
                let coupled = (0..scratch.changed_occs[si].len()).any(|ci| {
                    let (ae, a_pair) = scratch.changed_occs[si][ci];
                    self.interacts(v, occ.pair, ae as usize, a_pair)
                });
                if !coupled {
                    continue;
                }
                let flat = self.acc_slot(v, occ.hop as usize);
                if scratch.acc_mark[flat] != scratch.epoch {
                    scratch.acc_mark[flat] = scratch.epoch;
                    scratch
                        .dirty_hops
                        .push((occ.edge, occ.hop, tile as u32, occ.pair));
                    if scratch.moved_mark[v] != scratch.epoch {
                        scratch.mark_affected(v);
                    }
                }
            }
            // Removal-only tiles are already in order (filtering keeps
            // it); only sort when insertions disturbed it.
            let list = &mut scratch.patched_lists[si];
            if !list.is_sorted_by_key(|o| (o.edge, o.hop)) {
                list.sort_unstable_by_key(|o| (o.edge, o.hop));
            }
        }
    }

    /// The worst-IL scan of the loss family plus the minimum SNR over
    /// *unaffected* edges — the structural part of every delta, both
    /// through [`lane_min`].
    fn delta_scan_il_and_unaffected_snr(
        &self,
        state: &EvalState,
        scratch: &DeltaScratch,
    ) -> (f64, f64) {
        let n = self.edge_endpoints.len();
        let (snr, marks, epoch) = (&state.snr[..n], &scratch.affected_mark[..n], scratch.epoch);
        let unaffected_snr = lane_min(f64::INFINITY, n, |e| skip_if(marks[e] == epoch, snr[e]));
        (self.loss_worst_il(&state.loss, scratch), unaffected_snr)
    }

    /// Debug-only reference: the worst SNR computed edge-by-edge with
    /// the canonical formula (what the single-log10 fast path must
    /// reproduce).
    fn canonical_worst_snr(&self, state: &EvalState, scratch: &DeltaScratch) -> f64 {
        let edges = self.edge_endpoints.len();
        let mut worst = f64::INFINITY;
        for e in 0..edges {
            let snr = if scratch.is_affected(e) {
                let gain = if scratch.is_moved(e) {
                    self.path(scratch.new_path[e]).total_gain
                } else {
                    self.path(state.loss.path_of_edge[e]).total_gain
                };
                self.snr_of(gain, scratch.new_noise[e])
            } else {
                state.snr[e]
            };
            worst = worst.min(snr);
        }
        if edges == 0 {
            worst = self.tables.0.snr_ceiling.0;
        }
        worst
    }

    /// Ensures `tile` has a patched list this epoch: clones the current
    /// occupancy minus *removed* occupancies (moved edges keep their
    /// bitwise-shared head entries) and resets its changed-occupancy
    /// log.
    fn touch_tile(&self, state: &EvalState, scratch: &mut DeltaScratch, tile: usize) {
        if scratch.tile_mark[tile] == scratch.epoch {
            return;
        }
        scratch.tile_mark[tile] = scratch.epoch;
        let slot = scratch.patched_tiles.len();
        scratch.tile_slot[tile] = slot as u32;
        scratch.patched_tiles.push(tile);
        while scratch.patched_lists.len() <= slot {
            scratch.patched_lists.push(Vec::new());
            scratch.changed_occs.push(Vec::new());
        }
        scratch.changed_occs[slot].clear();
        let mut list = std::mem::take(&mut scratch.patched_lists[slot]);
        list.clear();
        list.extend(
            state.tile_hops[tile]
                .iter()
                .filter(|occ| !scratch.occ_removed(occ.edge as usize, occ.hop as usize)),
        );
        scratch.patched_lists[slot] = list;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonoc_phys::{Length, PhysicalParameters};
    use phonoc_route::XyRouting;
    use phonoc_router::crux::crux_router;
    use phonoc_topo::Topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// VOPD on a 5×5 mesh: nine free tiles, so the random swaps include
    /// task-to-free-tile moves and neutral free-to-free ones.
    fn vopd() -> Evaluator {
        Evaluator::new(
            &phonoc_apps::benchmarks::vopd(),
            &Topology::mesh(5, 5, Length::from_mm(2.5)),
            &crux_router(),
            &XyRouting,
            &PhysicalParameters::default(),
        )
        .unwrap()
    }

    #[test]
    fn loss_commits_track_the_full_state_on_every_loss_field() {
        let ev = vopd();
        let mut rng = StdRng::seed_from_u64(3);
        let mut full_map = Mapping::random(16, 25, &mut rng);
        let mut loss_map = full_map.clone();
        let mut full = ev.init_state(&full_map);
        let mut loss = ev.init_loss_state(&loss_map);
        let mut scratch = DeltaScratch::default();
        for _ in 0..80 {
            assert_eq!(loss.path_of_edge, full.loss.path_of_edge);
            assert_eq!(loss.il, full.loss.il);
            assert_eq!(
                loss.worst_case_il().0.to_bits(),
                full.worst_case_il().0.to_bits()
            );
            let mv = full_map.random_swap_move(&mut rng);
            ev.apply_move(&mut full, &mut full_map, mv, &mut scratch);
            ev.apply_loss_move(&mut loss, &mut loss_map, mv, &mut scratch);
            assert_eq!(loss_map, full_map);
        }
    }

    /// The path losses of a 4×4 VOPD evaluator under `params`.
    fn path_losses(params: &PhysicalParameters) -> Vec<f64> {
        let ev = Evaluator::new(
            &phonoc_apps::benchmarks::vopd(),
            &Topology::mesh(4, 4, Length::from_mm(2.5)),
            &crux_router(),
            &XyRouting,
            params,
        )
        .unwrap();
        ev.tables
            .0
            .path_db
            .iter()
            .copied()
            .filter(|db| !db.is_nan())
            .collect()
    }

    /// The lane kernel against the sequential fold it replaced, in every
    /// build profile: random losses of Table I and of zero-loss
    /// parameter sets (every loss coefficient `0.0` or `-0.0`), mixed
    /// with drawn `0.0`s and `-0.0`s so a signed-zero tie shows, and
    /// random moved marks skipped as the verify scan skips them, at
    /// every length up to 40 and at 127 and 511; and from `+∞`, as the
    /// SNR scan folds, where no `-0.0` is drawn.
    #[test]
    fn lane_min_matches_the_sequential_fold_bit_for_bit() {
        use rand::Rng;
        let mut pool = path_losses(&PhysicalParameters::default());
        for zero in [0.0, -0.0] {
            for odd in [0.0, -0.0] {
                let params = PhysicalParameters::builder()
                    .crossing_loss(Db(zero))
                    .propagation_loss_per_cm(Db(odd))
                    .ppse_off_loss(Db(zero))
                    .ppse_on_loss(Db(odd))
                    .cpse_off_loss(Db(zero))
                    .cpse_on_loss(Db(odd))
                    .build();
                pool.extend(path_losses(&params));
            }
        }
        // Zero-loss tables sum to `+0.0`; `-0.0` is drawn directly.
        let bits = |x: f64| x.to_bits();
        assert!(pool.iter().any(|&x| bits(x) == bits(0.0)));
        let mut rng = StdRng::seed_from_u64(0x1A2E);
        let epoch = 7u32;
        for n in (0..=40).chain([127, 511]) {
            for round in 0..64 {
                // Early rounds draw mostly zeros, where a tie shows.
                let zeros = round < 16;
                let losses: Vec<f64> = (0..n)
                    .map(|_| match zeros {
                        true if rng.gen_bool(0.9) => [0.0, -0.0][rng.gen_range(0..2usize)],
                        _ => pool[rng.gen_range(0..pool.len())],
                    })
                    .collect();
                let marks: Vec<u32> = (0..n)
                    .map(|_| if rng.gen_bool(0.25) { epoch } else { 0 })
                    .collect();
                let fold = losses
                    .iter()
                    .zip(&marks)
                    .filter(|&(_, &m)| m != epoch)
                    .map(|(&x, _)| x)
                    .fold(0.0, f64::min);
                let lanes = lane_min(0.0, n, |e| skip_if(marks[e] == epoch, losses[e]));
                assert_eq!(bits(lanes), bits(fold), "{losses:?} skipping {marks:?}");
                let all = lane_min(0.0, n, |e| losses[e]);
                assert_eq!(bits(all), bits(losses.iter().copied().fold(0.0, f64::min)));
                if !zeros {
                    // From `+∞` (the SNR scan), with no `-0.0` to tie.
                    let inf = f64::INFINITY;
                    let kept = losses.iter().zip(&marks).filter(|&(_, &m)| m != epoch);
                    let fold = kept.map(|(&x, _)| x).fold(inf, f64::min);
                    let lanes = lane_min(inf, n, |e| skip_if(marks[e] == epoch, losses[e]));
                    assert_eq!(bits(lanes), bits(fold), "from +inf: {losses:?}");
                }
            }
        }
    }

    /// A loss cursor reseated into a used state's buffers is the state a
    /// fresh seat builds: paths, losses and worst-loss bits, also when
    /// the buffers come from a problem with more edges.
    #[test]
    fn reseating_a_used_loss_state_equals_a_fresh_seat() {
        let dvopd = Evaluator::new(
            &phonoc_apps::benchmarks::dvopd(),
            &Topology::mesh(6, 6, Length::from_mm(2.5)),
            &crux_router(),
            &XyRouting,
            &PhysicalParameters::default(),
        )
        .unwrap();
        let ev = vopd();
        let mut rng = StdRng::seed_from_u64(31);
        let mut scratch = DeltaScratch::default();
        let mut used_map = Mapping::random(32, 36, &mut rng);
        let mut state = dvopd.init_loss_state(&used_map);
        for (evaluator, tasks, tiles) in [(&dvopd, 32, 36), (&ev, 16, 25), (&ev, 16, 25)] {
            for _ in 0..20 {
                let target = Mapping::random(tasks, tiles, &mut rng);
                evaluator.reseat_loss_state(&mut state, &target);
                let fresh = evaluator.init_loss_state(&target);
                assert_eq!(state.path_of_edge, fresh.path_of_edge);
                let bits = |il: &[f64]| il.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&state.il), bits(&fresh.il));
                assert_eq!(state.worst_il.to_bits(), fresh.worst_il.to_bits());
                // Use the buffers before the next reseat.
                used_map = target;
                for _ in 0..5 {
                    let mv = used_map.random_swap_move(&mut rng);
                    evaluator.apply_loss_move(&mut state, &mut used_map, mv, &mut scratch);
                }
            }
        }
    }

    /// The first slot where `a` and `b` differ bit for bit (or the
    /// shorter length, if only the lengths differ).
    fn first_diff(a: &[f64], b: &[f64]) -> Option<usize> {
        let slot = a
            .iter()
            .zip(b)
            .position(|(x, y)| x.to_bits() != y.to_bits());
        slot.or((a.len() != b.len()).then(|| a.len().min(b.len())))
    }

    /// The commit's in-place patch, checked in every build profile
    /// (debug builds also run `apply_move`'s own cross-check): after
    /// each of 200 random commits on DVOPD 6×6, mesh and torus, the
    /// state equals a fresh seat bit for bit, including the zeroed
    /// slots past a shortened path's new end.
    #[test]
    fn commits_leave_the_state_a_fresh_seat_would_build() {
        for topology in [
            Topology::mesh(6, 6, Length::from_mm(2.5)),
            Topology::torus(6, 6, Length::from_mm(2.5)),
        ] {
            let ev = Evaluator::new(
                &phonoc_apps::benchmarks::dvopd(),
                &topology,
                &crux_router(),
                &XyRouting,
                &PhysicalParameters::default(),
            )
            .unwrap();
            let mut rng = StdRng::seed_from_u64(29);
            let mut mapping = Mapping::random(32, 36, &mut rng);
            let mut state = ev.init_state(&mapping);
            let mut scratch = DeltaScratch::default();
            let hops = |state: &EvalState| -> Vec<usize> {
                let paths = &state.loss.path_of_edge;
                paths.iter().map(|&p| ev.path(p).hops.len()).collect()
            };
            let mut shortened = 0;
            for step in 0..200 {
                let before = hops(&state);
                let mv = mapping.random_swap_move(&mut rng);
                ev.apply_move(&mut state, &mut mapping, mv, &mut scratch);
                let after = hops(&state);
                if before.iter().zip(&after).any(|(b, a)| a < b) {
                    shortened += 1;
                }
                let fresh = ev.init_state(&mapping);
                let at = format!("{} step {step} after {mv:?}", topology.kind());
                assert_eq!(first_diff(&state.acc, &fresh.acc), None, "acc, {at}");
                assert_eq!(first_diff(&state.snr, &fresh.snr), None, "snr, {at}");
                assert_eq!(state.tile_hops, fresh.tile_hops, "tile lists, {at}");
                assert_eq!(
                    state.worst_case_il().0.to_bits(),
                    fresh.worst_case_il().0.to_bits(),
                    "worst loss, {at}"
                );
                assert_eq!(
                    state.worst_case_snr().0.to_bits(),
                    fresh.worst_case_snr().0.to_bits(),
                    "worst SNR, {at}"
                );
            }
            assert!(
                shortened > 0,
                "no commit shortened a path on {}",
                topology.kind()
            );
        }
    }
}
