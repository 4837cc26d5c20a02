//! Incremental (move-based) evaluation: the delta path of the
//! [`Evaluator`].
//!
//! A [`Move`] perturbs at most two tiles, so only the communications
//! incident to the moved task(s) change their network paths. Everything
//! else can only change through *crosstalk*: a router on one of those
//! old or new paths gains or loses an aggressor. [`EvalState`] caches
//! per-edge noise/IL/SNR, the **per-(edge, hop) aggressor accumulation**
//! (`acc`) of every router visit, and per-router occupancy lists whose
//! entries carry the aggressor data (port pair, prefix gain) inline so
//! the hot loops never chase path pointers. The delta pass
//!
//! 1. collects the moved edges (via the evaluator's task→edges index)
//!    and trims each one to the hops that *really* change — XY routes
//!    from an unmoved source share a bitwise-identical head with the
//!    old path, which is skipped entirely,
//! 2. patches the occupancy lists of the changed tiles and marks a
//!    resident victim hop *dirty* only if a changed occupancy actually
//!    couples into it (nonzero interaction gain after the
//!    same-source/destination exclusions),
//! 3. recomputes just the dirty accumulations against the patched
//!    lists (a branch-free multiply-select loop: excluded or zero-gain
//!    entries contribute an exact `+0.0`), re-sums each affected
//!    victim's noise from its (mostly cached) accumulations, and
//! 4. re-derives the two worst cases with an `O(edges)` min-scan — in
//!    the peek path via a single `log10` (the affected minimum is
//!    selected in the linear ratio domain, where `log10`'s monotonicity
//!    makes the selection exact; debug builds verify against the
//!    canonical scan).
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
//!   which is exactly the expression and order of the full pass's
//!   tile-major loop;
//! * shared path heads are reused only when the old and new hops are
//!   entrywise identical (tile, port pair, and bitwise prefix), which
//!   holds by construction when the leading route segments coincide.
//!
//! The [`Evaluator::apply_move`] commit carries a debug assertion
//! comparing the updated state against a fresh full evaluation, and the
//! workspace property tests (`crates/phonoc-core/tests/`,
//! `tests/properties.rs`) pin the equality on random mappings and moves.

use super::{EvalScratch, EvalSummary, Evaluator, NetworkMetrics, PathInfo};
use crate::mapping::{Mapping, Move};
use crate::parallel;
use phonoc_phys::Db;

/// One occupancy of a router: edge `edge`'s hop `hop` traverses it with
/// port pair `pair`, arriving with linear gain `prefix`. Lists are kept
/// ascending by `(edge, hop)` — the full pass's insertion order. Shared
/// with the scratch-reusing full evaluator ([`super::EvalScratch`]), so
/// both passes run the same branch-free accumulate over the same entry
/// layout.
///
/// The edge's endpoint tasks ride along as packed `u16`s (the evaluator
/// asserts they fit at construction) so the inner accumulate loop runs
/// the same-source/destination exclusions without a gather into the
/// endpoint table.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub(super) struct Occ {
    pub(super) edge: u32,
    pub(super) hop: u32,
    pub(super) pair: u16,
    pub(super) src: u16,
    pub(super) dst: u16,
    pub(super) prefix: f64,
}

/// Mapping-dependent caches enabling incremental re-evaluation.
///
/// Build one with [`Evaluator::init_state`] (a full evaluation), then
/// score candidate moves with [`Evaluator::evaluate_delta`] and commit
/// them with [`Evaluator::apply_move`]. The state is tied to the
/// evaluator and mapping it was built from; the commit path keeps all
/// three in sync.
#[derive(Debug, Clone)]
pub struct EvalState {
    /// Per edge: index of its current path (`src_tile * tiles + dst`).
    path_of_edge: Vec<usize>,
    /// Flat index base per edge: hop `(e, h)` lives at
    /// `hop_offset[e] + h`; `hop_offset[edge_count]` is the total.
    hop_offset: Vec<usize>,
    /// Per (edge, hop): the ordered aggressor accumulation at that
    /// router, flat-indexed by `hop_offset`.
    acc: Vec<f64>,
    /// Per (edge, hop): the hop's suffix gain (exit → detector),
    /// flat-indexed.
    suffix: Vec<f64>,
    /// Per edge: accumulated linear crosstalk noise power
    /// (`Σ acc·suffix` in ascending tile order).
    noise: Vec<f64>,
    /// Per edge: insertion loss in dB (the path's `total_db`).
    il: Vec<f64>,
    /// Per edge: SNR in dB (derived from `noise`, clamped to ceiling).
    snr: Vec<f64>,
    /// Per tile: occupancies ascending by `(edge, hop)`.
    tile_hops: Vec<Vec<Occ>>,
    worst_il: f64,
    worst_snr: f64,
}

impl EvalState {
    /// Worst-case insertion loss (paper Eq. 3) of the cached mapping.
    #[must_use]
    pub fn worst_case_il(&self) -> Db {
        Db(self.worst_il)
    }

    /// Worst-case SNR (paper Eq. 4) of the cached mapping.
    #[must_use]
    pub fn worst_case_snr(&self) -> Db {
        Db(self.worst_snr)
    }

    /// Number of edges whose metrics are cached.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.noise.len()
    }

    /// Total router occupancies of the cached mapping (the sum of all
    /// path lengths) — the `Σ hops` term of the evaluation cost.
    #[must_use]
    pub fn hop_count(&self) -> usize {
        self.acc.len()
    }

    /// Materializes full [`NetworkMetrics`] from the cached state.
    #[must_use]
    pub fn to_metrics(&self) -> NetworkMetrics {
        NetworkMetrics {
            edges: (0..self.noise.len())
                .map(|e| super::EdgeMetrics {
                    edge: e,
                    insertion_loss: Db(self.il[e]),
                    snr: Db(self.snr[e]),
                })
                .collect(),
            worst_case_il: Db(self.worst_il),
            worst_case_snr: Db(self.worst_snr),
        }
    }
}

/// Outcome of incrementally scoring one [`Move`].
///
/// The two *new* worst cases are bit-identical to what a full
/// re-evaluation of the moved mapping would report; the *old* values
/// echo the state the delta was computed against. `affected_edges` is
/// the number of victims whose noise had to be re-derived — the honest
/// cost of the delta, which the engine uses for budget accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreDelta {
    /// Worst-case insertion loss before the move.
    pub old_worst_il: Db,
    /// Worst-case SNR before the move.
    pub old_worst_snr: Db,
    /// Worst-case insertion loss after the move.
    pub new_worst_il: Db,
    /// Worst-case SNR after the move.
    pub new_worst_snr: Db,
    /// Victim edges whose noise was recomputed (0 for neutral moves).
    pub affected_edges: usize,
}

impl ScoreDelta {
    /// Change in worst-case insertion loss (dB, new − old).
    #[must_use]
    pub fn il_delta(&self) -> f64 {
        self.new_worst_il.0 - self.old_worst_il.0
    }

    /// Change in worst-case SNR (dB, new − old).
    #[must_use]
    pub fn snr_delta(&self) -> f64 {
        self.new_worst_snr.0 - self.old_worst_snr.0
    }
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
/// delta, 65% slower than the bounded peek).
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

impl EvalState {
    /// Mean path length `h̄ = Σ hops / edges`: how many routers the
    /// average communication traverses.
    fn mean_path_hops(&self) -> f64 {
        self.hop_count() as f64 / self.edge_count().max(1) as f64
    }

    /// Occupancy concentration `(Σk²/Σk) / (Σk/tiles)` over the routers'
    /// occupancy counts `k`: the size-biased occupancy of the router a
    /// random hop sits on, relative to the plain mean. ≈1 for evenly
    /// spread traffic, ≫1 for hub workloads whose worst-case edge lives
    /// on one hot router. One `O(tiles)` pass.
    #[must_use]
    pub fn occupancy_concentration(&self) -> f64 {
        let hops = self.hop_count() as f64;
        let tiles = self.tile_hops.len().max(1) as f64;
        let sum_sq: f64 = self
            .tile_hops
            .iter()
            .map(|list| (list.len() as f64).powi(2))
            .sum();
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

    /// The hybrid SNR-peek route of a cursor standing on this state:
    /// `true` sends every peek to a full scratch re-evaluation, `false`
    /// to the delta side (the exact delta, or the bound-then-verify
    /// peek in improving scans). The engine decides it once per cursor —
    /// when the cursor is seated and after every commit — so no peek
    /// pays for routing:
    ///
    /// `full ⇔ h̄ < 7.0 ∧ ¬(concentration ≥ 1.5 ∧ h̄ ≥ 4.5)`.
    ///
    /// Every route scores bit-identically, so the rule can only change
    /// what a peek costs, never a score or a greedy selection.
    #[must_use]
    pub fn prefers_full_peeks(&self) -> bool {
        let hops = self.mean_path_hops();
        hops < FULL_PASS_MAX_HOPS
            && !(hops >= HUB_MIN_HOPS && self.occupancy_concentration() >= HUB_CONCENTRATION)
    }
}

/// Reusable buffers for delta evaluation.
///
/// One scratch serves any number of sequential
/// [`Evaluator::evaluate_delta_with`] calls; parallel batch entry points
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
    /// Per moved edge (parallel to `moved`): its accumulations along
    /// the new path.
    moved_acc: Vec<Vec<f64>>,
    /// Victims whose noise changes.
    affected: Vec<usize>,
    affected_mark: Vec<u32>,
    new_noise: Vec<f64>,
    new_snr: Vec<f64>,
    /// Per (edge, hop) flat index: updated accumulation (valid where
    /// `acc_mark` carries the current epoch). Flat indices refer to the
    /// *current* state layout, so only kept hops use them.
    acc_new: Vec<f64>,
    acc_mark: Vec<u32>,
    /// Lazy-recompute memo for the bound-then-verify path: `acc_new`
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
            self.new_snr.resize(edges, 0.0);
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

    /// Index of `e` within the `moved` list (moved edges only).
    fn moved_slot(&self, e: usize) -> usize {
        self.moved
            .iter()
            .position(|&m| m == e)
            .expect("edge is moved")
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

impl Evaluator {
    /// Full evaluation that also builds the caches incremental scoring
    /// needs. The resulting metrics are identical to
    /// [`Evaluator::evaluate`].
    ///
    /// # Panics
    ///
    /// Panics if `mapping` does not match the topology (as
    /// [`Evaluator::evaluate`] does).
    #[must_use]
    pub fn init_state(&self, mapping: &Mapping) -> EvalState {
        assert_eq!(
            mapping.tile_count(),
            self.tile_count,
            "mapping built for a different topology"
        );
        let edges = self.edge_endpoints.len();
        let path_of_edge: Vec<usize> = self
            .edge_endpoints
            .iter()
            .map(|&(s, d)| {
                let st = mapping.tile_of_task(s).0;
                let dt = mapping.tile_of_task(d).0;
                st * self.tile_count + dt
            })
            .collect();
        let edge_paths: Vec<&PathInfo> = path_of_edge.iter().map(|&p| self.path(p)).collect();
        let mut hop_offset = Vec::with_capacity(edges + 1);
        let mut total_hops = 0usize;
        for path in &edge_paths {
            hop_offset.push(total_hops);
            total_hops += path.hops.len();
        }
        hop_offset.push(total_hops);

        // Same insertion order as the full pass: edge-major, then hop.
        let mut suffix = vec![0.0f64; total_hops];
        let mut tile_hops: Vec<Vec<Occ>> = vec![Vec::new(); self.tile_count];
        for (e, path) in edge_paths.iter().enumerate() {
            let (src, dst) = self.edge_endpoints[e];
            for (h, hop) in path.hops.iter().enumerate() {
                suffix[hop_offset[e] + h] = hop.suffix;
                tile_hops[hop.tile].push(Occ {
                    edge: e as u32,
                    hop: h as u32,
                    pair: hop.pair as u16,
                    src: src as u16,
                    dst: dst as u16,
                    prefix: hop.prefix,
                });
            }
        }

        // Same accumulation order as the full pass: tiles ascending,
        // victims and aggressors in list order.
        let mut acc_store = vec![0.0f64; total_hops];
        let mut noise = vec![0.0f64; edges];
        for hops_here in &tile_hops {
            if hops_here.len() < 2 {
                continue;
            }
            for occ in hops_here {
                let (ve, vh) = (occ.edge as usize, occ.hop as usize);
                let acc = self.aggressor_sum(ve, occ.pair, hops_here);
                let flat = hop_offset[ve] + vh;
                acc_store[flat] = acc;
                noise[ve] += acc * suffix[flat];
            }
        }

        let mut il = Vec::with_capacity(edges);
        let mut snr = Vec::with_capacity(edges);
        let mut worst_il = 0.0f64;
        let mut worst_snr = f64::INFINITY;
        for (e, path) in edge_paths.iter().enumerate() {
            let edge_il = path.total_db;
            let edge_snr = self.snr_of(path.total_gain, noise[e]);
            worst_il = worst_il.min(edge_il);
            worst_snr = worst_snr.min(edge_snr);
            il.push(edge_il);
            snr.push(edge_snr);
        }
        if edges == 0 {
            worst_snr = self.snr_ceiling.0;
        }
        EvalState {
            path_of_edge,
            hop_offset,
            acc: acc_store,
            suffix,
            noise,
            il,
            snr,
            tile_hops,
            worst_il,
            worst_snr,
        }
    }

    pub(super) fn path(&self, idx: usize) -> &PathInfo {
        self.paths[idx]
            .as_ref()
            .expect("distinct tasks map to distinct tiles")
    }

    /// Per-edge SNR from total path gain and accumulated noise, matching
    /// the full pass formula (ceiling when noise-free, clamped).
    pub(super) fn snr_of(&self, total_gain: f64, noise: f64) -> f64 {
        let snr = if noise > 0.0 {
            10.0 * (total_gain / noise).log10()
        } else {
            self.snr_ceiling.0
        };
        snr.min(self.snr_ceiling.0)
    }

    /// Whether aggressor edge `ae` (port pair `a_pair`) contributes
    /// noise to victim edge `ve` (port pair `v_pair`) at a shared router
    /// — the full pass's exclusion rules plus the zero-gain skip.
    fn interacts(&self, ve: usize, v_pair: u16, ae: usize, a_pair: u16) -> bool {
        if ae == ve {
            return false;
        }
        let (v_src, v_dst) = self.edge_endpoints[ve];
        let (a_src, a_dst) = self.edge_endpoints[ae];
        if self.options.exclude_same_source && a_src == v_src {
            return false;
        }
        if self.options.exclude_same_destination && a_dst == v_dst {
            return false;
        }
        self.coupled[v_pair as usize][a_pair as usize]
    }

    /// One router's aggressor accumulation for victim edge `ve` (hop
    /// port pair `v_pair`), iterating `hops_here` in list order — the
    /// shared inner loop of the full and incremental passes. Entries
    /// carry pair and prefix inline, so no path lookups happen here.
    ///
    /// Branch-free: excluded entries contribute an exact `+0.0` via a
    /// multiply-select, which is bit-identical to skipping them (all
    /// terms are non-negative, so `acc + 0.0 == acc` to the bit). The
    /// exclusion tests run entirely on the entries' inline endpoint
    /// fields — no lookups leave the occupancy list.
    pub(super) fn aggressor_sum(&self, ve: usize, v_pair: u16, hops_here: &[Occ]) -> f64 {
        let (v_src, v_dst) = self.edge_endpoints[ve];
        self.aggressor_sum_packed(ve as u32, v_pair, v_src as u16, v_dst as u16, hops_here)
    }

    /// [`Evaluator::aggressor_sum`] with the victim's identity already
    /// packed — the form the scratch-reusing full pass uses, where the
    /// victim's own occupancy entry carries everything needed. The
    /// default exclusion configuration (same-source only) gets a
    /// specialized loop; both compute the identical ordered sum.
    #[inline]
    pub(super) fn aggressor_sum_packed(
        &self,
        ve: u32,
        v_pair: u16,
        v_src: u16,
        v_dst: u16,
        hops_here: &[Occ],
    ) -> f64 {
        let row = &self.interaction[v_pair as usize];
        let ex_src = self.options.exclude_same_source;
        let ex_dst = self.options.exclude_same_destination;
        let mut acc = 0.0;
        if ex_src & !ex_dst {
            for occ in hops_here {
                let excluded = (occ.edge == ve) | (occ.src == v_src);
                let select = f64::from(u8::from(!excluded));
                acc += occ.prefix * row[occ.pair as usize] * select;
            }
        } else {
            for occ in hops_here {
                let excluded = (occ.edge == ve)
                    | (ex_src & (occ.src == v_src))
                    | (ex_dst & (occ.dst == v_dst));
                let select = f64::from(u8::from(!excluded));
                acc += occ.prefix * row[occ.pair as usize] * select;
            }
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
        let (new_worst_il, new_worst_snr) = self.compute_delta(state, mapping, mv, scratch, false);
        ScoreDelta {
            old_worst_il: Db(state.worst_il),
            old_worst_snr: Db(state.worst_snr),
            new_worst_il: Db(new_worst_il),
            new_worst_snr: Db(new_worst_snr),
            affected_edges: scratch.affected.len(),
        }
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
        let edges = self.edge_endpoints.len();
        let tasks = mapping.task_count();
        scratch.begin(edges, self.tile_count, state.acc.len());

        let (a, b) = mv.positions(mapping);
        if a == b || a >= tasks || edges == 0 {
            return (Db(state.worst_il), 0);
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
                    scratch.new_path[e] = new_tile(s) * self.tile_count + new_tile(d);
                }
            }
        }
        let mut worst_il = 0.0f64;
        for e in 0..edges {
            let il = if scratch.is_moved(e) {
                self.path(scratch.new_path[e]).total_db
            } else {
                state.il[e]
            };
            worst_il = worst_il.min(il);
        }
        (Db(worst_il), scratch.moved.len())
    }

    /// Scores a batch of candidate moves in parallel (the R-PBLA
    /// admitted-list scan). Results are in input order; each worker
    /// reuses its sticky [`DeltaScratch`] slot, so the outcome is
    /// deterministic and bit-identical to a sequential loop.
    #[must_use]
    pub fn evaluate_delta_batch(
        &self,
        state: &EvalState,
        mapping: &Mapping,
        moves: &[Move],
    ) -> Vec<ScoreDelta> {
        parallel::parallel_map_with(moves, DeltaScratch::default, |scratch, &mv| {
            self.evaluate_delta_with(state, mapping, mv, scratch)
        })
    }

    /// Loss-objective fast path over a batch of moves (the IL-only
    /// admitted-list scan). Results are in input order; each worker
    /// reuses its sticky scratch slot, so the outcome is deterministic
    /// and bit-identical to a sequential
    /// [`Evaluator::evaluate_delta_loss`] loop.
    #[must_use]
    pub fn evaluate_delta_loss_batch(
        &self,
        state: &EvalState,
        mapping: &Mapping,
        moves: &[Move],
    ) -> Vec<(Db, usize)> {
        parallel::parallel_map_with(moves, DeltaScratch::default, |scratch, &mv| {
            self.evaluate_delta_loss(state, mapping, mv, scratch)
        })
    }

    /// Bound-then-verify loss peek: scores `mv` only as far as needed to
    /// decide whether its new worst-case insertion loss can exceed
    /// `threshold` — the loss-family analogue of
    /// [`Evaluator::evaluate_delta_bounded`], used by the laser-power
    /// objective's improving-only scans.
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
        let edges = self.edge_endpoints.len();
        let tasks = mapping.task_count();
        scratch.begin(edges, self.tile_count, state.acc.len());

        let (a, b) = mv.positions(mapping);
        if a == b || a >= tasks || edges == 0 {
            // Neutral move: the exact value is free.
            return BoundedLossDelta::Exact {
                new_worst_il: Db(state.worst_il),
                moved_edges: 0,
            };
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
                    scratch.new_path[e] = new_tile(s) * self.tile_count + new_tile(d);
                }
            }
        }
        // Admissible bound, O(moved): the new worst case is at most the
        // minimum new IL over moved edges, and — when the current worst
        // edge is untouched — at most the (unchanged) old worst case.
        let mut bound = f64::INFINITY;
        let mut worst_edge_moved = false;
        for &e in &scratch.moved {
            bound = bound.min(self.path(scratch.new_path[e]).total_db);
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
        // Verify: the exhaustive scan, with the same expressions as
        // `evaluate_delta_loss` (bit-identical exact value).
        let mut worst_il = 0.0f64;
        for e in 0..edges {
            let il = if scratch.is_moved(e) {
                self.path(scratch.new_path[e]).total_db
            } else {
                state.il[e]
            };
            worst_il = worst_il.min(il);
        }
        BoundedLossDelta::Exact {
            new_worst_il: Db(worst_il),
            moved_edges: scratch.moved.len(),
        }
    }

    /// [`Evaluator::evaluate_delta_loss_bounded`] over a batch of moves,
    /// all tested against the same threshold, in parallel. Results are
    /// in input order; each worker reuses its sticky scratch slot, so
    /// the outcome is deterministic and identical to a sequential loop.
    #[must_use]
    pub fn evaluate_delta_loss_bounded_batch(
        &self,
        state: &EvalState,
        mapping: &Mapping,
        moves: &[Move],
        threshold: Db,
    ) -> Vec<BoundedLossDelta> {
        parallel::parallel_map_with(moves, DeltaScratch::default, |scratch, &mv| {
            self.evaluate_delta_loss_bounded(state, mapping, mv, scratch, threshold)
        })
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
        if !self.delta_collect_moved(state, mapping, mv, scratch) {
            // Neutral move: the exact delta is free.
            return BoundedDelta::Exact(ScoreDelta {
                old_worst_il: Db(state.worst_il),
                old_worst_snr: Db(state.worst_snr),
                new_worst_il: Db(state.worst_il),
                new_worst_snr: Db(state.worst_snr),
                affected_edges: 0,
            });
        }
        self.delta_patch_and_mark(state, scratch);

        let (worst_il, unaffected_snr) = self.delta_scan_il_and_unaffected_snr(state, scratch);
        if unaffected_snr <= threshold.0 {
            return BoundedDelta::Rejected {
                bound: Db(unaffected_snr),
                cost: 0,
            };
        }

        // Verify: exact per-victim SNRs (dirty accumulations computed
        // lazily, each at most once), tracking the affected minimum in
        // the linear ratio domain exactly like the peek path — one
        // `log10` per *decrease* of the minimum, at which point the
        // early-exit test runs.
        let mut min_ratio = f64::INFINITY;
        let mut any_noise_free = false;
        for i in 0..scratch.affected.len() {
            let v = scratch.affected[i];
            let (noise, gain) = self.lazy_victim_noise(state, scratch, v);
            scratch.new_noise[v] = noise;
            if noise > 0.0 {
                let ratio = gain / noise;
                if ratio < min_ratio {
                    min_ratio = ratio;
                    let affected_snr = (10.0 * min_ratio.log10()).min(self.snr_ceiling.0);
                    if affected_snr <= threshold.0 {
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

        // Survived every bound: assemble the exact worst cases with the
        // same expressions as the exact peek path.
        let affected_snr = if min_ratio.is_finite() {
            (10.0 * min_ratio.log10()).min(self.snr_ceiling.0)
        } else if any_noise_free {
            self.snr_ceiling.0
        } else {
            f64::INFINITY
        };
        let worst_snr = unaffected_snr.min(affected_snr);
        debug_assert_eq!(
            worst_snr,
            self.canonical_worst_snr(state, scratch),
            "bounded verify diverged from the canonical scan"
        );
        BoundedDelta::Exact(ScoreDelta {
            old_worst_il: Db(state.worst_il),
            old_worst_snr: Db(state.worst_snr),
            new_worst_il: Db(worst_il),
            new_worst_snr: Db(worst_snr),
            affected_edges: scratch.affected.len(),
        })
    }

    /// [`Evaluator::evaluate_delta_bounded`] over a batch of moves, all
    /// tested against the same threshold, in parallel. Results are in
    /// input order; each worker reuses its sticky scratch slot, so the
    /// outcome is deterministic and identical to a sequential loop.
    #[must_use]
    pub fn evaluate_delta_bounded_batch(
        &self,
        state: &EvalState,
        mapping: &Mapping,
        moves: &[Move],
        threshold: Db,
    ) -> Vec<BoundedDelta> {
        parallel::parallel_map_with(moves, DeltaScratch::default, |scratch, &mv| {
            self.evaluate_delta_bounded(state, mapping, mv, scratch, threshold)
        })
    }

    /// Memoized lazy accumulation for kept hop `flat` of victim `v`:
    /// hops marked dirty are recomputed (at most once per epoch)
    /// against the patched list at `tile`; clean hops read the cached
    /// state — exactly the values the eager recompute pass produces.
    fn lazy_acc(
        &self,
        state: &EvalState,
        scratch: &mut DeltaScratch,
        flat: usize,
        v: usize,
        pair: u16,
        tile: usize,
    ) -> f64 {
        if scratch.acc_mark[flat] != scratch.epoch {
            return state.acc[flat];
        }
        if scratch.acc_done[flat] != scratch.epoch {
            let slot = scratch.slot_of(tile);
            let acc = self.aggressor_sum(v, pair, &scratch.patched_lists[slot]);
            scratch.acc_new[flat] = acc;
            scratch.acc_done[flat] = scratch.epoch;
        }
        scratch.acc_new[flat]
    }

    /// Exact `(noise, total gain)` of affected victim `v` against the
    /// patched occupancies, computing dirty accumulations on demand —
    /// the lazy twin of the eager resum, summing in the same canonical
    /// tile order with the same terms (bit-identical by construction).
    fn lazy_victim_noise(
        &self,
        state: &EvalState,
        scratch: &mut DeltaScratch,
        v: usize,
    ) -> (f64, f64) {
        let base = state.hop_offset[v];
        if scratch.is_moved(v) {
            let head = scratch.head_len[v] as usize;
            let path = self.path(scratch.new_path[v]);
            let mut noise = 0.0f64;
            for &h in &path.tile_order {
                let h = h as usize;
                let hop = path.hops[h];
                let acc = if h < head {
                    // Shared-head hops are entrywise identical to the
                    // old path, so the cached flat layout still applies.
                    self.lazy_acc(state, scratch, base + h, v, hop.pair as u16, hop.tile)
                } else {
                    let slot = scratch.slot_of(hop.tile);
                    let hops_here = &scratch.patched_lists[slot];
                    if hops_here.len() >= 2 {
                        self.aggressor_sum(v, hop.pair as u16, hops_here)
                    } else {
                        0.0
                    }
                };
                noise += acc * hop.suffix;
            }
            (noise, path.total_gain)
        } else {
            let path = self.path(state.path_of_edge[v]);
            let mut noise = 0.0f64;
            for &h in &path.tile_order {
                let h = h as usize;
                let hop = path.hops[h];
                let acc = self.lazy_acc(state, scratch, base + h, v, hop.pair as u16, hop.tile);
                noise += acc * state.suffix[base + h];
            }
            (noise, path.total_gain)
        }
    }

    /// Evaluates many independent mappings in parallel (population
    /// strategies, random sweeps). Results are in input order and
    /// identical to calling [`Evaluator::evaluate`] per mapping; each
    /// worker reuses the [`EvalScratch`] in its sticky slot, so only
    /// the returned [`NetworkMetrics`] are allocated.
    #[must_use]
    pub fn evaluate_batch(&self, mappings: &[Mapping]) -> Vec<NetworkMetrics> {
        parallel::parallel_map_with(mappings, EvalScratch::default, |scratch, m| {
            self.evaluate_into(m, None, scratch);
            scratch.to_metrics()
        })
    }

    /// Worst-cases-only parallel batch — the form search loops consume.
    /// Same ordering and determinism guarantees as
    /// [`Evaluator::evaluate_batch`], with **zero** per-mapping
    /// allocation (sticky worker scratches are reused across chunks
    /// and across batch calls).
    #[must_use]
    pub fn evaluate_summaries_batch(&self, mappings: &[Mapping]) -> Vec<EvalSummary> {
        parallel::parallel_map_with(mappings, EvalScratch::default, |scratch, m| {
            self.evaluate_into(m, None, scratch)
        })
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
        let (new_worst_il, new_worst_snr) = self.compute_delta(state, mapping, mv, scratch, true);
        let delta = ScoreDelta {
            old_worst_il: Db(state.worst_il),
            old_worst_snr: Db(state.worst_snr),
            new_worst_il: Db(new_worst_il),
            new_worst_snr: Db(new_worst_snr),
            affected_edges: scratch.affected.len(),
        };

        if !scratch.moved.is_empty() {
            // Patched tile occupancies.
            for (slot, &tile) in scratch.patched_tiles.iter().enumerate() {
                state.tile_hops[tile].clear();
                state.tile_hops[tile].extend_from_slice(&scratch.patched_lists[slot]);
            }
            // Path lengths may change, so the flat per-hop stores are
            // rebuilt (edge count is tiny). The assembly reads the *old*
            // layout, so `path_of_edge`/`hop_offset` are replaced after.
            let edges = state.noise.len();
            let mut new_offset = Vec::with_capacity(edges + 1);
            let mut total = 0usize;
            for e in 0..edges {
                new_offset.push(total);
                let p = if scratch.is_moved(e) {
                    scratch.new_path[e]
                } else {
                    state.path_of_edge[e]
                };
                total += self.path(p).hops.len();
            }
            new_offset.push(total);
            let mut new_acc = vec![0.0f64; total];
            let mut new_suffix = vec![0.0f64; total];
            for e in 0..edges {
                let dst = new_offset[e];
                let n = new_offset[e + 1] - dst;
                if scratch.is_moved(e) {
                    let vals = &scratch.moved_acc[scratch.moved_slot(e)];
                    new_acc[dst..dst + n].copy_from_slice(vals);
                    for (h, hop) in self.path(scratch.new_path[e]).hops.iter().enumerate() {
                        new_suffix[dst + h] = hop.suffix;
                    }
                } else {
                    let src = state.hop_offset[e];
                    for h in 0..n {
                        let flat = src + h;
                        new_suffix[dst + h] = state.suffix[flat];
                        new_acc[dst + h] = if scratch.acc_mark[flat] == scratch.epoch {
                            scratch.acc_new[flat]
                        } else {
                            state.acc[flat]
                        };
                    }
                }
            }
            for &e in &scratch.moved {
                let p = scratch.new_path[e];
                state.path_of_edge[e] = p;
                state.il[e] = self.path(p).total_db;
            }
            state.hop_offset = new_offset;
            state.acc = new_acc;
            state.suffix = new_suffix;
            // Recomputed victims.
            for &v in &scratch.affected {
                state.noise[v] = scratch.new_noise[v];
                state.snr[v] = scratch.new_snr[v];
            }
        }
        state.worst_il = new_worst_il;
        state.worst_snr = new_worst_snr;
        mapping.apply_move(mv);

        debug_assert!(
            self.state_matches_full_eval(state, mapping),
            "incremental state diverged from full evaluation after {mv:?}"
        );
        delta
    }

    /// Debug-only invariant: `state` is bit-identical to a fresh full
    /// evaluation of `mapping`.
    fn state_matches_full_eval(&self, state: &EvalState, mapping: &Mapping) -> bool {
        let fresh = self.init_state(mapping);
        state.path_of_edge == fresh.path_of_edge
            && state.hop_offset == fresh.hop_offset
            && state.acc == fresh.acc
            && state.suffix == fresh.suffix
            && state.noise == fresh.noise
            && state.il == fresh.il
            && state.snr == fresh.snr
            && state.tile_hops == fresh.tile_hops
            && state.worst_il == fresh.worst_il
            && state.worst_snr == fresh.worst_snr
            && self.evaluate(mapping) == state.to_metrics()
    }

    /// Phase 1 of a delta: starts a scratch epoch and collects the
    /// moved edges — new path index + bitwise-shared head length (XY
    /// routes with an unmoved source often keep their leading hops
    /// — identical tile, pair and prefix — which then need no
    /// patching at all). Returns `false` for neutral moves (free↔free
    /// or identity), where nothing changes.
    fn delta_collect_moved(
        &self,
        state: &EvalState,
        mapping: &Mapping,
        mv: Move,
        scratch: &mut DeltaScratch,
    ) -> bool {
        let edges = self.edge_endpoints.len();
        let tasks = mapping.task_count();
        scratch.begin(edges, self.tile_count, state.acc.len());

        let (a, b) = mv.positions(mapping);
        if a == b || a >= tasks || edges == 0 {
            return false;
        }

        // Tasks that change tiles, and the tile each task sits on after
        // the move.
        let perm = mapping.permutation();
        let task_a = a; // a < tasks checked above
        let task_b = if b < tasks { Some(b) } else { None };
        let new_tile = |task: usize| -> usize {
            if task == task_a {
                perm[b].0
            } else if Some(task) == task_b {
                perm[a].0
            } else {
                perm[task].0
            }
        };

        for &t in [Some(task_a), task_b].iter().flatten() {
            for &e in &self.task_edges[t] {
                if scratch.moved_mark[e] != scratch.epoch {
                    scratch.moved_mark[e] = scratch.epoch;
                    scratch.moved.push(e);
                    scratch.mark_affected(e);
                    let (s, d) = self.edge_endpoints[e];
                    let new_idx = new_tile(s) * self.tile_count + new_tile(d);
                    scratch.new_path[e] = new_idx;
                    let old_hops = &self.path(state.path_of_edge[e]).hops;
                    let new_hops = &self.path(new_idx).hops;
                    let mut head = 0usize;
                    let max = old_hops.len().min(new_hops.len());
                    while head < max {
                        let (o, n) = (&old_hops[head], &new_hops[head]);
                        if o.tile != n.tile
                            || o.pair != n.pair
                            || o.prefix.to_bits() != n.prefix.to_bits()
                        {
                            break;
                        }
                        head += 1;
                    }
                    scratch.head_len[e] = head as u32;
                }
            }
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
            let (src, dst) = self.edge_endpoints[e];
            let head = scratch.head_len[e] as usize;
            for hop in &self.path(state.path_of_edge[e]).hops[head..] {
                self.touch_tile(state, scratch, hop.tile);
                let slot = scratch.slot_of(hop.tile);
                scratch.changed_occs[slot].push((e as u32, hop.pair as u16));
            }
            let new_path = self.path(scratch.new_path[e]);
            for (off, hop) in new_path.hops[head..].iter().enumerate() {
                self.touch_tile(state, scratch, hop.tile);
                let slot = scratch.slot_of(hop.tile);
                scratch.changed_occs[slot].push((e as u32, hop.pair as u16));
                scratch.patched_lists[slot].push(Occ {
                    edge: e as u32,
                    hop: (head + off) as u32,
                    pair: hop.pair as u16,
                    src: src as u16,
                    dst: dst as u16,
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
                let flat = state.hop_offset[v] + occ.hop as usize;
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

    /// Worst-IL min-scan plus the minimum SNR over *unaffected* edges —
    /// the structural part every delta (exact or bounded) needs.
    fn delta_scan_il_and_unaffected_snr(
        &self,
        state: &EvalState,
        scratch: &DeltaScratch,
    ) -> (f64, f64) {
        let edges = self.edge_endpoints.len();
        let mut worst_il = 0.0f64;
        let mut unaffected_snr = f64::INFINITY;
        for e in 0..edges {
            let il = if scratch.is_moved(e) {
                self.path(scratch.new_path[e]).total_db
            } else {
                state.il[e]
            };
            worst_il = worst_il.min(il);
            if !scratch.is_affected(e) {
                unaffected_snr = unaffected_snr.min(state.snr[e]);
            }
        }
        (worst_il, unaffected_snr)
    }

    /// The shared peek/commit computation: fills `scratch` with the
    /// moved-edge set, patched tile lists and recomputed victims
    /// (composing the phase helpers above), and returns the new worst
    /// cases. The commit path additionally caches every affected
    /// victim's SNR; the peek path derives the worst SNR with a single
    /// `log10`.
    fn compute_delta(
        &self,
        state: &EvalState,
        mapping: &Mapping,
        mv: Move,
        scratch: &mut DeltaScratch,
        commit: bool,
    ) -> (f64, f64) {
        if !self.delta_collect_moved(state, mapping, mv, scratch) {
            // Neutral move (free↔free or identity): nothing changes.
            return (state.worst_il, state.worst_snr);
        }
        self.delta_patch_and_mark(state, scratch);

        // Recompute the dirty kept hops against the patched occupancies.
        // (These may include shared-head hops of moved edges whose tile
        // was perturbed by another moved edge.)
        for i in 0..scratch.dirty_hops.len() {
            let (v, vh, tile, pair) = scratch.dirty_hops[i];
            let slot = scratch.slot_of(tile as usize);
            let acc = self.aggressor_sum(v as usize, pair, &scratch.patched_lists[slot]);
            scratch.acc_new[state.hop_offset[v as usize] + vh as usize] = acc;
        }
        // Moved victims: assemble accumulations along the new path —
        // cached (or freshly marked) values for the shared head,
        // recomputed beyond it.
        for i in 0..scratch.moved.len() {
            let e = scratch.moved[i];
            let head = scratch.head_len[e] as usize;
            let path = self.path(scratch.new_path[e]);
            while scratch.moved_acc.len() <= i {
                scratch.moved_acc.push(Vec::new());
            }
            let mut vals = std::mem::take(&mut scratch.moved_acc[i]);
            vals.clear();
            vals.resize(path.hops.len(), 0.0);
            let base = state.hop_offset[e];
            for (h, slot_val) in vals.iter_mut().enumerate().take(head) {
                let flat = base + h;
                *slot_val = if scratch.acc_mark[flat] == scratch.epoch {
                    scratch.acc_new[flat]
                } else {
                    state.acc[flat]
                };
            }
            for (off, hop) in path.hops[head..].iter().enumerate() {
                let slot = scratch.slot_of(hop.tile);
                let hops_here = &scratch.patched_lists[slot];
                if hops_here.len() >= 2 {
                    vals[head + off] = self.aggressor_sum(e, hop.pair as u16, hops_here);
                }
            }
            scratch.moved_acc[i] = vals;
        }

        // Noise re-sums for every affected victim, in canonical tile
        // order. The peek path tracks the affected minimum in the linear
        // ratio domain (one log10 at the end); the commit path caches
        // every affected SNR.
        let mut min_ratio = f64::INFINITY; // min over gain/noise, noise > 0
        let mut any_noise_free = false;
        for i in 0..scratch.affected.len() {
            let v = scratch.affected[i];
            let (noise, gain) = if scratch.is_moved(v) {
                let path = self.path(scratch.new_path[v]);
                let vals = &scratch.moved_acc[scratch.moved_slot(v)];
                let mut noise = 0.0f64;
                for &h in &path.tile_order {
                    noise += vals[h as usize] * path.hops[h as usize].suffix;
                }
                (noise, path.total_gain)
            } else {
                let path = self.path(state.path_of_edge[v]);
                let base = state.hop_offset[v];
                let mut noise = 0.0f64;
                for &h in &path.tile_order {
                    let flat = base + h as usize;
                    let acc = if scratch.acc_mark[flat] == scratch.epoch {
                        scratch.acc_new[flat]
                    } else {
                        state.acc[flat]
                    };
                    noise += acc * state.suffix[flat];
                }
                (noise, path.total_gain)
            };
            scratch.new_noise[v] = noise;
            if commit {
                scratch.new_snr[v] = self.snr_of(gain, noise);
            } else if noise > 0.0 {
                min_ratio = min_ratio.min(gain / noise);
            } else {
                any_noise_free = true;
            }
        }

        // Worst-case min-scans over cached + recomputed per-edge values.
        let (worst_il, unaffected_snr) = self.delta_scan_il_and_unaffected_snr(state, scratch);
        let worst_snr = if commit {
            let mut worst = unaffected_snr;
            for &v in &scratch.affected {
                worst = worst.min(scratch.new_snr[v]);
            }
            worst
        } else {
            // `snr_of` is monotone non-decreasing in gain/noise (log10
            // is monotone), so the minimum affected SNR is attained at
            // the minimum ratio; noise-free victims sit at the ceiling.
            let affected_snr = if min_ratio.is_finite() {
                (10.0 * min_ratio.log10()).min(self.snr_ceiling.0)
            } else if any_noise_free {
                self.snr_ceiling.0
            } else {
                f64::INFINITY
            };
            let worst = unaffected_snr.min(affected_snr);
            debug_assert_eq!(
                worst,
                self.canonical_worst_snr(state, scratch),
                "ratio-domain SNR selection diverged from the canonical scan"
            );
            worst
        };
        (worst_il, worst_snr)
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
                    self.path(state.path_of_edge[e]).total_gain
                };
                self.snr_of(gain, scratch.new_noise[e])
            } else {
                state.snr[e]
            };
            worst = worst.min(snr);
        }
        if edges == 0 {
            worst = self.snr_ceiling.0;
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
