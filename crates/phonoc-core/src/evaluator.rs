//! The mapping evaluator: worst-case insertion loss and worst-case SNR
//! for a mapped application (paper Eqs. 3–4 and Section II-C).
//!
//! Evaluation must be fast — the paper's experiments evaluate 100 000
//! random mappings per application and give every search algorithm an
//! equal evaluation budget — so everything that does not depend on the
//! mapping is precomputed once per problem instance:
//!
//! * the network path for **every ordered tile pair** (routing is
//!   deterministic and mapping-independent),
//! * per-path linear **prefix gains** (source → entry of hop *i*) and
//!   **suffix gains** (exit of hop *i* → detector),
//! * the router's 25×25 **interaction matrix**
//!   `K[victim pair][aggressor pair]` (total first-order crosstalk gain
//!   coupled per shared router), read once from
//!   `RouterModel::interaction_matrix`, which derives it from the
//!   netlist's leaks in one walk.
//!
//! Evaluating a mapping then reduces to: look up one path per CG edge,
//! bucket path hops by tile, and accumulate
//! `P_noise += prefix(aggressor) · K · suffix(victim)` over hop pairs
//! that share a router — `O(Σ_tiles k_t²)` per mapping with tiny
//! constants.
//!
//! # The allocation-free pipeline
//!
//! The hot entry point is [`Evaluator::evaluate_into`]: it buckets
//! occupancies with a counting sort over flat, caller-owned buffers
//! ([`EvalScratch`]), runs the same branch-free aggressor accumulation
//! as the incremental path (entries carry port pair, endpoint tasks and
//! prefix gain inline), selects the worst SNR in the linear ratio
//! domain with a **single** `log10`, and returns an [`EvalSummary`] —
//! zero heap allocation after the first call on a scratch. Per-edge
//! SNRs are derived lazily from the cached noise/gain when
//! [`EvalScratch::to_metrics`] materializes full [`NetworkMetrics`].
//!
//! Two wrappers sit on top, both **bit-identical** to each other and
//! to the retained reference pass ([`Evaluator::evaluate_reference`],
//! the original allocating implementation, kept as the property-test
//! oracle and bench baseline):
//!
//! * [`Evaluator::evaluate`] / [`Evaluator::evaluate_subset`] — thin
//!   allocating wrappers (fresh scratch + materialized metrics);
//! * the SNR cursor seat ([`Evaluator::init_state`]), which runs this
//!   very pass and keeps its occupancies and accumulations, laid out
//!   per edge and per tile, as the caches the incremental move path
//!   (see [`EvalState`]) patches in the same summation order.
//!
//! On VOPD/4×4 the scratch path is ~3× faster than the reference pass
//! (see `BENCH_evaluator.json`); search loops (the engine's full
//! evaluations, GA/RS batches, Monte-Carlo sampling) all ride it.
//!
//! The crosstalk model follows the paper's worst case: *all* CG
//! communications are simultaneously active, and noise generated in a
//! router suffers no loss inside that router (simplification
//! `K_i·L_i = K_i`) but does suffer the victim's remaining path loss.
//! The one exception is fixed: two communications with the same
//! *source task* never interfere, since a single modulator serializes
//! its outgoing transmissions. This matches the best-case SNR plateau
//! (~38–40 dB, one residual crossing event) visible in the paper's
//! Table II. Communications sharing only a destination still count,
//! since different sources can transmit concurrently.
//!
//! # Bounded full evaluation
//!
//! Random search keeps a mapping only if it beats the incumbent, and
//! an improving peek only needs the exact score of a move that beats
//! the cursor. [`Evaluator::evaluate_bounded`] runs the same pass with
//! a worst-SNR threshold `t` and gives up as soon as the mapping
//! provably cannot beat it:
//!
//! * once per threshold it derives the largest gain/noise ratio `r` whose
//!   clamped SNR `(10·log10(r)).min(ceiling)` is `≤ t`, checking
//!   candidates directly instead of trusting the `10^(t/10)` round
//!   trip (the way [`Objective::threshold_for_score`] derives its
//!   threshold);
//! * after each victim update the accumulation tests that edge's
//!   `gain / noise ≤ r` and stops on the first hit.
//!
//! The stop is sound because an edge's partial noise is a prefix of
//! the very left-to-right sum the full pass completes, and every term
//! is non-negative: FP addition is monotone, so the final noise is
//! `≥` the partial one, the final ratio `≤ r`, and (`log10` being
//! monotone) the worst-case SNR `≤ t`. A mapping that is never stopped
//! ran the unchanged pass, so its result is bit-identical to
//! [`Evaluator::evaluate_into`]. Because `r` is the *largest* such
//! ratio, the test fires exactly when the worst-case SNR is `≤ t`
//! (once the worst edge's last update lands), for every mapping with
//! at least one noisy edge. `evaluate_into` and the cursor seat run
//! the kernel at `t = -∞`, where inlining folds the test away.
//!
//! ## Victim first
//!
//! One victim at or below the threshold is enough to reject, and the
//! victim that stopped the last pass is the likeliest to stop the next
//! one (random search's draws share a threshold, an improving scan's
//! neighbours share most paths). So before it builds any occupancy
//! list, a bounded pass (all edges active) resolves every edge's path
//! and recomputes the *final* noise of the edges that stopped recent
//! passes on the same scratch (at most 4, most recent first) straight
//! from per-path tile bitmasks: the aggressors, in edge order, add
//! `prefix · K` into the victim hop's accumulation at every tile they
//! share with it, each path's hop at a tile found by the tile's rank
//! in its mask (`popcount` below it) through the path's tile order;
//! the victim's hops are then summed in tile order. Every sum runs in
//! the sweep's order minus its exact `+0.0` terms (non-sharing,
//! same-source and zero-coupling entries), so the probed noise *is* the
//! sweep's final `noise[v]`, bit for bit. The pass returns `None` at the
//! first probed victim with `noise > 0` and `gain / noise ≤ r`. The
//! sweep would have stopped too: that victim's last non-zero update
//! lands at its final noise, which trips the cutoff. Otherwise the
//! unchanged counting sort and sweep run on the resolved paths, and the
//! edge the sweep stops at moves to the front of the list.
//!
//! The list therefore decides only how early a rejection comes, never
//! whether it comes: `evaluate_bounded` stays a pure function of
//! (mapping, threshold), as the sticky scratch slots of
//! [`crate::parallel`] require. Ranks name one hop per path and tile
//! only if no path visits a tile twice; the evaluator checks that once,
//! when the first bounded pass builds the masks, and never probes a
//! table that does. Evaluators that never run a bounded pass (the loss
//! objectives score from the loss table alone) never build them.
//!
//! [`Objective::threshold_for_score`]: crate::Objective::threshold_for_score
//!
//! # The loss family
//!
//! A loss-based objective (worst-case loss, laser power) reads one
//! number per edge: its path's insertion loss. The evaluator keeps those
//! in one dense `Vec<f64>` indexed like the path table (`path_db`, not a
//! field of each path), so every loss step — the direct score
//! ([`Evaluator::worst_case_il`]), the loss cursor's seat, peeks and
//! commit, the full pass's per-edge losses and the certificate bound —
//! reads a flat table instead of chasing a path per edge.
//!
//! Every worst-case loss is one private min-scan over that table (or the
//! cursor's per-edge copy of it): eight independent compare-select
//! lanes, folded at the end, so the scan runs at load speed rather than
//! at one compare's latency per edge. Moved edges are skipped without a
//! branch (their slot reads as a NaN, which never lowers a lane). Each
//! lane starts at `+0.0` and keeps its value on ties, so the result is
//! `+0.0` unless some loss is negative, and then the least loss: the
//! bits the sequential `fold(0.0, f64::min)` gave, in any order. A peek
//! whose moved edges do not carry the cursor's worst loss skips the
//! scan (the worst edge stays, so its loss bounds the unmoved rest).
//! The SNR delta takes the same scan for its worst loss and for the
//! minimum SNR over its unaffected edges.
//!
//! # Reuse across problems
//!
//! The precomputed tables split along what they depend on. The
//! tile-pair paths, their prefix/suffix gains, the dense loss table and
//! the 25×25 interaction matrix depend only on *(topology, router,
//! routing, physical parameters)*; the edge-indexed caches
//! (`edge_endpoints`, the per-task adjacency) depend only on the *CG*.
//! Many problems share one architecture (the paper's Table II maps eight
//! applications onto one chip; a request stream maps many more), so the
//! first kind is built once per architecture per process and shared
//! behind one handle, [`ScoreTables`]:
//!
//! * [`Evaluator::new`] routes every tile pair and sums each path's dB
//!   as a build would, but turns nothing into a linear gain yet. That
//!   gives the tables' **dB image**: per path its hop count, total dB
//!   and each hop's tile, port pair and prefix dB; the 25 port-pair dBs;
//!   the coupling matrix; the SNR ceiling.
//! * Every gain, the loss table, the tile orders and the fingerprint are
//!   pure functions of that image (a hop's suffix dB is
//!   `total − (prefix + pair dB)`, the operations a build runs), so equal
//!   images give bit-equal tables. A table keeps its image (each hop its
//!   prefix dB, in the bytes a `u32` tile and pair leave free; the table
//!   its pair dBs), and `new` looks for a live table whose image equals
//!   the new one bit for bit. On a hit it clones that handle, skipping
//!   every `powf` and table allocation; on a miss it builds the tables
//!   and registers them.
//! * The registry is a process-wide list of weak references, pruned of
//!   dead entries and checked again under its lock before registering
//!   (two threads building one architecture end with one table). A
//!   table lives as long as some evaluator or warm-cache entry holds it,
//!   and what it derives lazily (the victim-first tile masks) is built
//!   once for every problem sharing it.
//!
//! Two live equal tables are therefore always one allocation, and
//! handles compare by pointer. The match is on the whole image, never on
//! a hash, so a custom routing that calls itself `xy` but routes YX
//! keeps its own table. The fingerprint, folded over the gains as a
//! build makes them, keys the warm cache.
//!
//! ## Incremental mutation
//!
//! Request streams that mutate the CG — a traffic phase re-weighting
//! edges, a workload change adding or dropping a communication — patch
//! the cheap edge caches in place and keep the shared tables:
//!
//! * [`Evaluator::add_edge`] — O(1) append to the edge caches.
//! * [`Evaluator::remove_edge`] — O(E) positional removal + adjacency
//!   rebuild.
//!
//! A re-weight needs no evaluator call at all: the worst-case objectives
//! never weight by bandwidth (see the module docs of `phonoc_apps::cg`),
//! so no evaluator cache reads a weight. Both mutations leave the
//! evaluator byte-for-byte identical to a from-scratch build over the
//! mutated CG (pinned by `tests/mutation_properties.rs` on random
//! mutation batches). Mutations invalidate outstanding [`EvalState`]s
//! — re-initialize via [`Evaluator::init_state`] (a search session does
//! this by building a fresh [`OptContext`](crate::OptContext) over the
//! mutated problem, whose first `set_current` seats a new state). The
//! safe entry points live on [`MappingProblem`](crate::MappingProblem)
//! (`update_edge_bandwidths` / `add_edge` / `remove_edge`), which keep
//! the CG and these caches in lock-step.

use crate::error::CoreError;
use crate::mapping::Mapping;

#[path = "evaluator_bound.rs"]
pub mod bound;
#[path = "evaluator_delta.rs"]
mod delta;
pub(crate) use delta::LossState;
pub use delta::{BoundedDelta, BoundedLossDelta, DeltaScratch, EvalState, ScoreDelta};
use phonoc_apps::CommunicationGraph;
use phonoc_phys::{Db, PhysicalParameters};
use phonoc_route::{Hop, LinkSegment, RoutingAlgorithm};
use phonoc_router::{PortPair, RouterModel};
use phonoc_topo::Topology;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

/// Per-communication evaluation result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeMetrics {
    /// Index into the CG's edge list.
    pub edge: usize,
    /// Insertion loss of the signal path (negative dB).
    pub insertion_loss: Db,
    /// Signal-to-noise ratio at the detector; the configured ceiling if
    /// no aggressor couples into this path.
    pub snr: Db,
}

/// Whole-network evaluation result for one mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkMetrics {
    /// Per-edge metrics, in CG edge order.
    pub edges: Vec<EdgeMetrics>,
    /// `IL_wc`: the most negative insertion loss (paper Eq. 3).
    pub worst_case_il: Db,
    /// `SNR_wc`: the minimum SNR (paper Eq. 4).
    pub worst_case_snr: Db,
}

/// The two worst-case figures of one evaluation — all a search objective
/// needs — produced without materializing per-edge metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalSummary {
    /// `IL_wc`: the most negative insertion loss (paper Eq. 3).
    pub worst_case_il: Db,
    /// `SNR_wc`: the minimum SNR (paper Eq. 4).
    pub worst_case_snr: Db,
}

/// Reusable buffers for allocation-free full evaluation.
///
/// One scratch serves any number of sequential
/// [`Evaluator::evaluate_into`] calls (across different evaluators and
/// problem sizes — buffers grow to the largest shape seen); parallel
/// batch entry points draw one from each worker's sticky scratch slot
/// (built once per worker lifetime — see [`crate::parallel`]). After the
/// first call the hot path performs **zero** heap allocation.
#[derive(Debug, Default, Clone)]
pub struct EvalScratch {
    /// Per edge: path index (`src_tile * tile_count + dst_tile`).
    edge_path: Vec<usize>,
    /// Per edge: whether it was active in the last evaluation.
    edge_active: Vec<bool>,
    /// Per tile: start of its occupancy range (`tile_count + 1`
    /// entries; entry `t+1` doubles as the count during bucketing).
    tile_offset: Vec<u32>,
    /// Per tile: fill cursor for the counting sort.
    cursor: Vec<u32>,
    /// Per tile: bitmask of port pairs present in its occupancy list,
    /// tested against the evaluator's per-victim coupling mask to skip
    /// victims that cannot collect noise there.
    tile_pairs: Vec<u32>,
    /// Flat occupancies grouped by tile, `(edge, hop)` ascending within
    /// each tile — exactly the order the allocating pass inserted them.
    occ: Vec<delta::Occ>,
    /// Per occupancy (parallel to `occ`): the hop's suffix gain, so the
    /// accumulate loop never chases path pointers.
    occ_suffix: Vec<f64>,
    /// Per edge: accumulated linear crosstalk noise power.
    noise: Vec<f64>,
    /// Per edge: insertion loss in dB.
    il: Vec<f64>,
    /// Per edge: total linear path gain (SNR numerator).
    gain: Vec<f64>,
    /// The evaluator's SNR ceiling, latched per call so per-edge SNRs
    /// can be derived lazily.
    ceiling: f64,
    /// `(threshold, ceiling, ratio cutoff)` of the last bounded pass: a
    /// scan tests all its candidates against one threshold, so the
    /// cutoff is derived once per scan, not once per pass.
    cutoff: Option<(f64, f64, f64)>,
    /// The edges that stopped recent bounded passes on this scratch,
    /// most recent first: the victims the next bounded pass probes
    /// before it builds any occupancy list. Only an edge's index is
    /// kept, so a scratch moving between problems probes whatever edge
    /// now has that index (an exact probe either way; indices past the
    /// edge count are skipped).
    stoppers: Stoppers,
    /// The victim-first probe's buffers.
    probe: ProbeBuffers,
    /// Bounded passes this scratch ended at a probe (test hook).
    #[cfg(test)]
    probe_rejections: usize,
    worst_il: f64,
    worst_snr: f64,
    /// Edge count of the last evaluation.
    edges: usize,
}

impl EvalScratch {
    /// Grows the per-edge and per-tile buffers to the problem shape.
    fn prepare(&mut self, edges: usize, tiles: usize) {
        if self.edge_path.len() < edges {
            self.edge_path.resize(edges, 0);
            self.edge_active.resize(edges, false);
            self.noise.resize(edges, 0.0);
            self.il.resize(edges, 0.0);
            self.gain.resize(edges, 0.0);
        }
        if self.tile_offset.len() < tiles + 1 {
            self.tile_offset.resize(tiles + 1, 0);
            self.cursor.resize(tiles, 0);
            self.tile_pairs.resize(tiles, 0);
        }
    }

    /// Per-edge SNR derived from the cached noise/gain — the canonical
    /// formula (ceiling when noise-free, clamped), applied lazily so
    /// the summary path pays a single `log10` instead of one per edge.
    fn edge_snr(&self, e: usize) -> f64 {
        let snr = if self.noise[e] > 0.0 {
            10.0 * (self.gain[e] / self.noise[e]).log10()
        } else {
            self.ceiling
        };
        snr.min(self.ceiling)
    }

    /// Worst-case insertion loss of the last [`Evaluator::evaluate_into`]
    /// call (paper Eq. 3).
    #[must_use]
    pub fn worst_case_il(&self) -> Db {
        Db(self.worst_il)
    }

    /// Worst-case SNR of the last [`Evaluator::evaluate_into`] call
    /// (paper Eq. 4).
    #[must_use]
    pub fn worst_case_snr(&self) -> Db {
        Db(self.worst_snr)
    }

    /// Materializes full [`NetworkMetrics`] (allocating) from the last
    /// [`Evaluator::evaluate_into`] call; inactive edges are omitted,
    /// exactly as [`Evaluator::evaluate_subset`] reports them.
    #[must_use]
    pub fn to_metrics(&self) -> NetworkMetrics {
        NetworkMetrics {
            edges: (0..self.edges)
                .filter(|&e| self.edge_active[e])
                .map(|e| EdgeMetrics {
                    edge: e,
                    insertion_loss: Db(self.il[e]),
                    snr: Db(self.edge_snr(e)),
                })
                .collect(),
            worst_case_il: Db(self.worst_il),
            worst_case_snr: Db(self.worst_snr),
        }
    }
}

/// How many recent stopping edges a scratch keeps (see
/// [`EvalScratch::stoppers`]).
const STOPPERS: usize = 4;

/// A most-recent-first list of at most [`STOPPERS`] edge indices.
#[derive(Debug, Default, Clone, Copy)]
struct Stoppers {
    edges: [u32; STOPPERS],
    len: usize,
}

impl Stoppers {
    /// Moves `edge` to the front, dropping the oldest entry when a new
    /// edge arrives at a full list.
    fn touch(&mut self, edge: u32) {
        let pos = match self.edges[..self.len].iter().position(|&e| e == edge) {
            Some(pos) => pos,
            None => {
                self.len = (self.len + 1).min(STOPPERS);
                self.len - 1
            }
        };
        self.edges[..=pos].rotate_right(1);
        self.edges[0] = edge;
    }
}

/// Reused buffers of one victim-first probe ([`Evaluator::probe_noise`]).
#[derive(Debug, Default, Clone)]
struct ProbeBuffers {
    /// The path indices of the victim's aggressors, in edge order; only
    /// a prefix is live.
    aggressors: Vec<usize>,
    /// Per hop of the victim, in its path's `tile_order`: the aggressor
    /// accumulation at that hop's router.
    acc: Vec<f64>,
}

/// One hop of a precomputed path, with everything the noise accumulation
/// needs (32 bytes).
#[derive(Debug, Clone, Copy)]
struct HopInfo {
    /// Tile index of the router.
    tile: u32,
    /// Dense (input, output) pair index, `0..25`.
    pair: u32,
    /// Linear gain from injection to the *entry* of this router.
    prefix: f64,
    /// Linear gain from the *exit* of this router to the detector.
    suffix: f64,
    /// `prefix` in dB, as routed: the table keeps it to be matched
    /// against later builds (see [`ScoreTables`]).
    prefix_db: f64,
}

// The prefix dB sits in the bytes `u32` tiles and pairs leave free: a
// table that keeps its image is no larger than one that does not.
const _: () = assert!(std::mem::size_of::<HopInfo>() == 32);

/// A precomputed source→destination path.
#[derive(Debug)]
struct PathInfo {
    hops: Vec<HopInfo>,
    /// Hop indices sorted ascending by `(tile, hop index)` — the order
    /// in which the full evaluation visits this path's routers, used by
    /// the incremental path to re-sum noise bit-identically.
    tile_order: Vec<u32>,
    /// Total linear gain of the signal path.
    total_gain: f64,
}

/// The tables every score reads, behind one shared handle: each
/// tile-pair path, the dense path loss table, the 25×25 coupling matrix
/// and the SNR ceiling. Only [`Evaluator::new`] makes one, and nothing
/// changes it after.
///
/// Tables are interned process-wide: every evaluator built from equal
/// routed inputs (see the [module docs](self#reuse-across-problems))
/// while another such table is alive shares that table. Two live equal
/// tables are therefore one allocation, and handles compare by pointer.
/// The warm cache keys a problem's architecture and physics by the
/// tables' [`fingerprint`](Self::fingerprint).
#[derive(Debug, Clone)]
pub struct ScoreTables(Arc<Tables>);

/// What a [`ScoreTables`] handle shares. The big tables sit behind owned
/// buffers: the interner's `Weak` keeps this struct's own allocation
/// until it prunes the entry, but not those.
#[derive(Debug)]
struct Tables {
    /// `paths` holds `tile_count²` entries.
    tile_count: usize,
    /// `paths[s * tile_count + d]`.
    paths: Box<[Option<PathInfo>]>,
    /// Per path, indexed like `paths`: its total insertion loss in dB
    /// (element + propagation + link crossings; `NaN` for `s == d`).
    /// Every loss-family step reads this dense table, not the path.
    path_db: Box<[f64]>,
    /// Per (input, output) pair index: the router's traversal loss in
    /// dB (`0.0` for a connection it lacks, which no path uses).
    pair_db: [f64; 25],
    /// 25×25 linear interaction gains.
    interaction: Box<[[f64; 25]; 25]>,
    /// Ceiling reported when a path collects zero noise.
    snr_ceiling: Db,
    /// A word fold over the gains and losses above, taken while they
    /// were built.
    fingerprint: u64,
    /// Bit `a` of `row_mask[v]` set iff `interaction[v][a] > 0`: the
    /// one coupling table. The full pass tests it against a router's
    /// present-pairs mask to skip victims that cannot collect noise
    /// there (an exact `+0.0` either way, so skipping is bit-exact);
    /// the incremental path's victim marking reads single bits.
    row_mask: [u32; 25],
    /// The most hops any tile-pair path has: the row stride of an
    /// [`EvalState`]'s per-(edge, hop) accumulation table.
    max_hops: usize,
    /// The victim-first probe's table, built by the first bounded pass
    /// on any evaluator sharing these tables: per path, the tiles it
    /// visits as a bitmask of `⌈tiles/64⌉` words at `idx * words..`
    /// (zero for `s == d`). The probe reads a path's hop at a tile by
    /// the tile's rank in its mask, so the table is `None` when some
    /// path visits a tile twice, and such a table is never probed.
    tile_masks: OnceLock<Option<Vec<u64>>>,
}

/// The routed inputs a [`Tables`] is a pure function of, before any
/// `powf`: per path its hop count, total dB and each hop's tile, pair
/// and prefix dB; the 25 pair dBs; the coupling matrix; the ceiling.
/// Each hop's suffix dB is `total − (prefix + pair dB)`, so equal images
/// give bit-equal tables.
struct Image {
    tile_count: usize,
    pair_db: [f64; 25],
    interaction: [[f64; 25]; 25],
    snr_ceiling: Db,
    /// Per path, indexed like `Tables::paths`: its total dB (`NaN` for
    /// `s == d`).
    path_db: Vec<f64>,
    /// Every path's hops in path order, as `(tile, pair, prefix dB)`.
    hops: Vec<(u32, u32, f64)>,
    /// Path `idx`'s hops are `hops[bounds[idx]..bounds[idx + 1]]`.
    bounds: Vec<usize>,
}

impl Image {
    fn path_hops(&self, idx: usize) -> &[(u32, u32, f64)] {
        &self.hops[self.bounds[idx]..self.bounds[idx + 1]]
    }
}

/// Every table built in this process that may still be alive, so that
/// builds from equal images share one (see [`ScoreTables::intern`]).
static INTERNED: Mutex<Vec<Weak<Tables>>> = Mutex::new(Vec::new());

/// The interner, pruned of dead tables. Its entries are valid whatever
/// a panicking holder left, so a poisoned lock is taken as is.
fn interned() -> MutexGuard<'static, Vec<Weak<Tables>>> {
    let mut live = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
    live.retain(|t| t.strong_count() > 0);
    live
}

impl Tables {
    /// The tables `image` gives: its gains (one `powf` per path and two
    /// per hop), tile orders, coupling masks and fingerprint.
    fn build(image: &Image) -> Tables {
        let tiles = image.tile_count;
        // The fingerprint, folded over each bit as it is made.
        let mut fp = fold(0, &[image.snr_ceiling.0.to_bits()]);
        let mut row_mask = [0u32; 25];
        for (mask, row) in row_mask.iter_mut().zip(&image.interaction) {
            for (a, &g) in row.iter().enumerate() {
                fp = fold(fp, &[g.to_bits()]);
                if g > 0.0 {
                    *mask |= 1 << a;
                }
            }
        }
        let mut paths = Vec::with_capacity(tiles * tiles);
        for (idx, &total_db) in image.path_db.iter().enumerate() {
            if idx / tiles == idx % tiles {
                paths.push(None);
                continue;
            }
            let routed = image.path_hops(idx);
            let total_gain = 10f64.powf(total_db / 10.0);
            fp = fold(
                fp,
                &[
                    routed.len() as u64,
                    total_db.to_bits(),
                    total_gain.to_bits(),
                ],
            );
            let mut hops = Vec::with_capacity(routed.len());
            for &(tile, pair, prefix_db) in routed {
                // Gain from injection to the entry of this hop, and from
                // its exit to the detector.
                let suffix_db = total_db - (prefix_db + image.pair_db[pair as usize]);
                let hop = HopInfo {
                    tile,
                    pair,
                    prefix: 10f64.powf(prefix_db / 10.0),
                    suffix: 10f64.powf(suffix_db / 10.0),
                    prefix_db,
                };
                let place = u64::from(tile) | u64::from(pair) << 32;
                fp = fold(fp, &[place, hop.prefix.to_bits(), hop.suffix.to_bits()]);
                hops.push(hop);
            }
            let mut tile_order: Vec<u32> = (0..hops.len() as u32).collect();
            tile_order.sort_by_key(|&i| (hops[i as usize].tile, i));
            paths.push(Some(PathInfo {
                hops,
                tile_order,
                total_gain,
            }));
        }
        let max_hops = paths
            .iter()
            .flatten()
            .map(|p| p.hops.len())
            .max()
            .unwrap_or(0);
        Tables {
            tile_count: tiles,
            paths: paths.into(),
            path_db: image.path_db.as_slice().into(),
            pair_db: image.pair_db,
            interaction: Box::new(image.interaction),
            snr_ceiling: image.snr_ceiling,
            fingerprint: fp,
            row_mask,
            max_hops,
            tile_masks: OnceLock::new(),
        }
    }

    /// Whether these tables were built from `image`: its every input
    /// equal bit for bit.
    fn is_built_from(&self, image: &Image) -> bool {
        let bits = |x: &f64| x.to_bits();
        let same = |a: &[f64], b: &[f64]| a.iter().map(bits).eq(b.iter().map(bits));
        self.tile_count == image.tile_count
            && bits(&self.snr_ceiling.0) == bits(&image.snr_ceiling.0)
            && same(&self.pair_db, &image.pair_db)
            && same(
                self.interaction.as_flattened(),
                image.interaction.as_flattened(),
            )
            && same(&self.path_db, &image.path_db)
            && self.paths.iter().enumerate().all(|(idx, path)| {
                let hops = path.as_ref().map_or(&[][..], |p| &p.hops);
                let routed = image.path_hops(idx);
                hops.len() == routed.len()
                    && hops
                        .iter()
                        .zip(routed)
                        .all(|(h, &(tile, pair, prefix_db))| {
                            h.tile == tile
                                && h.pair == pair
                                && bits(&h.prefix_db) == bits(&prefix_db)
                        })
            })
    }
}

impl ScoreTables {
    /// The live tables built from `image`, else new ones, registered.
    /// The interner is checked again before registering, so two threads
    /// building from equal images end with one table.
    fn intern(image: &Image) -> ScoreTables {
        let find = |live: &[Weak<Tables>]| {
            live.iter()
                .filter_map(Weak::upgrade)
                .find(|t| t.is_built_from(image))
        };
        if let Some(tables) = find(&interned()) {
            return ScoreTables(tables);
        }
        let built = Arc::new(Tables::build(image));
        let mut live = interned();
        if let Some(tables) = find(&live) {
            return ScoreTables(tables);
        }
        live.push(Arc::downgrade(&built));
        ScoreTables(built)
    }

    /// A deterministic hash of the tables: equal tables give equal
    /// fingerprints.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.0.fingerprint
    }

    /// How many distinct tables are alive in this process. Each is
    /// shared by every evaluator built from the same architecture and
    /// physics, so this counts architectures, not problems.
    #[must_use]
    pub fn live() -> usize {
        interned().len()
    }
}

impl PartialEq for ScoreTables {
    /// The same tables: interning makes equal live tables one
    /// allocation, so pointer equality is equality.
    fn eq(&self, other: &ScoreTables) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// One step of the tables' fingerprint, FxHash's word step. For a fixed
/// word each step is a bijection of the state, so two equally long
/// word streams that differ in one word always end apart.
fn fold(state: u64, words: &[u64]) -> u64 {
    words.iter().fold(state, |h, &w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
    })
}

/// The reusable, mapping-independent evaluation engine.
///
/// Construct once per (CG, topology, router, routing, parameters)
/// combination via [`Evaluator::new`], then call
/// [`evaluate`](Evaluator::evaluate) for as many mappings as needed. The
/// evaluator is `Sync`: parallel sweeps can share one instance.
#[derive(Debug)]
pub struct Evaluator {
    edge_endpoints: Vec<(usize, usize)>, // (src task, dst task)
    /// Affected-edge index: `task_edges[t]` lists the CG edges incident
    /// to task `t` (ascending). A move perturbs exactly these edges.
    task_edges: Vec<Vec<usize>>,
    /// The tables every score reads, and all that derives from them.
    tables: ScoreTables,
}

impl Evaluator {
    /// Routes every tile pair, then shares the live tables built from
    /// the same routed inputs, or builds them (see the
    /// [module docs](self#reuse-across-problems)).
    ///
    /// # Errors
    ///
    /// * [`CoreError::TooManyTasks`] if the CG does not fit the topology
    ///   (paper condition 2).
    /// * [`CoreError::Routing`] if the routing algorithm fails on some
    ///   tile pair.
    /// * [`CoreError::UnsupportedConnection`] if a routed path requires a
    ///   router connection the netlist does not implement (e.g. YX
    ///   routing on Crux).
    /// * [`CoreError::BadLinkLength`] if a routed path crosses a link
    ///   whose length is NaN, infinite or negative.
    /// * [`CoreError::BadParameters`] if the physical parameters are
    ///   implausible.
    pub fn new(
        cg: &CommunicationGraph,
        topology: &Topology,
        router: &RouterModel,
        routing: &dyn RoutingAlgorithm,
        params: &PhysicalParameters,
    ) -> Result<Evaluator, CoreError> {
        params.validate().map_err(CoreError::BadParameters)?;
        let tiles = topology.tile_count();
        if cg.task_count() > tiles {
            return Err(CoreError::TooManyTasks {
                tasks: cg.task_count(),
                tiles,
            });
        }
        // Occupancy entries pack endpoint task ids into u16s; a CG past
        // this bound would also need a tile count whose precomputed path
        // table (tiles², allocated below) is far beyond any realistic
        // memory budget.
        let limit = usize::from(u16::MAX);
        if cg.task_count() > limit {
            return Err(CoreError::TaskLimit {
                tasks: cg.task_count(),
                limit,
            });
        }

        let mut image = Image {
            tile_count: tiles,
            pair_db: [0.0; 25],
            interaction: router
                .interaction_matrix(params)
                .map(|row| row.map(|g| g.0)),
            snr_ceiling: params.snr_ceiling,
            path_db: vec![f64::NAN; tiles * tiles],
            hops: Vec::new(),
            bounds: Vec::with_capacity(tiles * tiles + 1),
        };
        let mut pair_supported = [false; 25];
        for pair in PortPair::all() {
            if let Some(loss) = router.traversal_loss(pair, params) {
                pair_supported[pair.index()] = true;
                image.pair_db[pair.index()] = loss.0;
            }
        }

        // Route every ordered tile pair; sum its dB without a `powf`.
        // Tiles come in ascending order, so paths arrive in index order.
        let prop_db_per_cm = params.propagation_loss_per_cm.0;
        let crossing_db = params.crossing_loss.0;
        let link_db =
            |l: &LinkSegment| prop_db_per_cm * l.length.as_cm() + crossing_db * l.crossings as f64;
        image.bounds.push(0);
        for s in topology.tiles() {
            for d in topology.tiles() {
                if s == d {
                    image.bounds.push(image.hops.len());
                    continue;
                }
                let net_path = routing.route(topology, s, d)?;
                let h = net_path.hops.len();
                for hop in &net_path.hops {
                    let pair = PortPair::new(hop.input, hop.output);
                    if !pair_supported[pair.index()] {
                        return Err(CoreError::UnsupportedConnection {
                            router: router.name().to_owned(),
                            pair,
                        });
                    }
                }
                // Custom routings lay their own segments, so each one
                // is checked here, not only when a topology is built.
                if let Some(link) = net_path.links.iter().position(|l| !l.length.is_physical()) {
                    return Err(CoreError::BadLinkLength {
                        src: s,
                        dst: d,
                        link,
                        length: net_path.links[link].length,
                    });
                }
                let pair_of = |hop: &Hop| PortPair::new(hop.input, hop.output).index();
                let total_db: f64 = net_path
                    .hops
                    .iter()
                    .map(|hop| image.pair_db[pair_of(hop)])
                    .sum::<f64>()
                    + net_path.links.iter().map(link_db).sum::<f64>();
                // The prefix of hop i: injection to the entry of hop i.
                let mut prefix_db = 0.0;
                for (i, hop) in net_path.hops.iter().enumerate() {
                    let pair = pair_of(hop);
                    let tile = u32::try_from(hop.tile.0)
                        .expect("tile ids fit a u32: the path table holds tiles² entries");
                    image.hops.push((tile, pair as u32, prefix_db));
                    if i < h - 1 {
                        prefix_db = prefix_db + image.pair_db[pair] + link_db(&net_path.links[i]);
                    }
                }
                image.bounds.push(image.hops.len());
                image.path_db[s.0 * tiles + d.0] = total_db;
            }
        }

        let edge_endpoints: Vec<(usize, usize)> =
            cg.edges().iter().map(|e| (e.src.0, e.dst.0)).collect();
        let mut task_edges: Vec<Vec<usize>> = vec![Vec::new(); cg.task_count()];
        for (e, &(s, d)) in edge_endpoints.iter().enumerate() {
            task_edges[s].push(e);
            if d != s {
                task_edges[d].push(e);
            }
        }
        Ok(Evaluator {
            edge_endpoints,
            task_edges,
            tables: ScoreTables::intern(&image),
        })
    }

    /// Number of CG edges (communications) being evaluated.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_endpoints.len()
    }

    /// Extends the per-edge caches for a new CG edge `src → dst`
    /// appended at index `edge_count()`. O(1): the expensive
    /// mapping-independent tables (tile-pair paths, the 25×25
    /// interaction matrix) are untouched — only the edge-indexed
    /// endpoint list and the per-task adjacency grow. The new index is
    /// the largest, so the ascending per-task edge lists stay exactly
    /// what a fresh build would produce.
    ///
    /// Outstanding [`EvalState`]s were sized for the old edge count and
    /// must be re-initialized ([`Evaluator::init_state`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::Mutation`] for out-of-range tasks, a self-loop, or a
    /// duplicate edge.
    pub fn add_edge(&mut self, src: usize, dst: usize) -> Result<(), CoreError> {
        let tasks = self.task_edges.len();
        if src >= tasks || dst >= tasks {
            return Err(CoreError::Mutation(format!(
                "edge c{src} -> c{dst} references a task outside 0..{tasks}"
            )));
        }
        if src == dst {
            return Err(CoreError::Mutation(format!("self-loop on task c{src}")));
        }
        if self.edge_endpoints.contains(&(src, dst)) {
            return Err(CoreError::Mutation(format!(
                "edge c{src} -> c{dst} already exists"
            )));
        }
        let e = self.edge_endpoints.len();
        self.edge_endpoints.push((src, dst));
        self.task_edges[src].push(e);
        self.task_edges[dst].push(e);
        Ok(())
    }

    /// Drops the CG edge at `index` from the per-edge caches, shifting
    /// later edges down by one (mirroring `Vec::remove` on the CG's edge
    /// list). The per-task adjacency is rebuilt from the surviving
    /// endpoints — O(E), the same loop construction runs, so the result
    /// is bit-identical to a fresh build. Outstanding [`EvalState`]s
    /// must be re-initialized.
    ///
    /// # Errors
    ///
    /// [`CoreError::Mutation`] if `index` is out of range.
    pub fn remove_edge(&mut self, index: usize) -> Result<(), CoreError> {
        if index >= self.edge_endpoints.len() {
            return Err(CoreError::Mutation(format!(
                "edge index {index} out of range 0..{}",
                self.edge_endpoints.len()
            )));
        }
        self.edge_endpoints.remove(index);
        for list in &mut self.task_edges {
            list.clear();
        }
        for (e, &(s, d)) in self.edge_endpoints.iter().enumerate() {
            self.task_edges[s].push(e);
            if d != s {
                self.task_edges[d].push(e);
            }
        }
        Ok(())
    }

    /// Evaluates one mapping: per-edge IL and SNR plus the worst cases.
    ///
    /// This is a thin allocating wrapper over
    /// [`Evaluator::evaluate_into`]: it builds a fresh [`EvalScratch`]
    /// and materializes [`NetworkMetrics`] per call. Hot loops should
    /// hold a scratch and call `evaluate_into` directly.
    ///
    /// # Panics
    ///
    /// Panics if `mapping` does not cover the CG's tasks or does not
    /// match the topology's tile count (programming errors, not user
    /// input).
    #[must_use]
    pub fn evaluate(&self, mapping: &Mapping) -> NetworkMetrics {
        self.evaluate_subset(mapping, None)
    }

    /// Evaluates one mapping with only a *subset* of communications
    /// active: `active[e] == false` removes edge `e` both as a victim
    /// and as an aggressor.
    ///
    /// The paper's objective is the worst case over *all* communications
    /// being simultaneously active; this entry point supports the
    /// Monte-Carlo validation of that bound (see
    /// [`crate::montecarlo`]) and duty-cycle studies. Like
    /// [`Evaluator::evaluate`], it is an allocating wrapper over
    /// [`Evaluator::evaluate_into`].
    ///
    /// # Panics
    ///
    /// Panics if `mapping` does not match the topology, or if `active`
    /// is provided with the wrong length.
    #[must_use]
    pub fn evaluate_subset(&self, mapping: &Mapping, active: Option<&[bool]>) -> NetworkMetrics {
        let mut scratch = EvalScratch::default();
        self.evaluate_into(mapping, active, &mut scratch);
        scratch.to_metrics()
    }

    /// The original allocating full pass, retained as a
    /// **reference implementation**: an independent oracle the property
    /// tests compare [`Evaluator::evaluate_into`] against bit-for-bit,
    /// and the baseline the `full_alloc_vs_scratch` bench measures the
    /// scratch path's speedup over. Not a hot-path API — it allocates
    /// roughly twenty vectors per call.
    ///
    /// # Panics
    ///
    /// As [`Evaluator::evaluate_subset`].
    #[must_use]
    pub fn evaluate_reference(&self, mapping: &Mapping, active: Option<&[bool]>) -> NetworkMetrics {
        assert_eq!(
            mapping.tile_count(),
            self.tables.0.tile_count,
            "mapping built for a different topology"
        );
        if let Some(active) = active {
            assert_eq!(
                active.len(),
                self.edge_endpoints.len(),
                "activity mask must cover every CG edge"
            );
        }
        let is_active = |e: usize| active.is_none_or(|a| a[e]);

        // Resolve each CG edge to its precomputed path.
        let edge_idx: Vec<usize> = self
            .edge_endpoints
            .iter()
            .map(|&(s, d)| {
                mapping.tile_of_task(s).0 * self.tables.0.tile_count + mapping.tile_of_task(d).0
            })
            .collect();
        let edge_paths: Vec<&PathInfo> = edge_idx.iter().map(|&idx| self.path(idx)).collect();

        // Bucket (edge, hop) occupancies per tile (active edges only).
        let mut tile_hops: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.tables.0.tile_count];
        for (e, path) in edge_paths.iter().enumerate() {
            if !is_active(e) {
                continue;
            }
            for (h, hop) in path.hops.iter().enumerate() {
                tile_hops[hop.tile as usize].push((e, h));
            }
        }

        // Noise accumulation per victim edge.
        let mut noise = vec![0.0f64; edge_paths.len()];
        for hops_here in &tile_hops {
            if hops_here.len() < 2 {
                continue;
            }
            for &(ve, vh) in hops_here {
                let victim = edge_paths[ve].hops[vh];
                let v_src = self.edge_endpoints[ve].0;
                let row = &self.tables.0.interaction[victim.pair as usize];
                let mut acc = 0.0;
                for &(ae, ah) in hops_here {
                    if ae == ve || self.edge_endpoints[ae].0 == v_src {
                        continue;
                    }
                    let aggressor = edge_paths[ae].hops[ah];
                    let k = row[aggressor.pair as usize];
                    if k > 0.0 {
                        acc += aggressor.prefix * k;
                    }
                }
                noise[ve] += acc * victim.suffix;
            }
        }

        let mut edges = Vec::with_capacity(edge_paths.len());
        let mut worst_il = 0.0f64;
        let mut worst_snr = f64::INFINITY;
        for (e, path) in edge_paths.iter().enumerate() {
            if !is_active(e) {
                continue;
            }
            let il = self.tables.0.path_db[edge_idx[e]];
            let snr = self.snr_of(path.total_gain, noise[e]);
            worst_il = worst_il.min(il);
            worst_snr = worst_snr.min(snr);
            edges.push(EdgeMetrics {
                edge: e,
                insertion_loss: Db(il),
                snr: Db(snr),
            });
        }
        if edges.is_empty() {
            worst_snr = self.tables.0.snr_ceiling.0;
        }
        NetworkMetrics {
            edges,
            worst_case_il: Db(worst_il),
            worst_case_snr: Db(worst_snr),
        }
    }

    /// Allocation-free full evaluation into caller-provided buffers:
    /// the engine of [`Evaluator::evaluate`] / `evaluate_subset`.
    ///
    /// Occupancies are bucketed per tile with a counting sort over flat
    /// arrays and noise is accumulated with the same branch-free
    /// multiply-select loop as the incremental path, in the same order —
    /// results are **bit-identical** to the allocating wrappers (which
    /// simply call this). After the first call on a given scratch the
    /// hot path performs no heap allocation.
    ///
    /// Returns the two worst cases; per-edge metrics stay readable on
    /// the scratch ([`EvalScratch::to_metrics`]).
    ///
    /// # Panics
    ///
    /// Panics if `mapping` does not match the topology, or if `active`
    /// is provided with the wrong length.
    pub fn evaluate_into(
        &self,
        mapping: &Mapping,
        active: Option<&[bool]>,
        scratch: &mut EvalScratch,
    ) -> EvalSummary {
        match self.full_pass(mapping, active, scratch, f64::NEG_INFINITY, |_, _| {}) {
            Some(summary) => summary,
            None => unreachable!("a -∞ threshold never rejects"),
        }
    }

    /// The bounded full evaluation: [`Evaluator::evaluate_into`] (all
    /// communications active) that stops as soon as the mapping's
    /// worst-case SNR is proven `≤ threshold`, returning `None`. Search
    /// scans that only keep a mapping if it beats a known score — the
    /// incumbent of random search, the cursor of an improving peek —
    /// skip the rest of the pass on every candidate that cannot win.
    ///
    /// A mapping that is not rejected gets the result `evaluate_into`
    /// gives it, bit for bit, and `scratch` holds its full pass; after a
    /// rejection `scratch` holds a partial pass. At `threshold = -∞` it
    /// never rejects (see the [module docs](self#bounded-full-evaluation)
    /// for why a rejection is sound).
    ///
    /// # Panics
    ///
    /// Panics if `mapping` does not match the topology.
    pub fn evaluate_bounded(
        &self,
        mapping: &Mapping,
        threshold: Db,
        scratch: &mut EvalScratch,
    ) -> Option<EvalSummary> {
        if threshold.0 == f64::NEG_INFINITY {
            return Some(self.evaluate_into(mapping, None, scratch));
        }
        let summary = self.full_pass(mapping, None, scratch, threshold.0, |_, _| {});
        debug_assert!(
            summary.is_some()
                || self.evaluate_into(mapping, None, scratch).worst_case_snr <= threshold,
            "bounded full pass rejected a mapping whose worst-case SNR beats {threshold}"
        );
        summary
    }

    /// The largest gain/noise ratio `r` whose clamped SNR
    /// `(10·log10(r)).min(ceiling)` is `≤ threshold`, found by checking
    /// candidates directly rather than trusting the `10^(t/10)` round
    /// trip (`+∞` once the threshold reaches the ceiling, where every
    /// SNR qualifies). `threshold` must be finite or `+∞`. The
    /// derivation (a `powf` and a few `log10`s, ~170 ns on the 2-core
    /// dev host) is a sizeable share of a small grid's pass, so the
    /// last result is kept on `scratch`.
    fn ratio_cutoff(&self, threshold: f64, scratch: &mut EvalScratch) -> f64 {
        let ceiling = self.tables.0.snr_ceiling.0;
        if let Some((t, c, r)) = scratch.cutoff {
            if t == threshold && c == ceiling {
                return r;
            }
        }
        let snr = |r: f64| (10.0 * r.log10()).min(ceiling);
        let mut r = f64::INFINITY;
        if threshold < ceiling {
            r = 10f64.powf(threshold / 10.0);
            while snr(r.next_up()) <= threshold {
                r = r.next_up();
            }
            while snr(r) > threshold {
                r = r.next_down();
            }
        }
        scratch.cutoff = Some((threshold, ceiling, r));
        r
    }

    /// The one full pass, behind [`Evaluator::evaluate_into`],
    /// [`Evaluator::evaluate_bounded`] and the SNR cursor seat
    /// ([`Evaluator::init_state`]): fills `scratch` and hands each
    /// accumulation it computes to `on_acc(victim, acc)` (the victims
    /// it skips accumulate an exact `+0.0`). Returns `None` as soon as
    /// one edge proves the worst-case SNR `≤ threshold`; at `-∞` (or
    /// NaN) it never does. Inlined, so `evaluate_into`'s no-op callback
    /// and `-∞` threshold compile away.
    #[inline(always)]
    fn full_pass(
        &self,
        mapping: &Mapping,
        active: Option<&[bool]>,
        scratch: &mut EvalScratch,
        threshold: f64,
        mut on_acc: impl FnMut(&delta::Occ, f64),
    ) -> Option<EvalSummary> {
        let bounded = threshold > f64::NEG_INFINITY;
        let cutoff = if bounded {
            self.ratio_cutoff(threshold, scratch)
        } else {
            f64::NAN
        };
        assert_eq!(
            mapping.tile_count(),
            self.tables.0.tile_count,
            "mapping built for a different topology"
        );
        let edges = self.edge_endpoints.len();
        if let Some(active) = active {
            assert_eq!(
                active.len(),
                edges,
                "activity mask must cover every CG edge"
            );
        }
        let tiles = self.tables.0.tile_count;
        scratch.prepare(edges, tiles);
        scratch.edges = edges;
        scratch.ceiling = self.tables.0.snr_ceiling.0;

        // Resolve each CG edge to its precomputed path; latch activity
        // and the path's IL/gain.
        for (e, &(s, d)) in self.edge_endpoints.iter().enumerate() {
            let st = mapping.tile_of_task(s).0;
            let dt = mapping.tile_of_task(d).0;
            let idx = st * tiles + dt;
            let path = self.path(idx);
            scratch.edge_path[e] = idx;
            scratch.il[e] = self.tables.0.path_db[idx];
            scratch.gain[e] = path.total_gain;
            scratch.edge_active[e] = active.is_none_or(|a| a[e]);
        }

        // Victim first: the edges that stopped recent passes, their
        // final noise recomputed from the path masks before any list is
        // built. A probe that rejects names a victim the sweep would
        // also stop at (see the module docs).
        let masks = (bounded && active.is_none()).then(|| self.tile_masks());
        if let Some(masks) = masks.flatten() {
            let stoppers = scratch.stoppers;
            for &v in &stoppers.edges[..stoppers.len] {
                let v = v as usize;
                if v >= edges {
                    continue;
                }
                let edge_path = &scratch.edge_path[..edges];
                let noise = self.probe_noise(masks, edge_path, v, &mut scratch.probe);
                if noise > 0.0 && scratch.gain[v] / noise <= cutoff {
                    scratch.stoppers.touch(v as u32);
                    #[cfg(test)]
                    {
                        scratch.probe_rejections += 1;
                    }
                    return None;
                }
            }
        }

        // Count each active edge's hops per tile for the counting sort.
        scratch.tile_offset[..=tiles].fill(0);
        let mut total = 0usize;
        for e in 0..edges {
            if scratch.edge_active[e] {
                let hops = &self.path(scratch.edge_path[e]).hops;
                for hop in hops {
                    scratch.tile_offset[hop.tile as usize + 1] += 1;
                }
                total += hops.len();
            }
        }

        // Prefix-sum, then fill. The fill visits edges then hops
        // ascending, so within a tile entries sit in `(edge, hop)`
        // order — exactly the order the reference pass pushed them.
        for t in 0..tiles {
            scratch.tile_offset[t + 1] += scratch.tile_offset[t];
        }
        scratch.occ.resize(total, delta::Occ::default());
        scratch.occ_suffix.resize(total, 0.0);
        scratch.cursor[..tiles].copy_from_slice(&scratch.tile_offset[..tiles]);
        scratch.tile_pairs[..tiles].fill(0);
        for e in 0..edges {
            if !scratch.edge_active[e] {
                continue;
            }
            let src = self.edge_endpoints[e].0;
            for (h, hop) in self.path(scratch.edge_path[e]).hops.iter().enumerate() {
                let slot = scratch.cursor[hop.tile as usize] as usize;
                scratch.cursor[hop.tile as usize] += 1;
                scratch.tile_pairs[hop.tile as usize] |= 1 << hop.pair;
                scratch.occ[slot] = delta::Occ {
                    edge: e as u32,
                    hop: h as u32,
                    pair: hop.pair as u16,
                    src: src as u16,
                    prefix: hop.prefix,
                };
                scratch.occ_suffix[slot] = hop.suffix;
            }
        }

        // Noise accumulation: tiles ascending, victims in list order,
        // aggressors via the shared branch-free inner loop. Everything
        // the loop reads sits inline in the occupancy arrays (borrows
        // split per field so the slices stay hoisted).
        scratch.noise[..edges].fill(0.0);
        let EvalScratch {
            occ,
            occ_suffix,
            noise,
            gain,
            tile_offset,
            tile_pairs,
            stoppers,
            ..
        } = scratch;
        for t in 0..tiles {
            let (lo, hi) = (tile_offset[t] as usize, tile_offset[t + 1] as usize);
            if hi - lo < 2 {
                continue;
            }
            let present = tile_pairs[t];
            let hops_here = &occ[lo..hi];
            for (local, victim) in hops_here.iter().enumerate() {
                // Victims whose interaction row has no coupling partner
                // among the pairs present here would accumulate an
                // exact 0.0 — skip them outright (bit-identical, since
                // `x + 0.0 == x` for the non-negative noise sums).
                if self.tables.0.row_mask[victim.pair as usize] & present == 0 {
                    continue;
                }
                let acc =
                    self.aggressor_sum_packed(victim.edge, victim.pair, victim.src, hops_here);
                let e = victim.edge as usize;
                noise[e] += acc * occ_suffix[lo + local];
                on_acc(victim, acc);
                // The partial noise only grows from here, so a ratio
                // already at the cutoff bounds the final one.
                if bounded && gain[e] / noise[e] <= cutoff {
                    stoppers.touch(victim.edge);
                    return None;
                }
            }
        }

        // Worst-case min-scan. The worst SNR is selected in the linear
        // ratio domain and converted with a *single* `log10` — exact,
        // because `log10` is monotone, so the minimum dB value is
        // attained at the minimum gain/noise ratio and computed by the
        // very same expression the per-edge formula uses (per-edge SNRs
        // stay available lazily via the cached noise/gain).
        let mut worst_il = 0.0f64;
        let mut min_ratio = f64::INFINITY;
        let mut any_active = false;
        for e in 0..edges {
            if !scratch.edge_active[e] {
                continue;
            }
            any_active = true;
            worst_il = worst_il.min(scratch.il[e]);
            if scratch.noise[e] > 0.0 {
                min_ratio = min_ratio.min(scratch.gain[e] / scratch.noise[e]);
            }
        }
        let worst_snr = if !any_active {
            self.tables.0.snr_ceiling.0
        } else if min_ratio.is_finite() {
            (10.0 * min_ratio.log10()).min(self.tables.0.snr_ceiling.0)
        } else {
            // Every active edge is noise-free: all SNRs sit at the
            // ceiling.
            self.tables.0.snr_ceiling.0
        };
        scratch.worst_il = worst_il;
        scratch.worst_snr = worst_snr;
        debug_assert_eq!(
            worst_snr,
            (0..edges)
                .filter(|&e| scratch.edge_active[e])
                .map(|e| scratch.edge_snr(e))
                .fold(
                    if any_active {
                        f64::INFINITY
                    } else {
                        self.tables.0.snr_ceiling.0
                    },
                    f64::min
                ),
            "ratio-domain worst-SNR selection diverged from the per-edge scan"
        );
        Some(EvalSummary {
            worst_case_il: Db(worst_il),
            worst_case_snr: Db(worst_snr),
        })
    }

    /// The victim-first probe's table (see the field of this name),
    /// built on the first call; `None` if some path revisits a tile.
    fn tile_masks(&self) -> Option<&[u64]> {
        let build = || {
            let t = &self.tables.0;
            let (tiles, words) = (t.tile_count, t.tile_count.div_ceil(64));
            let mut masks = vec![0u64; tiles * tiles * words];
            for (idx, path) in t.paths.iter().enumerate() {
                let mask = &mut masks[idx * words..(idx + 1) * words];
                for hop in path.iter().flat_map(|p| &p.hops) {
                    let tile = hop.tile as usize;
                    let (word, bit) = (tile / 64, 1u64 << (tile % 64));
                    if mask[word] & bit != 0 {
                        return None;
                    }
                    mask[word] |= bit;
                }
            }
            Some(masks)
        };
        self.tables.0.tile_masks.get_or_init(build).as_deref()
    }

    /// The final crosstalk noise of victim edge `v` under the resolved
    /// paths `edge_path` (all edges active), from the path tile masks
    /// `masks` and no occupancy list (the victim-first probe; see the
    /// [module docs](self#victim-first)). The aggressors, in edge order,
    /// add `prefix · K` into the victim hop's accumulation at each tile
    /// they share with it; the victim's hops are then summed in
    /// `tile_order`.
    /// A path's hop at a tile is the tile's rank in its mask through
    /// `tile_order`, so the table must not revisit a tile. The sweep
    /// adds `prefix · K · 1.0` for these entries and an exact `+0.0` for
    /// every other one, in the same orders, so the result is the
    /// sweep's `noise[v]`, bit for bit.
    fn probe_noise(
        &self,
        masks: &[u64],
        edge_path: &[usize],
        v: usize,
        buf: &mut ProbeBuffers,
    ) -> f64 {
        let words = self.tables.0.tile_count.div_ceil(64);
        let mask = |p: usize| &masks[p * words..(p + 1) * words];
        let (victim, v_mask) = (self.path(edge_path[v]), mask(edge_path[v]));
        let v_src = self.edge_endpoints[v].0;
        // The aggressors' paths, in edge order: every other-source edge
        // that shares a tile with the victim. Which edges do is data, so
        // they are gathered without a branch per edge (a mispredicted
        // branch per edge doubled the probe's cost).
        let cand = &mut buf.aggressors;
        cand.resize(edge_path.len(), 0);
        let mut n = 0;
        for (a, &ap) in edge_path.iter().enumerate() {
            let shared = mask(ap)
                .iter()
                .zip(v_mask)
                .fold(0, |o, (&x, &y)| o | (x & y));
            cand[n] = ap;
            n += usize::from((shared != 0) & (a != v) & (self.edge_endpoints[a].0 != v_src));
        }
        let acc = &mut buf.acc;
        acc.clear();
        acc.resize(victim.hops.len(), 0.0);
        for &ap in &cand[..n] {
            let aggressor = self.path(ap);
            let (mut v_rank, mut a_rank) = (0, 0);
            for (&vw, &aw) in v_mask.iter().zip(mask(ap)) {
                let mut shared = vw & aw;
                while shared != 0 {
                    let below = (shared & shared.wrapping_neg()) - 1;
                    let vi = v_rank + (vw & below).count_ones() as usize;
                    let ai = a_rank + (aw & below).count_ones() as usize;
                    let vh = &victim.hops[victim.tile_order[vi] as usize];
                    let ah = &aggressor.hops[aggressor.tile_order[ai] as usize];
                    acc[vi] +=
                        ah.prefix * self.tables.0.interaction[vh.pair as usize][ah.pair as usize];
                    shared &= shared - 1;
                }
                v_rank += vw.count_ones() as usize;
                a_rank += aw.count_ones() as usize;
            }
        }
        let mut noise = 0.0f64;
        for (&h, &a) in victim.tile_order.iter().zip(acc.iter()) {
            noise += a * victim.hops[h as usize].suffix;
        }
        noise
    }

    /// The insertion loss of the (unmapped) tile-pair path `s → d`, if
    /// distinct. Exposed for analysis and tests.
    #[must_use]
    pub fn path_loss(&self, s: usize, d: usize) -> Option<Db> {
        let t = &self.tables.0;
        let idx = s * t.tile_count + d;
        t.paths.get(idx)?.as_ref().map(|_| Db(t.path_db[idx]))
    }

    /// Hop count of the precomputed `s → d` path.
    #[must_use]
    pub fn path_hops(&self, s: usize, d: usize) -> Option<usize> {
        let t = &self.tables.0;
        t.paths
            .get(s * t.tile_count + d)?
            .as_ref()
            .map(|p| p.hops.len())
    }

    /// The tables every score reads (see [`ScoreTables`]).
    #[must_use]
    pub fn tables(&self) -> &ScoreTables {
        &self.tables
    }

    /// The configured SNR ceiling (reported when a path is noise-free).
    #[must_use]
    pub fn snr_ceiling(&self) -> Db {
        self.tables.0.snr_ceiling
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonoc_apps::CgBuilder;
    use phonoc_phys::Length;
    use phonoc_route::{RoutingAlgorithm, XyRouting};
    use phonoc_router::crux::crux_router;
    use phonoc_topo::TileId;

    fn pitch() -> Length {
        Length::from_mm(2.5)
    }

    fn two_task_cg() -> CommunicationGraph {
        CgBuilder::new("pair")
            .tasks(["a", "b"])
            .edge("a", "b", 64.0)
            .build()
            .unwrap()
    }

    fn eval_for(cg: &CommunicationGraph, w: usize, h: usize) -> Evaluator {
        let topo = Topology::mesh(w, h, pitch());
        Evaluator::new(
            cg,
            &topo,
            &crux_router(),
            &XyRouting,
            &PhysicalParameters::default(),
        )
        .unwrap()
    }

    #[test]
    fn adjacent_pair_loss_matches_hand_computation() {
        // Tasks on tiles 0 and 1 (adjacent, same row): inject L→E
        // (−0.75), 0.25 cm propagation (−0.0685), eject W→L (−0.54).
        let cg = two_task_cg();
        let ev = eval_for(&cg, 2, 1);
        let m = Mapping::identity(2, 2);
        let metrics = ev.evaluate(&m);
        let expected = -0.75 - 0.274 * 0.25 - 0.54;
        assert!(
            (metrics.worst_case_il.0 - expected).abs() < 1e-9,
            "got {} want {expected}",
            metrics.worst_case_il
        );
        assert_eq!(metrics.edges.len(), 1);
        // Single communication: no aggressors, SNR at ceiling.
        assert_eq!(metrics.worst_case_snr, ev.snr_ceiling());
    }

    #[test]
    fn interaction_table_is_the_routers_matrix_bit_for_bit() {
        let params = PhysicalParameters::default();
        let topo = Topology::mesh(2, 2, pitch());
        for router in [
            crux_router(),
            phonoc_router::crossbar::crossbar_router(),
            phonoc_router::crossbar::xy_crossbar_router(),
        ] {
            let ev = Evaluator::new(&two_task_cg(), &topo, &router, &XyRouting, &params).unwrap();
            let matrix = router.interaction_matrix(&params);
            for v in PortPair::all() {
                for a in PortPair::all() {
                    assert_eq!(
                        ev.tables.0.interaction[v.index()][a.index()].to_bits(),
                        matrix[v.index()][a.index()].0.to_bits(),
                        "{}: {v} <- {a}",
                        router.name()
                    );
                }
            }
        }
    }

    #[test]
    fn longer_paths_lose_more() {
        let cg = two_task_cg();
        let ev = eval_for(&cg, 4, 4);
        // Adjacent mapping.
        let near = Mapping::from_assignment(vec![TileId(0), TileId(1)], 16).unwrap();
        // Opposite corners.
        let far = Mapping::from_assignment(vec![TileId(0), TileId(15)], 16).unwrap();
        let near_il = ev.evaluate(&near).worst_case_il;
        let far_il = ev.evaluate(&far).worst_case_il;
        assert!(
            far_il < near_il,
            "far mapping must lose more: {far_il} vs {near_il}"
        );
    }

    #[test]
    fn crossing_streams_degrade_snr() {
        // Two communications crossing at a shared middle router.
        let cg = CgBuilder::new("cross")
            .tasks(["a", "b", "c", "d"])
            .edge("a", "b", 1.0)
            .edge("c", "d", 1.0)
            .build()
            .unwrap();
        let ev = eval_for(&cg, 3, 3);
        // a: west-middle → east-middle (tiles 3 → 5, passing tile 4);
        // c: south-middle → north-middle (tiles 1 → 7, passing tile 4).
        let crossing =
            Mapping::from_assignment(vec![TileId(3), TileId(5), TileId(1), TileId(7)], 9).unwrap();
        let snr_crossing = ev.evaluate(&crossing).worst_case_snr;
        assert!(
            snr_crossing.0 < ev.snr_ceiling().0,
            "crossing streams must pick up noise"
        );
        // Keep the streams in disjoint rows: corners.
        let disjoint =
            Mapping::from_assignment(vec![TileId(0), TileId(1), TileId(6), TileId(7)], 9).unwrap();
        let snr_disjoint = ev.evaluate(&disjoint).worst_case_snr;
        assert!(
            snr_disjoint > snr_crossing,
            "disjoint streams should be cleaner: {snr_disjoint} vs {snr_crossing}"
        );
    }

    #[test]
    fn crossing_mapping_snr_magnitude_is_plausible() {
        // The W→E victim sees a single Kc (−40 dB) event (≈39 dB SNR);
        // the S→N victim additionally sits on an OFF-ring drop segment
        // and collects a (Kp,off + Kc) event (≈20 dB SNR). Both are in
        // the band the paper's Table II / Fig. 3 report.
        let cg = CgBuilder::new("cross")
            .tasks(["a", "b", "c", "d"])
            .edge("a", "b", 1.0)
            .edge("c", "d", 1.0)
            .build()
            .unwrap();
        let ev = eval_for(&cg, 3, 3);
        let crossing =
            Mapping::from_assignment(vec![TileId(3), TileId(5), TileId(1), TileId(7)], 9).unwrap();
        let metrics = ev.evaluate(&crossing);
        let snr_we = metrics.edges[0].snr;
        let snr_sn = metrics.edges[1].snr;
        assert!(
            snr_we.0 > 35.0 && snr_we.0 < 45.0,
            "single-crossing SNR should be ≈40 dB, got {snr_we}"
        );
        assert!(
            snr_sn.0 > 15.0 && snr_sn.0 < 25.0,
            "OFF-ring event SNR should be ≈20 dB, got {snr_sn}"
        );
        assert_eq!(metrics.worst_case_snr, snr_sn);
    }

    #[test]
    fn same_source_streams_do_not_interfere() {
        // Both edges originate at task a: the modulator serializes them,
        // so the evaluator's same-source exclusion keeps them apart.
        let cg = CgBuilder::new("fanout")
            .tasks(["a", "b", "c"])
            .edge("a", "b", 1.0)
            .edge("a", "c", 1.0)
            .build()
            .unwrap();
        let m = Mapping::from_assignment(vec![TileId(4), TileId(5), TileId(7)], 9).unwrap();
        let topo = Topology::mesh(3, 3, pitch());
        let ev = Evaluator::new(
            &cg,
            &topo,
            &crux_router(),
            &XyRouting,
            &PhysicalParameters::default(),
        )
        .unwrap();
        assert_eq!(ev.evaluate(&m).worst_case_snr, ev.snr_ceiling());
    }

    #[test]
    fn unsupported_routing_router_combination_fails_loudly() {
        use phonoc_route::YxRouting;
        let cg = two_task_cg();
        let topo = Topology::mesh(3, 3, pitch());
        let err = Evaluator::new(
            &cg,
            &topo,
            &crux_router(),
            &YxRouting,
            &PhysicalParameters::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, CoreError::UnsupportedConnection { .. }),
            "{err}"
        );
    }

    #[test]
    fn too_many_tasks_is_rejected() {
        let cg = CgBuilder::new("big")
            .tasks(["a", "b", "c", "d", "e"])
            .edge("a", "b", 1.0)
            .build()
            .unwrap();
        let topo = Topology::mesh(2, 2, pitch());
        let err = Evaluator::new(
            &cg,
            &topo,
            &crux_router(),
            &XyRouting,
            &PhysicalParameters::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::TooManyTasks { .. }));
    }

    #[test]
    fn task_counts_past_the_packed_index_are_rejected() {
        // 65 536 tasks on a 256×256 mesh: one past the u16 task index.
        // The error must come before the tiles² path table is built.
        let names: Vec<String> = (0..=usize::from(u16::MAX))
            .map(|t| format!("t{t}"))
            .collect();
        let cg = CgBuilder::new("huge").tasks(names).build().unwrap();
        let topo = Topology::mesh(256, 256, pitch());
        let err = Evaluator::new(
            &cg,
            &topo,
            &crux_router(),
            &XyRouting,
            &PhysicalParameters::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::TaskLimit {
                tasks: 65_536,
                limit: 65_535
            }
        );
        assert!(err.to_string().contains("65536"));
    }

    #[test]
    fn score_tables_are_equal_by_pointer_or_bit_for_bit() {
        use phonoc_router::crossbar::crossbar_router;
        use phonoc_router::Port;
        use phonoc_topo::TopologyBuilder;
        let cg = two_task_cg();
        let build = |topo: &Topology, router: &RouterModel, params: &PhysicalParameters| {
            Evaluator::new(&cg, topo, router, &XyRouting, params)
                .unwrap()
                .tables()
                .clone()
        };
        let table1 = PhysicalParameters::default();
        let chain = |second: Length| {
            TopologyBuilder::new(3, 1)
                .connect((0, 0), (1, 0), Port::East, pitch(), 0)
                .connect((1, 0), (2, 0), Port::East, second, 0)
                .build()
                .unwrap()
        };
        let base = build(&chain(pitch()), &crux_router(), &table1);

        // A handle equals its clone.
        assert_eq!(base.clone(), base);

        // Identical inputs, built again while `base` lives, get its very
        // handle. A builder chain and the 3×1 mesh lay the same links,
        // so whatever the topology's kind they share it too.
        for rebuilt in [
            build(&chain(pitch()), &crux_router(), &table1),
            build(&Topology::mesh(3, 1, pitch()), &crux_router(), &table1),
        ] {
            assert!(Arc::ptr_eq(&rebuilt.0, &base.0));
            assert_eq!(rebuilt, base);
            assert_eq!(rebuilt.fingerprint(), base.fingerprint());
        }

        // Equal fingerprints come from equal tables, and unequal tables
        // (one link length, a router, a loss coefficient) fold apart.
        let lossier = PhysicalParameters::builder()
            .crossing_loss(Db(-0.05))
            .build();
        let variants = [
            base.clone(),
            build(&chain(pitch() * 2.0), &crux_router(), &table1),
            build(&chain(pitch()), &crossbar_router(), &table1),
            build(&chain(pitch()), &crux_router(), &lossier),
            build(&chain(pitch()), &crux_router(), &table1),
        ];
        for (i, a) in variants.iter().enumerate() {
            for b in &variants[i + 1..] {
                assert_eq!(a.fingerprint() == b.fingerprint(), a == b);
            }
        }
        assert_ne!(variants[1], base, "one link length");
    }

    /// XY routing whose every path lays its first segment at `self.0`,
    /// as a custom routing may.
    #[derive(Debug)]
    struct StretchedRouting(Length);

    impl RoutingAlgorithm for StretchedRouting {
        fn name(&self) -> &'static str {
            "stretched"
        }

        fn route(
            &self,
            topo: &Topology,
            src: TileId,
            dst: TileId,
        ) -> Result<phonoc_route::NetworkPath, phonoc_route::RoutingError> {
            let mut path = XyRouting.route(topo, src, dst)?;
            path.links[0].length = self.0;
            Ok(path)
        }
    }

    #[test]
    fn routed_links_of_no_physical_length_are_rejected() {
        let cg = two_task_cg();
        let topo = Topology::mesh(3, 1, pitch());
        let p = PhysicalParameters::default();
        let build = |mm: f64| {
            let routing = StretchedRouting(Length::from_mm(mm));
            Evaluator::new(&cg, &topo, &crux_router(), &routing, &p)
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -5.0] {
            let err = build(bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    CoreError::BadLinkLength {
                        src: TileId(0),
                        dst: TileId(1),
                        link: 0,
                        ..
                    }
                ),
                "{bad} mm: {err}"
            );
            assert!(err.to_string().contains("t0 -> t1"), "{err}");
        }
        // A zero-length segment is a real (lossless) link.
        let zero = build(0.0).unwrap().path_loss(0, 2).unwrap();
        let laid = build(2.5).unwrap().path_loss(0, 2).unwrap();
        assert!(zero.0 > laid.0, "{zero} vs {laid}");
    }

    #[test]
    fn bad_parameters_are_rejected() {
        let cg = two_task_cg();
        let topo = Topology::mesh(2, 2, pitch());
        let params = PhysicalParameters::builder()
            .crossing_loss(phonoc_phys::Db(1.0))
            .build();
        let err = Evaluator::new(&cg, &topo, &crux_router(), &XyRouting, &params).unwrap_err();
        assert!(matches!(err, CoreError::BadParameters(_)));
    }

    #[test]
    fn evaluation_is_deterministic() {
        let cg = phonoc_apps::benchmarks::vopd();
        let topo = Topology::mesh(4, 4, pitch());
        let ev = Evaluator::new(
            &cg,
            &topo,
            &crux_router(),
            &XyRouting,
            &PhysicalParameters::default(),
        )
        .unwrap();
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let m = Mapping::random(cg.task_count(), 16, &mut rng);
        let a = ev.evaluate(&m);
        let b = ev.evaluate(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn worst_cases_bound_the_per_edge_values() {
        let cg = phonoc_apps::benchmarks::mpeg4();
        let topo = Topology::mesh(4, 3, pitch());
        let ev = Evaluator::new(
            &cg,
            &topo,
            &crux_router(),
            &XyRouting,
            &PhysicalParameters::default(),
        )
        .unwrap();
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let m = Mapping::random(cg.task_count(), 12, &mut rng);
            let metrics = ev.evaluate(&m);
            assert_eq!(metrics.edges.len(), cg.edge_count());
            for e in &metrics.edges {
                assert!(e.insertion_loss >= metrics.worst_case_il);
                assert!(e.snr >= metrics.worst_case_snr);
                assert!(e.insertion_loss.0 < 0.0, "every path loses power");
                assert!(e.snr.0 > 0.0, "SNR stays positive on small meshes");
            }
        }
    }

    #[test]
    fn path_accessors() {
        let cg = two_task_cg();
        let ev = eval_for(&cg, 3, 3);
        assert_eq!(ev.path_hops(0, 2), Some(3));
        assert!(ev.path_loss(0, 2).unwrap().0 < 0.0);
        assert!(ev.path_loss(1, 1).is_none());
        assert_eq!(ev.edge_count(), 1);
    }

    #[test]
    fn subset_evaluation_excludes_inactive_edges() {
        let cg = CgBuilder::new("cross")
            .tasks(["a", "b", "c", "d"])
            .edge("a", "b", 1.0)
            .edge("c", "d", 1.0)
            .build()
            .unwrap();
        let ev = eval_for(&cg, 3, 3);
        let m =
            Mapping::from_assignment(vec![TileId(3), TileId(5), TileId(1), TileId(7)], 9).unwrap();
        let both = ev.evaluate_subset(&m, Some(&[true, true]));
        assert_eq!(both, ev.evaluate(&m));
        // With the aggressor silenced, the surviving edge is noise-free.
        let only_first = ev.evaluate_subset(&m, Some(&[true, false]));
        assert_eq!(only_first.edges.len(), 1);
        assert_eq!(only_first.worst_case_snr, ev.snr_ceiling());
        // An all-inactive network reports the empty defaults.
        let none = ev.evaluate_subset(&m, Some(&[false, false]));
        assert!(none.edges.is_empty());
        assert_eq!(none.worst_case_snr, ev.snr_ceiling());
        assert_eq!(none.worst_case_il.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "activity mask")]
    fn subset_evaluation_rejects_wrong_mask_length() {
        let cg = two_task_cg();
        let ev = eval_for(&cg, 2, 1);
        let m = Mapping::identity(2, 2);
        let _ = ev.evaluate_subset(&m, Some(&[true, false, true]));
    }

    #[test]
    fn subset_with_fewer_aggressors_never_hurts_snr() {
        let cg = phonoc_apps::benchmarks::mpeg4();
        let topo = Topology::mesh(4, 3, pitch());
        let ev = Evaluator::new(
            &cg,
            &topo,
            &crux_router(),
            &XyRouting,
            &PhysicalParameters::default(),
        )
        .unwrap();
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(12);
        let m = Mapping::random(cg.task_count(), 12, &mut rng);
        let full = ev.evaluate(&m);
        // Deactivate one edge: the remaining edges' SNR can only improve
        // or stay equal.
        let mut mask = vec![true; cg.edge_count()];
        mask[0] = false;
        let partial = ev.evaluate_subset(&m, Some(&mask));
        for pe in &partial.edges {
            let fe = full
                .edges
                .iter()
                .find(|e| e.edge == pe.edge)
                .expect("edge still present");
            assert!(
                pe.snr >= fe.snr,
                "edge {}: {} < {}",
                pe.edge,
                pe.snr,
                fe.snr
            );
            assert_eq!(pe.insertion_loss, fe.insertion_loss);
        }
    }

    /// XY routing to even tiles, YX to odd ones: two streams of one
    /// source can then meet again past their shared head, on different
    /// input ports, so the same-source exclusion has coupling to drop
    /// (under one dimension order they only share the head, where the
    /// common input port already zeroes the coupling).
    #[derive(Debug)]
    struct MixedRouting;

    impl RoutingAlgorithm for MixedRouting {
        fn name(&self) -> &'static str {
            "mixed"
        }

        fn route(
            &self,
            topo: &Topology,
            src: TileId,
            dst: TileId,
        ) -> Result<phonoc_route::NetworkPath, phonoc_route::RoutingError> {
            if dst.0.is_multiple_of(2) {
                XyRouting.route(topo, src, dst)
            } else {
                phonoc_route::YxRouting.route(topo, src, dst)
            }
        }
    }

    /// Evaluators on mesh, torus, ring, a two-word mask (72 tiles) and
    /// mixed-order routes through the full crossbar.
    fn probe_instances() -> Vec<(Evaluator, usize)> {
        use phonoc_apps::benchmarks::{dvopd, pip, vopd};
        use phonoc_route::RingRouting;
        use phonoc_router::crossbar::crossbar_router;
        let p = PhysicalParameters::default();
        let build = |cg: &CommunicationGraph,
                     topo: Topology,
                     router: RouterModel,
                     routing: &dyn RoutingAlgorithm| {
            let tasks = cg.task_count();
            (
                Evaluator::new(cg, &topo, &router, routing, &p).unwrap(),
                tasks,
            )
        };
        let mesh = |w, h| Topology::mesh(w, h, pitch());
        vec![
            build(&vopd(), mesh(4, 4), crux_router(), &XyRouting),
            build(&dvopd(), mesh(6, 6), crux_router(), &XyRouting),
            build(
                &vopd(),
                Topology::torus(4, 4, pitch()),
                crux_router(),
                &XyRouting,
            ),
            build(
                &dvopd(),
                Topology::torus(6, 6, pitch()),
                crux_router(),
                &XyRouting,
            ),
            build(
                &pip(),
                Topology::ring(9, pitch()),
                crux_router(),
                &RingRouting,
            ),
            build(&dvopd(), mesh(9, 8), crux_router(), &XyRouting),
            build(&vopd(), mesh(4, 4), crossbar_router(), &MixedRouting),
            build(&dvopd(), mesh(6, 6), crossbar_router(), &MixedRouting),
        ]
    }

    #[test]
    fn probed_noise_is_the_sweeps_noise_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut scratch = EvalScratch::default();
        let mut buf = ProbeBuffers::default();
        for (ev, tasks) in probe_instances() {
            let masks = ev.tile_masks().expect("no routing here revisits a tile");
            let edges = ev.edge_count();
            let mut rng = StdRng::seed_from_u64(0x9B0E);
            let mut noisy = 0;
            for _ in 0..50 {
                let m = Mapping::random(tasks, ev.tables.0.tile_count, &mut rng);
                ev.evaluate_into(&m, None, &mut scratch);
                for v in 0..edges {
                    let probed = ev.probe_noise(masks, &scratch.edge_path[..edges], v, &mut buf);
                    assert_eq!(
                        probed.to_bits(),
                        scratch.noise[v].to_bits(),
                        "victim {v} of {m:?} on {} tiles",
                        ev.tables.0.tile_count
                    );
                    noisy += usize::from(probed > 0.0);
                }
            }
            assert!(
                noisy > 0,
                "no victim collected noise on {} tiles",
                ev.tables.0.tile_count
            );
        }
    }

    #[test]
    fn probes_reject_random_search_draws() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for (ev, tasks) in probe_instances() {
            let mut rng = StdRng::seed_from_u64(0xD4A7);
            let (mut scratch, mut exact) = (EvalScratch::default(), EvalScratch::default());
            let mut incumbent = f64::NEG_INFINITY;
            for _ in 0..300 {
                let m = Mapping::random(tasks, ev.tables.0.tile_count, &mut rng);
                let worst = ev.evaluate_into(&m, None, &mut exact).worst_case_snr.0;
                match ev.evaluate_bounded(&m, Db(incumbent), &mut scratch) {
                    Some(summary) => {
                        assert_eq!(summary.worst_case_snr.0.to_bits(), worst.to_bits());
                        incumbent = incumbent.max(worst);
                    }
                    None => assert!(worst <= incumbent),
                }
            }
            assert!(
                scratch.probe_rejections > 0,
                "no probe rejected a draw on {} tiles",
                ev.tables.0.tile_count
            );
        }
    }

    /// XY routing, except that `0 → 2` on a 3×3 mesh first circles the
    /// lower-left block and so crosses tiles 0 and 1 twice.
    #[derive(Debug)]
    struct LoopingRouting;

    impl RoutingAlgorithm for LoopingRouting {
        fn name(&self) -> &'static str {
            "looping"
        }

        fn route(
            &self,
            topo: &Topology,
            src: TileId,
            dst: TileId,
        ) -> Result<phonoc_route::NetworkPath, phonoc_route::RoutingError> {
            use phonoc_router::Port::{East, Local, North, South, West};
            if (src, dst) != (TileId(0), TileId(2)) {
                return XyRouting.route(topo, src, dst);
            }
            let (mut hops, mut links) = (Vec::new(), Vec::new());
            let (mut tile, mut input) = (src, Local);
            for output in [East, North, West, South, East, East] {
                let link = topo.link_from(tile, output).expect("3×3 mesh link");
                hops.push(phonoc_route::Hop {
                    tile,
                    input,
                    output,
                });
                links.push(phonoc_route::LinkSegment {
                    length: link.length,
                    crossings: link.crossings,
                });
                (tile, input) = (link.to, link.to_port);
            }
            hops.push(phonoc_route::Hop {
                tile,
                input,
                output: Local,
            });
            Ok(phonoc_route::NetworkPath {
                src,
                dst,
                hops,
                links,
            })
        }
    }

    #[test]
    fn a_table_that_revisits_a_tile_is_never_probed() {
        use phonoc_router::crossbar::crossbar_router;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let cg = phonoc_apps::benchmarks::pip();
        let topo = Topology::mesh(3, 3, pitch());
        let p = PhysicalParameters::default();
        let ev = Evaluator::new(&cg, &topo, &crossbar_router(), &LoopingRouting, &p).unwrap();
        assert!(
            ev.tables.0.tile_masks.get().is_none(),
            "built before any bounded pass"
        );
        let mut rng = StdRng::seed_from_u64(0x100B);
        let (mut scratch, mut exact) = (EvalScratch::default(), EvalScratch::default());
        let mut rejected = 0;
        for _ in 0..200 {
            let m = Mapping::random(cg.task_count(), 9, &mut rng);
            let worst = ev.evaluate_into(&m, None, &mut exact).worst_case_snr;
            // Every draw against its own score: all noisy ones reject.
            rejected += usize::from(ev.evaluate_bounded(&m, worst, &mut scratch).is_none());
        }
        assert!(rejected > 0);
        assert_eq!(ev.tables.0.tile_masks.get(), Some(&None));
        assert_eq!(scratch.probe_rejections, 0);
    }

    #[test]
    fn stoppers_keep_the_most_recent_first() {
        let mut list = Stoppers::default();
        for e in [3, 5, 3, 7, 9, 11] {
            list.touch(e);
        }
        assert_eq!(list.edges[..list.len], [11, 9, 7, 3]);
        list.touch(7);
        assert_eq!(list.edges[..list.len], [7, 11, 9, 3]);
    }

    #[test]
    fn torus_paths_beat_mesh_on_opposite_edges() {
        // Wrap-around shortens opposite-edge paths enough to beat the
        // mesh even at 2× link length.
        let cg = two_task_cg();
        let mesh = Topology::mesh(5, 5, pitch());
        let torus = Topology::torus(5, 5, pitch());
        let p = PhysicalParameters::default();
        let em = Evaluator::new(&cg, &mesh, &crux_router(), &XyRouting, &p).unwrap();
        let et = Evaluator::new(&cg, &torus, &crux_router(), &XyRouting, &p).unwrap();
        // Tiles 0 and 4: 4 hops in mesh, 1 wrap hop in torus.
        let m = Mapping::from_assignment(vec![TileId(0), TileId(4)], 25).unwrap();
        let il_mesh = em.evaluate(&m).worst_case_il;
        let il_torus = et.evaluate(&m).worst_case_il;
        assert!(il_torus > il_mesh, "torus {il_torus} vs mesh {il_mesh}");
    }
}
