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
//!   coupled per shared router, from the netlist leak analysis).
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
//! Three wrappers sit on top, all **bit-identical** to each other and
//! to the retained reference pass ([`Evaluator::evaluate_reference`],
//! the original allocating implementation, kept as the property-test
//! oracle and bench baseline):
//!
//! * [`Evaluator::evaluate`] / [`Evaluator::evaluate_subset`] — thin
//!   allocating wrappers (fresh scratch + materialized metrics);
//! * [`Evaluator::evaluate_batch`] /
//!   [`Evaluator::evaluate_summaries_batch`] — deterministic parallel
//!   batches on sticky per-worker scratch slots (built once per worker
//!   lifetime, see [`crate::parallel`]);
//! * the incremental move path (see [`EvalState`]), which shares the
//!   accumulation kernel and summation order.
//!
//! On VOPD/4×4 the scratch path is ~3× faster than the reference pass
//! (see `BENCH_evaluator.json`); search loops (the engine's full
//! evaluations, GA/RS batches, Monte-Carlo sampling) all ride it.
//!
//! The crosstalk model follows the paper's worst case: *all* CG
//! communications are simultaneously active, and noise generated in a
//! router suffers no loss inside that router (simplification
//! `K_i·L_i = K_i`) but does suffer the victim's remaining path loss.
//!
//! # Reuse across problems: incremental mutation
//!
//! The precomputed tables split along what they depend on. The
//! tile-pair paths, prefix/suffix gains and the 25×25 interaction
//! matrix depend only on *(topology, router, routing, physical
//! parameters)*; the edge-indexed caches (`edge_endpoints`, the
//! per-task adjacency) depend only on the *CG*. Request streams that
//! mutate the CG — a traffic phase re-weighting edges, a workload
//! change adding or dropping a communication — therefore patch the
//! cheap edge caches in place and keep the expensive tables:
//!
//! * [`Evaluator::update_edges`] — batch re-weight; no evaluator cache
//!   reads weights, so this validates and returns.
//! * [`Evaluator::add_edge`] — O(1) append to the edge caches.
//! * [`Evaluator::remove_edge`] — O(E) positional removal + adjacency
//!   rebuild.
//!
//! All three leave the evaluator byte-for-byte identical to a
//! from-scratch build over the mutated CG (pinned by
//! `tests/mutation_properties.rs` on random mutation batches).
//! Mutations invalidate outstanding [`EvalState`]s — re-initialize via
//! [`Evaluator::init_state`] (the engine's
//! [`OptContext::reset_for`](crate::OptContext::reset_for) does this
//! bookkeeping for search sessions). The safe entry points live on
//! [`MappingProblem`](crate::MappingProblem)
//! (`update_edge_bandwidths` / `add_edge` / `remove_edge`), which keep
//! the CG and these caches in lock-step.

use crate::error::CoreError;
use crate::mapping::Mapping;

#[path = "evaluator_bound.rs"]
pub mod bound;
#[path = "evaluator_delta.rs"]
mod delta;
pub use delta::{BoundedDelta, BoundedLossDelta, DeltaScratch, EvalState, ScoreDelta};
use phonoc_apps::CommunicationGraph;
use phonoc_phys::{Db, LinearGain, PhysicalParameters};
use phonoc_route::RoutingAlgorithm;
use phonoc_router::{PortPair, RouterModel};
use phonoc_topo::Topology;
use serde::{Deserialize, Serialize};

/// Per-communication evaluation result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// Tuning knobs for the worst-case crosstalk analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvaluatorOptions {
    /// Do not count two communications with the same *source task* as
    /// simultaneous (default `true`): a single modulator serializes its
    /// outgoing transmissions, so they can never interfere in time. This
    /// matches the best-case SNR plateau (~38–40 dB, one residual
    /// crossing event) visible in the paper's Table II.
    pub exclude_same_source: bool,
    /// Also exclude communications sharing a *destination task*
    /// (default `false`: different sources can transmit concurrently, so
    /// the strict worst case keeps them).
    pub exclude_same_destination: bool,
}

impl Default for EvaluatorOptions {
    fn default() -> Self {
        EvaluatorOptions {
            exclude_same_source: true,
            exclude_same_destination: false,
        }
    }
}

/// One hop of a precomputed path, with everything the noise accumulation
/// needs.
#[derive(Debug, Clone, Copy)]
struct HopInfo {
    /// Tile index of the router.
    tile: usize,
    /// Dense (input, output) pair index, `0..25`.
    pair: usize,
    /// Linear gain from injection to the *entry* of this router.
    prefix: f64,
    /// Linear gain from the *exit* of this router to the detector.
    suffix: f64,
}

/// A precomputed source→destination path.
#[derive(Debug, Clone)]
struct PathInfo {
    hops: Vec<HopInfo>,
    /// Hop indices sorted ascending by `(tile, hop index)` — the order
    /// in which the full evaluation visits this path's routers, used by
    /// the incremental path to re-sum noise bit-identically.
    tile_order: Vec<u32>,
    /// Total linear gain of the signal path.
    total_gain: f64,
    /// Total insertion loss in dB (element + propagation + link
    /// crossings).
    total_db: f64,
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
    tile_count: usize,
    /// `paths[s * tile_count + d]`.
    paths: Vec<Option<PathInfo>>,
    /// 25×25 linear interaction gains.
    interaction: [[f64; 25]; 25],
    /// `interaction[v][a] > 0` — the branch-free coupling test used by
    /// the incremental path's victim marking.
    coupled: [[bool; 25]; 25],
    /// Bit `a` of `row_mask[v]` set iff `interaction[v][a] > 0`: the
    /// per-victim-pair coupling mask, tested against a router's
    /// present-pairs mask to skip victims that cannot collect noise
    /// there (an exact `+0.0` either way, so skipping is bit-exact).
    row_mask: [u32; 25],
    /// Ceiling reported when a path collects zero noise.
    snr_ceiling: Db,
    options: EvaluatorOptions,
}

impl Evaluator {
    /// Precomputes all tables with the default [`EvaluatorOptions`].
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
    /// * [`CoreError::BadParameters`] if the physical parameters are
    ///   implausible.
    pub fn new(
        cg: &CommunicationGraph,
        topology: &Topology,
        router: &RouterModel,
        routing: &dyn RoutingAlgorithm,
        params: &PhysicalParameters,
    ) -> Result<Evaluator, CoreError> {
        Evaluator::with_options(
            cg,
            topology,
            router,
            routing,
            params,
            EvaluatorOptions::default(),
        )
    }

    /// Precomputes all tables with explicit [`EvaluatorOptions`].
    ///
    /// # Errors
    ///
    /// Same as [`Evaluator::new`].
    pub fn with_options(
        cg: &CommunicationGraph,
        topology: &Topology,
        router: &RouterModel,
        routing: &dyn RoutingAlgorithm,
        params: &PhysicalParameters,
        options: EvaluatorOptions,
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
        // this bound would need a tile count whose precomputed path
        // table (tiles²) is far beyond any realistic memory budget.
        assert!(
            cg.task_count() <= usize::from(u16::MAX),
            "task indices must fit the packed occupancy entries"
        );

        // Per-pair router losses as linear gains and dB.
        let mut pair_gain = [0.0f64; 25];
        let mut pair_db = [0.0f64; 25];
        let mut pair_supported = [false; 25];
        for pair in PortPair::all() {
            if let Some(loss) = router.traversal_loss(pair, params) {
                pair_supported[pair.index()] = true;
                pair_db[pair.index()] = loss.0;
                pair_gain[pair.index()] = loss.to_linear().0;
            }
        }
        let mut interaction = [[0.0f64; 25]; 25];
        let mut coupled = [[false; 25]; 25];
        let mut row_mask = [0u32; 25];
        for v in PortPair::all() {
            for a in PortPair::all() {
                let g = router.interaction_gain(v, a, params).0;
                interaction[v.index()][a.index()] = g;
                coupled[v.index()][a.index()] = g > 0.0;
                if g > 0.0 {
                    row_mask[v.index()] |= 1 << a.index();
                }
            }
        }

        // Precompute every ordered tile-pair path.
        let prop_db_per_cm = params.propagation_loss_per_cm.0;
        let crossing_db = params.crossing_loss.0;
        let mut paths: Vec<Option<PathInfo>> = vec![None; tiles * tiles];
        for s in topology.tiles() {
            for d in topology.tiles() {
                if s == d {
                    continue;
                }
                let net_path = routing.route(topology, s, d)?;
                // Per-hop router gains and per-link gains.
                let h = net_path.hops.len();
                let mut router_db = Vec::with_capacity(h);
                for hop in &net_path.hops {
                    let pair = PortPair::new(hop.input, hop.output);
                    if !pair_supported[pair.index()] {
                        return Err(CoreError::UnsupportedConnection {
                            router: router.name().to_owned(),
                            pair,
                        });
                    }
                    router_db.push((pair.index(), pair_db[pair.index()]));
                }
                let link_db: Vec<f64> = net_path
                    .links
                    .iter()
                    .map(|l| prop_db_per_cm * l.length.as_cm() + crossing_db * l.crossings as f64)
                    .collect();

                let total_db: f64 =
                    router_db.iter().map(|(_, db)| db).sum::<f64>() + link_db.iter().sum::<f64>();
                let total_gain = 10f64.powf(total_db / 10.0);

                // prefix[i]: gain from injection to entry of hop i;
                // suffix[i]: gain from exit of hop i to the detector.
                let mut hops = Vec::with_capacity(h);
                let mut prefix_db = 0.0;
                for i in 0..h {
                    let after_db: f64 = prefix_db + router_db[i].1;
                    let suffix_db = total_db - after_db;
                    hops.push(HopInfo {
                        tile: net_path.hops[i].tile.0,
                        pair: router_db[i].0,
                        prefix: 10f64.powf(prefix_db / 10.0),
                        suffix: 10f64.powf(suffix_db / 10.0),
                    });
                    if i < h - 1 {
                        prefix_db = after_db + link_db[i];
                    }
                }
                let mut tile_order: Vec<u32> = (0..h as u32).collect();
                tile_order.sort_by_key(|&i| (hops[i as usize].tile, i));
                paths[s.0 * tiles + d.0] = Some(PathInfo {
                    hops,
                    tile_order,
                    total_gain,
                    total_db,
                });
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
            tile_count: tiles,
            paths,
            interaction,
            coupled,
            row_mask,
            snr_ceiling: params.snr_ceiling,
            options,
        })
    }

    /// Number of CG edges (communications) being evaluated.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_endpoints.len()
    }

    /// The crosstalk-analysis options this evaluator was built with
    /// (part of a problem's cache-key identity: different options give
    /// different worst cases for the same CG).
    #[must_use]
    pub fn options(&self) -> EvaluatorOptions {
        self.options
    }

    /// Applies a batch of edge *re-weights* `(src, dst, new_weight)`
    /// incrementally. The worst-case IL/SNR objectives never weight by
    /// bandwidth (see the module docs of `phonoc_apps::cg`), so no
    /// evaluator cache depends on the weights: this validates that every
    /// referenced edge exists and every weight is finite and positive,
    /// and the per-(edge, hop) caches stay byte-for-byte what a
    /// from-scratch build over the re-weighted CG would produce
    /// (property-tested in `tests/mutation_properties.rs`). Keeping the
    /// call on the evaluator keeps the mutation contract in one place
    /// for when a bandwidth-aware objective lands.
    ///
    /// # Errors
    ///
    /// [`CoreError::Mutation`] if an edge is missing or a weight is
    /// non-positive/non-finite; the batch is all-or-nothing.
    pub fn update_edges(&self, updates: &[(usize, usize, f64)]) -> Result<(), CoreError> {
        for &(src, dst, w) in updates {
            if !self.edge_endpoints.contains(&(src, dst)) {
                return Err(CoreError::Mutation(format!(
                    "no edge c{src} -> c{dst} to re-weight"
                )));
            }
            if !(w.is_finite() && w > 0.0) {
                return Err(CoreError::Mutation(format!(
                    "edge c{src} -> c{dst} given invalid weight {w}"
                )));
            }
        }
        Ok(())
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

    /// The original allocating full pass, retained verbatim as a
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
            self.tile_count,
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
        let edge_paths: Vec<&PathInfo> = self
            .edge_endpoints
            .iter()
            .map(|&(s, d)| {
                let st = mapping.tile_of_task(s).0;
                let dt = mapping.tile_of_task(d).0;
                self.paths[st * self.tile_count + dt]
                    .as_ref()
                    .expect("distinct tasks map to distinct tiles")
            })
            .collect();

        // Bucket (edge, hop) occupancies per tile (active edges only).
        let mut tile_hops: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.tile_count];
        for (e, path) in edge_paths.iter().enumerate() {
            if !is_active(e) {
                continue;
            }
            for (h, hop) in path.hops.iter().enumerate() {
                tile_hops[hop.tile].push((e, h));
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
                let (v_src, v_dst) = self.edge_endpoints[ve];
                let row = &self.interaction[victim.pair];
                let mut acc = 0.0;
                for &(ae, ah) in hops_here {
                    if ae == ve {
                        continue;
                    }
                    let (a_src, a_dst) = self.edge_endpoints[ae];
                    if self.options.exclude_same_source && a_src == v_src {
                        continue;
                    }
                    if self.options.exclude_same_destination && a_dst == v_dst {
                        continue;
                    }
                    let aggressor = edge_paths[ae].hops[ah];
                    let k = row[aggressor.pair];
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
            let il = path.total_db;
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
            worst_snr = self.snr_ceiling.0;
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
        assert_eq!(
            mapping.tile_count(),
            self.tile_count,
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
        let tiles = self.tile_count;
        scratch.prepare(edges, tiles);
        scratch.edges = edges;
        scratch.ceiling = self.snr_ceiling.0;

        // Resolve each CG edge to its precomputed path; latch activity
        // and the path's IL/gain, and count its hops per tile for the
        // counting sort — one pass over the path table.
        scratch.tile_offset[..=tiles].fill(0);
        let mut total = 0usize;
        for (e, &(s, d)) in self.edge_endpoints.iter().enumerate() {
            let st = mapping.tile_of_task(s).0;
            let dt = mapping.tile_of_task(d).0;
            let idx = st * tiles + dt;
            let path = self.path(idx);
            scratch.edge_path[e] = idx;
            scratch.il[e] = path.total_db;
            scratch.gain[e] = path.total_gain;
            let live = active.is_none_or(|a| a[e]);
            scratch.edge_active[e] = live;
            if live {
                for hop in &path.hops {
                    scratch.tile_offset[hop.tile + 1] += 1;
                }
                total += path.hops.len();
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
            let (src, dst) = self.edge_endpoints[e];
            for (h, hop) in self.path(scratch.edge_path[e]).hops.iter().enumerate() {
                let slot = scratch.cursor[hop.tile] as usize;
                scratch.cursor[hop.tile] += 1;
                scratch.tile_pairs[hop.tile] |= 1 << hop.pair;
                scratch.occ[slot] = delta::Occ {
                    edge: e as u32,
                    hop: h as u32,
                    pair: hop.pair as u16,
                    src: src as u16,
                    dst: dst as u16,
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
            tile_offset,
            tile_pairs,
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
                if self.row_mask[victim.pair as usize] & present == 0 {
                    continue;
                }
                let acc = self.aggressor_sum_packed(
                    victim.edge,
                    victim.pair,
                    victim.src,
                    victim.dst,
                    hops_here,
                );
                noise[victim.edge as usize] += acc * occ_suffix[lo + local];
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
            self.snr_ceiling.0
        } else if min_ratio.is_finite() {
            (10.0 * min_ratio.log10()).min(self.snr_ceiling.0)
        } else {
            // Every active edge is noise-free: all SNRs sit at the
            // ceiling.
            self.snr_ceiling.0
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
                        self.snr_ceiling.0
                    },
                    f64::min
                ),
            "ratio-domain worst-SNR selection diverged from the per-edge scan"
        );
        EvalSummary {
            worst_case_il: Db(worst_il),
            worst_case_snr: Db(worst_snr),
        }
    }

    /// The insertion loss of the (unmapped) tile-pair path `s → d`, if
    /// distinct. Exposed for analysis and tests.
    #[must_use]
    pub fn path_loss(&self, s: usize, d: usize) -> Option<Db> {
        self.paths
            .get(s * self.tile_count + d)?
            .as_ref()
            .map(|p| Db(p.total_db))
    }

    /// Hop count of the precomputed `s → d` path.
    #[must_use]
    pub fn path_hops(&self, s: usize, d: usize) -> Option<usize> {
        self.paths
            .get(s * self.tile_count + d)?
            .as_ref()
            .map(|p| p.hops.len())
    }

    /// The configured SNR ceiling (reported when a path is noise-free).
    #[must_use]
    pub fn snr_ceiling(&self) -> Db {
        self.snr_ceiling
    }

    /// Total interaction gain between two port pairs in the underlying
    /// router (test/analysis hook).
    #[must_use]
    pub fn interaction(&self, victim: PortPair, aggressor: PortPair) -> LinearGain {
        LinearGain(self.interaction[victim.index()][aggressor.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonoc_apps::CgBuilder;
    use phonoc_phys::Length;
    use phonoc_route::XyRouting;
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
        // Both edges originate at task a: the modulator serializes them.
        // Under deterministic monotone routing (XY) they share routers
        // only along their common prefix, where they also share the
        // input port — so the router-level same-input exclusion already
        // guarantees zero interaction, with or without the evaluator's
        // own same-source option.
        let cg = CgBuilder::new("fanout")
            .tasks(["a", "b", "c"])
            .edge("a", "b", 1.0)
            .edge("a", "c", 1.0)
            .build()
            .unwrap();
        let m = Mapping::from_assignment(vec![TileId(4), TileId(5), TileId(7)], 9).unwrap();
        let topo = Topology::mesh(3, 3, pitch());
        for exclude in [true, false] {
            let ev = Evaluator::with_options(
                &cg,
                &topo,
                &crux_router(),
                &XyRouting,
                &PhysicalParameters::default(),
                EvaluatorOptions {
                    exclude_same_source: exclude,
                    exclude_same_destination: false,
                },
            )
            .unwrap();
            let metrics = ev.evaluate(&m);
            assert_eq!(
                metrics.worst_case_snr,
                ev.snr_ceiling(),
                "exclude={exclude}"
            );
        }
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
