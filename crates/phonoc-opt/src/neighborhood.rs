//! Budget-aware neighbourhood streams for the swap-based optimizers.
//!
//! PR 3's scenario sweep exposed that at 12×12+ meshes the *quality*
//! bottleneck is no longer peek cost but neighbourhood shape: R-PBLA's
//! admitted list holds 32 640 swaps at 16×16, so a 1 500-evaluation
//! budget is consumed by a single truncated scan of the
//! lexicographically *first* pairs — the search degenerates into "score
//! a prefix, move once", and every scanned swap involves one of the
//! first few positions. [`Neighborhood`] replaces the monolithic
//! `Vec<Move>` with a pluggable move stream selected by the engine's
//! [`NeighborhoodPolicy`]:
//!
//! * [`NeighborhoodPolicy::Exhaustive`] — the full admitted list in its
//!   canonical order. Bit-for-bit the original behaviour; the
//!   small-mesh default and the test oracle.
//! * [`NeighborhoodPolicy::Sampled`] — each pass draws a seeded,
//!   duplicate-free uniform sample (partial Fisher–Yates over a
//!   persistent index pool) of the admitted pairs. Best-of-scanned
//!   selection becomes an unbiased estimator of best-of-neighbourhood
//!   at any scan quota, instead of a prefix scan.
//! * [`NeighborhoodPolicy::Locality`] — only swaps whose two tiles sit
//!   within a Manhattan radius of each other **under the current
//!   cursor mapping** (`Move::Swap(a, b)` exchanges the tiles
//!   `perm[a]` and `perm[b]`, so each displaced task moves at most the
//!   radius). The within-radius subset is recomputed against the live
//!   mapping on every pass — it changes with every committed move —
//!   from a tile-pair distance table built once at construction. The
//!   radius widens adaptively (doubling) when a scan goes dry and
//!   narrows back on every committed improvement. Nearby swaps perturb
//!   fewer paths, so their deltas are cheaper — the same budget buys
//!   more probes — and grid embeddings improve mostly through local
//!   repairs.
//! * [`NeighborhoodPolicy::Auto`] (the default) resolves to
//!   `Exhaustive` while the admitted list fits
//!   [`AUTO_EXHAUSTIVE_MAX_PAIRS`] (8×8-class meshes and below) and to
//!   `Sampled` beyond, so small problems keep the oracle behaviour and
//!   large ones actually descend.
//!
//! The stream only *selects* moves. Scoring still goes through the
//! `OptContext` peek family, so the per-cursor peek route and the
//! honest edge-unit budget ledger are untouched: a sampled scan of `k`
//! moves costs exactly what peeking those `k` moves costs, and every
//! policy is deterministic per seed (the stream's RNG is seeded once,
//! from the context's seeded RNG, at construction).
//!
//! Sampled subsets are emitted **in canonical admitted order**: the
//! worst-case objectives plateau heavily, best-of-scanned ties break on
//! the first encountered, and the canonical tie-break is what the
//! exhaustive oracle uses — so a pass that happens to cover the whole
//! neighbourhood selects *exactly* the oracle's move (property-tested),
//! and partial passes differ from it only by their subset, never by
//! scan order.
//!
//! [`scan_quota`] derives the per-pass scan size from the remaining
//! budget, so steepest descent becomes *best-of-scanned*: rather than
//! spending the whole budget on one pass, a descent gets
//! [`PASS_DIVISOR`]-ish passes' worth of commits out of the same
//! budget.

use phonoc_core::{Mapping, Move, NeighborhoodPolicy, OptContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The admitted move list: every position pair `(a, b)` with `a < b`
/// where at least one side hosts a task (swapping two free tiles is a
/// no-op for the objective and is excluded). This canonical order is
/// the [`NeighborhoodPolicy::Exhaustive`] stream and the oracle the
/// property tests compare the other streams against.
#[must_use]
pub fn admitted_moves(tasks: usize, tiles: usize) -> Vec<Move> {
    let mut moves = Vec::new();
    for a in 0..tasks.min(tiles) {
        for b in (a + 1)..tiles {
            moves.push(Move::Swap(a, b));
        }
    }
    moves
}

/// Largest admitted-list size [`NeighborhoodPolicy::Auto`] still scans
/// exhaustively: 4 096 covers every mesh up to 8×8 (64 tiles = 2 016
/// pairs, where PR 3's sweep showed full scans still descend within the
/// paper's budgets) and tips 12×12 (10 296 pairs) and beyond into
/// sampling.
pub const AUTO_EXHAUSTIVE_MAX_PAIRS: usize = 4096;

/// Starting Manhattan radius of [`NeighborhoodPolicy::Locality`]
/// streams: radius 2 admits the two-ring around each displaced tile —
/// enough moves to descend on, few enough that deltas stay cheap.
pub const LOCALITY_START_RADIUS: usize = 2;

/// Descent passes a scan quota aims to fit into the remaining budget
/// (see [`scan_quota`]).
pub const PASS_DIVISOR: usize = 8;

/// Floor on the per-pass scan quota: below this, best-of-scanned is too
/// noisy to descend reliably.
pub const MIN_SCAN: usize = 32;

/// Per-pass scan quota for a budget-aware descent: spreads the
/// remaining budget (in full-evaluation-equivalents) over
/// [`PASS_DIVISOR`] passes, floored at [`MIN_SCAN`] and capped at the
/// stream's admitted-pair count. Peeks usually cost a fraction of a
/// full evaluation, so a descent typically fits many more than
/// `PASS_DIVISOR` passes — the divisor just guarantees the *first*
/// passes cannot consume everything even if every peek routes full.
///
/// The floor is itself **budget-aware**: when fewer than [`MIN_SCAN`]
/// evaluations remain — the norm for short portfolio lane rounds,
/// whose per-round allotments can be a handful of evaluations — the
/// quota drops to the remaining budget instead of demanding 32 scans
/// the ledger can't pay for. A fixed floor made every starved round
/// spend its entire allotment on one over-wide scan; clamping to
/// `remaining` keeps even the smallest rounds making one honest pass.
#[must_use]
pub fn scan_quota(remaining: usize, admitted: usize) -> usize {
    (remaining / PASS_DIVISOR)
        .max(MIN_SCAN.min(remaining.max(1)))
        .min(admitted.max(1))
}

/// A budget-aware move stream over the admitted swap neighbourhood (see
/// the [module docs](self)).
#[derive(Debug, Clone)]
pub struct Neighborhood {
    /// The full admitted list in canonical order.
    admitted: Vec<Move>,
    /// The resolved policy — never [`NeighborhoodPolicy::Auto`].
    kind: NeighborhoodPolicy,
    /// The stream's private RNG (seeded once at construction).
    rng: StdRng,
    /// Sampling pool: indices into `admitted` the next pass draws from
    /// (all of them for `Sampled`; rebuilt per pass against the cursor
    /// mapping for `Locality`; unused for `Exhaustive`).
    pool: Vec<u32>,
    /// Flat `tiles × tiles` Manhattan-distance table (`Locality` only).
    tile_dist: Vec<u16>,
    /// Tile count (row stride of `tile_dist`).
    tiles: usize,
    /// Current `Locality` radius.
    radius: usize,
    /// Largest distance any tile pair spans (widening stops here).
    max_dist: usize,
    /// Output buffer for sampled passes.
    buf: Vec<Move>,
}

impl Neighborhood {
    /// Builds the stream for the context's problem under the context's
    /// [`NeighborhoodPolicy`], drawing the stream seed from the
    /// context's seeded RNG. Exactly one `u64` is drawn under *every*
    /// policy, so runs under different policies see the identical
    /// sequence of restart mappings — score differences between
    /// policies are attributable to the neighbourhood alone.
    #[must_use]
    pub fn new(ctx: &mut OptContext<'_>) -> Neighborhood {
        let policy = ctx.neighborhood_policy();
        let seed = ctx.rng().gen_range(0..=u64::MAX);
        Neighborhood::with_policy(ctx, policy, seed)
    }

    /// Builds the stream under an explicit policy and seed (the form
    /// the property tests drive directly).
    #[must_use]
    pub fn with_policy(
        ctx: &OptContext<'_>,
        policy: NeighborhoodPolicy,
        seed: u64,
    ) -> Neighborhood {
        let tiles = ctx.tile_count();
        let admitted = admitted_moves(ctx.task_count(), tiles);
        let kind = match policy {
            NeighborhoodPolicy::Auto => {
                if admitted.len() <= AUTO_EXHAUSTIVE_MAX_PAIRS {
                    NeighborhoodPolicy::Exhaustive
                } else {
                    NeighborhoodPolicy::Sampled
                }
            }
            pinned => pinned,
        };
        // Locality needs tile-pair distances; the swap positions are
        // permutation slots, so which *tiles* a move exchanges depends
        // on the cursor mapping — only the tile-pair table is static.
        let tile_dist: Vec<u16> = if kind == NeighborhoodPolicy::Locality {
            let mut table = Vec::with_capacity(tiles * tiles);
            for a in 0..tiles {
                for b in 0..tiles {
                    table.push(ctx.tile_distance(a, b) as u16);
                }
            }
            table
        } else {
            Vec::new()
        };
        let max_dist = tile_dist.iter().copied().max().unwrap_or(0) as usize;
        let mut nbhd = Neighborhood {
            admitted,
            kind,
            rng: StdRng::seed_from_u64(seed),
            pool: Vec::new(),
            tile_dist,
            tiles,
            radius: LOCALITY_START_RADIUS,
            max_dist,
            buf: Vec::new(),
        };
        if nbhd.kind == NeighborhoodPolicy::Sampled {
            nbhd.pool.extend(0..nbhd.admitted.len() as u32);
        }
        nbhd
    }

    /// The policy the stream resolved to (never
    /// [`NeighborhoodPolicy::Auto`]).
    #[must_use]
    pub fn resolved(&self) -> NeighborhoodPolicy {
        self.kind
    }

    /// Size of the full admitted neighbourhood.
    #[must_use]
    pub fn admitted_len(&self) -> usize {
        self.admitted.len()
    }

    /// The current `Locality` radius, if the stream is
    /// distance-restricted.
    #[must_use]
    pub fn radius(&self) -> Option<usize> {
        (self.kind == NeighborhoodPolicy::Locality).then_some(self.radius)
    }

    /// The moves to scan this pass. `Exhaustive` returns the whole
    /// admitted list in canonical order (the quota is ignored — budget
    /// truncation inside the peek scan keeps the original semantics).
    /// `Sampled` returns up to `quota` distinct admitted moves drawn
    /// uniformly without replacement, fresh every pass. `Locality`
    /// first rebuilds its within-radius pool against the **current
    /// cursor mapping** — a swap qualifies when the two tiles it
    /// exchanges (`perm[a]`, `perm[b]`) lie within the radius — then
    /// samples up to `quota` of it. Sampled subsets are emitted in
    /// canonical admitted order (see the [module docs](self) on
    /// plateau tie-breaking).
    ///
    /// # Panics
    ///
    /// `Locality` panics if the context has no cursor (call
    /// [`OptContext::set_current`] first — the pass is defined relative
    /// to the mapping being descended from).
    pub fn pass(&mut self, ctx: &OptContext<'_>, quota: usize) -> &[Move] {
        match self.kind {
            NeighborhoodPolicy::Exhaustive | NeighborhoodPolicy::Auto => return &self.admitted,
            NeighborhoodPolicy::Sampled => {}
            NeighborhoodPolicy::Locality => {
                let mapping = ctx
                    .current_mapping()
                    .expect("locality pass without a cursor");
                self.rebuild_locality_pool(mapping);
            }
        }
        let k = quota.min(self.pool.len());
        // Partial Fisher–Yates over the pool: the first `k` slots
        // become a uniform k-subset (any starting arrangement of the
        // pool yields a uniform subset, so the sort below does not
        // bias the next pass).
        for i in 0..k {
            let j = self.rng.gen_range(i..self.pool.len());
            self.pool.swap(i, j);
        }
        self.pool[..k].sort_unstable();
        self.buf.clear();
        self.buf
            .extend(self.pool[..k].iter().map(|&i| self.admitted[i as usize]));
        &self.buf
    }

    /// One uniformly drawn admitted move — the trajectory-strategy
    /// entry point (simulated annealing), which proposes single moves
    /// instead of scanning passes. Deliberately **ignores the locality
    /// radius**: a Metropolis walk needs a fixed global proposal kernel
    /// for its acceptance rule to mean anything across temperatures, so
    /// under every policy this is uniform over the admitted
    /// (task-bearing) pairs. Returns `None` only when the neighbourhood
    /// is empty.
    pub fn draw(&mut self) -> Option<Move> {
        if self.admitted.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..self.admitted.len());
        Some(self.admitted[i])
    }

    /// One policy-respecting admitted move for a **population
    /// individual** — the GA mutation kernel. Unlike [`Neighborhood::draw`]
    /// (the Metropolis proposal kernel, deliberately global), this draw
    /// honours the locality radius: under
    /// [`NeighborhoodPolicy::Locality`] the move is drawn uniformly
    /// from the swaps whose two exchanged tiles lie within the current
    /// radius **under `mapping`** (population strategies have no
    /// cursor, so the caller supplies the individual being mutated),
    /// falling back to a uniform admitted draw when no pair is that
    /// close. Under every other policy the admitted neighbourhood *is*
    /// the policy's move set for a single draw, so this is a uniform
    /// admitted draw — still an upgrade over `Mapping::random_swap`,
    /// which wastes mutations on objective-invisible free–free swaps.
    /// Returns `None` only when the neighbourhood is empty.
    pub fn draw_for(&mut self, mapping: &Mapping) -> Option<Move> {
        if self.kind != NeighborhoodPolicy::Locality {
            return self.draw();
        }
        self.rebuild_locality_pool(mapping);
        if self.pool.is_empty() {
            return self.draw();
        }
        let i = self.rng.gen_range(0..self.pool.len());
        Some(self.admitted[self.pool[i] as usize])
    }

    /// Rebuilds the within-radius admission pool against `mapping` —
    /// the one definition of "within the locality radius" shared by
    /// scan passes ([`Neighborhood::pass`], against the cursor) and
    /// single draws ([`Neighborhood::draw_for`], against the mutated
    /// individual): a swap qualifies when the two tiles it exchanges
    /// (`perm[a]`, `perm[b]`) lie within the current radius.
    fn rebuild_locality_pool(&mut self, mapping: &Mapping) {
        let perm = mapping.permutation();
        self.pool.clear();
        for (i, &mv) in self.admitted.iter().enumerate() {
            let Move::Swap(a, b) = mv else { continue };
            let d = self.tile_dist[perm[a].0 * self.tiles + perm[b].0];
            if d as usize <= self.radius {
                self.pool.push(i as u32);
            }
        }
    }

    /// Reacts to a dry scan (no improving move found): `Locality`
    /// doubles its radius and reports `true` (a rescan will see new
    /// pairs) until the whole admitted neighbourhood is covered;
    /// `Sampled` and `Exhaustive` report `false` — a dry pass there
    /// means a (probable, resp. proven) local optimum.
    pub fn widen(&mut self) -> bool {
        if self.kind != NeighborhoodPolicy::Locality || self.radius >= self.max_dist {
            return false;
        }
        self.radius = (self.radius * 2).min(self.max_dist);
        true
    }

    /// Reacts to a committed improvement: `Locality` narrows back to
    /// its start radius (the classic variable-neighbourhood-descent
    /// reset — after a successful move, cheap local repairs are worth
    /// trying first again). No-op for the other streams.
    pub fn notify_improved(&mut self) {
        if self.kind == NeighborhoodPolicy::Locality {
            self.radius = LOCALITY_START_RADIUS;
        }
    }

    /// Resets the stream for a fresh descent (fresh random restart):
    /// `Locality` narrows back to the start radius. Sampling state is
    /// deliberately *not* re-seeded — successive restarts keep drawing
    /// fresh subsets.
    pub fn reset(&mut self) {
        self.notify_improved();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_problem;
    use phonoc_core::OptContext;

    #[test]
    fn admitted_list_excludes_free_free_pairs() {
        let moves = admitted_moves(3, 5);
        assert!(moves.iter().all(|m| match *m {
            Move::Swap(a, b) => a < 3 && a < b && b < 5,
            Move::Relocate { .. } => false,
        }));
        // 3 task rows against all later positions: 4 + 3 + 2.
        assert_eq!(moves.len(), 9);
    }

    #[test]
    fn auto_resolves_by_admitted_size() {
        let p = tiny_problem();
        let ctx = OptContext::new(&p, 10, 0);
        // 3×3 PIP: 8 tasks on 9 tiles = well under the threshold.
        let n = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Auto, 1);
        assert_eq!(n.resolved(), NeighborhoodPolicy::Exhaustive);
    }

    #[test]
    fn exhaustive_pass_is_the_admitted_oracle() {
        let p = tiny_problem();
        let ctx = OptContext::new(&p, 10, 0);
        let mut n = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Exhaustive, 7);
        let oracle = admitted_moves(p.task_count(), p.tile_count());
        assert_eq!(n.pass(&ctx, 1), &oracle[..], "quota must not truncate");
        assert_eq!(n.pass(&ctx, usize::MAX), &oracle[..]);
        assert!(!n.widen());
    }

    #[test]
    fn scan_quota_bounds() {
        assert_eq!(scan_quota(1_500, 32_640), 187);
        assert_eq!(scan_quota(10_000, 120), 120);
        assert_eq!(scan_quota(0, 0), 1);
    }

    #[test]
    fn scan_quota_floor_is_budget_aware() {
        // Plenty of budget: the classic MIN_SCAN floor applies.
        assert_eq!(scan_quota(256, 32_640), MIN_SCAN);
        // Small remaining budgets — short portfolio lane rounds — clamp
        // the floor to what the ledger can actually pay for.
        assert_eq!(scan_quota(10, 32_640), 10);
        assert_eq!(scan_quota(1, 32_640), 1);
        assert_eq!(scan_quota(31, 32_640), 31);
        // Exactly at the floor: unchanged.
        assert_eq!(scan_quota(MIN_SCAN, 32_640), MIN_SCAN);
        // A zero remainder still scans one move (the admitted cap
        // already guaranteed a nonzero quota; keep that invariant).
        assert_eq!(scan_quota(0, 32_640), 1);
        // The admitted cap still wins over the clamped floor.
        assert_eq!(scan_quota(10, 4), 4);
    }

    #[test]
    fn draw_for_respects_the_locality_radius() {
        let p = tiny_problem();
        let mut ctx = OptContext::new(&p, 10, 0);
        let mut n = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Locality, 9);
        let admitted = admitted_moves(p.task_count(), p.tile_count());
        let mapping = ctx.random_mapping();
        let radius = n.radius().expect("locality stream has a radius");
        // The 3×3 mesh has pairs beyond radius 2, so a within-radius
        // pool exists and the fallback never triggers here.
        for _ in 0..100 {
            let mv = n.draw_for(&mapping).expect("non-empty neighbourhood");
            assert!(admitted.contains(&mv));
            let Move::Swap(a, b) = mv else { unreachable!() };
            let perm = mapping.permutation();
            assert!(
                ctx.tile_distance(perm[a].0, perm[b].0) <= radius,
                "mutation {mv:?} exceeds radius {radius} for this individual"
            );
        }
        // Non-locality streams: draw_for is the plain admitted draw.
        let mut n = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Sampled, 9);
        for _ in 0..20 {
            assert!(admitted.contains(&n.draw_for(&mapping).unwrap()));
        }
    }

    #[test]
    fn draw_emits_admitted_moves_only() {
        let p = tiny_problem();
        let ctx = OptContext::new(&p, 10, 0);
        let admitted = admitted_moves(p.task_count(), p.tile_count());
        for policy in [
            NeighborhoodPolicy::Sampled,
            NeighborhoodPolicy::Locality,
            NeighborhoodPolicy::Exhaustive,
        ] {
            let mut n = Neighborhood::with_policy(&ctx, policy, 3);
            for _ in 0..50 {
                let mv = n.draw().expect("non-empty neighbourhood");
                assert!(admitted.contains(&mv), "{policy:?} drew {mv:?}");
            }
        }
    }
}
