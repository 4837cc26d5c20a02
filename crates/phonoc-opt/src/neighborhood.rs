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
//!   radius). The within-radius pool is defined against the live
//!   mapping on every pass — it changes with every committed move —
//!   through the grid distance between the tiles the two positions
//!   hold (wrap-around links ignored); fully widened, it is simply
//!   every admitted pair. The radius widens adaptively (doubling) when
//!   a scan goes dry and narrows back on every committed improvement.
//!   Nearby swaps perturb fewer paths, so their deltas are cheaper —
//!   the same budget buys more probes — and grid embeddings improve
//!   mostly through local repairs.
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
//! A stream costs what it draws. Construction builds no move list —
//! moves live in the canonical index space of [`admitted_moves`], one
//! offset per admitted row — so it is O(tiles). What depends only on
//! the grid is built once per process and shared by every stream on
//! that `(width, tiles)`, the way the evaluator's score tables are
//! interned: the canonical list of packed position pairs (a stream's
//! admitted pairs are its prefix), and per radius of the widening
//! ladder one bitmask per tile (bit `u` of tile `t`'s mask is set iff
//! the two tiles lie within the radius) with the radius's count of near
//! tile pairs. Each part is built the first time any stream needs it
//! and then lives as long as the process: 8 KB of pairs and 0.5 KB of
//! masks per radius at 8×8. `Exhaustive` builds its move list on its
//! first pass and needs no tables; `Sampled` and a fully widened
//! `Locality` stream copy their prefix of the shared pair list into the
//! pool they draw from (cheaper than regenerating it, and a draw then
//! reads no second list).
//!
//! A locality pass below full radius never builds its pool and keeps no
//! state from earlier passes. Its size is the radius's near-pair count
//! less the near pairs among the tiles on free positions, so the
//! shuffle draws its ranks first; one forward walk over the rows then
//! counts each row against the tiles the earlier positions hold and
//! resolves the ranks that fall in it, stopping after the last one (see
//! [`Neighborhood::pass`]). Every path makes the same RNG calls and
//! emits the same moves as a partial Fisher–Yates over the
//! materialized pool, which the property tests replay.
//!
//! [`scan_quota`] derives the per-pass scan size from the remaining
//! budget, so steepest descent becomes *best-of-scanned*: rather than
//! spending the whole budget on one pass, a descent gets
//! [`PASS_DIVISOR`]-ish passes' worth of commits out of the same
//! budget.

use phonoc_core::{Mapping, Move, NeighborhoodPolicy, OptContext};
use phonoc_topo::TileId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The admitted move list: every position pair `(a, b)` with `a < b`
/// where at least one side hosts a task (swapping two free tiles is a
/// no-op for the objective and is excluded), in canonical order — row
/// `a` against every later position `b`. Streams do not hold this list:
/// they work in its index space and build only the moves a pass emits
/// (an [`NeighborhoodPolicy::Exhaustive`] pass emits all of them, in
/// this order). The list is the oracle the property tests compare
/// every stream against.
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
    /// The canonical index space of [`admitted_moves`]: row `a`
    /// (position `a` against every later position) holds the indices
    /// `row_start[a]..row_start[a + 1]`, so index `i` of row `a` is
    /// `Move::Swap(a, a + 1 + i - row_start[a])`. One entry per row
    /// plus the admitted count.
    row_start: Vec<u32>,
    /// Tile count (the positions a row pairs against).
    tiles: usize,
    /// The resolved policy — never [`NeighborhoodPolicy::Auto`].
    kind: NeighborhoodPolicy,
    /// The stream's private RNG (seeded once at construction).
    rng: StdRng,
    /// The grid's shared tables (`Sampled` and `Locality` only).
    tables: Option<Arc<StreamTables>>,
    /// A copy of the shared admitted pairs, made by the first pass that
    /// draws from every pair. `Sampled` shuffles it in place, a pool
    /// persistent across passes; `Locality` draws from it when fully
    /// widened and restores its order after each pass.
    pairs: Vec<u32>,
    /// `Locality`: the ranks `0..len` in order, grown to the largest
    /// pool a pass below full radius has drawn from. Those passes draw
    /// from it and restore its order.
    ranks: Vec<u32>,
    /// `Locality` scratch: a pass's drawn ranks, ascending.
    pool: Vec<u32>,
    /// `Locality` scratch: a pass's swaps, undone after its draws.
    swaps: Vec<(u32, u32)>,
    /// `Locality` scratch: the position of each tile under the mapping
    /// being walked.
    position: Vec<u32>,
    /// `Locality` scratch: one bit per tile, the tiles the positions
    /// walked so far hold.
    seen: Vec<u64>,
    /// `Locality` scratch: one bit per position, the partners of the
    /// row being resolved.
    partners: Vec<u64>,
    /// Current `Locality` radius.
    radius: usize,
    /// Largest Manhattan distance any tile pair spans (widening stops
    /// here).
    max_dist: usize,
    /// Output buffer of every pass (for `Exhaustive`, the admitted
    /// list, written by the first pass).
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
    /// the property tests drive directly). Costs O(tiles): no move list
    /// is built.
    ///
    /// # Panics
    ///
    /// If the problem has more than 65 536 tiles: streams pack the two
    /// positions of a pair in one 32-bit word (see `pair`). No problem
    /// that large fits in memory.
    #[must_use]
    pub fn with_policy(
        ctx: &OptContext<'_>,
        policy: NeighborhoodPolicy,
        seed: u64,
    ) -> Neighborhood {
        let tiles = ctx.tile_count();
        assert!(tiles <= 1 << 16, "move streams hold positions in 16 bits");
        let row_start = row_starts(ctx.task_count().min(tiles), tiles);
        let kind = match policy {
            NeighborhoodPolicy::Auto => {
                if row_start[row_start.len() - 1] as usize <= AUTO_EXHAUSTIVE_MAX_PAIRS {
                    NeighborhoodPolicy::Exhaustive
                } else {
                    NeighborhoodPolicy::Sampled
                }
            }
            pinned => pinned,
        };
        let topo = ctx.problem().topology();
        let tables = (kind != NeighborhoodPolicy::Exhaustive)
            .then(|| StreamTables::get(topo.width(), tiles));
        Neighborhood {
            row_start,
            tiles,
            kind,
            rng: StdRng::seed_from_u64(seed),
            tables,
            pairs: Vec::new(),
            ranks: Vec::new(),
            pool: Vec::new(),
            swaps: Vec::new(),
            position: Vec::new(),
            seen: Vec::new(),
            partners: Vec::new(),
            radius: LOCALITY_START_RADIUS,
            // Every topology lays its tiles out row-major on the full
            // width × height grid, so opposite corners span the widest
            // pair.
            max_dist: topo.width() + topo.height() - 2,
            buf: Vec::new(),
        }
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
        self.row_start[self.rows()] as usize
    }

    /// Positions that head admitted rows (`min(tasks, tiles)`).
    fn rows(&self) -> usize {
        self.row_start.len() - 1
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
    /// draws up to `quota` moves the same way from its within-radius
    /// pool under the **current cursor mapping**: the swaps whose two
    /// exchanged tiles (`perm[a]`, `perm[b]`) lie within the radius,
    /// in canonical order (fully widened, every admitted pair). Below
    /// full radius the pass draws ranks into that pool without building
    /// it and resolves them in one forward walk over the rows, which
    /// stops after the last drawn rank (see `locality_draw`). Sampled
    /// subsets are emitted in canonical admitted order (see the
    /// [module docs](self) on plateau tie-breaking).
    ///
    /// # Panics
    ///
    /// `Locality` panics if the context has no cursor (call
    /// [`OptContext::set_current`] first — the pass is defined relative
    /// to the mapping being descended from).
    pub fn pass(&mut self, ctx: &OptContext<'_>, quota: usize) -> &[Move] {
        match self.kind {
            NeighborhoodPolicy::Exhaustive | NeighborhoodPolicy::Auto => {
                if self.buf.is_empty() {
                    self.buf = admitted_moves(self.rows(), self.tiles);
                }
            }
            NeighborhoodPolicy::Sampled => {
                if self.pairs.is_empty() {
                    let tables = self.tables.as_deref().expect("sampled streams hold tables");
                    self.pairs
                        .extend_from_slice(&tables.pairs()[..self.admitted_len()]);
                }
                let k = quota.min(self.pairs.len());
                shuffle_prefix(&mut self.rng, &mut self.pairs, k);
                self.buf.clear();
                self.buf.extend(self.pairs[..k].iter().map(|&p| unpair(p)));
            }
            NeighborhoodPolicy::Locality => {
                let mapping = ctx
                    .current_mapping()
                    .expect("locality pass without a cursor");
                self.locality_draw(mapping, quota);
            }
        }
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
        let admitted = self.admitted_len();
        if admitted == 0 {
            return None;
        }
        let i = self.rng.gen_range(0..admitted) as u32;
        Some(swap_at(&self.row_start, i))
    }

    /// One policy-respecting admitted move for a **population
    /// individual** — the GA mutation kernel. Unlike [`Neighborhood::draw`]
    /// (the Metropolis proposal kernel, deliberately global), this draw
    /// honours the locality radius: under
    /// [`NeighborhoodPolicy::Locality`] the move is drawn uniformly
    /// from the swaps whose two exchanged tiles lie within the current
    /// radius **under `mapping`** (population strategies have no
    /// cursor, so the caller supplies the individual being mutated) —
    /// a one-move pass — falling back to a uniform admitted draw when
    /// no pair is that close. Under every other policy the admitted
    /// neighbourhood *is* the policy's move set for a single draw, so
    /// this is a uniform admitted draw — still an upgrade over
    /// `Mapping::random_swap`, which wastes mutations on
    /// objective-invisible free–free swaps. Returns `None` only when
    /// the neighbourhood is empty.
    pub fn draw_for(&mut self, mapping: &Mapping) -> Option<Move> {
        if self.kind != NeighborhoodPolicy::Locality {
            return self.draw();
        }
        self.locality_draw(mapping, 1);
        match self.buf.first() {
            Some(&mv) => Some(mv),
            None => self.draw(),
        }
    }

    /// Writes to `buf` up to `quota` moves drawn from the within-radius
    /// pool under `mapping` — the one definition of "within the
    /// locality radius" shared by scan passes ([`Neighborhood::pass`],
    /// against the cursor) and single draws
    /// ([`Neighborhood::draw_for`], against the mutated individual): a
    /// swap qualifies when the two tiles it exchanges (`perm[a]`,
    /// `perm[b]`) lie within the current radius. The draws are a
    /// partial Fisher–Yates over the pool in canonical order, emitted
    /// sorted back into that order.
    ///
    /// Below full radius the pool is never built. Its size is known
    /// up front: it holds every near tile pair (the radius's count in
    /// the shared tables) except those whose two tiles both sit on
    /// free positions, which are counted against the radius's tile
    /// masks. So the ranks are drawn first, over a rank list the draw
    /// restores. One forward walk over the rows then resolves them:
    /// with `seen` holding the tiles on positions up to `a`, row `a`'s
    /// partners are the tiles in `mask[perm[a]] & !seen`, so its pool
    /// share is one masked popcount, and a drawn rank that falls in the
    /// row is its offset-th partner in position order, selected from
    /// the partners' positions (set through the mapping's inverse). The
    /// walk stops after the last drawn rank, so a pass costs its draws
    /// plus the rows up to that rank: about half of them at quota 3,
    /// and a third for one draw. Fully widened, every admitted pair
    /// qualifies whatever the mapping, so the draws run over the
    /// stream's copy of the canonical pair list.
    fn locality_draw(&mut self, mapping: &Mapping, quota: usize) {
        self.buf.clear();
        let tables = self
            .tables
            .as_deref()
            .expect("locality streams hold tables");
        if self.radius >= self.max_dist {
            if self.pairs.is_empty() {
                self.pairs
                    .extend_from_slice(&tables.pairs()[..self.admitted_len()]);
            }
            let k = quota.min(self.pairs.len());
            draw_restored(
                &mut self.rng,
                &mut self.pairs,
                k,
                &mut self.swaps,
                &mut self.pool,
            );
            self.buf.extend(self.pool.iter().map(|&p| unpair(p)));
            return;
        }
        let (perm, rows) = (mapping.permutation(), self.rows());
        let near = tables.radius(self.radius);
        let words = self.tiles.div_ceil(64);
        let mask_of = |t: usize| &near.masks[t * words..][..words];
        let seen = &mut self.seen;
        seen.clear();
        seen.resize(words, 0);
        let mut free_pairs = 0;
        for t in &perm[rows..] {
            free_pairs += common(mask_of(t.0), seen);
            set(seen, t.0);
        }
        let n = near.pairs - free_pairs as usize;
        if self.ranks.len() < n {
            let len = self.ranks.len() as u32;
            self.ranks.extend(len..n as u32);
        }
        let ranks = &mut self.ranks[..n];
        draw_restored(
            &mut self.rng,
            ranks,
            quota.min(n),
            &mut self.swaps,
            &mut self.pool,
        );
        if self.pool.is_empty() {
            return;
        }
        self.position.resize(self.tiles, 0);
        for (b, t) in perm.iter().enumerate() {
            self.position[t.0] = b as u32;
        }
        self.partners.resize(words, 0);
        let rows = Rows {
            perm: &perm[..rows],
            masks: &near.masks,
            words,
            position: &self.position,
        };
        rows.resolve(&self.pool, seen, &mut self.partners, &mut self.buf);
    }

    /// Reacts to a dry scan (no improving move found) and records it on
    /// `ctx` (the dry scan at the current radius, then any widening):
    /// `Locality` doubles its radius and reports `true` (a rescan will
    /// see new pairs) until the whole admitted neighbourhood is covered;
    /// `Sampled` and `Exhaustive` report `false` — a dry pass there
    /// means a (probable, resp. proven) local optimum.
    pub fn widen(&mut self, ctx: &mut OptContext<'_>) -> bool {
        ctx.note_scan_dry(self.radius().unwrap_or(0));
        if self.kind != NeighborhoodPolicy::Locality || self.radius >= self.max_dist {
            return false;
        }
        self.radius = (self.radius * 2).min(self.max_dist);
        ctx.note_widened(self.radius);
        true
    }

    /// Reacts to a committed improvement: `Locality` narrows back to
    /// its start radius (the classic variable-neighbourhood-descent
    /// reset — after a successful move, cheap local repairs are worth
    /// trying first again) and records the narrowing on `ctx`. No-op
    /// for the other streams.
    pub fn notify_improved(&mut self, ctx: &mut OptContext<'_>) {
        if self.kind == NeighborhoodPolicy::Locality && self.radius > LOCALITY_START_RADIUS {
            self.radius = LOCALITY_START_RADIUS;
            ctx.note_narrowed(self.radius);
        }
    }

    /// Resets the stream for a fresh descent (fresh random restart):
    /// `Locality` narrows back to the start radius, unrecorded. Sampling
    /// state is deliberately *not* re-seeded — successive restarts keep
    /// drawing fresh subsets.
    pub fn reset(&mut self) {
        self.radius = LOCALITY_START_RADIUS;
    }
}

/// The rows of one locality pass below full radius: the tiles the
/// admitted rows' positions hold, the radius's tile masks (`words`
/// words per tile) and each tile's position under the same mapping.
struct Rows<'a> {
    perm: &'a [TileId],
    masks: &'a [u64],
    words: usize,
    position: &'a [u32],
}

impl Rows<'_> {
    /// Appends the moves at the pool ranks `drawn` (ascending, each
    /// below the pool size) to `out`, in one forward walk that stops
    /// after the row of the last rank. `seen` and `partners` hold
    /// `words` words each; `partners` must be clear, and is left clear.
    fn resolve(&self, drawn: &[u32], seen: &mut [u64], partners: &mut [u64], out: &mut Vec<Move>) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: `resolve_popcnt` only enables `popcnt`, which this
            // CPU has.
            return unsafe { self.resolve_popcnt(drawn, seen, partners, out) };
        }
        self.resolve_by_words(drawn, seen, partners, out);
    }

    /// [`Rows::resolve`] compiled with the `popcnt` instruction: a walk
    /// is mostly row counts, and with the portable bit-twiddling
    /// popcount the `neighborhood_pass` locality passes took 1.6–1.9×
    /// as long at 16×16 (four words a mask) and 1.1–1.25× at 8×8.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    fn resolve_popcnt(
        &self,
        drawn: &[u32],
        seen: &mut [u64],
        partners: &mut [u64],
        out: &mut Vec<Move>,
    ) {
        self.resolve_by_words(drawn, seen, partners, out);
    }

    /// The walk: on up to 64 tiles every bitset is one word and lives
    /// in a register ([`Rows::walk_word`]), past that in `seen` and
    /// `partners` ([`Rows::walk`]).
    #[inline(always)]
    fn resolve_by_words(
        &self,
        drawn: &[u32],
        seen: &mut [u64],
        partners: &mut [u64],
        out: &mut Vec<Move>,
    ) {
        if self.words == 1 {
            self.walk_word(drawn, out);
        } else {
            self.walk(drawn, seen, partners, out);
        }
    }

    /// [`Rows::walk`] on up to 64 tiles, with every bitset one word in a
    /// register. On the 8×8 `neighborhood_pass` cases, [`Rows::walk`]
    /// compiled for one word takes 1.01–1.27× its time.
    #[inline(always)]
    fn walk_word(&self, drawn: &[u32], out: &mut Vec<Move>) {
        let tiles = self.position.len();
        let valid = !0 >> (64 - tiles);
        let (mut seen, mut first, mut next) = (0u64, 0, 0);
        for (a, t) in self.perm.iter().enumerate() {
            seen |= 1 << t.0;
            let mask = self.masks[t.0];
            let row = mask & !seen;
            let end = first + row.count_ones();
            if drawn[next] < end {
                let flip = 2 * (end - first) as usize > tiles - 1 - a;
                let mut bits = if flip { !mask & !seen & valid } else { row };
                let mut partners = 0u64;
                while bits != 0 {
                    partners |= 1 << self.position[bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                }
                if flip {
                    partners = !partners & valid & !0 << a << 1;
                }
                while let Some(&rank) = drawn.get(next).filter(|&&r| r < end) {
                    out.push(Move::Swap(a, select(partners, rank - first)));
                    next += 1;
                }
                if next == drawn.len() {
                    return;
                }
            }
            first = end;
        }
    }

    /// The walk at `words` words a mask (see `locality_draw`).
    #[inline(always)]
    fn walk(&self, drawn: &[u32], seen: &mut [u64], partners: &mut [u64], out: &mut Vec<Move>) {
        let words = self.words;
        let (seen, partners) = (&mut seen[..words], &mut partners[..words]);
        seen.fill(0);
        // Positions and tiles alike run up to `tiles`: `last` keeps the
        // bits of the last word below it.
        let tiles = self.position.len();
        let last = !0 >> (words * 64 - tiles);
        let (mut first, mut next) = (0, 0);
        for (a, t) in self.perm.iter().enumerate() {
            set(seen, t.0);
            let mask = &self.masks[t.0 * words..][..words];
            let row = |w: usize| mask[w] & !seen[w];
            let end = first + (0..words).map(|w| row(w).count_ones()).sum::<u32>();
            if drawn[next] < end {
                // The row's partners by position: through the inverse
                // from the row's tiles or, when those are most of the
                // later positions' tiles, from the rest of them, whose
                // positions then flip within the later positions.
                let flip = 2 * (end - first) as usize > tiles - 1 - a;
                let pick = |w: usize| {
                    let rest = !mask[w] & !seen[w] & if w + 1 == words { last } else { !0 };
                    if flip {
                        rest
                    } else {
                        row(w)
                    }
                };
                let later = |w: usize| {
                    let above = match (a + 1).checked_sub(w * 64) {
                        Some(skip) => (!0u64).checked_shl(skip as u32).unwrap_or(0),
                        None => !0,
                    };
                    above & if w + 1 == words { last } else { !0 }
                };
                for w in 0..words {
                    let mut bits = pick(w);
                    while bits != 0 {
                        let u = w * 64 + bits.trailing_zeros() as usize;
                        set(partners, self.position[u] as usize);
                        bits &= bits - 1;
                    }
                }
                if flip {
                    for (w, p) in partners.iter_mut().enumerate() {
                        *p = !*p & later(w);
                    }
                }
                // A rank's offset in the row picks its partner: the word
                // holding it, then the bit within that word.
                while let Some(&rank) = drawn.get(next).filter(|&&r| r < end) {
                    let (mut skip, mut word) = (rank - first, 0);
                    while skip >= partners[word].count_ones() {
                        skip -= partners[word].count_ones();
                        word += 1;
                    }
                    out.push(Move::Swap(a, word * 64 + select(partners[word], skip)));
                    next += 1;
                }
                partners.fill(0);
                if next == drawn.len() {
                    return;
                }
            }
            first = end;
        }
    }
}

/// What every stream on one grid shares (see the [module docs](self)):
/// tile ids are `y·width + x` on a `width`-wide grid of `tiles` tiles.
#[derive(Debug)]
struct StreamTables {
    width: usize,
    tiles: usize,
    /// Every pair of distinct positions (see [`pair`]) in canonical
    /// order: a stream with `rows` admitted rows admits the prefix of
    /// its first `rows` rows.
    pairs: OnceLock<Box<[u32]>>,
    /// One entry per radius of the widening ladder below the widest
    /// pair distance: `LOCALITY_START_RADIUS << i` at index `i`.
    radii: Box<[OnceLock<RadiusTable>]>,
}

/// One radius's tile masks (see [`radius_masks`]) and near pairs.
#[derive(Debug)]
struct RadiusTable {
    masks: Box<[u64]>,
    /// Unordered tile pairs within the radius:
    /// `(Σₜ popcount(mask[t]) − tiles) / 2`, a tile's mask holding the
    /// tile itself.
    pairs: usize,
}

/// Every grid's tables built in this process.
static STREAM_TABLES: Mutex<Vec<Arc<StreamTables>>> = Mutex::new(Vec::new());

impl StreamTables {
    /// The tables of a `width`-wide grid of `tiles` tiles: the
    /// registered ones, else new empty ones, registered. The registry's
    /// entries are never half-made, so a poisoned lock is taken as is.
    fn get(width: usize, tiles: usize) -> Arc<StreamTables> {
        let mut all = STREAM_TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = all.iter().find(|t| (t.width, t.tiles) == (width, tiles)) {
            return Arc::clone(t);
        }
        let max_dist = width + tiles / width - 2;
        let ladder = (0..)
            .take_while(|&i| LOCALITY_START_RADIUS << i < max_dist)
            .count();
        let tables = Arc::new(StreamTables {
            width,
            tiles,
            pairs: OnceLock::new(),
            radii: (0..ladder).map(|_| OnceLock::new()).collect(),
        });
        all.push(Arc::clone(&tables));
        tables
    }

    /// Every pair of distinct positions in canonical order, built on
    /// first use.
    fn pairs(&self) -> &[u32] {
        self.pairs.get_or_init(|| {
            let mut pairs = Vec::new();
            all_pairs(self.tiles, self.tiles, &mut pairs);
            pairs.into()
        })
    }

    /// The table of `radius`, a ladder radius below the widest pair
    /// distance, built on first use.
    fn radius(&self, radius: usize) -> &RadiusTable {
        let step = (radius / LOCALITY_START_RADIUS).trailing_zeros() as usize;
        debug_assert_eq!(LOCALITY_START_RADIUS << step, radius, "off the ladder");
        self.radii[step].get_or_init(|| {
            let masks = radius_masks(self.width, self.tiles, radius);
            let bits: usize = masks.iter().map(|m| m.count_ones() as usize).sum();
            RadiusTable {
                masks: masks.into(),
                pairs: (bits - self.tiles) / 2,
            }
        })
    }
}

/// The canonical index space of `rows` admitted rows over `tiles`
/// positions (see [`Neighborhood`]'s `row_start`): row `a` pairs
/// position `a` with the `tiles − 1 − a` later ones, so it starts at
/// `a·tiles − a(a+1)/2`.
fn row_starts(rows: usize, tiles: usize) -> Vec<u32> {
    (0..=rows)
        .map(|a| (a * tiles - a * (a + 1) / 2) as u32)
        .collect()
}

/// The move at admitted index `i`: row `a` is the last whose offset is
/// at most `i`.
fn swap_at(row_start: &[u32], i: u32) -> Move {
    let a = row_start.partition_point(|&s| s <= i) - 1;
    Move::Swap(a, a + 1 + (i - row_start[a]) as usize)
}

/// Admitted pair `(a, b)` packed into one word, `a` high: packed pairs
/// sort in canonical order. Positions fit in 16 bits (checked at
/// construction).
fn pair(a: usize, b: usize) -> u32 {
    (a << 16 | b) as u32
}

/// The move a [`pair`] packs.
fn unpair(p: u32) -> Move {
    Move::Swap((p >> 16) as usize, (p & 0xFFFF) as usize)
}

/// Appends every admitted pair of `rows` rows over `tiles` positions,
/// in canonical order.
fn all_pairs(rows: usize, tiles: usize, out: &mut Vec<u32>) {
    for a in 0..rows {
        out.extend((a + 1..tiles).map(|b| pair(a, b)));
    }
}

/// Partial Fisher–Yates of `k` draws over `pool`: the first `k` slots
/// become a uniform k-subset, sorted ascending (any starting
/// arrangement of the pool yields a uniform subset, so the sort does
/// not bias a persistent pool's next pass).
fn shuffle_prefix(rng: &mut StdRng, pool: &mut [u32], k: usize) {
    for i in 0..k {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool[..k].sort_unstable();
}

/// [`shuffle_prefix`] over `list` that leaves `list` as it found it:
/// the drawn k-subset goes to `out`, sorted ascending, and the swaps
/// (recorded in `swaps`) are undone in reverse. Costs O(k) whatever the
/// list's length.
fn draw_restored(
    rng: &mut StdRng,
    list: &mut [u32],
    k: usize,
    swaps: &mut Vec<(u32, u32)>,
    out: &mut Vec<u32>,
) {
    swaps.clear();
    for i in 0..k {
        let j = rng.gen_range(i..list.len());
        list.swap(i, j);
        swaps.push((i as u32, j as u32));
    }
    out.clear();
    out.extend_from_slice(&list[..k]);
    for &(i, j) in swaps.iter().rev() {
        list.swap(i as usize, j as usize);
    }
    out.sort_unstable();
}

/// The tile masks of `radius` on a row-major grid `width` tiles wide:
/// `⌈tiles/64⌉` words per tile, bit `u` of tile `t`'s mask set iff the
/// two tiles lie within `radius` of each other (Manhattan distance on
/// the grid); bits past the last tile stay clear. Tile ids are
/// `y·width + x`, so a mask is its tile's diamond laid out as one run
/// of bits per grid row. Row 0's diamonds are written run by run. Any
/// other tile's is the diamond of the tile one row before it, shifted
/// up by `width` bits, plus its run in row 0 while row 0 is within
/// `radius`. A build costs `O(tiles · words)` word operations, not a
/// distance test per tile pair.
fn radius_masks(width: usize, tiles: usize, radius: usize) -> Vec<u64> {
    let (words, height) = (tiles.div_ceil(64), tiles / width);
    let valid = !0 >> (words * 64 - tiles);
    let mut masks = vec![0; tiles * words];
    let mut t = 0;
    for y in 0..height {
        for x in 0..width {
            let (below, mask) = masks.split_at_mut(t * words);
            let mask = &mut mask[..words];
            let run = |mask: &mut [u64], v: usize| {
                let (reach, row) = (radius - y.abs_diff(v), v * width);
                let (lo, hi) = (x.saturating_sub(reach), (x + reach).min(width - 1));
                set_run(mask, row + lo, row + hi);
            };
            if y == 0 {
                for v in 0..=radius.min(height - 1) {
                    run(mask, v);
                }
            } else {
                shift_up(&below[(t - width) * words..], width, mask);
                mask[words - 1] &= valid;
                if y <= radius {
                    run(mask, 0);
                }
            }
            t += 1;
        }
    }
    masks
}

/// Sets `dst` to the bitset `src` shifted `bits` places up (towards
/// higher bits), dropping what passes the end of `dst`. `dst` starts
/// clear.
fn shift_up(src: &[u64], bits: usize, dst: &mut [u64]) {
    let (skip, s) = (bits / 64, bits % 64);
    for j in skip..dst.len() {
        let carry = match (s, j.checked_sub(skip + 1)) {
            (1.., Some(i)) => src[i] >> (64 - s),
            _ => 0,
        };
        dst[j] = src[j - skip] << s | carry;
    }
}

/// Sets bits `lo..=hi` of the bitset `words`.
fn set_run(words: &mut [u64], lo: usize, hi: usize) {
    let (first, last) = (lo / 64, hi / 64);
    let (head, tail) = (!0 << (lo % 64), !0 >> (63 - hi % 64));
    if first == last {
        words[first] |= head & tail;
    } else {
        words[first] |= head;
        words[first + 1..last].fill(!0);
        words[last] |= tail;
    }
}

/// Sets bit `t` of the bitset `words`.
fn set(words: &mut [u64], t: usize) {
    words[t / 64] |= 1 << (t % 64);
}

/// The index of the `k`-th lowest set bit of `bits` (from 0), which
/// has more than `k`: a binary search by halves, free of data-dependent
/// branches.
#[inline(always)]
fn select(mut bits: u64, mut k: u32) -> usize {
    let mut at = 0;
    for half in [32, 16, 8, 4, 2, 1] {
        let low = (bits & ((1 << half) - 1)).count_ones();
        let up = k >= low;
        k -= if up { low } else { 0 };
        at += if up { half } else { 0 };
        bits = if up { bits >> half } else { bits };
    }
    at
}

/// How many bits the bitsets `a` and `b` share.
fn common(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x & y).count_ones()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_problem;
    use phonoc_core::OptContext;

    /// Whether bit `t` of the bitset `words` is set.
    fn has(words: &[u64], t: usize) -> bool {
        words[t / 64] >> (t % 64) & 1 == 1
    }

    #[test]
    fn admitted_list_excludes_free_free_pairs() {
        let moves = admitted_moves(3, 5);
        assert!(moves
            .iter()
            .all(|&Move::Swap(a, b)| a < 3 && a < b && b < 5));
        // 3 task rows against all later positions: 4 + 3 + 2.
        assert_eq!(moves.len(), 9);
    }

    #[test]
    fn index_space_decodes_to_the_admitted_list() {
        // Fewer tasks than tiles, full grids (past 64 and 255 tiles)
        // and more tasks than tiles (clamped to the tile count): every
        // index decodes to the oracle's move at that index, and the
        // packed pairs unpack to the oracle in order.
        for (tasks, tiles) in [
            (3, 5),
            (8, 36),
            (9, 9),
            (64, 64),
            (144, 144),
            (256, 256),
            (12, 7),
        ] {
            let oracle = admitted_moves(tasks, tiles);
            let row_start = row_starts(tasks.min(tiles), tiles);
            assert_eq!(row_start[row_start.len() - 1] as usize, oracle.len());
            for (i, &mv) in oracle.iter().enumerate() {
                assert_eq!(
                    swap_at(&row_start, i as u32),
                    mv,
                    "{tasks} on {tiles}: index {i}"
                );
            }
            let mut pairs = Vec::new();
            all_pairs(tasks.min(tiles), tiles, &mut pairs);
            let moves: Vec<Move> = pairs.iter().map(|&p| unpair(p)).collect();
            assert_eq!(moves, oracle, "{tasks} tasks on {tiles} tiles");
            assert!(
                pairs.windows(2).all(|w| w[0] < w[1]),
                "pairs sort canonically"
            );
        }
        // A 9-ring's streams: the exhaustive pass is the oracle, and a
        // sampled pass covering every pair unpacks to it too.
        let p = phonoc_core::MappingProblem::new(
            phonoc_apps::synthetic::pipeline(7),
            phonoc_topo::Topology::ring(9, phonoc_phys::Length::from_mm(2.5)),
            phonoc_router::crux::crux_router(),
            Box::new(phonoc_route::RingRouting),
            phonoc_phys::PhysicalParameters::default(),
            phonoc_core::Objective::MaximizeWorstCaseSnr,
        )
        .unwrap();
        let ctx = OptContext::new(&p, 10, 0);
        let oracle = admitted_moves(7, 9);
        let mut n = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Exhaustive, 1);
        assert_eq!(n.pass(&ctx, 1), &oracle[..]);
        assert_eq!(n.admitted_len(), oracle.len());
        let mut n = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Sampled, 1);
        assert_eq!(n.pass(&ctx, usize::MAX), &oracle[..]);
    }

    #[test]
    fn radius_masks_hold_exactly_the_tiles_within_the_radius() {
        // One and several words per mask, a width past 64 (a ring's one
        // row), ragged last words, and radii from 0 to past the widest
        // pair; every bit against the distance, bits past the last tile
        // clear.
        for (width, height) in [
            (3usize, 3usize),
            (5, 3),
            (8, 8),
            (9, 9),
            (16, 16),
            (13, 7),
            (100, 1),
        ] {
            let tiles = width * height;
            let words = tiles.div_ceil(64);
            for radius in 0..=width + height {
                let masks = radius_masks(width, tiles, radius);
                assert_eq!(masks.len(), tiles * words);
                for (t, mask) in masks.chunks_exact(words).enumerate() {
                    for u in 0..words * 64 {
                        let near = u < tiles
                            && (t % width).abs_diff(u % width) + (t / width).abs_diff(u / width)
                                <= radius;
                        assert_eq!(has(mask, u), near, "{width}×{height} r{radius}: {t}, {u}");
                    }
                }
            }
        }
    }

    #[test]
    fn shared_tables_count_the_near_pairs_of_every_grid() {
        // Mesh, torus (its wrap links do not shorten the distance), ring
        // (one row past 64 tiles) and non-square grids: each ladder
        // radius's near-pair total against a count over every tile
        // pair, and the shared pair list against the admitted list.
        let pitch = phonoc_phys::Length::from_mm(2.5);
        for topo in [
            phonoc_topo::Topology::mesh(8, 8, pitch),
            phonoc_topo::Topology::mesh(16, 16, pitch),
            phonoc_topo::Topology::torus(4, 4, pitch),
            phonoc_topo::Topology::torus(9, 9, pitch),
            phonoc_topo::Topology::ring(9, pitch),
            phonoc_topo::Topology::ring(100, pitch),
            phonoc_topo::Topology::mesh(5, 3, pitch),
            phonoc_topo::Topology::mesh(13, 7, pitch),
        ] {
            let tiles = topo.tile_count();
            let tables = StreamTables::get(topo.width(), tiles);
            let distance = |t: usize, u: usize| {
                let (a, b) = (topo.coord(TileId(t)), topo.coord(TileId(u)));
                a.x.abs_diff(b.x) + a.y.abs_diff(b.y)
            };
            let max_dist = topo.width() + topo.height() - 2;
            let mut radius = LOCALITY_START_RADIUS;
            while radius < max_dist {
                let near = (0..tiles)
                    .flat_map(|t| (t + 1..tiles).map(move |u| (t, u)))
                    .filter(|&(t, u)| distance(t, u) <= radius)
                    .count();
                let name = topo.describe();
                assert_eq!(tables.radius(radius).pairs, near, "{name} r{radius}");
                radius *= 2;
            }
            // Every row count admits a prefix of the shared list.
            for rows in [1, tiles / 3, tiles - 1, tiles] {
                let admitted = admitted_moves(rows, tiles);
                let moves: Vec<Move> = tables.pairs()[..admitted.len()]
                    .iter()
                    .map(|&p| unpair(p))
                    .collect();
                assert_eq!(moves, admitted, "{} rows {rows}", topo.describe());
            }
            let again = StreamTables::get(topo.width(), tiles);
            assert!(Arc::ptr_eq(&tables, &again), "one table per grid");
        }
    }

    #[test]
    fn restored_draws_replay_the_shuffle_and_keep_the_list() {
        // Quotas up to the whole list, so later draws often land on
        // slots an earlier swap already moved; the list drawn from must
        // come back in order for the next pass.
        for n in [1usize, 2, 7, 50, 300] {
            for k in [1, 3, n / 2, n - 1, n].into_iter().filter(|&k| k <= n) {
                for seed in 0..40 {
                    let (mut dense_rng, mut rng) =
                        (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    let mut dense: Vec<u32> = (0..n as u32).collect();
                    shuffle_prefix(&mut dense_rng, &mut dense, k);
                    let mut list: Vec<u32> = (0..n as u32).collect();
                    let (mut swaps, mut out) = (Vec::new(), Vec::new());
                    draw_restored(&mut rng, &mut list, k, &mut swaps, &mut out);
                    assert_eq!(out, dense[..k], "n {n} k {k} seed {seed}");
                    assert!(list.iter().copied().eq(0..n as u32), "list restored");
                    let next = |rng: &mut StdRng| rng.gen_range(0..=u64::MAX);
                    assert_eq!(next(&mut rng), next(&mut dense_rng), "same draws");
                }
            }
        }
    }

    #[test]
    fn draw_decodes_every_index_in_its_row() {
        // `draw` finds an index's row by searching the offsets; every
        // drawn move must be admitted, and on a small space every
        // admitted move must turn up.
        let p = tiny_problem();
        let ctx = OptContext::new(&p, 10, 0);
        let admitted = admitted_moves(p.task_count(), p.tile_count());
        let mut n = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Sampled, 5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4_000 {
            let mv = n.draw().unwrap();
            assert!(admitted.contains(&mv), "{mv:?}");
            seen.insert(mv);
        }
        assert_eq!(seen.len(), admitted.len());
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
        let mut ctx = OptContext::new(&p, 10, 0);
        let mut n = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Exhaustive, 7);
        let oracle = admitted_moves(p.task_count(), p.tile_count());
        assert_eq!(n.pass(&ctx, 1), &oracle[..], "quota must not truncate");
        assert_eq!(n.pass(&ctx, usize::MAX), &oracle[..]);
        assert!(!n.widen(&mut ctx));
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
            let Move::Swap(a, b) = mv;
            let topo = ctx.problem().topology();
            let perm = mapping.permutation();
            let (ca, cb) = (topo.coord(perm[a]), topo.coord(perm[b]));
            assert!(
                ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y) <= radius,
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
