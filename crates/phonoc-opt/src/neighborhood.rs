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
//!   through the grid coordinates of the tiles each position holds
//!   (per-tile coordinates are gathered once at construction, in
//!   O(tiles)); fully widened, it is simply every admitted pair. The
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
//! A stream costs what it draws. Construction builds no move list —
//! moves live in the canonical index space of [`admitted_moves`], one
//! offset per admitted row — so it is O(tiles). The first pass that
//! needs every pair builds them (`Exhaustive` as moves, `Sampled` and a
//! fully widened `Locality` stream as packed pairs). A short locality
//! pass below full radius never builds its pool. The stream keeps one
//! bitmask per tile and radius (bit `u` of tile `t`'s mask is set iff
//! the two tiles lie within the radius), built from the diamonds'
//! row-major bit runs the first time a radius is counted. Each row's
//! pool share is then one masked popcount against the tiles the later
//! positions hold, `O(rows · ⌈tiles/64⌉)` per pass instead of a
//! distance test per admitted pair. The counts equal the built pool's
//! row sizes, so the shuffle draws the same ranks, and only the rows
//! holding a drawn rank are scanned. The pool is built whole only when
//! the draws could read every row anyway (see [`Neighborhood::pass`]).
//! Every path makes the same RNG calls and emits the same moves as a
//! partial Fisher–Yates over the materialized pool, which the property
//! tests replay.
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
    /// Every admitted pair (see [`pair`]) in canonical order, built by
    /// the first pass that needs it. `Sampled` shuffles it in place, a
    /// pool persistent across passes; `Locality` draws from it when
    /// fully widened and restores its order after each pass.
    pairs: Vec<u32>,
    /// `Locality`: the ranks `0..len` in order, grown to the largest
    /// within-radius pool a counted pass has sized. Counted passes draw
    /// from it and restore its order.
    ranks: Vec<u32>,
    /// `Locality` scratch: a pass's drawn ranks, its drawn pairs, or
    /// (when the quota reaches half the rows) every within-radius pair.
    pool: Vec<u32>,
    /// `Locality` scratch: a pass's swaps, undone after its draws.
    swaps: Vec<(u32, u32)>,
    /// `Locality` scratch: one row's within-radius marks (fill path).
    marks: Vec<u8>,
    /// Grid coordinates of each tile (`Locality` only).
    tile_xy: Vec<(u16, u16)>,
    /// `Locality` scratch: the coordinates of the tile each permutation
    /// position holds under the mapping being filtered (fill path).
    at_x: Vec<u16>,
    at_y: Vec<u16>,
    /// Grid width: tile `t` sits at `(t % width, t / width)`.
    width: usize,
    /// `Locality`: each radius counted at so far, with its tile masks
    /// (see [`radius_masks`]), built by the first counted pass at that
    /// radius.
    masks: Vec<(usize, Vec<u64>)>,
    /// `Locality` scratch: the tiles held by the positions after the
    /// row being counted, one bit per tile.
    after: Vec<u64>,
    /// `Locality` scratch: within-radius pairs in the rows before each
    /// row (one entry per row plus the total), the rank-space twin of
    /// `row_start`.
    rank_start: Vec<u32>,
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
    /// If the problem has more than 65 536 tiles: streams store
    /// positions, grid coordinates and distances in 16 bits (every
    /// topology fills its `width × height` grid, so the widest distance
    /// `width + height − 2` fits whenever the positions do). No
    /// problem that large fits in memory.
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
        // Locality needs tile coordinates; the swap positions are
        // permutation slots, so which *tiles* a move exchanges depends
        // on the cursor mapping — only the tiles' coordinates are
        // static. Wrap-around links are ignored: the distance is the
        // layout's.
        let topo = ctx.problem().topology();
        let tile_xy = if kind == NeighborhoodPolicy::Locality {
            topo.tiles()
                .map(|t| {
                    let c = topo.coord(t);
                    (c.x as u16, c.y as u16)
                })
                .collect()
        } else {
            Vec::new()
        };
        Neighborhood {
            row_start,
            tiles,
            kind,
            rng: StdRng::seed_from_u64(seed),
            pairs: Vec::new(),
            ranks: Vec::new(),
            pool: Vec::new(),
            swaps: Vec::new(),
            marks: Vec::new(),
            tile_xy,
            at_x: Vec::new(),
            at_y: Vec::new(),
            width: topo.width(),
            masks: Vec::new(),
            after: Vec::new(),
            rank_start: Vec::new(),
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
    /// in canonical order (fully widened, every admitted pair). While
    /// `2·quota` stays below the admitted row count, the pass counts
    /// and ranks through per-radius tile masks instead of building that
    /// pool; from there on every row may be read anyway, and the pool is
    /// built whole. Sampled subsets are emitted in canonical admitted
    /// order (see the [module docs](self) on plateau tie-breaking).
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
                    all_pairs(self.rows(), self.tiles, &mut self.pairs);
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
    /// Below full radius a short pass never builds the pool. It sizes
    /// each row from the radius's tile masks ([`radius_masks`], built
    /// once per radius per stream): walking the rows from the back with
    /// the set of tiles the later positions hold (seeded with the free
    /// positions past the last row), row `a` counts
    /// `popcount(mask[perm[a]] & after)`, which is exactly its number of
    /// within-radius partners, so the pool size and every row's first
    /// rank are those of the built pool. The shuffle then draws ranks
    /// over a rank list it restores, and one forward scan resolves them,
    /// testing each partner's tile against the row's mask. A pass costs
    /// `O(rows · ⌈tiles/64⌉)` to count plus at most a row's partners per
    /// drawn move to resolve. Each draw reads at most two pool slots, so
    /// once `2·quota` reaches the row count every row may be read
    /// anyway: the pool is then built whole from grid coordinates, its
    /// size falling out of the fill, and nothing is counted. (On the
    /// `neighborhood_pass` bench, filling at quota 3 is several times
    /// slower than counting, and filling by mask bits instead of
    /// coordinates 1.1–1.3× slower than this fill.) Fully widened, every
    /// admitted pair qualifies whatever the mapping, so the draws run
    /// over the stream's canonical pair list, whose order each pass
    /// restores.
    fn locality_draw(&mut self, mapping: &Mapping, quota: usize) {
        let rows = self.rows();
        self.buf.clear();
        if self.radius >= self.max_dist {
            if self.pairs.is_empty() {
                all_pairs(rows, self.tiles, &mut self.pairs);
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
        let perm = mapping.permutation();
        if quota.saturating_mul(2) >= rows {
            let tile_xy = &self.tile_xy;
            self.at_x.clear();
            self.at_x.extend(perm.iter().map(|t| tile_xy[t.0].0));
            self.at_y.clear();
            self.at_y.extend(perm.iter().map(|t| tile_xy[t.0].1));
            let (xs, ys, radius) = (&self.at_x[..], &self.at_y[..], self.radius as u16);
            self.marks.resize(self.tiles, 0);
            self.pool.resize(self.admitted_len(), 0);
            let mut fill = 0;
            for a in 0..rows {
                let out = &mut self.pool[fill..];
                fill += filter_row(xs, ys, a, radius, &mut self.marks, out);
            }
            self.pool.truncate(fill);
            let k = quota.min(fill);
            shuffle_prefix(&mut self.rng, &mut self.pool, k);
            self.buf.extend(self.pool[..k].iter().map(|&p| unpair(p)));
            return;
        }
        let words = self.tiles.div_ceil(64);
        let at = match self.masks.iter().position(|&(r, _)| r == self.radius) {
            Some(at) => at,
            None => {
                let masks = radius_masks(self.width, self.tiles, self.radius);
                self.masks.push((self.radius, masks));
                self.masks.len() - 1
            }
        };
        let masks = &self.masks[at].1;
        let mask_of = |a: usize| &masks[perm[a].0 * words..][..words];
        // Row `a` counts the tiles its mask shares with the positions
        // after it, gathered in `after` walking the rows from the back.
        let after = &mut self.after;
        after.clear();
        after.resize(words, 0);
        for t in &perm[rows..] {
            set(after, t.0);
        }
        let starts = &mut self.rank_start;
        starts.clear();
        starts.resize(rows + 1, 0);
        if words == 1 {
            // Up to 64 tiles: the bitset stays in a register (quota-3
            // passes at 8×8 ran ~1.25× faster than through the word
            // loop below).
            let mut after = after[0];
            for a in (0..rows).rev() {
                let t = perm[a].0;
                starts[a + 1] = (masks[t] & after).count_ones();
                after |= 1 << t;
            }
        } else {
            for a in (0..rows).rev() {
                let count = mask_of(a).iter().zip(&*after);
                starts[a + 1] = count.map(|(m, s)| (m & s).count_ones()).sum();
                set(after, perm[a].0);
            }
        }
        for a in 0..rows {
            starts[a + 1] += starts[a];
        }
        let n = starts[rows] as usize;
        if self.ranks.len() < n {
            let len = self.ranks.len() as u32;
            self.ranks.extend(len..n as u32);
        }
        draw_restored(
            &mut self.rng,
            &mut self.ranks[..n],
            quota.min(n),
            &mut self.swaps,
            &mut self.pool,
        );
        // Ranks come out sorted, so one forward scan resolves them: it
        // walks the rows holding them in order and, within a row, the
        // partners up to the last one drawn, counting those whose tile
        // is in the row's mask until the count passes the rank's offset
        // in its row.
        let (mut a, mut b, mut seen) = (0, 1, 0);
        for &r in &self.pool {
            if starts[a + 1] <= r {
                a += starts[a + 1..].partition_point(|&s| s <= r);
                (b, seen) = (a + 1, 0);
            }
            let (near, offset) = (mask_of(a), r - starts[a]);
            while seen <= offset {
                seen += u32::from(has(near, perm[b].0));
                b += 1;
            }
            self.buf.push(Move::Swap(a, b - 1));
        }
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

/// Whether bit `t` of the bitset `words` is set.
fn has(words: &[u64], t: usize) -> bool {
    words[t / 64] >> (t % 64) & 1 == 1
}

/// Writes row `a`'s within-radius pairs (see [`pair`]), ascending, to
/// the front of `out`, and returns how many. A vectorizable pass marks
/// the partners in `mask`; the compaction then writes every candidate
/// and advances the fill cursor only past the marked ones, so neither
/// has a data-dependent branch. `mask` and `out` must hold the whole
/// row. (One loop that tests and writes each pair, with no mask, runs
/// about half as fast on the `neighborhood_pass` bench; marking into
/// `out` and compacting in place, about 1.3× slower.)
fn filter_row(
    xs: &[u16],
    ys: &[u16],
    a: usize,
    radius: u16,
    mask: &mut [u8],
    out: &mut [u32],
) -> usize {
    let (xa, ya) = (xs[a], ys[a]);
    let mask = &mut mask[a + 1..xs.len()];
    for ((m, &x), &y) in mask.iter_mut().zip(&xs[a + 1..]).zip(&ys[a + 1..]) {
        *m = u8::from(x.abs_diff(xa) + y.abs_diff(ya) <= radius);
    }
    let mut fill = 0;
    for (b, &m) in (a + 1..).zip(&*mask) {
        out[fill] = pair(a, b);
        fill += usize::from(m);
    }
    fill
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_problem;
    use phonoc_core::OptContext;

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
