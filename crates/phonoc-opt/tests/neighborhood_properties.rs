//! Property tests for the budget-aware [`Neighborhood`] move streams:
//! a stream is a *selection* layer, so it must be deterministic per
//! seed, emit only admitted task-bearing pairs without duplicates, and
//! never change what a full scan would select — the exhaustive stream
//! must reproduce the canonical admitted list bit-for-bit, and a
//! sampled pass that covers the whole neighbourhood must pick the same
//! best move as the exhaustive oracle. The locality stream's radius is
//! measured between the **tiles a swap exchanges under the current
//! cursor mapping** (`perm[a]`/`perm[b]`), not between the raw slot
//! indices — pinned here so the restriction stays physical.

use phonoc_core::{
    run_dse, DseConfig, Mapping, MappingProblem, Move, NeighborhoodPolicy, Objective, OptContext,
    PeekStrategy,
};
use phonoc_opt::neighborhood::{admitted_moves, Neighborhood, LOCALITY_START_RADIUS};
use phonoc_opt::rpbla::Rpbla;
use phonoc_phys::{Length, PhysicalParameters};
use phonoc_route::{RingRouting, XyRouting};
use phonoc_router::crux::crux_router;
use phonoc_topo::{TileId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// `cg` on `topo` with Crux routers and `routing`, under the SNR
/// objective.
fn problem_on(
    cg: phonoc_apps::CommunicationGraph,
    topo: Topology,
    routing: Box<dyn phonoc_route::RoutingAlgorithm>,
) -> MappingProblem {
    MappingProblem::new(
        cg,
        topo,
        crux_router(),
        routing,
        PhysicalParameters::default(),
        Objective::MaximizeWorstCaseSnr,
    )
    .unwrap()
}

/// A mid-size instance (hotspot 4×4, 16 tasks on 16 tiles, 120 admitted
/// pairs): big enough that sampling and locality differ from the
/// oracle's order, small enough to scan exhaustively.
fn mid_problem() -> MappingProblem {
    let spec = phonoc_apps::scenario::ScenarioSpec {
        family: phonoc_apps::scenario::ScenarioFamily::Hotspot,
        mesh: 4,
        density_pct: 100,
        seed: 1,
    };
    problem_on(
        spec.build(),
        Topology::mesh(4, 4, Length::from_mm(2.5)),
        Box::new(XyRouting),
    )
}

/// A sparse instance (8 tasks on a 6×6 mesh) where free–free pairs
/// exist and must never be emitted.
fn sparse_problem() -> MappingProblem {
    problem_on(
        phonoc_apps::synthetic::pipeline(8),
        Topology::mesh(6, 6, Length::from_mm(2.5)),
        Box::new(XyRouting),
    )
}

/// A context with a seated (seeded, random) cursor — the state every
/// scan-based optimizer holds when it asks the stream for a pass, and
/// the mapping the locality restriction is defined against.
fn ctx_with_cursor(p: &MappingProblem, seed: u64) -> OptContext<'_> {
    let mut ctx = OptContext::new(p, 1_000_000, seed);
    let start = ctx.random_mapping();
    ctx.set_current(start).expect("budget is ample");
    ctx
}

/// Manhattan distance between two tiles on the problem's grid
/// (wrap-around links ignored) — the layout distance the locality
/// stream restricts swaps by.
fn tile_distance(ctx: &OptContext<'_>, a: usize, b: usize) -> usize {
    let topo = ctx.problem().topology();
    let (ca, cb) = (topo.coord(TileId(a)), topo.coord(TileId(b)));
    ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y)
}

fn is_admitted(Move::Swap(a, b): Move, tasks: usize, tiles: usize) -> bool {
    a < b && b < tiles && (a < tasks || b < tasks)
}

#[test]
fn exhaustive_reproduces_the_admitted_order_exactly() {
    for p in [mid_problem(), sparse_problem()] {
        let ctx = OptContext::new(&p, 10, 0);
        let mut n = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Exhaustive, 99);
        let oracle = admitted_moves(p.task_count(), p.tile_count());
        assert_eq!(n.pass(&ctx, usize::MAX), &oracle[..]);
        // Repeated passes are the identical list — no hidden state —
        // and the quota must not truncate the oracle.
        assert_eq!(n.pass(&ctx, 1), &oracle[..]);
    }
}

#[test]
fn sampled_and_locality_streams_are_deterministic_per_seed() {
    for p in [mid_problem(), sparse_problem()] {
        let ctx = ctx_with_cursor(&p, 9);
        for policy in [NeighborhoodPolicy::Sampled, NeighborhoodPolicy::Locality] {
            let mut a = Neighborhood::with_policy(&ctx, policy, 42);
            let mut b = Neighborhood::with_policy(&ctx, policy, 42);
            for quota in [5, 17, 64, 3, 1000] {
                assert_eq!(
                    a.pass(&ctx, quota),
                    b.pass(&ctx, quota),
                    "{policy} quota {quota}"
                );
            }
            // A different seed draws a different stream (overwhelmingly
            // likely for a proper subset of a pool of dozens of pairs;
            // a quota at or above the pool size is canonical by design
            // and seed-independent).
            let pool = a.pass(&ctx, usize::MAX).len();
            let probe = pool / 2;
            assert!(probe >= 8, "{policy}: pool of {pool} too small to probe");
            let mut c = Neighborhood::with_policy(&ctx, policy, 43);
            assert_ne!(
                a.pass(&ctx, probe),
                c.pass(&ctx, probe),
                "{policy} seed must matter"
            );
        }
    }
}

#[test]
fn passes_are_duplicate_free_and_admitted_only() {
    for p in [mid_problem(), sparse_problem()] {
        let (tasks, tiles) = (p.task_count(), p.tile_count());
        let ctx = ctx_with_cursor(&p, 23);
        for policy in [NeighborhoodPolicy::Sampled, NeighborhoodPolicy::Locality] {
            let mut n = Neighborhood::with_policy(&ctx, policy, 7);
            for quota in [3, 16, 50, 10_000] {
                let moves = n.pass(&ctx, quota).to_vec();
                assert!(moves.len() <= quota.min(n.admitted_len()));
                let unique: HashSet<_> = moves.iter().map(|&Move::Swap(a, b)| (a, b)).collect();
                assert_eq!(unique.len(), moves.len(), "{policy}: duplicates in a pass");
                for mv in moves {
                    assert!(
                        is_admitted(mv, tasks, tiles),
                        "{policy} emitted inadmissible {mv:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn locality_restricts_by_mapped_tile_distance_and_widens() {
    for p in [mid_problem(), sparse_problem()] {
        let mut ctx = ctx_with_cursor(&p, 31);
        let mapping = ctx.current_mapping().expect("cursor set").clone();
        let perm = mapping.permutation();
        let mut n = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Locality, 11);
        assert_eq!(n.radius(), Some(LOCALITY_START_RADIUS));
        let mut prev_pool = 0;
        let mut widen_calls = 0;
        loop {
            let radius = n.radius().unwrap();
            let moves = n.pass(&ctx, usize::MAX).to_vec();
            for &mv in &moves {
                let Move::Swap(a, b) = mv;
                // The restriction is on the tiles the swap exchanges
                // under the cursor mapping, not on the slot indices.
                let d = tile_distance(&ctx, perm[a].0, perm[b].0);
                assert!(
                    d <= radius,
                    "swap ({a},{b}) exchanges tiles {} and {} at distance {d} > radius {radius}",
                    perm[a],
                    perm[b]
                );
            }
            assert!(moves.len() >= prev_pool, "widening must not shrink");
            prev_pool = moves.len();
            widen_calls += 1;
            if !n.widen(&mut ctx) {
                break;
            }
        }
        // Fully widened, the stream covers the whole admitted set…
        assert_eq!(prev_pool, n.admitted_len());
        // …and an improvement narrows it back to the start radius.
        n.notify_improved(&mut ctx);
        assert_eq!(n.radius(), Some(LOCALITY_START_RADIUS));
        assert!(n.pass(&ctx, usize::MAX).len() < n.admitted_len());
        // The stream recorded its own steps: a dry scan per `widen`
        // call, a widening for all but the last, and one narrowing —
        // a second improvement at the start radius records nothing.
        n.notify_improved(&mut ctx);
        let stats = ctx.stats();
        assert_eq!(stats.dry_scans, widen_calls);
        assert_eq!(stats.widenings, widen_calls - 1);
        assert_eq!(stats.narrowings, 1);
    }
}

#[test]
fn locality_pool_tracks_the_cursor_mapping() {
    // The same stream, asked for a full pass under two different
    // cursor mappings, must admit different move sets: the radius is
    // physical, so it follows the tiles as they move.
    let p = sparse_problem();
    let mut sets = Vec::new();
    for seed in [1u64, 2] {
        let ctx = ctx_with_cursor(&p, seed);
        let mut n = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Locality, 5);
        let moves: HashSet<(usize, usize)> = n
            .pass(&ctx, usize::MAX)
            .iter()
            .map(|&Move::Swap(a, b)| (a, b))
            .collect();
        sets.push(moves);
    }
    assert_ne!(
        sets[0], sets[1],
        "different placements must induce different within-radius sets"
    );
}

#[test]
fn one_full_sampled_pass_matches_the_exhaustive_oracle_best() {
    // Best-of-scanned over a pass that covers the whole neighbourhood
    // must select a move with the oracle's best score (the move itself
    // may differ only among exact ties).
    let p = mid_problem();
    for seed in [1u64, 2, 3] {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xABCD));
        let start = Mapping::random(p.task_count(), p.tile_count(), &mut rng);

        let best_score = |moves: &[Move]| -> f64 {
            let mut ctx = OptContext::new(&p, 1_000_000, 0);
            ctx.set_peek_strategy(PeekStrategy::Delta);
            ctx.set_current(start.clone()).unwrap();
            ctx.peek_moves(moves)
                .iter()
                .map(|ev| ev.score())
                .fold(f64::NEG_INFINITY, f64::max)
        };

        let ctx = OptContext::new(&p, 10, 0);
        let oracle = admitted_moves(p.task_count(), p.tile_count());
        let mut sampled = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Sampled, seed);
        // A pass that covers the whole neighbourhood is emitted in
        // canonical order, so best-of-scanned ties break exactly as the
        // oracle's do and the selected move is identical.
        let pass = sampled.pass(&ctx, oracle.len()).to_vec();
        assert_eq!(pass, oracle, "full pass must be the canonical list");
        let a = best_score(&pass);
        let b = best_score(&oracle);
        assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}: {a} vs oracle {b}");
    }
}

#[test]
fn budget_ledger_stays_honest_under_every_policy() {
    // The stream only selects moves; budget accounting must keep the
    // exact same books — a run always consumes precisely its budget.
    let p = mid_problem();
    for policy in NeighborhoodPolicy::ALL {
        for budget in [37, 200] {
            let r = run_dse(&p, &Rpbla, &DseConfig::new(budget, 5).with_policy(policy));
            assert_eq!(r.evaluations, budget, "{policy} budget {budget}");
            assert!(r.best_mapping.is_valid());
            // Determinism of the whole run, not just the stream.
            let r2 = run_dse(&p, &Rpbla, &DseConfig::new(budget, 5).with_policy(policy));
            assert_eq!(r.best_mapping, r2.best_mapping, "{policy}");
            assert!((r.best_score - r2.best_score).abs() < 1e-15);
        }
    }
}

/// The in-test locality oracle: the admitted indices whose two
/// exchanged tiles (under `perm`) lie within `radius`, ascending.
fn oracle_pool(
    ctx: &OptContext<'_>,
    admitted: &[Move],
    perm: &[TileId],
    radius: usize,
) -> Vec<usize> {
    (0..admitted.len())
        .filter(|&i| {
            let Move::Swap(a, b) = admitted[i];
            tile_distance(ctx, perm[a].0, perm[b].0) <= radius
        })
        .collect()
}

/// The in-test replay of one sampled pass over `pool`: a partial
/// Fisher–Yates of `quota` draws from `rng`, the drawn prefix sorted
/// back into canonical order.
fn oracle_pass(rng: &mut StdRng, pool: &[usize], admitted: &[Move], quota: usize) -> Vec<Move> {
    let mut pool = pool.to_vec();
    let k = quota.min(pool.len());
    for i in 0..k {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool[..k].sort_unstable();
    pool[..k].iter().map(|&i| admitted[i]).collect()
}

/// A fully occupied `mesh × mesh` mpeg-like cell.
fn full_mesh(mesh: usize) -> MappingProblem {
    problem_on(
        phonoc_apps::scenario::ScenarioSpec {
            family: phonoc_apps::scenario::ScenarioFamily::MpegLike,
            mesh,
            density_pct: 100,
            seed: 1,
        }
        .build(),
        Topology::mesh(mesh, mesh, Length::from_mm(2.5)),
        Box::new(XyRouting),
    )
}

#[test]
fn locality_passes_replay_the_filtered_pool_oracle() {
    // Full occupancy on 8×8, 12×12 and 16×16 (more positions than one
    // 64-bit word holds, and rows of up to 255 partners), a sparse
    // mesh, a non-square mesh, a torus (the distance ignores wrap
    // links) and a ring (an n×1 grid). Fewer mappings on the large
    // meshes keep the oracle's O(pairs) replays cheap.
    let cases = [
        ("mesh 8x8", full_mesh(8), 16),
        ("mesh 12x12", full_mesh(12), 3),
        ("mesh 16x16", full_mesh(16), 2),
        ("sparse mesh 6x6", sparse_problem(), 16),
        (
            "mesh 5x3",
            problem_on(
                phonoc_apps::synthetic::pipeline(11),
                Topology::mesh(5, 3, Length::from_mm(2.5)),
                Box::new(XyRouting),
            ),
            16,
        ),
        (
            "torus 4x4",
            problem_on(
                phonoc_apps::synthetic::pipeline(16),
                Topology::torus(4, 4, Length::from_mm(2.5)),
                Box::new(XyRouting),
            ),
            16,
        ),
        (
            "ring 9",
            problem_on(
                phonoc_apps::synthetic::pipeline(7),
                Topology::ring(9, Length::from_mm(2.5)),
                Box::new(RingRouting),
            ),
            16,
        ),
    ];
    for (name, p, mappings) in &cases {
        let (tasks, tiles) = (p.task_count(), p.tile_count());
        let admitted = admitted_moves(tasks, tiles);
        for m in 0..*mappings {
            let mut ctx = ctx_with_cursor(p, 100 + m);
            let perm = ctx
                .current_mapping()
                .expect("cursor set")
                .permutation()
                .to_vec();
            let max_dist = (0..tiles)
                .flat_map(|a| (0..tiles).map(move |b| (a, b)))
                .map(|(a, b)| tile_distance(&ctx, a, b))
                .max()
                .unwrap();
            let seed = 7_000 + m;
            let mut n = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Locality, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut expected_radius = LOCALITY_START_RADIUS;
            // Every radius the widening schedule visits, from the start
            // radius through full widening.
            loop {
                let radius = n.radius().unwrap();
                assert_eq!(radius, expected_radius, "{name}: widening schedule");
                let pool = oracle_pool(&ctx, &admitted, &perm, radius);
                // A full pass is the filtered admitted list in
                // canonical order (and still draws one index per move).
                let full = oracle_pass(&mut rng, &pool, &admitted, usize::MAX);
                assert_eq!(full.len(), pool.len());
                assert_eq!(
                    n.pass(&ctx, usize::MAX),
                    &full[..],
                    "{name} r={radius}: full pass"
                );
                // A partial pass replays the draws over the pool in its
                // canonical order, which pins that order: short quotas
                // (the portfolio's lane rounds draw ~3), the MIN_SCAN
                // floor, large ones and one at or past the pool size.
                for quota in [
                    1,
                    3,
                    32,
                    pool.len() / 3,
                    pool.len().saturating_sub(1),
                    pool.len(),
                    pool.len() + 1,
                ] {
                    let want = oracle_pass(&mut rng, &pool, &admitted, quota);
                    assert_eq!(
                        n.pass(&ctx, quota),
                        &want[..],
                        "{name} mapping {m} r={radius}: quota {quota}"
                    );
                }
                // GA draws against the same mapping come from the same
                // filtered pool.
                for _ in 0..8 {
                    let mv = n.draw_for(ctx.current_mapping().unwrap()).unwrap();
                    let want = if pool.is_empty() {
                        admitted[rng.gen_range(0..admitted.len())]
                    } else {
                        admitted[pool[rng.gen_range(0..pool.len())]]
                    };
                    assert_eq!(mv, want, "{name} r={radius}: draw_for");
                    assert!(pool.is_empty() || pool.iter().any(|&i| admitted[i] == mv));
                }
                if !n.widen(&mut ctx) {
                    break;
                }
                expected_radius = (expected_radius * 2).min(max_dist);
            }
            // Widening stops exactly at the largest tile-pair distance,
            // where the pool is the whole admitted list.
            assert_eq!(
                n.radius(),
                Some(max_dist.max(LOCALITY_START_RADIUS)),
                "{name}"
            );
            assert_eq!(
                oracle_pool(&ctx, &admitted, &perm, max_dist).len(),
                admitted.len()
            );
        }
    }
}
