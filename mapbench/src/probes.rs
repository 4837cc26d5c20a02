//! Layer probes: the public functions of each layer, timed from outside
//! on the workload's own problems and mappings.

use crate::stats::{median, ns_per_call, ratio};
use crate::workload::{Problem, PORTFOLIO};
use phonocmap::core::parallel::set_worker_override;
use phonocmap::core::{BoundedDelta, BoundedLossDelta, EvalScratch, Mapping, Move, OptContext};
use phonocmap::core::{DeltaScratch, MappingProblem, NeighborhoodPolicy};
use phonocmap::opt::{
    admitted_moves, run_portfolio, scan_quota, Neighborhood, PortfolioSpec, RequestKey, WarmCache,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Minimum wall time one probe sample covers.
const SAMPLE_NS: u128 = 2_000_000;

/// Moves each delta probe cycles through.
const PROBE_MOVES: usize = 64;

fn random_moves(problem: &MappingProblem, rng: &mut StdRng) -> Vec<Move> {
    let admitted = admitted_moves(problem.task_count(), problem.tile_count());
    (0..PROBE_MOVES)
        .map(|_| admitted[rng.gen_range(0..admitted.len())])
        .collect()
}

/// Nanoseconds per billed unit of `peek` over `moves`; `peek` returns
/// the units the engine would bill (floored at one, as it does).
fn ns_per_unit(moves: &[Move], mut peek: impl FnMut(Move) -> usize) -> f64 {
    let t = Instant::now();
    let mut units = 0u64;
    while t.elapsed().as_nanos() < SAMPLE_NS {
        for &mv in moves {
            units += peek(mv).max(1) as u64;
        }
    }
    ratio(t.elapsed().as_nanos() as f64, units as f64)
}

/// Evaluator-layer probe results, averaged over problems.
#[derive(Debug, Default)]
pub struct EvaluatorProbe {
    /// `evaluate_into` ns per call, per problem, in problem order.
    pub full_ns: Vec<f64>,
    /// `evaluate_into` ns per edge unit, averaged over problems.
    pub full_ns_per_unit: f64,
    pub bounded_snr: f64,
    pub exact_snr: f64,
    pub loss: f64,
    pub bounded_loss: f64,
    pub init_state_us: f64,
    pub apply_move_us: f64,
}

/// Times full evaluation over `best` mappings plus seeded random ones,
/// and each incremental route on random swaps from a random state.
pub fn evaluator(problems: &[Problem], best: &[Vec<Mapping>], seed: u64) -> EvaluatorProbe {
    let mut out = EvaluatorProbe::default();
    let (mut per_unit, mut bsnr, mut esnr, mut loss, mut bloss, mut init, mut apply) =
        (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    for (i, p) in problems.iter().enumerate() {
        let problem = &p.problem;
        let ev = problem.evaluator();
        let mut rng = StdRng::seed_from_u64(seed ^ i as u64);
        let mut mappings: Vec<Mapping> = (0..4)
            .map(|_| Mapping::random(problem.task_count(), problem.tile_count(), &mut rng))
            .collect();
        mappings.extend(best[i].iter().cloned());
        let mut scratch = EvalScratch::default();
        let mut k = 0;
        let ns = ns_per_call(SAMPLE_NS, || {
            black_box(ev.evaluate_into(&mappings[k % mappings.len()], None, &mut scratch));
            k += 1;
        });
        out.full_ns.push(ns);
        per_unit.push(ns / ev.edge_count().max(1) as f64);

        let start = &mappings[0];
        let state = ev.init_state(start);
        let moves = random_moves(problem, &mut rng);
        let mut ds = DeltaScratch::default();
        let snr_t = state.worst_case_snr();
        let il_t = state.worst_case_il();
        esnr.push(ns_per_unit(&moves, |mv| {
            ev.evaluate_delta_with(&state, start, mv, &mut ds)
                .affected_edges
        }));
        bsnr.push(ns_per_unit(&moves, |mv| {
            match ev.evaluate_delta_bounded(&state, start, mv, &mut ds, snr_t) {
                BoundedDelta::Rejected { cost, .. } => cost,
                BoundedDelta::Exact(d) => d.affected_edges,
            }
        }));
        loss.push(ns_per_unit(&moves, |mv| {
            ev.evaluate_delta_loss(&state, start, mv, &mut ds).1
        }));
        bloss.push(ns_per_unit(&moves, |mv| {
            match ev.evaluate_delta_loss_bounded(&state, start, mv, &mut ds, il_t) {
                BoundedLossDelta::Rejected { cost, .. } => cost,
                BoundedLossDelta::Exact { moved_edges, .. } => moved_edges,
            }
        }));
        init.push(
            ns_per_call(SAMPLE_NS, || {
                black_box(ev.init_state(start));
            }) / 1e3,
        );
        let mut st = ev.init_state(start);
        let mut m = start.clone();
        let mut k = 0;
        apply.push(
            ns_per_call(SAMPLE_NS, || {
                black_box(ev.apply_move(&mut st, &mut m, moves[k % moves.len()], &mut ds));
                k += 1;
            }) / 1e3,
        );
    }
    out.full_ns_per_unit = crate::stats::mean(&per_unit);
    out.bounded_snr = crate::stats::mean(&bsnr);
    out.exact_snr = crate::stats::mean(&esnr);
    out.loss = crate::stats::mean(&loss);
    out.bounded_loss = crate::stats::mean(&bloss);
    out.init_state_us = crate::stats::mean(&init);
    out.apply_move_us = crate::stats::mean(&apply);
    out
}

/// `Neighborhood::pass` on a live context at the given policies and the
/// quota a fresh job of `budget` scans with: (µs per pass, moves per
/// pass), averaged over (problem, policy) pairs.
pub fn neighborhood(
    problems: &[Problem],
    policies: &[NeighborhoodPolicy],
    budget: usize,
    seed: u64,
) -> (f64, f64) {
    let (mut us, mut moves) = (vec![], vec![]);
    for p in problems {
        let mut ctx = OptContext::new(&p.problem, budget, seed);
        let start = ctx.random_mapping();
        ctx.set_current(start);
        for &policy in policies {
            let mut nbhd = Neighborhood::with_policy(&ctx, policy, seed);
            let quota = scan_quota(budget, nbhd.admitted_len());
            moves.push(nbhd.pass(&ctx, quota).len() as f64);
            us.push(
                ns_per_call(SAMPLE_NS, || {
                    black_box(nbhd.pass(&ctx, quota).len());
                }) / 1e3,
            );
        }
    }
    (crate::stats::mean(&us), crate::stats::mean(&moves))
}

/// The same `peek_moves_improving` batch timed at 1 and at `workers`
/// workers: returns (speed-up, bit-identical).
pub fn scan_speedup(
    problem: &MappingProblem,
    budget: usize,
    workers: usize,
    seed: u64,
) -> (f64, bool) {
    let mut ctx = OptContext::new(problem, 1_000_000_000, seed);
    let start = ctx.random_mapping();
    ctx.set_current(start);
    let mut nbhd = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Auto, seed);
    let quota = scan_quota(budget, nbhd.admitted_len());
    let moves = nbhd.pass(&ctx, quota).to_vec();
    let mut time = |w: usize| {
        set_worker_override(Some(w));
        let result = ctx.peek_moves_improving(&moves);
        let ns = ns_per_call(4 * SAMPLE_NS, || {
            black_box(ctx.peek_moves_improving(&moves));
        });
        (ns, result)
    };
    let (t1, r1) = time(1);
    let (tw, rw) = time(workers);
    set_worker_override(Some(workers));
    (ratio(t1, tw), r1 == rw)
}

/// The same portfolio job at 1 and at `workers` workers: returns
/// (speed-up of the median of three, bit-identical).
pub fn lane_speedup(
    problem: &MappingProblem,
    budget: usize,
    workers: usize,
    seed: u64,
) -> (f64, bool) {
    let spec = PortfolioSpec::parse(PORTFOLIO).expect("portfolio spec parses");
    let time = |w: usize| {
        set_worker_override(Some(w));
        let mut ms = vec![];
        let mut last = None;
        for _ in 0..3 {
            let t = Instant::now();
            let r = run_portfolio(problem, &spec, budget, seed);
            ms.push(t.elapsed().as_secs_f64());
            last = Some((r.best_score.to_bits(), r.best_mapping, r.evaluations));
        }
        (median(&ms), last)
    };
    let (t1, r1) = time(1);
    let (tw, rw) = time(workers);
    set_worker_override(Some(workers));
    (ratio(t1, tw), r1 == rw)
}

/// Warm-cache probes: (µs per `RequestKey::of` + `near_hit_donor` over
/// every problem, median µs of an exact-hit `solve`).
pub fn warm(problems: &[Problem], budget: usize, seed: u64) -> (f64, f64) {
    let spec = PortfolioSpec::parse(PORTFOLIO).expect("portfolio spec parses");
    let mut cache = WarmCache::new();
    let stored = &problems[0].problem;
    black_box(cache.solve(stored, &spec, budget, seed));
    let mut k = 0;
    let lookup_us = ns_per_call(SAMPLE_NS, || {
        let p = &problems[k % problems.len()].problem;
        let key = RequestKey::of(p, &spec, budget, seed + 1);
        black_box(cache.near_hit_donor(&key).map(|d| d.2));
        k += 1;
    }) / 1e3;
    let hits: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            black_box(cache.solve(stored, &spec, budget, seed));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    (lookup_us, median(&hits))
}

/// In-place mutation of `problem`: µs per `update_edge_bandwidths` /
/// `remove_edge` / `add_edge` call, cycling a perturbation and the
/// removal and re-insertion of the last edge, so the problem ends
/// exactly as it started. Returns (µs per call, problem unchanged).
pub fn mutate(problem: &mut MappingProblem, seed: u64) -> (f64, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let probe = Mapping::random(problem.task_count(), problem.tile_count(), &mut rng);
    let before = problem.evaluate(&probe).1.to_bits();
    let originals: Vec<_> = problem
        .cg()
        .edges()
        .iter()
        .map(|e| (e.src, e.dst, e.bandwidth))
        .collect();
    let perturbed: Vec<_> = originals
        .iter()
        .map(|&(s, d, bw)| (s, d, bw * 1.05))
        .collect();
    let &(src, dst, bw) = originals.last().expect("graphs have edges");
    let ns = ns_per_call(SAMPLE_NS, || {
        problem
            .update_edge_bandwidths(&perturbed)
            .expect("perturbation targets existing edges");
        problem.remove_edge(src, dst).expect("the last edge exists");
        problem
            .add_edge(src, dst, bw)
            .expect("the edge was removed");
        problem
            .update_edge_bandwidths(&originals)
            .expect("restoring original weights");
    });
    let after = problem.evaluate(&probe).1.to_bits();
    (ns / 4.0 / 1e3, before == after)
}
