//! Telemetry contract properties at the engine layer: a recording
//! [`TraceSink`](phonoc_core::TraceSink) must be **invisible** to the
//! search (bit-identical scores, evaluation counts and RNG draws at
//! every worker count), the recorded event stream must be
//! byte-reproducible per seed, the JSONL codec must round-trip exactly
//! (score bits are the authority, the derived `score` field is
//! decoration), and the default [`NullSink`](phonoc_core::NullSink)
//! must record nothing.
//!
//! The worker override is process-global, so the worker-count tests
//! serialize on one mutex and restore the default before releasing it
//! (same discipline as `thread_invariance.rs`).

use phonoc_core::parallel::set_worker_override;
use phonoc_core::{
    parse_trace, render_trace, run_dse, run_dse_traced, summarize_trace, DseConfig, Mapping,
    MappingOptimizer, MappingProblem, Move, Objective, OptContext, TraceEvent,
};
use phonoc_phys::{Length, PhysicalParameters};
use phonoc_route::XyRouting;
use phonoc_router::crux::crux_router;
use phonoc_topo::Topology;
use std::sync::{Mutex, MutexGuard};

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

struct Pinned<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

impl Drop for Pinned<'_> {
    fn drop(&mut self) {
        set_worker_override(None);
    }
}

fn pin() -> Pinned<'static> {
    Pinned(OVERRIDE_LOCK.lock().unwrap())
}

fn problem(mesh: usize, density: u32, seed: u64) -> MappingProblem {
    use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
    let spec = ScenarioSpec {
        family: ScenarioFamily::Random,
        mesh,
        density_pct: density,
        seed,
    };
    MappingProblem::new(
        spec.build(),
        Topology::mesh(mesh, mesh, Length::from_mm(2.5)),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        Objective::MaximizeWorstCaseSnr,
    )
    .unwrap()
}

/// A minimal greedy descent exercising the whole instrumented move
/// API (batch seeding, parallel improving scans, commits) without
/// depending on the optimizer crate: seed from a random start, then
/// repeatedly take the best improving swap.
#[derive(Debug)]
struct GreedyProbe;

impl MappingOptimizer for GreedyProbe {
    fn name(&self) -> &'static str {
        "greedy-probe"
    }

    fn optimize(&self, ctx: &mut OptContext<'_>) {
        let tiles = ctx.problem().tile_count();
        let tasks = ctx.problem().task_count();
        let start = Mapping::random(tasks, tiles, ctx.rng());
        if ctx.set_current(start).is_none() {
            return;
        }
        let moves: Vec<Move> = (0..tiles)
            .flat_map(|a| ((a + 1)..tiles).map(move |b| Move::Swap(a, b)))
            .collect();
        loop {
            let evals = ctx.peek_moves_improving(&moves);
            if evals.is_empty() {
                return;
            }
            let Some(best) = evals
                .iter()
                .filter(|ev| ev.is_exact() && ev.score().is_finite())
                .max_by(|a, b| a.score().total_cmp(&b.score()))
            else {
                return;
            };
            if best.score() <= ctx.current_score().unwrap_or(f64::NEG_INFINITY) {
                return;
            }
            let best = *best;
            ctx.apply_scored_move(&best);
        }
    }
}

/// Digest of everything a run reports that the sink must not touch.
fn fingerprint(result: &phonoc_core::DseResult) -> (u64, usize, usize, usize, Vec<(usize, u64)>) {
    (
        result.best_score.to_bits(),
        result.evaluations,
        result.stats.full_evaluations,
        result.stats.delta_evaluations,
        result
            .history
            .iter()
            .map(|&(spent, score)| (spent, score.to_bits()))
            .collect(),
    )
}

#[test]
fn recording_sink_is_invisible_at_every_worker_count() {
    let _pin = pin();
    let p = problem(4, 200, 3);
    let config = DseConfig::new(600, 42);
    set_worker_override(Some(1));
    let reference = run_dse(&p, &GreedyProbe, &config);
    let mut reference_trace: Option<String> = None;
    for workers in [1usize, 2, 4] {
        set_worker_override(Some(workers));
        let untraced = run_dse(&p, &GreedyProbe, &config);
        let (traced, events) = run_dse_traced(&p, &GreedyProbe, &config);
        assert_eq!(
            fingerprint(&untraced),
            fingerprint(&reference),
            "untraced run drifted @ {workers} workers"
        );
        assert_eq!(
            fingerprint(&traced),
            fingerprint(&reference),
            "recording sink changed the search @ {workers} workers"
        );
        // The always-on counters agree between the two paths too.
        assert_eq!(untraced.stats, traced.stats);
        assert!(untraced.stats.reconciles());
        // The event stream itself is worker-count invariant, byte for
        // byte once rendered.
        let rendered = render_trace("test", &events);
        match &reference_trace {
            None => reference_trace = Some(rendered),
            Some(reference) => assert_eq!(
                &rendered, reference,
                "event stream drifted @ {workers} workers"
            ),
        }
    }
}

#[test]
fn event_streams_are_reproducible_per_seed() {
    for seed in [1u64, 7, 23] {
        let p = problem(4, 180, seed);
        let config = DseConfig::new(400, seed);
        let (first, first_events) = run_dse_traced(&p, &GreedyProbe, &config);
        let (second, second_events) = run_dse_traced(&p, &GreedyProbe, &config);
        assert_eq!(fingerprint(&first), fingerprint(&second), "seed {seed}");
        assert_eq!(
            render_trace("test", &first_events),
            render_trace("test", &second_events),
            "event stream not reproducible for seed {seed}"
        );
        // Different seeds exercise a non-trivial stream.
        assert!(
            first_events
                .iter()
                .any(|e| matches!(e, TraceEvent::SessionEnd { .. })),
            "every traced run ends with a session summary"
        );
    }
}

#[test]
fn jsonl_codec_round_trips_exactly() {
    let p = problem(4, 220, 11);
    let (_, events) = run_dse_traced(&p, &GreedyProbe, &DseConfig::new(500, 9));
    let rendered = render_trace("optimize", &events);
    let (header, parsed) = parse_trace(&rendered).expect("own output parses");
    assert_eq!(header.schema, phonoc_core::TRACE_SCHEMA);
    assert_eq!(header.source, "optimize");
    assert_eq!(header.events, events.len());
    assert_eq!(parsed, events, "parse must invert render");
    // Fixpoint: render(parse(render(x))) == render(x) — score bits are
    // authoritative, the derived `score` decoration carries no state.
    assert_eq!(render_trace("optimize", &parsed), rendered);
    // And the analyzer accepts its own accounting.
    let summary = summarize_trace(&header, &parsed).expect("self-consistent trace");
    assert!(summary.contains("reconciliation: OK"));
}

#[test]
fn null_sink_records_nothing_and_is_the_default() {
    let p = problem(4, 200, 5);
    let mut ctx = OptContext::new(&p, 200, 7);
    assert!(!ctx.trace_enabled(), "tracing must be opt-in");
    GreedyProbe.optimize(&mut ctx);
    let result = ctx.finish("greedy-probe");
    assert!(ctx.drain_trace().is_empty(), "NullSink must record nothing");
    // The always-on counters still filled in and reconcile.
    assert!(result.stats.reconciles());
    assert!(result.stats.full_evaluations > 0, "the seat is billed");
}

#[test]
fn history_accessor_matches_the_result_trajectory() {
    let p = problem(4, 200, 13);
    let mut ctx = OptContext::new(&p, 300, 3);
    GreedyProbe.optimize(&mut ctx);
    let live: Vec<(usize, u64)> = ctx
        .history()
        .iter()
        .map(|&(spent, score)| (spent, score.to_bits()))
        .collect();
    let result = ctx.finish("greedy-probe");
    let reported: Vec<(usize, u64)> = result
        .history
        .iter()
        .map(|&(spent, score)| (spent, score.to_bits()))
        .collect();
    assert_eq!(live, reported, "OptContext::history is the same trajectory");
    assert!(!live.is_empty(), "a budgeted run improves at least once");
}
