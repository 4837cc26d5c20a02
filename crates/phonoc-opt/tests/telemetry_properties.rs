//! Telemetry contract properties across the search stack: the trace
//! sink must be **invisible** to every layer that accepts one — same
//! scores, same evaluation ledgers, same warm-cache keys, at every
//! worker count — while the recorded streams stay byte-reproducible
//! and reconcile with the integer evaluation ledger (`phonocmap trace`
//! verifies the same identities on the JSONL form).
//!
//! The worker override is process-global; like
//! `phonoc-core/tests/thread_invariance.rs`, tests that pin it
//! serialize on one mutex and restore the default before releasing it.

use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonoc_core::parallel::set_worker_override;
use phonoc_core::{
    parse_trace, render_trace, run_dse, run_dse_traced, summarize_trace, DseConfig, MappingProblem,
    Objective, RunTrace, TraceEvent, TraceSink, WarmOutcome,
};
use phonoc_opt::{
    prove, prove_traced, run_portfolio_seeded, run_portfolio_seeded_traced, IteratedLocalSearch,
    PortfolioResult, PortfolioSpec, Rpbla, TabuSearch, WarmCache, WarmSource,
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

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn scenario_problem(seed: u64) -> MappingProblem {
    let mesh = 4;
    let cg = ScenarioSpec {
        family: ScenarioFamily::Random,
        mesh,
        density_pct: 100,
        seed,
    }
    .build();
    MappingProblem::new(
        cg,
        Topology::mesh(mesh, mesh, Length::from_mm(2.5)),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        Objective::MaximizeWorstCaseSnr,
    )
    .unwrap()
}

fn spec() -> PortfolioSpec {
    PortfolioSpec::parse("r-pbla@sampled+sa,exchange=best,rounds=3").unwrap()
}

fn dse_fingerprint(r: &phonoc_core::DseResult) -> (u64, usize, usize, usize) {
    (
        r.best_score.to_bits(),
        r.evaluations,
        r.stats.full_evaluations,
        r.stats.delta_evaluations,
    )
}

fn portfolio_fingerprint(r: &PortfolioResult) -> (u64, Vec<u64>, Vec<usize>, usize) {
    (
        r.best_score.to_bits(),
        r.round_best.iter().map(|s| s.to_bits()).collect(),
        r.lanes.iter().map(|l| l.used).collect(),
        r.evaluations,
    )
}

/// Every local-search optimizer runs bit-identically with a recording
/// sink installed, and its always-on counters partition the ledger.
#[test]
fn optimizers_are_sink_invisible() {
    let problem = scenario_problem(3);
    let optimizers: [&dyn phonoc_core::MappingOptimizer; 3] =
        [&Rpbla, &IteratedLocalSearch, &TabuSearch];
    for optimizer in optimizers {
        let config = DseConfig::new(500, 11);
        let untraced = run_dse(&problem, optimizer, &config);
        let (traced, events) = run_dse_traced(&problem, optimizer, &config);
        assert_eq!(
            dse_fingerprint(&untraced),
            dse_fingerprint(&traced),
            "{}: recording sink changed the search",
            optimizer.name()
        );
        assert_eq!(untraced.best_mapping, traced.best_mapping);
        assert_eq!(untraced.stats, traced.stats, "{}", optimizer.name());
        assert!(untraced.stats.reconciles(), "{}", optimizer.name());
        // Re-run: the stream is reproducible byte for byte.
        let (_, again) = run_dse_traced(&problem, optimizer, &config);
        assert_eq!(
            render_trace(optimizer.name(), &events),
            render_trace(optimizer.name(), &again),
            "{}: event stream not reproducible",
            optimizer.name()
        );
    }
}

/// The traced portfolio is the untraced portfolio bit for bit, at
/// every worker count, and its event stream is worker-count invariant.
#[test]
fn portfolio_trace_is_invisible_and_worker_invariant() {
    let _pin = pin();
    let problem = scenario_problem(5);
    let pspec = spec();
    set_worker_override(Some(1));
    let reference = run_portfolio_seeded(&problem, &pspec, 120, 7, None);
    let mut reference_trace: Option<String> = None;
    for workers in WORKER_COUNTS {
        set_worker_override(Some(workers));
        let untraced = run_portfolio_seeded(&problem, &pspec, 120, 7, None);
        let mut sink = RunTrace::new();
        let traced = run_portfolio_seeded_traced(&problem, &pspec, 120, 7, None, &mut sink);
        assert_eq!(
            portfolio_fingerprint(&untraced),
            portfolio_fingerprint(&reference),
            "untraced @ {workers} workers"
        );
        assert_eq!(
            portfolio_fingerprint(&traced),
            portfolio_fingerprint(&reference),
            "traced @ {workers} workers"
        );
        assert_eq!(untraced.stats, traced.stats);
        assert!(traced.stats.reconciles(), "@ {workers} workers");
        let rendered = render_trace("portfolio", &sink.drain());
        match &reference_trace {
            None => reference_trace = Some(rendered),
            Some(reference) => assert_eq!(
                &rendered, reference,
                "portfolio event stream drifted @ {workers} workers"
            ),
        }
    }
    // The recorded stream carries one lane_round per (round, lane) and
    // ends with a session summary that reconciles.
    let rendered = reference_trace.unwrap();
    let (header, events) = parse_trace(&rendered).unwrap();
    let lane_rounds = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::LaneRound { .. }))
        .count();
    assert_eq!(lane_rounds, reference.stats.rounds * pspec.lanes.len());
    let summary = summarize_trace(&header, &events).expect("portfolio trace reconciles");
    assert!(summary.contains("reconciliation: OK"));
}

/// The warm cache behaves identically traced and untraced — same
/// sources, same results, same keys — while the trace records one
/// lookup per request and the *stored* entries keep pure run counters
/// (so later exact hits replay the original run).
#[test]
fn warm_cache_is_sink_invisible_and_stores_pure_counters() {
    let pspec = spec();
    let run = |sink: &mut dyn TraceSink| {
        let mut problem = scenario_problem(9);
        let mut cache = WarmCache::new();
        let a = cache.solve_traced(&problem, &pspec, 80, 3, sink);
        let b = cache.solve_traced(&problem, &pspec, 80, 3, sink);
        let (s, d, bw) = {
            let e = &problem.cg().edges()[1];
            (e.src, e.dst, e.bandwidth)
        };
        problem
            .update_edge_bandwidths(&[(s, d, bw * 0.93)])
            .unwrap();
        let c = cache.solve_traced(&problem, &pspec, 80, 3, sink);
        (a, b, c)
    };
    let mut recorder = RunTrace::new();
    let (a, b, c) = run(&mut recorder);
    let (ua, ub, uc) = run(&mut phonoc_core::NullSink);
    assert_eq!(a.source, WarmSource::Cold);
    assert_eq!(b.source, WarmSource::ExactHit);
    assert_eq!(b.evaluations_spent, 0);
    assert!(matches!(c.source, WarmSource::NearHit { .. }));
    assert_eq!(ua.source, a.source);
    assert_eq!(ub.source, b.source);
    assert_eq!(uc.source, c.source);
    assert_eq!(
        portfolio_fingerprint(&a.result),
        portfolio_fingerprint(&ua.result)
    );
    assert_eq!(
        portfolio_fingerprint(&b.result),
        portfolio_fingerprint(&ub.result)
    );
    assert_eq!(
        portfolio_fingerprint(&c.result),
        portfolio_fingerprint(&uc.result)
    );
    // Returned copies classify the request...
    assert_eq!(a.result.stats.warm_cold, 1);
    assert_eq!(b.result.stats.warm_exact_hits, 1);
    assert_eq!(c.result.stats.warm_near_hits, 1);
    // ...but the exact hit replays the stored *cold* run: identical
    // except for its own classification.
    let mut hit = b.result.stats;
    hit.warm_exact_hits = 0;
    let mut cold = a.result.stats;
    cold.warm_cold = 0;
    assert_eq!(hit, cold, "stored entries must keep pure run counters");
    // One warm_lookup per request, in request order.
    let lookups: Vec<WarmOutcome> = recorder
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::WarmLookup { outcome, .. } => Some(*outcome),
            _ => None,
        })
        .collect();
    assert_eq!(
        lookups,
        vec![
            WarmOutcome::Cold,
            WarmOutcome::ExactHit,
            WarmOutcome::NearHit
        ]
    );
}

/// The traced exact lane proves the same certificate as the untraced
/// one, and its events mirror the certificate's node/cut accounting.
#[test]
fn exact_lane_trace_mirrors_the_certificate() {
    let problem = scenario_problem(7);
    let config = DseConfig::new(5_000, 1);
    let plain = prove(&problem, &config);
    let (traced, events) = prove_traced(&problem, &config);
    assert_eq!(
        plain.result.best_score.to_bits(),
        traced.result.best_score.to_bits()
    );
    assert_eq!(plain.proved, traced.proved);
    assert_eq!(plain.nodes, traced.nodes);
    assert_eq!(plain.leaves, traced.leaves);
    assert_eq!(plain.cut_depths, traced.cut_depths);
    let summaries: Vec<(usize, usize)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ExactSummary { nodes, leaves } => Some((*nodes, *leaves)),
            _ => None,
        })
        .collect();
    assert_eq!(
        summaries,
        vec![(traced.nodes as usize, traced.leaves as usize)]
    );
    let cut_events: Vec<(usize, usize)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ExactCuts { depth, cuts } => Some((*depth, *cuts)),
            _ => None,
        })
        .collect();
    let nonzero: Vec<(usize, usize)> = traced
        .cut_depths
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(d, &n)| (d, n))
        .collect();
    assert_eq!(
        cut_events, nonzero,
        "cut histogram must mirror the certificate"
    );
    // The whole stream survives the JSONL round trip and reconciles.
    let rendered = render_trace("exact", &events);
    let (header, parsed) = parse_trace(&rendered).unwrap();
    assert_eq!(parsed, events);
    summarize_trace(&header, &parsed).expect("exact trace reconciles");
}
