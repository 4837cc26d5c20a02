//! The warm-start replay harness: seeded request *streams* through one
//! persistent [`WarmCache`], measuring what reuse buys over cold-start
//! (`BENCH_warmstart.json`).
//!
//! The sweep (`BENCH_sweep.json`) measures each request in isolation;
//! this harness measures the service-mode workload the warm-start
//! engine exists for — the same or nearly-the-same mapping request
//! arriving repeatedly. Per cell of the matrix it replays a
//! four-request stream against a cache that persists across the
//! stream:
//!
//! 1. **cold** — the first sighting of the request; a plain portfolio
//!    run, inserted into the cache.
//! 2. **repeat** — the identical request again: must be an *exact hit*
//!    (canonically equal key) returning the cached result with **zero**
//!    optimizer evaluations (`scripts/bench_gate.py` enforces this on
//!    every cell of the committed file).
//! 3. **perturbed** — every edge weight rescaled by a seeded factor in
//!    `[0.9, 1.1]` (≤10% change) via
//!    [`MappingProblem::update_edge_bandwidths`]: a *near hit*. The
//!    harness runs the perturbed problem cold (reference trajectory)
//!    and warm (seeded by the cached elite), and records
//!    **evaluations-to-parity** — the budget the warm run needed before
//!    its incumbent first matched the cold run's *final* score. The
//!    gate holds the median parity ratio on 12×12/16×16 cells to
//!    ≤ 50% of the cold budget.
//! 4. **phase change + return** — a structural mutation (one edge
//!    removed, one added via [`MappingProblem::remove_edge`] /
//!    [`MappingProblem::add_edge`]) solved warm, then the mutation
//!    reverted and the original request replayed: the re-added edge
//!    sits at a different position in the CG's edge list, so this
//!    final request is an end-to-end proof that cache keys are
//!    canonical (sorted) rather than positional — it must be a second
//!    exact hit.
//!
//! Weight-only perturbation does not move the objective (the evaluator
//! reads edge *endpoints*, not bandwidths — see the phonoc-core
//! evaluator docs), so the perturbed cold reference reproduces the
//! original cold trajectory; the parity measurement is still taken
//! from the actually-executed warm trajectory
//! ([`PortfolioResult::round_best`] / `round_evaluations`), not
//! assumed. The structural phase *does* move the objective, and its
//! warm-vs-cold scores are recorded per cell.
//!
//! With `--trace-out PATH` the cache-mediated requests additionally
//! stream `phonocmap-trace/1` events (warm lookups, per-round lane
//! snapshots, per-request session summaries) into a JSONL trace file —
//! the reference input for `phonocmap trace` and the CI trace gate.
//! The cold reference runs stay untraced: the trace records the
//! *request stream*, not the measurement scaffolding.

use crate::sweep::scenario_problem;
use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonoc_apps::TaskId;
use phonoc_core::telemetry::push_json_str;
use phonoc_core::{render_trace, MappingProblem, NullSink, RunTrace, TraceSink};
use phonoc_opt::portfolio::DEFAULT_SPEC;
use phonoc_opt::{run_portfolio_seeded, PortfolioResult, PortfolioSpec, WarmCache, WarmSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

/// Replay parameters: the cells plus the per-request budget.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Cells to replay a request stream against (one stream per cell).
    pub cells: Vec<ScenarioSpec>,
    /// Per-request optimizer budget in full-evaluation-equivalents.
    pub budget: usize,
    /// Whether this is the CI smoke configuration.
    pub smoke: bool,
}

impl ReplayConfig {
    /// The full replay behind the committed `BENCH_warmstart.json`:
    /// four workload families at 8×8, 12×12 and 16×16 (the gate's
    /// median-parity check reads the 12×12/16×16 cells), at the
    /// sweep's budget.
    #[must_use]
    pub fn full() -> ReplayConfig {
        let families = [
            ScenarioFamily::Pipeline,
            ScenarioFamily::Random,
            ScenarioFamily::Hotspot,
            ScenarioFamily::Clustered,
        ];
        let cells = families
            .iter()
            .flat_map(|&family| {
                [8usize, 12, 16].into_iter().map(move |mesh| ScenarioSpec {
                    family,
                    mesh,
                    density_pct: 100,
                    seed: 1,
                })
            })
            .collect();
        ReplayConfig {
            cells,
            budget: 1_500,
            smoke: false,
        }
    }

    /// The CI smoke replay: two families on small meshes, full budget
    /// semantics (the exact-hit check is budget-independent; the parity
    /// gate only reads 12×12+ cells, which smoke has none of).
    #[must_use]
    pub fn smoke() -> ReplayConfig {
        let cells = [ScenarioFamily::Pipeline, ScenarioFamily::Hotspot]
            .iter()
            .flat_map(|&family| {
                [4usize, 6].into_iter().map(move |mesh| ScenarioSpec {
                    family,
                    mesh,
                    density_pct: 100,
                    seed: 1,
                })
            })
            .collect();
        ReplayConfig {
            cells,
            budget: 300,
            smoke: true,
        }
    }
}

/// Everything measured for one cell's request stream.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell's scenario.
    pub spec: ScenarioSpec,
    /// Stable scenario id (`family-NxN-dD-sS`).
    pub id: String,
    /// Tasks in the cell's CG.
    pub tasks: usize,
    /// Edges in the cell's CG.
    pub edges: usize,
    /// Request 1: cold best score (dB, worst-case SNR).
    pub cold_score: f64,
    /// Request 1: budget consumed.
    pub cold_evaluations: usize,
    /// Request 1: wall-clock, ms.
    pub cold_ms: u64,
    /// Request 2: evaluations the exact-hit repeat performed (the gate
    /// requires 0).
    pub exact_hit_evaluations: usize,
    /// Request 2: whether the cached result reproduced the cold score
    /// bit-for-bit.
    pub exact_hit_score_matches: bool,
    /// Request 3: edges whose weight the perturbation changed.
    pub perturbed_edges: usize,
    /// Request 3: cold-reference best score on the perturbed problem.
    pub perturbed_cold_score: f64,
    /// Request 3: cold-reference budget consumed.
    pub perturbed_cold_evaluations: usize,
    /// Request 3: warm (near-hit) best score.
    pub warm_score: f64,
    /// Request 3: warm budget consumed.
    pub warm_evaluations: usize,
    /// Request 3: warm wall-clock, ms.
    pub warm_ms: u64,
    /// Request 3: directed endpoints shared with the cache donor.
    pub warm_shared_edges: usize,
    /// Request 3: cumulative warm evaluations when the warm incumbent
    /// first reached the cold run's final score (`None` = never —
    /// a gate failure on 12×12+ cells).
    pub parity_evaluations: Option<usize>,
    /// Request 4: how the structurally mutated request was satisfied
    /// (`near_hit` expected — same family, different edge set).
    pub phase_source: String,
    /// Request 4: warm best score on the mutated problem.
    pub phase_score: f64,
    /// Request 4: cold-reference best score on the mutated problem.
    pub phase_cold_score: f64,
    /// Request 4: whether replaying the original request after
    /// reverting the mutation was an exact hit despite the re-added
    /// edge's new list position (canonical-key proof).
    pub return_exact_hit: bool,
}

impl CellOutcome {
    /// `parity_evaluations / perturbed_cold_evaluations` — the fraction
    /// of the cold budget the warm run needed to match the cold final
    /// score. `None` when parity was never reached.
    #[must_use]
    pub fn parity_ratio(&self) -> Option<f64> {
        self.parity_evaluations
            .map(|e| e as f64 / self.perturbed_cold_evaluations.max(1) as f64)
    }
}

/// A finished replay.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Whether the smoke configuration ran.
    pub smoke: bool,
    /// Per-request budget.
    pub budget: usize,
    /// Logical CPU count of the measuring host, straight from
    /// `available_parallelism` — recorded so readers know whether the
    /// replay's wall-clock context had real lane parallelism behind it
    /// (evaluation counts themselves are host-independent).
    pub host_cores: usize,
    /// Per-cell outcomes, in configuration order.
    pub cells: Vec<CellOutcome>,
}

impl ReplayReport {
    /// Whether every repeat request was an exact hit with zero
    /// evaluations and a bit-identical score (the strict gate).
    #[must_use]
    pub fn all_exact_hits_zero(&self) -> bool {
        self.cells
            .iter()
            .all(|c| c.exact_hit_evaluations == 0 && c.exact_hit_score_matches)
    }

    /// Median parity ratio across the 12×12+ cells (the quality gate
    /// reads this). `None` when the configuration has no such cell
    /// (smoke) or some cell never reached parity.
    #[must_use]
    pub fn median_large_parity_ratio(&self) -> Option<f64> {
        let mut ratios = Vec::new();
        for c in self.cells.iter().filter(|c| c.spec.mesh >= 12) {
            ratios.push(c.parity_ratio()?);
        }
        if ratios.is_empty() {
            return None;
        }
        ratios.sort_by(|a, b| a.total_cmp(b));
        let mid = ratios.len() / 2;
        Some(if ratios.len() % 2 == 1 {
            ratios[mid]
        } else {
            (ratios[mid - 1] + ratios[mid]) / 2.0
        })
    }
}

/// Cumulative warm evaluations at the first round whose incumbent
/// reached `target` (worst-case SNR: higher is better).
fn evaluations_to_reach(result: &PortfolioResult, target: f64) -> Option<usize> {
    let mut spent = 0usize;
    for (best, used) in result.round_best.iter().zip(&result.round_evaluations) {
        spent += used;
        if *best >= target {
            return Some(spent);
        }
    }
    None
}

/// The first directed task pair with no edge in either direction
/// (deterministic scan order), for the structural phase mutation.
fn free_pair(problem: &MappingProblem) -> Option<(TaskId, TaskId)> {
    let n = problem.task_count();
    for a in 0..n {
        for b in 0..n {
            if a != b
                && problem.cg().edge_index(TaskId(a), TaskId(b)).is_none()
                && problem.cg().edge_index(TaskId(b), TaskId(a)).is_none()
            {
                return Some((TaskId(a), TaskId(b)));
            }
        }
    }
    None
}

/// Replays one cell's four-request stream through a fresh cache, with
/// a [`TraceSink`] receiving the telemetry of the four cache-mediated
/// requests (the cold reference runs stay untraced; pass [`NullSink`]
/// for none).
///
/// # Panics
///
/// Panics if the stream does not behave as constructed (a repeat that
/// misses the cache, a mutation the problem rejects): these are
/// programming errors, not measurement outcomes.
#[must_use]
pub fn replay_cell_traced(
    spec: &ScenarioSpec,
    cfg: &ReplayConfig,
    sink: &mut dyn TraceSink,
) -> CellOutcome {
    let pspec = PortfolioSpec::parse(DEFAULT_SPEC).expect("replay spec parses");
    let mut problem = scenario_problem(spec);
    let tasks = problem.task_count();
    let edges = problem.cg().edge_count();
    let originals: Vec<(TaskId, TaskId, f64)> = problem
        .cg()
        .edges()
        .iter()
        .map(|e| (e.src, e.dst, e.bandwidth))
        .collect();
    let mut cache = WarmCache::new();

    // Request 1: cold.
    let t = Instant::now();
    let cold = cache.solve_traced(&problem, &pspec, cfg.budget, spec.seed, sink);
    let cold_ms = t.elapsed().as_millis() as u64;
    assert_eq!(
        cold.source,
        WarmSource::Cold,
        "{}: first sighting",
        spec.id()
    );

    // Request 2: identical repeat — exact hit, zero evaluations.
    let repeat = cache.solve_traced(&problem, &pspec, cfg.budget, spec.seed, sink);
    assert_eq!(repeat.source, WarmSource::ExactHit, "{}: repeat", spec.id());

    // Request 3: ≤10% weight perturbation (seeded off the cell).
    let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_mul(0x9E37_79B9).wrapping_add(101));
    let updates: Vec<(TaskId, TaskId, f64)> = originals
        .iter()
        .map(|&(s, d, bw)| (s, d, bw * rng.gen_range(0.9..=1.1)))
        .collect();
    problem
        .update_edge_bandwidths(&updates)
        .expect("perturbation targets existing edges");
    let perturbed_cold = run_portfolio_seeded(&problem, &pspec, cfg.budget, spec.seed, None);
    let t = Instant::now();
    let warm = cache.solve_traced(&problem, &pspec, cfg.budget, spec.seed, sink);
    let warm_ms = t.elapsed().as_millis() as u64;
    let warm_shared_edges = match warm.source {
        WarmSource::NearHit { shared_edges, .. } => shared_edges,
        ref other => panic!(
            "{}: perturbed request should near-hit, got {other:?}",
            spec.id()
        ),
    };
    let parity_evaluations = evaluations_to_reach(&warm.result, perturbed_cold.best_score);

    // Request 4: structural phase change (one edge out, one in), then
    // the stream returns to the original request.
    let (rm_src, rm_dst, _) = originals[0];
    problem
        .remove_edge(rm_src, rm_dst)
        .expect("the first original edge exists");
    let (add_src, add_dst) = free_pair(&problem).expect("scenario CGs are not complete digraphs");
    let mean_bw = originals.iter().map(|&(_, _, bw)| bw).sum::<f64>() / originals.len() as f64;
    problem
        .add_edge(add_src, add_dst, mean_bw)
        .expect("the pair was free");
    let phase_cold = run_portfolio_seeded(&problem, &pspec, cfg.budget, spec.seed, None);
    let phase = cache.solve_traced(&problem, &pspec, cfg.budget, spec.seed, sink);
    let phase_source = match phase.source {
        WarmSource::ExactHit => "exact_hit",
        WarmSource::NearHit { .. } => "near_hit",
        WarmSource::Cold => "cold",
    };

    // Revert: drop the added edge, restore the removed one (it lands at
    // the *end* of the CG's edge list — canonical keys must not care),
    // restore every original weight.
    problem
        .remove_edge(add_src, add_dst)
        .expect("the phase edge exists");
    let (_, _, rm_bw) = originals[0];
    problem
        .add_edge(rm_src, rm_dst, rm_bw)
        .expect("the original edge was removed");
    problem
        .update_edge_bandwidths(&originals)
        .expect("restoring original weights");
    let back = cache.solve_traced(&problem, &pspec, cfg.budget, spec.seed, sink);

    CellOutcome {
        spec: *spec,
        id: spec.id(),
        tasks,
        edges,
        cold_score: cold.result.best_score,
        cold_evaluations: cold.evaluations_spent,
        cold_ms,
        exact_hit_evaluations: repeat.evaluations_spent,
        exact_hit_score_matches: repeat.result.best_score == cold.result.best_score
            && repeat.result.best_mapping == cold.result.best_mapping,
        perturbed_edges: updates.len(),
        perturbed_cold_score: perturbed_cold.best_score,
        perturbed_cold_evaluations: perturbed_cold.evaluations,
        warm_score: warm.result.best_score,
        warm_evaluations: warm.evaluations_spent,
        warm_ms,
        warm_shared_edges,
        parity_evaluations,
        phase_source: phase_source.to_owned(),
        phase_score: phase.result.best_score,
        phase_cold_score: phase_cold.best_score,
        return_exact_hit: back.source == WarmSource::ExactHit && back.evaluations_spent == 0,
    }
}

/// Runs the whole replay, invoking `progress` after each cell, with a
/// [`TraceSink`] receiving every cell's cache-request telemetry (see
/// [`replay_cell_traced`]; pass [`NullSink`] for none).
#[must_use]
pub fn run_replay_traced(
    cfg: &ReplayConfig,
    mut progress: impl FnMut(&CellOutcome),
    sink: &mut dyn TraceSink,
) -> ReplayReport {
    let mut cells = Vec::new();
    for spec in &cfg.cells {
        let outcome = replay_cell_traced(spec, cfg, sink);
        progress(&outcome);
        cells.push(outcome);
    }
    ReplayReport {
        smoke: cfg.smoke,
        budget: cfg.budget,
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        cells,
    }
}

/// The command-line entry point behind `phonocmap replay`: parses
/// `--smoke`, `--budget N`, `--out PATH` and `--trace-out PATH`, runs
/// the replay with live progress, prints the warm-start summary and
/// writes the JSON (plus, with `--trace-out`, the `phonocmap-trace/1`
/// JSONL trace — or a header-only trace when `PHONOC_TRACE_NULL` is
/// set, proving the disabled sink records nothing).
///
/// # Errors
///
/// Returns a message for unknown flags, unparseable flag values or an
/// unwritable output path.
pub fn run_replay_cli(args: &[String]) -> Result<(), String> {
    let args = crate::CliArgs::parse(args, &["--budget", "--out", "--trace-out"], &["--smoke"], 0)?;
    let flag = |name: &str| args.value(name);
    let smoke = args.switch("--smoke");
    let mut cfg = if smoke {
        ReplayConfig::smoke()
    } else {
        ReplayConfig::full()
    };
    let mut command = format!("phonocmap replay{}", if smoke { " --smoke" } else { "" });
    if let Some(v) = args.count("--budget")? {
        cfg.budget = v;
        let _ = write!(command, " --budget {v}");
    }
    let out = flag("--out").unwrap_or_else(|| "BENCH_warmstart.json".into());
    let trace_out = flag("--trace-out");
    let mut trace_sink: Box<dyn TraceSink> =
        if trace_out.is_some() && std::env::var_os("PHONOC_TRACE_NULL").is_none() {
            Box::new(RunTrace::new())
        } else {
            Box::new(NullSink)
        };

    println!(
        "warm-start replay ({} mode): {} cells, budget {} per request, portfolio `{}`\n",
        if cfg.smoke { "smoke" } else { "full" },
        cfg.cells.len(),
        cfg.budget,
        DEFAULT_SPEC
    );
    println!(
        "{:<26} {:>6} {:>10} {:>6} {:>10} {:>10} {:>8} {:>7}",
        "cell", "edges", "cold", "hit", "warm", "parity", "ratio", "return"
    );
    let report = run_replay_traced(
        &cfg,
        |c| {
            println!(
                "{:<26} {:>6} {:>10.4} {:>6} {:>10.4} {:>10} {:>8} {:>7}",
                c.id,
                c.edges,
                c.cold_score,
                c.exact_hit_evaluations,
                c.warm_score,
                c.parity_evaluations
                    .map_or_else(|| "never".into(), |e| e.to_string()),
                c.parity_ratio()
                    .map_or_else(|| "-".into(), |r| format!("{r:.3}")),
                if c.return_exact_hit { "hit" } else { "MISS" },
            );
        },
        trace_sink.as_mut(),
    );
    println!(
        "\nexact-hit requests at zero evaluations: {}",
        if report.all_exact_hits_zero() {
            "yes"
        } else {
            "NO (gate failure)"
        }
    );
    match report.median_large_parity_ratio() {
        Some(r) => {
            println!("median 12x12/16x16 evaluations-to-parity ratio: {r:.3} (acceptance: <= 0.50)")
        }
        None => println!("no 12x12+ cells in this configuration (parity gate not applicable)"),
    }
    std::fs::write(&out, report_to_json(&report, &command))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    if let Some(path) = trace_out {
        let events = trace_sink.drain();
        std::fs::write(&path, render_trace("replay", &events))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path} ({} events)", events.len());
    }
    Ok(())
}

/// Renders the report as the `phonocmap-bench-warmstart/2` JSON
/// document (hand-rolled — the workspace builds offline, without
/// `serde_json`). Version 2 added the `host_cores` field recording the
/// measuring host's logical CPU count.
#[must_use]
pub fn report_to_json(report: &ReplayReport, command: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"phonocmap-bench-warmstart/2\",");
    out.push_str("  \"command\": ");
    push_json_str(&mut out, command);
    out.push_str(",\n");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if report.smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(out, "  \"host_cores\": {},", report.host_cores);
    let _ = writeln!(out, "  \"budget\": {},", report.budget);
    out.push_str("  \"portfolio\": ");
    push_json_str(&mut out, DEFAULT_SPEC);
    out.push_str(",\n");
    out.push_str("  \"notes\": [\n");
    let _ = writeln!(
        out,
        "    \"Each cell replays a four-request stream (cold, exact repeat, <=10% weight perturbation, structural phase change + return) through one persistent WarmCache.\","
    );
    let _ = writeln!(
        out,
        "    \"exact_hit.evaluations must be 0 on every cell: a canonically equal request returns the cached result without touching the optimizer (results are deterministic per key).\","
    );
    let _ = writeln!(
        out,
        "    \"parity_evaluations is the cumulative warm-run budget at the first portfolio round whose incumbent matched the perturbed cold run's FINAL score; bench_gate holds the median ratio on 12x12/16x16 cells to <= 0.50 of the cold budget.\","
    );
    let _ = writeln!(
        out,
        "    \"Edge weights are annotations the evaluator never reads, so the perturbed cold reference reproduces the original cold trajectory; the warm trajectory is measured, not assumed. The structural phase DOES move the objective and records warm vs cold scores.\","
    );
    let _ = writeln!(
        out,
        "    \"return_exact_hit replays the original request after reverting the phase mutation; the re-added edge sits at a new position in the CG edge list, so a hit here proves keys canonicalize edge order.\","
    );
    let _ = writeln!(
        out,
        "    \"host_cores records the measuring host's logical CPU count ({}): evaluation counts and scores are host-independent, but any wall-clock reading of this file should know whether lanes actually ran in parallel.\"",
        report.host_cores
    );
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"summary\": {{");
    let _ = writeln!(out, "    \"cells\": {},", report.cells.len());
    let _ = writeln!(
        out,
        "    \"exact_hit_zero_evaluations\": {},",
        report.all_exact_hits_zero()
    );
    let _ = writeln!(
        out,
        "    \"return_exact_hits\": {},",
        report.cells.iter().filter(|c| c.return_exact_hit).count()
    );
    match report.median_large_parity_ratio() {
        Some(r) => {
            let _ = writeln!(out, "    \"median_large_parity_ratio\": {r:.4}");
        }
        None => {
            let _ = writeln!(out, "    \"median_large_parity_ratio\": null");
        }
    }
    let _ = writeln!(out, "  }},");
    out.push_str("  \"cells\": [\n");
    for (i, c) in report.cells.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str("      \"id\": ");
        push_json_str(&mut out, &c.id);
        out.push_str(",\n");
        let _ = writeln!(out, "      \"family\": \"{}\",", c.spec.family.name());
        let _ = writeln!(out, "      \"mesh\": {},", c.spec.mesh);
        let _ = writeln!(out, "      \"seed\": {},", c.spec.seed);
        let _ = writeln!(out, "      \"tasks\": {},", c.tasks);
        let _ = writeln!(out, "      \"edges\": {},", c.edges);
        let _ = writeln!(
            out,
            "      \"cold\": {{\"score\": {:.4}, \"evaluations\": {}, \"ms\": {}}},",
            c.cold_score, c.cold_evaluations, c.cold_ms
        );
        let _ = writeln!(
            out,
            "      \"exact_hit\": {{\"evaluations\": {}, \"score_matches\": {}}},",
            c.exact_hit_evaluations, c.exact_hit_score_matches
        );
        let _ = writeln!(
            out,
            "      \"perturbed\": {{\"edges_changed\": {}, \"cold_score\": {:.4}, \"cold_evaluations\": {}, \"warm_score\": {:.4}, \"warm_evaluations\": {}, \"warm_ms\": {}, \"shared_edges\": {}, \"parity_evaluations\": {}, \"parity_ratio\": {}}},",
            c.perturbed_edges,
            c.perturbed_cold_score,
            c.perturbed_cold_evaluations,
            c.warm_score,
            c.warm_evaluations,
            c.warm_ms,
            c.warm_shared_edges,
            c.parity_evaluations
                .map_or_else(|| "null".into(), |e| e.to_string()),
            c.parity_ratio()
                .map_or_else(|| "null".into(), |r| format!("{r:.4}")),
        );
        let _ = writeln!(
            out,
            "      \"phase\": {{\"source\": \"{}\", \"score\": {:.4}, \"cold_score\": {:.4}, \"return_exact_hit\": {}}}",
            c.phase_source, c.phase_score, c.phase_cold_score, c.return_exact_hit
        );
        let _ = writeln!(
            out,
            "    }}{}",
            if i + 1 == report.cells.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ReplayConfig {
        ReplayConfig {
            cells: vec![
                ScenarioSpec {
                    family: ScenarioFamily::Pipeline,
                    mesh: 4,
                    density_pct: 100,
                    seed: 1,
                },
                ScenarioSpec {
                    family: ScenarioFamily::Hotspot,
                    mesh: 4,
                    density_pct: 100,
                    seed: 2,
                },
            ],
            budget: 60,
            smoke: true,
        }
    }

    #[test]
    fn replay_stream_hits_and_renders_valid_shaped_json() {
        let cfg = tiny_config();
        let mut seen = 0;
        let report = run_replay_traced(&cfg, |_| seen += 1, &mut NullSink);
        assert_eq!(seen, 2);
        assert!(report.all_exact_hits_zero());
        for c in &report.cells {
            assert_eq!(c.exact_hit_evaluations, 0);
            assert!(c.exact_hit_score_matches);
            assert!(c.cold_evaluations > 0);
            assert!(c.warm_evaluations > 0);
            assert_eq!(c.warm_shared_edges, c.edges, "weight-only perturbation");
            assert_eq!(c.phase_source, "near_hit");
            assert!(c.return_exact_hit, "canonical keys survive edge reorder");
            assert!(
                c.warm_score >= c.perturbed_cold_score - 1e-9 || c.parity_evaluations.is_some()
            );
        }
        // Small meshes: no 12×12+ cells, the parity gate is vacuous.
        assert!(report.median_large_parity_ratio().is_none());
        let json = report_to_json(&report, "test");
        assert!(json.contains("\"schema\": \"phonocmap-bench-warmstart/2\""));
        assert!(json.contains("\"host_cores\""));
        assert!(json.contains("\"exact_hit_zero_evaluations\": true"));
        assert!(json.contains("\"pipeline-4x4-d100-s1\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn parity_accounting_reads_the_measured_trajectory() {
        let result = PortfolioResult {
            spec: "test".into(),
            best_mapping: phonoc_core::Mapping::identity(2, 4),
            best_score: 3.0,
            round_best: vec![1.0, 2.5, 3.0],
            round_evaluations: vec![10, 10, 12],
            evaluations: 32,
            budget: 40,
            lanes: Vec::new(),
            stats: phonoc_core::RunStats {
                rounds: 3,
                ..phonoc_core::RunStats::default()
            },
        };
        assert_eq!(evaluations_to_reach(&result, 2.0), Some(20));
        assert_eq!(evaluations_to_reach(&result, 3.0), Some(32));
        assert_eq!(evaluations_to_reach(&result, 0.5), Some(10));
        assert_eq!(evaluations_to_reach(&result, 9.0), None);
    }
}
