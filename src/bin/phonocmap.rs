//! The `phonocmap` command-line tool: the user-facing face of the
//! reproduction, mirroring the workflow of the paper's Java toolset.
//!
//! ```text
//! phonocmap list
//! phonocmap describe-router crux
//! phonocmap show-app VOPD [--dot]
//! phonocmap analyze  --app VOPD [--topology mesh] [--router crux] [--seed 1]
//! phonocmap optimize --app VOPD [--algo r-pbla] [--objective snr|loss|power|margin]
//!                    [--topology mesh|torus|ring] [--router crux]
//!                    [--neighborhood auto|exhaustive|sampled|locality]
//!                    [--budget 100000] [--seed 42]
//! phonocmap optimize --file my_app.cg ...      # text-format CG input
//! phonocmap portfolio --app VOPD [--spec "r-pbla@sampled+sa,exchange=best,rounds=8"]
//! phonocmap sweep [--smoke] [--neighborhood P] [--out BENCH_sweep.json]
//! phonocmap replay [--smoke] [--budget N] [--out BENCH_warmstart.json]
//! phonocmap parallel-bench [--smoke] [--out BENCH_parallel.json]
//! phonocmap trace run.trace.jsonl              # analyze a recorded trace
//! ```
//!
//! `optimize`, `portfolio` and `replay` take `--trace-out PATH` to
//! record the run's structured telemetry as `phonocmap-trace/1` JSONL
//! (`phonoc_core::telemetry`); `phonocmap trace` reads such a file
//! back, prints the route-mix / lane-budget / cache-hit breakdowns and
//! verifies the reconciliation identities. Setting `PHONOC_TRACE_NULL`
//! keeps the sink off and writes a header-only trace — the CI check
//! that tracing is genuinely opt-in.
//!
//! The CG text format is documented in `phonoc_apps::text`.

use phonocmap::apps::text::parse_cg;
use phonocmap::core::PeekStrategy;
use phonocmap::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "list" => cmd_list(),
        "describe-router" => cmd_describe_router(&args),
        "show-app" => cmd_show_app(&args),
        "analyze" => cmd_analyze(&args),
        "optimize" => cmd_optimize(&args),
        "portfolio" => cmd_portfolio(&args),
        "sweep" => cmd_sweep(&args),
        "replay" => cmd_replay(&args),
        "parallel-bench" => cmd_parallel_bench(&args),
        "trace" => cmd_trace(&args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// `a|b|c` over the canonical names of every [`Objective`] — the help
/// text and error messages list exactly what the parsers accept.
fn objective_names() -> String {
    Objective::ALL.map(|o| o.name()).join("|")
}

/// `a|b|c` over every [`NeighborhoodPolicy`] name.
fn policy_names() -> String {
    NeighborhoodPolicy::ALL.map(|p| p.name()).join("|")
}

/// `a|b|c` over every [`PeekStrategy`] name.
fn peek_names() -> String {
    PeekStrategy::ALL.map(|p| p.name()).join("|")
}

/// The top-level help. The `@policy`, `/peek`, `!objective`,
/// `--objective` and `--neighborhood` name lists come from the enums'
/// `ALL`, so every advertised name parses.
fn usage() -> String {
    let (objectives, policies, peeks) = (objective_names(), policy_names(), peek_names());
    format!(
        "phonocmap — application mapping for photonic NoCs
commands:
  list                         available benchmarks, routers, algorithms
  describe-router <name>       router datasheet (losses + crosstalk)
  show-app <name> [--dot]      benchmark communication graph
  analyze  --app <name> | --file <cg>   evaluate a random mapping
  optimize --app <name> | --file <cg>   search for the best mapping
  portfolio --app <name> | --file <cg>  race N search lanes with elite
        [--spec LANES[,exchange=E][,rounds=N][,collapse=K]]  (try `portfolio help`)
  sweep [--smoke] [--out PATH]          scenario-matrix sweep: peek-route
        [--samples N] [--moves N]       timings + optimizer results as JSON
        [--budget N]                    (r-pbla runs once per neighborhood
        [--neighborhood POLICY]         stream; POLICY restricts to one)
  replay [--smoke] [--out PATH]         warm-start request streams through a
        [--budget N]                    persistent cache (cold / exact hit /
                                        perturbed / phase change) as JSON
  parallel-bench [--smoke] [--out PATH] dispatch-overhead microbench: the
        [--samples N]                   persistent pool vs scope-spawn across
                                        batch size x item cost x workers
  trace <file>                          analyze a phonocmap-trace/1 JSONL file
                                        (route mix, lane budget flow, cache
                                        hits) and verify its accounting
options (analyze/optimize/portfolio):
  --topology mesh|torus|ring   (default mesh)
  --router   crux|crossbar|xy-crossbar   (default crux)
  --objective {objectives}   (default snr)
  --algo NAME[@policy][/peek][!objective]  (default r-pbla; optimize only)
             NAME: rs|ga|r-pbla|sa|tabu|ils|exhaustive or portfolio:...
             @policy {policies}   (swap-scan stream)
             /peek {peeks}   (SNR peek route; cost only, never scores)
             !objective {objectives}   (re-targets the search)
  --neighborhood {policies}  (default auto: exhaustive
             swap scans up to ~8x8 meshes, budget-aware sampling beyond)
  --budget N                   evaluations (default 100000)
  --seed N                     RNG seed (default 42)
  --trace-out PATH             record the run as phonocmap-trace/1 JSONL
             (optimize/portfolio/replay; read back with `phonocmap trace`;
             PHONOC_TRACE_NULL=1 writes a header-only trace, sink off)"
    )
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn cmd_list() -> Result<(), String> {
    println!("benchmarks:");
    for cg in phonocmap::apps::benchmarks::all_benchmarks() {
        println!(
            "  {:<15} {:>3} tasks {:>3} edges",
            cg.name(),
            cg.task_count(),
            cg.edge_count()
        );
    }
    println!("routers:");
    for name in RouterRegistry::with_builtins().names() {
        let r = RouterRegistry::with_builtins().get(name).expect("listed");
        println!(
            "  {:<15} {:>3} rings {:>3} crossings {:>3} connections",
            name,
            r.microring_count(),
            r.plain_crossing_count(),
            r.supported_pairs().len()
        );
    }
    println!("optimizers:");
    for name in phonocmap::opt::builtin_names() {
        println!("  {name}");
    }
    println!("routing algorithms:\n  xy (mesh/torus)\n  yx (mesh/torus)\n  ring (rings)");
    Ok(())
}

fn cmd_describe_router(args: &[String]) -> Result<(), String> {
    let name = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or("describe-router needs a router name")?;
    let router = RouterRegistry::with_builtins()
        .get(name)
        .ok_or_else(|| format!("unknown router `{name}`"))?;
    print!(
        "{}",
        phonocmap::router::report::datasheet(&router, &PhysicalParameters::default())
    );
    Ok(())
}

fn cmd_show_app(args: &[String]) -> Result<(), String> {
    let name = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or("show-app needs a benchmark name")?;
    let cg = phonocmap::apps::benchmarks::benchmark(name)
        .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    if args.iter().any(|a| a == "--dot") {
        print!("{}", cg.to_dot());
    } else {
        print!("{}", phonocmap::apps::text::render_cg(&cg));
    }
    Ok(())
}

fn load_cg(args: &[String]) -> Result<CommunicationGraph, String> {
    if let Some(app) = flag(args, "--app") {
        return phonocmap::apps::benchmarks::benchmark(&app)
            .ok_or_else(|| format!("unknown benchmark `{app}`"));
    }
    if let Some(path) = flag(args, "--file") {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        return parse_cg(&text).map_err(|e| format!("cannot parse {path}: {e}"));
    }
    Err("need --app <benchmark> or --file <cg-file>".into())
}

struct Setup {
    problem: MappingProblem,
    seed: u64,
}

fn build_problem(args: &[String]) -> Result<Setup, String> {
    let cg = load_cg(args)?;
    let topology_kind = flag(args, "--topology").unwrap_or_else(|| "mesh".into());
    let router_name = flag(args, "--router").unwrap_or_else(|| "crux".into());
    let objective = match flag(args, "--objective").as_deref() {
        None => Objective::MaximizeWorstCaseSnr,
        Some(name) => Objective::by_name(name)
            .ok_or_else(|| format!("unknown objective `{name}` ({})", objective_names()))?,
    };
    let seed: u64 = flag(args, "--seed")
        .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
        .transpose()?
        .unwrap_or(42);

    let pitch = Length::from_mm(2.5);
    let (w, h) = fit_grid(cg.task_count());
    let (topology, routing): (Topology, Box<dyn RoutingAlgorithm>) = match topology_kind.as_str() {
        "mesh" => (Topology::mesh(w, h, pitch), Box::new(XyRouting)),
        "torus" => (
            Topology::torus(w.max(3), h.max(3), pitch),
            Box::new(XyRouting),
        ),
        "ring" => (
            Topology::ring(cg.task_count().max(3), pitch),
            Box::new(RingRouting),
        ),
        other => return Err(format!("unknown topology `{other}` (mesh|torus|ring)")),
    };
    let router = RouterRegistry::with_builtins()
        .get(&router_name)
        .ok_or_else(|| format!("unknown router `{router_name}`"))?;
    let problem = MappingProblem::new(
        cg,
        topology,
        router,
        routing,
        PhysicalParameters::default(),
        objective,
    )
    .map_err(|e| e.to_string())?;
    Ok(Setup { problem, seed })
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let Setup { problem, seed } = build_problem(args)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mapping = Mapping::random(problem.task_count(), problem.tile_count(), &mut rng);
    print!("{}", analyze(&problem, &mapping));
    Ok(())
}

/// The `portfolio` subcommand's help (lane name lists generated like
/// [`usage`]'s).
fn portfolio_help() -> String {
    let (policies, peeks) = (policy_names(), peek_names());
    format!(
        "phonocmap portfolio — deterministic multi-lane search with elite exchange
Runs N search lanes as bulk-synchronous rounds. After each round, lanes
restart from an elite incumbent per the exchange policy; per-lane budget
slices sum exactly to --budget, so a portfolio run is comparable to any
single optimizer at the same budget. Results are bit-identical for every
worker-thread count (set PHONOC_WORKERS=N to pin).

usage:
  phonocmap portfolio --app <name> | --file <cg> [--spec SPEC] [options]

SPEC grammar (default: r-pbla@sampled+r-pbla@locality,exchange=best,rounds=14):
  lane[+lane...][,exchange=isolated|best|ring][,rounds=N][,collapse=K]
  lane = optimizer[@neighborhood][/peek]
    optimizer     rs|ga|r-pbla|sa|tabu|ils
    @neighborhood {policies}  (swap-scan streams)
    /peek         {peeks}  (cost only, never scores)
  exchange: isolated = pure race, best = all lanes restart from the round's
  best incumbent, ring = each lane inherits its left neighbour's elite.
  collapse: once one lane holds the global best K rounds in a row, all
  remaining budget flows to it (dominance collapse; off by default).

examples:
  phonocmap portfolio --app VOPD
  phonocmap portfolio --app MPEG4 --spec \"r-pbla@sampled+r-pbla@locality+sa,exchange=best,rounds=8\"
  phonocmap portfolio --app VOPD --spec \"r-pbla+tabu+ils,exchange=ring,rounds=4\" --budget 30000
  phonocmap optimize --app VOPD --algo \"portfolio:r-pbla@sampled+sa,rounds=4\"   # same engine

options: --topology, --router, --objective, --budget, --seed as in optimize"
    )
}

fn cmd_portfolio(args: &[String]) -> Result<(), String> {
    if args
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        println!("{}", portfolio_help());
        return Ok(());
    }
    if flag(args, "--neighborhood").is_some() {
        return Err(
            "--neighborhood does not apply to a portfolio run: each lane pins its own \
             policy in the spec (e.g. `r-pbla@locality+sa`)"
                .into(),
        );
    }
    let spec_text = flag(args, "--spec")
        .unwrap_or_else(|| "r-pbla@sampled+r-pbla@locality,exchange=best,rounds=14".into());
    let spec = PortfolioSpec::parse(&spec_text)?;
    let Setup { problem, seed } = build_problem(args)?;
    let budget: usize = flag(args, "--budget")
        .map(|s| s.parse().map_err(|_| format!("bad budget `{s}`")))
        .transpose()?
        .unwrap_or(100_000);
    if budget == 0 {
        return Err("--budget must be at least 1".into());
    }
    run_portfolio_session(&problem, &spec, budget, seed, flag(args, "--trace-out"))
}

/// Shared portfolio driver behind `phonocmap portfolio` and
/// `phonocmap optimize --algo portfolio:...`.
fn run_portfolio_session(
    problem: &MappingProblem,
    spec: &PortfolioSpec,
    budget: usize,
    seed: u64,
    trace_out: Option<String>,
) -> Result<(), String> {
    // The sink only observes the fixed lane-order reduction — the race
    // itself is bit-identical traced or not.
    let mut sink: Box<dyn phonocmap::core::TraceSink> = if trace_recording(trace_out.as_ref()) {
        Box::new(phonocmap::core::RunTrace::new())
    } else {
        Box::new(phonocmap::core::NullSink)
    };
    let result = phonocmap::opt::run_portfolio_seeded_traced(
        problem,
        spec,
        budget,
        seed,
        None,
        sink.as_mut(),
    );
    println!(
        "{} finished: {} rounds, {}/{} evaluations, best {} = {:.3}",
        result.spec,
        result.rounds,
        result.evaluations,
        result.budget,
        problem.objective(),
        result.best_score
    );
    if let Some((lane, round)) = result.collapsed {
        println!(
            "dominance collapse: lane {lane} ({}) took the whole budget from round {} on",
            result.lanes[lane].label,
            round + 1
        );
    }
    println!("lanes (allotments sum to the global budget):");
    for lane in &result.lanes {
        println!(
            "  {:<24} {:>7}/{:<7} evals  best {:>9.3} dB",
            lane.label, lane.used, lane.allotted, lane.best_score
        );
    }
    println!(
        "round incumbents: {}",
        result
            .round_best
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    println!();
    print!("{}", analyze(problem, &result.best_mapping));
    println!();
    print!("{}", result.stats.route_mix_table());
    if let Some(path) = trace_out {
        write_trace(&path, "portfolio", &sink.drain())?;
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    // One shared driver with the standalone `sweep` bin: same flags,
    // same progress output, same JSON provenance.
    bench::sweep::run_sweep_cli(args, "phonocmap sweep")
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    // One shared driver with the standalone `replay` bin.
    bench::replay::run_replay_cli(args, "phonocmap replay")
}

fn cmd_parallel_bench(args: &[String]) -> Result<(), String> {
    // One shared driver with the standalone `parallel` bin.
    bench::parallel::run_parallel_cli(args, "phonocmap parallel-bench")
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let path = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or("trace needs a JSONL trace file (record one with --trace-out)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (header, events) = phonocmap::core::parse_trace(&text)?;
    print!("{}", phonocmap::core::summarize_trace(&header, &events)?);
    Ok(())
}

/// Whether `--trace-out` should install a recording sink: the flag was
/// given and `PHONOC_TRACE_NULL` (the CI off-switch check) is unset.
fn trace_recording(trace_out: Option<&String>) -> bool {
    trace_out.is_some() && std::env::var_os("PHONOC_TRACE_NULL").is_none()
}

/// Writes a recorded event stream as a `phonocmap-trace/1` JSONL file.
fn write_trace(
    path: &str,
    source: &str,
    events: &[phonocmap::core::TraceEvent],
) -> Result<(), String> {
    std::fs::write(path, phonocmap::core::render_trace(source, events))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path} ({} events)", events.len());
    Ok(())
}

fn cmd_optimize(args: &[String]) -> Result<(), String> {
    let Setup { problem, seed } = build_problem(args)?;
    let algo_name = flag(args, "--algo").unwrap_or_else(|| "r-pbla".into());
    let budget: usize = flag(args, "--budget")
        .map(|s| s.parse().map_err(|_| format!("bad budget `{s}`")))
        .transpose()?
        .unwrap_or(100_000);
    if budget == 0 {
        return Err("--budget must be at least 1".into());
    }
    // `--algo` speaks the one search grammar:
    // `name[@policy][/peek][!objective]` for a single optimizer (e.g.
    // `r-pbla@sampled/hybrid!power`), or `portfolio:...` for the
    // multi-lane racer (same engine as the `portfolio` subcommand).
    let single = match phonocmap::opt::search_spec(&algo_name)? {
        phonocmap::opt::SearchSpec::Portfolio(spec) => {
            if flag(args, "--neighborhood").is_some() {
                return Err(
                    "--neighborhood does not apply to a portfolio run: each lane pins its own \
                     policy in the spec (e.g. `portfolio:r-pbla@locality+sa`)"
                        .into(),
                );
            }
            return run_portfolio_session(&problem, &spec, budget, seed, flag(args, "--trace-out"));
        }
        phonocmap::opt::SearchSpec::Single(single) => single,
    };
    let explicit_policy = match flag(args, "--neighborhood") {
        Some(name) => Some(
            NeighborhoodPolicy::by_name(&name)
                .ok_or_else(|| format!("unknown neighborhood `{name}` ({})", policy_names()))?,
        ),
        // `--algo r-pbla@sampled` works too; an explicit flag wins.
        None => single.policy,
    };
    // The policy only steers the swap-neighbourhood scanners; warn
    // instead of silently mislabeling a population-strategy run.
    if explicit_policy.is_some() && matches!(single.optimizer.name(), "rs" | "ga" | "exhaustive") {
        eprintln!(
            "warning: `{}` does not scan a swap neighborhood; --neighborhood has no effect",
            single.optimizer.name()
        );
    }
    let policy = explicit_policy.unwrap_or_default();

    let mut config = DseConfig::new(budget, seed)
        .with_strategy(single.strategy.unwrap_or_default())
        .with_policy(policy);
    config.objective = single.objective;
    // A `!objective` suffix re-targets the session; report under the
    // objective the scores actually mean.
    let objective = single.objective.unwrap_or_else(|| problem.objective());
    let trace_out = flag(args, "--trace-out");
    // The recorder is invisible to the search (bit-identical results,
    // property-pinned), so the traced and untraced paths print the
    // same report.
    let (result, events) = if trace_recording(trace_out.as_ref()) {
        phonocmap::core::run_dse_traced(&problem, single.optimizer.as_ref(), &config)
    } else {
        (
            run_dse(&problem, single.optimizer.as_ref(), &config),
            Vec::new(),
        )
    };
    println!(
        "{} finished: {} evaluations, best {} = {:.3}",
        result.optimizer, result.evaluations, objective, result.best_score
    );
    println!("task placement:");
    for t in problem.cg().tasks() {
        let tile = result.best_mapping.tile_of_task(t.0);
        let c = problem.topology().coord(tile);
        println!(
            "  {:<16} -> tile {:<3} {}",
            problem.cg().task_name(t),
            tile.0,
            c
        );
    }
    println!();
    print!("{}", analyze(&problem, &result.best_mapping));
    println!();
    print!("{}", result.stats.route_mix_table());
    if let Some(path) = trace_out {
        write_trace(&path, "optimize", &events)?;
    }
    Ok(())
}
