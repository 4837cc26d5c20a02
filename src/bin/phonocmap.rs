//! The `phonocmap` command-line tool: the user-facing face of the
//! reproduction, mirroring the workflow of the paper's Java toolset.
//!
//! ```text
//! phonocmap list
//! phonocmap describe-router crux
//! phonocmap show-app VOPD [--dot]
//! phonocmap analyze  --app VOPD [--topology mesh] [--router crux] [--seed 1]
//! phonocmap optimize --app VOPD [--algo r-pbla[@policy]] [--objective snr|loss|power|margin]
//!                    [--topology mesh|torus|ring] [--router crux]
//!                    [--budget 100000] [--seed 42]
//! phonocmap optimize --file my_app.cg ...      # text-format CG input
//! phonocmap portfolio --app VOPD [--spec "r-pbla@sampled+sa,rounds=8"]
//! phonocmap sweep [--smoke] [--neighborhood P] [--out BENCH_sweep.json]
//! phonocmap replay [--smoke] [--budget N] [--out BENCH_warmstart.json]
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
//! Every subcommand rejects flags it does not know with an `error:`
//! line and a non-zero exit, and so does every command when
//! `PHONOC_WORKERS` is set to anything but a positive integer. The CG text format is documented in
//! `phonoc_apps::text`.

use bench::CliArgs;
use phonocmap::apps::text::parse_cg;
use phonocmap::core::PeekStrategy;
use phonocmap::opt::portfolio::DEFAULT_SPEC;
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
    let rest = &args[1..];
    let result = phonocmap::core::parallel::env_workers().and_then(|_| match command.as_str() {
        "list" => cmd_list(rest),
        "describe-router" => cmd_describe_router(rest),
        "show-app" => cmd_show_app(rest),
        "analyze" => cmd_analyze(rest),
        "optimize" => cmd_optimize(rest),
        "portfolio" => cmd_portfolio(rest),
        "sweep" => bench::sweep::run_sweep_cli(rest),
        "replay" => bench::replay::run_replay_cli(rest),
        "trace" => cmd_trace(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    });
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

/// The `--topology` choices, each named by its kind's display name:
/// the one table the help, `list` and [`build_problem`] read. Each kind
/// lays an application out through [`bench::topology_for`].
const TOPOLOGIES: [TopologyKind; 3] = [TopologyKind::Mesh, TopologyKind::Torus, TopologyKind::Ring];

/// `a|b|c` over every `--topology` name.
fn topology_names() -> String {
    TOPOLOGIES.map(|kind| kind.to_string()).join("|")
}

/// `a|b|c` over every router name in the registry.
fn router_names() -> String {
    RouterRegistry::with_builtins().names().join("|")
}

/// `a|b|c` over every built-in optimizer name in the registry.
fn optimizer_names() -> String {
    phonocmap::opt::builtin_names().join("|")
}

/// The top-level help. The optimizer and router lists come from the
/// registries, the `--topology` list from [`TOPOLOGIES`], and the
/// `@policy`, `/peek`, `!objective` and `--objective` name lists from
/// the enums' `ALL`, so every advertised name parses.
fn usage() -> String {
    let (objectives, policies, peeks) = (objective_names(), policy_names(), peek_names());
    let (optimizers, topologies, routers) = (optimizer_names(), topology_names(), router_names());
    format!(
        "phonocmap — application mapping for photonic NoCs
commands:
  list                         available benchmarks, routers, algorithms
  describe-router <name>       router datasheet (losses + crosstalk)
  show-app <name> [--dot]      benchmark communication graph
  analyze  --app <name> | --file <cg>   evaluate a random mapping
  optimize --app <name> | --file <cg>   search for the best mapping
  portfolio --app <name> | --file <cg>  race N search lanes with elite
        [--spec LANES[,rounds=N]]       exchange (try `portfolio help`)
  sweep [--smoke] [--out PATH]          scenario-matrix sweep: peek-route
        [--samples N] [--moves N]       timings + optimizer results as JSON
        [--budget N]                    (r-pbla runs once per neighborhood
        [--neighborhood POLICY]         stream; POLICY restricts to one)
  replay [--smoke] [--out PATH]         warm-start request streams through a
        [--budget N]                    persistent cache (cold / exact hit /
                                        perturbed / phase change) as JSON
  trace <file>                          analyze a phonocmap-trace/1 JSONL file
                                        (route mix, lane budget flow, cache
                                        hits) and verify its accounting
options (analyze/optimize/portfolio):
  --topology {topologies}   (default mesh)
  --router   {routers}   (default crux)
  --objective {objectives}   (default snr)
  --algo NAME[@policy][/peek][!objective]  (default r-pbla; optimize only)
             NAME: {optimizers} or portfolio:...
             @policy {policies}   (swap-scan stream; default
                     auto: exhaustive up to ~8x8 meshes, budget-aware sampling beyond)
             /peek {peeks}   (SNR peek route: every peek scores the same,
                     but the units it bills, so the distance a run
                     covers at equal budget, differ)
             !objective {objectives}   (re-targets the search)
  --budget N                   evaluations (default 100000)
  --seed N                     RNG seed (default 42)
  --trace-out PATH             record the run as phonocmap-trace/1 JSONL
             (optimize/portfolio/replay; read back with `phonocmap trace`;
             PHONOC_TRACE_NULL=1 writes a header-only trace, sink off)"
    )
}

/// The flags every command that builds a mapping problem accepts.
const PROBLEM_FLAGS: [&str; 6] = [
    "--app",
    "--file",
    "--topology",
    "--router",
    "--objective",
    "--seed",
];

/// Parses a problem-building command's arguments: [`PROBLEM_FLAGS`]
/// plus the command's own `extra` flags.
fn problem_args(args: &[String], extra: &[&str]) -> Result<CliArgs, String> {
    let flags: Vec<&str> = PROBLEM_FLAGS.iter().chain(extra).copied().collect();
    CliArgs::parse(args, &flags, &[], 0)
}

/// `--budget N` (default 100000, at least 1).
fn budget(args: &CliArgs) -> Result<usize, String> {
    Ok(args.count("--budget")?.unwrap_or(100_000))
}

fn cmd_list(args: &[String]) -> Result<(), String> {
    CliArgs::parse(args, &[], &[], 0)?;
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
    // Each routing with the topologies that use it, in table order.
    let mut routings: Vec<(&str, Vec<String>)> = Vec::new();
    for kind in TOPOLOGIES {
        let routing = bench::topology_for(1, kind).1.name();
        match routings.iter_mut().find(|(name, _)| *name == routing) {
            Some((_, topologies)) => topologies.push(kind.to_string()),
            None => routings.push((routing, vec![kind.to_string()])),
        }
    }
    println!("routing algorithms:");
    for (routing, topologies) in routings {
        println!("  {routing} ({})", topologies.join("/"));
    }
    Ok(())
}

fn cmd_describe_router(args: &[String]) -> Result<(), String> {
    let args = CliArgs::parse(args, &[], &[], 1)?;
    let name = args
        .positional(0)
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
    let args = CliArgs::parse(args, &[], &["--dot"], 1)?;
    let name = args
        .positional(0)
        .ok_or("show-app needs a benchmark name")?;
    let cg = phonocmap::apps::benchmarks::benchmark(name)
        .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    if args.switch("--dot") {
        print!("{}", cg.to_dot());
    } else {
        print!("{}", phonocmap::apps::text::render_cg(&cg));
    }
    Ok(())
}

fn load_cg(args: &CliArgs) -> Result<CommunicationGraph, String> {
    if let Some(app) = args.value("--app") {
        return phonocmap::apps::benchmarks::benchmark(&app)
            .ok_or_else(|| format!("unknown benchmark `{app}`"));
    }
    if let Some(path) = args.value("--file") {
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

fn build_problem(args: &CliArgs) -> Result<Setup, String> {
    let cg = load_cg(args)?;
    if cg.task_count() == 0 {
        return Err(format!("application `{}` has no tasks to map", cg.name()));
    }
    let topology_name = args.value("--topology").unwrap_or_else(|| "mesh".into());
    let router_name = args.value("--router").unwrap_or_else(|| "crux".into());
    let objective = match args.value("--objective").as_deref() {
        None => Objective::MaximizeWorstCaseSnr,
        Some(name) => Objective::by_name(name)
            .ok_or_else(|| format!("unknown objective `{name}` ({})", objective_names()))?,
    };
    let seed: u64 = args
        .value("--seed")
        .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
        .transpose()?
        .unwrap_or(42);

    let kind = TOPOLOGIES
        .into_iter()
        .find(|kind| kind.to_string() == topology_name)
        .ok_or_else(|| format!("unknown topology `{topology_name}` ({})", topology_names()))?;
    let (topology, routing) = bench::topology_for(cg.task_count(), kind);
    let router = RouterRegistry::with_builtins()
        .get(&router_name)
        .ok_or_else(|| format!("unknown router `{router_name}` ({})", router_names()))?;
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
    let Setup { problem, seed } = build_problem(&problem_args(args, &[])?)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mapping = Mapping::random(problem.task_count(), problem.tile_count(), &mut rng);
    print!("{}", analyze(&problem, &mapping));
    Ok(())
}

/// The `portfolio` subcommand's help (lane name lists generated like
/// [`usage`]'s).
fn portfolio_help() -> String {
    let (objectives, policies, peeks) = (objective_names(), policy_names(), peek_names());
    let optimizers = optimizer_names();
    format!(
        "phonocmap portfolio — deterministic multi-lane search with elite exchange
Runs N search lanes as bulk-synchronous rounds. After each round, every
lane restarts from the round's best incumbent; per-lane budget slices
sum exactly to --budget, so a portfolio run is comparable to any single
optimizer at the same budget. Results are bit-identical for every
worker-thread count (set PHONOC_WORKERS=N to pin).

usage:
  phonocmap portfolio --app <name> | --file <cg> [--spec SPEC] [options]

SPEC grammar (default: {DEFAULT_SPEC}):
  lane[+lane...][,exchange=best][,rounds=N]
  lane = optimizer[@neighborhood][/peek][!objective]
    optimizer     {optimizers}
    @neighborhood {policies}  (swap-scan streams)
    /peek         {peeks}  (same score per peek; the units billed, so a
                  lane's progress at equal budget, differ)
    !objective    {objectives}  (re-targets the lane)
  exchange=best   every lane restarts from the round's best (the one rule)

examples:
  phonocmap portfolio --app VOPD
  phonocmap portfolio --app MPEG4 --spec \"r-pbla@sampled+r-pbla@locality+sa,rounds=8\"
  phonocmap portfolio --app VOPD --spec \"r-pbla+tabu+ils,rounds=4\" --budget 30000
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
    let args = problem_args(args, &["--spec", "--budget", "--trace-out"])?;
    let spec_text = args.value("--spec").unwrap_or_else(|| DEFAULT_SPEC.into());
    let spec = PortfolioSpec::parse(&spec_text)?;
    let Setup { problem, seed } = build_problem(&args)?;
    let budget = budget(&args)?;
    run_portfolio_session(&problem, &spec, budget, seed, args.value("--trace-out"))
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
        result.stats.rounds,
        result.evaluations,
        result.budget,
        problem.objective(),
        result.best_score
    );
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

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let args = CliArgs::parse(args, &[], &[], 1)?;
    let path = args
        .positional(0)
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
    let args = problem_args(args, &["--algo", "--budget", "--trace-out"])?;
    let Setup { problem, seed } = build_problem(&args)?;
    let algo_name = args.value("--algo").unwrap_or_else(|| "r-pbla".into());
    let budget = budget(&args)?;
    // `--algo` speaks the one search grammar:
    // `name[@policy][/peek][!objective]` for a single optimizer (e.g.
    // `r-pbla@sampled/hybrid!power`), or `portfolio:...` for the
    // multi-lane racer (same engine as the `portfolio` subcommand).
    let single = match phonocmap::opt::search_spec(&algo_name)? {
        phonocmap::opt::SearchSpec::Portfolio(spec) => {
            return run_portfolio_session(&problem, &spec, budget, seed, args.value("--trace-out"));
        }
        phonocmap::opt::SearchSpec::Single(single) => single,
    };
    // The policy only steers optimizers that draw from a swap
    // neighbourhood (GA mutation included); warn instead of silently
    // mislabeling a run that never builds one.
    if let Some(policy) = single.policy {
        if matches!(single.optimizer.name(), "rs" | "exhaustive" | "exact") {
            eprintln!(
                "warning: `{}` does not scan a swap neighborhood; `@{policy}` has no effect",
                single.optimizer.name()
            );
        }
    }
    let policy = single.policy.unwrap_or_default();

    let mut config = DseConfig::new(budget, seed)
        .with_strategy(single.strategy.unwrap_or_default())
        .with_policy(policy);
    config.objective = single.objective;
    // A `!objective` suffix re-targets the session; report under the
    // objective the scores actually mean.
    let objective = single.objective.unwrap_or_else(|| problem.objective());
    let trace_out = args.value("--trace-out");
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
