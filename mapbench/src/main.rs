//! The mapping-job benchmark.
//!
//! ```text
//! mapbench --workload <paper-table2|stream-power> --seed N
//!          --seconds S --trace <0|1>
//! ```
//!
//! A single-process, closed-loop load generator: one client runs the
//! workload's jobs back to back on a one-worker pool, re-checks
//! every output, and prints each metric by name with its unit. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` measures the end-to-end metrics: set-up time, job
//!   throughput and latency, search quality and peak memory.
//! * `--trace 1` runs one untraced and one traced pass, then the layer
//!   probes, and reports the per-layer metrics listed in
//!   `mapbench/METRICS.md`.

mod probes;
mod stamps;
mod stats;
mod workload;

use phonocmap::core::parallel::set_worker_override;
use phonocmap::core::NeighborhoodPolicy;
use phonocmap::opt::neighborhood::AUTO_EXHAUSTIVE_MAX_PAIRS;
use phonocmap::opt::{admitted_moves, scan_quota, single_spec, PortfolioSpec, WarmSource};
use stamps::{StampSink, StampTotals, CLASSES};
use stats::{mean, median, proc_status_mb, quantile, ratio};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Outcome, Request, Search, Sig, Workload, WORKLOADS};

/// Builds of the workload in a traced run; the build-layer metrics are
/// taken over them.
const SETUP_REPS: usize = 9;

/// Passes a run makes at least, whatever `--seconds` says: every job is
/// re-run and compared, and its fastest time is taken from several.
const MIN_PASSES: usize = 3;

/// Workers the pool runs the jobs with. On a shared 2-vCPU host a
/// second worker gave paper-table2 ~19% more jobs/s but twice the
/// run-to-run spread; the traced probes measure the parallel layers.
const JOB_WORKERS: usize = 1;

/// Worker ceiling of the parallel probes: `min(host cores, this)`.
const MAX_WORKERS: usize = 2;

/// `BENCH_evaluator.json` `evaluate_mapping` medians (ns, recorded on a
/// single-core host in an earlier revision), printed beside today's
/// `evaluator.full_ns` on the paper apps. Read-only reference figures.
const STALE_FULL_NS: [(&str, f64); 8] = [
    ("263dec_mp3dec", 1894.0),
    ("263enc_mp3enc", 1535.0),
    ("DVOPD", 6284.0),
    ("MPEG-4", 3353.0),
    ("MWD", 1494.0),
    ("PIP", 1006.0),
    ("VOPD", 2680.0),
    ("Wavelet", 3974.0),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{name} needs a value"))
    };
    let workload = flag("--workload")?;
    if !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown workload `{workload}` ({})",
            names.join("|")
        ));
    }
    let seed = flag("--seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = flag("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match flag("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Named metrics with units, printed as lines and as the result JSON.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        println!("metric {name} = {value} {unit}");
        self.metrics.push((name.to_owned(), value, unit));
    }

    fn json(&self, attempted: usize, failed: usize) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Pass/fail bookkeeping shared by both modes.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        eprintln!("check failed: {what}: {why}");
    }
}

/// Runs `req`, catching a panic as a failure. Returns the outcome and
/// the wall time of the call.
fn attempt(
    w: &mut Workload,
    req: &Request,
    sink: Option<&StampSink>,
    tally: &mut Tally,
) -> (Option<Outcome>, f64) {
    tally.attempted += 1;
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| w.run(req, sink)));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(out) => match w.check(req, &out) {
            Ok(()) => (Some(out), ms),
            Err(why) => {
                tally.fail(&format!("{req:?}"), &why);
                (None, ms)
            }
        },
        Err(_) => {
            tally.fail(&format!("{req:?}"), "panicked");
            (None, ms)
        }
    }
}

/// Builds the workload `SETUP_REPS` times (dropping each build before
/// the next) and keeps the last build.
fn setup(args: &Args) -> (Workload, Vec<workload::SetupTimes>, f64) {
    let rss_before = proc_status_mb("VmRSS");
    let mut growth = 0.0;
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let (w, t) = Workload::build(&args.workload, args.seed).expect("workload name was checked");
        if rep == 0 {
            growth = proc_status_mb("VmRSS") - rss_before;
        }
        times.push(t);
        kept = Some(w);
    }
    (kept.expect("at least one build"), times, growth)
}

fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_owned(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown (not a git checkout)".into()
    } else {
        id.chars().take(12).collect()
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = host_cores.min(MAX_WORKERS);
    set_worker_override(Some(JOB_WORKERS));
    let why = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map_or("", |(_, why)| *why);
    println!("# workload {} (seed {}): {why}", args.workload, args.seed);
    println!(
        "# provenance: host_cores={host_cores} job_workers={JOB_WORKERS} probe_workers={workers} commit={} rustc=\"{}\" mode={}",
        git_commit(),
        rustc_version(),
        if args.trace { "traced" } else { "end-to-end" }
    );
    let (report, tally) = if args.trace {
        traced_run(&args, workers)
    } else {
        end_to_end(&args)
    };
    println!("{}", report.json(tally.attempted, tally.failed));
    ExitCode::SUCCESS
}

/// The closed loop: whole passes over the requests, each on a freshly
/// built workload, until `--seconds` of wall time have passed and every
/// request has run `MIN_PASSES` times.
///
/// The host's other tenants slow it in bursts of a second or so (the same
/// build reads ~11 or ~16 ms depending on the moment), so each time is
/// the fastest of its repetitions spread over the run: a request's job
/// time is its fastest pass, and `setup_s` the fastest build.
fn end_to_end(args: &Args) -> (Report, Tally) {
    let mut setup_s = Vec::new();
    let mut build = || {
        let (w, t) = Workload::build(&args.workload, args.seed).expect("workload name was checked");
        setup_s.push(t.total_ns as f64 / 1e9);
        w
    };
    let mut w = build();
    let n = w.requests.len();
    let mut tally = Tally::default();
    let mut first: Vec<Option<Sig>> = vec![None; n];
    let mut gains = Vec::new();
    let mut scores = Vec::new();
    let mut fastest = vec![f64::INFINITY; n];
    let mut all = Vec::new();
    let mut passes = 0;
    let budget = Duration::from_secs_f64(args.seconds);
    let t_run = Instant::now();
    while passes < MIN_PASSES || t_run.elapsed() < budget {
        if passes > 0 {
            drop(w);
            w = build();
        }
        w.begin_round();
        for (i, slot) in first.iter_mut().enumerate() {
            let req = w.requests[i].clone();
            let (out, ms) = attempt(&mut w, &req, None, &mut tally);
            fastest[i] = fastest[i].min(ms);
            all.push(ms);
            let Some(out) = out else { continue };
            match slot {
                None => {
                    let p = &w.problems[req.problem(&w.stream)];
                    gains.push(out.score - p.baseline);
                    scores.push(out.score);
                    *slot = Some(out.sig());
                }
                Some(sig) if *sig != out.sig() => {
                    tally.fail(&format!("{req:?}"), "re-run is not bit-identical");
                }
                Some(_) => {}
            }
        }
        passes += 1;
    }
    let mut by_kind: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for (req, &ms) in w.requests.iter().zip(&fastest) {
        by_kind.entry(w.kind(req)).or_default().push(ms);
    }
    for (kind, ms) in &by_kind {
        println!(
            "# job_ms {kind}: p50 {:.3} p90 {:.3} over {} jobs",
            median(ms),
            quantile(ms, 0.9),
            ms.len()
        );
    }
    println!(
        "# {n} jobs per pass ({} beyond p90), each timed {passes} times; {} builds; {} attempted, {} failed (failed_frac {})",
        n / 10,
        setup_s.len(),
        tally.attempted,
        tally.failed,
        ratio(tally.failed as f64, tally.attempted as f64)
    );
    println!(
        "# median of all passes: job_ms_p50 {:.3}, setup_s {:.4} (the metrics take the fastest)",
        median(&all),
        median(&setup_s)
    );
    println!(
        "# mean best score {} (objective dB; the gain below is over seeded random placements)",
        mean(&scores)
    );
    let mut r = Report::default();
    r.put("setup_s", quantile(&setup_s, 0.0), "s");
    r.put(
        "jobs_per_s",
        ratio(n as f64, fastest.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    r.put("job_ms_p50", median(&fastest), "ms");
    r.put("job_ms_p90", quantile(&fastest, 0.9), "ms");
    r.put("score_gain_db", mean(&gains), "dB");
    r.put("peak_rss_mb", proc_status_mb("VmHWM"), "MB");
    (r, tally)
}

/// Moves a single-lane r-pbla job handed to its scans, and how many of
/// them were never billed: every burst but the last bills its whole
/// pass, and the last pass is rebuilt from the public `admitted_moves`
/// / `scan_quota` with the budget the burst found left. `None` for jobs
/// whose scans are not exhaustive or sampled.
fn scan_tail(w: &Workload, req: &Request, bursts: &[stamps::Burst]) -> Option<(u64, u64)> {
    let Request::Job {
        problem,
        search: Search::Single(text),
        ..
    } = req
    else {
        return None;
    };
    let spec = single_spec(text).ok()?;
    let last = bursts.last()?;
    if spec.optimizer.name() != "r-pbla" {
        return None;
    }
    let p = &w.problems[*problem].problem;
    let admitted = admitted_moves(p.task_count(), p.tile_count()).len();
    let handed_last = match spec.policy.unwrap_or_default() {
        NeighborhoodPolicy::Exhaustive => admitted,
        NeighborhoodPolicy::Auto if admitted <= AUTO_EXHAUSTIVE_MAX_PAIRS => admitted,
        NeighborhoodPolicy::Auto | NeighborhoodPolicy::Sampled => {
            let unit = p.evaluator().edge_count().max(1) as u64;
            scan_quota(last.units.div_ceil(unit).max(1) as usize, admitted)
        }
        NeighborhoodPolicy::Locality => return None,
    }
    .max(last.count);
    let earlier: usize = bursts[..bursts.len() - 1].iter().map(|b| b.count).sum();
    Some((
        (earlier + handed_last) as u64,
        (handed_last - last.count) as u64,
    ))
}

/// Neighbourhood policies the workload's jobs scan with.
fn policies(w: &Workload) -> Vec<NeighborhoodPolicy> {
    let mut out = Vec::new();
    for req in &w.requests {
        let found: Vec<NeighborhoodPolicy> = match req {
            Request::Job {
                search: Search::Single(text),
                ..
            } => {
                let spec = single_spec(text).expect("benchmark specs parse");
                if matches!(spec.optimizer.name(), "rs" | "ga") {
                    vec![]
                } else {
                    vec![spec.policy.unwrap_or_default()]
                }
            }
            _ => PortfolioSpec::parse(workload::PORTFOLIO)
                .expect("portfolio spec parses")
                .lanes
                .iter()
                .map(|l| l.policy)
                .collect(),
        };
        for p in found {
            if !out.contains(&p) {
                out.push(p);
            }
        }
    }
    out
}

/// One untraced and one traced pass over the requests plus coverage
/// jobs, then the layer probes.
fn traced_run(args: &Args, workers: usize) -> (Report, Tally) {
    let (mut w, setups, rss_growth) = setup(args);
    let mut tally = Tally::default();
    let own = w.requests.len();
    let mut reqs = w.requests.clone();
    reqs.extend(w.coverage());

    // Untraced pass: reference results and wall times.
    w.begin_round();
    let plain: Vec<(Option<Outcome>, f64)> = reqs
        .iter()
        .map(|req| attempt(&mut w, req, None, &mut tally))
        .collect();

    // Traced pass on the same requests, through a stamping sink.
    // Stamp totals over the workload's own jobs, and over own plus
    // coverage jobs (every route class is stamped there).
    let sink = StampSink::new();
    let mut own_totals = StampTotals::default();
    let mut totals = StampTotals::default();
    let mut traced_ms = 0.0;
    let mut plain_ms = 0.0;
    let mut traced: Vec<Option<Outcome>> = Vec::new();
    w.begin_round();
    for (i, req) in reqs.iter().enumerate() {
        let from = sink.len();
        let (out, ms) = attempt(&mut w, req, Some(&sink), &mut tally);
        let events = sink.since(from);
        if let (Some(t), Some(p)) = (&out, &plain[i].0) {
            if t.sig() != p.sig() {
                tally.fail(&format!("{req:?}"), "traced result differs from untraced");
            }
        }
        if i < own {
            traced_ms += ms;
            plain_ms += plain[i].1;
        }
        if let Some(out) = &out {
            let is_single = matches!(
                req,
                Request::Job {
                    search: Search::Single(_),
                    ..
                }
            );
            if is_single {
                let bursts = stamps::bursts(&events, out.objective);
                let tail = scan_tail(&w, req, &bursts);
                totals.add_job(&bursts, out.start_stamp, out.search_ns, tail);
                if i < own {
                    own_totals.add_job(&bursts, out.start_stamp, out.search_ns, tail);
                }
            } else {
                totals.round_ms.extend(
                    stamps::round_ns(&events, out.start_stamp)
                        .iter()
                        .map(|&ns| ns as f64 / 1e6),
                );
            }
        }
        traced.push(out);
    }

    // Counters from the workload's own jobs; an exact cache hit returns
    // a stored run's counters without doing its work, so it is left out.
    let outs: Vec<&Outcome> = traced[..own].iter().flatten().collect();
    let worked: Vec<&&Outcome> = outs.iter().filter(|o| !o.exact_hit()).collect();
    let jobs = worked.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Outcome) -> usize| worked.iter().map(|o| f(o)).sum::<usize>() as f64;
    // Workloads whose own jobs are all portfolios report the engine
    // aggregates from the coverage jobs.
    let engine = if own_totals.units > 0 {
        &own_totals
    } else {
        &totals
    };
    let rejected = sum(&|o| o.stats.bound_rejected);
    let verified = sum(&|o| o.stats.bound_verified);
    let peeks = sum(&|o| o.stats.peeks_total());
    let stream_reqs = outs.iter().filter(|o| o.source.is_some()).count();
    let count_source = |is: fn(&WarmSource) -> bool| {
        outs.iter()
            .filter(|o| o.source.as_ref().is_some_and(is))
            .count() as f64
    };
    let portfolio_rounds: Vec<f64> = worked
        .iter()
        .filter(|o| o.stats.rounds > 0)
        .map(|o| o.stats.rounds as f64)
        .collect();

    // Probes on the workload's own problems and best mappings.
    let mut best = vec![Vec::new(); w.problems.len()];
    for (req, out) in reqs[..own].iter().zip(&plain) {
        if let Some(out) = &out.0 {
            let slot = &mut best[req.problem(&w.stream)];
            if slot.len() < 4 {
                slot.push(out.mapping.clone());
            }
        }
    }
    let ev = probes::evaluator(&w.problems, &best, args.seed);
    let (pass_us, moves_per_pass) =
        probes::neighborhood(&w.problems, &policies(&w), w.budget, args.seed);
    let largest = w
        .problems
        .iter()
        .max_by_key(|p| p.problem.tile_count())
        .expect("workloads have problems");
    let (scan_speedup, scan_same) =
        probes::scan_speedup(&largest.problem, w.budget, workers, args.seed);
    let (lane_speedup, lane_same) =
        probes::lane_speedup(&w.problems[0].problem, w.budget, workers, args.seed);
    set_worker_override(Some(JOB_WORKERS));
    if !scan_same {
        tally.fail("parallel scan", "results differ between worker counts");
    }
    if !lane_same {
        tally.fail("portfolio lanes", "results differ between worker counts");
    }
    let (lookup_us, exact_hit_us) = probes::warm(&w.problems, w.budget, args.seed);
    let (mutate_us, unchanged) = probes::mutate(&mut w.problems[0].problem, args.seed);
    if !unchanged {
        tally.fail("problem mutation", "mutate-and-revert changed the problem");
    }

    // Side-by-side prints.
    println!("# route         probe_ns_per_unit  in_run_ns_per_unit (stamped)");
    let probe_units = [
        ev.full_ns_per_unit,
        ev.bounded_snr,
        ev.loss,
        ev.bounded_loss,
    ];
    for (c, name) in CLASSES.iter().enumerate() {
        println!(
            "#   {name:<13} {:>16.2}  {:>16.2}",
            probe_units[c],
            totals.class_ns_per_unit(c)
        );
    }
    println!(
        "#   exact_snr     {:>16.2}  (no r-pbla route)",
        ev.exact_snr
    );
    if w.name == "paper-table2" {
        println!(
            "# evaluator.full_ns per app (mesh)   today  BENCH_evaluator.json (stale, 1-core host)"
        );
        for (i, p) in w.problems.iter().enumerate() {
            if let Some((_, old)) = STALE_FULL_NS
                .iter()
                .find(|(app, _)| format!("{app}/mesh") == p.name)
            {
                println!("#   {:<28} {:>8.0}  {:>8.0}", p.name, ev.full_ns[i], old);
            }
        }
    }
    let setup_new: Vec<f64> = setups
        .iter()
        .flat_map(|s| s.new_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    let cg_ms: Vec<f64> = setups.iter().map(|s| s.cg_ns as f64 / 1e6).collect();
    let analyze_us: Vec<f64> = plain[..own]
        .iter()
        .filter_map(|(o, _)| o.as_ref().map(|o| o.analyze_ns as f64 / 1e3))
        .collect();
    println!(
        "# traced pass: {own} workload jobs + {} coverage jobs, {} attempted, {} failed",
        reqs.len() - own,
        tally.attempted,
        tally.failed
    );

    let mut r = Report::default();
    r.put("problem.build_ms_p50", median(&setup_new), "ms");
    r.put("apps.cg_ms_total", median(&cg_ms), "ms");
    r.put("problem.rss_growth_mb", rss_growth, "MB");
    r.put("evaluator.full_ns", mean(&ev.full_ns), "ns");
    r.put(
        "evaluator.full_per_job",
        sum(&|o| o.stats.full_evaluations) / jobs,
        "count",
    );
    r.put(
        "evaluator_delta.bounded_snr_ns_per_unit",
        ev.bounded_snr,
        "ns/unit",
    );
    r.put(
        "evaluator_delta.exact_snr_ns_per_unit",
        ev.exact_snr,
        "ns/unit",
    );
    r.put("evaluator_delta.loss_ns_per_unit", ev.loss, "ns/unit");
    r.put(
        "evaluator_delta.bounded_loss_ns_per_unit",
        ev.bounded_loss,
        "ns/unit",
    );
    r.put("evaluator_delta.init_state_us", ev.init_state_us, "us");
    r.put("evaluator_delta.apply_move_us", ev.apply_move_us, "us");
    r.put(
        "engine.peeks.full",
        sum(&|o| o.stats.full_peeks) / jobs,
        "count",
    );
    r.put(
        "engine.peeks.delta",
        sum(&|o| o.stats.delta_exact) / jobs,
        "count",
    );
    r.put(
        "engine.peeks.loss",
        sum(&|o| o.stats.loss_fast_path) / jobs,
        "count",
    );
    r.put("engine.peeks.bound_rejected", rejected / jobs, "count");
    r.put("engine.peeks.bound_verified", verified / jobs, "count");
    r.put("engine.units_per_job", mean(&engine.units_per_job), "count");
    r.put(
        "engine.bound_rejection_rate",
        ratio(rejected, rejected + verified),
        "ratio",
    );
    r.put(
        "engine.improvements_per_kpeek",
        ratio(1e3 * sum(&|o| o.stats.improvements), peeks),
        "count",
    );
    r.put("engine.scan_ns_per_unit", engine.ns_per_unit(), "ns/unit");
    for (c, name) in CLASSES.iter().enumerate() {
        r.put(
            &format!("engine.scan_ns_per_unit.{name}"),
            totals.class_ns_per_unit(c),
            "ns/unit",
        );
    }
    r.put(
        "engine.admit_share",
        ratio(engine.admit_ns as f64, engine.search_ns as f64),
        "ratio",
    );
    r.put(
        "engine.unbilled_frac",
        ratio(engine.unbilled as f64, engine.handed as f64),
        "ratio",
    );
    r.put("neighborhood.pass_us", pass_us, "us");
    r.put("neighborhood.moves_per_pass", moves_per_pass, "count");
    r.put("parallel.scan_speedup", scan_speedup, "x");
    r.put("parallel.lane_speedup", lane_speedup, "x");
    r.put("portfolio.round_ms_p50", median(&totals.round_ms), "ms");
    r.put("portfolio.rounds_per_job", mean(&portfolio_rounds), "count");
    r.put("warm.lookup_us", lookup_us, "us");
    r.put("warm.exact_hit_us_p50", exact_hit_us, "us");
    r.put(
        "warm.exact",
        count_source(|s| matches!(s, WarmSource::ExactHit)),
        "count",
    );
    r.put(
        "warm.near",
        count_source(|s| matches!(s, WarmSource::NearHit { .. })),
        "count",
    );
    r.put(
        "warm.cold",
        count_source(|s| matches!(s, WarmSource::Cold)),
        "count",
    );
    let spent = outs
        .iter()
        .filter(|o| o.source.is_some())
        .map(|o| o.evaluations)
        .sum::<usize>() as f64;
    r.put(
        "warm.evals_saved_frac",
        if stream_reqs == 0 {
            0.0
        } else {
            1.0 - spent / (stream_reqs * w.budget) as f64
        },
        "ratio",
    );
    r.put("problem.mutate_us", mutate_us, "us");
    r.put("analysis.report_us", mean(&analyze_us), "us");
    r.put(
        "telemetry.trace_overhead_frac",
        ratio(traced_ms, plain_ms) - 1.0,
        "ratio",
    );
    (r, tally)
}
