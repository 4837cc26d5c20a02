//! Workload definitions and the job executor.
//!
//! A workload is a list of problems (built in the timed set-up) and a
//! list of requests run back to back by one client. Every request goes
//! through the public entry points `phonocmap optimize` / `portfolio`
//! use — `run_dse`, `run_portfolio`, `WarmCache::solve` — followed by
//! the `analyze` report the CLI prints. The traced variants install a
//! [`StampSink`] the same three ways the library offers: a boxed sink on
//! an `OptContext` (single lanes), `run_portfolio_seeded_traced`, and
//! `WarmCache::solve_traced`.

use crate::stamps::StampSink;
use crate::stats::{mean, mix};
use phonocmap::apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonocmap::apps::{benchmarks, CommunicationGraph, TaskId};
use phonocmap::core::{
    analyze, run_dse, DseConfig, Mapping, MappingProblem, Objective, OptContext, RunStats,
};
use phonocmap::opt::{
    run_portfolio, run_portfolio_seeded_traced, single_spec, PortfolioSpec, WarmCache, WarmSource,
};
use phonocmap::prelude::{crux_router, fit_grid, Length, PhysicalParameters, Topology, XyRouting};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// The portfolio `phonocmap portfolio` runs by default.
pub const PORTFOLIO: &str = "r-pbla@sampled+r-pbla@locality,exchange=best,rounds=14";

/// Workload names and the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 2] = [
    (
        "paper-table2",
        "the paper's Table II request set on small meshes: time sits in full evaluations, exhaustive scans and the analyze report",
    ),
    (
        "stream-power",
        "a warm-cache request stream under power/loss objectives with in-place problem mutation: loss routes and cache hits",
    ),
];

/// Table II's eight applications, in the paper's order.
const TABLE2_APPS: [&str; 8] = [
    "263dec_mp3dec",
    "263enc_mp3enc",
    "DVOPD",
    "MPEG-4",
    "MWD",
    "PIP",
    "VOPD",
    "Wavelet",
];

const STREAM_FAMILIES: [ScenarioFamily; 4] = [
    ScenarioFamily::MpegLike,
    ScenarioFamily::Hotspot,
    ScenarioFamily::Clustered,
    ScenarioFamily::Random,
];

/// Evaluation budget per request, per workload.
const PAPER_BUDGET: usize = 4_000;
const STREAM_BUDGET: usize = 300;

/// Search seeds per (problem, search) pair.
const PAPER_SEEDS: u64 = 3;

/// Side of the stream's square scenario meshes. On larger cells the
/// problem tables (92 MB over the stream at 10×10, 36 MB at 8×8) made
/// job times follow other tenants' load on a shared host.
const STREAM_MESH: usize = 8;

/// How a problem's communication graph is produced.
#[derive(Debug, Clone)]
enum Source {
    App(&'static str),
    Scenario(ScenarioSpec),
}

/// One problem of a workload, before it is built.
#[derive(Debug, Clone)]
struct ProblemDef {
    name: String,
    source: Source,
    torus: bool,
    objective: Objective,
}

impl ProblemDef {
    fn cg(&self) -> CommunicationGraph {
        match &self.source {
            Source::App(name) => benchmarks::benchmark(name).expect("Table II app exists"),
            Source::Scenario(spec) => spec.build(),
        }
    }

    fn topology(&self, tasks: usize) -> Topology {
        let pitch = Length::from_mm(2.5);
        let (w, h) = match &self.source {
            Source::App(_) => fit_grid(tasks),
            Source::Scenario(spec) => (spec.mesh, spec.mesh),
        };
        if self.torus {
            Topology::torus(w.max(3), h.max(3), pitch)
        } else {
            Topology::mesh(w, h, pitch)
        }
    }
}

/// The search a job runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Search {
    /// A single optimizer under the `name[@policy][/peek][!objective]`
    /// grammar, as `phonocmap optimize --algo` takes it.
    Single(String),
    /// The default portfolio, as `phonocmap portfolio` runs it.
    Portfolio,
}

/// Steps of one stream base request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Cold,
    Repeat,
    Perturb,
    Phase,
    Revert,
}

const STEPS: [Step; 5] = [
    Step::Cold,
    Step::Repeat,
    Step::Perturb,
    Step::Phase,
    Step::Revert,
];

#[derive(Debug, Clone)]
pub enum Request {
    Job {
        problem: usize,
        search: Search,
        budget: usize,
        seed: u64,
    },
    Stream {
        base: usize,
        step: Step,
    },
}

impl Request {
    pub fn problem(&self, stream: &[Base]) -> usize {
        match self {
            Request::Job { problem, .. } => *problem,
            Request::Stream { base, .. } => stream[*base].problem,
        }
    }
}

/// Everything a stream base needs to mutate its problem and back.
#[derive(Debug, Clone)]
pub struct Base {
    pub problem: usize,
    seed: u64,
    originals: Vec<(TaskId, TaskId, f64)>,
    perturbed: Vec<(TaskId, TaskId, f64)>,
    /// The pair the phase change connects.
    added: (TaskId, TaskId),
}

/// A built problem plus the reference score quality is measured from.
pub struct Problem {
    pub name: String,
    pub problem: MappingProblem,
    /// Mean score of seeded random placements (the problem objective).
    pub baseline: f64,
}

/// The comparable part of a job result.
#[derive(Debug, Clone, PartialEq)]
pub struct Sig {
    pub score_bits: u64,
    pub mapping: Mapping,
    pub evaluations: usize,
    pub stats: RunStats,
}

/// A finished job.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub score: f64,
    pub mapping: Mapping,
    pub evaluations: usize,
    pub budget: usize,
    pub stats: RunStats,
    pub objective: Objective,
    /// How the warm cache served the request (stream steps only).
    pub source: Option<WarmSource>,
    /// Wall times: problem mutation (stream steps), search, report.
    pub mutate_ns: u64,
    pub search_ns: u64,
    pub analyze_ns: u64,
    /// Sink clock at search start (traced jobs only).
    pub start_stamp: u64,
}

impl Outcome {
    fn new(
        score: f64,
        mapping: Mapping,
        evaluations: usize,
        budget: usize,
        stats: RunStats,
        objective: Objective,
    ) -> Outcome {
        Outcome {
            score,
            mapping,
            evaluations,
            budget,
            stats,
            objective,
            source: None,
            mutate_ns: 0,
            search_ns: 0,
            analyze_ns: 0,
            start_stamp: 0,
        }
    }

    pub fn exact_hit(&self) -> bool {
        self.source == Some(WarmSource::ExactHit)
    }

    pub fn sig(&self) -> Sig {
        Sig {
            score_bits: self.score.to_bits(),
            mapping: self.mapping.clone(),
            evaluations: self.evaluations,
            stats: self.stats,
        }
    }
}

/// Set-up timings of one build of a workload.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub total_ns: u64,
    pub cg_ns: u64,
    pub new_ns: Vec<u64>,
}

/// A built workload: its problems, stream bases, requests and the
/// executor state (the persistent warm cache of a stream).
pub struct Workload {
    pub name: &'static str,
    pub problems: Vec<Problem>,
    pub stream: Vec<Base>,
    pub requests: Vec<Request>,
    pub budget: usize,
    cache: WarmCache,
    /// Per base: the cold solve of the current round.
    cold: Vec<Option<Sig>>,
}

/// The problems are fixed per workload, as the paper's apps are: the
/// workload seed draws the search seeds and the stream's perturbations,
/// so the run-to-run spread of every metric is measurement noise and
/// search randomness, not a change of graphs.
fn defs(name: &str) -> Option<Vec<ProblemDef>> {
    let snr = Objective::MaximizeWorstCaseSnr;
    let scenario = |family: ScenarioFamily, mesh: usize, seed: u64| ScenarioSpec {
        family,
        mesh,
        density_pct: 100,
        seed,
    };
    let out = match name {
        "paper-table2" => TABLE2_APPS
            .iter()
            .flat_map(|&app| {
                [false, true].map(|torus| ProblemDef {
                    name: format!("{app}/{}", if torus { "torus" } else { "mesh" }),
                    source: Source::App(app),
                    torus,
                    objective: snr,
                })
            })
            .collect(),
        "stream-power" => {
            let objectives = [
                Objective::by_name("power").expect("power objective"),
                Objective::MinimizeWorstCaseLoss,
            ];
            // Three graphs per family: 120 requests a pass, so that ten
            // or more lie beyond the p90, and a quality figure that stays
            // steady from seed to seed.
            let graphs = STREAM_FAMILIES.iter().enumerate().flat_map(|(f, &family)| {
                [200, 210, 220].map(|s| scenario(family, STREAM_MESH, s + f as u64))
            });
            graphs
                .flat_map(|spec| {
                    objectives.map(|objective| ProblemDef {
                        name: format!("{}!{}", spec.id(), objective.name()),
                        source: Source::Scenario(spec),
                        torus: false,
                        objective,
                    })
                })
                .collect()
        }
        _ => return None,
    };
    Some(out)
}

fn requests(name: &str, seed: u64, problems: usize) -> Vec<Request> {
    let mut out = Vec::new();
    let mut job = |problem: usize, search: Search, budget: usize| {
        let seed = mix(seed, 1_000 + out.len() as u64);
        out.push(Request::Job {
            problem,
            search,
            budget,
            seed,
        });
    };
    match name {
        "paper-table2" => {
            for p in 0..problems {
                for algo in ["rs", "ga", "r-pbla"] {
                    for _ in 0..PAPER_SEEDS {
                        job(p, Search::Single(algo.into()), PAPER_BUDGET);
                    }
                }
            }
        }
        _ => {
            for base in 0..problems {
                for step in STEPS {
                    out.push(Request::Stream { base, step });
                }
            }
        }
    }
    out
}

fn budget_of(name: &str) -> usize {
    match name {
        "paper-table2" => PAPER_BUDGET,
        _ => STREAM_BUDGET,
    }
}

/// The first directed task pair with no edge in either direction.
fn free_pair(cg: &CommunicationGraph) -> (TaskId, TaskId) {
    let n = cg.task_count();
    for a in 0..n {
        for b in 0..n {
            if a != b
                && cg.edge_index(TaskId(a), TaskId(b)).is_none()
                && cg.edge_index(TaskId(b), TaskId(a)).is_none()
            {
                return (TaskId(a), TaskId(b));
            }
        }
    }
    panic!("scenario graphs are not complete digraphs")
}

fn random_baseline(problem: &MappingProblem, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let scores: Vec<f64> = (0..32)
        .map(|_| {
            let m = Mapping::random(problem.task_count(), problem.tile_count(), &mut rng);
            problem.evaluate(&m).1
        })
        .collect();
    mean(&scores)
}

impl Workload {
    /// Builds the workload (CG generation, `MappingProblem::new`, one
    /// warm-up job) and returns it with its set-up timings. `None` for
    /// an unknown workload name.
    pub fn build(name: &str, seed: u64) -> Option<(Workload, SetupTimes)> {
        let (&(name, _), defs) = WORKLOADS.iter().find(|(n, _)| *n == name).zip(defs(name))?;
        let t0 = Instant::now();
        let mut times = SetupTimes::default();
        let mut problems = Vec::with_capacity(defs.len());
        for def in &defs {
            let t = Instant::now();
            let cg = def.cg();
            times.cg_ns += t.elapsed().as_nanos() as u64;
            let topology = def.topology(cg.task_count());
            let t = Instant::now();
            let problem = MappingProblem::new(
                cg,
                topology,
                crux_router(),
                Box::new(XyRouting),
                PhysicalParameters::default(),
                def.objective,
            )
            .expect("benchmark problems are valid");
            times.new_ns.push(t.elapsed().as_nanos() as u64);
            problems.push(Problem {
                name: def.name.clone(),
                problem,
                baseline: 0.0,
            });
        }
        let stream: Vec<Base> = if name == "stream-power" {
            problems
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let originals: Vec<(TaskId, TaskId, f64)> = p
                        .problem
                        .cg()
                        .edges()
                        .iter()
                        .map(|e| (e.src, e.dst, e.bandwidth))
                        .collect();
                    let mut rng = StdRng::seed_from_u64(mix(seed, 300 + i as u64));
                    let perturbed = originals
                        .iter()
                        .map(|&(s, d, bw)| (s, d, bw * rng.gen_range(0.9..=1.1)))
                        .collect();
                    Base {
                        problem: i,
                        seed: mix(seed, 400 + i as u64),
                        added: free_pair(p.problem.cg()),
                        originals,
                        perturbed,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        let requests = requests(name, seed, problems.len());
        let mut w = Workload {
            name,
            problems,
            stream,
            requests,
            budget: budget_of(name),
            cache: WarmCache::new(),
            cold: Vec::new(),
        };
        // Warm-up: lazy pool spawn and scratch growth land in set-up.
        w.begin_round();
        let first = w.requests[0].clone();
        black_box(w.run(&first, None));
        w.begin_round();
        times.total_ns = t0.elapsed().as_nanos() as u64;
        for (i, p) in w.problems.iter_mut().enumerate() {
            p.baseline = random_baseline(&p.problem, mix(seed, 500 + i as u64));
        }
        Some((w, times))
    }

    /// A short label grouping similar requests in the printed
    /// breakdown: the search and grid size, or the stream step.
    pub fn kind(&self, req: &Request) -> String {
        match req {
            Request::Job {
                problem, search, ..
            } => {
                let p = &self.problems[*problem].problem;
                let search = match search {
                    Search::Single(spec) => spec.as_str(),
                    Search::Portfolio => "portfolio",
                };
                format!(
                    "{search} {}x{}",
                    p.topology().width(),
                    p.topology().height()
                )
            }
            Request::Stream { step, .. } => format!("{step:?}"),
        }
    }

    /// Starts a fresh pass over the requests: a stream gets a new,
    /// empty warm cache.
    pub fn begin_round(&mut self) {
        self.cache = WarmCache::new();
        self.cold = vec![None; self.stream.len()];
    }

    /// Extra jobs the traced pass adds on problem 0 so that every route
    /// class and a portfolio's rounds are stamped on every workload.
    pub fn coverage(&self) -> Vec<Request> {
        let specs = [
            "r-pbla/full!snr",
            "r-pbla/delta!snr",
            "r-pbla!loss",
            "r-pbla!power",
        ];
        let mut out: Vec<Request> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| Request::Job {
                problem: 0,
                search: Search::Single((*s).into()),
                budget: self.budget,
                seed: 77 + i as u64,
            })
            .collect();
        out.push(Request::Job {
            problem: 0,
            search: Search::Portfolio,
            budget: self.budget,
            seed: 99,
        });
        out
    }

    /// Runs one request: problem mutation (stream steps), search, and
    /// the `analyze` report. `sink` selects the traced entry points.
    pub fn run(&mut self, req: &Request, sink: Option<&StampSink>) -> Outcome {
        match req {
            Request::Job {
                problem,
                search,
                budget,
                seed,
            } => {
                let problem = &self.problems[*problem].problem;
                let start_stamp = sink.map_or(0, StampSink::now);
                let t = Instant::now();
                let mut out = match search {
                    Search::Single(spec) => run_single(problem, spec, *budget, *seed, sink),
                    Search::Portfolio => {
                        let spec = PortfolioSpec::parse(PORTFOLIO).expect("portfolio spec parses");
                        let r = match sink {
                            None => run_portfolio(problem, &spec, *budget, *seed),
                            Some(s) => run_portfolio_seeded_traced(
                                problem,
                                &spec,
                                *budget,
                                *seed,
                                None,
                                &mut s.clone(),
                            ),
                        };
                        Outcome::new(
                            r.best_score,
                            r.best_mapping,
                            r.evaluations,
                            *budget,
                            r.stats,
                            problem.objective(),
                        )
                    }
                };
                out.search_ns = t.elapsed().as_nanos() as u64;
                out.start_stamp = start_stamp;
                out.analyze_ns = report_ns(problem, &out.mapping);
                out
            }
            Request::Stream { base, step } => {
                let b = &self.stream[*base];
                let t = Instant::now();
                let problem = &mut self.problems[b.problem].problem;
                match step {
                    Step::Cold | Step::Repeat => {}
                    Step::Perturb => problem
                        .update_edge_bandwidths(&b.perturbed)
                        .expect("perturbation targets existing edges"),
                    Step::Phase => {
                        let &(src, dst, _) = b.originals.last().expect("graphs have edges");
                        problem.remove_edge(src, dst).expect("the last edge exists");
                        let mean_bw = mean(&b.originals.iter().map(|e| e.2).collect::<Vec<_>>());
                        problem
                            .add_edge(b.added.0, b.added.1, mean_bw)
                            .expect("the pair is free");
                    }
                    Step::Revert => {
                        let &(src, dst, bw) = b.originals.last().expect("graphs have edges");
                        problem
                            .remove_edge(b.added.0, b.added.1)
                            .expect("the phase edge exists");
                        problem
                            .add_edge(src, dst, bw)
                            .expect("the removed edge is free again");
                        problem
                            .update_edge_bandwidths(&b.originals)
                            .expect("restoring original weights");
                    }
                }
                let mutate_ns = t.elapsed().as_nanos() as u64;
                let problem = &self.problems[b.problem].problem;
                let spec = PortfolioSpec::parse(PORTFOLIO).expect("portfolio spec parses");
                let start_stamp = sink.map_or(0, StampSink::now);
                let t = Instant::now();
                let solved = match sink {
                    None => self.cache.solve(problem, &spec, self.budget, b.seed),
                    Some(s) => {
                        self.cache
                            .solve_traced(problem, &spec, self.budget, b.seed, &mut s.clone())
                    }
                };
                let r = solved.result;
                let mut out = Outcome::new(
                    r.best_score,
                    r.best_mapping,
                    solved.evaluations_spent,
                    self.budget,
                    r.stats,
                    problem.objective(),
                );
                out.source = Some(solved.source);
                out.search_ns = t.elapsed().as_nanos() as u64;
                out.mutate_ns = mutate_ns;
                out.start_stamp = start_stamp;
                out.analyze_ns = report_ns(problem, &out.mapping);
                out
            }
        }
    }

    /// The output checks behind `failed`.
    pub fn check(&mut self, req: &Request, out: &Outcome) -> Result<(), String> {
        let p = &self.problems[req.problem(&self.stream)].problem;
        let m = &out.mapping;
        if !(m.is_valid() && m.task_count() == p.task_count() && m.tile_count() == p.tile_count()) {
            return Err("best mapping is not a valid placement".into());
        }
        let rescored = out.objective.score(&p.evaluator().evaluate(m));
        if rescored.to_bits() != out.score.to_bits() {
            return Err(format!(
                "re-scored {rescored} differs from reported {}",
                out.score
            ));
        }
        if !out.stats.reconciles() {
            return Err("RunStats route counters do not reconcile with the ledger".into());
        }
        let expected = if out.exact_hit() { 0 } else { out.budget };
        if out.evaluations != expected {
            return Err(format!(
                "spent {} evaluations, expected {expected}",
                out.evaluations
            ));
        }
        if let Request::Stream { base, step } = req {
            let stored = &mut self.cold[*base];
            match step {
                Step::Cold => *stored = Some(out.sig()),
                Step::Repeat | Step::Revert => {
                    let cold = stored.as_ref().ok_or("no cold solve to compare with")?;
                    if !out.exact_hit()
                        || cold.score_bits != out.score.to_bits()
                        || cold.mapping != out.mapping
                    {
                        return Err(format!("{step:?} is not an exact hit of the cold solve"));
                    }
                }
                Step::Perturb | Step::Phase => {}
            }
        }
        Ok(())
    }
}

fn report_ns(problem: &MappingProblem, mapping: &Mapping) -> u64 {
    let t = Instant::now();
    black_box(analyze(problem, mapping));
    t.elapsed().as_nanos() as u64
}

fn run_single(
    problem: &MappingProblem,
    text: &str,
    budget: usize,
    seed: u64,
    sink: Option<&StampSink>,
) -> Outcome {
    let spec = single_spec(text).expect("benchmark specs parse");
    let strategy = spec.strategy.unwrap_or_default();
    let policy = spec.policy.unwrap_or_default();
    let result = match sink {
        None => {
            let mut config = DseConfig::new(budget, seed)
                .with_strategy(strategy)
                .with_policy(policy);
            config.objective = spec.objective;
            run_dse(problem, spec.optimizer.as_ref(), &config)
        }
        Some(s) => {
            let mut ctx = OptContext::new(problem, budget, seed);
            ctx.set_trace_sink(Box::new(s.clone()));
            if let Some(objective) = spec.objective {
                ctx.set_objective(objective)
                    .expect("a fresh context has not evaluated yet");
            }
            ctx.set_peek_strategy(strategy);
            ctx.set_neighborhood_policy(policy);
            spec.optimizer.optimize(&mut ctx);
            ctx.finish(spec.optimizer.name())
        }
    };
    Outcome::new(
        result.best_score,
        result.best_mapping,
        result.evaluations,
        budget,
        result.stats,
        spec.objective.unwrap_or_else(|| problem.objective()),
    )
}
