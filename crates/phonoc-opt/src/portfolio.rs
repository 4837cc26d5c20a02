//! Deterministic multi-lane portfolio search with elite exchange.
//!
//! PR 4's sweep settled that **no single search configuration wins
//! everywhere**: at 12×12/16×16 the sampled neighbourhood stream wins
//! 42 of 52 cells and the locality stream the other 10, with the
//! winner flipping by workload family. Related DSE work (MorphoNoC's
//! configurable exploration, PROTEUS's rule-based adaptation) reaches
//! the same conclusion and races a *portfolio* of configurations
//! instead of hand-tuning one. This module is that racer.
//!
//! # Model
//!
//! A [`PortfolioSpec`] holds N **lanes** — each a
//! [`LaneSpec`]: an optimizer from the registry, the
//! [`NeighborhoodPolicy`] its scans pin, the [`PeekStrategy`] its
//! peeks route through, and (implicitly) a private RNG stream — plus
//! a round count. [`run_portfolio`] executes the lanes as
//! **bulk-synchronous rounds**:
//!
//! 1. every lane runs one budgeted search session
//!    ([`phonoc_core::run_dse`]) — in parallel across CPU
//!    cores via [`phonoc_core::parallel::parallel_map_with`], stating
//!    each lane's allotted evaluations at
//!    [`phonoc_core::engine::evaluation_work`] each as work;
//! 2. lane results are folded into per-lane incumbents in **fixed lane
//!    order** (the reduction never depends on scheduling);
//! 3. **broadcast-best exchange**: every lane restarts next round from
//!    the round's global best incumbent (ties to the lowest lane
//!    index). The incumbent reaches the lane through
//!    [`phonoc_core::OptContext::initial_mapping`], which every seeded
//!    strategy honours (RS deliberately stays start-free — see
//!    `random_search`).
//!
//! Broadcast-best is the only exchange rule because exchange is what
//! makes the race pay: when the sweep compared them on its 52 large
//! cells, broadcast-best reached the best single lane on 46 and an
//! isolated race (no exchange) on only 17. The spec grammar spells it
//! `exchange=best`, and canonical spec strings always print it.
//!
//! # Determinism and budget discipline
//!
//! Results are **bit-identical regardless of worker-thread count**:
//! per-lane RNG streams are split up front with a SplitMix64 sequence
//! over `(seed, lane, round)`, every lane round is a pure function of
//! its inputs, `parallel_map_with` returns results in input order,
//! and the reductions above are fixed — property-tested in
//! `tests/portfolio_properties.rs` at 1/2/4 workers.
//!
//! The global budget is split by a [`BudgetLedger`] into `rounds × N`
//! cells whose allotments **sum exactly to the global budget**. The
//! lane split within a round is *performance-weighted*: the lane
//! currently holding the global best receives [`ELITE_WEIGHT`] shares
//! and every other lane one, so budget flows to whichever
//! configuration is winning on this instance while losing lanes keep
//! enough to stage an upset (round 0 probes evenly). All arithmetic is
//! integral and a pure function of the fixed reductions, so a
//! portfolio at budget B stays comparable to any single optimizer at
//! budget B — the equal-total-budget comparison the sweep's portfolio
//! column and `scripts/bench_gate.py` enforce on the committed
//! `BENCH_sweep.json`.
//!
//! # Telemetry
//!
//! Portfolio runs participate in the [`phonoc_core::telemetry`] layer
//! at round granularity: [`run_portfolio_seeded_traced`] takes a
//! [`TraceSink`] and emits one `lane_round`
//! event per funded `(round, lane)` cell (allotment, spend, the lane's
//! session score, whether it restarted from a seeded incumbent) and a
//! closing aggregate `session_end`. Lane sessions themselves run with the
//! disabled [`NullSink`] — their decision
//! counters still flow up: every lane's
//! [`RunStats`] is absorbed into
//! [`PortfolioResult::stats`] in the same fixed lane-order reduction
//! as the incumbents, so the aggregate (and the trace) is
//! bit-identical at any worker count and its peek-route counts
//! reconcile with the summed evaluation ledger. Events carry
//! deterministic integer payloads only (scores as [`f64::to_bits`]);
//! there are no wall-clock fields, so traces are byte-reproducible
//! per seed.

use crate::registry;
use phonoc_core::engine::evaluation_work;
use phonoc_core::parallel::parallel_map_with;
use phonoc_core::{
    run_dse, DseConfig, Mapping, MappingProblem, NeighborhoodPolicy, NullSink, Objective,
    PeekStrategy, RunStats, TraceEvent, TraceSink,
};
use std::fmt;
use std::fmt::Write as _;

/// One lane of a portfolio: a registry optimizer, the neighbourhood
/// policy its scans pin, the peek strategy its SNR peeks route
/// through, and an optional objective override. The lane's RNG stream
/// is derived from the portfolio seed and the lane index at run time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSpec {
    /// Registry optimizer name in its canonical spelling (`r-pbla` for
    /// a lane written `RPBLA@sampled` — resolved at parse time).
    pub algo: String,
    /// The neighbourhood policy the lane pins (from the `@policy`
    /// suffix; [`NeighborhoodPolicy::Auto`] when the spec has none).
    pub policy: NeighborhoodPolicy,
    /// The peek-routing strategy the lane pins (from an optional
    /// `/peek` suffix; hybrid by default). Each peek scores the same on
    /// every route, but the route sets what each peek bills, so at
    /// equal budget the lane goes a different distance.
    pub strategy: PeekStrategy,
    /// Objective override from an optional `!objective` suffix; `None`
    /// scores under the problem's own objective. Lanes with different
    /// objectives race on **different scales** — elite exchange and
    /// the best-lane budget weighting still compare their raw scores,
    /// so a mixed-objective portfolio is a deliberate cross-seeding
    /// tool, not an apples-to-apples race.
    pub objective: Option<Objective>,
}

impl LaneSpec {
    /// Parses one lane of a portfolio spec under the unified search
    /// grammar `name[@policy][/peek][!objective]`
    /// ([`registry::single_spec`]), e.g. `r-pbla@sampled`, `sa`,
    /// `r-pbla@locality/delta`, `r-pbla@sampled/hybrid!power`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown optimizer, neighbourhood
    /// policy, peek strategy or objective.
    pub fn parse(spec: &str) -> Result<LaneSpec, String> {
        let parsed = registry::single_spec(spec)?;
        Ok(LaneSpec {
            algo: parsed.optimizer.name().to_owned(),
            policy: parsed.policy.unwrap_or_default(),
            strategy: parsed.strategy.unwrap_or_default(),
            objective: parsed.objective,
        })
    }

    /// The canonical lane label (`name[@policy][/peek][!objective]`):
    /// the resolved optimizer name, then each suffix only when
    /// non-default / present. Alias and case spellings of one lane
    /// (`rpbla@sampled`, `R-PBLA@Sampled`) share one label, and
    /// `@auto` is omitted like an absent policy — both run the same
    /// race, so they must share one warm-cache key.
    #[must_use]
    pub fn label(&self) -> String {
        let mut label = self.algo.clone();
        if self.policy != NeighborhoodPolicy::Auto {
            let _ = write!(label, "@{}", self.policy.name());
        }
        if self.strategy != PeekStrategy::default() {
            let _ = write!(label, "/{}", self.strategy);
        }
        if let Some(objective) = self.objective {
            let _ = write!(label, "!{}", objective.name());
        }
        label
    }
}

/// A full portfolio configuration: the lanes and the round count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioSpec {
    /// The lanes, in fixed order (the order is part of the semantics:
    /// ties follow it).
    pub lanes: Vec<LaneSpec>,
    /// Bulk-synchronous rounds the budget is split over (≥ 1).
    pub rounds: usize,
}

/// Default round count when a spec does not name one: enough rounds
/// for elites to circulate, few enough that each round's budget slice
/// still funds a real descent.
pub const DEFAULT_ROUNDS: usize = 6;

/// The portfolio `phonocmap portfolio` runs when no `--spec` is given,
/// and the one the sweep's portfolio column and the warm-start replay
/// race: the two budget-aware R-PBLA streams that split the large
/// sweep cells between them. The sweep runs it at the same *total*
/// budget as each single-lane row — the equal-budget comparison
/// `scripts/bench_gate.py` enforces (portfolio ≥ best single lane on
/// ≥ 80% of 12×12+ cells). The round count was tuned on those cells:
/// with the performance-weighted ledger, win share grows with exchange
/// frequency (6 rounds 71%, 10 rounds 85%, 14 rounds 88%) because each
/// round re-aims 75% of the slice at the currently winning lane. 14
/// rounds also give the replay's parity measurement a resolution of
/// ~1/14th of the budget.
pub const DEFAULT_SPEC: &str = "r-pbla@sampled+r-pbla@locality,exchange=best,rounds=14";

impl PortfolioSpec {
    /// Parses a portfolio spec of the form
    /// `lane+lane+...[,exchange=best][,rounds=N]`, e.g.
    /// `r-pbla@sampled+r-pbla@locality+sa,exchange=best,rounds=8`.
    /// (The registry accepts the same string behind a `portfolio:`
    /// prefix.) `exchange=best` names the one exchange rule and may be
    /// omitted; `rounds` defaults to [`DEFAULT_ROUNDS`].
    ///
    /// # Errors
    ///
    /// Returns a message for an empty lane (including an empty lane
    /// list), an unknown lane, an exchange other than `best`, any other
    /// option, an option given twice, or a malformed or zero round
    /// count.
    pub fn parse(spec: &str) -> Result<PortfolioSpec, String> {
        let mut sections = spec.split(',');
        let lane_list = sections.next().unwrap_or("");
        let lanes: Vec<LaneSpec> = lane_list
            .split('+')
            .map(|lane| {
                if lane.is_empty() {
                    Err(format!("portfolio spec `{spec}` has an empty lane"))
                } else {
                    LaneSpec::parse(lane)
                }
            })
            .collect::<Result<_, _>>()?;
        let mut rounds = DEFAULT_ROUNDS;
        let mut seen: Vec<&str> = Vec::new();
        for section in sections {
            let unknown =
                || format!("unknown portfolio option `{section}` (exchange=best|rounds=N)");
            let (key, v) = section.split_once('=').ok_or_else(unknown)?;
            if seen.contains(&key) {
                return Err(format!("portfolio option `{key}` given twice in `{spec}`"));
            }
            seen.push(key);
            match (key, v) {
                ("exchange", "best") => {}
                ("exchange", v) => {
                    return Err(format!(
                        "unknown exchange `{v}` (the portfolio's one exchange rule is `exchange=best`)"
                    ));
                }
                ("rounds", v) => {
                    rounds = v
                        .parse()
                        .map_err(|_| format!("bad rounds `{v}` (positive integer)"))?;
                    if rounds == 0 {
                        return Err("rounds must be at least 1".into());
                    }
                }
                _ => return Err(unknown()),
            }
        }
        Ok(PortfolioSpec { lanes, rounds })
    }

    /// The canonical spec string (with the `portfolio:` registry
    /// prefix), normalizing option order and spelling. It always
    /// prints `exchange=best`: canonical strings key warm-cache entries
    /// and label committed sweep rows, so their bytes must not move.
    #[must_use]
    pub fn canonical(&self) -> String {
        let lanes: Vec<String> = self.lanes.iter().map(LaneSpec::label).collect();
        format!(
            "portfolio:{},exchange=best,rounds={}",
            lanes.join("+"),
            self.rounds
        )
    }
}

impl fmt::Display for PortfolioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// The per-(round, lane) budget split: integer allotments that **sum
/// exactly to the global budget**, plus the per-cell spend actually
/// recorded. This is the honesty layer that makes "portfolio at budget
/// B" comparable to "one optimizer at budget B".
///
/// The budget is first cut into per-round totals (remainder rounds get
/// one extra evaluation each, earliest first). Within a round, the
/// lane split is **performance-weighted**: [`BudgetLedger::allocate_round`]
/// takes the weights the caller derives from the incumbent standings —
/// [`run_portfolio`] gives the lane currently holding the global best
/// [`ELITE_WEIGHT`] shares and every other lane one, so budget flows
/// toward whichever configuration is winning *on this instance* while
/// the losing lanes keep enough to stage an upset (the classic
/// algorithm-portfolio allocation). Integer arithmetic throughout:
/// weighted shares are floored and the round's remainder is handed out
/// one evaluation at a time in lane order, so every round's lane
/// allotments sum exactly to the round total, and all rounds sum to
/// the global budget.
#[derive(Debug, Clone)]
pub struct BudgetLedger {
    lanes: usize,
    rounds: usize,
    total: usize,
    round_totals: Vec<usize>,
    allotted: Vec<usize>,
    used: Vec<usize>,
}

impl BudgetLedger {
    /// Prepares a ledger for `total` full-evaluation-equivalents over
    /// `rounds × lanes` cells. Lane allotments are assigned round by
    /// round via [`BudgetLedger::allocate_round`]. Every cell is
    /// allocated up front, so callers pass the rounds they can fund
    /// ([`run_portfolio`] caps them at the budget).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` or `rounds` is zero.
    #[must_use]
    pub fn new(total: usize, lanes: usize, rounds: usize) -> BudgetLedger {
        assert!(lanes > 0 && rounds > 0, "ledger needs lanes and rounds");
        let base = total / rounds;
        let remainder = total - base * rounds;
        let round_totals: Vec<usize> = (0..rounds)
            .map(|r| base + usize::from(r < remainder))
            .collect();
        debug_assert_eq!(round_totals.iter().sum::<usize>(), total);
        BudgetLedger {
            lanes,
            rounds,
            total,
            round_totals,
            allotted: vec![0; lanes * rounds],
            used: vec![0; lanes * rounds],
        }
    }

    /// Splits one round's total across the lanes proportionally to
    /// `weights` (floored integer shares; the remainder is spread one
    /// evaluation at a time in lane order) and records the allotments.
    /// Returns the per-lane allotment of this round, which always sums
    /// exactly to the round's total.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not have one entry per lane or sums to
    /// zero.
    pub fn allocate_round(&mut self, round: usize, weights: &[u64]) -> Vec<usize> {
        assert_eq!(weights.len(), self.lanes, "one weight per lane");
        // Widened: `total × w` overflows 64 bits on huge budgets, and
        // each exact share is at most `total`, so it narrows back.
        let w_sum: u128 = weights.iter().map(|&w| u128::from(w)).sum();
        assert!(w_sum > 0, "weights must not all be zero");
        let total = self.round_totals[round] as u128;
        let mut shares: Vec<usize> = weights
            .iter()
            .map(|&w| (total * u128::from(w) / w_sum) as usize)
            .collect();
        let mut remainder = self.round_totals[round] - shares.iter().sum::<usize>();
        for share in shares.iter_mut() {
            if remainder == 0 {
                break;
            }
            *share += 1;
            remainder -= 1;
        }
        debug_assert_eq!(shares.iter().sum::<usize>(), self.round_totals[round]);
        for (lane, &share) in shares.iter().enumerate() {
            let cell = self.cell(round, lane);
            self.allotted[cell] = share;
        }
        shares
    }

    fn cell(&self, round: usize, lane: usize) -> usize {
        debug_assert!(round < self.rounds && lane < self.lanes);
        round * self.lanes + lane
    }

    /// The allotment of one `(round, lane)` cell (zero until its round
    /// was allocated).
    #[must_use]
    pub fn allotted(&self, round: usize, lane: usize) -> usize {
        self.allotted[self.cell(round, lane)]
    }

    /// Records the spend of one cell (≤ its allotment — sessions may
    /// converge early, never overrun).
    pub fn record(&mut self, round: usize, lane: usize, used: usize) {
        let cell = self.cell(round, lane);
        debug_assert!(used <= self.allotted[cell], "cell overran its allotment");
        self.used[cell] = used;
    }

    /// Total allotted across one lane's rounds.
    #[must_use]
    pub fn lane_allotted(&self, lane: usize) -> usize {
        (0..self.rounds).map(|r| self.allotted(r, lane)).sum()
    }

    /// Total recorded spend across one lane's rounds.
    #[must_use]
    pub fn lane_used(&self, lane: usize) -> usize {
        (0..self.rounds)
            .map(|r| self.used[self.cell(r, lane)])
            .sum()
    }

    /// The global budget — exactly the sum of every cell's allotment
    /// once all rounds are allocated.
    #[must_use]
    pub fn total_allotted(&self) -> usize {
        self.total
    }

    /// Total recorded spend (≤ the global budget).
    #[must_use]
    pub fn total_used(&self) -> usize {
        self.used.iter().sum()
    }
}

/// SplitMix64 — the statelessly splittable generator the per-lane RNG
/// streams are derived from: `stream(seed, lane, round)` is a pure
/// function, so lanes can run on any worker in any order and still see
/// identical randomness.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed of one lane's round session, split up front from the
/// portfolio seed: first per lane, then per round within the lane's
/// stream.
fn lane_round_seed(seed: u64, lane: usize, round: usize) -> u64 {
    let lane_stream = splitmix64(seed ^ splitmix64(lane as u64));
    splitmix64(lane_stream.wrapping_add(round as u64))
}

/// What one lane contributed over the whole run.
#[derive(Debug, Clone)]
pub struct LaneOutcome {
    /// Canonical lane label ([`LaneSpec::label`]).
    pub label: String,
    /// Budget allotted to the lane across all rounds (the lane
    /// allotments of all lanes sum exactly to the global budget).
    pub allotted: usize,
    /// Budget the lane actually consumed (≤ `allotted`).
    pub used: usize,
    /// The lane's own best score (its incumbent — which may have been
    /// seeded by another lane's elite through exchange).
    pub best_score: f64,
}

/// Outcome of a portfolio run.
#[derive(Debug, Clone)]
pub struct PortfolioResult {
    /// Canonical spec of the portfolio that ran.
    pub spec: String,
    /// Best mapping across all lanes and rounds (fixed reduction:
    /// ties break to the lowest lane index).
    pub best_mapping: Mapping,
    /// Its score (higher = better).
    pub best_score: f64,
    /// Global incumbent score after each round (monotone
    /// non-decreasing).
    pub round_best: Vec<f64>,
    /// Budget consumed by each round, in full-evaluation-equivalents
    /// (sums to `evaluations`). Together with `round_best` this gives
    /// the score-vs-spend trajectory warm-start parity is measured on.
    pub round_evaluations: Vec<usize>,
    /// Total budget consumed, in full-evaluation-equivalents (≤ the
    /// global budget; sessions may converge early).
    pub evaluations: usize,
    /// The global budget (= the sum of every lane's allotment).
    pub budget: usize,
    /// Per-lane breakdown, in lane order.
    pub lanes: Vec<LaneOutcome>,
    /// Aggregate counters absorbed from every lane session in fixed
    /// lane order (full/delta evaluation ledger, peek route mix,
    /// neighbourhood stream, rounds executed — see the [module
    /// docs](self#telemetry)). Bit-identical at any worker count.
    pub stats: RunStats,
}

/// Runs `spec` on `problem` with a global evaluation `budget` and RNG
/// `seed`. See the [module docs](self) for the execution model; the
/// result is deterministic per `(problem, spec, budget, seed)` and
/// bit-identical at every worker-thread count.
///
/// # Panics
///
/// Panics if the spec has no lanes or no rounds (impossible for specs
/// built by [`PortfolioSpec::parse`]) or if `budget` is zero.
#[must_use]
pub fn run_portfolio(
    problem: &MappingProblem,
    spec: &PortfolioSpec,
    budget: usize,
    seed: u64,
) -> PortfolioResult {
    run_portfolio_seeded(problem, spec, budget, seed, None)
}

/// [`run_portfolio`] with an optional **warm start**: a mapping every
/// round-0 lane is seeded with (via the engine's `set_seed_start`
/// hook), exactly as elite exchange seeds later rounds. This is how
/// the warm-start cache resumes a perturbed request from the elite of
/// a previously solved neighbour — round 0 stops being a cold random
/// probe, and exchange amortizes the inherited incumbent across lanes
/// from the first round. `None` is bit-identical to [`run_portfolio`].
///
/// Lanes whose strategy is deliberately start-free (random search)
/// ignore the seed, identical to how they treat exchanged elites.
///
/// # Panics
///
/// Same as [`run_portfolio`].
#[must_use]
pub fn run_portfolio_seeded(
    problem: &MappingProblem,
    spec: &PortfolioSpec,
    budget: usize,
    seed: u64,
    warm_start: Option<&Mapping>,
) -> PortfolioResult {
    run_portfolio_seeded_traced(problem, spec, budget, seed, warm_start, &mut NullSink)
}

/// [`run_portfolio_seeded`] with a [`TraceSink`] receiving the
/// round-granularity events described in the [module
/// docs](self#telemetry). Passing [`NullSink`] is bit-identical to
/// [`run_portfolio_seeded`] (it *is* that function), and the sink
/// never influences the race: lane sessions run untraced, and events
/// are emitted from the fixed lane-order reduction only.
///
/// # Panics
///
/// Same as [`run_portfolio`].
#[must_use]
pub fn run_portfolio_seeded_traced(
    problem: &MappingProblem,
    spec: &PortfolioSpec,
    budget: usize,
    seed: u64,
    warm_start: Option<&Mapping>,
    sink: &mut dyn TraceSink,
) -> PortfolioResult {
    let n = spec.lanes.len();
    assert!(n > 0, "portfolio needs at least one lane");
    assert!(budget > 0, "portfolio needs a budget");
    // Only rounds with at least one evaluation to spend can change the
    // race; the ledger and the loop are sized by those, so a huge
    // `rounds=N` neither allocates nor iterates past the budget.
    let rounds = spec.rounds.clamp(1, budget);
    let mut ledger = BudgetLedger::new(budget, n, rounds);

    // Per-lane running state, folded in fixed lane order every round.
    let mut incumbents: Vec<Option<(Mapping, f64)>> = vec![None; n];
    let mut round_best = Vec::with_capacity(rounds);
    let mut round_evaluations = Vec::with_capacity(rounds);
    // Aggregate decision counters, absorbed lane by lane in the fixed
    // reduction below — never inside the parallel step.
    let mut stats = RunStats::default();

    for round in 0..rounds {
        // Performance-weighted allocation: the lane holding the global
        // best gets ELITE_WEIGHT shares, everyone else one. Round 0 is
        // an even probe (no standings yet). Pure function of the fixed
        // reductions below, so still worker-count invariant.
        let weights: Vec<u64> = match elite_lane(&incumbents) {
            Some(owner) => (0..n)
                .map(|lane| if lane == owner { ELITE_WEIGHT } else { 1 })
                .collect(),
            None => vec![1; n],
        };
        let allot = ledger.allocate_round(round, &weights);

        // Which incumbent every lane resumes from: the global best
        // (None = random start; in round 0 the caller's warm start, if
        // any, plays the role the broadcast elite plays later).
        let start = if round == 0 {
            warm_start.cloned()
        } else {
            best_incumbent(&incumbents).map(|(m, _)| m.clone())
        };
        let seeded = start.is_some();
        let runs: Vec<(&str, DseConfig)> = spec
            .lanes
            .iter()
            .enumerate()
            .map(|(lane, ls)| {
                let config = DseConfig {
                    budget: allot[lane],
                    seed: lane_round_seed(seed, lane, round),
                    strategy: ls.strategy,
                    policy: ls.policy,
                    objective: ls.objective,
                    start: start.clone(),
                };
                (ls.algo.as_str(), config)
            })
            .collect();

        // The bulk-synchronous step: every lane round is a pure
        // function of its optimizer and config, and results come back
        // in lane order — bit-identical at any worker count.
        let run_lane = |_: &mut (), (algo, config): &(&str, DseConfig)| {
            if config.budget == 0 {
                return None;
            }
            let optimizer = registry::optimizer(algo).expect("lane specs are validated at parse");
            Some(run_dse(problem, optimizer.as_ref(), config))
        };
        let work = (runs.iter())
            .map(|(_, c)| {
                let objective = c.objective.unwrap_or(problem.objective());
                c.budget
                    .saturating_mul(evaluation_work(problem.evaluator(), objective))
            })
            .fold(0, usize::saturating_add);
        let results = parallel_map_with(&runs, work, || (), run_lane);

        // Fixed lane→result reduction.
        let mut round_used = 0usize;
        for (lane, result) in results.into_iter().enumerate() {
            let Some(result) = result else { continue };
            ledger.record(round, lane, result.evaluations);
            round_used += result.evaluations;
            stats
                .absorb(&result.stats)
                .expect("lane counters fit in usize");
            if sink.enabled() {
                sink.record(TraceEvent::LaneRound {
                    round,
                    lane,
                    allotted: allot[lane],
                    used: result.evaluations,
                    score_bits: result.best_score.to_bits(),
                    seeded,
                });
            }
            let improves = incumbents[lane]
                .as_ref()
                .is_none_or(|(_, s)| result.best_score > *s);
            if improves {
                incumbents[lane] = Some((result.best_mapping, result.best_score));
            }
        }
        round_best.push(
            best_incumbent(&incumbents)
                .map(|(_, s)| *s)
                .unwrap_or(f64::NEG_INFINITY),
        );
        round_evaluations.push(round_used);
        stats.rounds += 1;
    }

    let (best_mapping, best_score) = best_incumbent(&incumbents)
        .cloned()
        .expect("a positive budget evaluates at least one mapping");
    let lanes = spec
        .lanes
        .iter()
        .enumerate()
        .map(|(lane, ls)| LaneOutcome {
            label: ls.label(),
            allotted: ledger.lane_allotted(lane),
            used: ledger.lane_used(lane),
            best_score: incumbents[lane]
                .as_ref()
                .map(|(_, s)| *s)
                .unwrap_or(f64::NEG_INFINITY),
        })
        .collect();
    if sink.enabled() {
        sink.record(TraceEvent::SessionEnd {
            stats,
            spent: ledger.total_used(),
            budget: ledger.total_allotted(),
            score_bits: best_score.to_bits(),
        });
    }
    PortfolioResult {
        spec: spec.canonical(),
        best_mapping,
        best_score,
        round_best,
        round_evaluations,
        evaluations: ledger.total_used(),
        budget: ledger.total_allotted(),
        lanes,
        stats,
    }
}

/// Budget shares the lane holding the global best receives per round
/// (other lanes get one share each): with two lanes, 3:1 sends 75% of
/// a round to whichever configuration is currently winning on this
/// instance — measured on the 12×12/16×16 sweep cells as the best
/// win-share against full-budget single lanes, while 1:1 (even split)
/// starves the dominant stream and ≥7:1 starves the upset lanes.
pub const ELITE_WEIGHT: u64 = 3;

/// The best incumbent across lanes: the [`elite_lane`]'s.
fn best_incumbent(incumbents: &[Option<(Mapping, f64)>]) -> Option<&(Mapping, f64)> {
    elite_lane(incumbents).and_then(|lane| incumbents[lane].as_ref())
}

/// The lane holding the global best (lowest index on ties: strict `>`
/// while scanning in lane order) — the weight carrier of the
/// performance-weighted allocation.
fn elite_lane(incumbents: &[Option<(Mapping, f64)>]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (lane, entry) in incumbents.iter().enumerate() {
        let Some((_, score)) = entry else { continue };
        if best.is_none_or(|(_, s)| *score > s) {
            best = Some((lane, *score));
        }
    }
    best.map(|(lane, _)| lane)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_problem;

    #[test]
    fn ledger_allotments_sum_exactly_to_the_budget() {
        for (total, lanes, rounds) in [
            (1_500, 3, 8),
            (1_500, 2, 6),
            (1, 1, 1),
            (7, 3, 5),
            (10, 4, 4),
            (1_000_000, 7, 9),
            (0, 2, 2),
        ] {
            // Even weights every round.
            let mut ledger = BudgetLedger::new(total, lanes, rounds);
            for round in 0..rounds {
                let shares = ledger.allocate_round(round, &vec![1u64; lanes]);
                assert_eq!(
                    shares.iter().sum::<usize>(),
                    (0..lanes).map(|l| ledger.allotted(round, l)).sum(),
                );
            }
            let sum: usize = (0..lanes).map(|l| ledger.lane_allotted(l)).sum();
            assert_eq!(sum, total, "({total}, {lanes}, {rounds})");
            assert_eq!(ledger.total_allotted(), total);

            // Skewed weights change the split, never the sum.
            let mut ledger = BudgetLedger::new(total, lanes, rounds);
            for round in 0..rounds {
                let weights: Vec<u64> = (0..lanes)
                    .map(|l| if l == round % lanes { ELITE_WEIGHT } else { 1 })
                    .collect();
                ledger.allocate_round(round, &weights);
            }
            let sum: usize = (0..lanes).map(|l| ledger.lane_allotted(l)).sum();
            assert_eq!(sum, total, "weighted ({total}, {lanes}, {rounds})");
        }
    }

    #[test]
    fn weighted_rounds_favor_the_elite_lane() {
        let mut ledger = BudgetLedger::new(400, 2, 1);
        let shares = ledger.allocate_round(0, &[ELITE_WEIGHT, 1]);
        assert_eq!(shares, vec![300, 100]);
        let mut ledger = BudgetLedger::new(401, 2, 1);
        let shares = ledger.allocate_round(0, &[1, ELITE_WEIGHT]);
        // Floored shares (100.25 → 100, 300.75 → 300), remainder in
        // lane order.
        assert_eq!(shares, vec![101, 300]);
        assert_eq!(shares.iter().sum::<usize>(), 401);
    }

    #[test]
    fn huge_budgets_split_without_overflow() {
        // `round total × weight` exceeds 64 bits here.
        let mut ledger = BudgetLedger::new(usize::MAX, 2, 2);
        let shares = ledger.allocate_round(1, &[3, 1]);
        let round_total = usize::MAX / 2;
        assert_eq!(shares.iter().sum::<usize>(), round_total);
        assert_eq!(shares[1], round_total / 4);
    }

    #[test]
    fn spec_parsing_round_trips() {
        let spec = PortfolioSpec::parse("r-pbla@sampled+r-pbla@locality+sa,exchange=best,rounds=8")
            .unwrap();
        assert_eq!(spec.lanes.len(), 3);
        assert_eq!(spec.lanes[0].policy, NeighborhoodPolicy::Sampled);
        assert_eq!(spec.lanes[1].policy, NeighborhoodPolicy::Locality);
        assert_eq!(spec.lanes[2].policy, NeighborhoodPolicy::Auto);
        assert_eq!(spec.rounds, 8);
        assert_eq!(
            spec.canonical(),
            "portfolio:r-pbla@sampled+r-pbla@locality+sa,exchange=best,rounds=8"
        );
        // Defaults.
        let spec = PortfolioSpec::parse("rs+sa").unwrap();
        assert_eq!(spec.rounds, DEFAULT_ROUNDS);
        assert_eq!(spec, PortfolioSpec::parse("rs+sa,exchange=best").unwrap());
        // Peek suffix.
        let spec = PortfolioSpec::parse("r-pbla@sampled/delta+tabu/full").unwrap();
        assert_eq!(spec.lanes[0].strategy, PeekStrategy::Delta);
        assert_eq!(spec.lanes[1].strategy, PeekStrategy::Full);
        assert!(spec.canonical().contains("r-pbla@sampled/delta"));
        // Objective suffix (the unified grammar's third knob).
        let spec = PortfolioSpec::parse("r-pbla@sampled!power+tabu/full!margin,rounds=3").unwrap();
        assert!(spec.lanes[0].objective.unwrap().is_loss_based());
        assert_eq!(spec.lanes[0].strategy, PeekStrategy::default());
        assert!(spec.lanes[1].objective.unwrap().uses_snr());
        assert_eq!(spec.lanes[1].strategy, PeekStrategy::Full);
        assert_eq!(
            spec.canonical(),
            "portfolio:r-pbla@sampled!power+tabu/full!margin,exchange=best,rounds=3"
        );
        assert_eq!(
            PortfolioSpec::parse("r-pbla@sampled!power+tabu/full!margin,rounds=3").unwrap(),
            spec
        );
        assert!(PortfolioSpec::parse("rs!nonsense").is_err());
    }

    #[test]
    fn spec_parsing_rejects_nonsense() {
        assert!(PortfolioSpec::parse("").is_err());
        assert!(PortfolioSpec::parse("nonsense").is_err());
        assert!(PortfolioSpec::parse("rs+r-pbla@nonsense").is_err());
        assert!(PortfolioSpec::parse("rs/nonsense").is_err());
        assert!(PortfolioSpec::parse("rs,exchange=nonsense").is_err());
        assert!(PortfolioSpec::parse("rs,rounds=0").is_err());
        assert!(PortfolioSpec::parse("rs,rounds=x").is_err());
        assert!(PortfolioSpec::parse("rs,frobnicate=1").is_err());
    }

    /// Broadcast-best is the only exchange rule and dominance collapse
    /// is gone: the retired spellings fail to parse, and the message
    /// names the accepted form.
    #[test]
    fn retired_exchange_rules_and_collapse_fail_to_parse() {
        for spec in [
            "r-pbla+sa,exchange=ring",
            "r-pbla+sa,exchange=isolated",
            "r-pbla+sa,exchange=best,rounds=6,collapse=3",
        ] {
            let err = PortfolioSpec::parse(spec).unwrap_err();
            assert!(err.contains("exchange=best"), "`{spec}`: {err}");
        }
    }

    /// The default spec is the committed sweep's portfolio label, byte
    /// for byte (its canonical form keys warm-cache entries and sweep
    /// rows).
    #[test]
    fn default_spec_is_the_committed_sweep_label() {
        assert_eq!(
            PortfolioSpec::parse(DEFAULT_SPEC).unwrap().canonical(),
            "portfolio:r-pbla@sampled+r-pbla@locality,exchange=best,rounds=14"
        );
    }

    /// A `!objective` lane suffix must actually re-target the lane: a
    /// single-lane `!power` portfolio scores under the power objective
    /// (worst-case loss minus the modulation's required SNR margin),
    /// not under the problem's own SNR objective.
    #[test]
    fn objective_suffixed_lanes_score_under_the_override() {
        let p = tiny_problem(); // problem objective: worst-case SNR
        let spec = PortfolioSpec::parse("r-pbla!power,rounds=2").unwrap();
        let r = run_portfolio(&p, &spec, 400, 9);
        assert_eq!(r.lanes[0].label, "r-pbla!power");
        assert!(r.best_mapping.is_valid());
        // The reported score is the power objective of the winning
        // mapping — reproduce it from a fresh evaluation.
        let power = phonoc_core::Objective::by_name("power").unwrap();
        let metrics = p.evaluator().evaluate(&r.best_mapping);
        assert_eq!(r.best_score, power.score(&metrics));
        // Deterministic like every other spec.
        let r2 = run_portfolio(&p, &spec, 400, 9);
        assert_eq!(r2.best_score, r.best_score);
        assert_eq!(r2.best_mapping, r.best_mapping);
    }

    /// Golden warm-cache keys: canonical spec strings are the spec half
    /// of every [`crate::RequestKey`], so they are pinned **byte for
    /// byte**. Adding grammar (the `/peek` and `!objective` suffixes)
    /// must never move a pre-existing key; new suffixes must print
    /// exactly one way.
    #[test]
    fn canonical_spec_strings_are_golden() {
        for (input, golden) in [
            // Pre-suffix keys (committed by earlier PRs): exact bytes.
            (
                DEFAULT_SPEC,
                "portfolio:r-pbla@sampled+r-pbla@locality,exchange=best,rounds=14",
            ),
            ("rs+sa", "portfolio:rs+sa,exchange=best,rounds=6"),
            (
                "r-pbla@sampled/delta+tabu/full",
                "portfolio:r-pbla@sampled/delta+tabu/full,exchange=best,rounds=6",
            ),
            // Objective-suffixed keys: one canonical spelling each
            // (`/hybrid` is the default peek and normalizes away).
            (
                "r-pbla@sampled/hybrid!power+r-pbla@locality,rounds=4",
                "portfolio:r-pbla@sampled!power+r-pbla@locality,exchange=best,rounds=4",
            ),
            (
                "sa!power-pam4+rs!margin",
                "portfolio:sa!power-pam4+rs!margin,exchange=best,rounds=6",
            ),
            // The sweep's single-lane spellings label committed rows.
            (
                "rs+r-pbla@exhaustive+r-pbla@sampled+r-pbla@locality+r-pbla@sampled!power+r-pbla@sampled!margin-pam4",
                "portfolio:rs+r-pbla@exhaustive+r-pbla@sampled+r-pbla@locality+r-pbla@sampled!power+r-pbla@sampled!margin-pam4,exchange=best,rounds=6",
            ),
        ] {
            let spec = PortfolioSpec::parse(input).unwrap();
            assert_eq!(spec.canonical(), golden, "input `{input}`");
            // Canonical forms are fixed points of parse ∘ canonical.
            let body = golden.strip_prefix("portfolio:").unwrap();
            assert_eq!(PortfolioSpec::parse(body).unwrap().canonical(), golden);
        }
    }

    #[test]
    fn portfolio_runs_within_budget_and_is_deterministic() {
        let p = tiny_problem();
        let spec = PortfolioSpec::parse("r-pbla+sa+rs,exchange=best,rounds=3").unwrap();
        let a = run_portfolio(&p, &spec, 300, 11);
        let b = run_portfolio(&p, &spec, 300, 11);
        assert_eq!(a.best_mapping, b.best_mapping);
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.evaluations, b.evaluations);
        assert!(a.evaluations <= 300);
        assert_eq!(a.budget, 300);
        assert_eq!(a.lanes.iter().map(|l| l.allotted).sum::<usize>(), 300);
        assert!(a.best_mapping.is_valid());
        // The global incumbent can only improve round over round.
        assert!(a.round_best.windows(2).all(|w| w[1] >= w[0]));
        assert_eq!(a.round_best.last().copied(), Some(a.best_score));
    }

    #[test]
    fn tiny_budgets_skip_zero_allotment_cells() {
        let p = tiny_problem();
        let spec = PortfolioSpec::parse("r-pbla+sa+tabu,rounds=4").unwrap();
        // 5 evaluations over 12 cells: 5 cells of 1, 7 of 0.
        let r = run_portfolio(&p, &spec, 5, 3);
        assert_eq!(r.budget, 5);
        assert!(r.evaluations <= 5);
        assert!(r.best_mapping.is_valid());
    }

    /// Rounds past the budget are unfundable: a `rounds=usize::MAX`
    /// spec must neither panic nor abort on the ledger allocation, and
    /// must race exactly like the budget-sized round count, while its
    /// canonical spec (the warm-cache key half) keeps the bytes the
    /// user wrote.
    #[test]
    fn round_counts_past_the_budget_race_like_the_budget() {
        let p = tiny_problem();
        let huge = PortfolioSpec::parse(&format!("r-pbla+rs,rounds={}", usize::MAX)).unwrap();
        let funded = PortfolioSpec::parse("r-pbla+rs,rounds=20").unwrap();
        let a = run_portfolio(&p, &huge, 20, 7);
        let b = run_portfolio(&p, &funded, 20, 7);
        assert_eq!(a.best_score.to_bits(), b.best_score.to_bits());
        assert_eq!(a.best_mapping, b.best_mapping);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.stats.rounds, 20);
        assert_eq!(
            a.spec,
            format!("portfolio:r-pbla+rs,exchange=best,rounds={}", usize::MAX)
        );
    }

    #[test]
    fn lane_round_seeds_are_distinct_streams() {
        let mut seen = std::collections::HashSet::new();
        for lane in 0..8 {
            for round in 0..8 {
                assert!(seen.insert(lane_round_seed(42, lane, round)));
            }
        }
        // And they depend on the portfolio seed.
        assert_ne!(lane_round_seed(1, 0, 0), lane_round_seed(2, 0, 0));
    }
}
