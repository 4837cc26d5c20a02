//! Warm-start engine: a deterministic, content-addressed cache of
//! solved mapping requests.
//!
//! The service-mode premise is that the same or nearly-the-same
//! request arrives over and over: a workload re-deployed unchanged, a
//! traffic phase re-weighting a few edges, an application variant
//! adding one communication. Every such request today pays full
//! cold-start cost. [`WarmCache`] closes the loop:
//!
//! * **Exact hit** — the request's canonical key equals a stored one,
//!   on equal tables (see below): the cached [`PortfolioResult`] is
//!   returned verbatim with **zero** optimizer evaluations. Results are
//!   deterministic per key, so the cached result is bit-identical to
//!   what re-running would produce.
//! * **Near hit** — no exact match, but a stored request shares the
//!   *family* (architecture + physics + objective + task count): the
//!   best-overlapping neighbour's elite mapping seeds every round-0
//!   portfolio lane via [`crate::run_portfolio_seeded`] (the same
//!   `set_seed_start` hook elite exchange uses between rounds), so the
//!   search resumes from prior work instead of a random draw.
//! * **Cold** — nothing applicable; a plain
//!   [`run_portfolio`](crate::run_portfolio) run.
//!
//! Solved requests are inserted after every non-exact solve, so a
//! repeat of any request is an exact hit.
//!
//! # Cache-key canonicalization
//!
//! A [`RequestKey`] captures everything the result is a deterministic
//! function of, in a *canonical* form so equal problems produce equal
//! keys regardless of construction order:
//!
//! * **Edges** — `(src, dst, weight-bits)` triples **sorted by
//!   `(src, dst)`**, so two CGs listing the same communications in
//!   different orders key identically (per-edge worst cases do not
//!   depend on list position). Weights enter via [`f64::to_bits`]:
//!   exact bit equality, no epsilon.
//! * **Family** ([`FamilyKey`]) — the architecture half: the
//!   fingerprint of the evaluator's [`ScoreTables`] (paths, path
//!   losses, couplings, SNR ceiling: all any score reads), the grid's
//!   width and height (the locality neighbourhood reads tile
//!   coordinates), the task count and the objective. Topology, router,
//!   routing and physics enter only through the tables, never by name:
//!   a routing that calls itself `xy` but routes differently keys apart.
//! * **Run parameters** — canonical portfolio spec string, budget,
//!   seed.
//!
//! Left out on purpose: parameters no score reads (laser power,
//! detector sensitivity, nonlinearity threshold), so requests differing
//! only there share their bit-identical results; and the table bits,
//! which family lookups would stream by the megabyte.
//!
//! Keys are integers compared exactly, so they collide for
//! canonically-equal requests and on a fingerprint hash collision.
//! Exactness comes from the tables: each entry shares the tables it was
//! solved on, and an exact hit needs them to be the request's. Tables
//! are interned (see [`ScoreTables`]), so a
//! problem rebuilt from equal inputs holds the very tables the entry
//! keeps, and the check is one pointer compare; a key hit on other
//! tables runs as a near hit. A colliding family only picks a
//! near-hit donor, of the right shape (property-tested in
//! `tests/warm_properties.rs`).
//!
//! # Telemetry
//!
//! [`WarmCache::solve_traced`] participates in the
//! [`phonoc_core::telemetry`] layer: every request emits one
//! `warm_lookup` event (exact hit / near hit / cold, plus the donor's
//! shared directed endpoints on a near hit) before any search runs,
//! and non-exact requests then stream the portfolio's own
//! round-granularity events into the same sink via
//! [`crate::run_portfolio_seeded_traced`]. The returned result's
//! [`RunStats`](phonoc_core::RunStats) additionally records how *this*
//! request was satisfied in its `warm_*` counters — the one record of
//! hits, near hits and cold runs (the stored cache entry keeps the
//! pure run counters, so replays of an exact hit stay bit-identical to
//! the original run). Tracing never changes cache
//! keys, hit classification or results — the sink observes the
//! decisions the untraced path already makes.

use crate::portfolio::{run_portfolio_seeded_traced, PortfolioResult, PortfolioSpec};
use phonoc_core::{
    Mapping, MappingProblem, NullSink, Objective, ScoreTables, TraceEvent, TraceSink, WarmOutcome,
};
use std::collections::HashMap;

/// The architecture-and-physics half of a request's identity: what has
/// to match for one request's elite mapping to be a *meaningful* start
/// for another (same tables, same grid and task count). Edge structure
/// is deliberately excluded — that is exactly what near-hit requests
/// differ in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FamilyKey {
    /// [`ScoreTables::fingerprint`] of the problem's evaluator.
    fingerprint: u64,
    width: usize,
    height: usize,
    tasks: usize,
    objective: Objective,
}

impl FamilyKey {
    /// Extracts the family identity of `problem`.
    #[must_use]
    pub fn of(problem: &MappingProblem) -> FamilyKey {
        let topo = problem.topology();
        FamilyKey {
            fingerprint: problem.evaluator().tables().fingerprint(),
            width: topo.width(),
            height: topo.height(),
            tasks: problem.task_count(),
            objective: problem.objective(),
        }
    }
}

/// The full canonical identity of one mapping request. See the
/// [module docs](self) for the canonicalization rules.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequestKey {
    /// `(src, dst, bandwidth-bits)`, sorted by `(src, dst)`.
    edges: Vec<(usize, usize, u64)>,
    family: FamilyKey,
    /// Canonical portfolio spec ([`PortfolioSpec::canonical`]).
    spec: String,
    budget: usize,
    seed: u64,
}

impl RequestKey {
    /// Builds the canonical key of `(problem, spec, budget, seed)`.
    #[must_use]
    pub fn of(
        problem: &MappingProblem,
        spec: &PortfolioSpec,
        budget: usize,
        seed: u64,
    ) -> RequestKey {
        let mut edges: Vec<(usize, usize, u64)> = problem
            .cg()
            .edges()
            .iter()
            .map(|e| (e.src.0, e.dst.0, e.bandwidth.to_bits()))
            .collect();
        edges.sort_unstable();
        RequestKey {
            edges,
            family: FamilyKey::of(problem),
            spec: spec.canonical(),
            budget,
            seed,
        }
    }

    /// The key's family half (shared by near-hit candidates).
    #[must_use]
    pub fn family(&self) -> &FamilyKey {
        &self.family
    }
}

/// How a [`WarmCache::solve`] request was satisfied.
#[derive(Debug, Clone, PartialEq)]
pub enum WarmSource {
    /// Canonically equal to a stored request on equal tables: cached
    /// result returned, zero optimizer evaluations performed.
    ExactHit,
    /// A same-family stored request seeded round 0 with its elite.
    NearHit {
        /// Score the donated elite had on *its* problem (provenance;
        /// its score on the new problem is re-evaluated by the run).
        donor_score: f64,
        /// Shared directed endpoints between donor and request edge
        /// sets (the overlap the donor was selected by).
        shared_edges: usize,
    },
    /// No stored request was applicable; a plain cold run.
    Cold,
}

/// One solved request: the outcome plus how it was obtained.
#[derive(Debug, Clone)]
pub struct WarmSolve {
    /// The portfolio outcome (cached clone on an exact hit).
    pub result: PortfolioResult,
    /// Exact hit / near hit / cold.
    pub source: WarmSource,
    /// Optimizer evaluations this request actually performed — `0` on
    /// an exact hit, `result.evaluations` otherwise.
    pub evaluations_spent: usize,
}

struct Entry {
    /// Directed endpoints of the request's edges (sorted), for overlap
    /// scoring against near-hit candidates. The full key lives in
    /// `by_key`.
    endpoints: Vec<(usize, usize)>,
    /// The tables the request was solved on, shared with its problem:
    /// an exact hit needs them equal to the new request's.
    tables: ScoreTables,
    result: PortfolioResult,
}

/// The content-addressed warm-start cache. Purely in-memory and
/// deterministic: a request stream replayed in the same order produces
/// the same hits, seeds and results at any worker count.
#[derive(Default)]
pub struct WarmCache {
    entries: Vec<Entry>,
    by_key: HashMap<RequestKey, usize>,
    by_family: HashMap<FamilyKey, Vec<usize>>,
}

impl WarmCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> WarmCache {
        WarmCache::default()
    }

    /// Number of distinct solved requests stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored elite a near-hit of `key` would be seeded with:
    /// among same-family entries, the one sharing the most directed
    /// endpoints with the request (ties break to the most recently
    /// inserted). `None` if no same-family entry exists.
    #[must_use]
    pub fn near_hit_donor(&self, key: &RequestKey) -> Option<(&Mapping, f64, usize)> {
        let candidates = self.by_family.get(&key.family)?;
        let request_eps: Vec<(usize, usize)> = key.edges.iter().map(|&(s, d, _)| (s, d)).collect();
        let mut best: Option<(usize, usize)> = None; // (overlap, entry index)
        for &i in candidates {
            let overlap = overlap_count(&self.entries[i].endpoints, &request_eps);
            if best.is_none_or(|(o, _)| overlap >= o) {
                best = Some((overlap, i));
            }
        }
        best.map(|(overlap, i)| {
            let e = &self.entries[i];
            (&e.result.best_mapping, e.result.best_score, overlap)
        })
    }

    /// Solves `(problem, spec, budget, seed)` through the cache: exact
    /// hits return the stored result with zero evaluations; otherwise
    /// the request runs (seeded by the best same-family elite when one
    /// exists) and is stored for future requests.
    ///
    /// # Panics
    ///
    /// Same as [`crate::run_portfolio`] for requests that actually run.
    pub fn solve(
        &mut self,
        problem: &MappingProblem,
        spec: &PortfolioSpec,
        budget: usize,
        seed: u64,
    ) -> WarmSolve {
        self.solve_traced(problem, spec, budget, seed, &mut NullSink)
    }

    /// [`WarmCache::solve`] with a [`TraceSink`] receiving one
    /// `warm_lookup` event per request plus, for requests that
    /// actually run, the portfolio's round-granularity events (see the
    /// [module docs](self#telemetry)). Passing [`NullSink`] is
    /// bit-identical to [`WarmCache::solve`] (it *is* that function).
    ///
    /// # Panics
    ///
    /// Same as [`crate::run_portfolio`] for requests that actually run.
    pub fn solve_traced(
        &mut self,
        problem: &MappingProblem,
        spec: &PortfolioSpec,
        budget: usize,
        seed: u64,
        sink: &mut dyn TraceSink,
    ) -> WarmSolve {
        let key = RequestKey::of(problem, spec, budget, seed);
        let tables = problem.evaluator().tables();
        // Classify the request: an exact hit (same key, equal tables),
        // else the best same-family donor (a near hit), else cold.
        let same_key = self.by_key.get(&key).copied();
        let hit = same_key.filter(|&i| self.entries[i].tables == *tables);
        let donor = hit.is_none().then(|| self.near_hit_donor(&key)).flatten();
        let (outcome, shared_edges) = match (hit, donor) {
            (Some(_), _) => (WarmOutcome::ExactHit, 0),
            (None, Some((_, _, shared_edges))) => (WarmOutcome::NearHit, shared_edges),
            (None, None) => (WarmOutcome::Cold, 0),
        };
        if sink.enabled() {
            sink.record(TraceEvent::WarmLookup {
                outcome,
                shared_edges,
            });
        }
        if let Some(i) = hit {
            let mut result = self.entries[i].result.clone();
            result.stats.warm_exact_hits += 1;
            return WarmSolve {
                result,
                source: WarmSource::ExactHit,
                evaluations_spent: 0,
            };
        }
        let mut result =
            run_portfolio_seeded_traced(problem, spec, budget, seed, donor.map(|d| d.0), sink);
        let source = match donor {
            Some((_, donor_score, shared_edges)) => WarmSource::NearHit {
                donor_score,
                shared_edges,
            },
            None => WarmSource::Cold,
        };
        let evaluations_spent = result.evaluations;
        // Store the pure run counters; classify the request only on the
        // returned copy, so a later exact hit replays the original run.
        self.insert(key, tables.clone(), result.clone());
        if matches!(source, WarmSource::NearHit { .. }) {
            result.stats.warm_near_hits += 1;
        } else {
            result.stats.warm_cold += 1;
        }
        WarmSolve {
            result,
            source,
            evaluations_spent,
        }
    }

    fn insert(&mut self, key: RequestKey, tables: ScoreTables, result: PortfolioResult) {
        let endpoints: Vec<(usize, usize)> = key.edges.iter().map(|&(s, d, _)| (s, d)).collect();
        let index = self.entries.len();
        self.by_family.entry(key.family).or_default().push(index);
        self.by_key.insert(key, index);
        self.entries.push(Entry {
            endpoints,
            tables,
            result,
        });
    }
}

/// Number of elements two sorted slices share.
fn overlap_count(a: &[(usize, usize)], b: &[(usize, usize)]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_problem;
    use phonoc_apps::TaskId;
    use phonoc_phys::PhysicalParameters;
    use phonoc_router::netlist::{NetlistBuilder, PassMode};
    use phonoc_router::{Port, RouterModel};

    fn spec() -> PortfolioSpec {
        PortfolioSpec::parse("r-pbla+sa,exchange=best,rounds=2").unwrap()
    }

    #[test]
    fn repeat_request_is_an_exact_hit_with_zero_evaluations() {
        let p = tiny_problem();
        let mut cache = WarmCache::new();
        let cold = cache.solve(&p, &spec(), 60, 7);
        assert_eq!(cold.source, WarmSource::Cold);
        assert!(cold.evaluations_spent > 0);
        let hit = cache.solve(&p, &spec(), 60, 7);
        assert_eq!(hit.source, WarmSource::ExactHit);
        assert_eq!(hit.evaluations_spent, 0);
        assert_eq!(hit.result.best_score, cold.result.best_score);
        assert_eq!(hit.result.best_mapping, cold.result.best_mapping);
        // Each returned result records how its request was satisfied.
        assert_eq!(cold.result.stats.warm_cold, 1);
        assert_eq!(hit.result.stats.warm_exact_hits, 1);
        assert_eq!(hit.result.stats.warm_cold, 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn changed_run_parameters_miss_the_exact_key() {
        let p = tiny_problem();
        let mut cache = WarmCache::new();
        cache.solve(&p, &spec(), 60, 7);
        // Same problem, different seed → same family → near hit.
        let near = cache.solve(&p, &spec(), 60, 8);
        assert!(matches!(near.source, WarmSource::NearHit { .. }));
        // Different budget too.
        let near = cache.solve(&p, &spec(), 80, 7);
        assert!(matches!(near.source, WarmSource::NearHit { .. }));
    }

    #[test]
    fn perturbed_weights_are_near_hits_seeded_by_the_stored_elite() {
        let mut p = tiny_problem();
        let mut cache = WarmCache::new();
        let cold = cache.solve(&p, &spec(), 60, 7);
        let (s, d) = {
            let e = &p.cg().edges()[0];
            (e.src, e.dst)
        };
        let bw = p.cg().edges()[0].bandwidth;
        p.update_edge_bandwidths(&[(s, d, bw * 1.05)]).unwrap();
        let near = cache.solve(&p, &spec(), 60, 7);
        match near.source {
            WarmSource::NearHit {
                donor_score,
                shared_edges,
            } => {
                assert_eq!(donor_score, cold.result.best_score);
                // Weight-only perturbation: every directed endpoint is
                // shared.
                assert_eq!(shared_edges, p.cg().edge_count());
            }
            other => panic!("expected a near hit, got {other:?}"),
        }
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn keys_are_stable_across_edge_orderings() {
        use phonoc_apps::CgBuilder;
        let forward = CgBuilder::new("x")
            .tasks(["a", "b", "c"])
            .edge("a", "b", 1.0)
            .edge("b", "c", 2.0)
            .build()
            .unwrap();
        let reversed = CgBuilder::new("x")
            .tasks(["a", "b", "c"])
            .edge("b", "c", 2.0)
            .edge("a", "b", 1.0)
            .build()
            .unwrap();
        let mk = |cg| {
            MappingProblem::new(
                cg,
                phonoc_topo::Topology::mesh(2, 2, phonoc_phys::Length::from_mm(2.5)),
                phonoc_router::crux::crux_router(),
                Box::new(phonoc_route::XyRouting),
                phonoc_phys::PhysicalParameters::default(),
                Objective::MaximizeWorstCaseSnr,
            )
            .unwrap()
        };
        let a = RequestKey::of(&mk(forward), &spec(), 60, 7);
        let b = RequestKey::of(&mk(reversed), &spec(), 60, 7);
        assert_eq!(a, b);
    }

    /// A 25-CPSE matrix router named `crossbar`, its rows (inputs) and
    /// columns (outputs) laid out in `order`. Every order has the
    /// built-in crossbar's name, ring and crossing counts and supported
    /// pairs; only the wiring differs.
    fn matrix_router(order: [Port; 5]) -> RouterModel {
        let mut b = NetlistBuilder::new("crossbar");
        let row = |i: usize, j: usize| format!("r{i}_{j}");
        let col = |j: usize, i: usize| format!("c{j}_{i}");
        for i in 0..5 {
            for j in 0..5 {
                let (ri, ro, ci, co) = (row(i, j), row(i, j + 1), col(j, i), col(j, i + 1));
                b.cpse(&format!("x{i}{j}"), &ri, &ro, &ci, &co);
            }
        }
        for (i, &port) in order.iter().enumerate() {
            b.bind_input(port, &row(i, 0));
            b.bind_output(port, &col(i, 5));
        }
        for (i, &input) in order.iter().enumerate() {
            for (j, &output) in order.iter().enumerate().filter(|&(j, _)| j != i) {
                let mut steps: Vec<(String, PassMode)> = (0..j)
                    .map(|k| (format!("x{i}{k}"), PassMode::Off))
                    .collect();
                steps.push((format!("x{i}{j}"), PassMode::On));
                steps.extend((i + 1..5).map(|r| (format!("x{r}{j}"), PassMode::Cross)));
                let steps: Vec<(&str, PassMode)> =
                    steps.iter().map(|(n, m)| (n.as_str(), *m)).collect();
                b.route(input, output, &steps);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn routers_key_by_their_wiring_not_their_name() {
        use phonoc_router::crossbar::{crossbar_router, xy_crossbar_router};
        use phonoc_router::crux::crux_router;
        let family = |router: RouterModel| {
            let problem = MappingProblem::new(
                phonoc_apps::synthetic::pipeline(3),
                phonoc_topo::Topology::mesh(2, 2, phonoc_phys::Length::from_mm(2.5)),
                router,
                Box::new(phonoc_route::XyRouting),
                PhysicalParameters::default(),
                Objective::MaximizeWorstCaseSnr,
            )
            .unwrap();
            FamilyKey::of(&problem)
        };
        use Port::{East, Local, North, South, West};
        let (builtin, rewired) = (
            matrix_router([Local, North, East, South, West]),
            matrix_router([West, South, East, North, Local]),
        );
        assert_eq!(builtin.name(), rewired.name());
        assert_eq!(builtin.microring_count(), rewired.microring_count());
        assert_eq!(
            builtin.plain_crossing_count(),
            rewired.plain_crossing_count()
        );
        assert_eq!(builtin.supported_pairs(), rewired.supported_pairs());
        let builtin = family(builtin);
        assert_ne!(builtin, family(rewired), "same name, different wiring");
        // The built-in crossbar's wiring keys like its copy.
        assert_eq!(builtin, family(crossbar_router()));

        let keys = [crux_router(), crossbar_router(), xy_crossbar_router()].map(family);
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
    }

    #[test]
    fn structural_mutations_change_the_key_but_not_the_family() {
        let mut p = tiny_problem();
        let base = RequestKey::of(&p, &spec(), 60, 7);
        let (s, d) = {
            // A pair with no edge in either direction.
            let mut found = None;
            'outer: for a in 0..p.task_count() {
                for b in 0..p.task_count() {
                    if a != b
                        && p.cg().edge_index(TaskId(a), TaskId(b)).is_none()
                        && p.cg().edge_index(TaskId(b), TaskId(a)).is_none()
                    {
                        found = Some((TaskId(a), TaskId(b)));
                        break 'outer;
                    }
                }
            }
            found.expect("PIP is sparse enough to have a free pair")
        };
        p.add_edge(s, d, 5.0).unwrap();
        let added = RequestKey::of(&p, &spec(), 60, 7);
        assert_ne!(base, added);
        assert_eq!(base.family(), added.family());
        p.remove_edge(s, d).unwrap();
        let removed = RequestKey::of(&p, &spec(), 60, 7);
        assert_eq!(base, removed, "undoing the mutation restores the key");
    }
}
