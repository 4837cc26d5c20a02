//! Name-based optimizer registry — the "Mapping Optimization" extension
//! point of the paper's Fig. 1.
//!
//! # The unified search-spec grammar
//!
//! Every surface that names a search — the CLI's `--algo`, the sweep
//! harness's optimizer list, and each lane of a portfolio spec —
//! speaks **one grammar**:
//!
//! ```text
//! name[@policy][/peek][!objective]
//! ```
//!
//! * `name` — a registry optimizer (`r-pbla`, `sa`, `tabu`, ...).
//! * `@policy` — the [`NeighborhoodPolicy`] the run pins
//!   (`@sampled`, `@locality`, ...).
//! * `/peek` — the [`phonoc_core::PeekStrategy`] SNR peeks route
//!   through (`/hybrid`, `/delta`, `/full`).
//! * `!objective` — an [`Objective`] override (`!power`, `!margin`,
//!   `!power-pam4`, ...): the session scores under this objective
//!   instead of the problem's own, without rebuilding the problem.
//!
//! e.g. `r-pbla@sampled/hybrid!power`. [`single_spec`] parses one such
//! spec into a [`SingleSpec`]; [`PortfolioSpec::parse`] applies the
//! same grammar per lane. Suffixes are printed in canonical labels
//! only when present / non-default, so every spec string that predates
//! a suffix keeps its exact bytes (warm-cache keys are derived from
//! canonical spec strings and must not move).
//!
//! Beyond single optimizers, a `portfolio:` prefix names a multi-lane
//! portfolio run (e.g.
//! `portfolio:r-pbla@sampled+r-pbla@locality+sa,exchange=best,rounds=8`
//! — see [`PortfolioSpec`]); [`search_spec`] resolves either form into
//! a [`SearchSpec`], the single entry point the sweep harness and the
//! CLI dispatch on.

use crate::annealing::SimulatedAnnealing;
use crate::exact::ExactSearch;
use crate::exhaustive::Exhaustive;
use crate::genetic::GeneticAlgorithm;
use crate::ils::IteratedLocalSearch;
use crate::portfolio::PortfolioSpec;
use crate::random_search::RandomSearch;
use crate::rpbla::Rpbla;
use crate::tabu::TabuSearch;
use phonoc_core::{MappingOptimizer, NeighborhoodPolicy, Objective, PeekStrategy};
use std::fmt::Write as _;

/// Builds one registry optimizer.
type Build = fn() -> Box<dyn MappingOptimizer>;

/// The built-in optimizers as `(name, aliases, constructor)`, in the
/// order help texts list them: the one table [`optimizer`] resolves and
/// [`builtin_names`] lists.
const BUILTINS: [(&str, &[&str], Build); 8] = [
    ("rs", &["random"], || Box::new(RandomSearch)),
    ("ga", &["genetic"], || Box::new(GeneticAlgorithm)),
    ("r-pbla", &["rpbla"], || Box::new(Rpbla)),
    ("sa", &["annealing"], || Box::new(SimulatedAnnealing)),
    ("tabu", &[], || Box::new(TabuSearch)),
    ("ils", &[], || Box::new(IteratedLocalSearch)),
    ("exhaustive", &[], || Box::new(Exhaustive)),
    ("exact", &[], || Box::new(ExactSearch)),
];

/// Instantiates a built-in optimizer by name ([`builtin_names`]) or
/// alias (`"random"`, `"genetic"`, `"rpbla"`, `"annealing"`),
/// case-insensitively.
#[must_use]
pub fn optimizer(name: &str) -> Option<Box<dyn MappingOptimizer>> {
    let name = name.to_lowercase();
    BUILTINS
        .iter()
        .find(|(canonical, aliases, _)| *canonical == name || aliases.contains(&name.as_str()))
        .map(|(_, _, build)| build())
}

/// One fully-parsed single-optimizer spec under the unified grammar
/// `name[@policy][/peek][!objective]` (see the [module docs](self)):
/// the resolved optimizer plus every knob the suffixes pinned. `None`
/// fields mean "leave the session default" — a spec without suffixes
/// resolves to exactly the classic run.
#[derive(Debug)]
pub struct SingleSpec {
    /// The registry half of the spec, `name[@policy]`, exactly as
    /// written.
    pub algo: String,
    /// The resolved optimizer.
    pub optimizer: Box<dyn MappingOptimizer>,
    /// Neighbourhood policy pinned by `@policy` (`None` = the context
    /// default, [`NeighborhoodPolicy::Auto`]).
    pub policy: Option<NeighborhoodPolicy>,
    /// Peek strategy pinned by `/peek` (`None` = the context default,
    /// [`PeekStrategy::Hybrid`]).
    pub strategy: Option<PeekStrategy>,
    /// Objective override from `!objective` (`None` = score under the
    /// problem's own objective).
    pub objective: Option<Objective>,
}

impl SingleSpec {
    /// The canonical spec label — suffixes appear only when pinned, so
    /// a suffix-free spec's label is byte-identical to its input.
    #[must_use]
    pub fn label(&self) -> String {
        let mut label = self.algo.clone();
        if let Some(strategy) = self.strategy {
            let _ = write!(label, "/{strategy}");
        }
        if let Some(objective) = self.objective {
            let _ = write!(label, "!{}", objective.name());
        }
        label
    }
}

/// Parses one single-optimizer spec under the unified grammar
/// `name[@policy][/peek][!objective]` — e.g. `tabu`, `r-pbla@sampled`,
/// `r-pbla@sampled/hybrid!power`. Suffixes are peeled right to left
/// (`!objective` first, then `/peek`), so the registry half is always
/// plain `name[@policy]`.
///
/// # Errors
///
/// Returns a message naming the unknown optimizer, neighbourhood
/// policy, peek strategy or objective (an unknown name and an unknown
/// `@policy` both report the whole `name[@policy]` half).
pub fn single_spec(spec: &str) -> Result<SingleSpec, String> {
    let (rest, objective) = match spec.rsplit_once('!') {
        Some((rest, name)) => (
            rest,
            Some(
                Objective::by_name(name)
                    .ok_or_else(|| format!("unknown objective `{name}` in spec `{spec}`"))?,
            ),
        ),
        None => (spec, None),
    };
    let (algo, strategy) = match rest.split_once('/') {
        Some((algo, peek)) => (
            algo,
            Some(
                PeekStrategy::by_name(peek)
                    .ok_or_else(|| format!("unknown peek strategy `{peek}` in spec `{spec}`"))?,
            ),
        ),
        None => (rest, None),
    };
    let unknown = || format!("unknown optimizer spec `{algo}` in spec `{spec}`");
    let (name, policy) = match algo.split_once('@') {
        Some((name, policy)) => (
            name,
            Some(NeighborhoodPolicy::by_name(policy).ok_or_else(unknown)?),
        ),
        None => (algo, None),
    };
    let optimizer = optimizer(name).ok_or_else(unknown)?;
    Ok(SingleSpec {
        algo: algo.to_owned(),
        optimizer,
        policy,
        strategy,
        objective,
    })
}

/// A resolved search spec: either one optimizer (with every knob its
/// suffixes pinned) or a whole multi-lane portfolio.
#[derive(Debug)]
pub enum SearchSpec {
    /// A single-optimizer run (`name[@policy][/peek][!objective]`).
    Single(SingleSpec),
    /// A portfolio run (`portfolio:lanes,options` — see
    /// [`PortfolioSpec::parse`]; each lane speaks the same grammar).
    Portfolio(PortfolioSpec),
}

/// Resolves any registry spec — `name[@policy][/peek][!objective]` or
/// `portfolio:lane+lane[,exchange=best][,rounds=N]` — into a
/// [`SearchSpec`].
///
/// # Errors
///
/// Returns a human-readable message for unknown optimizer names,
/// policy/peek/objective suffixes, or malformed portfolio specs.
pub fn search_spec(spec: &str) -> Result<SearchSpec, String> {
    if let Some(body) = spec.strip_prefix("portfolio:") {
        return PortfolioSpec::parse(body).map(SearchSpec::Portfolio);
    }
    single_spec(spec).map(SearchSpec::Single)
}

/// Names of all built-in optimizers.
#[must_use]
pub fn builtin_names() -> &'static [&'static str] {
    const NAMES: [&str; BUILTINS.len()] = {
        let mut names = [""; BUILTINS.len()];
        let mut i = 0;
        while i < names.len() {
            names[i] = BUILTINS[i].0;
            i += 1;
        }
        names
    };
    &NAMES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_resolves() {
        for name in builtin_names() {
            let opt = optimizer(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(!opt.name().is_empty());
        }
    }

    #[test]
    fn aliases_and_case_insensitivity() {
        assert!(optimizer("RPBLA").is_some());
        assert!(optimizer("Genetic").is_some());
        assert!(optimizer("nonsense").is_none());
    }

    #[test]
    fn specs_carry_neighborhood_policies() {
        let s = single_spec("r-pbla@sampled").unwrap();
        assert_eq!(s.optimizer.name(), "r-pbla");
        assert_eq!(s.policy, Some(NeighborhoodPolicy::Sampled));
        let s = single_spec("tabu@Locality").unwrap();
        assert_eq!(s.policy, Some(NeighborhoodPolicy::Locality));
        assert_eq!(single_spec("rs").unwrap().policy, None);
        for bad in ["r-pbla@nonsense", "nonsense@sampled"] {
            let err = single_spec(bad).unwrap_err();
            assert!(
                err.contains(&format!("unknown optimizer spec `{bad}`")),
                "{err}"
            );
        }
    }

    #[test]
    fn single_specs_speak_the_full_grammar() {
        // Bare name: every knob left at the session default.
        let s = single_spec("tabu").unwrap();
        assert_eq!(s.algo, "tabu");
        assert_eq!(s.optimizer.name(), "tabu");
        assert_eq!((s.policy, s.strategy, s.objective), (None, None, None));
        assert_eq!(s.label(), "tabu");
        // Full grammar, all three suffixes.
        let s = single_spec("r-pbla@sampled/hybrid!power").unwrap();
        assert_eq!(s.algo, "r-pbla@sampled");
        assert_eq!(s.policy, Some(NeighborhoodPolicy::Sampled));
        assert_eq!(s.strategy, Some(PeekStrategy::Hybrid));
        assert_eq!(
            s.objective,
            Some(Objective::MinimizeLaserPower {
                modulation: phonoc_phys::Modulation::Ook,
            })
        );
        assert_eq!(s.label(), "r-pbla@sampled/hybrid!power");
        // Objective without a peek suffix.
        let s = single_spec("sa!margin-pam4").unwrap();
        assert_eq!(s.strategy, None);
        assert_eq!(
            s.objective,
            Some(Objective::MaximizeSnrMargin {
                modulation: phonoc_phys::Modulation::Pam4,
            })
        );
        assert_eq!(s.label(), "sa!margin-pam4");
        // Unknown pieces are named in the error.
        assert!(single_spec("r-pbla!nonsense").is_err());
        assert!(single_spec("r-pbla/nonsense!power").is_err());
        assert!(single_spec("nonsense/delta").is_err());
        assert!(single_spec("r-pbla@nonsense/delta!power").is_err());
    }

    #[test]
    fn search_specs_resolve_both_forms() {
        match search_spec("r-pbla@sampled").unwrap() {
            SearchSpec::Single(s) => {
                assert_eq!(s.optimizer.name(), "r-pbla");
                assert_eq!(s.policy, Some(NeighborhoodPolicy::Sampled));
                assert_eq!(s.objective, None);
            }
            SearchSpec::Portfolio(_) => panic!("expected a single optimizer"),
        }
        match search_spec("r-pbla/delta!power").unwrap() {
            SearchSpec::Single(s) => {
                assert_eq!(s.strategy, Some(PeekStrategy::Delta));
                assert!(s.objective.unwrap().is_loss_based());
            }
            SearchSpec::Portfolio(_) => panic!("expected a single optimizer"),
        }
        match search_spec("portfolio:r-pbla@sampled+sa,exchange=best,rounds=4").unwrap() {
            SearchSpec::Portfolio(spec) => {
                assert_eq!(spec.lanes.len(), 2);
                assert_eq!(spec.rounds, 4);
            }
            SearchSpec::Single(..) => panic!("expected a portfolio"),
        }
        assert!(search_spec("portfolio:").is_err());
        assert!(search_spec("portfolio:nonsense").is_err());
        assert!(search_spec("nonsense").is_err());
    }

    /// Malformed specs — empty pieces, dangling separators, doubled
    /// suffixes, empty/zero/overflowing round counts, valueless
    /// options — fail with an error through both parsers, never a
    /// panic.
    #[test]
    fn malformed_specs_fail_in_both_parsers() {
        for spec in [
            "",
            "+",
            ",",
            "r-pbla@",
            "r-pbla/",
            "r-pbla!",
            "r-pbla/full/delta",
            "portfolio:",
            "r-pbla,rounds=",
            "r-pbla,rounds=0",
            "r-pbla,rounds=99999999999999999999",
            "r-pbla,exchange",
            "r-pbla+",
            "+r-pbla",
            "r-pbla++sa",
            "r-pbla,rounds=1,rounds=2",
            "r-pbla,exchange=best,exchange=best",
        ] {
            assert!(search_spec(spec).is_err(), "search_spec accepted `{spec}`");
            assert!(
                PortfolioSpec::parse(spec).is_err(),
                "PortfolioSpec::parse accepted `{spec}`"
            );
        }
    }
}
