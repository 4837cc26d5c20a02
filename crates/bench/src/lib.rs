//! Shared experiment harness for regenerating the paper's tables and
//! figures (one binary per experiment under `src/bin/`, e.g.
//! `table2_algorithms`, `fig3_distribution`).
//!
//! Everything here is deterministic given a seed, and the heavy sweeps
//! are parallelized over [`phonoc_core::parallel`]'s persistent worker
//! pool — one coarse task per experiment cell — sharing read-only
//! problem state.

#![warn(missing_docs)]

pub mod replay;
pub mod sweep;

use phonoc_core::{MappingProblem, Objective};
use phonoc_phys::{Length, PhysicalParameters};
use phonoc_route::{RingRouting, RoutingAlgorithm, XyRouting};
use phonoc_router::{RouterModel, RouterRegistry};
use phonoc_topo::{fit_grid, Topology, TopologyKind};

/// Default tile pitch used by every experiment (2.5 mm, as in the CLI).
#[must_use]
pub fn tile_pitch() -> Length {
    Length::from_mm(2.5)
}

/// The benchmark names in the order of the paper's Table II rows.
pub const TABLE2_APPS: [&str; 8] = [
    "263dec_mp3dec",
    "263enc_mp3enc",
    "DVOPD",
    "MPEG-4",
    "MWD",
    "PIP",
    "VOPD",
    "Wavelet",
];

/// Paper Table II reference values: `(app, [mesh RS, GA, R-PBLA], [torus
/// RS, GA, R-PBLA])` for SNR (dB), used by the harness output so each run
/// can be compared against the published numbers side by side.
pub const PAPER_TABLE2_SNR: [(&str, [f64; 3], [f64; 3]); 8] = [
    (
        "263dec_mp3dec",
        [20.21, 38.67, 38.67],
        [39.08, 38.71, 39.95],
    ),
    (
        "263enc_mp3enc",
        [38.29, 38.63, 38.63],
        [39.77, 39.73, 39.94],
    ),
    ("DVOPD", [12.65, 16.19, 18.70], [14.12, 19.15, 19.12]),
    ("MPEG-4", [19.06, 19.16, 20.02], [20.10, 20.10, 21.08]),
    ("MWD", [20.24, 38.63, 38.63], [39.72, 39.28, 39.95]),
    ("PIP", [38.58, 38.58, 38.58], [39.95, 39.88, 39.95]),
    ("VOPD", [18.66, 37.83, 38.67], [19.24, 20.29, 38.59]),
    ("Wavelet", [14.58, 37.95, 36.86], [16.29, 19.65, 32.52]),
];

/// Paper Table II reference values for worst-case loss (dB).
pub const PAPER_TABLE2_LOSS: [(&str, [f64; 3], [f64; 3]); 8] = [
    (
        "263dec_mp3dec",
        [-2.04, -1.52, -1.52],
        [-2.12, -1.68, -1.60],
    ),
    (
        "263enc_mp3enc",
        [-2.04, -1.94, -1.59],
        [-2.12, -1.97, -1.75],
    ),
    ("DVOPD", [-2.79, -2.15, -1.85], [-3.18, -2.23, -2.04]),
    ("MPEG-4", [-2.35, -2.04, -2.04], [-2.35, -2.20, -2.20]),
    ("MWD", [-1.81, -1.59, -1.59], [-1.97, -1.99, -1.61]),
    ("PIP", [-1.90, -1.68, -1.68], [-1.86, -1.70, -1.70]),
    ("VOPD", [-2.27, -1.96, -1.52], [-2.39, -2.04, -1.68]),
    ("Wavelet", [-2.46, -2.15, -1.93], [-3.06, -2.31, -2.27]),
];

/// Lays out `tasks` tasks on a `kind` topology at the [`tile_pitch`],
/// with the routing its problems use — the one rule behind the CLI's
/// `--topology` and every experiment problem. Meshes and tori take the
/// smallest near-square grid ([`fit_grid`]) and XY routing; tori reject
/// dimensions below 3, so each is widened to at least 3 (only relevant
/// for tiny applications: every paper benchmark fits 3×3 or larger).
/// Rings take one tile per task (at least 3) and ring routing.
///
/// # Panics
///
/// Panics on [`TopologyKind::Custom`], which needs an explicit
/// [`Topology`], not a kind.
#[must_use]
pub fn topology_for(tasks: usize, kind: TopologyKind) -> (Topology, Box<dyn RoutingAlgorithm>) {
    let (w, h) = fit_grid(tasks);
    match kind {
        TopologyKind::Mesh => (Topology::mesh(w, h, tile_pitch()), Box::new(XyRouting)),
        TopologyKind::Torus => (
            Topology::torus(w.max(3), h.max(3), tile_pitch()),
            Box::new(XyRouting),
        ),
        TopologyKind::Ring => (
            Topology::ring(tasks.max(3), tile_pitch()),
            Box::new(RingRouting),
        ),
        TopologyKind::Custom => {
            panic!("custom topologies need an explicit Topology, not a kind")
        }
    }
}

/// Assembles the standard experiment problem: `app` on its fitted
/// topology of Crux routers ([`topology_for`]), Table I physics.
///
/// # Panics
///
/// Panics if `app` is not a known benchmark name — the experiment
/// binaries only iterate over [`TABLE2_APPS`].
#[must_use]
pub fn paper_problem(app: &str, kind: TopologyKind, objective: Objective) -> MappingProblem {
    problem_with_router(app, kind, objective, phonoc_router::crux::crux_router())
}

/// Same as [`paper_problem`] but with an explicit router model (for the
/// router ablation).
///
/// # Panics
///
/// Panics if `app` is unknown or the problem cannot be assembled (e.g.
/// router/routing incompatibility) — experiment configurations are
/// static, so failures are programming errors.
#[must_use]
pub fn problem_with_router(
    app: &str,
    kind: TopologyKind,
    objective: Objective,
    router: RouterModel,
) -> MappingProblem {
    let cg = phonoc_apps::benchmarks::benchmark(app)
        .unwrap_or_else(|| panic!("unknown benchmark `{app}`"));
    let (topology, routing) = topology_for(cg.task_count(), kind);
    MappingProblem::new(
        cg,
        topology,
        router,
        routing,
        PhysicalParameters::default(),
        objective,
    )
    .expect("paper experiment configurations are valid")
}

/// Instantiates a router by registry name.
///
/// # Panics
///
/// Panics on unknown names; the ablation binary iterates over built-ins.
#[must_use]
pub fn router_by_name(name: &str) -> RouterModel {
    RouterRegistry::with_builtins()
        .get(name)
        .unwrap_or_else(|| panic!("unknown router `{name}`"))
}

/// A fixed-width histogram over `[lo, hi)` with saturation at both ends.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    count: u64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` buckets spanning
    /// `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins > 0 && hi > lo, "invalid histogram shape");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            count: 0,
        }
    }

    /// Records one sample (clamped to the outer buckets).
    pub fn add(&mut self, value: f64) {
        let n = self.bins.len();
        let t = (value - self.lo) / (self.hi - self.lo);
        let idx = ((t * n as f64).floor() as i64).clamp(0, n as i64 - 1) as usize;
        self.bins[idx] += 1;
        self.count += 1;
    }

    /// Merges another histogram with the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bins.len(), other.bins.len());
        assert!((self.lo - other.lo).abs() < 1e-12);
        assert!((self.hi - other.hi).abs() < 1e-12);
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Total number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The bucket counts.
    #[must_use]
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Midpoint of bucket `i`.
    #[must_use]
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }

    /// CSV rendering: `center,probability` per line.
    #[must_use]
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("bin_center,probability\n");
        for (i, &c) in self.bins.iter().enumerate() {
            let p = if self.count == 0 {
                0.0
            } else {
                c as f64 / self.count as f64
            };
            let _ = writeln!(out, "{:.4},{:.6}", self.bin_center(i), p);
        }
        out
    }

    /// Compact ASCII rendering (one row per bucket) for terminal output.
    #[must_use]
    pub fn to_ascii(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let max = self.bins.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (i, &c) in self.bins.iter().enumerate() {
            let bar = (c as f64 / max as f64 * width as f64).round() as usize;
            let _ = writeln!(
                out,
                "{:>8.2} | {:<width$} {:.4}",
                self.bin_center(i),
                "#".repeat(bar),
                if self.count == 0 {
                    0.0
                } else {
                    c as f64 / self.count as f64
                },
            );
        }
        out
    }
}

/// One command's arguments, checked against what the command accepts:
/// `--name value` flags, bare `--switch`es and up to a fixed number of
/// positional words. Anything else — an unknown flag such as the typo
/// `--budjet`, a flag missing its value (or followed by another
/// `--flag`), a flag or switch given twice, a stray word — is an error,
/// so a mistyped option never silently runs with a value the user did
/// not mean. Shared by every `phonocmap` subcommand and the experiment
/// bins.
#[derive(Debug, Default)]
pub struct CliArgs {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

impl CliArgs {
    /// Parses `args` (everything after the command name) against the
    /// accepted value `flags`, `switches` and number of `positionals`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown flag (with the accepted
    /// ones), the flag missing its value, the repeated flag, or the
    /// unexpected word.
    pub fn parse(
        args: &[String],
        flags: &[&str],
        switches: &[&str],
        positionals: usize,
    ) -> Result<CliArgs, String> {
        let mut out = CliArgs::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if out.value(arg).is_some() || out.switch(arg) {
                return Err(format!("`{arg}` given twice"));
            }
            if flags.contains(&arg.as_str()) {
                let value = it
                    .next()
                    .filter(|value| !value.starts_with("--"))
                    .ok_or_else(|| format!("`{arg}` needs a value"))?;
                out.values.push((arg.clone(), value.clone()));
            } else if switches.contains(&arg.as_str()) {
                out.switches.push(arg.clone());
            } else if arg.starts_with("--") {
                let accepted: Vec<&str> = flags.iter().chain(switches).copied().collect();
                return Err(if accepted.is_empty() {
                    format!("unknown flag `{arg}` (this command takes no flags)")
                } else {
                    format!("unknown flag `{arg}` (accepted: {})", accepted.join(" "))
                });
            } else if out.positionals.len() < positionals {
                out.positionals.push(arg.clone());
            } else {
                return Err(format!("unexpected argument `{arg}`"));
            }
        }
        Ok(out)
    }

    /// The value given for `flag`.
    #[must_use]
    pub fn value(&self, flag: &str) -> Option<String> {
        self.values
            .iter()
            .find(|(name, _)| name == flag)
            .map(|(_, value)| value.clone())
    }

    /// Whether `switch` was given.
    #[must_use]
    pub fn switch(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// The `index`-th positional word.
    #[must_use]
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positionals.get(index).map(String::as_str)
    }

    /// The value of `flag` parsed as `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag and its unparseable value.
    pub fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        self.value(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad value `{v}` for {flag}"))
        })
    }

    /// The value of `flag` as a count of at least 1, or `None` when
    /// absent — budgets, samples and moves, where a zero would panic or
    /// report nonsense further down.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag and its unparseable value, or
    /// `--flag must be at least 1` for zero.
    pub fn count(&self, flag: &str) -> Result<Option<usize>, String> {
        if self.value(flag).is_none() {
            return Ok(None);
        }
        match self.parsed(flag, 0)? {
            0 => Err(format!("{flag} must be at least 1")),
            count => Ok(Some(count)),
        }
    }
}

/// The argument front door of the experiment bins: parses the process
/// arguments against the accepted value `flags` and hands them to
/// `read`, which pulls out the typed values. An unknown flag, a missing
/// or unparseable value or a stray word prints `error: …` and exits
/// with status 1 before any experiment work starts.
pub fn bin_args<T>(flags: &[&str], read: impl FnOnce(&CliArgs) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match CliArgs::parse(&args, flags, &[], 0).and_then(|args| read(&args)) {
        Ok(values) => values,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}

/// Writes `content` to `results/<name>` under the current directory,
/// creating it if needed; prints the destination. Errors are reported
/// but not fatal (experiments still print to stdout).
pub fn write_results_file(name: &str, content: &str) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results/: {e}");
        return;
    }
    let path = dir.join(name);
    match std::fs::write(&path, content) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliArgs, String> {
        let args: Vec<String> = args.iter().map(|&a| a.to_owned()).collect();
        CliArgs::parse(&args, &["--budget", "--trace-out"], &["--smoke"], 1)
    }

    #[test]
    fn cli_args_read_flags_switches_and_positionals() {
        let args = parse(&["cell", "--budget", "50", "--smoke"]).unwrap();
        assert_eq!(args.positional(0), Some("cell"));
        assert_eq!(args.parsed("--budget", 0usize), Ok(50));
        assert!(args.switch("--smoke"));
        assert_eq!(args.value("--trace-out"), None);
    }

    #[test]
    fn cli_args_reject_repeated_flags_and_switches() {
        let err = parse(&["--budget", "50", "--budget", "2000"]).unwrap_err();
        assert_eq!(err, "`--budget` given twice");
        let err = parse(&["--smoke", "--smoke"]).unwrap_err();
        assert_eq!(err, "`--smoke` given twice");
    }

    #[test]
    fn cli_args_reject_flag_shaped_values() {
        let err = parse(&["--trace-out", "--smoke"]).unwrap_err();
        assert_eq!(err, "`--trace-out` needs a value");
        let err = parse(&["--budget", "50", "--trace-out"]).unwrap_err();
        assert_eq!(err, "`--trace-out` needs a value");
        // A single leading dash is still a value (a negative number).
        let args = parse(&["--trace-out", "-"]).unwrap();
        assert_eq!(args.value("--trace-out").as_deref(), Some("-"));
    }

    #[test]
    fn cli_counts_must_be_positive() {
        assert_eq!(parse(&[]).unwrap().count("--budget"), Ok(None));
        let args = parse(&["--budget", "7"]).unwrap();
        assert_eq!(args.count("--budget"), Ok(Some(7)));
        let args = parse(&["--budget", "0"]).unwrap();
        assert_eq!(
            args.count("--budget").unwrap_err(),
            "--budget must be at least 1"
        );
        let args = parse(&["--budget", "-1"]).unwrap();
        assert_eq!(
            args.count("--budget").unwrap_err(),
            "bad value `-1` for --budget"
        );
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(0.5);
        h.add(9.99);
        h.add(-5.0); // clamps into bin 0
        h.add(50.0); // clamps into bin 9
        assert_eq!(h.count(), 4);
        assert_eq!(h.bins()[0], 2);
        assert_eq!(h.bins()[9], 2);
        assert!((h.bin_center(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        let mut b = Histogram::new(0.0, 1.0, 4);
        a.add(0.1);
        b.add(0.9);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.bins()[0], 1);
        assert_eq!(a.bins()[3], 1);
    }

    #[test]
    fn csv_and_ascii_render() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.add(0.5);
        let csv = h.to_csv();
        assert!(csv.starts_with("bin_center,probability"));
        assert!(csv.contains("0.5000,1.000000"));
        let ascii = h.to_ascii(10);
        assert!(ascii.contains('#'));
    }

    #[test]
    fn every_table2_cell_assembles() {
        for app in TABLE2_APPS {
            for kind in [TopologyKind::Mesh, TopologyKind::Torus] {
                let p = paper_problem(app, kind, Objective::MaximizeWorstCaseSnr);
                assert!(p.task_count() <= p.tile_count(), "{app} on {kind}");
            }
        }
    }

    #[test]
    fn ring_problems_pair_the_ring_with_ring_routing() {
        let p = paper_problem("PIP", TopologyKind::Ring, Objective::MaximizeWorstCaseSnr);
        assert_eq!(p.topology().kind(), TopologyKind::Ring);
        assert_eq!(p.routing().name(), RingRouting.name());
        assert_eq!(p.tile_count(), p.task_count());
    }

    #[test]
    fn reference_tables_cover_all_apps() {
        assert_eq!(PAPER_TABLE2_SNR.len(), 8);
        assert_eq!(PAPER_TABLE2_LOSS.len(), 8);
        for (name, _, _) in PAPER_TABLE2_SNR {
            assert!(TABLE2_APPS.contains(&name));
        }
    }
}
