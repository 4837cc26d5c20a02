//! The parallel-dispatch microbench: pool vs scope-spawn overhead
//! across batch size × item cost × worker count, written as
//! `BENCH_parallel.json`.
//!
//! Three implementations of the same order-preserving map race on
//! synthetic items of calibrated cost:
//!
//! * `seq` — the inline single-thread loop (the floor every dispatch
//!   overhead is measured against);
//! * `pool` — [`phonoc_core::parallel::pool_map_with`], the persistent
//!   worker pool behind every production batch path;
//! * `spawn` — [`phonoc_core::parallel::reference_map_with`], the
//!   retained pre-pool implementation (fresh `std::thread::scope`
//!   threads and a fresh scratch per call).
//!
//! The numbers answer two questions the fork floor depends on: *what
//! does one dispatch cost* (`pool_ns − seq_ns` at small batches, vs
//! the same difference for `spawn`), and *where is the crossover* —
//! the smallest batch at which a forked map stops losing to the
//! sequential loop (within [`CROSSOVER_TOLERANCE`], since on a
//! single-core host a forked CPU-bound map can only tie, never win).
//! `scripts/bench_gate.py --parallel` holds `pool ≤ spawn` per cell
//! (advisory) and on the median (fatal), and the crossover ordering.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use phonoc_core::parallel::{pool_map_with, reference_map_with, FORK_FLOOR};
use phonoc_core::telemetry::push_json_str;

/// A forked map is "at parity" with the sequential loop when it is
/// within this factor of it — the crossover batch size is the smallest
/// batch reaching parity. The slack absorbs scheduler noise and makes
/// the definition meaningful on a single-core host, where forked
/// CPU-bound work can tie the sequential loop but never beat it.
pub const CROSSOVER_TOLERANCE: f64 = 1.10;

/// One synthetic item-cost tier: `spin_iters` rounds of the arithmetic
/// spin, roughly imitating a class of real per-item work.
#[derive(Debug, Clone, Copy)]
pub struct CostTier {
    /// Tier name in the emitted JSON (`delta`-ish, `eval`-ish, …).
    pub name: &'static str,
    /// Spin rounds per item.
    pub spin_iters: u32,
}

/// The measurement grid.
#[derive(Debug, Clone)]
pub struct ParallelBenchConfig {
    /// CI smoke mode: reduced grid, fewer samples.
    pub smoke: bool,
    /// Worker counts to dispatch at (the caller thread counts as one).
    pub workers: Vec<usize>,
    /// Batch sizes (items per map call).
    pub batches: Vec<usize>,
    /// Item-cost tiers.
    pub costs: Vec<CostTier>,
    /// Timed samples per cell; the median is reported.
    pub samples: usize,
    /// Target wall time per sample (repetitions are calibrated to it).
    pub target_sample_ns: u64,
}

impl ParallelBenchConfig {
    /// The full grid behind the committed `BENCH_parallel.json`.
    #[must_use]
    pub fn full() -> ParallelBenchConfig {
        ParallelBenchConfig {
            smoke: false,
            workers: vec![2, 4],
            batches: vec![2, 4, 8, 16, 32, 64, 128, 256, 512],
            costs: vec![
                // ~100 ns: cheap index-style work, far below one
                // delta evaluation. (The spin runs ~1.25 ns/round on
                // the reference host; `item_ns` records the calibrated
                // actual per cell.)
                CostTier {
                    name: "spin100ns",
                    spin_iters: 80,
                },
                // ~1 µs: the ballpark of one delta evaluation on the
                // small meshes (the fork floor's clientele).
                CostTier {
                    name: "spin1us",
                    spin_iters: 800,
                },
                // ~10 µs: bounded/full evaluations on mid meshes.
                CostTier {
                    name: "spin10us",
                    spin_iters: 8000,
                },
            ],
            samples: 9,
            target_sample_ns: 2_000_000,
        }
    }

    /// The CI smoke grid: one cost tier, four batch sizes, quick
    /// samples — enough to exercise every code path and emit a
    /// schema-valid document, not to publish numbers.
    #[must_use]
    pub fn smoke() -> ParallelBenchConfig {
        ParallelBenchConfig {
            smoke: true,
            workers: vec![2, 4],
            batches: vec![2, 8, 32, 128],
            costs: vec![CostTier {
                name: "spin1us",
                spin_iters: 800,
            }],
            samples: 3,
            target_sample_ns: 200_000,
        }
    }
}

/// One measured grid cell: median per-call wall time of the three
/// paths mapping `batch` items of `cost` tier at `workers` workers.
#[derive(Debug, Clone)]
pub struct ParallelCell {
    /// Cost-tier name.
    pub cost: &'static str,
    /// Calibrated per-item cost of the tier on this host.
    pub item_ns: f64,
    /// Dispatch width.
    pub workers: usize,
    /// Items per map call.
    pub batch: usize,
    /// Sequential inline loop, ns per call.
    pub seq_ns: f64,
    /// Persistent-pool dispatch, ns per call.
    pub pool_ns: f64,
    /// Scope-spawn reference dispatch, ns per call.
    pub spawn_ns: f64,
}

impl ParallelCell {
    /// Pool time as a fraction of the spawn reference (< 1 means the
    /// pool wins).
    #[must_use]
    pub fn pool_over_spawn(&self) -> f64 {
        self.pool_ns / self.spawn_ns
    }
}

/// Per (cost, workers) series: the smallest batch size at which each
/// forked path reaches parity with the sequential loop (within
/// [`CROSSOVER_TOLERANCE`]), if any.
#[derive(Debug, Clone)]
pub struct Crossover {
    /// Cost-tier name.
    pub cost: &'static str,
    /// Dispatch width.
    pub workers: usize,
    /// Smallest parity batch for the pool path.
    pub pool_batch: Option<usize>,
    /// Smallest parity batch for the spawn path.
    pub spawn_batch: Option<usize>,
}

/// The full measurement report.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Whether this was the smoke grid.
    pub smoke: bool,
    /// `available_parallelism` on the measuring host.
    pub host_cores: usize,
    /// The fork floor compiled into the measured build.
    pub fork_floor: usize,
    /// All measured cells, grid order (cost-major, then workers, then
    /// batch).
    pub cells: Vec<ParallelCell>,
}

impl ParallelReport {
    /// Crossover rows, one per (cost, workers) series in grid order.
    #[must_use]
    pub fn crossovers(&self) -> Vec<Crossover> {
        let mut series: Vec<(&'static str, usize)> = Vec::new();
        for c in &self.cells {
            if !series.contains(&(c.cost, c.workers)) {
                series.push((c.cost, c.workers));
            }
        }
        series
            .into_iter()
            .map(|(cost, workers)| {
                let parity = |ns: fn(&ParallelCell) -> f64| {
                    self.cells
                        .iter()
                        .filter(|c| c.cost == cost && c.workers == workers)
                        .find(|c| ns(c) <= c.seq_ns * CROSSOVER_TOLERANCE)
                        .map(|c| c.batch)
                };
                Crossover {
                    cost,
                    workers,
                    pool_batch: parity(|c| c.pool_ns),
                    spawn_batch: parity(|c| c.spawn_ns),
                }
            })
            .collect()
    }

    /// Median of `pool_ns / spawn_ns` across all cells (< 1 means the
    /// pool wins overall) — the fatal gate statistic.
    #[must_use]
    pub fn median_pool_over_spawn(&self) -> f64 {
        let mut ratios: Vec<f64> = self
            .cells
            .iter()
            .map(ParallelCell::pool_over_spawn)
            .collect();
        ratios.sort_by(f64::total_cmp);
        if ratios.is_empty() {
            return f64::NAN;
        }
        ratios[ratios.len() / 2]
    }
}

/// The deterministic per-item spin: `iters` rounds of mix arithmetic.
/// `black_box` keeps the optimizer from collapsing the loop.
fn spin(x: u64, iters: u32) -> u64 {
    let mut v = x | 1;
    for _ in 0..iters {
        v = black_box(v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17));
    }
    v
}

/// Median per-call nanoseconds of `f`, sampled `samples` times with
/// repetitions calibrated to `target_ns` per sample.
fn time_median(samples: usize, target_ns: u64, mut f: impl FnMut()) -> f64 {
    // Calibrate: one untimed warm-up call (also spawns any missing
    // pool workers), then estimate the per-call cost.
    f();
    let t = Instant::now();
    f();
    let est = t.elapsed().as_nanos().max(1) as u64;
    let reps = (target_ns / est).clamp(1, 1_000_000);
    let mut per_call: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

/// Runs the grid, invoking `progress` per measured cell.
pub fn run_parallel_bench(
    cfg: &ParallelBenchConfig,
    mut progress: impl FnMut(&ParallelCell),
) -> ParallelReport {
    let mut cells = Vec::new();
    for tier in &cfg.costs {
        let iters = tier.spin_iters;
        // Calibrated per-item cost: the sequential loop over one item.
        let one = [7u64];
        let item_ns = time_median(cfg.samples, cfg.target_sample_ns, || {
            black_box(reference_map_with(
                &one,
                1,
                || 0u64,
                |acc, &x| {
                    *acc = spin(x, iters);
                    *acc
                },
            ));
        });
        for &workers in &cfg.workers {
            for &batch in &cfg.batches {
                if workers > batch {
                    continue;
                }
                let items: Vec<u64> = (0..batch as u64)
                    .map(|i| i.wrapping_mul(0x2545_F491))
                    .collect();
                let f = |acc: &mut u64, &x: &u64| {
                    *acc = spin(x, iters);
                    *acc
                };
                let seq_ns = time_median(cfg.samples, cfg.target_sample_ns, || {
                    black_box(reference_map_with(&items, 1, || 0u64, f));
                });
                let pool_ns = time_median(cfg.samples, cfg.target_sample_ns, || {
                    black_box(pool_map_with(&items, workers, || 0u64, f));
                });
                let spawn_ns = time_median(cfg.samples, cfg.target_sample_ns, || {
                    black_box(reference_map_with(&items, workers, || 0u64, f));
                });
                let cell = ParallelCell {
                    cost: tier.name,
                    item_ns,
                    workers,
                    batch,
                    seq_ns,
                    pool_ns,
                    spawn_ns,
                };
                progress(&cell);
                cells.push(cell);
            }
        }
    }
    ParallelReport {
        smoke: cfg.smoke,
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        fork_floor: FORK_FLOOR,
        cells,
    }
}

/// The shared command-line driver behind `phonocmap parallel-bench`
/// and the standalone `parallel` bin: parses `--smoke`, `--samples N`
/// and `--out PATH`, runs the grid with live progress, prints the
/// crossover summary and writes the JSON.
///
/// # Errors
///
/// Returns a message for unparseable flag values or an unwritable
/// output path.
pub fn run_parallel_cli(args: &[String], command_prefix: &str) -> Result<(), String> {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut cfg = if smoke {
        ParallelBenchConfig::smoke()
    } else {
        ParallelBenchConfig::full()
    };
    let mut command = format!("{command_prefix}{}", if smoke { " --smoke" } else { "" });
    if let Some(v) = flag("--samples") {
        cfg.samples = v.parse().map_err(|_| format!("bad samples `{v}`"))?;
        let _ = write!(command, " --samples {v}");
    }
    let out = flag("--out").unwrap_or_else(|| "BENCH_parallel.json".into());

    println!(
        "parallel dispatch bench ({} mode): {} costs x {:?} workers x {:?} items, {} samples/cell\n",
        if cfg.smoke { "smoke" } else { "full" },
        cfg.costs.len(),
        cfg.workers,
        cfg.batches,
        cfg.samples,
    );
    println!(
        "{:<10} {:>3} {:>5} {:>12} {:>12} {:>12} {:>8}",
        "cost", "w", "batch", "seq_ns", "pool_ns", "spawn_ns", "p/s"
    );
    let report = run_parallel_bench(&cfg, |c| {
        println!(
            "{:<10} {:>3} {:>5} {:>12.0} {:>12.0} {:>12.0} {:>8.3}",
            c.cost,
            c.workers,
            c.batch,
            c.seq_ns,
            c.pool_ns,
            c.spawn_ns,
            c.pool_over_spawn(),
        );
    });
    println!(
        "\nhost cores: {}   fork floor: {}",
        report.host_cores, report.fork_floor
    );
    println!(
        "median pool/spawn: {:.3} (gate: <= 1.0)",
        report.median_pool_over_spawn()
    );
    for x in report.crossovers() {
        println!(
            "crossover {} @ {}w: pool {} / spawn {}",
            x.cost,
            x.workers,
            x.pool_batch
                .map_or_else(|| "never".into(), |b| b.to_string()),
            x.spawn_batch
                .map_or_else(|| "never".into(), |b| b.to_string()),
        );
    }
    std::fs::write(&out, report_to_json(&report, &command))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn opt_usize(v: Option<usize>) -> String {
    v.map_or_else(|| "null".into(), |b| b.to_string())
}

/// Renders the report as the `phonocmap-bench-parallel/1` JSON document
/// (hand-rolled — the workspace builds offline, without `serde_json`).
#[must_use]
pub fn report_to_json(report: &ParallelReport, command: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"phonocmap-bench-parallel/1\",");
    out.push_str("  \"command\": ");
    push_json_str(&mut out, command);
    out.push_str(",\n");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if report.smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(out, "  \"host_cores\": {},", report.host_cores);
    let _ = writeln!(out, "  \"fork_floor\": {},", report.fork_floor);
    out.push_str("  \"notes\": [\n");
    let _ = writeln!(
        out,
        "    \"Each cell maps `batch` synthetic items of the tier's calibrated cost through three order-preserving implementations: seq (inline loop), pool (persistent worker pool, the production path), spawn (retained std::thread::scope reference). Medians of per-call wall time.\","
    );
    let _ = writeln!(
        out,
        "    \"pool_ns <= spawn_ns is the dispatch-overhead claim bench_gate.py --parallel holds per cell (advisory, 5% slack) and on the median (fatal): a persistent pool must never cost more than spawning fresh threads.\","
    );
    let _ = writeln!(
        out,
        "    \"crossover rows give the smallest batch at which each forked path reaches parity (within {CROSSOVER_TOLERANCE}x) with the sequential loop; on a single-core host parity is the best possible outcome for CPU-bound work, so the pool crossover is where forking becomes free, not yet profitable.\","
    );
    let _ = writeln!(
        out,
        "    \"host_cores is recorded so readers can tell measured lane-parallel speed-ups from single-core parity: this file was generated on a {}-core host.\"",
        report.host_cores
    );
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"summary\": {{");
    let _ = writeln!(out, "    \"cells\": {},", report.cells.len());
    let _ = writeln!(
        out,
        "    \"median_pool_over_spawn\": {:.4},",
        report.median_pool_over_spawn()
    );
    let _ = writeln!(
        out,
        "    \"pool_not_worse_cells\": {},",
        report
            .cells
            .iter()
            .filter(|c| c.pool_ns <= c.spawn_ns * 1.05)
            .count()
    );
    let _ = writeln!(out, "    \"crossover_tolerance\": {CROSSOVER_TOLERANCE}");
    out.push_str("  },\n");
    out.push_str("  \"crossovers\": [\n");
    let crossovers = report.crossovers();
    for (i, x) in crossovers.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"cost\": \"{}\", \"workers\": {}, \"pool_batch\": {}, \"spawn_batch\": {}}}{}",
            x.cost,
            x.workers,
            opt_usize(x.pool_batch),
            opt_usize(x.spawn_batch),
            if i + 1 == crossovers.len() { "" } else { "," },
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"cells\": [\n");
    for (i, c) in report.cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"cost\": \"{}\", \"item_ns\": {:.1}, \"workers\": {}, \"batch\": {}, \"seq_ns\": {:.1}, \"pool_ns\": {:.1}, \"spawn_ns\": {:.1}, \"pool_over_spawn\": {:.4}}}{}",
            c.cost,
            c.item_ns,
            c.workers,
            c.batch,
            c.seq_ns,
            c.pool_ns,
            c.spawn_ns,
            c.pool_over_spawn(),
            if i + 1 == report.cells.len() { "" } else { "," },
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal grid that still exercises every path and the JSON
    /// renderer end to end.
    fn tiny() -> ParallelBenchConfig {
        ParallelBenchConfig {
            smoke: true,
            workers: vec![2],
            batches: vec![2, 8],
            costs: vec![CostTier {
                name: "spin1us",
                spin_iters: 16,
            }],
            samples: 1,
            target_sample_ns: 10_000,
        }
    }

    #[test]
    fn bench_runs_and_renders_valid_shaped_json() {
        let mut seen = 0;
        let report = run_parallel_bench(&tiny(), |_| seen += 1);
        assert_eq!(seen, 2);
        assert_eq!(report.cells.len(), 2);
        assert!(report.host_cores >= 1);
        assert_eq!(report.fork_floor, FORK_FLOOR);
        for c in &report.cells {
            assert!(c.seq_ns > 0.0 && c.pool_ns > 0.0 && c.spawn_ns > 0.0);
        }
        let json = report_to_json(&report, "test");
        assert!(json.contains("\"schema\": \"phonocmap-bench-parallel/1\""));
        assert!(json.contains("\"host_cores\""));
        assert!(json.contains("\"crossovers\""));
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "unbalanced JSON");
    }

    #[test]
    fn crossover_series_cover_the_grid() {
        let report = run_parallel_bench(&tiny(), |_| {});
        let xs = report.crossovers();
        assert_eq!(xs.len(), 1);
        assert_eq!(xs[0].cost, "spin1us");
        assert_eq!(xs[0].workers, 2);
        // Parity batches, when present, must be batch sizes from the
        // grid.
        for b in [xs[0].pool_batch, xs[0].spawn_batch].into_iter().flatten() {
            assert!([2usize, 8].contains(&b));
        }
    }

    #[test]
    fn cli_rejects_bad_flags() {
        let args = vec!["--samples".to_string(), "no".to_string()];
        assert!(run_parallel_cli(&args, "test").is_err());
    }
}
