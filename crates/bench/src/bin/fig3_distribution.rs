//! Regenerates **Figure 3** of the paper: the probability distribution of
//! (a) worst-case SNR and (b) worst-case power loss over a large number
//! of uniformly random mappings for each of the eight benchmarks, on a
//! mesh of Crux routers.
//!
//! ```text
//! cargo run --release -p bench --bin fig3_distribution [--samples N] [--seed S] [--bins B]
//! ```
//!
//! Default: 100 000 samples per application, exactly as in the paper.
//! Prints ASCII histograms and writes one CSV per application and axis
//! under `results/`.

use bench::{bin_args, paper_problem, write_results_file, Histogram, TABLE2_APPS};
use phonoc_core::{Mapping, Objective};
use phonoc_topo::TopologyKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let (samples, seed, bins): (usize, u64, usize) =
        bin_args(&["--samples", "--seed", "--bins"], |a| {
            Ok((
                a.parsed("--samples", 100_000)?,
                a.parsed("--seed", 3)?,
                a.parsed("--bins", 40)?,
            ))
        });

    println!("Figure 3 reproduction: {samples} random mappings per application\n");

    // Paper Fig. 3 axes: SNR 5..25 dB (we widen to capture the plateau),
    // loss −4..0 dB.
    let snr_range = (5.0, 45.0);
    let loss_range = (-4.0, 0.0);

    for app in TABLE2_APPS {
        let problem = paper_problem(app, TopologyKind::Mesh, Objective::MaximizeWorstCaseSnr);
        let evaluator = problem.evaluator();
        let tasks = problem.task_count();
        let tiles = problem.tile_count();

        // Parallel sampling: split the sample budget across pool tasks
        // with distinct, deterministic sub-seeds. The split width keeps
        // the pre-pool derivation (available parallelism, capped at
        // 16), so a given host still draws the identical sample set.
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
            .min(16);
        let per_worker = samples.div_ceil(workers);
        let shards: Vec<(usize, usize)> = (0..workers)
            .map(|w| (w, per_worker.min(samples.saturating_sub(w * per_worker))))
            .filter(|&(_, todo)| todo > 0)
            .collect();
        let mut snr_hist = Histogram::new(snr_range.0, snr_range.1, bins);
        let mut loss_hist = Histogram::new(loss_range.0, loss_range.1, bins);
        let (mut snr_min, mut snr_max) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut loss_min, mut loss_max) = (f64::INFINITY, f64::NEG_INFINITY);

        let sampled = phonoc_core::parallel::parallel_map_with(
            &shards,
            usize::MAX,
            || (),
            |_, &(w, todo)| {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut sh = Histogram::new(snr_range.0, snr_range.1, bins);
                let mut lh = Histogram::new(loss_range.0, loss_range.1, bins);
                let (mut smin, mut smax) = (f64::INFINITY, f64::NEG_INFINITY);
                let (mut lmin, mut lmax) = (f64::INFINITY, f64::NEG_INFINITY);
                for _ in 0..todo {
                    let m = Mapping::random(tasks, tiles, &mut rng);
                    let metrics = evaluator.evaluate(&m);
                    let snr = metrics.worst_case_snr.0;
                    let loss = metrics.worst_case_il.0;
                    sh.add(snr);
                    lh.add(loss);
                    smin = smin.min(snr);
                    smax = smax.max(snr);
                    lmin = lmin.min(loss);
                    lmax = lmax.max(loss);
                }
                (sh, lh, smin, smax, lmin, lmax)
            },
        );
        for (sh, lh, smin, smax, lmin, lmax) in sampled {
            snr_hist.merge(&sh);
            loss_hist.merge(&lh);
            snr_min = snr_min.min(smin);
            snr_max = snr_max.max(smax);
            loss_min = loss_min.min(lmin);
            loss_max = loss_max.max(lmax);
        }

        println!("== {app} ({} samples) ==", snr_hist.count());
        println!(
            "worst-case SNR range: {snr_min:.2} .. {snr_max:.2} dB (spread {:.2} dB)",
            snr_max - snr_min
        );
        println!(
            "worst-case loss range: {loss_min:.3} .. {loss_max:.3} dB (spread {:.3} dB)",
            loss_max - loss_min
        );
        println!("-- SNR distribution (dB) --");
        print!("{}", snr_hist.to_ascii(48));
        println!("-- power loss distribution (dB) --");
        print!("{}", loss_hist.to_ascii(48));
        println!();

        let safe = app.replace(['-', ' '], "_").to_lowercase();
        write_results_file(&format!("fig3a_snr_{safe}.csv"), &snr_hist.to_csv());
        write_results_file(&format!("fig3b_loss_{safe}.csv"), &loss_hist.to_csv());
    }

    println!(
        "Fig. 3 takeaway check: the best and worst random mapping should differ\n\
         substantially on both axes for every application (the paper's point\n\
         about the high variability of loss/crosstalk across mappings)."
    );
}
