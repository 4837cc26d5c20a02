//! Integration tests for the `phonocmap` command-line tool, driving the
//! real binary the way a user would.

use std::process::Command;

fn phonocmap(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_phonocmap"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = phonocmap(&[]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("commands:"), "usage missing: {err}");
}

#[test]
fn list_shows_benchmarks_routers_and_optimizers() {
    let out = phonocmap(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["VOPD", "crux", "r-pbla", "xy (mesh/torus)"] {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }
}

#[test]
fn describe_router_prints_a_datasheet() {
    let out = phonocmap(&["describe-router", "crux"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("microrings: 12"));
    assert!(stdout.contains("connection losses"));
}

#[test]
fn describe_router_rejects_unknown_names() {
    let out = phonocmap(&["describe-router", "warp-drive"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("warp-drive"));
}

#[test]
fn show_app_renders_text_and_dot() {
    let text = phonocmap(&["show-app", "PIP"]);
    assert!(text.status.success());
    assert!(String::from_utf8_lossy(&text.stdout).contains("task inp_mem"));

    let dot = phonocmap(&["show-app", "PIP", "--dot"]);
    assert!(dot.status.success());
    assert!(String::from_utf8_lossy(&dot.stdout).contains("digraph"));
}

#[test]
fn analyze_prints_a_report() {
    let out = phonocmap(&["analyze", "--app", "PIP", "--seed", "3"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("worst-case"));
    assert!(stdout.contains("PIP"));
}

#[test]
fn optimize_runs_with_a_small_budget() {
    let out = phonocmap(&[
        "optimize",
        "--app",
        "PIP",
        "--budget",
        "500",
        "--algo",
        "rs",
        "--objective",
        "loss",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rs finished: 500 evaluations"));
    assert!(stdout.contains("task placement"));
}

/// `@policy` warns exactly where it has no effect: GA mutation draws
/// from the policy's neighbourhood, while the exact lane never builds
/// one.
#[test]
fn policy_warnings_name_only_optimizers_without_a_neighborhood() {
    for (algo, warns) in [("ga@locality", false), ("exact@sampled", true)] {
        let out = phonocmap(&["optimize", "--app", "PIP", "--budget", "40", "--algo", algo]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{algo}: {err}");
        assert_eq!(err.contains("has no effect"), warns, "{algo}: {err}");
    }
}

#[test]
fn optimize_accepts_cg_files() {
    let dir = std::env::temp_dir().join("phonocmap_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pipeline.cg");
    std::fs::write(
        &path,
        "app file-pipeline\ntask a\ntask b\ntask c\nedge a b 64\nedge b c 32\n",
    )
    .unwrap();
    let out = phonocmap(&[
        "optimize",
        "--file",
        path.to_str().unwrap(),
        "--budget",
        "300",
        "--algo",
        "r-pbla",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("file-pipeline"));
}

#[test]
fn task_free_cg_files_fail_with_messages() {
    let dir = std::env::temp_dir().join("phonocmap_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, text) in [("empty.cg", ""), ("app-only.cg", "app x\n")] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        for command in ["optimize", "analyze", "portfolio"] {
            let out = phonocmap(&[command, "--file", path.to_str().unwrap()]);
            assert_eq!(out.status.code(), Some(1), "{command} {name}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.starts_with("error:") && err.contains("no tasks"),
                "{command} {name}: {err}"
            );
        }
    }
}

#[test]
fn cg_files_past_the_task_limit_fail_with_messages() {
    let dir = std::env::temp_dir().join("phonocmap_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("huge.cg");
    let mut text = String::from("app huge\n");
    for t in 0..70_000 {
        text.push_str(&format!("task t{t}\n"));
    }
    text.push_str("edge t0 t1 1\n");
    std::fs::write(&path, text).unwrap();
    let out = phonocmap(&["optimize", "--file", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("error:") && err.contains("70000 tasks"),
        "{err}"
    );
}

#[test]
fn bad_flags_fail_with_messages() {
    for (args, needle) in [
        (vec!["optimize", "--app", "nope"], "unknown benchmark"),
        (
            vec!["optimize", "--app", "PIP", "--algo", "magic"],
            "unknown optimizer",
        ),
        (
            vec!["optimize", "--app", "PIP", "--topology", "hypercube"],
            "unknown topology",
        ),
        (vec!["optimize"], "--app"),
        (vec!["frobnicate"], "unknown command"),
        // A typo must not silently run the 100000-evaluation default.
        (
            vec![
                "optimize", "--app", "VOPD", "--budget", "50", "--bogus", "3",
            ],
            "unknown flag `--bogus`",
        ),
        (
            vec!["optimize", "--app", "PIP", "--budjet", "50"],
            "unknown flag `--budjet`",
        ),
        // The neighbourhood policy has one spelling: the `@policy`
        // suffix.
        (
            vec!["optimize", "--app", "PIP", "--neighborhood", "sampled"],
            "unknown flag `--neighborhood`",
        ),
        (
            vec!["portfolio", "--app", "PIP", "--neighborhood", "sampled"],
            "unknown flag `--neighborhood`",
        ),
        (
            vec!["optimize", "--app", "PIP", "--budget"],
            "needs a value",
        ),
        (
            vec!["analyze", "--app", "PIP", "stray"],
            "unexpected argument",
        ),
        (vec!["list", "--all"], "unknown flag `--all`"),
        (vec!["show-app", "PIP", "--svg"], "unknown flag `--svg`"),
        (
            vec!["trace", "a.jsonl", "--verbose"],
            "unknown flag `--verbose`",
        ),
        (vec!["sweep", "--smoke", "--fast"], "unknown flag `--fast`"),
        (vec!["replay", "--smoke", "--fast"], "unknown flag `--fast`"),
        (vec!["parallel-bench"], "unknown command `parallel-bench`"),
        // Retired portfolio options name the accepted form.
        (
            vec!["portfolio", "--app", "PIP", "--spec", "rs+sa,exchange=ring"],
            "exchange=best",
        ),
        (
            vec!["portfolio", "--app", "PIP", "--spec", "rs+sa,collapse=3"],
            "exchange=best",
        ),
    ] {
        let out = phonocmap(&args);
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(needle),
            "{args:?}: missing `{needle}` in {err}"
        );
    }
}

/// A repeated flag or a value that is really the next flag must fail
/// instead of silently running with one of the two readings.
#[test]
fn repeated_flags_and_flag_shaped_values_fail() {
    let dir = std::env::temp_dir().join("phonocmap_cli_flag_values");
    std::fs::create_dir_all(&dir).unwrap();
    let _ = std::fs::remove_file(dir.join("--seed"));
    for (args, needle) in [
        (
            vec![
                "optimize", "--app", "VOPD", "--budget", "50", "--budget", "2000",
            ],
            "`--budget` given twice",
        ),
        (
            vec![
                "optimize", "--app", "VOPD", "--app", "MPEG4", "--budget", "50",
            ],
            "`--app` given twice",
        ),
        (
            vec![
                "optimize",
                "--app",
                "VOPD",
                "--budget",
                "50",
                "--trace-out",
                "--seed",
            ],
            "`--trace-out` needs a value",
        ),
        (vec!["sweep", "--smoke", "--smoke"], "`--smoke` given twice"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_phonocmap"))
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("error:") && err.contains(needle),
            "{args:?}: missing `{needle}` in {err}"
        );
    }
    assert!(
        !dir.join("--seed").exists(),
        "a flag-shaped value must not become a trace file"
    );
}

/// Zero budgets, samples and moves are rejected before any work starts
/// (they used to panic or write bogus timings).
#[test]
fn zero_counts_fail_before_any_work() {
    let dir = std::env::temp_dir().join("phonocmap_cli_zero_counts");
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("bench.json");
    let out_path = out_path.to_str().unwrap();
    for (args, flag) in [
        (vec!["replay", "--smoke", "--budget", "0"], "--budget"),
        (vec!["sweep", "--smoke", "--budget", "0"], "--budget"),
        (vec!["sweep", "--smoke", "--samples", "0"], "--samples"),
        (vec!["sweep", "--smoke", "--moves", "0"], "--moves"),
    ] {
        let mut args = args;
        args.extend(["--out", out_path]);
        let out = phonocmap(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        let needle = format!("error: {flag} must be at least 1");
        assert!(
            err.contains(&needle),
            "{args:?}: missing `{needle}` in {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} started work");
    }
}

/// An unknown `sweep --neighborhood` value fails with one `error:` line
/// that names every policy, before any sweep work starts.
#[test]
fn bad_sweep_neighborhoods_name_every_policy() {
    let out_path = std::env::temp_dir().join("phonocmap_cli_bad_neighborhood.json");
    let out = phonocmap(&[
        "sweep",
        "--smoke",
        "--neighborhood",
        "nearby",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    let line = err
        .lines()
        .find(|l| l.starts_with("error:"))
        .unwrap_or_else(|| panic!("no error line in {err}"));
    assert!(line.contains("nearby"), "{line}");
    for policy in phonoc_core::NeighborhoodPolicy::ALL {
        assert!(line.contains(policy.name()), "{line} misses {policy}");
    }
    assert!(out.stdout.is_empty(), "sweep work started");
    assert!(!out_path.exists(), "sweep wrote its report");
}

/// A trace whose `session_end` counters only reconcile when their sum
/// wraps must fail with one `error:` line, not reconcile or panic.
#[test]
fn overflowing_trace_counters_fail_with_one_error_line() {
    let session_end = |full_peeks: &str, full_direct: &str| {
        let mut line = String::from(
            "{\"ev\":\"session_end\",\"spent\":0,\"budget\":1,\"score_bits\":0,\"score\":0",
        );
        for key in [
            "full_evaluations",
            "delta_evaluations",
            "full_peeks",
            "full_direct",
            "delta_exact",
            "loss_fast_path",
            "bound_rejected",
            "bound_verified",
            "bound_charges",
            "improvements",
            "widenings",
            "dry_scans",
            "narrowings",
            "warm_exact_hits",
            "warm_near_hits",
            "warm_cold",
            "exact_nodes",
            "exact_leaves",
            "rounds",
        ] {
            let value = match key {
                "full_peeks" => full_peeks,
                "full_direct" => full_direct,
                _ => "0",
            };
            line.push_str(&format!(",\"{key}\":{value}"));
        }
        line + "}\n"
    };
    let trace = format!(
        "{{\"schema\":\"phonocmap-trace/1\",\"source\":\"optimize\",\"events\":2}}\n{}{}",
        session_end("18446744073709551615", "1"),
        session_end("0", "0"),
    );
    let dir = std::env::temp_dir().join("phonocmap_cli_overflow_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("overflow.trace.jsonl");
    std::fs::write(&path, trace).unwrap();
    let out = phonocmap(&["trace", path.to_str().unwrap()]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert_eq!(err.lines().count(), 1, "one error line: {err}");
    assert!(
        err.starts_with("error:") && err.contains("`full_direct` overflows"),
        "{err}"
    );
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("reconciliation: OK"),
        "an overflowing trace must not reconcile"
    );
}

#[test]
fn yx_on_crux_style_incompatibility_reaches_the_user() {
    // DVOPD on a 4×4 has too many tasks; the core error must surface.
    let out = phonocmap(&["analyze", "--app", "DVOPD", "--topology", "ring"]);
    // 32-task ring works; instead test too-many-tasks via a custom file.
    assert!(out.status.success());

    let dir = std::env::temp_dir().join("phonocmap_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("selfloop.cg");
    std::fs::write(&path, "task a\nedge a a 1\n").unwrap();
    let out = phonocmap(&["analyze", "--file", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("self-loop"));
}

/// The `a|b|c` name list the help prints after `key` (the first token
/// of its line).
fn help_list(help: &str, key: &str) -> Vec<String> {
    help.lines()
        .find_map(|line| {
            let mut tokens = line.split_whitespace();
            (tokens.next() == Some(key))
                .then(|| tokens.next())
                .flatten()
        })
        .unwrap_or_else(|| panic!("help lists no `{key}` names:\n{help}"))
        .split('|')
        .map(str::to_owned)
        .collect()
}

#[test]
fn every_name_the_help_advertises_parses() {
    let help = phonocmap(&["help"]);
    assert!(help.status.success());
    let help = String::from_utf8_lossy(&help.stdout);
    let policies = help_list(&help, "@policy");
    let peeks = help_list(&help, "/peek");
    let objectives = help_list(&help, "!objective");
    let objective_flags = help_list(&help, "--objective");
    let topologies = help_list(&help, "--topology");
    let routers = help_list(&help, "--router");
    let rounds = [
        &policies,
        &peeks,
        &objectives,
        &objective_flags,
        &topologies,
        &routers,
    ]
    .iter()
    .map(|names| names.len())
    .max()
    .unwrap();
    // Cycle every list until each name has appeared at least once.
    for i in 0..rounds {
        let pick = |names: &[String]| names[i % names.len()].clone();
        let algo = format!(
            "r-pbla@{}/{}!{}",
            pick(&policies),
            pick(&peeks),
            pick(&objectives)
        );
        let (objective, topology, router) =
            (pick(&objective_flags), pick(&topologies), pick(&routers));
        let out = phonocmap(&[
            "optimize",
            "--app",
            "PIP",
            "--budget",
            "20",
            "--algo",
            &algo,
            "--objective",
            &objective,
            "--topology",
            &topology,
            "--router",
            &router,
        ]);
        assert!(
            out.status.success(),
            "{algo} --objective {objective} --topology {topology} --router {router}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn every_builtin_optimizer_is_advertised() {
    let builtins: Vec<String> = phonocmap::opt::builtin_names()
        .iter()
        .map(|&n| n.to_owned())
        .collect();
    let help = phonocmap(&["help"]);
    assert!(help.status.success());
    let help = String::from_utf8_lossy(&help.stdout);
    assert_eq!(help_list(&help, "NAME:"), builtins);

    let portfolio = phonocmap(&["portfolio", "help"]);
    assert!(portfolio.status.success());
    let portfolio = String::from_utf8_lossy(&portfolio.stdout);
    // The lane grammar's `optimizer` row (the prose above it also has
    // a line starting with "optimizer").
    let lane_row = portfolio
        .lines()
        .find(|line| line.starts_with("    optimizer "))
        .unwrap_or_else(|| panic!("no optimizer row:\n{portfolio}"));
    assert_eq!(help_list(lane_row, "optimizer"), builtins);
    // The lane grammar names every suffix and option the parser takes.
    assert!(portfolio.contains("[!objective]"), "{portfolio}");
    assert!(portfolio.contains("exchange=best"), "{portfolio}");
}

#[test]
fn bad_worker_counts_fail_before_any_work() {
    let with_workers = |value: &str| {
        Command::new(env!("CARGO_BIN_EXE_phonocmap"))
            .args(["list"])
            .env("PHONOC_WORKERS", value)
            .output()
            .expect("binary runs")
    };
    for bad in ["two", "0", "-1", ""] {
        let out = with_workers(bad);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "PHONOC_WORKERS=`{bad}`: {err}");
        assert!(
            err.starts_with("error:") && err.contains("PHONOC_WORKERS") && err.lines().count() == 1,
            "PHONOC_WORKERS=`{bad}`: {err}"
        );
        assert!(out.stdout.is_empty(), "PHONOC_WORKERS=`{bad}` did work");
    }
    for good in ["1", " 2 "] {
        let out = with_workers(good);
        assert!(out.status.success(), "PHONOC_WORKERS=`{good}` must run");
    }
}
