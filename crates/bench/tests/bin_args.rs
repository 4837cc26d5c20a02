//! The experiment bins parse their flags strictly: an unknown flag or an
//! unparseable value prints one `error:` line and exits with status 1
//! before any experiment work starts (no stdout at all — the bins print
//! their header first thing once the arguments are read).

use std::process::Command;

#[test]
fn table2_rejects_unknown_flags_and_bad_values_before_any_work() {
    let cases: [&[&str]; 4] = [
        &["--bogus", "1"],
        &["--budget", "abc"],
        &["--budget", "abc", "--bogus", "1"],
        &["--seed", "-3"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_table2_algorithms"))
            .args(args)
            .output()
            .expect("spawn table2_algorithms");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr
                .lines()
                .next()
                .is_some_and(|l| l.starts_with("error:")),
            "{args:?}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?}: work started: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
