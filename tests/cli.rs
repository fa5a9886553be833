//! Command-line contract of the `ignem-sim` binary: malformed input is
//! rejected with exit code 2 instead of silently falling back to defaults,
//! and the `replay` command runs a streamed trace world to completion.

use std::process::{Command, Output};

fn ignem_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ignem-sim"))
        .args(args)
        .output()
        .expect("ignem-sim runs")
}

#[test]
fn bad_number_is_rejected() {
    let out = ignem_sim(&["replay", "--nodes", "abc"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--nodes"), "{stderr}");
    assert!(out.stdout.is_empty(), "no experiment may run");
}

#[test]
fn unknown_flag_is_rejected() {
    let out = ignem_sim(&["replay", "--node", "5"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --node"), "{stderr}");
    assert!(out.stdout.is_empty(), "no experiment may run");
}

#[test]
fn removed_command_points_at_replay() {
    let out = ignem_sim(&["swim", "--jobs", "5"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command: swim"), "{stderr}");
    assert!(stderr.contains("replay"), "{stderr}");
    assert!(out.stdout.is_empty(), "no experiment may run");
}

#[test]
fn help_prints_the_usage_line() {
    for args in [&["--help"][..], &["replay", "--help"]] {
        let out = ignem_sim(args);
        assert_eq!(out.status.code(), Some(0));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: ignem-sim replay "), "{stdout}");
    }
}

#[test]
fn replay_completes_every_admitted_job() {
    let out = ignem_sim(&["replay", "--nodes", "64", "--days", "1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("jobs completed       20000 of 20000"),
        "{stdout}"
    );
    assert!(stdout.contains("events processed"), "{stdout}");
}
