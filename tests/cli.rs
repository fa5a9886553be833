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
    let out = ignem_sim(&["swim", "--jobs", "abc"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--jobs"), "{stderr}");
    assert!(out.stdout.is_empty(), "no experiment may run");
}

#[test]
fn unknown_flag_is_rejected() {
    let out = ignem_sim(&["swim", "--job", "5"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --job"), "{stderr}");
    assert!(out.stdout.is_empty(), "no experiment may run");
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
