//! Command-line contract of the `report` binary: a malformed command line
//! exits 2 with a message, before any section runs or any directory is
//! made.

use std::path::PathBuf;
use std::process::Command;

/// Runs `report` with `args` in a fresh, empty working directory and
/// asserts that it exits 2, says `message` on stderr, prints nothing on
/// stdout and leaves the directory empty.
fn rejected(tag: &str, args: &[&str], message: &str) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("ignem-report-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("report runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(message), "{stderr}");
    assert!(out.stdout.is_empty(), "no section may run");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("list working directory")
        .map(|e| e.expect("directory entry").file_name())
        .collect();
    assert!(left.is_empty(), "report created {left:?}");
    std::fs::remove_dir_all(&dir).expect("remove working directory");
}

#[test]
fn unknown_flag_is_rejected() {
    rejected("flag", &["--trace-ot", "fig3"], "unknown flag --trace-ot");
}

#[test]
fn flag_without_value_is_rejected() {
    rejected(
        "value",
        &["out", "fig3", "--trace-out"],
        "--trace-out requires a path",
    );
}

#[test]
fn malformed_number_is_rejected() {
    rejected(
        "number",
        &["--at", "abc"],
        "--at requires an integer, got abc",
    );
}

#[test]
fn unknown_section_is_rejected() {
    rejected(
        "section",
        &["out", "fig3", "fig10"],
        "unknown section: fig10",
    );
    // A mistyped section given first is not taken for OUT_DIR.
    rejected("typo", &["fig10"], "unknown section: fig10");
    rejected("typo-table", &["table4"], "unknown section: table4");
    rejected(
        "typo-ablation",
        &["ablation-replica", "fig3"],
        "unknown section: ablation-replica",
    );
}
