//! Tier-1 self-check: the workspace at HEAD must be clean under the full
//! ignem-analyze run (token rules + taint + cross-crate + reachability).
//! This is the test that makes the determinism rules load-bearing — a PR
//! that introduces a wall-clock read, an unwired `Event` variant, or a
//! panic on a fault path fails `cargo test` locally, not just the CI
//! analyze step. A finding is fixed or carries a reasoned allow
//! directive; there is no list of accepted findings.

#[test]
fn workspace_is_clean() {
    let root = ignem_lint::default_root();
    let report = ignem_lint::run_analysis(&root).expect("scan workspace");
    assert!(
        report.files_scanned > 40,
        "suspiciously few files scanned ({}); was the scan rooted correctly?",
        report.files_scanned
    );
    let findings: Vec<String> = report
        .violations
        .iter()
        .map(|v| format!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message))
        .collect();
    assert!(
        report.is_clean(),
        "ignem-analyze findings:\n{}",
        findings.join("\n")
    );
}
