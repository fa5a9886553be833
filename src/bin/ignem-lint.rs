//! `ignem-lint` binary: run the ignem-analyze workspace self-check, print
//! diagnostics, write reports, exit nonzero on findings.
//!
//! Usage:
//!
//! ```text
//! cargo run --bin ignem-lint [-- [--json-out PATH] [--sarif-out PATH]
//!     [--baseline PATH] [--changed]]
//! ```
//!
//! * `--json-out PATH` sets where the JSON report is written; default
//!   `target/ignem-lint-report.json`.
//! * `--sarif-out PATH` additionally writes a SARIF 2.1.0 report.
//! * `--baseline PATH` compares findings against a committed baseline:
//!   findings not in the baseline fail the build (regressions), and so do
//!   baseline entries that no longer fire (stale-baseline guard).
//! * `--changed` narrows *reporting* (and the exit code, when no baseline
//!   is given) to files touched per `git diff --name-only HEAD`; analysis
//!   still runs over the whole workspace so cross-crate passes stay sound.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    json_out: Option<PathBuf>,
    sarif_out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    changed: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json_out: None,
        sarif_out: None,
        baseline: None,
        changed: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json-out" => {
                args.json_out = Some(it.next().ok_or("--json-out needs a path")?.into());
            }
            "--sarif-out" => {
                args.sarif_out = Some(it.next().ok_or("--sarif-out needs a path")?.into());
            }
            "--baseline" => {
                args.baseline = Some(it.next().ok_or("--baseline needs a path")?.into());
            }
            "--changed" => args.changed = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Files touched relative to HEAD (staged, unstaged, and untracked), as
/// workspace-relative paths.
fn changed_files(root: &std::path::Path) -> Result<BTreeSet<String>, String> {
    let mut files = BTreeSet::new();
    for extra in [
        &["diff", "--name-only", "HEAD"][..],
        &["ls-files", "--others", "--exclude-standard"][..],
    ] {
        let out = Command::new("git")
            .args(extra)
            .current_dir(root)
            .output()
            .map_err(|e| format!("git failed to start: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "git {} failed: {}",
                extra.join(" "),
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let line = line.trim();
            if !line.is_empty() {
                files.insert(line.to_string());
            }
        }
    }
    Ok(files)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ignem-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root = match ignem_lint::default_root().canonicalize() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ignem-lint: cannot resolve workspace root: {e}");
            return ExitCode::FAILURE;
        }
    };
    let full = match ignem_lint::run_analysis(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ignem-lint: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = if args.changed {
        match changed_files(&root) {
            Ok(files) => full.filter_to_files(&files),
            Err(e) => {
                eprintln!("ignem-lint: --changed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        full
    };
    for v in &report.violations {
        eprintln!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
    }
    let json_path = args
        .json_out
        .unwrap_or_else(|| root.join("target").join("ignem-lint-report.json"));
    if let Some(parent) = json_path.parent() {
        let _ = fs::create_dir_all(parent);
    }
    if let Err(e) = fs::write(&json_path, report.to_json()) {
        eprintln!("ignem-lint: cannot write {}: {e}", json_path.display());
        return ExitCode::FAILURE;
    }
    if let Some(sarif_path) = &args.sarif_out {
        if let Some(parent) = sarif_path.parent() {
            let _ = fs::create_dir_all(parent);
        }
        if let Err(e) = fs::write(sarif_path, ignem_lint::to_sarif(&report.violations)) {
            eprintln!("ignem-lint: cannot write {}: {e}", sarif_path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "ignem-lint: {} files scanned, {} violation(s); report at {}",
        report.files_scanned,
        report.violations.len(),
        json_path.display()
    );
    // Baseline mode: the exit status reflects the diff, both directions.
    if let Some(baseline_path) = &args.baseline {
        let text = match fs::read_to_string(baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "ignem-lint: cannot read baseline {}: {e}",
                    baseline_path.display()
                );
                return ExitCode::FAILURE;
            }
        };
        let baseline = match ignem_lint::parse_baseline(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("ignem-lint: bad baseline: {e}");
                return ExitCode::FAILURE;
            }
        };
        let diff = ignem_lint::baseline_diff(&report, &baseline);
        for v in &diff.new {
            eprintln!(
                "ignem-lint: NEW finding not in baseline: {}:{} [{}] {}",
                v.file, v.line, v.rule, v.message
            );
        }
        for b in &diff.stale {
            eprintln!(
                "ignem-lint: STALE baseline entry (no longer fires — remove it): \
                 {}:{} [{}]",
                b.file, b.line, b.rule
            );
        }
        return if diff.is_clean() {
            println!(
                "ignem-lint: baseline check clean ({} accepted finding(s))",
                baseline.len()
            );
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
