//! `ignem-lint` binary: run the ignem-analyze workspace self-check, print
//! diagnostics, write reports, exit nonzero on findings.
//!
//! Usage:
//!
//! ```text
//! cargo run --bin ignem-lint [-- [--json-out PATH] [--sarif-out PATH]]
//! ```
//!
//! * `--json-out PATH` sets where the JSON report is written; default
//!   `target/ignem-lint-report.json`.
//! * `--sarif-out PATH` additionally writes a SARIF 2.1.0 report.
//!
//! Analysis always covers the whole workspace, and any finding fails the
//! run.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    json_out: Option<PathBuf>,
    sarif_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json_out: None,
        sarif_out: None,
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
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
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
    let report = match ignem_lint::run_analysis(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ignem-lint: scan failed: {e}");
            return ExitCode::FAILURE;
        }
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
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
