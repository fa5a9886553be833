//! Tier-2 chaos sweep: run a range of chaos seeds, fail on the first
//! invariant violation, and emit a minimized fault schedule for it.
//!
//! ```text
//! chaos-sweep [SEEDS] [--start N] [--out PATH] [--jobs N] [--crashes N]
//! ```
//!
//! Runs seeds `start..start + SEEDS` (default 256 from 0) through the
//! chaos harness with per-event validation and the full end-state
//! invariant suite (leak-freedom, memory conservation, completion,
//! event-stream consistency, ledger conservation, determinism via a
//! second run). On a violation the offending seed's fault plan is shrunk
//! to a 1-minimal schedule, written to `--out` (default
//! `chaos-minimized.txt`) for CI artifact upload, and the process exits
//! nonzero.
//!
//! `--crashes N` adds N
//! [`Fault::NodeCrash`](ignem_cluster::world::Fault::NodeCrash) draws to
//! every seed's fault plan (on top of the default palette), exercising the
//! crash/recovery protocol and the recovery-convergence invariant. The
//! crash draws are appended after the base draws, so `--crashes 0` (the
//! default) sweeps the same plans as before crash support existed.
//!
//! Seeds fan out over `--jobs` worker threads (default: available
//! parallelism) through [`ignem_cluster::sweep`], which merges results in
//! seed order — stdout, stderr, the exit code and the minimized-schedule
//! artifact are byte-identical to `--jobs 1`.

use std::ops::ControlFlow;
use std::process::ExitCode;

use ignem_cluster::chaos::{minimize_faults, run_chaos, ChaosConfig};
use ignem_cluster::sweep::{default_jobs, sweep};

fn main() -> ExitCode {
    let mut seeds: u64 = 256;
    let mut start: u64 = 0;
    let mut out = String::from("chaos-minimized.txt");
    let mut jobs: Option<usize> = None;
    let mut crashes: usize = 0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--start" => start = parse(args.next(), "--start"),
            "--out" => out = args.next().unwrap_or_else(|| usage("--out needs a path")),
            "--jobs" => jobs = Some(parse(args.next(), "--jobs").max(1) as usize),
            "--crashes" => crashes = parse(args.next(), "--crashes") as usize,
            "--help" | "-h" => {
                usage("chaos-sweep [SEEDS] [--start N] [--out PATH] [--jobs N] [--crashes N]")
            }
            other if other.starts_with("--") => usage(&format!("unknown flag {other}")),
            other => seeds = parse(Some(other.to_string()), "SEEDS"),
        }
    }
    let jobs = jobs.unwrap_or_else(default_jobs);

    let mut worst_leak = 0u64;
    let failed = sweep(
        start,
        seeds,
        jobs,
        move |seed| seed_outcome(seed, crashes),
        |seed, outcome| {
            if let Err(violation) = outcome.verdict {
                eprintln!("seed {seed}: FAIL — {violation}");
                let cfg = ChaosConfig {
                    seed,
                    crashes,
                    ..ChaosConfig::default()
                };
                let description = match minimize_faults(&cfg) {
                    Some(min) => min.describe(),
                    // Determinism violations survive fault shrinking only by
                    // accident; still record the full plan for the report.
                    None => format!("seed {seed} violates: {violation}\n(full fault plan kept)\n"),
                };
                eprintln!("{description}");
                if let Err(e) = std::fs::write(&out, &description) {
                    eprintln!("could not write {out}: {e}");
                }
                return ControlFlow::Break(());
            }
            worst_leak = worst_leak.max(outcome.leak);
            if (seed - start + 1).is_multiple_of(64) {
                println!("…{} seeds clean", seed - start + 1);
            }
            ControlFlow::Continue(())
        },
    );
    if failed.is_some() {
        return ExitCode::FAILURE;
    }
    println!("{seeds} seeds clean (max leaked refs: {worst_leak})");
    ExitCode::SUCCESS
}

/// Everything the sweep needs back from one verified seed.
struct SeedOutcome {
    leak: u64,
    verdict: Result<(), String>,
}

/// The per-seed verification: one validated chaos run, the invariant
/// suite, and a second run to confirm a bit-identical fingerprint.
fn seed_outcome(seed: u64, crashes: usize) -> SeedOutcome {
    let cfg = ChaosConfig {
        seed,
        crashes,
        ..ChaosConfig::default()
    };
    let first = run_chaos(&cfg);
    let leak = first.metrics.leaked_job_refs;
    let verdict = match first.check_invariants() {
        Err(e) => Err(e),
        Ok(()) => {
            let second = run_chaos(&cfg);
            if first.fingerprint == second.fingerprint {
                Ok(())
            } else {
                Err(format!(
                    "nondeterministic run (fingerprints {:#x} vs {:#x})",
                    first.fingerprint, second.fingerprint
                ))
            }
        }
    };
    SeedOutcome { leak, verdict }
}

fn parse(value: Option<String>, what: &str) -> u64 {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{what} needs an unsigned integer")))
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
