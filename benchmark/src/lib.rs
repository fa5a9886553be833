//! # ignem-benchmark — host-time benchmark of the Ignem simulator
//!
//! Times four fixed workloads from outside the simulator, through the
//! public APIs of `ignem-cluster`, `ignem-workloads` and `ignem-simcore`
//! (see `README.md` for the workloads, the metrics and how to read them).
//! Host time is read only through [`ignem_bench::wall_clock`].
//!
//! * `ignem-benchmark` runs a workload's passes ([`workloads::Plan::passes`])
//!   with tracing off and prints the end-to-end metrics.
//! * `ignem-benchmark-traced` runs one pass untraced and one traced in the
//!   same process, prints the per-layer metrics and writes the spans.

pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

use workloads::Workload;

/// Command-line arguments shared by both binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Where the traced binary writes its spans.
    pub spans_out: Option<PathBuf>,
}

/// Usage text of both binaries.
pub const USAGE: &str = "usage: ignem-benchmark[-traced] \
    --workload paper8|observed8|chaos_sweep|datacenter \
    [--seed N] [--seconds S] [--spans-out PATH]";

impl Args {
    /// Parses `--workload W [--seed N] [--seconds S] [--spans-out PATH]`.
    /// `--seconds` is accepted, as benchmark harnesses pass their run
    /// length, but the work each workload does is fixed.
    ///
    /// # Errors
    ///
    /// Describes the first unknown flag, missing or malformed value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut spans_out = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} needs an unsigned integer, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => {
                    number()?;
                }
                "--spans-out" => spans_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            seed: seed.unwrap_or(workload.default_seed()),
            spans_out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_flags_and_defaults() {
        let a = parse(&["--workload", "paper8"]).unwrap();
        assert_eq!(a.seed, ignem_bench::REPORT_SEED);
        let a = parse(&["--seed", "7", "--workload", "datacenter", "--seconds", "3"]).unwrap();
        assert_eq!((a.workload, a.seed), (Workload::Datacenter, 7));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "paper8", "--seed"]).is_err());
        assert!(parse(&["--workload", "paper8", "--seed", "-1"]).is_err());
        assert!(parse(&["--workload", "paper8", "--seconds", "ten"]).is_err());
        assert!(parse(&["--workload", "paper8", "--trace", "1"]).is_err());
    }
}
