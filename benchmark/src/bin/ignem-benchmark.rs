//! Runs one workload with tracing off and prints its end-to-end metrics.
//!
//! ```text
//! ignem-benchmark --workload paper8 [--seed N] [--seconds S]
//! ```

use std::process::ExitCode;

use ignem_benchmark::report;
use ignem_benchmark::trace::Tracer;
use ignem_benchmark::workloads::{self, Plan};
use ignem_benchmark::{Args, USAGE};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::full(args.workload);
    let out = workloads::run(
        &plan,
        args.seed,
        plan.passes(),
        &mut Tracer::new(false, None),
    );
    let Some(rss) = report::peak_rss_mb() else {
        eprintln!("peak_rss_mb needs /proc/self/status");
        return ExitCode::FAILURE;
    };
    let failed = out.failed();
    report::print(
        &report::end_to_end(&out, rss),
        failed == 0,
        out.units.len(),
        failed,
    );
    ExitCode::SUCCESS
}
