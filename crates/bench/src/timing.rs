//! The one sanctioned wall-clock site.
//!
//! Everything simulated runs on [`ignem_simcore::time::SimTime`]; real time
//! exists only to measure how fast the simulator itself executes, which is
//! the `benchmark/` package's job. The D10 taint pass treats this function
//! as a *structural* sanitizer boundary: raw wall-clock reads anywhere else
//! in the bench crate are violations, and the returned `Instant` is
//! considered clean because it never feeds back into simulation scheduling,
//! seeding, or telemetry. No string-based allow is needed — the boundary is
//! checked, not suppressed.

use std::time::Instant;

/// Reads the host monotonic clock for benchmark timing.
///
/// This is the only place outside tests where real time may be observed;
/// the benchmark reads it around every timed call and behind its
/// `HostProfiler` clock. Simulation code must never call this — same-seed
/// replay has to be independent of how fast the host happens to run.
pub fn wall_clock() -> Instant {
    Instant::now()
}
